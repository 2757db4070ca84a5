import tracemalloc

import numpy as np
import pytest

from so3density import kernels as K
from so3density import transform as T
from so3density.config import ExperimentConfig
from so3density.estimators import heat_truncation_degree
from so3density.harmonics import character, wigner_D
from so3density.rotations import Rotation
from so3density.spectra import FullSpectrum, MixtureComponent, ZonalMixture

rng = np.random.default_rng(1814)


def hermitian_blocks(L):
    # reality condition: fhat_{nm} = (-1)^{n-m} conj(fhat_{-n,-m})
    blocks = []
    for ell in range(L + 1):
        b = rng.normal(size=(2 * ell + 1, 2 * ell + 1)) + 1j * rng.normal(
            size=(2 * ell + 1, 2 * ell + 1)
        )
        n = np.arange(-ell, ell + 1)
        sign = (-1.0) ** (n[:, None] - n[None, :])
        blocks.append((b + sign * np.conj(b[::-1, ::-1])) / 2.0)
    return blocks


def example_mixture():
    a1 = np.array([1.0, 0.8, 0.5, 0.2, 0.05])
    a2 = np.array([1.0, 0.6, 0.25])
    return ZonalMixture(
        0.3,
        (
            MixtureComponent(0.5, a1, Rotation.from_axis_angle(((1.0, 0.0, 0.0), 0.7))),
            MixtureComponent(0.2, a2, Rotation.from_axis_angle(((0.0, 1.0, 1.0), 2.1))),
        ),
    )


def test_grid_basics():
    g = T.QuadratureGrid(0)
    assert g.shape == (1, 2, 2)
    assert g.weights().sum() == pytest.approx(1.0, abs=1e-15)
    assert g.integrate(np.ones(g.shape)) == pytest.approx(1.0, abs=1e-14)
    g1 = T.QuadratureGrid(1)
    chi1 = character(1, g1.points)
    assert abs(g1.integrate(chi1)) < 1e-14
    g49 = T.QuadratureGrid(49)
    n_nodes = np.prod(g49.shape)
    assert n_nodes >= 100 * 50 * 100
    with pytest.raises(ValueError):
        T.QuadratureGrid(-1)


def test_wigner_orthogonality_under_quadrature():
    # <D^l_nm, D^l'_n'm'> = delta / (2l+1)
    g = T.QuadratureGrid(10)
    d = g.d_stack
    ph = g.phis
    cases = [(0, 0, 0), (1, -1, 0), (2, 1, -2), (5, 3, 3), (6, -4, 2)]
    w = g.weights()
    fields = {}
    for ell, n, m in cases:
        e_n = np.exp(-1j * n * ph)[None, :, None]
        e_m = np.exp(-1j * m * ph)[None, None, :]
        fields[(ell, n, m)] = e_n * d[ell][:, n + ell, m + ell][:, None, None] * e_m
    for a in cases:
        for b in cases:
            val = np.sum(w * np.conj(fields[a]) * fields[b])
            ref = 1.0 / (2 * a[0] + 1) if a == b else 0.0
            assert abs(val - ref) < 1e-12


def synthesize_by_tables(grid, spectrum):
    # reference: the per-degree scatter of d-table products, then the 2-D FFT
    h = np.zeros(grid.shape, dtype=complex)
    for ell in range(spectrum.lmax + 1):
        idx = np.arange(-ell, ell + 1) % grid.n_phi
        h[:, idx[:, None], idx[None, :]] += (2 * ell + 1) * grid.d_stack[ell] * spectrum[ell]
    return np.fft.fft(np.fft.fft(h, axis=1), axis=2).real


def forward_by_tables(grid, values):
    # reference: the 2-D inverse FFT, then one weighted d-table sum per degree
    g = np.fft.ifft(np.fft.ifft(values, axis=1), axis=2)
    blocks = []
    for ell in range(grid.L + 1):
        idx = np.arange(-ell, ell + 1) % grid.n_phi
        gl = g[:, idx[:, None], idx[None, :]]
        blocks.append(np.einsum("j,jnm,jnm->nm", grid.theta_weights, grid.d_stack[ell], gl))
    return blocks


@pytest.mark.parametrize("L, band", [(0, 0), (1, 1), (2, 2), (17, 17), (49, 49), (49, 28)])
def test_grid_transforms_match_d_tables(L, band):
    mix = ExperimentConfig.default().build_mixture()
    grid = T.QuadratureGrid(L)
    spectrum = mix.full_spectrum(band)
    values = T.synthesize(grid, spectrum)
    ref = synthesize_by_tables(grid, spectrum)
    assert np.abs(values - ref).max() <= 1e-13 * np.abs(ref).max()
    got = T.forward(grid, values)
    ref = forward_by_tables(grid, values)
    assert max(np.abs(got[ell] - ref[ell]).max() for ell in range(L + 1)) <= 1e-14


def test_grid_transforms_build_no_tables_and_stay_small():
    grid = T.QuadratureGrid(49)
    spectrum = ExperimentConfig.default().build_mixture().full_spectrum(49)
    tracemalloc.start()
    try:
        got = T.forward(grid, T.synthesize(grid, spectrum))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid._d_stack is None
    # the d-tables alone of this grid hold 67 MB
    assert peak < 64 * 2**20
    assert max(np.abs(got[ell] - spectrum[ell]).max() for ell in range(50)) < 1e-12


def test_forward_of_constant_and_character():
    g = T.QuadratureGrid(5)
    f = T.forward(g, np.ones(g.shape))
    assert abs(f[0][0, 0] - 1.0) < 1e-14
    assert max(np.abs(f[ell]).max() for ell in range(1, 6)) < 1e-12
    chi3 = character(3, g.points)
    f3 = T.forward(g, chi3)
    ref = np.eye(7) / 7.0
    assert np.abs(f3[3] - ref).max() < 1e-12
    for ell in (0, 1, 2, 4, 5):
        assert np.abs(f3[ell] - (0 if ell else np.array([[0.0]]))).max() < 1e-12


def test_round_trip_random_bandlimited():
    f = FullSpectrum(hermitian_blocks(6))
    g = T.QuadratureGrid(8)
    vals = T.synthesize(g, f)
    f2 = T.forward(g, vals)
    assert max(np.abs(f[l] - f2[l]).max() for l in range(7)) < 1e-12
    assert max(np.abs(f2[l]).max() for l in range(7, 9)) < 1e-12
    # imaginary residue of the synthesis of a real function's spectrum
    assert np.abs(T._synthesize_complex(g, f2).imag).max() < 1e-9


def test_parseval_on_grid():
    f = FullSpectrum(hermitian_blocks(5))
    g = T.QuadratureGrid(5)
    vals = T.synthesize(g, f)
    prof = f.energy_per_degree()
    energy = np.sum((2.0 * np.arange(6) + 1.0) ** 2 * prof)
    assert g.integrate(vals**2) == pytest.approx(energy, rel=1e-12)


def test_forward_of_mixture_matches_closed_form_spectrum():
    mix = example_mixture()
    g = T.QuadratureGrid(6)
    f = T.forward(g, mix.evaluate(g.points))
    ref = mix.full_spectrum(6)
    assert max(np.abs(f[l] - ref[l]).max() for l in range(7)) < 1e-12
    assert g.integrate(mix.evaluate(g.points)) == pytest.approx(1.0, abs=1e-13)


def test_synthesize_at_scattered_points():
    mix = example_mixture()
    f = mix.full_spectrum()
    pts = np.array([Rotation.from_quaternion(rng.normal(size=4)).q for _ in range(9)])
    vals = T.synthesize_at(f, pts)
    assert np.abs(vals - mix.evaluate(pts)).max() < 1e-10
    r = Rotation.from_quaternion(pts[0])
    direct = sum(
        (2 * l + 1) * np.sum(f[l] * wigner_D(l, r.to_euler_zyz())) for l in range(f.lmax + 1)
    )
    assert abs(vals[0] - direct.real) < 1e-10


def test_synthesize_at_across_chunks():
    # at band 45 a chunk holds 126 rotations, so 400 points span four chunks;
    # the input's leading shape is kept
    mix = ExperimentConfig.default().build_mixture()
    pts = np.array([Rotation.from_quaternion(rng.normal(size=4)).q for _ in range(400)])
    vals = T.synthesize_at(mix.full_spectrum(), pts.reshape(20, 20, 4))
    assert vals.shape == (20, 20)
    assert np.abs(vals.reshape(-1) - mix.evaluate(pts)).max() < 1e-10


def test_scale_grid_and_weights():
    ts, w = T.scale_grid(0.25)
    # six octave panels of 12 Gauss-Legendre nodes, all inside (t_min, 16)
    assert ts.shape == w.shape == (72,)
    assert 0.25 < ts[0] and np.all(np.diff(ts) > 0) and ts[-1] < 16.0
    # against the analytic integral of 2 t e^{-2t} over the panels [t_min, 16]
    got = np.sum(w * 2.0 * ts * np.exp(-2.0 * ts))
    ref = (0.25 + 0.5) * np.exp(-0.5) - (16.0 + 0.5) * np.exp(-32.0)
    assert abs(got - ref) / ref < 1e-14
    with pytest.raises(ValueError):
        T.scale_grid(0.0)


def test_wavelet_transform_scales_per_degree():
    f = FullSpectrum(hermitian_blocks(4))
    wt = T.wavelet_transform(f, 0.3)
    psi = K.wavelet_coefficients(0.3, 4)
    for ell in range(5):
        assert np.abs(wt[ell] - psi[ell] * f[ell]).max() < 1e-14
    assert np.abs(wt[0]).max() == 0.0


def test_wavelet_inverse_reproduces_heat_factor():
    # Fourier-side identity, per degree: reconstruction = fhat * e^{-l(l+1) t_min}
    # for every degree the heat kernel at t_min carries
    for t_min in (1 / 4, 1 / 16, 1 / 64):
        L = heat_truncation_degree(t_min)
        fs = FullSpectrum([np.eye(2 * l + 1) for l in range(L + 1)])
        ts, w = T.scale_grid(t_min)
        rec = T.wavelet_inverse([T.wavelet_transform(fs, t) for t in ts], ts, w, dc=1.0)
        heat = K.heat_coefficients(t_min, L)
        for l in range(L + 1):
            assert np.abs(rec[l] - heat[l] * np.eye(2 * l + 1)).max() < 1e-13
    with pytest.raises(ValueError):
        T.wavelet_inverse([T.wavelet_transform(fs, t) for t in ts], ts, w[1:])


def test_wavelet_inverse_restores_dc():
    f = FullSpectrum([np.ones((1, 1))])
    ts, w = T.scale_grid(0.5)
    rec = T.wavelet_inverse([T.wavelet_transform(f, t) for t in ts], ts, w, dc=1.0)
    assert rec[0][0, 0] == 1.0


def test_wavelet_unitarity_on_grid():
    # <WT f1, WT f2> over scales (t_min, inf) x SO(3) with alpha(t) dt dmu is
    # <f1, f2> heat-weighted at t_min, DC removed
    mix1 = example_mixture()
    a = np.array([1.0, 0.55, 0.3, 0.1])
    mix2 = ZonalMixture(
        0.4, (MixtureComponent(0.6, a, Rotation.from_axis_angle(((0.2, -1.0, 0.5), 1.3))),)
    )
    L = max(mix1.lmax, mix2.lmax)
    g = T.QuadratureGrid(L)
    f1 = mix1.full_spectrum(L)
    f2 = mix2.full_spectrum(L)
    t_min = 2.0**-24
    heat = K.heat_coefficients(t_min, L)
    ref = sum(
        (2 * l + 1) * heat[l] * np.sum(f1[l] * np.conj(f2[l])).real for l in range(1, L + 1)
    )
    ts, ws = T.scale_grid(t_min)
    acc = 0.0
    for t, w in zip(ts, ws):
        v1 = T.synthesize(g, T.wavelet_transform(f1, t))
        v2 = T.synthesize(g, T.wavelet_transform(f2, t))
        acc += w * K.alpha(t) * g.integrate(v1 * v2)
    assert abs(acc - ref) / abs(ref) < 1e-12
