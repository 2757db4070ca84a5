import numpy as np
import pytest

from so3density import spectra as S
from so3density.config import ExperimentConfig
from so3density.harmonics import L_MAX, characters_all, wigner_D
from so3density.rotations import Rotation

rng = np.random.default_rng(911)


def small_mixture():
    # two bumps with made-up decaying coefficient tails plus a uniform floor
    a1 = np.array([1.0, 0.8, 0.5, 0.2, 0.05])
    a2 = np.array([1.0, 0.6, 0.25])
    c1 = Rotation.from_axis_angle(((1.0, 0.0, 0.0), 0.7))
    c2 = Rotation.from_axis_angle(((0.0, 1.0, 1.0), 2.1))
    return S.ZonalMixture(
        0.3,
        (
            S.MixtureComponent(0.5, a1, c1),
            S.MixtureComponent(0.2, a2, c2),
        ),
    )


def test_zonal_synthesize_matches_character_sum():
    coeffs = rng.normal(size=7)
    t = rng.uniform(-1.0, 1.0, size=40)
    ref = ((2.0 * np.arange(7) + 1.0) * coeffs) @ characters_all(6, t)
    assert np.abs(S.zonal_synthesize(coeffs, t) - ref).max() < 1e-12


@pytest.mark.parametrize("L", [0, 1, 28, 72, L_MAX])
def test_zonal_synthesize_matches_sine_ratio(L):
    # sum_l (2l+1) a_l sin((2l+1) w/2) / sin(w/2), whose limit at w = 0 is
    # sum_l (2l+1)^2 a_l; w = pi is included, and more values than one block
    gen = np.random.default_rng(L)
    a = gen.normal(size=L + 1)
    w = np.concatenate([[0.0, np.pi], gen.uniform(0.0, np.pi, size=S._BLOCK + 999)])
    n = 2.0 * np.arange(L + 1) + 1.0
    ratio = np.empty((L + 1, w.shape[0]))
    ratio[:, 0] = n
    ratio[:, 1:] = np.sin(np.outer(n, w[1:] / 2.0)) / np.sin(w[1:] / 2.0)
    ref = (n * a) @ ratio
    got = S.zonal_synthesize(a, np.cos(w / 2.0))
    assert got.shape == w.shape
    scale = np.sum(n**2 * np.abs(a))  # bounds the sum at every w
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale
    assert abs(got[1] - np.sum(n * a * (-1.0) ** np.arange(L + 1))) <= 1e-13 * scale
    # a 0-d input gives a scalar and any shape is kept
    assert np.ndim(S.zonal_synthesize(a, 0.3)) == 0
    assert S.zonal_synthesize(a, np.full((2, 3), 0.3)).shape == (2, 3)


def test_zonal_synthesize_arrays_start_on_cache_lines():
    # malloc gives 16-byte alignment; the blocked loops allocate their own
    # 64-byte-aligned arrays, and the values do not depend on the input's
    for shape in [1, 7, (4, S._BLOCK), (3, 5, 7)]:
        assert S._aligned_empty(shape).ctypes.data % S._ALIGN == 0
    a = rng.normal(size=30)
    t = rng.uniform(-1.0, 1.0, size=S._BLOCK + 13)
    shifted = np.empty(t.shape[0] + 1)[1:]  # 8 bytes past its allocation
    shifted[:] = t
    got = S.zonal_synthesize(a, shifted)
    assert got.ctypes.data % S._ALIGN == 0
    assert np.array_equal(got, S.zonal_synthesize(a, t))


def test_zonal_energy_and_convolve():
    a = np.array([1.0, 0.5, 0.25])
    assert S.zonal_energy(a) == pytest.approx(1.0 + 9 * 0.25 + 25 * 0.0625)
    b = np.array([1.0, 2.0])
    assert np.allclose(S.zonal_convolve(a, b), [1.0, 1.0])
    # a zonal spectrum's per-degree profile is a_ell^2
    assert np.allclose(zonal_spectrum(a).energy_per_degree(), a**2)


def zonal_spectrum(coeffs):
    # diagonal blocks a_ell I: the matrix spectrum of a zonal function
    return S.FullSpectrum([c * np.eye(2 * ell + 1) for ell, c in enumerate(coeffs)])


def parseval_energy(f):
    # sum_ell (2 ell+1)^2 prof[ell]
    return float(np.sum((2.0 * np.arange(f.lmax + 1) + 1.0) ** 2 * f.energy_per_degree()))


def test_full_spectrum_basics():
    f = zonal_spectrum([1.0, 0.5, 0.1])
    assert f.lmax == 2
    assert f.n_coefficients == 1 + 9 + 25
    assert np.allclose(f.energy_per_degree(), [1.0, 0.25, 0.01])
    assert parseval_energy(f) == pytest.approx(S.zonal_energy([1.0, 0.5, 0.1]))
    g = f.scale_per_degree([1.0, 2.0, 0.0])
    assert np.allclose(g.energy_per_degree(), [1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        S.FullSpectrum([np.zeros((2, 2))])


def test_mixture_validation():
    with pytest.raises(ValueError):
        S.ZonalMixture(0.5, (S.MixtureComponent(0.2, [1.0], Rotation.identity()),))
    with pytest.raises(ValueError):
        S.MixtureComponent(0.2, [0.9, 0.1], Rotation.identity())
    with pytest.raises(ValueError):
        S.MixtureComponent(-0.2, [1.0], Rotation.identity())


def test_mixture_evaluate_matches_peter_weyl_sum():
    mix = small_mixture()
    f = mix.full_spectrum()
    qs = np.array([Rotation.from_quaternion(rng.normal(size=4)).q for _ in range(12)])
    vals = mix.evaluate(qs)
    for k in range(12):
        r = Rotation.from_quaternion(qs[k])
        ref = 0.0
        for ell in range(f.lmax + 1):
            D = wigner_D(ell, r.to_euler_zyz())
            ref += (2 * ell + 1) * np.sum(f[ell] * D)
        assert abs(ref.imag) < 1e-10
        assert abs(vals[k] - ref.real) < 1e-10


def test_mixture_profile_matches_full_spectrum():
    mix = small_mixture()
    prof = mix.energy_per_degree()
    brute = mix.full_spectrum().energy_per_degree()
    assert prof[0] == pytest.approx(1.0, abs=1e-14)
    assert np.abs(prof - brute).max() < 1e-13
    assert mix.norm_squared() == pytest.approx(parseval_energy(mix.full_spectrum()), rel=1e-13)
    # padding beyond the component degrees only appends zeros
    prof8 = mix.energy_per_degree(8)
    assert np.allclose(prof8[:5], prof)
    assert np.all(prof8[5:] == 0.0)


def test_mixture_mass_is_one():
    # a_0 of the mixture equals 1, i.e. the density integrates to 1
    mix = small_mixture()
    f = mix.full_spectrum()
    assert f[0][0, 0] == pytest.approx(1.0, abs=1e-14)


def test_full_spectrum_matches_per_degree_wigner_D():
    # the study mixture at band 49: one Wigner-D sum over the centres against
    # sum_i w_i a_i^ell conj(D^ell(c_i)) built degree by degree
    mix = ExperimentConfig.default().build_mixture()
    L = 49
    f = mix.full_spectrum(L)
    for ell in range(L + 1):
        ref = np.zeros((2 * ell + 1, 2 * ell + 1), dtype=complex)
        for c in mix.components:
            if ell < c.coefficients.shape[0]:
                ref += c.weight * c.coefficients[ell] * np.conj(wigner_D(ell, c.center.to_euler_zyz()))
        if ell == 0:
            ref += mix.uniform_weight
        assert np.abs(f[ell] - ref).max() <= 1e-13
