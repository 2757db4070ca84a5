import math

import numpy as np
import pytest

from so3density.estimators import characteristic_spectrum
from so3density.harmonics import character
from so3density.kernels import heat_coefficients, vp_coefficients
from so3density.rotations import Rotation, quat_multiply
from so3density.sampling import (
    RotationSample,
    _angle_density,
    _zonal_angles,
    sample_mixture,
    sample_uniform,
    sample_zonal,
)
from so3density.spectra import MixtureComponent, ZonalMixture


def positive_mixture():
    # genuinely nonnegative component profiles (smoothing-kernel spectra)
    return ZonalMixture(
        0.3,
        (
            MixtureComponent(
                0.5,
                vp_coefficients(8),
                Rotation.from_axis_angle((np.array([1.0, 0.0, 0.0]), 0.7)),
            ),
            MixtureComponent(
                0.2,
                heat_coefficients(0.15, 24),
                Rotation.from_axis_angle((np.array([0.0, 1.0, 1.0]), 2.1)),
            ),
        ),
    )


def test_reproducibility_bit_identical():
    a = sample_uniform(500, seed=42)
    b = sample_uniform(500, seed=42)
    assert np.array_equal(a.quaternions, b.quaternions)
    m = positive_mixture()
    c = sample_mixture(m, 400, seed=7)
    d = sample_mixture(m, 400, seed=7)
    assert np.array_equal(c.quaternions, d.quaternions)
    assert not np.array_equal(
        sample_uniform(500, seed=43).quaternions, a.quaternions
    )


def test_uniform_first_degree_character():
    K = 40000
    s = sample_uniform(K, seed=5)
    # chi^1 has Haar mean 0 and unit second moment
    assert abs(np.mean(character(1, s.quaternions))) <= 4.0 / math.sqrt(K)


def test_uniform_angle_histogram():
    K = 40000
    s = sample_uniform(K, seed=5)
    w = 2.0 * np.arccos(np.clip(np.abs(s.quaternions[:, 0]), 0.0, 1.0))
    edges = np.linspace(0.0, np.pi, 33)
    cdf = (edges - np.sin(edges)) / np.pi  # integral of (2/pi) sin^2(w/2)
    expected = K * np.diff(cdf)
    observed, _ = np.histogram(w, bins=edges)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    # dof = 32 - 1; 1e-3 upper quantile is 62.49
    assert chi2 < 62.49


def test_single_draw_is_deterministic():
    s = sample_uniform(1, seed=0)
    t = sample_uniform(1, seed=0)
    assert np.array_equal(s.quaternions, t.quaternions)
    assert len(s) == 1


def test_zonal_heat_diagonal_character():
    t, K = 0.1, 30000
    s = sample_zonal(heat_coefficients(t, 40), K, seed=9)
    for ell in range(1, 6):
        ch = character(ell, s.quaternions) / (2 * ell + 1)
        se = np.std(ch, ddof=1) / math.sqrt(K)
        assert abs(np.mean(ch) - np.exp(-ell * (ell + 1) * t)) <= 3.0 * se


def test_zonal_vp_first_degree():
    kap, K = 30, 20000
    a1 = math.comb(2 * kap + 1, kap - 1) / math.comb(2 * kap + 1, kap)
    s = sample_zonal(vp_coefficients(kap), K, seed=3)
    ch = character(1, s.quaternions) / 3.0
    se = np.std(ch, ddof=1) / math.sqrt(K)
    assert abs(np.mean(ch) - a1) <= 3.0 * se


def test_zonal_rejects_signed_spectrum():
    bad = np.array([1.0, 0.8, 0.5, 0.2, 0.05])  # synthesizes negative
    with pytest.raises(ValueError, match="not a density"):
        sample_zonal(bad, 10, seed=0)


def test_acceptance_rate_bound():
    for coeffs in (heat_coefficients(0.25, 30), vp_coefficients(30)):
        angles, proposed = _zonal_angles(coeffs, 20000, np.random.default_rng(2))
        assert angles.shape == (20000,)
        _, p = _angle_density(coeffs, np.linspace(0.0, np.pi, 4097))
        assert 20000 / proposed >= 1.0 / (np.pi * p.max()) - 0.01


def test_undersized_envelope_raises(monkeypatch):
    import so3density.sampling as sampling

    monkeypatch.setattr(sampling, "_ENVELOPE_SAFETY", 0.5)
    with pytest.raises(ValueError, match="exceeds the rejection envelope"):
        sample_zonal(heat_coefficients(0.25, 30), 1000, seed=0)


def test_mixture_counts_multinomial():
    m = positive_mixture()
    K = 10000
    _, counts = sample_mixture(m, K, seed=17, with_counts=True)
    assert counts.sum() == K
    probs = np.array([m.uniform_weight] + [c.weight for c in m.components])
    # three-cell chi-square, dof 2; 1e-3 quantile is 13.82
    chi2 = float(np.sum((counts - K * probs) ** 2 / (K * probs)))
    assert chi2 < 13.82


def test_mixture_energy_profile_consistent():
    # empirical per-degree energy of the characteristic function tracks the
    # density profile: E[prof_hat] = prof + (1 - prof)/K per degree
    m = positive_mixture()
    K = 20000
    s = sample_mixture(m, K, seed=29)
    phi = characteristic_spectrum(s, 10)
    prof_hat = phi.energy_per_degree()
    prof = m.energy_per_degree(10)
    for ell in range(1, 11):
        expected = prof[ell] + (1.0 - prof[ell]) / K
        # fluctuation of the K^{-1}-averaged energy is O(1/K) per entry sum
        assert abs(prof_hat[ell] - expected) <= 8.0 * (2 * ell + 1) / K + 8.0 * math.sqrt(
            prof[ell]
        ) / math.sqrt(K)


def test_translation_preserves_energy_profile():
    s = sample_zonal(vp_coefficients(10), 300, seed=1)
    g = Rotation.from_euler_zyz((1.2, 0.6, -2.0))
    a = characteristic_spectrum(s, 6).energy_per_degree()
    b = characteristic_spectrum(RotationSample(quat_multiply(g.q, s.quaternions)), 6)
    b = b.energy_per_degree()
    assert np.allclose(a, b, rtol=0.0, atol=1e-12)


def test_csv_round_trip(tmp_path):
    s = sample_uniform(50, seed=8)
    path = tmp_path / "sample.csv"
    s.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "w,x,y,z"
    t = RotationSample.from_csv(path)
    assert np.array_equal(s.quaternions, t.quaternions)


def test_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("w,x,y,z\n1,0,0,0\n0.5,0.5,oops,0.5\n")
    with pytest.raises(ValueError, match="line 3"):
        RotationSample.from_csv(path)
    path.write_text("w,x,y,z\n1,0,0\n")
    with pytest.raises(ValueError, match="line 2"):
        RotationSample.from_csv(path)
    for row in ("nan,0,0,0", "1,0,inf,0", "-inf,nan,0,0"):
        path.write_text(f"w,x,y,z\n1,0,0,0\n{row}\n")
        with pytest.raises(ValueError, match="line 3: non-finite quaternion"):
            RotationSample.from_csv(path)


def test_csv_rejects_non_unit(tmp_path):
    path = tmp_path / "nonunit.csv"
    path.write_text("w,x,y,z\n1.001,0,0,0\n")
    with pytest.raises(ValueError, match="norm"):
        RotationSample.from_csv(path)


def test_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("w,x,y,z\n")
    with pytest.raises(ValueError, match="no rotations"):
        RotationSample.from_csv(path)


def _max_block_dev(spec_a, blocks_b, lmax):
    return max(np.abs(spec_a[ell] - blocks_b[ell]).max() for ell in range(1, lmax + 1))


def test_characteristic_property_report():
    # Monte-Carlo checks of the characteristic-function calculus: (a) the
    # characteristic function of a product of independent samples is the
    # product of the characteristic matrices, (b) i.i.d. n-fold products raise
    # the per-degree matrices to the n-th power, (c) zonal samples give nearly
    # diagonal matrices with the zonal coefficients on the diagonal, and a
    # uniform factor wipes out every degree >= 1.  Tolerances are a few
    # standard errors wide (entries fluctuate at K^{-1/2}).
    K, L = 20000, 3
    rng = np.random.default_rng(123)
    se = 1.0 / np.sqrt(K)
    report = []

    rho, sigma = 0.15, 0.3
    x = sample_zonal(heat_coefficients(rho, 16), K, rng)
    y = sample_zonal(heat_coefficients(sigma, 16), K, rng)
    z = RotationSample(quat_multiply(x.quaternions, y.quaternions))
    phi_x = characteristic_spectrum(x, L)
    phi_y = characteristic_spectrum(y, L)
    phi_z = characteristic_spectrum(z, L)

    prod = [phi_x[ell] @ phi_y[ell] for ell in range(L + 1)]
    report.append(("product-of-independents", _max_block_dev(phi_z, prod, L), 8.0 * se))

    ell = np.arange(L + 1, dtype=float)
    heat_sum = np.exp(-ell * (ell + 1) * (rho + sigma))
    dev = max(np.abs(np.diag(phi_z[l]) - heat_sum[l]).max() for l in range(1, L + 1))
    report.append(("product-semigroup-diagonal", dev, 6.0 * se))

    x3 = [sample_zonal(heat_coefficients(rho, 16), K, rng) for _ in range(3)]
    q3 = quat_multiply(quat_multiply(x3[0].quaternions, x3[1].quaternions), x3[2].quaternions)
    phi3 = characteristic_spectrum(RotationSample(q3), L)
    heat3 = np.exp(-ell * (ell + 1) * 3.0 * rho)
    dev = max(np.abs(np.diag(phi3[l]) - heat3[l]).max() for l in range(1, L + 1))
    report.append(("iid-power-diagonal", dev, 6.0 * se))

    off_dev = 0.0
    for l in range(1, L + 1):
        block = phi_x[l].copy()
        np.fill_diagonal(block, 0.0)
        off_dev = max(off_dev, np.abs(block).max())
    report.append(("zonal-near-diagonal", off_dev, 6.0 * se))

    u = sample_uniform(K, rng)
    zu = RotationSample(quat_multiply(u.quaternions, x.quaternions))
    phi_u = characteristic_spectrum(zu, L)
    dev = max(np.abs(phi_u[l]).max() for l in range(1, L + 1))
    report.append(("uniform-factor-kills", dev, 6.0 * se))

    for name, deviation, tolerance in report:
        assert deviation <= tolerance, f"{name}: {deviation} > {tolerance}"


def test_sample_size_validation():
    with pytest.raises(ValueError):
        sample_uniform(0, seed=1)
