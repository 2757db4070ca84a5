import math
import tracemalloc

import numpy as np
import pytest

from so3density.estimators import (
    EstimatorSpec,
    _zonal_average,
    characteristic_density_estimate,
    characteristic_spectrum,
    heat_truncation_degree,
    kernel_estimate,
    kernel_estimate_on_grid,
    wavelet_coefficient_estimate,
    wavelet_density_estimate,
)
from so3density.kernels import (
    KernelSpec,
    evaluate as kernel_evaluate,
    heat_coefficients,
    vp_coefficients,
    wavelet_coefficients,
)
from so3density.harmonics import L_MAX, characters_all
from so3density.rotations import Rotation, quat_cos_half_between, quat_multiply
from so3density.sampling import RotationSample, sample_mixture, sample_uniform, sample_zonal
from so3density.spectra import _BLOCK, MixtureComponent, ZonalMixture, zonal_synthesize
from so3density.transform import QuadratureGrid, synthesize_at, wavelet_transform


def positive_mixture():
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


def test_single_point_identities():
    x = Rotation.from_axis_angle((np.array([0.3, -1.0, 0.2]), 1.234))
    one = RotationSample(x.q[None, :])
    # heat kernel at its own sample point is the kernel's peak value
    peak = sum((2 * ell + 1) ** 2 * np.exp(-ell * (ell + 1)) for ell in range(40))
    assert kernel_estimate(one, KernelSpec("heat", 1.0), x) == pytest.approx(peak, abs=1e-12)
    # order-0 smoothing is the uniform density
    assert kernel_estimate(one, KernelSpec("vp", 0), Rotation.identity()) == 1.0
    assert characteristic_density_estimate(one, 0, Rotation.from_euler_zyz((0.1, 0.2, 0.3))) == 1.0
    # cutoff 1 at the sample point: 1 + 3*chi^1(e) = 10
    assert characteristic_density_estimate(one, 1, x) == pytest.approx(10.0, abs=1e-12)


def test_empirical_characteristic_invariants():
    s = sample_mixture(positive_mixture(), 300, seed=11)
    phi = characteristic_spectrum(s, 6)
    assert phi[0][0, 0] == 1.0
    for ell in range(7):
        assert np.max(np.abs(phi[ell])) <= 1.0 + 1e-12


def test_characteristic_estimate_three_paths_agree():
    rng = np.random.default_rng(7)
    pts = np.array(
        [
            Rotation.from_euler_zyz(
                (rng.uniform(-np.pi, np.pi), rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
            ).q
            for _ in range(5)
        ]
    )
    # a mixture sample, and 50 rotations within 1e-10..1e-7 of the Euler
    # pole theta = 0, where the polar angle must keep its relative precision
    near_pole = np.array(
        [
            Rotation.from_euler_zyz(
                (rng.uniform(0, 2 * np.pi), 10.0 ** rng.uniform(-10, -7), rng.uniform(0, 2 * np.pi))
            ).q
            for _ in range(50)
        ]
    )
    for s in (sample_mixture(positive_mixture(), 300, seed=11), RotationSample(near_pole)):
        a = characteristic_density_estimate(s, 6, pts)
        b = synthesize_at(characteristic_spectrum(s, 6), pts)
        c = kernel_estimate(s, KernelSpec("char", 6), pts)
        assert np.max(np.abs(a - b)) < 1e-9
        assert np.max(np.abs(a - c)) == 0.0


def test_wavelet_estimate_closed_form_is_heat():
    s = sample_mixture(positive_mixture(), 200, seed=13)
    x = Rotation.from_euler_zyz((0.4, 1.1, 0.9))
    direct = wavelet_density_estimate(s, 1 / 16, x)
    heat = kernel_estimate(s, KernelSpec("heat", 1 / 16), x)
    assert abs(direct - heat) <= 1e-12


def test_wavelet_estimate_scale_integration_path():
    s = sample_mixture(positive_mixture(), 300, seed=11)
    rng = np.random.default_rng(3)
    pts = np.array(
        [
            Rotation.from_euler_zyz(
                (rng.uniform(-np.pi, np.pi), rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
            ).q
            for _ in range(4)
        ]
    )
    direct = wavelet_density_estimate(s, 0.25, pts)
    via = wavelet_density_estimate(s, 0.25, pts, via_scales=True)
    assert np.max(np.abs(direct - via)) < 1e-11
    # t = 0.002 needs band 163; the spectrum route refuses to truncate it
    with pytest.raises(ValueError, match=f"band 163, above L_MAX = {L_MAX}"):
        wavelet_density_estimate(s, 0.002, pts, via_scales=True)


def test_zonal_average_blocks_match_direct_sum():
    # the direct form: mean over the sample of sum_l (2l+1) a_l chi^l, with
    # the characters from their own recurrence and one (K, N) table
    coeffs = vp_coefficients(6)
    weights = (2.0 * np.arange(coeffs.shape[0]) + 1.0) * coeffs

    def direct(sample, q):
        t = quat_cos_half_between(sample.quaternions[:, None, :], q.reshape(-1, 4)[None, :, :])
        return np.einsum("l,lkn->n", weights, characters_all(coeffs.shape[0] - 1, t)) / len(
            sample
        )

    rows = _BLOCK // math.isqrt(_BLOCK)
    # K not a multiple of the block's row count, N over one block's columns
    s = sample_uniform(3 * rows + 17, seed=41)
    q = sample_uniform(2 * math.isqrt(_BLOCK) + 5, seed=42).quaternions
    got = _zonal_average(s, coeffs, q)
    assert got.shape == (q.shape[0],)
    assert np.max(np.abs(got - direct(s, q))) < 1e-12
    # one Rotation (one column, rows of _BLOCK) over more than one row block
    big = sample_uniform(_BLOCK + 100, seed=43)
    g = Rotation.from_axis_angle(((0.3, -1.0, 0.5), 1.3))
    one = _zonal_average(big, coeffs, g)
    assert isinstance(one, float)
    assert abs(one - direct(big, g.q)[0]) < 1e-12
    # any leading shape comes back as it went in
    q234 = q[:6].reshape(2, 3, 4)
    got = _zonal_average(s, coeffs, q234)
    assert got.shape == (2, 3)
    assert np.max(np.abs(got - direct(s, q234).reshape(2, 3))) < 1e-12


def test_kernel_estimate_memory_is_bounded():
    # K = 200000 against N = 64 points: one (K, N) float array is 102 MB and
    # a (K, N, 4) broadcast product 410 MB; the blocked sum needs neither
    K, N = 200_000, 64
    s = sample_uniform(K, seed=5)
    q = sample_uniform(N, seed=6).quaternions
    tracemalloc.start()
    try:
        values = kernel_estimate(s, KernelSpec("char", 5), q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (N,) and np.all(np.isfinite(values))
    assert peak < K * N * 8 / 20


def test_estimates_have_unit_mass():
    s = sample_mixture(positive_mixture(), 150, seed=19)
    grid = QuadratureGrid(24)
    for spec in (KernelSpec("heat", 1 / 16), KernelSpec("vp", 17), KernelSpec("char", 5)):
        field = kernel_estimate_on_grid(s, spec, grid)
        assert abs(grid.integrate(field) - 1.0) < 1e-8


def test_grid_path_matches_pointwise():
    s = sample_mixture(positive_mixture(), 150, seed=19)
    grid = QuadratureGrid(10)
    for spec in (KernelSpec("char", 6), KernelSpec("vp", 8)):
        field = kernel_estimate_on_grid(s, spec, grid)
        flat_idx = [0, 1234, 5000]
        probe = grid.points.reshape(-1, 4)[flat_idx]
        idx = np.unravel_index(flat_idx, grid.shape)
        assert np.max(np.abs(field[idx] - kernel_estimate(s, spec, probe))) < 1e-12


def test_positive_kernels_stay_positive():
    s = sample_mixture(positive_mixture(), 200, seed=13)
    probes = sample_uniform(600, seed=4).quaternions
    for spec in (KernelSpec("heat", 1 / 16), KernelSpec("vp", 29)):
        assert kernel_estimate(s, spec, probes).min() >= -1e-9


def test_cutoff_kernel_goes_negative_on_narrow_modes():
    s = sample_zonal(heat_coefficients(0.01, 80), 50, seed=21)
    probes = sample_uniform(600, seed=4).quaternions
    assert kernel_estimate(s, KernelSpec("char", 8), probes).min() < -1e-3


def test_scaled_quaternion_points_estimate_as_unit():
    # points are normalized before the pairwise product, and the sign of a
    # quaternion does not enter |<p, q>|
    s = sample_mixture(positive_mixture(), 50, seed=3)
    spec = KernelSpec("heat", 0.25)
    q = sample_uniform(6, seed=5).quaternions
    ref = kernel_estimate(s, spec, q)
    assert np.array_equal(kernel_estimate(s, spec, -q), ref)
    for scale in (2.0, 1e-3):
        np.testing.assert_allclose(kernel_estimate(s, spec, scale * q), ref, rtol=1e-13)
        assert kernel_estimate(s, spec, scale * q[0]) == pytest.approx(ref[0], rel=1e-13)


def test_left_translation_equivariance():
    s = sample_mixture(positive_mixture(), 300, seed=11)
    g = Rotation.from_euler_zyz((0.9, 1.7, 0.4))
    x = Rotation.from_axis_angle((np.array([0.3, -1.0, 0.2]), 1.234))
    for spec in (KernelSpec("heat", 0.1), KernelSpec("char", 5), KernelSpec("vp", 12)):
        lhs = kernel_estimate(RotationSample(quat_multiply(g.q, s.quaternions)), spec, x)
        rhs = kernel_estimate(s, spec, g.inverse().compose(x))
        assert abs(lhs - rhs) < 1e-10


def test_estimator_is_unbiased_for_smoothed_density():
    # E[zeta(x)] = (Xi * f)(x); the estimate is a mean of iid kernel values,
    # so the per-term spread gives the standard error directly
    m = positive_mixture()
    K = 40000
    s = sample_mixture(m, K, seed=101)
    x = Rotation.from_euler_zyz((0.4, 1.1, -0.9 + np.pi))
    t = 0.08
    coeffs = heat_coefficients(t, heat_truncation_degree(t))
    terms = zonal_synthesize(coeffs, quat_cos_half_between(s.quaternions, x.q))
    target = float(
        synthesize_at(m.full_spectrum(30).scale_per_degree(heat_coefficients(t, 30)), x.q)
    )
    se = np.std(terms, ddof=1) / math.sqrt(K)
    assert abs(terms.mean() - target) <= 3.0 * se


def test_wavelet_coefficient_estimate():
    rho = 0.2
    g = Rotation.from_axis_angle((np.array([0.2, 0.5, -1.0]), 0.8))
    # K=1: the estimate is the wavelet value at the relative angle
    one = RotationSample(Rotation.identity().q[None, :])
    gg = Rotation.from_axis_angle((np.array([0.0, 0.0, 1.0]), 0.9))
    coeffs = wavelet_coefficients(rho, heat_truncation_degree(rho / 2))
    assert wavelet_coefficient_estimate(one, rho, gg) == pytest.approx(
        float(kernel_evaluate(coeffs, np.array([0.9]))[0]), abs=1e-12
    )
    # unbiased for the wavelet transform of the sampled density
    m = positive_mixture()
    K = 40000
    s = sample_mixture(m, K, seed=101)
    est = wavelet_coefficient_estimate(s, rho, g)
    target = float(synthesize_at(wavelet_transform(m.full_spectrum(40), rho), g.q))
    terms = zonal_synthesize(coeffs, quat_cos_half_between(s.quaternions, g.q))
    se = np.std(terms, ddof=1) / math.sqrt(K)
    assert abs(est - target) <= 3.0 * se
    with pytest.raises(ValueError):
        wavelet_coefficient_estimate(s, 0.0, g)


def test_estimator_spec_round_trip():
    for text in ("kernel:heat:0.25", "kernel:vp:29", "characteristic:5", "wavelet:0.0625"):
        spec = EstimatorSpec.from_text(text)
        assert spec.to_text() == text
        assert EstimatorSpec.from_text(spec.to_text()) == spec


def test_estimator_spec_validation():
    with pytest.raises(ValueError):
        EstimatorSpec("characteristic", KernelSpec("heat", 0.5))
    with pytest.raises(ValueError):
        EstimatorSpec("wavelet", KernelSpec("vp", 3))
    with pytest.raises(ValueError):
        EstimatorSpec("smooth", KernelSpec("heat", 0.5))
    with pytest.raises(ValueError):
        EstimatorSpec.from_text("characteristic:2.5")
    with pytest.raises(ValueError):
        EstimatorSpec.from_text("wavelet:abc")


def test_estimator_spec_dispatch():
    s = sample_mixture(positive_mixture(), 100, seed=23)
    x = Rotation.from_euler_zyz((0.2, 0.8, 1.4))
    assert EstimatorSpec.characteristic(4).estimate(s, x) == characteristic_density_estimate(
        s, 4, x
    )
    assert EstimatorSpec.heat_wavelet(0.1).estimate(s, x) == wavelet_density_estimate(s, 0.1, x)
    grid = QuadratureGrid(8)
    field = EstimatorSpec.general_kernel(KernelSpec("vp", 6)).estimate_on_grid(s, grid)
    assert field.shape == grid.shape


def test_truncation_degree():
    assert heat_truncation_degree(1.0) == 7
    # monotone in 1/t and safely below double rounding at the cut
    for t in (0.5, 1 / 16, 2**-9):
        L = heat_truncation_degree(t)
        assert (2 * L + 1) ** 2 * np.exp(-L * (L + 1) * t) < 1e-18
    with pytest.raises(ValueError):
        heat_truncation_degree(0.0)
