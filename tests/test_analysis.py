import csv
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from so3density.analysis import (
    MiseCurve,
    bias_variance_split,
    mise,
    monte_carlo_ise_study,
    optimal_kernel_coefficients,
    optimal_mise_bound,
    wavelet_mise,
    wavelet_mise_first_order,
)
from so3density.cli import _grid_route_ise
from so3density.config import ExperimentConfig
from so3density.estimators import EstimatorSpec
from so3density.kernels import (
    KernelSpec,
    characteristic_coefficients,
    heat_coefficients,
    vp_coefficients,
)
from so3density.rotations import Rotation
from so3density.spectra import MixtureComponent, ZonalMixture
from so3density.transform import QuadratureGrid


def small_mixture():
    return ZonalMixture(
        0.4,
        (
            MixtureComponent(
                0.6,
                vp_coefficients(8),
                Rotation.from_axis_angle((np.array([1.0, 0.0, 0.0]), 0.9)),
            ),
        ),
    )


def study_profile(L=49):
    c1 = Rotation.from_axis_angle((np.array([1.0, 0.0, 0.0]), np.pi / 6)).inverse()
    c2 = Rotation.from_axis_angle((np.array([0.0, 1.0, 0.0]), 4 * np.pi / 9)).inverse()
    m = ZonalMixture(
        0.2,
        (
            MixtureComponent(0.7, vp_coefficients(30), c1),
            MixtureComponent(0.1, vp_coefficients(45), c2),
        ),
    )
    return m, m.energy_per_degree(L)


def test_uniform_kernel_gives_density_energy():
    m, prof = study_profile()
    # smoothing with the uniform density zeroes every degree >= 1: the error
    # is the non-constant part of f itself, for any sample size
    for K in (1, 10, 10**6):
        assert mise(prof, np.array([1.0]), K) == pytest.approx(
            m.norm_squared(49) - 1.0, rel=1e-14
        )


def test_wavelet_mise_matches_kernel_form():
    _, prof = study_profile()
    for t in (1.0, 0.25, 1 / 16, 2**-9):
        for K in (1, 200, 10**6):
            a = wavelet_mise(prof, t, K)
            b = mise(prof, heat_coefficients(t, prof.shape[0] - 1), K)
            assert abs(a - b) <= 1e-14 * max(1.0, abs(a))


def test_bias_variance_split():
    _, prof = study_profile()
    coeffs = heat_coefficients(1 / 16, 49)
    b, v = bias_variance_split(prof, coeffs, 200)
    assert b + v == pytest.approx(mise(prof, coeffs, 200), abs=1e-14)
    # bias is sample-size free, variance scales exactly like 1/K
    b2, v2 = bias_variance_split(prof, coeffs, 2000)
    assert b2 == b
    assert v2 == pytest.approx(v / 10.0, rel=1e-14)


def test_mise_is_affine_in_inverse_sample_size():
    _, prof = study_profile()
    coeffs = vp_coefficients(29, 49)
    m1, m2, m4 = (mise(prof, coeffs, K) for K in (100, 200, 400))
    # values at 1/K = 1/100, 1/200, 1/400 must be collinear
    assert m2 - m4 == pytest.approx((m1 - m2) / 2.0, rel=1e-12)


def test_bias_grows_with_coarser_scale():
    _, prof = study_profile()
    biases = [
        bias_variance_split(prof, heat_coefficients(t, 49), 10)[0]
        for t in (2**-9, 2**-6, 2**-3, 0.5, 1.0)
    ]
    assert all(x < y for x, y in zip(biases, biases[1:]))


def test_first_order_expansion():
    _, prof = study_profile()
    K = 200
    ell = np.arange(50.0)
    limit = float(np.sum((2 * ell[1:] + 1) ** 2 * (1.0 - prof[1:]) / K))
    # t = 0 reproduces the small-scale limit exactly
    assert wavelet_mise_first_order(prof, 0.0, K) == limit
    # affine in t
    f0 = wavelet_mise_first_order(prof, 0.0, K)
    f1 = wavelet_mise_first_order(prof, 1e-4, K)
    f2 = wavelet_mise_first_order(prof, 2e-4, K)
    assert f2 - f1 == pytest.approx(f1 - f0, rel=1e-10)
    # tracks the exact curve closely deep in the small-t regime
    t = 1e-5
    exact = wavelet_mise(prof, t, K)
    assert abs(wavelet_mise_first_order(prof, t, K) - exact) <= 0.07 * exact


def test_small_scale_limit():
    _, prof = study_profile()
    K = 10**9
    limit = wavelet_mise_first_order(prof, 0.0, K)
    assert abs(wavelet_mise(prof, 2.0**-20, K) - limit) <= 1e-6


def test_optimal_bound_via_quadratic_minimization():
    _, prof = study_profile()
    K = 200
    bound = optimal_mise_bound(prof, K)
    total = 0.0
    for ell in range(1, 50):
        p = prof[ell]
        res = minimize_scalar(
            lambda x: p * (1.0 - x) ** 2 + x**2 * (1.0 - p) / K,
            bounds=(0.0, 1.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        total += (2 * ell + 1) ** 2 * res.fun
    assert abs(total - bound) <= 1e-12 * bound
    # and the closed-form minimizer attains it
    assert mise(prof, optimal_kernel_coefficients(prof, K), K) == pytest.approx(
        bound, rel=1e-14
    )


def test_every_curve_dominates_the_bound():
    _, prof = study_profile()
    for K in (10, 1000, 10**5):
        bound = optimal_mise_bound(prof, K)
        for coeffs in (
            heat_coefficients(1 / 16, 49),
            vp_coefficients(29, 49),
            characteristic_coefficients(5, 49),
        ):
            assert mise(prof, coeffs, K) >= bound - 1e-10


def test_plateau_is_squared_bias():
    _, prof = study_profile()
    coeffs = heat_coefficients(1 / 8, 49)
    plateau = mise(prof, coeffs, 10**9)
    bias_sq, _ = bias_variance_split(prof, coeffs, 10**9)
    assert abs(plateau - bias_sq) <= 1e-6 * bias_sq


def test_input_validation():
    _, prof = study_profile()
    with pytest.raises(ValueError):
        mise(prof, np.array([1.0]), 0)
    with pytest.raises(ValueError):
        wavelet_mise(prof, -1.0, 10)
    with pytest.raises(ValueError):
        mise(np.zeros((2, 2)), np.array([1.0]), 10)
    # one trial has no standard error
    with pytest.raises(ValueError, match="at least 2 trials"):
        monte_carlo_ise_study(small_mixture(), [KernelSpec("char", 3)], 10, 1, seed=0)


def test_monte_carlo_matches_analytic():
    m = small_mixture()
    grid = QuadratureGrid(8)
    prof = m.energy_per_degree(8)
    spec = KernelSpec("heat", 0.2)
    # the grid caps the estimator band at 8, so the matching closed form uses
    # the same truncation
    target = mise(prof, heat_coefficients(0.2, 8), 60)
    (mean,), (se,) = monte_carlo_ise_study(m, [spec], 60, 80, seed=5, grid=grid)
    assert abs(mean - target) <= 3.0 * se
    # deterministic under a fixed seed
    (mean2,), (se2,) = monte_carlo_ise_study(m, [spec], 60, 80, seed=5, grid=grid)
    assert mean2 == mean and se2 == se


def test_monte_carlo_shares_samples_across_estimators():
    m = small_mixture()
    grid = QuadratureGrid(8)
    specs = [KernelSpec("heat", 0.2), KernelSpec("char", 3)]
    means, ses = monte_carlo_ise_study(m, specs, 40, 30, seed=9, grid=grid)
    (single,), _ = monte_carlo_ise_study(m, specs[1:], 40, 30, seed=9, grid=grid)
    # same trial samples; only the shared kernel band (and hence summation
    # order) differs between the shared and solo runs
    assert means[1] == pytest.approx(single, rel=1e-12)
    assert means.shape == (2,) and ses.shape == (2,)


def test_monte_carlo_uniform_control():
    # sampling the uniform density: profile vanishes, MISE is pure variance
    m = ZonalMixture(1.0, ())
    grid = QuadratureGrid(6)
    spec = KernelSpec("char", 3)
    prof = m.energy_per_degree(6)
    target = mise(prof, characteristic_coefficients(3, 6), 50)
    (mean,), (se,) = monte_carlo_ise_study(m, [spec], 50, 60, seed=11, grid=grid)
    assert abs(mean - target) <= 3.0 * se


def test_monte_carlo_rejects_undersized_grid():
    m, _ = study_profile()
    with pytest.raises(ValueError, match="bandlimit"):
        monte_carlo_ise_study(m, [KernelSpec("char", 3)], 10, 2, seed=0, grid=QuadratureGrid(20))


@pytest.mark.parametrize(
    "case",
    ["study mixture", "uniform control", "kernel band below grid"],
)
def test_monte_carlo_zonal_route_matches_grid_route(case):
    # the study's zonal sums against synthesizing and integrating each
    # estimate on the grid, on the same seeded samples
    if case == "study mixture":
        m = ExperimentConfig.default().build_mixture()
        grid = QuadratureGrid(49)
        texts = ExperimentConfig.default().mc_estimators
    elif case == "uniform control":
        m = ZonalMixture(1.0, ())
        grid = QuadratureGrid(6)
        texts = ["characteristic:3"]
    else:
        m = small_mixture()
        grid = QuadratureGrid(12)
        texts = ["characteristic:3", "kernel:vp:5"]
    specs = [EstimatorSpec.from_text(t) for t in texts]
    means, ses = monte_carlo_ise_study(m, specs, 80, 2, seed=21, grid=grid)
    ref_means, ref_ses = _grid_route_ise(m, specs, 80, 2, 21, grid)
    assert np.all(np.abs(means - ref_means) <= 1e-10 * np.abs(ref_means))
    assert np.all(np.abs(ses - ref_ses) <= 1e-8 * np.abs(ref_ses))


def test_monte_carlo_memory_is_bounded():
    # no K x K table: one per degree would take (L+1) K^2 floats, 830 MB here
    m = ExperimentConfig.default().build_mixture()
    specs = [EstimatorSpec.from_text(t) for t in ExperimentConfig.default().mc_estimators]
    tracemalloc.start()
    try:
        means, _ = monte_carlo_ise_study(m, specs, 1500, 2, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(means))
    assert peak < 8e6


def test_mise_curve_csv(tmp_path):
    curve = MiseCurve(
        (
            ("heat", 0.5, 10.0, 3.25, 1.5),
            ("vp", 29.0, 100.0, 2.0, 1.0),
        )
    )
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    assert path.read_text().splitlines()[0] == "kernel,bandwidth,K,mise,optimal_bound"
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(MiseCurve.HEADER)
    again = MiseCurve(tuple((r[0], *map(float, r[1:])) for r in rows))
    assert again == curve
