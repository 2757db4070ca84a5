"""Acceptance checklist for the full study configuration.

Each test covers one numbered criterion.  It computes the criterion's
quantities, prints a single ``criterion N: PASS/FAIL`` line carrying the
measured numbers, then asserts.  Two checks encode claims the configured
study contradicts numerically (see the comments in criteria 3 and 4); they
fail with the measured margins on record rather than being weakened to pass.
"""

import csv
import math
import os
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import chi2

from so3density.analysis import (
    bias_variance_split,
    mise,
    monte_carlo_ise_study,
    optimal_mise_bound,
    wavelet_mise,
)
from so3density.cli import run_selfcheck
from so3density.config import ExperimentConfig
from so3density.estimators import (
    EstimatorSpec,
    characteristic_density_estimate,
    characteristic_spectrum,
    kernel_estimate,
    wavelet_density_estimate,
)
from so3density.harmonics import characters_all, wigner_d_stack
from so3density.kernels import KernelSpec, heat_coefficients, vp_coefficients
from so3density.rotations import quat_to_euler_zyz
from so3density.sampling import sample_mixture, sample_uniform, sample_zonal
from so3density.transform import QuadratureGrid, forward, synthesize, synthesize_at

CFG = ExperimentConfig.default()
MIX = CFG.build_mixture()
L = CFG.bandlimit
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "ordering_margins.csv")


def _report(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def grid49():
    return QuadratureGrid(L)


def _family_grids():
    return (
        ("heat", [(t, heat_coefficients(t, L)) for t in CFG.heat_times()]),
        ("vp", [(float(k), vp_coefficients(k, L)) for k in CFG.vp_orders]),
        ("char", [(float(c), KernelSpec("char", c).coefficients(L)) for c in CFG.char_cutoffs]),
    )


def test_criterion_1_coefficient_count(grid49):
    start = time.perf_counter()
    spectrum = forward(grid49, synthesize(grid49, MIX.full_spectrum(L)))
    closed_form = sum((2 * ell + 1) ** 2 for ell in range(L + 1))
    elapsed = time.perf_counter() - start
    ok = spectrum.n_coefficients == closed_form == 166650 and elapsed <= 120
    _report(
        1,
        ok,
        f"{spectrum.n_coefficients} coefficients, closed-form sum {closed_form}, "
        f"{elapsed:.1f}s (limit 120s)",
    )


def test_criterion_2_profile_oracle_equivalence(grid49):
    start = time.perf_counter()
    analytic = MIX.energy_per_degree(L)
    quad = forward(grid49, synthesize(grid49, MIX.full_spectrum(L))).energy_per_degree()
    # degrees near the band edge have true energy below double resolution
    # (2e-55 by degree 45, exact zeros past it); floor the denominator so
    # those compare at absolute 1e-12 scale instead of 0/0
    floor = 1e-12 * float(np.max(analytic))
    rel = float(np.max(np.abs(quad - analytic) / np.maximum(analytic, floor)))
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-8 and elapsed <= 120
    _report(2, ok, f"max relative profile error {rel:.3e} (tol 1e-8), {elapsed:.1f}s")


def test_criterion_3_mise_figure_structure():
    start = time.perf_counter()
    profile = MIX.energy_per_degree(L)
    Ks = np.asarray(CFG.sample_sizes)
    bounds = np.array([optimal_mise_bound(profile, K) for K in Ks])
    above = monotone = ordered = True
    plateau_misses = []
    for name, members in _family_grids():
        plateaus = []
        for bw, coeffs in members:
            values = np.array([mise(profile, coeffs, K) for K in Ks])
            above &= bool(np.all(values >= bounds - 1e-10))
            monotone &= bool(np.all(np.diff(values) <= 0.0))
            plateau = mise(profile, coeffs, 1e9)
            bias_sq, _ = bias_variance_split(profile, coeffs, 1e9)
            gap = abs(plateau - bias_sq) / bias_sq
            if gap > 1e-6:
                plateau_misses.append(f"{name} {bw:g}: {gap:.2e}")
            plateaus.append(plateau)
        ordered &= bool(np.all(np.diff(plateaus) < 0.0))
    elapsed = time.perf_counter() - start
    # the K = 1e9 curve value exceeds the bias floor by exactly the kernel's
    # quadratic energy / K; for the narrowest configured kernels that is up to
    # ~4e-5 of the floor, so the 1e-6 plateau check cannot hold there and the
    # miss is reported rather than hidden behind a looser tolerance
    ok = above and monotone and ordered and not plateau_misses and elapsed <= 60
    _report(
        3,
        ok,
        f"bound slack {'ok' if above else 'VIOLATED'}, "
        f"K-monotone {'ok' if monotone else 'VIOLATED'}, "
        f"bandwidth ordering {'ok' if ordered else 'VIOLATED'}, "
        f"plateau gaps over 1e-6: {'; '.join(plateau_misses) if plateau_misses else 'none'}, "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_criterion_4_family_ordering_margins():
    profile = MIX.energy_per_degree(L)
    grids = {name: [c for _, c in members] for name, members in _family_grids()}

    def margins(K):
        bound = optimal_mise_bound(profile, K)
        best = {n: min(mise(profile, c, K) for c in grids[n]) for n in grids}
        return bound, best

    with open(GOLDEN, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        golden = {(row[0], float(row[1])): (float(row[2]), float(row[3])) for row in reader}
    golden_ok = True
    for (name, K), (g_best, g_bound) in golden.items():
        bound, best = margins(K)
        golden_ok &= abs(best[name] - g_best) <= 1e-12 * g_best
        golden_ok &= abs(bound - g_bound) <= 1e-12 * g_bound

    _, best4 = margins(1e4)
    ordering = best4["char"] <= best4["heat"] <= best4["vp"]

    heat_ratios, vp_ratios = [], []
    for K in (10.0, 30.0, 100.0):
        bound, best = margins(K)
        heat_ratios.append(best["heat"] / bound)
        vp_ratios.append(best["vp"] / bound)
    heat_within = all(r <= 2.0 for r in heat_ratios)
    # the binomial family's best curve also tracks the bound closer than 2x at
    # these sample sizes (ratios ~1.03/1.13/1.76), so the exclusion half of
    # this criterion fails; the measured margins live in the golden CSV
    vp_excluded = all(r > 2.0 for r in vp_ratios)
    ok = golden_ok and ordering and heat_within and vp_excluded
    _report(
        4,
        ok,
        f"golden margins {'ok' if golden_ok else 'DRIFTED'}, "
        f"K=1e4 ordering char<=heat<=vp {'ok' if ordering else 'VIOLATED'}, "
        f"heat/bound at K=10,30,100 = {', '.join(f'{r:.3f}' for r in heat_ratios)} (all <= 2: {heat_within}), "
        f"vp/bound = {', '.join(f'{r:.3f}' for r in vp_ratios)} (claimed > 2: {vp_excluded})",
    )


def test_criterion_5_monte_carlo_consistency(grid49):
    start = time.perf_counter()
    specs = [EstimatorSpec.from_text(t) for t in CFG.mc_estimators]
    means, ses = monte_carlo_ise_study(
        MIX, specs, CFG.sample_size, CFG.mc_trials, CFG.seed, grid=grid49
    )
    profile = MIX.energy_per_degree(L)
    zs = []
    for spec, mean, se in zip(specs, means, ses):
        analytic = mise(profile, spec.kernel.coefficients(L), CFG.sample_size)
        zs.append(float((mean - analytic) / se))
    elapsed = time.perf_counter() - start
    ok = all(abs(z) <= 3.0 for z in zs) and elapsed <= 600
    _report(
        5,
        ok,
        ", ".join(f"{s.to_text()} z={z:+.2f}" for s, z in zip(specs, zs))
        + f" (|z| <= 3), {elapsed:.0f}s (limit 600s)",
    )


def test_criterion_6_structural_identities():
    sample = sample_mixture(MIX, 150, seed=2026)
    pts = sample_uniform(8, seed=7).quaternions

    a = characteristic_density_estimate(sample, 5, pts)
    b = synthesize_at(characteristic_spectrum(sample, 5), pts)
    c = kernel_estimate(sample, KernelSpec("char", 5), pts)
    three_path = max(float(np.max(np.abs(a - b))), float(np.max(np.abs(a - c))))

    direct = wavelet_density_estimate(sample, 0.25, pts)
    scaled = wavelet_density_estimate(sample, 0.25, pts, via_scales=True)
    two_path = float(np.max(np.abs(direct - scaled)))

    profile = MIX.energy_per_degree(L)
    closed_form = max(
        abs(wavelet_mise(profile, t, K) - mise(profile, heat_coefficients(t, L), K))
        / mise(profile, heat_coefficients(t, L), K)
        for t in CFG.heat_times()
        for K in (10.0, 200.0, 1e5)
    )

    quad_dev = 0.0
    for K in (10.0, 200.0, 1e4):
        bound = optimal_mise_bound(profile, K)
        total = 0.0
        for ell in range(1, L + 1):
            p = profile[ell]
            res = minimize_scalar(
                lambda x: p * (1 - x) ** 2 + x * x * (1 - p) / K,
                bounds=(0.0, 1.0),
                method="bounded",
                options={"xatol": 1e-14},
            )
            total += (2 * ell + 1) ** 2 * res.fun
        quad_dev = max(quad_dev, abs(total - bound) / bound)

    ok = three_path <= 1e-9 and two_path <= 1e-11 and closed_form <= 1e-14 and quad_dev <= 1e-12
    _report(
        6,
        ok,
        f"three-path {three_path:.1e} (tol 1e-9), two-path {two_path:.1e} (tol 1e-11), "
        f"wavelet-mise closed form {closed_form:.1e} (tol 1e-14), "
        f"per-degree minimization {quad_dev:.1e} (tol 1e-12)",
    )


def test_criterion_7_invariant_suite():
    start = time.perf_counter()
    rows = run_selfcheck(seed=0)
    elapsed = time.perf_counter() - start
    failing = [name for name, _, _, passed in rows if not passed]
    ok = not failing and elapsed <= 300
    _report(
        7,
        ok,
        (f"all {len(rows)} invariants pass" if not failing else f"failing: {', '.join(failing)}")
        + f", {elapsed:.1f}s (limit 300s)",
    )


def test_criterion_8_sampler_validation():
    K = 100_000

    s = sample_zonal(heat_coefficients(0.1, 60), K, seed=42)
    phi, theta, psi = quat_to_euler_zyz(s.quaternions)
    d = wigner_d_stack(5, theta)
    diag_z = 0.0
    for ell in range(1, 6):
        target = math.exp(-ell * (ell + 1) * 0.1)
        n = np.arange(-ell, ell + 1)
        terms = (np.exp(1j * np.outer(phi + psi, n)) * d[ell][:, n + ell, n + ell]).real
        se = terms.std(axis=0, ddof=1) / math.sqrt(K)
        diag_z = max(diag_z, float(np.max(np.abs(terms.mean(axis=0) - target) / se)))

    u = sample_uniform(K, seed=43)
    chars = characters_all(5, np.abs(u.quaternions[:, 0]))
    char_max = float(np.max(np.abs(chars[1:].mean(axis=1))))
    char_limit = 4.0 / math.sqrt(K)

    _, counts = sample_mixture(MIX, K, seed=44, with_counts=True)
    expected = np.array([CFG.uniform_weight] + [c.weight for c in CFG.components]) * K
    stat = float(np.sum((counts - expected) ** 2 / expected))
    crit = float(chi2.ppf(1.0 - 1e-3, len(expected) - 1))

    ok = diag_z <= 3.0 and char_max <= char_limit and stat < crit
    _report(
        8,
        ok,
        f"heat(0.1) diagonal max |z| = {diag_z:.2f} (<= 3), "
        f"uniform max |mean character| = {char_max:.5f} (<= {char_limit:.5f}), "
        f"component chi2 = {stat:.2f} (< {crit:.2f})",
    )
