"""Command-line entry points for the density-estimation study.

Subcommands: profiles (kernel shapes), mise (exact error curves), mc-validate
(Monte Carlo vs closed form), sample (draw from the configured mixture),
estimate (grid evaluation of an estimate from a quaternion CSV), selfcheck
(cross-module invariant suite).  Exit codes: 0 success, 1 a validation check
failed, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time

import numpy as np

from .analysis import (
    MiseCurve,
    mise,
    monte_carlo_ise_study,
    optimal_mise_bound,
)
from .config import ExperimentConfig
from .estimators import (
    EstimatorSpec,
    characteristic_density_estimate,
    characteristic_spectrum,
    kernel_band,
    kernel_estimate,
    wavelet_density_estimate,
)
from .harmonics import addition_evaluate, character, characters_all, wigner_d_stack
from .kernels import (
    KernelSpec,
    admissibility_residual,
    evaluate as kernel_evaluate,
    heat_coefficients,
    vp_coefficients,
    wavelet_coefficients,
)
from .rotations import Rotation, quat_angle, quat_conjugate, quat_multiply
from .sampling import RotationSample, sample_mixture, sample_uniform
from .spectra import ZonalMixture, zonal_convolve, zonal_energy
from .transform import QuadratureGrid, forward, synthesize, synthesize_at

__all__ = ["main", "run_selfcheck"]

_OMEGA_POINTS = 1024


def _write_profiles(cfg, out_dir, want_svg):
    omega = np.linspace(0.0, np.pi, _OMEGA_POINTS)
    families = (
        ("heat", [(t, heat_coefficients(t, cfg.bandlimit)) for t in cfg.heat_times()]),
        ("vp", [(float(k), vp_coefficients(k)) for k in cfg.vp_orders]),
        ("char", [(float(c), KernelSpec("char", c).coefficients(c)) for c in cfg.char_cutoffs]),
    )
    path = os.path.join(out_dir, "profiles.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kernel", "bandwidth", "omega", "value"])
        for name, members in families:
            for bw, coeffs in members:
                values = kernel_evaluate(coeffs, omega)
                for o, v in zip(omega, values):
                    w.writerow([name, f"{bw:.17g}", f"{o:.17g}", f"{v:.17g}"])
    print(f"wrote {path}")
    if want_svg:
        from .svg import line_plot

        for name, members in families:
            svg_path = os.path.join(out_dir, f"profiles_{name}.svg")
            curves = [
                (f"{name} {bw:g}", omega, kernel_evaluate(coeffs, omega))
                for bw, coeffs in members
            ]
            line_plot(svg_path, curves, title=f"{name} kernel profiles",
                      xlabel="rotation angle", ylabel="kernel value")
            print(f"wrote {svg_path}")
    return 0


def _quadrature_profile(m, L):
    grid = QuadratureGrid(L)
    return forward(grid, synthesize(grid, m.full_spectrum(L))).energy_per_degree()


def _mise_rows(cfg, profile):
    L = cfg.bandlimit
    rows = []
    for K in cfg.sample_sizes:
        bound = optimal_mise_bound(profile, K)
        for t in cfg.heat_times():
            rows.append(("heat", t, K, mise(profile, heat_coefficients(t, L), K), bound))
        for k in cfg.vp_orders:
            rows.append(("vp", float(k), K, mise(profile, vp_coefficients(k, L), K), bound))
        for c in cfg.char_cutoffs:
            rows.append(
                ("char", float(c), K, mise(profile, KernelSpec("char", c).coefficients(L), K), bound)
            )
    return MiseCurve(tuple(rows))


def _cmd_mise(cfg, out_dir, want_svg, via_quadrature):
    m = cfg.build_mixture()
    profile = m.energy_per_degree(cfg.bandlimit)
    if via_quadrature:
        quad_prof = _quadrature_profile(m, cfg.bandlimit)
        # the analytic profile decays below double resolution near the mixture
        # band edge; floor the denominator so those degrees compare at 1e-12 scale
        floor = 1e-12 * float(np.max(profile))
        rel = float(np.max(np.abs(quad_prof - profile) / np.maximum(profile, floor)))
        print(f"quadrature vs analytic profile: max relative difference {rel:.3e}")
        if rel > 1e-8:
            print("profile disagreement exceeds 1e-8", file=sys.stderr)
            return 1
        profile = quad_prof
    curve = _mise_rows(cfg, profile)
    path = os.path.join(out_dir, "mise.csv")
    curve.to_csv(path)
    print(f"wrote {path}")
    if want_svg:
        from .svg import line_plot

        Ks = np.asarray(cfg.sample_sizes, dtype=float)
        for name, bandwidths in (
            ("heat", cfg.heat_times()),
            ("vp", cfg.vp_orders),
            ("char", cfg.char_cutoffs),
        ):
            curves = []
            for bw in bandwidths:
                ys = [v for k, b, K, v, _ in curve.rows if k == name and b == float(bw)]
                curves.append((f"{name} {float(bw):g}", Ks, np.asarray(ys)))
            curves.append(
                ("bound", Ks, np.asarray([optimal_mise_bound(profile, K) for K in Ks]))
            )
            svg_path = os.path.join(out_dir, f"mise_{name}.svg")
            line_plot(svg_path, curves, title=f"MISE, {name} family",
                      xlabel="sample size", ylabel="MISE", log_x=True, log_y=True)
            print(f"wrote {svg_path}")
    return 0


def _cmd_mc_validate(cfg, out_dir, seed):
    m = cfg.build_mixture()
    L = cfg.bandlimit
    profile = m.energy_per_degree(L)
    specs = [EstimatorSpec.from_text(t) for t in cfg.mc_estimators]
    grid = QuadratureGrid(L)
    means, ses = monte_carlo_ise_study(
        m, specs, cfg.sample_size, cfg.mc_trials, seed, grid=grid
    )
    rows = []
    for spec, mean, se in zip(specs, means, ses):
        analytic = mise(profile, spec.kernel.coefficients(L), cfg.sample_size)
        rows.append((spec.to_text(), float(mean), float(se), analytic))
    # control: sampling the uniform density, where the closed form is pure
    # variance and any bias in the pipeline would surface as z far from 0
    uniform = ZonalMixture(1.0, ())
    control_spec = specs[0]
    control_grid = QuadratureGrid(min(L, max(3, kernel_band(control_spec.kernel))))
    cmeans, cses = monte_carlo_ise_study(
        uniform, [control_spec], cfg.sample_size, cfg.mc_trials, seed + 1, grid=control_grid
    )
    control_prof = uniform.energy_per_degree(control_grid.L)
    control_analytic = mise(
        control_prof, control_spec.kernel.coefficients(control_grid.L), cfg.sample_size
    )
    rows.append(
        ("uniform-control " + control_spec.to_text(), float(cmeans[0]), float(cses[0]), control_analytic)
    )
    path = os.path.join(out_dir, "mc_validate.csv")
    ok = True
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["estimator", "mean_ise", "stderr", "analytic_mise", "z"])
        print(f"{'estimator':34s} {'mean ISE':>12s} {'analytic':>12s} {'z':>7s}")
        for name, mean, se, analytic in rows:
            z = (mean - analytic) / se
            ok &= abs(z) <= 3.0
            w.writerow([name, f"{mean:.17g}", f"{se:.17g}", f"{analytic:.17g}", f"{z:.17g}"])
            print(f"{name:34s} {mean:12.5f} {analytic:12.5f} {z:+7.2f}")
    print(f"wrote {path}")
    if not ok:
        print("Monte Carlo mean deviates by more than 3 standard errors", file=sys.stderr)
        return 1
    return 0


def _cmd_sample(cfg, out_dir, seed):
    m = cfg.build_mixture()
    s = sample_mixture(m, cfg.sample_size, seed=seed)
    path = os.path.join(out_dir, "sample.csv")
    s.to_csv(path)
    print(f"wrote {path} ({len(s)} rotations)")
    return 0


def _cmd_estimate(cfg, out_dir, sample_path):
    sample = RotationSample.from_csv(sample_path)
    spec = EstimatorSpec.from_text(cfg.estimate_spec)
    grid = QuadratureGrid(cfg.bandlimit)
    field = spec.estimate_on_grid(sample, grid)
    mass = grid.integrate(field)
    path = os.path.join(out_dir, "estimate.csv")
    # the rows csv.writer would emit (no field needs quoting), one theta slice
    # per write by one %: the node strings of a slice are one template, with
    # theta in place of its NUL placeholders
    rows = "".join(f"{phi:.17g},\0,{psi:.17g},%.17g\r\n" for phi in grid.phis for psi in grid.psis)
    with open(path, "w", newline="") as fh:
        fh.write("phi,theta,psi,value\r\n")
        for theta, plane in zip(grid.thetas, field):
            fh.write(rows.replace("\0", f"{theta:.17g}") % tuple(plane.ravel().tolist()))
    print(f"wrote {path} ({field.size} nodes), estimator {spec.to_text()}, mass {mass:.12f}")
    return 0


def _grid_route_ise(m, specs, K, trials, seed, grid):
    """(means, stderrs) of `monte_carlo_ise_study` by the grid route.

    The verification oracle for the study's zonal sums: each trial's
    empirical spectrum is scaled per estimator, synthesized on `grid` and
    (zeta - f)^2 integrated by quadrature, on the same seeded samples and the
    same kernel band.
    """
    kernels = [spec.kernel for spec in specs]
    f_grid = synthesize(grid, m.full_spectrum(grid.L))
    band = min(grid.L, max(kernel_band(k) for k in kernels))
    coeff_rows = [k.coefficients(band) for k in kernels]
    ises = np.empty((trials, len(kernels)))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        phi = characteristic_spectrum(sample_mixture(m, K, seed=child), band)
        for j, coeffs in enumerate(coeff_rows):
            zeta = synthesize(grid, phi.scale_per_degree(coeffs))
            ises[i, j] = grid.integrate((zeta - f_grid) ** 2)
    return ises.mean(axis=0), ises.std(axis=0, ddof=1) / np.sqrt(trials)


def run_selfcheck(seed=0, bandlimit=49):
    """Cross-module invariant suite; rows of (name, value, tolerance, ok)."""
    rows = []

    def check(name, value, tol):
        rows.append((name, float(value), tol, bool(value <= tol)))

    cfg = ExperimentConfig.default()
    m = cfg.build_mixture()
    grid = QuadratureGrid(bandlimit)
    f_grid = synthesize(grid, m.full_spectrum(bandlimit))
    spectrum = forward(grid, f_grid)
    expected_count = sum((2 * ell + 1) ** 2 for ell in range(bandlimit + 1))
    check(
        "coefficient count == closed-form sum",
        abs(spectrum.n_coefficients - expected_count),
        0,
    )

    # character orthogonality on its own exact grid; cos(omega/2) = |q_w|
    cg = QuadratureGrid(20)
    chars = characters_all(20, np.abs(cg.points[..., 0]))
    w = cg.weights()
    gram = np.einsum("itpq,jtpq,tpq->ij", chars, chars, w)
    check("character orthogonality (l,l' <= 20)", np.max(np.abs(gram - np.eye(21))), 1e-10)

    # polar tables at the grid's Gauss-Legendre nodes
    top = min(32, grid.L)
    dev = max(
        float(np.max(np.abs(d @ d.transpose(0, 2, 1) - np.eye(2 * ell + 1))))
        for ell, d in enumerate(wigner_d_stack(top, grid.thetas))
    )
    check(f"Wigner-d orthogonality (l <= {top})", dev, 1e-10)

    rng = np.random.default_rng(seed)
    dev = 0.0
    for _ in range(20):
        x = Rotation.from_quaternion(rng.normal(size=4))
        y = Rotation.from_quaternion(rng.normal(size=4))
        rel = x.inverse().compose(y)
        for ell in (1, 2, 5, 10):
            dev = max(dev, abs(addition_evaluate(ell, x, y) - character(ell, rel)))
    check("addition theorem (l <= 10)", dev, 1e-9)

    s, t = 0.07, 0.19
    conv = zonal_convolve(heat_coefficients(s, 40), heat_coefficients(t, 40))
    check(
        "heat semigroup coefficients",
        np.max(np.abs(conv - heat_coefficients(s + t, 40))),
        1e-14,
    )

    dev = max(admissibility_residual(ell, 1e-3) for ell in range(1, 21))
    check("wavelet admissibility (l = 1..20)", dev, 1e-13)

    dev = max(
        abs(zonal_energy(wavelet_coefficients(rho, 200)) - 1.0) for rho in (2.0**-5, 0.25, 1.0)
    )
    check("wavelet unit norm", dev, 1e-10)

    parseval = abs(grid.integrate(f_grid**2) - m.norm_squared(bandlimit))
    check("Parseval quadrature agreement", parseval / m.norm_squared(bandlimit), 1e-8)

    triples = sample_uniform(30000, seed=seed + 1).quaternions.reshape(10000, 3, 4)
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]

    def dist(u, v):
        return quat_angle(quat_multiply(quat_conjugate(u), v))

    dab, dbc, dac = dist(a, b), dist(b, c), dist(a, c)
    metric_dev = max(
        float(np.max(dac - (dab + dbc))),
        float(np.max(np.abs(dab - dist(b, a)))),
        float(np.max(-dab)),
        float(np.max(np.abs(dist(a, a)))),
    )
    check("distance metric axioms (1e4 triples)", metric_dev, 1e-12)

    sample = sample_mixture(m, 100, seed=seed + 2)
    pts = sample_uniform(8, seed=seed + 3).quaternions
    three_a = characteristic_density_estimate(sample, 5, pts)
    three_b = synthesize_at(characteristic_spectrum(sample, 5), pts)
    three_c = kernel_estimate(sample, KernelSpec("char", 5), pts)
    check(
        "characteristic estimator three-path",
        max(np.max(np.abs(three_a - three_b)), np.max(np.abs(three_a - three_c))),
        1e-9,
    )
    # the study's mixture needs a grid that covers its band
    mc_grid = grid if grid.L >= m.lmax else QuadratureGrid(m.lmax)
    specs = [EstimatorSpec.from_text(t) for t in cfg.mc_estimators]
    zonal, _ = monte_carlo_ise_study(m, specs, cfg.sample_size, 2, seed + 4, grid=mc_grid)
    oracle, _ = _grid_route_ise(m, specs, cfg.sample_size, 2, seed + 4, mc_grid)
    check(
        "Monte-Carlo ISE grid vs zonal route",
        np.max(np.abs(zonal - oracle) / np.abs(oracle)),
        1e-10,
    )
    two_a = wavelet_density_estimate(sample, 0.25, pts)
    two_b = wavelet_density_estimate(sample, 0.25, pts, via_scales=True)
    check("wavelet estimator two-path", np.max(np.abs(two_a - two_b)), 1e-11)
    return rows


def _cmd_selfcheck(seed):
    t0 = time.time()
    rows = run_selfcheck(seed=seed)
    ok = True
    print(f"{'invariant':42s} {'value':>12s} {'tolerance':>12s} {'status':>7s}")
    for name, value, tol, passed in rows:
        ok &= passed
        print(f"{name:42s} {value:12.3e} {tol:12.3e} {'pass' if passed else 'FAIL':>7s}")
    print(f"selfcheck {'passed' if ok else 'FAILED'} in {time.time() - t0:.1f}s")
    return 0 if ok else 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="so3density",
        description="Density estimation on the rotation group: kernel shapes, "
        "exact MISE curves, Monte Carlo validation, sampling, and invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **extra):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="configuration file (flat or JSON)")
        p.add_argument("--out", metavar="DIR", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="random seed override")
        p.add_argument("--svg", action="store_true", help="also write SVG plots")
        return p

    add("profiles", "write kernel shape profiles")
    p_mise = add("mise", "write exact MISE curves for every kernel family")
    p_mise.add_argument(
        "--via-quadrature",
        action="store_true",
        help="derive the density profile through the quadrature transform "
        "and require 1e-8 agreement with the closed form",
    )
    add("mc-validate", "Monte Carlo ISE against the closed-form MISE")
    add("sample", "draw a sample from the configured mixture")
    p_est = add("estimate", "evaluate the configured estimator on the quadrature grid")
    p_est.add_argument("sample", metavar="SAMPLE_CSV", help="input quaternion CSV (w,x,y,z)")
    add("selfcheck", "run the cross-module invariant suite")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig.default()
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # malformed JSON
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else cfg.seed
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "profiles":
            return _write_profiles(cfg, out_dir, args.svg)
        if args.command == "mise":
            return _cmd_mise(cfg, out_dir, args.svg, args.via_quadrature)
        if args.command == "mc-validate":
            return _cmd_mc_validate(cfg, out_dir, seed)
        if args.command == "sample":
            return _cmd_sample(cfg, out_dir, seed)
        if args.command == "estimate":
            return _cmd_estimate(cfg, out_dir, args.sample)
        if args.command == "selfcheck":
            return _cmd_selfcheck(seed)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
