"""The benchmark's workloads: seeded inputs, one op, and an independent check.

A workload's constructor is the set-up a user pays before the first result
(after the import of so3density, which the runner times with it).  `run_op`
is one op; it reaches the library only through module attributes and class
methods, so a tracer that rebinds those sees every call.  `check` verifies an
op's output by a route of the benchmark's own and runs outside the timed
region; it returns (largest deviation, list of problems, work counts).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import shutil
import tempfile

import numpy as np

import so3density
# every layer is imported here, svg included (cli imports it lazily), so the
# tracer finds all of them on the package
from so3density import analysis, cli, config, estimators, harmonics, sampling, svg, transform  # noqa: F401

#: distinct op seeds drawn per run; ops past this many reuse them in order
OP_SEEDS = 4096


def _op_seeds(seq):
    return np.random.default_rng(seq).integers(0, 2**31 - 1, size=OP_SEEDS)


def _hamilton(p, q):
    w1, x1, y1, z1 = np.moveaxis(p, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(q, -1, 0)
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def _conjugate(q):
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def _euler_zyz_quat(phi, theta, psi):
    """Quaternion of Z(phi) Y(theta) Z(psi) as a product of the three factors."""
    zero = np.zeros_like(phi)
    z1 = np.stack([np.cos(phi / 2), zero, zero, np.sin(phi / 2)], axis=-1)
    y = np.stack([np.cos(theta / 2), zero, np.sin(theta / 2), zero], axis=-1)
    z2 = np.stack([np.cos(psi / 2), zero, zero, np.sin(psi / 2)], axis=-1)
    return _hamilton(_hamilton(z1, y), z2)


def _heat_band(t, tol=1e-20):
    ell = np.arange(1000)
    return int(np.argmax((2 * ell + 1) ** 2 * np.exp(-ell * (ell + 1) * t) < tol))


def kernel_coefficients(text, L=None):
    """Zonal coefficients a_0..a_L of an estimator given in its text form.

    The benchmark's own formulas: heat e^{-l(l+1)t}, binomial
    C(2k+1, k-l)/C(2k+1, k) in exact integers, and the sharp cutoff.  With L
    omitted, the band is where the kernel's terms vanish to double precision.
    """
    head, _, rest = text.partition(":")
    family, param = rest.split(":") if head == "kernel" else (
        {"wavelet": "heat", "characteristic": "char"}[head], rest
    )
    if family == "heat":
        t = float(param)
        ell = np.arange((_heat_band(t) if L is None else L) + 1)
        return np.exp(-ell * (ell + 1) * t)
    k = int(param)
    ell = np.arange((k if L is None else L) + 1)
    if family == "vp":
        top = math.comb(2 * k + 1, k)
        return np.array([math.comb(2 * k + 1, k - l) / top if l <= k else 0.0 for l in ell])
    return (ell <= k).astype(float)


def dirichlet_estimates(sample_q, points, coefficient_rows):
    """K^-1 sum_k sum_l (2l+1) a_l sin((2l+1)w/2) / sin(w/2) at each point,
    one row per coefficient array.

    w is the angle of X_k^-1 x, with w/2 taken by atan2 from the relative
    quaternion so it stays accurate near 0; the ratio's limit there is 2l+1.
    """
    rel = _hamilton(_conjugate(sample_q)[:, None, :], points[None, :, :])
    half = np.arctan2(np.linalg.norm(rel[..., 1:], axis=-1), np.abs(rel[..., 0]))
    s = np.sin(half)
    tiny = s < 1e-12
    s[tiny] = 1.0
    totals = np.zeros((len(coefficient_rows),) + half.shape)
    for ell in range(max(len(a) for a in coefficient_rows)):
        n = 2 * ell + 1
        ratio = np.sin(n * half)
        ratio /= s
        ratio[tiny] = n
        for total, a in zip(totals, coefficient_rows):
            if ell < len(a) and a[ell] != 0.0:
                total += n * a[ell] * ratio
    return totals.mean(axis=1)


class Workload:
    def info(self):
        """Extra, non-gating figures for the run's detail line."""
        return {}

    def close(self):
        """Remove what the workload wrote."""


class Pointwise(Workload):
    """Library user's path: all four estimators on a fresh batch of points."""

    ESTIMATORS = ("wavelet:0.0625", "kernel:heat:0.01", "kernel:vp:29", "characteristic:5")
    K = 10000
    BATCH = 128
    POOL = 64  # distinct query batches; op i evaluates batch i mod POOL
    CHECKED = slice(0, BATCH, BATCH // 8)  # the fixed 8-point subset checked
    TOL = 1e-9  # absolute; the selfcheck tolerance of the three-path identity

    def __init__(self, seed, workdir):
        sample_seq, query_seq = np.random.SeedSequence(seed).spawn(2)
        mixture = config.ExperimentConfig.default().build_mixture()
        self.sample = sampling.sample_mixture(mixture, self.K, seed=sample_seq)
        self.specs = [estimators.EstimatorSpec.from_text(t) for t in self.ESTIMATORS]
        q = np.random.default_rng(query_seq).normal(size=(self.POOL, self.BATCH, 4))
        self.batches = q / np.linalg.norm(q, axis=-1, keepdims=True)
        self._coeffs = None

    def run_op(self, i):
        x = self.batches[i % self.POOL]
        return [spec.estimate(self.sample, x) for spec in self.specs]

    def check(self, i, out):
        if self._coeffs is None:
            self._coeffs = [kernel_coefficients(t) for t in self.ESTIMATORS]
        points = self.batches[i % self.POOL][self.CHECKED]
        refs = dirichlet_estimates(self.sample.quaternions, points, self._coeffs)
        problems, dev = [], 0.0
        for text, ref, values in zip(self.ESTIMATORS, refs, out):
            values = np.asarray(values)
            if values.shape != (self.BATCH,) or not np.all(np.isfinite(values)):
                problems.append(f"{text}: output not {self.BATCH} finite values")
                continue
            d = float(np.max(np.abs(values[self.CHECKED] - ref)))
            dev = max(dev, d)
            if not d <= self.TOL:
                problems.append(f"{text}: Dirichlet closed form differs by {d:.3e}")
        return dev, problems, {}


class McValidate(Workload):
    """The paper's validation study: closed-form MISE against simulated ISE."""

    TRIALS = 2
    TOL = 1e-9  # relative, on each estimator's mean ISE

    def __init__(self, seed, workdir):
        self.cfg = config.ExperimentConfig.default()
        self.mixture = self.cfg.build_mixture()
        self.specs = [estimators.EstimatorSpec.from_text(t) for t in self.cfg.mc_estimators]
        self.grid = transform.QuadratureGrid(self.cfg.bandlimit)
        self.grid.d_stack  # the d-tables are part of the grid a user builds
        self.seeds = _op_seeds(seed)
        self._reference = None
        self.z = []

    def run_op(self, i):
        return analysis.monte_carlo_ise_study(
            self.mixture, self.specs, self.cfg.sample_size, self.TRIALS,
            seed=int(self.seeds[i % OP_SEEDS]), grid=self.grid,
        )

    def _prepare(self):
        L = self.grid.L
        comps = self.mixture.components
        centers = np.array([c.center.q for c in comps])
        wa = np.array([c.weight * np.pad(c.coefficients, (0, L + 1 - len(c.coefficients)))
                       for c in comps])  # (C, L+1): w_i a_i^l
        chi_cc = harmonics.characters_all(L, np.clip(np.abs(centers @ centers.T), 0.0, 1.0))
        f_norm = np.einsum("il,jl,lij->l", wa, wa, chi_cc)  # ||fhat^l||_F^2
        xi = np.array([kernel_coefficients(t, L) for t in self.cfg.mc_estimators])
        prof = self.mixture.energy_per_degree(L)
        mise = [analysis.mise(prof, s.kernel.coefficients(L), self.cfg.sample_size)
                for s in self.specs]
        self._reference = centers, wa, f_norm, xi, np.array(mise)

    def ise_by_characters(self, X):
        """ISE of each estimator for sample X by character sums, no grid.

        sum_{l>=1} (2l+1) [xi^2 S_l - 2 xi T_l + ||fhat^l||^2] with
        S_l = K^-2 sum_jk chi^l(X_j^-1 X_k) and
        T_l = K^-1 sum_k sum_i w_i a_i^l chi^l(X_k^-1 c_i).
        """
        centers, wa, f_norm, xi, _ = self._reference
        L = self.grid.L
        K = X.shape[0]
        S = harmonics.characters_all(L, np.clip(np.abs(X @ X.T), 0.0, 1.0)).sum(axis=(1, 2)) / K**2
        chi_xc = harmonics.characters_all(L, np.clip(np.abs(X @ centers.T), 0.0, 1.0))
        T = np.einsum("il,lki->l", wa, chi_xc) / K
        dee = 2.0 * np.arange(L + 1) + 1.0
        terms = dee * (xi**2 * S - 2.0 * xi * T + f_norm)
        return terms[:, 1:].sum(axis=1)

    def check(self, i, out):
        if self._reference is None:
            self._prepare()
        means, stderrs = (np.asarray(v, dtype=float) for v in out)
        seq = np.random.SeedSequence(int(self.seeds[i % OP_SEEDS]))
        ises = [
            self.ise_by_characters(
                sampling.sample_mixture(self.mixture, self.cfg.sample_size, seed=child).quaternions
            )
            for child in seq.spawn(self.TRIALS)
        ]
        ref = np.mean(ises, axis=0)
        rel = np.abs(means - ref) / np.abs(ref)
        dev = float(np.max(rel))
        self.z.extend(((means - self._reference[4]) / stderrs).tolist())
        problems = [] if dev <= self.TOL else [f"mean ISE differs from character sums by {dev:.3e} relative"]
        return dev, problems, {}

    def info(self):
        z = np.abs(self.z)
        return {"mc_abs_z_median": float(np.median(z))} if z.size else {}


class CliPipeline(Workload):
    """Command-line user's path: sample, estimate on the grid, MISE curves."""

    MASS_TOL = 1e-10
    NODE_TOL = 1e-9
    NODES = (0, 98_765, 250_000, 401_234)  # estimate.csv data rows checked
    MISE_ROWS = 13 * 25  # default config: 13 sample sizes x (9 heat + 7 vp + 9 char)
    ESTIMATE = "wavelet:0.0625"  # the default config's estimate_spec
    OUTPUTS = ("sample.csv", "estimate.csv", "mise.csv")

    def __init__(self, seed, workdir):
        self.seeds = _op_seeds(seed)
        os.makedirs(workdir, exist_ok=True)
        self.out = tempfile.mkdtemp(prefix="cli-", dir=workdir)

    def run_op(self, i):
        text = io.StringIO()
        sample_csv = os.path.join(self.out, "sample.csv")
        with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
            codes = [
                cli.main(["sample", "--seed", str(self.seeds[i % OP_SEEDS]), "--out", self.out]),
                cli.main(["estimate", sample_csv, "--out", self.out]),
                cli.main(["mise", "--via-quadrature", "--out", self.out]),
            ]
        return codes, text.getvalue()

    def check(self, i, out):
        codes, text = out
        paths = [os.path.join(self.out, name) for name in self.OUTPUTS]
        try:
            return self._check(codes, text, *paths)
        finally:
            for p in paths:
                if os.path.exists(p):
                    os.remove(p)

    def _check(self, codes, text, sample_csv, estimate_csv, mise_csv):
        problems, dev = [], 0.0
        if codes != [0, 0, 0]:
            problems.append(f"exit codes {codes}: {text.strip()[-300:]}")
        written = sum(os.path.getsize(p) for p in (sample_csv, estimate_csv, mise_csv)
                      if os.path.exists(p))
        if problems:
            return dev, problems, {"cli.bytes_written": written}
        mass = re.search(r"mass ([-+0-9.eE]+)", text)
        if mass is None:
            problems.append("estimate printed no mass")
        else:
            dev = abs(float(mass.group(1)) - 1.0)
            if not dev <= self.MASS_TOL:
                problems.append(f"printed mass differs from 1 by {dev:.3e}")
        with open(mise_csv) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.MISE_ROWS:
            problems.append(f"mise.csv has {rows} rows, expected {self.MISE_ROWS}")
        nodes = {}
        with open(estimate_csv) as fh:
            next(fh)
            for n, line in enumerate(fh):
                if n in self.NODES:
                    nodes[n] = [float(v) for v in line.split(",")]
                    if len(nodes) == len(self.NODES):
                        break
        if len(nodes) != len(self.NODES):
            problems.append("estimate.csv is missing checked rows")
            return dev, problems, {"cli.bytes_written": written}
        phi, theta, psi, value = np.array([nodes[n] for n in self.NODES]).T
        sample = sampling.RotationSample(np.loadtxt(sample_csv, delimiter=",", skiprows=1))
        kernel = estimators.EstimatorSpec.from_text(self.ESTIMATE).kernel
        ref = estimators.kernel_estimate(sample, kernel, _euler_zyz_quat(phi, theta, psi))
        d = float(np.max(np.abs(value - ref)))
        if not d <= self.NODE_TOL:
            problems.append(f"estimate.csv differs from kernel_estimate by {d:.3e}")
        return max(dev, d), problems, {"cli.bytes_written": written}

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


WORKLOADS = {"pointwise": Pointwise, "mc-validate": McValidate, "cli-pipeline": CliPipeline}
PACKAGE = so3density
