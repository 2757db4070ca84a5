"""Exact MISE analysis in the Fourier domain, with Monte Carlo validation.

Every estimator here is a kernel average, so its mean integrated squared
error has a closed per-degree form.  Writing prof_ell for the density's
per-degree energy (matrix norm over (2 ell+1)) and Xihat_ell for the kernel
multiplier,

    MISE = sum_{ell>=1} (2 ell+1)^2 [ prof (1-Xihat)^2 + Xihat^2 (1-prof)/K ].

The profile array fixes the analysis band: degrees beyond its length do not
enter any sum, and kernel coefficients are zero-padded or truncated to match.
Minimizing per degree over Xihat gives the kernel-independent lower bound and
the optimal multiplier Xihat* = K prof / ((K-1) prof + 1).

The Monte Carlo check draws samples and measures each estimate's integrated
squared error without a grid.  By Parseval and the addition theorem the ISE
over degrees 1..L is three zonal sums, Z[c] = sum_ell (2 ell+1) c_ell chi^ell
with c_0 = 0:

    ISE = K^-2 sum_{a,b} Z[Xihat^2](X_a^-1 X_b)
          - 2 sum_i w_i K^-1 sum_k Z[Xihat a_i](X_k^-1 c_i) + ||f||^2_{ell>=1}

for a density made of zonal bumps a_i of weight w_i centred at c_i.  Each
sum is one blocked pass of the estimators' zonal engine; a quadrature grid,
when given, only fixes the band L.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .estimators import _zonal_average, kernel_band
from .kernels import KernelSpec
from .sampling import sample_mixture
from .spectra import _pad

__all__ = [
    "mise",
    "bias_variance_split",
    "wavelet_mise",
    "wavelet_mise_first_order",
    "optimal_mise_bound",
    "optimal_kernel_coefficients",
    "monte_carlo_ise_study",
    "MiseCurve",
]


def _banded(profile, kernel_coeffs):
    prof = np.asarray(profile, dtype=float)
    if prof.ndim != 1 or prof.shape[0] < 1:
        raise ValueError("profile must be a 1-d array with the degree-0 entry")
    xi = np.zeros_like(prof)
    src = np.asarray(kernel_coeffs, dtype=float)
    n = min(prof.shape[0], src.shape[0])
    xi[:n] = src[:n]
    return prof, xi


def bias_variance_split(profile, kernel_coeffs, K):
    """(squared bias, variance) of the kernel estimate; their sum is the MISE.

    The bias term is sample-size free; the variance term carries the entire
    1/K dependence.
    """
    if K < 1:
        raise ValueError("sample size must be >= 1")
    prof, xi = _banded(profile, kernel_coeffs)
    ell = np.arange(prof.shape[0])
    w = (2.0 * ell + 1.0) ** 2
    bias_sq = float(np.sum(w[1:] * prof[1:] * (1.0 - xi[1:]) ** 2))
    variance = float(np.sum(w[1:] * xi[1:] ** 2 * (1.0 - prof[1:]))) / K
    return bias_sq, variance


def mise(profile, kernel_coeffs, K):
    """Exact mean integrated squared error of the kernel estimate."""
    bias_sq, variance = bias_variance_split(profile, kernel_coeffs, K)
    return bias_sq + variance


def wavelet_mise(profile, t, K):
    """MISE of the scale-integrated wavelet estimator, i.e. heat smoothing at t.

    Identical to mise(profile, heat_coefficients(t, band), K) on the profile's
    band; kept separate because the closed form below is what the first-order
    expansion and the small-t limit are statements about.
    """
    if t < 0:
        raise ValueError("scale must be >= 0")
    prof, _ = _banded(profile, [1.0])
    ell = np.arange(prof.shape[0])
    a = ell * (ell + 1.0)
    w = (2.0 * ell + 1.0) ** 2
    xi = np.exp(-a * t)
    total = w[1:] * (prof[1:] * (1.0 - xi[1:]) ** 2 + xi[1:] ** 2 * (1.0 - prof[1:]) / K)
    return float(np.sum(total))


def wavelet_mise_first_order(profile, t, K):
    """First-order expansion of wavelet_mise in the scale t.

    Expanding e^{-a t} to first order gives, per degree,
    (1 - 2 a t)/K + prof (2 a t (1 + K) - 1)/K; at t = 0 this reproduces the
    exact small-scale limit sum (2 ell+1)^2 (1 - prof)/K.
    """
    if K < 1:
        raise ValueError("sample size must be >= 1")
    prof, _ = _banded(profile, [1.0])
    ell = np.arange(prof.shape[0])
    a = ell * (ell + 1.0)
    w = (2.0 * ell + 1.0) ** 2
    terms = (1.0 - 2.0 * a * t) / K + prof * (2.0 * a * t * (1.0 + K) - 1.0) / K
    return float(np.sum(w[1:] * terms[1:]))


def optimal_kernel_coefficients(profile, K):
    """Per-degree minimizer Xihat* = K prof / ((K-1) prof + 1)."""
    prof = np.asarray(profile, dtype=float)
    out = K * prof / ((K - 1.0) * prof + 1.0)
    out[0] = 1.0
    return out


def optimal_mise_bound(profile, K):
    """Kernel-independent lower bound: the MISE at the per-degree minimizer."""
    if K < 1:
        raise ValueError("sample size must be >= 1")
    prof, _ = _banded(profile, [1.0])
    ell = np.arange(prof.shape[0])
    w = (2.0 * ell + 1.0) ** 2
    terms = prof * (1.0 - prof) / ((K - 1.0) * prof + 1.0)
    return float(np.sum(w[1:] * terms[1:]))


def _kernel_of(spec):
    return spec.kernel if hasattr(spec, "kernel") and not isinstance(spec, KernelSpec) else spec


def monte_carlo_ise_study(m, specs, K, trials, seed, grid=None):
    """Monte Carlo ISE for several estimators on shared per-trial samples.

    Returns (means, stderrs) arrays aligned with `specs`.  Each trial draws one
    sample X_1..X_K and computes each estimator's ISE ||zeta_j - f||^2 over
    the degrees 1..L by Parseval and the addition theorem, as zonal sums:

        ISE_j = K^-2 sum_{a,b} Z[xi_j^2](X_a^-1 X_b)
                - 2 sum_i w_i K^-1 sum_k Z[xi_j a_i](X_k^-1 c_i) + ||f||^2_{l>=1},

    where Z[c] = sum_l (2l+1) c_l chi^l with c_0 = 0, and w_i, a_i, c_i are
    the mixture components' weights, coefficients and centers.  Degree 0
    drops out: every kernel and the density have unit mass.  Each sum is one
    blocked pass of `estimators._zonal_average`, so a trial builds no Wigner
    matrix and no grid, and its memory stays bounded for any K.

    `grid` only fixes the analysis band L = grid.L (the mixture band m.lmax
    when omitted), which must cover the mixture; the kernels are truncated
    to min(L, largest kernel band), as on a grid of that bandlimit.  Trials
    are seeded from spawned child sequences, so a fixed seed fixes every
    sample regardless of how many estimators share it.  At least two trials
    are needed for a standard error.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials for a standard error, got {trials}")
    kernels = [_kernel_of(s) for s in specs]
    L = m.lmax if grid is None else grid.L
    if m.lmax > L:
        raise ValueError("grid bandlimit below the mixture band")
    f_norm = m.norm_squared(L) - m.energy_per_degree(L)[0]
    band = min(L, max(kernel_band(k) for k in kernels))
    xis = [np.concatenate([[0.0], k.coefficients(band)[1:]]) for k in kernels]
    comps = [(c.weight * _pad(c.coefficients, band), c.center) for c in m.components]
    children = np.random.SeedSequence(seed).spawn(trials)
    ises = np.empty((trials, len(kernels)))
    for i, child in enumerate(children):
        sample = sample_mixture(m, K, seed=child)
        for j, xi in enumerate(xis):
            own = np.mean(_zonal_average(sample, xi**2, sample.quaternions))
            mixed = sum(_zonal_average(sample, xi * wa, center) for wa, center in comps)
            ises[i, j] = own - 2.0 * mixed + f_norm
    means = ises.mean(axis=0)
    stderrs = ises.std(axis=0, ddof=1) / np.sqrt(trials)
    return means, stderrs


@dataclass(frozen=True)
class MiseCurve:
    """Rows of (kernel label, bandwidth, K, mise, optimal bound) for one study."""

    rows: tuple

    HEADER = ("kernel", "bandwidth", "K", "mise", "optimal_bound")

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for r in self.rows:
            if len(r) != 5:
                raise ValueError("each row is (kernel, bandwidth, K, mise, bound)")

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.HEADER)
            for kernel, bw, K, value, bound in self.rows:
                w.writerow(
                    [kernel, f"{bw:.17g}", f"{K:.17g}", f"{value:.17g}", f"{bound:.17g}"]
                )
