"""Kernel-type density estimators from rotation samples.

All three estimators are sample averages of a zonal kernel,

    zeta(x) = K^{-1} sum_k Xi(angle(X_k^{-1} x)),

and differ only in the coefficient family: a general smoothing kernel (heat or
binomial/VP), the sharp Fourier cutoff (which inverts the truncated empirical
characteristic function -- the Dirichlet-sum form and the spectral form are
the same number), and the heat kernel again in its role as the closed form of
the scale-integrated wavelet estimator.

Evaluation therefore never assembles spectra.  The (sample, point) pairs are
taken in cache-sized blocks: a block's cos(omega/2) values are one GEMM of
sample quaternions against point quaternions, the kernel values follow from
the cosine-series Clenshaw recurrence of `spectra.zonal_synthesize`, and each
block is summed into the output, so memory stays bounded for any sample size.
Spectra are computed only on request (`characteristic_spectrum`) or inside
the scale-integration verification path of the wavelet estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import L_MAX, _conj_wigner_sum
from .kernels import KernelSpec, wavelet_coefficients
from .rotations import quat_points
from .spectra import _BLOCK, FullSpectrum, _aligned_empty, zonal_synthesize
from .transform import scale_grid, synthesize, synthesize_at, wavelet_inverse, wavelet_transform

__all__ = [
    "EstimatorSpec",
    "kernel_estimate",
    "kernel_estimate_on_grid",
    "kernel_band",
    "characteristic_spectrum",
    "characteristic_density_estimate",
    "wavelet_coefficient_estimate",
    "wavelet_density_estimate",
    "heat_truncation_degree",
]


def heat_truncation_degree(t):
    """Smallest band L with (2 ell+1)^2 e^{-ell (ell+1) t} < 1e-18 beyond it.

    Past this degree the heat spectrum contributes below double rounding to
    any synthesized value, so truncation there is exact for practical
    purposes.
    """
    if t <= 0:
        raise ValueError("heat time must be positive")
    ell = 1
    while (2 * ell + 1) ** 2 * np.exp(-ell * (ell + 1) * t) >= 1e-18:
        ell += 1
    return ell


def _zonal_average(sample, coeffs, x):
    """Mean over the sample of the zonal function at relative angles to x.

    Pairs are taken in blocks of about `_BLOCK` (sample rows x points), so
    the work arrays stay the same size for any K and N.  A block's
    cos(omega/2) values are one GEMM, |<X_k, x_j>| clamped to 1, written
    into one cache-line-aligned buffer reused for every block.
    """
    pts, shape = quat_points(x)
    sq = sample.quaternions
    cols = max(1, min(pts.shape[0], math.isqrt(_BLOCK)))
    rows = _BLOCK // cols
    buf = _aligned_empty(rows * cols)
    out = np.zeros(pts.shape[0])
    for p0 in range(0, pts.shape[0], cols):
        piece_t = pts[p0 : p0 + cols].T
        acc = out[p0 : p0 + cols]
        for r0 in range(0, sq.shape[0], rows):
            block = sq[r0 : r0 + rows]
            t = buf[: block.shape[0] * piece_t.shape[1]].reshape(block.shape[0], -1)
            np.matmul(block, piece_t, out=t)
            np.abs(t, out=t)
            np.minimum(t, 1.0, out=t)
            acc += zonal_synthesize(coeffs, t).sum(axis=0)
    out /= sq.shape[0]
    return float(out[0]) if shape is None else out.reshape(shape)


def kernel_band(spec):
    """Degree beyond which the kernel's spectrum is (numerically) zero."""
    if spec.family == "heat":
        return heat_truncation_degree(spec.param)
    return int(spec.param)


def _kernel_coefficients(spec, L=None):
    return spec.coefficients(kernel_band(spec) if L is None else L)


def kernel_estimate(sample, spec, x):
    """zeta(x) = K^{-1} sum_k Xi(angle(X_k^{-1} x)) for a KernelSpec.

    `x` is read by `rotations.quat_points`: a float for one point, else an
    array of x's leading shape.  The expectation of the result over samples
    from f is the convolution (Xi * f)(x).
    """
    return _zonal_average(sample, _kernel_coefficients(spec), x)


def characteristic_spectrum(sample, L):
    """Empirical characteristic function PhiHat^ell_nm = K^{-1} sum conj(D_nm(X_k)).

    Degree-0 block is exactly 1; every entry is bounded by 1 in magnitude.
    One weighted Wigner-D sum over the sample (`harmonics._conj_wigner_sum`):
    a separable tensor over (n, j, m) summed by one GEMM per chunk of the
    sample, then one contraction against d^ell(pi/2) per degree.  Work arrays
    stay near 50 MB at L = 49 however large K grows.
    """
    if not 0 <= L <= L_MAX:
        raise ValueError(f"degree must lie in [0, {L_MAX}]")
    sq = sample.quaternions
    blocks = _conj_wigner_sum(L, sq, 1.0 / sq.shape[0])
    blocks[0][0, 0] = 1.0
    return FullSpectrum(blocks)


def characteristic_density_estimate(sample, L, x):
    """Truncated-inversion estimator: K^{-1} sum_k sum_{ell<=L} (2 ell+1) chi^ell(X_k^{-1} x).

    Identical (to rounding) to synthesizing `characteristic_spectrum` at x and
    to `kernel_estimate` with the sharp-cutoff kernel; the Dirichlet-sum form
    here is the cheap one.
    """
    return kernel_estimate(sample, KernelSpec("char", L), x)


def _wavelet_truncation_degree(rho):
    # psihat decays like the half-time heat kernel; reuse its rule
    return heat_truncation_degree(rho / 2.0)


def wavelet_coefficient_estimate(sample, rho, g):
    """Empirical wavelet coefficient K^{-1} sum_k Psi_rho(angle(X_k^{-1} g))."""
    if rho <= 0:
        raise ValueError("wavelet scale must be positive")
    coeffs = wavelet_coefficients(rho, _wavelet_truncation_degree(rho))
    return _zonal_average(sample, coeffs, g)


def wavelet_density_estimate(sample, t, x, via_scales=False):
    """Scale-integrated wavelet estimator; closed form = heat-kernel estimate.

    Integrating the empirical wavelet coefficients over scales >= t and adding
    the unit mass collapses analytically to kernel smoothing with the heat
    kernel at time t, which is what the default path evaluates.  With
    `via_scales=True` the estimate is actually assembled from
    `characteristic_spectrum` scaled by psihat at the nodes of the scale rule
    (`scale_grid`) and inverted -- the verification path, which agrees with
    the closed form to about 1e-13.  That path raises ValueError when t needs
    a band above L_MAX rather than truncate the spectrum.
    """
    if t <= 0:
        raise ValueError("scale must be positive")
    if not via_scales:
        return kernel_estimate(sample, KernelSpec("heat", t), x)
    L = heat_truncation_degree(t)
    if L > L_MAX:
        raise ValueError(
            f"heat time {t:g} needs band {L}, above L_MAX = {L_MAX}; "
            "use the closed form (via_scales=False)"
        )
    phi = characteristic_spectrum(sample, L)
    ts, w = scale_grid(t)
    rec = wavelet_inverse([wavelet_transform(phi, s) for s in ts], ts, w)
    return synthesize_at(rec, x)


def kernel_estimate_on_grid(sample, spec, grid):
    """Estimate evaluated on a full quadrature grid through the spectral form.

    zetahat^ell = Xihat^ell PhiHat^ell followed by one synthesis: identical to
    the zonal form when the kernel band fits the grid (sharp-cutoff and
    binomial kernels), and equal up to the e^{-L(L+1)t} spectral tail for the
    heat family -- below 1e-60 for every configured case.  This is what makes
    whole-grid evaluation O(K L^3 + L^4) instead of O(K L^2 N).
    """
    band = min(grid.L, kernel_band(spec))
    phi = characteristic_spectrum(sample, band)
    return synthesize(grid, phi.scale_per_degree(spec.coefficients(band)))


@dataclass(frozen=True)
class EstimatorSpec:
    """Estimator variant: a kernel family in one of its three estimator roles.

    kind "kernel" wraps any KernelSpec; "characteristic" pins the sharp
    cutoff; "wavelet" pins the heat kernel at time t (the closed form of the
    scale integration).  Text forms: "kernel:heat:0.25", "characteristic:5",
    "wavelet:0.0625".
    """

    kind: str
    kernel: KernelSpec

    _KINDS = ("kernel", "characteristic", "wavelet")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "characteristic" and self.kernel.family != "char":
            raise ValueError("characteristic estimator requires a char kernel")
        if self.kind == "wavelet" and self.kernel.family != "heat":
            raise ValueError("wavelet estimator requires a heat kernel")

    @classmethod
    def general_kernel(cls, kernel):
        return cls("kernel", kernel)

    @classmethod
    def characteristic(cls, L):
        return cls("characteristic", KernelSpec("char", int(L)))

    @classmethod
    def heat_wavelet(cls, t):
        return cls("wavelet", KernelSpec("heat", float(t)))

    def estimate(self, sample, x):
        return kernel_estimate(sample, self.kernel, x)

    def estimate_on_grid(self, sample, grid):
        return kernel_estimate_on_grid(sample, self.kernel, grid)

    def to_text(self):
        if self.kind == "kernel":
            return f"kernel:{self.kernel.to_text()}"
        if self.kind == "characteristic":
            return f"characteristic:{int(self.kernel.param)}"
        return f"wavelet:{self.kernel.param:.17g}"

    @classmethod
    def from_text(cls, text):
        head, _, rest = text.strip().partition(":")
        if head == "kernel":
            return cls.general_kernel(KernelSpec.from_text(rest))
        if head == "characteristic":
            try:
                return cls.characteristic(int(rest))
            except ValueError:
                raise ValueError(f"bad characteristic cutoff {rest!r}") from None
        if head == "wavelet":
            try:
                return cls.heat_wavelet(float(rest))
            except ValueError:
                raise ValueError(f"bad wavelet scale {rest!r}") from None
        raise ValueError(f"unknown estimator kind {head!r}")
