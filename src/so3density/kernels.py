"""Zonal kernel families and the diffusive wavelet family derived from heat flow.

All kernels are represented by their zonal Fourier coefficient arrays (see
`spectra`); every family is normalized to unit mass, coefficients[0] == 1,
except the wavelets, whose normalization is fixed by the reconstruction
identity instead.

Families
--------
heat(rho):   a_ell = exp(-ell (ell+1) rho), the heat semigroup at time rho.
vp(kappa):   a_ell = C(2 kappa+1, kappa-ell) / C(2 kappa+1, kappa), the
             polynomial kernel proportional to cos^{2 kappa}(omega/2); its
             spectrum is supported on ell <= kappa.
char(L):     a_ell = 1 for ell <= L, the sharp Fourier cutoff (Dirichlet-type
             kernel; the estimator built from it inverts the empirical
             characteristic function).

Wavelets.  The heat-flow wavelet family has coefficients

    psihat_ell(rho) = alpha(rho)^{-1/2} sqrt(ell (ell+1)) exp(-ell (ell+1) rho / 2),

with alpha(rho) = sum_ell (2 ell+1)^2 ell (ell+1) exp(-ell (ell+1) rho).  The
family is admissible away from the constant mode:

    integral_rho^infty alpha(t) psihat_ell(t)^2 dt = exp(-ell (ell+1) rho)

for ell >= 1, i.e. wavelet analysis/synthesis over scales (rho, infinity)
reproduces heat smoothing at scale rho; degree 0 carries no wavelet content
and is restored separately (the density mass).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

from .spectra import zonal_synthesize

__all__ = [
    "heat_coefficients",
    "vp_coefficients",
    "characteristic_coefficients",
    "alpha",
    "wavelet_coefficients",
    "evaluate",
    "scale_grid",
    "admissibility_residual",
    "KernelSpec",
]


def heat_coefficients(rho, L):
    """Heat kernel spectrum exp(-ell (ell+1) rho) for ell = 0..L."""
    if rho < 0:
        raise ValueError("heat time must be nonnegative")
    ell = np.arange(L + 1, dtype=float)
    return np.exp(-ell * (ell + 1) * rho)


def _log_binomial(n, k):
    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)


def vp_coefficients(kappa, L=None):
    """Binomial-ratio spectrum C(2k+1, k-ell) / C(2k+1, k), zero past ell = kappa.

    Computed through log-gamma so large kappa neither overflows nor loses the
    tiny tail coefficients.
    """
    kappa = int(kappa)
    if kappa < 0:
        raise ValueError("kernel order must be nonnegative")
    if L is None:
        L = kappa
    ell = np.arange(L + 1)
    out = np.zeros(L + 1)
    head = ell[ell <= kappa]
    log_den = _log_binomial(2 * kappa + 1, kappa)
    out[: head.shape[0]] = np.exp(
        [_log_binomial(2 * kappa + 1, kappa - l) - log_den for l in head]
    )
    return out


def characteristic_coefficients(cutoff, L=None):
    """Sharp cutoff: 1 up to `cutoff`, 0 beyond."""
    cutoff = int(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if L is None:
        L = cutoff
    out = np.zeros(L + 1)
    out[: min(cutoff, L) + 1] = 1.0
    return out


def alpha(rho):
    """Wavelet normalization sum_{ell>=1} (2 ell+1)^2 ell (ell+1) e^{-ell (ell+1) rho}.

    The series is summed until the exponential underflows; valid for any
    rho > 0 (the sum diverges at rho = 0).
    """
    if rho <= 0:
        raise ValueError("wavelet scale must be positive")
    lmax = int(np.ceil(np.sqrt(800.0 / rho))) + 8
    ell = np.arange(1, lmax + 1, dtype=float)
    a = ell * (ell + 1)
    return float(np.sum((2 * ell + 1) ** 2 * a * np.exp(-a * rho)))


def wavelet_coefficients(rho, L):
    """Spectrum of the heat-flow wavelet at scale rho, ell = 0..L."""
    nrm = alpha(rho)
    if nrm == 0.0:
        raise ValueError(f"wavelet normalization underflows at scale {rho}")
    ell = np.arange(L + 1, dtype=float)
    a = ell * (ell + 1)
    return np.sqrt(a / nrm) * np.exp(-a * rho / 2.0)


def evaluate(coeffs, omega):
    """Value of the zonal function at rotation angles omega."""
    return zonal_synthesize(coeffs, np.cos(np.asarray(omega, dtype=float) / 2.0))


_PANEL_NODES = 12
_TAIL = 1e-12


def scale_grid(t_min):
    """Nodes and weights for integral_{t_min}^inf g(t) dt: Gauss-Legendre in u = log t.

    Octave panels [t_min 2^k, t_min 2^{k+1}] each carry 12 Gauss-Legendre
    nodes in u; the weights include the Jacobian t.  Panels are added until
    the slowest reconstruction integrand (degree 1, a = 2) has decayed to
    1e-12 of its value at t_min and the scales reach 1; everything beyond is
    below double-precision relevance for the scale integrals.  Returns
    (scales, weights).
    """
    if t_min <= 0:
        raise ValueError("smallest scale must be positive")
    a = 2.0
    floor = _TAIL * np.exp(-a * t_min)
    panels = 1
    while (end := t_min * 2.0**panels) < 1.0 or a * end * np.exp(-a * end) >= floor:
        panels += 1
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    half = np.log(2.0) / 2.0
    u = np.log(t_min) + half * (2.0 * np.arange(panels)[:, None] + 1.0 + x)
    scales = np.exp(u).ravel()
    return scales, np.tile(half * w, panels) * scales


def admissibility_residual(ell, rho):
    """| integral_rho^inf alpha(t) psihat_ell(t)^2 dt  -  e^{-ell (ell+1) rho} |.

    Evaluated on the scale rule of `scale_grid(rho)` through the public
    alpha/wavelet functions (not the analytically cancelled form), so it
    genuinely checks the reconstruction identity with the rule the wavelet
    inverse uses.  Degree 0 returns 1: the constant mode is outside the
    wavelet span.
    """
    if ell == 0:
        return 1.0
    ts, w = scale_grid(rho)
    val = sum(wk * alpha(t) * wavelet_coefficients(t, ell)[ell] ** 2 for t, wk in zip(ts, w))
    return abs(val - np.exp(-ell * (ell + 1) * rho))


_FAMILIES = ("heat", "vp", "char")


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its bandwidth parameter.

    Text form is ``family:param`` ("heat:0.0625", "vp:30", "char:5"); the heat
    parameter is the diffusion time, the other two are integer orders.
    """

    family: str
    param: float

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}, expected one of {_FAMILIES}")
        if self.family == "heat":
            if self.param <= 0:
                raise ValueError("heat kernel needs a positive diffusion time")
        else:
            if self.param != int(self.param) or self.param < 0:
                raise ValueError(f"{self.family} kernel needs a nonnegative integer order")

    def coefficients(self, L):
        if self.family == "heat":
            return heat_coefficients(self.param, L)
        if self.family == "vp":
            return vp_coefficients(int(self.param), L)
        return characteristic_coefficients(int(self.param), L)

    def to_text(self):
        if self.family == "heat":
            return f"heat:{self.param:.17g}"
        return f"{self.family}:{int(self.param)}"

    @classmethod
    def from_text(cls, text):
        parts = text.strip().split(":")
        if len(parts) != 2:
            raise ValueError(f"kernel spec must look like 'family:param', got {text!r}")
        family, raw = parts[0].strip(), parts[1].strip()
        try:
            param = float(raw)
        except ValueError:
            raise ValueError(f"cannot parse kernel parameter {raw!r}") from None
        return cls(family, param)
