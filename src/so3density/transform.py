"""Fourier analysis and synthesis on SO(3), plus the scale-integrated wavelet
transform built on top of them.

The quadrature grid is a product rule in ZYZ Euler angles: 2L+2 uniform nodes
in phi and psi and L+1 Gauss-Legendre nodes in cos(theta), with weights
normalized to total mass 1.  The uniform sums alias only frequencies
|n| >= 2L+2, and a polar product d^{l1}_{nm} d^{l2}_{-n,-m} is a polynomial of
degree <= 2L in cos(theta), inside the 2L+1 exactness range of the
Gauss-Legendre rule; the rule therefore integrates products of two bandlimit-L
functions exactly, which is what makes grid norms of bandlimited errors equal
their Parseval values.

`forward` and `synthesize` run the phi/psi sums through the FFT and the theta
sum as one GEMM of cos/sin(j theta) at the Gauss-Legendre nodes against the
Delta-factored tensor of `harmonics` (`_unfold`, `_fold`); `synthesize_at`
evaluates a spectrum at scattered rotations through the same tensor.

`wavelet_inverse` integrates over scales with the rule of `scale_grid`
(kept in `kernels`, beside the admissibility identity it also checks):
12 Gauss-Legendre nodes per octave of u = log t, which reproduces each heat
factor e^{-l(l+1) t_min} to about 1e-14.
"""

from __future__ import annotations

import numpy as np

from .harmonics import L_MAX, _fold, _synthesize_points, _trig, _unfold, wigner_d_stack
from .kernels import alpha, scale_grid, wavelet_coefficients
from .rotations import quat_from_euler_zyz, quat_points
from .spectra import FullSpectrum

__all__ = [
    "QuadratureGrid",
    "forward",
    "synthesize",
    "synthesize_at",
    "scale_grid",
    "wavelet_transform",
    "wavelet_inverse",
]


class QuadratureGrid:
    """Euler-angle product grid: nodes, weights and, on demand, Wigner-d tables."""

    def __init__(self, L):
        L = int(L)
        if not 0 <= L <= L_MAX:
            raise ValueError(f"grid bandlimit must lie in [0, {L_MAX}]")
        self.L = L
        self.n_phi = 2 * L + 2
        x, w = np.polynomial.legendre.leggauss(L + 1)
        self.cos_thetas = x
        self.thetas = np.arccos(x)
        self.theta_weights = w / 2.0
        self.phis = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        self.psis = self.phis.copy()
        self._d_stack = None
        self._points = None

    @property
    def shape(self):
        return (self.L + 1, self.n_phi, self.n_phi)

    @property
    def d_stack(self):
        """Polar tables d^ell(theta_k) at the Gauss-Legendre nodes, ell = 0..L.

        Built on first use by `wigner_d_stack` and kept with the grid.  No
        function of the package reads it; the transforms never build it.
        """
        if self._d_stack is None:
            self._d_stack = wigner_d_stack(self.L, self.thetas)
        return self._d_stack

    @property
    def points(self):
        """Node quaternions, shape (L+1, 2L+2, 2L+2, 4)."""
        if self._points is None:
            th = self.thetas[:, None, None]
            ph = self.phis[None, :, None]
            ps = self.psis[None, None, :]
            self._points = quat_from_euler_zyz(
                np.broadcast_to(ph, self.shape),
                np.broadcast_to(th, self.shape),
                np.broadcast_to(ps, self.shape),
            )
        return self._points

    def weights(self):
        """Quadrature weights, shape of the grid, summing to 1."""
        w = np.broadcast_to(
            self.theta_weights[:, None, None] / self.n_phi**2, self.shape
        )
        return w

    def integrate(self, values):
        """Haar integral of a function given by its grid values."""
        values = np.asarray(values)
        if values.shape != self.shape:
            raise ValueError(f"expected grid values of shape {self.shape}, got {values.shape}")
        return float(np.sum(values * self.weights()))


def forward(grid, values):
    """Matrix Fourier coefficients of grid values, degrees 0..grid.L.

    Exact for functions bandlimited to grid.L.
    """
    values = np.asarray(values)
    if values.shape != grid.shape:
        raise ValueError(f"expected grid values of shape {grid.shape}, got {values.shape}")
    L = grid.L
    idx = np.arange(-L, L + 1) % grid.n_phi
    # (1/N) sum_k f(phi_k) e^{+i n phi_k} for both angle axes = ifft, at |n|, |m| <= L
    g = np.fft.ifft(np.fft.ifft(values, axis=1), axis=2).take(idx, axis=1).take(idx, axis=2)
    # X[p, j, n, m] = sum_k w_k trig_p(j theta_k) g[k, n, m], g read as pairs of reals
    wtrig = (grid.theta_weights[:, None, None] * _trig(L, grid.thetas)).reshape(L + 1, -1)
    x = wtrig.T @ g.view(float).reshape(L + 1, -1)
    return FullSpectrum(_unfold(x.view(complex).reshape(2, L + 1, 2 * L + 1, 2 * L + 1)))


def _synthesize_complex(grid, spectrum):
    L = spectrum.lmax
    if L > grid.L:
        raise ValueError("spectrum degree exceeds the grid bandlimit")
    g = _fold(spectrum).view(float).reshape(2 * (L + 1), -1)
    # h[k, n, m] = sum_ell (2 ell+1) d^ell_nm(theta_k) fhat^ell_nm, G read as pairs of reals
    h = (_trig(L, grid.thetas).reshape(grid.L + 1, -1) @ g).view(complex)
    idx = np.arange(-L, L + 1) % grid.n_phi
    full = np.zeros(grid.shape, dtype=complex)
    full[:, idx[:, None], idx[None, :]] = h.reshape(grid.L + 1, 2 * L + 1, 2 * L + 1)
    return np.fft.fft(np.fft.fft(full, axis=1), axis=2)


def synthesize(grid, spectrum):
    """Values of sum_ell (2 ell+1) sum_nm fhat_nm D^ell_nm on the grid.

    The spectrum must describe a real function (Fourier coefficients of any
    empirical measure or real density do); the tiny imaginary residue is
    dropped.
    """
    return _synthesize_complex(grid, spectrum).real


def synthesize_at(spectrum, x):
    """Values of sum_ell (2 ell+1) sum_nm fhat_nm D^ell_nm at the points x.

    x is read by `rotations.quat_points`: a Rotation or one quaternion gives
    a float, an (..., 4) array the values in its leading shape.  One real
    GEMM per chunk of points, of their phases exp(i (n phi + m psi)) against
    the folded spectrum (`harmonics._fold`), summed against cos/sin(j theta).
    As in `synthesize`, the real part is returned.
    """
    q, shape = quat_points(x)
    values = _synthesize_points(spectrum, q)
    return float(values[0]) if shape is None else values.reshape(shape)


def wavelet_transform(spectrum, rho):
    """Wavelet coefficient spectrum at scale rho: degreewise psihat_ell * fhat."""
    return spectrum.scale_per_degree(wavelet_coefficients(rho, spectrum.lmax))


def wavelet_inverse(spectra, scales, weights):
    """Integrate wavelet coefficient spectra over scales back to a density.

    Given spectra[k] = wavelet transform at scales[k], with the nodes and
    weights of a scale rule (`scale_grid`), returns the spectrum of

        1 + integral alpha(t) (W f)(t, .) * Psi_t dt,

    which reproduces heat smoothing of f at the rule's lower limit (the
    admissibility identity); the constant mode is the unit mass of a density.
    """
    scales = np.asarray(scales, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if len(spectra) != scales.shape[0] or weights.shape != scales.shape:
        raise ValueError("one spectrum and one weight per scale node are required")
    L = spectra[0].lmax
    if any(s.lmax != L for s in spectra):
        raise ValueError("all spectra must share one bandlimit")
    blocks = [np.zeros((2 * ell + 1, 2 * ell + 1), dtype=complex) for ell in range(L + 1)]
    for k, spec in enumerate(spectra):
        factors = weights[k] * alpha(scales[k]) * wavelet_coefficients(scales[k], L)
        for ell in range(1, L + 1):
            blocks[ell] += factors[ell] * spec[ell]
    blocks[0][0, 0] = 1.0
    return FullSpectrum(blocks)
