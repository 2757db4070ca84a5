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

Forward transforms run the phi/psi sums through the FFT and contract the
theta axis against the grid's cached Wigner-d tables degree by degree;
`synthesize_at` evaluates a spectrum at scattered rotations through the
Delta-factored tensor of `harmonics`.
"""

from __future__ import annotations

import numpy as np

from .harmonics import L_MAX, _synthesize_points, wigner_d_stack
from .kernels import alpha, wavelet_coefficients
from .rotations import quat_from_euler_zyz
from .spectra import FullSpectrum

__all__ = [
    "QuadratureGrid",
    "forward",
    "synthesize",
    "synthesize_at",
    "scale_grid",
    "scale_weights",
    "wavelet_transform",
    "wavelet_inverse",
]


class QuadratureGrid:
    """Euler-angle product grid storing nodes, weights and Wigner-d tables."""

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

        Built on first use by `wigner_d_stack` (one GEMM per degree and parity
        block against the cached d^ell(pi/2)) and kept with the grid.
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
    # (1/N) sum_k f(phi_k) e^{+i n phi_k} for both angle axes = ifft
    g = np.fft.ifft(np.fft.ifft(values, axis=1), axis=2)
    blocks = []
    for ell in range(grid.L + 1):
        idx = np.arange(-ell, ell + 1) % grid.n_phi
        gl = g[:, idx[:, None], idx[None, :]]
        blocks.append(np.einsum("j,jnm,jnm->nm", grid.theta_weights, grid.d_stack[ell], gl))
    return FullSpectrum(blocks)


def _synthesize_complex(grid, spectrum):
    if spectrum.lmax > grid.L:
        raise ValueError("spectrum degree exceeds the grid bandlimit")
    h = np.zeros(grid.shape, dtype=complex)
    for ell in range(spectrum.lmax + 1):
        idx = np.arange(-ell, ell + 1) % grid.n_phi
        h[:, idx[:, None], idx[None, :]] += (2 * ell + 1) * (
            grid.d_stack[ell] * spectrum[ell][None, :, :]
        )
    return np.fft.fft(np.fft.fft(h, axis=1), axis=2)


def synthesize(grid, spectrum):
    """Values of sum_ell (2 ell+1) sum_nm fhat_nm D^ell_nm on the grid.

    The spectrum must describe a real function (Fourier coefficients of any
    empirical measure or real density do); the tiny imaginary residue is
    dropped.
    """
    return _synthesize_complex(grid, spectrum).real


def synthesize_at(spectrum, q):
    """Values of sum_ell (2 ell+1) sum_nm fhat_nm D^ell_nm at quaternions (..., 4).

    The spectrum is folded once into the Delta-factored tensor G of
    `harmonics._synthesize_points`; each chunk of points is then one real GEMM
    of its phases exp(i (n phi + m psi)) against G, summed against
    cos/sin(j theta).  As in `synthesize`, the spectrum should describe a
    real function and the real part is returned.
    """
    q = np.asarray(q, dtype=float)
    return _synthesize_points(spectrum, q.reshape(-1, 4)).reshape(q.shape[:-1])


def scale_grid(t_min, per_octave=32, tol=1e-12):
    """Geometric scale nodes t_min * 2^{k/per_octave} covering (t_min, inf).

    The grid stops once the slowest reconstruction integrand (degree 1,
    a = 2) has decayed to `tol` of its value at t_min; everything beyond is
    below double-precision relevance for the scale integrals.
    """
    if t_min <= 0:
        raise ValueError("smallest scale must be positive")
    a = 2.0
    floor = tol * np.exp(-a * t_min)
    ratio = 2.0 ** (1.0 / per_octave)
    ts = [t_min]
    while a * ts[-1] * np.exp(-a * ts[-1]) >= floor or ts[-1] < 1.0:
        ts.append(ts[-1] * ratio)
    return np.array(ts)


def scale_weights(scales):
    """Trapezoid weights for integral_0^inf g(t) dt on a log-spaced grid.

    Computed in u = log t, so the returned weights include the Jacobian t.
    """
    scales = np.asarray(scales, dtype=float)
    if scales.ndim != 1 or scales.shape[0] < 2:
        raise ValueError("need at least two scale nodes")
    u = np.log(scales)
    w = np.empty_like(u)
    w[0] = (u[1] - u[0]) / 2.0
    w[-1] = (u[-1] - u[-2]) / 2.0
    w[1:-1] = (u[2:] - u[:-2]) / 2.0
    return w * scales


def wavelet_transform(spectrum, rho):
    """Wavelet coefficient spectrum at scale rho: degreewise psihat_ell * fhat."""
    return spectrum.scale_per_degree(wavelet_coefficients(rho, spectrum.lmax))


def wavelet_inverse(spectra, scales, dc=1.0):
    """Integrate wavelet coefficient spectra over scales back to a density.

    Given spectra[k] = wavelet transform at scales[k] (a grid from
    `scale_grid`), returns the spectrum of

        dc + integral alpha(t) (W f)(t, .) * Psi_t dt,

    which reproduces heat smoothing of f at time scales[0] (the admissibility
    identity), with the constant mode restored from `dc`.
    """
    scales = np.asarray(scales, dtype=float)
    if len(spectra) != scales.shape[0]:
        raise ValueError("one spectrum per scale node is required")
    L = spectra[0].lmax
    if any(s.lmax != L for s in spectra):
        raise ValueError("all spectra must share one bandlimit")
    w = scale_weights(scales)
    blocks = [np.zeros((2 * ell + 1, 2 * ell + 1), dtype=complex) for ell in range(L + 1)]
    for k, spec in enumerate(spectra):
        factors = w[k] * alpha(scales[k]) * wavelet_coefficients(scales[k], L)
        for ell in range(1, L + 1):
            blocks[ell] += factors[ell] * spec[ell]
    blocks[0][0, 0] = dc
    return FullSpectrum(blocks)
