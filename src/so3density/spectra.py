"""Fourier data on SO(3): zonal coefficient arrays, full matrix spectra, and
zonal mixtures.

Normalization.  A function expands as

    f(x) = sum_ell (2*ell+1) sum_{n,m} fhat_{nm} D^ell_{nm}(x),
    fhat_{nm} = integral f(x) conj(D^ell_{nm}(x)) dx,

with the Haar integral normalized to total mass 1.  Parseval then reads
``||f||^2 = sum_ell (2*ell+1) sum_{nm} |fhat_{nm}|^2``.  A zonal (conjugation
invariant) function has diagonal spectrum fhat_{nm} = a_ell delta_{nm} and is
represented here by the plain 1-D array ``a`` of those scalars, so

    f(omega) = sum_ell (2*ell+1) a_ell chi^ell(omega),
    ||f||^2  = sum_ell (2*ell+1)^2 a_ell^2,

and the squared degree-ell Fourier magnitude of a general f,

    prof[ell] = (2*ell+1)^{-1} sum_{nm} |fhat_{nm}|^2,

reduces to a_ell^2 in the zonal case.  Convolution multiplies spectra
entrywise: (f * h)^hat = fhat hhat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harmonics import L_MAX, characters_all, wigner_d_stack
from .rotations import Rotation, quat_cos_half_between, quat_to_euler_zyz

__all__ = [
    "zonal_synthesize",
    "zonal_energy",
    "zonal_convolve",
    "FullSpectrum",
    "MixtureComponent",
    "ZonalMixture",
]


#: elements per Clenshaw block: its four float64 work arrays (512 kB) stay in
#: cache for all L steps, where whole-array steps would stream through memory
_BLOCK = 1 << 14

#: byte alignment of the blocked loops' arrays.  malloc aligns to 16 bytes, so
#: a fresh array starts 0, 16, 32 or 48 bytes into a cache line depending on
#: the heap's history; the vector loops then split loads across lines and run
#: the Clenshaw steps 30-60% slower, differently from one process to the next
_ALIGN = 64


def _aligned_empty(shape):
    """Uninitialized C-contiguous float64 array starting on an `_ALIGN` boundary."""
    n = int(np.prod(shape))
    raw = np.empty(n + _ALIGN // 8)
    skip = (-raw.ctypes.data % _ALIGN) // 8
    return raw[skip : skip + n].reshape(shape)


def zonal_synthesize(coeffs, cos_half):
    """Evaluate sum_ell (2*ell+1) coeffs[ell] chi^ell at cos(omega/2) values.

    chi^ell = 1 + 2 sum_{k<=ell} cos(k omega), so the sum is the cosine series
    sum_k c_k cos(k omega) whose coefficients are tail sums of
    (2*ell+1) coeffs[ell]: c_0 = tail_0 and c_k = 2 tail_k.  One Clenshaw
    recurrence in x = cos(omega) = 2 cos^2(omega/2) - 1 evaluates it in L
    steps, run in place over flat blocks of `_BLOCK` values with no
    allocation per step; no (L+1, N) table is formed.  This is the inner loop
    of every zonal kernel evaluation.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.asarray(cos_half, dtype=float)
    c = np.cumsum(((2.0 * np.arange(coeffs.shape[0]) + 1.0) * coeffs)[::-1])[::-1]
    c[1:] *= 2.0
    L = c.shape[0] - 1
    flat = t.reshape(-1)
    out = _aligned_empty(flat.shape[0])
    # rows padded to whole cache lines, so each row starts on one
    width = min(_BLOCK, flat.shape[0])
    work = _aligned_empty((4, -(-width // 8) * 8))
    for start in range(0, flat.shape[0], _BLOCK):
        piece = flat[start : start + _BLOCK]
        seg = out[start : start + _BLOCK]
        two_x, y1, y2, w = work[:, : piece.shape[0]]
        np.multiply(piece, piece, out=two_x)
        two_x *= 4.0
        two_x -= 2.0
        # y_k = c_k + 2x y_{k+1} - y_{k+2} down from y_{L+1} = y_{L+2} = 0
        y1.fill(c[L] if L else 0.0)
        y2.fill(0.0)
        for k in range(L - 1, 0, -1):
            np.multiply(two_x, y1, out=w)
            w -= y2
            w += c[k]
            y1, y2, w = w, y1, y2
        # f = c_0 + x y_1 - y_2
        np.multiply(two_x, y1, out=seg)
        seg *= 0.5
        seg -= y2
        seg += c[0]
    out = out.reshape(t.shape)
    return out if out.ndim else out[()]


def zonal_energy(coeffs):
    """Squared L2 norm sum_ell (2*ell+1)^2 coeffs[ell]^2."""
    coeffs = np.asarray(coeffs, dtype=float)
    w = 2.0 * np.arange(coeffs.shape[0]) + 1.0
    return float(np.sum((w * coeffs) ** 2))


def zonal_convolve(a, b):
    """Spectrum of the convolution of two zonal functions (entrywise product).

    The result is truncated to the shorter of the two inputs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = min(a.shape[0], b.shape[0])
    return a[:n] * b[:n]


def _pad(coeffs, L):
    out = np.zeros(L + 1)
    n = min(L + 1, coeffs.shape[0])
    out[:n] = coeffs[:n]
    return out


class FullSpectrum:
    """Matrix Fourier coefficients, one (2*ell+1, 2*ell+1) complex block per
    degree ell = 0..lmax."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = [np.asarray(b, dtype=complex) for b in blocks]
        for ell, b in enumerate(blocks):
            if b.shape != (2 * ell + 1, 2 * ell + 1):
                raise ValueError(
                    f"block {ell} must have shape {(2 * ell + 1, 2 * ell + 1)}, got {b.shape}"
                )
        if len(blocks) - 1 > L_MAX:
            raise ValueError(f"spectrum degree exceeds L_MAX = {L_MAX}")
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("FullSpectrum is immutable")

    @property
    def lmax(self):
        return len(self.blocks) - 1

    @property
    def n_coefficients(self):
        return sum(b.size for b in self.blocks)

    def __getitem__(self, ell):
        return self.blocks[ell]

    def scale_per_degree(self, factors):
        """New spectrum with block ell multiplied by factors[ell] (kernel
        smoothing acts this way on zonal kernels)."""
        factors = np.asarray(factors, dtype=float)
        if factors.shape[0] < len(self.blocks):
            raise ValueError("need one factor per degree")
        return FullSpectrum([f * b for f, b in zip(factors, self.blocks)])

    def energy_per_degree(self):
        """prof[ell] = (2*ell+1)^{-1} sum_{nm} |fhat_{nm}|^2."""
        return np.array(
            [np.sum(np.abs(b) ** 2) / (2 * ell + 1) for ell, b in enumerate(self.blocks)]
        )


@dataclass(frozen=True)
class MixtureComponent:
    """One translated zonal bump: weight * psi(center^{-1} x) with psi given by
    its zonal coefficients (coefficients[0] == 1 so the bump has unit mass)."""

    weight: float
    coefficients: np.ndarray
    center: Rotation

    def __post_init__(self):
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))
        if self.weight < 0:
            raise ValueError("component weight must be nonnegative")
        if abs(self.coefficients[0] - 1.0) > 1e-12:
            raise ValueError("zonal component must have unit mass (coefficients[0] == 1)")


@dataclass(frozen=True)
class ZonalMixture:
    """uniform_weight * 1 + sum_i components[i]; weights must sum to one."""

    uniform_weight: float
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        total = self.uniform_weight + sum(c.weight for c in self.components)
        if self.uniform_weight < 0:
            raise ValueError("uniform weight must be nonnegative")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {total}")

    @property
    def lmax(self):
        """Degree beyond which every component spectrum vanishes."""
        return max((c.coefficients.shape[0] - 1 for c in self.components), default=0)

    def evaluate(self, q):
        """Density at quaternions of shape (..., 4)."""
        q = np.asarray(q, dtype=float)
        out = self.uniform_weight * np.ones(q.shape[:-1])
        for c in self.components:
            t = quat_cos_half_between(c.center.q, q)
            out = out + c.weight * zonal_synthesize(c.coefficients, t)
        return out

    def energy_per_degree(self, L=None):
        """prof[ell] of the mixture, closed form.

        Cross terms between components i and j contribute
        w_i w_j a_i a_j chi^ell(c_i^{-1} c_j) / (2*ell+1); the uniform part
        only enters at ell = 0 where prof[0] = 1 by mass normalization.
        """
        if L is None:
            L = self.lmax
        prof = np.zeros(L + 1)
        comps = self.components
        padded = [_pad(c.coefficients, L) for c in comps]
        dee = 2.0 * np.arange(L + 1) + 1.0
        for i, ci in enumerate(comps):
            prof += ci.weight**2 * padded[i] ** 2
            for j in range(i + 1, len(comps)):
                cj = comps[j]
                rel = ci.center.inverse().compose(cj.center)
                chi = characters_all(L, np.cos(rel.angle() / 2.0))
                prof += 2.0 * ci.weight * cj.weight * padded[i] * padded[j] * chi / dee
        prof[0] = (self.uniform_weight + sum(c.weight * c.coefficients[0] for c in comps)) ** 2
        return prof

    def norm_squared(self, L=None):
        """||f||^2 = sum (2*ell+1)^2 prof[ell]; exact once L >= lmax."""
        prof = self.energy_per_degree(L)
        w = 2.0 * np.arange(prof.shape[0]) + 1.0
        return float(np.sum(w**2 * prof))

    def full_spectrum(self, L=None):
        """Matrix coefficients: fhat^ell = sum_i w_i a_i^ell conj(D^ell(c_i))
        plus the uniform mass at ell = 0.

        conj(D^ell_nm(c)) = e^{i n phi} d^ell_nm(theta) e^{i m psi} at the
        centre's Euler angles.  The weights vary by degree, so the few
        centres are summed degree by degree over their polar tables
        (`wigner_d_stack`).
        """
        if L is None:
            L = self.lmax
        centers = np.array([c.center.q for c in self.components]).reshape(-1, 4)
        weights = np.array([c.weight * _pad(c.coefficients, L) for c in self.components])
        weights = weights.reshape(-1, L + 1)  # (0, L+1) for the uniform mixture
        phi, theta, psi = quat_to_euler_zyz(centers)
        blocks = []
        for ell, d in enumerate(wigner_d_stack(L, theta)):
            n = np.arange(-ell, ell + 1)
            e_n = np.exp(1j * np.multiply.outer(phi, n))
            e_m = np.exp(1j * np.multiply.outer(psi, n))
            e = e_n[:, :, None] * e_m[:, None, :]
            blocks.append(np.einsum("k,knm,knm->nm", weights[:, ell], e, d))
        blocks[0][0, 0] += self.uniform_weight
        return FullSpectrum(blocks)
