"""Special functions of SO(3) harmonic analysis.

Group characters chi^ell and Wigner-D matrices.  Conventions:

* ``D^ell_{nm}(phi, theta, psi) = exp(-i n phi) d^ell_{nm}(theta) exp(-i m psi)``
  with rows/columns indexed by n, m = -ell..ell in increasing order;
* the real polar part satisfies ``d^ell(theta) = expm(-i theta J_y)`` in the
  same index convention, which fixes all signs (spin-1 block equals the
  Cartesian rotation matrix conjugated into the spherical basis);
* ``chi^ell(x) = trace D^ell(x) = sin((2 ell+1) omega/2) / sin(omega/2)``
  where omega is the rotation angle of x; every character value comes from
  the one recurrence of `characters_all` in cos(omega/2) = |q_w|.

The polar matrices are built by a half-angle degree recurrence (two half-steps
per degree, each coupling neighbouring entries with sqrt factors).  It is
numerically stable far beyond the degrees where factorial formulas overflow
and is vectorized over a batch of angles.  Every Wigner-D sum over rotations
(the empirical characteristic function, a mixture's spectrum, pointwise
synthesis) takes its tables from the one chunked routine `_wigner_chunks`.
"""

from __future__ import annotations

import numpy as np

from .rotations import Rotation, quat_to_euler_zyz

#: hard cap on the harmonic degree; keeps full-spectrum memory in the tens of MB
L_MAX = 128

__all__ = [
    "L_MAX",
    "character",
    "characters_all",
    "wigner_d",
    "wigner_d_stack",
    "wigner_D",
    "addition_evaluate",
]


def _check_degree(ell):
    ell = int(ell)
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    if ell > L_MAX:
        raise ValueError(f"degree {ell} exceeds the configured maximum L_MAX = {L_MAX}")
    return ell


def character(ell, r):
    """Group character chi^ell(r); equals 2*ell + 1 at the identity.

    `r` is a Rotation or a quaternion array (..., 4); the value is row ell of
    `characters_all` at cos(omega/2) = |q_w|.
    """
    q = r.q if isinstance(r, Rotation) else np.asarray(r, dtype=float)
    return characters_all(ell, np.minimum(np.abs(q[..., 0]), 1.0))[ell]


def characters_all(L, cos_half):
    """chi^ell for all ell = 0..L, shape (L+1,) + shape(cos_half).

    L steps of chi^{ell+1} = 2x chi^ell - chi^{ell-1}, x = cos(omega), from
    chi^0 = 1 and chi^1 = 2x + 1, each step written in place into its row of
    the output.  The steps run in Reinsch's difference form with
    u = 2 - 2x = 4 (1 - t)(1 + t), t = cos(omega/2):

        delta_{ell+1} = delta_ell - u chi^ell,  chi^{ell+1} = chi^ell + delta_{ell+1},

    delta_ell = chi^ell - chi^{ell-1}.  Near omega = 0 the rounding of x
    itself would cost about ell^3 ulps (3e-13 relative at L_MAX); u keeps its
    full relative precision there, and the error stays near 2e-14 of 2l+1.
    """
    L = _check_degree(L)
    t = np.asarray(cos_half, dtype=float)
    out = np.empty((L + 1,) + t.shape)
    out[0] = 1.0
    if L == 0:
        return out
    rows = out.reshape(L + 1, -1)  # a view whose rows are arrays, also for 0-d input
    t = t.reshape(-1)
    u = 4.0 * (1.0 - t) * (1.0 + t)
    delta = 2.0 - u
    np.add(delta, 1.0, out=rows[1])
    for ell in range(1, L):
        nxt = rows[ell + 1]
        np.multiply(u, rows[ell], out=nxt)
        delta -= nxt
        np.add(rows[ell], delta, out=nxt)
    return out


def _half_step(d, cos_half, sin_half):
    # one half-angle step of the degree recurrence; grows the table from
    # dimension n to n + 1 (degree j to j + 1/2), batched over angles
    nbatch, n, _ = d.shape
    out = np.zeros((nbatch, n + 1, n + 1))
    dlj = d / n
    sd = np.sqrt(np.arange(n, 0, -1))  # sqrt(j - k)
    su = np.sqrt(np.arange(1, n + 1))  # sqrt(k + 1)
    c = cos_half[:, None, None]
    s = sin_half[:, None, None]
    out[:, :n, :n] += (sd[:, None] * sd[None, :]) * dlj * c
    out[:, :n, 1:] += (sd[:, None] * su[None, :]) * dlj * s
    out[:, 1:, :n] -= (su[:, None] * sd[None, :]) * dlj * s
    out[:, 1:, 1:] += (su[:, None] * su[None, :]) * dlj * c
    return out


def wigner_d_stack(L, thetas):
    """Polar Wigner matrices d^ell(theta) for all ell = 0..L at once.

    Parameters
    ----------
    L : int
        Largest degree, <= L_MAX.
    thetas : array_like, shape (N,)
        Polar angles.

    Returns
    -------
    list of ndarray
        Entry ell has shape (N, 2*ell+1, 2*ell+1), indexed d[k, n+ell, m+ell].
        Work memory scales like N * (2L+1)^2; chunk large batches of angles.
    """
    L = _check_degree(L)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    c = np.cos(thetas / 2.0)
    s = np.sin(thetas / 2.0)
    tables = [np.ones((thetas.shape[0], 1, 1))]
    d = tables[0]
    for half in range(1, 2 * L + 1):
        d = _half_step(d, c, s)
        if half % 2 == 0:
            tables.append(d)
    return tables


def wigner_d(ell, theta):
    """Single polar matrix d^ell(theta), shape (2*ell+1, 2*ell+1)."""
    ell = _check_degree(ell)
    return wigner_d_stack(ell, [float(theta)])[ell][0]


def wigner_D(ell, euler):
    """Full Wigner-D matrix at ZYZ Euler angles; unitary, trace = chi^ell."""
    ell = _check_degree(ell)
    phi, theta, psi = euler
    d = wigner_d(ell, theta)
    n = np.arange(-ell, ell + 1)
    return np.exp(-1j * n[:, None] * phi) * d * np.exp(-1j * n[None, :] * psi)


def addition_evaluate(ell, x, y):
    """The double sum sum_{n,m} conj(D^ell_{nm}(x)) D^ell_{nm}(y).

    Test oracle for the addition property: the value equals
    chi^ell(x^{-1} y) (real up to rounding).
    """
    dx = wigner_D(ell, x.to_euler_zyz())
    dy = wigner_D(ell, y.to_euler_zyz())
    return complex(np.sum(np.conj(dx) * dy))


def _wigner_chunks(L, q):
    """Wigner-D factors of the rotations q, shape (K, 4), chunk by chunk.

    Yields (rows, e_n, d, e_m) for consecutive slices `rows` of q, with

        D^ell_nm(q_k) = e_n[k, n] d[ell][k, n, m] e_m[k, m],

    e_n = exp(-i n phi) and e_m = exp(-i m psi) over n = -L..L (degree ell
    takes columns L-ell..L+ell) and d = wigner_d_stack(L, theta).  A chunk
    holds about 2e7 table entries (160 MB) however large K grows.
    """
    L = _check_degree(L)
    per_rotation = sum((2 * ell + 1) ** 2 for ell in range(L + 1))
    chunk = max(32, min(16384, int(2e7 / per_rotation)))
    n_all = np.arange(-L, L + 1)
    for start in range(0, q.shape[0], chunk):
        rows = slice(start, start + chunk)
        phi, theta, psi = quat_to_euler_zyz(q[rows])
        e_n = np.exp(-1j * phi[:, None] * n_all[None, :])
        e_m = np.exp(-1j * psi[:, None] * n_all[None, :])
        yield rows, e_n, wigner_d_stack(L, theta), e_m


def _conj_wigner_sum(L, q, weights):
    """Blocks sum_k weights[k, ell] conj(D^ell(q_k)) for ell = 0..L.

    `weights` broadcasts to (K, L+1).  The empirical characteristic function
    (weights 1/K over a sample) and a zonal mixture's spectrum (weights
    w_i a_i^ell over its centres) are both this sum.
    """
    weights = np.broadcast_to(weights, (q.shape[0], L + 1))
    blocks = [np.zeros((2 * ell + 1, 2 * ell + 1), dtype=complex) for ell in range(L + 1)]
    for rows, e_n, d, e_m in _wigner_chunks(L, q):
        e_n, e_m, w = np.conj(e_n), np.conj(e_m), weights[rows]
        for ell in range(L + 1):
            sl = slice(L - ell, L + ell + 1)
            blocks[ell] += np.einsum(
                "kn,knm,km->nm", w[:, ell, None] * e_n[:, sl], d[ell], e_m[:, sl], optimize=True
            )
    return blocks
