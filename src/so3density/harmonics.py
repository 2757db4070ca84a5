"""Special functions of SO(3) harmonic analysis.

Chebyshev polynomials of the second kind, group characters chi^ell, and
Wigner-D matrices.  Conventions:

* ``D^ell_{nm}(phi, theta, psi) = exp(-i n phi) d^ell_{nm}(theta) exp(-i m psi)``
  with rows/columns indexed by n, m = -ell..ell in increasing order;
* the real polar part satisfies ``d^ell(theta) = expm(-i theta J_y)`` in the
  same index convention, which fixes all signs (spin-1 block equals the
  Cartesian rotation matrix conjugated into the spherical basis);
* ``chi^ell(x) = trace D^ell(x) = U_{2 ell}(cos(omega/2))`` where omega is the
  rotation angle of x.

The polar matrices are built by a half-angle degree recurrence (two half-steps
per degree, each coupling neighbouring entries with sqrt factors).  It is
numerically stable far beyond the degrees where factorial formulas overflow
and is vectorized over a batch of angles, which is what the transforms and the
empirical characteristic function need.
"""

from __future__ import annotations

import numpy as np

from .rotations import Rotation, quat_angle

#: hard cap on the harmonic degree; keeps full-spectrum memory in the tens of MB
L_MAX = 128

__all__ = [
    "L_MAX",
    "chebyshev_u",
    "character",
    "character_from_cos_half",
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


def chebyshev_u(n, t):
    """U_n(t) by the forward three-term recurrence U_{k+1} = 2 t U_k - U_{k-1}."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    t = np.asarray(t, dtype=float)
    u_prev = np.ones_like(t)
    if n == 0:
        return u_prev if u_prev.ndim else float(u_prev)
    u = 2.0 * t
    for _ in range(n - 1):
        u, u_prev = 2.0 * t * u - u_prev, u
    return u if u.ndim else float(u)


def character_from_cos_half(ell, cos_half):
    """chi^ell as U_{2 ell}(cos(omega/2)); no 0/0 at omega = 0."""
    _check_degree(ell)
    return chebyshev_u(2 * ell, cos_half)


def character(ell, r):
    """Group character chi^ell(r); equals 2*ell + 1 at the identity."""
    if isinstance(r, Rotation):
        omega = r.angle()
    else:
        omega = quat_angle(r)
    return character_from_cos_half(ell, np.cos(np.asarray(omega) / 2.0))


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


def wigner_D_of_rotation(ell, r):
    return wigner_D(ell, r.to_euler_zyz())


def addition_evaluate(ell, x, y):
    """The double sum sum_{n,m} conj(D^ell_{nm}(x)) D^ell_{nm}(y).

    Test oracle for the addition property: the value equals
    chi^ell(x^{-1} y) (real up to rounding).
    """
    dx = wigner_D_of_rotation(ell, x)
    dy = wigner_D_of_rotation(ell, y)
    return complex(np.sum(np.conj(dx) * dy))
