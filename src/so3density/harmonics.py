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

Every Wigner computation goes through Delta^ell = d^ell(pi/2) and the
factorization (Risbo 1996, J. Geodesy 70; Kostelec & Rockmore 2008, "FFTs on
the rotation group")

    d^ell_nm(theta) = i^(n-m) sum_j Delta_jn Delta_jm e^{-i j theta}.

Delta^ell is built once per degree by a half-angle degree recurrence (two
half-steps per degree, each coupling neighbouring entries with sqrt factors;
stable far beyond the degrees where factorial formulas overflow) run at that
one angle, and cached.  The symmetry of Delta folds the sum onto j = 0..ell
with cos(j theta) or sin(j theta) by the parity of n - m (`_delta_blocks`).
On top of that:

* polar tables (`wigner_d_stack`, a grid's `d_stack`): one real GEMM per
  parity block, cos/sin(j theta) against the Delta products;
* the empirical characteristic function (`_conj_wigner_sum`): the
  separable tensor sum_k e^{i n phi_k} cos/sin(j theta_k) e^{i m psi_k}, one
  GEMM per chunk of rotations, contracted against the Delta products per
  degree (a mixture's few centres, whose weights vary by degree, are summed
  over their polar tables instead, in `spectra.ZonalMixture.full_spectrum`);
* pointwise synthesis (`_synthesize_points`): the adjoint, a spectrum
  folded once into a tensor over (j, n, m), then one GEMM per chunk of
  points;
* grid transforms (`transform.forward`, `transform.synthesize`): the same
  pair, with the FFT for phi and psi and one GEMM over the theta nodes.
"""

from __future__ import annotations

import functools

import numpy as np

from .rotations import Rotation, quat_to_euler_zyz

#: hard cap on the harmonic degree; keeps full-spectrum memory in the tens of MB
L_MAX = 128

#: entries of exp(i (n phi + m psi)) per chunk of rotations (16 MB)
_CHUNK = 1 << 20

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


def _half_step(d, c, s):
    # one half-angle step of the degree recurrence at the angle whose half has
    # cosine c and sine s; grows the table from dimension n to n + 1 (degree
    # j to j + 1/2)
    n = d.shape[0]
    out = np.zeros((n + 1, n + 1))
    dlj = d / n
    sd = np.sqrt(np.arange(n, 0, -1))  # sqrt(j - k)
    su = np.sqrt(np.arange(1, n + 1))  # sqrt(k + 1)
    out[:n, :n] += (sd[:, None] * sd[None, :]) * dlj * c
    out[:n, 1:] += (sd[:, None] * su[None, :]) * dlj * s
    out[1:, :n] -= (su[:, None] * sd[None, :]) * dlj * s
    out[1:, 1:] += (su[:, None] * su[None, :]) * dlj * c
    return out


@functools.cache
def _delta(ell):
    """Delta^ell = d^ell(pi/2), shape (2 ell+1, 2 ell+1), read-only and cached.

    Two half-steps of the degree recurrence from Delta^(ell-1), at this one
    angle only.
    """
    if ell == 0:
        d = np.ones((1, 1))
    else:
        # the rounded cos(pi/4) and sin(pi/4) differ by one ulp and their
        # squares sum to 1; sqrt(0.5) twice would not, and the norm drift of
        # 2 ell such steps reaches 3e-14 at L_MAX
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        d = _half_step(_half_step(_delta(ell - 1), c, s), c, s)
    d.flags.writeable = False
    return d


def _delta_blocks(ell):
    """The degree-ell Delta products, one parity block of (n, m) at a time.

    d^ell_nm(theta) = i^(n-m) sum_{j=-ell..ell} Delta_jn Delta_jm e^{-i j theta},
    and Delta_{-j,n} = (-1)^(ell+n) Delta_jn folds the terms j and -j: for
    n - m even they sum to a cosine, for n - m odd to a sine, so

        d^ell_nm(theta) = sum_{j=0..ell} P[j, n, m] trig_p(j theta),
        P[j, n, m] = (-1)^floor((n-m)/2) c_j Delta_jn Delta_jm,

    with c_0 = 1, c_j = 2 otherwise, and p = (n - m) mod 2 choosing cos (0) or
    sin (1).  Yields (rows, cols, p, P) for the four blocks of (n, m) by the
    parities of n and m, on each of which p is constant.
    """
    delta = _delta(ell)[ell:]  # rows j = 0..ell
    cdelta = delta.copy()
    cdelta[1:] *= 2.0
    # on block (a, b), n - m = 2 (u - v) + a - b for the u-th row and v-th
    # column, so the sign is (-1)^u (-1)^v, negated on block (0, 1)
    alt = (-1.0) ** np.arange(ell + 1)
    for a in (0, 1):
        for b in (0, 1):
            rows, cols = slice(a, None, 2), slice(b, None, 2)
            left = cdelta[:, rows] * (alt[: ell + 1 - a] * (-1.0 if (a, b) == (0, 1) else 1.0))
            right = delta[:, cols] * alt[: ell + 1 - b]
            yield rows, cols, (a + b) % 2, left[:, :, None] * right[:, None, :]


def _trig(L, theta):
    """cos(j theta) and sin(j theta) for j = 0..L, shape (N, 2, L+1)."""
    jt = np.multiply.outer(theta, np.arange(L + 1))
    return np.stack([np.cos(jt), np.sin(jt)], axis=1)


def _polar(ell, trig):
    """d^ell at the angles of `trig` (from `_trig`), shape (N, 2 ell+1, 2 ell+1):
    one real GEMM of trig_p(j theta) against P per parity block."""
    nth = trig.shape[0]
    out = np.empty((nth, 2 * ell + 1, 2 * ell + 1))
    for rows, cols, p, prod in _delta_blocks(ell):
        out[:, rows, cols] = (trig[:, p, : ell + 1] @ prod.reshape(ell + 1, -1)).reshape(
            (nth,) + prod.shape[1:]
        )
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
        Each degree is computed from the cached Delta^ell by real GEMMs over
        j = 0..ell; the result holds N * sum (2 ell+1)^2 entries.
    """
    L = _check_degree(L)
    trig = _trig(L, np.atleast_1d(np.asarray(thetas, dtype=float)))
    return [_polar(ell, trig) for ell in range(L + 1)]


def wigner_d(ell, theta):
    """Single polar matrix d^ell(theta), shape (2*ell+1, 2*ell+1)."""
    ell = _check_degree(ell)
    return _polar(ell, _trig(ell, np.array([float(theta)])))[0]


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


def _phase_chunks(L, q):
    """Separable factors of the rotations q, shape (K, 4), chunk by chunk.

    Yields (rows, e, trig) for consecutive slices `rows` of q, with
    e[k, n, m] = exp(i (n phi_k + m psi_k)) over n, m = -L..L and
    trig = `_trig(L, theta)`, shape (k, 2, L+1).  A chunk holds about
    `_CHUNK` entries of e.
    """
    n_all = np.arange(-L, L + 1)
    chunk = max(1, _CHUNK // (2 * L + 1) ** 2)
    for start in range(0, q.shape[0], chunk):
        rows = slice(start, start + chunk)
        phi, theta, psi = quat_to_euler_zyz(q[rows])
        e_n = np.exp(1j * np.multiply.outer(phi, n_all))
        e_m = np.exp(1j * np.multiply.outer(psi, n_all))
        yield rows, e_n[:, :, None] * e_m[:, None, :], _trig(L, theta)


def _band(x, ell):
    # degree-ell part of a (2, L+1, 2L+1, 2L+1) tensor
    L = x.shape[1] - 1
    sl = slice(L - ell, L + ell + 1)
    return x[:, : ell + 1, sl, sl]


def _unfold(x):
    """Blocks sum_j P^ell[j, n, m] x[p, j, n, m], ell = 0..L, of x of shape (2, L+1, 2L+1, 2L+1).

    P and p as in `_delta_blocks`; the adjoint of `_fold`.
    """
    blocks = [np.empty((2 * ell + 1, 2 * ell + 1), dtype=complex) for ell in range(x.shape[1])]
    for ell, block in enumerate(blocks):
        xl = _band(x, ell)
        for rows, cols, p, prod in _delta_blocks(ell):
            block[rows, cols] = (prod * xl[p][:, rows, cols]).sum(axis=0)
    return blocks


def _fold(spectrum):
    """G[p, j, n, m] = sum_ell (2 ell+1) P^ell[j, n, m] fhat^ell_nm with L = spectrum.lmax.

    sum_{p,j} trig_p(j theta) G[p, j, n, m] is sum_ell (2 ell+1) d^ell_nm(theta) fhat^ell_nm.
    """
    L = _check_degree(spectrum.lmax)
    g = np.zeros((2, L + 1, 2 * L + 1, 2 * L + 1), dtype=complex)
    for ell in range(L + 1):
        f = (2 * ell + 1) * spectrum[ell]
        gl = _band(g, ell)
        for rows, cols, p, prod in _delta_blocks(ell):
            gl[p][:, rows, cols] += prod * f[rows, cols]
    return g


def _conj_wigner_sum(L, q, weight):
    """Blocks weight * sum_k conj(D^ell(q_k)) for ell = 0..L.

    conj(D^ell_nm(q_k)) = e^{i n phi_k} d^ell_nm(theta_k) e^{i m psi_k}, and
    by `_delta_blocks` d^ell is a sum over j of trig_p(j theta) P[j]; so each
    block is the contraction against P of the separable tensor
    X[p, j, n, m] = weight sum_k e^{i (n phi_k + m psi_k)} trig_p(j theta_k),
    one X for all degrees, summed by one real GEMM per chunk of
    `_phase_chunks`.  The empirical characteristic function passes
    weight = 1/K.
    """
    L = _check_degree(L)
    x = np.zeros((2 * (L + 1), 2 * (2 * L + 1) ** 2))
    for _, e, trig in _phase_chunks(L, q):
        e *= weight
        # one real GEMM: the complex e read as pairs of reals
        x += trig.reshape(e.shape[0], -1).T @ e.view(float).reshape(e.shape[0], -1)
    return _unfold(x.view(complex).reshape(2, L + 1, 2 * L + 1, 2 * L + 1))


def _synthesize_points(spectrum, q):
    """Re sum_ell (2 ell+1) sum_nm fhat^ell_nm D^ell_nm(q_k) for q of shape (K, 4).

    The adjoint of `_conj_wigner_sum`: the spectrum is folded once into G
    (`_fold`), and the value at a rotation is
    Re sum e^{-i (n phi + m psi)} trig_p(j theta) G[p, j, n, m]: one real GEMM
    per chunk of points against G.
    """
    L = spectrum.lmax
    # Re(conj(e) g) = Re e Re g + Im e Im g: both read as pairs of reals
    gv = _fold(spectrum).view(float).reshape(2 * (L + 1), -1)
    out = np.empty(q.shape[0])
    for rows, e, trig in _phase_chunks(L, q):
        y = e.view(float).reshape(e.shape[0], -1) @ gv.T
        out[rows] = np.einsum("kc,kc->k", y, trig.reshape(e.shape[0], -1))
    return out
