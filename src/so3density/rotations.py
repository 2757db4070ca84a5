"""Rotations of R^3: canonical unit quaternions, parametrization conversions,
group operations and the rotation-angle metric.

A rotation is stored as a unit quaternion (w, x, y, z) in canonical form
w >= 0 (the double cover is resolved by sign; when w == 0 the first nonzero
vector component is taken positive).  Euler angles follow the ZYZ convention
R = Z(phi) Y(theta) Z(psi) with phi, psi in [0, 2*pi) and theta in [0, pi].
The rotation angle is always reported in [0, pi]; the axis sign absorbs the
orientation.

Array-level helpers (`quat_*`) broadcast over leading axes and are what the
sampling and estimation code uses in bulk; the `Rotation` class wraps a single
quaternion for the scalar API.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "Rotation",
    "EulerZYZ",
    "quat_canonicalize",
    "quat_points",
    "quat_multiply",
    "quat_conjugate",
    "quat_angle",
    "quat_cos_half_between",
    "quat_from_euler_zyz",
    "quat_to_euler_zyz",
    "quat_to_matrix",
]


# ---------------------------------------------------------------------------
# array-level quaternion operations (broadcast over leading axes, last axis 4)

def quat_canonicalize(q):
    """Normalize to unit length and flip sign into the canonical hemisphere.

    Idempotent: quaternions already unit to round-off are not rescaled, so
    serialization round-trips reproduce the stored bits exactly.  A row whose
    norm is zero or not finite (NaN, inf, or overflowing) raises ValueError
    rather than turning into NaN.
    """
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if not np.all(np.isfinite(n) & (n > 0)):
        raise ValueError("quaternion must be finite and nonzero")
    q = q / np.where(np.abs(n - 1.0) < 1e-12, 1.0, n)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    # sign key: w, falling back to x, y, z for w == 0
    flip = (w < 0) | ((w == 0) & ((x < 0) | ((x == 0) & ((y < 0) | ((y == 0) & (z < 0))))))
    return np.where(flip[..., None], -q, q)


def quat_points(x):
    """Evaluation points as canonical unit quaternions (N, 4), and the shape to give values.

    `x` is a Rotation, one quaternion of shape (4,), or an array (..., 4).
    The shape is None for one point and x's leading shape otherwise, so an
    evaluator returns ``float(values[0])`` or ``values.reshape(shape)``.
    Arrays pass through `quat_canonicalize`, which refuses a non-finite or
    zero row and normalizes a scaled one; unit rows keep their values up to
    the sign, which no function on SO(3) sees.  Every evaluator of the
    package reads its points through here.
    """
    if isinstance(x, Rotation):
        return x.q[None, :], None
    q = np.asarray(x, dtype=float)
    if q.shape == (4,):
        return quat_canonicalize(q[None, :]), None
    if q.ndim >= 2 and q.shape[-1] == 4:
        return quat_canonicalize(q.reshape(-1, 4)), q.shape[:-1]
    raise ValueError("evaluation points must be a Rotation or an (..., 4) array")


def quat_multiply(p, q):
    """Hamilton product; composition of rotations: R(p q) = R(p) R(q)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    w1, x1, y1, z1 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    w2, x2, y2, z2 = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def quat_conjugate(q):
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_angle(q):
    """Rotation angle in [0, pi]: 2*atan2(|v|, |w|), accurate to rounding at 0 and pi."""
    q = np.asarray(q, dtype=float)
    return 2.0 * np.arctan2(np.linalg.norm(q[..., 1:], axis=-1), np.abs(q[..., 0]))


def quat_cos_half_between(p, q):
    """cos(omega/2) of the relative rotation p^{-1} q.

    Equals |<p, q>| because the scalar part of p^{-1} q is the 4-vector dot
    product; this is the hot path of all zonal kernel evaluations.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return np.clip(np.abs(np.sum(p * q, axis=-1)), 0.0, 1.0)


def quat_from_euler_zyz(phi, theta, psi):
    """Quaternion of Z(phi) Y(theta) Z(psi) (closed form of the triple product)."""
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    psi = np.asarray(psi, dtype=float)
    ct, st = np.cos(theta / 2), np.sin(theta / 2)
    sum_h, dif_h = (phi + psi) / 2, (phi - psi) / 2
    return np.stack(
        [
            ct * np.cos(sum_h),
            -st * np.sin(dif_h),
            st * np.cos(dif_h),
            ct * np.sin(sum_h),
        ],
        axis=-1,
    )


def quat_to_euler_zyz(q):
    """Extract (phi, theta, psi) with phi, psi in [0, 2*pi), theta in [0, pi].

    theta = 2 atan2(|(x, y)|, |(w, z)|) keeps full relative precision near
    the poles, where arccos(R22) would resolve it only to ~1e-8.  Gimbal cases
    theta in {0, pi} assign the whole in-plane angle to phi and set psi = 0.
    """
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    r22 = 1.0 - 2.0 * (x * x + y * y)
    r02 = 2.0 * (x * z + w * y)
    r12 = 2.0 * (y * z - w * x)
    theta = 2.0 * np.arctan2(np.hypot(x, y), np.hypot(w, z))
    regular = r02 * r02 + r12 * r12 > 1e-24
    r21 = 2.0 * (y * z + w * x)
    r20 = 2.0 * (x * z - w * y)
    phi = np.where(regular, np.arctan2(r12, r02), 0.0)
    psi = np.where(regular, np.arctan2(r21, -r20), 0.0)
    # theta = 0: R = Z(phi+psi); theta = pi: R00 = -cos(phi-psi), R01 = -sin(phi-psi)
    r00 = 1.0 - 2.0 * (y * y + z * z)
    r10 = 2.0 * (x * y + w * z)
    r01 = 2.0 * (x * y - w * z)
    north = ~regular & (r22 > 0)
    south = ~regular & (r22 <= 0)
    phi = np.where(north, np.arctan2(r10, r00), phi)
    phi = np.where(south, np.arctan2(-r01, -r00), phi)
    return phi % TWO_PI, theta, psi % TWO_PI


def quat_to_matrix(q):
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    row0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1)
    row1 = np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1)
    row2 = np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


# ---------------------------------------------------------------------------
# scalar types

class EulerZYZ(NamedTuple):
    """ZYZ Euler angles, phi/psi in [0, 2*pi), theta in [0, pi], radians."""

    phi: float
    theta: float
    psi: float


class Rotation:
    """An element of SO(3) held as a canonical unit quaternion.

    Immutable; all operations return new instances.  Construction normalizes
    and canonicalizes, so ``w**2 + x**2 + y**2 + z**2 == 1`` within 1e-12 and
    ``w >= 0`` hold after every operation.
    """

    __slots__ = ("q",)

    def __init__(self, w, x, y, z):
        q = quat_canonicalize(np.array([w, x, y, z], dtype=float))
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Rotation is immutable")

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_quaternion(cls, q):
        q = np.asarray(q, dtype=float)
        if q.shape != (4,):
            raise ValueError("quaternion must have shape (4,)")
        return cls(*q)

    # -- conversions

    @classmethod
    def from_euler_zyz(cls, e):
        phi, theta, psi = e
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {theta}")
        return cls(*quat_from_euler_zyz(phi % TWO_PI, theta, psi % TWO_PI))

    def to_euler_zyz(self):
        phi, theta, psi = quat_to_euler_zyz(self.q)
        return EulerZYZ(float(phi), float(theta), float(psi))

    @classmethod
    def from_axis_angle(cls, a):
        axis = np.asarray(a[0], dtype=float)
        ang = float(a[1])
        n = np.linalg.norm(axis)
        if n == 0:
            raise ValueError("rotation axis must be nonzero")
        axis = axis / n
        h = ang / 2.0
        return cls(math.cos(h), *(math.sin(h) * axis))

    def to_matrix(self):
        return quat_to_matrix(self.q)

    # -- group structure

    def compose(self, other):
        """Group product self * other (matrices multiply in the same order)."""
        return Rotation(*quat_multiply(self.q, other.q))

    def inverse(self):
        return Rotation(*quat_conjugate(self.q))

    def angle(self):
        """Rotation angle omega in [0, pi] (equals arccos((tr R - 1)/2))."""
        return float(quat_angle(self.q))

    def __repr__(self):
        w, x, y, z = self.q
        return f"Rotation(w={w:.6g}, x={x:.6g}, y={y:.6g}, z={z:.6g})"

    def __eq__(self, other):
        if not isinstance(other, Rotation):
            return NotImplemented
        return bool(np.all(self.q == other.q))

    def __hash__(self):
        return hash(self.q.tobytes())

