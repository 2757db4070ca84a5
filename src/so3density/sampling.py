"""Random rotation generation.

Haar-uniform draws come from normalized 4-D Gaussians mapped to the canonical
(upper) quaternion hemisphere.  Zonal densities are sampled through their
angle marginal

    p(omega) = (2/pi) f(omega) sin^2(omega/2),   omega in [0, pi],

by rejection against a uniform proposal (envelope from a 4096-point grid with
a 1.01 safety factor; a proposal above the envelope raises), with the axis
uniform on the sphere.  Mixtures choose a component multinomially and
left-translate zonal draws by the component center.

RNG: numpy's PCG64 behind `numpy.random.default_rng`; every sampler accepts an
integer seed, a SeedSequence, or an existing Generator, so callers can split
streams (`SeedSequence(seed).spawn(n)`) for independent trials.  Identical
seed and parameters give bit-identical samples.
"""

from __future__ import annotations

import csv
import logging

import numpy as np

from .rotations import Rotation, quat_canonicalize, quat_multiply
from .spectra import zonal_synthesize

__all__ = [
    "RotationSample",
    "sample_uniform",
    "sample_zonal",
    "sample_mixture",
]

logger = logging.getLogger(__name__)

_ENVELOPE_GRID = 4096
_ENVELOPE_SAFETY = 1.01
_CLAMP_FLOOR = -1e-6


class RotationSample:
    """An ordered sample of rotations held as an (K, 4) canonical quaternion array.

    Rows are normalized by `quat_canonicalize`; a non-finite or zero row
    raises ValueError.
    """

    __slots__ = ("quaternions",)

    def __init__(self, quaternions):
        q = np.asarray(quaternions, dtype=float)
        if q.ndim != 2 or q.shape[1] != 4 or q.shape[0] < 1:
            raise ValueError("expected an (K, 4) quaternion array with K >= 1")
        object.__setattr__(self, "quaternions", quat_canonicalize(q))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RotationSample is immutable")

    def __len__(self):
        return self.quaternions.shape[0]

    def __getitem__(self, k):
        return Rotation.from_quaternion(self.quaternions[k])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["w", "x", "y", "z"])
            for row in self.quaternions:
                w.writerow([f"{v:.17g}" for v in row])

    @classmethod
    def from_csv(cls, path):
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for lineno, row in enumerate(reader, start=1):
                if lineno == 1 and row == ["w", "x", "y", "z"]:
                    continue
                if len(row) != 4:
                    raise ValueError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
                try:
                    vals = [float(v) for v in row]
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: non-numeric quaternion") from None
                if not np.all(np.isfinite(vals)):
                    raise ValueError(f"{path}: line {lineno}: non-finite quaternion")
                norm = float(np.linalg.norm(vals))
                if abs(norm - 1.0) > 1e-6:
                    raise ValueError(
                        f"{path}: line {lineno}: quaternion norm deviates by {abs(norm - 1.0):.2e}"
                    )
                rows.append(vals)
        if not rows:
            raise ValueError(f"{path}: no rotations found")
        return cls(np.array(rows))


def _uniform_quats(K, rng):
    q = rng.normal(size=(K, 4))
    return quat_canonicalize(q)


def _random_axes(K, rng):
    v = rng.normal(size=(K, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _angle_density(coeffs, omega):
    f = zonal_synthesize(coeffs, np.cos(omega / 2.0))
    return f, (2.0 / np.pi) * np.clip(f, 0.0, None) * np.sin(omega / 2.0) ** 2


def _zonal_angles(coeffs, K, rng):
    """Rejection-sample K angles from the zonal angle marginal.

    Returns (angles, n_proposed) so callers can report the acceptance rate.
    """
    grid = np.linspace(0.0, np.pi, _ENVELOPE_GRID)
    f, p = _angle_density(coeffs, grid)
    fmin = float(f.min())
    if fmin < _CLAMP_FLOOR:
        raise ValueError(
            f"zonal spectrum synthesizes to {fmin:.3e} < {_CLAMP_FLOOR}; not a density"
        )
    envelope = _ENVELOPE_SAFETY * float(p.max())
    out = np.empty(K)
    filled = 0
    proposed = 0
    while filled < K:
        n = int((K - filled) * np.pi * envelope * 1.1) + 64
        omega = rng.uniform(0.0, np.pi, n)
        u = rng.uniform(0.0, 1.0, n)
        _, p_omega = _angle_density(coeffs, omega)
        over = int(np.count_nonzero(p_omega > envelope))
        if over:
            raise ValueError(
                f"angle density exceeds the rejection envelope {envelope:.6g} at {over} of "
                f"{n} proposals (peak {float(p_omega.max()):.6g}); samples would be biased"
            )
        hits = u * envelope < p_omega
        n_hits = int(np.count_nonzero(hits))
        if n_hits >= K - filled:
            # count proposals only through the one that completes the sample,
            # so the reported acceptance rate is unbiased
            cum = np.cumsum(hits)
            last = int(np.searchsorted(cum, K - filled))
            proposed += last + 1
            take = omega[hits][: K - filled]
        else:
            proposed += n
            take = omega[hits]
        out[filled : filled + take.shape[0]] = take
        filled += take.shape[0]
    return out, proposed


def _zonal_quats(coeffs, K, rng):
    omega, proposed = _zonal_angles(coeffs, K, rng)
    logger.debug("zonal rejection acceptance rate %.4f", K / proposed)
    axes = _random_axes(K, rng)
    half = omega[:, None] / 2.0
    return np.concatenate([np.cos(half), np.sin(half) * axes], axis=1)


def sample_uniform(K, seed):
    """K Haar-distributed rotations."""
    if K < 1:
        raise ValueError("sample size must be >= 1")
    rng = np.random.default_rng(seed)
    return RotationSample(_uniform_quats(K, rng))


def sample_zonal(coeffs, K, seed):
    """K draws from the zonal density with the given coefficient array.

    Synthesized values below -1e-6 on the envelope grid raise (the spectrum is
    not a density, e.g. a sharp-cutoff kernel); shallower negativity is
    truncation noise and is clamped to 0.
    """
    if K < 1:
        raise ValueError("sample size must be >= 1")
    rng = np.random.default_rng(seed)
    return RotationSample(_zonal_quats(np.asarray(coeffs, dtype=float), K, rng))


def sample_mixture(m, K, seed, with_counts=False):
    """K draws from a ZonalMixture: multinomial component choice, zonal draw,
    left translation by the component center, then one global shuffle."""
    if K < 1:
        raise ValueError("sample size must be >= 1")
    rng = np.random.default_rng(seed)
    weights = [m.uniform_weight] + [c.weight for c in m.components]
    counts = rng.multinomial(K, weights)
    parts = []
    if counts[0] > 0:
        parts.append(_uniform_quats(counts[0], rng))
    for c, n in zip(m.components, counts[1:]):
        if n > 0:
            parts.append(quat_multiply(c.center.q, _zonal_quats(c.coefficients, n, rng)))
    q = np.concatenate(parts, axis=0)
    sample = RotationSample(q[rng.permutation(K)])
    if with_counts:
        return sample, counts
    return sample
