"""Experiment configuration: defaults, flat key=value files, JSON alternative.

Defaults encode the simulation-study setup and nothing else: the two-mode
test mixture (0.2 uniform + 0.7 binomial order 30 rotated about e1 by pi/6 +
0.1 binomial order 45 rotated about e2 by 4 pi/9), bandlimit 49, the three
bandwidth grids, and sample sizes log-spaced from 10 to 1e5.

A component entry stores the frame rotation (axis, angle) applied to the
zonal profile; the translated density psi(R^{-1} x) peaks where x = R^{-1}
acts, so the mixture component's center rotation is the inverse of the
configured frame rotation.  `build_mixture` performs that inversion.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .estimators import EstimatorSpec
from .harmonics import L_MAX
from .kernels import vp_coefficients
from .rotations import Rotation
from .spectra import MixtureComponent, ZonalMixture

__all__ = ["ComponentConfig", "ExperimentConfig", "parse_angle"]

_ANGLE_RE = re.compile(
    r"^\s*(?P<coef>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)?\s*(?P<pi>pi)?"
    r"\s*(?:/\s*(?P<den>\d+(?:\.\d+)?))?\s*$"
)


def parse_angle(text):
    """Angles as plain floats or rational multiples of pi: "pi/6", "4pi/9", "0.5"."""
    m = _ANGLE_RE.match(str(text))
    if not m or (m.group("coef") is None and m.group("pi") is None):
        raise ValueError(f"cannot parse angle {text!r}")
    value = float(m.group("coef")) if m.group("coef") is not None else 1.0
    if m.group("pi"):
        value *= math.pi
    if m.group("den") is not None:
        den = float(m.group("den"))
        if den == 0:
            raise ValueError(f"zero denominator in angle {text!r}")
        value /= den
    return value


@dataclass(frozen=True)
class ComponentConfig:
    weight: float
    kappa: int
    axis: tuple
    angle: float

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("component weight must be >= 0")
        if not (isinstance(self.kappa, (int, np.integer)) and self.kappa >= 0):
            raise ValueError("component order must be a nonnegative integer")
        axis = tuple(float(v) for v in self.axis)
        if len(axis) != 3 or not any(axis):
            raise ValueError("component axis must be a nonzero 3-vector")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", float(self.angle))


@dataclass(frozen=True)
class ExperimentConfig:
    uniform_weight: float = 0.2
    components: tuple = (
        ComponentConfig(0.7, 30, (1.0, 0.0, 0.0), math.pi / 6),
        ComponentConfig(0.1, 45, (0.0, 1.0, 0.0), 4 * math.pi / 9),
    )
    bandlimit: int = 49
    vp_orders: tuple = (1, 8, 17, 22, 29, 36, 43)
    heat_exponents: tuple = (1, 2, 3, 4, 5, 6, 7, 8, 9)
    char_cutoffs: tuple = (1, 2, 3, 4, 5, 6, 7, 8, 9)
    sample_sizes: tuple = field(
        default_factory=lambda: tuple(np.logspace(1.0, 5.0, 13))
    )
    sample_size: int = 200
    mc_trials: int = 300
    mc_estimators: tuple = ("wavelet:0.0625", "characteristic:5", "kernel:vp:29")
    estimate_spec: str = "wavelet:0.0625"
    seed: int = 1234

    def __post_init__(self):
        if self.uniform_weight < 0:
            raise ValueError("uniform weight must be >= 0")
        total = self.uniform_weight + sum(c.weight for c in self.components)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mixture weights must sum to 1, got {total!r}")
        if not 1 <= self.bandlimit <= L_MAX:
            raise ValueError(f"bandlimit must lie in [1, {L_MAX}]")
        for j in self.heat_exponents:
            if j < 0:
                raise ValueError("heat exponents must be >= 0")
        for k in self.vp_orders:
            if k < 1:
                raise ValueError("binomial orders must be >= 1")
        for c in self.char_cutoffs:
            if c < 1:
                raise ValueError("cutoff degrees must be >= 1")
        for K in self.sample_sizes:
            if K < 1:
                raise ValueError("sample sizes must be >= 1")
        if self.sample_size < 1 or self.mc_trials < 2:
            raise ValueError("need sample_size >= 1 and mc_trials >= 2")
        for text in self.mc_estimators:
            EstimatorSpec.from_text(text)
        EstimatorSpec.from_text(self.estimate_spec)

    @classmethod
    def default(cls):
        return cls()

    def build_mixture(self):
        comps = []
        for c in self.components:
            frame = Rotation.from_axis_angle((np.asarray(c.axis), c.angle))
            comps.append(
                MixtureComponent(c.weight, vp_coefficients(c.kappa), frame.inverse())
            )
        return ZonalMixture(self.uniform_weight, tuple(comps))

    def heat_times(self):
        return tuple(2.0 ** -float(j) for j in self.heat_exponents)

    # --- file parsing -----------------------------------------------------

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            text = fh.read()
        try:
            return cls.from_text(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def from_text(cls, text):
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return cls._from_mapping(json.loads(text))
        return cls._from_flat(text)

    @classmethod
    def _from_flat(cls, text):
        data = {}
        section = ""
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            data[(section + "." if section else "") + key.strip()] = value.strip()
        return cls._from_keys(data)

    @classmethod
    def _from_mapping(cls, mapping):
        data = {}

        def walk(prefix, node):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(prefix + "." + str(k) if prefix else str(k), v)
            elif isinstance(node, (list, tuple)):
                data[prefix] = " ".join(str(v) for v in node)
            else:
                data[prefix] = str(node)

        walk("", mapping)
        return cls._from_keys(data)

    @classmethod
    def _from_keys(cls, data):
        defaults = cls.default()
        kwargs = {}
        data = dict(data)

        def pop(key, conv, fallback):
            if key in data:
                raw = data.pop(key)
                try:
                    return conv(raw)
                except ValueError as exc:
                    raise ValueError(f"key {key!r}: {exc}") from None
            return fallback

        def floats(raw):
            parts = raw.replace(",", " ").split()
            if parts and parts[0] == "logspace":
                if len(parts) != 4:
                    raise ValueError("logspace takes 3 arguments: start stop count")
                return tuple(np.logspace(float(parts[1]), float(parts[2]), int(parts[3])))
            return tuple(float(p) for p in parts)

        def ints(raw):
            return tuple(int(p) for p in raw.replace(",", " ").split())

        def texts(raw):
            return tuple(raw.replace(",", " ").split())

        kwargs["uniform_weight"] = pop(
            "mixture.uniform_weight", float, defaults.uniform_weight
        )
        comp_keys = sorted(
            {
                k.split(".")[2]
                for k in data
                if k.startswith("mixture.component.") and len(k.split(".")) == 4
            },
            key=int,
        )
        if comp_keys:
            comps = []
            for idx in comp_keys:
                base = f"mixture.component.{idx}"
                missing = [
                    s for s in ("weight", "kappa", "axis", "angle") if f"{base}.{s}" not in data
                ]
                if missing:
                    raise ValueError(f"component {idx}: missing {', '.join(missing)}")
                comps.append(
                    ComponentConfig(
                        pop(f"{base}.weight", float, None),
                        pop(f"{base}.kappa", int, None),
                        pop(f"{base}.axis", floats, None),
                        pop(f"{base}.angle", parse_angle, None),
                    )
                )
            kwargs["components"] = tuple(comps)
        elif kwargs["uniform_weight"] == 1.0:
            kwargs["components"] = ()
        kwargs["bandlimit"] = pop("transform.bandlimit", int, defaults.bandlimit)
        kwargs["vp_orders"] = pop("kernels.vp_orders", ints, defaults.vp_orders)
        kwargs["heat_exponents"] = pop(
            "kernels.heat_exponents", ints, defaults.heat_exponents
        )
        kwargs["char_cutoffs"] = pop("kernels.char_cutoffs", ints, defaults.char_cutoffs)
        kwargs["sample_sizes"] = pop("study.sample_sizes", floats, defaults.sample_sizes)
        kwargs["sample_size"] = pop("study.sample_size", int, defaults.sample_size)
        kwargs["mc_trials"] = pop("study.mc_trials", int, defaults.mc_trials)
        kwargs["mc_estimators"] = pop(
            "study.mc_estimators", texts, defaults.mc_estimators
        )
        kwargs["estimate_spec"] = pop("study.estimate_spec", str, defaults.estimate_spec)
        kwargs["seed"] = pop("study.seed", int, defaults.seed)
        if data:
            raise ValueError(f"unknown keys: {', '.join(sorted(data))}")
        return cls(**kwargs)
