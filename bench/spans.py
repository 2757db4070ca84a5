"""Spans and work counters recorded around the so3density layers from outside.

The tracer replaces every public function and public method of the package's
modules with a wrapper that records a span (name, start, end, parent span,
op id) while an op scope is open.  Names that other modules bound with
``from .x import y`` are rebound too; otherwise those calls would escape.
Spans stay in memory until the run ends.  A span's self time is its duration
minus the part of its interval that its child spans cover.

Standard library only, so the span arithmetic can be tested without numpy.
"""

from __future__ import annotations

import functools
import inspect
import json
import logging
import time
from collections import defaultdict, namedtuple

Span = namedtuple("Span", ["name", "start", "end", "parent", "op"])

#: the package's modules, which are the layers the metrics are named after
LAYERS = (
    "rotations",
    "harmonics",
    "spectra",
    "kernels",
    "transform",
    "sampling",
    "estimators",
    "analysis",
    "config",
    "cli",
    "svg",
)
HARNESS = "harness"


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of (start, end) intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    run_lo = run_hi = None
    for a, b in clipped:
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans):
    """Self time of each span: duration minus the union of its children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size(x):
    return getattr(x, "size", 1)


# Work counters derived from call arguments and results.  Each maps a span
# name to a function (args, kwargs, result) -> [(counter, amount)].
COUNTERS = {
    "rotations.quat_cos_half_between": lambda a, k, r: [("rotations.pairs", _size(r))],
    "spectra.zonal_synthesize": lambda a, k, r: [
        ("spectra.zonal_terms", _size(r) * len(_arg(a, k, 0, "coeffs")))
    ],
    "harmonics.wigner_d_stack": lambda a, k, r: [
        ("harmonics.wigner_d_entries", sum(t.size for t in r))
    ],
    "estimators.characteristic_spectrum": lambda a, k, r: [
        ("estimators.char_samples", len(_arg(a, k, 0, "sample")))
    ],
    "estimators.kernel_estimate": lambda a, k, r: [
        ("estimators.pairs", len(_arg(a, k, 0, "sample")) * _size(r))
    ],
    "transform.QuadratureGrid.__init__": lambda a, k, r: [("transform.grid_builds", 1)],
    "sampling.sample_mixture": lambda a, k, r: [
        ("sampling.rotations_drawn", int(_arg(a, k, 1, "K")))
    ],
    "sampling.RotationSample.from_csv": lambda a, k, r: [("sampling.csv_rows", len(r))],
    "sampling.RotationSample.to_csv": lambda a, k, r: [("sampling.csv_rows", len(a[0]))],
    "analysis.monte_carlo_ise_study": lambda a, k, r: [
        ("analysis.trials", int(_arg(a, k, 3, "trials")))
    ],
}
#: every counter a summary reports; the last two come from the log and the
#: output files rather than from call arguments
COUNTER_NAMES = frozenset(
    [
        "rotations.pairs",
        "spectra.zonal_terms",
        "harmonics.wigner_d_entries",
        "estimators.char_samples",
        "estimators.pairs",
        "transform.grid_builds",
        "sampling.rotations_drawn",
        "sampling.csv_rows",
        "analysis.trials",
        "sampling.acceptance_rate",
        "cli.bytes_written",
    ]
)


class _RateHandler(logging.Handler):
    """Collects the acceptance rates `so3density.sampling` logs at DEBUG."""

    def __init__(self, tracer):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record):
        if self.tracer.op is not None and "acceptance rate" in record.msg:
            self.tracer.rates[self.tracer.op].append(float(record.args[0]))


class Tracer:
    """Span recorder for one process; `install` wraps, `uninstall` restores."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.ops = {}  # op id -> (start, end)
        self.counts = defaultdict(float)  # (op id, counter) -> amount
        self.rates = defaultdict(list)  # op id -> logged acceptance rates
        self.op = None
        self._stack = []
        self.names = set()  # every span name a wrapper can record
        self._patches = self._plan()
        self._installed = False
        self._handler = _RateHandler(self)
        self._logger = logging.getLogger(package.__name__ + ".sampling")
        self._level = self._logger.level

    # --- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        counter = COUNTERS.get(name)
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = Span(name, start, end, parent, tracer.op)
            if counter is not None:
                for key, amount in counter(args, kwargs, result):
                    tracer.counts[(tracer.op, key)] += amount
            return result

        return traced

    def _wrap_member(self, name, member):
        if isinstance(member, classmethod):
            return classmethod(self._wrap(name, member.__func__))
        if isinstance(member, staticmethod):
            return staticmethod(self._wrap(name, member.__func__))
        if isinstance(member, property):
            return property(self._wrap(name, member.fget), member.fset, member.fdel, member.__doc__)
        return self._wrap(name, member)

    def _plan(self):
        """(owner, attribute, original, wrapper) for every patch to apply."""
        patches = []
        wrapped = {}  # id(original function) -> wrapper
        modules = [getattr(self.package, layer) for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    w = self._wrap(f"{layer}.{attr}", obj)
                    wrapped[id(obj)] = w
                    patches.append((mod, attr, obj, w))
                elif inspect.isclass(obj):
                    for mname, member in list(vars(obj).items()):
                        if mname.startswith("_") and mname != "__init__":
                            continue
                        if not (
                            inspect.isfunction(member)
                            or isinstance(member, (classmethod, staticmethod, property))
                        ):
                            continue
                        w = self._wrap_member(f"{layer}.{attr}.{mname}", member)
                        patches.append((obj, mname, member, w))
        # names bound elsewhere by `from .x import y` (and aliases of them)
        done = {(id(owner), attr) for owner, attr, _, _ in patches}
        for mod in [self.package] + modules:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and (id(mod), attr) not in done:
                    patches.append((mod, attr, obj, w))
        return patches

    def install(self):
        if not self._installed:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            self._logger.addHandler(self._handler)
            self._logger.setLevel(logging.DEBUG)
            self._installed = True

    def uninstall(self):
        if self._installed:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)
            self._logger.removeHandler(self._handler)
            self._logger.setLevel(self._level)
            self._installed = False

    # --- op scopes ----------------------------------------------------------

    def begin(self, op):
        self.op = op
        self.ops[op] = (time.perf_counter(), None)

    def end(self):
        start, _ = self.ops[self.op]
        self.ops[self.op] = (start, time.perf_counter())
        self.op = None

    def count(self, op, key, amount):
        self.counts[(op, key)] += amount

    # --- summaries ----------------------------------------------------------

    def summarize(self, ops, counted_ops):
        """Per-op metrics over `ops`; work counters per op over `counted_ops`.

        Function metrics are `<span>.calls`, `<span>.busy_s` (outermost calls
        only, so recursion is not counted twice) and `<span>.self_s`; layer
        metrics are `<layer>.self_s`, and `harness.self_s` is the op time no
        span covers.  Returns (metrics, accounting) where accounting is the
        summed self time over the summed op wall time, 1 when they agree.
        """
        ops = set(ops)
        totals = defaultdict(float)
        idx = [i for i, s in enumerate(self.spans) if s.op in ops]
        selfs = self_times(self.spans)
        for i in idx:
            s = self.spans[i]
            totals[s.name + ".calls"] += 1
            totals[s.name + ".self_s"] += selfs[i]
            totals[s.name.split(".")[0] + ".self_s"] += selfs[i]
            p = s.parent
            while p is not None and self.spans[p].name != s.name:
                p = self.spans[p].parent
            if p is None:
                totals[s.name + ".busy_s"] += s.end - s.start
        wall = 0.0
        for op in ops:
            lo, hi = self.ops[op]
            wall += hi - lo
            top = [(s.start, s.end) for s in self.spans if s.op == op and s.parent is None]
            totals[HARNESS + ".self_s"] += hi - lo - covered_length(top, lo, hi)
        accounted = sum(totals[layer + ".self_s"] for layer in LAYERS + (HARNESS,))
        n = max(len(ops), 1)
        metrics = {key: value / n for key, value in totals.items()}
        counted = defaultdict(float)
        for (op, key), amount in self.counts.items():
            if op in counted_ops:
                counted[key] += amount
        metrics.update({key: value / max(len(counted_ops), 1) for key, value in counted.items()})
        rates = [r for op in counted_ops for r in self.rates.get(op, ())]
        metrics["sampling.acceptance_rate"] = sum(rates) / len(rates) if rates else 0.0
        metrics["trace.op_wall_s"] = wall / n
        return metrics, (accounted / wall if wall > 0 else 1.0)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(list(s)) + "\n")
