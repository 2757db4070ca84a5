"""Span self-time arithmetic and the tracer's accounting, on a stand-in package.

    python3 -m pytest bench/test_spans.py
"""

import types

import pytest

from spans import LAYERS, Span, Tracer, covered_length, self_times


def test_nested_children_partition_the_parent():
    spans = [
        Span("a.outer", 0.0, 10.0, None, 0),
        Span("b.child", 1.0, 4.0, 0, 0),
        Span("c.grandchild", 2.0, 3.0, 1, 0),
        Span("b.child", 6.0, 8.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once_and_clipped():
    spans = [
        Span("a.outer", 0.0, 10.0, None, 0),
        Span("b.one", 1.0, 5.0, 0, 0),
        Span("b.two", 3.0, 7.0, 0, 0),  # overlaps b.one on [3, 5]
        Span("b.three", 9.0, 12.0, 0, 0),  # runs past the parent's end
        Span("b.empty", 8.0, 8.0, 0, 0),
    ]
    assert covered_length([(1.0, 5.0), (3.0, 7.0), (9.0, 12.0)], 0.0, 10.0) == 7.0
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_covered_length_of_disjoint_and_contained_intervals():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(0.2, 0.4), (0.6, 0.7)], 0.0, 1.0) == pytest.approx(0.3)
    assert covered_length([(0.1, 0.9), (0.2, 0.3)], 0.0, 1.0) == pytest.approx(0.8)
    assert covered_length([(-1.0, 2.0)], 0.0, 1.0) == 1.0


def _stand_in_package():
    """A package with the real layer names; `spectra.total` calls
    `rotations.work` through a name bound by `from .rotations import work`."""
    pkg = types.ModuleType("pkg")
    for layer in LAYERS:
        mod = types.ModuleType(f"pkg.{layer}")
        setattr(pkg, layer, mod)
    exec(
        "import time\n"
        "def work(n):\n"
        "    t = time.perf_counter()\n"
        "    while time.perf_counter() - t < 1e-3 * n:\n"
        "        pass\n"
        "    return n\n",
        pkg.rotations.__dict__,
    )
    pkg.spectra.work = pkg.rotations.work
    exec(
        "def total(n):\n"
        "    return sum(work(k) for k in range(1, n + 1))\n",
        pkg.spectra.__dict__,
    )
    return pkg


def test_tracer_sees_rebound_names_and_accounts_for_the_op():
    pkg = _stand_in_package()
    original = pkg.spectra.work
    tracer = Tracer(pkg)
    tracer.install()
    tracer.begin(0)
    assert pkg.spectra.total(3) == 6
    tracer.end()
    tracer.uninstall()
    assert pkg.spectra.work is original

    metrics, accounted = tracer.summarize([0], [0])
    assert metrics["rotations.work.calls"] == 3
    assert metrics["spectra.total.calls"] == 1
    assert metrics["rotations.work.busy_s"] >= 6e-3
    assert accounted == pytest.approx(1.0, abs=1e-9)
    parts = sum(metrics.get(f"{layer}.self_s", 0.0) for layer in LAYERS + ("harness",))
    assert parts == pytest.approx(metrics["trace.op_wall_s"], rel=1e-9)


def test_calls_outside_an_op_record_nothing():
    pkg = _stand_in_package()
    tracer = Tracer(pkg)
    tracer.install()
    pkg.spectra.total(1)
    tracer.uninstall()
    assert tracer.spans == []
