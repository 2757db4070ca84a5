"""The benchmark's per-layer metrics name functions of the package; each must exist.

bench/spans.py records a span per public function and method under
`<module>.<name>` or `<module>.<Class>.<member>`, and BENCHMARK.json lists
the `.calls`, `.busy_s` and `.self_s` metrics of some of them.  A rename or
deletion would make a traced run exit 2 for a missing metric; this test
names the culprit first.
"""

import importlib
import json
import os

BENCHMARK = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")
SUFFIXES = (".calls", ".busy_s", ".self_s")


def span_stems():
    with open(BENCHMARK) as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    stems = set()
    for name in names:
        name = name.removeprefix("setup.")
        if name.startswith("trace.") or not name.endswith(SUFFIXES):
            continue  # run totals and work counters
        stem = name.rsplit(".", 1)[0]
        if "." in stem:  # "<layer>.self_s" is a layer total
            stems.add(stem)
    return sorted(stems)


def test_per_layer_metrics_name_package_attributes():
    stems = span_stems()
    assert "harmonics.wigner_D" in stems
    missing = []
    for stem in stems:
        layer, top, *member = stem.split(".")
        module = importlib.import_module(f"so3density.{layer}")
        obj = vars(module).get(top)
        # the tracer names a function by the module that defines it
        if obj is None or getattr(obj, "__module__", None) != module.__name__:
            missing.append(stem)
        elif member and member[0] not in vars(obj):
            missing.append(stem)
    assert not missing, f"BENCHMARK.json per_layer names without a package attribute: {missing}"
