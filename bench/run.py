"""so3density benchmark: one closed-loop client, one process, three workloads.

    python3 bench/run.py --workload pointwise --seed 1 --seconds 25 --trace 0

Run from anywhere; the library is imported from the `src/` directory next to
this one and nowhere else.  The next op starts only after the previous one
returns, and BLAS/OpenMP threads are capped at the number of usable cores.

`--trace 0` measures the end-to-end metrics.  `--trace 1` records spans
around every public function of every so3density module (see spans.py) on
alternate ops and reports the per-layer metrics, with the untraced ops in
between giving the tracing overhead.  Each op's output is checked by an
independent route outside the timed region; an op fails when it raises or its
check fails.  The metrics printed are the ones BENCHMARK.json lists, and the
last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import COUNTER_NAMES, HARNESS, LAYERS, Tracer  # standard library only

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_tmp"  # temporary CLI outputs, removed after each run
TRACE_DIR = ROOT / ".bench_out"  # span dumps of traced runs
SETUP_REPEATS = 3  # set-ups timed per run (this process plus fresh ones)
TRACED_MIN_OPS = 4  # a traced run needs two traced and two untraced ops
COUNTED_OPS = 2  # work counters cover the first two traced ops
WARM_UP_OP = -1  # op index of the untimed warm-up (its inputs are the last ones drawn)


def cap_threads():
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= n:
            os.environ[var] = str(n)
    return n


def timed_setup(name, seed, trace=False):
    """Import so3density and build workload `name`.

    Returns (workload, seconds, tracer).  With `trace`, a tracer is installed
    right after the import and the build is recorded as op "setup"; otherwise
    the tracer is None.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    if not Path(workloads.PACKAGE.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"so3density imported from {workloads.PACKAGE.__file__}, not {SRC}")
    tracer = None
    if trace:
        tracer = Tracer(workloads.PACKAGE)
        tracer.install()
        tracer.begin("setup")
    try:
        wl = workloads.WORKLOADS[name](seed, WORKDIR)
    finally:
        if tracer is not None:
            tracer.end()
    return wl, time.perf_counter() - t0, tracer


def setup_probe(name, seed):
    """Set-up time in a fresh interpreter, as a user pays it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(latencies):
    """(value, percentile, ops beyond): the highest percentile with at least
    ten ops beyond it; with fewer than eleven ops, the maximum."""
    xs = sorted(latencies)
    idx = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - 1 - idx


def environment(n_threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": n_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def attempt(wl, i, tracer=None):
    """Run op i, timed, and check it untimed; never raises.

    Returns (latency, deviation, problems, work counts).  With `tracer`, the
    op (and only the op) is recorded as span scope i.
    """
    if tracer is not None:
        tracer.begin(i)
    err = None
    t0 = time.perf_counter()
    try:
        out = wl.run_op(i)
    except Exception:
        err = traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.end()
    if err is not None:
        return dt, 0.0, [err], {}
    try:
        return (dt, *wl.check(i, out))
    except Exception:
        return dt, 0.0, [traceback.format_exc(limit=3)], {}


def run_ops(wl, seconds, tracer):
    """Closed loop until `seconds` of timed op time.

    Returns (records, largest deviation, problems, whether the warm-up op
    passed); a record is (op, latency, ok, traced).
    """
    if tracer is not None:
        tracer.uninstall()
    # one untimed op first: the first op in a process runs ~10% slower
    # (allocator and page cache warming), which would otherwise be the tail
    _, deviation, warm_problems, _ = attempt(wl, WARM_UP_OP)
    problems = [f"warm-up op: {p}" for p in warm_problems]
    records = []
    timed = 0.0
    min_ops = TRACED_MIN_OPS if tracer else 1
    i = 0
    while timed < seconds or i < min_ops:
        gc.collect()
        traced = tracer is not None and i % 2 == 0
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
        dt, dev, op_problems, op_counts = attempt(wl, i, tracer if traced else None)
        timed += dt
        deviation = max(deviation, dev)
        if traced:
            for key, amount in op_counts.items():
                tracer.count(i, key, amount)
        problems += [f"op {i}: {p}" for p in op_problems]
        records.append((i, dt, not op_problems, traced))
        i += 1
    return records, deviation, problems, not warm_problems


def end_to_end(records, seconds_timed, setup_samples):
    ok = [dt for _, dt, good, _ in records if good] or [dt for _, dt, _, _ in records]
    value, pct, beyond = tail(ok)
    metrics = {
        "ops_per_s": sum(1 for r in records if r[2]) / seconds_timed,
        "op_p50_s": statistics.median(ok),
        "op_tail_s": value,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"tail_percentile": pct, "tail_ops_beyond": beyond, "latency_ops": len(ok),
              "latencies_s": [round(r[1], 6) for r in records],
              "setup_samples_s": setup_samples}
    return metrics, detail


def per_layer(tracer, records):
    traced = [r[0] for r in records if r[3]]
    metrics, accounted = tracer.summarize(traced, traced[:COUNTED_OPS])
    setup, _ = tracer.summarize(["setup"], ["setup"])
    metrics.update({"setup." + k: v for k, v in setup.items()})

    def rate(sel):
        n = sum(1 for r in records if sel(r))
        return n / sum(r[1] for r in records if sel(r))

    metrics["trace.ops_per_s"] = rate(lambda r: r[3])
    metrics["trace.untraced_ops_per_s"] = rate(lambda r: not r[3])
    metrics["trace.overhead_pct"] = 100.0 * (
        1.0 - metrics["trace.ops_per_s"] / metrics["trace.untraced_ops_per_s"]
    )
    metrics["trace.accounted_share"] = accounted
    return metrics


def known_per_layer(name, tracer, available):
    """Whether `name` is a metric the run could report; a misspelt one would
    otherwise read 0 like a function that was never called."""
    base = name.removeprefix("setup.")
    if name in available or base in COUNTER_NAMES:
        return True
    stem, _, suffix = base.rpartition(".")
    if suffix == "self_s" and stem in LAYERS + (HARNESS,):
        return True
    return suffix in ("calls", "busy_s", "self_s") and stem in tracer.names


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    contract_path = ROOT / "BENCHMARK.json"
    if not (SRC / "so3density" / "__init__.py").is_file() or not contract_path.is_file():
        print(f"no so3density sources under {SRC} or no {contract_path.name}", file=sys.stderr)
        return 2
    contract = json.loads(contract_path.read_text())
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    n_threads = cap_threads()

    if args.setup_probe:
        wl, seconds, _ = timed_setup(args.workload, args.seed)
        wl.close()
        print(json.dumps({"setup_s": seconds}))
        return 0

    wl, setup_s, tracer = timed_setup(args.workload, args.seed, bool(args.trace))
    try:
        setup_samples = [setup_s]
        if tracer is None:
            setup_samples += [setup_probe(args.workload, args.seed)
                              for _ in range(SETUP_REPEATS - 1)]
        records, deviation, problems, warm_ok = run_ops(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    timed = sum(r[1] for r in records)
    failed = sum(1 for r in records if not r[2])
    e2e, detail = end_to_end(records, timed, setup_samples)
    detail.update(workload=args.workload, seed=args.seed, ops=len(records),
                  timed_s=timed, max_deviation=deviation, problems=problems[:5],
                  env=environment(n_threads))
    detail.update(wl.info())
    correct = failed == 0 and warm_ok
    if tracer is None:
        wanted = contract["end_to_end"]
        available = e2e
    else:
        wanted = contract["per_layer"]
        available = per_layer(tracer, records)
        unknown = [m["name"] for m in wanted if not known_per_layer(m["name"], tracer, available)]
        if unknown:
            print(f"BENCHMARK.json lists unknown per-layer metrics: {unknown}", file=sys.stderr)
            return 2
        share = available["trace.accounted_share"]
        if not abs(share - 1.0) <= 1e-6:
            problems.append(f"span self times account for {share:.9f} of traced op time")
            correct = False
        layers = {k[: -len(".self_s")]: v for k, v in available.items()
                  if k.count(".") == 1 and k.endswith(".self_s")}
        detail["layer_self_s_per_op"] = dict(sorted(layers.items(), key=lambda kv: -kv[1]))
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    metrics = {m["name"]: {"value": float(available.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"ops {len(records)}, failed {failed}, timed {timed:.2f} s, "
          f"tail p{detail['tail_percentile']:.1f} with {detail['tail_ops_beyond']} ops beyond, "
          f"max deviation {deviation:.3e}")
    for p in problems[:5]:
        print("problem:", p.strip().replace("\n", " | "))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
