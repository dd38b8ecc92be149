"""hsmimo benchmark: one command, one process, four workloads.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the library is imported from ``src/``.
Workloads (see ``workloads.py`` and ``METRICS.md``): ``train_ths``,
``eval_iid``, ``eval_block``, ``diagnose_noiseless``.

``--trace 0`` times a closed loop of units for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed number of units twice, once
plain and once with the tracing shims installed, and reports the per-layer
metrics; fixed work makes the counts repeat exactly, and the plain runs give
the tracing overhead.  Every run checks its
outputs with the workload's gates after timing stops.  The last line of
standard output is the result as one JSON object; a run whose gates fail
exits with code 1, a run that cannot set up exits with code 2 and prints no
result.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("train_ths", "eval_iid", "eval_block", "diagnose_noiseless")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error(f"--seed must be non-negative, got {args.seed}")
    if args.seconds <= 0:
        p.error(f"--seconds must be positive, got {args.seconds}")
    return args


def import_library() -> float:
    """Import the library from this checkout; seconds since the process's
    first benchmark statement (the import is paid once, on first call)."""
    if not (SRC / "hsmimo" / "__init__.py").is_file():
        raise ImportError(f"library source not found at {SRC / 'hsmimo'}")
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads  # noqa: F401  (numpy, hsmimo and the benchmark modules)
    return time.perf_counter() - _T_START


def machine_record(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def run_unit(workload, state, seed, k):
    """Unit k of the workload and its wall seconds; a unit that raises
    counts all its operations as failed and the run goes on."""
    start = time.perf_counter()
    try:
        result = workload.unit(state, seed, k)
    except Exception:
        traceback.print_exc()
        result = workload.failed_unit(state)
    return result, time.perf_counter() - start


def run_timed(workload, state, seed, min_units, seconds):
    """Units 0, 1, ...: at least ``min_units``, then while the next one
    should still end within ``seconds``.  Returns (results, unit seconds)."""
    results, times = [], []
    begin = time.perf_counter()
    while len(results) < min_units or time.perf_counter() - begin + times[-1] <= seconds:
        result, elapsed = run_unit(workload, state, seed, len(results))
        results.append(result)
        times.append(elapsed)
    return results, times


def run_traced(workload, state, seed, units, tracer):
    """Each of ``units`` units plain and then traced, interleaved so that
    drift in machine speed falls on both alike.  Returns (plain results,
    traced results, plain seconds, traced seconds)."""
    plain, traced, plain_s, traced_s = [], [], 0.0, 0.0
    for k in range(units):
        result, elapsed = run_unit(workload, state, seed, k)
        plain.append(result)
        plain_s += elapsed
        with tracer:
            result, elapsed = run_unit(workload, state, seed, k)
        traced.append(result)
        traced_s += elapsed
    return plain, traced, plain_s, traced_s


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import specs
    from tracing import Tracer
    from workloads import WORKLOADS, Gate, SetupError

    sizes = sizes or specs.DEFAULT_SIZES
    workload = WORKLOADS[args.workload]
    machine = machine_record(args.seed)
    print("machine " + json.dumps(machine, sort_keys=True), flush=True)

    setup_times = []
    try:
        for _ in range(sizes.setup_repeats):
            start = time.perf_counter()
            state = workload.setup(sizes, args.seed)
            setup_times.append(time.perf_counter() - start)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine,
              "setup_repeats_s": setup_times, "import_s": import_s}
    metrics = {}
    if args.trace == 0:
        results, times = run_timed(workload, state, args.seed, sizes.min_units, args.seconds)
        rates = [r.ops / t for r, t in zip(results, times) if not r.failed]
        metrics["setup_s"] = _metric(import_s + statistics.median(setup_times), "s")
        metrics["ops_per_s"] = _metric(statistics.median(rates) if rates else 0.0, "1/s")
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        record["unit_s"] = times
        checked = results
        gates_extra = []
    else:
        tracer = Tracer()
        plain, checked, plain_s, traced_s = run_traced(
            workload, state, args.seed, sizes.traced_units[args.workload], tracer)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        for name, (value, unit) in tracer.layer_metrics().items():
            metrics[name] = _metric(value, unit)
        metrics["trace.overhead_share"] = _metric(1.0 - plain_s / traced_s, "share")
        record.update(plain_s=plain_s, traced_s=traced_s, spans=spans_path.name)
        same = [_same_output(a, b) for a, b in zip(plain, checked)]
        gates_extra = [Gate("trace.outputs_unchanged", all(same),
                            f"{sum(same)}/{len(same)} units give identical outputs traced "
                            f"and untraced")]

    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    done = [r for r in checked if r.output is not None]
    if done:
        gates = workload.gates(state, args.seed, done) + gates_extra
    else:
        gates = [Gate("units.completed", False, f"all {len(checked)} units failed")]
    correct = all(g.ok for g in gates)
    for g in gates:
        print(f"gate {g.name}: {'PASS' if g.ok else 'FAIL'} ({g.detail})")
    print(f"metric failed_share = {failed / attempted!r} share ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")

    record.update(metrics=metrics, attempted=attempted, failed=failed, correct=correct,
                  gates=[vars(g) for g in gates])
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=_jsonable) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def _same_output(a, b) -> bool:
    import numpy as np

    if a.output is None or b.output is None:
        return a.output is b.output
    left, right = a.output, b.output
    if isinstance(left, tuple):  # train_ths: (final loss, params)
        return left[0] == right[0] and all(
            np.array_equal(u, v) for u, v in zip(vars(left[1]).values(), vars(right[1]).values()))
    return all(np.array_equal(left[k], right[k]) for k in left)


def _jsonable(value):
    return value.tolist() if hasattr(value, "tolist") else str(value)


if __name__ == "__main__":
    sys.exit(main())
