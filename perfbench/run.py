"""Pipeline benchmark for legdiff: one workload per invocation.

    python3 perfbench/run.py --workload mc_table1 --seed 1 --seconds 25 --trace 0

Run from anywhere inside a legdiff checkout; the program is imported from the
checkout's ``src/``.  The load is a closed loop from this one process: one op
at a time, each started when the previous one returned, one BLAS thread.
Every op's output is checked against the references in ``refs/``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` a separate traced
run's per-layer metrics (see NOTES.md).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before numpy and legdiff load

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"

MIN_SAMPLES = 50  # so that at least 5 samples lie beyond op_p90_ms
MAX_MEASURE_S = 120.0  # cap on the measured loop when ops are slow
SETUP_PROBES = 5  # cold set-ups per run; setup_s is their median
TRACED_MIN_OPS = 3

# Every end-to-end figure a run prints.  BENCHMARK.json gates the ones whose
# spread over runs stays within a bound on a shared machine (see NOTES.md).
REPORTED_UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "coeffs_per_s": "1/s", "peak_rss_mb": "MiB", "ok_frac": "frac", "fail_frac": "frac",
}

# Per-layer times: mean self time of one call of the span, in ms.
LAYER_SPANS = {
    "method.run_ms": "method.run",
    "metrics.l2_error_ms": "metrics.l2_error",
    "metrics.sup_error_ms": "metrics.sup_error",
    "coeffs.trapezoid_coeffs_ms": "coeffs.trapezoid_coeffs",
    "coeffs.exact_coeffs_ms": "coeffs.exact_coeffs",
    "coeffs.load_csv_ms": "coeffs.load_csv",
    "coeffs.restrict_ms": "coeffs.restrict",
    "index.members_ms": "index.members",
    "noise.perturb_ms": "noise.perturb",
    "cli.import_ms": "cli.import",
    "cli.process_ms": "cli.process",
    "experiments.run_table_ms": "experiments.run_table",
}


def limit_blas_threads() -> int:
    """Pin BLAS/OpenMP to one thread before numpy loads; returns nproc.

    One op in flight on one core: on a shared 2-core machine a second BLAS
    thread made ops slower and their times far more variable.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_program():
    """Import legdiff from this checkout's src/, and from nowhere else."""
    package = ROOT / "src" / "legdiff"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no legdiff package at {package}; run inside a legdiff checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import legdiff

    if Path(legdiff.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported legdiff from {legdiff.__file__}, not {package}")
    return legdiff


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment(legdiff, nproc: int, args) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "legdiff_using_numba": getattr(legdiff, "USING_NUMBA", None),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client process, 1 op in flight",
    }


def percentile(ordered: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile of sorted samples, and its rank (1-based)."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], rank


def setup_probe(args) -> float:
    """One cold set-up in a fresh process; returns its set-up seconds."""
    from workloads import run_child

    code, out, err, _ = run_child([
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ])
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}: {err.decode(errors='replace')}")
    return json.loads(out.decode().splitlines()[-1])["setup_s"]


def attempt(w, i: int, errors: list) -> tuple[float, str | None, int]:
    """Run op i, then check it: (op seconds, check status, coefficients consumed)."""
    t0 = time.perf_counter()
    try:
        result = w.op(i)
    except Exception:  # a raising op is a failed op; the loop goes on
        errors.append(traceback.format_exc())
        return time.perf_counter() - t0, None, 0
    seconds = time.perf_counter() - t0
    try:
        status, coeffs = w.check(result)
    except Exception:
        errors.append(traceback.format_exc())
        return seconds, None, 0
    return seconds, status, coeffs


def end_to_end(args, units: dict) -> tuple[dict, int, int]:
    from workloads import make

    # Set-ups are spread over the run, so that their median does not rest on
    # one moment of a shared machine.
    setups = [setup_probe(args)]
    w = make(args.workload, args.seed, OUT)
    w.warm()
    rss_start = len(w.child_rss_kib)
    latencies, oks, tally, errors = [], [], Counter(), []
    consumed = 0
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (elapsed >= args.seconds and i >= MIN_SAMPLES):
            break
        if len(setups) < SETUP_PROBES and elapsed >= len(setups) * args.seconds / SETUP_PROBES:
            setups.append(setup_probe(args))
        seconds, status, coeffs = attempt(w, i, errors)
        latencies.append(seconds)
        oks.append(status is not None)
        tally[status or "mismatch"] += 1
        consumed += coeffs if status is not None else 0
        i += 1
    wall = time.perf_counter() - start
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args))
    busy = sum(latencies)
    # A failed op counts as missing every latency limit: give it the worst latency seen.
    worst = max(latencies)
    ordered = sorted(t if ok else worst for t, ok in zip(latencies, oks))
    failed = oks.count(False)
    high, high_rank = percentile(ordered, 0.9)
    child_rss = w.child_rss_kib[rss_start:]
    rss_kib = statistics.median(child_rss) if child_rss else resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": 1e3 * statistics.median(ordered),
        "op_p90_ms": 1e3 * high,
        "coeffs_per_s": consumed / busy,
        "peak_rss_mb": rss_kib / 1024.0,
        "ok_frac": (i - failed) / i,
        "fail_frac": failed / i,
    }
    notes = {
        "setup_s": f"median of {len(setups)} cold set-ups (imports and inputs)",
        "op_p50_ms": f"n={i}",
        "op_p90_ms": f"n={i}, {i - high_rank} beyond",
        "coeffs_per_s": f"{consumed} coefficients over {busy:.3f} s of ops ({wall:.3f} s loop)",
        "peak_rss_mb": ("median over CLI processes of each one's peak" if child_rss
                        else "this process"),
        "ok_frac": f"{i - failed} of {i} ops returned and matched the references",
        "fail_frac": f"{failed} of {i} ops raised or failed the reference check",
    }
    print(f"workload {args.workload}: {i} ops in {wall:.3f} s (* = gated in BENCHMARK.json)")
    for name, unit in REPORTED_UNITS.items():
        mark = "*" if name in units else " "
        print(f" {mark}{name:<14} {values[name]!r:<24} {unit:<6} {notes[name]}")
    print(f"  reference check: {dict(sorted(tally.items()))}")
    print("report " + json.dumps(
        {name: {"value": values[name], "unit": unit} for name, unit in REPORTED_UNITS.items()}))
    for text in errors[:1]:
        print(text, file=sys.stderr)
    return values, i, failed


def traced(args, units: dict) -> tuple[dict, int, int]:
    from spans import Tracer
    from workloads import make

    tracer = Tracer()
    w = make(args.workload, args.seed, OUT, tracer)
    w.warm()
    problems = []
    start = time.perf_counter()
    i = 0
    while i < TRACED_MIN_OPS or time.perf_counter() - start < args.seconds:
        if time.perf_counter() - start >= MAX_MEASURE_S:
            break
        tracer.op = i
        try:
            with tracer.span(w.untraced_span):
                base = w.untraced(i)
            with tracer.span("op"):
                got = w.replay(i, tracer)
            problem = w.extras(i, tracer)
            if problem is None and None in (w.check_replay(base)[0], w.check_replay(got)[0]):
                problem = "output failed its reference check"
            elif problem is None and not identical(got, base):
                problem = "traced replay differs from the untraced op"
        except Exception:  # a raising op is a failed op; the loop goes on
            problem = traceback.format_exc()
        if problem is not None:
            problems.append(f"op {i}: {problem}")
        i += 1
    tracer.op = "setup"
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}.json",
                 {"workload": args.workload, "seed": args.seed, "ops": i})

    self_times = tracer.self_times()
    values = {}
    for metric, span in LAYER_SPANS.items():
        calls = self_times.get(span, [])
        values[metric] = 1e3 * sum(calls) / len(calls) if calls else 0.0
    for metric, unit in units.items():
        if unit in ("count", "flop", "B"):
            values[metric] = tracer.counts[metric] / i
    dense = values["method.dense_entries"]
    values["method.useful_frac"] = values["method.card"] / dense if dense else 0.0
    values["trace.overhead_frac"] = (
        statistics.median(tracer.durations("op"))
        / statistics.median(tracer.durations(w.untraced_span)) - 1.0
    )
    failed = len(problems)
    print(f"workload {args.workload} traced: {i} ops, {len(tracer.spans)} spans")
    for name in units:
        print(f"  {name:<28} {values[name]!r:<24} {units[name]}")
    print("  times are mean self time per call, set-up included; counts are per op and "
          "computed from array shapes at the benchmark's call sites")
    for text in problems[:3]:
        print(text, file=sys.stderr)
    return values, i, failed


def identical(a, b) -> bool:
    import numpy as np

    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return (isinstance(b, type(a)) and len(a) == len(b)
                and all(identical(x, y) for x, y in zip(a, b)))
    return a == b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nproc = limit_blas_threads()
    legdiff = import_program()
    from workloads import WORKLOADS, make

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        make(args.workload, args.seed, OUT / "probe")
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    print("env " + json.dumps(environment(legdiff, nproc, args)))
    values, attempted, failed = (traced if args.trace else end_to_end)(args, units)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
