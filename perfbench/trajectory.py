"""Run the benchmark over several seeds and write one trajectory point.

    python3 perfbench/trajectory.py --label <commit> --seeds 1-10

For every seed (outer loop) and every workload in BENCHMARK.json (inner
loop) this runs ``run.py --trace 0`` for ``run_seconds``, then one
``--trace 1`` run per workload, and writes ``results/BENCH_<label>.json``:
the raw values of every run, and per reported end-to-end figure the median,
quartiles and the spread (q3 - q1) / median, beside the figure's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    first, last = (int(part) for part in text.split("-"))
    return list(range(first, last + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
              for line in lines if line.startswith(("env ", "report "))}
    return tagged["env"], tagged.get("report"), json.loads(lines[-1])


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of the measured commit")
    parser.add_argument("--seeds", default="1-10", help="first-last, as in 1-10")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    env = None
    for seed in seeds:
        for workload in workloads:
            env, report, result = run_once(workload, seed, seconds, 0)
            runs[workload].append({"seed": seed, "report": report, **result})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in report.items()), flush=True)

    summary, traced = {}, {}
    for workload in workloads:
        summary[workload] = {
            name: summarize([r["report"][name]["value"] for r in runs[workload]],
                            bounds.get(name))
            for name in runs[workload][0]["report"]
        }
        _, _, traced[workload] = run_once(workload, seeds[0], seconds, 1)

    print(f"\n{'workload':<18}{'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            bound = "-" if s["bound"] is None else f"{s['bound']:.2f}"
            print(f"{workload:<18}{name:<14}{s['median']:>14.6g}{s['q1']:>14.6g}"
                  f"{s['q3']:>14.6g}{s['spread']:>9.4f}{bound:>7}")
    out = BENCH / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "label": args.label,
        "seconds": seconds,
        "seeds": seeds,
        "env": env,
        "summary": summary,
        "traced": traced,
        "runs": runs,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
