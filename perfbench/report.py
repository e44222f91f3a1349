"""Run the benchmark over workloads and seeds and print every metric by name.

Usage, from the root of a checkout:

    python3 perfbench/report.py                      # each workload, seed 1
    python3 perfbench/report.py --seeds 1-10         # ten runs per workload
    python3 perfbench/report.py --trace --seeds 1    # per-layer metrics

Each run is ``perfbench/run.py`` in its own process.  For every workload and
metric the table gives the median over the runs, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
which BENCHMARK.json's bounds are compared with.  ``--json PATH`` also writes
the table and every run's result and details (seed, derived seeds,
environment, pass times).  The exit code is 1 when a run fails or
reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """The result line of one run and the detail line before it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(result), json.loads(detail)


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}

    ok = True
    report = {"kind": kind, "seeds": parse_seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        details = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in report["seeds"]]
        runs = [result for result, _ in details]
        ok &= all(r["correct"] for r in runs)
        table = {name: {"unit": runs[0]["metrics"][name]["unit"],
                        **summarize([r["metrics"][name]["value"] for r in runs])}
                 for name in bounds}
        report["workloads"][workload] = {"table": table, "runs": [
            {"result": result, "detail": detail} for result, detail in details]}
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n{workload}: {len(runs)} run(s), {failed}/{attempted} cases failed, "
              f"correct={all(r['correct'] for r in runs)}")
        print(f"  {'metric':32} {'unit':6} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, row in table.items():
            bound = "" if bounds[name] is None else f"{bounds[name]:.2f}"
            print(f"  {name:32} {row['unit']:6} {row['median']:14.6g} {row['q1']:14.6g} "
                  f"{row['q3']:14.6g} {row['spread']:8.4f} {bound:>6}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
