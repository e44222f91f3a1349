"""Benchmark of isoplab's competitor pipeline and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: radial_rotation, angular_circle, angular_descent, cli_batch (see
``workloads.py``).  The program is imported from the checkout's ``src``
directory; the run fails with exit code 2 when it is not there.

``--trace 0`` runs whole passes over the workload's cases, one after another
in this process, and starts another pass only while the elapsed time plus the
last pass's time stays within ``--seconds`` (at least one pass, two for
angular_descent and cli_batch).  It reports the end-to-end metrics: ``wall_s`` (fastest pass),
``setup_s`` (median of three set-ups: imports, config parsing and Density
construction, one in this process and two in fresh interpreters),
``peak_rss_mb``, ``passed_frac`` (1 - failed_frac), ``mc_consistent_frac``,
``volume_matched_frac`` and ``bound_ok_frac``.  BLAS and OpenMP run on one
thread.

``--trace 1`` runs one untraced pass and two traced passes and reports the
per-layer metrics of the traced passes (mean times, counters that must repeat
exactly across the two, or the run is not correct) and the tracing overhead.

The last line of standard output is the JSON result; the line before it, and
``perfbench/.out/<workload>-seed<N>-trace<0|1>.json``, hold the details: seed,
derived seeds, environment, pass times and per-case outcomes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_SAMPLES = 3
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def bootstrap() -> None:
    """Cap BLAS/OpenMP threads at one and import isoplab from ``src``.

    Runs before numpy is imported, so the caps reach its thread pools.  The
    program's matrix products are small: a second OpenBLAS thread leaves the
    wall time unchanged while doubling the CPU time, and it slows runs several
    times over when another process shares the cores.
    """
    for var in THREAD_CAPS:
        os.environ[var] = "1"
    if not (SRC / "isoplab" / "__init__.py").is_file():
        fail(f"no isoplab package under {SRC}")
    sys.path.insert(0, str(SRC))


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def setup(workload: str, seed: int, workdir: Path):
    """Imports, config parsing and Density construction.

    Returns the workload, its cases and the seeds derived for them.
    """
    import isoplab
    if Path(isoplab.__file__).resolve().parent != SRC / "isoplab":
        fail(f"isoplab was imported from {isoplab.__file__}, not {SRC}")
    import workloads
    seeds = workloads.Seeds(seed)
    chosen = workloads.WORKLOADS[workload]
    return chosen, chosen.setup(seeds, workdir), seeds.derived


def declared(kind: str) -> dict[str, dict]:
    """The workloads or metrics of one kind that BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry for entry in spec[kind]}


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Set-up time in a fresh interpreter (``setup_probe.py``)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                     if k in blas},
            "thread_caps": {var: os.environ[var] for var in THREAD_CAPS}}


def run_pass(cases, instrument, tracer=None) -> tuple[float, list[dict]]:
    """Run every case once; a case that raises counts as failed."""
    outcomes = []
    t0 = time.perf_counter()
    for case in cases:
        fn = case.fn if tracer is None else tracer.wrap("case", case.fn)
        t_case = time.perf_counter()
        try:
            res = fn(instrument)
            outcome = {"case": case.name, "wall_s": time.perf_counter() - t_case,
                       "problems": res.problems,
                       "mc_consistent": res.mc_consistent, "matched": res.matched,
                       "bound_ok": res.bound_ok}
        except Exception as exc:  # a failing case is a result, not a harness error
            outcome = {"case": case.name, "wall_s": time.perf_counter() - t_case,
                       "problems": [f"{type(exc).__name__}: {exc}"],
                       "mc_consistent": [], "matched": [], "bound_ok": []}
        outcomes.append(outcome)
    return time.perf_counter() - t0, outcomes


def fraction(outcomes, key: str) -> float:
    flags = [flag for o in outcomes for flag in o[key]]
    return sum(flags) / len(flags)


def measure(workload, cases, seconds: float) -> tuple[list[float], list[dict]]:
    walls, outcomes = [], []
    t0 = time.perf_counter()
    while True:
        wall, out = run_pass(cases, lambda d: d)
        walls.append(wall)
        outcomes += out
        elapsed = time.perf_counter() - t0
        if len(walls) >= workload.min_passes and elapsed + wall > seconds:
            return walls, outcomes


def traced(cases, spans_path: Path) -> tuple[dict, dict]:
    """One untraced pass, then two traced passes whose counters must agree."""
    import numpy as np
    from tracing import COUNTERS, Tracer

    untraced_wall, outcomes = run_pass(cases, lambda d: d)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            wall, out = run_pass(cases, tracer.instrument, tracer)
        finally:
            tracer.uninstall()
        outcomes += out
        runs.append((wall, tracer))
    first, second = (t.metrics() for _, t in runs)
    differing = [name for name in COUNTERS if first[name] != second[name]]
    metrics = {name: (first[name] + second[name]) / 2 if name.endswith("_s")
               else first[name] for name in first}
    traced_wall = statistics.fmean(wall for wall, _ in runs)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    tracer = runs[-1][1]
    np.savez_compressed(spans_path, names=np.array(tracer.names), **tracer.spans())
    detail = {"untraced_wall_s": untraced_wall,
              "traced_wall_s": [wall for wall, _ in runs],
              "differing_counters": differing,
              "spans": {"count": len(tracer.start), "file": str(spans_path.relative_to(ROOT))},
              "by_span_name": tracer.by_name(), "outcomes": outcomes}
    return metrics, detail


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(declared("workloads")))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        workload, cases, derived_seeds = setup(args.workload, args.seed, workdir)
        setup_times = [time.perf_counter() - t_start]
        if args.trace:
            OUT.mkdir(exist_ok=True)
            metrics, detail = traced(cases, OUT / f"{args.workload}-seed{args.seed}-spans.npz")
            outcomes = detail["outcomes"]
            correct_counters = not detail["differing_counters"]
        else:
            setup_times += [probe_setup(args.workload, args.seed,
                                        workdir.with_name(workdir.name + f"-probe{i}"))
                            for i in range(SETUP_SAMPLES - 1)]
            walls, outcomes = measure(workload, cases, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failed = sum(bool(o["problems"]) for o in outcomes)
            metrics = {
                "setup_s": statistics.median(setup_times),
                # a shared host's speed can drift by 2x over seconds to
                # minutes; the fastest pass is the one least slowed by that
                "wall_s": min(walls),
                "peak_rss_mb": peak_rss_mb,
                "passed_frac": 1.0 - failed / len(outcomes),
                "mc_consistent_frac": fraction(outcomes, "mc_consistent"),
                "volume_matched_frac": fraction(outcomes, "matched"),
                "bound_ok_frac": fraction(outcomes, "bound_ok"),
            }
            detail = {"pass_wall_s": walls, "setup_s": setup_times, "outcomes": outcomes}
            correct_counters = True
    finally:
        for path in OUT.glob(f"work-{args.workload}-{os.getpid()}*"):
            shutil.rmtree(path, ignore_errors=True)

    failures = [(o["case"], o["problems"]) for o in outcomes if o["problems"]]
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "derived_seeds": derived_seeds,
              "environment": environment(), "failures": failures,
              "metrics": metrics, **detail}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n")
    summary = {k: v for k, v in detail.items() if k not in ("outcomes", "by_span_name")}
    print(json.dumps(summary, default=str))
    reported = declared("per_layer" if args.trace else "end_to_end")
    result = {"correct": not failures and correct_counters,
              "attempted": len(outcomes), "failed": len(failures),
              "metrics": {name: {"value": metrics[name], "unit": entry["unit"]}
                          for name, entry in reported.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
