"""Fast self-test of the benchmark harness on a miniature configuration.

Run from the root of a checkout with ``python3 -m pytest -q perfbench``.  It
runs one small competitor case, two small CLI commands and one library call
through the same pass, trace and check code the workloads use.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()

import isoplab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Case, CaseResult  # noqa: E402


def mini_cases(workdir: Path) -> list[Case]:
    seeds = workloads.Seeds(7)
    exp2 = isoplab.density_from_config(json.loads(workloads.family("radial_exp", 2, c=1.0)))
    runner = workloads.CliRunner(workdir)

    def check_morgan(out, res):
        res.require(json.loads((out / "morgan.json").read_text())["residual"] < 1e-9,
                    "residual")

    def admissibility(instrument):
        res = CaseResult()
        res.require(isoplab.check_admissibility(isoplab.excess_kernel(2)).passed,
                    "not admissible")
        return res

    return [
        workloads.competitor_case("mini.radial_exp.N2", exp2, 10.0, seeds("mini"),
                                  cylinder=True),
        runner.case("morgan", [("", ["morgan", "--c2", "1.0", "--dim", "2", "--m0", "1.0",
                                     "--step", "0.05", "--seed", str(seeds("cli"))], 0)],
                    check_morgan),
        runner.case("kernels", [("", ["kernels", "--dim", "3", "--grid", "11"], 0)],
                    lambda out, res: None),
        Case("lib.admissibility", admissibility),
    ]


@pytest.fixture
def tmp_path(request):
    """A fresh directory inside the checkout, removed after the test."""
    path = HERE / ".out" / "selftest" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def cases(tmp_path):
    return mini_cases(tmp_path)


def test_untraced_pass_checks_every_case(cases):
    wall, outcomes = run.run_pass(cases, lambda d: d)
    assert wall > 0
    assert [o["problems"] for o in outcomes] == [[]] * len(cases)
    assert outcomes[0]["mc_consistent"] == [True]
    assert outcomes[0]["matched"] == [True, True]     # competitor and cylinder
    assert outcomes[0]["bound_ok"] == [True, False]   # the cylinder's a-priori bound


def test_trace_reports_every_declared_metric_and_repeats_counters(cases, tmp_path):
    metrics, detail = run.traced(cases, tmp_path / "spans.npz")
    assert detail["differing_counters"] == []
    assert set(run.declared("per_layer")) <= set(metrics)
    assert metrics["competitor.gap_evals"] > 0
    assert metrics["density.deficit_points"] > 0
    assert metrics["cli.bytes_written"] > 0
    # self times of all spans add up to the traced wall time of the pass
    total = sum(row["self_s"] for row in detail["by_span_name"].values())
    assert total == pytest.approx(detail["traced_wall_s"][-1], rel=0.05)
    assert (tmp_path / "spans.npz").is_file()


def test_uninstall_restores_the_program():
    original = isoplab.competitor.volume_match
    tracer = tracing.Tracer()
    tracer.install()
    assert isoplab.competitor.volume_match is not original
    assert isoplab.volume_match is isoplab.competitor.volume_match
    tracer.uninstall()
    assert isoplab.competitor.volume_match is original
    assert isoplab.volume_match is original


def test_counters_include_evaluations_forwarded_by_rescale():
    d = isoplab.density_from_config(json.loads(workloads.family("radial_exp", 2, a=2.0, c=1.0)))
    tracer = tracing.Tracer()
    scaled, _ = isoplab.rescale(tracer.instrument(d), 1.0)
    scaled.deficit(np.zeros((5, 2)))
    assert tracer.counters["density.deficit_points"] == 5


def test_raising_case_and_changed_output_fail(tmp_path):
    runner = workloads.CliRunner(tmp_path)
    flip = iter(["1.0", "2.0"])
    changing = runner.case("morgan", [("", ["morgan", "--c2", "1.0", "--dim", "2",
                                            "--m0", "1.0", "--step", "0.05"], 0)],
                           lambda out, res: (out / "extra.txt").write_text(next(flip)))

    def boom(instrument):
        raise RuntimeError("boom")

    _, first = run.run_pass([changing, Case("boom", boom)], lambda d: d)
    _, second = run.run_pass([changing], lambda d: d)
    assert first[0]["problems"] == []
    assert first[1]["problems"] == ["RuntimeError: boom"]
    assert second[0]["problems"] == ["outputs differ from the first pass"]


def test_wrong_exit_code_fails(tmp_path):
    runner = workloads.CliRunner(tmp_path)
    case = runner.case("bad", [("", ["check-density"], 0)], lambda out, res: None)
    _, outcomes = run.run_pass([case], lambda d: d)
    assert outcomes[0]["problems"] == ["check-density exited 1, expected 0"]


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
