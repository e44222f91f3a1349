import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import isoplab
from isoplab.cli import run, write_csv


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


EXP2 = {"family": "radial_exp", "dim": 2, "a": 1.0, "params": {"c": 1.0},
        "envelope_radius": 0.0}
CONST2 = {"family": "constant", "dim": 2, "a": 1.0}


def test_check_density_pass(tmp_path):
    cfg = write_cfg(tmp_path, {"density": EXP2})
    assert run(["--out", str(tmp_path / "o"), "check-density", "--config", cfg]) == 0
    report = json.loads((tmp_path / "o" / "check_density.json").read_text())
    assert report["passed"] is True
    assert report["schema_version"] == 1


def test_missing_dim_is_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"density": {"family": "constant", "a": 1.0}})
    code = run(["--out", str(tmp_path / "o"), "check-density", "--config", cfg])
    assert code == 1
    assert "dim: required" in capsys.readouterr().err


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert run(["--out", str(tmp_path / "o"), "check-density"]) == 1
    assert "config: required" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload, field", [
    ("check-density", {"density": {**EXP2, "a": None}}, "a"),
    ("check-density", {"density": {**EXP2, "a": "x"}}, "a"),
    ("check-density", {"density": {**EXP2, "dim": 2.7}}, "dim"),
    ("check-density", {"density": {**EXP2, "params": 5}}, "params"),
    ("check-density", {"density": {**EXP2, "params": {"c": None}}}, "params.c"),
    ("check-density", {"density": {**EXP2, "envelope_radius": [1]}},
     "envelope_radius"),
    ("check-density", {"density": {"family": "angular_mod", "dim": 2, "a": 1.0,
                                   "params": {"k": "two"}}}, "params.k"),
    ("check-density", [1, 2], "config"),
    ("measure", {"density": EXP2, "set": {"variant": "plain_ball", "offset": None}},
     "set.offset"),
    ("measure", {"density": EXP2, "set": {"variant": "plain_ball", "dim": 3.5}},
     "set.dim"),
    ("measure", {"density": EXP2, "set": {"variant": "cylinder_extended",
                                          "delta": [1]}}, "set.delta"),
    ("measure", {"density": EXP2, "set": {"variant": "plain_ball", "direction": 5}},
     "set.direction"),
])
def test_malformed_config_values_name_their_field(tmp_path, capsys, command,
                                                  payload, field):
    # each value fails its conversion inside the program, as a usage error
    # that names the field, not as a traceback or a "failure:"
    cfg = write_cfg(tmp_path, payload)
    assert run(["--out", str(tmp_path / "o"), command, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_kernels_csv_schema(tmp_path):
    code = run(["--out", str(tmp_path / "o"), "kernels", "--dim", "3",
                "--rmin", "10.0", "--grid", "11"])
    assert code == 0
    lines = (tmp_path / "o" / "kernels.csv").read_text().strip().splitlines()
    assert lines[0] == "t,phi_exact,psi_exact,phi_asym,psi_asym"
    assert len(lines) == 12
    mid = [float(x) for x in lines[6].split(",")]
    assert mid[0] == pytest.approx(0.0, abs=1e-12)
    assert mid[2] == pytest.approx(math.pi, rel=1e-12)   # psi_exact(0), n = 3
    assert mid[3] == pytest.approx(2 * math.pi, rel=1e-12)


def test_measure_plain_ball(tmp_path):
    cfg = write_cfg(tmp_path, {"density": CONST2,
                               "set": {"variant": "plain_ball", "dim": 2,
                                       "offset": 10.0}})
    assert run(["--out", str(tmp_path / "o"), "measure", "--config", cfg]) == 0
    rec = json.loads((tmp_path / "o" / "measure.json").read_text())
    assert rec["perimeter"]["value"] == pytest.approx(2 * math.pi, abs=1e-10)
    assert rec["volume"]["value"] == pytest.approx(math.pi, abs=1e-10)
    assert rec["perimeter"]["method"] == "quadrature"


def test_measure_monte_carlo(tmp_path):
    cfg = write_cfg(tmp_path, {"density": CONST2,
                               "set": {"variant": "rotation_swept", "dim": 2,
                                       "offset": 10.0, "delta": 0.01}})
    assert run(["--out", str(tmp_path / "o"), "measure", "--config", cfg,
                "--samples", "50000", "--seed", "3"]) == 0
    rec = json.loads((tmp_path / "o" / "measure.json").read_text())
    assert rec["volume"]["method"] == "monte_carlo"
    assert rec["volume"]["seed"] == 3
    # the weight is constant, so the lattice is exact up to the rounding
    # floor of its sum, ULP x ceil(log2 points) x sum |terms|
    points = rec["volume"]["samples_or_nodes"]
    floor = 2.0 ** -52 * math.ceil(math.log2(points)) * rec["volume"]["value"]
    assert abs(rec["volume"]["value"] - (math.pi + 0.2)) <= \
        4 * rec["volume"]["error_estimate"] + floor
    # the points drawn, within the budget of each measure
    assert rec["samples"] == 50_000 and rec["shifts"] == 16
    assert rec["points"] == (rec["perimeter"]["samples_or_nodes"] + points)
    assert 0 < points <= 50_000


def test_measure_requires_set(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"density": CONST2})
    assert run(["--out", str(tmp_path / "o"), "measure", "--config", cfg]) == 1
    assert "set: required" in capsys.readouterr().err


def test_kernel_search_degenerate_exit(tmp_path):
    cfg = write_cfg(tmp_path, {"density": CONST2})
    code = run(["--out", str(tmp_path / "o"), "kernel-search", "--config", cfg,
                "--rmin", "5.0", "--rmax", "10.0"])
    assert code == 2
    rec = json.loads((tmp_path / "o" / "kernel_search.json").read_text())
    assert rec["degenerate"] is True


def test_kernel_search_strict(tmp_path):
    cfg = write_cfg(tmp_path, {"density": EXP2})
    code = run(["--out", str(tmp_path / "o"), "kernel-search", "--config", cfg,
                "--rmin", "5.0", "--rmax", "15.0"])
    assert code == 0
    rec = json.loads((tmp_path / "o" / "kernel_search.json").read_text())
    assert rec["strict"] is True and rec["R"] == 5.0
    scan = (tmp_path / "o" / "kernel_search_scan.csv").read_text().splitlines()
    assert scan[0] == "R,correlation"


def test_far_ball_degenerate_exit(tmp_path):
    cfg = write_cfg(tmp_path, {"density": CONST2})
    code = run(["--out", str(tmp_path / "o"), "far-ball", "--config", cfg,
                "--rmin", "5.0", "--rmax", "12.0"])
    assert code == 2
    rec = json.loads((tmp_path / "o" / "far_ball.json").read_text())
    assert rec["degenerate"] is True


def test_far_ball_success(tmp_path):
    cfg = write_cfg(tmp_path, {"density": EXP2})
    code = run(["--out", str(tmp_path / "o"), "far-ball", "--config", cfg,
                "--eps", "0.05", "--rmin", "8.0", "--rmax", "20.0"])
    assert code == 0
    rec = json.loads((tmp_path / "o" / "far_ball.json").read_text())
    assert rec["margin"] >= -1e-10
    assert rec["theta"] == [1.0, 0.0]


def _angular(dim):
    return {"family": "angular_mod", "dim": dim, "a": 1.0,
            "params": {"eta": 0.5, "k": 1, "c": 1.0}}


@pytest.mark.parametrize("density", [EXP2, _angular(2), _angular(3)],
                         ids=["radial_exp-N2", "angular_mod-N2", "angular_mod-N3"])
def test_far_ball_measures_the_ball_once(tmp_path, monkeypatch, density):
    # the ball at the offset is measured once, by the far-ball search: a
    # radial weight's certificate is written with theta = e1, and any other
    # weight's direction is lifted from that certificate
    calls = []
    original = isoplab.farball.ball_deficit_measures

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)
    monkeypatch.setattr(isoplab.farball, "ball_deficit_measures", counted)
    cfg = write_cfg(tmp_path, {"density": density})
    assert run(["--out", str(tmp_path / "o"), "far-ball", "--config", cfg,
                "--eps", "0.05", "--rmin", "10.0", "--rmax", "200.0"]) == 0
    rec = json.loads((tmp_path / "o" / "far_ball.json").read_text())
    assert calls == [rec["R"]]
    if density is EXP2:
        assert rec["theta"] == [1.0, 0.0]
    else:
        assert len(rec["theta"]) == density["dim"]


def test_far_ball_far_offset_not_degenerate(tmp_path):
    # a deficit of ~ e^{-49} is tiny but positive: not degenerate, exit 0
    cfg = write_cfg(tmp_path, {"density": EXP2})
    code = run(["--out", str(tmp_path / "o"), "far-ball", "--config", cfg,
                "--eps", "0.05", "--rmin", "50.0", "--rmax", "200.0"])
    assert code == 0
    rec = json.loads((tmp_path / "o" / "far_ball.json").read_text())
    assert rec["degenerate"] is False
    assert rec["V_g"]["value"] > 0.0


def test_competitor_run_and_exit(tmp_path):
    cfg = write_cfg(tmp_path, {"density": EXP2})
    code = run(["--out", str(tmp_path / "o"), "competitor", "--config", cfg,
                "--eps", "0.05", "--rmin", "8.0", "--rmax", "30.0",
                "--samples", "20000", "--seed", "7"])
    assert code == 0
    rec = json.loads((tmp_path / "o" / "competitor.json").read_text())
    assert rec["strict"] is True
    assert abs(rec["volume_gap"]) <= 1e-6 * math.pi
    assert rec["mean_density"] < 1.0


def test_competitor_radial_writes_one_angle_advance_map(tmp_path):
    # a radial deficit's advance map is constant in the angle: one row
    cfg = write_cfg(tmp_path, {"density": EXP2})
    code = run(["--out", str(tmp_path / "o"), "competitor", "--config", cfg,
                "--eps", "0.05", "--rmin", "10.0", "--rmax", "40.0",
                "--samples", "20000", "--seed", "7"])
    assert code == 0
    rec = json.loads((tmp_path / "o" / "competitor.json").read_text())
    rows = (tmp_path / "o" / "advance_map.csv").read_text().splitlines()
    assert rows[0] == "theta,advance,mapped"
    assert len(rows) == 2
    theta, advance, mapped = map(float, rows[1].split(","))
    assert theta == 0.0
    assert advance == mapped == rec["match"]["delta_bar"] > 0.0
    assert rec["match"]["iterations"] == 0
    # the closed form's layer record, the band's two end points at N = 2,
    # and its deficit estimates
    bounds = rec["bounds"]
    assert bounds["layer_evaluations"][2] == 2
    assert 0.0 < bounds["margin_estimate"] < 1e-8 * rec["perimeter_margin"]
    assert 0.0 < bounds["gap_estimate"] < 1e-8 * rec["perimeter_margin"]


def test_competitor_far_offset_certifies(tmp_path):
    # tiny-but-positive deficit at offset 50: certified success, exit 0
    cfg = write_cfg(tmp_path, {"density": EXP2})
    code = run(["--out", str(tmp_path / "o"), "competitor", "--config", cfg,
                "--eps", "0.05", "--rmin", "50.0", "--rmax", "200.0",
                "--samples", "20000", "--seed", "11"])
    assert code == 0
    rec = json.loads((tmp_path / "o" / "competitor.json").read_text())
    assert rec["strict"] is True and rec["degenerate"] is False
    assert 0.0 < rec["perimeter_margin"] < 1e-18
    # the mean density rounds to 1; its deficit-space rho - 1 is a float < 0
    assert rec["mean_density"] == 1.0
    assert rec["bounds"]["rho_minus_one"] < -rec["bounds"]["rho_minus_one_estimate"] < 0.0


def test_competitor_constant_degenerate_exit(tmp_path):
    cfg = write_cfg(tmp_path, {"density": CONST2})
    code = run(["--out", str(tmp_path / "o"), "competitor", "--config", cfg,
                "--eps", "0.05", "--rmin", "10.0", "--rmax", "40.0",
                "--samples", "20000", "--seed", "11"])
    assert code == 2


def test_morgan_outputs(tmp_path):
    code = run(["--out", str(tmp_path / "o"), "morgan", "--c2", "8.0",
                "--dim", "3", "--m0", "1.0"])
    assert code == 0
    rec = json.loads((tmp_path / "o" / "morgan.json").read_text())
    assert rec["extinction_observed"] == pytest.approx(12.0, abs=1e-6)
    curve = (tmp_path / "o" / "morgan_curve.csv").read_text().splitlines()
    assert curve[0] == "t,mass"


def _joined_csv(header, rows) -> str:
    """The CSV text as one join of every line."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 10_000])
def test_write_csv_bytes_equal_one_join(tmp_path, count):
    # rows written in blocks: the bytes of the whole table joined at once,
    # final newline included, for every kind of value
    values = [3, np.int64(-7), np.float64(0.1), math.nan, math.inf, -math.inf,
              -0.0, 5e-324, 1e16, np.float64(2.0) / 3.0]
    rows = [(values[i % len(values)], values[(3 * i + 1) % len(values)], i)
            for i in range(count)]
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], iter(rows))
    assert path.read_bytes() == _joined_csv(["a", "b", "c"], rows).encode()


def test_morgan_keeps_a_bounded_working_set(tmp_path):
    # 120,001 rows: the curve's tuples, and the table in blocks of rows
    # rather than its whole text (27 MB when joined whole)
    argv = ["--out", str(tmp_path / "o"), "morgan", "--c2", "8.0", "--dim",
            "3", "--m0", "1.0", "--step", "1e-4"]
    run(argv)
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14e6


def test_rerun_outputs_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, {"density": EXP2})
    args = ["competitor", "--config", cfg, "--eps", "0.05", "--rmin", "8.0",
            "--rmax", "30.0", "--samples", "20000", "--seed", "11"]
    assert run(["--out", str(tmp_path / "a")] + args) == 0
    assert run(["--out", str(tmp_path / "b")] + args) == 0
    for name in ("competitor.json", "advance_map.csv", "far_ball_scan.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_console_entry_point(tmp_path):
    # the child imports the same isoplab as this process, installed or not
    src = str(Path(isoplab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "isoplab.cli", "--out",
                          str(tmp_path / "o"), "morgan", "--c2", "1.0",
                          "--dim", "2", "--m0", "1.0"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency, so start-up loads no scipy
    src = str(Path(isoplab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, isoplab, isoplab.cli; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_package_imports_only_stdlib_and_numpy():
    # every import in the package, function-local ones included, names the
    # standard library, numpy, or the package itself (a relative import)
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    foreign = []
    for path in sorted(Path(isoplab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []
