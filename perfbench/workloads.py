"""The four benchmark workloads: their inputs, program calls and output checks.

Importing this module imports ``isoplab``; ``run.py`` puts the checkout's
``src`` directory on ``sys.path`` first.  Every workload runs with eps = 0.05
and R_max = 200.  The only inputs that depend on the workload seed are the
Monte Carlo seeds (``build_competitor``'s ``mc_seed``, the CLI ``--seed`` and
the ``tail_mass`` seed), derived from it by ``Seeds``.

A case is one unit of work: a few program calls followed by checks of their
outputs.  A case fails when it raises or when a check finds a problem; the
checks are the program's own guards, ``perimeter_margin > 0``,
``rho <= 1 + 1e-9``, ``match.bound_ok`` of every certificate, the expected CLI
exit code, and CLI output that is byte-identical across the passes of a run.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import isoplab
from isoplab import cli, density_from_config

EPS = 0.05
R_MAX = 200.0
MC_SAMPLES = 100_000
CLI_MC_SAMPLES = 1_000_000
RHO_TOL = 1e-9
# a set is volume-matched when |volume_gap| <= MATCH_RTOL * |B|_g, with |B|_g
# the deficit volume of the base ball: the deficit-relative precision target
MATCH_RTOL = 1e-2
# quadrature and Monte Carlo measures of one set must agree within this many
# Monte Carlo standard errors (plus the quadrature's own error estimate)
MC_Z = 5.0


class Seeds:
    """Derives 31-bit seeds from the workload seed, one per tag, and keeps
    the ones handed out so a run can record them."""

    def __init__(self, seed: int):
        self.seed = seed
        self.derived: dict[str, int] = {}

    def __call__(self, tag: str) -> int:
        state = np.random.SeedSequence([self.seed, zlib.crc32(tag.encode())])
        return self.derived.setdefault(tag, int(state.generate_state(1)[0] >> 1))


def family(name: str, dim: int, a: float = 1.0, **params) -> str:
    """JSON text of a density config; setup parses it like a user's file."""
    return json.dumps({"family": name, "dim": dim, "a": a, "params": params})


@dataclass
class CaseResult:
    """What one case produced, as the end-to-end metrics count it."""

    problems: list[str] = field(default_factory=list)
    mc_consistent: list[bool] = field(default_factory=list)   # per competitor
    matched: list[bool] = field(default_factory=list)         # per matched set
    bound_ok: list[bool] = field(default_factory=list)        # per matched set

    def require(self, ok, what: str) -> None:
        if not ok:
            self.problems.append(what)


@dataclass
class Case:
    """``fn(instrument)`` runs the case; ``instrument`` maps each input
    Density to the Density handed to the program (the identity unless the
    run is traced)."""

    name: str
    fn: Callable[[Callable], CaseResult]


@dataclass
class Workload:
    name: str
    setup: Callable[[Seeds, Path], list[Case]]
    min_passes: int = 1


# ---------------------------------------------------------------------------
# checks shared by the competitor workloads
# ---------------------------------------------------------------------------

def check_certificate(cert, res: CaseResult) -> None:
    """Checks on a ``CompetitorCertificate`` from ``build_competitor``."""
    res.require(math.isfinite(cert.P_f.value) and math.isfinite(cert.V_f.value),
                "non-finite measures")
    res.require(cert.perimeter_margin > 0.0,
                f"perimeter_margin {cert.perimeter_margin!r} <= 0")
    res.require(cert.rho <= 1.0 + RHO_TOL, f"rho {cert.rho!r} > 1 + {RHO_TOL}")
    res.require(cert.match.bound_ok, "match.bound_ok is False")
    res.bound_ok.append(bool(cert.match.bound_ok))
    for key, value in cert.bounds.items():
        if isinstance(value, bool):
            res.require(value, f"bounds[{key!r}] is False")
    res.mc_consistent.append(bool(cert.mc_check["volume_consistent"]
                                  and cert.mc_check["perimeter_consistent"]))
    res.matched.append(abs(cert.volume_gap)
                       <= MATCH_RTOL * cert.farball.V_g.value)


def check_extension(ext, ball_deficit: float, res: CaseResult) -> None:
    """Checks on a cylinder ``ExtensionResult``.

    Its ``match.bound_ok`` goes to ``bound_ok_frac`` only: the cylinder's
    a-priori bound (1 + 2 eps)|B|_g / omega_{N-1} leaves out the volume the
    shrunk near half-ball loses, about N omega_N delta / (2R), so it fails at
    the offsets these cases certify (R ~ 10), a known defect that
    ``cylinder_extension`` reports without acting on.
    """
    res.require(ext.perimeter_margin > 0.0,
                f"cylinder perimeter_margin {ext.perimeter_margin!r} <= 0")
    res.require(ext.rho <= 1.0 + RHO_TOL, f"cylinder rho {ext.rho!r} > 1 + {RHO_TOL}")
    for key, value in ext.checks.items():
        if isinstance(value, bool):
            res.require(value, f"cylinder checks[{key!r}] is False")
    res.bound_ok.append(bool(ext.match.bound_ok))
    res.matched.append(abs(ext.volume_gap) <= MATCH_RTOL * ball_deficit)


def competitor_case(name: str, d, r_min: float, mc_seed: int,
                    cylinder: bool = False, **options) -> Case:
    def fn(instrument) -> CaseResult:
        res = CaseResult()
        dens = instrument(d)
        cert = isoplab.build_competitor(dens, eps=EPS, R_min=r_min, R_max=R_MAX,
                                        mc_samples=MC_SAMPLES, mc_seed=mc_seed,
                                        **options)
        check_certificate(cert, res)
        if cylinder:
            # build_competitor certifies the rescaled density; so must this
            dd = dens if dens.limit_a == 1.0 else isoplab.rescale(
                dens, isoplab.unit_ball_volume(dens.dim))[0]
            ext = isoplab.cylinder_extension(cert.farball, dd, EPS)
            check_extension(ext, cert.farball.V_g.value, res)
        return res
    return Case(name, fn)


# ---------------------------------------------------------------------------
# competitor workloads
# ---------------------------------------------------------------------------

def setup_radial_rotation(seeds: Seeds, workdir: Path) -> list[Case]:
    exp2, exp3, pow2, pow3, exp2_a2 = (density_from_config(json.loads(text)) for text in (
        family("radial_exp", 2, c=1.0), family("radial_exp", 3, c=1.0),
        family("radial_power", 2, p=2.0), family("radial_power", 3, p=2.0),
        family("radial_exp", 2, a=2.0, c=1.0)))
    specs = [("radial_exp.N2.R10", exp2, 10.0), ("radial_exp.N3.R10", exp3, 10.0),
             ("radial_power.N2.R10", pow2, 10.0), ("radial_power.N3.R10", pow3, 10.0),
             ("radial_exp.N3.R50", exp3, 50.0), ("radial_exp.N2.a2.R10", exp2_a2, 10.0)]
    return [competitor_case(name, d, r, seeds(name), cylinder=True)
            for name, d, r in specs]


def setup_angular_circle(seeds: Seeds, workdir: Path) -> list[Case]:
    ang2 = density_from_config(json.loads(family("angular_mod", 2, eta=0.5, k=1, c=1.0)))
    return [competitor_case(name, ang2, r, seeds(name))
            for name, r in (("angular_mod.N2.R10", 10.0),
                            ("angular_mod.N2.R50", 50.0))]


def setup_angular_descent(seeds: Seeds, workdir: Path) -> list[Case]:
    ang3 = density_from_config(json.loads(family("angular_mod", 3, eta=0.5, k=1, c=1.0)))
    name = "angular_mod.N3.R10"
    return [competitor_case(name, ang3, 10.0, seeds(name),
                            nodes=16, circle_grid=16)]


# ---------------------------------------------------------------------------
# cli_batch: in-process CLI commands and extinction / kernel library calls
# ---------------------------------------------------------------------------

def tree_digest(root: Path) -> str:
    """Digest of every file name and byte under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def load_json(path: Path) -> dict:
    return json.loads(path.read_text())


class CliRunner:
    """Runs commands through ``isoplab.cli.run``, one output directory per
    case, and checks that each case's files repeat byte for byte."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.digests: dict[str, str] = {}

    def case(self, name: str, commands, check) -> Case:
        """``commands`` is a list of (output subdirectory, argv, expected exit
        code); ``check`` reads the output directory and adds problems to the
        result."""
        def fn(instrument) -> CaseResult:
            res = CaseResult()
            out = self.workdir / name
            shutil.rmtree(out, ignore_errors=True)
            for sub, argv, expected in commands:
                code = cli.run(["--out", str(out / sub)] + argv)
                res.require(code == expected,
                            f"{argv[0]} exited {code}, expected {expected}")
            if res.problems:
                return res
            check(out, res)
            digest = tree_digest(out)
            first = self.digests.setdefault(name, digest)
            res.require(digest == first, "outputs differ from the first pass")
            return res
        return Case("cli." + name, fn)


def check_competitor_json(out: Path, density: dict, res: CaseResult) -> None:
    rec = load_json(out / "competitor.json")
    res.require(rec["perimeter_margin"] > 0.0, "perimeter_margin <= 0")
    res.require(rec["mean_density"] <= 1.0 + RHO_TOL, "mean_density > 1 + 1e-9")
    res.require(rec["match"]["bound_ok"], "match.bound_ok is False")
    res.bound_ok.append(bool(rec["match"]["bound_ok"]))
    res.require(rec["strict"], "strict is False")
    for key, value in rec["bounds"].items():
        if isinstance(value, bool):
            res.require(value, f"bounds[{key!r}] is False")
    mc = rec["mc_check"]
    res.mc_consistent.append(bool(mc["volume_consistent"] and mc["perimeter_consistent"]))
    # |B|_g of the certified ball, from the same radial profile the program uses
    d = density_from_config(density)
    R = rec["far_ball"]["R"]
    _, V_g = isoplab.ball_deficit_measures(isoplab.deficit_profile(d), d.dim, R)
    res.matched.append(abs(rec["volume_gap"]) <= MATCH_RTOL * V_g.value)


def measures_agree(quad: dict, mc: dict, what: str, res: CaseResult) -> None:
    q, m = quad[what], mc[what]
    allowed = (MC_Z * m["error_estimate"] + q["error_estimate"]
               + 1e-12 * abs(q["value"]))
    res.require(abs(q["value"] - m["value"]) <= allowed,
                f"{what}: quadrature {q['value']!r} vs Monte Carlo {m['value']!r}")


def setup_cli_batch(seeds: Seeds, workdir: Path) -> list[Case]:
    runner = CliRunner(workdir)
    cfg_dir = workdir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)

    def config(name: str, payload: dict) -> str:
        path = cfg_dir / f"{name}.json"
        path.write_text(json.dumps(payload))
        density_from_config(payload["density"])     # malformed configs fail here
        return str(path)

    cli_seed = str(seeds("cli"))
    common = ["--eps", str(EPS), "--rmin", "10", "--rmax", str(R_MAX), "--seed", cli_seed]
    cases = []

    for name, text in (("constant", family("constant", 2)),
                       ("radial_exp", family("radial_exp", 2, c=1.0)),
                       ("radial_power", family("radial_power", 2, p=2.0)),
                       ("angular_mod", family("angular_mod", 2, eta=0.5, k=1, c=1.0))):
        path = config(f"density_{name}", {"density": json.loads(text)})

        def check_density(out, res):
            res.require(load_json(out / "check_density.json")["passed"],
                        "convergence check did not pass")
        cases.append(runner.case(f"check-density.{name}",
                                 [("", ["check-density", "--config", path] + common, 0)],
                                 check_density))

    def check_kernels(out, res):
        lines = (out / "kernels.csv").read_text().splitlines()
        res.require(len(lines) == 2002, f"kernels.csv has {len(lines)} lines")
    for n in range(2, 7):
        argv = ["kernels", "--dim", str(n), "--grid", "2001"] + common
        cases.append(runner.case(f"kernels.N{n}", [("", argv, 0)], check_kernels))

    exp2 = json.loads(family("radial_exp", 2, c=1.0))
    exp2_path = config("radial_exp2", {"density": exp2})

    def check_search(out, res):
        rec = load_json(out / "kernel_search.json")
        res.require(rec["found"] and not rec["degenerate"], "no strict translate found")
    cases.append(runner.case("kernel-search",
                             [("", ["kernel-search", "--config", exp2_path] + common, 0)],
                             check_search))

    def check_far(out, res):
        rec = load_json(out / "far_ball.json")
        res.require(rec["margin"] >= -1e-10, f"far-ball margin {rec['margin']!r}")
    cases.append(runner.case("far-ball", [("", ["far-ball", "--config", exp2_path] + common, 0)],
                             check_far))

    cases.append(runner.case("competitor",
                             [("", ["competitor", "--config", exp2_path] + common, 0)],
                             lambda out, res: check_competitor_json(out, exp2, res)))

    exp3 = json.loads(family("radial_exp", 3, c=1.0))
    for variant, extra in (("plain_ball", {}), ("cylinder_extended", {"delta": 0.05}),
                           ("rotation_swept", {"delta": 0.05})):
        path = config(f"measure_{variant}", {
            "density": exp3, "set": {"variant": variant, "dim": 3, "offset": 10.0, **extra}})
        argv = ["measure", "--config", path] + common

        def check_measure(out, res):
            quad = load_json(out / "quadrature" / "measure.json")
            mc = load_json(out / "monte_carlo" / "measure.json")
            measures_agree(quad, mc, "perimeter", res)
            measures_agree(quad, mc, "volume", res)
        # both commands write measure.json, so each gets a subdirectory
        cases.append(runner.case(
            f"measure.{variant}",
            [("quadrature", argv, 0),
             ("monte_carlo", argv + ["--samples", str(CLI_MC_SAMPLES)], 0)],
            check_measure))

    def check_morgan(out, res):
        rec = load_json(out / "morgan.json")
        res.require(rec["residual"] <= 1e-9 * rec["extinction_closed_form"],
                    f"extinction residual {rec['residual']!r}")
    cases.append(runner.case("morgan",
                             [("", ["morgan", "--c2", "8.0", "--dim", "3", "--m0", "1.0",
                                "--step", "1e-4"] + common, 0)],
                             check_morgan))

    exp3_density = density_from_config(exp3)
    cases += library_cases(exp3_density, seeds("tail_mass"))
    return cases


def library_cases(exp3, tail_seed: int) -> list[Case]:
    def tail_plain(instrument):
        res = CaseResult()
        curve = isoplab.tail_mass_curve(isoplab.PlainBall(dim=3, offset=10.0),
                                        instrument(exp3), np.linspace(8.5, 11.5, 7))
        check_tail(curve, res)
        return res

    def tail_swept(instrument):
        res = CaseResult()
        E = isoplab.RotationSwept(dim=3, offset=10.0, delta=0.05)
        curve = isoplab.tail_mass_curve(E, instrument(exp3), np.linspace(9.5, 11.5, 5),
                                        seed=tail_seed)
        check_tail(curve, res)
        return res

    def averaging(instrument):
        res = CaseResult()
        g = isoplab.deficit_profile(instrument(exp3))
        _, _, resid = isoplab.averaging_identity_residual(isoplab.excess_kernel(3), g,
                                                          5.0, 10.0)
        res.require(resid <= 1e-8, f"averaging identity residual {resid!r}")
        return res

    def admissibility(instrument):
        res = CaseResult()
        for n in range(2, 7):
            report = isoplab.check_admissibility(isoplab.excess_kernel(n))
            res.require(report.passed, f"excess kernel N={n} not admissible")
        return res

    return [Case("lib.tail_mass.plain_ball", tail_plain),
            Case("lib.tail_mass.rotation_swept", tail_swept),
            Case("lib.averaging_identity", averaging),
            Case("lib.admissibility", admissibility)]


def check_tail(curve, res: CaseResult) -> None:
    m = np.asarray(curve.masses)
    res.require(m[0] > 0.0, "tail mass at the smallest radius is not positive")
    res.require(np.all(np.diff(m) <= 1e-12 * m[0]), "tail mass increases")
    res.require(m[-1] == 0.0, "tail mass beyond the set is not zero")


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("radial_rotation", setup_radial_rotation),
    Workload("angular_circle", setup_angular_circle),
    # its one case fits twice in a run, and the faster pass is kept
    Workload("angular_descent", setup_angular_descent, min_passes=2),
    # cli_batch compares its outputs across passes, so it needs two
    Workload("cli_batch", setup_cli_batch, min_passes=2),
)}
