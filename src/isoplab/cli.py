"""Command-line entry point with reproducible, diffable outputs.

Subcommands: check-density, kernels, measure, kernel-search, far-ball,
competitor, morgan.  Structured results are written as JSON (sorted keys,
schema-version field, no timestamps) and tables as CSV, so re-running a
configuration with the same seed produces byte-identical files.

Exit status: 0 on certified success, 2 on degenerate outcomes (for example a
vanishing deficit), 1 on failures and malformed configurations.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from . import defaults
from .competitor import build_competitor
from .density import (ConfigError, Density, _number, deficit_profile,
                      density_from_config, validate_convergence)
from .extinction import simulate_comparison_ode
from .farball import find_far_radius, select_direction
from .layers import asymptotic_kernels, exact_kernels
from .measures import (CylinderExtended, PlainBall, RotationSwept,
                       set_measures)
from .sliding import excess_kernel, sliding_sign_search


def _json_default(o):
    if isinstance(o, (np.floating, np.integer, np.bool_)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)!r}")


def write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": defaults.SCHEMA_VERSION, **payload}
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
    path.write_text(text + "\n")


# rows formatted and written per write_csv call on the open file
_CSV_BLOCK_ROWS = 4096


def write_csv(path: Path, header: list[str], rows) -> None:
    """The header and the rows, one line each, every value as the repr of
    its float; rows are written in blocks of ``_CSV_BLOCK_ROWS``."""
    rows = iter(rows)
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        while block := list(islice(rows, _CSV_BLOCK_ROWS)):
            f.write("\n".join([",".join(map(repr, map(float, row)))
                                for row in block]) + "\n")


def _measure_record(m) -> dict:
    return {"value": m.value, "method": m.method,
            "error_estimate": m.error_estimate,
            "samples_or_nodes": m.samples_or_nodes, "seed": m.seed}


def _load_config(args) -> dict:
    if not args.config:
        raise ConfigError("config: required (--config PATH)")
    p = Path(args.config)
    if not p.exists():
        raise ConfigError(f"config: file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    return cfg


def _density_from(cfg: dict) -> Density:
    dcfg = cfg.get("density", cfg)
    return density_from_config(dcfg)


def _set_from(cfg: dict, n_fallback: int) -> PlainBall | CylinderExtended | RotationSwept:
    scfg = cfg.get("set")
    if not isinstance(scfg, dict):
        raise ConfigError("set: required")
    variant = scfg.get("variant")
    if variant is None:
        raise ConfigError("set.variant: required")
    dim = _number(scfg.get("dim", n_fallback), "set.dim", integer=True)
    offset = _number(scfg.get("offset", 10.0), "set.offset")
    delta = _number(scfg.get("delta", 0.0), "set.delta")
    direction = _vector(scfg, "direction")
    if variant == "plain_ball":
        return PlainBall(dim=dim, offset=offset, direction=direction)
    if variant == "cylinder_extended":
        return CylinderExtended(dim=dim, offset=offset, delta=delta,
                                direction=direction)
    if variant == "rotation_swept":
        return RotationSwept(dim=dim, offset=offset, delta=delta,
                             direction=direction, sweep=_vector(scfg, "sweep"))
    raise ConfigError(f"set.variant: unknown {variant!r}")


def _vector(scfg: dict, key: str) -> tuple[float, ...] | None:
    """The set's vector ``key`` as floats, None when it is not given."""
    if key not in scfg:
        return None
    if not isinstance(scfg[key], list):
        raise ConfigError(f"set.{key}: expected a list of numbers")
    return tuple(_number(x, f"set.{key}") for x in scfg[key])


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check_density(args) -> int:
    cfg = _load_config(args)
    d = _density_from(cfg)
    report = validate_convergence(d)
    out = _outdir(args)
    write_json(out / "check_density.json", {
        "seed": args.seed,
        "label": d.label, "dim": d.dim, "a": d.limit_a,
        "passed": report.passed,
        "violations": [list(v) for v in report.violations],
        "decay_radius": report.decay_radius,
        "decay_measured": report.decay_measured,
        "decay_bound": report.decay_bound,
        "samples": report.samples,
    })
    return 0 if report.passed else 1


def cmd_kernels(args) -> int:
    n, R, m = args.dim, args.rmin, args.grid
    ex = exact_kernels(n, R)
    asym = asymptotic_kernels(n)
    clip = 1.0 - defaults.REPORT_CLIP
    t = np.linspace(-clip, clip, m)
    rows = zip(t, ex.area_kernel(t), ex.volume_kernel(t),
               asym.area_kernel(t), asym.volume_kernel(t))
    out = _outdir(args)
    write_csv(out / "kernels.csv",
              ["t", "phi_exact", "psi_exact", "phi_asym", "psi_asym"], rows)
    write_json(out / "kernels.json", {"seed": args.seed, "dim": n,
                                      "offset": R, "grid": m,
                                      "clip": defaults.REPORT_CLIP})
    return 0


def cmd_measure(args) -> int:
    cfg = _load_config(args)
    d = _density_from(cfg)
    E = _set_from(cfg, d.dim)
    method = "monte_carlo" if args.samples else "quadrature"
    P, V = set_measures(E, d, method=method,
                        budget=args.samples or None,
                        seed=args.seed if method == "monte_carlo" else None)
    drawn = {} if method == "quadrature" else {
        "samples": args.samples, "shifts": defaults.MC_SHIFTS,
        "points": P.samples_or_nodes + V.samples_or_nodes}
    out = _outdir(args)
    write_json(out / "measure.json", {
        "seed": args.seed,
        "set": {"variant": type(E).__name__, "dim": E.dim, "offset": E.offset,
                "delta": getattr(E, "delta", 0.0)},
        "density": d.label,
        "perimeter": _measure_record(P),
        "volume": _measure_record(V),
        **drawn,
    })
    return 0


def cmd_kernel_search(args) -> int:
    cfg = _load_config(args)
    d = _density_from(cfg)
    kernel = excess_kernel(d.dim)
    g = deficit_profile(d)
    outcome = sliding_sign_search(kernel, g, args.rmin, args.rmax)
    out = _outdir(args)
    write_json(out / "kernel_search.json", {
        "seed": args.seed,
        "found": outcome.found, "R": outcome.R,
        "correlation": outcome.correlation,
        "degenerate": outcome.degenerate, "strict": outcome.strict,
        "scan_points": len(outcome.scan),
    })
    write_csv(out / "kernel_search_scan.csv", ["R", "correlation"], outcome.scan)
    if not outcome.found:
        return 1
    return 2 if outcome.degenerate else 0


def cmd_far_ball(args) -> int:
    cfg = _load_config(args)
    d = _density_from(cfg)
    cert = find_far_radius(deficit_profile(d), d.dim, args.eps, args.rmin, args.rmax)
    dir_cert = select_direction(d, cert)
    out = _outdir(args)
    write_json(out / "far_ball.json", {
        "seed": args.seed,
        "R": dir_cert.R, "eps": dir_cert.epsilon,
        "theta": list(dir_cert.theta) if dir_cert.theta else None,
        "P_g": _measure_record(dir_cert.P_g),
        "V_g": _measure_record(dir_cert.V_g),
        "margin": dir_cert.margin, "degenerate": dir_cert.degenerate,
    })
    write_csv(out / "far_ball_scan.csv", ["R", "correlation"], cert.scan)
    return 2 if dir_cert.degenerate else 0


def cmd_competitor(args) -> int:
    cfg = _load_config(args)
    d = _density_from(cfg)
    cert = build_competitor(d, eps=args.eps, R_min=args.rmin,
                            R_max=args.rmax, mc_seed=args.seed,
                            mc_samples=max(args.samples or 100_000, 10_000))
    out = _outdir(args)
    E = cert.E
    write_json(out / "competitor.json", {
        "seed": args.seed,
        "set": {"variant": type(E).__name__, "dim": E.dim, "offset": E.offset,
                "delta": getattr(E, "delta", 0.0),
                "direction": list(E.direction) if E.direction else None},
        "perimeter": _measure_record(cert.P_f),
        "volume": _measure_record(cert.V_f),
        "mean_density": cert.rho,
        "perimeter_margin": cert.perimeter_margin,
        "volume_gap": cert.volume_gap,
        "strict": cert.strict, "degenerate": cert.degenerate,
        "match": {"delta_bar": cert.match.delta_bar,
                  "achieved_volume": cert.match.achieved_volume,
                  "iterations": cert.match.iterations,
                  "bound_ok": cert.match.bound_ok},
        "far_ball": {"R": cert.farball.R, "margin": cert.farball.margin,
                     "degenerate": cert.farball.degenerate},
        "bounds": cert.bounds, "mc_check": cert.mc_check,
    })
    write_csv(out / "advance_map.csv", ["theta", "advance", "mapped"],
              zip(cert.advance.theta, cert.advance.advance, cert.advance.mapped))
    write_csv(out / "far_ball_scan.csv", ["R", "correlation"],
              cert.farball.scan)
    return 2 if cert.degenerate else 0


def cmd_morgan(args) -> int:
    cert = simulate_comparison_ode(args.c2, args.dim, args.m0, args.step)
    out = _outdir(args)
    write_json(out / "morgan.json", {
        "seed": args.seed,
        "C2": args.c2, "dim": args.dim, "m0": args.m0, "step": args.step,
        "extinction_observed": cert.extinction_observed,
        "extinction_closed_form": cert.extinction_closed_form,
        "residual": cert.residual,
    })
    write_csv(out / "morgan_curve.csv", ["t", "mass"],
              zip(cert.curve.times, cert.curve.masses))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isoplab",
        description="weighted perimeter/volume laboratory for densities "
                    "leveling off at infinity")
    p.add_argument("--out", default="out", help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True):
        if config:
            sp.add_argument("--config", help="JSON config path")
        sp.add_argument("--eps", type=float, default=defaults.EPS)
        sp.add_argument("--rmin", type=float, default=10.0)
        sp.add_argument("--rmax", type=float, default=200.0)
        sp.add_argument("--seed", type=int, default=2024)
        sp.add_argument("--samples", type=int, default=0,
                        help="Monte-Carlo samples (0 = quadrature only)")

    sp = sub.add_parser("check-density", help="validate a density config")
    common(sp)
    sp.set_defaults(func=cmd_check_density)

    sp = sub.add_parser("kernels", help="tabulate layer kernels as CSV")
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--grid", type=int, default=201)
    common(sp, config=False)
    sp.set_defaults(func=cmd_kernels)

    sp = sub.add_parser("measure", help="measure a configured set")
    common(sp)
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("kernel-search", help="sliding-sign search")
    common(sp)
    sp.set_defaults(func=cmd_kernel_search)

    sp = sub.add_parser("far-ball", help="far-ball certificate")
    common(sp)
    sp.set_defaults(func=cmd_far_ball)

    sp = sub.add_parser("competitor", help="build a certified competitor set")
    common(sp)
    sp.set_defaults(func=cmd_competitor)

    sp = sub.add_parser("morgan", help="tail-mass comparison ODE")
    sp.add_argument("--c2", type=float, required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--m0", type=float, required=True)
    sp.add_argument("--step", type=float, default=1e-3)
    common(sp, config=False)
    sp.set_defaults(func=cmd_morgan)
    return p


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
