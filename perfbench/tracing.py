"""Span tracing of ``isoplab`` from outside the package.

``install`` replaces the traced public functions in every ``isoplab.*``
module namespace that binds them with wrappers that record a span (name,
start, end, parent) and update work counters; ``uninstall`` puts the
originals back.  Evaluations of a Density's weight and deficit are counted by
wrapping its callables with ``dataclasses.replace`` (``Tracer.instrument``),
so the evaluations that ``rescale`` forwards are counted too.

A span's self time is its duration minus the durations of its child spans.
A layer's time metric (``<layer>.<what>_s``) is the self time of the layer's
spans, so the layer times and ``trace.other_s`` add up to the traced wall
time.  The CLI metrics ``cli.<subcommand>_s`` are the exception: they are the
inclusive time of each subcommand.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


def _points(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


# counters: f(counter, args, kwargs, result) after a call returns
def _count_grid(c, args, kwargs, out):
    c["quadrature.grid_calls"] += 1
    c["quadrature.grid_points"] += len(out[1])


def _count_patch(c, args, kwargs, out):
    c["measures.patch_points"] += len(out[1])


def _count_layer_integral(c, args, kwargs, out):
    c["layers.layer_integral_calls"] += 1
    c["layers.layer_integral_neval"] += int(out[2])


def _count_ball_measures(c, args, kwargs, out):
    c["measures.ball_measures_calls"] += 1


def _count_mc(c, args, kwargs, out):
    c["measures.mc_samples"] += int(out.samples_or_nodes)


def _count_correlation(c, args, kwargs, out):
    c["sliding.correlation_calls"] += 1


def _count_scan(c, args, kwargs, out):
    c["sliding.scan_points"] += len(out.scan)


def _count_directions(c, args, kwargs, out):
    c["farball.directions"] += len(out[2])


def _count_volume_match(c, args, kwargs, out):
    c["competitor.volume_match_calls"] += 1
    c["competitor.root_iters"] += int(out.iterations)


def _count_advance(c, args, kwargs, out):
    adv = np.asarray(out.advance)
    c["competitor.advance_angles"] += adv.size
    c["competitor.advance_nonzero"] += int(np.count_nonzero(adv))


def _count_tail_mass(c, args, kwargs, out):
    c["extinction.tail_mass_calls"] += 1


def _count_ode(c, args, kwargs, out):
    c["extinction.ode_steps"] += len(out.curve.times) - 1


def _count_bytes(c, args, kwargs, out):
    c["cli.bytes_written"] += Path(args[0]).stat().st_size


CLI_COMMANDS = ("check-density", "kernels", "measure", "kernel-search",
                "far-ball", "competitor", "morgan")

# (module, function, span name, counter, nested calls of the same span name
# are left out of the counter)
TARGETS = [
    ("quadrature", "sphere_grid", "quadrature.grid", _count_grid, True),
    ("quadrature", "sphere_band_grid", "quadrature.grid", _count_grid, True),
    ("quadrature", "ball_grid", "quadrature.grid", _count_grid, True),
    ("layers", "layer_integral", "layers.layer_integral", _count_layer_integral, False),
    ("sliding", "correlation", "sliding.correlation", _count_correlation, False),
    ("sliding", "sliding_sign_search", "sliding.sign_search", _count_scan, False),
    ("sliding", "check_admissibility", "sliding.check_admissibility", None, False),
    ("sliding", "averaging_identity_residual", "sliding.averaging_identity", None, False),
    ("measures", "sphere_cap_patch", "measures.patch", _count_patch, False),
    ("measures", "ball_cap_patch", "measures.patch", _count_patch, False),
    ("measures", "cylinder_wall_patch", "measures.patch", _count_patch, False),
    ("measures", "annulus_patch", "measures.patch", _count_patch, False),
    ("measures", "swept_band_patch", "measures.patch", _count_patch, False),
    ("measures", "swept_wedge_patch", "measures.patch", _count_patch, False),
    ("measures", "_cyl_interior", "measures.patch", _count_patch, False),
    ("measures", "integrate_patches", "measures.integrate_patches", None, False),
    ("measures", "set_measures", "measures.set_measures", None, False),
    ("measures", "mc_volume", "measures.mc_volume", _count_mc, False),
    ("measures", "mc_perimeter", "measures.mc_perimeter", _count_mc, False),
    ("measures", "weighted_ball_measures", "measures.weighted_ball_measures",
     _count_ball_measures, False),
    ("measures", "ball_deficit_measures", "measures.ball_deficit_measures",
     _count_ball_measures, False),
    ("farball", "find_far_radius", "farball.find_far_radius", None, False),
    ("farball", "select_direction", "farball.select_direction", None, False),
    ("farball", "directional_margins", "farball.directional_margins",
     _count_directions, False),
    ("competitor", "volume_match", "competitor.volume_match", _count_volume_match, False),
    ("competitor", "sweep_advance_map", "competitor.sweep_advance_map", _count_advance, False),
    ("competitor", "select_working_circle", "competitor.select_working_circle", None, False),
    ("competitor", "select_sweep_direction", "competitor.select_sweep_direction", None, False),
    ("competitor", "rotation_extension", "competitor.rotation_extension", None, False),
    ("competitor", "cylinder_extension", "competitor.cylinder_extension", None, False),
    ("competitor", "build_competitor", "competitor.build_competitor", None, False),
    ("extinction", "tail_mass", "extinction.tail_mass", _count_tail_mass, False),
    ("extinction", "tail_mass_curve", "extinction.tail_mass_curve", None, False),
    ("extinction", "simulate_comparison_ode", "extinction.simulate_comparison_ode",
     _count_ode, False),
    ("cli", "write_json", "cli.write", _count_bytes, False),
    ("cli", "write_csv", "cli.write", _count_bytes, False),
] + [("cli", "cmd_" + cmd.replace("-", "_"), "cli." + cmd, None, False)
     for cmd in CLI_COMMANDS]

# per-layer time metric -> the span names whose self time it sums
SELF_TIME = {
    "quadrature.grid_s": ["quadrature.grid"],
    "density.deficit_s": ["density.deficit"],
    "density.weight_s": ["density.weight"],
    "density.profile_s": ["density.profile", "density.deficit_profile"],
    "layers.layer_integral_s": ["layers.layer_integral"],
    "sliding.search_s": ["sliding.correlation", "sliding.sign_search",
                         "sliding.check_admissibility", "sliding.averaging_identity"],
    "measures.patch_s": ["measures.patch"],
    "measures.ball_measures_s": ["measures.weighted_ball_measures",
                                 "measures.ball_deficit_measures"],
    "measures.quadrature_s": ["measures.set_measures", "measures.integrate_patches"],
    "measures.mc_s": ["measures.mc_volume", "measures.mc_perimeter"],
    "farball.find_far_radius_s": ["farball.find_far_radius"],
    "farball.select_direction_s": ["farball.select_direction",
                                   "farball.directional_margins"],
    "competitor.build_s": ["competitor.build_competitor"],
    "competitor.volume_match_s": ["competitor.volume_match", "competitor.gap"],
    "competitor.advance_map_s": ["competitor.sweep_advance_map"],
    "competitor.working_circle_s": ["competitor.select_working_circle"],
    "competitor.sweep_direction_s": ["competitor.select_sweep_direction"],
    "competitor.rotation_s": ["competitor.rotation_extension"],
    "competitor.cylinder_s": ["competitor.cylinder_extension"],
    "extinction.tail_mass_s": ["extinction.tail_mass", "extinction.tail_mass_curve"],
    "extinction.ode_s": ["extinction.simulate_comparison_ode"],
    "cli.self_s": ["cli.write"] + ["cli." + cmd for cmd in CLI_COMMANDS],
    "trace.other_s": ["case", "density.density_from_config"],
}
INCLUSIVE_TIME = {f"cli.{cmd}_s": "cli." + cmd for cmd in CLI_COMMANDS}

COUNTERS = [
    "quadrature.grid_calls", "quadrature.grid_points",
    "density.deficit_calls", "density.deficit_points",
    "density.weight_calls", "density.weight_points", "density.profile_calls",
    "layers.layer_integral_calls", "layers.layer_integral_neval",
    "sliding.correlation_calls", "sliding.scan_points",
    "measures.patch_points", "measures.ball_measures_calls", "measures.mc_samples",
    "farball.directions",
    "competitor.volume_match_calls", "competitor.gap_evals", "competitor.root_iters",
    "competitor.advance_angles", "competitor.advance_nonzero",
    "extinction.tail_mass_calls", "extinction.ode_steps",
    "cli.bytes_written",
]


class Tracer:
    """Spans kept in flat arrays (one entry per call) and work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.kind = array("q")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None, outer_only=False,
             before=None, after=None):
        """A wrapper of ``fn`` that records a span named ``name``.

        ``before(args, kwargs)`` may replace the arguments, ``count`` updates
        the counters from the result and ``after(result)`` may replace it.
        """
        nid = self._id(name)
        start, end, parent, kind, stack = (self.start, self.end, self.parent,
                                           self.kind, self.stack)
        counters, clock = self.counters, time.perf_counter

        def wrapper(*args, **kwargs):
            nested = outer_only and bool(stack) and kind[stack[-1]] == nid
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            kind.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None and not nested:
                count(counters, args, kwargs, out)
            return out if after is None else after(out)
        return wrapper

    # -- densities ---------------------------------------------------------

    def _evaluations(self, name: str, fn):
        def count(c, args, kwargs, out):
            c[name + "_calls"] += 1
            c[name + "_points"] += _points(args[0])
        return self.wrap(name, fn, count)

    def instrument(self, d):
        """The Density ``d`` with counted weight and deficit callables."""
        changes = {"weight": self._evaluations("density.weight", d.weight)}
        if d.deficit is not None:
            changes["deficit"] = self._evaluations("density.deficit", d.deficit)
        return dataclasses.replace(d, **changes)

    def _instrument_profile(self, rd):
        def count(c, args, kwargs, out):
            c["density.profile_calls"] += 1
        return dataclasses.replace(rd, profile=self.wrap("density.profile",
                                                         rd.profile, count))

    def _wrap_gap(self, args, kwargs):
        def count(c, a, k, out):
            c["competitor.gap_evals"] += 1
        if "gap" in kwargs:
            kwargs = dict(kwargs, gap=self.wrap("competitor.gap", kwargs["gap"], count))
        else:
            args = (args[0], self.wrap("competitor.gap", args[1], count)) + args[2:]
        return args, kwargs

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers in every ``isoplab`` module namespace."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "isoplab" or name.startswith("isoplab.")]
        for mod, fname, span, count, outer_only in TARGETS:
            before = self._wrap_gap if fname == "volume_match" else None
            self._bind(modules, mod, fname, span, count=count,
                       outer_only=outer_only, before=before)
        self._bind(modules, "density", "deficit_profile", "density.deficit_profile",
                   after=self._instrument_profile)
        self._bind(modules, "density", "density_from_config",
                   "density.density_from_config", after=self.instrument)

    def _bind(self, modules, mod: str, fname: str, span: str, **options) -> None:
        original = getattr(sys.modules["isoplab." + mod], fname)
        wrapper = self.wrap(span, original, **options)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._saved.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {"start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "kind": np.frombuffer(self.kind, dtype=np.int64)}

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, self time and inclusive time (outermost
        spans of that name only, so recursion is not counted twice)."""
        s = self.spans()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        parent_kind = np.where(has_parent, s["kind"][np.maximum(s["parent"], 0)], -1)
        outer = parent_kind != s["kind"]
        k = len(self.names)
        calls = np.bincount(s["kind"], minlength=k)
        selfs = np.bincount(s["kind"], weights=self_time, minlength=k)
        incl = np.bincount(s["kind"][outer], weights=dur[outer], minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(selfs[i]),
                       "inclusive_s": float(incl[i])}
                for i, name in enumerate(self.names)}

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: counters, self times and CLI inclusive times."""
        table = self.by_name()
        out: dict[str, float] = {name: int(self.counters[name]) for name in COUNTERS}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(table[n]["self_s"] for n in names if n in table)
        for metric, name in INCLUSIVE_TIME.items():
            out[metric] = table[name]["inclusive_s"] if name in table else 0.0
        angles = out["competitor.advance_angles"]
        out["competitor.advance_nonzero_frac"] = (
            out["competitor.advance_nonzero"] / angles if angles else 0.0)
        return out
