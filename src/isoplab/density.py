"""Weight functions on R^N with a finite positive limit at infinity.

A ``Density`` wraps a nonnegative weight f with its limit value a, the radius
beyond which f <= a is declared, and a radial flag.  The module provides
spherical averaging, the radial deficit profile a - mean(f), sampling-based
validation of the limiting behavior, and the volume-normalizing rescale that
maps the limit to 1 and a prescribed weighted volume to the unit-ball volume.

Only continuous closed-form weights are representable here; regularity
hypotheses that cannot be probed by sampling (local integrability, lower
semicontinuity) are documented assumptions, not checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .defaults import (BALL_CHUNK_POINTS, BLOCK_POINTS, GRID_REFINE, REFINE_ROUNDS,
                       SPHERE_NODES, VOLUME_RTOL)
from .layers import ULP
from .quadrature import (band_coords, norms, pairwise_leaves, pairwise_total,
                         sphere_grid, unit_ball_volume)


class ConfigError(ValueError):
    """Malformed density or experiment configuration."""


def _number(value, field: str, integer: bool = False):
    """A config value as a float, or with ``integer`` as an int (a fraction
    is refused); otherwise a ``ConfigError`` that names ``field``."""
    kind = "an integer" if integer else "a number"
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: must be {kind}") from None
    if integer and not number.is_integer():
        raise ConfigError(f"{field}: must be {kind}")
    return int(number) if integer else number


@dataclass(frozen=True)
class Density:
    """A weight on R^N converging to ``limit_a`` at infinity from below.

    ``weight`` must accept arrays of shape (..., dim) and return shape (...).
    isoplab hands it (M, dim) arrays whose coordinate columns x[..., i] are
    contiguous, the transpose of coordinates built first, so a weight must
    not assume C order.  The registered families sum |x|^2 in coordinate
    order (``norms``), whatever the layout; a weight that reduces over the
    coordinates with BLAS or ``einsum`` may round differently.
    ``envelope_radius`` is the radius beyond which weight <= limit_a holds.

    ``deficit`` optionally evaluates a - weight in closed form.  Far from the
    origin the deficit drops below the rounding floor of the weight itself
    (a - float(f) returns exactly zero once f is within an ulp of a), so
    every far-field computation uses this callable when present and falls
    back to the subtraction otherwise.
    """

    dim: int
    weight: Callable[[np.ndarray], np.ndarray]
    limit_a: float
    envelope_radius: float = 0.0
    radial: bool = False
    label: str = "density"
    deficit: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise ConfigError("dim: must be >= 2")
        if not self.limit_a > 0:
            raise ConfigError("a: must be positive")
        if self.envelope_radius < 0:
            raise ConfigError("envelope_radius: must be nonnegative")


def deficit_weight(d: Density) -> Callable[[np.ndarray], np.ndarray]:
    """Pointwise deficit a - f as a callable, preferring the closed form."""
    if d.deficit is not None:
        return d.deficit
    a, f = d.limit_a, d.weight

    def g(x):
        return a - np.asarray(f(x), dtype=float)
    return g


@dataclass(frozen=True)
class RadialDeficit:
    """Radial profile of the deficit below the limit: r -> a - mean_{|x|=r} f.

    ``support_hint`` marks a radius beyond which the profile vanishes
    identically (when known); ``breakpoints`` lists radii where the profile
    is not smooth, so quadratures can split there.  ``sphere_points`` is the
    number of deficit evaluations per radius of a profile call that settles
    on its first sphere rule, the rule and its three checks
    (``deficit_profile``).  It is 1 for a profile known pointwise, such as a
    radial weight's; a profile with more is a sphere rule's mean, and
    profile(r, estimate=True) returns its (means, error estimates).
    """

    dim: int
    profile: Callable[[np.ndarray], np.ndarray]
    support_hint: float | None = None
    breakpoints: tuple[float, ...] = ()
    sphere_points: int = 1

    def estimate(self, r):
        """(values, error estimates) of the profile at r: a sphere rule's
        means with its rule's error, or a pointwise profile's values with
        error 0."""
        if self.sphere_points > 1:
            return self.profile(r, estimate=True)
        return self.profile(r), 0.0


def eval_weight(d: Density, x) -> np.ndarray | float:
    """Evaluate the weight at one point or an array of points.

    Raises if the input or the result is not finite (a malformed density).
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != d.dim:
        raise ValueError(f"point dimension {x.shape[-1]} != density dim {d.dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite evaluation point")
    v = np.asarray(d.weight(x), dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"density {d.label!r} returned a non-finite value")
    return v if v.ndim else float(v)


def _spherical_mean(fn, n: int, r: np.ndarray, grids):
    """Means of fn and of |fn| over the spheres of radii r (a 1-D array) on
    each (directions, weights) grid of ``grids``, shape (grids, 2, radii).

    The grids share the calls of ``fn``: each call takes a block of radii
    times a run of consecutive leaves of the grids' pairwise summation
    trees (``pairwise_leaves``), at most ``BLOCK_POINTS`` points, or one
    radius on one leaf of a larger grid, built coordinates first.  A
    radius's mean on a grid is the float of one ``np.add.reduce`` over the
    grid."""
    runs, size = [[]], 0
    for g, (_, w) in enumerate(grids):
        for a, b in pairwise_leaves(0, len(w), BLOCK_POINTS):
            if runs[-1] and size + b - a > BLOCK_POINTS:
                runs.append([])
                size = 0
            runs[-1].append((g, a, b))
            size += b - a
    sums = []
    for run in runs:
        dirs, w = (np.concatenate([grids[g][k][a:b] for g, a, b in run]) for k in (0, 1))
        step = max(1, BLOCK_POINTS // len(w))
        out = np.empty((len(run), 2, r.size))
        for i in range(0, r.size, step):
            block = r[i:i + step, None]
            pts = np.multiply(dirs.T[:, None], block,
                              out=np.empty((n, len(block), len(w))))
            terms = np.asarray(fn(pts.reshape(n, -1).T),
                               dtype=float).reshape(len(block), -1) * w
            terms, offset = np.stack([terms, np.abs(terms)]), 0
            for j, (g, a, b) in enumerate(run):
                out[j, :, i:i + step] = np.add.reduce(terms[..., offset:offset + b - a],
                                                      axis=2)
                offset += b - a
        sums.extend(out)
    leaf_sums = iter(sums)
    return np.stack([pairwise_total(len(w), BLOCK_POINTS, leaf_sums) / w.sum()
                     for _, w in grids])


def _sized_mean(fn, n: int, r, grids: dict):
    """(means, error estimates) of fn over the spheres of radii r (scalar or
    array) on the sized sphere rule: floats for a scalar r.

    The rule ``sphere_grid(n, p, p)`` starts at p = SPHERE_NODES /
    GRID_REFINE nodes per angle and is accepted when three checks agree with
    it at every radius to ``VOLUME_RTOL`` times the mean plus the rounding
    floor (ULP times (n - 1) p times the mean of |fn|): its half rule, p / 2
    nodes per angle, and the rules of p + 1 and p - 1 nodes per angle, no
    sub-rules of it, which see the modes it folds onto 0.  The first rule
    is still blind, at N = 2, to a mode k = 0 mod 15 * 16 * 17, which all
    four rules fold onto 0.  Otherwise p is multiplied by ``GRID_REFINE``,
    at most ``REFINE_ROUNDS`` times, and past SPHERE_NODES only while the
    rule has at most ``BALL_CHUNK_POINTS`` points; a disagreement at the
    ceiling raises an error that names the check, the radius and the rule.
    The estimate is the checks' differences plus the floor.  The four rules
    share the calls of fn (``_spherical_mean``).  ``grids`` holds the rules
    built so far, by node count; a rule is built when its rung is first
    reached.
    """
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    p = SPHERE_NODES // GRID_REFINE
    ceiling = max(q for q in (p * GRID_REFINE ** i for i in range(REFINE_ROUNDS + 1))
                  if q <= SPHERE_NODES or q ** (n - 1) <= BALL_CHUNK_POINTS)

    def grid(nodes):
        if nodes not in grids:
            grids[nodes] = sphere_grid(n, nodes, nodes)
        return grids[nodes]

    while True:
        nodes = (p // 2, p + 1, p - 1)
        rules = _spherical_mean(fn, n, rr, [grid(q) for q in (p, *nodes)])
        (means, size), checks = rules[0], rules[1:, 0]
        floor = ULP * (n - 1) * p * size
        gaps = np.abs(checks - means)
        excess = gaps - (VOLUME_RTOL * np.abs(means) + floor)
        if np.all(excess <= 0.0):
            break
        if p == ceiling:
            which, worst = np.unravel_index(int(np.argmax(excess)), excess.shape)
            raise RuntimeError(
                f"sphere rule of {p} nodes per angle does not resolve the mean: at "
                f"r = {rr[worst]:.6g} its mean {means[worst]:.6e} and the "
                f"{nodes[which]}-node {('half', 'coprime', 'coprime')[which]} "
                f"rule's {checks[which, worst]:.6e} differ by more than "
                f"VOLUME_RTOL, and {p} nodes per angle is the ceiling of "
                f"sphere_grid({n}, p, p)")
        p *= GRID_REFINE
    errors = np.add.reduce(gaps) + floor
    if np.ndim(r) == 0:
        return float(means[0]), float(errors[0])
    return means, errors


def _on_axis(fn, n: int, r):
    """fn at the points r e1 (scalar or array r): a radial function's mean
    over the sphere of radius r, a float for a scalar r."""
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    pts = np.zeros((n, rr.size))
    pts[0] = rr
    out = np.asarray(fn(pts.T), dtype=float)
    return float(out[0]) if np.ndim(r) == 0 else out


def radial_average(d: Density, r):
    """Mean of the weight over the sphere of radius r (scalar or array r).

    Radial densities short-circuit to a single on-axis evaluation.  Otherwise
    the mean is taken on the deficit profile's sized sphere rule
    (``_sized_mean``), which refuses a weight it does not resolve.
    """
    if np.any(np.asarray(r, dtype=float) < 0):
        raise ValueError("radius must be nonnegative")
    fn = partial(eval_weight, d)
    return _on_axis(fn, d.dim, r) if d.radial else _sized_mean(fn, d.dim, r, {})[0]


def deficit_profile(d: Density) -> RadialDeficit:
    """Deficit of the radial average below the limit: r -> a - mean f.

    Evaluated as the spherical mean of the pointwise deficit, which is the
    same number but stays accurate when the deficit is far below the weight's
    rounding floor.  A radial profile is the deficit on the first axis.  A
    non-radial one is the mean on the sized sphere rule (``_sized_mean``),
    from SPHERE_NODES / GRID_REFINE nodes per angle, checked at every call
    and refused where its ceiling does not resolve the mean; profile(r,
    estimate=True) returns (means, error estimates).  The rules are built
    once per profile, when a call first reaches them.
    """
    g, n = deficit_weight(d), d.dim
    if d.radial:
        return RadialDeficit(dim=n, profile=partial(_on_axis, g, n))
    grids: dict = {}

    def profile(r, estimate=False):
        means, errors = _sized_mean(g, n, r, grids)
        return (means, errors) if estimate else means

    p = SPHERE_NODES // GRID_REFINE
    rung = (p, p // 2, p + 1, p - 1)
    return RadialDeficit(dim=n, profile=profile,
                         sphere_points=sum(q ** (n - 1) for q in rung))


@dataclass(frozen=True)
class SampleSpec:
    """Where to probe a density for convergence-from-below validation."""

    radii: Sequence[float]
    n_directions: int = 64
    decay_radius: float = 50.0
    decay_bound: float = 0.01
    tol: float = 1e-12


def default_sample_spec(d: Density) -> SampleSpec:
    r0 = max(d.envelope_radius, 1.0)
    radii = tuple(float(r) for r in np.linspace(r0, 20.0 * r0, 25))
    return SampleSpec(radii=radii, decay_radius=max(10.0 * d.envelope_radius, 50.0))


@dataclass(frozen=True)
class ConvergenceReport:
    """Sampling report for the converging-from-below hypothesis."""

    passed: bool
    violations: tuple[tuple[float, int, float], ...]   # (radius, dir index, f)
    decay_radius: float
    decay_measured: float
    decay_bound: float
    samples: int


def validate_convergence(d: Density, spec: SampleSpec | None = None) -> ConvergenceReport:
    """Probe f <= a beyond the envelope radius and the decay of |f - a|.

    Returns a report rather than raising: a violation sets ``passed`` False
    and is listed with its sample location.
    """
    spec = spec or default_sample_spec(d)
    dirs, _ = band_coords(d.dim, 0.0, math.pi, max(8, spec.n_directions // 8),
                          spec.n_directions)
    violations = []
    count = 0
    for r in spec.radii:
        if r < d.envelope_radius:
            continue
        vals = np.atleast_1d(eval_weight(d, (r * dirs).T))
        count += vals.size
        bad = np.nonzero(vals > d.limit_a + spec.tol)[0]
        for i in bad[:16]:
            violations.append((float(r), int(i), float(vals[i])))
    # measure decay as the spherical mean of |a - f|, in deficit space when
    # available so tiny tails are reported at full precision
    g = deficit_weight(d)
    probe = (spec.decay_radius * dirs).T
    decay = float(np.mean(np.abs(np.asarray(g(probe), dtype=float))))
    passed = not violations and decay <= spec.decay_bound
    return ConvergenceReport(passed, tuple(violations), spec.decay_radius,
                             float(decay), spec.decay_bound, count)


def rescale(d: Density, target_volume: float) -> tuple[Density, float]:
    """Normalize the limit to 1 and a given weighted volume to omega_N.

    Returns (new density, lam) with new weight x -> f(lam * x) / a and
    lam = (target_volume / (a * omega_N))^{1/N}.  A region of f-volume
    ``target_volume`` maps under x -> x / lam to a region of new-volume
    omega_N; lam is recorded for that coordinate mapping.
    """
    if not target_volume > 0:
        raise ValueError("target volume must be positive")
    a, n = d.limit_a, d.dim
    lam = (target_volume / (a * unit_ball_volume(n))) ** (1.0 / n)
    inner = d.weight

    def weight(x):
        return np.asarray(inner(np.asarray(x, dtype=float) * lam), dtype=float) / a

    new_deficit = None
    if d.deficit is not None:
        inner_g = d.deficit

        def new_deficit(x):
            return np.asarray(inner_g(np.asarray(x, dtype=float) * lam),
                              dtype=float) / a

    out = Density(dim=n, weight=weight, limit_a=1.0,
                  envelope_radius=d.envelope_radius / lam, radial=d.radial,
                  label=f"{d.label}|rescaled", deficit=new_deficit)
    return out, float(lam)


# ---------------------------------------------------------------------------
# Registered closed-form families (config surface)
# ---------------------------------------------------------------------------

FAMILIES = ("constant", "radial_exp", "radial_power", "angular_mod")


def density_from_config(cfg: dict) -> Density:
    """Build a Density from a config record.

    Schema: {"family": one of constant | radial_exp | radial_power |
    angular_mod, "dim": N, "a": a, "params": {...}, "envelope_radius": R0}.

    Families (r = |x|, theta = angle from the first axis):
      constant      f = a
      radial_exp    f = a (1 - exp(-c r))                      params: c
      radial_power  f = a (1 - (1 + r)^-p)                     params: p
      angular_mod   f = a max(0, 1 - exp(-c r)(1 + eta cos(k theta)))
                                                               params: eta, k, c
    The angular family is clamped at zero near the origin where the
    modulation would otherwise push the weight negative.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config: expected a JSON object")
    for key in ("family", "dim", "a"):
        if key not in cfg:
            raise ConfigError(f"{key}: required")
    family = cfg["family"]
    if family not in FAMILIES:
        raise ConfigError(f"family: unknown {family!r}, expected one of {FAMILIES}")
    dim = _number(cfg["dim"], "dim", integer=True)
    a = _number(cfg["a"], "a")
    r0 = _number(cfg.get("envelope_radius", 0.0), "envelope_radius")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params: expected a JSON object")

    if family == "constant":
        def weight(x):
            return np.full(np.asarray(x, dtype=float).shape[:-1], a)

        def deficit(x):
            return np.zeros(np.asarray(x, dtype=float).shape[:-1])
        radial = True
    elif family == "radial_exp":
        c = _number(params.get("c", 1.0), "params.c")
        if c <= 0:
            raise ConfigError("params.c: must be positive")

        def weight(x):
            return a * (1.0 - np.exp(-c * norms(x)))

        def deficit(x):
            return a * np.exp(-c * norms(x))
        radial = True
    elif family == "radial_power":
        p = _number(params.get("p", 2.0), "params.p")
        if p <= 0:
            raise ConfigError("params.p: must be positive")

        def weight(x):
            return a * (1.0 - (1.0 + norms(x)) ** (-p))

        def deficit(x):
            return a * (1.0 + norms(x)) ** (-p)
        radial = True
    else:
        eta = _number(params.get("eta", 0.5), "params.eta")
        k = _number(params.get("k", 1), "params.k", integer=True)
        c = _number(params.get("c", 1.0), "params.c")
        if not 0 <= eta <= 1:
            raise ConfigError("params.eta: must lie in [0, 1]")
        if c <= 0:
            raise ConfigError("params.c: must be positive")

        # cos(k theta) = T_k(cos theta): a Chebyshev polynomial in x1/r
        cheb_k = np.zeros(abs(k) + 1)
        cheb_k[-1] = 1.0

        def _modulation(x):
            x = np.asarray(x, dtype=float)
            r = norms(x)
            with np.errstate(invalid="ignore", divide="ignore"):
                cos_t = np.where(r > 0, x[..., 0] / np.where(r > 0, r, 1.0), 1.0)
            cos_kt = np.polynomial.chebyshev.chebval(np.clip(cos_t, -1.0, 1.0),
                                                     cheb_k)
            return r, np.exp(-c * r) * (1.0 + eta * cos_kt)

        def weight(x):
            _, mod = _modulation(x)
            return a * np.maximum(1.0 - mod, 0.0)

        def deficit(x):
            # where the weight clamps at zero the deficit saturates at a
            _, mod = _modulation(x)
            return a * np.minimum(mod, 1.0)
        radial = False

    label = cfg.get("label", family)
    return Density(dim=dim, weight=weight, limit_a=a, envelope_radius=r0,
                   radial=radial, label=str(label), deficit=deficit)
