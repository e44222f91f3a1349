"""Tail mass outside growing balls and the finite-extinction comparison ODE.

For a set E of finite weighted volume, m(t) = |E \\ B_t|_f is nonincreasing
and nonnegative.  When it obeys the differential inequality

    m(t) <= C2 * (-m'(t))^{N/(N-1)},

comparison with the equality ODE m' = -(m / C2)^{(N-1)/N} forces m to vanish
by the closed-form time t* = N * C2^{(N-1)/N} * m0^{1/N}.  The equality flow
is linear in the substituted variable u = m^{1/N}, so the integrator below is
exact up to rounding and positivity-preserving by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .defaults import BLOCK_POINTS, SPHERE_NODES
from .density import Density, eval_weight
from .layers import cap_geometry
from .measures import (CompetitorSet, PlainBall, mc_integrals, mc_volume,
                       patch_integrals, set_frame, set_measures, set_patches,
                       sphere_cap_patch)
from .quadrature import frame_from_axis, gauss_nodes, norms


@dataclass(frozen=True, eq=False)
class TailMassCurve:
    """Sampled tail-mass curve; nonincreasing and nonnegative.

    ``times`` and ``masses`` are read-only float64 arrays.  An array passed
    in is viewed, not copied; a tuple or list is converted.
    """

    times: np.ndarray
    masses: np.ndarray
    source: str                    # "analytic" | "measured-from-set"

    def __post_init__(self):
        for name in ("times", "masses"):
            a = np.asarray(getattr(self, name), dtype=float).view()
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if np.any(self.masses < -1e-12):
            raise ValueError("tail masses must be nonnegative")
        if np.any(self.times[1:] <= self.times[:-1]):
            raise ValueError("times must be strictly increasing")


TAIL_SAMPLES = 200_000   # Monte-Carlo samples of a tail mass of an extended set


def tail_mass(E: CompetitorSet, d: Density, t: float,
              nodes: int = SPHERE_NODES, mc_samples: int = TAIL_SAMPLES,
              seed: int = 11) -> float:
    """Weighted volume of E outside the origin-centered ball of radius t.

    Offset balls are sliced exactly: the part of E beyond radius s is a
    spherical cap, integrated in s on 160 Gauss nodes.  The caps' sums come
    from ``_cap_sums``, each the float of one ``np.add.reduce`` over its
    cap's rule, and are added up slice by slice in order.  The extended
    families are sampled by ``mc_volume`` on the volume patches of
    ``set_patches``, keeping the points with |x| > t; at a fixed seed the
    points do not depend on t, so the estimate is nonincreasing in t.
    """
    if t <= 0.0:
        return set_measures(E, d, nodes=nodes)[1].value
    n, R = E.dim, E.offset
    if t >= R + 1.0:
        return 0.0
    if not isinstance(E, PlainBall):
        return mc_volume(E, _outside(d, t), mc_samples, seed).value
    frame = frame_from_axis(set_frame(E)[:, 0])     # one frame for every slice
    lo = max(t, R - 1.0)
    # substitute s = R + sin(u): the cap angle vanishes like a square
    # root at tangency, and becomes smooth in u
    u_nodes, u_w = gauss_nodes(math.asin(lo - R), math.pi / 2, 160)
    radii, factors = [], []
    for u, wu in zip(u_nodes.tolist(), u_w.tolist()):
        s = R + math.sin(u)
        if abs(s - R) < 1.0:
            radii.append(s)
            factors.append(wu * math.cos(u))
    radii = np.array(radii)
    sums = _cap_sums(partial(eval_weight, d), n, radii, cap_geometry(radii, R),
                     frame, nodes)
    total = 0.0
    for factor, cap in zip(factors, sums):
        total += factor * cap
    return total


def _cap_sums(fn, n: int, radii: np.ndarray, gammas: np.ndarray,
              frame: np.ndarray, nodes: int) -> list[float]:
    """The sum of fn w over each cap of radius radii[i] about the origin and
    angle [0, gammas[i]] about ``frame``'s first column, on its rule of
    ``nodes`` nodes per angle: the float of one ``np.add.reduce`` over the
    cap.

    The caps are built in runs of whole caps of at most ``BLOCK_POINTS``
    points, one ``sphere_cap_patch`` call per run, and fn sees a run at a
    time.  A cap of more points is integrated alone in ``GaussBlocks``
    (``patch_integrals``), which cut it at its pairwise leaves.
    """
    size = 2 * nodes if n == 2 else nodes ** (n - 1)   # points of one cap
    centre = np.zeros(n)
    if size > BLOCK_POINTS:
        return [patch_integrals(partial(sphere_cap_patch, n, s, centre, frame, 0.0,
                                        gamma, nodes, nodes), fn).value
                for s, gamma in zip(radii.tolist(), gammas.tolist())]
    per, sums = BLOCK_POINTS // size, []
    for i in range(0, len(radii), per):
        run = radii[i:i + per]
        pts, w = sphere_cap_patch(n, run, centre, frame, 0.0, gammas[i:i + per],
                                  nodes, nodes)
        terms = (np.asarray(fn(pts), dtype=float) * w).reshape(len(run), -1)
        sums += np.add.reduce(terms, axis=1).tolist()
    return sums


def _outside(d: Density, t: float):
    """The weight times the indicator of |x| > t."""
    def outside(x):
        return eval_weight(d, x) * (norms(x) > t)
    return outside


def tail_mass_curve(E: CompetitorSet, d: Density, times,
                    seed: int = 11) -> TailMassCurve:
    """``tail_mass`` at each of ``times``, float for float.

    A ``PlainBall`` is sliced once per distinct lower limit: every t in
    (0, R - 1] slices from R - 1, so those times share one slicing.  For
    other sets the times strictly inside (0, R + 1) share one Monte-Carlo
    draw: one ``mc_integrals`` over the volume patches of ``set_patches``
    with one thresholded weight per time, each the same float as its own
    ``tail_mass`` call at the seed."""
    times = tuple(float(t) for t in times)
    R = E.offset
    if isinstance(E, PlainBall):
        lows = [max(t, R - 1.0) if 0.0 < t < R + 1.0 else t for t in times]
        sliced = {lo: tail_mass(E, d, lo) for lo in dict.fromkeys(lows)}
        return TailMassCurve(times, [sliced[lo] for lo in lows],
                             "measured-from-set")
    inside = [t for t in times if 0.0 < t < R + 1.0]
    drawn = dict(zip(inside, mc_integrals(set_patches(E).volume,
                                          [_outside(d, t) for t in inside],
                                          TAIL_SAMPLES, seed))) if inside else {}
    masses = [drawn[t].value if t in drawn else tail_mass(E, d, t, seed=seed)
              for t in times]
    return TailMassCurve(times, masses, "measured-from-set")


def extinction_time(C2: float, n: int, m0: float) -> float:
    """Extinction time of the equality ODE m' = -(m/C2)^{(N-1)/N}:

    t* = N * C2^{(N-1)/N} * m0^{1/N}; m^{1/N} decays linearly along the flow.
    """
    if C2 <= 0 or m0 <= 0:
        raise ValueError("C2 and m0 must be positive")
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return n * C2 ** ((n - 1) / n) * m0 ** (1.0 / n)


@dataclass(frozen=True)
class ExtinctionCertificate:
    curve: TailMassCurve
    extinction_observed: float
    extinction_closed_form: float

    @property
    def residual(self) -> float:
        return abs(self.extinction_observed - self.extinction_closed_form)


# masses raised to the power N per block of Python floats
_BLOCK = 4096


def simulate_comparison_ode(C2: float, n: int, m0: float,
                            step: float = 1e-3) -> ExtinctionCertificate:
    """Integrate the equality ODE in u = m^{1/N}, where it is linear.

    u decreases at the constant rate 1 / (N C2^{(N-1)/N}); the crossing of
    zero inside a step is resolved exactly, so the observed extinction time
    matches the closed form to rounding.  The curve's times and masses are
    built in place in one float64 buffer each: the masses overwrite the u
    values they are raised from.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    closed = extinction_time(C2, n, m0)
    rate = 1.0 / (n * C2 ** ((n - 1) / n))
    u0, du = m0 ** (1.0 / n), rate * step
    # the steps u -= du and t += step, in order: running differences and
    # sums accumulate one element after another, as the loop did; u[j] is
    # the first value whose next step would not stay positive
    count = int(u0 / du) + 2
    while True:
        u = np.full(count + 1, du)
        u[0] = u0
        np.subtract.accumulate(u, out=u)
        ends = np.flatnonzero(u[1:] <= 0.0)
        if ends.size:
            break
        count *= 2
    j = int(ends[0])
    times = np.full(j + 2, step)
    times[0] = 0.0
    np.add.accumulate(times[:j + 1], out=times[:j + 1])
    end = float(times[j]) + float(u[j]) / rate
    times[j + 1] = end
    # Python's x ** n (libm pow) per element: np.power rounds some of the
    # masses differently
    masses = u[:j + 2]
    masses[0], masses[j + 1] = m0, 0.0
    inner = masses[1:j + 1]
    for i in range(0, j, _BLOCK):
        block = inner[i:i + _BLOCK]
        block[:] = [x ** n for x in block.tolist()]
    curve = TailMassCurve(times, masses, "analytic")
    return ExtinctionCertificate(curve, end, closed)


@dataclass(frozen=True)
class ComparisonReport:
    inequality_holds: bool
    below_equality_curve: bool
    max_violation: float
    max_excess: float

    @property
    def passed(self) -> bool:
        return self.inequality_holds and self.below_equality_curve


def comparison_check(curve: TailMassCurve, C2: float, n: int,
                     grid_tol: float = 1e-6) -> ComparisonReport:
    """Check the differential inequality on a measured curve and compare it
    with the equality solution started from the same initial mass.

    m' uses centered differences with one-sided closure at the ends.  Any
    curve satisfying the inequality pointwise must lie below the equality
    curve from the same m0, up to grid tolerance.
    """
    t = np.asarray(curve.times)
    m = np.asarray(curve.masses)
    dm = np.gradient(m, t)
    rhs = C2 * np.maximum(-dm, 0.0) ** (n / (n - 1))
    violation = float(np.max(m - rhs))
    m0 = m[0]
    rate = 1.0 / (n * C2 ** ((n - 1) / n))
    u = np.maximum(m0 ** (1.0 / n) - rate * t, 0.0)
    equality = u ** n
    excess = float(np.max(m - equality))
    return ComparisonReport(violation <= grid_tol, excess <= grid_tol,
                            violation, excess)
