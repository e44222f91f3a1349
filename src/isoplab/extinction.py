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
from itertools import chain

import numpy as np

from .defaults import SPHERE_NODES
from .density import Density, eval_weight
from .layers import cap_geometry
from .measures import (CompetitorSet, PlainBall, mc_integrals, mc_volume,
                       set_frame, set_measures, set_patches, sphere_cap_patch)
from .quadrature import frame_from_axis, gauss_nodes, norms


@dataclass(frozen=True)
class TailMassCurve:
    """Sampled tail-mass curve; nonincreasing and nonnegative."""

    times: tuple[float, ...]
    masses: tuple[float, ...]
    source: str                    # "analytic" | "measured-from-set"

    def __post_init__(self):
        m = np.asarray(self.masses)
        if np.any(m < -1e-12):
            raise ValueError("tail masses must be nonnegative")
        if np.any(np.diff(np.asarray(self.times)) <= 0):
            raise ValueError("times must be strictly increasing")


TAIL_SAMPLES = 200_000   # Monte-Carlo samples of a tail mass of an extended set


def tail_mass(E: CompetitorSet, d: Density, t: float,
              nodes: int = SPHERE_NODES, mc_samples: int = TAIL_SAMPLES,
              seed: int = 11) -> float:
    """Weighted volume of E outside the origin-centered ball of radius t.

    Offset balls are sliced exactly: the part of E beyond radius s is a
    union of spherical caps, integrated in s.  The extended families are
    sampled by ``mc_volume`` on the volume patches of ``set_patches``,
    keeping the points with |x| > t; at a fixed seed the points do not
    depend on t, so the estimate is nonincreasing in t.
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
    total = 0.0
    for u, wu in zip(u_nodes, u_w):
        s = R + math.sin(u)
        if not abs(s - R) < 1.0:
            continue
        gamma = float(cap_geometry(s, R))
        pts, w = sphere_cap_patch(n, s, np.zeros(n), frame,
                                  0.0, gamma, nodes, nodes)
        total += wu * math.cos(u) * float(np.add.reduce(
            np.asarray(eval_weight(d, pts), dtype=float) * w))
    return total


def _outside(d: Density, t: float):
    """The weight times the indicator of |x| > t."""
    def outside(x):
        return eval_weight(d, x) * (norms(x) > t)
    return outside


def tail_mass_curve(E: CompetitorSet, d: Density, times,
                    seed: int = 11) -> TailMassCurve:
    """``tail_mass`` at each of ``times``.  For sets other than ``PlainBall``
    the times strictly inside (0, R + 1) share one Monte-Carlo draw: one
    ``mc_integrals`` over the volume patches of ``set_patches`` with one
    thresholded weight per time, each the same float as its own
    ``tail_mass`` call at the seed."""
    times = tuple(float(t) for t in times)
    inside = ([] if isinstance(E, PlainBall) else
              [t for t in times if 0.0 < t < E.offset + 1.0])
    drawn = dict(zip(inside, mc_integrals(set_patches(E).volume,
                                          [_outside(d, t) for t in inside],
                                          TAIL_SAMPLES, seed))) if inside else {}
    masses = tuple(drawn[t].value if t in drawn else
                   tail_mass(E, d, t, seed=seed) for t in times)
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


# elements converted to Python floats at a time
_BLOCK = 4096


def _floats(a: np.ndarray):
    """The elements of ``a`` as Python floats, converted block by block."""
    for i in range(0, len(a), _BLOCK):
        yield from a[i:i + _BLOCK].tolist()


def simulate_comparison_ode(C2: float, n: int, m0: float,
                            step: float = 1e-3) -> ExtinctionCertificate:
    """Integrate the equality ODE in u = m^{1/N}, where it is linear.

    u decreases at the constant rate 1 / (N C2^{(N-1)/N}); the crossing of
    zero inside a step is resolved exactly, so the observed extinction time
    matches the closed form to rounding.
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
        u = np.subtract.accumulate(np.append(u0, np.full(count, du)))
        ends = np.flatnonzero(u[1:] <= 0.0)
        if ends.size:
            break
        count *= 2
    j = int(ends[0])
    t = np.add.accumulate(np.append(0.0, np.full(j, step)))
    end = float(t[-1]) + float(u[j]) / rate
    times = tuple(chain(_floats(t), (end,)))
    masses = tuple(chain((m0,), (x ** n for x in _floats(u[1:j + 1])), (0.0,)))
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
