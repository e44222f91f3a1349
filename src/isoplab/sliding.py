"""Sliding-kernel sign certificates.

Given a kernel k on (-1, 1) and a nonnegative deficit profile g vanishing at
infinity, the correlation

    corr(R) = integral_{-1}^{1} k(t) g(R + t) dt

admits arbitrarily large translates R with corr(R) >= 0 whenever the kernel
is admissible: its running integral from -1 must vanish over the whole
interval and stay strictly positive inside.  Two kinds are supported:

* ``direct``     -- the admissibility conditions apply to the kernel itself;
* ``derivative`` -- they apply to its primitive, which must also vanish at
  t = 1.  The built-in derivative kernel is the layer-area kernel minus N
  times the layer-volume kernel; translates where its correlation is
  nonnegative certify that the offset ball's deficit perimeter dominates N
  times its deficit volume.

The search is a certified grid scan: every evaluated (R, corr) pair is
recorded and the first grid point with corr >= 0 is returned; no crossing
is sought, since the argument needs only some large qualifying translate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .defaults import BLOCK_POINTS, DEGENERACY_TOL, ENDPOINT_MARGIN, SCAN_STEP
from .density import RadialDeficit
from .layers import (asymptotic_kernels, layer_integral, profile_integrals,
                     running_integral)
from .quadrature import unit_ball_volume


@dataclass(frozen=True)
class SlidingKernel:
    """Kernel on (-1, 1) with the data needed for admissibility checks.

    ``values`` is the kernel; for derivative kind, ``primitive`` is its
    running integral from -1 and ``running`` the closed-form running integral
    of the primitive when available (used by fast admissibility checks).
    """

    kind: str                                  # "direct" | "derivative"
    dim: int | None
    values: Callable[[np.ndarray], np.ndarray]
    primitive: Callable[[np.ndarray], np.ndarray] | None = None
    running: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = "kernel"


def excess_kernel(n: int) -> SlidingKernel:
    """Layer-area kernel minus n times the layer-volume kernel.

    Both primitive and its running integral come out in closed form:

        primitive(t) = -omega_{n-1} t (1 - t^2)^{(n-1)/2}
        running(s)   =  omega_{n-1} (1 - s^2)^{(n+1)/2} / (n + 1)

    so primitive(+-1) = 0 and the running integral is positive inside.
    """
    asym = asymptotic_kernels(n)
    w = unit_ball_volume(n - 1)

    def values(t):
        return asym.area_kernel(t) - n * asym.volume_kernel(t)

    def primitive(t):
        t = np.asarray(t, dtype=float)
        return -w * t * (1.0 - t * t) ** ((n - 1) / 2.0)

    def running(s):
        s = np.asarray(s, dtype=float)
        return w * (1.0 - s * s) ** ((n + 1) / 2.0) / (n + 1)

    return SlidingKernel("derivative", n, values, primitive, running,
                         label=f"excess[{n}]")


def direct_kernel(fn, label: str = "user") -> SlidingKernel:
    """Wrap a plain kernel whose own running integral is sign-checked."""
    return SlidingKernel("direct", None, fn, label=label)


@dataclass(frozen=True)
class AdmissibilityReport:
    integral_zero: bool
    positive_inside: bool
    primitive_vanishes: bool      # trivially True for direct kernels
    integral_value: float
    min_running: float
    primitive_at_one: float
    grid_size: int

    @property
    def passed(self) -> bool:
        return self.integral_zero and self.positive_inside and self.primitive_vanishes


ZERO_TOL = 1e-10   # |value| up to which check_admissibility reads an integral as 0


def check_admissibility(k: SlidingKernel,
                        grid: np.ndarray | None = None) -> AdmissibilityReport:
    """Verify the sign conditions on a dense grid of (-1, 1), by default
    10,001 points on |t| <= 1 - ``ENDPOINT_MARGIN``.

    Checks: the checked function (kernel for direct kind, primitive for
    derivative kind) integrates to zero over (-1, 1); its running integral is
    strictly positive at every interior grid point; for derivative kind the
    primitive also vanishes at t = 1.  Zero means within ``ZERO_TOL``.  The
    running values and the total come from one call of the running integral
    on the grid with 1 appended.
    """
    if grid is None:
        grid = np.linspace(-1.0 + ENDPOINT_MARGIN, 1.0 - ENDPOINT_MARGIN, 10_001)
    grid = np.asarray(grid, dtype=float)
    checked = k.primitive if k.kind == "derivative" else k.values
    if checked is None:
        raise ValueError("derivative kernel lacks a primitive")
    values = (k.running or partial(running_integral, checked))(np.append(grid, 1.0))
    running, total = np.asarray(values[:-1], dtype=float), float(values[-1])
    prim_one = layer_integral(k.values)[0] if k.kind == "derivative" else 0.0
    return AdmissibilityReport(
        integral_zero=abs(total) <= ZERO_TOL,
        positive_inside=bool(np.all(running > 0.0)),
        primitive_vanishes=(k.kind == "direct" or abs(prim_one) <= ZERO_TOL),
        integral_value=total,
        min_running=float(running.min()),
        primitive_at_one=prim_one,
        grid_size=grid.size,
    )


def correlation(k: SlidingKernel, g: RadialDeficit, R: float) -> tuple[float, float]:
    """corr(R) = integral of kernel(t) g(R + t) over (-1, 1), and its error
    estimate, by ``layers.profile_integrals``."""
    return profile_integrals(k.values, g.profile, R, g.breakpoints)[:2]


@dataclass(frozen=True)
class SignSearchOutcome:
    found: bool
    R: float
    correlation: float
    scan: tuple[tuple[float, float], ...]
    degenerate: bool              # deficit vanished on the whole scan window
    strict: bool                  # correlation exceeds its own error estimate


def _tail_is_zero(g: RadialDeficit, lo: float, hi: float) -> bool:
    """Whether the profile is within ``DEGENERACY_TOL`` of zero at 512 radii of
    [lo, hi], or [lo, hi] lies beyond its support.  The radii go to the
    profile in chunks of at most ``BLOCK_POINTS`` weight evaluations, and
    the first chunk with a nonzero value answers."""
    if g.support_hint is not None and lo >= g.support_hint:
        return True
    r = np.linspace(max(lo, 0.0), hi, 512)
    step = max(1, BLOCK_POINTS // g.sphere_points)
    return all(np.all(np.abs(np.asarray(g.profile(r[i:i + step]), dtype=float))
                      <= DEGENERACY_TOL) for i in range(0, r.size, step))


def sliding_sign_search(k: SlidingKernel, g: RadialDeficit, R_min: float,
                        R_max: float) -> SignSearchOutcome:
    """Scan translates R in [R_min, R_max], ``SCAN_STEP`` apart, for a
    nonnegative correlation.

    Returns the first grid point with corr >= 0, the last of the scan,
    strict when corr exceeds that point's own layer-rule error estimate; no
    crossing between grid points is sought.  A profile vanishing identically
    on (R_min - 1, R_max + 1) short-circuits to the degenerate outcome.  If no
    grid point qualifies the full scan is returned with found = False, which
    flags an inadmissible kernel, a non-vanishing deficit, or R_max too small.
    """
    if R_min <= 1.0:
        raise ValueError("R_min must exceed 1")
    if R_max < R_min:
        raise ValueError("R_max must be >= R_min")
    if _tail_is_zero(g, R_min - 1.0, R_max + 1.0):
        return SignSearchOutcome(True, float(R_min), 0.0, ((float(R_min), 0.0),),
                                 True, False)
    grid = np.arange(R_min, R_max + 0.5 * SCAN_STEP, SCAN_STEP)
    scan: list[tuple[float, float]] = []
    for R in grid:
        c, err = correlation(k, g, float(R))
        scan.append((float(R), c))
        if c >= 0.0:
            return SignSearchOutcome(True, float(R), c, tuple(scan), False, c > err)
    return SignSearchOutcome(False, float("nan"), float("nan"), tuple(scan),
                             False, False)


def averaging_identity_residual(k: SlidingKernel, g: RadialDeficit,
                                R1: float, R2: float) -> tuple[float, float, float]:
    """Residual of the averaged-translate identity behind the sign search.

    For R2 >= R1 + 2 and a kernel integrating to zero,

        integral_{R1}^{R2} corr(R) dR
          = integral_{R1-1}^{R1+1} g(s) A(s - R1) ds
          + integral_{R2-1}^{R2+1} g(s) B(s - R2) ds,

    with A(s) the running integral of the kernel from -1 and B(s) the
    remaining integral up to 1.  All three run on ``layer_integral``; the
    left one on R-panels split at every breakpoint +- 1, each mapped onto
    (-1, 1) so that the correlation's square-root ends get the u-substitution.
    Returns (lhs, rhs, |lhs - rhs|).
    """
    if R2 < R1 + 2.0:
        raise ValueError("need R2 >= R1 + 2")
    edges = sorted({R1, R2, *(b + e for b in g.breakpoints for e in (-1.0, 1.0)
                              if R1 < b + e < R2)})
    lhs = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        lhs += half * layer_integral(lambda x: np.array(
            [correlation(k, g, mid + half * xi)[0] for xi in x]))[0]

    A = (k.primitive if k.kind == "derivative" and k.primitive is not None
         else partial(running_integral, k.values))
    total = layer_integral(k.values)[0]
    rhs = (profile_integrals(A, g.profile, R1, g.breakpoints)[0] + profile_integrals(
        lambda t: total - A(t), g.profile, R2, g.breakpoints)[0])
    return lhs, rhs, abs(lhs - rhs)
