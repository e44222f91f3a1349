"""Radial-layer geometry of a unit ball whose center sits at distance R > 1
from the origin.

Slicing the ball by concentric spheres |x| = R + t, t in (-1, 1), gives two
kernels on (-1, 1):

* ``area_kernel`` -- the density, against dt, of the surface measure of the
  unit sphere centered at R*e1, written in the coordinate t = |x| - R;
* ``volume_kernel`` -- the area of the slice of the offset ball cut by the
  sphere of radius R + t, so that integrating kernel(t) * w(R + t) gives the
  w-weighted perimeter resp. volume of the offset ball for radial weights w.

As R grows the layers flatten and both kernels converge uniformly to simple
limit profiles in t; ``asymptotic_kernels`` returns those limits.

Conventions: a "cap" of a circle (n = 2) consists of the two symmetric arcs
cut by the slicing circle, matching the slice measure of the disk.  The
integral of sin^m is evaluated by the standard recurrence so that low
dimensions reduce to exact closed forms.  ``layer_integral`` integrates a
kernel, or a stack of them, on Gauss rules in u = asin(t), with a
node-halving error estimate, and ``running_integral`` integrates from -1 to
many limits on the same rule.  ``profile_integrals`` integrates kernels
against a radial profile at offset R on that rule, with the profile's own
error when it is a sphere rule's mean, for the ball's deficit measures, the
sliding correlation and the sweep moments (``moment_integrals``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .defaults import (ENDPOINT_MARGIN, GRID_REFINE, LAYER_NODES, REFINE_ROUNDS,
                       VOLUME_RTOL)
from .quadrature import gauss_nodes, unit_ball_volume

ULP = float(np.finfo(float).eps)


@dataclass(frozen=True)
class LayerKernelPair:
    """Pair of layer kernels on (-1, 1) for one offset (or the limit)."""

    dim: int
    kind: str                      # "exact" | "asymptotic"
    offset: float | None           # R for exact kernels, None for the limit
    area_kernel: Callable[[np.ndarray], np.ndarray]
    volume_kernel: Callable[[np.ndarray], np.ndarray]


def cap_geometry(s: float, R: float):
    """Half-angle gamma of the cap cut on the sphere |x| = s by the unit ball
    centered at distance R; requires |s - R| < 1 so that they intersect.

    cos(gamma) = (s^2 + R^2 - 1) / (2 s R).  Both cos and sin of gamma are
    assembled from cancellation-free products so tangency behaves cleanly.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0) or R <= 1:
        raise ValueError("need s > 0 and R > 1")
    t = s - R
    if np.any(np.abs(t) >= 1):
        raise ValueError("sphere of radius s does not meet the offset unit ball")
    cos_g, sin_g, _ = _cap_trig(s, R)
    return np.arctan2(sin_g, cos_g)


def _cap_trig(s, R):
    """(cos g, sin g, 1 - cos g) for the cap angle, each in stable form."""
    t = s - R
    one_minus = (1.0 - t * t) / (2.0 * s * R)          # 1 - cos g
    plus = ((s + R) ** 2 - 1.0) / (2.0 * s * R)        # 1 + cos g
    cos_g = 1.0 - one_minus
    sin_g = np.sqrt(one_minus * plus)
    return cos_g, sin_g, one_minus


def sin_power_integral(m: int, gamma, cos_g=None, sin_g=None, one_minus_cos=None):
    """Integral of sin^m(u) du from 0 to gamma via the standard recurrence.

    I_0 = gamma, I_1 = 1 - cos(gamma),
    I_m = ((m - 1) I_{m-2} - cos(gamma) sin^{m-1}(gamma)) / m.

    Stable trig values may be supplied to avoid recomputing near tangency.
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    gamma = np.asarray(gamma, dtype=float)
    if cos_g is None:
        cos_g = np.cos(gamma)
    if sin_g is None:
        sin_g = np.sin(gamma)
    if one_minus_cos is None:
        one_minus_cos = 1.0 - cos_g
    if m == 0:
        return gamma + 0.0
    if m == 1:
        return one_minus_cos + 0.0
    prev2, prev1 = gamma, one_minus_cos            # I_0, I_1
    for k in range(2, m + 1):
        cur = ((k - 1) * prev2 - cos_g * sin_g ** (k - 1)) / k
        prev2, prev1 = prev1, cur
    return prev1


def cap_area(n: int, s, gamma) -> np.ndarray:
    """Surface area of the polar cap of half-angle gamma on a sphere of
    radius s in R^n: s^{n-1} (n-1) omega_{n-1} * integral_0^gamma sin^{n-2}.

    For n = 2 this is 2*s*gamma, i.e. both arcs of the slice.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    s = np.asarray(s, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < -1e-15) or np.any(gamma > math.pi + 1e-15):
        raise ValueError("cap angle outside [0, pi]")
    coef = (n - 1) * unit_ball_volume(n - 1)
    return s ** (n - 1) * coef * sin_power_integral(n - 2, gamma)


def asymptotic_kernels(n: int) -> LayerKernelPair:
    """Flat-layer limits of the kernels:

    area_kernel(t)   = (n-1) omega_{n-1} (1 - t^2)^{(n-3)/2}
    volume_kernel(t) = omega_{n-1} (1 - t^2)^{(n-1)/2}

    Their full integrals are the unit sphere area and unit ball volume.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    w = unit_ball_volume(n - 1)

    def area_kernel(t):
        t = np.asarray(t, dtype=float)
        return (n - 1) * w * (1.0 - t * t) ** ((n - 3) / 2.0)

    def volume_kernel(t):
        t = np.asarray(t, dtype=float)
        return w * (1.0 - t * t) ** ((n - 1) / 2.0)

    return LayerKernelPair(n, "asymptotic", None, area_kernel, volume_kernel)


def exact_kernels(n: int, R: float) -> LayerKernelPair:
    """Exact layer kernels of the unit ball centered at distance R > 1.

    With s = R + t, the slicing sphere |x| = s cuts the offset ball in a cap
    whose area gives the volume kernel.  Parametrizing the offset unit sphere
    by the angle a between the outward radius and the center direction,
    |x|^2 = R^2 + 1 + 2 R cos(a), the coarea factor of |x| on that sphere is

        area_kernel(t) = (n-1) omega_{n-1} sin^{n-3}(a) * s / R,

    where sin(a) = sqrt((1 - t^2) ((s + R)^2 - 1)) / (2R).  In n = 3 both
    kernels are exactly (s / R) times their flat limits.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not R > 1:
        raise ValueError("offset must exceed the ball radius 1")
    w = unit_ball_volume(n - 1)

    def area_kernel(t):
        t = np.asarray(t, dtype=float)
        s = R + t
        sin_a = np.sqrt((1.0 - t * t) * ((s + R) ** 2 - 1.0)) / (2.0 * R)
        return (n - 1) * w * sin_a ** (n - 3) * (s / R)

    def volume_kernel(t):
        t = np.asarray(t, dtype=float)
        s = R + t
        cos_g, sin_g, one_minus = _cap_trig(s, R)
        if n == 2:
            gamma = np.arctan2(sin_g, cos_g)
            return 2.0 * s * gamma
        im = sin_power_integral(n - 2, np.arctan2(sin_g, cos_g),
                                cos_g=cos_g, sin_g=sin_g,
                                one_minus_cos=one_minus)
        return s ** (n - 1) * (n - 1) * w * im

    return LayerKernelPair(n, "exact", float(R), area_kernel, volume_kernel)


def moment_integrals(g, n: int, R: float):
    """The sweep moments (Band_g, W_g) of the offset ball for a radial
    weight's deficit profile ``g`` (a ``RadialDeficit``), each as
    ``layer_integral``'s (value, estimate, evaluations), rows of one
    ``profile_integrals`` call.

    A rotation about a 2-plane through the origin and the centre direction
    c turns the ball's meridian section, the unit (n-1)-disk about R c, and
    by an angle delta sweeps a band and a wedge whose g-integrals are delta
    Band_g and delta W_g: the moments of g(|x|) (x.c) over the disk's
    boundary sphere and over the disk.  On the slice |x| = s = R + t their
    kernels are x.c = (s^2 + R^2 - 1)/(2R) times the sphere's area kernel
    ``exact_kernels(n-1, R)``, and the moment of x.c over the disk's cap of
    half-angle gamma, s^{n-1} |S^{n-3}| sin^{n-2}(gamma)/(n-2) = omega_{n-2}
    s^{n-1} sin^{n-2}(gamma).  With g = 1 they are (n-1) R omega_{n-1} and R
    omega_{n-1}.  For n = 2 the disk is the segment [R - 1, R + 1], the
    wedge's kernel is s, and Band_g = g(R + 1)(R + 1) + g(R - 1)(R - 1), two
    points, estimated by 2 ULP times its terms.
    """
    omega = unit_ball_volume(n - 2)

    def wedge(t):
        s = R + t
        return omega * s ** (n - 1) * _cap_trig(s, R)[1] ** (n - 2)

    if n == 2:
        ends = np.array([R + 1.0, R - 1.0])
        terms = np.asarray(g.profile(ends), dtype=float) * ends
        return ((float(np.add.reduce(terms)),
                 2.0 * ULP * float(np.add.reduce(np.abs(terms))), 2),
                profile_integrals(wedge, g, R))
    area = exact_kernels(n - 1, R).area_kernel
    values, estimates, count = profile_integrals(
        lambda t: np.stack([(R + t - (1.0 - t * t) / (2.0 * R)) * area(t), wedge(t)]),
        g, R)
    return tuple((v, e, count) for v, e in zip(values, estimates))


def profile_integrals(fn, g, R: float):
    """``layer_integral`` of fn(t) g.profile(R + t), the rows of fn against
    the radial profile of ``g`` (a ``RadialDeficit``) on the layer of the
    ball at offset R, its panels cut at the profile's breakpoints b, t = b -
    R.  The profile's error estimate (``g.estimate``), nonzero for a
    sphere rule's mean, joins the integrals'."""
    return layer_integral(fn, lambda t: g.estimate(R + t),
                          tuple(b - R for b in g.breakpoints))


@dataclass(frozen=True)
class DeviationReport:
    """Sup-norm relative deviation of exact kernels from their limits."""

    dim: int
    offset: float
    margin: float
    grid_size: int
    sup_area: float
    sup_volume: float

    @property
    def sup(self) -> float:
        return max(self.sup_area, self.sup_volume)


def kernel_deviation(n: int, R: float,
                     grid: np.ndarray | None = None) -> DeviationReport:
    """sup over the grid of |exact/limit - 1| for both kernels.

    The grid must avoid the endpoints; the default uses 1001 points on
    |t| <= 1 - ``ENDPOINT_MARGIN``.
    """
    if grid is None:
        grid = np.linspace(-1.0 + ENDPOINT_MARGIN, 1.0 - ENDPOINT_MARGIN, 1001)
    grid = np.asarray(grid, dtype=float)
    if np.any(np.abs(grid) > 1.0 - ENDPOINT_MARGIN * (1 - 1e-12)):
        raise ValueError("grid must stay inside |t| <= 1 - margin")
    ex = exact_kernels(n, R)
    asym = asymptotic_kernels(n)
    dev_a = np.max(np.abs(ex.area_kernel(grid) / asym.area_kernel(grid) - 1.0))
    dev_v = np.max(np.abs(ex.volume_kernel(grid) / asym.volume_kernel(grid) - 1.0))
    return DeviationReport(n, float(R), ENDPOINT_MARGIN, grid.size, float(dev_a),
                           float(dev_v))


def layer_integral(fn, weight=None, breakpoints=()):
    """Integral of fn(t) * weight(t) over (-1, 1) on Gauss rules in u,
    t = sin(u), which makes endpoint factors (1 - t^2)^{+-1/2} smooth.

    The breakpoints (radii in t where the weight is not smooth) cut the
    u-interval into panels of ``LAYER_NODES`` nodes, and of half as many for
    the estimate.  While the rules differ by more than ``VOLUME_RTOL`` of
    sum |terms|, each panel is cut into ``GRID_REFINE``, at most
    ``REFINE_ROUNDS`` times.  fn and weight see a rule's nodes in one call,
    and fn may return several rows (kernels), integrated on the same rules
    and all refined while any row's rules differ.  weight(t) returns
    (values, error estimates e(t)): a weight known to within e, such as a
    sphere rule's mean (``deficit_profile``), or with e = 0 exactly; None is
    the weight 1.  Returns (value, |full - half| + ULP * nodes * sum |terms|
    + the integral of |fn| e on the full rule, evaluations): floats for one
    row, lists of floats for several, and the count of nodes of every rule.
    A row whose rules are not finite raises, naming the breakpoint nearest
    +-1.
    """
    cuts = sorted({math.asin(b) for b in breakpoints if -1.0 < b < 1.0})
    edges = np.array([-math.pi / 2, *cuts, math.pi / 2])
    count = 0
    for rounds in range(REFINE_ROUNDS + 1):
        rules = []
        for nodes in (LAYER_NODES, LAYER_NODES // 2):
            u, w = (a.ravel() for a in gauss_nodes(edges[:-1, None], edges[1:, None],
                                                   nodes))
            t = np.sin(u)
            kernel = w * np.cos(u) * fn(t)
            values, errors = (1.0, 0.0) if weight is None else weight(t)
            rules.append(kernel * values)
            if nodes == LAYER_NODES:
                spread = np.add.reduce(np.abs(kernel) * errors, axis=-1)
        full, half = rules
        count += full.shape[-1] + half.shape[-1]
        value, scale = np.add.reduce(full, axis=-1), np.add.reduce(np.abs(full), axis=-1)
        diff = np.abs(value - np.add.reduce(half, axis=-1))
        bad = np.flatnonzero(~np.isfinite(diff))
        if bad.size:
            near = max((b for b in breakpoints if -1.0 < b < 1.0), key=abs, default=None)
            raise RuntimeError(
                f"layer integral not finite in row(s) {bad.tolist()}; the breakpoint "
                f"nearest +-1 is t = {near!r} (a panel within ~1e-13 of +-1 puts a "
                "node t = sin(u) on +-1, where the N = 2 area kernel is infinite)")
        if np.all(diff <= VOLUME_RTOL * scale) or rounds == REFINE_ROUNDS:
            estimate = diff + ULP * full.shape[-1] * scale + spread
            return value.tolist(), estimate.tolist(), count
        width = np.diff(edges)[:, None] * (np.arange(GRID_REFINE) / GRID_REFINE)
        edges = np.append((edges[:-1, None] + width).ravel(), edges[-1])


def running_integral(fn, upper) -> np.ndarray:
    """Integral of fn(t) from -1 to each limit in ``upper``: ``LAYER_NODES``
    Gauss nodes in u = asin(t) on each panel between consecutive sorted
    limits, fn called once on all nodes, the panels summed in that order."""
    upper = np.asarray(upper, dtype=float)
    order = np.argsort(upper, axis=None, kind="stable")
    edges = np.arcsin(np.append(-1.0, upper.ravel()[order]))
    u, w = gauss_nodes(edges[:-1, None], edges[1:, None], LAYER_NODES)
    terms = w * np.cos(u) * np.reshape(fn(np.sin(u).ravel()), u.shape)
    out = np.empty(order.size)
    out[order] = np.cumsum(np.add.reduce(terms, axis=1))
    return out.reshape(upper.shape)
