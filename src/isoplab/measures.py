"""Weighted volume and perimeter of the competitor set families.

Three families are supported, all built around a unit ball whose center sits
at distance R > 1 from the origin along a direction theta:

* ``PlainBall``        -- the offset unit ball itself;
* ``CylinderExtended`` -- its far half, a connecting cylinder of radius 1 and
  height delta, and a near half-ball shrunk by the factor (R - delta)/R;
* ``RotationSwept``    -- its trailing half swept by a rotation of angle
  delta about a 2-plane through the origin and the center, together with the
  rotated leading half.

Each family is described once, by ``set_patches``: its essential boundary
and its interior as finite unions of closed-form patches (spherical caps,
cylinder walls, flat annuli, swept bands and wedges) in global coordinates,
together with its Euclidean perimeter and volume excess over the unit ball in
closed form.  A patch is a map from a product of factors (intervals, radial
segments of density rho^p, spheres or hemispheres) into R^N, drawn either as
the tensor product of the factors' Gauss rules (``gauss``) or as i.i.d.
points, each factor sampled from its own measure (``Sample``).
``set_measures`` integrates the weight f over that description by quadrature
(``GaussPass``) or Monte Carlo.  A patch's Gauss rule is integrated in
blocks of at most ``BALL_CHUNK_POINTS`` points, the leaves of numpy's own
pairwise summation tree of the flattened rule, each built on the slab of
the first factor's nodes that covers it; the blocks' sums are added back up
that tree (``patch_integrals``, ``GaussBlocks``).  Every integral is then
the float of one ``np.add.reduce`` over the whole rule, while no weight call
sees more than a block and the memory follows the block and its slab, not
the rule.  The competitor construction integrates the deficit g = a - f
alone, on a rule sized by the set's deficit budget (``sized_pass``), so its
volume gap and perimeter margin never form a difference of order-one
floats, and its P_f and V_f are their closed forms.
Perimeters are integrated on explicit parametrizations rather than through
any level-set discretization, and interfaces interior to a union cancel.

Volumes and perimeters are returned as ``MeasureResult`` records carrying the
method tag, an error estimate (node-halving difference for quadrature, one
standard error for Monte-Carlo) and the sample or node count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .defaults import (BALL_CHUNK_POINTS, BLOCK_POINTS, DEGENERACY_TOL,
                       MC_SAMPLES, RADIAL_NODES, SPHERE_NODES, VOLUME_RTOL)
from .density import Density, RadialDeficit, eval_weight
from .layers import ULP, LayerKernelPair, exact_kernels, profile_integrals
from .quadrature import (ball_grid, frame_from_axis, gauss_nodes, norms,
                         pairwise_leaves, pairwise_total, sphere_band_grid,
                         unit_ball_volume, unit_sphere_area)

HALF_PI = math.pi / 2
_RULE_FLOOR = 8     # the fewest nodes a half rule of ``gauss_rules`` takes


@dataclass(frozen=True)
class MeasureResult:
    """A weighted measure value with provenance.

    ``error_estimate`` is one standard error for Monte-Carlo results and an
    absolute quadrature error proxy otherwise.
    """

    value: float
    method: str                    # "quadrature" | "monte_carlo"
    error_estimate: float
    samples_or_nodes: int
    seed: int | None = None


@dataclass(frozen=True)
class PlainBall:
    dim: int
    offset: float
    direction: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_base(self)


@dataclass(frozen=True)
class CylinderExtended:
    """Far half-ball, bridging cylinder of height delta, shrunk near half."""

    dim: int
    offset: float
    delta: float
    direction: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_base(self)
        if not 0.0 <= self.delta < self.offset - 1.0:
            raise ValueError("delta out of range for the cylinder extension")


@dataclass(frozen=True)
class RotationSwept:
    """Trailing half-ball plus the sweep of the leading half by angle delta."""

    dim: int
    offset: float
    delta: float
    direction: tuple[float, ...] | None = None
    sweep: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_base(self)
        if not 0.0 <= self.delta < HALF_PI:
            raise ValueError("sweep angle out of range")


CompetitorSet = PlainBall | CylinderExtended | RotationSwept


def _check_base(E):
    if E.dim < 2:
        raise ValueError("dimension must be >= 2")
    if not E.offset > 1.0:
        raise ValueError("offset must exceed the unit radius")


def set_frame(E: CompetitorSet) -> np.ndarray:
    """Orthonormal frame: column 0 is the center direction; for swept sets
    column 1 spans the rotation plane."""
    n = E.dim
    direction = np.array(E.direction, dtype=float) if E.direction is not None \
        else np.eye(n)[0]
    second = None
    if isinstance(E, RotationSwept) and E.sweep is not None:
        second = np.array(E.sweep, dtype=float)
    elif isinstance(E, RotationSwept):
        second = np.eye(n)[1] if abs(direction[1]) < 0.9 else np.eye(n)[0]
    return frame_from_axis(direction, second)


# ---------------------------------------------------------------------------
# closed-form patches: each a map from a product of factors (intervals,
# radial segments of density rho^p, spheres or hemispheres) into R^N, drawn
# as a Gauss rule or as i.i.d. samples; the cylinder and swept builders work
# in local coordinates, column 0 of the frame being e1
# ---------------------------------------------------------------------------

_UPPER, _LOWER, _WHOLE = (0.0, HALF_PI), (HALF_PI, math.pi), (0.0, math.pi)


@dataclass(frozen=True)
class _Factor:
    """One factor of a patch: its Gauss rule () -> (nodes, weights), its
    measure, and draw(rng, m) -> m i.i.d. nodes from that measure."""

    rule: Callable
    draw: Callable
    measure: float


def _segment(a, b, p, nodes) -> _Factor:
    """The segment [a, b] with density rho^p (an interval for p = 0), drawn
    by its inverse CDF."""
    lo, hi = a ** (p + 1), b ** (p + 1)

    def rule():
        rho, wr = gauss_nodes(a, b, nodes)
        return rho, wr * rho ** p
    return _Factor(rule, lambda rng, m: (lo + rng.uniform(size=m) * (hi - lo))
                   ** (1.0 / (p + 1)), (hi - lo) / (p + 1))


def _sphere(n, lo, hi, polar_nodes, azimuth_nodes) -> _Factor:
    """The band of S^{n-1} at polar angle [lo, hi] from e1.  Draws cover the
    whole sphere (normalised Gaussians) and the hemispheres {x1 >= 0} and
    {x1 <= 0} (Gaussians reflected into them)."""
    side = {_WHOLE: 0.0, _UPPER: 1.0, _LOWER: -1.0}.get((lo, hi))

    def draw(rng, m):
        if side is None:
            raise ValueError("draws cover whole spheres and hemispheres only")
        u = rng.standard_normal((m, n))
        r = norms(u)
        for j in range(n):
            u[:, j] /= r
        if side:
            u[:, 0] = side * np.abs(u[:, 0])
        return u
    return _Factor(partial(sphere_band_grid, n, lo, hi, polar_nodes, azimuth_nodes),
                   draw, unit_sphere_area(n) / (2.0 if side else 1.0))


def gauss(place, scale, *factors):
    """The Gauss rule of a patch, as (points, weights): the tensor product
    of the factors' rules (``_tensor``)."""
    return _tensor(place, scale, [f.rule() for f in factors])


def _tensor(place, scale, rules):
    """The tensor product of the factor rules ``rules``, as (points, weights).

    The rules are broadcast into their product, factor i along axis i, for
    ``place`` to map to (points, Jacobian or None); the weights are
    multiplied from the last factor back, then by the Jacobian and the
    constant ``scale``.  Every point and weight is computed from its own
    nodes alone, so a slab of the first factor's nodes gives the same floats
    as the corresponding rows of the whole product.
    """
    axes = [(1,) * i + (len(w),) + (1,) * (len(rules) - 1 - i)
            for i, (_, w) in enumerate(rules)]
    pts, jac = place(*(np.reshape(x, ax + np.shape(x)[1:])
                       for (x, _), ax in zip(rules, axes)))
    w = np.reshape(rules[-1][1], axes[-1])
    for (_, wi), ax in zip(rules[-2::-1], axes[-2::-1]):
        w = np.reshape(wi, ax) * w
    return pts, (w if jac is None else w * jac).ravel() * scale


class GaussBlocks:
    """The Gauss rule of a patch (``gauss``), one block of rows per draw.

    The blocks are the ``pairwise_leaves`` of the rule's points at
    ``BALL_CHUNK_POINTS``, drawn in order as ``index`` advances from 0.  The
    factors' rules are built on the first draw, which sets ``leaves``, and
    kept.  A block is built by ``_tensor`` on the slab of the first factor's
    nodes that covers it and sliced to its rows, so its floats are those
    rows of the whole rule; a slab that reaches past its block is kept for
    the next.  A patch of at most ``BALL_CHUNK_POINTS`` points is one block,
    built on one slab, the whole rule.
    """

    def __init__(self):
        self.index, self.leaves, self.rules, self._slab = 0, None, None, None
        self.leaf = BALL_CHUNK_POINTS

    def advance(self) -> bool:
        """Move to the next block; False when the rule has no more."""
        self.index += 1
        return self.index < len(self.leaves)

    def total(self, sums):
        """The rule's sum from its blocks' sums, in order, added back up
        numpy's pairwise tree."""
        return pairwise_total(self.size, self.leaf, iter(sums))

    def __call__(self, place, scale, *factors):
        if self.rules is None:
            self.rules = [f.rule() for f in factors]
            self.size = math.prod(len(w) for _, w in self.rules)
            self.leaves = pairwise_leaves(0, self.size, self.leaf)
        start, stop = self.leaves[self.index]
        (x, w), rows = self.rules[0], self.size // len(self.rules[0][1])
        slab = start // rows, -(-stop // rows)
        if self._slab is None or self._slab[0] != slab:
            self._slab = None       # freed before the next slab is built
            lo, hi = slab
            self._slab = slab, _tensor(place, scale,
                                       [(x[lo:hi], w[lo:hi]), *self.rules[1:]])
        (_, (pts, w)), first = self._slab, start - slab[0] * rows
        if slab[1] * rows == stop:      # no later block reads this slab
            self._slab = None
        return pts[first:first + stop - start], w[first:first + stop - start]


class Sample:
    """A draw of m i.i.d. points of a patch, as (points, weights).

    Each factor draws m nodes from its own measure and ``place`` combines
    them row by row; a point's weight is the patch's closed-form measure
    (kept in ``measure``) times its Jacobian, so the mean of weight times
    integrand estimates the integral.  Drawing no rows gives the measure.
    """

    def __init__(self, rng: np.random.Generator, m: int):
        self.rng, self.m, self.measure = rng, m, math.nan

    def __call__(self, place, scale, *factors):
        self.measure = scale * math.prod(f.measure for f in factors)
        pts, jac = place(*(f.draw(self.rng, self.m) for f in factors))
        return pts, self.measure * (np.ones(self.m) if jac is None else jac)


def _axial(x1, y) -> np.ndarray:
    """Points (x1, y), x1 along e1 and y across it, broadcast to one shape,
    one point per row."""
    pts = np.empty(np.broadcast_shapes(np.shape(x1), y.shape[:-1]) + (1 + y.shape[-1],))
    pts[..., 0] = x1
    pts[..., 1:] = y
    return pts.reshape(-1, pts.shape[-1])


def _scaled(pts, radius, center):
    """pts * radius + center, in place, one coordinate column at a time (a
    column add costs about a third of the broadcast add of a row)."""
    pts *= radius
    for j, c in enumerate(np.asarray(center, dtype=float)):
        pts[:, j] += c
    return pts


def _cap_place(n, radius, center, axis):
    """u about e1 -> center + radius * u turned to ``axis``: a vector, or the
    frame ``frame_from_axis`` forms of it, which a caller that places many
    caps about one axis forms once."""
    A = axis if np.ndim(axis) == 2 else frame_from_axis(np.asarray(axis, dtype=float))
    return lambda u: (_scaled(u.reshape(-1, n) @ A.T, radius, center), None)


def sphere_cap_patch(n, radius, center, axis, lo, hi, polar_nodes=SPHERE_NODES,
                     azimuth_nodes=SPHERE_NODES, draw=gauss):
    """Patch on {center + radius*u : angle(u, axis) in [lo, hi]}."""
    return draw(_cap_place(n, radius, center, axis), radius ** (n - 1),
                _sphere(n, lo, hi, polar_nodes, azimuth_nodes))


def ball_cap_patch(n, radius, center, axis, lo, hi, radial_nodes=RADIAL_NODES,
                   polar_nodes=SPHERE_NODES, azimuth_nodes=SPHERE_NODES,
                   draw=gauss):
    """Solid patch of the ball restricted to the polar band about ``axis``."""
    place = _cap_place(n, radius, center, axis)
    return draw(lambda rho, u: place(rho[..., None] * u), radius ** n,
                _segment(0.0, 1.0, n - 1, radial_nodes),
                _sphere(n, lo, hi, polar_nodes, azimuth_nodes))


def cylinder_wall_patch(n, R, delta, nodes=SPHERE_NODES, draw=gauss):
    """Lateral wall {x1 in [R - delta, R], |x_perp| = 1} in local coords."""
    return draw(lambda x1, v: (_axial(x1, v), None), 1.0,
                _segment(R - delta, R, 0, max(8, nodes // 4)),
                _sphere(n - 1, *_WHOLE, nodes, nodes))


def annulus_patch(n, x1, r_in, r_out, nodes=SPHERE_NODES, draw=gauss):
    """Flat ring {x1} x {r_in <= |x_perp| <= r_out} in local coords."""
    return draw(lambda rho, v: (_axial(x1, rho[..., None] * v), None),
                1.0, _segment(r_in, r_out, n - 2, max(8, nodes // 4)),
                _sphere(n - 1, *_WHOLE, nodes, nodes))


def _swept_place(n, R):
    """(phi, rho*v) -> the meridian-section point rho*v turned by phi, in
    local coordinates, and the Jacobian R + rho v_1 of the sweep."""
    def place(phi, rv):
        w = R + rv[..., 0]
        pts = np.empty(np.broadcast_shapes(np.shape(phi), w.shape) + (n,))
        np.multiply(np.cos(phi), w, out=pts[..., 0])
        np.multiply(np.sin(phi), w, out=pts[..., 1])
        pts[..., 2:] = rv[..., 1:]
        return pts.reshape(-1, n), w
    return place


def swept_band_patch(n, R, phi_lo, phi_hi, nodes=SPHERE_NODES, draw=gauss):
    """Lateral surface swept by the meridian circle over [phi_lo, phi_hi]."""
    return draw(_swept_place(n, R), 1.0,
                _segment(phi_lo, phi_hi, 0, max(8, nodes // 4)),
                _sphere(n - 1, *_WHOLE, nodes, nodes))


def swept_wedge_patch(n, R, phi_lo, phi_hi, radial_nodes=RADIAL_NODES,
                      nodes=SPHERE_NODES, draw=gauss):
    """Solid wedge: meridian disk swept over [phi_lo, phi_hi]."""
    place = _swept_place(n, R)
    return draw(lambda phi, rho, v: place(phi, rho[..., None] * v), 1.0,
                _segment(phi_lo, phi_hi, 0, max(8, nodes // 4)),
                _segment(0.0, 1.0, n - 2, radial_nodes),
                _sphere(n - 1, *_WHOLE, nodes, nodes))


def _cyl_interior(n, R, delta, radial_nodes, nodes, draw=gauss):
    """Solid cylinder {x1 in [R - delta, R], |x_perp| <= 1} in local coords."""
    return draw(lambda x1, rho, v: (_axial(x1, rho[..., None] * v), None),
                1.0, _segment(R - delta, R, 0, max(8, nodes // 4)),
                _segment(0.0, 1.0, n - 2, radial_nodes),
                _sphere(n - 1, *_WHOLE, nodes, nodes))


def integrate_patches(fn, makers) -> float:
    """Sum of the integrals of fn over the patches that ``makers`` build,
    each integrated in blocks (``patch_integrals``)."""
    total = 0.0
    for make in makers:
        total += patch_integrals(make, fn).value
    return total


def circle_point(plane: np.ndarray, phi):
    """The point at angle phi on the unit circle of the first two columns of
    ``plane``, and the circle's unit tangent there."""
    c, s = math.cos(phi), math.sin(phi)
    return c * plane[:, 0] + s * plane[:, 1], -s * plane[:, 0] + c * plane[:, 1]


def shrink_terms(n: int, R: float, delta: float) -> tuple[float, float]:
    """(1 - k^{N-1}, 1 - k^N) for k = (R - delta)/R, cancellation-free."""
    lk = math.log1p(-delta / R)
    return -math.expm1((n - 1) * lk), -math.expm1(n * lk)


def swept_excess(n: int, R: float, delta):
    """(perimeter, volume) excess of the swept set over the unit ball, of its
    band and wedge: delta R omega_{N-1} times (N-1) and 1 (elementwise)."""
    omega1 = unit_ball_volume(n - 1)
    return delta * R * (n - 1) * omega1, delta * (R * omega1)


@dataclass(frozen=True)
class SetPatches:
    """A competitor set as closed-form patches in global coordinates.

    ``surface`` and ``volume`` map piece names to builders of (points,
    weights) patches, so a caller builds only what it integrates: their Gauss
    rules, or with ``draw=Sample(rng, m)`` m random points.
    ``volume_excess`` is |E| - omega_N; the ``perimeter_excess`` terms sum to
    P(E) - N omega_N, in the order the margin subtracts them.
    """

    surface: dict[str, Callable]
    volume: dict[str, Callable]
    perimeter_excess: tuple[float, ...]
    volume_excess: float

    def volume_gap(self, g, integral=None) -> float:
        """|E|_f - omega_N for f = 1 - g, subtracting piece by piece.

        ``integral(make)``, when given, is the g-integral of the piece that
        ``make`` builds; by default the piece is built and integrated.
        """
        integral = integral or (lambda make: integrate_patches(g, [make]))
        gap = self.volume_excess
        for make in self.volume.values():
            gap -= integral(make)
        return gap

    def perimeter_margin(self, g, integral=None) -> float:
        """N omega_N - P_f(E) = P_g(E) - perimeter excess, for f = 1 - g;
        ``integral`` as in ``volume_gap``."""
        integral = integral or (lambda make: integrate_patches(g, [make]))
        margin = 0.0
        for make in self.surface.values():
            margin += integral(make)
        for term in self.perimeter_excess:
            margin -= term
        return margin


def _caps(n, radius, center, axis, band, nodes, radial_nodes):
    """Builders of a ball's spherical and solid cap over a polar band about
    ``axis``, which share its frame: formed here once, not at every draw."""
    frame = frame_from_axis(axis)
    return (partial(sphere_cap_patch, n, radius, center, frame, *band, nodes,
                    nodes),
            partial(ball_cap_patch, n, radius, center, frame, *band,
                    radial_nodes, nodes, nodes))


def _placed(frame, build, *args, draw=gauss):
    """The local-coordinate patch ``build(*args)`` mapped by ``frame``."""
    pts, w = build(*args, draw=draw)
    return pts @ frame.T, w


def set_patches(E: CompetitorSet, nodes: int = SPHERE_NODES,
                radial_nodes: int = RADIAL_NODES) -> SetPatches:
    """The patches of E in its own frame (``set_frame``)."""
    F, n, R = set_frame(E), E.dim, E.offset
    if isinstance(E, CylinderExtended):
        return CylinderFamily(n, R, F, nodes, radial_nodes)(E.delta)
    if isinstance(E, RotationSwept):
        return swept_patches(n, R, E.delta, F, 0.0, nodes, radial_nodes)
    sphere, ball = _caps(n, 1.0, R * F[:, 0], F[:, 0], _WHOLE, nodes, radial_nodes)
    return SetPatches({"sphere": sphere}, {"ball": ball}, (), 0.0)


class CylinderFamily:
    """The cylinder-extended sets of every height along ``frame[:, 0]``:
    calling it with delta gives the ``SetPatches`` of height delta.

    Its boundary is the far hemisphere, the cylinder wall, the shrunk near
    hemisphere and, where the shrunk half-ball meets the full-radius face,
    the exposed annulus; the matching disk faces are interior and cancel.
    The far caps do not move with delta: every height shares their
    builders, and every call at height zero its near caps', so a
    ``GaussPass`` over the set of height zero holds their integrals for any
    height (``GaussPass.integral``).  The near caps of height delta are
    built at radius k = (R - delta)/R and centre (R - delta) e1.
    """

    def __init__(self, n: int, R: float, frame: np.ndarray, nodes: int,
                 radial_nodes: int):
        self.n, self.R, self.frame = n, R, frame
        self.nodes, self.radial_nodes = nodes, radial_nodes
        self.e1 = frame[:, 0]
        self.far = _caps(n, 1.0, R * self.e1, self.e1, _UPPER, nodes, radial_nodes)
        self._near0 = self._near_caps(0.0)

    def _near_caps(self, delta):
        """Builders of the near hemisphere and half-ball of height delta."""
        R = self.R
        return _caps(self.n, (R - delta) / R, (R - delta) * self.e1, self.e1,
                     _LOWER, self.nodes, self.radial_nodes)

    def __call__(self, delta: float) -> SetPatches:
        n, R, frame, nodes = self.n, self.R, self.frame, self.nodes
        k = (R - delta) / R
        near = self._near0 if delta == 0.0 else self._near_caps(delta)
        surface, volume = {"far": self.far[0]}, {"far": self.far[1]}
        if delta > 0.0:
            surface["wall"] = partial(_placed, frame, cylinder_wall_patch, n, R,
                                      delta, nodes)
            volume["cylinder"] = partial(_placed, frame, _cyl_interior, n, R,
                                         delta, self.radial_nodes, nodes)
        surface["near"], volume["near"] = near
        if k < 1.0:
            surface["annulus"] = partial(_placed, frame, annulus_patch, n,
                                         R - delta, k, 1.0, nodes)
        omega, omega1 = unit_ball_volume(n), unit_ball_volume(n - 1)
        s1, sN = shrink_terms(n, R, delta)
        # perimeter excess of the shrunk hemisphere, the wall and the annulus
        return SetPatches(surface, volume,
                          (-(0.5 * n * omega * s1), (n - 1) * omega1 * delta,
                           omega1 * s1),
                          omega1 * delta - 0.5 * omega * sN)


def swept_patches(n: int, R: float, delta: float, frame: np.ndarray,
                  phi: float, nodes: int, radial_nodes: int) -> SetPatches:
    """The set based at angle phi on the circle of ``frame``'s first two
    columns, swept to phi + delta.

    Its boundary is the trailing hemisphere at phi, the leading hemisphere
    at phi + delta and the swept band; the flat meridian faces are interior
    and cancel.  The wedge comes first in the volume: the volume gap
    subtracts it before the half-balls.
    """
    (d0, t0), (d1, t1) = circle_point(frame, phi), circle_point(frame, phi + delta)
    trailing = _caps(n, 1.0, R * d0, t0, _LOWER, nodes, radial_nodes)
    leading = _caps(n, 1.0, R * d1, t1, _UPPER, nodes, radial_nodes)
    surface, volume = {"trailing": trailing[0], "leading": leading[0]}, {}
    if delta > 0.0:
        surface["band"] = partial(_placed, frame, swept_band_patch, n, R, phi,
                                  phi + delta, nodes)
        volume["wedge"] = partial(_placed, frame, swept_wedge_patch, n, R, phi,
                                  phi + delta, radial_nodes, nodes)
    volume["trailing"], volume["leading"] = trailing[1], leading[1]
    per, vol = swept_excess(n, R, delta)
    return SetPatches(surface, volume, (per,), vol)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def gauss_rules(nodes: int, radial_nodes: int) -> tuple[tuple[int, int], ...]:
    """The Gauss rule at (nodes, radial_nodes) and the one with half as many
    nodes, at least 8 (``_RULE_FLOOR``), whose difference is a quadrature's
    error estimate."""
    return (nodes, radial_nodes), (max(_RULE_FLOOR, nodes // 2),
                                   max(_RULE_FLOOR, radial_nodes // 2))


@dataclass(frozen=True)
class PatchIntegrals:
    """One patch on one Gauss rule: the integral of an integrand, the sum of
    |fn w|, and the point count."""

    value: float
    abs_sum: float
    points: int

    def estimate(self, half: PatchIntegrals) -> float:
        """|value - half.value|, the rules' difference, + ULP x points x sum |fn w|."""
        return abs(self.value - half.value) + ULP * self.points * self.abs_sum


def patch_integrals(make, fn) -> PatchIntegrals:
    """Integrate ``fn`` over the patch ``make`` builds, block by block.

    The blocks are drawn by one ``GaussBlocks``, so no weight call sees more
    than ``BALL_CHUNK_POINTS`` points and the factors' rules are built once.
    Each block's terms fn w and |fn w| are summed by ``np.add.reduce`` and
    the blocks' sums are added back up numpy's pairwise tree
    (``pairwise_total``): the floats of one ``np.add.reduce`` over the whole
    rule.
    """
    blocks = GaussBlocks()
    sums = [_block_sums(make(draw=blocks), fn)]
    while blocks.advance():
        sums.append(_block_sums(make(draw=blocks), fn))
    value, abs_sum = blocks.total([total for total, _ in sums])
    return PatchIntegrals(float(value), float(abs_sum), sum(size for _, size in sums))


def _block_sums(block, fn):
    """The sums of fn w and of |fn w| over one block (points, weights), and
    its point count; the block is freed on return."""
    pts, w = block
    terms = np.asarray(fn(pts), dtype=float) * w
    return np.array([np.add.reduce(terms), np.add.reduce(np.abs(terms))]), w.size


class GaussPass:
    """Integrals of ``fn`` over every piece of a set, each piece built once
    on each of the two ``gauss_rules`` of (nodes, radial_nodes): the
    quadrature counterpart of ``mc_integrals``.  ``rule`` is the full rule,
    ``patches`` its ``patches_at(*rule)``, ``pieces[make]`` the (full,
    half) ``PatchIntegrals`` of the piece ``make`` builds, and ``points``
    the full rule's point count.  Passes that share a ``built`` dict
    integrate a piece on a rule once.  Each piece is integrated in
    pairwise-aligned blocks of at most ``BALL_CHUNK_POINTS`` points
    (``patch_integrals``), the same floats as one sum over its whole rule.
    The certified sets integrate the deficit alone, on the pass that
    ``sized_pass`` settles on."""

    def __init__(self, patches_at: Callable, fn, nodes: int, radial_nodes: int,
                 built: dict | None = None):
        built = {} if built is None else built
        self.rule, half_rule = gauss_rules(nodes, radial_nodes)
        self.patches, half = patches_at(*self.rule), patches_at(*half_rule)

        def integrals(rule, kind, name, make):
            if (rule, kind, name) not in built:
                built[rule, kind, name] = patch_integrals(make, fn)
            return built[rule, kind, name]
        self.pieces = {make: (integrals(self.rule, kind, name, make),
                              integrals(half_rule, kind, name,
                                        getattr(half, kind)[name]))
                       for kind in ("surface", "volume")
                       for name, make in getattr(self.patches, kind).items()}
        self.points = sum(full.points for full, _ in self.pieces.values())

    def integral(self, make) -> float:
        """The full rule's integral over the piece that ``make`` builds."""
        return self.pieces[make][0].value

    def estimates(self) -> tuple[float, float]:
        """The pieces' ``estimate``s, summed over the boundary and over the
        interior."""
        out = []
        for makers in (self.patches.surface, self.patches.volume):
            error = 0.0
            for full, half in (self.pieces[make] for make in makers.values()):
                error += full.estimate(half)
            out.append(error)
        return out[0], out[1]

    def measures(self) -> tuple[MeasureResult, MeasureResult]:
        """The integrals over the boundary and the interior, summed piece by
        piece; the error estimate is the rules' difference plus a 1e-15
        relative floor."""
        out = []
        for makers in (self.patches.surface, self.patches.volume):
            full = half = 0.0
            for make in makers.values():
                full += self.pieces[make][0].value
                half += self.pieces[make][1].value
            out.append(MeasureResult(full, "quadrature", abs(full - half)
                                     + 1e-15 * abs(full), self.points))
        return out[0], out[1]


def sized_pass(patches_at: Callable, g, nodes: int, radial_nodes: int,
               scale: float) -> GaussPass:
    """The ``GaussPass`` of the deficit ``g`` on a rule that resolves it to
    the deficit scale ``scale``, |B|_g of the set's base ball.

    The rules (16, 16), (32, 32), ... below both of the ceiling (nodes,
    radial_nodes) are tried in turn; the first whose surface and volume
    ``estimates`` are both at most ``VOLUME_RTOL * scale`` is returned, and
    otherwise the pass at the ceiling, whatever its estimates.  16 is the
    fewest nodes whose half rule differs from the rule itself.  A vanished
    scale (at most ``DEGENERACY_TOL``) goes straight to the ceiling.  Each
    rule's half rule is the rule tried before it, whose integrals the passes
    share.
    """
    built, size = {}, 2 * _RULE_FLOOR
    while size < nodes and size < radial_nodes and scale > DEGENERACY_TOL:
        quad = GaussPass(patches_at, g, size, size, built)
        if max(quad.estimates()) <= VOLUME_RTOL * scale:
            return quad
        size *= 2
    return GaussPass(patches_at, g, nodes, radial_nodes, built)


def set_measures(E: CompetitorSet, d: Density, method: str = "quadrature",
                 budget: int | None = None, seed: int | None = None,
                 nodes: int = SPHERE_NODES):
    """Weighted perimeter and volume of a competitor set.

    Both methods integrate the weight over the patches of ``set_patches``.
    Quadrature is one ``GaussPass`` at (nodes, max(8, nodes)), whose two
    rules' difference is the error estimate; Monte-Carlo draws ``budget``
    i.i.d. points from them (``mc_perimeter``, ``mc_volume``).
    """
    fn = partial(eval_weight, d) if isinstance(d, Density) else d
    if method == "quadrature":
        return GaussPass(partial(set_patches, E), fn, nodes,
                         max(8, nodes)).measures()
    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}")
    budget = MC_SAMPLES if budget is None else int(budget)
    if budget < 10_000:
        raise ValueError("monte_carlo budget must be at least 10^4 samples")
    if seed is None:
        raise ValueError("monte_carlo requires an explicit seed")
    return (mc_perimeter(E, fn, budget, seed),
            mc_volume(E, fn, budget, seed))


def mc_integrals(makers: dict, fns, samples: int,
                 seed: int) -> list[MeasureResult]:
    """Monte-Carlo integrals of each of ``fns`` over the patches of
    ``makers`` (builders taking a ``draw``), all from one draw.

    The budget is split by closed-form patch measure, at least 1,000 points
    a patch; each patch draws its points (``Sample``) in chunks of at most
    ``BALL_CHUNK_POINTS``, and every fn is evaluated on each chunk.  A
    patch's estimate is the mean of fn times the point weights, and its
    variance is accumulated about the patch's first such value, so a
    constant integrand has a standard error of exactly 0; patch estimates
    and variances add.
    """
    rng = np.random.default_rng(seed)
    probes = [Sample(rng, 0) for _ in makers]
    for make, probe in zip(makers.values(), probes):
        make(draw=probe)
    mu = np.array([probe.measure for probe in probes])
    alloc = np.maximum((samples * mu / mu.sum()).astype(int), 1000)
    value, var = np.zeros(len(fns)), np.zeros(len(fns))
    for make, m in zip(makers.values(), alloc):
        total, s1, s2 = (np.zeros(len(fns)) for _ in range(3))
        shift = None
        for i in range(0, m, BALL_CHUNK_POINTS):
            pts, w = make(draw=Sample(rng, min(BALL_CHUNK_POINTS, m - i)))
            ys = [np.asarray(fn(pts), dtype=float) * w for fn in fns]
            shift = [y[0] for y in ys] if shift is None else shift
            for j, (y, y0) in enumerate(zip(ys, shift)):
                dy = y - y0
                total[j] += y.sum()
                s1[j] += dy.sum()
                dy *= dy
                s2[j] += dy.sum()
        value += total / m
        var += np.maximum(s2 / m - (s1 / m) ** 2, 0.0) / m
    return [MeasureResult(float(v), "monte_carlo", math.sqrt(s), int(alloc.sum()), seed)
            for v, s in zip(value, var)]


def mc_volume(E: CompetitorSet, fn, samples: int, seed: int) -> MeasureResult:
    """Monte-Carlo weighted volume: ``mc_integrals`` over the volume patches
    of ``set_patches``."""
    return mc_integrals(set_patches(E).volume, [fn], samples, seed)[0]


def mc_perimeter(E: CompetitorSet, fn, samples: int, seed: int) -> MeasureResult:
    """Monte-Carlo weighted perimeter: ``mc_integrals`` over the boundary
    patches of ``set_patches``."""
    return mc_integrals(set_patches(E).surface, [fn], samples, seed)[0]


# ---------------------------------------------------------------------------
# deficit measures through the layer kernels, mean density, profile bound
# ---------------------------------------------------------------------------

def ball_deficit_measures(g: RadialDeficit, n: int, R: float,
                          kernels: LayerKernelPair | None = None):
    """Deficit-weighted perimeter and volume of the offset unit ball.

    P = integral area_kernel(t) g(R + t) dt and likewise for the volume, the
    two rows of one ``profile_integrals`` call: one profile call per rule.
    """
    if not R > 1:
        raise ValueError("offset must exceed 1")
    if kernels is None:
        kernels = exact_kernels(n, R)
    if kernels.dim != n:
        raise ValueError("kernel dimension mismatch")
    if kernels.kind == "exact" and abs(kernels.offset - R) > 1e-12:
        raise ValueError("exact kernels built for a different offset")
    values, estimates, count = profile_integrals(
        lambda t: np.stack([kernels.area_kernel(t), kernels.volume_kernel(t)]),
        g.profile, R, g.breakpoints)
    return tuple(MeasureResult(v, "quadrature", e, count)
                 for v, e in zip(values, estimates))


def mean_density(P: float, V: float, n: int) -> float:
    """The constant weight under which a ball of volume V has perimeter P:

    rho = (P / (n V^{(n-1)/n}))^n / omega_n.
    """
    if not V > 0:
        raise ValueError("volume must be positive")
    if P < 0:
        raise ValueError("perimeter must be nonnegative")
    return (P / (n * V ** ((n - 1) / n))) ** n / unit_ball_volume(n)


def profile_upper_bound(P_E: float, V_E: float, V: float, a: float, n: int) -> float:
    """Perimeter bound P_E + n (omega_n a)^{1/n} (V - V_E)^{(n-1)/n}: the cost
    of realizing volume V as E plus a ball escaping to the limiting weight."""
    if V < V_E or V_E < 0:
        raise ValueError("need V >= V_E >= 0")
    gap = V - V_E
    return P_E + n * (unit_ball_volume(n) * a) ** (1.0 / n) * gap ** ((n - 1) / n)


def weighted_ball_measures(fn, n: int, center, radius: float = 1.0,
                           nodes: int = SPHERE_NODES,
                           radial_nodes: int = RADIAL_NODES):
    """(perimeter, volume) of an arbitrary ball under an arbitrary weight.

    Plain floats: the reference sphere and ball grids moved to ``center``,
    each reduced by numpy's pairwise sum, so a value is the same float at
    any BLAS thread count; ``fn`` sees each in its ``pairwise_leaves`` of at
    most ``BLOCK_POINTS`` points.
    """
    c = np.asarray(center, dtype=float)
    grids = ((sphere_band_grid(n, 0.0, math.pi, nodes, nodes), n - 1),
             (ball_grid(n, radial_nodes, nodes, nodes), n))
    out = []
    for (pts, w), p in grids:
        w = w * radius ** p
        sums = (np.add.reduce(np.asarray(fn(c + radius * pts[a:b]), dtype=float)
                              * w[a:b])
                for a, b in pairwise_leaves(0, len(w), BLOCK_POINTS))
        out.append(float(pairwise_total(len(w), BLOCK_POINTS, sums)))
    return tuple(out)
