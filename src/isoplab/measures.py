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
closed form.  ``set_measures`` integrates the weight f over that description;
the competitor construction integrates the deficit g = a - f over the same
patches and subtracts, so the volume gap and the perimeter margin never form
a difference of order-one floats.  Perimeters are integrated on explicit
parametrizations rather than through any level-set discretization, and
interfaces interior to a union cancel and are never counted.

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

from .defaults import (BALL_CHUNK_POINTS, MC_SAMPLES, QUAD_ABS_TOL,
                       RADIAL_NODES, SPHERE_NODES)
from .density import Density, RadialDeficit, eval_weight
from .layers import LayerKernelPair, exact_kernels, layer_integral
from .quadrature import (ball_grid, frame_from_axis, gauss_nodes,
                         sphere_band_grid, sphere_grid, unit_ball_volume,
                         unit_sphere_area)

HALF_PI = math.pi / 2


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

    @property
    def shrink(self) -> float:
        return (self.offset - self.delta) / self.offset


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
# closed-form patches (the cylinder and swept builders in local coordinates,
# column 0 of the frame being e1) and one description per set family
# ---------------------------------------------------------------------------

def sphere_cap_patch(n, radius, center, axis, lo, hi,
                     polar_nodes=SPHERE_NODES, azimuth_nodes=SPHERE_NODES):
    """Quadrature patch on {center + radius*u : angle(u, axis) in [lo, hi]}."""
    pts0, w = sphere_band_grid(n, lo, hi, polar_nodes, azimuth_nodes)
    A = frame_from_axis(np.asarray(axis, dtype=float))
    pts = np.asarray(center, dtype=float) + radius * (pts0 @ A.T)
    return pts, w * radius ** (n - 1)


def ball_cap_patch(n, radius, center, axis, lo, hi,
                   radial_nodes=RADIAL_NODES, polar_nodes=SPHERE_NODES,
                   azimuth_nodes=SPHERE_NODES):
    """Solid patch of the ball restricted to the polar band about ``axis``."""
    pts0, w = ball_grid(n, radial_nodes, polar_nodes, azimuth_nodes, lo, hi)
    A = frame_from_axis(np.asarray(axis, dtype=float))
    pts = np.asarray(center, dtype=float) + radius * (pts0 @ A.T)
    return pts, w * radius ** n


def cylinder_wall_patch(n, R, delta, nodes=SPHERE_NODES):
    """Lateral wall {x1 in [R - delta, R], |x_perp| = 1} in local coords."""
    x1, w1 = gauss_nodes(R - delta, R, max(8, nodes // 4))
    v, wv = sphere_grid(n - 1, nodes, nodes)
    pts = np.empty((x1.size * v.shape[0], n))
    pts[:, 0] = np.repeat(x1, v.shape[0])
    pts[:, 1:] = np.tile(v, (x1.size, 1))
    return pts, (w1[:, None] * wv[None, :]).ravel()


def annulus_patch(n, x1, r_in, r_out, nodes=SPHERE_NODES):
    """Flat ring {x1} x {r_in <= |x_perp| <= r_out} in local coords."""
    rho, wr = gauss_nodes(r_in, r_out, max(8, nodes // 4))
    v, wv = sphere_grid(n - 1, nodes, nodes)
    pts = np.empty((rho.size * v.shape[0], n))
    pts[:, 0] = x1
    pts[:, 1:] = (rho[:, None, None] * v[None, :, :]).reshape(-1, n - 1)
    return pts, ((wr * rho ** (n - 2))[:, None] * wv[None, :]).ravel()


def _meridian_points(n, R, rho_v, phi):
    """Map meridian-section coordinates (rho*v, phi) to local coordinates."""
    w = R + rho_v[:, 0]
    pts = np.empty((phi.size * rho_v.shape[0], n))
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    pts[:, 0] = (cos_p[:, None] * w[None, :]).ravel()
    pts[:, 1] = (sin_p[:, None] * w[None, :]).ravel()
    if n > 2:
        pts[:, 2:] = np.tile(rho_v[:, 1:], (phi.size, 1))
    return pts, np.tile(w, phi.size)


def _swept_patch(n, R, phi_lo, phi_hi, section, nodes):
    """The meridian ``section`` (points rho*v, weights) swept over
    [phi_lo, phi_hi]."""
    phi, wp = gauss_nodes(phi_lo, phi_hi, max(8, nodes // 4))
    pts, w_factor = _meridian_points(n, R, section[0], phi)
    return pts, (wp[:, None] * section[1][None, :]).ravel() * w_factor


def swept_band_patch(n, R, phi_lo, phi_hi, nodes=SPHERE_NODES):
    """Lateral surface swept by the meridian circle over [phi_lo, phi_hi]."""
    return _swept_patch(n, R, phi_lo, phi_hi, sphere_grid(n - 1, nodes, nodes), nodes)


def meridian_disk(n, radial_nodes, nodes):
    """Points rho*v and weights of the unit meridian disk."""
    rho, wr = gauss_nodes(0.0, 1.0, radial_nodes)
    v, wv = sphere_grid(n - 1, nodes, nodes)
    rho_v = (rho[:, None, None] * v[None, :, :]).reshape(-1, n - 1)
    return rho_v, ((wr * rho ** (n - 2))[:, None] * wv[None, :]).ravel()


def swept_wedge_patch(n, R, phi_lo, phi_hi, radial_nodes=RADIAL_NODES,
                      nodes=SPHERE_NODES):
    """Solid wedge: meridian disk swept over [phi_lo, phi_hi]."""
    return _swept_patch(n, R, phi_lo, phi_hi,
                        meridian_disk(n, radial_nodes, nodes), nodes)


def _cyl_interior(n, R, delta, radial_nodes, nodes):
    """Solid cylinder {x1 in [R - delta, R], |x_perp| <= 1} in local coords."""
    x1, w1 = gauss_nodes(R - delta, R, max(8, nodes // 4))
    bpts, bw = ball_grid(n - 1, radial_nodes, nodes, nodes)
    pts = np.empty((x1.size * bpts.shape[0], n))
    pts[:, 0] = np.repeat(x1, bpts.shape[0])
    pts[:, 1:] = np.tile(bpts, (x1.size, 1))
    return pts, (w1[:, None] * bw[None, :]).ravel()


def integrate_patches(fn, patches) -> float:
    """Sum of integral(fn) over patches."""
    total = 0.0
    for pts, w in patches:
        total += float(np.asarray(fn(pts), dtype=float) @ w)
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

    ``surface`` and ``volume`` map piece names to zero-argument builders of
    (points, weights) patches, so a caller builds only what it integrates.
    ``volume_excess`` is |E| - omega_N; the ``perimeter_excess`` terms sum to
    P(E) - N omega_N, in the order the margin subtracts them.
    """

    surface: dict[str, Callable]
    volume: dict[str, Callable]
    perimeter_excess: tuple[float, ...]
    volume_excess: float

    def volume_gap(self, g) -> float:
        """|E|_f - omega_N for f = 1 - g, subtracting piece by piece."""
        gap = self.volume_excess
        for make in self.volume.values():
            gap -= integrate_patches(g, [make()])
        return gap

    def perimeter_margin(self, g) -> float:
        """N omega_N - P_f(E) = P_g(E) - perimeter excess, for f = 1 - g."""
        margin = integrate_patches(g, (make() for make in self.surface.values()))
        for term in self.perimeter_excess:
            margin -= term
        return margin


_UPPER, _LOWER, _WHOLE = (0.0, HALF_PI), (HALF_PI, math.pi), (0.0, math.pi)


def _caps(n, radius, center, axis, band, nodes, radial_nodes):
    """Builders of a ball's spherical and solid cap over a polar band."""
    return (partial(sphere_cap_patch, n, radius, center, axis, *band, nodes,
                    nodes),
            partial(ball_cap_patch, n, radius, center, axis, *band,
                    radial_nodes, nodes, nodes))


def _placed(frame, build, *args):
    """The local-coordinate patch ``build(*args)`` mapped by ``frame``."""
    pts, w = build(*args)
    return pts @ frame.T, w


def set_patches(E: CompetitorSet, nodes: int, radial_nodes: int) -> SetPatches:
    """The patches of E in its own frame (``set_frame``)."""
    F, n, R = set_frame(E), E.dim, E.offset
    if isinstance(E, CylinderExtended):
        return cylinder_patches(n, R, E.delta, F, nodes, radial_nodes)
    if isinstance(E, RotationSwept):
        return swept_patches(n, R, E.delta, F, 0.0, nodes, radial_nodes)
    sphere, ball = _caps(n, 1.0, R * F[:, 0], F[:, 0], _WHOLE, nodes, radial_nodes)
    return SetPatches({"sphere": sphere}, {"ball": ball}, (), 0.0)


def cylinder_patches(n: int, R: float, delta: float, frame: np.ndarray,
                     nodes: int, radial_nodes: int) -> SetPatches:
    """The cylinder-extended set of height delta along ``frame[:, 0]``.

    Its boundary is the far hemisphere, the cylinder wall, the shrunk near
    hemisphere and, where the shrunk half-ball meets the full-radius face,
    the exposed annulus; the matching disk faces are interior and cancel.
    """
    e1, k = frame[:, 0], (R - delta) / R
    far = _caps(n, 1.0, R * e1, e1, _UPPER, nodes, radial_nodes)
    near = _caps(n, k, (R - delta) * e1, e1, _LOWER, nodes, radial_nodes)
    surface, volume = {"far": far[0]}, {"far": far[1]}
    if delta > 0.0:
        surface["wall"] = partial(_placed, frame, cylinder_wall_patch, n, R,
                                  delta, nodes)
        volume["cylinder"] = partial(_placed, frame, _cyl_interior, n, R, delta,
                                     radial_nodes, nodes)
    surface["near"], volume["near"] = near
    if k < 1.0:
        surface["annulus"] = partial(_placed, frame, annulus_patch, n, R - delta,
                                     k, 1.0, nodes)
    omega, omega1 = unit_ball_volume(n), unit_ball_volume(n - 1)
    s1, sN = shrink_terms(n, R, delta)
    # perimeter excess of the shrunk hemisphere, the wall and the annulus
    return SetPatches(surface, volume,
                      (-(0.5 * n * omega * s1), (n - 1) * omega1 * delta, omega1 * s1),
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
# membership and bounding boxes (for rejection sampling)
# ---------------------------------------------------------------------------

def contains_local(E: CompetitorSet, u: np.ndarray) -> np.ndarray:
    """Membership test in local coordinates, shape (m, n) -> bool (m,)."""
    n, R = E.dim, E.offset
    if isinstance(E, PlainBall):
        du = u.copy()
        du[:, 0] -= R
        return np.einsum("ij,ij->i", du, du) <= 1.0
    if isinstance(E, CylinderExtended):
        d, k = E.delta, E.shrink
        du = u.copy()
        du[:, 0] -= R
        right = (np.einsum("ij,ij->i", du, du) <= 1.0) & (u[:, 0] >= R)
        perp2 = np.einsum("ij,ij->i", u[:, 1:], u[:, 1:])
        mid = (u[:, 0] >= R - d) & (u[:, 0] <= R) & (perp2 <= 1.0)
        dl = u.copy()
        dl[:, 0] -= R - d
        left = (np.einsum("ij,ij->i", dl, dl) <= k * k) & (u[:, 0] <= R - d)
        return right | mid | left
    d = E.delta
    phi = np.arctan2(u[:, 1], u[:, 0])
    w = np.hypot(u[:, 0], u[:, 1])
    perp2 = np.einsum("ij,ij->i", u[:, 2:], u[:, 2:]) if n > 2 else 0.0
    base = u.copy()
    base[:, 0] -= R
    in_base = np.einsum("ij,ij->i", base, base) <= 1.0
    rot = u.copy()
    rot[:, 0] -= R * math.cos(d)
    rot[:, 1] -= R * math.sin(d)
    in_rot = np.einsum("ij,ij->i", rot, rot) <= 1.0
    in_wedge = (w - R) ** 2 + perp2 <= 1.0
    return np.where(phi <= 0.0, in_base,
                    np.where(phi >= d, in_rot, in_wedge))


def bounding_box_local(E: CompetitorSet) -> tuple[np.ndarray, np.ndarray]:
    n, R = E.dim, E.offset
    lo = -np.ones(n)
    hi = np.ones(n)
    if isinstance(E, PlainBall):
        lo[0], hi[0] = R - 1.0, R + 1.0
    elif isinstance(E, CylinderExtended):
        lo[0], hi[0] = R - E.delta - E.shrink, R + 1.0
    else:
        d = E.delta
        lo[0], hi[0] = R * math.cos(d) - 1.0, R + 1.0
        hi[1] = R * math.sin(d) + 1.0
    return lo, hi


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def _weight_of(d: Density | Callable) -> Callable:
    return (lambda x: eval_weight(d, x)) if isinstance(d, Density) else d


def _built(makers: dict, sizes: list):
    """Build the patches of ``makers`` one at a time, noting their sizes."""
    for make in makers.values():
        pts, w = make()
        sizes.append(w.size)
        yield pts, w


def set_measures(E: CompetitorSet, d: Density, method: str = "quadrature",
                 budget: int | None = None, seed: int | None = None,
                 nodes: int = SPHERE_NODES):
    """Weighted perimeter and volume of a competitor set.

    Quadrature integrates the weight on the patches of ``set_patches``, at
    ``nodes`` and at half as many, whose difference is the error estimate;
    Monte-Carlo uses rejection sampling in the local bounding box for the
    volume and uniform parametric sampling of the boundary patches for the
    perimeter.
    """
    fn = _weight_of(d)
    if method == "quadrature":
        per, vol = [], []
        for nn in (max(8, nodes // 2), nodes):
            patches, sizes = set_patches(E, nn, max(8, nn)), []
            per.append(integrate_patches(fn, _built(patches.surface, sizes)))
            vol.append(integrate_patches(fn, _built(patches.volume, sizes)))
            n_nodes = sum(sizes)
        p_err = abs(per[1] - per[0]) + 1e-15 * abs(per[1])
        v_err = abs(vol[1] - vol[0]) + 1e-15 * abs(vol[1])
        return (MeasureResult(per[1], "quadrature", p_err, n_nodes),
                MeasureResult(vol[1], "quadrature", v_err, n_nodes))
    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}")
    budget = MC_SAMPLES if budget is None else int(budget)
    if budget < 10_000:
        raise ValueError("monte_carlo budget must be at least 10^4 samples")
    if seed is None:
        raise ValueError("monte_carlo requires an explicit seed")
    return (mc_perimeter(E, fn, budget, seed),
            mc_volume(E, fn, budget, seed))


def mc_volume(E: CompetitorSet, fn, samples: int, seed: int) -> MeasureResult:
    """Rejection sampling of the weighted volume in the local bounding box."""
    rng = np.random.default_rng(seed)
    F = set_frame(E)
    lo, hi = bounding_box_local(E)
    box = float(np.prod(hi - lo))
    total, total2 = 0.0, 0.0
    chunk = 200_000
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        u = rng.uniform(lo, hi, size=(m, E.dim))
        inside = contains_local(E, u)
        vals = np.zeros(m)
        if np.any(inside):
            vals[inside] = np.asarray(fn(u[inside] @ F.T), dtype=float)
        total += float(vals.sum())
        total2 += float((vals * vals).sum())
        done += m
    mean = total / samples
    var = max(total2 / samples - mean * mean, 0.0)
    return MeasureResult(box * mean, "monte_carlo",
                         box * math.sqrt(var / samples), samples, seed)


def _mc_surface_parts(E: CompetitorSet):
    """(measure, sampler) pairs: sampler(rng, m) -> (local points, integrand factor)."""
    n, R = E.dim, E.offset
    e1, e2 = np.eye(n)[:2]
    area_sphere = unit_sphere_area(n)

    def hemi(center, axis, radius, sign):
        c = np.asarray(center, dtype=float)
        ax = np.asarray(axis, dtype=float)

        def sample(rng, m):
            u = rng.standard_normal((m, n))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            flip = sign * (u @ ax) < 0
            u[flip] -= 2.0 * np.outer(u[flip] @ ax, ax)
            return c + radius * u, np.ones(m)
        return 0.5 * area_sphere * radius ** (n - 1), sample

    if isinstance(E, PlainBall):
        c = R * e1

        def sample(rng, m):
            u = rng.standard_normal((m, n))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            return c + u, np.ones(m)
        return [(area_sphere, sample)]

    if isinstance(E, CylinderExtended):
        d, k = E.delta, E.shrink
        parts = [hemi(R * e1, e1, 1.0, +1), hemi((R - d) * e1, e1, k, -1)]

        def wall(rng, m):
            x1 = rng.uniform(R - d, R, size=m)
            v = rng.standard_normal((m, n - 1))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            pts = np.concatenate([x1[:, None], v], axis=1)
            return pts, np.ones(m)
        parts.append((d * unit_sphere_area(n - 1), wall))

        if k < 1.0:
            def ring(rng, m):
                u01 = rng.uniform(size=m)
                rho = (k ** (n - 1) + u01 * (1.0 - k ** (n - 1))) ** (1.0 / (n - 1))
                v = rng.standard_normal((m, n - 1))
                v /= np.linalg.norm(v, axis=1, keepdims=True)
                pts = np.concatenate([np.full((m, 1), R - d), rho[:, None] * v],
                                     axis=1)
                return pts, np.ones(m)
            parts.append((unit_ball_volume(n - 1) * (1.0 - k ** (n - 1)), ring))
        return parts

    d = E.delta
    c_rot = R * np.array([math.cos(d), math.sin(d)] + [0.0] * (n - 2))
    axis_rot = np.array([-math.sin(d), math.cos(d)] + [0.0] * (n - 2))
    parts = [hemi(R * e1, e2, 1.0, -1),
             hemi(c_rot, axis_rot, 1.0, +1)]

    def band(rng, m):
        phi = rng.uniform(0.0, d, size=m)
        v = rng.standard_normal((m, n - 1))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        w = R + v[:, 0]
        pts = np.empty((m, n))
        pts[:, 0] = w * np.cos(phi)
        pts[:, 1] = w * np.sin(phi)
        if n > 2:
            pts[:, 2:] = v[:, 1:]
        return pts, w
    parts.append((d * unit_sphere_area(n - 1), band))
    return parts


def mc_perimeter(E: CompetitorSet, fn, samples: int, seed: int) -> MeasureResult:
    """Uniform parametric sampling of the boundary patches.

    The budget is split across patches proportionally to their parametric
    measure; patch estimates and variances add.
    """
    rng = np.random.default_rng(seed)
    F = set_frame(E)
    parts = _mc_surface_parts(E)
    measures = np.array([p[0] for p in parts])
    alloc = np.maximum((samples * measures / measures.sum()).astype(int), 1000)
    value, var = 0.0, 0.0
    for (measure, sampler), m in zip(parts, alloc):
        pts, factor = sampler(rng, int(m))
        vals = np.asarray(fn(pts @ F.T), dtype=float) * factor
        value += measure * float(vals.mean())
        var += (measure ** 2) * float(vals.var()) / m
    return MeasureResult(value, "monte_carlo", math.sqrt(var),
                         int(alloc.sum()), seed)


# ---------------------------------------------------------------------------
# deficit measures through the layer kernels, mean density, profile bound
# ---------------------------------------------------------------------------

def ball_deficit_measures(g: RadialDeficit, n: int, R: float,
                          kernels: LayerKernelPair | None = None,
                          epsabs: float = QUAD_ABS_TOL):
    """Deficit-weighted perimeter and volume of the offset unit ball.

    P = integral area_kernel(t) g(R + t) dt and likewise for the volume, via
    the endpoint-substituted adaptive quadrature.
    """
    if not R > 1:
        raise ValueError("offset must exceed 1")
    if kernels is None:
        kernels = exact_kernels(n, R)
    if kernels.dim != n:
        raise ValueError("kernel dimension mismatch")
    if kernels.kind == "exact" and abs(kernels.offset - R) > 1e-12:
        raise ValueError("exact kernels built for a different offset")
    brk = tuple(b - R for b in g.breakpoints)

    def weight(t):
        return float(np.asarray(g.profile(R + t)))

    p, p_err, p_n = layer_integral(kernels.area_kernel, weight, epsabs, brk)
    v, v_err, v_n = layer_integral(kernels.volume_kernel, weight, epsabs, brk)
    return (MeasureResult(p, "quadrature", p_err, p_n),
            MeasureResult(v, "quadrature", v_err, v_n))


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

    Plain floats; the one-centre call of ``weighted_ball_measures_at``.
    """
    P, V = weighted_ball_measures_at(fn, n, np.reshape(center, (1, n)), radius,
                                     nodes, radial_nodes)
    return float(P[0]), float(V[0])


def weighted_ball_measures_at(fn, n: int, centers, radius: float = 1.0,
                              nodes: int = SPHERE_NODES,
                              radial_nodes: int = RADIAL_NODES):
    """(P, V) arrays: perimeter and volume of the ball of ``radius`` about
    each row of ``centers`` under the weight ``fn``.

    The reference sphere and ball grids are built once and translated to
    each centre (``moved_grid_integrals``), so a ball's measures are the
    floats of a one-ball call.
    """
    spts, sw = sphere_band_grid(n, 0.0, math.pi, nodes, nodes)
    bpts, bw = ball_grid(n, radial_nodes, nodes, nodes)
    P = moved_grid_integrals(fn, radius * spts, sw * radius ** (n - 1), centers)
    V = moved_grid_integrals(fn, radius * bpts, bw * radius ** n, centers)
    return P, V


def moved_grid_integrals(fn, pts, w, centers, rots=None) -> np.ndarray:
    """integral(fn) on the reference grid (pts, w) moved rigidly to each item.

    Item i is the grid ``centers[i] + pts @ rots[i].T``, or the translate
    ``centers[i] + pts`` when ``rots`` is None; its value equals
    ``fn(centers[i] + pts @ rots[i].T) @ w`` bit for bit.
    """
    centers = np.asarray(centers, dtype=float)
    n = pts.shape[1]
    turned = None if rots is None else np.swapaxes(np.asarray(rots), 1, 2)

    def points(i, j):
        moved = pts if turned is None else np.matmul(pts, turned[i:j])
        out = np.empty((j - i,) + pts.shape)
        # one coordinate at a time: a broadcast add over the short last
        # axis would run one inner loop per point
        for axis in range(n):
            np.add(moved[..., axis], centers[i:j, axis, None],
                   out=out[..., axis])
        return out.reshape(-1, n)
    return _chunked_integrals(fn, len(centers), len(w), points, lambda i: w)


def swept_integrals(fn, n: int, R: float, phi_lo, phi_hi, frame, section,
                    nodes: int) -> np.ndarray:
    """integral(fn) over the meridian ``section`` swept from phi_lo[i] to
    phi_hi[i] and mapped by ``frame``, for each i: with the meridian circle
    ``sphere_grid(n - 1, nodes, nodes)`` the band ``swept_band_patch``, with
    ``meridian_disk`` the wedge ``swept_wedge_patch``, bit for bit.

    The Gauss rules in the sweep angle of all items are built from one
    reference rule elementwise, one row per item; an item's weights are
    formed only when its row of values is reduced.
    """
    lo = np.asarray(phi_lo, dtype=float)[:, None]
    hi = np.asarray(phi_hi, dtype=float)[:, None]
    phi, wp = gauss_nodes(lo, hi, max(8, nodes // 4))
    rho_v, w_section = section
    w_factor = np.tile(R + rho_v[:, 0], phi.shape[1])

    def points(i, j):
        return _meridian_points(n, R, rho_v, phi[i:j].ravel())[0] @ frame.T

    def weights(i):
        return (wp[i][:, None] * w_section[None, :]).ravel() * w_factor
    return _chunked_integrals(fn, len(phi), w_factor.size, points, weights)


def _chunked_integrals(fn, count: int, m: int, points, weights) -> np.ndarray:
    """The scan engine: integrals of ``fn`` over ``count`` items of ``m``
    points each.

    ``points(i, j)`` returns the points of items i..j-1, one item after
    another, and ``weights(i)`` the ``m`` weights of item i.  ``fn`` sees at
    most ``BALL_CHUNK_POINTS`` points per call (one item if a single item is
    larger), and each item is reduced with its own dot product, so its value
    does not depend on which items share its chunk.
    """
    out = np.empty(count)
    step = max(1, BALL_CHUNK_POINTS // m)
    for i in range(0, count, step):
        j = min(i + step, count)
        vals = np.asarray(fn(points(i, j)), dtype=float).reshape(j - i, m)
        out[i:j] = [row @ weights(k) for k, row in enumerate(vals, start=i)]
    return out
