"""Certified search for a far offset ball whose deficit perimeter dominates
(N - eps) times its deficit volume.

The search runs in two stages.  ``find_far_radius`` works on the radial
average of the deficit: the flat-limit kernels reduce the inequality to a
nonnegative correlation of the excess kernel, which the sliding scan
certifies, and the found offset is then re-verified with the exact kernels
(re-scanning outward if the exact margin is short).  ``select_direction``
lifts the radial certificate to the actual weight: the spherical mean of the
directional margin equals the radial-average margin, so a direction grid
must contain a qualifying direction, and the best grid direction is
returned after direct measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .defaults import (DEGENERACY_TOL, DIRECTION_NODES, EPS, GRID_REFINE,
                       REFINE_ROUNDS, SCAN_STEP, SPHERE_NODES)
from .density import Density, RadialDeficit, deficit_profile, deficit_weight
from .layers import exact_kernels
from .measures import (MeasureResult, ball_deficit_measures,
                       weighted_ball_measures_at)
from .quadrature import sphere_grid
from .sliding import excess_kernel, sliding_sign_search


@dataclass(frozen=True)
class FarBallCertificate:
    """A certified offset (and optionally direction) for the far-ball bound.

    ``margin`` is P_g - (N - eps) V_g for the returned ball; ``degenerate``
    marks a vanished deficit volume (V_g <= DEGENERACY_TOL), in which case
    the plain ball already carries the full unit-ball weighted volume.  A
    tiny but positive V_g is not degenerate: it is the scale at which the
    competitor is matched and its margin certified.
    """

    dim: int
    R: float
    epsilon: float
    P_g: MeasureResult
    V_g: MeasureResult
    margin: float
    degenerate: bool
    theta: tuple[float, ...] | None = None
    scan: tuple[tuple[float, float], ...] = ()


def find_far_radius(g: RadialDeficit, n: int, eps: float = EPS,
                    R_min: float = 10.0, R_max: float = 200.0,
                    step: float = SCAN_STEP) -> FarBallCertificate:
    """Search offsets through the excess-kernel scan, certify with exact kernels.

    The flat-limit scan certifies P_g >= N V_g for the radial average; the
    exact-kernel margin at the found offset uses slack eps.  If the exact
    margin is negative (possible very close to R_min when the flat-limit
    slack is thin) the scan continues from the next grid point.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    kernel = excess_kernel(n)
    lo = R_min
    scan: list[tuple[float, float]] = []
    while True:
        out = sliding_sign_search(kernel, g, lo, R_max, step)
        scan.extend(out.scan)
        if not out.found:
            raise RuntimeError(
                "no qualifying offset up to R_max "
                f"({R_max}); scan recorded {len(scan)} points. This flags an "
                "inadmissible kernel, a non-vanishing deficit, or R_max too small.")
        cert = _ball_certificate(g, n, out.R, eps)
        if out.degenerate or cert.degenerate or cert.margin >= -1e-10:
            return replace(cert, degenerate=cert.degenerate or out.degenerate,
                           scan=tuple(scan))
        lo = out.R + step   # exact kernels disagreed near the edge; re-scan outward


def _ball_certificate(g: RadialDeficit, n: int, R: float,
                      eps: float) -> FarBallCertificate:
    """The far-ball bound of the ball at offset R, by the exact kernels."""
    P_g, V_g = ball_deficit_measures(g, n, R, exact_kernels(n, R))
    return FarBallCertificate(n, R, eps, P_g, V_g, P_g.value - (n - eps) * V_g.value,
                              V_g.value <= DEGENERACY_TOL)


def direction_grid(n: int, nodes: int = DIRECTION_NODES):
    """Directions on S^{n-1} with quadrature weights (mean-normalized)."""
    if n == 2:
        ang = 2.0 * math.pi * np.arange(nodes) / nodes
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        w = np.full(nodes, 1.0 / nodes)
        return pts, w
    polar = max(16, nodes // 8)
    pts, w = sphere_grid(n, polar, polar * 2)
    return pts, w / w.sum()


def directional_margins(d: Density, R: float, eps: float, dirs: np.ndarray,
                        nodes: int = SPHERE_NODES):
    """P_g - (N - eps) V_g for balls at R * theta, vectorized over directions:
    one batched ball scan over all centres R * dirs."""
    n = d.dim
    P, V = weighted_ball_measures_at(deficit_weight(d), n, R * np.asarray(dirs),
                                     1.0, nodes, max(16, nodes // 2))
    return P, V, P - (n - eps) * V


def select_direction(d: Density, R: float, eps: float = EPS,
                     node_count: int = DIRECTION_NODES,
                     quad_nodes: int = SPHERE_NODES) -> FarBallCertificate:
    """Pick a direction whose ball satisfies the deficit bound at offset R.

    The grid margin maximizer is returned (deterministic: lowest index on
    ties), with node-halving error estimates of its P_g and V_g.  Existence on a fine enough grid follows from the mean-value
    property of the directional margins; if no direction qualifies while the
    radial-average margin is positive, the grid is refined a bounded number
    of times and failure is reported with the direction table.
    """
    n = d.dim
    if d.radial:
        return replace(_ball_certificate(deficit_profile(d), n, R, eps),
                       theta=tuple(1.0 if i == 0 else 0.0 for i in range(n)))
    nodes = node_count
    for round_idx in range(REFINE_ROUNDS + 1):
        dirs, w = direction_grid(n, nodes)
        P, V, margins = directional_margins(d, R, eps, dirs, quad_nodes)
        best = int(np.argmax(margins))
        scale = max(float(np.max(np.abs(P))), DEGENERACY_TOL)
        if margins[best] >= -1e-12 * scale:
            theta = tuple(float(x) for x in dirs[best])
            degenerate = V[best] <= DEGENERACY_TOL
            # node-halving error estimates on the winning direction only, as
            # in set_measures: |value(q) - value(q/2)| + 1e-15 |value|
            halved = directional_margins(d, R, eps, dirs[best:best + 1],
                                         max(8, quad_nodes // 2))
            P_g, V_g = (MeasureResult(float(x[best]), "quadrature",
                                      float(abs(x[best] - x2[0]) + 1e-15 * abs(x[best])),
                                      quad_nodes)
                        for x, x2 in zip((P, V), halved))
            return FarBallCertificate(
                n, R, eps, P_g, V_g,
                float(margins[best]), degenerate, theta=theta,
                scan=tuple((float(i), float(m)) for i, m in enumerate(margins)))
        nodes *= GRID_REFINE
    raise RuntimeError(
        "no direction qualified after refinement; margins recorded. With a "
        "positive radial-average margin this indicates quadrature error, not "
        "a failure of the mean-value argument.")
