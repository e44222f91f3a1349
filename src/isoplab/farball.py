"""Certified search for a far offset ball whose deficit perimeter dominates
(N - eps) times its deficit volume.

The search runs in two stages.  ``find_far_radius`` works on the radial
average of the deficit: the flat-limit kernels reduce the inequality to a
nonnegative correlation of the excess kernel, which the sliding scan
certifies, and the found offset is then re-verified with the exact kernels
(re-scanning outward if the exact margin is short).  ``select_direction``
lifts the radial certificate to the actual weight by averaging: the
spherical mean of the directional margin is the radial-average margin, the
working circle (``select_working_circle``) keeps a mean at least as large,
so some angle of that circle qualifies, and the sweep spectrum measures
every angle at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .defaults import CIRCLE_GRID, DEGENERACY_TOL, EPS, SCAN_STEP, SPHERE_NODES
from .density import Density, RadialDeficit, deficit_profile, deficit_weight
from .layers import exact_kernels
from .measures import (MeasureResult, ball_deficit_measures, circle_point,
                       weighted_ball_measures)
from .quadrature import frame_from_axis, sphere_grid
from .sliding import excess_kernel, sliding_sign_search
from .spectral import SweepSpectrum, subsphere_means


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
        if out.degenerate or cert.degenerate or cert.margin >= 0.0:
            return replace(cert, degenerate=cert.degenerate or out.degenerate,
                           scan=tuple(scan))
        lo = out.R + step   # exact kernels disagreed near the edge; re-scan outward


def _ball_certificate(g: RadialDeficit, n: int, R: float,
                      eps: float) -> FarBallCertificate:
    """The far-ball bound of the ball at offset R, by the exact kernels."""
    P_g, V_g = ball_deficit_measures(g, n, R, exact_kernels(n, R))
    return FarBallCertificate(n, R, eps, P_g, V_g, P_g.value - (n - eps) * V_g.value,
                              V_g.value <= DEGENERACY_TOL)


def _first_tied(margin: np.ndarray, spread: np.ndarray) -> int:
    """The first index whose margin is within the summed estimates of the
    best one: the estimate is the tolerance, so rounding never decides."""
    best = int(np.argmax(margin))
    return int(np.argmax(margin + spread >= margin[best] - spread[best]))


def select_working_circle(d: Density, R: float, eps: float = EPS,
                          axis_nodes: int = 8, circle_nodes: int = 32,
                          quad_nodes: int = 32) -> np.ndarray:
    """Descend subspheres to a working circle with nonnegative averaged margin.

    At each level the axis grid is scanned, and each axis's candidate is the
    subsphere orthogonal to it.  Its mean margin P_g - (N - eps) V_g over the
    balls centred on the subsphere of radius R comes in closed form from
    ``spectral.subsphere_means``, with an error estimate, and the first
    candidate tied with the best one is kept (``_first_tied``).  An axis
    whose antipode was already scanned is skipped: both are orthogonal to
    the same subsphere.  The surviving 2-plane is returned as an (N, 2)
    orthonormal basis.  Radial weights short-circuit to the first
    coordinate plane.
    """
    n = d.dim
    if d.radial or n == 2:
        return np.eye(n)[:, :2]
    g = deficit_weight(d)
    basis, rest = np.eye(n), np.empty((n, 0))   # the subspace and its complement
    for m in range(n, 2, -1):
        kept: list[np.ndarray] = []
        for axis_sub in sphere_grid(m, axis_nodes, 2 * axis_nodes)[0]:
            if not any(np.max(np.abs(a + axis_sub)) <= 1e-9 for a in kept):
                kept.append(axis_sub)
        frames = [np.column_stack([basis @ F[:, 1:], basis @ F[:, :1], rest])
                  for F in map(frame_from_axis, kept)]
        means, error = subsphere_means(g, frames, m - 1, R, quad_nodes,
                                       max(16, quad_nodes // 2), circle_nodes)
        first = _first_tied(means[:, 0] - (n - eps) * means[:, 1],
                            error[:, 0] + (n - eps) * error[:, 1])
        basis, rest = frames[first][:, :m - 1], frames[first][:, m - 1:]
    return basis


def directional_margins(d: Density, R: float, eps: float, dirs: np.ndarray,
                        nodes: int = SPHERE_NODES):
    """P_g - (N - eps) V_g for balls at R * theta, one
    ``weighted_ball_measures`` call per direction."""
    n, g = d.dim, deficit_weight(d)
    P, V = np.array([weighted_ball_measures(g, n, R * np.asarray(t), 1.0, nodes,
                                            max(16, nodes // 2)) for t in dirs]).T
    return P, V, P - (n - eps) * V


def select_direction(d: Density, R: float, eps: float = EPS,
                     node_count: int = CIRCLE_GRID,
                     quad_nodes: int = SPHERE_NODES) -> FarBallCertificate:
    """Pick a direction whose ball satisfies the deficit bound at offset R.

    A radial weight's certificate holds in every direction: e1 is returned.
    Otherwise one ``SweepSpectrum`` on the working circle
    (``select_working_circle``) gives V_g (``balls``) and P_g (the sum of
    both ``hemispheres``) at ``node_count`` angles, with error estimates,
    and the first angle tied with the best margin wins (``_first_tied``).
    On an even grid the angles' mean margin is the spectrum's mode 0, the
    circle's mean, which the descent keeps at or above the radial-average
    margin that ``find_far_radius`` certifies: the best angle qualifies
    whenever that certificate holds.  It is refused when its margin plus
    its own error estimate is below 0, and the failure names the circle's
    mean.
    """
    n = d.dim
    if d.radial:
        return replace(_ball_certificate(deficit_profile(d), n, R, eps),
                       theta=tuple(1.0 if i == 0 else 0.0 for i in range(n)))
    plane = select_working_circle(d, R, eps, quad_nodes=quad_nodes)
    frame = frame_from_axis(plane[:, 0], plane[:, 1])
    spectrum = SweepSpectrum(deficit_weight(d), n, R, frame, node_count, quad_nodes)
    phis = 2.0 * math.pi * np.arange(node_count) / node_count
    V, V_err = spectrum.balls(phis)
    (lead, lead_err), (trail, trail_err) = (spectrum.hemispheres(phis, upper)
                                            for upper in (True, False))
    P, P_err = lead + trail, lead_err + trail_err
    margins, spread = P - (n - eps) * V, P_err + (n - eps) * V_err
    best = _first_tied(margins, spread)
    if margins[best] + spread[best] < 0.0:
        raise RuntimeError(
            f"no angle of the working circle qualifies at R = {R}: the circle's "
            f"mean margin is {np.mean(margins):.6e} and the best angle's "
            f"{margins[best]:.6e}. The mean is at least the radial-average "
            "margin, so the offset's radial certificate does not hold here.")
    P_g, V_g = (MeasureResult(float(x[best]), "quadrature", float(e[best]), quad_nodes)
                for x, e in ((P, P_err), (V, V_err)))
    return FarBallCertificate(
        n, R, eps, P_g, V_g, float(margins[best]), bool(V[best] <= DEGENERACY_TOL),
        theta=tuple(float(x) for x in circle_point(frame, phis[best])[0]),
        scan=tuple((float(i), float(m)) for i, m in enumerate(margins)))
