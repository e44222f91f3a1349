"""Certified search for a far offset ball whose deficit perimeter dominates
(N - eps) times its deficit volume.

``find_far_radius`` certifies an offset on the radial average of the deficit
(excess-kernel scan, then exact kernels).  ``select_direction`` lifts that
certificate to the weight by averaging: the directional margins average to
the radial-average margin over the sphere, the descent stops at the first
working circle whose mean reaches it (``select_working_circle``), and the
sweep spectrum measures every angle of that circle at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .defaults import CIRCLE_GRID, DEGENERACY_TOL, EPS, SCAN_STEP, SPHERE_NODES
from .density import Density, RadialDeficit, deficit_weight
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

    ``theta`` and ``scan``: from ``find_far_radius``, None and its (R,
    correlation) pairs; from ``select_direction``, e1 and those pairs for a
    radial weight, else the best angle's direction and the working circle's
    (angle index, margin) pairs.
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
                    R_min: float = 10.0, R_max: float = 200.0) -> FarBallCertificate:
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
        out = sliding_sign_search(kernel, g, lo, R_max)
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
        lo = out.R + SCAN_STEP  # exact kernels disagreed near the edge; re-scan outward


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


def _axes_up_to_sign(m: int, axis_nodes: int) -> np.ndarray:
    """The axes of ``sphere_grid(m, axis_nodes, 2 * axis_nodes)`` in grid
    order, less each one whose antipode comes before it.  The indices name
    the antipode: on the circle node j's is j + axis_nodes (turned by pi),
    and each level above flips polar index i to axis_nodes - 1 - i (the
    Gauss nodes are symmetric about pi/2) and takes the antipode below."""
    p = axis_nodes
    antipode = (np.arange(2 * p) + p) % (2 * p)
    for _ in range(m - 2):
        antipode = (antipode.size * (p - 1 - np.arange(p))[:, None] + antipode).ravel()
    return sphere_grid(m, p, 2 * p)[0][antipode > np.arange(antipode.size)]


def select_working_circle(d: Density, far: FarBallCertificate, axis_nodes: int = 8,
                          circle_nodes: int = 32, quad_nodes: int = 32) -> np.ndarray:
    """Descend subspheres to a working circle whose mean margin reaches the
    radial-average margin that ``far`` certifies at R = ``far.R`` with
    slack eps = ``far.epsilon``.

    At each level each axis's candidate, up to sign (``_axes_up_to_sign``),
    is the subsphere orthogonal to it, and ``spectral.subsphere_means``
    gives its mean margin P_g - (N - eps) V_g over the balls centred on the
    subsphere of radius R, with an error estimate.  The candidates are
    scored, and their frames built, in grid order in blocks of 8, 16, 32,
    ..., and the first whose mean plus its estimate reaches ``far.margin``
    less its own estimate (P_g's plus N - eps times V_g's) is kept: averaged
    over all axes, the candidates' means are the sphere's.  If none of a
    level does, the first one tied with the best is kept (``_first_tied``),
    and ``select_sweep_direction`` is the final guard.  ``circle_nodes``
    sets the azimuth count of the subsphere levels of dimension 3 and more.
    Returns an (N, 2) orthonormal basis: e1, e2 for radial weights and N = 2.
    """
    n = d.dim
    if d.radial or n == 2:
        return np.eye(n)[:, :2]
    g, eps = deficit_weight(d), far.epsilon
    target = far.margin - (far.P_g.error_estimate + (n - eps) * far.V_g.error_estimate)
    basis, rest = np.eye(n), np.empty((n, 0))   # the subspace and its complement
    for m in range(n, 2, -1):
        axes, frames, margin, spread = _axes_up_to_sign(m, axis_nodes), [], [], []
        while len(frames) < len(axes) and not np.any(np.add(margin, spread) >= target):
            block = [np.column_stack([basis @ F[:, 1:], basis @ F[:, :1], rest])
                     for F in map(frame_from_axis, axes[len(frames):2 * len(frames) + 8])]
            means, error = subsphere_means(g, block, m - 1, far.R, quad_nodes,
                                           max(16, quad_nodes // 2), circle_nodes)
            frames += block
            margin = np.append(margin, means[:, 0] - (n - eps) * means[:, 1])
            spread = np.append(spread, error[:, 0] + (n - eps) * error[:, 1])
        hit = np.flatnonzero(margin + spread >= target)
        first = hit[0] if hit.size else _first_tied(margin, spread)
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


def select_direction(d: Density, far: FarBallCertificate,
                     node_count: int = CIRCLE_GRID,
                     quad_nodes: int = SPHERE_NODES) -> FarBallCertificate:
    """Lift ``far``, the radial average's certificate (``find_far_radius``),
    to a direction at its offset R and slack eps: no ball is measured again.

    A radial weight's certificate holds in every direction: ``far`` is
    returned with theta = e1.  Otherwise the working circle is the first
    whose mean margin reaches ``far``'s less its estimate, else the first
    tied with the best (``select_working_circle``), and one ``SweepSpectrum``
    on it gives V_g (``balls``) and P_g (both ``hemispheres``) at
    ``node_count`` angles with error estimates.  The first angle tied with
    the best margin wins (``_first_tied``); it qualifies whenever the circle
    reached the target, since on an even grid the angles' mean margin is
    the circle's (the spectrum's mode 0).  It is refused when its margin
    plus its own error estimate is below 0, and the failure names the mean.
    """
    n, R, eps = d.dim, far.R, far.epsilon
    if d.radial:
        return replace(far, theta=tuple(1.0 if i == 0 else 0.0 for i in range(n)))
    plane = select_working_circle(d, far, quad_nodes=quad_nodes)
    frame = frame_from_axis(plane[:, 0], plane[:, 1])
    spectrum = SweepSpectrum(deficit_weight(d), n, R, frame, node_count, quad_nodes)
    phis = spectrum.theta
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
    P_g, V_g = (MeasureResult(float(x[best]), "quadrature", float(e[best]),
                              spectrum.modes.nodes * spectrum.psi_samples)
                for x, e in ((P, P_err), (V, V_err)))
    return FarBallCertificate(
        n, R, eps, P_g, V_g, float(margins[best]), bool(V[best] <= DEGENERACY_TOL),
        theta=tuple(float(x) for x in circle_point(frame, phis[best])[0]),
        scan=tuple((float(i), float(m)) for i, m in enumerate(margins)))
