"""Certified search for a far offset ball whose deficit perimeter dominates
(N - eps) times its deficit volume.

``find_far_radius`` certifies an offset on the radial average of the deficit
(excess-kernel scan, then exact kernels).  ``select_direction`` lifts it to
the weight by averaging: the directional margins average to the
radial-average margin over the sphere, the descent stops at the first working
circle whose mean reaches it (``select_working_circle``), and the sweep
spectrum measures every angle of that circle at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .defaults import (BLOCK_POINTS, CIRCLE_GRID, DEGENERACY_TOL, EPS, SCAN_STEP,
                       SPHERE_NODES)
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
    order, less each one whose antipode (within 1e-9 in every coordinate)
    comes before it, marked in blocks of rows against every row up to them,
    of at most ``BLOCK_POINTS`` entries or one row.  Grid axes are distinct,
    so an axis has at most one antipode, and an earlier one was itself kept."""
    axes = sphere_grid(m, axis_nodes, 2 * axis_nodes)[0]
    step, keep = max(1, BLOCK_POINTS // len(axes)), np.ones(len(axes), dtype=bool)
    for i in range(0, len(axes), step):
        e = min(i + step, len(axes))
        antipode = np.logical_and.reduce([np.abs(c[i:e, None] + c[:e]) <= 1e-9
                                          for c in axes.T])
        keep[i:e] = ~np.any(np.tril(antipode, i - 1), axis=1)
    return axes[keep]


def select_working_circle(d: Density, far: FarBallCertificate, eps: float = EPS,
                          axis_nodes: int = 8, circle_nodes: int = 32,
                          quad_nodes: int = 32) -> np.ndarray:
    """Descend subspheres to a working circle whose mean margin reaches the
    radial-average margin that ``far`` certifies at R = ``far.R``.

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
    g = deficit_weight(d)
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


def select_direction(d: Density, R: float, eps: float = EPS,
                     node_count: int = CIRCLE_GRID,
                     quad_nodes: int = SPHERE_NODES) -> FarBallCertificate:
    """Pick a direction whose ball satisfies the deficit bound at offset R.

    The ball at R is certified once on the radial average: for a radial
    weight it holds in every direction, and e1 is returned.  Otherwise the
    working circle is the first whose mean margin reaches that certificate's
    less its estimate, else the first tied with the best
    (``select_working_circle``), and one ``SweepSpectrum`` on it gives V_g
    (``balls``) and P_g (both ``hemispheres``) at ``node_count`` angles with
    error estimates.  The first angle tied with the best margin wins
    (``_first_tied``); it qualifies whenever the circle reached the target,
    since on an even grid the angles' mean margin is the circle's (the
    spectrum's mode 0).  It is refused when its margin plus its own error
    estimate is below 0, and the failure names the circle's mean.
    """
    n = d.dim
    far = _ball_certificate(deficit_profile(d), n, R, eps)
    if d.radial:
        return replace(far, theta=tuple(1.0 if i == 0 else 0.0 for i in range(n)))
    plane = select_working_circle(d, far, eps, quad_nodes=quad_nodes)
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
