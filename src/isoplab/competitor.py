"""End-to-end construction of competitor sets of weighted volume omega_N with
mean density at most 1.

Starting from a far-ball certificate, the offset unit ball is enlarged until
its weighted volume is exactly the unit-ball volume while its weighted
perimeter stays below the Euclidean value N omega_N:

* non-decreasing weights: bridge the two half-balls with a cylinder of
  height delta and shrink the near half by (R - delta)/R, so the displaced
  near boundary moves inward along rays (``cylinder_extension``);
* every weight: sweep the leading half-ball by a rotation about a 2-plane
  through the origin.  The sweep is volume-matched at every direction of a
  working circle, the advance map theta -> theta + delta(theta)
  (``sweep_advance_map``), and a direction where the averaged
  change-of-variables inequality certifies the perimeter is picked
  (``select_sweep_direction``).  For N >= 3 the working circle is found by
  descending through subspheres on their mean margins
  (``farball.select_working_circle``).  A radial weight's sweep is matched
  and certified in closed form from four layer integrals
  (``rotation_extension``).

All final inequalities are assembled in deficit space: the perimeter margin
N omega_N - P_f(E) is a sum of small deficit integrals and closed-form
Euclidean corrections, never a difference of order-one floats, so strictness
remains observable even for exponentially small deficits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from .defaults import (CIRCLE_GRID, DEGENERACY_TOL, EPS, MC_SHIFTS,
                       RADIAL_NODES, SPHERE_NODES, VOLUME_RTOL)
from .density import (Density, deficit_profile, deficit_weight, eval_weight,
                      rescale)
from .farball import (FarBallCertificate, find_far_radius,
                      select_working_circle)
from .layers import moment_integrals
from .measures import (CylinderExtended, CylinderFamily, GaussPass,
                       MeasureResult, PlainBall, RotationSwept, circle_point,
                       integrate_patches, mc_integrals, set_patches,
                       shrink_terms, sized_pass, swept_excess, swept_patches)
from .quadrature import frame_from_axis, sphere_grid, unit_ball_volume
from .spectral import ULP, SweepSpectrum

_TINY = float(np.finfo(float).tiny)    # the least normal float


@dataclass(frozen=True)
class VolumeMatch:
    """Result of matching a set family's weighted volume to omega_N.

    ``gap`` is achieved_volume - omega_N kept in deficit-space precision
    (the subtraction of the stored floats would round it away).
    """

    delta_bar: float
    achieved_volume: float
    iterations: int
    bound_ok: bool
    gap: float = 0.0


@dataclass(frozen=True)
class SweepAdvanceMap:
    """Volume-matching advance map on a working circle.

    ``mapped`` is theta + advance(theta); measured difference quotients of the
    map must stay within [1 - eps, 1/(1 - eps)] for large enough offsets.
    Far out the advances (~1e-23 at offset 50) round away in theta + advance,
    so ``quotient_deviation`` forms the quotients minus 1 in deficit space
    and ``quotients`` adds 1 to it.  Recorded for the direction
    selection at each angle: ``ball_deficit``, |B^theta|_g of the base ball,
    and ``rim_deficit``, H_g(trailing hemisphere at theta) + H_g(leading
    hemisphere at theta + advance), with its error estimate ``rim_error``;
    ``matches``, each angle's ``VolumeMatch`` (a row of ``_matches``, as
    the cylinder's ``volume_match``).  ``advance_error`` is each
    advance's error estimate: the root residual plus the Fourier engine's
    estimate of the gap at the advance (every other sweep-angle sample, half
    the meridian-disk nodes, the rounding floor of the series), over the
    gap's mean slope.  These are left out of the repr, which shows the map
    itself.
    """

    theta: tuple[float, ...]
    advance: tuple[float, ...]
    mapped: tuple[float, ...]
    eps: float
    offset: float
    ball_deficit: tuple[float, ...] = field(repr=False)
    rim_deficit: tuple[float, ...] = field(repr=False)
    rim_error: tuple[float, ...] = field(repr=False)
    advance_error: tuple[float, ...] = field(repr=False)
    matches: tuple[VolumeMatch, ...] = field(repr=False)

    def quotients(self) -> np.ndarray:
        return 1.0 + self.quotient_deviation()

    def quotient_deviation(self) -> np.ndarray:
        """diff(advance) / diff(theta), cyclically: the quotients minus 1."""
        return (np.diff(np.append(self.advance, self.advance[0]))
                / np.diff(np.append(self.theta, self.theta[0] + 2.0 * math.pi)))


@dataclass(frozen=True)
class CompetitorCertificate:
    """A certified competitor: the set, its measures, and the audit trail."""

    E: PlainBall | CylinderExtended | RotationSwept
    P_f: MeasureResult
    V_f: MeasureResult
    rho: float
    perimeter_margin: float        # N omega_N - P_f(E), deficit-space value
    volume_gap: float              # V_f(E) - omega_N, deficit-space value
    strict: bool
    degenerate: bool
    match: VolumeMatch
    farball: FarBallCertificate
    advance: SweepAdvanceMap
    bounds: dict = field(default_factory=dict)
    mc_check: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# volume matching
# ---------------------------------------------------------------------------

def _roots(g0, delta_max, tol, hard_cap: float, gaps, names):
    """Safeguarded roots of gap_k(delta) = 0 on [0, delta_max[k]], one row k
    of arrays per search, as the arrays (delta, gap, iters).

    ``g0[k]`` is gap_k(0), which is not evaluated again; g0 <= 0 by
    construction, and only the rows with g0 < -tol are searched, the others
    ending at delta = 0.  A round calls ``gaps(idx, deltas)`` once, at the
    trial deltas of the rows ``idx`` (ascending) still running.  The bracket
    rounds come first: hi is doubled, at most eight times and never past
    ``hard_cap``, while gap(hi) is still negative, and a row still negative
    then fails, the first one named by ``names(k)``.  Then the Illinois
    rounds: the Illinois variant of regula falsi is used inside the bracket,
    since the gap is nearly linear in delta, so a secant step lands close
    to the root, and halving the value kept at an end that survives twice
    in a row stops the one-sided stalling of plain regula falsi.  Every
    iterate stays strictly inside the bracket, and a bisection step is
    taken whenever three steps have not halved it, so the bracket at least
    halves every four steps.  A row ends at its best iterate: the first
    within the tolerance, else, once its bracket collapses or after 200
    steps, the one of least |gap|.
    """
    delta, gap, iters = np.zeros(g0.size), g0.copy(), np.zeros(g0.size, dtype=int)
    idx = np.flatnonzero(g0 < -tol)
    if not idx.size:
        return delta, gap, iters
    hi = np.minimum(delta_max[idx], hard_cap)
    fhi = np.array(gaps(idx, hi), dtype=float)      # fhi, flo: Illinois-scaled
    base = np.zeros(idx.size, dtype=int)            # bracket expansions
    for _ in range(8):
        up = np.flatnonzero((fhi < 0.0) & (hi < hard_cap))
        if not up.size:
            break
        hi[up] = np.minimum(2.0 * hi[up], hard_cap)
        fhi[up] = gaps(idx[up], hi[up])
        base[up] += 1
    failed = np.flatnonzero(fhi < 0.0)
    if failed.size:
        k = failed[0]
        raise RuntimeError(
            f"{names(idx[k])}volume match failed: gap still {fhi[k]:.3e} at "
            f"delta = {hi[k]:.3e}; the family cannot reach the target volume "
            "in range")
    lo, flo, t = np.zeros(idx.size), g0[idx], tol[idx]
    at_hi = np.abs(fhi) < np.abs(flo)               # best iterate so far
    bx, bg = np.where(at_hi, hi, 0.0), np.where(at_hi, fhi, flo)
    kept = np.full(idx.size, 0.5)   # 1: lo end moved last, 0: hi end, 0.5: neither
    widths = (hi,) * 3              # bracket widths one to three steps back
    bisect = np.zeros(idx.size, dtype=bool)
    stop, step = fhi <= t, 0
    while True:
        if np.count_nonzero(stop):
            out = idx[stop]
            delta[out], gap[out], iters[out] = bx[stop], bg[stop], base[stop] + step
            if out.size == idx.size:
                return delta, gap, iters
            go = ~stop
            idx, lo, hi, flo, fhi, t, base, bx, bg, kept, bisect = (
                a[go] for a in (idx, lo, hi, flo, fhi, t, base, bx, bg, kept, bisect))
            widths = tuple(w[go] for w in widths)
        step += 1
        # lo >= 0 and flo < 0 < fhi: both products add, nothing cancels
        x = (lo * fhi - hi * flo) / (fhi - flo)
        np.copyto(x, 0.5 * (lo + hi), where=bisect | ~((lo < x) & (x < hi)))
        gx = np.asarray(gaps(idx, x), dtype=float)
        size = np.abs(gx)
        better = size < np.abs(bg)
        bx, bg = np.where(better, x, bx), np.where(better, gx, bg)
        neg = gx < 0.0
        # halve the value kept at the end that did not move, if the same
        # end moved twice in a row
        halve = np.where(neg == kept, 0.5, 1.0)
        lo, hi, kept = np.where(neg, x, lo), np.where(neg, hi, x), neg
        flo, fhi = np.where(neg, gx, halve * flo), np.where(neg, halve * fhi, gx)
        width = hi - lo
        # within tolerance, or the bracket collapsed (the noise floor)
        stop = (size <= t) | (width <= 4.0 * ULP * hi)
        if step == 200:
            stop[:] = True
        bisect = width > 0.5 * widths[2]
        widths = (width, widths[0], widths[1])


def _matches(balls, n: int, eps: float, start: float, hard_cap: float,
             denom: float, gaps, names):
    """The volume matches of families whose base balls have deficit volumes
    ``balls`` = |B|_g = -gap(0), one ``_roots`` row each, as the arrays
    (delta, gap) and a tuple of ``VolumeMatch``.  |B|_g sets the scale of
    each problem: the tolerance is ``VOLUME_RTOL * |B|_g``, so a match stays
    meaningful for exponentially small deficits, and a vanished one (|B|_g
    <= ``DEGENERACY_TOL``) gets an infinite tolerance, so it matches at
    delta = 0 without a search.  The bracket starts at 4 (1 + 2 eps) |B|_g /
    ``start`` (a normal float) and stops at ``hard_cap``; the a-priori bound
    is ``_within_bound``'s.
    """
    balls = np.asarray(balls, dtype=float)
    slack = (1.0 + 2.0 * eps) * balls
    tol = np.where(balls <= DEGENERACY_TOL, np.inf, VOLUME_RTOL * balls)
    delta, gap, iters = _roots(-balls, np.maximum(4.0 * slack / start, _TINY),
                               tol, hard_cap, gaps, names)
    ok = _within_bound(delta, balls, eps, denom)
    omega = unit_ball_volume(n)
    return delta, gap, tuple(
        VolumeMatch(x, omega + g, i, b, g) for x, g, i, b in
        zip(delta.tolist(), gap.tolist(), iters.tolist(), ok.tolist()))


def _within_bound(delta, balls, eps: float, denom: float):
    """Every match's a-priori bound, delta <= (1 + 2 eps) |B|_g / ``denom``
    within a 1e-9 relative slack, for |B|_g = ``balls``; unmet if denom <= 0."""
    return delta <= ((1.0 + 2.0 * eps) * balls / denom if denom > 0.0
                     else math.nan) * (1.0 + 1e-9)


def volume_match(gap, ball_deficit: float, n: int, R: float,
                 eps: float) -> VolumeMatch:
    """Match the cylinder-extended sets' |E_delta|_f = omega_N, one
    ``_matches`` row.

    ``gap`` maps the height delta to V_f(E_delta) - omega_N
    (nondecreasing); ``ball_deficit`` is |B|_g of the base ball.  The
    bracket starts at 4 (1 + 2 eps) |B|_g / omega_{N-1} and stops at
    0.9 (R - 1), and the a-priori bound is

        delta <= (1 + 2 eps) |B|_g / (omega_{N-1} - N omega_N / (2R))

    for R > N omega_N / (2 omega_{N-1}); below it bound_ok is False.  The
    set of height delta adds the cylinder, omega_{N-1} delta, and loses
    omega_N (1 - k^N) / 2 of the near half-ball shrunk by k = (R - delta)/R
    (``shrink_terms``); by Bernoulli's inequality 1 - k^N <= N (1 - k) =
    N delta / R.  At the match that Euclidean excess equals the set's
    deficit volume, at most (1 + 2 eps) |B|_g, so

        (omega_{N-1} - N omega_N / (2R)) delta
            <= omega_{N-1} delta - omega_N (1 - k^N) / 2 <= (1 + 2 eps) |B|_g,

    which tends to the bound without the shrink term as R -> infinity.
    """
    omega1 = unit_ball_volume(n - 1)
    return _matches([ball_deficit], n, eps, omega1, 0.9 * (R - 1.0),
                    omega1 - n * unit_ball_volume(n) / (2.0 * R),
                    lambda _, deltas: [gap(float(deltas[0]))], lambda _: "")[2][0]


# ---------------------------------------------------------------------------
# cylinder extension (non-decreasing weights)
# ---------------------------------------------------------------------------

def ray_monotone_on_samples(d: Density, r_lo: float, r_hi: float) -> bool:
    """Sampled check (12 radii, 8 x 48 directions) that t -> f(t theta) is
    nondecreasing on [r_lo, r_hi], in deficit space: g = a - f may rise
    between neighbouring radii by no more than the rounding floor of the two
    samples, a few ulps of their magnitude, or of the limit a when the
    deficit is formed as a - f."""
    dirs, _ = sphere_grid(d.dim, 8, 48)
    g = deficit_weight(d)
    vals = np.stack([np.atleast_1d(np.asarray(g(r * dirs), dtype=float))
                     for r in np.linspace(r_lo, r_hi, 12)])
    size = np.abs(vals) + (0.0 if d.deficit is not None else abs(d.limit_a))
    return bool(np.all(np.diff(vals, axis=0) <= 4.0 * ULP * (size[:-1] + size[1:])))


def _pass_record(quad: GaussPass) -> dict:
    """The record of a certified set's deficit pass: its rule, and its
    estimates over the boundary and over the interior."""
    surface, volume = quad.estimates()
    return {"pass_rule": list(quad.rule), "pass_surface_estimate": surface,
            "pass_volume_estimate": volume}


@dataclass(frozen=True)
class ExtensionResult:
    E: CylinderExtended | RotationSwept | PlainBall
    match: VolumeMatch
    perimeter_margin: float
    volume_gap: float
    rho: float
    P_f: MeasureResult
    V_f: MeasureResult
    checks: dict
    margin_error: float = 0.0      # the margin's and the gap's estimates
    gap_error: float = 0.0


def _extension(E, match: VolumeMatch, margin: float, e_p: float, e_v: float,
               points: int, checks: dict) -> ExtensionResult:
    """E's extension result on every route.  P_f = N omega_N - margin and
    V_f = omega_N + gap, on the route's ``points``, are estimated by the
    margin's and the gap's estimates e_P, e_V plus 2 ULP (N omega_N +
    |margin|) and 2 ULP (omega_N + |gap|).  In deficit space rho - 1 =
    expm1(N log1p(-margin / (N omega_N)) - (N-1) log1p(gap / omega_N)), with
    the estimate rho (N e_P / P_f + (N-1) e_V / V_f) plus 4 ULP (|N log1p(.)|
    + |(N-1) log1p(.)| + |rho - 1|); above it (rho > 1) it is refused."""
    n, omega, gap = E.dim, unit_ball_volume(E.dim), match.gap
    P_f = MeasureResult(n * omega - margin, "quadrature",
                        e_p + 2.0 * ULP * (n * omega + abs(margin)), points)
    V_f = MeasureResult(omega + gap, "quadrature",
                        e_v + 2.0 * ULP * (omega + abs(gap)), points)
    log_p, log_v = (n * math.log1p(-margin / (n * omega)),
                    (n - 1) * math.log1p(gap / omega))
    excess = math.expm1(log_p - log_v)          # rho - 1
    estimate = ((1.0 + excess) * (n * e_p / P_f.value + (n - 1) * e_v / V_f.value)
                + 4.0 * ULP * (abs(log_p) + abs(log_v) + abs(excess)))
    if excess > estimate:
        raise RuntimeError(f"mean density above 1: rho - 1 = {excess:.6e} exceeds "
                           f"its estimate {estimate:.3e}; the offset or eps is "
                           "misconfigured for this weight")
    return ExtensionResult(E, match, margin, gap, 1.0 + excess, P_f, V_f, dict(
        checks, rho_minus_one=excess, rho_minus_one_estimate=estimate), e_p, e_v)


def cylinder_extension(cert: FarBallCertificate, d: Density,
                       eps: float = EPS) -> ExtensionResult:
    """Volume-matched cylinder-extended set along the certified direction.

    Requires the weight to be nondecreasing along rays near the working
    annulus (checked on samples; the variant is refused otherwise, since the
    inward displacement argument is what keeps the near boundary cheap).
    The Gauss rule is sized once, on the set of height zero, the base ball:
    ``sized_pass`` up to (SPHERE_NODES, RADIAL_NODES) at the certificate's
    |B|_g (``cert.V_g``).  The match, the margin and the shifted-boundary
    check all run on the settled rule: the pieces the pass holds, the far
    caps that every height shares and the near caps of height zero, are
    read from it, and every other piece is integrated once
    (``integrate_patches``), as each height's patches are built once, so
    the margin and the shifted-boundary check at the match share its near
    hemisphere.  The checks record the rule, the pass's
    deficit estimates over the boundary and the interior (``pass_rule``,
    ``pass_surface_estimate``, ``pass_volume_estimate``) and rho - 1
    (``_extension``, with P_f and V_f on the pass's points; rho > 1 refused).
    """
    n, R = d.dim, cert.R
    theta = np.array(cert.theta) if cert.theta is not None else np.eye(n)[0]
    if not ray_monotone_on_samples(d, max(d.envelope_radius, R - 2.0), R + 2.0):
        raise RuntimeError("weight is not ray-monotone near the annulus; "
                           "cylinder extension refused")
    g = deficit_weight(d)
    family = cache(partial(CylinderFamily, n, R, frame_from_axis(theta)))
    quad = sized_pass(lambda *rule: family(*rule)(0.0), g, SPHERE_NODES,
                      RADIAL_NODES, cert.V_g.value)
    at = cache(family(*quad.rule))          # delta -> the set of height delta
    other = cache(lambda make: integrate_patches(g, [make]))

    def integral(make):
        return quad.integral(make) if make in quad.pieces else other(make)

    def gap(delta):
        return at(delta).volume_gap(g, integral)
    # |B|_g and the margin of B: the set of height zero
    ball_g, ball_margin = -gap(0.0), at(0.0).perimeter_margin(g, integral)
    # gap by keyword, where perfbench's tracer counts its calls
    match = volume_match(gap=gap, ball_deficit=ball_g, n=n, R=R, eps=eps)
    delta = match.delta_bar
    E = (CylinderExtended(dim=n, offset=R, delta=delta, direction=tuple(theta))
         if delta > 0.0 else PlainBall(dim=n, offset=R, direction=tuple(theta)))
    margin = at(delta).perimeter_margin(g, integral)
    # H_f(near hemisphere, shrunk) - H_f(near hemisphere of B), nonpositive
    # for ray-nondecreasing weights: -(N omega_N / 2)(1 - k^{N-1})
    # + H_g(near of B) - H_g(near, shrunk)
    near = [integral(at(x).surface["near"]) for x in (0.0, delta)]
    decrease = (-0.5 * n * unit_ball_volume(n) * shrink_terms(n, R, delta)[0]
                + near[0] - near[1])
    # perimeter chain: P_f(E) <= P_f(B) + (N - 1 + eps) omega_{N-1} delta
    chain_lhs = ball_margin - margin      # P_f(E) - P_f(B)
    chain_rhs = (n - 1 + eps) * unit_ball_volume(n - 1) * delta
    checks = {
        "shifted_boundary_nonincreasing": decrease <= 0.0,
        "shifted_boundary_decrease": decrease,
        "perimeter_chain_ok": chain_lhs <= chain_rhs,
        "perimeter_chain_lhs": chain_lhs,
        "perimeter_chain_rhs": chain_rhs,
        **_pass_record(quad),
    }
    if not checks["shifted_boundary_nonincreasing"]:
        raise RuntimeError("displaced near boundary grew; weight not "
                           "ray-monotone on the quadrature grid")
    return _extension(E, match, margin, *quad.estimates(), quad.points, checks)


# ---------------------------------------------------------------------------
# the swept sets: the advance map on a working circle, and its certificate
# ---------------------------------------------------------------------------

def _swept_set(n: int, R: float, frame, phi: float, delta: float, band_f: float):
    """The ball at angle phi of ``frame``'s circle swept by delta (plain at
    delta = 0), and whether the band's f-integral ``band_f`` keeps the
    perimeter chain P_f(E) <= P_f(B) + (N-1) omega_{N-1} (R+1) delta."""
    direction, sweep = (tuple(float(x) for x in v)
                        for v in circle_point(frame, phi))
    E = (RotationSwept(dim=n, offset=R, delta=delta, direction=direction, sweep=sweep)
         if delta > 0.0 else PlainBall(dim=n, offset=R, direction=direction))
    return E, bool(band_f <= (n - 1) * unit_ball_volume(n - 1) * (R + 1.0) * delta)


def rotation_extension(cert: FarBallCertificate, d: Density,
                       eps: float = EPS) -> ExtensionResult:
    """Volume-matched rotation-swept set for radial weights, in closed form.

    The certified ball B (about e1 without a certified direction) is swept
    towards the next vector of its frame.  A reflection through the sweep
    tangent fixes B and |x|, so for a radial deficit the hemispheres sum to
    P_g(B) and the half-balls to V_g(B), both from ``cert``, and the band
    and the wedge of angle delta to delta Band_g and delta W_g
    (``layers.moment_integrals``).  The gap is linear in delta, so the match
    is one division, with no root search (``match.iterations`` 0):

        delta  = V_g(B) / (R omega_{N-1} - W_g),
        margin = P_g(B) - delta ((N-1) R omega_{N-1} - Band_g).

    The margin's estimate is e_P + delta e_Band, the gap's e_V + delta e_W,
    each plus 2 ULP of its terms, and delta's the gap plus its estimate over
    the gap's slope.  The a-priori bound is the sweep's, delta <= (1 + 2
    eps) V_g(B) / (omega_{N-1} (R - 1)) (``_within_bound``).  The checks
    record the four integrals' evaluations (``layer_evaluations``) and
    estimates, the estimates of delta, the margin and the gap, the
    perimeter chain and rho - 1 (``_extension``, with P_f and V_f on those
    evaluations; rho > 1 refused).
    """
    if not d.radial:
        raise ValueError("rotation extension requires a radial weight")
    n, R, P, V = d.dim, cert.R, cert.P_g, cert.V_g
    theta = np.array(cert.theta) if cert.theta is not None else np.eye(n)[0]
    g = deficit_profile(d)
    (band, e_band, n_band), (wedge, e_wedge, n_wedge) = moment_integrals(g, n, R)
    omega1 = unit_ball_volume(n - 1)
    length = R * omega1                 # the wedge's volume per unit angle
    slope = length - wedge              # of the gap in delta
    delta = V.value / slope if V.value > DEGENERACY_TOL else 0.0
    if not 0.0 <= delta < 0.45 * math.pi:
        raise RuntimeError(
            f"volume match failed: delta = {delta:.3e} for |B|_g = "
            f"{V.value:.6e} and W_g = {wedge:.6e}; the family cannot reach "
            "the target volume in range")
    band_f = delta * ((n - 1) * length - band)      # the band's f-integral
    margin, gap = P.value - band_f, delta * slope - V.value
    e_margin = (P.error_estimate + delta * e_band
                + 2.0 * ULP * (abs(P.value) + band_f))
    e_gap = V.error_estimate + delta * e_wedge + 2.0 * ULP * (delta * length + V.value)
    E, chain_ok = _swept_set(n, R, frame_from_axis(theta), 0.0, delta, band_f)
    match = VolumeMatch(delta, unit_ball_volume(n) + gap, 0, bool(
        _within_bound(delta, V.value, eps, omega1 * (R - 1.0))), gap)
    evaluations = [P.samples_or_nodes, V.samples_or_nodes, n_band, n_wedge]
    checks = {
        "perimeter_chain_ok": chain_ok, "layer_evaluations": evaluations,
        "P_g_estimate": P.error_estimate, "V_g_estimate": V.error_estimate,
        "band_g_estimate": e_band, "wedge_g_estimate": e_wedge,
        "delta_estimate": (abs(gap) + e_gap) / slope,
        "margin_estimate": e_margin, "gap_estimate": e_gap,
    }
    return _extension(E, match, margin, e_margin, e_gap, sum(evaluations), checks)


def sweep_advance_map(d: Density, R: float, plane: np.ndarray,
                      grid: int = CIRCLE_GRID, eps: float = EPS,
                      nodes: int = SPHERE_NODES) -> SweepAdvanceMap:
    """Per-direction volume matching on the working circle.

    One ``spectral.SweepSpectrum`` samples the deficit on the meridian disk
    times a uniform grid in the sweep angle and gives |B^theta|_g at every
    grid angle and each angle's volume gap delta -> V_f(E) - omega_N in
    closed form, as Fourier shifts.  Every angle is one row of the
    cylinder's matcher ``_matches`` (bracket start and a-priori bound over
    omega_{N-1}(R-1), bracket stop 0.45 pi): one search over all the angles,
    one call a round of the ``SweepSpectrum.gaps`` formed on those balls.
    A failed bracket names the first failing theta and its |B^theta|_g, and
    only a vanished deficit (``|B^theta|_g <= DEGENERACY_TOL``) advances by
    zero unmatched.  Each advance's error estimate is its root residual plus
    the engine's estimate of the gap there (every other sweep-angle sample,
    half the disk nodes, the rounding floor), over the gap's mean slope.
    The same spectrum gives the trailing hemisphere at theta and the leading
    one at theta + advance, whose sum bounds the margin in the direction
    selection.  Difference quotients of the map are the measured Lipschitz
    data.
    """
    if plane.shape[1] != 2:
        raise ValueError("plane must have two columns")
    n = d.dim
    frame = frame_from_axis(plane[:, 0], plane[:, 1])
    spectrum = SweepSpectrum(deficit_weight(d), n, R, frame, grid, nodes)
    theta = spectrum.theta
    ball_gs, _ = spectrum.balls(theta)
    length = unit_ball_volume(n - 1) * max(R - 1.0, 1e-9)   # start and bound
    advance, residual, matches = _matches(
        ball_gs, n, eps, length, 0.45 * math.pi, length, spectrum.gaps(ball_gs),
        lambda k: f"advance map at theta = {theta[k]:.6g}, with "
                  f"|B^theta|_g = {ball_gs[k]:.6e}: ")
    _, gap_error = spectrum.volume_gaps(theta, advance)
    moved = advance > 0.0
    slope = np.full(grid, swept_excess(n, R, 1.0)[1])
    slope[moved] = (residual[moved] + ball_gs[moved]) / advance[moved]
    trailing, trailing_error = spectrum.hemispheres(theta, upper=False)
    leading, leading_error = spectrum.hemispheres(theta + advance, upper=True)
    return SweepAdvanceMap(tuple(theta), tuple(advance), tuple(theta + advance),
                           eps, R, tuple(ball_gs), tuple(trailing + leading),
                           tuple(trailing_error + leading_error),
                           tuple((np.abs(residual) + gap_error) / slope),
                           matches)


def select_sweep_direction(
        d: Density, R: float, plane: np.ndarray, advance: SweepAdvanceMap,
        eps: float = EPS, nodes: int = SPHERE_NODES,
) -> tuple[float, ExtensionResult]:
    """Pick a base angle where a lower bound of the margin certifies the
    sweep, and certify the swept set there: (phi, ext).

    At each angle the bound is the advance map's rim deficit minus the
    band's Euclidean excess (N-1) omega_{N-1} R delta: the margin without
    the band's g-integral, which is >= 0 wherever f <= a on the band, as the
    perimeter chain below also assumes.  The first angle whose bound plus
    ``rim_error`` is >= 0 wins (the paper's averaging argument guarantees
    one); without one the selection is refused, naming the best bound.  The
    winning set's deficit g is integrated once, by the ``GaussPass`` over
    its patches that ``sized_pass`` settles on: the first of the rules 16,
    32, ... below (nodes, RADIAL_NODES) whose estimates over the boundary
    and the interior are both within ``VOLUME_RTOL * |B^phi|_g``, else
    (nodes, RADIAL_NODES) itself; the checks record it (``_pass_record``).
    Its integrals give the perimeter margin and the volume gap, reported
    with the angle's own volume match, whose gap becomes the patch gap; a
    patch gap off the match's by more than ``VOLUME_RTOL * |B^phi|_g`` plus
    the pass's volume estimate is refused: the advance map's psi rule
    aliased the deficit.  The same pass checks the perimeter chain
    (``_swept_set``), and ``_extension`` forms P_f, V_f and rho from the
    margin, the gap and the pass's estimates on its points, refusing a
    mean density above 1.  It takes
    any weight; ``build_competitor`` certifies a radial one in closed form
    (``rotation_extension``) instead, and this route is its independent
    reference.
    """
    n = d.dim
    frame = frame_from_axis(plane[:, 0], plane[:, 1])
    bounds = (np.asarray(advance.rim_deficit)
              - swept_excess(n, R, np.asarray(advance.advance))[0])
    qualifying = np.nonzero(bounds + np.asarray(advance.rim_error) >= 0.0)[0]
    if not qualifying.size:
        top = int(np.argmax(bounds))
        raise RuntimeError(
            f"no base angle certified the sweep: the best margin bound is "
            f"{bounds[top]:.6e} at theta = {advance.theta[top]:.6g}, beyond "
            f"its error estimate {advance.rim_error[top]:.3e} below zero")
    best = int(qualifying[0])      # deterministic first-hit
    phi, delta = float(advance.theta[best]), float(advance.advance[best])
    g = deficit_weight(d)
    quad = sized_pass(partial(swept_patches, n, R, delta, frame, phi), g,
                      nodes, RADIAL_NODES, advance.ball_deficit[best])
    patches, omega = quad.patches, unit_ball_volume(n)
    surface_error, volume_error = quad.estimates()
    margin = patches.perimeter_margin(g, quad.integral)
    gap = patches.volume_gap(g, quad.integral)
    matched = advance.matches[best].gap
    tolerance = VOLUME_RTOL * advance.ball_deficit[best]
    if abs(gap - matched) > tolerance + volume_error:
        raise RuntimeError(
            f"swept set at phi = {phi:.6g} is not matched: its patch gap "
            f"{gap:.6e} differs from the advance map's {matched:.6e} by more "
            f"than the tolerance {tolerance:.3e} plus the estimate "
            f"{volume_error:.3e}; the psi rule aliases the deficit")
    match = replace(advance.matches[best], achieved_volume=omega + gap, gap=gap)
    band = patches.surface.get("band")
    E, chain_ok = _swept_set(n, R, frame, phi, delta, swept_excess(n, R, delta)[0]
                             - (quad.integral(band) if band else 0.0))
    return phi, _extension(E, match, margin, surface_error, volume_error, quad.points,
                           {"perimeter_chain_ok": chain_ok, **_pass_record(quad)})


# ---------------------------------------------------------------------------
# end-to-end driver
# ---------------------------------------------------------------------------

def monte_carlo_check(E: PlainBall | CylinderExtended | RotationSwept,
                      d: Density, P_f: MeasureResult, V_f: MeasureResult,
                      samples: int, seed: int, margin: float, gap: float,
                      margin_error: float = 0.0, gap_error: float = 0.0) -> dict:
    """Re-measure E by Monte Carlo and compare with the quadrature values.

    One randomized lattice rule on E's patches (``mc_integrals``, at most
    ``samples`` points for the boundary and as many for the interior)
    measures both the weight, for P_f and V_f, and the deficit g, for the
    perimeter margin P_g minus the perimeter excess and the volume gap,
    volume excess minus V_g, of a density with limit 1, against the
    certified ``margin`` and ``gap``.  f and g are integrated
    independently, so against the closed forms P_f = N omega_N - margin
    and V_f = omega_N + gap this also checks f + g = 1.  A value is
    consistent when the two differ by at most four Monte-Carlo standard
    errors plus the certified value's estimate: for P_f and V_f their
    error estimate, whose rounding floor covers a weight that rounds to 1
    on the whole set far out, and for the margin and the gap
    ``margin_error`` and ``gap_error`` plus the rounding floor of the Monte
    Carlo value's own sum, ULP x ceil(log2 terms) x sum |terms|
    (``_rounding_floor``).  Each standard
    error comes from ``MC_SHIFTS`` = 16 shifts, so under Student's t with
    15 degrees of freedom the four-sigma gate's two-sided level is about
    1.2e-3.
    """
    patches, g = set_patches(E), deficit_weight(d)
    fns = [partial(eval_weight, d), g]
    (P_mc, Pg), (V_mc, Vg) = (mc_integrals(makers, fns, samples, seed)
                              for makers in (patches.surface, patches.volume))
    margin_mc = Pg.value - sum(patches.perimeter_excess)
    gap_mc = patches.volume_excess - Vg.value
    return {
        "volume_consistent": abs(V_mc.value - V_f.value)
        <= 4.0 * V_mc.error_estimate + V_f.error_estimate,
        "perimeter_consistent": abs(P_mc.value - P_f.value)
        <= 4.0 * P_mc.error_estimate + P_f.error_estimate,
        "margin_consistent": abs(margin_mc - margin) <= 4.0 * Pg.error_estimate
        + margin_error + _rounding_floor(Pg, patches.perimeter_excess),
        "gap_consistent": abs(gap_mc - gap) <= 4.0 * Vg.error_estimate
        + gap_error + _rounding_floor(Vg, (patches.volume_excess,)),
        "P_mc": P_mc.value, "P_mc_stderr": P_mc.error_estimate,
        "V_mc": V_mc.value, "V_mc_stderr": V_mc.error_estimate,
        "margin_mc": margin_mc, "margin_stderr": Pg.error_estimate,
        "gap_mc": gap_mc, "gap_stderr": Vg.error_estimate,
        "seed": seed, "samples": samples,
        "points": P_mc.samples_or_nodes + V_mc.samples_or_nodes, "shifts": MC_SHIFTS,
    }


def _rounding_floor(mc: MeasureResult, closed) -> float:
    """ULP x ceil(log2 terms) x sum |terms| for the Monte-Carlo value ``mc``
    combined with the closed-form terms ``closed``: the rounding floor of
    that sum (Higham, SIAM J. Sci. Comput. 14, 1993)."""
    terms = mc.samples_or_nodes + len(closed)
    return ULP * math.ceil(math.log2(terms)) * (mc.abs_sum + sum(map(abs, closed)))


def build_competitor(d: Density, eps: float = EPS, R_min: float = 50.0,
                     R_max: float = 400.0, circle_grid: int = CIRCLE_GRID,
                     nodes: int = SPHERE_NODES, mc_samples: int = 100_000,
                     mc_seed: int = 2024) -> CompetitorCertificate:
    """Far ball -> (circle, advance map, direction) -> certified set.

    The density is first rescaled so its limit is 1 and the target volume is
    omega_N.  A radial weight is certified in closed form by
    ``rotation_extension``, with no spectrum, root search or Gauss pass;
    its advance map is the one angle 0, with delta's estimate as its error.
    Any other weight's set is swept on its working circle and its deficit
    integrated once, by ``select_sweep_direction``, on the Gauss rule sized
    by its deficit budget with (nodes, RADIAL_NODES) as the ceiling.  Either
    route returns one ``ExtensionResult``, whose P_f and V_f are closed
    forms of the margin and the gap (``_extension``), and ``bounds``
    records the route's checks and estimates and rho - 1.  The final
    inequalities are re-measured by an independent Monte-Carlo pass, the
    one step that evaluates f.
    """
    n = d.dim
    dd, lam = rescale(d, unit_ball_volume(n)) if d.limit_a != 1.0 else (d, 1.0)
    g = deficit_profile(dd)
    far = find_far_radius(g, n, eps, R_min, R_max)
    if dd.radial:
        ext = rotation_extension(far, dd, eps)
        c, delta = ext.checks, ext.match.delta_bar
        advance_map = SweepAdvanceMap(
            (0.0,), (delta,), (delta,), eps, far.R, (far.V_g.value,),
            (far.P_g.value,), (far.P_g.error_estimate,), (c["delta_estimate"],),
            (ext.match,))
    else:
        plane = select_working_circle(dd, far, quad_nodes=nodes)
        advance_map = sweep_advance_map(dd, far.R, plane, circle_grid, eps, nodes)
        _, ext = select_sweep_direction(dd, far.R, plane, advance_map, eps, nodes)
    mc_check = monte_carlo_check(ext.E, dd, ext.P_f, ext.V_f, mc_samples, mc_seed,
                                 ext.perimeter_margin, ext.volume_gap,
                                 ext.margin_error, ext.gap_error)
    deficit_scale = float(np.max(np.asarray(
        g.profile(np.linspace(far.R - 1.0, far.R + 1.0, 65)))))
    bounds = {"match_bound_ok": ext.match.bound_ok,
              "annulus_deficit_sup": deficit_scale, "rescale_lambda": lam,
              **ext.checks}
    return CompetitorCertificate(
        E=ext.E, P_f=ext.P_f, V_f=ext.V_f, rho=ext.rho,
        perimeter_margin=ext.perimeter_margin, volume_gap=ext.volume_gap,
        strict=ext.perimeter_margin > 0.0,
        # degenerate = the zero-deficit branch: the plain ball is already
        # optimal and there is no margin to gain (a tiny but positive
        # deficit still certifies a strict improvement)
        degenerate=(far.degenerate and ext.match.delta_bar == 0.0
                    and ext.perimeter_margin <= 0.0),
        match=ext.match, farball=far, advance=advance_map,
        bounds=bounds, mc_check=mc_check)
