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
  (``farball.select_working_circle``); a radial weight's is the first
  coordinate plane, and its advance map, constant in the angle, has one
  angle (``rotation_extension``).

All final inequalities are assembled in deficit space: the perimeter margin
N omega_N - P_f(E) is a sum of small deficit integrals and closed-form
Euclidean corrections, never a difference of order-one floats, so strictness
remains observable even for exponentially small deficits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .defaults import (CIRCLE_GRID, DEGENERACY_TOL, EPS, RADIAL_NODES,
                       SPHERE_NODES, VOLUME_RTOL)
from .density import (Density, deficit_profile, deficit_weight, eval_weight,
                      rescale)
from .farball import (FarBallCertificate, find_far_radius,
                      select_working_circle)
from .measures import (CylinderExtended, CylinderFamily, GaussPass,
                       MeasureResult, PlainBall, RotationSwept, circle_point,
                       gauss_rules, integrate_patches, mc_integrals,
                       mean_density, patch_integrals, set_patches,
                       shrink_terms, swept_excess, swept_patches)
from .quadrature import frame_from_axis, sphere_grid, unit_ball_volume
from .spectral import ULP, SweepSpectrum


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
    Far out the advances (~1e-23 at offset 50) round away in theta + advance
    and every quotient reads exactly 1; ``quotient_deviation`` keeps the
    quotient minus 1 in deficit space.  Recorded for the direction
    selection at each angle: ``ball_deficit``, |B^theta|_g of the base ball,
    and ``rim_deficit``, H_g(trailing hemisphere at theta) + H_g(leading
    hemisphere at theta + advance), with its error estimate ``rim_error``;
    ``matches``, each angle's ``VolumeMatch``.  ``advance_error`` is each
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

    def _steps(self) -> np.ndarray:
        th = np.asarray(self.theta)
        return np.diff(np.append(th, th[0] + 2.0 * math.pi))

    def quotients(self) -> np.ndarray:
        ta = np.asarray(self.mapped)
        dtau = np.diff(np.append(ta, ta[0] + 2.0 * math.pi))
        return dtau / self._steps()

    def quotient_deviation(self) -> np.ndarray:
        """quotients() - 1 without the rounding: diff(advance) / eta."""
        adv = np.asarray(self.advance)
        return np.diff(np.append(adv, adv[0])) / self._steps()


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

def _root_of_gap(gap, g0: float, delta_max: float, vol_tol: float,
                 hard_cap: float, max_expand: int = 8) -> tuple[float, float, int]:
    """Safeguarded root of gap(delta) = 0 on [0, delta_max]: returns
    (delta, gap(delta), iters).

    ``g0`` is gap(0), which is not evaluated again; g0 <= 0 by
    construction.  The bracket is expanded (boundedly, never past
    ``hard_cap``) if gap(delta_max) is still negative.  Inside the
    bracket the Illinois variant of regula falsi is used: the gap is nearly
    linear in delta, so a secant step lands close to the root, and halving
    the value kept at an end that survives twice in a row stops the
    one-sided stalling of plain regula falsi.  Every iterate stays strictly
    inside the bracket, and a bisection step is taken whenever three steps
    have not halved it, so the bracket at least halves every four steps.
    """
    if g0 >= -vol_tol:
        return 0.0, g0, 0
    hi = min(delta_max, hard_cap)
    ghi = gap(hi)
    expansions = 0
    while ghi < 0.0 and expansions < max_expand and hi < hard_cap:
        hi = min(2.0 * hi, hard_cap)
        ghi = gap(hi)
        expansions += 1
    if ghi < 0.0:
        raise RuntimeError(
            f"volume match failed: gap still {ghi:.3e} at delta = {hi:.3e}; "
            "the family cannot reach the target volume in range")
    if ghi <= vol_tol:
        return hi, ghi, expansions
    lo, flo, fhi = 0.0, g0, ghi  # flo, fhi: Illinois-scaled end values
    best = min((0.0, g0), (hi, ghi), key=lambda p: abs(p[1]))
    kept = 0                     # -1: lo end moved last, +1: hi end moved last
    widths = (hi, hi, hi)        # bracket widths one to three steps back
    bisect = False
    iters = expansions
    for _ in range(200):
        # lo >= 0 and flo < 0 < fhi: both products add, nothing cancels
        x = (0.5 * (lo + hi) if bisect
             else (lo * fhi - hi * flo) / (fhi - flo))
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        gx = gap(x)
        iters += 1
        if abs(gx) <= vol_tol:
            return x, gx, iters
        best = min(best, (x, gx), key=lambda p: abs(p[1]))
        if gx < 0.0:
            lo, flo = x, gx
            if kept == -1:
                fhi *= 0.5
            kept = -1
        else:
            hi, fhi = x, gx
            if kept == 1:
                flo *= 0.5
            kept = 1
        if hi - lo <= 4.0 * np.finfo(float).eps * hi:
            break
        bisect = hi - lo > 0.5 * widths[2]
        widths = (hi - lo, widths[0], widths[1])
    # bracket collapsed before meeting tolerance: numerical noise floor
    return best[0], best[1], iters


def _match_bracket(variant: str, ball_deficit: float, n: int, R: float,
                   eps: float) -> tuple[float, float, float]:
    """(delta_max, hard_cap, bound) of a volume match; see ``volume_match``.

    The bracket starts at four times (1 + 2 eps) |B|_g / omega_{N-1}, or
    / (omega_{N-1} (R - 1)) for the rotation.  The cylinder's bound is nan,
    so never met, where its denominator is not positive.
    """
    if variant not in ("cylinder", "rotation"):
        raise ValueError("variant must be 'cylinder' or 'rotation'")
    omega1 = unit_ball_volume(n - 1)
    slack = (1.0 + 2.0 * eps) * ball_deficit
    if variant == "cylinder":
        start, hard_cap = omega1, 0.9 * (R - 1.0)
        denom = omega1 - n * unit_ball_volume(n) / (2.0 * R)
    else:
        start = denom = omega1 * max(R - 1.0, 1e-9)
        hard_cap = 0.45 * math.pi
    bound = slack / denom if denom > 0.0 else math.nan
    return max(4.0 * slack / start, 1e-300), hard_cap, bound


def volume_match(variant: str, gap, ball_deficit: float, n: int, R: float,
                 eps: float, vol_tol: float | None = None) -> VolumeMatch:
    """Match |E_delta|_f = omega_N by safeguarded regula falsi.

    ``gap`` maps delta to V_f(E_delta) - omega_N (nondecreasing, gap(0) <= 0).
    ``ball_deficit`` is |B|_g of the base ball, and gap(0) is taken to be
    -|B|_g without calling ``gap``.  It sets the scale of the whole problem,
    so the default tolerance is
    ``VOLUME_RTOL * |B|_g`` and the match stays meaningful for exponentially
    small deficits.  The a-priori bound on the matched delta is checked per
    variant:

        cylinder:  delta <= (1 + 2 eps) |B|_g / (omega_{N-1} - N omega_N / (2R))
                   for R > N omega_N / (2 omega_{N-1}); below it bound_ok is False
        rotation:  delta <= (1 + 2 eps) |B|_g / (omega_{N-1} (R - 1))

    The cylinder set of height delta adds the cylinder, omega_{N-1} delta,
    and loses omega_N (1 - k^N) / 2 of the near half-ball shrunk by
    k = (R - delta)/R (``shrink_terms``); by Bernoulli's inequality
    1 - k^N <= N (1 - k) = N delta / R.  At the match that Euclidean excess
    equals the set's deficit volume, at most (1 + 2 eps) |B|_g, so

        (omega_{N-1} - N omega_N / (2R)) delta
            <= omega_{N-1} delta - omega_N (1 - k^N) / 2 <= (1 + 2 eps) |B|_g,

    which tends to the bound without the shrink term as R -> infinity.
    """
    delta_max, hard_cap, bound = _match_bracket(variant, ball_deficit, n, R, eps)
    vol_tol = VOLUME_RTOL * ball_deficit if vol_tol is None else vol_tol
    delta, res_gap, iters = _root_of_gap(gap, -ball_deficit, delta_max, vol_tol,
                                         hard_cap)
    bound_ok = delta <= bound * (1.0 + 1e-9)
    return VolumeMatch(delta, unit_ball_volume(n) + res_gap, iters, bound_ok,
                       res_gap)


# ---------------------------------------------------------------------------
# cylinder extension (non-decreasing weights)
# ---------------------------------------------------------------------------

def ray_monotone_on_samples(d: Density, r_lo: float, r_hi: float,
                            n_radii: int = 12, n_dirs: int = 48) -> bool:
    """Sampled check that t -> f(t theta) is nondecreasing on [r_lo, r_hi],
    in deficit space: g = a - f may rise between neighbouring radii by no
    more than the rounding floor of the two samples, a few ulps of their
    magnitude, or of the limit a when the deficit is formed as a - f."""
    dirs, _ = sphere_grid(d.dim, 8, n_dirs)
    g = deficit_weight(d)
    vals = np.stack([np.atleast_1d(np.asarray(g(r * dirs), dtype=float))
                     for r in np.linspace(r_lo, r_hi, n_radii)])
    size = np.abs(vals) + (0.0 if d.deficit is not None else abs(d.limit_a))
    return bool(np.all(np.diff(vals, axis=0) <= 4.0 * ULP * (size[:-1] + size[1:])))


class _CylinderPieces:
    """Deficit-space volume gap and perimeter margin of the cylinder-extended
    sets along the first column of ``frame``: the excess minus the
    g-integrals over ``measures.CylinderFamily``, the patches that
    ``set_measures`` integrates the weight over.  The pieces every height
    shares (the far caps, and the near caps at height zero) are integrated
    once and their floats subtracted in the same order."""

    def __init__(self, d: Density, R: float, frame: np.ndarray,
                 nodes: int = SPHERE_NODES, radial_nodes: int = RADIAL_NODES):
        self.n, self.R, self.g = d.dim, R, deficit_weight(d)
        # delta -> the patches of the set of height delta
        self.patches = CylinderFamily(d.dim, R, frame, nodes, radial_nodes)
        self._shared = dict.fromkeys(self.patches.shared)

    def _integral(self, make) -> float:
        if make not in self._shared:
            return integrate_patches(self.g, [make()])
        if self._shared[make] is None:
            self._shared[make] = integrate_patches(self.g, [make()])
        return self._shared[make]

    def volume_gap(self, delta: float) -> float:
        return self.patches(delta).volume_gap(self.g, self._integral)

    def perimeter_margin(self, delta: float) -> float:
        return self.patches(delta).perimeter_margin(self.g, self._integral)

    def shifted_boundary_decrease(self, delta: float) -> float:
        """H_f(near hemisphere of the shrunk ball) - H_f(near hemisphere of B).

        Nonpositive for ray-nondecreasing weights; evaluated in deficit space:
        -(N omega_N / 2)(1 - k^{N-1}) + H_g(near of B) - H_g(near, shrunk).
        """
        s1, _ = shrink_terms(self.n, self.R, delta)
        near = [self._integral(self.patches(x).surface["near"]) for x in (0.0, delta)]
        return -0.5 * self.n * unit_ball_volume(self.n) * s1 + near[0] - near[1]


@dataclass(frozen=True)
class ExtensionResult:
    E: CylinderExtended | RotationSwept | PlainBall
    match: VolumeMatch
    perimeter_margin: float
    volume_gap: float
    rho: float
    checks: dict


def _extension(E, match: VolumeMatch, margin: float, checks: dict) -> ExtensionResult:
    """E's extension result, with the mean density of its matched volume."""
    n = E.dim
    P = n * unit_ball_volume(n) - margin
    rho = mean_density(max(P, 1e-300), match.achieved_volume, n)
    return ExtensionResult(E, match, margin, match.gap, rho, checks)


def cylinder_extension(cert: FarBallCertificate, d: Density,
                       eps: float = EPS, nodes: int = SPHERE_NODES) -> ExtensionResult:
    """Volume-matched cylinder-extended set along the certified direction.

    Requires the weight to be nondecreasing along rays near the working
    annulus (checked on samples; the variant is refused otherwise, since the
    inward displacement argument is what keeps the near boundary cheap).
    """
    n, R = d.dim, cert.R
    theta = np.array(cert.theta) if cert.theta is not None else np.eye(n)[0]
    if not ray_monotone_on_samples(d, max(d.envelope_radius, R - 2.0), R + 2.0):
        raise RuntimeError("weight is not ray-monotone near the annulus; "
                           "cylinder extension refused")
    pieces = _CylinderPieces(d, R, frame_from_axis(theta), nodes)
    # |B|_g and the margin of B: the set of height zero
    ball_g = -pieces.volume_gap(0.0)
    ball_margin = pieces.perimeter_margin(0.0)
    match = volume_match("cylinder", pieces.volume_gap, ball_g, n, R, eps)
    delta = match.delta_bar
    E = (CylinderExtended(dim=n, offset=R, delta=delta, direction=tuple(theta))
         if delta > 0.0 else PlainBall(dim=n, offset=R, direction=tuple(theta)))
    margin = pieces.perimeter_margin(delta)
    decrease = pieces.shifted_boundary_decrease(delta)
    # perimeter chain: P_f(E) <= P_f(B) + (N - 1 + eps) omega_{N-1} delta
    chain_lhs = ball_margin - margin      # P_f(E) - P_f(B)
    chain_rhs = (n - 1 + eps) * unit_ball_volume(n - 1) * delta
    checks = {
        "shifted_boundary_nonincreasing": decrease <= 0.0,
        "shifted_boundary_decrease": decrease,
        "perimeter_chain_ok": chain_lhs <= chain_rhs,
        "perimeter_chain_lhs": chain_lhs,
        "perimeter_chain_rhs": chain_rhs,
    }
    if not checks["shifted_boundary_nonincreasing"]:
        raise RuntimeError("displaced near boundary grew; weight not "
                           "ray-monotone on the quadrature grid")
    return _extension(E, match, margin, checks)


# ---------------------------------------------------------------------------
# the swept sets: the advance map on a working circle, and its certificate
# ---------------------------------------------------------------------------

def rotation_extension(cert: FarBallCertificate, d: Density,
                       eps: float = EPS, nodes: int = SPHERE_NODES) -> ExtensionResult:
    """Volume-matched rotation-swept set for radial weights.

    A radial deficit's advance map is constant in the angle, so the sweep
    is matched at the one angle 0 of the plane through the certified
    direction (``sweep_advance_map`` with one angle) and certified by
    ``select_sweep_direction``, which also checks the rotation identity.
    """
    if not d.radial:
        raise ValueError("rotation extension requires a radial weight")
    theta = np.array(cert.theta) if cert.theta is not None else np.eye(d.dim)[0]
    plane = frame_from_axis(theta)[:, :2]
    advance = sweep_advance_map(d, cert.R, plane, 1, eps, nodes)
    return select_sweep_direction(d, cert.R, plane, advance, eps, nodes)[1]


def sweep_advance_map(d: Density, R: float, plane: np.ndarray,
                      grid: int = CIRCLE_GRID, eps: float = EPS,
                      nodes: int = SPHERE_NODES) -> SweepAdvanceMap:
    """Per-direction volume matching on the working circle.

    One ``spectral.SweepSpectrum`` samples the deficit on the meridian disk
    times a uniform grid in the sweep angle and gives |B^theta|_g at every
    grid angle and each angle's volume gap delta -> V_f(E) - omega_N in
    closed form, as Fourier shifts.  Each angle's gap goes to
    ``volume_match`` (tolerance ``VOLUME_RTOL * |B^theta|_g``, a-priori
    bound (1 + 2 eps) |B^theta|_g / (omega_{N-1}(R-1))), and the match is
    recorded; only a vanished deficit (``|B^theta|_g <= DEGENERACY_TOL``)
    advances by zero unmatched.  Each advance's error estimate is its root
    residual plus the engine's estimate of the gap there (every other
    sweep-angle sample, half the disk nodes, the rounding floor), over the
    gap's mean slope.  The same spectrum gives the trailing hemisphere at
    theta and the leading one at theta + advance, whose sum the direction
    selection scores.  Difference quotients of the map are the measured
    Lipschitz data.
    """
    if plane.shape[1] != 2:
        raise ValueError("plane must have two columns")
    n = d.dim
    frame = frame_from_axis(plane[:, 0], plane[:, 1])
    spectrum = SweepSpectrum(deficit_weight(d), n, R, frame, grid, nodes)
    theta = 2.0 * math.pi * np.arange(grid) / grid
    ball_gs, _ = spectrum.balls(theta)
    matches = tuple(volume_match("rotation", spectrum.gap(t, b), b, n, R, eps)
                    if b > DEGENERACY_TOL else
                    VolumeMatch(0.0, unit_ball_volume(n) - b, 0, True, -b)
                    for t, b in zip(theta.tolist(), ball_gs.tolist()))
    advance = np.array([m.delta_bar for m in matches])
    residual = np.array([m.gap for m in matches])
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
) -> tuple[float, ExtensionResult, tuple[MeasureResult, MeasureResult]]:
    """Pick a base angle where the averaged inequality certifies the sweep,
    and certify and measure the swept set there: (phi, ext, (P_f, V_f)).

    The scan maximizes H_g(leading hemisphere at the advanced angle) +
    H_g(trailing hemisphere at the base angle) - (1 - eps)(N - eps)|B|_g; the
    change-of-variables estimate guarantees a nonnegative maximum on a fine
    enough grid.  The hemispheres' sum and |B|_g at every angle are those
    the advance map recorded.  The winning swept set is measured once, f
    and g on the same nodes: one ``GaussPass`` over its patch list at
    (nodes, RADIAL_NODES).  Its g-integrals give the volume gap and the
    perimeter margin, in deficit space, reported with the winning angle's
    own volume match, whose gap becomes the patch gap; its f-integrals give
    P_f and V_f.  The same pass checks the perimeter chain
    P_f(E) <= P_f(B) + (N-1) omega_{N-1} (R+1) delta, which holds wherever
    f <= a on the swept band, and for a radial weight the rotation identity;
    a mean density above 1 + 1e-9 is refused.
    """
    n = d.dim
    frame = frame_from_axis(plane[:, 0], plane[:, 1])
    ball_gs = np.asarray(advance.ball_deficit)
    scores = (np.asarray(advance.rim_deficit)
              - (1.0 - eps) * (n - eps) * ball_gs)
    qualifying = np.nonzero(scores >= 0.0)[0]
    scale = max(float(np.max(np.abs(ball_gs))), 1e-300)
    if qualifying.size:
        best = int(qualifying[0])      # deterministic first-hit
    else:
        best = int(np.argmax(scores))
        if scores[best] < -1e-12 * scale:
            raise RuntimeError("no base angle certified the averaged "
                               "inequality; this flags quadrature tolerance, "
                               "not the estimate")
    phi, delta = float(advance.theta[best]), float(advance.advance[best])
    direction, sweep = (tuple(float(x) for x in v)
                        for v in circle_point(frame, phi))
    E = (RotationSwept(dim=n, offset=R, delta=delta, direction=direction, sweep=sweep)
         if delta > 0.0 else PlainBall(dim=n, offset=R, direction=direction))
    g = deficit_weight(d)
    fns = [partial(eval_weight, d), g]
    quad = GaussPass(partial(swept_patches, n, R, delta, frame, phi), fns,
                     nodes, RADIAL_NODES)
    patches, g_of = quad.patches, quad.integral(1)
    margin, gap = patches.perimeter_margin(g, g_of), patches.volume_gap(g, g_of)
    match = replace(advance.matches[best],
                    achieved_volume=unit_ball_volume(n) + gap, gap=gap)
    band = patches.surface.get("band")
    band_f = swept_excess(n, R, delta)[0] - (g_of(band) if band else 0.0)
    checks = {"score": float(scores[best]), "perimeter_chain_ok": bool(
        band_f <= (n - 1) * unit_ball_volume(n - 1) * (R + 1.0) * delta)}
    if d.radial:
        # rotation invariance in deficit space: H_g(leading cap at delta) =
        # H_g(leading cap at 0), within both caps' differences from their
        # half-node rules and rounding floors; g is the last integrand of both
        caps = ([patch_integrals(swept_patches(n, R, 0.0, frame, phi, *rule)
                                 .surface["leading"], [g])
                 for rule in gauss_rules(nodes, RADIAL_NODES)],
                quad.pieces[patches.surface["leading"]])
        (H0, H0_half), (H1, H1_half) = ((c[0].value[-1], c[1].value[-1])
                                        for c in caps)
        floor = 0.0
        for c in caps:
            floor += c[0].points * c[0].abs_sum[-1]
        error = abs(H0 - H0_half) + abs(H1 - H1_half) + ULP * floor
        checks.update(rotation_identity_residual=abs(H1 - H0),
                      rotation_identity_ok=bool(abs(H1 - H0) <= error))
    ext = _extension(E, match, margin, checks)
    if ext.rho > 1.0 + 1e-9:
        raise RuntimeError(
            f"mean density {ext.rho} exceeds 1 + 1e-9: the offset or eps is "
            "misconfigured for this weight")
    return phi, ext, quad.measures(0)


# ---------------------------------------------------------------------------
# end-to-end driver
# ---------------------------------------------------------------------------

def monte_carlo_check(E: PlainBall | CylinderExtended | RotationSwept,
                      d: Density, P_f: MeasureResult, V_f: MeasureResult,
                      samples: int, seed: int, margin: float | None = None,
                      gap: float | None = None) -> dict:
    """Re-measure E by Monte Carlo and compare with the quadrature values.

    One draw from E's patches (``mc_integrals``) measures both the weight,
    for P_f and V_f, and the deficit g, for the perimeter margin P_g minus
    the perimeter excess and the volume gap, volume excess minus V_g, of a
    density with limit 1; ``margin`` and ``gap`` default to E's quadrature
    values.  A value is consistent when the two differ by at most four
    Monte-Carlo standard errors plus, for P_f and V_f, the quadrature's own
    error estimate, whose rounding floor covers a weight that rounds to a
    constant on the whole set far out, and for the margin and the gap the
    same 1e-15 relative rounding floor.
    """
    patches, g = set_patches(E), deficit_weight(d)
    margin = patches.perimeter_margin(g) if margin is None else margin
    gap = patches.volume_gap(g) if gap is None else gap
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
        "margin_consistent": abs(margin_mc - margin)
        <= 4.0 * Pg.error_estimate + 1e-15 * abs(margin),
        "gap_consistent": abs(gap_mc - gap)
        <= 4.0 * Vg.error_estimate + 1e-15 * abs(gap),
        "P_mc": P_mc.value, "P_mc_stderr": P_mc.error_estimate,
        "V_mc": V_mc.value, "V_mc_stderr": V_mc.error_estimate,
        "margin_mc": margin_mc, "margin_stderr": Pg.error_estimate,
        "gap_mc": gap_mc, "gap_stderr": Vg.error_estimate,
        "seed": seed, "samples": samples,
    }


def build_competitor(d: Density, eps: float = EPS, R_min: float = 50.0,
                     R_max: float = 400.0, circle_grid: int = CIRCLE_GRID,
                     nodes: int = SPHERE_NODES, mc_samples: int = 100_000,
                     mc_seed: int = 2024) -> CompetitorCertificate:
    """Far ball -> (circle, advance map, direction) -> certified set.

    The density is first rescaled so its limit is 1 and the target volume is
    omega_N.  A radial deficit's advance map is constant in the angle, so
    it is matched at one angle.  The certified set is measured once, by
    ``select_sweep_direction``: P_f and V_f come from the same Gauss nodes
    as its perimeter margin and volume gap.  The final inequalities are
    re-measured with an independent Monte-Carlo pass.
    """
    n = d.dim
    omega = unit_ball_volume(n)
    dd, lam = rescale(d, omega) if d.limit_a != 1.0 else (d, 1.0)
    g = deficit_profile(dd)
    far = find_far_radius(g, n, eps, R_min, R_max)
    plane = select_working_circle(dd, far.R, eps, quad_nodes=nodes)
    advance_map = sweep_advance_map(dd, far.R, plane,
                                    1 if dd.radial else circle_grid, eps, nodes)
    _, ext, (P_f, V_f) = select_sweep_direction(dd, far.R, plane, advance_map,
                                                eps, nodes)
    mc_check = monte_carlo_check(ext.E, dd, P_f, V_f, mc_samples, mc_seed,
                                 ext.perimeter_margin, ext.volume_gap)
    deficit_scale = float(np.max(np.asarray(
        g.profile(np.linspace(far.R - 1.0, far.R + 1.0, 65)))))
    bounds = {"match_bound_ok": ext.match.bound_ok,
              "annulus_deficit_sup": deficit_scale, "rescale_lambda": lam,
              **ext.checks}
    return CompetitorCertificate(
        E=ext.E, P_f=P_f, V_f=V_f, rho=ext.rho,
        perimeter_margin=ext.perimeter_margin, volume_gap=ext.volume_gap,
        strict=ext.perimeter_margin > 0.0,
        # degenerate = the zero-deficit branch: the plain ball is already
        # optimal and there is no margin to gain (a tiny but positive
        # deficit still certifies a strict improvement)
        degenerate=(far.degenerate and ext.match.delta_bar == 0.0
                    and ext.perimeter_margin <= 0.0),
        match=ext.match, farball=far, advance=advance_map,
        bounds=bounds, mc_check=mc_check)
