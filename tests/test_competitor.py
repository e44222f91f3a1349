import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from isoplab import (Density, build_competitor, cylinder_extension,
                     deficit_profile, density_from_config, find_far_radius,
                     rotation_extension, select_direction,
                     select_sweep_direction, select_working_circle,
                     set_measures, sweep_advance_map, unit_ball_volume,
                     volume_match)
import isoplab.competitor
import isoplab.defaults
import isoplab.density
import isoplab.farball
import isoplab.measures
import isoplab.quadrature
import isoplab.spectral
from isoplab import (ExtensionResult, PlainBall, RotationSwept, VolumeMatch,
                     weighted_ball_measures)
from isoplab.competitor import (_matches, _roots, monte_carlo_check,
                                ray_monotone_on_samples)
from isoplab.defaults import (CIRCLE_GRID, PSI_START, RADIAL_NODES,
                              SPHERE_NODES, VOLUME_RTOL)
from isoplab.density import deficit_weight
from isoplab.measures import (CylinderFamily, GaussPass, ball_cap_patch,
                              integrate_patches, set_patches, sized_pass,
                              sphere_cap_patch, swept_band_patch,
                              swept_patches, swept_wedge_patch)
from isoplab.quadrature import frame_from_axis, sphere_grid, unit_sphere_area
from isoplab.spectral import ULP, SweepSpectrum, subsphere_means


def smooth_bump(u):
    """C-infinity bump supported on |u| < 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def lower_half_bump_density(R, amp=0.2):
    """Deficit supported at angles in [-0.35, -0.05], radii near R."""
    def deficit(x):
        x = np.asarray(x, dtype=float)
        phi = np.arctan2(x[..., 1], x[..., 0])
        r = np.linalg.norm(x, axis=-1)
        return amp * smooth_bump((phi + 0.2) / 0.15) * np.exp(-(r - R) ** 2 / 8.0)

    def weight(x):
        return 1.0 - deficit(x)

    return Density(dim=2, weight=weight, limit_a=1.0, radial=False,
                   label="lower-bump", deficit=deficit)


def right_half_bump_density(R, amp=0.2):
    """Deficit supported strictly inside the far half of the ball at R*e1."""
    c = np.array([R + 0.45, 0.0])

    def deficit(x):
        x = np.asarray(x, dtype=float)
        return amp * smooth_bump(np.linalg.norm(x - c, axis=-1) / 0.3)

    def weight(x):
        return 1.0 - deficit(x)

    return Density(dim=2, weight=weight, limit_a=1.0, radial=False,
                   label="right-bump", deficit=deficit)


def _one_angle_gap(spectrum, ball_gs, i):
    """delta -> V_f(E) - omega_N of the set based at the spectrum's grid
    angle theta[i], whose ball is ``ball_gs[i]``: the one-angle view of
    ``SweepSpectrum.gaps``."""
    gaps = spectrum.gaps(ball_gs)
    return lambda delta: float(gaps(np.array([i]), np.array([delta]))[0])


def _alone(gap):
    """The ``gaps`` of one ``_roots`` row whose gap is ``gap``."""
    return lambda _, deltas: [gap(float(deltas[0]))]


def _root_of_gap(gap, g0, delta_max, tol, hard_cap):
    """(delta, gap(delta), iters) of one ``_roots`` row on ``gap``."""
    out = _roots(np.array([g0]), np.array([delta_max]), np.array([tol]),
                 hard_cap, _alone(gap), lambda _: "")
    return tuple(a.tolist()[0] for a in out)


def _sweep_match(gap, ball, n, R, eps):
    """One angle's volume match as the advance map runs it: a ``_matches``
    row with the sweep's bracket, which starts at, and whose bound divides
    by, omega_{N-1} (R - 1), and stops at 0.45 pi."""
    length = unit_ball_volume(n - 1) * max(R - 1.0, 1e-9)
    return _matches([ball], n, eps, length, 0.45 * math.pi, length,
                    _alone(gap), lambda _: "")[2][0]


def test_volume_match_zero_deficit(const2):
    # a vanished deficit matches at delta = 0 without evaluating a gap, on
    # the sweep's bracket and on the cylinder's
    spectrum = SweepSpectrum(deficit_weight(const2), 2, 10.0, np.eye(2))
    ball = float(spectrum.balls([0.0])[0][0])
    assert ball == 0.0

    def gap(delta):
        raise AssertionError("no gap is evaluated")
    for match in (_sweep_match(gap, ball, 2, 10.0, 0.05),
                  volume_match(gap, ball, 2, 10.0, 0.05)):
        assert match == VolumeMatch(0.0, math.pi, 0, True, 0.0)


GAP_SHAPES = [
    # linear at the deficit scale of offset 50: one secant step is exact
    (lambda d: 3.0 * d - 1e-21, 1e-21 / 3.0, 1),
    # convex: Illinois keeps regula falsi from stalling at one end
    (lambda d: math.expm1(50.0 * d) - 1.0, math.log(2.0) / 50.0, 25),
    # flat, then steep: the bisection safeguard finds the kink
    (lambda d: 1e3 * max(d - 0.5, 0.0) - 1e-3, 0.5 + 1e-6, 10),
]


@pytest.mark.parametrize("gap, root, max_iters", GAP_SHAPES)
def test_root_of_gap_safeguarded(gap, root, max_iters):
    tol = 1e-6 * abs(gap(0.0))
    delta, g, iters = _root_of_gap(gap, gap(0.0), 1.0, tol, 10.0)
    assert 0.0 < delta < 1.0
    assert abs(g) <= tol
    assert delta == pytest.approx(root, rel=1e-6)
    assert iters <= max_iters


def _illinois(gap, g0, delta_max, tol, hard_cap):
    """The search of one ``_roots`` row as a scalar loop: the reference that
    every row must equal float for float."""
    if g0 >= -tol:
        return 0.0, g0, 0
    hi = min(delta_max, hard_cap)
    ghi, iters = gap(hi), 0
    while ghi < 0.0 and iters < 8 and hi < hard_cap:
        hi = min(2.0 * hi, hard_cap)
        ghi, iters = gap(hi), iters + 1
    assert ghi >= 0.0
    if ghi <= tol:
        return hi, ghi, iters
    lo, flo, fhi = 0.0, g0, ghi
    best = min((0.0, g0), (hi, ghi), key=lambda p: abs(p[1]))
    kept, widths, bisect = 0, (hi, hi, hi), False
    for _ in range(200):
        x = 0.5 * (lo + hi) if bisect else (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        gx = gap(x)
        iters += 1
        if abs(gx) <= tol:
            return x, gx, iters
        best = min(best, (x, gx), key=lambda p: abs(p[1]))
        if gx < 0.0:
            lo, flo, fhi = x, gx, 0.5 * fhi if kept == -1 else fhi
            kept = -1
        else:
            hi, fhi, flo = x, gx, 0.5 * flo if kept == 1 else flo
            kept = 1
        if hi - lo <= 4.0 * ULP * hi:
            break
        bisect = hi - lo > 0.5 * widths[2]
        widths = (hi - lo, widths[0], widths[1])
    return best[0], best[1], iters


def test_roots_equal_the_scalar_search():
    # every row of ``_roots``, alone and with the others, equals the scalar
    # loop, also where the bracket collapses short of the tolerance and the
    # row returns its iterate of least |gap|: a gap with noise of 1e-9
    # about its root, and one that jumps from -1 to 1; and a root past
    # delta_max = 1
    shapes = [(gap, 1e-6 * abs(gap(0.0))) for gap, _, _ in GAP_SHAPES] + [
        (lambda d: d - 0.3 + 1e-9 * math.sin(1e7 * d), 0.0),
        (lambda d: -1.0 if d < 0.3 else 1.0, 1e-15),
        (lambda d: 0.2 * d - 1.0, 1e-9)]
    scalar = [_illinois(gap, gap(0.0), 1.0, tol, 10.0) for gap, tol in shapes]
    assert [_root_of_gap(gap, gap(0.0), 1.0, tol, 10.0)
            for gap, tol in shapes] == scalar

    def gaps(idx, deltas):
        return [shapes[k][0](x) for k, x in zip(idx.tolist(), deltas.tolist())]
    together = _roots(np.array([gap(0.0) for gap, _ in shapes]),
                      np.ones(len(shapes)), np.array([tol for _, tol in shapes]),
                      10.0, gaps, lambda _: "")
    assert list(zip(*(a.tolist() for a in together))) == scalar
    # the two collapsed rows: beyond tolerance, at their best iterates
    assert [abs(g) > tol for (_, g, _), (_, tol) in zip(scalar, shapes)] == [
        False, False, False, True, True, False]
    assert scalar[5] == (5.0, 0.0, 4)   # three doublings, one secant step


def test_lockstep_roots_equal_one_search_at_a_time():
    # the three shapes, a search already matched at delta = 0 (gap(0)
    # within tolerance, so it calls no gap) and a linear gap whose root 3
    # lies past delta_max = 1 (two bracket doublings, then one exact secant
    # step) run together as the rows of one ``_roots``: each returns what it
    # returns alone.  The bracket rounds come first, then the Illinois
    # rounds, and every round's call sees the rows still running, in
    # ascending order
    shapes = [gap for gap, _, _ in GAP_SHAPES] + [None, lambda d: d - 3.0]
    g0s = [gap(0.0) for gap in shapes[:3]] + [-1e-9, -3.0]
    tols = [1e-6 * abs(g0) for g0 in g0s]
    tols[3] = 1e-8
    alone = [_root_of_gap(gap, g0, 1.0, tol, 10.0)
             for gap, g0, tol in zip(shapes, g0s, tols)]
    calls = []

    def gaps(idx, deltas):
        calls.append(idx.tolist())
        return [shapes[k](x) for k, x in zip(idx.tolist(), deltas.tolist())]
    together = _roots(np.array(g0s), np.ones(5), np.array(tols), 10.0, gaps,
                      lambda _: "")
    assert list(zip(*(a.tolist() for a in together))) == alone
    assert alone[3] == (0.0, -1e-9, 0)
    assert alone[4] == (3.0, 0.0, 3)
    # row k evaluates its gap at the bracket end, once per doubling, then
    # once per Illinois step: iters + 1 times in all
    doublings = {0: 0, 1: 0, 2: 0, 4: 2}
    steps = {k: alone[k][2] - e for k, e in doublings.items()}
    assert calls == (
        [[k for k, e in doublings.items() if r <= e] for r in range(3)]
        + [[k for k, s in steps.items() if r < s] for r in range(max(steps.values()))])


def test_volume_match_takes_gap_at_zero_from_the_ball(monkeypatch, exp2, far_at):
    # every caller's gap(0) is exactly -|B|_g: no gap is evaluated at 0, and
    # each match evaluates its gap once per iteration plus the bracket end.
    # volume_match runs one ``_roots`` row and the advance map one per
    # angle, the radial one-angle map included: every trial delta handed to
    # ``gaps`` and the result of every row that runs a search are recorded
    deltas, roots = [], []
    original = isoplab.competitor._roots

    def recorded(g0, delta_max, tol, hard_cap, gaps, names):
        def traced(idx, trials):
            deltas.extend(trials.tolist())
            return gaps(idx, trials)
        out = original(g0, delta_max, tol, hard_cap, traced, names)
        roots.extend(row for row, ran in zip(zip(*(a.tolist() for a in out)),
                                             (g0 < -tol).tolist()) if ran)
        return out
    monkeypatch.setattr(isoplab.competitor, "_roots", recorded)
    cert = select_direction(exp2, far_at(exp2, 10.0))
    cylinder_extension(cert, exp2, eps=0.05)
    sweep_advance_map(exp2, 10.0, np.eye(2), grid=1, eps=0.05)
    d = density_from_config({"family": "angular_mod", "dim": 2, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 0.5}})
    sweep_advance_map(d, 12.0, np.eye(2), grid=16, eps=0.05, nodes=32)
    assert len(roots) == 18
    assert 0.0 not in deltas
    assert len(deltas) == sum(iters + 1 for _, _, iters in roots)


def test_volume_match_rotation_exact_identity():
    # deficit entirely behind the sweep: the matched angle is exactly
    # (deficit volume) / (2 R) in the plane
    R = 10.0
    d = lower_half_bump_density(R)
    g = deficit_weight(d)

    def gap(delta):
        return swept_patches(2, R, delta, np.eye(2), 0.0, 96, 96).volume_gap(g)
    # the matched gap uses the half-ball quadratures, so the oracle G does too
    G = -gap(0.0)
    assert G > 1e-4
    match = _sweep_match(gap, G, 2, R, 0.05)
    assert match.delta_bar == pytest.approx(G / (2.0 * R), rel=1e-7)
    assert abs(match.gap) <= 1e-12


def test_volume_match_cylinder_scalar_root_oracle():
    # deficit in the far half only: the matched height solves
    # 2 delta - (pi/2)(1 - ((R - delta)/R)^2) = G; bisection oracle
    R = 100.0
    d = right_half_bump_density(R)
    g = deficit_weight(d)

    def gap(delta):
        return CylinderFamily(2, R, np.eye(2), 96, 96)(delta).volume_gap(g)
    # |B|_g: at height zero the gap is minus the two half-balls' g-volumes
    G = -gap(0.0)
    assert G > 1e-4

    def eqn(delta):
        k = (R - delta) / R
        return 2.0 * delta - (math.pi / 2.0) * (1.0 - k * k) - G

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eqn(mid) > 0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    match = volume_match(gap, G, 2, R, 0.05)
    assert match.delta_bar == pytest.approx(oracle, rel=1e-6)


def test_cylinder_root_equation_reference_value():
    # frozen root of 2 d - (pi/2)(1 - ((R-d)/R)^2) = G at R = 100, G = 0.02
    R, G = 100.0, 0.02

    def eqn(delta):
        k = (R - delta) / R
        return 2.0 * delta - (math.pi / 2.0) * (1.0 - k * k) - G

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eqn(mid) > 0:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(0.010159578174, abs=1e-10)


def test_rotation_extension_radial(exp2):
    g = deficit_profile(exp2)
    far = find_far_radius(g, 2, eps=0.05, R_min=8.0, R_max=30.0)
    cert = select_direction(exp2, far)
    ext = rotation_extension(cert, exp2, eps=0.05)
    assert abs(ext.volume_gap) <= 1e-8 * unit_ball_volume(2)
    assert ext.perimeter_margin > 0.0
    assert ext.rho < 1.0
    assert ext.match.bound_ok
    assert ext.match.iterations == 0          # one division, no root search
    assert ext.checks["perimeter_chain_ok"]
    # cross-check the deficit-space values against direct f-measures
    P, V = set_measures(ext.E, exp2, nodes=96)
    assert V.value - math.pi == pytest.approx(ext.volume_gap, abs=1e-12)
    assert 2 * math.pi - P.value == pytest.approx(ext.perimeter_margin, abs=1e-12)



# the one-angle certificates on the ceiling rule, (SPHERE_NODES,
# RADIAL_NODES) = (64, 64), before the certified pass was sized by its
# deficit budget: (margin, gap)
_CEILING_RADIAL_PINS = {10.0: (0.00023788650735124075, -8.131516293641283e-20),
                        50.0: (1.0541983823862628e-21, 1.504632769052528e-36)}
# the closed-form certificates: (margin, gap, delta)
_CLOSED_FORM_PINS = {10.0: (0.0002378865073512401, 0.0, 6.551046463334305e-06),
                     50.0: (1.0541983823862636e-21, 0.0, 5.654295029846624e-24)}


@pytest.mark.parametrize("R_min, margin, gap, delta", [
    (10.0, 0.00023788650735124053, -2.168404344971009e-19, 6.551046463334303e-06),
    (50.0, 1.054198382386261e-21, 9.4039548065783e-37, 5.654295029846637e-24)])
def test_build_competitor_radial_takes_the_one_angle_sweep(exp3, R_min, margin,
                                                           gap, delta):
    # a radial weight's sweep is certified in closed form at the one angle
    # 0, with no root search.  Its margin, gap and delta lie within their
    # own estimates of the floats of the one-angle advance map and its
    # Gauss pass, on the sized rule (32, 32) (the parameters) and on the
    # ceiling rule (64, 64)
    cert = build_competitor(exp3, eps=0.05, R_min=R_min, R_max=200.0,
                            mc_samples=20_000)
    bounds = cert.bounds
    assert (cert.perimeter_margin, cert.volume_gap,
            cert.match.delta_bar) == _CLOSED_FORM_PINS[R_min]
    assert cert.match.iterations == 0
    assert cert.advance.theta == (0.0,)
    assert cert.advance.advance == (cert.match.delta_bar,)
    assert cert.advance.advance_error == (bounds["delta_estimate"],)
    assert bounds["perimeter_chain_ok"] is True
    assert bounds["layer_evaluations"] == [36, 36, 36, 36]
    assert "pass_rule" not in bounds and "rotation_identity_ok" not in bounds
    old_margin, old_gap = _CEILING_RADIAL_PINS[R_min]
    for old in (margin, old_margin):
        assert abs(cert.perimeter_margin - old) <= bounds["margin_estimate"]
    for old in (gap, old_gap):
        assert abs(cert.volume_gap - old) <= bounds["gap_estimate"]
    assert abs(cert.match.delta_bar - delta) <= bounds["delta_estimate"]


def _angular(dim, k=1):
    return density_from_config({"family": "angular_mod", "dim": dim, "a": 1.0,
                                "params": {"eta": 0.5, "k": k, "c": 1.0}})


def _pass_estimates(d, R, phi, delta, nodes=64):
    """The estimates of the Gauss pass on the N=2 set based at phi with sweep
    delta, over its surface and over its volume pieces: the deficit's
    node-halving differences plus rounding floors; and the pass's volume
    gap."""
    g = deficit_weight(d)
    quad = isoplab.measures.GaussPass(
        partial(swept_patches, 2, R, delta, np.eye(2), phi), g, nodes,
        RADIAL_NODES)
    errors = []
    for pieces in (quad.patches.surface, quad.patches.volume):
        error = 0.0
        for make in pieces.values():
            full, half = quad.pieces[make]
            error += (abs(full.value - half.value)
                      + ULP * full.points * full.abs_sum)
        errors.append(error)
    return (*errors, quad.patches.volume_gap(g, quad.integral))


# the 720-angle certificates when the psi rule had as many samples as the
# angle grid (720), before it started at PSI_START samples
_GRID_SIZED_PINS = {10.0: (0.00029034619491806295, -1.1028870416755765e-14,
                           1.1941304828526295e-05),
                    50.0: (1.2662424834972037e-21, -9.4039548065783e-37,
                           1.0248622638433101e-23)}
# the same certificates on the PSI_START psi rule and the ceiling Gauss rule
# (64, 64), before the certified pass was sized by its deficit budget:
# (margin, gap)
_CEILING_ANGULAR_PINS = {10.0: (0.00029034619491806306, -1.1028897521810077e-14),
                         50.0: (1.2662424834972024e-21, 3.76158192263132e-37)}


@pytest.mark.parametrize("dim, R_min, options, margin, gap, delta", [
    (2, 10.0, {}, 0.00029034619491806306, -1.1028870416755765e-14,
     1.1941304828526293e-05),
    (2, 50.0, {}, 1.2662424834972047e-21, 4.70197740328915e-37,
     1.0248622638433114e-23),
    (3, 10.0, {"nodes": 16, "circle_grid": 16}, 0.00024526105405075436,
     -2.8364084084936403e-16, 6.754835131168708e-06)])
def test_build_competitor_angular_certificates_pinned(dim, R_min, options,
                                                      margin, gap, delta):
    # the angular certificates on the full advance map (720 angles) and on
    # the N=3 descent at 16 nodes and 16 angles are pinned to the float.
    # On the full map the pass settles on the 16-node rule, and the margin
    # and the gap lie within its own surface and volume estimates of their
    # floats on the ceiling rule (64, 64); those in turn lie within the
    # 64-node pass's estimates of their values on the 720-sample psi rule
    # (the gap also within the match's tolerance), and the advance within
    # the advance map's estimate.  At nodes = 16 the pass runs its ceiling.
    cert = build_competitor(_angular(dim), eps=0.05, R_min=R_min, R_max=200.0,
                            mc_samples=20_000, **options)
    assert isinstance(cert.E, RotationSwept)
    assert cert.perimeter_margin == margin
    assert cert.volume_gap == gap
    assert cert.match.delta_bar == cert.E.delta == delta
    assert cert.match.iterations == 1
    assert len(cert.advance.theta) == options.get("circle_grid", 720)
    assert cert.strict and not cert.degenerate
    assert all(value for value in cert.bounds.values() if isinstance(value, bool))
    assert cert.bounds["pass_rule"] == ([16, 16] if dim == 2 else [16, RADIAL_NODES])
    if dim == 2:
        ceiling_margin, ceiling_gap = _CEILING_ANGULAR_PINS[R_min]
        assert abs(margin - ceiling_margin) <= cert.bounds["pass_surface_estimate"]
        assert abs(gap - ceiling_gap) <= cert.bounds["pass_volume_estimate"]
        old_margin, old_gap, old_delta = _GRID_SIZED_PINS[R_min]
        phi = math.atan2(cert.E.direction[1], cert.E.direction[0])
        best = cert.advance.theta.index(phi % (2.0 * math.pi))
        surface, volume, _ = _pass_estimates(_angular(2), R_min, phi, delta)
        assert abs(ceiling_margin - old_margin) <= surface
        assert (abs(ceiling_gap - old_gap)
                <= VOLUME_RTOL * cert.advance.ball_deficit[best] + volume)
        assert abs(delta - old_delta) <= cert.advance.advance_error[best]


@pytest.mark.parametrize("grid", [16, CIRCLE_GRID])
def test_build_competitor_refuses_an_aliased_sweep(grid):
    # the psi rule starts at M = min(PSI_START, grid) samples (16, or 32 on
    # 720 angles); cos(k theta) with k = M (M + 1) aliases onto mode 0 on the
    # rule, on its every other sample and on the (M+1)-sample check alike
    # (the band those checks cannot see), so the advance map reads a matched
    # sweep at phi = 0 whose patch gap is a third of |B^phi|_g: the
    # selection refuses it and names both gaps
    M = min(PSI_START, grid)
    d = _angular(2, M * (M + 1))
    with pytest.raises(RuntimeError, match="not matched") as err:
        build_competitor(d, eps=0.05, R_min=10.0, R_max=200.0,
                         circle_grid=grid, mc_samples=20_000)
    sam = sweep_advance_map(d, 10.0, np.eye(2), grid=grid, eps=0.05)
    patch_gap = swept_patches(2, 10.0, sam.advance[0], np.eye(2), 0.0, 64,
                              RADIAL_NODES).volume_gap(deficit_weight(d))
    assert patch_gap > 0.05 * sam.ball_deficit[0]
    message = str(err.value)
    assert "phi = 0 " in message
    assert f"patch gap {patch_gap:.6e}" in message
    assert f"advance map's {sam.matches[0].gap:.6e}" in message
    assert f"tolerance {VOLUME_RTOL * sam.ball_deficit[0]:.3e}" in message


@pytest.mark.parametrize("k, psi_samples", [(16, 64), (32, 128)])
def test_build_competitor_resolves_a_mode_at_the_grid(k, psi_samples):
    # cos(k theta) on k angles: the k-sample psi rule and its every other
    # sample alias mode k onto mode 0 alike, but the (k+1)-sample check
    # reads it as mode -1, so the rule is refined until it resolves the
    # mode, and the build certifies; each advance's patch gap, at 8 angles,
    # matches its spectral match within the tolerance plus the pass estimate
    d = _angular(2, k)
    cert = build_competitor(d, eps=0.05, R_min=10.0, R_max=200.0,
                            circle_grid=k, mc_samples=20_000)
    assert cert.strict and not cert.degenerate
    assert all(value for value in cert.bounds.values() if isinstance(value, bool))
    assert SweepSpectrum(deficit_weight(d), 2, 10.0, np.eye(2),
                         k).psi_samples == psi_samples
    sam = cert.advance
    for i in range(0, k, k // 8):
        _, volume, patch_gap = _pass_estimates(d, 10.0, sam.theta[i],
                                               sam.advance[i])
        assert (abs(patch_gap - sam.matches[i].gap)
                <= VOLUME_RTOL * sam.ball_deficit[i] + volume)


def _swept_case(d, far, grid, nodes):
    """The advance map on ``d``'s working circle about the far-ball
    certificate ``far``, the selection on it, and the Gauss pass that
    measured the winner."""
    R = far.R
    plane = select_working_circle(d, far, quad_nodes=nodes)
    sam = sweep_advance_map(d, R, plane, grid, 0.05, nodes)
    phi, ext = select_sweep_direction(d, R, plane, sam, 0.05, nodes)
    frame = frame_from_axis(plane[:, 0], plane[:, 1])
    quad = isoplab.measures.GaussPass(
        partial(swept_patches, d.dim, R, ext.E.delta, frame, phi),
        deficit_weight(d), nodes, RADIAL_NODES)
    return sam, sam.theta.index(phi), ext, quad


_SWEPT_CASES = [("radial_exp", 2, 10.0, 1, 64), ("radial_exp", 3, 10.0, 1, 64),
                ("radial_exp", 3, 50.0, 1, 64), ("radial_power", 2, 10.0, 1, 64),
                ("angular_mod", 2, 10.0, 48, 32), ("angular_mod", 2, 50.0, 48, 32),
                ("angular_mod", 3, 10.0, 16, 16)]


@pytest.mark.parametrize("family, dim, R, grid, nodes", _SWEPT_CASES)
def test_sweep_selection_bound_is_a_lower_bound_of_the_margin(far_at, family, dim,
                                                              R, grid, nodes):
    # the selection's bound is the margin without the band's g-integral,
    # which is >= 0: at the chosen angle it is at most the Gauss pass's
    # margin plus the two estimates (the rim's, and the pass's node-halving
    # differences and rounding floors over the surface pieces), and it
    # certifies the angle
    d = (_angular(dim) if family == "angular_mod" else
         density_from_config({"family": family, "dim": dim, "a": 1.0}))
    sam, best, ext, quad = _swept_case(d, far_at(d, R), grid, nodes)
    error = 0.0
    for make in quad.patches.surface.values():
        full, half = quad.pieces[make]
        error += abs(full.value - half.value) + ULP * full.points * full.abs_sum
    bounds, rim_error = _margin_bounds(sam, dim), np.asarray(sam.rim_error)
    assert 0.0 <= bounds[best] + rim_error[best]
    assert bounds[best] <= ext.perimeter_margin + rim_error[best] + error
    assert np.all(bounds[:best] + rim_error[:best] < 0.0)


@pytest.mark.parametrize("family, dim, grid", [
    ("radial_exp", 2, 1), ("radial_exp", 3, 1), ("radial_exp", 4, 1),
    ("radial_exp", 5, 1), ("angular_mod", 2, 48)])
def test_sweep_selection_bound_is_at_least_the_averaged_proxy(family, dim, grid):
    # at the match the band's Euclidean excess (N-1) omega_{N-1} R delta is
    # N - 1 times the set's deficit volume, about |B|_g, so wherever
    # eps (N + 1) < 1 the bound is at least the averaged inequality's proxy
    # rim - (1 - eps)(N - eps)|B|_g, which the paper's averaging argument
    # makes nonnegative at some angle: a qualifying angle still exists
    eps, R = 0.05, 10.0
    assert eps * (dim + 1) < 1.0
    d = (_angular(dim) if family == "angular_mod" else
         density_from_config({"family": family, "dim": dim, "a": 1.0}))
    sam = sweep_advance_map(d, R, np.eye(dim)[:, :2], grid, eps, 16)
    balls = np.asarray(sam.ball_deficit)
    proxy = np.asarray(sam.rim_deficit) - (1.0 - eps) * (dim - eps) * balls
    bounds = _margin_bounds(sam, dim)
    assert np.all(bounds >= proxy)
    assert np.max(proxy) >= 0.0
    assert np.all(bounds >= balls)


def test_build_competitor_measures_the_set_in_one_gauss_pass(monkeypatch, exp3):
    # the radial closed form builds no Gauss patch.  On the Gauss-pass
    # route each piece of the swept set is built once on each rule the
    # sizing tries: 16 and its half rule 8, then 32, whose half rule is the
    # 16 already built.  Monte-Carlo draws are not Gauss builds; at 32 nodes
    # every piece is one Gauss block
    counts = dict.fromkeys(("sphere_cap_patch", "ball_cap_patch",
                            "swept_band_patch", "swept_wedge_patch"), 0)
    for name in counts:
        original = getattr(isoplab.measures, name)

        def recorded(*args, _name=name, _original=original, **kwargs):
            if not isinstance(kwargs.get("draw"), isoplab.measures.Sample):
                counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(isoplab.measures, name, recorded)
    cert = build_competitor(exp3, eps=0.05, R_min=10.0, R_max=200.0,
                            mc_samples=20_000)
    assert isinstance(cert.E, RotationSwept)
    assert counts == dict.fromkeys(counts, 0)   # the radial closed form
    sam = sweep_advance_map(exp3, cert.farball.R, np.eye(3)[:, :2], 1, 0.05)
    _, ext = select_sweep_direction(exp3, cert.farball.R, np.eye(3)[:, :2],
                                    sam, 0.05)
    assert ext.checks["pass_rule"] == [32, 32]
    assert counts == {"sphere_cap_patch": 6, "ball_cap_patch": 6,
                      "swept_band_patch": 3, "swept_wedge_patch": 3}


def test_build_competitor_measures_f_and_g_on_the_same_rule():
    # P_f and V_f are the closed forms of the margin and the gap, and count
    # the nodes those were integrated on: the swept set's patches at
    # (nodes, RADIAL_NODES), 64 radial nodes at nodes = 16
    d = density_from_config({"family": "angular_mod", "dim": 3, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 1.0}})
    cert = build_competitor(d, eps=0.05, R_min=10.0, R_max=200.0,
                            circle_grid=16, nodes=16, mc_samples=20_000)
    patches = set_patches(cert.E, 16, RADIAL_NODES)
    points = 0
    for make in [*patches.surface.values(), *patches.volume.values()]:
        points += make()[1].size
    assert cert.P_f.samples_or_nodes == cert.V_f.samples_or_nodes == points
    assert points == 41_600


def test_build_competitor_measures_agree_with_set_measures(exp3):
    # the closed forms N omega_N - margin and omega_N + gap agree with
    # set_measures' f-quadrature at nodes = 32 within the two error
    # estimates; the closed forms count the layer rule's evaluations
    cert = build_competitor(exp3, eps=0.05, R_min=10.0, R_max=200.0,
                            mc_samples=20_000)
    for closed, direct in zip((cert.P_f, cert.V_f),
                              set_measures(cert.E, exp3, nodes=32)):
        assert closed.samples_or_nodes == sum(cert.bounds["layer_evaluations"])
        assert (abs(closed.value - direct.value)
                <= closed.error_estimate + direct.error_estimate)


def test_build_competitor_reports_the_winning_angles_match():
    # the general route's match is the winning angle's own root, with the
    # patch gap in place of the root residual
    d = density_from_config({"family": "angular_mod", "dim": 2, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 1.0}})
    cert = build_competitor(d, eps=0.05, R_min=10.0, R_max=200.0,
                            circle_grid=48, nodes=32, mc_samples=20_000)
    phi = math.atan2(cert.E.direction[1], cert.E.direction[0]) % (2.0 * math.pi)
    best = int(np.argmin(np.abs(np.asarray(cert.advance.theta) - phi)))
    recorded = cert.advance.matches[best]
    assert cert.match.iterations >= 1
    assert cert.match == dataclasses.replace(
        recorded, achieved_volume=unit_ball_volume(2) + cert.volume_gap,
        gap=cert.volume_gap)
    assert cert.bounds["perimeter_chain_ok"] is True
    assert "rotation_identity_ok" not in cert.bounds


def test_rotation_extension_requires_radial(angular2):
    far = find_far_radius(deficit_profile(angular2), 2, eps=0.05,
                          R_min=8.0, R_max=30.0)
    cert = select_direction(angular2, far, node_count=90, quad_nodes=32)
    with pytest.raises(ValueError):
        rotation_extension(cert, angular2, eps=0.05)


def test_rotation_extension_euclidean_degenerates(const2):
    far = find_far_radius(deficit_profile(const2), 2, eps=0.05,
                          R_min=8.0, R_max=30.0)
    cert = select_direction(const2, far)
    ext = rotation_extension(cert, const2, eps=0.05)
    assert ext.match.delta_bar == 0.0
    assert ext.rho == pytest.approx(1.0, abs=1e-12)


def test_cylinder_extension_radial_increasing(exp2):
    # eps = 0.2 keeps the shrink loss within the slack at R >= 10
    g = deficit_profile(exp2)
    far = find_far_radius(g, 2, eps=0.2, R_min=10.0, R_max=30.0)
    cert = select_direction(exp2, far)
    ext = cylinder_extension(cert, exp2, eps=0.2)
    assert abs(ext.volume_gap) <= 1e-8 * unit_ball_volume(2)
    assert ext.match.bound_ok
    assert ext.checks["shifted_boundary_nonincreasing"]
    assert ext.checks["perimeter_chain_ok"]
    assert ext.rho < 1.0
    P, V = set_measures(ext.E, exp2, nodes=96)
    assert V.value - math.pi == pytest.approx(ext.volume_gap, abs=1e-12)
    assert 2 * math.pi - P.value == pytest.approx(ext.perimeter_margin, abs=1e-12)


def test_cylinder_extension_refuses_nonmonotone():
    def wavy(x):
        r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        return 1.0 - 0.3 * np.exp(-0.1 * r) * (1.1 + np.sin(3 * r)) / 2.1
    d = Density(dim=2, weight=wavy, limit_a=1.0, radial=True, label="wavy")
    g = deficit_profile(d)
    far = find_far_radius(g, 2, eps=0.2, R_min=10.0, R_max=40.0)
    cert = select_direction(d, far)
    with pytest.raises(RuntimeError, match="ray-monotone"):
        cylinder_extension(cert, d, eps=0.2)


def _wavy_far_density(dim):
    # g(r) = e^{-r}(1 + 0.9 sin 3r) in closed form: it rises along rays by up
    # to 6.8e-22 between neighbouring sample radii on [48, 52], where the
    # weight 1 - g rounds to within 1e-10 of 1
    def deficit(x):
        r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        return np.exp(-r) * (1.0 + 0.9 * np.sin(3.0 * r))
    return Density(dim=dim, weight=lambda x: 1.0 - deficit(x), limit_a=1.0,
                   radial=True, label="wavy-far", deficit=deficit)


@pytest.mark.parametrize("dim", [2, 3])
def test_ray_monotone_refuses_a_far_rise_in_deficit_space(dim):
    assert not ray_monotone_on_samples(_wavy_far_density(dim), 48.0, 52.0)
    exp = density_from_config({"family": "radial_exp", "dim": dim, "a": 1.0,
                               "params": {"c": 1.0}})
    assert ray_monotone_on_samples(exp, 48.0, 52.0)
    # a weight without a closed-form deficit: rounding of a - f is allowed
    plain = dataclasses.replace(exp, deficit=None)
    assert ray_monotone_on_samples(plain, 48.0, 52.0)


_CYLINDER_FRAMES = {2: [np.eye(2), frame_from_axis(np.array([0.6, -0.8]))],
                    3: [np.eye(3), frame_from_axis(np.array([0.48, 0.6, -0.64]))],
                    4: [np.eye(4), frame_from_axis(np.array([0.5, -0.5, 0.5, 0.5]))]}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("tilted", [False, True])
def test_cylinder_pieces_equal_the_patch_description(n, tilted):
    # every height of a family shares the far caps' builders with the pass
    # over its set of height zero, and places the near caps from one turned
    # rule; reading the pass for those pieces and integrating the others,
    # every gap and margin is still the float of the set's own patch list,
    # whatever the order of the calls
    d = density_from_config({"family": "radial_exp", "dim": n, "a": 1.0,
                             "params": {"c": 1.0}})
    g, R, nodes, radial_nodes = deficit_weight(d), 6.0, 16, 12
    frame = _CYLINDER_FRAMES[n][tilted]
    deltas = [0.0, 1e-22, 1e-4, 0.3]
    expected = {}
    for delta in deltas:
        patches = CylinderFamily(n, R, frame, nodes, radial_nodes)(delta)
        expected[delta] = (patches.volume_gap(g), patches.perimeter_margin(g))
    families = {}

    def height_zero(*rule):
        if rule not in families:
            families[rule] = CylinderFamily(n, R, frame, *rule)
        return families[rule](0.0)
    quad = GaussPass(height_zero, g, nodes, radial_nodes)
    family = families[nodes, radial_nodes]

    def integral(make):
        return (quad.integral(make) if make in quad.pieces
                else integrate_patches(g, [make]))
    for delta in deltas[::-1] + deltas[1::2] + deltas:
        patches = family(delta)
        read = {(kind, name) for kind in ("surface", "volume")
                for name, make in getattr(patches, kind).items()
                if make in quad.pieces}
        assert read == ({("surface", "far"), ("volume", "far")}
                        | ({("surface", "near"), ("volume", "near")}
                           if delta == 0.0 else set()))
        assert patches.perimeter_margin(g, integral) == expected[delta][1]
        assert patches.volume_gap(g, integral) == expected[delta][0]


def test_cylinder_match_builds_each_half_ball_rule_once(monkeypatch, exp3, far_at):
    # the far half-ball does not move with the height: it is built once per
    # cylinder extension and rule, not once per gap evaluation.  The sizing
    # builds it and the near half-ball of height zero on the rules it tries;
    # on the settled rule the match starts from those builds' integrals and
    # builds the near half-ball once at each height it tries
    cert = select_direction(exp3, far_at(exp3, 10.0))
    builds = []
    original = isoplab.measures.ball_cap_patch

    def recorded(*args, **kwargs):
        builds.append((args[1], *args[4:7]))    # radius, band, radial nodes
        return original(*args, **kwargs)
    monkeypatch.setattr(isoplab.measures, "ball_cap_patch", recorded)
    ext = cylinder_extension(cert, exp3, eps=0.05)
    assert ext.match.iterations >= 2
    nodes, radial_nodes = ext.checks["pass_rule"]
    rules = {build[3] for build in builds}
    far = [build for build in builds if build[1] == 0.0]
    near = [build for build in builds if build[1] == math.pi / 2]
    assert len(far) + len(near) == len(builds)
    assert far.count((1.0, 0.0, math.pi / 2, radial_nodes)) == 1
    assert len(far) == len(set(far)) == len(rules)
    # height zero on every rule, and each height the match tries (its first
    # bracket end and one per iteration) on the settled rule alone
    assert sorted(build[3] for build in near if build[0] == 1.0) == sorted(rules)
    tried = [build for build in near if build[0] < 1.0]
    assert {build[3] for build in tried} == {radial_nodes}
    assert len(tried) == len(set(tried)) == ext.match.iterations + 1


def test_cylinder_checks_integrate_each_near_hemisphere_once(monkeypatch, exp3,
                                                              far_at):
    # the margin at the match and the shifted-boundary check there share
    # that height's near hemisphere: it is built and integrated once, and
    # the gap, the margin and the check are the floats of the set's own
    # patch list on the settled rule
    radii = {"sphere_cap_patch": [], "ball_cap_patch": []}
    for name, built in radii.items():
        original = getattr(isoplab.measures, name)

        def recorded(*args, _built=built, _original=original, **kwargs):
            _built.append(args[1])
            return _original(*args, **kwargs)
        monkeypatch.setattr(isoplab.measures, name, recorded)
    n, R = 3, 10.0
    ext = cylinder_extension(select_direction(exp3, far_at(exp3, R)), exp3, eps=0.05)
    delta, rule = ext.E.delta, ext.checks["pass_rule"]
    k = (R - delta) / R
    assert delta > 0.0
    assert radii["sphere_cap_patch"].count(k) == 1
    assert radii["ball_cap_patch"].count(k) == 1
    g, frame = deficit_weight(exp3), frame_from_axis(np.eye(n)[0])
    patches = CylinderFamily(n, R, frame, *rule)(delta)
    assert ext.volume_gap == patches.volume_gap(g)
    assert ext.perimeter_margin == patches.perimeter_margin(g)
    near = [integrate_patches(g, [CylinderFamily(n, R, frame, *rule)(x)
                                  .surface["near"]]) for x in (0.0, delta)]
    s1 = -math.expm1((n - 1) * math.log1p(-delta / R))
    assert (ext.checks["shifted_boundary_decrease"]
            == -0.5 * n * unit_ball_volume(n) * s1 + near[0] - near[1])


def test_build_competitor_hands_the_weight_at_most_a_chunk(monkeypatch, exp3):
    # every weight and deficit call, the Gauss passes' blocks, the Monte
    # Carlo chunks, the mode sums and the scans, has at most
    # BALL_CHUNK_POINTS points; the spherical means (the far ball's and the
    # annulus probe's profile) and the descent's subsphere sums at most
    # BLOCK_POINTS
    sizes, inside = [], []
    inner = {"_spherical_mean": [], "_subsphere_sums": []}

    def counted(fn):
        def wrapped(x):
            sizes.append(math.prod(np.shape(x)[:-1]))
            if inside:
                inner[inside[-1]].append(sizes[-1])
            return fn(x)
        return wrapped

    def entered(module, name):
        fn = getattr(module, name)

        def wrapped(*args):
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(module, name, wrapped)
    entered(isoplab.density, "_spherical_mean")
    entered(isoplab.spectral, "_subsphere_sums")
    for d, options in ((exp3, {}), (_angular(3), dict(nodes=16, circle_grid=16))):
        d = dataclasses.replace(d, weight=counted(d.weight),
                                deficit=counted(d.deficit))
        cert = build_competitor(d, eps=0.05, R_min=10.0, R_max=200.0,
                                mc_samples=200_000, **options)
        if d.radial:
            cylinder_extension(cert.farball, d, eps=0.05)
    assert max(sizes) <= isoplab.measures.BALL_CHUNK_POINTS
    assert all(inner.values())
    assert max(map(max, inner.values())) <= isoplab.defaults.BLOCK_POINTS


def test_angular_build_keeps_a_bounded_working_set(traced_peak):
    # the annulus probe's 65 radii and the descent's 64 frames go to the
    # deficit in blocks: 16.4 MB traced when each went whole
    d = _angular(3)
    assert traced_peak(lambda: build_competitor(
        d, eps=0.05, R_min=10.0, R_max=200.0, nodes=16, circle_grid=16)) <= 10e6


def _counted(d):
    """``d`` whose deficit counts the points it is evaluated on."""
    points, deficit = [0], d.deficit

    def counted(x):
        points[0] += math.prod(np.shape(x)[:-1])
        return deficit(x)
    return dataclasses.replace(d, deficit=counted), points


def _stage_points(monkeypatch, points, name):
    """Count, in ``counts[name]``, the points evaluated inside the competitor
    module's function ``name``."""
    counts = {name: 0}
    original = getattr(isoplab.competitor, name)

    def counted(*args, **kwargs):
        start = points[0]
        try:
            return original(*args, **kwargs)
        finally:
            counts[name] += points[0] - start
    monkeypatch.setattr(isoplab.competitor, name, counted)
    return counts


def test_certified_sets_run_on_their_sized_rules(monkeypatch, exp3):
    # deficit points of the certified swept set and of the cylinder's
    # pieces, its ray-monotonicity samples left out, on radial_exp N=3 at
    # R_min 10.  The swept set took 680,192 on the 64-node Gauss rule and
    # 89,920 on its sized rule (32) with the rotation identity's caps; in
    # closed form it takes the two moment integrals' 24- and 12-node layer
    # rules, which share the profile.  The cylinder takes 1,853,440 on the
    # 64-node rule and 39,552 on its sized rule (16)
    d, points = _counted(exp3)
    sweep = _stage_points(monkeypatch, points, "rotation_extension")
    ray = _stage_points(monkeypatch, points, "ray_monotone_on_samples")
    cert = build_competitor(d, eps=0.05, R_min=10.0, R_max=200.0,
                            mc_samples=20_000)
    start = points[0]
    ext = cylinder_extension(cert.farball, d, eps=0.05)
    cylinder = points[0] - start - ray["ray_monotone_on_samples"]
    assert sweep["rotation_extension"] == 36
    assert cylinder <= 300_000
    assert cert.bounds["layer_evaluations"][2:] == [36, 36]
    assert ext.checks["pass_rule"] == [16, 16]


def test_certified_pass_at_a_16_node_ceiling_keeps_its_work(monkeypatch):
    # at nodes = 16 the ceiling is the first rule: one pass, on the rule
    # (16, RADIAL_NODES) and its half, as before the sizing
    d, points = _counted(_angular(3))
    sweep = _stage_points(monkeypatch, points, "select_sweep_direction")
    cert = build_competitor(d, eps=0.05, R_min=10.0, R_max=200.0,
                            circle_grid=16, nodes=16, mc_samples=20_000)
    assert sweep["select_sweep_direction"] == 47_936
    assert cert.bounds["pass_rule"] == [16, RADIAL_NODES]


def _oracle(family, n, R, height):
    """30-digit deficit measures of the certified sets for a radial g:
    P_g(B) and V_g(B), the sweep moments Band_g and W_g, and the cylinder's
    margin at ``height``.

    Caps are 1-D integrals in the polar angle about their axis.  V_g(B) and
    W_g are integrals over r = |x| of g times the measure of the sphere of
    radius r inside B, or the moment of x.c over that sphere inside the
    meridian section (its cap of half-angle gamma: r^{N-1} |S^{N-3}|
    sin^{N-2}(gamma) / (N-2), or r for N = 2).  Band_g is a 1-D integral in
    the polar angle b about the section's centre on its boundary sphere,
    or its two end points for N = 2.  (At N = 3 and 4 W_g agrees to 21
    digits or more with the 2-D integral over the section in polar
    coordinates about its centre, which takes about 30 times as long.)"""
    import mpmath as mp

    with mp.workdps(30):
        g = {"radial_exp": lambda r: mp.exp(-r),
             "radial_power": lambda r: (1 + r) ** -2}[family]
        R, height = mp.mpf(R), mp.mpf(height)

        def ball(k):
            return mp.pi ** (mp.mpf(k) / 2) / mp.gamma(mp.mpf(k) / 2 + 1)
        omega, omega1, sphere = ball(n), ball(n - 1), (n - 1) * ball(n - 1)

        def cap(radius, c, lo, hi):
            return radius ** (n - 1) * sphere * mp.quad(
                lambda a: g(mp.sqrt(c * c + 2 * c * radius * mp.cos(a)
                                    + radius * radius)) * mp.sin(a) ** (n - 2),
                [lo, hi])

        def cos_in(r):   # the polar angle of the sphere |x| = r inside B
            return (r * r + R * R - 1) / (2 * r * R)

        def sin_in(r):
            return mp.sqrt(1 - cos_in(r) ** 2)

        def inside(r):   # the measure of that sphere inside B
            gamma = mp.acos(cos_in(r))
            return r ** (n - 1) * sphere * [
                gamma, 1 - cos_in(r), (gamma - sin_in(r) * cos_in(r)) / 2][n - 2]
        ball_p = cap(1, R, 0, mp.pi)
        ball_v = mp.quad(lambda r: g(r) * inside(r), [R - 1, R + 1])
        if n == 2:
            band = g(R + 1) * (R + 1) + g(R - 1) * (R - 1)
            wedge = mp.quad(lambda r: g(r) * r, [R - 1, R + 1])
        else:
            band = (n - 2) * ball(n - 2) * mp.quad(
                lambda b: g(mp.sqrt(R * R + 2 * R * mp.cos(b) + 1))
                * (R + mp.cos(b)) * mp.sin(b) ** (n - 3), [0, mp.pi])
            wedge = mp.quad(lambda r: g(r) * r ** (n - 1) * ball(n - 2)
                            * sin_in(r) ** (n - 2), [R - 1, R + 1])
        # the cylinder of height h: far hemisphere, wall, near hemisphere
        # shrunk by k about (R - h) e1, exposed annulus k <= |x_perp| <= 1
        h, c = height, R - height
        k, s1 = c / R, -mp.expm1((n - 1) * mp.log1p(-height / R))
        wall = sphere * h * mp.quad(lambda t: g(mp.sqrt((R - h * t) ** 2 + 1)),
                                    [0, 1])
        annulus = sphere * (h / R) * mp.quad(
            lambda t: g(mp.sqrt(c * c + (1 - h / R * t) ** 2))
            * (1 - h / R * t) ** (n - 2), [0, 1])
        cylinder_margin = (cap(1, R, 0, mp.pi / 2) + wall
                           + cap(k, c, mp.pi / 2, mp.pi) + annulus
                           + n * omega * s1 / 2 - (n - 1) * omega1 * h
                           - omega1 * s1)
        return ball_p, ball_v, band, wedge, cylinder_margin


@pytest.mark.parametrize("family, n, R_min", [
    ("radial_exp", 3, 10.0), ("radial_exp", 3, 50.0), ("radial_power", 3, 10.0),
    ("radial_power", 3, 50.0), ("radial_exp", 2, 10.0), ("radial_power", 2, 10.0),
    ("radial_exp", 2, 50.0), ("radial_power", 2, 50.0), ("radial_exp", 4, 10.0),
    ("radial_exp", 4, 50.0), ("radial_power", 4, 10.0), ("radial_power", 4, 50.0)])
def test_sized_certificates_cover_the_oracle(family, n, R_min):
    # the closed-form delta, margin and gap of the swept set, and the
    # cylinder's base ball and margin on its settled rule, each lie within
    # its own reported estimate of a 30-digit value: delta of the exact
    # V_g(B) / (R omega_{N-1} - W_g), the margin and the gap of those of
    # the set at its float delta
    import mpmath as mp

    d = density_from_config({"family": family, "dim": n, "a": 1.0})
    cert = build_competitor(d, eps=0.05, R_min=R_min, R_max=200.0,
                            mc_samples=20_000)
    R, g = cert.farball.R, deficit_weight(d)
    ext = cylinder_extension(cert.farball, d, eps=0.05)
    rule = ext.checks["pass_rule"]
    # the cylinder's rule is sized on its base ball at the far ball's |B|_g
    quad = sized_pass(lambda *rule: CylinderFamily(n, R, np.eye(n), *rule)(0.0), g,
                      SPHERE_NODES, RADIAL_NODES, cert.farball.V_g.value)
    assert list(quad.rule) == rule
    ball_p, ball, band, wedge, cylinder_margin = _oracle(family, n, R, ext.E.delta)
    bounds, checks = cert.bounds, ext.checks
    with mp.workdps(30):
        length = R * mp.pi ** (mp.mpf(n - 1) / 2) / mp.gamma(mp.mpf(n + 1) / 2)
        delta = mp.mpf(cert.match.delta_bar)
        assert abs(delta - ball / (length - wedge)) <= bounds["delta_estimate"]
        assert (abs(mp.mpf(cert.perimeter_margin)
                    - (ball_p - delta * ((n - 1) * length - band)))
                <= bounds["margin_estimate"])
        assert (abs(mp.mpf(cert.volume_gap) - (delta * (length - wedge) - ball))
                <= bounds["gap_estimate"])
        assert (abs(mp.mpf(-quad.patches.volume_gap(g, quad.integral)) - ball)
                <= checks["pass_volume_estimate"])
        assert (abs(mp.mpf(ext.perimeter_margin) - cylinder_margin)
                <= checks["pass_surface_estimate"])


def test_cylinder_pieces_free_their_rules_without_the_cycle_collector(
        monkeypatch, exp3, far_at):
    # the families and the factor rules their pieces were integrated on go
    # when the extension returns, by reference counting alone, so a run of
    # extensions holds no rule past its own
    families, rules = [], []
    init, call = CylinderFamily.__init__, isoplab.measures.GaussBlocks.__call__

    def recorded_init(self, *args):
        init(self, *args)
        families.append(weakref.ref(self))

    def recorded_call(self, *args):
        out = call(self, *args)
        rules.extend(weakref.ref(x) for x, _ in self.rules)
        return out
    monkeypatch.setattr(CylinderFamily, "__init__", recorded_init)
    monkeypatch.setattr(isoplab.measures.GaussBlocks, "__call__", recorded_call)
    cert = select_direction(exp3, far_at(exp3, 10.0))
    gc.disable()
    try:
        ext = cylinder_extension(cert, exp3, eps=0.05)
        assert ext.E.delta > 0.0
        assert families and rules
        assert [family() for family in families] == [None] * len(families)
        assert [rule() for rule in rules] == [None] * len(rules)
    finally:
        gc.enable()


def test_advance_map_radial_constant(exp2):
    # a radial weight advances every direction by the same angle
    plane = np.eye(2)
    sam = sweep_advance_map(exp2, 8.0, plane, grid=24, eps=0.05, nodes=48)
    adv = np.asarray(sam.advance)
    assert adv.max() - adv.min() <= 1e-10
    assert adv.max() > 0.0
    q = sam.quotients()
    assert np.allclose(q, 1.0, atol=1e-9)


def test_advance_map_degenerate_identity(const2):
    sam = sweep_advance_map(const2, 8.0, np.eye(2), grid=16, eps=0.05)
    assert max(sam.advance) == 0.0
    assert np.allclose(sam.quotients(), 1.0)


def test_advance_map_angular_band(angular2):
    # the map is strictly increasing with quotients inside the two-sided band
    eps, R = 0.05, 12.0
    d = density_from_config({"family": "angular_mod", "dim": 2, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 0.5}})
    sam = sweep_advance_map(d, R, np.eye(2), grid=48, eps=eps, nodes=48)
    q = sam.quotients()
    assert np.all(np.diff(np.asarray(sam.mapped)) > 0)
    assert q.min() >= 1.0 - eps - 1e-3
    assert q.max() <= 1.0 / (1.0 - eps) + 1e-3
    assert max(sam.advance) > min(sam.advance) > 0.0


def _margin_bounds(sam, n):
    """The selection's lower bound of the margin at each angle of the
    advance map ``sam``: the rim deficit minus the band's Euclidean excess
    (N-1) omega_{N-1} R delta."""
    excess = np.asarray(sam.advance) * sam.offset * (n - 1) * unit_ball_volume(n - 1)
    return np.asarray(sam.rim_deficit) - excess


def test_select_sweep_direction_angular():
    d = density_from_config({"family": "angular_mod", "dim": 2, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 0.5}})
    R, eps = 12.0, 0.05
    sam = sweep_advance_map(d, R, np.eye(2), grid=48, eps=eps, nodes=48)
    phi, ext = select_sweep_direction(d, R, np.eye(2), sam, eps=eps, nodes=48)
    best = sam.theta.index(phi)
    assert _margin_bounds(sam, 2)[best] + sam.rim_error[best] >= 0.0
    assert "score" not in ext.checks
    assert ext.match.bound_ok
    assert ext.rho < 1.0
    assert abs(ext.volume_gap) <= 1e-7 * unit_ball_volume(2)
    # independent f-space cross-check of the deficit-space ledger
    P, V = set_measures(ext.E, d, nodes=96)
    assert V.value - math.pi == pytest.approx(ext.volume_gap, abs=1e-11)
    assert 2 * math.pi - P.value == pytest.approx(ext.perimeter_margin, abs=1e-11)


def test_select_sweep_direction_refuses_without_a_qualifying_angle():
    # with every rim deficit lowered below the band's excess, no angle's
    # bound reaches -rim_error: the selection is refused and names the best
    # bound, with no fallback to the best negative one
    d = _angular(2)
    sam = sweep_advance_map(d, 12.0, np.eye(2), grid=16, eps=0.05, nodes=32)
    rims = np.asarray(sam.rim_deficit) - 2.0 * np.asarray(sam.rim_deficit).max()
    low = dataclasses.replace(sam, rim_deficit=tuple(rims))
    bounds = _margin_bounds(low, 2)
    best = int(np.argmax(bounds))
    with pytest.raises(RuntimeError, match="no base angle certified") as err:
        select_sweep_direction(d, 12.0, np.eye(2), low, eps=0.05, nodes=32)
    assert f"{bounds[best]:.6e} at theta = {sam.theta[best]:.6g}" in str(err.value)


# the radial inputs of the benchmark: (family, N, a, R_min)
_RADIAL_CONFIGS = [("radial_exp", 2, 1.0, 10.0), ("radial_exp", 3, 1.0, 10.0),
                   ("radial_power", 2, 1.0, 10.0), ("radial_power", 3, 1.0, 10.0),
                   ("radial_exp", 3, 1.0, 50.0), ("radial_exp", 2, 2.0, 10.0)]


@pytest.mark.parametrize("family, n, a, R_min", _RADIAL_CONFIGS)
def test_radial_closed_form_agrees_with_the_gauss_pass_route(family, n, a, R_min):
    # the closed form against the route that takes any weight: the
    # one-angle advance map's root search on the sweep spectrum agrees with
    # delta within the two estimates, and at the closed form's delta the
    # Gauss pass over the swept set's patches gives the same set, and a
    # margin and a gap within the pass's estimates plus the closed form's
    d = density_from_config({"family": family, "dim": n, "a": a})
    cert = build_competitor(d, eps=0.05, R_min=R_min, R_max=200.0,
                            mc_samples=20_000)
    dd = d if a == 1.0 else isoplab.rescale(d, unit_ball_volume(n))[0]
    R, plane, bounds = cert.farball.R, np.eye(n)[:, :2], cert.bounds
    sam = sweep_advance_map(dd, R, plane, 1, 0.05)
    assert (abs(sam.advance[0] - cert.match.delta_bar)
            <= sam.advance_error[0] + bounds["delta_estimate"])
    at_delta = dataclasses.replace(sam, advance=(cert.match.delta_bar,),
                                   matches=(cert.match,))
    _, ext = select_sweep_direction(dd, R, plane, at_delta, 0.05)
    assert ext.E == cert.E
    assert (abs(ext.perimeter_margin - cert.perimeter_margin)
            <= ext.checks["pass_surface_estimate"] + bounds["margin_estimate"])
    assert (abs(ext.volume_gap - cert.volume_gap)
            <= ext.checks["pass_volume_estimate"] + bounds["gap_estimate"])


_BUILD_LARGE_N = """
import resource
limit = 2 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from isoplab import build_competitor, density_from_config
for n in (4, 5):
    cert = build_competitor(
        density_from_config({"family": "radial_exp", "dim": n, "a": 1.0}),
        eps=0.05, R_min=10.0, R_max=200.0, mc_samples=20_000)
    flags = [v for v in cert.mc_check.values() if isinstance(v, bool)]
    print(n, cert.strict, len(flags), all(flags))
"""


def test_radial_builds_at_large_n_fit_a_2gb_address_space():
    # radial_exp N=4 and N=5 in a child process limited to 2 GB of address
    # space: the N=5 build took 3.49 GB when its sweep ran a one-angle
    # spectrum and a Gauss pass; in closed form both certify strictly
    src = str(Path(isoplab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _BUILD_LARGE_N], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "4 True 4 True\n5 True 4 True\n"


_BUILD_ANGULAR_N4 = """
import resource
limit = 2 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from isoplab import build_competitor, density_from_config
cert = build_competitor(
    density_from_config({"family": "angular_mod", "dim": 4, "a": 1.0,
                         "params": {"eta": 0.5, "k": 1, "c": 1.0}}),
    eps=0.05, R_min=10.0, R_max=200.0, nodes=16, mc_samples=20_000)
flags = [v for v in cert.mc_check.values() if isinstance(v, bool)]
print(cert.strict, len(flags), all(flags))
print(*cert.E.direction)
"""


def test_angular_build_at_n4_fits_a_2gb_address_space():
    # angular_mod N=4 runs the two-level descent (512 then 64 candidates),
    # the advance map and the sweep selection on a non-radial weight, in a
    # child process limited to 2 GB of address space
    src = str(Path(isoplab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _BUILD_ANGULAR_N4], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    verdict, direction = run.stdout.splitlines()
    assert verdict == "True 4 True"
    assert np.allclose([float(x) for x in direction.split()],
                       [0.003886, -0.124309, 0.992236, 0.0], rtol=0.0, atol=1e-6)


def test_select_sweep_direction_radial_any_angle(exp2):
    sam = sweep_advance_map(exp2, 8.0, np.eye(2), grid=16, eps=0.05, nodes=48)
    phi, ext = select_sweep_direction(exp2, 8.0, np.eye(2), sam, eps=0.05,
                                      nodes=48)
    assert phi == 0.0      # every angle qualifies; the first grid point wins
    assert ext.rho < 1.0


def test_select_working_circle_radial_equatorial(exp3, far_at):
    plane = select_working_circle(exp3, far_at(exp3, 10.0))
    assert np.allclose(plane, np.eye(3)[:, :2])


def test_select_working_circle_radial_n4(far_at):
    d = density_from_config({"family": "radial_exp", "dim": 4, "a": 1.0})
    plane = select_working_circle(d, far_at(d, 10.0))
    assert np.allclose(plane, np.eye(4)[:, :2])


def test_select_working_circle_angular_n3(far_at):
    d = density_from_config({"family": "angular_mod", "dim": 3, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 0.5}})
    R, eps = 12.0, 0.05
    plane = select_working_circle(d, far_at(d, R, eps), axis_nodes=6,
                                  circle_nodes=24, quad_nodes=24)
    assert plane.shape == (3, 2)
    assert np.allclose(plane.T @ plane, np.eye(2), atol=1e-12)
    # the selected circle's average margin is at least the sphere average
    from isoplab import directional_margins
    dirs, w = sphere_grid(3, 16, 32)
    _, _, m = directional_margins(d, R, eps, dirs, nodes=24)
    sphere_avg = float(m @ w / w.sum())
    ang = 2 * math.pi * np.arange(24) / 24
    circ = np.array([math.cos(a) * plane[:, 0] + math.sin(a) * plane[:, 1]
                     for a in ang])
    _, _, mc = directional_margins(d, R, eps, circ, nodes=24)
    assert mc.mean() >= sphere_avg - 1e-10


def _count_ball_measures(monkeypatch):
    """Record the centre of every ball measured on a translated grid."""
    original, calls = isoplab.measures.weighted_ball_measures, []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.startswith("isoplab") and vars(module).get(
                "weighted_ball_measures") is original:
            monkeypatch.setattr(module, "weighted_ball_measures", counted)
    return calls


def _first_level_frames(n, axis_nodes):
    """Every axis of the first descent level, antipodes included, as frames
    whose first N - 1 columns span the orthogonal subsphere."""
    axes = sphere_grid(n, axis_nodes, 2 * axis_nodes)[0]
    return [np.column_stack([F[:, 1:], F[:, :1]]) for F in map(frame_from_axis, axes)]


def _target(far, eps):
    """The descent's target: the far-ball margin less its own error bar."""
    return far.margin - (far.P_g.error_estimate
                         + (far.dim - eps) * far.V_g.error_estimate)


def test_select_working_circle_matches_exhaustive_scan(monkeypatch, far_at):
    d = density_from_config({"family": "angular_mod", "dim": 3, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 1.0}})
    R, eps, n = 10.0, 0.05, 3
    calls = _count_ball_measures(monkeypatch)
    far = far_at(d, R, eps)
    plane = select_working_circle(d, far, axis_nodes=6, circle_nodes=16,
                                  quad_nodes=16)
    assert calls == []          # no translated balls
    g = deficit_weight(d)
    frames = _first_level_frames(n, 6)
    means, error = subsphere_means(g, frames, 2, R, 16, 16, 16)
    # reference: the balls about the 16 centres of each candidate circle,
    # measured on translated grids and averaged
    dirs, w = sphere_grid(2, 8, 16)
    for frame, mean, err in zip(frames, means, error):
        P, V = np.array([weighted_ball_measures(g, n, c, 1.0, 16, 16)
                         for c in R * dirs @ frame[:, :2].T]).T
        reference = np.array([P @ w, V @ w]) / w.sum()
        assert np.all(np.abs(mean - reference) <= err)
    # the axially symmetric weight ties every candidate, and the plane is
    # the first candidate of the exhaustive scan whose mean margin plus its
    # estimate reaches the target: the first one
    margin = means[:, 0] - (n - eps) * means[:, 1]
    spread = error[:, 0] + (n - eps) * error[:, 1]
    assert np.all(margin + spread >= margin.max() - spread[np.argmax(margin)])
    first = np.flatnonzero(margin + spread >= _target(far, eps))[0]
    assert first == 0
    assert np.array_equal(plane, frames[first][:, :2])


def test_select_working_circle_ties_pick_the_first_candidate(far_at):
    # eta cos(theta) averages to zero over every great circle, so every
    # candidate ties and grid order decides
    d = density_from_config({"family": "angular_mod", "dim": 3, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 1.0}})
    plane = select_working_circle(d, far_at(d, 10.0), axis_nodes=5,
                                  circle_nodes=16, quad_nodes=16)
    assert np.array_equal(plane, _first_level_frames(3, 5)[0][:, :2])
    # eta cos(2 theta) is largest on circles through the poles +-e1, whose
    # axes lie on the grid's equator (odd axis_nodes): the plane contains e1
    d = density_from_config({"family": "angular_mod", "dim": 3, "a": 1.0,
                             "params": {"eta": 0.5, "k": 2, "c": 1.0}})
    plane = select_working_circle(d, far_at(d, 10.0), axis_nodes=5,
                                  circle_nodes=16, quad_nodes=16)
    assert np.linalg.norm(plane[0]) == pytest.approx(1.0, abs=1e-12)


def _count_frames(monkeypatch):
    """Record how many frames each ``subsphere_means`` call of the descent
    scores."""
    original, calls = isoplab.farball.subsphere_means, []

    def counted(g, frames, *args):
        calls.append(len(frames))
        return original(g, frames, *args)
    monkeypatch.setattr(isoplab.farball, "subsphere_means", counted)
    return calls


@pytest.mark.parametrize("n, options, scored", [
    (3, {"quad_nodes": 16}, [8]),
    (4, {"axis_nodes": 4, "circle_nodes": 8, "quad_nodes": 8}, [8, 8]),
])
def test_select_working_circle_stops_at_the_first_qualifying_block(
        monkeypatch, far_at, n, options, scored):
    # with k = 1 every candidate reaches the far ball's margin, so each
    # level scores its first block of 8 only, and builds only its frames
    d = density_from_config({"family": "angular_mod", "dim": n, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 1.0}})
    calls = _count_frames(monkeypatch)
    frames = []
    original = isoplab.farball.frame_from_axis
    monkeypatch.setattr(isoplab.farball, "frame_from_axis",
                        lambda *a: frames.append(a) or original(*a))
    select_working_circle(d, far_at(d, 10.0), **options)
    assert calls == scored
    assert len(frames) == sum(scored)


@pytest.mark.parametrize("k, axis_nodes, scored", [
    (1, 5, [8, 16, 1]), (2, 5, [8, 16, 1]), (2, 8, [8, 16, 32, 8])])
def test_select_working_circle_falls_back_to_the_first_tied(monkeypatch, far_at, k,
                                                            axis_nodes, scored):
    # a target above every candidate's mean plus its estimate: the whole
    # level (25 or 64 axes up to sign) is scored in blocks of 8, 16, 32, ...,
    # and the first candidate tied with the best is kept
    d = density_from_config({"family": "angular_mod", "dim": 3, "a": 1.0,
                             "params": {"eta": 0.5, "k": k, "c": 1.0}})
    R, eps, n = 10.0, 0.05, 3
    far = far_at(d, R, eps)
    calls = _count_frames(monkeypatch)
    plane = select_working_circle(d, dataclasses.replace(far, margin=math.inf),
                                  axis_nodes=axis_nodes, quad_nodes=16)
    assert calls == scored
    frames = [np.column_stack([F[:, 1:], F[:, :1]]) for F in
              map(frame_from_axis, isoplab.farball._axes_up_to_sign(n, axis_nodes))]
    means, error = subsphere_means(deficit_weight(d), frames, 2, R, 16, 16)
    first = isoplab.farball._first_tied(means[:, 0] - (n - eps) * means[:, 1],
                                        error[:, 0] + (n - eps) * error[:, 1])
    assert np.array_equal(plane, frames[first][:, :2])
    # here the first candidate tied with the best also reaches the target
    assert np.array_equal(select_working_circle(d, far, axis_nodes=axis_nodes,
                                                quad_nodes=16), plane)


def test_select_working_circle_angular_n4(far_at):
    d = density_from_config({"family": "angular_mod", "dim": 4, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 1.0}})
    plane = select_working_circle(d, far_at(d, 10.0), axis_nodes=4,
                                  circle_nodes=8, quad_nodes=8)
    assert plane.shape == (4, 2)
    assert np.allclose(plane.T @ plane, np.eye(2), atol=1e-12)


def _estimated(refs, piece, *args):
    """A one-patch reference at each of the argument rows and its error
    estimate: the node-halving difference (``refs[1]`` has half the nodes
    of ``refs[0]``) plus the worst-case rounding of a patch's sum of
    nonnegative terms, points x ulp x value."""
    values = [np.array([piece(ref, *row) for row in zip(*args)]) for ref in refs]
    floor = ULP * refs[0].points * np.abs(values[0])
    return values[0], np.abs(values[0] - values[1]) + floor


def _half_balls(ref, phi, upper):
    return ref.half_ball_g(float(phi), upper)


def _ball_estimates(d, R, phis, nodes, radial_nodes):
    """|B^phi|_g of one-patch half-balls and its error estimate."""
    refs = [_PerAngleSweptPieces(d, R, np.eye(2), nn, rn)
            for nn, rn in ((nodes, radial_nodes), (nodes // 2, radial_nodes // 2))]
    halves = [_estimated(refs, partial(_half_balls, upper=upper), phis)
              for upper in (False, True)]
    return halves[0][0] + halves[1][0], halves[0][1] + halves[1][1]


def test_select_sweep_direction_recorded_ball_deficits():
    d = density_from_config({"family": "angular_mod", "dim": 2, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 0.5}})
    R, eps = 12.0, 0.05
    sam = sweep_advance_map(d, R, np.eye(2), grid=24, eps=eps, nodes=32)
    balls, error = SweepSpectrum(deficit_weight(d), 2, R, np.eye(2), 24,
                                 32).balls(sam.theta)
    assert np.array_equal(sam.ball_deficit, balls)
    recomputed, ref_error = _ball_estimates(d, R, sam.theta, 32, 64)
    assert np.all(np.abs(balls - recomputed) <= error + ref_error)
    recorded = select_sweep_direction(d, R, np.eye(2), sam, eps=eps, nodes=32)
    again = select_sweep_direction(
        d, R, np.eye(2), dataclasses.replace(sam, ball_deficit=tuple(recomputed)),
        eps=eps, nodes=32)
    assert recorded[0] == again[0]
    assert recorded[1].E == again[1].E
    assert recorded[1].perimeter_margin == again[1].perimeter_margin


def test_monte_carlo_check_rounding_floor(exp3):
    # at offset 50 the weight rounds to 1.0 on the whole boundary: the Monte
    # Carlo perimeter has a standard error of ~1e-24 and differs from the
    # closed form N omega_N - margin by rounding, which the rounding floor
    # of P_f's error estimate covers
    cert = build_competitor(exp3, eps=0.05, R_min=50.0, R_max=200.0,
                            mc_samples=100_000, mc_seed=1)
    assert cert.mc_check["perimeter_consistent"]
    assert cert.mc_check["volume_consistent"]
    for seed in (11, 2024):
        check = monte_carlo_check(cert.E, exp3, cert.P_f, cert.V_f, 100_000, seed,
                                  cert.perimeter_margin, cert.volume_gap)
        assert check["P_mc_stderr"] < 1e-20
        assert check["perimeter_consistent"] and check["volume_consistent"]


def test_monte_carlo_check_flags_a_different_set(exp2):
    near, far = PlainBall(dim=2, offset=3.0), PlainBall(dim=2, offset=4.0)
    P_f, V_f = set_measures(near, exp2)
    # the near ball's deficit-space margin and gap, by quadrature
    patches = set_patches(near)
    margin = patches.perimeter_margin(deficit_weight(exp2))
    gap = patches.volume_gap(deficit_weight(exp2))
    same = monte_carlo_check(near, exp2, P_f, V_f, 100_000, 7, margin, gap)
    assert same["perimeter_consistent"] and same["volume_consistent"]
    assert same["margin_consistent"] and same["gap_consistent"]
    other = monte_carlo_check(far, exp2, P_f, V_f, 100_000, 7, margin, gap)
    assert not other["perimeter_consistent"]
    assert not other["volume_consistent"]
    assert not other["margin_consistent"]
    assert not other["gap_consistent"]


@pytest.mark.parametrize("cfg", [
    {"family": "radial_exp", "dim": 3, "a": 1.0, "params": {"c": 1.0}},
    {"family": "angular_mod", "dim": 2, "a": 1.0,
     "params": {"eta": 0.5, "k": 1, "c": 1.0}}])
def test_monte_carlo_check_resolves_far_margin(cfg):
    # at offset 50 the margin is ~1e-21, below the rounding floor of f; the
    # deficit-space Monte Carlo estimate resolves it from the same draw
    cert = build_competitor(density_from_config(cfg), eps=0.05, R_min=50.0,
                            R_max=200.0, mc_samples=100_000, mc_seed=5)
    check = cert.mc_check
    assert check["margin_consistent"] and check["gap_consistent"]
    assert 0.0 < check["margin_stderr"] < abs(cert.perimeter_margin) / 10.0


def test_build_competitor_radial_resolvable(exp2):
    cert = build_competitor(exp2, eps=0.05, R_min=8.0, R_max=40.0,
                            mc_samples=50_000)
    om = unit_ball_volume(2)
    assert abs(cert.volume_gap) <= 1e-6 * om
    assert cert.perimeter_margin > 1e-6       # deficit is resolvable here
    assert cert.strict
    assert cert.rho < 1.0
    assert cert.bounds["match_bound_ok"]
    assert cert.mc_check["volume_consistent"]
    assert cert.mc_check["perimeter_consistent"]


def test_build_competitor_far_configuration_invariants():
    # at the far offset the deficit is ~ e^{-49}: the sweep is still matched
    # at the deficit scale |B|_g and pays for the added volume out of the
    # ball's deficit margin, which stays strictly positive
    d = density_from_config({"family": "radial_exp", "dim": 2, "a": 1.0,
                             "params": {"c": 1.0}})
    cert = build_competitor(d, eps=0.05, R_min=50.0, R_max=200.0,
                            mc_samples=20_000)
    ball_g = cert.farball.V_g.value
    assert ball_g > 0.0
    assert cert.match.delta_bar > 0.0
    assert cert.match.bound_ok
    assert abs(cert.volume_gap) <= 1e-6 * ball_g
    assert cert.perimeter_margin > 0.0            # strict, in deficit space
    assert cert.perimeter_margin < cert.farball.P_g.value   # sweep band paid
    assert cert.rho <= 1.0 + 1e-9
    assert cert.bounds["match_bound_ok"]


def test_build_competitor_constant_degenerate(const2):
    cert = build_competitor(const2, eps=0.05, R_min=10.0, R_max=40.0,
                            mc_samples=20_000)
    assert cert.degenerate
    assert cert.match.delta_bar == 0.0
    assert cert.rho == pytest.approx(1.0, abs=1e-12)


def test_constant_weight_reads_rho_minus_one_exactly_zero(const2):
    # a vanished deficit gives a margin and a gap of exactly 0, so the mean
    # density is exactly 1 with a zero estimate, which is not refused
    cert = build_competitor(const2, eps=0.05, R_min=10.0, R_max=40.0,
                            mc_samples=20_000)
    assert (cert.perimeter_margin, cert.volume_gap) == (0.0, 0.0)
    assert cert.bounds["rho_minus_one"] == 0.0
    assert cert.bounds["rho_minus_one_estimate"] == 0.0
    assert cert.rho == 1.0


@pytest.mark.parametrize("d", [
    density_from_config({"family": "radial_exp", "dim": 3, "a": 1.0}),
    _angular(2)], ids=["radial_exp_N3", "angular_mod_N2"])
def test_mean_density_below_one_in_deficit_space_far_out(d):
    # at offset 50 rho rounds to 1 in f-space floats (it read 1 + 8.9e-16
    # and 1 + 2.2e-16 from f-integrals); rho - 1, formed from the margin and
    # the gap, is about -2.5e-22 and -4.0e-22, far below its estimate, and
    # is recorded as a float, so it is not a flag that must read True
    cert = build_competitor(d, eps=0.05, R_min=50.0, R_max=200.0,
                            mc_samples=20_000)
    excess = cert.bounds["rho_minus_one"]
    assert type(excess) is float and type(cert.bounds["rho_minus_one_estimate"]) is float
    assert excess < 0.0
    assert -excess > 1e6 * cert.bounds["rho_minus_one_estimate"]
    assert cert.rho == 1.0 + excess == 1.0


def test_closed_form_measures_carry_the_pass_estimates(exp3):
    # P_f and V_f are N omega_N - margin and omega_N + gap; each estimate is
    # the margin's or the gap's deficit estimate plus the closed form's
    # rounding floor, so far out it is at the deficit scale plus a few ulps
    # of N omega_N
    for R_min in (10.0, 50.0):
        cert = build_competitor(exp3, eps=0.05, R_min=R_min, R_max=200.0,
                                mc_samples=20_000)
        omega, margin, gap = unit_ball_volume(3), cert.perimeter_margin, cert.volume_gap
        assert cert.P_f.value == 3 * omega - margin
        assert cert.V_f.value == omega + gap
        assert cert.P_f.error_estimate == (cert.bounds["margin_estimate"]
                                           + 2.0 * ULP * (3 * omega + abs(margin)))
        assert cert.V_f.error_estimate == (cert.bounds["gap_estimate"]
                                           + 2.0 * ULP * (omega + abs(gap)))
    assert cert.bounds["margin_estimate"] < 1e-30
    assert cert.P_f.error_estimate < 3.0 * ULP * 3 * omega


def test_extension_refuses_rho_above_its_estimate():
    # a margin below zero by more than its estimate is a mean density above 1
    E, omega = PlainBall(dim=2, offset=10.0), unit_ball_volume(2)
    match = VolumeMatch(0.0, omega, 0, True, 0.0)
    with pytest.raises(RuntimeError, match="mean density above 1: rho - 1 = 3.18"):
        isoplab.competitor._extension(E, match, -1e-17, 1e-20, 1e-20, 0, {})
    ext = isoplab.competitor._extension(E, match, -1e-21, 1e-20, 1e-20, 0, {})
    assert 0.0 < ext.checks["rho_minus_one"] <= ext.checks["rho_minus_one_estimate"]


@pytest.mark.parametrize("route", ["rotation", "sweep", "cylinder"])
def test_every_route_forms_p_f_and_v_f_in_its_extension(exp3, far_at, route):
    # P_f = N omega_N - margin and V_f = omega_N + gap on every route, each
    # estimated by the route's estimate of the margin or the gap plus 2 ULP
    # of its terms, over the route's evaluation count
    R, plane, g = 10.0, np.eye(3)[:, :2], deficit_weight(exp3)
    cert = select_direction(exp3, far_at(exp3, R))
    if route == "sweep":
        sam = sweep_advance_map(exp3, R, plane, 1, 0.05)
        ext = select_sweep_direction(exp3, R, plane, sam, 0.05)[1]
        make = partial(swept_patches, 3, R, ext.E.delta,
                       frame_from_axis(*plane.T), 0.0)
    elif route == "rotation":
        ext = rotation_extension(cert, exp3, eps=0.05)
    else:
        ext = cylinder_extension(cert, exp3, eps=0.05)
        family = partial(CylinderFamily, 3, R, frame_from_axis(np.array(cert.theta)))
        make = lambda *rule: family(*rule)(0.0)     # noqa: E731
    c, margin, gap = ext.checks, ext.perimeter_margin, ext.volume_gap
    if route == "rotation":
        (e_p, e_v), points = ((c["margin_estimate"], c["gap_estimate"]),
                              sum(c["layer_evaluations"]))
    else:
        (e_p, e_v), points = ((c["pass_surface_estimate"], c["pass_volume_estimate"]),
                              GaussPass(make, g, *c["pass_rule"]).points)
    omega = unit_ball_volume(3)
    assert ext.P_f == isoplab.MeasureResult(
        3 * omega - margin, "quadrature", e_p + 2.0 * ULP * (3 * omega + abs(margin)),
        points)
    assert ext.V_f == isoplab.MeasureResult(
        omega + gap, "quadrature", e_v + 2.0 * ULP * (omega + abs(gap)), points)


def test_both_routes_give_one_verdict_at_the_a_priori_bound(exp3, far_at):
    # eps is set so that the closed form's delta sits at the a-priori bound
    # (1 + 2 eps) |B|_g / (omega_{N-1} (R - 1)): the closed form and the
    # sweep's matcher, given a gap whose root is that delta, both accept it,
    # also 1e-10 above the bound, within the 1e-9 slack, and both refuse it
    # 1e-6 above
    cert = select_direction(exp3, far_at(exp3, 10.0))
    R, V = cert.R, cert.V_g.value
    delta = rotation_extension(cert, exp3, eps=0.05).match.delta_bar
    denom = unit_ball_volume(2) * (R - 1.0)
    for scale, verdict in ((1.0, True), (1.0 - 1e-10, True), (1.0 - 1e-6, False)):
        eps = 0.5 * (scale * delta * denom / V - 1.0)
        assert abs((1.0 + 2.0 * eps) * V / denom - scale * delta) <= 4.0 * ULP * delta
        closed = rotation_extension(cert, exp3, eps=eps).match
        x, _, (swept,) = _matches([V], 3, eps, denom, 0.45 * math.pi, denom,
                                  lambda _, x: x * (V / delta) - V, lambda _: "")
        assert abs(x[0] - delta) <= 4.0 * ULP * delta
        assert closed.bound_ok is swept.bound_ok is verdict


@pytest.mark.parametrize("d", [
    density_from_config({"family": "radial_exp", "dim": 3, "a": 1.0}),
    _angular(3)], ids=["radial_exp_N3", "angular_mod_N3"])
def test_build_competitor_evaluates_the_weight_only_in_monte_carlo(monkeypatch, d):
    # the certificate is assembled from the deficit alone: outside the
    # Monte-Carlo cross-check the weight is never evaluated (88,640 points
    # of the certified pass on each of these inputs when the pass also
    # integrated f), and neither is it by the cylinder route, which
    # certifies a radial weight from g alone too
    points, weight = [0], d.weight

    def counted(x):
        points[0] += math.prod(np.shape(x)[:-1])
        return weight(x)
    mc = _stage_points(monkeypatch, points, "monte_carlo_check")
    counted_d = dataclasses.replace(d, weight=counted)
    cert = build_competitor(counted_d, eps=0.05, R_min=10.0, R_max=200.0,
                            mc_samples=20_000)
    assert cert.strict
    if d.radial:
        ext = cylinder_extension(cert.farball, counted_d, eps=0.05)
        assert ext.perimeter_margin > 0.0
    assert mc["monte_carlo_check"] > 0
    assert points[0] - mc["monte_carlo_check"] == 0


def test_build_competitor_refuses_a_weight_that_returns_nan(exp3):
    # a weight with NaN on the far half of the set and the deficit
    # unchanged: the deficit-space certificate never reads it, but the
    # Monte-Carlo cross-check evaluates it on the set and refuses it,
    # naming the density
    def weight(x):
        out = np.array(exp3.weight(x), dtype=float)
        out[np.asarray(x)[..., 0] > 10.0] = np.nan
        return out
    d = dataclasses.replace(exp3, weight=weight, label="half-nan")
    with pytest.raises(ValueError,
                       match="density 'half-nan' returned a non-finite value"):
        build_competitor(d, eps=0.05, R_min=10.0, R_max=200.0,
                         mc_samples=20_000)


def test_variant_agreement_radial_nondecreasing(exp2):
    # where both extensions apply (radial, nondecreasing along rays), each
    # yields a matched set of mean density at most 1; the values need not
    # coincide
    g = deficit_profile(exp2)
    far = find_far_radius(g, 2, eps=0.2, R_min=10.0, R_max=30.0)
    cert = select_direction(exp2, far)
    rot = rotation_extension(cert, exp2, eps=0.2)
    cyl = cylinder_extension(cert, exp2, eps=0.2)
    for ext in (rot, cyl):
        assert ext.rho <= 1.0
        assert abs(ext.volume_gap) <= 1e-8 * unit_ball_volume(2)
        assert ext.match.bound_ok


def test_build_competitor_rescales_general_limit():
    d = density_from_config({"family": "radial_exp", "dim": 2, "a": 2.5,
                             "params": {"c": 1.0}})
    cert = build_competitor(d, eps=0.05, R_min=8.0, R_max=40.0,
                            mc_samples=20_000)
    assert cert.bounds["rescale_lambda"] == pytest.approx(2.5 ** -0.5, rel=1e-12)
    assert abs(cert.volume_gap) <= 1e-6 * unit_ball_volume(2)
    assert cert.rho < 1.0


class _PerAngleSweptPieces:
    """The swept pieces one angle at a time, every patch built and
    integrated on its own: the reference for the batched scans."""

    def __init__(self, d, R, frame, nodes, radial_nodes=64):
        self.n, self.R, self.frame = d.dim, R, frame
        self.nodes, self.radial_nodes = nodes, radial_nodes
        self.g = deficit_weight(d)
        self.omega1 = unit_ball_volume(self.n - 1)

    def _integral(self, pts, w):
        """g over one patch; ``points`` keeps the patch's size."""
        self.points = w.size
        return float(np.add.reduce(np.asarray(self.g(pts)) * w))

    def _cap(self, patch, phi, upper, *nodes):
        lo, hi = (0.0, math.pi / 2) if upper else (math.pi / 2, math.pi)
        F = self.frame
        center = self.R * (math.cos(phi) * F[:, 0] + math.sin(phi) * F[:, 1])
        axis = -math.sin(phi) * F[:, 0] + math.cos(phi) * F[:, 1]
        return self._integral(*patch(self.n, 1.0, center, axis, lo, hi, *nodes))

    def half_ball_g(self, phi, upper):
        return self._cap(ball_cap_patch, phi, upper, self.radial_nodes,
                         self.nodes, self.nodes)

    def hemisphere_g(self, phi, upper):
        return self._cap(sphere_cap_patch, phi, upper, self.nodes, self.nodes)

    def wedge_g(self, phi, delta):
        if delta <= 0.0:
            return 0.0
        pts, w = swept_wedge_patch(self.n, self.R, phi, phi + delta,
                                   self.radial_nodes, self.nodes)
        return self._integral(pts @ self.frame.T, w)

    def band_g(self, phi, delta):
        if delta <= 0.0:
            return 0.0
        pts, w = swept_band_patch(self.n, self.R, phi, phi + delta, self.nodes)
        return self._integral(pts @ self.frame.T, w)

    def gap_function(self, phi):
        trailing = self.half_ball_g(phi, upper=False)
        length = self.R * self.omega1

        def gap(delta):
            return (delta * length - self.wedge_g(phi, delta) - trailing
                    - self.half_ball_g(phi + delta, upper=True))
        return gap

    def perimeter_margin(self, phi, delta):
        euclid_band = delta * self.R * (self.n - 1) * self.omega1
        return (self.hemisphere_g(phi, upper=False)
                + self.hemisphere_g(phi + delta, upper=True)
                + self.band_g(phi, delta) - euclid_band)


def _advance_by_angle(d, R, grid, eps, nodes):
    """The advance map matched one angle at a time by ``_sweep_match`` on
    one-patch gaps, and each advance's error estimate: its root residual
    plus the node-halving difference of the gap there, over the gap's mean
    slope."""
    pieces = _PerAngleSweptPieces(d, R, np.eye(2), nodes)
    half = _PerAngleSweptPieces(d, R, np.eye(2), nodes // 2, 32)
    theta = 2.0 * math.pi * np.arange(grid) / grid
    advance, error = np.zeros(grid), np.zeros(grid)
    for i, phi in enumerate(theta):
        gap = pieces.gap_function(float(phi))
        ball = -gap(0.0)
        match = _sweep_match(gap, ball, d.dim, R, eps)
        delta = advance[i] = match.delta_bar
        halving = abs(half.gap_function(float(phi))(delta) - match.gap)
        # the gap sums about 2 |B|_g of nonnegative patch terms
        floor = ULP * pieces.points * 2.0 * ball
        error[i] = (abs(match.gap) + halving + floor) * delta / (match.gap + ball)
    return advance, error


def _rims(ref, phi, delta):
    """H_g(trailing hemisphere at phi) + H_g(leading one at phi + delta)."""
    return (ref.hemisphere_g(float(phi), upper=False)
            + ref.hemisphere_g(float(phi + delta), upper=True))


def _sweep_direction_by_angle(d, R, sam, eps, nodes, rule):
    """select_sweep_direction bounding the margin one angle at a time on
    one-patch hemispheres at ``nodes``, and measuring the winner on the
    Gauss rule ``rule``: the angle, the extension, and the winning bound
    with its error estimate."""
    n = d.dim
    rims = _PerAngleSweptPieces(d, R, np.eye(2), nodes)
    half = _PerAngleSweptPieces(d, R, np.eye(2), nodes // 2)
    pieces = _PerAngleSweptPieces(d, R, np.eye(2), *rule)
    theta, adv = np.asarray(sam.theta), np.asarray(sam.advance)
    ball_gs = np.asarray(sam.ball_deficit)
    omega, omega1 = unit_ball_volume(n), unit_ball_volume(n - 1)
    rims, rim_error = _estimated([rims, half], _rims, theta, adv)
    bounds = rims - adv * R * (n - 1) * omega1
    best = int(np.nonzero(bounds + rim_error >= 0.0)[0][0])
    phi, delta = float(theta[best]), float(adv[best])
    direction = (math.cos(phi), math.sin(phi))
    sweep = (-math.sin(phi), math.cos(phi))
    E = (RotationSwept(dim=n, offset=R, delta=delta, direction=direction,
                       sweep=sweep)
         if delta > 0.0 else PlainBall(dim=n, offset=R, direction=direction))
    margin = pieces.perimeter_margin(phi, delta)
    gap = pieces.gap_function(phi)(delta)
    bound = (1.0 + 2.0 * eps) * ball_gs[best] / (omega1 * max(R - 1.0, 1e-9))
    # the winner's own root, whose residual the patch gap replaces
    match = VolumeMatch(delta, omega + gap, sam.matches[best].iterations,
                        delta <= bound * (1 + 1e-9), gap)
    rho = 1.0 + math.expm1(n * math.log1p(-margin / (n * omega))
                           - (n - 1) * math.log1p(gap / omega))
    band_f = delta * R * (n - 1) * omega1 - pieces.band_g(phi, delta)
    checks = {"perimeter_chain_ok":
              band_f <= (n - 1) * omega1 * (R + 1.0) * delta}
    return (phi, ExtensionResult(E, match, margin, gap, rho, None, None, checks),
            bounds[best], rim_error[best])


@pytest.mark.parametrize("R", [12.0, 50.0])
def test_advance_map_matches_per_angle_matching(R):
    # the Fourier engine's advances against one-patch matching per angle,
    # within the two error estimates; at R = 50 the advances are ~1e-23
    d = density_from_config({"family": "angular_mod", "dim": 2, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 0.5}})
    eps = 0.05
    sam = sweep_advance_map(d, R, np.eye(2), grid=48, eps=eps, nodes=48)
    reference, ref_error = _advance_by_angle(d, R, 48, eps, 48)
    advance, error = np.array(sam.advance), np.array(sam.advance_error)
    assert np.all(np.abs(advance - reference) <= error + ref_error)
    assert np.all(error <= 1e-6 * advance)
    assert min(sam.advance) > 0.0
    # the selection bounds the margin by the engine's hemispheres: the same
    # angle, set, match and certificate on the pass's settled rule, and a
    # bound within the two estimates
    phi, ext = select_sweep_direction(d, R, np.eye(2), sam, eps=eps, nodes=48)
    rule = tuple(ext.checks["pass_rule"])
    ref_phi, ref, ref_bound, ref_error = _sweep_direction_by_angle(d, R, sam,
                                                                   eps, 48, rule)
    assert phi == ref_phi
    assert (ext.E, ext.match, ext.perimeter_margin, ext.volume_gap, ext.rho) == (
        ref.E, ref.match, ref.perimeter_margin, ref.volume_gap, ref.rho)
    best = sam.theta.index(phi)
    assert (abs(_margin_bounds(sam, d.dim)[best] - ref_bound)
            <= sam.rim_error[best] + ref_error)
    assert ext.checks["perimeter_chain_ok"] == ref.checks["perimeter_chain_ok"]


@pytest.mark.parametrize("R", [12.0, 50.0])
def test_advance_map_equals_volume_match_per_angle(R):
    # the angles matched as the rows of one search give, bit for bit, each
    # angle's match alone on the spectrum's one-angle gap, and the error
    # estimates formed from those matches
    d = density_from_config({"family": "angular_mod", "dim": 2, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 0.5}})
    n, eps, grid = 2, 0.05, 24
    sam = sweep_advance_map(d, R, np.eye(2), grid=grid, eps=eps, nodes=32)
    spectrum = SweepSpectrum(deficit_weight(d), n, R, np.eye(2), grid, 32)
    theta = 2.0 * math.pi * np.arange(grid) / grid
    ball_gs, _ = spectrum.balls(theta)
    assert np.all(ball_gs > 0.0)
    matches = tuple(_sweep_match(_one_angle_gap(spectrum, ball_gs, i), b, n, R, eps)
                    for i, b in enumerate(ball_gs.tolist()))
    advance = np.array([m.delta_bar for m in matches])
    residual = np.array([m.gap for m in matches])
    _, gap_error = spectrum.volume_gaps(theta, advance)
    error = (np.abs(residual) + gap_error) / ((residual + ball_gs) / advance)
    assert repr(sam.matches) == repr(matches)
    assert repr(sam.advance) == repr(tuple(advance))
    assert repr(sam.advance_error) == repr(tuple(error))


def test_advance_map_failure_names_the_angle():
    # a deficit 0.999 (1 - cos phi) / 2 at offset 2: at the angles where it
    # is large, the sweep's largest range (0.45 pi past the ball) meets too
    # little of 1 - g to make up |B^theta|_g, and the failure names the
    # angle and |B^theta|_g of the first of them in grid order
    R, grid = 2.0, 16

    def deficit(x):
        x = np.asarray(x, dtype=float)
        return 0.4995 * (1.0 - x[..., 0] / np.linalg.norm(x, axis=-1))
    d = Density(dim=2, weight=lambda x: 1.0 - deficit(x), limit_a=1.0,
                radial=False, label="half-plane", deficit=deficit)
    with pytest.raises(RuntimeError, match="the target volume") as err:
        sweep_advance_map(d, R, np.eye(2), grid=grid, eps=0.05, nodes=32)
    message = str(err.value)
    spectrum = SweepSpectrum(deficit_weight(d), 2, R, np.eye(2), grid, 32)
    theta = 2.0 * math.pi * np.arange(grid) / grid
    ball_gs, _ = spectrum.balls(theta)
    failing = []
    for i, (t, b) in enumerate(zip(theta.tolist(), ball_gs.tolist())):
        try:
            _sweep_match(_one_angle_gap(spectrum, ball_gs, i), b, 2, R, 0.05)
        except RuntimeError:
            failing.append(f"theta = {t:.6g}, with |B^theta|_g = {b:.6e}")
    assert 0 < len(failing) < grid
    assert f"advance map at {failing[0]}: volume match failed" in message


def test_advance_map_far_deviation_resolved():
    # at offset 50 the quotients read exactly 1; their deviation from 1,
    # kept in deficit space, still resolves the advance map
    d = density_from_config({"family": "angular_mod", "dim": 2, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 1.0}})
    eps = 0.05
    sam = sweep_advance_map(d, 50.0, np.eye(2), grid=48, eps=eps, nodes=48)
    assert np.all(sam.quotients() == 1.0)
    dev = sam.quotient_deviation()
    assert np.any(dev != 0.0)
    assert dev.min() >= -eps - 1e-3
    assert dev.max() <= 1.0 / (1.0 - eps) - 1.0 + 1e-3


def _agrees(value, error, reference, ref_error):
    """The engine's values agree with one-patch references within the two
    error estimates, and its own estimate resolves the volume-matching
    tolerance."""
    return (np.all(np.abs(value - reference) <= error + ref_error)
            and np.all(error <= VOLUME_RTOL * np.abs(value)))


def _spectrum_agrees(d, R, grid, nodes=24, ref_nodes=16):
    """Balls, half-balls, hemispheres and wedges of ``SweepSpectrum`` at 20
    angles of a tilted frame against ``_PerAngleSweptPieces`` at
    ``ref_nodes`` and half as many."""
    n = d.dim
    frame = isoplab.quadrature.frame_from_axis(np.linspace(1.0, 2.0, n),
                                               np.linspace(-1.0, 0.5, n))
    spectrum = SweepSpectrum(deficit_weight(d), n, R, frame, grid, nodes, nodes)
    refs = [_PerAngleSweptPieces(d, R, frame, m, m)
            for m in (ref_nodes, ref_nodes // 2)]
    phis = np.linspace(0.0, 6.0, 20)
    deltas = np.full(20, 0.04)
    halves = [_estimated(refs, partial(_half_balls, upper=upper), phis)
              for upper in (False, True)]
    checks = [(spectrum.half_balls(phis, upper), half)
              for upper, half in zip((False, True), halves)]
    checks.append((spectrum.balls(phis), (halves[0][0] + halves[1][0],
                                          halves[0][1] + halves[1][1])))
    checks += [(spectrum.hemispheres(phis, upper),
                _estimated(refs, lambda ref, phi: ref.hemisphere_g(phi, upper), phis))
               for upper in (False, True)]
    checks.append((spectrum.wedges(phis, deltas),
                   _estimated(refs, lambda ref, phi, delta: ref.wedge_g(phi, delta),
                              phis, deltas)))
    return spectrum, all(_agrees(*mine, *ref) for mine, ref in checks)


@pytest.mark.parametrize("n, ref_nodes", [(2, 16), (3, 16), (4, 12)])
@pytest.mark.parametrize("R", [6.0, 12.0, 50.0])
def test_spectrum_agrees_with_patches(n, ref_nodes, R):
    d = density_from_config({"family": "angular_mod", "dim": n, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 0.5}})
    _, ok = _spectrum_agrees(d, R, grid=20, ref_nodes=ref_nodes)
    assert ok


@pytest.mark.parametrize("n", [2, 3, 4])
def test_spectrum_hemispheres_of_weight_one(n):
    # the surface weights ds dz / (R sin gamma) on the meridian disk's rule
    # sum, exactly rounded, to half the sphere's area within a few ulps; the
    # engine's hemispheres at any angle are within their estimate of it
    half = 0.5 * unit_sphere_area(n)
    for R in (2.0, 10.0, 50.0):
        w_sphere = isoplab.spectral._disk(n, R, 64, 64)[2]
        assert abs(math.fsum(w_sphere) - half) <= 8.0 * ULP * half
    spectrum = SweepSpectrum(lambda x: np.ones(len(x)), n, 10.0, np.eye(n), 4)
    for upper in (False, True):
        values, error = spectrum.hemispheres([0.0, 1.0, 2.5], upper)
        assert np.all(np.abs(values - half) <= error)
        assert np.all(error <= VOLUME_RTOL * half)


def test_spectrum_refines_psi_grid(monkeypatch):
    # harmonic 30 in the sweep angle aliases on 48 samples and on their every
    # other sample: the grid is refined until both rules resolve it, or the
    # engine names the psi grid when refinement is not allowed
    d = density_from_config({"family": "angular_mod", "dim": 2, "a": 1.0,
                             "params": {"eta": 0.5, "k": 30, "c": 0.5}})
    spectrum, ok = _spectrum_agrees(d, 6.0, grid=48)
    assert ok
    assert spectrum.psi_samples > 48
    monkeypatch.setattr(isoplab.spectral, "REFINE_ROUNDS", 0)
    with pytest.raises(RuntimeError, match="psi grid of 48 samples"):
        SweepSpectrum(deficit_weight(d), 2, 6.0, np.eye(2), 48)


@pytest.mark.parametrize("k, check", [(6, "every-other-sample"),
                                      (16, "17-sample")])
def test_spectrum_refinement_failure_names_its_check(monkeypatch, k, check):
    # on 16 angles the psi rule starts at 16 samples, its ceiling without
    # refinement: harmonic 6 is resolved by the rule and by the 17-sample
    # check but aliases on the every other sample; harmonic 16 aliases onto
    # mode 0 on the rule and on its every other sample alike, and only the
    # 17-sample check sees it.  With refinement both are resolved
    d = _angular(2, k)
    assert SweepSpectrum(deficit_weight(d), 2, 10.0, np.eye(2),
                         16).psi_samples == 64
    monkeypatch.setattr(isoplab.spectral, "REFINE_ROUNDS", 0)
    with pytest.raises(RuntimeError) as err:
        SweepSpectrum(deficit_weight(d), 2, 10.0, np.eye(2), 16)
    message = str(err.value)
    assert message.startswith("psi grid of 16 samples")
    assert f"the {check} rule's" in message
    assert "at angle " in message
    assert "M = 16 is the ceiling 16 = 16 x GRID_REFINE^REFINE_ROUNDS" in message


def test_angle_scans_use_only_the_spectrum(monkeypatch):
    # every angle scan of the general-weight route (balls, half-balls,
    # wedges, hemispheres) comes from the sweep spectrum: no ball is measured
    # on a translated grid
    calls = _count_ball_measures(monkeypatch)
    d = density_from_config({"family": "angular_mod", "dim": 2, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 1.0}})
    cert = build_competitor(d, eps=0.05, R_min=10.0, R_max=200.0,
                            circle_grid=48, nodes=32, mc_samples=20_000)
    assert cert.advance is not None and cert.strict
    assert calls == []


_BUILD_ANGULAR3 = """
import numpy as np
from isoplab import (PlainBall, build_competitor, check_admissibility,
                     cylinder_extension, deficit_profile, density_from_config,
                     direct_kernel, find_far_radius, select_direction, tail_mass)
d = density_from_config({"family": "angular_mod", "dim": 3, "a": 1.0,
                         "params": {"eta": 0.5, "k": 1, "c": 1.0}})
c = build_competitor(d, eps=0.05, R_min=10.0, R_max=200.0, nodes=16,
                     circle_grid=16, mc_samples=20_000)
for field in (c.E, c.perimeter_margin, c.volume_gap, c.match, c.advance,
              c.P_f, c.V_f, c.mc_check):
    print(repr(field))
print(repr(select_direction(d, c.farball, quad_nodes=16)))
print(repr(tail_mass(PlainBall(dim=3, offset=10.0), d, 9.5)))
kernel = direct_kernel(lambda t: 1.0 - 3.0 * np.asarray(t) ** 2)
print(repr(check_admissibility(kernel)))
e = density_from_config({"family": "radial_exp", "dim": 3, "a": 1.0,
                         "params": {"c": 1.0}})
far = find_far_radius(deficit_profile(e), 3, 0.05, 10.0, 200.0)
print(repr(cylinder_extension(select_direction(e, far), e, 0.05)))
"""


def test_certificate_independent_of_blas_threads():
    # every reduction is numpy's pairwise sum and no selection is decided
    # by rounding, so the certificate is the same float at any BLAS thread
    # count
    src = str(Path(isoplab.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs.append(subprocess.Popen([sys.executable, "-c", _BUILD_ANGULAR3],
                                     env=env, stdout=subprocess.PIPE, text=True))
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert outputs[0].count("\n") == 12
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cfg, rel", [
    ({"family": "radial_exp", "dim": 2, "a": 1.0, "params": {"c": 1.0}}, 1e-3),
    ({"family": "radial_exp", "dim": 3, "a": 1.0, "params": {"c": 1.0}}, 1e-3),
    # a deficit of ~1/121 along the cylinder moves the ratio by ~1%
    ({"family": "radial_power", "dim": 2, "a": 1.0, "params": {"p": 2.0}}, 2e-2)])
def test_cylinder_bound_counts_the_shrunk_half_ball(far_at, cfg, rel):
    # the near half-ball shrunk by k = (R - delta)/R loses
    # omega_N (1 - k^N) / 2 ~ N omega_N delta / (2R), so the matched height
    # is |B|_g / (omega_{N-1} - N omega_N / (2R)) to first order in the
    # deficit, which the bound without the shrink term misses at R = 10
    d = density_from_config(cfg)
    n, R, eps = d.dim, 10.0, 0.05
    cert = select_direction(d, far_at(d, R, eps))
    assert cert.R == R
    ext = cylinder_extension(cert, d, eps)
    assert ext.match.bound_ok
    # |B|_g as the match takes it: the base ball on the settled rule
    ball_g = -CylinderFamily(n, R, np.eye(n), *ext.checks["pass_rule"]
                             )(0.0).volume_gap(deficit_weight(d))
    slope = unit_ball_volume(n - 1) - n * unit_ball_volume(n) / (2.0 * R)
    assert ball_g / ext.match.delta_bar == pytest.approx(slope, rel=rel)
