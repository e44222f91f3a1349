import dataclasses
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isoplab.farball
import isoplab.measures
from isoplab import (Density, RadialDeficit, ball_deficit_measures,
                     deficit_profile, density_from_config, directional_margins,
                     find_far_radius, select_direction, select_working_circle,
                     unit_ball_volume, weighted_ball_measures)
from isoplab.defaults import PSI_START, RADIAL_NODES, SCAN_STEP
from isoplab.density import deficit_weight
from isoplab.layers import exact_kernels
from isoplab.quadrature import frame_from_axis, sphere_grid
from isoplab.spectral import SweepSpectrum

E = math.e


def test_exponential_every_offset_qualifies(exp3):
    # flat-limit ratio is (e^2 - 1)/2 > 3 independently of R, so the first
    # grid point is returned
    g = deficit_profile(exp3)
    cert = find_far_radius(g, 3, eps=0.05, R_min=10.0, R_max=60.0)
    assert cert.R == 10.0
    assert cert.margin >= 0.0
    assert not cert.degenerate
    assert cert.P_g.value / cert.V_g.value > 3.0


def test_flat_limit_ratio_constant(exp3):
    g = deficit_profile(exp3)
    from isoplab.layers import asymptotic_kernels
    for R in (8.0, 15.0, 40.0):
        P, V = ball_deficit_measures(g, 3, R, asymptotic_kernels(3))
        assert P.value / V.value == pytest.approx((E * E - 1) / 2, rel=1e-9)


def test_zero_deficit_degenerate(const2):
    g = deficit_profile(const2)
    cert = find_far_radius(g, 2, eps=0.05, R_min=5.0, R_max=20.0)
    assert cert.degenerate
    assert cert.R == 5.0
    assert cert.V_g.value <= 1e-8 * unit_ball_volume(2)


def test_bump_deficit_certificate():
    def bump(r):
        r = np.asarray(r, dtype=float)
        return ((r >= 5.0) & (r <= 6.0)).astype(float)
    g = RadialDeficit(dim=3, profile=bump, support_hint=6.0,
                      breakpoints=(5.0, 6.0))
    cert = find_far_radius(g, 3, eps=0.05, R_min=4.5, R_max=12.0)
    assert cert.margin >= 0.0
    assert not cert.degenerate
    # brute-force fine-scan oracle: some offset in range must qualify with
    # exact kernels
    best = -math.inf
    for R in np.arange(4.5, 8.0, 1e-2):
        P, V = ball_deficit_measures(g, 3, float(R), exact_kernels(3, float(R)))
        best = max(best, P.value - (3 - 0.05) * V.value)
    assert best >= cert.margin - 1e-9


def test_bump_outside_window_is_degenerate_far_ball():
    # offsets whose window misses the bump give a zero-deficit ball, which
    # is a valid (degenerate) certificate: the ball is already full
    def bump(r):
        r = np.asarray(r, dtype=float)
        return ((r >= 5.0) & (r <= 6.0)).astype(float)
    g = RadialDeficit(dim=3, profile=bump, support_hint=6.0,
                      breakpoints=(5.0, 6.0))
    cert = find_far_radius(g, 3, eps=0.05, R_min=2.0, R_max=12.0)
    assert cert.R == 2.0
    assert cert.degenerate


def test_find_far_radius_rescans_past_a_negative_margin(monkeypatch, exp3):
    # a measured margin short by 1e-12 does not qualify, however small it
    # is next to the weight: the scan moves on to the next offset
    original = isoplab.farball._ball_certificate
    offsets = []

    def certificate(g, n, R, eps):
        offsets.append(R)
        cert = original(g, n, R, eps)
        return dataclasses.replace(cert, margin=-1e-12) if len(offsets) == 1 else cert
    monkeypatch.setattr(isoplab.farball, "_ball_certificate", certificate)
    cert = find_far_radius(deficit_profile(exp3), 3, eps=0.05, R_min=10.0,
                           R_max=60.0)
    assert offsets[0] == 10.0
    assert cert.R > 10.0
    assert cert.margin >= 0.0


def _indicator(n, lo, hi):
    def bump(r):
        r = np.asarray(r, dtype=float)
        return ((r >= lo) & (r <= hi)).astype(float)
    return RadialDeficit(dim=n, profile=bump, support_hint=hi, breakpoints=(lo, hi))


@pytest.mark.parametrize("n, support, R_min, restarts", [
    (3, (5.0, 6.0), 5.6, 0), (3, (5.0, 6.0), 5.505, 1),
    (4, (5.0, 6.0), 5.51, 1), (4, (7.0, 9.0), 8.502, 1)],
    ids=["N3-5to6-5.6", "N3-5to6-5.505", "N4-5to6-5.51", "N4-7to9-8.502"])
def test_far_radius_certifies_a_point_of_its_scan(n, support, R_min, restarts):
    # the certified offset lies on R_min's grid and is the first recorded
    # scan point with a nonnegative correlation and a nonnegative exact
    # margin; where the exact kernels disagree the scan moves on one step
    g, eps = _indicator(n, *support), 0.05
    cert = find_far_radius(g, n, eps, R_min, 12.0)
    steps = (cert.R - R_min) / SCAN_STEP
    assert abs(steps - round(steps)) * SCAN_STEP <= 1e-12
    qualifying = [R for R, c in cert.scan if c >= 0.0]
    margins = [isoplab.farball._ball_certificate(g, n, R, eps).margin
               for R in qualifying[:restarts + 1]]
    assert all(m < 0.0 for m in margins[:restarts]) and margins[-1] >= 0.0
    assert cert.R == qualifying[restarts] == cert.scan[-1][0]
    assert cert.margin == margins[-1]


def test_find_far_radius_reports_failure():
    # a bump pinned to the kernel's negative middle region over a scan range
    # too short to slide past it: every grid correlation is negative
    def bump(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-((r - 7.0) / 0.25) ** 2)
    g = RadialDeficit(dim=3, profile=bump)
    with pytest.raises(RuntimeError, match="no qualifying offset"):
        find_far_radius(g, 3, eps=0.05, R_min=6.5, R_max=7.3)


def test_select_direction_radial_short_circuit(exp2, far_at):
    cert = select_direction(exp2, far_at(exp2, 8.0))
    assert cert.theta == (1.0, 0.0)
    assert cert.margin >= 0.0


def test_select_direction_angular_mod(angular2, far_at):
    # the deficit peaks along +e1; the maximizing direction sits there and
    # beats the radial-average margin
    R = 6.0
    cert = select_direction(angular2, far_at(angular2, R), node_count=360,
                            quad_nodes=48)
    assert cert.margin >= -1e-12
    theta = np.array(cert.theta)
    assert theta[0] == pytest.approx(1.0, abs=1e-6)
    g = deficit_profile(angular2)
    P, V = ball_deficit_measures(g, 2, R, exact_kernels(2, R))
    radial_margin = P.value - (2 - 0.05) * V.value
    assert cert.margin >= radial_margin - 1e-10


def test_select_direction_error_estimate_node_halving(angular2, far_at):
    # the winning direction's P_g and V_g, read from the sweep spectrum, agree
    # with the ball measured on a translated grid at its centre, within the
    # spectrum's estimate plus the reference's node-halving difference
    R, q = 6.0, 48
    cert = select_direction(angular2, far_at(angular2, R), node_count=360,
                            quad_nodes=q)
    g = deficit_weight(angular2)
    center = R * np.array(cert.theta)
    P, V = weighted_ball_measures(g, 2, center, 1.0, q, max(16, q // 2))
    P2, V2 = weighted_ball_measures(g, 2, center, 1.0, q // 2, max(16, q // 4))
    assert abs(cert.P_g.value - P) <= cert.P_g.error_estimate + abs(P - P2)
    assert abs(cert.V_g.value - V) <= cert.V_g.error_estimate + abs(V - V2)
    assert 0.0 < cert.P_g.error_estimate <= 1e-12 * P
    assert 0.0 < cert.V_g.error_estimate <= 1e-12 * V


def test_select_direction_degenerate(const2, far_at):
    cert = select_direction(const2, far_at(const2, 8.0))
    assert cert.degenerate


def test_direction_grid_mean_consistency(angular2):
    # the grid average of directional deficit measures reproduces the
    # radial-average measures
    R, eps = 6.0, 0.05
    dirs, w = sphere_grid(2, 1, 360)
    w = w / w.sum()
    P, V, margins = directional_margins(angular2, R, eps, dirs, nodes=48)
    g = deficit_profile(angular2)
    Pr, Vr = ball_deficit_measures(g, 2, R, exact_kernels(2, R))
    assert float(P @ w) == pytest.approx(Pr.value, abs=1e-8)
    assert float(V @ w) == pytest.approx(Vr.value, abs=1e-8)


@pytest.mark.parametrize("k", [1, 2])
def test_select_direction_on_the_working_circle(monkeypatch, far_at, k):
    # the direction is an angle of the working circle, its margin is at
    # least the radial-average margin, and no ball is measured on a
    # translated grid
    d = density_from_config({"family": "angular_mod", "dim": 3, "a": 1.0,
                             "params": {"eta": 0.5, "k": k, "c": 1.0}})
    R, eps = 10.0, 0.05
    original, calls = isoplab.measures.weighted_ball_measures, []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)
    for module in (isoplab.measures, isoplab.farball):
        monkeypatch.setattr(module, "weighted_ball_measures", counted)
    cert = select_direction(d, far_at(d, R, eps), node_count=90, quad_nodes=16)
    assert calls == []
    plane = select_working_circle(d, far_at(d, R, eps), quad_nodes=16)
    theta = np.array(cert.theta)
    assert np.linalg.norm(theta) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(theta - plane @ (plane.T @ theta)) <= 1e-12
    P, V = ball_deficit_measures(deficit_profile(d), 3, R, exact_kernels(3, R))
    radial = P.value - (3 - eps) * V.value
    assert cert.margin >= radial - (P.error_estimate + (3 - eps) * V.error_estimate)
    assert len(cert.scan) == 90


@pytest.mark.parametrize("m", [3, 4])
def test_axes_up_to_sign_equal_the_pairwise_scan(m):
    # the pairwise antipode table keeps the axes, in the same order, that
    # comparing each axis with every axis kept before it keeps
    for axis_nodes in range(4, 9):
        grid = sphere_grid(m, axis_nodes, 2 * axis_nodes)[0]
        kept = []
        for axis in grid.tolist():
            if not any(max(abs(p + q) for p, q in zip(a, axis)) <= 1e-9
                       for a in kept):
                kept.append(axis)
        axes = isoplab.farball._axes_up_to_sign(m, axis_nodes)
        assert len(kept) < len(grid)
        assert np.array_equal(axes, np.array(kept))


def _one_table_axes(m, axis_nodes):
    """The antipode marking as one (A, A) table per coordinate."""
    axes = sphere_grid(m, axis_nodes, 2 * axis_nodes)[0]
    antipode = np.ones((len(axes), len(axes)), dtype=bool)
    for column in axes.T:
        antipode &= np.abs(column[:, None] + column[None]) <= 1e-9
    return axes[~np.any(np.tril(antipode, -1), axis=1)]


@pytest.mark.parametrize("m, axis_nodes", [(3, 8), (4, 8), (5, 4), (3, 5), (4, 5),
                                           (5, 5), (3, 1), (3, 2)])
def test_axes_up_to_sign_index_map_equals_one_table(m, axis_nodes):
    # the antipodes named by the grid's indices keep the axes that one
    # table of coordinate comparisons keeps, at odd and even polar counts
    assert np.array_equal(isoplab.farball._axes_up_to_sign(m, axis_nodes),
                          _one_table_axes(m, axis_nodes))


_AXES_UNDER_A_LIMIT = """
import resource, sys
limit = 3 << 28
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
import numpy as np
from isoplab.farball import _axes_up_to_sign
exec(sys.argv[1])
try:
    _one_table_axes(5, 8)
    print("one table fits")
except MemoryError:
    print("one table fails")
print(len(_axes_up_to_sign(5, 8)))
"""


def test_axes_up_to_sign_fit_where_one_table_does_not():
    # (5, 8) has 8,192 axes: one float table per coordinate is 512 MB, while
    # the index map holds one antipode index per axis
    src = str(Path(isoplab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    helper = ("from isoplab.quadrature import sphere_grid\n"
              + inspect.getsource(_one_table_axes))
    run = subprocess.run([sys.executable, "-c", _AXES_UNDER_A_LIMIT, helper],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "one table fails\n4096\n"


def test_select_direction_lifts_the_certificate_it_is_given(monkeypatch, far_at):
    # the ball at the offset was measured by the certificate's producer: the
    # lift builds no deficit profile and no ball certificate, and the
    # descent aims at the very certificate it is given
    d = density_from_config({"family": "angular_mod", "dim": 3, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 1.0}})
    far, built, seen = far_at(d, 10.0), [], []
    for module, name in ((isoplab.farball, "_ball_certificate"),
                         (isoplab.farball, "deficit_profile"),
                         (isoplab.density, "deficit_profile")):
        monkeypatch.setattr(module, name, lambda *a, name=name: built.append(name),
                            raising=False)
    descent = isoplab.farball.select_working_circle
    monkeypatch.setattr(
        isoplab.farball, "select_working_circle",
        lambda d, target, *a, **k: seen.append(target) or descent(d, target, *a, **k))
    cert = select_direction(d, far, node_count=16, quad_nodes=16)
    assert built == []
    assert len(seen) == 1 and seen[0] is far
    assert (cert.R, cert.epsilon) == (far.R, far.epsilon)


def test_select_direction_mean_margin_is_the_spectrum_zero_mode(far_at):
    # on an even grid the mean of the angles' margins is the circle's mean
    # margin, the k = 0 Fourier mode of the sweep spectrum
    d = density_from_config({"family": "angular_mod", "dim": 3, "a": 1.0,
                             "params": {"eta": 0.5, "k": 2, "c": 1.0}})
    R, eps = 10.0, 0.05
    cert = select_direction(d, far_at(d, R, eps), node_count=90, quad_nodes=16)
    plane = select_working_circle(d, far_at(d, R, eps), quad_nodes=16)
    spectrum = SweepSpectrum(deficit_weight(d), 3, R,
                             frame_from_axis(plane[:, 0], plane[:, 1]), 90, 16)
    assert spectrum.psi_samples == PSI_START
    m = spectrum.modes
    P0 = (m.lead_sphere[0] + m.trail_sphere[0]).real
    V0 = (m.lead[0] + m.trail[0]).real
    mean = np.add.reduce(np.array([margin for _, margin in cert.scan])) / 90
    scale = P0 + (3 - eps) * V0
    assert abs(mean - (P0 - (3 - eps) * V0)) <= 90 * np.finfo(float).eps * scale


def test_select_direction_counts_the_spectrums_points(far_at):
    # P_g and V_g come from the spectrum's full rule, so they count its
    # points, as GaussPass counts a patch rule's: the meridian-disk nodes
    # (RADIAL_NODES radii times the (N-1)-sphere rule) times the psi samples
    d = density_from_config({"family": "angular_mod", "dim": 3, "a": 1.0,
                             "params": {"eta": 0.5, "k": 2, "c": 1.0}})
    R, eps = 10.0, 0.05
    cert = select_direction(d, far_at(d, R, eps), node_count=90, quad_nodes=16)
    plane = select_working_circle(d, far_at(d, R, eps), quad_nodes=16)
    spectrum = SweepSpectrum(deficit_weight(d), 3, R,
                             frame_from_axis(plane[:, 0], plane[:, 1]), 90, 16)
    points = RADIAL_NODES * len(sphere_grid(2, 16, 16)[0]) * PSI_START
    assert spectrum.modes.nodes * spectrum.psi_samples == points
    assert cert.P_g.samples_or_nodes == cert.V_g.samples_or_nodes == points


def test_select_direction_failure_names_the_circle_mean(far_at):
    # a thin ring deficit about the circle of centres, declared non-radial:
    # every ball's perimeter meets about as much deficit as its volume, so
    # no angle qualifies, and the circle's mean margin (in N = 2 the
    # radial-average margin) is reported
    R = 10.0

    def deficit(x):
        r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        return 0.2 * np.exp(-((r - R) / 0.1) ** 2)
    d = Density(dim=2, weight=lambda x: 1.0 - deficit(x), limit_a=1.0,
                radial=False, label="ring", deficit=deficit)
    P, V = ball_deficit_measures(deficit_profile(d), 2, R, exact_kernels(2, R))
    radial = P.value - (2 - 0.05) * V.value
    assert radial < 0.0
    with pytest.raises(RuntimeError, match="circle's mean margin is") as err:
        select_direction(d, far_at(d, R), node_count=48, quad_nodes=32)
    named = float(str(err.value).split("mean margin is ")[1].split()[0])
    assert named == pytest.approx(radial, rel=1e-5)


@pytest.mark.parametrize("shortfall, refused", [(3e-13, True), (3e-14, False)])
def test_select_direction_refuses_below_the_margins_own_estimate(far_at, shortfall,
                                                                 refused):
    # a wide ring deficit about the circle of centres, declared non-radial:
    # every angle has the same P_g / V_g (1.61), so eps sets the best margin
    # to -shortfall * P_g, and its estimate is 6e-14 P_g.  The angle is
    # refused only when the margin plus its estimate is below 0: a fixed
    # slack of 1e-12 P_g would take both
    R = 10.0

    def deficit(x):
        r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        return 0.2 * np.exp(-(r - R) ** 2)
    d = Density(dim=2, weight=lambda x: 1.0 - deficit(x), limit_a=1.0,
                radial=False, label="wide-ring", deficit=deficit)
    fit = select_direction(d, far_at(d, R, 0.5), node_count=16, quad_nodes=16)
    P, V = fit.P_g, fit.V_g
    eps = 2.0 - P.value * (1.0 + shortfall) / V.value
    spread = P.error_estimate + (2.0 - eps) * V.error_estimate
    assert 1e-14 * P.value < spread < 1e-13 * P.value
    if refused:
        with pytest.raises(RuntimeError, match="circle's mean margin is"):
            select_direction(d, far_at(d, R, eps), node_count=16, quad_nodes=16)
    else:
        cert = select_direction(d, far_at(d, R, eps), node_count=16, quad_nodes=16)
        own = cert.P_g.error_estimate + (2.0 - eps) * cert.V_g.error_estimate
        assert -own <= cert.margin < 0.0

def test_margin_against_monte_carlo(angular2, far_at):
    # certificate margin re-measured with seeded deficit sampling
    R, eps = 6.0, 0.05
    cert = select_direction(angular2, far_at(angular2, R, eps), node_count=180,
                            quad_nodes=48)
    rng = np.random.default_rng(17)
    theta = np.array(cert.theta)
    m = 400_000
    u = rng.standard_normal((m, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    from isoplab.density import deficit_weight
    gw = deficit_weight(angular2)
    vals_p = np.asarray(gw(R * theta + u))
    P_mc = 2 * math.pi * vals_p.mean()
    P_err = 2 * math.pi * vals_p.std() / math.sqrt(m)
    rho = rng.uniform(size=m) ** 0.5
    vals_v = np.asarray(gw(R * theta + rho[:, None] * u))
    V_mc = math.pi * vals_v.mean()
    V_err = math.pi * vals_v.std() / math.sqrt(m)
    margin_mc = P_mc - (2 - eps) * V_mc
    sigma = math.sqrt(P_err ** 2 + ((2 - eps) * V_err) ** 2)
    assert cert.margin >= margin_mc - 3.0 * sigma
    assert abs(cert.margin - margin_mc) <= 3.0 * sigma


def test_first_hit_monotone_in_rmax(exp3):
    g = deficit_profile(exp3)
    c1 = find_far_radius(g, 3, eps=0.05, R_min=10.0, R_max=30.0)
    c2 = find_far_radius(g, 3, eps=0.05, R_min=10.0, R_max=90.0)
    assert c2.R >= c1.R - 1e-12
    assert c1.R == c2.R  # first-hit semantics


def test_eps_validation(exp3):
    g = deficit_profile(exp3)
    with pytest.raises(ValueError):
        find_far_radius(g, 3, eps=1.5, R_min=5.0, R_max=10.0)
