import math

import numpy as np
import pytest

from isoplab import (RadialDeficit, ball_deficit_measures, deficit_profile,
                     direction_grid, directional_margins, find_far_radius,
                     select_direction, unit_ball_volume, weighted_ball_measures)
from isoplab.density import deficit_weight
from isoplab.layers import exact_kernels

E = math.e


def test_exponential_every_offset_qualifies(exp3):
    # flat-limit ratio is (e^2 - 1)/2 > 3 independently of R, so the first
    # grid point is returned
    g = deficit_profile(exp3)
    cert = find_far_radius(g, 3, eps=0.05, R_min=10.0, R_max=60.0)
    assert cert.R == 10.0
    assert cert.margin >= -1e-10
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
    assert cert.margin >= -1e-10
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


def test_find_far_radius_reports_failure():
    # a bump pinned to the kernel's negative middle region over a scan range
    # too short to slide past it: every grid correlation is negative
    def bump(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-((r - 7.0) / 0.25) ** 2)
    g = RadialDeficit(dim=3, profile=bump)
    with pytest.raises(RuntimeError, match="no qualifying offset"):
        find_far_radius(g, 3, eps=0.05, R_min=6.5, R_max=7.3)


def test_select_direction_radial_short_circuit(exp2):
    cert = select_direction(exp2, 8.0, eps=0.05)
    assert cert.theta == (1.0, 0.0)
    assert cert.margin >= -1e-10


def test_select_direction_angular_mod(angular2):
    # the deficit peaks along +e1; the maximizing direction sits there and
    # beats the radial-average margin
    R = 6.0
    cert = select_direction(angular2, R, eps=0.05, node_count=360, quad_nodes=48)
    assert cert.margin >= -1e-12
    theta = np.array(cert.theta)
    assert theta[0] == pytest.approx(1.0, abs=1e-6)
    g = deficit_profile(angular2)
    P, V = ball_deficit_measures(g, 2, R, exact_kernels(2, R))
    radial_margin = P.value - (2 - 0.05) * V.value
    assert cert.margin >= radial_margin - 1e-10


def test_select_direction_error_estimate_node_halving(angular2):
    # the winning direction's P_g and V_g carry |value(q) - value(q/2)| plus
    # a 1e-15 relative rounding floor, as set_measures reports
    R, q = 6.0, 48
    cert = select_direction(angular2, R, eps=0.05, node_count=360, quad_nodes=q)
    g = deficit_weight(angular2)
    center = R * np.array(cert.theta)
    P, V = weighted_ball_measures(g, 2, center, 1.0, q, max(16, q // 2))
    P2, V2 = weighted_ball_measures(g, 2, center, 1.0, q // 2, max(16, q // 4))
    assert (cert.P_g.value, cert.V_g.value) == (P, V)
    assert cert.P_g.error_estimate == abs(P - P2) + 1e-15 * abs(P)
    assert cert.V_g.error_estimate == abs(V - V2) + 1e-15 * abs(V)


def test_select_direction_degenerate(const2):
    cert = select_direction(const2, 8.0, eps=0.05)
    assert cert.degenerate


def test_direction_grid_mean_consistency(angular2):
    # the grid average of directional deficit measures reproduces the
    # radial-average measures
    R, eps = 6.0, 0.05
    dirs, w = direction_grid(2, 360)
    P, V, margins = directional_margins(angular2, R, eps, dirs, nodes=48)
    g = deficit_profile(angular2)
    Pr, Vr = ball_deficit_measures(g, 2, R, exact_kernels(2, R))
    assert float(P @ w) == pytest.approx(Pr.value, abs=1e-8)
    assert float(V @ w) == pytest.approx(Vr.value, abs=1e-8)


def test_margin_against_monte_carlo(angular2):
    # certificate margin re-measured with seeded deficit sampling
    R, eps = 6.0, 0.05
    cert = select_direction(angular2, R, eps, node_count=180, quad_nodes=48)
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
