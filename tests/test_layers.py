import math

import numpy as np
import pytest

from isoplab import (asymptotic_kernels, ball_deficit_measures, cap_area,
                     cap_geometry, correlation, exact_kernels, excess_kernel,
                     find_far_radius, kernel_deviation, layer_integral,
                     sin_power_integral, unit_ball_volume, unit_sphere_area)
from isoplab.density import RadialDeficit
from isoplab.layers import ULP, moment_integrals, running_integral


def test_cap_geometry_law_of_cosines():
    g = cap_geometry(10.0, 10.0)
    assert math.cos(float(g)) == pytest.approx(0.995, abs=1e-15)
    # generic s: cos(g) = (s^2 + R^2 - 1) / (2 s R)
    g2 = cap_geometry(9.4, 10.0)
    assert math.cos(float(g2)) == pytest.approx((9.4 ** 2 + 99.0) / (2 * 9.4 * 10.0),
                                                abs=1e-14)


def test_cap_geometry_tangency():
    assert float(cap_geometry(10.0 + 1 - 1e-12, 10.0)) < 1e-5
    assert float(cap_geometry(10.0 - 1 + 1e-12, 10.0)) < 1e-5


def test_cap_geometry_rejects_disjoint():
    with pytest.raises(ValueError):
        cap_geometry(12.5, 10.0)
    with pytest.raises(ValueError):
        cap_geometry(5.0, 10.0)


def test_cap_area_full_sphere():
    for n in (2, 3, 4, 5):
        assert cap_area(n, 2.0, math.pi) == pytest.approx(
            unit_sphere_area(n) * 2.0 ** (n - 1), rel=1e-14)


def test_cap_area_empty():
    assert cap_area(3, 1.0, 0.0) == 0.0


def test_cap_area_n3_closed_form():
    for s, g in [(1.0, 0.3), (2.5, 1.2), (0.7, 2.9)]:
        assert cap_area(3, s, g) == pytest.approx(
            2.0 * math.pi * s * s * (1.0 - math.cos(g)), rel=1e-14)


def test_cap_area_n2_two_arcs():
    assert cap_area(2, 3.0, 0.5) == pytest.approx(2.0 * 3.0 * 0.5, rel=1e-15)


def test_sin_power_recurrence_against_quadrature():
    from scipy.integrate import quad
    for m in range(0, 7):
        for g in (0.2, 1.0, 2.5):
            ref, _ = quad(lambda u: math.sin(u) ** m, 0.0, g, epsabs=1e-14)
            assert float(sin_power_integral(m, g)) == pytest.approx(ref, abs=1e-12)


def test_asymptotic_kernels_n3():
    a = asymptotic_kernels(3)
    t = np.linspace(-0.9, 0.9, 7)
    assert np.allclose(a.area_kernel(t), 2.0 * math.pi, atol=1e-14)
    assert np.allclose(a.volume_kernel(t), math.pi * (1 - t * t), atol=1e-14)


def test_kernel_mass_identities():
    # integral of the area kernel is the sphere area, of the volume kernel
    # the ball volume
    for n in range(2, 7):
        a = asymptotic_kernels(n)
        ia, _, _ = layer_integral(a.area_kernel)
        iv, _, _ = layer_integral(a.volume_kernel)
        assert ia == pytest.approx(unit_sphere_area(n), abs=1e-10)
        assert iv == pytest.approx(unit_ball_volume(n), abs=1e-10)


def test_exact_kernel_n3_ratio_identity():
    for R in (5.0, 10.0, 100.0):
        t = np.linspace(-1 + 1e-6, 1 - 1e-6, 1000)
        ex = exact_kernels(3, R)
        asym = asymptotic_kernels(3)
        scale = (R + t) / R
        assert np.max(np.abs(ex.area_kernel(t) - scale * asym.area_kernel(t))) < 1e-12
        assert np.max(np.abs(ex.volume_kernel(t) - scale * asym.volume_kernel(t))) < 1e-12


def test_exact_kernel_n3_values():
    ex = exact_kernels(3, 10.0)
    assert float(ex.volume_kernel(0.5)) == pytest.approx(
        1.05 * math.pi * 0.75, rel=1e-14)
    assert float(ex.volume_kernel(0.0)) == pytest.approx(math.pi, rel=1e-14)


def test_exact_kernels_reject_small_offset():
    with pytest.raises(ValueError):
        exact_kernels(3, 1.0)


def test_deviation_n3_first_order():
    d = kernel_deviation(3, 10.0)
    assert d.sup_area == pytest.approx((1.0 - 1e-6) / 10.0, rel=1e-6)


def test_deviation_monotone_and_bounded():
    for n in (2, 3, 4):
        prev = math.inf
        for R in (10.0, 100.0, 1000.0):
            d = kernel_deviation(n, R)
            assert d.sup <= 2.0 / R
            assert d.sup <= prev
            prev = d.sup


def test_deviation_rejects_endpoint_grid():
    with pytest.raises(ValueError):
        kernel_deviation(3, 10.0, grid=np.array([0.0, 1.0 - 1e-9]))


def test_exact_kernel_mc_oracle():
    # deficit volume through the volume kernel vs Monte-Carlo rejection
    rng = np.random.default_rng(42)
    for n, R in [(2, 5.0), (2, 20.0), (3, 5.0), (3, 20.0), (4, 5.0), (4, 20.0)]:
        g = RadialDeficit(dim=n, profile=lambda r: np.exp(-np.asarray(r, dtype=float)))
        _, V = ball_deficit_measures(g, n, R)
        m = 400_000
        pts = rng.uniform(-1.0, 1.0, size=(m, n))
        inside = np.einsum("ij,ij->i", pts, pts) <= 1.0
        pts[:, 0] += R
        vals = np.where(inside, np.exp(-np.linalg.norm(pts, axis=1)), 0.0)
        box = 2.0 ** n
        est = box * vals.mean()
        err = box * vals.std() / math.sqrt(m)
        assert abs(V.value - est) <= 3.0 * err, (n, R, V.value, est, err)


def test_ball_deficit_exponential_closed_form():
    e = math.e
    g = RadialDeficit(dim=3, profile=lambda r: np.exp(-np.asarray(r, dtype=float)))
    R = 7.0
    P, V = ball_deficit_measures(g, 3, R, asymptotic_kernels(3))
    assert P.value == pytest.approx(2 * math.pi * math.exp(-R) * (e - 1 / e),
                                    rel=1e-12)
    assert V.value == pytest.approx(4 * math.pi * math.exp(-R) / e, rel=1e-12)
    assert P.value / V.value == pytest.approx((e * e - 1) / 2, rel=1e-12)


def test_ball_deficit_zero_profile():
    g = RadialDeficit(dim=2, profile=lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    P, V = ball_deficit_measures(g, 2, 5.0)
    assert P.value == 0.0 and V.value == 0.0


def test_ball_deficit_exact_vs_asymptotic_bracket():
    # n = 3 exact kernels are (s/R) times the limits, so the measures sit
    # within a factor (1 +- 1/R) of the asymptotic ones
    g = RadialDeficit(dim=3, profile=lambda r: np.exp(-np.asarray(r, dtype=float)))
    R = 10.0
    Pe, Ve = ball_deficit_measures(g, 3, R)
    Pa, Va = ball_deficit_measures(g, 3, R, asymptotic_kernels(3))
    for ex, asym in ((Pe, Pa), (Ve, Va)):
        assert (1 - 1 / R) * asym.value <= ex.value <= (1 + 1 / R) * asym.value


def test_ball_deficit_rejects_mismatched_kernels():
    g = RadialDeficit(dim=3, profile=lambda r: np.exp(-np.asarray(r, dtype=float)))
    with pytest.raises(ValueError):
        ball_deficit_measures(g, 3, 5.0, exact_kernels(3, 6.0))
    with pytest.raises(ValueError):
        ball_deficit_measures(g, 2, 5.0, exact_kernels(3, 5.0))


def _oracle_measures(n, R, g):
    """(P_g, V_g) of the unit ball about R e1 at 30 digits.  For n = 2 the
    kernels are written in u, t = sin(u), where they stay finite at the
    endpoints; for n = 3 both are s / R times their flat limits."""
    import mpmath as mp

    R = mp.mpf(R)
    if n == 2:
        def area(u):
            s = R + mp.sin(u)
            return 4 * s / mp.sqrt((s + R) ** 2 - 1) * g(s)

        def volume(u):
            s = R + mp.sin(u)
            gamma = mp.acos((s * s + R * R - 1) / (2 * s * R))
            return 2 * s * gamma * mp.cos(u) * g(s)
        ends = (-mp.pi / 2, mp.pi / 2)
    else:
        def area(t):
            return 2 * mp.pi * (R + t) / R * g(R + t)

        def volume(t):
            return mp.pi * (1 - t * t) * (R + t) / R * g(R + t)
        ends = (-1, 1)
    return mp.quad(area, ends), mp.quad(volume, ends)


@pytest.mark.parametrize("family, n, params", [
    ("radial_exp", 2, {"c": 1.0}), ("radial_exp", 3, {"c": 1.0}),
    ("radial_power", 2, {"p": 2.0})])
def test_layer_estimates_cover_the_oracle_error(family, n, params):
    # P_g and V_g of the far ball: each error estimate covers the distance
    # to a 30-digit integral of the same kernels and deficit
    import mpmath as mp

    from isoplab import deficit_profile, density_from_config
    g = deficit_profile(density_from_config({"family": family, "dim": n,
                                             "a": 1.0, "params": params}))
    exact = {"radial_exp": lambda s: mp.exp(-s),
             "radial_power": lambda s: (1 + s) ** -2}[family]
    with mp.workdps(30):
        for R in (10.0, 50.0):
            for measure, oracle in zip(ball_deficit_measures(g, n, R),
                                       _oracle_measures(n, R, exact)):
                error = abs(mp.mpf(measure.value) - oracle)
                assert measure.error_estimate >= error, (R, measure, error)


def test_layer_integral_refines_a_steep_integrand():
    # the 24- and 12-node rules disagree on exp(-200 (t - 0.3)^2), so every
    # panel is cut by GRID_REFINE, REFINE_ROUNDS times; the estimate covers
    # the error against the closed form
    from isoplab.defaults import GRID_REFINE, LAYER_NODES, REFINE_ROUNDS

    val, err, count = layer_integral(lambda t: np.exp(-200.0 * (t - 0.3) ** 2))
    exact = 0.5 * math.sqrt(math.pi / 200.0) * (math.erf(math.sqrt(200.0) * 0.7)
                                               + math.erf(math.sqrt(200.0) * 1.3))
    assert abs(val - exact) <= err <= 1e-8 * exact
    rule = LAYER_NODES + LAYER_NODES // 2
    assert count == rule * sum(GRID_REFINE ** r for r in range(REFINE_ROUNDS + 1))
    smooth = layer_integral(lambda t: 1.0 - t * t)
    assert smooth[2] == rule
    assert all(type(x) is float for x in (val, err, *smooth[:2]))


def test_layer_integral_stacks_rows_on_one_rule():
    # rows that settle on the first rules are the floats of one-row calls;
    # a row that needs refinement refines every row with it, so the smooth
    # row's rounding floor counts the refined rule's nodes
    from isoplab.defaults import GRID_REFINE, LAYER_NODES, REFINE_ROUNDS

    def smooth(t):
        return 1.0 - t * t

    def wave(t):
        return np.cos(3.0 * t)

    def steep(t):
        return np.exp(-200.0 * (t - 0.3) ** 2)

    weight, cuts = np.exp, (0.2,)
    rows = [layer_integral(fn, weight, cuts) for fn in (smooth, wave)]
    stacked = layer_integral(lambda t: np.stack([smooth(t), wave(t)]), weight, cuts)
    assert rows[0][2] == rows[1][2] == LAYER_NODES * 3
    assert stacked == ([r[0] for r in rows], [r[1] for r in rows], rows[0][2])
    assert all(type(x) is float for x in (*stacked[0], *stacked[1]))
    values, estimates, count = layer_integral(lambda t: np.stack([smooth(t), steep(t)]))
    assert (values[1], estimates[1], count) == layer_integral(steep)
    assert count == (LAYER_NODES + LAYER_NODES // 2) * sum(
        GRID_REFINE ** r for r in range(REFINE_ROUNDS + 1))
    nodes = LAYER_NODES * GRID_REFINE ** REFINE_ROUNDS
    assert estimates[0] >= ULP * nodes * values[0]
    assert layer_integral(smooth)[1] < ULP * nodes * values[0]
    assert abs(values[0] - 4.0 / 3.0) <= estimates[0]


def test_ball_deficit_measures_share_the_profile():
    # P_g and V_g are the rows of one call on the same nodes: one profile
    # call per rule in all, also when exp(-200 (r - 10.3)^2) refines both
    # rows to the last round
    from isoplab.defaults import GRID_REFINE, LAYER_NODES, REFINE_ROUNDS
    for rounds, profile in ((0, lambda r: np.exp(-r)),
                            (REFINE_ROUNDS, lambda r: np.exp(-200.0 * (r - 10.3) ** 2))):
        calls = []

        def counted(r):
            calls.append(np.size(r))
            return profile(np.asarray(r, dtype=float))
        P, V = ball_deficit_measures(RadialDeficit(dim=3, profile=counted), 3, 10.0)
        assert calls == [nodes * GRID_REFINE ** k for k in range(rounds + 1)
                         for nodes in (LAYER_NODES, LAYER_NODES // 2)]
        assert P.samples_or_nodes == V.samples_or_nodes == sum(calls)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("R", [1.5, 10.0, 50.0])
def test_moment_integrals_of_weight_one(n, R):
    # with g = 1 the sweep moments are Euclidean: W = R omega_{N-1}, the
    # meridian section's volume times its centre's distance, and Band =
    # (N-1) R omega_{N-1} on its boundary sphere, each within its estimate
    # on the layer rule (N = 2: Band is the two end points, (R+1) + (R-1))
    (band, band_error, band_n), (wedge, wedge_error, wedge_n) = moment_integrals(
        np.ones_like, n, R)
    length = R * unit_ball_volume(n - 1)
    assert abs(wedge - length) <= wedge_error
    assert abs(band - (n - 1) * length) <= band_error
    assert band_n == (2 if n == 2 else wedge_n)


def test_moment_integrals_share_the_profile():
    # Band_g and W_g run on the same nodes: one profile call per rule in all
    # (N = 2: the band's end points are one call besides)
    from isoplab.defaults import LAYER_NODES
    for n, extra in ((3, []), (2, [2])):
        calls = []

        def profile(r):
            calls.append(np.size(r))
            return np.exp(-np.asarray(r, dtype=float))
        moment_integrals(profile, n, 10.0)
        assert calls == extra + [LAYER_NODES, LAYER_NODES // 2]


def test_running_integral_closed_forms_at_unsorted_limits():
    # limits in any order; the endpoint factor (1 - t^2)^{1/2} is smooth in
    # u = asin(t), so its square-root ends cost no accuracy
    s = np.array([0.5, -0.999, 0.0, 1.0, -0.3, 0.999999])
    poly = running_integral(lambda t: 1.0 - 3.0 * t * t, s)
    assert np.allclose(poly, s - s ** 3, rtol=0.0, atol=1e-14)
    root = running_integral(lambda t: np.sqrt(1.0 - t * t), s)
    ref = 0.5 * (s * np.sqrt(1.0 - s * s) + np.arcsin(s)) + math.pi / 4
    assert np.allclose(root, ref, rtol=0.0, atol=1e-14)
    assert float(running_integral(lambda t: t * t, 1.0)) == pytest.approx(2.0 / 3.0,
                                                                          abs=1e-15)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_layer_integrals_are_refused():
    # N = 2, a breakpoint within 3e-13 of t = 1: a node t = sin(u) of that
    # narrow panel rounds onto 1, where the area kernel is infinite
    g = RadialDeficit(dim=2, profile=lambda r: ((np.asarray(r) >= 5.0)
                                                & (np.asarray(r) <= 6.0)).astype(float),
                      support_hint=6.0, breakpoints=(5.0, 6.0))
    message = r"not finite in row\(s\) \[0\]; the breakpoint nearest \+-1 is t = 0\.99999"
    with pytest.raises(RuntimeError, match=message):
        correlation(excess_kernel(2), g, 5.0000000000003)
    with pytest.raises(RuntimeError, match=message):
        ball_deficit_measures(g, 2, 5.0000000000003)
    with pytest.raises(RuntimeError, match=message):
        find_far_radius(g, 2, 0.05, 4.0000000000003, 9.0)
    with pytest.raises(RuntimeError, match=r"row\(s\) \[1\]; .* t = None"):
        layer_integral(lambda t: np.stack([t, np.full_like(t, np.nan)]))
