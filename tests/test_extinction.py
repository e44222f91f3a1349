import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoplab import (PlainBall, RotationSwept, TailMassCurve,
                     comparison_check, density_from_config, extinction_time,
                     set_measures, simulate_comparison_ode, tail_mass,
                     tail_mass_curve)
from isoplab.defaults import BLOCK_POINTS
from isoplab.density import eval_weight
from isoplab.layers import cap_geometry
from isoplab.measures import set_frame, sphere_cap_patch
from isoplab.quadrature import frame_from_axis, gauss_nodes


def lens_complement_area(R):
    """Area of the unit disk at distance R outside the origin ball of radius R
    (two-circle lens formula)."""
    d, r = R, 1.0
    t1 = R * R * math.acos((d * d + R * R - r * r) / (2 * d * R))
    t2 = r * r * math.acos((d * d + r * r - R * R) / (2 * d * r))
    t3 = 0.5 * math.sqrt((-d + r + R) * (d + r - R) * (d - r + R) * (d + r + R))
    return math.pi - (t1 + t2 - t3)


def test_extinction_time_reference_values():
    assert extinction_time(1.0, 2, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert extinction_time(8.0, 3, 1.0) == pytest.approx(12.0, abs=1e-12)


def test_extinction_time_vanishes_with_mass():
    assert extinction_time(1.0, 2, 1e-30) < 1e-14


def test_extinction_time_validation():
    with pytest.raises(ValueError):
        extinction_time(0.0, 2, 1.0)
    with pytest.raises(ValueError):
        extinction_time(1.0, 2, 0.0)


def test_simulation_matches_closed_form():
    cert = simulate_comparison_ode(1.0, 2, 1.0)
    assert cert.residual <= 1e-9
    cert = simulate_comparison_ode(8.0, 3, 1.0)
    assert cert.residual <= 1e-9


def _stepped_ode(C2, n, m0, step):
    """The equality flow stepped one step at a time: u -= rate * step and
    t += step until a step would reach zero, whose crossing is solved."""
    rate = 1.0 / (n * C2 ** ((n - 1) / n))
    u, t = m0 ** (1.0 / n), 0.0
    times, masses = [0.0], [m0]
    while u > 0.0:
        if u - rate * step <= 0.0:
            t += u / rate
            u = 0.0
        else:
            u -= rate * step
            t += step
        times.append(t)
        masses.append(u ** n)
    return tuple(times), tuple(masses)


@pytest.mark.parametrize("C2, n, m0, step", [
    (8.0, 3, 1.0, 1e-4), (1.0, 2, 1.0, 1e-3), (0.5, 4, 0.3, 2e-3),
    (3.0, 6, 2.5, 7e-4), (5.0, 3, 1.0, 10.0)])
def test_simulation_equals_the_stepped_flow(C2, n, m0, step):
    # the accumulated steps are the same floats as the loop's, one by one
    curve = simulate_comparison_ode(C2, n, m0, step).curve
    assert ((tuple(curve.times.tolist()), tuple(curve.masses.tolist()))
            == _stepped_ode(C2, n, m0, step))


def test_simulation_quadratic_profile():
    # N = 2, C2 = 1, m0 = 1: the solution is (1 - t/2)^2
    cert = simulate_comparison_ode(1.0, 2, 1.0, step=1e-3)
    t = np.asarray(cert.curve.times)
    m = np.asarray(cert.curve.masses)
    assert np.max(np.abs(m - np.maximum(1.0 - t / 2.0, 0.0) ** 2)) < 1e-12


def test_simulation_curve_monotone():
    cert = simulate_comparison_ode(0.5, 4, 0.3, step=2e-3)
    assert np.all(np.diff(np.asarray(cert.curve.masses)) <= 0.0)
    assert np.all(np.asarray(cert.curve.masses) >= 0.0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 4), C2=st.sampled_from([0.5, 1.0, 8.0]),
       m0=st.sampled_from([0.1, 1.0]))
def test_simulation_sweep_matches_formula(n, C2, m0):
    cert = simulate_comparison_ode(C2, n, m0, step=1e-3)
    assert cert.residual <= 1e-6


def test_comparison_stricter_constant_lies_below():
    # the equality curve for C2/2 satisfies the inequality for C2 and stays
    # below the C2 equality curve
    base = simulate_comparison_ode(0.5, 2, 1.0, step=5e-4)
    rep = comparison_check(base.curve, 1.0, 2, grid_tol=1e-5)
    assert rep.passed


def test_comparison_flags_violations():
    # a curve frozen above the equality solution violates the comparison
    t = tuple(np.linspace(0.0, 1.5, 40))
    m = tuple(1.0 - 0.1 * np.asarray(t))          # too slow a decay
    rep = comparison_check(TailMassCurve(t, m, "analytic"), 1.0, 2)
    assert not rep.passed


def test_curve_fields_are_read_only_float_arrays():
    # the integrator's curve and a given one hold read-only float64 arrays:
    # a caller's array is viewed, not copied (and stays writeable), and a
    # tuple is converted
    t = np.array([0.0, 1.0])
    given = TailMassCurve(t, (2, 1), "analytic")
    for curve in (simulate_comparison_ode(1.0, 2, 1.0).curve, given):
        for a in (curve.times, curve.masses):
            assert isinstance(a, np.ndarray) and a.dtype == np.float64
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.5
    assert np.shares_memory(given.times, t) and t.flags.writeable
    assert given.masses.tolist() == [2.0, 1.0]


def test_curve_validation():
    with pytest.raises(ValueError):
        TailMassCurve((0.0, 1.0), (1.0, -0.5), "analytic")
    with pytest.raises(ValueError):
        TailMassCurve((0.0, 0.0), (1.0, 0.5), "analytic")


def test_tail_mass_whole_set(const2):
    E = PlainBall(dim=2, offset=10.0)
    assert tail_mass(E, const2, 0.0) == pytest.approx(math.pi, abs=1e-12)


def test_tail_mass_beyond_outer_radius(const2):
    E = PlainBall(dim=2, offset=10.0)
    assert tail_mass(E, const2, 11.5) == 0.0


def test_tail_mass_through_center_lens_value(const2):
    # slicing at the center radius leaves the lens complement, a bit more
    # than half the disk (the cutting circle bows inward)
    E = PlainBall(dim=2, offset=10.0)
    truth = lens_complement_area(10.0)
    assert tail_mass(E, const2, 10.0) == pytest.approx(truth, abs=1e-10)
    # seeded Monte-Carlo cross-check
    rng = np.random.default_rng(99)
    m = 2_000_000
    pts = rng.uniform(-1, 1, size=(m, 2))
    keep = np.einsum("ij,ij->i", pts, pts) <= 1.0
    pts[:, 0] += 10.0
    frac_outside = np.mean(keep & (np.linalg.norm(pts, axis=1) > 10.0))
    est = 4.0 * frac_outside
    err = 4.0 * math.sqrt(frac_outside * (1 - frac_outside) / m)
    assert abs(truth - est) <= 3.0 * err


def test_tail_mass_weighted(exp2):
    E = PlainBall(dim=2, offset=5.0)
    full = tail_mass(E, exp2, 0.0)
    part = tail_mass(E, exp2, 5.0)
    assert 0.0 < part < full
    P, V = set_measures(E, exp2)
    assert full == pytest.approx(V.value, abs=1e-9)


def test_tail_mass_curve_monotone(exp2):
    E = PlainBall(dim=2, offset=5.0)
    curve = tail_mass_curve(E, exp2, np.linspace(0.0, 6.5, 14))
    m = np.asarray(curve.masses)
    assert np.all(np.diff(m) <= 1e-12)
    assert curve.source == "measured-from-set"


def test_tail_mass_swept_set_mc(const2):
    # extended families fall back to seeded rejection sampling
    E = RotationSwept(dim=2, offset=10.0, delta=0.05)
    v = tail_mass(E, const2, 10.0, mc_samples=300_000, seed=4)
    # whole set volume is pi + 2 R delta; outside-half is near the lens value
    # plus the swept wedge, loosely bracketed here
    assert 1.4 < v < 2.6
    assert tail_mass(E, const2, 10.0, mc_samples=300_000, seed=4) == v


def test_tail_mass_swept_set_nonincreasing(exp2):
    # at a fixed seed the draw does not depend on t, so the estimate is
    # exactly nonincreasing in t, and 0.0 beyond the outer radius R + 1
    E = RotationSwept(dim=2, offset=10.0, delta=0.05)
    times = np.linspace(8.5, 11.5, 13)
    m = [tail_mass(E, exp2, t, mc_samples=50_000, seed=4) for t in times]
    assert m[0] > 0.0
    assert all(b <= a for a, b in zip(m, m[1:]))
    assert tail_mass(E, exp2, 11.0 + 1e-9, mc_samples=50_000, seed=4) == 0.0
    assert m[-1] == 0.0


def test_tail_mass_curve_draws_once_for_a_swept_set(exp3, monkeypatch):
    # the curve's masses are the per-t tail masses, from one Monte-Carlo
    # draw; t = 11 = R + 1 takes tail_mass's closed branch
    import isoplab.extinction as extinction
    E = RotationSwept(dim=3, offset=10.0, delta=0.05)
    times = np.linspace(9.5, 11.5, 5)
    single = [tail_mass(E, exp3, float(t), seed=5) for t in times]
    draws = []
    original = extinction.mc_integrals

    def counted(makers, fns, samples, seed):
        draws.append(len(fns))
        return original(makers, fns, samples, seed)
    monkeypatch.setattr(extinction, "mc_integrals", counted)
    curve = tail_mass_curve(E, exp3, times, seed=5)
    assert list(curve.masses) == single
    assert draws == [3]
    assert single[0] > single[1] > single[2] > 0.0 == single[3] == single[4]


def test_tail_mass_curve_slices_each_lower_limit_once(exp3, monkeypatch):
    # on a plain ball every t in (0, R - 1] slices from R - 1: 8.5 and 9.0
    # share a slicing, and t >= R + 1 takes tail_mass's closed branch
    import isoplab.extinction as extinction
    E = PlainBall(dim=3, offset=10.0)
    times = np.linspace(8.5, 11.5, 7)
    single = [tail_mass(E, exp3, float(t)) for t in times]
    slicings = []
    original = extinction.gauss_nodes

    def counted(a, b, n):
        slicings.append(a)
        return original(a, b, n)
    monkeypatch.setattr(extinction, "gauss_nodes", counted)
    curve = tail_mass_curve(E, exp3, times)
    assert list(curve.masses) == single
    assert len(slicings) == 4
    assert single[0] == single[1] > single[2] > single[3] > single[4] > 0.0
    assert single[5] == single[6] == 0.0


def _sliced_tail_mass(E, d, t, nodes):
    """The plain ball's tail mass slice by slice, the reference for
    ``tail_mass``: one ``sphere_cap_patch`` per slice, one ``np.add.reduce``
    over it, and a Python running sum."""
    n, R = E.dim, E.offset
    frame = frame_from_axis(set_frame(E)[:, 0])
    lo = max(t, R - 1.0)
    u_nodes, u_w = gauss_nodes(math.asin(lo - R), math.pi / 2, 160)
    total = 0.0
    for u, wu in zip(u_nodes, u_w):
        s = R + math.sin(u)
        if not abs(s - R) < 1.0:
            continue
        gamma = float(cap_geometry(s, R))
        pts, w = sphere_cap_patch(n, s, np.zeros(n), frame, 0.0, gamma, nodes, nodes)
        total += wu * math.cos(u) * float(np.add.reduce(
            np.asarray(eval_weight(d, pts), dtype=float) * w))
    return total


def _family(name, n):
    params = {"c": 1.0} if name == "radial_exp" else {"eta": 0.5, "k": 1, "c": 1.0}
    return density_from_config({"family": name, "dim": n, "a": 1.0, "params": params})


# nodes per angle: caps of 128 (N = 2), 256 (N = 3) and 512 points (N = 4),
# so a run holds 64, 32 and 16 whole caps
_TAIL_NODES = {2: 64, 3: 16, 4: 8}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", ["radial_exp", "angular_mod"])
def test_tail_mass_equals_the_sliced_sum(n, family):
    # the runs of whole caps give each slice's float, and the slices add up
    # in order: equal to the slice-by-slice sum on and off axis, from the
    # lower tangency (t <= R - 1) and from inside the ball
    d, nodes = _family(family, n), _TAIL_NODES[n]
    for R in (1.5, 7.0, 10.0):
        for direction in (None, tuple(np.ones(n) / math.sqrt(n))):
            E = PlainBall(dim=n, offset=R, direction=direction)
            for t in (R - 1.0, R + 0.4):
                expected = _sliced_tail_mass(E, d, t, nodes)
                assert tail_mass(E, d, t, nodes=nodes) == expected


def test_tail_mass_cuts_a_cap_larger_than_a_block():
    # at N = 4 a cap of 24 nodes per angle has 13,824 points: the weight
    # sees it one pairwise leaf at a time, and the leaves' sums add up to
    # the float of one sum over the cap
    d, sizes = _family("angular_mod", 4), []

    def weight(x):
        sizes.append(len(x))
        return d.weight(x)
    recorded = dataclasses.replace(d, weight=weight)
    E = PlainBall(dim=4, offset=7.0, direction=(0.5, 0.5, 0.5, 0.5))
    value = tail_mass(E, recorded, 6.5, nodes=24)
    assert len(sizes) == 2 * 160 and max(sizes) <= BLOCK_POINTS
    assert value == _sliced_tail_mass(E, d, 6.5, 24)
