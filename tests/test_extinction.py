import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoplab import (PlainBall, RotationSwept, TailMassCurve,
                     comparison_check, extinction_time, set_measures,
                     simulate_comparison_ode, tail_mass, tail_mass_curve)


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
    assert (curve.times, curve.masses) == _stepped_ode(C2, n, m0, step)


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
