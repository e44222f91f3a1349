import math

import numpy as np
import pytest

import isoplab.sliding
from isoplab import (RadialDeficit, averaging_identity_residual,
                     check_admissibility, correlation, direct_kernel,
                     excess_kernel, find_far_radius, layer_integral,
                     sliding_sign_search)
from isoplab.defaults import SCAN_STEP

E = math.e


def exp_deficit(n=3):
    return RadialDeficit(dim=n, profile=lambda r: np.exp(-np.asarray(r, dtype=float)))


def bump_deficit():
    def bump(r):
        r = np.asarray(r, dtype=float)
        return ((r >= 5.0) & (r <= 6.0)).astype(float)
    return RadialDeficit(dim=3, profile=bump, support_hint=6.0,
                         breakpoints=(5.0, 6.0))


def test_excess_kernel_n3_closed_forms():
    k = excess_kernel(3)
    t = np.linspace(-0.999, 0.999, 201)
    assert np.allclose(k.values(t), math.pi * (3 * t * t - 1), atol=1e-13)
    assert np.allclose(k.primitive(t), math.pi * (t ** 3 - t), atol=1e-13)
    assert np.allclose(k.running(t), (math.pi / 4) * (1 - t * t) ** 2, atol=1e-13)


def test_excess_kernel_n2_closed_forms():
    k = excess_kernel(2)
    t = np.linspace(-0.999, 0.999, 201)
    assert np.allclose(k.primitive(t), -2 * t * np.sqrt(1 - t * t), atol=1e-13)
    assert np.allclose(k.running(t), (2.0 / 3.0) * (1 - t * t) ** 1.5, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_primitive_matches_quadrature(n):
    # closed-form primitive of the excess kernel vs direct integration
    k = excess_kernel(n)
    from scipy.integrate import quad
    for t0 in (-0.9, -0.3, 0.2, 0.8):
        hi = math.asin(t0)
        ref, _ = quad(lambda u: float(k.values(math.sin(u))) * math.cos(u),
                      -math.pi / 2, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert float(k.primitive(t0)) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_primitive_vanishes_at_one(n):
    val, _, _ = layer_integral(excess_kernel(n).values)
    assert abs(val) < 1e-10


def test_admissibility_excess_kernel():
    rep = check_admissibility(excess_kernel(3))
    assert rep.passed
    assert rep.min_running > 0.0


def test_admissibility_odd_kernel_fails():
    rep = check_admissibility(direct_kernel(lambda t: np.asarray(t, dtype=float)))
    assert not rep.passed
    assert not rep.positive_inside


def test_admissibility_even_quadratic_fails_inside():
    # running integral of 1 - 3 t^2 is s - s^3, negative on (-1, 0), so the
    # positivity condition fails on the left half of the interval
    rep = check_admissibility(direct_kernel(lambda t: 1.0 - 3.0 * np.asarray(t) ** 2))
    assert rep.integral_zero
    assert not rep.positive_inside
    assert rep.min_running == pytest.approx(-2.0 / (3.0 * math.sqrt(3.0)), abs=1e-4)


def test_admissibility_negated_identity_passes():
    # k(t) = -t integrates to zero and its running integral (1 - s^2)/2
    # is strictly positive inside the interval
    rep = check_admissibility(direct_kernel(lambda t: -np.asarray(t, dtype=float)))
    assert rep.passed
    assert rep.min_running == pytest.approx(0.0, abs=1e-5)
    assert rep.min_running > 0.0


def test_admissibility_kinked_direct_kernel():
    # |t| - 1/2 integrates to zero, but one Gauss rule across its kink at
    # t = 0 misses that by ~3e-3; its running integral s^2/2 - s/2 on (0, 1)
    # dips to -1/8 at s = 1/2
    rep = check_admissibility(direct_kernel(lambda t: np.abs(t) - 0.5))
    assert rep.integral_zero
    assert not rep.positive_inside
    assert rep.min_running == pytest.approx(-0.125, abs=1e-12)


def test_correlation_exponential_closed_form():
    k = excess_kernel(3)
    g = exp_deficit()
    expected_const = math.pi * (2 * E - 14 / E)
    for R in (5.0, 10.0, 20.0):
        c, _ = correlation(k, g, R)
        assert c == pytest.approx(expected_const * math.exp(-R), rel=1e-8)


def test_search_exponential_returns_first_grid_point():
    out = sliding_sign_search(excess_kernel(3), exp_deficit(), 5.0, 40.0)
    assert out.found and out.R == 5.0
    assert out.strict and not out.degenerate
    assert out.correlation >= -1e-12


@pytest.mark.parametrize("R_min", [10.0, 50.0])
def test_search_far_out_is_strict_by_its_own_estimate(R_min):
    # at R_min = 50 the correlation is about 1.7e-22: strict compares it
    # with its layer-rule estimate, not with an absolute slack
    from isoplab import deficit_profile, density_from_config
    g = deficit_profile(density_from_config({"family": "radial_exp", "dim": 3,
                                             "a": 1.0, "params": {"c": 1.0}}))
    out = sliding_sign_search(excess_kernel(3), g, R_min, 200.0)
    assert out.found and out.R == R_min and not out.degenerate
    assert out.strict
    assert out.correlation > correlation(excess_kernel(3), g, R_min)[1]


def test_search_degenerate_branch():
    gz = RadialDeficit(dim=3, profile=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                       support_hint=0.0)
    out = sliding_sign_search(excess_kernel(3), gz, 5.0, 20.0)
    assert out.degenerate and out.found
    assert out.correlation == 0.0 and not out.strict


def test_search_bump_against_fine_scan_oracle():
    # brute-force fine scan as the oracle for the first qualifying translate
    k = excess_kernel(3)
    g = bump_deficit()

    def closed_form(R):
        a, b = max(-1.0, 5.0 - R), min(1.0, 6.0 - R)
        if a >= b:
            return 0.0
        F = lambda x: x ** 3 - x
        return math.pi * (F(b) - F(a))

    out = sliding_sign_search(k, g, 4.5, 10.0)
    assert out.found
    assert out.correlation == pytest.approx(closed_form(out.R), abs=1e-10)
    # oracle: first point of the scan grid with nonnegative closed form
    grid = np.arange(4.5, 10.0 + 0.125, 0.25)
    first = next(R for R in grid if closed_form(R) >= 0.0)
    assert out.R == pytest.approx(first)


def test_search_bisects_to_the_crossing_that_the_far_ball_then_skips(monkeypatch):
    # from R_min = 5.6 the bump's correlation is negative at 5.6 and 5.85 and
    # positive at 6.1: 40 bisections sharpen the crossing to R = 6, where
    # the closed form pi (b^3 - b), b = 6 - R, is 0.  The exact-kernel
    # margin is negative there, so find_far_radius re-scans from the
    # bisected R plus SCAN_STEP and certifies that offset, off the scan grid
    k, g = excess_kernel(3), bump_deficit()
    calls, original = [], isoplab.sliding.correlation

    def counted(*args):
        calls.append(args[2])
        return original(*args)
    monkeypatch.setattr(isoplab.sliding, "correlation", counted)
    out = sliding_sign_search(k, g, 5.6, 10.0)
    b = 6.0 - out.R
    assert out.found and abs(out.R - 6.0) <= 1e-9
    assert out.correlation >= 0.0
    assert out.correlation == pytest.approx(math.pi * (b ** 3 - b), abs=1e-10)
    assert [R for R, _ in out.scan] == pytest.approx([5.6, 5.85, 6.1], abs=1e-15)
    assert len(calls) == 3 + 40
    cert = find_far_radius(g, 3, 0.05, 5.6, 10.0)
    assert cert.R == out.R + SCAN_STEP
    assert cert.margin >= 0.0


def test_search_rejects_bad_range():
    with pytest.raises(ValueError):
        sliding_sign_search(excess_kernel(2), exp_deficit(2), 0.5, 10.0)
    with pytest.raises(ValueError):
        sliding_sign_search(excess_kernel(2), exp_deficit(2), 5.0, 4.0)


def test_averaging_identity_exponential():
    lhs, rhs, resid = averaging_identity_residual(excess_kernel(3),
                                                  exp_deficit(), 5.0, 10.0)
    assert resid < 1e-8
    # closed form: the correlation constant integrates over [5, 10]
    const = math.pi * (2 * E - 14 / E)
    assert lhs == pytest.approx(const * (math.exp(-5.0) - math.exp(-10.0)),
                                rel=1e-9)


def test_averaging_identity_direct_kernel():
    k = direct_kernel(lambda t: -np.asarray(t, dtype=float) *
                      (1 - np.asarray(t, dtype=float) ** 2))
    lhs, rhs, resid = averaging_identity_residual(k, exp_deficit(), 5.0, 8.0)
    assert resid < 1e-8


@pytest.mark.parametrize("kernel", [
    excess_kernel(2), excess_kernel(3),
    direct_kernel(lambda t: -np.asarray(t) * (1 - np.asarray(t) ** 2), "cubic")],
    ids=["excess2", "excess3", "direct"])
@pytest.mark.parametrize("window", [(3.0, 8.0), (4.5, 6.5), (5.2, 9.0)])
def test_averaging_identity_across_breakpoints(kernel, window):
    # the bump's edges 5 and 6 enter and leave the sliding window inside
    # (R1, R2) and cut the right-hand windows, where the correlation has
    # square-root ends (N = 2) or kinks
    *_, resid = averaging_identity_residual(kernel, bump_deficit(), *window)
    assert resid <= 1e-12


def test_averaging_identity_requires_separation():
    with pytest.raises(ValueError):
        averaging_identity_residual(excess_kernel(3), exp_deficit(), 5.0, 6.0)
