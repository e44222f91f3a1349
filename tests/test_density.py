import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoplab import (ConfigError, Density, SampleSpec, deficit_profile,
                     density_from_config, eval_weight, mean_density,
                     radial_average, rescale, unit_ball_volume,
                     validate_convergence, weighted_ball_measures)
import isoplab.density
from isoplab.defaults import BLOCK_POINTS
from isoplab.density import deficit_weight


def test_eval_weight_constant(const2):
    assert eval_weight(const2, [3.0, -4.0]) == 1.0


def test_eval_weight_exp_origin_and_unit(exp2):
    assert eval_weight(exp2, [0.0, 0.0]) == 0.0
    assert eval_weight(exp2, [1.0, 0.0]) == pytest.approx(1.0 - 1.0 / math.e,
                                                          abs=1e-15)


def test_eval_weight_rejects_nonfinite(exp2):
    with pytest.raises(ValueError):
        eval_weight(exp2, [math.inf, 0.0])


def test_eval_weight_rejects_bad_dim(exp2):
    with pytest.raises(ValueError):
        eval_weight(exp2, [1.0, 0.0, 0.0])


def test_radial_average_radial_short_circuit(exp2):
    # radial short-circuit agrees with pointwise evaluation
    for r in (0.0, 0.5, 2.0, 17.0):
        assert radial_average(exp2, r) == pytest.approx(
            eval_weight(exp2, [r, 0.0]), abs=1e-12)


def test_radial_average_angular_mod_cancels(angular2):
    # the cosine modulation averages out on every circle
    assert radial_average(angular2, 1.0) == pytest.approx(1.0 - 1.0 / math.e,
                                                          abs=1e-12)


def test_radial_average_constant_any_radius(const2):
    for r in (0.0, 1.0, 10.0):
        assert radial_average(const2, r) == pytest.approx(1.0, abs=1e-15)


def test_radial_average_node_floor(exp2):
    with pytest.raises(ValueError):
        radial_average(exp2, 1.0, node_count=8)


def test_deficit_profile_exp(exp2):
    g = deficit_profile(exp2)
    r = np.array([0.5, 1.0, 3.0])
    assert np.allclose(g.profile(r), np.exp(-r), atol=1e-13)


def test_deficit_profile_constant_zero(const2):
    g = deficit_profile(const2)
    assert g.profile(5.0) == 0.0


def test_deficit_profile_angular_mod(angular2):
    g = deficit_profile(angular2)
    assert g.profile(1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_deficit_profile_is_accurate_far_out(exp2):
    # the closed-form deficit keeps precision far below the weight's
    # rounding floor, where a - float(f) would be exactly zero
    g = deficit_profile(exp2)
    assert g.profile(50.0) == pytest.approx(math.exp(-50.0), rel=1e-12)


def test_deficit_nonnegative_beyond_envelope(angular2):
    g = deficit_weight(angular2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(256, 2)) * 5.0
    assert np.all(np.asarray(g(x)) >= -1e-12)


def test_validate_convergence_passes_below(exp2):
    assert validate_convergence(exp2).passed


def test_validate_convergence_fails_from_above():
    bad = Density(dim=2, limit_a=1.0, radial=True, label="above",
                  weight=lambda x: 1.0 + np.exp(
                      -np.linalg.norm(np.asarray(x, dtype=float), axis=-1)))
    report = validate_convergence(bad)
    assert not report.passed
    assert report.violations


def test_validate_convergence_angular_mod(angular2):
    # 1 + eta cos stays positive, so the weight never exceeds the limit
    assert validate_convergence(angular2).passed


def test_validate_convergence_custom_spec(exp2):
    spec = SampleSpec(radii=(1.0, 2.0, 4.0), decay_radius=30.0,
                      decay_bound=1e-9)
    assert validate_convergence(exp2, spec).passed


def test_rescale_identity(const2):
    _, lam = rescale(const2, unit_ball_volume(2))
    assert lam == pytest.approx(1.0, abs=1e-15)


def test_rescale_constant_four():
    d = density_from_config({"family": "constant", "dim": 2, "a": 4.0})
    out, lam = rescale(d, 4.0 * math.pi)
    assert lam == pytest.approx(1.0, abs=1e-15)
    assert eval_weight(out, [2.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_rescale_lambda_two(const2):
    out, lam = rescale(const2, 4.0 * math.pi)
    assert lam == pytest.approx(2.0, abs=1e-14)
    assert out.limit_a == 1.0
    # the disk of Euclidean area 4 pi maps under x -> x/lam to area omega_2
    P, V = weighted_ball_measures(lambda x: np.asarray(out.weight(x)), 2,
                                  np.zeros(2), radius=2.0 / lam)
    assert V == pytest.approx(math.pi, abs=1e-10)


def test_rescale_keeps_convergence(exp2):
    out, _ = rescale(exp2, 7.0)
    assert out.limit_a == 1.0
    assert validate_convergence(out).passed


def test_rescale_mean_density_scaling():
    # mean density after rescale equals the original divided by the limit
    d = density_from_config({"family": "radial_exp", "dim": 2, "a": 3.0,
                             "params": {"c": 0.7}})
    R, n = 4.0, 2
    P, V = weighted_ball_measures(lambda x: np.asarray(d.weight(x)), n,
                                  R * np.eye(n)[0], nodes=96)
    rho = mean_density(P, V, n)
    out, lam = rescale(d, unit_ball_volume(n))
    P2, V2 = weighted_ball_measures(lambda x: np.asarray(out.weight(x)), n,
                                    (R / lam) * np.eye(n)[0],
                                    radius=1.0 / lam, nodes=96)
    rho2 = mean_density(P2, V2, n)
    assert rho2 == pytest.approx(rho / d.limit_a, abs=1e-9)


def test_config_requires_fields():
    with pytest.raises(ConfigError, match="dim: required"):
        density_from_config({"family": "constant", "a": 1.0})
    with pytest.raises(ConfigError, match="family"):
        density_from_config({"family": "nope", "dim": 2, "a": 1.0})
    with pytest.raises(ConfigError):
        density_from_config({"family": "radial_exp", "dim": 2, "a": 1.0,
                             "params": {"c": -1.0}})


def test_angular_mod_clamps_at_origin(angular2):
    # the raw modulation would be negative at the origin; the weight clamps
    assert eval_weight(angular2, [0.0, 0.0]) == 0.0
    g = deficit_weight(angular2)
    assert float(g(np.zeros((1, 2)))[0]) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_angular_mod_deficit_matches_angle_formula(n, k):
    # the deficit evaluates cos(k theta) as a Chebyshev polynomial in x1/r;
    # reference: exp(-c r)(1 + eta cos(k theta)) with theta = arccos(x1/r),
    # equal up to rounding of r amplified by c r <= 60 in the exponential
    eta, c = 0.5, 1.0
    d = density_from_config({"family": "angular_mod", "dim": n, "a": 1.0,
                             "params": {"eta": eta, "k": k, "c": c}})
    rng = np.random.default_rng(5)
    u = rng.normal(size=(2000, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u[:2] = np.eye(n)[0] * np.array([[1.0], [-1.0]])   # theta = 0 and pi
    x = u * rng.uniform(0.5, 60.0, size=(2000, 1))
    r = np.linalg.norm(x, axis=1)
    theta = np.arccos(np.clip(x[:, 0] / r, -1.0, 1.0))
    ref = np.exp(-c * r) * (1.0 + eta * np.cos(k * theta))
    got = np.asarray(deficit_weight(d)(x))
    assert np.allclose(got, ref, rtol=1e3 * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("family", ["radial_exp", "radial_power", "angular_mod"])
def test_weights_do_not_depend_on_point_layout(family, n):
    # |x| sums the squared coordinates in order, so C- and Fortran-ordered
    # copies of the same points give the same floats to the last bit
    d = density_from_config({"family": family, "dim": n, "a": 1.0})
    x = 5.0 * np.random.default_rng(17).standard_normal((20_000, n))
    c_pts, f_pts = np.ascontiguousarray(x), np.asfortranarray(x)
    assert np.array_equal(eval_weight(d, c_pts), eval_weight(d, f_pts))
    g = deficit_weight(d)
    assert np.array_equal(g(c_pts), g(f_pts))


@settings(max_examples=25, deadline=None)
@given(r=st.floats(0.1, 30.0), c=st.floats(0.2, 2.0))
def test_deficit_matches_weight_where_resolvable(r, c):
    d = density_from_config({"family": "radial_exp", "dim": 2, "a": 1.0,
                             "params": {"c": c}})
    g = deficit_weight(d)
    x = np.array([[r, 0.0]])
    direct = 1.0 - float(np.asarray(d.weight(x))[0])
    assert float(np.asarray(g(x))[0]) == pytest.approx(direct, abs=1e-12)


def _angular(n):
    return density_from_config({"family": "angular_mod", "dim": n, "a": 1.0,
                                "params": {"eta": 0.5, "k": 1, "c": 1.0}})


@pytest.mark.parametrize("n, node_count, counts", [
    (2, 64, (1, 7, 65)), (3, 64, (1, 7, 65)), (4, 16, (1, 7, 65)), (4, 32, (1, 7))])
def test_blocked_profile_equals_one_block(monkeypatch, n, node_count, counts):
    # the radii go to the deficit in blocks of at most BLOCK_POINTS points,
    # and a sphere grid larger than a block (N=4 at 32 nodes: 32,768
    # directions) one radius at a time in the leaves of its pairwise tree:
    # each radius's mean is the float of one sum over its whole grid
    d, sizes = _angular(n), []

    def counted(x):
        sizes.append(len(x))
        return d.deficit(x)
    radii = [3.5] + [np.linspace(0.5, 30.0, m) for m in counts]
    profile = deficit_profile(dataclasses.replace(d, deficit=counted), node_count)
    blocked = [profile.profile(r) for r in radii]
    monkeypatch.setattr(isoplab.density, "BLOCK_POINTS", 2 ** 40)
    whole = [deficit_profile(d, node_count).profile(r) for r in radii]
    assert isinstance(blocked[0], float) and blocked[0] == whole[0]
    for got, expected in zip(blocked[1:], whole[1:], strict=True):
        assert got.shape == expected.shape and np.array_equal(got, expected)
    assert max(sizes) <= BLOCK_POINTS


def test_profile_memory_does_not_grow_with_its_radii(traced_peak):
    # 8 radii of the N=4 profile are 2.1 M deficit points: 151 MB traced
    # when they went to the deficit at once
    profile = deficit_profile(_angular(4)).profile
    r = np.linspace(1.0, 30.0, 8)
    assert traced_peak(lambda: profile(r)) <= 4e6
