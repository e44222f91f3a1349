import dataclasses
import math
from functools import partial

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
from isoplab.quadrature import sphere_grid


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


@pytest.mark.parametrize("n, k, ceiling", [(2, 128, 256), (4, 32, 64)])
def test_sphere_rule_refuses_at_its_ceiling(n, k, ceiling):
    # cos(k theta) folds onto mode 0 on the ceiling rule's half rule (N=2:
    # 128 on the 128-node circle), or is not resolved by it (N=4, whose
    # ceiling stays at 64 nodes per angle: 256^3 points exceed
    # BALL_CHUNK_POINTS); the weight's mean and the deficit's are refused
    # alike, naming the check, the radius and the rule
    d = _angular(n, k)
    for mean in (partial(radial_average, d), deficit_profile(d).profile):
        with pytest.raises(RuntimeError) as err:
            mean(10.0)
        message = str(err.value)
        assert f"sphere rule of {ceiling} nodes per angle" in message
        assert "at r = 10 " in message
        assert f"the {ceiling // 2}-node half rule's" in message
        assert f"{ceiling} nodes per angle is the ceiling of sphere_grid({n}" in message


def _sphere_mean_of_t_k(n, k):
    """The mean of T_k(cos theta) over S^{n-1}, n = 2 or 3: on S^2,
    ((-1)^k + 1) / (2 (1 - k^2)), which is 0 for odd k."""
    if n == 2:
        return 1.0 if k == 0 else 0.0
    return 0.0 if k % 2 else 1.0 / (1 - k * k)


@pytest.mark.parametrize("n, k, refused", [
    (2, 1, False), (2, 64, False), (2, 1056, False), (3, 1, False), (3, 64, False),
    (3, 150, True), (3, 200, True)])
def test_profile_lies_within_its_estimate_or_refuses(n, k, refused):
    # angular_mod's exact profile is e^{-r} (1 + eta m_k), m_k the sphere
    # mean of T_k(cos theta).  A fixed 64-node rule read N=2 k=64 50% high
    # (mode 64 folds onto mode 0 on 64 points), N=3 k=150 1.5% high and
    # k=200 7.9% low, with no estimate.  The sized rule either resolves the
    # mode, and the error lies within its estimate, or refuses at its
    # ceiling, naming its rule: N=3 k >= 150 is not resolved by 128 polar
    # nodes, the half rule of the 256-node ceiling
    g = deficit_profile(_angular(n, k))
    r = np.array([10.0, 10.5])
    if refused:
        with pytest.raises(RuntimeError, match="sphere rule of 256 nodes per angle"):
            g.profile(r, estimate=True)
        return
    means, errors = g.profile(r, estimate=True)
    exact = np.exp(-r) * (1.0 + 0.5 * _sphere_mean_of_t_k(n, k))
    assert np.all(np.abs(means - exact) <= errors)
    assert np.all(errors <= 1e-12 * exact)
    assert np.array_equal(g.profile(r), means)


def test_first_sphere_rule_is_blind_to_modes_at_multiples_of_15_16_17():
    # a known defect, pinned so that a change to it shows (ROADMAP item 14):
    # at N=2 a mode k = 0 mod 15 * 16 * 17 = 4080 folds onto mode 0 on the
    # 16-node circle, its 8-node half rule and the 17- and 15-node checks
    # alike, so the four agree on the aliased mean and the first rule is
    # accepted 50% high with a rounding-level estimate.  k = 16 * 15 is
    # folded onto 0 by every rule but the 17-node check, and k = 16 * 17 by
    # every rule but the 15-node check: each is refined until the rule
    # resolves it
    exact = math.exp(-10.0)
    g = deficit_profile(_angular(2, 15 * 16 * 17))
    means, errors = g.profile(10.0, estimate=True)
    assert means == pytest.approx(1.5 * exact, rel=1e-13) and errors < 1e-12 * exact
    for k in (16 * 15, 16 * 17):
        means, errors = deficit_profile(_angular(2, k)).profile(10.0, estimate=True)
        assert abs(means - exact) <= errors < 1e-12 * exact


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


def _angular(n, k=1):
    return density_from_config({"family": "angular_mod", "dim": n, "a": 1.0,
                                "params": {"eta": 0.5, "k": k, "c": 1.0}})


@pytest.mark.parametrize("n, node_count, counts", [
    (2, 64, (1, 7, 65)), (3, 64, (1, 7, 65)), (4, 16, (1, 7, 65)), (4, 32, (1, 7))])
def test_blocked_profile_equals_one_block(monkeypatch, n, node_count, counts):
    # a rung of the sized profile, sphere_grid(n, p, p) with its p / 2,
    # p + 1 and p - 1 checks (p = node_count), takes the radii in blocks of
    # at most BLOCK_POINTS points, the four rules sharing the calls, and a rule
    # larger than a block (N=4 at 32 nodes: 32,768 directions) one radius
    # at a time in the leaves of its pairwise tree: each radius's mean, and
    # its mean of |g|, is the float of one sum over its whole grid, as when
    # the rule is averaged alone
    d, sizes = _angular(n), []

    def counted(x):
        sizes.append(len(x))
        return d.deficit(x)
    grids = [sphere_grid(n, q, q)
             for q in (node_count, node_count // 2, node_count + 1, node_count - 1)]
    radii = [np.array([3.5])] + [np.linspace(0.5, 30.0, m) for m in counts]
    mean = isoplab.density._spherical_mean
    blocked = [mean(counted, n, r, grids) for r in radii]
    alone = [np.stack([mean(d.deficit, n, r, [grid])[0] for grid in grids])
             for r in radii]
    profile = deficit_profile(d).profile
    first = profile(3.5)
    monkeypatch.setattr(isoplab.density, "BLOCK_POINTS", 2 ** 40)
    whole = [mean(d.deficit, n, r, grids) for r in radii]
    for r, got, single, expected in zip(radii, blocked, alone, whole, strict=True):
        assert got.shape == expected.shape == (4, 2, r.size)
        assert np.array_equal(got, expected) and np.array_equal(got, single)
    assert max(sizes) <= BLOCK_POINTS
    assert isinstance(first, float) and first == profile(3.5)


def test_profile_memory_does_not_grow_with_its_radii(traced_peak):
    # 8 radii of the N=4 profile are 2.1 M deficit points: 151 MB traced
    # when they went to the deficit at once
    profile = deficit_profile(_angular(4)).profile
    r = np.linspace(1.0, 30.0, 8)
    assert traced_peak(lambda: profile(r)) <= 4e6
