import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoplab import (CylinderExtended, PlainBall, RotationSwept,
                     ball_deficit_measures, deficit_profile,
                     density_from_config, mean_density, profile_upper_bound,
                     set_measures, unit_ball_volume, weighted_ball_measures)
from isoplab.density import deficit_weight
from isoplab.defaults import VOLUME_RTOL
from isoplab.measures import (_LOWER, _UPPER, _WHOLE, CylinderFamily,
                              GaussPass, Sample, _sphere, ball_cap_patch,
                              gauss, integrate_patches, mc_integrals,
                              set_patches, sized_pass, sphere_cap_patch,
                              swept_patches)
from isoplab.quadrature import frame_from_axis


def euclid_cylinder(n, R, delta):
    k = (R - delta) / R
    om, om1 = unit_ball_volume(n), unit_ball_volume(n - 1)
    V = 0.5 * om + om1 * delta + 0.5 * om * k ** n
    P = (0.5 * n * om + (n - 1) * om1 * delta + 0.5 * n * om * k ** (n - 1)
         + om1 * (1.0 - k ** (n - 1)))
    return P, V


def euclid_swept(n, R, delta):
    om, om1 = unit_ball_volume(n), unit_ball_volume(n - 1)
    V = om + om1 * R * delta
    P = n * om + (n - 1) * om1 * R * delta
    return P, V


def test_plain_ball_euclidean(const2):
    P, V = set_measures(PlainBall(dim=2, offset=10.0), const2)
    assert P.value == pytest.approx(2 * math.pi, abs=1e-12)
    assert V.value == pytest.approx(math.pi, abs=1e-12)


def test_rotation_swept_euclidean(const2):
    # the wedge swept by the meridian disk adds exactly om1 * R * delta
    P, V = set_measures(RotationSwept(dim=2, offset=10.0, delta=0.01), const2)
    assert V.value - math.pi == pytest.approx(0.2, abs=1e-12)
    assert P.value - 2 * math.pi == pytest.approx(0.2, abs=1e-12)


def test_cylinder_extended_euclidean(const2):
    R, delta = 100.0, 0.01
    E = CylinderExtended(dim=2, offset=R, delta=delta)
    P, V = set_measures(E, const2)
    Pe, Ve = euclid_cylinder(2, R, delta)
    assert V.value == pytest.approx(Ve, abs=1e-12)
    assert P.value == pytest.approx(Pe, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_euclidean_closed_forms_all_variants(n):
    from isoplab import density_from_config
    one = density_from_config({"family": "constant", "dim": n, "a": 1.0})
    R, delta = 6.0, 0.07
    P, V = set_measures(CylinderExtended(dim=n, offset=R, delta=delta), one)
    Pe, Ve = euclid_cylinder(n, R, delta)
    assert V.value == pytest.approx(Ve, rel=1e-12)
    assert P.value == pytest.approx(Pe, rel=1e-12)
    P, V = set_measures(RotationSwept(dim=n, offset=R, delta=delta), one)
    Pe, Ve = euclid_swept(n, R, delta)
    assert V.value == pytest.approx(Ve, rel=1e-12)
    assert P.value == pytest.approx(Pe, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_set_patches_integrate_to_closed_form_excess(n):
    # under the weight 1 each family's one patch list integrates to the unit
    # ball's measures plus the family's closed-form excess
    direction = tuple(np.linspace(1.0, 2.0, n) / np.linalg.norm(np.linspace(1.0, 2.0, n)))
    R = 10.0
    sets = [PlainBall(dim=n, offset=R, direction=direction),
            CylinderExtended(dim=n, offset=R, delta=0.3, direction=direction),
            CylinderExtended(dim=n, offset=R, delta=0.0, direction=direction),
            RotationSwept(dim=n, offset=R, delta=0.2, direction=direction)]
    omega = unit_ball_volume(n)

    def one(x):
        return np.ones(len(x))
    for E in sets:
        patches = set_patches(E, 16, 16)
        V = integrate_patches(one, [make() for make in patches.volume.values()])
        P = integrate_patches(one, [make() for make in patches.surface.values()])
        assert V == pytest.approx(omega + patches.volume_excess, rel=1e-12)
        assert P == pytest.approx(n * omega + sum(patches.perimeter_excess),
                                  rel=1e-12)
    # k = 0.97 < 1 exposes the annulus; height zero has no wall or annulus
    assert "annulus" in set_patches(sets[1], 16, 16).surface
    assert list(set_patches(sets[2], 16, 16).surface) == ["far", "near"]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("variant", ["ball", "cylinder", "swept"])
def test_quadrature_vs_monte_carlo(n, variant, exp2, exp3):
    from isoplab import density_from_config
    d = exp2 if n == 2 else exp3
    R = 3.0
    E = {"ball": PlainBall(dim=n, offset=R),
         "cylinder": CylinderExtended(dim=n, offset=R, delta=0.3),
         "swept": RotationSwept(dim=n, offset=R, delta=0.2)}[variant]
    Pq, Vq = set_measures(E, d)
    Pm, Vm = set_measures(E, d, method="monte_carlo", budget=150_000, seed=11)
    assert abs(Vm.value - Vq.value) <= 3.0 * Vm.error_estimate + 1e-12
    assert abs(Pm.value - Pq.value) <= 3.0 * Pm.error_estimate + 1e-12
    assert Pm.seed == 11 and Vm.seed == 11


def test_monte_carlo_requires_seed_and_budget(const2):
    with pytest.raises(ValueError):
        set_measures(PlainBall(dim=2, offset=3.0), const2,
                     method="monte_carlo", budget=150_000)
    with pytest.raises(ValueError):
        set_measures(PlainBall(dim=2, offset=3.0), const2,
                     method="monte_carlo", budget=100, seed=1)


def test_delta_out_of_range_rejected():
    with pytest.raises(ValueError):
        CylinderExtended(dim=2, offset=2.0, delta=1.5)
    with pytest.raises(ValueError):
        RotationSwept(dim=2, offset=5.0, delta=2.0)
    with pytest.raises(ValueError):
        PlainBall(dim=2, offset=0.5)


def test_consistency_with_deficit_measures(exp2):
    # for a radial weight, f-measures + g-measures add to the Euclidean ones
    R = 3.0
    g = deficit_profile(exp2)
    Pg, Vg = ball_deficit_measures(g, 2, R)
    Pf, Vf = set_measures(PlainBall(dim=2, offset=R), exp2, nodes=96)
    assert Pf.value + Pg.value == pytest.approx(2 * math.pi, abs=1e-10)
    assert Vf.value + Vg.value == pytest.approx(math.pi, abs=1e-10)


def test_plain_ball_mean_density_below_one(exp2):
    P, V = set_measures(PlainBall(dim=2, offset=4.0), exp2)
    rho = mean_density(P.value, V.value, 2)
    assert rho < 1.0


def test_mean_density_defining_case():
    for n in (2, 3, 4):
        om = unit_ball_volume(n)
        assert mean_density(n * om, om, n) == pytest.approx(1.0, rel=1e-14)


def test_mean_density_constant_half():
    om = unit_ball_volume(2)
    assert mean_density(0.5 * 2 * om, 0.5 * om, 2) == pytest.approx(0.5, rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(P=st.floats(0.1, 50.0), V=st.floats(0.1, 50.0),
       n=st.integers(2, 5))
def test_mean_density_homogeneity(P, V, n):
    # doubling the perimeter at fixed volume multiplies rho by 2^n
    assert mean_density(2 * P, V, n) == pytest.approx(
        2 ** n * mean_density(P, V, n), rel=1e-12)


def test_mean_density_rejects_zero_volume():
    with pytest.raises(ValueError):
        mean_density(1.0, 0.0, 2)


def test_profile_upper_bound_empty_set():
    assert profile_upper_bound(0.0, 0.0, math.pi, 1.0, 2) == pytest.approx(
        2 * math.pi, rel=1e-14)


def test_profile_upper_bound_no_residual():
    assert profile_upper_bound(5.5, 2.0, 2.0, 1.0, 3) == 5.5


def test_profile_upper_bound_unit_gap_n3():
    om3 = unit_ball_volume(3)
    assert profile_upper_bound(1.0, 0.0, om3, 1.0, 3) == pytest.approx(
        1.0 + 4 * math.pi, rel=1e-14)


def test_profile_upper_bound_rejects_negative_gap():
    with pytest.raises(ValueError):
        profile_upper_bound(1.0, 2.0, 1.0, 1.0, 2)


def test_measure_error_estimates_are_small(exp2):
    P, V = set_measures(RotationSwept(dim=2, offset=5.0, delta=0.1), exp2)
    assert P.error_estimate < 1e-10
    assert V.error_estimate < 1e-10
    assert P.method == "quadrature"


@pytest.mark.parametrize("n", [2, 3])
def test_swept_membership_matches_rotated_union(n):
    # every point the sampler draws from the swept set's volume patches lies
    # in the defining union of rotated leading half-balls, checked pointwise
    # by brute force over a grid of rotation angles
    R, delta, steps = 3.0, 0.2, 200
    patches = swept_patches(n, R, delta, np.eye(n), 0.0, 16, 16)
    rng = np.random.default_rng(0)
    u = np.concatenate([make(draw=Sample(rng, 20_000))[0]
                        for make in patches.volume.values()])
    slow = np.zeros(len(u), dtype=bool)
    du = u.copy()
    du[:, 0] -= R
    perp2 = np.einsum("ij,ij->i", u[:, 2:], u[:, 2:]) if n > 2 else 0.0
    slow |= (np.einsum("ij,ij->i", du, du) <= 1.0) & (u[:, 1] <= 0.0)
    # a point of the swept set at an angle between two grid angles s < s'
    # lies within (R + 1) R (s' - s)^2 of the half-ball rotated by s
    slack = (R + 1.0) * R * (delta / steps) ** 2
    for s in np.linspace(0.0, delta, steps + 1):
        c, sn = math.cos(-s), math.sin(-s)
        x1 = c * u[:, 0] - sn * u[:, 1]
        x2 = sn * u[:, 0] + c * u[:, 1]
        inb = (x1 - R) ** 2 + x2 ** 2 + perp2 <= 1.0 + slack
        slow |= inb & (x2 >= 0.0)
    assert slow.all()


def _closed_form_measures(E):
    """Closed-form measure of every patch of E except the swept band and
    wedge, whose draws carry a varying Jacobian."""
    n, R = E.dim, E.offset
    om, om1 = unit_ball_volume(n), unit_ball_volume(n - 1)
    if isinstance(E, PlainBall):
        return {"sphere": n * om}, {"ball": om}
    if isinstance(E, RotationSwept):
        return ({"trailing": 0.5 * n * om, "leading": 0.5 * n * om},
                {"trailing": 0.5 * om, "leading": 0.5 * om})
    k = (R - E.delta) / R
    return ({"far": 0.5 * n * om, "wall": (n - 1) * om1 * E.delta,
             "near": 0.5 * n * om * k ** (n - 1), "annulus": om1 * (1 - k ** (n - 1))},
            {"far": 0.5 * om, "cylinder": om1 * E.delta, "near": 0.5 * om * k ** n})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_patch_draws_integrate_one_exactly(n):
    # each factor is drawn from its own measure, so under the weight 1 every
    # patch without a varying Jacobian has the closed-form measure as its
    # estimate, with a standard error of exactly 0
    def one(x):
        return np.ones(len(x))
    direction = tuple(np.linspace(1.0, 2.0, n) / np.linalg.norm(np.linspace(1.0, 2.0, n)))
    for E in (PlainBall(dim=n, offset=10.0, direction=direction),
              CylinderExtended(dim=n, offset=10.0, delta=0.3, direction=direction),
              RotationSwept(dim=n, offset=10.0, delta=0.2, direction=direction)):
        patches = set_patches(E)
        for makers, closed in zip((patches.surface, patches.volume),
                                  _closed_form_measures(E)):
            assert set(makers) - set(closed) <= {"band", "wedge"}
            for name, value in closed.items():
                est = mc_integrals({name: makers[name]}, [one], 20_000, 3)[0]
                assert est.value == pytest.approx(value, rel=1e-12)
                assert est.error_estimate == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cylinder_near_caps_are_the_caps_built_in_place(n):
    # the near caps of every height come from one turned rule of the unit
    # caps, scaled and shifted: the same floats as the caps built at their
    # radius and centre, and the same draws
    R, nodes, radial_nodes = 6.0, 12, 10
    frame = frame_from_axis(np.linspace(1.0, -0.4, n))
    e1, lower = frame[:, 0], (math.pi / 2, math.pi)
    family = CylinderFamily(n, R, frame, nodes, radial_nodes)
    for delta in (0.3, 0.0, 1e-22, 1e-4):
        k, c = (R - delta) / R, (R - delta) * e1
        patches = family(delta)
        for make, build in (
                (patches.surface["near"],
                 lambda draw: sphere_cap_patch(n, k, c, e1, *lower, nodes, nodes,
                                               draw=draw)),
                (patches.volume["near"],
                 lambda draw: ball_cap_patch(n, k, c, e1, *lower, radial_nodes,
                                             nodes, nodes, draw=draw))):
            for got, want in ((make(), build(gauss)),
                              (make(draw=Sample(np.random.default_rng(4), 50)),
                               build(Sample(np.random.default_rng(4), 50)))):
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("n,centroid", [(2, 4.0 / (3.0 * math.pi)), (3, 3.0 / 8.0)])
def test_half_ball_draws_centroid(n, centroid):
    # radius by inverse CDF of rho^(n-1), direction reflected into {x1 >= 0}
    x1 = ball_cap_patch(n, 1.0, np.zeros(n), np.eye(n)[0], 0.0, math.pi / 2,
                        draw=Sample(np.random.default_rng(8), 200_000))[0][:, 0]
    assert abs(x1.mean() - centroid) <= 4.0 * x1.std() / math.sqrt(x1.size)


def test_frame_equivariance_under_nonradial_weight():
    # rotating the set and the weight together leaves both measures
    # unchanged: an independent check of the frame mapping
    from isoplab import Density
    psi = 0.7

    def make(off):
        def w(x):
            x = np.asarray(x, dtype=float)
            phi = np.arctan2(x[..., 1], x[..., 0])
            r = np.linalg.norm(x, axis=-1)
            return 1.0 - 0.3 * np.exp(-(r - 5.0) ** 2) * np.cos(phi - off) ** 2
        return Density(dim=2, weight=w, limit_a=1.0, label=f"mod{off}")

    cp, sp = math.cos(psi), math.sin(psi)
    pairs = [
        (RotationSwept(dim=2, offset=5.0, delta=0.15),
         RotationSwept(dim=2, offset=5.0, delta=0.15, direction=(cp, sp),
                       sweep=(-sp, cp))),
        (CylinderExtended(dim=2, offset=5.0, delta=0.15),
         CylinderExtended(dim=2, offset=5.0, delta=0.15, direction=(cp, sp))),
    ]
    for E0, E1 in pairs:
        P0, V0 = set_measures(E0, make(0.0), nodes=96)
        P1, V1 = set_measures(E1, make(psi), nodes=96)
        assert P1.value == pytest.approx(P0.value, rel=1e-11)
        assert V1.value == pytest.approx(V0.value, rel=1e-11)


def test_direction_rotation_invariance_of_euclidean_measures(const2):
    # measures of the swept set do not depend on the frame orientation
    t = 1.0 / math.sqrt(2.0)
    E1 = RotationSwept(dim=2, offset=8.0, delta=0.05)
    E2 = RotationSwept(dim=2, offset=8.0, delta=0.05, direction=(t, t),
                       sweep=(-t, t))
    P1, V1 = set_measures(E1, const2)
    P2, V2 = set_measures(E2, const2)
    assert P1.value == pytest.approx(P2.value, rel=1e-12)
    assert V1.value == pytest.approx(V2.value, rel=1e-12)


@pytest.mark.parametrize("n,radius", [(2, 1.0), (3, 1.0), (3, 0.7)])
def test_batched_ball_scan_matches_single_centres(n, radius):
    # a ball measured on the reference grids moved to its centre gives the
    # same floats as the closed-form cap patches at that centre
    d = density_from_config({"family": "angular_mod", "dim": n, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 0.5}})
    g = deficit_weight(d)
    rng = np.random.default_rng(5)
    for c in 6.0 * rng.standard_normal((40, n)):
        p, v = weighted_ball_measures(g, n, c, radius, 8, 8)
        e1 = np.eye(n)[0]
        spts, sw = sphere_cap_patch(n, radius, c, e1, 0.0, math.pi, 8, 8)
        bpts, bw = ball_cap_patch(n, radius, c, e1, 0.0, math.pi, 8, 8, 8)
        assert p == float(np.add.reduce(g(spts) * sw))
        assert v == float(np.add.reduce(g(bpts) * bw))


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("side", [(_WHOLE, 0.0), (_UPPER, 1.0), (_LOWER, -1.0)])
def test_sphere_draws_equal_normalised_gaussians(n, side):
    # the draws sum the squared coordinates in order, which for n < 8 is
    # numpy's norm bit for bit: the same Monte Carlo nodes as normalising
    # by np.linalg.norm
    (lo, hi), sign = side
    u = _sphere(n, lo, hi, 4, 4).draw(np.random.default_rng(n), 1000)
    ref = np.random.default_rng(n).standard_normal((1000, n))
    ref /= np.linalg.norm(ref, axis=1, keepdims=True)
    if sign:
        ref[:, 0] = sign * np.abs(ref[:, 0])
    assert np.array_equal(u, ref)


def _recorded_swept(n, R, delta, calls):
    """The swept set's ``patches_at``, recording each rule it is asked for."""
    def patches_at(nodes, radial_nodes):
        calls.append((nodes, radial_nodes))
        return swept_patches(n, R, delta, np.eye(n), 0.0, nodes, radial_nodes)
    return patches_at


def _values(quad):
    """A pass's (full, half) integrals by piece name."""
    return {(kind, name): quad.pieces[make]
            for kind in ("surface", "volume")
            for name, make in getattr(quad.patches, kind).items()}


@pytest.mark.parametrize("n", [2, 3])
def test_sized_pass_settles_on_the_first_rule_within_budget(n, exp2, exp3):
    # the rules 16, 32, ... are tried in turn; the first whose deficit
    # estimates are both within VOLUME_RTOL |B|_g is kept, each rule's half
    # rule is the one tried before it and is not integrated again, and the
    # kept pass is a plain pass on its rule, float for float
    d = {2: exp2, 3: exp3}[n]
    g, R, delta = deficit_weight(d), 10.0, 1e-5
    ball = float(ball_deficit_measures(deficit_profile(d), n, R)[1].value)
    calls, built = [], []

    def g_counted(x):
        built.append(len(x))
        return g(x)
    quad = sized_pass(_recorded_swept(n, R, delta, calls), g_counted, 64, 64,
                      ball)
    rule = quad.rule
    assert rule == {2: (16, 16), 3: (32, 32)}[n]
    assert max(quad.estimates()) <= VOLUME_RTOL * ball
    tried = [(16, 16), (8, 8)] + ([(32, 32), (16, 16)] if n == 3 else [])
    assert calls == tried
    # one build of each of the 5 or 6 pieces per distinct rule
    pieces = len(quad.pieces)
    assert len(built) == pieces * len(set(tried))
    plain = GaussPass(_recorded_swept(n, R, delta, []), g, *rule)
    assert _values(quad) == _values(plain)


@pytest.mark.parametrize("nodes, radial_nodes, scale", [
    (16, 64, 1.0), (64, 16, 1.0), (64, 64, 0.0), (64, 64, 1e-300),
    (32, 64, 1e-300)])
def test_sized_pass_ceiling_is_the_plain_pass(exp3, nodes, radial_nodes, scale):
    # a ceiling of at most 16 nodes, or a vanished scale, runs the ceiling
    # alone; a budget no rule meets ends on the ceiling: either way the pass
    # is the plain pass at (nodes, radial_nodes), float for float
    g, calls = deficit_weight(exp3), []
    quad = sized_pass(_recorded_swept(3, 10.0, 1e-5, calls), g, nodes,
                      radial_nodes, scale)
    assert quad.rule == (nodes, radial_nodes)
    if min(nodes, radial_nodes) <= 16 or scale == 0.0:
        assert calls[0] == (nodes, radial_nodes) and len(calls) == 2
    plain = GaussPass(_recorded_swept(3, 10.0, 1e-5, []), g, nodes,
                      radial_nodes)
    assert _values(quad) == _values(plain)
    assert quad.estimates() == plain.estimates()


def test_sized_pass_scales_by_its_own_deficit_volume(exp3):
    # without a scale the budget is each pass's own deficit volume, |B|_g
    # for the plain ball: the same rule as with |B|_g given
    g = deficit_weight(exp3)
    ball = float(ball_deficit_measures(deficit_profile(exp3), 3, 10.0)[1].value)

    def plain_ball(nodes, radial_nodes):
        return set_patches(PlainBall(dim=3, offset=10.0), nodes, radial_nodes)
    own = sized_pass(plain_ball, g, 64, 64)
    given = sized_pass(plain_ball, g, 64, 64, ball)
    assert own.rule == given.rule == (32, 32)
    assert _values(own) == _values(given)


def test_pass_estimates_sum_the_per_piece_estimate(exp3):
    # each piece's estimate is the rules' difference plus the full rule's
    # rounding floor, ULP x points x sum |g w|; the pass's boundary and
    # interior estimates add them piece by piece
    g = deficit_weight(exp3)
    quad = GaussPass(_recorded_swept(3, 10.0, 1e-5, []), g, 16, 16)
    sums = []
    for kind in ("surface", "volume"):
        total = 0.0
        for make in getattr(quad.patches, kind).values():
            full, half = quad.pieces[make]
            pts, w = make()
            terms = g(pts) * w
            assert full.points == w.size
            assert full.abs_sum == float(np.add.reduce(np.abs(terms)))
            estimate = (abs(full.value - half.value)
                        + np.finfo(float).eps * w.size * full.abs_sum)
            assert full.estimate(half) == estimate
            total += estimate
        sums.append(total)
    assert quad.estimates() == tuple(sums)
    assert quad.points == sum(full.points for full, _ in quad.pieces.values())
