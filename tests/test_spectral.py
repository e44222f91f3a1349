"""Subsphere means of ball measures (``spectral.subsphere_means``), the
engine of the working-circle descent, and the tables a ``SweepSpectrum``
keeps for its grid angles."""

import math

import numpy as np
import pytest

from isoplab import density_from_config, spectral, weighted_ball_measures
from isoplab.competitor import sweep_advance_map
from isoplab.defaults import (BALL_CHUNK_POINTS, BLOCK_POINTS, CIRCLE_GRID,
                              CIRCLE_START, GRID_REFINE, PSI_START,
                              RADIAL_NODES, REFINE_ROUNDS, SPHERE_NODES,
                              VOLUME_RTOL)
from isoplab.density import deficit_weight
from isoplab.farball import _axes_up_to_sign
from isoplab.measures import swept_excess
from isoplab.quadrature import (frame_from_axis, sphere_grid, unit_ball_volume,
                                unit_sphere_area)
from isoplab.spectral import (SweepSpectrum, _disk, _evaluate, _meridian_rule,
                              _mode_sums, _powers, _shift, _subsphere_sums,
                              subsphere_means)

PAIRS = [(3, 2), (4, 2), (4, 3), (5, 4)]


def _random_frame(n, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return Q


def _angular(n, k=1):
    return deficit_weight(density_from_config(
        {"family": "angular_mod", "dim": n, "a": 1.0,
         "params": {"eta": 0.5, "k": k, "c": 1.0}}))


@pytest.mark.parametrize("n, k", PAIRS)
def test_subsphere_means_of_weight_one(n, k):
    # every ball has the Euclidean measures, and so has their mean
    def one(x):
        return np.ones(len(x))
    # 48 circle nodes give 12 polar nodes, whose half rule integrates the
    # sphere's sin^j factors to ~1e-7
    means, error = subsphere_means(one, [_random_frame(n, n + k)], k, 10.0,
                                   16, 32, 48)
    exact = np.array([unit_sphere_area(n), unit_ball_volume(n)])
    assert np.all(np.abs(means[0] - exact) <= error[0])
    assert np.all(error[0] <= 1e-6 * exact)


@pytest.mark.parametrize("n, k", PAIRS)
def test_subsphere_means_match_translated_balls(n, k):
    # the mean over a grid of centres on the subsphere of balls measured on
    # translated grids, with its own node-halving estimate, on a random frame
    g, R = _angular(n), 6.0
    frame = _random_frame(n, 10 * n + k)
    means, error = subsphere_means(g, [frame], k, R, 8, 16, 8)

    def reference(nodes, polar, azimuth):
        dirs, w = sphere_grid(k, polar, azimuth)
        P, V = np.array([weighted_ball_measures(g, n, c, 1.0, nodes, nodes)
                         for c in R * dirs @ frame[:, :k].T]).T
        return np.array([P @ w, V @ w]) / w.sum()
    polar = 8 if k < 4 else 4
    ref = reference(8, polar, 8)
    ref_error = (np.abs(ref - reference(4, polar, 8))
                 + np.abs(ref - reference(8, polar // 2, 4)))
    assert np.all(np.abs(means[0] - ref) <= error[0] + ref_error)
    assert np.all(error[0] + ref_error <= 0.05 * ref)


def test_subsphere_means_are_the_spectrum_zero_mode():
    # in N = 3 the mean over the working circle's balls is the k = 0 Fourier
    # mode of the sweep spectrum's balls and spheres
    g, R, frame = _angular(3), 10.0, _random_frame(3, 7)
    means, error = subsphere_means(g, [frame], 2, R, 16, 16, 16)
    spectrum = SweepSpectrum(g, 3, R, frame, 16, 16, 16)
    assert spectrum.psi_samples == 16
    modes = spectrum.modes
    zero = np.array([(modes.lead_sphere[0] + modes.trail_sphere[0]).real,
                     (modes.lead[0] + modes.trail[0]).real])
    assert np.all(np.abs(means[0] - zero) <= 1e-14 * zero)


@pytest.mark.parametrize("n, k, chunk", [(3, 2, 600), (4, 3, 5_000)])
def test_batched_subsphere_means_equal_per_frame_calls(monkeypatch, n, k, chunk):
    # the chunk splits the full meridian rule's nodes of one frame over
    # several weight calls and puts two frames' half rules in one call; the
    # floats are those of one frame at a time in the default chunks
    g = _angular(n)
    frames = [_random_frame(n, 100 + seed) for seed in range(5)]
    alone = [subsphere_means(g, [frame], k, 10.0, 8, 16, 8) for frame in frames]
    monkeypatch.setattr(spectral, "BLOCK_POINTS", chunk)
    batched = subsphere_means(g, frames, k, 10.0, 8, 16, 8)
    assert np.array_equal(batched.means, np.concatenate([a.means for a in alone]))
    assert np.array_equal(batched.errors, np.concatenate([a.errors for a in alone]))
    assert {a.circle_samples for a in alone} == {batched.circle_samples}


@pytest.mark.parametrize("n, k, nodes", [(3, 2, 16), (3, 3, 16), (4, 2, 8),
                                         (4, 3, 16)])
def test_blocked_subsphere_means_equal_one_block(monkeypatch, n, k, nodes):
    # the frames go to the weight, and their sums are reduced, in blocks of
    # at most BLOCK_POINTS points; with one block for all of them the means
    # and estimates are the same floats
    g = _angular(n)
    frames = [_random_frame(n, 300 + seed) for seed in range(5)]
    blocked = subsphere_means(g, frames, k, 10.0, nodes, 16, 16)
    monkeypatch.setattr(spectral, "BLOCK_POINTS", 2 ** 40)
    whole = subsphere_means(g, frames, k, 10.0, nodes, 16, 16)
    assert np.array_equal(blocked.means, whole.means)
    assert np.array_equal(blocked.errors, whole.errors)
    assert blocked.circle_samples == whole.circle_samples


def _descent_frames(n, axis_nodes):
    """The candidate frames of the N = 3 descent's only level."""
    return [np.column_stack([F[:, 1:], F[:, :1]])
            for F in map(frame_from_axis, _axes_up_to_sign(n, axis_nodes))]


def test_circle_rule_settles_at_its_start():
    # angular_mod k = 1 has the modes 0 and 1 on every circle of centres
    out = subsphere_means(_angular(3), _descent_frames(3, 4), 2, 10.0, 16, 16)
    assert out.circle_samples == CIRCLE_START


def _circle_reference(g, frames):
    """The means of a fixed 128-sample circle rule on the meridian rule of
    16 x 16 nodes, and (means, every-other means, floors) of the
    CIRCLE_START-sample rule on it."""
    rule = _meridian_rule(3, 10.0, 2, 16, 16)
    return (_subsphere_sums(g, frames, 2, rule, *sphere_grid(2, 1, 128))[0],
            _subsphere_sums(g, frames, 2, rule, *sphere_grid(2, 1, CIRCLE_START)))


@pytest.mark.parametrize("k", [8, 16])
def test_circle_rule_refines_past_an_aliased_mode(k):
    # angular_mod's mode k on a circle of centres aliases onto mode 0 of the
    # 8-sample rule and of its every other sample; the rule refines past
    # CIRCLE_START, and the means lie within their estimates of a fixed
    # 128-sample rule on the same meridian nodes
    g, frames = _angular(3, k), np.array(_descent_frames(3, 4))
    reference, (start, _, _) = _circle_reference(g, frames)
    assert np.any(np.abs(start - reference) > VOLUME_RTOL * np.abs(reference))
    out = subsphere_means(g, frames, 2, 10.0, 16, 16)
    assert CIRCLE_START < out.circle_samples <= CIRCLE_START * GRID_REFINE ** REFINE_ROUNDS
    assert np.all(np.abs(out.means - reference) <= out.errors)


def test_coprime_check_sees_a_mode_at_the_start():
    # a deficit whose only mode on the circles about the e1-e2 plane is
    # CIRCLE_START: the 8-sample rule and its every other sample alias it
    # onto mode 0 alike and agree with each other; the (C + 1)-sample rule
    # on the half meridian rule sees it, and the rule refines
    def g(x):
        r = np.linalg.norm(x, axis=-1)
        turn = ((x[:, 0] + 1j * x[:, 1]) / r) ** CIRCLE_START
        return np.exp(-r) * (1.0 + 0.5 * turn.real)
    frames = np.eye(3)[None]
    reference, (start, alias, floor) = _circle_reference(g, frames)
    assert np.all(np.abs(alias - start) <= VOLUME_RTOL * np.abs(start) + floor)
    assert np.all(np.abs(start - reference) > VOLUME_RTOL * np.abs(reference))
    out = subsphere_means(g, frames, 2, 10.0, 16, 16)
    assert out.circle_samples == CIRCLE_START * GRID_REFINE
    assert np.all(np.abs(out.means - reference) <= out.errors)


# ---------------------------------------------------------------------------
# the spectrum's scans at its grid angles and elsewhere, on angular_mod N = 2
# at R = 10 and the default grid
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def circle():
    return SweepSpectrum(_angular(2), 2, 10.0, np.eye(2), CIRCLE_GRID)


def _formed(spectrum, pieces, phis, deltas=None):
    """(values, error estimates) of ``pieces`` from the three rules, with
    phase tables formed for ``phis``."""
    (values, *coarse), error = _evaluate((spectrum.modes, *spectrum.coarse),
                                         pieces, phis, deltas)
    for other in coarse:
        error += np.abs(other - values)
    return values, error


def _assert_identical(got, expected):
    for x, y in zip(got, expected, strict=True):
        assert np.array_equal(x, y)


def test_grid_balls_equal_a_fresh_evaluation(circle):
    theta = 2.0 * math.pi * np.arange(CIRCLE_GRID) / CIRCLE_GRID
    assert np.array_equal(circle.theta, theta)
    _assert_identical(circle.balls(circle.theta),
                      _formed(circle, ("lead", "trail"), theta))


def test_scans_equal_tables_formed_anew(circle):
    # at the grid angles, off them, and on a spectrum built for other
    # angles, every method gives the values of phase and shift tables
    # formed anew for the angles it is given
    theta = circle.theta
    deltas = np.random.default_rng(3).uniform(0.0, 0.05, theta.size)
    other = SweepSpectrum(_angular(2), 2, 10.0, np.eye(2), 24)
    for spectrum, phis in ((circle, theta), (circle, theta + deltas),
                           (other, theta)):
        for upper in (True, False):
            _assert_identical(spectrum.hemispheres(phis, upper),
                              _formed(spectrum, ("lead_sphere",) if upper
                                      else ("trail_sphere",), phis))
        _assert_identical(spectrum.balls(phis),
                          _formed(spectrum, ("lead", "trail"), phis))
        values, error = _formed(spectrum, ("lead", "trail", "extend"), phis, deltas)
        _assert_identical(spectrum.volume_gaps(phis, deltas),
                          (swept_excess(2, 10.0, deltas)[1] - values, error))


def test_gaps_equal_a_fresh_evaluation(circle):
    rng = np.random.default_rng(5)
    idx = np.sort(rng.choice(CIRCLE_GRID, 300, replace=False))
    deltas = rng.uniform(0.0, 0.05, idx.size)
    count = circle.modes.k.size
    ball = circle.balls(circle.theta)[0]
    terms = (circle.modes.extend() * _powers(circle.theta[idx], count)
             * _shift(deltas, count))
    expected = (swept_excess(2, 10.0, deltas)[1] - ball[idx]
                - np.add.reduce(terms.real, axis=1))
    assert np.array_equal(circle.gaps(ball)(idx, deltas), expected)


def test_blocked_scans_equal_one_block(monkeypatch, circle):
    # the balls at other angles and the gaps go in chunks of at most
    # BLOCK_POINTS terms; an angle's value is one sum along its own row
    rng = np.random.default_rng(11)
    phis = rng.uniform(0.0, 2.0 * math.pi, 2000)
    idx = np.arange(CIRCLE_GRID)
    deltas = rng.uniform(0.0, 0.05, idx.size)
    assert idx.size * circle.modes.k.size > BLOCK_POINTS
    ball = circle.balls(circle.theta)[0]
    blocked = circle.balls(phis), circle.gaps(ball)(idx, deltas)
    monkeypatch.setattr(spectral, "BLOCK_POINTS", 2 ** 40)
    whole = circle.balls(phis), circle.gaps(ball)(idx, deltas)
    _assert_identical(blocked[0], whole[0])
    assert np.array_equal(blocked[1], whole[1])


@pytest.mark.parametrize("M", [32, 720])
def test_every_other_rule_equals_the_rule_with_its_own_tables(monkeypatch, M):
    # the every-other psi rule cuts the full rule's kernel tables; the
    # M/2-sample rule on the same angles, chunked alike, forms its own
    g, frame = _angular(2), np.eye(2)
    disk = _disk(2, 10.0, SPHERE_NODES, RADIAL_NODES)
    alias = _mode_sums(g, frame, disk, M, every_other=True)[1]
    monkeypatch.setattr(spectral, "BALL_CHUNK_POINTS", BALL_CHUNK_POINTS // 2)
    own = _mode_sums(g, frame, disk, M // 2, every_other=False)[0]
    for piece in ("k", "wedge", "lead", "trail", "lead_sphere", "trail_sphere"):
        assert np.array_equal(getattr(alias, piece), getattr(own, piece))


def test_advance_map_bounds_its_phase_table_work(monkeypatch):
    # a work counter: every phase table of the advance map on 720 angles,
    # formed per chunk of the angles each scan and root-search round is given,
    # has the PSI_START-sample rule's 17 modes: 125,664 table elements
    # (1,368,912 when the psi rule had as many samples as the grid)
    d = density_from_config({"family": "angular_mod", "dim": 2, "a": 1.0,
                             "params": {"eta": 0.5, "k": 1, "c": 1.0}})
    powers, tables = spectral._powers, []

    def counted_powers(angle, count):
        tables.append(np.size(angle) * count)
        return powers(angle, count)
    monkeypatch.setattr(spectral, "_powers", counted_powers)
    sweep_advance_map(d, 10.0, np.eye(2), eps=0.05)
    assert sum(tables) <= 125_664


@pytest.mark.parametrize("k", [4, 8, 16, 48, 96, 600])
def test_psi_rule_resolves_the_deficits_bandwidth(k):
    # angular_mod in N = 2 has the modes 0 and k in the sweep angle: on 720
    # angles the psi rule starts at PSI_START samples and is refined until
    # it resolves mode k (past 2k samples; 8192 for k = 600, which aliased
    # on a 720-sample rule and its every other sample alike), and every
    # ball lies within its estimate, and within VOLUME_RTOL, of a rule of
    # 4k + 64 samples on the same disk nodes (4 radii: the weight's cost
    # grows with k)
    g = _angular(2, k)
    spectrum = SweepSpectrum(g, 2, 10.0, np.eye(2), CIRCLE_GRID, 8, 4)
    assert spectrum.psi_samples > max(2 * k, PSI_START - 1)
    reference = _mode_sums(g, np.eye(2), _disk(2, 10.0, 8, 4), 4 * k + 64,
                           every_other=False)
    (exact,), _ = _evaluate(reference, ("lead", "trail"), spectrum.theta)
    balls, error = spectrum.balls(spectrum.theta)
    assert np.all(np.abs(balls - exact) <= error)
    assert np.all(np.abs(balls - exact) <= VOLUME_RTOL * exact)
