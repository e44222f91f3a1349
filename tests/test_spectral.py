"""Subsphere means of ball measures (``spectral.subsphere_means``), the
engine of the working-circle descent."""

import numpy as np
import pytest

from isoplab import density_from_config, weighted_ball_measures
from isoplab.density import deficit_weight
from isoplab.quadrature import sphere_grid, unit_ball_volume, unit_sphere_area
from isoplab.spectral import SweepSpectrum, subsphere_means

PAIRS = [(3, 2), (4, 2), (4, 3), (5, 4)]


def _random_frame(n, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return Q


def _angular(n):
    return deficit_weight(density_from_config(
        {"family": "angular_mod", "dim": n, "a": 1.0,
         "params": {"eta": 0.5, "k": 1, "c": 1.0}}))


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
