"""Shared quadrature machinery: Gauss panels, sphere/ball grids, frames,
and the leaves of numpy's pairwise summation tree.

Sphere grids use Gauss-Legendre nodes in every polar angle and a uniform
periodic rule in the azimuth, so smooth integrands converge spectrally and
low-order trigonometric modulations are integrated exactly.  All grids are
deterministic for fixed node counts.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi


def unit_ball_volume(n: int) -> float:
    """Euclidean volume of the unit ball in R^n."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n (two points for n = 1)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return n * unit_ball_volume(n)


def norms(x) -> np.ndarray:
    """Euclidean norms along the last axis.  The squares are summed in
    coordinate order, so the result does not depend on the memory layout of
    the points (``einsum`` reorders the sum on contiguous rows)."""
    x = np.asarray(x, dtype=float)
    square = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        square += x[..., i] * x[..., i]
    return np.sqrt(square)


# numpy adds at most this many terms without splitting them
_PAIRWISE_BLOCK = 128


def _pairwise_split(n: int, leaf: int) -> int:
    """Where numpy's pairwise summation splits a run of n terms: after
    n // 2 rounded down to a multiple of 8 terms; 0 when the run is a leaf,
    at most ``leaf`` terms or a block numpy sums without splitting."""
    if n <= max(leaf, _PAIRWISE_BLOCK):
        return 0
    half = n // 2
    return half - half % 8


def pairwise_leaves(start: int, stop: int, leaf: int) -> list[tuple[int, int]]:
    """The leaves [start', stop') of numpy's pairwise summation tree of the
    terms [start, stop), cut where a run has at most ``leaf`` terms."""
    half = _pairwise_split(stop - start, leaf)
    if not half:
        return [(start, stop)]
    return (pairwise_leaves(start, start + half, leaf)
            + pairwise_leaves(start + half, stop, leaf))


def pairwise_total(n: int, leaf: int, sums):
    """The sum of n terms from the iterator ``sums`` of the sums of their
    ``pairwise_leaves``, in order, added back up the same tree: the float
    that ``np.add.reduce`` gives on all n terms at once."""
    half = _pairwise_split(n, leaf)
    if not half:
        return next(sums)
    return pairwise_total(half, leaf, sums) + pairwise_total(n - half, leaf, sums)


@lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def sphere_grid(n: int, polar_nodes: int = 64, azimuth_nodes: int = 64):
    """Quadrature grid on S^{n-1} subset R^n.

    Returns (points, weights) with points of shape (M, n) and weights summing
    to the sphere area.  S^0 is the two-point set {+1, -1} with unit weights.
    """
    return sphere_band_grid(n, 0.0, math.pi, polar_nodes, azimuth_nodes)


def sphere_band_grid(n: int, polar_lo: float, polar_hi: float,
                     polar_nodes: int = 64, azimuth_nodes: int = 64):
    """Grid on the band {x in S^{n-1} : polar angle from e1 in [lo, hi]}.

    The polar angle is measured from the first coordinate axis.  With
    lo = 0, hi = pi this is the whole sphere; [0, pi/2] is the hemisphere
    {x1 >= 0}.  For n = 1 only the whole of S^0, {+1, -1}, is a band.
    Returns (points, weights), points of shape (M, n) in C order: the rule
    of ``band_coords``, transposed.
    """
    pts, w = band_coords(n, polar_lo, polar_hi, polar_nodes, azimuth_nodes)
    return pts.T.copy(), w


def band_coords(n: int, polar_lo: float, polar_hi, polar_nodes: int,
                azimuth_nodes: int):
    """``sphere_band_grid``'s rule coordinates first: (points of shape
    (n, M), weights).

    ``polar_hi`` may be a 1-D array, a run of bands from one ``polar_lo``:
    each band's points and weights follow the last band's, in the order of
    its own grid, and are the same floats.  At n = 2 a band of a run is
    always its two arcs, one after the other; only a single band [0, pi]
    is the whole circle's uniform rule.
    """
    if n == 1:
        if (polar_lo, polar_hi) != (0.0, math.pi):
            raise ValueError("a band of S^0 must be all of it")
        return np.array([[1.0, -1.0]]), np.ones(2)
    if n == 2 and np.ndim(polar_hi) == 0 and (polar_lo, polar_hi) == (0.0, math.pi):
        # full circle: uniform periodic rule, exact for trig polynomials
        ang = TWO_PI * np.arange(azimuth_nodes) / azimuth_nodes
        return (np.stack([np.cos(ang), np.sin(ang)]),
                np.full(azimuth_nodes, TWO_PI / azimuth_nodes))
    # Gauss in the polar angle, one row of nodes per band
    theta, wt = gauss_nodes(polar_lo, np.reshape(polar_hi, (-1, 1)), polar_nodes)
    c, s = np.cos(theta), np.sin(theta)
    if n == 2:
        # a band is two symmetric arcs
        pts = np.empty((2, len(c), 2, polar_nodes))
        pts[0] = c[:, None]
        pts[1, :, 0] = s
        np.negative(s, out=pts[1, :, 1])
        return pts.reshape(2, -1), np.stack([wt, wt], axis=1).ravel()
    sub_pts, sub_w = band_coords(n - 1, 0.0, math.pi, polar_nodes, azimuth_nodes)
    pts = np.empty((n, len(c), polar_nodes, len(sub_w)))
    pts[0] = c[..., None]
    np.multiply(s[..., None], sub_pts[:, None, None], out=pts[1:])
    w = ((wt * s ** (n - 2))[..., None] * sub_w).ravel()
    return pts.reshape(n, -1), w


def ball_grid(n: int, radial_nodes: int = 64, polar_nodes: int = 64,
              azimuth_nodes: int = 64):
    """Grid on the unit ball of R^n.

    Returns (points, weights), coordinates first: points of shape (n, M).
    The weights include the r^{n-1} volume factor and sum to the ball
    volume.
    """
    rho, wr = gauss_nodes(0.0, 1.0, radial_nodes)
    spts, sw = band_coords(n, 0.0, math.pi, polar_nodes, azimuth_nodes)
    pts = (rho[:, None] * spts[:, None, :]).reshape(n, -1)
    w = ((wr * rho ** (n - 1))[:, None] * sw[None, :]).ravel()
    return pts, w


def frame_from_axis(axis: np.ndarray, second: np.ndarray | None = None) -> np.ndarray:
    """Deterministic orthonormal frame whose first column is `axis`.

    When `second` is given, the second column is its component orthogonal to
    `axis`, normalized; remaining columns complete the basis via a stable
    Gram-Schmidt sweep over the standard basis.
    """
    axis = np.asarray(axis, dtype=float)
    n = axis.size
    cols = [axis / np.linalg.norm(axis)]
    if second is not None:
        v = np.asarray(second, dtype=float)
        v = v - (v @ cols[0]) * cols[0]
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            raise ValueError("second frame direction is parallel to the axis")
        cols.append(v / nv)
    for k in range(n):
        if len(cols) == n:
            break
        v = np.zeros(n)
        v[k] = 1.0
        for c in cols:
            v = v - (v @ c) * c
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            cols.append(v / nv)
    return np.stack(cols, axis=1)
