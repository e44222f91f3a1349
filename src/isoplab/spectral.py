"""The deficit on the working circle's swept region as Fourier series in the
sweep angle: every ball, half-ball, hemisphere, wedge and volume gap of the
circle at once, summed by one evaluator (``_evaluate``); and, on the same
meridian rule, the mean ball measures over a subsphere of centres.

Cylindrical coordinates about the working plane (spanned by the first two
columns of ``frame``) write a point as s (cos psi e_1 + sin psi e_2) + z,
with z in the span of the other columns.  The unit ball centred at angle
phi on the circle of radius R is then

    {(s, z) in D, |psi - phi| <= gamma(s, z)},
    sin(gamma / 2) = sqrt(1 - rho^2) / (2 sqrt(R s)),

where D is the meridian disk, the unit disk about (R, 0) in the (s, z)
half-space, and rho the distance of (s, z) from (R, 0).  Its half-balls
split by the sweep plane are psi in [phi - gamma, phi] (trailing) and
[phi, phi + gamma] (leading), and the wedge swept from phi to phi + delta is
psi in [phi, phi + delta] over D: every solid piece of
``measures.swept_patches`` is a psi-interval integral at fixed (s, z),
weighted by the Jacobian s.

Its sphere is the two graphs psi = phi +- gamma(s, z) over D: the leading
hemisphere is psi = phi + gamma, the trailing one psi = phi - gamma.  By the
coarea formula for F = |x - c|^2 - 1, whose gradient has modulus 2 on the
sphere and whose psi-derivative there is 2 s R sin(gamma), the area element
of either graph is s ds dz |grad F| / |d_psi F| = ds dz / (R sin gamma).  On
D's rule, ds dz = cos(tau) rho^{N-2} dtau dv, and R sin(gamma) =
cos(tau) sqrt(R / s) cos(gamma / 2), so a node's surface weight is

    w_tau rho^{N-2} w_v sqrt(s / R) / cos(gamma / 2),

smooth on D (gamma < pi/2 there), and a hemisphere is the deficit at
psi = phi +- gamma integrated against it.

So the deficit is sampled once: at the nodes of D, times a uniform grid of
M angles psi.  One FFT per disk node gives its trigonometric interpolant in
psi, and the pieces at any angle are closed-form Fourier shifts of the
per-mode sums over the nodes (``_Modes``).  D is ``ball_grid(N - 1)``'s
section with its radius substituted, rho = sin(tau) with Gauss nodes in
tau: gamma has a square-root edge at rho = 1, and the substitution makes the
integrand smooth (Gauss in rho itself converges algebraically).

Error estimates are computed from two coarser rules on the same samples or
grids: every other psi sample, and half the disk nodes.

The same coordinates average a ball over a whole subsphere of centres
(``subsphere_means``), which is what the working-circle descent scores.  Let
U be a subspace of dimension k and write a point as s u + w with u in
S^{k-1} of U and w in its complement.  The unit ball about R v, v in
S^{k-1}, contains the point exactly when v . u >= cos(gamma), with the gamma
above, so the mean over v of the ball's indicator is the normalised cap
measure

    sigma_k(gamma) = (|S^{k-2}| / |S^{k-1}|) integral_0^gamma sin^{k-2},

gamma / pi for k = 2 and (1 - cos gamma) / 2 for k = 3 (``sin_power_integral``
with 1 - cos gamma = 2 sin^2(gamma / 2)).  The mean of |B(R v)|_g is then
the integral of g sigma_k(gamma), and in the coordinates (s, w, u), whose
volume element is s^{k-1} ds dw du, it is a sum over the nodes (s, w) of
the meridian ball D, the unit ball about (R, 0) in R^{N-k+1}, of the
deficit's integral over the sphere {s u + w} times the kernel
w_D s^{k-1} sigma_k(gamma).  The mean perimeter is the derivative in the
radius t at t = 1 of the mean ball of radius t (coarea formula): d cos(gamma)
/ dt = -1 / (s R), so d sigma_k / dt = |S^{k-2}| sin^{k-3}(gamma) /
(|S^{k-1}| s R), and the kernel is w_D s^{k-2} sin^{k-3}(gamma) / R times
|S^{k-2}| / |S^{k-1}|.  On the rule rho = sin(tau), w_D carries cos(tau), and
R sin(gamma) = cos(tau) sqrt(R / s) cos(gamma / 2), so w_D s^{k-2}
sin^{k-3}(gamma) / R is the hemisphere weight above times
(s sin gamma)^{k-2}: smooth on D for every k, with no 1 / sin(gamma) left
for k = 2.  For k = 2 (the only level in N = 3, and the last one for every
N) the two sums are the k = 0 Fourier modes of ``lead + trail`` and
``lead_sphere + trail_sphere``.  ``subsphere_means`` sizes the rules and
estimates their errors; the candidates scored together share the weight
calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import (BALL_CHUNK_POINTS, BLOCK_POINTS, CIRCLE_START, GRID_REFINE,
                       PSI_START, RADIAL_NODES, REFINE_ROUNDS, SPHERE_NODES,
                       VOLUME_RTOL)
from .layers import sin_power_integral
from .measures import ULP, swept_excess
from .quadrature import gauss_nodes, sphere_grid, unit_sphere_area

HALF_PI = math.pi / 2


def _powers(angle, count: int) -> np.ndarray:
    """e^{ik angle} for k = 0, ..., count - 1 along a new last axis, by
    repeated multiplication: the rounding of mode k grows like k ulps."""
    angle = np.asarray(angle, dtype=float)
    z = np.empty(angle.shape + (count,), dtype=complex)
    z[..., 0] = 1.0
    z[..., 1:] = np.exp(1j * angle)[..., None]
    return np.cumprod(z, axis=-1, out=z)


def _shift(width, count: int) -> np.ndarray:
    """(e^{ik width} - 1) / (ik) for k = 0, ..., count - 1 along a new last
    axis, width at k = 0, formed without cancellation as
    e^{ik width/2} 2 sin(k width/2) / k."""
    width = np.asarray(width, dtype=float)[..., None]
    half = _powers(0.5 * width[..., 0], count)
    k = np.arange(count)
    return half * (2.0 * half.imag / np.maximum(k, 1) + (k == 0) * width)


@dataclass(frozen=True)
class _Modes:
    """Per-mode sums over the disk nodes of one quadrature rule.

    For each Fourier mode k >= 0 of the psi samples at a node, the mode's
    coefficient times the node's weight times a psi kernel, summed over the
    nodes.  With the volume weight (Jacobian s included) the kernel is 1 for
    ``wedge``, the shift by gamma, ``_shift(gamma, ...)``, for ``lead`` and
    its conjugate for ``trail``; with the surface weight it is e^{ik gamma}
    for ``lead_sphere`` and its conjugate for ``trail_sphere``.  The factor
    2 of the conjugate mode -k is folded in (1 at k = 0 and at the Nyquist
    mode), so a piece at angle phi is Re sum_k X_k e^{ik phi}.  ``nodes`` is
    the number of disk nodes summed.
    """

    nodes: int
    k: np.ndarray
    lead: np.ndarray
    trail: np.ndarray
    wedge: np.ndarray
    lead_sphere: np.ndarray
    trail_sphere: np.ndarray

    def terms(self, pieces, phase, shift=None) -> np.ndarray:
        """The terms X_k e^{ik phi} of the sum of ``pieces`` at each angle,
        one row each, from the angles' phase table e^{ik phi} and, for the
        pieces that move with delta, the table ``_shift(deltas)``; tables
        with more modes are cut to this rule's: the static pieces' sum times
        the phase, plus the moving ones' sum times the phase times the shift.

        ``lead``, ``trail``: the half-balls [phi, phi + gamma] and
        [phi - gamma, phi]; ``lead_sphere``, ``trail_sphere``: the
        hemispheres psi = phi + gamma and psi = phi - gamma; ``wedge``:
        [phi, phi + delta]; ``extend``: [phi + gamma, phi + gamma + delta],
        which a sweep by delta adds to the ball at phi.
        """
        count = self.k.size
        phase = phase[..., :count]
        static = [getattr(self, p) for p in pieces if p not in ("wedge", "extend")]
        moving = [self.wedge if p == "wedge" else self.extend()
                  for p in pieces if p in ("wedge", "extend")]
        if not moving:
            return sum(static) * phase
        terms = sum(moving) * phase * shift[..., :count]
        return terms + sum(static) * phase if static else terms

    def extend(self) -> np.ndarray:
        """Mode sums of the shift by gamma + delta minus the shift by gamma:
        e^{ik gamma} = 1 + ik (e^{ik gamma} - 1)/(ik)."""
        return self.wedge + 1j * self.k * self.lead


def _disk(n: int, R: float, nodes: int, radial_nodes: int, k: int = 2):
    """Nodes (s, w), volume weights (Jacobian s^{k-1} included), surface
    weights w_D s^{k-2} sin^{k-3}(gamma) / R and half-widths gamma of the
    meridian ball of a k-dimensional subspace (the meridian disk for
    k = 2), with rho = sin(tau) and Gauss nodes in tau."""
    tau, wt = gauss_nodes(0.0, HALF_PI, radial_nodes)
    v, wv = sphere_grid(n - k + 1, nodes, nodes)
    rho, cos_tau = np.sin(tau), np.cos(tau)
    sz = (rho[:, None, None] * v[None]).reshape(-1, n - k + 1)
    sz[:, 0] += R
    s = sz[:, 0]
    w = ((wt * cos_tau * rho ** (n - k))[:, None] * wv[None]).ravel() * s ** (k - 1)
    half_sin = np.repeat(cos_tau, len(v)) / (2.0 * np.sqrt(R * s))
    gamma = 2.0 * np.arcsin(np.minimum(half_sin, 1.0))
    w_sphere = (((wt * rho ** (n - k))[:, None] * wv[None]).ravel()
                * np.sqrt(s / R) / np.cos(0.5 * gamma)
                * (s * np.sin(gamma)) ** (k - 2))
    return sz, w, w_sphere, gamma


def _ring(frame, M: int) -> np.ndarray:
    """The M points 2 pi i / M of the unit circle in the working plane,
    coordinates first: shape (N, M)."""
    psi = 2.0 * math.pi * np.arange(M) / M
    return frame[:, :1] * np.cos(psi) + frame[:, 1:2] * np.sin(psi)


def _ring_points(ring, s, offset) -> np.ndarray:
    """The points s_i ring + offset_i of disk nodes i on the ring
    (coordinates first), node by node with the ring's samples innermost,
    as the (M, N) view of their (N, M) coordinates."""
    n = len(ring)
    pts = np.multiply(ring[:, None], s[:, None],
                      out=np.empty((n, len(s), ring.shape[1])))
    pts += offset.T[..., None]
    return pts.reshape(n, -1).T


def _mode_sums(g, frame, disk, M: int, every_other: bool) -> list[_Modes]:
    """The ``_Modes`` of the M-sample psi rule on ``disk`` and, with
    ``every_other`` (M even), of its two check rules: the M/2-sample rule on
    every other sample, and the (M+1)-sample rule, which samples the deficit
    on a grid of its own and checks the balls only: it sums ``lead`` and
    ``trail``, and its other sums stay zero.

    The weight sees at most ``BALL_CHUNK_POINTS`` points per call and grid
    (one disk node if M is larger), built coordinates first; each chunk's
    coefficients are reduced into the per-mode sums, so memory stays that
    of one chunk.  Each chunk's kernel tables are formed once, with the
    M-sample rule's M/2 + 1 modes, which are also the (M+1)-sample rule's,
    and cut for the M/2-sample rule: a cumulative product's prefix is the
    same float.
    """
    sz, w, w_sphere, gamma = disk
    # each node's offset z from the working plane
    offset = np.add.reduce(sz[:, 1:, None] * frame[:, 2:].T[None], axis=1)
    rings = [_ring(frame, M)] + ([_ring(frame, M + 1)] if every_other else [])
    # (samples, grid, which samples, how many of the sums in _Modes order)
    rules = [(M, 0, slice(None), 5)]
    if every_other:
        rules += [(M // 2, 0, slice(None, None, 2), 5), (M + 1, 1, slice(None), 2)]
    sums = [[np.zeros(m // 2 + 1, dtype=complex) for _ in range(5)]
            for m, _, _, _ in rules]
    step = max(1, BALL_CHUNK_POINTS // M)
    for i in range(0, len(w), step):
        j = min(i + step, len(w))
        vals = [np.asarray(g(_ring_points(ring, sz[i:j, 0], offset[i:j])),
                           dtype=float).reshape(j - i, -1)
                for ring in rings]
        lead = _shift(gamma[i:j], M // 2 + 1)
        turn = 1.0 + 1j * np.arange(M // 2 + 1) * lead           # e^{ik gamma}
        kernels = (lead, np.conj(lead), None, turn, np.conj(turn))  # wedge: 1
        for (m, ring, pick, count), acc in zip(rules, sums):
            raw = np.fft.rfft(vals[ring][:, pick], axis=1)
            coef = raw * (w[i:j, None] / m)
            rim = raw * (w_sphere[i:j, None] / m)
            for total, c, kernel in zip(acc[:count], (coef, coef, coef, rim, rim),
                                        kernels):
                total += np.add.reduce(c if kernel is None
                                       else c * kernel[:, :m // 2 + 1], axis=0)
    out = []
    for (m, _, _, _), acc in zip(rules, sums):
        fold = np.full(m // 2 + 1, 2.0)
        fold[0] = 1.0
        if m % 2 == 0:
            fold[-1] = 1.0
        out.append(_Modes(len(w), np.arange(m // 2 + 1), *(fold * x for x in acc)))
    return out


def _evaluate(rules, pieces, phis, deltas=None):
    """(values of each of the ``_Modes`` ``rules``, one row each, and the
    rounding floors of the first rule's) of the sum of ``pieces`` at each
    angle, one sum along its row, in chunks of angles of at most
    ``BLOCK_POINTS`` terms.  The phase table e^{ik phi} and the shift table
    are formed once per chunk, with the first rule's modes, and cut for the
    others: a cumulative product's prefix is the same float.  The floor is
    the worst-case rounding of a sum of as many terms as there are disk
    nodes and modes, times the sum of the terms' moduli."""
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    deltas = None if deltas is None else np.broadcast_to(deltas, phis.shape)
    count = rules[0].k.size
    values, floors = np.empty((len(rules), phis.size)), np.empty(phis.size)
    step = max(1, BLOCK_POINTS // count)
    for i in range(0, phis.size, step):
        j = min(i + step, phis.size)
        rows = _powers(phis[i:j], count)
        shift = None if deltas is None else _shift(deltas[i:j], count)
        for row, modes in enumerate(rules):
            terms = modes.terms(pieces, rows, shift)
            values[row, i:j] = np.add.reduce(terms.real, axis=1)
            if row == 0:
                floors[i:j] = (ULP * (modes.nodes + modes.k.size)
                               * np.add.reduce(np.abs(terms), axis=1))
    return values, floors


class SweepSpectrum:
    """Balls, half-balls, hemispheres, wedges and volume gaps of the swept
    sets on the circle of radius R in the plane of ``frame``'s first two
    columns.

    The grid angles ``theta`` are the ``grid`` angles 2 pi i / grid.  The
    psi grid is sized by the deficit's bandwidth, not by ``grid``: it starts
    at M = min(``PSI_START``, the smallest even multiple of ``grid``)
    samples, and is checked at the grid angles against two rules, its every
    other sample and a uniform grid of M + 1 samples.  The second is no
    sub-rule of the first, so a single mode j of the deficit aliases alike
    on all three only when j = j' mod M (M + 1) with |j'| <= M / 4 (at
    M = 32 the band 1048..1064).  Where either rule's ball differs from the
    M-sample one by more than ``VOLUME_RTOL`` times the ball plus the
    rounding floor, M is multiplied by ``GRID_REFINE``, clamped at the
    ceiling of the smallest even multiple of ``grid`` times
    GRID_REFINE^REFINE_ROUNDS; a disagreement at the ceiling raises an
    error that names the check, the angle, M and the ceiling.  Each value
    comes with an error estimate: its differences from the every-other psi
    rule and from the rule with half the disk nodes, plus the rounding floor
    of its Fourier sum.

    The spectrum keeps its mode sums alone: every method, and the gaps
    that ``gaps`` returns, sums the angles it is given in ``_evaluate``.
    """

    def __init__(self, g, n: int, R: float, frame: np.ndarray, grid: int = 1,
                 nodes: int = SPHERE_NODES, radial_nodes: int = RADIAL_NODES):
        self.n, self.R = n, R
        disk = _disk(n, R, nodes, radial_nodes)
        theta = 2.0 * math.pi * np.arange(grid) / grid
        even = grid if grid % 2 == 0 else 2 * grid
        ceiling = even * GRID_REFINE ** REFINE_ROUNDS
        M = min(PSI_START, even)
        while True:
            full, alias, coprime = _mode_sums(g, frame, disk, M, every_other=True)
            (ball, coarse, other), floor = _evaluate(
                (full, alias, coprime), ("lead", "trail"), theta)
            tolerance = VOLUME_RTOL * np.abs(ball) + floor
            excess = np.abs(np.stack([coarse, other]) - ball) - tolerance
            if np.all(excess <= 0.0):
                break
            if M == ceiling:
                which, worst = np.unravel_index(int(np.argmax(excess)), excess.shape)
                check = (("every-other-sample", coarse), (f"{M + 1}-sample", other))
                name, value = check[which]
                raise RuntimeError(
                    f"psi grid of {M} samples does not resolve the deficit: at "
                    f"angle {theta[worst]:.6g} its ball {ball[worst]:.6e} and the "
                    f"{name} rule's {value[worst]:.6e} differ by more than "
                    f"VOLUME_RTOL, and M = {M} is the ceiling {ceiling} = {even} "
                    f"x GRID_REFINE^REFINE_ROUNDS")
            M = min(M * GRID_REFINE, ceiling)
        self.modes, self.psi_samples, self.theta = full, M, theta
        half = _disk(n, R, max(1, nodes // 2), max(1, radial_nodes // 2))
        self.coarse = (alias, _mode_sums(g, frame, half, M, every_other=False)[0])

    def _integrals(self, pieces, phis, deltas=None):
        """(values, error estimates) of the sum of ``pieces`` at each angle."""
        (values, *coarse), error = _evaluate((self.modes, *self.coarse), pieces,
                                              phis, deltas)
        for other in coarse:
            error += np.abs(other - values)
        return values, error

    def balls(self, phis):
        """|B^phi|_g at each angle, with error estimates."""
        return self._integrals(("lead", "trail"), phis)

    def half_balls(self, phis, upper: bool):
        """g-volumes of the leading (``upper``) or trailing half-balls."""
        return self._integrals(("lead",) if upper else ("trail",), phis)

    def hemispheres(self, phis, upper: bool):
        """g-areas of the leading (``upper``) or trailing hemispheres."""
        return self._integrals(("lead_sphere",) if upper else ("trail_sphere",), phis)

    def wedges(self, phis, deltas):
        """g-volumes of the wedges swept from phis[i] to phis[i] + deltas[i]."""
        return self._integrals(("wedge",), phis, deltas)

    def volume_gaps(self, phis, deltas):
        """V_f(E) - omega_N of the sets based at phis[i] with sweep deltas[i],
        with error estimates: the excess minus |B^phi|_g and the added
        [phi + gamma, phi + gamma + delta] piece."""
        values, error = self._integrals(("lead", "trail", "extend"), phis, deltas)
        return swept_excess(self.n, self.R, np.asarray(deltas))[1] - values, error

    def gaps(self, ball):
        """(idx, deltas) -> V_f(E) - omega_N of the sets based at the grid
        angles theta[idx] with sweeps deltas: the excess minus the grid ball
        ``ball[idx]`` (``balls(theta)``'s values) minus the ``extend`` piece
        of the full rule at each angle (``_evaluate``)."""
        def gaps(idx, deltas) -> np.ndarray:
            added = _evaluate((self.modes,), ("extend",), self.theta[idx], deltas)[0][0]
            return swept_excess(self.n, self.R, deltas)[1] - ball[idx] - added
        return gaps


@dataclass(frozen=True)
class SubsphereMeans:
    """Means of P_g and V_g over subspheres of centres, one row per frame,
    columns (P_g, V_g), with their error estimates; unpacks as
    (means, errors).  ``circle_samples`` is the azimuth count of the
    subsphere rule: the settled circle rule at k = 2, ``circle_nodes`` at
    k >= 3."""

    means: np.ndarray
    errors: np.ndarray
    circle_samples: int

    def __iter__(self):
        return iter((self.means, self.errors))


def _meridian_rule(n: int, R: float, k: int, nodes: int, radial_nodes: int):
    """Nodes (s, w) of the meridian ball of a k-dimensional subspace and the
    kernels of the mean P_g and V_g at them, shape (2, nodes)."""
    sz, w, w_sphere, gamma = _disk(n, R, nodes, radial_nodes, k)
    ratio = unit_sphere_area(k - 1) / unit_sphere_area(k)
    sigma = ratio * sin_power_integral(k - 2, gamma,
                                       one_minus_cos=2.0 * np.sin(0.5 * gamma) ** 2)
    return sz, np.stack([ratio * w_sphere, w * sigma])


def _subsphere_sums(g, frames: np.ndarray, k: int, rule, u, wu):
    """(means, every-other-sample means, rounding floors), each of shape
    (frames, 2), of the meridian-ball rule ``rule`` times the subsphere rule
    (u, wu) about every frame's first k columns.

    All frames share the weight calls: each call takes a block of frames
    times a block of meridian nodes times the subsphere rule, at most
    ``BLOCK_POINTS`` points (one node if the subsphere rule is larger),
    built by broadcasting s ring[frames] + offset[frames, nodes], and
    reduced over the nodes one block of frames at a time.  Every per-node
    and per-frame sum runs over the same contiguous axis as for one frame
    alone, so a frame's floats do not depend on its block.
    The every-other means weight every other sample twice: the half rule
    of a uniform circle.  The floor is the worst-case rounding of a sum of
    as many terms as nodes and angles, times the sum of the terms' moduli.
    """
    sz, kernel = rule
    n, nodes, angles = frames.shape[1], len(sz), len(wu)
    # each frame's subsphere rule, coordinate first, and its complement as rows
    ring = np.add.reduce(u[None, :, :, None]
                         * frames[:, :, :k].transpose(0, 2, 1)[:, None],
                         axis=2).transpose(2, 0, 1)
    normal = frames[:, :, k:].transpose(0, 2, 1)
    node_step = min(nodes, max(1, BLOCK_POINTS // angles))
    frame_step = max(1, BLOCK_POINTS // (node_step * angles))
    kernels = np.stack([kernel, kernel, np.abs(kernel)])
    out = np.empty((len(frames), 3, 2))
    for f in range(0, len(frames), frame_step):
        e = min(f + frame_step, len(frames))
        sums = np.empty((e - f, 3, nodes))
        for i in range(0, nodes, node_step):
            j = min(i + node_step, nodes)
            offset = np.add.reduce(sz[None, i:j, 1:, None] * normal[f:e, None], axis=2)
            # the points coordinate by coordinate, nodes innermost: the
            # broadcasts run over the long axis, and g reads whole columns
            pts = np.multiply(ring[:, f:e, :, None], sz[i:j, 0])
            pts += offset.transpose(2, 0, 1)[:, :, None]
            vals = np.asarray(g(pts.reshape(n, -1).T), dtype=float)
            vals = np.multiply(wu, vals.reshape(e - f, angles, j - i)
                               .transpose(0, 2, 1), order="C")
            sums[:, 0, i:j] = np.add.reduce(vals, axis=2)
            sums[:, 1, i:j] = np.add.reduce(2.0 * vals[..., ::2], axis=2)
            sums[:, 2, i:j] = np.add.reduce(np.abs(vals), axis=2)
        out[f:e] = np.add.reduce(kernels * sums[:, :, None], axis=3)
    means, alias, size = out.transpose(1, 0, 2)
    return means, alias, ULP * (nodes + angles) * size


def subsphere_means(g, frames, k: int, R: float, nodes: int = SPHERE_NODES,
                    radial_nodes: int = RADIAL_NODES,
                    circle_nodes: int = 32) -> SubsphereMeans:
    """Means of P_g and V_g of the unit balls about R v over the unit vectors
    v of a k-dimensional subspace, one subspace per frame.

    Each frame is an (N, N) orthonormal matrix whose first k columns span
    the subspace.  Returns a ``SubsphereMeans``, which unpacks as (means,
    errors), each of shape (frames, 2) with columns (P_g, V_g).  A mean is
    a sum over the nodes (s, w) of the meridian ball of the deficit's
    integral over the sphere {s u + w}, times the kernels of the module
    docstring; all frames share the weight calls (``_subsphere_sums``).

    For k = 2 the sphere is a circle, and its uniform rule of C samples is
    sized by the deficit, as the sweep spectrum's psi rule is: C starts at
    ``CIRCLE_START`` and is accepted when, for every frame, both checks
    agree with it to ``VOLUME_RTOL`` times the mean plus the rounding
    floor: the C-rule's every other sample, and, on the rule with half the
    meridian nodes, a uniform rule of C + 1 samples, which is no sub-rule
    of it and so sees the modes at multiples of C.  Otherwise C is
    multiplied by ``GRID_REFINE`` up to CIRCLE_START x
    GRID_REFINE^REFINE_ROUNDS, where it is accepted: the descent compares
    each mean plus its estimate, so a disagreement there stays in it.  The
    estimate is the differences from the every-other rule, of the C and
    C + 1 rules on the half meridian rule, and from the half meridian
    rule, plus the rounding floor.

    For k >= 3 the rule is ``sphere_grid(k, max(8, circle_nodes // 4),
    circle_nodes)``: ``circle_nodes`` sets that level's azimuth count and
    nothing at k = 2.  The estimate is the differences from the rule with
    half the angular nodes and from the rule with half the meridian-ball
    nodes, plus the rounding floor.
    """
    frames = np.asarray(frames, dtype=float)
    n = frames.shape[1]
    full = _meridian_rule(n, R, k, nodes, radial_nodes)
    half = _meridian_rule(n, R, k, max(1, nodes // 2), max(1, radial_nodes // 2))
    if k > 2:
        polar = max(8, circle_nodes // 4)
        sphere = sphere_grid(k, polar, circle_nodes)
        means, _, floor = _subsphere_sums(g, frames, k, full, *sphere)
        disk = _subsphere_sums(g, frames, k, half, *sphere)[0]
        angular = _subsphere_sums(g, frames, k, full, *sphere_grid(
            k, max(1, polar // 2), max(1, circle_nodes // 2)))[0]
        return SubsphereMeans(means, np.abs(means - angular) + np.abs(means - disk)
                              + floor, circle_nodes)
    ceiling = CIRCLE_START * GRID_REFINE ** REFINE_ROUNDS
    C = CIRCLE_START
    while True:
        circle = sphere_grid(2, 1, C)     # S^1 takes no polar nodes
        means, alias, floor = _subsphere_sums(g, frames, 2, full, *circle)
        disk, _, disk_floor = _subsphere_sums(g, frames, 2, half, *circle)
        other = _subsphere_sums(g, frames, 2, half, *sphere_grid(2, 1, C + 1))[0]
        alias_gap, coprime_gap = np.abs(alias - means), np.abs(other - disk)
        if C == ceiling or (
                np.all(alias_gap <= VOLUME_RTOL * np.abs(means) + floor)
                and np.all(coprime_gap <= VOLUME_RTOL * np.abs(disk) + disk_floor)):
            return SubsphereMeans(means, alias_gap + coprime_gap
                                  + np.abs(means - disk) + floor, C)
        C = min(C * GRID_REFINE, ceiling)
