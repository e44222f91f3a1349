"""Single source of truth for numerical defaults.

==================  =========  ==================================================
name                value      used by
==================  =========  ==================================================
EPS                 0.01       slack epsilon in far-ball and competitor searches
LAYER_NODES         24         Gauss nodes per panel of the 1-D layer integrals
MC_SAMPLES          1_000_000  Monte-Carlo budget per measure: a ceiling on
                               the lattice points drawn
MC_SHIFTS           16         random shifts of each Monte-Carlo lattice rule
SPHERE_NODES        64         Gauss nodes per angle on sphere grids; ceiling
                               of the certified sets' sized rules; the
                               deficit profile's sphere rule starts at
                               SPHERE_NODES / GRID_REFINE
RADIAL_NODES        64         Gauss nodes along radial directions; ceiling
                               of the certified sets' sized rules
SCAN_STEP           0.25       sliding-search grid step in the offset R
CIRCLE_GRID         720        working-circle grid: advance map, far-ball angles
GRID_REFINE         4          refinement factor of scan grids and layer panels
REFINE_ROUNDS       2          refinement rounds before failure; rule ceilings
VOLUME_RTOL         1e-8       volume matching tolerance, relative to |B|_g
ENDPOINT_MARGIN     1e-6       kernel grids stay inside |t| <= 1 - margin
REPORT_CLIP         1e-9       clip for tabulated exact kernels near t = +-1
DEGENERACY_TOL      0.0        deficits sampled exactly zero count as vanished
BALL_CHUNK_POINTS   65_536     largest weight call; the unit of the
                               spectrum's mode sums, whose results depend
                               on it; the largest deficit-profile sphere
                               rule past SPHERE_NODES
BLOCK_POINTS        8_192      points per weight call wherever the values do
                               not depend on the block: Gauss-pass and
                               Monte Carlo blocks, spherical means, the
                               descent's sums, angle scans, the tail test
PSI_START           32         first psi grid of a sweep spectrum (or fewer)
CIRCLE_START        8          first circle rule of the working-circle descent
==================  =========  ==================================================

Deficit degeneracy is exact on purpose: registered families carry closed-form
deficits that stay meaningful far below the weight's rounding floor, so a
sampled tail counts as identically zero only when every sample is 0.0.  For
the same reason the volume-matching tolerance scales with the base ball's
deficit volume |B|_g, not with omega_N: at offset 50 the exponential families
have |B|_g ~ 1e-21, and only a relative tolerance matches the volume there.

The certified swept set and the cylinder do not always run at the ceiling
(SPHERE_NODES, RADIAL_NODES), or (nodes, RADIAL_NODES) for a caller's nodes:
their Gauss rule is sized by their own deficit budget
(``measures.sized_pass``).  The rules 16, 32, ... below the ceiling are
tried in turn, and the first whose deficit estimates over the boundary and
the interior are both within VOLUME_RTOL x |B|_g is kept, else the ceiling.

The deficit profile of a non-radial weight (``density.deficit_profile``)
and ``radial_average`` are means on one sized sphere rule,
``sphere_grid(N, p, p)``.  Each call starts at p = SPHERE_NODES /
GRID_REFINE nodes per angle and accepts the rule when its half rule (p / 2
nodes per angle) and the rules of p + 1 and p - 1 nodes per angle, no
sub-rules of it, all agree with it at every radius to VOLUME_RTOL times
the mean plus the rounding floor.  Otherwise p is multiplied by GRID_REFINE, at most
REFINE_ROUNDS times, and past SPHERE_NODES only while the rule has at most
BALL_CHUNK_POINTS points: 16, 64 and 256 nodes per angle at N = 2 and 3,
16 and 64 at N >= 4.  A disagreement at the ceiling raises.  The checks'
differences plus the floor are the profile's error, which the layer
integrals carry into the far ball's P_g and V_g, its margin and the sign
search's correlations.

Every scan over the angles of a working circle (balls, half-balls,
hemispheres, wedges, volume gaps, and the far-ball direction's margins)
comes from one sample of the deficit on the meridian disk times a psi grid
(``spectral.SweepSpectrum``).  The psi grid is sized by the deficit, not by
the angle grid: it starts at PSI_START samples (at the angle grid's smallest
even multiple when that is smaller) and is refined by GRID_REFINE until its
every-other-sample rule and a rule of one sample more both agree with it to
VOLUME_RTOL, never past the angle grid's even multiple times
GRID_REFINE^REFINE_ROUNDS.  The working-circle descent's candidate means
come from the same meridian rule about each candidate subspace, a block of
candidates in shared weight calls, on a circle rule sized the same way from
CIRCLE_START samples (``spectral.subsphere_means``).

The weight is handed its points in bounded calls.  BLOCK_POINTS is the
size of every call whose floats do not depend on the block: the blocks of
every Gauss pass (``set_measures``, the sized passes, the cylinder's
heights) and of every shift of a Monte Carlo lattice rule
(``measures.mc_integrals``), the spherical means (the deficit profile,
``weighted_ball_measures``), the descent's subsphere sums, the spectrum's
angle scans and the far-radius tail test.  Each value there is a sum along
one row (a patch's rule, a shift, a radius, an angle, a frame), held whole
by a block or cut at the leaves of numpy's pairwise summation tree
(``quadrature.pairwise_leaves``), whose sums add back up to the float of
one sum over the row.  BALL_CHUNK_POINTS is the largest call.  It sets the
spectrum's mode sums, whose floats depend on it, and the ceiling of the
deficit profile's sphere rules.

Monte Carlo is a randomized rank-1 lattice rule (``measures.Sample``): per
patch, MC_SHIFTS random shifts of one lattice, tent-transformed, of the
largest tabled prime size whose points fit the patch's share of
MC_SAMPLES (or of a caller's budget), so the points drawn never exceed it.
A value is the mean of the shifts' estimates and its standard error their
standard deviation over sqrt(MC_SHIFTS).
"""

EPS = 0.01
LAYER_NODES = 24
MC_SAMPLES = 1_000_000
MC_SHIFTS = 16
SPHERE_NODES = 64
RADIAL_NODES = 64
SCAN_STEP = 0.25
CIRCLE_GRID = 720
GRID_REFINE = 4
REFINE_ROUNDS = 2
VOLUME_RTOL = 1e-8
ENDPOINT_MARGIN = 1e-6
REPORT_CLIP = 1e-9
DEGENERACY_TOL = 0.0
BALL_CHUNK_POINTS = 65_536
BLOCK_POINTS = 8_192
PSI_START = 32
CIRCLE_START = 8

SCHEMA_VERSION = 1
