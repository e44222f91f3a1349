#!/usr/bin/env python3
"""Far-ball certificates: offsets and directions where the deficit perimeter
of a unit ball dominates (N - eps) times its deficit volume.

The radial search reduces to the excess-kernel scan and re-verifies with
the exact kernels; the direction selection then lifts the certificate from
the radial average to the actual weight by scanning the angles of the
working circle, whose mean margin is at least the radial margin (in n = 2
the circle is the whole sphere, and the two are equal).
"""

import numpy as np

from isoplab import (deficit_profile, density_from_config,
                     directional_margins, find_far_radius, select_direction)
from isoplab.quadrature import sphere_grid

print("=" * 72)
print("radial exponential deficit, n = 3: every offset qualifies")
print("=" * 72)
exp3 = density_from_config({"family": "radial_exp", "dim": 3, "a": 1.0})
g = deficit_profile(exp3)
cert = find_far_radius(g, 3, eps=0.05, R_min=10.0, R_max=60.0)
print(f"  offset R = {cert.R}")
print(f"  P_g = {cert.P_g.value:.6e}   V_g = {cert.V_g.value:.6e}")
print(f"  ratio = {cert.P_g.value / cert.V_g.value:.5f} "
      f"(threshold N - eps = {3 - 0.05})")
print(f"  margin = {cert.margin:.3e}, degenerate = {cert.degenerate}")

print("\nconstant density: zero deficit gives the degenerate branch")
const = density_from_config({"family": "constant", "dim": 2, "a": 1.0})
certc = find_far_radius(deficit_profile(const), 2, eps=0.05, R_min=5.0,
                        R_max=20.0)
print(f"  degenerate = {certc.degenerate} at R = {certc.R} "
      "(the ball is already full)")

print("\nangular modulation, n = 2: the offset's certificate lifted to a direction")
am = density_from_config({"family": "angular_mod", "dim": 2, "a": 1.0,
                          "params": {"eta": 0.5, "k": 1, "c": 1.0}})
far = find_far_radius(deficit_profile(am), 2, eps=0.05, R_min=6.0, R_max=60.0)
cert = select_direction(am, far, node_count=360, quad_nodes=48)
theta = np.array(cert.theta)
print(f"  offset R = {cert.R}")
print(f"  selected direction = ({theta[0]:+.4f}, {theta[1]:+.4f})")
print(f"  margin = {cert.margin:.6e}")

dirs, w = sphere_grid(2, 1, 24)
w = w / w.sum()
P, V, margins = directional_margins(am, cert.R, 0.05, dirs, nodes=48)
print("  margin profile over the direction grid (24 points):")
for i in range(0, 24, 4):
    ang = 2 * np.pi * i / 24
    print(f"    theta = {ang:5.2f}: margin = {margins[i]:+.6e}")
print(f"  grid-average margin = {float(margins @ w):.6e} "
      "(equals the radial-average margin)")
