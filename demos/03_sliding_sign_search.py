#!/usr/bin/env python3
"""Sliding-kernel sign certificates.

The excess kernel (layer area kernel minus N times the layer volume kernel)
has a closed-form primitive vanishing at both endpoints with strictly
positive running integral: correlating it against a vanishing deficit
profile therefore admits arbitrarily large translates with nonnegative
correlation.  The script verifies admissibility, scans translates for an
exponential deficit and for a compactly supported bump, and checks the
averaged-translate identity that drives the argument.
"""

import math

import numpy as np

from isoplab import (RadialDeficit, averaging_identity_residual,
                     check_admissibility, correlation, excess_kernel,
                     sliding_sign_search)

E = math.e

print("=" * 72)
print("admissibility of the excess kernel")
print("=" * 72)
for n in (2, 3, 4):
    k = excess_kernel(n)
    rep = check_admissibility(k)
    print(f"  n={n}: integral zero={rep.integral_zero}, positive inside="
          f"{rep.positive_inside} (min running {rep.min_running:.2e}), "
          f"primitive(1)={rep.primitive_at_one:.2e}")

print("\nexponential deficit g(r) = exp(-r), n = 3:")
print("  closed form: corr(R) = pi (2e - 14/e) exp(-R)")
k3 = excess_kernel(3)
g = RadialDeficit(dim=3, profile=lambda r: np.exp(-np.asarray(r, dtype=float)))
const = math.pi * (2 * E - 14 / E)
for R in (5.0, 10.0, 20.0):
    c, _ = correlation(k3, g, R)
    print(f"  R={R:5.1f}: corr={c:.6e}  closed={const * math.exp(-R):.6e}")

out = sliding_sign_search(k3, g, 5.0, 40.0)
print(f"  scan: first qualifying translate R={out.R} "
      f"(strict={out.strict}, degenerate={out.degenerate})")

print("\ncompactly supported bump on [5, 6]:")


def bump(r):
    r = np.asarray(r, dtype=float)
    return ((r >= 5.0) & (r <= 6.0)).astype(float)


gb = RadialDeficit(dim=3, profile=bump, support_hint=6.0, breakpoints=(5.0, 6.0))
out = sliding_sign_search(k3, gb, 4.5, 10.0)
print(f"  first qualifying R = {out.R}, corr = {out.correlation:.6f}")
print("  scan table (R, corr):")
for R, c in out.scan:
    print(f"    {R:6.2f}  {c:+.6f}")

print("\naveraged-translate identity over [R', R''] = [5, 10]:")
lhs, rhs, resid = averaging_identity_residual(k3, g, 5.0, 10.0)
print(f"  lhs = {lhs:.12e}")
print(f"  rhs = {rhs:.12e}")
print(f"  |lhs - rhs| = {resid:.2e}")
