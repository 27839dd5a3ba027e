#!/usr/bin/env python3
"""Acute versus grave operator under a piecewise-constant diffusivity.

The two operator variants differ in whether the diffusivity k sits inside
or outside the fractional integral.  For constant k they coincide; for a
diffusivity with a jump at x = 1/2 they respond differently, and the
grave solution carries a visible kink at the interface.  This script runs
both variants for both jump directions plus a constant-k control.
"""

import numpy as np

from fracspec import ProblemSpec, parse, run_comparison, solve_beta

k1 = parse("piecewise(0.5; 2; 1)")   # drops from 2 to 1 at the interface
k2 = parse("piecewise(0.5; 1; 2)")   # rises from 1 to 2
k_const = parse("1")

# run_comparison solves each diffusivity in both variants, replacing the
# spec's own k and variant
spec = ProblemSpec(
    fp=solve_beta(1.4, 0.4),
    variant="acute",
    k=k_const,
    b=np.exp,
    c=lambda x: 5.0 + np.sin(x),
    f=lambda x: np.ones_like(x),
    N=40,
)
reports = run_comparison(spec, [k1, k2, k_const])

labels = ["k1 (2 -> 1)", "k2 (1 -> 2)", "constant"]
for label, rep in zip(labels, reports):
    gap = np.max(np.abs(rep.u_acute - rep.u_grave))
    print(f"{label:12s}  max|u_acute - u_grave| = {gap:.3e}")

print()
print("one-sided difference quotients of u across the interface")
print("(a kink shows up as a left/right mismatch):")
x = reports[0].x
h = x[1] - x[0]
i = np.argmin(np.abs(x - 0.5))
for label, rep in zip(labels[:2], reports[:2]):
    for name, u in (("acute", rep.u_acute), ("grave", rep.u_grave)):
        left = (u[i] - u[i - 1]) / h
        right = (u[i + 1] - u[i]) / h
        print(f"  {label:12s} {name:5s}  left {left: .4f}  right {right: .4f}"
              f"  ratio {right / left: .4f}")
