"""Entropy bounds for the planar benchmark across recurrence windows.

The double integrator x1' = x2, x2' = u with |u| <= 1 must revisit the
unit square Q = [-1,1]^2.  For windows tau >= 2 every corner can return
in time and the information rate needed to enforce recurrence is at most
L * dim(Q) / ln 2 = 2/ln2 ~ 2.885 bits/s.  Below tau = 2 the corner
(1,1) cannot come back fast enough under any admissible input, so no
finite bit rate suffices.
"""

import math

from recurq import (Box, double_integrator, lipschitz_region,
                    lower_bound, upper_bound)
from recurq.cli import corner_return_sweep

LN2 = math.log(2.0)


def main():
    sys = double_integrator()
    Q = Box([0.0, 0.0], [1.0, 1.0])

    print(f"{'tau':>5} {'L':>5} {'delta':>8} {'upper':>8} {'lower':>6} verdict")
    for tau in (1.0, 1.5, 1.9, 2.0, 2.5, 3.0):
        constants, _ = lipschitz_region(sys, Q, tau)
        up = upper_bound(constants.L_tau, Q)
        lo = lower_bound(sys, Q, constants.delta_tau)
        sweep = corner_return_sweep(sys, Q, tau)
        bad = [(c, t) for c, t in sweep if t > tau + 1e-6]
        verdict = "finite" if not bad else f"infinite (corner {bad[-1][0]})"
        print(f"{tau:5.1f} {constants.L_tau:5.2f} {constants.delta_tau:8.3f} "
              f"{up:8.5f} {lo:6.3f} {verdict}")

    print("\nMinimum first-return time from each corner (9 constant inputs):")
    for corner, t in corner_return_sweep(sys, Q, 2.0):
        shown = f"{t:.4f}" if math.isfinite(t) else "never"
        print(f"  corner {corner}: {shown}")
    print("\nThe (1,1) corner needs exactly 2 s (full braking u = -1), which "
          "is why the verdict flips at tau = 2.")


if __name__ == "__main__":
    main()
