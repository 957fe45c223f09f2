"""One quantized-control episode end to end, with bit accounting.

A sensor quantizes the plant state on a shrinking grid and ships only
the cell index as a logged bit string; the controller mirrors the
grid, reconstructs the same cell, and both sides derive the next control
segment from the quantized point alone.  Afterwards the log is audited
offline: tracking envelope, containment balls, and windowed recurrence
of both the reconstructed and the true trajectory.
"""

import numpy as np

from recurq import (CompactSet, bit_rate, double_integrator,
                    reference_controller_double_integrator, run_episode,
                    verify_guarantees)


def main():
    Q = CompactSet.box([0.0, 0.0], [1.0, 1.0])
    sys = double_integrator()
    eps, tau, alpha = 0.1, 2.0, 0.1

    print("validating the reference feedback over a grid on Q ...")
    controller = reference_controller_double_integrator(Q, tau, eps)
    print(f"  worst visit gap {controller.max_visit_gap:.2f} s <= tau, "
          f"c* = {controller.c_star:.3f}, L = {controller.L_tau}")

    log = run_episode(sys, Q, controller, x0=[0.6, -0.4], eps=eps, tau=tau,
                      alpha=alpha, steps=30, dt=0.01)

    print(f"\nbits per step: {[len(s.bits) for s in log.steps[:6]]} ... "
          f"(total {log.total_bits})")
    r = bit_rate(log)
    print(f"steady rate {r.steady_rate} bits/s vs asymptote "
          f"{r.asymptote:.5f} (gap {r.ceiling_gap:.5f})")

    report = verify_guarantees(log)
    print("\noffline audit:")
    for name, clause in (("x_i in S_i", report.state_in_ball),
                         ("tracking envelope", report.tracking),
                         ("reconstructed recurrence", report.hat_recurrent),
                         ("true recurrence", report.true_recurrent)):
        print(f"  {name:25s} {'PASS' if clause.passed else 'FAIL'} "
              f"(worst margin {clause.worst_margin:.2e})")

    t, x_hat = log.hat_trajectory()
    _, x_pl = log.plant_trajectory()
    worst = float(np.max(np.abs(x_hat - x_pl)))
    print(f"\nlargest reconstruction error {worst:.2e} "
          f"(envelope starts at eps = {log.config['eps']})")
    log.to_jsonl("episode.jsonl")
    print("episode written to episode.jsonl (verify with: "
          "recurq verify episode.jsonl)")


if __name__ == "__main__":
    main()
