import math

import numpy as np
import pytest

from recurq import (Box, CompactSet, ControlSignal, RecurrenceSpec,
                    ResolutionError, containment_radius, double_integrator,
                    estimate_F_Q, estimate_L, first_return_time, integrate,
                    is_invariant, is_recurrent, lipschitz_region,
                    scalar_linear)

UNIT_SQUARE = CompactSet.box([0.0, 0.0], [1.0, 1.0])


def corner_trajectory(horizon=4.0, dt=0.01):
    """Double integrator from (1,1) under u = -1: leaves Q, returns at t=2."""
    sys = double_integrator()
    return integrate(sys, [1.0, 1.0], ControlSignal.constant([-1.0], horizon),
                     horizon, dt)


class TestIsRecurrent:
    def test_corner_trajectory_recurrent_for_tau_2(self):
        traj = corner_trajectory()
        ok, witness = is_recurrent(traj, RecurrenceSpec(UNIT_SQUARE, tau=2.0, T=4.0))
        assert ok and witness is None

    def test_corner_trajectory_not_recurrent_below_2(self):
        traj = corner_trajectory()
        ok, witness = is_recurrent(traj, RecurrenceSpec(UNIT_SQUARE, tau=1.9, T=4.0))
        assert not ok
        # the violating window starts at the departure time t=0
        assert witness == pytest.approx(0.0, abs=1e-9)

    def test_eps_slack_restores_recurrence(self):
        # over [0, 2] the excursion peaks at distance 0.5 from Q (t=1, x1=1.5);
        # with eps=0.49 the uncovered stretch around the peak lasts ~0.283 s
        traj = corner_trajectory(horizon=2.0)
        ok, _ = is_recurrent(traj, RecurrenceSpec(UNIT_SQUARE, tau=0.2, eps=0.5,
                                                  T=2.0))
        assert ok
        ok, _ = is_recurrent(traj, RecurrenceSpec(UNIT_SQUARE, tau=0.2, eps=0.49,
                                                  T=2.0))
        assert not ok

    def test_never_visiting(self):
        sys = double_integrator()
        traj = integrate(sys, [5.0, 0.0], ControlSignal.constant([1.0], 4.0),
                         4.0, 0.01)
        ok, witness = is_recurrent(traj, RecurrenceSpec(UNIT_SQUARE, tau=1.0, T=4.0))
        assert not ok and witness == 0.0

    def test_tail_violation_witness(self):
        # leaves Q when x2 crosses 1 at t=1, never returns: witness is the
        # last visit
        sys = double_integrator()
        traj = integrate(sys, [0.0, 0.0], ControlSignal.constant([1.0], 6.0),
                         6.0, 0.01)
        ok, witness = is_recurrent(traj, RecurrenceSpec(UNIT_SQUARE, tau=2.0, T=6.0))
        assert not ok
        assert witness == pytest.approx(1.0, abs=0.02)

    def test_resolution_guard(self):
        traj = corner_trajectory(dt=0.5)
        with pytest.raises(ResolutionError):
            is_recurrent(traj, RecurrenceSpec(UNIT_SQUARE, tau=1.0, T=4.0))

    def test_short_trajectory_rejected(self):
        traj = corner_trajectory(horizon=3.0)
        with pytest.raises(ValueError):
            is_recurrent(traj, RecurrenceSpec(UNIT_SQUARE, tau=2.0, T=4.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RecurrenceSpec(UNIT_SQUARE, tau=-1.0)
        with pytest.raises(ValueError):
            RecurrenceSpec(UNIT_SQUARE, tau=3.0, T=2.0)


class TestIsInvariant:
    def test_corner_trajectory_not_invariant(self):
        traj = corner_trajectory()
        ok, t = is_invariant(traj, UNIT_SQUARE, 0.0, 4.0)
        assert not ok
        assert 0.0 < t < 0.1

    def test_interior_stays(self):
        sys = double_integrator()
        traj = integrate(sys, [0.0, 0.0], ControlSignal.constant([0.0], 4.0),
                         4.0, 0.01)
        ok, t = is_invariant(traj, UNIT_SQUARE, 0.0, 4.0)
        assert ok and t is None

    def test_eps_inflation(self):
        # the excursion stays within 0.5 of Q up to the return at t=2
        traj = corner_trajectory(horizon=2.0)
        ok, _ = is_invariant(traj, UNIT_SQUARE, 0.5, 2.0)
        assert ok


class TestFirstReturn:
    def test_closed_form_return_at_2(self):
        sys = double_integrator()
        t = first_return_time(sys, [1.0, 1.0],
                              ControlSignal.constant([-1.0], 8.0),
                              UNIT_SQUARE, 8.0, 0.01)
        assert t == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid")
    def test_none_when_never_returning(self):
        sys = double_integrator()
        t = first_return_time(sys, [1.0, 1.0],
                              ControlSignal.constant([1.0], 8.0),
                              UNIT_SQUARE, 8.0, 0.01)
        assert t is None
        # x' = 200 x leaves [-1, 1] from 1.5 and overflows before t = 5
        t = first_return_time(scalar_linear(a=200.0), [1.5],
                              ControlSignal.constant([0.0], 5.0),
                              CompactSet.box([0.0], [1.0]), 5.0, 0.01)
        assert t is None

    def test_batch_rows_match_single_calls(self):
        sys = double_integrator()
        X = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.5], [-1.0, -1.0]])
        U = np.array([[-1.0], [1.0], [-0.5], [1.0]])
        # 7.995 s ends on a partial step
        for horizon in (8.0, 7.995):
            batch = first_return_time(sys, X, ControlSignal(8.0, U[None]),
                                      UNIT_SQUARE, horizon, 0.01)
            assert len(batch) == 4 and batch[1] is None  # full thrust escapes
            for x0, u, t in zip(X, U, batch):
                alone = first_return_time(sys, x0,
                                          ControlSignal.constant(u, 8.0),
                                          UNIT_SQUARE, horizon, 0.01)
                assert t == alone

    def test_entry_inside_partial_last_step(self):
        # x' = u = -1 from 7.998 crosses [-1e-4, 1e-4] over [7.9979, 7.9981];
        # the horizon 7.998 ends on a partial step of 0.008 s, so bisecting
        # over a full 0.01 s step would run past the exit
        sys = scalar_linear(a=0.0)
        t = first_return_time(sys, [7.998], ControlSignal.constant([-1.0], 8.0),
                              CompactSet.box([0.0], [1e-4]), 7.998, 0.01)
        assert t == pytest.approx(7.9979, abs=1e-8)

    def test_interior_start_returns_immediately(self):
        sys = double_integrator()
        t = first_return_time(sys, [0.0, 0.0],
                              ControlSignal.constant([0.0], 1.0),
                              UNIT_SQUARE, 1.0, 0.01)
        assert t is not None and t <= 0.01


class TestConstants:
    def test_F_Q_double_integrator(self):
        sys = double_integrator()
        assert estimate_F_Q(sys, UNIT_SQUARE) == 1.0

    def test_F_Q_grows_with_region(self):
        sys = double_integrator()
        big = CompactSet.box([0.0, 0.0], [1.0, 3.0])
        assert estimate_F_Q(sys, big) == 3.0

    def test_L_double_integrator_exact(self):
        sys = double_integrator()
        assert estimate_L(sys, Box([0.0, 0.0], [5.0, 5.0])) == 1.0

    def test_L_scalar_linear(self):
        # sampled quotients can exceed a by rounding, so allow a few ulps
        sys = scalar_linear(a=1.0)
        assert estimate_L(sys, Box([0.0], [3.0])) == pytest.approx(1.0, rel=1e-12)
        assert estimate_L(scalar_linear(a=2.5),
                          Box([0.0], [3.0])) == pytest.approx(2.5, rel=1e-12)

    def test_containment_radius_formula(self):
        assert containment_radius(1.0, 1.0, 2.0) == pytest.approx(
            2.0 * math.exp(2.0), rel=1e-15)
        assert containment_radius(1.0, 0.0, 3.0) == 3.0
        with pytest.raises(ValueError):
            containment_radius(-1.0, 1.0, 1.0)

    def test_lipschitz_region_double_integrator(self):
        sys = double_integrator()
        constants, box = lipschitz_region(sys, UNIT_SQUARE, 2.0)
        assert constants.F_Q == 1.0
        assert constants.L_tau == 1.0
        assert constants.delta_tau == pytest.approx(2.0 * math.exp(2.0), rel=1e-12)
        assert constants.converged
        # the returned region contains the inflated neighborhood of Q
        assert box.contains([1.0 + constants.delta_tau, 0.0])

    def test_lipschitz_region_linear_converges_immediately(self):
        sys = scalar_linear(a=1.0)
        Q = CompactSet.box([0.0], [1.0])
        constants, _ = lipschitz_region(sys, Q, 1.0)
        assert constants.L_tau == pytest.approx(1.0, rel=1e-12)
        assert constants.converged

    def test_containment_holds_on_recurrent_trajectory(self):
        # the corner excursion is tau=2 recurrent on [0, 4] and stays well
        # inside the certified radius there
        sys = double_integrator()
        traj = corner_trajectory(horizon=4.0)
        constants, _ = lipschitz_region(sys, UNIT_SQUARE, 2.0)
        worst = max(
            max(0.0, float(np.max(np.abs(x) - 1.0))) for x in traj.states)
        assert worst <= constants.delta_tau
