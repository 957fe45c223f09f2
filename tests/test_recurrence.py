import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurq import (Box, CompactSet, ControlSignal, ControlSystem,
                    RecurrenceSpec, ResolutionError, Trajectory,
                    containment_radius, double_integrator, estimate_F_Q,
                    estimate_L, first_return_time, integrate, is_invariant,
                    is_recurrent, lipschitz_region, scalar_linear)

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
        for tau in (1.0, 4.0):
            # at tau = T the no-visit stretch is infinite, so it still fails
            ok, witness = is_recurrent(traj, RecurrenceSpec(UNIT_SQUARE,
                                                            tau=tau, T=4.0))
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


def brute_force_recurrent(visits, dt, tau, T):
    """Every window [t, t + tau], t on a dt/4 grid over [0, T - tau], holds
    a visit."""
    starts = (dt / 4) * np.arange(int(round((T - tau) / (dt / 4))) + 1)
    return all(np.any((visits >= t) & (visits <= t + tau)) for t in starts)


class TestIsRecurrentOracle:
    @given(dt=st.sampled_from([0.25, 0.5, 1.0]), m=st.integers(10, 16),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_window_scan_and_batch(self, dt, m, data):
        # tau = (m + 1/2) dt keeps every gap off the 1e-12 tolerance edges,
        # and dt, dt/4 are binary fractions, so the windows are exact
        tau = (m + 0.5) * dt
        K = data.draw(st.integers(m + 1, 40))
        rows = data.draw(st.lists(st.sets(st.integers(0, K), max_size=6),
                                  min_size=1, max_size=4))
        visited = np.zeros((len(rows), K + 1), dtype=bool)  # (B, K+1)
        for b, visits in enumerate(rows):
            visited[b, list(visits)] = True
        times = dt * np.arange(K + 1)
        T = K * dt
        states = np.where(visited.T, 0.0, 5.0)[..., None]  # (K+1, B, 1)
        spec = RecurrenceSpec(CompactSet.box([0.0], [1.0]), tau=tau, T=T)
        batch = is_recurrent(Trajectory(times, states), spec)
        inv = is_invariant(Trajectory(times, states), spec.Q, 0.0, T)
        assert len(batch) == len(inv) == len(rows)
        for b in range(len(rows)):
            row = Trajectory(times, states[:, b])
            assert batch[b] == is_recurrent(row, spec)
            assert inv[b] == is_invariant(row, spec.Q, 0.0, T)
            assert batch[b][0] == brute_force_recurrent(times[visited[b]],
                                                        dt, tau, T)
            assert inv[b][0] == bool(visited[b].all())


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

    def test_estimates_equal_per_sample_loops(self):
        # the per-sample loops the batched estimates replaced; the fields
        # are elementwise, so the results must be bit-equal
        def F_loop(sys, Q):
            return max(float(np.max(np.abs(sys.field(x, u))))
                       for box in Q.boxes for x in box.sample_grid(5)
                       for u in sys.U.sample_grid(5))

        def L_loop(sys, region, seed):
            rng = np.random.default_rng(seed)
            best = 0.0
            for _ in range(200):
                x1, x2 = rng.uniform(region.lo, region.hi), rng.uniform(
                    region.lo, region.hi)
                sep = np.max(np.abs(x1 - x2))
                for u in [sys.U.center] + list(sys.U.corners()):
                    df = sys.field(x1, u) - sys.field(x2, u)
                    best = max(best, float(np.max(np.abs(df)) / sep))
            return best

        def planar(name, field):
            return ControlSystem(n=2, m=1, U=Box([0.0], [1.0]), field=field,
                                 name=name)

        cubic = planar("cubic", lambda x, u: np.stack(
            (x[..., 1] ** 3 - x[..., 0], u[..., 0] * x[..., 0] ** 2), -1))
        # NaN on part of the region: the quotients there are skipped
        holed = planar("holed", lambda x, u: np.stack(
            (np.where(x[..., 0] > 0.3, np.nan, x[..., 0] ** 2),
             u[..., 0] * x[..., 1]), -1))
        linear = dataclasses.replace(scalar_linear(a=2.5), jacobian=None)
        two_boxes = CompactSet((Box([0.0, 0.0], [2.0, 1.0]),
                                Box([3.0, 0.0], [1.0, 1.0])))
        for sys, Q in ((cubic, two_boxes), (holed, UNIT_SQUARE),
                       (linear, CompactSet.box([0.0], [3.0]))):
            region = Q.bounding_box()
            for seed in (0, 1):
                assert estimate_L(sys, region, seed=seed) == L_loop(
                    sys, region, seed)
            if sys is not holed:
                assert estimate_F_Q(sys, Q) == F_loop(sys, Q)
        with pytest.raises(FloatingPointError,
                           match=r"at x=\[ 0.5 -1. \], u=\[-1.\]$"):
            estimate_F_Q(holed, UNIT_SQUARE)

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
