import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import judge, march_held
from recurq import (Box, ControlSystem, RecurrenceSpec,
                    ResolutionError, containment_radius, double_integrator,
                    estimate_F_Q, estimate_L, first_return_time,
                    jacobian_fd, lipschitz_region, scalar_linear)
from recurq import recurrence
from recurq.geometry import distance_many
from recurq.recurrence import _first_entry, _longest_gap, _recurrent
from recurq.systems import time_grid

UNIT_SQUARE = Box([0.0, 0.0], [1.0, 1.0])


def planar(name, field):
    return ControlSystem(n=2, m=1, U=Box([0.0], [1.0]), field=field,
                         name=name)


CUBIC = planar("cubic", lambda x, u: np.stack(
    (x[..., 1] ** 3 - x[..., 0], u[..., 0] * x[..., 0] ** 2), -1))


def corner_trajectory(horizon=4.0, dt=0.01):
    """(times, states) of the double integrator from (1,1) under u = -1:
    leaves Q, returns at t=2."""
    return march_held(double_integrator(), [1.0, 1.0], [[-1.0]], horizon,
                      horizon, dt)


class TestIsRecurrent:
    """The sampled verdict of a marched trajectory, by _recurrent, and its
    longest gap."""

    def test_corner_trajectory_recurrent_for_tau_2(self):
        traj = corner_trajectory()
        ok, gap = judge(*traj, RecurrenceSpec(UNIT_SQUARE, tau=2.0, T=4.0))
        assert ok and gap == pytest.approx(2.0, abs=1e-9)

    def test_corner_trajectory_not_recurrent_below_2(self):
        traj = corner_trajectory()
        ok, gap = judge(*traj, RecurrenceSpec(UNIT_SQUARE, tau=1.9, T=4.0))
        assert not ok
        # the excursion leaves Q at t=0 and returns at t=2
        assert gap == pytest.approx(2.0, abs=1e-9)

    def test_eps_slack_restores_recurrence(self):
        # over [0, 2] the excursion peaks at distance 0.5 from Q (t=1, x1=1.5);
        # with eps=0.49 the uncovered stretch around the peak lasts ~0.283 s
        traj = corner_trajectory(horizon=2.0)
        ok, _ = judge(*traj, RecurrenceSpec(UNIT_SQUARE, tau=0.2, eps=0.5,
                                            T=2.0))
        assert ok
        ok, _ = judge(*traj, RecurrenceSpec(UNIT_SQUARE, tau=0.2, eps=0.49,
                                            T=2.0))
        assert not ok

    def test_never_visiting(self):
        sys = double_integrator()
        traj = march_held(sys, [5.0, 0.0], [[1.0]], 4.0, 4.0, 0.01)
        for tau in (1.0, 4.0):
            # at tau = T the no-visit stretch is infinite, so it still fails
            ok, gap = judge(*traj, RecurrenceSpec(UNIT_SQUARE, tau=tau, T=4.0))
            assert not ok and gap == math.inf

    def test_tail_violation_witness(self):
        # leaves Q when x2 crosses 1 at t=1, never returns: the longest gap
        # is the tail from the last visit to T
        sys = double_integrator()
        traj = march_held(sys, [0.0, 0.0], [[1.0]], 6.0, 6.0, 0.01)
        ok, gap = judge(*traj, RecurrenceSpec(UNIT_SQUARE, tau=2.0, T=6.0))
        assert not ok
        assert gap == pytest.approx(5.0, abs=0.02)

    def test_resolution_guard(self):
        traj = corner_trajectory(dt=0.5)
        with pytest.raises(ResolutionError):
            judge(*traj, RecurrenceSpec(UNIT_SQUARE, tau=1.0, T=4.0))

    def test_short_trajectory_rejected(self):
        traj = corner_trajectory(horizon=3.0)
        for tau in (2.0, 0.0):  # invariance does not clamp T either
            with pytest.raises(ValueError):
                judge(*traj, RecurrenceSpec(UNIT_SQUARE, tau=tau, T=4.0))

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
        spec = RecurrenceSpec(Box([0.0], [1.0]), tau=tau, T=T)
        invariance = dataclasses.replace(spec, tau=0.0)
        batch = judge(times, states, spec)
        inv = judge(times, states, invariance)
        assert len(batch) == len(inv) == len(rows)
        assert ([ok for ok, _ in inv]
                == loop_is_invariant(times, states, spec.Q, 0.0, T))
        for b in range(len(rows)):
            row = states[:, b]
            assert batch[b] == judge(times, row, spec)
            assert inv[b] == judge(times, row, invariance)
            assert batch[b][0] == brute_force_recurrent(times[visited[b]],
                                                        dt, tau, T)
            assert inv[b][0] == bool(visited[b].all())


def loop_is_recurrent(times, states, spec):
    """The per-row loop over visit lists that _recurrent's scan replaced, on
    states (K+1, B, n) or one state (K+1, n): every gap of [0, T], the head
    and the tail included, is at most tau (a gap that ends within 1e-12 of
    T, and is longer than tau by less than 2e-12, fails here though no
    window of [0, T] fits in it)."""
    T = min(spec.T, float(times[-1]))
    tau, tol = spec.tau, 1e-12
    visited = ((distance_many(states, spec.Q).T <= spec.eps + tol)
               & (times <= T + tol))
    verdicts = []
    for row in np.atleast_2d(visited):
        visits = times[row]
        gaps = np.append(visits, T) - np.concatenate(([0.0], visits))
        verdicts.append(len(visits) > 0 and bool(np.all(gaps <= tau + tol)))
    return verdicts if visited.ndim == 2 else verdicts[0]


def loop_is_invariant(times, states, Q, eps, T):
    """Per row, whether every sample of [0, T] lies in the eps-neighborhood
    of Q: the tau = 0 verdicts of _recurrent."""
    T = min(T, float(times[-1]))
    outside = ((distance_many(states, Q).T > eps + 1e-12)
               & (times <= T + 1e-12))
    verdicts = [not row.any() for row in np.atleast_2d(outside)]
    return verdicts if outside.ndim == 2 else verdicts[0]


def loop_longest_gap(times, visited, T):
    """Per column of the (K+1, B) mask, the longest stretch of [times[0], T]
    without a visit, from its list of visits at or before T: the head, the
    gaps between visits and the tail; inf with no visit."""
    gaps = []
    for row in visited.T:
        visits = times[row & (times <= T + 1e-12)]
        gaps.append(max(float(np.max(np.diff(visits, prepend=times[0]))),
                        T - float(visits[-1])) if len(visits) else math.inf)
    return gaps


def draw_scan_case(data):
    """(times, T, tau, visited): a sample grid that may end on a partial
    step, tau within 1e-12 of the gap between two samples or off the grid,
    T at the horizon, at tau or at or near a sample before the end, and a
    (K+1, B) mask of random and edge-case visits."""
    dt = data.draw(st.sampled_from([1 / 3, 0.05, 0.25]))
    K, partial = data.draw(st.integers(12, 40)), data.draw(st.booleans())
    # a horizon off the dt grid ends on a partial step
    times, _ = time_grid(K * dt + 0.4 * dt * partial, dt)
    last = len(times) - 1
    # tau within 1e-12 of the gap between two samples, or off the grid
    i = data.draw(st.integers(0, last - 11))
    j = data.draw(st.integers(i + 11, last))
    tau = float(times[j] - times[i]) + data.draw(st.sampled_from(
        [-1e-12, -5e-13, 0.0, 5e-13, 1e-12, 0.37 * dt]))
    tau = min(tau, float(times[-1]))
    # T at the horizon, at tau, or at or near a sample before the end,
    # so that some samples lie past T
    m = data.draw(st.integers(j, last))
    T = max(tau, data.draw(st.sampled_from(
        [float(times[-1]), tau, float(times[m]), times[m] + 1e-12,
         times[m] - 1e-12, times[m] + 0.5 * dt])))
    T = min(T, float(times[-1]))
    rows = data.draw(st.lists(st.sets(st.integers(0, last), max_size=8),
                              min_size=1, max_size=5))
    # no visit, a visit at t = 0 only, visits at 0 and at the end, and
    # every sample visiting up to the one at or after T
    at_T = int(np.searchsorted(times, T))
    rows += [set(), {0}, {0, last}, {at_T}, set(range(at_T)),
             set(range(at_T + 1))]
    visited = np.zeros((len(times), len(rows)), dtype=bool)
    for b, visits in enumerate(rows):
        visited[list(visits), b] = True
    return times, T, tau, visited


class TestGapScanOracle:
    """_recurrent's (K+1, B) scan gives the per-row loops' verdicts, of
    recurrence and, at tau = 0, of invariance; _longest_gap gives the
    per-row loop's longest gap."""

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_scan_matches_per_row_loop(self, data):
        times, T, tau, visited = draw_scan_case(data)
        states = np.where(visited, 0.0, 5.0)[..., None]  # (K+1, B, 1)
        spec = RecurrenceSpec(Box([0.0], [1.0]), tau=tau, T=T)
        assert (_recurrent(visited, times, T, tau).tolist()
                == loop_is_recurrent(times, states, spec))
        assert (_recurrent(visited, times, T, 0.0).tolist()
                == loop_is_invariant(times, states, spec.Q, 0.0, T))
        for b in range(visited.shape[1]):  # one column alone, as in the batch
            one = states[:, b]
            assert (_recurrent(visited[:, [b]], times, T, tau).tolist()
                    == [loop_is_recurrent(times, one, spec)])
            assert (_recurrent(visited[:, [b]], times, T, 0.0).tolist()
                    == [loop_is_invariant(times, one, spec.Q, 0.0, T)])

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_longest_gap_matches_per_row_loop(self, data):
        times, T, _, visited = draw_scan_case(data)
        assert (_longest_gap(visited, times, T).tolist()
                == loop_longest_gap(times, visited, T))
        for b in range(visited.shape[1]):
            assert (_longest_gap(visited[:, [b]], times, T).tolist()
                    == loop_longest_gap(times, visited[:, [b]], T))


def draw_grid(data):
    """(times, T, tau): a sample grid, perhaps ending on a partial step, a
    horizon T at or before its end, and tau 0 or >= 10 steps, some within
    1e-12 of the gap between two samples."""
    dt = data.draw(st.sampled_from([1 / 3, 0.05, 0.25]))
    partial = data.draw(st.booleans())
    times, _ = time_grid(data.draw(st.integers(12, 40)) * dt
                         + 0.4 * dt * partial, dt)
    last = len(times) - 1
    i = data.draw(st.integers(0, last - 11))
    j = data.draw(st.integers(i + 11, last))
    tau = float(times[j] - times[i]) + data.draw(st.sampled_from(
        [-1e-12, 0.0, 1e-12, 0.37 * dt]))
    tau = min(tau, float(times[-1]))
    T = float(times[data.draw(st.integers(j, last))])
    # tau = 0 is invariance, which the build prunes by the same rule
    return times, max(T, tau), data.draw(st.sampled_from([tau, 0.0]))


def draw_visits(data, n, count):
    """A (n, count) mask of sparse random visits, so that both verdicts
    come up."""
    mask = np.zeros((n, count), dtype=bool)
    for b in range(count):
        mask[list(data.draw(st.sets(st.integers(0, n - 1), max_size=8))), b] \
            = True
    return mask


class TestGapWitnessSettles:
    """The spanning build's pruning rule, by _recurrent: a mask whose
    unmarched samples all count as visits, and which still fails, fails for
    every marching of them."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_more_visits_never_fail_a_pass(self, data):
        times, T, tau = draw_grid(data)
        near = draw_visits(data, len(times), 6)
        near[:, 0] = False  # a mask with no visit
        more = near | draw_visits(data, len(times), 6)
        passes = _recurrent(near, times, T, tau)
        assert np.all(_recurrent(more, times, T, tau)[passes])

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_dead_prefix_fails_every_completion(self, data):
        times, T, tau = draw_grid(data)
        j = data.draw(st.integers(0, len(times) - 1))  # samples marched
        # completions of the first j samples of column 0: none visits, every
        # one visits (the rule's probe), and random ones
        full = draw_visits(data, len(times), 6)
        full[j:, 0], full[j:, 1] = False, True
        full[:j] = full[:j, :1]
        ok = _recurrent(full, times, T, tau)
        if not ok[1]:  # dead
            assert not ok.any()


class TestIsInvariant:
    """The verdict at tau = 0: every sample of [0, T] near Q."""

    def test_corner_trajectory_not_invariant(self):
        traj = corner_trajectory()
        ok, _ = judge(*traj, RecurrenceSpec(UNIT_SQUARE, tau=0.0, T=4.0))
        assert not ok

    def test_interior_stays(self):
        sys = double_integrator()
        traj = march_held(sys, [0.0, 0.0], [[0.0]], 4.0, 4.0, 0.01)
        ok, _ = judge(*traj, RecurrenceSpec(UNIT_SQUARE, tau=0.0, T=4.0))
        assert ok

    def test_eps_inflation(self):
        # the excursion stays within 0.5 of Q up to the return at t=2
        traj = corner_trajectory(horizon=2.0)
        ok, _ = judge(*traj, RecurrenceSpec(UNIT_SQUARE, tau=0.0, eps=0.5,
                                            T=2.0))
        assert ok

    def test_resting_state_is_invariant(self):
        # x' = 0 x + u, u = 0, rests at 0.5 in [-1, 1]: every sample is in
        # Q, so the longest gap is one step
        sys = scalar_linear(a=0.0)
        Q = Box([0.0], [1.0])
        traj = march_held(sys, [0.5], [[0.0]], 1.0, 1.0, 0.05)
        spec = RecurrenceSpec(Q, tau=0.0, eps=0.0, T=1.0)
        assert judge(*traj, spec) == (True, pytest.approx(0.05, abs=1e-12))
        assert loop_is_invariant(*traj, Q, 0.0, 1.0)


class TestFirstReturn:
    def test_closed_form_return_at_2(self):
        sys = double_integrator()
        [t] = first_return_time(sys, [[1.0, 1.0]], [[-1.0]], UNIT_SQUARE, 8.0,
                                0.01)
        assert t == pytest.approx(2.0, abs=1e-9)

    def test_inf_when_never_returning(self):
        # "never" is inf, in a float array of one entry per row
        sys = double_integrator()
        t = first_return_time(sys, [[1.0, 1.0]], [[1.0]], UNIT_SQUARE, 8.0,
                              0.01)
        assert t.dtype == float and t.tolist() == [math.inf]
        # x' = 200 x leaves [-1, 1] from 1.5 and overflows before t = 5
        assert first_return_time(scalar_linear(a=200.0), [[1.5]], [[0.0]],
                                 Box([0.0], [1.0]), 5.0,
                                 0.01).tolist() == [math.inf]

    def test_batch_rows_match_single_calls(self):
        sys = double_integrator()
        X = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.5], [-1.0, -1.0]])
        U = np.array([[-1.0], [1.0], [-0.5], [1.0]])
        # 7.995 s ends on a partial step
        for horizon in (8.0, 7.995):
            batch = first_return_time(sys, X, U, UNIT_SQUARE, horizon, 0.01)
            # full thrust escapes
            assert batch.shape == (4,) and batch[1] == math.inf
            for x0, u, t in zip(X, U, batch):
                alone = first_return_time(sys, x0[None], u[None], UNIT_SQUARE,
                                          horizon, 0.01)
                assert alone.tolist() == [t]

    def test_entry_inside_partial_last_step(self):
        # x' = u = -1 from 7.998 crosses [-1e-4, 1e-4] over [7.9979, 7.9981];
        # the horizon 7.998 ends on a partial step of 0.008 s, so bisecting
        # over a full 0.01 s step would run past the exit
        sys = scalar_linear(a=0.0)
        [t] = first_return_time(sys, [[7.998]], [[-1.0]],
                                Box([0.0], [1e-4]), 7.998, 0.01)
        assert t == pytest.approx(7.9979, abs=1e-8)

    def test_interior_start_returns_immediately(self):
        sys = double_integrator()
        [t] = first_return_time(sys, [[0.0, 0.0]], [[0.0]], UNIT_SQUARE, 1.0,
                                0.01)
        assert t <= 0.01

    @pytest.mark.parametrize("x0, horizon, dt", [
        ([[1.0, 1.0]], 8.0, 0.0), ([[1.0, 1.0]], 8.0, -0.01),
        ([[1.0, 1.0]], -1.0, 0.01), ([[1.0]], 8.0, 0.01),
        ([[1.0, 1.0, 1.0]] * 2, 8.0, 0.01), ([[1.0, 1.0, 1.0]], 8.0, 0.01),
        ([1.0, 1.0], 8.0, 0.01)])  # a state (n,) is not a batch
    def test_bad_input_rejected(self, x0, horizon, dt):
        # each case fails for its own reason
        reason = "dt" if dt <= 0 else "horizon" if horizon < 0 else "x0"
        with pytest.raises(ValueError, match=reason):
            first_return_time(double_integrator(), x0, [[-1.0]], UNIT_SQUARE,
                              horizon, dt)

    @pytest.mark.parametrize("x0, u, want", [
        ([[1.0, 1.0]], [-1.0], r"\(1,\), expected \(1, 1\) .* \(1, 2\)"),
        ([[1.0, 1.0], [0.5, 0.5]], [[-1.0]],
         r"\(1, 1\), expected \(2, 1\) .* \(2, 2\)")],
        ids=["u_not_a_batch", "u_one_row_for_two"])
    def test_bad_u_rejected(self, x0, u, want):
        # u must hold one input row per row of x0
        with pytest.raises(ValueError, match=r"^u has shape " + want):
            first_return_time(double_integrator(), x0, u, UNIT_SQUARE, 8.0,
                              0.01)

    @given(n=st.integers(1, 3), K=st.integers(1, 30), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_entry_scan_matches_box_contains(self, n, K, data):
        # samples on, within 1e-12 of and off the faces of Q; with a field
        # of 0 every probe of the bisection stays outside, so the entry
        # reads as the end of the step before the first sample that
        # Q.contains at the membership tolerance
        Q = Box(np.full(n, 2.0), np.full(n, 1.5))
        coord = st.sampled_from([0.5, 3.5, 3.5 + 1e-12, 3.5 + 5e-12,
                                 0.5 - 2e-12, 0.5 - 1e-12, 2.0, 3.5 - 1e-12,
                                 -1.0, 5.0])
        states = np.array(data.draw(st.lists(
            st.lists(coord, min_size=n, max_size=n), min_size=K + 1,
            max_size=K + 1)))
        states[0] = 9.0  # outside Q
        inside = [k for k in range(1, K + 1)
                  if Q.contains(states[k], tol=1e-12)]
        got = _first_entry(lambda x, u: np.zeros_like(x), states,
                           np.zeros(1), 0.25, Q, 0.25)
        assert got == ((inside[0] - 1) * 0.25 + 0.25 if inside else math.inf)


class TestConstants:
    def test_F_Q_double_integrator(self):
        sys = double_integrator()
        assert estimate_F_Q(sys, UNIT_SQUARE) == 1.0

    def test_F_Q_grows_with_region(self):
        sys = double_integrator()
        big = Box([0.0, 0.0], [1.0, 3.0])
        assert estimate_F_Q(sys, big) == 3.0

    def test_L_double_integrator_exact(self):
        sys = double_integrator()
        assert estimate_L(sys, Box([0.0, 0.0], [5.0, 5.0])) == 1.0

    def test_L_scalar_linear(self):
        # the Jacobian sup of a linear field is its coefficient, exactly
        sys = scalar_linear(a=1.0)
        assert estimate_L(sys, Box([0.0], [3.0])) == 1.0
        assert estimate_L(scalar_linear(a=2.5), Box([0.0], [3.0])) == 2.5

    def test_estimates_equal_per_sample_loops(self):
        # per-sample loops of the two estimates; the fields are
        # elementwise, so the results must be bit-equal
        def F_loop(sys, Q):
            return max(float(np.max(np.abs(sys.field(x, u))))
                       for x in Q.sample_grid(5)
                       for u in sys.U.sample_grid(5))

        def L_loop(sys, region):
            return max(float(np.max(np.sum(np.abs(jacobian_fd(sys, x, u)),
                                           axis=1)))
                       for x in region.sample_grid(5)
                       for u in [sys.U.center] + list(sys.U.corners()))

        cubic = CUBIC
        # NaN on part of the region
        holed = planar("holed", lambda x, u: np.stack(
            (np.where(x[..., 0] > 0.3, np.nan, x[..., 0] ** 2),
             u[..., 0] * x[..., 1]), -1))
        linear = dataclasses.replace(scalar_linear(a=2.5), jacobian=None)
        wide = Box([1.0, 0.0], [3.0, 1.0])
        for sys, Q in ((cubic, wide), (linear, Box([0.0], [3.0]))):
            assert estimate_L(sys, Q) == L_loop(sys, Q)
            assert estimate_F_Q(sys, Q) == F_loop(sys, Q)
        # |2 u x[0]| reaches the exact sup 8 at x[0] = 4, |u| = 1
        assert estimate_L(cubic, wide) == pytest.approx(8.0, rel=1e-9)
        with pytest.raises(FloatingPointError,
                           match=r"at x=\[ 0.5 -1. \], u=\[-1.\]$"):
            estimate_F_Q(holed, UNIT_SQUARE)
        with pytest.raises(FloatingPointError,
                           match=r"Jacobian non-finite at x=\[ 0.5 -1. \], "
                                 r"u=\[0.\]$"):
            estimate_L(holed, UNIT_SQUARE)

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
        # the returned region contains the inflated neighborhood of Q
        assert box.contains([1.0 + constants.delta_tau, 0.0])

    def test_lipschitz_region_linear_converges_immediately(self):
        sys = scalar_linear(a=1.0)
        Q = Box([0.0], [1.0])
        constants, _ = lipschitz_region(sys, Q, 1.0)
        assert constants.L_tau == pytest.approx(1.0, rel=1e-12)

    def test_lipschitz_region_unsettled_raises(self, monkeypatch):
        # the cubic settles on its second re-estimate; its box is inflated
        # by the radius from before that estimate, within 1% of delta_tau
        constants, box = lipschitz_region(CUBIC, UNIT_SQUARE, 0.05)
        assert box.hi[0] < 1.0 + constants.delta_tau
        assert box.hi[0] == pytest.approx(1.0 + constants.delta_tau,
                                          abs=0.01 * constants.delta_tau)
        monkeypatch.setattr(recurrence, "_REGION_ITERS", 1)
        with pytest.raises(FloatingPointError, match="after 1 re-estimates"):
            lipschitz_region(CUBIC, UNIT_SQUARE, 0.05)

    def test_containment_holds_on_recurrent_trajectory(self):
        # the corner excursion is tau=2 recurrent on [0, 4] and stays well
        # inside the certified radius there
        sys = double_integrator()
        _, states = corner_trajectory(horizon=4.0)
        constants, _ = lipschitz_region(sys, UNIT_SQUARE, 2.0)
        worst = max(
            max(0.0, float(np.max(np.abs(x) - 1.0))) for x in states)
        assert worst <= constants.delta_tau
