import math

import numpy as np
import pytest

from recurq import (Box, ControlSignal, ControlSystem, DomainError,
                    IntegrationBlowupError, divergence, double_integrator,
                    integrate, jacobian_fd, make_system, scalar_linear)
from recurq.systems import _segment_of, march, time_grid


class TestControlSignal:
    def test_segment_of(self):
        sig = ControlSignal(1.0, [[-1.0], [0.0], [1.0]])
        times = np.array([0.0, 0.999, 1 - 1e-10, 1.0, 2.5, 3.0])
        # a step start within 1e-9 of a boundary takes the next segment, as
        # integrate's steps do; 3.0 is clamped to the last segment
        assert _segment_of(sig, times).tolist() == [0, 0, 1, 1, 2, 2]

    def test_constant_helper(self):
        sig = ControlSignal.constant([-1.0], 4.0)
        assert sig.total_duration == 4.0
        np.testing.assert_array_equal(sig.values, [[-1.0]])


class TestRK4:
    def test_exact_on_quadratic_solutions(self):
        # double integrator with constant input has polynomial solutions of
        # degree 2, which RK4 reproduces to rounding error
        sys = double_integrator()
        traj = integrate(sys, [1.0, 1.0], ControlSignal.constant([-1.0], 5.0),
                         4.0, 0.05)
        t = traj.times
        exact = np.stack([1.0 + t - 0.5 * t**2, 1.0 - t], axis=-1)
        assert np.max(np.abs(traj.states - exact)) < 1e-12

    def test_convergence_order_on_exponential(self):
        # x' = x, x(1) = e; the error must shrink by ~2^4 per halving
        sys = scalar_linear(a=1.0)
        u0 = ControlSignal.constant([0.0], 1.0)

        def err(dt):
            traj = integrate(sys, [1.0], u0, 1.0, dt)
            return abs(traj.end[0] - math.e)

        e1, e2 = err(0.05), err(0.025)
        order = math.log2(e1 / e2)
        assert order >= 3.0
        assert order == pytest.approx(4.0, abs=0.3)

    def test_single_step_matches_loop(self):
        sys = scalar_linear(a=1.0)
        x1 = march(sys.field, np.array([1.0]), 0.1, horizon=0.1,
                   input_at=lambda k, x: np.array([0.5]))[-1]
        traj = integrate(sys, [1.0], ControlSignal.constant([0.5], 0.1), 0.1, 0.1)
        np.testing.assert_allclose(traj.end, x1, rtol=0, atol=0)


class TestTimeGrid:
    @pytest.mark.parametrize("horizon, dt, n_full, partial", [
        (2.0, 0.45, 4, True), (2.0, 0.9, 2, True), (2.0, 0.01, 200, False),
        (0.3, 0.1, 3, False), (0.0, 0.1, 0, False)])
    def test_multiples_of_dt_then_horizon(self, horizon, dt, n_full, partial):
        times, got_full = time_grid(horizon, dt)
        assert got_full == n_full
        assert times.tolist() == ([k * dt for k in range(n_full + 1)]
                                  + [horizon] * partial)

    def test_march_ends_on_a_partial_step(self):
        # two full steps, then one step of the remaining 0.125
        sys = scalar_linear(a=1.0)
        held = lambda k, x: np.array([0.5])
        full = march(sys.field, np.array([1.0]), 0.25, 0.5, held)
        states = march(sys.field, np.array([1.0]), 0.25, 0.625, held)
        last = march(sys.field, full[-1], 0.125, 0.125, held)
        assert np.array_equal(states, np.concatenate((full, last[1:])))


class TestIntegrate:
    def test_zero_horizon(self):
        sys = double_integrator()
        traj = integrate(sys, [0.2, -0.3], ControlSignal.constant([0.0], 1.0),
                         0.0, 0.1)
        assert traj.horizon == 0.0
        np.testing.assert_allclose(traj.states, [[0.2, -0.3]])

    def test_partial_final_step(self):
        sys = scalar_linear(a=1.0)
        traj = integrate(sys, [1.0], ControlSignal.constant([0.0], 1.0), 0.55, 0.1)
        assert traj.times[-1] == pytest.approx(0.55)
        assert traj.end[0] == pytest.approx(math.exp(0.55), rel=1e-6)

    def test_dt_must_divide_segment(self):
        # the boundary at t = 1 lies inside the horizon
        sys = double_integrator()
        with pytest.raises(ValueError):
            integrate(sys, [0.0, 0.0], ControlSignal(1.0, [[0.0], [1.0]]),
                      2.0, 0.3)

    @pytest.mark.parametrize("horizon, times", [
        (1.0, [0.0, 0.3, 0.6, 0.9, 1.0]), (0.7, [0.0, 0.3, 0.6, 0.7])])
    def test_one_segment_ends_on_a_partial_step(self, horizon, times):
        # no boundary inside the horizon: dt need not divide the segment
        sys = double_integrator()
        traj = integrate(sys, [0.2, 0.5], ControlSignal(1.0, [[-1.0], [1.0]]),
                         horizon, 0.3)
        np.testing.assert_allclose(traj.times, times, rtol=0, atol=1e-15)
        # RK4 is exact on the quadratic flow of one held input
        np.testing.assert_allclose(
            traj.end, [0.2 + 0.5 * horizon - horizon**2 / 2, 0.5 - horizon],
            rtol=0, atol=1e-12)

    def test_horizon_beyond_signal_rejected(self):
        sys = double_integrator()
        with pytest.raises(ValueError):
            integrate(sys, [0.0, 0.0], ControlSignal.constant([0.0], 1.0),
                      2.0, 0.1)

    def test_blowup_detected(self):
        cubic = ControlSystem(
            n=1, m=1, U=Box([0.0], [1.0]),
            field=lambda x, u: np.array((x[0] ** 3,)), name="cubic")
        with pytest.raises(IntegrationBlowupError) as exc:
            integrate(cubic, [5.0], ControlSignal.constant([0.0], 10.0),
                      10.0, 0.01)
        assert 0.0 < exc.value.t <= 10.0

    def test_deterministic_repeatability(self):
        sys = double_integrator()
        sig = ControlSignal(0.5, [[0.3], [-0.7], [1.0], [0.0]])
        a = integrate(sys, [0.1, 0.2], sig, 2.0, 0.01)
        b = integrate(sys, [0.1, 0.2], sig, 2.0, 0.01)
        assert np.array_equal(a.states, b.states)

    def test_batch_rows_match_single_runs(self):
        sys = double_integrator()
        X = np.array([[0.1, 0.2], [-1.0, 0.5], [0.7, -0.9]])
        values = np.array([[[0.3], [-1.0], [1.0]], [[-0.7], [0.2], [0.0]]])
        # 0.95 = 9 full steps of 0.1 plus one partial step of 0.05
        batch = integrate(sys, X, ControlSignal(0.5, values), 0.95, 0.1)
        assert batch.states.shape == (11, 3, 2)
        for b in range(3):
            alone = integrate(sys, X[b], ControlSignal(0.5, values[:, b]),
                              0.95, 0.1)
            assert np.array_equal(batch.times, alone.times)
            assert np.array_equal(batch.states[:, b], alone.states)

    def test_batch_blowup_names_row(self):
        cubic = ControlSystem(n=1, m=1, U=Box([0.0], [1.0]),
                              field=lambda x, u: x ** 3, name="cubic")
        sig = ControlSignal.constant([0.0], 10.0)
        with pytest.raises(IntegrationBlowupError) as alone:
            integrate(cubic, [5.0], sig, 10.0, 0.01)
        batch_sig = ControlSignal(10.0, np.zeros((1, 2, 1)))
        with pytest.raises(IntegrationBlowupError) as batch:
            integrate(cubic, [[0.1], [5.0]], batch_sig, 10.0, 0.01)
        assert batch.value.row == 1
        assert batch.value.t == alone.value.t


class TestBuiltinFields:
    @pytest.mark.parametrize("sys, X, U", [
        (double_integrator(), [[0.3, -0.8], [1.0, 2.5], [-0.1, 0.0]],
         [[1.0], [-0.4], [0.0]]),
        (scalar_linear(a=1.5), [[0.3], [-2.0], [7.0]], [[2.0], [0.1], [-1.0]]),
    ])
    def test_batch_rows_match_single_calls(self, sys, X, U):
        X, U = np.array(X), np.array(U)
        batch = sys.field(X, U)
        assert batch.shape == X.shape
        for x, u, row in zip(X, U, batch):
            single = sys.field(x, u)
            assert single.shape == (sys.n,)
            assert np.array_equal(single, row)


class TestJacobians:
    def test_fd_matches_analytic_double_integrator(self):
        sys = double_integrator()
        J = jacobian_fd(sys, [0.3, -0.5], [0.2])
        np.testing.assert_allclose(J, [[0.0, 1.0], [0.0, 0.0]], atol=1e-8)

    def test_divergence_double_integrator_zero(self):
        sys = double_integrator()
        assert divergence(sys, [0.5, 0.5], [1.0]) == 0.0

    def test_divergence_scalar_linear(self):
        sys = scalar_linear(a=1.0)
        assert divergence(sys, [0.3], [0.1]) == 1.0

    def test_divergence_fd_fallback(self):
        sys = scalar_linear(a=2.5)
        bare = ControlSystem(n=1, m=1, U=sys.U, field=sys.field, name="bare")
        assert divergence(bare, [0.3], [0.1]) == pytest.approx(2.5, abs=1e-6)

    def test_divergence_domain_check(self):
        sys = double_integrator()
        with pytest.raises(DomainError):
            divergence(sys, [0.0, 0.0], [1.5])

    def test_divergence_dimension_check(self):
        sys = double_integrator()
        with pytest.raises(ValueError):
            divergence(sys, [0.0], [0.0])


class TestFactory:
    def test_builtins(self):
        assert make_system("double_integrator").n == 2
        assert make_system("scalar_linear", a=2.0).name == "scalar_linear(a=2.0)"
        with pytest.raises(KeyError):
            make_system("pendulum")
