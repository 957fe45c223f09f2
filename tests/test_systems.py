import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import march_held, march_oracle, outcome
from recurq import (Box, ControlSystem, IntegrationBlowupError,
                    double_integrator, jacobian_fd, make_system, scalar_linear)
from recurq import systems
from recurq.systems import _jacobians, march, time_grid


class TestRK4:
    def test_exact_on_quadratic_solutions(self):
        # double integrator with constant input has polynomial solutions of
        # degree 2, which RK4 reproduces to rounding error
        sys = double_integrator()
        t, states = march_held(sys, [1.0, 1.0], [[-1.0]], 5.0, 4.0, 0.05)
        exact = np.stack([1.0 + t - 0.5 * t**2, 1.0 - t], axis=-1)
        assert np.max(np.abs(states - exact)) < 1e-12

    def test_convergence_order_on_exponential(self):
        # x' = x, x(1) = e; the error must shrink by ~2^4 per halving
        sys = scalar_linear(a=1.0)

        def err(dt):
            _, states = march_held(sys, [1.0], [[0.0]], 1.0, 1.0, dt)
            return abs(states[-1][0] - math.e)

        e1, e2 = err(0.05), err(0.025)
        order = math.log2(e1 / e2)
        assert order >= 3.0
        assert order == pytest.approx(4.0, abs=0.3)

    def test_single_step_matches_loop(self):
        sys = scalar_linear(a=1.0)
        x1 = march(sys.field, np.array([1.0]), 0.1, horizon=0.1,
                   input_at=lambda k, x: np.array([0.5]))[-1]
        _, states = march_held(sys, [1.0], [[0.5]], 0.1, 0.1, 0.1)
        np.testing.assert_allclose(states[-1], x1, rtol=0, atol=0)


PENDULUM = ControlSystem(
    n=2, m=1, U=Box([0.0], [1.0]), name="pendulum",
    field=lambda x, u: np.stack((x[..., 1], u[..., 0] - np.sin(x[..., 0])), -1))


class TestMarchOracle:
    @given(sys=st.sampled_from([double_integrator(), scalar_linear(a=1.5),
                                PENDULUM]),
           batch=st.sampled_from([None, 1, 4]),
           dt=st.sampled_from([0.1, 0.07, 0.25]),
           horizon=st.sampled_from([0.0, 0.5, 0.7, 1.0]),
           finite_rows=st.sampled_from([None, slice(None), slice(1, None)]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical(self, sys, batch, dt, horizon, finite_rows, seed):
        # 0.07 and 0.25 do not divide every horizon: a partial last step
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-2.0, 2.0, (sys.n,) if batch is None
                         else (batch, sys.n))
        table = rng.uniform(-1.0, 1.0, (len(time_grid(horizon, dt)[0]),)
                            + x0.shape[:-1] + (sys.m,))

        def input_at(k, x):  # depends on the state at the step's start
            return table[k] + 0.1 * np.tanh(x[..., :1])

        args = (sys.field, x0, dt, horizon, input_at, finite_rows)
        assert np.array_equal(march(*args), march_oracle(*args))

    def test_calls_return_fresh_arrays(self):
        sys = double_integrator()
        x0 = np.array([[0.1, 0.2], [0.3, -0.4]])
        held = lambda k, x: -x[..., :1]
        a = march(sys.field, x0, 0.1, 0.55, held)
        b = march(sys.field, x0, 0.1, 0.55, held)
        assert np.array_equal(a, b)
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, x0)


class TestBlowupScan:
    """The scan after the march reports what the per-step check did."""

    @pytest.mark.parametrize("batch", [False, True])
    def test_in_the_partial_last_step(self, batch):
        # 0.25 = two steps of 0.1 and a partial one; row 1 of the batch
        # is driven to infinity only over that last step
        x0 = np.zeros((3, 1)) if batch else np.zeros(1)
        inf_last = np.array([[0.5], [np.inf], [0.5]]) if batch else [np.inf]

        def held(k, x):
            return np.array(inf_last if k == 2 else np.full(x.shape, 0.5))

        args = (lambda x, u: u * np.ones_like(x), x0, 0.1, 0.25, held,
                slice(None))
        got = outcome(march, *args)
        assert got == (0.25, 1 if batch else None)
        assert got == outcome(march_oracle, *args)

    def test_unchecked_row_may_blow_up(self):
        # row 0 (a fragment) overflows; the checked row 1 stays finite
        args = (lambda x, u: x ** 3, np.array([[5.0], [0.1]]), 0.01, 1.0,
                lambda k, x: np.zeros((2, 1)), slice(1, None))
        states = march(*args)
        assert not np.isfinite(states[-1, 0]).all()
        assert np.isfinite(states[:, 1]).all()
        assert np.array_equal(states, march_oracle(*args), equal_nan=True)

    @pytest.mark.parametrize("scan_chunk", [1, 6, 1 << 14])
    def test_across_chunks_of_the_scan(self, monkeypatch, scan_chunk):
        # samples of 3 entries: chunks of 1 sample, 2 samples and all
        monkeypatch.setattr(systems, "_SCAN_CHUNK", scan_chunk)
        args = (lambda x, u: x ** 3, np.array([[0.1], [5.0], [4.0]]), 0.01,
                1.0, lambda k, x: np.zeros((3, 1)), slice(1, None))
        got = outcome(march, *args)
        assert got == outcome(march_oracle, *args)
        assert got[0] > 0.01 and got[1] == 0

    @pytest.mark.parametrize("x0, expected", [
        ([1e308, 1e308], (0.1, None)),
        ([[0.0, 0.0], [1e308, 1e308]], (0.1, 1)),
        # each row's sum is finite, only the whole batch's overflows
        ([[1e308, 0.0], [1e308, 0.0]], None),
    ])
    def test_overflowing_absolute_sum(self, x0, expected):
        x0 = np.array(x0)
        args = (lambda x, u: np.zeros_like(x), x0, 0.1, 0.3,
                lambda k, x: np.zeros(x.shape[:-1] + (1,)), slice(None))
        got = outcome(march, *args)
        oracle = outcome(march_oracle, *args)
        if expected is None:
            assert np.array_equal(got, oracle)
        else:
            assert got == oracle == expected


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
    """march under a piecewise-constant input, held per segment."""

    def test_zero_horizon(self):
        sys = double_integrator()
        times, states = march_held(sys, [0.2, -0.3], [[0.0]], 1.0, 0.0, 0.1)
        assert times[-1] == 0.0
        np.testing.assert_allclose(states, [[0.2, -0.3]])

    def test_partial_final_step(self):
        sys = scalar_linear(a=1.0)
        times, states = march_held(sys, [1.0], [[0.0]], 1.0, 0.55, 0.1)
        assert times[-1] == pytest.approx(0.55)
        assert states[-1][0] == pytest.approx(math.exp(0.55), rel=1e-6)

    @pytest.mark.parametrize("horizon, times", [
        (1.0, [0.0, 0.3, 0.6, 0.9, 1.0]), (0.7, [0.0, 0.3, 0.6, 0.7])])
    def test_one_segment_ends_on_a_partial_step(self, horizon, times):
        # no boundary inside the horizon: dt need not divide the segment
        sys = double_integrator()
        got, states = march_held(sys, [0.2, 0.5], [[-1.0], [1.0]], 1.0,
                                 horizon, 0.3)
        np.testing.assert_allclose(got, times, rtol=0, atol=1e-15)
        # RK4 is exact on the quadratic flow of one held input
        np.testing.assert_allclose(
            states[-1],
            [0.2 + 0.5 * horizon - horizon**2 / 2, 0.5 - horizon],
            rtol=0, atol=1e-12)

    def test_blowup_detected(self):
        cubic = ControlSystem(
            n=1, m=1, U=Box([0.0], [1.0]),
            field=lambda x, u: np.array((x[0] ** 3,)), name="cubic")
        with pytest.raises(IntegrationBlowupError) as exc:
            march_held(cubic, [5.0], [[0.0]], 10.0, 10.0, 0.01)
        assert 0.0 < exc.value.t <= 10.0

    def test_deterministic_repeatability(self):
        sys = double_integrator()
        values = [[0.3], [-0.7], [1.0], [0.0]]
        _, a = march_held(sys, [0.1, 0.2], values, 0.5, 2.0, 0.01)
        _, b = march_held(sys, [0.1, 0.2], values, 0.5, 2.0, 0.01)
        assert np.array_equal(a, b)

    def test_batch_rows_match_single_runs(self):
        sys = double_integrator()
        X = np.array([[0.1, 0.2], [-1.0, 0.5], [0.7, -0.9]])
        values = np.array([[[0.3], [-1.0], [1.0]], [[-0.7], [0.2], [0.0]]])
        # 0.95 = 9 full steps of 0.1 plus one partial step of 0.05
        times, batch = march_held(sys, X, values, 0.5, 0.95, 0.1)
        assert batch.shape == (11, 3, 2)
        for b in range(3):
            alone_times, alone = march_held(sys, X[b], values[:, b], 0.5,
                                            0.95, 0.1)
            assert np.array_equal(times, alone_times)
            assert np.array_equal(batch[:, b], alone)

    def test_batch_blowup_names_row(self):
        cubic = ControlSystem(n=1, m=1, U=Box([0.0], [1.0]),
                              field=lambda x, u: x ** 3, name="cubic")
        with pytest.raises(IntegrationBlowupError) as alone:
            march_held(cubic, [5.0], [[0.0]], 10.0, 10.0, 0.01)
        with pytest.raises(IntegrationBlowupError) as batch:
            march_held(cubic, [[0.1], [5.0]], np.zeros((1, 2, 1)), 10.0,
                       10.0, 0.01)
        assert batch.value.row == 1
        assert batch.value.t == alone.value.t


#: each built-in field of one state, in Python floats: the oracle of the
#: array form that serves a state (n,) and a batch (B, n) alike
SCALAR_FIELDS = {"double_integrator": lambda x, u: (x[1], u[0]),
                 "scalar_linear(a=1.5)": lambda x, u: (1.5 * x[0] + u[0],)}


class TestBuiltinFields:
    @pytest.mark.parametrize("sys, X, U", [
        (double_integrator(),
         [[0.3, -0.8], [1.0, 2.5], [-0.1, 0.0], [-0.0, -0.0],
          [np.nan, np.inf], [-np.inf, np.nan]],
         [[1.0], [-0.4], [0.0], [-0.0], [np.nan], [np.inf]]),
        (scalar_linear(a=1.5),
         [[0.3], [-2.0], [7.0], [-0.0], [np.nan], [np.inf], [-np.inf]],
         [[2.0], [0.1], [-1.0], [-0.0], [1.0], [1.0], [0.0]]),
    ])
    def test_batch_rows_match_single_calls(self, sys, X, U):
        # bit for bit, so -0.0 (by its sign bit), NaN and inf rows count
        X, U = np.array(X), np.array(U)
        batch = sys.field(X, U)
        assert batch.shape == X.shape
        for x, u, row in zip(X, U, batch):
            want = np.array(SCALAR_FIELDS[sys.name](x.tolist(), u.tolist()))
            single = sys.field(x, u)
            assert single.shape == (sys.n,)
            for got in (row, single):
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_double_integrator_batch_is_c_contiguous(self):
        X = np.array([[0.3, -0.8], [1.0, 2.5], [-0.1, -0.0]])
        U = np.array([[1.0], [-0.4], [-0.0]])
        batch = double_integrator().field(X, U)
        assert batch.flags.c_contiguous
        old_form = np.array((X[..., 1], U[..., 0])).T
        assert np.array_equal(batch, old_form)
        assert np.array_equal(np.signbit(batch), np.signbit(old_form))


class TestJacobians:
    def test_fd_matches_analytic_double_integrator(self):
        sys = double_integrator()
        J = jacobian_fd(sys, [0.3, -0.5], [0.2])
        np.testing.assert_allclose(J, [[0.0, 1.0], [0.0, 0.0]], atol=1e-8)

    # the divergence is the trace of the state Jacobian
    def test_divergence_double_integrator_zero(self):
        sys = double_integrator()
        [J] = _jacobians(sys, np.array([[0.5, 0.5]]), np.array([[1.0]]))
        assert np.trace(J) == 0.0

    def test_divergence_scalar_linear(self):
        sys = scalar_linear(a=1.0)
        [J] = _jacobians(sys, np.array([[0.3]]), np.array([[0.1]]))
        assert np.trace(J) == 1.0

    def test_divergence_fd_fallback(self):
        sys = scalar_linear(a=2.5)
        bare = ControlSystem(n=1, m=1, U=sys.U, field=sys.field, name="bare")
        [J] = _jacobians(bare, np.array([[0.3]]), np.array([[0.1]]))
        assert np.trace(J) == pytest.approx(2.5, abs=1e-6)

    def test_jacobian_sweep_is_x_major_and_names_a_bad_pair(self):
        sys = ControlSystem(
            n=1, m=1, U=Box([0.0], [1.0]), field=lambda x, u: x * u,
            jacobian=lambda x, u: np.array([[u[0] / x[0]]]), name="ratio")
        J = _jacobians(sys, np.array([[1.0], [2.0]]),
                       np.array([[1.0], [-1.0], [4.0]]))
        assert J.shape == (6, 1, 1)
        assert J.ravel().tolist() == [1.0, -1.0, 4.0, 0.5, -0.5, 2.0]
        # 0/0 at the third pair, with no numpy warning
        with pytest.raises(FloatingPointError,
                           match=r"at x=\[0.\], u=\[0.\]$"):
            _jacobians(sys, np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))


class TestFactory:
    def test_builtins(self):
        assert make_system("double_integrator").n == 2
        assert make_system("scalar_linear", a=2.0).name == "scalar_linear(a=2.0)"
        with pytest.raises(KeyError):
            make_system("pendulum")
