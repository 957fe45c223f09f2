import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (march_oracle, outcome,
                     windowed_recurrence_margin_oracle)
from recurq import (Box, ControlSystem,
                    ControllerInvalidError, DeterminismError,
                    GridMirror, GuaranteeViolationError,
                    IntegrationBlowupError, ProtocolError,
                    bit_rate, decode, double_integrator, encode,
                    load_step_records,
                    reference_controller_double_integrator, run_episodes,
                    verify_guarantees)
from recurq import quantized
from recurq.geometry import distance_many
from recurq.systems import march, time_grid

LN2 = math.log(2.0)
UNIT_SQUARE = Box([0.0, 0.0], [1.0, 1.0])


class TestCodec:
    def test_known_widths(self):
        assert len(encode(0, 64)) == 6
        assert len(encode(0, 5476)) == 13
        assert len(encode(0, 441)) == 9
        assert encode(0, 1) == ""
        assert decode("", 1) == 0

    def test_round_trip_small(self):
        for size in (1, 2, 3, 8, 9, 64, 100):
            for idx in range(size):
                assert decode(encode(idx, size), size) == idx

    def test_big_endian(self):
        assert encode(1, 4) == "01"
        assert encode(2, 4) == "10"

    def test_errors(self):
        with pytest.raises(ValueError):
            encode(4, 4)
        with pytest.raises(ValueError):
            encode(-1, 4)
        with pytest.raises(ProtocolError):
            decode("111", 4)       # wrong width
        with pytest.raises(ProtocolError):
            decode("12", 4)        # not bits
        with pytest.raises(ProtocolError):
            decode("111", 5)       # out of range for size 5

    @given(size=st.integers(1, 2**16), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property(self, size, data):
        idx = data.draw(st.integers(0, size - 1))
        bits = encode(idx, size)
        assert len(bits) == (size - 1).bit_length()
        assert decode(bits, size) == idx


def march_fragments(sys, feedback, X, duration, dt):
    """The closed-loop fragments from the rows of X (B, n), with no plant."""
    X = np.array(X, dtype=float)
    frags, _ = quantized._closed_loop(sys, feedback, X, X[:0], duration, dt)
    return frags


def held_inputs(feedback, X):
    """The inputs (B, 1) that a one-step _closed_loop from the rows of X
    holds, read by a field with the double integrator's U that records the
    u of its first call."""
    di = double_integrator()
    seen = []

    def field(x, u):
        if not seen:
            seen.append(u.copy())
        return di.field(x, u)

    spy = ControlSystem(n=2, m=1, U=di.U, field=field, name="spy")
    X = np.array(X, dtype=float)
    quantized._closed_loop(spy, feedback, X, X[:0], 0.1, 0.1)
    return seen[0]


#: feedbacks for the oracle: the plain law, which leaves U for large
#: states, state-dependent signed zeros, one (m,) input for every row, and
#: constant +-inf and NaN, which _closed_loop's clip passes on
CLOSED_LOOP_FEEDBACKS = [
    lambda x: (-1.5 * x[..., 1] - x[..., 0])[..., None],
    lambda x: np.where(x[..., :1] > 0.0, -0.0, 0.0),
    lambda x: np.array([-0.0]),
    lambda x: np.full(x.shape[:-1] + (1,), np.inf),
    lambda x: np.full(x.shape[:-1] + (1,), -np.inf),
    lambda x: np.full(x.shape[:-1] + (1,), np.nan),
]


class TestClosedLoop:
    def test_input_clamped_to_U(self):
        # u = 5 is clipped to 1, whose flow from rest is (t^2/2, t); RK4 is
        # exact for it
        states = march_fragments(double_integrator(),
                                 lambda x: np.array([5.0]), [[0.0, 0.0]],
                                 0.5, 0.1)
        t = np.linspace(0.0, 0.5, 6)
        np.testing.assert_allclose(states[:, 0],
                                   np.column_stack((t**2 / 2, t)),
                                   rtol=0, atol=1e-15)

    def test_saturates_the_reference_feedback(self, di_controller):
        # the feedback is the plain law; _closed_loop alone clips it to U
        assert np.array_equal(di_controller.feedback(np.array([2.0, 1.0])),
                              [-3.5])

        # the clip of -x1 - 1.5*x2 written with Python's min/max on one state
        def scalar(x):
            return np.array((min(1.0, max(-1.0, -x[0] - 1.5 * x[1])),))

        # bit for bit: (0, 0) gives -0.0 and (-0, 0) gives 0.0; a NaN state
        # is held at NaN, where Python's max gives -1, so a NaN feedback
        # fails validation rather than being held at U's bound
        X = np.array([[0.3, -0.8], [2.0, 1.0], [-2.0, -1.0], [0.5, 0.0],
                      [-1.0, 0.0], [0.0, 0.0], [-0.0, 0.0], [np.nan, 0.0],
                      [np.inf, 0.0]])
        batch = held_inputs(di_controller.feedback, X)
        assert batch.shape == (len(X), 1)
        for x, u in zip(X, batch):
            alone = held_inputs(di_controller.feedback, x[None])[0]
            want = np.array([np.nan]) if np.isnan(x).any() else scalar(x)
            for got in (u, alone):
                assert np.array_equal(got, want, equal_nan=True)
                # a NaN's sign bit is unspecified by IEEE 754
                if not np.isnan(want).any():
                    assert np.signbit(got) == np.signbit(want)

    @given(F=st.integers(1, 4), data=st.data(),
           dt=st.sampled_from([0.1, 0.07]),
           feedback=st.sampled_from(CLOSED_LOOP_FEEDBACKS),
           seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_oracle(self, F, data, dt, feedback, seed):
        # march_oracle fed the clip inline: the F fragments held at the
        # clipped feedback, plant row j at fragment j's input; 0.07 does not
        # divide 0.5, so the last step is partial
        P = data.draw(st.sampled_from(sorted({0, 1, F})))
        sys = double_integrator()
        lo, hi = sys.U.lo, sys.U.hi
        rng = np.random.default_rng(seed)
        frags0, plants0 = rng.uniform(-2.0, 2.0, (2, F, sys.n))
        plants0 = plants0[:P]

        def input_at(k, x):
            u = np.broadcast_to(
                np.minimum(np.maximum(feedback(x[:F]), lo), hi), (F, sys.m))
            return np.concatenate((u, u[:P]))

        want = outcome(march_oracle, sys.field,
                       np.concatenate((frags0, plants0)), dt, 0.5, input_at,
                       slice(F, None))
        got = outcome(quantized._closed_loop, sys, feedback, frags0, plants0,
                      0.5, dt)
        if isinstance(want, tuple):  # the blow-up's time and plant row
            assert got == want
        else:
            got = np.concatenate(got, axis=1)
            assert np.array_equal(got, want, equal_nan=True)
            signed = ~np.isnan(want)  # a NaN's sign bit is unspecified
            assert np.array_equal(np.signbit(got[signed]),
                                  np.signbit(want[signed]))

    def test_refuses_more_plant_rows_than_fragments(self):
        # plant row 1 would be held at an input slot of its own, not at a
        # fragment's
        with pytest.raises(ValueError, match="2 plant rows"):
            quantized._closed_loop(double_integrator(),
                                   lambda x: np.array([0.5]),
                                   np.zeros((1, 2)), np.zeros((2, 2)), 0.1,
                                   0.01)

    def test_bit_identical_reruns(self):
        sys = double_integrator()
        fb = lambda x: -x[..., :1] - 1.5 * x[..., 1:]
        a = march_fragments(sys, fb, [[0.3, -0.8]], 4.0, 0.01)
        b = march_fragments(sys, fb, [[0.3, -0.8]], 4.0, 0.01)
        assert np.array_equal(a, b)

    def test_batch_rows_match_single_runs(self, di_controller):
        sys = double_integrator()
        X = np.array([[0.3, -0.8], [-0.9, 0.95], [1.0, 1.0]])
        states = march_fragments(sys, di_controller.feedback, X, 2.0, 0.01)
        assert states.shape == (201, 3, 2)
        for b in range(len(X)):
            s1 = march_fragments(sys, di_controller.feedback, X[b:b + 1],
                                 2.0, 0.01)
            assert np.array_equal(states[:, b:b + 1], s1)

    @pytest.mark.parametrize("dt", [0.01, 0.03, 0.07, 0.3, 0.45, 0.9])
    def test_ends_at_duration_on_the_exact_flow(self, dt):
        # under u = -1 the flow from q is x1 = q1 + q2 t - t^2/2,
        # x2 = q2 - t; RK4 is exact for it, so the run ends on the flow at
        # t = 2 whether or not dt divides 2
        Q0 = np.array([[0.3, -0.8], [-0.9, 0.95], [1.0, 1.0]])
        states = march_fragments(double_integrator(),
                                 lambda x: np.array([-1.0]), Q0, 2.0, dt)
        exact = np.column_stack((Q0[:, 0] + 2.0 * Q0[:, 1] - 2.0,
                                 Q0[:, 1] - 2.0))
        np.testing.assert_allclose(states[-1], exact, rtol=0, atol=1e-12)


class TestController:
    def test_reference_controller_validates(self, di_controller):
        assert di_controller.tau == 2.0
        assert di_controller.eps_star == 0.1
        assert di_controller.max_visit_gap <= 2.0
        assert di_controller.L_tau == 1.0
        assert di_controller.c_star > 0.0

    def test_tau_below_2_rejected(self):
        with pytest.raises(ValueError):
            reference_controller_double_integrator(UNIT_SQUARE, tau=1.5, eps=0.1)

    def test_invalid_feedback_rejected(self):
        from recurq import build_feedback_controller
        sys = double_integrator()
        # constant full thrust never revisits Q from the right edge
        with pytest.raises(ControllerInvalidError):
            build_feedback_controller(sys, UNIT_SQUARE, 2.0, 0.1,
                                      lambda x: np.array([1.0]))


def walk_tails(times, states, dists):
    """Oracle: the per-sample walk over one row that the scan replaced.

    Walks each excursion backward from its re-entry and keeps the suffix
    along which the distance is nonincreasing.  It never advances past a
    NaN distance, so it is only called on NaN-free rows.
    """
    out = []
    n = len(dists)
    k = 0
    while k < n:
        if dists[k] <= 1e-12:
            k += 1
            continue
        start = k
        while k < n and dists[k] > 1e-12:
            k += 1
        if k >= n:
            break  # excursion truncated by the horizon; skip it
        entry_t = times[k]
        j = k - 1
        # a rise of up to 1e-9 still counts as nonincreasing
        while j - 1 >= start and dists[j - 1] >= dists[j] - 1e-9:
            j -= 1
        for idx in range(j, k):
            out.append((states[idx].copy(), entry_t - times[idx]))
    return out


# in Q, just outside, ties and rises at the 1e-9 tolerance, and inf
DISTANCES = st.sampled_from([0.0, 1e-12, 2e-12, 0.5, 0.5 + 1e-9,
                             0.5 + 5e-10, 0.5 - 1e-9, 0.5 + 2e-9, 1.0,
                             math.inf]) | st.floats(0.0, 2.0)


class TestExcursionTails:
    @settings(max_examples=300, deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 40), st.integers(1, 4)),
                  elements=DISTANCES),
           st.booleans())
    def test_scan_matches_the_walk(self, dists, quiet_row):
        if quiet_row:  # a row that never leaves Q
            dists = np.column_stack((dists, np.zeros(len(dists))))
        times = 0.01 * np.arange(len(dists))
        states = np.arange(dists.size * 2, dtype=float).reshape(
            dists.shape + (2,))
        pts, tts = quantized._excursion_tails(times, states, dists)
        want = [t for b in range(dists.shape[1])
                for t in walk_tails(times, states[:, b], dists[:, b])]
        assert np.array_equal(pts.reshape(-1, 2),
                              np.array([p for p, _ in want]).reshape(-1, 2))
        assert np.array_equal(tts, np.array([t for _, t in want]))

    def test_nan_ends_a_tail(self):
        dists = np.array([[1.0], [0.9], [np.nan], [0.5], [0.2], [0.0]])
        states = np.arange(6.0).reshape(6, 1, 1)
        pts, tts = quantized._excursion_tails(np.arange(6.0), states, dists)
        assert pts.ravel().tolist() == [3.0, 4.0]
        assert tts.tolist() == [2.0, 1.0]

    def test_nan_feedback_rejected_promptly(self):
        # the walk looped forever on a NaN distance, appending as it went;
        # its own process, with a short timeout, keeps a regression from
        # hanging the suite or filling memory
        code = textwrap.dedent("""\
            import time
            import numpy as np
            from recurq import (Box, ControllerInvalidError,
                                build_feedback_controller, double_integrator)
            t0 = time.monotonic()
            try:
                build_feedback_controller(
                    double_integrator(), Box([0.0, 0.0], [1.0, 1.0]),
                    2.0, 0.1, lambda x: np.full(x.shape[:-1] + (1,), np.nan))
            except ControllerInvalidError:
                print(time.monotonic() - t0)
            """)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 5.0


def fragments(controller, Q0):
    """The closed-loop fragments over tau = 2 from the centres Q0 (B, n),
    marched with the feedback clipped to U here, not by the library."""
    sys = controller.sys
    return march(sys.field, np.array(Q0, dtype=float), 0.01, 2.0,
                 lambda k, x: np.clip(controller.feedback(x), sys.U.lo,
                                      sys.U.hi))


class TestGridMirror:
    def test_initial_cover_is_benchmark_size(self, di_controller):
        m = GridMirror(di_controller, eps=0.1, alpha=0.0)
        assert m.C.size == 5476
        assert len(encode(0, m.C.size)) == 13

    def test_steady_cover_sizes(self, di_controller):
        for alpha, expect in ((0.0, 64), (0.5, 441)):
            m = GridMirror(di_controller, eps=0.1, alpha=alpha)
            m.step_to(fragments(di_controller, [m.C.center(0)])[-1, 0])
            assert m.C.size == expect
            # ceil(e^((L + alpha) tau))^n, with L = 1, tau = 2 and n = 2
            assert expect == math.ceil(math.exp((1.0 + alpha) * 2.0)) ** 2

    def test_radius_contraction(self, di_controller):
        m = GridMirror(di_controller, eps=0.1, alpha=0.5)
        m.step_to(fragments(di_controller, [m.C.center(0)])[-1, 0])
        assert m.r == pytest.approx(0.1 * math.exp(-1.0), rel=1e-15)

    def test_mirrors_stay_identical(self, di_controller):
        a = GridMirror(di_controller, 0.1, 0.1)
        b = GridMirror(di_controller, 0.1, 0.1)
        rng = np.random.default_rng(3)
        for _ in range(5):
            idx = int(rng.integers(0, a.C.size))
            qa, qb = a.C.center(idx), b.C.center(idx)
            frags = fragments(di_controller, [qa, qb])
            a.step_to(frags[-1, 0])
            b.step_to(frags[-1, 1])
            assert a.state_signature() == b.state_signature()
            assert np.array_equal(qa, qb)
            assert np.array_equal(frags[:, 0], frags[:, 1])


@pytest.fixture(scope="module")
def short_episode(di_controller):
    sys = double_integrator()
    log, = run_episodes(sys, UNIT_SQUARE, di_controller, [[0.4, -0.2]],
                        eps=0.1, tau=2.0, alphas=[0.0], steps=12, dt=0.01)
    return log


class TestEpisode:
    def test_bit_sequence(self, short_episode):
        widths = [len(s.bits) for s in short_episode.steps]
        assert widths == [13] + [6] * 11
        assert short_episode.total_bits == 13 + 6 * 11

    def test_guarantees_pass(self, short_episode):
        report = verify_guarantees(short_episode)
        assert all(clause.passed for clause in vars(report).values())
        assert report.tracking.worst_margin <= 1e-6

    def test_bit_rate_report(self, short_episode):
        r = bit_rate(short_episode)
        assert r.steady_bits_per_step == 6
        assert r.steady_rate == 3.0
        assert r.asymptote == pytest.approx(2.0 / LN2, rel=1e-12)
        assert r.ceiling_gap == pytest.approx(3.0 - 2.0 / LN2, rel=1e-12)
        assert len(short_episode.steps[0].bits) == 13

    def test_validation_errors(self, di_controller):
        sys = double_integrator()
        with pytest.raises(ValueError):
            run_episodes(sys, UNIT_SQUARE, di_controller, [[2.0, 0.0]],
                         0.1, 2.0, [0.0], 5, 0.01)  # x0 outside Q
        with pytest.raises(ValueError):
            run_episodes(sys, UNIT_SQUARE, di_controller, [[0.0, 0.0]],
                         0.2, 2.0, [0.0], 5, 0.01)  # eps above eps_star
        with pytest.raises(ValueError):
            run_episodes(sys, UNIT_SQUARE, di_controller, [[0.0, 0.0]],
                         0.1, 3.0, [0.0], 5, 0.01)  # tau mismatch
        for dt in (0.0, 2.5):  # no step, or one longer than tau
            with pytest.raises(ValueError, match="dt"):
                run_episodes(sys, UNIT_SQUARE, di_controller, [[0.0, 0.0]],
                             0.1, 2.0, [0.0], 5, dt)

    @pytest.mark.parametrize("plant", [
        double_integrator(u_max=2.0), double_integrator(u_max=0.5),
        dataclasses.replace(double_integrator(), name="twin")],
        ids=["u_max_2", "u_max_0.5", "renamed"])
    def test_plant_is_the_controllers_system(self, di_controller, plant):
        # a run marches its controller's system; a plant of another name or
        # input box ran before, and u_max 2 wrote a log that replay
        # rejected, u_max 0.5 one that failed the audit
        with pytest.raises(ValueError, match=r"^system: (double_integrator|"
                           r"twin), input box \[-[.0-9]+\]\.\.\[[.0-9]+\], "
                           r"differs from double_integrator, input box "
                           r"\[-1\.0\]\.\.\[1\.0\]"):
            run_episodes(plant, UNIT_SQUARE, di_controller, [[0.4, -0.2]],
                         0.1, 2.0, [0.0], 2, 0.01)

    def test_state_outside_its_ball_is_a_violation(self, di_controller):
        # with L_tau -10 the first grid is one cell, which the loop holds
        # at rest, so the plant from (0.4, -0.2) ends step 0 at (0, -0.2),
        # outside the ball of radius 0.1 around the origin
        bad = dataclasses.replace(di_controller, L_tau=-10.0)
        with pytest.raises(GuaranteeViolationError, match=(
                r"^episode 0 step 1: sensed state .* outside S_1 \(center "
                r".*violates x_i in S_i$")):
            run_episodes(double_integrator(), UNIT_SQUARE, bad, [[0.4, -0.2]],
                         0.1, 2.0, [0.0], 3, 0.01)

    def test_jsonl_round_trip(self, short_episode, tmp_path):
        path = tmp_path / "ep.jsonl"
        short_episode.to_jsonl(str(path))
        config, steps = load_step_records(str(path))
        assert config["eps"] == 0.1
        assert len(steps) == len(short_episode.steps)
        for a, b in zip(steps, short_episode.steps):
            assert a.i == b.i and a.bits == b.bits and a.index == b.index
            assert np.array_equal(a.x, b.x)

    def test_malformed_log_reports_record(self, short_episode, tmp_path):
        path = tmp_path / "bad.jsonl"
        short_episode.to_jsonl(str(path))
        lines = path.read_text().splitlines()
        lines[3] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="record 4"):
            load_step_records(str(path))

    def test_tampered_log_fails_clause_a(self, short_episode):
        import copy
        bad = copy.deepcopy(short_episode)
        s = bad.steps[5]
        bad.steps[5] = type(s)(i=s.i, x=s.x + 1.0, q=s.q, index=s.index,
                               bits=s.bits, cover_size=s.cover_size, r=s.r,
                               S_center=s.S_center, S_radius=s.S_radius)
        report = verify_guarantees(bad)
        assert not report.state_in_ball.passed

    def test_determinism_across_runs(self, di_controller):
        sys = double_integrator()
        a, = run_episodes(sys, UNIT_SQUARE, di_controller, [[0.4, -0.2]],
                          0.1, 2.0, [0.1], 6, 0.01)
        b, = run_episodes(sys, UNIT_SQUARE, di_controller, [[0.4, -0.2]],
                          0.1, 2.0, [0.1], 6, 0.01)
        assert [s.bits for s in a.steps] == [s.bits for s in b.steps]
        assert np.array_equal(a.steps[-1].x, b.steps[-1].x)


def _assert_logs_identical(a, b):
    assert a.config == b.config
    assert len(a.steps) == len(b.steps)
    for sa, sb in zip(a.steps, b.steps):
        for name in ("i", "index", "bits", "cover_size", "r"):
            assert getattr(sa, name) == getattr(sb, name), name
        for name in ("x", "q", "S_center", "S_radius"):
            assert np.array_equal(getattr(sa, name), getattr(sb, name)), name
    assert len(a.terms) == len(b.terms)
    for (*levels_a, track_a), (*levels_b, track_b) in zip(a.terms, b.terms):
        for la, lb in zip(levels_a, levels_b):
            assert la.dtype == lb.dtype and np.array_equal(la, lb)
        assert track_a == track_b
    assert a.total_bits == b.total_bits


def _nbytes(value) -> int:
    """nbytes of every array in value's lists, tuples, dicts and
    dataclasses."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    return sum(map(_nbytes, value)) if isinstance(value, (list, tuple)) else 0


class TestEpisodeBatch:
    X0S = [[0.4, -0.2], [-0.7, 0.6], [0.1, 0.85], [-0.3, -0.5]]
    ALPHAS = [0.0, 0.1, 0.5, 0.1]

    def test_matches_separate_runs(self, di_controller):
        sys = double_integrator()
        logs = run_episodes(sys, UNIT_SQUARE, di_controller, self.X0S,
                            0.1, 2.0, self.ALPHAS, 6, 0.01, seeds=[5, 6, 7, 8])
        assert len(logs) == 4
        for x0, alpha, seed, log in zip(self.X0S, self.ALPHAS, [5, 6, 7, 8],
                                        logs):
            alone, = run_episodes(sys, UNIT_SQUARE, di_controller, [x0],
                                  0.1, 2.0, [alpha], 6, 0.01, seeds=[seed])
            _assert_logs_identical(log, alone)

    def test_partial_plant_step_matches_separate_runs(self, di_controller):
        # dt does not divide tau: the plant ends on a partial RK4 step
        sys = double_integrator()
        logs = run_episodes(sys, UNIT_SQUARE, di_controller, self.X0S[:2],
                            0.1, 2.0, self.ALPHAS[:2], 3, 0.03)
        for b, log in enumerate(logs):
            alone, = run_episodes(sys, UNIT_SQUARE, di_controller,
                                  [self.X0S[b]], 0.1, 2.0, [self.ALPHAS[b]],
                                  3, 0.03, seeds=[b])
            _assert_logs_identical(log, alone)

    def test_diverging_receiver_raises(self, di_controller, monkeypatch):
        real = quantized.march
        B = len(self.X0S)
        marched = []

        def perturbed(field, x0, *args, **kwargs):
            states = real(field, x0, *args, **kwargs)
            if not marched:  # the first tau step's batch
                marched.append((states.copy(), states))
                receiver_1 = B + 1
                states[-1, receiver_1, 0] = np.nextafter(
                    states[-1, receiver_1, 0], np.inf)
            return states

        monkeypatch.setattr(quantized, "march", perturbed)
        with pytest.raises(DeterminismError, match="episode 1 step 0"):
            run_episodes(double_integrator(), UNIT_SQUARE, di_controller,
                         self.X0S, 0.1, 2.0, self.ALPHAS, 3, 0.01)
        (before, after), = marched
        # sensor, receiver and plant rows in one batch; the perturbed row is
        # episode 1's receiver, which starts from the sensor's centre and
        # was marched as a row of its own
        assert before.shape[1] == 3 * B
        assert np.array_equal(before[0, B + 1], before[0, 1])
        assert not np.array_equal(after[-1, B + 1], before[-1, B + 1])
        assert np.array_equal(after[:, :B], before[:, :B])

    @pytest.mark.parametrize("x0s", [[[-0.6, 0.0]],
                                     [[0.4, 0.0], [-0.6, 0.0]]])
    def test_plant_blowup_names_episode(self, di_controller, x0s):
        # the field is infinite left of x1 = -0.5, so the last episode's
        # plant leaves the finite states on its first RK4 step
        base = double_integrator()

        def cliff(x, u):
            return np.where(x[..., :1] < -0.5, np.inf, base.field(x, u))

        sys = ControlSystem(n=2, m=1, U=base.U, field=cliff, name="cliff")
        with pytest.raises(IntegrationBlowupError) as alone:
            march(sys.field, np.array(x0s[-1]), 0.01, 2.0,
                  lambda *_: np.zeros(1), finite_rows=slice(None))
        # the plant is the controller's system, so cliff enters through it
        with pytest.raises(IntegrationBlowupError) as batch:
            run_episodes(sys, UNIT_SQUARE,
                         dataclasses.replace(di_controller, sys=sys), x0s,
                         0.1, 2.0, [0.0] * len(x0s), 2, 0.01)
        assert batch.value.row == len(x0s) - 1
        assert batch.value.t == alone.value.t

    @pytest.mark.parametrize("dt", [0.03, 0.3, 0.45, 0.9])
    def test_fragments_and_plant_share_one_time_axis(self, di_controller, dt):
        # every tau step's fragment and plant segment end at (i+1)*tau
        log, = run_episodes(double_integrator(), UNIT_SQUARE, di_controller,
                            self.X0S[:1], 0.1, 2.0, self.ALPHAS[:1], 4, dt)
        t, hat, plant = log.trajectories()
        assert len(t) == len(hat) == len(plant)
        ends = np.cumsum([len(levels) for levels, _, _ in log.terms]) - 1
        assert ends[-1] == len(t) - 1
        np.testing.assert_allclose(t[ends], 2.0 * np.arange(1, 5),
                                   rtol=0, atol=1e-12)

    def test_trajectories_march_once(self, di_controller, monkeypatch):
        # the fragments and the plant segments replay in one march
        log, = run_episodes(double_integrator(), UNIT_SQUARE, di_controller,
                            self.X0S[:1], 0.1, 2.0, self.ALPHAS[:1], 4, 0.01)
        closed_loop, calls = quantized._closed_loop, []

        def counted(*args):
            calls.append(args)
            return closed_loop(*args)

        monkeypatch.setattr(quantized, "_closed_loop", counted)
        log.trajectories()
        assert len(calls) == 1

    @pytest.mark.parametrize("dt", [0.01, 0.03, 0.07, 0.3, 0.45])
    @pytest.mark.parametrize("B", [1, 4])
    def test_replay_oracle(self, di_controller, B, dt):
        # every step's fragment and plant segment recomputed from its
        # logged inputs by one-row marches with the feedback clipped here:
        # they are the log's replayed trajectories, and they give its visit
        # levels and tracking terms; replay's one batch gives the same
        # log.  Where dt does not divide tau the fragment and the plant end
        # each tau step on a partial RK4 step
        sys = double_integrator()
        lo, hi = sys.U.lo, sys.U.hi
        logs = run_episodes(sys, UNIT_SQUARE, di_controller, self.X0S[:B],
                            0.1, 2.0, self.ALPHAS[:B], 4, dt)
        times, _ = time_grid(2.0, dt)
        for log in logs:
            eps, alpha = log.config["eps"], log.config["alpha"]
            slacks = eps * np.exp(-np.arange(4) * alpha * 2.0)
            _, hat, pl = log.trajectories()
            hat, pl = (a.reshape(4, len(times), 2) for a in (hat, pl))
            for s, (hat_levels, plant_levels, tracking), i in zip(
                    log.steps, log.terms, range(4)):
                frag = march(sys.field, s.q[None], dt, 2.0, lambda k, x:
                             np.clip(di_controller.feedback(x), lo, hi))[:, 0]
                assert np.array_equal(hat[i], frag)
                # the input held over each step, from the fragment's state
                u = np.clip(di_controller.feedback(frag[:-1]), lo, hi)
                plant = march(sys.field, s.x, dt, 2.0, lambda k, _: u[k],
                              finite_rows=slice(None))
                assert np.array_equal(pl[i], plant)
                for levels, states, slack in (
                        (hat_levels, frag, slacks),
                        (plant_levels, plant, 2.0 * slacks)):
                    d = distance_many(states, UNIT_SQUARE)
                    for j in range(4):
                        assert np.array_equal(levels >= j,
                                              d <= slack[j] + 1e-9)
                envelope = eps * np.exp(-alpha * (i * 2.0 + times))
                assert tracking == np.max(
                    np.max(np.abs(frag - plant), axis=1) - envelope)
            replayed, failures = quantized.replay(
                di_controller, dict(log.config, total_bits=log.total_bits),
                log.steps)
            assert failures == []
            _assert_logs_identical(replayed, log)

    def test_logs_keep_a_sixth_of_the_trajectories(self, di_controller):
        # the benchmark's lockstep shape, 20 episodes of 20 tau steps at
        # dt = 1e-3, whose fragments and plant segments held
        # 20 * 20 * 2001 * 2 * 2 float64s; the controller is shared
        x0s = np.random.default_rng(0).uniform(-0.85, 0.85, size=(20, 2))
        logs = run_episodes(double_integrator(), UNIT_SQUARE, di_controller,
                            x0s, 0.1, 2.0, [0.0] * 7 + [0.1] * 7 + [0.5] * 6,
                            20, 1e-3)
        samples = 20 * 20 * 2001 * 2
        kept = sum(_nbytes([v for k, v in vars(log).items()
                            if k != "controller"]) for log in logs)
        # at least a byte per sample's visit level
        assert samples <= kept <= samples * 2 * 8 / 6

    def test_replay_checks_links(self, di_controller):
        # x_2 moved by one ulp is no longer the end of plant segment 1;
        # the library's replay reports it, as verify does
        log, = run_episodes(double_integrator(), UNIT_SQUARE, di_controller,
                            self.X0S[:1], 0.1, 2.0, self.ALPHAS[:1], 4, 0.01)
        s = log.steps[2]
        x = s.x.copy()
        x[1] = np.nextafter(x[1], np.inf)
        steps = log.steps[:2] + [dataclasses.replace(s, x=x)] + log.steps[3:]
        _, failures = quantized.replay(
            di_controller, dict(log.config, total_bits=log.total_bits), steps)
        assert failures[0] == "step 2: the re-run disagrees on x"

    @pytest.mark.parametrize("edit, match", [
        ({"tau": 3.0}, "^tau must match the validated controller$"),
        ({"eps": 0.2}, r"^eps must lie in \(0, 0.1\]$"),
        # run_episodes' messages; replay had its own before
        ({"dt": 2.5}, r"^dt must lie in \(0, tau=2.0\]$"),
        ({"alpha": -0.1}, "^episode 0: alpha must be finite and "
                          "nonnegative, not -0.1$"),
        # replayed with no error before: a Q the controller never swept,
        # and a tau within the 1e-12 slack that replay did not march
        ({"Q_radius": [0.5, 0.5]}, "^Q must match the validated controller$"),
        ({"tau": 2.0 + 8e-13}, "^tau must match the validated controller$")])
    def test_replay_refuses_unvalidated_controller(self, di_controller, edit,
                                                   match):
        # a tau 3 log replayed by the tau 2 controller marched 2 s plant
        # segments against a tau 3 mirror: it reported failures, and the
        # returned log broke verify_guarantees; run_episodes refuses both
        log, = run_episodes(double_integrator(), UNIT_SQUARE, di_controller,
                            self.X0S[:1], 0.1, 2.0, self.ALPHAS[:1], 2, 0.01)
        header = dict(log.config, total_bits=log.total_bits, **edit)
        with pytest.raises(ValueError, match=match):
            quantized.replay(di_controller, header, log.steps)

    def test_config_reads_back_from_jsonl(self, di_controller, tmp_path):
        # numpy-typed inputs make a JSON-ready config, which the log's
        # header gives back key for key
        logs = run_episodes(double_integrator(), UNIT_SQUARE, di_controller,
                            np.array(self.X0S[:2]), 0.1, 2.0,
                            np.array(self.ALPHAS[:2]), 3, 0.01,
                            seeds=np.arange(5, 7))
        for log in logs:
            json.dumps(log.config)
            path = tmp_path / "ep.jsonl"
            log.to_jsonl(str(path))
            header, _ = load_step_records(str(path))
            assert header == dict(log.config, total_bits=log.total_bits)

    @pytest.mark.parametrize("x0s, eps, tau, alphas, match", [
        ([[0.0, 0.0], [2.0, 0.0]], 0.1, 2.0, [0.0, 0.0], "episode 1: x0"),
        ([[0.0, 0.0], [0.0, 0.0]], 0.1, 2.0, [0.1, -0.1], "episode 1: alpha"),
        ([[0.0, 0.0], [0.0, 0.0]], 0.2, 2.0, [0.0, 0.0], "eps"),
        ([[0.0, 0.0], [0.0, 0.0]], 0.1, 3.0, [0.0, 0.0], "tau"),
        ([[0.0, 0.0], [0.0, 0.0]], 0.1, 2.0, [0.0], "one entry"),
        # ran before, marching 2 s steps while its log said 2 + 8e-13
        ([[0.0, 0.0], [0.0, 0.0]], 0.1, 2.0 + 8e-13, [0.0, 0.0], "tau"),
    ])
    def test_inputs_checked_before_marching(self, di_controller, monkeypatch,
                                            x0s, eps, tau, alphas, match):
        self.assert_refused_unmarched(monkeypatch, match, UNIT_SQUARE,
                                      di_controller, x0s, eps, tau, alphas)

    def test_Q_checked_before_marching(self, di_controller, monkeypatch):
        # ran before on a Q the controller was not swept over
        self.assert_refused_unmarched(
            monkeypatch, "^Q must match the validated controller$",
            Box([0.0, 0.0], [0.5, 0.5]), di_controller, [[0.0, 0.0]], 0.1,
            2.0, [0.0])

    @staticmethod
    def assert_refused_unmarched(monkeypatch, match, *args):
        """run_episodes(double_integrator(), *args, 3, 0.01) raises a
        ValueError matching match before it marches."""
        def refuse(*args, **kwargs):
            raise AssertionError("marched before the inputs were checked")

        monkeypatch.setattr(quantized, "march", refuse)
        with pytest.raises(ValueError, match=match):
            run_episodes(double_integrator(), *args, 3, 0.01)


class TestVisitLevels:
    """The audit's visit levels against its float-distance comparisons."""

    @staticmethod
    def slacks(eps, tau, alpha, steps):
        """verify_guarantees' slack per start, as _audit_terms computes it."""
        return eps * np.exp(-np.arange(steps) * alpha * tau)

    @pytest.mark.parametrize("alpha", [0.0, 1e-17, 0.1, 0.5, 3.0])
    @pytest.mark.parametrize("eps, tau", [(0.1, 2.0), (0.05, 0.7)])
    def test_thresholds_do_not_increase(self, alpha, eps, tau):
        slacks = self.slacks(eps, tau, alpha, 1000)
        for thresholds in (slacks + 1e-9, 2.0 * slacks + 1e-9):
            assert np.all(np.diff(thresholds) <= 0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), alpha=st.sampled_from([0.0, 1e-17, 0.1, 3.0]),
           dt=st.sampled_from([0.5, 0.3]), steps=st.integers(1, 6),
           c_star=st.sampled_from([0.0, 1.4012542865626219]),
           L=st.sampled_from([0.0, 1.0]))
    def test_margins_equal_float_distance_oracle(self, data, alpha, dt, steps,
                                                 c_star, L):
        # dt 0.5 divides tau and 0.3 does not; the distances hold NaNs,
        # exact ties with the thresholds and their next floats up
        eps, tau = 0.1, 2.0
        t = quantized._time_axis(steps, tau, dt)
        slacks = self.slacks(eps, tau, alpha, steps)
        ties = np.concatenate((slacks + 1e-9, 2.0 * slacks + 1e-9))
        dists = np.array(data.draw(st.lists(st.one_of(
            st.just(math.nan), st.just(0.0), st.floats(0.0, 0.5),
            st.sampled_from(ties.tolist()),
            st.sampled_from(np.nextafter(ties, np.inf).tolist())),
            min_size=len(t), max_size=len(t))))
        # verify_guarantees' windows and starts
        idx = np.arange(steps)
        windows = tau + c_star * eps * np.exp(-(idx * alpha + L) * tau)
        starts, T_end = idx * tau, steps * tau
        for slack in (slacks, 2.0 * slacks):
            assert np.all(np.diff(slack + 1e-9) <= 0)
            levels = quantized._levels(dists, slack + 1e-9)
            assert quantized._windowed_recurrence_margin(
                t, levels, windows, starts, T_end) == \
                windowed_recurrence_margin_oracle(t, dists, slack, windows,
                                                  starts, T_end)


class TestPinnedValues:
    """Figures measured before the visit-gap scans were merged into one."""

    def test_reference_controller_constants(self, di_controller):
        assert di_controller.c_star == 1.4012542865626219
        assert di_controller.max_visit_gap == 0.52

    def test_clause_results(self, di_controller):
        logs = run_episodes(double_integrator(), UNIT_SQUARE, di_controller,
                            TestEpisodeBatch.X0S, 0.1, 2.0,
                            TestEpisodeBatch.ALPHAS, 6, 0.01)
        # (a) state in ball, (b) tracking, (c) hat and (d) true recurrence
        expected = [
            (-0.07893879306251506, -0.07589513525454403,
             -2.0089639145758453, -2.0089639145758453),
            (-0.03402241997831051, -0.025445260834242815,
             -1.9985210360919714, -1.9985210360919714),
            (-0.0006305046684744956, -0.00020730727944141348,
             -1.9903473362112862, -1.9903473362112862),
            (-0.02387190505562655, -0.023871905055626565,
             -1.9985210360919714, -1.9985210360919714),
        ]
        for log, margins in zip(logs, expected):
            report = verify_guarantees(log)
            clauses = (report.state_in_ball, report.tracking,
                       report.hat_recurrent, report.true_recurrent)
            assert [c.passed for c in clauses] == [True] * 4
            assert tuple(c.worst_margin for c in clauses) == margins
