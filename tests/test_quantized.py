import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurq import (Box, CompactSet, ControlSignal, ControlSystem,
                    ControllerInvalidError, DeterminismError,
                    GridMirror, IntegrationBlowupError, ProtocolError,
                    bit_rate, closed_loop, decode, double_integrator, encode,
                    integrate, load_step_records,
                    reference_controller_double_integrator, run_episode,
                    run_episodes, steady_state_cover_size, verify_guarantees)
from recurq import quantized

LN2 = math.log(2.0)
UNIT_SQUARE = CompactSet.box([0.0, 0.0], [1.0, 1.0])


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


class TestClosedLoop:
    def test_input_clamped_to_U(self):
        sys = double_integrator()
        states, u_values = closed_loop(sys, lambda x: np.array([5.0]),
                                       [0.0, 0.0], 0.5, 0.1)
        assert np.all(u_values == 1.0)
        assert states.shape == (6, 2)

    def test_bit_identical_reruns(self):
        sys = double_integrator()
        fb = lambda x: np.array((-x[0] - 1.5 * x[1],))
        a, ua = closed_loop(sys, fb, [0.3, -0.8], 4.0, 0.01)
        b, ub = closed_loop(sys, fb, [0.3, -0.8], 4.0, 0.01)
        assert np.array_equal(a, b) and np.array_equal(ua, ub)

    def test_batch_rows_match_single_runs(self, di_controller):
        sys = double_integrator()
        X = np.array([[0.3, -0.8], [-0.9, 0.95], [1.0, 1.0]])
        states, u_values = closed_loop(sys, di_controller.feedback, X, 2.0,
                                       0.01)
        assert states.shape == (201, 3, 2) and u_values.shape == (200, 3, 1)
        for b, x0 in enumerate(X):
            s1, u1 = closed_loop(sys, di_controller.feedback, x0, 2.0, 0.01)
            assert np.array_equal(states[:, b], s1)
            assert np.array_equal(u_values[:, b], u1)

    @pytest.mark.parametrize("dt", [0.01, 0.03, 0.07, 0.3, 0.45, 0.9])
    def test_ends_at_duration_on_the_exact_flow(self, dt):
        # under u = -1 the flow from q is x1 = q1 + q2 t - t^2/2,
        # x2 = q2 - t; RK4 is exact for it, so the run ends on the flow at
        # t = 2 whether or not dt divides 2
        Q0 = np.array([[0.3, -0.8], [-0.9, 0.95], [1.0, 1.0]])
        states, u_values = closed_loop(double_integrator(),
                                       lambda x: np.array([-1.0]), Q0, 2.0,
                                       dt)
        exact = np.column_stack((Q0[:, 0] + 2.0 * Q0[:, 1] - 2.0,
                                 Q0[:, 1] - 2.0))
        np.testing.assert_allclose(states[-1], exact, rtol=0, atol=1e-12)
        assert len(u_values) == len(states) - 1


class TestReferenceFeedback:
    def test_matches_scalar_formula(self, di_controller):
        # the clip of -x1 - 1.5*x2 written with Python's min/max on one state
        def scalar(x):
            return np.array((min(1.0, max(-1.0, -x[0] - 1.5 * x[1])),))

        X = np.array([[0.3, -0.8], [2.0, 1.0], [-2.0, -1.0], [0.5, 0.0],
                      [-1.0, 0.0], [np.nan, 0.0], [np.inf, 0.0]])
        batch = di_controller.feedback(X)
        assert batch.shape == (len(X), 1)
        for x, u in zip(X, batch):
            single = di_controller.feedback(x)
            assert single.shape == (1,)
            assert np.array_equal(single, scalar(x), equal_nan=True)
            assert np.array_equal(u, single, equal_nan=True)


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


class TestGridMirror:
    def test_initial_cover_is_benchmark_size(self, di_controller):
        m = GridMirror(di_controller, UNIT_SQUARE.boxes[0], eps=0.1, tau=2.0,
                       alpha=0.0, dt=0.01)
        assert m.C.size == 5476
        assert len(encode(0, m.C.size)) == 13

    def test_steady_cover_sizes(self, di_controller):
        for alpha, expect in ((0.0, 64), (0.5, 441)):
            m = GridMirror(di_controller, UNIT_SQUARE.boxes[0], eps=0.1,
                           tau=2.0, alpha=alpha, dt=0.01)
            m.advance(0)
            assert m.C.size == expect
            assert expect == steady_state_cover_size(2, 1.0, alpha, 2.0)

    def test_radius_contraction(self, di_controller):
        m = GridMirror(di_controller, UNIT_SQUARE.boxes[0], eps=0.1, tau=2.0,
                       alpha=0.5, dt=0.01)
        m.advance(0)
        assert m.r == pytest.approx(0.1 * math.exp(-1.0), rel=1e-15)

    def test_mirrors_stay_identical(self, di_controller):
        a = GridMirror(di_controller, UNIT_SQUARE.boxes[0], 0.1, 2.0, 0.1, 0.01)
        b = GridMirror(di_controller, UNIT_SQUARE.boxes[0], 0.1, 2.0, 0.1, 0.01)
        rng = np.random.default_rng(3)
        for _ in range(5):
            idx = int(rng.integers(0, a.C.size))
            qa, ua, fa = a.advance(idx)
            qb, ub, fb = b.advance(idx)
            assert a.state_signature() == b.state_signature()
            assert np.array_equal(qa, qb)
            assert np.array_equal(ua, ub)
            assert np.array_equal(fa, fb)


@pytest.fixture(scope="module")
def short_episode(di_controller):
    sys = double_integrator()
    return run_episode(sys, UNIT_SQUARE, di_controller, [0.4, -0.2],
                       eps=0.1, tau=2.0, alpha=0.0, steps=12, dt=0.01)


class TestEpisode:
    def test_bit_sequence(self, short_episode):
        widths = [len(s.bits) for s in short_episode.steps]
        assert widths == [13] + [6] * 11
        assert short_episode.total_bits == 13 + 6 * 11

    def test_guarantees_pass(self, short_episode):
        report = verify_guarantees(short_episode)
        assert report.all_passed
        assert report.tracking.worst_margin <= 1e-6

    def test_bit_rate_report(self, short_episode):
        r = bit_rate(short_episode)
        assert r.steady_bits_per_step == 6
        assert r.steady_rate == 3.0
        assert r.asymptote == pytest.approx(2.0 / LN2, rel=1e-12)
        assert r.ceiling_gap == pytest.approx(3.0 - 2.0 / LN2, rel=1e-12)
        assert r.first_step_bits == 13

    def test_validation_errors(self, di_controller):
        sys = double_integrator()
        with pytest.raises(ValueError):
            run_episode(sys, UNIT_SQUARE, di_controller, [2.0, 0.0],
                        0.1, 2.0, 0.0, 5, 0.01)  # x0 outside Q
        with pytest.raises(ValueError):
            run_episode(sys, UNIT_SQUARE, di_controller, [0.0, 0.0],
                        0.2, 2.0, 0.0, 5, 0.01)  # eps above validated eps_star
        with pytest.raises(ValueError):
            run_episode(sys, UNIT_SQUARE, di_controller, [0.0, 0.0],
                        0.1, 3.0, 0.0, 5, 0.01)  # tau mismatch
        for dt in (0.0, 2.5):  # no step, or one longer than tau
            with pytest.raises(ValueError, match="dt"):
                run_episode(sys, UNIT_SQUARE, di_controller, [0.0, 0.0],
                            0.1, 2.0, 0.0, 5, dt)

    def test_jsonl_round_trip(self, short_episode, tmp_path):
        path = tmp_path / "ep.jsonl"
        short_episode.to_jsonl(str(path))
        config, steps = load_step_records(str(path))
        assert config["eps"] == 0.1
        assert len(steps) == short_episode.n_steps
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

    def test_bits_until(self, short_episode):
        assert short_episode.bits_until(0.0) == 13
        assert short_episode.bits_until(4.0) == 13 + 6 + 6
        assert short_episode.bits_until(1e9) == short_episode.total_bits

    def test_determinism_across_runs(self, di_controller):
        sys = double_integrator()
        a = run_episode(sys, UNIT_SQUARE, di_controller, [0.4, -0.2],
                        0.1, 2.0, 0.1, 6, 0.01)
        b = run_episode(sys, UNIT_SQUARE, di_controller, [0.4, -0.2],
                        0.1, 2.0, 0.1, 6, 0.01)
        assert [s.bits for s in a.steps] == [s.bits for s in b.steps]
        assert np.array_equal(a.steps[-1].x, b.steps[-1].x)


def _assert_logs_identical(a, b):
    assert a.config.keys() == b.config.keys()
    for key in a.config:
        assert np.array_equal(a.config[key], b.config[key]), key
    assert a.n_steps == b.n_steps
    for sa, sb in zip(a.steps, b.steps):
        for name in ("i", "index", "bits", "cover_size", "r"):
            assert getattr(sa, name) == getattr(sb, name), name
        for name in ("x", "q", "S_center", "S_radius"):
            assert np.array_equal(getattr(sa, name), getattr(sb, name)), name
    for name in ("frag_states", "plant_states"):
        for fa, fb in zip(getattr(a, name), getattr(b, name)):
            assert fa.shape == fb.shape and np.array_equal(fa, fb), name
    assert a.total_bits == b.total_bits


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
            alone = run_episode(sys, UNIT_SQUARE, di_controller, x0, 0.1,
                                2.0, alpha, 6, 0.01, seed=seed)
            _assert_logs_identical(log, alone)

    def test_partial_plant_step_matches_separate_runs(self, di_controller):
        # dt does not divide tau: the plant ends on a partial RK4 step
        sys = double_integrator()
        logs = run_episodes(sys, UNIT_SQUARE, di_controller, self.X0S[:2],
                            0.1, 2.0, self.ALPHAS[:2], 3, 0.03)
        for b, log in enumerate(logs):
            alone = run_episode(sys, UNIT_SQUARE, di_controller, self.X0S[b],
                                0.1, 2.0, self.ALPHAS[b], 3, 0.03, seed=b)
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
            integrate(sys, x0s[-1], ControlSignal.constant([0.0], 2.0), 2.0,
                      0.01)
        with pytest.raises(IntegrationBlowupError) as batch:
            run_episodes(sys, UNIT_SQUARE, di_controller, x0s, 0.1, 2.0,
                         [0.0] * len(x0s), 2, 0.01)
        assert batch.value.row == len(x0s) - 1
        assert batch.value.t == alone.value.t

    @pytest.mark.parametrize("dt", [0.03, 0.3, 0.45, 0.9])
    def test_fragments_and_plant_share_one_time_axis(self, di_controller, dt):
        # every tau step's fragment and plant segment end at (i+1)*tau
        log, = run_episodes(double_integrator(), UNIT_SQUARE, di_controller,
                            self.X0S[:1], 0.1, 2.0, self.ALPHAS[:1], 4, dt)
        t_hat, _ = log.hat_trajectory()
        t_pl, _ = log.plant_trajectory()
        assert np.array_equal(t_hat, t_pl)
        ends = np.cumsum([len(f) for f in log.frag_states]) - 1
        np.testing.assert_allclose(t_hat[ends], 2.0 * np.arange(1, 5),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dt", [0.01, 0.03, 0.07, 0.3, 0.45])
    @pytest.mark.parametrize("B", [1, 4])
    def test_replay_oracle(self, di_controller, B, dt):
        # every logged array recomputed from its step's logged inputs by
        # the unbatched closed_loop and integrate, and by replay's one
        # batch; where dt does not divide tau the fragment and the plant
        # end each tau step on a partial RK4 step
        sys = double_integrator()
        logs = run_episodes(sys, UNIT_SQUARE, di_controller, self.X0S[:B],
                            0.1, 2.0, self.ALPHAS[:B], 4, dt)
        for log in logs:
            for s, frag, plant in zip(log.steps, log.frag_states,
                                      log.plant_states):
                states, u = closed_loop(sys, di_controller.feedback, s.q,
                                        2.0, dt)
                assert np.array_equal(frag, states)
                replay = integrate(sys, s.x, ControlSignal(dt, u), 2.0,
                                   dt).states
                assert np.array_equal(plant, replay)
            _assert_logs_identical(
                quantized.replay(di_controller, log.config, log.steps), log)

    @pytest.mark.parametrize("x0s, eps, tau, alphas, match", [
        ([[0.0, 0.0], [2.0, 0.0]], 0.1, 2.0, [0.0, 0.0], "episode 1: x0"),
        ([[0.0, 0.0], [0.0, 0.0]], 0.1, 2.0, [0.1, -0.1], "episode 1: alpha"),
        ([[0.0, 0.0], [0.0, 0.0]], 0.2, 2.0, [0.0, 0.0], "eps"),
        ([[0.0, 0.0], [0.0, 0.0]], 0.1, 3.0, [0.0, 0.0], "tau"),
        ([[0.0, 0.0], [0.0, 0.0]], 0.1, 2.0, [0.0], "one entry"),
    ])
    def test_inputs_checked_before_marching(self, di_controller, monkeypatch,
                                            x0s, eps, tau, alphas, match):
        def refuse(*args, **kwargs):
            raise AssertionError("marched before the inputs were checked")

        monkeypatch.setattr(quantized, "closed_loop", refuse)
        monkeypatch.setattr(quantized, "march", refuse)
        with pytest.raises(ValueError, match=match):
            run_episodes(double_integrator(), UNIT_SQUARE, di_controller,
                         x0s, eps, tau, alphas, 3, 0.01)


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
