import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurq import entropy, systems
from recurq import (Box, CandidateClass, CompactSet, ControlSignal,
                    InstanceTooLargeError, RecurrenceSpec, SpanningInstance,
                    build_spanning_instance, dim_box_counting, double_integrator,
                    greedy_cover, initial_point_grid,
                    integrate, is_invariant, is_recurrent, lower_bound,
                    min_spanning_cardinality, scalar_linear,
                    uncoverable_points, upper_bound)

LN2 = math.log(2.0)
UNIT_SQUARE = CompactSet.box([0.0, 0.0], [1.0, 1.0])


class TestBoundFormulas:
    def test_dim_box_counting(self):
        assert dim_box_counting(UNIT_SQUARE) == 2
        assert dim_box_counting(CompactSet.box([0.0, 0.0], [1.0, 0.0])) == 1
        assert dim_box_counting(CompactSet.box([0.0], [0.0])) == 0

    def test_upper_bound_closed_form(self):
        assert upper_bound(1.0, UNIT_SQUARE) == pytest.approx(2.0 / LN2, rel=1e-15)
        assert upper_bound(0.0, UNIT_SQUARE) == 0.0
        with pytest.raises(ValueError):
            upper_bound(-0.1, UNIT_SQUARE)

    def test_lower_bound_zero_divergence(self):
        sys = double_integrator()
        assert lower_bound(sys, UNIT_SQUARE, 1.0) == 0.0

    def test_lower_bound_constant_divergence(self):
        sys = scalar_linear(a=1.0)
        Q = CompactSet.box([0.0], [1.0])
        assert lower_bound(sys, Q, 0.5) == pytest.approx(1.0 / LN2, rel=1e-15)

    def test_lower_bound_clamped_at_zero(self):
        sys = scalar_linear(a=-1.0)
        Q = CompactSet.box([0.0], [1.0])
        assert lower_bound(sys, Q, 0.5) == 0.0


class TestCandidateClass:
    def test_signal_counts(self):
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        U = Box([0.0], [1.0])
        assert len(cc.signals(U, 4.0)) == 9
        assert len(cc.signals(U, 6.0)) == 27
        assert len(cc.signals(U, 8.0)) == 81

    def test_values_cover_extremes(self):
        cc = CandidateClass(values_per_axis=3, segment_duration=1.0)
        vals = cc.input_values(Box([0.0], [1.0]))
        np.testing.assert_allclose(sorted(vals.ravel()), [-1.0, 0.0, 1.0])

    def test_segment_must_divide_horizon(self):
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        with pytest.raises(ValueError):
            cc.signals(Box([0.0], [1.0]), 5.0)

    @pytest.mark.parametrize("values_per_axis, segment_duration", [
        (0, 2.0), (-1, 2.0), (3, 0.0), (3, -1.0), (3, float("nan"))])
    def test_rejects_empty_class(self, values_per_axis, segment_duration):
        with pytest.raises(ValueError, match="values_per_axis|segment_duration"):
            CandidateClass(values_per_axis, segment_duration)

    def test_deterministic_enumeration(self):
        cc = CandidateClass(values_per_axis=3, segment_duration=1.0)
        a = cc.signals(Box([0.0], [1.0]), 2.0)
        b = cc.signals(Box([0.0], [1.0]), 2.0)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.values, s2.values)


class TestInitialPoints:
    def test_grid_over_unit_square(self):
        pts = initial_point_grid(UNIT_SQUARE, 0.25)
        assert pts.shape == (16, 2)
        for p in pts:
            assert UNIT_SQUARE.contains(p)

    def test_duplicates_dropped(self):
        Q = CompactSet((Box([0.0], [1.0]), Box([0.0], [1.0])))
        assert initial_point_grid(Q, 0.5).shape == (2, 1)


def make_instance(matrix):
    feas = np.asarray(matrix, dtype=bool)
    spec = RecurrenceSpec(UNIT_SQUARE, tau=1.0, T=2.0)
    return SpanningInstance(initial_points=np.zeros((feas.shape[1], 2)),
                            candidates=tuple(range(feas.shape[0])),
                            feasibility=feas, spec=spec)


class TestCovers:
    def test_identity_needs_all(self):
        r, chosen = min_spanning_cardinality(make_instance(np.eye(3)))
        assert r == 3 and chosen == [0, 1, 2]

    def test_universal_row(self):
        feas = [[1, 1, 1], [1, 0, 0], [0, 1, 0]]
        r, chosen = min_spanning_cardinality(make_instance(feas))
        assert r == 1 and chosen == [0]

    def test_greedy_can_be_beaten(self):
        # greedy picks the size-4 row first and needs 3 sets; optimum is 2
        feas = [[1, 1, 1, 1, 0, 0],
                [1, 1, 0, 0, 1, 0],
                [0, 0, 1, 1, 0, 1]]
        inst = make_instance(feas)
        assert len(greedy_cover(inst.feasibility)) == 3
        r, chosen = min_spanning_cardinality(inst)
        assert r == 2 and chosen == [1, 2]

    def test_infeasible_column(self):
        feas = [[1, 0], [1, 0]]
        inst = make_instance(feas)
        r, chosen = min_spanning_cardinality(inst)
        assert math.isinf(r) and chosen == []
        assert uncoverable_points(inst) == [1]
        assert greedy_cover(inst.feasibility) is None

    def test_tie_breaks_toward_smaller_indices(self):
        feas = [[1, 1], [1, 1]]
        r, chosen = min_spanning_cardinality(make_instance(feas))
        assert r == 1 and chosen == [0]


def brute_force_min_cover(feas):
    n_cand, n_pts = feas.shape
    if not np.all(feas.any(axis=0)):
        return math.inf
    for size in range(1, n_cand + 1):
        for combo in itertools.combinations(range(n_cand), size):
            if np.all(feas[list(combo)].any(axis=0)):
                return size
    return math.inf


@given(st.integers(0, 2**30), st.integers(2, 7), st.integers(2, 7))
@settings(max_examples=150, deadline=None)
def test_exact_cover_matches_brute_force(seed, n_cand, n_pts):
    rng = np.random.default_rng(seed)
    feas = rng.random((n_cand, n_pts)) < 0.4
    inst = make_instance(feas)
    r, chosen = min_spanning_cardinality(inst)
    assert r == brute_force_min_cover(feas)
    if math.isfinite(r):
        assert np.all(feas[chosen].any(axis=0))
        assert len(chosen) == r
        g = greedy_cover(feas)
        assert len(g) >= r


class TestBuildInstance:
    def test_feasibility_matches_direct_check(self):
        sys = double_integrator()
        spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1, T=4.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        inst = build_spanning_instance(sys, UNIT_SQUARE, spec, 0.5, cc)
        assert inst.feasibility.shape == (9, 4)
        # the all-zero control keeps every resting start recurrent; starts
        # with velocity drift out of Q and come back only for some controls
        assert inst.feasibility.any()
        r, chosen = min_spanning_cardinality(inst)
        assert math.isfinite(r)
        covered = inst.feasibility[chosen].any(axis=0)
        assert covered.all()

    @pytest.mark.parametrize("tau", [2.0, 0.0])
    def test_batched_rows_match_per_row_reference(self, tau):
        # tau = 0 builds an invariance instance
        sys = double_integrator()
        spec = RecurrenceSpec(UNIT_SQUARE, tau=tau, eps=0.1, T=4.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        inst = build_spanning_instance(sys, UNIT_SQUARE, spec, 0.25, cc,
                                       dt=0.05)
        assert inst.feasibility.shape == (9, 16)
        assert inst.feasibility.any() and not inst.feasibility.all()
        for j, sig in enumerate(inst.candidates):
            for i, x0 in enumerate(inst.initial_points):
                traj = integrate(sys, x0, sig, 4.0, 0.05)
                if tau > 0:
                    ok, _ = is_recurrent(traj, spec)
                else:
                    ok, _ = is_invariant(traj, UNIT_SQUARE, 0.1, 4.0)
                assert inst.feasibility[j, i] == ok, (j, i)

    @pytest.mark.parametrize("tau", [2.0, 0.0])
    def test_batches_match_per_candidate_loop(self, tau, monkeypatch):
        # T = 8: 81 candidates x 16 points span several batches, the last
        # one partial
        sys = double_integrator()
        # eps = 1 leaves both kinds of cell in the invariance instance too
        spec = RecurrenceSpec(UNIT_SQUARE, tau=tau, eps=1.0, T=8.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        rows = []

        def counted(field, x0, *args, **kwargs):
            rows.append(len(x0))
            return march(field, x0, *args, **kwargs)

        march = systems.march
        monkeypatch.setattr(systems, "march", counted)
        inst = build_spanning_instance(sys, UNIT_SQUARE, spec, 0.25, cc,
                                       dt=0.05, max_candidates=128)
        monkeypatch.undo()
        per_batch = entropy._BATCH_ROWS // 16
        assert 1 < math.ceil(81 / per_batch) and 81 % per_batch
        assert rows == [16 * per_batch] * (81 // per_batch) + [16 * (81 % per_batch)]
        assert inst.feasibility.shape == (81, 16)
        assert inst.feasibility.any() and not inst.feasibility.all()
        # the build it replaces: one integrate per candidate
        points = inst.initial_points
        for j, sig in enumerate(inst.candidates):
            held = np.repeat(sig.values[:, None], len(points), axis=1)
            batch = integrate(sys, points, ControlSignal(2.0, held), 8.0, 0.05)
            verdicts = (is_recurrent(batch, spec) if tau > 0 else
                        is_invariant(batch, UNIT_SQUARE, 1.0, 8.0))
            assert inst.feasibility[j].tolist() == [ok for ok, _ in verdicts], j

    @pytest.mark.parametrize("init_delta", [0.0, -0.25, float("inf")])
    def test_rejects_init_delta(self, init_delta):
        sys = double_integrator()
        spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1, T=4.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        with pytest.raises(ValueError, match="init_delta"):
            build_spanning_instance(sys, UNIT_SQUARE, spec, init_delta, cc)

    def test_caps_enforced(self):
        sys = double_integrator()
        spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1, T=4.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        with pytest.raises(InstanceTooLargeError):
            build_spanning_instance(sys, UNIT_SQUARE, spec, 0.5, cc,
                                    max_candidates=4)

    def test_cap_checked_before_building(self, monkeypatch):
        def build(*args):
            raise AssertionError("candidates built past the cap")
        monkeypatch.setattr(CandidateClass, "signals", build)
        sys = double_integrator()
        spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1, T=24.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        # 3 ** 12 candidates, refused before one is built
        with pytest.raises(InstanceTooLargeError, match=(
                r"^531441 candidates x 16 points exceeds caps 24 x 64$")):
            build_spanning_instance(sys, UNIT_SQUARE, spec, 0.25, cc)

    def test_requires_finite_horizon(self):
        sys = double_integrator()
        spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        with pytest.raises(ValueError):
            build_spanning_instance(sys, UNIT_SQUARE, spec, 0.5, cc)

