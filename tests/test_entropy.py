import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_min_cover, judge, march_held
from recurq import entropy, systems
from recurq import (Box, CandidateClass, ControlSystem, GridCover,
                    InstanceTooLargeError, IntegrationBlowupError,
                    RecurrenceSpec, ResolutionError, SpanningInstance,
                    build_spanning_instance, dim_box_counting, double_integrator,
                    greedy_cover, grid, lower_bound,
                    min_spanning_cardinality, scalar_linear,
                    uncoverable_points, upper_bound)

LN2 = math.log(2.0)
UNIT_SQUARE = Box([0.0, 0.0], [1.0, 1.0])


class TestBoundFormulas:
    def test_dim_box_counting(self):
        assert dim_box_counting(UNIT_SQUARE) == 2
        assert dim_box_counting(Box([0.0, 0.0], [1.0, 0.0])) == 1
        assert dim_box_counting(Box([0.0], [0.0])) == 0

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
        Q = Box([0.0], [1.0])
        assert lower_bound(sys, Q, 0.5) == 1.0 / LN2

    def test_lower_bound_fd_fallback(self):
        # a system with no analytic Jacobian reads jacobian_fd's trace
        sys = scalar_linear(a=2.5)
        bare = ControlSystem(n=1, m=1, U=sys.U, field=sys.field, name="bare")
        Q = Box([0.0], [1.0])
        assert lower_bound(bare, Q, 0.5) == pytest.approx(2.5 / LN2, abs=1e-6)

    def test_lower_bound_is_the_min_over_its_grid(self):
        # divergence x * u + 3 on U = [-1, 1], least at the grid corner
        # x = 1 + delta_tau, u = -1
        sys = ControlSystem(
            n=1, m=1, U=Box([0.0], [1.0]),
            field=lambda x, u: x * x * u / 2 + 3.0 * x,
            jacobian=lambda x, u: np.array([[x[0] * u[0] + 3.0]]), name="xu")
        Q = Box([0.5], [0.5])
        assert lower_bound(sys, Q, 0.0) == 2.0 / LN2
        assert lower_bound(sys, Q, 0.5) == 1.5 / LN2

    def test_lower_bound_clamped_at_zero(self):
        sys = scalar_linear(a=-1.0)
        Q = Box([0.0], [1.0])
        assert lower_bound(sys, Q, 0.5) == 0.0


class TestCandidateClass:
    def test_signal_counts(self):
        # V ** n_seg candidates: 3 values over 2, 3 and 4 segments
        sys = double_integrator()
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        for T, count in [(4.0, 9), (6.0, 27), (8.0, 81)]:
            spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1, T=T)
            inst = build_spanning_instance(sys, UNIT_SQUARE, spec, 0.5, cc,
                                           dt=0.1, max_candidates=81)
            assert len(inst.candidates) == count

    def test_values_cover_extremes(self):
        cc = CandidateClass(values_per_axis=3, segment_duration=1.0)
        vals = cc.input_values(Box([0.0], [1.0]))
        np.testing.assert_allclose(sorted(vals.ravel()), [-1.0, 0.0, 1.0])

    def test_segment_must_divide_horizon(self):
        # T = 1e-10 holds no whole segment: refused before too, by a
        # message that named neither the segment duration nor the horizon
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        for T, tau in [(5.0, 2.0), (1e-10, 0.0)]:
            spec = RecurrenceSpec(UNIT_SQUARE, tau=tau, eps=0.1, T=T)
            with pytest.raises(ValueError, match=(
                    rf"^segment_duration 2.0 must divide the horizon T={T}$")):
                build_spanning_instance(double_integrator(), UNIT_SQUARE,
                                        spec, 0.5, cc, dt=0.1)
        # T / segment_duration overflows (an OverflowError before) or
        # rounds to no segment
        spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1, T=4.0)
        for S in (1e-320, 1e308, math.inf):
            with pytest.raises(ValueError) as err:
                build_spanning_instance(double_integrator(), UNIT_SQUARE,
                                        spec, 0.5, CandidateClass(3, S),
                                        dt=0.1)
            assert str(err.value) == \
                f"segment_duration {S} must divide the horizon T=4.0"

    @pytest.mark.parametrize("values_per_axis, segment_duration", [
        (0, 2.0), (-1, 2.0), (3, 0.0), (3, -1.0), (3, float("nan"))])
    def test_rejects_empty_class(self, values_per_axis, segment_duration):
        with pytest.raises(ValueError, match="values_per_axis|segment_duration"):
            CandidateClass(values_per_axis, segment_duration)

    def test_deterministic_enumeration(self):
        # two builds of one class enumerate the same candidates in the same
        # order, with the same feasibility rows
        cc = CandidateClass(values_per_axis=3, segment_duration=1.0)
        Q = Box([0.0], [1.0])
        spec = RecurrenceSpec(Q, tau=0.0, eps=0.1, T=2.0)
        a, b = (build_spanning_instance(scalar_linear(), Q, spec, 0.5, cc,
                                        dt=0.05) for _ in range(2))
        assert len(a.candidates) == len(b.candidates) == 9
        for s1, s2 in zip(a.candidates, b.candidates):
            assert np.array_equal(s1.values, s2.values)
        assert np.array_equal(a.feasibility, b.feasibility)


def initial_points(Q, init_delta):
    """The initial points of the cheapest instance on Q: one candidate
    held for one step."""
    sys = scalar_linear() if Q.dim == 1 else double_integrator()
    spec = RecurrenceSpec(Q, tau=0.0, eps=0.0, T=0.1)
    return build_spanning_instance(sys, Q, spec, init_delta,
                                   CandidateClass(1, 0.1),
                                   dt=0.1).initial_points


class TestInitialPoints:
    def test_grid_over_unit_square(self):
        pts = initial_points(UNIT_SQUARE, 0.25)
        assert pts.shape == (16, 2)
        assert pts.tobytes() == grid(UNIT_SQUARE, 0.25).centers().tobytes()
        for p in pts:
            assert UNIT_SQUARE.contains(p)

    @given(dim=st.integers(1, 2), init_delta=st.sampled_from(
               [0.125, 0.25, 0.5, 1.0]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_loop(self, dim, init_delta, data):
        # the points are the grid's centres, bit for bit, and no two agree
        # at 12 decimals, so they need no dedup; box centres on a lattice,
        # some 1e-13 off it
        coord = st.sampled_from([-0.5, -0.0, 0.0, 0.25, 0.5]).flatmap(
            lambda c: st.sampled_from([c, c + 1e-13, c - 1e-13]))
        Q = data.draw(st.builds(
            Box, st.lists(coord, min_size=dim, max_size=dim),
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                     min_size=dim, max_size=dim)))
        got = initial_points(Q, init_delta)
        want = grid(Q, init_delta).centers()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        seen = set()
        for p in got:
            key = tuple(np.round(p, 12))
            assert key not in seen
            seen.add(key)


def make_instance(matrix):
    feas = np.asarray(matrix, dtype=bool)
    return SpanningInstance(initial_points=np.zeros((feas.shape[1], 2)),
                            candidates=tuple(range(feas.shape[0])),
                            feasibility=feas)


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


def counted_rows(monkeypatch):
    """(rows, horizon) of every systems.march call from here on."""
    calls, march = [], systems.march

    def counted(field, x0, dt, horizon, *args, **kwargs):
        calls.append((len(x0), horizon))
        return march(field, x0, dt, horizon, *args, **kwargs)

    monkeypatch.setattr(systems, "march", counted)
    return calls


def assert_matches_per_candidate_loop(sys, inst, spec, dt):
    """The build the tree replaced: one march per candidate over the whole
    horizon from every initial point, then the sampled verdicts of
    _recurrent (invariance for tau = 0)."""
    points = inst.initial_points
    for j, sig in enumerate(inst.candidates):
        held = np.repeat(sig.values[:, None], len(points), axis=1)
        batch = march_held(sys, points, held, sig.segment_duration, spec.T,
                           dt)
        verdicts = judge(*batch, spec)
        assert inst.feasibility[j].tolist() == [ok for ok, _ in verdicts], j


def square_field(x, u):
    return x[..., :1] ** 2 + u[..., :1]


#: x' = x^2 + u with u = 0: from x0 = 0.5, x = 1/(2 - t) leaves [0, 1] at
#: t = 1 and blows up at t = 2
SQUARE = ControlSystem(n=1, m=1, U=Box([0.0], [0.0]), field=square_field,
                       name="square")
SEGMENT_Q = Box([0.5], [0.5])  # [0, 1]


class TestBuildInstance:
    def test_feasibility_matches_direct_check(self):
        sys = double_integrator()
        spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1, T=4.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        inst = build_spanning_instance(sys, UNIT_SQUARE, spec, 0.5, cc,
                                       dt=0.1)
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
                traj = march_held(sys, x0, sig.values, sig.segment_duration,
                                  4.0, 0.05)
                ok, _ = judge(*traj, spec)
                assert inst.feasibility[j, i] == ok, (j, i)

    @pytest.mark.parametrize("tau, level_rows", [
        (2.0, [48, 144, 252, 282]), (0.0, [48, 84, 78, 102])],
        ids=["2.0", "0.0"])
    def test_tree_matches_per_candidate_loop(self, tau, level_rows,
                                             monkeypatch):
        # T = 8: 81 candidates x 16 points over four 2 s segments
        sys = double_integrator()
        # eps = 1 leaves both kinds of cell in the invariance instance too
        spec = RecurrenceSpec(UNIT_SQUARE, tau=tau, eps=1.0, T=8.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        rows = counted_rows(monkeypatch)
        inst = build_spanning_instance(sys, UNIT_SQUARE, spec, 0.25, cc,
                                       dt=0.05, max_candidates=128)
        monkeypatch.undo()
        # one march per level, each over one segment, from the live rows:
        # 3 children of each row that level d - 1 left alive
        assert rows == [(n, 2.0) for n in level_rows]
        assert inst.feasibility.shape == (81, 16)
        assert inst.feasibility.any() and not inst.feasibility.all()
        assert_matches_per_candidate_loop(sys, inst, spec, 0.05)

    def test_benchmark_family_pinned(self):
        # the 24 (T, eps, tau) instances of the benchmark's spanning
        # workload (tau = 0 for invariance): the first 16 hex digits of the
        # sha256 of each packed feasibility matrix, then (r, chosen)
        pinned = {
            (4.0, 0.05, 2.0): ("a40e25eb73416242", 4, [2, 3, 5, 6]),
            (4.0, 0.05, 3.0): ("0e3439275c29ebea", 2, [0, 6]),
            (4.0, 0.05, 4.0): ("6acf95f515743e1c", 1, [0]),
            (4.0, 0.05, 0.0): ("1edeffb1c29b8df0", math.inf, []),
            (4.0, 0.1, 2.0): ("3755ddcaaa16872f", 4, [2, 3, 5, 6]),
            (4.0, 0.1, 3.0): ("0e3439275c29ebea", 2, [0, 6]),
            (4.0, 0.1, 4.0): ("6acf95f515743e1c", 1, [0]),
            (4.0, 0.1, 0.0): ("1edeffb1c29b8df0", math.inf, []),
            (6.0, 0.05, 2.0): ("7e2e5ef2d9e1dbbd", math.inf, []),
            (6.0, 0.05, 3.0): ("85ae2b479c7f8d5f", 4, [6, 9, 15, 18]),
            (6.0, 0.05, 4.0): ("40579e973a618b96", 4, [6, 11, 15, 18]),
            (6.0, 0.05, 0.0): ("279c935c9ddda259", math.inf, []),
            (6.0, 0.1, 2.0): ("511ea6727434651e", math.inf, []),
            (6.0, 0.1, 3.0): ("85ae2b479c7f8d5f", 4, [6, 9, 15, 18]),
            (6.0, 0.1, 4.0): ("40579e973a618b96", 4, [6, 11, 15, 18]),
            (6.0, 0.1, 0.0): ("279c935c9ddda259", math.inf, []),
            (8.0, 0.05, 2.0): ("522df2a282c314a9", math.inf, []),
            (8.0, 0.05, 3.0): ("8615ad0b05e18baf", math.inf, []),
            (8.0, 0.05, 4.0): ("d6d957f6f11c13cb", math.inf, []),
            (8.0, 0.05, 0.0): ("7b3bae54e7a2931a", math.inf, []),
            (8.0, 0.1, 2.0): ("eff91b269678f2d2", math.inf, []),
            (8.0, 0.1, 3.0): ("8615ad0b05e18baf", math.inf, []),
            (8.0, 0.1, 4.0): ("d6d957f6f11c13cb", math.inf, []),
            (8.0, 0.1, 0.0): ("7b3bae54e7a2931a", math.inf, []),
        }
        sys = double_integrator()
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        for (T, eps, tau), (digest, r, chosen) in pinned.items():
            spec = RecurrenceSpec(UNIT_SQUARE, tau=tau, eps=eps, T=T)
            inst = build_spanning_instance(sys, UNIT_SQUARE, spec, 0.25, cc,
                                           dt=0.05, max_candidates=128)
            feas = inst.feasibility
            assert feas.shape == (3 ** int(T / 2), 16)
            assert hashlib.sha256(np.packbits(feas).tobytes()).hexdigest()[
                :16] == digest, (T, eps, tau)
            assert min_spanning_cardinality(inst) == (r, chosen), (T, eps, tau)

    def test_candidate_order(self):
        # candidate j holds input_values[digit d of j in base V] over
        # segment d, most significant digit first (itertools.product
        # order), and the feasibility rows follow it: a 2-D U with 2 values
        # per axis (V = 4, 16 candidates), the family's T = 6 (27), and 5
        # scalar values over five 0.5 s segments (3125, tau = 0)
        plane = ControlSystem(n=2, m=2, U=Box([0.0, 0.0], [1.0, 2.0]),
                              field=lambda x, u: u + 0.0 * x, name="plane")
        cases = [(plane, UNIT_SQUARE, CandidateClass(
                     values_per_axis=2, segment_duration=1.0), 2.0, 2.0),
                 (double_integrator(), UNIT_SQUARE, CandidateClass(
                     values_per_axis=3, segment_duration=2.0), 6.0, 2.0),
                 (scalar_linear(), Box([0.0], [1.0]),
                  CandidateClass(values_per_axis=5, segment_duration=0.5),
                  2.5, 0.0)]
        for sys, Q, cc, T, tau in cases:
            spec = RecurrenceSpec(Q, tau=tau, eps=0.1, T=T)
            inst = build_spanning_instance(sys, Q, spec, 0.5, cc, dt=0.05,
                                           max_candidates=3125)
            values = cc.input_values(sys.U)
            V, n_seg = len(values), int(round(T / cc.segment_duration))
            assert len(inst.candidates) == len(inst.feasibility) == V ** n_seg
            for j, sig in enumerate(inst.candidates):
                assert sig.segment_duration == cc.segment_duration
                assert sig.values.shape == (n_seg, sys.m)
                assert sig.values.dtype == values.dtype
                for d in range(n_seg):
                    digit = j // V ** (n_seg - 1 - d) % V
                    assert np.array_equal(sig.values[d], values[digit]), (j, d)
            product = np.array(list(itertools.product(values, repeat=n_seg)))
            assert np.array_equal(
                np.array([sig.values for sig in inst.candidates]), product)
        # the 2-D inputs themselves, first axis major
        assert cases[0][2].input_values(plane.U).tolist() == [
            [-1.0, -2.0], [-1.0, 2.0], [1.0, -2.0], [1.0, 2.0]]

    # 1e-320: an OverflowError from the grid's axis count before
    @pytest.mark.parametrize("init_delta", [0.0, -0.25, float("inf"),
                                            1e-320])
    def test_rejects_init_delta(self, init_delta):
        sys = double_integrator()
        spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1, T=4.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        with pytest.raises(ValueError, match="init_delta"):
            build_spanning_instance(sys, UNIT_SQUARE, spec, init_delta, cc,
                                    dt=0.1)

    def test_caps_enforced(self):
        sys = double_integrator()
        spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1, T=4.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        with pytest.raises(InstanceTooLargeError):
            build_spanning_instance(sys, UNIT_SQUARE, spec, 0.5, cc, dt=0.1,
                                    max_candidates=4)

    def test_cap_checked_before_building(self, monkeypatch):
        def build(*args):
            raise AssertionError("candidates or points built past the cap")
        monkeypatch.setattr(entropy, "ControlSignal", build)
        monkeypatch.setattr(GridCover, "centers", build)
        monkeypatch.setattr(CandidateClass, "input_values", build)
        sys = double_integrator()
        spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1, T=24.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        # 3 ** 12 candidates, refused before one is built
        with pytest.raises(InstanceTooLargeError, match=(
                r"^531441 candidates x 16 points exceeds caps 24 x 64$")):
            build_spanning_instance(sys, UNIT_SQUARE, spec, 0.25, cc, dt=0.1)
        # 10 ** 6 points, counted from the grid before one is built
        spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1, T=4.0)
        with pytest.raises(InstanceTooLargeError, match=(
                r"^9 candidates x 1000000 points exceeds caps 24 x 64$")):
            build_spanning_instance(sys, UNIT_SQUARE, spec, 0.001, cc, dt=0.1)
        # 2 ** 126 candidates from 2 ** 63 values, still printed in full
        huge = CandidateClass(values_per_axis=2**63, segment_duration=2.0)
        with pytest.raises(InstanceTooLargeError, match=(
                rf"^{2**126} candidates x 16 points exceeds caps 24 x 64$")):
            build_spanning_instance(sys, UNIT_SQUARE, spec, 0.25, huge,
                                    dt=0.1)
        # 3 ** (4 * 10 ** 9) candidates, a count too long to print, told
        # as a power and never computed
        fine = CandidateClass(values_per_axis=3, segment_duration=1e-9)
        with pytest.raises(InstanceTooLargeError, match=(
                r"^3\*\*4000000000 candidates x 16 points exceeds caps "
                r"24 x 64$")):
            build_spanning_instance(sys, UNIT_SQUARE, spec, 0.25, fine,
                                    dt=0.1)

    def test_requires_finite_horizon(self):
        sys = double_integrator()
        spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        with pytest.raises(ValueError):
            build_spanning_instance(sys, UNIT_SQUARE, spec, 0.5, cc, dt=0.1)

    @pytest.mark.parametrize("Q", [Box([0.0, 0.0], [0.5, 0.5]),
                                   Box([0.5, 0.0], [1.0, 1.0]),
                                   Box([0.0], [1.0])])
    def test_Q_must_be_the_specs(self, monkeypatch, Q):
        # built before, its points from Q and its verdicts against spec.Q
        def refuse(*args, **kwargs):
            raise AssertionError("marched before Q was checked")

        monkeypatch.setattr(systems, "march", refuse)
        spec = RecurrenceSpec(UNIT_SQUARE, tau=2.0, eps=0.1, T=4.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        with pytest.raises(ValueError, match="^Q must match spec.Q"):
            build_spanning_instance(double_integrator(), Q, spec, 0.5, cc,
                                    dt=0.1)


class TestCandidateTree:
    @given(scalar=st.booleans(), dt=st.sampled_from([0.025, 1 / 30, 0.1 / 3]),
           n_seg=st.integers(1, 4), segment=st.sampled_from([0.5, 1.0, 0.7]),
           values=st.integers(2, 3), eps=st.sampled_from([0.0, 0.05, 0.2]),
           a=st.sampled_from([-1.0, 0.5, 1.0]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_candidate_loop(self, scalar, dt, n_seg, segment,
                                        values, eps, a, data):
        # 0.7 is no multiple of any dt: kept for one segment, which then
        # ends on a partial step
        if n_seg > 1 and segment == 0.7:
            segment = 0.5
        T = n_seg * segment
        # tau = 0 builds an invariance instance; every tau > 0 is >= 10 dt
        tau = data.draw(st.sampled_from(
            [t for t in (0.0, 0.35, 0.5, 0.8, 1.2) if t <= T]))
        if scalar:
            sys, Q = scalar_linear(a=a), Box([0.0], [1.0])
            delta = 0.25
        else:
            sys, Q, delta = double_integrator(), UNIT_SQUARE, 0.5
        spec = RecurrenceSpec(Q, tau=tau, eps=eps, T=T)
        cc = CandidateClass(values_per_axis=values, segment_duration=segment)
        inst = build_spanning_instance(sys, Q, spec, delta, cc, dt=dt,
                                       max_candidates=81)
        assert inst.feasibility.shape == (values ** n_seg,
                                          len(inst.initial_points))
        assert_matches_per_candidate_loop(sys, inst, spec, dt)

    def test_blowup_names_time_on_full_grid(self):
        # tau = T keeps the row alive after it leaves Q at t = 1, so the
        # second segment's march blows up; a march over the whole horizon
        # names the same time
        spec = RecurrenceSpec(SEGMENT_Q, tau=4.0, eps=0.0, T=4.0)
        cc = CandidateClass(values_per_axis=1, segment_duration=2.0)
        with pytest.raises(IntegrationBlowupError) as whole:
            march_held(SQUARE, [0.5], [[0.0], [0.0]], 2.0, 4.0, 0.05)
        with pytest.raises(IntegrationBlowupError) as tree:
            build_spanning_instance(SQUARE, SEGMENT_Q, spec, 1.0, cc, dt=0.05)
        times, _ = systems.time_grid(4.0, 0.05)
        assert 2.0 < tree.value.t == whole.value.t
        assert tree.value.t in times.tolist() and tree.value.row == 0

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_dead_row_is_not_marched_into_blowup(self, tau, monkeypatch):
        # the row leaves Q at t = 1, which settles it in the first segment
        # (for tau = 0.5 the next visit could come at 1.55 at the earliest);
        # the whole-horizon march it is no longer given blows up at t = 2
        spec = RecurrenceSpec(SEGMENT_Q, tau=tau, eps=0.0, T=3.0)
        cc = CandidateClass(values_per_axis=1, segment_duration=1.5)
        with pytest.raises(IntegrationBlowupError):
            march_held(SQUARE, [0.5], [[0.0], [0.0]], 1.5, 3.0, 0.05)
        rows = counted_rows(monkeypatch)
        inst = build_spanning_instance(SQUARE, SEGMENT_Q, spec, 1.0, cc,
                                       dt=0.05)
        assert inst.feasibility.tolist() == [[False]]
        assert rows == [(1, 1.5), (0, 1.5)]

    def test_misaligned_dt_raises_integrates_error(self):
        spec = RecurrenceSpec(SEGMENT_Q, tau=0.0, eps=0.0, T=2.0)
        cc = CandidateClass(values_per_axis=2, segment_duration=1.0)
        sys = scalar_linear(a=-1.0)
        # a 1 s segment's grid at dt = 1/3 + 1e-8 ends on a partial step
        # too: a step from 0.667 s would hold segment 0's input past t = 1
        for dt in (0.03, 1 / 3 + 1e-8):
            with pytest.raises(ValueError) as tree:
                build_spanning_instance(sys, SEGMENT_Q, spec, 1.0, cc, dt=dt)
            assert str(tree.value) == (
                f"dt={dt} must divide the segment duration 1.0 evenly")

    @pytest.mark.parametrize("dt, T", [((1 - 9e-13) / 3, 2.0),
                                       (0.5, 2.0 + 5e-10)])
    def test_horizon_grid_must_tile(self, dt, T):
        # each 1 s segment ends on a whole step, but time_grid(T, dt) ends
        # on a partial one that no level marches; a march over T marches it
        spec = RecurrenceSpec(SEGMENT_Q, tau=0.0, eps=0.0, T=T)
        cc = CandidateClass(values_per_axis=2, segment_duration=1.0)
        sys = scalar_linear(a=-1.0)
        times, n_full = systems.time_grid(T, dt)
        assert len(times) == n_full + 2 == 2 * round(1 / dt) + 2
        _, states = march_held(sys, [0.5], [[0.0], [0.0]], 1.0, T, dt)
        assert len(states) == len(times)
        with pytest.raises(ValueError, match="must divide the horizon T="):
            build_spanning_instance(sys, SEGMENT_Q, spec, 1.0, cc, dt=dt)

    def test_resting_state_is_invariant(self):
        # x' = 0 x + u: under u = 0 both initial points rest in [-1, 1]
        sys, Q = scalar_linear(a=0.0), Box([0.0], [1.0])
        spec = RecurrenceSpec(Q, tau=0.0, eps=0.0, T=1.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=1.0)
        inst = build_spanning_instance(sys, Q, spec, 0.5, cc, dt=0.05)
        assert inst.initial_points.tolist() == [[-0.5], [0.5]]
        assert inst.feasibility[1].tolist() == [True, True]  # u = 0
        assert_matches_per_candidate_loop(sys, inst, spec, 0.05)

    def test_one_segment_keeps_partial_step(self, monkeypatch):
        # 1/0.03 is no whole number: the one march runs to horizon 1.0,
        # 33 full steps, then a partial one to t = 1
        sys = scalar_linear(a=1.0)
        spec = RecurrenceSpec(SEGMENT_Q, tau=0.5, eps=0.0, T=1.0)
        cc = CandidateClass(values_per_axis=3, segment_duration=1.0)
        rows = counted_rows(monkeypatch)
        inst = build_spanning_instance(sys, SEGMENT_Q, spec, 0.25, cc,
                                       dt=0.03)
        monkeypatch.undo()
        assert rows == [(6, 1.0)]
        assert len(systems.time_grid(1.0, 0.03)[0]) == 35
        assert inst.feasibility.any() and not inst.feasibility.all()
        assert_matches_per_candidate_loop(sys, inst, spec, 0.03)

    def test_coarse_dt_raises_resolution_error(self):
        spec = RecurrenceSpec(SEGMENT_Q, tau=0.5, eps=0.0, T=1.0)
        cc = CandidateClass(values_per_axis=2, segment_duration=0.5)
        with pytest.raises(ResolutionError):
            build_spanning_instance(scalar_linear(), SEGMENT_Q, spec, 0.25,
                                    cc, dt=0.1)

    def test_work_on_large_invariance_instance(self, monkeypatch):
        # 5 values, 5 segments: 3125 candidates x 64 points.  Marched whole,
        # that is 200 000 rows over the full horizon, 1 000 000
        # row-segments; the tree marches 29 890
        sys, Q = scalar_linear(), Box([0.0], [1.0])
        spec = RecurrenceSpec(Q, tau=0.0, eps=0.1, T=2.5)
        cc = CandidateClass(values_per_axis=5, segment_duration=0.5)
        rows = counted_rows(monkeypatch)
        inst = build_spanning_instance(sys, Q, spec, 1 / 64, cc, dt=0.025,
                                       max_candidates=3125)
        assert rows == [(n, 0.5) for n in (320, 900, 2510, 6930, 19230)]
        assert inst.feasibility.shape == (3125, 64)
        assert inst.feasibility.sum() == 10640


def spanning_over_tau(sys, Q, T, eps, cc, init_delta, taus):
    """(feasibility, r) of each tau, every instance built at dt = 0.05."""
    out = []
    for tau in taus:
        inst = build_spanning_instance(
            sys, Q, RecurrenceSpec(Q, tau=tau, eps=eps, T=T), init_delta, cc,
            dt=0.05, max_candidates=128)
        out.append((inst.feasibility, min_spanning_cardinality(inst)[0]))
    return out


def assert_ordered_in_tau(cells):
    """Each tau's feasible cells lie inside the next larger tau's, so r does
    not increase; the first tau is 0, invariance."""
    for (small, r_small), (large, r_large) in zip(cells, cells[1:]):
        assert not np.any(small & ~large)
        assert r_small >= r_large


class TestOrderingInTau:
    """The paper's ordering, cell by cell: invariance (tau = 0) feasibility
    lies inside every tau > 0, and tau1's inside tau2's for tau1 < tau2.
    Both follow from the one predicate, so a failure is a bug."""

    TAUS = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0)

    @pytest.mark.parametrize("T", [4.0, 6.0, 8.0])
    def test_double_integrator_family(self, T):
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        r_at_eps_1 = None
        for eps in (0.05, 0.1, 0.5, 1.0):
            cells = spanning_over_tau(double_integrator(), UNIT_SQUARE, T,
                                      eps, cc, 0.25, self.TAUS)
            assert_ordered_in_tau(cells)
            r_at_eps_1 = [r for _, r in cells]
        # with eps 1, invariance needs more candidates than tau 2
        assert r_at_eps_1[0] == {4.0: 4, 6.0: 5, 8.0: 6}[T]
        assert r_at_eps_1[3] == 3

    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_scalar_instances(self, a):
        cc = CandidateClass(values_per_axis=3, segment_duration=0.5)
        Q = Box([0.0], [1.0])
        for T in (1.0, 1.5, 2.0):
            for eps in (0.0, 0.1):
                taus = [tau for tau in self.TAUS if tau <= T]
                assert_ordered_in_tau(spanning_over_tau(
                    scalar_linear(a=a), Q, T, eps, cc, 0.25, taus))
