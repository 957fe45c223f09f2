import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurq import Box, distance_many, grid

UNIT_SQUARE = Box([0.0, 0.0], [1.0, 1.0])


def point_distance(y, Q):
    """Oracle of distance_many for one point, in Python floats: the largest
    excess of |y - center| over the radius of the box Q, and 0 inside."""
    return max(0.0, *(abs(v - c) - r for v, c, r in zip(
        y, Q.center.tolist(), Q.radius.tolist())))


class TestBox:
    def test_contains_boundary_and_tol(self):
        b = Box([0.0], [1.0])
        assert b.contains([1.0])
        assert not b.contains([1.0 + 1e-9])
        assert b.contains([1.0 + 1e-9], tol=1e-8)

    def test_distance_values(self):
        Q = Box([0.0, 0.0], [1.0, 1.0])
        # max norm, not euclidean
        X = [[0.3, -0.7], [2.0, 0.0], [2.0, 3.0]]
        assert distance_many(X, Q).tolist() == [0.0, 1.0, 2.0]
        assert [point_distance(x, Q) for x in X] == [0.0, 1.0, 2.0]

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Box([0.0], [-0.5])

    def test_corners_count_and_membership(self):
        b = Box([1.0, -1.0, 0.0], [0.5, 2.0, 1.0])
        cs = b.corners()
        assert cs.shape == (8, 3)
        for c in cs:
            assert b.contains(c)
        assert {tuple(c) for c in cs} == {
            (1.0 + sx, -1.0 + sy, sz)
            for sx in (-0.5, 0.5) for sy in (-2.0, 2.0) for sz in (-1.0, 1.0)}

    def test_sample_grid_includes_corners(self):
        b = Box([0.0, 0.0], [1.0, 2.0])
        pts = {tuple(p) for p in b.sample_grid(3)}
        for c in b.corners():
            assert tuple(c) in pts


class TestCompactSet:
    """Q, the compact set of the recurrence predicates, is one box."""

    def test_distance_many_matches_scalar(self):
        Q = Box([3.0, -1.0], [1.0, 0.5])
        rng = np.random.default_rng(1)
        X = rng.uniform(-5, 5, size=(200, 2))
        vec = distance_many(X, Q)
        for x, d in zip(X, vec):
            assert d == point_distance(x.tolist(), Q)

    @pytest.mark.parametrize("shape", [(2,), (40, 2), (11, 7, 2), (1,),
                                       (40, 1), (40, 3), (11, 7, 4)])
    def test_distance_many_matches_unfused_form(self, shape):
        # the form with one temporary per operation, bit for bit, over
        # any leading shape and dimension, with rows holding NaN or
        # infinities and rows on or within 1e-12 of Q's faces
        n = shape[-1]
        Q = Box(np.full(n, 0.3), np.linspace(1.0, 0.5, n))
        rng = np.random.default_rng(2)
        X = rng.uniform(-5, 5, size=shape)
        rows = X.reshape(-1, n)
        face = Q.center + Q.radius
        rows[:len(rows) // 2] = face + rng.choice(
            [-1e-12, 0.0, 1e-12], size=(len(rows) // 2, n))
        for k, bad in enumerate([[np.nan, 0.0], [np.inf, 3.0],
                                 [-np.inf, np.nan], [0.5, -np.inf]]):
            if k < len(rows):
                rows[-1 - k] = np.resize(bad, n)
        before = X.copy()
        got = distance_many(X, Q)
        want = np.max(np.maximum(np.abs(np.atleast_2d(X) - Q.center)
                                 - Q.radius, 0.0), axis=-1)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert X.tobytes() == before.tobytes()


@given(y=st.lists(st.floats(-10, 10), min_size=2, max_size=2),
       eps=st.floats(0.0, 5.0))
@settings(max_examples=200, deadline=None)
def test_neighborhood_distance_duality(y, eps):
    # d(y, Q) <= eps  iff  y in the eps-neighborhood, Q inflated by eps
    # (exact in the max norm)
    inside = UNIT_SQUARE.inflate(eps).contains(y)
    assert inside == (point_distance(y, UNIT_SQUARE) <= eps)
    assert inside == (distance_many(y, UNIT_SQUARE)[0] <= eps)


class TestGridCover:
    def test_unit_interval_counts(self):
        C = grid(Box([0.0], [1.0]), 0.25)
        assert C.counts == (4,)
        np.testing.assert_allclose(C.centers().ravel(),
                                   [-0.75, -0.25, 0.25, 0.75])

    def test_benchmark_cover_sizes(self):
        # unit square, delta = 0.1*exp(-2): 74 centers per axis, 5476 total
        delta = 0.1 * math.exp(-2.0)
        C = grid(Box([0.0, 0.0], [1.0, 1.0]), delta)
        assert C.counts == (74, 74)
        assert C.size == 5476
        # steady-state ball of radius 0.1 with the same delta: 8 per axis
        C2 = grid(Box([0.3, -0.2], [0.1, 0.1]), delta)
        assert C2.counts == (8, 8)
        assert C2.size == 64

    def test_size_does_not_wrap(self):
        # 10**10 centers per axis: an int64 product wraps past 2**63
        assert grid(UNIT_SQUARE, 1e-10).size == 10**20

    def test_exact_quotient_no_roundup(self):
        # 0.1 / 0.02 = 5 exactly must give 5 per axis, not 6
        C = grid(Box([0.0], [0.1]), 0.02)
        assert C.counts == (5,)

    def test_covering_property_random_points(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            center = rng.uniform(-3, 3, size=2)
            radius = rng.uniform(0.1, 2.0, size=2)
            delta = rng.uniform(0.03, 0.7)
            region = Box(center, radius)
            C = grid(region, delta)
            for _ in range(20):
                x = rng.uniform(region.lo, region.hi)
                q, idx = C.quantize(x)
                assert np.max(np.abs(x - q)) <= delta * (1 + 1e-12)
                np.testing.assert_array_equal(C.center(idx), q)

    def test_quantize_center_idempotent(self):
        C = grid(Box([0.5, -1.0], [1.0, 2.0]), 0.3)
        for idx in range(C.size):
            c = C.center(idx)
            q, back = C.quantize(c)
            assert back == idx
            np.testing.assert_array_equal(q, c)

    def test_quantize_tie_goes_to_smaller_index(self):
        C = grid(Box([0.0], [1.0]), 0.25)
        # 0.0 is exactly midway between centers -0.25 (index 1) and 0.25 (index 2)
        q, idx = C.quantize([0.0])
        assert idx == 1
        np.testing.assert_allclose(q, [-0.25])

    def test_degenerate_axis(self):
        C = grid(Box([1.0, 0.0], [0.0, 1.0]), 0.5)
        assert C.counts == (1, 2)
        q, idx = C.quantize([1.0, 0.9])
        np.testing.assert_allclose(q, [1.0, 0.5])

    def test_index_out_of_range(self):
        C = grid(Box([0.0], [1.0]), 0.25)
        with pytest.raises(ValueError):
            C.center(4)
        with pytest.raises(ValueError):
            C.center(-1)

    def test_enumeration_axis0_slowest(self):
        C = grid(Box([0.0, 0.0], [0.5, 0.5]), 0.25)
        cs = C.centers()
        assert C.counts == (2, 2)
        # axis 1 varies fastest
        np.testing.assert_allclose(cs[0], [-0.25, -0.25])
        np.testing.assert_allclose(cs[1], [-0.25, 0.25])
        np.testing.assert_allclose(cs[2], [0.25, -0.25])


@given(x=st.lists(st.floats(-0.999, 0.999), min_size=2, max_size=2),
       delta=st.floats(0.01, 0.9))
@settings(max_examples=200, deadline=None)
def test_quantize_within_delta_property(x, delta):
    C = grid(Box([0.0, 0.0], [1.0, 1.0]), delta)
    q, idx = C.quantize(x)
    assert 0 <= idx < C.size
    assert np.max(np.abs(np.asarray(x) - q)) <= delta * (1 + 1e-9)

