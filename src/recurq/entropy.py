"""Entropy bound formulas and an exact small-instance spanning-set oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import systems
from .geometry import Box, distance_many, grid
from .recurrence import (_MEMBERSHIP_TOL, _POINTS_PER_AXIS, RecurrenceSpec,
                         _recurrent)
from .systems import ControlSystem, _jacobians, time_grid

LN2 = math.log(2.0)
#: build_spanning_instance's cap on initial points
_MAX_POINTS = 64


class InstanceTooLargeError(ValueError):
    """Candidate/point counts exceed the exact-search caps."""


def dim_box_counting(Q: Box) -> int:
    """Box-counting dimension of a box: count of positive-width axes."""
    return int(np.sum(Q.radius > 0))


def upper_bound(L_tau: float, Q: Box) -> float:
    """L * dim_F(Q) / ln 2, the growth-rate ceiling in bits/second."""
    if L_tau < 0:
        raise ValueError("L_tau must be nonnegative")
    return L_tau * dim_box_counting(Q) / LN2


def lower_bound(sys: ControlSystem, Q: Box, delta_tau: float) -> float:
    """max{0, min divergence (the state Jacobian's trace) over Q inflated by
    delta_tau x U} / ln 2.

    The minimum is taken over a corner-including tensor grid, so it is an
    over-estimate of the true minimum (and hence of the bound) unless the
    divergence is constant.
    """
    if delta_tau < 0:
        raise ValueError("delta_tau must be nonnegative")
    J = _jacobians(sys, Q.inflate(delta_tau).sample_grid(_POINTS_PER_AXIS),
                   sys.U.sample_grid(_POINTS_PER_AXIS))
    return max(0.0, float(np.min(np.trace(J, axis1=1, axis2=2)))) / LN2


@dataclass(frozen=True)
class CandidateClass:
    """Finite class of piecewise-constant signals for spanning search."""

    values_per_axis: int
    segment_duration: float

    def __post_init__(self):
        if self.values_per_axis < 1:
            raise ValueError(f"values_per_axis must be at least 1, not "
                             f"{self.values_per_axis}")
        if not self.segment_duration > 0:
            raise ValueError(f"segment_duration must be positive, not "
                             f"{self.segment_duration}")

    def input_values(self, U: Box) -> np.ndarray:
        axes = [np.linspace(l, h, self.values_per_axis)
                for l, h in zip(U.lo, U.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def _segments(self, T: float) -> int:
        """Segments in a signal of horizon T: at least one, and a whole
        number of them must fill T."""
        ratio = T / self.segment_duration  # inf when it overflows
        n_seg = int(round(ratio)) if math.isfinite(ratio) else 0
        if n_seg < 1 or abs(n_seg * self.segment_duration - T) > 1e-9:
            raise ValueError(f"segment_duration {self.segment_duration} "
                             f"must divide the horizon T={T}")
        return n_seg


class ControlSignal(NamedTuple):
    """One candidate: values[d] (shape (m,)) is held over segment d."""

    segment_duration: float
    values: np.ndarray


@dataclass(frozen=True)
class SpanningInstance:
    """Feasibility matrix of candidate controls against initial points.

    feasibility[j, i] is True when candidate j, in itertools.product order
    of the input values, makes the trajectory from initial point i
    (T, eps, tau, Q)-recurrent, exactly as that row marched alone; tau = 0
    asks for invariance.
    """

    initial_points: np.ndarray
    candidates: tuple
    feasibility: np.ndarray


def build_spanning_instance(sys: ControlSystem, Q: Box,
                            spec: RecurrenceSpec, init_delta: float,
                            candidate_class: CandidateClass, dt: float,
                            max_candidates: int = 24) -> SpanningInstance:
    """Enumerate candidates and fill the feasibility matrix by simulation.

    Q must be spec.Q, which it reads alone: another centre or radius raises
    ValueError.  The initial points are the centers of grid(spec.Q,
    init_delta), counted before any is built.

    Marches the candidate tree a segment per level, row (prefix*V + v)*P + p
    holding value v from point p, and stops marching a row once its mask of
    samples near Q, unmarched ones counted as visits, already fails
    recurrence._recurrent, which at tau = 0 fails on a sample outside.  So
    a dead row's later blow-up raises nothing; IntegrationBlowupError names
    a time on time_grid(T, dt) and that row index.  With more than one
    segment, dt must divide the segment duration and the horizon.
    """
    if not (np.array_equal(Q.center, spec.Q.center)
            and np.array_equal(Q.radius, spec.Q.radius)):
        raise ValueError("Q must match spec.Q, the set recurrence is judged by")
    T, Q = spec.T, spec.Q
    if not math.isfinite(T):
        raise ValueError("spanning instances need a finite horizon T")
    # Python floats: a quotient too large for one is inf, with no warning
    if not (0 < init_delta < math.inf
            and math.isfinite(float(np.max(Q.radius)) / init_delta)):
        raise ValueError(f"init_delta must be positive, finite and large "
                         f"enough for a finite grid over Q, not {init_delta}")
    n_seg = candidate_class._segments(T)
    cover = grid(Q, init_delta)
    # counted before any point or candidate is built; a count of more
    # digits than str prints (4300) is told as a power, and is over the cap
    P, V = math.prod(cover.counts), candidate_class.values_per_axis ** sys.m
    n_cand = (V ** n_seg if n_seg * math.log10(V) < 4000
              else f"{V}**{n_seg}")
    if type(n_cand) is str or n_cand > max_candidates or P > _MAX_POINTS:
        raise InstanceTooLargeError(
            f"{n_cand} candidates x {P} points exceeds "
            f"caps {max_candidates} x {_MAX_POINTS}")
    points, values = cover.centers(), candidate_class.input_values(sys.U)
    S = candidate_class.segment_duration
    h = S if n_seg > 1 else T  # one segment may end on a partial step
    times, (seg_times, seg_full) = time_grid(T, dt)[0], time_grid(h, dt)
    steps = len(seg_times) - 1
    if n_seg > 1 and steps > seg_full:  # so each step holds one input
        raise ValueError(f"dt={dt} must divide the segment duration {S} "
                         f"evenly")
    if len(times) - 1 != n_seg * steps:  # a grid that the segments tile
        raise ValueError(f"dt={dt} must divide the horizon T={T} evenly")
    T = min(T, float(times[-1]))  # the horizon the predicates read
    near = np.ones((len(times), P), dtype=bool)
    near[0] = distance_many(points, spec.Q) <= spec.eps + _MEMBERSHIP_TOL
    live, x = np.arange(P), points
    for d in range(n_seg):
        parent, v = np.divmod(np.arange(len(live) * V), V)
        live = (live[parent] // P * V + v) * P + live[parent] % P
        lo, u = d * steps, values[v]
        try:
            states = systems.march(sys.field, x[parent], dt, h,
                                   lambda *_: u, finite_rows=slice(None))
        except systems.IntegrationBlowupError as err:  # time on the full grid
            raise systems.IntegrationBlowupError(times[lo + np.searchsorted(
                seg_times, err.t)], int(live[err.row])) from None
        near = near[:, parent]
        near[lo + 1:lo + steps + 1] = (distance_many(states[1:], spec.Q)
                                       <= spec.eps + _MEMBERSHIP_TOL)
        ok = _recurrent(near, times, T, spec.tau)
        live, x, near = live[ok], states[-1, ok], near[:, ok]
    feas = np.zeros((n_cand, P), dtype=bool)
    feas.flat[live] = True
    # candidate j holds the base-V digits of j, most significant first
    table = values[np.indices((V,) * n_seg).reshape(n_seg, -1).T]
    return SpanningInstance(initial_points=points, candidates=tuple(
        ControlSignal(S, row) for row in table), feasibility=feas)


def greedy_cover(feasibility: np.ndarray) -> Optional[list]:
    """Greedy set cover over candidate rows; None if some column is bare."""
    n_cand, n_pts = feasibility.shape
    if not np.all(feasibility.any(axis=0)):
        return None
    uncovered = np.ones(n_pts, dtype=bool)
    chosen = []
    while uncovered.any():
        gains = feasibility[:, uncovered].sum(axis=1)
        j = int(np.argmax(gains))  # argmax takes the smallest index on ties
        chosen.append(j)
        uncovered &= ~feasibility[j]
    return sorted(chosen)


def min_spanning_cardinality(instance: SpanningInstance) -> tuple:
    """Exact minimum cover size via branch and bound.

    Returns (r, chosen_indices): (inf, []) when some point has no covering
    candidate (uncoverable_points names them).  Else chosen, sorted, is
    the greedy cover if it is minimal, or the first cover of size r that
    the depth-first search meets; it branches on the uncovered point with
    the fewest covering candidates, lowest index first, in index order.
    """
    feas = instance.feasibility
    n_cand, n_pts = feas.shape
    incumbent = greedy_cover(feas)
    if incumbent is None:
        return math.inf, []
    best = [len(incumbent), incumbent]
    rows = [frozenset(np.flatnonzero(feas[j])) for j in range(n_cand)]
    covering = [np.flatnonzero(col).tolist() for col in feas.T]

    def search(uncovered: frozenset, chosen: list):
        if not uncovered:
            # strict improvement only: first minimum found is kept, and
            # branching ascends candidate indices, so ties resolve toward
            # smaller index sets
            if len(chosen) < best[0]:
                best[0], best[1] = len(chosen), sorted(chosen)
            return
        max_gain = max(len(rows[j] & uncovered) for j in range(n_cand))
        if len(chosen) + math.ceil(len(uncovered) / max_gain) >= best[0]:
            return
        pivot = min(uncovered, key=lambda i: (len(covering[i]), i))
        for j in covering[pivot]:
            search(uncovered - rows[j], chosen + [j])

    search(frozenset(range(n_pts)), [])
    return best[0], best[1]


def uncoverable_points(instance: SpanningInstance) -> list:
    """Indices of initial points no candidate makes recurrent."""
    return list(np.flatnonzero(~instance.feasibility.any(axis=0)))
