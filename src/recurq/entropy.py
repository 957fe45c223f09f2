"""Entropy bound formulas and an exact small-instance spanning-set oracle."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Box, CompactSet, grid, neighborhood
from .recurrence import RecurrenceSpec, is_invariant, is_recurrent
from .systems import ControlSignal, ControlSystem, divergence, integrate

LN2 = math.log(2.0)

#: rows of one spanning-build march: a step's cost is mostly numpy call
#: overhead up to about 128 rows; past 512 the build gets no faster and
#: a wider batch only adds memory
_BATCH_ROWS = 512


class InstanceTooLargeError(ValueError):
    """Candidate/point counts exceed the exact-search caps."""


def dim_box_counting(Q: CompactSet) -> int:
    """Box-counting dimension of a box union: count of positive-width axes."""
    widths = np.max([b.radius for b in Q.boxes], axis=0)
    return int(np.sum(widths > 0))


def upper_bound(L_tau: float, Q: CompactSet) -> float:
    """L * dim_F(Q) / ln 2, the growth-rate ceiling in bits/second."""
    if L_tau < 0:
        raise ValueError("L_tau must be nonnegative")
    return L_tau * dim_box_counting(Q) / LN2


def lower_bound(sys: ControlSystem, Q: CompactSet, delta_tau: float,
                samples_per_axis: int = 5) -> float:
    """max{0, min divergence over the inflated neighborhood x U} / ln 2.

    The minimum is taken over a corner-including tensor grid, so it is an
    over-estimate of the true minimum (and hence of the bound) unless the
    divergence is constant.
    """
    if delta_tau < 0:
        raise ValueError("delta_tau must be nonnegative")
    region = neighborhood(Q, delta_tau)
    u_grid = sys.U.sample_grid(samples_per_axis)
    worst = math.inf
    for box in region.boxes:
        for x in box.sample_grid(samples_per_axis):
            for u in u_grid:
                worst = min(worst, divergence(sys, x, u))
    return max(0.0, worst) / LN2


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
        """Segments in a signal of horizon T, which they must divide."""
        n_seg = int(round(T / self.segment_duration))
        if abs(n_seg * self.segment_duration - T) > 1e-9:
            raise ValueError(f"segment_duration {self.segment_duration} "
                             f"must divide the horizon T={T}")
        return n_seg

    def signals(self, U: Box, T: float) -> list:
        values = self.input_values(U)
        return [ControlSignal(self.segment_duration, values[list(combo)])
                for combo in itertools.product(range(len(values)),
                                               repeat=self._segments(T))]


@dataclass(frozen=True)
class SpanningInstance:
    """Feasibility matrix of candidate controls against initial points.

    feasibility[j, i] is True when candidate j makes the trajectory from
    initial point i (T, eps, tau, Q)-recurrent, reproduced exactly by
    simulation.
    """

    initial_points: np.ndarray
    candidates: tuple
    feasibility: np.ndarray
    spec: RecurrenceSpec


def initial_point_grid(Q: CompactSet, init_delta: float) -> np.ndarray:
    """Grid centers over each box of Q, deduplicated, deterministic order."""
    pts = []
    for box in Q.boxes:
        pts.append(grid(box, init_delta).centers())
    pts = np.vstack(pts)
    # drop duplicates from overlapping boxes while preserving order
    seen, keep = set(), []
    for k, p in enumerate(pts):
        key = tuple(np.round(p, 12))
        if key not in seen:
            seen.add(key)
            keep.append(k)
    return pts[keep]


def build_spanning_instance(sys: ControlSystem, Q: CompactSet,
                            spec: RecurrenceSpec, init_delta: float,
                            candidate_class: CandidateClass,
                            dt: Optional[float] = None,
                            max_candidates: int = 24,
                            max_points: int = 64) -> SpanningInstance:
    """Enumerate candidates and fill the feasibility matrix by simulation."""
    T = spec.T
    if not math.isfinite(T):
        raise ValueError("spanning instances need a finite horizon T")
    if not 0 < init_delta < math.inf:
        raise ValueError(f"init_delta must be positive and finite, not "
                         f"{init_delta}")
    n_seg = candidate_class._segments(T)
    points = initial_point_grid(Q, init_delta)
    # counted before any candidate is built
    n_cand = len(candidate_class.input_values(sys.U)) ** n_seg
    if n_cand > max_candidates or len(points) > max_points:
        raise InstanceTooLargeError(
            f"{n_cand} candidates x {len(points)} points exceeds "
            f"caps {max_candidates} x {max_points}")
    candidates = candidate_class.signals(sys.U, T)
    if dt is None:
        base = spec.tau / 20 if spec.tau > 0 else candidate_class.segment_duration / 20
        # snap to an exact divisor of the segment duration
        k = max(1, int(round(candidate_class.segment_duration / base)))
        dt = candidate_class.segment_duration / k
    n_pts = len(points)
    # c whole candidates from every initial point per march, rows
    # candidate-major; rows never mix, so each verdict is the one of its
    # row marched alone
    per_batch = max(1, _BATCH_ROWS // n_pts)
    values = np.stack([sig.values for sig in candidates], axis=1)
    feas = np.empty((len(candidates), n_pts), dtype=bool)
    for start in range(0, len(candidates), per_batch):
        chunk = values[:, start:start + per_batch]
        c = chunk.shape[1]
        batch = integrate(sys, np.tile(points, (c, 1)),
                          ControlSignal(candidate_class.segment_duration,
                                        np.repeat(chunk, n_pts, axis=1)),
                          T, dt)
        verdicts = (is_recurrent(batch, spec) if spec.tau > 0
                    else is_invariant(batch, spec.Q, spec.eps, T))
        feas[start:start + c] = np.reshape([ok for ok, _ in verdicts],
                                           (c, n_pts))
    return SpanningInstance(initial_points=points, candidates=tuple(candidates),
                            feasibility=feas, spec=spec)


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

    Returns (r, chosen_indices); (inf, []) with the first uncoverable
    point's index recorded on the exception-free infeasible path.
    """
    feas = instance.feasibility
    n_cand, n_pts = feas.shape
    coverable = feas.any(axis=0)
    if not np.all(coverable):
        return math.inf, []
    incumbent = greedy_cover(feas)
    best = [len(incumbent), incumbent]
    rows = [frozenset(np.flatnonzero(feas[j])) for j in range(n_cand)]
    covering = [sorted(j for j in range(n_cand) if feas[j, i])
                for i in range(n_pts)]

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
