"""Axis-aligned box geometry under the max norm.

Compact sets are finite unions of boxes, which keeps distances,
neighborhoods and grid covers exact in the infinity norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _as_vector(v, dim=None, name="vector"):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    return arr


@dataclass(frozen=True)
class Box:
    """Hyperrectangle given by center and componentwise half-widths."""

    center: np.ndarray
    radius: np.ndarray

    def __post_init__(self):
        center = _as_vector(self.center, name="center")
        radius = _as_vector(self.radius, dim=center.shape[0], name="radius")
        if np.any(radius < 0):
            raise ValueError("box radius must be componentwise nonnegative")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def lo(self) -> np.ndarray:
        return self.center - self.radius

    @property
    def hi(self) -> np.ndarray:
        return self.center + self.radius

    def contains(self, x, tol: float = 0.0) -> bool:
        x = _as_vector(x, dim=self.dim, name="point")
        return bool(np.all(np.abs(x - self.center) <= self.radius + tol))

    def distance(self, y) -> float:
        """Infinity-norm distance from a point to this box (0 inside)."""
        y = _as_vector(y, dim=self.dim, name="point")
        excess = np.abs(y - self.center) - self.radius
        return float(max(0.0, np.max(excess)))

    def inflate(self, eps: float) -> "Box":
        if eps < 0:
            raise ValueError("inflation must be nonnegative")
        return Box(self.center, self.radius + eps)

    def corners(self) -> np.ndarray:
        """All 2^d corner points, rows in lexicographic (lo-first) order."""
        offsets = np.array(
            np.meshgrid(*[(-r, r) for r in self.radius], indexing="ij")
        ).reshape(self.dim, -1).T
        return self.center + offsets

    def sample_grid(self, points_per_axis: int) -> np.ndarray:
        """Inclusive tensor grid over the box; always contains the corners."""
        if points_per_axis < 2:
            raise ValueError("need at least 2 points per axis")
        axes = [np.linspace(l, h, points_per_axis) for l, h in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @staticmethod
    def from_bounds(lo, hi) -> "Box":
        lo = _as_vector(lo, name="lo")
        hi = _as_vector(hi, dim=lo.shape[0], name="hi")
        return Box((lo + hi) / 2.0, (hi - lo) / 2.0)


@dataclass(frozen=True)
class CompactSet:
    """Finite union of boxes of a common dimension."""

    boxes: tuple

    def __post_init__(self):
        boxes = tuple(self.boxes)
        if not boxes:
            raise ValueError("a compact set needs at least one box")
        dim = boxes[0].dim
        if any(b.dim != dim for b in boxes):
            raise ValueError("all boxes must share one dimension")
        object.__setattr__(self, "boxes", boxes)

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    def contains(self, x, tol: float = 0.0) -> bool:
        return any(b.contains(x, tol=tol) for b in self.boxes)

    def bounding_box(self) -> Box:
        lo = np.min([b.lo for b in self.boxes], axis=0)
        hi = np.max([b.hi for b in self.boxes], axis=0)
        return Box.from_bounds(lo, hi)

    @staticmethod
    def box(center, radius) -> "CompactSet":
        return CompactSet((Box(center, radius),))


def distance(y, Q: CompactSet) -> float:
    """min over the boxes of Q of the infinity-norm point-to-box distance."""
    return min(b.distance(y) for b in Q.boxes)


def distance_many(X: np.ndarray, Q: CompactSet) -> np.ndarray:
    """Vectorized distance(., Q) over the points along X's last axis."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    # one scratch array of X's size, reused for every box
    excess = np.empty_like(X)
    best = None
    for b in Q.boxes:
        np.subtract(X, b.center, out=excess)
        np.abs(excess, out=excess)
        np.subtract(excess, b.radius, out=excess)
        d = np.maximum(excess, 0.0, out=excess).max(axis=-1)
        best = d if best is None else np.minimum(best, d, out=best)
    return best


def neighborhood(Q: CompactSet, eps: float) -> CompactSet:
    """Closed eps-neighborhood of Q; exact under the infinity norm."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return CompactSet(tuple(b.inflate(eps) for b in Q.boxes))


def _axis_count(half_width: float, delta: float) -> int:
    if half_width <= 0.0:
        return 1
    # relative backoff keeps exact quotients (e.g. 0.1/0.02) from rounding up
    return max(1, math.ceil((half_width / delta) * (1.0 - 1e-12)))


@dataclass(frozen=True)
class GridCover:
    """Cover of a box by balls of radius delta with centers 2*delta apart.

    Enumeration is lexicographic with axis 0 slowest and centers ascending
    per axis; the codec relies on this order being deterministic.
    """

    region: Box
    delta: float
    counts: tuple
    first: np.ndarray

    @property
    def size(self) -> int:
        return int(np.prod(self.counts))

    @property
    def dim(self) -> int:
        return self.region.dim

    def center(self, index: int) -> np.ndarray:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range for cover of size {self.size}")
        multi = np.unravel_index(index, self.counts)
        return self.first + 2.0 * self.delta * np.asarray(multi, dtype=float)

    def centers(self) -> np.ndarray:
        """All centers as rows, in enumeration order."""
        axes = [self.first[i] + 2.0 * self.delta * np.arange(c)
                for i, c in enumerate(self.counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def quantize(self, x) -> tuple:
        """Nearest center in the infinity norm; ties go to the smaller index."""
        x = _as_vector(x, dim=self.dim, name="point")
        raw = (x - self.first) / (2.0 * self.delta)
        # ceil(t - 1/2) rounds exact halves down, i.e. toward the smaller index
        idx = np.ceil(raw - 0.5).astype(int)
        idx = np.clip(idx, 0, np.asarray(self.counts) - 1)
        flat = int(np.ravel_multi_index(tuple(idx), self.counts))
        return self.center(flat), flat


def grid(S: Box, delta: float) -> GridCover:
    """The delta-grid of S: symmetric lattice of ball centers covering S."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    counts = tuple(_axis_count(r, delta) for r in S.radius)
    first = S.center - delta * (np.asarray(counts, dtype=float) - 1.0)
    return GridCover(region=S, delta=float(delta), counts=counts, first=first)
