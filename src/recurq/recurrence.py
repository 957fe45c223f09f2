"""The recurrence predicate (invariance at tau = 0) and containment tools.

The containment radius F * tau * exp(L * tau) bounds how far a trajectory
that must revisit Q every tau seconds can stray from Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box
from .systems import ControlSystem, _jacobians, march, time_grid

#: membership slack absorbing floating-point noise on box boundaries
_MEMBERSHIP_TOL = 1e-12
#: width at which first_return_time's bisection stops
_REFINE_TOL = 1e-9
#: grid points per axis of estimate_F_Q's Q x U, estimate_L's region and
#: entropy.lower_bound's inflated Q x U
_POINTS_PER_AXIS = 5
#: lipschitz_region's most re-estimates
_REGION_ITERS = 10


class ResolutionError(ValueError):
    """Sampling too coarse for the requested recurrence window."""


@dataclass(frozen=True)
class RecurrenceSpec:
    """Window tau (0 asks for invariance), slack eps and horizon T on Q."""

    Q: Box
    tau: float
    eps: float = 0.0
    T: float = math.inf

    def __post_init__(self):
        if self.tau < 0 or self.eps < 0:
            raise ValueError("tau and eps must be nonnegative")
        if math.isfinite(self.T) and self.T < self.tau:
            raise ValueError("horizon T must be at least tau")


@dataclass(frozen=True)
class ContainmentConstants:
    """Velocity bound, Lipschitz bound, and the resulting excursion radius."""

    F_Q: float
    L_tau: float
    delta_tau: float


def _longest_gap(near: np.ndarray, times: np.ndarray, T: float):
    """Per column of the (K+1, B) mask of samples near Q, the longest
    stretch of [times[0], T] without a visit (samples past T ignored): the
    head, a gap between two visits or the tail; inf with no visit."""
    visited = near & (times <= T + _MEMBERSHIP_TOL)[:, None]
    # last[k, b]: row b's last visit at or before sample k, or -1
    last = np.where(visited, np.arange(len(times), dtype=np.int32)[:, None], -1)
    np.maximum.accumulate(last, axis=0, out=last)
    # the gap ending at visit k starts at its previous visit, or at
    # times[0] for the first one (the head)
    gaps = times[1:, None] - times[np.maximum(last[:-1], 0)]
    longest = np.max(gaps, axis=0, where=visited[1:], initial=0.0)
    tail = np.where(last[-1] >= 0, T - times[last[-1]], math.inf)
    return np.maximum(longest, tail)


def _recurrent(near: np.ndarray, times: np.ndarray, T: float, tau: float):
    """Per column of the (K+1, B) mask of samples near Q, whether [0, T]
    has no gap longer than tau; at tau = 0, whether every sample of [0, T]
    is near Q.  More visits never fail a column that passes."""
    if tau == 0:
        return near[:np.searchsorted(times, T + _MEMBERSHIP_TOL,
                                     side="right")].all(axis=0)
    if len(times) > 1 and times[1] - times[0] > tau / 10 + 1e-12:
        raise ResolutionError(f"sample step {times[1] - times[0]} too coarse "
                              f"for tau={tau}; need dt <= tau/10")
    return _longest_gap(near, times, T) <= tau + _MEMBERSHIP_TOL


def first_return_time(sys: ControlSystem, x0, u, Q: Box,
                      horizon: float, dt: float) -> np.ndarray:
    """Per row of x0 (B, n), the first t > 0 with its trajectory inside Q,
    refined by bisection, as if the row were marched alone: shape (B,).

    Row b holds the input u[b] (u is (B, m)) throughout.  inf if the
    trajectory never meets Q in (0, horizon]; a state that blows up never
    meets it.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2:
        raise ValueError(f"x0 must be a batch (B, n), not shape {x0.shape}")
    if x0.shape[1] != sys.n:
        raise ValueError(f"x0 has dimension {x0.shape[1]}, expected {sys.n}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    u = np.asarray(u, dtype=float)
    if u.shape != (len(x0), sys.m):
        raise ValueError(f"u has shape {u.shape}, expected {(len(x0), sys.m)} "
                         f"for x0 of shape {x0.shape}")
    states = march(sys.field, x0, dt, horizon, lambda *_: u)
    # the last step is partial when dt does not divide the horizon
    times, n_full = time_grid(horizon, dt)
    last_h = float(times[-1] - times[-2]) if len(times) > n_full + 1 else dt
    return np.array([_first_entry(sys.field, states[:, b], u[b], dt, Q, last_h)
                     for b in range(states.shape[1])], dtype=float)


def _first_entry(field, states, u, dt: float, Q: Box, last_h: float):
    """Time of the first entry into Q after states[0], or inf.

    states[k + 1] is one RK4 step of width dt from states[k] under the
    constant input u, and the last step has width last_h.  The entry is
    bisected inside the first step that lands in Q, probing with one-step
    marches from its start.
    """
    # Box.contains, over every sample at once
    inside = np.all(np.abs(states[1:] - Q.center)
                    <= Q.radius + _MEMBERSHIP_TOL, axis=-1)
    if not inside.any():
        return math.inf
    k = int(np.argmax(inside))
    lo, hi = 0.0, last_h if k + 1 == len(inside) else dt
    for _ in range(80):
        if hi - lo <= _REFINE_TOL:
            break
        mid = 0.5 * (lo + hi)
        if Q.contains(march(field, states[k], mid, mid, lambda *_: u)[-1],
                      tol=_MEMBERSHIP_TOL):
            hi = mid
        else:
            lo = mid
    return k * dt + hi


def estimate_F_Q(sys: ControlSystem, Q: Box) -> float:
    """Max of ||f(x, u)||_inf over a corner-including grid of Q x U.  A
    non-finite value raises FloatingPointError naming its pair, and no numpy
    warning is raised."""
    with np.errstate(all="ignore"):
        u_grid = sys.U.sample_grid(_POINTS_PER_AXIS)
        xs = Q.sample_grid(_POINTS_PER_AXIS)
        # every (x, u) pair in one call, x-major
        X = np.repeat(xs, len(u_grid), axis=0)
        U = np.tile(u_grid, (len(xs), 1))
        v = np.asarray(sys.field(X, U), dtype=float)
    bad = np.flatnonzero(~np.all(np.isfinite(v), axis=-1))
    if len(bad):
        raise FloatingPointError(
            f"vector field non-finite at x={X[bad[0]]}, u={U[bad[0]]}")
    return float(np.max(np.abs(v)))


def estimate_L(sys: ControlSystem, region: Box) -> float:
    """Lipschitz bound of f in x over a box region: the max row-sum norm of
    the state Jacobian over a corner-including grid of the region x the
    centre and corners of U."""
    us = np.vstack(([sys.U.center], sys.U.corners()))
    J = _jacobians(sys, region.sample_grid(_POINTS_PER_AXIS), us)
    return float(np.max(np.sum(np.abs(J), axis=-1)))


def containment_radius(F_Q: float, L_tau: float, tau: float) -> float:
    """Excursion bound F * tau * exp(L * tau); FloatingPointError when it
    is not finite."""
    if F_Q < 0 or L_tau < 0 or tau < 0:
        raise ValueError("all arguments must be nonnegative")
    try:
        delta = F_Q * tau * math.exp(L_tau * tau)
    except OverflowError:
        delta = math.inf
    if not math.isfinite(delta):
        raise FloatingPointError(
            f"containment radius F_Q * tau * exp(L_tau * tau) non-finite at "
            f"F_Q={F_Q}, L_tau={L_tau}, tau={tau}")
    return delta


def lipschitz_region(sys: ControlSystem, Q: Box, tau: float) -> tuple:
    """Fixed-point over-approximation of the Lipschitz bound's domain.

    Starts from Q, inflates it by the containment radius implied by the
    current Lipschitz estimate, and iterates until the radius stabilizes
    within 1%.  Returns (constants, box); the box is inflated by the radius
    from before the last estimate, so it reaches delta_tau around Q to
    within 1% of delta_tau.  A box of non-finite width, or a radius that has
    not settled after _REGION_ITERS re-estimates, raises FloatingPointError.
    """
    F_Q = estimate_F_Q(sys, Q)
    delta = containment_radius(F_Q, estimate_L(sys, Q), tau)
    for _ in range(_REGION_ITERS):
        with np.errstate(over="ignore", invalid="ignore"):
            box = Q.inflate(delta)
            # the width that estimate_L's grid spans, inf or NaN with a bound
            finite = np.isfinite(box.hi - box.lo).all()
        if not finite:
            raise FloatingPointError(f"region around Q non-finite at "
                                     f"delta_tau={delta}")
        L = estimate_L(sys, box)
        delta, last = containment_radius(F_Q, L, tau), delta
        if abs(delta - last) <= 0.01 * max(delta, 1e-30):
            return ContainmentConstants(F_Q=F_Q, L_tau=L, delta_tau=delta), box
    raise FloatingPointError(f"containment radius still moving after "
                             f"{_REGION_ITERS} re-estimates: {last} -> {delta}")
