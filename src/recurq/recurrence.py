"""Recurrence and invariance predicates plus the containment machinery.

The containment radius F * tau * exp(L * tau) bounds how far a trajectory
that must revisit Q every tau seconds can stray from Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box, CompactSet, distance_many, neighborhood
from .systems import (ControlSignal, ControlSystem, Trajectory, march,
                      time_grid, _integrate, _segment_of)

#: membership slack absorbing floating-point noise on box boundaries
_MEMBERSHIP_TOL = 1e-12
#: width at which first_return_time's bisection stops
_REFINE_TOL = 1e-9
#: grid points per axis of estimate_F_Q's Q x U and estimate_L's region
_POINTS_PER_AXIS = 5
#: estimate_L's random point pairs; lipschitz_region's most re-estimates
_L_SAMPLES, _REGION_ITERS = 200, 10


class ResolutionError(ValueError):
    """Trajectory sampling too coarse for the requested recurrence window."""


@dataclass(frozen=True)
class RecurrenceSpec:
    """Window tau, slack eps, and horizon T for recurrence checks on Q."""

    Q: CompactSet
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
    converged: bool = True


def _visit_gaps(visits: np.ndarray, t0: float, T: float) -> tuple:
    """(gaps, starts) of the stretches of [t0, T] between sorted visit
    times; with no visit, one infinite stretch from t0."""
    if len(visits) == 0:
        return np.array([math.inf]), np.array([t0])
    starts = np.concatenate(([t0], visits))
    return np.append(visits, T) - starts, starts


def _check_resolution(traj: Trajectory, tau: float):
    if tau > 0 and len(traj.times) > 1 and traj.dt > tau / 10 + 1e-12:
        raise ResolutionError(
            f"sample step {traj.dt} too coarse for tau={tau}; need dt <= tau/10"
        )


def is_recurrent(traj: Trajectory, spec: RecurrenceSpec):
    """Sampled check of windowed recurrence; returns (ok, witness).

    True iff every window [t, t+tau] with t in [0, T-tau] contains a
    sample inside the eps-neighborhood of Q, at sample resolution.  On
    failure the witness is the start of the first visit gap that holds a
    violating window.  A batch (K+1, B, n) gives a list of B such pairs.
    """
    T = min(spec.T, traj.horizon)
    if traj.horizon + 1e-9 < spec.T and math.isfinite(spec.T):
        raise ValueError("trajectory shorter than the requested horizon T")
    _check_resolution(traj, spec.tau)
    tau, tol = spec.tau, _MEMBERSHIP_TOL
    visited = ((distance_many(traj.states, spec.Q).T <= spec.eps + tol)
               & (traj.times <= T + tol))
    verdicts = []
    for row in np.atleast_2d(visited):
        gaps, starts = _visit_gaps(traj.times[row], 0.0, T)
        # the head and the tail fail on length alone; an interior gap only
        # if it starts before T - tau
        fail = gaps > tau + tol
        fail[1:-1] &= starts[1:-1] < T - tau - tol
        verdicts.append((False, float(starts[np.argmax(fail)]))
                        if fail.any() else (True, None))
    return verdicts if visited.ndim == 2 else verdicts[0]


def is_invariant(traj: Trajectory, Q: CompactSet, eps: float, T: float):
    """Every sample of [0, T] lies in the eps-neighborhood of Q; returns
    (ok, first time outside), a list of such pairs for a batch."""
    T = min(T, traj.horizon)
    outside = ((distance_many(traj.states, Q).T > eps + _MEMBERSHIP_TOL)
               & (traj.times <= T + _MEMBERSHIP_TOL))
    verdicts = [(False, float(traj.times[np.argmax(row)])) if row.any()
                else (True, None) for row in np.atleast_2d(outside)]
    return verdicts if outside.ndim == 2 else verdicts[0]


def first_return_time(sys: ControlSystem, x0, signal: ControlSignal, Q: CompactSet,
                      horizon: float, dt: float):
    """First t > 0 with the trajectory inside Q, refined by bisection.

    Returns None if the trajectory never meets Q in (0, horizon]; a state
    that blows up never meets it.  x0 may be a batch (B, n) driven by a
    signal of shape (segments, B, m), as for integrate; the result is then
    a list of B such times, each equal to the time of its row marched alone.
    """
    traj = _integrate(sys, x0, signal, horizon, dt, check_finite=False)
    held = signal.values[_segment_of(signal, traj.times[:-1])]
    # the last step is partial when dt does not divide the horizon
    times, n_full = time_grid(horizon, dt)
    last_h = float(times[-1] - times[-2]) if len(times) > n_full + 1 else dt
    if traj.states.ndim == 2:
        return _first_entry(sys.field, traj.states, held, dt, Q, last_h)
    return [_first_entry(sys.field, traj.states[:, b], held[:, b], dt, Q,
                         last_h)
            for b in range(traj.states.shape[1])]


def _first_entry(field, states, inputs, dt: float, Q: CompactSet,
                 last_h: float):
    """Time of the first entry into Q after states[0], or None.

    states[k + 1] is one RK4 step of width dt from states[k] under the
    held input inputs[k], and the last step has width last_h.  The
    entry is bisected inside the first step that lands in Q, probing with
    one-step marches from its start.
    """
    inside = np.zeros(len(states) - 1, dtype=bool)
    for b in Q.boxes:  # Box.contains, over every sample at once
        inside |= np.all(np.abs(states[1:] - b.center)
                         <= b.radius + _MEMBERSHIP_TOL, axis=-1)
    if not inside.any():
        return None
    k = int(np.argmax(inside))
    x, u = states[k], inputs[k]
    lo, hi = 0.0, last_h if k + 1 == len(inside) else dt
    for _ in range(80):
        if hi - lo <= _REFINE_TOL:
            break
        mid = 0.5 * (lo + hi)
        if Q.contains(march(field, x, mid, mid, lambda *_: u)[-1],
                      tol=_MEMBERSHIP_TOL):
            hi = mid
        else:
            lo = mid
    return k * dt + hi


def estimate_F_Q(sys: ControlSystem, Q: CompactSet) -> float:
    """Max of ||f(x, u)||_inf over a corner-including grid of Q x U."""
    u_grid = sys.U.sample_grid(_POINTS_PER_AXIS)
    best = 0.0
    for box in Q.boxes:
        xs = box.sample_grid(_POINTS_PER_AXIS)
        # every (x, u) pair of the box in one call, x-major
        X = np.repeat(xs, len(u_grid), axis=0)
        U = np.tile(u_grid, (len(xs), 1))
        v = np.asarray(sys.field(X, U), dtype=float)
        bad = np.flatnonzero(~np.all(np.isfinite(v), axis=-1))
        if len(bad):
            raise FloatingPointError(
                f"vector field non-finite at x={X[bad[0]]}, u={U[bad[0]]}")
        best = max(best, float(np.max(np.abs(v))))
    return best


def estimate_L(sys: ControlSystem, region: Box, seed: int = 0) -> float:
    """Lipschitz bound of f in x over a box region.

    Takes the larger of the sampled difference quotients and, when an
    analytic Jacobian exists, its max infinity norm over a tensor grid;
    for smooth fields the Jacobian sup dominates.
    """
    rng = np.random.default_rng(seed)
    # the same draws, in the same order, as x1 then x2 for each sample
    pairs = rng.uniform(region.lo, region.hi,
                        size=(_L_SAMPLES, 2, region.dim))
    sep = np.max(np.abs(pairs[:, 0] - pairs[:, 1]), axis=-1)
    pairs, sep = pairs[sep >= 1e-12], sep[sep >= 1e-12]
    X = np.concatenate((pairs[:, 0], pairs[:, 1]))
    u_points = [sys.U.center] + list(sys.U.corners())
    best = 0.0
    for u in u_points:
        f = np.asarray(sys.field(X, np.tile(u, (len(X), 1))))
        quotients = np.max(np.abs(f[:len(sep)] - f[len(sep):]), axis=-1) / sep
        # fmax skips a NaN quotient, as the running max(best, q) did
        best = float(np.fmax.reduce(quotients, initial=best))
    if sys.jacobian is not None:
        x_grid = region.sample_grid(_POINTS_PER_AXIS)
        for x in x_grid:
            for u in u_points:
                J = np.asarray(sys.jacobian(x, u), dtype=float)
                best = max(best, float(np.max(np.sum(np.abs(J), axis=1))))
    return best


def containment_radius(F_Q: float, L_tau: float, tau: float) -> float:
    """Excursion bound F * tau * exp(L * tau)."""
    if F_Q < 0 or L_tau < 0 or tau < 0:
        raise ValueError("all arguments must be nonnegative")
    return F_Q * tau * math.exp(L_tau * tau)


def lipschitz_region(sys: ControlSystem, Q: CompactSet, tau: float,
                     seed: int = 0) -> tuple:
    """Fixed-point over-approximation of the Lipschitz bound's domain.

    Starts from the bounding box of Q, inflates it by the containment
    radius implied by the current Lipschitz estimate, and iterates until
    the radius stabilizes within 1%.  Returns (constants, box); the box
    always contains every state reachable by recurrent trajectories.
    """
    F_Q = estimate_F_Q(sys, Q)
    box = Q.bounding_box()
    L = estimate_L(sys, box, seed=seed)
    delta = containment_radius(F_Q, L, tau)
    converged = False
    for _ in range(_REGION_ITERS):
        box = neighborhood(Q, delta).bounding_box() if delta > 0 else Q.bounding_box()
        L_new = estimate_L(sys, box, seed=seed)
        delta_new = containment_radius(F_Q, L_new, tau)
        converged = abs(delta_new - delta) <= 0.01 * max(delta_new, 1e-30)
        L, delta = L_new, delta_new
        if converged:
            break
    return ContainmentConstants(F_Q=F_Q, L_tau=L, delta_tau=delta,
                                converged=converged), box
