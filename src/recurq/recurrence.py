"""Recurrence and invariance predicates plus the containment machinery.

The containment radius F * tau * exp(L * tau) bounds how far a trajectory
that must revisit Q every tau seconds can stray from Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Box, CompactSet, distance_many, neighborhood
from .systems import (ControlSignal, ControlSystem, Trajectory, march,
                      _held_inputs, _integrate)

#: membership slack absorbing floating-point noise on box boundaries
_MEMBERSHIP_TOL = 1e-12


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


def _visit_times(traj: Trajectory, Q: CompactSet, eps: float,
                 T: float) -> np.ndarray:
    times = traj.times[distance_many(traj.states, Q) <= eps + _MEMBERSHIP_TOL]
    return times[times <= T + _MEMBERSHIP_TOL]


def _check_resolution(traj: Trajectory, tau: float):
    if tau > 0 and len(traj.times) > 1 and traj.dt > tau / 10 + 1e-12:
        raise ResolutionError(
            f"sample step {traj.dt} too coarse for tau={tau}; need dt <= tau/10"
        )


def is_recurrent(traj: Trajectory, spec: RecurrenceSpec) -> tuple:
    """Sampled check of windowed recurrence; returns (ok, witness).

    True iff every window [t, t+tau] with t in [0, T-tau] contains a
    sample inside the eps-neighborhood of Q, at sample resolution.  On
    failure the witness is the start of a violating window.
    """
    T = min(spec.T, traj.horizon)
    if traj.horizon + 1e-9 < spec.T and math.isfinite(spec.T):
        raise ValueError("trajectory shorter than the requested horizon T")
    _check_resolution(traj, spec.tau)
    visits = _visit_times(traj, spec.Q, spec.eps, T)
    tau = spec.tau
    if len(visits) == 0:
        return False, 0.0
    if visits[0] > tau + _MEMBERSHIP_TOL:
        return False, 0.0
    gaps = np.diff(visits)
    for j, g in enumerate(gaps):
        if g > tau + _MEMBERSHIP_TOL and visits[j] < T - tau - _MEMBERSHIP_TOL:
            return False, float(visits[j])
    if T - visits[-1] > tau + _MEMBERSHIP_TOL:
        return False, float(visits[-1])
    return True, None


def is_invariant(traj: Trajectory, Q: CompactSet, eps: float,
                 T: float) -> tuple:
    """Every sample of [0, T] lies in the eps-neighborhood of Q."""
    T = min(T, traj.horizon)
    outside = ((traj.times <= T + _MEMBERSHIP_TOL)
               & (distance_many(traj.states, Q) > eps + _MEMBERSHIP_TOL))
    if outside.any():
        return False, float(traj.times[np.argmax(outside)])
    return True, None


def first_return_time(sys: ControlSystem, x0, signal: ControlSignal, Q: CompactSet,
                      horizon: float, dt: float, refine_tol: float = 1e-9):
    """First t > 0 with the trajectory inside Q, refined by bisection.

    Returns None if the trajectory never meets Q in (0, horizon]; a state
    that blows up never meets it.  x0 may be a batch (B, n) driven by a
    signal of shape (segments, B, m), as for integrate; the result is then
    a list of B such times, each equal to the time of its row marched alone.
    """
    traj = _integrate(sys, x0, signal, horizon, dt, check_finite=False)
    held = _held_inputs(signal, traj.times[:-1])
    n_full = int(horizon / dt + 1e-9)
    # integrate ends on a partial step when dt does not divide the horizon
    last_h = horizon - n_full * dt if len(traj.times) > n_full + 1 else None
    if traj.states.ndim == 2:
        return _first_entry(sys.field, traj.states, held, dt, Q, refine_tol,
                            last_h)
    return [_first_entry(sys.field, traj.states[:, b], held[:, b], dt, Q,
                         refine_tol, last_h)
            for b in range(traj.states.shape[1])]


def _first_entry(field, states, inputs, dt: float, Q: CompactSet,
                 refine_tol: float, last_h: Optional[float] = None):
    """Time of the first entry into Q after states[0], or None.

    states[k + 1] is one RK4 step of width dt from states[k] under the
    held input inputs[k] (the last step has width last_h when given).  The
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
    lo, hi = 0.0, dt
    if last_h is not None and k + 1 == len(inside):
        hi = last_h
    for _ in range(80):
        if hi - lo <= refine_tol:
            break
        mid = 0.5 * (lo + hi)
        if Q.contains(march(field, x, mid, 1, lambda *_: u)[-1],
                      tol=_MEMBERSHIP_TOL):
            hi = mid
        else:
            lo = mid
    return k * dt + hi


def estimate_F_Q(sys: ControlSystem, Q: CompactSet,
                 samples_per_axis: int = 5) -> float:
    """Max of ||f(x, u)||_inf over a corner-including grid of Q x U."""
    if samples_per_axis < 2:
        raise ValueError("need at least 2 samples per axis")
    u_grid = sys.U.sample_grid(samples_per_axis)
    best = 0.0
    for box in Q.boxes:
        for x in box.sample_grid(samples_per_axis):
            for u in u_grid:
                v = np.asarray(sys.field(x, u), dtype=float)
                if not np.all(np.isfinite(v)):
                    raise FloatingPointError(
                        f"vector field non-finite at x={x}, u={u}")
                best = max(best, float(np.max(np.abs(v))))
    return best


def estimate_L(sys: ControlSystem, region: Box, samples: int = 200,
               seed: int = 0, jac_points_per_axis: int = 5) -> float:
    """Lipschitz bound of f in x over a box region.

    Takes the larger of the sampled difference quotients and, when an
    analytic Jacobian exists, its max infinity norm over a tensor grid;
    for smooth fields the Jacobian sup dominates.
    """
    if samples < 2:
        raise ValueError("need at least 2 sampled pairs")
    rng = np.random.default_rng(seed)
    lo, hi = region.lo, region.hi
    u_points = [sys.U.center] + list(sys.U.corners())
    best = 0.0
    for _ in range(samples):
        x1 = rng.uniform(lo, hi)
        x2 = rng.uniform(lo, hi)
        sep = np.max(np.abs(x1 - x2))
        if sep < 1e-12:
            continue
        for u in u_points:
            df = np.asarray(sys.field(x1, u)) - np.asarray(sys.field(x2, u))
            best = max(best, float(np.max(np.abs(df)) / sep))
    if sys.jacobian is not None:
        x_grid = region.sample_grid(jac_points_per_axis)
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
                     max_iters: int = 10, samples: int = 200,
                     seed: int = 0) -> tuple:
    """Fixed-point over-approximation of the Lipschitz bound's domain.

    Starts from the bounding box of Q, inflates it by the containment
    radius implied by the current Lipschitz estimate, and iterates until
    the radius stabilizes within 1%.  Returns (constants, box); the box
    always contains every state reachable by recurrent trajectories.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    F_Q = estimate_F_Q(sys, Q)
    box = Q.bounding_box()
    L = estimate_L(sys, box, samples=samples, seed=seed)
    delta = containment_radius(F_Q, L, tau)
    converged = False
    for _ in range(max_iters):
        box = neighborhood(Q, delta).bounding_box() if delta > 0 else Q.bounding_box()
        L_new = estimate_L(sys, box, samples=samples, seed=seed)
        delta_new = containment_radius(F_Q, L_new, tau)
        if abs(delta_new - delta) <= 0.01 * max(delta_new, 1e-30):
            L, delta = L_new, delta_new
            converged = True
            break
        L, delta = L_new, delta_new
    return ContainmentConstants(F_Q=F_Q, L_tau=L, delta_tau=delta,
                                converged=converged), box
