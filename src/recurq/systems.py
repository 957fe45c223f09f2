"""Control systems, piecewise-constant input signals, and RK4 integration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import Box, _as_vector


class DomainError(ValueError):
    """Input vector outside the admissible input box."""


class IntegrationBlowupError(RuntimeError):
    """Non-finite state encountered during integration."""

    def __init__(self, t: float, row: Optional[int] = None):
        self.t = t
        self.row = row
        where = "" if row is None else f" in batch row {row}"
        super().__init__(
            f"integration produced a non-finite state{where} at t={t:.6g}")


@dataclass(frozen=True)
class ControlSystem:
    """ODE x' = field(x, u) with inputs constrained to the box U.

    The field takes a state of shape (n,) and an input of shape (m,), or a
    batch of rows of shapes (B, n) and (B, m), indexing the last axis
    (``x[..., 1]``) so that row b of the result depends only on row b of
    its arguments.  The built-in systems' fields accept both; batched
    episodes (``run_episodes``) need the batch form.
    """

    n: int
    m: int
    U: Box
    field: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "system"

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("state and input dimensions must be positive")
        if self.U.dim != self.m:
            raise ValueError("input box dimension does not match m")


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant input on a uniform time grid.

    values has one row per segment: shape (segments, m), or
    (segments, B, m) to drive a batch of B states.
    """

    segment_duration: float
    values: np.ndarray

    def __post_init__(self):
        if self.segment_duration <= 0:
            raise ValueError("segment_duration must be positive")
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if values.shape[0] < 1:
            raise ValueError("signal needs at least one segment")
        object.__setattr__(self, "values", values)

    @property
    def total_duration(self) -> float:
        return self.segment_duration * self.values.shape[0]

    @staticmethod
    def constant(u, duration: float) -> "ControlSignal":
        return ControlSignal(duration, np.atleast_2d(np.asarray(u, dtype=float)))


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled solution path (final partial step permitted).

    states is (K+1, n), or (K+1, B, n) for a batch sampled at `times`.
    """

    times: np.ndarray
    states: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def end(self) -> np.ndarray:
        return self.states[-1]


def _check_step_alignment(dt: float, segment_duration: float):
    ratio = segment_duration / dt
    if abs(ratio - round(ratio)) > 1e-6 * max(1.0, ratio):
        raise ValueError(
            f"dt={dt} must divide the segment duration {segment_duration} evenly"
        )


def _check_finite(x: np.ndarray, t: float):
    # one reduction over the whole batch; rows are inspected only on failure
    if math.isfinite(float(np.abs(x).sum())):
        return
    if x.ndim == 1:
        raise IntegrationBlowupError(t)
    bad = ~np.isfinite(np.abs(x).sum(axis=-1))
    if bad.any():
        raise IntegrationBlowupError(t, row=int(np.argmax(bad)))


def time_grid(horizon: float, dt: float) -> tuple:
    """march's sample times over [0, horizon] and its count of full steps.

    n_full = int(horizon/dt) steps of width dt, then one partial step to
    horizon when the remainder exceeds 1e-12; the times are the multiples
    of dt, then horizon.  Returns (times, n_full).
    """
    n_full = int(horizon / dt + 1e-9)
    times = dt * np.arange(n_full + 1, dtype=float)
    if horizon - times[-1] > 1e-12:
        times = np.append(times, horizon)
    return times, n_full


def march(field, x0: np.ndarray, dt: float, horizon: float,
          input_at: Callable[[int, np.ndarray], np.ndarray],
          finite_rows: Optional[slice] = None) -> np.ndarray:
    """Classical RK4 over time_grid(horizon, dt), the input held per step.

    The full steps of width dt end on a partial step to horizon when dt
    does not divide it.  x0 is one state (n,) or a batch (B, n);
    input_at(k, x) returns the input held over step k, given the state x
    at its start.  Returns the states, one per sample time, shape
    (len(times),) + x0.shape.  Batch rows never mix, so every row is
    float-identical to marching its state alone.  With finite_rows, a
    non-finite state among those rows raises IntegrationBlowupError at the
    sample time it appears, naming its row within them.  Overflow raises
    no numpy warning: finite_rows reports it, and unchecked rows may blow
    up by design.
    """
    times, n_full = time_grid(horizon, dt)
    states = np.empty(times.shape + x0.shape)
    states[0] = x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for h, ks in ((dt, range(n_full)),
                      (horizon - times[n_full], range(n_full, len(times) - 1))):
            h2, h6 = 0.5 * h, h / 6.0
            for k in ks:
                u = input_at(k, x)
                k1 = field(x, u)
                k2 = field(x + h2 * k1, u)
                k3 = field(x + h2 * k2, u)
                k4 = field(x + h * k3, u)
                x = x + h6 * (k1 + 2.0 * (k2 + k3) + k4)
                if finite_rows is not None:
                    _check_finite(x[finite_rows], times[k + 1])
                states[k + 1] = x
    return states


def integrate(sys: ControlSystem, x0, signal: ControlSignal,
              horizon: float, dt: float) -> Trajectory:
    """Classical fixed-step RK4; deterministic for identical inputs.

    When the horizon passes a segment boundary, dt must divide the
    segment duration so the input is constant within every step; a
    horizon within the first segment may end on a partial step.  x0 may
    be a batch (B, n) driven by a signal of shape (segments, B, m); each
    row then integrates exactly as alone.
    A non-finite state raises IntegrationBlowupError.
    """
    return _integrate(sys, x0, signal, horizon, dt, check_finite=True)


def _integrate(sys: ControlSystem, x0, signal: ControlSignal, horizon: float,
               dt: float, check_finite: bool) -> Trajectory:
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2:
        x0 = _as_vector(x0, dim=sys.n, name="x0")
    elif x0.shape[1] != sys.n:
        raise ValueError(f"x0 has dimension {x0.shape[1]}, expected {sys.n}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if horizon > signal.total_duration + 1e-9:
        raise ValueError("horizon exceeds the signal duration")
    if horizon > signal.segment_duration + 1e-9:  # a boundary inside
        _check_step_alignment(dt, signal.segment_duration)

    times, _ = time_grid(horizon, dt)
    seg, values = _segment_of(signal, times[:-1]), signal.values
    # values[seg[k]] is a view: no (steps, B, m) copy of a batch's inputs
    states = march(sys.field, x0, dt, horizon, lambda k, _: values[seg[k]],
                   finite_rows=slice(None) if check_finite else None)
    return Trajectory(times, states)


def _segment_of(signal: ControlSignal, times: np.ndarray) -> np.ndarray:
    """Index of the signal segment that holds from each step start time."""
    seg = (times / signal.segment_duration + 1e-9).astype(int)
    return np.minimum(seg, signal.values.shape[0] - 1)


def jacobian_fd(sys: ControlSystem, x, u) -> np.ndarray:
    """Central finite-difference state Jacobian of the vector field."""
    x = _as_vector(x, dim=sys.n, name="state")
    u = _as_vector(u, dim=sys.m, name="input")
    J = np.empty((sys.n, sys.n))
    for i in range(sys.n):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (np.asarray(sys.field(xp, u)) - np.asarray(sys.field(xm, u))) / (2 * h)
    return J


def divergence(sys: ControlSystem, x, u) -> float:
    """Trace of the state Jacobian at (x, u)."""
    x = _as_vector(x, dim=sys.n, name="state")
    u = _as_vector(u, dim=sys.m, name="input")
    if not sys.U.contains(u, tol=1e-12):
        raise DomainError(f"input {u} outside U")
    J = jacobian_fd(sys, x, u) if sys.jacobian is None else sys.jacobian(x, u)
    div = float(np.trace(np.asarray(J, dtype=float)))
    if not math.isfinite(div):
        raise FloatingPointError("divergence evaluated to a non-finite value")
    return div


def double_integrator(u_max: float = 1.0) -> ControlSystem:
    """Planar system x1' = x2, x2' = u with |u| <= u_max."""
    A = np.array([[0.0, 1.0], [0.0, 0.0]])

    def field(x, u):
        if x.ndim == 1:  # scalar indexing is cheaper for a single state
            return np.array((x[1], u[0]))
        return np.array((x[..., 1], u[..., 0])).T

    def jac(x, u):
        return A

    return ControlSystem(n=2, m=1, U=Box([0.0], [u_max]), field=field,
                         jacobian=jac, name="double_integrator")


def scalar_linear(a: float = 1.0, u_max: float = 2.0) -> ControlSystem:
    """Scalar system x' = a*x + u with |u| <= u_max."""

    def field(x, u):
        if x.ndim == 1:  # scalar indexing is cheaper for a single state
            return np.array((a * x[0] + u[0],))
        return a * x[..., :1] + u[..., :1]

    def jac(x, u):
        return np.array([[a]])

    return ControlSystem(n=1, m=1, U=Box([0.0], [u_max]), field=field,
                         jacobian=jac, name=f"scalar_linear(a={a})")


BUILTIN_SYSTEMS = {
    "double_integrator": double_integrator,
    "scalar_linear": scalar_linear,
}


def make_system(name: str, **params) -> ControlSystem:
    if name not in BUILTIN_SYSTEMS:
        raise KeyError(f"unknown system {name!r}; known: {sorted(BUILTIN_SYSTEMS)}")
    return BUILTIN_SYSTEMS[name](**params)
