"""Control systems, RK4 integration (march) and the built-in systems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import Box, _as_vector

#: state entries per chunk of march's finiteness scan
_SCAN_CHUNK = 1 << 14


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
    its arguments.  The built-in systems' fields take both through that
    one form; batched episodes (``run_episodes``) need the batch form.
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
    at its start.  field must return a new array, since the stage points
    share one buffer.  Returns the states, one per sample time, shape
    (len(times),) + x0.shape.  Batch rows never mix, so every row is
    float-identical to marching its state alone.  With finite_rows, one
    scan after the march finds the first sample time at which a row among
    them has a non-finite absolute sum (left-to-right sum over the
    components), and raises IntegrationBlowupError there, naming the first
    such row within them.  Overflow raises no numpy warning: finite_rows
    reports it, and unchecked rows may blow up by design.
    """
    times, n_full = time_grid(horizon, dt)
    states = np.empty(times.shape + x0.shape)
    states[0] = x = x0
    y, d = np.empty(x0.shape), np.empty(x0.shape)  # stage point, update
    add, mul, rows = np.add, np.multiply, iter(states[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for h, ks in ((dt, range(n_full)),
                      (horizon - times[n_full], range(n_full, len(times) - 1))):
            # 0-d arrays: a ufunc converts a Python float on every call
            two, h2, h6, h = map(np.array, (2.0, 0.5 * h, h / 6.0, h))
            for k in ks:
                u = input_at(k, x)
                k1 = field(x, u)
                k2 = field(add(mul(k1, h2, y), x, y), u)
                k3 = field(add(mul(k2, h2, y), x, y), u)
                k4 = field(add(mul(k3, h, y), x, y), u)
                # h/6 (k1 + 2 (k2 + k3) + k4), in that order of operations
                add(k2, k3, d)
                mul(d, two, d)
                add(d, k1, d)
                add(d, k4, d)
                mul(d, h6, d)
                x = add(x, d, next(rows))
        if finite_rows is not None:  # in chunks, to bound the temporaries
            chunk = max(1, _SCAN_CHUNK // max(1, x0.size))
            for i in range(1, len(times), chunk):
                part = states[i:i + chunk, finite_rows]
                total = np.zeros(part.shape[:-1])  # faster than .sum(axis=-1)
                for j in range(part.shape[-1]):
                    total += np.abs(part[..., j])
                bad = ~np.isfinite(total)
                if bad.any():  # the first bad sample, then its first bad row
                    k, *row = np.unravel_index(np.argmax(bad), bad.shape)
                    raise IntegrationBlowupError(times[i + k], *map(int, row))
    return states


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


def _jacobians(sys: ControlSystem, xs: np.ndarray, us: np.ndarray):
    """State Jacobians at every (x, u) pair of the rows of xs and us,
    x-major, shape (len(xs) * len(us), n, n), by sys.jacobian or else
    jacobian_fd.  A non-finite entry raises FloatingPointError naming its
    pair, and no numpy warning is raised."""
    jac = sys.jacobian or (lambda x, u: jacobian_fd(sys, x, u))
    pairs = [(x, u) for x in xs for u in us]
    with np.errstate(all="ignore"):
        J = np.array([jac(x, u) for x, u in pairs], dtype=float)
    bad = np.flatnonzero(~np.isfinite(J).all(axis=(1, 2)))
    if len(bad):
        x, u = pairs[bad[0]]
        raise FloatingPointError(f"state Jacobian non-finite at x={x}, u={u}")
    return J


def double_integrator(u_max: float = 1.0) -> ControlSystem:
    """Planar system x1' = x2, x2' = u with |u| <= u_max."""
    A = np.array([[0.0, 1.0], [0.0, 0.0]])

    def field(x, u):
        return np.concatenate((x[..., 1:], u), axis=-1)

    def jac(x, u):
        return A

    return ControlSystem(n=2, m=1, U=Box([0.0], [u_max]), field=field,
                         jacobian=jac, name="double_integrator")


def scalar_linear(a: float = 1.0, u_max: float = 2.0) -> ControlSystem:
    """Scalar system x' = a*x + u with |u| <= u_max."""

    def field(x, u):
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
