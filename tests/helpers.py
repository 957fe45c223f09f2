"""Test helpers: march a piecewise-constant input, march the plain-way RK4
oracle, read a march's blow-up, judge the sampled states by the library's
one recurrence rule (recurrence._recurrent), audit windowed recurrence on
float distances, and size a minimum cover by brute force."""

import itertools
import math

import numpy as np

from recurq.geometry import distance_many
from recurq.recurrence import _MEMBERSHIP_TOL, _longest_gap, _recurrent
from recurq.systems import IntegrationBlowupError, march, time_grid


def march_held(sys, x0, values, segment_duration, horizon, dt):
    """(times, states) of RK4 from x0, one state (n,) or a batch (B, n),
    holding values[d] over segment d: an input (m,), or (B, m) with one
    per row.  Step k holds values[k // steps per segment], the last one
    past the end, so dt must divide the segment when the horizon passes
    its end.  A non-finite state raises IntegrationBlowupError."""
    values = np.asarray(values, dtype=float)
    steps = len(time_grid(segment_duration, dt)[0]) - 1
    states = march(sys.field, np.asarray(x0, dtype=float), dt, horizon,
                   lambda k, _: values[min(k // steps, len(values) - 1)],
                   finite_rows=slice(None))
    return time_grid(horizon, dt)[0], states


def check_finite_oracle(x, t):
    """A non-finite row of x at sample time t raises, as march's scan must
    report it: the first row whose absolute sum is not finite."""
    if math.isfinite(float(np.abs(x).sum())):
        return
    if x.ndim == 1:
        raise IntegrationBlowupError(t)
    bad = ~np.isfinite(np.abs(x).sum(axis=-1))
    if bad.any():
        raise IntegrationBlowupError(t, row=int(np.argmax(bad)))


def march_oracle(field, x0, dt, horizon, input_at, finite_rows=None):
    """RK4 over time_grid that allocates every stage and checks finiteness
    after every step: march's result and errors, computed the plain way."""
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
                    check_finite_oracle(x[finite_rows], times[k + 1])
                states[k + 1] = x
    return states


def outcome(fn, *args):
    """fn's result, or the (t, row) of the IntegrationBlowupError it
    raises."""
    try:
        return fn(*args)
    except IntegrationBlowupError as exc:
        return exc.t, exc.row


def judge(times, states, spec):
    """(ok, longest gap) of spec over [0, min(spec.T, times[-1])] per row of
    states (K+1, B, n), or one pair for (K+1, n): the samples within eps
    of Q, judged by _recurrent and measured by _longest_gap."""
    if times[-1] + 1e-9 < spec.T and math.isfinite(spec.T):
        raise ValueError("trajectory shorter than the requested horizon T")
    near = (distance_many(states, spec.Q).reshape(len(times), -1)
            <= spec.eps + _MEMBERSHIP_TOL)
    T = min(spec.T, float(times[-1]))
    pairs = list(zip(_recurrent(near, times, T, spec.tau).tolist(),
                     _longest_gap(near, times, T).tolist()))
    return pairs[0] if states.ndim == 2 else pairs


def brute_force_min_cover(feas):
    """The fewest rows of feas whose union covers every column, trying
    every subset by size; inf when a column has no True."""
    if not np.all(feas.any(axis=0)):
        return math.inf
    for size in range(1, feas.shape[0] + 1):
        for combo in itertools.combinations(range(feas.shape[0]), size):
            if np.all(feas[list(combo)].any(axis=0)):
                return size
    return math.inf


def windowed_recurrence_margin_oracle(times, dists, slacks, windows, starts,
                                      T_end):
    """verify_guarantees' recurrence margin on float distances: worst
    (gap - window) over the starts, start j's visits being the samples at
    or after it within slacks[j] + 1e-9 of Q; <= 0 passes."""
    worst = -math.inf
    for slack, window, t0 in zip(slacks, windows, starts):
        if T_end - t0 < window:
            continue
        k = int(np.searchsorted(times, t0 - 1e-12))
        visits = times[k:][dists[k:] <= slack + 1e-9]
        if len(visits) == 0:
            return math.inf
        # the head and the gaps between visits, then the tail
        gap = max(0.0, float(np.max(np.diff(visits, prepend=t0))))
        if visits[-1] < T_end - window - 1e-12:
            gap = max(gap, T_end - float(visits[-1]))
        worst = max(worst, gap - window)
    return worst
