"""Test helpers: march a piecewise-constant input, and judge the sampled
states by the library's one recurrence rule (recurrence._recurrent)."""

import math

import numpy as np

from recurq.geometry import distance_many
from recurq.recurrence import _MEMBERSHIP_TOL, _longest_gap, _recurrent
from recurq.systems import march, time_grid


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
