"""Quantized sensing loop enforcing recurrence over logged bit strings.

A sensor quantizes the state on a shrinking grid, ships the cell index as
a fixed-width bit vector, and a mirrored controller reconstructs the same
cell, control segment, and next grid without ever seeing the state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Box, CompactSet, distance_many, grid
from .recurrence import _visit_gaps, estimate_L
from .systems import ControlSystem, march, time_grid

LN2 = math.log(2.0)

#: build_feedback_controller's sweep: grid spacing over Q, RK4 step and
#: horizon in taus; fixed, as verify rebuilds a controller from (Q, tau, eps)
_SWEEP_DELTA, _SWEEP_DT, _SWEEP_TAUS = 0.25, 0.01, 6.0
#: verify_guarantees' allowance on the tracking clause
_TRACKING_TOL = 1e-6


class ProtocolError(ValueError):
    """Bit vector inconsistent with the agreed grid size."""


class ControllerInvalidError(RuntimeError):
    """Feedback law failed its recurrence/return validation sweep."""


class GuaranteeViolationError(RuntimeError):
    """A run broke one of the loop's proven guarantees."""


class DeterminismError(RuntimeError):
    """Sensor and controller mirrors diverged; indicates a build bug."""


# --------------------------------------------------------------------------
# codec

def encode(index: int, cover_size: int) -> str:
    """Big-endian fixed-width bit string; width ceil(log2(cover_size))."""
    if cover_size < 1:
        raise ValueError("cover_size must be positive")
    if not 0 <= index < cover_size:
        raise ValueError(f"index {index} out of range [0, {cover_size})")
    width = (cover_size - 1).bit_length()
    return format(index, f"0{width}b") if width else ""


def decode(bits: str, cover_size: int) -> int:
    """Inverse of encode; rejects width mismatch and out-of-range values."""
    if cover_size < 1:
        raise ValueError("cover_size must be positive")
    width = (cover_size - 1).bit_length()
    if len(bits) != width:
        raise ProtocolError(f"expected {width} bits, got {len(bits)}")
    if bits and set(bits) - {"0", "1"}:
        raise ProtocolError(f"not a bit string: {bits!r}")
    index = int(bits, 2) if bits else 0
    if index >= cover_size:
        raise ProtocolError(f"decoded index {index} >= cover size {cover_size}")
    return index


# --------------------------------------------------------------------------
# reference controllers

def _saturated(sys: ControlSystem, feedback: Callable, x) -> np.ndarray:
    """feedback(x) clipped to the input box U."""
    # lo and hi have shape (m,), so a caller that stores the result in a
    # (B, m) row broadcasts a feedback returning one (m,) input to the batch
    return np.minimum(np.maximum(feedback(x), sys.U.lo), sys.U.hi)


def closed_loop(sys: ControlSystem, feedback: Callable, x0, duration: float,
                dt: float) -> tuple:
    """Simulate state feedback sampled and held at each step of march's grid.

    The steps have width dt, and the last is partial when dt does not
    divide duration, so the run ends at duration.  x0 is one state (n,) or
    a batch (B, n); a batch needs a field that indexes the last axis, and
    the field gets each step's stored (B, m) inputs even from a feedback
    that returns one (m,) input.  Returns (states, u_values) of shapes
    (K+1,) + x0.shape and (K,) + batch shape + (m,), K steps.  Controller
    validation and GridMirror.advance march through here; _march_tau_step
    applies the same clipped feedback to its fragment rows.
    """
    x0 = np.array(x0, dtype=float)
    times, _ = time_grid(duration, dt)
    u_values = np.empty((len(times) - 1,) + x0.shape[:-1] + (sys.m,))

    def held(k, x):
        u_values[k] = _saturated(sys, feedback, x)
        return u_values[k]

    return march(sys.field, x0, dt, duration, held), u_values


@dataclass
class RecurrenceController:
    """Validated return-to-Q feedback with its certification constants."""

    sys: ControlSystem
    tau: float
    feedback: Callable
    c_star: float
    eps_star: float
    L_tau: float
    max_visit_gap: float


def _excursion_tails(times, states, dists):
    """Return-phase samples of each excursion: (state, time-to-entry) pairs.

    Walks each excursion backward from its re-entry and keeps the suffix
    along which the distance is nonincreasing; only on that suffix is the
    monotone-return property meaningful.
    """
    out = []
    n = len(dists)
    k = 0
    while k < n:
        if dists[k] <= 1e-12:
            k += 1
            continue
        start = k
        while k < n and dists[k] > 1e-12:
            k += 1
        if k >= n:
            break  # excursion truncated by the horizon; skip it
        entry_t = times[k]
        j = k - 1
        # a rise of up to 1e-9 still counts as nonincreasing
        while j - 1 >= start and dists[j - 1] >= dists[j] - 1e-9:
            j -= 1
        for idx in range(j, k):
            out.append((states[idx].copy(), entry_t - times[idx]))
    return out


def build_feedback_controller(sys: ControlSystem, Q: CompactSet, tau: float,
                              eps: float, feedback: Callable) -> RecurrenceController:
    """Certify a feedback law by a closed-loop sweep from a grid over Q.

    Checks that every swept trajectory revisits Q within tau, that the
    return phase of every excursion has nonincreasing distance, and
    estimates the Lipschitz constant of the time-to-return map.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    box = Q.bounding_box()
    centers = grid(box, _SWEEP_DELTA).centers()
    centers = centers[[Q.contains(c, tol=1e-12) for c in centers]]
    horizon = _SWEEP_TAUS * tau
    # every grid state marched at once: (K+1, B, n)
    swept, _ = closed_loop(sys, feedback, centers, horizon, _SWEEP_DT)
    times, _ = time_grid(horizon, _SWEEP_DT)
    dists = distance_many(swept, Q)
    failures = []
    tails = []
    max_gap = 0.0
    for b, c in enumerate(centers):
        gaps, _ = _visit_gaps(times[dists[:, b] <= 1e-9], 0.0, horizon)
        gap = float(np.max(gaps))  # tail included; inf with no visit
        max_gap = max(max_gap, gap)
        if gap > tau + 2 * _SWEEP_DT:
            failures.append((c, gap))
        tails.extend(_excursion_tails(times, swept[:, b], dists[:, b]))
    if failures:
        raise ControllerInvalidError(
            f"{len(failures)} grid states break tau-recurrence under the "
            f"feedback (worst gap {max(g for _, g in failures):.4g} > "
            f"tau={tau}); first: {failures[0][0]}")

    # Lipschitz constant of the time-to-return map from return-phase pairs
    c_star = 0.0
    if len(tails) >= 2:
        if len(tails) > 400:
            stride = len(tails) // 400 + 1
            tails = tails[::stride]
        pts = np.array([t[0] for t in tails])
        tts = np.array([t[1] for t in tails])
        seps = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=-1)
        dtt = np.abs(tts[:, None] - tts[None, :])
        mask = seps > max(4.0 * _SWEEP_DT, 1e-3)
        if mask.any():
            c_star = float(np.max(dtt[mask] / seps[mask]))

    reached = np.vstack((box.lo, box.hi, swept.reshape(-1, sys.n)))
    lo, hi = reached.min(axis=0) - eps, reached.max(axis=0) + eps
    # Python floats overflow to inf without numpy's warning
    if not all(math.isfinite(h - l) for l, h in zip(lo.tolist(), hi.tolist())):
        raise ValueError(f"eps={eps} leaves the validation envelope unbounded")
    return RecurrenceController(sys=sys, tau=tau, feedback=feedback,
                                c_star=c_star, eps_star=eps,
                                L_tau=estimate_L(sys, Box.from_bounds(lo, hi)),
                                max_visit_gap=max_gap)


def reference_controller_double_integrator(Q: CompactSet, tau: float,
                                           eps: float) -> RecurrenceController:
    """Saturated linear feedback u = clip(-x1 - 1.5*x2) for x'' = u.

    The feedback accepts one state (n,) or a batch (B, n).  Validated by
    build_feedback_controller's fixed sweep, (Q, tau, eps) name it
    completely.
    """
    from .systems import double_integrator
    if not 2.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and at least 2, not {tau}: the "
                         "double integrator's unit box is not recurrent for "
                         "shorter windows")
    sys = double_integrator()

    def feedback(x):
        if x.ndim == 1:  # scalar arithmetic is cheaper for a single state
            return np.array((min(1.0, max(-1.0, -x[0] - 1.5 * x[1])),))
        # fmin/fmax pass NaN over exactly as Python's min/max do above
        v = np.fmin(1.0, np.fmax(-1.0, -x[..., 0] - 1.5 * x[..., 1]))
        return v[..., None]

    return build_feedback_controller(sys, Q, tau, eps, feedback)


# --------------------------------------------------------------------------
# mirrored grid state

class GridMirror:
    """The grid/ball state both endpoints evolve in lockstep.

    Sensor and controller each own one instance; every update runs through
    this single code path so the two stay float-for-float identical.
    """

    def __init__(self, controller: RecurrenceController, S0: Box, eps: float,
                 tau: float, alpha: float, dt: float):
        self.controller = controller
        self.tau = tau
        self.alpha = alpha
        self.dt = dt
        self.granularity_factor = math.exp(-(controller.L_tau + alpha) * tau)
        self.r = eps
        self.S = S0
        self.C = grid(S0, eps * self.granularity_factor)
        self.i = 0

    def advance(self, index: int) -> tuple:
        """Consume a cell index; return (q, u_values, fragment_states)."""
        q = self.C.center(index)
        frag, u_values = closed_loop(self.controller.sys,
                                     self.controller.feedback,
                                     q, self.tau, self.dt)
        self.step_to(frag[-1])
        return q, u_values, frag

    def step_to(self, frag_end: np.ndarray):
        """Center the next ball on the fragment's end and shrink the grid.

        advance() calls this with its own fragment; batched episodes march
        the fragments of many mirrors together and then call it per mirror.
        """
        r_next = self.r * math.exp(-self.alpha * self.tau)
        S_next = Box(frag_end, np.full(self.C.dim, r_next))
        self.r = r_next
        self.S = S_next
        self.C = grid(S_next, r_next * self.granularity_factor)
        self.i += 1

    def record(self, x: np.ndarray) -> StepRecord:
        """What the sensor logs on sensing x: its cell, bits and this state."""
        q, index = self.C.quantize(x)
        return StepRecord(i=self.i, x=x, q=q, index=index,
                          bits=encode(index, self.C.size),
                          cover_size=self.C.size, r=self.r,
                          S_center=self.S.center, S_radius=self.S.radius)

    def state_signature(self) -> tuple:
        return (self.i, self.r, tuple(self.S.center), tuple(self.S.radius),
                self.C.counts, tuple(self.C.first))


# --------------------------------------------------------------------------
# episodes

@dataclass(frozen=True)
class StepRecord:
    i: int
    x: np.ndarray
    q: np.ndarray
    index: int
    bits: str
    cover_size: int
    r: float
    S_center: np.ndarray
    S_radius: np.ndarray


@dataclass
class EpisodeLog:
    """Complete trace of one quantized-control episode."""

    config: dict
    steps: list
    frag_states: list     # per step: (K+1, n) closed-loop fragment from q_i
    plant_states: list    # per step: (K+1, n) true trajectory from x_i

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def total_bits(self) -> int:
        """Bits the sensor sent: the sum of the logged widths."""
        return sum(len(s.bits) for s in self.steps)

    def hat_trajectory(self) -> tuple:
        """(times, states) of the concatenated fragments."""
        return _concat(self.frag_states, self.config["tau"], self.config["dt"])

    def plant_trajectory(self) -> tuple:
        return _concat(self.plant_states, self.config["tau"], self.config["dt"])

    def bits_until(self, T: float) -> int:
        """Bits sent at sensing instants i*tau <= T."""
        tau = self.config["tau"]
        return sum(len(s.bits) for s in self.steps if s.i * tau <= T + 1e-9)

    def to_jsonl(self, path: str):
        with open(path, "w") as fh:
            header = {"type": "header", "total_bits": self.total_bits,
                      **_jsonable(self.config)}
            fh.write(json.dumps(header) + "\n")
            for s in self.steps:
                fh.write(json.dumps({
                    "type": "step", "i": s.i, "x": list(s.x), "q": list(s.q),
                    "index": s.index, "bits": s.bits,
                    "cover_size": s.cover_size, "r": s.r,
                    "S_center": list(s.S_center),
                    "S_radius": list(s.S_radius)}) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _concat(fragments: list, tau: float, dt: float) -> tuple:
    """(times, states) of tau-step segments, each on march's grid to tau."""
    times, _ = time_grid(tau, dt)
    return (np.concatenate([i * tau + times for i in range(len(fragments))]),
            np.vstack(fragments))


def _step_record(rec: dict) -> StepRecord:
    """A step record, each field checked for its JSON type."""
    fields = {key: rec[key] for key in StepRecord.__dataclass_fields__}
    for key, types in (("i", (int,)), ("index", (int,)), ("bits", (str,)),
                       ("cover_size", (int,)), ("r", (int, float))):
        if type(fields[key]) not in types:  # a bool is not an int here
            raise ValueError(f"{key} is not of type {types[-1].__name__}")
    for key in ("x", "q", "S_center", "S_radius"):
        value = fields[key]
        if type(value) is list and all(type(v) in (int, float) for v in value):
            fields[key] = value = np.array(value, dtype=float)
        if not isinstance(value, np.ndarray) or not np.isfinite(value).all():
            raise ValueError(f"{key} is not a list of finite numbers")
    return StepRecord(**fields)


def load_step_records(path: str) -> tuple:
    """Parse a JSONL episode log into (config, [StepRecord]) of checked types.

    A step field of the wrong type, or state vectors of unequal lengths,
    raise ValueError.
    """
    config = None
    steps = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"malformed log record {lineno}: {exc}") from exc
            if not isinstance(rec, dict):
                raise ValueError(
                    f"malformed log record {lineno}: not a JSON object")
            if rec.get("type") == "header":
                config = {k: v for k, v in rec.items() if k != "type"}
            elif rec.get("type") == "step":
                try:
                    steps.append(_step_record(rec))
                except KeyError as exc:
                    raise ValueError(
                        f"malformed log record {lineno}: missing {exc}") from exc
                except (OverflowError, ValueError) as exc:
                    raise ValueError(
                        f"malformed log record {lineno}: {exc}") from exc
            else:
                raise ValueError(f"malformed log record {lineno}: unknown type")
    if config is None:
        raise ValueError("log has no header record")
    if len({len(v) for s in steps
            for v in (s.x, s.q, s.S_center, s.S_radius)}) > 1:
        raise ValueError("step records hold state vectors of unequal lengths")
    return config, steps


def _march_tau_step(sys: ControlSystem, feedback: Callable,
                    frags0: np.ndarray, plants0: np.ndarray, tau: float,
                    dt: float) -> tuple:
    """One tau step of F fragments and P <= F plant segments in one march.

    All F + P rows march to tau on march's grid, so fragments and plant
    segments share one time axis ending at tau, with a partial last step
    when dt does not divide tau.  The fragments are held at the clipped
    feedback, as in closed_loop; plant row j is held at fragment j's input,
    as in integrate of closed_loop's inputs.  A non-finite plant state
    raises IntegrationBlowupError naming its row.  Returns (frags, plants),
    shapes (K+1, F, n) and (K+1, P, n).
    """
    F, P = len(frags0), len(plants0)
    u = np.empty((F + P, sys.m))

    def held(k, x):
        u[:F] = _saturated(sys, feedback, x[:F])
        u[F:] = u[:P]
        return u

    states = march(sys.field, np.concatenate((frags0, plants0)), dt, tau,
                   held, finite_rows=slice(F, None))
    return states[:, :F], states[:, F:]


def replay(controller: RecurrenceController, config: dict,
           steps: list) -> EpisodeLog:
    """An EpisodeLog of logged steps, its trajectories recomputed at once.

    Fragment i is marched from the logged q_i and plant segment i from the
    logged x_i, all N steps in one _march_tau_step at config's dt, each
    to tau on march's grid, as run_episodes marched them.  By
    induction over i this equals the sequential run that wrote the log,
    once the log's links hold (x_{i+1} is the end of plant segment i, and
    q_{i+1} quantizes it on the grid centred on fragment i's end): step i
    of run_episodes marches the same two rows from the same q_i and x_i
    through _march_tau_step, and march's rows never mix.
    """
    frags, plants = _march_tau_step(
        controller.sys, controller.feedback, np.array([s.q for s in steps]),
        np.array([s.x for s in steps]), controller.tau, config["dt"])
    return EpisodeLog(config=config, steps=list(steps),
                      frag_states=list(frags.transpose(1, 0, 2)),
                      plant_states=list(plants.transpose(1, 0, 2)))


def run_episode(sys: ControlSystem, Q: CompactSet,
                controller: RecurrenceController, x0, eps: float, tau: float,
                alpha: float, steps: int, dt: float,
                seed: int = 0) -> EpisodeLog:
    """Run Algorithm-style sensing/quantization for a fixed number of steps."""
    return run_episodes(sys, Q, controller, [x0], eps, tau, [alpha], steps,
                        dt, seeds=[seed])[0]


def run_episodes(sys: ControlSystem, Q: CompactSet,
                 controller: RecurrenceController, x0s, eps: float,
                 tau: float, alphas, steps: int, dt: float,
                 seeds=None) -> list:
    """Run B episodes in lockstep, one tau step at a time.

    Episode b starts at x0s[b] with contraction rate alphas[b] and logs
    seeds[b] (default b).  Quantizing, the codec and each mirror's
    grid/ball update stay per episode.  Each tau step marches one
    (3B, n) batch through _march_tau_step: the B sensor fragments from the
    quantized centres, the B receiver fragments from the receivers' own
    decoded centres (recomputed, not copied, so the mirror comparison
    checks two computations), and the B plant segments, each held at its
    sensor's input.  Rows never mix, so every log is float-identical to a
    run of its episode alone.  Returns one EpisodeLog per episode.
    """
    x0s = np.array(x0s, dtype=float)
    alphas = list(alphas)
    seeds = list(range(len(x0s))) if seeds is None else list(seeds)
    if x0s.ndim != 2 or x0s.shape[1] != sys.n:
        raise ValueError(f"x0s must have shape (B, {sys.n})")
    if not len(x0s) == len(alphas) == len(seeds):
        raise ValueError("x0s, alphas and seeds must have one entry per episode")
    if len(Q.boxes) != 1:
        raise ValueError("episodes need Q given as a single box")
    if not (0 < eps <= controller.eps_star + 1e-12):
        raise ValueError(f"eps must lie in (0, {controller.eps_star}]")
    if abs(tau - controller.tau) > 1e-12:
        raise ValueError("tau must match the validated controller")
    if not 0 < dt <= tau:
        raise ValueError(f"dt must lie in (0, tau={tau}]")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, not {steps}")
    for b, (x0, alpha) in enumerate(zip(x0s, alphas)):
        if not 0 <= alpha < math.inf:
            raise ValueError(f"episode {b}: alpha must be finite and "
                             f"nonnegative, not {alpha}")
        if not Q.contains(x0, tol=1e-12):
            raise ValueError(f"episode {b}: x0 must lie in Q")

    B = len(x0s)
    box = Q.boxes[0]
    sensors = [GridMirror(controller, box, eps, tau, a, dt) for a in alphas]
    receivers = [GridMirror(controller, box, eps, tau, a, dt) for a in alphas]
    logs = []
    for x0, alpha, seed in zip(x0s, alphas, seeds):
        config = {"system": sys.name, "Q_center": box.center,
                  "Q_radius": box.radius, "eps": eps, "tau": tau,
                  "alpha": alpha, "L_tau": controller.L_tau,
                  "c_star": controller.c_star, "dt": dt, "steps": steps,
                  "seed": seed, "x0": x0}
        logs.append(EpisodeLog(config=config, steps=[], frag_states=[],
                               plant_states=[]))

    X = x0s.copy()
    Q_s = np.empty_like(X)
    Q_c = np.empty_like(X)
    for i in range(steps):
        for b in range(B):
            S_i, x = sensors[b].S, X[b]
            if not S_i.contains(x, tol=1e-9):
                raise GuaranteeViolationError(
                    f"episode {b} step {i}: sensed state {x} outside S_{i} "
                    f"(center {S_i.center}, radius {S_i.radius[0]:.6g}); "
                    f"violates x_i in S_i")
            record = sensors[b].record(x.copy())
            rx_index = decode(record.bits, receivers[b].C.size)
            Q_s[b] = record.q
            Q_c[b] = receivers[b].C.center(rx_index)
            logs[b].steps.append(record)

        mirrors, plant = _march_tau_step(
            sys, controller.feedback, np.concatenate((Q_s, Q_c)), X, tau, dt)
        for b in range(B):
            frag = mirrors[:, b].copy()
            sensors[b].step_to(frag[-1])
            receivers[b].step_to(mirrors[-1, B + b].copy())
            if sensors[b].state_signature() != \
                    receivers[b].state_signature() or \
                    not np.array_equal(Q_s[b], Q_c[b]):
                raise DeterminismError(
                    f"episode {b} step {i}: sensor and controller mirrors "
                    f"diverged")
            logs[b].frag_states.append(frag)
            logs[b].plant_states.append(plant[:, b].copy())
        X = plant[-1].copy()
    return logs


# --------------------------------------------------------------------------
# rate accounting and guarantee verification

@dataclass(frozen=True)
class BitRateReport:
    measured_rate: float          # total_bits / (steps * tau)
    steady_bits_per_step: int
    steady_rate: float            # steady_bits_per_step / tau
    asymptote: float              # n * (L_tau + alpha) / ln 2
    ceiling_gap: float            # steady_rate - asymptote
    first_step_bits: int


def steady_state_cover_size(n: int, L_tau: float, alpha: float,
                            tau: float) -> int:
    """ceil(exp((L+alpha)*tau))^n, the post-transient grid size."""
    return int(math.ceil(math.exp((L_tau + alpha) * tau))) ** n


def bit_rate(log: EpisodeLog) -> BitRateReport:
    """Average and steady-state bit rates of an episode."""
    if log.n_steps < 10:
        raise ValueError("rate accounting needs at least 10 steps")
    tau = log.config["tau"]
    widths = [len(s.bits) for s in log.steps]
    steady = widths[1:]
    if len(set(steady)) != 1:
        raise RuntimeError(f"non-constant steady-state widths: {sorted(set(steady))}")
    n = len(log.steps[0].x)
    asymptote = n * (log.config["L_tau"] + log.config["alpha"]) / LN2
    steady_rate = steady[0] / tau
    return BitRateReport(measured_rate=log.total_bits / (log.n_steps * tau),
                         steady_bits_per_step=steady[0],
                         steady_rate=steady_rate, asymptote=asymptote,
                         ceiling_gap=steady_rate - asymptote,
                         first_step_bits=widths[0])


@dataclass(frozen=True)
class ClauseResult:
    passed: bool
    worst_margin: float
    detail: str = ""


@dataclass(frozen=True)
class GuaranteeReport:
    state_in_ball: ClauseResult       # x_i in S_i
    tracking: ClauseResult            # ||hat - true|| <= eps * exp(-alpha t)
    hat_recurrent: ClauseResult       # windowed recurrence of the fragments
    true_recurrent: ClauseResult      # same for the plant, doubled slack

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in (self.state_in_ball, self.tracking,
                                      self.hat_recurrent, self.true_recurrent))


def _windowed_recurrence_margin(times, dists, slacks, windows, starts,
                                T_end) -> float:
    """Worst (gap - window) over the per-start recurrence checks; <=0 passes."""
    worst = -math.inf
    for slack, window, t0 in zip(slacks, windows, starts):
        if T_end - t0 < window:
            continue
        k = int(np.searchsorted(times, t0 - 1e-12))
        visits = times[k:][dists[k:] <= slack + 1e-9]
        if len(visits) == 0:
            return math.inf
        gaps, _ = _visit_gaps(visits, t0, T_end)
        gap = max(0.0, float(np.max(gaps[:-1])))
        if visits[-1] < T_end - window - 1e-12:
            gap = max(gap, float(gaps[-1]))
        worst = max(worst, gap - window)
    return worst


def verify_guarantees(log: EpisodeLog) -> GuaranteeReport:
    """Offline check of the tracking, containment-ball, and recurrence claims."""
    cfg = log.config
    eps, tau, alpha = cfg["eps"], cfg["tau"], cfg["alpha"]
    L, c_star = cfg["L_tau"], cfg["c_star"]
    Q = CompactSet.box(cfg["Q_center"], cfg["Q_radius"])

    # (a) sensed state inside the predicted ball
    worst_a = -math.inf
    detail_a = ""
    for s in log.steps:
        margin = float(np.max(np.abs(s.x - s.S_center) - s.S_radius))
        if margin > worst_a:
            worst_a, detail_a = margin, f"step {s.i}"
    clause_a = ClauseResult(worst_a <= 1e-9, worst_a, detail_a)

    # (b) tracking envelope between fragment and plant trajectories
    t_hat, x_hat = log.hat_trajectory()
    t_pl, x_pl = log.plant_trajectory()
    diffs = np.max(np.abs(x_hat - x_pl), axis=1)
    envelope = eps * np.exp(-alpha * t_hat)
    worst_b = float(np.max(diffs - envelope))
    clause_b = ClauseResult(worst_b <= _TRACKING_TOL, worst_b)

    # (c)/(d) windowed recurrence with geometrically shrinking slack
    d_hat = distance_many(x_hat, Q)
    d_pl = distance_many(x_pl, Q)
    idx = np.arange(log.n_steps)
    slacks = eps * np.exp(-idx * alpha * tau)
    windows = tau + c_star * eps * np.exp(-(idx * alpha + L) * tau)
    starts = idx * tau
    T_end = log.n_steps * tau
    worst_c = _windowed_recurrence_margin(t_hat, d_hat, slacks, windows,
                                          starts, T_end)
    worst_d = _windowed_recurrence_margin(t_pl, d_pl, 2.0 * slacks, windows,
                                          starts, T_end)
    clause_c = ClauseResult(worst_c <= 1e-9, worst_c)
    clause_d = ClauseResult(worst_d <= 1e-9, worst_d)
    return GuaranteeReport(state_in_ball=clause_a, tracking=clause_b,
                           hat_recurrent=clause_c, true_recurrent=clause_d)
