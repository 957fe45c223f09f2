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

from .geometry import Box, distance_many, grid
from .recurrence import _longest_gap, estimate_L
from .systems import ControlSystem, double_integrator, march, time_grid

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

def _closed_loop(sys: ControlSystem, feedback: Callable, frags0: np.ndarray,
                 plants0: np.ndarray, duration: float, dt: float) -> tuple:
    """F fragments and P <= F plant segments of the closed loop in one march.

    All F + P rows march to duration on march's grid, so fragments and
    plant segments share one time axis (a partial last step when dt does
    not divide duration).  The fragments are held at the feedback clipped
    to U, every feedback's one saturation (NaN passes as NaN), and plant
    row j at fragment j's input, so P > F raises ValueError.  A non-finite
    plant state raises IntegrationBlowupError naming its row; controller
    validation passes no plant rows.  Returns (frags, plants), shapes
    (K+1, F, n) and (K+1, P, n).
    """
    F, P = len(frags0), len(plants0)
    if P > F:
        raise ValueError(f"{P} plant rows need as many fragments, not {F}")
    u = np.empty((F + P, sys.m))
    lo, hi = np.full((F, sys.m), sys.U.lo), np.full((F, sys.m), sys.U.hi)
    u_frags, u_plants, u_held = u[:F], u[F:], u[:P]

    def held(k, x):
        # lo, hi are (F, m), so only an (m,) feedback's input broadcasts
        np.minimum(np.maximum(feedback(x[:F]), lo, out=u_frags), hi,
                   out=u_frags)
        u_plants[...] = u_held
        return u

    states = march(sys.field, np.concatenate((frags0, plants0)), dt,
                   duration, held, finite_rows=slice(F, None))
    return states[:, :F], states[:, F:]


@dataclass
class RecurrenceController:
    """Validated return-to-Q feedback with its certification constants."""

    sys: ControlSystem
    Q: Box
    tau: float
    feedback: Callable
    c_star: float
    eps_star: float
    L_tau: float
    max_visit_gap: float

    def _check_run(self, Q: Box, eps: float, tau: float, dt: float, alphas):
        """Refuse an unvalidated Q, eps or tau, a bad dt or alpha."""
        if not (np.array_equal(Q.center, self.Q.center)
                and np.array_equal(Q.radius, self.Q.radius)):
            raise ValueError("Q must match the validated controller")
        if not (0 < eps <= self.eps_star + 1e-12):
            raise ValueError(f"eps must lie in (0, {self.eps_star}]")
        if tau != self.tau:
            raise ValueError("tau must match the validated controller")
        if not 0 < dt <= tau:
            raise ValueError(f"dt must lie in (0, tau={tau}]")
        for b, alpha in enumerate(alphas):
            if not 0 <= alpha < math.inf:
                raise ValueError(f"episode {b}: alpha must be finite and "
                                 f"nonnegative, not {alpha}")


def _excursion_tails(times, states, dists):
    """Return-phase samples of every excursion: (states, times to entry).

    Keeps the suffix of each excursion of the batch dists (K+1, B) along
    which the distance is nonincreasing (a rise of up to 1e-9 counts, NaN
    ends it), and nothing of one the horizon cuts off; only on that suffix
    is the monotone-return property meaningful.  Row by row, in time order.
    """
    last = len(dists)
    idx = np.arange(last)[:, None]

    def next_at(mask):  # index of the first True at or after each sample
        return np.minimum.accumulate(np.where(mask, idx, last)[::-1])[::-1]

    entry = next_at(dists <= 1e-12)
    rise = np.ones(dists.shape, dtype=bool)  # dists[j + 1] > dists[j] + 1e-9
    rise[:-1] = ~(dists[:-1] >= dists[1:] - 1e-9)
    keep = (dists > 1e-12) & (entry < last) & (next_at(rise) >= entry - 1)
    k, b = np.nonzero(keep.T)[::-1]
    return states[k, b], times[entry[k, b]] - times[k]


def build_feedback_controller(sys: ControlSystem, Q: Box, tau: float,
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
    centers = grid(Q, _SWEEP_DELTA).centers()
    horizon = _SWEEP_TAUS * tau
    # every grid state marched at once, with no plant rows: (K+1, B, n)
    swept, _ = _closed_loop(sys, feedback, centers, centers[:0], horizon,
                            _SWEEP_DT)
    times, _ = time_grid(horizon, _SWEEP_DT)
    dists = distance_many(swept, Q)
    # each row's longest gap, tail included; inf with no visit
    gaps = _longest_gap(dists <= 1e-9, times, horizon)
    failed = np.flatnonzero(gaps > tau + 2 * _SWEEP_DT)
    if len(failed):
        raise ControllerInvalidError(
            f"{len(failed)} grid states break tau-recurrence under the "
            f"feedback (worst gap {np.max(gaps[failed]):.4g} > "
            f"tau={tau}); first: {centers[failed[0]]}")

    # Lipschitz constant of the time-to-return map from return-phase pairs
    pts, tts = _excursion_tails(times, swept, dists)
    stride = len(tts) // 400 + 1 if len(tts) > 400 else 1
    pts, tts = pts[::stride], tts[::stride]
    c_star = 0.0
    if len(tts) >= 2:
        seps = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=-1)
        dtt = np.abs(tts[:, None] - tts[None, :])
        mask = seps > max(4.0 * _SWEEP_DT, 1e-3)
        if mask.any():
            c_star = float(np.max(dtt[mask] / seps[mask]))

    reached = np.vstack((Q.lo, Q.hi, swept.reshape(-1, sys.n)))
    lo, hi = reached.min(axis=0) - eps, reached.max(axis=0) + eps
    # Python floats overflow to inf without numpy's warning
    if not all(math.isfinite(h - l) for l, h in zip(lo.tolist(), hi.tolist())):
        raise ValueError(f"eps={eps} leaves the validation envelope unbounded")
    return RecurrenceController(sys=sys, Q=Q, tau=tau, feedback=feedback,
                                c_star=c_star, eps_star=eps,
                                L_tau=estimate_L(sys, Box((lo + hi) / 2.0,
                                                          (hi - lo) / 2.0)),
                                max_visit_gap=float(np.max(gaps, initial=0.0)))


def reference_controller_double_integrator(Q: Box, tau: float,
                                           eps: float) -> RecurrenceController:
    """Linear feedback u = -x1 - 1.5*x2 for x'' = u, saturated by _closed_loop.

    The feedback accepts one state (n,) or a batch (B, n).  Validated by
    build_feedback_controller's fixed sweep, (Q, tau, eps) name it
    completely.
    """
    if not 2.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and at least 2, not {tau}: the "
                         "double integrator's unit box is not recurrent for "
                         "shorter windows")
    sys = double_integrator()

    gain = np.array(-1.5)  # 0-d: a ufunc converts a Python float every call

    def feedback(x):
        # -1.5*x2 - x1 rounds as -x1 - 1.5*x2 does, with one ufunc fewer
        return (gain * x[..., 1] - x[..., 0])[..., None]

    return build_feedback_controller(sys, Q, tau, eps, feedback)


# --------------------------------------------------------------------------
# mirrored grid state

class GridMirror:
    """The grid/ball state both endpoints evolve in lockstep.

    Sensor and controller each own one instance; every update runs through
    this single code path so the two stay float-for-float identical.
    """

    def __init__(self, controller: RecurrenceController, eps: float,
                 alpha: float):
        tau, self.S = controller.tau, controller.Q  # the first ball is Q
        self.granularity_factor = math.exp(-(controller.L_tau + alpha) * tau)
        self.shrink = math.exp(-alpha * tau)  # of the ball, per step
        self.r = eps
        self.C = grid(self.S, eps * self.granularity_factor)
        self.i = 0

    def step_to(self, frag_end: np.ndarray):
        """Center the next ball on the fragment's end and shrink the grid.

        The fragment is the closed loop from this step's cell center over
        tau; callers march the fragments of many mirrors together and then
        call this per mirror.
        """
        r_next = self.r * self.shrink
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
    """One episode's records and what verify_guarantees reads of its
    trajectories, which replay from the records through the controller."""

    config: dict
    steps: list
    terms: list           # per step: its _audit_terms
    controller: RecurrenceController    # not serialized

    @property
    def total_bits(self) -> int:
        """Bits the sensor sent: the sum of the logged widths."""
        return sum(len(s.bits) for s in self.steps)

    def trajectories(self) -> tuple:
        """(times, hat, plant): the concatenated fragments and plant
        segments, replayed in one march from the logged q_i and x_i."""
        c, dt = self.controller, self.config["dt"]
        q, x = (np.array([getattr(s, k) for s in self.steps]) for k in "qx")
        frags, plants = _closed_loop(c.sys, c.feedback, q, x, c.tau, dt)
        return (_time_axis(len(self.steps), c.tau, dt),
                np.concatenate(frags.swapaxes(0, 1)),
                np.concatenate(plants.swapaxes(0, 1)))

    def to_jsonl(self, path: str):
        with open(path, "w") as fh:
            header = {"type": "header", "total_bits": self.total_bits,
                      **self.config}
            fh.write(json.dumps(header) + "\n")
            for s in self.steps:
                fh.write(json.dumps({"type": "step", **{
                    k: v.tolist() if isinstance(v, np.ndarray) else v
                    for k, v in vars(s).items()}}) + "\n")


def _time_axis(n_steps: int, tau: float, dt: float) -> np.ndarray:
    """Sample times of n_steps tau-step segments, each on march's grid."""
    times, _ = time_grid(tau, dt)
    return np.concatenate([i * tau + times for i in range(n_steps)])


def _levels(dists: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Each sample's visit level, in the smallest int that holds it: the
    last start j whose threshold admits its distance, or -1 (NaN too).
    thresholds[j] must not increase with j, as for any alpha >= 0."""
    return (len(thresholds) - 1 - np.searchsorted(thresholds[::-1], dists)
            ).astype(np.min_scalar_type(-len(thresholds)))


def _audit_terms(frags, plants, controller: RecurrenceController, eps: float,
                 dt: float, steps: int, rows: list) -> list:
    """What verify_guarantees reads of row r of the (K+1, R, n) fragments
    and plant segments, tau step i of a run with (i, alpha) = rows[r]: the
    levels for slack_j + 1e-9 and (plant) 2*slack_j + 1e-9, slack_j =
    eps*exp(-j*alpha*tau), j < steps, and max |hat - x| - eps*exp(-alpha*t)."""
    Q, tau = controller.Q, controller.tau
    times, _ = time_grid(tau, dt)
    slack = {a: eps * np.exp(-np.arange(steps) * a * tau) for _, a in rows}
    d_hat, d_pl = distance_many(frags, Q), distance_many(plants, Q)
    # |hat - x| in the max norm is its distance to the box {0}
    gaps = distance_many(frags - plants, Box(np.zeros(Q.dim), np.zeros(Q.dim)))
    # per row: np.exp's last bit may depend on its input's memory layout
    return [(_levels(d_hat[:, r], slack[alpha] + 1e-9),
             _levels(d_pl[:, r], 2.0 * slack[alpha] + 1e-9), float(np.max(
                 gaps[:, r] - eps * np.exp(-alpha * (i * tau + times)))))
            for r, (i, alpha) in enumerate(rows)]


#: the JSON type of each checked field of a log record
_STEP_TYPES = {"i": int, "x": list, "q": list, "index": int, "bits": str,
               "cover_size": int, "r": float, "S_center": list,
               "S_radius": list}
_HEADER_TYPES = {"steps": int, "total_bits": int, "eps": float, "tau": float,
                 "alpha": float, "dt": float, "L_tau": float, "c_star": float,
                 "Q_center": list, "Q_radius": list, "x0": list, "seed": int,
                 "system": str}


def _typed(rec: dict, types: dict) -> dict:
    """rec, once each field named in types holds its JSON type: an int
    (not a bool), a str, a dict, a number (made a float; an int too large
    for one is refused) or a list of finite numbers (made floats)."""
    for key, kind in types.items():
        if key not in rec:
            raise ValueError(f"missing {key!r}")
        value = rec[key]
        try:
            if kind is list and type(value) is list:
                ok = all(type(v) in (int, float) and math.isfinite(v)
                         for v in value)
                if ok:
                    rec[key] = [float(v) for v in value]
            elif kind is float and type(value) in (int, float):
                rec[key], ok = float(value), True
            else:
                ok = type(value) is kind
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"{key} is not " + ("a list of finite numbers"
                             if kind is list else f"of type {kind.__name__}"))
    return rec


def load_step_records(path: str) -> tuple:
    """Parse a JSONL episode log into (header, [StepRecord]) of checked types.

    The header is the run's config, vectors as lists, plus total_bits.  The
    first record must be the header and every later one a step, as
    EpisodeLog.to_jsonl writes them.  A record of another type, a missing,
    mistyped or unknown field, no step record, or vectors of unequal
    lengths (Q_center, Q_radius and x0 among them) raise ValueError.
    """
    header = None
    steps = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            want, types = (("header", _HEADER_TYPES) if header is None
                           else ("step", _STEP_TYPES))
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("not a JSON object")
                if rec.get("type") != want:
                    raise ValueError("the first record must be the header"
                                     if header is None else "only step "
                                     "records may follow the header")
                unknown = set(rec) - set(types) - {"type"}
                if unknown:  # the first in sorted order
                    raise ValueError(f"unknown key {min(unknown)!r}; a "
                                     f"{want}'s keys are type, "
                                     f"{', '.join(types)}")
                _typed(rec, types)
                if header is None:
                    header = rec
                    del header["type"]
                else:
                    steps.append(StepRecord(**{
                        k: np.array(rec[k], dtype=float) if kind is list
                        else rec[k] for k, kind in _STEP_TYPES.items()}))
            except ValueError as exc:  # JSONDecodeError among them
                raise ValueError(
                    f"malformed log record {lineno}: {exc}") from exc
    if header is None or not steps:
        raise ValueError(f"log has no {'step' if header else 'header'} record")
    vectors = [header["Q_center"], header["Q_radius"], header["x0"]] + [
        v for s in steps for v in (s.x, s.q, s.S_center, s.S_radius)]
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("Q_center, Q_radius, x0 and the step records hold "
                         "state vectors of unequal lengths")
    return header, steps


def replay(controller: RecurrenceController, header: dict,
           steps: list) -> tuple:
    """Re-run a logged episode and check its links: (EpisodeLog, failures).

    header and steps are a log's (load_step_records).  A Q, tau or eps
    that the controller was not validated for, or a dt or alpha it cannot
    run, raises ValueError with run_episodes' message.  All N steps march
    in one _closed_loop, fragment i from the logged q_i and plant segment
    i from x_i, as run_episodes marched them.  failures name, in order, a
    step count, total_bits, L_tau or c_star that the header gets wrong,
    and each step whose record a fresh GridMirror does not reproduce from
    x0 and the ends of the plant segments and fragments.  With none, by
    induction over i the log is the run that wrote it, as march's rows
    never mix.  The log's config takes the controller's L_tau and c_star,
    and not total_bits, which the log sums from its widths.
    """
    eps, alpha, dt = header["eps"], header["alpha"], header["dt"]
    controller._check_run(Box(header["Q_center"], header["Q_radius"]), eps,
                          header["tau"], dt, [alpha])
    frags, plants = _closed_loop(
        controller.sys, controller.feedback, np.array([s.q for s in steps]),
        np.array([s.x for s in steps]), controller.tau, dt)
    config = {k: v for k, v in header.items() if k != "total_bits"}
    config.update(L_tau=controller.L_tau, c_star=controller.c_star)
    mirror = GridMirror(controller, eps, alpha)
    log = EpisodeLog(config, list(steps), _audit_terms(
        frags, plants, controller, eps, dt, len(steps),
        [(i, alpha) for i in range(len(steps))]), controller)
    failures = []
    if len(steps) != header["steps"]:
        failures.append(f"log holds {len(steps)} step records, header says "
                        f"{header['steps']}")
    if log.total_bits != header["total_bits"]:
        failures.append(f"header total_bits {header['total_bits']} != "
                        f"{log.total_bits}, the sum of the bit widths")
    if any(header[k] != config[k] for k in ("L_tau", "c_star")):
        failures.append("header L_tau and c_star differ from the rebuilt "
                        "controller's")
    for k, s in enumerate(steps):
        want = mirror.record(plants[-1, k - 1] if k else header["x0"])
        wrong = [key for key in StepRecord.__dataclass_fields__
                 if not np.array_equal(getattr(s, key), getattr(want, key))]
        if wrong:
            failures.append(f"step {k}: the re-run disagrees on "
                            f"{', '.join(wrong)}")
        mirror.step_to(frags[-1, k])
    return log, failures


def run_episodes(sys: ControlSystem, Q: Box,
                 controller: RecurrenceController, x0s, eps: float,
                 tau: float, alphas, steps: int, dt: float,
                 seeds=None) -> list:
    """Run B episodes in lockstep, one tau step at a time.

    The plant, Q and tau are the controller's, which replay reads too: a
    sys whose name or input box differs, or another Q or tau, raises
    ValueError.  Episode b starts at x0s[b] with contraction rate alphas[b]
    and logs seeds[b] (default b).  Quantizing, the codec and each mirror's
    grid/ball update stay per episode.  Each tau step marches one
    (3B, n) batch through _closed_loop: the B sensor fragments from the
    quantized centres, the B receiver fragments from the receivers' own
    decoded centres (recomputed, not copied, so the mirror comparison
    checks two computations), and the B plant segments, each held at its
    sensor's input, then reduced to each step's _audit_terms.  Rows never
    mix, so every log is identical to a run of its episode alone.
    """
    given, own = ((s.name, s.U.lo.tolist(), s.U.hi.tolist())
                  for s in (sys, controller.sys))
    if given != own:
        raise ValueError("system: {}, input box {}..{}, differs from {}, input "
                         "box {}..{}, the system the controller was validated "
                         "on".format(*given, *own))
    alphas = list(alphas)
    controller._check_run(Q, eps, tau, dt, alphas)
    sys, Q, tau = controller.sys, controller.Q, controller.tau
    x0s = np.array(x0s, dtype=float)
    seeds = list(range(len(x0s))) if seeds is None else list(seeds)
    if x0s.ndim != 2 or x0s.shape[1] != sys.n:
        raise ValueError(f"x0s must have shape (B, {sys.n})")
    if not len(x0s) == len(alphas) == len(seeds):
        raise ValueError("x0s, alphas and seeds must have one entry per episode")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, not {steps}")
    for b, x0 in enumerate(x0s):
        if not Q.contains(x0, tol=1e-12):
            raise ValueError(f"episode {b}: x0 must lie in Q")

    B = len(x0s)
    sensors = [GridMirror(controller, eps, a) for a in alphas]
    receivers = [GridMirror(controller, eps, a) for a in alphas]
    logs = []
    for x0, alpha, seed in zip(x0s, alphas, seeds):
        config = {"system": sys.name, "Q_center": Q.center.tolist(),
                  "Q_radius": Q.radius.tolist(), "eps": eps, "tau": tau,
                  "alpha": float(alpha), "L_tau": controller.L_tau,
                  "c_star": controller.c_star, "dt": dt, "steps": steps,
                  "seed": int(seed), "x0": x0.tolist()}
        logs.append(EpisodeLog(config, [], [], controller))

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

        mirrors, plant = _closed_loop(
            sys, controller.feedback, np.concatenate((Q_s, Q_c)), X, tau, dt)
        terms = _audit_terms(mirrors[:, :B], plant, controller, eps, dt,
                             steps, [(i, log.config["alpha"]) for log in logs])
        for b in range(B):
            sensors[b].step_to(mirrors[-1, b].copy())
            receivers[b].step_to(mirrors[-1, B + b].copy())
            if sensors[b].state_signature() != \
                    receivers[b].state_signature() or \
                    not np.array_equal(Q_s[b], Q_c[b]):
                raise DeterminismError(
                    f"episode {b} step {i}: sensor and controller mirrors "
                    f"diverged")
            logs[b].terms.append(terms[b])
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


def bit_rate(log: EpisodeLog) -> BitRateReport:
    """Average and steady-state bit rates of an episode."""
    if len(log.steps) < 10:
        raise ValueError("rate accounting needs at least 10 steps")
    tau = log.config["tau"]
    steady = [len(s.bits) for s in log.steps[1:]]
    if len(set(steady)) != 1:
        raise RuntimeError(f"non-constant steady-state widths: {sorted(set(steady))}")
    n = len(log.steps[0].x)
    asymptote = n * (log.config["L_tau"] + log.config["alpha"]) / LN2
    steady_rate = steady[0] / tau
    return BitRateReport(measured_rate=log.total_bits / (len(log.steps) * tau),
                         steady_bits_per_step=steady[0],
                         steady_rate=steady_rate, asymptote=asymptote,
                         ceiling_gap=steady_rate - asymptote)


@dataclass(frozen=True)
class ClauseResult:
    passed: bool
    worst_margin: float


@dataclass(frozen=True)
class GuaranteeReport:
    state_in_ball: ClauseResult       # x_i in S_i
    tracking: ClauseResult            # ||hat - true|| <= eps * exp(-alpha t)
    hat_recurrent: ClauseResult       # windowed recurrence of the fragments
    true_recurrent: ClauseResult      # same for the plant, doubled slack


def _windowed_recurrence_margin(times, levels, windows, starts,
                                T_end) -> float:
    """Worst (gap - window) per start j, visits at level >= j; <=0 passes."""
    worst = -math.inf
    for j, (window, t0) in enumerate(zip(windows, starts)):
        if T_end - t0 < window:
            continue
        k = int(np.searchsorted(times, t0 - 1e-12))
        visits = times[k:][levels[k:] >= j]
        if len(visits) == 0:
            return math.inf
        # the head and the gaps between visits, then the tail
        gap = max(0.0, float(np.max(np.diff(visits, prepend=t0))))
        if visits[-1] < T_end - window - 1e-12:
            gap = max(gap, T_end - float(visits[-1]))
        worst = max(worst, gap - window)
    return worst


def verify_guarantees(log: EpisodeLog) -> GuaranteeReport:
    """Offline check of the tracking, containment-ball, and recurrence claims."""
    cfg = log.config
    eps, tau, alpha = cfg["eps"], cfg["tau"], cfg["alpha"]
    L, c_star = cfg["L_tau"], cfg["c_star"]

    # (a) sensed state inside the predicted ball
    worst_a = float(np.max(np.abs([s.x - s.S_center for s in log.steps])
                           - [s.S_radius for s in log.steps]))
    clause_a = ClauseResult(worst_a <= 1e-9, worst_a)

    # (b) tracking envelope between fragment and plant trajectories
    hat_levels, plant_levels, tracking = zip(*log.terms)
    worst_b = float(np.max(tracking))
    clause_b = ClauseResult(worst_b <= _TRACKING_TOL, worst_b)

    # (c)/(d) windowed recurrence with geometrically shrinking slack
    t = _time_axis(len(log.steps), tau, cfg["dt"])
    idx = np.arange(len(log.steps))
    windows = tau + c_star * eps * np.exp(-(idx * alpha + L) * tau)
    starts = idx * tau
    T_end = len(log.steps) * tau
    worst_c = _windowed_recurrence_margin(t, np.concatenate(hat_levels),
                                          windows, starts, T_end)
    worst_d = _windowed_recurrence_margin(t, np.concatenate(plant_levels),
                                          windows, starts, T_end)
    clause_c = ClauseResult(worst_c <= 1e-9, worst_c)
    clause_d = ClauseResult(worst_d <= 1e-9, worst_d)
    return GuaranteeReport(state_in_ball=clause_a, tracking=clause_b,
                           hat_recurrent=clause_c, true_recurrent=clause_d)
