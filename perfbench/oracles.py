"""Checks of recurq's outputs against computations made apart from it.

Nothing here imports recurq.  The double integrator x1' = x2, x2' = u is
marched with its exact discrete flow under piecewise-constant input,
x1 += x2*h + u*h^2/2, x2 += u*h, which the program's RK4 reproduces up to
rounding.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

Q_RADIUS = 1.0          # Q = [-1, 1]^2, centred at the origin
U_MAX = 1.0             # |u| <= 1
GAIN = (1.0, 1.5)       # reference feedback u = clip(-x1 - 1.5*x2, -1, 1)


def exact_step(X: np.ndarray, u: np.ndarray, h: float) -> np.ndarray:
    """One exact step of the double integrator from rows X under input u."""
    x1, x2 = X[..., 0], X[..., 1]
    return np.stack((x1 + x2 * h + u * (h * h / 2.0), x2 + u * h), axis=-1)


def feedback(X: np.ndarray) -> np.ndarray:
    return np.clip(-GAIN[0] * X[..., 0] - GAIN[1] * X[..., 1], -U_MAX, U_MAX)


def next_states(x: np.ndarray, q: np.ndarray, tau: float,
                dt: float) -> np.ndarray:
    """x_{i+1} from (x_i, q_i) alone, for rows of logged steps.

    The fragment marches from q_i under the feedback held over each dt;
    the plant marches from x_i under the same held inputs.
    """
    frag, plant = q.astype(float).copy(), x.astype(float).copy()
    for _ in range(int(round(tau / dt))):
        u = feedback(frag)
        frag = exact_step(frag, u, dt)
        plant = exact_step(plant, u, dt)
    return plant


def steady_bits(alpha: float, tau: float = 2.0, L: float = 1.0) -> int:
    """Post-transient index width: bits of ceil(e^((L+alpha)*tau))^2 - 1."""
    side = math.ceil(math.exp((L + alpha) * tau))
    return (side * side - 1).bit_length()


def check_codec(steps) -> list:
    """Each step's bits have the cover's width and decode to its index.

    steps: iterable of (i, bits, index, cover_size).
    """
    problems = []
    for i, bits, index, cover_size in steps:
        width = (cover_size - 1).bit_length()
        if len(bits) != width or (bits and set(bits) - {"0", "1"}):
            problems.append(f"step {i}: {len(bits)} bits for cover "
                            f"{cover_size}")
            continue
        decoded = int(bits, 2) if bits else 0
        if decoded != index:
            problems.append(f"step {i}: bits {bits!r} decode to {decoded}, "
                            f"logged index {index}")
    return problems


def check_episode(x: np.ndarray, q: np.ndarray, widths: list,
                  total_bits: int, alpha: float, tau: float, dt: float,
                  tol: float = 1e-9) -> list:
    """The logged states follow from (x_i, q_i), and the bit count adds up.

    x, q: (steps, 2) sensed states and cell centres as logged.
    """
    problems = []
    if total_bits != sum(widths):
        problems.append(f"total_bits {total_bits} != sum of widths "
                        f"{sum(widths)}")
    want = steady_bits(alpha, tau)
    off = [i for i, w in enumerate(widths[1:], start=1) if w != want]
    if off:
        problems.append(f"steps {off[:3]}: width {widths[off[0]]} != steady "
                        f"closed form {want}")
    if len(x) > 1:
        err = np.max(np.abs(next_states(x[:-1], q[:-1], tau, dt) - x[1:]),
                     axis=1)
        bad = np.flatnonzero(err > tol)
        if bad.size:
            problems.append(f"step {bad[0] + 1}: logged state off the exact "
                            f"flow by {err[bad[0]]:.3g}")
    return problems


# --------------------------------------------------------------------------
# spanning instances

def initial_points(init_delta: float) -> np.ndarray:
    """Centres of the init_delta grid over Q, axis 0 slowest."""
    k = int(round(Q_RADIUS / init_delta))
    axis = -Q_RADIUS + init_delta * (2 * np.arange(k) + 1)
    return np.array([(a, b) for a in axis for b in axis])


def candidate_inputs(values: int, segments: int) -> np.ndarray:
    """Every sequence of `values` evenly spaced inputs, one per segment."""
    levels = np.linspace(-U_MAX, U_MAX, values)
    return np.array([[levels[j] for j in combo] for combo in
                     itertools.product(range(values), repeat=segments)])


def feasibility(points: np.ndarray, inputs: np.ndarray, T: float,
                segment: float, dt: float, eps: float,
                tau: float) -> np.ndarray:
    """Feasibility matrix [candidate, point] by exact flow and window scan.

    A trajectory sampled every dt is recurrent when every window [t, t+tau]
    with t in [0, T - tau] holds a sample within eps of Q.  At sample
    resolution that is: a visit among samples 0..W, and among samples
    k..k+W-1 for every k = 1..M, with W = tau/dt and M = (T - tau)/dt.
    With tau = 0 every sample up to T must lie within eps of Q.
    """
    n_cand, n_pts = len(inputs), len(points)
    X = np.repeat(points[None], n_cand, axis=0).reshape(-1, 2)
    per_seg = int(round(segment / dt))
    n_samples = int(round(T / dt)) + 1
    near = np.empty((n_samples, len(X)), dtype=bool)
    near[0] = _within(X, eps)
    for k in range(1, n_samples):
        seg = min((k - 1) // per_seg, inputs.shape[1] - 1)
        u = np.repeat(inputs[:, seg], n_pts)
        X = exact_step(X, u, dt)
        near[k] = _within(X, eps)
    if tau == 0:
        ok = near.all(axis=0)
    else:
        W = int(round(tau / dt))
        M = n_samples - 1 - W
        csum = np.vstack((np.zeros((1, len(X)), dtype=int),
                          np.cumsum(near, axis=0)))
        ok = csum[W + 1] > 0                      # samples 0..W
        for k in range(1, M + 1):                 # samples k..k+W-1
            ok &= csum[k + W] - csum[k] > 0
    return ok.reshape(n_cand, n_pts)


def _within(X: np.ndarray, eps: float) -> np.ndarray:
    return np.max(np.abs(X), axis=1) - Q_RADIUS <= eps + 1e-12


def min_cover_exists(feas: np.ndarray, size: int) -> bool:
    """True when some `size` candidate rows cover every point."""
    full = (1 << feas.shape[1]) - 1
    masks = [int("".join("1" if v else "0" for v in row[::-1]), 2)
             for row in feas]
    for combo in itertools.combinations(masks, size):
        acc = 0
        for m in combo:
            acc |= m
        if acc == full:
            return True
    return False


def check_instance(feas: np.ndarray, r, chosen: list,
                   brute_force_limit: int = 200_000) -> list:
    """r and chosen form a minimum cover of the independently built matrix."""
    problems = []
    coverable = feas.any(axis=0)
    if not math.isfinite(r):
        if coverable.all():
            problems.append("r is infinite but every point has a candidate")
        return problems
    if not coverable.all():
        problems.append(f"r = {r} but point {int(np.argmin(coverable))} has "
                        f"no feasible candidate")
        return problems
    if len(chosen) != r or len(set(chosen)) != r:
        problems.append(f"{len(chosen)} chosen candidates for r = {r}")
    elif not feas[list(chosen)].any(axis=0).all():
        problems.append("chosen candidates leave a point uncovered")
    if r > 1 and math.comb(len(feas), r - 1) <= brute_force_limit \
            and min_cover_exists(feas, r - 1):
        problems.append(f"a cover of size {r - 1} exists, r = {r}")
    return problems


def check_family(rec: dict, inv: dict) -> list:
    """r is nonincreasing in tau; recurrence needs no more than invariance.

    rec maps (T, eps, tau) to r, inv maps (T, eps) to r.
    """
    problems = []
    for (T, eps, tau), r in rec.items():
        for (T2, eps2, tau2), r2 in rec.items():
            if (T2, eps2) == (T, eps) and tau2 > tau and r2 > r:
                problems.append(f"T={T} eps={eps}: r={r2} at tau={tau2} "
                                f"exceeds r={r} at tau={tau}")
        if (T, eps) in inv and r > inv[(T, eps)]:
            problems.append(f"T={T} eps={eps} tau={tau}: r={r} exceeds the "
                            f"invariance r={inv[(T, eps)]}")
    return problems


# --------------------------------------------------------------------------
# bounds

def check_bounds(record: dict, tau: float, tol: float = 1e-9) -> list:
    """Finite exactly when tau >= 2, witness (1, 1) otherwise, upper 2/ln 2.

    From the corner (1, 1), full braking u = -1 returns to Q at t = 2
    exactly: x2 = 1 - t reaches 0 and x1 = 1 + t - t^2/2 is back at 1.
    """
    problems = []
    finite = tau >= 2.0
    verdict = record.get("verdict")
    if verdict != ("finite" if finite else "infinite"):
        problems.append(f"tau={tau}: verdict {verdict}")
    witness = record.get("witness")
    if finite and witness is not None:
        problems.append(f"tau={tau}: witness {witness} on a finite verdict")
    if not finite and witness != [1.0, 1.0]:
        problems.append(f"tau={tau}: witness {witness}, expected [1.0, 1.0]")
    upper = record.get("upper_bits_per_s")
    if upper is None or abs(upper - 2.0 / math.log(2.0)) > tol:
        problems.append(f"tau={tau}: upper bound {upper} != 2/ln 2")
    return problems
