"""Acceptance gate: the eight headline claims, each pinned to its tolerance.

Every test ends by printing a single [criterion N] PASS line; run with
`pytest -v -s tests/test_acceptance.py` to see them.
"""

import json
import math
import time

import numpy as np
import pytest

from helpers import brute_force_min_cover, march_held
from recurq import (Box, CandidateClass, GridMirror, RecurrenceSpec,
                    bit_rate, build_spanning_instance, containment_radius,
                    double_integrator, encode,
                    first_return_time, lipschitz_region, lower_bound,
                    min_spanning_cardinality, scalar_linear, upper_bound,
                    verify_guarantees)
from recurq.geometry import distance_many
from recurq.quantized import _closed_loop
from recurq.cli import main

LN2 = math.log(2.0)
Q = Box([0.0, 0.0], [1.0, 1.0])


def run_bounds(tmp_path, tau):
    cfg = tmp_path / f"b{tau}.yaml"
    cfg.write_text("system: {name: double_integrator}\n"
                   "Q:\n  - {center: [0.0, 0.0], radius: [1.0, 1.0]}\n"
                   f"tau: {tau}\n")
    out = tmp_path / f"b{tau}.jsonl"
    t0 = time.monotonic()
    code = main(["--config", str(cfg), "--out", str(out), "bounds"])
    elapsed = time.monotonic() - t0
    assert code == 0
    (rec,) = [json.loads(l) for l in out.read_text().splitlines() if l.strip()]
    return rec, elapsed


def test_criterion_1_benchmark_bounds(tmp_path):
    """Planar benchmark: upper bound 2/ln2 for tau >= 2, infinite below."""
    worst_elapsed = 0.0
    for tau in (2.0, 2.5):
        rec, elapsed = run_bounds(tmp_path, tau)
        worst_elapsed = max(worst_elapsed, elapsed)
        assert rec["verdict"] == "finite"
        assert abs(rec["upper_bits_per_s"] - 2.0 / LN2) <= 1e-9
    for tau in (1.0, 1.5, 1.9):
        rec, elapsed = run_bounds(tmp_path, tau)
        worst_elapsed = max(worst_elapsed, elapsed)
        assert rec["verdict"] == "infinite"
        assert rec["witness"] == [1.0, 1.0]
    assert worst_elapsed < 1.0, f"bounds run took {worst_elapsed:.2f}s"
    print(f"\n[criterion 1] PASS: upper 2/ln2 = {2.0/LN2:.5f} bits/s for "
          f"tau>=2, infinite below 2 with witness (1,1); "
          f"worst runtime {worst_elapsed:.3f}s")


def test_criterion_2_non_recurrence_floor():
    """No sampled control returns (1,1) to Q before t ~ 2.

    The oracle uses the exact discrete flow of the planar benchmark under
    piecewise-constant input (x1 += x2*h + u*h^2/2, x2 += u*h), computed
    independently of the library integrator.
    """
    t0 = time.monotonic()
    N, n_seg, dt, horizon = 10_000, 8, 0.01, 8.0
    rng = np.random.default_rng(0)
    u_grid = np.linspace(-1.0, 1.0, 9)
    seg_vals = u_grid[rng.integers(0, 9, size=(N, n_seg))]
    x1 = np.full(N, 1.0)
    x2 = np.full(N, 1.0)
    first_ret = np.full(N, np.inf)
    steps = int(round(horizon / dt))
    rows = np.arange(N)
    for k in range(steps):
        u = seg_vals[rows, min(int(k * dt / 1.0), n_seg - 1)]
        x1 = x1 + x2 * dt + 0.5 * u * dt * dt
        x2 = x2 + u * dt
        t = (k + 1) * dt
        in_Q = (np.abs(x1) <= 1.0) & (np.abs(x2) <= 1.0)
        first_ret = np.where(in_Q & np.isinf(first_ret), t, first_ret)
    floor = float(np.min(first_ret))
    assert floor >= 2.0 - 0.01, f"return at {floor}"

    sys = double_integrator()
    [t_ret] = first_return_time(sys, [[1.0, 1.0]], [[-1.0]], Q, 8.0, 0.01)
    assert abs(t_ret - 2.0) <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 2] PASS: min first return over {N} sampled controls "
          f"= {floor:.4f} >= 1.99; u=-1 returns at {t_ret:.9f}; "
          f"runtime {elapsed:.1f}s")


def test_criterion_3_tight_bound_system():
    """x' = x + u on [-1,1] with |u|<=2: upper and lower bounds coincide."""
    sys = scalar_linear(a=1.0, u_max=2.0)
    Q1 = Box([0.0], [1.0])
    constants, _ = lipschitz_region(sys, Q1, 1.0)
    up = upper_bound(constants.L_tau, Q1)
    lo = lower_bound(sys, Q1, constants.delta_tau)
    assert abs(up - 1.0 / LN2) <= 1e-9
    assert abs(lo - 1.0 / LN2) <= 1e-9
    assert abs(up - lo) <= 1e-9
    print(f"\n[criterion 3] PASS: upper = lower = {up:.9f} = 1/ln2 bits/s")


def test_criterion_4_tracking_and_containment_ball(episode_bundle):
    """20 seeded episodes: tracking envelope and x_i in S_i at every step."""
    episodes = episode_bundle["episodes"]
    assert len(episodes) == 20
    assert sorted({a for a, _, _ in episodes}) == [0.0, 0.1, 0.5]
    worst_tracking = -math.inf
    worst_ball = -math.inf
    for alpha, seed, log in episodes:
        report = verify_guarantees(log)
        assert report.tracking.passed, (
            f"alpha={alpha} seed={seed}: tracking margin "
            f"{report.tracking.worst_margin}")
        assert report.state_in_ball.passed, (
            f"alpha={alpha} seed={seed}: ball margin "
            f"{report.state_in_ball.worst_margin}")
        worst_tracking = max(worst_tracking, report.tracking.worst_margin)
        worst_ball = max(worst_ball, report.state_in_ball.worst_margin)
    assert worst_tracking <= 1e-6
    assert episode_bundle["elapsed"] < 300.0
    print(f"\n[criterion 4] PASS: 20 episodes, worst tracking margin "
          f"{worst_tracking:.2e} <= 1e-6, worst ball margin {worst_ball:.2e}; "
          f"episode runtime {episode_bundle['elapsed']:.0f}s < 300s")


def test_criterion_5_steady_state_rate(episode_bundle):
    """Steady bit rate matches the integer closed form; gap to the asymptote."""
    by_alpha = {}
    for alpha, _, log in episode_bundle["episodes"]:
        by_alpha.setdefault(alpha, log)
    for alpha, expect_bits in ((0.0, 6), (0.1, 7), (0.5, 9)):
        log = by_alpha[alpha]
        r = bit_rate(log)
        # ceil(e^((L + alpha) tau))^n, with L = 1, tau = 2 and n = 2
        cover = math.ceil(math.exp((1.0 + alpha) * 2.0)) ** 2
        closed_form = (cover - 1).bit_length()
        assert r.steady_bits_per_step == closed_form == expect_bits
        assert r.steady_rate == closed_form / 2.0
        assert r.steady_rate >= r.asymptote  # never below the ceiling slack
    r0 = bit_rate(by_alpha[0.0])
    assert r0.steady_rate == 3.0
    assert abs(r0.asymptote - 2.0 / LN2) <= 1e-9
    # exact gap is 3 - 2/ln2 = 0.11460991...; 0.1146 is its 4-decimal rounding
    assert abs(r0.ceiling_gap - (3.0 - 2.0 / LN2)) <= 1e-9
    assert round(r0.ceiling_gap, 4) == 0.1146
    print(f"\n[criterion 5] PASS: alpha=0 steady rate 3.0 bits/s vs asymptote "
          f"{r0.asymptote:.5f}, gap {r0.ceiling_gap:.7f} = 0.1146 +/- 1e-6; "
          f"alpha=0.5 steady rate {bit_rate(by_alpha[0.5]).steady_rate}")


# ---------------------------------------------------------------------------
# spanning family shared by criteria 6 and 7

FAMILY_T = (4.0, 6.0, 8.0)
FAMILY_EPS = (0.05, 0.1)
FAMILY_TAU = (2.0, 3.0, 4.0)


@pytest.fixture(scope="module")
def spanning_family():
    sys = double_integrator()
    cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
    out = {"rec": {}, "inv": {}, "instances": {}}
    t0 = time.monotonic()
    for T in FAMILY_T:
        for eps in FAMILY_EPS:
            for tau in FAMILY_TAU:
                spec = RecurrenceSpec(Q, tau=tau, eps=eps, T=T)
                inst = build_spanning_instance(sys, Q, spec, 0.25, cc, dt=0.05,
                                               max_candidates=128)
                r, chosen = min_spanning_cardinality(inst)
                out["rec"][(T, eps, tau)] = r
                out["instances"][("rec", T, eps, tau)] = (inst, r, chosen)
            spec = RecurrenceSpec(Q, tau=0.0, eps=eps, T=T)
            inst = build_spanning_instance(sys, Q, spec, 0.25, cc, dt=0.05,
                                           max_candidates=128)
            r, chosen = min_spanning_cardinality(inst)
            out["inv"][(T, eps)] = r
            out["instances"][("inv", T, eps, 0.0)] = (inst, r, chosen)
    out["elapsed"] = time.monotonic() - t0
    return out


def test_criterion_6_instance_monotonicity(spanning_family):
    """Exact covers shrink as the window grows, and recurrence is feasible
    where invariance is not."""
    rec, inv = spanning_family["rec"], spanning_family["inv"]
    # r is nonincreasing in tau at fixed (T, eps); inf-aware comparisons
    for T in FAMILY_T:
        for eps in FAMILY_EPS:
            values = [rec[(T, eps, tau)] for tau in FAMILY_TAU]
            for smaller_tau, larger_tau in zip(values, values[1:]):
                assert larger_tau <= smaller_tau, (T, eps, values)
    # invariance has no finite cover anywhere on this family, while every
    # recurrence instance at T = 4 has one
    assert all(math.isinf(r) for r in inv.values()), inv
    assert all(math.isfinite(r) for (T, _, _), r in rec.items() if T == 4.0)
    feasible = sum(math.isfinite(v) for v in rec.values())
    assert feasible >= 1, "family is vacuously infeasible"

    # exhaustive subset cross-check on every small instance
    checked = 0
    for key, (inst, r, chosen) in spanning_family["instances"].items():
        if len(inst.candidates) <= 12:
            assert r == brute_force_min_cover(inst.feasibility), key
            if math.isfinite(r):
                assert np.all(inst.feasibility[chosen].any(axis=0))
            checked += 1
    assert checked >= 1
    assert spanning_family["elapsed"] < 600.0
    print(f"\n[criterion 6] PASS: monotone in tau over "
          f"{len(rec)} instances ({feasible} feasible), {checked} "
          f"exhaustively cross-checked; runtime "
          f"{spanning_family['elapsed']:.0f}s < 600s")


def test_criterion_7_data_rate_lower_bound(episode_bundle, spanning_family):
    """Bits sent by T always suffice to index a minimum spanning set."""
    compared = 0
    for T in FAMILY_T:
        r = spanning_family["rec"][(T, 0.1, 2.0)]
        if not math.isfinite(r):
            continue
        for alpha, seed, log in episode_bundle["episodes"]:
            # the widths sent at sensing instants i tau <= T
            bits = sum(len(s.bits) for s in log.steps
                       if s.i * log.config["tau"] <= T)
            assert 2.0 ** bits >= r, (T, alpha, seed, bits, r)
            compared += 1
    assert compared >= 1, "no feasible instance matched any episode"
    print(f"\n[criterion 7] PASS: 2^bits(T) >= exact cover size on "
          f"{compared} episode/horizon pairs")


class TestCriterion8Properties:
    def test_codec_exhaustive(self):
        from recurq import decode
        rng = np.random.default_rng(7)
        for size in range(1, 2**16 + 1):
            width = (size - 1).bit_length()
            for idx in {0, size - 1, int(rng.integers(0, size))}:
                bits = encode(idx, size)
                assert len(bits) == width
                assert decode(bits, size) == idx
        print("\n[criterion 8a] PASS: codec round-trip exhaustive to 2^16")

    def test_grid_soundness_random_points(self):
        from recurq import grid
        rng = np.random.default_rng(11)
        total = 0
        while total < 10_000:
            dim = int(rng.integers(1, 4))
            region = Box(rng.uniform(-5, 5, dim), rng.uniform(0.05, 3.0, dim))
            delta = float(rng.uniform(0.01, 1.0))
            C = grid(region, delta)
            pts = rng.uniform(region.lo, region.hi, size=(50, dim))
            for x in pts:
                q, idx = C.quantize(x)
                assert 0 <= idx < C.size
                assert np.max(np.abs(x - q)) <= delta * (1 + 1e-12)
                assert np.array_equal(C.center(idx), q)
            total += len(pts)
        print(f"\n[criterion 8b] PASS: grid cover sound on {total} points")

    def test_rk4_order_on_exponential(self):
        sys = scalar_linear(a=1.0)
        errs = []
        for dt in (0.1, 0.05, 0.025):
            _, states = march_held(sys, [1.0], [[0.0]], 1.0, 1.0, dt)
            errs.append(abs(states[-1][0] - math.e))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 3.0
        print(f"\n[criterion 8c] PASS: observed RK4 orders {orders} >= 3")

    def test_containment_never_violated(self, episode_bundle):
        # certified excursion radius for the benchmark at tau=2
        delta = containment_radius(1.0, 1.0, 2.0)
        worst = -math.inf
        for alpha, seed, log in episode_bundle["episodes"]:
            _, _, x_pl = log.trajectories()
            worst = max(worst, float(np.max(distance_many(x_pl, Q))))
        assert worst <= delta + 2 * 0.1  # doubled eps slack for the plant

        # oracle-found recurrent trajectories from the spanning search
        sys = double_integrator()
        cc = CandidateClass(values_per_axis=3, segment_duration=2.0)
        spec = RecurrenceSpec(Q, tau=2.0, eps=0.1, T=4.0)
        inst = build_spanning_instance(sys, Q, spec, 0.25, cc, dt=0.05)
        worst_oracle = -math.inf
        n_checked = 0
        for j, sig in enumerate(inst.candidates):
            for i, x0 in enumerate(inst.initial_points):
                if inst.feasibility[j, i]:
                    _, states = march_held(sys, x0, sig.values,
                                           sig.segment_duration, 4.0, 0.05)
                    worst_oracle = max(worst_oracle, float(
                        np.max(distance_many(states, Q))))
                    n_checked += 1
        assert n_checked > 0
        assert worst_oracle <= delta + 0.1
        print(f"\n[criterion 8d] PASS: episode excursions <= {worst:.3f}, "
              f"{n_checked} oracle trajectories <= {worst_oracle:.3f}, both "
              f"within radius {delta:.3f}")

    def test_mirror_state_equality(self, episode_bundle, di_controller):
        # replay every logged index stream through fresh mirrors in
        # lockstep and demand float-identical grid state at every step.
        # Each step's decoded centre is asserted equal to its logged q, so
        # the fragments marched from the logged q are the ones the
        # mirrors' own centres give, by induction over the steps; they
        # march a chunk of steps at a time, as one batch of rows
        logs = [log for _, _, log in episode_bundle["episodes"]]
        tau, dt, steps = (logs[0].config[k] for k in ("tau", "dt", "steps"))
        assert all(log.config["tau"] == tau and log.config["dt"] == dt
                   and len(log.steps) == steps for log in logs)
        mirrors = [GridMirror(di_controller, Q, log.config["eps"],
                              tau, log.config["alpha"]) for log in logs]
        # logged centres, step-major: (steps, episodes, n)
        qs = np.array([[s.q for s in log.steps] for log in logs]).swapaxes(0, 1)
        chunk = 50  # steps per march: 1000 rows of 2001 samples, 32 MB
        for i0 in range(0, steps, chunk):
            part = qs[i0:i0 + chunk].reshape(-1, Q.dim)
            frags, _ = _closed_loop(di_controller.sys, di_controller.feedback,
                                    part, part[:0], tau, dt)
            ends = frags[-1].reshape(-1, len(logs), Q.dim)
            for i in range(i0, i0 + len(ends)):
                for mirror, log, end in zip(mirrors, logs, ends[i - i0]):
                    s = log.steps[i]
                    assert mirror.C.size == s.cover_size
                    assert mirror.r == s.r
                    assert np.array_equal(mirror.S.center, s.S_center)
                    assert np.array_equal(mirror.S.radius, s.S_radius)
                    assert np.array_equal(mirror.C.center(s.index), s.q)
                    mirror.step_to(end)
        print(f"\n[criterion 8e] PASS: {len(logs)} episodes replayed in "
              f"lockstep, mirrors float-identical to logged sensor state at "
              f"all {steps} steps")
