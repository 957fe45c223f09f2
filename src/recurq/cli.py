"""Batch front end: bounds, spanning studies, quantized episodes, verification.

Subcommands emit line-delimited JSON records; exit codes are 0 (success),
2 (config/parse error), 3 (guarantee violation), 4 (infeasible instance).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys as _sys
from typing import Optional

import numpy as np
import yaml

from .entropy import (CandidateClass, InstanceTooLargeError,
                      build_spanning_instance, lower_bound,
                      min_spanning_cardinality, upper_bound)
from .geometry import Box, CompactSet, _as_vector
from .quantized import (GridMirror, GuaranteeViolationError, StepRecord,
                        bit_rate, load_step_records,
                        reference_controller_double_integrator, replay,
                        run_episode, verify_guarantees)
from .recurrence import RecurrenceSpec, first_return_time, lipschitz_region
from .systems import (ControlSignal, ControlSystem, IntegrationBlowupError,
                      make_system)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARANTEE = 3
EXIT_INFEASIBLE = 4

#: corner_return_sweep's horizon in multiples of tau, and at least 5 s
_RETURN_TAUS = 4.0


class ConfigError(ValueError):
    pass


def _record(obj, out):
    out.write(json.dumps(obj, sort_keys=True) + "\n")


def load_config(path: Optional[str], overrides: dict) -> dict:
    cfg = {}
    if path:
        try:
            with open(path) as fh:
                cfg = yaml.safe_load(fh) or {}
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except yaml.YAMLError as exc:
            raise ConfigError(f"config parse error in {path}: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError(f"config root in {path} must be a mapping")
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    return cfg


def build_system(cfg: dict) -> ControlSystem:
    spec = cfg.get("system")
    if spec is None:
        raise ConfigError("missing 'system' section")
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise ConfigError("system must be a name or a mapping")
    name = spec.get("name")
    if not name:
        raise ConfigError("system section needs a 'name'")
    params = spec.get("params", {}) or {}
    try:
        return make_system(name, **params)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"system: {exc}")


def build_Q(cfg: dict, n: int) -> CompactSet:
    boxes_cfg = cfg.get("Q")
    if not boxes_cfg:
        raise ConfigError("missing 'Q' box list")
    boxes = []
    for k, b in enumerate(boxes_cfg):
        try:
            boxes.append(Box(b["center"], b["radius"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"Q[{k}]: {exc}")
    Q = CompactSet(tuple(boxes))
    if Q.dim != n:
        raise ConfigError(f"Q dimension {Q.dim} does not match the system ({n})")
    return Q


def _require(cfg: dict, key: str, cast=float, default=None):
    """cfg[key] through cast; a missing key takes default, if one is given."""
    value = cfg.get(key, default)
    if value is None:
        raise ConfigError(f"missing required key '{key}'")
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key '{key}': {exc}")


def _floats(values) -> list:
    """A _require cast for a list of numbers."""
    if isinstance(values, (str, dict)):
        raise ValueError(f"expected a list of numbers, not {values!r}")
    return [float(v) for v in values]


def _at_least(low, cast=float, strict=False):
    """A _require cast that also rejects a value below low, or equal to it
    when strict."""
    def read(value):
        v = cast(value)
        if not (v > low if strict else v >= low):
            raise ValueError(f"must be {'above' if strict else 'at least'} "
                             f"{low}, not {v}")
        return v
    return read


def corner_return_sweep(sys: ControlSystem, Q: CompactSet, tau: float,
                        values_per_axis: int = 9, dt: float = 0.01) -> list:
    """Minimum first-return time from each corner of Q over constant controls.

    A corner whose best sampled return exceeds tau is evidence (within the
    candidate class) that Q is not recurrent for that window.
    """
    horizon = max(_RETURN_TAUS * tau, 5.0)
    u_grid = CandidateClass(values_per_axis, horizon).input_values(sys.U)
    corners = np.vstack([box.corners() for box in Q.boxes])
    # every corner under every input in one batch, corner-major
    X = np.repeat(corners, len(u_grid), axis=0)
    U = np.tile(u_grid, (len(corners), 1))
    returns = first_return_time(sys, X, ControlSignal(horizon, U[None]), Q,
                                horizon, dt)
    k = len(u_grid)
    results = []
    for c, corner in enumerate(corners):
        hits = [t for t in returns[c * k:(c + 1) * k] if t is not None]
        results.append((corner, min(hits, default=math.inf)))
    return results


def cmd_bounds(cfg: dict, out) -> int:
    sys_ = build_system(cfg)
    Q = build_Q(cfg, sys_.n)
    tau = _require(cfg, "tau", _at_least(0.0))
    seed = _require(cfg, "seed", _at_least(0, int), 0)
    samples = _require(cfg, "samples_per_axis", _at_least(2, int), 5)
    sweep_values = _require(cfg, "sweep_values", _at_least(1, int), 9)
    sweep_dt = _require(cfg, "sweep_dt", _at_least(0.0, strict=True), 0.01)
    constants, region = lipschitz_region(sys_, Q, tau, seed=seed)
    upper = upper_bound(constants.L_tau, Q)
    lower = lower_bound(sys_, Q, constants.delta_tau, samples_per_axis=samples)
    sweep = corner_return_sweep(sys_, Q, tau, values_per_axis=sweep_values,
                                dt=sweep_dt)
    bad = [(c, t) for c, t in sweep if t > tau + 1e-6]
    finite = not bad
    witness = None
    if bad:
        # worst corner; ties resolve toward the lexicographically largest
        witness = max(bad, key=lambda ct: (ct[1], tuple(ct[0])))[0]
    _record({"kind": "bounds", "system": sys_.name, "tau": tau,
             "F_Q": constants.F_Q, "L_tau": constants.L_tau,
             "delta_tau": constants.delta_tau,
             "upper_bits_per_s": upper, "lower_bits_per_s": lower,
             "verdict": "finite" if finite else "infinite",
             "witness": None if witness is None else list(witness),
             "corner_min_returns": [
                 {"corner": list(c), "min_return": (t if math.isfinite(t) else None)}
                 for c, t in sweep],
             "region_lo": list(region.lo), "region_hi": list(region.hi)}, out)
    return EXIT_OK


def cmd_spanning(cfg: dict, out) -> int:
    sys_ = build_system(cfg)
    Q = build_Q(cfg, sys_.n)
    if not cfg.get("horizons"):
        raise ConfigError("missing 'horizons' list")
    horizons = _require(cfg, "horizons", _floats)
    eps_list = (_require(cfg, "eps_list", _floats) if cfg.get("eps_list")
                else [_require(cfg, "eps")])
    tau_list = (_require(cfg, "tau_list", _floats) if cfg.get("tau_list")
                else [_require(cfg, "tau")])
    cand_cfg = _require(cfg, "candidate", dict, {})
    values_per_axis = _require(cand_cfg, "values_per_axis", int, 3)
    segment_duration = _require(cand_cfg, "segment_duration", default=1.0)
    init_delta = _require(cfg, "init_delta", default=0.25)
    max_candidates = _require(cfg, "max_candidates", int, 24)
    max_points = _require(cfg, "max_points", int, 64)
    mode = cfg.get("mode", "recurrence")
    if mode not in ("recurrence", "invariance"):
        raise ConfigError("mode must be 'recurrence' or 'invariance'")
    try:
        cclass = CandidateClass(values_per_axis, segment_duration)
    except ValueError as exc:  # rejected by its name
        raise ConfigError(str(exc)) from exc

    # written once every instance is built, so a run that a later
    # instance's config error stops writes no record
    records, rate_points = [], {}
    any_infeasible = False
    for eps in eps_list:
        for tau in tau_list:
            for T in horizons:
                # the record names what is built: a spec with tau 0 is
                # checked for invariance
                spec_tau = 0.0 if mode == "invariance" else tau
                rec = {"kind": "spanning", "T": T, "eps": eps, "tau": tau,
                       "mode": "invariance" if spec_tau == 0 else "recurrence"}
                records.append(rec)
                try:
                    spec = RecurrenceSpec(Q, tau=spec_tau, eps=eps, T=T)
                    inst = build_spanning_instance(
                        sys_, Q, spec, init_delta, cclass,
                        max_candidates=max_candidates, max_points=max_points)
                except InstanceTooLargeError as exc:
                    rec.update({"exact": False, "greedy_only": True,
                                "note": str(exc)})
                    continue
                except ValueError as exc:  # rejected by its name
                    raise ConfigError(str(exc)) from exc
                r, chosen = min_spanning_cardinality(inst)
                feasible = math.isfinite(r)
                any_infeasible |= not feasible
                rec.update({"exact": True,
                            "r": (int(r) if feasible else None),
                            "feasible": feasible, "chosen": chosen,
                            "n_candidates": len(inst.candidates),
                            "n_points": len(inst.initial_points)})
                if feasible:
                    rate_points.setdefault((eps, tau), []).append(
                        (T, math.log2(r)))
    for (eps, tau), pts in sorted(rate_points.items()):
        if len({T for T, _ in pts}) >= 3:
            slope = float(np.polyfit([p[0] for p in pts],
                                     [p[1] for p in pts], 1)[0])
            records.append({"kind": "rate_fit", "eps": eps, "tau": tau,
                            "rate_bits_per_s": slope, "n_points": len(pts)})
    for rec in records:
        _record(rec, out)
    return EXIT_INFEASIBLE if any_infeasible else EXIT_OK


def _controller(sys_: ControlSystem, Q: CompactSet, tau: float, eps: float):
    """The validated reference controller, which (Q, tau, eps) name."""
    if sys_.name != "double_integrator":
        raise ConfigError(
            "a validated reference controller is only available for the "
            "double_integrator system")
    try:
        controller = reference_controller_double_integrator(Q, tau, eps)
    except (ValueError, OverflowError) as exc:  # rejected by its name
        raise ConfigError(str(exc)) from exc
    U, V = sys_.U, controller.sys.U
    if not (np.array_equal(U.lo, V.lo) and np.array_equal(U.hi, V.hi)):
        raise ConfigError(
            f"system: input box {U.lo.tolist()}..{U.hi.tolist()} differs from "
            f"{V.lo.tolist()}..{V.hi.tolist()}, the box the reference "
            f"controller was validated on")
    return controller


def cmd_simulate(cfg: dict, out) -> int:
    sys_ = build_system(cfg)
    Q = build_Q(cfg, sys_.n)
    tau = _require(cfg, "tau")
    eps = _require(cfg, "eps")
    alpha = _require(cfg, "alpha", default=0.0)
    dt = _require(cfg, "dt", default=1e-3)
    steps = _require(cfg, "steps", int, 100)
    seed = _require(cfg, "seed", int, 0)
    if "x0" in cfg:  # run_episodes checks that it lies in Q
        x0 = _require(cfg, "x0", lambda v: _as_vector(v, sys_.n, "x0"))
    else:
        rng = np.random.default_rng(seed)
        box = Q.boxes[0]
        x0 = rng.uniform(box.lo + 0.1 * box.radius, box.hi - 0.1 * box.radius)
    try:
        log = run_episode(sys_, Q, _controller(sys_, Q, tau, eps), x0, eps,
                          tau, alpha, steps, dt, seed=seed)
    except ValueError as exc:  # an input the library rejects, by its name
        raise ConfigError(str(exc)) from exc
    log_path = cfg.get("log_path")
    if log_path:
        log.to_jsonl(log_path)
    csv_path = cfg.get("csv_path")
    if csv_path:
        _export_csv(log, csv_path)
    rate = bit_rate(log) if steps >= 10 else None
    report = verify_guarantees(log)
    rec = {"kind": "episode_summary", "system": sys_.name, "steps": steps,
           "tau": tau, "eps": eps, "alpha": alpha, "dt": dt, "seed": seed,
           "x0": list(x0), "total_bits": log.total_bits,
           "log_path": log_path,
           "guarantees": {
               **_passed(report),
               "worst_tracking_margin": report.tracking.worst_margin,
               "worst_ball_margin": report.state_in_ball.worst_margin}}
    if rate is not None:
        rec["bit_rate"] = {"measured": rate.measured_rate,
                           "steady_bits_per_step": rate.steady_bits_per_step,
                           "steady_rate": rate.steady_rate,
                           "asymptote": rate.asymptote,
                           "ceiling_gap": rate.ceiling_gap}
    else:
        rec["transient_only"] = True
    _record(rec, out)
    return EXIT_OK if report.all_passed else EXIT_GUARANTEE


def _passed(report) -> dict:
    """Whether each guarantee clause of a GuaranteeReport holds, by name."""
    return {name: bool(clause.passed) for name, clause in vars(report).items()}


def _export_csv(log, path: str):
    t_hat, x_hat = log.hat_trajectory()
    _, x_pl = log.plant_trajectory()
    n = x_hat.shape[1]
    header = ("t," + ",".join(f"x{i+1}" for i in range(n)) + ","
              + ",".join(f"xhat{i+1}" for i in range(n)))
    data = np.column_stack([t_hat, x_pl, x_hat])
    np.savetxt(path, data, delimiter=",", header=header, comments="")


def cmd_verify(log_path: str, out) -> int:
    """Audit a log by replaying it (quantized.replay); reads no config."""
    try:
        header, steps = load_step_records(log_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read log: {exc}")
    sys_ = build_system(header)
    Q = build_Q({"Q": [{"center": _require(header, "Q_center", list),
                        "radius": _require(header, "Q_radius", list)}]}, sys_.n)
    eps, tau, alpha, dt, L_tau, c_star, n_steps, total_bits = (
        _require(header, key) for key in ("eps", "tau", "alpha", "dt", "L_tau",
                                          "c_star", "steps", "total_bits"))
    x0 = _require(header, "x0", lambda v: _as_vector(v, sys_.n, "x0"))
    if not (0 < dt <= tau and 0 <= alpha < math.inf):
        raise ConfigError(f"need 0 < dt <= tau and a finite alpha >= 0, not "
                          f"dt={dt}, tau={tau}, alpha={alpha}")
    if not steps or len(steps[0].x) != sys_.n:
        raise ConfigError(f"log holds no step records of dimension {sys_.n}")
    controller = _controller(sys_, Q, tau, eps)
    # the audit reads the header's numbers as parsed, and the controller's
    # constants, which the header's must equal
    log = replay(controller, dict(header, eps=eps, tau=tau, alpha=alpha,
                                  dt=dt, L_tau=controller.L_tau,
                                  c_star=controller.c_star), steps)
    failures = []
    if len(steps) != n_steps:
        failures.append(f"log holds {len(steps)} step records, header says "
                        f"{header['steps']}")
    if log.total_bits != total_bits:
        failures.append(f"header total_bits {header['total_bits']} != "
                        f"{log.total_bits}, the sum of the bit widths")
    if (L_tau, c_star) != (controller.L_tau, controller.c_star):
        failures.append("header L_tau and c_star differ from the rebuilt "
                        "controller's")
    try:
        mirror = GridMirror(controller, Q.boxes[0], eps, tau, alpha, dt)
        for k, s in enumerate(steps):
            want = mirror.record(log.plant_states[k - 1][-1] if k else x0)
            wrong = [key for key in StepRecord.__dataclass_fields__
                     if not np.array_equal(getattr(s, key), getattr(want, key))]
            if wrong:
                failures.append(f"step {k}: the re-run disagrees on "
                                f"{', '.join(wrong)}")
            mirror.step_to(log.frag_states[k][-1])
    except ValueError as exc:  # a header whose grids cannot be built
        raise ConfigError(f"log header: {exc}") from exc
    report = verify_guarantees(log)
    ok = not failures and report.all_passed
    _record({"kind": "verify", "log_path": log_path, "passed": bool(ok),
             "record_failures": failures, "clauses": _passed(report)}, out)
    return EXIT_OK if ok else EXIT_GUARANTEE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="recurq",
        description="recurrence entropy bounds and quantized recurrence control")
    parser.add_argument("--config", help="YAML config file (verify reads none)")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--dt", type=float, help="override config dt")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bounds", help="entropy bounds and finiteness verdict")
    sub.add_parser("spanning", help="spanning-set covers over a (T, eps, tau) grid")
    sub.add_parser("simulate", help="run a quantized-control episode")
    p_verify = sub.add_parser("verify", help="re-check an episode log")
    p_verify.add_argument("log", help="episode log (JSONL)")
    args = parser.parse_args(argv)

    # records are held until the command ends, so a run that fails before
    # writing one leaves an existing --out file as it was
    out = io.StringIO() if args.out else _sys.stdout
    try:
        if args.command == "verify":  # the log names everything it needs
            return cmd_verify(args.log, out)
        cfg = load_config(args.config, {"seed": args.seed, "dt": args.dt})
        command = {"bounds": cmd_bounds, "spanning": cmd_spanning,
                   "simulate": cmd_simulate}[args.command]
        return command(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except (GuaranteeViolationError, IntegrationBlowupError) as exc:
        print(f"guarantee violation: {exc}", file=_sys.stderr)
        return EXIT_GUARANTEE
    finally:
        if args.out and out.getvalue():
            with open(args.out, "w") as fh:
                fh.write(out.getvalue())


if __name__ == "__main__":
    raise SystemExit(main())
