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
from .geometry import Box, _as_vector
from .quantized import (ControllerInvalidError, GuaranteeViolationError,
                        _typed, bit_rate, load_step_records,
                        reference_controller_double_integrator, replay,
                        run_episodes, verify_guarantees)
from .recurrence import RecurrenceSpec, first_return_time, lipschitz_region
from .systems import ControlSystem, IntegrationBlowupError, make_system

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARANTEE = 3
EXIT_INFEASIBLE = 4

#: corner_return_sweep's input values per axis
_SWEEP_VALUES = 9
#: the keys that some command reads, by section (Q: its one box); any
#: other key exits 2, so a misspelled or removed key cannot run a default
_KEYS = {"config": ("Q alpha candidate csv_path dt eps eps_list horizons "
                    "init_delta log_path max_candidates seed steps system tau "
                    "tau_list x0").split(),
         "system": ["name", "params"], "Q": ["center", "radius"],
         "candidate": ["segment_duration", "values_per_axis"]}


class ConfigError(ValueError):
    pass


def _record(obj, out):
    out.write(json.dumps(obj, sort_keys=True) + "\n")


def load_config(path: Optional[str]) -> dict:
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
    boxes = cfg["Q"] if type(cfg.get("Q")) is list else []
    for where, section in [("config", cfg), ("system", cfg.get("system")),
                           ("candidate", cfg.get("candidate")),
                           *((f"Q[{k}]", box) for k, box in enumerate(boxes))]:
        keys = _KEYS[where.partition("[")[0]]
        unknown = set(section) - set(keys) if isinstance(section, dict) else ()
        if unknown:  # the first in sorted order
            raise ConfigError(f"unknown key {min(unknown, key=str)!r} in "
                              f"{where}; its keys are {', '.join(keys)}")
    return cfg


def _read(cfg: dict, key: str, kind=float, default=None, low=None,
          strict=False):
    """cfg[key], checked by the rule of the log header (quantized._typed):
    an int (not a bool), a str, a number (read as a float), a list of finite
    numbers (read as floats, and not empty) or a dict.  With low, the number,
    or each entry of the list, must also be finite and at least low (above
    it when strict).  A missing or None value takes default, and with no
    default is an error."""
    value = cfg.get(key)
    if value is None:
        if default is None:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        value = _typed({key: value}, {key: kind})[key]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if kind is list and not value:
        raise ConfigError(f"{key} must not be empty")
    if low is None:
        return value
    for x in value if kind is list else [value]:
        if not (-math.inf < x < math.inf and (
                x > low if strict else x >= low)):
            bound = "" if low == -math.inf else (
                f" and {'above' if strict else 'at least'} {low}")
            name = f"each entry of {key}" if kind is list else key
            raise ConfigError(f"{name} must be finite{bound}, not {x}")
    return value


def build_system(cfg: dict) -> ControlSystem:
    spec = cfg.get("system")
    if spec is None:
        raise ConfigError("missing 'system' section")
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise ConfigError("system must be a name or a mapping")
    try:
        name = _read(spec, "name", str)
        params = _read(spec, "params", dict, {})
        # checked, then passed as written: a system's name, which records
        # carry, prints its params as given
        for key in params:
            _read(params, key, low=-math.inf)
    except ConfigError as exc:
        raise ConfigError(f"system: {exc}")
    try:
        return make_system(name, **params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"system {name}, params {params}: {exc}")


def build_Q(cfg: dict, n: int) -> Box:
    boxes = cfg.get("Q")
    if not (type(boxes) is list and len(boxes) == 1
            and type(boxes[0]) is dict):
        raise ConfigError("Q must be a list of exactly one box, a mapping")
    try:
        Q = Box(*(_read(boxes[0], key, list) for key in ("center", "radius")))
    except ValueError as exc:
        raise ConfigError(f"Q[0]: {exc}")
    if Q.dim != n:
        raise ConfigError(f"Q dimension {Q.dim} does not match the system ({n})")
    return Q


def corner_return_sweep(sys: ControlSystem, Q: Box, tau: float,
                        dt: float = 0.01) -> list:
    """Minimum first-return time from each corner of Q over constant controls.

    A corner whose best sampled return exceeds tau is evidence (within the
    candidate class) that Q is not recurrent for that window.  The horizon
    is four windows tau, and at least 5 s.
    """
    horizon = max(4.0 * tau, 5.0)
    u_grid = sys.U.sample_grid(_SWEEP_VALUES)
    corners = Q.corners()
    # every corner under every input in one batch, corner-major
    X = np.repeat(corners, len(u_grid), axis=0)
    U = np.tile(u_grid, (len(corners), 1))
    returns = first_return_time(sys, X, U, Q, horizon, dt)
    return list(zip(corners, returns.reshape(len(corners), -1).min(axis=1)
                    .tolist()))


def cmd_bounds(cfg: dict, out) -> int:
    sys_ = build_system(cfg)
    Q = build_Q(cfg, sys_.n)
    tau = _read(cfg, "tau", low=0.0)
    try:
        constants, region = lipschitz_region(sys_, Q, tau)
        lower = lower_bound(sys_, Q, constants.delta_tau)
    except FloatingPointError as exc:  # so no record holds a non-finite value
        raise ConfigError(f"system {sys_.name}: {exc}") from None
    upper = upper_bound(constants.L_tau, Q)
    sweep = corner_return_sweep(sys_, Q, tau)
    # corners slower than tau; the witness is the worst, ties going to the
    # lexicographically largest
    bad = [(t, tuple(c)) for c, t in sweep if t > tau + 1e-6]
    _record({"kind": "bounds", "system": sys_.name, "tau": tau,
             "F_Q": constants.F_Q, "L_tau": constants.L_tau,
             "delta_tau": constants.delta_tau,
             "upper_bits_per_s": upper, "lower_bits_per_s": lower,
             "verdict": "infinite" if bad else "finite",
             "witness": list(max(bad)[1]) if bad else None,
             "corner_min_returns": [
                 {"corner": list(c), "min_return": (t if math.isfinite(t) else None)}
                 for c, t in sweep],
             "region_lo": list(region.lo), "region_hi": list(region.hi)}, out)
    return EXIT_OK


def cmd_spanning(cfg: dict, out) -> int:
    sys_ = build_system(cfg)
    Q = build_Q(cfg, sys_.n)
    horizons = _read(cfg, "horizons", list, low=0.0, strict=True)
    eps_list, tau_list = ([_read(cfg, one, low=0.0)] if cfg.get(key) is None
                          else _read(cfg, key, list, low=0.0) for key, one in
                          (("eps_list", "eps"), ("tau_list", "tau")))
    cand_cfg = _read(cfg, "candidate", dict, {})
    values_per_axis = _read(cand_cfg, "values_per_axis", int, 3, low=1)
    segment_duration = _read(cand_cfg, "segment_duration", float, 1.0,
                             low=0.0, strict=True)
    init_delta = _read(cfg, "init_delta", float, 0.25)
    max_candidates = _read(cfg, "max_candidates", int, 24, low=1)
    cclass = CandidateClass(values_per_axis, segment_duration)
    # every (T, tau) pair and segment count, before any instance is built
    for T in horizons:
        if T < max(tau_list):
            tau_key = "tau" if cfg.get("tau_list") is None else "tau_list"
            raise ConfigError(f"horizons entry {T} is below {tau_key} entry "
                              f"{max(tau_list)}; each T must be at least tau")
        try:
            cclass._segments(T)
        except ValueError as exc:  # rejected by its name
            raise ConfigError(str(exc)) from None
    # one grid for every tau: the divisor of the segment duration nearest the
    # finest positive tau / 20, or a 20th of it when tau 0 is all it asks
    fine = min([t for t in tau_list if t > 0] or [segment_duration])
    dt = segment_duration / max(1, round(segment_duration / (fine / 20)))

    # written once every instance is built, so a run that a later
    # instance's config error stops writes no record
    records, rate_points = [], {}
    any_infeasible = False
    for eps in eps_list:
        for tau in tau_list:
            for T in horizons:
                # tau 0 checks invariance
                rec = {"kind": "spanning", "T": T, "eps": eps, "tau": tau,
                       "mode": "invariance" if tau == 0 else "recurrence"}
                records.append(rec)
                try:
                    spec = RecurrenceSpec(Q, tau=tau, eps=eps, T=T)
                    inst = build_spanning_instance(
                        sys_, Q, spec, init_delta, cclass, dt,
                        max_candidates=max_candidates)
                except InstanceTooLargeError as exc:
                    rec.update({"exact": False, "note": str(exc)})
                    continue
                except ValueError as exc:  # rejected by its name
                    raise ConfigError(str(exc)) from exc
                r, chosen = min_spanning_cardinality(inst)
                feasible = math.isfinite(r)
                any_infeasible |= not feasible
                rec.update({"exact": True,
                            "r": (int(r) if feasible else None),
                            "feasible": feasible, "chosen": chosen,
                            "n_candidates": len(inst.feasibility),
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


def _controller(sys_: ControlSystem, Q: Box, tau: float, eps: float):
    """The validated reference controller, which (Q, tau, eps) name."""
    if sys_.name != "double_integrator":
        raise ConfigError(
            "a validated reference controller is only available for the "
            "double_integrator system")
    try:
        return reference_controller_double_integrator(Q, tau, eps)
    except ControllerInvalidError as exc:
        raise ConfigError(f"the reference controller does not certify Q: "
                          f"{exc}") from exc


def cmd_simulate(cfg: dict, out) -> int:
    sys_ = build_system(cfg)
    Q = build_Q(cfg, sys_.n)
    tau = _read(cfg, "tau")
    eps = _read(cfg, "eps")
    alpha = _read(cfg, "alpha", float, 0.0)
    dt = _read(cfg, "dt", float, 1e-3)
    steps = _read(cfg, "steps", int, 100)
    seed = _read(cfg, "seed", int, 0, low=0)
    log_path, csv_path = (_read(cfg, key, str) if cfg.get(key) is not None
                          else None for key in ("log_path", "csv_path"))
    if "x0" in cfg:  # run_episodes checks that it lies in Q
        x0 = _read(cfg, "x0", list)
    else:
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(Q.lo + 0.1 * Q.radius, Q.hi - 0.1 * Q.radius)
    try:
        log, = run_episodes(sys_, Q, _controller(sys_, Q, tau, eps),
                            [_as_vector(x0, sys_.n, "x0")], eps, tau, [alpha],
                            steps, dt, seeds=[seed])
    except (ValueError, OverflowError) as exc:  # rejected by its name
        raise ConfigError(str(exc)) from exc
    if log_path:
        log.to_jsonl(log_path)
    if csv_path:
        _export_csv(log, csv_path)
    rate = bit_rate(log) if steps >= 10 else None
    report = verify_guarantees(log)
    rec = {"kind": "episode_summary", "total_bits": log.total_bits,
           "log_path": log_path, **{key: log.config[key] for key in (
               "system", "steps", "tau", "eps", "alpha", "dt", "seed", "x0")},
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
    t_hat, x_hat, x_pl = log.trajectories()
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
    Q = build_Q({"Q": [{"center": header["Q_center"],
                        "radius": header["Q_radius"]}]}, sys_.n)
    try:
        log, failures = replay(_controller(sys_, Q, header["tau"],
                                           header["eps"]), header, steps)
    except (ValueError, OverflowError) as exc:  # rejected by its name
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
        try:
            if args.command == "verify":  # the log names everything it needs
                return cmd_verify(args.log, out)
            cfg = load_config(args.config)
            command = {"bounds": cmd_bounds, "spanning": cmd_spanning,
                       "simulate": cmd_simulate}[args.command]
            return command(cfg, out)
        finally:
            if args.out and out.getvalue():
                with open(args.out, "w") as fh:
                    fh.write(out.getvalue())
    except (ConfigError, OSError) as exc:  # OSError: a path it cannot open
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except (GuaranteeViolationError, IntegrationBlowupError) as exc:
        print(f"guarantee violation: {exc}", file=_sys.stderr)
        return EXIT_GUARANTEE


if __name__ == "__main__":
    raise SystemExit(main())
