"""The benchmark's three workloads.

Each workload sets up its inputs from the seed, runs passes of a fixed set
of operations through recurq's public functions, and checks every output
against `oracles`.  It calls recurq through module attributes
(`quantized.run_episodes(...)`), so a traced run's wrappers see the call.

- lockstep: one `run_episodes` call over 20 episodes of 20 tau-steps,
  then the offline audit (`verify_guarantees`, `bit_rate`) of every log.
  Works the batched (B, n) RK4 path, the per-episode Python work of the
  loop and the audit.
- spanning: the (T, eps, tau) family of spanning instances, built and
  solved exactly.  Works per-row `integrate` and per-sample `distance`.
- cli_audit: `recurq bounds | simulate | verify` in-process.  Works the same
  systems layer one state at a time (`first_return_time`, `rk4_step`,
  `Box.contains`), controller validation per command and JSONL I/O.
"""

from __future__ import annotations

import json
import os
import statistics
from time import perf_counter

import numpy as np

import oracles

TAU = 2.0
EPS = 0.1
DT = 1e-3


class Workload:
    """A fixed pass of operations with its set-up and checks."""

    name = ""
    #: operations per pass; a check failure makes `correct` false, an
    #: operation that raised or exited with the wrong code counts as failed
    ops = 0
    #: keys of a pass's output that run.py drops once the pass is checked
    heavy = ()

    def __init__(self, recurq, seed: int, workdir: str):
        self.recurq = recurq
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Make the inputs from the seed; may run more than once."""

    def run_pass(self) -> dict:
        """One pass; out["parts"] maps each timed part to its seconds."""
        raise NotImplementedError

    def check(self, out: dict) -> tuple:
        """(failed operations, problems) of one pass."""
        raise NotImplementedError

    def extras(self, parts: dict) -> dict:
        """Workload-specific figures from each part's median, for people."""
        return {}


# --------------------------------------------------------------------------

LOCKSTEP_ALPHAS = [0.0] * 7 + [0.1] * 7 + [0.5] * 6


class Lockstep(Workload):
    name = "lockstep"
    heavy = ("logs", "reports", "rates")

    def __init__(self, recurq, seed, workdir, alphas=LOCKSTEP_ALPHAS,
                 steps=20):
        super().__init__(recurq, seed, workdir)
        self.alphas = list(alphas)
        self.steps = steps
        self.ops = len(self.alphas)

    def setup(self):
        r = self.recurq
        self.Q = r.geometry.CompactSet.box([0.0, 0.0], [1.0, 1.0])
        self.system = r.systems.double_integrator()
        rng = np.random.default_rng(self.seed)
        self.x0s = rng.uniform(-0.85, 0.85, size=(len(self.alphas), 2))
        self.controller = r.quantized.reference_controller_double_integrator(
            self.Q, tau=TAU, eps=EPS)

    def run_pass(self) -> dict:
        q = self.recurq.quantized
        out = {"logs": None, "reports": [], "rates": [], "errors": {}}
        t0 = perf_counter()
        try:
            out["logs"] = q.run_episodes(
                self.system, self.Q, self.controller, self.x0s, EPS, TAU,
                self.alphas, self.steps, DT,
                seeds=list(range(len(self.alphas))))
        except Exception as exc:  # a program fault fails every episode
            out["errors"] = {b: repr(exc) for b in range(self.ops)}
        t1 = perf_counter()
        for b, log in enumerate(out["logs"] or []):
            try:
                out["reports"].append(q.verify_guarantees(log))
                out["rates"].append(q.bit_rate(log))
            except Exception as exc:
                out["errors"][b] = repr(exc)
                out["reports"].append(None)
                out["rates"].append(None)
        out["parts"] = {"run_episodes": t1 - t0,
                        "audit": perf_counter() - t1}
        return out

    def check(self, out: dict) -> tuple:
        problems = []
        failed = len(out["errors"])
        for b, log in enumerate(out["logs"] or []):
            if b in out["errors"]:
                continue
            where = f"episode {b}"
            report, rate = out["reports"][b], out["rates"][b]
            for clause in ("state_in_ball", "tracking", "hat_recurrent",
                           "true_recurrent"):
                if not getattr(report, clause).passed:
                    problems.append(f"{where}: clause {clause} fails")
            alpha = self.alphas[b]
            if rate.steady_bits_per_step != oracles.steady_bits(alpha, TAU):
                problems.append(f"{where}: steady width "
                                f"{rate.steady_bits_per_step}")
            steps = log.steps
            if len(steps) != self.steps or \
                    not np.array_equal(steps[0].x, self.x0s[b]):
                problems.append(f"{where}: wrong length or start")
            problems += [f"{where}: {p}" for p in oracles.check_codec(
                (s.i, s.bits, s.index, s.cover_size) for s in steps)]
            problems += [f"{where}: {p}" for p in oracles.check_episode(
                np.array([s.x for s in steps]), np.array([s.q for s in steps]),
                [len(s.bits) for s in steps], log.total_bits, alpha, TAU, DT)]
        return failed, problems

    def extras(self, parts):
        steps = len(self.alphas) * self.steps
        return {"episode_steps_per_s": steps / parts["run_episodes"],
                "run_episodes_s": parts["run_episodes"],
                "audit_s": parts["audit"]}


# --------------------------------------------------------------------------

SPANNING_T = (4.0, 6.0, 8.0)
SPANNING_EPS = (0.05, 0.1)
SPANNING_TAU = (2.0, 3.0, 4.0)
SEGMENT = 2.0
SPANNING_DT = 0.05
INIT_DELTA = 0.25


def spanning_family(Ts=SPANNING_T, epss=SPANNING_EPS, taus=SPANNING_TAU):
    """(T, eps, tau) of every instance; tau = 0 is the invariance one."""
    return [(T, eps, tau) for T in Ts for eps in epss
            for tau in tuple(taus) + (0.0,)]


class Spanning(Workload):
    name = "spanning"
    heavy = ("results",)

    def __init__(self, recurq, seed, workdir, family=None):
        super().__init__(recurq, seed, workdir)
        self.family = spanning_family() if family is None else list(family)
        self.ops = len(self.family)
        self._oracle = {}

    def setup(self):
        r = self.recurq
        self.Q = r.geometry.CompactSet.box([0.0, 0.0], [1.0, 1.0])
        self.system = r.systems.double_integrator()
        self.cclass = r.entropy.CandidateClass(values_per_axis=3,
                                               segment_duration=SEGMENT)
        # the seed sets the order of the instances, not their content
        order = np.random.default_rng(self.seed).permutation(len(self.family))
        self.order = [self.family[k] for k in order]

    def run_pass(self) -> dict:
        e = self.recurq.entropy
        Spec = self.recurq.recurrence.RecurrenceSpec
        out = {"results": {}, "errors": {}, "parts": {}}
        for key in self.order:
            T, eps, tau = key
            t1 = perf_counter()
            try:
                inst = e.build_spanning_instance(
                    self.system, self.Q, Spec(self.Q, tau=tau, eps=eps, T=T),
                    INIT_DELTA, self.cclass, dt=SPANNING_DT,
                    max_candidates=128)
                t2 = perf_counter()
                r, chosen = e.min_spanning_cardinality(inst)
                t3 = perf_counter()
            except Exception as exc:
                out["errors"][key] = repr(exc)
                out["parts"][("build",) + key] = perf_counter() - t1
                continue
            out["parts"][("build",) + key] = t2 - t1
            out["parts"][("solve",) + key] = t3 - t2
            out["results"][key] = (inst, r, chosen)
        return out

    def oracle(self, key) -> np.ndarray:
        if key not in self._oracle:
            T, eps, tau = key
            segments = int(round(T / SEGMENT))
            self._oracle[key] = oracles.feasibility(
                oracles.initial_points(INIT_DELTA),
                oracles.candidate_inputs(3, segments), T, SEGMENT,
                SPANNING_DT, eps, tau)
        return self._oracle[key]

    def check(self, out: dict) -> tuple:
        problems = []
        rec, inv = {}, {}
        points = oracles.initial_points(INIT_DELTA)
        for key, (inst, r, chosen) in out["results"].items():
            T, eps, tau = key
            where = f"T={T} eps={eps} tau={tau}"
            feas = self.oracle(key)
            inputs = oracles.candidate_inputs(3, int(round(T / SEGMENT)))
            got_inputs = np.array([c.values[:, 0] for c in inst.candidates])
            if inst.initial_points.shape != points.shape or \
                    not np.allclose(inst.initial_points, points, atol=1e-12):
                problems.append(f"{where}: initial points differ")
            elif got_inputs.shape != inputs.shape or \
                    not np.array_equal(got_inputs, inputs):
                problems.append(f"{where}: candidate inputs differ")
            elif inst.feasibility.shape != feas.shape or \
                    not np.array_equal(inst.feasibility, feas):
                bad = np.argwhere(inst.feasibility != feas)
                problems.append(f"{where}: {len(bad)} feasibility cells "
                                f"differ, first [candidate, point] "
                                f"{bad[0].tolist()}")
            problems += [f"{where}: {p}"
                         for p in oracles.check_instance(feas, r, chosen)]
            if tau == 0.0:
                inv[(T, eps)] = r
            else:
                rec[key] = r
        problems += oracles.check_family(rec, inv)
        return len(out["errors"]), problems

    def extras(self, parts):
        return {"instances_per_s": self.ops / sum(parts.values()),
                "build_s": sum(t for k, t in parts.items()
                               if k[0] == "build"),
                "branch_and_bound_s": sum(t for k, t in parts.items()
                                          if k[0] == "solve")}


# --------------------------------------------------------------------------

BOUNDS_TAUS = (1.5, 2.0, 2.5)
SIM_STEPS = 10
TRUNCATED_STEPS = 4
Q_YAML = "Q:\n  - {center: [0.0, 0.0], radius: [1.0, 1.0]}\n"


class CliAudit(Workload):
    """One round: bounds x3, simulate x3, verify x3, verify of a cut log.

    The cut log keeps the header and the first TRUNCATED_STEPS step records
    of the fixed simulate run, whose inputs do not depend on the seed.
    `recurq verify` must reject it (exit 2 or 3); it exits 0 because
    cli.cmd_verify never compares the record count or total_bits with the
    header, so that operation fails on every pass.
    """

    name = "cli_audit"

    def __init__(self, recurq, seed, workdir, taus=BOUNDS_TAUS,
                 sim_steps=SIM_STEPS):
        super().__init__(recurq, seed, workdir)
        self.taus = tuple(taus)
        self.sim_steps = sim_steps
        # fixed run (the README config), then two runs drawn from the seed
        self.sims = [("fixed", 0.1, 0, [0.4, -0.2]),
                     ("s1", 0.0, 1000 + 2 * seed, None),
                     ("s2", 0.5, 1001 + 2 * seed, None)]
        self.ops = len(self.taus) + 2 * len(self.sims) + 1

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        self.commands = []
        for tau in self.taus:
            cfg = self._path(f"bounds-{tau}.yaml")
            with open(cfg, "w") as fh:
                fh.write("system: {name: double_integrator}\n" + Q_YAML
                         + f"tau: {tau}\n")
            self.commands.append(("bounds", {"tau": tau},
                                  ["--config", cfg, "--out",
                                   self._path(f"bounds-{tau}.out"),
                                   "bounds"]))
        for label, alpha, seed, x0 in self.sims:
            cfg = self._path(f"sim-{label}.yaml")
            log = json.dumps(self._path(f"sim-{label}.jsonl"))
            with open(cfg, "w") as fh:
                fh.write("system: {name: double_integrator}\n" + Q_YAML
                         + f"tau: {TAU}\neps: {EPS}\nalpha: {alpha}\n"
                         f"dt: {DT}\nsteps: {self.sim_steps}\nseed: {seed}\n"
                         f"log_path: {log}\n"
                         + (f"x0: {x0}\n" if x0 is not None else ""))
            self.commands.append(("simulate", {"label": label, "alpha": alpha},
                                  ["--config", cfg, "--out",
                                   self._path(f"sim-{label}.out"),
                                   "simulate"]))
        for label, alpha, _, _ in self.sims:
            self.commands.append((
                "verify", {"label": label},
                ["--config", self._path(f"sim-{label}.yaml"),
                 "--out", self._path(f"verify-{label}.out"),
                 "verify", self._path(f"sim-{label}.jsonl")]))
        self.commands.append(("verify_truncated", {},
                              ["--config", self._path("sim-fixed.yaml"),
                               "--out", self._path("verify-cut.out"),
                               "verify", self._path("cut.jsonl")]))

    def _truncate(self):
        with open(self._path("sim-fixed.jsonl")) as fh:
            lines = fh.readlines()[:1 + TRUNCATED_STEPS]
        with open(self._path("cut.jsonl"), "w") as fh:
            fh.writelines(lines)

    def run_pass(self) -> dict:
        main = self.recurq.cli
        out = {"runs": [], "errors": {}, "parts": {}}
        for k, (kind, meta, argv) in enumerate(self.commands):
            if kind == "verify_truncated":
                self._truncate()
            t1 = perf_counter()
            try:
                code = main.main(argv)
            except Exception as exc:
                out["errors"][k] = repr(exc)
                code = None
            out["parts"][(k, kind)] = perf_counter() - t1
            out["runs"].append((kind, meta, code))
        return out

    def check(self, out: dict) -> tuple:
        failed, problems = 0, []
        for k, (kind, meta, code) in enumerate(out["runs"]):
            argv = self.commands[k][2]
            if kind == "verify_truncated":
                failed += code not in (2, 3)
                continue
            if code != 0:
                failed += 1
                continue
            with open(argv[argv.index("--out") + 1]) as fh:
                records = [json.loads(line) for line in fh if line.strip()]
            if len(records) != 1:
                problems.append(f"command {k} ({kind}): {len(records)} "
                                f"records, expected 1")
                continue
            rec = records[0]
            if kind == "bounds":
                problems += oracles.check_bounds(rec, meta["tau"])
            elif kind == "simulate":
                problems += self._check_simulate(rec, meta)
            elif not rec.get("passed"):
                problems.append(f"verify {meta['label']}: not passed")
        return failed, problems

    def _check_simulate(self, rec, meta) -> list:
        where = f"simulate {meta['label']}"
        problems = []
        want = oracles.steady_bits(meta["alpha"], TAU)
        rate = rec.get("bit_rate", {})
        if rate.get("steady_bits_per_step") != want or \
                rate.get("steady_rate") != want / TAU:
            problems.append(f"{where}: steady rate {rate.get('steady_rate')}"
                            f" != {want / TAU}")
        if not all(v for k, v in rec["guarantees"].items()
                   if not k.startswith("worst")):
            problems.append(f"{where}: a guarantee fails")
        with open(self._path(f"sim-{meta['label']}.jsonl")) as fh:
            header, *steps = [json.loads(line) for line in fh if line.strip()]
        if len(steps) != self.sim_steps:
            problems.append(f"{where}: {len(steps)} step records")
        problems += [f"{where}: {p}" for p in oracles.check_codec(
            (s["i"], s["bits"], s["index"], s["cover_size"]) for s in steps)]
        problems += [f"{where}: {p}" for p in oracles.check_episode(
            np.array([s["x"] for s in steps]),
            np.array([s["q"] for s in steps]),
            [len(s["bits"]) for s in steps], header["total_bits"],
            meta["alpha"], TAU, DT)]
        return problems

    def extras(self, parts):
        """Median time of one command of each kind."""
        times = {}
        for (_, kind), t in parts.items():
            times.setdefault(f"{kind}_s", []).append(t)
        return {name: statistics.median(ts) for name, ts in times.items()}


WORKLOADS = {w.name: w for w in (Lockstep, Spanning, CliAudit)}
