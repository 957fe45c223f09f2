import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

from recurq import Box, cli, double_integrator, first_return_time
from recurq.cli import (EXIT_CONFIG, EXIT_GUARANTEE, EXIT_INFEASIBLE, EXIT_OK,
                        main)

LN2 = math.log(2.0)

BOUNDS_YAML = """\
system: {{name: double_integrator}}
Q:
  - {{center: [0.0, 0.0], radius: [1.0, 1.0]}}
tau: {tau}
"""

SIM_YAML = """\
system: {{name: double_integrator}}
Q:
  - {{center: [0.0, 0.0], radius: [1.0, 1.0]}}
tau: 2.0
eps: 0.1
alpha: 0.0
dt: 0.01
steps: 12
seed: 0
x0: [0.4, -0.2]
log_path: {log_path}
csv_path: {csv_path}
"""


def run(tmp_path, config_text, *args):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config_text)
    out = tmp_path / "out.jsonl"
    code = main(["--config", str(cfg), "--out", str(out), *args])
    records = [json.loads(line) for line in out.read_text().splitlines()
               if line.strip()]
    return code, records


class TestBounds:
    def test_finite_verdict_tau_2(self, tmp_path):
        code, recs = run(tmp_path, BOUNDS_YAML.format(tau=2.0), "bounds")
        assert code == EXIT_OK
        (r,) = recs
        assert r["verdict"] == "finite"
        assert r["upper_bits_per_s"] == pytest.approx(2.0 / LN2, abs=1e-9)
        assert r["lower_bits_per_s"] == 0.0
        assert r["L_tau"] == 1.0 and r["F_Q"] == 1.0

    def test_infinite_verdict_below_2(self, tmp_path):
        code, recs = run(tmp_path, BOUNDS_YAML.format(tau=1.5), "bounds")
        assert code == EXIT_OK
        (r,) = recs
        assert r["verdict"] == "infinite"
        assert r["witness"] == [1.0, 1.0]

    def test_min_return_is_the_minimum(self, tmp_path):
        code, (r,) = run(tmp_path, BOUNDS_YAML.format(tau=5.0), "bounds")
        assert code == EXIT_OK and r["verdict"] == "finite"
        # each corner under the 9 swept inputs, over the sweep's horizon
        # max(4 tau, 5 s) = 20 s
        u = np.linspace(-1.0, 1.0, 9)[:, None]
        for rec in r["corner_min_returns"]:
            returns = first_return_time(
                double_integrator(), np.repeat([rec["corner"]], 9, axis=0),
                u, Box([0.0, 0.0], [1.0, 1.0]), 20.0, 0.01)
            best = float(np.min(returns))  # inf when no input returns
            assert rec["min_return"] == (best if math.isfinite(best) else None)
        assert r["corner_min_returns"][0] == {"corner": [-1.0, -1.0],
                                              "min_return": 2.0}

    @pytest.mark.parametrize("tau, verdict, witness, delta_tau", [
        (1.5, "infinite", [1.0, 1.0], 6.722533605507097),
        (2.0, "finite", None, 14.7781121978613),
        (2.5, "finite", None, 30.456234901758684)])
    def test_pinned_records(self, tmp_path, tau, verdict, witness, delta_tau):
        code, (r,) = run(tmp_path, BOUNDS_YAML.format(tau=tau), "bounds")
        assert code == EXIT_OK
        assert (r["verdict"], r["witness"]) == (verdict, witness)
        assert (r["L_tau"], r["delta_tau"]) == (1.0, delta_tau)
        # the corners on Q return at the bisection's first probe width
        assert r["corner_min_returns"] == [
            {"corner": [-1.0, -1.0], "min_return": 2.0},
            {"corner": [-1.0, 1.0], "min_return": 5.960464477539063e-10},
            {"corner": [1.0, -1.0], "min_return": 5.960464477539063e-10},
            {"corner": [1.0, 1.0], "min_return": 2.0}]

    def test_tight_system_records_read_no_seed(self, tmp_path):
        # x' = x + u on [-1, 1]: L_tau is the Jacobian's 1 exactly, so the
        # two bounds meet at 1/ln 2 and the region is Q inflated by delta_tau
        cfg = tmp_path / "cfg.yaml"
        texts = set()
        for seed in range(5):
            cfg.write_text("system: {name: scalar_linear, params: {a: 1.0}}\n"
                           "Q:\n  - {center: [0.0], radius: [1.0]}\n"
                           f"tau: 2.0\nseed: {seed}\n")
            out = tmp_path / f"seed{seed}.jsonl"
            assert main(["--config", str(cfg), "--out", str(out),
                         "bounds"]) == EXIT_OK
            texts.add(out.read_text())
        (text,) = texts
        r = json.loads(text)
        assert r["L_tau"] == 1.0
        assert r["upper_bits_per_s"] == r["lower_bits_per_s"] == 1.0 / LN2
        assert r["region_hi"] == [1.0 + r["delta_tau"]]

    @pytest.mark.parametrize("sweep_dt", [0.015625, 0.03])
    def test_sweep_dt_not_dividing_the_horizon(self, sweep_dt):
        # the sweep's one held segment ends on a partial step at 6.8 s;
        # bounds sweeps at the 0.01 s default, and a library caller may not
        Q = Box([0.0, 0.0], [1.0, 1.0])
        want = cli.corner_return_sweep(double_integrator(), Q, 1.7)
        got = cli.corner_return_sweep(double_integrator(), Q, 1.7,
                                      dt=sweep_dt)
        # the worst corner slower than tau, ties to the largest, as bounds'
        # witness
        assert max((t, tuple(c)) for c, t in got if t > 1.7 + 1e-6)[1] == \
            (1.0, 1.0)
        for (corner, t), (ref_corner, ref) in zip(got, want):
            assert np.array_equal(corner, ref_corner)
            if sweep_dt == 0.03 and math.isinf(t):
                # the return of (1, 1) and (-1, -1) grazes Q at t = 2,
                # which no sample of a 0.03 s grid meets
                assert ref == 2.0
                continue
            assert t == pytest.approx(ref, rel=0, abs=1e-8)

    def test_missing_tau_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("system: {name: double_integrator}\n"
                       "Q:\n  - {center: [0.0, 0.0], radius: [1.0, 1.0]}\n")
        assert main(["--config", str(cfg), "bounds"]) == EXIT_CONFIG
        assert "tau" in capsys.readouterr().err

    def test_unknown_system_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("system: {name: pendulum}\n"
                       "Q:\n  - {center: [0.0], radius: [1.0]}\ntau: 1.0\n")
        assert main(["--config", str(cfg), "bounds"]) == EXIT_CONFIG

    def test_bad_yaml_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("system: [unclosed\n  - ")
        assert main(["--config", str(cfg), "bounds"]) == EXIT_CONFIG

    def test_non_mapping_root_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("- tau\n- 2.0\n")
        assert main(["--config", str(cfg), "bounds"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config root in {cfg} must be a mapping\n")

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.yaml"),
                     "bounds"]) == EXIT_CONFIG


SPAN_YAML = """\
system: {{name: double_integrator}}
Q:
  - {{center: [0.0, 0.0], radius: [1.0, 1.0]}}
horizons: {horizons}
eps_list: [0.1]
tau_list: [2.0]
candidate: {{values_per_axis: 3, segment_duration: 2.0}}
init_delta: 0.25
max_candidates: 128
"""


class TestSpanning:
    def test_feasible_sweep(self, tmp_path):
        code, recs = run(tmp_path, SPAN_YAML.format(horizons="[4]"), "spanning")
        assert code == EXIT_OK
        (r,) = recs
        assert r["feasible"] and r["exact"] and r["r"] == 4

    def test_infeasible_exit(self, tmp_path):
        code, recs = run(tmp_path, SPAN_YAML.format(horizons="[4, 6]"),
                         "spanning")
        assert code == EXIT_INFEASIBLE
        by_T = {r["T"]: r for r in recs if r["kind"] == "spanning"}
        assert by_T[4.0]["feasible"] and not by_T[6.0]["feasible"]

    def test_late_config_error_writes_no_record(self, tmp_path, capsys):
        # T = 4 builds; T = 5 is not a whole number of 2 s segments
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(SPAN_YAML.format(horizons="[4, 5]"))
        out = tmp_path / "out.jsonl"
        out.write_text("kept\n")
        assert main(["--config", str(cfg), "--out", str(out),
                     "spanning"]) == EXIT_CONFIG
        assert "segment_duration" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    def test_rate_fit_is_the_slope_over_its_records(self, tmp_path):
        cfg = yaml.safe_load(SPAN_YAML.format(horizons="[4, 6, 8]"))
        cfg.update(eps_list=[0.5], tau_list=[2.0, 3.0])
        code, recs = run(tmp_path, yaml.safe_dump(cfg), "spanning")
        assert code == EXIT_OK
        fits = {(r["eps"], r["tau"]): r for r in recs
                if r["kind"] == "rate_fit"}
        assert sorted(fits) == [(0.5, 2.0), (0.5, 3.0)]
        for key, fit in fits.items():
            Ts, logs = zip(*[(r["T"], math.log2(r["r"])) for r in recs
                             if r["kind"] == "spanning"
                             and (r["eps"], r["tau"]) == key])
            assert fit["n_points"] == len(Ts) == 3
            assert fit["rate_bits_per_s"] == float(np.polyfit(Ts, logs, 1)[0])

    def test_two_horizons_write_no_rate_fit(self, tmp_path):
        cfg = yaml.safe_load(SPAN_YAML.format(horizons="[4, 6]"))
        cfg["eps_list"] = [0.5]
        code, recs = run(tmp_path, yaml.safe_dump(cfg), "spanning")
        assert code == EXIT_OK
        assert [(r["kind"], r["feasible"]) for r in recs] == [
            ("spanning", True)] * 2

    def test_infeasible_writes_no_rate_fit(self, tmp_path):
        # with no slack no candidate reaches a Q this far away
        cfg = yaml.safe_load(SPAN_YAML.format(horizons="[4, 6, 8]"))
        cfg.update(Q=[{"center": [50.0, 50.0], "radius": [0.1, 0.1]}],
                   eps_list=[0.0], init_delta=0.1)
        code, recs = run(tmp_path, yaml.safe_dump(cfg), "spanning")
        assert code == EXIT_INFEASIBLE
        assert [(r["kind"], r["feasible"]) for r in recs] == [
            ("spanning", False)] * 3

    def test_greedy_only_flag_when_capped(self, tmp_path):
        text = SPAN_YAML.format(horizons="[8]").replace("max_candidates: 128",
                                                        "max_candidates: 24")
        code, recs = run(tmp_path, text, "spanning")
        assert code == EXIT_OK
        # the cap is checked before the matrix exists, so a capped record
        # carries no cover, greedy or exact
        assert recs == [{"kind": "spanning", "T": 8.0, "eps": 0.1, "tau": 2.0,
                         "mode": "recurrence", "exact": False,
                         "note": "81 candidates x 16 points exceeds caps "
                                 "24 x 64"}]

    @pytest.mark.parametrize("candidate, count", [
        ({"values_per_axis": 2**63}, 2**126),  # an IndexError before
        # 4 * 10 ** 9 segments: 3 ** n_seg was computed before the caps
        ({"segment_duration": 1e-9}, "3**4000000000")],
        ids=["values_per_axis", "segment_duration"])
    def test_huge_class_is_capped(self, tmp_path, candidate, count):
        cfg = yaml.safe_load(SPAN_YAML.format(horizons="[4]"))
        cfg["candidate"].update(candidate)
        code, recs = run(tmp_path, yaml.safe_dump(cfg), "spanning")
        assert code == EXIT_OK
        assert recs == [{"kind": "spanning", "T": 4.0, "eps": 0.1, "tau": 2.0,
                         "mode": "recurrence", "exact": False,
                         "note": f"{count} candidates x 16 points exceeds "
                                 f"caps 128 x 64"}]

    def test_tau_zero_is_labelled_invariance(self, tmp_path):
        # tau 0 builds the invariance instance; with eps 1 it has a cover
        cfg = dict(yaml.safe_load(SPAN_YAML.format(horizons="[4]")),
                   eps_list=[1.0], tau_list=[0.0])
        code, (zero,) = run(tmp_path, yaml.safe_dump(cfg), "spanning")
        assert code == EXIT_OK
        assert zero["mode"] == "invariance"
        assert (zero["r"], zero["chosen"]) == (4, [2, 3, 5, 6])

    def test_mode_key_is_refused(self, tmp_path, capsys):
        # tau 0 in tau_list asks for invariance; a mode key is an error,
        # not ignored
        for mode in ("invariance", "recurrence"):
            cfg = dict(yaml.safe_load(SPAN_YAML.format(horizons="[4]")),
                       mode=mode)
            path = tmp_path / "cfg.yaml"
            path.write_text(yaml.safe_dump(cfg))
            assert main(["--config", str(path), "spanning"]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error:")
            assert re.search(r"\bmode\b", err) and "tau_list" in err, err

    def test_one_study_compares_tau_on_one_grid(self, tmp_path):
        # every tau is built at the dt of the finest, 0.1 here; built at its
        # own dt 2/13, (T 4, eps 0.05, tau 3) read r = 3, not the 2 that the
        # dt 0.05 family reads
        cfg = dict(yaml.safe_load(SPAN_YAML.format(horizons="[4, 6, 8]")),
                   eps_list=[0.05, 0.1], tau_list=[0.0, 2.0, 3.0, 4.0])
        code, recs = run(tmp_path, yaml.safe_dump(cfg), "spanning")
        assert code == EXIT_INFEASIBLE
        r = {(x["T"], x["eps"], x["tau"]): math.inf if x["r"] is None
             else x["r"] for x in recs if x["kind"] == "spanning"}
        assert len(r) == 24 and r[(4.0, 0.05, 3.0)] == 2
        for T, eps in {key[:2] for key in r}:
            by_tau = [r[(T, eps, tau)] for tau in (0.0, 2.0, 3.0, 4.0)]
            assert by_tau == sorted(by_tau, reverse=True), (T, eps, by_tau)

    @pytest.mark.parametrize("key, single", [
        ("tau_list", {"tau": 3.0}), ("eps_list", {"eps": 0.1}),
        ("horizons", {})])
    def test_empty_list_is_refused(self, tmp_path, capsys, key, single):
        # an empty tau_list or eps_list ran the single tau or eps before
        cfg = dict(yaml.safe_load(SPAN_YAML.format(horizons="[4]")),
                   **single, **{key: []})
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        assert main(["--config", str(path), "spanning"]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"config error: {key} must not be empty"


    @pytest.mark.parametrize("edit, message", [
        ({"tau_list": [-1.0, 2.0]},
         "each entry of tau_list must be finite and at least 0.0, not -1.0"),
        ({"eps_list": [-0.1]},
         "each entry of eps_list must be finite and at least 0.0, not -0.1"),
        ({"eps_list": None, "eps": -0.1},
         "eps must be finite and at least 0.0, not -0.1"),
        ({"tau_list": None, "tau": -2.0},
         "tau must be finite and at least 0.0, not -2.0"),
        ({"horizons": [0], "tau_list": [0.0]},
         "each entry of horizons must be finite and above 0.0, not 0.0"),
        ({"horizons": [4, -4]},
         "each entry of horizons must be finite and above 0.0, not -4.0"),
        # from RecurrenceSpec before, naming neither key nor value
        ({"horizons": [4, 1], "tau_list": [0.0, 2.0]},
         "horizons entry 1.0 is below tau_list entry 2.0; each T must be at "
         "least tau"),
        ({"tau_list": None, "tau": 5.0},
         "horizons entry 4.0 is below tau entry 5.0; each T must be at least "
         "tau"),
        # ran before, every record capped
        ({"max_candidates": 0},
         "max_candidates must be finite and at least 1, not 0"),
        ({"max_candidates": -3},
         "max_candidates must be finite and at least 1, not -3"),
        # a horizon that holds no whole segment
        ({"horizons": [1e-10], "tau_list": [0.0]},
         "segment_duration 2.0 must divide the horizon T=1e-10"),
        # an OverflowError traceback (exit 1) before, from the grid's count
        ({"init_delta": 1e-320},
         "init_delta must be positive, finite and large enough for a finite "
         "grid over Q, not 1e-320"),
    ])
    def test_bad_entry_is_refused_by_name(self, tmp_path, capsys, edit,
                                          message):
        # each exited 2 before with a message that named neither the key
        # nor the value, from RecurrenceSpec or ControlSignal
        cfg = {**yaml.safe_load(SPAN_YAML.format(horizons="[4]")), **edit}
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({k: v for k, v in cfg.items()
                                        if v is not None}))
        out = tmp_path / "results.jsonl"
        out.write_text('{"kind": "earlier"}\n')
        capsys.readouterr()
        assert main(["--config", str(path), "--out", str(out),
                     "spanning"]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"config error: {message}"
        assert out.read_text() == '{"kind": "earlier"}\n'


def readme_config(tmp_path) -> dict:
    """The README's minimal config, its paths moved into tmp_path."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md"
            ).read_text()
    cfg = yaml.safe_load(text.split("Minimal config:")[1]
                         .split("```yaml")[1].split("```")[0])
    cfg.update(log_path=str(tmp_path / cfg["log_path"]),
               csv_path=str(tmp_path / cfg["csv_path"]))
    return cfg


class TestConfigKeys:
    def test_readme_config_runs_every_command(self, tmp_path):
        # its steps only set the episode's length; 12 keep this quick
        cfg = dict(readme_config(tmp_path), steps=12)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        for args in (["bounds"], ["spanning"], ["simulate"],
                     ["verify", cfg["log_path"]]):
            out = tmp_path / "out.jsonl"
            assert main(["--config", str(path), "--out", str(out),
                         *args]) == EXIT_OK, args
            assert out.read_text()

    def test_commands_read_every_key(self, tmp_path):
        # every key of the contract is one that some command reads, so a
        # key that none reads cannot sit in it
        class Recorded(dict):
            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                read.add(key)
                return super().__contains__(key)

        read = set()
        cfg = Recorded(readme_config(tmp_path), steps=12, eps_list=[0.1],
                       tau_list=[2.0], max_candidates=24)
        for command in (cli.cmd_bounds, cli.cmd_spanning, cli.cmd_simulate):
            command(cfg, io.StringIO())
        assert read >= set(cli._KEYS["config"]), \
            set(cli._KEYS["config"]) - read

    def test_seed_option_is_refused(self, tmp_path):
        # the config's seed is the one way to set it
        cfg = dict(readme_config(tmp_path))
        del cfg["x0"]
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "results.jsonl"
        out.write_text('{"kind": "earlier"}\n')
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(path), "--out", str(out), "--seed", "1",
                  "simulate"])
        assert exc.value.code == 2
        assert out.read_text() == '{"kind": "earlier"}\n'
        assert not os.path.exists(cfg["log_path"])

    @pytest.mark.parametrize("edit, key, keys", [
        # misspelled keys and a non-string key, each ignored before
        ({"tau_lists": [0.0], "max_point": 4,
          "candidate": {"segment_duraton": 1.0}}, "max_point", "tau_list"),
        ({"candidate": {"values_per_axis": 3, "segment_duraton": 1.0}},
         "segment_duraton", "segment_duration, values_per_axis"),
        ({"system": {"name": "double_integrator", "parms": {"u_max": 1.0}}},
         "parms", "name, params"),
        ({"Q": [{"center": [0.0, 0.0], "radius": [1.0, 1.0], "radus": 1}]},
         "radus", "center, radius"),
        ({1: 2}, 1, "tau_list"),
        # keys that became constants
        ({"max_points": 64}, "max_points", "max_candidates"),
        ({"samples_per_axis": 5}, "samples_per_axis", "steps, system"),
        ({"sweep_values": 9}, "sweep_values", "steps, system"),
        ({"sweep_dt": 0.01}, "sweep_dt", "steps, system"),
    ])
    def test_unknown_key_is_refused(self, tmp_path, capsys, edit, key, keys):
        cfg = {**readme_config(tmp_path), **edit}
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=False))
        out = tmp_path / "results.jsonl"
        out.write_text('{"kind": "earlier"}\n')
        for command in ("bounds", "spanning", "simulate"):
            capsys.readouterr()
            assert main(["--config", str(path), "--out", str(out),
                         command]) == EXIT_CONFIG
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(f"config error: unknown key {key!r} in ")
            assert keys in line, line
            assert out.read_text() == '{"kind": "earlier"}\n'
            assert not os.path.exists(cfg["log_path"])

    def test_two_box_Q_is_refused(self, tmp_path, capsys):
        # Q is one box; bounds and spanning ran on a union of two before
        cfg = dict(readme_config(tmp_path), Q=[
            {"center": [0.0, 0.0], "radius": [1.0, 1.0]},
            {"center": [3.0, 0.0], "radius": [0.5, 0.5]}])
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "results.jsonl"
        out.write_text('{"kind": "earlier"}\n')
        for command in ("bounds", "spanning", "simulate"):
            capsys.readouterr()
            assert main(["--config", str(path), "--out", str(out),
                         command]) == EXIT_CONFIG
            (line,) = capsys.readouterr().err.splitlines()
            assert line == ("config error: Q must be a list of exactly one "
                            "box, a mapping")
            assert out.read_text() == '{"kind": "earlier"}\n'
            assert not os.path.exists(cfg["log_path"])


class TestSimulateVerify:
    @pytest.fixture()
    def sim(self, tmp_path):
        log_path = tmp_path / "ep.jsonl"
        csv_path = tmp_path / "ep.csv"
        text = SIM_YAML.format(log_path=log_path, csv_path=csv_path)
        code, recs = run(tmp_path, text, "simulate")
        return code, recs, log_path, csv_path, text

    def test_simulate_outputs(self, sim):
        code, recs, log_path, csv_path, _ = sim
        assert code == EXIT_OK
        (r,) = recs
        assert r["guarantees"]["tracking"]
        assert r["bit_rate"]["steady_rate"] == 3.0
        assert log_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "t,x1,x2,xhat1,xhat2"

    def test_simulate_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            log_path = tmp_path / f"{tag}.jsonl"
            text = SIM_YAML.format(log_path=log_path, csv_path=tmp_path / f"{tag}.csv")
            code, recs = run(tmp_path, text, "simulate")
            assert code == EXIT_OK
            body = log_path.read_text().replace(str(log_path), "")
            outs.append(body)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("x0", ["[2.0, 0.0]", "[0.0, 0.0, 1.0]"])
    def test_bad_x0_is_config_error(self, tmp_path, capsys, x0):
        # outside Q, and of the wrong dimension
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(SIM_YAML.format(log_path=tmp_path / "ep.jsonl",
                                       csv_path=tmp_path / "ep.csv")
                       .replace("x0: [0.4, -0.2]", f"x0: {x0}"))
        assert main(["--config", str(cfg), "simulate"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "x0" in err
        assert not (tmp_path / "ep.jsonl").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "tau", 1.5),
        ("simulate", "tau", math.nan),
        ("simulate", "tau", math.inf),
        ("simulate", "alpha", -0.1),
        ("simulate", "alpha", math.nan),
        ("simulate", "alpha", math.inf),
        # the reference controller was validated with |u| <= 1
        ("simulate", "system", {"name": "double_integrator",
                                "params": {"u_max": 0.5}}),
        ("simulate", "eps", 0.0),
        ("simulate", "alpha", "fast"),
        ("simulate", "steps", "many"),
        ("simulate", "steps", 0),
        ("simulate", "steps", -3),
        # sweep_dt is removed: each of its values exits 2 as an unknown key
        ("bounds", "sweep_dt", "fast"),
        ("bounds", "sweep_dt", 0.0),
        ("bounds", "sweep_values", 0),  # removed; read as "infinite" before
        ("bounds", "samples_per_axis", 1),  # removed
        # a non-finite constant: an OverflowError traceback before
        ("bounds", "system", {"name": "scalar_linear", "params": {"a": 400}}),
        ("bounds", "tau", -1.0),
        ("spanning", "init_delta", 0.0),
        ("spanning", "init_delta", "fast"),
        ("spanning", "max_candidates", "many"),
        ("spanning", "values_per_axis", 0),  # read as "infeasible" before
        ("spanning", "segment_duration", 0.0),
        ("spanning", "segment_duration", 3.0),  # does not divide T = 4
        ("spanning", "horizons", "48"),
        ("verify", "tau", 1.5),  # in the header of a clean log
        ("verify", "tau", math.nan),
        ("verify", "tau", math.inf),
        ("verify", "alpha", math.nan),
        ("verify", "alpha", math.inf),
        ("verify", "system", {"name": "double_integrator",
                              "params": {"u_max": 0.5}}),
        ("verify", "eps", 1e308),  # rejected before its envelope overflows
        ("bounds", "tau", math.inf),  # an OverflowError traceback before
        ("bounds", "sweep_dt", math.inf),  # removed; read as "infinite" before
        ("bounds", "sweep_dt", 100.0),  # removed; refused above 8 s before
        # integer keys refuse a bool, a string or a fraction
        ("simulate", "steps", 3.7),  # ran 3 steps before
        ("simulate", "seed", True),  # read as 1 before
        ("simulate", "seed", -1),  # a traceback when x0 was drawn
        ("bounds", "samples_per_axis", 2.9),  # removed; read as 2 before
        # a FloatingPointError traceback before: U's grid overflows
        ("bounds", "system", {"name": "scalar_linear",
                              "params": {"u_max": 1e308}}),
        ("spanning", "values_per_axis", 2.5),
        ("spanning", "max_candidates", 24.5),
        # header fields are typed as step fields are: the clean log's own
        # values as strings, a fractional count and a bool
        ("verify", "tau", "2.0"),
        ("verify", "dt", "0.01"),
        ("verify", "steps", "12"),
        ("verify", "total_bits", "79"),
        ("verify", "steps", 4.5),
        ("verify", "alpha", True),
        ("verify", "x0", [0.4, -0.2, 0.0]),  # longer than the step vectors
        # config values follow the header's rule; each ran before unless noted
        ("simulate", "alpha", True),  # read as alpha 1.0
        ("simulate", "eps", "0.1"),
        ("simulate", "x0", [True, 0]),
        ("simulate", "steps", 2.0),  # an int only, as in the header
        ("simulate", "csv_path", [1]),  # a traceback from numpy
        ("spanning", "segment_duration", True),
        # delta_tau inf, which a record wrote as Infinity
        ("bounds", "system", {"name": "scalar_linear",
                              "params": {"a": 1e308}}),
        # U's grid overflows, as in the scalar case above
        ("bounds", "system", {"name": "double_integrator",
                              "params": {"u_max": 1e308}}),
        # delta_tau finite but its region not: a record of infinite
        # region_lo and region_hi before
        ("bounds", "system", {"name": "scalar_linear",
                              "params": {"a": 351.5}}),
        # an OverflowError and a MemoryError traceback before sweep_dt went
        ("bounds", "sweep_dt", 1e-320),
        ("bounds", "sweep_dt", 1e-9),
        # OverflowError tracebacks before, from CandidateClass._segments
        # (1e-320) or from the grid step (1e308, inf)
        ("spanning", "segment_duration", 1e-320),
        ("spanning", "segment_duration", 1e308),
        ("spanning", "segment_duration", math.inf),
        # on a Q of its own dimension
        ("simulate", "system", {"name": "scalar_linear"}),
        # an int too large for a float
        pytest.param("verify", "eps", 10**400, id="verify-eps-10**400"),
    ])
    def test_rejected_input_is_config_error(self, request, tmp_path, capsys,
                                            command, key, value):
        if command in ("bounds", "spanning"):
            cfg = yaml.safe_load(BOUNDS_YAML.format(tau=2.0) if command == "bounds"
                                 else SPAN_YAML.format(horizons="[4]"))
            in_candidate = key in ("values_per_axis", "segment_duration")
            (cfg["candidate"] if in_candidate else cfg)[key] = value
            args = [command]
        else:
            _, _, log_path, _, text = request.getfixturevalue("sim")
            cfg = yaml.safe_load(text)
        if command == "simulate":
            cfg[key] = value
            log_path.unlink()
            args = ["simulate"]
        elif command == "verify":
            lines = log_path.read_text().splitlines()
            lines[0] = json.dumps({**json.loads(lines[0]), key: value})
            log_path.write_text("\n".join(lines) + "\n")
            args = ["verify", str(log_path)]
        if key == "system" and value["name"] == "scalar_linear":
            cfg["Q"] = [{"center": [0.0], "radius": [1.0]}]
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        capsys.readouterr()
        assert main(["--config", str(path), *args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert re.search(rf"\b{key}\b", err), err
        assert command != "simulate" or not log_path.exists()

    @pytest.mark.parametrize("command, edit, key", [
        ("bounds", {"Q": [{"center": [0.0, 0.0],
                           "radius": [math.nan, 1.0]}]}, "radius"),
        ("bounds", {"Q": [{"center": [0.0, 0.0],
                           "radius": [math.inf, 1.0]}]}, "radius"),
        ("bounds", {"Q": [{"center": [True, False],
                           "radius": [1.0, 1.0]}]}, "center"),
        ("bounds", {"system": {"name": "double_integrator",
                               "params": {"u_max": -1}}}, "u_max"),
        ("bounds", {"system": {"name": "double_integrator",
                               "params": {"u_max": "x"}}}, "u_max"),
        ("bounds", {"system": {"name": "scalar_linear",
                               "params": {"a": "fast"}}}, "a"),
        ("bounds", {"system": {"name": "scalar_linear",
                               "params": {"a": math.nan}}}, "a"),
        # in the header of a clean log, which holds the system's name, a
        # string, as run_episodes writes it: a mapping is refused by its key
        ("verify", {"system": {"name": "double_integrator",
                               "params": {"u_max": "x"}}}, "system"),
        ("verify", {"system": {"name": "double_integrator",
                               "params": {"u_max": -1}}}, "system"),
        pytest.param("bounds", {"system": None}, "missing 'system' section",
                     id="bounds-no_system"),
        pytest.param("bounds", {"system": 3},
                     "system must be a name or a mapping", id="bounds-system_3"),
        pytest.param("bounds", {"Q": [{"center": [0.0], "radius": [1.0]}]},
                     r"Q dimension 1 does not match the system \(2",
                     id="bounds-Q_1d"),
        # a Q that the reference controller's sweep does not certify
        pytest.param("verify", {"Q_radius": [3.0, 3.0]},
                     "the reference controller does not certify Q",
                     id="verify-uncertified_Q"),
    ])
    def test_rejected_section_is_config_error(self, request, tmp_path, capsys,
                                              command, edit, key):
        # each ended in a traceback before, or (center) ran
        out = tmp_path / "results.jsonl"
        out.write_text('{"kind": "earlier"}\n')
        before = out.read_bytes()
        if command == "bounds":
            path = tmp_path / "bad.yaml"
            path.write_text(yaml.safe_dump(
                {**yaml.safe_load(BOUNDS_YAML.format(tau=2.0)), **edit}))
            args = ["--config", str(path), "bounds"]
        else:
            _, _, log_path, _, _ = request.getfixturevalue("sim")
            lines = log_path.read_text().splitlines()
            lines[0] = json.dumps({**json.loads(lines[0]), **edit})
            log_path.write_text("\n".join(lines) + "\n")
            args = ["verify", str(log_path)]
        capsys.readouterr()
        assert main(["--out", str(out), *args]) == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error:")
        assert re.search(rf"\b{key}\b", line), line
        assert out.read_bytes() == before

    @pytest.mark.parametrize("key", ["log_path", "csv_path", "--out"])
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, key):
        missing = tmp_path / "nonexistent" / "x"
        paths = {"log_path": tmp_path / "ep.jsonl",
                 "csv_path": tmp_path / "ep.csv", key: missing}
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(SIM_YAML.format(log_path=paths["log_path"],
                                       csv_path=paths["csv_path"]))
        out = paths.get("--out", tmp_path / "out.jsonl")
        if key != "--out":
            out.write_text("kept\n")
        capsys.readouterr()
        code = main(["--config", str(cfg), "--out", str(out), "simulate"])
        assert code == EXIT_CONFIG
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error:") and str(missing) in line
        # a run that fails before its record leaves --out as it was
        assert key == "--out" or out.read_text() == "kept\n"

    @pytest.mark.parametrize("log_path", [2, 5])
    def test_int_log_path_writes_nothing(self, tmp_path, log_path):
        # an int path was opened as a file descriptor: 2 wrote the log to
        # stderr and closed it, 5 ended in a traceback.  Its own process
        # keeps the test's descriptors out of reach.
        path = tmp_path / "bad.yaml"
        path.write_text(SIM_YAML.format(log_path=log_path,
                                        csv_path=tmp_path / "ep.csv"))
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-m", "recurq.cli", "--config", str(path),
             "simulate"], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_CONFIG
        (line,) = done.stderr.splitlines()
        assert line.startswith("config error:") and "log_path" in line
        assert done.stdout == "" and not (tmp_path / "ep.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_uncertified_Q_is_config_error(self, sim, tmp_path, command):
        # from (5, 5) the reference feedback takes about 12 s to return to
        # this Q, so its validation sweep rejects tau = 2: a config error,
        # not a traceback, whether Q comes from a config or a log header
        _, _, log_path, _, text = sim
        far = {"center": [5.0, 5.0], "radius": [0.1, 0.1]}
        if command == "simulate":
            cfg = yaml.safe_load(text)
            cfg.update(Q=[far], x0=[5.0, 5.0])
            path = tmp_path / "far.yaml"
            path.write_text(yaml.safe_dump(cfg))
            args = ["--config", str(path), "simulate"]
        else:
            header, *steps = log_path.read_text().splitlines()
            header = dict(json.loads(header), Q_center=far["center"],
                          Q_radius=far["radius"])
            log_path.write_text("\n".join([json.dumps(header)] + steps) + "\n")
            args = ["verify", str(log_path)]
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-m", "recurq.cli", *args],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_CONFIG
        assert "Traceback" not in done.stderr
        (line,) = done.stderr.splitlines()
        assert line.startswith("config error:") and "certify Q" in line

    def test_verify_clean_log(self, sim, tmp_path):
        code, recs, log_path, _, text = sim
        code, recs = run(tmp_path, text, "verify", str(log_path))
        assert code == EXIT_OK
        (r,) = recs
        assert r["passed"] and not r["record_failures"]

    def test_verify_skips_blank_lines(self, sim, tmp_path):
        # blank lines between, before and after the records are skipped
        _, _, log_path, _, _ = sim
        lines = log_path.read_text().splitlines()
        log_path.write_text("\n" + "\n\n".join(lines) + "\n  \n")
        out = tmp_path / "verify.jsonl"
        assert main(["--out", str(out), "verify", str(log_path)]) == EXIT_OK
        (r,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert r["passed"] and not r["record_failures"]

    def test_verify_reads_no_config(self, sim, tmp_path):
        _, _, log_path, _, _ = sim
        out = tmp_path / "verify.jsonl"
        assert main(["--config", str(tmp_path / "missing.yaml"),
                     "--out", str(out), "verify", str(log_path)]) == EXIT_OK
        (r,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert r["passed"]

    @pytest.mark.parametrize("dt", [0.45, 0.9])
    def test_dt_not_dividing_tau(self, tmp_path, dt):
        # fragments and plant segments both end each tau step at tau
        log_path = tmp_path / "ep.jsonl"
        text = SIM_YAML.format(log_path=log_path, csv_path=tmp_path / "ep.csv")
        code, (r,) = run(tmp_path, text.replace("dt: 0.01", f"dt: {dt}"),
                         "simulate")
        assert code == EXIT_OK and all(r["guarantees"].values())
        code, (r,) = run(tmp_path, text, "verify", str(log_path))
        assert code == EXIT_OK and r["passed"]

    def test_verify_detects_tampering(self, sim, tmp_path):
        code, recs, log_path, _, text = sim
        clean = log_path.read_text().splitlines()

        def shift_x(lines):
            rec = json.loads(lines[4])
            rec["x"][0] += 0.5
            return lines[:4] + [json.dumps(rec)] + lines[5:]

        def edit_header(**fields):
            return lambda lines: [json.dumps({**json.loads(lines[0]),
                                              **fields})] + lines[1:]

        for edit, expected in [
                (shift_x, ("outside S_", "re-run")),
                (edit_header(total_bits=99999), ("total_bits",)),
                (edit_header(steps=500), ("step records",)),
                (lambda lines: lines[:4], ("step records",)),  # 3 of 12 kept
        ]:
            log_path.write_text("\n".join(edit(clean)) + "\n")
            code, recs = run(tmp_path, text, "verify", str(log_path))
            assert code == EXIT_GUARANTEE
            (r,) = recs
            assert not r["passed"]
            assert any(e in f for f in r["record_failures"] for e in expected)

    @pytest.mark.parametrize("j", [0, 5, 11])
    def test_verify_detects_one_ulp(self, sim, tmp_path, j):
        # x_j moved by one ulp is no longer the end of plant segment j - 1
        # (or, for j = 0, the header's x0); verify needs no config
        _, _, log_path, _, _ = sim
        lines = log_path.read_text().splitlines()
        rec = json.loads(lines[1 + j])
        rec["x"][1] = float(np.nextafter(rec["x"][1], np.inf))
        lines[1 + j] = json.dumps(rec)
        log_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "verify.jsonl"
        assert main(["--out", str(out), "verify", str(log_path)]) == \
            EXIT_GUARANTEE
        (r,) = [json.loads(line) for line in out.read_text().splitlines()]
        assert r["record_failures"][0] == f"step {j}: the re-run disagrees on x"

    def test_verify_rejects_every_single_field_mutation(self, tmp_path,
                                                         capsys):
        # each field of the header (but seed, which does not enter a run
        # given x0) and of one step record, set to each bad value in turn
        log_path = tmp_path / "ep.jsonl"
        text = SIM_YAML.format(log_path=log_path, csv_path=tmp_path / "ep.csv")
        assert run(tmp_path, text.replace("steps: 12", "steps: 4"),
                   "simulate")[0] == EXIT_OK
        clean = [json.loads(line) for line in log_path.read_text().splitlines()]
        out = str(tmp_path / "verify.jsonl")
        assert main(["--out", out, "verify", str(log_path)]) == EXIT_OK
        accepted = []
        for line in (0, 2):  # the header and step 1
            for key, old in clean[line].items():
                wrong_length = old + [0.0] if isinstance(old, list) \
                    else [old, old]
                for value in ("fast", None, wrong_length, 0, -1, 1e308):
                    if key == "seed" or value == old:
                        continue
                    body = [dict(rec) for rec in clean]
                    body[line][key] = value
                    log_path.write_text("".join(json.dumps(rec) + "\n"
                                                for rec in body))
                    try:
                        code = main(["--out", out, "verify", str(log_path)])
                    except Exception as exc:
                        code = repr(exc)
                    if code not in (EXIT_CONFIG, EXIT_GUARANTEE):
                        accepted.append((line, key, value, code))
        assert not accepted
        # a state so large that its replayed plant segment overflows
        clean[2]["x"] = [1.5e308, 1.5e308]
        log_path.write_text("".join(json.dumps(rec) + "\n" for rec in clean))
        capsys.readouterr()
        assert main(["verify", str(log_path)]) == EXIT_GUARANTEE
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("guarantee violation:") and "non-finite" in line

    def test_failed_run_leaves_out_file(self, tmp_path):
        out = tmp_path / "results.jsonl"
        out.write_text('{"kind": "earlier"}\n')
        before = out.read_bytes()
        assert main(["--out", str(out), "verify",
                     str(tmp_path / "missing.jsonl")]) == EXIT_CONFIG
        assert out.read_bytes() == before

    def test_verify_malformed_log(self, sim, tmp_path, capsys):
        code, recs, log_path, _, text = sim
        lines = log_path.read_text().splitlines()
        header = json.loads(lines[0])
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        cases = [(["not json at all"], "record 1"),
                 (lines[:2] + ["[1, 2]"] + lines[3:], "record 3"),
                 ([json.dumps(dict(header, system="pendulum"))] + lines[1:],
                  "pendulum")]
        cases += [([json.dumps({k: v for k, v in header.items() if k != key})]
                   + lines[1:], key)
                  for key in ("alpha", "tau", "eps", "seed")]
        # logs that run_episodes never writes, each verified as passed
        # before: a second header ahead of the real one (the last won), the
        # header after the steps, a seed that is not an int, unknown keys
        step = json.loads(lines[1])
        cases += [
            ([json.dumps(dict(header, x0=[0.1, 0.1], alpha=0.5))] + lines,
             "record 2: only step records may follow the header"),
            (lines[1:] + lines[:1],
             "record 1: the first record must be the header"),
            ([json.dumps(dict(header, seed="not a seed"))] + lines[1:],
             "seed is not of type int"),
            ([json.dumps(dict(header, note=1))] + lines[1:],
             "record 1: unknown key 'note'; a header's keys are type, steps"),
            (lines[:1] + [json.dumps(dict(step, note=1))] + lines[2:],
             "record 2: unknown key 'note'; a step's keys are type, i, x"),
            (lines[:1], "log has no step record"),
        ]
        for body, message in cases:
            log_path.write_text("\n".join(body) + "\n")
            assert main(["--config", str(cfg), "verify",
                         str(log_path)]) == EXIT_CONFIG
            assert message in capsys.readouterr().err


# the README's minimal config with x0 omitted, so the config's seed draws
# the start; csv_path is left out too, as the CSV export does not enter the
# log
README_YAML = """\
system: {{name: double_integrator}}
Q:
  - {{center: [0.0, 0.0], radius: [1.0, 1.0]}}
tau: 2.0
eps: 0.1
alpha: 0.1
dt: 0.001
steps: 200
log_path: {log_path}
horizons: [4, 6, 8]
candidate: {{values_per_axis: 3, segment_duration: 2.0}}
init_delta: 0.25
"""

GOLDEN_LOG_SHA256 = {
    0: "30329a22cf6c6318453303ab713ba15ef74900afe0e45f91eaf4cd9ca46381b5",
    1: "6de21615f3d3f5b0ce21558e6a3ec2b6d37932a3e3932a81f13f5091ce00f5d5",
    2: "63bb4ca1053ca1abfff40567b200bfe8b268976e26ff9e33d7f8844bddfc6608",
}


# simulate's CSV of a 3-step run: times, plant states and fragments, which
# a log replays from its records
GOLDEN_CSV_SHA256 = \
    "2522b26c68d581a7cf88e3373623996bac8d54fc35dba58cbbceb99f2bef32fa"


def test_golden_csv(tmp_path):
    csv_path = tmp_path / "ep.csv"
    text = SIM_YAML.format(log_path=tmp_path / "ep.jsonl", csv_path=csv_path)
    code, _ = run(tmp_path, text.replace("steps: 12", "steps: 3"), "simulate")
    assert code == EXIT_OK
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256


@pytest.mark.parametrize("seed", sorted(GOLDEN_LOG_SHA256))
def test_golden_episode_log(tmp_path, seed):
    """simulate writes a byte-identical JSONL log for a pinned config."""
    log_path = tmp_path / "episode.jsonl"
    text = README_YAML.format(log_path=log_path) + f"seed: {seed}\n"
    code, _ = run(tmp_path, text, "simulate")
    assert code == EXIT_OK
    digest = hashlib.sha256(log_path.read_bytes()).hexdigest()
    assert digest == GOLDEN_LOG_SHA256[seed]
    code, recs = run(tmp_path, text, "verify", str(log_path))
    assert code == EXIT_OK
    (r,) = recs
    assert r["passed"] and not r["record_failures"]


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random costs 5.8 MiB of peak RSS, and only simulate's drawn x0
    # needs it, so the import loads it lazily; the module also runs as a
    # script
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, recurq.cli; "
         "print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "False\n")
    done = subprocess.run([sys.executable, "-m", "recurq.cli", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0 and done.stdout.startswith("usage: recurq")
