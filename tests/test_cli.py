import hashlib
import json
import math
import re

import numpy as np
import pytest
import yaml

from recurq import (CompactSet, ControlSignal, double_integrator,
                    first_return_time)
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
        u = np.linspace(-1.0, 1.0, 9)[None, :, None]
        for rec in r["corner_min_returns"]:
            returns = first_return_time(
                double_integrator(), np.repeat([rec["corner"]], 9, axis=0),
                ControlSignal(20.0, u), CompactSet.box([0.0, 0.0], [1.0, 1.0]),
                20.0, 0.01)
            hits = [t for t in returns if t is not None]
            assert rec["min_return"] == (min(hits) if hits else None)
        assert r["corner_min_returns"][0] == {"corner": [-1.0, -1.0],
                                              "min_return": 2.0}

    @pytest.mark.parametrize("sweep_dt", [0.015625, 0.03])
    def test_sweep_dt_not_dividing_the_horizon(self, tmp_path, sweep_dt):
        # the sweep's one held segment ends on a partial step at 6.8 s
        text = BOUNDS_YAML.format(tau=1.7)
        code, (want,) = run(tmp_path, text + "sweep_dt: 0.01\n", "bounds")
        code, (r,) = run(tmp_path, text + f"sweep_dt: {sweep_dt}\n", "bounds")
        assert code == EXIT_OK
        assert r["verdict"] == "infinite" and r["witness"] == [1.0, 1.0]
        for got, ref in zip(r["corner_min_returns"], want["corner_min_returns"]):
            assert got["corner"] == ref["corner"]
            if sweep_dt == 0.03 and got["min_return"] is None:
                # the return of (1, 1) and (-1, -1) grazes Q at t = 2,
                # which no sample of a 0.03 s grid meets
                assert ref["min_return"] == 2.0
                continue
            assert got["min_return"] == pytest.approx(ref["min_return"],
                                                      rel=0, abs=1e-8)

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
        (r,) = recs
        assert r["greedy_only"] and not r["exact"]

    def test_tau_zero_is_labelled_invariance(self, tmp_path):
        # tau 0 builds the invariance instance that mode: invariance builds;
        # with eps 1 it has a cover
        cfg = dict(yaml.safe_load(SPAN_YAML.format(horizons="[4]")),
                   eps_list=[1.0])
        recs = []
        for edit in ({"tau_list": [0.0]}, {"mode": "invariance"}):
            code, (r,) = run(tmp_path, yaml.safe_dump({**cfg, **edit}),
                             "spanning")
            assert code == EXIT_OK
            recs.append(r)
        zero, inv = recs
        assert zero["mode"] == inv["mode"] == "invariance"
        assert (zero["r"], zero["chosen"]) == (inv["r"], inv["chosen"])


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
        ("bounds", "sweep_dt", "fast"),
        ("bounds", "sweep_dt", 0.0),
        ("bounds", "sweep_values", 0),  # read as "infinite" before
        ("bounds", "samples_per_axis", 1),
        ("bounds", "seed", -1),
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
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(cfg))
        capsys.readouterr()
        assert main(["--config", str(path), *args]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert re.search(rf"\b{key}\b", err), err
        assert command != "simulate" or not log_path.exists()

    def test_verify_clean_log(self, sim, tmp_path):
        code, recs, log_path, _, text = sim
        code, recs = run(tmp_path, text, "verify", str(log_path))
        assert code == EXIT_OK
        (r,) = recs
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
                   + lines[1:], key) for key in ("alpha", "tau", "eps")]
        for body, message in cases:
            log_path.write_text("\n".join(body) + "\n")
            assert main(["--config", str(cfg), "verify",
                         str(log_path)]) == EXIT_CONFIG
            assert message in capsys.readouterr().err


# the README's minimal config with x0 omitted, so --seed draws the start;
# csv_path is left out too, as the CSV export does not enter the log
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


@pytest.mark.parametrize("seed", sorted(GOLDEN_LOG_SHA256))
def test_golden_episode_log(tmp_path, seed):
    """simulate writes a byte-identical JSONL log for a pinned config."""
    log_path = tmp_path / "episode.jsonl"
    text = README_YAML.format(log_path=log_path)
    code, _ = run(tmp_path, text, "--seed", str(seed), "simulate")
    assert code == EXIT_OK
    digest = hashlib.sha256(log_path.read_bytes()).hexdigest()
    assert digest == GOLDEN_LOG_SHA256[seed]
    code, recs = run(tmp_path, text, "verify", str(log_path))
    assert code == EXIT_OK
    (r,) = recs
    assert r["passed"] and not r["record_failures"]
