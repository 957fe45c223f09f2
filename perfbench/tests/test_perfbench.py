"""The benchmark's own tests: tiny workloads run clean, checks catch faults.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

import recurq
import recurq.cli  # noqa: F401
import compare
import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def workdir():
    with tempfile.TemporaryDirectory() as d:
        yield d


def one_pass(workload):
    workload.setup()
    return workload.run_pass()


@pytest.fixture(scope="module")
def lockstep():
    w = workloads.Lockstep(recurq, seed=3, workdir=None,
                           alphas=[0.0, 0.1, 0.5], steps=10)
    return w, one_pass(w)


@pytest.fixture(scope="module")
def spanning():
    family = [(4.0, 0.1, 2.0), (4.0, 0.1, 3.0), (4.0, 0.1, 0.0)]
    w = workloads.Spanning(recurq, seed=3, workdir=None, family=family)
    return w, one_pass(w)


@pytest.fixture(scope="module")
def cli_audit():
    with tempfile.TemporaryDirectory() as d:
        w = workloads.CliAudit(recurq, seed=3, workdir=d, taus=(1.5, 2.0),
                               sim_steps=10)
        yield w, one_pass(w)


# -- tiny workloads complete and pass their checks --------------------------

def test_lockstep_tiny_is_clean(lockstep):
    w, out = lockstep
    assert w.check(out) == (0, [])
    assert len(out["logs"]) == w.ops == 3


def test_spanning_tiny_is_clean(spanning):
    w, out = spanning
    assert w.check(out) == (0, [])
    assert len(out["results"]) == w.ops == 3


def test_cli_audit_tiny_fails_only_the_cut_log(cli_audit):
    w, out = cli_audit
    failed, problems = w.check(out)
    assert problems == []
    # the cut log is accepted with exit 0 today, so exactly it fails
    assert failed == 1
    codes = {kind: code for kind, _, code in out["runs"]}
    assert codes["verify_truncated"] == 0
    assert w.ops == len(out["runs"]) == 2 + 3 + 3 + 1


# -- each check rejects a planted error -------------------------------------

def test_plant_state_off_by_1e_6_is_caught(lockstep):
    w, out = lockstep
    x = out["logs"][1].steps[4].x
    x[0] += 1e-6
    try:
        _, problems = w.check(out)
    finally:
        x[0] -= 1e-6
    assert any("episode 1: step 4: logged state off the exact flow" in p
               for p in problems), problems


def test_wrong_bit_count_is_caught(lockstep):
    w, out = lockstep
    log = out["logs"][0]
    log.total_bits += 1
    try:
        _, problems = w.check(out)
    finally:
        log.total_bits -= 1
    assert any("total_bits" in p for p in problems)


def test_wrong_r_is_caught(spanning):
    w, out = spanning
    key = (4.0, 0.1, 2.0)
    inst, r, chosen = out["results"][key]
    assert math.isfinite(r)
    # a cover one larger than the minimum: still a cover, not the minimum
    extra = next(j for j in range(len(inst.candidates)) if j not in chosen)
    out["results"][key] = (inst, r + 1, sorted(chosen + [extra]))
    try:
        _, problems = w.check(out)
    finally:
        out["results"][key] = (inst, r, chosen)
    assert any(f"a cover of size {r} exists" in p for p in problems), problems


def test_flipped_feasibility_cell_is_caught(spanning):
    w, out = spanning
    inst = out["results"][(4.0, 0.1, 3.0)][0]
    inst.feasibility[2, 5] = not inst.feasibility[2, 5]
    try:
        _, problems = w.check(out)
    finally:
        inst.feasibility[2, 5] = not inst.feasibility[2, 5]
    assert any("1 feasibility cells differ, first [candidate, point] [2, 5]"
               in p for p in problems), problems


def test_wrong_verdict_is_caught(cli_audit):
    w, out = cli_audit
    argv = w.commands[0][2]
    path = argv[argv.index("--out") + 1]
    text = Path(path).read_text()
    rec = json.loads(text)
    assert rec["tau"] == 1.5 and rec["verdict"] == "infinite"
    Path(path).write_text(json.dumps(dict(rec, verdict="finite")) + "\n")
    try:
        _, problems = w.check(out)
    finally:
        Path(path).write_text(text)
    assert problems == ["tau=1.5: verdict finite"]


def test_oracle_flow_matches_closed_form():
    # from (1, 1) full braking returns to the corner's edge at t = 2
    X = np.array([[1.0, 1.0]])
    for _ in range(2000):
        X = oracles.exact_step(X, np.array([-1.0]), 1e-3)
    assert np.allclose(X, [[1.0, -1.0]], atol=1e-12)
    assert [oracles.steady_bits(a) for a in (0.0, 0.1, 0.5)] == [6, 7, 9]


# -- tracing -----------------------------------------------------------------

def test_trace_counts_and_restores(workdir):
    w = workloads.Lockstep(recurq, seed=0, workdir=workdir,
                           alphas=[0.0, 0.5], steps=10)
    march = recurq.systems.march
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, recurq)
    try:
        assert recurq.quantized.march is not march
        with tracer.root("bench.setup") as root_setup:
            w.setup()
        with tracer.root("bench.pass") as root_pass:
            out = w.run_pass()
    finally:
        tracing.uninstall(patches)
    assert recurq.quantized.march is march is recurq.systems.march
    assert recurq.systems.BUILTIN_SYSTEMS["double_integrator"] is \
        recurq.systems.double_integrator
    assert w.check(out) == (0, [])

    wall = root_setup.duration + root_pass.duration
    m = tracing.layer_metrics(tracer, wall, wall, root_setup.self_time
                              + root_pass.self_time)
    assert set(m) == {name for name, _, _ in tracing.LAYER_METRICS}
    assert m["quantized.bits_sent"] == sum(log.total_bits
                                           for log in out["logs"])
    # per tau step one batched sensor, receiver and plant march of 2000 RK4
    # steps; the set-up validates the controller from 16 grid states (1200
    # steps each) and samples 200 pairs x 3 inputs for the Lipschitz bound
    assert m["systems.integrate_calls"] == 10
    assert m["quantized.closed_loop_calls"] == 2 * 10 + 16
    assert m["systems.march_calls"] == 3 * 10 + 16
    assert m["geometry.quantize_calls"] == 2 * 10
    assert m["systems.rk4_row_steps"] == 3 * 10 * 2000 * 2 + 16 * 1200
    assert m["systems.field_evals"] == 4 * (3 * 10 * 2000 + 16 * 1200) \
        + 200 * 3 * 2
    # self times and the benchmark's own time add up to the traced wall
    layer = sum(v for k, v in m.items()
                if k.endswith("_s") and not k.startswith("trace."))
    assert layer + m["trace.unattributed_s"] == pytest.approx(wall, rel=1e-6)


def test_counts_repeat(workdir):
    def traced_counts(seed):
        w = workloads.Spanning(recurq, seed=seed, workdir=workdir,
                               family=[(4.0, 0.05, 2.0), (4.0, 0.05, 0.0)])
        tracer = tracing.Tracer()
        patches = tracing.install(tracer, recurq)
        try:
            w.setup()
            w.run_pass()
        finally:
            tracing.uninstall(patches)
        m = tracing.layer_metrics(tracer, 1.0, 1.0, 0.0)
        return {name: m[name] for name, unit, _ in tracing.LAYER_METRICS
                if unit in ("count", "bits")}

    first = traced_counts(1)
    assert first["systems.integrate_calls"] == 2 * 9 * 16
    assert first == traced_counts(2)


# -- the benchmark's description and its comparison ---------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.LAYER_METRICS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "peak_rss_mib"}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_compare_verdicts():
    a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in a]
    same = [v * 1.01 for v in a]
    slower = [v * 1.3 for v in a]
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]

    def run(values, better="lower"):
        matched = list(zip(a, values))
        return compare.verdict(a, values, matched, 0.1, better)[0]

    assert run(faster) == "improved"
    assert run(same) == "unchanged"
    assert run(slower) == "worse"
    assert run(noisy) == "unresolved"
    assert run(faster, better="higher") == "worse"
