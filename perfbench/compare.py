"""Compare two result sets of the recurq benchmark.

    python3 perfbench/compare.py RESULTS_A RESULTS_B

Each argument is a directory of result files written by run.py (--out),
A from the parent commit and B from the change, made as alternating runs
with the same seeds.  For every workload and end-to-end metric it prints
each side's median and quartiles, the share of seed-matched pairs that B
won, and a verdict from the metric's bound in BENCHMARK.json:

- improved: B wins at least 9 pairs in 10 and the medians differ by more
  than A's quartile spread, in B's favour;
- unresolved: either side's quartile spread exceeds the bound, unless B
  improved (by the rule above) or every B run beats every A run;
- worse: B's median is worse than A's by more than the bound;
- unchanged: otherwise.

Traced runs (--trace 1) are summarised by their tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list:
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as fh:
            runs.append(json.load(fh))
    return runs


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(a_runs: list, b_runs: list, metric: str) -> list:
    """(a, b) values of runs with the same seed, in the order they ran."""
    by_seed = {}
    for run in b_runs:
        by_seed.setdefault(run["seed"], []).append(
            run["metrics"][metric]["value"])
    out = []
    for run in a_runs:
        bs = by_seed.get(run["seed"])
        if bs:
            out.append((run["metrics"][metric]["value"], bs.pop(0)))
    return out


def verdict(a: list, b: list, matched: list, bound: float,
            better: str) -> tuple:
    """(verdict, share of pairs B won) for one metric's two sides."""
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    wins = sum(sign * (vb - va) > 0 for va, vb in matched)
    share = wins / len(matched) if matched else 0.0
    gain = sign * (qb[1] - qa[1])
    if matched and share >= 0.9 and gain > qa[2] - qa[0]:
        return "improved", share
    spread = max((qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0,
                 (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0)
    if spread > bound:
        all_better = (min(b) > max(a)) if better == "higher" \
            else (max(b) < min(a))
        return ("improved" if all_better else "unresolved"), share
    if -gain > bound * abs(qa[1]):
        return "worse", share
    return "unchanged", share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="result directory of the parent (A)")
    parser.add_argument("b", help="result directory of the change (B)")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    runs_a, runs_b = load(args.a), load(args.b)

    print(f"{'workload':<10} {'metric':<13} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B won':>6}  verdict")
    for wl in spec["workloads"]:
        name = wl["name"]
        a = [r for r in runs_a if r["workload"] == name and not r["trace"]]
        b = [r for r in runs_b if r["workload"] == name and not r["trace"]]
        if not a or not b:
            print(f"{name:<10} (no untraced runs on one side)")
            continue
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a]
            vb = [r["metrics"][m["name"]]["value"] for r in b]
            matched = pairs(a, b, m["name"])
            v, share = verdict(va, vb, matched, m["bound"], m["better"])
            sa, sb = (f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
                      for q in (quartiles(va), quartiles(vb)))
            print(f"{name:<10} {m['name']:<13} {sa:>30} {sb:>30} "
                  f"{share:>6.0%}  {v}")
        for side, runs in (("A", a), ("B", b)):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            wrong = sum(not r["correct"] for r in runs)
            print(f"{name:<10} {side}: {len(runs)} runs, {failed}/{attempted}"
                  f" operations failed, {wrong} runs with failed checks")

    for side, runs in (("A", runs_a), ("B", runs_b)):
        for wl in spec["workloads"]:
            traced = [r for r in runs
                      if r["workload"] == wl["name"] and r["trace"]]
            if traced:
                over = statistics.median(
                    r["metrics"]["trace.overhead_s"]["value"] for r in traced)
                wall = statistics.median(
                    r["metrics"]["trace.wall_s"]["value"] for r in traced)
                print(f"{side} {wl['name']}: tracing overhead {over:.4g} s "
                      f"of traced {wall:.4g} s ({len(traced)} traced runs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
