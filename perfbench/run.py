"""Run one workload of the recurq benchmark and print its metrics.

    python3 perfbench/run.py --workload lockstep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; recurq is imported from its `src/`.  The
run sets up its inputs from the seed, then runs whole passes of the
workload until the passes have taken --seconds, checking every pass's
outputs.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 the run then
installs the wrappers of tracing.py, repeats the set-up and one pass traced,
and reports the per-layer ones.  Every run also writes a result file, and
a traced run its spans, under --out.

--workload all runs the three workloads one after another, each in its
own process, and prints a table.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("lockstep", "spanning", "cli_audit")
#: set-ups per run; setup_s is the median import time plus the median
#: time of the workload's own set-up
SETUP_REPEATS = 5
#: one thread for the load; set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "results"),
                        help="directory for result and trace files")
    return parser.parse_args(argv)


#: the imports a user of recurq pays for, timed in a fresh interpreter
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import numpy, yaml, recurq.cli; "
                "print(time.perf_counter() - t)")


def import_recurq():
    """Import the checkout's recurq; returns (recurq, import times in s).

    The import is timed SETUP_REPEATS times, each in a fresh interpreter
    (one at a time, each waited for), since a module imports only once
    per process.
    """
    src = ROOT / "src"
    if not (src / "recurq" / "__init__.py").is_file():
        raise SystemExit(f"error: no recurq sources under {src}; run from "
                         f"the root of a recurq checkout")
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                               stdout=subprocess.PIPE, text=True, timeout=120,
                               check=True)
        times.append(float(probe.stdout))
    sys.path.insert(0, str(src))
    import recurq
    import recurq.cli  # noqa: F401
    if Path(recurq.__file__).resolve().parent != (src / "recurq").resolve():
        raise SystemExit(f"error: imported recurq from {recurq.__file__}, "
                         f"not from {src}")
    return recurq, times


def git_sha() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


def run_workload(args) -> int:
    recurq, import_times = import_recurq()
    import tracing
    import workloads

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = workloads.WORKLOADS[args.workload](recurq, args.seed,
                                                      workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup()
            setups.append(perf_counter() - t0)

        outs, failed, problems, measured = [], 0, [], 0.0

        def checked(out):
            nonlocal failed
            f, p = workload.check(out)
            failed += f
            problems.extend(p)
            for key in workload.heavy:
                out.pop(key, None)
            outs.append(out)

        while not outs or measured < args.seconds:
            out = workload.run_pass()
            measured += sum(out["parts"].values())
            checked(out)

        # a typical pass: each timed part's median over the passes, summed,
        # so a slow spell of the host in one pass skews one part at most
        parts = {key: statistics.median(o["parts"][key] for o in outs
                                        if key in o["parts"])
                 for key in outs[0]["parts"]}
        wall_s = sum(parts.values())
        if args.trace:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer, recurq)
            try:
                with tracer.root("bench.setup") as root_setup:
                    workload.setup()
                with tracer.root("bench.pass") as root_pass:
                    out = workload.run_pass()
            finally:
                tracing.uninstall(patches)
            checked(out)
            metrics = tracing.layer_metrics(
                tracer, root_setup.duration + root_pass.duration,
                statistics.median(setups) + wall_s,
                root_setup.self_time + root_pass.self_time)
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        else:
            metrics = {
                "setup_s": statistics.median(import_times)
                + statistics.median(setups),
                "wall_s": wall_s,
                "peak_rss_mib": peak_rss_mib(),
            }
            units = end_to_end_units()
        extras = workload.extras(parts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = workload.ops * len(outs)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, passes=len(outs),
                  pass_wall_s=[sum(o["parts"].values()) for o in outs],
                  import_s=import_times, setup_repeats_s=setups,
                  extras=extras,
                  problems=problems[:50], git_sha=git_sha(),
                  python=platform.python_version(),
                  numpy=sys.modules["numpy"].__version__,
                  cpu_count=os.cpu_count(),
                  time=datetime.datetime.now(datetime.timezone.utc)
                  .isoformat(timespec="seconds"))
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{datetime.datetime.now():%Y%m%dT%H%M%S}-{os.getpid()}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(str(out_dir / f"{stem}.spans.jsonl"))

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload}: {len(outs)} passes, {attempted} operations, "
          f"{failed} failed, correct={not problems}")
    for name, value in sorted(extras.items()):
        print(f"  {name} = {value:.6g}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; a table of the end-to-end metrics."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<10} {'metric':<34} {'value':>14}  unit")
    for name, res in results.items():
        print(f"{name:<10} {'attempted / failed':<34} "
              f"{res['attempted']:>8} / {res['failed']:<4}  ops "
              f"(correct={res['correct']})")
        for metric, m in res["metrics"].items():
            print(f"{name:<10} {metric:<34} {m['value']:>14.6g}  {m['unit']}")
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
