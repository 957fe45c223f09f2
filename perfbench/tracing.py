"""Spans and counters around calls into recurq's modules, for the traced run.

The wrappers live here, in the benchmark, not in the program.  `install`
replaces each traced function wherever a caller looks it up: the module
that defines it and every recurq module that imported it by name (for
example `quantized.closed_loop` reaches `march` through `recurq.quantized`).
`uninstall` puts the originals back.  An untraced run never calls either.

Three kinds of wrapper:

- span: records (id, name, parent id, start, end) and the call's self time,
  its duration minus the time of the wrapped calls it made;
- timed counter: for calls made once per sample (`Box.contains`,
  `geometry.distance`); a call count and the summed time, no span record;
- bare counter: for the vector field; a call count only.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import defaultdict
from time import perf_counter

#: every per-layer metric a traced run reports: (name, unit, better)
LAYER_METRICS = [
    ("systems.march_calls", "count", "lower"),
    ("systems.march_s", "s", "lower"),
    ("systems.rk4_row_steps", "count", "lower"),
    ("systems.field_evals", "count", "lower"),
    ("systems.integrate_calls", "count", "lower"),
    ("systems.integrate_s", "s", "lower"),
    ("systems.rk4_step_calls", "count", "lower"),
    ("systems.rk4_step_s", "s", "lower"),
    ("recurrence.first_return_time_calls", "count", "lower"),
    ("recurrence.first_return_time_s", "s", "lower"),
    ("recurrence.lipschitz_region_s", "s", "lower"),
    ("recurrence.is_recurrent_calls", "count", "lower"),
    ("recurrence.is_recurrent_s", "s", "lower"),
    ("recurrence.is_invariant_s", "s", "lower"),
    ("recurrence.estimate_L_s", "s", "lower"),
    ("geometry.contains_calls", "count", "lower"),
    ("geometry.contains_s", "s", "lower"),
    ("geometry.distance_calls", "count", "lower"),
    ("geometry.distance_s", "s", "lower"),
    ("geometry.distance_many_s", "s", "lower"),
    ("geometry.quantize_calls", "count", "lower"),
    ("geometry.quantize_s", "s", "lower"),
    ("geometry.grid_s", "s", "lower"),
    ("entropy.build_instance_s", "s", "lower"),
    ("entropy.branch_and_bound_s", "s", "lower"),
    ("entropy.lower_bound_s", "s", "lower"),
    ("entropy.feasible_ratio", "ratio", "higher"),
    ("quantized.closed_loop_calls", "count", "lower"),
    ("quantized.closed_loop_s", "s", "lower"),
    ("quantized.run_episodes_s", "s", "lower"),
    ("quantized.controller_build_s", "s", "lower"),
    ("quantized.verify_guarantees_s", "s", "lower"),
    ("quantized.retained_mib", "MiB", "lower"),
    ("quantized.bits_sent", "bits", "lower"),
    ("cli.corner_return_sweep_s", "s", "lower"),
    ("cli.jsonl_write_s", "s", "lower"),
    ("cli.jsonl_read_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]


class Tracer:
    """Spans and counters of one traced region, kept in memory."""

    def __init__(self):
        self.spans = []                     # (id, name, parent, start, end)
        self.self_s = defaultdict(float)    # name -> summed self time
        self.calls = defaultdict(int)       # name -> calls
        self.extra = defaultdict(float)     # counts noted from results
        self._next_id = 1
        # a frame is [child time, span id]; the bottom frame is the root
        self._stack = [[0.0, 0]]
        self._cells = {}                    # bare counters: name -> [count]

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, note=None):
        stack, spans, self_s, calls = (self._stack, self.spans, self.self_s,
                                       self.calls)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                parent[0] += t1 - t0
                self_s[name] += (t1 - t0) - frame[0]
                calls[name] += 1
                spans.append((sid, name, parent[1], t0, t1))
            if note is not None:
                note(self.extra, result)
            return result

        return _named(wrapper, fn)

    def timed_counter(self, name, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack[-1][0] += d
                self_s[name] += d
                calls[name] += 1

        return _named(wrapper, fn)

    def counter(self, name, fn):
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return _named(wrapper, fn)

    def root(self, name):
        """Context manager for a span of the benchmark's own code."""
        return _Root(self, name)

    def counts(self) -> dict:
        out = dict(self.calls)
        out.update({k: c[0] for k, c in self._cells.items()})
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            for sid, name, parent, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "parent": parent, "start": t0,
                                     "end": t1}) + "\n")


class _Root:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tracer = self.tracer
        self.sid = tracer._next_id
        tracer._next_id += 1
        self.frame = [0.0, self.sid]
        tracer._stack.append(self.frame)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        tracer = self.tracer
        self.t1 = perf_counter()
        tracer._stack.pop()
        self.duration = self.t1 - self.t0
        self.self_time = self.duration - self.frame[0]
        tracer.spans.append((self.sid, self.name, 0, self.t0, self.t1))
        return False


def _named(wrapper, fn):
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    return wrapper


# --------------------------------------------------------------------------
# what is wrapped

def _note_march(extra, result):
    # march returns the states, shape (steps + 1,) + x0.shape
    rows = result.shape[1] if result.ndim == 3 else 1
    extra["systems.rk4_row_steps"] += (result.shape[0] - 1) * rows


def _note_episodes(extra, result):
    nbytes = 0
    for log in result:
        # a log that stops keeping one of these arrays retains less
        for name in ("frag_states", "frag_u", "plant_states"):
            nbytes += sum(a.nbytes for a in getattr(log, name, None) or ())
        extra["quantized.bits_sent"] += log.total_bits
    extra["quantized.retained_mib"] += nbytes / 2**20


def _note_instance(extra, result):
    extra["entropy.feasible_cells"] += int(result.feasibility.sum())
    extra["entropy.cells"] += int(result.feasibility.size)


def _targets(recurq):
    """(owner, attribute, metric name, kind, note) for every traced call."""
    g, s, r, e, q, c = (recurq.geometry, recurq.systems, recurq.recurrence,
                        recurq.entropy, recurq.quantized, recurq.cli)
    return [
        (s, "march", "systems.march", "span", _note_march),
        (s, "integrate", "systems.integrate", "span", None),
        (s, "rk4_step", "systems.rk4_step", "span", None),
        (r, "first_return_time", "recurrence.first_return_time", "span", None),
        (r, "lipschitz_region", "recurrence.lipschitz_region", "span", None),
        (r, "is_recurrent", "recurrence.is_recurrent", "span", None),
        (r, "is_invariant", "recurrence.is_invariant", "span", None),
        (r, "estimate_L", "recurrence.estimate_L", "span", None),
        (g, "distance_many", "geometry.distance_many", "span", None),
        (g, "grid", "geometry.grid", "span", None),
        (g.GridCover, "quantize", "geometry.quantize", "span", None),
        (g.Box, "contains", "geometry.contains", "timed", None),
        (g, "distance", "geometry.distance", "timed", None),
        (e, "build_spanning_instance", "entropy.build_instance", "span",
         _note_instance),
        (e, "min_spanning_cardinality", "entropy.branch_and_bound", "span",
         None),
        (e, "lower_bound", "entropy.lower_bound", "span", None),
        (q, "closed_loop", "quantized.closed_loop", "span", None),
        (q, "run_episodes", "quantized.run_episodes", "span", _note_episodes),
        (q, "build_feedback_controller", "quantized.controller_build", "span",
         None),
        (q, "verify_guarantees", "quantized.verify_guarantees", "span", None),
        (c, "corner_return_sweep", "cli.corner_return_sweep", "span", None),
        (q.EpisodeLog, "to_jsonl", "cli.jsonl_write", "span", None),
        (q, "load_step_records", "cli.jsonl_read", "span", None),
        (c, "main", "cli.main", "span", None),
    ]


def _recurq_modules():
    return [m for name, m in sorted(sys.modules.items()) if m is not None
            and (name == "recurq" or name.startswith("recurq."))]


def install(tracer: Tracer, recurq) -> list:
    """Wrap every traced call; returns the patches for `uninstall`."""
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    modules = _recurq_modules()
    for owner, attr, name, kind, note in _targets(recurq):
        original = owner.__dict__.get(attr)
        if original is None:  # gone from the program: its metrics read 0
            continue
        if kind == "span":
            wrapped = tracer.span(name, original, note)
        else:
            wrapped = tracer.timed_counter(name, original)
        if isinstance(owner, type):
            patch(owner, attr, wrapped)
            continue
        # every module binding of the function, so callers that imported
        # it by name reach the wrapper too
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patch(mod, key, wrapped)

    # the vector field is a closure built per system: wrap the factories,
    # so systems made while tracing count their field evaluations
    systems = recurq.systems
    for key, factory in list(systems.BUILTIN_SYSTEMS.items()):
        counted = _counted_factory(tracer, factory)
        patches.append((systems.BUILTIN_SYSTEMS, key, factory))
        systems.BUILTIN_SYSTEMS[key] = counted
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is factory:
                    patch(mod, attr, counted)
    return patches


def uninstall(patches: list):
    for owner, attr, original in reversed(patches):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


def _counted_factory(tracer, factory):
    def make(*args, **kwargs):
        system = factory(*args, **kwargs)
        return dataclasses.replace(
            system, field=tracer.counter("systems.field_evals", system.field))

    return _named(make, factory)


def layer_metrics(tracer: Tracer, wall_s: float, untraced_s: float,
                  unattributed_s: float) -> dict:
    """Every metric of LAYER_METRICS from one traced region.

    wall_s is the region's traced duration and untraced_s the same work's
    duration without wrappers, measured in the same process.
    """
    counts = tracer.counts()
    extra = tracer.extra
    values = {}
    for name, unit, _ in LAYER_METRICS:
        if name.endswith("_calls"):
            values[name] = counts.get(name[:-len("_calls")], 0)
        elif unit == "s" and not name.startswith("trace."):
            values[name] = tracer.self_s.get(name[:-len("_s")], 0.0)
    values["systems.field_evals"] = counts.get("systems.field_evals", 0)
    values["systems.rk4_row_steps"] = int(extra["systems.rk4_row_steps"])
    values["quantized.bits_sent"] = int(extra["quantized.bits_sent"])
    values["quantized.retained_mib"] = extra["quantized.retained_mib"]
    cells = extra["entropy.cells"]
    values["entropy.feasible_ratio"] = (extra["entropy.feasible_cells"] / cells
                                        if cells else 0.0)
    values["trace.wall_s"] = wall_s
    values["trace.overhead_s"] = wall_s - untraced_s
    values["trace.unattributed_s"] = unattributed_s
    return values
