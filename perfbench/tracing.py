"""Span tracing of opscale's layers from outside the package.

`Tracer.install()` replaces each hooked public function of opscale, at
every module attribute that holds it (the defining module, the package
namespace and every module that imported it by name), with a wrapper
that records one span per call: name, start, end, parent span and the
id of the benchmark's top-level call.  `CPMap` is hooked through its
`__init__` so that type checks and attribute access stay untouched.
`uninstall()` puts every original back.

Spans stay in memory; `layer_metrics` turns them into per-pass
per-layer numbers and `dump` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from array import array

# (span name, defining module, attribute, note).  A note turns the call's
# return value into a small value kept on the span.
HOOKS = (
    ("cpmap.apply", "opscale.cpmap", "apply", None),
    ("cpmap.dual_apply", "opscale.cpmap", "dual_apply", None),
    ("cpmap.balance_factor", "opscale.cpmap", "balance_factor", None),
    ("cpmap.scale", "opscale.cpmap", "scale", None),
    ("relmetrics.ds_from_marginals", "opscale.relmetrics", "ds_from_marginals", None),
    ("relmetrics.log_relative_det", "opscale.relmetrics", "log_relative_det", None),
    ("scaler.solve", "opscale.scaler", "triangular_scale", "solve"),
    ("scaler.solve", "opscale.scaler", "general_scale", "solve"),
    ("scaler.project_to_support", "opscale.scaler", "project_to_support", "partial"),
    ("scaler.lift_pair", "opscale.scaler", "lift_pair", None),
    ("feasibility.bit_complexity", "opscale.feasibility", "bit_complexity", None),
    ("feasibility.certificate_epsilon", "opscale.feasibility", "certificate_epsilon", None),
    ("feasibility.decide_scalable", "opscale.feasibility", "decide_scalable", "verdict"),
    ("apps.build_cpmap", "opscale.apps", "build_matrix_cpmap", "kraus_bytes"),
    ("apps.build_cpmap", "opscale.apps", "build_horn_cpmap", "kraus_bytes"),
    ("apps.build_cpmap", "opscale.apps", "build_forster_cpmap", "kraus_bytes"),
    ("apps.solve", "opscale.apps", "matrix_scale", None),
    ("apps.solve", "opscale.apps", "horn_solve", None),
    ("apps.solve", "opscale.apps", "forster_scale", None),
    ("apps.solve", "opscale.apps", "schur_horn", None),
    ("cli.main", "opscale.cli", "main", None),
    ("cli.parse_instance", "opscale.cli", "parse_instance", None),
    ("cli.dumps_report", "opscale.cli", "dumps_report", None),
)
CPMAP_SPAN = "cpmap.CPMap"
STATUSES = ("SUCCESS", "ERROR_NOT_PD", "ERROR_BUDGET", "ERROR_SINGULAR_INIT")
CONCLUSIVE = ("FEASIBLE", "INFEASIBLE")


def _note(kind, result):
    if kind == "solve":
        return (result.status, int(result.iterations))
    if kind == "partial":
        return not result[2].full
    if kind == "verdict":
        return result.verdict
    if kind == "kraus_bytes":
        # Dense complex128 storage of the Kraus list, computed from its shape.
        return result.r * result.m * result.n * 16
    return None


class Tracer:
    """Records nested spans; one instance per traced phase of a run.

    Spans are stored column-wise in flat arrays, so recording them
    allocates no object the garbage collector has to walk.  `spans()`
    returns them as tuples (name, start, end, parent, call_id,
    child_time, exception, note); `parent` is an index into that list,
    -1 for a top-level call.
    """

    def __init__(self):
        self.names = []
        self.start, self.end, self.child = array("d"), array("d"), array("d")
        self.parent, self.call_ids = array("q"), array("q")
        self.exceptions, self.notes = {}, {}
        self._stack = []
        self._restore = []
        self.missing = []
        self.call_id = -1

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call_ids.append(self.call_id)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        now = time.perf_counter()
        self.end[idx] = now
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += now - self.start[idx]

    def spans(self):
        return [(self.names[i], self.start[i], self.end[i], self.parent[i],
                 self.call_ids[i], self.child[i], self.exceptions.get(i),
                 self.notes.get(i)) for i in range(len(self.names))]

    def call(self, call_id, fn, *args, **kwargs):
        """Run one top-level benchmark call inside a root span."""
        self.call_id = call_id
        idx = self.open("call")
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _wrap(self, name, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer.exceptions[idx] = type(err).__name__
                raise
            finally:
                tracer.close(idx)
            if note is not None:
                tracer.notes[idx] = _note(note, result)
            return result

        return traced

    def install(self):
        import opscale  # noqa: F401  (loads every submodule)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "opscale" or n.startswith("opscale."))]
        for name, modname, attr, note in HOOKS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, original, note)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        cls = sys.modules["opscale.cpmap"].CPMap
        init = cls.__init__
        cls.__init__ = self._wrap(CPMAP_SPAN, init, None)
        self._restore.append((cls, "__init__", init))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def dump(self, path):
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_s", "end_s", "parent",
                                 "call_id", "child_s", "exception", "note"]) + "\n")
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


def _ancestor_named(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _pass_metrics(spans):
    """Per-layer numbers over the spans of one pass of the workload pool."""
    calls, self_s = {}, {}
    for name, start, end, _p, _c, child, _e, _n in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child)
    out = {}
    layers = sorted({h[0] for h in HOOKS} | {CPMAP_SPAN})
    for name in layers:
        key = "constructions" if name == CPMAP_SPAN else "calls"
        out[f"{name}.{key}"] = calls.get(name, 0)
        out[f"{name}.self_ms"] = 1e3 * self_s.get(name, 0.0)
    out["cpmap.balance_factor.not_pd"] = sum(
        1 for s in spans
        if s[0] == "cpmap.balance_factor" and s[6] == "NotPositiveDefinite")

    # Solver runs: outermost solve spans only, so a solver that calls
    # another public solver is counted once.
    solves = [i for i, s in enumerate(spans)
              if s[0] == "scaler.solve" and s[7] is not None
              and not _ancestor_named(spans, i, "scaler.solve")]
    iterations = sum(spans[i][7][1] for i in solves)
    out["scaler.iterations"] = iterations
    for status in STATUSES:
        out[f"scaler.status.{status}"] = sum(1 for i in solves if spans[i][7][0] == status)
    excluded = ("feasibility.bit_complexity", "scaler.project_to_support",
                "scaler.lift_pair")
    loop_s = sum(spans[i][2] - spans[i][1] for i in solves)
    loop_s -= sum(s[2] - s[1] for i, s in enumerate(spans)
                  if s[0] in excluded and _ancestor_named(spans, i, "scaler.solve"))
    out["scaler.loop_us_per_iter"] = 1e6 * loop_s / iterations if iterations else 0.0
    # A lift runs once per solver run on a partial support that got past
    # initialization; every further lift_pair call is one fill shrink.
    lifts = sum(1 for s in spans
                if s[0] == "scaler.project_to_support" and s[7] and s[3] >= 0
                and spans[s[3]][0] == "scaler.solve" and spans[s[3]][7] is not None
                and spans[s[3]][7][0] != "ERROR_SINGULAR_INIT")
    out["scaler.lift_fill_shrinks"] = out["scaler.lift_pair.calls"] - lifts

    verdicts = [s[7] for s in spans if s[0] == "feasibility.decide_scalable"]
    out["feasibility.conclusive_ratio"] = (
        sum(v in CONCLUSIVE for v in verdicts) / len(verdicts) if verdicts else 0.0)
    out["apps.kraus_bytes_max"] = max(
        (s[7] for s in spans if s[0] == "apps.build_cpmap"), default=0)
    out["cli.rebuild_ms"] = 1e3 * sum(
        s[2] - s[1] for s in spans
        if (s[0].startswith("apps.build") or s[0].startswith("cpmap."))
        and s[3] >= 0 and spans[s[3]][0] == "cli.main")
    return out


# Metrics that are times; the rest are counts fixed by the pool.
_TIMED = ("self_ms", "loop_us_per_iter", "rebuild_ms")


def layer_metrics(spans, pass_of_call):
    """Per-layer metrics of one pass: counts from the first traced pass,
    times as the median over traced passes.

    `pass_of_call` maps a top-level call id to its pass number.  Returns
    (metrics, whether every traced pass repeated the first pass's counts).
    """
    by_pass = {}
    for idx, span in enumerate(spans):
        by_pass.setdefault(pass_of_call[span[4]], []).append(idx)
    per_pass = []
    for _pass, idxs in sorted(by_pass.items()):
        local = {old: new for new, old in enumerate(idxs)}
        sub = []
        for old in idxs:
            s = list(spans[old])
            s[3] = local.get(s[3], -1)
            sub.append(s)
        per_pass.append(_pass_metrics(sub))
    first = per_pass[0]
    out = {key: statistics.median(p[key] for p in per_pass) if key.endswith(_TIMED) else val
           for key, val in first.items()}
    repeat = all(p[k] == first[k] for p in per_pass for k in first if not k.endswith(_TIMED))
    return out, repeat


UNITS = {
    "calls": "count", "constructions": "count", "not_pd": "count",
    "self_ms": "ms", "loop_us_per_iter": "us", "iterations": "count",
    "lift_fill_shrinks": "count", "conclusive_ratio": "ratio",
    "kraus_bytes_max": "B_computed", "rebuild_ms": "ms", "overhead_pct": "%",
}


def unit_of(metric):
    if metric.startswith("scaler.status."):
        return "count"
    return UNITS[metric.rsplit(".", 1)[1]]
