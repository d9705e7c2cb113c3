"""opscale benchmark: run one workload (or all) and report its metrics.

    python3 perfbench/run.py --workload decide-3x4 --seed 1 --seconds 40 --trace 0

Run from the repository root; opscale is imported from ./src.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Every run also writes a result file
under perfbench/results/ with a run header, both metric sets it measured,
status/verdict counts and the first failures; a traced run also writes
its spans there.  `--workload all` runs each workload in its own process
and prints every metric of every workload by name with its unit.

A run draws the workload's instance pool from --seed, makes a warm-up,
then times whole passes over the pool for up to --seconds (at least one
pass and MIN_CALLS calls), and checks every call's output.  A traced run
alternates untraced and traced passes and reports the difference of
their median calls as trace.overhead_pct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracing import Tracer, layer_metrics, unit_of

# The BLAS pool is pinned before numpy loads: on small instances a second
# OpenBLAS thread makes calls several times slower on a 2-core machine.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
NAMES = ("decide-3x4", "dense-solve", "cli-apps")
MIN_CALLS = 100
SETUP_REPEATS = 3

E2E_UNITS = {"setup_s": "s", "calls_per_s": "1/s", "call_ms_p50": "ms",
             "call_ms_p90": "ms", "iterations_total": "count", "peak_rss_mb": "MB"}


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_opscale():
    """Import opscale from ./src, and only from there; returns seconds taken."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import opscale
    elapsed = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(opscale.__file__))
    if where != os.path.join(ROOT, "src", "opscale"):
        raise ImportError(f"opscale was imported from {where}, not from ./src")
    return elapsed


def git_commit():
    try:
        out = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                              "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_header(name, seed, seconds, trace, params):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "params": params, "git_commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "platform": platform.platform(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"},
        "min_calls": MIN_CALLS, "setup_repeats": SETUP_REPEATS,
    }


class Phase:
    """Timed passes over the pool, with or without a tracer."""

    def __init__(self, workload, pool, tracer=None):
        self.workload, self.pool, self.tracer = workload, pool, tracer
        self.durations = []       # seconds per call, all passes
        self.pass_times = []      # summed call seconds per pass
        self.pass_of_call = {}
        self.outcomes = []        # first pass: per pool item
        self.failures = []
        self.attempted = 0

    def _call(self, call_id, item):
        if self.tracer is None:
            return self.workload.call(item)
        return self.tracer.call(call_id, self.workload.call, item)

    def run_pass(self):
        """Call every pool item once, timing and then checking each call."""
        from workloads import Outcome

        pass_no = len(self.pass_times)
        total = 0.0
        for pos, item in enumerate(self.pool):
            call_id = len(self.durations)  # unique within this phase
            self.pass_of_call[call_id] = pass_no
            t0 = time.perf_counter()
            try:
                out = self._call(call_id, item)
            except Exception:  # a call that raises counts as failed
                dt = time.perf_counter() - t0
                outcome = Outcome(False, detail=traceback.format_exc(limit=3)[-400:])
            else:
                dt = time.perf_counter() - t0
                outcome = self.workload.check(item, out)
            total += dt
            self.durations.append(dt)
            self.attempted += 1
            key = (outcome.iterations, outcome.status, outcome.verdict)
            if pass_no == 0:
                self.outcomes.append(outcome)
            elif outcome.ok and key != (self.outcomes[pos].iterations,
                                        self.outcomes[pos].status,
                                        self.outcomes[pos].verdict):
                outcome.ok = False
                outcome.detail = f"item {pos}: pass {pass_no} gave {key}, pass 0 differed"
            if not outcome.ok:
                self.failures.append(outcome.detail)
        self.pass_times.append(total)

    def metrics(self):
        q = statistics.quantiles(self.durations, n=10, method="inclusive")
        return {
            "calls_per_s": statistics.median(len(self.pool) / t for t in self.pass_times),
            "call_ms_p50": 1e3 * statistics.median(self.durations),
            "call_ms_p90": 1e3 * q[8],
            "iterations_total": sum(o.iterations for o in self.outcomes),
        }


def run_passes(steps, seconds, enough):
    """Run `steps` (a function doing one round of passes) at least until
    `enough()`, and then only while another round should end within
    `seconds`, so the run takes no longer than asked once the minimum
    is met."""
    started = last = time.perf_counter()
    round_wall = 0.0
    while not enough() or last - started + round_wall <= seconds:
        steps()
        now = time.perf_counter()
        round_wall, last = now - last, now


def _counts(outcomes, field):
    out = {}
    for o in outcomes:
        val = getattr(o, field)
        if val is not None:
            out[val] = out.get(val, 0) + 1
    return dict(sorted(out.items()))


def measure(name, seed, seconds, trace, import_s=0.0, params=None, results_dir=RESULTS):
    """Run one workload in this process and return its result record.

    opscale must already be imported; `import_s`, the time that took, is
    part of setup_s.
    """
    import workloads  # loads numpy, so only after pin_threads()

    t0 = time.perf_counter()
    os.makedirs(results_dir, exist_ok=True)
    workdir = os.path.join(results_dir, f"work-{name}-{seed}-{os.getpid()}")
    wl = workloads.WORKLOADS[name](seed, params or {}, workdir)
    try:
        gen_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            pool = wl.generate()
            gen_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(gen_times)

        warm = Phase(wl, pool[:8])
        warm.run_pass()
        plain = Phase(wl, pool)
        phases = [warm, plain]
        layers = None
        if not trace:
            run_passes(plain.run_pass, seconds, lambda: len(plain.durations) >= MIN_CALLS)
        else:
            # Untraced and traced passes alternate, so that both see the
            # same machine load.
            tracer = Tracer()
            traced = Phase(wl, pool, tracer)
            phases.append(traced)

            def both():
                plain.run_pass()
                tracer.install()
                try:
                    traced.run_pass()
                finally:
                    tracer.uninstall()

            run_passes(both, seconds, lambda: bool(traced.pass_times))
        e2e = {"setup_s": setup_s, **plain.metrics(),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if trace:
            layers, counts_repeat = layer_metrics(tracer.spans(), traced.pass_of_call)
            layers["trace.overhead_pct"] = 100.0 * (
                statistics.median(traced.durations) / statistics.median(plain.durations) - 1.0)
            spans_path = os.path.join(results_dir, f"{name}-seed{seed}-spans.jsonl.gz")
            tracer.dump(spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    record = {
        "header": run_header(name, seed, seconds, trace, wl.params),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "fail_rate": len(failures) / attempted,
        "e2e": e2e,
        "layers": layers,
        "samples": {"pool": len(pool), "pass_s": plain.pass_times,
                    "call_ms": [round(1e3 * d, 4) for d in plain.durations],
                    "calls": len(plain.durations),
                    "traced_passes": len(phases[-1].pass_times) if trace else 0,
                    "wall_s": time.perf_counter() - t0},
        "counts": {"status": _counts(plain.outcomes, "status"),
                   "verdict": _counts(plain.outcomes, "verdict")},
        "per_item": [[o.iterations, o.status, o.verdict] for o in plain.outcomes],
        "failures": failures[:20],
    }
    if trace:
        record["trace"] = {"spans_file": os.path.relpath(spans_path, ROOT),
                           "spans": len(tracer.names), "missing_hooks": tracer.missing,
                           "counts_repeat": counts_repeat}
    return record


def metric_lines(record, trace):
    if trace:
        return {k: {"value": v, "unit": unit_of(k)} for k, v in record["layers"].items()}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in record["e2e"].items()}


def print_table(rows):
    width = max(len(k) for k in rows)
    for key, m in rows.items():
        print(f"{key:<{width}}  {m['value']:>14.6g}  {m['unit']}")


def run_all(args):
    """Each workload in its own process; one combined table and result file."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, m in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
        with open(result_path(name, args.seed, args.trace), encoding="utf-8") as fh:
            records[name] = json.load(fh)
    with open(result_path("all", args.seed, args.trace), "w", encoding="utf-8") as fh:
        json.dump({"workloads": records}, fh, indent=1)
    print_table(combined["metrics"])
    print(json.dumps(combined))
    return 0


def result_path(name, seed, trace):
    return os.path.join(RESULTS, f"{name}-seed{seed}-trace{trace}.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    if args.workload == "all":
        return run_all(args)
    try:
        import_s = import_opscale()
    except ImportError as err:
        print(f"perfbench: cannot import opscale from ./src: {err}", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    with open(result_path(args.workload, args.seed, args.trace), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for msg in record["failures"]:
        print(f"FAILED: {msg}", file=sys.stderr)
    metrics = metric_lines(record, args.trace)
    print_table(metrics)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
