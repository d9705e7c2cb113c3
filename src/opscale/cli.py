"""Command-line interface: JSON instances in, JSON run reports out.

Subcommands
    scale      scale a CP map (kind "cpmap") to target marginals
    check      decide approximate scalability of a cpmap instance
    matscale   matrix scaling to prescribed row/column sums
    horn       Hermitian matrices with given spectra summing to I
               (or spectral data alpha/beta/gamma of A + B = C)
    forster    weighted radial isotropic position for point vectors
    schurhorn  Hermitian matrix with given diagonal and spectrum

Instances are JSON objects with a "kind" field; complex entries are
written as [re, im] pairs (plain numbers are taken as real).  Reports
are JSON with a fixed field order, every number printed with 17
significant digits, and wall_time_ms as the last field; --trace adds
the per-iteration ds values.  A one-line human summary goes to stderr.

Exit codes: 0 SUCCESS/FEASIBLE, 1 INFEASIBLE or a definite failure
(ERROR_NOT_PD, ERROR_SINGULAR_INIT), 2 inconclusive outcomes
(INCONCLUSIVE, ERROR_BUDGET), 3 usage, parse, or schema errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import cpmap
from .apps import (
    ForsterInstance,
    HornInstance,
    MatrixScalingInstance,
    forster_scale,
    horn_normalize,
    horn_solve,
    matrix_scale,
    schur_horn,
)
from .cpmap import CPMap, MarginalSpec
from .exceptions import InfeasibleInstance, OpscaleError, ScalingFailure
from .feasibility import FEASIBLE, INCONCLUSIVE, INFEASIBLE, decide_scalable
from .scaler import (
    ERROR_BUDGET,
    ERROR_NOT_PD,
    ERROR_SINGULAR_INIT,
    SUCCESS,
    SolverConfig,
    general_scale,
)

__all__ = ["ParseError", "SchemaError", "parse_instance", "main"]


class ParseError(OpscaleError):
    """Instance text is not valid JSON."""


class SchemaError(OpscaleError):
    """Instance JSON does not match the schema for its kind."""


class _UsageError(Exception):
    pass


_EXIT_CODES = {
    SUCCESS: 0,
    FEASIBLE: 0,
    ERROR_NOT_PD: 1,
    ERROR_SINGULAR_INIT: 1,
    INFEASIBLE: 1,
    INCONCLUSIVE: 2,
    ERROR_BUDGET: 2,
}


# ---------------------------------------------------------------------------
# Instance parsing


def _number(x, where):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:  # an integer past the double range
        value = math.inf
    if not math.isfinite(value):
        raise SchemaError(f"{where}: expected a finite number, got {x!r}")
    return value


def _complex_entry(x, where):
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return complex(_number(x, where))
    if isinstance(x, list) and len(x) == 2:
        return complex(_number(x[0], where + "[0]"), _number(x[1], where + "[1]"))
    raise SchemaError(f"{where}: expected a number or [re, im] pair, got {x!r}")


def _real_vector(obj, where):
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a nonempty array")
    return np.array([_number(x, f"{where}[{i}]") for i, x in enumerate(obj)])


def _matrix(obj, where, entry):
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a nonempty 2-d array")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SchemaError(f"{where}[{i}]: expected a nonempty array")
        rows.append([entry(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)])
        if len(rows[-1]) != len(rows[0]):
            raise SchemaError(f"{where}[{i}]: ragged rows")
    return np.array(rows)


def _real_matrix(obj, where):
    return _matrix(obj, where, _number)


def _complex_matrix(obj, where):
    return _matrix(obj, where, _complex_entry)


def _require(data, field, kind):
    if field not in data:
        raise SchemaError(f"{kind}: missing required field {field!r}")
    return data[field]


def _opt_blocks(data, field):
    if field not in data or data[field] is None:
        return None
    obj = data[field]
    if not isinstance(obj, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in obj
    ):
        raise SchemaError(f"{field}: expected an array of positive integers")
    return tuple(obj)


def _wrap_domain_error(kind, build):
    try:
        return build()
    except (ValueError, OpscaleError) as err:
        if isinstance(err, (ParseError, SchemaError)):
            raise
        raise SchemaError(f"{kind}: {err}") from err


def _parse_cpmap(data):
    kraus_obj = _require(data, "kraus", "cpmap")
    if not isinstance(kraus_obj, list) or not kraus_obj:
        raise SchemaError("cpmap: kraus must be a nonempty array of matrices")
    kraus = [_complex_matrix(K, f"kraus[{i}]") for i, K in enumerate(kraus_obj)]
    p = _real_vector(_require(data, "p", "cpmap"), "p")
    q = _real_vector(_require(data, "q", "cpmap"), "q")
    T = _wrap_domain_error("cpmap", lambda: CPMap(kraus))
    spec = _wrap_domain_error(
        "cpmap",
        lambda: MarginalSpec(p, q, _opt_blocks(data, "p_blocks"),
                             _opt_blocks(data, "q_blocks")),
    )
    return {"kind": "cpmap", "map": T, "spec": spec}


def _parse_matscale(data):
    inst = _wrap_domain_error(
        "matscale",
        lambda: MatrixScalingInstance(
            _real_matrix(_require(data, "matrix", "matscale"), "matrix"),
            _real_vector(_require(data, "row_sums", "matscale"), "row_sums"),
            _real_vector(_require(data, "col_sums", "matscale"), "col_sums"),
        ),
    )
    return {"kind": "matscale", "instance": inst}


def _parse_horn(data):
    if "spectra" in data:
        obj = data["spectra"]
        if not isinstance(obj, list) or not obj:
            raise SchemaError("horn: spectra must be a nonempty array of arrays")
        spectra = [_real_vector(v, f"spectra[{i}]") for i, v in enumerate(obj)]
        inst = _wrap_domain_error("horn", lambda: HornInstance(spectra))
        return {"kind": "horn", "instance": inst, "abc": None}
    if all(k in data for k in ("alpha", "beta", "gamma")):
        abc = tuple(_real_vector(data[k], k) for k in ("alpha", "beta", "gamma"))
        if not (abc[0].size == abc[1].size == abc[2].size):
            raise SchemaError("horn: alpha, beta, gamma must share one length")
        return {"kind": "horn", "instance": None, "abc": abc}
    raise SchemaError("horn: provide either 'spectra' or 'alpha'/'beta'/'gamma'")


def _parse_forster(data):
    inst = _wrap_domain_error(
        "forster",
        lambda: ForsterInstance(
            _complex_matrix(_require(data, "vectors", "forster"), "vectors"),
            _real_vector(_require(data, "weights", "forster"), "weights"),
            _real_vector(_require(data, "spectrum", "forster"), "spectrum"),
        ),
    )
    return {"kind": "forster", "instance": inst}


def _parse_schurhorn(data):
    return {
        "kind": "schurhorn",
        "diagonal": _real_vector(_require(data, "diagonal", "schurhorn"),
                                 "diagonal"),
        "spectrum": _real_vector(_require(data, "spectrum", "schurhorn"),
                                 "spectrum"),
    }


_PARSERS = {
    "cpmap": _parse_cpmap,
    "matscale": _parse_matscale,
    "horn": _parse_horn,
    "forster": _parse_forster,
    "schurhorn": _parse_schurhorn,
}


def parse_instance(text):
    """Parse instance JSON into domain objects; ParseError/SchemaError on bad input."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err}") from err
    except RecursionError as err:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from err
    if not isinstance(data, dict):
        raise SchemaError("top level must be a JSON object")
    kind = data.get("kind")
    if kind not in _PARSERS:
        raise SchemaError(
            f"unknown kind {kind!r}; expected one of {sorted(_PARSERS)}"
        )
    return _PARSERS[kind](data)


# ---------------------------------------------------------------------------
# Report serialization (17 significant digits, fixed field order)


def _fmt_float(x):
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(float(x), ".17g")


def _serialize(obj):
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_serialize(v)}"
                          for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, np.ndarray):
        return _serialize(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_serialize(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, complex) and not isinstance(obj, (float, int)):
        return f"[{_fmt_float(obj.real)}, {_fmt_float(obj.imag)}]"
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report):
    """Render a report dict: top-level fields one per line, arrays inline."""
    lines = [f"  {json.dumps(str(k))}: {_serialize(v)}"
             for k, v in report.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


# ---------------------------------------------------------------------------
# Report assembly


# Overflowing marginals are reported as null errors, not warned about.
@np.errstate(over="ignore", invalid="ignore")
def _marginal_errors(T, M, pair):
    primal, dual = cpmap.marginals(cpmap.scale(T, pair), M)
    return {
        "primal": float(np.linalg.norm(primal - np.eye(M.m))),
        "dual": float(np.linalg.norm(dual - np.eye(M.n))),
    }


def _capacity_block(trace):
    ups = trace.upper_estimates
    return {
        "cumulative_log_factor": trace.cumulative,
        "log_lower_bound": trace.log_lower_bound,
        "final_upper_estimate": ups[-1] if ups else None,
    }


def _result_fields(result, T=None, M=None):
    fields = {
        "status": result.status,
        "epsilon": result.epsilon,
        "iterations": result.iterations,
        "final_ds": result.ds_trace[-1] if result.ds_trace else None,
        "threshold": result.threshold,
    }
    if T is not None:
        fields["marginal_errors"] = _marginal_errors(T, M, result.pair)
        fields["instance"] = {"m": T.m, "n": T.n, "kraus": T.r}
    fields["capacity"] = _capacity_block(result.capacity_trace)
    return fields


def _complex_mat(a):
    return np.asarray(a, dtype=np.complex128)


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (report dict, exit code)


def _cmd_scale(args, inst):
    T, M = inst["map"], inst["spec"]
    config = SolverConfig(epsilon=args.epsilon, seed=args.seed,
                          max_iterations=args.max_iters)
    result = general_scale(T, M, config)
    report = {"command": "scale", "kind": "cpmap", "seed": args.seed}
    report.update(_result_fields(result, T, M))
    report["g"] = result.pair.g
    report["h"] = result.pair.h
    return report, _EXIT_CODES.get(result.status, 2), result


def _cmd_check(args, inst):
    T, M = inst["map"], inst["spec"]
    verdict = decide_scalable(T, M, seed=args.seed,
                              max_iterations=args.max_iters)
    report = {"command": "check", "kind": "cpmap",
              "verdict": verdict.verdict, "seed": args.seed}
    report.update(_result_fields(verdict.result, T, M))
    return report, _EXIT_CODES.get(verdict.verdict, 2), verdict.result


def _run_app(args, solve, instance):
    """Run an app solver: (report, solution or None on failure, result).

    The report holds the result fields for the operator instance the app
    solved, which the solution (or its ScalingFailure) carries.
    """
    report = {"command": args.command, "kind": args.command, "seed": args.seed}
    try:
        sol = solve(instance, args.epsilon, seed=args.seed,
                    max_iterations=args.max_iters)
    except ScalingFailure as err:
        report.update(_result_fields(err.result, err.cpmap, err.spec))
        return report, None, err.result
    report.update(_result_fields(sol.result, sol.cpmap, sol.spec))
    return report, sol, sol.result


def _cmd_matscale(args, inst):
    instance = inst["instance"]
    report, sol, result = _run_app(args, matrix_scale, instance)
    if sol is not None:
        B = sol.scaled_matrix
        report["row_scale"] = sol.row_scale
        report["col_scale"] = sol.col_scale
        report["scaled_matrix"] = B
        report["sum_errors"] = {
            "row": float(np.max(np.abs(B.sum(axis=1) - instance.row_sums))),
            "col": float(np.max(np.abs(B.sum(axis=0) - instance.col_sums))),
        }
    return report, _EXIT_CODES.get(result.status, 2), result


def _cmd_horn(args, inst):
    normalization = None
    instance = inst["instance"]
    if instance is None:
        alpha, beta, gamma = inst["abc"]
        normalization = horn_normalize(alpha, beta, gamma)
        instance = normalization.instance
    report, sol, result = _run_app(args, horn_solve, instance)
    if sol is not None:
        report["matrices"] = [_complex_mat(H) for H in sol.matrices]
        total = sum(sol.matrices) - np.eye(instance.m)
        report["sum_error"] = float(np.linalg.norm(total))
        if normalization is not None:
            u, v, w = normalization.shifts
            report["normalization"] = {"shifts": [u, v, w],
                                       "scale": normalization.scale}
            A, B, C = normalization.invert(sol.matrices)
            report["recovered"] = {"A": A, "B": B, "C": C}
    return report, _EXIT_CODES.get(result.status, 2), result


def _cmd_forster(args, inst):
    instance = inst["instance"]
    report, sol, result = _run_app(args, forster_scale, instance)
    if sol is not None:
        report["transform"] = sol.transform
        report["vectors"] = sol.vectors
        gram = (sol.vectors * instance.weights[None, :]) @ sol.vectors.conj().T
        report["isotropy_error"] = float(
            np.linalg.norm(gram - np.diag(instance.spectrum))
        )
    return report, _EXIT_CODES.get(result.status, 2), result


def _cmd_schurhorn(args, inst):
    p, q = inst["diagonal"], inst["spectrum"]
    report = {"command": "schurhorn", "kind": "schurhorn", "seed": args.seed}
    try:
        sol = schur_horn(p, q, args.epsilon, seed=args.seed,
                         max_iterations=args.max_iters)
    except ScalingFailure as err:
        report.update(_result_fields(err.result))
        return report, _EXIT_CODES.get(err.status, 2), err.result
    report.update(_result_fields(sol.result))
    H = sol.matrix
    report["matrix"] = H
    eigs = np.sort(np.linalg.eigvalsh(H))[::-1]
    q_padded = np.concatenate(
        [-np.sort(-q[q > 0]), np.zeros(p.size - np.count_nonzero(q > 0))]
    )
    report["errors"] = {
        "diagonal": float(np.max(np.abs(np.diag(H).real - p))),
        "spectrum": float(np.max(np.abs(eigs - q_padded))),
    }
    return report, _EXIT_CODES.get(sol.result.status, 2), sol.result


_COMMANDS = {
    "scale": ("cpmap", _cmd_scale),
    "check": ("cpmap", _cmd_check),
    "matscale": ("matscale", _cmd_matscale),
    "horn": ("horn", _cmd_horn),
    "forster": ("forster", _cmd_forster),
    "schurhorn": ("schurhorn", _cmd_schurhorn),
}


# ---------------------------------------------------------------------------
# Argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser():
    parser = _Parser(prog="opscale",
                     description="Operator scaling of CP maps and friends")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, (kind, _fn) in _COMMANDS.items():
        p = sub.add_parser(name, help=f"{name} ({kind} instances)")
        p.add_argument("instance",
                       help="path to a JSON instance file ('-' for stdin)")
        p.add_argument("--epsilon", type=float, default=1e-2,
                       help="target accuracy (default 1e-2)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized steps (default 0)")
        p.add_argument("--max-iters", type=int, default=None,
                       dest="max_iters",
                       help="iteration budget override")
        p.add_argument("--trace", action="store_true",
                       help="include the per-iteration ds values")
        p.add_argument("--output", default=None,
                       help="write the JSON report to this file")
    return parser


@functools.lru_cache(maxsize=1)
def _parser():
    """main's parser, built once per process; parse_args leaves it unchanged."""
    return build_parser()


def _emit(report, args):
    text = dumps_report(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _summary_line(report):
    status = report.get("verdict", report.get("status", "?"))
    bits = [f"{report['command']}: {status}"]
    if report.get("iterations") is not None:
        bits.append(f"{report['iterations']} iterations")
    if report.get("final_ds") is not None:
        bits.append(f"final ds {report['final_ds']:.3e}")
    if "reason" in report:
        bits.append(report["reason"])
    return ", ".join(bits)


def main(argv=None):
    """Entry point; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except _UsageError as err:
        print(f"opscale: error: {err}", file=sys.stderr)
        return 3
    started = time.perf_counter()
    try:
        if args.instance == "-":
            text = sys.stdin.read()
        else:
            with open(args.instance, "r", encoding="utf-8") as fh:
                text = fh.read()
        inst = parse_instance(text)
        expected_kind, fn = _COMMANDS[args.command]
        if inst["kind"] != expected_kind:
            raise SchemaError(
                f"command {args.command!r} needs kind {expected_kind!r}, "
                f"got {inst['kind']!r}"
            )
        try:
            report, code, result = fn(args, inst)
            if args.trace and result is not None:
                report["ds_trace"] = list(result.ds_trace)
        except InfeasibleInstance as err:
            report = {"command": args.command, "kind": inst["kind"],
                      "seed": args.seed, "status": INFEASIBLE,
                      "reason": str(err)}
            code = 1
    except (OpscaleError, OSError, ValueError) as err:
        print(f"opscale: error: {err}", file=sys.stderr)
        return 3
    report["wall_time_ms"] = (time.perf_counter() - started) * 1000.0
    try:
        _emit(report, args)
    except OSError as err:
        print(f"opscale: error: {err}", file=sys.stderr)
        return 3
    print(_summary_line(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
