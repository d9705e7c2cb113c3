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
written as [re, im] pairs (plain numbers are taken as real); one table,
_SCHEMAS, gives each kind's fields.  Every command reports through one
runner, _run.  Reports are JSON with a fixed field order, every number
printed with 17 significant digits, and wall_time_ms as the last field;
--trace adds the per-iteration ds values.  A one-line human summary goes
to stderr.

Exit codes: 0 SUCCESS/FEASIBLE, 1 INFEASIBLE or a definite failure
(ERROR_NOT_PD, ERROR_SINGULAR_INIT), 2 inconclusive outcomes
(INCONCLUSIVE, ERROR_BUDGET), 3 usage, parse, or schema errors.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import sys
import time

import numpy as np

from . import relmetrics
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


# The report's verdict (check) or status decides the exit code.
_EXIT_CODES = {SUCCESS: 0, FEASIBLE: 0, ERROR_NOT_PD: 1, ERROR_SINGULAR_INIT: 1,
               INFEASIBLE: 1, INCONCLUSIVE: 2, ERROR_BUDGET: 2}


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


def _each(obj, where, convert):
    """convert applied to every item of a nonempty JSON array."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{where}: expected a nonempty array")
    return [convert(x, f"{where}[{i}]") for i, x in enumerate(obj)]


def _vector(obj, where):
    return np.array(_each(obj, where, _number))


def _matrix(entry):
    """Reader of a nonempty 2-d array of `entry` values, rows of one length."""
    def read(obj, where):
        rows = _each(obj, where, lambda row, w: _each(row, w, entry))
        for i, row in enumerate(rows):
            if len(row) != len(rows[0]):
                raise SchemaError(f"{where}[{i}]: ragged rows")
        return np.array(rows)
    return read


def _blocks(obj, where):
    if obj is None:
        return None
    if not isinstance(obj, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in obj
    ):
        raise SchemaError(f"{where}: expected an array of positive integers")
    return tuple(obj)


def _build_horn(spectra=None, alpha=None, beta=None, gamma=None):
    if spectra is not None:
        return {"instance": HornInstance(spectra), "abc": None}
    if not (alpha.size == beta.size == gamma.size):
        raise SchemaError("horn: alpha, beta, gamma must share one length")
    return {"instance": None, "abc": (alpha, beta, gamma)}


def _array(obj, ndim, dtype):
    """obj as a finite ndim-d array of dtype by one conversion, or None
    where the per-number reader must decide (mixed complex forms too)."""
    try:
        a = np.array(obj)
    except ValueError:  # ragged
        return None
    if a.dtype.kind not in "if" or not a.size:
        return None
    if dtype is np.complex128 and a.ndim == ndim + 1 and a.shape[-1] == 2:
        a = a.astype(np.float64).view(np.complex128)[..., 0]
    a = a.astype(dtype)
    return a if a.ndim == ndim and np.isfinite(a).all() else None


_complex_matrix = _matrix(_complex_entry)

# field: (per-number reader, array rank, dtype); others are real vectors.
_FIELDS = {
    "kraus": (lambda obj, where: _each(obj, where, _complex_matrix),
              3, np.complex128),
    "matrix": (_matrix(_number), 2, np.float64),
    "vectors": (_complex_matrix, 2, np.complex128),
    "spectra": (lambda obj, where: _each(obj, where, _vector), 2, np.float64),
    "p_blocks": (_blocks, None, None),
    "q_blocks": (_blocks, None, None),
}

# kind: (builder, required fields, optional fields).  The builder gets the
# read fields as keywords.  Required fields are alternatives: the first
# whose fields are all present is read, and only it.
_SCHEMAS = {
    "cpmap": (
        lambda kraus, p, q, p_blocks=None, q_blocks=None: {
            "map": CPMap(kraus), "spec": MarginalSpec(p, q, p_blocks, q_blocks)},
        [("kraus", "p", "q")], ("p_blocks", "q_blocks"),
    ),
    "matscale": (
        lambda **f: {"instance": MatrixScalingInstance(**f)},
        [("matrix", "row_sums", "col_sums")], (),
    ),
    "horn": (_build_horn, [("spectra",), ("alpha", "beta", "gamma")], ()),
    "forster": (
        lambda **f: {"instance": ForsterInstance(**f)},
        [("vectors", "weights", "spectrum")], (),
    ),
    "schurhorn": (dict, [("diagonal", "spectrum")], ()),
}


def parse_instance(text):
    """Parse instance JSON into domain objects; ParseError/SchemaError on bad input.

    A numeric field is one _array conversion; the per-number readers run
    where it refuses, or on a text that may hold a bool, which numpy reads."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err}") from err
    except RecursionError as err:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from err
    if not isinstance(data, dict):
        raise SchemaError("top level must be a JSON object")
    kind = data.get("kind")
    if kind not in _SCHEMAS:
        raise SchemaError(
            f"unknown kind {kind!r}; expected one of {sorted(_SCHEMAS)}"
        )
    build, choices, optional = _SCHEMAS[kind]
    required = next((c for c in choices if all(f in data for f in c)), None)
    if required is None and len(choices) > 1:
        raise SchemaError(f"{kind}: provide either " + " or ".join(
            "/".join(map(repr, c)) for c in choices))
    fast = isinstance(text, str) and "true" not in text and "false" not in text
    fields = {}
    for field in (required or choices[0]) + optional:
        if field in data:
            read, ndim, dtype = _FIELDS.get(field, (_vector, 1, np.float64))
            value = _array(data[field], ndim, dtype) if fast and ndim else None
            fields[field] = read(data[field], field) if value is None else value
        elif field not in optional:
            raise SchemaError(f"{kind}: missing required field {field!r}")
    try:
        return {"kind": kind, **build(**fields)}
    except SchemaError:
        raise
    except (ValueError, OpscaleError) as err:
        raise SchemaError(f"{kind}: {err}") from err


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
# Commands: each is called as (inst, epsilon, seed=..., max_iterations=...)
# and returns (solved, its own report fields); a ScalingFailure it raises
# is reported by _run instead.

# A cpmap command's run, shaped like an app solution.
_Solved = collections.namedtuple("_Solved", "result cpmap spec verdict",
                                 defaults=(None,))


def _scale(inst, epsilon, **options):
    T, M = inst["map"], inst["spec"]
    result = general_scale(T, M, SolverConfig(epsilon=epsilon, **options))
    return _Solved(result, T, M), {"g": result.pair.g, "h": result.pair.h}


def _check(inst, epsilon, **options):
    SolverConfig(epsilon)  # rejects a bad accuracy; the verdict picks its own
    T, M = inst["map"], inst["spec"]
    verdict = decide_scalable(T, M, **options)
    return _Solved(verdict.result, T, M, verdict.verdict), {}


def _matscale(inst, epsilon, **options):
    A = inst["instance"]
    sol = matrix_scale(A, epsilon, **options)
    B = sol.scaled_matrix
    return sol, {
        "row_scale": sol.row_scale,
        "col_scale": sol.col_scale,
        "scaled_matrix": B,
        "sum_errors": {
            "row": float(np.max(np.abs(B.sum(axis=1) - A.row_sums))),
            "col": float(np.max(np.abs(B.sum(axis=0) - A.col_sums))),
        },
    }


def _horn(inst, epsilon, **options):
    instance, normalization = inst["instance"], None
    if instance is None:
        normalization = horn_normalize(*inst["abc"])
        instance = normalization.instance
    sol = horn_solve(instance, epsilon, **options)
    fields = {
        "matrices": [np.asarray(H, dtype=np.complex128) for H in sol.matrices],
        "sum_error": float(np.linalg.norm(sum(sol.matrices) - np.eye(instance.m))),
    }
    if normalization is not None:
        fields["normalization"] = {"shifts": list(normalization.shifts),
                                   "scale": normalization.scale}
        A, B, C = normalization.invert(sol.matrices)
        fields["recovered"] = {"A": A, "B": B, "C": C}
    return sol, fields


def _forster(inst, epsilon, **options):
    instance = inst["instance"]
    sol = forster_scale(instance, epsilon, **options)
    gram = (sol.vectors * instance.weights[None, :]) @ sol.vectors.conj().T
    return sol, {
        "transform": sol.transform,
        "vectors": sol.vectors,
        "isotropy_error": float(np.linalg.norm(gram - np.diag(instance.spectrum))),
    }


def _schurhorn(inst, epsilon, **options):
    p, q = inst["diagonal"], inst["spectrum"]
    sol = schur_horn(p, q, epsilon, **options)
    H = sol.matrix
    eigs = np.sort(np.linalg.eigvalsh(H))[::-1]
    q_padded = np.concatenate(
        [-np.sort(-q[q > 0]), np.zeros(p.size - np.count_nonzero(q > 0))]
    )
    return sol, {
        "matrix": H,
        "errors": {
            "diagonal": float(np.max(np.abs(np.diag(H).real - p))),
            "spectrum": float(np.max(np.abs(eigs - q_padded))),
        },
    }


# command: (instance kind, solve, whether the report shows the operator
# instance solved).  Schur-Horn solves an internal Forster instance, which
# its report leaves out.
_COMMANDS = {
    "scale": ("cpmap", _scale, True),
    "check": ("cpmap", _check, True),
    "matscale": ("matscale", _matscale, True),
    "horn": ("horn", _horn, True),
    "forster": ("forster", _forster, True),
    "schurhorn": ("schurhorn", _schurhorn, False),
}


# Overflowing marginals are reported as null errors, not warned about.
@np.errstate(over="ignore", invalid="ignore")
def _marginal_errors(T, M, pair):
    # The marginals of scale(T, pair), unvalidated, in the layout of (T, M)
    # and the pair: diagonal ones come as their diagonals, at the same
    # distance from the layout's identity.
    layout, primal, dual = relmetrics._marginals(T, M, pair)
    return {side: float(np.linalg.norm(X - layout.eye(len(X))))
            for side, X in (("primal", primal), ("dual", dual))}


def _run(args, inst):
    """The report of one command: solve, then the run, then its own fields."""
    kind, solve, shows_operator = _COMMANDS[args.command]
    report = {"command": args.command, "kind": kind}
    try:
        solved, fields = solve(inst, args.epsilon, seed=args.seed,
                               max_iterations=args.max_iters)
    except InfeasibleInstance as err:
        report.update(seed=args.seed, status=INFEASIBLE, reason=str(err))
        return report
    except ScalingFailure as err:
        solved, fields = err, {}
    if getattr(solved, "verdict", None) is not None:
        report["verdict"] = solved.verdict
    result = solved.result
    report.update(
        seed=args.seed,
        status=result.status,
        epsilon=result.epsilon,
        iterations=result.iterations,
        final_ds=result.ds_trace[-1] if result.ds_trace else None,
        threshold=result.threshold,
    )
    if shows_operator:
        T, M = solved.cpmap, solved.spec
        report["marginal_errors"] = _marginal_errors(T, M, result.pair)
        report["instance"] = {"m": T.m, "n": T.n, "kraus": T.r}
    ups = result.capacity_trace.upper_estimates
    report["capacity"] = {
        "cumulative_log_factor": result.capacity_trace.cumulative,
        "log_lower_bound": result.capacity_trace.log_lower_bound,
        "final_upper_estimate": ups[-1] if ups else None,
    }
    report.update(fields)
    if args.trace:
        report["ds_trace"] = list(result.ds_trace)
    return report


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
    for name, (kind, _solve, _shows) in _COMMANDS.items():
        p = sub.add_parser(name, help=f"{name} ({kind} instances)")
        p.add_argument("instance",
                       help="path to a JSON instance file ('-' for stdin)")
        p.add_argument("--epsilon", type=float, default=1e-2,
                       help="target accuracy in (0, 1) (default 1e-2)"
                       + ("; checked, but the verdict picks its own"
                          if name == "check" else ""))
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


def _outcome(report):
    return report.get("verdict", report["status"])


def _summary_line(report):
    bits = [f"{report['command']}: {_outcome(report)}"]
    if report.get("iterations") is not None:
        bits.append(f"{report['iterations']} iterations")
    if report.get("final_ds") is not None:
        bits.append(f"final ds {report['final_ds']:.3e}")
    if "reason" in report:
        bits.append(report["reason"])
    return ", ".join(bits)


def _error(err):
    print(f"opscale: error: {err}", file=sys.stderr)
    return 3


def main(argv=None):
    """Entry point; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except _UsageError as err:
        return _error(err)
    started = time.perf_counter()
    try:
        if args.instance == "-":
            text = sys.stdin.read()
        else:
            with open(args.instance, "r", encoding="utf-8") as fh:
                text = fh.read()
        inst = parse_instance(text)
        expected_kind = _COMMANDS[args.command][0]
        if inst["kind"] != expected_kind:
            raise SchemaError(
                f"command {args.command!r} needs kind {expected_kind!r}, "
                f"got {inst['kind']!r}"
            )
        report = _run(args, inst)
    except (OpscaleError, OSError, ValueError) as err:
        return _error(err)
    report["wall_time_ms"] = (time.perf_counter() - started) * 1000.0
    try:
        _emit(report, args)
    except OSError as err:
        return _error(err)
    print(_summary_line(report), file=sys.stderr)
    return _EXIT_CODES.get(_outcome(report), 2)


if __name__ == "__main__":
    sys.exit(main())
