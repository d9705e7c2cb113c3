"""CLI fuzz: every malformed instance exits 3 with no report and no traceback,
and every valid one, at any scale and accuracy, ends in a report.

Each malformed case starts from a valid instance of a subcommand and
breaks one part of it: a wrong type, a ragged or wrongly nested array,
an entry of 1e400 or NaN, a negative or empty spectrum, a bad block
sum, a missing field, or a top level that is not a JSON object.  Fixed
cases add every non-finite entry in every field and arrays nested past
the JSON parser's recursion limit.  A property pins the one-conversion
reading of numeric fields to the per-number readers it stands in for.
"""

import contextlib
import io
import json
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from opscale import cli
from opscale.cli import main, parse_instance

CPMAP = {"kind": "cpmap", "kraus": [[[1.0, 0.0], [0.0, 1.0]]],
         "p": [0.5, 0.5], "q": [0.5, 0.5]}

VALID = {
    "scale": [CPMAP],
    "check": [CPMAP],
    "matscale": [{"kind": "matscale", "matrix": [[1.0, 1.0], [1.0, 1.0]],
                  "row_sums": [1.0, 1.0], "col_sums": [1.0, 1.0]}],
    "horn": [{"kind": "horn", "spectra": [[0.6, 0.4], [0.6, 0.4]]},
             {"kind": "horn", "alpha": [1.0, 0.0], "beta": [1.0, 0.0],
              "gamma": [2.0, 0.0]}],
    "forster": [{"kind": "forster", "vectors": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
                 "weights": [1.0, 1.0, 1.0], "spectrum": [1.5, 1.5]}],
    "schurhorn": [{"kind": "schurhorn", "diagonal": [0.5, 0.5],
                   "spectrum": [0.6, 0.4]}],
}

# What each field holds; a spectrum must also be nonnegative.
SHAPES = {
    "kraus": "matrices", "matrix": "matrix", "vectors": "matrix",
    "spectra": "vectors", "alpha": "vector", "beta": "vector",
    "gamma": "vector", "p": "spectrum", "q": "spectrum",
    "row_sums": "spectrum", "col_sums": "spectrum", "weights": "spectrum",
    "spectrum": "spectrum", "diagonal": "spectrum",
}

# Sentinels replaced by bare JSON tokens after json.dumps.
TOKENS = {'"@inf@"': "1e400", '"@-inf@"': "-1e400", '"@nan@"': "NaN",
          '"@big@"': "1" + "0" * 400}

WRONG_TYPES = ["x", True, None, {}, 1.0]
BAD_ENTRIES = ["x", True, None, {}, [], "@inf@", "@-inf@", "@nan@", "@big@"]
BAD_SHAPES = {
    "matrices": [[], [[]], [[1.0, 0.0]], [[[1.0, 0.0], [0.0]]]],
    "matrix": [[], [[]], [1.0, 1.0], [[1.0, 1.0], [1.0]]],
    "vectors": [[], [[]], [0.6, 0.4], [[0.6, 0.4], [1.0]]],
    "vector": [[], [[1.0, 0.0]]],
    "spectrum": [[], [[0.5, 0.5]]],
}
BAD_BLOCKS = ["x", 1, [], [0, 2], [-1, 3], [1.5, 0.5], [True, True], [3], [1]]


def first_leaf_replaced(value, new):
    """Copy of the nested list `value` with its first number set to `new`."""
    if isinstance(value, list):
        return [first_leaf_replaced(value[0], new)] + value[1:]
    return new


@st.composite
def broken_instances(draw):
    command = draw(st.sampled_from(sorted(VALID)))
    data = dict(draw(st.sampled_from(VALID[command])))
    if data["kind"] == "cpmap" and draw(st.booleans()):
        data[draw(st.sampled_from(["p_blocks", "q_blocks"]))] = draw(
            st.sampled_from(BAD_BLOCKS))
        return command, data
    field = draw(st.sampled_from([f for f in data if f != "kind"]))
    shape = SHAPES[field]
    entries = BAD_ENTRIES + ([-0.5] if shape == "spectrum" else [])
    how = draw(st.sampled_from(["drop", "type", "shape", "entry"]))
    if how == "drop":
        del data[field]
    elif how == "type":
        data[field] = draw(st.sampled_from(WRONG_TYPES))
    elif how == "shape":
        data[field] = draw(st.sampled_from(BAD_SHAPES[shape]))
    else:
        data[field] = first_leaf_replaced(data[field],
                                          draw(st.sampled_from(entries)))
    return command, data


def run_cli(command, text, flags=("--max-iters", "50")):
    """(exit code, stdout, stderr) of `opscale COMMAND - FLAGS` fed `text`."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "-", *flags])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def assert_rejected(command, text):
    code, out, err = run_cli(command, text)
    assert (code, out) == (3, ""), err
    assert "Traceback" not in err and err.startswith("opscale: error:")


@given(broken_instances())
def test_broken_instance_exits_three(case):
    command, data = case
    text = json.dumps(data)
    for sentinel, token in TOKENS.items():
        text = text.replace(sentinel, token)
    assert_rejected(command, text)


tops = st.one_of(st.lists(st.integers(), max_size=3), st.integers(),
                 st.floats(allow_nan=False), st.text(max_size=5),
                 st.none(), st.booleans())


@given(st.sampled_from(sorted(VALID)), tops)
def test_non_object_top_exits_three(command, top):
    assert_rejected(command, json.dumps(top))


@pytest.mark.parametrize("token", sorted(TOKENS.values()))
@pytest.mark.parametrize("command, data, field", [
    (command, data, field) for command, bases in VALID.items()
    for data in bases for field in data if field != "kind"
])
def test_non_finite_entry_exits_three(command, data, field, token):
    broken = dict(data, **{field: first_leaf_replaced(data[field], "@x@")})
    assert_rejected(command, json.dumps(broken).replace('"@x@"', token))


@pytest.mark.parametrize("command", sorted(VALID))
@pytest.mark.parametrize("template", ["{}", '{{"kind": "cpmap", "kraus": {}}}'])
def test_deeply_nested_json_exits_three(command, template):
    depth = 100_000
    assert_rejected(command, template.format("[" * depth + "]" * depth))


def test_valid_bases_are_accepted():
    # The fuzz cases are broken only by their mutation.
    for command, bases in VALID.items():
        for data in bases:
            code, out, _ = run_cli(command, json.dumps(data))
            assert code != 3 and json.loads(out)["command"] == command


# Valid instances with the fields that one factor c > 0 scales while
# keeping them valid: spectra, sums, weights and Horn data.  The Horn
# spectra form is fixed to sum to the identity, so it is not scaled.
HALL_INFEASIBLE = {"kind": "cpmap",
                   "kraus": [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 1]]],
                   "p": [0.45, 0.55], "q": [0.4, 0.6],
                   "p_blocks": [1, 1], "q_blocks": [1, 1]}
SCALED_FIELDS = {"p", "q", "row_sums", "col_sums", "alpha", "beta", "gamma",
                 "weights", "spectrum", "diagonal"}
SCALABLE = [(command, data) for command, bases in VALID.items()
            for data in bases] + [
    ("scale", {"kind": "cpmap", "kraus": [[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]],
               "p": [0.6, 0.4, 0.0], "q": [0.7, 0.3]}),
    ("check", HALL_INFEASIBLE),
    ("matscale", {"kind": "matscale", "matrix": [[1.0, 2.0], [3.0, 4.0]],
                  "row_sums": [1.0, 2.0], "col_sums": [1.5, 1.5]}),
    ("horn", {"kind": "horn", "alpha": [1.0, -0.5], "beta": [0.7, 0.2],
              "gamma": [1.5, -0.1]}),
]
powers = st.integers(-300, 300).map(lambda k: 10.0 ** k)
accuracies = st.one_of(st.just(0.5), st.integers(-300, -1).map(lambda k: 10.0 ** k))


@pytest.mark.filterwarnings("error")
@given(st.sampled_from(SCALABLE), powers, accuracies)
@example(("horn", VALID["horn"][1]), 1e20, 1e-2)
@example(("matscale", VALID["matscale"][0]), 1e307, 1e-20)
def test_valid_instance_at_any_scale_ends_in_a_report(case, c, epsilon):
    command, data = case
    scaled = {k: [c * x for x in v] if k in SCALED_FIELDS else v
              for k, v in data.items()}
    with mock.patch.dict(os.environ, {"OPSCALE_HARD_CAP": "20"}):
        code, out, err = run_cli(command, json.dumps(scaled),
                                 ("--epsilon", repr(epsilon)))
    assert code in (0, 1, 2), err
    assert json.loads(out)["command"] == command
    assert "Traceback" not in err


# Leaves of a numeric field: mostly finite numbers, and everything the
# per-number reader refuses or reads differently from numpy.
good_leaves = st.one_of(st.floats(-1e6, 1e6), st.integers(-2**53, 2**53),
                        st.sampled_from([0, -0.0, 5e-324, 2**63 - 1]))
bad_leaves = st.one_of(st.sampled_from([True, False, None, "1.5", "x", {}, [],
                                        2**63, 2**64, 10**400, float("nan"),
                                        float("inf"), -float("inf"), 1e308]),
                       st.floats(), st.integers())
leaves = st.one_of(good_leaves, good_leaves, good_leaves, bad_leaves)
pairs = st.lists(leaves, min_size=2, max_size=2)


@st.composite
def field_values(draw, rank):
    """A rank-d rectangular array of leaves (complex ones as [re, im]
    pairs, plain numbers or a mix), with now and then a ragged row, a
    wrong rank or an empty array."""
    shape = draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank))
    entry = draw(st.sampled_from([leaves, pairs, st.one_of(leaves, pairs)]))

    def build(dims):
        if not dims:
            return draw(entry)
        return [build(dims[1:]) for _ in range(dims[0])]

    value = build(shape)
    how = draw(st.sampled_from(["keep"] * 6 + ["ragged", "nest", "empty"]))
    if how == "ragged" and isinstance(value, list) and len(value) > 1:
        value[-1] = value[-1][:-1] if isinstance(value[-1], list) else [value[-1]]
    elif how == "nest":
        value = [value]
    elif how == "empty":
        value = []
    return value


def _fingerprint(x):
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, dict):
        return {k: _fingerprint(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_fingerprint(v) for v in x]
    if hasattr(x, "__dict__"):
        return type(x).__name__, _fingerprint(vars(x))
    return x


def _parsed(text):
    try:
        return _fingerprint(parse_instance(text))
    except (cli.ParseError, cli.SchemaError) as err:
        return type(err).__name__, str(err)


RANKS = {"kraus": 3, "matrix": 2, "vectors": 2, "spectra": 2}


def assert_read_as_by_the_per_number_readers(instance):
    # one array conversion per field, or the per-number readers alone: the
    # same domain arrays, or the same error text
    text = json.dumps(instance)
    with mock.patch.object(cli, "_array", return_value=None):
        expected = _parsed(text)
    assert _parsed(text) == expected


@given(st.sampled_from([(c, d) for c, bases in VALID.items() for d in bases]),
       st.data())
def test_numeric_fields_read_as_by_the_per_number_readers(case, data):
    _command, instance = case
    field = data.draw(st.sampled_from([f for f in instance if f != "kind"]))
    assert_read_as_by_the_per_number_readers(
        dict(instance, **{field: data.draw(field_values(RANKS.get(field, 1)))}))


# What numpy reads without an error and the per-number reader refuses, or
# reads in a form one conversion cannot: bools, numeric strings, integers
# past int64, non-finite numbers, and [re, im] pairs mixed with numbers.
@pytest.mark.parametrize("field, value", [
    ("p", [True, 0.5]), ("p", ["0.5", 0.5]), ("p", [2**63, 1]),
    ("p", [2**64, 1]), ("p", [10**400, 1]), ("p", [float("nan"), 0.5]),
    ("kraus", [[[1.0, 0.0], [0.0, False]]]), ("kraus", [[[1.0, [0, 1]], [0, 1]]]),
    ("kraus", [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]), ("kraus", [[[1, "1"], [0, 1]]]),
])
def test_one_conversion_refuses_what_numpy_reads_differently(field, value):
    assert_read_as_by_the_per_number_readers(dict(CPMAP, **{field: value}))
