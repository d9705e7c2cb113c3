"""CLI fuzz: every malformed instance exits 3 with no report and no traceback.

Each case starts from a valid instance of a subcommand and breaks one
part of it: a wrong type, a ragged or wrongly nested array, an entry of
1e400 or NaN, a negative or empty spectrum, a bad block sum, a missing
field, or a top level that is not a JSON object.  Fixed cases add every
non-finite entry in every field and arrays nested past the JSON
parser's recursion limit.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, strategies as st

from opscale.cli import main

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


def run_cli(command, text):
    """(exit code, stdout, stderr) of `opscale COMMAND -` fed `text`."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "-", "--max-iters", "50"])
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
