"""CLI fuzzer: mutated scenario documents end in exit 0, 2 or 3 and at most one record.

Each example copies a 4-point scenario that uses every section and every
capacity kind, applies one to three mutations (replace a value with null,
a bool, an int, a float, a string, a list or an object; drop a key; rename
a key), and runs one subcommand in-process.  On exit 0 stderr must be empty;
on exit 2 or 3 it must be one JSON error record whose fields are under 300
characters.  Only argparse's ``SystemExit`` may escape.  Values stay small:
``n`` is at most 3 (or far past the space cap), strings at most 5000
characters.

``product`` multiplies two factor documents of different shapes, fuzzed
with the rest: a 1-label and a 3-label factor with ``n = 1``.  The flat
space then has 3 labels, not a power of two, in 12 points; a 3-label
factor times the 4-point scenario would exceed the product guard's 20.
"""

from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intprob.cli import main

BASE = {
    "n": 2,
    "e_labels": ["x0"],
    "mass": {"x0,00": "1/2", "x0,01": "1/8", "x0,10": "1/8", "x0,11": "1/4"},
    "r": {"x0,00": "1/2", "x0,11": "1/2"},
    "events": {"H": ["x0,10"], "A": ["x0,10", "x0,11"]},
    "variables": {
        "X": {"x0,00": "1", "x0,11": "1", "x0,01": "2", "x0,10": "2"},
        "Y": {"x0,00": "1", "x0,01": "1", "x0,10": "2", "x0,11": "2"},
    },
    "capacities": {
        "belief": {
            "kind": "belief_mass",
            "mass": [
                {"event": ["x0,00", "x0,11"], "value": "1/2"},
                {"event": ["x0,01", "x0,10"], "value": "1/2"},
            ],
        },
        "square": {"kind": "distortion", "distortion": {"type": "power", "exponent": 2}},
        "bend": {
            "kind": "distortion",
            "distortion": {"type": "piecewise", "points": [["0", "0"], ["1/4", "1/2"], ["1", "1"]]},
        },
        "table": {
            "kind": "table",
            "values": [f"{bin(mask).count('1')}/4" for mask in range(16)],
        },
    },
    "comment": "every section and every capacity kind",
}

LEFT = {"n": 1, "e_labels": ["c"], "mass": {"c,0": "1/3", "c,1": "2/3"}}
RIGHT = {
    "n": 1,
    "e_labels": ["a", "b", "d"],
    "mass": {"a,0": "1/6", "a,1": "1/6", "b,0": "1/4", "b,1": "1/12", "d,0": "1/6", "d,1": "1/6"},
    "events": {"H": ["a,1"]},
}

# The product factors and event and the demo name are fuzzed with the
# document, as more branches of it.
ROOT = {
    "scenario": BASE,
    "left": LEFT,
    "right": RIGHT,
    "product_event": ["c*a,10", "c*d,01"],
    "demo": "umbrella",
}

COMMANDS = {
    "interval": lambda paths, root: ["interval", paths["scenario"], "H"],
    "condition": lambda paths, root: ["condition", paths["scenario"], "A", "H"],
    "cdf": lambda paths, root: ["cdf", paths["scenario"], "X"],
    "dominate": lambda paths, root: ["dominate", paths["scenario"], "X", "Y"],
    "product": lambda paths, root: [
        "product", paths["left"], paths["right"], json.dumps(root.get("product_event"))
    ],
    "validate": lambda paths, root: ["validate", paths["scenario"]],
    "demo": lambda paths, root: ["demo", str(root.get("demo"))],
}

_STRINGS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(
        ["0", "1", "-1", "1/2", "3/2", "1/0", "1e5000", "x0,00", "x0,2", "x0", ",",
         "table", "belief_mass", "distortion", "power", "piecewise", "H", "X"]
    ),
    st.integers(0, 5000).map(lambda k: "9" * k),
)
_INTS = st.one_of(st.integers(-3, 3), st.integers(min_value=17), st.integers(max_value=-4))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, st.floats(), _STRINGS)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_STRINGS, inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every path to a value under ``node``, the root first."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _mutate(root, data):
    path = data.draw(st.sampled_from(list(_paths(root))[1:]))
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = data.draw(st.sampled_from(["replace", "drop", "rename"]))
    if op == "replace":
        parent[key] = data.draw(_VALUES)
    elif op == "drop":
        del parent[key]
    elif isinstance(parent, dict):
        new_key = data.draw(_STRINGS | st.sampled_from(sorted(parent)))
        parent[new_key] = parent.pop(key)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_scenario_ends_in_one_record(fuzz_dir, command, data):
    root = copy.deepcopy(ROOT)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(root, data)
    paths = {}
    for doc in ("scenario", "left", "right"):
        path = fuzz_dir / f"{doc}.json"
        path.write_text(json.dumps(root.get(doc)))
        paths[doc] = str(path)
    argv = COMMANDS[command](paths, root)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit:  # argparse refused the command line
        return
    assert rc in (0, 2, 3)
    if rc == 0:
        assert err.getvalue() == ""
        return
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, err.getvalue()[:500]
    record = json.loads(lines[0])["error"]
    assert record["kind"] == ("constraint" if rc == 2 else "precondition")
    assert len(record["message"]) < 300
    assert record["witness"] is None or len(record["witness"]) < 300
