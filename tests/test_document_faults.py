"""A fuzzer for the numeric cells of problem documents, run through the
command line in process.

Each example takes a valid document (a built-in demo, a small benchmark
linear document or a small bsde document) and mutates one cell under its
coefficients, its transition or its terminal values: it wraps the cell in
up to 900 lists, replaces a leaf with a value of another JSON type or an
integer past the float range, or makes a row ragged.  Whatever the
mutation, the run ends in an exit code of the command line; an input error
is one line of standard error that names the field at fault; and a second
run writes the same bytes.
"""

import contextlib
import io
import json
import random
import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bench_workloads
from fbsde.cli import DEMOS, run_cli


def _linear_doc():
    """``bench/workloads.linear_doc`` on the binary tree of depth 2."""
    return bench_workloads().linear_doc(random.Random(0), 2, 2)


BASES = {
    **DEMOS,
    "linear_doc N=2 T=2": _linear_doc(),
    "bsde N=2 T=2": {"kind": "bsde", "tree": {"N": 2, "T": 2, "transition": [0.4, 0.6]},
                     "terminal": [1.0, -0.5, 0.25, 2.0],
                     "coefficients": {"f": "0.1*y + z1", "f_terminal": "0.1*y"}},
}

#: Values a leaf is replaced with: every other JSON type, strings that are
#: no expression, and an integer past the float range.
REPLACEMENTS = (True, False, None, "", "abc", "1 +", 10**400, [], [0.5], [[0.5]])

#: One line of input error naming a field of the three mutated blocks.
INPUT_ERROR = re.compile(r"error: (coefficients\.|tree\.|terminal:)[^\n]*\n")


def sites(doc):
    """(path, is a list) of every value under the coefficients, the
    transition and the terminal of ``doc``; a path is a tuple of keys and
    indices."""
    stack = [("coefficients", key) for key in doc.get("coefficients", {})]
    if "terminal" in doc:
        stack.append(("terminal",))
    if "transition" in doc["tree"]:
        stack.append(("tree", "transition"))
    found = []
    while stack:
        path = stack.pop()
        value = lookup(doc, path)
        found.append((path, isinstance(value, list)))
        if isinstance(value, list):
            stack.extend(path + (i,) for i in range(len(value)))
    return found


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def nested(value, k):
    """``value`` inside k lists, built without recursion."""
    for _ in range(k):
        value = [value]
    return value


@st.composite
def mutated_documents(draw):
    """A copy of a base document with one cell wrapped, replaced or made ragged."""
    doc = json.loads(json.dumps(BASES[draw(st.sampled_from(sorted(BASES)))]))
    found = sites(doc)
    candidates = {"wrap": [path for path, _ in found],
                  "replace": [path for path, is_list in found if not is_list],
                  "ragged": [path for path, is_list in found if is_list]}
    how = draw(st.sampled_from([how for how, paths in candidates.items() if paths]))
    path = draw(st.sampled_from(candidates[how]))
    parent, key = lookup(doc, path[:-1]), path[-1]
    if how == "wrap":
        parent[key] = nested(parent[key], draw(st.integers(1, 900)))
    elif how == "replace":
        parent[key] = draw(st.sampled_from(REPLACEMENTS))
    elif parent[key] and draw(st.booleans()):
        parent[key].pop()
    else:
        parent[key].append(parent[key][-1] if parent[key] else 0.5)
    return doc


def run(path, command):
    """(exit code, stdout, stderr) of one in-process run, given the 1000
    frames a fresh interpreter has: hypothesis raises the recursion limit
    while a test runs, which would hide a recursion the command overflows."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 1000)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli([command, str(path)])
    finally:
        sys.setrecursionlimit(limit)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(mutated_documents(), st.sampled_from(("solve", "check")))
def test_a_mutated_cell_ends_in_an_exit_code_and_one_line(tmp_path_factory, doc, command):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    first = run(path, command)
    assert run(path, command) == first
    code, out, err = first
    assert code in (0, 2, 3, 4)
    if code == 4:
        assert out == ""
        assert INPUT_ERROR.fullmatch(err), err
    else:
        assert err == ""
