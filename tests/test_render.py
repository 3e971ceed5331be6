"""Report rendering: the JSON writer and the CSV table against their references."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tree
from fbsde.io import render_csv, render_json

# floats of every kind: -0.0, nan, +-inf, subnormals, 1e300, ...
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e300, -1e300, 1e16, 1e-5]
)
scalars = (
    floats
    | st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
    | st.text()  # non-ASCII included
)
float_lists = st.lists(floats, max_size=6)
float_rows = st.lists(st.lists(floats, max_size=4), max_size=4)
reports = st.recursive(
    scalars | float_lists | float_rows,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=6), children, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(reports)
def test_render_json_equals_json_dumps(report):
    assert render_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_render_json_on_a_solver_report():
    report = {
        "solution": {"X": [[1.0], [0.5, -0.0]], "Z": [[[0.1, 2.5e-300], [3.0, 0.0]]]},
        "certificate": {"singular_nodes": [{"t": 1, "path": [2]}], "min_ratio": None},
        "stats": {"levels": 0, "inner_solves": 1},
        "status": "solved",
        "empty": {"list": [], "dict": {}, "tuple": ()},
    }
    assert render_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def node_by_node_csv(tree, block):
    """The CSV table built one node at a time, naming each node by its NodeId."""
    N, T = tree.N, tree.T
    lines = [",".join(["t", "path", "X", "Y"] + [f"Z_{i + 1}" for i in range(N)])]
    X, Y, Z = block.get("X"), block["Y"], block["Z_canonical"]
    for t in range(T + 1):
        for node in range(tree.num_nodes(t)):
            path = str(tree.node_id(t, node)) if t else ""
            x_val = "" if X is None else repr(X[t][node])
            cells = [str(t), path, x_val, repr(Y[t][node])]
            cells += [repr(v) for v in Z[t][node]] if t < T else [""] * N
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 4), st.booleans())
def test_render_csv_matches_a_node_by_node_table(seed, N, T, with_x):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, T)
    block = {
        "X": [rng.normal(size=N**t).tolist() for t in range(T + 1)] if with_x else None,
        "Y": [rng.normal(size=N**t).tolist() for t in range(T + 1)],
        "Z_canonical": [rng.normal(size=(N**t, N)).tolist() for t in range(T)],
    }
    assert render_csv(tree, block) == node_by_node_csv(tree, block)
