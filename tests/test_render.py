"""Report rendering: the JSON writer and the CSV table against their
references, the contractions of the solution payload, and the bytes the
command line writes."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bench_workloads, random_tree
from fbsde import io as pio
from fbsde.cli import _solve_loaded, run_cli
from fbsde.io import render_csv, render_json, solution_payload
from fbsde.martingale import tilde_contract
from fbsde.tree import build_tree

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


def one_bit_off(x):
    """``x`` with the lowest bit of its pattern flipped."""
    return (np.array([x]).view(np.int64) ^ 1).view(float).item()


@st.composite
def solution_blocks(draw):
    """A solution block (X, Y, Z_canonical, Z_tilde) of 1-3 levels of 1-4
    rows of N entries.  Each level's last column is +0.0, but for at most
    one entry: -0.0, the integer 0, NaN or a finite float.  Each Z_tilde
    level is the rows without their last entry, sharing their float objects
    as ``solution_payload`` builds them; their contraction as new floats;
    or such rows with one entry one bit off, or an integer or a string."""
    N = draw(st.integers(2, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
    entries = finite | floats
    canonical, tilde = [], []
    for _ in range(draw(st.integers(1, 3))):
        rows = [row + [0.0] for row in draw(st.lists(
            st.lists(entries, min_size=N - 1, max_size=N - 1), min_size=1, max_size=4))]
        stray = draw(st.none() | st.none() | st.sampled_from([-0.0, 0, float("nan")]) | finite)
        if stray is not None:
            rows[draw(st.integers(0, len(rows) - 1))][-1] = stray
        contraction = draw(st.sampled_from(["shared", "new", "bit", "int", "str"]))
        if contraction == "new":
            cut = tilde_contract(np.array(rows, dtype=float)).tolist()
        else:
            cut = [row[:-1] for row in rows]
        if contraction in ("bit", "int", "str"):
            row = cut[draw(st.integers(0, len(cut) - 1))]
            j = draw(st.integers(0, N - 2))
            row[j] = {"bit": one_bit_off, "int": lambda x: 0, "str": repr}[contraction](row[j])
        canonical.append(rows)
        tilde.append(cut)
    levels = [draw(st.lists(entries, min_size=1, max_size=4)) for _ in range(len(canonical) + 1)]
    return {"X": draw(st.none() | st.just(levels)), "Y": levels,
            "Z_canonical": canonical, "Z_tilde": tilde}


@settings(max_examples=120, deadline=None)
@given(solution_blocks())
def test_render_json_equals_json_dumps_on_solution_blocks(block):
    report = {"solution": block, "status": "solved", "stats": {"levels": 0}}
    assert render_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def linear_report(N, T):
    """(document, loaded problem, solved report) of the benchmark's linear
    file drawn with seed 1."""
    doc = bench_workloads().linear_doc(random.Random(1), N, T)
    loaded = pio.bind_problem(doc)
    report, code = _solve_loaded(loaded)
    assert code == 0
    return doc, loaded, report


def test_every_contraction_level_of_a_report_is_cut_from_its_canonical_level(monkeypatch):
    _, _, report = linear_report(3, 5)
    cut = []

    def counted(level, k, canonical):
        strs = contractions_text(level, k, canonical)
        cut.append(strs is not None)
        return strs

    contractions_text = pio._contractions_text
    monkeypatch.setattr(pio, "_contractions_text", counted)
    assert render_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert cut.count(True) == len(report["solution"]["Z_tilde"]) == 5


def test_rows_of_another_shape_sharing_floats_are_formatted_on_their_own():
    a, b, d, e = 0.5, -1.25, 3.5, 7.0
    zero, other = 0.0 * a, 0.0 * d  # two +0.0 objects
    canonical = [[a, b, zero], [d, e, other]]
    # levels sharing its float objects without being its rows less their last entry
    for level in ([[a], [zero]], [[a, zero], [e, d]], [[a, b]], [[a, b, zero]]):
        report = {"Z_canonical": [canonical], "Z_tilde": [level]}
        assert render_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def as_bits(levels):
    return [np.array(level, dtype=float).view(np.int64) for level in levels]


@pytest.mark.parametrize("last", ["+0.0", "-0.0", "nonzero", "nan"])
def test_payload_contractions_are_tilde_contract_bit_for_bit(last):
    tree = build_tree(2, 2)
    rng = np.random.default_rng(5)
    Y = [rng.normal(size=tree.num_nodes(t)) for t in range(3)]
    Z = [rng.normal(size=(tree.num_nodes(t), 2)) for t in range(2)]
    for z in Z:
        z[::2, 0] = -0.0
        z[:, -1] = {"+0.0": 0.0, "-0.0": -0.0, "nonzero": 0.25, "nan": np.nan}[last]
    payload = solution_payload(tree, (Y, Z))
    for got, want in zip(as_bits(payload["Z_tilde"]), as_bits(tilde_contract(z) for z in Z)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_the_command_line_writes_the_rendered_report(tmp_path, capsysbinary, fmt):
    doc, loaded, report = linear_report(3, 5)
    want = (render_json(report) if fmt == "json"
            else render_csv(loaded.tree, report["solution"])).encode()
    path = tmp_path / "linear-3-5.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--format", fmt]
    assert run_cli(argv + ["--output", str(tmp_path / "report")]) == 0
    assert (tmp_path / "report").read_bytes() == want
    capsysbinary.readouterr()
    assert run_cli(argv) == 0
    assert capsysbinary.readouterr().out == want


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
