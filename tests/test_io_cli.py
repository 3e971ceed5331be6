"""Problem files, report round-trips, and the command-line surface."""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import INCREASING_DOC
from fbsde import (
    AssumptionViolation,
    Expression,
    ExpressionDomainError,
    FbsdeError,
    InvalidOption,
    SchemaError,
    bind_problem,
    linear,
    oracle,
    parse_expression,
    special_coefficients,
    verify_report,
)
import fbsde
from fbsde.cli import DEMOS, run_cli
from fbsde.expressions import ARRAY_FORM_MIN

#: A nonlinear file on N=3 whose every coefficient reads t and w, and whose
#: interior ones read z1 and z2.
NONLINEAR_SOURCES = {
    "b": "-y + 0.1*tanh(x) + 0.03*w - z2/5",
    "sigma": ["-z1 + 0.01*t", "-z2*x/9", "min(y, w)/11"],
    "f": "x + 0.2*tanh(y) - 0.1*z1*z2 + t^2/9",
    "f_terminal": "x - w*sin(y)/7 + t",
    "h": "1.1*x + exp(-x*x)*w + t",
}
ROW_COUPLED_DOC = {"kind": "nonlinear", "tree": {"N": 3, "T": 3}, "x0": 1.0,
                   "coefficients": NONLINEAR_SOURCES}

LINEAR_FIELDS = (
    "A", "B", "C", "D", "A_bar", "B_bar", "C_bar", "D_bar",
    "A_hat", "B_hat", "C_hat", "D_hat", "G", "g",
)


def level_arrays(coeffs):
    """Every level array of a LinearCoefficients, by field name."""
    for name in LINEAR_FIELDS:
        value = getattr(coeffs, name)
        for lev in [value] if isinstance(value, np.ndarray) else value:
            if lev is not None:
                yield name, lev


def cell_reference(cell, t, w):
    """One JSON cell evaluated at (t, w) the slow way: one cell at a time."""
    if isinstance(cell, list):
        return [cell_reference(v, t, w) for v in cell]
    if isinstance(cell, str):
        return parse_expression(cell).evaluate({"t": float(t), "w": float(w)})
    return float(cell)


def minimal_special_doc():
    return {
        "kind": "special",
        "tree": {"N": 2, "T": 2, "transition": "uniform"},
        "x0": 0.0,
        "coefficients": {"g": 0.0},
    }


class TestBinding:
    def test_minimal_special_file(self):
        loaded = bind_problem(minimal_special_doc())
        assert loaded.kind == "special"
        assert loaded.tree.N == 2
        assert loaded.options.tolerance == 1e-10

    def test_linear_assumption_checked_at_load(self):
        doc = {
            "kind": "linear",
            "tree": {"N": 2, "T": 1, "transition": "uniform"},
            "x0": 0.0,
            "coefficients": {"C": [1.0, 1.0]},
        }
        with pytest.raises(AssumptionViolation, match="C column"):
            bind_problem(doc)

    def test_expression_coefficients_use_time_and_branch(self):
        doc = {
            "kind": "linear",
            "tree": {"N": 2, "T": 2, "transition": "uniform"},
            "x0": 0.0,
            "coefficients": {"D": "0.5*t + 0.25*w", "G": 1.0},
        }
        loaded = bind_problem(doc)
        coeffs = loaded.data
        assert coeffs.D[0][0] == 0.0  # root: t=0, w=0
        np.testing.assert_allclose(coeffs.D[1], [0.75, 1.0])  # t=1, w in {1, 2}

    def test_per_node_flat_arrays(self):
        doc = {
            "kind": "linear",
            "tree": {"N": 2, "T": 2, "transition": "uniform"},
            "x0": 0.0,
            "coefficients": {"A": [10.0, 20.0, 30.0], "G": [1.0, 2.0, 3.0, 4.0]},
        }
        coeffs = bind_problem(doc).data
        assert coeffs.A[0][0] == 10.0
        np.testing.assert_array_equal(coeffs.A[1], [20.0, 30.0])
        np.testing.assert_array_equal(coeffs.G, [1.0, 2.0, 3.0, 4.0])

    def test_wrong_flat_length(self):
        doc = {
            "kind": "linear",
            "tree": {"N": 2, "T": 2, "transition": "uniform"},
            "x0": 0.0,
            "coefficients": {"A": [1.0, 2.0]},
        }
        with pytest.raises(SchemaError, match="per-node"):
            bind_problem(doc)

    def test_state_variables_rejected_in_linear_coefficients(self):
        doc = {
            "kind": "linear",
            "tree": {"N": 2, "T": 1, "transition": "uniform"},
            "x0": 0.0,
            "coefficients": {"A": "x + 1"},
        }
        with pytest.raises(SchemaError, match="not allowed"):
            bind_problem(doc)

    def test_missing_required_fields(self):
        with pytest.raises(SchemaError, match="kind"):
            bind_problem({"tree": {"N": 2, "T": 1}})
        with pytest.raises(SchemaError, match="x0"):
            bind_problem(
                {"kind": "special", "tree": {"N": 2, "T": 1, "transition": "uniform"}}
            )

    def test_unknown_coefficient_field(self):
        doc = minimal_special_doc()
        doc["coefficients"]["Q"] = 1.0
        with pytest.raises(SchemaError, match="unknown fields"):
            bind_problem(doc)

    def test_bad_transition_rows(self):
        doc = minimal_special_doc()
        doc["tree"]["transition"] = [[0.6, 0.6]]
        with pytest.raises(SchemaError, match="tree"):
            bind_problem(doc)

    def test_sigma_needs_one_expression_per_state(self):
        doc = DEMOS["monotone-family"] | {
            "coefficients": {"b": "-y", "sigma": ["-z1"], "f": "x", "h": "x"}
        }
        with pytest.raises(SchemaError, match="sigma"):
            bind_problem(doc)

    def test_contraction_variables_bounded_by_branching(self):
        doc = json.loads(json.dumps(DEMOS["monotone-family"]))
        doc["coefficients"]["b"] = "-y + z2"
        with pytest.raises(SchemaError, match="z2"):
            bind_problem(doc)

    def test_f_terminal_required_when_f_uses_contraction(self):
        doc = json.loads(json.dumps(DEMOS["monotone-family"]))
        doc["coefficients"]["f"] = "x + z1"
        del doc["coefficients"]["f_terminal"]
        with pytest.raises(SchemaError, match="f_terminal"):
            bind_problem(doc)

    def test_bsde_kind(self):
        doc = {
            "kind": "bsde",
            "tree": {"N": 2, "T": 2, "transition": "uniform"},
            "terminal": [1.0, 2.0, 3.0, 4.0],
            "coefficients": {"f": "0.1*y + z1", "f_terminal": "0.1*y"},
        }
        loaded = bind_problem(doc)
        assert loaded.x0 is None
        assert loaded.data.terminal.shape == (4,)

    def test_bsde_f_terminal_defaults_to_f_when_row_free(self):
        doc = {
            "kind": "bsde",
            "tree": {"N": 2, "T": 2, "transition": "uniform"},
            "terminal": [1.0, 2.0, 3.0, 4.0],
            "coefficients": {"f": "0.5"},
        }
        problem = bind_problem(doc).data
        assert problem.generator(2, np.array([1.0, 2.0, 3.0, 4.0]), None).tolist() == [0.5] * 4
        doc["coefficients"] = {"f": "z1"}
        with pytest.raises(SchemaError, match="f_terminal"):
            bind_problem(doc)

    @pytest.mark.parametrize("kind, state", [("nonlinear", "x"), ("bsde", "y")])
    def test_f_terminal_rule_is_the_same_for_both_kinds(self, kind, state):
        doc = json.loads(json.dumps(DEMOS["monotone-family"]))
        if kind == "bsde":
            doc = {"kind": "bsde", "tree": doc["tree"], "terminal": [0.0] * 8}
        doc["coefficients"] = doc.get("coefficients", {}) | {"f": f"{state} + z1"}
        doc["coefficients"].pop("f_terminal", None)
        with pytest.raises(SchemaError) as info:
            bind_problem(doc)
        assert str(info.value) == (
            "coefficients.f_terminal: required because f uses contraction variables"
        )
        doc["coefficients"]["f_terminal"] = f"{state} + z1"
        with pytest.raises(SchemaError) as info:
            bind_problem(doc)
        assert str(info.value) == "coefficients.f_terminal: variables ['z1'] not allowed here"
        doc["coefficients"]["f_terminal"] = f"2*{state} + w + t"
        assert bind_problem(doc).kind == kind

    def test_nonlinear_callbacks_match_a_per_node_evaluation(self):
        # the file binding answers one level a call; the reference calls
        # evaluate once per node, with w = node % N + 1 (0 at the root), on
        # random node subsets with repeats
        rng = np.random.default_rng(11)
        problem = bind_problem(ROW_COUPLED_DOC).data
        N, T = 3, 3
        expr = {k: parse_expression(v) for k, v in NONLINEAR_SOURCES.items() if k != "sigma"}
        sigma = [parse_expression(v) for v in NONLINEAR_SOURCES["sigma"]]

        def env(t, node, x, y=None, zt=None):
            e = {"t": float(t), "w": float(node % N + 1 if t else 0), "x": x}
            if y is not None:
                e["y"] = y
            if zt is not None:
                e.update(z1=zt[0], z2=zt[1])
            return e

        def bits(values):
            return np.asarray(values, dtype=float).tobytes()

        for t in range(T + 1):
            n = int(rng.integers(1, 2 * N**t + 1))
            nodes = rng.integers(0, N**t, size=n)
            x, y = rng.uniform(-2, 2, size=(2, n))
            zt = rng.uniform(-2, 2, size=(n, N - 1))
            points = list(zip(nodes, x, y, zt))
            if t < T:
                want = [expr["b"].evaluate(env(t, *p)) for p in points]
                assert bits(problem.drift(t, nodes, x, y, zt)) == bits(want)
                want = [[s.evaluate(env(t, *p)) for s in sigma] for p in points]
                assert bits(problem.diffusion(t, nodes, x, y, zt)) == bits(want)
            if 0 < t < T:
                want = [expr["f"].evaluate(env(t, *p)) for p in points]
                assert bits(problem.generator(t, nodes, x, y, zt)) == bits(want)
            if t == T:
                want = [expr["f_terminal"].evaluate(env(t, node, xi, yi))
                        for node, xi, yi in zip(nodes, x, y)]
                assert bits(problem.generator(t, nodes, x, y, None)) == bits(want)
                want = [expr["h"].evaluate(env(t, node, xi)) for node, xi in zip(nodes, x)]
                assert bits(problem.terminal(nodes, x)) == bits(want)

    def test_row_coefficients_accept_expressions(self):
        doc = {
            "kind": "linear",
            "tree": {"N": 2, "T": 2, "transition": "uniform"},
            "x0": 0.0,
            "coefficients": {"C": ["0.2*t", "-0.2*t"], "G": 1.0},
        }
        coeffs = bind_problem(doc).data
        np.testing.assert_allclose(coeffs.C[0][0], [0.0, 0.0])
        np.testing.assert_allclose(coeffs.C[1], [[0.2, -0.2], [0.2, -0.2]])

    @pytest.mark.parametrize(
        "name, value, shared, times",
        [
            ("C_bar", [["0.1*t", "0.2*w"], ["-0.1*t", "-0.2*w"]], True, [0, 1]),
            ("C_bar", [[["w", 1.5], ["-w", -1.5]]] * 3, False, [0, 1]),
            ("C", [["0.1*w", "-0.1*w"], [0.2, -0.2], ["t + w", "-(t + w)"]], False, [0, 1]),
            ("D_bar", ["0.5*w - t", 2], True, [0, 1]),
            ("C_hat", [["0.3*w", "-0.3*w"]] * 2 + [[0, 0]] * 4, False, [1, 2]),
            ("D_hat", "0.1*w - 0.01*t", True, [1, 2]),
            ("G", "1 + w", True, [2]),
        ],
    )
    def test_expression_cells_match_a_per_node_loop(self, name, value, shared, times):
        tree_doc = {"N": 2, "T": 2, "transition": "uniform"}
        doc = {"kind": "linear", "tree": tree_doc, "x0": 0.0, "coefficients": {name: value}}
        loaded = bind_problem(doc)
        tree, got = loaded.tree, getattr(loaded.data, name)
        pos = 0
        for t in times:
            want = []
            for node in range(tree.num_nodes(t)):
                cell = value if shared else value[pos + node]
                want.append(cell_reference(cell, t, 0 if t == 0 else node % tree.N + 1))
            pos += tree.num_nodes(t)
            np.testing.assert_array_equal(got if name == "G" else got[t], want)

    def test_special_doc_binds_to_the_api_coefficients(self):
        doc = {
            "kind": "special",
            "tree": {"N": 2, "T": 2, "transition": [0.25, 0.75]},
            "x0": 0.5,
            "coefficients": {
                "D": [0.1, 0.2, 0.3],
                "D_bar": ["0.5*w", -1],
                "D_hat": "0.1*w - t",
                "g": [1, 2, 3, 4],
            },
        }
        loaded = bind_problem(doc)
        assert isinstance(loaded.data, linear.LinearCoefficients)
        want = special_coefficients(
            loaded.tree,
            D=[[0.1], [0.2, 0.3]],
            D_bar=[[0.0, -1.0], [[0.5, -1.0], [1.0, -1.0]]],
            D_hat=[[0.1 - 1, 0.2 - 1], [0.1 - 2, 0.2 - 2, 0.1 - 2, 0.2 - 2]],
            g=[1.0, 2.0, 3.0, 4.0],
        )
        for (name, got), (_, expected) in zip(level_arrays(loaded.data), level_arrays(want)):
            np.testing.assert_array_equal(got, expected, err_msg=name)

    def test_shared_expression_evaluated_once_per_time_and_branch(self, monkeypatch):
        calls = []
        evaluate = Expression.evaluate

        def counted(self, env):
            calls.append(env)
            return evaluate(self, env)

        monkeypatch.setattr(Expression, "evaluate", counted)
        N, T = 2, 10
        doc = {
            "kind": "linear",
            "tree": {"N": N, "T": T, "transition": "uniform"},
            "x0": 0.0,
            "coefficients": {"D_hat": "0.1*w - 0.01*t"},
        }
        bind_problem(doc)
        assert len(calls) <= N * T + 1

    @pytest.mark.parametrize(
        "demo, field, value",
        [
            ("partially-coupled", "C_bar", [[["0.1*w", 0], ["-0.1*w", 0]]] * 7),
            ("corollary-special", "D", "0.1*t"),
        ],
    )
    def test_level_arrays_are_c_contiguous(self, demo, field, value):
        doc = json.loads(json.dumps(DEMOS[demo]))
        doc["coefficients"][field] = value
        for name, lev in level_arrays(bind_problem(doc).data):
            assert lev.flags.c_contiguous, name

    def test_options_validated(self):
        doc = minimal_special_doc()
        doc["options"] = {"mode": "fancy"}
        with pytest.raises(InvalidOption, match="mode must be one of continuation, picard"):
            bind_problem(doc)
        doc["options"] = {"mode": nested("picard", 900)}
        with pytest.raises(InvalidOption, match="picard, got a list$"):
            bind_problem(doc)
        doc["options"] = {"tolerance": 1e-8, "seed": 3}
        options = bind_problem(doc).options
        assert options.tolerance == 1e-8
        assert (options.mode, options.seed) == ("continuation", 3)


def test_certificate_payload_on_halted_recursion():
    # feedback only at time 1: the backward pass stops there and the
    # payload reports the unreached level as null
    import fbsde
    from fbsde.io import certificate_payload

    tree = fbsde.build_tree(2, 2)
    coeffs = fbsde.LinearCoefficients(tree, B=[0.0, 1.0], G=1.0)
    payload = certificate_payload(fbsde.riccati_backward(coeffs))
    assert payload["all_invertible"] is False
    assert payload["P_levels"][0] is None
    assert payload["P_levels"][1] == [1.0, 1.0, 1.0, 1.0]
    assert json.dumps(payload)  # serializable as-is


def nested(value, k):
    """``value`` inside k lists, built without recursion."""
    for _ in range(k):
        value = [value]
    return value


LINEAR_DOC = DEMOS["partially-coupled"]
NONLINEAR_DOC = DEMOS["monotone-family"]
BSDE_DOC = {"kind": "bsde", "tree": {"N": 2, "T": 1, "transition": "uniform"}, "terminal": [1.0, 2.0]}
#: Tree blocks with an N, T or transition cell that is not a JSON number
#: of the right kind, and the field the error names.  ``int`` or numpy
#: would read each as a number, and a file of shared cells would solve.
#: A size out of range names the tree, and a table ``build_tree`` refuses
#: its transition.
BAD_TREES = {
    "tree-N-fraction": ({"N": 2.5, "T": 3}, "tree.N"),
    "tree-N-string": ({"N": "2", "T": 3}, "tree.N"),
    "tree-T-boolean": ({"N": 2, "T": True}, "tree.T"),
    "tree-T-fraction": ({"N": 2, "T": 2.9}, "tree.T"),
    "tree-transition-strings": (
        {"N": 2, "T": 3, "transition": ["0.5", "0.5"]}, "tree.transition"),
    "tree-T-huge": ({"N": 2, "T": 10**400}, "tree.T"),
    "tree-transition-huge": ({"N": 2, "T": 3, "transition": [10**400, 0.5]}, "tree.transition"),
    "tree-N-one": ({"N": 1, "T": 3}, "tree"),
    "tree-T-zero": ({"N": 2, "T": 0}, "tree"),
    "tree-transition-short-row": ({"N": 2, "T": 3, "transition": [0.5]}, "tree.transition"),
    "tree-transition-unknown-spec": ({"N": 2, "T": 3, "transition": "skewed"}, "tree.transition"),
}
#: Documents with an integer too large for a float at each site a number
#: is read, and the field the error names.
HUGE_INTEGERS = {
    "x0-huge": (LINEAR_DOC | {"x0": 10**400}, "x0"),
    "per-node-huge": (LINEAR_DOC | {"coefficients": {"A": [0.1] * 6 + [10**400]}},
                      "coefficients.A"),
    "shared-huge": (LINEAR_DOC | {"coefficients": {"A": 10**400}}, "coefficients.A"),
    "tolerance-huge": (LINEAR_DOC | {"options": {"tolerance": 10**400}}, "options.tolerance"),
    "terminal-huge": (BSDE_DOC | {"terminal": [1.0, -(10**400)]}, "terminal"),
}
#: Documents that the loader refuses, the field its SchemaError names and
#: a part of its message.
BAD_DOCUMENTS = {
    "not-an-object": ([LINEAR_DOC], "", "problem document must be a JSON object"),
    "unknown-kind": (LINEAR_DOC | {"kind": "quadratic"}, "kind", "got 'quadratic'"),
    "nonlinear-unknown-field": (
        NONLINEAR_DOC | {"coefficients": NONLINEAR_DOC["coefficients"] | {"g": "x"}},
        "coefficients", "unknown fields ['g']"),
    "bsde-unknown-field": (BSDE_DOC | {"coefficients": {"g": "y"}}, "coefficients",
                           "unknown fields ['g']"),
    "bsde-terminal-length": (BSDE_DOC | {"terminal": [1.0, 2.0, 3.0]}, "terminal",
                             "expected 2 leaf values"),
    # a source that is not a string is refused by its type, not by the tokenizer
    "nonlinear-numeric-b": (
        NONLINEAR_DOC | {"coefficients": NONLINEAR_DOC["coefficients"] | {"b": 1.5}},
        "coefficients.b", "expected an expression string, got float"),
    "nonlinear-sigma-list": (
        NONLINEAR_DOC | {"coefficients": NONLINEAR_DOC["coefficients"] | {"sigma": [["-z1"], "0"]}},
        "coefficients.sigma[0]", "expected an expression string, got list"),
    "bsde-deep-product": (BSDE_DOC | {"coefficients": {"f": "*".join(["y"] * 1000)}},
                          "coefficients.f", "bad expression: chained deeper than"),
    # a linear coefficient's evaluation fault names its field and node
    "linear-expression-fault": (LINEAR_DOC | {"coefficients": {"D_hat": "1/(w-1)"}},
                                "coefficients.D_hat", "division by zero (offset 1) at t=1, w=1"),
    # a cell of the wrong shape is refused by LinearCoefficients, which
    # names the shape of the per-node array it expected and got
    "C-cell-too-long": ({"kind": "linear", "tree": {"N": 2, "T": 2}, "x0": 1.0,
                         "coefficients": {"C": [0.1, -0.1, 0.0]}},
                        "coefficients.C", "level-order array of shape (3, 2), got shape (3, 3)"),
    # cells nested 900 lists deep, read without recursion
    "A-nested-900": ({"kind": "linear", "tree": {"N": 2, "T": 1}, "x0": 1.0,
                      "coefficients": {"A": nested(0.1, 900)}},
                     "coefficients.A", "expected a number, got a list"),
    "A_bar-second-cell-nested-900": (
        {"kind": "linear", "tree": {"N": 2, "T": 2}, "x0": 1.0,
         "coefficients": {"A_bar": [[0.2, -0.2], nested([0.2, -0.2], 900), [0.2, -0.2]]}},
        "coefficients.A_bar", "lists of unequal lengths 1 and 2 at depth 1"),
    "transition-nested-900": (
        BSDE_DOC | {"tree": {"N": 2, "T": 1, "transition": nested([0.5, 0.5], 900)}},
        "tree.transition", "expected a number, got a list"),
    # a kind that is not a string is named by its type, never printed
    "kind-nested-900": (LINEAR_DOC | {"kind": nested("linear", 900)}, "kind", "got a list"),
}
MALFORMED = {
    "x0-string": ("solve", LINEAR_DOC | {"x0": "abc"}, []),
    "x0-null": ("solve", LINEAR_DOC | {"x0": None}, []),
    "x0-boolean": ("solve", LINEAR_DOC | {"x0": True}, []),
    "terminal-string": ("solve", BSDE_DOC | {"terminal": [1.0, "a"]}, []),
    "tolerance-string": ("solve", LINEAR_DOC | {"options": {"tolerance": "abc"}}, []),
    "max-iter-string": ("solve", LINEAR_DOC | {"options": {"max_iter": "x"}}, []),
    "max-iter-twice": (
        "solve", LINEAR_DOC | {"options": {"max_iter": 5, "max_iterations": 7}}, []),
    "delta-file": ("solve", LINEAR_DOC | {"options": {"delta": 2}}, []),
    "ragged-c-bar": ("solve", LINEAR_DOC | {"coefficients": {"C_bar": [[1, 2], [3]]}}, []),
    "per-node-boolean": ("solve", LINEAR_DOC | {"coefficients": {"A": [0.1] * 6 + [True]}}, []),
    "per-node-null": ("solve", LINEAR_DOC | {"coefficients": {"A": [None] + [0.1] * 6}}, []),
    "per-node-row-boolean": (
        "solve", LINEAR_DOC | {"coefficients": {"D_bar": [[0.1, False]] + [[0.1, 0.2]] * 6}}, []),
    "per-node-row-number": (
        "solve", LINEAR_DOC | {"coefficients": {"D_bar": [[0.1, 0.2]] * 6 + [0.3]}}, []),
    "terminal-boolean": ("solve", BSDE_DOC | {"terminal": [1.0, True]}, []),
    "tree-number": ("solve", BSDE_DOC | {"tree": 5}, []),
    "coefficients-string": ("solve", BSDE_DOC | {"coefficients": "f"}, []),
    "delta-2": ("solve", LINEAR_DOC, ["--delta", "2"]),
    "delta-0": ("solve", LINEAR_DOC, ["--delta", "0"]),
    "tol-0": ("solve", LINEAR_DOC, ["--tol", "0"]),
    "tol-negative": ("solve", LINEAR_DOC, ["--tol", "-1"]),
    "tol-nan": ("solve", LINEAR_DOC, ["--tol", "nan"]),
    "max-iter-0": ("solve", LINEAR_DOC, ["--max-iter", "0"]),
    "seed-check": ("check", NONLINEAR_DOC, ["--seed", "-1"]),
    "seed-oracle": ("oracle", NONLINEAR_DOC, ["--seed", "-1"]),
    "seed-file": ("check", NONLINEAR_DOC | {"options": {"seed": -1}}, []),
    "mode-file": ("solve", NONLINEAR_DOC | {"options": {"mode": "fancy"}}, []),
    "max-iter-file-0": ("solve", LINEAR_DOC | {"options": {"max_iter": 0}}, []),
    "max-iterations-file-0": ("solve", LINEAR_DOC | {"options": {"max_iterations": 0}}, []),
    "tolerance-file-negative": ("solve", LINEAR_DOC | {"options": {"tolerance": -1}}, []),
    **{label: ("solve", minimal_special_doc() | {"tree": tree}, [])
       for label, (tree, _) in BAD_TREES.items()},
    **{label: ("solve", doc, []) for label, (doc, _, _) in BAD_DOCUMENTS.items()},
    **{label: ("solve", doc, []) for label, (doc, _) in HUGE_INTEGERS.items()},
}


@pytest.mark.parametrize("command, doc, flags", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_an_input_error(tmp_path, capsys, command, doc, flags):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert run_cli([command, str(path), *flags]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


#: Options out of range in a file, and the error line of each: the field by
#: the file's own key, then ``ContinuationOptions``' own message.
OPTION_RANGE_FAULTS = {
    "delta": ({"delta": 2.0}, "options.delta: delta must lie in (0, 1], got 2.0"),
    "mode": ({"mode": "fancy"},
             "options.mode: mode must be one of continuation, picard, got 'fancy'"),
    "max_iter": ({"max_iter": 0}, "options.max_iter: max_iterations must be at least 1, got 0"),
    "max_iterations": ({"max_iterations": 0},
                       "options.max_iterations: max_iterations must be at least 1, got 0"),
    "tolerance": ({"tolerance": -1.0},
                  "options.tolerance: tolerance must be finite and positive, got -1.0"),
    "seed": ({"seed": -1}, "options.seed: seed must be non-negative, got -1"),
}


@pytest.mark.parametrize("options, error", OPTION_RANGE_FAULTS.values(),
                         ids=OPTION_RANGE_FAULTS.keys())
def test_an_option_out_of_range_names_its_field(tmp_path, capsys, options, error):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(NONLINEAR_DOC | {"options": options}))
    assert run_cli(["solve", str(path)]) == 4
    assert capsys.readouterr() == ("", f"error: {error}\n")
    # the options type itself, as a flag reaches it, keeps its message
    key = "max_iterations" if "max_iter" in options else next(iter(options))
    with pytest.raises(InvalidOption) as err:
        fbsde.ContinuationOptions(**{key: next(iter(options.values()))})
    assert (str(err.value), err.value.field) == (error.split(": ", 1)[1], key)


#: Drift sources deeper than the parser's bound, which every command
#: refuses while binding the file.
DEEP_SOURCES = {
    "sum": "+".join(["x"] * 5000),
    "parentheses": "(" * 5000 + "x" + ")" * 5000,
    "minus": "-" * 5000 + "x",
    "product": "*".join(["x"] * 5000),
}


@pytest.mark.parametrize("command", ["solve", "oracle", "check"])
@pytest.mark.parametrize("source", DEEP_SOURCES.values(), ids=DEEP_SOURCES.keys())
def test_too_deep_an_expression_is_one_line_of_input_error(tmp_path, capsys, command, source):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(
        NONLINEAR_DOC | {"coefficients": NONLINEAR_DOC["coefficients"] | {"b": source}}))
    assert run_cli([command, str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: coefficients\.b: bad expression: (chained|nested) deeper than "
                        r"\d+ \(offset \d+\)\n", captured.err)


@pytest.mark.parametrize("tree, field", BAD_TREES.values(), ids=BAD_TREES.keys())
def test_a_bad_tree_cell_names_its_field(tree, field):
    with pytest.raises(SchemaError) as err:
        bind_problem(minimal_special_doc() | {"tree": tree})
    assert err.value.field == field


def test_a_level_that_is_not_plain_numbers_goes_to_the_cell_reader():
    # a number where a row is due is refused by the walk; an integer too
    # large for a float leaves the one-call conversion to the leaf-by-leaf
    # reader, which names the fault; plain rows convert as they are
    with pytest.raises(SchemaError, match=r"^f: expected lists nested 2 deep, got float at depth 1$"):
        fbsde.io._numbers([[0.1, 0.2], 0.3], 2, "f")
    with pytest.raises(SchemaError, match="integer of 401 digits"):
        fbsde.io._numbers([0.1, 10**400], 1, "f")
    rows = [[0.1, 0.2], [0.3, 0.4]]
    np.testing.assert_array_equal(fbsde.io._numbers(rows, 2, "f"), rows)


#: Files nested deep, and the one line of standard error every command writes
#: for each: three cells nested 900 lists deep, and a document nested 100000
#: deep, past the JSON decoder's recursion limit.
DEEP_FILES = {
    **{label: (json.dumps(BAD_DOCUMENTS[label][0]),
               f"error: {BAD_DOCUMENTS[label][1]}: {BAD_DOCUMENTS[label][2]}\n")
       for label in ("A-nested-900", "A_bar-second-cell-nested-900", "transition-nested-900")},
    "document-nested-100000": ("[" * 100000 + "]" * 100000, "error: PATH: invalid JSON: maximum "
                               "recursion depth exceeded while decoding a JSON array from a "
                               "unicode string\n"),
}


@pytest.mark.parametrize("command", ["solve", "oracle", "check"])
@pytest.mark.parametrize("text, error", DEEP_FILES.values(), ids=DEEP_FILES.keys())
def test_deep_nesting_is_one_line_of_input_error(tmp_path, capsys, command, text, error):
    path = tmp_path / "problem.json"
    path.write_text(text)
    assert run_cli([command, str(path)]) == 4
    assert capsys.readouterr() == ("", error.replace("PATH", str(path)))


@pytest.mark.parametrize("doc, field", HUGE_INTEGERS.values(), ids=HUGE_INTEGERS.keys())
def test_a_huge_integer_names_its_field(doc, field):
    with pytest.raises(SchemaError) as err:
        bind_problem(doc)
    assert err.value.field == field
    assert str(err.value) == (f"{field}: expected a number within the float range, "
                              "got an integer of 401 digits")


@pytest.mark.parametrize("text", [b'{"x0": 1' + b"0" * 5000 + b"}", b"\xff\xfe{}"],
                         ids=["past-the-digit-limit", "not-utf-8"])
def test_an_unreadable_file_is_an_input_error(tmp_path, capsys, text):
    # json.load raises ValueError, not JSONDecodeError, for both
    path = tmp_path / "problem.json"
    path.write_bytes(text)
    assert run_cli(["solve", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "invalid JSON" in captured.err


@pytest.mark.parametrize("doc, field, message", BAD_DOCUMENTS.values(), ids=BAD_DOCUMENTS.keys())
def test_a_bad_document_names_its_fault(doc, field, message):
    with pytest.raises(SchemaError) as err:
        bind_problem(doc)
    assert err.value.field == field
    assert message in str(err.value)


TREE_2_3 = {"N": 2, "T": 3, "transition": "uniform"}

#: Documents with a key their kind does not read, and that key.
UNREAD_KEYS = {
    # the generator belongs under coefficients; read there, it overflows
    "bsde-top-level-f": ({"kind": "bsde", "tree": TREE_2_3, "terminal": [1.7e308] * 8,
                          "f": "0.5*y"}, "f"),
    "bsde-x0": (BSDE_DOC | {"x0": 1.0}, "x0"),
    "linear-terminal": (LINEAR_DOC | {"terminal": [1.0] * 8}, "terminal"),
    "misspelled-transition": (
        NONLINEAR_DOC | {"tree": {"N": 2, "T": 3, "transitions": [0.3, 0.7]}}, "transitions"),
}


@pytest.mark.parametrize("doc, key", UNREAD_KEYS.values(), ids=UNREAD_KEYS.keys())
def test_a_key_the_kind_does_not_read_is_an_input_error(tmp_path, capsys, doc, key):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["solve", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"unknown keys ['{key}']" in captured.err


def test_every_demo_and_benchmark_document_binds(tmp_path):
    for doc in DEMOS.values():
        bind_problem(doc)
    bench = Path(__file__).resolve().parent.parent / "bench"
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", bench / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look their module up here
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = saved
    for name in workloads.BUILDERS:
        for seed in (1, 2, 7):
            workdir = tmp_path / f"{name}-{seed}"
            workdir.mkdir()
            for op in workloads.generate(name, seed, workdir):
                fbsde.load_problem(workdir / op.problem)


#: Entries of a level set to NaN or infinity, as (variable, node, value);
#: each hands the array form of ``Expression.evaluate`` back to its node
#: loop.  Where two nodes fail, the later one fails in an earlier expression
#: of the diffusion or at another offset, so the error names the node.
NON_FINITE_ENTRIES = {
    "finite": [],
    "inf-x": [("x", 70, math.inf)],
    "nan-x-inf-y": [("x", 70, math.nan), ("y", 50, math.inf)],
    "inf-z1-minus-inf-y": [("z1", 80, math.inf), ("y", 40, -math.inf)],
}


@pytest.mark.parametrize("entries", NON_FINITE_ENTRIES.values(), ids=NON_FINITE_ENTRIES.keys())
def test_a_large_level_evaluates_as_its_small_chunks(monkeypatch, entries):
    # a callback on ARRAY_FORM_MIN nodes or more evaluates by array
    # operations; on fewer, node by node: the values, or the error of the
    # first failing node, must be the same
    rng = np.random.default_rng(12)
    problem = bind_problem(ROW_COUPLED_DOC).data
    N, T, n = 3, 3, 3 * ARRAY_FORM_MIN
    x, y = rng.uniform(-2, 2, size=(2, n))
    zt = rng.uniform(-2, 2, size=(n, N - 1))
    for name, node, value in entries:
        {"x": x, "y": y, "z1": zt[:, 0]}[name][node] = value
    level_calls = []
    array_form = Expression._array_form
    monkeypatch.setattr(Expression, "_array_form",
                        lambda self, env, n: level_calls.append(self) or array_form(self, env, n))

    def outcome(fn, size):
        try:
            return "values", np.concatenate([fn(slice(i, i + size)) for i in range(0, n, size)]).tobytes()
        except FbsdeError as err:
            return type(err), str(err)

    outcomes = []
    for t in range(T + 1):
        nodes = rng.integers(0, N**t, size=n)
        calls = []
        if t < T:
            calls.append(lambda s: problem.drift(t, nodes[s], x[s], y[s], zt[s]))
            calls.append(lambda s: problem.diffusion(t, nodes[s], x[s], y[s], zt[s]))
        if 0 < t < T:
            calls.append(lambda s: problem.generator(t, nodes[s], x[s], y[s], zt[s]))
        if t == T:
            calls.append(lambda s: problem.generator(t, nodes[s], x[s], y[s], None))
            calls.append(lambda s: problem.terminal(nodes[s], x[s]))
        for fn in calls:
            level_calls.clear()
            whole = outcome(fn, n)
            assert level_calls
            level_calls.clear()
            assert outcome(fn, ARRAY_FORM_MIN - 1) == whole
            assert not level_calls
            outcomes.append(whole[0])
    assert (set(outcomes) != {"values"}) == bool(entries)


@pytest.mark.parametrize("n", [5, 3 * ARRAY_FORM_MIN])
def test_the_diffusion_names_its_first_failing_node(n):
    # nodes in order, and at a node the expressions in order: sigma[2]
    # fails at node 1 and sigma[0] at node 3, so sigma[2]'s error is raised
    doc = json.loads(json.dumps(ROW_COUPLED_DOC))
    doc["coefficients"]["sigma"] = ["x/(y - 2)", "y", "1 + y/x"]
    problem = bind_problem(doc).data
    x, y, zt = np.ones(n), np.ones(n), np.zeros((n, 2))
    x[1], y[3] = 0.0, 2.0
    nodes = np.arange(n) % 9
    sigma = [parse_expression(s) for s in doc["coefficients"]["sigma"]]
    with pytest.raises(ExpressionDomainError) as info:
        problem.diffusion(2, nodes, x, y, zt)
    with pytest.raises(ExpressionDomainError) as want:
        for i in range(n):
            env = {"t": 2.0, "w": float(nodes[i] % 3 + 1), "x": x[i], "y": y[i], "z1": 0.0, "z2": 0.0}
            [s.evaluate(env) for s in sigma]
    assert (str(info.value), info.value.node) == (str(want.value), 1) == ("division by zero (offset 5)", 1)


#: Files whose solution overflows: Z of alternating huge leaves, a root
#: value whose drift overflows, a generator pushing huge leaves past the range.
OVERFLOWING = {
    "bsde-rows": ("solve", {"kind": "bsde", "tree": TREE_2_3,
                            "terminal": [1.7e308, -1.7e308] * 4}),
    "oracle-linear": ("oracle", {"kind": "linear", "tree": TREE_2_3, "x0": 1e308,
                                 "coefficients": {"A": 1.0}}),
    "bsde-generator": ("solve", {"kind": "bsde", "tree": TREE_2_3, "terminal": [1.7e308] * 8,
                                 "coefficients": {"f": "0.5*y"}}),
}


@pytest.mark.parametrize("command, doc", OVERFLOWING.values(), ids=OVERFLOWING.keys())
def test_an_overflowing_solution_is_an_error(tmp_path, capsys, command, doc):
    # never a "solved" report with a NaN residual, and no numpy warning
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert run_cli([command, str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("mode", ["continuation", "picard"])
def test_an_overflowing_iterate_stops_without_a_warning(tmp_path, capsys, mode):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(DEMOS["monotone-family"] | {"x0": 1e300}))
    assert run_cli(["solve", str(path), "--mode", mode]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "no_convergence"
    assert captured.err == ""


#: (file, error) of a structural coefficient and of a transition row whose
#: entries are finite but whose sum overflows.
OVERFLOWING_SUMS = {
    "C": ({"kind": "linear", "tree": {"N": 2, "T": 2, "transition": "uniform"}, "x0": 1.0,
           "coefficients": {"G": 1.0, "C": [1e308, 1e308]}},
          "error: C column must sum to zero at node root\n"),
    "transition": ({"kind": "linear", "x0": 1.0, "coefficients": {"G": 1.0},
                    "tree": {"N": 2, "T": 2, "transition": [[1e308, 1e308], [0.5, 0.5], [0.5, 0.5]]}},
                   "error: tree.transition: transition row (t=0, node=0) sums to inf\n"),
}


@pytest.mark.parametrize("doc, error", OVERFLOWING_SUMS.values(), ids=OVERFLOWING_SUMS.keys())
def test_a_sum_that_overflows_is_an_error_without_a_warning(tmp_path, capsys, doc, error):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["solve", str(path)]) == 4
    assert capsys.readouterr() == ("", error)


@pytest.mark.parametrize("cell", [True, None, "", [0.1]])
def test_a_bad_per_node_cell_names_its_field(cell):
    # a level of plain numbers binds as one array; any other cell still
    # raises the error of the cell-by-cell reading
    doc = LINEAR_DOC | {"coefficients": {"A": [0.1, cell] + [0.1] * 5}}
    with pytest.raises(SchemaError, match="coefficients.A"):
        bind_problem(doc)


class TestCli:
    def test_solve_file_and_round_trip(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(DEMOS["monotone-family"]))
        assert run_cli(["solve", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "solved"
        assert report["residuals"]["forward"] <= 1e-10
        loaded = bind_problem(DEMOS["monotone-family"])
        again = verify_report(loaded, report)
        assert math.isclose(
            again["forward"], report["residuals"]["forward"], abs_tol=1e-12
        )
        assert math.isclose(
            again["backward"], report["residuals"]["backward"], abs_tol=1e-12
        )

    def test_bsde_file_solves(self, tmp_path, capsys):
        path = tmp_path / "bsde.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "bsde",
                    "tree": {"N": 2, "T": 2, "transition": "uniform"},
                    "terminal": [1.0, 2.0, 3.0, 4.0],
                    "coefficients": {"f": "0.5", "f_terminal": "0.5"},
                }
            )
        )
        assert run_cli(["solve", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solution"]["X"] is None
        assert report["residuals"]["backward"] <= 1e-11
        # martingale closure plus remaining-time drift at the root
        assert report["solution"]["Y"][0][0] == pytest.approx(2.5 + 2 * 0.5, abs=1e-12)
        loaded = bind_problem(json.loads(path.read_text()))
        again = verify_report(loaded, report)
        assert again["backward"] == report["residuals"]["backward"]

    @pytest.mark.parametrize("flags, code", [(["solve", "FILE", "--bogus"], 4),
                                             (["solve", "FILE", "--max-iter", "abc"], 4),
                                             (["demo", "nosuch"], 4), ([], 4), (["--help"], 0)])
    def test_a_usage_error_is_an_input_error(self, tmp_path, capsys, flags, code):
        # argparse's usage text goes to standard error on an error, and
        # with the help to standard output on --help; nothing is solved
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(DEMOS["corollary-special"]))
        assert run_cli([str(path) if flag == "FILE" else flag for flag in flags]) == code
        out, err = capsys.readouterr()
        assert (err if code else out).startswith("usage: fbsde")
        assert (out if code else err) == ""

    def test_missing_file_is_input_error(self):
        assert run_cli(["solve", "/nonexistent/problem.json"]) == 4

    def test_invalid_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["solve", str(bad)]) == 4

    def test_demo_corollary_levels(self, capsys):
        assert run_cli(["demo", "corollary-special"]) == 0
        report = json.loads(capsys.readouterr().out)
        levels = report["certificate"]["P_levels"]
        for value in levels[-1]:
            assert value == pytest.approx(2.0, abs=1e-12)
        for value in levels[-2]:
            assert value == pytest.approx(5.0 / 3.0, abs=1e-12)
        for value in levels[-3]:
            assert value == pytest.approx(13.0 / 8.0, abs=1e-12)

    def test_demo_singular_gamma(self, capsys):
        assert run_cli(["demo", "singular-gamma"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "unsolvable"
        assert report["certificate"]["singular_nodes"] == [{"path": [], "t": 0}]

    def test_all_demos_run(self, tmp_path):
        codes = {}
        for name in DEMOS:
            codes[name] = run_cli(["demo", name, "--output", str(tmp_path / f"{name}.json")])
        assert codes == {
            "partially-coupled": 0,
            "corollary-special": 0,
            "singular-gamma": 2,
            "monotone-family": 0,
        }

    def test_linear_demo_runs_the_backward_pass_once(self, monkeypatch, capsys):
        calls = []
        original = linear.riccati_backward

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(linear, "riccati_backward", counted)
        assert run_cli(["demo", "partially-coupled"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certificate"]["all_invertible"] is True
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["solve", "check", "oracle"])
    def test_a_linear_file_is_validated_once(self, monkeypatch, capsys, tmp_path, command):
        # at load; the loaded levels are read-only, so no solver checks again
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(DEMOS["partially-coupled"]))
        calls = []
        original = linear.LinearCoefficients.validate
        monkeypatch.setattr(linear.LinearCoefficients, "validate",
                            lambda self: calls.append(1) or original(self))
        assert run_cli([command, str(path)]) == 0
        assert len(calls) == 1
        loaded = bind_problem(DEMOS["partially-coupled"])
        assert not any(lev.flags.writeable for _, lev in level_arrays(loaded.data))

    def test_python_dash_m_runs_the_cli(self, capsys):
        # the package runs from its sources without being installed
        src = str(Path(fbsde.__file__).resolve().parent.parent)
        env = os.environ | {"PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        for name, code in (("monotone-family", 0), ("singular-gamma", 2)):
            run = subprocess.run([sys.executable, "-m", "fbsde", "demo", name],
                                 capture_output=True, text=True, env=env, timeout=120)
            assert run_cli(["demo", name]) == code
            assert (run.returncode, run.stdout) == (code, capsys.readouterr().out)

    @pytest.mark.parametrize("tree", [
        {"N": 2, "T": 20000, "transition": [[0.5, 0.5]]},
        {"N": 3, "T": 10**6},
    ], ids=["table", "uniform"])
    def test_a_tree_too_large_to_index_is_an_input_error(self, tmp_path, tree):
        # refused by its sizes: the table's row count was once formed first,
        # growing with T**2, and a huge count or a C-long overflow was printed
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"kind": "linear", "tree": tree, "x0": 1.0}))
        src = str(Path(fbsde.__file__).resolve().parent.parent)
        env = os.environ | {"PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        run = subprocess.run([sys.executable, "-m", "fbsde", "solve", str(path)],
                             capture_output=True, text=True, env=env, timeout=60)
        assert (run.returncode, run.stdout) == (4, "")
        assert run.stderr == (f"error: tree: a tree with N={tree['N']} and T={tree['T']} "
                              "has more nodes than numpy can index\n")

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "input error: out of memory: Unable to allocate 7.28 TiB for an array\n"),
        (MemoryError(), "input error: out of memory\n"),
    ])
    def test_a_problem_too_large_for_memory_is_an_input_error(self, monkeypatch, tmp_path,
                                                              capsys, error, line):
        # raised where binding allocates: whether a real allocation fails at
        # once depends on the host's overcommit policy, so none is made
        def refused(*args):
            raise error

        monkeypatch.setattr(fbsde.io, "_bind_linear", refused)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(DEMOS["partially-coupled"]))
        assert run_cli(["solve", str(path)]) == 4
        assert capsys.readouterr() == ("", line)

    def test_oracle_subcommand(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(DEMOS["singular-gamma"]))
        assert run_cli(["oracle", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "no_solution"
        doc = json.loads(json.dumps(DEMOS["singular-gamma"]))
        doc["x0"] = 0.0
        path.write_text(json.dumps(doc))
        assert run_cli(["oracle", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "infinitely_many"

    def test_oracle_rejects_backward_only(self, tmp_path):
        path = tmp_path / "bsde.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "bsde",
                    "tree": {"N": 2, "T": 1, "transition": "uniform"},
                    "terminal": [1.0, 2.0],
                }
            )
        )
        assert run_cli(["oracle", str(path)]) == 4

    def test_check_subcommand(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(DEMOS["monotone-family"]))
        assert run_cli(["check", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "satisfied"
        assert report["diagnostics"]["monotone_terminal"] > 0

        doc = json.loads(json.dumps(DEMOS["monotone-family"]))
        doc["coefficients"]["h"] = "-x"
        path.write_text(json.dumps(doc))
        assert run_cli(["check", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "violated"
        assert "terminal map monotonicity" in report["diagnostics"]["violations"]

        path.write_text(json.dumps(INCREASING_DOC))
        assert run_cli(["check", str(path)]) == 2
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostics["violations"] == ["interior monotonicity", "time-0 monotonicity"]
        assert diagnostics["monotone_interior"] == diagnostics["monotone_initial"] == 1.0

    def test_check_on_a_bsde_document_is_satisfied(self, tmp_path, capsys):
        path = tmp_path / "bsde.json"
        path.write_text(json.dumps(BSDE_DOC))
        assert run_cli(["check", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["status"], report["certificate"]) == ("satisfied", None)
        assert "diagnostics" not in report

    def test_check_reads_the_seed_of_the_file_or_of_the_flag(self, tmp_path, capsys):
        plain, seeded = tmp_path / "plain.json", tmp_path / "seeded.json"
        plain.write_text(json.dumps(NONLINEAR_DOC))
        seeded.write_text(json.dumps(NONLINEAR_DOC | {"options": {"seed": 3}}))
        loaded = bind_problem(NONLINEAR_DOC)

        def estimates(seed):
            diag = fbsde.check_assumptions(loaded.tree, loaded.data,
                                           fbsde.ContinuationOptions(seed=seed))
            return {clause: None if est is None else est.value
                    for clause, est in vars(diag).items()
                    if clause not in ("satisfied", "violations")}

        def reported(argv):
            assert run_cli(["check", *argv]) == 0
            diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
            return {k: v for k, v in diagnostics.items() if k != "violations"}

        assert estimates(3) != estimates(0)
        assert reported([str(seeded)]) == estimates(3)
        assert reported([str(plain), "--seed", "3"]) == estimates(3)
        assert reported([str(seeded), "--seed", "0"]) == estimates(0)

    def test_the_mode_flag_overrides_the_file(self, tmp_path, capsys):
        # flat Picard climbs one level; continuation from delta 0.25 climbs four
        levels = {"picard": 1, "continuation": 4}
        for mode, flag in (("picard", "continuation"), ("continuation", "picard")):
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps(NONLINEAR_DOC | {"options": {"mode": mode}}))
            for argv, used in (([], mode), (["--mode", flag], flag)):
                assert run_cli(["solve", str(path), *argv]) == 0
                assert json.loads(capsys.readouterr().out)["stats"]["levels"] == levels[used]

    def test_check_on_linear_kinds_reports_certificate(self, tmp_path, capsys):
        for name, expected in (("partially-coupled", 0), ("singular-gamma", 2)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(DEMOS[name]))
            assert run_cli(["check", str(path)]) == expected
            report = json.loads(capsys.readouterr().out)
            assert report["certificate"]["all_invertible"] is (expected == 0)

    def test_csv_without_solution_keeps_exit_code(self, tmp_path, capsys):
        out = tmp_path / "nothing.csv"
        code = run_cli(["demo", "singular-gamma", "--format", "csv", "--output", str(out)])
        assert code == 2
        assert not out.exists()
        assert "no solution" in capsys.readouterr().err

    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            assert run_cli(["demo", "monotone-family", "--output", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(DEMOS["monotone-family"]))
        assert run_cli(["solve", str(path), "--mode", "picard", "--tol", "1e-8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "solved"
        assert max(report["residuals"].values()) <= 1e-8

    def test_csv_output(self, tmp_path):
        out = tmp_path / "solution.csv"
        assert run_cli(["demo", "corollary-special", "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,path,X,Y,Z_1,Z_2"
        assert len(lines) == 1 + 1 + 2 + 4 + 8
        root = lines[1].split(",")
        assert root[0] == "0" and root[1] == "" and float(root[2]) == 0.5
        leaf = lines[-1].split(",")
        assert leaf[1] == "2-2-2" and leaf[4] == "" and leaf[5] == ""

    def test_no_convergence_exit_code(self, tmp_path, capsys):
        doc = json.loads(json.dumps(DEMOS["monotone-family"]))
        doc["coefficients"]["b"] = "-y + 10*x"
        doc["options"] = {"mode": "picard"}
        path = tmp_path / "hard.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["solve", str(path)]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "no_convergence"
        assert report["solution"] is None and report["residuals"] is None
        assert "consider continuation mode" in report["error"]
        assert "best_residual" not in report  # a flat Picard failure keeps none
        assert report["stats"]["inner_solves"] >= 1  # the work done, not a placeholder

    def test_a_fine_step_solves_within_the_budgets(self, capsys):
        # a 34-level ladder: each level asks the one below only for the
        # accuracy it can use, so the base solves grow with the depth
        assert run_cli(["demo", "monotone-family", "--delta", "0.03"]) == 0
        report = json.loads(capsys.readouterr().out)
        stats = report["stats"]
        assert (report["status"], stats["levels"], stats["halvings"]) == ("solved", 34, 0)
        assert stats["inner_solves"] <= 3 * stats["levels"]

    @pytest.mark.parametrize("flags, error", [
        (["--delta", "1", "--max-iter", "3"],
         "no contraction after 4 halvings: level 1 did not contract within 3 iterations"),
        (["--delta", "5e-324"], "a step of 4.94066e-324 needs a ladder over the 512-level cap"),
    ], ids=["halvings", "depth-cap"])
    def test_a_continuation_stop_names_its_limit_and_cause(self, capsys, flags, error):
        assert run_cli(["demo", "monotone-family", *flags]) == 3
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (report["status"], report["error"], err) == ("no_convergence", error, "")
        stats = report["stats"]  # the work the stopped run did
        if "--max-iter" in flags:
            assert stats["halvings"] == 4 and stats["inner_solves"] > 1
        else:  # stopped before its first ladder
            assert (stats["inner_solves"], stats["levels"]) == (0, 0)

    @pytest.mark.parametrize("doc", [
        {"kind": "linear", "tree": {"N": 2, "T": 13}, "x0": 1.0, "coefficients": {"G": 1.0}},
        dict(DEMOS["monotone-family"], tree={"N": 2, "T": 9}),
    ], ids=["dense-linear", "newton"])
    def test_the_oracle_refuses_a_problem_too_large(self, monkeypatch, tmp_path, capsys, doc):
        # refused before the dense matrix (40956 unknowns squared) or the
        # first Jacobian (1022 unknowns) is built
        def unbounded(*args):
            pytest.fail("the oracle started on a problem over its size limit")

        monkeypatch.setattr(oracle, "_assemble", unbounded)
        monkeypatch.setattr(oracle, "finite_difference_jacobian", unbounded)
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["oracle", str(path)]) == 4
        assert "unknowns exceed the" in capsys.readouterr().err

    def test_oracle_no_convergence_reports_best_residual(self, tmp_path, capsys):
        doc = json.loads(json.dumps(DEMOS["monotone-family"]))
        doc["tree"]["T"] = 1
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["oracle", str(path), "--tol", "1e-30"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "no_convergence"
        assert report["solution"] is None and report["residuals"] is None
        assert "tolerance 1e-30" in report["error"]
        assert report["best_residual"] > 0

    def test_oracle_no_convergence_reports_the_work_of_its_starts(self, monkeypatch, tmp_path,
                                                                  capsys):
        # every residual sweep (point, trial or Jacobian) is one inner solve;
        # each failed start ends in a Jacobian whose line search finds no
        # smaller residual, so the steps taken are the Jacobians less one a
        # failed start; a solved run counts its work as a stopped one does
        calls = {"_forward_residual_vector": 0, "finite_difference_jacobian": 0}

        def counted(name):
            fn = getattr(oracle, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(oracle, name, counted(name))
        # (T, flags, exit code, failed starts): stopped below rounding, and
        # the demo's document, which its flat start solves
        for T, flags, code, failed_starts in ((1, ["--tol", "1e-30"], 3, 1 + oracle.EXTRA_STARTS),
                                              (3, [], 0, 0)):
            calls.update(dict.fromkeys(calls, 0))
            doc = json.loads(json.dumps(DEMOS["monotone-family"]))
            doc["tree"]["T"] = T
            path = tmp_path / "oracle.json"
            path.write_text(json.dumps(doc))
            assert run_cli(["oracle", str(path), *flags]) == code
            stats = json.loads(capsys.readouterr().out)["stats"]
            assert stats == {"levels": 1, "halvings": 0,
                             "iterations": calls["finite_difference_jacobian"] - failed_starts,
                             "inner_solves": calls["_forward_residual_vector"]}
            assert stats["iterations"] >= max(failed_starts, 1)

    def test_no_oracle_line_search_evaluates_its_start_again(self, monkeypatch, tmp_path,
                                                               capsys):
        # each line search starts at the point of its Jacobian; a trial equal
        # to that point bit for bit, and every shorter one, rounds back to it
        # and cannot lower its residual, so none is evaluated.  Stopped below
        # rounding, the T=1 run's 3 starts took 111 sweeps, 93 of them such
        # trials, and now take 21, with the same report otherwise
        seen = []

        def recorded(kind, fn):
            def call(func, x):
                seen.append((kind, x.tobytes()))
                return fn(func, x)
            return call

        for name, kind in (("finite_difference_jacobian", "jacobian"), ("_evaluate", "point")):
            monkeypatch.setattr(oracle, name, recorded(kind, getattr(oracle, name)))
        doc = json.loads(json.dumps(DEMOS["monotone-family"]))
        doc["tree"]["T"] = 1
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["oracle", str(path), "--tol", "1e-30"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["stats"] == {"levels": 1, "halvings": 0, "iterations": 6, "inner_solves": 21}
        start = None
        for kind, point in seen:
            if kind == "jacobian":
                start = point
            else:
                assert point != start

    @pytest.mark.parametrize("x0", [10.0, 1000.0])
    def test_the_oracle_treats_a_domain_error_as_a_failed_point(self, tmp_path, capsys, x0):
        # exp overflows at trial points from x0 = 10: failed steps, not a
        # malformed input; from x0 = 1000 it overflows at every start, so no
        # start can be evaluated and the fault is the input's (exit 4)
        doc = {"kind": "nonlinear", "tree": {"N": 2, "T": 2, "transition": "uniform"}, "x0": x0,
               "coefficients": {"b": "-y + 0.1*tanh(x)", "sigma": ["-z1", "0"],
                                "f": "x + 0.1*tanh(y)", "f_terminal": "x", "h": "x - 0.5*exp(x)"}}
        path = tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        if x0 == 1000.0:
            assert run_cli(["oracle", str(path)]) == 4
            assert capsys.readouterr() == ("", "error: exp left the real domain (offset 8)\n")
            return
        assert run_cli(["oracle", str(path)]) == 3
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["status"] == "no_convergence" and captured.err == ""
        assert math.isfinite(report["best_residual"]) and report["best_residual"] > 0

    def test_a_coefficient_no_start_can_evaluate_is_an_input_error(self, tmp_path, capsys):
        # the drift divides by zero at every point of t = 1, wherever Newton
        # starts: the oracle exits 4 with the error solve reports
        doc = {"kind": "nonlinear", "tree": {"N": 2, "T": 2, "transition": "uniform"}, "x0": 1.0,
               "coefficients": {"b": "-y + 0.1*tanh(x) + 0.01/(t - 1)", "sigma": ["-z1", "0"],
                                "f": "x + 0.1*tanh(y)", "f_terminal": "x", "h": "x"}}
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(doc))
        for command in ("solve", "oracle"):
            assert run_cli([command, str(path)]) == 4
            assert capsys.readouterr() == ("", "error: division by zero (offset 23)\n")


#: A nonlinear file on N=2 whose drift, diffusion and generator pass y and
#: z1 through unrounded, so a one-ulp change of either shows in the values.
PASS_THROUGH_DOC = {"kind": "nonlinear", "tree": {"N": 2, "T": 3}, "x0": 1.0,
                    "coefficients": {"b": "-y", "sigma": ["z1", "w*x"], "f": "y*z1 + x",
                                     "f_terminal": "x", "h": "x*w"}}


def test_the_node_path_environments_are_shared_by_value():
    # drift, diffusion and generator at one level share their node-by-node
    # environments; every call must still give the bits of a problem bound
    # afresh, also when one node's y or z1 moves by one ulp
    rng = np.random.default_rng(4)
    problem = bind_problem(PASS_THROUGH_DOC).data
    for t in range(3):
        nodes = np.arange(2**t)
        x, y = rng.uniform(1.0, 2.0, size=(2, len(nodes)))
        zt = rng.uniform(1.0, 2.0, size=(len(nodes), 1))
        for moved in (None, "y", "zt"):
            if moved == "y":
                y = y.copy()
                y[-1] = np.nextafter(y[-1], 3.0)
            elif moved == "zt":
                zt = zt.copy()
                zt[-1, 0] = np.nextafter(zt[-1, 0], 3.0)
            fresh = bind_problem(PASS_THROUGH_DOC).data
            for name in ("drift", "diffusion", "generator"):
                got = getattr(problem, name)(t, nodes, x, y, zt)
                want = getattr(fresh, name)(t, nodes, x, y, zt)
                assert got.tobytes() == want.tobytes(), (t, moved, name)


def test_the_environments_of_two_problems_are_their_own():
    # the same nodes and leaf values on trees of another N give other w
    leaves, x = np.arange(3), np.array([1.0, 2.0, 3.0])
    binary = bind_problem(PASS_THROUGH_DOC).data
    ternary = bind_problem({**PASS_THROUGH_DOC, "tree": {"N": 3, "T": 3},
                            "coefficients": {**PASS_THROUGH_DOC["coefficients"],
                                             "sigma": ["z1", "z2", "w*x"]}}).data
    assert binary.terminal(leaves, x).tolist() == [1.0, 4.0, 3.0]
    assert ternary.terminal(leaves, x).tolist() == [1.0, 4.0, 9.0]


def test_a_shared_environment_keeps_the_first_failing_node():
    # the generator fails at node 1 (division by zero) before node 3
    # (exp overflows): after drift and diffusion built the level's
    # environments, its error is that of a problem bound afresh
    doc = {**PASS_THROUGH_DOC, "coefficients": {**PASS_THROUGH_DOC["coefficients"],
                                                "f": "x/y + exp(x)"}}
    nodes, x = np.arange(4), np.array([1.0, 1.0, 1.0, 1000.0])
    y, zt = np.array([1.0, 0.0, 1.0, 1.0]), np.ones((4, 1))
    problem = bind_problem(doc).data
    problem.drift(2, nodes, x, y, zt)
    problem.diffusion(2, nodes, x, y, zt)
    errors = []
    for p in (problem, bind_problem(doc).data):
        with pytest.raises(ExpressionDomainError) as err:
            p.generator(2, nodes, x, y, zt)
        errors.append((str(err.value), err.value.position))
    assert errors[0] == errors[1] and errors[0][1] == 1
