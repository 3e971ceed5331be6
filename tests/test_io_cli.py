"""Problem files, report round-trips, and the command-line surface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fbsde import (
    AssumptionViolation,
    Expression,
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

    def test_terminal_generator_required_when_f_uses_contraction(self):
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

    def test_bsde_terminal_generator_defaults_to_f_when_row_free(self):
        doc = {
            "kind": "bsde",
            "tree": {"N": 2, "T": 2, "transition": "uniform"},
            "terminal": [1.0, 2.0, 3.0, 4.0],
            "coefficients": {"f": "0.5"},
        }
        problem = bind_problem(doc).data
        assert problem.terminal_generator(np.array([1.0, 2.0, 3.0, 4.0])).tolist() == [0.5] * 4
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
        with pytest.raises(SchemaError, match="mode"):
            bind_problem(doc)
        doc["options"] = {"tolerance": 1e-8, "seed": 3}
        loaded = bind_problem(doc)
        assert loaded.options.tolerance == 1e-8
        assert (loaded.mode, loaded.seed) == ("continuation", 3)


def test_certificate_payload_on_halted_recursion():
    # feedback only at time 1: the backward pass stops there and the
    # payload reports the unreached level as null
    import fbsde
    from fbsde.io import certificate_payload

    tree = fbsde.build_tree(2, 2)
    coeffs = fbsde.LinearCoefficients(tree, B=[0.0, 1.0], G=1.0)
    payload = certificate_payload(tree, fbsde.riccati_backward(tree, coeffs))
    assert payload["all_invertible"] is False
    assert payload["P_levels"][0] is None
    assert payload["P_levels"][1] == [1.0, 1.0, 1.0, 1.0]
    assert json.dumps(payload)  # serializable as-is


LINEAR_DOC = DEMOS["partially-coupled"]
NONLINEAR_DOC = DEMOS["monotone-family"]
BSDE_DOC = {"kind": "bsde", "tree": {"N": 2, "T": 1, "transition": "uniform"}, "terminal": [1.0, 2.0]}
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
    "terminal-boolean": ("solve", BSDE_DOC | {"terminal": [1.0, True]}, []),
    "delta-2": ("solve", LINEAR_DOC, ["--delta", "2"]),
    "delta-0": ("solve", LINEAR_DOC, ["--delta", "0"]),
    "tol-0": ("solve", LINEAR_DOC, ["--tol", "0"]),
    "tol-negative": ("solve", LINEAR_DOC, ["--tol", "-1"]),
    "tol-nan": ("solve", LINEAR_DOC, ["--tol", "nan"]),
    "max-iter-0": ("solve", LINEAR_DOC, ["--max-iter", "0"]),
    "seed-check": ("check", NONLINEAR_DOC, ["--seed", "-1"]),
    "seed-oracle": ("oracle", NONLINEAR_DOC, ["--seed", "-1"]),
    "seed-file": ("check", NONLINEAR_DOC | {"options": {"seed": -1}}, []),
}


@pytest.mark.parametrize("command, doc, flags", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_an_input_error(tmp_path, capsys, command, doc, flags):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    assert run_cli([command, str(path), *flags]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


TREE_2_3 = {"N": 2, "T": 3, "transition": "uniform"}

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

    @pytest.mark.parametrize("flags, error", [
        (["--delta", "1", "--max-iter", "3"],
         "no contraction after 4 halvings: level 0.0625 did not contract within 3 iterations"),
        (["--delta", "5e-324"], "a step of 4.94066e-324 needs a ladder over the 512-level cap"),
    ], ids=["halvings", "depth-cap"])
    def test_a_continuation_stop_names_its_limit_and_cause(self, capsys, flags, error):
        assert run_cli(["demo", "monotone-family", *flags]) == 3
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (report["status"], report["error"], err) == ("no_convergence", error, "")

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
