"""Acceptance criteria: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Expected values are either hand-derived (small closed forms) or
cross-checked against the brute-force reference solvers in fbsde.oracle.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import random_linear_coeffs, random_tree, uniform_tree
from fbsde import (
    BsdeProblem,
    InfinitelyMany,
    LinearCoefficients,
    NoSolution,
    UniqueSolution,
    Unsolvable,
    bsde_residual,
    canonicalize,
    check_assumptions,
    cond_exp,
    demo_monotone_problem,
    equivalent,
    linear_oracle,
    linear_special_problem,
    norm_constants,
    parse_expression,
    represent,
    riccati_backward,
    solve_bsde,
    solve_continuation,
    solve_linear,
    solve_oracle,
    solve_special,
    special_coefficients,
    tilde_contract,
)
from fbsde.cli import run_cli
from fbsde.errors import (
    ArityError,
    ExpressionDomainError,
    ExpressionSyntaxError,
    UnknownIdentifier,
)
from fbsde.expressions import ARRAY_FORM_MIN
from fbsde.martingale import zm_products
from test_expressions import random_source
from test_oracle import max_solution_gap


def _announce(number, name):
    print(f"[acceptance] criterion {number} ({name}): PASS")


# ---------------------------------------------------------------------------


def test_criterion_01_representation_identity():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        N = int(rng.integers(2, 5))
        T = int(rng.integers(1, 6))
        tree = random_tree(rng, N, T)
        t = int(rng.integers(0, T))
        values = rng.uniform(-10.0, 10.0, size=tree.num_nodes(t + 1))
        for node in range(tree.num_nodes(t)):
            child = values[node * N : (node + 1) * N]
            z = represent(tree, (t, node), child)
            mean = cond_exp(tree, values, (t, node))
            gap = np.abs(zm_products(tree, (t, node), z) - (child - mean)).max()
            worst = max(worst, float(gap))
    elapsed = time.monotonic() - start
    assert worst <= 1e-12, f"worst representation defect {worst:.3e}"
    assert elapsed <= 5.0, f"took {elapsed:.2f}s"
    _announce(1, "representation identity")


def test_criterion_02_row_equivalence_three_ways():
    rng = np.random.default_rng(102)
    for k in range(200):
        N = int(rng.integers(2, 5))
        tree = random_tree(rng, N, 1)
        z1 = rng.uniform(-5.0, 5.0, size=N)
        if k % 2:
            z2 = z1 + float(rng.uniform(-5.0, 5.0))
        else:
            z2 = rng.uniform(-5.0, 5.0, size=N)
        products_equal = bool(
            np.abs(zm_products(tree, (0, 0), z1) - zm_products(tree, (0, 0), z2)).max()
            <= 1e-12
        )
        diff = z1 - z2
        constant_diff = bool(diff.max() - diff.min() <= 1e-12)
        contractions_equal = equivalent(z1, z2)
        assert products_equal == constant_diff == contractions_equal
    _announce(2, "row equivalence tri-criterion")


def test_criterion_03_norm_sandwich():
    rng = np.random.default_rng(103)
    for _ in range(200):
        N = int(rng.integers(2, 5))
        T = int(rng.integers(1, 4))
        tree = random_tree(rng, N, T)
        consts = norm_constants(tree)
        t = int(rng.integers(0, T))
        z = rng.uniform(-5.0, 5.0, size=(tree.num_nodes(t), N))
        probs = tree.level_probs(t)
        zm_sq = 0.0
        for node in range(tree.num_nodes(t)):
            row = tree.transition[t][node]
            prods = zm_products(tree, (t, node), z[node])
            zm_sq += probs[node] * float(row @ (prods**2))
        zt_sq = float(probs @ (np.linalg.norm(tilde_contract(z), axis=1) ** 2))
        assert consts.lower * zt_sq <= zm_sq + 1e-12
        assert zm_sq <= consts.upper * zt_sq + 1e-12

    # two-state uniform trees make both constants 1/4 and the sandwich tight
    tree = uniform_tree(2, 3)
    consts = norm_constants(tree)
    assert abs(consts.lower - 0.25) <= 1e-12 and abs(consts.upper - 0.25) <= 1e-12
    for _ in range(20):
        t = int(rng.integers(0, 3))
        z = rng.uniform(-5.0, 5.0, size=(tree.num_nodes(t), 2))
        probs = tree.level_probs(t)
        zm_sq = sum(
            probs[node]
            * float(tree.transition[t][node] @ (zm_products(tree, (t, node), z[node]) ** 2))
            for node in range(tree.num_nodes(t))
        )
        zt_sq = float(probs @ (tilde_contract(z)[:, 0] ** 2))
        if zt_sq > 1e-8:
            assert abs(zm_sq / zt_sq - 0.25) <= 1e-12
    _announce(3, "norm sandwich with tight two-state constants")


def test_criterion_04_backward_solver_closed_form():
    rng = np.random.default_rng(104)
    for _ in range(50):
        N = int(rng.integers(2, 4))
        T = int(rng.integers(1, 5))
        tree = random_tree(rng, N, T)
        eta = rng.uniform(-5.0, 5.0, size=tree.num_nodes(T))
        c = float(rng.uniform(-2.0, 2.0))
        problem = BsdeProblem(
            terminal=eta,
            generator=lambda t, y, zt, c=c: c,
        )
        Y, Z = solve_bsde(tree, problem)
        closure, _ = solve_bsde(tree, BsdeProblem(terminal=eta))
        for t in range(T + 1):
            gap = np.abs(Y.level(t) - (closure.level(t) + (T - t) * c)).max()
            assert gap <= 1e-12
        assert bsde_residual(tree, problem, Y, Z) <= 1e-11
    _announce(4, "backward solver constant-generator closure")


def test_criterion_05_linear_iff_theorem():
    start = time.monotonic()
    rng = np.random.default_rng(105)
    instances = 0
    singular_seen = 0
    while instances < 100:
        N = int(rng.integers(2, 4))
        T = int(rng.integers(1, 4))
        tree = random_tree(rng, N, T)
        coeffs = random_linear_coeffs(rng, tree, scale=1.0)
        x0 = float(rng.uniform(-1.0, 1.0))
        direct = solve_linear(tree, coeffs, x0)
        verdict = linear_oracle(tree, coeffs, x0)
        if isinstance(direct, Unsolvable):
            singular_seen += 1
            assert not isinstance(verdict, UniqueSolution)
        else:
            assert isinstance(verdict, UniqueSolution)
            assert max_solution_gap(tree, direct, verdict.solution) <= 1e-8
        instances += 1
    # the engineered degenerate instance exercises the singular branch of
    # the equivalence even if no random draw lands on it
    tree = uniform_tree(2, 1)
    coeffs = LinearCoefficients(tree, B=1.0, G=1.0)
    assert isinstance(solve_linear(tree, coeffs, 1.0), Unsolvable)
    assert not isinstance(linear_oracle(tree, coeffs, 1.0), UniqueSolution)
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"took {elapsed:.2f}s"
    _announce(5, f"linear iff-theorem ({singular_seen} singular draws)")


#: ``bench/workloads.linear_doc(random.Random(0), 2, 2, 1)``: the depth-1
#: node 2 gets unit Y feedback above leaves with G = 1, so its matrix is
#: singular, yet the root problem has a unique solution.
SINGULAR_BELOW_ROOT = {
    "kind": "linear", "tree": {"N": 2, "T": 2, "transition": [0.4595, 0.5405]}, "x0": 1.324845,
    "coefficients": {
        "A": [0.068884, 0.051591, -0.015886], "B": [-0.048217, 0.002255, 1.0],
        "D": [0.283799, -0.196687, -0.023403],
        "D_bar": [[0.033353, 0.163245], [0.001875, -0.087265], [0.0, 0.0]],
        "A_hat": [-0.049899, 0.081949, 0.096557, 0.062043, 0.0, 0.0],
        "B_hat": [0.045966, 0.079768, 0.036797, -0.005571, 0.0, 0.0],
        "D_hat": "0.141633*w - 0.04652*t",
        "G": [1.466606, 0.97701, 1.0, 1.0], "g": [0.305028, 0.048699, -0.485958, 0.219705],
    },
}


@pytest.mark.xfail(strict=True, reason="solve exits 2 on a singular node below the root "
                   "that the root problem does not need (ROADMAP item 1)")
def test_solve_and_oracle_agree_on_a_singular_node_below_the_root(tmp_path, capsys):
    path = tmp_path / "singular-below-root.json"
    path.write_text(json.dumps(SINGULAR_BELOW_ROOT))
    assert run_cli(["solve", str(path)]) == run_cli(["oracle", str(path)])


def test_criterion_06_singular_detection(tmp_path, capsys):
    assert run_cli(["demo", "singular-gamma"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["certificate"]["singular_nodes"] == [{"path": [], "t": 0}]

    tree = uniform_tree(2, 1)
    coeffs = LinearCoefficients(tree, B=1.0, G=1.0)
    assert isinstance(linear_oracle(tree, coeffs, 1.0), NoSolution)
    assert isinstance(linear_oracle(tree, coeffs, 0.0), InfinitelyMany)
    _announce(6, "singular construction certified")


def test_criterion_07_special_form_levels_and_solvability():
    rng = np.random.default_rng(107)
    for N, T in ((2, 3), (3, 4)):
        tree = uniform_tree(N, T)
        ric = riccati_backward(tree, special_coefficients(tree))
        assert np.abs(ric.P_levels[T] - 2.0).max() <= 1e-12
        assert np.abs(ric.P_levels[T - 1] - 5.0 / 3.0).max() <= 1e-12
        assert np.abs(ric.P_levels[T - 2] - 13.0 / 8.0).max() <= 1e-12
    for _ in range(100):
        N = int(rng.integers(2, 4))
        T = int(rng.integers(1, 4))
        tree = random_tree(rng, N, T)
        sol = solve_special(
            tree,
            D=[rng.uniform(-2, 2, size=tree.num_nodes(t)) for t in range(T)],
            D_bar=[rng.uniform(-2, 2, size=(tree.num_nodes(t), N)) for t in range(T)],
            D_hat=[rng.uniform(-2, 2, size=tree.num_nodes(t)) for t in range(1, T + 1)],
            g=rng.uniform(-2, 2, size=tree.num_nodes(T)),
            x0=float(rng.uniform(-2, 2)),
        )
        assert sol.residuals.forward <= 1e-10
        assert sol.residuals.backward <= 1e-10
    _announce(7, "special-form decoupling levels 13/8, 5/3, 2 and solvability")


def _demo_instances():
    rng = np.random.default_rng(108)
    instances = []
    while len(instances) < 20:
        N = int(rng.integers(2, 4))
        T = int(rng.integers(1, 4))
        tree = random_tree(rng, N, T)
        scale = float(rng.uniform(0.05, 0.3))
        x0 = float(rng.uniform(-2.0, 2.0))
        instances.append((tree, demo_monotone_problem(tree, scale), x0))
    return instances


@pytest.fixture(scope="module")
def solved_demo_family():
    start = time.monotonic()
    results = []
    for tree, problem, x0 in _demo_instances():
        report = check_assumptions(tree, problem, sample_count=120)
        assert report.satisfied
        sol, stats = solve_continuation(tree, problem, x0)
        results.append((tree, problem, x0, sol, stats))
    return results, time.monotonic() - start


def test_criterion_08_nonlinear_existence_uniqueness(solved_demo_family):
    results, solve_time = solved_demo_family
    start = time.monotonic()
    for tree, problem, x0, sol, _ in results:
        assert max(sol.residuals.forward, sol.residuals.backward) <= 1e-10
        oracle_sol, _ = solve_oracle(tree, problem, x0)
        assert max_solution_gap(tree, sol, oracle_sol) <= 1e-8
        m = sum(tree.num_nodes(t) for t in range(1, tree.T + 1))
        rng = np.random.default_rng(5)
        second, _ = solve_oracle(
            tree, problem, x0, initial_guess=np.full(m, x0) + rng.normal(scale=0.7, size=m)
        )
        assert max_solution_gap(tree, oracle_sol, second) <= 1e-9
    elapsed = solve_time + (time.monotonic() - start)
    assert elapsed <= 120.0, f"took {elapsed:.2f}s"
    _announce(8, f"nonlinear demo family vs oracle ({elapsed:.1f}s)")


def test_criterion_09_blend_base_reduction_bitwise():
    for x0 in (0.0, 1.5, -0.75):
        tree = uniform_tree(2, 3)
        sol, _ = solve_continuation(tree, linear_special_problem(tree), x0)
        ref = solve_special(tree, x0=x0)
        for t in range(4):
            assert np.array_equal(sol.X.level(t), ref.X.level(t))
            assert np.array_equal(sol.Y.level(t), ref.Y.level(t))
        for t in range(3):
            assert np.array_equal(
                canonicalize(sol.Z.level(t)), canonicalize(ref.Z.level(t))
            )
    _announce(9, "continuation reduces to the linear solver bitwise")


def quarter_eighth_trigger(norms):
    """First index after the contraction bound on the squared increment
    norms held three checks in a row."""
    sq = [r * r for r in norms]
    consecutive = 0
    for j in range(2, len(sq)):
        if sq[j] <= 0.25 * sq[j - 1] + 0.125 * sq[j - 2]:
            consecutive += 1
            if consecutive == 3:
                return j
        else:
            consecutive = 0
    return None


def test_criterion_10_contraction_monitor(solved_demo_family):
    results, _ = solved_demo_family
    triggered = 0
    for _, _, _, _, stats in results:
        assert stats.halvings == 0
        for record in stats.records:
            hit = quarter_eighth_trigger(record.norms)
            if hit is not None:
                triggered += 1
                assert record.converged, (
                    f"level {record.alpha} kept the contraction bound for three "
                    f"iterations but failed to converge"
                )
    assert triggered > 0, "monitor never fired; the check would be vacuous"
    _announce(10, f"contraction monitor ({triggered} triggering level runs)")


def test_criterion_11_expression_fuzz_and_offsets():
    rng = np.random.default_rng(111)
    env = {"t": 2.0, "x": 1.1, "y": -0.4, "w": 1.0, "z1": 0.6}
    for _ in range(1000):
        source = random_source(rng)
        expr = parse_expression(source)
        try:
            value = expr.evaluate(env)
        except ExpressionDomainError as err:
            assert 0 <= err.position < len(source)
            continue
        assert math.isfinite(value)

    # whole levels, on both sides of ARRAY_FORM_MIN: the same bits as
    # evaluate at every node, and where a node fails, the error and offset
    # of the first failing node, which the error names
    def check_level(expr, level):
        n = len(level["w"])
        expected = []
        for i in range(n):
            try:
                expected.append(expr.evaluate(
                    {k: v if isinstance(v, float) else v[i] for k, v in level.items()}))
            except ExpressionDomainError as err:
                with pytest.raises(ExpressionDomainError) as info:
                    expr.evaluate(level)
                assert (type(info.value), str(info.value), info.value.position, info.value.node) == (
                    type(err), str(err), err.position, i)
                return
        assert expr.evaluate(level).tobytes() == np.array(expected).tobytes(), expr.source

    sizes, array_form = [], 0
    for _ in range(600):
        small = rng.random() < 0.5
        n = int(rng.integers(1, ARRAY_FORM_MIN) if small else rng.integers(ARRAY_FORM_MIN, 3 * ARRAY_FORM_MIN))
        level = {"t": float(rng.integers(0, 4)), "w": rng.integers(1, 4, size=n) * 1.0}
        share = rng.choice([0.0, 0.02, 0.1])  # zeros, huge values and a few non-finite
        for name in ("x", "y", "z1"):
            values = rng.uniform(-3.0, 3.0, size=n) * 10.0 ** rng.integers(-2, 3)
            special = rng.random(n) < share
            values[special] = rng.choice([0.0, -0.0, 1e300, -1e300, np.inf, np.nan], size=special.sum())
            level[name] = values
        expr = parse_expression(random_source(rng))
        check_level(expr, level)
        sizes.append(n)
        array_form += n >= ARRAY_FORM_MIN and expr._array_form(level, n) is not None
    assert min(sizes) < ARRAY_FORM_MIN <= max(sizes) and array_form > 100
    # constants that parse to inf, division by zero and overflow at some nodes
    level = {"t": 1.0, "w": np.array([1.0, 2.0, 3.0]), "x": np.array([0.5, -1.5, 2.0]),
             "y": np.array([0.1, 1.0, -0.2]), "z1": np.array([0.3, 0.0, -4.0])}
    for source in ["min(1e999*abs(x), 1)", "1e999", "tanh(1e999)", "1/1e999 + x", "x/(w-2)",
                   "exp(1e3*y)", "x/z1", "z1^0.5", "max(-0.0*x, 0.0)"]:
        check_level(parse_expression(source), level)

    with pytest.raises(ExpressionSyntaxError) as syntax_info:
        parse_expression("min(x, ")
    assert syntax_info.value.position == 7
    with pytest.raises(UnknownIdentifier) as ident_info:
        parse_expression("fog(x)")
    assert ident_info.value.position == 0
    with pytest.raises(ArityError) as arity_info:
        parse_expression("min(x)")
    assert arity_info.value.position == 0
    _announce(11, "expression fuzzing and positioned errors")
