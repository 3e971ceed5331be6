"""Backward solver: closure identities, residuals, uniqueness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tree, subtree_expectation, uniform_tree
from fbsde import (
    BsdeProblem,
    GeneratorEvaluationError,
    ShapeMismatch,
    bind_problem,
    bsde_residual,
    parse_expression,
    solve_bsde,
)

TOL = 1e-12
RESIDUAL_TOL = 1e-11


def test_zero_generator_is_martingale_closure():
    rng = np.random.default_rng(0)
    for _ in range(20):
        tree = random_tree(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
        eta = rng.normal(scale=5.0, size=tree.num_nodes(tree.T))
        Y, Z = solve_bsde(tree, BsdeProblem(terminal=eta))
        for t in range(tree.T + 1):
            for node in range(tree.num_nodes(t)):
                assert Y.level(t)[node] == pytest.approx(
                    subtree_expectation(tree, eta, t, node), abs=TOL
                )


def test_one_step_hand_case():
    tree = uniform_tree(2, 1)
    Y, Z = solve_bsde(tree, BsdeProblem(terminal=np.array([3.0, 1.0])))
    assert Y.level(0)[0] == pytest.approx(2.0, abs=TOL)
    np.testing.assert_allclose(Z.level(0)[0], [2.0, 0.0], atol=TOL)


def test_constant_generator_shifts_by_remaining_time():
    rng = np.random.default_rng(1)
    for _ in range(20):
        tree = random_tree(rng, int(rng.integers(2, 4)), int(rng.integers(1, 5)))
        eta = rng.normal(size=tree.num_nodes(tree.T))
        c = float(rng.normal())
        problem = BsdeProblem(
            terminal=eta,
            generator=lambda t, y, zt, c=c: c,
        )
        Y, Z = solve_bsde(tree, problem)
        for t in range(tree.T + 1):
            for node in range(tree.num_nodes(t)):
                expect = subtree_expectation(tree, eta, t, node) + (tree.T - t) * c
                assert Y.level(t)[node] == pytest.approx(expect, abs=TOL)
        assert bsde_residual(tree, problem, Y, Z) <= RESIDUAL_TOL


def test_vector_values_with_row_dependent_generator():
    # K = 2 with a generator mixing components through the contraction
    rng = np.random.default_rng(5)
    tree = random_tree(rng, 3, 2)
    eta = rng.normal(size=(9, 2))

    def gen(t, y, zt):
        if zt is None:  # no horizon term
            return 0.0
        assert zt.shape[1:] == (2, 2)
        return np.stack([0.2 * y[:, 1] + zt[:, 0, 0], -0.1 * y[:, 0] + zt[:, 1, 1]], axis=1)

    problem = BsdeProblem(terminal=eta, generator=gen)
    Y, Z = solve_bsde(tree, problem)
    assert Y.level(0).shape == (1, 2)
    assert Z.level(1).shape == (3, 2, 3)
    assert bsde_residual(tree, problem, Y, Z) <= RESIDUAL_TOL


def test_vector_valued_constant_generator():
    tree = uniform_tree(2, 2)
    eta = np.array([[1.0, -1.0], [2.0, 0.0], [3.0, 1.0], [4.0, 2.0]])
    c = np.array([0.5, -0.25])
    problem = BsdeProblem(
        terminal=eta,
        generator=lambda t, y, zt: np.broadcast_to(c, y.shape),
    )
    Y, Z = solve_bsde(tree, problem)
    np.testing.assert_allclose(Y.level(0)[0], eta.mean(axis=0) + 2 * c, atol=TOL)
    assert Z.level(0).shape == (1, 2, 2)
    assert bsde_residual(tree, problem, Y, Z) <= RESIDUAL_TOL


def test_generator_consumes_contraction():
    # the generator sees only the contraction of the next-step row, and at
    # the horizon no row at all
    tree = uniform_tree(2, 3)
    seen = []

    def gen(t, y, zt):
        if zt is None:
            return 0.1 * y
        seen.append((t, zt.shape[1:]))
        return 0.1 * y + zt[:, 0]

    problem = BsdeProblem(terminal=np.arange(8.0), generator=gen)
    Y, Z = solve_bsde(tree, problem)
    assert {t for t, _ in seen} == {1, 2}
    assert {s for _, s in seen} == {(1,)}
    assert bsde_residual(tree, problem, Y, Z) <= RESIDUAL_TOL


def test_solution_is_deterministic():
    rng = np.random.default_rng(2)
    tree = random_tree(rng, 3, 3)
    eta = rng.normal(size=27)
    problem = BsdeProblem(
        terminal=eta, generator=lambda t, y, zt: 0.0 if zt is None else np.tanh(y) + zt.sum(axis=1)
    )
    Y1, Z1 = solve_bsde(tree, problem)
    Y2, Z2 = solve_bsde(tree, problem)
    for t in range(tree.T + 1):
        np.testing.assert_array_equal(Y1.level(t), Y2.level(t))
    for t in range(tree.T):
        np.testing.assert_array_equal(Z1.level(t), Z2.level(t))
        # canonical rows: last column is exactly zero
        np.testing.assert_array_equal(Z1.level(t)[:, -1], 0.0)


def test_residual_flags_perturbation():
    tree = uniform_tree(2, 2)
    problem = BsdeProblem(terminal=np.array([1.0, 2.0, 3.0, 4.0]))
    Y, Z = solve_bsde(tree, problem)
    y_levels = [Y.level(t).copy() for t in range(3)]
    y_levels[1][0] += 1.0
    z_levels = [Z.level(t) for t in range(2)]
    assert bsde_residual(tree, problem, y_levels, z_levels) >= 1.0 - 1e-9


def test_residual_zero_data():
    tree = uniform_tree(2, 2)
    problem = BsdeProblem(terminal=np.zeros(4))
    y = [np.zeros(1), np.zeros(2), np.zeros(4)]
    z = [np.zeros((1, 2)), np.zeros((2, 2))]
    assert bsde_residual(tree, problem, y, z) == 0.0


def test_residual_insensitive_to_row_representative():
    rng = np.random.default_rng(3)
    tree = random_tree(rng, 3, 2)
    problem = BsdeProblem(
        terminal=rng.normal(size=9),
        generator=lambda t, y, zt: 0.0 if zt is None else 0.3 * y + zt[:, 0] - zt[:, 1],
    )
    Y, Z = solve_bsde(tree, problem)
    base = bsde_residual(tree, problem, Y, Z)
    shifted = [Z.level(t) + rng.normal(size=(tree.num_nodes(t), 1)) for t in range(2)]
    assert bsde_residual(tree, problem, [Y.level(t) for t in range(3)], shifted) == (
        pytest.approx(base, abs=1e-12)
    )


def test_a_bad_terminal_or_z_is_refused():
    tree = uniform_tree(2, 2)
    with pytest.raises(ShapeMismatch, match="terminal has 3 values, expected 4"):
        solve_bsde(tree, BsdeProblem(terminal=np.ones(3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(GeneratorEvaluationError, match="terminal values are not finite"):
            solve_bsde(tree, BsdeProblem(terminal=np.array([1.0, bad, 0.0, 2.0])))
    problem = BsdeProblem(terminal=np.ones(4))
    Y, _ = solve_bsde(tree, problem)
    # rows of N + 1 entries, and two components for a scalar problem
    for z, shape in (([np.zeros((1, 3)), np.zeros((2, 3))], r"\(1, 3\)"),
                     ([np.zeros((1, 2, 2)), np.zeros((2, 2, 2))], r"\(1, 2, 2\)")):
        with pytest.raises(ShapeMismatch, match=f"Z level 0 has shape {shape}"):
            bsde_residual(tree, problem, Y, z)


def test_non_finite_generator_rejected():
    tree = uniform_tree(2, 2)
    problem = BsdeProblem(
        terminal=np.ones(4), generator=lambda t, y, zt: float("nan")
    )
    with pytest.raises(GeneratorEvaluationError):
        solve_bsde(tree, problem)


def _solve_bits(tree, problem):
    Y, Z = solve_bsde(tree, problem)
    levels = [Y.level(t) for t in range(tree.T + 1)] + [Z.level(t) for t in range(tree.T)]
    return [lev.tobytes() for lev in levels], bsde_residual(tree, problem, Y, Z)


def test_expression_generators_match_a_per_node_evaluation():
    # the file binding evaluates whole levels; the reference calls evaluate
    # once per node with w = node % N + 1
    rng = np.random.default_rng(4)
    N, T = 3, 3
    f_src, fT_src = "0.1*y + tanh(z1) - min(z2, w)/7 + t^2/9", "exp(0.1*y) - w*sin(y)"
    doc = {
        "kind": "bsde",
        "tree": {"N": N, "T": T, "transition": "uniform"},
        "terminal": rng.normal(size=N**T).tolist(),
        "coefficients": {"f": f_src, "f_terminal": fT_src},
    }
    loaded = bind_problem(doc)
    f, fT = parse_expression(f_src), parse_expression(fT_src)

    def gen(t, y, zt):
        if zt is None:
            return [fT.evaluate({"t": float(T), "w": float(node % N + 1), "y": y[node]})
                    for node in range(len(y))]
        return [f.evaluate({"t": float(t), "w": float(node % N + 1), "y": y[node],
                            "z1": float(zt[node, 0]), "z2": float(zt[node, 1])})
                for node in range(len(y))]

    per_node = BsdeProblem(terminal=loaded.data.terminal, generator=gen)
    assert _solve_bits(loaded.tree, loaded.data) == _solve_bits(loaded.tree, per_node)


def test_level_generator_output_is_checked():
    tree = uniform_tree(2, 2)

    def nan_at_node_1(t, y, zt):
        if zt is None:
            return 0.0
        out = 0.1 * y
        out[1] = np.nan
        return out

    with pytest.raises(GeneratorEvaluationError, match=r"\(t=1, node=1\)"):
        solve_bsde(tree, BsdeProblem(terminal=np.ones(4), generator=nan_at_node_1))
    with pytest.raises(ShapeMismatch, match="t=2"):
        solve_bsde(tree, BsdeProblem(terminal=np.ones(4),
                                     generator=lambda t, y, zt: y[:2] if zt is None else 0.0))
    # one value serves the whole level
    Y, _ = solve_bsde(tree, BsdeProblem(terminal=np.ones(4),
                                        generator=lambda t, y, zt: 0.5 if zt is None else 0.0))
    np.testing.assert_allclose(Y.level(0), [1.5], atol=TOL)
    # so does an output that broadcasts to it: a length-1 array, bit for bit
    Y1, Z1 = solve_bsde(tree, BsdeProblem(
        terminal=np.ones(4), generator=lambda t, y, zt: np.array([0.5 if zt is None else 0.25])))
    Y0, Z0 = solve_bsde(tree, BsdeProblem(terminal=np.ones(4),
                                          generator=lambda t, y, zt: 0.5 if zt is None else 0.25))
    assert Y1.array.tobytes() == Y0.array.tobytes() and Z1.array.tobytes() == Z0.array.tobytes()
    np.testing.assert_allclose(Y1.level(0), [1.75], atol=TOL)
    # and one (1, K) row of K values serves every node of a K-valued level
    Y, _ = solve_bsde(tree, BsdeProblem(
        terminal=np.ones((4, 2)), generator=lambda t, y, zt: np.array([[0.5, 1.0]]) if zt is None else 0.0))
    np.testing.assert_allclose(Y.level(0), [[1.5, 2.0]], atol=TOL)


def test_one_value_per_node_is_not_a_row_of_k_values():
    # where a K-valued level has n == K nodes, an (n,) output would
    # broadcast to (n, K) as one row shared by all nodes; it is refused
    tree = uniform_tree(2, 2)
    with pytest.raises(ShapeMismatch, match=r"t=1 returned shape \(2,\), expected \(2, 2\)"):
        solve_bsde(tree, BsdeProblem(terminal=np.ones((4, 2)),
                                     generator=lambda t, y, zt: 0.0 if zt is None else y[:, 0]))
    with pytest.raises(ShapeMismatch, match=r"t=2 returned shape \(4,\), expected \(4, 4\)"):
        solve_bsde(tree, BsdeProblem(terminal=np.ones((4, 4)),
                                     generator=lambda t, y, zt: y[:, 0] if zt is None else 0.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 4), st.integers(1, 40))
def test_each_component_of_a_vector_solve_is_its_scalar_solve(seed, N, T, K):
    # bit for bit: the Newton oracle's Jacobian solves its K paths this way
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, T)
    eta = rng.normal(scale=2.0, size=(tree.num_nodes(T), K))
    a, c = rng.uniform(-1, 1, size=2)

    def gen(t, y, zt):
        if zt is None:
            return 0.3 * np.sin(y) - c * y
        w = np.arange(len(y)) % N + 1.0
        w = w if y.ndim == 1 else w[:, None]
        return a * y + np.tanh(zt[..., 0]) - c * zt[..., -1] * w / t

    Y, Z = solve_bsde(tree, BsdeProblem(eta, gen))
    for k in range(K):
        Yk, Zk = solve_bsde(tree, BsdeProblem(eta[:, k], gen))
        for t in range(T + 1):
            assert np.array_equal(Y.level(t)[:, k], Yk.level(t))
        for t in range(T):
            assert np.array_equal(Z.level(t)[:, k], Zk.level(t))


@pytest.mark.parametrize("K", [None, 2])
def test_the_generator_runs_on_times_1_to_T_with_no_row_at_the_horizon(K):
    # one generator, as NonlinearProblem's: z_tilde is None at t = T and a
    # contraction array at T-1..1, in both the solve and the residual
    tree = uniform_tree(3, 3)
    cell = () if K is None else (K,)
    eta = np.random.default_rng(6).normal(size=(27,) + cell)
    calls = []

    def gen(t, y, zt):
        calls.append((t, y.shape, None if zt is None else (type(zt), zt.shape)))
        return 0.0

    problem = BsdeProblem(terminal=eta, generator=gen)
    Y, Z = solve_bsde(tree, problem)
    want = [(3, (27,) + cell, None)] + [(t, (3**t,) + cell, (np.ndarray, (3**t,) + cell + (2,)))
                                        for t in (2, 1)]
    assert calls == want
    calls.clear()
    assert bsde_residual(tree, problem, Y, Z) <= RESIDUAL_TOL
    assert calls == want
    # generator=None is the zero generator at every time, bit for bit
    Y0, Z0 = solve_bsde(tree, BsdeProblem(terminal=eta))
    assert Y0.array.tobytes() == Y.array.tobytes() and Z0.array.tobytes() == Z.array.tobytes()
    assert bsde_residual(tree, BsdeProblem(terminal=eta), Y0, Z0) == (
        bsde_residual(tree, problem, Y, Z))
