"""The residual paths agree: each one reduces the per-branch defects of fbsde.martingale."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_linear_coeffs, random_tree
from fbsde import (
    BsdeProblem,
    FbsdeSolution,
    ShapeMismatch,
    as_nonlinear_problem,
    bsde_residual,
    build_tree,
    linear_residuals,
    nonlinear_residual,
    solve_bsde,
    solve_linear,
    special_coefficients,
)
from fbsde.io import solution_payload
from fbsde.martingale import backward_defect, forward_defect, worst_defects
from fbsde.oracle import _forward_residual_vector

instances = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(2, 3),  # N
    st.integers(1, 3),  # T
    st.booleans(),  # fully coupled
)


def build(seed, N, T, couple):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, T)
    coeffs = random_linear_coeffs(rng, tree, couple=couple)
    return rng, tree, coeffs


def random_triple(rng, tree):
    """Unsolved X, Y, Z with raw (non-canonical) rows."""
    X = [rng.uniform(-1, 1, size=tree.num_nodes(t)) for t in range(tree.T + 1)]
    Y = [rng.uniform(-1, 1, size=tree.num_nodes(t)) for t in range(tree.T + 1)]
    Z = [rng.uniform(-1, 1, size=(tree.num_nodes(t), tree.N)) for t in range(tree.T)]
    return X, Y, Z


def frozen_backward_problem(tree, problem, X):
    """The backward equation of ``problem`` with the forward path fixed at X."""
    T = tree.T

    def gen(t, y, zt):
        return problem.generator(t, np.arange(len(y)), X[t], y, zt)

    return BsdeProblem(
        terminal=np.zeros(tree.num_nodes(T)),
        generator=gen,
        terminal_generator=lambda y: gen(T, y, None),
    )


def all_paths(tree, coeffs, X, Y, Z):
    """(forward, backward) from every residual path, plus the oracle's flat vector."""
    problem = as_nonlinear_problem(tree, coeffs)
    lin = linear_residuals(tree, coeffs, X, Y, Z)
    nl = nonlinear_residual(tree, problem, (X, Y, Z))
    bsde = bsde_residual(tree, frozen_backward_problem(tree, problem, X), Y, Z)
    vector = _forward_residual_vector(tree, problem, X, Y, Z)
    return lin, nl, bsde, vector


@settings(max_examples=40, deadline=None)
@given(instances)
def test_paths_agree_on_unsolved_triples(instance):
    rng, tree, coeffs = build(*instance)
    X, Y, Z = random_triple(rng, tree)
    lin, nl, bsde, vector = all_paths(tree, coeffs, X, Y, Z)
    scale = max(1.0, lin.forward, lin.backward)
    assert abs(lin.forward - nl[0]) <= 1e-12 * scale
    assert abs(lin.backward - nl[1]) <= 1e-12 * scale
    assert abs(bsde - nl[1]) <= 1e-12 * scale
    assert vector.shape == (sum(tree.num_nodes(t + 1) for t in range(tree.T)),)
    assert float(np.abs(vector).max()) == nl[0]


@settings(max_examples=40, deadline=None)
@given(instances, st.data())
def test_every_path_sees_a_single_branch_perturbation(instance, data):
    rng, tree, coeffs = build(*instance)
    sol = solve_linear(tree, coeffs, float(rng.uniform(-1, 1)))
    assume(isinstance(sol, FbsdeSolution))
    X = [sol.X.level(t).copy() for t in range(tree.T + 1)]
    Y = [sol.Y.level(t).copy() for t in range(tree.T + 1)]
    Z = [sol.Z.level(t) for t in range(tree.T)]
    lin0, nl0, bsde0, vector0 = all_paths(tree, coeffs, X, Y, Z)
    # solved rows are canonical, so every path hands the kernel the same floats
    assert lin0.forward.hex() == nl0[0].hex()
    assert lin0.backward.hex() == nl0[1].hex() == bsde0.hex()
    delta = data.draw(st.floats(1e-6, 10.0)) * data.draw(st.sampled_from([-1.0, 1.0]))

    # X_{t+1} enters only its own branch's forward defect with coefficient 1
    t = data.draw(st.integers(0, tree.T - 1))
    child = data.draw(st.integers(0, tree.num_nodes(t + 1) - 1))
    Xp = [lev.copy() for lev in X]
    Xp[t + 1][child] += delta
    lin, nl, _, vector = all_paths(tree, coeffs, Xp, Y, Z)
    before = max(lin0.forward, nl0[0])
    assert lin.forward >= abs(delta) - before - 1e-12
    assert nl[0] >= abs(delta) - before - 1e-12
    offset = sum(tree.num_nodes(s + 1) for s in range(t))
    assert vector[offset + child] - vector0[offset + child] == pytest.approx(delta, abs=1e-12)

    # Y at a non-leaf node enters each of its branch backward defects with
    # coefficient -1 (at a leaf the generator sees it too)
    s = data.draw(st.integers(0, tree.T - 1))
    node = data.draw(st.integers(0, tree.num_nodes(s) - 1))
    Yp = [lev.copy() for lev in Y]
    Yp[s][node] += delta
    lin, nl, bsde, _ = all_paths(tree, coeffs, X, Yp, Z)
    before = max(lin0.backward, nl0[1], bsde0)
    assert lin.backward >= abs(delta) - before - 1e-12
    assert nl[1] >= abs(delta) - before - 1e-12
    assert bsde >= abs(delta) - before - 1e-12


def test_kernel_shapes_scalar_and_vector_valued():
    rows = np.array([[0.25, 0.75], [0.5, 0.5]])
    x = np.array([1.0, 2.0])
    x_next = np.array([1.0, 2.0, 3.0, 4.0])
    sigma = np.array([[1.0, 0.0], [0.0, 2.0]])
    defect = forward_defect(x_next, x, np.zeros(2), sigma, rows)
    # node 0: sigma (e_i - P) = (0.75, -0.25); node 1: (-1, 1)
    np.testing.assert_allclose(defect, [[-0.75, 1.25], [2.0, 1.0]])

    y = np.array([[1.0, 10.0], [2.0, 20.0]])  # K = 2
    y_next = np.arange(8.0).reshape(4, 2)
    z = np.zeros((2, 2, 2))
    defect = backward_defect(y_next, y, np.zeros((4, 2)), z, rows)
    assert defect.shape == (2, 2, 2)
    np.testing.assert_allclose(defect, y_next.reshape(2, 2, 2) - y[:, None, :])
    scalar = backward_defect(y_next[:, 0], y[:, 0], np.zeros(4), z[:, 0, :], rows)
    np.testing.assert_array_equal(scalar, defect[:, :, 0])


@pytest.mark.parametrize("entry", ["X", "Y"])
def test_a_nan_entry_reaches_every_reduction(entry):
    # a NaN defect must not lose to a finite running maximum
    tree = build_tree(2, 2)
    coeffs = special_coefficients(tree, D=0.1, g=1.0)
    sol = solve_linear(tree, coeffs, 1.0)
    X = [sol.X.level(t).copy() for t in range(tree.T + 1)]
    Y = [sol.Y.level(t).copy() for t in range(tree.T + 1)]
    Z = [sol.Z.level(t) for t in range(tree.T)]
    problem = as_nonlinear_problem(tree, coeffs)
    if entry == "X":
        X[tree.T][0] = np.nan  # a leaf, as in a solved report
        side = 0
    else:
        Y[0][0] = np.nan  # the root, which no generator reads
        side = 1
        assert np.isnan(bsde_residual(tree, frozen_backward_problem(tree, problem, X), Y, Z))
    lin = linear_residuals(tree, coeffs, X, Y, Z)
    assert np.isnan((lin.forward, lin.backward)[side])
    assert np.isnan(nonlinear_residual(tree, problem, (X, Y, Z))[side])


def test_a_nan_reaches_the_backward_only_reduction():
    # K = 2 values: no forward equation, so the forward value is 0.0
    tree = build_tree(2, 2)
    problem = BsdeProblem(terminal=np.arange(8.0).reshape(4, 2),
                          generator=lambda t, y, zt: 0.5 * y)
    Y, Z = solve_bsde(tree, problem)
    Y = [Y.level(t).copy() for t in range(tree.T + 1)]
    Z = [Z.level(t) for t in range(tree.T)]
    f = [None, 0.5 * Y[1], np.zeros((4, 2))]
    assert worst_defects(tree, None, Y, Z, None, None, f) == (0.0, 0.0)
    Y[0][0, 1] = np.nan  # the root, which no generator reads
    fwd, bwd = worst_defects(tree, None, Y, Z, None, None, f)
    assert fwd == 0.0 and np.isnan(bwd)
    assert np.isnan(bsde_residual(tree, problem, Y, Z))


#: Every reader of a (X, Y, Z) triple given as processes or level lists.
TRIPLE_READERS = {
    "linear": lambda tree, coeffs, X, Y, Z: linear_residuals(tree, coeffs, X, Y, Z),
    "nonlinear": lambda tree, coeffs, X, Y, Z: nonlinear_residual(
        tree, as_nonlinear_problem(tree, coeffs), (X, Y, Z)),
    "bsde": lambda tree, coeffs, X, Y, Z: bsde_residual(
        tree, BsdeProblem(terminal=np.zeros(tree.num_nodes(tree.T))), Y, Z),
    "payload": lambda tree, coeffs, X, Y, Z: solution_payload(tree, (Y, Z)),
}


@pytest.mark.parametrize("defect", ["short-level", "missing-level"])
@pytest.mark.parametrize("reader, entry", [
    (reader, entry) for reader in TRIPLE_READERS for entry in "XYZ"
    if entry != "X" or reader in ("linear", "nonlinear")
])
def test_a_malformed_level_list_is_a_shape_mismatch(reader, entry, defect):
    tree = build_tree(2, 2)
    coeffs = special_coefficients(tree, D=0.1, g=1.0)
    sol = solve_linear(tree, coeffs, 1.0)
    triple = {name: list(getattr(sol, name).levels) for name in "XYZ"}
    if defect == "short-level":
        triple[entry][1] = triple[entry][1][:-1]
        match = f"{entry} level 1 has shape"
    else:
        triple[entry].pop()
        match = f"{entry} has {len(triple[entry])} levels"
    with pytest.raises(ShapeMismatch, match=match):
        TRIPLE_READERS[reader](tree, coeffs, **triple)
