"""The forward pass evaluates the backward pass's closures X_child = v X + w.

``resolving_forward`` is the reference: it solves each node's N x N system
a second time, for the child values of X.  Both give the same solution up
to rounding, and a solve over a warm slope memo solves each level's
systems once, in the offset pass.
"""

import sys

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_linear_coeffs, random_tree
from fbsde import (
    Unsolvable,
    build_tree,
    decoupling_coefficients,
    linear,
    riccati_backward,
    solve_linear,
    solve_special,
    special_coefficients,
)

REL = 1e-12


def resolving_forward(tree, coeffs, x0):
    """(X, Y, Z) level-order arrays of the re-solving forward pass: at every
    level, solve gamma x = a X + (b P^T + c) p_child + d node by node."""
    ric = riccati_backward(coeffs)
    T, N, m = tree.T, tree.N, tree.offsets[tree.T]
    d = tree.views(linear._script_offset(coeffs), range(T))
    a = tree.views(linear._script(coeffs)[0], range(T))
    X = np.empty(tree.offsets[T + 1])
    X[0] = x0
    X_levels = tree.views(X, range(T + 1))
    for t in range(T):
        p_child = ric.p_levels[t + 1].reshape(-1, N)
        rhs = (a[t] * X_levels[t][:, None] + d[t]
               + np.einsum("nij,nj->ni", ric.coupling_levels[t], p_child))
        X_levels[t + 1][...] = np.linalg.solve(ric.gamma_levels[t], rhs[:, :, None]).ravel()
    lam = (ric.P_array * X[1:] + ric.p_array).reshape(m, N)
    Y = np.concatenate([np.einsum("nj,nj->n", tree.rows, lam),
                        coeffs.arrays["G"] * X[m:] + coeffs.arrays["g"]])
    return X, Y, lam - lam[:, -1:]


def assert_close_to_reference(tree, coeffs, x0, sol):
    for mine, ref in zip((sol.X, sol.Y, sol.Z), resolving_forward(tree, coeffs, x0)):
        assert np.all(np.abs(mine.array - ref) <= REL * np.maximum(1.0, np.abs(ref)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 3), st.floats(-2.0, 2.0))
def test_closures_match_the_resolving_forward_pass(seed, N, T, x0):
    # the two differ by rounding that grows with the matrices' condition:
    # about 1 in 10 draws has a condition ratio below 1e-2, and a few in
    # 4000 one near 1e-5 with a gap above 1e-12, so those are left out
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, T)
    coeffs = random_linear_coeffs(rng, tree)
    sol = solve_linear(coeffs, x0)
    assume(not isinstance(sol, Unsolvable) and sol.riccati.certificate.min_ratio > 1e-2)
    assert_close_to_reference(tree, coeffs, x0, sol)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.floats(-2.0, 2.0))
def test_special_form_closures_match_the_resolving_forward_pass(seed, T, x0):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, 3, T)
    form = special_coefficients(tree)
    c = random_linear_coeffs(rng, tree)
    inhomogeneities = (c.D, c.D_bar, c.D_hat[1:], c.g)
    sol = solve_special(form, *inhomogeneities, x0)
    assert_close_to_reference(tree, form.with_inhomogeneities(*inhomogeneities), x0, sol)


def count_solves(monkeypatch):
    """The names of the functions that call ``_solve_columns``, one per call."""
    callers = []
    solve = linear._solve_columns

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return solve(*args)

    monkeypatch.setattr(linear, "_solve_columns", counted)
    return callers


def test_a_warm_solve_solves_each_level_once(monkeypatch):
    rng = np.random.default_rng(3)
    tree = random_tree(rng, 3, 3)
    for coeffs in (special_coefficients(tree), random_linear_coeffs(rng, tree, scale=0.5)):
        riccati_backward(coeffs)  # warms the slope memo
        callers = count_solves(monkeypatch)
        sol = solve_linear(coeffs, 1.0)
        assert callers == ["_offset_pass"] * tree.T
        callers.clear()
        decoupling_coefficients(coeffs, sol.riccati)
        assert callers == []
        monkeypatch.undo()


def test_an_overflowing_terminal_offset_no_longer_overflows_the_solution():
    # the re-solving forward pass added the overflowing feedback to the
    # right-hand side; the closures keep every value finite
    sol = solve_special(special_coefficients(build_tree(2, 2)), g=np.full(4, 1.7e308), x0=1.0)
    for process in (sol.X, sol.Y, sol.Z):
        assert np.isfinite(process.array).all()
    assert np.isfinite(sol.residuals.forward) and np.isfinite(sol.residuals.backward)
