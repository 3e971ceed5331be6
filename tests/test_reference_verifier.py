"""A reference verifier for linear reports, and its agreement with the
package's residuals.

The verifier states the equations of the coupled linear system a second
time, in plain Python, node by node and branch by branch, from the tree's
transition table ``tree.rows`` and the bound coefficients alone; it calls
none of the residual kernels of ``martingale`` and none of the level
functions of ``linear``.  On the non-leaf node k (level order), with
transition row P, children c_i = 1 + kN + i and increments e_i - P:

    forward   X(c_i) - X(k) - b(k) - sigma(k) . (e_i - P) = 0,
              b = A x + B y + C . z + D,
              sigma_j = A_bar_j x + B_bar_j y + sum_l z_l C_bar_lj + D_bar_j;
    backward  Y(c_i) - Y(k) + f(c_i) - Z(k) . (e_i - P) = 0,
              f = -(A_hat x + B_hat y + C_hat . z + D_hat) at the child,
              which reads no row at a leaf;

and on every leaf the terminal condition Y = G X + g.  It is slow by
design, so it runs on small trees only.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_linear_coeffs, random_tree
from fbsde import (
    AdaptedProcess,
    BsdeProblem,
    LinearCoefficients,
    Unsolvable,
    as_nonlinear_problem,
    bind_problem,
    bsde_residual,
    build_tree,
    linear_residuals,
    nonlinear_residual,
    solve_bsde,
    solve_linear,
    solve_special,
    special_coefficients,
    verify_report,
)
from fbsde.cli import DEMOS, run_cli

LINEAR_DEMOS = sorted(name for name, doc in DEMOS.items() if doc["kind"] in ("linear", "special"))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _worst(defects):
    """The largest absolute defect, NaN if any is NaN, 0.0 for none."""
    worst = 0.0
    for d in defects:
        if math.isnan(d):
            return math.nan
        worst = max(worst, abs(d))
    return worst


def reference_defects(tree, coeffs, X, Y, Z):
    """(forward, backward, terminal): the largest absolute defect of each
    equation over every branch of every non-leaf node, or over every leaf.

    ``X`` and ``Y`` hold one float a node in level order, ``Z`` one row a
    non-leaf node.
    """
    N, m = tree.N, tree.offsets[tree.T]
    c = {name: arr.tolist() for name, arr in coeffs.arrays.items()}
    rows = tree.rows.tolist()

    def generator(k):  # at node k >= 1; the hatted fields start at time 1
        h = k - 1
        z_term = _dot(c["C_hat"][h], Z[k]) if k < m else 0.0
        return -(c["A_hat"][h] * X[k] + c["B_hat"][h] * Y[k] + z_term + c["D_hat"][h])

    forward, backward = [], []
    for k in range(m):
        x, y, z, P = X[k], Y[k], Z[k], rows[k]
        drift = c["A"][k] * x + c["B"][k] * y + _dot(c["C"][k], z) + c["D"][k]
        sigma = [c["A_bar"][k][j] * x + c["B_bar"][k][j] * y
                 + sum(z[l] * c["C_bar"][k][l][j] for l in range(N)) + c["D_bar"][k][j]
                 for j in range(N)]
        for i in range(N):
            child = 1 + k * N + i
            incr = [(1.0 if j == i else 0.0) - P[j] for j in range(N)]
            forward.append(X[child] - x - drift - _dot(sigma, incr))
            backward.append(Y[child] - y + generator(child) - _dot(z, incr))
    terminal = [Y[k] - (c["G"][k - m] * X[k] + c["g"][k - m]) for k in range(m, len(X))]
    return _worst(forward), _worst(backward), _worst(terminal)


def rounding(coeffs, *values):
    """A bound on the gap two evaluation orders leave between the same
    defect: 16 ulps of the largest coefficient times the largest value."""
    coefficient = max(float(np.abs(arr).max(initial=0.0)) for arr in coeffs.arrays.values())
    value = max(float(np.abs(np.asarray(v, dtype=float)).max(initial=0.0)) for v in values)
    return 16 * np.finfo(float).eps * (1.0 + coefficient) * (1.0 + value)


def assert_agrees(tree, coeffs, X, Y, Z, forward, backward):
    """The reference defects of (X, Y, Z) are the package's ``forward`` and
    ``backward`` within rounding, ``backward`` covering the terminal row,
    and the terminal condition holds."""
    tol = rounding(coeffs, X, Y, Z)
    ref_forward, ref_backward, terminal = reference_defects(tree, coeffs, X, Y, Z)
    assert abs(ref_forward - forward) <= tol
    assert abs(max(ref_backward, terminal) - backward) <= tol
    assert terminal <= tol


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("name", LINEAR_DEMOS)
def test_the_reference_agrees_with_verify_report_on_the_linear_demos(tmp_path, name, command):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DEMOS[name]), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli([command, str(path)])
    report = json.loads(out.getvalue())
    if code != 0:  # the singular demo: a verdict, no solution to verify
        assert (name, code, report["solution"]) == ("singular-gamma", 2, None)
        return
    loaded = bind_problem(DEMOS[name])
    X, Y, Z = (sum(report["solution"][key], []) for key in ("X", "Y", "Z_canonical"))
    again = verify_report(loaded, report)
    assert_agrees(loaded.tree, loaded.data, X, Y, Z, again["forward"], again["backward"])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 3), st.floats(-2.0, 2.0))
def test_the_reference_agrees_on_drawn_linear_problems(seed, N, T, x0):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, T)
    coeffs = random_linear_coeffs(rng, tree)
    sol = solve_linear(coeffs, x0)
    assume(not isinstance(sol, Unsolvable))
    arrays = (sol.X.array.tolist(), sol.Y.array.tolist(), sol.Z.array.tolist())
    assert_agrees(tree, coeffs, *arrays, sol.residuals.forward, sol.residuals.backward)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 3), st.floats(-2.0, 2.0))
def test_the_reference_agrees_on_drawn_special_problems(seed, N, T, x0):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, T)
    c = random_linear_coeffs(rng, tree)
    inhomogeneities = (c.D, c.D_bar, c.D_hat[1:], c.g)
    sol = solve_special(special_coefficients(tree), *inhomogeneities, x0)
    coeffs = special_coefficients(tree, *inhomogeneities)
    arrays = (sol.X.array.tolist(), sol.Y.array.tolist(), sol.Z.array.tolist())
    assert_agrees(tree, coeffs, *arrays, sol.residuals.forward, sol.residuals.backward)


def test_the_reference_keeps_a_nan_defect():
    tree = build_tree(2, 2)
    coeffs = LinearCoefficients(tree, D=0.1, G=1.0)
    sol = solve_linear(coeffs, 1.0)
    X, Y, Z = (p.array.tolist() for p in (sol.X, sol.Y, sol.Z))
    X[-1] = math.nan
    assert all(math.isnan(d) for d in reference_defects(tree, coeffs, X, Y, Z))


def shifted_terminal_problem():
    """(tree, coeffs, solution with every Y raised by 1.0) of the solved
    ``LinearCoefficients(build_tree(2, 2), D=0.1, G=1.0)`` at x0 = 1: every
    branch equation still holds, the terminal condition misses by 1.0."""
    tree = build_tree(2, 2)
    coeffs = LinearCoefficients(tree, D=0.1, G=1.0)
    sol = solve_linear(coeffs, 1.0)
    return tree, coeffs, sol.X, AdaptedProcess.from_array(tree, 0, sol.Y.array + 1.0), sol.Z


def test_the_reference_flags_a_wrong_terminal_value():
    tree, coeffs, X, Y, Z = shifted_terminal_problem()
    forward, backward, terminal = reference_defects(
        tree, coeffs, X.array.tolist(), Y.array.tolist(), Z.array.tolist())
    assert forward <= 1e-15 and backward <= 1e-15
    assert terminal == pytest.approx(1.0, abs=1e-12)


def test_linear_residuals_flag_a_wrong_terminal_value():
    tree, coeffs, X, Y, Z = shifted_terminal_problem()
    assert linear_residuals(coeffs, X, Y, Z).backward >= 1.0
    assert nonlinear_residual(tree, as_nonlinear_problem(coeffs), (X, Y, Z))[1] >= 1.0


def test_bsde_residual_flags_a_wrong_terminal_value():
    # every branch equation of the solved pair holds; the leaves miss by 1.0
    tree = build_tree(2, 2)
    problem = BsdeProblem(terminal=np.arange(4.0), generator=lambda t, y, zt: 0.5 * y)
    Y, Z = solve_bsde(tree, problem)
    assert bsde_residual(tree, problem, Y, Z) <= 1e-15
    shifted = AdaptedProcess.from_array(tree, 0, Y.array + 1.0)
    assert bsde_residual(tree, problem, shifted, Z) >= 1.0
