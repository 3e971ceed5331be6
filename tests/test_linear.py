"""Linear solver: scripts, backward recursion, certificate, decoupling."""

import json
import warnings

import numpy as np
import pytest

from conftest import random_linear_coeffs, random_tree, replace_fields, uniform_tree
from fbsde import (
    AssumptionViolation,
    BsdeProblem,
    LinearCoefficients,
    NonFiniteInput,
    NonFiniteSolve,
    ShapeMismatch,
    SingularCertificate,
    UniqueSolution,
    Unsolvable,
    build_tree,
    cond_exp_level,
    decoupling_coefficients,
    linear_oracle,
    linear_residuals,
    riccati_backward,
    solve_bsde,
    solve_linear,
    solve_special,
    special_coefficients,
)
from fbsde.linear import SINGULAR_RATIO, _script, _script_offset

TOL = 1e-12
SOLVER_TOL = 1e-10


def singular_construction(x0=1.0):
    """Unit Y-feedback at the root annihilates the all-ones direction."""
    tree = uniform_tree(2, 1)
    return tree, LinearCoefficients(tree, B=1.0, G=1.0), x0


class TestScriptCoeffs:
    def test_all_zero(self):
        tree = uniform_tree(3, 1)
        coeffs = LinearCoefficients(tree)
        a, coupling = _script(tree, coeffs)
        np.testing.assert_allclose(a[0], np.ones(3), atol=TOL)
        np.testing.assert_allclose(coupling[0], np.zeros((3, 3)), atol=TOL)
        np.testing.assert_allclose(_script_offset(tree, coeffs)[0], np.zeros(3), atol=TOL)

    def test_plain_drift(self):
        tree = uniform_tree(2, 1)
        a, _ = _script(tree, LinearCoefficients(tree, A=1.0))
        np.testing.assert_allclose(a[0], 2.0 * np.ones(2), atol=TOL)

    def test_plain_feedback(self):
        tree = uniform_tree(2, 1)
        _, coupling = _script(tree, LinearCoefficients(tree, B=-1.0))
        # b = -1 on every branch, fed back through the transition row
        np.testing.assert_allclose(coupling[0], -np.outer(np.ones(2), tree.rows[0]), atol=TOL)

    def test_barred_row_is_centered(self):
        rng = np.random.default_rng(0)
        tree = random_tree(rng, 4, 1)
        row = rng.normal(size=4)
        a, _ = _script(tree, LinearCoefficients(tree, A_bar=row))
        expect = 1.0 + row - row @ tree.transition[0][0]
        np.testing.assert_allclose(a[0], expect, atol=TOL)


# The per-level backward pass that ``_script`` and the whole-tree
# ``decoupling_coefficients`` replace, kept as their bit-level reference.


def reference_script_level(tree, coeffs, t):
    """Stacked per-branch slope coefficients (a, b, c) of every depth-t node."""
    Pt = tree.transition[t]
    A, B = coeffs.A[t], coeffs.B[t]
    Abar, Bbar = coeffs.A_bar[t], coeffs.B_bar[t]
    C, Cbar = coeffs.C[t], coeffs.C_bar[t]
    scr_a = (1.0 + A)[:, None] + Abar - np.einsum("nj,nj->n", Abar, Pt)[:, None]
    scr_b = B[:, None] + Bbar - np.einsum("nj,nj->n", Bbar, Pt)[:, None]
    scr_c = (
        C[:, None, :]
        + np.swapaxes(Cbar, 1, 2)
        - np.einsum("nk,njk->nj", Pt, Cbar)[:, None, :]
    )
    return scr_a, scr_b, scr_c


def reference_coupling_level(tree, t, scr_b, scr_c):
    return scr_b[:, :, None] * tree.transition[t][:, None, :] + scr_c


def reference_gamma_level(tree, coupling, p_child):
    return np.eye(tree.N)[None, :, :] - coupling * p_child[:, None, :]


def reference_theta_level(tree, coeffs, t):
    return (1.0 - coeffs.B_hat[t])[:, None] * tree.transition[t] - coeffs.C_hat[t]


def reference_slope_pass(tree, coeffs):
    """(P levels, gamma levels, v levels, ratio levels) of the per-level
    recursion, from T-1 down to the first level with a singular matrix."""
    T, N = tree.T, tree.N
    P = [None] * (T + 1)
    P[T] = -coeffs.A_hat[T] + (1.0 - coeffs.B_hat[T]) * coeffs.G
    gammas, vs, ratio_levels = [None] * T, [None] * T, []
    for t in range(T - 1, -1, -1):
        n = tree.num_nodes(t)
        scr_a, scr_b, scr_c = reference_script_level(tree, coeffs, t)
        coupling = reference_coupling_level(tree, t, scr_b, scr_c)
        P_child = P[t + 1].reshape(n, N)
        gamma = gammas[t] = reference_gamma_level(tree, coupling, P_child)
        svals = np.linalg.svd(gamma, compute_uv=False)
        smax, smin = svals[:, 0], svals[:, -1]
        ratios = np.where(smax > 0.0, smin / np.where(smax > 0.0, smax, 1.0), 0.0)
        ratio_levels.append(ratios)
        if not ((smax > 0.0) & (ratios > SINGULAR_RATIO)).all():
            break
        v = vs[t] = np.linalg.solve(gamma, scr_a[:, :, None])[:, :, 0]
        if t >= 1:
            theta = reference_theta_level(tree, coeffs, t)
            P[t] = -coeffs.A_hat[t] + np.einsum("nj,nj,nj->n", theta, P_child, v)
    return P, gammas, vs, ratio_levels


def reference_decoupling(tree, coeffs, riccati):
    """(slope, offset) levels of the per-level decoupling maps."""
    T, N = tree.T, tree.N
    slope, offset = [None] * T + [coeffs.G.copy()], [None] * T + [coeffs.g.copy()]
    for t in range(T):
        n = tree.num_nodes(t)
        Pt = tree.transition[t]
        P_child = riccati.P_levels[t + 1].reshape(n, N)
        p_child = riccati.p_levels[t + 1].reshape(n, N)
        slope[t] = np.einsum("nj,nj,nj->n", Pt, P_child, riccati.v_levels[t])
        offset[t] = np.einsum("nj,nj,nj->n", Pt, P_child, riccati.w_levels[t]) + np.einsum(
            "nj,nj->n", Pt, p_child
        )
    return slope, offset


def halted_at(tree, coeffs, s):
    """``coeffs`` with a singular matrix at node 0 of depth s: no Z or
    increment feedback at depth s, and B there set so that the matrix
    I - b 1 (q * P_child)^T kills the all-ones direction."""
    P_child = riccati_backward(tree, coeffs).P_levels[s + 1][: tree.N]
    B = [lev.copy() for lev in coeffs.B]
    B[s][0] = 1.0 / (tree.transition[s][0] @ P_child)
    zero = {name: [np.zeros_like(lev) if t == s else lev
                   for t, lev in enumerate(getattr(coeffs, name))]
            for name in ("B_bar", "C", "C_bar")}
    return replace_fields(coeffs, B=B, **zero)


def assert_same_bytes(mine, ref):
    assert len(mine) == len(ref)
    for a, b in zip(mine, ref):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestWholeTreeTables:
    """``_script``, theta, the slope recursion and ``decoupling_coefficients``
    give the bits of the per-level code above, on random trees and random
    coefficients, complete and halted at a singular level."""

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("halted", [False, True], ids=["complete", "halted"])
    def test_equal_to_the_per_level_code(self, N, T, halted):
        for seed in range(3):
            rng = np.random.default_rng([N, T, seed])
            tree = random_tree(rng, N, T)
            coeffs = random_linear_coeffs(rng, tree, scale=0.5)
            if halted:
                s = int(rng.integers(0, T))
                if riccati_backward(tree, coeffs).P_levels[s + 1] is None:
                    s = T - 1
                coeffs = halted_at(tree, coeffs, s)
            a, coupling = _script(tree, coeffs)
            for t, (a_t, coupling_t) in enumerate(zip(tree.views(a, range(T)),
                                                      tree.views(coupling, range(T)))):
                scr_a, scr_b, scr_c = reference_script_level(tree, coeffs, t)
                assert_same_bytes([a_t, coupling_t],
                                  [scr_a, reference_coupling_level(tree, t, scr_b, scr_c)])
            ric = slopes = riccati_backward(tree, coeffs)
            assert_same_bytes(slopes.theta_levels[1:],
                              [reference_theta_level(tree, coeffs, t) for t in range(1, T)])
            P, gammas, vs, ratios = reference_slope_pass(tree, coeffs)
            assert_same_bytes(slopes.P_levels, P)
            assert_same_bytes(slopes.gamma_levels, gammas)
            assert_same_bytes(slopes.v_levels, vs)
            assert_same_bytes(slopes.certificate.ratios, ratios)
            if halted:
                assert not ric.certificate.all_invertible
                assert slopes.certificate.singular_nodes[0] == tree.node_id(s, 0)
                assert slopes.gamma_levels[s] is not None and vs[s] is None
            else:
                assert ric.certificate.all_invertible
                slope, offset = decoupling_coefficients(tree, coeffs, ric)
                slope_ref, offset_ref = reference_decoupling(tree, coeffs, ric)
                assert_same_bytes([*slope.levels, *offset.levels], slope_ref + offset_ref)


class TestRiccati:
    def test_all_zero_coefficients_unit_terminal(self):
        tree = uniform_tree(2, 3)
        ric = riccati_backward(tree, LinearCoefficients(tree, G=1.0))
        assert ric.certificate.all_invertible
        for t in range(1, 4):
            np.testing.assert_allclose(ric.P_levels[t], 1.0, atol=TOL)
        for t in range(3):
            np.testing.assert_allclose(
                ric.gamma_levels[t],
                np.broadcast_to(np.eye(2), ric.gamma_levels[t].shape),
                atol=TOL,
            )

    def test_corollary_levels(self):
        tree = uniform_tree(2, 3)
        ric = riccati_backward(tree, special_coefficients(tree))
        np.testing.assert_allclose(ric.P_levels[3], 2.0, atol=TOL)
        np.testing.assert_allclose(ric.P_levels[2], 5.0 / 3.0, atol=TOL)
        np.testing.assert_allclose(ric.P_levels[1], 13.0 / 8.0, atol=TOL)

    def test_corollary_levels_nonuniform_tree(self):
        # the recursion stays deterministic whatever the transition rows
        rng = np.random.default_rng(1)
        tree = random_tree(rng, 3, 3)
        ric = riccati_backward(tree, special_coefficients(tree))
        np.testing.assert_allclose(ric.P_levels[1], 13.0 / 8.0, atol=TOL)

    def test_singular_instance(self):
        tree, coeffs, _ = singular_construction()
        ric = riccati_backward(tree, coeffs)
        np.testing.assert_allclose(ric.P_levels[1], 1.0, atol=TOL)
        # the matrix kills the all-ones vector
        np.testing.assert_allclose(
            ric.gamma_levels[0][0] @ np.ones(2), np.zeros(2), atol=TOL
        )
        assert not ric.certificate.all_invertible
        assert [n.depth for n in ric.certificate.singular_nodes] == [0]

    def test_halts_at_singular_level_but_reports_whole_level(self):
        tree = uniform_tree(2, 2)
        # feedback only at time 1: both depth-1 nodes singular, root unprocessed
        coeffs = LinearCoefficients(tree, B=[0.0, 1.0], G=1.0)
        ric = riccati_backward(tree, coeffs)
        assert len(ric.certificate.singular_nodes) == 2
        assert {n.depth for n in ric.certificate.singular_nodes} == {1}
        assert ric.gamma_levels[0] is None
        assert ric.P_levels[1] is None

    def test_levels_are_indexed_by_absolute_time(self):
        tree = uniform_tree(2, 2)
        ric = riccati_backward(tree, special_coefficients(tree))
        assert len(ric.P_levels) == len(ric.p_levels) == 3
        assert ric.P_levels[0] is None and ric.p_levels[0] is None
        np.testing.assert_allclose(ric.P_levels[1], 5.0 / 3.0, atol=TOL)
        np.testing.assert_allclose(ric.p_levels[2], 0.0, atol=TOL)
        coeffs = LinearCoefficients(tree, B=[0.0, 1.0], G=1.0)
        halted = riccati_backward(tree, coeffs)
        assert halted.P_levels[1] is None and halted.p_levels[1] is None
        with pytest.raises(SingularCertificate):
            decoupling_coefficients(tree, coeffs, halted)

    def test_gamma_recomputable_from_P(self):
        rng = np.random.default_rng(2)
        tree = random_tree(rng, 2, 3)
        coeffs = random_linear_coeffs(rng, tree, scale=0.4)
        ric = riccati_backward(tree, coeffs)
        if not ric.certificate.all_invertible:
            pytest.skip("random instance was singular")
        coupling = tree.views(_script(tree, coeffs)[1], range(3))
        for t in range(3):
            P_child = ric.P_levels[t + 1].reshape(tree.num_nodes(t), 2)
            np.testing.assert_allclose(
                np.eye(2) - coupling[t] * P_child[:, None, :], ric.gamma_levels[t], atol=TOL
            )


class TestSolveLinear:
    def test_deterministic_drift_instance(self):
        tree = uniform_tree(2, 3)
        coeffs = LinearCoefficients(tree, D=1.0, G=1.0)
        sol = solve_linear(tree, coeffs, 0.0)
        for t in range(4):
            np.testing.assert_allclose(sol.X.level(t), float(t), atol=TOL)
            np.testing.assert_allclose(sol.Y.level(t), 3.0, atol=TOL)
        for t in range(3):
            np.testing.assert_allclose(sol.Z.level(t), 0.0, atol=TOL)

    def test_partially_coupled_matches_composition(self):
        # forward simulation plus a plain backward solve, composed by hand
        rng = np.random.default_rng(3)
        for _ in range(10):
            N = int(rng.integers(2, 4))
            T = int(rng.integers(1, 4))
            tree = random_tree(rng, N, T)
            coeffs = random_linear_coeffs(rng, tree, scale=0.8, couple=False)
            ric = riccati_backward(tree, coeffs)
            for t in range(T):
                np.testing.assert_allclose(
                    ric.gamma_levels[t],
                    np.broadcast_to(np.eye(N), ric.gamma_levels[t].shape),
                    atol=TOL,
                )
            sol = solve_linear(tree, coeffs, 1.3)
            assert not isinstance(sol, Unsolvable)

            X = [np.array([1.3])]
            for t in range(T):
                n = tree.num_nodes(t)
                Pt = tree.transition[t]
                base = X[t] * (1.0 + coeffs.A[t]) + coeffs.D[t]
                row = X[t][:, None] * coeffs.A_bar[t] + coeffs.D_bar[t]
                pred = base[:, None] + row - (row * Pt).sum(axis=1)[:, None]
                X.append(pred.reshape(-1))
            for t in range(T + 1):
                np.testing.assert_allclose(sol.X.level(t), X[t], atol=TOL)

            def gen(t, y, zt):
                val = coeffs.A_hat[t] * X[t] + coeffs.B_hat[t] * y + coeffs.D_hat[t]
                if t < T:
                    z_rows = np.concatenate([zt, np.zeros((len(y), 1))], axis=1)
                    val = val + np.einsum("nj,nj->n", z_rows, coeffs.C_hat[t])
                return -val

            problem = BsdeProblem(terminal=coeffs.G * X[T] + coeffs.g, generator=gen)
            Y, Z = solve_bsde(tree, problem)
            for t in range(T + 1):
                np.testing.assert_allclose(sol.Y.level(t), Y.level(t), atol=TOL)
            for t in range(T):
                np.testing.assert_allclose(sol.Z.level(t), Z.level(t), atol=TOL)

    def test_singular_returns_unsolvable(self):
        tree, coeffs, x0 = singular_construction()
        result = solve_linear(tree, coeffs, x0)
        assert isinstance(result, Unsolvable)
        assert [n.depth for n in result.singular_nodes] == [0]

    def test_residuals_on_random_instances(self):
        rng = np.random.default_rng(4)
        solved = 0
        for _ in range(25):
            tree = random_tree(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
            coeffs = random_linear_coeffs(rng, tree)
            sol = solve_linear(tree, coeffs, float(rng.normal()))
            if isinstance(sol, Unsolvable):
                continue
            solved += 1
            assert sol.residuals.forward <= SOLVER_TOL
            assert sol.residuals.backward <= SOLVER_TOL
        assert solved >= 20

    def test_residuals_insensitive_to_row_representative(self):
        rng = np.random.default_rng(5)
        tree = random_tree(rng, 3, 2)
        coeffs = random_linear_coeffs(rng, tree)
        sol = solve_linear(tree, coeffs, 0.7)
        assert not isinstance(sol, Unsolvable)
        X = [sol.X.level(t) for t in range(3)]
        Y = [sol.Y.level(t) for t in range(3)]
        Z = [sol.Z.level(t).copy() for t in range(2)]
        for t in range(2):
            Z[t] += rng.normal(size=(tree.num_nodes(t), 1))  # constant per row
        shifted = linear_residuals(tree, coeffs, X, Y, Z)
        assert shifted.forward == pytest.approx(sol.residuals.forward, abs=1e-10)
        assert shifted.backward == pytest.approx(sol.residuals.backward, abs=1e-10)

    def test_non_finite_input(self):
        tree = uniform_tree(2, 1)
        with pytest.raises(NonFiniteInput):
            solve_linear(tree, LinearCoefficients(tree), float("nan"))

    @pytest.mark.parametrize("N, T", [(2, 3), (3, 2), (3, 3)])
    def test_a_tree_of_another_shape_is_a_shape_mismatch(self, N, T):
        tree = build_tree(2, 2)
        coeffs = LinearCoefficients(tree, G=1.0)
        sol = solve_linear(tree, coeffs, 1.0)
        other = build_tree(N, T)
        calls = {
            "solve_linear": lambda: solve_linear(other, coeffs, 1.0),
            "riccati_backward": lambda: riccati_backward(other, coeffs),
            "linear_residuals": lambda: linear_residuals(other, coeffs, sol.X, sol.Y, sol.Z),
            "decoupling": lambda: decoupling_coefficients(other, coeffs, sol.riccati),
            "linear_oracle": lambda: linear_oracle(other, coeffs, 1.0),
        }
        for name, call in calls.items():
            with pytest.raises(ShapeMismatch, match=f"N={N}, T={T}; the coefficients N=2, T=2"):
                call()
        # a tree of the same shape with other probabilities is legal
        skewed = build_tree(2, 2, [0.3, 0.7])
        assert not isinstance(solve_linear(skewed, coeffs, 1.0), Unsolvable)
        assert isinstance(linear_oracle(skewed, coeffs, 1.0), UniqueSolution)


class TestSolveSpecial:
    def test_zero_data_zero_solution(self):
        tree = uniform_tree(2, 2)
        sol = solve_special(tree)
        for t in range(3):
            np.testing.assert_array_equal(sol.X.level(t), 0.0)
            np.testing.assert_array_equal(sol.Y.level(t), 0.0)

    def test_never_singular_on_random_inhomogeneities(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
            T = tree.T
            sol = solve_special(
                tree,
                D=[rng.normal(size=tree.num_nodes(t)) for t in range(T)],
                D_bar=[rng.normal(size=(tree.num_nodes(t), tree.N)) for t in range(T)],
                D_hat=[rng.normal(size=tree.num_nodes(t)) for t in range(1, T + 1)],
                g=rng.normal(size=tree.num_nodes(T)),
                x0=float(rng.normal()),
            )
            assert sol.residuals.forward <= SOLVER_TOL
            assert sol.residuals.backward <= SOLVER_TOL

    def test_terminal_offset_only(self):
        # one-step instance with only the terminal offset switched on
        tree = uniform_tree(2, 1)
        sol = solve_special(tree, g=1.0, x0=0.0)
        assert sol.residuals.forward <= TOL
        assert sol.residuals.backward <= TOL
        # Y_1 = X_1 + 1 must hold exactly at the leaves
        np.testing.assert_allclose(
            sol.Y.level(1), sol.X.level(1) + 1.0, atol=TOL
        )
        # and the assembled global system agrees
        from fbsde import UniqueSolution, linear_oracle

        verdict = linear_oracle(tree, special_coefficients(tree, g=1.0), 0.0)
        assert isinstance(verdict, UniqueSolution)
        for t in range(2):
            np.testing.assert_allclose(
                sol.X.level(t), verdict.solution.X.level(t), atol=1e-10
            )
            np.testing.assert_allclose(
                sol.Y.level(t), verdict.solution.Y.level(t), atol=1e-10
            )


class TestDecoupling:
    def test_unit_terminal_identity_maps(self):
        tree = uniform_tree(2, 3)
        coeffs = LinearCoefficients(tree, G=1.0)
        ric = riccati_backward(tree, coeffs)
        slope, offset = decoupling_coefficients(tree, coeffs, ric)
        for t in range(4):
            np.testing.assert_allclose(slope.level(t), 1.0, atol=TOL)
            np.testing.assert_allclose(offset.level(t), 0.0, atol=TOL)

    def test_affine_relation_holds_on_solutions(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(15):
            tree = random_tree(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
            coeffs = random_linear_coeffs(rng, tree)
            ric = riccati_backward(tree, coeffs)
            if not ric.certificate.all_invertible:
                continue
            sol = solve_linear(tree, coeffs, float(rng.normal()))
            slope, offset = decoupling_coefficients(tree, coeffs, ric)
            for t in range(tree.T + 1):
                np.testing.assert_allclose(
                    sol.Y.level(t),
                    slope.level(t) * sol.X.level(t) + offset.level(t),
                    atol=SOLVER_TOL,
                )
            checked += 1
        assert checked >= 10

    def test_z_free_family_matches_scalar_recursion(self):
        # with no Z feedback anywhere the whole recursion collapses to
        # scalars: determinant identity and a hand-rolled backward pass
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(12):
            N = int(rng.integers(2, 4))
            T = int(rng.integers(1, 4))
            tree = random_tree(rng, N, T)
            coeffs = replace_fields(
                random_linear_coeffs(rng, tree, scale=0.5),
                C=np.zeros(N), C_bar=np.zeros((N, N)), C_hat=np.zeros(N),
            )
            ric = riccati_backward(tree, coeffs)
            if not ric.certificate.all_invertible:
                continue
            if min(abs(np.linalg.det(g)).min() for g in ric.gamma_levels) < 1e-2:
                continue  # avoid amplifying rounding through a tiny pivot
            slope, offset = decoupling_coefficients(tree, coeffs, ric)

            G_lvl = coeffs.G.copy()
            g_lvl = coeffs.g.copy()
            np.testing.assert_allclose(slope.level(T), G_lvl, atol=SOLVER_TOL)
            for t in range(T - 1, -1, -1):
                P_next = -coeffs.A_hat[t + 1] + (1.0 - coeffs.B_hat[t + 1]) * G_lvl
                np.testing.assert_allclose(P_next, ric.P_levels[t + 1], atol=SOLVER_TOL)
                n = tree.num_nodes(t)
                Pt = tree.transition[t]
                mean_P = cond_exp_level(tree, P_next, t)
                grouped = P_next.reshape(n, N)
                mart = np.einsum(
                    "nj,njk->nk", Pt * grouped, np.eye(N)[None, :, :] - Pt[:, None, :]
                )
                psi = (
                    1.0
                    - coeffs.B[t] * mean_P
                    - np.einsum("nk,nk->n", coeffs.B_bar[t], mart)
                )
                np.testing.assert_allclose(
                    np.linalg.det(ric.gamma_levels[t]), psi, atol=SOLVER_TOL
                )
                G_lvl = (
                    (1.0 + coeffs.A[t]) * mean_P
                    + np.einsum("nk,nk->n", coeffs.A_bar[t], mart)
                ) / psi
                tail = cond_exp_level(
                    tree,
                    (1.0 - coeffs.B_hat[t + 1]) * g_lvl - coeffs.D_hat[t + 1],
                    t,
                )
                g_lvl = (
                    coeffs.D[t] * mean_P
                    + np.einsum("nk,nk->n", coeffs.D_bar[t], mart)
                    + tail
                ) / psi
                np.testing.assert_allclose(slope.level(t), G_lvl, atol=SOLVER_TOL)
                np.testing.assert_allclose(offset.level(t), g_lvl, atol=SOLVER_TOL)
            checked += 1
        assert checked >= 5

    def test_row_closure_matches_solution(self):
        # the solved rows obey Z_t = canon(H_t X_t + h_t) for the per-node
        # affine closure built from the same backward data
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(10):
            tree = random_tree(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
            coeffs = random_linear_coeffs(rng, tree, scale=0.6)
            ric = riccati_backward(tree, coeffs)
            if not ric.certificate.all_invertible:
                continue
            sol = solve_linear(tree, coeffs, float(rng.normal()))
            N = tree.N
            offsets = _script_offset(tree, coeffs)
            scr_a, scr_coupling = _script(tree, coeffs)
            for t in range(tree.T):
                for node in range(tree.num_nodes(t)):
                    k = tree.offsets[t] + node
                    a, coupling, d = scr_a[k], scr_coupling[k], offsets[k]
                    gamma = ric.gamma_levels[t][node]
                    P_child = ric.P_levels[t + 1][node * N : (node + 1) * N]
                    p_child = ric.p_levels[t + 1][node * N : (node + 1) * N]
                    H = P_child * np.linalg.solve(gamma, a)
                    h = (
                        P_child
                        * np.linalg.solve(gamma, coupling @ p_child + d)
                        + p_child
                    )
                    closure = H * sol.X.level(t)[node] + h
                    np.testing.assert_allclose(
                        sol.Z.level(t)[node],
                        closure - closure[-1],
                        atol=SOLVER_TOL,
                    )
            checked += 1
        assert checked >= 5

    def test_singular_certificate_raised(self):
        tree, coeffs, _ = singular_construction()
        ric = riccati_backward(tree, coeffs)
        with pytest.raises(SingularCertificate):
            decoupling_coefficients(tree, coeffs, ric)

    def test_certificate_identity_when_couplings_vanish(self):
        rng = np.random.default_rng(9)
        tree = random_tree(rng, 3, 3)
        coeffs = replace_fields(
            random_linear_coeffs(rng, tree),
            B=0.0, B_bar=np.zeros(3), C=np.zeros(3), C_bar=np.zeros((3, 3)),
        )
        ric = riccati_backward(tree, coeffs)
        for t in range(3):
            np.testing.assert_allclose(
                ric.gamma_levels[t],
                np.broadcast_to(np.eye(3), ric.gamma_levels[t].shape),
                atol=TOL,
            )


class TestValidation:
    def test_c_column_sum(self):
        tree = uniform_tree(2, 1)
        with pytest.raises(AssumptionViolation, match="C column"):
            LinearCoefficients(tree, C=[1.0, 1.0])

    def test_c_hat_vanishes_at_horizon(self):
        tree = uniform_tree(2, 1)
        with pytest.raises(AssumptionViolation, match="horizon"):
            LinearCoefficients(tree, C_hat=[0.5, -0.5])

    def test_c_bar_column_sums(self):
        tree = uniform_tree(2, 1)
        with pytest.raises(AssumptionViolation, match="C_bar"):
            LinearCoefficients(tree, C_bar=[[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("N, T", [(N, T) for N in (2, 3, 4) for T in (1, 2, 3, 4)])
    def test_one_fault_is_named_at_its_node(self, N, T):
        rng = np.random.default_rng(10 * N + T)
        tree = random_tree(rng, N, T)
        o = tree.offsets
        for condition, name, first, times in (
            ("C column must sum to zero", "C", 0, range(T)),
            ("every C_bar column must sum to zero", "C_bar", 0, range(T)),
            ("C_hat column must sum to zero", "C_hat", 1, range(1, T + 1)),
            ("C_hat must vanish at the horizon", "C_hat", 1, range(T, T + 1)),
        ):
            # the faulty node drawn as a node, its position in the field counted apart
            t = int(rng.integers(times.start, times.stop))
            idx = int(rng.integers(N**t))
            k = sum(N**s for s in range(first, t)) + idx
            cell = (N, N) if name == "C_bar" else (N,)
            field = np.zeros((o[T + first] - o[first],) + cell)
            j = int(rng.integers(N))
            if "horizon" in condition:
                field[k] = -1.0 / N
                field[k, j] += 1.0  # sums to zero, yet is not zero
            else:
                field[(k,) + (int(rng.integers(N)),) * (len(cell) - 1) + (j,)] = 0.1
            with pytest.raises(AssumptionViolation) as info:
                LinearCoefficients(tree, **{name: field})
            assert str(info.value) == f"{condition} at node {tree.node_id(t, idx)}"
            assert info.value.node == tree.node_id(*tree.locate(o[t] + idx))

    def test_first_condition_wins_over_lower_level(self):
        tree = uniform_tree(2, 2)
        C, C_bar = np.zeros((3, 2)), np.zeros((3, 2, 2))
        C[2] = [0.1, 0.0]  # depth 1, node 1
        C_bar[0, 0, 0] = 0.1  # the root
        with pytest.raises(AssumptionViolation) as info:
            LinearCoefficients(tree, C=C, C_bar=C_bar)
        assert str(info.value) == "C column must sum to zero at node 2"

    @pytest.mark.parametrize("field, value, message", [
        ("A", [0.1, [0.1, 0.2, 0.3]], r"A level 1: shape \(3,\), expected \(2,\)"),
        ("C", [[0.1, -0.1], [[0.1, -0.1, 0.0]] * 2], r"C level 1: shape \(2, 3\)"),
        ("A", [0.1, 0.2, 0.3], r"A: expected a cell of shape \(\) or 2 levels"),
        ("C", 0.5, r"C: expected a cell of shape \(2,\) or 2 levels"),
    ], ids=["level-shape", "row-level-shape", "three-levels", "scalar-for-rows"])
    def test_a_value_of_the_wrong_shape_names_its_field(self, field, value, message):
        tree = uniform_tree(2, 2)
        with pytest.raises(ShapeMismatch, match=message) as info:
            LinearCoefficients(tree, **{field: value})
        assert info.value.field == field

    def test_non_finite_coefficient(self):
        tree = uniform_tree(2, 1)
        with pytest.raises(NonFiniteInput):
            LinearCoefficients(tree, A=float("inf"))

    def test_validated_once_at_construction(self, monkeypatch):
        rng = np.random.default_rng(12)
        tree = random_tree(rng, 2, 2)
        calls = []
        original = LinearCoefficients.validate
        monkeypatch.setattr(LinearCoefficients, "validate",
                            lambda self: calls.append(1) or original(self))
        coeffs = random_linear_coeffs(rng, tree)
        assert len(calls) == 1
        # the solvers and the copies with new inhomogeneities never validate again
        riccati_backward(tree, coeffs)
        solve_linear(tree, coeffs.with_inhomogeneities(D=0.1), 0.5)
        assert len(calls) == 1


#: Finite linear files whose solve overflows: P_T = 1e308 + 1e308 in the
#: first, the forward pass X_{t+1} = 2 X_t from 1e308 in the second.  In
#: the third the offsets p_3 = -1e308, p_2 = p_3 - 1e308 and p_1 overflow
#: at two depths, and the error names the deeper one.
OVERFLOWS = {
    "slope": ({"A_hat": -1e308, "G": 1e308}, 1.0, 3),
    "solution": ({"A": 1.0}, 1e308, None),
    "offset": ({"D_hat": 1e308}, 1.0, 2),
}


@pytest.mark.parametrize("coefficients, x0, depth", OVERFLOWS.values(), ids=OVERFLOWS.keys())
class TestOverflow:
    """Finite input whose solve overflows ends in NonFiniteSolve (exit 4),
    never in a traceback, a numpy warning or a NaN solution."""

    def test_solve_linear_raises(self, coefficients, x0, depth):
        tree = uniform_tree(2, 3)
        coeffs = LinearCoefficients(tree, **coefficients)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            with pytest.raises(NonFiniteSolve) as err:
                solve_linear(tree, coeffs, x0)
            assert err.value.depth == depth
            if depth is None:  # the backward pass itself is finite
                assert riccati_backward(tree, coeffs).certificate.all_invertible
            else:
                with pytest.raises(NonFiniteSolve, match=f"depth {depth}"):
                    riccati_backward(tree, coeffs)

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_cli_exits_4(self, tmp_path, capsys, coefficients, x0, depth, command):
        from fbsde.cli import run_cli

        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"kind": "linear", "x0": x0, "coefficients": coefficients,
                                    "tree": {"N": 2, "T": 3, "transition": "uniform"}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli([command, str(path)])
        captured = capsys.readouterr()
        if command == "check" and depth is None:  # the certificate alone is finite
            assert code == 0 and json.loads(captured.out)["status"] == "satisfied"
            return
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "overflowed" in captured.err
