"""Increment calculus: representation, equivalence, and norm sandwich."""

import numpy as np
import pytest

from conftest import random_tree, uniform_tree
from fbsde import (
    BranchOutOfRange,
    LeafNodeError,
    ShapeMismatch,
    branch_value,
    build_tree,
    canonicalize,
    cond_exp,
    cond_second_moment,
    equivalent,
    increments,
    norm_constants,
    represent,
    tilde_contract,
)
from fbsde.martingale import _canonical_rows, zm_products

TOL = 1e-12


def exhaustive_zm_second_moment(tree, t, z_level):
    """E[(Z M)^2] at time t by enumerating every node and branch."""
    total = 0.0
    probs = tree.level_probs(t)
    for node in range(tree.num_nodes(t)):
        row = tree.transition[t][node]
        for i in range(tree.N):
            incr = np.eye(tree.N)[i] - row
            total += probs[node] * row[i] * float(z_level[node] @ incr) ** 2
    return total


class TestIncrements:
    def test_uniform(self):
        tree = uniform_tree(2, 1)
        got = increments(tree, (0, 0))
        assert got[0][0] == 0.5
        np.testing.assert_allclose(got[0][1], [0.5, -0.5], atol=TOL)
        np.testing.assert_allclose(got[1][1], [-0.5, 0.5], atol=TOL)

    def test_weighted(self):
        tree = build_tree(2, 1, [0.25, 0.75])
        got = increments(tree, (0, 0))
        assert got[0][0] == 0.25
        np.testing.assert_allclose(got[0][1], [0.75, -0.75], atol=TOL)
        np.testing.assert_allclose(got[1][1], [-0.25, 0.25], atol=TOL)

    def test_zero_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(2, 6)), 1)
            got = increments(tree, (0, 0))
            mean = sum(p * v for p, v in got)
            np.testing.assert_allclose(mean, np.zeros(tree.N), atol=TOL)

    def test_leaf_rejected(self):
        with pytest.raises(LeafNodeError):
            increments(uniform_tree(2, 1), (1, 0))


class TestCondSecondMoment:
    def test_uniform_two_state(self):
        mat = cond_second_moment(uniform_tree(2, 1), (0, 0))
        np.testing.assert_allclose(mat, [[0.25, -0.25], [-0.25, 0.25]], atol=TOL)

    def test_uniform_three_state(self):
        mat = cond_second_moment(uniform_tree(3, 1), (0, 0))
        expect = np.full((3, 3), -1.0 / 9.0) + np.eye(3) / 3.0
        np.testing.assert_allclose(mat, expect, atol=TOL)

    def test_structure_near_degenerate_rows(self):
        for eps in (1e-1, 1e-4, 1e-8):
            tree = build_tree(2, 1, [1.0 - eps, eps])
            mat = cond_second_moment(tree, (0, 0))
            np.testing.assert_allclose(mat.sum(axis=1), 0.0, atol=TOL)
            eigs = np.linalg.eigvalsh(mat)
            assert eigs.min() >= -TOL

    def test_matches_branch_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(2, 6)), 1)
            got = cond_second_moment(tree, (0, 0))
            brute = sum(p * np.outer(v, v) for p, v in increments(tree, (0, 0)))
            np.testing.assert_allclose(got, brute, atol=TOL)


class TestBranchValue:
    def test_child_selection(self):
        tree = uniform_tree(2, 1)
        assert branch_value(tree, (0, 0), np.array([3.0, 1.0]), 1) == 3.0

    def test_constant(self):
        tree = uniform_tree(3, 1)
        for i in (1, 2, 3):
            assert branch_value(tree, (0, 0), np.full(3, 7.0), i) == 7.0

    def test_on_driving_process_itself(self):
        tree = uniform_tree(3, 1)
        for i in (1, 2, 3):
            np.testing.assert_array_equal(
                branch_value(tree, (0, 0), np.eye(3), i), np.eye(3)[i - 1]
            )

    def test_branch_bounds(self):
        tree = uniform_tree(2, 1)
        with pytest.raises(BranchOutOfRange):
            branch_value(tree, (0, 0), np.array([1.0, 2.0]), 3)


class TestRepresent:
    def test_uniform_hand_case(self):
        tree = uniform_tree(2, 1)
        z = represent(tree, (0, 0), np.array([3.0, 1.0]))
        np.testing.assert_array_equal(z, [3.0, 1.0])
        # branch 1 identity: Z (e_1 - P) = 1 = 3 - 2
        assert z @ np.array([0.5, -0.5]) == pytest.approx(1.0, abs=TOL)

    def test_constant_children_equivalent_to_zero(self):
        tree = uniform_tree(3, 1)
        z = represent(tree, (0, 0), np.full(3, 5.0))
        assert equivalent(z, np.zeros(3))

    def test_weighted_hand_case(self):
        tree = build_tree(2, 1, [0.25, 0.75])
        z = represent(tree, (0, 0), np.array([4.0, 0.0]))
        np.testing.assert_array_equal(z, [4.0, 0.0])
        assert z @ np.array([-0.25, 0.25]) == pytest.approx(-1.0, abs=TOL)

    def test_identity_on_random_trees(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            N = int(rng.integers(2, 6))
            tree = random_tree(rng, N, 1)
            vals = rng.normal(scale=10.0, size=N)
            z = represent(tree, (0, 0), vals)
            mean = cond_exp(tree, vals, (0, 0))
            prods = zm_products(tree, (0, 0), z)
            np.testing.assert_allclose(prods, vals - mean, atol=TOL)

    def test_shift_invariance_up_to_equivalence(self):
        rng = np.random.default_rng(4)
        tree = random_tree(rng, 4, 1)
        vals = rng.normal(size=4)
        z1 = represent(tree, (0, 0), vals)
        z2 = represent(tree, (0, 0), vals + 17.5)
        np.testing.assert_allclose(canonicalize(z1), canonicalize(z2), atol=TOL)

    def test_vector_values(self):
        tree = uniform_tree(2, 1)
        z = represent(tree, (0, 0), np.array([[3.0, 0.0], [1.0, 4.0]]))
        assert z.shape == (2, 2)
        np.testing.assert_array_equal(z[0], [3.0, 1.0])
        np.testing.assert_array_equal(z[1], [0.0, 4.0])


class TestCanonicalForms:
    def test_canonicalize(self):
        np.testing.assert_array_equal(canonicalize(np.array([3.0, 1.0])), [2.0, 0.0])
        np.testing.assert_array_equal(canonicalize(np.full(4, 2.5)), np.zeros(4))

    def test_canonicalize_idempotent(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=5)
        once = canonicalize(z)
        np.testing.assert_array_equal(canonicalize(once), once)

    def test_tilde_contract(self):
        np.testing.assert_array_equal(tilde_contract(np.array([3.0, 1.0])), [2.0])
        np.testing.assert_array_equal(
            tilde_contract(np.array([1.0, 2.0, 3.0])), [-2.0, -1.0]
        )
        np.testing.assert_array_equal(tilde_contract(np.zeros(3)), np.zeros(2))

    def test_vector_rows_canonicalize_per_component(self):
        z = np.array([[3.0, 1.0], [0.5, -0.5]])  # two stacked rows, N = 2
        np.testing.assert_array_equal(canonicalize(z), [[2.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(tilde_contract(z), [[2.0], [1.0]])
        assert equivalent(z, z + np.array([[7.0], [-2.0]]))

    @pytest.mark.parametrize("cell", [(), (3,)])
    def test_canonical_rows_invert_the_contraction(self, cell):
        # bit for bit: the canonical row of a row's free coordinates is its
        # canonical form, for (n, N) rows and (n, K, N) K-valued rows
        rng = np.random.default_rng(11)
        for N in range(2, 7):
            z = rng.normal(scale=3.0, size=(5,) + cell + (N,))
            rows = _canonical_rows(tilde_contract(z))
            assert rows.shape == z.shape
            assert rows.tobytes() == canonicalize(z).tobytes()

    def test_equivalent(self):
        assert equivalent(np.array([3.0, 1.0]), np.array([2.0, 0.0]))
        assert not equivalent(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        z = np.array([0.3, -1.2, 4.0])
        assert equivalent(z, z)
        with pytest.raises(ShapeMismatch):
            equivalent(np.zeros(2), np.zeros(3))

    def test_tri_equivalence(self):
        # per-branch products equal <=> difference is a constant row
        # <=> contractions equal, over random pairs on random trees
        rng = np.random.default_rng(8)
        for k in range(100):
            N = int(rng.integers(2, 5))
            tree = random_tree(rng, N, 1)
            z1 = rng.normal(size=N)
            z2 = z1 + rng.normal() if k % 2 else rng.normal(size=N)
            prods_equal = bool(
                np.max(np.abs(zm_products(tree, (0, 0), z1) - zm_products(tree, (0, 0), z2)))
                <= TOL
            )
            diff = z1 - z2
            const_diff = bool(diff.max() - diff.min() <= TOL)
            contract_equal = equivalent(z1, z2)
            assert prods_equal == const_diff == contract_equal


class TestNormConstants:
    def test_uniform_two_state_tight(self):
        consts = norm_constants(uniform_tree(2, 3))
        assert consts.lower == pytest.approx(0.25, abs=TOL)
        assert consts.upper == pytest.approx(0.25, abs=TOL)

    def test_uniform_three_state(self):
        consts = norm_constants(uniform_tree(3, 2))
        assert consts.upper == pytest.approx(4.0 / 9.0, abs=TOL)
        assert consts.lower == pytest.approx(1.0 / 12.0, abs=TOL)

    def test_lower_tracks_smallest_probability(self):
        for eps in (1e-3, 1e-6, 1e-9):
            tree = build_tree(2, 1, [1.0 - eps, eps])
            assert norm_constants(tree).lower == pytest.approx(eps / 2.0, abs=1e-15)

    def test_sandwich_on_random_processes(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            N = int(rng.integers(2, 5))
            T = int(rng.integers(1, 4))
            tree = random_tree(rng, N, T)
            consts = norm_constants(tree)
            for t in range(T):
                z = rng.normal(size=(tree.num_nodes(t), N))
                zm_sq = exhaustive_zm_second_moment(tree, t, z)
                zt_sq = float(
                    tree.level_probs(t)
                    @ (np.linalg.norm(tilde_contract(z), axis=1) ** 2)
                )
                assert consts.lower * zt_sq <= zm_sq + 1e-12
                assert zm_sq <= consts.upper * zt_sq + 1e-12
