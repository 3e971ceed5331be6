"""Tree construction, conditional expectation, and adapted processes."""

import numpy as np
import pytest

from conftest import path_probability, random_tree
from fbsde import tree as tree_module
from fbsde import (
    AdaptedProcess,
    LeafNodeError,
    MissingValue,
    NodeId,
    NonPositiveProbability,
    RowSumMismatch,
    ScenarioTree,
    ShapeMismatch,
    build_tree,
    cond_exp,
    cond_exp_level,
    expectation,
)

TOL = 1e-12


class TestBuildTree:
    def test_uniform_two_state(self):
        tree = build_tree(2, 1, "uniform")
        assert tree.transition[0].shape == (1, 2)
        np.testing.assert_array_equal(tree.transition[0][0], [0.5, 0.5])

    def test_uniform_three_state_counts(self):
        tree = build_tree(3, 2, "uniform")
        assert sum(lev.shape[0] for lev in tree.transition) == 1 + 3
        assert tree.num_nodes(2) == 9

    def test_zero_probability_rejected(self):
        with pytest.raises(NonPositiveProbability):
            build_tree(2, 1, [1.0, 0.0])

    def test_negative_probability_rejected(self):
        with pytest.raises(NonPositiveProbability):
            build_tree(2, 1, [1.5, -0.5])

    def test_row_sum_not_renormalized(self):
        with pytest.raises(RowSumMismatch):
            build_tree(2, 1, [0.6, 0.6])

    def test_row_sum_within_tolerance_accepted(self):
        build_tree(2, 1, [0.5 + 4e-13, 0.5 - 2e-13])

    def test_bad_shape(self):
        with pytest.raises(ShapeMismatch):
            build_tree(2, 1, [0.2, 0.3, 0.5])
        with pytest.raises(ShapeMismatch):
            build_tree(2, 2, [[0.5, 0.5]] * 2)  # needs 3 rows

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            build_tree(1, 1)
        with pytest.raises(ValueError):
            build_tree(2, 0)

    def test_a_tree_numpy_cannot_index_is_refused_by_its_sizes(self):
        # before any integer near N**T is formed: T = 10**6 once took time
        # and memory growing with T**2 and printed a huge row count
        message = "a tree with N=2 and T=1000000 has more nodes than numpy can index"
        with pytest.raises(ValueError, match=message):
            build_tree(2, 10**6)
        with pytest.raises(ValueError, match=message):
            ScenarioTree(2, 10**6, [[0.5, 0.5]])
        # 2**63 - 1 nodes are the most an index reaches
        assert tree_module._sizes(2, 62) == (2, 62)
        with pytest.raises(ValueError, match="N=2 and T=63"):
            tree_module._sizes(2, 63)

    def test_per_node_table(self):
        tree = build_tree(2, 2, [[0.3, 0.7], [0.4, 0.6], [0.9, 0.1]])
        np.testing.assert_array_equal(tree.transition[1][1], [0.9, 0.1])

    def test_transition_read_only(self):
        tree = build_tree(2, 2)
        with pytest.raises(ValueError):
            tree.transition[0][0, 0] = 0.3

    def test_row_and_children_lookups(self):
        tree = build_tree(3, 2, [[0.5, 0.3, 0.2]] + [[1 / 3.0] * 3] * 3)
        np.testing.assert_array_equal(tree.row((0, 0)), [0.5, 0.3, 0.2])
        with pytest.raises(LeafNodeError):
            tree.row((2, 0))


class TestTransitionTable:
    """The tree takes its (m, N) level-order table whole, checks it once per
    condition and names a failing row through ``locate``."""

    SIZES = [(N, T) for N in (2, 3, 4) for T in (1, 2, 3, 4)]

    @pytest.mark.parametrize("N, T", SIZES)
    def test_one_fault_is_named_at_its_row(self, N, T):
        rng = np.random.default_rng(10 * N + T)
        base = random_tree(rng, N, T).rows
        for error, fault, message in (
            (NonPositiveProbability, np.nan, "non-finite probability at level {t}"),
            (NonPositiveProbability, 0.0,
             "transition row (t={t}, node={idx}) has a non-positive entry"),
            (RowSumMismatch, None, "transition row (t={t}, node={idx}) sums to {sum!r}"),
        ):
            # the row drawn as a node, its level-order position counted apart
            t = int(rng.integers(T))
            idx = int(rng.integers(N**t))
            k = sum(N**s for s in range(t)) + idx
            table = base.copy()
            if fault is None:
                table[k] *= 1.5
            else:
                table[k, rng.integers(N)] = fault
            with pytest.raises(error) as info:
                ScenarioTree(N, T, table)
            assert str(info.value) == message.format(t=t, idx=idx, sum=float(table.sum(axis=1)[k]))
            assert build_tree(N, T).locate(k) == (t, idx)

    def test_first_condition_wins_over_lower_level(self):
        table = build_tree(3, 3).rows.copy()
        table[2, 0] = -0.1  # depth 1
        table[9, 1] = np.inf  # depth 2
        with pytest.raises(NonPositiveProbability, match="non-finite probability at level 2"):
            build_tree(3, 3, table)

    @pytest.mark.parametrize("N, T", SIZES)
    def test_table_kept_bytewise(self, N, T):
        rng = np.random.default_rng(N * T)
        table = random_tree(rng, N, T).rows.copy()
        tree = build_tree(N, T, table)
        assert tree.rows.tobytes() == table.tobytes()
        assert table.flags.writeable  # the tree froze its own copy
        m = (N**T - 1) // (N - 1)
        row = table[0]
        assert build_tree(N, T, row).rows.tobytes() == np.tile(row, (m, 1)).tobytes()
        uniform = np.tile(np.full(N, 1.0 / N), (m, 1))
        assert build_tree(N, T, "uniform").rows.tobytes() == uniform.tobytes()

    @pytest.mark.parametrize("N, T", SIZES)
    def test_locate_inverts_offsets(self, N, T):
        tree = build_tree(N, T)
        for t in range(T + 1):
            assert tree.locate(tree.offsets[t]) == (t, 0)
            assert tree.locate(tree.offsets[t + 1] - 1) == (t, N**t - 1)
        for k in (-1, tree.offsets[T + 1]):
            with pytest.raises(MissingValue):
                tree.locate(k)

    def test_table_shape(self):
        with pytest.raises(ShapeMismatch, match=r"has shape \(3, 3\), expected \(\*, 2\)"):
            ScenarioTree(2, 2, np.full((3, 3), 1 / 3))
        with pytest.raises(ShapeMismatch, match="has 7 rows, expected 3 for T=2"):
            ScenarioTree(2, 2, np.full((7, 2), 0.5))


class TestNodeId:
    def test_root(self):
        assert NodeId(0, ()).depth == 0
        assert str(NodeId(0, ())) == "root"

    def test_path_length_must_match(self):
        with pytest.raises(ShapeMismatch):
            NodeId(2, (1,))

    def test_roundtrip_with_index(self):
        tree = build_tree(3, 3)
        for t in (0, 1, 3):
            for idx in range(tree.num_nodes(t)):
                node = tree.node_id(t, idx)
                assert node.depth == t
                assert all(1 <= b <= 3 for b in node.path)
        # AdaptedProcess.at resolves a NodeId back to the same slot
        proc = AdaptedProcess(tree, 2, [np.arange(9.0), np.arange(27.0)])
        assert proc.at(tree.node_id(3, 11)) == 11.0


class TestCondExp:
    def test_uniform_mean(self):
        tree = build_tree(2, 1)
        assert cond_exp(tree, np.array([3.0, 1.0]), (0, 0)) == pytest.approx(2.0, abs=TOL)

    def test_weighted(self):
        tree = build_tree(2, 1, [0.25, 0.75])
        assert cond_exp(tree, np.array([4.0, 0.0]), (0, 0)) == pytest.approx(1.0, abs=TOL)

    def test_constant_children(self):
        rng = np.random.default_rng(7)
        tree = random_tree(rng, 3, 2)
        vals = np.full(9, 4.2)
        for idx in range(3):
            assert cond_exp(tree, vals, (1, idx)) == pytest.approx(4.2, abs=TOL)

    def test_leaf_rejected(self):
        tree = build_tree(2, 1)
        with pytest.raises(LeafNodeError):
            cond_exp(tree, np.array([1.0, 2.0]), (1, 0))

    def test_missing_values(self):
        tree = build_tree(2, 2)
        with pytest.raises(MissingValue):
            cond_exp(tree, np.array([1.0, 2.0, 3.0]), (1, 0))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            t = int(rng.integers(0, tree.T))
            u = rng.normal(size=tree.num_nodes(t + 1))
            v = rng.normal(size=tree.num_nodes(t + 1))
            a, b = rng.normal(size=2)
            lhs = cond_exp_level(tree, a * u + b * v, t)
            rhs = a * cond_exp_level(tree, u, t) + b * cond_exp_level(tree, v, t)
            np.testing.assert_allclose(lhs, rhs, atol=TOL)


class TestExpectation:
    def test_root_level(self):
        tree = build_tree(2, 1)
        assert expectation(tree, np.array([5.0]), 0) == 5.0

    def test_uniform_leaves(self):
        tree = build_tree(2, 2)
        assert expectation(tree, np.array([1.0, 2.0, 3.0, 4.0]), 2) == pytest.approx(
            2.5, abs=TOL
        )

    def test_indicator_gives_path_probability(self):
        tree = build_tree(2, 2)
        indicator = np.zeros(4)
        indicator[2] = 1.0
        assert expectation(tree, indicator, 2) == pytest.approx(0.25, abs=TOL)

    def test_indicator_on_random_tree_matches_path_product(self):
        rng = np.random.default_rng(3)
        tree = random_tree(rng, 3, 3)
        for leaf in (0, 7, 26):
            indicator = np.zeros(27)
            indicator[leaf] = 1.0
            assert expectation(tree, indicator, 3) == pytest.approx(
                path_probability(tree, 3, leaf), abs=TOL
            )

    def test_tower_property(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            tree = random_tree(rng, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            t = int(rng.integers(0, tree.T))
            vals = rng.normal(size=tree.num_nodes(t + 1))
            direct = expectation(tree, vals, t + 1)
            nested = expectation(tree, cond_exp_level(tree, vals, t), t)
            assert direct == pytest.approx(nested, abs=TOL)

    def test_level_probabilities_sum_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            tree = random_tree(rng, int(rng.integers(2, 5)), int(rng.integers(1, 5)))
            for t in range(tree.T + 1):
                assert tree.level_probs(t).sum() == pytest.approx(1.0, abs=TOL)


class TestAdaptedProcess:
    def test_shape_validation(self):
        tree = build_tree(2, 2)
        with pytest.raises(ShapeMismatch):
            AdaptedProcess(tree, 0, [np.zeros(1), np.zeros(3)])
        with pytest.raises(ShapeMismatch):
            AdaptedProcess(tree, 0, [np.zeros((1, 2)), np.zeros((2, 3))])

    def test_range_checks(self):
        tree = build_tree(2, 2)
        proc = AdaptedProcess(tree, 1, [np.zeros(2), np.zeros(4)])
        assert proc.end == 2
        with pytest.raises(MissingValue):
            proc.level(0)
        with pytest.raises(MissingValue):
            AdaptedProcess(tree, 2, [np.zeros(4), np.zeros(8)])

    def test_values_read_only(self):
        tree = build_tree(2, 1)
        proc = AdaptedProcess(tree, 0, [np.zeros(1), np.zeros(2)])
        with pytest.raises(ValueError):
            proc.level(1)[0] = 1.0

    def test_vector_values(self):
        tree = build_tree(2, 1)
        proc = AdaptedProcess(tree, 0, [np.zeros((1, 3)), np.ones((2, 3))])
        assert proc.value_shape == (3,)
        np.testing.assert_array_equal(proc.at((1, 1)), [1.0, 1.0, 1.0])

    def test_levels_as_a_tuple(self):
        tree = build_tree(2, 2)
        proc = AdaptedProcess(tree, 1, (np.arange(2.0), np.arange(4.0)))
        np.testing.assert_array_equal(proc.array, [0.0, 1.0, 0.0, 1.0, 2.0, 3.0])
        assert proc.times == range(1, 3)

    def test_zero_dimensional_levels_fill_every_node(self):
        tree = build_tree(3, 2)
        proc = AdaptedProcess(tree, 0, [2.5, np.float64(-1.0), np.ones(9)])
        np.testing.assert_array_equal(proc.level(0), [2.5])
        np.testing.assert_array_equal(proc.level(1), [-1.0] * 3)
        assert proc.value_shape == ()

    def test_wrong_node_count(self):
        tree = build_tree(2, 2)
        with pytest.raises(ShapeMismatch, match="process level 2 has shape"):
            AdaptedProcess(tree, 1, [np.zeros(2), np.zeros(3)])

    def test_mismatched_value_shape(self):
        tree = build_tree(2, 2)
        with pytest.raises(ShapeMismatch, match=r"process level 1 has shape \(2, 2\)"):
            AdaptedProcess(tree, 0, [np.zeros((1, 3)), np.zeros((2, 2)), np.zeros((4, 3))])
