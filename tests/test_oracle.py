"""Reference solvers: rank classification and damped Newton."""

import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bench_workloads, random_linear_coeffs, random_tree, uniform_tree
from fbsde import (
    ExpressionDomainError,
    InfinitelyMany,
    LinearCoefficients,
    NoConvergence,
    NoSolution,
    NonFiniteSolve,
    ShapeMismatch,
    SolveStats,
    UniqueSolution,
    Unsolvable,
    as_nonlinear_problem,
    bind_problem,
    demo_monotone_problem,
    finite_difference_jacobian,
    linear_oracle,
    linear_special_problem,
    solve_linear,
    solve_oracle,
    solve_special,
    special_coefficients,
    tilde_contract,
)
from fbsde import linear, oracle
from fbsde.martingale import forward_defect


def max_solution_gap(tree, a, b):
    gap = 0.0
    for t in range(tree.T + 1):
        gap = max(gap, float(np.abs(a.X.level(t) - b.X.level(t)).max()))
        gap = max(gap, float(np.abs(a.Y.level(t) - b.Y.level(t)).max()))
    for t in range(tree.T):
        gap = max(
            gap,
            float(
                np.abs(
                    tilde_contract(a.Z.level(t)) - tilde_contract(b.Z.level(t))
                ).max()
            ),
        )
    return gap


class TestLinearOracle:
    def test_unique_on_drift_instance(self):
        tree = uniform_tree(2, 3)
        coeffs = LinearCoefficients(tree, D=1.0, G=1.0)
        verdict = linear_oracle(coeffs, 0.0)
        assert isinstance(verdict, UniqueSolution)
        direct = solve_linear(coeffs, 0.0)
        assert max_solution_gap(tree, verdict.solution, direct) <= 1e-10

    def test_singular_classification(self):
        tree = uniform_tree(2, 1)
        coeffs = LinearCoefficients(tree, B=1.0, G=1.0)
        assert isinstance(linear_oracle(coeffs, 1.0), NoSolution)
        verdict = linear_oracle(coeffs, 0.0)
        assert isinstance(verdict, InfinitelyMany)
        assert verdict.nullity >= 1

    def test_matches_recursive_verdict_on_random_instances(self):
        rng = np.random.default_rng(0)
        agreements = 0
        for _ in range(30):
            tree = random_tree(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
            coeffs = random_linear_coeffs(rng, tree)
            x0 = float(rng.normal())
            direct = solve_linear(coeffs, x0)
            verdict = linear_oracle(coeffs, x0)
            if isinstance(direct, Unsolvable):
                assert not isinstance(verdict, UniqueSolution)
            else:
                assert isinstance(verdict, UniqueSolution)
                assert max_solution_gap(tree, verdict.solution, direct) <= 1e-8
                agreements += 1
        assert agreements >= 25


class _Index:
    """Flat unknown layout: X at depths 1..T, Y at 0..T, Z contractions at 0..T-1."""

    def __init__(self, tree):
        N, T = tree.N, tree.T
        self.tree = tree
        self.x_off = {}
        off = 0
        for t in range(1, T + 1):
            self.x_off[t] = off
            off += N**t
        self.y_off = {}
        for t in range(T + 1):
            self.y_off[t] = off
            off += N**t
        self.z_off = {}
        for t in range(T):
            self.z_off[t] = off
            off += (N**t) * (N - 1)
        self.size = off

    def x(self, t, node):
        return self.x_off[t] + node

    def y(self, t, node):
        return self.y_off[t] + node

    def z(self, t, node, j):
        return self.z_off[t] + node * (self.tree.N - 1) + j


def dense(coeffs, x0):
    """``oracle._assemble``'s system as a dense (matrix, rhs): its nonzeros
    scattered into a matrix of zeros."""
    rows, cols, vals, rhs = oracle._assemble(coeffs, x0)
    mat = np.zeros((len(rhs), len(rhs)))
    mat[rows, cols] = vals
    return mat, rhs


def per_node_assemble(tree, coeffs, x0):
    """The dense (matrix, rhs) built row by row over a dict-based layout, as
    ``oracle._assemble`` built it before it filled one matrix in level order."""
    N, T = tree.N, tree.T
    ix = _Index(tree)
    rows = []
    rhs = []

    def z_row_coeff(t, node, weights):
        # weights: length-N coefficients of the canonical row entries; only
        # the first N-1 touch unknowns.
        out = {}
        for j in range(N - 1):
            if weights[j] != 0.0:
                out[ix.z(t, node, j)] = weights[j]
        return out

    for t in range(T):
        Pt = tree.transition[t]
        for node in range(tree.num_nodes(t)):
            P = Pt[node]
            A = coeffs.A[t][node]
            B = coeffs.B[t][node]
            D = coeffs.D[t][node]
            C = coeffs.C[t][node]
            Abar = coeffs.A_bar[t][node]
            Bbar = coeffs.B_bar[t][node]
            Cbar = coeffs.C_bar[t][node]
            Dbar = coeffs.D_bar[t][node]
            for i in range(N):
                child = node * N + i
                incr = np.eye(N)[i] - P
                row = np.zeros(ix.size)
                b = 0.0
                # X_{t+1}(child) - X_t - forward drift/increment terms = 0
                row[ix.x(t + 1, child)] += 1.0
                x_coef = -(1.0 + A) - Abar @ incr
                if t == 0:
                    b -= x_coef * x0
                else:
                    row[ix.x(t, node)] += x_coef
                row[ix.y(t, node)] += -B - Bbar @ incr
                zw = -(C + Cbar @ incr)
                for col, w in z_row_coeff(t, node, zw).items():
                    row[col] += w
                b += D + Dbar @ incr
                rows.append(row)
                rhs.append(b)

            for i in range(N):
                child = node * N + i
                incr = np.eye(N)[i] - P
                row = np.zeros(ix.size)
                b = 0.0
                # Y_{t+1}(child) - Y_t - backward drift terms - Z_t M = 0
                row[ix.y(t + 1, child)] += 1.0 - coeffs.B_hat[t + 1][child]
                row[ix.y(t, node)] += -1.0
                row[ix.x(t + 1, child)] += -coeffs.A_hat[t + 1][child]
                if t + 1 < T:
                    ch = -coeffs.C_hat[t + 1][child]
                    for col, w in z_row_coeff(t + 1, child, ch).items():
                        row[col] += w
                for col, w in z_row_coeff(t, node, -incr).items():
                    row[col] += w
                b += coeffs.D_hat[t + 1][child]
                rows.append(row)
                rhs.append(b)

    for leaf in range(tree.num_nodes(T)):
        row = np.zeros(ix.size)
        row[ix.y(T, leaf)] = 1.0
        row[ix.x(T, leaf)] = -coeffs.G[leaf]
        rows.append(row)
        rhs.append(coeffs.g[leaf])

    return np.array(rows), np.array(rhs)


def term_scales(tree, coeffs, x0):
    """Per row of the dense system, a bound on every term its entries sum:
    (1 + |x0|) times the largest of 1 and the absolute coefficients of the
    row's node, its children's backward ones included (a leaf's G and g on
    a terminal row)."""
    N, m, c = tree.N, tree.offsets[-2], coeffs.arrays
    node = np.ones(m)
    for name in ("A", "A_bar", "B", "B_bar", "C", "C_bar", "D", "D_bar",
                 "A_hat", "B_hat", "C_hat", "D_hat"):  # the hats by child, N per node
        node = np.maximum(node, np.abs(c[name]).reshape(m, -1).max(axis=1))
    leaf = np.maximum(1.0, np.maximum(np.abs(c["G"]), np.abs(c["g"])))
    return (1.0 + abs(x0)) * np.concatenate([np.repeat(node, 2 * N), leaf])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 4), st.booleans())
# rhs[0] sums terms that cancel to -0.73 in two orders 1.1e-15 apart, above
# 4 eps of the result but not of the terms
@example(512, 4, 4, True)
def test_the_level_order_assembly_is_the_per_node_one(seed, N, T, couple):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, T)
    coeffs = random_linear_coeffs(rng, tree, couple=couple)
    x0 = float(rng.normal())
    mat, rhs = dense(coeffs, x0)
    ref_mat, ref_rhs = per_node_assemble(tree, coeffs, x0)
    size = _Index(tree).size
    # the nonzeros, each (row, column) once, in np.flatnonzero's order
    rows, cols, vals, _ = oracle._assemble(coeffs, x0)
    assert (np.diff(rows * size + cols) > 0).all() and (vals != 0.0).all()
    assert mat.shape == ref_mat.shape == (size, size)
    assert rhs.shape == ref_rhs.shape == (size,)
    assert ((mat != 0.0) == (ref_mat != 0.0)).all()
    # the two sum each entry's terms in different orders; over 3000 draws
    # the gap stayed below 2.6 eps of the row's term scale
    bound = 8 * np.finfo(float).eps * term_scales(tree, coeffs, x0)
    assert (np.abs(mat - ref_mat) <= bound[:, None]).all()
    assert (np.abs(rhs - ref_rhs) <= bound).all()


def per_level_forward_residual_vector(tree, problem, X_levels, Y_levels, Z_levels):
    """The forward defects of K paths level by level, (rows, K), as
    ``oracle._forward_residual_vector`` computed them before it made one
    ``forward_defect`` call over the tree; levels are (N**t, K) and Z's
    (N**t, K, N)."""
    zt = [tilde_contract(z) for z in Z_levels]
    T, N = tree.T, tree.N
    b = [oracle._on_paths(problem.drift, "drift", t, (), X_levels[t], Y_levels[t], zt[t])
         for t in range(T)]
    sigma = [oracle._on_paths(problem.diffusion, "diffusion", t, (N,), X_levels[t], Y_levels[t],
                              zt[t])
             for t in range(T)]
    K = X_levels[0].shape[1]
    return np.concatenate([
        forward_defect(X_levels[t + 1], X_levels[t], b[t], sigma[t], tree.transition[t]).reshape(-1, K)
        for t in range(T)
    ])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 3), st.booleans())
def test_the_whole_tree_newton_residual_is_the_per_level_one_bit_for_bit(seed, N, T, monotone):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, T)
    x0 = float(rng.normal())
    problem = (demo_monotone_problem(tree, 0.15) if monotone
               else as_nonlinear_problem(random_linear_coeffs(rng, tree)))
    residual = oracle._newton_residual(tree, problem, x0, SolveStats())
    for K in range(1, 6):
        flat = x0 + rng.normal(size=(tree.offsets[-1] - 1, K))
        X = np.concatenate([np.full((1, K), x0), flat])
        Y, Z = oracle.backward_given_forward(tree, problem, X)
        levels = [tree.views(v, range(T + 1)) for v in (X, Y)]
        ref = per_level_forward_residual_vector(tree, problem, *levels,
                                                tree.views(Z, range(T)))
        assert residual(flat).tobytes() == ref.tobytes()


def test_the_linear_verdict_does_not_use_the_recursive_solver(monkeypatch):
    # the oracle states the equations itself: no certificate, recursive
    # solve or stacked branch equation of fbsde.linear takes part in its verdict
    def unused(*args, **kwargs):
        pytest.fail("the dense oracle called the recursive solver")

    rng = np.random.default_rng(5)
    tree = random_tree(rng, 3, 2)
    coeffs = random_linear_coeffs(rng, tree, scale=0.4)
    expected = solve_linear(coeffs, 0.3)
    singular = LinearCoefficients(uniform_tree(2, 1), B=1.0, G=1.0)
    for name in ("riccati_backward", "solve_linear", "_script"):
        monkeypatch.setattr(linear, name, unused)
    verdict = linear_oracle(coeffs, 0.3)
    assert isinstance(verdict, UniqueSolution)
    assert max_solution_gap(tree, verdict.solution, expected) <= 1e-10
    assert isinstance(linear_oracle(singular, 1.0), NoSolution)
    assert isinstance(linear_oracle(singular, 0.0), InfinitelyMany)


def svd_oracle(tree, coeffs, x0):
    """The dense oracle's verdict by the SVD rule alone, as ``linear_oracle``
    gave it before the Gram test: the rank from ``np.linalg.svd``, then
    ``np.linalg.solve`` at full rank, else ``np.linalg.lstsq`` for the gap."""
    size = oracle._size(tree)
    mat, rhs = dense(coeffs, x0)
    svals = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(svals > linear.SINGULAR_RATIO * svals[0])) if svals[0] > 0.0 else 0
    if rank == size:
        with np.errstate(over="ignore", invalid="ignore"):
            vec = np.linalg.solve(mat, rhs)
        return UniqueSolution(oracle._solution_from_vector(coeffs, x0, vec), rank, size)
    vec, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    gap = float(np.abs(mat @ vec - rhs).max())
    if gap > oracle.CONSISTENCY_TOL * max(1.0, float(np.abs(rhs).max())):
        return NoSolution(rank, size, gap)
    return InfinitelyMany(rank, size, size - rank)


def near_singular(N, T, k):
    """``B = 1``, ``G = 1 + 10**-k`` (``G = 1`` for k None): singular at
    k None, else sigma_min / sigma_max is 0.6 to 1.7 times 10**-(k+1) on
    the trees N = 2..3, T = 1..3, whatever x0 (it enters only the rhs)."""
    tree = uniform_tree(N, T)
    return tree, LinearCoefficients(tree, B=1.0, G=1.0 + (0.0 if k is None else 10.0**-k))


@st.composite
def dense_systems(draw):
    """(tree, coefficients, x0): a ``conftest`` random problem, or a
    near-singular one whose sigma ratio lies 1.4x or more from SINGULAR_RATIO."""
    N, T = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        tree = random_tree(rng, N, T)
        return tree, random_linear_coeffs(rng, tree, couple=draw(st.booleans())), float(rng.normal())
    k = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 10, None]))
    return (*near_singular(N, T, k), draw(st.sampled_from([0.0, 1.0])))


def nonzeros(mat):
    """(rows, columns, values) of the matrix's nonzero entries, row by row."""
    rows, cols = np.nonzero(mat)
    return rows, cols, mat[rows, cols]


def scaled_gram(mat):
    """The Gram matrix ``linear_oracle`` certifies and factors: of the
    nonzeros of ``mat`` scaled to at most 1."""
    rows, cols, vals = nonzeros(mat)
    return oracle._gram(len(mat), rows, cols, vals / np.abs(vals).max())


def certified(tree, coeffs, x0):
    return oracle._full_rank(tree, scaled_gram(dense(coeffs, x0)[0]))


def sigma_ratio(mat):
    svals = np.linalg.svd(mat, compute_uv=False)
    return svals[-1] / svals[0]


def solution_vector(verdict):
    return np.concatenate([getattr(verdict.solution, name).array.ravel() for name in "XYZ"])


def assert_same_verdict(verdict, ref, certified=False):
    """The same verdict; a solution of the same bytes from the dense
    fallback, and within 1e-10 relative of the dense solve from the
    certified path's semi-normal equations."""
    assert type(verdict) is type(ref)
    assert (verdict.rank, verdict.size) == (ref.rank, ref.size)
    if isinstance(ref, NoSolution):
        assert verdict.inconsistency == ref.inconsistency
    elif isinstance(ref, InfinitelyMany):
        assert verdict.nullity == ref.nullity
    elif certified:
        vec, ref_vec = solution_vector(verdict), solution_vector(ref)
        assert np.abs(vec - ref_vec).max() <= 1e-10 * np.abs(ref_vec).max()
    else:
        for name in ("X", "Y", "Z"):
            assert (getattr(verdict.solution, name).array.tobytes()
                    == getattr(ref.solution, name).array.tobytes())


@settings(max_examples=80, deadline=None)
@given(dense_systems())
def test_the_gram_test_keeps_the_svd_verdict(system):
    tree, coeffs, x0 = system
    assert_same_verdict(linear_oracle(coeffs, x0), svd_oracle(tree, coeffs, x0),
                        certified(tree, coeffs, x0))


@st.composite
def singular_below_root(draw):
    """(tree, coefficients, x0) of a ``bench/workloads.linear_doc`` file on
    the binary tree of depth 6 whose depth-5 node 1 is singular, a node the
    root problem does not need."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    loaded = bind_problem(bench_workloads().linear_doc(rng, 2, 6, 1))
    return loaded.tree, loaded.data, loaded.x0


@settings(max_examples=60, deadline=None)
@given(st.one_of(dense_systems(), singular_below_root()))
def test_the_certified_solve_is_the_dense_solve(system):
    # the semi-normal equations on the tree-ordered factor, refined once,
    # against np.linalg.solve of the dense matrix; over 351 certified draws
    # the gap stayed below 2.1e-13 relative, and the residuals below 4e-16
    # of the solution's size
    tree, coeffs, x0 = system
    verdict, ref, passed = (linear_oracle(coeffs, x0), svd_oracle(tree, coeffs, x0),
                            certified(tree, coeffs, x0))
    assert_same_verdict(verdict, ref, passed)
    if passed:
        residuals = verdict.solution.residuals
        scale = max(1.0, np.abs(solution_vector(ref)).max())
        assert max(residuals.forward, residuals.backward) <= 1e-12 * scale


@settings(max_examples=80, deadline=None)
@given(dense_systems())
def test_the_gram_test_certifies_only_full_rank(system):
    # passing implies full rank by the SVD rule, and every system with a
    # sigma ratio above 1e-4 passes (the test's own margin is 1e-5)
    tree, coeffs, x0 = system
    mat = dense(coeffs, x0)[0]
    ratio = sigma_ratio(mat)
    passed = oracle._full_rank(tree, scaled_gram(mat))
    assert not passed or ratio > linear.SINGULAR_RATIO
    assert passed or ratio <= 1e-4


@settings(max_examples=80, deadline=None)
@given(dense_systems())
def test_the_tree_ordered_factorization_keeps_the_dense_verdict(system):
    # the leaves-first block elimination against one np.linalg.cholesky of
    # the whole shifted Gram matrix, in the matrix's own column order; the
    # factorization only reads the Gram matrix it is given
    tree, coeffs, x0 = system
    gram = scaled_gram(dense(coeffs, x0)[0])
    shifted = gram.copy()
    shifted[np.diag_indices(len(gram))] -= linear.SINGULAR_RATIO * np.abs(gram).sum(axis=1).max()
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        whole = False
    else:
        whole = True
    kept = gram.copy()
    assert oracle._full_rank(tree, gram) is whole
    assert gram.tobytes() == kept.tobytes()


@settings(max_examples=40, deadline=None)
@given(dense_systems())
def test_the_gram_matrix_couples_a_node_only_with_its_parent_siblings_and_children(system):
    # the one structural fact the leaves-first elimination relies on
    tree, coeffs, x0 = system
    mat = dense(coeffs, x0)[0]
    x, y, z = oracle._columns(tree)
    n, m = tree.offsets[-1], tree.offsets[-2]
    owner = np.empty(len(mat), dtype=int)  # the node of each column
    owner[x[1:]], owner[y] = np.arange(1, n), np.arange(n)
    owner[z] = np.arange(m)[:, None]
    parent = np.concatenate([[-1], (np.arange(1, n) - 1) // tree.N])
    a, b = owner[:, None], owner[None, :]
    near = (a == b) | (parent[a] == b) | (a == parent[b]) | (parent[a] == parent[b])
    assert not (mat.T @ mat)[~near].any()
    assert tree.T < 2 or not near.all()


@settings(max_examples=40, deadline=None)
@given(dense_systems())
def test_the_gram_matrix_from_the_nonzeros_is_a_t_a(system):
    tree, coeffs, x0 = system
    mat = dense(coeffs, x0)[0]
    gram = oracle._gram(len(mat), *nonzeros(mat))
    bound = 64 * np.finfo(float).eps * (np.abs(mat).T @ np.abs(mat))
    assert (np.abs(gram - mat.T @ mat) <= bound).all()


@pytest.mark.parametrize("k, passes, verdict, rank", [
    (2, True, UniqueSolution, 16),
    (4, False, UniqueSolution, 16),
    (6, False, UniqueSolution, 16),
    (8, False, UniqueSolution, 16),
    (9, False, InfinitelyMany, 15),
    (None, False, InfinitelyMany, 15),
])
def test_a_near_singular_system_falls_back_to_the_svd_rule(k, passes, verdict, rank):
    # N=2 T=2 at x0 = 1: sigma ratio 8.4e-4 at k = 2, 8.5e-6 to 8.5e-10 at
    # k = 4..8, 8.5e-11 at k = 9 and 9.5e-18 at G = 1
    tree, coeffs = near_singular(2, 2, k)
    assert certified(tree, coeffs, 1.0) is passes
    result = linear_oracle(coeffs, 1.0)
    assert (type(result), result.rank, result.size) == (verdict, rank, 16)


def test_a_full_rank_system_the_shifted_cholesky_cannot_certify_keeps_its_bytes(monkeypatch):
    # N=2 T=2 at x0 = 1, G = 1 + 10**-3.9: lambda_min / lambda_max of the
    # Gram matrix is 1.1e-10, above SINGULAR_RATIO, so its eigenvalues would
    # certify it, but below SINGULAR_RATIO U / lambda_max (U / lambda_max is
    # 1.57), so the shifted Cholesky factorization does not; the fallback
    # finds full rank and solves as the SVD rule does
    tree, coeffs = near_singular(2, 2, 3.9)
    gram = scaled_gram(dense(coeffs, 1.0)[0])
    lam = np.linalg.eigvalsh(gram)
    bound = np.abs(gram).sum(axis=1).max()
    assert linear.SINGULAR_RATIO * lam[-1] < lam[0] < linear.SINGULAR_RATIO * bound
    assert oracle._full_rank(tree, gram) is False
    calls, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
    result = linear_oracle(coeffs, 1.0)
    assert isinstance(result, UniqueSolution) and len(calls) == 1
    assert_same_verdict(result, svd_oracle(tree, coeffs, 1.0))


@pytest.mark.parametrize("k", [2, 6])
def test_the_oracle_assembles_its_matrix_once(monkeypatch, k):
    # certified at k = 2; at k = 6 through the least-squares fallback and
    # then the solve
    tree, coeffs = near_singular(2, 2, k)
    calls, assemble = [], oracle._assemble
    monkeypatch.setattr(oracle, "_assemble", lambda *args: calls.append(1) or assemble(*args))
    assert isinstance(linear_oracle(coeffs, 1.0), UniqueSolution) and len(calls) == 1


def test_the_certified_oracle_holds_one_dense_matrix_at_its_peak():
    # the Gram matrix is the certified path's one n x n array: with its pair
    # lists it took 1.12 n^2 doubles at N=3 T=5; the dense matrix beside it,
    # which only the uncertified fallback scatters, would take 2
    rng = np.random.default_rng(5)
    tree = random_tree(rng, 3, 5)
    coeffs = random_linear_coeffs(rng, tree)
    size = oracle._size(tree)
    linear_oracle(coeffs, 0.5)  # imports and caches outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert isinstance(linear_oracle(coeffs, 0.5), UniqueSolution)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert size == 969 and peak <= 1.25 * size * size * 8


#: Finite coefficients whose assembly overflows: in the matrix, the forward
#: entry -(1 + A) - A_bar . (e_i - P); in the right-hand side of a
#: rank-deficient system (B = 1, G = 1), D + D_bar . (e_i - P).
OVERFLOW_DOCS = {
    where: {"kind": "linear", "tree": {"N": 2, "T": 2, "transition": "uniform"}, "x0": 1.0,
            "coefficients": coefficients}
    for where, coefficients in (
        ("matrix", {"A": 1.5e308, "A_bar": [1.5e308, -1.5e308], "G": 1.0}),
        ("rhs", {"B": 1.0, "G": 1.0, "D": 1.5e308, "D_bar": [1.5e308, -1.5e308]}),
    )
}


@pytest.mark.parametrize("where", sorted(OVERFLOW_DOCS))
def test_an_overflowing_assembly_stops_at_once(tmp_path, where):
    # a rank-revealing solve of the infinite matrix ran for minutes without
    # returning, and a NaN consistency gap passed a rank-deficient system as
    # consistent; the command line runs in a child process, so that a return
    # of the hang fails here instead of stalling the suite
    doc = OVERFLOW_DOCS[where]
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    src = str(Path(oracle.__file__).resolve().parent.parent)
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-m", "fbsde", "oracle", str(path)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout) == (4, "")
    assert run.stderr == ("error: the dense oracle's system overflowed to a non-finite entry "
                          "in its assembly\n")
    loaded = bind_problem(doc)
    start = time.perf_counter()
    with pytest.raises(NonFiniteSolve, match="assembly"):
        linear_oracle(loaded.data, loaded.x0)
    assert time.perf_counter() - start < 1.0


class TestSolveOracle:
    def test_zero_problem(self):
        tree = uniform_tree(2, 2)
        sol, _ = solve_oracle(tree, linear_special_problem(), 0.0)
        for t in range(3):
            np.testing.assert_allclose(sol.X.level(t), 0.0, atol=1e-12)
            np.testing.assert_allclose(sol.Y.level(t), 0.0, atol=1e-12)

    def test_linear_special_cross_path(self):
        rng = np.random.default_rng(1)
        tree = random_tree(rng, 2, 3)
        x0 = 0.8
        newton, _ = solve_oracle(tree, linear_special_problem(), x0)
        direct = solve_special(special_coefficients(tree), x0=x0)
        assert max_solution_gap(tree, newton, direct) <= 1e-9

    def test_linear_oracle_cross_check(self):
        rng = np.random.default_rng(2)
        tree = random_tree(rng, 2, 2)
        coeffs = random_linear_coeffs(rng, tree, scale=0.4)
        x0 = 0.3
        verdict = linear_oracle(coeffs, x0)
        assert isinstance(verdict, UniqueSolution)
        newton, _ = solve_oracle(tree, as_nonlinear_problem(coeffs), x0)
        assert max_solution_gap(tree, newton, verdict.solution) <= 1e-8

    def test_multi_start_agreement(self):
        rng = np.random.default_rng(3)
        tree = random_tree(rng, 2, 3)
        problem = demo_monotone_problem(tree, 0.15)
        a, stats = solve_oracle(tree, problem, 1.0)
        # the flat start solves: one record, converged after its steps
        assert [r.converged for r in stats.records] == [True]
        assert stats.iterations > 0
        m = sum(tree.num_nodes(t) for t in range(1, 4))
        guess = np.full(m, 1.0) + rng.normal(scale=1.0, size=m)
        b, _ = solve_oracle(tree, problem, 1.0, initial_guess=guess)
        assert max_solution_gap(tree, a, b) <= 1e-9

    def test_an_initial_guess_of_the_wrong_length_is_a_shape_mismatch(self):
        tree = uniform_tree(2, 2)
        with pytest.raises(ShapeMismatch, match=r"shape \(5,\), expected \(6,\)"):
            solve_oracle(tree, linear_special_problem(), 0.0, initial_guess=np.zeros(5))

    def test_no_convergence_carries_best_iterate(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_NEWTON_STEPS", 0)
        tree = uniform_tree(2, 1)
        problem = demo_monotone_problem(tree, 0.1)
        with pytest.raises(NoConvergence) as info:
            solve_oracle(tree, problem, 1.0)
        assert info.value.best_iterate is not None
        assert info.value.best_residual > 0
        # one record a start, no step taken; one residual sweep at each start
        stats = info.value.stats
        assert [(r.alpha, r.norms, r.converged) for r in stats.records] == [(1.0, [], False)] * 3
        assert (stats.inner_solves, stats.halvings) == (3, 0)


def test_newton_stops_at_a_non_finite_residual():
    # a start whose residual is NaN ends at once, without a Jacobian
    widths = []

    def residual(columns):
        widths.append(columns.shape[1])
        return np.full((2, columns.shape[1]), np.nan)

    norms = []
    x, res = oracle._newton(residual, np.array([1.0, 2.0]), 1e-10, norms)
    assert widths == [1] and np.isnan(res) and norms == []
    np.testing.assert_array_equal(x, [1.0, 2.0])


def test_newton_stops_at_a_jacobian_outside_the_domain():
    # the start evaluates, the 2m points of its Jacobian do not: the run
    # ends at the start with its residual, no error raised
    def residual(columns):
        if columns.shape[1] > 1:
            raise ExpressionDomainError("log of a negative number", 0)
        return columns - 3.0

    norms = []
    x, res = oracle._newton(residual, np.array([1.0, 2.0]), 1e-10, norms)
    assert res == 2.0 and norms == []
    np.testing.assert_array_equal(x, [1.0, 2.0])


def test_jacobian_matches_directional_differences():
    rng = np.random.default_rng(4)

    def func(v):
        return np.array(
            [v[0] ** 2 + np.sin(v[1]), v[1] * v[2] - 1.0, np.tanh(v[0] - v[2])]
        )

    for _ in range(5):
        x = rng.normal(size=3)
        jac = finite_difference_jacobian(func, x)
        for _ in range(3):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            h = 1e-6
            numeric = (func(x + h * direction) - func(x - h * direction)) / (2 * h)
            np.testing.assert_allclose(jac @ direction, numeric, rtol=1e-5, atol=1e-7)


def looped_jacobian(func, x, base_step=1e-6):
    """The central differences column by column, one point a call, as
    ``finite_difference_jacobian`` computed them before it took a block."""
    f0 = np.asarray(func(x), dtype=float)
    jac = np.empty((f0.shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        h = base_step * (1.0 + abs(float(x[j])))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (np.asarray(func(xp)) - np.asarray(func(xm))) / (2.0 * h)
    return jac


@pytest.mark.parametrize("N, T", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
def test_the_batched_jacobian_is_the_looped_one_bit_for_bit(N, T):
    # the block's 2m paths put the levels of the bound callbacks on both
    # sides of expressions.ARRAY_FORM_MIN (all below it on N=2 T=2, all
    # above on N=3 T=4), while the loop's single paths stay below it
    rng = np.random.default_rng(10 * N + T)
    row = rng.uniform(0.2, 1.0, size=N)
    s, c = rng.uniform(0.05, 0.5, size=2)
    doc = {
        "kind": "nonlinear",
        "tree": {"N": N, "T": T, "transition": (row / row.sum()).tolist()},
        "x0": float(rng.uniform(0.5, 1.5)),
        "coefficients": {
            "b": f"-y + {s}*tanh(x) + {c}*w",
            "sigma": [f"-z{i} + {c}*sin(y)" for i in range(1, N)] + ["0"],
            "f": f"x + {s}*tanh(y) - {c}*z1*x",
            "f_terminal": f"x + {c}*y",
            "h": f"x + {s}*cos(x)",
        },
    }
    loaded = bind_problem(doc)
    residual = oracle._newton_residual(loaded.tree, loaded.data, loaded.x0, SolveStats())
    m = sum(N**t for t in range(1, T + 1))
    x = loaded.x0 + rng.normal(scale=0.5, size=m)
    x[int(rng.integers(m))] = -0.0
    batched = finite_difference_jacobian(residual, x)
    looped = looped_jacobian(lambda v: residual(v[:, None])[:, 0], x)
    assert batched.shape == looped.shape == (m, m)
    assert batched.tobytes() == looped.tobytes()


def test_the_jacobian_keeps_a_negative_zero_coordinate():
    # copysign reads the sign of a zero, which adding a zero step would flip
    x = np.array([-0.0, 1.0, 0.0])
    jac = finite_difference_jacobian(lambda v: np.copysign(1.0, v), x)
    assert jac.tobytes() == looped_jacobian(lambda v: np.copysign(1.0, v), x).tobytes()


def test_a_singular_jacobian_takes_the_least_squares_step(monkeypatch):
    # the diffusion z1 gives back X_1's own deviation, so only its mean is
    # fixed, E[X_1] = x0 - Y_0 = x0 - E[X_1]: the Jacobian has rank 1, and
    # the minimum-norm step from the flat start puts x0 / 2 on both branches
    doc = {"kind": "nonlinear", "tree": {"N": 2, "T": 1, "transition": "uniform"}, "x0": 1.0,
           "coefficients": {"b": "-y", "sigma": ["z1", "0"], "f": "0", "h": "x"}}
    loaded = bind_problem(doc)
    calls, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
    sol, _ = solve_oracle(loaded.tree, loaded.data, loaded.x0)
    assert calls == [1]
    np.testing.assert_allclose(sol.X.array, [1.0, 0.5, 0.5], atol=1e-9)
    assert max(sol.residuals.forward, sol.residuals.backward) <= 1e-10
