"""Shared generators and independent oracles for the test suite."""

import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np

from fbsde import LinearCoefficients, ScenarioTree, build_tree
from fbsde.linear import _FIELDS


@functools.cache
def bench_workloads():
    """``bench/workloads.py`` as a module, without writing bytecode next to it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # dataclasses look their module up here
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = saved
    return workloads


def random_tree(rng, N, T, low=0.1):
    """Random tree with per-node rows bounded away from zero."""
    levels = []
    for t in range(T):
        raw = rng.uniform(low, 1.0, size=(N**t, N))
        levels.append(raw / raw.sum(axis=1, keepdims=True))
    return ScenarioTree(N, T, np.concatenate(levels))


def path_probability(tree, t, index):
    """Unconditional probability of a node by multiplying along its path.

    Independent of the tree's cached level probabilities.
    """
    prob = 1.0
    digits = []
    i = index
    for _ in range(t):
        digits.append(i % tree.N)
        i //= tree.N
    digits.reverse()
    node = 0
    for depth, d in enumerate(digits):
        prob *= tree.transition[depth][node][d]
        node = node * tree.N + d
    return prob


def subtree_expectation(tree, leaf_values, t, index):
    """Expectation of leaf values over the subtree of a node, by raw paths."""
    total = 0.0
    width = tree.N ** (tree.T - t)
    for offset in range(width):
        leaf = index * width + offset
        prob = 1.0
        # walk down from the node, reading branch digits of the offset
        digits = []
        o = offset
        for _ in range(tree.T - t):
            digits.append(o % tree.N)
            o //= tree.N
        digits.reverse()
        node = index
        for depth, d in enumerate(digits):
            prob *= tree.transition[t + depth][node][d]
            node = node * tree.N + d
        total += prob * leaf_values[leaf]
    return total


def centered_rows(rng, n, N, scale=0.5):
    """Rows with zero sum, entries within [-2*scale, 2*scale]."""
    raw = rng.uniform(-scale, scale, size=(n, N))
    return raw - raw.mean(axis=1, keepdims=True)


def random_linear_coeffs(rng, tree, scale=1.0, couple=True):
    """Random coefficient set respecting the structural zero-sum conditions."""
    T, N = tree.T, tree.N

    def scalars(times):
        return [rng.uniform(-scale, scale, size=tree.num_nodes(t)) for t in times]

    def rows(times):
        return [rng.uniform(-scale, scale, size=(tree.num_nodes(t), N)) for t in times]

    def zero_sum_cols(times):
        return [centered_rows(rng, tree.num_nodes(t), N, scale / 2) for t in times]

    def zero_sum_mats(times):
        out = []
        for t in times:
            m = rng.uniform(-scale / 2, scale / 2, size=(tree.num_nodes(t), N, N))
            m -= m.mean(axis=1, keepdims=True)  # columns of each matrix sum to zero
            out.append(m)
        return out

    fwd = range(T)
    bwd = range(1, T + 1)
    c_hat = zero_sum_cols(bwd)
    c_hat[-1][:] = 0.0
    kwargs = dict(
        A=scalars(fwd),
        D=scalars(fwd),
        A_bar=rows(fwd),
        D_bar=rows(fwd),
        A_hat=scalars(bwd),
        B_hat=scalars(bwd),
        D_hat=scalars(bwd),
        G=rng.uniform(-scale, scale, size=tree.num_nodes(T)),
        g=rng.uniform(-scale, scale, size=tree.num_nodes(T)),
    )
    if couple:
        kwargs.update(
            B=scalars(fwd),
            B_bar=rows(fwd),
            C=zero_sum_cols(fwd),
            C_bar=zero_sum_mats(fwd),
            C_hat=c_hat,
        )
    return LinearCoefficients(tree, **kwargs)


def replace_fields(coeffs, **fields):
    """A new coefficient set with ``coeffs``'s levels except ``fields``
    (a coefficient set is read-only, so changing one means rebuilding it)."""
    kwargs = {}
    for name in _FIELDS:
        levels = getattr(coeffs, name)
        kwargs[name] = levels[1:] if name.endswith("_hat") else levels
    return LinearCoefficients(coeffs.tree, **(kwargs | fields))


def uniform_tree(N, T):
    return build_tree(N, T, "uniform")


#: A nonlinear file on the uniform binary tree of depth 3 whose drift y and
#: generator -x violate the interior and the time-0 monotonicity clauses,
#: while the horizon generator x and the terminal map x satisfy theirs.
INCREASING_DOC = {
    "kind": "nonlinear", "tree": {"N": 2, "T": 3, "transition": "uniform"}, "x0": 1.0,
    "coefficients": {"b": "y", "sigma": ["-z1", "0"], "f": "-x", "f_terminal": "x", "h": "x"},
}
