"""Martingale-difference calculus on a scenario tree.

The centered one-step increments e_i - P carry all the randomness of the
driving process; a row Z acts on them by dot product.  Rows differing by a
constant shift act identically on every increment, so the canonical form
zeros the last entry and the N-1 entry differences Z_j - Z_N are the free
coordinates; this module is the one place that maps between a row, its
canonical form and its free coordinates.  ``forward_defect`` and
``backward_defect`` state the two equations branch by branch for any set
of nodes, and ``worst_defects`` reduces them over a whole solution at
once, in the tree's level order: every reported residual comes from it.
All functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchOutOfRange, ShapeMismatch

#: Absolute tolerance for row-equivalence checks; values at problem scale are
#: O(1..100), leaving ample double-precision headroom.
EQUIV_TOL = 1e-12


@dataclass(frozen=True)
class NormConstants:
    """Global sandwich constants relating E[(ZM)^2] to E[|Z Itilde|^2]."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 < self.lower <= self.upper:
            raise ValueError(f"need 0 < lower <= upper, got {self.lower}, {self.upper}")


def increments(tree, node):
    """Conditional law of the next increment at a node.

    Returns N pairs (probability, e_i - P); the probability-weighted sum of
    the vectors is zero.
    """
    row = tree.row(node)
    eye = np.eye(tree.N)
    return [(float(row[i]), eye[i] - row) for i in range(tree.N)]


def second_moments(rows):
    """Conditional second moments diag(P) - P P^T of the next increment at
    nodes with the (n, N) transition rows ``rows``, shape (n, N, N).

    Each is symmetric positive-semidefinite with zero row and column sums.
    """
    p = rows[:, :, None]
    return p * np.eye(rows.shape[1]) - p * rows[:, None, :]


def cond_second_moment(tree, node):
    """``second_moments`` at one node."""
    return second_moments(tree.row(node)[None])[0]


def branch_value(tree, node, values, branch):
    """Value of a next-step quantity on one branch (the extraction operator).

    Equals E[xi 1{next state = branch}] / P^branch, which on a tree is just
    the child value; computing it as a lookup avoids dividing by tiny
    probabilities.  ``branch`` is 1-based.
    """
    tree.row(node)
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] != tree.N:
        raise ShapeMismatch(f"expected {tree.N} child values, got {vals.shape[0]}")
    if not 1 <= branch <= tree.N:
        raise BranchOutOfRange(f"branch {branch} outside 1..{tree.N}")
    return vals[branch - 1]


def represent(tree, node, values):
    """Row Z with Z (e_i - P) = values[i] - cond_exp(values) on every branch.

    ``values`` are the child values of a next-step quantity, shape (N,) for
    scalars or (N, K) for vectors; the row comes back as (N,) or (K, N).
    The output is not canonicalized.
    """
    tree.row(node)
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] != tree.N:
        raise ShapeMismatch(f"expected {tree.N} child values, got {vals.shape[0]}")
    if vals.ndim == 1:
        return vals.copy()
    return vals.T.copy()


def canonicalize(z):
    """Shift a row (last axis) so its last entry is zero.

    The output acts identically on every increment and is the unique such
    row with a zero last entry; idempotent.
    """
    z = np.asarray(z, dtype=float)
    return z - z[..., -1:]


def tilde_contract(z):
    """Free coordinates of a row: entry j is Z_j - Z_N (last axis)."""
    z = np.asarray(z, dtype=float)
    return z[..., :-1] - z[..., -1:]


def _canonical_rows(z_tilde):
    """The canonical rows (z_tilde, 0) whose free coordinates are ``z_tilde``
    (last axis): the inverse of ``tilde_contract`` on canonical rows."""
    return np.concatenate([z_tilde, np.zeros(z_tilde.shape[:-1] + (1,))], axis=-1)


def equivalent(z1, z2, tol=EQUIV_TOL):
    """Whether two rows act identically on every increment.

    True iff their contractions agree within ``tol``.
    """
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if z1.shape != z2.shape:
        raise ShapeMismatch(f"row shapes differ: {z1.shape} vs {z2.shape}")
    return bool(np.max(np.abs(tilde_contract(z1) - tilde_contract(z2)), initial=0.0) <= tol)


def norm_constants(tree):
    """Sandwich constants over all nodes and times of the tree.

    upper = (N-1) * max over nodes of max_{k<N} (1-P^k) P^k;
    lower = (1/2) (N-1)^{-1} * min over nodes and k of P^k.
    For every row process, lower * E[|Z Itilde|^2] <= E[(Z M)^2]
    <= upper * E[|Z Itilde|^2].
    """
    head = tree.rows[:, : tree.N - 1]
    up = float(((1.0 - head) * head).max())
    low = float(tree.rows.min())
    return NormConstants(lower=0.5 * low / (tree.N - 1), upper=(tree.N - 1) * up)


def zm_products(tree, node, z):
    """Dot products of a row with each increment e_i - P, shape (..., N)."""
    row = tree.row(node)
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != tree.N:
        raise ShapeMismatch(f"row length {z.shape[-1]} != {tree.N}")
    eye = np.eye(tree.N)
    return np.einsum("...j,ij->...i", z, eye - row[None, :])


def _increment_products(z, rows):
    """Products Z (e_i - P) of each node's row with each of its increments.

    ``z`` holds one row per node, (n, N), or K rows per node, (n, K, N);
    ``rows`` are the nodes' transition rows.  Returns (n, N) or (n, N, K),
    branch i on axis 1.
    """
    if z.ndim == 2:
        return z - np.einsum("nj,nj->n", z, rows)[:, None]
    return np.swapaxes(z - np.einsum("nkj,nj->nk", z, rows)[:, :, None], 1, 2)


def forward_defect(x_next, x, b, sigma, rows):
    """Per-branch defect X_{t+1} - X_t - b_t - sigma_t (e_i - P_t) of n nodes.

    ``rows`` are the (n, N) transition rows.  Scalar values: ``x``, ``b``
    (n,), ``sigma`` the (n, N) diffusion rows and ``x_next`` the (n*N,)
    child values, node-major; returns (n, N), branch i in column i.
    K-valued: ``x``, ``b`` (n, K), ``sigma`` (n, K, N), ``x_next``
    (n*N, K); returns (n, N, K).
    """
    zm = _increment_products(sigma, rows)
    return x_next.reshape(zm.shape) - x[:, None] - b[:, None] - zm


def backward_defect(y_next, y, f_next, z, rows):
    """Per-branch defect Y_{t+1} - Y_t + f_{t+1} - Z_t (e_i - P_t) of n nodes.

    Scalar values: ``y`` (n,), ``y_next``/``f_next`` (n*N,) child values,
    ``z`` (n, N); returns (n, N).  K-valued: ``y`` (n, K), ``y_next``/
    ``f_next`` (n*N, K), ``z`` (n, K, N); returns (n, N, K).
    """
    zm = _increment_products(z, rows)
    return y_next.reshape(zm.shape) - y[:, None] + f_next.reshape(zm.shape) - zm


def worst_defects(tree, X, Y, Z, b, sigma, f, terminal):
    """Largest absolute per-branch defect of each equation: (forward, backward).

    Every argument is one level-order array over the whole tree: ``X``,
    ``Y`` on all nodes, ``Z``, ``b``, ``sigma`` on the m non-leaf nodes and
    ``f`` the generator on the nodes of times 1..T.  Node k's children are
    rows 1 + k*N.., so each equation is one ``forward_defect`` or
    ``backward_defect`` call over all m nodes.  ``terminal``, a defect per
    leaf, is the backward equation's t = T row.  A backward-only system
    passes ``X=None`` and gets a forward value of 0.0; ``max`` and
    ``np.maximum`` keep a NaN defect.
    """
    m = tree.offsets[tree.T]
    fwd = 0.0 if X is None else np.abs(forward_defect(X[1:], X[:m], b, sigma, tree.rows)).max()
    bwd = np.maximum(np.abs(backward_defect(Y[1:], Y[:m], f, Z, tree.rows)).max(),
                     np.abs(terminal).max())
    return float(fwd), float(bwd)
