"""Backward equation solver: exact backward induction on the tree.

Each step takes a conditional expectation for the value process and reads
the martingale row off the centered child values, so the solve is exact up
to floating-point rounding.  Values may be K-dimensional, and each of the
K components comes out bit for bit as its own scalar solve; the Newton
oracle solves K frozen forward paths in one sweep this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GeneratorEvaluationError, ShapeMismatch
from .martingale import canonicalize, tilde_contract, worst_defects
from .tree import AdaptedProcess, ScenarioTree, _level, _process_array


@dataclass(frozen=True)
class BsdeProblem:
    """Terminal data and generator of a backward equation.

    ``terminal`` holds the leaf values, shape (N**T,) for scalar problems or
    (N**T, K).  ``generator(t, y, z_tilde)`` takes one whole level of nodes
    at a time, at times 1..T: ``y`` holds the depth-t values, shape (n,) or
    (n, K), and ``z_tilde`` the (N-1)-column contraction of each node's
    next-step row, shape (n, N-1) or (n, K, N-1), so the generator cannot
    tell equivalent rows apart; at the horizon it gets ``z_tilde=None``.
    It returns the level's values, shaped like ``y``; one value, or an
    array of ``y.ndim`` dimensions whose size-1 axes stretch to that shape
    (a (1, K) row), stands for every node, and any other shape is a
    ShapeMismatch.  ``generator=None`` means zero at every time.
    """

    terminal: np.ndarray
    generator: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(self, "terminal", np.asarray(self.terminal, dtype=float))


def _as_matrix(values):
    """View scalar-per-node values as a one-column matrix."""
    return values[:, None] if values.ndim == 1 else values


@np.errstate(over="ignore", invalid="ignore")  # overflow shows in the residual
def solve_bsde(tree: ScenarioTree, problem: BsdeProblem):
    """Solve the backward pair by one sweep from the leaves.

    Returns (Y, Z): Y on 0..T, Z on 0..T-1 with canonical rows (last column
    zero).  Y is unique outright; Z is the canonical representative of its
    equivalence class.
    """
    eta = problem.terminal
    scalar = eta.ndim == 1
    if eta.shape[0] != tree.num_nodes(tree.T):
        raise ShapeMismatch(
            f"terminal has {eta.shape[0]} values, expected {tree.num_nodes(tree.T)}"
        )
    if not np.isfinite(eta).all():
        raise GeneratorEvaluationError("terminal values are not finite")
    K = 1 if scalar else eta.shape[1]

    T, N = tree.T, tree.N
    Y, Z = np.empty((tree.offsets[T + 1], K)), np.empty((tree.offsets[T], K, N))
    y_levels, z_levels = tree.views(Y, range(T + 1)), tree.views(Z, range(T))
    y_levels[T][...] = _as_matrix(eta)
    for t in range(T - 1, -1, -1):
        y_next = y_levels[t + 1]
        xi = y_next + _generator_level(tree, problem, t + 1, y_next, z_levels, scalar)
        # each node's child values of each of the K components, branch last
        # and contiguous: einsum then sums the branches of every component
        # in the order of a scalar solve
        rows = np.ascontiguousarray(np.swapaxes(xi.reshape(-1, N, K), 1, 2))
        y_levels[t][...] = np.einsum("ni,nki->nk", tree.transition[t], rows)
        # Z rows are the child values of xi; canonical form subtracts the
        # last entry.
        z_levels[t][...] = canonicalize(rows)
    if scalar:
        Y, Z = Y[:, 0], Z[:, 0, :]
    return AdaptedProcess.from_array(tree, 0, Y), AdaptedProcess.from_array(tree, 0, Z)


def _generator_level(tree, problem, t, y_level, z_levels, scalar):
    """Generator values at every depth-t node, as an (N**t, K) array; the
    horizon has no next-step row to contract."""
    if problem.generator is None:
        return np.zeros(y_level.shape)
    part = (slice(None), 0) if scalar else ...  # a scalar problem's calls drop the K axis
    y, zt = y_level[part], None if t == tree.T else tilde_contract(z_levels[t])[part]
    out = _level(problem.generator(t, y, zt), y.shape, f"generator at t={t}").reshape(y_level.shape)
    if not np.isfinite(out).all():
        node = int(np.argmin(np.isfinite(out).all(axis=1)))
        raise GeneratorEvaluationError(f"generator at (t={t}, node={node}) is not finite")
    return out


@np.errstate(over="ignore", invalid="ignore")  # a non-finite defect is the result
def bsde_residual(tree: ScenarioTree, problem: BsdeProblem, Y, Z):
    """Max per-branch defect of the backward equation over all nodes.

    For each non-leaf node and branch i this is
    |Y_{t+1} - Y_t + f(t+1, .) - Z_t (e_i - P_t)|, and at each leaf the
    terminal row |Y_T - eta|, maximized over entries by ``worst_defects``.
    The generator levels are evaluated from T down to 1, which decides the
    first error raised.
    """
    T = tree.T
    y = _as_matrix(_process_array(tree, Y, range(T + 1), "Y"))
    z_raw = _process_array(tree, Z, range(T), "Z")
    scalar = np.asarray(problem.terminal).ndim == 1
    K = y.shape[1]
    z = z_raw[:, None, :] if z_raw.ndim == 2 else z_raw
    if z.shape[1:] != (K, tree.N):
        raise ShapeMismatch(f"Z level 0 has shape {(1,) + z_raw.shape[1:]}")
    y_levels, z_levels = tree.views(y, range(T + 1)), tree.views(z, range(T))
    f = np.empty((len(y) - 1, K))
    f_levels = (None, *tree.views(f, range(1, T + 1)))
    for t in range(T, 0, -1):
        f_levels[t][...] = _generator_level(tree, problem, t, y_levels[t], z_levels, scalar)
    return worst_defects(tree, None, y, z, None, None, f,
                         y_levels[T] - _as_matrix(problem.terminal))[1]
