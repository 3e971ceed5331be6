"""Backward equation solver: exact backward induction on the tree.

Each step takes a conditional expectation for the value process and reads
the martingale row off the centered child values, so the solve is exact up
to floating-point rounding.  Values may be K-dimensional; the downstream
forward-backward solvers use K = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GeneratorEvaluationError, ShapeMismatch
from .martingale import canonicalize, tilde_contract, worst_defects
from .tree import AdaptedProcess, ScenarioTree, _process_levels

#: Residual guarantee for solver output, checked by the residual evaluator.
RESIDUAL_TOL = 1e-11


@dataclass(frozen=True)
class BsdeProblem:
    """Terminal data and generator of a backward equation.

    ``terminal`` holds the leaf values, shape (N**T,) for scalar problems or
    (N**T, K).  The generators take one whole level of nodes at a time.
    ``generator(t, y, z_tilde)`` is evaluated at interior times 1..T-1 on
    the depth-t values ``y``, shape (n,) or (n, K), and ``z_tilde``, the
    (N-1)-column contraction of each node's next-step row, shape (n, N-1)
    or (n, K, N-1), so the generator cannot tell equivalent rows apart.
    ``terminal_generator(y)`` is the time-T term over the leaves and takes
    no row argument.  Each returns the level's values, shaped like ``y``,
    or one value for every node.  Either may be None, meaning zero.
    """

    terminal: np.ndarray
    generator: Optional[Callable] = None
    terminal_generator: Optional[Callable] = None

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

    y_levels = [None] * (tree.T + 1)
    z_levels = [None] * tree.T
    y_levels[tree.T] = _as_matrix(eta).copy()

    for t in range(tree.T - 1, -1, -1):
        n = tree.num_nodes(t)
        y_next = y_levels[t + 1]
        xi = y_next + _generator_level(tree, problem, t + 1, y_next, z_levels, scalar, K)
        grouped = xi.reshape(n, tree.N, K)
        y_levels[t] = np.einsum("ni,nik->nk", tree.transition[t], grouped)
        # Z columns are the child values of xi; canonical form subtracts the
        # last column.
        z_levels[t] = canonicalize(np.swapaxes(grouped, 1, 2))

    if scalar:
        y_out = [lev[:, 0] for lev in y_levels]
        z_out = [lev[:, 0, :] for lev in z_levels]
    else:
        y_out, z_out = y_levels, z_levels
    return (
        AdaptedProcess(tree, 0, y_out),
        AdaptedProcess(tree, 0, z_out),
    )


def _generator_level(tree, problem, t, y_level, z_levels, scalar, K):
    """Generator values at every depth-t node, as an (N**t, K) array."""
    n = tree.num_nodes(t)
    y = y_level[:, 0] if scalar else y_level
    fn = problem.terminal_generator if t == tree.T else problem.generator
    if fn is None:
        return np.zeros((n, K))
    if t == tree.T:
        value = fn(y)
    else:
        zt = tilde_contract(z_levels[t])
        value = fn(t, y, zt[:, 0, :] if scalar else zt)
    out = np.asarray(value, dtype=float)
    if out.ndim == 0:
        out = np.full((n, K), out)
    elif scalar and out.shape == (n,):
        out = out[:, None]
    if out.shape != (n, K):
        raise ShapeMismatch(
            f"generator at t={t} returned shape {out.shape}, expected {y.shape}"
        )
    if not np.isfinite(out).all():
        node = int(np.argmin(np.isfinite(out).all(axis=1)))
        raise GeneratorEvaluationError(f"generator at (t={t}, node={node}) is not finite")
    return out


@np.errstate(over="ignore", invalid="ignore")  # a non-finite defect is the result
def bsde_residual(tree: ScenarioTree, problem: BsdeProblem, Y, Z):
    """Max per-branch defect of the backward equation over all nodes.

    For each non-leaf node and branch i this is
    |Y_{t+1} - Y_t + f(t+1, .) - Z_t (e_i - P_t)|, maximized over entries
    by ``worst_defects``.  The generator levels are evaluated from T down
    to 1, which decides the first error raised.
    """
    y_levels = [_as_matrix(lev) for lev in _process_levels(tree, Y, range(tree.T + 1), "Y")]
    z_raw = _process_levels(tree, Z, range(tree.T), "Z")
    scalar = np.asarray(problem.terminal).ndim == 1
    K = y_levels[-1].shape[1]
    z_levels = []
    for t, z in enumerate(z_raw):
        z = z[:, None, :] if z.ndim == 2 else z
        if z.shape != (tree.num_nodes(t), K, tree.N):
            raise ShapeMismatch(f"Z level {t} has shape {z_raw[t].shape}")
        z_levels.append(z)

    f = [None] * (tree.T + 1)
    for t in range(tree.T, 0, -1):
        f[t] = _generator_level(tree, problem, t, y_levels[t], z_levels, scalar, K)
    return worst_defects(tree, None, y_levels, z_levels, None, None, f)[1]
