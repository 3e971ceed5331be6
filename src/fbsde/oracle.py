"""Brute-force reference solvers used to cross-validate everything else.

The linear oracle assembles every branch equation of the coupled system
into one dense matrix over all node unknowns and classifies it by rank, so
its verdict is independent of the recursive solver.  The nonlinear oracle
eliminates the backward pair (given X everywhere, Y and Z follow from one
exact backward sweep) and drives the remaining square system with a damped
Newton method and finite-difference Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import BsdeProblem, solve_bsde
from .errors import NoConvergence, NonFiniteInput, ProblemTooLarge, ShapeMismatch
from .linear import FbsdeSolution, LinearCoefficients, _check_tree, linear_residuals
from .martingale import forward_defect, tilde_contract
from .nonlinear import _finish, _forward_levels, _Iterate, _level, _nodes
from .tree import AdaptedProcess, ScenarioTree

#: Rank decisions use the same scale-free singular-value threshold as the
#: per-node certificate, keeping iff-comparisons apples-to-apples.
RANK_RATIO = 1e-10

#: Inconsistency threshold for classifying rank-deficient systems.
CONSISTENCY_TOL = 1e-8

#: Most unknowns of the dense linear oracle, whose matrix, copy and SVD grow
#: with their square: 2913 (N=3, T=6) took 8.5 s and 235 MB on one BLAS
#: thread of a 2-core x86_64 host; N=2, T=13 (40956) needs 13 GB a copy.
MAX_DENSE_UNKNOWNS = 3000

#: Most forward unknowns of the Newton oracle, whose Jacobian costs two
#: residual sweeps per unknown: 510 (N=2, T=8) took 17 s on that host.
MAX_NEWTON_UNKNOWNS = 512

#: Newton steps per start, halvings per line search, random starts after the flat one.
MAX_NEWTON_STEPS = 60
MAX_BACKTRACKS = 30
EXTRA_STARTS = 2


@dataclass(frozen=True)
class UniqueSolution:
    solution: FbsdeSolution
    rank: int
    size: int


@dataclass(frozen=True)
class NoSolution:
    rank: int
    size: int
    inconsistency: float


@dataclass(frozen=True)
class InfinitelyMany:
    rank: int
    size: int
    nullity: int


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


def _assemble(tree, coeffs, x0):
    """Dense (matrix, rhs) for all forward, backward and terminal equations.

    Z enters through its canonical representative (contraction extended by a
    zero), which the validated zero-sum conditions make exact.
    """
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

    return np.array(rows), np.array(rhs), ix


def _solution_from_vector(tree, coeffs, x0, vec, ix):
    N, T = tree.N, tree.T
    X = [np.array([float(x0)])]
    for t in range(1, T + 1):
        X.append(vec[ix.x_off[t] : ix.x_off[t] + N**t].copy())
    Y = [vec[ix.y_off[t] : ix.y_off[t] + N**t].copy() for t in range(T + 1)]
    Z = []
    for t in range(T):
        zt = vec[ix.z_off[t] : ix.z_off[t] + (N**t) * (N - 1)].reshape(N**t, N - 1)
        Z.append(np.concatenate([zt, np.zeros((N**t, 1))], axis=1))
    report = linear_residuals(tree, coeffs, X, Y, Z)
    return FbsdeSolution(
        AdaptedProcess(tree, 0, X),
        AdaptedProcess(tree, 0, Y),
        AdaptedProcess(tree, 0, Z),
        report,
    )


@np.errstate(over="ignore", invalid="ignore")  # a non-finite solution shows in its residuals
def linear_oracle(tree: ScenarioTree, coeffs: LinearCoefficients, x0: float):
    """Classify the coupled linear system by the rank of its global matrix.

    Returns UniqueSolution (with the solved triple), NoSolution, or
    InfinitelyMany.
    """
    _check_tree(tree, coeffs)
    if not np.isfinite(x0):
        raise NonFiniteInput(f"x0 = {x0!r}")
    size = _Index(tree).size
    if size > MAX_DENSE_UNKNOWNS:
        raise ProblemTooLarge(f"{size} unknowns exceed the dense oracle's limit of "
                              f"{MAX_DENSE_UNKNOWNS}")
    mat, rhs, ix = _assemble(tree, coeffs, x0)
    svals = np.linalg.svd(mat, compute_uv=False)
    smax = svals[0] if len(svals) else 0.0
    rank = int(np.sum(svals > RANK_RATIO * smax)) if smax > 0.0 else 0
    if rank == size:
        vec = np.linalg.solve(mat, rhs)
        return UniqueSolution(_solution_from_vector(tree, coeffs, x0, vec, ix), rank, size)
    vec, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    gap = float(np.abs(mat @ vec - rhs).max())
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    if gap > CONSISTENCY_TOL * scale:
        return NoSolution(rank, size, gap)
    return InfinitelyMany(rank, size, size - rank)


def _x_levels(tree, flat, x0):
    X = [np.array([float(x0)])]
    off = 0
    for t in range(1, tree.T + 1):
        n = tree.num_nodes(t)
        X.append(flat[off : off + n].copy())
        off += n
    return X


def backward_given_forward(tree, problem, X_levels):
    """Exact backward pair for a frozen forward path, via the backward solver.

    The problem's generator, at ``X_levels``, is the backward generator of
    each level; at the horizon its ``z_tilde`` is None.
    """
    T = tree.T

    def gen(t, y, zt):
        return problem.generator(t, _nodes(len(y)), X_levels[t], y, zt)

    x = X_levels[T]
    eta = _level(problem.terminal(_nodes(len(x)), x), x.shape, "terminal")
    bp = BsdeProblem(terminal=eta, generator=gen if T > 1 else None,
                     terminal_generator=lambda y: gen(T, y, None))
    Y, Z = solve_bsde(tree, bp)
    return [Y.level(t) for t in range(T + 1)], [Z.level(t) for t in range(T)]


def _forward_residual_vector(tree, problem, X_levels, Y_levels, Z_levels):
    """Forward defects of every branch, flat: node-major, branch-minor per level."""
    zt = [tilde_contract(z) for z in Z_levels]
    b, sigma = _forward_levels(tree, problem, X_levels, Y_levels, zt)
    return np.concatenate([
        forward_defect(X_levels[t + 1], X_levels[t], b[t], sigma[t], tree.transition[t]).ravel()
        for t in range(tree.T)
    ])


def solve_oracle(tree, problem, x0, tolerance=1e-10, seed=0, initial_guess=None):
    """Ground-truth nonlinear solve: damped Newton on the forward unknowns.

    ``problem`` is a NonlinearProblem; Y and Z are recomputed exactly from
    each X trial, so the only unknowns are the X values at depths 1..T.
    Tries the flat start X = x0 and randomized perturbations drawn from
    ``seed``; raises NoConvergence with the best iterate if none reaches
    ``tolerance``.
    """
    if not np.isfinite(x0):
        raise NonFiniteInput(f"x0 = {x0!r}")
    m = sum(tree.num_nodes(t) for t in range(1, tree.T + 1))
    if m > MAX_NEWTON_UNKNOWNS:
        raise ProblemTooLarge(f"{m} unknowns exceed the Newton oracle's limit of "
                              f"{MAX_NEWTON_UNKNOWNS}")

    def residual(flat):
        X = _x_levels(tree, flat, x0)
        Y, Z = backward_given_forward(tree, problem, X)
        return _forward_residual_vector(tree, problem, X, Y, Z)

    rng = np.random.default_rng(seed)
    starts = []
    if initial_guess is not None:
        guess = np.asarray(initial_guess, dtype=float)
        if guess.shape != (m,):
            raise ShapeMismatch(f"initial guess has shape {guess.shape}, expected ({m},)")
        starts.append(guess)
    starts.append(np.full(m, float(x0)))
    for _ in range(EXTRA_STARTS):
        starts.append(np.full(m, float(x0)) + rng.normal(scale=0.5, size=m))

    best_res = np.inf
    best_x = None
    for start in starts:
        x, res = _newton(residual, start, tolerance)
        if res <= tolerance:
            X = _x_levels(tree, x, x0)
            Y, Z = backward_given_forward(tree, problem, X)
            return _finish(tree, problem, _Iterate(X, Y, Z))
        if res < best_res:
            best_res, best_x = res, x
    raise NoConvergence(
        f"no start reached tolerance {tolerance:g}; best residual {best_res:.3e}",
        best_residual=float(best_res),
        best_iterate=best_x,
    )


def _newton(residual, x0_vec, tolerance):
    x = x0_vec.astype(float).copy()
    f = residual(x)
    fnorm = float(np.abs(f).max())
    for _ in range(MAX_NEWTON_STEPS):
        if not np.isfinite(fnorm):
            break
        if fnorm <= tolerance:
            return x, fnorm
        jac = finite_difference_jacobian(residual, x)
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        lam = 1.0
        improved = False
        for _ in range(MAX_BACKTRACKS + 1):
            trial = x + lam * step
            ft = residual(trial)
            ftnorm = float(np.abs(ft).max())
            if np.isfinite(ftnorm) and ftnorm < fnorm:
                x, f, fnorm = trial, ft, ftnorm
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    return x, fnorm


def finite_difference_jacobian(func, x, base_step=1e-6):
    """Central-difference Jacobian with per-coordinate steps scaled by |x|."""
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
