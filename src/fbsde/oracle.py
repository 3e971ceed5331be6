"""Brute-force reference solvers used to cross-validate everything else.

The linear oracle assembles every branch equation of the coupled system
into one dense matrix over all node unknowns, in the tree's level order
(X at depths 1..T, Y at 0..T, then the N-1 contraction entries of Z on
each non-leaf node), once, and classifies it by rank, so its verdict is
independent of the recursive solver: a Cholesky factorization of the
Gram matrix of its nonzeros scaled to at most 1 (so finite), shifted
down by a small multiple of the Gershgorin bound on its largest
eigenvalue and taken leaves first over the tree, certifies full rank,
and only a matrix it cannot certify goes through a rank-revealing
least-squares solve; the same matrix is then solved.  The nonlinear
oracle eliminates the backward pair (given X everywhere, Y and Z follow
from one exact backward sweep) and drives the remaining square system
with a damped Newton method and finite-difference Jacobian, whose 2m
shifted points go through one sweep as 2m columns of level-order arrays
and one whole-tree ``forward_defect`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import BsdeProblem, solve_bsde
from .errors import (ExpressionDomainError, NoConvergence, NonFiniteInput, NonFiniteSolve,
                     ProblemTooLarge, ShapeMismatch)
from .linear import SINGULAR_RATIO, FbsdeSolution, LinearCoefficients, linear_residuals
from .martingale import _canonical_rows, forward_defect, tilde_contract
from .nonlinear import ContinuationOptions, LevelRecord, SolveStats, _finish, _Iterate
from .tree import AdaptedProcess, _level

#: Inconsistency threshold for classifying rank-deficient systems.
CONSISTENCY_TOL = 1e-8

#: Most unknowns of the dense linear oracle, whose matrix and Gram matrix
#: grow with their square: 2913 (N=3, T=6) took 0.52-0.57 s and 172.6 MB peak
#: RSS (the process's) on one BLAS thread of a shared 2-core x86_64 host.
MAX_DENSE_UNKNOWNS = 3000

#: Most forward unknowns of the Newton oracle, whose Jacobian is one
#: residual sweep over two paths per unknown: 510 (N=2, T=8) took 0.75 s
#: and 78 MB peak RSS (the process's, imports included) on that host.
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


def _size(tree):
    """Unknowns of the dense system: 2n - 1 for X and Y, N - 1 a non-leaf node for Z."""
    return 2 * tree.offsets[-1] - 1 + tree.offsets[-2] * (tree.N - 1)


def _columns(tree):
    """Level-order node k's columns: X k - 1 (none at the root) and Y n - 1 + k,
    (n,) each, and Z 2n - 1 + k (N - 1) + j on the m non-leaf nodes, (m, N - 1)."""
    n, m = tree.offsets[-1], tree.offsets[-2]
    k = np.arange(n)
    return k - 1, n - 1 + k, 2 * n - 1 + k[:m, None] * (tree.N - 1) + np.arange(tree.N - 1)


def _assemble(coeffs, x0):
    """Dense (matrix, rhs) for all forward, backward and terminal equations.

    The columns are ``_columns``'s; node k's N forward rows, then its N
    backward rows, start at row 2Nk, and the terminal rows come last.  Z
    enters through its canonical representative (contraction extended by
    a zero), which the validated zero-sum conditions make exact.
    """
    tree, c = coeffs.tree, coeffs.arrays
    N, n, m, size = tree.N, tree.offsets[-1], tree.offsets[-2], _size(tree)
    mat = np.zeros((size, size))
    rhs = np.zeros(size)
    k = np.arange(m)[:, None]
    fwd = 2 * N * k + np.arange(N)  # (m, N): node k's row of branch i
    bwd = fwd + N
    child = 1 + N * k + np.arange(N)
    x, y, z = _columns(tree)
    incr = np.eye(N) - tree.rows[:, None, :]  # (m, N, N): branch i's e_i - P

    def dot(rows):  # each node's row times each of its increments, (m, N)
        return np.einsum("nl,nil->ni", rows, incr)

    # X_{t+1}(child) - X_t - forward drift/increment terms = 0
    mat[fwd, x[child]] += 1.0
    x_coef = -(1.0 + c["A"][:, None]) - dot(c["A_bar"])
    rhs[fwd[0]] -= x_coef[0] * x0
    mat[fwd[1:], x[k[1:]]] += x_coef[1:]
    mat[fwd, y[k]] += -c["B"][:, None] - dot(c["B_bar"])
    zw = -(c["C"][:, None, :] + np.einsum("njl,nil->nij", c["C_bar"], incr))
    mat[fwd[..., None], z[k]] += zw[..., : N - 1]
    rhs[fwd] += c["D"][:, None] + dot(c["D_bar"])

    # Y_{t+1}(child) - Y_t - backward drift terms - Z_t M = 0
    mat[bwd, y[child]] += 1.0 - c["B_hat"][child - 1]
    mat[bwd, y[k]] += -1.0
    mat[bwd, x[child]] += -c["A_hat"][child - 1]
    q = tree.offsets[-3]  # nodes above depth T - 1, whose children carry Z
    mat[bwd[:q, :, None], z[child[:q]]] += -c["C_hat"][child[:q] - 1, : N - 1]
    mat[bwd[..., None], z[k]] += -incr[..., : N - 1]
    rhs[bwd] += c["D_hat"][child - 1]

    # Y_T - G X_T = g on leaf node m + l, row 2Nm + l
    leaf = np.arange(n - m)
    mat[2 * N * m + leaf, y[m + leaf]] = 1.0
    mat[2 * N * m + leaf, x[m + leaf]] = -c["G"]
    rhs[2 * N * m + leaf] = c["g"]
    return mat, rhs


def _solution_from_vector(coeffs, x0, vec):
    """The triple in ``vec``: X with x0 in front, Y, and Z's canonical rows."""
    x, y, z = _columns(coeffs.tree)
    X, Y, Z = (AdaptedProcess.from_array(coeffs.tree, 0, v) for v in
               (np.concatenate([[float(x0)], vec[x[1:]]]), vec[y], _canonical_rows(vec[z])))
    return FbsdeSolution(X, Y, Z, linear_residuals(coeffs, X, Y, Z))


def _gram(size, rows, cols, vals):
    """A^T A of the size x size matrix A with these nonzeros (row-major, as
    ``np.flatnonzero`` gives them): one ``np.bincount`` over the products of
    every pair of entries that share a row."""
    count = np.bincount(rows, minlength=size)  # entries per row
    start = np.cumsum(count) - count  # each row's first entry
    reps = count[rows]  # each entry pairs with every entry of its row, itself included
    left = np.repeat(np.arange(len(rows)), reps)
    # pair k of entry i (k = 0, 1, ...) is (i, the k-th entry of i's row)
    right = np.arange(len(left)) + np.repeat(start[rows] - (np.cumsum(reps) - reps), reps)
    flat = np.bincount(cols[left] * size + cols[right], weights=vals[left] * vals[right],
                       minlength=size * size)
    return flat.reshape(size, size)


def _full_rank(tree, mat):
    """Whether the finite square matrix A of ``tree``'s system is certified
    to have full rank: S = A^T A - SINGULAR_RATIO U I, U the largest
    absolute row sum of A^T A (a Gershgorin bound on lambda_max), has a
    Cholesky factorization, so lambda_min > SINGULAR_RATIO U.

    Node k's rows touch only the unknowns of k and of its children, so S
    couples a node only with its parent, siblings and children, and is
    factored leaves first without fill, a symmetric permutation: each
    family (the N children of a node), depth by depth, by one batched
    ``np.linalg.cholesky``, its Schur complement taken from its parent's
    block; the root last.  The rounding, about n eps U, is far below the
    shift, so a matrix that passes has sigma_min / sigma_max > 1e-5: full
    rank by the SVD rule too.  S is finite, from A's nonzeros scaled to at
    most 1 (batched ``np.linalg.cholesky`` lets a NaN through).
    """
    size = len(mat)
    rows, cols = np.divmod(np.concatenate([j * size + np.flatnonzero(mat[j : j + 64] != 0.0)
                                           for j in range(0, size, 64)]), size)  # no n x n mask
    vals = mat[rows, cols]
    gram = _gram(size, rows, cols, vals / np.abs(vals).max())
    bound = max(np.abs(gram[j : j + 64]).sum(axis=1).max() for j in range(0, size, 64))
    gram[np.diag_indices(size)] -= SINGULAR_RATIO * bound
    x, y, z = _columns(tree)
    try:
        for t in range(tree.T, -1, -1):
            at = slice(tree.offsets[t], tree.offsets[t + 1])  # a row for each depth-t node
            own = np.hstack(([x[at, None]] if t else []) + [y[at, None]]  # no X at the root,
                            + ([z[at]] if t < tree.T else []))  # no Z on the leaves
            if t < tree.T:  # the Schur complements of depth t + 1
                w = np.linalg.solve(low, gram[fam[:, :, None], own[:, None, :]])
                gram[own[:, :, None], own[:, None, :]] -= w.transpose(0, 2, 1) @ w
            fam = own.reshape(max(len(own) // tree.N, 1), -1)  # the root is a family alone
            low = np.linalg.cholesky(gram[fam[:, :, None], fam[:, None, :]])
    except np.linalg.LinAlgError:
        return False
    return True


@np.errstate(over="ignore", invalid="ignore")  # a non-finite solution shows in its residuals
def linear_oracle(coeffs: LinearCoefficients, x0: float):
    """Classify the coupled linear system on ``coeffs.tree`` by the rank of
    its global matrix.

    The matrix is assembled once, and two steps decide its rank.  A
    Cholesky factorization of the Gram matrix of its nonzeros scaled to at
    most 1 (so finite), shifted down by SINGULAR_RATIO times its Gershgorin
    bound on lambda_max and taken leaves first over the tree, certifies
    full rank (see ``_full_rank``), and the system is solved by
    ``np.linalg.solve``.  Any other matrix goes through one
    ``np.linalg.lstsq``, whose singular values give the rank (those above
    SINGULAR_RATIO times the largest) and whose vector gives the
    consistency gap; a full rank is then solved as above.  Returns
    UniqueSolution (with the solved triple), NoSolution, or InfinitelyMany;
    raises NonFiniteSolve when the assembled matrix or right-hand side has
    a non-finite entry: no rank decides such a system.
    """
    if not np.isfinite(x0):
        raise NonFiniteInput(f"x0 = {x0!r}")
    tree = coeffs.tree
    size = _size(tree)
    if size > MAX_DENSE_UNKNOWNS:
        raise ProblemTooLarge(f"{size} unknowns exceed the dense oracle's limit of "
                              f"{MAX_DENSE_UNKNOWNS}")
    mat, rhs = _assemble(coeffs, x0)
    if not (np.isfinite(mat).all() and np.isfinite(rhs).all()):
        raise NonFiniteSolve("the dense oracle's system overflowed to a non-finite entry "
                             "in its assembly")
    if not _full_rank(tree, mat):
        vec, _, _, svals = np.linalg.lstsq(mat, rhs, rcond=None)
        # the certificate's scale-free threshold, so both verdicts rank alike
        rank = int(np.sum(svals > SINGULAR_RATIO * svals[0])) if svals[0] > 0.0 else 0
        if rank < size:
            gap = float(np.abs(mat @ vec - rhs).max())
            scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
            if gap > CONSISTENCY_TOL * scale:
                return NoSolution(rank, size, gap)
            return InfinitelyMany(rank, size, size - rank)
    vec = np.linalg.solve(mat, rhs)
    return UniqueSolution(_solution_from_vector(coeffs, x0, vec), size, size)


def _on_paths(fn, name, t, cell, x, y=None, zt=None):
    """One call of a ``NonlinearProblem`` coefficient on a level of K paths.

    ``x`` and ``y`` are (n, K), ``zt`` is (n, K, N-1) or None; each node
    index is repeated K times, in the order of the raveled level.  Returns
    the values shaped (n, K) + ``cell``.
    """
    n, K = x.shape
    args = [np.repeat(np.arange(n), K), x.ravel()]
    if y is not None:
        args += [y.ravel(), None if zt is None else zt.reshape(n * K, -1)]
    value = fn(*args) if t is None else fn(t, *args)
    return _level(value, (n * K,) + cell, name).reshape((n, K) + cell)


def backward_given_forward(tree, problem, X):
    """Exact backward pairs for K frozen forward paths, by one K-valued
    backward solve.

    ``X`` is the (n, K) level-order array of the paths; the problem's
    generator, at X, is the backward problem's generator on times 1..T,
    which share its contract: ``z_tilde`` is None at the horizon.  Returns
    Y, (n, K), and Z on the m non-leaf nodes, (m, K, N), column k of each
    the solve of path k alone.
    """
    T = tree.T
    X_levels = tree.views(X, range(T + 1))

    def gen(t, y, zt):
        return _on_paths(problem.generator, "generator", t, (), X_levels[t], y, zt)

    eta = _on_paths(problem.terminal, "terminal", None, (), X_levels[T])
    Y, Z = solve_bsde(tree, BsdeProblem(terminal=eta, generator=gen))
    return Y.array, Z.array


def _forward_residual_vector(tree, problem, X, Y, Z):
    """Forward defects of every branch of K paths, (rows, K): node-major,
    branch-minor in level order.

    The arrays are shaped as ``backward_given_forward`` takes and returns
    them; drift is called on every level before diffusion.
    """
    T, N, m = tree.T, tree.N, tree.offsets[tree.T]
    levels = [tree.views(v, range(T)) for v in (X, Y, tilde_contract(Z))]
    b = [_on_paths(problem.drift, "drift", t, (), *lev) for t, lev in enumerate(zip(*levels))]
    sigma = [_on_paths(problem.diffusion, "diffusion", t, (N,), *lev)
             for t, lev in enumerate(zip(*levels))]
    fwd = forward_defect(X[1:], X[:m], np.concatenate(b), np.concatenate(sigma), tree.rows)
    return fwd.reshape(-1, X.shape[1])


def _newton_residual(tree, problem, x0, stats):
    """The Newton oracle's function: the forward defects, (rows, K), of the
    K points in the columns of an (n - 1, K) array of forward values at
    depths 1..T, with Y and Z solved exactly for each.  Each call, one
    sweep, counts as an inner solve of ``stats``."""

    def residual(flat):
        stats.inner_solves += 1
        X = np.concatenate([np.full((1, flat.shape[1]), float(x0)), flat])
        return _forward_residual_vector(tree, problem, X, *backward_given_forward(tree, problem, X))

    return residual


def solve_oracle(tree, problem, x0, opts=None, initial_guess=None):
    """Ground-truth nonlinear solve: damped Newton on the forward unknowns.

    ``problem`` is a NonlinearProblem; Y and Z are recomputed exactly from
    each X trial, so the only unknowns are the X values at depths 1..T.
    Tries the flat start X = x0 and randomized perturbations drawn from
    ``opts.seed``, and returns (solution, stats) from the first start to
    reach ``opts.tolerance`` (the only ContinuationOptions it reads).  The
    stats hold one level-1.0 record per start tried, the residual norms
    after its steps, and count each residual sweep.  Raises NoConvergence
    with the best iterate and the stats if no start reaches it, or the
    first start's ExpressionDomainError if no start can be evaluated.
    """
    if not np.isfinite(x0):
        raise NonFiniteInput(f"x0 = {x0!r}")
    m = sum(tree.num_nodes(t) for t in range(1, tree.T + 1))
    if m > MAX_NEWTON_UNKNOWNS:
        raise ProblemTooLarge(f"{m} unknowns exceed the Newton oracle's limit of "
                              f"{MAX_NEWTON_UNKNOWNS}")

    opts = opts or ContinuationOptions()
    stats = SolveStats()
    residual = _newton_residual(tree, problem, x0, stats)
    rng = np.random.default_rng(opts.seed)
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
    best_x = fault = None
    for start in starts:
        stats.records.append(LevelRecord(alpha=1.0, norms=[], converged=False))
        try:
            x, res = _newton(residual, start, opts.tolerance, stats.records[-1].norms)
        except ExpressionDomainError as err:
            fault = fault or err
            continue
        if res <= opts.tolerance:
            X = np.concatenate([[float(x0)], x])[:, None]
            Y, Z = backward_given_forward(tree, problem, X)
            stats.records[-1].converged = True
            return _finish(tree, problem, _Iterate(X[:, 0], Y[:, 0], Z[:, 0])), stats
        if res < best_res:
            best_res, best_x = res, x
    if best_x is None and fault is not None:  # the coefficient fails, not the search
        raise fault
    raise NoConvergence(
        f"no start reached tolerance {opts.tolerance:g}; best residual {best_res:.3e}",
        best_residual=None if best_x is None else float(best_res),
        best_iterate=best_x,
        stats=stats,
    )


def _evaluate(residual, x):
    """(residual, max norm) at the point ``x``."""
    f = residual(x[:, None])[:, 0]
    return f, float(np.abs(f).max())


def _newton(residual, x0_vec, tolerance, norms):
    """Damped Newton from ``x0_vec`` on ``residual``, which maps columns to
    columns: a single point is one column; ``norms`` gets the residual norm
    after each step.  A start outside a coefficient's domain raises its
    ExpressionDomainError; a trial point outside it halves the step, and a
    Jacobian outside it or a trial equal to x ends the run at the last point."""
    x = x0_vec.astype(float).copy()
    f, fnorm = _evaluate(residual, x)
    for _ in range(MAX_NEWTON_STEPS):
        if not np.isfinite(fnorm):
            break
        if fnorm <= tolerance:
            return x, fnorm
        try:
            jac = finite_difference_jacobian(residual, x)
        except ExpressionDomainError:
            break
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        lam = 1.0
        improved = False
        for _ in range(MAX_BACKTRACKS + 1):
            trial = x + lam * step
            if trial.tobytes() == x.tobytes():  # every shorter step rounds to x too
                break
            try:
                ft, ftnorm = _evaluate(residual, trial)
            except ExpressionDomainError:  # a failed trial
                ftnorm = np.inf
            if np.isfinite(ftnorm) and ftnorm < fnorm:
                x, f, fnorm = trial, ft, ftnorm
                norms.append(fnorm)
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    return x, fnorm


def finite_difference_jacobian(func, x, base_step=1e-6):
    """Central-difference Jacobian with per-coordinate steps scaled by |x|.

    ``func`` maps the columns of an (m, K) array to the columns of an
    (r, K) array and is called once, on K = 2m points: column j is x with
    coordinate j raised by h_j = ``base_step`` (1 + |x_j|), column m + j
    the same coordinate lowered.  Only those coordinates are changed, so
    every other entry, a -0.0 included, is x's own.
    """
    m = x.shape[0]
    h = base_step * (1.0 + np.abs(x))
    block = np.repeat(x[:, None], 2 * m, axis=1)
    j = np.arange(m)
    block[j, j] = x + h
    block[j, m + j] = x - h
    f = np.asarray(func(block), dtype=float)
    return (f[:, :m] - f[:, m:]) / (2.0 * h)
