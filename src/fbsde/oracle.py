"""Brute-force reference solvers used to cross-validate everything else.

The linear oracle assembles every branch equation of the coupled system
once, as the nonzero triplets (row, column, value) of one square matrix
over all node unknowns, in the tree's level order (X at depths 1..T, Y
at 0..T, then the N-1 contraction entries of Z on each non-leaf node),
and classifies it by rank, so its verdict is independent of the
recursive solver.  The Gram matrix of the nonzeros scaled to at most 1
(so finite) is factored twice by Cholesky, leaves first over the tree,
one family at a time: shifted down by a small multiple of the Gershgorin
bound on its largest eigenvalue, the factorization certifies full rank,
and unshifted, it solves the certified system by the corrected
semi-normal equations with one refinement step, so that path holds no
n x n array but the Gram matrix.  Only a matrix it cannot certify is
scattered dense, goes through a rank-revealing least-squares solve and,
at full rank, a dense LU solve.  The nonlinear oracle eliminates the
backward pair (given X everywhere, Y and Z follow from one exact
backward sweep) and drives the remaining square system with a damped
Newton method and finite-difference Jacobian, whose 2m shifted points go
through one sweep as 2m columns of level-order arrays and one whole-tree
``forward_defect`` call.
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

#: Most unknowns of the linear oracle, whose Gram matrix, and dense matrix
#: when it falls back, grow with their square: a certified 2913 (N=3, T=6)
#: took 0.026-0.043 s and 99.4 MB peak RSS (the process's) on one BLAS
#: thread of a shared 2-core x86_64 host, against 0.51-0.57 s and 177 MB
#: with a dense LU solve; the uncertified fallback is still dense.
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
    """(rows, cols, vals, rhs): the nonzeros of the square matrix of all
    forward, backward and terminal equations, row-major (``np.flatnonzero``'s
    order), and its dense right-hand side.

    The columns are ``_columns``'s; node k's N forward rows, then its N
    backward rows, start at row 2Nk, and the terminal rows come last.  Z
    enters through its canonical representative (contraction extended by
    a zero), which the validated zero-sum conditions make exact.  Each
    entry is one term of one equation; exact zeros are dropped.
    """
    tree, c = coeffs.tree, coeffs.arrays
    N, n, m, size = tree.N, tree.offsets[-1], tree.offsets[-2], _size(tree)
    entries = []
    rhs = np.zeros(size)
    k = np.arange(m)[:, None]
    fwd = 2 * N * k + np.arange(N)  # (m, N): node k's row of branch i
    bwd = fwd + N
    child = 1 + N * k + np.arange(N)
    x, y, z = _columns(tree)
    incr = np.eye(N) - tree.rows[:, None, :]  # (m, N, N): branch i's e_i - P

    def dot(rows):  # each node's row times each of its increments, (m, N)
        return np.einsum("nl,nil->ni", rows, incr)

    def put(rows, cols, vals):
        entries.append([a.ravel() for a in np.broadcast_arrays(rows, cols, vals)])

    # X_{t+1}(child) - X_t - forward drift/increment terms = 0
    put(fwd, x[child], 1.0)
    x_coef = -(1.0 + c["A"][:, None]) - dot(c["A_bar"])
    rhs[fwd[0]] -= x_coef[0] * x0
    put(fwd[1:], x[k[1:]], x_coef[1:])
    put(fwd, y[k], -c["B"][:, None] - dot(c["B_bar"]))
    zw = -(c["C"][:, None, :] + np.einsum("njl,nil->nij", c["C_bar"], incr))
    put(fwd[..., None], z[k], zw[..., : N - 1])
    rhs[fwd] += c["D"][:, None] + dot(c["D_bar"])

    # Y_{t+1}(child) - Y_t - backward drift terms - Z_t M = 0
    put(bwd, y[child], 1.0 - c["B_hat"][child - 1])
    put(bwd, y[k], -1.0)
    put(bwd, x[child], -c["A_hat"][child - 1])
    q = tree.offsets[-3]  # nodes above depth T - 1, whose children carry Z
    put(bwd[:q, :, None], z[child[:q]], -c["C_hat"][child[:q] - 1, : N - 1])
    put(bwd[..., None], z[k], -incr[..., : N - 1])
    rhs[bwd] += c["D_hat"][child - 1]

    # Y_T - G X_T = g on leaf node m + l, row 2Nm + l
    leaf = 2 * N * m + np.arange(n - m)
    put(leaf, y[m:], 1.0)
    put(leaf, x[m:], -c["G"])
    rhs[leaf] = c["g"]
    rows, cols, vals = (np.concatenate(a) for a in zip(*entries))
    keep = np.flatnonzero(vals != 0.0)
    keep = keep[np.argsort(rows[keep] * size + cols[keep])]  # each (row, col) once
    return rows[keep], cols[keep], vals[keep], rhs


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


def _factor(tree, gram, shift):
    """The Cholesky factor L of gram - shift I, taken leaves first over the tree.

    Node k's rows touch only the unknowns of k and of its children, so the
    Gram matrix couples a node only with its parent, siblings and children,
    and factors leaves first without fill, a symmetric permutation: each
    family (the N children of a node), depth by depth, by one batched
    ``np.linalg.cholesky`` of a copy of its block less the Schur
    complements of its members' children; the root last, a family alone.
    ``gram`` is only read.  Returns one (own, fam, low, w) a depth, leaves
    first: the columns of each node (nodes, c) and of each family
    (families, b), the families' factors (families, b, b), and their
    coupling to their parents' columns, L_fam^-1 G[fam, parent]
    (families, b, c of the parent), None at the root.  Raises
    ``np.linalg.LinAlgError`` at a block that is not positive definite.
    """
    x, y, z = _columns(tree)
    owns = []
    for t in range(tree.T + 1):
        at = slice(tree.offsets[t], tree.offsets[t + 1])  # a row for each depth-t node
        owns.append(np.hstack(([x[at, None]] if t else []) + [y[at, None]]  # no X at the root,
                              + ([z[at]] if t < tree.T else [])))  # no Z on the leaves
    levels, w = [], None
    for t in range(tree.T, -1, -1):
        own = owns[t]
        fam = own.reshape(max(len(own) // tree.N, 1), -1)
        block = gram[fam[:, :, None], fam[:, None, :]]
        d = np.arange(fam.shape[1])
        block[:, d, d] -= shift
        if w is not None:  # the Schur complements of depth t + 1, each on its node's own block
            c = own.shape[1]
            d = d.reshape(-1, c)  # each member's columns in its family's block
            block[:, d[:, :, None], d[:, None, :]] -= (w.transpose(0, 2, 1) @ w).reshape(
                len(fam), -1, c, c)
        low = np.linalg.cholesky(block)
        w = np.linalg.solve(low, gram[fam[:, :, None], owns[t - 1][:, None, :]]) if t else None
        levels.append((own, fam, low, w))
    return levels


def _full_rank(tree, gram):
    """Whether the finite square matrix A of ``tree``'s system, given by its
    Gram matrix, is certified to have full rank: S = A^T A - SINGULAR_RATIO
    U I, U the largest absolute row sum of A^T A (a Gershgorin bound on
    lambda_max), has a Cholesky factorization (``_factor``), so lambda_min >
    SINGULAR_RATIO U.

    The rounding, about n eps U, is far below the shift, so a matrix that
    passes has sigma_min / sigma_max > 1e-5: full rank by the SVD rule too.
    ``gram`` is finite, from A's nonzeros scaled to at most 1 (batched
    ``np.linalg.cholesky`` lets a NaN through).
    """
    bound = max(np.abs(gram[j : j + 64]).sum(axis=1).max() for j in range(0, len(gram), 64))
    try:
        _factor(tree, gram, SINGULAR_RATIO * bound)
    except np.linalg.LinAlgError:
        return False
    return True


def _solve_factored(levels, v):
    """(L L^T)^-1 v for ``_factor``'s levels: through L leaves first, each
    family's part less its children's coupling terms, then through L^T root
    first, each family's part less its parent's."""
    v, half, below = v.copy(), [], None
    for own, fam, low, w in levels:
        if below is not None:
            v[own] -= np.einsum("nbc,nb->nc", below, half[-1])
        half.append(np.linalg.solve(low, v[fam][..., None])[..., 0])
        below = w
    out, parent = np.empty_like(v), None
    for (own, fam, low, w), part in zip(reversed(levels), reversed(half)):
        if w is not None:
            part = part - (w @ out[parent][..., None])[..., 0]
        out[fam] = np.linalg.solve(low.transpose(0, 2, 1), part[..., None])[..., 0]
        parent = own
    return out


def _seminormal(levels, rows, cols, vals, rhs):
    """The solution of A x = rhs, A of these nonzeros and ``levels`` the
    factor of its Gram matrix, by the corrected semi-normal equations:
    L L^T x = A^T rhs, refined once by the residual of the sparse A
    (Bjorck 1987)."""
    size = len(rhs)

    def transposed(v):  # A^T v
        return np.bincount(cols, weights=vals * v[rows], minlength=size)

    vec = _solve_factored(levels, transposed(rhs))
    residual = rhs - np.bincount(rows, weights=vals * vec[cols], minlength=size)
    return vec + _solve_factored(levels, transposed(residual))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite solution shows in its residuals
def linear_oracle(coeffs: LinearCoefficients, x0: float):
    """Classify the coupled linear system on ``coeffs.tree`` by the rank of
    its global matrix.

    The matrix is assembled once, as its nonzeros, and two steps decide its
    rank.  The Gram matrix of the nonzeros scaled to at most 1 (so finite)
    is factored leaves first over the tree (``_factor``) twice.  Shifted
    down by SINGULAR_RATIO times its Gershgorin bound on lambda_max, a
    factorization certifies full rank (``_full_rank``); then the unshifted
    factor solves the system by the corrected semi-normal equations, one
    refinement by the sparse residual (``_seminormal``), and no n x n array
    but the Gram matrix is held.  Any other matrix is scattered dense,
    under MAX_DENSE_UNKNOWNS, and goes through one ``np.linalg.lstsq``,
    whose singular values give the rank (those above SINGULAR_RATIO times
    the largest) and whose vector gives the consistency gap; a full rank
    is then solved by ``np.linalg.solve``.  Returns UniqueSolution (with
    the solved triple), NoSolution, or InfinitelyMany; raises
    NonFiniteSolve when the assembled matrix or right-hand side has a
    non-finite entry: no rank decides such a system.
    """
    if not np.isfinite(x0):
        raise NonFiniteInput(f"x0 = {x0!r}")
    tree = coeffs.tree
    size = _size(tree)
    if size > MAX_DENSE_UNKNOWNS:
        raise ProblemTooLarge(f"{size} unknowns exceed the dense oracle's limit of "
                              f"{MAX_DENSE_UNKNOWNS}")
    rows, cols, vals, rhs = _assemble(coeffs, x0)
    if not (np.isfinite(vals).all() and np.isfinite(rhs).all()):
        raise NonFiniteSolve("the dense oracle's system overflowed to a non-finite entry "
                             "in its assembly")
    top = np.abs(vals).max()
    scaled = vals / top
    gram = _gram(size, rows, cols, scaled)
    if _full_rank(tree, gram):
        vec = _seminormal(_factor(tree, gram, 0.0), rows, cols, scaled, rhs / top)
        return UniqueSolution(_solution_from_vector(coeffs, x0, vec), size, size)
    del gram  # the fallback's dense matrix and its least-squares copy take its place
    mat = np.zeros((size, size))
    mat[rows, cols] = vals
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
