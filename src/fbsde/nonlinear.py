"""Nonlinear forward-backward solver by homotopy continuation.

The target system is connected to an exactly solvable self-coupled linear
form through a one-parameter family of blends.  Climbing the parameter in
small steps, each level is solved by Picard iteration: the step-sized part
of the nonlinearity is frozen at the previous iterate and folded into the
inhomogeneities of the level below.  The theory guarantees some step size
works but not which, so the step adapts: on a failed level the ladder is
rebuilt with half the step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from . import linear
from .errors import (
    AlphaOutOfRange,
    InvalidOption,
    NoContraction,
    NonFiniteInput,
    NonFiniteSolve,
    StepUnderflow,
    _shown,
)
from .linear import FbsdeSolution, ResidualReport
from .martingale import _canonical_rows, second_moments, tilde_contract, worst_defects
from .tree import AdaptedProcess, _level, _process_array

#: A level aborts early once increments blow past this multiple of their
#: starting size; the remaining budget cannot recover from there.
DIVERGENCE_CAP = 1e3

#: Ladders deeper than this are refused; the recursion, one frame a level,
#: must stay within the interpreter's limits.  A 512-level ladder is in
#: reach: the ``monotone-family`` demo at ``--delta 2**-9`` solves in 519
#: base solves, but its level iterations grow with the square of the depth
#: (134910, about 9 s on a shared 2-core x86_64 host).  A power of two, so
#: ``delta * MAX_LEVELS < 1`` tests the step exactly.
MAX_LEVELS = 512

#: Step halvings before a solve gives up: each halving doubles the ladder,
#: so from the default step the last attempt has 64 levels.
MAX_HALVINGS = 4

#: Base solves per ladder attempt.  Ladders that solve take 17-40 on the
#: benchmark's files, 519 at 512 levels and 2417 on a drift of -y + 12*x at
#: step 0.25 (N=2 T=2), whose levels contract slowly; ladders that do not
#: contract stop here, after about 2-12 s an attempt at 16-256 levels.
MAX_INNER_SOLVES = 5000

#: Forcing term of the inexact inner solves: a level asks the one below for
#: ``ETA`` times the norm of its own last increment (1 before its first),
#: never for less than its own tolerance.  ``ETA = 0.1`` loses the
#: top level's contraction on a ``max_iterations = 10`` solve; smaller
#: values only add inner solves.
ETA = 1e-2

#: The nonlinear solve modes: the continuation ladder, or flat Picard.
MODES = ("continuation", "picard")


@dataclass(frozen=True)
class NonlinearProblem:
    """Coefficient functions of the coupled nonlinear system, one level a call.

    ``drift(t, nodes, x, y, z_tilde)`` and ``generator(t, nodes, x, y,
    z_tilde)`` return one value per node, ``diffusion(t, nodes, x, y,
    z_tilde)`` an (n, N) array of rows, ``terminal(nodes, x)`` one value per
    leaf.  A single value or a (1, N) row stands for every node; one value
    per node where rows are due is a ShapeMismatch.  ``nodes`` holds n depth-t
    node indices (repeats allowed), ``x`` and ``y`` their values and
    ``z_tilde`` their (n, N-1) row contractions, never raw rows, so
    equivalent rows are indistinguishable by construction; at the horizon
    the generator gets ``z_tilde=None``.
    """

    drift: Callable
    diffusion: Callable
    generator: Callable
    terminal: Callable


@dataclass(frozen=True)
class ContinuationOptions:
    """The solver values a problem file or a command-line flag can set.

    The initial step replaces the nonconstructive step-size constant; the
    tolerance and the Picard budget of one call of a level complete it.
    ``mode`` picks the nonlinear solver (one of ``MODES``) and ``seed`` the
    sampling seed of the assumption check and of the Newton oracle's random
    starts.  The one home of their defaults and range checks; every other
    budget is a module constant.
    """

    delta: float = 0.25
    tolerance: float = 1e-10
    max_iterations: int = 50
    mode: str = "continuation"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise InvalidOption(f"delta must lie in (0, 1], got {self.delta}", "delta")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise InvalidOption(f"tolerance must be finite and positive, got {self.tolerance}",
                                "tolerance")
        if self.max_iterations < 1:
            raise InvalidOption(f"max_iterations must be at least 1, got {self.max_iterations}",
                                "max_iterations")
        if self.mode not in MODES:
            raise InvalidOption(f"mode must be one of {', '.join(MODES)}, got {_shown(self.mode)}",
                                "mode")
        if self.seed < 0:  # numpy draws from no other
            raise InvalidOption(f"seed must be non-negative, got {self.seed}", "seed")


@dataclass
class LevelRecord:
    """One Picard run at one level: its increment norms and outcome."""

    alpha: float
    norms: list
    converged: bool


@dataclass
class SolveStats:
    """Per-level iteration records plus global counters, the stats every
    iterative solver returns or stops with.

    Records and counters cover every ladder attempt of a solve, failed ones
    before a halving included (the ``MAX_INNER_SOLVES`` cap applies to each
    attempt alone); the Newton oracle's cover every start it tried.  A
    continuation level gets one record per call, so a level called by every
    iteration of the one above has many.  ``inner_solves`` counts base
    solves, one per iteration of the lowest level; the levels above ask it
    only for the accuracy they can use (see ``_Ladder``).
    """

    records: list = field(default_factory=list)
    halvings: int = 0
    inner_solves: int = 0

    @property
    def iterations(self):
        return sum(len(r.norms) for r in self.records)

    @property
    def levels(self):
        return sorted({round(r.alpha, 12) for r in self.records})


@dataclass
class Inhomogeneity:
    """Per-node additive terms entering each equation of a level solve, as
    level-order arrays: ``b0`` (m,) and ``sigma0`` (m, N) on the m non-leaf
    nodes, ``f0`` on the nodes of times 1..T, where it enters, ``h0`` on
    the leaves.
    """

    b0: np.ndarray
    sigma0: np.ndarray
    f0: np.ndarray
    h0: np.ndarray

    @classmethod
    def zeros(cls, tree):
        m, leaves = tree.offsets[tree.T], tree.num_nodes(tree.T)
        return cls(np.zeros(m), np.zeros((m, tree.N)), np.zeros(m + leaves - 1), np.zeros(leaves))


def blend(problem: NonlinearProblem, alpha: float) -> NonlinearProblem:
    """Interpolate between the self-coupled linear form (0) and the problem (1).

    At alpha = 0 the coefficients become those of
    ``linear_special_problem``: drift -y, diffusion the row whose
    contraction is -z_tilde with last column zero, generator x, terminal x.
    alpha = 1 returns the problem unchanged.
    """
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha = {alpha!r}")
    if alpha == 1.0:
        return problem
    a, base = float(alpha), linear_special_problem()

    def mixed(target, lin):
        return lambda *args: a * np.asarray(target(*args), dtype=float) + (1.0 - a) * lin(*args)

    return NonlinearProblem(*(mixed(getattr(problem, c.name), getattr(base, c.name))
                              for c in fields(NonlinearProblem)))


@dataclass
class _Iterate:
    """Solution triple as level-order arrays over the whole tree: X and Y
    on every node, Z (canonical rows) on the non-leaf nodes.

    ``levels`` is ``(problem, (b, sigma, f, h))`` for the last problem
    evaluated here, so that compose and the level check evaluate the target
    once per iterate; ``zt``, the row contractions of Z, is computed on
    first use.
    """

    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    levels: Optional[tuple] = field(default=None, repr=False, compare=False)

    @classmethod
    def zeros(cls, tree):
        size, m = tree.offsets[tree.T + 1], tree.offsets[tree.T]
        return cls(X=np.zeros(size), Y=np.zeros(size), Z=np.zeros((m, tree.N)))

    @functools.cached_property
    def zt(self):
        return tilde_contract(self.Z)

    def coefficient_levels(self, tree, problem):
        """``_coefficient_levels`` of ``problem`` here, evaluated on first use."""
        if self.levels is None or self.levels[0] is not problem:
            self.levels = (problem, _coefficient_levels(tree, problem, self.X, self.Y, self.zt))
        return self.levels[1]


def _as_iterate(tree, value):
    """An iterate from None, an iterate, a solution (its arrays, not
    copied), or (X, Y, Z) processes or level lists, checked level by level."""
    if value is None or isinstance(value, _Iterate):
        return value
    X, Y, Z = (value.X, value.Y, value.Z) if isinstance(value, FbsdeSolution) else value
    return _Iterate(
        X=_process_array(tree, X, range(tree.T + 1), "X", ()),
        Y=_process_array(tree, Y, range(tree.T + 1), "Y", ()),
        Z=_process_array(tree, Z, range(tree.T), "Z", (tree.N,)),
    )


def increment_norm(tree, prev: _Iterate, cur: _Iterate) -> float:
    """The norm (E sum_t (|x| + |y| + |z_tilde|)^2)^(1/2) of the difference
    over times 0..T-1.

    The squares are taken over the whole tree at once; each level's
    expectation is its own dot product, summed from t = 0 up.  When they
    overflow, both iterates are divided by the power of two at or below the
    largest difference, which is exact, and measured again, so the norm is
    finite whenever it is representable; NaN or infinite differences give
    NaN or inf.  The solvers call it with overflow warnings off, so the
    first, overflowing measure warns nothing.
    """
    m = tree.offsets[tree.T]
    dx = np.abs(cur.X[:m] - prev.X[:m])
    dy = np.abs(cur.Y[:m] - prev.Y[:m])
    dz = np.linalg.norm(cur.zt - prev.zt, axis=-1)
    levels = tree.views((dx + dy + dz) ** 2, range(tree.T))
    norm = math.sqrt(sum(float(np.dot(tree.level_probs(t), lev)) for t, lev in enumerate(levels)))
    if norm != math.inf:  # finite, or NaN from a NaN difference
        return norm
    big = max(dx.max(), dy.max(), np.abs(cur.zt - prev.zt).max())
    if big == math.inf:
        return norm
    scale = math.ldexp(1.0, math.frexp(big)[1] - 1)
    return scale * increment_norm(tree, _Iterate(prev.X / scale, prev.Y / scale, prev.Z / scale),
                                  _Iterate(cur.X / scale, cur.Y / scale, cur.Z / scale))


#: The node indices 0..n-1 of a whole level, built once per size, read-only.
_nodes = functools.cache(lambda n: np.broadcast_to(np.arange(n), (n,)))


def _coefficient_levels(tree, problem, X, Y, zt):
    """Drift and diffusion on 0..T-1, then generator on 1..T, then the
    terminal map on the leaves, at an iterate of level-order arrays (Z by
    its row contractions), one call per level in that order (which decides
    the first error raised); at the horizon the generator's ``z_tilde`` is
    None.  Returns level-order (b, sigma, f, h): b and sigma on the non-leaf
    nodes, f on the nodes of times 1..T, h on the leaves.
    """
    T, m = tree.T, tree.offsets[tree.T]
    X, Y = tree.views(X, range(T + 1)), tree.views(Y, range(T + 1))
    zt = tree.views(zt, range(T)) + (None,)
    b, sigma, f = np.empty(m), np.empty((m, tree.N)), np.empty(len(X[T]) + m - 1)
    for out, fn, name, times in ((b, problem.drift, "drift", range(T)),
                                 (sigma, problem.diffusion, "diffusion", range(T)),
                                 (f, problem.generator, "generator", range(1, T + 1))):
        for t, lev in zip(times, tree.views(out, times)):
            lev[...] = _level(fn(t, _nodes(len(lev)), X[t], Y[t], zt[t]), lev.shape, name)
    return b, sigma, f, _level(problem.terminal(_nodes(len(X[T])), X[T]), X[T].shape, "terminal")


def _compose(tree, problem, inhom, prev: _Iterate, step):
    """Fold the step-sized nonlinearity, frozen at ``prev``, into new inhomogeneities."""
    b, sigma, f, h = prev.coefficient_levels(tree, problem)
    m = tree.offsets[tree.T]
    return Inhomogeneity(b0=inhom.b0 + step * (prev.Y[:m] + b),
                         sigma0=inhom.sigma0 + step * (prev.Z + sigma),
                         f0=inhom.f0 + step * (-prev.X[1:] + f),
                         h0=inhom.h0 + step * (h - prev.X[m:]))


class _Ladder:
    """Level solvers from the linear base up to the target, sharing stats.

    Each level's solve closes over the one below it; within a level, solves
    warm-start from that level's previous result (the first call starts from
    the ladder's ``initial`` iterate at the top level, from its one zero
    iterate below).  The solves below the top are inexact: a level asks the
    one below for ``max(tol, ETA * r)``, r the norm of its own last
    increment (1 before its first) and tol its own tolerance, so an inner
    error stays a fixed fraction of the outer increment and the outer
    contraction holds (the forcing terms of inexact Newton methods).  Only
    the top level solves to ``opts.tolerance``, so a result is judged as
    strictly as with exact inner solves.  ``opts.max_iterations`` bounds the
    Picard iterations of one call of a level; a level is called once per
    iteration of the level above, so its iterations over a solve are bounded
    only by the inner-solve budget, ``MAX_INNER_SOLVES`` per ladder.  Every
    base solve goes through ``base``, the homogeneous
    ``special_coefficients(tree)`` whose tree the ladder runs on and whose
    slope pass is memoized; a solve that retries with smaller steps passes
    the same ``base`` to each ladder, so the slopes are computed once per
    solve.  The base solve is the one place that guarantees finite
    iterates: a non-finite one raises, and every level returns what the
    level below returned.  Every stop is a NoContraction carrying the
    shared stats.
    """

    def __init__(self, problem, base, n_levels, x0, opts, initial, stats=None):
        self.tree = base.tree
        self.problem = problem
        self.base = base
        self.n_levels = n_levels
        self.step = 1.0 / n_levels
        self.x0 = x0
        self.opts = opts
        self.stats = SolveStats() if stats is None else stats
        self._solves_before = self.stats.inner_solves  # by earlier attempts
        self._zero = _Iterate.zeros(self.tree)
        self._warm = {} if initial is None else {n_levels: initial}

    def solve(self, k, inhom, tol):
        """Level k's solution with ``inhom`` folded in, to ``tol``; level 0
        is the exact base solve."""
        if k == 0:
            if self.stats.inner_solves - self._solves_before >= MAX_INNER_SOLVES:
                raise NoContraction(
                    f"ladder exhausted its {MAX_INNER_SOLVES} inner-solve budget",
                    alpha=0.0,
                    stats=self.stats,
                )
            self.stats.inner_solves += 1
            try:
                sol = linear.solve_special(self.base, D=inhom.b0, D_bar=inhom.sigma0,
                                           D_hat=-inhom.f0, g=inhom.h0, x0=self.x0)
            except NonFiniteSolve as err:  # halves the step like any stop
                raise NoContraction(f"non-finite base solve: {err}", stats=self.stats) from err
            return _Iterate(sol.X.array, sol.Y.array, sol.Z.array)

        alpha = k / self.n_levels
        prev = self._warm.get(k, self._zero)
        norms = []
        record = LevelRecord(alpha=alpha, norms=norms, converged=False)
        self.stats.records.append(record)
        r, cap = 1.0, None  # the last increment's norm; the first one sets the cap
        for _ in range(self.opts.max_iterations):
            composed = _compose(self.tree, self.problem, inhom, prev, self.step)
            cur = self.solve(k - 1, composed, max(tol, ETA * r))
            r = increment_norm(self.tree, prev, cur)
            norms.append(r)
            if not math.isfinite(r):
                raise NoContraction(f"non-finite increment at level {alpha:g}", alpha=alpha,
                                    norms=norms, iterate=cur, stats=self.stats)
            if r <= tol:
                fwd, bwd = _blended_residual(self.tree, self.problem, alpha, inhom, cur)
                if max(fwd, bwd) <= tol:
                    record.converged = True
                    self._warm[k] = cur
                    return cur
            cap = cap or DIVERGENCE_CAP * max(r, 1.0)
            if r > cap:
                break
            prev = cur
        raise NoContraction(
            f"level {alpha:g} did not contract within {self.opts.max_iterations} iterations",
            alpha=alpha,
            norms=norms,
            iterate=cur,
            stats=self.stats,
        )


def _finish(tree, problem, iterate):
    """The iterate as a solution, reporting the residuals of ``problem``."""
    X, Y, Z = (AdaptedProcess.from_array(tree, 0, v) for v in (iterate.X, iterate.Y, iterate.Z))
    fwd, bwd = nonlinear_residual(tree, problem, (X, Y, Z))
    return FbsdeSolution(X, Y, Z, ResidualReport(forward=fwd, backward=bwd))


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, as NoContraction
def solve_continuation(tree, problem, x0, opts=None, initial_iterate=None):
    """Solve the target system by climbing the blend ladder.

    Starts with step ``opts.delta``; when a level fails to contract the
    ladder is rebuilt with half the step, up to ``MAX_HALVINGS`` times and
    never deeper than ``MAX_LEVELS`` levels.  Returns (solution, stats); the
    solution's residuals are those of the original system.  A stop raises
    StepUnderflow naming the limit and the failure of the last attempt,
    with the best iterate seen and the stats of every attempt.
    """
    opts = opts or ContinuationOptions()
    if not np.isfinite(x0):
        raise NonFiniteInput(f"x0 = {x0!r}")
    delta = opts.delta
    stats = SolveStats()
    base = linear.special_coefficients(tree)
    initial = _as_iterate(tree, initial_iterate)
    best_res, best = math.inf, None
    cause = None
    while True:
        if delta * MAX_LEVELS < 1.0:  # before 1/delta, which can overflow
            limit = f"a step of {delta:g} needs a ladder over the {MAX_LEVELS}-level cap"
            break
        n_levels = max(1, math.ceil(round(1.0 / delta, 9)))
        ladder = _Ladder(problem, base, n_levels, x0, opts, initial, stats)
        try:
            iterate = ladder.solve(n_levels, Inhomogeneity.zeros(tree), opts.tolerance)
            return _finish(tree, problem, iterate), stats
        except NoContraction as err:
            cause = err
            if err.iterate is not None:
                sol = _finish(tree, problem, err.iterate)
                res = max(sol.residuals.forward, sol.residuals.backward)
                if res < best_res:
                    best_res, best = res, sol
        if stats.halvings == MAX_HALVINGS:
            limit = f"no contraction after {MAX_HALVINGS} halvings"
            break
        stats.halvings += 1
        delta /= 2.0
    raise StepUnderflow(limit if cause is None else f"{limit}: {cause}",
                        best_residual=None if best is None else best_res,
                        best_solution=best, stats=stats) from cause


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, as NoContraction
def solve_flat_picard(tree, problem, x0, opts=None, initial_iterate=None):
    """One-level iteration with the whole nonlinearity frozen each sweep.

    Equivalent to a single ladder level with step 1.  Fast when it works;
    carries no guarantee, so a NoContraction suggests continuation mode.
    Returns (solution, stats); a stop carries the stats.
    """
    opts = opts or ContinuationOptions()
    if not np.isfinite(x0):
        raise NonFiniteInput(f"x0 = {x0!r}")
    ladder = _Ladder(problem, linear.special_coefficients(tree), 1, x0, opts,
                     _as_iterate(tree, initial_iterate))
    try:
        iterate = ladder.solve(1, Inhomogeneity.zeros(tree), opts.tolerance)
    except NoContraction as err:
        err.args = (f"{err}; consider continuation mode",)
        raise
    return _finish(tree, problem, iterate), ladder.stats


def nonlinear_residual(tree, problem, solution):
    """Exhaustive per-branch defects of both equations: (forward, backward),
    the backward one with its terminal row Y_T - h(X_T).

    ``solution`` is an FbsdeSolution or an (X, Y, Z) triple of processes or
    level lists.
    """
    it = _as_iterate(tree, solution)
    b, sigma, f, h = _coefficient_levels(tree, problem, it.X, it.Y, it.zt)
    return worst_defects(tree, it.X, it.Y, it.Z, b, sigma, f, it.Y[tree.offsets[tree.T]:] - h)


def _blended_residual(tree, problem, alpha, inhom, it: _Iterate):
    """``nonlinear_residual`` at ``it`` of ``blend(problem, alpha)`` plus
    ``inhom``, whose terminal row is ``Y_T - (a*h(X_T) + (1-a)*X_T + h0)``.

    Blends the target's cached levels at the iterate by the formula
    a*v + (1-a)*lin + inhom, per node the float operations of a callback blend.
    """
    a = float(alpha)
    b, sigma, f, h = it.coefficient_levels(tree, problem)
    X, Y, Z, m = it.X, it.Y, it.Z, tree.offsets[tree.T]
    b = a * b + (1.0 - a) * (-Y[:m]) + inhom.b0
    sigma = a * sigma + (1.0 - a) * -_canonical_rows(it.zt) + inhom.sigma0
    f = a * f + (1.0 - a) * X[1:] + inhom.f0
    h = a * h + (1.0 - a) * X[m:] + inhom.h0
    return worst_defects(tree, X, Y, Z, b, sigma, f, Y[m:] - h)


@dataclass(frozen=True)
class ClauseEstimate:
    """Sampled bound for one assumption clause, with its worst witness."""

    value: float
    witness: tuple


@dataclass(frozen=True)
class AssumptionReport:
    """Sampled Lipschitz and one-sided estimates for the coefficient map.

    ``lipschitz`` bounds |A(t, u) - A(t, u')| / |u - u'| over interior
    times for the stacked map A = (-generator, drift, diffusion * second
    moment); the monotone clauses must come out negative (terminal map
    positive) for the verdict to hold.
    """

    lipschitz: Optional[ClauseEstimate]
    lipschitz_terminal: ClauseEstimate
    lipschitz_generator_T: ClauseEstimate
    monotone_interior: Optional[ClauseEstimate]
    monotone_initial: ClauseEstimate
    monotone_generator_T: ClauseEstimate
    monotone_terminal: ClauseEstimate
    satisfied: bool
    violations: tuple


def _extreme(values, valid, witness, lowest=False):
    """The clause estimate of one value per sample: the first largest (with
    ``lowest``, smallest) of the ``valid`` values, with ``witness(k)`` of
    its sample k.  NaN never wins; with no winner the value is -inf (+inf)
    and the witness empty.
    """
    bound = np.inf if lowest else -np.inf
    values = np.where(valid & ~np.isnan(values), values, bound)
    k = int(np.argmin(values) if lowest else np.argmax(values))
    if values[k] == bound:
        return ClauseEstimate(bound, ())
    return ClauseEstimate(float(values[k]), witness(k))


def check_assumptions(tree, problem, opts=None, *, sample_count=200):
    """Estimate the Lipschitz and monotonicity clauses on random samples.

    Pairs mix independent draws with single-coordinate probes so sharp
    directional constants are actually seen; the time-0 clause pairs share
    the x component, matching the pinned initial state.  The K samples are
    drawn in blocks from ``np.random.default_rng(opts.seed)``, in an order
    that defines the stream: ``lam`` and ``lam2``, (K, N+1) uniform(-2, 2)
    rows (x, y, z_tilde); for odd k, a coordinate (``integers(0, N+1)``)
    and a bump (uniform(0.1, 1.0)), and ``lam2[k]`` is ``lam[k]`` raised
    there by the bump; with T >= 2, times ``integers(1, T)`` and nodes
    ``integers(0, N**t)``; leaves ``integers(0, N**T)``.  Each coefficient
    is called once per depth, each clause is one array over the samples,
    and ``_extreme`` picks its estimate as a visit of the samples in order
    would.  Returns an AssumptionReport; ``satisfied`` means no sampled
    violation.
    """
    if sample_count < 2:
        raise ValueError("sample_count must be at least 2")
    rng = np.random.default_rng((opts or ContinuationOptions()).seed)
    N, T, K = tree.N, tree.T, sample_count
    lam, lam2 = rng.uniform(-2, 2, (K, N + 1)), rng.uniform(-2, 2, (K, N + 1))
    odd = np.arange(1, K, 2)
    coord = rng.integers(0, N + 1, len(odd))
    lam2[odd] = lam[odd]
    lam2[odd, coord] += rng.uniform(0.1, 1.0, len(odd))
    # point k is lam of sample k, point K + k its lam2, each at sample k's node and leaf
    have_interior = T >= 2
    if have_interior:
        ts = rng.integers(1, T, K)
        ts, nodes = np.tile(ts, 2), np.tile(rng.integers(0, N**ts), 2)
    leaves = np.tile(rng.integers(0, N**T, K), 2)
    points = np.concatenate([lam, lam2])
    x, y, zt = points[:, 0], points[:, 1], points[:, 2:]
    f, b, srows = np.zeros(2 * K), np.zeros(2 * K), np.zeros((2 * K, N))
    for t in range(1, T):
        at = np.flatnonzero(ts == t)
        if len(at):
            for out, name in ((f, "generator"), (b, "drift"), (srows, "diffusion")):
                value = getattr(problem, name)(t, nodes[at], x[at], y[at], zt[at])
                out[at] = _level(value, out[at].shape, name)
    # time 0 pairs lam with (x of lam, y and z_tilde of lam2)
    x0, root = np.tile(lam[:, 0], 2), np.zeros(2 * K, dtype=int)
    b0 = _level(problem.drift(0, root, x0, y, zt), (2 * K,), "drift")
    s0 = _level(problem.diffusion(0, root, x0, y, zt), (2 * K, N), "diffusion")
    fT = _level(problem.generator(T, leaves, x, y, None), (2 * K,), "generator")
    dx, dy, dz = x[:K] - x[K:], y[:K] - y[K:], zt[:K] - zt[K:]
    moving = np.flatnonzero(dx)
    h = np.zeros(2 * K)
    if len(moving):
        at = np.concatenate([moving, moving + K])
        h[at] = _level(problem.terminal(leaves[at], x[at]), (len(at),), "terminal")

    # Each clause value below has, sample by sample, the bits of the same
    # formula on that sample's Python floats: a row product is a stacked
    # matmul and a square a float_power.
    def dots(u, v):
        return (u[:, None, :] @ v[:, :, None])[:, 0, 0]

    def weighted(rows, moments):  # each row times its node's second moment
        return (rows[:, None, :] @ moments)[:, 0]

    def stacked_norm(u, v, w):  # |u| + |v| + |w| on the stacked map's coordinates
        return np.abs(u) + np.abs(v) + np.sqrt(dots(w, w))

    def point(k):  # witnesses, built for the winners only
        return float(x[k]), float(y[k]), zt[k]

    def at_node(k):
        return int(ts[k]), int(nodes[k]), point(k), point(K + k)

    def at_leaf(k):
        return T, int(leaves[k]), point(k), point(K + k)

    def at_leaf_x(k):
        return T, int(leaves[k]), float(x[k]), float(x[K + k])

    with np.errstate(all="ignore"):  # a non-finite value is a sample's estimate
        norm = stacked_norm(dx, dy, dz)
        dz_row = _canonical_rows(dz)  # the raw row difference: rows are canonical
        lip = mono_int = None
        if have_interior:
            moments = second_moments(tree.rows[np.asarray(tree.offsets)[ts[:K]] + nodes[:K]])
            df, db = -f[:K] - -f[K:], b[:K] - b[K:]
            ds = weighted(srows[:K], moments) - weighted(srows[K:], moments)
            lip = _extreme(stacked_norm(df, db, ds) / norm, norm > 0, at_node)
            # the inner product pairs -generator with x, drift with y and the
            # weighted diffusion row with the raw row difference
            inner = df * dx + db * dy + dots(ds, dz_row)
            mono_int = _extreme(inner / np.float_power(norm, 2.0), norm > 0, at_node)

        # time-0 clause: x is pinned by the initial condition
        m0 = second_moments(tree.rows[:1])
        denom = np.float_power(dy, 2.0) + dots(dz, dz)
        inner = (b0[:K] - b0[K:]) * dy + dots(weighted(s0[:K], m0) - weighted(s0[K:], m0), dz_row)
        mono_0 = _extreme(inner / denom, denom > 0,
                          lambda k: (0, 0, point(k), (float(x[k]), *point(K + k)[1:])))

        # horizon clauses: generator without a row argument, terminal map
        dfT, dh, xy = fT[:K] - fT[K:], h[:K] - h[K:], np.abs(dx) + np.abs(dy)
        lip_fT = _extreme(np.abs(dfT) / xy, xy > 0, at_leaf)
        mono_fT = _extreme((-dfT * dx) / np.float_power(dx, 2.0), dx != 0.0, at_leaf)
        lip_h = _extreme(np.abs(dh) / np.abs(dx), dx != 0.0, at_leaf_x)
        mono_h = _extreme((dh * dx) / np.float_power(dx, 2.0), dx != 0.0, at_leaf_x, lowest=True)

    violations = []
    if mono_int is not None and mono_int.value >= 0.0:
        violations.append(("interior monotonicity", mono_int))
    if mono_0.value >= 0.0:
        violations.append(("time-0 monotonicity", mono_0))
    if mono_fT.value >= 0.0:
        violations.append(("horizon generator monotonicity", mono_fT))
    if mono_h.value <= 0.0:
        violations.append(("terminal map monotonicity", mono_h))
    return AssumptionReport(
        lipschitz=lip,
        lipschitz_terminal=lip_h,
        lipschitz_generator_T=lip_fT,
        monotone_interior=mono_int,
        monotone_initial=mono_0,
        monotone_generator_T=mono_fT,
        monotone_terminal=mono_h,
        satisfied=not violations,
        violations=tuple(violations),
    )


def linear_special_problem() -> NonlinearProblem:
    """The self-coupled linear form as a nonlinear problem (the blend's fixed point)."""
    return NonlinearProblem(
        drift=lambda t, nodes, x, y, zt: -y,
        diffusion=lambda t, nodes, x, y, zt: -_canonical_rows(zt),
        generator=lambda t, nodes, x, y, zt: x,
        terminal=lambda nodes, x: x,
    )


def demo_monotone_problem(tree, scale=0.1) -> NonlinearProblem:
    """Monotone demo family: small smooth perturbations of the linear form.

    drift -y + scale*tanh(x), diffusion -z (canonical row), generator
    x + scale*tanh(y) at interior times and x at the horizon, terminal x.
    Satisfies the sampled assumption clauses for scale < 1.
    """

    def drift(t, nodes, x, y, zt):
        return -y + scale * np.tanh(x)

    def generator(t, nodes, x, y, zt):
        if t == tree.T:
            return x
        return x + scale * np.tanh(y)

    base = linear_special_problem()
    return NonlinearProblem(drift, base.diffusion, generator, base.terminal)


def as_nonlinear_problem(coeffs) -> NonlinearProblem:
    """Wrap linear coefficients as a nonlinear problem (for cross-validation).

    Each coefficient is ``linear``'s level function on the canonical rows
    of ``z_tilde``, so both paths evaluate the same float operations.
    """

    c, o = coeffs.arrays, coeffs.tree.offsets

    def level(fn, first):  # ``first``: the first node of fn's arrays
        return lambda t, nodes, x, y, zt: fn(
            c, o[t] - first + nodes, x, y, None if zt is None else _canonical_rows(zt))

    return NonlinearProblem(level(linear._drift, 0), level(linear._diffusion, 0),
                            level(linear._generator, 1),
                            lambda nodes, x: linear._terminal(c, nodes, x))
