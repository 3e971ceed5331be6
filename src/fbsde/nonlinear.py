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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linear
from .errors import (
    AlphaOutOfRange,
    InvalidOption,
    NoContraction,
    NonFiniteInput,
    NonFiniteIterate,
    NonFiniteSolve,
    ShapeMismatch,
    StepUnderflow,
)
from .linear import FbsdeSolution, ResidualReport
from .martingale import cond_second_moment, tilde_contract, worst_defects
from .tree import AdaptedProcess, _process_levels

#: A level aborts early once increments blow past this multiple of their
#: starting size; the remaining budget cannot recover from there.
DIVERGENCE_CAP = 1e6

#: Ladders deeper than this are refused: each level nests a full solve of
#: the one below, so hundreds of levels are computationally out of reach
#: anyway, and the recursion must stay within the interpreter's limits.  A
#: power of two, so ``delta * MAX_LEVELS < 1`` tests the step exactly.
MAX_LEVELS = 512

#: Step halvings before a solve gives up: each halving doubles the ladder and
#: the nested solve count grows with its depth, so the budget is small.
MAX_HALVINGS = 4

#: Base solves per ladder attempt; levels whose contraction is marginal would
#: otherwise burn the per-level budget multiplicatively.
MAX_INNER_SOLVES = 20000


@dataclass(frozen=True)
class NonlinearProblem:
    """Coefficient functions of the coupled nonlinear system, one level a call.

    ``drift(t, nodes, x, y, z_tilde)`` and ``generator(t, nodes, x, y,
    z_tilde)`` return one value per node, ``diffusion(t, nodes, x, y,
    z_tilde)`` an (n, N) array of rows, ``terminal(nodes, x)`` one value per
    leaf; a single value stands for every node.  ``nodes`` holds n depth-t
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
    tolerance and the Picard budget per level complete it.  The one home of
    their defaults and range checks; every other budget is a module
    constant.
    """

    delta: float = 0.25
    tolerance: float = 1e-10
    max_iterations: int = 50

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise InvalidOption(f"delta must lie in (0, 1], got {self.delta}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise InvalidOption(f"tolerance must be finite and positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise InvalidOption(f"max_iterations must be at least 1, got {self.max_iterations}")


@dataclass
class LevelRecord:
    """One Picard run at one level: its increment norms and outcome."""

    alpha: float
    norms: list
    converged: bool


@dataclass
class SolveStats:
    """Per-level iteration records plus global counters.

    Records and counters cover every ladder attempt of a solve, failed ones
    before a halving included (the ``MAX_INNER_SOLVES`` cap applies to each
    attempt alone).
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
    """Per-node additive terms entering each equation of a level solve.

    ``b0``/``sigma0`` are indexed by time 0..T-1, ``f0`` by absolute time
    with entry 0 unused (it enters at times 1..T), ``h0`` by leaf.
    """

    b0: list
    sigma0: list
    f0: list
    h0: np.ndarray

    @classmethod
    def zeros(cls, tree):
        return cls(
            b0=[np.zeros(tree.num_nodes(t)) for t in range(tree.T)],
            sigma0=[np.zeros((tree.num_nodes(t), tree.N)) for t in range(tree.T)],
            f0=[None] + [np.zeros(tree.num_nodes(t)) for t in range(1, tree.T + 1)],
            h0=np.zeros(tree.num_nodes(tree.T)),
        )


def blend(problem: NonlinearProblem, alpha: float) -> NonlinearProblem:
    """Interpolate between the self-coupled linear form (0) and the problem (1).

    At alpha = 0 the coefficients become drift -y, diffusion the row whose
    contraction is -z_tilde with last column zero, generator x, terminal x.
    alpha = 1 returns the problem unchanged.
    """
    if not 0.0 <= alpha <= 1.0:
        raise AlphaOutOfRange(f"alpha = {alpha!r}")
    if alpha == 1.0:
        return problem
    return _blended(problem, alpha, None)


def _canonical_rows(zt):
    """The rows (z_tilde, 0) with contractions ``zt``; negated, the linear form's diffusion."""
    return np.concatenate([zt, np.zeros((len(zt), 1))], axis=1)


def _blended(problem, alpha, inhom):
    """Blend with optional per-node inhomogeneities folded in, by the
    formula a*v + (1-a)*lin + inhom of ``_blended_residual``."""
    a = float(alpha)
    zero = inhom is None

    def drift(t, nodes, x, y, zt):
        v = np.asarray(problem.drift(t, nodes, x, y, zt), dtype=float)
        return a * v + (1.0 - a) * (-y) + (0.0 if zero else inhom.b0[t][nodes])

    def diffusion(t, nodes, x, y, zt):
        v = np.asarray(problem.diffusion(t, nodes, x, y, zt), dtype=float)
        return a * v + (1.0 - a) * -_canonical_rows(zt) + (0.0 if zero else inhom.sigma0[t][nodes])

    def generator(t, nodes, x, y, zt):
        v = np.asarray(problem.generator(t, nodes, x, y, zt), dtype=float)
        return a * v + (1.0 - a) * x + (0.0 if zero else inhom.f0[t][nodes])

    def terminal(nodes, x):
        v = np.asarray(problem.terminal(nodes, x), dtype=float)
        return a * v + (1.0 - a) * x + (0.0 if zero else inhom.h0[nodes])

    return NonlinearProblem(drift, diffusion, generator, terminal)


@dataclass
class _Iterate:
    """Solution triple as plain level arrays (Z rows canonical).

    ``levels`` is ``(problem, (b, sigma, f))`` and ``terminal`` is
    ``(problem, h - x)`` on the leaves, for the last problem evaluated
    here, so that compose and the level check evaluate the target once per
    iterate.
    """

    X: list
    Y: list
    Z: list
    levels: Optional[tuple] = field(default=None, repr=False, compare=False)
    terminal: Optional[tuple] = field(default=None, repr=False, compare=False)

    @classmethod
    def zeros(cls, tree):
        return cls(
            X=[np.zeros(tree.num_nodes(t)) for t in range(tree.T + 1)],
            Y=[np.zeros(tree.num_nodes(t)) for t in range(tree.T + 1)],
            Z=[np.zeros((tree.num_nodes(t), tree.N)) for t in range(tree.T)],
        )

    def coefficient_levels(self, tree, problem):
        """``_coefficient_levels`` of ``problem`` here, evaluated on first use."""
        if self.levels is None or self.levels[0] is not problem:
            self.levels = (problem, _coefficient_levels(tree, problem, self.X, self.Y, self.Z))
        return self.levels[1]

    def terminal_levels(self, tree, problem):
        """``problem.terminal(nodes, x) - x`` on the leaves, evaluated on first use."""
        if self.terminal is None or self.terminal[0] is not problem:
            x = self.X[tree.T]
            h = _level(problem.terminal(_nodes(len(x)), x), (len(x),), "terminal")
            self.terminal = (problem, h - x)
        return self.terminal[1]

    def finite(self):
        return (
            all(np.isfinite(lev).all() for lev in self.X)
            and all(np.isfinite(lev).all() for lev in self.Y)
            and all(np.isfinite(lev).all() for lev in self.Z)
        )


def _as_iterate(tree, value):
    """An iterate from None, an iterate, a solution, or (X, Y, Z) processes
    or level lists, checked level by level."""
    if value is None or isinstance(value, _Iterate):
        return value
    X, Y, Z = (value.X, value.Y, value.Z) if isinstance(value, FbsdeSolution) else value
    return _Iterate(
        X=_process_levels(tree, X, range(tree.T + 1), "X", ()),
        Y=_process_levels(tree, Y, range(tree.T + 1), "Y", ()),
        Z=_process_levels(tree, Z, range(tree.T), "Z", (tree.N,)),
    )


def increment_norm_sq(tree, prev: _Iterate, cur: _Iterate) -> float:
    """E sum_t (|x| + |y| + |z_tilde|)^2 of the difference over times 0..T-1."""
    total = 0.0
    for t in range(tree.T):
        dx = np.abs(cur.X[t] - prev.X[t])
        dy = np.abs(cur.Y[t] - prev.Y[t])
        dz = np.linalg.norm(tilde_contract(cur.Z[t]) - tilde_contract(prev.Z[t]), axis=-1)
        total += float(np.dot(tree.level_probs(t), (dx + dy + dz) ** 2))
    return total


#: The node indices 0..n-1 of a whole level, built once per size, read-only.
_nodes = functools.cache(lambda n: np.broadcast_to(np.arange(n), (n,)))


def _level(value, shape, name):
    """A level as a float array of ``shape``; a single value stands for every node."""
    arr = np.asarray(value, dtype=float)
    try:
        return arr if arr.shape == shape else np.broadcast_to(arr, shape)
    except ValueError:
        raise ShapeMismatch(f"{name} returned shape {arr.shape}, expected {shape}") from None


def _forward_levels(tree, problem, X, Y, zt):
    """Drift and diffusion on 0..T-1, one call per level; ``zt`` holds the
    contractions of Z."""
    nodes = [_nodes(tree.num_nodes(t)) for t in range(tree.T)]
    b = [_level(problem.drift(t, n, X[t], Y[t], zt[t]), n.shape, "drift") for t, n in enumerate(nodes)]
    return b, [_level(problem.diffusion(t, n, X[t], Y[t], zt[t]), (len(n), tree.N), "diffusion")
               for t, n in enumerate(nodes)]


def _coefficient_levels(tree, problem, X, Y, Z):
    """Drift and diffusion on 0..T-1, then generator on 1..T, at an iterate,
    one call per level in that order (which decides the first error raised).

    Returns (b, sigma, f) with ``f`` indexed by absolute time, entry 0 None;
    at the horizon the generator's ``z_tilde`` is None.
    """
    zt = [tilde_contract(z) for z in Z] + [None]
    b, sigma = _forward_levels(tree, problem, X, Y, zt)
    f = [_level(problem.generator(t, _nodes(len(X[t])), X[t], Y[t], zt[t]), (len(X[t]),),
                "generator") for t in range(1, tree.T + 1)]
    return b, sigma, [None] + f


def _compose(tree, problem, inhom, prev: _Iterate, step):
    """Fold the step-sized nonlinearity, frozen at ``prev``, into new inhomogeneities."""
    b, sigma, f = prev.coefficient_levels(tree, problem)
    b0 = [inhom.b0[t] + step * (prev.Y[t] + b[t]) for t in range(tree.T)]
    s0 = [inhom.sigma0[t] + step * (prev.Z[t] + sigma[t]) for t in range(tree.T)]
    f0 = [None] + [inhom.f0[t] + step * (-prev.X[t] + f[t]) for t in range(1, tree.T + 1)]
    hT = prev.terminal_levels(tree, problem)
    return Inhomogeneity(b0=b0, sigma0=s0, f0=f0, h0=inhom.h0 + step * hT)


class _Ladder:
    """Level solvers from the linear base up to the target, sharing stats.

    Each level's solve closes over the one below it; within a level, solves
    warm-start from that level's previous result (the first call starts from
    the ladder's one zero iterate), which keeps the nested iteration count
    near-linear instead of multiplicative.  Every base solve goes through
    ``base``, the homogeneous ``special_coefficients(tree)``, whose slope
    pass is memoized; a solve that retries with smaller steps passes the
    same ``base`` to each ladder, so the slopes are computed once per solve.
    """

    def __init__(self, tree, problem, base, n_levels, opts, stats=None):
        self.tree = tree
        self.problem = problem
        self.alphas = [k / n_levels for k in range(n_levels + 1)]
        self.alphas[-1] = 1.0
        self.step = 1.0 / n_levels
        self.opts = opts
        self.stats = SolveStats() if stats is None else stats
        self._solves_before = self.stats.inner_solves  # by earlier attempts
        self._warm = {}
        self._zero = _Iterate.zeros(tree)
        self.base = base

    def solve(self, k, inhom, x0, initial=None):
        if k == 0:
            if self.stats.inner_solves - self._solves_before >= MAX_INNER_SOLVES:
                raise NoContraction(
                    f"ladder exhausted its {MAX_INNER_SOLVES} inner-solve budget",
                    alpha=0.0,
                    norms=[],
                )
            self.stats.inner_solves += 1
            try:
                sol = linear.solve_special(
                    self.tree,
                    D=inhom.b0,
                    D_bar=inhom.sigma0,
                    D_hat=[-f for f in inhom.f0[1:]],
                    g=inhom.h0,
                    x0=x0,
                    form=self.base,
                )
            except NonFiniteSolve as err:  # halves the step like any non-finite iterate
                raise NonFiniteIterate(f"non-finite base solve: {err}") from err
            return _as_iterate(self.tree, sol)

        alpha = self.alphas[k]
        tol = self.opts.tolerance
        prev = initial if initial is not None else self._warm.get(k) or self._zero
        norms = []
        record = LevelRecord(alpha=alpha, norms=norms, converged=False)
        self.stats.records.append(record)
        cur = prev
        for _ in range(self.opts.max_iterations):
            composed = _compose(self.tree, self.problem, inhom, prev, self.step)
            cur = self.solve(k - 1, composed, x0)
            if not cur.finite():
                raise NonFiniteIterate(f"non-finite iterate at level {alpha:g}", iterate=cur)
            d = increment_norm_sq(self.tree, prev, cur)
            norms.append(d)
            if not math.isfinite(d):
                raise NonFiniteIterate(f"non-finite increment at level {alpha:g}", iterate=cur)
            if d <= tol * tol:
                fwd, bwd = _blended_residual(self.tree, self.problem, alpha, inhom, cur)
                if max(fwd, bwd) <= tol:
                    record.converged = True
                    self._warm[k] = cur
                    return cur
            if norms and d > DIVERGENCE_CAP * max(norms[0], 1.0):
                break
            prev = cur
        raise NoContraction(
            f"level {alpha:g} did not contract within {self.opts.max_iterations} iterations",
            alpha=alpha,
            norms=norms,
            iterate=cur,
        )


def _finish(tree, problem, iterate):
    """The iterate as a solution, reporting the residuals of ``problem``."""
    fwd, bwd = nonlinear_residual(tree, problem, (iterate.X, iterate.Y, iterate.Z))
    return FbsdeSolution(
        AdaptedProcess(tree, 0, iterate.X),
        AdaptedProcess(tree, 0, iterate.Y),
        AdaptedProcess(tree, 0, iterate.Z),
        ResidualReport(forward=fwd, backward=bwd),
    )


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, as NonFiniteIterate
def solve_continuation(tree, problem, x0, opts=None, initial_iterate=None):
    """Solve the target system by climbing the blend ladder.

    Starts with step ``opts.delta``; when a level fails to contract the
    ladder is rebuilt with half the step, up to ``MAX_HALVINGS`` times and
    never deeper than ``MAX_LEVELS`` levels.  Returns (solution, stats); the
    solution's residuals are those of the original system.  A stop raises
    StepUnderflow naming the limit and the failure of the last attempt,
    with the best iterate seen.
    """
    opts = opts or ContinuationOptions()
    if not np.isfinite(x0):
        raise NonFiniteInput(f"x0 = {x0!r}")
    delta = opts.delta
    stats = SolveStats()
    base = linear.special_coefficients(tree)
    best_res, best = math.inf, None
    cause = None
    while True:
        limit = None
        if stats.halvings > MAX_HALVINGS:
            limit = f"no contraction after {MAX_HALVINGS} halvings"
        elif delta * MAX_LEVELS < 1.0:  # before 1/delta, which can overflow
            limit = f"a step of {delta:g} needs a ladder over the {MAX_LEVELS}-level cap"
        if limit:
            raise StepUnderflow(limit if cause is None else f"{limit}: {cause}",
                                best_residual=None if best is None else best_res,
                                best_solution=best) from cause
        n_levels = max(1, math.ceil(round(1.0 / delta, 9)))
        ladder = _Ladder(tree, problem, base, n_levels, opts, stats=stats)
        try:
            iterate = ladder.solve(n_levels, Inhomogeneity.zeros(tree), x0,
                                   initial=_as_iterate(tree, initial_iterate))
            return _finish(tree, problem, iterate), stats
        except (NoContraction, NonFiniteIterate) as err:
            cause = err
            it = getattr(err, "iterate", None)
            if it is not None and it.finite():
                sol = _finish(tree, problem, it)
                res = max(sol.residuals.forward, sol.residuals.backward)
                if res < best_res:
                    best_res, best = res, sol
            stats.halvings += 1
            delta /= 2.0


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, as NonFiniteIterate
def solve_flat_picard(tree, problem, x0, opts=None, initial_iterate=None):
    """One-level iteration with the whole nonlinearity frozen each sweep.

    Equivalent to a single ladder level with step 1.  Fast when it works;
    carries no guarantee, so a failure suggests continuation mode.
    """
    opts = opts or ContinuationOptions()
    if not np.isfinite(x0):
        raise NonFiniteInput(f"x0 = {x0!r}")
    ladder = _Ladder(tree, problem, linear.special_coefficients(tree), 1, opts)
    try:
        iterate = ladder.solve(1, Inhomogeneity.zeros(tree), x0,
                               initial=_as_iterate(tree, initial_iterate))
    except NoContraction as err:
        raise NoContraction(
            str(err) + "; consider continuation mode",
            alpha=err.alpha,
            norms=err.norms,
            iterate=err.iterate,
        ) from err
    return _finish(tree, problem, iterate), ladder.stats


def nonlinear_residual(tree, problem, solution):
    """Exhaustive per-branch defects of both equations: (forward, backward).

    ``solution`` is an FbsdeSolution or an (X, Y, Z) triple of processes or
    level lists.
    """
    it = _as_iterate(tree, solution)
    return worst_defects(tree, it.X, it.Y, it.Z, *_coefficient_levels(tree, problem, it.X, it.Y, it.Z))


def _blended_residual(tree, problem, alpha, inhom, it: _Iterate):
    """``nonlinear_residual`` of ``_blended(problem, alpha, inhom)`` at ``it``.

    Blends the target's cached levels at the iterate by ``_blended``'s
    formula a*v + (1-a)*lin + inhom: the same float operations per node, so
    the same defects bit for bit.
    """
    a = float(alpha)
    b, sigma, f = it.coefficient_levels(tree, problem)
    X, Y, Z = it.X, it.Y, it.Z
    T = tree.T
    b = [a * b[t] + (1.0 - a) * (-Y[t]) + inhom.b0[t] for t in range(T)]
    sigma = [
        a * sigma[t] + (1.0 - a) * -_canonical_rows(tilde_contract(Z[t])) + inhom.sigma0[t]
        for t in range(T)
    ]
    f = [None] + [a * f[t] + (1.0 - a) * X[t] + inhom.f0[t] for t in range(1, T + 1)]
    return worst_defects(tree, X, Y, Z, b, sigma, f)


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


def _lam_norm(dx, dy, dz):
    return abs(dx) + abs(dy) + float(np.linalg.norm(dz))


def check_assumptions(tree, problem, sample_count=200, rng_seed=0):
    """Estimate the Lipschitz and monotonicity clauses on random samples.

    Pairs mix independent draws with single-coordinate probes so sharp
    directional constants are actually seen.  The time-0 clause pairs share
    the x component, matching the pinned initial state.  All samples are
    drawn first, each coefficient is called once per depth on all of that
    depth's points, and the clauses reduce sample by sample.  Returns an
    AssumptionReport; ``satisfied`` means no sampled violation.
    """
    if sample_count < 2:
        raise ValueError("sample_count must be at least 2")
    rng = np.random.default_rng(rng_seed)
    N, T = tree.N, tree.T

    def draw():
        return (
            float(rng.uniform(-2, 2)),
            float(rng.uniform(-2, 2)),
            rng.uniform(-2, 2, size=N - 1),
        )

    def pair(k):
        lam = draw()
        if k % 2 == 0:
            return lam, draw()
        # single-coordinate probe, so sharp directional constants are seen
        other = [lam[0], lam[1], lam[2].copy()]
        coord = int(rng.integers(0, N + 1))
        bump = float(rng.uniform(0.1, 1.0))
        if coord == 0:
            other[0] += bump
        elif coord == 1:
            other[1] += bump
        else:
            other[2][coord - 2] += bump
        return lam, (other[0], other[1], other[2])

    have_interior = T >= 2
    samples = []  # (lam, lam2, t, node, leaf)
    for k in range(sample_count):
        lam, lam2 = pair(k)
        t = node = None
        if have_interior:
            t = int(rng.integers(1, T))
            node = int(rng.integers(0, tree.num_nodes(t)))
        samples.append((lam, lam2, t, node, int(rng.integers(0, tree.num_nodes(T)))))

    # point k is lam of sample k, point K + k its lam2
    K = sample_count
    points = [s[0] for s in samples] + [s[1] for s in samples]
    x, y = np.array([p[0] for p in points]), np.array([p[1] for p in points])
    zt = np.array([p[2] for p in points])
    ts, nodes, leaves = (np.array([s[i] for s in samples] * 2) for i in (2, 3, 4))
    f, b, srows = np.zeros(2 * K), np.zeros(2 * K), np.zeros((2 * K, N))
    for t in range(1, T):
        at = np.flatnonzero(ts == t)
        if len(at):
            for out, fn in ((f, problem.generator), (b, problem.drift), (srows, problem.diffusion)):
                out[at] = _level(fn(t, nodes[at], x[at], y[at], zt[at]), out[at].shape, "coefficient")
    # time 0 pairs lam with (x of lam, y and z_tilde of lam2)
    x0, root = np.concatenate([x[:K], x[:K]]), np.zeros(2 * K, dtype=int)
    b0 = _level(problem.drift(0, root, x0, y, zt), (2 * K,), "drift")
    s0 = _level(problem.diffusion(0, root, x0, y, zt), (2 * K, N), "diffusion")
    fT = _level(problem.generator(T, leaves, x, y, None), (2 * K,), "generator")
    moving = np.flatnonzero(x[:K] - x[K:] != 0.0)
    h = np.zeros(2 * K)
    if len(moving):
        at = np.concatenate([moving, moving + K])
        h[at] = _level(problem.terminal(leaves[at], x[at]), (len(at),), "terminal")
    f, b, srows, b0, s0, fT, h = (v.tolist() for v in (f, b, srows, b0, s0, fT, h))

    lip = ClauseEstimate(-np.inf, ())
    mono_int = ClauseEstimate(-np.inf, ())
    lip_h = ClauseEstimate(-np.inf, ())
    lip_fT = ClauseEstimate(-np.inf, ())
    mono_0 = ClauseEstimate(-np.inf, ())
    mono_fT = ClauseEstimate(-np.inf, ())
    mono_h = ClauseEstimate(np.inf, ())

    moment = functools.cache(lambda t, node: cond_second_moment(tree, (t, node)))

    for k, (lam, lam2, t, node, leaf) in enumerate(samples):
        dx, dy = lam[0] - lam2[0], lam[1] - lam2[1]
        dz = lam[2] - lam2[2]
        norm = _lam_norm(dx, dy, dz)

        if have_interior:
            a1 = (-f[k], b[k], np.asarray(srows[k], dtype=float) @ moment(t, node))
            a2 = (-f[K + k], b[K + k], np.asarray(srows[K + k], dtype=float) @ moment(t, node))
            df, db, ds = a1[0] - a2[0], a1[1] - a2[1], a1[2] - a2[2]
            if norm > 0:
                val = (_lam_norm(df, db, ds)) / norm
                if val > lip.value:
                    lip = ClauseEstimate(val, (t, node, lam, lam2))
                # inner product pairs -generator with x, drift with y and the
                # weighted diffusion row with the raw row difference; rows are
                # canonical so the row difference is (dz, 0).
                dz_row = np.concatenate([dz, [0.0]])
                inner = df * dx + db * dy + float(ds @ dz_row)
                val = inner / norm**2
                if val > mono_int.value:
                    mono_int = ClauseEstimate(val, (t, node, lam, lam2))

        # time-0 clause: x is pinned by the initial condition
        lam0 = (lam[0], lam[1], lam[2])
        lam0b = (lam[0], lam2[1], lam2[2])
        m0 = moment(0, 0)
        b1, b2 = b0[k], b0[K + k]
        s1 = np.asarray(s0[k], dtype=float) @ m0
        s2 = np.asarray(s0[K + k], dtype=float) @ m0
        dz_row = np.concatenate([lam0[2] - lam0b[2], [0.0]])
        denom = (lam0[1] - lam0b[1]) ** 2 + float(np.dot(lam0[2] - lam0b[2], lam0[2] - lam0b[2]))
        if denom > 0:
            val = ((b1 - b2) * (lam0[1] - lam0b[1]) + float((s1 - s2) @ dz_row)) / denom
            if val > mono_0.value:
                mono_0 = ClauseEstimate(val, (0, 0, lam0, lam0b))

        # horizon clauses: generator without a row argument, terminal map
        f1, f2 = fT[k], fT[K + k]
        if abs(dx) + abs(dy) > 0:
            val = abs(f1 - f2) / (abs(dx) + abs(dy))
            if val > lip_fT.value:
                lip_fT = ClauseEstimate(val, (T, leaf, lam, lam2))
        if dx != 0.0:
            val = (-(f1 - f2) * dx) / dx**2
            if val > mono_fT.value:
                mono_fT = ClauseEstimate(val, (T, leaf, lam, lam2))
            h1, h2 = h[k], h[K + k]
            val = abs(h1 - h2) / abs(dx)
            if val > lip_h.value:
                lip_h = ClauseEstimate(val, (T, leaf, lam[0], lam2[0]))
            val = ((h1 - h2) * dx) / dx**2
            if val < mono_h.value:
                mono_h = ClauseEstimate(val, (T, leaf, lam[0], lam2[0]))

    violations = []
    if have_interior and mono_int.value >= 0.0:
        violations.append(("interior monotonicity", mono_int))
    if mono_0.value >= 0.0:
        violations.append(("time-0 monotonicity", mono_0))
    if mono_fT.value >= 0.0:
        violations.append(("horizon generator monotonicity", mono_fT))
    if mono_h.value <= 0.0:
        violations.append(("terminal map monotonicity", mono_h))
    return AssumptionReport(
        lipschitz=lip if have_interior else None,
        lipschitz_terminal=lip_h,
        lipschitz_generator_T=lip_fT,
        monotone_interior=mono_int if have_interior else None,
        monotone_initial=mono_0,
        monotone_generator_T=mono_fT,
        monotone_terminal=mono_h,
        satisfied=not violations,
        violations=tuple(violations),
    )


def linear_special_problem(tree) -> NonlinearProblem:
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

    base = linear_special_problem(tree)
    return NonlinearProblem(drift, base.diffusion, generator, base.terminal)


def as_nonlinear_problem(tree, coeffs) -> NonlinearProblem:
    """Wrap linear coefficients as a nonlinear problem (for cross-validation).

    Each coefficient is ``linear``'s level function on the canonical rows
    of ``z_tilde``, so both paths evaluate the same float operations.
    """

    def level(fn):
        return lambda t, nodes, x, y, zt: fn(
            coeffs, t, nodes, x, y, None if zt is None else _canonical_rows(zt))

    return NonlinearProblem(level(linear._drift), level(linear._diffusion),
                            level(linear._generator),
                            lambda nodes, x: linear._terminal(coeffs, nodes, x))
