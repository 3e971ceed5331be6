"""Continuation solver: blends, level solves, diagnostics, residuals."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INCREASING_DOC, random_linear_coeffs, random_tree, uniform_tree
from fbsde import (
    AlphaOutOfRange,
    ContinuationOptions,
    Inhomogeneity,
    LinearCoefficients,
    NoContraction,
    NonFiniteInput,
    NonFiniteSolve,
    NonlinearProblem,
    ShapeMismatch,
    SolverStopped,
    StepUnderflow,
    as_nonlinear_problem,
    bind_problem,
    blend,
    canonicalize,
    check_assumptions,
    demo_monotone_problem,
    linear_oracle,
    linear_special_problem,
    nonlinear_residual,
    solve_continuation,
    solve_flat_picard,
    solve_oracle,
    solve_special,
    tilde_contract,
)
from fbsde import nonlinear
from fbsde.cli import DEMOS
from fbsde.io import stats_payload

TOL = 1e-10


def adversarial_problem(slope=10.0):
    """Large forward Lipschitz constant; the one-shot iteration diverges.

    At slope 10 the ladder of step 0.25 still contracts, slowly; at slope 40
    its levels do not contract at steps 0.25 and 0.125.
    """

    def drift(t, nodes, x, y, zt):
        return -y + slope * x

    def diffusion(t, nodes, x, y, zt):
        return -np.concatenate([zt, np.zeros((len(zt), 1))], axis=1)

    def generator(t, nodes, x, y, zt):
        return x

    def terminal(nodes, x):
        return x

    return NonlinearProblem(drift, diffusion, generator, terminal)


def solution_gap(tree, a, b):
    gap = 0.0
    for t in range(tree.T + 1):
        gap = max(gap, float(np.abs(a.X.level(t) - b.X.level(t)).max()))
        gap = max(gap, float(np.abs(a.Y.level(t) - b.Y.level(t)).max()))
    for t in range(tree.T):
        gap = max(
            gap,
            float(np.abs(tilde_contract(a.Z.level(t)) - tilde_contract(b.Z.level(t))).max()),
        )
    return gap


class TestBlend:
    def test_identity_at_one(self):
        tree = uniform_tree(2, 2)
        problem = demo_monotone_problem(tree)
        assert blend(problem, 1.0) is problem

    def test_linear_end_at_zero(self):
        tree = uniform_tree(3, 2)
        blended = blend(demo_monotone_problem(tree), 0.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            nodes = rng.integers(0, 3, size=4)  # depth-1 nodes, repeats allowed
            x, y = rng.normal(size=(2, 4))
            zt = rng.normal(size=(4, 2))
            np.testing.assert_array_equal(blended.drift(1, nodes, x, y, zt), -y)
            np.testing.assert_array_equal(
                blended.diffusion(1, nodes, x, y, zt), np.column_stack([-zt, np.zeros(4)])
            )
            np.testing.assert_array_equal(blended.generator(1, nodes, x, y, zt), x)
            np.testing.assert_array_equal(blended.terminal(nodes, x), x)

    def test_midpoint_combination(self):
        tree = uniform_tree(2, 1)

        def drift(t, nodes, x, y, zt):
            return -2.0 * y

        problem = NonlinearProblem(
            drift,
            lambda t, nodes, x, y, zt: np.zeros(2),
            lambda t, nodes, x, y, zt: 0.0,
            lambda nodes, x: 0.0,
        )
        blended = blend(problem, 0.5)
        y = np.array([-1.0, 0.3, 2.0])
        got = blended.drift(0, np.zeros(3, dtype=int), np.zeros(3), y, np.zeros((3, 1)))
        np.testing.assert_allclose(got, -1.5 * y)

    def test_alpha_range(self):
        tree = uniform_tree(2, 1)
        with pytest.raises(AlphaOutOfRange):
            blend(demo_monotone_problem(tree), 1.5)


class TestSolveContinuation:
    def test_linear_special_reduction_is_bitwise(self):
        tree = uniform_tree(2, 3)
        sol, _ = solve_continuation(tree, linear_special_problem(tree), 1.5)
        ref = solve_special(tree, x0=1.5)
        for t in range(4):
            np.testing.assert_array_equal(sol.X.level(t), ref.X.level(t))
            np.testing.assert_array_equal(sol.Y.level(t), ref.Y.level(t))
        for t in range(3):
            np.testing.assert_array_equal(
                canonicalize(sol.Z.level(t)), canonicalize(ref.Z.level(t))
            )

    def test_demo_family_matches_oracle(self):
        rng = np.random.default_rng(2)
        for N, T in ((2, 3), (3, 2), (2, 1)):
            tree = random_tree(rng, N, T)
            problem = demo_monotone_problem(tree, 0.1)
            x0 = float(rng.uniform(-1.5, 1.5))
            sol, stats = solve_continuation(tree, problem, x0)
            assert max(sol.residuals.forward, sol.residuals.backward) <= TOL
            oracle_sol, _ = solve_oracle(tree, problem, x0)
            assert solution_gap(tree, sol, oracle_sol) <= 1e-8

    def test_zero_fixed_point(self):
        tree = uniform_tree(2, 2)
        sol, _ = solve_continuation(tree, demo_monotone_problem(tree, 0.2), 0.0)
        for t in range(3):
            np.testing.assert_allclose(sol.X.level(t), 0.0, atol=1e-12)
            np.testing.assert_allclose(sol.Y.level(t), 0.0, atol=1e-12)

    def test_unique_up_to_equivalence_across_initializations(self):
        rng = np.random.default_rng(3)
        tree = random_tree(rng, 2, 3)
        problem = demo_monotone_problem(tree, 0.15)
        a, _ = solve_continuation(tree, problem, 0.9)
        warm, _ = solve_oracle(tree, problem, 0.9)
        b, _ = solve_continuation(tree, problem, 0.9, initial_iterate=warm)
        assert solution_gap(tree, a, b) <= 1e-8

    def test_row_coupled_family_matches_oracle(self):
        # drift, diffusion and generator all read the contraction, so the
        # row pathways are exercised beyond the plain -z diffusion
        def z_coupled(tree, a=0.08):
            def drift(t, nodes, x, y, zt):
                return -y + a * np.tanh(x) + 0.5 * a * np.tanh(zt[:, 0])

            def diffusion(t, nodes, x, y, zt):
                rows = -np.concatenate([zt, np.zeros((len(zt), 1))], axis=1)
                rows[:, 0] += a * np.sin(x + y)
                rows[:, -1] -= a * np.sin(x + y)
                return rows

            def generator(t, nodes, x, y, zt):
                if t == tree.T:
                    return x
                return x + a * np.tanh(y) - 0.3 * a * zt[:, -1]

            return NonlinearProblem(drift, diffusion, generator, lambda nodes, x: x)

        rng = np.random.default_rng(21)
        for N, T in ((2, 3), (3, 2)):
            tree = random_tree(rng, N, T)
            problem = z_coupled(tree)
            assert check_assumptions(tree, problem, sample_count=300).satisfied
            sol, _ = solve_continuation(tree, problem, 1.2)
            assert max(sol.residuals.forward, sol.residuals.backward) <= TOL
            oracle_sol, _ = solve_oracle(tree, problem, 1.2)
            assert solution_gap(tree, sol, oracle_sol) <= 1e-8

    def test_halving_recovers_from_too_large_step(self):
        tree = uniform_tree(2, 3)
        problem = demo_monotone_problem(tree, 1.5)
        sol, stats = solve_continuation(
            tree, problem, 1.0, ContinuationOptions(delta=1.0)
        )
        assert stats.halvings >= 1
        assert max(sol.residuals.forward, sol.residuals.backward) <= TOL
        oracle_sol, _ = solve_oracle(tree, problem, 1.0)
        assert solution_gap(tree, sol, oracle_sol) <= 1e-8

    @pytest.mark.parametrize("delta", [0.001, 2.0**-21, 5e-324],
                             ids=["0.001", "2**-21", "5e-324"])
    def test_ladder_depth_cap(self, delta):
        # the smallest step passes the option check, though 1/delta overflows
        tree = uniform_tree(2, 1)
        with pytest.raises(StepUnderflow, match="512-level cap$") as info:
            solve_continuation(
                tree,
                linear_special_problem(tree),
                1.0,
                ContinuationOptions(delta=delta),
            )
        assert info.value.best_residual is None and info.value.__cause__ is None

    def test_adversarial_solves_and_agrees_with_the_oracle(self):
        # level 0.25 contracts by only about 0.62 an iteration; the inexact
        # inner solves let it finish without a halving
        tree = uniform_tree(2, 2)
        sol, stats = solve_continuation(tree, adversarial_problem(), 1.0,
                                        ContinuationOptions(delta=0.25))
        assert stats.halvings == 0
        assert max(sol.residuals.forward, sol.residuals.backward) <= TOL
        oracle_sol, _ = solve_oracle(tree, adversarial_problem(), 1.0)
        assert solution_gap(tree, sol, oracle_sol) <= 1e-8

    def test_adversarial_underflows_within_budget(self, monkeypatch):
        monkeypatch.setattr(nonlinear, "MAX_HALVINGS", 1)
        monkeypatch.setattr(nonlinear, "MAX_INNER_SOLVES", 2000)
        tree = uniform_tree(2, 2)
        with pytest.raises(StepUnderflow) as info:
            solve_continuation(tree, adversarial_problem(40.0), 1.0,
                               ContinuationOptions(delta=0.25))
        assert str(info.value).startswith("no contraction after 1 halvings: ")
        assert isinstance(info.value.__cause__, NoContraction)
        # the cause carries the stats of the whole solve, not of its ladder
        assert info.value.__cause__.stats is info.value.stats
        assert info.value.stats.halvings == 1
        # the failure still reports the best iterate seen
        assert info.value.best_residual is not None
        assert info.value.best_solution is not None

    def test_depth_cap_keeps_the_cause_and_the_best_iterate(self, monkeypatch):
        # the first ladder fails; its halved step needs more levels than the cap
        monkeypatch.setattr(nonlinear, "MAX_LEVELS", 4)
        tree = uniform_tree(2, 2)
        with pytest.raises(StepUnderflow) as info:
            solve_continuation(tree, adversarial_problem(40.0), 1.0,
                               ContinuationOptions(delta=0.25))
        err = info.value
        assert isinstance(err.__cause__, NoContraction)
        assert str(err) == f"a step of 0.125 needs a ladder over the 4-level cap: {err.__cause__}"
        assert err.best_residual == pytest.approx(21615.64453125)
        res = err.best_solution.residuals
        assert max(res.forward, res.backward) == err.best_residual

    def test_the_inner_solve_budget_stops_each_attempt(self, monkeypatch):
        # the demo needs more than three base solves at every step, so each
        # attempt spends its own budget of three and halves, to the limit
        monkeypatch.setattr(nonlinear, "MAX_INNER_SOLVES", 3)
        tree = uniform_tree(2, 2)
        with pytest.raises(StepUnderflow) as info:
            solve_continuation(tree, demo_monotone_problem(tree, 0.3), 1.0)
        err = info.value
        assert str(err) == (f"no contraction after {nonlinear.MAX_HALVINGS} halvings: "
                            "ladder exhausted its 3 inner-solve budget")
        assert isinstance(err.__cause__, NoContraction) and err.__cause__.alpha == 0.0
        assert err.stats.inner_solves == 3 * (nonlinear.MAX_HALVINGS + 1)

    def test_non_finite_base_solve_halves_the_step(self):
        # a generator and h - x of 1.7e308 overflow every base solve's
        # offsets, at every step: each attempt stops at its base solve and
        # halves, to the budget
        tree = uniform_tree(2, 2)
        problem = NonlinearProblem(drift=lambda t, n, x, y, z: 0.0,
                                   diffusion=lambda t, n, x, y, z: 0.0,
                                   generator=lambda t, n, x, y, z: 1.7e308,
                                   terminal=lambda n, x: 1.7e308)
        with pytest.raises(StepUnderflow) as info:
            solve_continuation(tree, problem, 1.0, ContinuationOptions(delta=1.0))
        err = info.value
        assert str(err).startswith(f"no contraction after {nonlinear.MAX_HALVINGS} halvings: ")
        assert isinstance(err.__cause__, NoContraction)
        assert isinstance(err.__cause__.__cause__, NonFiniteSolve)


class TestFlatPicard:
    def test_linear_special_two_iterations(self):
        tree = uniform_tree(2, 2)
        sol, stats = solve_flat_picard(tree, linear_special_problem(tree), 0.7)
        assert len(stats.records) == 1
        assert len(stats.records[0].norms) <= 2
        ref = solve_special(tree, x0=0.7)
        for t in range(3):
            np.testing.assert_array_equal(sol.X.level(t), ref.X.level(t))

    def test_matches_continuation_on_demo_family(self):
        rng = np.random.default_rng(4)
        tree = random_tree(rng, 2, 3)
        problem = demo_monotone_problem(tree, 0.1)
        flat, _ = solve_flat_picard(tree, problem, 1.0)
        cont, _ = solve_continuation(tree, problem, 1.0)
        assert solution_gap(tree, flat, cont) <= 1e-8

    def test_adversarial_surfaces_no_contraction(self):
        tree = uniform_tree(2, 3)
        with pytest.raises(NoContraction) as info:
            solve_flat_picard(tree, adversarial_problem(), 1.0)
        err = info.value
        assert str(err).endswith("; consider continuation mode")
        assert len(err.norms) >= 3
        assert err.norms[-1] > err.norms[0]
        # a stop of the one ladder, with its stats and no best residual
        assert isinstance(err, SolverStopped) and err.best_residual is None
        assert [r.norms for r in err.stats.records] == [err.norms]
        assert err.stats.inner_solves == len(err.norms)

    def test_a_non_finite_increment_stops_the_ladder(self):
        # from an iterate near -1.5e308 the base solve of x0 = 4e307 lies
        # more than the float range away: the increment's norm is inf
        tree = uniform_tree(2, 1)
        far = [np.full(tree.num_nodes(t), -1.5e308) for t in range(2)]
        initial = (far, far, [np.zeros((1, 2))])
        with pytest.raises(NoContraction) as info:
            solve_flat_picard(tree, linear_special_problem(tree), 4e307, None, initial)
        err = info.value
        assert str(err) == "non-finite increment at level 1; consider continuation mode"
        assert err.alpha == 1.0 and err.norms == [math.inf]


@pytest.mark.parametrize("x0", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("solver", [
    lambda tree, x0: solve_continuation(tree, linear_special_problem(tree), x0),
    lambda tree, x0: solve_flat_picard(tree, linear_special_problem(tree), x0),
    lambda tree, x0: linear_oracle(tree, LinearCoefficients(tree, G=1.0), x0),
    lambda tree, x0: solve_oracle(tree, linear_special_problem(tree), x0),
], ids=["continuation", "flat-picard", "linear-oracle", "newton-oracle"])
def test_a_non_finite_x0_is_refused(solver, x0):
    with pytest.raises(NonFiniteInput, match=f"x0 = {x0!r}"):
        solver(uniform_tree(2, 2), x0)


class TestCheckAssumptions:
    def test_one_sample_is_refused(self):
        tree = uniform_tree(2, 2)
        with pytest.raises(ValueError, match="sample_count must be at least 2"):
            check_assumptions(tree, linear_special_problem(tree), sample_count=1)

    def test_linear_special_satisfied(self):
        tree = uniform_tree(2, 2)
        report = check_assumptions(tree, linear_special_problem(tree), sample_count=300)
        assert report.satisfied
        assert report.lipschitz.value <= 1.0 + 1e-9
        assert report.monotone_interior.value < 0.0
        assert report.monotone_initial.value < 0.0
        assert report.monotone_generator_T.value < 0.0
        assert report.monotone_terminal.value > 0.0
        assert report.lipschitz_terminal.value == pytest.approx(1.0, abs=1e-12)

    def test_decreasing_terminal_map_is_flagged(self):
        tree = uniform_tree(2, 2)
        base = linear_special_problem(tree)
        problem = NonlinearProblem(
            base.drift, base.diffusion, base.generator, lambda nodes, x: -x
        )
        report = check_assumptions(tree, problem)
        assert not report.satisfied
        assert report.monotone_terminal.value == pytest.approx(-1.0, abs=1e-12)
        assert any(name == "terminal map monotonicity" for name, _ in report.violations)
        _, witness = report.violations[-1]
        assert witness.witness  # the offending sample pair is reported

    def test_increasing_drift_and_generator_violate_interior_and_time_0(self):
        # drift y and generator -x turn both one-sided clauses positive
        loaded = bind_problem(INCREASING_DOC)
        report = check_assumptions(loaded.tree, loaded.data)
        assert [name for name, _ in report.violations] == [
            "interior monotonicity", "time-0 monotonicity"]
        assert report.monotone_interior.value == report.monotone_initial.value == 1.0
        assert report.monotone_interior.witness[0] in (1, 2)
        assert report.monotone_initial.witness[:2] == (0, 0)

    def test_steep_generator_shows_in_lipschitz_estimate(self):
        tree = uniform_tree(2, 3)
        base = linear_special_problem(tree)
        problem = NonlinearProblem(
            base.drift,
            base.diffusion,
            lambda t, nodes, x, y, zt: 10.0 * x,
            base.terminal,
        )
        report = check_assumptions(tree, problem, ContinuationOptions(seed=1), sample_count=400)
        assert report.lipschitz.value >= 10.0 - 1e-6

    def test_demo_family_passes(self):
        rng = np.random.default_rng(5)
        for N, T in ((2, 3), (3, 2), (2, 1)):
            tree = random_tree(rng, N, T)
            report = check_assumptions(tree, demo_monotone_problem(tree, 0.2))
            assert report.satisfied


def counted(problem, calls, split=False):
    """``problem`` with every coefficient call recorded in ``calls``; with
    ``split``, each call is answered by one-node calls of ``problem``."""

    def level(fn):
        def call(t, nodes, x, y, zt):
            calls.append(t)
            if not split:
                return fn(t, nodes, x, y, zt)
            return np.concatenate([
                fn(t, nodes[i:i + 1], x[i:i + 1], y[i:i + 1], None if zt is None else zt[i:i + 1])
                for i in range(len(nodes))
            ])
        return call

    def terminal(nodes, x):
        calls.append("terminal")
        if not split:
            return problem.terminal(nodes, x)
        return np.concatenate([problem.terminal(nodes[i:i + 1], x[i:i + 1])
                               for i in range(len(nodes))])

    return NonlinearProblem(level(problem.drift), level(problem.diffusion),
                            level(problem.generator), terminal)


def report_bits(value):
    """Every number and string of an AssumptionReport, as bytes."""
    if value is None:
        return None
    if dataclasses.is_dataclass(value):
        return tuple(report_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(report_bits(v) for v in value)
    arr = np.asarray(value)
    return arr.dtype.str, arr.shape, arr.tobytes()


def row_coupled_file():
    """A bound N=3 T=3 file whose generator and diffusion read z2."""
    doc = dict(DEMOS["monotone-family"], tree={"N": 3, "T": 3})
    doc["coefficients"] = dict(doc["coefficients"], f="x + 0.1*tanh(y) - 0.05*z2*w",
                               sigma=["-z1", "-z2 + 0.02*sin(x*t)", "0"])
    loaded = bind_problem(doc)
    return loaded.data, loaded.tree


def check_instances():
    rng = np.random.default_rng(8)
    yield "file N=3", *row_coupled_file()
    tree = random_tree(rng, 2, 4)
    yield "demo N=2", demo_monotone_problem(tree, 0.3), tree
    tree = random_tree(rng, 3, 1)
    base = linear_special_problem(tree)
    yield "violated T=1", dataclasses.replace(base, terminal=lambda nodes, x: -x), tree


CHECK_INSTANCES = list(check_instances())


@pytest.mark.parametrize("name, problem, tree", CHECK_INSTANCES,
                         ids=[name for name, *_ in CHECK_INSTANCES])
def test_check_assumptions_is_blind_to_call_batching(name, problem, tree):
    # one level call per depth gives the report bits of one-node calls
    for opts in (ContinuationOptions(seed=0), ContinuationOptions(seed=1)):
        whole = check_assumptions(tree, counted(problem, []), opts)
        per_node = check_assumptions(tree, counted(problem, [], split=True), opts)
        assert report_bits(whole) == report_bits(per_node)
        assert report_bits(whole) == report_bits(check_assumptions(tree, problem, opts))


#: (value, (t, node) of the witness) of some clauses of ``row_coupled_file``,
#: per seed, from ``per_sample_check_assumptions``'s sample-by-sample loop.
ROW_COUPLED_ESTIMATES = {
    0: {"lipschitz": (1.1078893452745013, (2, 3)),
        "monotone_interior": (-0.09075122242232797, (2, 1)),
        "monotone_initial": (-0.11490691679745349, (0, 0)),
        "monotone_terminal": (0.9999999999999998, (3, 3))},
    1: {"lipschitz": (1.0994135196559318, (1, 0)),
        "monotone_interior": (-0.10161449100954806, (2, 6)),
        "monotone_initial": (-0.11813212812687582, (0, 0)),
        "monotone_terminal": (1.0, (3, 11))},
}


@pytest.mark.parametrize("seed", sorted(ROW_COUPLED_ESTIMATES))
def test_check_assumptions_keeps_its_estimates(seed):
    problem, tree = row_coupled_file()
    report = check_assumptions(tree, problem, ContinuationOptions(seed=seed))
    assert report.satisfied
    for clause, (value, where) in ROW_COUPLED_ESTIMATES[seed].items():
        estimate = getattr(report, clause)
        assert estimate.value == pytest.approx(value, rel=1e-12, abs=1e-15)
        assert estimate.witness[:2] == where


@pytest.mark.parametrize("N, T", [(2, 1), (2, 4), (3, 3)])
def test_check_assumptions_calls_each_coefficient_once_per_depth(N, T):
    tree = uniform_tree(N, T)
    calls = []
    check_assumptions(tree, counted(demo_monotone_problem(tree, 0.2), calls))
    assert len(calls) <= 6 * (T - 1) + 8
    # interior depths: generator, drift, diffusion; time 0: drift, diffusion;
    # the horizon generator; the terminal map
    assert sorted(calls, key=str) == sorted(
        [t for t in range(1, T) for _ in range(3)] + [0, 0, T, "terminal"], key=str)


@np.errstate(all="ignore")  # numpy rows of a non-finite sample warn; Python floats do not
def per_sample_check_assumptions(tree, problem, sample_count=200, seed=0):
    """The AssumptionReport reduced sample by sample in Python floats, as
    ``check_assumptions`` did before each clause became one array over the
    samples: the same draws and coefficient calls, then a loop that keeps
    the first strictly larger (terminal map: smaller) value of each clause."""
    rng = np.random.default_rng(seed)
    N, T, K = tree.N, tree.T, sample_count
    lam, lam2 = rng.uniform(-2, 2, (K, N + 1)), rng.uniform(-2, 2, (K, N + 1))
    odd = np.arange(1, K, 2)
    coord = rng.integers(0, N + 1, len(odd))
    lam2[odd] = lam[odd]
    lam2[odd, coord] += rng.uniform(0.1, 1.0, len(odd))
    have_interior = T >= 2
    interior = [(None, None)] * K
    if have_interior:
        ts = rng.integers(1, T, K)
        interior = zip(ts.tolist(), rng.integers(0, N**ts).tolist())
    leaves = rng.integers(0, N**T, K).tolist()

    def point(row):  # (x, y, z_tilde)
        return float(row[0]), float(row[1]), row[2:].copy()

    samples = [(point(lam[k]), point(lam2[k]), t, node, leaves[k])
               for k, (t, node) in enumerate(interior)]

    level = nonlinear._level
    points = [s[0] for s in samples] + [s[1] for s in samples]
    x, y = np.array([p[0] for p in points]), np.array([p[1] for p in points])
    zt = np.array([p[2] for p in points])
    ts, nodes, leaves = (np.array([s[i] for s in samples] * 2) for i in (2, 3, 4))
    f, b, srows = np.zeros(2 * K), np.zeros(2 * K), np.zeros((2 * K, N))
    for t in range(1, T):
        at = np.flatnonzero(ts == t)
        if len(at):
            for out, fn in ((f, problem.generator), (b, problem.drift), (srows, problem.diffusion)):
                out[at] = level(fn(t, nodes[at], x[at], y[at], zt[at]), out[at].shape, "coefficient")
    x0, root = np.concatenate([x[:K], x[:K]]), np.zeros(2 * K, dtype=int)
    b0 = level(problem.drift(0, root, x0, y, zt), (2 * K,), "drift")
    s0 = level(problem.diffusion(0, root, x0, y, zt), (2 * K, N), "diffusion")
    fT = level(problem.generator(T, leaves, x, y, None), (2 * K,), "generator")
    moving = np.flatnonzero(x[:K] - x[K:] != 0.0)
    h = np.zeros(2 * K)
    if len(moving):
        at = np.concatenate([moving, moving + K])
        h[at] = level(problem.terminal(leaves[at], x[at]), (len(at),), "terminal")
    f, b, srows, b0, s0, fT, h = (v.tolist() for v in (f, b, srows, b0, s0, fT, h))

    def lam_norm(dx, dy, dz):
        return abs(dx) + abs(dy) + float(np.linalg.norm(dz))

    def moment(t, node):
        row = tree.row((t, node))
        return np.diag(row) - np.outer(row, row)

    Estimate = nonlinear.ClauseEstimate
    lip = mono_int = lip_h = lip_fT = mono_0 = mono_fT = Estimate(-np.inf, ())
    mono_h = Estimate(np.inf, ())
    for k, (lam, lam2, t, node, leaf) in enumerate(samples):
        dx, dy = lam[0] - lam2[0], lam[1] - lam2[1]
        dz = lam[2] - lam2[2]
        norm = lam_norm(dx, dy, dz)
        dz_row = np.concatenate([dz, [0.0]])
        if have_interior:
            df, db = -f[k] - -f[K + k], b[k] - b[K + k]
            ds = np.asarray(srows[k]) @ moment(t, node) - np.asarray(srows[K + k]) @ moment(t, node)
            if norm > 0:
                val = lam_norm(df, db, ds) / norm
                if val > lip.value:
                    lip = Estimate(val, (t, node, lam, lam2))
                val = (df * dx + db * dy + float(ds @ dz_row)) / norm**2
                if val > mono_int.value:
                    mono_int = Estimate(val, (t, node, lam, lam2))
        m0 = moment(0, 0)
        ds0 = np.asarray(s0[k]) @ m0 - np.asarray(s0[K + k]) @ m0
        denom = dy**2 + float(np.dot(dz, dz))
        if denom > 0:
            val = ((b0[k] - b0[K + k]) * dy + float(ds0 @ dz_row)) / denom
            if val > mono_0.value:
                mono_0 = Estimate(val, (0, 0, lam, (lam[0], lam2[1], lam2[2])))
        f1, f2 = fT[k], fT[K + k]
        if abs(dx) + abs(dy) > 0:
            val = abs(f1 - f2) / (abs(dx) + abs(dy))
            if val > lip_fT.value:
                lip_fT = Estimate(val, (T, leaf, lam, lam2))
        if dx != 0.0:
            val = (-(f1 - f2) * dx) / dx**2
            if val > mono_fT.value:
                mono_fT = Estimate(val, (T, leaf, lam, lam2))
            h1, h2 = h[k], h[K + k]
            val = abs(h1 - h2) / abs(dx)
            if val > lip_h.value:
                lip_h = Estimate(val, (T, leaf, lam[0], lam2[0]))
            val = ((h1 - h2) * dx) / dx**2
            if val < mono_h.value:
                mono_h = Estimate(val, (T, leaf, lam[0], lam2[0]))

    violations = []
    if have_interior and mono_int.value >= 0.0:
        violations.append(("interior monotonicity", mono_int))
    if mono_0.value >= 0.0:
        violations.append(("time-0 monotonicity", mono_0))
    if mono_fT.value >= 0.0:
        violations.append(("horizon generator monotonicity", mono_fT))
    if mono_h.value <= 0.0:
        violations.append(("terminal map monotonicity", mono_h))
    return nonlinear.AssumptionReport(
        lipschitz=lip if have_interior else None, lipschitz_terminal=lip_h,
        lipschitz_generator_T=lip_fT, monotone_interior=mono_int if have_interior else None,
        monotone_initial=mono_0, monotone_generator_T=mono_fT, monotone_terminal=mono_h,
        satisfied=not violations, violations=tuple(violations))


def spoiled(problem):
    """``problem`` with every coefficient NaN at points with x > 1.2, drift
    and generator inf at points with y < -1.2 and the terminal map inf at
    x < -1.2.  (An inf diffusion row would only give NaN clause values.)"""

    def level(fn, inf=True):
        def call(t, nodes, x, y, zt):
            v = np.array(fn(t, nodes, x, y, zt), dtype=float)
            v[x > 1.2] = np.nan
            if inf:
                v[y < -1.2] = np.inf
            return v
        return call

    def terminal(nodes, x):
        v = np.array(problem.terminal(nodes, x), dtype=float)
        v[x > 1.2], v[x < -1.2] = np.nan, np.inf
        return v

    return NonlinearProblem(level(problem.drift), level(problem.diffusion, inf=False),
                            level(problem.generator), terminal)


def reference_instances():
    rng = np.random.default_rng(19)
    for N in range(2, 6):
        for T in range(1, 5):
            tree = random_tree(rng, N, T)
            demo = demo_monotone_problem(tree, 0.3)
            yield f"demo N={N} T={T}", demo, tree
            yield f"NaN and inf N={N} T={T}", spoiled(demo), tree
    yield "file N=3 T=3", *row_coupled_file()
    for N, T in ((2, 3), (4, 1)):
        tree = random_tree(rng, N, T)
        demo = demo_monotone_problem(tree, 0.3)
        yield f"violated N={N} T={T}", dataclasses.replace(demo, terminal=lambda nodes, x: -x), tree


REFERENCE_INSTANCES = list(reference_instances())


@pytest.mark.parametrize("name, problem, tree", REFERENCE_INSTANCES,
                         ids=[name for name, *_ in REFERENCE_INSTANCES])
def test_check_assumptions_matches_the_per_sample_loop(name, problem, tree):
    for count in (2, 3, 501, 200):
        for seed in (0, 1):
            report = check_assumptions(tree, problem, ContinuationOptions(seed=seed),
                                       sample_count=count)
            assert report_bits(report) == report_bits(
                per_sample_check_assumptions(tree, problem, count, seed))
            values = [getattr(report, f.name).value for f in dataclasses.fields(report)
                      if isinstance(getattr(report, f.name), nonlinear.ClauseEstimate)]
            assert not np.isnan(values).any()  # NaN never wins
    if name.startswith("violated"):
        assert not report.satisfied
    if name.startswith("NaN"):  # the first inf wins
        assert np.isinf(values).any()


class TestResiduals:
    def test_zero_problem_zero_solution(self):
        tree = uniform_tree(2, 2)
        X = [np.zeros(tree.num_nodes(t)) for t in range(3)]
        Y = [np.zeros(tree.num_nodes(t)) for t in range(3)]
        Z = [np.zeros((tree.num_nodes(t), 2)) for t in range(2)]
        fwd, bwd = nonlinear_residual(tree, linear_special_problem(tree), (X, Y, Z))
        assert fwd == 0.0 and bwd == 0.0

    def test_perturbation_shows_up_at_its_magnitude(self):
        tree = uniform_tree(2, 2)
        problem = demo_monotone_problem(tree, 0.1)
        sol, _ = solve_continuation(tree, problem, 1.0)
        X = [sol.X.level(t).copy() for t in range(3)]
        Y = [sol.Y.level(t) for t in range(3)]
        Z = [sol.Z.level(t) for t in range(2)]
        X[2][3] += 0.25
        fwd, _ = nonlinear_residual(tree, problem, (X, Y, Z))
        assert fwd == pytest.approx(0.25, abs=1e-9)

    def test_product_rule_identity_on_solver_output(self):
        # the discrete product rule used by the theory holds pathwise on any
        # adapted pair; check it on solver output
        rng = np.random.default_rng(6)
        tree = random_tree(rng, 2, 3)
        sol, _ = solve_continuation(tree, demo_monotone_problem(tree, 0.1), 1.0)
        for t in range(3):
            for node in range(tree.num_nodes(t)):
                x, y = sol.X.level(t)[node], sol.Y.level(t)[node]
                for i in range(2):
                    child = node * 2 + i
                    xn = sol.X.level(t + 1)[child]
                    yn = sol.Y.level(t + 1)[child]
                    lhs = xn * yn - x * y
                    rhs = xn * (yn - y) + (xn - x) * y
                    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_stats_record_shapes():
    tree = uniform_tree(2, 2)
    _, stats = solve_continuation(tree, demo_monotone_problem(tree, 0.1), 1.0)
    assert stats.levels == [0.25, 0.5, 0.75, 1.0]
    assert stats.inner_solves > 0
    assert all(len(r.norms) >= 1 for r in stats.records)
    assert all(r.converged for r in stats.records)


def test_stats_cover_every_ladder_attempt(monkeypatch):
    # delta 1 fails, delta 1/2 fails, delta 1/4 converges; every finished
    # Picard iteration of every level measures its increment once.  The
    # attempts make 10, 29 and 34 inner solves, each within its own cap.
    increments = []
    norm = nonlinear.increment_norm
    monkeypatch.setattr(nonlinear, "increment_norm",
                        lambda *args: increments.append(1) or norm(*args))
    monkeypatch.setattr(nonlinear, "MAX_INNER_SOLVES", 34)
    tree = uniform_tree(2, 2)
    opts = ContinuationOptions(delta=1.0, max_iterations=10)
    _, stats = solve_continuation(tree, demo_monotone_problem(tree, 0.6), 1.0, opts)
    assert stats.halvings == 2
    assert stats.inner_solves == 10 + 29 + 34
    assert stats.iterations == len(increments) == 10 + 39 + 93
    assert stats_payload(stats)["iterations"] == 142
    assert stats.levels == [0.25, 0.5, 0.75, 1.0]
    assert [r.converged for r in stats.records[:2]] == [False, False]


def test_the_increment_norm_survives_squares_past_the_float_range():
    # a difference scaled by 2**600 squares past the float range; its norm is
    # the unscaled one times 2**600, bit for bit, and only a non-finite
    # difference gives a non-finite norm
    tree = uniform_tree(3, 2)
    n, m = tree.offsets[-1], tree.offsets[-2]
    rng = np.random.default_rng(5)
    small = nonlinear._Iterate(rng.normal(size=n), rng.normal(size=n),
                               canonicalize(rng.normal(size=(m, 3))))
    big = nonlinear._Iterate(small.X * 2.0**600, small.Y * 2.0**600, small.Z * 2.0**600)
    zero = nonlinear._Iterate.zeros(tree)
    norm = nonlinear.increment_norm(tree, zero, small)
    assert 0.0 < norm < np.inf
    with np.errstate(over="ignore"):  # as the solvers call it
        assert nonlinear.increment_norm(tree, zero, big) == norm * 2.0**600
    assert nonlinear.increment_norm(tree, big, big) == 0.0
    for bad in (np.inf, np.nan):
        X = small.X.copy()
        X[1] = bad
        broken = nonlinear._Iterate(X, small.Y, small.Z)
        assert not np.isfinite(nonlinear.increment_norm(tree, zero, broken))


# drift -y + 1.5e308 on N=2 T=1: the exact solution, X_1 = 5e307 and Y_0 =
# 1e308, is reached from the zero iterate by increments whose squares overflow
LADDER_OVERFLOW_DOC = {"kind": "nonlinear", "tree": {"N": 2, "T": 1, "transition": "uniform"},
                       "x0": 1.0, "coefficients": {"b": "-y + 1.5e308", "sigma": ["-z1", "0"],
                                                   "f": "x", "h": "x"}}


@pytest.mark.parametrize("solve", [solve_continuation, solve_flat_picard])
def test_an_exact_solution_past_the_squares_range_is_solved(solve):
    loaded = bind_problem(LADDER_OVERFLOW_DOC)
    sol, stats = solve(loaded.tree, loaded.data, loaded.x0)
    assert sol.X.level(1).tolist() == [5e307, 5e307] and sol.Y.level(0).tolist() == [1e308]
    assert (sol.residuals.forward, sol.residuals.backward) == (0.0, 0.0)
    assert stats.halvings == 0 and all(r.converged for r in stats.records)


@pytest.mark.parametrize("solve", [solve_continuation, solve_flat_picard])
def test_the_records_keep_increment_norms_past_the_squares_range(solve):
    # the first increment, about 1e308, squares to inf; the records hold its norm
    loaded = bind_problem(LADDER_OVERFLOW_DOC)
    _, stats = solve(loaded.tree, loaded.data, loaded.x0)
    norms = [r for record in stats.records for r in record.norms]
    assert norms and max(norms) > 1e154 and np.isfinite(norms).all()


def random_inhomogeneity(rng, tree):
    # drawn level by level, stored as level-order arrays
    return Inhomogeneity(
        b0=np.concatenate([rng.uniform(-1, 1, size=tree.num_nodes(t)) for t in range(tree.T)]),
        sigma0=np.concatenate([rng.uniform(-1, 1, size=(tree.num_nodes(t), tree.N))
                               for t in range(tree.T)]),
        f0=np.concatenate([rng.uniform(-1, 1, size=tree.num_nodes(t))
                           for t in range(1, tree.T + 1)]),
        h0=rng.uniform(-1, 1, size=tree.num_nodes(tree.T)),
    )


def per_node_blend(problem, alpha, inhom, tree):
    """The blend of ``problem`` at ``alpha`` with per-node inhomogeneities of
    ``tree`` folded in, callback by callback: a*v + (1-a)*lin + inhom."""
    a, o = float(alpha), tree.offsets

    def drift(t, nodes, x, y, zt):
        v = np.asarray(problem.drift(t, nodes, x, y, zt), dtype=float)
        return a * v + (1.0 - a) * (-y) + inhom.b0[o[t] + nodes]

    def diffusion(t, nodes, x, y, zt):
        v = np.asarray(problem.diffusion(t, nodes, x, y, zt), dtype=float)
        rows = np.concatenate([zt, np.zeros((len(zt), 1))], axis=1)
        return a * v + (1.0 - a) * -rows + inhom.sigma0[o[t] + nodes]

    def generator(t, nodes, x, y, zt):
        v = np.asarray(problem.generator(t, nodes, x, y, zt), dtype=float)
        return a * v + (1.0 - a) * x + inhom.f0[o[t] - 1 + nodes]

    def terminal(nodes, x):
        v = np.asarray(problem.terminal(nodes, x), dtype=float)
        return a * v + (1.0 - a) * x + inhom.h0[nodes]

    return NonlinearProblem(drift, diffusion, generator, terminal)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 3),
    st.integers(1, 3),
    st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)),
    st.booleans(),
    st.booleans(),
)
def test_array_blend_matches_the_per_node_blend(seed, N, T, alpha, linear_target, zero_inhom):
    # the level check blends whole levels; its defects are the per-node
    # blend's residual bit for bit, at every alpha including 1, with the
    # terminal row Y_T - blended h(X_T) in the backward value
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, T)
    problem = (as_nonlinear_problem(tree, random_linear_coeffs(rng, tree)) if linear_target
               else demo_monotone_problem(tree, float(rng.uniform(0.0, 0.9))))
    inhom = Inhomogeneity.zeros(tree) if zero_inhom else random_inhomogeneity(rng, tree)
    X = [rng.uniform(-1, 1, size=tree.num_nodes(t)) for t in range(T + 1)]
    Y = [rng.uniform(-1, 1, size=tree.num_nodes(t)) for t in range(T + 1)]
    Z = [rng.uniform(-1, 1, size=(tree.num_nodes(t), N)) for t in range(T)]
    blended = per_node_blend(problem, alpha, inhom, tree)
    iterate = nonlinear._Iterate(*(np.concatenate(v) for v in (X, Y, Z)))
    got = nonlinear._blended_residual(tree, problem, alpha, inhom, iterate)
    fwd, bwd = nonlinear_residual(tree, blended, (X, Y, Z))
    terminal = Y[T] - blended.terminal(np.arange(tree.num_nodes(T)), X[T])
    want = (fwd, float(np.maximum(bwd, np.abs(terminal).max())))
    assert [v.hex() for v in got] == [v.hex() for v in want]
    leaves = rng.permutation(tree.num_nodes(T))
    h = problem.terminal(leaves, X[T][leaves])
    assert (blended.terminal(leaves, X[T][leaves]) == alpha * h + (1.0 - alpha) * X[T][leaves]
            + inhom.h0[leaves]).all()


@pytest.mark.parametrize("N, T", [(2, 2), (3, 2), (2, 3)])
def test_the_level_check_binds_the_terminal_row(N, T):
    # at alpha 0 the blended problem is the base form, so the base solve
    # with terminal offsets h0 is its exact solution; a solve whose leaf
    # offsets differ from the level's by 0.5 at one leaf satisfies every
    # per-branch equation, and only the terminal row can see it
    rng = np.random.default_rng(N * 10 + T)
    tree = uniform_tree(N, T)
    inhom = random_inhomogeneity(rng, tree)
    problem = demo_monotone_problem(tree, 0.3)

    def level_check(g):
        sol = solve_special(tree, D=inhom.b0, D_bar=inhom.sigma0, D_hat=-inhom.f0, g=g, x0=1.0)
        return nonlinear._blended_residual(tree, problem, 0.0, inhom,
                                           nonlinear._as_iterate(tree, sol))

    assert max(level_check(inhom.h0)) <= 1e-12
    g = inhom.h0.copy()
    g[-1] += 0.5
    fwd, bwd = level_check(g)
    assert fwd <= 1e-12 and bwd >= 0.5 - 1e-12


@pytest.mark.parametrize("N", [2, 3])
def test_one_value_per_node_is_not_one_diffusion_row(N):
    # on a tree of depth 2 every level has at most N nodes, so a diffusion
    # of shape (n,) would broadcast to (n, N) as one row shared by all
    # nodes; the level rule refuses it, and still lets one value or a
    # (1, N) row stand for every node
    tree = uniform_tree(N, 2)
    X = [np.linspace(0.5, 1.5, N**t) for t in range(3)]
    Y = [np.linspace(-1.0, 1.0, N**t) for t in range(3)]
    Z = [np.zeros((N**t, N)) for t in range(2)]
    base = adversarial_problem()
    per_node = dataclasses.replace(base, diffusion=lambda t, nodes, x, y, zt: 0.1 * x)
    with pytest.raises(ShapeMismatch, match=rf"diffusion returned shape \(1,\), expected \(1, {N}\)"):
        nonlinear_residual(tree, per_node, (X, Y, Z))
    row = np.full(N, 0.1)
    rows = dataclasses.replace(base, diffusion=lambda t, nodes, x, y, zt: np.tile(row, (len(x), 1)))
    want = nonlinear_residual(tree, rows, (X, Y, Z))
    for value in (0.1, row[None, :]):
        shared = dataclasses.replace(base, diffusion=lambda t, nodes, x, y, zt: value)
        assert nonlinear_residual(tree, shared, (X, Y, Z)) == want


def test_each_iterate_is_evaluated_once(monkeypatch):
    # compose and the level check share one evaluation of the target per
    # iterate: one per inner solve plus the shared zero start, and the
    # report's residual evaluates the result afresh, its terminal row too
    tree = uniform_tree(2, 2)
    target = demo_monotone_problem(tree, 0.1)
    drift_calls, leaf_values = [], []

    def drift(t, nodes, x, y, zt):
        drift_calls.append(1)
        return target.drift(t, nodes, x, y, zt)

    def terminal(nodes, x):
        leaf_values.append(tuple(x))
        return target.terminal(nodes, x)

    problem = NonlinearProblem(drift, target.diffusion, target.generator, terminal)
    evaluated = []  # the X level lists evaluated, kept alive so ids stay unique
    levels = nonlinear._coefficient_levels
    monkeypatch.setattr(nonlinear, "_coefficient_levels",
                        lambda tree, problem, X, Y, Z: evaluated.append(X) or levels(
                            tree, problem, X, Y, Z))
    sol, stats = solve_continuation(tree, problem, 1.0)
    assert stats.halvings == 0
    assert len({id(X) for X in evaluated}) == len(evaluated) == stats.inner_solves + 2
    # one drift call per level, at times 0 and 1
    assert len(drift_calls) == len(evaluated) * 2
    # the terminal map is evaluated once per composed iterate, on all four
    # leaves, and the report's residual evaluates the accepted one again
    *ladder, report = leaf_values
    assert len(ladder) == len(set(ladder)) <= stats.inner_solves + 1
    assert report == ladder[-1]
    reference, _ = solve_continuation(tree, target, 1.0)
    assert solution_gap(tree, sol, reference) == 0.0


def test_each_level_is_one_call_drift_then_diffusion_then_generator():
    # and the terminal map once, last, on the leaves, in every residual call
    tree = uniform_tree(2, 2)
    base = linear_special_problem(tree)
    calls = []

    def record(name, fn):
        return lambda t, *args: calls.append((name, t, len(args[0]))) or fn(t, *args)

    def terminal(nodes, x):
        calls.append(("h", nodes.tolist(), x.tolist()))
        return base.terminal(nodes, x)

    problem = NonlinearProblem(record("b", base.drift), record("sigma", base.diffusion),
                               record("f", base.generator), terminal)
    sol = solve_special(tree, D=0.1, x0=1.0)
    for _ in range(2):
        calls.clear()
        nonlinear_residual(tree, problem, sol)
        assert calls == [("b", 0, 1), ("b", 1, 2), ("sigma", 0, 1), ("sigma", 1, 2),
                         ("f", 1, 2), ("f", 2, 4), ("h", [0, 1, 2, 3], sol.X.level(2).tolist())]


def test_levels_of_another_problem_are_not_reused():
    tree = uniform_tree(2, 2)
    other = dataclasses.replace(demo_monotone_problem(tree, 0.3),
                                terminal=lambda nodes, x: 1.2 * x)
    target = demo_monotone_problem(tree, 0.1)
    sol, _ = solve_continuation(tree, other, 1.0)
    carried = nonlinear._as_iterate(tree, sol)
    carried.coefficient_levels(tree, other)
    fresh = nonlinear._Iterate(carried.X.copy(), carried.Y.copy(), carried.Z.copy())
    for solve in (solve_continuation, solve_flat_picard):
        got, _ = solve(tree, target, 1.0, initial_iterate=carried)
        want, _ = solve(tree, target, 1.0, initial_iterate=fresh)
        for t in range(tree.T + 1):
            assert got.X.level(t).tobytes() == want.X.level(t).tobytes()
            assert got.Y.level(t).tobytes() == want.Y.level(t).tobytes()
        for t in range(tree.T):
            assert got.Z.level(t).tobytes() == want.Z.level(t).tobytes()
        assert got.residuals == want.residuals
