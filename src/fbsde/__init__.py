"""Solvers for coupled forward-backward systems driven by a finite-state
process on a scenario tree: exact backward induction, a certified linear
solver, a continuation-method nonlinear solver, and brute-force reference
solvers to check them against."""

from .bsde import BsdeProblem, bsde_residual, solve_bsde
from .errors import *  # noqa: F401,F403
from .expressions import Expression, parse_expression
from .io import LoadedProblem, bind_problem, load_problem, verify_report
from .linear import (
    FbsdeSolution,
    GammaVerdict,
    LinearCoefficients,
    ResidualReport,
    RiccatiData,
    SolvabilityCertificate,
    Unsolvable,
    decoupling_coefficients,
    linear_residuals,
    riccati_backward,
    solve_linear,
    solve_special,
    special_coefficients,
)
from .martingale import (
    NormConstants,
    branch_value,
    canonicalize,
    cond_second_moment,
    equivalent,
    increments,
    norm_constants,
    represent,
    tilde_contract,
)
from .nonlinear import (
    AssumptionReport,
    ContinuationOptions,
    Inhomogeneity,
    NonlinearProblem,
    SolveStats,
    as_nonlinear_problem,
    blend,
    check_assumptions,
    demo_monotone_problem,
    linear_special_problem,
    nonlinear_residual,
    solve_continuation,
    solve_flat_picard,
)
from .oracle import (
    InfinitelyMany,
    NoSolution,
    UniqueSolution,
    finite_difference_jacobian,
    linear_oracle,
    solve_oracle,
)
from .tree import (
    AdaptedProcess,
    NodeId,
    ScenarioTree,
    build_tree,
    cond_exp,
    cond_exp_level,
    expectation,
)

__version__ = "0.1.0"
