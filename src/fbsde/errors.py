"""Exception types shared across the package."""


class FbsdeError(Exception):
    """Base class for all package errors."""


class NonPositiveProbability(FbsdeError):
    """A transition probability is zero or negative."""


class RowSumMismatch(FbsdeError):
    """A transition row does not sum to one within tolerance."""


class ShapeMismatch(FbsdeError):
    """An array has the wrong shape for the requested operation.

    ``field`` names the coefficient being shaped, when there is one.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class LeafNodeError(FbsdeError):
    """The operation needs a non-leaf node."""


class MissingValue(FbsdeError):
    """A process has no value at the requested time or node."""


class BranchOutOfRange(FbsdeError):
    """Branch index outside 1..N."""


class GeneratorEvaluationError(FbsdeError):
    """A generator returned a non-finite value."""


class NonFiniteInput(FbsdeError):
    """An input value is NaN or infinite."""


class NonFiniteSolve(FbsdeError):
    """A linear solve of finite input overflowed to NaN or infinity.

    ``depth`` is the depth of the first non-finite level of the backward
    pass, or None when only the solution is non-finite.
    """

    def __init__(self, message, depth=None):
        super().__init__(message)
        self.depth = depth


class SingularCertificate(FbsdeError):
    """The solvability certificate reports singular nodes."""


class AlphaOutOfRange(FbsdeError):
    """Blend parameter outside [0, 1]."""


class SolverStopped(FbsdeError):
    """An iterative solver stopped without a solution.

    ``stats`` is the SolveStats of the work it did, and ``best_residual``
    the smallest residual it reached, when it keeps one.
    """

    def __init__(self, message, stats=None, best_residual=None):
        super().__init__(message)
        self.stats = stats
        self.best_residual = best_residual


class NoContraction(SolverStopped):
    """Picard increments stayed above tolerance, or a base solve or an
    increment was not finite."""

    def __init__(self, message, alpha=None, norms=None, iterate=None, stats=None):
        super().__init__(message, stats)
        self.alpha = alpha
        self.norms = list(norms) if norms is not None else []
        self.iterate = iterate


class StepUnderflow(SolverStopped):
    """Continuation ran out of halvings or ladder depth; carries its best solution."""

    def __init__(self, message, best_residual=None, best_solution=None, stats=None):
        super().__init__(message, stats, best_residual)
        self.best_solution = best_solution


class NoConvergence(SolverStopped):
    """Newton iteration stalled; carries the best iterate found."""

    def __init__(self, message, best_residual=None, best_iterate=None, stats=None):
        super().__init__(message, stats, best_residual)
        self.best_iterate = best_iterate


class ProblemTooLarge(FbsdeError):
    """A brute-force solver was asked for more unknowns than it handles."""


class InvalidOption(FbsdeError, ValueError):
    """A solver option lies outside its allowed range."""


class SchemaError(FbsdeError):
    """A problem file is missing or misusing a field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class AssumptionViolation(FbsdeError):
    """A structural zero-sum condition on the coefficients fails."""

    def __init__(self, condition, node=None):
        where = f" at node {node}" if node is not None else ""
        super().__init__(f"{condition}{where}")
        self.condition = condition
        self.node = node


class ExpressionError(FbsdeError):
    """Base for expression errors; carries a character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression source."""


class UnknownIdentifier(ExpressionError):
    """An identifier that is neither a variable nor a function."""

    def __init__(self, name, position):
        super().__init__(f"unknown identifier '{name}'", position)
        self.name = name


class ArityError(ExpressionError):
    """A function call with the wrong number of arguments."""

    def __init__(self, name, expected, got, position):
        super().__init__(f"{name} expects {expected} argument(s), got {got}", position)
        self.name = name
        self.expected = expected
        self.got = got


class ExpressionDomainError(ExpressionError):
    """Evaluation left the real domain (division by zero, overflow, ...)."""
