"""Fully coupled linear forward-backward solver on a scenario tree.

The backward pass runs a scalar decoupling recursion (P, p) together with a
per-node N x N matrix whose invertibility at every non-leaf node makes the
coupled system uniquely solvable from every node.  The certificate keeps
those verdicts as one pair of arrays per level (condition ratios and
invertible flags); node ids are built only for the singular nodes and each
level's weakest node, and the per-node verdict list only on request.
The forward pass then solves one dense N x N system per node for the child
values of X, and Y, Z follow from conditional expectations of the affine
closure P X + p.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AssumptionViolation,
    LeafNodeError,
    NonFiniteInput,
    NonFiniteSolve,
    ShapeMismatch,
    SingularCertificate,
)
from .martingale import worst_defects
from .tree import AdaptedProcess, NodeId, ScenarioTree, _as_depth_index, _process_levels

#: Zero-sum validation tolerance for the structural coupling conditions.
ZERO_SUM_TOL = 1e-12

#: A per-node matrix counts as singular when its smallest singular value is
#: at most this fraction of its largest (scale-free test).
SINGULAR_RATIO = 1e-10


def _depth(value):
    """Nesting depth of an array or nested list, read along first entries."""
    if isinstance(value, np.ndarray):
        return value.ndim
    if isinstance(value, (list, tuple)):
        return 1 + (_depth(value[0]) if len(value) else 0)
    return 0


def _array(value, shape, name, where):
    """A fresh C-contiguous float copy of ``value``, which must have ``shape``."""
    try:
        arr = np.array(value, dtype=float, order="C")
    except (TypeError, ValueError) as err:
        raise ShapeMismatch(
            f"{where}: ragged or not numeric, expected shape {shape}", field=name
        ) from err
    if arr.shape != shape:
        raise ShapeMismatch(f"{where}: shape {arr.shape}, expected {shape}", field=name)
    return arr


def _levels(tree, value, times, cell, name):
    """A tuple of level arrays of shape ``(num_nodes(t),) + cell``, t in ``times``.

    ``value`` is None (zeros), one cell shared by every node, or one entry
    per time, each a cell shared by that level's nodes or the whole level.
    The forms are told apart by nesting depth, never by converting a ragged
    list.  Every array is a fresh C-contiguous copy: einsum sums other
    layouts in another order.
    """
    if value is None:
        return tuple(np.zeros((tree.num_nodes(t),) + cell) for t in times)
    if _depth(value) == len(cell):
        value = [value] * len(times)
    elif _depth(value) < len(cell) or len(value) != len(times):
        raise ShapeMismatch(
            f"{name}: expected a cell of shape {cell} or {len(times)} levels", field=name
        )
    out = []
    for t, lev in zip(times, value):
        where = f"{name} level {t}"
        if _depth(lev) == len(cell):
            out.append(np.full((tree.num_nodes(t),) + cell, _array(lev, cell, name, where)))
        else:
            out.append(_array(lev, (tree.num_nodes(t),) + cell, name, where))
    return tuple(out)


#: Every coefficient field, in the order ``validate`` checks them.
_FIELDS = ("A", "B", "C", "D", "A_bar", "B_bar", "C_bar", "D_bar",
           "A_hat", "B_hat", "C_hat", "D_hat", "G", "g")

#: The inhomogeneities; the backward pass reads them only for the offsets p.
_INHOMOGENEOUS = ("D", "D_bar", "D_hat", "g")


class LinearCoefficients:
    """Coefficient set of the coupled linear system.

    Plain (A, B, C, D) drive the forward drift, barred rows the forward
    increment loading, hatted ones the backward equation, and (G, g) the
    terminal condition Y_T = G X_T + g.  Scalar fields are per-node scalars,
    C and C_hat per-node columns stored as (n, N) arrays, C_bar per-node
    N x N matrices.  Hatted fields live on times 1..T and are stored in
    tuples indexed by absolute time with entry 0 unused.

    The structural conditions (columns of C, C_hat and every column of each
    C_bar matrix sum to zero; C_hat vanishes at the horizon) make each
    equation insensitive to the row representative of Z.  A coefficient set
    is valid and read-only for its whole life: the constructor validates it
    and freezes every level array, and no field can be assigned afterwards.
    So the slope pass of ``riccati_backward``, which reads only the tree and
    the homogeneous fields, is memoized per tree in a table that every
    ``with_inhomogeneities`` copy shares.
    """

    def __init__(self, tree, *, A=None, B=None, C=None, D=None,
                 A_bar=None, B_bar=None, C_bar=None, D_bar=None,
                 A_hat=None, B_hat=None, C_hat=None, D_hat=None,
                 G=None, g=None):
        fwd = range(tree.T)
        bwd = range(1, tree.T + 1)
        row, matrix = (tree.N,), (tree.N, tree.N)
        vars(self).update(
            tree=tree,
            A=_levels(tree, A, fwd, (), "A"),
            B=_levels(tree, B, fwd, (), "B"),
            C=_levels(tree, C, fwd, row, "C"),
            A_bar=_levels(tree, A_bar, fwd, row, "A_bar"),
            B_bar=_levels(tree, B_bar, fwd, row, "B_bar"),
            C_bar=_levels(tree, C_bar, fwd, matrix, "C_bar"),
            A_hat=(None, *_levels(tree, A_hat, bwd, (), "A_hat")),
            B_hat=(None, *_levels(tree, B_hat, bwd, (), "B_hat")),
            C_hat=(None, *_levels(tree, C_hat, bwd, row, "C_hat")),
            # a leaf field is the single level at time T
            G=_levels(tree, None if G is None else [G], [tree.T], (), "G")[0],
            _memo={},  # tree -> _SlopePass, shared with every copy
        )
        self._set_inhomogeneities(D, D_bar, D_hat, g)
        self.validate()
        self._freeze(_FIELDS)

    def __setattr__(self, name, value):
        raise AttributeError(f"LinearCoefficients are read-only: cannot set {name}")

    def _set_inhomogeneities(self, D, D_bar, D_hat, g):
        tree = self.tree
        vars(self).update(
            D=_levels(tree, D, range(tree.T), (), "D"),
            D_bar=_levels(tree, D_bar, range(tree.T), (tree.N,), "D_bar"),
            D_hat=(None, *_levels(tree, D_hat, range(1, tree.T + 1), (), "D_hat")),
            g=_levels(tree, None if g is None else [g], [tree.T], (), "g")[0],
        )

    def with_inhomogeneities(self, D=None, D_bar=None, D_hat=None, g=None):
        """A copy with new D, D_bar, D_hat and g, each checked for finiteness.

        Every other level array and the slope memo are shared, so solving
        the copy recomputes only the offsets of the backward pass.
        """
        new = copy.copy(self)
        new._set_inhomogeneities(D, D_bar, D_hat, g)
        new._check_finite(_INHOMOGENEOUS)
        new._freeze(_INHOMOGENEOUS)
        return new

    def _field_levels(self, name):
        """The level arrays of one field (entry 0 of a hatted field is unused)."""
        levels = getattr(self, name)
        if name in ("G", "g"):
            return [levels]
        return levels[1:] if name.endswith("_hat") else levels

    def _check_finite(self, names):
        """Raise NonFiniteInput for the first of ``names`` with a NaN or inf entry."""
        for name in names:
            for lev in self._field_levels(name):
                if not np.isfinite(lev).all():
                    raise NonFiniteInput(f"coefficient {name} has non-finite entries")

    def _freeze(self, names):
        for name in names:
            for lev in self._field_levels(name):
                lev.flags.writeable = False

    def validate(self):
        """Check finiteness and the structural zero-sum conditions.

        The constructor runs it; a coefficient set cannot change afterwards.
        """
        tree = self.tree
        self._check_finite(_FIELDS)
        for t in range(tree.T):
            sums = self.C[t].sum(axis=1)
            bad = np.abs(sums) > ZERO_SUM_TOL
            if bad.any():
                raise AssumptionViolation(
                    "C column must sum to zero", tree.node_id(t, int(np.argmax(bad)))
                )
            col_sums = self.C_bar[t].sum(axis=1)  # sum over rows j of C_bar[j, i]
            bad = np.abs(col_sums).max(axis=1) > ZERO_SUM_TOL
            if bad.any():
                raise AssumptionViolation(
                    "every C_bar column must sum to zero",
                    tree.node_id(t, int(np.argmax(bad))),
                )
        for t in range(1, tree.T + 1):
            sums = self.C_hat[t].sum(axis=1)
            bad = np.abs(sums) > ZERO_SUM_TOL
            if bad.any():
                raise AssumptionViolation(
                    "C_hat column must sum to zero", tree.node_id(t, int(np.argmax(bad)))
                )
        bad = np.abs(self.C_hat[tree.T]).max(axis=1) > ZERO_SUM_TOL
        if bad.any():
            raise AssumptionViolation(
                "C_hat must vanish at the horizon",
                tree.node_id(tree.T, int(np.argmax(bad))),
            )


@dataclass(frozen=True)
class GammaVerdict:
    """Invertibility verdict for the per-node matrix, with condition ratio."""

    node: NodeId
    ratio: float
    invertible: bool


@dataclass(frozen=True, eq=False)
class SolvabilityCertificate:
    """The per-node verdicts of a slope pass, kept as level arrays.

    ``ratios[k]`` and ``ok[k]`` are the read-only condition ratios and
    invertible flags of the depth T-1-k matrices, for every level from T-1
    down to the one where the pass halted.  ``weakest[k]`` is that level's
    verdict with the smallest ratio (the first node on a tie).  Node ids
    are built on request: ``singular_nodes`` for the singular entries only,
    ``verdicts`` for every node.  Array fields rule out a generated
    ``__eq__``; compare certificates through ``verdicts``.
    """

    tree: ScenarioTree
    ratios: tuple
    ok: tuple
    weakest: tuple
    all_invertible: bool

    def _levels(self):
        """(depth, ratios, ok) of each level, from T-1 down."""
        return zip(range(self.tree.T - 1, -1, -1), self.ratios, self.ok)

    @property
    def verdicts(self):
        """One GammaVerdict per node reached, level by level from T-1 down."""
        return tuple(
            GammaVerdict(self.tree.node_id(t, idx), ratio, invertible)
            for t, ratios, ok in self._levels()
            for idx, (ratio, invertible) in enumerate(zip(ratios.tolist(), ok.tolist()))
        )

    @property
    def singular_nodes(self):
        return tuple(
            self.tree.node_id(t, int(idx))
            for t, _, ok in self._levels()
            for idx in np.flatnonzero(~ok)
        )

    @property
    def min_ratio(self):
        return min((v.ratio for v in self.weakest), default=float("nan"))


@dataclass(frozen=True)
class _SlopePass:
    """What the backward pass derives from the tree and the homogeneous
    coefficients alone.

    Beside P, the per-node matrices and their level-array certificate it
    keeps, per level t, the stacked column ``a``, the feedback matrix
    ``coupling`` and (for t >= 1) the contraction ``theta`` of the child
    closures, which the offset and forward passes reuse.
    """

    P_levels: tuple
    gamma_levels: tuple
    certificate: SolvabilityCertificate
    a_levels: tuple
    coupling_levels: tuple
    theta_levels: tuple


@dataclass(frozen=True)
class RiccatiData:
    """Backward-recursion output: P, p levels, per-node matrices, certificate.

    ``P_levels``/``p_levels`` are indexed by absolute time (entries below the
    first solvable level, and entry 0, are None); ``gamma_levels[t]`` stacks
    the depth-t matrices.  When a level contains a singular matrix the
    recursion stops there, with the ratios and flags of that whole level in
    the certificate.  P, the matrices and the certificate are read from
    ``slope_pass``.
    """

    slope_pass: _SlopePass
    p_levels: tuple

    @property
    def P_levels(self):
        return self.slope_pass.P_levels

    @property
    def gamma_levels(self):
        return self.slope_pass.gamma_levels

    @property
    def certificate(self):
        return self.slope_pass.certificate

    @property
    def complete(self):
        return self.certificate.all_invertible and self.gamma_levels[0] is not None

    def P(self, tree):
        """P as an adapted process over 1..T (requires a complete recursion)."""
        if not self.complete:
            raise SingularCertificate("recursion halted at a singular level")
        return AdaptedProcess(tree, 1, list(self.P_levels[1:]))

    def p(self, tree):
        if not self.complete:
            raise SingularCertificate("recursion halted at a singular level")
        return AdaptedProcess(tree, 1, list(self.p_levels[1:]))


@dataclass(frozen=True)
class ResidualReport:
    forward: float
    backward: float


@dataclass(frozen=True)
class FbsdeSolution:
    """Node-indexed solution triple with its residual report.

    X and Y live on 0..T, Z on 0..T-1 with canonical rows.  ``riccati`` is
    the backward pass behind a linear solve, None for other solvers.
    """

    X: AdaptedProcess
    Y: AdaptedProcess
    Z: AdaptedProcess
    residuals: ResidualReport
    riccati: Optional[RiccatiData] = None


@dataclass(frozen=True)
class Unsolvable:
    """Certified failure: the nodes whose matrices are singular."""

    singular_nodes: tuple
    riccati: RiccatiData


def _script_level(tree, coeffs, t):
    """Stacked per-branch slope coefficients for every depth-t node.

    Stacking the N branch equations of the forward step turns the scalar
    coefficient k into a column 1 k + (I - 1 P^T) kbar^T; the Z coupling
    becomes an N x N matrix.  Returns (a, b, c) with shapes (n, N), (n, N),
    (n, N, N); ``_script_offset`` stacks (D, D_bar) into d the same way.
    """
    Pt = tree.transition[t]
    A, B = coeffs.A[t], coeffs.B[t]
    Abar, Bbar = coeffs.A_bar[t], coeffs.B_bar[t]
    C, Cbar = coeffs.C[t], coeffs.C_bar[t]
    scr_a = (1.0 + A)[:, None] + Abar - np.einsum("nj,nj->n", Abar, Pt)[:, None]
    scr_b = B[:, None] + Bbar - np.einsum("nj,nj->n", Bbar, Pt)[:, None]
    scr_c = (
        C[:, None, :]
        + np.swapaxes(Cbar, 1, 2)
        - np.einsum("nk,njk->nj", Pt, Cbar)[:, None, :]
    )
    return scr_a, scr_b, scr_c


def _script_offset(tree, coeffs, t):
    """The stacked inhomogeneity column d for every depth-t node, shape (n, N)."""
    Dbar = coeffs.D_bar[t]
    return coeffs.D[t][:, None] + Dbar - np.einsum("nj,nj->n", Dbar, tree.transition[t])[:, None]


def script_coeffs(tree, coeffs, node):
    """Stacked coefficients at a single non-leaf node: (a, b, c, d) columns/matrix."""
    t, idx = _as_depth_index(tree, node)
    if t >= tree.T:
        raise LeafNodeError(f"node at depth {t} is a leaf")
    scr_a, scr_b, scr_c = _script_level(tree, coeffs, t)
    return scr_a[idx], scr_b[idx], scr_c[idx], _script_offset(tree, coeffs, t)[idx]


def _coupling_level(tree, coeffs, t, scr_b, scr_c):
    """(b P^T + c): the matrix through which next-step closures feed back."""
    Pt = tree.transition[t]
    return scr_b[:, :, None] * Pt[:, None, :] + scr_c


def _gamma_level(tree, coupling, p_child):
    """I minus the coupling matrix weighted by the child closure slopes."""
    eye = np.eye(tree.N)[None, :, :]
    return eye - coupling * p_child[:, None, :]


def _solve_columns(gamma, rhs):
    """The column x with gamma x = rhs at every node of a level.

    The child closures P X + p of a solved level are v X + w, with
    gamma v = a and gamma w = (b P^T + c) p + d.
    """
    return np.linalg.solve(gamma, rhs[:, :, None])[:, :, 0]


def _finite_level(level, what, t):
    """Raise NonFiniteSolve unless every entry of the depth-t ``level`` is finite."""
    if not np.isfinite(level).all():
        raise NonFiniteSolve(f"{what} at depth {t} overflowed to a non-finite value", depth=t)


def _slope_pass(tree, coeffs):
    """The slopes P, the per-node matrices and their certificate.

    Reads only the tree, A..C_hat and G.  The recursion needs the depth-t
    matrices inverted to continue below t; it therefore halts at the first
    level holding a singular matrix.  Each level it reaches adds its ratio
    and flag arrays to the certificate, and one node id: that of its
    weakest matrix.  A level of P or of the matrices that overflows raises
    NonFiniteSolve before its singular values are taken.
    """
    T, N = tree.T, tree.N
    P_levels = [None] * (T + 1)
    gamma_levels = [None] * T
    a_levels = [None] * T
    coupling_levels = [None] * T
    theta_levels = [None] * T
    ratio_levels, ok_levels, weakest = [], [], []

    P_levels[T] = -coeffs.A_hat[T] + (1.0 - coeffs.B_hat[T]) * coeffs.G

    for t in range(T - 1, -1, -1):
        _finite_level(P_levels[t + 1], "the slope P", t + 1)
        n = tree.num_nodes(t)
        scr_a, scr_b, scr_c = _script_level(tree, coeffs, t)
        coupling = _coupling_level(tree, coeffs, t, scr_b, scr_c)
        P_child = P_levels[t + 1].reshape(n, N)
        gamma = _gamma_level(tree, coupling, P_child)
        _finite_level(gamma, "the per-node matrix", t)
        gamma_levels[t], a_levels[t], coupling_levels[t] = gamma, scr_a, coupling

        svals = np.linalg.svd(gamma, compute_uv=False)
        smax, smin = svals[:, 0], svals[:, -1]
        ratios = np.where(smax > 0.0, smin / np.where(smax > 0.0, smax, 1.0), 0.0)
        ok = (smax > 0.0) & (ratios > SINGULAR_RATIO)
        ratio_levels.append(ratios)
        ok_levels.append(ok)
        idx = int(np.argmin(ratios))
        weakest.append(GammaVerdict(tree.node_id(t, idx), float(ratios[idx]), bool(ok[idx])))
        if not ok.all():
            break
        if t >= 1:
            theta = (1.0 - coeffs.B_hat[t])[:, None] * tree.transition[t] - coeffs.C_hat[t]
            theta_levels[t] = theta
            v = _solve_columns(gamma, scr_a)
            P_levels[t] = -coeffs.A_hat[t] + np.einsum("nj,nj,nj->n", theta, P_child, v)

    # the memo shares these arrays with every later solve
    for lev in (*P_levels, *gamma_levels, *a_levels, *coupling_levels, *theta_levels,
                *ratio_levels, *ok_levels):
        if lev is not None:
            lev.flags.writeable = False
    certificate = SolvabilityCertificate(
        tree, tuple(ratio_levels), tuple(ok_levels), tuple(weakest), bool(ok_levels[-1].all())
    )
    return _SlopePass(
        tuple(P_levels), tuple(gamma_levels), certificate,
        tuple(a_levels), tuple(coupling_levels), tuple(theta_levels),
    )


def _offset_pass(tree, coeffs, slopes):
    """The offsets p over a finished slope pass; returns the full RiccatiData.

    The only part of the backward pass that reads D, D_bar, D_hat and g.  It
    stops where the slope pass halted.  A level that overflows raises
    NonFiniteSolve naming the deepest such level.
    """
    T, N = tree.T, tree.N
    p_levels = [None] * (T + 1)
    p_levels[T] = (1.0 - coeffs.B_hat[T]) * coeffs.g - coeffs.D_hat[T]
    for t in range(T - 1, 0, -1):
        if slopes.P_levels[t] is None:
            break
        n = tree.num_nodes(t)
        P_child = slopes.P_levels[t + 1].reshape(n, N)
        p_child = p_levels[t + 1].reshape(n, N)
        theta = slopes.theta_levels[t]
        rhs = (
            np.einsum("nij,nj->ni", slopes.coupling_levels[t], p_child)
            + _script_offset(tree, coeffs, t)
        )
        w = _solve_columns(slopes.gamma_levels[t], rhs)
        p_levels[t] = (
            np.einsum("nj,nj,nj->n", theta, P_child, w)
            + np.einsum("nj,nj->n", theta, p_child)
            - coeffs.D_hat[t]
        )
    for t in range(T, 0, -1):
        if p_levels[t] is not None:
            _finite_level(p_levels[t], "the offset p", t)
    return RiccatiData(slopes, tuple(p_levels))


def _check_tree(tree, coeffs):
    """Raise ShapeMismatch unless ``tree`` has the N and T of ``coeffs.tree``."""
    if (tree.N, tree.T) != (coeffs.tree.N, coeffs.tree.T):
        raise ShapeMismatch(f"tree has N={tree.N}, T={tree.T}; the coefficients "
                            f"N={coeffs.tree.N}, T={coeffs.tree.T}")


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, as NonFiniteSolve
def riccati_backward(tree: ScenarioTree, coeffs: LinearCoefficients) -> RiccatiData:
    """Run the backward decoupling recursion and certify each node's matrix.

    A slope pass (P, the per-node matrices and their certificate, from the
    homogeneous coefficients) and an offset pass (p, from the
    inhomogeneities).  The slope pass is memoized per tree in the table
    ``coeffs`` shares with its ``with_inhomogeneities`` copies, so on a hit
    only the offsets are computed.  Singularity is a certificate outcome,
    not an error; a level that overflows raises NonFiniteSolve.
    """
    _check_tree(tree, coeffs)
    slopes = coeffs._memo.get(tree)
    if slopes is None:
        slopes = coeffs._memo[tree] = _slope_pass(tree, coeffs)
    return _offset_pass(tree, coeffs, slopes)


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, as NonFiniteSolve
def solve_linear(tree: ScenarioTree, coeffs: LinearCoefficients, x0: float):
    """Solve the coupled linear system; certify failure instead of guessing.

    Returns an FbsdeSolution when every per-node matrix is invertible,
    otherwise an Unsolvable carrying the singular node list; either carries
    the backward pass's RiccatiData.  On success the per-branch residuals of
    both equations are evaluated exhaustively and reported.  A backward
    pass or a solution that overflows raises NonFiniteSolve: the residuals
    keep NaN, so a non-finite solution shows in them.
    """
    if not np.isfinite(x0):
        raise NonFiniteInput(f"x0 = {x0!r}")
    ric = riccati_backward(tree, coeffs)
    if not ric.certificate.all_invertible:
        return Unsolvable(ric.certificate.singular_nodes, ric)

    T, N = tree.T, tree.N
    slope_pass = ric.slope_pass
    X = [np.array([float(x0)])]
    for t in range(T):
        n = tree.num_nodes(t)
        p_child = ric.p_levels[t + 1].reshape(n, N)
        rhs = (
            slope_pass.a_levels[t] * X[t][:, None]
            + np.einsum("nij,nj->ni", slope_pass.coupling_levels[t], p_child)
            + _script_offset(tree, coeffs, t)
        )
        X.append(_solve_columns(ric.gamma_levels[t], rhs).reshape(-1))

    Y = [None] * (T + 1)
    Z = [None] * T
    Y[T] = _terminal(coeffs, slice(None), X[T])
    for t in range(T):
        n = tree.num_nodes(t)
        lam = (ric.P_levels[t + 1] * X[t + 1] + ric.p_levels[t + 1]).reshape(n, N)
        Y[t] = np.einsum("nj,nj->n", tree.transition[t], lam)
        Z[t] = lam - lam[:, -1:]

    report = linear_residuals(tree, coeffs, X, Y, Z)
    if not (np.isfinite(report.forward) and np.isfinite(report.backward)):
        raise NonFiniteSolve(f"the solution overflowed: residuals forward {report.forward}, "
                             f"backward {report.backward}")
    return FbsdeSolution(
        AdaptedProcess(tree, 0, X),
        AdaptedProcess(tree, 0, Y),
        AdaptedProcess(tree, 0, Z),
        report,
        ric,
    )


def _drift(coeffs, t, at, x, y, z):
    """Forward drift A x + B y + C z + D of the depth-t nodes ``at``, an index
    array or ``slice(None)`` (the whole level, as views); ``z`` holds their rows."""
    return (coeffs.A[t][at] * x + coeffs.B[t][at] * y
            + np.einsum("nj,nj->n", z, coeffs.C[t][at]) + coeffs.D[t][at])


def _diffusion(coeffs, t, at, x, y, z):
    """Forward increment loading x A_bar + y B_bar + z C_bar + D_bar, one row a node."""
    return (x[:, None] * coeffs.A_bar[t][at] + y[:, None] * coeffs.B_bar[t][at]
            + np.einsum("nj,njk->nk", z, coeffs.C_bar[t][at]) + coeffs.D_bar[t][at])


def _generator(coeffs, t, at, x, y, z):
    """Backward generator -(A_hat x + B_hat y + D_hat + C_hat z); ``z`` is
    not read at the horizon, where C_hat vanishes."""
    val = coeffs.A_hat[t][at] * x + coeffs.B_hat[t][at] * y + coeffs.D_hat[t][at]
    if t < coeffs.tree.T:
        val = val + np.einsum("nj,nj->n", z, coeffs.C_hat[t][at])
    return -val


def _terminal(coeffs, at, x):
    """Terminal values G x + g of the leaves ``at``."""
    return coeffs.G[at] * x + coeffs.g[at]


def linear_residuals(tree, coeffs, X, Y, Z) -> ResidualReport:
    """Exhaustive per-branch residuals of both equations.

    Insensitive to the row representative of Z thanks to the validated
    zero-sum conditions.
    """
    _check_tree(tree, coeffs)
    X = _process_levels(tree, X, range(tree.T + 1), "X", ())
    Y = _process_levels(tree, Y, range(tree.T + 1), "Y", ())
    # no row at the horizon, where the generator reads none
    Z = _process_levels(tree, Z, range(tree.T), "Z", (tree.N,)) + [None]
    every = slice(None)
    levels = range(tree.T)
    b = [_drift(coeffs, t, every, X[t], Y[t], Z[t]) for t in levels]
    sigma = [_diffusion(coeffs, t, every, X[t], Y[t], Z[t]) for t in levels]
    f = [None] + [_generator(coeffs, t + 1, every, X[t + 1], Y[t + 1], Z[t + 1]) for t in levels]
    return ResidualReport(*worst_defects(tree, X, Y, Z, b, sigma, f))


def _extended_contraction_matrix(N):
    """The N x N matrix sending a row to its canonical form (zero last column).

    Columns 1..N-1 are e_j - e_N, the last column is zero, so every column
    sums to zero and row products with increments are unchanged.
    """
    mat = np.zeros((N, N))
    mat[:N - 1, :N - 1] = np.eye(N - 1)
    mat[N - 1, :N - 1] = -1.0
    return mat


def special_coefficients(tree, D=None, D_bar=None, D_hat=None, g=None) -> LinearCoefficients:
    """Coefficients of the self-coupled inhomogeneous form.

    Forward drift -Y, forward increment loading -Z (through the canonical
    contraction), backward drift -X_{t+1}, terminal Y_T = X_T + g, plus the
    supplied inhomogeneities, shaped as ``LinearCoefficients`` takes them
    (``D_hat`` as levels over times 1..T).
    """
    return LinearCoefficients(
        tree,
        B=-1.0,
        A_hat=-1.0,
        C_bar=-_extended_contraction_matrix(tree.N),
        G=1.0,
        D=D,
        D_bar=D_bar,
        D_hat=D_hat,
        g=g,
    )


def solve_special(tree, D=None, D_bar=None, D_hat=None, g=None, x0=0.0, *,
                  form=None) -> FbsdeSolution:
    """Solve the self-coupled special form; always uniquely solvable.

    Its decoupling recursion is deterministic with P > 1 at every level, so
    the per-node matrices are diagonal with entries 1 + P.  ``form`` is the
    homogeneous ``special_coefficients(tree)`` to solve through: its slope
    pass is memoized, so repeated solves redo only the offsets and the
    forward pass.  Without it the form is built for this one solve.
    """
    if form is None:
        form = special_coefficients(tree)
    coeffs = form.with_inhomogeneities(D, D_bar, D_hat, g)
    result = solve_linear(tree, coeffs, x0)
    if isinstance(result, Unsolvable):  # pragma: no cover - P > 1 rules this out
        raise SingularCertificate(
            f"special form reported singular nodes {result.singular_nodes}"
        )
    return result


def decoupling_coefficients(tree, coeffs, riccati):
    """Affine maps (slope, offset) with Y_t = slope_t X_t + offset_t nodewise.

    Requires an all-invertible certificate.  At the horizon the maps are the
    terminal (G, g); below, they come from the solved child closures.
    """
    _check_tree(tree, coeffs)
    if not riccati.complete:
        raise SingularCertificate(
            f"singular nodes: {riccati.certificate.singular_nodes}"
        )
    T, N = tree.T, tree.N
    slope = [None] * (T + 1)
    offset = [None] * (T + 1)
    slope[T] = coeffs.G.copy()
    offset[T] = coeffs.g.copy()
    slopes = riccati.slope_pass
    for t in range(T):
        n = tree.num_nodes(t)
        Pt = tree.transition[t]
        gamma = slopes.gamma_levels[t]
        P_child = slopes.P_levels[t + 1].reshape(n, N)
        p_child = riccati.p_levels[t + 1].reshape(n, N)
        v = _solve_columns(gamma, slopes.a_levels[t])
        w = _solve_columns(
            gamma,
            np.einsum("nij,nj->ni", slopes.coupling_levels[t], p_child)
            + _script_offset(tree, coeffs, t),
        )
        slope[t] = np.einsum("nj,nj,nj->n", Pt, P_child, v)
        offset[t] = np.einsum("nj,nj,nj->n", Pt, P_child, w) + np.einsum(
            "nj,nj->n", Pt, p_child
        )
    return AdaptedProcess(tree, 0, slope), AdaptedProcess(tree, 0, offset)
