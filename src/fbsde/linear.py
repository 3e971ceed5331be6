"""Fully coupled linear forward-backward solver on a scenario tree.

The backward pass runs a scalar decoupling recursion (P, p) together with a
per-node N x N matrix whose invertibility at every non-leaf node makes the
coupled system uniquely solvable from every node.  The certificate keeps
those verdicts as one pair of arrays per level (condition ratios and
invertible flags); node ids are built only for the singular nodes and each
level's weakest node, and the per-node verdict list only on request.
Inverting a level's matrices turns the child values into the affine
closure X_child = v X + w of the parent's X (v from the slope pass, w from
the offset pass), so the forward pass evaluates those closures and solves
nothing; Y, Z follow from conditional expectations of the affine closure
P X + p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AssumptionViolation,
    NonFiniteInput,
    NonFiniteSolve,
    ShapeMismatch,
    SingularCertificate,
)
from .martingale import canonicalize, worst_defects
from .tree import AdaptedProcess, NodeId, ScenarioTree, _process_array

#: Zero-sum validation tolerance for the structural coupling conditions.
ZERO_SUM_TOL = 1e-12

#: A per-node matrix counts as singular when its smallest singular value is
#: at most this fraction of its largest (scale-free test).
SINGULAR_RATIO = 1e-10


def _depth(value):
    """Nesting depth of an array or nested list, read along first entries."""
    depth = 0
    while isinstance(value, (list, tuple)) and len(value):
        depth, value = depth + 1, value[0]
    return depth + np.ndim(value)


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
    """One level-order array over the depth-t nodes, t in ``times``, each
    node's entry of shape ``cell``.

    ``value`` is None (zeros), one cell shared by every node, one entry per
    time (each a cell shared by that level's nodes or the whole level), or
    the whole field as one level-order ndarray.  The forms are told apart
    by nesting depth, never by converting a ragged list.  The array is a
    fresh C-contiguous one, each level written into its view: einsum sums
    other layouts in another order.
    """
    shape = (tree.offsets[times.stop] - tree.offsets[times.start],) + cell
    if isinstance(value, np.ndarray) and value.shape == shape:
        return np.array(value, dtype=float, order="C")
    out = np.zeros(shape)
    if value is None:
        return out
    if _depth(value) == len(cell):
        value = [value] * len(times)
    elif _depth(value) < len(cell) or len(value) != len(times):
        got = f", got shape {value.shape}" if isinstance(value, np.ndarray) else ""
        raise ShapeMismatch(f"{name}: expected a cell of shape {cell} or {len(times)} levels, "
                            f"or a level-order array of shape {shape}{got}", field=name)
    for t, lev, view in zip(times, value, tree.views(out, times)):
        where = f"{name} level {t}"
        view[...] = _array(lev, cell if _depth(lev) == len(cell) else view.shape, name, where)
    return out


#: Every coefficient field, in the order ``validate`` checks them, with the
#: rank of its cell (scalar, column or matrix).
_FIELDS = {"A": 0, "B": 0, "C": 1, "D": 0, "A_bar": 1, "B_bar": 1, "C_bar": 2, "D_bar": 1,
           "A_hat": 0, "B_hat": 0, "C_hat": 1, "D_hat": 0, "G": 0, "g": 0}

#: The inhomogeneities; the backward pass reads them only for the offsets p.
_INHOMOGENEOUS = ("D", "D_bar", "D_hat", "g")

#: The fields of the terminal condition, which live on the leaves only.
_LEAF = ("G", "g")


def _field_times(name, T):
    """The times field ``name`` lives on: 0..T-1 for plain and barred
    fields, 1..T for hatted ones, T for the leaf fields G and g."""
    if name in _LEAF:
        return range(T, T + 1)
    return range(1, T + 1) if name.endswith("_hat") else range(T)


class LinearCoefficients:
    """Coefficient set of the coupled linear system.

    Plain (A, B, C, D) drive the forward drift, barred rows the forward
    increment loading, hatted ones the backward equation, and (G, g) the
    terminal condition Y_T = G X_T + g.  Scalar fields are per-node scalars,
    C and C_hat per-node columns stored as (n, N) arrays, C_bar per-node
    N x N matrices.  Hatted fields live on times 1..T and are stored in
    tuples indexed by absolute time with entry 0 unused.  Each field is one
    read-only level-order array, ``arrays[name]``, and its levels are views
    of it.

    The structural conditions (columns of C, C_hat and every column of each
    C_bar matrix sum to zero; C_hat vanishes at the horizon) make each
    equation insensitive to the row representative of Z.  A coefficient set
    is valid and read-only for its whole life: the constructor validates it
    and freezes every level array, and no field can be assigned afterwards.
    So the slope pass of ``riccati_backward``, which reads only the tree and
    the homogeneous fields, is memoized in one slot that every
    ``with_inhomogeneities`` copy shares.  Every linear computation runs on
    the tree the set was built on; to solve under another transition law
    of the same shape, rebind the arrays:
    ``LinearCoefficients(other_tree, **coeffs.arrays)``.
    """

    def __init__(self, tree, *, A=None, B=None, C=None, D=None,
                 A_bar=None, B_bar=None, C_bar=None, D_bar=None,
                 A_hat=None, B_hat=None, C_hat=None, D_hat=None,
                 G=None, g=None):
        vars(self).update(tree=tree, arrays={}, _memo=[None])  # _memo[0]: the _SlopePass
        self._set(A=A, B=B, C=C, A_bar=A_bar, B_bar=B_bar, C_bar=C_bar,
                  A_hat=A_hat, B_hat=B_hat, C_hat=C_hat, G=G)
        self._set(D=D, D_bar=D_bar, D_hat=D_hat, g=g)
        self.validate()

    def __setattr__(self, name, value):
        raise AttributeError(f"LinearCoefficients are read-only: cannot set {name}")

    def _set(self, **values):
        """Shape each field into its read-only array and set its level views:
        a tuple by time (entry 0 None for a hatted field), or for a leaf
        field its one level."""
        tree, T = self.tree, self.tree.T
        for name, value in values.items():
            leaf, times = name in _LEAF, _field_times(name, T)
            if leaf and value is not None and getattr(value, "shape", None) != (tree.N**T,):
                value = [value]  # the one level, unless given as the whole field
            arr = _levels(tree, value, times, (tree.N,) * _FIELDS[name], name)
            arr.flags.writeable = False
            self.arrays[name] = arr
            views = tree.views(arr, times)
            vars(self)[name] = arr if leaf else (None,) * times.start + views

    def with_inhomogeneities(self, D=None, D_bar=None, D_hat=None, g=None):
        """A copy with new D, D_bar, D_hat and g, each checked for finiteness.

        Every other level array and the slope memo are shared, so solving
        the copy recomputes only the offsets of the backward pass.
        """
        new = object.__new__(type(self))  # a shallow copy, past __setattr__
        vars(new).update(vars(self), arrays=dict(self.arrays))
        new._set(D=D, D_bar=D_bar, D_hat=D_hat, g=g)
        new._check_finite(_INHOMOGENEOUS)
        return new

    def _check_finite(self, names):
        """Raise NonFiniteInput for the first of ``names`` with a NaN or inf entry."""
        for name in names:
            if not np.isfinite(self.arrays[name]).all():
                raise NonFiniteInput(f"coefficient {name} has non-finite entries")

    @np.errstate(over="ignore")  # a finite field whose sum overflows fails, as inf
    def validate(self):
        """Check finiteness and the structural zero-sum conditions.

        Each condition is reduced once over its whole level-order field, in
        the order C columns, C_bar columns, C_hat columns, C_hat at the
        horizon, and names the first failing node in level order: a set
        with faults under two conditions reports the first condition's.
        The constructor runs it; a coefficient set cannot change afterwards.
        """
        tree, arrays = self.tree, self.arrays
        self._check_finite(_FIELDS)
        C_hat = arrays["C_hat"]
        for condition, start, defect in (
            ("C column must sum to zero", 0, np.abs(arrays["C"].sum(axis=1))),
            # sum over rows j of C_bar[j, i], the worst column of each node
            ("every C_bar column must sum to zero", 0,
             np.abs(arrays["C_bar"].sum(axis=1)).max(axis=1)),
            ("C_hat column must sum to zero", 1, np.abs(C_hat.sum(axis=1))),
            ("C_hat must vanish at the horizon", tree.T,
             np.abs(C_hat[tree.offsets[tree.T] - tree.offsets[1]:]).max(axis=1)),
        ):
            bad = defect > ZERO_SUM_TOL
            if bad.any():
                k = tree.offsets[start] + int(np.argmax(bad))
                raise AssumptionViolation(condition, tree.node_id(*tree.locate(k)))


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

    Beside P (``P_array`` in level order over times 1..T, ``P_levels`` its
    views), the per-node matrices and their level-array certificate it
    keeps, per level t it passed, the slope ``v`` of the child closures
    X_child = v X + w (the matrix's inverse times the stacked column a);
    and per level t, passed or not, the feedback matrix ``coupling`` and
    (for t >= 1) the contraction ``theta`` of the child closures, views of
    whole-tree tables, for the later passes.
    """

    P_array: np.ndarray
    P_levels: tuple
    gamma_levels: tuple
    certificate: SolvabilityCertificate
    v_levels: tuple
    coupling_levels: tuple
    theta_levels: tuple


@dataclass(frozen=True)
class RiccatiData(_SlopePass):
    """Backward-recursion output: the slope pass plus its offsets p and w.

    ``P_levels``/``p_levels`` are indexed by absolute time (entries below the
    first solvable level, and entry 0, are None); ``gamma_levels[t]`` stacks
    the depth-t matrices.  When a level contains a singular matrix the
    recursion stops there, with the ratios and flags of that whole level in
    the certificate.  The slope pass's fields are the memoized pass's own
    objects, shared by every solve through it; ``p_levels`` are views of
    ``p_array``, the offsets in level order over times 1..T, and
    ``w_levels[t]`` is the offset of the child closures X_child = v X + w
    (None if not reached).
    """

    p_array: np.ndarray
    p_levels: tuple
    w_levels: tuple


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


def _stack(k, kbar, rows):
    """k 1 + kbar - (kbar . P) 1 at each non-leaf node: the column that
    stacking its N branch equations makes of a coefficient k and its
    increment loading kbar, P the node's transition row.  A matrix kbar
    (m, N, N), with k (m, N), stacks each of its rows."""
    return k[..., None] + kbar - np.einsum("n...j,nj->n...", kbar, rows)[..., None]


def _script(coeffs):
    """The stacked branch equations of all m non-leaf nodes: the column a
    of X, (m, N), and the feedback matrix b P^T + c, (m, N, N), through
    which the child closures feed back; ``_script_offset`` stacks d."""
    c, rows = coeffs.arrays, coeffs.tree.rows
    scr_c = np.swapaxes(_stack(c["C"], c["C_bar"], rows), 1, 2)
    scr_b = _stack(c["B"], c["B_bar"], rows)
    return _stack(1.0 + c["A"], c["A_bar"], rows), scr_b[:, :, None] * rows[:, None, :] + scr_c


def _script_offset(coeffs):
    """The stacked inhomogeneity column d of every non-leaf node, (m, N)."""
    return _stack(coeffs.arrays["D"], coeffs.arrays["D_bar"], coeffs.tree.rows)


def _solve_columns(gamma, rhs):
    """The column x with gamma x = rhs at every node of a level, in one
    batched LAPACK solve: the closure slopes v solve gamma v = a, the
    offsets w solve gamma w = (b P^T + c) p + d."""
    return np.linalg.solve(gamma, rhs[:, :, None])[:, :, 0]


def _finite_level(level, what, t):
    """Raise NonFiniteSolve unless every entry of the depth-t ``level`` is finite."""
    if not np.isfinite(level).all():
        raise NonFiniteSolve(f"{what} at depth {t} overflowed to a non-finite value", depth=t)


def _slope_pass(coeffs):
    """The slopes P, the per-node matrices and their certificate.

    Reads only the tree, A..C_hat and G.  ``_script``'s tables and theta are
    built once for the whole tree and cut into levels; the recursion needs
    the depth-t matrices inverted to continue below t, so it halts at the
    first level holding a singular matrix.  Each level it reaches adds its
    ratio and flag arrays to the certificate, and one node id: that of its
    weakest matrix.  A level of P or of the matrices that overflows raises
    NonFiniteSolve before its singular values are taken.
    """
    tree, c = coeffs.tree, coeffs.arrays
    T, N = tree.T, tree.N
    P_array = np.zeros(tree.offsets[T + 1] - 1)
    P_views = (None, *tree.views(P_array, range(1, T + 1)))
    a, coupling = _script(coeffs)
    # the contraction of the child closures at the nodes of times 1..T-1
    k = tree.offsets[T] - 1
    theta = (1.0 - c["B_hat"][:k])[:, None] * tree.rows[1:] - c["C_hat"][:k]
    coupling.flags.writeable = theta.flags.writeable = False  # shared through the slope memo
    a_levels, coupling_levels = tree.views(a, range(T)), tree.views(coupling, range(T))
    theta_levels = (None, *tree.views(theta, range(1, T)))
    gamma_levels, v_levels = [None] * T, [None] * T
    ratio_levels, ok_levels, weakest = [], [], []

    P_views[T][...] = -coeffs.A_hat[T] + (1.0 - coeffs.B_hat[T]) * coeffs.G

    for t in range(T - 1, -1, -1):
        _finite_level(P_views[t + 1], "the slope P", t + 1)
        P_child = P_views[t + 1].reshape(-1, N)
        gamma = gamma_levels[t] = np.eye(N)[None, :, :] - coupling_levels[t] * P_child[:, None, :]
        _finite_level(gamma, "the per-node matrix", t)

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
        v = v_levels[t] = _solve_columns(gamma, a_levels[t])
        if t:
            theta = theta_levels[t]
            P_views[t][...] = -coeffs.A_hat[t] + np.einsum("nj,nj,nj->n", theta, P_child, v)

    # P reaches down to depth t + 1, t the level where the pass ended
    P_levels = (None,) * (t + 1) + P_views[t + 1 :]
    for lev in (P_array, *P_levels, *gamma_levels, *v_levels, *ratio_levels, *ok_levels):
        if lev is not None:
            lev.flags.writeable = False
    certificate = SolvabilityCertificate(
        tree, tuple(ratio_levels), tuple(ok_levels), tuple(weakest), bool(ok_levels[-1].all())
    )
    return _SlopePass(P_array, P_levels, tuple(gamma_levels), certificate,
                      tuple(v_levels), coupling_levels, theta_levels)


def _offset_pass(coeffs, slopes):
    """The offsets p and the closure offsets w over a finished slope pass;
    returns the RiccatiData of ``slopes``' own field objects and these offsets.

    The only part of the backward pass that reads D, D_bar, D_hat and g.  It
    stops where the slope pass halted.  A level of p that overflows raises
    NonFiniteSolve naming the deepest such level.
    """
    tree = coeffs.tree
    T, N = tree.T, tree.N
    p_array = np.zeros(tree.offsets[T + 1] - 1)
    p_levels = [None, *tree.views(p_array, range(1, T + 1))]
    p_levels[T][...] = (1.0 - coeffs.B_hat[T]) * coeffs.g - coeffs.D_hat[T]
    d_levels = tree.views(_script_offset(coeffs), range(T))
    w_levels = [None] * T
    for t in range(T - 1, -1, -1):
        if slopes.v_levels[t] is None:  # the level where the slope pass halted
            p_levels[1 : t + 1] = [None] * t
            break
        n = tree.num_nodes(t)
        p_child = p_levels[t + 1].reshape(n, N)
        feedback = np.einsum("nij,nj->ni", slopes.coupling_levels[t], p_child)
        w = w_levels[t] = _solve_columns(slopes.gamma_levels[t], feedback + d_levels[t])
        if t:
            theta, P_child = slopes.theta_levels[t], slopes.P_levels[t + 1].reshape(n, N)
            p_levels[t][...] = (np.einsum("nj,nj,nj->n", theta, P_child, w)
                                + np.einsum("nj,nj->n", theta, p_child) - coeffs.D_hat[t])
    if not np.isfinite(p_array).all():  # raises before the levels not reached (zeros, None)
        for t in range(T, 0, -1):
            _finite_level(p_levels[t], "the offset p", t)
    return RiccatiData(**vars(slopes), p_array=p_array, p_levels=tuple(p_levels),
                       w_levels=tuple(w_levels))


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, as NonFiniteSolve
def riccati_backward(coeffs: LinearCoefficients) -> RiccatiData:
    """Run the backward decoupling recursion on ``coeffs.tree`` and certify
    each node's matrix.

    A slope pass (P, the per-node matrices and their certificate, from the
    homogeneous coefficients) and an offset pass (p, from the
    inhomogeneities).  The slope pass is memoized in the slot ``coeffs``
    shares with its ``with_inhomogeneities`` copies, so on a hit only the
    offsets are computed.  Singularity is a certificate outcome, not an
    error; a level that overflows raises NonFiniteSolve.
    """
    memo = coeffs._memo
    if memo[0] is None:
        memo[0] = _slope_pass(coeffs)
    return _offset_pass(coeffs, memo[0])


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked, as NonFiniteSolve
def solve_linear(coeffs: LinearCoefficients, x0: float):
    """Solve the coupled linear system on ``coeffs.tree``; certify failure
    instead of guessing.

    Returns an FbsdeSolution when every per-node matrix is invertible,
    otherwise an Unsolvable carrying the singular node list; either carries
    the backward pass's RiccatiData.  On success the per-branch residuals of
    both equations are evaluated exhaustively and reported.  A backward
    pass or a solution that overflows raises NonFiniteSolve: the residuals
    keep NaN, so a non-finite solution shows in them.
    """
    if not np.isfinite(x0):
        raise NonFiniteInput(f"x0 = {x0!r}")
    ric = riccati_backward(coeffs)
    if not ric.certificate.all_invertible:
        return Unsolvable(ric.certificate.singular_nodes, ric)

    tree = coeffs.tree
    T, N, m = tree.T, tree.N, tree.offsets[tree.T]
    X = np.empty(tree.offsets[T + 1])
    X[0] = x0
    X_levels = tree.views(X, range(T + 1))
    for t in range(T):  # the child closures X_child = v X + w
        X_levels[t + 1][...] = (ric.v_levels[t] * X_levels[t][:, None] + ric.w_levels[t]).ravel()

    # every non-leaf node's child closures P X + p at once
    lam = (ric.P_array * X[1:] + ric.p_array).reshape(m, N)
    Y = np.concatenate([np.einsum("nj,nj->n", tree.rows, lam),
                        _terminal(coeffs.arrays, slice(None), X[m:])])
    X, Y, Z = (AdaptedProcess.from_array(tree, 0, v) for v in (X, Y, canonicalize(lam)))
    report = linear_residuals(coeffs, X, Y, Z)
    if not (np.isfinite(report.forward) and np.isfinite(report.backward)):
        raise NonFiniteSolve(f"the solution overflowed: residuals forward {report.forward}, "
                             f"backward {report.backward}")
    return FbsdeSolution(X, Y, Z, report, ric)


def _drift(c, at, x, y, z):
    """Forward drift A x + B y + C z + D of the non-leaf nodes ``at``, an
    index array into the fields' level-order arrays ``c`` or ``slice(None)``
    (every node, as views); ``z`` holds their rows."""
    return c["A"][at] * x + c["B"][at] * y + np.einsum("nj,nj->n", z, c["C"][at]) + c["D"][at]


def _diffusion(c, at, x, y, z):
    """Forward increment loading x A_bar + y B_bar + z C_bar + D_bar, one row a node."""
    return (x[:, None] * c["A_bar"][at] + y[:, None] * c["B_bar"][at]
            + np.einsum("nj,njk->nk", z, c["C_bar"][at]) + c["D_bar"][at])


def _generator(c, at, x, y, z):
    """Backward generator -(A_hat x + B_hat y + D_hat + C_hat z) of the
    nodes ``at`` of times 1..T.  ``z`` holds the rows of the first len(z)
    of them, or is None: leaves, where C_hat vanishes, read no row."""
    val = c["A_hat"][at] * x + c["B_hat"][at] * y + c["D_hat"][at]
    if z is not None:
        val[: len(z)] = val[: len(z)] + np.einsum("nj,nj->n", z, c["C_hat"][at][: len(z)])
    return -val


def _terminal(c, at, x):
    """Terminal values G x + g of the leaves ``at``."""
    return c["G"][at] * x + c["g"][at]


def linear_residuals(coeffs, X, Y, Z) -> ResidualReport:
    """Exhaustive per-branch residuals of both equations on ``coeffs.tree``,
    the backward one with its terminal row Y_T - (G X_T + g).

    Insensitive to the row representative of Z thanks to the validated
    zero-sum conditions.
    """
    tree = coeffs.tree
    X = _process_array(tree, X, range(tree.T + 1), "X", ())
    Y = _process_array(tree, Y, range(tree.T + 1), "Y", ())
    Z = _process_array(tree, Z, range(tree.T), "Z", (tree.N,))
    c, every, m = coeffs.arrays, slice(None), tree.offsets[tree.T]
    b = _drift(c, every, X[:m], Y[:m], Z)
    sigma = _diffusion(c, every, X[:m], Y[:m], Z)
    # the generator on times 1..T: rows for the non-leaf nodes 1..m-1 only
    f = _generator(c, every, X[1:], Y[1:], Z[1:])
    terminal = Y[m:] - _terminal(c, every, X[m:])
    return ResidualReport(*worst_defects(tree, X, Y, Z, b, sigma, f, terminal))


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
        # the rows of the identity's canonical form: a row times it is the
        # row's canonical form, and every column sums to zero
        C_bar=-canonicalize(np.eye(tree.N)),
        G=1.0,
        D=D,
        D_bar=D_bar,
        D_hat=D_hat,
        g=g,
    )


def solve_special(form, D=None, D_bar=None, D_hat=None, g=None, x0=0.0) -> FbsdeSolution:
    """Solve the self-coupled special form; always uniquely solvable.

    Its decoupling recursion is deterministic with P > 1 at every level, so
    each per-node matrix is invertible.  ``form`` is the homogeneous
    ``special_coefficients(tree)`` to solve through: its slope pass is
    memoized, so repeated solves redo only the offset pass (one batched
    solve per level) and the forward closures.
    """
    result = solve_linear(form.with_inhomogeneities(D, D_bar, D_hat, g), x0)
    if isinstance(result, Unsolvable):  # pragma: no cover - P > 1 rules this out
        raise SingularCertificate(f"special form reported singular nodes {result.singular_nodes}")
    return result


@np.errstate(over="ignore", invalid="ignore")  # as in the backward pass that made ``riccati``
def decoupling_coefficients(coeffs, riccati):
    """Affine maps (slope, offset) with Y_t = slope_t X_t + offset_t nodewise.

    Requires an all-invertible certificate.  At the horizon the maps are the
    terminal (G, g); below, they are the conditional expectations of
    P X_child + p over the child closures X_child = v X + w.
    """
    if not riccati.certificate.all_invertible:
        raise SingularCertificate(f"singular nodes: {riccati.certificate.singular_nodes}")
    tree, c = coeffs.tree, coeffs.arrays
    m, N = tree.offsets[tree.T], tree.N
    P, p = (arr.reshape(m, N) for arr in (riccati.P_array, riccati.p_array))
    v, w = (np.concatenate(levels) for levels in (riccati.v_levels, riccati.w_levels))
    slope = np.einsum("nj,nj,nj->n", tree.rows, P, v)
    offset = np.einsum("nj,nj,nj->n", tree.rows, P, w) + np.einsum("nj,nj->n", tree.rows, p)
    return (AdaptedProcess.from_array(tree, 0, np.concatenate([slope, c["G"]])),
            AdaptedProcess.from_array(tree, 0, np.concatenate([offset, c["g"]])))
