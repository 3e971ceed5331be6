"""Problem-file schema, binding to solver inputs, and report rendering.

Problem files are UTF-8 JSON.  Coefficients may be constants, per-node
arrays (flat, level by level, lexicographic by path within a level), or
expression strings over t and w (plus the state variables for nonlinear
coefficients), where w is the node's most recent branch index (0 at the
root).  A nonlinear or bsde coefficient is evaluated a whole level at a
time, by one ``Expression.evaluate`` call per expression, which chooses how.
Reports are emitted with sorted keys so identical inputs give
byte-identical output.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linear as linear_mod
from .bsde import BsdeProblem, bsde_residual
from .errors import ExpressionError, SchemaError, ShapeMismatch
from .expressions import parse_expression
from .linear import FbsdeSolution, LinearCoefficients, special_coefficients
from .martingale import norm_constants, tilde_contract
from .nonlinear import ContinuationOptions, NonlinearProblem, nonlinear_residual
from .tree import ScenarioTree, _process_levels, build_tree

KINDS = ("bsde", "linear", "special", "nonlinear")


@dataclass(frozen=True)
class LoadedProblem:
    """A bound problem file.

    ``data`` is a LinearCoefficients for the linear and special kinds, a
    NonlinearProblem or a BsdeProblem otherwise.
    """

    kind: str
    tree: ScenarioTree
    x0: Optional[float]
    data: object
    options: ContinuationOptions


def _require(doc, field, path):
    if field not in doc:
        raise SchemaError(f"{path}.{field}", "missing required field")
    return doc[field]


def _bind_expression(source, allowed, path):
    if not isinstance(source, str):
        raise SchemaError(path, f"expected an expression string, got {type(source).__name__}")
    try:
        expr = parse_expression(source)
    except ExpressionError as err:
        raise SchemaError(path, f"bad expression: {err}") from err
    extra = expr.variables - allowed
    if extra:
        raise SchemaError(path, f"variables {sorted(extra)} not allowed here")
    return expr


def _number(value, path):
    """A JSON number as a float; anything else, or an integer beyond the float
    range, is rejected, a list or an object by its type, never printed."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise SchemaError(path, f"expected a number within the float range, got an "
                                    f"integer of {len(str(abs(value)))} digits") from None
    got = f"a {type(value).__name__}" if isinstance(value, (list, dict)) else repr(value)
    raise SchemaError(path, f"expected a number, got {got}")


def _numbers(value, ndim, path, expression=None):
    """``value``, lists nested ``ndim`` deep around numbers, as a float array.

    The walk goes one nesting level at a time, never recursively, and
    refuses lists of unequal lengths or depths.  JSON numbers alone are
    converted by one ``np.array`` call; else each leaf goes through
    ``_number``, or, a string, through ``expression(source, i)`` when given,
    i being the index of the top-level entry that holds it.
    """
    shape, leaves = [], [value]
    for depth in range(ndim):
        if not set(map(type, leaves)) <= {list}:
            stray = next(v for v in leaves if type(v) is not list)
            raise SchemaError(path, f"expected lists nested {ndim} deep, got "
                                    f"{type(stray).__name__} at depth {depth}")
        lengths = set(map(len, leaves))
        if len(lengths) > 1:
            raise SchemaError(path, f"lists of unequal lengths {min(lengths)} and "
                                    f"{max(lengths)} at depth {depth}")
        shape.append(lengths.pop() if lengths else 0)
        leaves = [v for row in leaves for v in row]
    if set(map(type, leaves)) <= {int, float}:
        try:
            return np.array(leaves, dtype=float).reshape(shape)
        except OverflowError:  # an integer past the float range, named below
            pass
    stride = int(np.prod(shape[1:]))
    return np.array([expression(v, k // stride) if expression and isinstance(v, str)
                     else _number(v, path) for k, v in enumerate(leaves)]).reshape(shape)


def _integer(value, path):
    if not _number(value, path).is_integer():
        raise SchemaError(path, f"expected a whole number, got {value!r}")
    return int(value)


def _branch_w(N, t, nodes):
    """The variable w of the depth-t ``nodes``, an index or an index array,
    as floats: 0 at the root, else the node's most recent branch, node % N + 1."""
    return nodes % N + 1.0 if t else nodes * 0.0


def _coefficient(tree, value, name):
    """One linear field's JSON value as its level-order array over
    ``linear._field_times``.

    A value nested as deep as the field's cell (a scalar, a row of N, an
    N x N matrix of numbers or expressions over t and w) is one cell shared
    by every node, read once per (t, w), as w repeats with period N along a
    level, and once in all without expressions.  One list deeper it is a
    flat per-node list, whose expressions are evaluated at their node's
    (t, w).  Cell shapes are left to LinearCoefficients.
    """
    times, ndim = linear_mod._field_times(name, tree.T), linear_mod._FIELDS[name]
    N, start, path = tree.N, tree.offsets[times.start], f"coefficients.{name}"
    total = tree.offsets[times.stop] - start
    parsed = {}

    def evaluate(source, t, w):
        if source not in parsed:
            parsed[source] = _bind_expression(source, {"t", "w"}, path)
        try:
            return parsed[source].evaluate({"t": float(t), "w": float(w)})
        except ExpressionError as err:
            raise SchemaError(path, f"{err} at t={t}, w={w:g}") from err

    if linear_mod._depth(value) == ndim:
        levels = []
        for t in times:
            n = tree.num_nodes(t)
            cells = np.array([_numbers(value, ndim, path, lambda source, _: evaluate(source, t, w))
                              for w in _branch_w(N, t, np.arange(min(n, N))).tolist()])
            if not parsed:  # numbers only: the one cell of every node
                return np.broadcast_to(cells[0], (total,) + cells.shape[1:])
            levels.append(cells[np.arange(n) % len(cells)])
        return np.concatenate(levels)
    if not isinstance(value, list) or len(value) != total:
        got = len(value) if isinstance(value, list) else type(value).__name__
        raise SchemaError(path, f"expected one shared cell or {total} per-node cells, got {got}")

    def at_node(source, k):
        t, index = tree.locate(start + k)
        return evaluate(source, t, _branch_w(N, t, index))

    return _numbers(value, ndim + 1, path, at_node)


def _unknown_keys(block, known, path):
    extra = set(block) - set(known)
    if extra:
        raise SchemaError(path, f"unknown keys {sorted(extra)}")


def _bind_tree(doc):
    block = _require(doc, "tree", "")
    _unknown_keys(block, ("N", "T", "transition"), "tree")
    N = _integer(_require(block, "N", "tree"), "tree.N")
    T = _integer(_require(block, "T", "tree"), "tree.T")
    transition = block.get("transition", "uniform")
    if not isinstance(transition, str):  # one row for every node, or one per non-leaf node
        rank = 1 + (linear_mod._depth(transition) > 1)
        transition = _numbers(transition, rank, "tree.transition")
    try:
        return build_tree(N, T, transition)
    except Exception as err:
        raise SchemaError("tree", str(err)) from err


def _bind_options(doc):
    """ContinuationOptions from the optional options block: its numbers are
    parsed here as JSON numbers, and every value is checked there."""
    raw = doc.get("options", {})
    parsers = {"tolerance": _number, "delta": _number, "max_iter": _integer,
               "max_iterations": _integer, "mode": lambda value, path: value, "seed": _integer}
    _unknown_keys(raw, parsers, "options")
    if "max_iter" in raw and "max_iterations" in raw:
        raise SchemaError("options", "give max_iter or max_iterations, not both")
    return ContinuationOptions(**{
        "max_iterations" if key == "max_iter" else key: parse(raw[key], f"options.{key}")
        for key, parse in parsers.items() if key in raw})


def _bind_linear(tree, doc, kind):
    """LinearCoefficients of a linear or special file, validated at load.

    A linear file may set every field of ``linear._FIELDS``, a special file
    its inhomogeneities; each field lives on ``linear._field_times``.
    """
    raw = doc.get("coefficients", {})
    names = linear_mod._FIELDS if kind == "linear" else linear_mod._INHOMOGENEOUS
    extra = set(raw) - set(names)
    if extra:
        raise SchemaError("coefficients", f"unknown fields {sorted(extra)}")
    kwargs = {name: _coefficient(tree, raw[name], name) for name in names if name in raw}
    build = LinearCoefficients if kind == "linear" else special_coefficients
    try:
        return build(tree, **kwargs)
    except ShapeMismatch as err:
        raise SchemaError(f"coefficients.{err.field}", str(err)) from err


_STATE_VARS = {"t", "x", "y", "w"}


def _z_vars(tree):
    return {f"z{i}" for i in range(1, tree.N)}


def _bind_f_terminal(raw, f_expr, allowed, zv):
    """The horizon generator over ``allowed``: ``f_terminal`` if the file
    gives one, else ``f``, which then may not read the contraction
    variables ``zv`` (there is no next-step row at the horizon)."""
    if "f_terminal" in raw:
        return _bind_expression(raw["f_terminal"], allowed, "coefficients.f_terminal")
    if f_expr is not None and f_expr.variables & zv:
        raise SchemaError("coefficients.f_terminal", "required because f uses contraction variables")
    return f_expr


def _environments(tree):
    """``env(t, nodes, x=None, y=None, zt=None)``: the variables of the depth-t
    ``nodes`` for ``Expression.evaluate``: t, w (each level's computed once),
    and those given of x, y and the columns z1..z{N-1} of ``zt``."""
    w_level = functools.cache(lambda t: _branch_w(tree.N, t, np.arange(tree.num_nodes(t))))

    def env(t, nodes, x=None, y=None, zt=None):
        out = {"t": float(t), "w": w_level(int(t))[nodes]}
        if x is not None:
            out["x"] = x
        if y is not None:
            out["y"] = y
        if zt is not None:
            out.update((f"z{i + 1}", zt[:, i]) for i in range(tree.N - 1))
        return out

    return env


def _bind_nonlinear(tree, doc):
    raw = _require(doc, "coefficients", "")
    for field in ("b", "sigma", "f", "h"):
        _require(raw, field, "coefficients")
    extra = set(raw) - {"b", "sigma", "f", "h", "f_terminal"}
    if extra:
        raise SchemaError("coefficients", f"unknown fields {sorted(extra)}")
    zv = _z_vars(tree)
    b_expr = _bind_expression(raw["b"], _STATE_VARS | zv, "coefficients.b")
    if not isinstance(raw["sigma"], list) or len(raw["sigma"]) != tree.N:
        raise SchemaError("coefficients.sigma", f"expected {tree.N} expressions")
    s_exprs = [
        _bind_expression(s, _STATE_VARS | zv, f"coefficients.sigma[{i}]")
        for i, s in enumerate(raw["sigma"])
    ]
    f_expr = _bind_expression(raw["f"], _STATE_VARS | zv, "coefficients.f")
    h_expr = _bind_expression(raw["h"], {"t", "x", "w"}, "coefficients.h")
    fT_expr = _bind_f_terminal(raw, f_expr, _STATE_VARS, zv)
    environment = _environments(tree)

    def drift(t, nodes, x, y, zt):
        return b_expr.evaluate(environment(t, nodes, x, y, zt))

    def diffusion(t, nodes, x, y, zt):
        # a fault raises the error of the first failing node, then expression
        env = environment(t, nodes, x, y, zt)
        columns, faults = [], []
        for j, s in enumerate(s_exprs):
            try:
                columns.append(s.evaluate(env))
            except ExpressionError as err:
                faults.append((err.node, j, err))
        if faults:
            raise min(faults)[2]
        return np.array(columns).T

    def generator(t, nodes, x, y, zt):
        expr = fT_expr if t == tree.T else f_expr
        return expr.evaluate(environment(t, nodes, x, y, zt))

    def terminal(nodes, x):
        return h_expr.evaluate(environment(tree.T, nodes, x))

    return NonlinearProblem(drift, diffusion, generator, terminal)


def _bind_bsde(tree, doc):
    terminal = _require(doc, "terminal", "")
    if not isinstance(terminal, list) or len(terminal) != tree.num_nodes(tree.T):
        raise SchemaError("terminal", f"expected {tree.num_nodes(tree.T)} leaf values")
    eta = _numbers(terminal, 1, "terminal")
    raw = doc.get("coefficients", {})
    extra = set(raw) - {"f", "f_terminal"}
    if extra:
        raise SchemaError("coefficients", f"unknown fields {sorted(extra)}")
    zv = _z_vars(tree)
    f_expr = (
        _bind_expression(raw["f"], {"t", "y", "w"} | zv, "coefficients.f")
        if "f" in raw
        else None
    )
    fT_expr = _bind_f_terminal(raw, f_expr, {"t", "y", "w"}, zv)

    environment = _environments(tree)

    def generator(t, y, zt):  # whole levels, on times 1..T
        expr = fT_expr if t == tree.T else f_expr
        return 0.0 if expr is None else expr.evaluate(environment(t, np.arange(len(y)), y=y, zt=zt))

    return BsdeProblem(terminal=eta, generator=None if fT_expr is None else generator)


def bind_problem(doc) -> LoadedProblem:
    """Validate a problem document and bind it to solver inputs."""
    if not isinstance(doc, dict):
        raise SchemaError("", "problem document must be a JSON object")
    kind = _require(doc, "kind", "")
    if kind not in KINDS:
        raise SchemaError("kind", f"expected one of {KINDS}, got {kind!r}")
    # a key the kind does not read would be dropped without a word
    _unknown_keys(doc, ("kind", "tree", "options", "coefficients",
                        "terminal" if kind == "bsde" else "x0"), "")
    for block in ("tree", "options", "coefficients"):
        if not isinstance(doc.get(block, {}), dict):
            raise SchemaError(block, "must be an object")
    tree = _bind_tree(doc)
    options = _bind_options(doc)
    x0 = None
    if kind != "bsde":
        x0 = _number(_require(doc, "x0", ""), "x0")
    if kind in ("linear", "special"):
        data = _bind_linear(tree, doc, kind)
    elif kind == "nonlinear":
        data = _bind_nonlinear(tree, doc)
    else:
        data = _bind_bsde(tree, doc)
    return LoadedProblem(kind=kind, tree=tree, x0=x0, data=data, options=options)


def load_problem(path) -> LoadedProblem:
    """Load, validate, and bind a JSON problem file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as err:  # not JSON or UTF-8, or past a parser limit
            raise SchemaError(str(path), f"invalid JSON: {err}") from err
    return bind_problem(doc)


# ---------------------------------------------------------------------------
# report payloads


def _levels_list(levels):
    return [np.asarray(lev).tolist() for lev in levels]


def solution_payload(tree, solution) -> dict:
    """Solution block: X (null for backward-only runs), Y, canonical Z rows
    and their contractions, level by level."""
    if isinstance(solution, FbsdeSolution):
        X = _process_levels(tree, solution.X, range(tree.T + 1), "X")
        Y, Z = solution.Y, solution.Z
    else:
        X = None
        Y, Z = solution
    Y = _process_levels(tree, Y, range(tree.T + 1), "Y")
    Z = _process_levels(tree, Z, range(tree.T), "Z")
    return {
        "X": None if X is None else _levels_list(X),
        "Y": _levels_list(Y),
        "Z_canonical": _levels_list(Z),
        "Z_tilde": _levels_list([tilde_contract(z) for z in Z]),
    }


def certificate_payload(tree, riccati) -> dict:
    cert = riccati.certificate
    return {
        "all_invertible": bool(cert.all_invertible),
        "singular_nodes": [{"t": n.depth, "path": list(n.path)} for n in cert.singular_nodes],
        "min_ratio": float(cert.min_ratio),
        **{name: [None if lev is None else np.asarray(lev).tolist()
                  for lev in getattr(riccati, name)[1:]] for name in ("P_levels", "p_levels")},
    }


def stats_payload(stats) -> dict:
    if stats is None:
        return {"levels": 0, "iterations": 0, "halvings": 0, "inner_solves": 1}
    return {
        "levels": len(stats.levels),
        "iterations": int(stats.iterations),
        "halvings": int(stats.halvings),
        "inner_solves": int(stats.inner_solves),
    }


def constants_payload(tree) -> dict:
    consts = norm_constants(tree)
    return {"L_lower": consts.lower, "L_upper": consts.upper}


def render_json(report) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` plus a newline.

    Each list of floats or of float rows is written with one join.  All the
    pieces go into one list joined once at the end: returning each nesting
    level's text instead copies the report's text once per level, and those
    copies grew the process's peak memory from one report to the next.
    """
    parts = []
    _json(report, "", parts)
    parts.append("\n")
    return "".join(parts)


def _json(value, indent, out):
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2,
    sort_keys=True)`` writes it at this indent: dicts with string keys and
    lists are written here, float lists and float row lists in one go,
    everything else by ``json.dumps``."""
    inner = indent + "  "
    if isinstance(value, (list, tuple)) and value:
        try:
            out.append(_float_lists(value, indent))
            return
        except TypeError:
            pass
        out.append("[\n" + inner)
        for i, item in enumerate(value):
            if i:
                out.append(",\n" + inner)
            _json(item, inner, out)
        out.append("\n" + indent + "]")
    elif isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        out.append("{\n" + inner)
        for i, key in enumerate(sorted(value)):
            out.append((",\n" + inner if i else "") + json.dumps(key) + ": ")
            _json(value[key], inner, out)
        out.append("\n" + indent + "}")
    else:
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent))


def _float_lists(value, indent):
    """A non-empty list of floats, or of non-empty float rows, as JSON.

    Raises TypeError for any other list, and for NaN or infinite entries,
    which JSON spells differently from ``float.__repr__``.
    """
    inner = indent + "  "
    if isinstance(value[0], (list, tuple)):
        row_inner = inner + "  "
        opening, sep, closing = "[\n" + row_inner, ",\n" + row_inner, "\n" + inner + "]"
        rows = []
        for row in value:
            if not isinstance(row, (list, tuple)) or not row:
                raise TypeError("not a float row")
            rows.append(opening + sep.join(map(float.__repr__, row)) + closing)
        text = (",\n" + inner).join(rows)
    else:
        text = (",\n" + inner).join(map(float.__repr__, value))
    if "n" in text:  # nan or inf
        raise TypeError("not finite")
    return "[\n" + inner + text + "\n" + indent + "]"


def render_csv(tree, solution_block) -> str:
    """One row per node: t, path, X, Y, Z_1..Z_N (empty where undefined)."""
    N, T = tree.N, tree.T
    header = ["t", "path", "X", "Y"] + [f"Z_{i + 1}" for i in range(N)]
    lines = [",".join(header)]
    X = solution_block.get("X")
    Y = solution_block["Y"]
    Z = solution_block["Z_canonical"]
    paths = [""]
    for t in range(T + 1):
        if t:
            # a node's path extends its parent's by its branch, children in order
            paths = [f"{p}-{b}" if p else str(b) for p in paths for b in range(1, N + 1)]
        xs = [""] * len(paths) if X is None else map(repr, X[t])
        if t < T:
            zs = (",".join(map(repr, row)) for row in Z[t])
        else:
            zs = ["," * (N - 1)] * len(paths)  # N empty Z cells
        lines.extend(f"{t},{p},{x},{y},{z}" for p, x, y, z in zip(paths, xs, map(repr, Y[t]), zs))
    return "\n".join(lines) + "\n"


def verify_report(loaded: LoadedProblem, report: dict) -> dict:
    """Recompute residuals from a report's solution block alone.

    Round-trips exactly: JSON floats reload bit-identically, so the result
    matches the reported residuals.
    """
    tree = loaded.tree
    block = report["solution"]
    Y = [np.array(lev, dtype=float) for lev in block["Y"]]
    Z = [np.array(lev, dtype=float) for lev in block["Z_canonical"]]
    if loaded.kind == "bsde":
        return {"backward": bsde_residual(tree, loaded.data, Y, Z)}
    X = [np.array(lev, dtype=float) for lev in block["X"]]
    if loaded.kind == "nonlinear":
        fwd, bwd = nonlinear_residual(tree, loaded.data, (X, Y, Z))
        return {"forward": fwd, "backward": bwd}
    rep = linear_mod.linear_residuals(tree, loaded.data, X, Y, Z)
    return {"forward": rep.forward, "backward": rep.backward}
