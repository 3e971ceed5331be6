"""Event-tree model of a discrete-time, finite-state driving process.

The driving process takes one of N states per step; observing it up to a
horizon T generates an N-ary tree whose depth-t nodes are the possible
histories.  Nodes are stored level by level in lexicographic path order, so
relationship lookups are index arithmetic: the children of node i at depth t
are nodes i*N+k at depth t+1, its parent is node i // N.  Over the whole
tree in that level order, the children of node k are nodes 1 + k*N + i, so
a level-order array ``v`` lines its non-leaf nodes ``v[:m]`` up with their
children ``v[1:].reshape(m, N)``.  The root state is
fixed by convention (state 1); nothing downstream depends on it.

Trees and adapted processes are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchOutOfRange,
    LeafNodeError,
    MissingValue,
    NonPositiveProbability,
    RowSumMismatch,
    ShapeMismatch,
)

#: Absolute tolerance for probability-row sums.  Rows further from one are
#: rejected outright; silent renormalization would hide input bugs.
ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class NodeId:
    """Address of a node: its depth and the 1-based branch path from the root."""

    depth: int
    path: tuple[int, ...]

    def __post_init__(self):
        if len(self.path) != self.depth:
            raise ShapeMismatch(f"path length {len(self.path)} != depth {self.depth}")

    def __str__(self):
        return "root" if not self.path else "-".join(str(b) for b in self.path)


def _as_depth_index(tree, node):
    """Normalize a NodeId or (depth, index) pair to (depth, index)."""
    if isinstance(node, NodeId):
        if any(b < 1 or b > tree.N for b in node.path):
            raise BranchOutOfRange(f"path entries must lie in 1..{tree.N}: {node.path}")
        idx = 0
        for b in node.path:
            idx = idx * tree.N + (b - 1)
        t = node.depth
    else:
        t, idx = node
    if not 0 <= t <= tree.T:
        raise MissingValue(f"depth {t} outside 0..{tree.T}")
    if not 0 <= idx < tree.num_nodes(t):
        raise MissingValue(f"node index {idx} outside level {t} (size {tree.num_nodes(t)})")
    return int(t), int(idx)


class ScenarioTree:
    """N-ary scenario tree with per-node transition probabilities.

    ``rows`` is the (m, N) level-order table of the transition rows of all
    m non-leaf nodes; depth t starts at node ``offsets[t]``.  Its levels
    ``transition[t]``, of shape ``(N**t, N)``, are read-only views of it:
    row ``(t, i)`` is the conditional law of the next state at node i of
    depth t.  Every entry is finite and strictly positive and every row
    sums to one within ``ROW_SUM_TOL``.  The constructor checks a copy of
    the table once per condition, in that order, and names the first
    failing row in level order (``locate``): a table with faults under two
    conditions reports the first condition's.
    """

    def __init__(self, N, T, rows):
        N, T = _sizes(N, T)
        self.offsets = tuple((N**t - 1) // (N - 1) for t in range(T + 2))
        self._slices = {}  # times -> the slices of ``views``
        table = np.array(rows, dtype=float, order="C")
        if table.ndim != 2 or table.shape[1] != N:
            raise ShapeMismatch(f"transition table has shape {table.shape}, expected (*, {N})")
        if table.shape[0] != self.offsets[T]:
            raise ShapeMismatch(
                f"transition table has {table.shape[0]} rows, expected {self.offsets[T]} for T={T}"
            )
        # each condition only on a table that passed the ones before it; the
        # first bad entry in C order lies in the first bad row
        bad = ~np.isfinite(table)
        if bad.any():
            t, _ = self.locate(int(np.argmax(bad)) // N)
            raise NonPositiveProbability(f"non-finite probability at level {t}")
        bad = table <= 0.0
        if bad.any():
            t, idx = self.locate(int(np.argmax(bad)) // N)
            raise NonPositiveProbability(
                f"transition row (t={t}, node={idx}) has a non-positive entry"
            )
        with np.errstate(over="ignore"):  # a sum that overflows is inf, and fails
            sums = table.sum(axis=1)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if bad.any():
            k = int(np.argmax(bad))
            t, idx = self.locate(k)
            raise RowSumMismatch(f"transition row (t={t}, node={idx}) sums to {float(sums[k])!r}")
        table.flags.writeable = False
        self.N = N
        self.T = T
        self.rows = table
        self.transition = self.views(table, range(T))
        probs = [np.ones(1)]
        for t in range(T):
            nxt = (probs[t][:, None] * self.transition[t]).reshape(-1)
            nxt.flags.writeable = False
            probs.append(nxt)
        probs[0].flags.writeable = False
        self._level_probs = tuple(probs)

    def num_nodes(self, t):
        return self.N**t

    def views(self, flat, times):
        """The depth-t views, t in ``times``, of a level-order array whose
        first entry is the first node at depth ``times.start``."""
        slices = self._slices.get(times)
        if slices is None:
            o, base = self.offsets, self.offsets[times.start]
            slices = self._slices[times] = tuple(slice(o[t] - base, o[t + 1] - base) for t in times)
        return tuple([flat[s] for s in slices])

    def level_probs(self, t):
        """Unconditional probabilities of the depth-t nodes (sums to one)."""
        if not 0 <= t <= self.T:
            raise MissingValue(f"depth {t} outside 0..{self.T}")
        return self._level_probs[t]

    def row(self, node):
        """Transition row at a non-leaf node."""
        t, idx = _as_depth_index(self, node)
        if t >= self.T:
            raise LeafNodeError(f"node at depth {t} is a leaf")
        return self.transition[t][idx]

    def locate(self, k):
        """(depth, index) of the node at position k of the tree's level order."""
        if not 0 <= k < self.offsets[-1]:
            raise MissingValue(f"level-order position {k} outside 0..{self.offsets[-1] - 1}")
        t = bisect_right(self.offsets, k) - 1
        return t, k - self.offsets[t]

    def node_id(self, t, index):
        """NodeId of the index-th node at depth t (lexicographic order)."""
        if not 0 <= t <= self.T:
            raise MissingValue(f"depth {t} outside 0..{self.T}")
        if not 0 <= index < self.num_nodes(t):
            raise MissingValue(f"node index {index} outside level {t}")
        digits = []
        i = index
        for _ in range(t):
            digits.append(i % self.N + 1)
            i //= self.N
        return NodeId(t, tuple(reversed(digits)))

    def __repr__(self):
        return f"ScenarioTree(N={self.N}, T={self.T})"


def _sizes(N, T):
    """(N, T) as ints, after checking N >= 2, T >= 1 and that numpy can
    index the tree's 1 + N + ... + N**T nodes, summed level by level and
    stopped at the first level past the index bound, so N**T is never formed."""
    N = int(N)
    T = int(T)
    if N < 2:
        raise ValueError("branching factor must be at least 2")
    if T < 1:
        raise ValueError("horizon must be at least 1")
    nodes = level = 1
    for _ in range(T):
        level *= N
        nodes += level
        if nodes > np.iinfo(np.intp).max:
            raise ValueError(f"a tree with N={N} and T={T} has more nodes than numpy can index")
    return N, T


def build_tree(N, T, transition="uniform"):
    """Build a validated tree from a transition specification.

    ``transition`` is ``"uniform"``, a single probability row applied at
    every node, or a flat table with one row per non-leaf node ordered level
    by level (lexicographic by path within a level), which the tree takes
    as its table of rows.
    """
    N, T = _sizes(N, T)
    if isinstance(transition, str):
        if transition != "uniform":
            raise ValueError(f"unknown transition spec {transition!r}")
        transition = np.full(N, 1.0 / N)
    table = np.asarray(transition, dtype=float)
    if table.ndim == 1:
        if table.shape != (N,):
            raise ShapeMismatch(f"transition row has length {table.shape[0]}, expected {N}")
        table = np.tile(table, ((N**T - 1) // (N - 1), 1))
    return ScenarioTree(N, T, table)


class AdaptedProcess:
    """One value per node for each time in a contiguous range.

    ``levels[k]`` holds the depth-``(start + k)`` values with shape
    ``(N**(start+k), *value_shape)``; the trailing shape is homogeneous
    across times (scalar, row, or matrix values).  The levels are read-only
    views of ``array``, all the values in level order.
    """

    def __init__(self, tree, start, levels):
        if not 0 <= start <= tree.T:
            raise MissingValue(f"start {start} outside 0..{tree.T}")
        if not levels:
            raise MissingValue("a process needs at least one level")
        if start + len(levels) - 1 > tree.T:
            raise MissingValue("process extends past the horizon")
        times = range(start, start + len(levels))
        levels = [np.full(tree.num_nodes(t), float(lev)) if np.ndim(lev) == 0 else lev
                  for t, lev in zip(times, levels)]
        self._adopt(tree, start, np.concatenate(_process_levels(tree, levels, times, "process")))

    @classmethod
    def from_array(cls, tree, start, flat):
        """The process over depths ``start``.. whose level-order values are
        ``flat``, kept (read-only) without a copy."""
        new = cls.__new__(cls)
        new._adopt(tree, start, flat)
        return new

    def _adopt(self, tree, start, flat):
        flat.flags.writeable = False
        stop = tree.offsets.index(tree.offsets[start] + len(flat))
        self.tree = tree
        self.start = int(start)
        self.array = flat
        self.levels = tree.views(flat, range(self.start, stop))
        self.value_shape = flat.shape[1:]

    @property
    def end(self):
        return self.start + len(self.levels) - 1

    @property
    def times(self):
        return range(self.start, self.end + 1)

    def level(self, t):
        if not self.start <= t <= self.end:
            raise MissingValue(f"process defined on {self.start}..{self.end}, not {t}")
        return self.levels[t - self.start]

    def at(self, node):
        t, idx = _as_depth_index(self.tree, node)
        return self.level(t)[idx]


def _level_values(tree, process, t):
    """Values of a process at depth t as an array, from a process or array."""
    if isinstance(process, AdaptedProcess):
        return process.level(t)
    arr = np.asarray(process, dtype=float)
    if arr.shape[:1] != (tree.num_nodes(t),):
        raise MissingValue(
            f"expected {tree.num_nodes(t)} values at depth {t}, got {arr.shape[:1]}"
        )
    return arr


def _level(value, shape, name):
    """A level as a float array of ``shape``.  One value stands for every
    node, and so does an array of ``len(shape)`` dimensions whose size-1 axes
    stretch to ``shape``; any other shape is a ShapeMismatch."""
    arr = np.asarray(value, dtype=float)
    if arr.shape == shape:
        return arr
    if arr.ndim == 0 or arr.ndim == len(shape) and all(a in (1, b) for a, b in zip(arr.shape, shape)):
        return np.broadcast_to(arr, shape)
    raise ShapeMismatch(f"{name} returned shape {arr.shape}, expected {shape}")


def _process_levels(tree, values, times, name, cell=None):
    """The depth-t arrays, for t in ``times``, of a process or of a sequence
    of levels, the first at depth ``times.start``.  Raises ShapeMismatch
    for a missing level or a level without one value per node (of shape
    ``cell``, when given, else of the first level's value shape)."""
    if not isinstance(values, AdaptedProcess) and len(values) < len(times):
        raise ShapeMismatch(f"{name} has {len(values)} levels, expected {len(times)}")
    out = []
    for t in times:
        lev = (values.level(t) if isinstance(values, AdaptedProcess)
               else np.asarray(values[t - times.start], dtype=float))
        want = (tree.num_nodes(t),) + (lev.shape[1:] if cell is None else cell)
        if lev.shape != want:
            raise ShapeMismatch(f"{name} level {t} has shape {lev.shape}, expected {want}")
        cell = want[1:]
        out.append(lev)
    return out


def _process_array(tree, values, times, name, cell=None):
    """The depth-t levels, t in ``times``, as one level-order array: a view
    of a process's own array when it starts at ``times.start`` with values
    of shape ``cell``, else the levels ``_process_levels`` checks, joined."""
    if (isinstance(values, AdaptedProcess) and values.start == times.start
            and values.end >= times.stop - 1 and cell in (None, values.value_shape)):
        return values.array[: tree.offsets[times.stop] - tree.offsets[times.start]]
    return np.concatenate(_process_levels(tree, values, times, name, cell))


def cond_exp_level(tree, values_next, t):
    """Conditional expectation one step back, for the whole depth-t level.

    ``values_next`` holds the depth-(t+1) values; returns the depth-t array
    of transition-weighted child averages.
    """
    if t >= tree.T:
        raise LeafNodeError(f"depth {t} nodes are leaves")
    vals = _level_values(tree, values_next, t + 1)
    n = tree.num_nodes(t)
    grouped = vals.reshape((n, tree.N) + vals.shape[1:])
    return np.einsum("ni,ni...->n...", tree.transition[t], grouped)


def cond_exp(tree, values_next, node):
    """Conditional expectation of next-step values at one non-leaf node."""
    t, idx = _as_depth_index(tree, node)
    if t >= tree.T:
        raise LeafNodeError(f"node at depth {t} is a leaf")
    vals = _level_values(tree, values_next, t + 1)
    child = vals[idx * tree.N : (idx + 1) * tree.N]
    return np.einsum("i,i...->...", tree.transition[t][idx], child)


def expectation(tree, values, t):
    """Unconditional expectation of depth-t values.

    Equals cond_exp iterated down to the root.
    """
    vals = _level_values(tree, values, t)
    return np.einsum("n,n...->...", tree.level_probs(t), vals)
