"""Benchmark workloads: seeded problem files, the op list run on them, and
the checks each op's output must pass.

Every workload is a fixed list of ``fbsde`` command-line operations ("ops").
The files are generated from the seed with the standard library only, so the
same seed gives byte-identical inputs on every machine and numpy version.
The seed moves coefficient values, the transition row, ``x0`` and the place
of the singular node; it never moves the sizes, so the work per op stays
comparable across seeds.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Largest gap allowed between an oracle solution and ``solve`` on one file.
CROSSCHECK_TOL = 1e-8


@dataclass
class Op:
    """One CLI call and the outcome its output must show."""

    label: str
    command: str  # solve | oracle | check
    problem: str  # file name inside the work directory
    N: int
    T: int
    fmt: str = "json"
    code: int = 0
    status: str = "solved"
    singular: list = field(default_factory=list)  # expected singular nodes
    crosscheck: bool = False  # compare with ``solve`` on the same file

    @property
    def nodes(self):
        return (self.N ** (self.T + 1) - 1) // (self.N - 1)

    def argv(self, workdir: Path, output: Path):
        args = [self.command, str(workdir / self.problem), "--output", str(output)]
        if self.fmt != "json":
            args += ["--format", self.fmt]
        return args


def _num(x):
    return round(x, 6)


def _level_sizes(N, times):
    return [N**t for t in times]


def _per_node(rng, N, times, low, high):
    return [_num(rng.uniform(low, high)) for n in _level_sizes(N, times) for _ in range(n)]


def _per_node_rows(rng, N, times, low, high):
    return [
        [_num(rng.uniform(low, high)) for _ in range(N)]
        for n in _level_sizes(N, times)
        for _ in range(n)
    ]


def _zero_sum_row(rng, N, scale):
    head = [_num(rng.uniform(-scale, scale)) for _ in range(N - 1)]
    return head + [-sum(head)]


def _transition_row(rng, N):
    head = [round(rng.uniform(0.6, 1.4) / N, 4) for _ in range(N - 1)]
    return head + [1.0 - sum(head)]


def path_of(N, T, index):
    """Branch path (1-based digits, root first) of the index-th depth-T node."""
    digits = []
    for _ in range(T):
        digits.append(index % N + 1)
        index //= N
    return list(reversed(digits))


def linear_doc(rng, N, T, singular_index=None):
    """Linear problem: per-node numeric arrays plus one ``t, w`` expression.

    With ``singular_index`` the depth-(T-1) node of that index gets the
    ``singular-gamma`` mechanism: unit feedback of Y into the drift (B = 1,
    no Z loading) above leaves with G = 1 and no hatted terms, so its
    coupling matrix annihilates the all-ones direction.
    """
    fwd, bwd = range(T), range(1, T + 1)
    coeffs = {
        "A": _per_node(rng, N, fwd, -0.1, 0.1),
        "B": _per_node(rng, N, fwd, -0.1, 0.1),
        "D": _per_node(rng, N, fwd, -0.5, 0.5),
        "D_bar": _per_node_rows(rng, N, fwd, -0.2, 0.2),
        "A_hat": _per_node(rng, N, bwd, -0.1, 0.1),
        "B_hat": _per_node(rng, N, bwd, -0.1, 0.1),
        "D_hat": f"{_num(rng.uniform(0.05, 0.2))}*w - {_num(rng.uniform(0.01, 0.05))}*t",
        "G": _per_node(rng, N, [T], 0.5, 1.5),
        "g": _per_node(rng, N, [T], -0.5, 0.5),
    }
    if singular_index is None:
        coeffs["C"] = _zero_sum_row(rng, N, 0.1)
        coeffs["C_bar"] = [_zero_sum_row(rng, N, 0.1) for _ in range(N)]
        coeffs["C_bar"] = [list(col) for col in zip(*coeffs["C_bar"])]
    else:
        # flat per-node position of the chosen node among times 0..T-1
        pos = sum(N**t for t in range(T - 1)) + singular_index
        coeffs["B"][pos] = 1.0
        coeffs["D_bar"][pos] = [0.0] * N
        first_leaf = singular_index * N
        leaf_base = sum(N**t for t in range(1, T))
        for leaf in range(first_leaf, first_leaf + N):
            coeffs["A_hat"][leaf_base + leaf] = 0.0
            coeffs["B_hat"][leaf_base + leaf] = 0.0
            coeffs["G"][leaf] = 1.0
    return {
        "kind": "linear",
        "tree": {"N": N, "T": T, "transition": _transition_row(rng, N)},
        "x0": _num(rng.uniform(0.5, 1.5)),
        "coefficients": coeffs,
    }


def bsde_doc(rng, N, T):
    """Backward-only problem with a generator that reads the contraction z1."""
    return {
        "kind": "bsde",
        "tree": {"N": N, "T": T, "transition": _transition_row(rng, N)},
        "terminal": _per_node(rng, N, [T], -1.0, 1.0),
        "coefficients": {
            "f": f"{_num(rng.uniform(0.02, 0.08))}*y + {_num(rng.uniform(0.1, 0.3))}*z1"
                 f" + {_num(rng.uniform(0.01, 0.05))}*w",
            "f_terminal": f"{_num(rng.uniform(0.02, 0.08))}*y",
        },
    }


def monotone_doc(rng, N, T, scale):
    """Monotone-family nonlinear problem (the ``monotone-family`` demo shape).

    ``x0`` stays in [0.75, 1.5]: there the Newton oracle takes the same
    number of steps for every seed (below about 0.6 it saves one on N=2 T=4),
    so the seed does not move the work of an op.
    """
    return {
        "kind": "nonlinear",
        "tree": {"N": N, "T": T, "transition": "uniform"},
        "x0": _num(rng.uniform(0.75, 1.5)),
        "coefficients": {
            "b": f"-y + {scale}*tanh(x) + {_num(rng.uniform(0.01, 0.05))}*w",
            "sigma": ["-z1"] + [f"-z{i}" for i in range(2, N)] + ["0"],
            "f": f"x + {scale}*tanh(y)",
            "f_terminal": "x",
            "h": "x",
        },
    }


def _write(workdir: Path, name: str, doc) -> str:
    (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
    return name


def _large_tree(rng, workdir):
    ops = []
    name = _write(workdir, "linear-2-13.json", linear_doc(rng, 2, 13))
    ops.append(Op("solve linear N=2 T=13", "solve", name, 2, 13))
    name = _write(workdir, "linear-2-13-csv.json", linear_doc(rng, 2, 13))
    ops.append(Op("solve linear N=2 T=13 csv", "solve", name, 2, 13, fmt="csv"))
    name = _write(workdir, "linear-3-8.json", linear_doc(rng, 3, 8))
    ops.append(Op("solve linear N=3 T=8", "solve", name, 3, 8))
    T = 12
    index = rng.randrange(2 ** (T - 1))
    name = _write(workdir, "linear-2-12-singular.json", linear_doc(rng, 2, T, index))
    ops.append(Op("solve linear N=2 T=12 singular", "solve", name, 2, T, code=2,
                  status="unsolvable", singular=[{"path": path_of(2, T - 1, index), "t": T - 1}]))
    name = _write(workdir, "bsde-2-13.json", bsde_doc(rng, 2, 13))
    ops.append(Op("solve bsde N=2 T=13", "solve", name, 2, 13))
    return ops


def _continuation(rng, workdir):
    ops = []
    for N in (2, 3):
        for scale in (0.1, 0.3, 0.5):
            name = _write(workdir, f"monotone-{N}-3-{scale}.json", monotone_doc(rng, N, 3, scale))
            ops.append(Op(f"solve nonlinear N={N} T=3 scale={scale}", "solve", name, N, 3))
    return ops


def _crosscheck(rng, workdir):
    ops = []
    for N, T in ((2, 4), (3, 3)):
        name = _write(workdir, f"monotone-{N}-{T}.json", monotone_doc(rng, N, T, 0.1))
        ops.append(Op(f"oracle nonlinear N={N} T={T}", "oracle", name, N, T, crosscheck=True))
    for N, T in ((2, 7), (3, 5)):
        name = _write(workdir, f"linear-{N}-{T}.json", linear_doc(rng, N, T))
        ops.append(Op(f"oracle linear N={N} T={T}", "oracle", name, N, T, crosscheck=True))
    ops.append(Op("check nonlinear N=2 T=4", "check", "monotone-2-4.json", 2, 4,
                  status="satisfied"))
    return ops


BUILDERS = {"large-tree": _large_tree, "continuation": _continuation, "crosscheck": _crosscheck}


def generate(workload: str, seed: int, workdir: Path):
    """Write the workload's problem files for ``seed``; return its op list."""
    rng = random.Random(f"{workload}/{seed}")
    return BUILDERS[workload](rng, workdir)


# ---------------------------------------------------------------------------
# output checks


def _levels_from_csv(text, N, T):
    """Rebuild a report's solution block from a CSV table."""
    rows = list(csv.reader(text.splitlines()))
    header = ["t", "path", "X", "Y"] + [f"Z_{i + 1}" for i in range(N)]
    if rows[0] != header:
        raise ValueError(f"unexpected csv header {rows[0]}")
    X = [[] for _ in range(T + 1)]
    Y = [[] for _ in range(T + 1)]
    Z = [[] for _ in range(T)]
    for row in rows[1:]:
        t = int(row[0])
        X[t].append(float(row[2]))
        Y[t].append(float(row[3]))
        if t < T:
            Z[t].append([float(v) for v in row[4:]])
    for t in range(T + 1):
        if len(Y[t]) != N**t:
            raise ValueError(f"csv has {len(Y[t])} rows at depth {t}, expected {N**t}")
    return {"X": X, "Y": Y, "Z_canonical": Z}


def _max_gap(a, b):
    """Largest absolute entry difference between two nested float lists."""
    if isinstance(a, list):
        if not isinstance(b, list) or len(a) != len(b):
            return math.inf
        return max((_max_gap(x, y) for x, y in zip(a, b)), default=0.0)
    return abs(float(a) - float(b))


def check_output(fbsde, op: Op, workdir: Path, code: int, output: Path, solve_again):
    """Return None when the op's output is right, else the reason it is not.

    ``solve_again(op)`` runs ``solve`` on the op's file and returns the
    parsed report; it is used to cross-check oracle answers.
    """
    if code != op.code:
        return f"exit code {code}, expected {op.code}"
    loaded = fbsde.io.load_problem(workdir / op.problem)
    tol = loaded.options.tolerance
    text = output.read_text(encoding="utf-8")
    if op.fmt == "csv":
        block = _levels_from_csv(text, op.N, op.T)
        got = fbsde.io.verify_report(loaded, {"solution": block})
        worst = max(got.values())
        return None if worst <= tol else f"csv residual {worst!r} above {tol!r}"

    report = json.loads(text)
    if report.get("status") != op.status:
        return f"status {report.get('status')!r}, expected {op.status!r}"
    if op.command == "check":
        violations = report["diagnostics"]["violations"]
        return f"violations {violations}" if violations else None
    if op.status == "unsolvable":
        got = report["certificate"]["singular_nodes"]
        if got != op.singular:
            return f"singular nodes {got}, expected {op.singular}"
        return None if report["solution"] is None else "unsolvable report carries a solution"
    if op.command == "oracle" and "rank" in report and report["rank"]["rank"] != report["rank"]["size"]:
        return f"oracle rank {report['rank']}"
    got = fbsde.io.verify_report(loaded, report)
    for key, value in got.items():
        if value != report["residuals"][key]:
            return f"{key} residual {value!r} recomputed, {report['residuals'][key]!r} reported"
        if value > tol:
            return f"{key} residual {value!r} above {tol!r}"
    if op.crosscheck:
        other = solve_again(op)
        if other.get("status") != "solved":
            return f"solve on the same file gave {other.get('status')!r}"
        for key in ("X", "Y", "Z_canonical"):
            gap = _max_gap(report["solution"][key], other["solution"][key])
            if not gap <= CROSSCHECK_TOL:
                return f"oracle and solve differ by {gap!r} in {key}"
    return None
