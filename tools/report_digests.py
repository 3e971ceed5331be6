#!/usr/bin/env python3
"""Digests of every report the command line writes for the demos and the
benchmark op lists, to prove two checkouts give byte-identical output, or
to measure how far apart their floats are.

Usage, from the root of a checkout of the repository:

    python3 tools/report_digests.py --seed 1
    python3 tools/report_digests.py --seed 1 --against saved.txt
    python3 tools/report_digests.py --seed 1 --save reports/
    python3 tools/report_digests.py --seed 1 --compare reports/

Each output gets one line: its label, the sha1 of the report, the exit
code and the sha1 of standard error.  Each built-in demo
(``fbsde.cli.DEMOS``, read in a child process) runs in JSON and CSV, a
nonlinear one also with ``--mode picard``; ``monotone-family`` also runs
with each flag set of ``STOPPED_FLAGS``, which stop it with exit 3.  Each
demo's document, written into a temporary directory, goes through
``oracle`` and ``check``; each command line of ``USAGE_ERRORS`` runs, on
the ``corollary-special`` document where it names a file; the
``monotone-family`` document also goes through ``oracle`` on each larger
tree of ``ORACLE_SIZES``, and on the tree of ``ORACLE_STOP`` with a
tolerance no start reaches (exit 3), and with ``h`` = -x through ``check``
on each tree of ``CHECK_SIZES``; it goes through ``check`` and ``oracle``
with the sampling seed ``SEED_OPTION``, once given by ``--seed`` and once
by its ``options.seed``.  The linear file
of ``SINGULAR_DOC``, on which the certificate and the dense oracle
disagree, goes through ``solve``, ``oracle`` and ``check`` (a certificate
of a pass halted below the root), the linear documents of
``NEAR_SINGULAR_DOC`` and ``OVERFLOW_DOCS`` through ``oracle``, the
nonlinear document of ``LADDER_OVERFLOW_DOC`` through ``solve`` and ``solve
--mode picard``, each linear document of ``TOO_LARGE_DOCS`` through
``solve``, which pins its exit 4 and its one line of standard error,
each drift source of ``REFUSED_SOURCES`` through ``solve``, ``oracle``
and ``check``, which pin the same, and each invalid document
of ``_fault_documents`` through ``solve``, which pins the error text of
every check on the transition table and on the structural coefficient
conditions, an overflowing sum included, of an integer cell too large
for a float, of lists nested too deep and of a linear coefficient's
expression fault.  The nonlinear document of
``DRIFT_FAULT`` goes through ``solve``, ``solve --mode picard``,
``oracle`` and ``check``, and the bsde document of ``GENERATOR_FAULT``
through ``solve``: each coefficient faults at two nodes of one level, at
different offsets, which pins the error of the first failing node on a
small level and on a large one.  Each bsde document of ``HORIZON_DOCS``
goes through ``solve``: one with a row-free ``f`` only, which the horizon
reuses, and one with ``f_terminal`` only, under a zero interior generator.
Then every op of each ``bench/workloads.py`` op list runs on files that
module generates for ``--seed`` into the same directory, and every
nonlinear file of an op list also goes through ``check`` and a ``--mode
picard`` solve.  Every call is a fresh ``python -m fbsde`` process on
this checkout's ``src``.  Running the same command on two checkouts and
comparing the printed lines shows whether their outputs differ.  With
``--against``, a listing saved from an earlier run of the same seed, the
tool also does that comparison: after printing every line it exits 1,
naming each label whose line differs or is missing from either listing.

``--save DIR`` keeps each report in DIR, with an ``index.json`` of each
label's report file, exit code and standard error.  ``--compare DIR``
reads such a directory, saved from another checkout with the same seed,
and prints one line per label whose output differs: any difference in
exit code, standard error or a report key other than ``solution`` and
``residuals`` (status, ``stats``, certificate, ...) by name, and the
largest absolute gap between the floats of the solution and of the
residuals.  A CSV report is all solution.  The tool then exits 1 if a
label is missing from either side or differs in more than those floats.
Standard library only; ``bench/workloads.py`` is imported, never written.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (N, T) trees, larger than the benchmark's, on which the Newton oracle
#: solves the ``monotone-family`` demo.
ORACLE_SIZES = ((2, 6), (3, 4))

#: (N, T, tolerance) on which the Newton oracle stops the ``monotone-family``
#: demo with exit 3: the tolerance lies below rounding, so no start reaches it.
ORACLE_STOP = (2, 1, "1e-30")

#: (N, T) trees on which ``check`` reads the ``monotone-family`` demo with a
#: violated terminal map, h = -x: the demo's own tree, and one of depth 1,
#: which has no interior clauses.
CHECK_SIZES = ((2, 3), (3, 1))

#: A sampling seed other than the default 0, given to ``check`` and
#: ``oracle`` on the ``monotone-family`` document by flag and by file.
SEED_OPTION = 3

#: Flags on which ``demo monotone-family`` stops with exit 3: continuation
#: after its last halving, and flat Picard after its one level.
STOPPED_FLAGS = (("--max-iter", "1"), ("--mode", "picard", "--max-iter", "1"))

#: (N, T, singular index) of the ``bench/workloads.linear_doc`` file, drawn
#: with ``random.Random(seed)``, that ``solve`` calls unsolvable at a
#: singular depth-(T-1) node and the dense oracle (1276 unknowns) solves.
SINGULAR_DOC = (2, 8, 1)

#: A linear document of full rank that the dense oracle's full-rank test cannot
#: certify (sigma_min / sigma_max is 8.5e-8), so the oracle solves it
#: after its rank-revealing fallback.
NEAR_SINGULAR_DOC = {"kind": "linear", "tree": {"N": 2, "T": 2}, "x0": 1.0,
                     "coefficients": {"B": 1.0, "G": 1.000001}}

#: Linear documents of finite coefficients whose dense assembly overflows:
#: in the matrix's forward entry -(1 + A) - A_bar . (e_i - P), or in the
#: right-hand side D + D_bar . (e_i - P) of a rank-deficient system.
#: ``oracle`` exits 4 on each.
OVERFLOW_DOCS = {
    label: {"kind": "linear", "tree": {"N": 2, "T": 2, "transition": "uniform"}, "x0": 1.0,
            "coefficients": coefficients}
    for label, coefficients in (
        ("overflow", {"A": 1.5e308, "A_bar": [1.5e308, -1.5e308], "G": 1.0}),
        ("overflow rhs", {"B": 1.0, "G": 1.0, "D": 1.5e308, "D_bar": [1.5e308, -1.5e308]}),
    )
}

#: A nonlinear document whose exact solution, X_1 = 5e307 and Y_0 = 1e308,
#: is reached from the zero iterate by increments whose squares overflow.
LADDER_OVERFLOW_DOC = {"kind": "nonlinear", "tree": {"N": 2, "T": 1, "transition": "uniform"},
                       "x0": 1.0, "coefficients": {"b": "-y + 1.5e308", "sigma": ["-z1", "0"],
                                                   "f": "x", "h": "x"}}

#: Linear documents whose trees have more nodes than numpy can index, one
#: with a transition table (of one row) and one uniform; ``solve`` refuses
#: each by its N and T alone.
TOO_LARGE_DOCS = {
    "table-transition linear N=2 T=20000":
        {"kind": "linear", "tree": {"N": 2, "T": 20000, "transition": [[0.5, 0.5]]}, "x0": 1.0},
    "uniform linear N=3 T=1000000": {"kind": "linear", "tree": {"N": 3, "T": 10**6}, "x0": 1.0},
}

#: A nonlinear document on the uniform binary tree of depth 1, and drift
#: sources its loader refuses: chained or nested past the expression
#: parser's depth bound, or not a string.  ``solve``, ``oracle`` and
#: ``check`` each exit 4 with one line naming ``coefficients.b``.
REFUSED_BASE = {"kind": "nonlinear", "tree": {"N": 2, "T": 1, "transition": "uniform"},
                "x0": 1.0, "coefficients": {"b": "x", "sigma": ["-z1", "0"], "f": "x", "h": "x"}}
REFUSED_SOURCES = {"5000-term sum": "+".join(["x"] * 5000),
                   "5000 nested parentheses": "(" * 5000 + "x" + ")" * 5000,
                   "a number": 1.5}

#: Command lines with a usage error, ``FILE`` standing for a valid problem
#: file: each exits 4 with argparse's usage text on standard error.
USAGE_ERRORS = (("solve", "FILE", "--bogus"), ("solve", "FILE", "--max-iter", "abc"),
                ("demo", "nosuch"), ())


#: A nonlinear document on the uniform 3-ary tree of depth 3 whose drift
#: divides by zero at t = 1 only: at node 1 (w = 2) in its second division,
#: at node 2 (w = 3) in its first.
DRIFT_FAULT = {
    "kind": "nonlinear", "tree": {"N": 3, "T": 3, "transition": "uniform"}, "x0": 1.0,
    "coefficients": {
        "b": "-y + 0.1*tanh(x) + 0.01/(w - 3 + 9*(t - 1)^2) + 0.01/(w - 2 + 7*(t - 1)^2)",
        "sigma": ["-z1", "-z2", "0"], "f": "x + 0.1*tanh(y)", "f_terminal": "x", "h": "x",
    },
}

#: A bsde document on the uniform 3-ary tree of depth 6 whose generator
#: divides by zero on the 243 nodes of t = 5 only, at node 1 (w = 2) in its
#: second division and at node 2 (w = 3) in its first.
GENERATOR_FAULT = {
    "kind": "bsde", "tree": {"N": 3, "T": 6, "transition": "uniform"},
    "terminal": [(k % 7) / 7.0 for k in range(3**6)],
    "coefficients": {"f": "0.5*y + z1/(w - 3 + 9*(t - 5)^2) + 1/(w - 2 + 7*(t - 5)^2)",
                     "f_terminal": "0.5*y"},
}

#: Bsde documents on the uniform binary tree of depth 4 that give one of
#: the two generator expressions: ``f`` alone, row-free, so ``f_terminal``
#: defaults to it, or ``f_terminal`` alone, so the interior generator is
#: zero.
HORIZON_DOCS = {
    f"only {field}": {"kind": "bsde", "tree": {"N": 2, "T": 4, "transition": [0.3, 0.7]},
                      "terminal": [(k % 5) / 5.0 - 0.3 for k in range(2**4)],
                      "coefficients": {field: expression}}
    for field, expression in (("f", "0.2*y - 0.1*w + t/7"), ("f_terminal", "0.3*y + w/5"))
}


def _fault_documents():
    """(label, document) of each invalid input: one fault in the transition
    table of a 3-ary tree of depth 3, or in a structural coefficient of a
    linear file on the uniform binary tree of depth 3, or one per-node cell
    of such a file that is an integer too large for a float; a cell or a
    transition nested 900 lists deep; a document nested 100000 deep, given
    as the file's text, past the JSON decoder's recursion limit; and an
    expression of a linear coefficient that divides by zero.  ``solve`` must
    exit 4 on each, and its standard error names the fault and where it
    sits."""
    def table(k=None, row=None, rows=13):
        cells = [[0.2, 0.3, 0.5] for _ in range(rows)]
        if k is not None:
            cells[k] = row
        return cells

    def linear(tree=None, **coefficients):
        return {"kind": "linear", "tree": tree or {"N": 2, "T": 3, "transition": "uniform"},
                "x0": 1.0, "coefficients": dict({"G": 1.0}, **coefficients)}

    def per_node(cell, fault, count, k):
        cells = [cell] * count
        cells[k] = fault
        return cells

    nan = float("nan")  # json.dumps writes it as NaN, which the loader reads
    faults = {
        "non-positive entry t=2 node=4": table(8, [0.6, 0.4, 0.0]),
        "row sum t=1 node=1": table(2, [0.5, 0.3, 0.3]),
        "NaN entry t=1 node=2": table(3, [0.2, nan, 0.5]),
        "12 rows for 13": table(rows=12),
    }
    for label, cells in faults.items():
        yield f"tree {label}", linear({"N": 3, "T": 3, "transition": cells})
    zero, zeros = [0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]]
    yield "C column sum t=1 node=1", linear(C=per_node(zero, [0.1, 0.1], 7, 2))
    yield "C_bar column sum t=1 node=1", linear(C_bar=per_node(zeros, [[0.1, 0.0], zero], 7, 2))
    yield "C_hat column sum t=1 node=1", linear(C_hat=per_node(zero, [0.1, 0.1], 14, 1))
    yield "C_hat horizon t=3 node=2", linear(C_hat=per_node(zero, [0.1, -0.1], 14, 8))
    # finite entries whose sum overflows, on the uniform binary tree of depth 2
    huge, half = [1e308, 1e308], [0.5, 0.5]
    yield "tree row sum overflow t=0 node=0", linear({"N": 2, "T": 2, "transition": [huge, half, half]})
    yield "C column sum overflow t=0 node=0", linear({"N": 2, "T": 2, "transition": "uniform"}, C=huge)
    yield "integer of 401 digits in D", linear(D=per_node(0.0, 10**400, 7, 2))

    def nested(value, k):
        for _ in range(k):
            value = [value]
        return value

    depth_1 = {"N": 2, "T": 1, "transition": "uniform"}
    yield "A nested 900 deep", linear(depth_1, A=nested(0.1, 900))
    yield "second A_bar cell nested 900 deep", linear(
        A_bar=per_node([0.2, -0.2], nested([0.2, -0.2], 900), 7, 1))
    yield "transition nested 900 deep", linear(dict(depth_1, transition=nested([0.5, 0.5], 900)))
    yield "document nested 100000 deep", "[" * 100000 + "]" * 100000
    yield "D_hat divides by zero at t=1 w=1", linear(D_hat="1/(w-1)")


def _load_workloads():
    """``bench/workloads.py`` as a module, without writing bytecode next to it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _python(args, cwd=None):
    """A ``python`` process on this checkout's ``src``, its output captured."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, cwd=cwd)


def _demo_documents():
    """``fbsde.cli.DEMOS``, read as JSON from a child process."""
    proc = _python(["-c", "import json, fbsde.cli; print(json.dumps(fbsde.cli.DEMOS))"])
    if proc.returncode:
        sys.exit(proc.stderr.decode(errors="replace"))
    return json.loads(proc.stdout)


def _run(argv, output=None, cwd=None):
    """(report, exit code, stderr) of one ``fbsde`` call in ``cwd``, as bytes,
    int, bytes.

    The report is ``output`` when the call writes one, else standard output.
    """
    proc = _python(["-m", "fbsde", *argv], cwd)
    report = proc.stdout
    if output is not None and output.exists():
        report += output.read_bytes()
        output.unlink()
    return report, proc.returncode, proc.stderr


def outputs(seed):
    """Yield one (label, report, exit code, stderr) per output."""
    demos = _demo_documents()
    for name in sorted(demos):
        for fmt in ("json", "csv"):
            yield (f"demo {name} {fmt}", *_run(["demo", name, "--format", fmt]))
        if demos[name]["kind"] == "nonlinear":
            yield (f"demo {name} picard", *_run(["demo", name, "--mode", "picard"]))
    for flags in STOPPED_FLAGS:
        yield (f"demo monotone-family {' '.join(flags)}", *_run(["demo", "monotone-family", *flags]))
    workloads = _load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        def written(doc):
            """``doc`` as a JSON file in the temporary directory, named by
            its text's digest; a string is the file's text."""
            text = doc if isinstance(doc, str) else json.dumps(doc)
            path = Path(tmp) / f"doc-{_sha1(text.encode())[:12]}.json"
            path.write_text(text, encoding="utf-8")
            return path

        def run_on(doc, subject, *commands):
            """One output per command, a tuple of its words (the command,
            then flags), run on ``doc`` and labelled by its words and
            ``subject``.  The command runs in the temporary directory on the
            file's name, so an error that names the file has the same bytes
            on every run, whatever ran before it."""
            path = written(doc)
            for command in commands:
                yield (f"{' '.join(command)} {subject}",
                       *_run([command[0], path.name, *command[1:]], cwd=tmp))

        for name in sorted(demos):
            yield from run_on(demos[name], f"demo {name}", ("oracle",), ("check",))
        file = str(written(demos["corollary-special"]))
        for usage in USAGE_ERRORS:
            argv = [file if a == "FILE" else a for a in usage]
            yield (f"usage error: {' '.join(usage) or 'no arguments'}", *_run(argv))

        def monotone_doc(N, T, **coefficients):
            """The ``monotone-family`` document on an N-ary tree of depth T,
            with the demo's diffusion rows -(z_tilde, 0)."""
            doc = dict(demos["monotone-family"], tree={"N": N, "T": T, "transition": "uniform"})
            doc["coefficients"] = dict(doc["coefficients"], **coefficients,
                                       sigma=[f"-z{i}" for i in range(1, N)] + ["0"])
            return doc

        for N, T in ORACLE_SIZES:
            yield from run_on(monotone_doc(N, T), f"demo monotone-family N={N} T={T}", ("oracle",))
        N, T, tol = ORACLE_STOP
        path = written(monotone_doc(N, T))
        yield (f"oracle demo monotone-family N={N} T={T} --tol {tol}",
               *_run(["oracle", str(path), "--tol", tol]))
        for N, T in CHECK_SIZES:
            yield from run_on(monotone_doc(N, T, h="-x"),
                              f"demo monotone-family h=-x N={N} T={T}", ("check",))
        plain = written(demos["monotone-family"])
        seeded = written(dict(demos["monotone-family"], options={"seed": SEED_OPTION}))
        for command in ("check", "oracle"):
            yield (f"{command} demo monotone-family --seed {SEED_OPTION}",
                   *_run([command, str(plain), "--seed", str(SEED_OPTION)]))
            yield (f"{command} demo monotone-family options.seed {SEED_OPTION}",
                   *_run([command, str(seeded)]))
        N, T, index = SINGULAR_DOC
        yield from run_on(workloads.linear_doc(random.Random(seed), N, T, index),
                          f"singular linear N={N} T={T}", ("solve",), ("oracle",), ("check",))
        yield from run_on(NEAR_SINGULAR_DOC, "near-singular linear N=2 T=2", ("oracle",))
        for label, doc in OVERFLOW_DOCS.items():
            yield from run_on(doc, f"{label} linear N=2 T=2", ("oracle",))
        yield from run_on(LADDER_OVERFLOW_DOC, "ladder overflow nonlinear N=2 T=1",
                          ("solve",), ("solve", "--mode", "picard"))
        for label, doc in TOO_LARGE_DOCS.items():
            yield from run_on(doc, f"too large: {label}", ("solve",))
        for label, doc in _fault_documents():
            yield from run_on(doc, f"fault: {label}", ("solve",))
        yield from run_on(DRIFT_FAULT, "expression fault: drift at t=1", ("solve",),
                          ("solve", "--mode", "picard"), ("oracle",), ("check",))
        yield from run_on(GENERATOR_FAULT, "expression fault: bsde generator at t=5", ("solve",))
        for name, doc in HORIZON_DOCS.items():
            yield from run_on(doc, f"bsde horizon: {name}", ("solve",))
        for label, source in REFUSED_SOURCES.items():
            doc = dict(REFUSED_BASE, coefficients=dict(REFUSED_BASE["coefficients"], b=source))
            yield from run_on(doc, f"refused source: {label}", ("solve",), ("oracle",), ("check",))
        for workload in workloads.BUILDERS:
            workdir = Path(tmp) / workload
            workdir.mkdir()
            output = Path(tmp) / "report"
            ops = workloads.generate(workload, seed, workdir)
            for op in ops:
                yield (f"{workload}: {op.label}", *_run(op.argv(workdir, output), output))
            for problem in sorted({op.problem for op in ops}):
                path = workdir / problem
                if json.loads(path.read_text(encoding="utf-8"))["kind"] == "nonlinear":
                    yield (f"{workload}: check {problem}", *_run(["check", str(path)]))
                    yield (f"{workload}: picard {problem}",
                           *_run(["solve", str(path), "--mode", "picard"]))


def _sha1(data):
    return hashlib.sha1(data).hexdigest()


def _gap(a, b, where, notes):
    """The largest absolute gap between the floats of ``a`` and ``b``, two
    JSON values; any other difference is named in ``notes``."""
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_gap(x, y, f"{where}[{i}]", notes) for i, (x, y) in enumerate(zip(a, b))),
                   default=0.0)
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((_gap(a[k], b[k], f"{where}.{k}", notes) for k in a), default=0.0)
    if a == b:
        return 0.0
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        gap = abs(a - b)
        return gap if math.isfinite(gap) else math.inf
    notes.append(f"{where} differs")
    return 0.0


def _csv_cells(text):
    """The cells of a CSV report; from the third column on (X, Y, Z), as
    floats where they parse as one."""
    def cell(value):
        try:
            return float(value)
        except ValueError:
            return value
    rows = (line.split(",") for line in text.splitlines())
    return [row[:2] + [cell(v) for v in row[2:]] for row in rows]


def _differences(mine, theirs):
    """(notes, solution gap, residual gap) between two outputs of a label,
    each a dict of ``exit``, ``stderr`` and report ``text``."""
    notes = [f"{key} {theirs[key]!r} -> {mine[key]!r}"
             for key in ("exit", "stderr") if mine[key] != theirs[key]]
    gaps = {"solution": 0.0, "residuals": 0.0}
    try:
        a, b = json.loads(mine["text"]), json.loads(theirs["text"])
    except ValueError:
        a, b = {"solution": _csv_cells(mine["text"])}, {"solution": _csv_cells(theirs["text"])}
    if not (isinstance(a, dict) and isinstance(b, dict)):
        a, b = {"report": a}, {"report": b}
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            notes.append(f"{key} only in {'this' if key in a else 'the saved'} report")
        elif key in gaps:
            gaps[key] = _gap(a[key], b[key], key, notes)
        elif a[key] != b[key]:
            notes.append(f"{key} differs")
    return notes, gaps["solution"], gaps["residuals"]


def _compared(label, entry, report, kept, directory):
    """(the line naming how this output of ``label`` differs from the one
    ``kept`` in ``directory``, or None; whether it differs in more than the
    floats of solution and residuals).  Pops ``label`` from ``kept``."""
    if label not in kept:
        return f"missing from {directory}: {label}", True
    theirs = kept.pop(label)
    theirs["text"] = (directory / theirs["report"]).read_text(encoding="utf-8", errors="replace")
    notes, solution, residuals = _differences(dict(entry, text=report.decode(errors="replace")),
                                              theirs)
    if not (notes or solution or residuals):
        return None, False
    return (f"differs: {label}: solution gap {solution:.3g}, residual gap {residuals:.3g}"
            + "".join(f"; {note}" for note in notes)), bool(notes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="workload file seed")
    parser.add_argument("--against", type=Path,
                        help="a saved listing to compare with; exit 1 if any line differs")
    parser.add_argument("--save", type=Path, help="a directory to keep every report in")
    parser.add_argument("--compare", type=Path,
                        help="a --save directory of the same seed to compare with, float by float")
    args = parser.parse_args(argv)
    saved = None
    if args.against is not None:
        saved = {}
        for line in args.against.read_text(encoding="utf-8").splitlines():
            digest, _, label = line.partition("  ")
            if label:
                saved[label] = digest
    kept = None
    if args.compare is not None:
        kept = json.loads((args.compare / "index.json").read_text(encoding="utf-8"))
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    index, differ, found, beyond = {}, [], [], []
    for label, report, code, stderr in outputs(args.seed):
        line = f"{_sha1(report)} exit={code} stderr={_sha1(stderr)}"
        print(f"{line}  {label}", flush=True)
        if saved is not None and saved.pop(label, None) != line:
            differ.append(label)
        entry = index[label] = {"report": f"{len(index):03d}.out", "exit": code,
                                "stderr": stderr.decode(errors="replace")}
        if args.save is not None:
            (args.save / entry["report"]).write_bytes(report)
        if kept is not None:
            found_line, more = _compared(label, entry, report, kept, args.compare)
            found += [found_line] if found_line else []
            beyond += [label] if more else []
    if args.save is not None:
        (args.save / "index.json").write_text(json.dumps(index, indent=1), encoding="utf-8")
    if kept is not None:
        beyond += kept  # saved labels this run did not produce
        found += [f"missing from this run: {label}" for label in kept]
        print("\n".join(found + [f"{len(found)} of {len(index)} outputs differ from {args.compare}"]))
    differ += saved or []  # saved labels this run did not produce
    if differ:
        sys.exit(f"{len(differ)} outputs differ from {args.against}:\n" + "\n".join(differ))
    if beyond:
        sys.exit(f"{len(beyond)} outputs differ from {args.compare} in more than the floats "
                 "of solution and residuals")


if __name__ == "__main__":
    main()
