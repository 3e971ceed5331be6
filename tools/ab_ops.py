#!/usr/bin/env python3
"""Alternating in-process A/B timing of one benchmark workload's ops
against another checkout of the package.

Usage, from the root of a checkout of the repository:

    python3 tools/ab_ops.py ../parent --workload continuation
    python3 tools/ab_ops.py ../parent --workload crosscheck --seed 11 --rounds 10

``PARENT_CHECKOUT`` is the root of another checkout (for example a
``git archive`` of the parent commit).  Its ``src/fbsde`` is imported in
this same process under the alias ``fbsde_parent``, beside this checkout's
``fbsde``, so both sides run on the same CPU at the same moment; separate
processes on a shared host drift too far apart to compare.  The
workload's files are generated once by ``bench/workloads.py`` (imported,
never written) for ``--seed`` into a temporary directory.  Each round runs
every op once per side, op by op, the side that goes first alternating
from round to round.  Where the two outputs of an op are not byte-equal
they are compared as ``tools/report_digests.py --compare`` does: exit
code, standard error and every report key but ``stats`` must be equal,
and the floats of ``solution`` and ``residuals`` within ``FLOAT_GAP``;
the tool names each such op after timing, and exits at the first op that
fails the comparison.  It prints, per op, the median over rounds of the
ratio of this checkout's time to the parent's, and then their geometric
mean: below 1 means this checkout is faster.  Standard library and numpy
only.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: The largest gap between two outputs' solution or residual floats that
#: still counts as the same result.
FLOAT_GAP = 1e-8


def _load(name, path, package=False):
    """The module or package at ``path``, imported as ``name``, without
    writing bytecode next to it."""
    sys.dont_write_bytecode = True
    kwargs = {"submodule_search_locations": [str(path.parent)]} if package else {}
    spec = importlib.util.spec_from_file_location(name, path, **kwargs)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses and relative imports look it up here
    spec.loader.exec_module(module)
    return module


def _cli(name, checkout):
    """``fbsde.cli`` of ``checkout``, its package imported as ``name``."""
    _load(name, Path(checkout) / "src" / "fbsde" / "__init__.py", package=True)
    return importlib.import_module(f"{name}.cli")


def _run(cli, argv, output):
    """Seconds and report bytes of one in-process ``run_cli(argv)`` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.run_cli(argv)
        elapsed = time.perf_counter() - start
    return elapsed, (code, output.read_bytes() if output.exists() else b"", err.getvalue())


def _mismatch(digests, this, parent):
    """Why two outputs of an op are not the same result, or None: see
    ``FLOAT_GAP``.  Each output is (exit code, report bytes, stderr)."""
    mine, theirs = ({"exit": code, "stderr": err, "text": text.decode(errors="replace")}
                    for code, text, err in (this, parent))
    notes, solution, residuals = digests._differences(mine, theirs)
    notes = [note for note in notes if note != "stats differs"]
    for name, gap in (("solution", solution), ("residuals", residuals)):
        if gap > FLOAT_GAP:
            notes.append(f"{name} gap {gap:.3g}")
    return "; ".join(notes) or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args(argv)

    workloads = _load("workloads", ROOT / "bench" / "workloads.py")
    digests = _load("report_digests", ROOT / "tools" / "report_digests.py")
    if args.workload not in workloads.BUILDERS:
        parser.error(f"--workload must be one of {', '.join(workloads.BUILDERS)}")
    sides = {"this": _cli("fbsde", ROOT), "parent": _cli("fbsde_parent", args.parent)}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        ops = workloads.generate(args.workload, args.seed, work)
        times = {op.label: {side: [] for side in sides} for op in ops}
        differed = []
        for side, cli in sides.items():  # warm both: lazy imports, first-call set-up
            _run(cli, ["demo", "monotone-family", "--output", str(work / f"warm-{side}")],
                 work / f"warm-{side}")
        for r in range(args.rounds):
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for k, op in enumerate(ops):
                outputs = {}
                for side in order:
                    out = work / f"out-{k}-{side}"
                    elapsed, outputs[side] = _run(sides[side], op.argv(work, out), out)
                    times[op.label][side].append(elapsed)
                if outputs["this"] != outputs["parent"]:
                    why = _mismatch(digests, outputs["this"], outputs["parent"])
                    if why:
                        sys.exit(f"{op.label}: the two checkouts' outputs differ: {why}")
                    if op.label not in differed:
                        differed.append(op.label)
    ratios = []
    for label, t in times.items():
        ratio = statistics.median(a / b for a, b in zip(t["this"], t["parent"]))
        ratios.append(ratio)
        print(f"{label:42s} this {statistics.median(t['this']) * 1e3:8.2f} ms  "
              f"parent {statistics.median(t['parent']) * 1e3:8.2f} ms  ratio {ratio:.3f}")
    print(f"geometric mean of the median ratios: "
          f"{math.exp(sum(map(math.log, ratios)) / len(ratios)):.3f}")
    for label in differed:
        print(f"differs in stats or floats within {FLOAT_GAP:g} only: {label}")


if __name__ == "__main__":
    main()
