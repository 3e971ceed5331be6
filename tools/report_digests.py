#!/usr/bin/env python3
"""Digests of every report the command line writes for the demos and the
benchmark op lists, to prove two checkouts give byte-identical output.

Usage, from the root of a checkout of the repository:

    python3 tools/report_digests.py --seed 1
    python3 tools/report_digests.py --seed 1 --against saved.txt

Each output gets one line: its label, the sha1 of the report, the exit
code and the sha1 of standard error.  Each built-in demo (``fbsde.cli.DEMOS``,
read in a child process) runs in JSON and CSV, a nonlinear one also with
``--mode picard``, and its document, written into a temporary directory,
goes through ``oracle`` and ``check``; the ``monotone-family`` document
also goes through ``oracle`` on each larger tree of ``ORACLE_SIZES``.  Then
every op of each ``bench/workloads.py`` op list runs on files that module
generates for ``--seed`` into the same directory, and every nonlinear file
of an op list also goes through ``check`` and a ``--mode picard`` solve.
Every call is a fresh ``python -m fbsde`` process on this checkout's
``src``.  Running the same command on two checkouts and comparing the
printed lines shows whether their outputs differ.  With ``--against``,
a listing saved from an earlier run of the same seed, the tool also does
that comparison: after printing every line it exits 1, naming each label
whose line differs or is missing from either listing.  Standard library
only; ``bench/workloads.py`` is imported, never written.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (N, T) trees, larger than the benchmark's, on which the Newton oracle
#: solves the ``monotone-family`` demo.
ORACLE_SIZES = ((2, 6), (3, 4))


def _load_workloads():
    """``bench/workloads.py`` as a module, without writing bytecode next to it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _python(args):
    """A ``python`` process on this checkout's ``src``, its output captured."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.run([sys.executable, *args], capture_output=True, env=env)


def _demo_documents():
    """``fbsde.cli.DEMOS``, read as JSON from a child process."""
    proc = _python(["-c", "import json, fbsde.cli; print(json.dumps(fbsde.cli.DEMOS))"])
    if proc.returncode:
        sys.exit(proc.stderr.decode(errors="replace"))
    return json.loads(proc.stdout)


def _run(argv, output=None):
    """(report digest, exit code, stderr digest) of one ``fbsde`` call.

    The report is ``output`` when the call writes one, else standard output.
    """
    proc = _python(["-m", "fbsde", *argv])
    report = proc.stdout
    if output is not None and output.exists():
        report += output.read_bytes()
        output.unlink()
    digest = hashlib.sha1(report).hexdigest()
    return digest, proc.returncode, hashlib.sha1(proc.stderr).hexdigest()


def digests(seed):
    """Yield one (label, report sha1, exit code, stderr sha1) per output."""
    demos = _demo_documents()
    for name in sorted(demos):
        for fmt in ("json", "csv"):
            yield (f"demo {name} {fmt}", *_run(["demo", name, "--format", fmt]))
        if demos[name]["kind"] == "nonlinear":
            yield (f"demo {name} picard", *_run(["demo", name, "--mode", "picard"]))
    workloads = _load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(demos):
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(demos[name]), encoding="utf-8")
            for command in ("oracle", "check"):
                yield (f"{command} demo {name}", *_run([command, str(path)]))
        for N, T in ORACLE_SIZES:
            doc = dict(demos["monotone-family"], tree={"N": N, "T": T, "transition": "uniform"})
            # the demo's diffusion rows, -(z_tilde, 0), at N branches
            doc["coefficients"] = dict(doc["coefficients"],
                                       sigma=[f"-z{i}" for i in range(1, N)] + ["0"])
            path = Path(tmp) / f"monotone-family-{N}-{T}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            yield (f"oracle demo monotone-family N={N} T={T}", *_run(["oracle", str(path)]))
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="workload file seed")
    parser.add_argument("--against", type=Path,
                        help="a saved listing to compare with; exit 1 if any line differs")
    args = parser.parse_args(argv)
    saved = None
    if args.against is not None:
        saved = {}
        for line in args.against.read_text(encoding="utf-8").splitlines():
            digest, _, label = line.partition("  ")
            if label:
                saved[label] = digest
    differ = []
    for label, report, code, stderr in digests(args.seed):
        line = f"{report} exit={code} stderr={stderr}"
        print(f"{line}  {label}", flush=True)
        if saved is not None and saved.pop(label, None) != line:
            differ.append(label)
    differ += saved or []  # saved labels this run did not produce
    if differ:
        sys.exit(f"{len(differ)} outputs differ from {args.against}:\n" + "\n".join(differ))


if __name__ == "__main__":
    main()
