#!/usr/bin/env python3
"""Digests of every report the command line writes for the demos and the
benchmark op lists, to prove two checkouts give byte-identical output.

Usage, from the root of a checkout of the repository:

    python3 tools/report_digests.py --seed 1

Each output gets one line: its label, the sha1 of the report, the exit
code and the sha1 of standard error.  The four demos run in JSON and CSV;
then every op of each ``bench/workloads.py`` op list runs on files that
module generates for ``--seed`` into a temporary directory.  Every call is
a fresh ``python -m fbsde`` process on this checkout's ``src``.  Running
the same command on two checkouts and comparing the printed lines shows
whether their outputs differ.  Standard library only;
``bench/workloads.py`` is imported, never written.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("corollary-special", "monotone-family", "partially-coupled", "singular-gamma")


def _load_workloads():
    """``bench/workloads.py`` as a module, without writing bytecode next to it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _run(argv, output=None):
    """(report digest, exit code, stderr digest) of one ``fbsde`` call.

    The report is ``output`` when the call writes one, else standard output.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-m", "fbsde", *argv], capture_output=True, env=env)
    report = proc.stdout
    if output is not None and output.exists():
        report += output.read_bytes()
        output.unlink()
    digest = hashlib.sha1(report).hexdigest()
    return digest, proc.returncode, hashlib.sha1(proc.stderr).hexdigest()


def digests(seed):
    """Yield one (label, report sha1, exit code, stderr sha1) per output."""
    for name in DEMOS:
        for fmt in ("json", "csv"):
            yield (f"demo {name} {fmt}", *_run(["demo", name, "--format", fmt]))
    workloads = _load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads.BUILDERS:
            workdir = Path(tmp) / workload
            workdir.mkdir()
            output = Path(tmp) / "report"
            for op in workloads.generate(workload, seed, workdir):
                yield (f"{workload}: {op.label}", *_run(op.argv(workdir, output), output))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="workload file seed")
    args = parser.parse_args(argv)
    for label, report, code, stderr in digests(args.seed):
        print(f"{report} exit={code} stderr={stderr}  {label}", flush=True)


if __name__ == "__main__":
    main()
