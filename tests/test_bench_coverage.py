"""The benchmark's span-coverage rule, checked on one pass of every workload.

``bench/run.py --trace 1`` fails a run when a per-layer metric read from a
span records no call on a workload whose ``PREDICTED_ZERO`` entry does not
list it.  This test applies the same rule in-process, so a change that
leaves a traced span idle fails here and not first in the benchmark.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

import fbsde.cli
import fbsde.io  # noqa: F401 - the spans wrap io functions by module

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 7
SPAN_SOURCES = ("time", "self", "calls", "nested")


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` as a module, with ``spans`` and ``workloads`` it
    imports; no bytecode is written under ``bench/`` and the environment
    variables it sets at import are restored."""
    saved = (dict(os.environ), list(sys.path), sys.dont_write_bytecode)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(saved[0])
        sys.path[:] = saved[1]
        sys.dont_write_bytecode = saved[2]
    return module


@pytest.mark.parametrize("workload", ["large-tree", "continuation", "crosscheck"])
def test_every_unpredicted_span_records_a_call(bench_run, workload, tmp_path):
    assert workload in bench_run.WORKLOADS
    ops = bench_run.workloads.generate(workload, SEED, tmp_path)
    tracer = bench_run.spans.Tracer()
    patches, missing = bench_run.spans.install(tracer)
    try:
        codes = [fbsde.cli.run_cli(op.argv(tmp_path, tmp_path / f"{i}.out"))
                 for i, op in enumerate(ops)]
    finally:
        bench_run.spans.uninstall(patches)
    assert missing == []
    assert codes == [op.code for op in ops]
    counts = tracer.snapshot()
    idle = [name for name, source, key in bench_run.PER_LAYER
            if source in SPAN_SOURCES
            and not counts["nested" if source == "nested" else "calls"][key]
            and name not in bench_run.PREDICTED_ZERO[workload]]
    assert idle == []
