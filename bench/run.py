#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``fbsde`` command line.

Usage, from the root of a checkout of the repository:

    python3 bench/run.py --workload large-tree --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

One process runs one workload as a closed loop: one client, one op at a
time, each op an in-process ``fbsde.cli.run_cli`` call on files generated
from ``--seed``.  The op list is repeated in whole passes while the next
pass still fits in ``--seconds``.  A fixed reference kernel runs between
ops and after each import probe, and each time is rescaled by the kernel's
speed next to it, so that the host's drifting speed cancels out.  Every op's output is checked
after the timed loop.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` every op runs once
plain and once with spans around each module's public functions, and the
last line carries the per-layer metrics.  ``--workload all`` runs each
workload in its own process and prints one table.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported by this process or by
# the import-time probes it starts.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = tuple(workloads.BUILDERS)

# Import probes: a few before the timed loop, then one whenever this much
# loop time has passed, so that the samples spread over the whole run.
SETUP_FIRST_SAMPLES = 3
SETUP_EVERY_S = 2.0
# The probe times ``import fbsde`` and then, in the same process and so on
# the same CPU at the same moment, the reference kernel (best of two runs);
# argv[1] is this directory, put on the path only after the timed import.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import fbsde; "
    "elapsed = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
    "import numpy, reference; "
    "print(repr(elapsed), repr(min(reference.reference_kernel(numpy) for _ in range(2))))"
)
DEMOS = ("partially-coupled", "corollary-special", "singular-gamma", "monotone-family")

END_TO_END = (
    ("setup_s", "s"),
    ("op_s.p50", "ref_s"),
    ("nodes_per_s", "1/ref_s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

# name, source, key.  "time" is outermost inclusive time of a span, "self"
# its time minus child spans, "calls" and "nested" exact counts from the
# first traced pass, "stats" the sum of the nonlinear reports' stats block.
# Every value is per op.
PER_LAYER = (
    ("cli.self_s", "self", "cli"),
    ("io.bind_s", "time", "io.bind"),
    ("io.payload_s", "time", "io.payload"),
    ("io.render_s", "time", "io.render"),
    ("expressions.parse_calls", "calls", "expressions.parse"),
    ("expressions.eval_calls", "calls", "expressions.eval"),
    ("expressions.eval_s", "time", "expressions.eval"),
    ("tree.build_s", "time", "tree.build"),
    ("tree.node_id_calls", "calls", "tree.node_id"),
    ("martingale.norm_constants_s", "time", "martingale.norm_constants"),
    ("linear.riccati_s", "time", "linear.riccati"),
    ("linear.riccati_calls", "calls", "linear.riccati"),
    ("linear.validate_calls", "calls", "linear.validate"),
    ("linear.solve_linear_s", "time", "linear.solve_linear"),
    ("linear.forward_s", "self", "linear.solve_linear"),
    ("linear.residuals_s", "time", "linear.residuals"),
    ("linear.solve_special_s", "time", "linear.solve_special"),
    ("linear.solve_special_calls", "calls", "linear.solve_special"),
    ("bsde.solve_s", "time", "bsde.solve"),
    ("bsde.solve_calls", "calls", "bsde.solve"),
    ("bsde.residual_s", "time", "bsde.residual"),
    ("nonlinear.solve_s", "time", "nonlinear.solve"),
    ("nonlinear.self_s", "self", "nonlinear.solve"),
    ("nonlinear.residual_s", "time", "nonlinear.residual"),
    ("nonlinear.residual_calls", "calls", "nonlinear.residual"),
    ("nonlinear.check_s", "time", "nonlinear.check"),
    ("nonlinear.inner_solves", "stats", "inner_solves"),
    ("nonlinear.picard_iterations", "stats", "iterations"),
    ("nonlinear.halvings", "stats", "halvings"),
    ("nonlinear.levels", "stats", "levels"),
    ("oracle.linear_s", "time", "oracle.linear"),
    ("oracle.newton_s", "time", "oracle.newton"),
    ("oracle.newton_steps", "calls", "oracle.jacobian"),
    ("oracle.residual_evals", "nested", "oracle.residual_evals"),
    ("trace.overhead", "overhead", None),
)

# Per-layer metrics predicted to stay at zero on each workload; every other
# one must record at least one call there (the span-coverage self-check).
_NONLINEAR_SOLVE = ("nonlinear.solve_s", "nonlinear.self_s", "nonlinear.inner_solves",
                    "nonlinear.picard_iterations", "nonlinear.halvings", "nonlinear.levels")
_ORACLE = ("oracle.linear_s", "oracle.newton_s", "oracle.newton_steps", "oracle.residual_evals")
PREDICTED_ZERO = {
    "large-tree": frozenset(
        ("linear.solve_special_s", "linear.solve_special_calls",
         "nonlinear.residual_s", "nonlinear.residual_calls", "nonlinear.check_s")
        + _NONLINEAR_SOLVE + _ORACLE),
    "continuation": frozenset(
        ("bsde.solve_s", "bsde.solve_calls", "bsde.residual_s",
         "nonlinear.check_s", "nonlinear.halvings") + _ORACLE),
    "crosscheck": frozenset(
        ("tree.node_id_calls", "linear.riccati_s", "linear.riccati_calls",
         "linear.solve_linear_s", "linear.forward_s", "linear.solve_special_s",
         "linear.solve_special_calls", "bsde.residual_s") + _NONLINEAR_SOLVE),
}


def _unit(name, source):
    if source == "overhead":
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def import_package():
    """Import ``fbsde`` from this checkout's sources, or exit non-zero."""
    if not (SRC / "fbsde" / "__init__.py").is_file():
        sys.exit(f"error: no fbsde sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fbsde
    import fbsde.cli
    import fbsde.io

    if Path(fbsde.__file__).resolve().parent != (SRC / "fbsde").resolve():
        sys.exit(f"error: imported fbsde from {fbsde.__file__}, not from {SRC}")
    return fbsde


def import_time():
    """(seconds to import fbsde, numpy included, in a fresh interpreter;
    the reference kernel's seconds right after, in that interpreter)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(Path(__file__).resolve().parent)],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    elapsed, kernel = out.stdout.split()[-2:]
    return float(elapsed), float(kernel)


def environment(args):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def _digest(path: Path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


class Runner:
    """Runs a workload's ops and keeps what each execution produced."""

    def __init__(self, fbsde, ops, workdir):
        self.fbsde = fbsde
        self.ops = ops
        self.workdir = workdir
        self.outdir = workdir / "out"
        self.outdir.mkdir()
        self.first = {}  # op index -> (output path, digest, exit code)
        self.executions = []  # (op index, exit code, digest)

    def execute(self, index, tag):
        """Run op ``index`` once; return its wall time in seconds."""
        op = self.ops[index]
        out = self.outdir / f"{index}.{tag}"
        with contextlib.suppress(FileNotFoundError):
            out.unlink()
        argv = op.argv(self.workdir, out)
        run_cli = self.fbsde.cli.run_cli
        start = time.perf_counter()
        try:
            code = run_cli(argv)
        except Exception:  # a raising op is a failed op, not a crashed benchmark
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            code = None
        else:
            elapsed = time.perf_counter() - start
        digest = _digest(out)
        self.executions.append((index, code, digest))
        self.first.setdefault(index, (out, digest, code))
        return elapsed

    def solve_again(self, op):
        out = self.outdir / "crosscheck.json"
        self.fbsde.cli.run_cli(["solve", str(self.workdir / op.problem), "--output", str(out)])
        return json.loads(out.read_text(encoding="utf-8"))

    def check(self):
        """Judge every execution; return (failed count, reason per bad op).

        Each op's first output goes through the workload's checks.  Every
        later execution must exit the same way and write the same bytes, so
        the second rendering of the first input (see ``run_plain``) and the
        traced executions are determinism checks too.
        """
        bad = {}
        for index, (out, _, code) in sorted(self.first.items()):
            try:
                reason = workloads.check_output(self.fbsde, self.ops[index], self.workdir,
                                                code, out, self.solve_again)
            except Exception as err:  # an unreadable output is a failed check
                reason = f"{type(err).__name__}: {err}"
            if reason is not None:
                bad[index] = reason
        failed = 0
        differs = set()
        for index, code, digest in self.executions:
            if index in bad:
                failed += 1
            elif code != self.ops[index].code or digest != self.first[index][1]:
                failed += 1
                differs.add(index)
        for index in differs:
            bad[index] = "an execution differs from the first one"
        return failed, bad

    def report_stats(self):
        """Sum of the ``stats`` blocks of the first nonlinear solve reports."""
        total = {"inner_solves": 0, "iterations": 0, "halvings": 0, "levels": 0}
        for index, (out, _, _) in self.first.items():
            op = self.ops[index]
            if op.command != "solve" or op.fmt != "json" or not out.exists():
                continue
            report = json.loads(out.read_text(encoding="utf-8"))
            if report.get("kind") == "nonlinear" and "stats" in report:
                for key in total:
                    total[key] += report["stats"][key]
        return total


def warm_up(fbsde, workdir):
    """Run the built-in demos once so lazy imports and first-call set-up are done."""
    for name in DEMOS:
        try:
            fbsde.cli.run_cli(["demo", name, "--output", str(workdir / f"demo-{name}.json")])
        except Exception:  # the timed ops judge the program; warm-up only runs it
            traceback.print_exc()


def timed_passes(seconds, body):
    """Repeat ``body(pass_index)`` in whole passes while the next one fits."""
    start = time.perf_counter()
    passes = 0
    while True:
        body(passes)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return passes


def run_plain(ops, runner, seconds):
    """Time every op execution between two reference-kernel runs; probe
    import time between ops.  Returns (op index, wall s, reference s)
    samples, passes, peak RSS and the (import s, reference s) samples."""
    import numpy

    times = []
    setup = [import_time() for _ in range(SETUP_FIRST_SAMPLES)]
    last_probe = time.perf_counter()
    before = reference.reference_kernel(numpy)

    def one_pass(p):
        nonlocal last_probe, before
        for i in range(len(ops)):
            elapsed = runner.execute(i, "first" if p == 0 else "again")
            after = reference.reference_kernel(numpy)
            times.append((i, elapsed, (before + after) / 2))
            before = after
            if time.perf_counter() - last_probe >= SETUP_EVERY_S:
                setup.append(import_time())
                last_probe = time.perf_counter()
                before = reference.reference_kernel(numpy)

    passes = timed_passes(seconds, one_pass)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.execute(0, "repeat")
    return times, passes, peak_rss_mb, setup


def run_traced(ops, runner, seconds):
    """Each op once plain and once traced; exact counters from the first pass."""
    tracer = spans.Tracer()
    plain, traced = [], []
    counts = {}
    missing = []

    def one_pass(p):
        for i in range(len(ops)):
            plain.append(runner.execute(i, "first" if p == 0 else "again"))
            patches, missed = spans.install(tracer)
            missing.extend(m for m in missed if m not in missing)
            try:
                traced.append(runner.execute(i, "traced"))
            finally:
                spans.uninstall(patches)
        if p == 0:
            counts.update(tracer.snapshot())

    passes = timed_passes(seconds, one_pass)
    return tracer, counts, plain, traced, passes, missing


def per_layer_metrics(workload, tracer, counts, stats, plain, traced, n_ops):
    """Per-op layer values, and the metrics that broke the coverage check."""
    values, uncovered = {}, []
    for name, source, key in PER_LAYER:
        if source == "overhead":
            # executions come in whole passes, so op i is every n_ops-th one
            values[name] = statistics.geometric_mean(
                statistics.median(traced[i::n_ops]) / statistics.median(plain[i::n_ops])
                for i in range(n_ops))
            continue
        if source in ("time", "self"):
            table = tracer.time if source == "time" else tracer.self_time
            value = table.get(key, 0.0) / len(traced)
            seen = counts["calls"][key]
        elif source == "stats":
            value = seen = stats[key] / n_ops
        else:
            seen = counts[source][key]
            value = seen / n_ops
        values[name] = value
        if not seen and name not in PREDICTED_ZERO[workload]:
            uncovered.append(name)
    return values, uncovered


def run_workload(args):
    fbsde = import_package()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops = workloads.generate(args.workload, args.seed, workdir)
        warm_up(fbsde, workdir)
        runner = Runner(fbsde, ops, workdir)
        if args.trace:
            tracer, counts, plain, traced, passes, missing = run_traced(
                ops, runner, args.seconds)
            samples = len(plain)
        else:
            times, passes, peak_rss_mb, setup = run_plain(ops, runner, args.seconds)
            samples = len(times)
        failed, bad = runner.check()
        stats = runner.report_stats() if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for index, reason in sorted(bad.items()):
        print(f"FAILED op {index} ({ops[index].label}): {reason}", file=sys.stderr)
    attempted = len(runner.executions)
    env = environment(args)
    env.update(passes=passes, op_samples=samples, ops=[op.label for op in ops])
    correct = not bad
    if args.trace:
        values, uncovered = per_layer_metrics(args.workload, tracer, counts, stats,
                                              plain, traced, len(ops))
        for name in missing:
            print(f"SPAN COVERAGE: target {name} not found in the package", file=sys.stderr)
        for name in uncovered:
            print(f"SPAN COVERAGE: {name} recorded no call on {args.workload}", file=sys.stderr)
        correct = correct and not missing and not uncovered
        metrics = {name: {"value": values[name], "unit": _unit(name, source)}
                   for name, source, _ in PER_LAYER}
    else:
        wall = [statistics.median(t for i, t, _ in times if i == index)
                for index in range(len(ops))]
        scaled = [statistics.median(reference.rescale(t, ref) for i, t, ref in times if i == index)
                  for index in range(len(ops))]
        env["op_p50_s"] = dict(zip((op.label for op in ops), wall))
        env["op_p50_ref_s"] = dict(zip((op.label for op in ops), scaled))
        env["wall_op_s.p50"] = statistics.geometric_mean(wall)
        env["wall_nodes_per_s"] = sum(op.nodes for op in ops) / sum(wall)
        env["op_samples_s"] = times
        env["setup_samples_s"] = setup
        env["wall_setup_s"] = statistics.median(t for t, _ in setup)
        metrics = {
            "setup_s": statistics.median(reference.rescale(t, ref) for t, ref in setup),
            "op_s.p50": statistics.geometric_mean(scaled),
            "nodes_per_s": sum(op.nodes for op in ops) / sum(scaled),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"{args.workload}: failed_frac={failed / attempted!r} ({failed} of {attempted} ops), "
              f"op_s.p50 over {samples} ops in {passes} passes")
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process; one table of every metric."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        results[name]["env"] = json.loads(lines[-2][len("env "):])
    for name, res in results.items():
        frac = res["failed"] / res["attempted"]
        print(f"{name}  correct={res['correct']}  failed_frac={frac!r} "
              f"({res['failed']} of {res['attempted']} ops)")
        for metric, entry in res["metrics"].items():
            print(f"  {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": {n: r["metrics"] for n, r in results.items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: also write the results here as JSON")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
