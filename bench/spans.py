"""Spans around the public functions of each ``fbsde`` module, from outside.

The package is not edited: ``install`` swaps each target function for a
timing wrapper wherever a module of the package holds a reference to it.
Several modules import functions by name (``cli`` binds ``solve_bsde``,
``oracle`` binds ``solve_bsde``, ``io`` binds ``parse_expression``), so a
patch on the defining module alone would miss those call sites; every module
dictionary is therefore searched for the original object.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute or Class.method, span name); one span name may cover
# several functions, and then its time counts the outermost call only.
TARGETS = [
    ("cli", "run_cli", "cli"),
    ("io", "load_problem", "io.bind"),
    ("io", "bind_problem", "io.bind"),
    ("io", "solution_payload", "io.payload"),
    ("io", "certificate_payload", "io.payload"),
    ("io", "constants_payload", "io.payload"),
    ("io", "render_json", "io.render"),
    ("io", "render_csv", "io.render"),
    ("expressions", "parse_expression", "expressions.parse"),
    ("expressions", "Expression.evaluate", "expressions.eval"),
    ("tree", "build_tree", "tree.build"),
    ("tree", "ScenarioTree.node_id", "tree.node_id"),
    ("martingale", "norm_constants", "martingale.norm_constants"),
    ("linear", "riccati_backward", "linear.riccati"),
    ("linear", "LinearCoefficients.validate", "linear.validate"),
    ("linear", "solve_linear", "linear.solve_linear"),
    ("linear", "linear_residuals", "linear.residuals"),
    ("linear", "solve_special", "linear.solve_special"),
    ("bsde", "solve_bsde", "bsde.solve"),
    ("bsde", "bsde_residual", "bsde.residual"),
    ("nonlinear", "solve_continuation", "nonlinear.solve"),
    ("nonlinear", "solve_flat_picard", "nonlinear.solve"),
    ("nonlinear", "nonlinear_residual", "nonlinear.residual"),
    ("nonlinear", "check_assumptions", "nonlinear.check"),
    ("oracle", "linear_oracle", "oracle.linear"),
    ("oracle", "solve_oracle", "oracle.newton"),
    ("oracle", "finite_difference_jacobian", "oracle.jacobian"),
]

# Calls of the first span made while the second is open, counted apart.
NESTED = {("bsde.solve", "oracle.newton"): "oracle.residual_evals"}


class Tracer:
    """Per-span call counts, outermost inclusive time and self time.

    Self time is a span's duration minus the time of the spans it opened.
    """

    def __init__(self):
        self.calls = Counter()
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.nested = Counter()
        self._stack = []  # child time accumulated by each open span
        self._depth = Counter()

    def wrap(self, fn, name):
        stack, depth = self._stack, self._depth
        outers = [(outer, key) for (inner, outer), key in NESTED.items() if inner == name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            for outer, key in outers:
                if depth[outer]:
                    self.nested[key] += 1
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                depth[name] -= 1
                self.self_time[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if not depth[name]:
                    self.time[name] += duration

        return traced

    def snapshot(self):
        """Copies of the exact counters so far, by kind."""
        return {"calls": Counter(self.calls), "nested": Counter(self.nested)}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fbsde" or name.startswith("fbsde."))]


def install(tracer: Tracer):
    """Wrap every target; return (patches to undo, targets not found)."""
    modules = _package_modules()
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    patches, missing = [], []
    for module, attr, name in TARGETS:
        owner = by_name.get(module)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name, None)
            original = None if cls is None else cls.__dict__.get(method)
            if original is None:
                missing.append(f"{module}.{attr}")
                continue
            setattr(cls, method, tracer.wrap(original, name))
            patches.append((cls, method, original))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{module}.{attr}")
            continue
        wrapped = tracer.wrap(original, name)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, wrapped)
                patches.append((mod, key, original))
    return patches, missing


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
