"""Span tracing of the program's layers, installed from outside the package.

Layers call each other through module globals (``optimizer.newmark_solve``,
``failsafe.evaluate_all`` and so on), so replacing those attributes with
thin timing wrappers reaches every call without editing the package. Each
span records its name, start, end and parent; spans stay in memory until
the run ends. A span's self time is its duration minus the time covered by
its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute). A function is patched in every module
# whose globals its callers resolve it through.
PATCHES = [
    ("cli.main", "cli", "main"),
    ("cli.parse_model", "cli", "parse_model"),
    ("cli.report_constraints", "cli", "report_constraints"),
    ("dynamics.load_ground_motion", "cli", "load_ground_motion"),
    ("dynamics.load_ground_motion", "dynamics", "load_ground_motion"),
    ("scenarios.enumerate_scenarios", "cli", "enumerate_scenarios"),
    ("scenarios.enumerate_scenarios", "scenarios", "enumerate_scenarios"),
    ("failsafe.run_failsafe", "cli", "run_failsafe"),
    ("failsafe.evaluate_all", "failsafe", "evaluate_all"),
    ("optimizer.slp_solve", "failsafe", "slp_solve"),
    ("optimizer.solve_lp", "optimizer", "solve_lp"),
    ("optimizer.simplex", "optimizer", "solve_inequality_lp"),
    ("adjoint.adjoint_gradient", "optimizer", "adjoint_gradient"),
    ("adjoint.dg_du_trajectory", "adjoint", "dg_du_trajectory"),
    ("adjoint.solve_adjoint", "adjoint", "solve_adjoint"),
    ("adjoint.accumulate_gradient", "adjoint", "accumulate_gradient"),
    ("model.compute_lowest_modes", "failsafe", "compute_lowest_modes"),
    ("dynamics.select_dominant_record", "failsafe", "select_dominant_record"),
] + [
    ("dynamics.newmark_solve", mod, "newmark_solve")
    for mod in ("optimizer", "failsafe", "adjoint", "cli")
] + [
    ("constraints.evaluate_drift_constraint", mod, "evaluate_drift_constraint")
    for mod in ("optimizer", "failsafe", "cli")
] + [
    ("model.assemble_added_damping", mod, "assemble_added_damping")
    for mod in ("optimizer", "failsafe", "adjoint", "cli")
]


class Tracer:
    """Collects spans and per-layer counts for one process."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, t0, t1, parent
        self.counts: dict[str, float] = defaultdict(float)
        self.lp_rows: list[int] = []
        self.final = None  # the FinalDesign of the run, once it returns
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``; returns its result."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    def wrap(self, name, fn):
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Replace the attributes in ``PATCHES`` with timing wrappers."""
        for name, mod_name, attr in PATCHES:
            module = getattr(package, mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_sum(self, root: str) -> float:
        """Total self time of the first span called ``root`` and everything
        under it; equals the root's duration when the spans nest."""
        child_time = self._child_time()
        start = next(i for i, span in enumerate(self.spans) if span[0] == root)
        inside = {start}
        total = 0.0
        # Spans are stored in the order they open, so descendants follow.
        for i in range(start, len(self.spans)):
            _, t0, t1, parent = self.spans[i]
            if i == start or parent in inside:
                inside.add(i)
                total += t1 - t0 - child_time[i]
        return total

    def _child_time(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        return child_time

    def dump(self, path: Path) -> None:
        """Write the spans as JSON records, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"id": i, "name": n, "start": t0 - base, "end": t1 - base, "parent": p}
            for i, (n, t0, t1, p) in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows) + "\n")

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, inclusive and self seconds."""
        child_time = self._child_time()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        for i, (name, t0, t1, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["incl_s"] += t1 - t0
            entry["self_s"] += t1 - t0 - child_time[i]
        return dict(out)


def _observe_newmark(tracer, args, kwargs, result):
    tracer.counts["dynamics.steps"] += result.n_steps


def _observe_adjoint(tracer, args, kwargs, result):
    tracer.counts["adjoint.steps"] += args[2].n_steps


def _observe_lp(tracer, args, kwargs, result):
    planes, center = args[1], args[2]
    tracer.lp_rows.append(sum(pl.enabled for pl in planes) + len(center))
    tracer.counts["optimizer.lp_elastic"] += result.status == "elastic"


def _observe_slp(tracer, args, kwargs, result):
    tracer.counts["optimizer.iterations"] += result.n_iterations
    tracer.counts["optimizer.planes_total"] += len(result.planes)
    tracer.counts["optimizer.planes_disabled"] += sum(not pl.enabled for pl in result.planes)


def _observe_sweep(tracer, args, kwargs, result):
    scenario_set, records = args[2], args[3]
    tracer.counts["failsafe.sweep_analyses"] += len(scenario_set) * len(records)


def _observe_final(tracer, args, kwargs, result):
    tracer.final = result


_OBSERVERS = {
    "dynamics.newmark_solve": _observe_newmark,
    "adjoint.solve_adjoint": _observe_adjoint,
    "optimizer.solve_lp": _observe_lp,
    "optimizer.slp_solve": _observe_slp,
    "failsafe.evaluate_all": _observe_sweep,
    "failsafe.run_failsafe": _observe_final,
}
