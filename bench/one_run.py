"""One benchmark run in a fresh process: set up, solve, check, report.

Reads the inputs written by ``workloads.py`` and writes one JSON result
file. Timings:

- ``setup_s``: importing the package plus loading the generated files
  through ``cli.parse_model``, ``load_ground_motion`` and
  ``enumerate_scenarios``;
- ``solve_s``: ``run_failsafe`` for library workloads, ``cli.main`` for the
  CLI workload, up to a verified design and (for the CLI) its artifacts;
- ``ref_s``: untraced only, the speed samples ``SpeedProbe`` took during
  the solve (seconds per ``reference_loop``).

With ``--trace`` the layers run under the span wrappers of ``spans.py`` and
the result also carries the per-layer numbers.

Usage: python3 bench/one_run.py --inputs DIR --result FILE [--trace]
       [--setup-only] [--spans FILE]
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE_STEPS = 15_000  # one speed sample: about 50 ms on a 2.1 GHz Xeon core
PROBE_INTERVAL_S = 1.0


def reference_loop() -> float:
    """Seconds for a fixed amount of work shaped like a time-step loop: one
    small matrix-vector product per Python iteration."""
    import numpy as np

    a = np.full((4, 4), 0.1) + 0.5 * np.eye(4)
    y = np.ones(4)
    t0 = time.perf_counter()
    for _ in range(PROBE_STEPS):
        y = a @ y
        y = y / (1.0 + abs(float(y[0])))
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples how fast the core runs while a solve is timed.

    The speed of a core on a shared host drifts by up to a third, over
    seconds to minutes. The probe times ``reference_loop`` when the solve
    starts, when it ends, and once a second in between from a timer signal
    (Python runs the handler between two bytecodes of the solve). ``busy_s``
    is the time the samples in between took, for the caller to subtract.
    """

    def __enter__(self):
        self.samples = [reference_loop()]
        self.busy_s = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.samples.append(reference_loop())

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_loop())
        self.busy_s += time.perf_counter() - t0


PROBE = SpeedProbe()


def setup(inputs: Path, settings: dict, tracer: Tracer | None):
    """Import the package and load the workload; returns the loaded objects."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import failsafe_dampers as fd
    from failsafe_dampers import cli, dynamics, scenarios

    if tracer is not None:
        tracer.install(fd)
    model = cli.parse_model(inputs / settings["model"])
    records = [dynamics.load_ground_motion(inputs / r) for r in settings["records"]]
    scenario_set = scenarios.enumerate_scenarios(
        model.n_dampers, settings["complete_k"], settings["partial_k"], settings["nu"]
    )
    return fd, model, records, scenario_set, time.perf_counter() - t0


def timed(tracer: Tracer | None, fn, *args, **kwargs):
    """Call ``fn``, under the root span "solve" when tracing and under the
    speed probe when not; returns (seconds, result). The probe's samples
    are not counted in the seconds."""
    if tracer is not None:
        t0 = time.perf_counter()
        result = tracer.span("solve", fn, *args, **kwargs)
        tracer.uninstall()
        return time.perf_counter() - t0, result
    with PROBE:
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        return time.perf_counter() - t0 - PROBE.busy_s, result


def solve_library(fd, model, records, scenario_set, settings, tracer):
    spec = settings["spec"]
    run = fd.failsafe.run_failsafe
    if tracer is not None:
        run = tracer.wrap("failsafe.run_failsafe", run)
    solve_s, final = timed(
        tracer,
        run,
        model,
        scenario_set,
        records,
        c_bar=settings["c_bar"],
        slp_config=fd.SlpConfig(i_min=spec["i_min"], i_max=spec["i_max"]),
        fs_config=fd.FailSafeConfig(),
        mode=spec["mode"],
    )
    # Independent check: sweep every scenario under every record again.
    g = fd.evaluate_all(final.design, model, scenario_set, records, final.params_final)
    return solve_s, {
        "exit_code": 0,
        "evaluations": final.eval_counter.total,
        "design_cost": final.cost,
        "converged": final.converged,
        "verified": final.verified,
        "max_g": final.max_g,
        "recheck_max_g": float(g.max()),
        "violation_tol": fd.FailSafeConfig().violation_tol,
        "n_scenarios": len(scenario_set),
        "final_ws": len(final.working_set_history[-1]),
        "subproblems": len(final.subproblems),
        "resumes": sum(sp.resumes for sp in final.subproblems),
        "records_active": len(final.active_records),
    }


def solve_cli(fd, inputs, settings, artifacts: Path, tracer):
    spec = settings["spec"]
    argv = [
        "--model", str(inputs / settings["model"]),
        "--records", *[str(inputs / r) for r in settings["records"]],
        "--mode", spec["mode"],
        "--complete-k", str(settings["complete_k"]),
        "--partial-k", str(settings["partial_k"]),
        "--nu", repr(settings["nu"]),
        "--cbar", repr(settings["c_bar"]),
        "--imin", str(spec["i_min"]),
        "--imax", str(spec["i_max"]),
        "--out", str(artifacts),
    ]
    solve_s, code = timed(tracer, fd.cli.main, argv)
    if code != 0:
        return solve_s, {"exit_code": code}
    manifest = json.loads((artifacts / "run_manifest.json").read_text())
    with open(artifacts / "constraints.csv", newline="") as fh:
        g = [float(row["g"]) for row in csv.DictReader(fh)]
    final = tracer.final if tracer is not None else None
    out = {
        "exit_code": code,
        "evaluations": manifest["function_evaluations"]["total"],
        "design_cost": manifest["design"]["J_normalized"],
        "converged": manifest["converged"],
        "verified": manifest["verified"],
        "max_g": manifest["max_g"],
        # The CLI's own re-sweep of every scenario, read back from its report.
        "recheck_max_g": max(g),
        "violation_tol": fd.FailSafeConfig().violation_tol,
        "n_scenarios": manifest["scenarios"]["n_total"],
        "final_ws": len(manifest["working_set_history"][-1]),
        "subproblems": len(manifest["subproblems"]),
        "resumes": sum(sp.resumes for sp in final.subproblems) if final else None,
        "records_active": len(manifest["active_records"]),
        "artifact_bytes": sum(p.stat().st_size for p in artifacts.rglob("*") if p.is_file()),
    }
    return solve_s, out


def layer_metrics(tracer: Tracer, solve_s: float, out: dict) -> dict[str, float]:
    """The per-layer numbers of one traced run, keyed by metric name."""
    t = tracer.layer_times()
    c = tracer.counts

    def get(name, field):
        return t.get(name, {}).get(field, 0.0)

    steps = c["dynamics.steps"]
    adj_steps = c["adjoint.steps"]
    rows = tracer.lp_rows
    covered = tracer.self_sum("solve")
    return {
        "dynamics.newmark_solve.calls": get("dynamics.newmark_solve", "calls"),
        "dynamics.newmark_solve.self_s": get("dynamics.newmark_solve", "self_s"),
        "dynamics.steps": steps,
        "dynamics.us_per_step": 1e6 * get("dynamics.newmark_solve", "self_s") / max(steps, 1),
        "adjoint.adjoint_gradient.calls": get("adjoint.adjoint_gradient", "calls"),
        "adjoint.solve_adjoint.self_s": get("adjoint.solve_adjoint", "self_s"),
        "adjoint.dg_du_trajectory.self_s": get("adjoint.dg_du_trajectory", "self_s"),
        "adjoint.accumulate_gradient.self_s": get("adjoint.accumulate_gradient", "self_s"),
        "adjoint.us_per_step": 1e6 * get("adjoint.solve_adjoint", "self_s") / max(adj_steps, 1),
        "constraints.evaluate_drift_constraint.calls": get("constraints.evaluate_drift_constraint", "calls"),
        "constraints.evaluate_drift_constraint.self_s": get("constraints.evaluate_drift_constraint", "self_s"),
        "optimizer.slp_solve.calls": get("optimizer.slp_solve", "calls"),
        "optimizer.slp_solve.self_s": get("optimizer.slp_solve", "self_s"),
        "optimizer.iterations": c["optimizer.iterations"],
        "optimizer.solve_lp.calls": get("optimizer.solve_lp", "calls"),
        "optimizer.simplex.self_s": get("optimizer.simplex", "self_s"),
        "optimizer.lp_rows_max": max(rows, default=0),
        "optimizer.lp_rows_mean": sum(rows) / len(rows) if rows else 0.0,
        "optimizer.lp_elastic": c["optimizer.lp_elastic"],
        "optimizer.planes_total": c["optimizer.planes_total"],
        "optimizer.planes_disabled": c["optimizer.planes_disabled"],
        "failsafe.evaluate_all.calls": get("failsafe.evaluate_all", "calls"),
        "failsafe.evaluate_all.incl_s": get("failsafe.evaluate_all", "incl_s"),
        "failsafe.sweep_analyses": c["failsafe.sweep_analyses"],
        "failsafe.subproblems": out["subproblems"],
        "failsafe.resumes": out["resumes"],
        "failsafe.ws_fraction": out["final_ws"] / out["n_scenarios"],
        "failsafe.records_active": out["records_active"],
        "model.assemble_added_damping.self_s": get("model.assemble_added_damping", "self_s"),
        "model.compute_lowest_modes.s": get("model.compute_lowest_modes", "incl_s"),
        "scenarios.enumerate_scenarios.s": get("scenarios.enumerate_scenarios", "incl_s"),
        "cli.parse_model.s": get("cli.parse_model", "incl_s"),
        "cli.load_records.s": get("dynamics.load_ground_motion", "incl_s"),
        "cli.report_constraints.incl_s": get("cli.report_constraints", "incl_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.artifact_bytes": out.get("artifact_bytes", 0),
        "trace.solve_s": solve_s,
        "trace.self_sum_error": abs(covered - solve_s) / solve_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    settings = json.loads((args.inputs / "workload.json").read_text())
    tracer = Tracer() if args.trace else None
    result: dict = {"stage": "setup"}
    try:
        fd, model, records, scenario_set, setup_s = (
            tracer.span("setup", setup, args.inputs, settings, tracer)
            if tracer
            else setup(args.inputs, settings, None)
        )
        result["setup_s"] = setup_s
        if not args.setup_only:
            result["stage"] = "solve"
            if settings["spec"]["runner"] == "cli":
                artifacts = args.result.parent / "artifacts"
                solve_s, out = solve_cli(fd, args.inputs, settings, artifacts, tracer)
            else:
                solve_s, out = solve_library(fd, model, records, scenario_set, settings, tracer)
            result.update(out, solve_s=solve_s)
            if tracer is None:
                result["ref_s"] = PROBE.samples
            if tracer is not None and out["exit_code"] == 0:
                result["layers"] = layer_metrics(tracer, solve_s, out)
                if args.spans:
                    tracer.dump(args.spans)
        result["stage"] = "done"
    except Exception:
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result) + "\n")
    return 0 if result["stage"] == "done" else 1


if __name__ == "__main__":
    sys.exit(main())
