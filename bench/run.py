"""Benchmark: time to a verified fail-safe damper design.

Generates a seeded workload (``workloads.py``), then runs the program on it
in fresh single-threaded processes (``one_run.py``), one solve per process,
as long as another solve still fits into ``--seconds``. Every run is
checked: it fails if it raises or exits non-zero, returns an unverified
design, leaves a scenario violated, lands more than 1% from the reference
cost of its workload, or exceeds the workload's time limit. Set-up is
sampled in extra processes so its median rests on several samples.

``solve_s`` is given at a fixed reference speed of the core. On a shared
host the same solve takes from 9 to 14 s, as the core's speed drifts over
seconds to minutes; a probe in each solve process samples that speed with
a fixed loop (``one_run.SpeedProbe``), and each solve's wall time is scaled
by how much slower than nominal the loop ran during it.

The last line of standard output is one JSON object: end-to-end metrics
with ``--trace 0``, per-layer metrics from span-traced runs with
``--trace 1`` (which also writes a span file and a per-layer table under
``bench/results``).

Usage:
  python3 bench/run.py --workload cli-4d --seed 1 --seconds 55 --trace 0
  python3 bench/run.py --workload all --seeds 1 2 3 4 5 6 7 8 9 10

``--workload all`` runs each workload once per seed, each run in its own
process, then one traced run per workload, and prints every end-to-end
metric with its median, quartiles and sample count (runs for
``fail_ratio``).
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every run it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
RESULTS = HERE / "results"

SETUP_SAMPLES = 9  # set-up samples per run, solve processes included
COST_RTOL = 0.01  # acceptance criterion 6's tolerance on the design cost
SELF_SUM_RTOL = 0.01  # traced self times must add up to the traced solve_s
# one_run.reference_loop's time at the nominal core speed: about its median
# on the 2-core 2.1 GHz Xeon box of bench/baseline.json.
REF_NOMINAL_S = 0.047

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "evaluations": "count",
    "design_cost": "1",
    "peak_rss_mb": "MB",
}


def load_benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def reference_cost(name: str) -> float | None:
    """The workload's reference design cost. Seeds only relabel dampers and
    records, so one reference holds for every seed."""
    return json.loads((HERE / "reference.json").read_text())["design_cost"].get(name)


def run_child(inputs: Path, workdir: Path, *, trace=False, setup_only=False,
              timeout: float, spans: Path | None = None) -> dict:
    """One fresh process; returns its result record (an error record if it
    crashed or ran out of time)."""
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "one_run.py"), "--inputs", str(inputs),
           "--result", str(result)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    with open(workdir / "log.txt", "w") as log:
        try:
            subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
                           check=False)
        except subprocess.TimeoutExpired:
            return {"stage": "timeout", "error": f"exceeded the {timeout:g} s limit"}
    if not result.exists():
        return {"stage": "crash", "error": (workdir / "log.txt").read_text()[-2000:]}
    return json.loads(result.read_text())


def judge(res: dict, ref_cost: float | None) -> tuple[str | None, bool]:
    """(why the run failed or None, whether it returned a wrong answer)."""
    if res.get("stage") != "done":
        return res.get("error", "did not finish").strip().splitlines()[-1], False
    if res["exit_code"] != 0:
        return f"exit code {res['exit_code']}", False
    tol = res["violation_tol"]
    if not res["verified"] or res["max_g"] > tol:
        return f"not verified (max g = {res['max_g']:.3g})", False
    if res["recheck_max_g"] > tol:
        return f"claimed verified, but the re-sweep gives max g = {res['recheck_max_g']:.3g}", True
    if ref_cost is not None and abs(res["design_cost"] - ref_cost) > COST_RTOL * ref_cost:
        return f"cost {res['design_cost']:.10f} vs reference {ref_cost:.10f}", True
    if res.get("layers", {}).get("trace.self_sum_error", 0.0) > SELF_SUM_RTOL:
        return "traced self times do not add up to the traced solve time", True
    return None, False


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload at one seed; returns the summary record."""
    spec = workloads.WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workloads.generate(spec, seed, work / "inputs")
        return _measure(spec, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(spec, seed, seconds, trace, work: Path) -> dict:
    inputs = work / "inputs"
    ref_cost = reference_cost(spec.name)
    runs: list[dict] = []
    n = 0

    def child(**kw):
        nonlocal n
        n += 1
        return run_child(inputs, work / f"run{n:03d}", **kw)

    def setup_sample() -> float:
        res = child(setup_only=True, timeout=workloads.TIME_LIMIT_S)
        if res.get("stage") != "done":
            raise RuntimeError(f"the program could not be set up:\n{res.get('error')}")
        return res["setup_s"]

    # The first process after generation pays cold caches; it is not sampled.
    setup_sample()

    spans = None
    if trace:
        RESULTS.mkdir(exist_ok=True)
        spans = RESULTS / f"{spec.name}-seed{seed}-spans.json"
        # One untraced run gives the base of the tracing overhead.
        runs.append(dict(child(timeout=workloads.TIME_LIMIT_S), traced=False))
    # Solve in fresh processes while one more solve of the mean length so far
    # still fits into the window; at least one (traced, with --trace) always
    # runs.
    start = time.perf_counter()
    n_solves = 0
    while True:
        res = child(trace=trace, timeout=workloads.TIME_LIMIT_S, spans=spans)
        runs.append(dict(res, traced=trace))
        spans = None  # keep the spans of the first traced run only
        n_solves += 1
        elapsed = time.perf_counter() - start
        if elapsed * (n_solves + 1) / n_solves > seconds:
            break
    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())

    wrong = False
    failures = []
    for r in runs:
        why, bad = judge(r, ref_cost)
        r["failure"] = why
        wrong |= bad
        if why:
            failures.append(why)
            print(f"{spec.name} seed {seed}: run failed: {why}", file=sys.stderr)
    return {
        "runs": runs,
        "setups": setups,
        "time_limit_s": workloads.TIME_LIMIT_S,
        "correct": not wrong,
        "failures": failures,
    }


def _median(values):
    return statistics.median(values) if values else None


def at_reference_speed(run: dict) -> float:
    """The run's solve time at the core speed where the reference loop takes
    ``REF_NOMINAL_S``: its wall time divided by how much slower than that
    the loop ran on average during the solve."""
    return run["solve_s"] * REF_NOMINAL_S / statistics.mean(run["ref_s"])


def end_to_end(summary: dict) -> dict:
    """Medians over the untraced runs. A failed run counts at the time limit
    for ``solve_s``; the other metrics come from the runs that succeeded."""
    runs = [r for r in summary["runs"] if not r["traced"]]
    ok = [r for r in runs if not r["failure"]]
    solve = [at_reference_speed(r) if not r["failure"] else summary["time_limit_s"]
             for r in runs]
    values = {
        "setup_s": _median(summary["setups"]),
        "solve_s": _median(solve),
        "evaluations": _median([r["evaluations"] for r in ok]),
        "design_cost": _median([r["design_cost"] for r in ok]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(summary: dict, units: dict[str, str]) -> dict:
    """Medians of each per-layer metric over the traced runs that succeeded."""
    traced = [r for r in summary["runs"] if r["traced"] and not r["failure"]]
    base = [r["solve_s"] for r in summary["runs"] if not r["traced"] and not r["failure"]]
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead":
            traced_s = _median([r["solve_s"] for r in traced])
            value = traced_s / _median(base) - 1.0 if traced_s and base else None
        else:
            value = _median([r["layers"][name] for r in traced])
        out[name] = {"value": value, "unit": unit}
    return out


def layer_table(metrics: dict) -> str:
    width = max(len(k) for k in metrics)
    lines = [f"{'metric':<{width}}  {'value':>14}  unit"]
    for k, m in metrics.items():
        v = m["value"]
        text = "n/a" if v is None else f"{v:.6g}"
        lines.append(f"{k:<{width}}  {text:>14}  {m['unit']}")
    return "\n".join(lines) + "\n"


def environment() -> dict:
    """Machine and library versions the numbers were measured with."""
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def invoke(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in its own process, started like any single run."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else None,
            "n": len(values), "values": values}


def run_all(names: list[str], seeds: list[int], seconds: float) -> int:
    """Every end-to-end metric of every workload over ``seeds``, plus one
    traced run per workload; prints a table and writes ``results/all.json``."""
    report = {"environment": environment(), "seconds": seconds, "seeds": seeds,
              "end_to_end": {}, "per_layer": {}}
    correct = True
    for name in names:
        results = [invoke(name, seed, seconds, 0) for seed in seeds]
        correct &= all(r["correct"] for r in results)
        metrics = {
            k: spread([r["metrics"][k]["value"] for r in results
                       if r["metrics"][k]["value"] is not None])
            for k in END_TO_END
        }
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        metrics["fail_ratio"] = spread([failed / attempted])
        metrics["fail_ratio"]["n"] = attempted
        report["end_to_end"][name] = metrics
        traced = invoke(name, seeds[0], seconds, 1)
        correct &= traced["correct"]
        report["per_layer"][name] = {k: m["value"] for k, m in traced["metrics"].items()}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "all.json").write_text(json.dumps(report, indent=1) + "\n")

    units = dict(END_TO_END, fail_ratio="1")
    print(f"{'workload':<12} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'n':>4}  unit")
    for name, metrics in report["end_to_end"].items():
        for k, m in metrics.items():
            share = "" if m["iqr_share"] is None else f"{m['iqr_share']:.4f}"
            print(f"{name:<12} {k:<12} {m['median']:>12.6g} {m['q1']:>12.6g} "
                  f"{m['q3']:>12.6g} {share:>8} {m['n']:>4}  {units[k]}")
    print(f"correct={correct}")
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", type=int, nargs="+", help="seeds for --workload all")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_benchmark()
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in bench["workloads"]]
    if args.workload == "all":
        return run_all(names, args.seeds or [args.seed], seconds)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")

    summary = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(summary, {m["name"]: m["unit"] for m in bench["per_layer"]})
        table = layer_table(metrics)
        (RESULTS / f"{args.workload}-seed{args.seed}-layers.txt").write_text(table)
        print(table)
    else:
        metrics = end_to_end(summary)
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": len(summary["runs"]),
        "failed": len(summary["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
