"""Fast self-test of the benchmark harness.

Runs a shrunken instance of every workload through the same code path as
the benchmark (generator, fresh run processes, correctness check, metric
assembly), traced and untraced, plus the failure accounting on made-up
results. Run with: python3 -m pytest bench/test_harness.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())


@pytest.fixture
def shrunken(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    # The references hold for the full-size workloads only.
    monkeypatch.setattr(run, "reference_cost", lambda name: None)
    for name, spec in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, workloads.shrunk(spec))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, shrunken):
    summary = run.run_workload(name, seed=3, seconds=0, trace=False)
    assert summary["correct"]
    assert summary["failures"] == []
    assert len(summary["setups"]) >= 2
    assert all(len(r["ref_s"]) >= 2 for r in summary["runs"])
    metrics = run.end_to_end(summary)
    assert set(metrics) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(name, shrunken):
    summary = run.run_workload(name, seed=3, seconds=0, trace=True)
    assert summary["correct"]
    assert summary["failures"] == []
    assert [r["traced"] for r in summary["runs"]] == [False, True]
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    metrics = run.per_layer(summary, units)
    assert all(metrics[k]["value"] is not None for k in units)
    assert metrics["dynamics.newmark_solve.calls"]["value"] > 0
    assert metrics["optimizer.simplex.self_s"]["value"] > 0
    assert metrics["cli.parse_model.s"]["value"] > 0
    assert summary["runs"][1]["layers"]["trace.self_sum_error"] < run.SELF_SUM_RTOL
    is_cli = workloads.WORKLOADS[name].runner == "cli"
    assert (metrics["cli.artifact_bytes"]["value"] > 0) == is_cli
    spans = json.loads((run.RESULTS / f"{name}-seed3-spans.json").read_text())
    names = {s["name"] for s in spans}
    assert {"setup", "solve", "dynamics.newmark_solve", "adjoint.solve_adjoint"} <= names


def test_generator_is_deterministic(tmp_path):
    spec = workloads.shrunk(workloads.WORKLOADS["fullset-6d"])
    workloads.generate(spec, 5, tmp_path / "a")
    workloads.generate(spec, 5, tmp_path / "b")
    workloads.generate(spec, 6, tmp_path / "c")
    files = ("model.yaml", "rec1.txt")

    def read(run):
        return [(tmp_path / run / f).read_text() for f in files]

    assert read("a") == read("b")
    assert read("a") != read("c")


def test_solve_time_is_scaled_to_the_reference_speed():
    slow = {"solve_s": 12.0, "ref_s": [run.REF_NOMINAL_S * 1.5, run.REF_NOMINAL_S * 1.5]}
    assert run.at_reference_speed(slow) == pytest.approx(8.0)


GOOD = {
    "stage": "done", "exit_code": 0, "verified": True, "max_g": -1e-7,
    "recheck_max_g": -1e-7, "violation_tol": 1e-6, "design_cost": 0.5,
}


@pytest.mark.parametrize(
    "change, failed, wrong",
    [
        ({}, False, False),
        ({"design_cost": 0.5049}, False, False),
        ({"design_cost": 0.506}, True, True),
        ({"verified": False}, True, False),
        ({"max_g": 2e-6}, True, False),
        ({"recheck_max_g": 2e-6}, True, True),
        ({"exit_code": 3}, True, False),
        ({"stage": "timeout", "error": "exceeded the 60 s limit"}, True, False),
        ({"layers": {"trace.self_sum_error": 0.2}}, True, True),
    ],
)
def test_judge_counts_failures(change, failed, wrong):
    why, bad = run.judge(dict(GOOD, **change), ref_cost=0.5)
    assert (why is not None) == failed
    assert bad == wrong


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(Path(run.HERE).parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-4d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
