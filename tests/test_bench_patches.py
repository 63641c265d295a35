"""The benchmark's span tracer patches package attributes by name and reads
the results of the calls it wraps; each of those names must exist and each
observer must run, so that a rename or a change of representation fails
here and not only in a traced benchmark run."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import failsafe_dampers
import failsafe_dampers.cli  # the tracer patches it as a package attribute
import numpy as np
from failsafe_dampers import FailSafeConfig, SlpConfig, enumerate_scenarios
from failsafe_dampers.cli import save_model

from conftest import frame_with_redundant_dampers, synthetic_record

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,module,attr", load_spans().PATCHES)
def test_patch_target_resolves(name, module, attr):
    target = importlib.import_module(f"failsafe_dampers.{module}")
    assert callable(getattr(target, attr, None)), f"{name}: {module}.{attr} is missing"


def test_traced_run_feeds_every_observer(monkeypatch):
    # A drift limit tight enough that the SLP retires planes, so that the
    # disabled-plane count is checked against a nonzero value.
    spans = load_spans()
    model = frame_with_redundant_dampers(d_allow=0.0055)
    gm = synthetic_record(100, dt=0.02, seed=31, peak=2.5, name="recB")
    scenarios = enumerate_scenarios(model.n_dampers, 1, 1, nu=0.5)
    original = failsafe_dampers.cli.run_failsafe
    optimizer = failsafe_dampers.optimizer
    lp_rows, results = [], []  # read from the plane container itself
    real_lp, real_slp = optimizer.solve_lp, failsafe_dampers.failsafe.slp_solve

    def spy_lp(objective, planes, center, *args, **kwargs):
        lp_rows.append(int(planes.enabled.sum()) + len(center))
        return real_lp(objective, planes, center, *args, **kwargs)

    def spy_slp(*args, **kwargs):
        results.append(real_slp(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(optimizer, "solve_lp", spy_lp)
    monkeypatch.setattr(failsafe_dampers.failsafe, "slp_solve", spy_slp)
    tracer = spans.Tracer()
    tracer.install(failsafe_dampers)  # wraps the spies
    try:
        final = failsafe_dampers.cli.run_failsafe(
            model,
            scenarios,
            [gm],
            c_bar=800.0,
            slp_config=SlpConfig(i_min=3, i_max=60),
            fs_config=FailSafeConfig(),
        )
    finally:
        tracer.uninstall()

    assert failsafe_dampers.cli.run_failsafe is original
    assert tracer.final is final
    layers = tracer.layer_times()
    for name in spans._OBSERVERS:
        assert layers.get(name, {}).get("calls", 0) > 0, f"{name} never ran"
    assert tracer.lp_rows and min(tracer.lp_rows) > 0
    assert tracer.lp_rows == lp_rows
    disabled = sum(len(r.planes) - int(r.planes.enabled.sum()) for r in results)
    assert disabled > 0
    assert tracer.counts["optimizer.planes_disabled"] == disabled
    assert tracer.counts["optimizer.planes_total"] == sum(len(r.planes) for r in results)
    for count in (
        "dynamics.steps",
        "adjoint.steps",
        "optimizer.iterations",
        "optimizer.planes_total",
        "failsafe.sweep_analyses",
    ):
        assert tracer.counts[count] > 0, count


def test_traced_cli_run_calls_every_cli_patch(tmp_path):
    # A name that cli imports but no longer calls would leave its span, and
    # the per-layer metric built from it, silently at zero.
    spans = load_spans()
    cli = failsafe_dampers.cli
    model_path = tmp_path / "frame.yaml"
    save_model(frame_with_redundant_dampers(d_allow=0.012), model_path)
    gm = synthetic_record(60, dt=0.02, seed=31, peak=1.55, name="recB")
    record = tmp_path / "recB.txt"
    np.savetxt(record, np.column_stack([gm.times, gm.accel]), fmt="%.8g")
    argv = [
        "--model", str(model_path),
        "--records", str(record),
        "--complete-k", "1",
        "--cbar", "800",
        "--imin", "3",
        "--imax", "30",
        "--out", str(tmp_path / "out"),
    ]
    original = cli.main
    cli_attrs = [attr for _, module, attr in spans.PATCHES if module == "cli"]
    calls = Counter()

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        return wrapper

    tracer = spans.Tracer()
    tracer.install(failsafe_dampers)
    try:
        for attr in cli_attrs:
            setattr(cli, attr, counted(attr, getattr(cli, attr)))
        code = cli.main(argv)
    finally:
        tracer.uninstall()  # restores the originals under the counters too

    assert cli.main is original
    assert code == 0
    for attr in cli_attrs:
        assert calls[attr] > 0, f"cli.{attr} is patched but never called"
    layers = tracer.layer_times()
    for name in (
        "cli.parse_model",
        "dynamics.load_ground_motion",
        "scenarios.enumerate_scenarios",
        "cli.report_constraints",
        "failsafe.run_failsafe",
        "dynamics.newmark_solve",
        "model.assemble_added_damping",
    ):
        assert layers.get(name, {}).get("calls", 0) > 0, f"{name} never ran"
