"""The benchmark's span tracer patches package attributes by name and reads
the results of the calls it wraps; each of those names must exist and each
observer must run, so that a rename or a change of representation fails
here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import failsafe_dampers
import failsafe_dampers.cli  # the tracer patches it as a package attribute
from failsafe_dampers import FailSafeConfig, SlpConfig, enumerate_scenarios

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


def test_traced_run_feeds_every_observer():
    spans = load_spans()
    model = frame_with_redundant_dampers(d_allow=0.012)
    gm = synthetic_record(60, dt=0.02, seed=31, peak=1.55, name="recB")
    scenarios = enumerate_scenarios(model.n_dampers, 1, 1, nu=0.5)
    original = failsafe_dampers.cli.run_failsafe

    tracer = spans.Tracer()
    tracer.install(failsafe_dampers)
    try:
        final = failsafe_dampers.cli.run_failsafe(
            model,
            scenarios,
            [gm],
            c_bar=800.0,
            slp_config=SlpConfig(i_min=3, i_max=30),
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
    for count in (
        "dynamics.steps",
        "adjoint.steps",
        "optimizer.iterations",
        "optimizer.planes_total",
        "failsafe.sweep_analyses",
    ):
        assert tracer.counts[count] > 0, count
