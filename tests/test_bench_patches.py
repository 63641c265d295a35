"""The benchmark's span tracer patches package attributes by name; each of
those names must exist, so that a rename fails here and not only in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("name,module,attr", load_patches())
def test_patch_target_resolves(name, module, attr):
    target = importlib.import_module(f"failsafe_dampers.{module}")
    assert callable(getattr(target, attr, None)), f"{name}: {module}.{attr} is missing"
