"""Seeded workload generator for the benchmark.

Each workload is a shear frame with candidate dampers plus one or more
synthetic ground-motion records, fixed per workload; the seed picks a
relabelling of them (see `relabel`). Every record is rescaled so that the
bare frame's peak normalized drift is 1.5, the same normalization the
acceptance suite uses.
The generator writes only files the program reads on its own: the model
YAML (through ``cli.save_model``), ``dt=`` record files, and a
``workload.json`` with the run settings.

Usage: python3 bench/workloads.py --workload cli-4d --seed 11 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

C_BAR = 2000.0
NU = 0.5
COMPLETE_K = 1
PARTIAL_K = 2
TARGET_PEAK = 1.5  # bare-frame peak drift ratio every record is scaled to
DT = 0.02  # record time step, s
RAW_PEAK = 2.5  # peak of a raw synthetic record before scaling, m/s^2
RECORD_STREAM = 11  # noise stream of the first record (the acceptance record)
TIME_LIMIT_S = 60.0  # a solve slower than this counts as failed


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    runner: str  # "library" calls run_failsafe; "cli" calls cli.main
    mode: str
    n_stories: int
    damper_stories: tuple[int, ...]  # story index of each damper, in order
    efficiencies: tuple[float, ...]  # one per damper
    n_steps: int
    n_records: int
    i_min: int = 50
    i_max: int = 400


def _pairs(n_stories: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    stories = tuple(s for s in range(n_stories) for _ in range(2))
    return stories, (1.0, 0.8) * n_stories


WORKLOADS = {
    # The acceptance frame and record of the test suite through the CLI: two
    # redundant, identical dampers on each of stories 1 and 2, 11 scenarios.
    "cli-4d": WorkloadSpec(
        "cli-4d", "cli", "failsafe", 4, (0, 0, 1, 1), (1.0,) * 4,
        n_steps=600, n_records=1,
    ),
    # Every scenario stays in the working set: 22 scenarios, short record.
    "fullset-6d": WorkloadSpec(
        "fullset-6d", "library", "fullset", 3, *_pairs(3), n_steps=100, n_records=1,
    ),
}


def shrunk(spec: WorkloadSpec) -> WorkloadSpec:
    """A seconds-long instance of the workload for the harness self-test.

    Keeps the runner, the mode, the damper layout pattern and the record
    count, so the same code path runs end to end.
    """
    n_stories = min(spec.n_stories, 2)
    keep = sum(1 for s in spec.damper_stories if s < n_stories)
    return replace(
        spec,
        n_stories=n_stories,
        damper_stories=spec.damper_stories[:keep],
        efficiencies=spec.efficiencies[:keep],
        n_steps=60,
        i_min=3,
        i_max=30,
    )


def build_model(spec: WorkloadSpec):
    """Uniform shear frame, 5% Rayleigh damping, inter-story dampers."""
    from failsafe_dampers import StructuralModel, build_rayleigh, compute_lowest_modes

    n = spec.n_stories
    mass, story_k, d_allow = 10.0, 13000.0, 0.01
    K = np.zeros((n, n))
    for i in range(n):
        K[i, i] += story_k
        if i + 1 < n:
            K[i, i] += story_k
            K[i, i + 1] = K[i + 1, i] = -story_k
    H = np.eye(n) - np.eye(n, k=-1)
    dampers = tuple(
        e * H[s : s + 1, :] for s, e in zip(spec.damper_stories, spec.efficiencies)
    )

    def frame(C):
        return StructuralModel(
            mass=np.diag(np.full(n, mass)),
            stiffness=K,
            inherent_damping=C,
            influence=np.ones(n),
            drift_transform=H,
            d_allow=np.full(n, d_allow),
            damper_transforms=dampers,
        )

    bare = frame(np.zeros((n, n)))
    modes = compute_lowest_modes(bare, 2)
    return frame(build_rayleigh(bare, 0.05, (modes[0][0], modes[1][0])))


def synthetic_accel(n_steps: int, seed, peak: float) -> np.ndarray:
    """Band-limited, tapered noise with a prescribed peak, m/s^2."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(n_steps + 1)
    window = np.hanning(21)
    smooth = np.convolve(raw, window / window.sum(), mode="same")
    ramp = max(2, min(50, n_steps // 10))
    taper = np.ones(n_steps + 1)
    taper[:ramp] = np.linspace(0.0, 1.0, ramp)
    taper[-ramp:] = np.linspace(1.0, 0.0, ramp)
    smooth *= taper
    return smooth * (peak / np.abs(smooth).max())


def relabel(spec: WorkloadSpec, seed: int) -> tuple[WorkloadSpec, list[float]]:
    """The seed's variant of the workload.

    The seed picks each record's direction of shaking (its sign) and the
    order in which the dampers are listed. The drift constraints are
    symmetric and the labels are arbitrary, so every seed poses the same physical problem with the same optimum, while the
    input files, the scenario numbering and the LP's column order change.
    """
    rng = np.random.default_rng(seed)
    signs = [float(s) for s in rng.choice([-1.0, 1.0], size=spec.n_records)]
    order = rng.permutation(len(spec.damper_stories))
    spec = replace(
        spec,
        damper_stories=tuple(spec.damper_stories[i] for i in order),
        efficiencies=tuple(spec.efficiencies[i] for i in order),
    )
    return spec, signs


def record_accels(spec: WorkloadSpec) -> list[np.ndarray]:
    """Base record k draws from noise stream ``RECORD_STREAM + 1000 k``."""
    return [
        synthetic_accel(spec.n_steps, RECORD_STREAM + 1000 * k, RAW_PEAK)
        for k in range(spec.n_records)
    ]


def generate(spec: WorkloadSpec, seed: int, out: Path) -> dict:
    """Write the workload's input files into ``out`` and return its settings."""
    import failsafe_dampers
    from failsafe_dampers import GroundMotion, exact_peak, newmark_solve
    from failsafe_dampers.cli import save_model

    if SRC not in Path(failsafe_dampers.__file__).resolve().parents:
        raise ImportError(f"failsafe_dampers must come from {SRC}, not {failsafe_dampers.__file__}")

    out.mkdir(parents=True, exist_ok=True)
    spec, signs = relabel(spec, seed)
    model = build_model(spec)
    save_model(model, out / "model.yaml")
    bare_damping = np.zeros((model.n_dof, model.n_dof))
    records = []
    for k, (accel, sign) in enumerate(zip(record_accels(spec), signs)):
        gm = GroundMotion(name=f"rec{k + 1}", dt=DT, accel=sign * accel)
        gm = gm.rescaled(TARGET_PEAK / exact_peak(newmark_solve(model, bare_damping, gm), model))
        path = out / f"rec{k + 1}.txt"
        lines = [f"dt={DT!r}"] + [repr(float(a)) for a in gm.scaled_accel]
        path.write_text("\n".join(lines) + "\n")
        records.append(path.name)
    settings = {
        "spec": asdict(spec),
        "seed": seed,
        "model": "model.yaml",
        "records": records,
        "c_bar": C_BAR,
        "nu": NU,
        "complete_k": COMPLETE_K,
        "partial_k": PARTIAL_K,
    }
    (out / "workload.json").write_text(json.dumps(settings, indent=2) + "\n")
    return settings


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(WORKLOADS[args.workload], args.seed, args.out)


if __name__ == "__main__":
    main()
