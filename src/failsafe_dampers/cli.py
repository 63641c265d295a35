"""Command-line front end: file parsing, run orchestration, reports.

Model files are YAML documents with the keys ``n_dof``, ``mass``,
``stiffness``, ``influence``, ``drift_transform``, ``d_allow``, ``dampers``
and either ``inherent_damping`` or ``rayleigh: {zeta: ...}``. Matrices may
be nested lists of rows or flat row-major lists. Units are kN, m, s, ton.

Exit codes: 0 on success, 2 for input errors, 3 for non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .adjoint import gradient_check
from .constraints import ConstraintParams, evaluate_drift_constraint, exact_peak
from .dynamics import GroundMotion, load_ground_motion, newmark_solve
from .errors import ConvergenceError, InputError
from .failsafe import FailSafeConfig, FinalDesign, run_failsafe
from .model import (
    DesignVector,
    StructuralModel,
    assemble_added_damping,
    build_rayleigh,
    compute_lowest_modes,
)
from .optimizer import SlpConfig
from .scenarios import ScenarioSet, enumerate_scenarios

logger = logging.getLogger(__name__)

MODES = ("failsafe", "basic", "fullset", "simulate", "check-gradients")


@dataclass
class RunConfig:
    """Everything a run needs, as parsed from the command line.

    Runs are seedless: no stochastic element exists anywhere in the
    pipeline, so identical inputs give byte-identical CSV outputs. The
    ``deterministic`` field records that contract in the run manifest.
    """

    model_path: Path
    record_paths: list[Path]
    mode: str = "failsafe"
    complete_k: int = 0
    partial_k: int = 0
    nu: float = 0.5
    c_bar: float = 150_000.0
    epsilon: float = 0.05
    accel_units: str = "m/s2"
    out_dir: Path = Path("failsafe-out")
    design_path: Path | None = None
    compare_paths: list[Path] = field(default_factory=list)
    check_gradients: bool = False
    fd_step: float = 1e-6
    export_drifts: bool = False
    deterministic: bool = True
    slp: SlpConfig = field(default_factory=SlpConfig)
    failsafe: FailSafeConfig = field(default_factory=FailSafeConfig)


# ---------------------------------------------------------------------------
# model file handling


def _key_lines(text: str) -> dict[str, int]:
    """Map top-level YAML keys to 1-based line numbers for error messages."""
    try:
        node = yaml.compose(text)
    except yaml.YAMLError:
        return {}
    if node is None or not hasattr(node, "value"):
        return {}
    out = {}
    for key_node, _ in node.value:
        out[str(key_node.value)] = key_node.start_mark.line + 1
    return out


def _matrix(raw, n_rows: int, n_cols: int, key: str, lines: dict[str, int]):
    where = f" (line {lines[key]})" if key in lines else ""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"field '{key}'{where}: not numeric: {exc}") from exc
    if arr.ndim == 1:
        if arr.size != n_rows * n_cols:
            raise InputError(
                f"field '{key}'{where}: flat form needs {n_rows * n_cols} "
                f"values ({n_rows}x{n_cols} row-major), got {arr.size}"
            )
        arr = arr.reshape(n_rows, n_cols)
    if arr.shape != (n_rows, n_cols):
        raise InputError(
            f"field '{key}'{where}: expected shape ({n_rows}, {n_cols}), "
            f"got {arr.shape}"
        )
    return arr


def parse_model(path: str | Path) -> StructuralModel:
    """Read and fully validate a model file.

    Dimension mismatches, schema violations, and model invariant failures
    (such as a non-positive-definite mass matrix) all raise `InputError`
    naming the offending field and, where available, its line number.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise InputError(f"model file {path} is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"model file {path} must hold a mapping of fields")
    lines = _key_lines(text)

    def where(key):
        return f" (line {lines[key]})" if key in lines else ""

    def require(key):
        if key not in doc:
            raise InputError(f"model file {path} is missing the field '{key}'")
        return doc[key]

    try:
        n = int(require("n_dof"))
    except (TypeError, ValueError) as exc:
        raise InputError(f"field 'n_dof'{where('n_dof')}: {exc}") from exc
    if n < 1:
        raise InputError(f"field 'n_dof'{where('n_dof')}: must be at least 1")

    mass = _matrix(require("mass"), n, n, "mass", lines)
    stiffness = _matrix(require("stiffness"), n, n, "stiffness", lines)

    influence = np.asarray(require("influence"), dtype=float).reshape(-1)
    if influence.size != n:
        raise InputError(
            f"field 'influence'{where('influence')}: expected {n} entries, "
            f"got {influence.size}"
        )

    drift_raw = require("drift_transform")
    drift = np.asarray(drift_raw, dtype=float)
    if drift.ndim == 1:
        drift = drift.reshape(1, -1) if drift.size == n else drift
    drift = np.atleast_2d(drift)
    if drift.shape[1] != n:
        raise InputError(
            f"field 'drift_transform'{where('drift_transform')}: rows must "
            f"have {n} columns, got {drift.shape[1]}"
        )
    n_drifts = drift.shape[0]

    d_allow_raw = require("d_allow")
    d_allow = np.atleast_1d(np.asarray(d_allow_raw, dtype=float))
    if d_allow.size == 1:
        d_allow = np.full(n_drifts, float(d_allow[0]))
    if d_allow.size != n_drifts:
        raise InputError(
            f"field 'd_allow'{where('d_allow')}: expected 1 or {n_drifts} "
            f"entries, got {d_allow.size}"
        )

    dampers_raw = require("dampers")
    if not isinstance(dampers_raw, list) or not dampers_raw:
        raise InputError(
            f"field 'dampers'{where('dampers')}: expected a non-empty list "
            "of {{row: [...]}} entries"
        )
    transforms = []
    for i, entry in enumerate(dampers_raw):
        if not isinstance(entry, dict) or "row" not in entry:
            raise InputError(
                f"field 'dampers'{where('dampers')}: entry {i + 1} must be a "
                "mapping with a 'row' key"
            )
        row = np.asarray(entry["row"], dtype=float)
        if row.reshape(-1).size % n:
            raise InputError(
                f"field 'dampers'{where('dampers')}: entry {i + 1} length "
                f"is not a multiple of n_dof={n}"
            )
        transforms.append(row.reshape(-1, n))

    if "inherent_damping" in doc and "rayleigh" in doc:
        raise InputError(
            f"model file {path}: give either 'inherent_damping' or "
            "'rayleigh', not both"
        )

    def build(inherent):
        return StructuralModel(
            mass=mass,
            stiffness=stiffness,
            inherent_damping=inherent,
            influence=influence,
            drift_transform=drift,
            d_allow=d_allow,
            damper_transforms=tuple(transforms),
        )

    try:
        if "inherent_damping" in doc:
            inherent = _matrix(doc["inherent_damping"], n, n, "inherent_damping", lines)
            return build(inherent)
        if "rayleigh" in doc:
            block = doc["rayleigh"]
            if not isinstance(block, dict) or "zeta" not in block:
                raise InputError(
                    f"field 'rayleigh'{where('rayleigh')}: expected a mapping "
                    "with a 'zeta' key"
                )
            if n < 2:
                raise InputError(
                    f"field 'rayleigh'{where('rayleigh')}: fitting two modes "
                    "needs at least 2 DOFs; give 'inherent_damping' instead"
                )
            zeta = float(block["zeta"])
            bare = build(np.zeros((n, n)))
            modes = compute_lowest_modes(bare, 2)
            inherent = build_rayleigh(bare, zeta, (modes[0][0], modes[1][0]))
            return build(inherent)
        return build(np.zeros((n, n)))
    except ValueError as exc:
        raise InputError(f"model file {path}: {exc}") from exc


def save_model(model: StructuralModel, path: str | Path) -> None:
    """Write a model back out in the file schema `parse_model` accepts."""
    doc = {
        "n_dof": model.n_dof,
        "mass": model.mass.tolist(),
        "stiffness": model.stiffness.tolist(),
        "inherent_damping": model.inherent_damping.tolist(),
        "influence": model.influence.tolist(),
        "drift_transform": model.drift_transform.tolist(),
        "d_allow": model.d_allow.tolist(),
        "dampers": [{"row": t.tolist()} for t in model.damper_transforms],
    }
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))


def load_design(path: str | Path, model: StructuralModel, c_bar: float) -> DesignVector:
    """Read per-location damping coefficients (kNs/m), one per line or CSV."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read design file {path}: {exc}") from exc
    values = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) == 1:
            try:
                values.append(float(parts[0]))
            except ValueError:
                continue  # header or summary row
        else:
            # CSV rows keyed by an integer location; the first design
            # column is read, headers and J summary rows are skipped.
            try:
                int(parts[0])
                values.append(float(parts[1]))
            except ValueError:
                continue
    if len(values) != model.n_dampers:
        raise InputError(
            f"design file {path} holds {len(values)} coefficients, model has "
            f"{model.n_dampers} dampers"
        )
    coeffs = np.asarray(values, dtype=float)
    if np.any(coeffs < 0) or np.any(coeffs > c_bar * (1 + 1e-9)):
        raise InputError(
            f"design file {path}: coefficients must lie in [0, c_bar={c_bar:g}]"
        )
    return DesignVector(x=np.clip(coeffs / c_bar, 0.0, 1.0), c_bar=c_bar)


# ---------------------------------------------------------------------------
# report rendering


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def report_design(
    final: DesignVector | FinalDesign,
    comparison: dict[str, DesignVector | FinalDesign] | None = None,
    *,
    label: str = "Fail-safe design",
) -> tuple[list[str], list[list]]:
    """Damping coefficients per location, one column per design.

    Returns (header, rows) ready for CSV or aligned-text rendering. The
    last two rows carry the cost J, once as the coefficient sum in kNs/m
    and once normalized by c_bar (the sum of the design variables).
    """
    designs: list[tuple[str, DesignVector]] = []

    def unwrap(d):
        return d.design if isinstance(d, FinalDesign) else d

    designs.append((label, unwrap(final)))
    for name, d in (comparison or {}).items():
        designs.append((name, unwrap(d)))

    n = designs[0][1].n_dampers
    header = ["Location"] + [f"{name} [kNs/m]" for name, _ in designs]
    rows: list[list] = []
    for loc in range(n):
        rows.append([loc + 1] + [float(d.coefficients[loc]) for _, d in designs])
    rows.append(["J [kNs/m]"] + [float(d.coefficients.sum()) for _, d in designs])
    rows.append(["J [-]"] + [d.cost for _, d in designs])
    return header, rows


def render_table(header: list[str], rows: list[list]) -> str:
    """Aligned-text rendering of (header, rows)."""
    cells = [header] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def report_constraints(
    design: DesignVector,
    model: StructuralModel,
    scenario_set: ScenarioSet,
    records: list[GroundMotion],
    params: ConstraintParams,
) -> tuple[list[str], list[list]]:
    """Aggregated constraint and exact peak per scenario per record.

    An independent re-sweep of the final design: every scenario goes
    through one batched analysis per record. The ``threshold`` column is
    the constant 1.0 limit on the normalized peak, kept in the CSV so plots
    can draw it directly.
    """
    header = [
        "scenario_id",
        "damaged_locations",
        "nu",
        "record",
        "g",
        "g_plus_1",
        "exact_peak",
        "threshold",
    ]
    scenarios = list(scenario_set)
    C_d = assemble_added_damping(model, design, scenarios)
    values = []
    for gm in records:
        value = evaluate_drift_constraint(newmark_solve(model, C_d, gm), model, params)
        values.append((value.g, value.d_max_exact))  # drop the drift histories
    rows: list[list] = []
    for i, sc in enumerate(scenarios):
        for gm, (g_rec, peak) in zip(records, values):
            g = float(g_rec[i])
            rows.append(
                [
                    sc.id,
                    "+".join(str(k + 1) for k in sc.damaged) or "none",
                    sc.factor if sc.damaged else "",
                    gm.name,
                    g,
                    g + 1.0,
                    float(peak[i]),
                    1.0,
                ]
            )
    return header, rows


def write_drift_history(
    path: Path, model: StructuralModel, times: np.ndarray, u: np.ndarray
) -> None:
    """Time series of every inter-story drift (m) of one (N+1, n) response."""
    drifts = u @ model.drift_transform.T
    header = ["time"] + [f"drift_{j + 1}" for j in range(model.n_drifts)]
    rows = [[t] + list(map(float, row)) for t, row in zip(times, drifts)]
    write_csv(path, header, rows)


def write_iteration_log(path: Path, result) -> None:
    header = ["iteration", "cost", "g_max_true", "step_norm", "active_planes", "p", "q", "lp_status"]
    rows = [
        [r.iteration, r.cost, r.g_max_true, r.step_norm, r.n_active_planes, r.p, r.q, r.lp_status]
        for r in result
    ]
    write_csv(path, header, rows)


def write_manifest(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _manifest(config: RunConfig, scenario_set: ScenarioSet, final: FinalDesign) -> dict:
    return {
        "mode": final.mode,
        "model": str(config.model_path),
        "records": [str(p) for p in config.record_paths],
        "deterministic": config.deterministic,
        "scenarios": {
            "n_dampers": scenario_set.n_dampers,
            "complete_k": config.complete_k,
            "partial_k": config.partial_k,
            "nu": config.nu,
            "n_complete": scenario_set.n_complete,
            "n_partial": scenario_set.n_partial,
            "n_total": scenario_set.n_total,
            "list": [
                {"id": sc.id, "damaged": [i + 1 for i in sc.damaged], "nu": sc.factor}
                for sc in scenario_set
            ],
        },
        "settings": {
            "c_bar": config.c_bar,
            "epsilon": config.epsilon,
            "ml": config.slp.ml,
            "delta": config.slp.convergence_tol(scenario_set.n_dampers),
            "i_min": config.slp.i_min,
            "i_max": config.slp.i_max,
            "p_schedule": [config.slp.p_start, config.slp.p_step, config.slp.p_cap],
            "q_schedule": [config.slp.q_start, config.slp.q_step, config.slp.q_cap],
        },
        "subproblems": [
            {
                "index": sp.index,
                "scenario_ids": list(sp.scenario_ids),
                "n_scenarios": len(sp.scenario_ids),
                "iterations": sp.iterations,
                "converged": sp.converged,
                "cost": sp.cost,
                "p_final": sp.p_final,
                "q_final": sp.q_final,
            }
            for sp in final.subproblems
        ],
        "working_set_history": [list(ws) for ws in final.working_set_history],
        "active_records": final.active_records,
        "function_evaluations": {
            "primal": final.eval_counter.n_primal,
            "adjoint": final.eval_counter.n_adjoint,
            "total": final.eval_counter.total,
        },
        "converged": final.converged,
        "verified": final.verified,
        "max_g": final.max_g,
        "wall_time_s": final.wall_time,
        "design": {
            "x": final.design.x.tolist(),
            "c_bar": final.design.c_bar,
            "coefficients_kNs_per_m": final.design.coefficients.tolist(),
            "J_kNs_per_m": float(final.design.coefficients.sum()),
            "J_normalized": final.design.cost,
        },
    }


# ---------------------------------------------------------------------------
# run drivers


def _load_records(config: RunConfig) -> list[GroundMotion]:
    if not config.record_paths:
        raise InputError("at least one ground-motion record is required")
    records = [
        load_ground_motion(p, units=config.accel_units) for p in config.record_paths
    ]
    names = [gm.name for gm in records]
    if len(set(names)) != len(names):
        raise InputError(f"record names must be unique, got {names}")
    return records


def _run_optimization(config: RunConfig) -> int:
    model = parse_model(config.model_path)
    records = _load_records(config)
    scenario_set = enumerate_scenarios(
        model.n_dampers, config.complete_k, config.partial_k, config.nu
    )
    final = run_failsafe(
        model,
        scenario_set,
        records,
        c_bar=config.c_bar,
        slp_config=config.slp,
        fs_config=config.failsafe,
        mode=config.mode,
    )

    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    comparison = {}
    for path in config.compare_paths:
        comparison[Path(path).stem] = load_design(path, model, config.c_bar)
    header, rows = report_design(
        final, comparison or None, label=f"{config.mode} design"
    )
    design_table = render_table(header, rows)
    write_csv(out / "design.csv", header, rows)
    (out / "design.txt").write_text(design_table)
    header, rows = report_constraints(
        final.design, model, scenario_set, records, final.params_final
    )
    write_csv(out / "constraints.csv", header, rows)
    write_manifest(out / "run_manifest.json", _manifest(config, scenario_set, final))
    for sp in final.subproblems:
        write_iteration_log(out / f"subproblem_{sp.index:02d}.csv", sp.history)
    if config.export_drifts:
        drift_dir = out / "drifts"
        drift_dir.mkdir(exist_ok=True)
        scenarios = list(scenario_set)
        C_d = assemble_added_damping(model, final.design, scenarios)
        for gm in records:
            hist = newmark_solve(model, C_d, gm)
            for i, sc in enumerate(scenarios):
                write_drift_history(
                    drift_dir / f"drifts_s{sc.id:04d}_{gm.name}.csv",
                    model,
                    hist.times,
                    hist.u[:, i],
                )

    print(design_table)
    print(
        f"mode={final.mode} converged={final.converged} verified={final.verified} "
        f"max_g={final.max_g:.3g} evaluations={final.eval_counter.total} "
        f"wall_time={final.wall_time:.1f}s"
    )
    if not final.converged:
        return 3
    return 0


def _run_simulate(config: RunConfig) -> int:
    model = parse_model(config.model_path)
    records = _load_records(config)
    design = (
        load_design(config.design_path, model, config.c_bar)
        if config.design_path
        else DesignVector(x=np.zeros(model.n_dampers), c_bar=config.c_bar)
    )
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    C_d = assemble_added_damping(model, design)
    peaks = []
    for gm in records:
        hist = newmark_solve(model, C_d, gm)
        write_drift_history(out / f"drifts_{gm.name}.csv", model, hist.times, hist.u)
        peaks.append([gm.name, exact_peak(hist, model), 1.0])
    write_csv(out / "peaks.csv", ["record", "normalized_peak", "threshold"], peaks)
    for name, peak, _ in peaks:
        print(f"{name}: normalized peak drift {peak:.6g}")
    return 0


def _run_check_gradients(config: RunConfig) -> int:
    model = parse_model(config.model_path)
    records = _load_records(config)
    scenario_set = enumerate_scenarios(
        model.n_dampers, config.complete_k, config.partial_k, config.nu
    )
    design = (
        load_design(config.design_path, model, config.c_bar)
        if config.design_path
        else DesignVector(x=np.full(model.n_dampers, 0.5), c_bar=config.c_bar)
    )
    params = ConstraintParams(p=config.slp.p_start, q=config.slp.q_start)
    rows = gradient_check(
        model, design, list(scenario_set), records[0], params, h=config.fd_step
    )
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "gradient_check.csv",
        ["scenario_id", "scenario", "max_rel_error"],
        [[r["scenario_id"], r["scenario"], r["max_rel_error"]] for r in rows],
    )
    worst = max(r["max_rel_error"] for r in rows)
    for r in rows:
        print(
            f"scenario {r['scenario_id']:>4} ({r['scenario']}): "
            f"max relative error {r['max_rel_error']:.3e}"
        )
    print(
        f"worst adjoint-vs-FD relative error {worst:.3e} at "
        f"p={params.p}, q={params.q} (record {records[0].name})"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="failsafe-dampers",
        description=(
            "Minimum-cost fail-safe sizing and placement of linear viscous "
            "dampers under inter-story drift constraints."
        ),
    )
    parser.add_argument("--model", required=True, help="model file (YAML)")
    parser.add_argument(
        "--records", nargs="+", required=True, help="ground-motion files"
    )
    parser.add_argument("--mode", choices=MODES, default="failsafe")
    parser.add_argument("--complete-k", type=int, default=0,
                        help="dampers per complete-failure scenario (0 disables)")
    parser.add_argument("--partial-k", type=int, default=0,
                        help="dampers per partial-failure scenario (0 disables)")
    parser.add_argument("--nu", type=float, default=0.5,
                        help="capacity multiplier for partial failures")
    parser.add_argument("--cbar", type=float, default=150_000.0,
                        help="largest damping coefficient available, kNs/m")
    parser.add_argument("--ml", type=float, default=0.02, help="move limit")
    parser.add_argument("--imin", type=int, default=50,
                        help="minimum SLP iterations per sub-problem")
    parser.add_argument("--imax", type=int, default=500,
                        help="SLP iteration cap per sub-problem")
    parser.add_argument("--epsilon", type=float, default=0.05,
                        help="relative closeness for critical-scenario selection")
    parser.add_argument("--p-start", type=int, default=100)
    parser.add_argument("--p-step", type=int, default=500)
    parser.add_argument("--p-cap", type=int, default=1_000_000)
    parser.add_argument("--q-start", type=int, default=100)
    parser.add_argument("--q-step", type=int, default=500)
    parser.add_argument("--q-cap", type=int, default=1_000_000)
    parser.add_argument("--accel-units", choices=("m/s2", "g"), default="m/s2")
    parser.add_argument("--out", default="failsafe-out", help="output directory")
    parser.add_argument("--design", default=None,
                        help="design file (per-location kNs/m) for simulate "
                             "and check-gradients modes")
    parser.add_argument("--compare", nargs="*", default=[],
                        help="design files to list side by side in the "
                             "design report (e.g. a basic-mode design.csv)")
    parser.add_argument("--check-gradients", action="store_true",
                        help="shorthand for --mode check-gradients")
    parser.add_argument("--fd-step", type=float, default=1e-6,
                        help="finite-difference step for the gradient check")
    parser.add_argument("--export-drifts", action="store_true",
                        help="write drift time histories for every scenario")
    parser.add_argument("--verbose", action="store_true")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    try:
        slp = SlpConfig(
            ml=args.ml,
            i_min=args.imin,
            i_max=args.imax,
            p_start=args.p_start,
            p_step=args.p_step,
            p_cap=args.p_cap,
            q_start=args.q_start,
            q_step=args.q_step,
            q_cap=args.q_cap,
        )
        failsafe = FailSafeConfig(epsilon=args.epsilon)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    mode = "check-gradients" if args.check_gradients else args.mode
    return RunConfig(
        model_path=Path(args.model),
        record_paths=[Path(p) for p in args.records],
        mode=mode,
        complete_k=args.complete_k,
        partial_k=args.partial_k,
        nu=args.nu,
        c_bar=args.cbar,
        epsilon=args.epsilon,
        accel_units=args.accel_units,
        out_dir=Path(args.out),
        design_path=Path(args.design) if args.design else None,
        compare_paths=[Path(p) for p in args.compare],
        check_gradients=args.check_gradients,
        fd_step=args.fd_step,
        export_drifts=args.export_drifts,
        slp=slp,
        failsafe=failsafe,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        config = config_from_args(args)
        if config.mode == "simulate":
            return _run_simulate(config)
        if config.mode == "check-gradients":
            return _run_check_gradients(config)
        return _run_optimization(config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
