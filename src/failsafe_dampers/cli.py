"""Command-line front end: file parsing, run orchestration, reports.

Model files are YAML documents with the keys ``n_dof``, ``mass``,
``stiffness``, ``influence``, ``drift_transform``, ``d_allow``, ``dampers``
and either ``inherent_damping`` or ``rayleigh: {zeta: ...}``, and no other.
Matrices may be nested lists of rows or flat row-major lists. Units are kN,
m, s, ton.

Exit codes: 0 on success, 2 for input errors, 3 for non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import re
import sys
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
from .optimizer import P_CAP, SlpConfig
from .scenarios import ScenarioSet, enumerate_scenarios

logger = logging.getLogger(__name__)

MODES = ("failsafe", "basic", "fullset", "simulate", "check-gradients")
# The flags that only some modes read: (flag, argument, modes).
_MODE_FLAGS = (("--design", "design", ("simulate", "check-gradients")),
               ("--compare", "compare", ("failsafe", "basic", "fullset")),
               ("--export-drifts", "export_drifts", ("failsafe", "basic", "fullset")))
# libyaml's loader where it is installed: the same documents, ten times faster.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# The top-level keys `save_model` writes, and the ``rayleigh`` block.
_MODEL_KEYS = {"n_dof", "mass", "stiffness", "inherent_damping", "rayleigh", "influence",
               "drift_transform", "d_allow", "dampers"}


# ---------------------------------------------------------------------------
# model file handling


def parse_model(path: str | Path) -> StructuralModel:
    """Read a model file into a `StructuralModel`.

    The file's own rules apply here: required keys, flat row-major square
    matrices, a scalar ``d_allow`` that broadcasts to every drift, damper
    rows of a multiple of ``n_dof`` entries, and the ``rayleigh`` block.
    `StructuralModel` checks the values themselves (shapes, finiteness,
    symmetry, a positive definite mass). Every failure raises `InputError`
    naming the offending field and, where available, its line number.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from exc
    loader = _YAML_LOADER(text)
    try:
        node = loader.get_single_node()
        doc = None if node is None else loader.construct_document(node)
    except yaml.YAMLError as exc:
        raise InputError(f"model file {path} is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"model file {path} must hold a mapping of fields")
    # Top-level keys and their 1-based lines, for error messages.
    lines = {key.value: key.start_mark.line + 1 for key, _ in node.value}

    def error(key, message):
        where = f" (line {lines[key]})" if key in lines else ""
        return InputError(f"field '{key}'{where}: {message}")

    unknown = [key for key in lines if key not in _MODEL_KEYS]
    if unknown:
        raise error(unknown[0], f"unknown key; expected one of {sorted(_MODEL_KEYS)}")

    def require(key):
        if key not in doc:
            raise InputError(f"model file {path} is missing the field '{key}'")
        return doc[key]

    def numeric(key, raw):
        try:
            return np.asarray(raw, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(key, f"not numeric: {exc}") from exc

    n = require("n_dof")
    if type(n) is not int:  # a bool is no integer here either
        raise error("n_dof", f"must be an integer, got {n!r}")
    if n < 1:
        raise error("n_dof", "must be at least 1")

    def square(key):
        a = numeric(key, require(key))
        return a.reshape(n, n) if a.shape == (n * n,) else a

    mass = square("mass")
    stiffness = square("stiffness")
    influence = numeric("influence", require("influence")).reshape(-1)
    drift = numeric("drift_transform", require("drift_transform"))
    d_allow = numeric("d_allow", require("d_allow"))
    if d_allow.size == 1:
        d_allow = np.full(np.atleast_2d(drift).shape[0], d_allow.item())

    entries = require("dampers")
    if not isinstance(entries, list) or not entries:
        raise error("dampers", "expected a non-empty list of {row: [...]} entries")
    transforms = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "row" not in entry:
            raise error("dampers", f"entry {i + 1} must be a mapping with a 'row' key")
        row = numeric("dampers", entry["row"])
        if not row.size or row.size % n:
            raise error("dampers", f"entry {i + 1} length is not a positive multiple of n_dof={n}")
        transforms.append(row.reshape(-1, n))

    if "inherent_damping" in doc and "rayleigh" in doc:
        raise InputError(
            f"model file {path}: give either 'inherent_damping' or "
            "'rayleigh', not both"
        )
    fields = dict(
        mass=mass,
        stiffness=stiffness,
        influence=influence,
        drift_transform=drift,
        d_allow=d_allow,
        damper_transforms=tuple(transforms),
    )

    def build(inherent):
        try:
            return StructuralModel(inherent_damping=inherent, **fields)
        except ValueError as exc:
            # The model's messages start with the name of the failing field.
            key = re.match(r"\w*", str(exc)).group()
            raise error({"damper_transforms": "dampers"}.get(key, key), exc) from exc

    if "inherent_damping" in doc:
        return build(square("inherent_damping"))
    if "rayleigh" not in doc:
        return build(np.zeros_like(mass))
    block = doc["rayleigh"]
    if not isinstance(block, dict) or "zeta" not in block:
        raise error("rayleigh", "expected a mapping with a 'zeta' key")
    if n < 2:
        raise error(
            "rayleigh",
            "fitting two modes needs at least 2 DOFs; give 'inherent_damping' instead",
        )
    bare = build(np.zeros_like(mass))
    try:
        modes = compute_lowest_modes(bare, 2)
        inherent = build_rayleigh(bare, float(block["zeta"]), (modes[0][0], modes[1][0]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise error("rayleigh", exc) from exc
    return build(inherent)


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
    """Read per-location damping coefficients (kNs/m): one per line in
    location order, or rows keyed by location, comma- or space-separated
    (design.csv, design.txt), that name each location 1..n_dampers once."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read design file {path}: {exc}") from exc
    n = model.n_dampers
    values, keyed = [], {}  # keyed: location -> (coefficient, line number)
    for number, line in enumerate(text.splitlines(), 1):
        parts = [p.strip() for p in line.split(",")] if "," in line else line.split() or [""]
        if not parts[0] or parts[0].startswith("#"):
            continue
        # Rows keyed by an integer location give their first design column;
        # rows keyed otherwise are headers, rules or J rows. A one-column
        # file may open with a header. Any other line must parse.
        if len(parts) > 1 and not re.fullmatch(r"[+-]?\d+", parts[0]):
            continue
        where = f"design file {path}, line {number}"
        try:
            value = float(parts[1] if len(parts) > 1 else parts[0])
        except ValueError:
            if len(parts) > 1 or values:
                raise InputError(f"{where}: '{line.strip()}' is not a coefficient") from None
            continue
        if (len(parts) > 1 and values) or (len(parts) == 1 and keyed):
            raise InputError(f"{where}: keyed and one-column rows are mixed")
        if len(parts) == 1:
            values.append(value)
            continue
        loc = int(parts[0])
        if not 1 <= loc <= n:
            raise InputError(f"{where}: location {loc} is not one of 1..{n}")
        if loc in keyed:
            raise InputError(f"{where}: location {loc} is already given on line {keyed[loc][1]}")
        keyed[loc] = value, number
    if keyed:
        missing = sorted(set(range(1, n + 1)) - keyed.keys())
        if missing:
            raise InputError(f"design file {path} has no row for location {missing[0]}")
        values = [keyed[loc][0] for loc in range(1, n + 1)]
    if len(values) != n:
        raise InputError(
            f"design file {path} holds {len(values)} coefficients, model has {n} dampers"
        )
    try:
        return DesignVector(x=np.asarray(values) / c_bar, c_bar=c_bar)
    except ValueError as exc:
        raise InputError(f"design file {path}: {exc}") from exc


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
    designs = [
        (name, d.design if isinstance(d, FinalDesign) else d)
        for name, d in [(label, final), *(comparison or {}).items()]
    ]

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
    drift_dir: Path | None = None,
) -> tuple[list[str], list[list]]:
    """Aggregated constraint and exact peak per scenario per record.

    An independent re-sweep of the final design: the scenarios' damping
    matrices go through one batched analysis per record, each distinct one
    once (see `newmark_solve`). With ``drift_dir``, each (scenario, record)
    drift history of that sweep is written there as
    ``drifts_s<id>_<record>.csv`` (see `write_drift_history`). The
    ``threshold`` column is the constant 1.0 limit on the normalized peak,
    kept in the CSV so plots can draw it directly.
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
        hist = newmark_solve(model, C_d, gm)
        value = evaluate_drift_constraint(hist, model, params)
        # Per scenario; the drift histories are dropped once written.
        values.append((value.g, value.d_max_exact))
        if drift_dir is not None:
            for sc, i in zip(scenarios, hist.index):
                path = drift_dir / f"drifts_s{sc.id:04d}_{gm.name}.csv"
                write_drift_history(path, model, hist.times, hist.u[:, i])
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


def write_iteration_log(path: Path, history) -> None:
    header = [
        "iteration", "cost", "g_max_true", "step_norm", "active_planes", "p", "lp_status",
        "margin", "lp_pivots",
    ]
    rows = [
        [i, r.cost, r.g_max_true, r.step_norm, r.n_active_planes, r.p, r.lp_status, r.margin,
         r.lp_pivots]
        for i, r in enumerate(history, 1)
    ]
    write_csv(path, header, rows)


def _manifest(
    args: argparse.Namespace,
    slp: SlpConfig,
    scenario_set: ScenarioSet,
    final: FinalDesign,
    max_exact_peak: float,
) -> dict:
    return {
        "mode": final.mode,
        "model": str(Path(args.model)),
        "records": [str(Path(p)) for p in args.records],
        # No stochastic element exists anywhere in the pipeline, so runs are
        # seedless and identical inputs give byte-identical CSV outputs.
        "deterministic": True,
        "scenarios": {
            "n_dampers": scenario_set.n_dampers,
            "complete_k": args.complete_k,
            "partial_k": args.partial_k,
            "nu": args.nu,
            "n_complete": scenario_set.n_complete,
            "n_partial": scenario_set.n_partial,
            "n_total": scenario_set.n_total,
            "list": [
                {"id": sc.id, "damaged": [i + 1 for i in sc.damaged], "nu": sc.factor}
                for sc in scenario_set
            ],
        },
        "settings": {
            "c_bar": args.cbar,
            "epsilon": args.epsilon,
            "ml": slp.ml,
            "delta": slp.convergence_tol(scenario_set.n_dampers),
            "i_min": slp.i_min,
            "i_max": slp.i_max,
            "p_schedule": [slp.p_start, slp.p_step, P_CAP],
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
                "resumes": sp.resumes,
            }
            for sp in final.subproblems
        ],
        "working_set_history": [list(ws) for ws in final.working_set_history],
        "active_records": final.active_records,
        "function_evaluations": {
            "primal": final.eval_counter.n_primal,
            "adjoint": final.eval_counter.n_adjoint,
            "total": final.eval_counter.total,
            "primal_systems": final.eval_counter.n_primal_systems,
            "adjoint_systems": final.eval_counter.n_adjoint_systems,
        },
        "converged": final.converged,
        "verified": final.verified,
        "max_g": final.max_g,
        "max_exact_peak": max_exact_peak,
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


_SCENARIO_FLAGS = {
    "complete group": "--complete-k",
    "partial group": "--partial-k",
    "partial damage": "--nu",
}


def _scenario_set(args: argparse.Namespace, model: StructuralModel) -> ScenarioSet:
    """The damage scenarios of ``--complete-k``, ``--partial-k`` and ``--nu``."""
    try:
        return enumerate_scenarios(
            model.n_dampers, args.complete_k, args.partial_k, args.nu
        )
    except ValueError as exc:
        # Its messages start with the group size or the factor at fault.
        flag = next(f for key, f in _SCENARIO_FLAGS.items() if str(exc).startswith(key))
        raise InputError(f"{flag}: {exc}") from exc


def _output_dir(out: Path) -> Path:
    """Create ``--out`` or a directory in it: after the inputs are validated,
    before any solve."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"--out: cannot create directory {out}: {exc}") from exc
    return out


def _run_optimization(
    args: argparse.Namespace,
    model: StructuralModel,
    records: list[GroundMotion],
    slp: SlpConfig,
    fs: FailSafeConfig,
) -> int:
    scenario_set = _scenario_set(args, model)
    stems = [Path(p).stem for p in args.compare]
    shared = sorted({stem for stem in stems if stems.count(stem) > 1})
    if shared:
        raise InputError(f"--compare names its columns by file stem, and '{shared[0]}' "
                         "is the stem of more than one file")
    comparison = {stem: load_design(p, model, args.cbar) for stem, p in zip(stems, args.compare)}
    out = _output_dir(Path(args.out))
    drift_dir = _output_dir(out / "drifts") if args.export_drifts else None
    final = run_failsafe(
        model,
        scenario_set,
        records,
        c_bar=args.cbar,
        slp_config=slp,
        fs_config=fs,
        mode=args.mode,
    )

    header, rows = report_design(final, comparison or None, label=f"{args.mode} design")
    design_table = render_table(header, rows)
    write_csv(out / "design.csv", header, rows)
    (out / "design.txt").write_text(design_table)
    header, rows = report_constraints(
        final.design, model, scenario_set, records, final.params_final, drift_dir
    )
    write_csv(out / "constraints.csv", header, rows)
    column = header.index("exact_peak")
    max_exact_peak = max(row[column] for row in rows)
    manifest = _manifest(args, slp, scenario_set, final, max_exact_peak)
    (out / "run_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    for sp in final.subproblems:
        write_iteration_log(out / f"subproblem_{sp.index:02d}.csv", sp.history)

    print(design_table)
    print(
        f"mode={final.mode} converged={final.converged} verified={final.verified} "
        f"max_g={final.max_g:.3g} max_exact_peak={max_exact_peak:.7g} "
        f"evaluations={final.eval_counter.total} "
        f"wall_time={final.wall_time:.1f}s"
    )
    return 0 if final.converged else 3


def _given_design(
    args: argparse.Namespace, model: StructuralModel, default: float
) -> DesignVector:
    """The ``--design`` file's design, or every variable at ``default``."""
    if args.design:
        return load_design(args.design, model, args.cbar)
    return DesignVector(x=np.full(model.n_dampers, default), c_bar=args.cbar)


def _run_simulate(
    args: argparse.Namespace, model: StructuralModel, records: list[GroundMotion]
) -> int:
    design = _given_design(args, model, 0.0)
    out = _output_dir(Path(args.out))
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


def _run_check_gradients(
    args: argparse.Namespace, model: StructuralModel, records: list[GroundMotion]
) -> int:
    if not 0 < args.fd_step < np.inf:
        raise InputError(f"--fd-step must be positive and finite, got {args.fd_step:g}")
    scenario_set = _scenario_set(args, model)
    design = _given_design(args, model, 0.5)
    params = ConstraintParams(p=args.p_start)
    out = _output_dir(Path(args.out))
    rows = [
        [gm.name, r["scenario_id"], r["scenario"], r["max_rel_error"]]
        for gm in records
        for r in gradient_check(model, design, list(scenario_set), gm, params, h=args.fd_step)
    ]
    write_csv(out / "gradient_check.csv", ["record", "scenario_id", "scenario", "max_rel_error"], rows)
    for name, scenario_id, label, err in rows:
        print(f"record {name} scenario {scenario_id:>4} ({label}): max relative error {err:.3e}")
    name, scenario_id, label, worst = max(rows, key=lambda row: row[3])
    print(
        f"worst adjoint-vs-FD relative error {worst:.3e} at p=q={params.p}, "
        f"scenario {scenario_id} ({label}), record {name}"
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
    parser.add_argument("--cbar", type=float, default=DesignVector.c_bar,
                        help="largest damping coefficient available, kNs/m")
    parser.add_argument("--ml", type=float, default=SlpConfig.ml, help="move limit")
    parser.add_argument("--imin", type=int, default=SlpConfig.i_min,
                        help="minimum SLP iterations per sub-problem")
    parser.add_argument("--imax", type=int, default=SlpConfig.i_max,
                        help="SLP iteration cap per sub-problem")
    parser.add_argument("--epsilon", type=float, default=FailSafeConfig.epsilon,
                        help="relative closeness for critical-scenario selection")
    parser.add_argument("--p-start", type=int, default=SlpConfig.p_start,
                        help="first exponent of the time norm and the aggregation")
    parser.add_argument("--p-step", type=int, default=SlpConfig.p_step,
                        help="exponent increment per SLP iteration")
    parser.add_argument("--accel-units", choices=("m/s2", "g"), default="m/s2")
    parser.add_argument("--out", default="failsafe-out", help="output directory")
    parser.add_argument("--design", default=None,
                        help="design file (per-location kNs/m) for simulate "
                             "and check-gradients modes")
    parser.add_argument("--compare", nargs="*", default=[],
                        help="design files to list side by side in the "
                             "design report (e.g. a basic-mode design.csv)")
    parser.add_argument("--fd-step", type=float, default=1e-6,
                        help="finite-difference step for the gradient check")
    parser.add_argument("--export-drifts", action="store_true",
                        help="write drift time histories for every scenario")
    parser.add_argument("--verbose", action="store_true")
    return parser


def solver_configs(args: argparse.Namespace) -> tuple[SlpConfig, FailSafeConfig]:
    """The optimizer and working-set settings given on the command line."""
    if not 0 < args.cbar < np.inf:
        raise InputError(f"--cbar must be positive and finite, got {args.cbar:g}")
    try:
        slp = SlpConfig(
            ml=args.ml,
            i_min=args.imin,
            i_max=args.imax,
            p_start=args.p_start,
            p_step=args.p_step,
        )
        return slp, FailSafeConfig(epsilon=args.epsilon)
    except ValueError as exc:
        # Name each setting by its flag; ConstraintParams calls p_start p.
        flags = {"ml": "--ml", "i_min": "--imin", "i_max": "--imax", "epsilon": "--epsilon",
                 "p": "--p-start", "p_start": "--p-start", "p_step": "--p-step"}
        raise InputError(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), str(exc))) from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        for flag, given, modes in _MODE_FLAGS:
            if getattr(args, given) and args.mode not in modes:
                raise InputError(f"{flag} is read only by --mode {', '.join(modes)}, "
                                 f"not by --mode {args.mode}")
        slp, fs = solver_configs(args)
        model = parse_model(args.model)
        records = [load_ground_motion(p, units=args.accel_units) for p in args.records]
        names = [gm.name for gm in records]
        if len(set(names)) != len(names):
            raise InputError(f"record names must be unique, got {names}")
        if args.mode == "simulate":
            return _run_simulate(args, model, records)
        if args.mode == "check-gradients":
            return _run_check_gradients(args, model, records)
        return _run_optimization(args, model, records, slp, fs)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
