"""Expanding working-set loop over failure scenarios.

Solving the full problem means one response analysis and one adjoint solve
per failure scenario per optimization iteration, which is wasteful when
only a handful of scenarios ever govern the design. The driver here starts
from the no-failure scenario alone, solves that relaxed sub-problem, then
checks every scenario at the solution: if violations remain, the
scenarios closest to the worst violation join the working set and the next
sub-problem starts from the current design. Scenarios are only ever added.
An outer loop applies the same idea to the ground-motion ensemble: the
record with the largest spectral displacement at the structure's
fundamental period is optimized for first, and records that still violate
the constraints at the converged design are added and the loop rerun.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .constraints import ConstraintParams, evaluate_drift_constraint
from .dynamics import GroundMotion, newmark_solve, select_dominant_record
from .errors import ConvergenceError, InputError
from .model import (
    DesignVector,
    StructuralModel,
    assemble_added_damping,
    compute_lowest_modes,
)
from .optimizer import EvalCounter, SlpConfig, slp_solve
from .scenarios import ScenarioSet

logger = logging.getLogger(__name__)

# Loop budgets: sub-problems per run, resumes per sub-problem, passes of the
# record loop, and the minimum SLP iterations of a resume.
MAX_SUBPROBLEMS = 25
MAX_RESUMES = 8
MAX_RECORD_PASSES = 10
RESUME_I_MIN = 5


@dataclass(frozen=True)
class FailSafeConfig:
    """Knobs of the working-set loop itself.

    A "resume" re-solves the current sub-problem when violations persist
    but no scenario is left to add; it runs with the continuation frozen
    at the sub-problem's final exponents and a short minimum-iteration
    budget (`RESUME_I_MIN`, at most the SLP's ``i_max``), since it only
    needs to clear residual violations around an already-converged design.
    Each sub-problem's planes are tightened by half of ``violation_tol``,
    and each resume adds the max g that forced it.
    """

    epsilon: float = 0.05
    violation_tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.violation_tol < 0:
            raise ValueError("violation tolerance must be nonnegative")


@dataclass
class SubproblemStats:
    index: int
    scenario_ids: tuple[int, ...]
    iterations: int
    converged: bool
    cost: float
    p_final: int
    q_final: int
    resumes: int
    history: list


@dataclass
class FinalDesign:
    """Outcome of a working-set run with its audit trail."""

    design: DesignVector
    mode: str
    converged: bool
    verified: bool
    max_g: float
    scenario_g: np.ndarray
    subproblems: list[SubproblemStats]
    working_set_history: list[tuple[int, ...]]
    active_records: list[str]
    eval_counter: EvalCounter
    params_final: ConstraintParams
    wall_time: float

    @property
    def cost(self) -> float:
        return self.design.cost


def evaluate_all(
    design: DesignVector,
    model: StructuralModel,
    scenario_set: ScenarioSet,
    records: list[GroundMotion],
    params: ConstraintParams,
    counter: EvalCounter | None = None,
) -> np.ndarray:
    """Aggregated constraint per scenario, worst case over the records.

    Every scenario goes through one batched time-history analysis per
    record: the damping matrices are assembled once as a (B, n, n) stack,
    and the batch holds B x (N+1) x 3n floats of states while its record
    is evaluated. ``counter`` counts one primal per (scenario, record) pair.
    """
    if not records:
        raise ValueError("need at least one ground motion")
    scenarios = list(scenario_set)
    C_d = assemble_added_damping(model, design, scenarios)
    g = np.full(len(scenarios), -np.inf)
    for gm in records:
        hist = newmark_solve(model, C_d, gm)
        if counter is not None:
            counter.n_primal += len(scenarios)
        g = np.maximum(g, evaluate_drift_constraint(hist, model, params).g)
    return g


def select_critical(
    g_values: np.ndarray,
    working_set: list[int] | set[int],
    epsilon: float,
) -> list[int]:
    """Scenario ids within relative ``epsilon`` of the worst constraint.

    Only scenarios not already in the working set are returned. Must be
    called with at least one violated scenario; the relative closeness
    ratio is meaningless otherwise and the loop should have stopped.
    """
    g = np.asarray(g_values, dtype=float)
    g_max = g.max()
    if g_max <= 0:
        raise RuntimeError(
            "select_critical called with no violated scenario; "
            "the working-set loop should have terminated"
        )
    inside = set(working_set)
    return [
        int(i)
        for i in range(g.size)
        if i not in inside and (g_max - g[i]) / g_max <= epsilon
    ]


def run_failsafe(
    model: StructuralModel,
    scenario_set: ScenarioSet,
    ensemble: list[GroundMotion],
    *,
    c_bar: float = 150_000.0,
    slp_config: SlpConfig | None = None,
    fs_config: FailSafeConfig | None = None,
    mode: str = "failsafe",
    x0: np.ndarray | None = None,
) -> FinalDesign:
    """Minimum-cost design satisfying every scenario under every record.

    Parameters
    ----------
    mode : str
        ``"failsafe"`` grows the working set from the no-failure scenario;
        ``"fullset"`` keeps every scenario in the working set from the
        start (for comparison runs); ``"basic"`` optimizes the no-failure
        scenario only, skipping scenario expansion and the record loop.

    Returns the final design together with per-sub-problem statistics,
    the expansion history of the working set, the records that ended up
    active, and the running count of time-history and adjoint solves.
    The run counts as converged only if its last sub-problem's SLP did.
    Ranking two or more records needs a positive fundamental frequency: a
    stiffness with a rigid-body or unstable mode raises `InputError`.
    """
    if mode not in ("failsafe", "fullset", "basic"):
        raise ValueError(f"unknown mode '{mode}'")
    if not ensemble:
        raise ValueError("ground-motion ensemble is empty")
    if scenario_set.n_dampers != model.n_dampers:
        raise ValueError(
            f"scenario set was enumerated for {scenario_set.n_dampers} dampers, "
            f"model has {model.n_dampers}"
        )
    names = [gm.name for gm in ensemble]
    if len(set(names)) != len(names):
        raise ValueError(f"record names must be unique, got {names}")
    slp_config = slp_config or SlpConfig()
    fs_config = fs_config or FailSafeConfig()
    t_start = time.perf_counter()

    if mode == "basic":
        # The basic design ignores damage entirely: only the no-failure
        # scenario is optimized and checked.
        scenario_set = ScenarioSet(
            scenarios=(scenario_set[0],), n_dampers=scenario_set.n_dampers
        )

    if len(ensemble) == 1:
        dominant = ensemble[0]
    else:
        omega_1 = compute_lowest_modes(model, 1)[0][0]
        if omega_1 == 0.0:
            raise InputError(
                "stiffness has a rigid-body or unstable mode (lowest frequency 0): "
                "no fundamental period ranks the records"
            )
        dominant = select_dominant_record(ensemble, 2.0 * np.pi / omega_1)
        logger.info("dominant record by spectral displacement: %s", dominant.name)
    active = [dominant]

    counter = EvalCounter()
    x = np.full(model.n_dampers, 0.5) if x0 is None else np.asarray(x0, dtype=float)
    working_set = list(range(len(scenario_set))) if mode == "fullset" else [0]

    subproblems: list[SubproblemStats] = []
    ws_history: list[tuple[int, ...]] = [tuple(working_set)]
    params = ConstraintParams(p=slp_config.p_start, q=slp_config.q_start)
    g_all = np.full(len(scenario_set), np.nan)

    for record_pass in range(1, MAX_RECORD_PASSES + 1):
        while len(subproblems) < MAX_SUBPROBLEMS:
            k = len(subproblems)
            scenarios_ws = [scenario_set[i] for i in working_set]
            history = []
            # Linearizations underestimate the constraint, so a resume
            # tightens its planes by the violation it has to clear.
            margin = 0.5 * fs_config.violation_tol
            for resume in range(MAX_RESUMES + 1):
                # Each solve continues p and q from where the last one ended;
                # a resume holds them there.
                i_min = min(RESUME_I_MIN, slp_config.i_max)
                cfg = slp_config if resume == 0 else replace(
                    slp_config, i_min=i_min, p_step=0, q_step=0
                )
                result = slp_solve(
                    model, scenarios_ws, active, DesignVector(x=x, c_bar=c_bar), cfg,
                    counter=counter, feasibility_margin=margin, label=f"[sub-problem {k}] ",
                )
                x = result.x
                p, q = result.p_final, result.q_final
                slp_config = replace(slp_config, p_start=p, q_start=q)
                history += result.history

                params = ConstraintParams(p=p, q=q)
                design = DesignVector(x=x, c_bar=c_bar)
                g_all = evaluate_all(design, model, scenario_set, active, params, counter)
                violated = bool(np.any(g_all > fs_config.violation_tol))
                if not violated:
                    break
                candidates = select_critical(g_all, working_set, fs_config.epsilon)
                if candidates:
                    break
                margin += float(g_all.max())
                logger.info(
                    "[sub-problem %d] violations persist with nothing to add "
                    "(max g = %.3g); resuming",
                    k,
                    float(g_all.max()),
                )
            stats = SubproblemStats(
                index=k, scenario_ids=tuple(working_set), iterations=len(history),
                converged=result.converged, cost=float(x.sum()), p_final=p, q_final=q,
                resumes=resume, history=history,
            )
            subproblems.append(stats)
            logger.info(
                "sub-problem %d: %d scenario(s), %d iterations, cost %.4f, "
                "max g %.3g",
                k,
                len(working_set),
                stats.iterations,
                stats.cost,
                float(g_all.max()),
            )

            if not violated:
                converged = stats.converged
                break
            if not candidates:
                raise ConvergenceError(
                    "resume budget exhausted with persistent violations "
                    f"(max g = {float(g_all.max()):.3g})"
                )
            working_set = working_set + sorted(candidates)
            ws_history.append(tuple(working_set))
        else:
            raise ConvergenceError(f"sub-problem budget ({MAX_SUBPROBLEMS}) exhausted")

        if mode == "basic":
            break

        newly_active = []
        for gm in ensemble:
            if any(gm is a for a in active):
                continue
            g_rec = evaluate_all(design, model, scenario_set, [gm], params, counter)
            g_all = np.maximum(g_all, g_rec)
            if np.any(g_rec > fs_config.violation_tol):
                newly_active.append(gm)
        if not newly_active:
            break
        logger.info(
            "record pass %d: adding violated record(s) %s",
            record_pass,
            [gm.name for gm in newly_active],
        )
        active = active + newly_active
    else:
        raise ConvergenceError(f"record-loop budget ({MAX_RECORD_PASSES}) exhausted")

    max_g = float(np.nanmax(g_all))
    verified = converged and max_g <= fs_config.violation_tol
    return FinalDesign(
        design=design,
        mode=mode,
        converged=converged,
        verified=verified,
        max_g=max_g,
        scenario_g=g_all,
        subproblems=subproblems,
        working_set_history=ws_history,
        active_records=[gm.name for gm in active],
        eval_counter=counter,
        params_final=params,
        wall_time=time.perf_counter() - t_start,
    )
