"""Expanding working-set loop over failure scenarios and records.

Solving the full problem means one response analysis and one adjoint solve
per failure scenario per optimization iteration, which is wasteful when
only a handful of scenarios ever govern the design. The driver here solves
a sequence of relaxed sub-problems, each over a working set of scenarios
under the active records, and checks every scenario at each solution. The
working set starts from the no-failure scenario and the active records
from the one with the largest spectral displacement at the structure's
fundamental period. A check with violations adds the scenarios closest to
the worst one; a clean check sweeps the inactive records and adds those
that violate. Either way the next sub-problem starts from the current
design, and nothing is ever removed. The run ends at the first design that
satisfies every scenario under every record.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import ClassVar

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

# Loop budgets: sub-problems per run and resumes per sub-problem, and the
# minimum SLP iterations of a resume.
MAX_SUBPROBLEMS = 25
MAX_RESUMES = 8
RESUME_I_MIN = 5


@dataclass(frozen=True)
class FailSafeConfig:
    """Tolerances of the working-set loop: ``epsilon`` for joining the
    working set, and the constant ``violation_tol`` for the largest g that
    counts as met.

    A "resume" re-solves the current sub-problem when violations persist
    but no scenario is left to add; it runs with the continuation frozen
    at the sub-problem's final exponent and a short minimum-iteration
    budget (`RESUME_I_MIN`, at most the SLP's ``i_max``). Each
    sub-problem's planes are tightened by half of ``violation_tol``, and
    each resume adds the max g that forced it. Within a solve, `slp_solve`
    adds the linearization error of its last step once its steps fall
    below the convergence tolerance, so that its unevaluated final
    proposal passes verification without a resume.
    """

    epsilon: float = 0.05
    violation_tol: ClassVar[float] = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")


@dataclass
class SubproblemStats:
    index: int
    scenario_ids: tuple[int, ...]
    iterations: int
    converged: bool
    cost: float
    p_final: int
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
    whose sweep integrates each distinct matrix once (see
    `newmark_solve`), so that a scenario that fails only zero dampers reads
    the intact frame's g. The batch holds B_distinct x (N+1) x 3n floats of
    states while its record is evaluated. ``counter`` counts one primal per
    (scenario, record) pair and the systems actually integrated.
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
            counter.n_primal_systems += hist.u.shape[1]
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
    c_bar: float = DesignVector.c_bar,
    slp_config: SlpConfig | None = None,
    fs_config: FailSafeConfig | None = None,
    mode: str = "failsafe",
) -> FinalDesign:
    """Minimum-cost design satisfying every scenario under every record.

    Parameters
    ----------
    mode : str
        ``"failsafe"`` grows the working set from the no-failure scenario;
        ``"fullset"`` keeps every scenario in the working set from the
        start (for comparison runs); ``"basic"`` optimizes and checks the
        no-failure scenario only, under every record.

    Returns the final design together with per-sub-problem statistics,
    the expansion history of the working set, the records that ended up
    active, and the running count of time-history and adjoint solves.
    The run counts as converged only if its last sub-problem's SLP did.
    Raises `ConvergenceError` once `MAX_RESUMES` resumes of one
    sub-problem or `MAX_SUBPROBLEMS` sub-problems are spent.
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
    design = DesignVector(x=np.full(model.n_dampers, 0.5), c_bar=c_bar)
    working_set = list(range(len(scenario_set))) if mode == "fullset" else [0]
    tol = fs_config.violation_tol

    subproblems: list[SubproblemStats] = []
    ws_history: list[tuple[int, ...]] = [tuple(working_set)]
    resume = 0
    while True:
        k = len(subproblems)
        if resume == 0:
            # Linearizations underestimate the constraint, so each
            # sub-problem tightens its planes by half the tolerance and each
            # resume by the violation it has to clear.
            history, margin, cfg = [], 0.5 * tol, slp_config
        else:
            # Each solve continues the exponent from where the last one
            # ended; a resume holds it there.
            i_min = min(RESUME_I_MIN, slp_config.i_max)
            cfg = replace(slp_config, i_min=i_min, p_step=0)
        result = slp_solve(
            model, [scenario_set[i] for i in working_set], active, design, cfg,
            counter=counter, feasibility_margin=margin, label=f"[sub-problem {k}] ",
        )
        slp_config = replace(slp_config, p_start=result.p_final)
        history += result.history
        params = ConstraintParams(p=result.p_final)
        design = DesignVector(x=result.x, c_bar=c_bar)
        g_all = evaluate_all(design, model, scenario_set, active, params, counter)
        violated = bool(np.any(g_all > tol))
        candidates = select_critical(g_all, working_set, fs_config.epsilon) if violated else []

        if violated and not candidates:
            if resume == MAX_RESUMES:
                raise ConvergenceError(
                    "resume budget exhausted with persistent violations "
                    f"(max g = {float(g_all.max()):.3g})"
                )
            margin += float(g_all.max())
            resume += 1
            logger.info(
                "[sub-problem %d] violations persist with nothing to add "
                "(max g = %.3g); resuming",
                k,
                float(g_all.max()),
            )
            continue

        subproblems.append(SubproblemStats(
            index=k, scenario_ids=tuple(working_set), iterations=len(history),
            converged=result.converged, cost=float(result.x.sum()), p_final=params.p,
            resumes=resume, history=history,
        ))
        logger.info(
            "sub-problem %d: %d scenario(s), %d iterations, cost %.4f, "
            "max g %.3g",
            k,
            len(working_set),
            len(history),
            float(result.x.sum()),
            float(g_all.max()),
        )
        if violated:
            working_set = working_set + sorted(candidates)
            ws_history.append(tuple(working_set))
        else:
            # The design satisfies every scenario under the active records:
            # it is the answer unless an inactive record still violates it.
            newly_active = []
            for gm in ensemble:
                if any(gm is a for a in active):
                    continue
                g_rec = evaluate_all(design, model, scenario_set, [gm], params, counter)
                g_all = np.maximum(g_all, g_rec)
                if np.any(g_rec > tol):
                    newly_active.append(gm)
            if not newly_active:
                break
            logger.info(
                "sub-problem %d: adding violated record(s) %s",
                k,
                [gm.name for gm in newly_active],
            )
            active = active + newly_active
        if len(subproblems) == MAX_SUBPROBLEMS:
            raise ConvergenceError(f"sub-problem budget ({MAX_SUBPROBLEMS}) exhausted")
        resume = 0

    max_g = float(g_all.max())
    verified = result.converged and max_g <= tol
    return FinalDesign(
        design=design,
        mode=mode,
        converged=result.converged,
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
