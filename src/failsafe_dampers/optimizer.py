"""Sequential linear programming with accumulated cutting planes.

One relaxed sub-problem (a fixed working set of failure scenarios and a
fixed list of records) is solved by iterating: evaluate the aggregated
drift constraint and its adjoint gradient for every (scenario, record)
pair (all scenarios of a record in one batched sweep), append the
linearizations to a growing plane collection, disable planes that bind
the LP while their underlying constraint is comfortably satisfied, and
move to the cost-minimizing vertex of the accumulated planes inside a
move-limit box. A continuation schedule ratchets the smoothing exponents
p and q up every iteration so the smooth constraint approaches the true
peak-drift constraint as the design settles.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ._simplex import SimplexError, solve_inequality_lp
from .adjoint import adjoint_gradient
from .constraints import ConstraintParams, evaluate_drift_constraint
from .dynamics import GroundMotion, newmark_solve
from .model import DesignVector, StructuralModel, assemble_added_damping
from .scenarios import FailureScenario

logger = logging.getLogger(__name__)

_BIND_TOL = 1e-7


@dataclass
class EvalCounter:
    """Tally of time-history and adjoint solves, one per (scenario, record)
    pair, however many pairs share a batched sweep."""

    n_primal: int = 0
    n_adjoint: int = 0

    @property
    def total(self) -> int:
        return self.n_primal + self.n_adjoint


@dataclass
class CuttingPlane:
    """One linearization of a scenario's aggregated constraint.

    Predicts ghat(x) = intercept + gradient @ (x - point); the half-space
    kept in the LP is ghat(x) <= 0. Disabled planes stay in the log but are
    excluded from the LP.
    """

    scenario_id: int
    record: str
    gradient: np.ndarray
    intercept: float
    point: np.ndarray
    iteration: int
    enabled: bool = True

    def predict(self, x: np.ndarray) -> float:
        return float(self.intercept + self.gradient @ (x - self.point))


@dataclass(frozen=True)
class SlpConfig:
    """Tuning for the SLP loop and the p/q continuation.

    The convergence tolerance defaults to 0.10 * ml * sqrt(N_d), i.e. 10%
    of the largest possible move, and is evaluated per problem size through
    `convergence_tol`; pass ``delta`` to override it.
    """

    ml: float = 0.02
    i_min: int = 50
    i_max: int = 500
    p_start: int = 100
    p_step: int = 500
    p_cap: int = 1_000_000
    q_start: int = 100
    q_step: int = 500
    q_cap: int = 1_000_000
    drop_margin: float = 0.02
    delta: float | None = None
    weights: str = "trapezoid"
    beta: float = 0.25
    gamma: float = 0.5

    def __post_init__(self):
        if self.ml <= 0:
            raise ValueError(f"move limit must be positive, got {self.ml}")
        if self.i_min < 1 or self.i_max < self.i_min:
            raise ValueError("need 1 <= i_min <= i_max")
        for name in ("p", "q"):
            start = getattr(self, f"{name}_start")
            step = getattr(self, f"{name}_step")
            cap = getattr(self, f"{name}_cap")
            if step < 0 or not start <= cap:
                raise ValueError(f"{name} schedule must be nondecreasing up to its cap")
        ConstraintParams(p=self.p_start, q=self.q_start, weights=self.weights)
        if self.drop_margin < 0:
            raise ValueError("drop margin must be nonnegative")
        if self.delta is not None and self.delta <= 0:
            raise ValueError("delta must be positive when given")

    def convergence_tol(self, n_dampers: int) -> float:
        if self.delta is not None:
            return self.delta
        return 0.10 * self.ml * math.sqrt(n_dampers)

    def advance(self, p: int, q: int) -> tuple[int, int]:
        return min(p + self.p_step, self.p_cap), min(q + self.q_step, self.q_cap)


@dataclass(frozen=True)
class LpResult:
    x: np.ndarray
    objective: float
    status: str
    violation: float
    binding: tuple[int, ...]


def solve_lp(
    objective: np.ndarray,
    planes: list[CuttingPlane],
    center: np.ndarray,
    move_limit: float,
    bounds: tuple[float, float] = (0.0, 1.0),
    margin: float = 0.0,
) -> LpResult:
    """Minimize a linear cost over the enabled planes within move limits.

    The feasible box is [max(lo, center - ml), min(hi, center + ml)] per
    variable. ``margin`` tightens every plane to ghat <= -margin: because
    linearizations of the (locally convex) constraint underestimate it, the
    plain half-spaces would let the iterates converge to the boundary from
    the infeasible side, and a margin of half the termination tolerance
    parks the limit point strictly inside instead.

    When the plane set admits no point in the box, the LP is relaxed
    elastically: per-plane violations are minimized first, then the cost
    among minimal-violation points, and the result is flagged with status
    ``"elastic"``.
    """
    center = np.asarray(center, dtype=float)
    objective = np.asarray(objective, dtype=float)
    n = center.size
    lo = np.maximum(bounds[0], center - move_limit)
    hi = np.minimum(bounds[1], center + move_limit)

    enabled = [i for i, pl in enumerate(planes) if pl.enabled]
    A_pl = np.array([planes[i].gradient for i in enabled]).reshape(len(enabled), n)
    b_pl = np.array(
        [
            planes[i].gradient @ planes[i].point - planes[i].intercept - margin
            for i in enabled
        ]
    )

    # Shift to y = x - lo so the simplex's x >= 0 convention applies.
    span = hi - lo
    b_shift = b_pl - A_pl @ lo
    A_box = np.eye(n)
    A_full = np.vstack([A_pl, A_box])
    b_full = np.concatenate([b_shift, span])

    y, status = solve_inequality_lp(objective, A_full, b_full)
    violation = 0.0
    if status == "infeasible":
        y, violation = _solve_elastic(objective, A_pl, b_shift, span)
        status = "elastic"

    x = np.clip(lo + y, lo, hi)
    bind_level = -margin - _BIND_TOL
    binding = tuple(i for i in enabled if planes[i].predict(x) >= bind_level)
    return LpResult(
        x=x,
        objective=float(objective @ x),
        status=status,
        violation=violation,
        binding=binding,
    )


def _solve_elastic(objective, A_pl, b_shift, span):
    """Two-stage relaxation: least total plane violation, then least cost."""
    n = span.size
    mp = A_pl.shape[0]
    # Variables [y, s]: planes become A y - s <= b, box rows keep y <= span.
    A1 = np.vstack(
        [
            np.hstack([A_pl, -np.eye(mp)]),
            np.hstack([np.eye(n), np.zeros((n, mp))]),
        ]
    )
    b1 = np.concatenate([b_shift, span])
    c1 = np.concatenate([np.zeros(n), np.ones(mp)])
    z, status = solve_inequality_lp(c1, A1, b1)
    if status != "optimal":
        raise SimplexError("elastic relaxation is infeasible")
    v_min = float(c1 @ z)

    A2 = np.vstack([A1, c1[None, :]])
    b2 = np.concatenate([b1, [v_min + 1e-9]])
    c2 = np.concatenate([objective, np.zeros(mp)])
    z, status = solve_inequality_lp(c2, A2, b2)
    if status != "optimal":
        raise SimplexError("elastic cost stage is infeasible")
    return z[:n], v_min


@dataclass
class IterationRecord:
    iteration: int
    cost: float
    g_max_true: float
    step_norm: float
    n_active_planes: int
    p: int
    q: int
    lp_status: str
    g_true: dict[tuple[int, str], float] = field(default_factory=dict)


@dataclass
class SlpResult:
    x: np.ndarray
    converged: bool
    n_iterations: int
    history: list[IterationRecord]
    planes: list[CuttingPlane]
    p_final: int
    q_final: int


def slp_solve(
    model: StructuralModel,
    working_scenarios: list[FailureScenario],
    records: list[GroundMotion],
    design0: DesignVector,
    config: SlpConfig,
    *,
    p_start: int | None = None,
    q_start: int | None = None,
    counter: EvalCounter | None = None,
    advance_continuation: bool = True,
    feasibility_margin: float = 0.0,
    label: str = "",
) -> SlpResult:
    """Solve one working-set sub-problem.

    Runs the evaluate / drop / LP / move cycle until the design moves less
    than the convergence tolerance after at least ``i_min`` iterations.
    When the iteration cap is reached instead, the best iterate seen so far
    is returned (preferring evaluated-feasible designs of least cost) with
    ``converged=False``.

    ``advance_continuation=False`` pins p and q at their starting values;
    the working-set driver uses this when re-solving a sub-problem purely
    to clear residual constraint violations, where a moving target would
    keep regenerating them.
    """
    if not working_scenarios:
        raise ValueError("the working set must hold at least one scenario")
    if not records:
        raise ValueError("need at least one ground motion")
    names = [gm.name for gm in records]
    if len(set(names)) != len(names):
        raise ValueError(f"record names must be unique, got {names}")
    counter = counter if counter is not None else EvalCounter()

    n_d = model.n_dampers
    x = design0.x.copy()
    delta = config.convergence_tol(n_d)
    p = config.p_start if p_start is None else p_start
    q = config.q_start if q_start is None else q_start
    cost_gradient = np.ones(n_d)

    planes: list[CuttingPlane] = []
    history: list[IterationRecord] = []
    last_binding: tuple[int, ...] = ()
    best: tuple[float, float, np.ndarray] | None = None  # (gmax, cost, x)
    converged = False
    iteration = 0

    for iteration in range(1, config.i_max + 1):
        params = ConstraintParams(p=p, q=q, weights=config.weights)
        design = DesignVector(x=x, c_bar=design0.c_bar)

        # One batched primal and adjoint sweep per record covers every
        # working scenario. The planes keep their scenario-major order:
        # the simplex's pivot choices depend on the order of its rows.
        C_d = assemble_added_damping(model, design, working_scenarios)
        per_record = []
        for gm in records:
            hist = newmark_solve(model, C_d, gm, beta=config.beta, gamma=config.gamma)
            g = evaluate_drift_constraint(hist, model, params).g
            grads = adjoint_gradient(
                model, design, working_scenarios, gm, params, history=hist
            )
            counter.n_primal += len(working_scenarios)
            counter.n_adjoint += len(working_scenarios)
            per_record.append((gm.name, g, grads))

        g_true: dict[tuple[int, str], float] = {}
        for i, sc in enumerate(working_scenarios):
            for name, g, grads in per_record:
                planes.append(
                    CuttingPlane(
                        scenario_id=sc.id,
                        record=name,
                        gradient=grads[i],
                        intercept=float(g[i]),
                        point=x.copy(),
                        iteration=iteration,
                    )
                )
                g_true[(sc.id, name)] = float(g[i])
        g_max_true = max(g_true.values())

        # A plane that binds the LP while its constraint is satisfied with
        # margin is cutting into the feasible region; retire it.
        for idx in last_binding:
            pl = planes[idx]
            if not pl.enabled:
                continue
            current = g_true.get((pl.scenario_id, pl.record))
            if current is not None and current < -config.drop_margin:
                pl.enabled = False
                logger.debug(
                    "%sdropped plane (scenario %d, %s, iter %d): g=%.4g",
                    label,
                    pl.scenario_id,
                    pl.record,
                    pl.iteration,
                    current,
                )

        key = (g_max_true, float(x.sum()))
        if best is None or _better(key, best[:2]):
            best = (key[0], key[1], x.copy())

        lp = solve_lp(
            cost_gradient, planes, x, config.ml, margin=feasibility_margin
        )
        last_binding = lp.binding
        step = float(np.linalg.norm(lp.x - x))
        x = lp.x

        history.append(
            IterationRecord(
                iteration=iteration,
                cost=float(x.sum()),
                g_max_true=g_max_true,
                step_norm=step,
                n_active_planes=sum(pl.enabled for pl in planes),
                p=p,
                q=q,
                lp_status=lp.status,
                g_true=dict(g_true),
            )
        )
        if iteration >= config.i_min and step < delta:
            converged = True
            break
        if advance_continuation:
            p, q = config.advance(p, q)

    if not converged:
        logger.warning(
            "%sSLP hit the iteration cap (%d) with step %.3g >= delta %.3g; "
            "returning the best iterate seen",
            label,
            config.i_max,
            history[-1].step_norm if history else float("nan"),
            delta,
        )
        if best is not None:
            x = best[2]

    return SlpResult(
        x=x,
        converged=converged,
        n_iterations=iteration,
        history=history,
        planes=planes,
        p_final=p,
        q_final=q,
    )


def _better(candidate: tuple[float, float], incumbent: tuple[float, float]) -> bool:
    """Prefer feasible iterates of smaller cost, then smaller violation."""
    cand_feas = candidate[0] <= 0.0
    inc_feas = incumbent[0] <= 0.0
    if cand_feas != inc_feas:
        return cand_feas
    if cand_feas:
        return candidate[1] < incumbent[1]
    return candidate[0] < incumbent[0]
