"""Sequential linear programming with accumulated cutting planes.

One relaxed sub-problem (a fixed working set of failure scenarios and a
fixed list of records) is solved by iterating: evaluate the aggregated
drift constraint and its adjoint gradient for every (scenario, record)
pair (all scenarios of a record in one batched sweep), append their
linearizations to `CuttingPlanes` as one block of rows, disable planes
that bind the LP while their underlying constraint is comfortably
satisfied, and move to the cost-minimizing vertex of the accumulated
planes inside a move-limit box. The LP takes the enabled rows of those
arrays as they stand, so no plane is read back one by one. A
continuation schedule ratchets the smoothing exponent up every iteration
(the aggregation's q follows the time norm's p) so the smooth constraint
approaches the true peak-drift constraint as the design settles.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._simplex import SimplexError, solve_inequality_lp, tableau_simplex
from .adjoint import adjoint_gradient
from .constraints import ConstraintParams, evaluate_drift_constraint
from .dynamics import GroundMotion, newmark_solve
from .model import DesignVector, StructuralModel, assemble_added_damping
from .scenarios import FailureScenario

logger = logging.getLogger(__name__)

_BIND_TOL = 1e-7
# A binding plane is retired once its constraint is satisfied by this much.
_DROP_MARGIN = 0.02
# The continuation's largest exponent, up to which the time norm and the
# aggregation are overflow-safe.
P_CAP = 1_000_000


@dataclass
class EvalCounter:
    """Tally of time-history and adjoint solves, one per (scenario, record)
    pair, however many pairs share a batched sweep, and of the systems those
    sweeps integrated: a batch sweeps each distinct damping matrix of its
    stack once (see `newmark_solve`), so scenarios that fail only zero
    dampers share one system."""

    n_primal: int = 0
    n_adjoint: int = 0
    n_primal_systems: int = 0
    n_adjoint_systems: int = 0

    @property
    def total(self) -> int:
        return self.n_primal + self.n_adjoint


class CuttingPlane(NamedTuple):
    """One linearization of a scenario's aggregated constraint, as read
    from `CuttingPlanes`.

    ghat(x) = gradient @ x - rhs; the half-space kept in the LP is
    ghat(x) <= 0. Disabled planes stay in the log but are excluded from the
    LP.
    """

    scenario_id: int
    record: str
    gradient: np.ndarray
    rhs: float
    iteration: int
    enabled: bool


class CuttingPlanes:
    """The cutting planes of one sub-problem, addressed by their position.

    Every SLP iteration linearizes the same K (scenario id, record) pairs,
    ``labels``, at one design and appends their K planes as one block, so
    row r is pair ``r % K`` of iteration ``r // K + 1``. A row is the LP's:
    a plane's gradient, the right-hand side of its half-space
    gradient @ x <= rhs, and whether it is enabled. Planes are never
    removed: `disable` clears their flags.
    """

    def __init__(self, n: int, labels):
        self._labels = list(labels)
        self._gradients = np.empty((0, n))
        self._rhs = np.empty(0)
        self._enabled = np.empty(0, dtype=bool)

    def __len__(self) -> int:
        return len(self._rhs)

    def __iter__(self) -> Iterator[CuttingPlane]:
        k = len(self._labels)
        gradients = self._gradients.view()
        gradients.flags.writeable = False
        rows = zip(gradients, self._rhs.tolist(), self._enabled.tolist())
        for r, (gradient, rhs, enabled) in enumerate(rows):
            i, j = divmod(r, k)
            yield CuttingPlane(*self._labels[j], gradient, rhs, i + 1, enabled)

    @property
    def enabled(self) -> np.ndarray:
        """Read-only flags of the planes, True where a plane is in the LP."""
        mask = self._enabled.view()
        mask.flags.writeable = False
        return mask

    def append(self, gradients, intercepts, point) -> None:
        """Add one enabled plane per label, each the linearization
        ghat(x) = intercept + gradient @ (x - point); row j of ``gradients``
        and ``intercepts`` belongs to ``labels[j]``."""
        gradients = np.asarray(gradients, dtype=float)
        intercepts = np.asarray(intercepts, dtype=float)
        if not len(gradients) == len(intercepts) == len(self._labels):
            raise ValueError(f"need one plane per label ({len(self._labels)}), got "
                             f"{len(gradients)} gradients, {len(intercepts)} intercepts")
        rhs = np.vecdot(gradients, point) - intercepts
        self._gradients = np.concatenate([self._gradients, gradients])
        self._rhs = np.concatenate([self._rhs, rhs])
        self._enabled = np.concatenate([self._enabled, np.ones(len(rhs), dtype=bool)])

    def linearization_error(self, g, x) -> float:
        """The most by which the last block's planes fall below ``g``, the
        values of their pairs at ``x``: max of g - (gradient @ x - rhs)
        over the labels, or 0 where no plane falls below."""
        k = len(self._labels)
        return max(0.0, float(np.max(g - (self._gradients[-k:] @ x - self._rhs[-k:]))))

    def disable(self, rows) -> None:
        self._enabled[rows] = False

    def enabled_rows(self):
        """Indices, gradients and right-hand sides of the enabled planes, in
        plane order."""
        idx = np.flatnonzero(self._enabled)
        return idx, self._gradients[idx], self._rhs[idx]


@dataclass(frozen=True)
class SlpConfig:
    """Tuning for the SLP loop and the continuation.

    The time norm's p and the aggregation's q are one exponent: it starts
    at ``p_start`` and grows by ``p_step`` after every iteration up to
    `P_CAP`; a step of 0 holds it fixed. The schedule stays even (see
    `ConstraintParams`). The convergence tolerance is 0.10 * ml * sqrt(N_d),
    i.e. 10% of the largest possible move (`convergence_tol`).
    """

    ml: float = 0.02
    i_min: int = 50
    i_max: int = 500
    p_start: int = 100
    p_step: int = 500

    def __post_init__(self):
        if not 0 < self.ml < math.inf:
            raise ValueError(f"ml must be positive and finite, got {self.ml}")
        if self.i_min < 1 or self.i_max < self.i_min:
            raise ValueError("need 1 <= i_min <= i_max")
        if self.p_step < 0 or not self.p_start <= P_CAP:
            raise ValueError(f"need p_step >= 0 and p_start <= {P_CAP}")
        if self.p_step % 2:
            raise ValueError(f"p_step must be even, got {self.p_step}")
        ConstraintParams(p=self.p_start)

    def convergence_tol(self, n_dampers: int) -> float:
        return 0.10 * self.ml * math.sqrt(n_dampers)

    def advance(self, p: int) -> int:
        return min(p + self.p_step, P_CAP)


@dataclass(frozen=True)
class LpResult:
    x: np.ndarray
    status: str
    binding: tuple[int, ...]
    tight: tuple[int, ...] | None
    pivots: int


def solve_lp(
    objective: np.ndarray,
    planes: CuttingPlanes,
    center: np.ndarray,
    move_limit: float,
    margin: float = 0.0,
    start: tuple[int, ...] | None = None,
) -> LpResult:
    """Minimize a nonnegative linear cost over the enabled planes within
    move limits.

    The feasible box is [max(0, center - ml), min(1, center + ml)] per
    variable. ``margin`` tightens every plane to ghat <= -margin: because
    linearizations of the (locally convex) constraint underestimate it, the
    plain half-spaces would let the iterates converge to the boundary from
    the infeasible side. The driver's margin of half the termination
    tolerance, to which `slp_solve` adds the last step's linearization
    error once its steps settle, keeps the limit point strictly inside
    instead.

    The LP goes whole to the dual simplex `solve_inequality_lp`, with no
    presolve or polish. ``tight`` holds the n constraints tight at its
    vertex: the lower bound of x_j as j, the upper bound as n + j, and
    plane r as 2n + r, a key that stays valid as planes are added. Passing
    it back as ``start`` for the next LP of the same cost warm-starts the
    dual simplex there, which re-optimizes in a pivot or two after planes
    are added and the box moves; a start that names a plane disabled since
    begins at the lower corner instead. ``pivots`` counts the dual
    simplex's pivots.

    When the plane set admits no point in the box, the LP is relaxed
    elastically on `tableau_simplex`: per-plane violations are minimized
    first, then the cost among minimal-violation points, and the result is
    flagged with status ``"elastic"`` and ``tight`` None. ``binding`` holds
    the enabled planes x meets within ``_BIND_TOL``.
    """
    center = np.asarray(center, dtype=float)
    objective = np.asarray(objective, dtype=float)
    lo = np.maximum(0.0, center - move_limit)
    hi = np.minimum(1.0, center + move_limit)

    enabled, A_pl, rhs = planes.enabled_rows()
    b_pl = rhs - margin

    # Shift to y = x - lo so the simplex's x >= 0 convention applies; the
    # box is its bound y <= span.
    span = hi - lo
    b_shift = b_pl - A_pl @ lo

    # The dual simplex labels plane rows by their place among the enabled
    # ones; a disabled plane's key maps to -1, which it rejects.
    bounds = 2 * span.size
    basis = None
    if start is not None:
        basis = np.array(start)
        row_of = np.full(len(planes), -1 - bounds)
        row_of[enabled] = np.arange(enabled.size)
        on_plane = basis >= bounds
        basis[on_plane] = bounds + row_of[basis[on_plane] - bounds]
    y, status, basis, pivots = solve_inequality_lp(objective, A_pl, b_shift, span, basis)
    tight = None
    if status == "infeasible":
        y = _solve_elastic(objective, A_pl, b_shift, span)
        status = "elastic"
    else:
        on_plane = basis >= bounds
        basis[on_plane] = bounds + enabled[basis[on_plane] - bounds]
        tight = tuple(basis.tolist())

    x = np.clip(lo + y, lo, hi)
    binding = tuple(enabled[A_pl @ x - rhs >= -margin - _BIND_TOL].tolist())
    return LpResult(x=x, status=status, binding=binding, tight=tight, pivots=pivots)


def _solve_elastic(objective, A_pl, b_shift, span):
    """Two-stage relaxation: least total plane violation, then least cost."""
    n = span.size
    mp = A_pl.shape[0]
    # Variables [y, s]: planes become A y - s <= b, y keeps its box and s
    # has none.
    A1 = np.hstack([A_pl, -np.eye(mp)])
    upper = np.concatenate([span, np.full(mp, np.inf)])
    c1 = np.concatenate([np.zeros(n), np.ones(mp)])
    z, status = tableau_simplex(c1, A1, b_shift, upper)
    if status != "optimal":
        raise SimplexError("elastic relaxation is infeasible")
    v_min = float(c1 @ z)

    # Bounds would pivot after the violation row; the LP has always had it
    # after the box rows, so this stage stacks the box as rows.
    A2 = np.vstack([A1, np.hstack([np.eye(n), np.zeros((n, mp))]), c1[None, :]])
    b2 = np.concatenate([b_shift, span, [v_min + 1e-9]])
    c2 = np.concatenate([objective, np.zeros(mp)])
    z, status = tableau_simplex(c2, A2, b2)
    if status != "optimal":
        raise SimplexError("elastic cost stage is infeasible")
    return z[:n]


@dataclass
class IterationRecord:
    cost: float
    g_max_true: float
    step_norm: float
    n_active_planes: int
    p: int
    lp_status: str
    margin: float
    lp_pivots: int


@dataclass
class SlpResult:
    x: np.ndarray
    converged: bool
    n_iterations: int
    history: list[IterationRecord]
    planes: CuttingPlanes
    p_final: int


def slp_solve(
    model: StructuralModel,
    working_scenarios: list[FailureScenario],
    records: list[GroundMotion],
    design0: DesignVector,
    config: SlpConfig,
    *,
    counter: EvalCounter | None = None,
    feasibility_margin: float = 0.0,
    label: str = "",
) -> SlpResult:
    """Solve one working-set sub-problem.

    Runs the evaluate / drop / LP / move cycle until the design moves less
    than the convergence tolerance δ after at least ``i_min`` iterations.
    Each LP tightens its planes by ``feasibility_margin``. From the first
    step below δ on, it also adds the last step's linearization error, the
    largest g - ghat at the current design over the previous iteration's
    planes, clipped at zero: the converged proposal is returned without an
    evaluation, and this error is how far the sharp g overshot the planes
    on the way there. Each `IterationRecord` logs its LP's margin.
    When the iteration cap is reached instead, the best iterate seen so far
    is returned (preferring evaluated-feasible designs of least cost) with
    ``converged=False``. p = q follows ``config``'s continuation schedule.
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
    p = config.p_start
    cost_gradient = np.ones(n_d)
    # One plane per (scenario, record) pair each iteration, scenario-major:
    # the simplex's pivot choices depend on the order of its rows.
    labels = [(sc.id, name) for sc in working_scenarios for name in names]
    planes = CuttingPlanes(n_d, labels)
    history: list[IterationRecord] = []
    binding = np.empty(0, dtype=int)
    tight = None
    best_rank, best_x = None, x
    converged = settled = False

    for iteration in range(1, config.i_max + 1):
        params = ConstraintParams(p=p)
        design = DesignVector(x=x, c_bar=design0.c_bar)

        # One batched primal and adjoint sweep per record covers every
        # working scenario, each distinct damping matrix once.
        C_d = assemble_added_damping(model, design, working_scenarios)
        g = np.empty((len(working_scenarios), len(records)))
        grads = np.empty(g.shape + (n_d,))
        for r, gm in enumerate(records):
            hist = newmark_solve(model, C_d, gm)
            value = evaluate_drift_constraint(hist, model, params)
            g[:, r] = value.g
            grads[:, r] = adjoint_gradient(
                model, design, working_scenarios, params, C_d=C_d, history=hist, value=value
            )
            counter.n_primal += len(working_scenarios)
            counter.n_adjoint += len(working_scenarios)
            counter.n_primal_systems += hist.u.shape[1]
            counter.n_adjoint_systems += hist.u.shape[1]

        # Once a step has fallen below delta, the LP's proposal may be the
        # answer, which no sweep checks before the driver does. Tighten it
        # by as much as the last planes underestimated g at this design.
        margin = feasibility_margin
        if settled:
            margin += planes.linearization_error(g.ravel(), x)
        planes.append(grads.reshape(-1, n_d), g.ravel(), x)
        g_max_true = float(g.max())

        # A plane that binds the LP while its constraint is satisfied with
        # margin is cutting into the feasible region; retire it. Row r
        # belongs to pair r % K, whose g was just evaluated.
        dropped = binding[g.ravel()[binding % len(labels)] < -_DROP_MARGIN]
        planes.disable(dropped)
        logger.debug("%sdropped planes %s", label, dropped)

        # Feasible iterates first, then the least cost, then the least
        # violation; the first iterate wins a tie.
        infeasible = g_max_true > 0.0
        rank = (infeasible, g_max_true if infeasible else float(x.sum()))
        if best_rank is None or rank < best_rank:
            best_rank, best_x = rank, x

        lp = solve_lp(cost_gradient, planes, x, config.ml, margin=margin, start=tight)
        binding, tight = np.array(lp.binding, dtype=int), lp.tight
        step = float(np.linalg.norm(lp.x - x))
        x = lp.x
        settled = settled or step < delta

        history.append(
            IterationRecord(
                cost=float(x.sum()),
                g_max_true=g_max_true,
                step_norm=step,
                n_active_planes=int(np.count_nonzero(planes.enabled)),
                p=p,
                lp_status=lp.status,
                margin=margin,
                lp_pivots=lp.pivots,
            )
        )
        if iteration >= config.i_min and step < delta:
            converged = True
            break
        p = config.advance(p)

    if not converged:
        logger.warning(
            "%sSLP hit the iteration cap (%d) with step %.3g >= delta %.3g; "
            "returning the best iterate seen",
            label,
            config.i_max,
            history[-1].step_norm,
            delta,
        )
        x = best_x

    return SlpResult(
        x=x,
        converged=converged,
        n_iterations=iteration,
        history=history,
        planes=planes,
        p_final=p,
    )
