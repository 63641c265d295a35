"""Exact gradients of the aggregated drift constraint.

The gradient with respect to the damper sizes is computed by the
discretize-then-differentiate adjoint method. One Newmark step is the
linear map s_i = P s_{i-1} + Q load_i of the state s = (u, v, a), so the
costate of the discrete response steps backward with P', swept by the
primal's own kernel from the primal's own transition matrices, and one
contraction with dC_d/dx then gives every gradient. Every function here
also takes a batch: a list of B scenarios, a (B, n, n) stack of damping
matrices and the batched history of one record, so that all scenarios of
a record share one backward time loop. The result matches a
finite-difference derivative of the discrete response to solver precision,
which is what keeps the optimizer's linearizations consistent.
"""

from __future__ import annotations

import math

import numpy as np

from .constraints import (
    ConstraintParams,
    ConstraintValue,
    _sensitivities,
    evaluate_drift_constraint,
    pruned_powers,
    time_weights,
)
from .dynamics import (
    GroundMotion,
    ResponseHistory,
    newmark_solve,
    transition_sweep,
)
from .model import (
    DesignVector,
    Scenarios,
    StructuralModel,
    assemble_added_damping,
    damper_scales,
)


def dg_du_trajectory(
    history: ResponseHistory,
    model: StructuralModel,
    params: ConstraintParams,
    *,
    value: ConstraintValue | None = None,
) -> np.ndarray:
    """dg/du_i for every time sample, shape (N+1, n_dof), or
    (N+1, B_swept, n_dof) for a batched history, the history's own shape.

    Chain rule through the time p-norm and the aggregation, whose q is p:
    with rho_ji = (H u_i)_j / d_allow_j,

        dg/du_i = H' D(1/d_allow) [ s_j * (w_i/T) * sign(rho_ji)
                                     * (|rho_ji| / d_tilde_j)^(p-1) ]_j

    where s_j is the aggregation sensitivity. The (|rho|/d_tilde)^(p-1)
    ratios stay bounded by T/w_min regardless of p, so the evaluation is
    safe at the largest continuation exponents. Only the ratios above
    exp(-746/(p-1)) are raised (see `pruned_powers`); every other term is
    exactly 0, so the rows after the last raised one are built as zeros
    and only the rows up to it go through H', in one product for the whole
    batch; the terms are gathered from the drift columns, time contiguous,
    that the evaluation holds. A drift that never moves has
    d_tilde_j = 0 and rho_ji = 0, so it contributes nothing. ``value`` is
    this history's `evaluate_drift_constraint` result, which supplies rho,
    |rho|, d_tilde and its aggregation terms; without it the evaluation
    runs here.
    """
    if value is None:
        value = evaluate_drift_constraint(history, model, params)
    rho, d_tilde = value.rho, value.d_tilde  # drift columns, time last
    sens = _sensitivities(value.terms, params.p)
    w = time_weights(rho.shape[-1], history.dt)
    duration = history.n_steps * history.dt

    ratio = value.magnitude / np.where(d_tilde > 0, d_tilde, 1.0)[..., None]
    t, col, powers = pruned_powers(ratio, params.p - 1)
    k = int(t.max()) + 1 if t.size else 0  # rows k.. are zero
    core = np.zeros((k, d_tilde.size))  # time first, one product for all
    core[t, col] = (
        np.sign(rho.reshape(d_tilde.size, -1)[col, t])
        * powers
        * (w / duration)[t]
        * (sens / model.d_allow).ravel()[col]
    )
    forcing = np.zeros(history.u.shape)
    rows = forcing[:k].reshape(-1, model.n_dof)
    np.matmul(core.reshape(-1, model.n_drifts), model.drift_transform, out=rows)
    return forcing


def solve_adjoint(
    model: StructuralModel,
    C_d: np.ndarray,
    history: ResponseHistory,
    forcing: np.ndarray,
) -> np.ndarray:
    """Backward sweep of the costate of the Newmark recurrence.

    ``forcing`` holds f_i = dg/du_i per sample. The primal steps
    s_i = P s_{i-1} + Q load_i in s = (u, v, a), so the costate
    mu_i = dg/ds_i obeys mu_i = P' mu_{i+1} + E f_i, with E = [I 0 0]' and
    mu = 0 after the last row k with a nonzero f_k. x_j enters a step
    through the equilibrium row only, ds_i/dx_j = -Q C_j' v_i at a fixed
    s_{i-1}, so dg/dx_j = sum_i lambda_i' C_j' v_i with lambda_i = -Q' mu_i.
    Q and the powers of P are those the history was integrated with (see
    `newmark_solve`), and ``C_d``, the damping it was integrated under,
    must match its batch. `transition_sweep` runs P' backward over rows
    k..1 with the transposes (P^j)' = (P')^j of the first floor(sqrt(k))
    entries of the primal's table: in the primal's blocks wherever the
    forcing runs at least as many rows as the block squared, in shorter ones
    otherwise. ||(P')^j|| = ||P^j||, so the blocks are as safe as the primal's.
    Returns lambda over rows 0..k, shape (k+1, n), row 0 zero; every later
    row would be zero. Zero forcing sweeps nothing and gives one row.
    A (B, n, n) stack ``C_d`` with a batched history and forcing
    (N+1, B_swept, n) sweeps the history's systems in one loop; lambda is
    (k+1, B_swept, n).
    """
    n = model.n_dof
    if forcing.shape != history.u.shape:
        raise ValueError(f"forcing shape {forcing.shape} does not match history")
    stack = forcing.shape[1:-1] if history.index is None else history.index.shape
    if np.shape(C_d)[:-2] != stack:
        raise ValueError(f"damping shape {np.shape(C_d)} does not match the history")
    if history.powers is None:
        raise ValueError("the history carries no transition matrices to sweep")
    nonzero = forcing.reshape(-1)[::-1] != 0  # the last nonzero entry is in row k
    last = nonzero.size - 1 - int(nonzero.argmax()) if nonzero.any() else 0
    k = last // max(1, math.prod(forcing.shape[1:]))
    mu = np.zeros((k + 1,) + forcing.shape[1:-1] + (3 * n,))
    mu[..., :n] = forcing[: k + 1]
    powers = history.powers[: max(1, math.isqrt(k))]
    transition_sweep(np.ascontiguousarray(powers.mT), mu[:0:-1])
    lam = np.zeros(mu.shape[:-1] + (n,))
    # lambda_i = -Q' mu_i for each system of the batch, time axis moved aside.
    lam[1:] = -(mu[1:].swapaxes(0, -2) @ history.Q).swapaxes(0, -2)
    return lam


def accumulate_gradient(
    model: StructuralModel,
    design: DesignVector,
    scenario: Scenarios,
    velocities: np.ndarray,
    lambda_u: np.ndarray,
    index: np.ndarray | None = None,
) -> np.ndarray:
    """Contract velocities and adjoint displacements with dC_d/dx.

    dC_d/dx_k = c_bar * s_k * T_k' T_k with s_k the scenario's capacity
    multiplier, so each component is c_bar * s_k * sum_i (T_k v_i)(T_k l_i).
    Completely failed dampers therefore get an exactly zero component, and
    a partial factor scales the component linearly. The sum runs over rows
    1..k of ``lambda_u``, which may stop at the last row k that
    `solve_adjoint` returns: the velocities' later rows would meet zeros.
    A list of B scenarios with batched (N+1, B, n) velocities and (k+1, B, n)
    adjoint displacements gives shape (B, n_dampers). With ``index`` (B,),
    the responses are those of the systems a history swept for the
    scenarios' stack (see `ResponseHistory.index`): each scenario takes its
    system's per-row sums and scales them by its own multipliers.
    """
    rows = model.damper_rows
    per_row = np.sum(
        (velocities[1 : len(lambda_u)] @ rows.T) * (lambda_u[1:] @ rows.T), axis=0
    )
    if index is not None:
        per_row = per_row[index]
    scales = damper_scales(model, scenario)
    return design.c_bar * scales * (per_row @ model.row_owner)


def adjoint_gradient(
    model: StructuralModel,
    design: DesignVector,
    scenario: Scenarios,
    gm: GroundMotion,
    params: ConstraintParams,
    *,
    C_d: np.ndarray | None = None,
    history: ResponseHistory | None = None,
    value: ConstraintValue | None = None,
) -> np.ndarray:
    """Gradient of the scenario's aggregated drift constraint.

    Reuses ``C_d``, the added damping of this (design, scenario), and
    ``history`` when the primal solve for this (design, scenario, record)
    is already available; otherwise computes them. Likewise ``value``,
    the `evaluate_drift_constraint` result of that history, spares the
    drift pass of `dg_du_trajectory`. The history starts at rest, as
    `newmark_solve` integrates it, so the starting state does not depend
    on the design. A list of B scenarios (with, if given, their batched
    history) gives every gradient from one batched sweep of the history's
    systems, shape (B, n_dampers): scenario b reads system
    ``history.index[b]`` (see `newmark_solve`).
    """
    if value is not None and history is None:
        raise ValueError("a constraint value needs the history it came from")
    if C_d is None:
        C_d = assemble_added_damping(model, design, scenario)
    if history is None:
        history = newmark_solve(model, C_d, gm)
    forcing = dg_du_trajectory(history, model, params, value=value)
    lambda_u = solve_adjoint(model, C_d, history, forcing)
    return accumulate_gradient(model, design, scenario, history.v, lambda_u, history.index)


def fd_gradient(
    model: StructuralModel,
    design: DesignVector,
    scenario: Scenarios,
    gm: GroundMotion,
    params: ConstraintParams,
    *,
    h: float = 1e-6,
) -> np.ndarray:
    """Finite differences of g through the full primal pipeline; shape
    (B, n_dampers) for a list of B scenarios. The points x_j +- h are clipped
    to [0, 1], and the difference is divided by their actual distance:
    central inside the box, one-sided at a bound."""

    def g_of(x):
        d = DesignVector(x=x, c_bar=design.c_bar)
        C_d = assemble_added_damping(model, d, scenario)
        hist = newmark_solve(model, C_d, gm)
        return evaluate_drift_constraint(hist, model, params).g

    columns = []
    for k in range(design.n_dampers):
        xp = design.x.copy()
        xm = design.x.copy()
        xp[k] = min(xp[k] + h, 1.0)
        xm[k] = max(xm[k] - h, 0.0)
        columns.append((g_of(xp) - g_of(xm)) / (xp[k] - xm[k]))
    return np.stack(columns, axis=-1)


def gradient_check(
    model: StructuralModel,
    design: DesignVector,
    scenarios,
    gm: GroundMotion,
    params: ConstraintParams,
    *,
    h: float = 1e-6,
) -> list[dict]:
    """Compare adjoint and finite-difference gradients scenario by scenario.

    Returns one row per scenario with the adjoint gradient, the
    finite-difference gradient, and the error max|adj - fd| / max(1, |fd|).
    """
    scenarios = list(scenarios)
    adjoint = adjoint_gradient(model, design, scenarios, gm, params)
    finite_diff = fd_gradient(model, design, scenarios, gm, params, h=h)
    rows = []
    for sc, adj, fd in zip(scenarios, adjoint, finite_diff):
        denom = max(1.0, float(np.abs(fd).max()))
        err = float(np.abs(adj - fd).max() / denom)
        rows.append(
            {
                "scenario_id": sc.id,
                "scenario": sc.label(),
                "max_rel_error": err,
                "adjoint": adj,
                "finite_difference": fd,
            }
        )
    return rows
