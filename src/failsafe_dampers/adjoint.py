"""Exact gradients of the aggregated drift constraint.

The gradient with respect to the damper sizes is computed by the
discretize-then-differentiate adjoint method: the time-stepping recurrence
is treated as a set of algebraic residuals, and the terms multiplying the
implicit state derivatives are collected into a linear system for the
adjoint trajectories. One factorization of its constant 3n x 3n block
matrix turns each backward step into a fixed linear map, swept backward in
time with the kernel of the Newmark sweep. Every function here also takes
a batch: a list of B scenarios, a (B, n, n) stack of damping matrices and
the batched history of one record, so that all scenarios of a record share
one backward time loop. The result matches a
finite-difference derivative of the discrete response to solver precision,
which is what keeps the optimizer's linearizations consistent.
"""

from __future__ import annotations

import numpy as np

from .constraints import (
    ConstraintParams,
    aggregation_sensitivities,
    evaluate_drift_constraint,
    normalized_drifts,
    smooth_drift_indices,
    time_weights,
)
from .dynamics import GroundMotion, ResponseHistory, newmark_solve, transition_sweep
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
) -> np.ndarray:
    """dg/du_i for every time sample, shape (N+1, n_dof), or (N+1, B, n_dof)
    for a batched history.

    Chain rule through the time p-norm and the q-aggregation: with
    rho_ji = (H u_i)_j / d_allow_j,

        dg/du_i = H' D(1/d_allow) [ s_j * (w_i/T) * sign(rho_ji)
                                     * (|rho_ji| / d_tilde_j)^(p-1) ]_j

    where s_j is the aggregation sensitivity. The (|rho|/d_tilde)^(p-1)
    ratios stay bounded by T/w_min regardless of p, so the evaluation is
    safe at the largest continuation exponents. A drift that never moves
    has d_tilde_j = 0 and rho_ji = 0, so it contributes nothing.
    """
    rho = normalized_drifts(history, model)
    d_tilde = smooth_drift_indices(history, model, params)
    sens = aggregation_sensitivities(d_tilde, params.q)
    w = time_weights(rho.shape[0], history.dt, params.weights)
    duration = history.n_steps * history.dt

    ratio = np.abs(rho) / np.where(d_tilde > 0, d_tilde, 1.0)
    core = np.sign(rho) * ratio ** (params.p - 1)
    core *= (w / duration).reshape((-1,) + (1,) * (rho.ndim - 1))
    core *= sens / model.d_allow
    return core @ model.drift_transform


def solve_adjoint(
    model: StructuralModel,
    C_d: np.ndarray,
    history: ResponseHistory,
    forcing: np.ndarray,
) -> np.ndarray:
    """Backward sweep of the adjoint system driven by dg/du terms.

    ``forcing`` holds f_i = dg/du_i per sample. Step i solves
    A xi_i = R xi_{i+1} - e f_i for xi = (lambda_u, lambda_v, lambda_a)
    with xi_{N+1} = 0: A is a constant 3n x 3n block matrix, R couples to
    lambda_v and lambda_a one step later, and e places f_i in the last
    block. One LU factorization of A gives the transition matrices
    Pa = A^-1 R and Qa = -A^-1 e, and `transition_sweep` runs
    xi_i = Pa xi_{i+1} + Qa f_i backward, one small matvec per step.
    Returns lambda_u, shape (N+1, n) with row 0 unused and zero. Zero
    forcing yields identically zero adjoints. With a (B, n, n) stack
    ``C_d``, a batched history and forcing (N+1, B, n), the B systems are
    factorized in one stacked solve and swept in one loop, and lambda_u
    is (N+1, B, n).
    """
    n = model.n_dof
    if forcing.shape != history.u.shape:
        raise ValueError(f"forcing shape {forcing.shape} does not match history")
    dt, beta, gamma = history.dt, history.beta, history.gamma
    c1 = gamma / (beta * dt)
    c2 = 1.0 / (beta * dt * dt)
    k_av = dt * (1.0 - gamma / (2.0 * beta))
    k_aa = 1.0 / (2.0 * beta) - 1.0
    k_vv = 1.0 - gamma / beta
    k_va = 1.0 / (beta * dt)

    eye, zero = np.eye(n), np.zeros((n, n))
    C = model.inherent_damping + C_d
    A = np.block(
        [
            [model.mass.T, zero, eye],
            [zero, eye, zero],
            [model.stiffness.T, -c1 * eye, -c2 * eye],
        ]
    )
    A = np.broadcast_to(A, C.shape[:-2] + A.shape).copy()
    A[..., n : 2 * n, :n] = C.mT

    rhs = np.zeros((3 * n, 4 * n))  # [R | -e]
    rhs[:, n : 3 * n] = np.kron([[k_av, -k_aa], [k_vv, -k_va], [-c1, -c2]], eye)
    rhs[2 * n :, 3 * n :] = -eye
    # A mixes entries of order 1 and 1/(beta dt^2), and the sweep applies Pa
    # once per step: one step of iterative refinement keeps the rounding
    # error of Pa from adding up over the record.
    try:
        PQ = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("adjoint system matrix is singular") from None
    PQ += np.linalg.solve(A, rhs - A @ PQ)
    Pa, Qa = np.ascontiguousarray(PQ[..., : 3 * n]), PQ[..., 3 * n :]

    X = np.zeros(forcing.shape[:-1] + (3 * n,))
    # X[i] = Qa f_i for each system of the batch, time axis moved aside.
    X[1:] = np.moveaxis(np.moveaxis(forcing[1:], 0, -2) @ Qa.mT, -2, 0)
    transition_sweep(Pa, X[:0:-1])
    return X[..., :n]


def accumulate_gradient(
    model: StructuralModel,
    design: DesignVector,
    scenario: Scenarios,
    velocities: np.ndarray,
    lambda_u: np.ndarray,
) -> np.ndarray:
    """Contract velocities and adjoint displacements with dC_d/dx.

    dC_d/dx_k = c_bar * s_k * T_k' T_k with s_k the scenario's capacity
    multiplier, so each component is c_bar * s_k * sum_i (T_k v_i)(T_k l_i).
    Completely failed dampers therefore get an exactly zero component, and
    a partial factor scales the component linearly. A list of B scenarios
    with batched (N+1, B, n) trajectories gives shape (B, n_dampers).
    """
    rows = model.damper_rows
    per_row = np.sum((velocities[1:] @ rows.T) * (lambda_u[1:] @ rows.T), axis=0)
    scales = damper_scales(model, scenario)
    return design.c_bar * scales * (per_row @ model.row_owner)


def adjoint_gradient(
    model: StructuralModel,
    design: DesignVector,
    scenario: Scenarios,
    gm: GroundMotion,
    params: ConstraintParams,
    *,
    history: ResponseHistory | None = None,
    beta: float = 0.25,
    gamma: float = 0.5,
) -> np.ndarray:
    """Gradient of the scenario's aggregated drift constraint.

    Reuses ``history`` when the primal solve for this (design, scenario,
    record) is already available; otherwise runs it. Initial conditions
    must be zero: with a nonzero initial velocity the starting acceleration
    would depend on the design, which this formulation does not track.
    A list of B scenarios (with, if given, their batched history) gives
    every gradient from one batched sweep, shape (B, n_dampers).
    """
    C_d = assemble_added_damping(model, design, scenario)
    if history is None:
        history = newmark_solve(model, C_d, gm, beta=beta, gamma=gamma)
    if np.any(history.u0) or np.any(history.v0):
        raise ValueError("adjoint gradients require zero initial conditions")
    forcing = dg_du_trajectory(history, model, params)
    lambda_u = solve_adjoint(model, C_d, history, forcing)
    return accumulate_gradient(model, design, scenario, history.v, lambda_u)


def fd_gradient(
    model: StructuralModel,
    design: DesignVector,
    scenario: Scenarios,
    gm: GroundMotion,
    params: ConstraintParams,
    *,
    h: float = 1e-6,
    beta: float = 0.25,
    gamma: float = 0.5,
) -> np.ndarray:
    """Central finite differences of g through the full primal pipeline;
    shape (B, n_dampers) for a list of B scenarios."""

    def g_of(x):
        d = DesignVector(x=x, c_bar=design.c_bar)
        C_d = assemble_added_damping(model, d, scenario)
        hist = newmark_solve(model, C_d, gm, beta=beta, gamma=gamma)
        return evaluate_drift_constraint(hist, model, params).g

    columns = []
    for k in range(design.n_dampers):
        xp = design.x.copy()
        xm = design.x.copy()
        xp[k] += h
        xm[k] -= h
        columns.append((g_of(xp) - g_of(xm)) / (2.0 * h))
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
