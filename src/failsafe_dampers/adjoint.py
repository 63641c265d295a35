"""Exact gradients of the aggregated drift constraint.

The gradient with respect to the damper sizes is computed by the
discretize-then-differentiate adjoint method: the time-stepping recurrence
is treated as a set of algebraic residuals, and the terms multiplying the
implicit state derivatives are collected into a linear system for the
adjoint trajectories. One factorization of its constant 3n x 3n block
matrix turns each backward step into a fixed linear map, swept backward in
time with the kernel of the Newmark sweep. The result matches a
finite-difference derivative of the discrete response to solver precision,
which is what keeps the optimizer's linearizations consistent.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as la

from .constraints import (
    ConstraintParams,
    aggregation_sensitivities,
    evaluate_drift_constraint,
    normalized_drifts,
    smooth_drift_indices,
    time_weights,
)
from .dynamics import GroundMotion, ResponseHistory, newmark_solve, transition_sweep
from .model import DesignVector, StructuralModel, assemble_added_damping
from .scenarios import FailureScenario


def dg_du_trajectory(
    history: ResponseHistory,
    model: StructuralModel,
    params: ConstraintParams,
) -> np.ndarray:
    """dg/du_i for every time sample, shape (N+1, n_dof).

    Chain rule through the time p-norm and the q-aggregation: with
    rho_ji = (H u_i)_j / d_allow_j,

        dg/du_i = H' D(1/d_allow) [ s_j * (w_i/T) * sign(rho_ji)
                                     * (|rho_ji| / d_tilde_j)^(p-1) ]_j

    where s_j is the aggregation sensitivity. The (|rho|/d_tilde)^(p-1)
    ratios stay bounded by T/w_min regardless of p, so the evaluation is
    safe at the largest continuation exponents.
    """
    rho = normalized_drifts(history, model)
    d_tilde = smooth_drift_indices(history, model, params)
    sens = aggregation_sensitivities(d_tilde, params.q)
    w = time_weights(rho.shape[0], history.dt, params.weights)
    duration = history.n_steps * history.dt

    out = np.zeros((rho.shape[0], model.n_dof))
    active = d_tilde > 0
    if not np.any(active):
        return out
    ratio = np.abs(rho[:, active]) / d_tilde[active]
    core = np.sign(rho[:, active]) * ratio ** (params.p - 1)
    core *= (w / duration)[:, None]
    core *= sens[active] / model.d_allow[active]
    out = core @ model.drift_transform[active, :]
    return out


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
    forcing yields identically zero adjoints.
    """
    n = model.n_dof
    n_samples = history.u.shape[0]
    if forcing.shape != (n_samples, n):
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
            [C.T, eye, zero],
            [model.stiffness.T, -c1 * eye, -c2 * eye],
        ]
    )
    try:
        factor = la.lu_factor(A)
    except la.LinAlgError:
        raise la.LinAlgError("adjoint system matrix is singular") from None

    rhs = np.zeros((3 * n, 4 * n))  # [R | -e]
    rhs[:, n : 3 * n] = np.kron([[k_av, -k_aa], [k_vv, -k_va], [-c1, -c2]], eye)
    rhs[2 * n :, 3 * n :] = -eye
    # A mixes entries of order 1 and 1/(beta dt^2), and the sweep applies Pa
    # once per step: one step of iterative refinement keeps the rounding
    # error of Pa from adding up over the record.
    PQ = la.lu_solve(factor, rhs)
    PQ += la.lu_solve(factor, rhs - A @ PQ)
    Pa, Qa = np.split(PQ, [3 * n], axis=1)

    X = np.zeros((n_samples, 3 * n))
    X[1:] = forcing[1:] @ Qa.T
    transition_sweep(Pa, X[:0:-1])
    return X[:, :n]


def accumulate_gradient(
    model: StructuralModel,
    design: DesignVector,
    scenario: FailureScenario | None,
    velocities: np.ndarray,
    lambda_u: np.ndarray,
) -> np.ndarray:
    """Contract velocities and adjoint displacements with dC_d/dx.

    dC_d/dx_k = c_bar * s_k * T_k' T_k with s_k the scenario's capacity
    multiplier, so each component is c_bar * s_k * sum_i (T_k v_i)(T_k l_i).
    Completely failed dampers therefore get an exactly zero component, and
    a partial factor scales the component linearly.
    """
    scales = (
        np.ones(model.n_dampers)
        if scenario is None
        else scenario.scale_vector(model.n_dampers)
    )
    grad = np.zeros(model.n_dampers)
    for k, T in enumerate(model.damper_transforms):
        if scales[k] == 0.0:
            continue
        ev = velocities[1:] @ T.T
        el = lambda_u[1:] @ T.T
        grad[k] = design.c_bar * scales[k] * float(np.sum(ev * el))
    return grad


def adjoint_gradient(
    model: StructuralModel,
    design: DesignVector,
    scenario: FailureScenario | None,
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
    scenario: FailureScenario | None,
    gm: GroundMotion,
    params: ConstraintParams,
    *,
    h: float = 1e-6,
    beta: float = 0.25,
    gamma: float = 0.5,
) -> np.ndarray:
    """Central finite differences of g through the full primal pipeline."""

    def g_of(x):
        d = DesignVector(x=x, c_bar=design.c_bar)
        C_d = assemble_added_damping(model, d, scenario)
        hist = newmark_solve(model, C_d, gm, beta=beta, gamma=gamma)
        return evaluate_drift_constraint(hist, model, params).g

    grad = np.zeros(design.n_dampers)
    for k in range(design.n_dampers):
        xp = design.x.copy()
        xm = design.x.copy()
        xp[k] += h
        xm[k] -= h
        grad[k] = (g_of(xp) - g_of(xm)) / (2.0 * h)
    return grad


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
    rows = []
    for sc in scenarios:
        adj = adjoint_gradient(model, design, sc, gm, params)
        fd = fd_gradient(model, design, sc, gm, params, h=h)
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
