"""Differentiable drift-constraint machinery.

The hard constraint is that no normalized inter-story drift may exceed 1 at
any time. Two smooth surrogates make it usable in gradient-based
optimization: a time p-norm replaces the max over time for each drift, and
a q-power ratio aggregates the per-drift indices into a single scalar
``g`` with ``g <= 0`` meaning feasible. Both approach the exact peak as the
exponents grow, which a continuation scheme exploits.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .dynamics import ResponseHistory
from .model import StructuralModel

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConstraintParams:
    """Smoothing exponents and the quadrature rule for the time norm."""

    p: int = 100
    q: int = 100
    weights: str = "trapezoid"

    def __post_init__(self):
        if int(self.p) != self.p or self.p < 2 or self.p % 2:
            raise ValueError(f"p must be an even integer >= 2, got {self.p}")
        if int(self.q) != self.q or self.q < 1:
            raise ValueError(f"q must be an integer >= 1, got {self.q}")
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "q", int(self.q))
        if self.weights != "trapezoid":
            raise ValueError(f"unknown quadrature rule '{self.weights}'")


@dataclass(frozen=True)
class ConstraintValue:
    """Aggregated constraint with its smooth and exact ingredients.

    For a batched history ``g`` and ``d_max_exact`` are arrays (B,) and
    ``d_tilde`` is (B, n_drifts), one entry per response of the batch.
    """

    g: float
    d_tilde: np.ndarray
    d_max_exact: float


def time_weights(n_samples: int, dt: float, rule: str = "trapezoid") -> np.ndarray:
    """Quadrature weights over the sampled time grid (endpoints halved)."""
    if rule != "trapezoid":
        raise ValueError(f"unknown quadrature rule '{rule}'")
    if n_samples < 2:
        raise ValueError("need at least two time samples")
    w = np.full(n_samples, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def normalized_drifts(history: ResponseHistory, model: StructuralModel) -> np.ndarray:
    """Signed drift ratios d_j(t_i) / d_allow_j, shape (N+1, n_drifts), or
    (N+1, B, n_drifts) for a batched history."""
    if history.n_dof != model.n_dof:
        raise ValueError(
            f"history has {history.n_dof} DOFs, model has {model.n_dof}"
        )
    return (history.u @ model.drift_transform.T) / model.d_allow


def smooth_drift_indices(
    history: ResponseHistory,
    model: StructuralModel,
    params: ConstraintParams,
) -> np.ndarray:
    """Time p-norm of each normalized drift ratio.

    For drift j this is ( (1/T) sum_i w_i |rho_ji|^p )^(1/p) with trapezoid
    weights summing to the duration T, so a constant ratio r returns r for
    any p and the value climbs toward the true time max as p grows.

    Evaluation factors out the peak of each ratio before raising to the
    p-th power; with exponents up to 1e6 the naive form would overflow
    immediately, while the factored ratios are at most 1 and can only
    underflow harmlessly. A drift that never moves gets index 0. A batched
    history gives shape (B, n_drifts).
    """
    rho = np.abs(normalized_drifts(history, model))
    w = time_weights(rho.shape[0], history.dt, params.weights)
    duration = history.n_steps * history.dt

    peak = rho.max(axis=0)
    scale = np.where(peak > 0, peak, 1.0)
    s = np.tensordot(w / duration, (rho / scale) ** params.p, axes=1)
    return scale * s ** (1.0 / params.p)


def aggregate(d_tilde: np.ndarray, q: int) -> float | np.ndarray:
    """Collapse per-drift indices into one constraint value.

    Returns sum(d^(q+1)) / sum(d^q) - 1, a smooth lower proxy for
    max(d) - 1 that sharpens as q grows. Powers are taken on ratios to the
    largest entry for overflow safety. An all-zero input returns the limit
    value -1. A (B, n_drifts) input gives one value per row, shape (B,).
    """
    d = np.atleast_1d(np.asarray(d_tilde, dtype=float))
    if np.any(d < 0):
        raise ValueError("smooth drift indices must be nonnegative")
    peak = d.max(axis=-1)
    moving = peak > 0
    if not np.all(moving):
        logger.debug("aggregate() over an all-zero history; returning -1")
    # An all-zero row has tau = 0 and num = 0, so the value comes out -1.
    scale = np.where(moving, peak, 1.0)
    tau = d / scale[..., None]
    num = np.sum(tau ** (q + 1), axis=-1)
    den = np.where(moving, np.sum(tau ** q, axis=-1), 1.0)
    g = scale * num / den - 1.0
    return g.item() if g.ndim == 0 else g


def exact_peak(
    history: ResponseHistory, model: StructuralModel
) -> float | np.ndarray:
    """True max over time and drifts of |d| / d_allow (non-smooth); one
    value per response, shape (B,), for a batched history."""
    rho = normalized_drifts(history, model)
    peak = np.abs(rho).max(axis=(0, -1))
    return peak.item() if peak.ndim == 0 else peak


def evaluate_drift_constraint(
    history: ResponseHistory,
    model: StructuralModel,
    params: ConstraintParams,
) -> ConstraintValue:
    """Aggregated constraint plus its smooth indices and the exact peak."""
    d_tilde = smooth_drift_indices(history, model, params)
    return ConstraintValue(
        g=aggregate(d_tilde, params.q),
        d_tilde=d_tilde,
        d_max_exact=exact_peak(history, model),
    )


def aggregation_sensitivities(d_tilde: np.ndarray, q: int) -> np.ndarray:
    """Derivative of ``aggregate`` with respect to each smooth index.

    Stable for large q: with tau = d / max(d), the derivative reduces to
    ((q+1) tau^q * sum(tau^q) - q tau^(q-1) * sum(tau^(q+1))) / sum(tau^q)^2,
    which involves only ratios at most 1. Zero indices get a zero
    sensitivity for q >= 2 (and the correct -sum(tau^2) limit for q = 1,
    where tau^0 = 1). An all-zero row gets zero sensitivities. Rows of a
    (B, n_drifts) input are independent.
    """
    d = np.atleast_1d(np.asarray(d_tilde, dtype=float))
    peak = d.max(axis=-1, keepdims=True)
    moving = peak > 0
    # An all-zero row has tau = 0 and num_hat = 0, so it comes out zero.
    tau = d / np.where(moving, peak, 1.0)
    num_hat = np.sum(tau ** (q + 1), axis=-1, keepdims=True)
    den_hat = np.where(moving, np.sum(tau ** q, axis=-1, keepdims=True), 1.0)
    return ((q + 1) * tau ** q * den_hat - q * tau ** (q - 1) * num_hat) / den_hat ** 2
