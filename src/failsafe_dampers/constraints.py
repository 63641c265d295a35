"""Differentiable drift-constraint machinery.

The hard constraint is that no normalized inter-story drift may exceed 1 at
any time. Two smooth surrogates make it usable in gradient-based
optimization: a time p-norm replaces the max over time for each drift, and
a q-power ratio aggregates the per-drift indices into a single scalar
``g`` with ``g <= 0`` meaning feasible. Both approach the exact peak as the
exponents grow, which a continuation scheme exploits. This module gives g
and its derivative dg/du along the response; `adjoint` sweeps dg/du
backward and contracts it into the gradient in the damper sizes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ResponseHistory
from .model import StructuralModel

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConstraintParams:
    """The smoothing exponent p of the time norm, which the aggregation
    takes as its q too."""

    p: int = 100

    def __post_init__(self):
        if int(self.p) != self.p or self.p < 2 or self.p % 2:
            raise ValueError(f"p must be an even integer >= 2, got {self.p}")
        object.__setattr__(self, "p", int(self.p))


@dataclass(frozen=True)
class ConstraintValue:
    """Aggregated constraint with its smooth and exact ingredients.

    ``rho`` holds the signed normalized drifts the indices came from,
    ``magnitude`` |rho| and ``terms`` the aggregation terms of ``d_tilde``
    (see `aggregate`), so that the gradient reuses this pass. For a
    batched history ``g`` and ``d_max_exact`` are arrays (B,), one per
    matrix of the stack, and the rest are per swept system (see
    `ResponseHistory.index`): ``d_tilde`` is (B_swept, n_drifts) and ``rho``
    and ``magnitude`` are the drift columns (B_swept, n_drifts, N+1), time
    last (see `normalized_drifts`).
    """

    g: float | np.ndarray
    d_tilde: np.ndarray
    d_max_exact: float | np.ndarray
    rho: np.ndarray = field(repr=False)
    magnitude: np.ndarray = field(repr=False)
    terms: tuple[np.ndarray, ...] = field(repr=False)


def time_weights(n_samples: int, dt: float) -> np.ndarray:
    """Trapezoid-rule weights over the sampled time grid (endpoints halved)."""
    if n_samples < 2:
        raise ValueError("need at least two time samples")
    w = np.full(n_samples, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def normalized_drifts(history: ResponseHistory, model: StructuralModel) -> np.ndarray:
    """Signed drift ratios d_j(t_i) / d_allow_j as drift columns, time
    last: shape (n_drifts, N+1), or (B_swept, n_drifts, N+1) for a batched
    history, each response's from one product H u'."""
    if history.n_dof != model.n_dof:
        raise ValueError(
            f"history has {history.n_dof} DOFs, model has {model.n_dof}"
        )
    u = history.u  # time first: (N+1, ..., n_dof)
    columns = model.drift_transform @ u.transpose(*range(1, u.ndim), 0)
    columns /= model.d_allow[:, None]
    return columns


def pruned_powers(
    ratio: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero p-th powers of a nonnegative (..., N+1) ratio array.

    Returns time indices ``t``, flattened leading indices ``col`` and
    ``ratio[col, t] ** p`` for the ratios above exp(-746/p) only, column
    by column with t ascending. Any ratio at or below that cutoff has
    ratio^p <= exp(-746) < 2^-1075, which rounds to exactly 0 in float64,
    so the skipped powers are the ones a dense evaluation would also give
    as 0. At the continuation's large exponents nearly every ratio is
    skipped.
    """
    flat = ratio.reshape(-1, ratio.shape[-1])
    col, t = np.divmod(np.flatnonzero(flat > np.exp(-746.0 / p)), flat.shape[1])
    return t, col, flat[col, t] ** p


def _aggregation_terms(d_tilde, q: int) -> tuple[np.ndarray, ...]:
    """Per row of ``d_tilde``, with the drift axis kept: tau = d / max(d), the
    sums of tau^(q+1) and of tau^q, and max(d). An all-zero row has tau = 0
    and the sum of tau^q taken as 1, so no power of a ratio above 1 is taken."""
    d = np.atleast_1d(np.asarray(d_tilde, dtype=float))
    peak = d.max(axis=-1, keepdims=True)
    tau = d / np.where(peak > 0, peak, 1.0)
    den = np.where(peak > 0, (tau ** q).sum(axis=-1, keepdims=True), 1.0)
    return tau, (tau ** (q + 1)).sum(axis=-1, keepdims=True), den, peak


def aggregate(d_tilde: np.ndarray, q: int) -> float | np.ndarray:
    """Collapse per-drift indices into one constraint value.

    Returns sum(d^(q+1)) / sum(d^q) - 1, a smooth lower proxy for
    max(d) - 1 that sharpens as q grows. Powers are taken on ratios to the
    largest entry for overflow safety. An all-zero input returns the limit
    value -1. A (B, n_drifts) input gives one value per row, shape (B,).
    """
    d = np.asarray(d_tilde, dtype=float)
    if (d < 0).any():
        raise ValueError("smooth drift indices must be nonnegative")
    return _aggregate(_aggregation_terms(d, q))


def _aggregate(terms) -> float | np.ndarray:
    """`aggregate` from the `_aggregation_terms` of its input."""
    _, num, den, peak = terms
    if not (peak > 0).all():
        logger.debug("aggregate() over an all-zero history; returning -1")
    # An all-zero row has peak = 0 and num = 0, so the value comes out -1.
    g = (peak * num / den)[..., 0] - 1.0
    return g.item() if g.ndim == 0 else g


def _per_matrix(values, history: ResponseHistory) -> float | np.ndarray:
    """Per-system ``values`` per matrix of the history's stack, or a float."""
    values = np.asarray(values)
    if history.index is not None:
        values = values[history.index]
    return values.item() if values.ndim == 0 else values


def exact_peak(
    history: ResponseHistory, model: StructuralModel
) -> float | np.ndarray:
    """True max over time and drifts of |d| / d_allow (non-smooth); one
    value per matrix of the stack, shape (B,), for a batched history."""
    return _per_matrix(np.abs(normalized_drifts(history, model)).max(axis=(-2, -1)), history)


def evaluate_drift_constraint(
    history: ResponseHistory,
    model: StructuralModel,
    params: ConstraintParams,
) -> ConstraintValue:
    """Aggregated constraint plus its smooth indices, the exact peak and
    the normalized drifts, all from one pass over the history.

    The smooth index ``d_tilde`` of drift j is the time p-norm
    ( (1/T) sum_i w_i |rho_ji|^p )^(1/p) with trapezoid weights summing to
    the duration T, so a constant ratio r returns r for any p and the
    value climbs toward the true time max as p grows.

    Evaluation factors out the peak of each ratio before raising to the
    p-th power; with exponents up to 1e6 the naive form would overflow
    immediately, while the factored ratios are at most 1 and can only
    underflow harmlessly. Only the ratios above exp(-746/p) are raised and
    summed (see `pruned_powers`), each drift's in time order; the others
    would add exactly 0. A drift that never moves gets index 0.
    """
    rho = normalized_drifts(history, model)
    magnitude = np.abs(rho)
    w = time_weights(rho.shape[-1], history.dt)
    duration = history.n_steps * history.dt

    peak = magnitude.max(axis=-1)
    scale = np.where(peak > 0, peak, 1.0)
    t, col, powers = pruned_powers(magnitude / scale[..., None], params.p)
    s = np.bincount(col, weights=(w / duration)[t] * powers, minlength=scale.size)
    d_tilde = scale * s.reshape(scale.shape) ** (1.0 / params.p)
    terms = _aggregation_terms(d_tilde, params.p)
    return ConstraintValue(
        g=_per_matrix(_aggregate(terms), history),
        d_tilde=d_tilde,
        d_max_exact=_per_matrix(peak.max(axis=-1), history),
        rho=rho,
        magnitude=magnitude,
        terms=terms,
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


def aggregation_sensitivities(d_tilde: np.ndarray, q: int) -> np.ndarray:
    """Derivative of ``aggregate`` with respect to each smooth index.

    Stable for large q: with tau = d / max(d), the derivative reduces to
    ((q+1) tau^q * sum(tau^q) - q tau^(q-1) * sum(tau^(q+1))) / sum(tau^q)^2,
    which involves only ratios at most 1. Zero indices get a zero
    sensitivity for q >= 2 (and the correct -sum(tau^2) limit for q = 1,
    where tau^0 = 1). An all-zero row gets zero sensitivities. Rows of a
    (B, n_drifts) input are independent.
    """
    return _sensitivities(_aggregation_terms(d_tilde, q), q)


def _sensitivities(terms, q: int) -> np.ndarray:
    """`aggregation_sensitivities` from the `_aggregation_terms` of its input."""
    tau, num_hat, den_hat, _ = terms
    # An all-zero row has tau = 0 and num_hat = 0, so it comes out zero.
    return ((q + 1) * tau ** q * den_hat - q * tau ** (q - 1) * num_hat) / den_hat ** 2
