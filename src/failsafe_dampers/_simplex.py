"""A revised dual simplex for small inequality-form LPs.

It solves  minimize c @ x  subject to  A @ x <= b,  0 <= x <= upper,  for
a nonnegative cost c, which every LP of the SLP has: the plain LP's cost
is the damper sizes, and the elastic relaxation's two stages cost the
plane violations and then the damper sizes.

A handful of variables meets up to about a thousand rows, one cutting
plane per scenario and record per SLP iteration. The basis is the n
constraints tight at a vertex, so an n x n system is all it factors, and
the lower corner is a dual-feasible start: it needs no phase 1, presolve
or polish. The next SLP iteration keeps the cost and adds or disables
planes and moves the box, so the previous optimal basis stays dual
feasible and re-optimizes in a pivot or two. It returns a point only
once every row and bound holds within its tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError


class SimplexError(ConvergenceError):
    """Pivot budget exhausted, a final basis that is not dual feasible, or
    no elastic relaxation."""


# Pivot, ratio-test and tie tolerance.
_TOL = 1e-10


def solve_inequality_lp(c, A, b, upper=None, start=None):
    """Minimize c @ x with A @ x <= b and 0 <= x <= upper, for c >= 0.

    A revised dual simplex over the constraints G x <= h, labelled j for
    -x_j <= 0, n + j for x_j <= upper_j and 2n + i for row i of A. Its
    basis is n labels whose rows B are tight: the vertex solves B x = h_B,
    and the multipliers lam of B^T lam = -c stay >= 0 (dual feasible).
    Each pivot solves both systems afresh from the original rows. The most
    violated constraint g_i x <= h_i enters, or after a degenerate pivot
    the violated one of lowest label (Bland's rule, which cannot cycle).
    B^T w = g_i gives the direction in which the multipliers move, and the
    dual ratio test picks the label that leaves, the lowest one among
    ties. ``start`` names a basis to begin from, such as the one a
    previous LP with the same cost ended on; the lower corner (every
    -x_j <= 0 tight, lam = c) serves when it is omitted, singular or not
    dual feasible.

    Returns ``(x, "optimal", basis, pivots)`` once every constraint holds
    within 1e-9 (1 + max |h|) and lam >= -1e-9 (1 + max c), or
    ``(None, "infeasible", None, pivots)`` when the ratio test has no
    candidate (the dual is unbounded). Raises ValueError for a negative
    cost, and SimplexError when the final basis is not dual feasible or
    the budget of 1000 + 50 (m + n) pivots runs out, m counting the rows
    of A and the finite bounds.
    """
    c, A, b, upper = _operands(c, A, b, upper)
    if (c < 0).any():
        raise ValueError("the dual simplex needs a nonnegative cost")
    n = c.size
    G = np.concatenate([-np.eye(n), np.eye(n), A])
    h = np.concatenate([np.zeros(n), upper, b])
    tol = 1e-9 * (1.0 + np.abs(h[np.isfinite(h)]).max())
    max_pivots = 1000 + 50 * (b.size + np.isfinite(upper).sum() + n)
    basis = _dual_start(G, c, start)
    bland = False
    for pivots in range(max_pivots + 1):
        B = G[basis]
        x = np.linalg.solve(B, h[basis])
        excess = G @ x - h
        violated = excess > tol
        if not violated.any():
            if np.linalg.solve(B.T, -c).min() < -1e-9 * (1.0 + c.max()):
                raise SimplexError("the final basis is not dual feasible")
            return x, "optimal", basis, pivots
        i = int(violated.argmax() if bland else excess.argmax())
        lam, w = np.linalg.solve(B.T, np.column_stack([-c, G[i]])).T
        rows = (w > _TOL * np.abs(w).max()).nonzero()[0]
        if not rows.size:
            return None, "infeasible", None, pivots
        ratios = np.maximum(lam[rows], 0.0) / w[rows]
        best = ratios.min()
        ties = rows[ratios <= best + _TOL * (1.0 + best)]
        basis[ties[basis[ties].argmin()]] = i
        bland = best <= _TOL
    raise SimplexError("pivot budget exhausted")


def _dual_start(G, c, start):
    """The basis the dual simplex begins from: ``start``, or the lower
    corner where ``start`` is missing, names a label G does not have, or
    is singular or not dual feasible."""
    n = c.size
    basis = np.asarray(start if start is not None else (), dtype=int)
    if basis.shape == (n,) and 0 <= basis.min() and basis.max() < len(G):
        try:
            if np.linalg.solve(G[basis].T, -c).min() >= -_TOL:
                return basis.copy()
        except np.linalg.LinAlgError:
            pass
    return np.arange(n)


def _operands(c, A, b, upper):
    """The LP's arrays as floats, ``upper`` +inf where it is omitted;
    raises ValueError when b or upper does not fit A."""
    c = np.asarray(c, dtype=float)
    n = c.size
    A = np.asarray(A, dtype=float).reshape(-1, n) if np.size(A) else np.zeros((0, n))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m = A.shape[0]
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if upper.shape != (n,):
        raise ValueError(f"upper has shape {upper.shape}, expected ({n},)")
    return c, A, b, upper
