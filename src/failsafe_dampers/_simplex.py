"""Dense two-phase tableau simplex for small inequality-form LPs.

Solves  minimize c @ x  subject to  A @ x <= b,  x >= 0.

Problem sizes here are tens of variables and at most a few hundred rows,
so a dense tableau with full reduced-cost refresh each pivot is both fast
enough and numerically self-correcting. Entering columns follow Dantzig
pricing until the objective stalls on degenerate pivots, then switch to
Bland's rule, which guarantees termination. The final vertex is re-solved
from the original constraint data to strip accumulated elimination error.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError


class SimplexError(ConvergenceError):
    """Pivot budget exhausted or the LP is unbounded."""


_STALL_LIMIT = 25


def _pivot_loop(T, basis, costs, allowed, tol, max_pivots):
    """Run pivots until optimal. Returns the objective value."""
    m = T.shape[0]
    bland = False
    stall = 0
    prev_obj = np.inf
    for _ in range(max_pivots):
        r = costs - costs[basis] @ T[:, :-1]
        candidates = np.where(allowed & (r < -tol))[0]
        if candidates.size == 0:
            return float(costs[basis] @ T[:, -1])
        j = candidates[0] if bland else candidates[np.argmin(r[candidates])]

        col = T[:, j]
        positive = col > tol
        if not np.any(positive):
            raise SimplexError("LP is unbounded")
        ratios = np.full(m, np.inf)
        ratios[positive] = T[positive, -1] / col[positive]
        best = ratios.min()
        ties = np.where(ratios <= best + tol * (1.0 + abs(best)))[0]
        i = ties[np.argmin(basis[ties])] if ties.size > 1 else int(np.argmin(ratios))

        piv = T[i, j]
        T[i] /= piv
        other = T[:, j].copy()
        other[i] = 0.0
        T -= np.outer(other, T[i])
        basis[i] = j

        obj = float(costs[basis] @ T[:, -1])
        if obj >= prev_obj - tol:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        prev_obj = obj
    raise SimplexError("pivot budget exhausted")


def solve_inequality_lp(c, A, b, *, tol=1e-10, max_pivots=None):
    """Minimize c @ x with A @ x <= b and x >= 0.

    Returns ``(x, "optimal")`` or ``(None, "infeasible")``. Raises
    SimplexError for unbounded problems (callers here always bound the
    variables with explicit rows) or an exhausted pivot budget.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    A = np.asarray(A, dtype=float).reshape(-1, n) if np.size(A) else np.zeros((0, n))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m = A.shape[0]
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")

    if m == 0:
        if np.any(c < -tol):
            raise SimplexError("LP is unbounded")
        return np.zeros(n), "optimal"

    if max_pivots is None:
        max_pivots = 1000 + 50 * (m + n)

    # Flip rows with negative rhs; flipped slacks get -1, so those rows
    # start from an artificial basis column instead.
    flip = b < 0
    A_w = np.where(flip[:, None], -A, A)
    b_w = np.where(flip, -b, b)
    n_art = int(flip.sum())

    slack = np.zeros((m, m))
    slack[np.arange(m), np.arange(m)] = np.where(flip, -1.0, 1.0)
    art = np.zeros((m, n_art))
    basis = np.empty(m, dtype=int)
    art_col = n + m
    for i in range(m):
        if flip[i]:
            art[i, art_col - (n + m)] = 1.0
            basis[i] = art_col
            art_col += 1
        else:
            basis[i] = n + i

    W = np.hstack([A_w, slack, art])
    ncols = W.shape[1]
    T = np.hstack([W, b_w[:, None]])

    allowed = np.ones(ncols, dtype=bool)
    if n_art:
        costs1 = np.zeros(ncols)
        costs1[n + m :] = 1.0
        phase1 = _pivot_loop(T, basis, costs1, allowed, tol, max_pivots)
        if phase1 > 1e-8 * max(1.0, np.abs(b_w).max()):
            return None, "infeasible"
        # Pivot lingering artificials (basic at zero) out, or drop the row
        # as redundant if nothing in it can pivot.
        keep = np.ones(T.shape[0], dtype=bool)
        for i in range(T.shape[0]):
            if basis[i] >= n + m:
                pivot_cols = np.where(np.abs(T[i, : n + m]) > 1e2 * tol)[0]
                if pivot_cols.size:
                    j = int(pivot_cols[0])
                    T[i] /= T[i, j]
                    other = T[:, j].copy()
                    other[i] = 0.0
                    T -= np.outer(other, T[i])
                    basis[i] = j
                else:
                    keep[i] = False
        if not np.all(keep):
            T = T[keep]
            W = W[keep]
            b_w = b_w[keep]
            basis = basis[keep]
        allowed[n + m :] = False

    costs2 = np.zeros(ncols)
    costs2[:n] = c
    _pivot_loop(T, basis, costs2, allowed, tol, max_pivots)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = T[structural, -1]

    x_polished = _polish(W, b_w, basis, n)
    if x_polished is not None:
        feas_tol = 1e-8 * (1.0 + np.abs(b).max())
        if (
            np.all(x_polished >= -feas_tol)
            and np.all(A @ x_polished <= b + feas_tol)
            and c @ x_polished <= c @ x + feas_tol * (1.0 + np.abs(c).sum())
        ):
            x = x_polished
    return np.maximum(x, 0.0), "optimal"


def _polish(W, b_w, basis, n):
    """Re-solve the final basis from original data for a clean vertex."""
    B = W[:, basis]
    try:
        sol = np.linalg.solve(B, b_w)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    x = np.zeros(n)
    for row, col in enumerate(basis):
        if col < n:
            x[col] = sol[row]
    return x
