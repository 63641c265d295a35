"""Dense two-phase tableau simplex for small inequality-form LPs.

Solves  minimize c @ x  subject to  A @ x <= b,  x >= 0.

A handful of variables meets up to about a thousand rows, one cutting
plane per scenario and record per SLP iteration. Phase 1 adds a single
artificial column for all rows with negative rhs, so it takes about as
many pivots as there are structural columns, not one per violated row.
Basic columns stay exact unit vectors, so a pivot updates only the
columns where the pivot row is nonzero and prices only the n + 1
nonbasic columns: O(m n) work, not O(m^2). Entering columns follow
Dantzig pricing, lowest index first among near-ties, until the objective
stalls on degenerate pivots, then switch to Bland's rule, which
guarantees termination. The final vertex is re-solved from the original
constraint data to strip accumulated elimination error.

Rows that cannot bind are dropped first. The singleton rows
a_ij y_j <= b_i with a_ij > 0 <= b_i (the move-limit box) bound y above
by u. A longer row whose maximum over 0 <= y <= u stays below
b - 1e-6 (|a| @ u + |b|) is slack at every vertex either phase visits, as
those lie in the box: its slack would stay basic, and the kept rows, in
order, give the full LP's pivots. A positive coefficient on a column with
no upper bound keeps its row. The phase-1 threshold, the pivot budget and
the polish check use the full (A, b).
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError


class SimplexError(ConvergenceError):
    """Pivot budget exhausted, LP unbounded, or no elastic relaxation."""


_STALL_LIMIT = 25
# Reduced-cost, ratio-test and tie tolerance of the pivots.
_TOL = 1e-10


def _pivot(T, basis, i, j):
    """Pivot on T[i, j], updating only the columns where row i is nonzero.

    A column with a zero in row i would come out unchanged (up to the sign
    of zero), and every basic column other than j has one: x / x is exactly
    1 and t - t * 1 exactly 0, so basic columns stay exact unit vectors.
    """
    T[i] /= T[i, j]
    cols = T[i].nonzero()[0]
    other = T[:, j].copy()
    other[i] = 0.0
    T[:, cols] -= other[:, None] * T[i, cols]
    basis[i] = j


def _pivot_loop(T, basis, costs, allowed, max_pivots):
    """Run pivots until optimal. Returns the objective value."""
    m = T.shape[0]
    bland = False
    stall = 0
    prev_obj = np.inf
    for _ in range(max_pivots):
        # A basic column's reduced cost is exactly 0, so it never enters.
        nonbasic = allowed.copy()
        nonbasic[basis] = False
        cols = nonbasic.nonzero()[0]
        r = costs[cols] - costs[basis] @ T[:, cols]
        entering = r < -_TOL
        if not entering.any():
            return float(costs[basis] @ T[:, -1])
        candidates = cols[entering]
        # Dantzig's near-ties go to the lowest index, as row ties do below.
        near_min = r[entering] <= r[entering].min() + _TOL
        j = candidates[0] if bland else candidates[np.argmax(near_min)]

        col = T[:, j]
        positive = col > _TOL
        if not positive.any():
            raise SimplexError("LP is unbounded")
        ratios = np.full(m, np.inf)
        ratios[positive] = T[positive, -1] / col[positive]
        best = ratios.min()
        ties = np.where(ratios <= best + _TOL * (1.0 + abs(best)))[0]
        i = ties[np.argmin(basis[ties])] if ties.size > 1 else int(np.argmin(ratios))
        _pivot(T, basis, i, j)

        obj = float(costs[basis] @ T[:, -1])
        if obj >= prev_obj - _TOL:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        else:
            stall = 0
        prev_obj = obj
    raise SimplexError("pivot budget exhausted")


def solve_inequality_lp(c, A, b):
    """Minimize c @ x with A @ x <= b and x >= 0.

    Returns ``(x, "optimal")`` or ``(None, "infeasible")``. Raises
    SimplexError for unbounded problems (callers here always bound the
    variables with explicit rows) or an exhausted budget of
    1000 + 50 (m + n) pivots per phase.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    A = np.asarray(A, dtype=float).reshape(-1, n) if np.size(A) else np.zeros((0, n))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m = A.shape[0]
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")

    max_pivots = 1000 + 50 * (m + n)
    keep = _rows_that_can_bind(A, b)
    A_full, b_full, A, b = A, b, A[keep], b[keep]
    m = A.shape[0]

    if m == 0:
        if np.any(c < -_TOL):
            raise SimplexError("LP is unbounded")
        return np.zeros(n), "optimal"

    # Tableau columns: structurals, one slack per row, one artificial x0,
    # then the rhs. x0 holds -1 in every row with b < 0; pivoting it in on
    # the most negative row makes every row feasible at once, and phase 1
    # minimizes x0 from there (Chvatal's auxiliary problem).
    rows = np.arange(m)
    art = n + m
    T = np.zeros((m, art + 2))
    T[:, :n] = A
    T[rows, n + rows] = 1.0
    T[:, -1] = b
    basis = n + rows

    ncols = art + 1
    allowed = np.ones(ncols, dtype=bool)
    if np.any(b < 0):
        T[b < 0, art] = -1.0
        _pivot(T, basis, int(np.argmin(b)), art)
        costs1 = np.zeros(ncols)
        costs1[art] = 1.0
        phase1 = _pivot_loop(T, basis, costs1, allowed, max_pivots)
        if phase1 > 1e-8 * max(1.0, np.abs(b_full).max()):
            return None, "infeasible"
        # Pivot x0 out if it stays basic at zero. [A I] has full row rank,
        # so its row holds a nonzero outside the x0 column.
        for i in np.flatnonzero(basis == art):
            pivot_cols = np.flatnonzero(np.abs(T[i, :art]) > 1e2 * _TOL)
            _pivot(T, basis, i, int(pivot_cols[0]))
        allowed[art] = False

    costs2 = np.zeros(ncols)
    costs2[:n] = c
    _pivot_loop(T, basis, costs2, allowed, max_pivots)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = T[structural, -1]

    x_polished = _polish(A, b, basis, n)
    if x_polished is not None:
        feas_tol = 1e-8 * (1.0 + np.abs(b_full).max())
        if (
            np.all(x_polished >= -feas_tol)
            and np.all(A_full @ x_polished <= b_full + feas_tol)
            and c @ x_polished <= c @ x + feas_tol * (1.0 + np.abs(c).sum())
        ):
            x = x_polished
    return np.maximum(x, 0.0), "optimal"


def _rows_that_can_bind(A, b):
    """Mask of the rows the presolve keeps: the singleton rows, and every
    row that some point of the box they span can make tight."""
    singleton = np.count_nonzero(A, axis=1) == 1
    r, j = np.nonzero((A > 0) & (singleton & (b >= 0))[:, None])
    upper = np.full(A.shape[1], np.inf)
    np.minimum.at(upper, j, b[r] / A[r, j])
    u = np.where(np.isfinite(upper), upper, 0.0)
    unbounded = (A[:, np.isinf(upper)] > 0).any(axis=1)
    slack = np.maximum(A, 0.0) @ u < b - 1e-6 * (np.abs(A) @ u + np.abs(b))
    return singleton | unbounded | ~slack


def _polish(A, b, basis, n):
    """Re-solve the final basis from original data for a clean vertex.

    Slack columns are unit columns and no artificial is basic after phase
    1, so the k basic structurals are fixed by the k rows whose slack is
    nonbasic: a k-by-k system instead of the m-by-m basic one.
    """
    free = np.ones(A.shape[0], dtype=bool)
    free[basis[basis >= n] - n] = False
    cols = basis[basis < n]
    try:
        sol = np.linalg.solve(A[np.ix_(free, cols)], b[free])
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    x = np.zeros(n)
    x[cols] = sol
    return x
