"""Dense two-phase tableau simplex for small inequality-form LPs.

Solves  minimize c @ x  subject to  A @ x <= b,  x >= 0.

A handful of variables meets up to about a thousand rows, one cutting
plane per scenario and record per SLP iteration. The tableau is condensed
(Chvatal 1983): the basic columns are unit vectors, so only the nonbasic
ones are stored, each labelled with its variable, m x (n + 1) with the
rhs, and a pivot updates all of it, putting the leaving variable's column
where the entering one was. If some b < 0, phase 1 pivots m x (n + 2):
one artificial column serves all those rows (so about as many pivots as
structural columns), and one selection drops it for phase 2. The labels
make every choice the full m x (n + m + 2) tableau would make: reduced
costs are priced afresh each pivot, Dantzig's entering columns take the
lowest label among near-ties until the objective stalls on degenerate
pivots, then Bland's rule (lowest label) takes over, and the ratio test
breaks ties on the lowest basic label. The final vertex is re-solved from
the original constraint data to strip accumulated elimination error.

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
_BELOW_TOL = np.nextafter(-_TOL, -np.inf)  # r < -_TOL is r <= _BELOW_TOL


def _pivot(D, basis, nonbasic, i, q):
    """Pivot the condensed tableau ``D`` on D[i, q]: the variable of column q
    enters the basis at row i, and column q then holds the leaving one.

    These are the full tableau's values: its leaving column was the unit
    vector e_i, so it becomes 1/piv on row i and 0 - other * (1/piv)
    elsewhere, and a column with a zero in row i comes out unchanged (up
    to the sign of zero).
    """
    piv = D[i, q]
    other = D[:, q].copy()
    other[i] = 0.0
    D[i] /= piv
    D[:, q] = 0.0
    D[i, q] = 1.0 / piv
    D -= other[:, None] * D[i]
    basis[i], nonbasic[q] = nonbasic[q], basis[i]


def _pivot_loop(D, basis, nonbasic, costs, max_pivots):
    """Run pivots until optimal. Returns the objective value.

    ``basis`` labels the rows of ``D`` and ``nonbasic`` its columns but the
    last; the basic and nonbasic cost vectors swap a pair with each pivot,
    as the labels do.
    """
    c_B, c_N = costs[basis], costs[nonbasic]
    above_all = costs.size  # a label above every variable's
    bland = False
    stall = 0
    prev_obj = np.inf
    for _ in range(max_pivots):
        r = c_N - c_B @ D[:, :-1]
        r_min = r.min()
        if r_min >= -_TOL:
            return float(c_B @ D[:, -1])
        # r < -_TOL may enter; Dantzig's near-ties go to the lowest label.
        top = _BELOW_TOL if bland else min(r_min + _TOL, _BELOW_TOL)
        q = int(np.where(r <= top, nonbasic, above_all).argmin())

        col = D[:, q]
        rows = (col > _TOL).nonzero()[0]
        if not rows.size:
            raise SimplexError("LP is unbounded")
        ratios = D[rows, -1] / col[rows]
        best = ratios.min()
        ties = rows[ratios <= best + _TOL * (1.0 + abs(best))]
        i = int(ties[0] if ties.size == 1 else ties[basis[ties].argmin()])
        _pivot(D, basis, nonbasic, i, q)
        c_B[i], c_N[q] = c_N[q], c_B[i]

        obj = float(c_B @ D[:, -1])
        stall = stall + 1 if obj >= prev_obj - _TOL else 0
        bland = bland or stall >= _STALL_LIMIT
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

    # Labels: structurals 0..n-1, the slack of row i n+i, one artificial x0
    # n+m. The slacks start basic; the columns of D are the structurals, x0
    # if some b < 0, and the rhs. x0 holds -1 in every row with b < 0;
    # pivoting it in on the most negative row makes every row feasible at
    # once, and phase 1 minimizes x0 from there (Chvatal's auxiliary problem).
    art = n + m
    phase1 = bool((b < 0).any())
    D = np.zeros((m, n + 1 + phase1))
    D[:, :n] = A
    D[:, -1] = b
    basis = n + np.arange(m)
    nonbasic = np.arange(n + phase1)
    nonbasic[n:] = art
    if phase1:
        D[b < 0, n] = -1.0
        _pivot(D, basis, nonbasic, int(np.argmin(b)), n)
        costs1 = np.zeros(art + 1)
        costs1[art] = 1.0
        phase1_min = _pivot_loop(D, basis, nonbasic, costs1, max_pivots)
        if phase1_min > 1e-8 * max(1.0, np.abs(b_full).max()):
            return None, "infeasible"
        # Pivot x0 out if it stays basic at zero, on the lowest label. [A I]
        # has full row rank, so its row holds a nonzero outside x0.
        for i in np.flatnonzero(basis == art):
            cols = np.flatnonzero(np.abs(D[i, :-1]) > 1e2 * _TOL)
            q = cols[np.argmin(nonbasic[cols])]
            _pivot(D, basis, nonbasic, i, q)
        # x0 is nonbasic now; its column never enters again.
        keep = nonbasic != art
        D, nonbasic = D.compress(np.append(keep, True), axis=1), nonbasic[keep]

    costs2 = np.zeros(art + 1)
    costs2[:n] = c
    _pivot_loop(D, basis, nonbasic, costs2, max_pivots)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = D[structural, -1]

    x_polished = _polish(A, b, basis, n)
    if x_polished is not None:
        feas_tol = 1e-8 * (1.0 + np.abs(b_full).max(initial=0.0))
        if (
            (x_polished >= -feas_tol).all()
            and (A_full @ x_polished <= b_full + feas_tol).all()
            and c @ x_polished <= c @ x + feas_tol * (1.0 + np.abs(c).sum())
        ):
            x = x_polished
    return np.maximum(x, 0.0), "optimal"


def _rows_that_can_bind(A, b):
    """Mask of the rows the presolve keeps: the singleton rows, and every
    row that some point of the box they span can make tight."""
    singleton = (A != 0) @ np.ones(A.shape[1]) == 1  # one nonzero
    r, j = np.divmod(np.flatnonzero((A > 0) & (singleton & (b >= 0))[:, None]), A.shape[1])
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
    if not np.isfinite(sol).all():
        return None
    x = np.zeros(n)
    x[cols] = sol
    return x
