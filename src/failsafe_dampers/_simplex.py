"""Two simplex methods for small inequality-form LPs.

Both solve  minimize c @ x  subject to  A @ x <= b,  0 <= x <= upper.

A handful of variables meets up to about a thousand rows, one cutting
plane per scenario and record per SLP iteration.

`solve_inequality_lp` is a revised dual simplex for nonnegative costs,
which every SLP iteration's plain LP has. Its basis is the n constraints
tight at a vertex, so an n x n system is all it factors, and the lower
corner is a dual-feasible start: it needs no phase 1, presolve or
polish. The next SLP iteration keeps the cost and adds or disables
planes and moves the box, so the previous optimal basis stays dual
feasible and re-optimizes in a pivot or two. It returns a point only
once every row and bound holds within its tolerance.

`tableau_simplex` takes any cost and serves the elastic relaxation's
two stages: a dense two-phase tableau simplex. The tableau is condensed
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

Each finite bound x_j <= upper_j (the move-limit box) pivots as a row of
the tableau, after the rows of A. Rows of A that cannot bind are dropped
first. The bounds, tightened by the singleton rows a_ij x_j <= b_i with
a_ij > 0 <= b_i, bound x above by u. A longer row whose maximum over
0 <= x <= u stays below b - 1e-6 (|a| @ u + |b|) is slack at every vertex
either phase visits, as those lie in the box: its slack would stay basic,
and the kept rows, in order, give the full LP's pivots. A positive
coefficient on a column with no upper bound keeps its row. The phase-1
threshold, the pivot budget and the polish check use the full (A, b) and
the bounds.
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


def tableau_simplex(c, A, b, upper=None):
    """Minimize c @ x with A @ x <= b and 0 <= x <= upper.

    ``upper`` (n,) holds each variable's bound, +inf for none, which is
    every variable's if it is omitted. The bounds pivot as the rows
    x_j <= upper_j of the finite ones, in column order after the kept rows
    of A, so the LP is the one with those rows stacked under (A, b): the
    same tableau, labels, pivot budget, phase-1 threshold and polish
    check. Returns ``(x, "optimal")`` or ``(None, "infeasible")``. Raises
    SimplexError for unbounded problems (callers here always bound the
    variables) or an exhausted budget of 1000 + 50 (m + n) pivots per
    phase, m counting the bound rows.
    """
    c, A, b, upper = _operands(c, A, b, upper)
    n, m = c.size, b.size
    boxed = np.isfinite(upper).nonzero()[0]
    b_box = upper[boxed]

    max_pivots = 1000 + 50 * (m + boxed.size + n)
    b_max = np.abs(np.concatenate([b, b_box])).max(initial=0.0)
    # The tableau's rows: the kept rows of A, then one per finite bound.
    keep = _rows_that_can_bind(A, b, upper)
    m_kept = int(np.count_nonzero(keep))
    m = m_kept + boxed.size
    rows = np.zeros((m, n))
    rows[:m_kept] = A.compress(keep, axis=0)
    rows[m_kept + np.arange(boxed.size), boxed] = 1.0
    rhs = np.concatenate([b[keep], b_box])

    # Labels: structurals 0..n-1, the slack of row i n+i, one artificial x0
    # n+m. The slacks start basic; the columns of D are the structurals, x0
    # if some b < 0, and the rhs. x0 holds -1 in every row with b < 0;
    # pivoting it in on the most negative row makes every row feasible at
    # once, and phase 1 minimizes x0 from there (Chvatal's auxiliary problem).
    art = n + m
    negative = rhs < 0
    phase1 = bool(negative.any())
    D = np.empty((m, n + 1 + phase1))
    D[:, :n] = rows
    D[:, -1] = rhs
    basis = n + np.arange(m)
    nonbasic = np.arange(n + phase1)
    nonbasic[n:] = art
    if phase1:
        D[:, n] = np.where(negative, -1.0, 0.0)
        _pivot(D, basis, nonbasic, int(np.argmin(rhs)), n)
        costs1 = np.zeros(art + 1)
        costs1[art] = 1.0
        phase1_min = _pivot_loop(D, basis, nonbasic, costs1, max_pivots)
        if phase1_min > 1e-8 * max(1.0, b_max):
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

    x_polished = _polish(rows, rhs, basis, n)
    if x_polished is not None:
        # The cheap tests first; the rows of A last.
        feas_tol = 1e-8 * (1.0 + b_max)
        if (
            (x_polished >= -feas_tol).all()
            and c @ x_polished <= c @ x + feas_tol * (1.0 + np.abs(c).sum())
            and (x_polished[boxed] <= b_box + feas_tol).all()
            and (A @ x_polished <= b + feas_tol).all()
        ):
            x = x_polished
    return np.maximum(x, 0.0), "optimal"


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


def _rows_that_can_bind(A, b, upper=None):
    """Mask of the rows of A the presolve keeps: the singleton rows, and
    every row that some point of the box 0 <= x <= u can make tight. u is
    ``upper`` where it is given and nonnegative, tightened by the singleton
    rows a_ij x_j <= b_i with a_ij > 0 <= b_i; a positive coefficient on a
    column that stays unbounded keeps its row."""
    n = A.shape[1]
    singleton = (A != 0) @ np.ones(n) == 1  # one nonzero
    bound = np.full(n, np.inf) if upper is None else np.where(upper >= 0, upper, np.inf)
    if singleton.any():
        r, j = np.divmod(np.flatnonzero((A > 0) & (singleton & (b >= 0))[:, None]), n)
        np.minimum.at(bound, j, b[r] / A[r, j])
    free = np.isinf(bound)
    u = np.where(free, 0.0, bound)
    slack = np.maximum(A, 0.0) @ u < b - 1e-6 * (np.abs(A) @ u + np.abs(b))
    keep = singleton | ~slack
    if free.any():
        keep |= (A[:, free] > 0).any(axis=1)
    return keep


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
        sol = np.linalg.solve(A.compress(free, axis=0).take(cols, axis=1), b[free])
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(sol).all():
        return None
    x = np.zeros(n)
    x[cols] = sol
    return x
