"""LP sub-problem solver and the SLP loop."""

import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from failsafe_dampers import (
    CuttingPlanes,
    DesignVector,
    GroundMotion,
    SlpConfig,
    enumerate_scenarios,
    newmark_solve,
    no_failure,
    slp_solve,
    solve_lp,
)
from failsafe_dampers import adjoint, dynamics, optimizer, run_failsafe
from failsafe_dampers._simplex import SimplexError, solve_inequality_lp
from failsafe_dampers.constraints import normalized_drifts
from failsafe_dampers.model import StructuralModel
from failsafe_dampers.optimizer import P_CAP

from conftest import (
    frame_with_redundant_dampers,
    fullset_6d_problem,
    shear_frame,
    synthetic_record,
)

DATA = Path(__file__).parent / "data"


def plane_set(n, *planes):
    """`CuttingPlanes` of n variables and one label, holding (gradient,
    intercept, point) triples in order, one iteration each."""
    out = CuttingPlanes(n, [(0, "r")])
    for gradient, intercept, point in planes:
        out.append([gradient], [intercept], point)
    return out


def enumerate_vertices_objective(c, A, b, n):
    """Best objective over all vertices of {A x <= b, x >= 0} (brute force)."""
    rows = np.vstack([A, -np.eye(n)])
    rhs = np.concatenate([b, np.zeros(n)])
    best = np.inf
    for combo in combinations(range(rows.shape[0]), n):
        sub = rows[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, rhs[list(combo)])
        if np.all(rows @ v <= rhs + 1e-9):
            best = min(best, float(c @ v))
    return best


def dense_tableau_lp(c, A, b, *, tol=1e-10):
    """Slow reference: the full-width two-phase tableau simplex.

    Phase 1 starts from one artificial column x0 with -1 on every row of
    negative rhs, pivoted in on the most negative row. Every pivot updates
    every column with one outer product, reduced costs are priced on every
    column (lowest index among near-ties), no row is presolved away, and
    the final basis is re-solved as the whole m-by-m basic system of the
    slack-augmented matrix.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = c.size
    m = A.shape[0]
    max_pivots = 1000 + 50 * (m + n)

    def pivot_loop(T, basis, costs, allowed):
        bland, stall, prev_obj = False, 0, np.inf
        for _ in range(max_pivots):
            r = costs - costs[basis] @ T[:, :-1]
            candidates = np.where(allowed & (r < -tol))[0]
            if candidates.size == 0:
                return float(costs[basis] @ T[:, -1])
            if bland:
                j = candidates[0]
            else:
                r_in = r[candidates]
                j = candidates[np.argmax(r_in <= r_in.min() + tol)]
            col = T[:, j]
            positive = col > tol
            if not np.any(positive):
                raise SimplexError("LP is unbounded")
            ratios = np.full(T.shape[0], np.inf)
            ratios[positive] = T[positive, -1] / col[positive]
            best = ratios.min()
            ties = np.where(ratios <= best + tol * (1.0 + abs(best)))[0]
            i = ties[np.argmin(basis[ties])] if ties.size > 1 else int(np.argmin(ratios))
            pivot(T, basis, i, j)
            obj = float(costs[basis] @ T[:, -1])
            stall = stall + 1 if obj >= prev_obj - tol else 0
            bland = bland or stall >= 25
            prev_obj = obj
        raise SimplexError("pivot budget exhausted")

    def pivot(T, basis, i, j):
        T[i] /= T[i, j]
        other = T[:, j].copy()
        other[i] = 0.0
        T -= np.outer(other, T[i])
        basis[i] = j

    art = np.where(b < 0, -1.0, 0.0)
    W = np.hstack([A, np.eye(m), art[:, None]])
    T = np.hstack([W, b[:, None]])
    basis = n + np.arange(m)
    allowed = np.ones(W.shape[1], dtype=bool)
    if np.any(b < 0):
        pivot(T, basis, int(np.argmin(b)), n + m)
        costs1 = np.zeros(W.shape[1])
        costs1[n + m] = 1.0
        if pivot_loop(T, basis, costs1, allowed) > 1e-8 * max(1.0, np.abs(b).max()):
            return None, "infeasible"
        for i in np.flatnonzero(basis == n + m):
            pivot_cols = np.where(np.abs(T[i, : n + m]) > 1e2 * tol)[0]
            pivot(T, basis, i, int(pivot_cols[0]))
        allowed[n + m] = False
    costs2 = np.zeros(W.shape[1])
    costs2[:n] = c
    pivot_loop(T, basis, costs2, allowed)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = T[structural, -1]
    try:
        sol = np.linalg.solve(W[:, basis], b)
    except np.linalg.LinAlgError:
        sol = None
    if sol is not None and np.all(np.isfinite(sol)):
        x_polished = np.zeros(n)
        x_polished[basis[structural]] = sol[structural]
        feas_tol = 1e-8 * (1.0 + np.abs(b).max())
        if (
            np.all(x_polished >= -feas_tol)
            and np.all(A @ x_polished <= b + feas_tol)
            and c @ x_polished <= c @ x + feas_tol * (1.0 + np.abs(c).sum())
        ):
            x = x_polished
    return np.maximum(x, 0.0), "optimal"


def stacked(A, b, upper=None):
    """The LP ``A x <= b, 0 <= x <= upper`` in the three-argument form of
    `dense_tableau_lp`: a row x_j <= upper_j under (A, b) for each finite
    bound."""
    if upper is None:
        return A, b
    boxed = np.flatnonzero(np.isfinite(upper))
    return np.vstack([A, np.eye(A.shape[1])[boxed]]), np.concatenate([b, upper[boxed]])


def random_cutting_plane_lp(rng, n, m_planes):
    """A move-limit-box LP shaped like the SLP sub-problems, with the cases
    that exercise the simplex: negative right-hand sides (phase 1),
    duplicated rows, identical columns (redundant damper pairs), many rows
    tight at one vertex, and sometimes two planes that conflict."""
    span = rng.uniform(0.05, 0.4, n)
    y_star = rng.uniform(0.0, 1.0, n) * span
    A_pl = -rng.uniform(0.0, 1.0, (m_planes, n)) + 0.3 * rng.standard_normal((m_planes, n))
    pair = rng.choice(n, 2, replace=False)
    A_pl[:, pair[1]] = A_pl[:, pair[0]]
    slack = rng.uniform(0.0, 0.3, m_planes)
    slack[rng.random(m_planes) < 0.3] = 0.0  # tight at y_star: degenerate
    b_pl = A_pl @ y_star + slack
    c = rng.uniform(0.5, 1.5, n)
    if rng.random() < 0.5:
        # Make y_star optimal, so every tight row meets at the optimum.
        tight = np.flatnonzero(slack == 0.0)
        c = -A_pl[tight].T @ rng.uniform(0.1, 1.0, tight.size) + 1e-3
    c[pair[1]] = c[pair[0]]
    dup = rng.choice(m_planes, m_planes // 10, replace=False)
    A_pl = np.vstack([A_pl, A_pl[dup]])
    b_pl = np.concatenate([b_pl, b_pl[dup]])
    if rng.random() < 0.2:
        A_pl = np.vstack([A_pl, A_pl[:1], -A_pl[:1]])
        b_pl = np.concatenate([b_pl, b_pl[:1] - 0.5, -b_pl[:1] - 0.5])
    return c, np.vstack([A_pl, np.eye(n)]), np.concatenate([b_pl, span])


class TestSimplexCore:
    def test_matches_dense_tableau_reference(self):
        # The cutting-plane LPs of `random_cutting_plane_lp`, their cost made
        # nonnegative and their box given as bounds: the reference's status
        # and optimal objective.
        rng = np.random.default_rng(2024)
        statuses = []
        for m_planes in (3, 10, 30, 60, 120, 200, 300, 380):
            for _ in range(4):
                c, A, b = random_cutting_plane_lp(rng, int(rng.integers(4, 9)), m_planes)
                c = np.abs(c)
                x, status, _, _ = solve_inequality_lp(c, *split_box(A, b))
                x_ref, status_ref = dense_tableau_lp(c, A, b)
                assert status == status_ref
                statuses.append(status)
                if status == "optimal":
                    assert max_excess(*split_box(A, b), x) <= 1e-9 * (1.0 + np.abs(b).max())
                    assert c @ x == pytest.approx(c @ x_ref, rel=1e-9, abs=1e-12)
        assert "infeasible" in statuses and "optimal" in statuses

    def test_matches_vertex_enumeration_on_random_lps(self):
        rng = np.random.default_rng(101)
        for _ in range(120):
            n = int(rng.integers(3, 7))
            m = int(rng.integers(2, 7))
            c = rng.uniform(0.05, 2.0, n)
            x_feas = rng.uniform(0.0, 1.0, n)
            A = rng.standard_normal((m, n))
            b = A @ x_feas + rng.uniform(0.0, 1.0, m)
            x, status, _, _ = solve_inequality_lp(c, A, b, np.ones(n))
            assert status == "optimal"
            oracle = enumerate_vertices_objective(c, *stacked(A, b, np.ones(n)), n)
            assert c @ x == pytest.approx(oracle, abs=1e-9)

    def test_detects_infeasible(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        b = np.array([0.2, -0.5])  # x0 <= 0.2 and x0 >= 0.5
        x, status, basis, _ = solve_inequality_lp(np.ones(2), A, b)
        assert status == "infeasible"
        assert x is None and basis is None

    @pytest.mark.parametrize(
        "b,upper,message",
        [
            ([1.0, 2.0], None, r"b has shape \(2,\), expected \(1,\)"),
            ([1.0], [1.0, 1.0, 1.0], r"upper has shape \(3,\), expected \(2,\)"),
        ],
    )
    def test_operands_of_the_wrong_shape_rejected(self, b, upper, message):
        with pytest.raises(ValueError, match=message):
            solve_inequality_lp(np.ones(2), np.array([[1.0, 1.0]]), np.array(b), upper)

    def test_degenerate_vertex(self):
        # Five constraints all tight at the origin: a classic cycling trap.
        c = np.ones(2)
        A = np.array(
            [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 2.0], [2.0, 1.0]]
        )
        x, status, _, _ = solve_inequality_lp(c, A, np.zeros(5))
        assert status == "optimal"
        assert np.allclose(x, 0.0, atol=1e-12)

    def test_redundant_rows_and_lower_bounds(self):
        # Duplicated row plus x0 >= 0.5 and x0 + x1 >= 0.7.
        c = np.ones(2)
        A = np.array([[-1.0, 0.0], [-1.0, 0.0], [-1.0, -1.0]])
        b = np.array([-0.5, -0.5, -0.7])
        x, status, _, _ = solve_inequality_lp(c, A, b)
        assert status == "optimal"
        assert c @ x == pytest.approx(0.7, abs=1e-10)
        assert x[0] >= 0.5 - 1e-10


def max_excess(A, b, upper, x):
    """The most by which x breaks a row of A x <= b or its box 0 <= x <= upper."""
    return max((A @ x - b).max(initial=-np.inf), (x - upper).max(), (-x).max())


class TestDualSimplex:
    def test_matches_vertex_enumeration_and_the_tableau(self):
        # The cutting-plane LPs of `random_cutting_plane_lp` whose cost is
        # nonnegative, the box as bounds: the dense tableau's status and
        # optimal objective, and on the smallest (up to 6 variables) the best
        # vertex.
        rng = np.random.default_rng(2024)
        statuses = []
        for m_planes in (3, 3, 10, 30, 60, 120, 200, 300, 380):
            for _ in range(8):
                c, A, b = random_cutting_plane_lp(rng, int(rng.integers(4, 9)), m_planes)
                if (c < 0).any():
                    continue
                x, status, basis, _ = solve_inequality_lp(c, *split_box(A, b))
                x_ref, status_ref = dense_tableau_lp(c, A, b)
                assert status == status_ref
                statuses.append(status)
                if status == "infeasible":
                    assert x is None and basis is None
                    continue
                assert max_excess(*split_box(A, b), x) <= 1e-9 * (1.0 + np.abs(b).max())
                assert c @ x == pytest.approx(c @ x_ref, rel=1e-9)
                assert len(set(basis.tolist())) == c.size
                if m_planes == 3 and c.size <= 6:
                    oracle = enumerate_vertices_objective(c, A, b, c.size)
                    assert c @ x == pytest.approx(oracle, rel=1e-9)
        assert statuses.count("optimal") >= 20 and "infeasible" in statuses

    def test_warm_start_after_rows_and_a_box_shift_matches_the_cold_start(self):
        # The next LP of an SLP iteration: planes appended and the box moved.
        # Started from the previous optimal basis it reaches the cold start's
        # optimum, in fewer pivots over the run.
        rng = np.random.default_rng(7)
        warm_pivots = cold_pivots = 0
        for _ in range(20):
            c, A, b = random_cutting_plane_lp(rng, int(rng.integers(4, 9)), 40)
            c = np.abs(c)
            A_pl, b_pl, span = split_box(A, b)
            x, status, basis, _ = solve_inequality_lp(c, A_pl[:30], b_pl[:30], span)
            if status != "optimal":
                continue
            # The box moves by shift: y = y' + shift with 0 <= y' <= span.
            shift = rng.uniform(-0.05, 0.05, c.size)
            b_next = b_pl - A_pl @ shift
            warm = solve_inequality_lp(c, A_pl, b_next, span, basis)
            cold = solve_inequality_lp(c, A_pl, b_next, span)
            assert warm[1] == cold[1]
            if cold[1] == "optimal":
                assert c @ warm[0] == pytest.approx(c @ cold[0], rel=1e-9, abs=1e-12)
            warm_pivots += warm[3]
            cold_pivots += cold[3]
        assert warm_pivots < cold_pivots

    def test_start_that_names_a_row_gone_restarts_cold(self):
        c, A, b = random_cutting_plane_lp(np.random.default_rng(7), 5, 30)
        c = np.abs(c)
        A_pl, b_pl, span = split_box(A, b)
        _, status, basis, _ = solve_inequality_lp(c, A_pl, b_pl, span)
        assert status == "optimal" and basis.max() >= 2 * c.size
        # Drop the highest row the basis names: its label now names no row.
        m = int(basis.max()) - 2 * c.size
        cold = solve_inequality_lp(c, A_pl[:m], b_pl[:m], span)
        restarted = solve_inequality_lp(c, A_pl[:m], b_pl[:m], span, basis)
        assert restarted[0].tobytes() == cold[0].tobytes()
        assert restarted[3] == cold[3]

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="nonnegative cost"):
            solve_inequality_lp(np.array([1.0, -1.0]), np.ones((1, 2)), np.ones(1), np.ones(2))

    def test_degenerate_pivots_take_blands_rule(self):
        # The dual of Beale's cycling LP (Beale 1955). From the lower corner,
        # with the most violated row entering each time (Dantzig), six
        # degenerate pivots lead back to the first basis, until the budget
        # runs out. After a degenerate pivot the violated row of lowest
        # label enters instead, which cannot cycle: four degenerate pivots,
        # then two that gain. Breaking ratio ties on the highest label
        # instead would reach the optimum in 2 pivots, not 6.
        c = np.array([0.0, 0.0, 1.0])
        A = np.array([[-0.25, -0.5, 0.0], [8.0, 12.0, 0.0], [1.0, 0.5, -1.0], [-9.0, -3.0, 0.0]])
        b = np.array([-0.75, 20.0, -0.5, 6.0])
        x, status, basis, pivots = solve_inequality_lp(c, A, b)
        assert status == "optimal"
        assert c @ x == pytest.approx(1.25, rel=1e-12)  # HiGHS's optimum
        assert max_excess(A, b, np.full(3, np.inf), x) <= 1e-9 * (1.0 + np.abs(b).max())
        assert basis.tolist() == [8, 0, 6] and pivots == 6

    def test_matches_vertex_enumeration_with_unbounded_columns(self):
        # Columns with no upper bound, as the elastic LP's violations have:
        # random rows over a box on some columns only, and the first elastic
        # stage of random planes, [A, -I] over [y, s] with y boxed and the
        # cost on s alone. Each against the best vertex.
        rng = np.random.default_rng(303)
        for _ in range(40):
            n = int(rng.integers(3, 6))
            m = int(rng.integers(2, 6))
            upper = np.where(rng.random(n) < 0.5, np.inf, rng.uniform(0.5, 2.0, n))
            A = rng.standard_normal((m, n))
            b = A @ (rng.uniform(0.0, 1.0, n) * np.minimum(upper, 1.0)) + rng.uniform(0.0, 1.0, m)
            c = rng.uniform(0.05, 2.0, n)

            n_y, m_pl = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            A_el = np.hstack([rng.standard_normal((m_pl, n_y)), -np.eye(m_pl)])
            b_el = rng.uniform(-1.0, 0.5, m_pl)
            upper_el = np.concatenate([rng.uniform(0.1, 0.5, n_y), np.full(m_pl, np.inf)])
            c_el = np.concatenate([np.zeros(n_y), np.ones(m_pl)])

            for c_k, A_k, b_k, u_k in ((c, A, b, upper), (c_el, A_el, b_el, upper_el)):
                x, status, _, _ = solve_inequality_lp(c_k, A_k, b_k, u_k)
                assert status == "optimal"
                assert max_excess(A_k, b_k, u_k, x) <= 1e-9 * (1.0 + np.abs(b_k).max())
                oracle = enumerate_vertices_objective(c_k, *stacked(A_k, b_k, u_k), c_k.size)
                assert c_k @ x == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "name,optimum",
        [
            ("w2_200_cycling_lp", 0.15066082087229535),
            ("w2_1000_swapped_cycling_lp", 0.12000108952722706),
        ],
        ids=["w2_200", "w2_1000_swapped"],
    )
    def test_cycling_lp_of_the_paper_scale_recipe(self, name, optimum):
        # Two LPs that recipe W2 met, from the lower corner: HiGHS's
        # optimum, every row kept. A two-phase tableau simplex with Bland's
        # rule at tol 1e-10 lost feasibility on both and ran out of pivots.
        # - w2_200: the phase-2 LP of sub-problem 3 at 200 steps (144 planes
        #   over 16 dampers, 104 negative right-hand sides), when its sweeps
        #   ran row by row.
        # - w2_1000_swapped: LP 222 at 1,000 steps with each story's two
        #   dampers swapped (damper_transforms permuted by i ^ 1): 168
        #   planes, 126 negative right-hand sides.
        lp = np.load(DATA / f"{name}.npz")
        A, b, span = split_box(lp["A"], lp["b"])
        x, status, _, _ = solve_inequality_lp(lp["c"], A, b, span)
        assert status == "optimal"
        assert lp["c"] @ x == pytest.approx(optimum, rel=1e-9)
        assert max_excess(A, b, span, x) <= 1e-8 * (1.0 + np.abs(lp["b"]).max())


class TestPhaseOne:
    def test_lps_of_a_fullset_run_match_highs(self, monkeypatch):
        # Every LP of a short fullset run against HiGHS: the plain ones and,
        # after each plain LP that is infeasible, the two elastic stages, all
        # on the dual simplex (the stages with no start). Degenerate faces
        # let x differ; the status and the optimal objective may not. At the
        # default move limit some of the run's LPs are infeasible inside
        # their boxes.
        lps = []
        real_dual = optimizer.solve_inequality_lp

        def spy(c, A, b, upper, *start):
            out = real_dual(c, A, b, upper, *start)
            lps.append((c, *stacked(A, b, upper), out[:2], bool(start)))
            return out

        monkeypatch.setattr(optimizer, "solve_inequality_lp", spy)
        model = frame_with_redundant_dampers(n_stories=3, per_story=2)
        gm = synthetic_record(100, seed=9, peak=2.5)
        bare = newmark_solve(model, np.zeros((3, 3)), gm)
        gm = gm.rescaled(2.0 / np.abs(normalized_drifts(bare, model)).max())
        final = run_failsafe(
            model,
            enumerate_scenarios(6, 1, 2, 0.5),
            [gm],
            c_bar=2000.0,
            slp_config=SlpConfig(i_min=10, i_max=40),
            mode="fullset",
        )
        assert final.verified
        started = [start for *_, start in lps]
        statuses = [status for *_, (_, status), _ in lps]
        infeasible = [k for k, start in enumerate(started) if start and statuses[k] == "infeasible"]
        assert sum(started) >= 20 and infeasible
        assert started.count(False) == 2 * len(infeasible)
        assert not any(started[k + 1] or started[k + 2] for k in infeasible)
        for c, A, b, (x, status), _ in lps:
            ref = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
            assert ref.status in (0, 2)
            assert status == ("optimal" if ref.status == 0 else "infeasible")
            if status == "optimal":
                assert c @ x == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)


def split_box(A, b):
    """``A y <= b`` whose last n rows are the box y <= span, as the planes
    and the bounds `solve_lp` passes."""
    n = A.shape[1]
    assert np.array_equal(A[-n:], np.eye(n))
    return A[:-n], b[:-n], b[-n:]


def assert_same_solution(got, want):
    (x, status), (x_ref, status_ref) = got, want
    assert status == status_ref
    assert (x is None) == (x_ref is None)
    if x is not None:
        assert x.tobytes() == x_ref.tobytes()


def fullset_problem():
    """The 3-story frame with two dampers per story and all 22 scenarios in
    the working set, as in the fullset benchmark, with a starting design."""
    model = frame_with_redundant_dampers(n_stories=3, per_story=2)
    gm = synthetic_record(100, seed=9, peak=2.5)
    bare = newmark_solve(model, np.zeros((3, 3)), gm)
    gm = gm.rescaled(2.0 / np.abs(normalized_drifts(bare, model)).max())
    scenarios = enumerate_scenarios(6, 1, 2, 0.5)
    return model, scenarios, gm, DesignVector(x=np.full(6, 0.2), c_bar=2000.0)


def two_record_problem():
    """The first 4 scenarios of `fullset_problem` under its record and a
    second one, rescaled the same way."""
    model, scenarios, gm, design0 = fullset_problem()
    second = synthetic_record(100, seed=4, peak=2.5, name="second")
    bare = newmark_solve(model, np.zeros((3, 3)), second)
    second = second.rescaled(2.0 / np.abs(normalized_drifts(bare, model)).max())
    return model, list(scenarios)[:4], [gm, second], design0


def ghat(plane, x):
    """The linearization a `CuttingPlane` record holds, evaluated at x."""
    return float(plane.gradient @ x - plane.rhs)


def spy_centers(monkeypatch):
    """The iterates of an SLP run, in order: the centers of its LPs, each
    the design its iteration's planes were linearized at."""
    centers = []
    real_lp = optimizer.solve_lp

    def spy_lp(objective, planes, center, *args, **kwargs):
        centers.append(center.copy())
        return real_lp(objective, planes, center, *args, **kwargs)

    monkeypatch.setattr(optimizer, "solve_lp", spy_lp)
    return centers


def lp_rows_from_records(planes, center, move_limit, margin):
    """Slow reference: the (A, b) `solve_lp` hands the simplex, assembled
    plane by plane from the records of the enabled planes."""
    n = center.size
    lo = np.maximum(0.0, center - move_limit)
    hi = np.minimum(1.0, center + move_limit)
    on = [pl for pl in planes if pl.enabled]
    A_pl = np.array([pl.gradient for pl in on]).reshape(len(on), n)
    b_pl = np.array([pl.rhs for pl in on]) - margin
    return np.vstack([A_pl, np.eye(n)]), np.concatenate([b_pl - A_pl @ lo, hi - lo])


class TestSolveLp:
    def test_no_planes_goes_to_lower_corner(self):
        res = solve_lp(
            np.ones(3), plane_set(3), center=np.full(3, 0.5), move_limit=0.2
        )
        assert np.allclose(res.x, 0.3)
        assert res.status == "optimal"

    def test_single_plane_binds(self):
        # ghat(x) = 0.5 - x0 <= 0 forces x0 >= 0.5 inside the box [0, 1].
        planes = plane_set(2, ([-1.0, 0.0], 0.5, [0.0, 0.0]))
        res = solve_lp(np.ones(2), planes, center=np.full(2, 0.5), move_limit=0.5)
        assert res.x[0] == pytest.approx(0.5, abs=1e-9)
        assert res.x[1] == pytest.approx(0.0, abs=1e-9)
        assert 0 in res.binding

    def test_disabled_planes_ignored(self):
        planes = plane_set(2, ([-1.0, 0.0], 0.5, [0.0, 0.0]))
        planes.disable(0)
        assert not planes.enabled[0]
        res = solve_lp(np.ones(2), planes, center=np.full(2, 0.5), move_limit=0.5)
        assert np.allclose(res.x, 0.0, atol=1e-12)

    def test_elastic_fallback_on_conflicting_planes(self):
        # x0 >= 0.8 and x0 <= 0.2 cannot both hold: least total violation
        # is 0.6, reached anywhere in between; cost then pulls x0 down.
        planes = plane_set(
            2, ([-1.0, 0.0], 0.8, [0.0, 0.0]), ([1.0, 0.0], -0.2, [0.0, 0.0])
        )
        res = solve_lp(np.ones(2), planes, center=np.full(2, 0.5), move_limit=0.5)
        assert res.status == "elastic"
        violation = sum(max(0.0, ghat(pl, res.x)) for pl in planes)
        assert violation == pytest.approx(0.6, abs=1e-8)

    def test_elastic_lps_match_a_two_stage_highs_reference(self):
        # Random planes that conflict inside their box: the least total
        # violation sum max(0, A x - b), then the least cost among the points
        # within 1e-9 of it, as two HiGHS LPs over [x, s].
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 25))
            center = rng.uniform(0.2, 0.8, n)
            ml = float(rng.uniform(0.05, 0.3))
            grads = rng.standard_normal((m, n))
            # Every third plane asks for more than any move in the box gives.
            reach = np.abs(grads).sum(axis=1) * ml
            g_vals = np.where(np.arange(m) % 3 == 0, reach + rng.uniform(0.1, 1.0, m),
                              rng.uniform(-1.0, 0.5, m) * reach)
            planes = plane_set(n, *((grad, g, center) for grad, g in zip(grads, g_vals)))
            res = solve_lp(np.ones(n), planes, center, ml)
            assert res.status == "elastic"

            A = np.array([pl.gradient for pl in planes])
            b = np.array([pl.rhs for pl in planes])
            A_el = np.hstack([A, -np.eye(m)])
            bounds = [*zip(np.maximum(0.0, center - ml), np.minimum(1.0, center + ml))]
            bounds += [(0.0, None)] * m
            c1 = np.concatenate([np.zeros(n), np.ones(m)])
            stage1 = linprog(c1, A_ub=A_el, b_ub=b, bounds=bounds, method="highs")
            stage2 = linprog(
                np.concatenate([np.ones(n), np.zeros(m)]),
                A_ub=np.vstack([A_el, c1]),
                b_ub=np.append(b, stage1.fun + 1e-9),
                bounds=bounds,
                method="highs",
            )
            assert stage1.status == stage2.status == 0
            x_ref = stage2.x[:n]

            def violation(x):
                return float(np.maximum(A @ x - b, 0.0).sum())

            assert violation(res.x) == pytest.approx(violation(x_ref), rel=1e-9)
            assert res.x.sum() == pytest.approx(x_ref.sum(), rel=1e-9)

    def test_respects_move_limits(self):
        res = solve_lp(
            np.ones(2), plane_set(2), center=np.array([0.5, 0.05]), move_limit=0.02
        )
        assert np.allclose(res.x, [0.48, 0.03])

    def test_random_lps_against_vertex_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            center = rng.uniform(0.2, 0.8, n)
            ml = float(rng.uniform(0.05, 0.3))
            x_star = np.clip(center + rng.uniform(-ml, ml, n), 0, 1)
            triples = []
            for _ in range(int(rng.integers(1, 5))):
                grad = rng.standard_normal(n)
                g_val = float(-rng.uniform(0.0, 0.5))  # feasible at x_star
                triples.append((grad, g_val, x_star))
            planes = plane_set(n, *triples)
            res = solve_lp(np.ones(n), planes, center, ml)
            assert res.status == "optimal"
            lo = np.maximum(0.0, center - ml)
            hi = np.minimum(1.0, center + ml)
            A = np.array([grad for grad, _, _ in triples])
            b = np.array([grad @ x_star - g_val for grad, g_val, _ in triples])
            oracle = enumerate_vertices_objective(
                np.ones(n),
                np.vstack([A, np.eye(n)]),
                np.concatenate([b - A @ lo, hi - lo]),
                n,
            ) + float(lo.sum())
            assert np.ones(n) @ res.x == pytest.approx(oracle, abs=1e-9)


def test_planes_need_one_per_label():
    planes = CuttingPlanes(2, [(0, "r"), (1, "r")])
    message = r"need one plane per label \(2\), got 1 gradients, 2 intercepts"
    with pytest.raises(ValueError, match=message):
        planes.append([[1.0, 0.0]], [0.5, -0.5], [0.25, 0.25])
    assert len(planes) == 0


class TestSlpConfig:
    def test_delta_formula(self):
        cfg = SlpConfig(ml=0.02)
        assert cfg.convergence_tol(16) == pytest.approx(0.008, rel=1e-12)
        assert cfg.convergence_tol(4) == pytest.approx(0.004, rel=1e-12)

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="p_start <= 1000000"):
            SlpConfig(p_start=P_CAP + 2)
        with pytest.raises(ValueError, match="p_step >= 0"):
            SlpConfig(p_step=-2)
        with pytest.raises(ValueError, match="even"):
            SlpConfig(p_start=99)
        # An odd step would lead p to an odd exponent mid-run.
        with pytest.raises(ValueError, match="p_step must be even, got 3"):
            SlpConfig(p_step=3)
        assert SlpConfig(p_step=0).advance(100) == 100
        assert SlpConfig(p_start=P_CAP).advance(P_CAP) == P_CAP

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["ml"])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            SlpConfig(**{name: value})

    def test_advance_caps(self):
        cfg = SlpConfig(p_start=P_CAP - 700, p_step=500)
        assert cfg.advance(P_CAP - 700) == P_CAP - 200
        assert cfg.advance(P_CAP - 200) == P_CAP


class TestSlpSolve:
    @pytest.mark.parametrize(
        "scenarios,records,message",
        [
            ([], ["a"], "the working set must hold at least one scenario"),
            ([no_failure()], [], "need at least one ground motion"),
            ([no_failure()], ["a", "a"], r"record names must be unique, got \['a', 'a'\]"),
        ],
    )
    def test_inputs_it_cannot_solve_rejected(self, scenarios, records, message):
        model = shear_frame(1, mass=1.0, story_k=40.0, d_allow=0.5)
        records = [synthetic_record(20, seed=2, name=name) for name in records]
        with pytest.raises(ValueError, match=message):
            slp_solve(model, scenarios, records, DesignVector(x=[0.5], c_bar=10.0), SlpConfig())

    def test_unconstrained_design_falls_to_zero(self):
        # Record so gentle the bare structure already satisfies the drift
        # limit: no plane ever binds and the cost walks x to the floor.
        model = shear_frame(1, mass=1.0, story_k=40.0, d_allow=0.5)
        gm = synthetic_record(120, dt=0.02, seed=2, peak=0.5)
        cfg = SlpConfig(i_min=30, i_max=60)
        res = slp_solve(
            model, [no_failure()], [gm], DesignVector(x=[0.5], c_bar=10.0), cfg
        )
        assert res.converged
        assert np.allclose(res.x, 0.0, atol=1e-12)
        assert all(r.g_max_true < 0 for r in res.history)

    def test_iterates_respect_box_and_move_limits(self, monkeypatch):
        model = shear_frame(2, mass=10.0, story_k=2000.0, d_allow=0.005)
        gm = synthetic_record(150, dt=0.02, seed=5, peak=1.0)
        cfg = SlpConfig(i_min=15, i_max=40, ml=0.05)
        centers = spy_centers(monkeypatch)
        res = slp_solve(
            model,
            [no_failure()],
            [gm],
            DesignVector(x=[0.5, 0.5], c_bar=400.0),
            cfg,
        )
        assert len(centers) == len(res.planes) == res.n_iterations
        points = centers + [res.x]
        for x in points:
            assert np.all(x >= -1e-12) and np.all(x <= 1 + 1e-12)
        for a, b in zip(points, points[1:]):
            assert np.all(np.abs(b - a) <= cfg.ml + 1e-9)

    def test_dropped_planes_were_binding_while_satisfied(self, monkeypatch):
        # Drop-rule safety: a plane may be disabled only after its true
        # constraint sat below -_DROP_MARGIN at a later iterate. That g is
        # the later plane of the same scenario and record at its own iterate.
        model, scenarios, records, design0 = two_record_problem()
        bindings, centers = [], []
        real_lp = optimizer.solve_lp

        def spy_lp(objective, planes, center, *args, **kwargs):
            centers.append(center.copy())
            lp = real_lp(objective, planes, center, *args, **kwargs)
            bindings.append(lp.binding)
            return lp

        monkeypatch.setattr(optimizer, "solve_lp", spy_lp)
        cfg = SlpConfig(i_min=20, i_max=20, ml=0.05)
        res = slp_solve(model, scenarios, records, design0, cfg)
        planes = list(res.planes)

        def g(plane):
            return ghat(plane, centers[plane.iteration - 1])

        disabled = [pl for pl in planes if not pl.enabled]
        assert disabled
        for pl in disabled:
            assert any(
                g(later) < -optimizer._DROP_MARGIN
                for later in planes
                if (later.scenario_id, later.record) == (pl.scenario_id, pl.record)
                and later.iteration > pl.iteration
            )
        # Exactly the planes that bound the LP of iteration i while their
        # pair's plane of iteration i + 1 reads g < -_DROP_MARGIN are gone.
        plane_of = {(pl.scenario_id, pl.record, pl.iteration): pl for pl in planes}
        retired = {
            row
            for i, binding in enumerate(bindings[:-1], 1)
            for row in binding
            if g(plane_of[(planes[row].scenario_id, planes[row].record, i + 1)])
            < -optimizer._DROP_MARGIN
        }
        assert retired == {row for row, pl in enumerate(planes) if not pl.enabled}

    def test_margin_adds_the_last_planes_error_once_a_step_is_below_delta(self, monkeypatch):
        # Until a step falls below delta, each LP is tightened by the
        # feasibility margin alone; from then on also by how far the last
        # iteration's planes fell below g at the new iterate, clipped at 0.
        # g at an iterate is its own plane's value there.
        model, gm, scenario_set = fullset_6d_problem()
        centers, margins = [], []
        real_lp = optimizer.solve_lp

        def spy_lp(objective, planes, center, move_limit, margin, start):
            centers.append(center.copy())
            margins.append(margin)
            return real_lp(objective, planes, center, move_limit, margin=margin, start=start)

        monkeypatch.setattr(optimizer, "solve_lp", spy_lp)
        cfg = SlpConfig(i_min=50, i_max=400)
        base = 5e-7
        design0 = DesignVector(x=np.full(6, 0.5), c_bar=2000.0)
        res = slp_solve(model, list(scenario_set), [gm], design0, cfg, feasibility_margin=base)

        steps = [r.step_norm for r in res.history]
        first = next(i for i, step in enumerate(steps) if step < cfg.convergence_tol(6))
        assert margins[: first + 1] == [base] * (first + 1)
        planes = list(res.planes)
        block = [[pl for pl in planes if pl.iteration == i + 1] for i in range(len(centers))]
        for i in range(first + 1, len(centers)):
            error = max(
                ghat(now, centers[i]) - ghat(last, centers[i])
                for now, last in zip(block[i], block[i - 1])
            )
            assert margins[i] == pytest.approx(base + max(0.0, error), rel=0, abs=1e-12)
        assert first + 1 < len(margins) and max(margins) > base
        assert [r.margin for r in res.history] == margins

    def test_plane_labels_follow_the_row(self, monkeypatch):
        # Each plane carries the scenario, record and iteration of the
        # evaluation it came from, all read from its row number, and the
        # right-hand side of that evaluation's g linearized at its design.
        model, scenarios, records, design0 = two_record_problem()
        evaluations, designs, solved = {}, [], []
        real_solve, real_eval = optimizer.newmark_solve, optimizer.evaluate_drift_constraint
        real_damping = optimizer.assemble_added_damping

        def spy_damping(model, design, *args):
            designs.append(design.x)
            return real_damping(model, design, *args)

        def spy_solve(model, C_d, gm):
            solved.append((real_solve(model, C_d, gm), gm.name))
            return solved[-1][0]

        def spy_eval(hist, *args):
            value = real_eval(hist, *args)
            record = next(name for h, name in solved if h is hist)
            for sc, g in zip(scenarios, value.g):
                evaluations[(sc.id, record, len(designs))] = (g, designs[-1])
            return value

        monkeypatch.setattr(optimizer, "assemble_added_damping", spy_damping)
        monkeypatch.setattr(optimizer, "newmark_solve", spy_solve)
        monkeypatch.setattr(optimizer, "evaluate_drift_constraint", spy_eval)
        res = slp_solve(model, scenarios, records, design0, SlpConfig(i_min=3, i_max=3))
        assert len(res.planes) == len(evaluations) == 3 * len(scenarios) * len(records)
        for pl in res.planes:
            g, point = evaluations[(pl.scenario_id, pl.record, pl.iteration)]
            assert np.float64(pl.rhs).tobytes() == (np.vecdot(pl.gradient, point) - g).tobytes()

    def test_final_point_satisfies_enabled_planes(self):
        # Feasible problem (ample damping authority): the converged design
        # must sit inside every enabled half-space.
        model = shear_frame(2, mass=10.0, story_k=2000.0, d_allow=0.012)
        gm = synthetic_record(200, dt=0.02, seed=23, peak=1.2)
        cfg = SlpConfig(i_min=20, i_max=80)
        res = slp_solve(
            model,
            [no_failure()],
            [gm],
            DesignVector(x=[0.5, 0.5], c_bar=400.0),
            cfg,
        )
        assert res.converged
        assert res.history[-1].lp_status == "optimal"
        for pl in res.planes:
            if pl.enabled:
                assert ghat(pl, res.x) <= 1e-9

    @pytest.mark.parametrize(
        "x0,ml,all_infeasible", [(0.5, 0.1, False), (0.1, 0.02, True)]
    )
    def test_iteration_cap_returns_best_evaluated_iterate(
        self, x0, ml, all_infeasible, caplog, monkeypatch
    ):
        # A tolerance of 1e-9 keeps every step above it, so the loop runs
        # into i_max. LP k is centred on iterate k, the point whose g_max
        # history[k] records; the LP's last proposal is never evaluated.
        model = shear_frame(2, mass=10.0, story_k=2000.0, d_allow=0.012)
        gm = synthetic_record(200, dt=0.02, seed=23, peak=1.2)
        monkeypatch.setattr(SlpConfig, "convergence_tol", lambda self, n_dampers: 1e-9)
        cfg = SlpConfig(i_min=12, i_max=12, ml=ml)
        centers = spy_centers(monkeypatch)
        res = slp_solve(
            model, [no_failure()], [gm], DesignVector(x=[x0, x0], c_bar=400.0), cfg
        )
        assert not res.converged and res.n_iterations == cfg.i_max
        assert "iteration cap" in caplog.text
        assert len(centers) == len(res.history) == cfg.i_max
        evaluated = [(r.g_max_true, x) for r, x in zip(res.history, centers)]
        feasible = [x for g, x in evaluated if g <= 0.0]
        assert (not feasible) == all_infeasible
        if feasible:
            best = min(feasible, key=np.sum)
            # Later iterates cost less with a small violation.
            assert any(g > 0.0 and x.sum() < best.sum() for g, x in evaluated)
        else:
            best = min(evaluated, key=lambda e: e[0])[1]
        assert np.array_equal(res.x, best)
        assert res.x.sum() != pytest.approx(res.history[-1].cost)

    def test_presolved_lp_matches_dense_tableau_in_the_loop(self, monkeypatch):
        # The LP grows by 22 planes per iteration, goes elastic, and retires
        # planes. The run takes the dual simplex for each plain LP and for
        # both elastic stages; the reference solves every one with the dense
        # tableau.
        model, scenarios, gm, design0 = fullset_problem()
        cfg = SlpConfig(i_min=20, i_max=20, ml=0.05)

        def run(solver):
            lps = []

            def spy_lp(*args, **kwargs):
                lps.append(real_lp(*args, **kwargs))
                return lps[-1]

            monkeypatch.setattr(optimizer, "solve_lp", spy_lp)
            monkeypatch.setattr(optimizer, "solve_inequality_lp", solver)
            res = slp_solve(model, scenarios, [gm], design0, cfg)
            monkeypatch.undo()
            return res, lps

        def dense(c, A, b, upper, start=None):
            # Any basis serves as the tight set: the reference takes no start.
            x, status = dense_tableau_lp(c, *stacked(A, b, upper))
            return x, status, None if x is None else np.arange(c.size), 0

        real_lp = optimizer.solve_lp
        res, lps = run(solve_inequality_lp)
        ref, ref_lps = run(dense)
        assert "elastic" in [lp.status for lp in lps]
        assert any(lp.binding for lp in lps)
        assert res.n_iterations == ref.n_iterations == len(lps) == len(ref_lps)
        assert [lp.binding for lp in lps] == [lp.binding for lp in ref_lps]
        assert [lp.status for lp in lps] == [lp.status for lp in ref_lps]
        for lp, ref_lp in zip(lps, ref_lps):
            assert np.abs(lp.x - ref_lp.x).max() <= 1e-12
        enabled = res.planes.enabled
        assert not enabled.all()
        assert np.array_equal(enabled, ref.planes.enabled)
        assert enabled.tolist() == [pl.enabled for pl in res.planes]
        active = [r.n_active_planes for r in res.history]
        assert active == [r.n_active_planes for r in ref.history]
        assert active[-1] == enabled.sum() < len(res.planes)

    def test_lps_of_the_loop_solve_alike_with_their_box_stacked(self, monkeypatch):
        # Every LP of a run that goes elastic and retires planes, re-solved
        # with its bounds stacked as rows: bit for bit the same, for the
        # plain LPs (both from the lower corner) and for the elastic stages,
        # which take no start.
        model, scenarios, gm, design0 = fullset_problem()
        plain, elastic = [], []
        real_dual = optimizer.solve_inequality_lp

        def spy_dual(c, A, b, upper, *start):
            (plain if start else elastic).append((c, A, b, upper))
            return real_dual(c, A, b, upper, *start)

        monkeypatch.setattr(optimizer, "solve_inequality_lp", spy_dual)
        res = slp_solve(model, scenarios, [gm], design0, SlpConfig(i_min=20, i_max=20, ml=0.05))
        statuses = [r.lp_status for r in res.history]
        assert len(plain) == res.n_iterations
        assert len(elastic) == 2 * statuses.count("elastic") > 0
        assert all(np.isinf(upper).any() for *_, upper in elastic)
        for c, A, b, upper in plain + elastic:
            assert_same_solution(
                solve_inequality_lp(c, A, b, upper)[:2],
                solve_inequality_lp(c, *stacked(A, b, upper))[:2],
            )

    def test_each_lp_starts_from_the_constraints_tight_at_the_last_optimum(self, monkeypatch):
        # An optimal LP's tight set, keyed by plane row and bound, names the
        # same constraints in the next LP's numbering of its enabled planes;
        # a plane disabled since maps to no label (-1), and an elastic LP
        # leaves the next one no start. The log counts each LP's pivots: the
        # plain attempt's, plus both elastic stages' where it is infeasible.
        model, scenarios, gm, design0 = fullset_problem()
        calls = []
        real_dual = optimizer.solve_inequality_lp

        def spy_dual(c, A, b, upper, *start):
            x, status, basis, pivots = real_dual(c, A, b, upper, *start)
            if start:
                calls.append((A, start[0], None if basis is None else basis.copy(), pivots, []))
            else:
                calls[-1][-1].append(pivots)  # an elastic stage of the last LP
            return x, status, basis, pivots

        monkeypatch.setattr(optimizer, "solve_inequality_lp", spy_dual)
        res = slp_solve(model, scenarios, [gm], design0, SlpConfig(i_min=20, i_max=20, ml=0.05))
        n = design0.x.size

        def rows(A, labels):
            return np.concatenate([-np.eye(n), np.eye(n), A])[labels]

        assert calls[0][1] is None
        starts = []
        for (A_last, _, basis, *_), (A, start, *_) in zip(calls, calls[1:]):
            if basis is None:
                starts.append("none")
                assert start is None
            elif start.min() < 0:
                starts.append("disabled")
            else:
                starts.append("warm")
                assert np.array_equal(rows(A, start), rows(A_last, basis))
        assert {"none", "disabled", "warm"} <= set(starts)
        assert len(calls) == res.n_iterations
        for record, (*_, pivots, stages) in zip(res.history, calls):
            assert len(stages) == (2 if record.lp_status == "elastic" else 0)
            assert record.lp_pivots == pivots + sum(stages)
            if stages:
                assert sum(stages) > 0
        assert "elastic" in [r.lp_status for r in res.history]

    def test_lp_rows_from_the_plane_arrays_match_the_plane_records(self, monkeypatch):
        # Every LP's (A, b) as the dual simplex receives it, its box stacked
        # as rows, bit for bit the one assembled plane by plane from the
        # records of the enabled planes, also once planes have been retired;
        # and its binding set, the enabled planes whose records predict
        # ghat >= -margin at its x.
        model, scenarios, gm, design0 = fullset_problem()
        cfg = SlpConfig(i_min=20, i_max=20, ml=0.05)
        want, got, disabled, binding = [], [], [], []
        real_lp, real_dual = optimizer.solve_lp, optimizer.solve_inequality_lp

        def spy_lp(objective, planes, center, move_limit, margin=0.0, start=None):
            want.append(lp_rows_from_records(planes, center, move_limit, margin))
            disabled.append(len(planes) - int(planes.enabled.sum()))
            lp = real_lp(objective, planes, center, move_limit, margin=margin, start=start)
            binding.append((lp.binding, tuple(
                i for i, pl in enumerate(planes)
                if pl.enabled and ghat(pl, lp.x) >= -margin - optimizer._BIND_TOL
            )))
            return lp

        def spy_dual(c, A, b, upper, *start):
            if start:  # the plain LP, not an elastic stage
                got.append(stacked(A, b, upper))
            return real_dual(c, A, b, upper, *start)

        monkeypatch.setattr(optimizer, "solve_lp", spy_lp)
        monkeypatch.setattr(optimizer, "solve_inequality_lp", spy_dual)
        res = slp_solve(model, scenarios, [gm], design0, cfg, feasibility_margin=1e-3)
        assert len(got) == len(want) == res.n_iterations
        assert max(disabled) > 0
        for (A, b), (A_ref, b_ref) in zip(got, want):
            assert np.array_equal(A, A_ref) and np.array_equal(b, b_ref)
        assert any(rows for rows, _ in binding)
        assert all(rows == ref for rows, ref in binding)

    def test_adjoint_sweeps_with_the_primal_transition_matrices(self, monkeypatch):
        # One P and Q and one table of P's powers per (iteration, record),
        # built by the primal solve; the adjoint sweeps with the transposes
        # of that table's first floor(sqrt(k)) entries.
        model, scenarios, gm, design0 = fullset_problem()
        reversed_gm = GroundMotion("reversed", gm.dt, gm.accel[::-1])
        built, tables, swept = [], [], []
        real_matrices, real_powers = dynamics.transition_matrices, dynamics.transition_powers
        real_sweep = adjoint.transition_sweep

        def spy_matrices(*args):
            built.append(real_matrices(*args))
            return built[-1]

        def spy_powers(*args):
            tables.append(real_powers(*args))
            return tables[-1]

        def spy_sweep(powers, S):
            swept.append((powers, len(S)))
            real_sweep(powers, S)

        monkeypatch.setattr(dynamics, "transition_matrices", spy_matrices)
        monkeypatch.setattr(dynamics, "transition_powers", spy_powers)
        monkeypatch.setattr(adjoint, "transition_sweep", spy_sweep)
        cfg = SlpConfig(i_min=4, i_max=4)
        res = slp_solve(model, scenarios, [gm, reversed_gm], design0, cfg)
        assert res.n_iterations == 4
        assert len(built) == len(tables) == len(swept) == 4 * 2
        for (P, _), table, (powers, k) in zip(built, tables, swept):
            assert P.shape == (len(scenarios), 9, 9)
            assert np.array_equal(table[0], P)
            assert np.array_equal(powers, table[: max(1, math.isqrt(k))].mT)

    def test_cost_within_one_percent_of_dense_grid_search(self):
        # Independent oracle: a vectorized grid sweep at resolution 0.05
        # over the whole design box, feasibility judged by the exact peak.
        # Grid granularity means the grid optimum can only be costlier, so
        # the check is one-sided: the SLP design must not be worse than the
        # best grid point by more than 1%.
        base = shear_frame(4, mass=10.0, story_k=13000.0, d_allow=0.01)
        H = base.drift_transform
        model = StructuralModel(
            base.mass,
            base.stiffness,
            base.inherent_damping,
            base.influence,
            H,
            base.d_allow,
            (H[0:1].copy(), H[0:1].copy(), H[1:2].copy(), H[1:2].copy()),
        )
        gm = synthetic_record(300, dt=0.02, seed=11, peak=2.5)
        bare = newmark_solve(model, np.zeros((4, 4)), gm)
        scale = 1.4 / np.abs(normalized_drifts(bare, model)).max()
        gm = gm.rescaled(scale)
        c_bar = 2000.0

        cfg = SlpConfig(i_min=40, i_max=150)
        res = slp_solve(
            model,
            [no_failure()],
            [gm],
            DesignVector(x=np.full(4, 0.5), c_bar=c_bar),
            cfg,
        )
        assert res.converged

        # feasibility of the SLP design by the exact (non-smooth) peak
        from failsafe_dampers import assemble_added_damping, exact_peak

        C_d = assemble_added_damping(model, DesignVector(x=res.x, c_bar=c_bar))
        assert exact_peak(newmark_solve(model, C_d, gm), model) <= 1.0 + 1e-3

        grid_best = _grid_search_cost(model, gm, c_bar, resolution=0.05)
        assert res.x.sum() <= grid_best * 1.01 + 1e-12


def _grid_search_cost(model, gm, c_bar, resolution):
    """Vectorized exhaustive sweep: best feasible cost on the design grid.

    Re-implements the time stepping in batched closed form (one matrix
    inverse per grid point, reused across steps) so it shares no code path
    with the solver it checks.
    """
    n = model.n_dof
    levels = np.round(np.arange(0.0, 1.0 + 1e-9, resolution), 10)
    grids = np.meshgrid(*([levels] * len(model.damper_transforms)), indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=1)  # (G, n_d)
    G = X.shape[0]

    M, K, Cs = model.mass, model.stiffness, model.inherent_damping
    dt = gm.dt
    beta, gamma = 0.25, 0.5
    c0 = 1.0 / (beta * dt * dt)
    c1 = gamma / (beta * dt)
    c2 = 1.0 / (beta * dt)
    c3 = 1.0 / (2.0 * beta) - 1.0
    c4 = gamma / beta - 1.0
    c5 = dt * (gamma / (2.0 * beta) - 1.0)

    outer = np.stack([t.T @ t for t in model.damper_transforms])  # (n_d, n, n)
    C_all = Cs[None, :, :] + np.einsum("gd,dij->gij", c_bar * X, outer)
    K_eff_inv = np.linalg.inv(K[None] + c0 * M[None] + c1 * C_all)

    load = -np.outer(gm.accel, M @ model.influence)  # (N+1, n)
    u = np.zeros((G, n))
    v = np.zeros((G, n))
    a = np.tile(np.linalg.solve(M, load[0]), (G, 1))
    Hn = model.drift_transform / model.d_allow[:, None]  # normalized drifts
    peak = np.abs(u @ Hn.T).max(axis=1)
    for i in range(load.shape[0] - 1):
        rhs = (
            load[i + 1][None, :]
            + (c0 * u + c2 * v + c3 * a) @ M.T
            + np.einsum("gij,gj->gi", C_all, c1 * u + c4 * v + c5 * a)
        )
        u_next = np.einsum("gij,gj->gi", K_eff_inv, rhs)
        a_next = c0 * (u_next - u) - c2 * v - c3 * a
        v = v + dt * ((1.0 - gamma) * a + gamma * a_next)
        u, a = u_next, a_next
        peak = np.maximum(peak, np.abs(u @ Hn.T).max(axis=1))
    feasible = peak <= 1.0
    assert np.any(feasible), "grid search found no feasible point"
    return float(X[feasible].sum(axis=1).min())
