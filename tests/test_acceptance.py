"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The optimization-heavy criteria share one set of runs on a synthetic
four-story shear frame with four candidate dampers (two redundant devices
on each of the two lower stories, where the drift demand concentrates).
"""

import time
from itertools import combinations
from math import sqrt

import numpy as np
import pytest

from failsafe_dampers import (
    ConstraintParams,
    DesignVector,
    FailSafeConfig,
    FailureScenario,
    GroundMotion,
    SlpConfig,
    adjoint_gradient,
    enumerate_scenarios,
    evaluate_all,
    evaluate_drift_constraint,
    fd_gradient,
    newmark_solve,
    no_failure,
    run_failsafe,
)
from failsafe_dampers._simplex import solve_inequality_lp
from failsafe_dampers.model import StructuralModel

from conftest import record_sweep, shear_frame, synthetic_record


def _report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE PASS criterion {criterion}: {message}")


@pytest.fixture(scope="session")
def acceptance_frame():
    """Four-story frame, four dampers: redundant pairs on stories 1 and 2."""
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
    gm = synthetic_record(600, dt=0.02, seed=11, peak=2.5)
    bare = newmark_solve(model, np.zeros((4, 4)), gm)
    from failsafe_dampers import exact_peak

    gm = gm.rescaled(1.5 / exact_peak(bare, model))
    return model, gm


@pytest.fixture(scope="session")
def optimization_runs(acceptance_frame):
    model, gm = acceptance_frame
    scenarios = enumerate_scenarios(4, 1, 2, nu=0.5)
    slp = SlpConfig(i_min=50, i_max=400)
    fs = FailSafeConfig()
    runs = {}
    elapsed = {}
    for mode in ("basic", "failsafe", "fullset"):
        t0 = time.perf_counter()
        runs[mode] = run_failsafe(
            model,
            scenarios,
            [gm],
            c_bar=2000.0,
            slp_config=slp,
            fs_config=fs,
            mode=mode,
        )
        elapsed[mode] = time.perf_counter() - t0
    return model, gm, scenarios, fs, runs, elapsed


def test_criterion_1_scenario_counting():
    t0 = time.perf_counter()
    ss = enumerate_scenarios(16, complete_group_size=1, partial_group_size=2, nu=0.5)
    elapsed = time.perf_counter() - t0
    assert ss.n_complete == 16
    assert ss.n_partial == 120
    assert ss.n_total == 137
    assert elapsed < 1.0
    _report(1, f"16 complete + 120 partial -> 137 scenarios in {elapsed * 1e3:.1f} ms")


def test_criterion_2_convergence_tolerance_formula():
    cfg = SlpConfig(ml=0.02)
    delta = cfg.convergence_tol(16)
    assert delta == 0.10 * 0.02 * sqrt(16)
    assert delta == pytest.approx(0.008, rel=1e-12)
    _report(2, f"delta(ml=0.02, N_d=16) = {delta:.6f} = 0.008 exactly")


def test_criterion_3_newmark_correctness():
    t0 = time.perf_counter()
    # Peak displacement vs a 100x-refined reference run.
    period, zeta = 1.0, 0.05
    model = shear_frame(
        1, mass=1.0, story_k=(2.0 * np.pi / period) ** 2, d_allow=1.0, zeta=zeta
    )
    gm = synthetic_record(2000, dt=period / 100.0, seed=29, peak=2.0)
    fine_times = np.arange(0.0, gm.duration + 1e-12, gm.dt / 100.0)
    fine = GroundMotion(
        name="ref",
        dt=gm.dt / 100.0,
        accel=np.interp(fine_times, gm.times, gm.accel),
    )
    peak = np.abs(newmark_solve(model, np.zeros((1, 1)), gm).u).max()
    peak_ref = np.abs(newmark_solve(model, np.zeros((1, 1)), fine).u).max()
    assert abs(peak - peak_ref) <= 0.01 * peak_ref

    # Energy conservation in undamped free vibration: the frame starts at
    # rest, a ground pulse of 10 samples sets it moving, and from the first
    # unloaded sample on it vibrates freely for 10,000 steps.
    undamped = shear_frame(
        1, mass=1.0, story_k=(2.0 * np.pi / period) ** 2, d_allow=1.0, zeta=0.0
    )
    pulse = np.zeros(10_011)
    pulse[:10] = -1.0
    free = GroundMotion(name="free", dt=period / 50.0, accel=pulse)
    hist = newmark_solve(undamped, np.zeros((1, 1)), free)
    K, M = undamped.stiffness, undamped.mass
    u, v = hist.u[10:], hist.v[10:]
    energy = 0.5 * np.einsum("ij,jk,ik->i", v, M, v) + 0.5 * np.einsum(
        "ij,jk,ik->i", u, K, u
    )
    drift = np.abs(energy - energy[0]).max() / energy[0]
    assert drift <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        3,
        f"peak err {abs(peak - peak_ref) / peak_ref:.2e} (<=1%), energy drift "
        f"{drift:.2e} (<=0.1%) in {elapsed:.1f} s",
    )


def test_criterion_4_adjoint_consistency(frame_2dof, record_short):
    t0 = time.perf_counter()
    design = DesignVector(x=[0.5, 0.4], c_bar=300.0)
    cases = [
        no_failure(),
        FailureScenario(id=1, damaged=(0,), factor=0.0),
        FailureScenario(id=2, damaged=(1,), factor=0.5),
    ]
    worst = {}
    for pq, tol in ((8, 1e-6), (100, 1e-3)):
        params = ConstraintParams(p=pq)
        errs = []
        for sc in cases:
            sweep = record_sweep(frame_2dof, design, sc, record_short, params)
            adj = adjoint_gradient(frame_2dof, design, sc, params, **sweep)
            fd = fd_gradient(frame_2dof, design, sc, record_short, params, h=1e-6)
            errs.append(np.abs(adj - fd).max() / max(1.0, np.abs(fd).max()))
        worst[pq] = max(errs)
        assert worst[pq] <= tol, f"p=q={pq}: {worst[pq]:.2e} > {tol}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        4,
        f"adjoint vs FD: {worst[8]:.2e} at p=q=8 (<=1e-6), "
        f"{worst[100]:.2e} at p=q=100 (<=1e-3) in {elapsed:.1f} s",
    )


def test_criterion_5_aggregation_fidelity(acceptance_frame):
    t0 = time.perf_counter()
    model, gm = acceptance_frame
    params = ConstraintParams(p=1000)
    worst = 0.0
    for level in (0.0, 0.1, 0.4):
        C_d = 2000.0 * level * sum(
            t.T @ t for t in model.damper_transforms
        )
        value = evaluate_drift_constraint(
            newmark_solve(model, C_d, gm), model, params
        )
        gap = abs((value.g + 1.0) - value.d_max_exact) / value.d_max_exact
        worst = max(worst, gap)
        assert gap <= 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        5,
        f"|(g+1) - exact peak| <= {worst:.2%} of the peak at p=q=1000 "
        f"in {elapsed:.1f} s",
    )


def test_criterion_6_working_set_matches_full_set(optimization_runs):
    *_, runs, elapsed = optimization_runs
    ws, full = runs["failsafe"], runs["fullset"]
    assert ws.converged and ws.verified
    assert full.converged and full.verified
    gap = abs(ws.cost - full.cost) / full.cost
    assert gap <= 0.01
    assert ws.eval_counter.total < full.eval_counter.total
    total_time = elapsed["failsafe"] + elapsed["fullset"]
    assert total_time < 600.0
    _report(
        6,
        f"cost {ws.cost:.5f} (working set) vs {full.cost:.5f} (full set), "
        f"gap {gap:.2%} (<=1%); evaluations {ws.eval_counter.total} < "
        f"{full.eval_counter.total}; {total_time:.0f} s",
    )


def test_criterion_7_failsafe_superiority(optimization_runs):
    model, gm, scenarios, fs, runs, elapsed = optimization_runs
    basic, ws = runs["basic"], runs["failsafe"]
    params = ws.params_final

    g_basic = evaluate_all(basic.design, model, scenarios, [gm], params)
    assert np.any(g_basic > 0), "basic design must violate some failure scenario"

    g_failsafe = evaluate_all(ws.design, model, scenarios, [gm], params)
    assert np.all(g_failsafe <= 1e-3)

    assert ws.cost > basic.cost
    total_time = elapsed["basic"] + elapsed["failsafe"]
    assert total_time < 600.0
    _report(
        7,
        f"basic design violates {int((g_basic > 0).sum())} scenario(s) "
        f"(max g {g_basic.max():+.3f}) at cost {basic.cost:.4f}; fail-safe "
        f"satisfies all (max g {g_failsafe.max():+.2e}) at cost {ws.cost:.4f}",
    )


def test_criterion_8_working_set_protocol(optimization_runs):
    model, gm, scenarios, fs, runs, _ = optimization_runs
    ws = runs["failsafe"]

    history = ws.working_set_history
    assert history[0] == (0,), "sub-problem 0 must hold only the no-failure case"
    for earlier, later in zip(history, history[1:]):
        assert set(earlier) < set(later), "working sets must expand strictly"
    assert ws.subproblems[0].scenario_ids == (0,)

    g_all = evaluate_all(ws.design, model, scenarios, [gm], ws.params_final)
    assert np.all(g_all <= fs.violation_tol)
    assert ws.verified
    _report(
        8,
        f"working sets {[len(h) for h in history]} strictly expanding from "
        f"{{no-failure}}; post-hoc max g {g_all.max():+.2e} <= {fs.violation_tol}",
    )


def test_criterion_9_lp_against_vertex_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 7))
        c = rng.uniform(0.05, 2.0, n)
        x_feas = rng.uniform(0.0, 1.0, n)
        A = rng.standard_normal((m, n))
        b = A @ x_feas + rng.uniform(0.0, 1.0, m)
        A_full = np.vstack([A, np.eye(n)])
        b_full = np.concatenate([b, np.ones(n)])
        x, status = solve_inequality_lp(c, A_full, b_full)
        assert status == "optimal"

        rows = np.vstack([A_full, -np.eye(n)])
        rhs = np.concatenate([b_full, np.zeros(n)])
        best = np.inf
        for combo in combinations(range(rows.shape[0]), n):
            sub = rows[list(combo)]
            if abs(np.linalg.det(sub)) < 1e-10:
                continue
            v = np.linalg.solve(sub, rhs[list(combo)])
            if np.all(rows @ v <= rhs + 1e-9):
                best = min(best, float(c @ v))
        err = abs(float(c @ x) - best)
        worst = max(worst, err)
        assert err <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        9,
        f"200 random LPs match vertex enumeration, worst objective gap "
        f"{worst:.1e} (<=1e-9) in {elapsed:.1f} s",
    )
