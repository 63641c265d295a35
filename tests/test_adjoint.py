"""Adjoint gradients against independent oracles."""

import numpy as np
import pytest
import scipy.linalg as la
import sympy as sp

from failsafe_dampers import (
    ConstraintParams,
    DesignVector,
    FailureScenario,
    adjoint_gradient,
    evaluate_drift_constraint,
    fd_gradient,
    newmark_solve,
    no_failure,
)
from failsafe_dampers.adjoint import (
    accumulate_gradient,
    dg_du_trajectory,
    solve_adjoint,
)
from failsafe_dampers.dynamics import ResponseHistory
from failsafe_dampers.model import assemble_added_damping

from conftest import shear_frame, synthetic_record
from test_dynamics import BATCHES, scenario_batch


@pytest.fixture(scope="module")
def unit_model():
    return shear_frame(1, mass=1.0, story_k=1.0, d_allow=1.0, zeta=0.0)


def history_from_drifts(values, dt=0.1):
    u = np.asarray(values, dtype=float).reshape(-1, 1)
    z = np.zeros_like(u)
    return ResponseHistory(u=u, v=z, a=z, dt=dt, u0=u[0], v0=z[0])


def stepwise_adjoint(model, C_d, history, forcing):
    """Slow reference: the adjoint block system solved step by step,
    backward from xi_{N+1} = 0. Returns lambda_u, shape (N+1, n)."""
    n = model.n_dof
    dt, beta, gamma = history.dt, history.beta, history.gamma
    c1 = gamma / (beta * dt)
    c2 = 1.0 / (beta * dt * dt)
    k_av = dt * (1.0 - gamma / (2.0 * beta))
    k_aa = 1.0 / (2.0 * beta) - 1.0
    k_vv = 1.0 - gamma / beta
    k_va = 1.0 / (beta * dt)
    eye = np.eye(n)
    A = np.zeros((3 * n, 3 * n))
    A[:n, :n] = model.mass.T
    A[:n, 2 * n :] = eye
    A[n : 2 * n, :n] = (model.inherent_damping + C_d).T
    A[n : 2 * n, n : 2 * n] = eye
    A[2 * n :, :n] = model.stiffness.T
    A[2 * n :, n : 2 * n] = -c1 * eye
    A[2 * n :, 2 * n :] = -c2 * eye
    factor = la.lu_factor(A)

    lam_u, lam_v, lam_a = (np.zeros_like(forcing) for _ in range(3))
    b = np.zeros(3 * n)
    b[2 * n :] = -forcing[-1]
    xi = la.lu_solve(factor, b)
    lam_u[-1], lam_v[-1], lam_a[-1] = xi[:n], xi[n : 2 * n], xi[2 * n :]
    for i in range(forcing.shape[0] - 2, 0, -1):
        lv, la_next = lam_v[i + 1], lam_a[i + 1]
        b[:n] = k_av * lv - k_aa * la_next
        b[n : 2 * n] = k_vv * lv - k_va * la_next
        b[2 * n :] = -c1 * lv - c2 * la_next - forcing[i]
        xi = la.lu_solve(factor, b)
        lam_u[i], lam_v[i], lam_a[i] = xi[:n], xi[n : 2 * n], xi[2 * n :]
    return lam_u


class TestDgDu:
    def test_zero_history_gives_zero(self, unit_model):
        hist = history_from_drifts(np.zeros(6))
        out = dg_du_trajectory(hist, unit_model, ConstraintParams(p=8, q=8))
        assert np.all(out == 0.0)

    def test_zero_drift_step_contributes_nothing(self, unit_model):
        hist = history_from_drifts([0.0, 0.5, 0.0, 0.8, 0.0])
        out = dg_du_trajectory(hist, unit_model, ConstraintParams(p=4, q=2))
        assert np.all(out[[0, 2, 4]] == 0.0)
        assert np.all(out[[1, 3]] != 0.0)

    def test_two_step_hand_derivation(self, unit_model):
        # Single drift, samples (0, 0.6, 1.0), dt = 0.1, p = q = 2. With one
        # drift the aggregation collapses to g = d_tilde - 1, so
        # dg/du_i = w_i u_i / (T d_tilde). Frozen values recomputed
        # symbolically below.
        dt, u1, u2 = 0.1, 0.6, 1.0
        hist = history_from_drifts([0.0, u1, u2], dt=dt)
        params = ConstraintParams(p=2, q=2)
        got = dg_du_trajectory(hist, unit_model, params)[:, 0]

        x0, x1, x2 = sp.symbols("x0 x1 x2")
        T = 2 * sp.Rational(1, 10)
        w = [sp.Rational(1, 20), sp.Rational(1, 10), sp.Rational(1, 20)]
        d_tilde = sp.sqrt((w[0] * x0**2 + w[1] * x1**2 + w[2] * x2**2) / T)
        g = d_tilde - 1
        subs = {x0: 0, x1: sp.Rational(6, 10), x2: 1}
        expected = [float(sp.diff(g, x).subs(subs)) for x in (x0, x1, x2)]

        assert got == pytest.approx(expected, rel=1e-12)
        # 0.3 / sqrt(0.43) and 0.25 / sqrt(0.43), from the symbolic oracle
        assert got[1] == pytest.approx(0.457495710997814, rel=1e-12)
        assert got[2] == pytest.approx(0.381246425831512, rel=1e-12)

    def test_single_step_accessor_matches_trajectory(self, unit_model):
        hist = history_from_drifts([0.0, 0.3, -0.9, 0.5])
        params = ConstraintParams(p=4, q=3)
        full = dg_du_trajectory(hist, unit_model, params)
        # One drift: row i is proportional to w_i sign(u_i) |u_i|^(p-1).
        u = np.array([0.0, 0.3, -0.9, 0.5])
        step = np.array([0.5, 1.0, 1.0, 0.5]) * np.sign(u) * np.abs(u) ** 3
        assert full[:, 0] == pytest.approx(step * full[1, 0] / step[1], rel=1e-12)


class TestBackwardSweep:
    def test_zero_forcing_zero_adjoint_and_gradient(self, frame_2dof, record_short):
        design = DesignVector(x=[0.5, 0.5], c_bar=300.0)
        C_d = assemble_added_damping(frame_2dof, design)
        hist = newmark_solve(frame_2dof, C_d, record_short)
        lambda_u = solve_adjoint(
            frame_2dof, C_d, hist, np.zeros((hist.u.shape[0], 2))
        )
        assert np.all(lambda_u == 0.0)
        grad = accumulate_gradient(frame_2dof, design, None, hist.v, lambda_u)
        assert np.all(grad == 0.0)


@pytest.mark.parametrize("pq", [2, 8, 100])
@pytest.mark.parametrize("beta", [0.25, 1.0 / 6.0])
@pytest.mark.parametrize("x", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 3, 4, 8])
def test_transition_sweep_matches_stepwise_reference(n, x, beta, pq):
    model = shear_frame(n)
    gm = synthetic_record(600, dt=0.01, seed=11, peak=2.0)
    C_d = assemble_added_damping(model, DesignVector(x=[x] * n, c_bar=500.0))
    hist = newmark_solve(model, C_d, gm, beta=beta)
    forcing = dg_du_trajectory(hist, model, ConstraintParams(p=pq, q=pq))
    got = solve_adjoint(model, C_d, hist, forcing)
    want = stepwise_adjoint(model, C_d, hist, forcing)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("beta", [0.25, 1.0 / 6.0])
@pytest.mark.parametrize("size", sorted(BATCHES))
def test_batched_adjoint_matches_stepwise_reference(size, beta):
    model, _, C_d = scenario_batch(size)
    gm = synthetic_record(600, dt=0.01, seed=11, peak=2.0)
    hist = newmark_solve(model, C_d, gm, beta=beta)
    forcing = dg_du_trajectory(hist, model, ConstraintParams(p=100, q=100))
    got = solve_adjoint(model, C_d, hist, forcing)
    assert got.shape == (601, size, 4)
    for b in range(size):
        want = stepwise_adjoint(model, C_d[b], hist, forcing[:, b])
        assert np.abs(got[:, b] - want).max() <= 1e-12 * np.abs(want).max()


def per_pair_g_and_gradients(model, design, scenarios, gm, params):
    """Slow reference: one primal and one adjoint analysis per scenario."""
    g, grads = [], []
    for sc in scenarios:
        C_d = assemble_added_damping(model, design, sc)
        hist = newmark_solve(model, C_d, gm)
        g.append(evaluate_drift_constraint(hist, model, params).g)
        grads.append(adjoint_gradient(model, design, sc, gm, params, history=hist))
    return np.array(g), np.array(grads)


@pytest.mark.parametrize("size", sorted(BATCHES))
def test_batched_g_and_gradients_match_per_pair_loop(size):
    model, scenarios, C_d = scenario_batch(size)
    design = DesignVector(x=[0.9, 0.2, 0.6, 0.4], c_bar=500.0)
    gm = synthetic_record(400, dt=0.01, seed=3, peak=2.0)
    params = ConstraintParams(p=600, q=600)
    hist = newmark_solve(model, C_d, gm)
    g = evaluate_drift_constraint(hist, model, params).g
    grads = adjoint_gradient(model, design, scenarios, gm, params, history=hist)
    g_ref, grads_ref = per_pair_g_and_gradients(model, design, scenarios, gm, params)
    assert g.shape == (size,) and grads.shape == (size, 4)
    assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    for got, want in zip(grads, grads_ref):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # Completely failed dampers get exactly zero in the batch too.
    for sc, got in zip(scenarios, grads):
        if sc.factor == 0.0:
            assert np.all(got[list(sc.damaged)] == 0.0)


class TestAccumulationKernel:
    def test_partial_failure_scales_linearly(self, frame_2dof):
        rng = np.random.default_rng(3)
        V = rng.standard_normal((20, 2))
        L = rng.standard_normal((20, 2))
        design = DesignVector(x=[0.7, 0.7], c_bar=1000.0)
        g_none = accumulate_gradient(frame_2dof, design, no_failure(), V, L)
        sc = FailureScenario(id=1, damaged=(0,), factor=0.5)
        g_half = accumulate_gradient(frame_2dof, design, sc, V, L)
        assert g_half[0] == pytest.approx(0.5 * g_none[0], rel=1e-14)
        assert g_half[1] == g_none[1]

    def test_complete_failure_component_exactly_zero(self, frame_2dof):
        rng = np.random.default_rng(4)
        V = rng.standard_normal((20, 2))
        L = rng.standard_normal((20, 2))
        design = DesignVector(x=[0.7, 0.7], c_bar=1000.0)
        sc = FailureScenario(id=1, damaged=(1,), factor=0.0)
        grad = accumulate_gradient(frame_2dof, design, sc, V, L)
        assert grad[1] == 0.0


class TestGradientConsistency:
    scenarios = [
        no_failure(),
        FailureScenario(id=1, damaged=(0,), factor=0.0),
        FailureScenario(id=2, damaged=(1,), factor=0.5),
    ]

    @pytest.mark.parametrize("pq,tol", [(8, 1e-6), (100, 1e-3)])
    def test_matches_central_differences(self, frame_2dof, record_short, pq, tol):
        design = DesignVector(x=[0.5, 0.4], c_bar=300.0)
        params = ConstraintParams(p=pq, q=pq)
        for sc in self.scenarios:
            adj = adjoint_gradient(frame_2dof, design, sc, record_short, params)
            fd = fd_gradient(
                frame_2dof, design, sc, record_short, params, h=1e-6
            )
            err = np.abs(adj - fd).max() / max(1.0, np.abs(fd).max())
            assert err <= tol, f"{sc.label()}: {err:.2e} > {tol}"

    def test_failed_damper_gradient_is_zero(self, frame_2dof, record_short):
        design = DesignVector(x=[0.5, 0.4], c_bar=300.0)
        params = ConstraintParams(p=8, q=8)
        sc = FailureScenario(id=1, damaged=(0,), factor=0.0)
        adj = adjoint_gradient(frame_2dof, design, sc, record_short, params)
        assert adj[0] == 0.0

    def test_monotone_damper_has_nonpositive_gradient(self):
        # More damping reduces the peak on this SDOF, so the constraint
        # gradient must point down.
        model = shear_frame(1, mass=1.0, story_k=40.0, d_allow=0.05)
        gm = synthetic_record(300, dt=0.02, seed=6, peak=1.5)
        design = DesignVector(x=[0.5], c_bar=8.0)
        adj = adjoint_gradient(
            model, design, no_failure(), gm, ConstraintParams(p=8, q=8)
        )
        assert adj[0] < 0.0

    def test_multi_row_damper_transform(self, record_short):
        # Devices may couple several DOFs; the assembly and the gradient
        # accumulation both accept transforms with more than one row.
        from failsafe_dampers.model import StructuralModel

        base = shear_frame(2, mass=10.0, story_k=2000.0, d_allow=0.03)
        coupled = np.array([[1.0, 0.0], [0.3, -0.7]])
        model = StructuralModel(
            mass=base.mass,
            stiffness=base.stiffness,
            inherent_damping=base.inherent_damping,
            influence=base.influence,
            drift_transform=base.drift_transform,
            d_allow=base.d_allow,
            damper_transforms=(coupled, base.drift_transform[1:2].copy()),
        )
        design = DesignVector(x=[0.5, 0.4], c_bar=300.0)
        params = ConstraintParams(p=8, q=8)
        adj = adjoint_gradient(model, design, no_failure(), record_short, params)
        fd = fd_gradient(model, design, no_failure(), record_short, params, h=1e-6)
        err = np.abs(adj - fd).max() / max(1.0, np.abs(fd).max())
        assert err <= 1e-6

    def test_nonzero_initial_conditions_rejected(self, frame_2dof, record_short):
        design = DesignVector(x=[0.5, 0.4], c_bar=300.0)
        C_d = assemble_added_damping(frame_2dof, design)
        hist = newmark_solve(
            frame_2dof, C_d, record_short, u0=np.array([0.01, 0.0])
        )
        with pytest.raises(ValueError, match="initial conditions"):
            adjoint_gradient(
                frame_2dof,
                design,
                no_failure(),
                record_short,
                ConstraintParams(p=8, q=8),
                history=hist,
            )
