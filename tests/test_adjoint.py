"""Adjoint gradients against independent oracles."""

from dataclasses import replace

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
import failsafe_dampers.adjoint as adjoint_module
from failsafe_dampers.adjoint import (
    accumulate_gradient,
    dg_du_trajectory,
    gradient_check,
    solve_adjoint,
)
from failsafe_dampers.constraints import (
    aggregation_sensitivities,
    normalized_drifts,
    time_weights,
)
from failsafe_dampers import dynamics
from failsafe_dampers.dynamics import ResponseHistory, transition_matrices
from failsafe_dampers.model import assemble_added_damping, damper_scales

from conftest import record_sweep, shear_frame, synthetic_record
from test_constraints import EXPONENTS, dense_smooth_drift_indices
from test_dynamics import BATCHES, repeated_stack, scenario_batch


@pytest.fixture(scope="module")
def unit_model():
    return shear_frame(1, mass=1.0, story_k=1.0, d_allow=1.0, zeta=0.0)


def history_from_drifts(values, dt=0.1):
    u = np.asarray(values, dtype=float).reshape(-1, 1)
    z = np.zeros_like(u)
    return ResponseHistory(u=u, v=z, a=z, dt=dt)


def stepwise_adjoint(model, C_d, history, forcing):
    """Slow reference: the adjoint block system solved step by step,
    backward from xi_{N+1} = 0. Returns lambda_u, shape (N+1, n)."""
    n = model.n_dof
    dt, beta, gamma = history.dt, dynamics.BETA, dynamics.GAMMA
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


def dense_dg_du_trajectory(history, model, params):
    """Slow reference: dg/du with the drift pass repeated and every ratio
    raised to p - 1, time first."""
    rho = np.moveaxis(normalized_drifts(history, model), -1, 0)
    d_tilde = dense_smooth_drift_indices(history, model, params)
    sens = aggregation_sensitivities(d_tilde, params.p)
    w = time_weights(rho.shape[0], history.dt)
    duration = history.n_steps * history.dt
    ratio = np.abs(rho) / np.where(d_tilde > 0, d_tilde, 1.0)
    core = np.sign(rho) * ratio ** (params.p - 1)
    core *= (w / duration).reshape((-1,) + (1,) * (rho.ndim - 1))
    core *= sens / model.d_allow
    return core @ model.drift_transform


def last_nonzero_row(a):
    return int(np.flatnonzero(np.any(a, axis=tuple(range(1, a.ndim))))[-1])


class TestDgDu:
    def test_zero_history_gives_zero(self, unit_model):
        hist = history_from_drifts(np.zeros(6))
        out = dg_du_trajectory(hist, unit_model, ConstraintParams(p=8))
        assert np.all(out == 0.0)

    def test_zero_drift_step_contributes_nothing(self, unit_model):
        hist = history_from_drifts([0.0, 0.5, 0.0, 0.8, 0.0])
        out = dg_du_trajectory(hist, unit_model, ConstraintParams(p=4))
        assert np.all(out[[0, 2, 4]] == 0.0)
        assert np.all(out[[1, 3]] != 0.0)

    def test_two_step_hand_derivation(self, unit_model):
        # Single drift, samples (0, 0.6, 1.0), dt = 0.1, p = q = 2. With one
        # drift the aggregation collapses to g = d_tilde - 1, so
        # dg/du_i = w_i u_i / (T d_tilde). Frozen values recomputed
        # symbolically below.
        dt, u1, u2 = 0.1, 0.6, 1.0
        hist = history_from_drifts([0.0, u1, u2], dt=dt)
        params = ConstraintParams(p=2)
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
        params = ConstraintParams(p=4)
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
def test_transition_sweep_matches_stepwise_reference(n, x, beta, pq, monkeypatch):
    # The costate sweep is exact for any Newmark beta, as the primal's is.
    monkeypatch.setattr(dynamics, "BETA", beta)
    model = shear_frame(n)
    gm = synthetic_record(600, dt=0.01, seed=11, peak=2.0)
    C_d = assemble_added_damping(model, DesignVector(x=[x] * n, c_bar=500.0))
    hist = newmark_solve(model, C_d, gm)
    forcing = dg_du_trajectory(hist, model, ConstraintParams(p=pq))
    got = solve_adjoint(model, C_d, hist, forcing)
    want = stepwise_adjoint(model, C_d, hist, forcing)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("beta", [0.25, 1.0 / 6.0])
@pytest.mark.parametrize("size", sorted(BATCHES))
def test_batched_adjoint_matches_stepwise_reference(size, beta, monkeypatch):
    monkeypatch.setattr(dynamics, "BETA", beta)
    model, _, C_d = scenario_batch(size)
    gm = synthetic_record(600, dt=0.01, seed=11, peak=2.0)
    hist = newmark_solve(model, C_d, gm)
    forcing = dg_du_trajectory(hist, model, ConstraintParams(p=100))
    got = solve_adjoint(model, C_d, hist, forcing)
    assert got.shape == (601, size, 4)
    for b in range(size):
        want = stepwise_adjoint(model, C_d[b], hist, forcing[:, b])
        assert np.abs(got[:, b] - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("pq", [8, 100])
@pytest.mark.parametrize("beta", [0.25, 1.0 / 6.0])
def test_undamped_frame_adjoint_blocks_match_rows(beta, pq, monkeypatch):
    # No damping at all: every eigenvalue of P, and of the P' the adjoint
    # sweeps, lies on the unit circle, so the block powers never decay.
    # The reference is the same sweep row by row: over 2,000 undamped steps
    # the stepwise block system itself drifts by about 1e-12.
    monkeypatch.setattr(dynamics, "BETA", beta)
    model = shear_frame(4, zeta=0.0)
    C_d = np.zeros((4, 4))
    gm = synthetic_record(2000, dt=0.01, seed=5, peak=1.5)
    P, _ = transition_matrices(model.mass, C_d, model.stiffness, gm.dt)
    assert np.abs(np.linalg.eigvals(P)).max() == pytest.approx(1.0, abs=1e-12)
    hist = newmark_solve(model, C_d, gm)
    forcing = dg_du_trajectory(hist, model, ConstraintParams(p=pq))
    blocks = []
    real = adjoint_module.transition_sweep

    def sweep(powers, S):
        blocks.append(len(powers))
        real(powers if len(blocks) == 1 else powers[:1], S)

    monkeypatch.setattr(adjoint_module, "transition_sweep", sweep)
    got = solve_adjoint(model, C_d, hist, forcing)
    want = solve_adjoint(model, C_d, hist, forcing)
    assert blocks[0] == len(hist.powers) > 20
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("pq", EXPONENTS)
def test_pruned_dg_du_matches_dense_reference(pq):
    model, _, C_d = scenario_batch(11)
    gm = synthetic_record(600, dt=0.01, seed=11, peak=2.0)
    hist = newmark_solve(model, C_d, gm)
    params = ConstraintParams(p=pq)
    value = evaluate_drift_constraint(hist, model, params)
    got = dg_du_trajectory(hist, model, params, value=value)
    want = dense_dg_du_trajectory(hist, model, params)
    assert got.shape == want.shape == (601, 11, 4)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # The skipped powers are the ones that come out 0: the same entries
    # are zero, down to the subnormal range.
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.array_equal(dg_du_trajectory(hist, model, params), got)


def full_product_dg_du(history, model, params, value):
    """Reference: dg/du with every time row through H' in one product, the
    pruned terms of `dg_du_trajectory` placed in an all-row array, time
    first."""
    rho, d_tilde = np.moveaxis(value.rho, -1, 0), value.d_tilde
    sens = aggregation_sensitivities(d_tilde, params.p)
    w = time_weights(rho.shape[0], history.dt)
    ratio = np.abs(rho) / np.where(d_tilde > 0, d_tilde, 1.0)
    flat = ratio.reshape(len(rho), -1)
    t, col = np.nonzero(flat > np.exp(-746.0 / (params.p - 1)))
    core = np.zeros(rho.shape)
    core.reshape(len(rho), -1)[t, col] = (
        np.sign(rho.reshape(len(rho), -1)[t, col])
        * flat[t, col] ** (params.p - 1)
        * (w / (history.n_steps * history.dt))[t]
        * (sens / model.d_allow).ravel()[col]
    )
    return core @ model.drift_transform


@pytest.mark.parametrize("rows", [1, 20])
@pytest.mark.parametrize("size", [None, 3])
def test_forcing_matches_the_full_product_bitwise(size, rows):
    # A drift transform with general entries, whose products round, and
    # drifts near their peaks in the first rows only, so that the forcing
    # ends early: built only through its last nonzero row, it equals the
    # all-row product bit for bit, for one history and for a batch. numpy
    # multiplies a lone row of one history by H' with its vector-matrix
    # kernel, which rounds otherwise: that row agrees to 1e-15 of its largest
    # entry.
    rng = np.random.default_rng(3)
    model = replace(shear_frame(4), drift_transform=rng.standard_normal((4, 4)))
    shape = (601,) if size is None else (601, size)
    rho = 1e-3 * rng.standard_normal(shape + (4,))
    rho[:rows] = rng.uniform(0.95, 1.0, rho[:rows].shape) * rng.choice([-1, 1], rho[:rows].shape)
    u = (rho * model.d_allow) @ np.linalg.inv(model.drift_transform).T
    hist = ResponseHistory(u=u, v=np.zeros_like(u), a=np.zeros_like(u), dt=0.01)
    params = ConstraintParams(p=600)
    value = evaluate_drift_constraint(hist, model, params)
    got = dg_du_trajectory(hist, model, params, value=value)
    want = full_product_dg_du(hist, model, params, value)
    assert last_nonzero_row(want) == rows - 1
    if size is None and rows == 1:
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want[0]).max()
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pq", [2, 100, 5100, 1_000_000])
@pytest.mark.parametrize("size", [None, 3])
def test_forcing_matches_the_time_first_rows_on_a_shear_frame(size, pq):
    # The time-contiguous drift columns go through H' in one product per
    # response; the reference sends each time row of the time-first terms
    # through it. A shear frame's H has two entries of +-1 per column, so
    # each entry rounds once either way: the same length, bit for bit.
    model = shear_frame(4)
    gm = synthetic_record(600, dt=0.01, seed=11, peak=2.0)
    C_d = np.zeros((4, 4)) if size is None else np.stack([c * np.eye(4) for c in (0.0, 150.0, 600.0)])
    hist = newmark_solve(model, C_d, gm)
    params = ConstraintParams(p=pq)
    value = evaluate_drift_constraint(hist, model, params)
    got = dg_du_trajectory(hist, model, params, value=value)
    want = full_product_dg_du(hist, model, params, value)
    assert got.shape == want.shape == hist.u.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("pq", [600, 37100, 1_000_000])
def test_truncated_adjoint_matches_stepwise_reference(pq):
    model, scenarios, C_d = scenario_batch(3)
    design = DesignVector(x=[0.9, 0.2, 0.6, 0.4], c_bar=500.0)
    gm = synthetic_record(600, dt=0.01, seed=11, peak=2.0)
    hist = newmark_solve(model, C_d, gm)
    forcing = dg_du_trajectory(hist, model, ConstraintParams(p=pq))
    k = last_nonzero_row(forcing)
    assert 0 < k < 600  # the forcing ends before the record does
    got = solve_adjoint(model, C_d, hist, forcing)
    # The costate stops at row k: every later row of the reference is zero.
    assert got.shape == (k + 1, 3, 4)
    for b in range(3):
        want = stepwise_adjoint(model, C_d[b], hist, forcing[:, b])
        assert np.all(want[k + 1 :] == 0.0)
        assert np.abs(got[:, b] - want[: k + 1]).max() <= 1e-12 * np.abs(want).max()
    assert np.any(got[k] != 0.0)
    # Contracting rows 1..k is contracting every row: the rest add 0.
    rows = model.damper_rows
    padded = np.zeros(hist.u.shape)
    padded[: k + 1] = got
    full = np.sum((hist.v[1:] @ rows.T) * (padded[1:] @ rows.T), axis=0)
    want_grad = design.c_bar * damper_scales(model, scenarios) * (full @ model.row_owner)
    grad = accumulate_gradient(model, design, scenarios, hist.v, got)
    assert np.array_equal(grad, want_grad)


def per_pair_g_and_gradients(model, design, scenarios, gm, params):
    """Slow reference: one primal and one adjoint analysis per scenario."""
    g, grads = [], []
    for sc in scenarios:
        sweep = record_sweep(model, design, sc, gm, params)
        g.append(sweep["value"].g)
        grads.append(adjoint_gradient(model, design, sc, params, **sweep))
    return np.array(g), np.array(grads)


@pytest.mark.parametrize("size", sorted(BATCHES))
def test_batched_g_and_gradients_match_per_pair_loop(size, monkeypatch):
    model, scenarios, C_d = scenario_batch(size)
    design = DesignVector(x=[0.9, 0.2, 0.6, 0.4], c_bar=500.0)
    gm = synthetic_record(400, dt=0.01, seed=3, peak=2.0)
    params = ConstraintParams(p=600)
    sweep = record_sweep(model, design, scenarios, gm, params)
    assert np.array_equal(sweep["C_d"], C_d)
    g = sweep["value"].g
    # The gradient is of the caller's sweep: it assembles, integrates and
    # evaluates nothing of its own.
    for name in ("assemble_added_damping", "newmark_solve", "evaluate_drift_constraint"):
        monkeypatch.setattr(adjoint_module, name, None)
    grads = adjoint_gradient(model, design, scenarios, params, **sweep)
    monkeypatch.undo()
    g_ref, grads_ref = per_pair_g_and_gradients(model, design, scenarios, gm, params)
    assert g.shape == (size,) and grads.shape == (size, 4)
    assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
    for got, want in zip(grads, grads_ref):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # Completely failed dampers get exactly zero in the batch too.
    for sc, got in zip(scenarios, grads):
        if sc.factor == 0.0:
            assert np.all(got[list(sc.damaged)] == 0.0)


@pytest.mark.parametrize(
    "forcing_rows,keep_powers,message",
    [
        (10, True, r"forcing shape \(10, 2\) does not match history"),
        (51, False, "the history carries no transition matrices to sweep"),
    ],
    ids=["forcing-shape", "no-powers"],
)
def test_malformed_adjoint_argument_raises(forcing_rows, keep_powers, message):
    model = shear_frame(2)
    hist = newmark_solve(model, np.zeros((2, 2)), synthetic_record(50))
    if not keep_powers:
        hist = ResponseHistory(hist.u, hist.v, hist.a, hist.dt)
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_adjoint(model, np.zeros((2, 2)), hist, np.zeros((forcing_rows, 2)))


def test_the_adjoint_takes_the_damping_of_the_whole_stack():
    # The history's index maps the stack onto its swept systems, so the
    # damping that goes with it is the stack's, not the swept systems'.
    model, gm, _, _, stack = repeated_stack()
    hist = newmark_solve(model, stack, gm)
    forcing = dg_du_trajectory(hist, model, ConstraintParams(p=8))
    assert len(solve_adjoint(model, stack, hist, forcing)[0]) == hist.u.shape[1] == 6
    with pytest.raises(ValueError, match="does not match the history"):
        solve_adjoint(model, stack[:6], hist, forcing)


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
        params = ConstraintParams(p=pq)
        for sc in self.scenarios:
            sweep = record_sweep(frame_2dof, design, sc, record_short, params)
            adj = adjoint_gradient(frame_2dof, design, sc, params, **sweep)
            fd = fd_gradient(
                frame_2dof, design, sc, record_short, params, h=1e-6
            )
            err = np.abs(adj - fd).max() / max(1.0, np.abs(fd).max())
            assert err <= tol, f"{sc.label()}: {err:.2e} > {tol}"

    @pytest.mark.parametrize("x", [[0.0, 0.5], [1.0, 0.5], [0.0, 1.0]])
    def test_finite_differences_at_the_box_bounds(self, frame_2dof, record_short, x):
        # A damper at 0 or at c_bar: the difference turns one-sided instead
        # of leaving [0, 1], and is first-order accurate there.
        design = DesignVector(x=x, c_bar=300.0)
        params = ConstraintParams(p=8)
        rows = gradient_check(frame_2dof, design, self.scenarios, record_short, params)
        assert max(r["max_rel_error"] for r in rows) <= 1e-5

    def test_scenarios_that_share_a_matrix_share_their_rows(self):
        # Dampers 0 and 2 at zero: the intact frame, either of them failed
        # and both at half have one matrix. Their adjoint and FD rows are
        # bitwise equal on every damper that none of them fails, and zero
        # on a completely failed one.
        model, gm, scenarios, design, stack = repeated_stack()
        rows = gradient_check(model, design, scenarios, gm, ConstraintParams(p=8))
        assert max(r["max_rel_error"] for r in rows) <= 1e-5
        shared = [b for b in range(1, 11) if stack[b].tobytes() == stack[0].tobytes()]
        assert [scenarios[b].damaged for b in shared] == [(0,), (2,), (0, 2)]
        for b in shared:
            same = damper_scales(model, scenarios[b]) == damper_scales(model, scenarios[0])
            assert same.tolist() == [k not in scenarios[b].damaged for k in range(4)]
            for key in ("adjoint", "finite_difference"):
                assert rows[b][key][same].tobytes() == rows[0][key][same].tobytes()
            assert np.all(rows[b]["adjoint"][damper_scales(model, scenarios[b]) == 0.0] == 0.0)

    def test_failed_damper_gradient_is_zero(self, frame_2dof, record_short):
        design = DesignVector(x=[0.5, 0.4], c_bar=300.0)
        params = ConstraintParams(p=8)
        sc = FailureScenario(id=1, damaged=(0,), factor=0.0)
        sweep = record_sweep(frame_2dof, design, sc, record_short, params)
        adj = adjoint_gradient(frame_2dof, design, sc, params, **sweep)
        assert adj[0] == 0.0

    def test_all_dampers_failed_is_the_bare_frame(self):
        # With every device gone the scenario sees the bare frame: its g is
        # the bare frame's and its gradient row is exactly zero.
        model = shear_frame(4)
        gm = synthetic_record(400, dt=0.01, seed=3, peak=2.0)
        design = DesignVector(x=[0.9, 0.2, 0.6, 0.4], c_bar=500.0)
        params = ConstraintParams(p=600)
        scenarios = [no_failure(), FailureScenario(id=1, damaged=(0, 1, 2, 3), factor=0.0)]
        sweep = record_sweep(model, design, scenarios, gm, params)
        value = sweep["value"]
        grads = adjoint_gradient(model, design, scenarios, params, **sweep)
        bare = newmark_solve(model, np.zeros((4, 4)), gm)
        g_bare = evaluate_drift_constraint(bare, model, params).g
        assert value.g[1] == pytest.approx(g_bare, rel=1e-12)
        assert value.g[1] > value.g[0]
        assert np.all(grads[1] == 0.0)
        assert np.all(grads[0] < 0.0)

    def test_monotone_damper_has_nonpositive_gradient(self):
        # More damping reduces the peak on this SDOF, so the constraint
        # gradient must point down.
        model = shear_frame(1, mass=1.0, story_k=40.0, d_allow=0.05)
        gm = synthetic_record(300, dt=0.02, seed=6, peak=1.5)
        design = DesignVector(x=[0.5], c_bar=8.0)
        params = ConstraintParams(p=8)
        sweep = record_sweep(model, design, no_failure(), gm, params)
        adj = adjoint_gradient(model, design, no_failure(), params, **sweep)
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
        params = ConstraintParams(p=8)
        sweep = record_sweep(model, design, no_failure(), record_short, params)
        adj = adjoint_gradient(model, design, no_failure(), params, **sweep)
        fd = fd_gradient(model, design, no_failure(), record_short, params, h=1e-6)
        err = np.abs(adj - fd).max() / max(1.0, np.abs(fd).max())
        assert err <= 1e-6
