"""Newmark integration, response spectra, record parsing."""

import math

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from failsafe_dampers import (
    DesignVector,
    GroundMotion,
    InputError,
    StructuralModel,
    assemble_added_damping,
    enumerate_scenarios,
    load_ground_motion,
    newmark_solve,
    select_dominant_record,
    spectral_displacement,
)
from failsafe_dampers import ConstraintParams, adjoint, adjoint_gradient, dynamics
from failsafe_dampers.dynamics import (
    STANDARD_GRAVITY,
    transition_matrices,
    transition_powers,
    transition_sweep,
)
from failsafe_dampers.errors import ConvergenceError

from conftest import (
    buckled_frame,
    frame_with_redundant_dampers,
    shear_frame,
    synthetic_record,
    whole_stack_history,
)


def equilibrium_residual(model, C_d, gm, history):
    """Worst relative residual of M a + C v + K u = load over all steps."""
    C = model.inherent_damping + np.asarray(C_d, dtype=float)
    load = -np.outer(gm.scaled_accel, model.mass @ model.influence)
    res = (
        history.a @ model.mass.T
        + history.v @ C.T
        + history.u @ model.stiffness.T
        - load
    )
    res_norm = np.linalg.norm(res, axis=1).max()
    ref = max(
        np.linalg.norm(load, axis=1).max(),
        np.linalg.norm(history.u @ model.stiffness.T, axis=1).max(),
        np.linalg.norm(history.a @ model.mass.T, axis=1).max(),
        1e-300,
    )
    return float(res_norm / ref)


def stepwise_newmark(M, C, K, load, dt, u0, v0, beta, gamma):
    """Slow reference: the Newmark scheme solved step by step, as written."""
    c0 = 1.0 / (beta * dt * dt)
    c1 = gamma / (beta * dt)
    c2 = 1.0 / (beta * dt)
    c3 = 1.0 / (2.0 * beta) - 1.0
    c4 = gamma / beta - 1.0
    c5 = dt * (gamma / (2.0 * beta) - 1.0)
    factor = la.cho_factor(K + c0 * M + c1 * C, lower=True)
    U, V, A = (np.empty_like(load) for _ in range(3))
    U[0], V[0] = u0, v0
    A[0] = np.linalg.solve(M, load[0] - C @ v0 - K @ u0)
    for i in range(load.shape[0] - 1):
        u, v, a = U[i], V[i], A[i]
        rhs = load[i + 1] + M @ (c0 * u + c2 * v + c3 * a) + C @ (c1 * u + c4 * v + c5 * a)
        U[i + 1] = la.cho_solve(factor, rhs)
        A[i + 1] = c0 * (U[i + 1] - u) - c2 * v - c3 * a
        V[i + 1] = v + dt * ((1.0 - gamma) * a + gamma * A[i + 1])
    return U, V, A


def gauss_solve(A, b):
    """Solve A x = b by Gaussian elimination with partial pivoting, in the
    operands' own precision."""
    A, x = A.copy(), b.copy()
    n = x.size
    for j in range(n):
        p = j + int(np.argmax(np.abs(A[j:, j])))
        A[[j, p]], x[[j, p]] = A[[p, j]], x[[p, j]]
        for i in range(j + 1, n):
            f = A[i, j] / A[j, j]
            A[i, j:] -= f * A[j, j:]
            x[i] -= f * x[j]
    for j in range(n - 1, -1, -1):
        x[j] = (x[j] - A[j, j + 1 :] @ x[j + 1 :]) / A[j, j]
    return x


def extended_newmark(M, C, K, load, dt, beta, gamma=0.5):
    """Exact-arithmetic stand-in: `stepwise_newmark` from rest, carried out
    in np.longdouble (64-bit mantissa on x86-64, eps 1.1e-19) on the same
    float64 inputs."""
    ld = np.longdouble
    M, C, K, load = (np.asarray(m, dtype=ld) for m in (M, C, K, load))
    dt, beta, gamma = ld(dt), ld(beta), ld(gamma)
    c0 = 1 / (beta * dt * dt)
    c1 = gamma / (beta * dt)
    c2 = 1 / (beta * dt)
    c3 = 1 / (2 * beta) - 1
    c4 = gamma / beta - 1
    c5 = dt * (gamma / (2 * beta) - 1)
    K_eff = K + c0 * M + c1 * C
    U, V, A = (np.zeros_like(load) for _ in range(3))
    A[0] = gauss_solve(M, load[0])
    for i in range(load.shape[0] - 1):
        u, v, a = U[i], V[i], A[i]
        rhs = load[i + 1] + M @ (c0 * u + c2 * v + c3 * a) + C @ (c1 * u + c4 * v + c5 * a)
        U[i + 1] = gauss_solve(K_eff, rhs)
        A[i + 1] = c0 * (U[i + 1] - u) - c2 * v - c3 * a
        V[i + 1] = v + dt * ((1 - gamma) * a + gamma * A[i + 1])
    return U, V, A


def identity_column_matrices(M, C, K, dt):
    """Slow reference for `transition_matrices`: one Newmark step applied
    to the identity columns of (u, v, a, f), its effective load formed by
    multiplying M and C with those identity blocks."""
    n = M.shape[0]
    beta, gamma = dynamics.BETA, dynamics.GAMMA
    c0 = 1.0 / (beta * dt * dt)
    c1 = gamma / (beta * dt)
    c2 = 1.0 / (beta * dt)
    c3 = 1.0 / (2.0 * beta) - 1.0
    c4 = gamma / beta - 1.0
    c5 = dt * (gamma / (2.0 * beta) - 1.0)
    K_eff = K + c0 * M + c1 * C
    u, v, a, f = np.split(np.eye(4 * n), 4)
    rhs = f + M @ (c0 * u + c2 * v + c3 * a) + C @ (c1 * u + c4 * v + c5 * a)
    u_next = np.linalg.solve(K_eff, rhs)
    a_next = c0 * (u_next - u) - c2 * v - c3 * a
    v_next = v + dt * ((1.0 - gamma) * a + gamma * a_next)
    PQ = np.concatenate([u_next, v_next, a_next], axis=-2)
    return PQ[..., : 3 * n], PQ[..., 3 * n :]


def sdof(period=1.0, zeta=0.0, mass=1.0, d_allow=1.0):
    w = 2.0 * np.pi / period
    k = mass * w * w
    return shear_frame(1, mass=mass, story_k=k, d_allow=d_allow, zeta=zeta)


class TestNewmarkSolve:
    def test_zero_motion_zero_response(self, frame_2dof):
        gm = GroundMotion(name="zero", dt=0.01, accel=np.zeros(101))
        hist = newmark_solve(frame_2dof, np.zeros((2, 2)), gm)
        assert np.all(hist.u == 0.0)
        assert np.all(hist.v == 0.0)
        assert np.all(hist.a == 0.0)

    def test_step_load_matches_closed_form(self):
        # Undamped SDOF, T = 1 s, ground step a_g = -1 m/s^2: the load is
        # +m, so u(t) = (m/k)(1 - cos w t) about the static offset m/k.
        period = 1.0
        model = sdof(period=period)
        w = 2.0 * np.pi / period
        k = w * w
        dt = period / 500.0
        n = 1500
        gm = GroundMotion(name="step", dt=dt, accel=np.full(n + 1, -1.0))
        hist = newmark_solve(model, np.zeros((1, 1)), gm)
        t = hist.times
        expected = (1.0 / k) * (1.0 - np.cos(w * t))
        assert np.abs(hist.u[:, 0] - expected).max() <= 1e-3 * (2.0 / k)

    def test_refined_step_reference(self):
        # Self-convergence: halving dt five times changes the peak by less
        # than 1% of the coarse-run peak (second-order accurate scheme).
        model = sdof(period=1.0, zeta=0.05)
        coarse = synthetic_record(400, dt=0.01, seed=3, peak=2.0)
        fine_accel = np.interp(
            np.linspace(0.0, coarse.duration, 400 * 32 + 1),
            coarse.times,
            coarse.accel,
        )
        fine = GroundMotion(name="fine", dt=coarse.dt / 32.0, accel=fine_accel)
        peak_coarse = np.abs(newmark_solve(model, np.zeros((1, 1)), coarse).u).max()
        peak_fine = np.abs(newmark_solve(model, np.zeros((1, 1)), fine).u).max()
        assert abs(peak_coarse - peak_fine) <= 0.01 * peak_fine

    def test_equilibrium_residual_random_frames(self):
        gm = synthetic_record(200, dt=0.02, seed=9, peak=1.5)
        for n in (1, 3, 5):
            model = shear_frame(n)
            C_d = 50.0 * np.eye(n)
            hist = newmark_solve(model, C_d, gm)
            assert equilibrium_residual(model, C_d, gm, hist) <= 1e-9

    def test_energy_conserved_in_undamped_free_vibration(self):
        # Average acceleration preserves the quadratic energy invariant. The
        # response starts at rest: a short ground pulse sets the frame
        # moving, and from the first unloaded sample on it vibrates freely.
        model = sdof(period=1.0, zeta=0.0)
        dt = 1.0 / 50.0
        accel = np.zeros(2011)
        accel[:10] = -1.0
        gm = GroundMotion(name="free", dt=dt, accel=accel)
        hist = newmark_solve(model, np.zeros((1, 1)), gm)
        K = model.stiffness
        M = model.mass
        u, v = hist.u[10:], hist.v[10:]
        energy = 0.5 * np.einsum("ij,jk,ik->i", v, M, v) + 0.5 * np.einsum(
            "ij,jk,ik->i", u, K, u
        )
        drift = np.abs(energy - energy[0]).max() / energy[0]
        assert drift <= 1e-3

    def test_more_damping_never_raises_sdof_peak(self):
        model = sdof(period=0.8, zeta=0.02)
        gm = synthetic_record(500, dt=0.01, seed=21, peak=2.0)
        peaks = []
        for c in (0.0, 0.5, 1.0, 2.0, 4.0):
            hist = newmark_solve(model, np.array([[c]]), gm)
            peaks.append(np.abs(hist.u).max())
        assert all(a >= b - 1e-12 for a, b in zip(peaks, peaks[1:]))

    def test_initial_conditions_respected(self, frame_2dof):
        # Every response starts at rest, in equilibrium with the first load.
        gm = GroundMotion(name="step", dt=0.01, accel=np.full(11, 2.0))
        hist = newmark_solve(frame_2dof, np.zeros((3, 2, 2)), gm)
        M = frame_2dof.mass
        a0 = np.linalg.solve(M, -2.0 * M @ frame_2dof.influence)
        assert np.all(hist.u[0] == 0.0) and np.all(hist.v[0] == 0.0)
        assert np.allclose(hist.a[0], a0, rtol=1e-14, atol=0.0)

    def test_asymmetric_cd_rejected(self, frame_2dof, record_short):
        C_d = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            newmark_solve(frame_2dof, C_d, record_short)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scale_rejected(self, scale):
        # It would give non-finite samples and a "diverged" response later.
        with pytest.raises(ValueError, match="record 'x' has a non-finite scale"):
            GroundMotion("x", 0.01, [0.0, 1.0], scale=scale)
        gm = GroundMotion("x", 0.01, [0.0, 1.0], scale=2.0)
        with pytest.raises(ValueError, match="record 'x' has a non-finite scale"):
            gm.rescaled(scale)


@pytest.mark.parametrize("beta", [0.25, 1.0 / 6.0])
@pytest.mark.parametrize("c_d", [0.0, 50.0, 1e5])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_transition_sweep_matches_stepwise_reference(n, c_d, beta, monkeypatch):
    # The sweep is exact for any Newmark beta: linear acceleration (1/6)
    # gives P a different spectrum than the average acceleration in use.
    # `newmark_solve` starts from rest; the kernel it sweeps with starts
    # here from a nonzero state written into row 0.
    monkeypatch.setattr(dynamics, "BETA", beta)
    model = shear_frame(n)
    gm = synthetic_record(300, dt=0.01, seed=5, peak=1.5)
    rng = np.random.default_rng(n)
    u0, v0 = 1e-3 * rng.standard_normal(n), 1e-2 * rng.standard_normal(n)
    M, C, K = model.mass, model.inherent_damping + c_d * np.eye(n), model.stiffness
    load = -np.outer(gm.scaled_accel, M @ model.influence)
    P, Q = transition_matrices(M, C, K, gm.dt)
    a0 = np.linalg.solve(M, load[0] - C @ v0 - K @ u0)
    S = np.vstack([np.concatenate([u0, v0, a0]), load[1:] @ Q.T])
    transition_sweep(transition_powers(P, dynamics.block_length(P, 300)), S)
    ref = stepwise_newmark(M, C, K, load, gm.dt, u0, v0, beta, 0.5)
    for got, want in zip(np.split(S, 3, axis=1), ref):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("beta", [0.25, 1.0 / 6.0])
@pytest.mark.parametrize("size", [None, 3, 22])
def test_transition_matrices_match_identity_columns_bitwise(size, beta, monkeypatch):
    # One damping matrix, then stacks of 3 and 22 (cli-4d's and fullset-6d's
    # widest SLP stacks): the effective load built block by block gives the
    # identity-column construction's P and Q bit for bit.
    monkeypatch.setattr(dynamics, "BETA", beta)
    model = frame_with_redundant_dampers(n_stories=3, per_story=2)
    scenarios = enumerate_scenarios(6, 1, 2, nu=0.5)
    assert len(scenarios) == 22
    design = DesignVector(x=[0.9, 0.2, 0.6, 0.4, 0.7, 0.1], c_bar=500.0)
    picked = scenarios[0] if size is None else list(scenarios)[:size]
    C = model.inherent_damping + assemble_added_damping(model, design, picked)
    got = transition_matrices(model.mass, C, model.stiffness, 0.02)
    want = identity_column_matrices(model.mass, C, model.stiffness, 0.02)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == np.ascontiguousarray(w).tobytes()


def test_warm_newmark_solve_is_bitwise_a_cold_one():
    # The terms built once per (M, K, dt) and per (record, M, iota) are
    # shared by every later solve. Models that differ in K only, in M only
    # and in iota only, under records at two time steps, all go through the
    # same caches: a key that misses an input hands one of them another's
    # terms.
    base = shear_frame(3)
    stiffer = shear_frame(3, story_k=2.0 * 13000.0)
    heavier = shear_frame(3, mass=12.0)
    tilted = StructuralModel(
        base.mass, base.stiffness, base.inherent_damping, base.influence * [1.0, 0.5, 0.25],
        base.drift_transform, base.d_allow, base.damper_transforms,
    )
    assert np.array_equal(stiffer.mass, base.mass)
    assert np.array_equal(heavier.stiffness, base.stiffness)
    models = [base, stiffer, heavier, tilted]
    records = [
        synthetic_record(150, dt=dt, seed=5, peak=1.5, name=f"dt{dt}") for dt in (0.01, 0.02)
    ]
    C_d = np.stack([np.zeros((3, 3)), 40.0 * np.eye(3)])

    def cold(model, gm):
        dynamics._step_terms.cache_clear()
        dynamics._record_load.cache_clear()
        return newmark_solve(model, C_d, gm)

    want = [[cold(model, gm) for gm in records] for model in models]
    for _ in range(2):
        for model, row in zip(models, want):
            for gm, ref in zip(records, row):
                got = newmark_solve(model, C_d, gm)
                for name in ("u", "v", "a", "powers", "Q"):
                    assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
    assert dynamics._step_terms.cache_info().hits > 0
    # The load rows hold no K, so the stiffer frame shares the base frame's:
    # three (M, iota) keys per record. They hold no dt either, and the two
    # records have the same samples, so they share all three.
    assert len({gm.accel.tobytes() for gm in records}) == 1
    assert dynamics._record_load.cache_info().currsize == 3


@pytest.mark.parametrize("beta", [0.25, 1.0 / 6.0])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_damped_sweep_from_rest_matches_extended_reference(n, beta, monkeypatch):
    # With c_d = 1e5 the damper pins the relative motion, so a is small next
    # to the load. The sweep stays within 6e-14 of the extended-precision
    # reference. The float64 stepwise reference does not: forming
    # a_{i+1} = c0 (u_{i+1} - u_i) - c2 v_i - c3 a_i cancels, and its a is
    # off by up to 2.1e-12, so only its u and v are held to the bound.
    assert np.finfo(np.longdouble).eps < 1e-18
    monkeypatch.setattr(dynamics, "BETA", beta)
    model = shear_frame(n)
    gm = synthetic_record(600, dt=0.01, seed=5, peak=1.5)
    C_d = 1e5 * np.eye(n)
    M, C, K = model.mass, model.inherent_damping + C_d, model.stiffness
    load = -np.outer(gm.scaled_accel, M @ model.influence)
    ref = extended_newmark(M, C, K, load, gm.dt, beta)
    hist = newmark_solve(model, C_d, gm)
    for got, want in zip((hist.u, hist.v, hist.a), ref):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    zero = np.zeros(n)
    stepwise = stepwise_newmark(M, C, K, load, gm.dt, zero, zero, beta, 0.5)
    for got, want in zip(stepwise[:2], ref):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# Batches of the 4-story frame's scenarios: one partial failure; intact,
# complete and partial; and all 11 (intact, 4 complete, 6 partial).
BATCHES = {1: [7], 3: [0, 2, 7], 11: list(range(11))}


def scenario_batch(size):
    model = shear_frame(4)
    scenarios = [enumerate_scenarios(4, 1, 2, nu=0.5)[i] for i in BATCHES[size]]
    design = DesignVector(x=[0.9, 0.2, 0.6, 0.4], c_bar=500.0)
    return model, scenarios, assemble_added_damping(model, design, scenarios)


@pytest.mark.parametrize("beta", [0.25, 1.0 / 6.0])
@pytest.mark.parametrize("size", sorted(BATCHES))
def test_batched_sweep_matches_stepwise_reference(size, beta, monkeypatch):
    monkeypatch.setattr(dynamics, "BETA", beta)
    model, _, C_d = scenario_batch(size)
    gm = synthetic_record(300, dt=0.01, seed=5, peak=1.5)
    hist = newmark_solve(model, C_d, gm)
    assert hist.u.shape == (301, size, 4)
    load = -np.outer(gm.scaled_accel, model.mass @ model.influence)
    for b in range(size):
        ref = stepwise_newmark(
            model.mass, model.inherent_damping + C_d[b], model.stiffness, load,
            gm.dt, np.zeros(4), np.zeros(4), beta, 0.5,
        )
        for got, want in zip((hist.u[:, b], hist.v[:, b], hist.a[:, b]), ref):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def sweep_operands(monkeypatch, model, C_d, gm, start=False):
    """The transition matrix and the unswept rows (initial state, then the
    forcing terms) that `newmark_solve` hands to `transition_sweep`. With
    ``start`` the response begins from a nonzero state instead of rest,
    written into row 0."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(dynamics, "transition_sweep", lambda powers, S: seen.append((powers[0], S.copy())))
        newmark_solve(model, C_d, gm)
    P, S = seen[0]
    if start:
        S[0] += np.concatenate([1e-3 * np.arange(1.0, 5.0), 1e-2 * np.ones(4), np.zeros(4)])
    return P, S


def row_loop(P, S):
    """The row-by-row sweep, one stacked matvec per row."""
    for prev, row in zip(S, S[1:]):
        row += np.matvec(P, prev)


def assert_states_close(got, want, n, rtol):
    for part in range(3):  # u, v and a
        g, w = got[..., part * n : (part + 1) * n], want[..., part * n : (part + 1) * n]
        assert np.abs(g - w).max() <= rtol * np.abs(w).max()


BLOCK = 5


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("n_steps", [0, 1, 2, 3, BLOCK**2 - 1, BLOCK**2, BLOCK**2 + 1, 600])
def test_blocked_sweep_matches_row_sweep(n_steps, stacked, reverse, monkeypatch):
    model, _, C_d = scenario_batch(3)
    gm = synthetic_record(600, dt=0.01, seed=5, peak=1.5)
    P, S = sweep_operands(monkeypatch, model, C_d if stacked else C_d[0], gm, start=True)
    S = S[: n_steps + 1]
    want, got = S.copy(), S.copy()
    transition_sweep(transition_powers(P, 1), want[::-1] if reverse else want)
    transition_sweep(transition_powers(P, BLOCK), got[::-1] if reverse else got)
    assert_states_close(got, want, 4, 1e-13)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("stacked", [False, True])
def test_single_block_is_the_row_sweep(stacked, reverse, monkeypatch):
    model, _, C_d = scenario_batch(3)
    gm = synthetic_record(300, dt=0.01, seed=5, peak=1.5)
    P, S = sweep_operands(monkeypatch, model, C_d if stacked else C_d[0], gm)
    want, got = S.copy(), S.copy()
    row_loop(P, want[::-1] if reverse else want)
    transition_sweep(transition_powers(P, 1), got[::-1] if reverse else got)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("size", [1, 7, 8])
def test_primal_sweeps_in_the_block_the_rule_picks(size, monkeypatch):
    # The 4-story frame over 600 steps: a single system and stacks of 7 and
    # 8 all sweep in blocks, of the length `block_length` picks for the
    # whole stack, though 7 or 8 equal matrices sweep as two systems.
    model = shear_frame(4)
    gm = synthetic_record(600, dt=0.01, seed=5, peak=1.5)
    seen = []

    def spy(powers, S):
        seen.append(powers)
        real(powers, S)

    real = dynamics.transition_sweep
    monkeypatch.setattr(dynamics, "transition_sweep", spy)
    newmark_solve(model, np.full((size, 4, 4), 0.0), gm)
    (powers,) = seen
    assert len(powers) == dynamics.block_length(powers[0], 600, size) > 1


def repeated_stack(x=(0.0, 0.6, 0.0, 0.8), n_steps=200):
    """The redundant-damper frame's 11 scenarios (every damper failed
    completely, every pair at half) at design ``x``, with the stack of
    their damping matrices. With dampers 0 and 2 at zero, the intact frame,
    either of them failed and both at half share one matrix, and two pairs
    more coincide: 6 distinct matrices."""
    model = frame_with_redundant_dampers(d_allow=0.012)
    gm = synthetic_record(n_steps, dt=0.02, seed=31, peak=1.55)
    scenarios = list(enumerate_scenarios(4, 1, 2, nu=0.5))
    design = DesignVector(x=list(x), c_bar=800.0)
    return model, gm, scenarios, design, assemble_added_damping(model, design, scenarios)


@pytest.mark.parametrize("x, n_systems", [((0.0, 0.6, 0.0, 0.8), 6), ((0.9, 0.6, 0.3, 0.8), 11)])
@pytest.mark.parametrize("n_steps", [200, 600])
def test_a_stack_sweeps_each_distinct_matrix_once(x, n_systems, n_steps):
    # Equal matrices share one system, and each matrix's response is the
    # whole stack's bit for bit; a stack with no repeats sweeps all of them.
    model, gm, _, _, stack = repeated_stack(x, n_steps)
    hist = newmark_solve(model, stack, gm)
    ref = whole_stack_history(model, stack, gm)
    assert hist.index.shape == (11,) and hist.u.shape == (n_steps + 1, n_systems, model.n_dof)
    assert sorted(set(hist.index)) == list(range(n_systems))
    pairs = {(matrix.tobytes(), int(i)) for matrix, i in zip(stack, hist.index)}
    assert len(pairs) == len({key for key, _ in pairs}) == n_systems
    for b, i in enumerate(hist.index):
        for got, want in ((hist.u, ref.u), (hist.v, ref.v), (hist.a, ref.a)):
            assert got[:, i].tobytes() == want[:, b].tobytes()


def test_a_stack_of_one_repeated_matrix_sweeps_two_systems():
    # Despite the name, one system: in the whole stack's block, so each
    # matrix's response is the whole stack's bit for bit.
    model, gm, _, _, stack = repeated_stack()
    stack = np.stack([stack[0]] * 3)
    hist = newmark_solve(model, stack, gm)
    ref = whole_stack_history(model, stack, gm)
    assert hist.index.tolist() == [0, 0, 0] and hist.u.shape[1] == 1
    for b in range(3):
        for got, want in ((hist.u, ref.u), (hist.v, ref.v), (hist.a, ref.a)):
            assert got[:, 0].tobytes() == want[:, b].tobytes()


@pytest.mark.parametrize("size", [0, 1, 22, 137])
@pytest.mark.parametrize("n_rows", [0, 1, 3, 4, 99, 100, 2000])
def test_block_length_is_a_block_of_the_sweep(size, n_rows):
    # One of 1..floor(sqrt(n_rows)), so that every block but the last is full
    # and the table of powers stays shorter than the sweep.
    P = np.zeros((size, 9, 9)) if size else np.zeros((9, 9))
    L = dynamics.block_length(P, n_rows)
    assert 1 <= L <= max(1, math.isqrt(n_rows))


# Stacks of the benchmark workloads and of recipe W2 (see conftest), as
# (stack size B, states 3n, steps N): fullset-6d's SLP stacks, cli-4d's,
# and W2's at 300 and 2,000 steps.
RULE_SHAPES = [
    (22, 9, 100),
    (1, 12, 600),
    (3, 12, 600),
    (2, 24, 300),
    (9, 24, 300),
    (2, 24, 2000),
    (9, 24, 2000),
]


@pytest.mark.parametrize("size, states, n_steps", RULE_SHAPES)
def test_sweep_in_the_rules_block_matches_row_sweep(size, states, n_steps, monkeypatch):
    n = states // 3
    model = shear_frame(n)
    rng = np.random.default_rng(size)
    C_d = rng.uniform(0.0, 400.0, (size, 1, 1)) * np.eye(n)
    gm = synthetic_record(n_steps, dt=0.02, seed=5, peak=1.5)
    P, S = sweep_operands(monkeypatch, model, C_d, gm)
    L = dynamics.block_length(P, n_steps)
    assert L > 1
    want, got = S.copy(), S.copy()
    row_loop(P, want)
    transition_sweep(transition_powers(P, L), got)
    assert_states_close(got, want, n, 1e-12)


def test_adjoint_follows_the_size_rule(monkeypatch):
    # The adjoint sweeps the transposes of the primal's own powers over the
    # k rows up to the last nonzero forcing: the first floor(sqrt(k)) entries
    # of the primal's table, which is as long as `block_length` picked for
    # the primal's N rows. Both a single 4-story system and a stack of 11
    # sweep in blocks.
    design = DesignVector(x=[0.9, 0.2, 0.6, 0.4], c_bar=500.0)
    gm = synthetic_record(600, dt=0.01, seed=5, peak=1.5)
    seen, histories = [], []

    def spy(powers, S):
        seen.append((powers, len(S)))
        real(powers, S)

    def solve(*args):
        histories.append(real_solve(*args))
        return histories[-1]

    real, real_solve = adjoint.transition_sweep, adjoint.newmark_solve
    monkeypatch.setattr(adjoint, "transition_sweep", spy)
    monkeypatch.setattr(adjoint, "newmark_solve", solve)
    for size in (1, 11):
        model, scenarios, C_d = scenario_batch(size)
        adjoint_gradient(model, design, scenarios, gm, ConstraintParams(p=8))
        powers, k = seen[-1]
        table = histories[-1].powers
        assert len(table) == dynamics.block_length(table[0], 600)
        want = table[: math.isqrt(k)].mT
        assert k > 100 and len(want) > 1
        assert powers.flags.c_contiguous and np.array_equal(powers, want)
        P, _ = dynamics.transition_matrices(
            model.mass, model.inherent_damping + C_d, model.stiffness, gm.dt
        )
        assert np.array_equal(table[0], P)


@pytest.mark.parametrize("stacked", [False, True])
def test_power_tables_are_prefixes_of_longer_ones(stacked):
    # Each P^j comes from the same two factors whatever the table's length,
    # so the adjoint can take the first entries of the primal's table.
    model, _, C_d = scenario_batch(3)
    P, _ = transition_matrices(
        model.mass, model.inherent_damping + (C_d if stacked else C_d[0]),
        model.stiffness, 0.01,
    )
    table = transition_powers(P, 24)
    assert table.shape == (24,) + P.shape
    assert np.array_equal(table[0], P)
    want = np.linalg.matrix_power(P, 6)
    assert np.abs(table[5] - want).max() <= 1e-12 * np.abs(want).max()
    for K in range(1, 25):
        assert np.array_equal(table[:K], transition_powers(P, K))


@pytest.mark.parametrize("block", [0, -1])
def test_sweep_rejects_blocks_below_one(block):
    # The block is the power table's length, so a table below length 1 is refused.
    S = np.ones((5, 2))
    with pytest.raises(ValueError, match="block length"):
        transition_sweep(transition_powers(np.eye(2), block), S)
    assert np.all(S == 1.0)


def test_sweep_rejects_an_empty_power_table():
    S = np.ones((5, 2))
    with pytest.raises(ValueError, match="empty"):
        transition_sweep(np.empty((0, 2, 2)), S)
    assert np.all(S == 1.0)


def test_undamped_frame_blocks_match_rows(monkeypatch):
    # No inherent and no added damping: average acceleration keeps every
    # eigenvalue of P on the unit circle, so its powers never decay.
    model = shear_frame(4, zeta=0.0)
    gm = synthetic_record(2000, dt=0.01, seed=5, peak=1.5)
    P, S = sweep_operands(monkeypatch, model, np.zeros((4, 4)), gm)
    assert np.abs(np.linalg.eigvals(P)).max() == pytest.approx(1.0, abs=1e-12)
    want, got = S.copy(), S.copy()
    transition_sweep(transition_powers(P, 1), want)
    transition_sweep(transition_powers(P, math.isqrt(2000)), got)
    assert_states_close(got, want, 4, 1e-12)


def test_diverged_response_raises_convergence_error():
    # An indefinite stiffness has a mode that grows exponentially: the
    # states overflow long before the end of the record.
    model = buckled_frame()
    rng = np.random.default_rng(1)
    gm = GroundMotion(name="noise", dt=0.02, accel=rng.standard_normal(1501))
    with pytest.raises(ConvergenceError, match=r"'noise' diverged.*time step 791 of 1500"):
        newmark_solve(model, np.zeros((2, 4, 4)), gm)


@pytest.mark.parametrize("C_d", [np.zeros((1, 1)), np.zeros((2, 1, 1))], ids=["one", "stack"])
def test_indefinite_effective_stiffness_raises_convergence_error(C_d):
    # K + 4 M / dt^2 = -2e6 + 1e5 < 0: no Newmark step exists at this dt.
    model = StructuralModel(
        mass=[[10.0]],
        stiffness=[[-2.0e6]],
        inherent_damping=[[0.0]],
        influence=[1.0],
        drift_transform=[[1.0]],
        d_allow=[0.01],
        damper_transforms=(np.array([[1.0]]),),
    )
    gm = synthetic_record(600, dt=0.02, seed=1, name="quake")
    with pytest.raises(
        ConvergenceError,
        match=r"record 'quake' cannot be integrated at dt = 0\.02: effective stiffness "
        r"matrix is singular or indefinite",
    ):
        newmark_solve(model, C_d, gm)


@pytest.mark.parametrize(
    "n_steps, seed, row", [(1500, 1, "fill"), (1200, 2, "carry"), (900, 3, "fill")]
)
def test_divergence_names_the_first_non_finite_step(n_steps, seed, row):
    # The first state that is not finite lies in a block's fill row, whose
    # carry row later in the block overflows first, or in a carry row. The
    # step named is the row sweep's first non-finite one either way.
    model = buckled_frame()
    rng = np.random.default_rng(seed)
    gm = GroundMotion(name="noise", dt=0.02, accel=rng.standard_normal(n_steps + 1))
    C = model.inherent_damping + np.zeros((2, 4, 4))
    P, Q = transition_matrices(model.mass, C, model.stiffness, gm.dt)
    load = -np.outer(gm.scaled_accel, model.mass @ model.influence)
    S = np.zeros((n_steps + 1, 2, 12))
    S[0, :, 8:] = np.linalg.solve(model.mass, load[0])
    S[1:] = np.swapaxes(load[1:] @ Q.mT, 0, 1)
    transition_sweep(transition_powers(P, 1), S)
    first = int(np.argmin(np.isfinite(S).reshape(n_steps + 1, -1).all(axis=1)))
    assert 0 < first < n_steps
    L = dynamics.block_length(P, n_steps)
    assert L > 1 and (first % L == 0) == (row == "carry")
    with pytest.raises(ConvergenceError, match=rf"time step {first} of {n_steps}\b"):
        newmark_solve(model, np.zeros((2, 4, 4)), gm)


class TestSpectralDisplacement:
    def test_zero_record(self):
        gm = GroundMotion(name="zero", dt=0.01, accel=np.zeros(100))
        assert spectral_displacement(gm, 1.0, 0.05) == 0.0

    def test_resonant_harmonic_matches_steady_state(self):
        # At resonance the steady amplitude is A / (2 zeta w^2); integrate
        # 30 cycles so the transient has decayed.
        period, zeta, amp = 0.5, 0.05, 1.0
        w = 2.0 * np.pi / period
        dt = period / 200.0
        t = np.arange(0.0, 30.0 * period + dt / 2, dt)
        gm = GroundMotion(name="res", dt=dt, accel=amp * np.sin(w * t))
        expected = amp / (2.0 * zeta * w * w)
        got = spectral_displacement(gm, period, zeta)
        assert got == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize("period", [np.nan, 0.0, -1.0, -np.inf])
    def test_period_that_is_not_positive_is_rejected(self, period):
        with pytest.raises(ValueError, match="period"):
            spectral_displacement(synthetic_record(100, dt=0.01), period, 0.05)

    @pytest.mark.parametrize("zeta", [np.nan, np.inf, -np.inf])
    def test_zeta_that_is_not_finite_is_rejected(self, zeta):
        with pytest.raises(ValueError, match="zeta"):
            spectral_displacement(synthetic_record(100, dt=0.01), 1.0, zeta)

    @pytest.mark.parametrize("period,zeta", [(np.inf, 0.05), (0.5, -0.02)])
    def test_matches_the_stepwise_scheme(self, period, zeta):
        # An infinite period is a free mass, a negative ratio an oscillator
        # that gains energy; both still integrate.
        gm = synthetic_record(300, dt=0.01, seed=4)
        w = 2.0 * np.pi / period
        U, _, _ = stepwise_newmark(
            np.array([[1.0]]), np.array([[2.0 * zeta * w]]), np.array([[w * w]]),
            -gm.scaled_accel[:, None], gm.dt, np.zeros(1), np.zeros(1),
            dynamics.BETA, dynamics.GAMMA,
        )
        got = spectral_displacement(gm, period, zeta)
        assert got == pytest.approx(np.abs(U).max(), rel=1e-10)

    def test_dominant_record_is_argmax(self):
        period = 0.7
        records = [
            synthetic_record(300, dt=0.01, seed=s, peak=p, name=f"r{s}")
            for s, p in ((1, 1.0), (2, 3.0), (3, 2.0))
        ]
        sd = [spectral_displacement(gm, period, 0.05) for gm in records]
        assert select_dominant_record(records, period).name == records[int(np.argmax(sd))].name


class TestRecordParsing:
    def test_two_column_format(self, tmp_path):
        path = tmp_path / "rec.txt"
        path.write_text(
            "# comment line\n0.0 0.1\n0.02 0.2\n0.04 -0.3\n0.06 0.0\n"
        )
        gm = load_ground_motion(path)
        assert gm.dt == pytest.approx(0.02)
        assert np.allclose(gm.accel, [0.1, 0.2, -0.3, 0.0])
        assert gm.name == "rec"

    def test_dt_header_format(self, tmp_path):
        path = tmp_path / "rec.dat"
        path.write_text("dt=0.01\n0.1\n0.2\n0.3\n")
        gm = load_ground_motion(path)
        assert gm.dt == pytest.approx(0.01)
        assert np.allclose(gm.accel, [0.1, 0.2, 0.3])

    def test_g_units_conversion(self, tmp_path):
        path = tmp_path / "rec.txt"
        path.write_text("dt=0.01\n0.5\n-0.5\n")
        gm = load_ground_motion(path, units="g")
        assert np.allclose(gm.accel, [0.5 * STANDARD_GRAVITY, -0.5 * STANDARD_GRAVITY])

    def test_nonuniform_spacing_rejected(self, tmp_path):
        path = tmp_path / "rec.txt"
        path.write_text("0.0 0.1\n0.02 0.2\n0.05 0.3\n")
        with pytest.raises(InputError, match="uniform"):
            load_ground_motion(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_ground_motion(tmp_path / "nope.txt")

    def test_single_sample_rejected(self, tmp_path):
        path = tmp_path / "rec.txt"
        path.write_text("dt=0.01\n0.5\n")
        with pytest.raises(InputError):
            load_ground_motion(path)

    def test_unreadable_dt_header_rejected(self, tmp_path):
        path = tmp_path / "rec.txt"
        path.write_text("dt=--\n0.5\n0.1\n")
        with pytest.raises(InputError, match="dt="):
            load_ground_motion(path)

    @pytest.mark.parametrize("sample", ["1_000", "\u0661\u0662", "\uff15"])
    @pytest.mark.parametrize("layout", ["dt=0.01\n0.5\n{}\n", "0.0 0.5\n0.01 {}\n"])
    def test_numbers_only_python_reads_rejected(self, tmp_path, layout, sample):
        # Underscores and non-ASCII digits, which float() accepts, are not
        # numbers in a record file.
        path = tmp_path / "rec.txt"
        path.write_text(layout.format(sample), encoding="utf-8")
        with pytest.raises(InputError, match=f"bad sample in record file .*rec.txt.*'{sample}'"):
            load_ground_motion(path)

    def test_columns_after_those_read_are_ignored(self, tmp_path):
        path = tmp_path / "rec.txt"
        path.write_text("dt=0.01\n0.5 x\n-0.5 1 2\n")
        assert load_ground_motion(path).accel.tolist() == [0.5, -0.5]
        path.write_text("0.0 0.5 x\n0.01 -0.5\n")
        assert load_ground_motion(path).accel.tolist() == [0.5, -0.5]

    @given(data=st.data())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_mutated_lines_give_a_record_or_input_error(self, tmp_path, data):
        lines = data.draw(
            st.sampled_from(
                [
                    ["dt=0.01", "0.1", "-0.2", "0.3"],
                    ["# t a", "0.0 0.1", "0.02 0.2", "0.04 -0.3"],
                ]
            )
        )
        line = st.text(alphabet="0123456789.-+eE dt=#%naif\t", max_size=12) | st.text(
            max_size=8
        )
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(lines)))
            op = data.draw(st.sampled_from(["replace", "insert", "delete"]))
            if op == "insert" or not lines:
                lines.insert(i, data.draw(line))
            elif op == "replace":
                lines[min(i, len(lines) - 1)] = data.draw(line)
            else:
                del lines[min(i, len(lines) - 1)]
        path = tmp_path / "rec.txt"
        path.write_text("\n".join(lines) + "\n")
        try:
            gm = load_ground_motion(path)
        except InputError:
            return
        assert isinstance(gm, GroundMotion)
        assert np.isfinite(gm.dt) and gm.dt > 0
