"""Newmark integration, response spectra, record parsing."""

import numpy as np
import pytest
import scipy.linalg as la

from failsafe_dampers import (
    DesignVector,
    GroundMotion,
    InputError,
    assemble_added_damping,
    enumerate_scenarios,
    equilibrium_residual,
    load_ground_motion,
    newmark_solve,
    select_dominant_record,
    spectral_displacement,
)
from failsafe_dampers.dynamics import STANDARD_GRAVITY
from failsafe_dampers.errors import ConvergenceError

from conftest import shear_frame, synthetic_record


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
        # Average acceleration preserves the quadratic energy invariant.
        model = sdof(period=1.0, zeta=0.0)
        dt = 1.0 / 50.0
        gm = GroundMotion(name="free", dt=dt, accel=np.zeros(2001))
        hist = newmark_solve(
            model, np.zeros((1, 1)), gm, u0=np.array([0.01]), v0=np.zeros(1)
        )
        K = model.stiffness
        M = model.mass
        energy = 0.5 * np.einsum("ij,jk,ik->i", hist.v, M, hist.v) + 0.5 * np.einsum(
            "ij,jk,ik->i", hist.u, K, hist.u
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
        gm = GroundMotion(name="zero", dt=0.01, accel=np.zeros(11))
        u0 = np.array([0.01, -0.02])
        v0 = np.array([0.1, 0.0])
        hist = newmark_solve(frame_2dof, np.zeros((2, 2)), gm, u0=u0, v0=v0)
        assert np.array_equal(hist.u[0], u0)
        assert np.array_equal(hist.v[0], v0)

    def test_unsupported_parameters_rejected(self, frame_2dof, record_short):
        with pytest.raises(ValueError, match="beta"):
            newmark_solve(frame_2dof, np.zeros((2, 2)), record_short, beta=0.3)
        with pytest.raises(ValueError, match="gamma"):
            newmark_solve(frame_2dof, np.zeros((2, 2)), record_short, gamma=0.6)

    def test_asymmetric_cd_rejected(self, frame_2dof, record_short):
        C_d = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            newmark_solve(frame_2dof, C_d, record_short)


@pytest.mark.parametrize("beta", [0.25, 1.0 / 6.0])
@pytest.mark.parametrize("c_d", [0.0, 50.0, 1e5])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_transition_sweep_matches_stepwise_reference(n, c_d, beta):
    model = shear_frame(n)
    gm = synthetic_record(300, dt=0.01, seed=5, peak=1.5)
    rng = np.random.default_rng(n)
    u0, v0 = 1e-3 * rng.standard_normal(n), 1e-2 * rng.standard_normal(n)
    C_d = c_d * np.eye(n)
    hist = newmark_solve(model, C_d, gm, beta=beta, u0=u0, v0=v0)
    load = -np.outer(gm.scaled_accel, model.mass @ model.influence)
    ref = stepwise_newmark(
        model.mass, model.inherent_damping + C_d, model.stiffness, load,
        gm.dt, u0, v0, beta, 0.5,
    )
    for got, want in zip((hist.u, hist.v, hist.a), ref):
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
def test_batched_sweep_matches_stepwise_reference(size, beta):
    model, _, C_d = scenario_batch(size)
    gm = synthetic_record(300, dt=0.01, seed=5, peak=1.5)
    hist = newmark_solve(model, C_d, gm, beta=beta)
    assert hist.u.shape == (301, size, 4)
    load = -np.outer(gm.scaled_accel, model.mass @ model.influence)
    for b in range(size):
        ref = stepwise_newmark(
            model.mass, model.inherent_damping + C_d[b], model.stiffness, load,
            gm.dt, np.zeros(4), np.zeros(4), beta, 0.5,
        )
        for got, want in zip((hist.u[:, b], hist.v[:, b], hist.a[:, b]), ref):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_diverged_response_raises_convergence_error():
    # Linear acceleration (beta = 1/6) is only conditionally stable: with
    # dt = 0.2 s the states of this frame overflow long before the end.
    model = shear_frame(4)
    rng = np.random.default_rng(1)
    gm = GroundMotion(name="noise", dt=0.2, accel=rng.standard_normal(1501))
    with pytest.raises(ConvergenceError, match=r"'noise' diverged.*time step \d+ of 1500"):
        newmark_solve(model, np.zeros((2, 4, 4)), gm, beta=1.0 / 6.0)


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
