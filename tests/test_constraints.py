"""Smooth drift indices, aggregation, exact peaks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from failsafe_dampers import (
    ConstraintParams,
    aggregate,
    evaluate_drift_constraint,
    exact_peak,
    newmark_solve,
)
from failsafe_dampers.constraints import normalized_drifts, pruned_powers, time_weights
from failsafe_dampers.dynamics import ResponseHistory

from conftest import shear_frame, synthetic_record, whole_stack_history

# Exponents of the continuation, from the start value to the cap; the
# gradient raises to p - 1, so its exponents are covered too.
EXPONENTS = [2, 8, 100, 600, 5100, 37100, 1_000_000]


def dense_smooth_drift_indices(history, model, params):
    """Slow reference: the time p-norms with every ratio raised to p, time
    first."""
    rho = np.abs(np.moveaxis(normalized_drifts(history, model), -1, 0))
    w = time_weights(rho.shape[0], history.dt)
    duration = history.n_steps * history.dt
    peak = rho.max(axis=0)
    scale = np.where(peak > 0, peak, 1.0)
    s = np.tensordot(w / duration, (rho / scale) ** params.p, axes=1)
    return scale * s ** (1.0 / params.p)


def history_from_drifts(values, dt=0.1):
    """1-DOF history whose displacement IS the drift (H = [[1]], d_allow=1)."""
    u = np.asarray(values, dtype=float).reshape(-1, 1)
    z = np.zeros_like(u)
    return ResponseHistory(u=u, v=z, a=z, dt=dt)


@pytest.fixture(scope="module")
def unit_model():
    return shear_frame(1, mass=1.0, story_k=1.0, d_allow=1.0, zeta=0.0)


class TestConstraintParams:
    def test_odd_p_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ConstraintParams(p=3)


class TestSmoothDriftIndices:
    @pytest.mark.parametrize("p", [2, 8, 100, 10_000, 1_000_000])
    def test_constant_signal_is_exact(self, unit_model, p):
        r = 0.37
        hist = history_from_drifts(np.full(11, r))
        params = ConstraintParams(p=p)
        d = evaluate_drift_constraint(hist, unit_model, params).d_tilde
        assert d[0] == pytest.approx(r, rel=1e-12)

    def test_two_sample_hand_quadrature(self, unit_model):
        # Samples {0, 1}, p = 2, trapezoid weights dt/2 at both ends,
        # duration dt: d = sqrt((1/dt)(dt/2 * 0 + dt/2 * 1)) = sqrt(1/2).
        hist = history_from_drifts([0.0, 1.0], dt=0.25)
        params = ConstraintParams(p=2)
        d = evaluate_drift_constraint(hist, unit_model, params).d_tilde
        assert d[0] == pytest.approx(0.7071067811865476, rel=1e-12)

    def test_bounded_by_max_and_converging(self, unit_model):
        rng = np.random.default_rng(8)
        hist = history_from_drifts(rng.uniform(-1.5, 1.5, 200))
        peak = np.abs(hist.u).max()
        previous = 0.0
        for p in (2, 4, 8, 16, 64, 256, 1024, 4096):
            params = ConstraintParams(p=p)
            d = evaluate_drift_constraint(hist, unit_model, params).d_tilde[0]
            assert d <= peak * (1 + 1e-12)
            assert d >= previous - 1e-12  # monotone toward the max
            previous = d
        assert previous == pytest.approx(peak, rel=2e-3)

    def test_zero_history(self, unit_model):
        hist = history_from_drifts(np.zeros(5))
        params = ConstraintParams(p=100)
        d = evaluate_drift_constraint(hist, unit_model, params).d_tilde
        assert d[0] == 0.0

    @given(
        values=st.lists(
            st.floats(-10.0, 10.0, allow_nan=False), min_size=3, max_size=40
        ),
        scale=st.floats(0.01, 50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_equivariance(self, unit_model, values, scale):
        params = ConstraintParams(p=8)
        base = history_from_drifts(values)
        scaled = history_from_drifts(np.asarray(values) * scale)
        d1 = evaluate_drift_constraint(base, unit_model, params).d_tilde
        d2 = evaluate_drift_constraint(scaled, unit_model, params).d_tilde
        assert np.allclose(d2, scale * d1, rtol=1e-10, atol=1e-12)


class TestAggregate:
    @pytest.mark.parametrize("q", [1, 2, 50, 1000])
    def test_equal_entries(self, q):
        r = 0.73
        assert aggregate(np.full(6, r), q) == pytest.approx(r - 1.0, rel=1e-12)

    def test_direct_arithmetic(self):
        # q = 2: (1 + 0.5^3) / (1 + 0.5^2) - 1 = 1.125 / 1.25 - 1 = -0.1
        assert aggregate(np.array([1.0, 0.5]), 2) == pytest.approx(-0.1, rel=1e-12)
        # q = 1: (1 + 0.25) / 1.5 - 1 = -1/6
        assert aggregate(np.array([1.0, 0.5]), 1) == pytest.approx(-1.0 / 6.0, rel=1e-12)

    def test_large_q_approaches_max(self):
        d = np.array([0.4, 0.95, 0.7, 0.2])
        for q in (10, 100, 1000, 100_000):
            g = aggregate(d, q)
            assert g <= d.max() - 1.0 + 1e-12
        assert aggregate(d, 100_000) == pytest.approx(d.max() - 1.0, abs=1e-9)

    def test_all_zero_returns_limit(self):
        assert aggregate(np.zeros(4), 100) == -1.0

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            aggregate(np.array([0.5, -0.1]), 2)

    def test_scale_maps_affinely(self):
        d = np.array([0.3, 0.8, 0.55])
        s = 2.7
        g = aggregate(d, 7)
        assert aggregate(s * d, 7) == pytest.approx(s * (g + 1.0) - 1.0, rel=1e-12)


class TestExactPeak:
    def test_zero_history(self, unit_model):
        assert exact_peak(history_from_drifts(np.zeros(8)), unit_model) == 0.0

    def test_sampled_sinusoid_peak(self, unit_model):
        # Grid hits the crest exactly, so the normalized peak is 1 when
        # d_allow equals the amplitude.
        t = np.linspace(0.0, 1.0, 101)  # includes t = 0.25 where sin = 1
        hist = history_from_drifts(np.sin(2.0 * np.pi * t), dt=0.01)
        assert exact_peak(hist, unit_model) == pytest.approx(1.0, rel=1e-12)

    def test_matches_bruteforce_scan(self):
        model = shear_frame(3, zeta=0.0)
        rng = np.random.default_rng(17)
        u = rng.standard_normal((50, 3)) * 0.01
        z = np.zeros_like(u)
        hist = ResponseHistory(u=u, v=z, a=z, dt=0.02)
        brute = max(
            abs(float(model.drift_transform[j] @ u[i])) / model.d_allow[j]
            for i in range(u.shape[0])
            for j in range(model.n_drifts)
        )
        assert exact_peak(hist, model) == pytest.approx(brute, rel=1e-14)


def test_batched_values_are_one_per_matrix_of_the_stack():
    # g and the exact peaks follow the history's index back to the 11
    # matrices of the stack, bit for bit a sweep of the whole stack's; the
    # smooth indices and drifts stay one per swept system.
    from test_dynamics import repeated_stack

    model, gm, _, _, stack = repeated_stack()
    params = ConstraintParams(p=100)
    hist = newmark_solve(model, stack, gm)
    ref = whole_stack_history(model, stack, gm)
    value = evaluate_drift_constraint(hist, model, params)
    want = evaluate_drift_constraint(ref, model, params)
    assert value.g.shape == value.d_max_exact.shape == (11,)
    assert value.g.tobytes() == want.g.tobytes()
    assert value.d_max_exact.tobytes() == want.d_max_exact.tobytes()
    assert exact_peak(hist, model).tobytes() == exact_peak(ref, model).tobytes()
    assert value.d_tilde.shape == (6, model.n_drifts)
    assert value.rho.shape == value.magnitude.shape == (6, model.n_drifts, len(gm.accel))


class TestPrunedPowers:
    @pytest.mark.parametrize("p", sorted({1} | set(EXPONENTS) | {e - 1 for e in EXPONENTS}))
    def test_keeps_exactly_the_nonzero_powers(self, p):
        # Ratios a few ulps either side of the cutoff, and powers of order
        # 2^-1074 (the smallest subnormal) up to 1e-304, all within one
        # rounding of exp(-746/p).
        cutoff = np.exp(-746.0 / p)
        near = cutoff * (1.0 + np.arange(-4, 5) * np.finfo(float).eps)
        far = np.exp(-np.array([745.5, 745.0, 740.0, 720.0, 700.0]) / p)
        ratio = np.concatenate([[0.0, 5e-324], near, far, [0.5, 1.0]])
        ratio = np.stack([ratio, ratio[::-1]], axis=1).reshape(-1, 2, 2)
        # Time last, as the drift evaluation holds its columns.
        t, col, powers = pruned_powers(np.moveaxis(ratio, 0, -1), p)
        # Column by column, time ascending: the order each sum adds in.
        assert np.array_equal(np.lexsort((t, col)), np.arange(t.size))
        dense = ratio.reshape(ratio.shape[0], -1) ** p
        rebuilt = np.zeros_like(dense)
        rebuilt[t, col] = powers
        assert np.array_equal(rebuilt, dense)
        assert np.all(ratio.reshape(ratio.shape[0], -1)[t, col] > cutoff)
        assert np.count_nonzero(dense) > 2  # the test reaches the kept side

    @pytest.mark.parametrize("p", EXPONENTS)
    def test_batched_indices_match_dense_reference(self, p):
        model = shear_frame(4)
        gm = synthetic_record(600, dt=0.01, seed=11, peak=2.0)
        C_d = np.stack([c * np.eye(4) for c in (0.0, 150.0, 600.0)])
        hist = newmark_solve(model, C_d, gm)
        params = ConstraintParams(p=p)
        value = evaluate_drift_constraint(hist, model, params)
        want = dense_smooth_drift_indices(hist, model, params)
        assert value.d_tilde.shape == (3, 4)
        assert np.abs(value.d_tilde - want).max() <= 1e-12 * want.max()
        g_want = aggregate(want, p)
        assert np.abs(value.g - g_want).max() <= 1e-12 * np.abs(g_want).max()
        assert np.array_equal(value.d_max_exact, exact_peak(hist, model))
        assert np.array_equal(value.rho, normalized_drifts(hist, model))


def per_row_constraint(history, model, params):
    """Reference: drifts time first, each time row through H' as
    (u @ H') / d_allow, then the time p-norms, peaks and aggregate with
    every reduction over the time axis of that layout. Returns rho, moved to
    time last, d_tilde, g and the exact peak."""
    rho = (history.u @ model.drift_transform.T) / model.d_allow
    magnitude = np.abs(rho)
    w = time_weights(len(rho), history.dt)
    peak = magnitude.max(axis=0)
    scale = np.where(peak > 0, peak, 1.0)
    flat = (magnitude / scale).reshape(len(rho), -1)
    t, col = np.divmod(np.flatnonzero(flat > np.exp(-746.0 / params.p)), flat.shape[1])
    weights = (w / (history.n_steps * history.dt))[t] * flat[t, col] ** params.p
    s = np.bincount(col, weights=weights, minlength=scale.size)
    d_tilde = scale * s.reshape(scale.shape) ** (1.0 / params.p)
    return np.moveaxis(rho, 0, -1), d_tilde, aggregate(d_tilde, params.p), peak.max(axis=-1)


class TestTimeContiguousColumns:
    @pytest.mark.parametrize("p", [2, 100, 5100, 1_000_000])
    @pytest.mark.parametrize("size", [None, 3])
    def test_shear_frame_matches_the_per_row_reference_bitwise(self, size, p):
        # Each drift of a shear frame is one difference of two
        # displacements, rounded once in any product; every reduction is a
        # max or adds each drift's terms in time order.
        model = shear_frame(4)
        gm = synthetic_record(600, dt=0.01, seed=11, peak=2.0)
        C_d = np.zeros((4, 4)) if size is None else np.stack([c * np.eye(4) for c in (0.0, 150.0, 600.0)])
        hist = newmark_solve(model, C_d, gm)
        params = ConstraintParams(p=p)
        value = evaluate_drift_constraint(hist, model, params)
        rho, d_tilde, g, d_max = per_row_constraint(hist, model, params)
        assert value.rho.shape == value.magnitude.shape == rho.shape
        assert value.rho.tobytes() == rho.tobytes()
        assert np.array_equal(value.magnitude, np.abs(rho))
        assert value.rho.shape[-1] == len(gm.accel) and value.rho.flags.c_contiguous
        for got, want in ((value.d_tilde, d_tilde), (value.g, g), (value.d_max_exact, d_max)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("size", [None, 3])
    def test_general_transform_matches_the_per_row_reference(self, size):
        # A drift transform with general entries rounds its sums, in an
        # order the kernel picks: a few ulps.
        rng = np.random.default_rng(5)
        model = replace(shear_frame(4), drift_transform=rng.standard_normal((4, 4)))
        gm = synthetic_record(600, dt=0.01, seed=11, peak=2.0)
        C_d = np.zeros((4, 4)) if size is None else np.stack([c * np.eye(4) for c in (0.0, 150.0, 600.0)])
        hist = newmark_solve(model, C_d, gm)
        params = ConstraintParams(p=600)
        value = evaluate_drift_constraint(hist, model, params)
        rho, d_tilde, g, d_max = per_row_constraint(hist, model, params)
        eps = np.finfo(float).eps
        bound = 8 * eps * (np.abs(hist.u) @ np.abs(model.drift_transform).T) / model.d_allow
        bound = np.moveaxis(bound, 0, -1)
        assert np.all(np.abs(value.rho - rho) <= bound)
        assert np.abs(value.d_tilde - d_tilde).max() <= 16 * eps * d_tilde.max()
        assert np.abs(value.g - g).max() <= 16 * eps * np.abs(g + 1.0).max()
        assert np.abs(value.d_max_exact - d_max).max() <= 8 * eps * d_max.max()


class TestSandwich:
    def test_high_exponents_track_exact_peak(self):
        # On genuine response histories the aggregated value g + 1 sits
        # within 2% of the exact normalized peak at p = q = 1000.
        model = shear_frame(4)
        gm = synthetic_record(600, dt=0.02, seed=13, peak=2.0)
        params = ConstraintParams(p=1000)
        for c in (0.0, 200.0, 800.0):
            C_d = c * np.eye(4)
            hist = newmark_solve(model, C_d, gm)
            value = evaluate_drift_constraint(hist, model, params)
            assert value.g + 1.0 <= value.d_max_exact * (1 + 1e-12)
            assert abs((value.g + 1.0) - value.d_max_exact) <= 0.02 * value.d_max_exact
