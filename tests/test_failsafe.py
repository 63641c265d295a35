"""Working-set driver: selection rule, expansion protocol, record loop."""

import numpy as np
import pytest

from failsafe_dampers import (
    ConstraintParams,
    ConvergenceError,
    DesignVector,
    FailSafeConfig,
    GroundMotion,
    SlpConfig,
    assemble_added_damping,
    compute_lowest_modes,
    enumerate_scenarios,
    evaluate_all,
    evaluate_drift_constraint,
    newmark_solve,
    run_failsafe,
    select_critical,
    spectral_displacement,
)
from failsafe_dampers.optimizer import EvalCounter

from conftest import frame_with_redundant_dampers, shear_frame, synthetic_record


class TestSelectCritical:
    def test_relative_closeness(self):
        g = np.array([0.10, 0.096, 0.02])
        assert select_critical(g, working_set=[], epsilon=0.05) == [0, 1]

    def test_excludes_working_set(self):
        g = np.array([0.10, 0.096, 0.02])
        assert select_critical(g, working_set=[0], epsilon=0.05) == [1]

    def test_all_equal_and_positive(self):
        g = np.full(4, 0.2)
        assert select_critical(g, working_set=[2], epsilon=0.05) == [0, 1, 3]

    def test_zero_epsilon_gives_argmax_only(self):
        g = np.array([0.09, 0.10, 0.02])
        assert select_critical(g, working_set=[], epsilon=0.0) == [1]

    def test_no_violation_is_a_protocol_error(self):
        with pytest.raises(RuntimeError, match="terminated"):
            select_critical(np.array([-0.1, -0.2]), working_set=[], epsilon=0.05)


class TestEvaluateAll:
    def test_zero_design_gives_identical_values(self):
        # Without damping there is nothing to damage: every scenario sees
        # the same bare structure.
        model = frame_with_redundant_dampers(d_allow=0.012)
        gm = synthetic_record(200, dt=0.02, seed=31, peak=1.0)
        scen = enumerate_scenarios(model.n_dampers, 1, 0)
        g = evaluate_all(
            DesignVector(x=np.zeros(4), c_bar=400.0),
            model,
            scen,
            [gm],
            ConstraintParams(p=100, q=100),
        )
        assert np.allclose(g, g[0])

    def test_full_design_on_amply_damped_toy(self):
        # One story, two redundant ground dampers: at full size every
        # single-failure scenario keeps one device, drifts stay small.
        model = frame_with_redundant_dampers(
            n_stories=1, per_story=2, mass=10.0, story_k=2000.0, d_allow=0.02
        )
        gm = synthetic_record(300, dt=0.02, seed=7, peak=1.2)
        scen = enumerate_scenarios(2, 1, 0)
        g = evaluate_all(
            DesignVector(x=np.ones(2), c_bar=400.0),
            model,
            scen,
            [gm],
            ConstraintParams(p=1000, q=1000),
        )
        assert np.all(g < 0)

    def test_scenario_count_16_dampers(self):
        # 16 candidate dampers, singles complete plus pairs partial: one
        # value per scenario, 137 in total.
        model = frame_with_redundant_dampers(n_stories=4, per_story=4)
        gm = synthetic_record(50, dt=0.02, seed=1, peak=0.5)
        scen = enumerate_scenarios(16, 1, 2, nu=0.5)
        counter = EvalCounter()
        g = evaluate_all(
            DesignVector(x=np.full(16, 0.1), c_bar=100.0),
            model,
            scen,
            [gm],
            ConstraintParams(p=100, q=100),
            counter,
        )
        assert g.shape == (137,)
        assert counter.n_primal == 137

    def test_matches_per_pair_loop_over_two_records(self):
        # The batched sweep against one analysis per (scenario, record)
        # pair, worst case over records of different dt and length.
        model = frame_with_redundant_dampers(d_allow=0.012)
        records = [
            synthetic_record(200, dt=0.02, seed=31, peak=1.0, name="a"),
            synthetic_record(150, dt=0.01, seed=5, peak=1.4, name="b"),
        ]
        scen = enumerate_scenarios(model.n_dampers, 1, 2, nu=0.5)
        design = DesignVector(x=[0.8, 0.3, 0.5, 0.1], c_bar=400.0)
        params = ConstraintParams(p=300, q=300)
        counter = EvalCounter()
        g = evaluate_all(design, model, scen, records, params, counter)
        ref = [
            max(
                evaluate_drift_constraint(
                    newmark_solve(model, assemble_added_damping(model, design, sc), gm),
                    model,
                    params,
                ).g
                for gm in records
            )
            for sc in scen
        ]
        assert counter.n_primal == 2 * len(scen)
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_diverged_response_is_not_verified(self):
        # beta = 1/6 beyond its stability limit overflows the states. The
        # sweep must fail loudly, not read the NaN peaks as inactive drifts
        # (g = -1 everywhere, and a "verified" design).
        model = shear_frame(4)
        rng = np.random.default_rng(1)
        gm = GroundMotion(name="noise", dt=0.2, accel=rng.standard_normal(1501))
        scen = enumerate_scenarios(4, 1, 0)
        design = DesignVector(x=np.full(4, 0.5), c_bar=1000.0)
        with pytest.raises(ConvergenceError, match="'noise' diverged.*time step"):
            evaluate_all(design, model, scen, [gm], ConstraintParams(), beta=1.0 / 6.0)
        with pytest.raises(ConvergenceError, match="'noise' diverged.*time step"):
            run_failsafe(
                model,
                scen,
                [gm],
                c_bar=1000.0,
                slp_config=SlpConfig(beta=1.0 / 6.0, i_min=2, i_max=5),
            )


@pytest.fixture(scope="module")
def light_problem():
    model = frame_with_redundant_dampers(
        n_stories=2, per_story=2, mass=10.0, story_k=2000.0, d_allow=0.012
    )
    gm = synthetic_record(400, dt=0.02, seed=31, peak=1.55, name="recB")
    scen = enumerate_scenarios(4, 1, 2, nu=0.5)
    slp = SlpConfig(i_min=10, i_max=150)
    fs = FailSafeConfig()
    return model, gm, scen, slp, fs


@pytest.fixture(scope="module")
def light_runs(light_problem):
    model, gm, scen, slp, fs = light_problem
    runs = {
        mode: run_failsafe(
            model, scen, [gm], c_bar=800.0, slp_config=slp, fs_config=fs, mode=mode
        )
        for mode in ("basic", "failsafe", "fullset")
    }
    return (*light_problem, runs)


class TestRunFailsafe:
    def test_working_sets_expand_strictly(self, light_runs):
        *_, runs = light_runs
        history = runs["failsafe"].working_set_history
        assert history[0] == (0,)
        for earlier, later in zip(history, history[1:]):
            assert set(earlier) < set(later)

    def test_termination_certificate(self, light_runs):
        model, gm, scen, slp, fs, runs = light_runs
        for mode in ("failsafe", "fullset"):
            final = runs[mode]
            assert final.converged and final.verified
            g = evaluate_all(
                final.design, model, scen, [gm], final.params_final
            )
            assert np.all(g <= fs.violation_tol)

    def test_working_set_needs_fewer_evaluations(self, light_runs):
        *_, runs = light_runs
        assert (
            runs["failsafe"].eval_counter.total
            < runs["fullset"].eval_counter.total
        )

    def test_working_set_matches_fullset_cost(self, light_runs):
        *_, runs = light_runs
        ws, full = runs["failsafe"], runs["fullset"]
        assert ws.cost == pytest.approx(full.cost, rel=0.01)

    def test_basic_design_is_cheaper_but_unsafe(self, light_runs):
        model, gm, scen, slp, fs, runs = light_runs
        basic, ws = runs["basic"], runs["failsafe"]
        assert basic.cost < ws.cost
        g_basic = evaluate_all(basic.design, model, scen, [gm], ws.params_final)
        assert np.any(g_basic > 0), "damage must hurt the basic design"

    def test_basic_mode_reports_single_scenario(self, light_runs):
        *_, runs = light_runs
        basic = runs["basic"]
        assert basic.working_set_history == [(0,)]
        assert basic.scenario_g.shape == (1,)

    def test_eval_counter_matches_iteration_ledger(self, light_runs):
        # Every SLP iteration costs one primal and one adjoint solve per
        # (scenario, record) pair; verification sweeps add primal solves.
        *_, runs = light_runs
        full = runs["fullset"]
        pairs = sum(
            sp.iterations * len(sp.scenario_ids) for sp in full.subproblems
        )
        assert full.eval_counter.n_adjoint == pairs
        assert full.eval_counter.n_primal > pairs  # sweeps included


class TestRecordLoop:
    def test_violating_record_is_added(self):
        # Record A: resonant harmonic, dominant by spectral displacement
        # but easy to damp. Record B: broadband, weaker at the fundamental
        # period yet violating the A-tuned design, so the loop must pull it
        # in and re-optimize.
        model = shear_frame(2, mass=10.0, story_k=2000.0, d_allow=0.012)
        w1 = compute_lowest_modes(model, 1)[0][0]
        T1 = 2.0 * np.pi / w1
        t = np.arange(0.0, 12.0 + 1e-9, 0.02)
        env = np.minimum(1.0, t / 2.0) * np.minimum(1.0, (t[-1] - t) / 1.0)
        gm_a = GroundMotion(name="recA", dt=0.02, accel=0.55 * np.sin(w1 * t) * env)
        gm_b = synthetic_record(600, dt=0.02, seed=31, peak=1.55, name="recB")
        assert spectral_displacement(gm_a, T1, 0.05) > spectral_displacement(
            gm_b, T1, 0.05
        )

        scen = enumerate_scenarios(2, 0, 0)
        slp = SlpConfig(i_min=10, i_max=150)
        fs = FailSafeConfig()

        only_a = run_failsafe(
            model, scen, [gm_a], c_bar=400.0, slp_config=slp, fs_config=fs
        )
        g_b = evaluate_all(
            only_a.design, model, scen, [gm_b], only_a.params_final
        )
        assert g_b[0] > 0, "record B must violate the A-only design"

        final = run_failsafe(
            model, scen, [gm_a, gm_b], c_bar=400.0, slp_config=slp, fs_config=fs
        )
        assert final.active_records == ["recA", "recB"]
        assert final.converged and final.verified
        for gm in (gm_a, gm_b):
            g = evaluate_all(final.design, model, scen, [gm], final.params_final)
            assert np.all(g <= fs.violation_tol)


class TestGuards:
    def test_empty_ensemble_rejected(self, light_problem):
        model, gm, scen, slp, fs = light_problem
        with pytest.raises(ValueError, match="ensemble"):
            run_failsafe(model, scen, [], slp_config=slp, fs_config=fs)

    def test_unknown_mode_rejected(self, light_problem):
        model, gm, scen, slp, fs = light_problem
        with pytest.raises(ValueError, match="mode"):
            run_failsafe(model, scen, [gm], mode="bogus")

    def test_scenario_model_mismatch_rejected(self, light_problem):
        model, gm, scen, slp, fs = light_problem
        wrong = enumerate_scenarios(3, 1, 0)
        with pytest.raises(ValueError, match="dampers"):
            run_failsafe(model, wrong, [gm])

    def test_infeasible_problem_raises_convergence_error(self):
        # Drift limit far below what full damping can deliver.
        model = shear_frame(2, mass=10.0, story_k=2000.0, d_allow=0.0005)
        gm = synthetic_record(200, dt=0.02, seed=31, peak=1.55)
        scen = enumerate_scenarios(2, 0, 0)
        slp = SlpConfig(i_min=5, i_max=30)
        fs = FailSafeConfig(max_resumes=2)
        with pytest.raises(ConvergenceError):
            run_failsafe(
                model, scen, [gm], c_bar=400.0, slp_config=slp, fs_config=fs
            )