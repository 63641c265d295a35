"""Working-set driver: selection rule, expansion protocol, record loop."""

import dataclasses
import warnings

import numpy as np
import pytest

from failsafe_dampers import (
    ConstraintParams,
    ConvergenceError,
    DesignVector,
    FailSafeConfig,
    GroundMotion,
    ScenarioSet,
    SlpConfig,
    assemble_added_damping,
    compute_lowest_modes,
    enumerate_scenarios,
    evaluate_all,
    evaluate_drift_constraint,
    exact_peak,
    newmark_solve,
    run_failsafe,
    select_critical,
    spectral_displacement,
)
from failsafe_dampers import adjoint, dynamics, failsafe, optimizer
from failsafe_dampers import model as model_mod
from failsafe_dampers.adjoint import accumulate_gradient, dg_du_trajectory, solve_adjoint
from failsafe_dampers._simplex import SimplexError
from failsafe_dampers.optimizer import EvalCounter

from conftest import (
    buckled_frame,
    frame_with_redundant_dampers,
    paper_scale_problem,
    shear_frame,
    synthetic_record,
    whole_stack_history,
)


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
            ConstraintParams(p=100),
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
            ConstraintParams(p=1000),
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
            ConstraintParams(p=100),
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
        params = ConstraintParams(p=300)
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
        # An indefinite stiffness overflows the states. The sweep must fail
        # loudly, not read the NaN peaks as inactive drifts (g = -1
        # everywhere, and a "verified" design).
        model = buckled_frame()
        rng = np.random.default_rng(1)
        gm = GroundMotion(name="noise", dt=0.02, accel=rng.standard_normal(1501))
        scen = enumerate_scenarios(4, 1, 0)
        design = DesignVector(x=np.full(4, 0.5), c_bar=1000.0)
        with pytest.raises(ConvergenceError, match="'noise' diverged.*time step"):
            evaluate_all(design, model, scen, [gm], ConstraintParams())
        with pytest.raises(ConvergenceError, match="'noise' diverged.*time step"):
            run_failsafe(
                model,
                scen,
                [gm],
                c_bar=1000.0,
                slp_config=SlpConfig(i_min=2, i_max=5),
            )


def test_record_lists_it_cannot_use_rejected():
    model = frame_with_redundant_dampers(d_allow=0.012)
    scen = enumerate_scenarios(model.n_dampers, 1, 0)
    design = DesignVector(x=np.full(4, 0.5), c_bar=400.0)
    with pytest.raises(ValueError, match="need at least one ground motion"):
        evaluate_all(design, model, scen, [], ConstraintParams())
    twins = [synthetic_record(50, seed=seed, name="rec") for seed in (1, 2)]
    with pytest.raises(ValueError, match=r"record names must be unique, got \['rec', 'rec'\]"):
        run_failsafe(model, scen, twins, c_bar=400.0)


def full_stack_reference(model, design, scenarios, gm, params):
    """g and gradients of every scenario from the whole (B, n, n) stack,
    repeats included: the states of `whole_stack_history`, then the drift
    evaluation, dg/du, the adjoint and the contraction on all B."""
    C_d = assemble_added_damping(model, design, scenarios)
    hist = whole_stack_history(model, C_d, gm)
    value = evaluate_drift_constraint(hist, model, params)
    forcing = dg_du_trajectory(hist, model, params, value=value)
    lambda_u = solve_adjoint(model, C_d, hist, forcing)
    return value.g, accumulate_gradient(model, design, scenarios, hist.v, lambda_u)


def assert_planes_are_the_reference(planes, refs, x):
    """Each plane's gradient and right-hand side, scenario-major over the
    records, bit for bit those of `full_stack_reference` (one per record)
    linearized at x."""
    planes = list(planes)
    assert len(planes) == len(refs) * len(refs[0][0])
    for k, plane in enumerate(planes):
        s, r = divmod(k, len(refs))
        g, grads = refs[r]
        assert plane.gradient.tobytes() == grads[s].tobytes()
        assert np.float64(plane.rhs).tobytes() == (np.vecdot(grads[s], x) - g[s]).tobytes()


class TestDistinctSystems:
    """A batch sweeps each distinct damping matrix of its stack once: the
    scenarios that fail only zero dampers share the intact matrix."""

    @pytest.mark.parametrize("n_steps, nonzero", [(300, [0, 5, 10]), (2000, [1, 4, 8, 11, 14])])
    def test_paper_scale_stack_is_bitwise_the_whole_stack(self, n_steps, nonzero):
        # W2's 137 scenarios at a design with 13 and 11 zero dampers sweep 10
        # and 21 systems. The whole stack's block differs from the one the
        # rule picks for so few, so this also pins the block to the stack's.
        model, records, scenario_set = paper_scale_problem(n_steps)
        scenarios = list(scenario_set)
        x = np.zeros(16)
        x[nonzero] = np.linspace(0.3, 0.9, len(nonzero))
        design = DesignVector(x=x, c_bar=2000.0)
        stack = assemble_added_damping(model, design, scenarios)
        distinct, _ = model_mod.distinct_matrices(stack)
        k = len(nonzero)
        assert len(distinct) == 1 + 2 * k + k * (k - 1) // 2
        m = 3 * model.n_dof
        assert dynamics._block_length(len(stack), m, n_steps) != dynamics._block_length(
            len(distinct), m, n_steps
        )
        params = ConstraintParams(p=1000)
        refs = [full_stack_reference(model, design, scenarios, gm, params) for gm in records]

        res = optimizer.slp_solve(
            model, scenarios, records, design, SlpConfig(i_min=1, i_max=1, p_start=1000)
        )
        assert_planes_are_the_reference(res.planes, refs, design.x)
        g = evaluate_all(design, model, scenario_set, records, params)
        want = np.full(len(scenarios), -np.inf)
        for g_rec, _ in refs:
            want = np.maximum(want, g_rec)
        assert g.tobytes() == want.tobytes()
        # A completely failed damper gets an exactly zero component.
        for plane in res.planes:
            sc = scenario_set[plane.scenario_id]
            if sc.factor == 0.0:
                assert np.all(plane.gradient[list(sc.damaged)] == 0.0)

    @staticmethod
    def two_equal_matrices():
        """The intact frame and damper 0 failed, at a design where damper 0
        has size zero: one matrix twice."""
        model = frame_with_redundant_dampers(d_allow=0.012)
        gm = synthetic_record(300, dt=0.02, seed=31, peak=1.55)
        scenarios = list(enumerate_scenarios(4, 1, 1, nu=0.5))[:2]
        assert [sc.damaged for sc in scenarios] == [(), (0,)]
        design = DesignVector(x=[0.0, 0.6, 0.3, 0.8], c_bar=800.0)
        stack = assemble_added_damping(model, design, scenarios)
        assert stack[0].tobytes() == stack[1].tobytes()
        return model, gm, scenarios, design

    def test_two_equal_matrices_keep_the_parents_bits(self):
        # Despite the name: the stack sweeps one system, whose contraction
        # numpy multiplies with its one-row kernels, so the planes agree with
        # the whole stack's to rounding, and the two scenarios share theirs.
        model, gm, scenarios, design = self.two_equal_matrices()
        g, grads = full_stack_reference(model, design, scenarios, gm, ConstraintParams())
        res = optimizer.slp_solve(model, scenarios, [gm], design, SlpConfig(i_min=1, i_max=1))
        planes = list(res.planes)
        assert len(planes) == 2
        for plane, g_ref, grad_ref in zip(planes, g, grads):
            g_plane = plane.gradient @ design.x - plane.rhs  # at its own point
            assert g_plane == pytest.approx(g_ref, rel=1e-12)
            assert np.abs(plane.gradient - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()
        # Scenario 1 fails damper 0 only: its other components are scenario 0's.
        assert planes[1].gradient[0] == 0.0
        assert planes[0].gradient[1:].tobytes() == planes[1].gradient[1:].tobytes()

    def test_a_stack_of_equal_matrices_counts_one_system(self):
        # The run manifest's primal_systems and adjoint_systems are these.
        model, gm, scenarios, design = self.two_equal_matrices()
        counter = EvalCounter()
        optimizer.slp_solve(
            model, scenarios, [gm], design, SlpConfig(i_min=1, i_max=1), counter=counter
        )
        assert (counter.n_primal, counter.n_adjoint) == (2, 2)
        assert (counter.n_primal_systems, counter.n_adjoint_systems) == (1, 1)

    @pytest.mark.parametrize("x, n_systems", [([0.0, 0.6, 0.0, 0.8], 6), ([0.9, 0.6, 0.3, 0.8], 11)])
    def test_sweeps_see_each_distinct_matrix_once(self, x, n_systems, monkeypatch):
        # 11 scenarios; with dampers 0 and 2 at zero, four of them (intact,
        # 0 failed, 2 failed, both at half) are the intact frame and two
        # pairs more coincide.
        model = frame_with_redundant_dampers(d_allow=0.012)
        gm = synthetic_record(200, dt=0.02, seed=31, peak=1.55)
        scen = enumerate_scenarios(4, 1, 2, nu=0.5)
        design = DesignVector(x=x, c_bar=800.0)
        seen = []

        def spy(model, C_d, gm):
            hist = real(model, C_d, gm)
            seen.append((len(C_d), hist.u.shape[1]))
            return hist

        real = dynamics.newmark_solve
        monkeypatch.setattr(failsafe, "newmark_solve", spy)
        monkeypatch.setattr(optimizer, "newmark_solve", spy)
        counter = EvalCounter()
        evaluate_all(design, model, scen, [gm], ConstraintParams(), counter)
        optimizer.slp_solve(
            model, list(scen), [gm], design, SlpConfig(i_min=1, i_max=1), counter=counter
        )
        assert seen == [(11, n_systems)] * 2
        assert (counter.n_primal, counter.n_adjoint) == (22, 11)
        assert (counter.n_primal_systems, counter.n_adjoint_systems) == (2 * n_systems, n_systems)
        assert counter.total == 33


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


def test_a_second_run_with_warm_caches_is_bitwise_the_first(light_problem):
    # The terms each sub-problem holds fixed are built on first use and then
    # shared: a rerun in the same process takes every step of the first.
    model, gm, scen, slp, fs = light_problem
    dynamics._step_terms.cache_clear()
    model_mod._damper_scales.cache_clear()
    first, second = [
        run_failsafe(model, scen, [record], c_bar=800.0, slp_config=slp, fs_config=fs)
        for record in (GroundMotion(gm.name, gm.dt, gm.accel),) * 2
    ]
    assert first.design.x.tobytes() == second.design.x.tobytes()
    assert first.working_set_history == second.working_set_history
    assert first.eval_counter == second.eval_counter
    assert [
        [dataclasses.astuple(rec) for rec in sub.history] for sub in first.subproblems
    ] == [[dataclasses.astuple(rec) for rec in sub.history] for sub in second.subproblems]
    assert sum(len(sub.history) for sub in first.subproblems) > 10


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


class TestResumes:
    def test_resume_tightens_planes_by_the_violation(self, light_problem, monkeypatch):
        # At c_bar = 400 the basic design converges just outside the
        # constraint and needs one resume. Each sub-problem starts with
        # the planes tightened by half the tolerance; a resume adds the max
        # g of the sweep that forced it.
        model, gm, scen, slp, fs = light_problem
        margins, g_max = [], []

        def spy_slp(*args, **kwargs):
            margins.append(kwargs["feasibility_margin"])
            return real_slp(*args, **kwargs)

        def spy_sweep(*args, **kwargs):
            g = real_sweep(*args, **kwargs)
            g_max.append(float(g.max()))
            return g

        real_slp, real_sweep = failsafe.slp_solve, failsafe.evaluate_all
        monkeypatch.setattr(failsafe, "slp_solve", spy_slp)
        monkeypatch.setattr(failsafe, "evaluate_all", spy_sweep)
        final = run_failsafe(
            model, scen, [gm], c_bar=400.0, slp_config=slp, fs_config=fs, mode="basic"
        )
        assert final.verified and final.subproblems[0].resumes == 1
        assert len(margins) == len(g_max) == 2
        assert g_max[0] > fs.violation_tol >= g_max[1]
        assert margins == [0.5 * fs.violation_tol, 0.5 * fs.violation_tol + g_max[0]]

    def test_resume_holds_p_and_q_at_the_final_exponents(self, light_problem, monkeypatch):
        # The first solve ratchets the exponent (q = p) up every iteration;
        # the resume runs every iteration at the one the first solve ended with.
        model, gm, scen, slp, fs = light_problem
        results = []

        def spy_slp(*args, **kwargs):
            results.append(real_slp(*args, **kwargs))
            return results[-1]

        real_slp = failsafe.slp_solve
        monkeypatch.setattr(failsafe, "slp_solve", spy_slp)
        final = run_failsafe(
            model, scen, [gm], c_bar=400.0, slp_config=slp, fs_config=fs, mode="basic"
        )
        first, resume = results
        assert first.history[1].p == first.history[0].p + slp.p_step
        end = first.p_final
        assert end > slp.p_start
        assert [r.p for r in resume.history] == [end] * resume.n_iterations
        assert resume.p_final == end
        assert final.params_final.p == end
        assert resume.n_iterations >= failsafe.RESUME_I_MIN

    def test_resume_budget_raises_after_the_last_resume(self, monkeypatch, caplog):
        # A drift limit that full damping cannot meet: the sub-problem is
        # solved once and resumed MAX_RESUMES times, then the run raises
        # without announcing a resume it never runs.
        model = shear_frame(2, mass=10.0, story_k=2000.0, d_allow=0.0005)
        gm = synthetic_record(200, dt=0.02, seed=31, peak=1.55)
        scen = enumerate_scenarios(2, 0, 0)
        solves = []

        def spy_slp(*args, **kwargs):
            solves.append(kwargs["feasibility_margin"])
            return real_slp(*args, **kwargs)

        real_slp = failsafe.slp_solve
        monkeypatch.setattr(failsafe, "slp_solve", spy_slp)
        with caplog.at_level("INFO", logger="failsafe_dampers.failsafe"):
            with pytest.raises(ConvergenceError, match="resume budget"):
                run_failsafe(
                    model, scen, [gm], c_bar=400.0, slp_config=SlpConfig(i_min=5, i_max=30)
                )
        assert len(solves) == failsafe.MAX_RESUMES + 1
        resumes = [r for r in caplog.records if "resuming" in r.getMessage()]
        assert len(resumes) == failsafe.MAX_RESUMES

    def test_resume_with_a_short_iteration_cap_returns(self, light_problem):
        # i_max = 4 is below the resume's minimum of 5 iterations: the
        # resume runs at most i_max iterations instead of failing to start.
        model, gm, scen, _, fs = light_problem
        slp = SlpConfig(i_min=3, i_max=4)
        final = run_failsafe(
            model, scen, [gm], c_bar=400.0, slp_config=slp, fs_config=fs, mode="basic"
        )
        assert final.subproblems[0].resumes >= 1
        assert not final.converged


@pytest.mark.parametrize(
    "n_steps,cost",
    [(300, 1.5126), (400, 1.7560), (600, 0.98655), (1000, 1.4392), (2000, 0.83901)],
    ids=["300", "400", "600", "1000", "2000"],
)
def test_paper_scale_recipe_verifies(n_steps, cost):
    # Recipe W2: 16 dampers, 137 scenarios, 2 records. 400 steps ends with
    # both records active, 600 and 2,000 steps with one; 2,000 steps is the
    # longest record the recipe sweeps. 1,000 steps ends in `SimplexError`
    # when the sweeps' products move in the last bit (ROADMAP item 9).
    model, records, scenarios = paper_scale_problem(n_steps)
    final = run_failsafe(
        model,
        scenarios,
        records,
        c_bar=2000.0,
        slp_config=SlpConfig(i_min=50, i_max=400),
        mode="failsafe",
    )
    assert final.converged and final.verified
    assert final.cost == pytest.approx(cost, rel=0.01)


@pytest.mark.xfail(
    strict=True, raises=SimplexError, reason="Bland at tol 1e-10 cycles, ROADMAP item 2"
)
def test_paper_scale_recipe_at_200_steps_verifies():
    # Recipe W2 at 200 steps: a phase-2 LP of sub-problem 3 cycles until the
    # pivot budget runs out (see the LP itself in test_optimizer.py).
    model, records, scenarios = paper_scale_problem(200)
    final = run_failsafe(
        model,
        scenarios,
        records,
        c_bar=2000.0,
        slp_config=SlpConfig(i_min=50, i_max=400),
        mode="failsafe",
    )
    assert final.converged and final.verified


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


    def test_scenario_g_is_the_worst_over_every_record(self):
        # Record B never violates the design tuned to the dominant record A,
        # so it stays inactive; it still reads the larger g at three of the
        # five scenarios, and the reported values must include it.
        model = frame_with_redundant_dampers(
            n_stories=2, per_story=2, mass=10.0, story_k=2000.0, d_allow=0.012
        )
        w1 = compute_lowest_modes(model, 1)[0][0]
        t = np.arange(0.0, 12.0 + 1e-9, 0.02)
        env = np.minimum(1.0, t / 2.0) * np.minimum(1.0, (t[-1] - t) / 1.0)
        gm_a = GroundMotion(name="recA", dt=0.02, accel=0.55 * np.sin(w1 * t) * env)
        gm_b = synthetic_record(600, dt=0.02, seed=31, peak=0.9, name="recB")
        scen = enumerate_scenarios(model.n_dampers, 1, 0)
        final = run_failsafe(
            model, scen, [gm_a, gm_b], c_bar=800.0, slp_config=SlpConfig(i_min=10, i_max=150)
        )
        g_a, g_b = (
            evaluate_all(final.design, model, scen, [gm], final.params_final)
            for gm in (gm_a, gm_b)
        )
        assert final.active_records == ["recA"] and final.verified
        assert np.any(g_b > g_a)
        assert np.array_equal(final.scenario_g, np.maximum(g_a, g_b))
        assert final.max_g == final.scenario_g.max()

    def test_basic_mode_checks_every_record(self):
        # Basic mode optimizes the intact frame only, but under every
        # record: record r1 drives the r0-tuned design past the limit
        # (g = +0.366), so it joins and the intact scenario is re-solved.
        model = frame_with_redundant_dampers()
        bare = np.zeros((model.n_dof, model.n_dof))
        records = []
        for seed, name in ((57, "r0"), (1011, "r1")):
            gm = synthetic_record(150, dt=0.02, seed=seed, peak=2.5, name=name)
            peak = exact_peak(newmark_solve(model, bare, gm), model)
            records.append(gm.rescaled(1.5 / peak))
        scen = enumerate_scenarios(model.n_dampers, 1, 1, 0.5)
        fs = FailSafeConfig()
        final = run_failsafe(
            model, scen, records, c_bar=2000.0,
            slp_config=SlpConfig(i_min=10, i_max=100), fs_config=fs, mode="basic",
        )
        assert sorted(final.active_records) == ["r0", "r1"]
        assert final.working_set_history == [(0,)]
        assert final.verified
        intact = ScenarioSet(scenarios=(scen[0],), n_dampers=scen.n_dampers)
        for gm in records:
            g = evaluate_all(final.design, model, intact, [gm], final.params_final)
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

    def test_sub_problem_budget_bounds_the_run(self, light_runs, monkeypatch):
        # A budget of exactly the sub-problems a run needs lets it finish;
        # one fewer ends in ConvergenceError instead of a further solve.
        model, gm, scen, slp, fs, runs = light_runs
        needed = len(runs["failsafe"].subproblems)
        assert needed > 1
        monkeypatch.setattr(failsafe, "MAX_SUBPROBLEMS", needed)
        final = run_failsafe(model, scen, [gm], c_bar=800.0, slp_config=slp, fs_config=fs)
        assert final.cost == runs["failsafe"].cost
        monkeypatch.setattr(failsafe, "MAX_SUBPROBLEMS", needed - 1)
        with pytest.raises(ConvergenceError, match=f"sub-problem budget \\({needed - 1}\\)"):
            run_failsafe(model, scen, [gm], c_bar=800.0, slp_config=slp, fs_config=fs)

    def test_infeasible_problem_raises_convergence_error(self):
        # Drift limit far below what full damping can deliver.
        model = shear_frame(2, mass=10.0, story_k=2000.0, d_allow=0.0005)
        gm = synthetic_record(200, dt=0.02, seed=31, peak=1.55)
        scen = enumerate_scenarios(2, 0, 0)
        slp = SlpConfig(i_min=5, i_max=30)
        with pytest.raises(ConvergenceError, match="resume budget"):
            run_failsafe(model, scen, [gm], c_bar=400.0, slp_config=slp)


class TestEdges:
    def test_undamped_frame_verifies(self):
        # No inherent damping: the bare frame's P has its eigenvalues on
        # the unit circle, and the blocked primal sweeps must stay finite
        # and warning-free.
        model = frame_with_redundant_dampers(
            mass=10.0, story_k=2000.0, d_allow=0.012, zeta=0.0
        )
        assert not np.any(model.inherent_damping)
        gm = synthetic_record(300, dt=0.02, seed=31, peak=1.55)
        scen = enumerate_scenarios(model.n_dampers, 1, 1, nu=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            final = run_failsafe(
                model, scen, [gm], c_bar=800.0, slp_config=SlpConfig(i_min=10, i_max=150)
            )
        assert final.converged and final.verified

    def test_all_zero_record(self, monkeypatch):
        # A record that never moves the frame: every g is the limit value
        # -1, every gradient is exactly zero, the adjoint sweeps no step,
        # and the run ends at the zero design, verified.
        model = frame_with_redundant_dampers(d_allow=0.012)
        gm = GroundMotion(name="quiet", dt=0.02, accel=np.zeros(201))
        scen = enumerate_scenarios(model.n_dampers, 1, 1, nu=0.5)
        grads, swept = [], []

        def spy_gradient(*args, **kwargs):
            grads.append(real_gradient(*args, **kwargs))
            return grads[-1]

        def spy_sweep(powers, S):
            swept.append(len(S))
            real_sweep(powers, S)

        real_gradient, real_sweep = optimizer.adjoint_gradient, adjoint.transition_sweep
        monkeypatch.setattr(optimizer, "adjoint_gradient", spy_gradient)
        monkeypatch.setattr(adjoint, "transition_sweep", spy_sweep)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            final = run_failsafe(
                model, scen, [gm], c_bar=400.0, slp_config=SlpConfig(i_min=5, i_max=30)
            )
        assert final.converged and final.verified
        assert np.all(final.scenario_g == -1.0)
        assert np.all(final.design.x == 0.0)
        assert grads and all(np.all(g == 0.0) for g in grads)
        assert swept and set(swept) == {0}
