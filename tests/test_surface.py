"""The settings surface: values that only one setting reaches are constants.

A parameter or field that comes back here has to be a deliberate edit.
"""

import ast
import dataclasses
import inspect
import textwrap

import numpy as np
import pytest

from failsafe_dampers import (
    ConstraintParams,
    CuttingPlanes,
    FailSafeConfig,
    FailureScenario,
    SlpConfig,
    adjoint_gradient,
    evaluate_all,
    fd_gradient,
    newmark_solve,
    run_failsafe,
    slp_solve,
)
from failsafe_dampers import adjoint, cli, constraints, dynamics, failsafe, model
from failsafe_dampers.dynamics import (
    GroundMotion,
    ResponseHistory,
    transition_matrices,
    transition_sweep,
)
from failsafe_dampers.optimizer import CuttingPlane, IterationRecord, LpResult

from conftest import shear_frame, synthetic_record


@pytest.mark.parametrize(
    "fn",
    [newmark_solve, transition_matrices, evaluate_all, adjoint_gradient, fd_gradient],
    ids=lambda fn: fn.__name__,
)
def test_newmark_beta_is_no_parameter(fn):
    assert "beta" not in inspect.signature(fn).parameters


def test_slp_solve_takes_its_continuation_from_the_config():
    params = inspect.signature(slp_solve).parameters
    assert not {"p_start", "q_start", "advance_continuation"} & set(params)


def test_failsafe_config_holds_only_the_tolerances():
    # The violation tolerance is a constant of the class, not a setting.
    assert {f.name for f in dataclasses.fields(FailSafeConfig)} == {"epsilon"}
    assert FailSafeConfig.violation_tol == FailSafeConfig().violation_tol == 1e-6


def test_slp_config_sets_one_exponent_schedule():
    # q follows p, and the exponent cap is the constant P_CAP.
    assert {f.name for f in dataclasses.fields(SlpConfig)} == {
        "ml",
        "i_min",
        "i_max",
        "p_start",
        "p_step",
    }


def test_constraint_params_hold_one_exponent():
    # The aggregation's q is the time norm's p.
    assert {f.name for f in dataclasses.fields(ConstraintParams)} == {"p"}


def test_newmark_solve_starts_from_rest():
    assert not {"u0", "v0"} & set(inspect.signature(newmark_solve).parameters)


def test_transition_sweep_takes_its_block_from_the_power_table():
    assert list(inspect.signature(transition_sweep).parameters) == ["powers", "S"]


def test_response_history_holds_the_trajectories_and_the_sweep_operands():
    assert {f.name for f in dataclasses.fields(ResponseHistory)} == {
        "u",
        "v",
        "a",
        "dt",
        "powers",
        "Q",
        "index",
    }


def test_newmark_solve_owns_the_distinct_matrix_sweep():
    # A stack's sweep picks its distinct matrices and its block itself, and
    # the history's index carries them to the drift evaluation and adjoint.
    assert list(inspect.signature(newmark_solve).parameters) == ["model", "C_d", "gm"]
    assert "index" not in inspect.signature(adjoint_gradient).parameters


def test_newmark_solve_is_the_one_way_into_the_sweep_and_a_record_a_plain_value():
    # The spectral ranking integrates a one-DOF model through `newmark_solve`,
    # and a record's load rows live in a cache keyed on its content.
    assert not hasattr(dynamics, "_integrate")
    assert {f.name for f in dataclasses.fields(GroundMotion)} == {"name", "dt", "accel"}


def test_the_record_ranking_has_one_damping_ratio():
    assert list(inspect.signature(dynamics.select_dominant_record).parameters) == [
        "records",
        "period",
    ]
    assert dynamics.RANKING_ZETA == 0.05


def test_the_gradient_is_of_the_callers_sweep():
    params = inspect.signature(adjoint_gradient).parameters
    assert "gm" not in params
    assert all(p.default is inspect.Parameter.empty for p in params.values())
    assert [n for n, p in params.items() if p.kind is p.KEYWORD_ONLY] == [
        "C_d",
        "history",
        "value",
    ]


def test_constraints_own_g_and_dg_du():
    # The adjoint sweeps the forcing `constraints` gives and reads none of
    # its internals.
    assert adjoint.dg_du_trajectory is constraints.dg_du_trajectory
    assert constraints.dg_du_trajectory.__module__ == "failsafe_dampers.constraints"
    tree = ast.parse(inspect.getsource(adjoint))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "constraints"
        for alias in node.names
    ]
    assert "dg_du_trajectory" in imported
    assert not [name for name in imported if name.startswith("_")]


def test_cutting_planes_take_their_labels_once_per_sub_problem():
    # Row r is label r % K of iteration r // K + 1: no row stores its own.
    assert list(inspect.signature(CuttingPlanes.__init__).parameters) == [
        "self",
        "n",
        "labels",
    ]
    assert list(inspect.signature(CuttingPlanes.append).parameters) == [
        "self",
        "gradients",
        "intercepts",
        "point",
    ]
    assert not hasattr(CuttingPlanes, "__getitem__")


def test_a_cutting_plane_is_its_lp_row():
    # A plane holds what the LP reads, ghat(x) = gradient @ x - rhs; its
    # linearization point and intercept are folded into the right-hand side.
    assert CuttingPlane._fields == (
        "scenario_id",
        "record",
        "gradient",
        "rhs",
        "iteration",
        "enabled",
    )
    planes = CuttingPlanes(2, [(0, "r")])
    planes.append([[1.0, 2.0]], [0.5], [0.25, 0.25])
    assert set(vars(planes)) == {"_labels", "_gradients", "_rhs", "_enabled"}
    (plane,) = planes
    assert plane.rhs == 0.25


def test_drift_columns_stay_time_last():
    # The columns H u' gives are the layout the evaluation, the peak and the
    # adjoint read; no time-first view of them is handed out.
    assert not hasattr(constraints, "_time_first")
    assert not hasattr(constraints, "_time_last")
    frame = shear_frame(2)
    gm = synthetic_record(50, dt=0.02, seed=1, peak=1.0)
    for C_d in (np.zeros((2, 2)), np.stack([c * np.eye(2) for c in (0.0, 100.0, 400.0)])):
        hist = newmark_solve(frame, C_d, gm)
        drifts = constraints.normalized_drifts(hist, frame)
        assert drifts.shape == C_d.shape[:-2] + (frame.n_drifts, gm.n_steps + 1)


def test_iteration_record_holds_no_label_or_per_pair_values():
    assert {f.name for f in dataclasses.fields(IterationRecord)} == {
        "cost",
        "g_max_true",
        "step_norm",
        "n_active_planes",
        "p",
        "lp_status",
        "margin",
        "lp_pivots",
    }


def test_run_failsafe_drives_one_loop():
    # Sub-problems, resumes and record additions are the outcomes of one
    # verification step; the ensemble size bounds the record additions.
    tree = ast.parse(textwrap.dedent(inspect.getsource(run_failsafe)))
    loops = [n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While))]
    (driver,) = [n for n in loops if isinstance(n, ast.While)]
    inside = set(map(id, ast.walk(driver)))
    assert all(id(n) in inside for n in loops)
    assert not any(n.orelse for n in loops)
    assert not hasattr(failsafe, "MAX_RECORD_PASSES")


def test_basic_mode_only_narrows_the_scenario_set():
    tree = ast.parse(textwrap.dedent(inspect.getsource(run_failsafe)))
    basic = [
        n
        for n in ast.walk(tree)
        if isinstance(n, ast.Compare)
        and any(isinstance(c, ast.Constant) and c.value == "basic" for c in n.comparators)
    ]
    assert len(basic) == 1


def test_lp_result_holds_the_point_its_status_and_its_binding_planes():
    assert {f.name for f in dataclasses.fields(LpResult)} == {
        "x", "status", "binding", "tight", "pivots"
    }


def test_convergence_tolerance_is_its_formula():
    assert "delta" not in {f.name for f in dataclasses.fields(SlpConfig)}


def test_damage_multipliers_and_plane_predictions_have_one_definition():
    # `model.damper_scales` maps scenarios to multipliers; the LP decides
    # which planes bind from its own rows.
    assert not hasattr(FailureScenario, "scale_vector")
    assert not hasattr(CuttingPlane, "predict")


def test_enabled_rows_are_indices_gradients_and_right_hand_sides():
    planes = CuttingPlanes(2, [(0, "r"), (1, "r")])
    planes.append([[1.0, 0.0], [0.0, 2.0]], [0.5, -0.5], [0.25, 0.25])
    planes.disable([0])
    idx, A, rhs = planes.enabled_rows()
    assert idx.tolist() == [1]
    assert A.tolist() == [[0.0, 2.0]]
    assert rhs.tolist() == [1.0]


def test_model_file_has_one_parse_and_matrices_one_symmetry_rule():
    assert not hasattr(cli, "_key_lines")
    assert not hasattr(model, "_readonly")


def test_check_gradients_has_one_spelling():
    options = {o for action in cli.build_parser()._actions for o in action.option_strings}
    assert "--check-gradients" not in options


def test_run_failsafe_has_no_start_point_parameter():
    assert "x0" not in inspect.signature(run_failsafe).parameters
