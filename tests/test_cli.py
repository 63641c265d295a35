"""Model-file parsing, report rendering, and the command-line flow."""

import json

import numpy as np
import pytest
import yaml

from failsafe_dampers import DesignVector, InputError
from failsafe_dampers.cli import (
    load_design,
    main,
    parse_model,
    render_table,
    report_design,
    save_model,
)
from failsafe_dampers.model import StructuralModel

from conftest import shear_frame, synthetic_record

SDOF_YAML = """\
n_dof: 1
mass: [[1.0]]
stiffness: [[4.0]]
inherent_damping: [[0.2]]
influence: [1.0]
drift_transform: [[1.0]]
d_allow: 0.5
dampers:
  - row: [1.0]
"""


def write_inputs(tmp_path, n_steps=250, peak=1.55):
    base = shear_frame(2, mass=10.0, story_k=2000.0, d_allow=0.012)
    H = base.drift_transform
    model = StructuralModel(
        base.mass,
        base.stiffness,
        base.inherent_damping,
        base.influence,
        H,
        base.d_allow,
        (H[0:1].copy(), 0.8 * H[0:1], H[1:2].copy(), 0.8 * H[1:2]),
    )
    model_path = tmp_path / "frame.yaml"
    save_model(model, model_path)
    gm = synthetic_record(n_steps, dt=0.02, seed=31, peak=peak)
    rec_path = tmp_path / "quake.txt"
    np.savetxt(rec_path, np.column_stack([gm.times, gm.accel]), fmt="%.8g")
    return model, model_path, rec_path


class TestParseModel:
    def test_minimal_sdof_document(self, tmp_path):
        path = tmp_path / "sdof.yaml"
        path.write_text(SDOF_YAML)
        model = parse_model(path)
        assert model.n_dof == 1
        assert model.d_allow[0] == 0.5
        assert model.inherent_damping[0, 0] == 0.2

    def test_round_trip(self, tmp_path):
        model, model_path, _ = write_inputs(tmp_path)
        again = parse_model(model_path)
        assert np.allclose(again.mass, model.mass)
        assert np.allclose(again.stiffness, model.stiffness)
        assert np.allclose(again.inherent_damping, model.inherent_damping)
        assert np.allclose(again.drift_transform, model.drift_transform)
        assert np.allclose(again.d_allow, model.d_allow)
        assert len(again.damper_transforms) == len(model.damper_transforms)
        for a, b in zip(again.damper_transforms, model.damper_transforms):
            assert np.allclose(a, b)

    def test_flat_row_major_matrix(self, tmp_path):
        doc = yaml.safe_load(SDOF_YAML)
        doc["n_dof"] = 2
        doc["mass"] = [1.0, 0.0, 0.0, 1.0]
        doc["stiffness"] = [[2.0, -1.0], [-1.0, 1.0]]
        doc["inherent_damping"] = [[0.1, 0.0], [0.0, 0.1]]
        doc["influence"] = [1.0, 1.0]
        doc["drift_transform"] = [[1.0, 0.0], [-1.0, 1.0]]
        doc["d_allow"] = [0.5, 0.5]
        doc["dampers"] = [{"row": [1.0, 0.0]}]
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert np.allclose(parse_model(path).mass, np.eye(2))

    def test_dimension_mismatch_names_field_and_line(self, tmp_path):
        doc = yaml.safe_load(SDOF_YAML)
        doc["drift_transform"] = [[1.0, 0.0]]  # 2 columns for a 1-DOF model
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(InputError, match="drift_transform"):
            parse_model(path)
        with pytest.raises(InputError, match="line"):
            parse_model(path)

    def test_non_pd_mass_reported(self, tmp_path):
        doc = yaml.safe_load(SDOF_YAML)
        doc["mass"] = [[-1.0]]
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(InputError, match="positive definite"):
            parse_model(path)

    def test_missing_field(self, tmp_path):
        doc = yaml.safe_load(SDOF_YAML)
        del doc["influence"]
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(InputError, match="influence"):
            parse_model(path)

    def test_rayleigh_block(self, tmp_path):
        base = shear_frame(2, mass=1.0, story_k=100.0, zeta=0.0)
        doc = {
            "n_dof": 2,
            "mass": base.mass.tolist(),
            "stiffness": base.stiffness.tolist(),
            "rayleigh": {"zeta": 0.05},
            "influence": [1.0, 1.0],
            "drift_transform": base.drift_transform.tolist(),
            "d_allow": 0.01,
            "dampers": [{"row": [1.0, 0.0]}],
        }
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump(doc))
        model = parse_model(path)
        expected = shear_frame(2, mass=1.0, story_k=100.0, zeta=0.05)
        assert np.allclose(model.inherent_damping, expected.inherent_damping)

    def test_rayleigh_and_explicit_damping_conflict(self, tmp_path):
        doc = yaml.safe_load(SDOF_YAML)
        doc["rayleigh"] = {"zeta": 0.05}
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(InputError, match="not both"):
            parse_model(path)

    def test_broken_yaml_reported(self, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text("n_dof: [unclosed\nmass: 3")
        with pytest.raises(InputError, match="YAML"):
            parse_model(path)


class TestReports:
    def test_design_table_layout(self):
        final = DesignVector(x=[0.5, 0.0], c_bar=1000.0)
        basic = DesignVector(x=[0.25, 0.1], c_bar=1000.0)
        header, rows = report_design(final, {"basic": basic}, label="fail-safe")
        assert header == ["Location", "fail-safe [kNs/m]", "basic [kNs/m]"]
        assert rows[0] == [1, 500.0, 250.0]
        assert rows[1] == [2, 0.0, 100.0]
        assert rows[-2] == ["J [kNs/m]", 500.0, 350.0]
        assert rows[-1][0] == "J [-]"
        assert rows[-1][1] == pytest.approx(0.5)

    def test_zero_design_gives_zero_cost_row(self):
        header, rows = report_design(DesignVector(x=[0.0, 0.0], c_bar=1000.0))
        assert rows[-2] == ["J [kNs/m]", 0.0]
        assert rows[-1] == ["J [-]", 0.0]

    def test_render_table_aligns(self):
        header, rows = report_design(DesignVector(x=[1.0], c_bar=10.0))
        text = render_table(header, rows)
        assert "Location" in text and "J [kNs/m]" in text

    def test_design_file_round_trip(self, tmp_path):
        path = tmp_path / "design.csv"
        path.write_text("location,c\n1,500.0\n2,0.0\n3,125.0\n4,80.0\n")
        model, _, _ = write_inputs(tmp_path)
        design = load_design(path, model, c_bar=1000.0)
        assert np.allclose(design.coefficients, [500.0, 0.0, 125.0, 80.0])

    def test_constraint_report_covers_every_scenario(self):
        # 16 dampers, singles complete plus pairs partial: 137 rows.
        from failsafe_dampers import ConstraintParams, enumerate_scenarios
        from failsafe_dampers.cli import report_constraints
        from conftest import frame_with_redundant_dampers, synthetic_record

        model = frame_with_redundant_dampers(n_stories=4, per_story=4)
        gm = synthetic_record(40, dt=0.02, seed=1, peak=0.5)
        scen = enumerate_scenarios(16, 1, 2, nu=0.5)
        header, rows = report_constraints(
            DesignVector(x=np.full(16, 0.1), c_bar=100.0),
            model,
            scen,
            [gm],
            ConstraintParams(p=100, q=100),
        )
        assert len(rows) == 137
        assert header[-1] == "threshold"
        assert all(row[-1] == 1.0 for row in rows)


class TestDefaults:
    def test_cli_defaults_reproduce_reference_settings(self):
        from failsafe_dampers.cli import build_parser, config_from_args

        args = build_parser().parse_args(["--model", "m.yaml", "--records", "r.txt"])
        config = config_from_args(args)
        assert config.c_bar == 150_000.0
        assert config.epsilon == 0.05
        assert config.slp.ml == 0.02
        assert config.slp.i_min == 50
        assert (config.slp.p_start, config.slp.p_step, config.slp.p_cap) == (
            100, 500, 1_000_000,
        )
        assert (config.slp.q_start, config.slp.q_step, config.slp.q_cap) == (
            100, 500, 1_000_000,
        )
        assert config.deterministic is True


class TestMain:
    def test_simulate_zero_record_writes_zero_drifts(self, tmp_path):
        _, model_path, _ = write_inputs(tmp_path)
        zero = tmp_path / "zero.txt"
        zero.write_text("dt=0.02\n" + "0.0\n" * 50)
        out = tmp_path / "out"
        code = main(
            [
                "--model", str(model_path),
                "--records", str(zero),
                "--mode", "simulate",
                "--out", str(out),
            ]
        )
        assert code == 0
        drift = np.genfromtxt(out / "drifts_zero.csv", delimiter=",", skip_header=1)
        assert np.all(drift[:, 1:] == 0.0)

    def test_missing_model_is_input_error(self, tmp_path):
        code = main(
            [
                "--model", str(tmp_path / "nope.yaml"),
                "--records", str(tmp_path / "nope.txt"),
                "--mode", "simulate",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_check_gradients_mode(self, tmp_path, capsys):
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=60)
        out = tmp_path / "out"
        code = main(
            [
                "--model", str(model_path),
                "--records", str(rec_path),
                "--check-gradients",
                "--complete-k", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "gradient_check.csv").exists()
        assert "worst adjoint-vs-FD relative error" in capsys.readouterr().out

    def test_nonconvergence_exits_3(self, tmp_path):
        # Drift limit no damping level can meet.
        base = shear_frame(2, mass=10.0, story_k=2000.0, d_allow=0.0005)
        model_path = tmp_path / "strict.yaml"
        save_model(base, model_path)
        gm = synthetic_record(150, dt=0.02, seed=31, peak=1.55)
        rec = tmp_path / "q.txt"
        np.savetxt(rec, np.column_stack([gm.times, gm.accel]), fmt="%.8g")
        code = main(
            [
                "--model", str(model_path),
                "--records", str(rec),
                "--mode", "basic",
                "--cbar", "400",
                "--imin", "3",
                "--imax", "10",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 3

    def test_exhausted_pivot_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        from failsafe_dampers import optimizer
        from failsafe_dampers._simplex import SimplexError

        def exhausted(*args, **kwargs):
            raise SimplexError("pivot budget exhausted")

        monkeypatch.setattr(optimizer, "solve_inequality_lp", exhausted)
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=60)
        code = main(
            [
                "--model", str(model_path),
                "--records", str(rec_path),
                "--mode", "basic",
                "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "did not converge: pivot budget exhausted" in err
        assert "Traceback" not in err

    def test_infeasible_elastic_fallback_exits_3(self, tmp_path, capsys, monkeypatch):
        from failsafe_dampers import optimizer

        monkeypatch.setattr(
            optimizer, "solve_inequality_lp", lambda *args, **kwargs: (None, "infeasible")
        )
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=60)
        code = main(
            [
                "--model", str(model_path),
                "--records", str(rec_path),
                "--mode", "basic",
                "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "did not converge: elastic relaxation is infeasible" in err
        assert "Traceback" not in err

    def test_diverged_response_exits_3(self, tmp_path, capsys, monkeypatch):
        # beta = 1/6 with dt = 0.2 s overflows the states; the run must end
        # in exit 3 naming the record, not in a "verified" design.
        import functools

        from failsafe_dampers import SlpConfig, cli

        monkeypatch.setattr(cli, "SlpConfig", functools.partial(SlpConfig, beta=1.0 / 6.0))
        model_path = tmp_path / "frame.yaml"
        save_model(shear_frame(4), model_path)
        rec_path = tmp_path / "noise.txt"
        accel = np.random.default_rng(1).standard_normal(1501)
        np.savetxt(rec_path, np.column_stack([0.2 * np.arange(1501), accel]), fmt="%.10g")
        code = main(
            [
                "--model", str(model_path),
                "--records", str(rec_path),
                "--complete-k", "1",
                "--cbar", "1000",
                "--imin", "2",
                "--imax", "5",
                "--out", str(tmp_path / "out"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "did not converge: response to record 'noise' diverged" in err
        assert "Traceback" not in err

    def test_failsafe_run_is_deterministic(self, tmp_path):
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=200)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                [
                    "--model", str(model_path),
                    "--records", str(rec_path),
                    "--mode", "failsafe",
                    "--complete-k", "1",
                    "--cbar", "800",
                    "--imin", "5",
                    "--imax", "80",
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(
                (
                    (out / "design.csv").read_bytes(),
                    (out / "constraints.csv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_two_record_run_reports_active_records(self, tmp_path):
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=200)
        weak = tmp_path / "weak.txt"
        gm = synthetic_record(150, dt=0.02, seed=5, peak=0.2, name="weak")
        np.savetxt(weak, np.column_stack([gm.times, gm.accel]), fmt="%.8g")
        out = tmp_path / "out"
        code = main(
            [
                "--model", str(model_path),
                "--records", str(rec_path), str(weak),
                "--mode", "failsafe",
                "--complete-k", "1",
                "--cbar", "800",
                "--imin", "5",
                "--imax", "80",
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        # the weak record never violates, so only the dominant one is active
        assert manifest["active_records"] == ["quake"]
        assert manifest["verified"] is True

    def test_failsafe_run_artifacts(self, tmp_path):
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=200)
        out = tmp_path / "out"
        code = main(
            [
                "--model", str(model_path),
                "--records", str(rec_path),
                "--mode", "failsafe",
                "--complete-k", "1",
                "--partial-k", "2",
                "--cbar", "800",
                "--imin", "5",
                "--imax", "80",
                "--export-drifts",
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["verified"] is True
        assert manifest["scenarios"]["n_total"] == 11
        assert manifest["working_set_history"][0] == [0]
        assert (out / "design.txt").exists()
        constraints = (out / "constraints.csv").read_text().splitlines()
        assert len(constraints) == 1 + 11  # header + one row per scenario
        assert constraints[0].endswith("threshold")
        drifts = list((out / "drifts").glob("drifts_s*_quake.csv"))
        assert len(drifts) == 11
