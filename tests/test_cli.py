"""Model-file parsing, report rendering, and the command-line flow."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from failsafe_dampers import (
    DesignVector,
    FailSafeConfig,
    InputError,
    cli,
    exact_peak,
    load_ground_motion,
    newmark_solve,
)
from failsafe_dampers.cli import (
    load_design,
    main,
    parse_model,
    render_table,
    report_design,
    save_model,
)
from failsafe_dampers.model import StructuralModel

from conftest import (
    buckled_frame,
    frame_with_redundant_dampers,
    shear_frame,
    synthetic_record,
    whole_stack_history,
)

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

# Values a mutated model field may take: YAML scalars of every kind,
# non-finite and out-of-range floats included, and ragged nestings of them.
YAML_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["row", "zeta", "x"]), inner, max_size=2),
    max_leaves=8,
)

# One case per field, and a design file: each must exit 2 naming the field.
MALFORMED = [
    ("influence", "abc"),
    ("influence", None),
    ("drift_transform", [[1.0], [1.0, 2.0]]),
    ("drift_transform", [[float("nan")]]),
    ("drift_transform", [[[1.0]]]),
    ("d_allow", "x"),
    ("d_allow", float("nan")),
    ("stiffness", [[float("nan")]]),
    ("stiffness", [[float("inf")]]),
    ("inherent_damping", [[float("nan")]]),
    ("inherent_damping", [[float("-inf")]]),
    ("dampers", [{"row": "x"}]),
    ("dampers", [{"row": [float("nan")]}]),
    ("dampers", [{"row": [float("inf")]}]),
    ("design", "nan\n"),
    ("raleigh", {"zeta": 0.05}),
    ("--cbar", "nan"),
    ("--cbar", "0"),
    ("--ml", "nan"),
    ("--ml", "inf"),
    ("--p-step", "3"),
    ("--imin", "0"),
    ("--imin", "10 --imax 5"),
    ("--epsilon", "1.5"),
    ("--p-start", "101"),
    ("--p-start", "1000002"),
]


def sdof_yaml(drop=(), **fields) -> str:
    """`SDOF_YAML` without the ``drop`` fields and with ``fields`` set."""
    doc = yaml.safe_load(SDOF_YAML)
    for key in drop:
        del doc[key]
    doc.update(fields)
    return yaml.safe_dump(doc, sort_keys=False)


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

    @pytest.mark.parametrize("zeta", [float("nan"), float("inf"), -0.1, "abc", [0.05]])
    def test_bad_rayleigh_ratio_reported(self, tmp_path, zeta):
        base = shear_frame(2, mass=1.0, story_k=100.0, zeta=0.0)
        doc = {
            "n_dof": 2,
            "mass": base.mass.tolist(),
            "stiffness": base.stiffness.tolist(),
            "rayleigh": {"zeta": zeta},
            "influence": [1.0, 1.0],
            "drift_transform": base.drift_transform.tolist(),
            "d_allow": 0.01,
            "dampers": [{"row": [1.0, 0.0]}],
        }
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(InputError, match=r"field 'rayleigh' \(line"):
            parse_model(path)

    @pytest.mark.parametrize(
        "key,value", [("raleigh", {"zeta": 0.05}), ("n_dof", 2.9), ("n_dof", True)]
    )
    def test_unknown_key_or_non_integer_n_dof_names_it_and_its_line(
        self, tmp_path, key, value
    ):
        _, model_path, _ = write_inputs(tmp_path)
        doc = yaml.safe_load(model_path.read_text())
        doc[key] = value
        text = yaml.safe_dump(doc, sort_keys=False)
        model_path.write_text(text)
        line = [ln.split(":")[0] for ln in text.splitlines()].index(key) + 1
        with pytest.raises(InputError, match=rf"field '{key}' \(line {line}\)"):
            parse_model(model_path)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("- 1.0\n- 2.0\n", r"model file \S*m\.yaml must hold a mapping of fields$"),
            (sdof_yaml(n_dof=0), r"^field 'n_dof' \(line 1\): must be at least 1$"),
            (
                sdof_yaml(dampers=[{"rows": [1.0]}]),
                r"^field 'dampers' \(line \d+\): entry 1 must be a mapping with a 'row' key$",
            ),
            (
                sdof_yaml(drop=["inherent_damping"], rayleigh=0.05),
                r"^field 'rayleigh' \(line \d+\): expected a mapping with a 'zeta' key$",
            ),
            (
                sdof_yaml(drop=["inherent_damping"], rayleigh={"zeta": 0.05}),
                r"^field 'rayleigh' \(line \d+\): fitting two modes needs at least 2 DOFs",
            ),
        ],
        ids=["yaml-list", "zero-dofs", "damper-without-row", "rayleigh-scalar", "rayleigh-1-dof"],
    )
    def test_malformed_document_is_reported(self, tmp_path, text, message):
        path = tmp_path / "m.yaml"
        path.write_text(text)
        with pytest.raises(InputError, match=message):
            parse_model(path)

    def test_empty_damper_row_with_a_huge_n_dof_reported(self, tmp_path):
        # numpy cannot reshape even an empty row to 2**60 columns.
        doc = yaml.safe_load(SDOF_YAML)
        doc["n_dof"] = 2**60
        doc["dampers"] = [{"row": []}]
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(InputError, match=r"field 'dampers' \(line \d+\): entry 1"):
            parse_model(path)

    def test_model_file_is_parsed_once(self, tmp_path, monkeypatch):
        _, model_path, _ = write_inputs(tmp_path)
        loaders = []

        class CountingLoader(cli._YAML_LOADER):
            def __init__(self, stream):
                loaders.append(stream)
                super().__init__(stream)

        monkeypatch.setattr(cli, "_YAML_LOADER", CountingLoader)
        parse_model(model_path)
        assert len(loaders) == 1

    def test_undecodable_files_reported(self, tmp_path):
        model, _, _ = write_inputs(tmp_path)
        path = tmp_path / "binary.dat"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(InputError, match="cannot read model file"):
            parse_model(path)
        with pytest.raises(InputError, match="cannot read design file"):
            load_design(path, model, c_bar=1000.0)
        with pytest.raises(InputError, match="cannot read record file"):
            load_ground_motion(path)

    def test_broken_yaml_reported(self, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text("n_dof: [unclosed\nmass: 3")
        with pytest.raises(InputError, match="YAML"):
            parse_model(path)

    @given(data=st.data())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_mutated_fields_give_a_model_or_input_error(self, tmp_path, data):
        doc = yaml.safe_load(SDOF_YAML)
        for _ in range(data.draw(st.integers(1, 3))):
            key = data.draw(st.sampled_from(sorted(doc) + ["rayleigh", "row"]))
            if data.draw(st.booleans()) and key in doc:
                del doc[key]
            elif key == "row":
                doc["dampers"] = [{"row": data.draw(YAML_VALUES)}]
            else:
                doc[key] = data.draw(YAML_VALUES)
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump(doc))
        try:
            model = parse_model(path)
        except InputError:
            return
        assert isinstance(model, StructuralModel)


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

    def test_a_runs_design_txt_and_design_csv_load_the_same_x(self, tmp_path):
        # The aligned table is whitespace-separated: its location rows are
        # read, its header, rule and J rows skipped, as in the CSV.
        model, _, _ = write_inputs(tmp_path)
        final = DesignVector(x=[0.386179767171, 0.137497354753, 0.0, 0.25], c_bar=1000.0)
        basic = DesignVector(x=[0.5, 0.0, 0.125, 0.08], c_bar=1000.0)
        header, rows = report_design(final, {"basic": basic}, label="failsafe design")
        cli.write_csv(tmp_path / "design.csv", header, rows)
        (tmp_path / "design.txt").write_text(render_table(header, rows))
        from_csv = load_design(tmp_path / "design.csv", model, c_bar=1000.0)
        from_txt = load_design(tmp_path / "design.txt", model, c_bar=1000.0)
        assert from_txt.x.tobytes() == from_csv.x.tobytes()
        assert np.allclose(from_txt.coefficients, [386.179767171, 137.497354753, 0.0, 250.0])

    def test_one_column_design_skips_its_header_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "design.txt"
        path.write_text("c [kNs/m]\n# from a basic run\n500\n\n0\n125\n80\n")
        model, _, _ = write_inputs(tmp_path)
        design = load_design(path, model, c_bar=1000.0)
        assert np.allclose(design.coefficients, [500.0, 0.0, 125.0, 80.0])

    def test_one_column_design_may_open_with_a_one_word_header(self, tmp_path):
        path = tmp_path / "design.txt"
        path.write_text("coefficient\n500\n0\n125\n80\n")
        model, _, _ = write_inputs(tmp_path)
        design = load_design(path, model, c_bar=1000.0)
        assert design.coefficients.tolist() == [500.0, 0.0, 125.0, 80.0]

    @pytest.mark.parametrize(
        "content,line",
        [
            ("100\n2O0\n300\n400\n500\n", 2),
            ("location,c\n1,100\n2,2O0\n3,300\n4,400\n5,500\n", 3),
            ("location   c\n1   100\n2   2O0\n3   300\n4   400\n", 3),
        ],
    )
    def test_design_value_that_does_not_parse_is_an_error(self, tmp_path, content, line):
        # Skipping the line would hand damper 2 the next line's value.
        path = tmp_path / "design.txt"
        path.write_text(content)
        model, _, _ = write_inputs(tmp_path)
        with pytest.raises(InputError, match=rf"design\.txt, line {line}: '[\d,\s]*2O0'"):
            load_design(path, model, c_bar=1000.0)

    @pytest.mark.parametrize(
        "content",
        ["2,200\n1,100\n3,300\n4,400\n", "location  c\n4  400\n3  300\n1  100\n2  200\nJ  1000\n"],
    )
    def test_keyed_rows_load_at_their_location(self, tmp_path, content):
        path = tmp_path / "design.txt"
        path.write_text(content)
        model, _, _ = write_inputs(tmp_path)
        design = load_design(path, model, c_bar=1000.0)
        assert design.coefficients.tolist() == [100.0, 200.0, 300.0, 400.0]

    @pytest.mark.parametrize(
        "content,message",
        [
            ("1,100\n1,200\n3,300\n7,400\n", "line 2: location 1 is already given on line 1"),
            ("1,100\n2,200\n3,300\n7,400\n", r"line 4: location 7 is not one of 1\.\.4"),
            ("0,100\n1,200\n2,300\n3,400\n", r"line 1: location 0 is not one of 1\.\.4"),
            ("location,c\n1,100\n2,200\n4,400\n", "has no row for location 3"),
            ("1,100\n200\n300\n400\n", "line 2: keyed and one-column rows are mixed"),
            ("100\n200\n3,300\n4,400\n", "line 3: keyed and one-column rows are mixed"),
        ],
    )
    def test_keyed_rows_name_each_location_once(self, tmp_path, content, message):
        path = tmp_path / "design.csv"
        path.write_text(content)
        model, _, _ = write_inputs(tmp_path)
        with pytest.raises(InputError, match=rf"design file \S*design\.csv,? {message}"):
            load_design(path, model, c_bar=1000.0)

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
            ConstraintParams(p=100),
        )
        assert len(rows) == 137
        assert header[-1] == "threshold"
        assert all(row[-1] == 1.0 for row in rows)

    def test_constraint_report_at_zero_dampers_is_the_whole_stacks(self, monkeypatch, tmp_path):
        # Dampers 0-11 at size zero: the 137 scenarios hold at most 15
        # distinct matrices, each swept once, and every row and every drift
        # file the sweep writes is bitwise the one of a sweep of the whole
        # stack.
        from failsafe_dampers import ConstraintParams, enumerate_scenarios
        from failsafe_dampers import evaluate_drift_constraint
        from failsafe_dampers.cli import report_constraints
        from failsafe_dampers.model import assemble_added_damping

        model = frame_with_redundant_dampers(n_stories=4, per_story=4)
        records = [
            synthetic_record(120, dt=0.02, seed=s, peak=0.5, name=f"r{s}") for s in (1, 2)
        ]
        scen = enumerate_scenarios(16, 1, 2, nu=0.5)
        design = DesignVector(x=np.r_[np.zeros(12), 0.2, 0.4, 0.6, 0.8], c_bar=100.0)
        params = ConstraintParams(p=100)
        sizes = []

        def spy(model, C_d, gm):
            hist = newmark_solve(model, C_d, gm)
            sizes.append((len(C_d), hist.u.shape[1]))
            return hist

        monkeypatch.setattr(cli, "newmark_solve", spy)
        (tmp_path / "drifts").mkdir()
        _, rows = report_constraints(design, model, scen, records, params, tmp_path / "drifts")
        stack = assemble_added_damping(model, design, list(scen))
        n_distinct = len({matrix.tobytes() for matrix in stack})
        assert sizes == [(137, n_distinct)] * 2 and n_distinct <= 15
        hists = [whole_stack_history(model, stack, gm) for gm in records]
        values = [evaluate_drift_constraint(hist, model, params) for hist in hists]
        want = [
            (sc.id, gm.name, float(v.g[i]), float(v.d_max_exact[i]))
            for i, sc in enumerate(scen)
            for gm, v in zip(records, values)
        ]
        got = [(row[0], row[3], row[4], row[6]) for row in rows]
        assert got == want
        assert len(list((tmp_path / "drifts").iterdir())) == 137 * 2
        ref = tmp_path / "ref.csv"
        for gm, hist in zip(records, hists):
            for i in range(137):
                cli.write_drift_history(ref, model, hist.times, hist.u[:, i])
                path = tmp_path / "drifts" / f"drifts_s{scen[i].id:04d}_{gm.name}.csv"
                assert path.read_bytes() == ref.read_bytes()


class TestDefaults:
    def test_cli_defaults_reproduce_reference_settings(self):
        from failsafe_dampers.cli import build_parser, solver_configs

        args = build_parser().parse_args(["--model", "m.yaml", "--records", "r.txt"])
        slp, fs = solver_configs(args)
        assert args.cbar == 150_000.0
        assert fs.epsilon == 0.05
        assert slp.ml == 0.02
        assert slp.i_min == 50
        assert (slp.p_start, slp.p_step) == (100, 500)
        assert fs.violation_tol == 1e-6

    @pytest.mark.parametrize("flag", ["--p-cap", "--q-start", "--q-step", "--q-cap"])
    def test_removed_exponent_flags_exit_2(self, flag, capsys):
        # q follows p, and the cap is a constant: no flag sets either.
        with pytest.raises(SystemExit) as exc:
            main(["--model", "m.yaml", "--records", "r.txt", flag, "100"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "key,value", MALFORMED, ids=[f"{k}={v!r}" for k, v in MALFORMED]
    )
    def test_malformed_value_exits_2(self, tmp_path, capsys, key, value):
        doc = yaml.safe_load(SDOF_YAML)
        model_path = tmp_path / "m.yaml"
        record = tmp_path / "quake.txt"
        record.write_text("dt=0.02\n" + "0.1\n-0.2\n" * 20)
        argv = ["--model", str(model_path), "--records", str(record)]
        argv += ["--mode", "simulate", "--cbar", "10", "--out", str(tmp_path / "out")]
        if key == "design":
            design = tmp_path / "design.txt"
            design.write_text(value)
            argv += ["--design", str(design)]
        elif key.startswith("--"):
            argv += [key, *value.split()]
        else:
            doc[key] = value
        model_path.write_text(yaml.safe_dump(doc))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert key in captured.err
        assert "Traceback" not in captured.err
        assert "nan" not in captured.out

    def test_asymmetric_inherent_damping_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "m.yaml"
        model_path.write_text(
            "n_dof: 2\n"
            "mass: [[1.0, 0.0], [0.0, 1.0]]\n"
            "stiffness: [[2.0, -1.0], [-1.0, 1.0]]\n"
            "inherent_damping: [[1, 5], [0, 1]]\n"
            "influence: [1.0, 1.0]\n"
            "drift_transform: [[1.0, 0.0], [-1.0, 1.0]]\n"
            "d_allow: 0.5\n"
            "dampers:\n"
            "  - row: [1.0, 0.0]\n"
        )
        record = tmp_path / "quake.txt"
        record.write_text("dt=0.02\n" + "0.1\n-0.2\n" * 20)
        argv = ["--model", str(model_path), "--records", str(record)]
        assert main(argv + ["--mode", "simulate", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "field 'inherent_damping' (line 4): " in err
        assert "must be symmetric" in err and "Traceback" not in err

    @pytest.mark.parametrize("mode", ["failsafe", "check-gradients"])
    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--partial-k", "1", "--nu", "2"], "--nu"),
            (["--partial-k", "1", "--nu", "0"], "--nu"),
            (["--partial-k", "1", "--nu", "nan"], "--nu"),
            (["--complete-k", "9"], "--complete-k"),
            (["--complete-k", "-1"], "--complete-k"),
            (["--partial-k", "5"], "--partial-k"),
        ],
    )
    def test_scenario_flag_out_of_range_exits_2(
        self, tmp_path, capsys, mode, flags, named
    ):
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=60)
        argv = ["--model", str(model_path), "--records", str(rec_path)]
        argv += ["--mode", mode, "--out", str(tmp_path / "out"), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["failsafe", "simulate", "check-gradients"])
    @pytest.mark.parametrize("under", ["", "sub"])
    def test_out_naming_a_file_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch, mode, under
    ):
        # --out names an existing file, or a path under one.
        self.assert_bad_out_exits_2(
            tmp_path, capsys, monkeypatch, tmp_path / "afile", tmp_path / "afile" / under,
            ["--mode", mode],
        )

    def test_file_in_place_of_the_drift_directory_exits_2_before_the_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        self.assert_bad_out_exits_2(
            tmp_path, capsys, monkeypatch, tmp_path / "out" / "drifts", tmp_path / "out",
            ["--export-drifts"],
        )

    @staticmethod
    def assert_bad_out_exits_2(tmp_path, capsys, monkeypatch, blocker, out, flags):
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=60)
        blocker.parent.mkdir(exist_ok=True)
        blocker.write_text("")
        calls = []
        monkeypatch.setattr(cli, "run_failsafe", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "gradient_check", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "newmark_solve", lambda *a, **k: calls.append(a))
        argv = ["--model", str(model_path), "--records", str(rec_path)]
        argv += ["--out", str(out), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "--out" in err
        assert "Traceback" not in err
        assert not calls
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("content", [None, "100\n200\n"])
    def test_bad_compare_file_exits_2_before_the_solve(
        self, tmp_path, capsys, monkeypatch, content
    ):
        # A missing design file, and one with 2 of the 4 coefficients.
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=60)
        design = tmp_path / "bad_design.txt"
        if content is not None:
            design.write_text(content)
        calls = []
        monkeypatch.setattr(cli, "run_failsafe", lambda *a, **k: calls.append(a))
        argv = ["--model", str(model_path), "--records", str(rec_path)]
        argv += ["--out", str(tmp_path / "out"), "--compare", str(design)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "bad_design.txt" in err
        assert "Traceback" not in err
        assert not calls
        assert not (tmp_path / "out").exists()

    def test_compare_files_with_one_stem_exit_2_before_the_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        # The report names a compare column by its file's stem: the second
        # file's column would replace the first's.
        model, model_path, rec_path = write_inputs(tmp_path, n_steps=60)
        for folder, text in (("a", "100\n200\n300\n400\n"), ("b", "400\n300\n200\n100\n")):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "design.csv").write_text(text)
        calls = []
        monkeypatch.setattr(cli, "run_failsafe", lambda *a, **k: calls.append(a))
        argv = ["--model", str(model_path), "--records", str(rec_path)]
        argv += ["--out", str(tmp_path / "out"), "--compare"]
        argv += [str(tmp_path / folder / "design.csv") for folder in ("a", "b")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "'design'" in err and "--compare" in err
        assert "Traceback" not in err
        assert not calls
        assert not (tmp_path / "out").exists()

    def test_design_with_a_repeated_location_exits_2(self, tmp_path, capsys):
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=60)
        design = tmp_path / "design.csv"
        design.write_text("location,c\n1,100\n1,200\n3,300\n4,400\n")
        argv = ["--model", str(model_path), "--records", str(rec_path), "--mode", "simulate"]
        argv += ["--design", str(design), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "design.csv, line 3: location 1 is already given on line 2" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_records_with_one_name_exit_2(self, tmp_path, capsys, monkeypatch):
        # Records are named by file stem, so a/rec.txt and b/rec.txt clash.
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=60)
        paths = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            paths.append(tmp_path / folder / "rec.txt")
            paths[-1].write_text(rec_path.read_text())
        calls = []
        monkeypatch.setattr(cli, "run_failsafe", lambda *a, **k: calls.append(a))
        argv = ["--model", str(model_path), "--records", *map(str, paths)]
        argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: record names must be unique, got ['rec', 'rec']" in err
        assert "Traceback" not in err
        assert not calls

    @pytest.mark.parametrize("step", ["0", "-1e-6", "nan", "inf"])
    def test_bad_fd_step_exits_2(self, tmp_path, capsys, step):
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=60)
        argv = ["--model", str(model_path), "--records", str(rec_path)]
        argv += ["--mode", "check-gradients", f"--fd-step={step}", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--fd-step" in captured.err and "Traceback" not in captured.err
        assert "nan" not in captured.out

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
                "--mode", "check-gradients",
                "--complete-k", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "gradient_check.csv").exists()
        assert "worst adjoint-vs-FD relative error" in capsys.readouterr().out

    def test_check_gradients_checks_every_record(self, tmp_path, capsys):
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=60)
        flipped = tmp_path / "flipped.txt"
        gm = load_ground_motion(rec_path)
        np.savetxt(flipped, np.column_stack([gm.times, -gm.accel]), fmt="%.8g")
        out = tmp_path / "out"
        argv = ["--model", str(model_path), "--records", str(rec_path), str(flipped)]
        code = main(argv + ["--mode", "check-gradients", "--complete-k", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        with open(out / "gradient_check.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # One row per scenario (intact and 4 complete failures) per record.
        assert [r["record"] for r in rows] == ["quake"] * 5 + ["flipped"] * 5
        worst = max(rows, key=lambda r: float(r["max_rel_error"]))
        summary = captured.out.splitlines()[-1]
        assert f"scenario {worst['scenario_id']} " in summary
        assert summary.endswith(f"record {worst['record']}")

    @pytest.mark.parametrize(
        "mode,flag", [(m, "--design") for m in ("failsafe", "basic", "fullset")]
        + [(m, "--compare") for m in ("simulate", "check-gradients")]
        + [(m, "--export-drifts") for m in ("simulate", "check-gradients")],
    )
    def test_flag_the_mode_does_not_read_exits_2_before_any_solve(
        self, tmp_path, capsys, monkeypatch, mode, flag
    ):
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=60)
        design = tmp_path / "design.txt"
        design.write_text("100\n200\n400\n100\n")
        calls = []
        for name in ("run_failsafe", "gradient_check", "newmark_solve"):
            monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a))
        argv = ["--model", str(model_path), "--records", str(rec_path), "--mode", mode]
        # --export-drifts is a switch; the other two take a file.
        argv += [flag] if flag == "--export-drifts" else [flag, str(design)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and flag in err and f"--mode {mode}" in err
        assert "Traceback" not in err
        assert not calls
        assert not (tmp_path / "out").exists()

    def test_check_gradients_with_a_zero_coefficient(self, tmp_path, capsys):
        # A damper at 0 (or at c_bar) gets a one-sided difference instead of
        # a design outside [0, 1].
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=60)
        design = tmp_path / "design.txt"
        design.write_text("0\n200\n400\n100\n")
        argv = ["--model", str(model_path), "--records", str(rec_path)]
        argv += ["--mode", "check-gradients", "--design", str(design), "--cbar", "400"]
        code = main(argv + ["--complete-k", "1", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert (tmp_path / "out" / "gradient_check.csv").exists()
        assert "worst adjoint-vs-FD relative error" in captured.out

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

    def test_exhausted_iteration_budget_exits_3(self, tmp_path, capsys):
        # A feasible problem whose SLP hits --imax before its step settles:
        # the design is feasible and written, but the run has not converged.
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=100)
        out = tmp_path / "out"
        code = main(
            [
                "--model", str(model_path),
                "--records", str(rec_path),
                "--mode", "basic",
                "--cbar", "400",
                "--imin", "1",
                "--imax", "2",
                "--out", str(out),
            ]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "converged=False" in captured.out
        assert "Traceback" not in captured.err
        assert json.loads((out / "run_manifest.json").read_text())["converged"] is False

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

    def test_diverged_response_exits_3(self, tmp_path, capsys):
        # An indefinite stiffness overflows the states; the run must end in
        # exit 3 naming the record, not in a "verified" design.
        model_path = tmp_path / "frame.yaml"
        save_model(buckled_frame(), model_path)
        rec_path = tmp_path / "noise.txt"
        accel = np.random.default_rng(1).standard_normal(1501)
        np.savetxt(rec_path, np.column_stack([0.02 * np.arange(1501), accel]), fmt="%.10g")
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

    @pytest.mark.parametrize("mode", ["simulate", "failsafe"])
    def test_indefinite_effective_stiffness_exits_3(self, tmp_path, capsys, mode):
        # K + 4 M / dt^2 < 0 at dt = 0.02: no Newmark step exists, and the
        # run ends in exit 3 naming the record and dt, not in a traceback.
        model_path = tmp_path / "indefinite.yaml"
        model_path.write_text(
            "n_dof: 1\nmass: [[10.0]]\nstiffness: [[-2000000.0]]\n"
            "inherent_damping: [[0.0]]\ninfluence: [1.0]\ndrift_transform: [[1.0]]\n"
            "d_allow: [0.01]\ndampers:\n- row: [[1.0]]\n"
        )
        gm = synthetic_record(600, dt=0.02, seed=31, peak=1.55)
        rec_path = tmp_path / "rec1.txt"
        np.savetxt(rec_path, np.column_stack([gm.times, gm.accel]), fmt="%.8g")
        argv = ["--model", str(model_path), "--records", str(rec_path), "--mode", mode]
        code = main(argv + ["--cbar", "2000", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert "record 'rec1' cannot be integrated at dt = 0.02" in err
        assert "Traceback" not in err

    def test_rigid_body_mode_with_two_records_exits_2(self, tmp_path, capsys):
        # A free-floating frame has a zero lowest frequency, so no
        # fundamental period exists to rank the records at.
        H = np.array([[1.0, 0.0], [-1.0, 1.0]])
        model = StructuralModel(
            mass=10.0 * np.eye(2),
            stiffness=[[2000.0, -2000.0], [-2000.0, 2000.0]],
            inherent_damping=[[20.0, -10.0], [-10.0, 20.0]],
            influence=np.ones(2),
            drift_transform=H,
            d_allow=np.full(2, 0.012),
            damper_transforms=(H[0:1].copy(), H[1:2].copy()),
        )
        model_path = tmp_path / "rigid.yaml"
        save_model(model, model_path)
        records = []
        for seed in (31, 32):
            gm = synthetic_record(60, dt=0.02, seed=seed, peak=1.0)
            records.append(str(tmp_path / f"rec{seed}.txt"))
            np.savetxt(records[-1], np.column_stack([gm.times, gm.accel]), fmt="%.8g")
        argv = ["--model", str(model_path), "--records", *records]
        code = main(argv + ["--imin", "2", "--imax", "5", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error: stiffness has a rigid-body or unstable mode" in err
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

    def test_record_pass_subproblems_get_their_own_index(self, tmp_path):
        # Record b violates at the design found for record a, so a record
        # pass re-solves the last working set as one more sub-problem.
        _, model_path, _ = write_inputs(tmp_path)
        records = []
        for seed, peak, name in ((31, 1.55, "a"), (3, 1.7, "b")):
            gm = synthetic_record(200, dt=0.02, seed=seed, peak=peak, name=name)
            records.append(tmp_path / f"{name}.txt")
            np.savetxt(records[-1], np.column_stack([gm.times, gm.accel]), fmt="%.8g")
        out = tmp_path / "out"
        code = main(
            [
                "--model", str(model_path),
                "--records", *map(str, records),
                "--complete-k", "1",
                "--cbar", "800",
                "--imin", "5",
                "--imax", "80",
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert len(manifest["active_records"]) == 2
        indices = [sp["index"] for sp in manifest["subproblems"]]
        assert indices == list(range(len(indices)))
        logs = sorted(p.name for p in out.glob("subproblem_*.csv"))
        assert logs == [f"subproblem_{i:02d}.csv" for i in indices]

    def test_basic_run_verifies_under_every_record(self, tmp_path):
        # Record r1 violates the intact frame at the design tuned to r0:
        # the basic run must add it, and its verdict must agree with the
        # intact scenario's rows of the independent re-sweep.
        model = frame_with_redundant_dampers()
        model_path = tmp_path / "frame.yaml"
        save_model(model, model_path)
        bare = np.zeros((model.n_dof, model.n_dof))
        records = []
        for seed, name in ((57, "r0"), (1011, "r1")):
            gm = synthetic_record(150, dt=0.02, seed=seed, peak=2.5, name=name)
            gm = gm.rescaled(1.5 / exact_peak(newmark_solve(model, bare, gm), model))
            records.append(tmp_path / f"{name}.txt")
            np.savetxt(
                records[-1], np.column_stack([gm.times, gm.accel]), fmt="%.17g"
            )
        out = tmp_path / "out"
        code = main(
            [
                "--model", str(model_path),
                "--records", *map(str, records),
                "--mode", "basic",
                "--complete-k", "1",
                "--partial-k", "1",
                "--nu", "0.5",
                "--cbar", "2000",
                "--imin", "10",
                "--imax", "100",
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        lines = (out / "constraints.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        intact = [float(r["g"]) for r in rows if r["scenario_id"] == "0"]
        assert len(intact) == 2
        tol = FailSafeConfig().violation_tol
        assert manifest["verified"] is (max(intact) <= tol)
        assert manifest["verified"] is True
        assert sorted(manifest["active_records"]) == ["r0", "r1"]

    def test_manifest_reports_resumes_per_subproblem(self, tmp_path):
        # At c_bar = 400 the intact design converges just outside the
        # constraint and its sub-problem needs one resume.
        _, model_path, rec_path = write_inputs(tmp_path, n_steps=400)
        out = tmp_path / "out"
        code = main(
            [
                "--model", str(model_path),
                "--records", str(rec_path),
                "--mode", "basic",
                "--cbar", "400",
                "--imin", "10",
                "--imax", "150",
                "--out", str(out),
            ]
        )
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert [sp["resumes"] for sp in manifest["subproblems"]] == [1]

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
        assert manifest["deterministic"] is True
        assert manifest["scenarios"]["n_total"] == 11
        assert manifest["working_set_history"][0] == [0]
        assert (out / "design.txt").exists()
        constraints = (out / "constraints.csv").read_text().splitlines()
        assert len(constraints) == 1 + 11  # header + one row per scenario
        assert constraints[0].endswith("threshold")
        drifts = list((out / "drifts").glob("drifts_s*_quake.csv"))
        assert len(drifts) == 11

    def test_exported_drifts_are_the_whole_stacks(self, tmp_path):
        # Every drift file of a run is byte for byte the one a sweep of the
        # whole stack writes (the report's test at zero dampers covers a
        # stack whose matrices repeat).
        from failsafe_dampers import enumerate_scenarios
        from failsafe_dampers.model import assemble_added_damping

        model, model_path, rec_path = write_inputs(tmp_path, n_steps=200)
        out = tmp_path / "out"
        argv = ["--model", str(model_path), "--records", str(rec_path), "--complete-k", "1"]
        argv += ["--partial-k", "2", "--cbar", "800", "--imin", "5", "--imax", "80"]
        assert main(argv + ["--export-drifts", "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        evals = manifest["function_evaluations"]
        assert evals["total"] == evals["primal"] + evals["adjoint"]
        assert 0 < evals["adjoint_systems"] <= evals["adjoint"]
        assert 0 < evals["primal_systems"] < evals["primal"]
        design = DesignVector(x=manifest["design"]["x"], c_bar=800.0)
        scen = enumerate_scenarios(4, 1, 2, nu=0.5)
        gm = load_ground_motion(rec_path)
        hist = whole_stack_history(model, assemble_added_damping(model, design, list(scen)), gm)
        ref = tmp_path / "ref.csv"
        for i, sc in enumerate(scen):
            cli.write_drift_history(ref, model, hist.times, hist.u[:, i])
            assert (out / "drifts" / f"drifts_s{sc.id:04d}_quake.csv").read_bytes() == ref.read_bytes()


def test_cli_import_leaves_scipy_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, failsafe_dampers.cli; print('scipy' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert run.stdout.strip() == "False"
