"""Model container, modal analysis, Rayleigh fit, damping assembly."""

import numpy as np
import pytest
import scipy.linalg as sla

from failsafe_dampers import (
    DesignVector,
    FailureScenario,
    StructuralModel,
    assemble_added_damping,
    build_rayleigh,
    compute_lowest_modes,
    enumerate_scenarios,
    no_failure,
)
from failsafe_dampers.model import damper_scales, distinct_matrices

from conftest import shear_frame


def sdof_model(m=1.0, k=4.0, c=0.0, d_allow=1.0):
    return StructuralModel(
        mass=[[m]],
        stiffness=[[k]],
        inherent_damping=[[c]],
        influence=[1.0],
        drift_transform=[[1.0]],
        d_allow=[d_allow],
        damper_transforms=([[1.0]],),
    )


class TestStructuralModel:
    def test_rejects_asymmetric_mass(self):
        with pytest.raises(ValueError, match="symmetric"):
            StructuralModel(
                mass=[[1.0, 0.5], [0.0, 1.0]],
                stiffness=np.eye(2),
                inherent_damping=np.zeros((2, 2)),
                influence=np.ones(2),
                drift_transform=np.eye(2),
                d_allow=np.ones(2),
                damper_transforms=(np.eye(2)[0:1],),
            )

    def test_rejects_asymmetric_inherent_damping(self):
        with pytest.raises(ValueError, match="inherent_damping matrix must be symmetric"):
            StructuralModel(
                mass=np.eye(2),
                stiffness=np.eye(2),
                inherent_damping=[[1.0, 5.0], [0.0, 1.0]],
                influence=np.ones(2),
                drift_transform=np.eye(2),
                d_allow=np.ones(2),
                damper_transforms=(np.eye(2)[0:1],),
            )

    def test_rejects_indefinite_mass(self):
        with pytest.raises(ValueError, match="positive definite"):
            StructuralModel(
                mass=[[1.0, 0.0], [0.0, -1.0]],
                stiffness=np.eye(2),
                inherent_damping=np.zeros((2, 2)),
                influence=np.ones(2),
                drift_transform=np.eye(2),
                d_allow=np.ones(2),
                damper_transforms=(np.eye(2)[0:1],),
            )

    def test_rejects_nonpositive_d_allow(self):
        with pytest.raises(ValueError, match="d_allow"):
            sdof_model(d_allow=0.0)

    def test_rejects_zero_damper_transform(self):
        with pytest.raises(ValueError, match="identically zero"):
            StructuralModel(
                mass=np.eye(2),
                stiffness=np.eye(2),
                inherent_damping=np.zeros((2, 2)),
                influence=np.ones(2),
                drift_transform=np.eye(2),
                d_allow=np.ones(2),
                damper_transforms=(np.zeros((1, 2)),),
            )

    def test_arrays_are_readonly(self):
        model = sdof_model()
        with pytest.raises(ValueError):
            model.mass[0, 0] = 2.0


class TestDesignVector:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            DesignVector(x=[1.2], c_bar=10.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            DesignVector(x=[-0.1], c_bar=10.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            DesignVector(x=[0.5, float("nan")], c_bar=10.0)

    @pytest.mark.parametrize("c_bar", [0.0, -1.0, float("nan"), float("inf")])
    def test_c_bar_must_be_positive_and_finite(self, c_bar):
        with pytest.raises(ValueError, match="c_bar"):
            DesignVector(x=[0.5], c_bar=c_bar)

    def test_coefficients_scale(self):
        d = DesignVector(x=[0.5, 1.0], c_bar=150_000.0)
        assert np.allclose(d.coefficients, [75_000.0, 150_000.0])
        assert d.cost == pytest.approx(1.5)


class TestComputeLowestModes:
    def test_sdof_frequency(self):
        # omega = sqrt(k/m) = sqrt(4/1) = 2
        (omega, phi), = compute_lowest_modes(sdof_model(m=1.0, k=4.0), 1)
        assert omega == pytest.approx(2.0, rel=1e-10)
        assert phi @ np.array([[1.0]]) @ phi == pytest.approx(1.0)

    def test_two_dof_chain_against_characteristic_polynomial(self):
        # springs k = (2, 1), unit masses: det(K - w^2 M) = 0 reduces to
        # w^4 - 4 w^2 + 2 = 0, solved independently here.
        model = shear_frame(2, mass=1.0, story_k=1.0, zeta=0.0)
        K = np.array([[3.0, -1.0], [-1.0, 1.0]])
        model = StructuralModel(
            mass=np.eye(2),
            stiffness=K,
            inherent_damping=np.zeros((2, 2)),
            influence=np.ones(2),
            drift_transform=np.eye(2),
            d_allow=np.ones(2),
            damper_transforms=(np.array([[1.0, 0.0]]),),
        )
        roots = np.sort(np.roots([1.0, -4.0, 2.0]))
        expected = np.sqrt(roots)
        modes = compute_lowest_modes(model, 2)
        got = [w for w, _ in modes]
        assert np.allclose(got, expected, rtol=1e-9)

    def test_identity_pencil_all_frequencies_one(self):
        model = StructuralModel(
            mass=np.eye(3),
            stiffness=np.eye(3),
            inherent_damping=np.zeros((3, 3)),
            influence=np.ones(3),
            drift_transform=np.eye(3),
            d_allow=np.ones(3),
            damper_transforms=(np.array([[1.0, 0.0, 0.0]]),),
        )
        modes = compute_lowest_modes(model, 3)
        assert np.allclose([w for w, _ in modes], 1.0, rtol=1e-9)

    def test_matches_dense_solver_on_random_frames(self):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            n = 6
            A = rng.standard_normal((n, n))
            M = A @ A.T + n * np.eye(n)
            B = rng.standard_normal((n, n))
            K = B @ B.T + 0.1 * np.eye(n)
            model = StructuralModel(
                mass=M,
                stiffness=K,
                inherent_damping=np.zeros((n, n)),
                influence=np.ones(n),
                drift_transform=np.eye(n),
                d_allow=np.ones(n),
                damper_transforms=(np.eye(n)[0:1],),
            )
            expected = np.sqrt(sla.eigh(K, M, eigvals_only=True))[:3]
            got = [w for w, _ in compute_lowest_modes(model, 3)]
            assert np.allclose(got, expected, rtol=1e-8)

    def test_repeated_eigenvalues(self):
        # A double mode must come out twice, with M-orthogonal shapes.
        model = StructuralModel(
            mass=np.eye(3),
            stiffness=np.diag([4.0, 4.0, 9.0]),
            inherent_damping=np.zeros((3, 3)),
            influence=np.ones(3),
            drift_transform=np.eye(3),
            d_allow=np.ones(3),
            damper_transforms=(np.eye(3)[0:1],),
        )
        modes = compute_lowest_modes(model, 3)
        assert np.allclose([w for w, _ in modes], [2.0, 2.0, 3.0], rtol=1e-9)
        phis = np.array([phi for _, phi in modes])
        assert np.allclose(phis @ phis.T, np.eye(3), atol=1e-8)

    def test_tightly_clustered_eigenvalues(self):
        model = StructuralModel(
            mass=np.eye(3),
            stiffness=np.diag([4.0, 4.0000001, 9.0]),
            inherent_damping=np.zeros((3, 3)),
            influence=np.ones(3),
            drift_transform=np.eye(3),
            d_allow=np.ones(3),
            damper_transforms=(np.eye(3)[0:1],),
        )
        got = [w for w, _ in compute_lowest_modes(model, 3)]
        assert np.allclose(got, [2.0, np.sqrt(4.0000001), 3.0], rtol=1e-9)

    def test_lowest_two_of_a_four_story_frame(self):
        # The second mode is the second lowest, not a higher one.
        model = shear_frame(4, zeta=0.0)
        expected = np.sqrt(sla.eigvalsh(model.stiffness, model.mass))[:2]
        got = [w for w, _ in compute_lowest_modes(model, 2)]
        assert np.allclose(got, expected, rtol=1e-12)

    def test_semidefinite_stiffness(self):
        # A free-floating two-mass chain has a rigid-body mode at omega = 0.
        model = StructuralModel(
            mass=np.diag([1.0, 2.0]),
            stiffness=np.array([[3.0, -3.0], [-3.0, 3.0]]),
            inherent_damping=np.zeros((2, 2)),
            influence=np.ones(2),
            drift_transform=np.array([[-1.0, 1.0]]),
            d_allow=np.ones(1),
            damper_transforms=(np.array([[-1.0, 1.0]]),),
        )
        (w0, phi0), (w1, phi1) = compute_lowest_modes(model, 2)
        assert w0 == pytest.approx(0.0, abs=1e-7)
        assert w1 == pytest.approx(np.sqrt(4.5), rel=1e-12)
        assert phi0[0] == pytest.approx(phi0[1], rel=1e-12)
        assert phi0 @ model.mass @ phi1 == pytest.approx(0.0, abs=1e-12)

    def test_mass_normalization(self, frame_2dof):
        for omega, phi in compute_lowest_modes(frame_2dof, 2):
            assert phi @ frame_2dof.mass @ phi == pytest.approx(1.0, abs=1e-10)

    def test_k_larger_than_n_dof_rejected(self):
        with pytest.raises(ValueError):
            compute_lowest_modes(sdof_model(), 2)


class TestBuildRayleigh:
    def test_coefficient_formula(self):
        # zeta=0.05, w1=1, w2=3: a0 = 2*.05*3/4 = 0.075, a1 = 2*.05/4 = 0.025
        model = sdof_model(m=1.0, k=1.0)
        C = build_rayleigh(model, 0.05, (1.0, 3.0))
        assert C[0, 0] == pytest.approx(0.075 * 1.0 + 0.025 * 1.0, rel=1e-12)

    def test_zero_zeta_gives_zero_matrix(self, frame_2dof):
        C = build_rayleigh(frame_2dof, 0.0, (1.0, 3.0))
        assert np.all(C == 0.0)

    def test_modal_damping_hits_target_exactly(self):
        # project C onto the mass-normalized modes: ratio = phi'C phi / (2 w)
        model = shear_frame(2, mass=1.0, story_k=100.0, zeta=0.0)
        modes = compute_lowest_modes(model, 2)
        C = build_rayleigh(model, 0.05, (modes[0][0], modes[1][0]))
        for omega, phi in modes:
            ratio = (phi @ C @ phi) / (2.0 * omega)
            assert ratio == pytest.approx(0.05, abs=1e-10)

    def test_degenerate_pair_rejected(self, frame_2dof):
        with pytest.raises(ValueError):
            build_rayleigh(frame_2dof, 0.05, (2.0, 2.0))


class TestAssembleAddedDamping:
    def test_single_damper_no_failure(self):
        model = sdof_model()
        design = DesignVector(x=[1.0], c_bar=150_000.0)
        C = assemble_added_damping(model, design, no_failure())
        assert C[0, 0] == pytest.approx(150_000.0)

    def test_complete_failure_zeroes_the_device(self):
        model = sdof_model()
        design = DesignVector(x=[1.0], c_bar=150_000.0)
        sc = FailureScenario(id=1, damaged=(0,), factor=0.0)
        C = assemble_added_damping(model, design, sc)
        assert np.all(C == 0.0)

    def test_partial_failure_halves_the_coefficient(self):
        model = sdof_model()
        design = DesignVector(x=[1.0], c_bar=150_000.0)
        sc = FailureScenario(id=1, damaged=(0,), factor=0.5)
        C = assemble_added_damping(model, design, sc)
        assert C[0, 0] == pytest.approx(75_000.0)

    def test_linear_in_x(self, frame_2dof):
        alpha = 0.37
        base = DesignVector(x=[0.8, 0.5], c_bar=1000.0)
        scaled = DesignVector(x=np.array([0.8, 0.5]) * alpha, c_bar=1000.0)
        C1 = assemble_added_damping(frame_2dof, base)
        C2 = assemble_added_damping(frame_2dof, scaled)
        assert np.allclose(C2, alpha * C1)

    def test_damage_never_increases_damping(self):
        # Loewner order: C(no failure) - C(scenario) is PSD for nu in [0, 1]
        rng = np.random.default_rng(5)
        for trial in range(10):
            n = 4
            model = shear_frame(n, zeta=0.0)
            design = DesignVector(x=rng.uniform(0, 1, n), c_bar=500.0)
            damaged = tuple(
                sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
            )
            sc = FailureScenario(id=1, damaged=damaged, factor=float(rng.uniform(0, 1)))
            diff = assemble_added_damping(model, design) - assemble_added_damping(
                model, design, sc
            )
            assert np.min(sla.eigvalsh(diff)) >= -1e-10

    def test_scenario_index_out_of_range(self, frame_2dof):
        design = DesignVector(x=[0.5, 0.5], c_bar=10.0)
        sc = FailureScenario(id=1, damaged=(5,), factor=0.0)
        with pytest.raises(ValueError, match="damages damper"):
            assemble_added_damping(frame_2dof, design, sc)

    def test_scenario_list_index_out_of_range(self, frame_2dof):
        design = DesignVector(x=[0.5, 0.5], c_bar=10.0)
        scenarios = [no_failure(), FailureScenario(id=3, damaged=(1, 5), factor=0.5)]
        with pytest.raises(ValueError, match="scenario 3 damages damper 5"):
            assemble_added_damping(frame_2dof, design, scenarios)


@pytest.mark.parametrize("n_dampers", [1, 4, 6])
def test_damper_scales_stack_the_scenarios_scale_vectors(n_dampers):
    model = shear_frame(n_dampers)
    scenarios = list(enumerate_scenarios(n_dampers, 1, min(2, n_dampers), nu=0.3))
    scenarios.append(FailureScenario(id=len(scenarios), damaged=(0,), factor=0.0))
    # Slow reference: one row per scenario, its damaged dampers at its factor.
    want = np.ones((len(scenarios), n_dampers))
    for row, sc in zip(want, scenarios):
        row[list(sc.damaged)] = sc.factor
    assert np.array_equal(damper_scales(model, scenarios), want)
    for sc, row in zip(scenarios, want):
        assert np.array_equal(damper_scales(model, sc), row)
    assert damper_scales(model, []).shape == (0, n_dampers)


def test_cached_damper_scales_are_read_only_and_equal_a_fresh_build():
    # The scales of a scenario list are built once and shared by every later
    # call with an equal list, so no caller may write into them.
    rng = np.random.default_rng(7)
    model = shear_frame(6)
    for _ in range(20):
        scenarios = [
            FailureScenario(
                id=i,
                damaged=tuple(rng.choice(6, rng.integers(0, 3), replace=False)),
                factor=float(rng.choice([0.0, 0.3, 0.5])),
            )
            for i in range(int(rng.integers(1, 12)))
        ]
        want = np.ones((len(scenarios), 6))
        for row, sc in zip(want, scenarios):
            row[list(sc.damaged)] = sc.factor
        for _ in range(2):  # a build, then the shared copy
            got = damper_scales(model, scenarios)
            assert not got.flags.writeable
            assert np.array_equal(got, want)
            with pytest.raises(ValueError, match="read-only"):
                got[0, 0] = 2.0
        assert not damper_scales(model, scenarios[0]).flags.writeable


def test_out_of_range_damper_raises_on_every_call():
    # A failed build is not kept: the same list raises again.
    model = shear_frame(2)
    scenarios = [no_failure(), FailureScenario(id=1, damaged=(4,), factor=0.5)]
    for _ in range(3):
        with pytest.raises(ValueError, match="scenario 1 damages damper 4"):
            damper_scales(model, scenarios)
    # The same scenarios on a model with enough dampers have scales.
    assert damper_scales(shear_frame(5), scenarios)[1].tolist() == [1, 1, 1, 1, 0.5]


class TestDistinctMatrices:
    def test_zero_dampers_repeat_the_intact_matrix(self, frame_2dof):
        # Damper 0 has size zero: failing it, alone or with damper 1 at half
        # capacity, leaves the intact matrix and the half-damper-1 one.
        design = DesignVector(x=[0.0, 0.6], c_bar=1000.0)
        scenarios = enumerate_scenarios(2, 1, 2, nu=0.5)
        stack = assemble_added_damping(frame_2dof, design, scenarios)
        distinct, index = distinct_matrices(stack)
        assert [sc.damaged for sc in scenarios] == [(), (0,), (1,), (0, 1)]
        assert index.tolist() == [0, 0, 1, 2]
        assert distinct.tobytes() == stack[[0, 2, 3]].tobytes()
        assert distinct[index].tobytes() == stack.tobytes()

    def test_first_occurrence_order(self):
        a, b, c = (np.full((2, 2), v) for v in (3.0, 1.0, 2.0))
        distinct, index = distinct_matrices(np.stack([a, b, a, c, b]))
        assert index.tolist() == [0, 1, 0, 2, 1]
        assert distinct.tobytes() == np.stack([a, b, c]).tobytes()

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_one_matrix_keeps_two_systems(self, size):
        # Despite the name: a stack of equal matrices gives exactly one.
        stack = np.zeros((size, 3, 3))
        distinct, index = distinct_matrices(stack)
        assert index.tolist() == [0] * size
        assert len(distinct) == 1
        assert distinct[index].tobytes() == stack.tobytes()

