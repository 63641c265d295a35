"""Shared builders: small shear frames and deterministic synthetic records."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from failsafe_dampers import (
    GroundMotion,
    StructuralModel,
    assemble_added_damping,
    build_rayleigh,
    compute_lowest_modes,
    enumerate_scenarios,
    evaluate_drift_constraint,
    exact_peak,
    newmark_solve,
)
from failsafe_dampers import dynamics
from failsafe_dampers.dynamics import ResponseHistory


def shear_frame(
    n_stories: int,
    mass: float = 10.0,
    story_k: float = 13000.0,
    d_allow: float = 0.01,
    zeta: float = 0.05,
    damper_stories: tuple[int, ...] | None = None,
) -> StructuralModel:
    """Uniform shear frame with one inter-story damper per chosen story.

    Masses are lumped per floor; stiffness is the usual tridiagonal story
    pattern; drifts are story differences; inherent damping is fit to
    ``zeta`` at the two lowest modes (zero for a 1-story frame unless a
    damping ratio is requested, in which case 2 zeta omega m is used).
    """
    n = n_stories
    M = np.diag(np.full(n, mass))
    K = np.zeros((n, n))
    ks = np.full(n, story_k)
    for i in range(n):
        K[i, i] += ks[i]
        if i + 1 < n:
            K[i, i] += ks[i + 1]
            K[i, i + 1] = K[i + 1, i] = -ks[i + 1]
    H = np.zeros((n, n))
    for i in range(n):
        H[i, i] = 1.0
        if i:
            H[i, i - 1] = -1.0
    stories = tuple(range(n)) if damper_stories is None else damper_stories
    dampers = tuple(H[i : i + 1, :].copy() for i in stories)

    bare = StructuralModel(
        mass=M,
        stiffness=K,
        inherent_damping=np.zeros((n, n)),
        influence=np.ones(n),
        drift_transform=H,
        d_allow=np.full(n, d_allow),
        damper_transforms=dampers,
    )
    if zeta == 0.0:
        return bare
    if n == 1:
        w = float(np.sqrt(story_k / mass))
        C = np.array([[2.0 * zeta * w * mass]])
    else:
        modes = compute_lowest_modes(bare, 2)
        C = build_rayleigh(bare, zeta, (modes[0][0], modes[1][0]))
    return StructuralModel(
        mass=M,
        stiffness=K,
        inherent_damping=C,
        influence=np.ones(n),
        drift_transform=H,
        d_allow=np.full(n, d_allow),
        damper_transforms=dampers,
    )


def buckled_frame() -> StructuralModel:
    """`shear_frame(4)` with K[0, 0] lowered by 3.2 story stiffnesses: K is
    indefinite (lowest eigenvalue about -19,672), so the response has a mode
    that grows exponentially, whatever the damping. Under 1,500 steps of
    noise at dt = 0.02 s the bare frame's states overflow at step 791."""
    base = shear_frame(4)
    K = base.stiffness.copy()
    K[0, 0] -= 3.2 * 13000.0
    return replace(base, stiffness=K)


def synthetic_record(
    n_steps: int,
    dt: float = 0.02,
    seed: int = 11,
    peak: float = 2.5,
    name: str | None = None,
) -> GroundMotion:
    """Band-limited, tapered noise record with a prescribed peak, m/s^2."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(n_steps + 1)
    window = np.hanning(21)
    smooth = np.convolve(raw, window / window.sum(), mode="same")
    ramp = max(2, min(50, n_steps // 10))
    taper = np.ones(n_steps + 1)
    taper[:ramp] = np.linspace(0.0, 1.0, ramp)
    taper[-ramp:] = np.linspace(1.0, 0.0, ramp)
    smooth *= taper
    smooth *= peak / np.abs(smooth).max()
    return GroundMotion(name=name or f"syn{seed}", dt=dt, accel=smooth)


def record_sweep(model, design, scenarios, gm, params) -> dict:
    """The sweep `adjoint_gradient` differentiates, as its keywords: the
    added damping of (design, scenarios), its response to ``gm`` and that
    response's constraint value."""
    C_d = assemble_added_damping(model, design, scenarios)
    history = newmark_solve(model, C_d, gm)
    value = evaluate_drift_constraint(history, model, params)
    return {"C_d": C_d, "history": history, "value": value}


def frame_with_redundant_dampers(
    n_stories=2, per_story=2, efficiencies=(1.0, 0.8), **kwargs
) -> StructuralModel:
    """Shear frame with several dampers per story.

    Distinct efficiency factors keep same-story devices from being exact
    twins, which would make every single-failure scenario equally critical.
    """
    base = shear_frame(n_stories, **kwargs)
    H = base.drift_transform
    dampers = tuple(
        efficiencies[j % len(efficiencies)] * H[s : s + 1, :]
        for s in range(n_stories)
        for j in range(per_story)
    )
    return StructuralModel(
        mass=base.mass,
        stiffness=base.stiffness,
        inherent_damping=base.inherent_damping,
        influence=base.influence,
        drift_transform=H,
        d_allow=base.d_allow,
        damper_transforms=dampers,
    )


def paper_scale_problem(n_steps: int):
    """The paper's scale (recipe W2): 16 dampers, 137 scenarios, 2 records.

    An 8-story frame (m = 10, k = 13000, d_allow = 0.01, 5% Rayleigh
    damping) with two dampers of efficiency 1.0 and 0.8 on every story;
    every single damper failed completely and every pair at nu = 0.5; two
    records from noise streams 11 and 1011, each rescaled to a bare-frame
    peak drift ratio of 1.5. Solved with c_bar = 2000 and
    SlpConfig(i_min=50, i_max=400).
    """
    model = frame_with_redundant_dampers(
        n_stories=8, per_story=2, mass=10.0, story_k=13000.0, d_allow=0.01
    )
    bare = np.zeros((model.n_dof, model.n_dof))
    records = []
    for k, seed in enumerate((11, 1011)):
        gm = synthetic_record(n_steps, dt=0.02, seed=seed, peak=2.5, name=f"rec{k + 1}")
        peak = exact_peak(newmark_solve(model, bare, gm), model)
        records.append(gm.rescaled(1.5 / peak))
    return model, records, enumerate_scenarios(16, 1, 2, 0.5)


def whole_stack_history(model: StructuralModel, C_d: np.ndarray, gm: GroundMotion):
    """The batched history of every matrix of a (B, n, n) stack, repeats
    included, built without `newmark_solve`: the states from
    `transition_matrices`, `transition_powers` and `transition_sweep` in the
    block `block_length` picks for all B systems. It carries no index, so
    matrix b's response is system b, an independent reference for the
    sweep that integrates each distinct matrix once."""
    n = model.n_dof
    P, Q = dynamics.transition_matrices(
        model.mass, model.inherent_damping + C_d, model.stiffness, gm.dt
    )
    load = -np.outer(gm.accel, model.mass @ model.influence)
    S = np.empty((len(load), len(C_d), 3 * n))
    S[0, :, : 2 * n] = 0.0
    S[0, :, 2 * n :] = np.linalg.solve(model.mass, load[0])
    S[1:] = (load[1:] @ Q.mT).swapaxes(0, 1)
    powers = dynamics.transition_powers(P, dynamics.block_length(P, gm.n_steps))
    dynamics.transition_sweep(powers, S)
    return ResponseHistory(S[..., :n], S[..., n : 2 * n], S[..., 2 * n :], gm.dt, powers, Q)


@pytest.fixture(scope="session")
def frame_2dof() -> StructuralModel:
    """Two-story frame with dampers on both stories."""
    return shear_frame(2, mass=10.0, story_k=2000.0, d_allow=0.03)


@pytest.fixture(scope="session")
def record_short() -> GroundMotion:
    return synthetic_record(50, dt=0.02, seed=42, peak=2.0)
