"""Linear structural model, modal analysis, and damping-matrix assembly.

Units follow the kN / m / s / ton convention throughout: stiffness in kN/m,
damping in kNs/m, masses in ton, so that kN = ton * m / s^2 holds without
conversion factors.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .errors import ConvergenceError
from .scenarios import FailureScenario

logger = logging.getLogger(__name__)

# One scenario (None means no failure), or a batch of them.
Scenarios = FailureScenario | Iterable[FailureScenario] | None

_SYM_TOL = 1e-8


def _readonly(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_symmetric(a: np.ndarray, name: str) -> None:
    scale = np.abs(a).max() or 1.0
    if np.abs(a - a.T).max() > _SYM_TOL * scale:
        raise ValueError(f"{name} matrix must be symmetric")


@dataclass(frozen=True)
class StructuralModel:
    """Assembled linear structure with candidate damper locations.

    Parameters
    ----------
    mass : (n, n) array
        Mass matrix, ton. Symmetric positive definite.
    stiffness : (n, n) array
        Stiffness matrix, kN/m. Symmetric positive semidefinite.
    inherent_damping : (n, n) array
        Inherent damping matrix, kNs/m, typically from `build_rayleigh`.
    influence : (n,) array
        Displacements caused by a unit static ground displacement; routes
        the ground acceleration onto the dynamic degrees of freedom.
    drift_transform : (n_drifts, n) array
        Maps displacements to the inter-story drifts that are constrained.
    d_allow : (n_drifts,) array
        Allowable value of each drift, m. All entries positive.
    damper_transforms : sequence of arrays
        One elongation map per candidate damper, each reshaped to
        (rows, n). Axial devices use a single row.

    Two derived arrays serve the batched damping assembly and gradient
    contraction: ``damper_rows`` stacks every damper's rows, shape (R, n),
    and ``row_owner`` is the (R, n_dampers) 0/1 matrix of which damper
    each row belongs to.

    Instances are immutable (arrays are stored read-only) and safe to share
    across threads.
    """

    mass: np.ndarray
    stiffness: np.ndarray
    inherent_damping: np.ndarray
    influence: np.ndarray
    drift_transform: np.ndarray
    d_allow: np.ndarray
    damper_transforms: tuple[np.ndarray, ...]
    damper_rows: np.ndarray = field(init=False, repr=False)
    row_owner: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mass = _readonly(self.mass)
        if mass.ndim != 2 or mass.shape[0] != mass.shape[1]:
            raise ValueError(f"mass must be square, got shape {mass.shape}")
        n = mass.shape[0]
        _check_symmetric(mass, "mass")
        try:
            la.cholesky(mass, lower=True)
        except la.LinAlgError:
            raise ValueError("mass matrix must be positive definite") from None

        stiffness = _readonly(self.stiffness)
        if stiffness.shape != (n, n):
            raise ValueError(
                f"stiffness shape {stiffness.shape} does not match {n} DOFs"
            )
        _check_symmetric(stiffness, "stiffness")

        damping = _readonly(self.inherent_damping)
        if damping.shape != (n, n):
            raise ValueError(
                f"inherent_damping shape {damping.shape} does not match {n} DOFs"
            )

        influence = _readonly(self.influence)
        if influence.shape != (n,):
            raise ValueError(
                f"influence shape {influence.shape} does not match {n} DOFs"
            )

        drift = np.atleast_2d(np.asarray(self.drift_transform, dtype=float))
        if drift.shape[1] != n:
            raise ValueError(
                f"drift_transform has {drift.shape[1]} columns, expected {n}"
            )
        drift = _readonly(drift)

        d_allow = np.atleast_1d(np.asarray(self.d_allow, dtype=float))
        if d_allow.shape != (drift.shape[0],):
            raise ValueError(
                f"d_allow has {d_allow.shape[0]} entries, expected "
                f"{drift.shape[0]} (one per drift)"
            )
        if np.any(d_allow <= 0):
            raise ValueError("every d_allow entry must be positive")
        d_allow = _readonly(d_allow)

        transforms = []
        for i, t in enumerate(self.damper_transforms):
            t = np.atleast_2d(np.asarray(t, dtype=float))
            if t.shape[1] != n:
                raise ValueError(
                    f"damper {i} transform has {t.shape[1]} columns, expected {n}"
                )
            if not np.any(t):
                raise ValueError(f"damper {i} transform is identically zero")
            transforms.append(_readonly(t))

        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "stiffness", stiffness)
        object.__setattr__(self, "inherent_damping", damping)
        object.__setattr__(self, "influence", influence)
        object.__setattr__(self, "drift_transform", drift)
        object.__setattr__(self, "d_allow", d_allow)
        object.__setattr__(self, "damper_transforms", tuple(transforms))
        owner = np.repeat(np.arange(len(transforms)), [t.shape[0] for t in transforms])
        object.__setattr__(self, "damper_rows", _readonly(np.vstack(transforms)))
        object.__setattr__(
            self, "row_owner", _readonly(owner[:, None] == np.arange(len(transforms)))
        )

    @property
    def n_dof(self) -> int:
        return self.mass.shape[0]

    @property
    def n_drifts(self) -> int:
        return self.drift_transform.shape[0]

    @property
    def n_dampers(self) -> int:
        return len(self.damper_transforms)


@dataclass(frozen=True)
class DesignVector:
    """Normalized damper sizes ``x`` in [0, 1] plus the common scale.

    The physical damping coefficient of damper i is ``c_bar * x[i]`` kNs/m,
    where ``c_bar`` is the largest coefficient available to the design.
    """

    x: np.ndarray
    c_bar: float = 150_000.0

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.ndim != 1:
            raise ValueError("design vector must be one-dimensional")
        if np.any(x < -1e-9) or np.any(x > 1 + 1e-9):
            raise ValueError(
                f"design variables must lie in [0, 1], got range "
                f"[{x.min():g}, {x.max():g}]"
            )
        x = _readonly(np.clip(x, 0.0, 1.0))
        object.__setattr__(self, "x", x)
        if self.c_bar <= 0:
            raise ValueError(f"c_bar must be positive, got {self.c_bar}")

    @property
    def n_dampers(self) -> int:
        return self.x.shape[0]

    @property
    def coefficients(self) -> np.ndarray:
        """Physical damping coefficients, kNs/m."""
        return self.c_bar * self.x

    @property
    def cost(self) -> float:
        """Normalized cost: the sum of the design variables."""
        return float(self.x.sum())


def compute_lowest_modes(
    model: StructuralModel,
    k: int,
    *,
    max_iter: int = 300,
    tol: float = 1e-11,
) -> list[tuple[float, np.ndarray]]:
    """Lowest ``k`` natural frequencies and mass-normalized mode shapes.

    Solves the generalized eigenproblem K phi = omega^2 M phi by shifted
    inverse iteration with deflation against already-converged modes; a
    Rayleigh-quotient shift refines slow iterations. Suited to the small
    dense systems this library targets.

    Returns
    -------
    list of (omega, phi)
        Circular frequencies in rad/s, ascending, with phi' M phi = 1.

    Raises
    ------
    ConvergenceError
        If an eigenpair fails to converge within ``max_iter`` iterations.
    """
    K = model.stiffness
    M = model.mass
    n = model.n_dof
    if not 1 <= k <= n:
        raise ValueError(f"requested {k} modes from a {n}-DOF model")

    # Deterministic start vectors; the seed only breaks symmetry.
    rng = np.random.default_rng(20230517)
    scale = (np.trace(K) / n) / (np.trace(M) / n)

    def factorize(sigma):
        try:
            return la.lu_factor(K - sigma * M)
        except la.LinAlgError:
            return la.lu_factor(K - (sigma - 1e-10 * scale) * M)

    modes: list[tuple[float, np.ndarray]] = []

    def deflate(z):
        for _, phi in modes:
            z = z - (phi @ (M @ z)) * phi
        return z

    for _ in range(k):
        # A zero shift fails for semidefinite K; nudge below the spectrum.
        sigma = 0.0
        try:
            factor = la.lu_factor(K)
        except la.LinAlgError:
            sigma = -1e-8 * scale
            factor = factorize(sigma)

        q = deflate(rng.standard_normal(n))
        q = q / np.sqrt(q @ (M @ q))
        theta = q @ (K @ q)
        converged = False
        for it in range(max_iter):
            z = la.lu_solve(factor, M @ q)
            z = deflate(z)
            norm2 = z @ (M @ z)
            if not np.isfinite(norm2) or norm2 <= 0:
                q = deflate(rng.standard_normal(n))
                q = q / np.sqrt(q @ (M @ q))
                continue
            q = z / np.sqrt(norm2)
            theta = q @ (K @ q)
            residual = np.linalg.norm(K @ q - theta * (M @ q))
            ref = max(np.linalg.norm(K @ q), abs(theta), 1e-300)
            if residual <= tol * ref:
                converged = True
                break
            # Rayleigh-quotient shift once the plain iteration has settled.
            if it >= 6 and it % 4 == 2:
                sigma = theta
                factor = factorize(sigma)
        if not converged:
            raise ConvergenceError(
                f"eigen iteration did not converge within {max_iter} iterations"
            )
        modes.append((float(np.sqrt(max(theta, 0.0))), q))

    modes.sort(key=lambda pair: pair[0])
    return modes


def build_rayleigh(
    model: StructuralModel,
    zeta: float,
    modes: tuple[float, float],
) -> np.ndarray:
    """Inherent damping C = a0 M + a1 K fit to ``zeta`` at two frequencies.

    With a0 = 2 zeta w1 w2 / (w1 + w2) and a1 = 2 zeta / (w1 + w2) the modal
    damping ratio equals ``zeta`` exactly at both w1 and w2.
    """
    w1, w2 = modes
    if zeta < 0:
        raise ValueError(f"damping ratio must be nonnegative, got {zeta}")
    if not 0 < w1 < w2:
        raise ValueError(
            f"need two distinct positive frequencies with w1 < w2, got ({w1}, {w2})"
        )
    a0 = 2.0 * zeta * w1 * w2 / (w1 + w2)
    a1 = 2.0 * zeta / (w1 + w2)
    return a0 * model.mass + a1 * model.stiffness


def damper_scales(model: StructuralModel, scenario: Scenarios) -> np.ndarray:
    """Capacity multiplier of every damper under a scenario.

    ``None`` means no failure. One scenario gives shape (n_dampers,); a
    sequence of B scenarios gives (B, n_dampers), one row per scenario.
    """
    if scenario is None:
        return np.ones(model.n_dampers)
    if isinstance(scenario, FailureScenario):
        return scenario.scale_vector(model.n_dampers)
    rows = [damper_scales(model, sc) for sc in scenario]
    return np.array(rows).reshape(len(rows), model.n_dampers)


def assemble_added_damping(
    model: StructuralModel,
    design: DesignVector,
    scenario: Scenarios = None,
) -> np.ndarray:
    """Added damping matrix for a design under a failure scenario.

    Each intact damper contributes c_bar * x_i * T_i' T_i; dampers listed in
    the scenario have their coefficient multiplied by the damage factor.
    ``scenario=None`` means no failure. The result is symmetric positive
    semidefinite and linear in ``x``. A sequence of B scenarios gives the
    stack of their B matrices, shape (B, n, n), for the batched sweeps.
    """
    if design.n_dampers != model.n_dampers:
        raise ValueError(
            f"design has {design.n_dampers} variables, model has "
            f"{model.n_dampers} dampers"
        )
    coeffs = design.coefficients * damper_scales(model, scenario)
    rows = model.damper_rows
    # sum_k c_k T_k' T_k = sum_r c_owner(r) t_r' t_r over the stacked rows.
    return (rows.T * (coeffs @ model.row_owner.T)[..., None, :]) @ rows
