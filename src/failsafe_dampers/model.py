"""Linear structural model, modal analysis, and damping-matrix assembly.

Units follow the kN / m / s / ton convention throughout: stiffness in kN/m,
damping in kNs/m, masses in ton, so that kN = ton * m / s^2 holds without
conversion factors.
"""

from __future__ import annotations

import functools
import logging
from collections.abc import Iterable
from itertools import chain
from dataclasses import dataclass, field

import numpy as np

from .scenarios import FailureScenario

logger = logging.getLogger(__name__)

# One scenario (None means no failure), or a batch of them.
Scenarios = FailureScenario | Iterable[FailureScenario] | None

def _finite(a, name: str, ndmin: int = 0) -> np.ndarray:
    """Read-only float copy of ``a``; every entry must be finite."""
    out = np.array(a, dtype=float, ndmin=ndmin)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} has entries that are not finite")
    out.setflags(write=False)
    return out


def check_symmetric(a: np.ndarray, name: str) -> None:
    """Raise `ValueError` unless the matrix ``a``, or each matrix of a stack,
    is symmetric to 1e-8 of the largest entry."""
    scale = np.abs(a).max(initial=0.0)
    if np.abs(a - a.mT).max(initial=0.0) > 1e-8 * scale:
        raise ValueError(f"{name} matrix must be symmetric")


@dataclass(frozen=True)
class StructuralModel:
    """Assembled linear structure with candidate damper locations.

    Parameters
    ----------
    mass : (n, n) array
        Mass matrix, ton. Symmetric positive definite.
    stiffness : (n, n) array
        Stiffness matrix, kN/m. Symmetric; only symmetry is checked, so
        an indefinite K is accepted, and its diverging response raises
        `ConvergenceError` (exit 3 from the command line).
    inherent_damping : (n, n) array
        Inherent damping matrix, kNs/m, typically from `build_rayleigh`.
        Symmetric.
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

    Every entry must be finite. A field that fails a check raises
    `ValueError` with a message that starts with the field's name.
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
        mass = _finite(self.mass, "mass")
        if mass.ndim != 2 or mass.shape[0] != mass.shape[1]:
            raise ValueError(f"mass must be square, got shape {mass.shape}")
        n = mass.shape[0]
        check_symmetric(mass, "mass")
        try:
            np.linalg.cholesky(mass)
        except np.linalg.LinAlgError:
            raise ValueError("mass matrix must be positive definite") from None

        stiffness = _finite(self.stiffness, "stiffness")
        if stiffness.shape != (n, n):
            raise ValueError(
                f"stiffness shape {stiffness.shape} does not match {n} DOFs"
            )
        check_symmetric(stiffness, "stiffness")

        damping = _finite(self.inherent_damping, "inherent_damping")
        if damping.shape != (n, n):
            raise ValueError(
                f"inherent_damping shape {damping.shape} does not match {n} DOFs"
            )
        check_symmetric(damping, "inherent_damping")

        influence = _finite(self.influence, "influence")
        if influence.shape != (n,):
            raise ValueError(
                f"influence shape {influence.shape} does not match {n} DOFs"
            )

        drift = _finite(self.drift_transform, "drift_transform", ndmin=2)
        if drift.ndim != 2 or drift.shape[1] != n:
            raise ValueError(
                f"drift_transform has shape {drift.shape}, expected (n_drifts, {n})"
            )

        d_allow = _finite(self.d_allow, "d_allow", ndmin=1)
        if d_allow.shape != (drift.shape[0],):
            raise ValueError(
                f"d_allow has shape {d_allow.shape}, expected "
                f"({drift.shape[0]},) (one per drift)"
            )
        if np.any(d_allow <= 0):
            raise ValueError("d_allow entries must all be positive")

        transforms = []
        for i, t in enumerate(self.damper_transforms):
            t = _finite(t, f"damper_transforms[{i}]", ndmin=2)
            if t.ndim != 2 or t.shape[1] != n:
                raise ValueError(
                    f"damper_transforms[{i}] has shape {t.shape}, expected (rows, {n})"
                )
            if not np.any(t):
                raise ValueError(f"damper_transforms[{i}] is identically zero")
            transforms.append(t)

        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "stiffness", stiffness)
        object.__setattr__(self, "inherent_damping", damping)
        object.__setattr__(self, "influence", influence)
        object.__setattr__(self, "drift_transform", drift)
        object.__setattr__(self, "d_allow", d_allow)
        object.__setattr__(self, "damper_transforms", tuple(transforms))
        owner = np.repeat(np.arange(len(transforms)), [t.shape[0] for t in transforms])
        object.__setattr__(self, "damper_rows", _finite(np.vstack(transforms), "damper_rows"))
        object.__setattr__(
            self, "row_owner", _finite(owner[:, None] == np.arange(len(transforms)), "row_owner")
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
        if not np.all((x >= -1e-9) & (x <= 1 + 1e-9)):  # NaN fails too
            raise ValueError(
                f"design variables must lie in [0, 1], got range "
                f"[{x.min():g}, {x.max():g}]"
            )
        x = _finite(np.clip(x, 0.0, 1.0), "design vector")
        object.__setattr__(self, "x", x)
        if not 0 < self.c_bar < np.inf:
            raise ValueError(f"c_bar must be positive and finite, got {self.c_bar}")

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
    model: StructuralModel, k: int
) -> list[tuple[float, np.ndarray]]:
    """Lowest ``k`` natural frequencies and mass-normalized mode shapes.

    Solves K phi = omega^2 M phi by Cholesky reduction, M = L L': the
    eigenvectors y of L^-1 K L^-T give phi = L^-T y. M must be positive
    definite; for a semidefinite K a rounding-level negative eigenvalue
    gives omega = 0.

    Returns
    -------
    list of (omega, phi)
        Circular frequencies in rad/s, ascending, with phi' M phi = 1.
    """
    n = model.n_dof
    if not 1 <= k <= n:
        raise ValueError(f"requested {k} modes from a {n}-DOF model")
    L = np.linalg.cholesky(model.mass)
    lam, y = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, model.stiffness).T))
    phi = np.linalg.solve(L.T, y[:, :k])
    return [(float(np.sqrt(max(w2, 0.0))), phi[:, i]) for i, w2 in enumerate(lam[:k])]


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
    if not 0 <= zeta < np.inf:
        raise ValueError(f"damping ratio must be finite and nonnegative, got {zeta}")
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
    A scenario or a sequence gives a read-only array, built once per
    (n_dampers, scenarios) and shared by every later call: a working set
    stays fixed over its sub-problem's iterations.
    """
    if scenario is None:
        return np.ones(model.n_dampers)
    if isinstance(scenario, FailureScenario):
        return damper_scales(model, [scenario])[0]
    return _damper_scales(model.n_dampers, tuple(scenario))


@functools.lru_cache(maxsize=64)
def _damper_scales(n_dampers: int, scenarios: tuple[FailureScenario, ...]) -> np.ndarray:
    counts = [len(sc.damaged) for sc in scenarios]
    rows = np.repeat(np.arange(len(scenarios)), counts)
    cols = np.fromiter(chain.from_iterable(sc.damaged for sc in scenarios), int)
    if cols.size and cols.max() >= n_dampers:
        worst = cols.argmax()
        raise ValueError(
            f"scenario {scenarios[rows[worst]].id} damages damper {cols[worst]}, "
            f"but the model has only {n_dampers} dampers"
        )
    scales = np.ones((len(scenarios), n_dampers))
    scales[rows, cols] = np.repeat([sc.factor for sc in scenarios], counts)
    scales.setflags(write=False)
    return scales


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


def distinct_matrices(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct matrices of a (B, n, n) stack and where each matrix is.

    Matrices are told apart by their bytes and kept in the order of their
    first occurrence; ``index`` (B,) gives each matrix's position among
    them, so ``distinct[index]`` is ``stack`` bit for bit, and a stack of
    equal matrices gives one. A design with zero dampers repeats the intact
    matrix in every scenario that fails only those, and a batched sweep of
    the distinct ones gives the same responses.
    """
    first, keep, index = {}, [], []
    for b, matrix in enumerate(stack):
        i = first.setdefault(matrix.tobytes(), len(first))
        if i == len(keep):
            keep.append(b)
        index.append(i)
    return stack[keep], np.array(index, dtype=np.intp)
