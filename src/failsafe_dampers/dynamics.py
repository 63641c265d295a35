"""Newmark time integration and ground-motion handling."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, InputError
from .model import StructuralModel

STANDARD_GRAVITY = 9.80665

_SUPPORTED_BETAS = (0.25, 1.0 / 6.0)


@dataclass(frozen=True)
class GroundMotion:
    """Uniformly sampled ground acceleration record.

    ``accel`` holds N+1 samples in m/s^2 at spacing ``dt``; ``scale`` is an
    amplitude multiplier applied when the record is used.
    """

    name: str
    dt: float
    accel: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"time step must be positive, got {self.dt}")
        accel = np.atleast_1d(np.asarray(self.accel, dtype=float))
        if accel.ndim != 1 or accel.size < 2:
            raise ValueError("record needs at least two acceleration samples")
        if not np.all(np.isfinite(accel)):
            raise ValueError(f"record '{self.name}' contains non-finite samples")
        accel.setflags(write=False)
        object.__setattr__(self, "accel", accel)

    @property
    def n_steps(self) -> int:
        return self.accel.size - 1

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.accel.size) * self.dt

    @property
    def scaled_accel(self) -> np.ndarray:
        return self.scale * self.accel

    def rescaled(self, scale: float) -> "GroundMotion":
        return GroundMotion(name=self.name, dt=self.dt, accel=self.accel, scale=scale)


@dataclass(frozen=True)
class ResponseHistory:
    """Displacement, velocity, and acceleration trajectories.

    Rows are time samples (N+1 of them), columns degrees of freedom; all
    responses are relative to the ground. A batched history, one response
    per damping matrix of a stack, has arrays of shape (N+1, B, n). Row 0
    equals the prescribed initial conditions. ``beta``/``gamma`` record the
    integrator settings the trajectories satisfy.
    """

    u: np.ndarray
    v: np.ndarray
    a: np.ndarray
    dt: float
    u0: np.ndarray
    v0: np.ndarray
    beta: float = 0.25
    gamma: float = 0.5

    def __post_init__(self):
        for name in ("u", "v", "a"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.u.shape == self.v.shape == self.a.shape):
            raise ValueError("u, v, a must share one shape")
        u0 = np.asarray(self.u0, dtype=float)
        v0 = np.asarray(self.v0, dtype=float)
        row0 = self.u[0].shape
        if not (
            np.array_equal(self.u[0], np.broadcast_to(u0, row0))
            and np.array_equal(self.v[0], np.broadcast_to(v0, row0))
        ):
            raise ValueError("row 0 of the history must equal the initial conditions")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "v0", v0)

    @property
    def n_steps(self) -> int:
        return self.u.shape[0] - 1

    @property
    def n_dof(self) -> int:
        return self.u.shape[-1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.u.shape[0]) * self.dt


def _integrate(M, C, K, load, dt, u0, v0, beta, gamma):
    """Newmark recurrence on raw matrices; returns the states (N+1, ..., 3n).

    ``load`` is (N+1, n). ``C`` is (n, n), or a stack (B, n, n) of systems
    that share M, K and the load and go through one time loop; the states
    then have shape (N+1, B, 3n). One step is linear in s = (u, v, a) and
    the next load, s_{i+1} = P s_i + Q f_{i+1} (Newmark 1959). P and Q come
    from applying the step to identity columns, with one stacked solve
    against K_eff; `transition_sweep` then adds P s_i in place to each row
    Q f_{i+1}, one stacked matvec per step.
    """
    n = M.shape[0]
    c0 = 1.0 / (beta * dt * dt)
    c1 = gamma / (beta * dt)
    c2 = 1.0 / (beta * dt)
    c3 = 1.0 / (2.0 * beta) - 1.0
    c4 = gamma / beta - 1.0
    c5 = dt * (gamma / (2.0 * beta) - 1.0)

    K_eff = K + c0 * M + c1 * C
    u, v, a, f = np.split(np.eye(4 * n), 4)
    rhs = f + M @ (c0 * u + c2 * v + c3 * a) + C @ (c1 * u + c4 * v + c5 * a)
    try:
        np.linalg.cholesky(K_eff)
        u_next = np.linalg.solve(K_eff, rhs)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            "effective stiffness matrix is singular or indefinite"
        ) from None
    a_next = c0 * (u_next - u) - c2 * v - c3 * a
    v_next = v + dt * ((1.0 - gamma) * a + gamma * a_next)
    PQ = np.concatenate([u_next, v_next, a_next], axis=-2)
    P, Q = np.ascontiguousarray(PQ[..., : 3 * n]), PQ[..., 3 * n :]

    S = np.empty(load.shape[:1] + C.shape[:-2] + (3 * n,))
    S[0, ..., :n] = u0
    S[0, ..., n : 2 * n] = v0
    S[0, ..., 2 * n :] = np.linalg.solve(M, (load[0] - C @ v0 - K @ u0).T).T
    S[1:] = np.tensordot(load[1:], Q, axes=(1, -1))
    transition_sweep(P, S)
    return S


def transition_sweep(P, S):
    """Run S[k+1] += P S[k] in place, row after row.

    Rows of ``S`` hold the forcing terms on entry and the states on exit.
    ``P`` is (m, m) with rows of shape (m,), or a stack (B, m, m) with rows
    of shape (B, m), each system stepping with its own matrix in one
    stacked matvec. The Newmark sweep passes its state array; the adjoint
    passes a reversed view, so the same loop also runs backward in time.
    Overflow raises no warning here: the caller checks the result.
    """
    matvec = np.matvec
    with np.errstate(over="ignore", invalid="ignore"):
        for prev, row in zip(S, S[1:]):
            row += matvec(P, prev)


def newmark_solve(
    model: StructuralModel,
    C_d: np.ndarray,
    gm: GroundMotion,
    *,
    beta: float = 0.25,
    gamma: float = 0.5,
    u0: np.ndarray | None = None,
    v0: np.ndarray | None = None,
) -> ResponseHistory:
    """Integrate the damped equations of motion under a ground motion.

    Parameters
    ----------
    model : StructuralModel
        Supplies mass, stiffness, inherent damping, and influence vector.
    C_d : (n, n) or (B, n, n) array
        Added damping matrix, symmetric positive semidefinite, or a stack
        of B of them (one per failure scenario, as `assemble_added_damping`
        returns for a list of scenarios). A stack goes through one time
        loop and gives a batched history, arrays of shape (N+1, B, n).
    gm : GroundMotion
        Record integrated at its native time step.
    beta, gamma : float
        Newmark parameters. beta=1/4 (average acceleration, unconditionally
        stable, the default) and beta=1/6 (linear acceleration) are
        supported, both with gamma=1/2.
    u0, v0 : arrays, optional
        Initial displacement and velocity, shared by the whole stack; zero
        when omitted.

    The effective stiffness is factorized once per matrix to build P and Q
    of the recurrence s_{i+1} = P s_i + Q f_{i+1}; equilibrium holds to
    rounding. A response that overflows (beta=1/6 with dt beyond its
    stability limit) raises `ConvergenceError` naming the record and the
    first time step whose state is not finite.
    """
    if not any(abs(beta - b) < 1e-12 for b in _SUPPORTED_BETAS):
        raise ValueError(f"beta must be 1/4 or 1/6, got {beta}")
    if abs(gamma - 0.5) > 1e-12:
        raise ValueError(f"gamma must be 1/2, got {gamma}")
    n = model.n_dof
    C_d = np.asarray(C_d, dtype=float)
    if C_d.ndim not in (2, 3) or C_d.shape[-2:] != (n, n):
        raise ValueError(f"C_d shape {C_d.shape} does not match {n} DOFs")
    scale = np.abs(C_d).max(initial=0.0)
    if scale > 0 and np.abs(C_d - C_d.mT).max() > 1e-8 * scale:
        raise ValueError("C_d must be symmetric")

    u0 = np.zeros(n) if u0 is None else np.asarray(u0, dtype=float)
    v0 = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    if u0.shape != (n,) or v0.shape != (n,):
        raise ValueError("initial conditions must match the DOF count")

    C = model.inherent_damping + C_d
    load = -np.outer(gm.scaled_accel, model.mass @ model.influence)
    S = _integrate(model.mass, C, model.stiffness, load, gm.dt, u0, v0, beta, gamma)
    finite = np.isfinite(S).reshape(S.shape[0], -1).all(axis=1)
    if not finite.all():
        raise ConvergenceError(
            f"response to record '{gm.name}' diverged: the state is not finite "
            f"at time step {int(np.argmin(finite))} of {gm.n_steps} "
            f"(dt = {gm.dt:g}, beta = {beta:.4g})"
        )
    u, v, a = np.split(S, 3, axis=-1)
    return ResponseHistory(u=u, v=v, a=a, dt=gm.dt, u0=u0, v0=v0, beta=beta, gamma=gamma)


def equilibrium_residual(
    model: StructuralModel,
    C_d: np.ndarray,
    gm: GroundMotion,
    history: ResponseHistory,
) -> float:
    """Worst relative residual of M a + C v + K u = load over all steps."""
    C = model.inherent_damping + np.asarray(C_d, dtype=float)
    load = -np.outer(gm.scaled_accel, model.mass @ model.influence)
    res = (
        history.a @ model.mass.T
        + history.v @ C.T
        + history.u @ model.stiffness.T
        - load
    )
    res_norm = np.linalg.norm(res, axis=1).max()
    ref = max(
        np.linalg.norm(load, axis=1).max(),
        np.linalg.norm(history.u @ model.stiffness.T, axis=1).max(),
        np.linalg.norm(history.a @ model.mass.T, axis=1).max(),
        1e-300,
    )
    return float(res_norm / ref)


def spectral_displacement(gm: GroundMotion, period: float, zeta: float) -> float:
    """Peak displacement of a unit-mass oscillator under the record.

    Integrates a single-DOF system with natural period ``period`` and
    damping ratio ``zeta`` using the average-acceleration scheme and
    returns max |u(t)|. Used to rank records by severity.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    w = 2.0 * np.pi / period
    M = np.array([[1.0]])
    C = np.array([[2.0 * zeta * w]])
    K = np.array([[w * w]])
    load = -gm.scaled_accel[:, None]
    S = _integrate(M, C, K, load, gm.dt, np.zeros(1), np.zeros(1), 0.25, 0.5)
    return float(np.abs(S[:, 0]).max())


def select_dominant_record(
    records: list[GroundMotion], period: float, zeta: float = 0.05
) -> GroundMotion:
    """Record with the largest spectral displacement at the given period."""
    if not records:
        raise ValueError("record ensemble is empty")
    sd = [spectral_displacement(gm, period, zeta) for gm in records]
    return records[int(np.argmax(sd))]


_DT_HEADER = re.compile(r"^\s*dt\s*=\s*([0-9eE+.\-]+)\s*$")


def load_ground_motion(
    path: str | Path,
    *,
    units: str = "m/s2",
    scale: float = 1.0,
    name: str | None = None,
) -> GroundMotion:
    """Parse a ground-motion file.

    Two layouts are accepted: two whitespace-separated columns of time and
    acceleration with uniform spacing, or a ``dt=<seconds>`` header line
    followed by one acceleration per line. Lines starting with ``#`` or
    ``%`` are comments. ``units="g"`` converts samples to m/s^2.
    """
    path = Path(path)
    if units not in ("m/s2", "g"):
        raise InputError(f"unknown acceleration units '{units}' (use m/s2 or g)")
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read record file {path}: {exc}") from exc

    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith(("#", "%"))
    ]
    if not lines:
        raise InputError(f"record file {path} holds no data")

    header = _DT_HEADER.match(lines[0])
    if header:
        dt = float(header.group(1))
        try:
            accel = np.array([float(ln.split()[0]) for ln in lines[1:]])
        except ValueError as exc:
            raise InputError(f"bad acceleration sample in {path}: {exc}") from exc
    else:
        rows = []
        for i, ln in enumerate(lines):
            parts = ln.split()
            if len(parts) < 2:
                raise InputError(
                    f"{path}, data line {i + 1}: expected 'time accel' columns"
                )
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise InputError(f"{path}, data line {i + 1}: {exc}") from exc
        t = np.array([r[0] for r in rows])
        accel = np.array([r[1] for r in rows])
        if t.size < 2:
            raise InputError(f"record file {path} needs at least two samples")
        steps = np.diff(t)
        dt = float(steps[0])
        if dt <= 0 or np.any(np.abs(steps - dt) > 1e-6 * max(dt, 1e-12)):
            raise InputError(f"record file {path} is not uniformly sampled")

    if units == "g":
        accel = accel * STANDARD_GRAVITY
    try:
        return GroundMotion(
            name=name or path.stem, dt=dt, accel=accel, scale=scale
        )
    except ValueError as exc:
        raise InputError(f"record file {path}: {exc}") from exc
