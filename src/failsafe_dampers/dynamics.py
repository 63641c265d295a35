"""Newmark time integration and ground-motion handling."""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, InputError
from .model import StructuralModel, check_symmetric, distinct_matrices

STANDARD_GRAVITY = 9.80665

# Newmark's beta and gamma: average acceleration, unconditionally stable; only
# gamma = 1/2 is second-order accurate and adds no numerical damping.
BETA = 0.25
GAMMA = 0.5
# Damping ratio of the oscillator that ranks records (`select_dominant_record`).
RANKING_ZETA = 0.05
# Cost model of `transition_sweep` in seconds, for a stack of B systems of m
# states over N rows in blocks of L (see `block_length`). Each part costs
# fixed + per system + per system and entry:
#   a carry step, one stacked matvec: m^2 entries;
#   a fill step, one batched matmul over R = ceil(N / L) rows and its strided
#   add: R m entries;
#   the block product with its table of powers: L powers per system, N m
#   entries.
# Each part was timed alone (best of 15) on Newmark P of shear frames with
# B = 1-137, m = 3-24, R = 5-400 and N = 100-2,000, on a 2-core 2.1 GHz Xeon
# (numpy 2.4, OpenBLAS 0.3.31, one thread), and fitted by non-negative least
# squares on relative error. Over whole sweeps on that grid, the L it picks
# ran 6% slower on average than the fastest L tried (median 0.1%). The
# constants affect speed only: every L gives the same trajectories to
# rounding.
_CARRY_S = (1.3e-6, 4.5e-8, 1.9e-10)
_FILL_S = (3.5e-6, 2.0e-7, 3.6e-9)
_BLOCK_S = (2.0e-5, 2.1e-7, 2.2e-9)


@dataclass(frozen=True)
class GroundMotion:
    """Uniformly sampled ground acceleration record.

    ``accel`` holds N+1 samples in m/s^2 at spacing ``dt``; they carry the
    record's amplitude. The record keeps its own read-only copy of them.
    """

    name: str
    dt: float
    accel: np.ndarray

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"time step must be positive and finite, got {self.dt}")
        accel = np.array(self.accel, dtype=float, ndmin=1)
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
        """The samples, under the name `bench/workloads.py` reads."""
        return self.accel

    def rescaled(self, factor: float) -> "GroundMotion":
        """This record with every sample multiplied by ``factor``. A factor
        that makes a sample non-finite is rejected as non-finite samples."""
        with np.errstate(over="ignore", invalid="ignore"):
            return GroundMotion(name=self.name, dt=self.dt, accel=self.accel * factor)


@dataclass(frozen=True)
class ResponseHistory:
    """Displacement, velocity, and acceleration trajectories.

    Rows are time samples (N+1 of them), columns degrees of freedom; all
    responses are relative to the ground, which starts at rest. A batched
    history has arrays of shape (N+1, B_swept, n), one response per swept
    system, and ``index`` (B,) names the system of each matrix of the stack
    (see `newmark_solve`). ``powers`` is the `transition_powers` table the
    trajectories were swept with (``powers[0]`` is P) and ``Q`` the load
    map of `transition_matrices`, one per swept system, so that the
    adjoint sweeps with the primal's own powers. A history built by hand
    carries none of the three: its systems are the stack's.
    """

    u: np.ndarray
    v: np.ndarray
    a: np.ndarray
    dt: float
    powers: np.ndarray | None = None
    Q: np.ndarray | None = None
    index: np.ndarray | None = None

    def __post_init__(self):
        for name in ("u", "v", "a", "powers", "Q", "index"):
            if getattr(self, name) is None:
                continue
            arr = np.asarray(getattr(self, name), dtype=np.intp if name == "index" else float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.u.shape == self.v.shape == self.a.shape):
            raise ValueError("u, v, a must share one shape")

    @property
    def n_steps(self) -> int:
        return self.u.shape[0] - 1

    @property
    def n_dof(self) -> int:
        return self.u.shape[-1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.u.shape[0]) * self.dt


def transition_matrices(M, C, K, dt):
    """P (..., 3n, 3n) and Q (..., 3n, n) of one Newmark step in s = (u, v, a).

    One step is linear in the state and the next load, s_{i+1} = P s_i +
    Q f_{i+1} (Newmark 1959). P and Q come from applying the step to
    identity columns of (u, v, a, f), whose effective load [c0 M + c1 C |
    c2 M + c4 C | c3 M + c5 C | I] goes through one stacked solve against
    K_eff; a stack ``C`` (B, n, n) gives one pair per system. The terms
    that hold no C are built once per (M, K, dt), see `_step_terms`.
    """
    n = M.shape[0]
    beta, gamma = BETA, GAMMA
    c0, K_c0M, c0M, c2M, c3M, eye, u, v, c2v, c3a, a_rest = _step_terms(
        np.asarray(M, dtype=float).tobytes(), np.asarray(K, dtype=float).tobytes(),
        n, dt, beta, gamma,
    )
    c1 = gamma / (beta * dt)
    c4 = gamma / beta - 1.0
    c5 = dt * (gamma / (2.0 * beta) - 1.0)

    K_eff = K_c0M + c1 * C
    eye = np.broadcast_to(eye, C.shape)
    rhs = np.concatenate([c0M + c1 * C, c2M + c4 * C, c3M + c5 * C, eye], axis=-1)
    try:
        np.linalg.cholesky(K_eff)
        u_next = np.linalg.solve(K_eff, rhs)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            "effective stiffness matrix is singular or indefinite"
        ) from None
    a_next = c0 * (u_next - u) - c2v - c3a
    v_next = v + dt * (a_rest + gamma * a_next)
    PQ = np.concatenate([u_next, v_next, a_next], axis=-2)
    return np.ascontiguousarray(PQ[..., : 3 * n]), PQ[..., 3 * n :]


@functools.lru_cache(maxsize=16)
def _step_terms(M_bytes, K_bytes, n, dt, beta, gamma):
    """c0 and the read-only arrays of `transition_matrices` that hold no C:
    K + c0 M, c0 M, c2 M, c3 M, I (n, n), the u and v rows of the identity
    over (u, v, a, f), and c2 v, c3 a and (1 - gamma) a. M and K are float
    (n, n), given by their bytes."""
    M = np.frombuffer(M_bytes).reshape(n, n)
    K = np.frombuffer(K_bytes).reshape(n, n)
    c0 = 1.0 / (beta * dt * dt)
    c2 = 1.0 / (beta * dt)
    c3 = 1.0 / (2.0 * beta) - 1.0
    u, v, a = np.eye(3 * n, 4 * n).reshape(3, n, 4 * n)
    arrays = [
        K + c0 * M, c0 * M, c2 * M, c3 * M, np.eye(n), u, v, c2 * v, c3 * a, (1.0 - gamma) * a
    ]
    for arr in arrays:
        arr.setflags(write=False)
    return c0, *arrays


def block_length(P, n_rows, batch=None):
    """`transition_sweep`'s block for ``n_rows`` rows of ``P`` (..., m, m):
    the L in 1..floor(sqrt(n_rows)) with the least modelled cost (see
    `_CARRY_S`), 1 being row by row. A stable step keeps P's powers bounded,
    damped or not, so every L is safe. ``batch`` is the stack size the cost
    is modelled for, P's own by default: the distinct systems of a larger
    stack sweep in that stack's block, so that their trajectories are the
    whole stack's bit for bit."""
    return _block_length(batch or math.prod(P.shape[:-2]), P.shape[-1], n_rows)


@functools.lru_cache(maxsize=256)
def _block_length(B, m, n_rows):
    L = np.arange(1, max(1, math.isqrt(n_rows)) + 1)
    carry = (n_rows // L) * (_CARRY_S[0] + B * (_CARRY_S[1] + _CARRY_S[2] * m * m))
    fill = (L - 1) * (_FILL_S[0] + B * (_FILL_S[1] + _FILL_S[2] * -(-n_rows // L) * m))
    block = (L > 1) * (_BLOCK_S[0] + B * (_BLOCK_S[1] * L + _BLOCK_S[2] * n_rows * m))
    return int(np.argmin(carry + fill + block)) + 1


def transition_powers(P, L):
    """The table P^1..P^L of ``P`` (..., m, m), shape (L, ..., m, m).

    About log2(L) doubling steps fill it in place: P^m = P^(m-k) P^k with
    k the largest power of two below m, whatever L is, so the first K
    entries of a table are bitwise the table of length K. Overflow raises
    no warning here: the caller checks the states.
    """
    if L < 1:
        raise ValueError(f"block length must be at least 1, got {L}")
    powers = np.empty((L,) + P.shape)
    powers[0] = P
    k = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while k < L:  # P^(k+1..k+j) = P^(1..j) P^k
            j = min(k, L - k)
            np.matmul(powers[:j], powers[k - 1], out=powers[k : k + j])
            k += j
    return powers


def transition_sweep(powers, S):
    """Run S[k+1] += P S[k] in place, in blocks of L = len(``powers``) rows.

    ``powers`` is the `transition_powers` table P^1..P^L of P (m, m), with
    rows of S of shape (m,), or of a stack P (B, m, m), with rows of shape
    (B, m), each system stepping with its own matrix. Rows of ``S`` hold
    the forcing terms on entry and the states on exit. The Newmark sweep
    passes its state array; the adjoint passes a reversed view and the
    transposed powers, so the same loop also runs backward in time. With
    L > 1 (Blelloch 1990), one product gives each full block's last row
    from rest, and N/L carry steps plus L-1 fill steps replace the N row
    steps; L = 1 is the row loop. Each fill step multiplies its rows by P'
    in one (batched) matmul; the carry steps stay matvecs, so that L = 1
    is the row loop bit for bit. Overflow raises no warning here: the
    caller checks it.
    """
    L = len(powers)
    if L < 1:
        raise ValueError("the table of transition powers is empty")
    P = powers[0]
    with np.errstate(over="ignore", invalid="ignore"):
        nb = (len(S) - 1) // L
        if L > 1 and nb:
            # Block k's last row gets sum_{j<L} P^(L-j) r_(kL+j) in one product.
            # A stack's time axis goes behind its system axis, as in W.
            r = S[1 : nb * L + 1].swapaxes(0, -2).reshape(S.shape[1:-1] + (nb, L, -1))
            r = r[..., :-1, :].reshape(S.shape[1:-1] + (nb, -1))
            W = np.concatenate(powers[L - 2 :: -1], axis=-1)
            S[L : nb * L + 1 : L] += (r @ W.mT).swapaxes(0, -2)
        matvec, PL = np.matvec, powers[-1]
        for prev, row in zip(S[::L], S[L::L]):
            row += matvec(PL, prev)
        for j in range(1, L):
            rows = S[j - 1 : -1 : L]
            if P.ndim == 2:
                S[j::L] += rows @ P.T
            else:  # one matmul per system over its (rows, m) view
                S[j::L] += (rows.swapaxes(0, 1) @ P.mT).swapaxes(0, 1)


def newmark_solve(
    model: StructuralModel,
    C_d: np.ndarray,
    gm: GroundMotion,
) -> ResponseHistory:
    """Integrate the damped equations of motion under a ground motion.

    Parameters
    ----------
    model : StructuralModel
        Supplies mass, stiffness, inherent damping, and influence vector.
    C_d : (n, n) or (B, n, n) array
        Added damping matrix, symmetric positive semidefinite, or a stack
        of B of them (one per failure scenario, as `assemble_added_damping`
        returns for a list of scenarios). A stack sweeps each distinct
        matrix once (see `distinct_matrices`) in one time loop, in the block
        `block_length` picks for all B, so each response is the whole
        stack's bit for bit; the history's ``index`` maps the stack onto
        its systems.
    gm : GroundMotion
        Record integrated from rest at its native time step, with the
        average acceleration scheme (`BETA` = 1/4, `GAMMA` = 1/2).

    The effective stiffness is factorized once per matrix to build P and Q
    of the recurrence s_{i+1} = P s_i + Q f_{i+1}, and `transition_sweep`
    runs it with the powers of the block `block_length` picks; the load rows
    f are built once per record content, M and iota (`_record_load`).
    Equilibrium holds to rounding, and the history keeps Q and the powers of
    P for the adjoint. A response that overflows (an indefinite stiffness,
    whose unstable mode grows exponentially) raises `ConvergenceError`
    naming the record and the first time step whose state is not finite.
    An effective stiffness that is not positive definite (a stiffness so
    indefinite that K + 4 M / dt^2 is not) raises `ConvergenceError` naming
    the record and dt.
    """
    n = model.n_dof
    C_d = np.asarray(C_d, dtype=float)
    if C_d.ndim not in (2, 3) or C_d.shape[-2:] != (n, n):
        raise ValueError(f"C_d shape {C_d.shape} does not match {n} DOFs")
    check_symmetric(C_d, "C_d")
    batch = index = None
    if C_d.ndim == 3:
        batch = len(C_d)
        C_d, index = distinct_matrices(C_d)

    C = model.inherent_damping + C_d
    load, a0 = _record_load(model.mass.tobytes(), model.influence.tobytes(), gm.accel.tobytes())
    try:
        P, Q = transition_matrices(model.mass, C, model.stiffness, gm.dt)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"response to record '{gm.name}' cannot be integrated at dt = {gm.dt:g}: {exc}"
        ) from None
    # Each row Q f_{i+1} is written in place; the sweep adds P s_i to it.
    S = np.empty(load.shape[:1] + C.shape[:-2] + (3 * n,))
    S[0, ..., : 2 * n] = 0.0
    S[0, ..., 2 * n :] = a0
    np.matmul(load[1:], Q.mT, out=S[1:].swapaxes(0, -2))
    powers = transition_powers(P, block_length(P, gm.n_steps, batch))
    transition_sweep(powers, S)
    if not np.isfinite(S).all():
        raise ConvergenceError(
            f"response to record '{gm.name}' diverged: the state is not finite at "
            f"time step {np.isfinite(S).reshape(len(S), -1).all(axis=1).argmin()} of {gm.n_steps} "
            f"(dt = {gm.dt:g})"
        )
    return ResponseHistory(
        S[..., :n], S[..., n : 2 * n], S[..., 2 * n :], gm.dt, powers, Q, index
    )


@functools.lru_cache(maxsize=32)
def _record_load(M_bytes, iota_bytes, accel_bytes):
    """The load rows -a_g(t_i) M iota (N+1, n) and the initial
    acceleration M^-1 f_0 of a record on a model, read-only. M, iota and the
    record's samples are float arrays, given by their bytes."""
    iota = np.frombuffer(iota_bytes)
    M = np.frombuffer(M_bytes).reshape(iota.size, iota.size)
    load = -np.outer(np.frombuffer(accel_bytes), M @ iota)
    a0 = np.linalg.solve(M, load[0])
    load.setflags(write=False)
    a0.setflags(write=False)
    return load, a0


def spectral_displacement(gm: GroundMotion, period: float, zeta: float) -> float:
    """Peak displacement of a unit-mass oscillator under the record.

    Integrates a single-DOF model with natural period ``period`` and
    damping ratio ``zeta`` through `newmark_solve` and returns max |u(t)|.
    Used to rank records by severity. A period that is not positive (or
    NaN) and a ratio that is not finite raise `ValueError`.
    """
    if not period > 0:
        raise ValueError(f"period must be positive, got {period}")
    if not np.isfinite(zeta):
        raise ValueError(f"zeta must be finite, got {zeta}")
    w = 2.0 * np.pi / period
    oscillator = StructuralModel(
        mass=[[1.0]], stiffness=[[w * w]], inherent_damping=[[2.0 * zeta * w]],
        influence=[1.0], drift_transform=[[1.0]], d_allow=[1.0], damper_transforms=([[1.0]],),
    )
    return float(np.abs(newmark_solve(oscillator, np.zeros((1, 1)), gm).u).max())


def select_dominant_record(records: list[GroundMotion], period: float) -> GroundMotion:
    """Record with the largest spectral displacement at the given period,
    at the damping ratio `RANKING_ZETA`."""
    if not records:
        raise ValueError("record ensemble is empty")
    sd = [spectral_displacement(gm, period, RANKING_ZETA) for gm in records]
    return records[int(np.argmax(sd))]


_DT_HEADER = re.compile(r"^\s*dt\s*=\s*([0-9eE+.\-]+)\s*$")


def load_ground_motion(
    path: str | Path,
    *,
    units: str = "m/s2",
) -> GroundMotion:
    """Parse a ground-motion file.

    Two layouts are accepted: two whitespace-separated columns of time and
    acceleration with uniform spacing, or a ``dt=<seconds>`` header line
    followed by one acceleration per line. Lines starting with ``#`` or
    ``%`` are comments. Samples are parsed by `np.loadtxt`, which reads
    no underscores or non-ASCII digits; a sample that does not parse is
    reported with its line of the file. ``units="g"`` converts samples to
    m/s^2. The record is named after the file's stem.
    """
    path = Path(path)
    if units not in ("m/s2", "g"):
        raise InputError(f"unknown acceleration units '{units}' (use m/s2 or g)")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read record file {path}: {exc}") from exc

    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), 1)
                if ln.strip() and not ln.lstrip().startswith(("#", "%"))]
    if not numbered:
        raise InputError(f"record file {path} holds no data")
    header = _DT_HEADER.match(numbered[0][1])
    if header:
        try:
            dt = float(header.group(1))
        except ValueError as exc:
            raise InputError(f"bad dt= header in {path}: {exc}") from exc
        numbered = numbered[1:]
    if len(numbered) < 2:
        raise InputError(f"record file {path} needs at least two samples")
    cols = 0 if header else (0, 1)  # columns after those read are ignored
    try:
        columns = np.loadtxt([ln for _, ln in numbered], usecols=cols, unpack=True, comments=None)
    except ValueError as exc:
        reason = exc
        for number, line in numbered:  # name the first data line that fails alone
            try:
                np.loadtxt([line], usecols=cols, comments=None)
            except ValueError as line_exc:
                reason = f"line {number}: {line_exc}"
                break
        raise InputError(f"bad sample in record file {path}: {reason}") from exc
    if header:
        accel = columns
    else:
        t, accel = columns
        # Times that are not finite, or that overflow in the differences,
        # fail the comparison below instead of warning.
        with np.errstate(over="ignore", invalid="ignore"):
            steps = np.diff(t)
            dt = float(steps[0])
            uniform = 0 < dt < np.inf and np.all(
                np.abs(steps - dt) <= 1e-6 * max(dt, 1e-12)
            )
        if not uniform:
            raise InputError(f"record file {path} is not uniformly sampled")

    if units == "g":
        accel = accel * STANDARD_GRAVITY
    try:
        return GroundMotion(name=path.stem, dt=dt, accel=accel)
    except ValueError as exc:
        raise InputError(f"record file {path}: {exc}") from exc
