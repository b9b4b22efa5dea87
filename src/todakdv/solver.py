"""Time integration of the lattice flow and an independent KdV reference.

Explicit RK4 and implicit Crank-Nicolson (trapezoidal) steppers for the
second-flow lattice equations.  The implicit step is a Newton iteration on
the exact Jacobian, a periodic block-tridiagonal CSC matrix with 10 N
nonzeros (pattern cached per N) factored by SuperLU, so one step costs O(N).
The explicit stability diagnostic ``linear_spectral_radius`` is the closed
form of the block-circulant stencil symbol, also O(N).  The reference KdV
oracle integrates the scaled equation df/dt = eps^2 (-1/4 f''' + 3 f f')
pseudo-spectrally and shares no code with the lattice right side.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse import csc_array
from scipy.sparse.linalg import splu

from .lattice import (
    ConservedReport,
    LatticeState,
    Profile,
    conserved_report,
    rhs_flow2_arrays,
)

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowUpError",
    "NewtonError",
    "IntegrationError",
    "step_rk4",
    "step_cn",
    "flow2_jacobian",
    "run",
    "linear_spectral_radius",
    "ReferenceSolution",
    "reference_kdv",
    "ComparisonReport",
    "compare_to_kdv",
]


class BlowUpError(RuntimeError):
    """The explicit integrator produced a non-finite state."""

    def __init__(self, msg: str, step: int | None = None, t: float | None = None):
        super().__init__(msg)
        self.step = step
        self.t = t


class NewtonError(RuntimeError):
    """Newton iteration failed to converge."""

    def __init__(self, msg: str, residual: float):
        super().__init__(msg)
        self.residual = residual


class IntegrationError(RuntimeError):
    """An adaptive ODE integration (KdV reference, Hill monodromy) failed."""


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    scheme: str = "cn"  # "rk4" | "cn"
    newton_tol: float = 1e-12
    newton_max_iter: int = 25
    output_every: int = 1

    def __post_init__(self):
        if self.dt <= 0 or not np.isfinite(self.dt * self.t_end):
            raise ValueError("need dt > 0 and finite dt * t_end")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if self.scheme not in ("rk4", "cn"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.output_every < 1:
            raise ValueError(f"output_every must be >= 1, got {self.output_every}")
        steps = self.t_end / self.dt
        if not 0 <= steps < np.inf or abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"t_end = {self.t_end:g} must be a non-negative whole number of "
                f"steps dt = {self.dt:g} (got {steps:.12g} steps)"
            )


@dataclass(frozen=True)
class Trajectory:
    samples: list[tuple[float, LatticeState, ConservedReport]]

    def times(self) -> np.ndarray:
        return np.array([t for t, _, _ in self.samples])

    def state_at(self, t: float) -> tuple[float, LatticeState]:
        """Snapshot nearest to t (its exact time is returned alongside)."""
        ts = self.times()
        i = int(np.argmin(np.abs(ts - t)))
        return self.samples[i][0], self.samples[i][1]


def _rhs_raw(N: int, x: np.ndarray) -> np.ndarray:
    """Stacked right side (da, db) of the stacked state x = (a, b)."""
    da, db = rhs_flow2_arrays(N, x[:N], x[N:])
    return np.concatenate([da, db])


def _unstack(N: int, x: np.ndarray) -> LatticeState:
    return LatticeState(N, x[:N].copy(), x[N:].copy())


def step_rk4(s: LatticeState, dt: float) -> LatticeState:
    """Classical four-stage step of the second-flow right side."""
    x0 = np.concatenate([s.a, s.b])
    N = s.N
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = _rhs_raw(N, x0)
        k2 = _rhs_raw(N, x0 + 0.5 * dt * k1)
        k3 = _rhs_raw(N, x0 + 0.5 * dt * k2)
        k4 = _rhs_raw(N, x0 + dt * k3)
        x1 = x0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(x1)):
        raise BlowUpError("explicit step produced a non-finite state")
    return _unstack(N, x1)


# Stencil offsets of the flow-2 Jacobian, one entry per (row block, column
# block, column shift): row k of block (r, c) depends on column k + shift of
# the c half.  flow2_jacobian fills the values in this order.
_STENCIL = (
    (0, 0, -1), (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
    (1, 0, -1), (1, 0, 0), (1, 1, -1), (1, 1, 0), (1, 1, 1),
)


@functools.lru_cache(maxsize=8)
def _pattern(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSC pattern of the periodic block-tridiagonal flow-2 Jacobian.

    Returns (order, indices, indptr, diag): stencil values stacked as a
    (10, N) array in _STENCIL order become the CSC data vector as
    ``values.ravel()[order]``, and ``diag`` holds the data slots of the
    main diagonal.  For N >= 3 the 10 N stencil entries are distinct.
    """
    k = np.arange(N)
    rows = np.concatenate([r * N + k for r, _, _ in _STENCIL]).astype(np.int32)
    cols = np.concatenate([c * N + (k + sh) % N for _, c, sh in _STENCIL]).astype(np.int32)
    order = np.lexsort((rows, cols))
    indices = rows[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=2 * N))]).astype(np.int32)
    diag = np.flatnonzero(indices == cols[order])
    for arr in (order, indices, indptr, diag):
        arr.flags.writeable = False
    return order, indices, indptr, diag


def flow2_jacobian(s: LatticeState) -> csc_array:
    """Exact Jacobian of rhs_flow2 with respect to (a, b), as a sparse CSC array.

    The Jacobian is periodic block-tridiagonal with 10 N nonzeros; only
    the values are computed here, the pattern is cached per N.
    """
    N = s.N
    eps2 = 1.0 / N**2
    a, b = s.a, s.b
    am, ap = np.roll(a, 1), np.roll(a, -1)
    bm, bp = np.roll(b, 1), np.roll(b, -1)
    values = float(N) * np.stack([
        # d(da_k) / d(a_{k-1}, a_k, a_{k+1}, b_k, b_{k+1})
        1.0 - eps2 * b,
        eps2 * (bp - b),
        -1.0 + eps2 * bp,
        -2.0 - eps2 * (a + am),
        2.0 + eps2 * (a + ap),
        # d(db_k) / d(a_{k-1}, a_k, b_{k-1}, b_k, b_{k+1})
        -2.0 + eps2 * (2 * b - 2 * am + 2 * eps2 * b * am),
        2.0 + eps2 * (-2 * b + 2 * a - 2 * eps2 * b * a),
        1.0 - eps2 * b,
        eps2 * (-2 * a + 2 * am + bp - bm + eps2 * (am**2 - a**2)),
        -1.0 + eps2 * b,
    ])
    order, indices, indptr, _ = _pattern(N)
    return csc_array((values.ravel()[order], indices, indptr), shape=(2 * N, 2 * N))


# The CN linear solve goes through these two module-level names so that the
# benchmark tracer (perfbench/tracer.py) can time factorization and solve.
lu_factor = splu


def lu_solve(lu, rhs: np.ndarray) -> np.ndarray:
    return lu.solve(rhs)


def step_cn(
    s: LatticeState,
    dt: float,
    cfg: SolverConfig | None = None,
    residual_log: list | None = None,
) -> LatticeState:
    """Trapezoidal (Crank-Nicolson) step solved by Newton iteration.

    Solves x' = x + dt/2 (rhs(x) + rhs(x')) with the exact sparse Jacobian;
    each Newton iteration factors I - dt/2 J (10 N nonzeros) by SuperLU, so
    a step costs O(N).  If ``residual_log`` is a list, the max-norm Newton
    residuals are appended to it.
    """
    cfg = cfg or SolverConfig(dt=dt, t_end=dt)
    N = s.N
    diag = _pattern(N)[3]
    x0 = np.concatenate([s.a, s.b])
    base = x0 + 0.5 * dt * _rhs_raw(N, x0)
    x = x0.copy()
    res_norm = np.inf
    for _ in range(cfg.newton_max_iter):
        state = _unstack(N, x)
        resid = x - base - 0.5 * dt * _rhs_raw(N, x)
        res_norm = float(np.max(np.abs(resid)))
        if residual_log is not None:
            residual_log.append(res_norm)
        if res_norm <= cfg.newton_tol:
            return state
        J = flow2_jacobian(state)
        J.data *= -0.5 * dt
        J.data[diag] += 1.0
        x = x - lu_solve(lu_factor(J), resid)
    raise NewtonError(
        f"Newton did not reach tol {cfg.newton_tol:g} in {cfg.newton_max_iter} iterations",
        residual=res_norm,
    )


def linear_spectral_radius(N: int) -> float:
    """Spectral radius of the linearized stencil (stability diagnostic).

    The linear stencil is block-circulant; on the Fourier mode theta_k =
    2 pi k / N its 2x2 symbol has eigenvalues -i N (2 sin theta_k -+
    4 sin(theta_k / 2)), so the radius is a maximum over N angles.
    """
    theta = 2.0 * np.pi * np.arange(N) / N
    sym = 2.0 * np.sin(theta)
    half = 4.0 * np.sin(0.5 * theta)
    return float(N * max(np.max(np.abs(sym + half)), np.max(np.abs(sym - half))))


def _report(s: LatticeState, t: float) -> ConservedReport:
    # a finite state can still have invariants beyond the float64 range
    try:
        return conserved_report(s, t)
    except OverflowError as err:
        raise BlowUpError(f"conserved quantities at t = {t:g} overflow float64", t=t) from err


def run(s0: LatticeState, cfg: SolverConfig) -> Trajectory:
    """Integrate and record (t, state, conserved report) snapshots."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    samples = [(0.0, s0, _report(s0, 0.0))]
    s = s0
    for step in range(1, n_steps + 1):
        t = step * cfg.dt
        try:
            if cfg.scheme == "rk4":
                s = step_rk4(s, cfg.dt)
            else:
                s = step_cn(s, cfg.dt, cfg)
        except BlowUpError as err:
            raise BlowUpError(
                f"blow-up at step {step} (t = {t:g}): {err}", step=step, t=t
            ) from err
        except NewtonError as err:
            raise NewtonError(
                f"Newton failure at step {step} (t = {t:g}): {err}", residual=err.residual
            ) from err
        if step % cfg.output_every == 0 or step == n_steps:
            samples.append((t, s, _report(s, t)))
    return Trajectory(samples)


# ---------------------------------------------------------------------------
# independent KdV reference (pseudo-spectral, adaptive high-order explicit)


@dataclass(frozen=True)
class ReferenceSolution:
    grid: np.ndarray
    values: np.ndarray
    t: float
    eps: float

    def on_lattice(self, N: int) -> np.ndarray:
        M = len(self.grid)
        if M % N != 0:
            raise ValueError(f"reference grid {M} does not refine lattice {N}")
        return self.values[:: M // N]


def reference_kdv(
    f0: Profile,
    eps: float,
    t: float,
    modes: int = 256,
    rtol: float = 1e-11,
    atol: float = 1e-13,
) -> ReferenceSolution:
    """Solve df/dt = eps^2 (-1/4 f''' + 3 f f') on [0, 1], spectrally in x.

    Derivatives are exact in Fourier space; time stepping is adaptive
    eighth-order explicit (DOP853) at tight tolerance.  Deliberately shares
    no code with the lattice stencils.
    """
    M = modes
    x = np.arange(M) / M
    u0 = f0.samples(M)
    kfreq = 2.0 * np.pi * np.fft.rfftfreq(M, d=1.0 / M)
    ik = 1j * kfreq
    eps2 = eps * eps

    def rhs(_t, u):
        uhat = np.fft.rfft(u)
        ux = np.fft.irfft(ik * uhat, n=M)
        uxxx = np.fft.irfft(ik**3 * uhat, n=M)
        return eps2 * (-0.25 * uxxx + 3.0 * u * ux)

    if t == 0.0:
        return ReferenceSolution(x, u0, 0.0, eps)
    sol = solve_ivp(rhs, (0.0, t), u0, method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegrationError(f"reference KdV integration failed: {sol.message}")
    return ReferenceSolution(x, sol.y[:, -1], t, eps)


@dataclass(frozen=True)
class ComparisonReport:
    t: float
    max_err: float
    l2_err: float
    x: np.ndarray
    lattice: np.ndarray
    reference: np.ndarray


def compare_to_kdv(traj: Trajectory, f0: Profile, t: float, modes: int = 256) -> ComparisonReport:
    """Max-norm and L2 error of (a+b)/2 against the reference at time t.

    Uses the recorded snapshot nearest to t and evaluates the reference at
    that snapshot's exact time, on the least multiple of N that is at least
    max(modes, 2 N) modes, so that the reference grid refines the lattice.
    """
    t_used, state = traj.state_at(t)
    N = state.N
    ref = reference_kdv(f0, 1.0 / N, t_used, modes=N * max(2, -(-modes // N)))
    ref_vals = ref.on_lattice(N)
    lattice_vals = state.average()
    err = lattice_vals - ref_vals
    return ComparisonReport(
        t=t_used,
        max_err=float(np.max(np.abs(err))),
        l2_err=float(np.sqrt(np.mean(err**2))),
        x=np.arange(N) / N,
        lattice=lattice_vals,
        reference=ref_vals,
    )
