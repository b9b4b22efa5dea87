"""Time integration of the lattice flow and an independent KdV reference.

Explicit RK4 and implicit Crank-Nicolson (trapezoidal) steppers for the
second-flow lattice equations.  The steppers work on one layout, the stacked
(2N,) state x = (a, b): ``run`` stacks its LatticeState once, steps x, and
builds a LatticeState only for each snapshot it records.  The implicit step
is a Newton iteration on the exact Jacobian, 10 N stencil values of a
periodic block-tridiagonal matrix; with the sites folded as 0, N-1, 1, N-2,
... I - dt/2 J is a plain LAPACK band without corners, so one step costs
O(N).  Each Newton iteration costs one right side, one Jacobian, one banded
factor and one solve; a step takes the right side of its state and returns
that of its result, which ``run`` hands to the next step.  The explicit
stability diagnostic ``linear_spectral_radius`` is the closed form of the
block-circulant stencil symbol, also O(N).  The reference KdV oracle solves
the scaled df/dt = eps^2 (-1/4 f''' + 3 f f') pseudo-spectrally by
integrating-factor RK4 with global step doubling, in numpy alone, and shares
no code with the lattice right side.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass

import numpy as np

from .lattice import (
    ConservedReport,
    LatticeState,
    Profile,
    conserved_report,
    periodic_neighbours,
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
    "Flow2Jacobian",
    "run",
    "linear_spectral_radius",
    "ReferenceSolution",
    "reference_kdv",
    "ComparisonReport",
    "compare_to_kdv",
]


# scipy is imported on the first call, not with the package: the symbolic
# commands never need it, and importing it costs most of their start-up.
# The stand-ins are module-level functions (kept out of __all__) because the
# benchmark tracer and the tests rebind these names in solver and bloch;
# after the first call each costs one cached lookup.
_scipy = functools.cache(importlib.import_module)


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first call.

    No package code calls it: it stays bound, here and in bloch, only because
    the benchmark tracer (perfbench/tracer.py) wraps ``bloch.solve_ivp``.
    """
    return _scipy("scipy.integrate").solve_ivp(*args, **kwargs)


def dgbtrf(*args, **kwargs):
    """scipy.linalg.lapack.dgbtrf, imported on first call."""
    return _scipy("scipy.linalg.lapack").dgbtrf(*args, **kwargs)


def dgbtrs(*args, **kwargs):
    """scipy.linalg.lapack.dgbtrs, imported on first call."""
    return _scipy("scipy.linalg.lapack").dgbtrs(*args, **kwargs)


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
    """A numerical integration failed: the KdV reference (a non-finite initial
    state, or no Richardson convergence within its step cap) or a Hill
    monodromy (a non-finite or non-converging Taylor series, or too many
    segments)."""


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


def step_rk4(N: int, x: np.ndarray, dt: float) -> np.ndarray:
    """Classical four-stage step of the second-flow right side on x = (a, b)."""
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rhs_flow2_arrays(N, x)
        k2 = rhs_flow2_arrays(N, x + 0.5 * dt * k1)
        k3 = rhs_flow2_arrays(N, x + 0.5 * dt * k2)
        k4 = rhs_flow2_arrays(N, x + dt * k3)
        x1 = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(x1)):
        raise BlowUpError("explicit step produced a non-finite state")
    return x1


# Stencil offsets of the flow-2 Jacobian, one entry per (row block, column
# block, column shift): row k of block (r, c) depends on column k + shift of
# the c half.  flow2_jacobian fills the values in this order, and both the
# dense and the band layout below are derived from it.
_STENCIL = (
    (0, 0, -1), (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1),
    (1, 0, -1), (1, 0, 0), (1, 1, -1), (1, 1, 0), (1, 1, 1),
)


@dataclass(frozen=True)
class Flow2Jacobian:
    """Exact Jacobian of rhs_flow2 as its stencil values.

    ``values[e, k]`` is the entry of row k of block r in column k + shift of
    block c, for (r, c, shift) = _STENCIL[e] and indices mod N.
    """

    values: np.ndarray  # (10, N)

    def toarray(self) -> np.ndarray:
        """The dense 2N x 2N matrix in stacked (a, b) order."""
        N = self.values.shape[1]
        k = np.arange(N)
        dense = np.zeros((2 * N, 2 * N))
        for v, (r, c, sh) in zip(self.values, _STENCIL):
            dense[r * N + k, c * N + (k + sh) % N] = v
        return dense


def flow2_jacobian(N: int, x: np.ndarray) -> Flow2Jacobian:
    """Exact Jacobian of rhs_flow2 at x = (a, b), 10 N stencil values."""
    eps2 = 1.0 / N**2
    a, b = x[:N], x[N:]
    am, ap = periodic_neighbours(a)
    bm, bp = periodic_neighbours(b)
    J = np.empty((10, N))
    # d(da_k) / d(a_{k-1}, a_k, a_{k+1}, b_k, b_{k+1})
    J[0] = J[7] = 1.0 - eps2 * b  # J[7] = d(db_k) / d(b_{k-1})
    J[1] = eps2 * (bp - b)
    J[2] = -1.0 + eps2 * bp
    J[3] = -2.0 - eps2 * (a + am)
    J[4] = 2.0 + eps2 * (a + ap)
    # d(db_k) / d(a_{k-1}, a_k, b_{k-1}, b_k, b_{k+1})
    J[5] = -2.0 + eps2 * (2 * b - 2 * am + 2 * eps2 * b * am)
    J[6] = 2.0 + eps2 * (-2 * b + 2 * a - 2 * eps2 * b * a)
    J[8] = eps2 * (-2 * a + 2 * am + bp - bm + eps2 * (am**2 - a**2))
    J[9] = -1.0 + eps2 * b
    J *= float(N)
    return Flow2Jacobian(J)


# Band layout.  Stencil entry (r, c, shift) couples unknown (r, k) to
# (c, k + shift mod N).  In the folded site order 0, N-1, 1, N-2, ... periodic
# neighbours are at most 2 positions apart (odd N too), so with a and b
# interleaved I - dt/2 J is a plain band, kl = ku = 5, in LAPACK band storage
# whose top _KL rows are left free for the fill-in of pivoting.
_KL = _KU = 5
_LDAB = 2 * _KL + _KU + 1


@functools.cache
def _band_layout(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, fold): ``values[e, k]`` goes to flat position ``index[e, k]``
    of the (2N, _LDAB) transposed band, and unknown q of the folded
    interleaved order is unknown ``fold[q]`` of the stacked (a, b) order."""
    p = np.arange(N)
    sites = np.where(p % 2, N - 1 - p // 2, p // 2)  # 0, N-1, 1, N-2, ...
    pos = np.argsort(sites)
    r, c, sh = np.array(_STENCIL).T[:, :, None]
    row, col = 2 * pos + r, 2 * pos[(p + sh) % N] + c
    index = col * _LDAB + _KL + _KU + row - col
    fold = (sites[:, None] + N * np.arange(2)).ravel()
    index.flags.writeable = fold.flags.writeable = False
    return index, fold


# The CN linear solve goes through these two module-level names so that the
# benchmark tracer (perfbench/tracer.py) can time factorization and solve.
def lu_factor(J: Flow2Jacobian, dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Banded LU of I - dt/2 J in _band_layout order; LinAlgError if singular."""
    N = J.values.shape[1]
    index, fold = _band_layout(N)
    band = np.zeros((2 * N, _LDAB))  # the band transposed: [column, band row]
    band.reshape(-1)[index] = (-0.5 * dt) * J.values
    band[:, _KL + _KU] += 1.0
    lub, piv, info = dgbtrf(band.T, _KL, _KU, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"band factor is singular at pivot {info}")
    return lub, piv, fold


def lu_solve(lu: tuple[np.ndarray, np.ndarray, np.ndarray], rhs: np.ndarray) -> np.ndarray:
    """Solve (I - dt/2 J) x = rhs with the lu_factor result; stacked (a, b) order."""
    lub, piv, fold = lu
    x = np.empty_like(rhs)
    x[fold] = dgbtrs(lub, _KL, _KU, rhs[fold], piv, overwrite_b=1)[0]
    return x


def step_cn(
    N: int,
    x: np.ndarray,
    f: np.ndarray,
    dt: float,
    cfg: SolverConfig | None = None,
    residual_log: list | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoidal (Crank-Nicolson) step solved by Newton iteration.

    Solves x' = x + dt/2 (f + rhs(x')) for the stacked state x = (a, b) and
    its right side f = rhs_flow2_arrays(N, x), with the exact Jacobian; each
    Newton iteration evaluates the right side once and factors I - dt/2 J by
    a LAPACK banded LU (kl = ku = 5 in the folded order of _band_layout), so
    a step costs O(N).  Returns (x', rhs(x')), the right side that the
    converged residual used, for the next step to take as its f.  If
    ``residual_log`` is a list, the max-norm Newton residuals are appended.
    """
    cfg = cfg or SolverConfig(dt=dt, t_end=dt)
    base = x + 0.5 * dt * f
    res_norm = np.inf
    for it in range(cfg.newton_max_iter):
        if it:
            f = rhs_flow2_arrays(N, x)
        resid = x - base - 0.5 * dt * f
        res_norm = float(np.max(np.abs(resid)))
        if residual_log is not None:
            residual_log.append(res_norm)
        if res_norm <= cfg.newton_tol:
            return x, f
        try:
            lu = lu_factor(flow2_jacobian(N, x), dt)
        except np.linalg.LinAlgError as err:
            raise NewtonError(f"Newton matrix I - dt/2 J is singular: {err}", residual=res_norm) from err
        x = x - lu_solve(lu, resid)
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
    N = s0.N
    x = np.concatenate((s0.a, s0.b))
    f = rhs_flow2_arrays(N, x) if cfg.scheme == "cn" else None
    for step in range(1, n_steps + 1):
        t = step * cfg.dt
        try:
            if cfg.scheme == "rk4":
                x = step_rk4(N, x, cfg.dt)
            else:
                x, f = step_cn(N, x, f, cfg.dt, cfg)
        except BlowUpError as err:
            raise BlowUpError(
                f"blow-up at step {step} (t = {t:g}): {err}", step=step, t=t
            ) from err
        except NewtonError as err:
            raise NewtonError(
                f"Newton failure at step {step} (t = {t:g}): {err}", residual=err.residual
            ) from err
        if step % cfg.output_every == 0 or step == n_steps:
            s = LatticeState(N, x[:N], x[N:])
            samples.append((t, s, _report(s, t)))
    return Trajectory(samples)


# ---------------------------------------------------------------------------
# independent KdV reference (pseudo-spectral, integrating-factor RK4)


@dataclass(frozen=True)
class ReferenceSolution:
    """The reference on its grid, with the step count of its finer run and
    the Richardson estimate max|u_2n - u_n|/15 of that run's error."""

    grid: np.ndarray
    values: np.ndarray
    t: float
    eps: float
    steps: int
    error_estimate: float

    def on_lattice(self, N: int) -> np.ndarray:
        M = len(self.grid)
        if M % N != 0:
            raise ValueError(f"reference grid {M} does not refine lattice {N}")
        return self.values[:: M // N]


# The finer run of a Richardson pair takes at most this many steps, so the
# doubling, and the cost of a reference, is bounded for every input.
_MAX_STEPS = 2**18


def _if_rk4(v: np.ndarray, M: int, omega: np.ndarray, d: np.ndarray, h: float, n: int) -> np.ndarray:
    """n Lawson integrating-factor RK4 steps of size h on the rfft coefficients
    v of M samples, for v' = i omega v + rfft(f g) with (f, g) = irfft(d v):
    the rows of d are 1 and the symbol of the nonlinear term's derivative."""
    half = np.exp(0.5j * h * omega)

    def nonlinear(w):
        f, g = np.fft.irfft(d * w, n=M)
        return np.fft.rfft(f * g)

    for _ in range(n):
        hv = half * v
        k1 = nonlinear(v)
        k2 = nonlinear(hv + (0.5 * h) * (half * k1))
        k3 = nonlinear(hv + (0.5 * h) * k2)
        k4 = nonlinear(half * (hv + h * k3))
        v = half * (half * (v + (h / 6.0) * k1) + (h / 3.0) * (k2 + k3)) + (h / 6.0) * k4
    return v


def reference_kdv(
    f0: Profile,
    eps: float,
    t: float,
    modes: int = 256,
    rtol: float = 1e-11,
    atol: float = 1e-13,
) -> ReferenceSolution:
    """Solve df/dt = eps^2 (-1/4 f''' + 3 f f') on [0, 1], spectrally in x.

    Derivatives are exact in Fourier space.  Lawson's integrating-factor RK4
    takes the stiff dispersive term exactly, as the phase exp(i omega h) of
    each step, and steps only 3 eps^2 f f'.  Runs of n and 2n equal steps are
    compared, n doubling from the explicit stability limit of the nonlinear
    term, until the Richardson estimate max|u_2n - u_n|/15 is at most
    atol + rtol max|u_2n|; the result is u_2n + (u_2n - u_n)/15, and rtol,
    atol are global tolerances.  A run that ends non-finite counts as not
    converged.  A non-finite initial state, or a pair whose finer run would
    take more than _MAX_STEPS = 2**18 steps, raises IntegrationError.
    Deliberately shares no code with the lattice stencils.
    """
    M = modes
    x = np.arange(M) / M
    u0 = f0.samples(M)
    if t == 0.0:
        return ReferenceSolution(x, u0, 0.0, eps, 0, 0.0)
    if not np.all(np.isfinite(u0)):
        raise IntegrationError("reference KdV integration failed: non-finite initial state")
    kfreq = 2.0 * np.pi * np.fft.rfftfreq(M, d=1.0 / M)
    eps2 = eps * eps
    omega = 0.25 * eps2 * kfreq**3  # the linear flow takes f^ to exp(i omega t) f^
    if M % 2 == 0:
        omega[-1] = 0.0  # irfft drops the derivatives of the Nyquist mode
    d = np.stack((np.ones(len(kfreq)), 3.0j * eps2 * kfreq))  # f and 3 eps^2 f'
    # RK4 is stable on the imaginary axis up to 2.8, and 3 eps^2 f d/dx reaches
    # 3 eps^2 max|f| k_max: the first run takes the least power of two of steps
    # whose h times that is at most 2
    stable = abs(t) * 3.0 * eps2 * float(np.max(np.abs(u0))) * kfreq[-1] / 2.0
    n = 1
    while n < stable and n < _MAX_STEPS:
        n *= 2
    if 2 * n > _MAX_STEPS:
        raise IntegrationError(
            f"reference KdV integration failed: a stable step size needs more than {_MAX_STEPS} steps"
        )
    v0 = np.fft.rfft(u0)
    with np.errstate(over="ignore", invalid="ignore"):  # an unstable run ends non-finite
        u_n = np.fft.irfft(_if_rk4(v0, M, omega, d, t / n, n), n=M)
        while 2 * n <= _MAX_STEPS:
            u_2n = np.fft.irfft(_if_rk4(v0, M, omega, d, t / (2 * n), 2 * n), n=M)
            est = float(np.max(np.abs(u_2n - u_n))) / 15.0
            if est <= atol + rtol * float(np.max(np.abs(u_2n))):
                return ReferenceSolution(x, u_2n + (u_2n - u_n) / 15.0, t, eps, 2 * n, est)
            u_n, n = u_2n, 2 * n
    raise IntegrationError(
        f"reference KdV integration failed: Richardson estimate {est:.3g} above "
        f"rtol = {rtol:g}, atol = {atol:g} within {_MAX_STEPS} steps"
    )


@dataclass(frozen=True)
class ComparisonReport:
    t: float
    max_err: float
    l2_err: float
    x: np.ndarray
    lattice: np.ndarray
    reference: np.ndarray
    reference_steps: int
    reference_estimate: float


def compare_to_kdv(traj: Trajectory, f0: Profile, t: float, modes: int = 256) -> ComparisonReport:
    """Max-norm and L2 error of (a+b)/2 against the reference at time t.

    Uses the recorded snapshot nearest to t and evaluates the reference at
    that snapshot's exact time, on the least multiple of N that is at least
    max(modes, 2 N) modes, so that the reference grid refines the lattice.
    The report carries the reference's step count and Richardson estimate.
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
        reference_steps=ref.steps,
        reference_estimate=ref.error_estimate,
    )
