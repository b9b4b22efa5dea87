"""Floquet/Bloch spectrum machinery for the discrete and continuous operators.

The discrete operator acts on periodic sequences,

    L_{(A,B)} psi(n) = (-psi(n+1) + A(n) psi(n) + B(n) psi(n-1)) N^2,

so the eigenvalue relation propagates by the transfer matrix
[[A(n) - lambda eps^2, B(n)], [1, 0]]; the product over one period is the
monodromy and its trace the Floquet discriminant.  The continuous side is
Hill's operator -psi'' + g psi integrated over one period by an adaptive
high-order scheme.  Real spectral bands are where |trace| <= 2.

A scan keeps its result in columns: ``discriminant_scan`` returns one
``DiscriminantTable`` of five float arrays (lambda, the two traces, the two
determinants), built from the vectorized monodromies without a per-sample
object.  All lambdas of a Hill scan are stacked into one ODE system, and the
integrator keeps only its state at x = 1, the period map, not the trajectory.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .lattice import Profile, init_from_profile
from .solver import IntegrationError

__all__ = [
    "Monodromy2x2",
    "DiscriminantSample",
    "DiscriminantTable",
    "monodromy_discrete",
    "discrete_traces",
    "monodromy_continuous",
    "continuous_traces",
    "lattice_from_potential",
    "discriminant_scan",
    "BandDistanceResult",
    "band_distance",
]


@dataclass(frozen=True)
class Monodromy2x2:
    m11: float
    m12: float
    m21: float
    m22: float

    def trace(self) -> float:
        return self.m11 + self.m22

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21


@dataclass(frozen=True)
class DiscriminantSample:
    """One row of a scan; ``band_distance`` still accepts a sequence of these."""

    lam: float
    trace_discrete: float
    trace_continuous: float
    det_discrete: float
    det_continuous: float


@dataclass(frozen=True, eq=False)
class DiscriminantTable:
    """Discrete vs continuous discriminants over a lambda grid, one array per column."""

    lam: np.ndarray
    trace_discrete: np.ndarray
    trace_continuous: np.ndarray
    det_discrete: np.ndarray
    det_continuous: np.ndarray

    def __post_init__(self):
        if len({len(self.lam), len(self.trace_discrete), len(self.trace_continuous),
                len(self.det_discrete), len(self.det_continuous)}) != 1:
            raise ValueError("DiscriminantTable columns must have equal lengths")

    def __len__(self) -> int:
        return len(self.lam)

    @classmethod
    def from_samples(cls, samples: Sequence[DiscriminantSample]) -> DiscriminantTable:
        rows = np.array(
            [(s.lam, s.trace_discrete, s.trace_continuous, s.det_discrete, s.det_continuous)
             for s in samples],
            float,
        ).reshape(-1, 5)
        return cls(*rows.T)


def _discrete_entries(A, B, lams: np.ndarray) -> tuple[np.ndarray, ...]:
    """Entries (m11, m12, m21, m22) of the transfer-matrix product, per lambda."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    N = len(A)
    eps2 = 1.0 / N**2
    ones = np.ones_like(lams)
    m11, m12, m21, m22 = ones.copy(), 0.0 * ones, 0.0 * ones, ones.copy()
    for n in range(N):
        t11 = A[n] - lams * eps2
        t12 = B[n]
        m11, m12, m21, m22 = (
            t11 * m11 + t12 * m21,
            t11 * m12 + t12 * m22,
            m11,
            m12,
        )
    return m11, m12, m21, m22


def monodromy_discrete(A: np.ndarray, B: np.ndarray, lam: float) -> Monodromy2x2:
    """Transfer-matrix product over one period; det = prod(-B(n)) exactly."""
    return Monodromy2x2(*(float(m[0]) for m in _discrete_entries(A, B, np.array([lam], float))))


def discrete_traces(A: np.ndarray, B: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized monodromy traces and determinants over a lambda grid."""
    m11, m12, m21, m22 = _discrete_entries(A, B, np.asarray(lams, float))
    return m11 + m22, m11 * m22 - m12 * m21


def _continuous_entries(g: Profile, lams: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Entries (m11, m12, m21, m22) of the Hill period map on [0, 1], per lambda.

    All eigenvalue problems are stacked into one ODE system so the adaptive
    integrator is called a single time.
    """
    L = len(lams)

    def rhs(x, y):
        Y = y.reshape(4, L)
        pot = g(np.array([x]))[0] - lams
        out = np.empty_like(Y)
        out[0] = Y[1]
        out[1] = pot * Y[0]
        out[2] = Y[3]
        out[3] = pot * Y[2]
        return out.ravel()

    y0 = np.zeros(4 * L)
    y0[:L] = 1.0  # psi1 = 1, psi1' = 0
    y0[3 * L :] = 1.0  # psi2 = 0, psi2' = 1
    # t_eval=(1,) keeps only the period map; without it every step's state is stored
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", t_eval=(1.0,), rtol=tol, atol=tol * 1e-2)
    if not sol.success:
        raise IntegrationError(f"monodromy integration failed: {sol.message}")
    psi1, dpsi1, psi2, dpsi2 = sol.y[:, 0].reshape(4, L)
    return psi1, psi2, dpsi1, dpsi2


def monodromy_continuous(g: Profile, lam: float, tol: float = 1e-10) -> Monodromy2x2:
    """Period map of -psi'' + g psi = lambda psi on [0, 1]."""
    return Monodromy2x2(*(float(m[0]) for m in _continuous_entries(g, np.array([lam], float), tol)))


def continuous_traces(g: Profile, lams: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Traces/determinants of the Hill period map for all lambdas at once."""
    m11, m12, m21, m22 = _continuous_entries(g, np.asarray(lams, float), tol)
    return m11 + m22, m11 * m22 - m12 * m21


def lattice_from_potential(g: Profile, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Ansatz data (A, B) for a Hill potential g, using f = g/2.

    The correction series is applied through its stencil form, matching the
    consistent lattice initialization.
    """
    f_samples = 0.5 * g.samples(N)
    state = init_from_profile(f_samples, N, variant="consistent_R")
    return state.to_AB()


def discriminant_scan(g: Profile, N: int, lams: np.ndarray, tol: float = 1e-10) -> DiscriminantTable:
    """Tabulate discrete vs continuous discriminants over a lambda grid."""
    lams = np.asarray(lams, float)
    if len(lams) == 0:
        return DiscriminantTable(lams, lams, lams, lams, lams)
    A, B = lattice_from_potential(g, N)
    # a grid far beyond the potential overflows the transfer products, and the
    # Hill integration then fails with an IntegrationError: no float warnings
    with np.errstate(over="ignore", invalid="ignore"):
        tr_d, det_d = discrete_traces(A, B, lams)
        tr_c, det_c = continuous_traces(g, lams, tol=tol)
    return DiscriminantTable(lams, tr_d, tr_c, det_d, det_c)


@dataclass(frozen=True)
class BandDistanceResult:
    distance: float
    grid_warning: bool  # a detected band narrower than 3 grid points


def _directed_hausdorff(xs: np.ndarray, ys: np.ndarray) -> float:
    # sup over xs of distance to ys; both sorted 1-d arrays
    idx = np.searchsorted(ys, xs)
    left = ys[np.clip(idx - 1, 0, len(ys) - 1)]
    right = ys[np.clip(idx, 0, len(ys) - 1)]
    return float(np.max(np.minimum(np.abs(xs - left), np.abs(xs - right))))


def _narrow_band(mask: np.ndarray) -> bool:
    """Whether some run of True in the mask is shorter than 3."""
    # +1 where a run starts, -1 one past where it ends
    steps = np.diff(np.asarray(mask, np.int8), prepend=0, append=0)
    lengths = np.flatnonzero(steps == -1) - np.flatnonzero(steps == 1)
    return bool(np.any(lengths < 3))


def band_distance(
    table: DiscriminantTable | Sequence[DiscriminantSample], K: float
) -> BandDistanceResult:
    """Hausdorff distance between discrete and continuous band sets on [-K, K].

    Bands are the grid points with |trace| <= 2.  A band resolved by fewer
    than 3 grid points sets the warning flag; so does an empty side.
    """
    if not isinstance(table, DiscriminantTable):
        # The benchmark's spectrum check still passes DiscriminantSamples; the
        # sample class and this conversion go once it reads the table instead.
        table = DiscriminantTable.from_samples(table)
    sel = np.abs(table.lam) <= K
    lams = table.lam[sel]
    tr_d = table.trace_discrete[sel]
    tr_c = table.trace_continuous[sel]
    mask_d = np.abs(tr_d) <= 2.0
    mask_c = np.abs(tr_c) <= 2.0
    warning = _narrow_band(mask_d) or _narrow_band(mask_c)
    set_d = lams[mask_d]
    set_c = lams[mask_c]
    if len(set_d) == 0 and len(set_c) == 0:
        return BandDistanceResult(0.0, True)
    if len(set_d) == 0 or len(set_c) == 0:
        return BandDistanceResult(float("inf"), True)
    dist = max(_directed_hausdorff(set_d, set_c), _directed_hausdorff(set_c, set_d))
    return BandDistanceResult(dist, warning)
