"""Floquet/Bloch spectrum machinery for the discrete and continuous operators.

The discrete operator acts on periodic sequences,

    L_{(A,B)} psi(n) = (-psi(n+1) + A(n) psi(n) + B(n) psi(n-1)) N^2,

so the eigenvalue relation propagates by the transfer matrix
[[A(n) - lambda eps^2, B(n)], [1, 0]]; the product over one period is the
monodromy and its trace the Floquet discriminant.  The transfer products for
all lambdas run as one in-place three-term recurrence on two row buffers.

The continuous side is Hill's operator -psi'' + g psi.  Its period map is the
ordered product of the maps of S = ceil(sqrt(max|lambda| + max|g|)) short
segments of [0, 1].  Each entry of a segment map is an entire function of
lambda, so it is integrated (DOP853, one stacked ODE system for all segments)
at 17 Chebyshev nodes only, and its degree-16 Chebyshev interpolant is
evaluated on the grid.  A grid with no more than 17 S points, or one that
spans no interval, is integrated over [0, 1] at its own lambdas.  Either way
the integrator keeps only its final state, not the trajectory.  Real spectral
bands are where |trace| <= 2.

A scan keeps its result in columns: ``discriminant_scan`` returns one
``DiscriminantTable`` of five float arrays (lambda, the two traces, the two
determinants), built from the vectorized monodromies without a per-sample
object.  The discrete determinant is the lambda-independent prod(-B(n)), held
as a stride-0 broadcast of that one value, so the CSV writer formats it once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .lattice import Profile, init_from_profile
from .solver import IntegrationError, solve_ivp

__all__ = [
    "DiscriminantSample",
    "DiscriminantTable",
    "discrete_traces",
    "continuous_traces",
    "lattice_from_potential",
    "discriminant_scan",
    "BandDistanceResult",
    "band_distance",
]


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
    """Entries (m11, m12, m21, m22) of the transfer-matrix product, per lambda.

    The top row obeys the three-term recurrence X_{n+1} = (A(n) - lambda eps^2)
    X_n + B(n) X_{n-1}, and the bottom row is the previous top row, so one
    buffer holds (m11, m12) and a second (m21, m22); the new top row
    overwrites the old bottom row in place.
    """
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    N = len(A)
    lam_eps2 = lams * (1.0 / N**2)
    top = np.zeros((2, len(lams)))
    top[0] = 1.0
    bottom = np.zeros((2, len(lams)))
    bottom[1] = 1.0
    t11 = np.empty_like(lam_eps2)
    scratch = np.empty_like(top)
    for n in range(N):
        np.subtract(A[n], lam_eps2, out=t11)
        np.multiply(top, t11, out=scratch)
        bottom *= B[n]
        bottom += scratch
        top, bottom = bottom, top
    return top[0], top[1], bottom[0], bottom[1]


def discrete_traces(A: np.ndarray, B: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized monodromy traces and determinants over a lambda grid.

    Each transfer matrix has determinant -B(n), so the monodromy determinant
    is prod(-B(n)) at every lambda; it is returned in that closed form,
    because m11 m22 - m12 m21 cancels where the entries are large, as a
    read-only stride-0 broadcast of that one value.
    """
    m11, _, _, m22 = _discrete_entries(A, B, np.asarray(lams, float))
    return m11 + m22, np.broadcast_to(np.prod(-np.asarray(B, float)), m11.shape)


# Chebyshev nodes (first kind) in lambda per segment map, and the matrix taking
# values at them to the coefficients of the degree-16 interpolant
_NODES = 17
_NODE_T = np.cos(np.pi * (np.arange(_NODES) + 0.5) / _NODES)
_CHEB_FIT = np.polynomial.chebyshev.chebvander(_NODE_T, _NODES - 1).T * (2.0 / _NODES)
_CHEB_FIT[0] *= 0.5


def _segment_maps(g: Profile, lams: np.ndarray, S: int, tol: float) -> np.ndarray:
    """Maps of the S segments [k/S, (k+1)/S] of Hill's equation, per lambda.

    Returns an array (S, 4, len(lams)) of entries (m11, m12, m21, m22).  All
    segments and lambdas are stacked into one ODE system in the offset
    s in [0, 1/S], so the adaptive integrator is called a single time.
    """
    L = len(lams)
    starts = np.arange(S) / S

    def rhs(s, y):
        Y = y.reshape(4, S, L)
        pot = g(starts + s)[:, None] - lams
        out = np.empty_like(Y)
        out[0] = Y[1]
        out[1] = pot * Y[0]
        out[2] = Y[3]
        out[3] = pot * Y[2]
        return out.ravel()

    y0 = np.zeros((4, S, L))
    y0[0] = 1.0  # psi1 = 1, psi1' = 0
    y0[3] = 1.0  # psi2 = 0, psi2' = 1
    h = 1.0 / S
    # t_eval=(h,) keeps only the segment maps; without it every step's state is stored
    sol = solve_ivp(rhs, (0.0, h), y0.ravel(), method="DOP853", t_eval=(h,), rtol=tol, atol=tol * 1e-2)
    if not sol.success:
        raise IntegrationError(f"monodromy integration failed: {sol.message}")
    psi1, dpsi1, psi2, dpsi2 = sol.y[:, 0].reshape(4, S, L)
    return np.stack([psi1, psi2, dpsi1, dpsi2], axis=1)


def _segment_fits(g: Profile, lo: float, hi: float, S: int, tol: float) -> np.ndarray:
    """Chebyshev coefficients in lambda on [lo, hi] of every segment map entry.

    Returns an array (S, 4, _NODES); the last axis is the coefficient of T_k.
    """
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * _NODE_T
    return _segment_maps(g, nodes, S, tol) @ _CHEB_FIT.T


def _continuous_entries(g: Profile, lams: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Entries (m11, m12, m21, m22) of the Hill period map on [0, 1], per lambda.

    [0, 1] is cut into S = ceil(sqrt(R)) segments, R = max|lambda| + max|g|, so
    h^2 R <= 1 for the segment length h.  Each entry of a segment map is an
    entire function of lambda, and on such a short segment its degree-16
    Chebyshev interpolant on the grid's range is exact far below ``tol``.  The
    maps are integrated at the 17 Chebyshev nodes only, evaluated on the grid
    and multiplied in order.  A grid of no more than 17 S points, or one that
    spans no interval, is integrated over [0, 1] at its own lambdas.
    """
    L = len(lams)
    lo, hi = (float(np.min(lams)), float(np.max(lams))) if L else (0.0, 0.0)
    # max|g| from 256 samples; a NaN, infinite or huge R gives S = L, which
    # takes the one-segment branch and so keeps that branch's memory bound
    R = max(-lo, hi) + float(np.max(np.abs(g(np.arange(256) / 256))))
    S = max(1, math.ceil(math.sqrt(R))) if R < L * L else L
    if not (hi > lo and S * _NODES < L):
        return tuple(_segment_maps(g, lams, 1, tol)[0])
    coef = _segment_fits(g, lo, hi, S, tol)
    t = (lams - 0.5 * (hi + lo)) / (0.5 * (hi - lo))
    vander = np.polynomial.chebyshev.chebvander(t, _NODES - 1).T
    m11, m12, m21, m22 = coef[0] @ vander
    for k in range(1, S):
        p11, p12, p21, p22 = coef[k] @ vander
        m11, m12, m21, m22 = (
            p11 * m11 + p12 * m21,
            p11 * m12 + p12 * m22,
            p21 * m11 + p22 * m21,
            p21 * m12 + p22 * m22,
        )
    return m11, m12, m21, m22


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
