"""Floquet/Bloch spectrum machinery for the discrete and continuous operators.

The discrete operator acts on periodic sequences,

    L_{(A,B)} psi(n) = (-psi(n+1) + A(n) psi(n) + B(n) psi(n-1)) N^2,

so the eigenvalue relation propagates by the transfer matrix
[[A(n) - lambda eps^2, B(n)], [1, 0]]; the product over one period is the
monodromy and its trace the Floquet discriminant.  The transfer products for
all lambdas run as one in-place three-term recurrence on two row buffers.

The continuous side is Hill's operator -psi'' + g psi.  Its period map is the
ordered product of the maps of S = ceil(sqrt(max|lambda| + max|g|)) short
segments of [0, 1].  A segment map is a Taylor series in the segment offset,
whose coefficients follow from the profile's closed-form derivatives; numpy
sums it for all segments, lambdas and both solutions at once, so no ODE
integrator (and no scipy) runs.  Each entry of a segment map is an entire
function of lambda, so on a grid of more than 17 points that spans an
interval the maps are summed at 17 Chebyshev nodes only, and their degree-16
Chebyshev interpolants are evaluated on the grid; a smaller grid takes the
same segments at its own lambdas.  Segments are handled a block at a time, so
memory stays bounded.  Real spectral bands are where |trace| <= 2.

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
# The Hill maps no longer call an ODE integrator, but the benchmark tracer
# (perfbench/tracer.py) wraps ``bloch.solve_ivp`` by name, so the name stays bound.
from .solver import IntegrationError, solve_ivp  # noqa: F401

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

# Taylor terms of a segment map before its segment is halved, and how often
# it may be halved (the builtin profiles need at most twice); the smallest
# term threshold (a few ulps of the O(1) map entries, so a tiny tol ends)
_MAX_TERMS = 32
_MAX_HALVINGS = 8
_MIN_THRESHOLD = 4 * np.finfo(float).eps
# segment x lambda pairs per block: 8 MB of Taylor history (2 x _MAX_TERMS
# floats a pair), or 512 kB of maps on the grid, which stay in cache while
# the product runs over them
_BLOCK = 1 << 14
# at most 2^20 segments, that is max|lambda| + max|g| <= 2^40
_MAX_SEGMENTS = 1 << 20


def _mul(P, M):
    """The 2x2 products P @ M of entry stacks (m11, m12, m21, m22) on axis -2."""
    p11, p12, p21, p22 = np.moveaxis(P, -2, 0)
    m11, m12, m21, m22 = np.moveaxis(M, -2, 0)
    out = np.empty(np.broadcast_shapes(P.shape, M.shape))
    o11, o12, o21, o22 = np.moveaxis(out, -2, 0)
    np.add(p11 * m11, p12 * m21, out=o11)
    np.add(p11 * m12, p12 * m22, out=o12)
    np.add(p21 * m11, p22 * m21, out=o21)
    np.add(p21 * m12, p22 * m22, out=o22)
    return out


def _chain(maps: np.ndarray) -> np.ndarray:
    """The ordered product maps[-1] @ ... @ maps[0] of an (S, 4, L) stack, pairwise."""
    while len(maps) > 1:
        pairs = len(maps) // 2
        maps = np.concatenate([_mul(maps[1 : 2 * pairs : 2], maps[0 : 2 * pairs : 2]), maps[2 * pairs :]])
    return maps[0]


def _blocks(S: int, L: int):
    """The segment indices 0..S-1 in runs of at most _BLOCK pairs with L lambdas."""
    step = max(1, _BLOCK // max(1, L))
    return (np.arange(k, min(S, k + step)) for k in range(0, S, step))


def _segment_maps(
    g: Profile, lams: np.ndarray, starts: np.ndarray, h: float, tol: float, halvings: int = _MAX_HALVINGS
) -> np.ndarray:
    """Maps of the segments [x, x + h], x in ``starts``, of Hill's equation, per lambda.

    Returns an array (len(starts), 4, len(lams)) of entries (m11, m12, m21,
    m22), summed as Taylor series (``_taylor_maps``).  A block whose series
    have not died out within _MAX_TERMS terms is summed over two half
    segments instead, at most ``halvings`` times over.
    """
    maps = _taylor_maps(g, lams, starts, h, tol)
    if maps is not None:
        return maps
    if not halvings:
        raise IntegrationError(
            f"monodromy integration failed: no Taylor series converges on segments of {h:.3g}"
        )
    half = 0.5 * h
    return _mul(_segment_maps(g, lams, starts + half, half, tol, halvings - 1),
                _segment_maps(g, lams, starts, half, tol, halvings - 1))


def _taylor_maps(
    g: Profile, lams: np.ndarray, starts: np.ndarray, h: float, tol: float
) -> np.ndarray | None:
    """Segment maps as in ``_segment_maps``, or None where a series has not died out.

    In the offset s = (x - x_k)/h a solution is psi = sum_n e_n s^n, and
    psi'' = q psi with q = g - lambda gives

        (n + 2)(n + 1) e_{n+2} = sum_j Q_j e_{n-j},   Q_j = h^(j+2) q^(j)(x_k) / j!,

    run for both solutions, all segments and all lambdas at once.  The
    series stops once two consecutive terms n |e_n| of every series fall
    below tol/100 (at least a few ulps); they bound the terms of psi and of
    its derivative.
    """
    thr = max(1e-2 * tol, _MIN_THRESHOLD)
    e = np.zeros((_MAX_TERMS, 2, len(starts), len(lams)))
    e[0, 0] = 1.0  # psi1 = 1, dpsi1/ds = 0
    e[1, 1] = 1.0  # psi2 = 0, dpsi2/ds = 1, that is psi2' = 1/h
    Q0 = h * h * (g(starts)[:, None] - lams)
    Q = np.empty((_MAX_TERMS, len(starts)))  # Q_j, j >= 1, of g alone
    scale = h * h
    small = 0
    for n in range(_MAX_TERMS - 2):
        if n:
            scale *= h / n
            Q[n] = scale * g(starts, n)
        acc = Q0 * e[n]
        if n:
            acc += np.einsum("jk,jskl->skl", Q[n:0:-1], e[:n])
        e[n + 2] = acc / ((n + 2) * (n + 1))
        size = (n + 2) * float(np.max(np.abs(e[n + 2]), initial=0.0))
        if not size < math.inf:
            raise IntegrationError("monodromy integration failed: non-finite Taylor series")
        small = small + 1 if size < thr else 0
        if small == 2:
            break
    else:
        return None
    e = e[: n + 3]
    psi = e.sum(axis=0)
    dpsi = np.tensordot(np.arange(n + 3, dtype=float), e, axes=1)
    return np.stack([psi[0], h * psi[1], dpsi[0] / h, dpsi[1]], axis=1)


def _segment_fits(g: Profile, lo: float, hi: float, S: int, tol: float) -> np.ndarray:
    """Chebyshev coefficients in lambda on [lo, hi] of every segment map entry.

    Returns an array (S, 4, _NODES); the last axis is the coefficient of T_k.
    """
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * _NODE_T
    maps = [_segment_maps(g, nodes, ks / S, 1.0 / S, tol) for ks in _blocks(S, _NODES)]
    return np.concatenate(maps) @ _CHEB_FIT.T


def _continuous_entries(g: Profile, lams: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Entries (m11, m12, m21, m22) of the Hill period map on [0, 1], per lambda.

    [0, 1] is cut into S = ceil(sqrt(R)) segments, R = max|lambda| + max|g|, so
    h^2 R <= 1 for the segment length h, and each segment map is a Taylor
    series in the offset (``_segment_maps``).  Each entry of a segment map is
    an entire function of lambda, and on such a short segment its degree-16
    Chebyshev interpolant on the grid's range is exact far below ``tol``.  On a
    grid of more than 17 points that spans an interval, the maps are summed
    at the 17 Chebyshev nodes only and evaluated on the grid; a grid of equal
    lambdas takes one of them, and any other grid its own lambdas.  The maps
    are multiplied in order, a block of segments at a time, so memory stays
    bounded however large R is.
    """
    L = len(lams)
    lo, hi = (float(np.min(lams)), float(np.max(lams))) if L else (0.0, 0.0)
    R = max(-lo, hi) + float(np.max(np.abs(g(np.arange(256) / 256))))  # max|g| from 256 samples
    if not R <= _MAX_SEGMENTS**2:
        raise IntegrationError(
            f"monodromy integration failed: max|lambda| + max|g| = {R:.3g} needs more than "
            f"{_MAX_SEGMENTS} segments"
        )
    if L > 1 and hi == lo:
        return tuple(np.repeat(m, L) for m in _continuous_entries(g, lams[:1], tol))
    S = max(1, math.ceil(math.sqrt(R)))
    fitted = hi > lo and L > _NODES
    if fitted:
        coef = _segment_fits(g, lo, hi, S, tol)
        t = (2 * lams - (hi + lo)) / (hi - lo)  # 0.5 (hi - lo) underflows on a subnormal span
        vander = np.polynomial.chebyshev.chebvander(t, _NODES - 1).T
    period = None
    for ks in _blocks(S, L):
        if fitted:  # one matrix product evaluates the block's interpolants
            maps = (coef[ks].reshape(-1, _NODES) @ vander).reshape(len(ks), 4, L)
        else:
            maps = _segment_maps(g, lams, ks / S, 1.0 / S, tol)
        maps = _chain(maps)
        period = maps if period is None else _mul(maps, period)
    return tuple(period)


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


def discriminant_scan(
    g: Profile,
    N: int,
    lams: np.ndarray,
    tol: float = 1e-10,
    lattice: tuple[np.ndarray, np.ndarray] | None = None,
) -> DiscriminantTable:
    """Tabulate discrete vs continuous discriminants over a lambda grid.

    ``lattice`` is ``lattice_from_potential(g, N)`` where the caller has built
    it already.  The lattice is built, and so validated, also for an empty grid.
    """
    A, B = lattice_from_potential(g, N) if lattice is None else lattice
    lams = np.asarray(lams, float)
    if len(lams) == 0:
        return DiscriminantTable(lams, lams, lams, lams, lams)
    # a grid far below the potential overflows the transfer products and the
    # Hill period map to inf: no float warnings
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
