"""Floquet/Bloch spectrum machinery for the discrete and continuous operators.

The discrete operator acts on periodic sequences,

    L_{(A,B)} psi(n) = (-psi(n+1) + A(n) psi(n) + B(n) psi(n-1)) N^2,

so the eigenvalue relation propagates by the transfer matrix
[[A(n) - lambda eps^2, B(n)], [1, 0]]; the product over one period is the
monodromy and its trace the Floquet discriminant.  The transfer products run
as one in-place three-term recurrence on two row buffers, for a batch of
lambdas at once.

Both monodromies reach a long lambda grid by one rule (``_on_panels``): the
grid is cut into panels of width at most 32, the monodromy is computed at 17
Chebyshev nodes per panel only, and the degree-16 interpolants of its trace
give the grid values.  Grid points where the trace is small beside its
panel's largest node value, or not finite, and every other grid take the
monodromy at their own lambdas.

The continuous side is Hill's operator -psi'' + g psi.  Its period map is the
ordered product of the maps of S = ceil(sqrt(max|lambda| + max|g|)) short
segments of [0, 1].  A segment map is a Taylor series in the segment offset,
whose coefficients follow from the profile's closed-form derivatives; numpy
sums it for all segments, lambdas and both solutions at once, so no ODE
integrator (and no scipy) runs.  Every series is summed until its terms fall
below 4 ulps of the map entries; there is no accuracy parameter.  Each entry
of a segment map is an entire function of lambda, so on a grid of more than
17 points that spans an interval the maps are summed once, at 17 Chebyshev
nodes of the grid's range, and the period map is the product of their
degree-16 Chebyshev interpolants; a smaller grid takes the same segments at
its own lambdas.  On a long grid that product is formed at the panel nodes
and small-trace points of the rule above only.  Segments are handled a block
at a time, so memory stays bounded.  Real spectral bands are where
|trace| <= 2.

A scan keeps its result in columns: ``discriminant_scan`` returns one
``DiscriminantTable`` of five float arrays (lambda, the two traces, the two
determinants), built from the vectorized monodromies without a per-sample
object.  Neither determinant needs the monodromy: the discrete one is
prod(-B(n)) and Hill's, a Wronskian, is 1, each held as a stride-0 broadcast
of that one lambda-independent value, so the CSV writer formats it once.
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


# Chebyshev nodes (first kind) in lambda per Hill segment fit or lambda-panel,
# and the matrix taking values at them to the coefficients of the degree-16
# interpolant
_NODES = 17
_NODE_T = np.cos(np.pi * (np.arange(_NODES) + 0.5) / _NODES)
_CHEB_FIT = np.polynomial.chebyshev.chebvander(_NODE_T, _NODES - 1).T * (2.0 / _NODES)
_CHEB_FIT[0] *= 0.5

# lambda width of a panel of ``_on_panels``.  Near its branch point a trace,
# discrete or Hill, is close to 2 cos sqrt(lambda - kappa), entire of order
# 1/2; on a panel of half-width 16 its Chebyshev coefficients fall to about
# 1e-23 by k = 17, below the rounding of a direct evaluation.  An
# interpolant's rounding scales with the largest node value of its panel, a
# direct evaluation's with the local value, so a grid point where
# max(1, |trace|) is below 1/_RANGE of its panel's largest |node value| is
# evaluated directly.
_PANEL = 32.0
_RANGE = 8.0


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


def _on_panels(value, lams: np.ndarray) -> np.ndarray:
    """A trace on a lambda grid, interpolated on panels where the grid is long.

    ``value(at)`` returns the trace at the lambdas ``at``.  A grid of L
    points on a finite span lo < hi, cut into P = ceil((hi - lo)/32) equal
    panels with 17 P < L, calls it at the 17 Chebyshev nodes of each panel
    only, and sums the degree-16 interpolant on each panel at that panel's
    grid points by Clenshaw's recurrence.  It calls ``value`` again at the
    grid points where the interpolant is not finite (every point of a panel
    with a non-finite node value) or where max(1, |trace|) is below 1/8 of
    the panel's largest |node value|: the interpolant's rounding scales with
    that value, so there it would exceed that of a direct evaluation.  Every
    other grid calls ``value`` at all its lambdas.
    """
    L = len(lams)
    lo, hi = (float(np.min(lams)), float(np.max(lams))) if L else (0.0, 0.0)
    span = hi - lo  # inf where lo and hi are near -/+1e308, nan for a nan lambda
    panels = math.ceil(span / _PANEL) if 0 < span < math.inf else 0
    half = 0.5 * (span / panels) if panels else 0.0  # 0 on a span of one subnormal step
    if not (half > 0 and panels * _NODES < L):
        return value(lams)
    centre = lo + (2 * np.arange(panels) + 1) * half
    nodes = value(np.add.outer(centre, half * _NODE_T).ravel()).reshape(panels, _NODES)
    coef = (nodes @ _CHEB_FIT.T).T  # [k, panel]: the T_k coefficient on every panel
    # each grid point's panel, and twice its offset t in [-1, 1] there, taken
    # from the panel centre: lambda - centre is exact or nearly, as the node
    # positions are, where an offset from lo would lose ulps of lambda - lo
    panel = np.minimum(((lams - lo) / (2 * half)).astype(np.intp), panels - 1)
    t2 = lams - np.take(centre, panel)
    t2 /= half
    t2 *= 2.0
    b1, b2 = np.zeros(L), np.zeros(L)
    for c in coef[:0:-1]:  # b_k = c_k + 2t b_(k+1) - b_(k+2), in place of b_(k+2)
        b2 -= np.take(c, panel)
        np.subtract(t2 * b1, b2, out=b2)
        b1, b2 = b2, b1
    t2 *= 0.5
    out = b1  # c_0 + t b_1 - b_2, in place of b_1
    out *= t2
    out -= b2
    out += np.take(coef[0], panel)
    scale = np.maximum(np.abs(out, out=b2), 1.0, out=b2)
    scale *= _RANGE
    # nan-safe: a nan value or panel peak fails the comparison
    peak = np.max(np.abs(nodes), axis=1)
    redo = np.flatnonzero(~(np.isfinite(out) & (scale >= np.take(peak, panel))))
    if len(redo):
        out[redo] = value(lams[redo])
    return out


def discrete_traces(A: np.ndarray, B: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized monodromy traces and determinants over a lambda grid.

    The trace is a polynomial in lambda of degree N.  It comes from the
    transfer loop (``_discrete_entries``) through ``_on_panels``: a long
    grid runs the loop at the 17 Chebyshev nodes of each lambda-panel of
    width at most 32, sums the trace's degree-16 interpolants on the grid,
    and runs the loop again only where the trace is small beside its
    panel's largest node value or not finite; every other grid runs the
    loop at all its lambdas.  The two paths agree to the loop's own
    rounding, about N^2 ulps.

    Each transfer matrix has determinant -B(n), so the monodromy determinant
    is prod(-B(n)) at every lambda; it is returned in that closed form,
    because m11 m22 - m12 m21 cancels where the entries are large, as a
    read-only stride-0 broadcast of that one value.
    """
    lams = np.asarray(lams, float)
    det = np.broadcast_to(np.prod(-np.asarray(B, float)), lams.shape)

    def trace(at):
        m11, _, _, m22 = _discrete_entries(A, B, at)
        return m11 + m22

    return _on_panels(trace, lams), det


# Taylor terms of a segment map before its segment is halved, and how often
# it may be halved (the builtin profiles need none up to max|lambda| = 1e6);
# the term threshold, 4 ulps of the O(1) map entries, below which further
# terms no longer change a sum
_MAX_TERMS = 32
_MAX_HALVINGS = 8
_THRESHOLD = 4 * np.finfo(float).eps
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
    g: Profile, lams: np.ndarray, starts: np.ndarray, h: float, halvings: int = _MAX_HALVINGS
) -> np.ndarray:
    """Maps of the segments [x, x + h], x in ``starts``, of Hill's equation, per lambda.

    Returns an array (len(starts), 4, len(lams)) of entries (m11, m12, m21,
    m22), summed as Taylor series (``_taylor_maps``).  A block whose series
    have not died out within _MAX_TERMS terms is summed over two half
    segments instead, at most ``halvings`` times over.
    """
    maps = _taylor_maps(g, lams, starts, h)
    if maps is not None:
        return maps
    if not halvings:
        raise IntegrationError(
            f"monodromy integration failed: no Taylor series converges on segments of {h:.3g}"
        )
    half = 0.5 * h
    return _mul(_segment_maps(g, lams, starts + half, half, halvings - 1),
                _segment_maps(g, lams, starts, half, halvings - 1))


def _taylor_maps(g: Profile, lams: np.ndarray, starts: np.ndarray, h: float) -> np.ndarray | None:
    """Segment maps as in ``_segment_maps``, or None where a series has not died out.

    In the offset s = (x - x_k)/h a solution is psi = sum_n e_n s^n, and
    psi'' = q psi with q = g - lambda gives

        (n + 2)(n + 1) e_{n+2} = sum_j Q_j e_{n-j},   Q_j = h^(j+2) q^(j)(x_k) / j!,

    run for both solutions, all segments and all lambdas at once.  The
    series stops once two consecutive terms n |e_n| of every series fall
    below _THRESHOLD; they bound the terms of psi and of its derivative.
    """
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
        small = small + 1 if size < _THRESHOLD else 0
        if small == 2:
            break
    else:
        return None
    e = e[: n + 3]
    psi = e.sum(axis=0)
    dpsi = np.tensordot(np.arange(n + 3, dtype=float), e, axes=1)
    return np.stack([psi[0], h * psi[1], dpsi[0] / h, dpsi[1]], axis=1)


def _segment_fits(g: Profile, lo: float, hi: float, S: int) -> np.ndarray:
    """Chebyshev coefficients in lambda on [lo, hi] of every segment map entry.

    Returns an array (S, 4, _NODES); the last axis is the coefficient of T_k.
    """
    nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * _NODE_T
    maps = [_segment_maps(g, nodes, ks / S, 1.0 / S) for ks in _blocks(S, _NODES)]
    return np.concatenate(maps) @ _CHEB_FIT.T


def _period_map(g: Profile, lams: np.ndarray):
    """The function taking lambdas of the grid ``lams`` to the entries
    (m11, m12, m21, m22) of the Hill period map on [0, 1] there.

    [0, 1] is cut into S = ceil(sqrt(R)) segments, R = max|lambda| + max|g|
    over the grid, so h^2 R <= 1 for the segment length h, and each segment
    map is a Taylor series in the offset (``_segment_maps``).  Each entry of
    a segment map is an entire function of lambda, and on such a short
    segment its degree-16 Chebyshev interpolant on the grid's range is exact
    to rounding.  On a grid of more than 17 points that spans an interval,
    the maps are summed once, at the 17 Chebyshev nodes of that range
    (``_segment_fits``), and the function evaluates their interpolants; on
    a grid of equal lambdas it sums them at that one lambda, and on any
    other grid at the lambdas it is given.  The maps are multiplied in
    order, a block of segments at a time, so memory stays bounded however
    large R is.
    """
    L = len(lams)
    lo, hi = (float(np.min(lams)), float(np.max(lams))) if L else (0.0, 0.0)
    R = max(-lo, hi) + float(np.max(np.abs(g(np.arange(256) / 256))))  # max|g| from 256 samples
    if not R <= _MAX_SEGMENTS**2:
        raise IntegrationError(
            f"monodromy integration failed: max|lambda| + max|g| = {R:.3g} needs more than "
            f"{_MAX_SEGMENTS} segments"
        )
    S = max(1, math.ceil(math.sqrt(R)))
    coef = _segment_fits(g, lo, hi, S) if hi > lo and L > _NODES else None

    def entries(at):
        if coef is not None:  # one matrix product evaluates a block's interpolants
            t = (2 * at - (hi + lo)) / (hi - lo)  # 0.5 (hi - lo) underflows on a subnormal span
            vander = np.polynomial.chebyshev.chebvander(t, _NODES - 1).T
        period = None
        for ks in _blocks(S, len(at)):
            if coef is not None:
                maps = (coef[ks].reshape(-1, _NODES) @ vander).reshape(len(ks), 4, len(at))
            else:
                maps = _segment_maps(g, at, ks / S, 1.0 / S)
            maps = _chain(maps)
            period = maps if period is None else _mul(maps, period)
        return tuple(period)

    if L > 1 and hi == lo:
        return lambda at: tuple(np.repeat(m, len(at)) for m in entries(at[:1]))
    return entries


def _continuous_entries(g: Profile, lams: np.ndarray) -> tuple[np.ndarray, ...]:
    """Entries (m11, m12, m21, m22) of the Hill period map, per lambda (``_period_map``)."""
    return _period_map(g, lams)(lams)


def continuous_traces(g: Profile, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Hill period map traces and determinants over a lambda grid.

    The trace comes from ``_period_map`` through ``_on_panels``, the
    discrete side's rule: a long grid evaluates the map at the panel nodes,
    and again only where the trace is small beside its panel's largest node
    value or not finite; every other grid takes the map at all its lambdas.

    psi'' = (g - lambda) psi has no first-derivative term, so the
    determinant, the Wronskian of its two solutions, is 1 at every lambda.
    It is returned as a read-only stride-0 broadcast of 1.0, because
    m11 m22 - m12 m21 cancels where the entries are large.
    """
    lams = np.asarray(lams, float)
    period = _period_map(g, lams)

    def trace(at):
        m11, _, _, m22 = period(at)
        return m11 + m22

    return _on_panels(trace, lams), np.broadcast_to(1.0, lams.shape)


def lattice_from_potential(g: Profile, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Ansatz data (A, B) for a Hill potential g, using f = g/2.

    The correction series is applied through its stencil form, matching the
    consistent lattice initialization.
    """
    f_samples = 0.5 * g.samples(N)
    state = init_from_profile(f_samples, N, variant="consistent_R")
    return state.to_AB()


def discriminant_scan(g: Profile, N: int, lams: np.ndarray) -> DiscriminantTable:
    """Tabulate discrete vs continuous discriminants over a lambda grid.

    The lattice is built, and so validated, also for an empty grid.
    """
    A, B = lattice_from_potential(g, N)
    lams = np.asarray(lams, float)
    # a grid far below the potential overflows the transfer products and the
    # Hill period map to inf: no float warnings
    with np.errstate(over="ignore", invalid="ignore"):
        tr_d, det_d = discrete_traces(A, B, lams)
        tr_c, det_c = continuous_traces(g, lams)
    return DiscriminantTable(lams, tr_d, tr_c, det_d, det_c)


@dataclass(frozen=True)
class BandDistanceResult:
    distance: float


def _directed_hausdorff(xs: np.ndarray, ys: np.ndarray) -> float:
    # sup over xs of distance to ys; both sorted 1-d arrays
    idx = np.searchsorted(ys, xs)
    left = ys[np.clip(idx - 1, 0, len(ys) - 1)]
    right = ys[np.clip(idx, 0, len(ys) - 1)]
    return float(np.max(np.minimum(np.abs(xs - left), np.abs(xs - right))))


def band_distance(
    table: DiscriminantTable | Sequence[DiscriminantSample], K: float
) -> BandDistanceResult:
    """Hausdorff distance between discrete and continuous band sets on [-K, K].

    Bands are the grid points with |trace| <= 2.  The distance is 0 when
    both sides are empty and inf when one side is.
    """
    if not isinstance(table, DiscriminantTable):
        # The benchmark's spectrum check still passes DiscriminantSamples; the
        # sample class and this conversion go once it reads the table instead.
        table = DiscriminantTable.from_samples(table)
    sel = np.abs(table.lam) <= K
    lams = table.lam[sel]
    set_d = lams[np.abs(table.trace_discrete[sel]) <= 2.0]
    set_c = lams[np.abs(table.trace_continuous[sel]) <= 2.0]
    if len(set_d) == 0 and len(set_c) == 0:
        return BandDistanceResult(0.0)
    if len(set_d) == 0 or len(set_c) == 0:
        return BandDistanceResult(math.inf)
    return BandDistanceResult(max(_directed_hausdorff(set_d, set_c), _directed_hausdorff(set_c, set_d)))
