"""Numeric periodic Toda lattice in scaled variables a(n), b(n).

The lattice carries A(n) = 2 + eps^2 a(n), B(n) = -1 + eps^2 b(n) with
eps = 1/N.  This module provides the flow stencils, initialization of (a, b)
from a smooth profile, the exact polynomial invariants d_1, d_2, d_3, and the
normalized combinations C1, C2, C3 together with their integral expansions.

The invariants are exact: the C-combinations cancel them down by up to
sixteen decimal orders, below float64 resolution.  Lattice values are dyadic,
so a, b share one power-of-two denominator 2^K and A, B share the integer
denominator D = 2^K N^2: A*D = 2D + alpha and B*D^2 = D(beta - D) with the
raw numerators alpha = a 2^K, beta = b 2^K.  The continuant invariants are
symmetric functions of the sites, so they are evaluated in closed form from
a few power sums over the Python ints alpha, beta, with the D-terms added
back in closed form (sum A*D = 2DN + sum alpha, and so on); each reported
value is one int numerator over one int denominator, rounded to float once.
The site-by-site recursions are kept as test oracles.

The hierarchy stencils toda_D are hierarchy.toda_rhs itself, run on the same
exact ints at every site and rounded to float once; the flow-2 stepper
kernels rhs_flow2_arrays and solver.flow2_jacobian are written out in float,
on the one layout of the time loop, the stacked (2N,) state x = (a, b).
rhs_flow2_arrays, the one right side that RK4 and the Crank-Nicolson
residual share, is factored over the differences u = a - a(k-1),
v = a + a(k-1) and w = b(k+1) - b(k-1).
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .diffpoly import DiffPoly, EpsSeries
from .hierarchy import FLOW_COMBOS, standard_R, toda_rhs

__all__ = [
    "Profile",
    "builtin_profile",
    "BUILTIN_PROFILES",
    "LatticeState",
    "init_from_profile",
    "init_from_ansatz",
    "rhs_flow2",
    "rhs_flow2_arrays",
    "toda_D",
    "rhs_flow_k",
    "conserved_d",
    "exact_invariants",
    "ConservedReport",
    "conserved_report",
    "asymptotic_C",
    "C1_EXPANSION",
    "C2_EXPANSION",
    "C3_EXPANSION",
    "render_integral_series",
    "write_csv",
    "write_state_csv",
    "read_state_csv",
]

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# profiles


@dataclass(frozen=True)
class Profile:
    """A smooth periodic function with closed-form derivatives of any order."""

    name: str
    deriv: Callable[[np.ndarray, int], np.ndarray]

    def __call__(self, x, order: int = 0):
        return self.deriv(np.asarray(x, dtype=float), order)

    def samples(self, N: int) -> np.ndarray:
        return self(np.arange(N) / N)

    def jet(self, x, max_order: int) -> list[np.ndarray]:
        x = np.asarray(x, dtype=float)
        return [self(x, k) for k in range(max_order + 1)]


def _cosine_profile(name: str, amplitudes: Sequence[tuple[float, float]]) -> Profile:
    # amplitudes: list of (amp, frequency multiple m) for amp*cos(2*pi*m*x)
    def deriv(x, order):
        out = np.zeros_like(x)
        for amp, m in amplitudes:
            w = TWO_PI * m
            out = out + amp * w**order * np.cos(w * x + order * math.pi / 2)
        return out

    return Profile(name, deriv)


def _const_profile(kappa: float) -> Profile:
    def deriv(x, order):
        return np.full_like(x, kappa) if order == 0 else np.zeros_like(x)

    return Profile(f"const:{kappa:g}", deriv)


BUILTIN_PROFILES = ("zero", "const:<kappa>", "cos", "cos2")


def builtin_profile(tag: str) -> Profile:
    """Parse a builtin profile tag: zero | const:<kappa> | cos | cos2."""
    if tag == "zero":
        return _const_profile(0.0)
    if tag.startswith("const:"):
        kappa = float(tag.split(":", 1)[1])
        if not math.isfinite(kappa):
            raise ValueError(f"const profile needs a finite kappa, got {kappa}")
        return _const_profile(kappa)
    if tag == "cos":
        return _cosine_profile("cos", [(1.0, 1.0)])
    if tag == "cos2":
        return _cosine_profile("cos2", [(1.0, 1.0), (0.5, 2.0)])
    raise ValueError(f"unknown builtin profile {tag!r}")


# ---------------------------------------------------------------------------
# state


@dataclass(frozen=True)
class LatticeState:
    """Periodic scaled lattice data (a, b) of length N, indices mod N."""

    N: int
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.N < 8:
            raise ValueError("lattice needs N >= 8")
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (self.N,) or b.shape != (self.N,):
            raise ValueError("a and b must have shape (N,)")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("state entries must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def eps(self) -> float:
        return 1.0 / self.N

    def to_AB(self) -> tuple[np.ndarray, np.ndarray]:
        eps2 = self.eps**2
        return 2.0 + eps2 * self.a, -1.0 + eps2 * self.b

    def average(self) -> np.ndarray:
        """(a + b)/2, the KdV field carried by the lattice."""
        return 0.5 * (self.a + self.b)


def periodic_neighbours(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x(k-1), x(k+1)) with indices mod N, as two views of one padded copy."""
    padded = np.concatenate((x[-1:], x, x[:1]))
    return padded[:-2], padded[2:]


def _delta(c: np.ndarray, N: int) -> np.ndarray:
    # central difference: N*(c(k+1) - c(k-1))/2
    cm, cp = periodic_neighbours(c)
    return 0.5 * N * (cp - cm)


def init_from_profile(profile: Profile | np.ndarray, N: int, variant: str = "consistent_R") -> LatticeState:
    """Build (a, b) from samples c(n) = f(n/N) with stencil corrections.

    variant "paper_25_26": corrections enter one eps power higher,
        a = c + eps^2/4 * D1 + eps^3/8 * c^2 - eps^4/192 * Delta^3 c
    variant "consistent_R": matches a = f - eps*R(f) with R truncated at its
        second-derivative term and derivatives replaced by the same stencils,
        a = c + eps/4 * D1 + eps^2/8 * c^2 - eps^3/192 * Delta^3 c
    where D1 = Delta(c) - eps^2/6 * Delta^3(c) and b mirrors a with all
    correction signs flipped.  Both keep (a + b)/2 = c exactly.
    """
    if N < 8:
        raise ValueError("init_from_profile needs N >= 8")
    c = profile.samples(N) if isinstance(profile, Profile) else np.asarray(profile, float)
    if c.shape != (N,):
        raise ValueError("profile samples must have shape (N,)")
    eps = 1.0 / N
    # huge or non-finite samples give inf/nan here: LatticeState reports them
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = _delta(c, N)
        d3 = _delta(_delta(d1, N), N)
        improved = d1 - (eps**2 / 6.0) * d3
        if variant == "paper_25_26":
            corr = (eps**2 / 4.0) * improved + (eps**3 / 8.0) * c**2 - (eps**4 / 192.0) * d3
        elif variant == "consistent_R":
            corr = (eps / 4.0) * improved + (eps**2 / 8.0) * c**2 - (eps**3 / 192.0) * d3
        else:
            raise ValueError(f"unknown init variant {variant!r}")
        a, b = c + corr, c - corr
    return LatticeState(N, a, b)


def init_from_ansatz(profile: Profile, N: int, cap: int = 11) -> LatticeState:
    """Lattice state on the full corrected manifold, a = f - eps R(f).

    Unlike the stencil initializers this evaluates the complete verified
    correction series on exact derivative jets of the profile, so the state
    satisfies the hierarchy asymptotics to the order the series carries.
    """
    R = standard_R(cap)
    x = np.arange(N) / N
    jets = profile.jet(x, max(R.max_order(), 0))
    r_val = R.evaluate(jets, 1.0 / N)
    c = jets[0]
    eps = 1.0 / N
    return LatticeState(N, c - eps * r_val, c + eps * r_val)


# ---------------------------------------------------------------------------
# flow stencils


def rhs_flow2(s: LatticeState) -> tuple[np.ndarray, np.ndarray]:
    """Right side of the recombined second flow, da/dt = N(L + eps^2 F) etc."""
    f = rhs_flow2_arrays(s.N, np.concatenate((s.a, s.b)))
    return f[: s.N], f[s.N :]


def rhs_flow2_arrays(N: int, x: np.ndarray) -> np.ndarray:
    """rhs_flow2 on the stacked state x = (a, b), returned stacked as (da, db).

    No state validation: this is the kernel the steppers call.  The expanded
    stencil
        da = N (2bp - 2b - ap + am + eps^2 (bp a + bp ap - b a - b am))
        db = N (2a - 2am - bp + bm + eps^2 (-2ba + 2b am + a^2 - am^2
                + b bp - b bm + eps^2 (b am^2 - b a^2)))
    is evaluated factored over u = a - am, v = a + am and w = bp - bm,
        da = N (2(bp - b) - (ap - am) + eps^2 (bp (a + ap) - b v))
        db = N (2u - w + eps^2 (u (v (1 - eps^2 b) - 2b) + b w)),
    in about 27 array operations instead of 44.  The scalars are Python
    numbers, so the result keeps the dtype of x (longdouble too).
    """
    eps2 = 1.0 / N**2
    a, b = x[:N], x[N:]
    am, ap = periodic_neighbours(a)
    bm, bp = periodic_neighbours(b)
    u = a - am
    v = a + am
    w = bp - bm
    f = np.empty_like(x)
    np.multiply(N, 2.0 * (bp - b) - (ap - am) + eps2 * (bp * (a + ap) - b * v), out=f[:N])
    np.multiply(N, 2.0 * u - w + eps2 * (u * (v * (1.0 - eps2 * b) - 2.0 * b) + b * w), out=f[N:])
    return f


class _ExactWindow:
    """A, B as exact ints at every site at once, the shape toda_rhs recurses on.

    A_of(n)[m] = A(m+n)*D and B_of(n)[m] = B(m+n)*D^2 over the common
    denominator D of _dyadic_numerators, as numpy object arrays of Python ints.
    """

    zero, one = 0, 1

    def __init__(self, s: LatticeState):
        alpha, beta, D = _dyadic_numerators(s)
        self.D = D
        self._A = 2 * D + np.array(alpha, dtype=object)
        self._B = D * (np.array(beta, dtype=object) - D)

    def A_of(self, n: int) -> np.ndarray:
        return np.roll(self._A, -n)

    def B_of(self, n: int) -> np.ndarray:
        return np.roll(self._B, -n)


def toda_D(s: LatticeState, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Numeric hierarchy stencils D_{1,k}(n), D_{2,k}(n) on the lattice.

    Same scale as the symbolic XZ, YZ times N: da/dt = N^2 D_{1,k} etc.
    hierarchy.toda_rhs runs on the exact ints of every site; the recursions
    are graded (A weight 1, B weight 2), so it returns D^(k+1) XZ and
    D^(k+2) YZ, and each value is rounded to float once, correctly.
    """
    window = _ExactWindow(s)
    XZ, YZ = toda_rhs(k, window)
    scale = window.D ** (k + 1)
    D1 = [s.N * x / scale for x in XZ]
    D2 = [s.N * y / (scale * window.D) for y in YZ]
    return np.array(D1), np.array(D2)


def rhs_flow_k(s: LatticeState, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Recombined flow k right side in scaled variables: da/dt = N^2 * D_{1,.}, etc.

    The exact stencils toda_D are recombined in float by
    hierarchy.FLOW_COMBOS, so for k = 2 this equals rhs_flow2 up to float
    roundoff; toda_D is the raw k-th stencil.
    """
    if not 1 <= k <= 4:
        raise ValueError("flow index k must be in 1..4")
    N2 = float(s.N) ** 2
    da = np.zeros(s.N)
    db = np.zeros(s.N)
    for kk, c in FLOW_COMBOS[k].items():
        D1, D2 = toda_D(s, kk)
        da += c * D1
        db += c * D2
    return N2 * da, N2 * db


# ---------------------------------------------------------------------------
# exact invariants


def _dyadic_numerators(s: LatticeState) -> tuple[list[int], list[int], int]:
    """alpha = a 2^K and beta = b 2^K as Python ints, and D = 2^K N^2.

    Every float is m 2^E with m an odd int (or 0); 2^K is the largest
    denominator 2^-E, so x 2^K = m << (K + E) for every entry.  D is the
    common denominator of A = 2 + eps^2 a and B = -1 + eps^2 b:
    A*D = 2D + alpha and B*D^2 = D(beta - D).
    """
    mant, expo = np.frexp(np.concatenate((s.a, s.b)))
    m = np.ldexp(mant, 53).astype(np.int64)
    low = np.maximum(np.frexp((m & -m).astype(float))[1] - 1, 0)  # trailing zero bits
    E = np.where(m == 0, 0, expo - 53 + low)
    K = max(0, -int(E.min()))
    nums = list(map(operator.lshift, (m >> low).tolist(), (K + E).tolist()))
    return nums[: s.N], nums[s.N :], s.N**2 << K


def _invariant_ints(alpha: list[int], beta: list[int], D: int) -> tuple[int, int, int, int]:
    """D^k d_k for k = 1..3 and D^3 L3, exactly, from power sums of alpha, beta.

    The power sums run over A*D = 2D + alpha and B*D^2 = D(beta - D), which
    are graded (A weight 1, B weight 2).  With p_k = sum (A*D)^k,
    e2 = (p1^2 - p2)/2 and e3 = (p1^3 - 3 p1 p2 + 2 p3)/6:
    D d_1 = p1, D^2 d_2 = e2 + sum B*D^2, D^3 L3 = e3 + p1 sum B*D^2 -
    sum A(n)B(n) D^3 and D^3 d_3 = D^3 L3 - sum A(n-1)B(n) D^3, where L3 is
    the site-local cubic.  Only the sums over the small raw numerators run
    site by site; the D-terms are added back in closed form, and both
    divisions are exact.
    """
    N = len(alpha)
    a2 = list(map(operator.mul, alpha, alpha))
    S1, S2, S3 = sum(alpha), sum(a2), sum(map(operator.mul, a2, alpha))
    T = sum(beta)
    P0 = sum(map(operator.mul, alpha, beta))
    P1 = sum(map(operator.mul, alpha[-1:] + alpha[:-1], beta))
    DD = D * D
    p1 = 2 * D * N + S1
    p2 = 4 * DD * N + 4 * D * S1 + S2
    p3 = 8 * DD * D * N + 12 * DD * S1 + 6 * D * S2 + S3
    q1 = D * (T - N * D)
    # sum_n (2D + alpha_j)(beta_n - D) - alpha_j beta_n, alike for j = n and j = n - 1
    common = 2 * D * T - 2 * DD * N - D * S1
    s0 = D * (common + P0)
    s1 = D * (common + P1)
    e2 = (p1 * p1 - p2) // 2
    e3 = (p1**3 - 3 * p1 * p2 + 2 * p3) // 6
    L3 = e3 + p1 * q1 - s0
    return p1, e2 + q1, L3 - s1, L3


def conserved_d(s: LatticeState, i: int) -> float:
    """Exact lattice invariant d_i(N) for i in 1..3, rounded once to float."""
    if i not in (1, 2, 3):
        raise ValueError("conserved_d supports i in 1..3")
    return float(exact_invariants(s)[i - 1])


def exact_invariants(s: LatticeState) -> tuple[Fraction, Fraction, Fraction]:
    """d_1, d_2, d_3 as exact rationals.

    The closed forms of _invariant_ints run on the raw numerators of
    _dyadic_numerators and return D^k d_k; only the three results become
    Fractions.  Use it to difference invariants along trajectories, where
    the drift sits far below float64 granularity.
    """
    alpha, beta, D = _dyadic_numerators(s)
    D1, D2, D3, _ = _invariant_ints(alpha, beta, D)
    return Fraction(D1, D), Fraction(D2, D**2), Fraction(D3, D**3)


@dataclass(frozen=True)
class ConservedReport:
    """Exact invariants d_1..d_3 plus the normalized combinations C1..C3."""

    t: float
    d1: float
    d2: float
    d3: float
    C1: float
    C2: float
    C3: float

    COLUMNS = ("t", "d1", "d2", "d3", "C1", "C2", "C3")

    def row(self) -> tuple[float, ...]:
        return (self.t, self.d1, self.d2, self.d3, self.C1, self.C2, self.C3)


def conserved_report(s: LatticeState, t: float = 0.0) -> ConservedReport:
    """Evaluate all conserved quantities on a state, exactly.

    C1 = (eps d_1 - 2) / eps^2 expands to int f + eps^2/8 int f^2 + ...
    C2 = -4/3 (v - (2-eps)/eps w - w^2/2), with w = d_1 - 2/eps and
         v = d_2 - 2/eps^2 + 3/eps, expands to eps^3 int f^2 + ...
    C3 subtracts the full divergent part of the site-local cubic L3 (the z^3
    coefficient of prod_n (1 + z A(n) + z^2 B(n))) and expands to
    eps^5 (-7/12 int f^3 + 1/8 int f f'').  C1 and C2 are exactly conserved;
    C3 is not: along KdV its leading term P moves as dP/dtau = 1/16 int f'^3,
    so C3 drifts at O(1) relative to itself over tau = O(1) wherever
    int f'^3 != 0 (the builtin cos and cos2 profiles start at 0).

    Over the ints of _invariant_ints, W = D w and V = D^2 v, so each value
    is one int numerator over one int denominator, rounded to float once by
    int true division (correctly rounded; OverflowError beyond float64).
    """
    alpha, beta, D = _dyadic_numerators(s)
    D1, D2, D3, L3 = _invariant_ints(alpha, beta, D)
    N = s.N
    DD = D * D
    DDD = DD * D
    W = D1 - 2 * N * D
    V = D2 - (2 * N * N - 3 * N) * DD
    C1 = N * W / D
    C2 = -4 * (2 * V - 2 * (2 * N - 1) * W * D - W * W) / (6 * DD)
    C3 = (
        (4 * N**3 - 18 * N**2 + 14 * N) * DDD
        - 6 * N**2 * W * DD
        + 3 * N * (W * DD + 2 * V * D - 2 * W * W * D)
        - W**3
        + 3 * W * W * D
        + 3 * W * DD
        + 3 * W * V
        - 6 * V * D
        - 3 * L3
    ) / (3 * DDD)
    return ConservedReport(t, D1 / D, D2 / DD, D3 / DDD, C1, C2, C3)


# ---------------------------------------------------------------------------
# asymptotic expansions of the conserved quantities

_F = Fraction

# Coefficients are differential polynomials understood under int_0^1 ... dx.
C1_EXPANSION = EpsSeries(
    [
        DiffPoly.f(),
        DiffPoly.zero(),
        DiffPoly.f(exp=2, coeff=_F(1, 8)),
        DiffPoly.zero(),
        DiffPoly.f(exp=3, coeff=_F(1, 32)),
    ],
    order_cap=5,
)

C2_EXPANSION = EpsSeries(
    [
        DiffPoly.zero(),
        DiffPoly.zero(),
        DiffPoly.zero(),
        DiffPoly.f(exp=2),
        DiffPoly.zero(),
        DiffPoly.from_terms((_F(1, 4), [(0, 3)]), (_F(-1, 24), [(0, 1), (2, 1)])),
    ],
    order_cap=5,
)

C3_EXPANSION = EpsSeries(
    [
        DiffPoly.zero(),
        DiffPoly.zero(),
        DiffPoly.zero(),
        DiffPoly.zero(),
        DiffPoly.zero(),
        DiffPoly.from_terms((_F(-7, 12), [(0, 3)]), (_F(1, 8), [(0, 1), (2, 1)])),
    ],
    order_cap=5,
)

_EXPANSION_TERMS = {  # how many terms each depth retains
    "C1": (0, 2, 4),
    "C2": (3, 5),
    "C3": (5,),
}


def render_integral_series(series: EpsSeries) -> str:
    """Canonical text form with each monomial wrapped as I[...]."""
    lines = []
    for k, poly in enumerate(series.coeffs):
        if poly.is_zero():
            lines.append(f"eps^{k} : 0")
            continue
        parts = []
        for mono, coeff in poly.sorted_terms():
            if coeff == 1:
                parts.append(f"I[{mono}]")
            else:
                cs = str(coeff) if coeff > 0 else f"({coeff})"
                parts.append(f"{cs} * I[{mono}]")
        lines.append(f"eps^{k} : " + " + ".join(parts))
    return "\n".join(lines)


def _quadrature(values: np.ndarray) -> float:
    # periodic composite trapezoid == mean; spectrally accurate for smooth f
    return float(np.mean(values))


def _integral_of_poly(poly: DiffPoly, profile: Profile, points: int) -> float:
    if poly.is_zero():
        return 0.0
    x = np.arange(points) / points
    jets = profile.jet(x, max(poly.max_order(), 0))
    total = np.zeros(points)
    for mono, coeff in poly.terms.items():
        term = np.full(points, float(coeff))
        for order, exp in mono.pairs:
            term = term * jets[order] ** exp
        total += term
    return _quadrature(total)


def asymptotic_C(
    profile: Profile, N: int, depth: int = 3, points: int = 4096
) -> tuple[float, float, float]:
    """Predicted C1, C2, C3 from the integral expansions at eps = 1/N.

    depth 1..3 controls how many expansion terms are retained (C2 has two,
    C3 one).  Integrals use the periodic trapezoid rule on ``points`` nodes.
    """
    if not 1 <= depth <= 3:
        raise ValueError("depth must be 1..3")
    eps = 1.0 / N
    out = []
    for name, series in (("C1", C1_EXPANSION), ("C2", C2_EXPANSION), ("C3", C3_EXPANSION)):
        orders = _EXPANSION_TERMS[name][:depth]
        val = 0.0
        for k in orders:
            val += eps**k * _integral_of_poly(series.coeff(k), profile, points)
        out.append(val)
    return tuple(out)


# ---------------------------------------------------------------------------
# CSV


FMT = "%.17g"  # 17 significant digits: every float64 reads back exactly
_CSV_CHUNK = 2048  # rows formatted per write, which bounds the text held at once


def write_csv(
    path, header: Sequence[str], blocks: Iterable[Sequence[np.ndarray]], row_format: str | None = None
) -> None:
    """Write blocks of equal-length 1-D columns, one %-format per field, FMT by default.

    A column that is a broadcast scalar (stride 0, as from np.broadcast_to)
    is formatted once and spliced into the row template as a literal; the
    other columns fill one (row * rows) % values template per chunk of
    _CSV_CHUNK rows.  The file is byte for byte what csv.writer writes for
    the formatted fields: none of them needs quoting, and csv.writer ends
    lines in \\r\\n.
    """
    formats = (row_format or ",".join([FMT] * len(header))).split(",")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            rows = len(block[0])
            if any(len(col) != rows for col in block):
                raise ValueError("the columns of a CSV block must have equal lengths")
            if rows == 0:
                continue
            fields = [fmt % col[0].item() if col.strides == (0,) else fmt
                      for fmt, col in zip(formats, block)]
            row = ",".join(fields) + "\r\n"
            values = np.column_stack([col for col in block if col.strides != (0,)] or [np.empty((rows, 0))])
            for start in range(0, rows, _CSV_CHUNK):
                part = values[start : start + _CSV_CHUNK]
                fh.write((row * len(part)) % tuple(part.ravel().tolist()))


def write_state_csv(path, s: LatticeState) -> None:
    write_csv(path, ["n", "a", "b"], [(np.arange(s.N), s.a, s.b)], row_format=f"%d,{FMT},{FMT}")


def read_state_csv(path) -> LatticeState:
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, [])
        if [h.strip() for h in header] != ["n", "a", "b"]:
            raise ValueError(f"expected header n,a,b in {path}")
        rows = list(rd)
    if not rows:
        raise ValueError(f"{path} has a header but no site rows")
    if any(len(r) != 3 for r in rows):
        raise ValueError(f"every row of {path} needs 3 columns n,a,b")
    try:
        rows = sorted((int(n), float(a), float(b)) for n, a, b in rows)
    except ValueError as err:
        raise ValueError(f"non-numeric field in {path}: {err}") from None
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"site indices n in {path} must be exactly 0..N-1, each once")
    a = np.array([r[1] for r in rows])
    b = np.array([r[2] for r in rows])
    return LatticeState(len(rows), a, b)
