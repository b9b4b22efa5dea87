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
exact ints at every site and rounded to float once, and rhs_flow_k
recombines them as ints before its one rounding, all its raw flows on one
continuant table (_ExactWindow).  The steppers evaluate flow 2 in float by
one kernel, _flow2, on the one layout of the time loop, the stacked (2N,)
state x = (a, b): one gather through a per-N index reads every neighbour,
and the stencil is factored over the differences u = a - a(k-1),
v = a + a(k-1) and w = b(k+1) - b(k-1).  rhs_flow2_arrays, the right side of
RK4, is its f; the Crank-Nicolson linearization solver.flow2_jacobian takes
that f and the differences the kernel shares, and builds only its Jacobian
rows, so both schemes have one float source of flow 2.

Every CSV table is written by write_csv and read by read_csv, which rejects a
wrong header, a row of another width or a field that is not a finite number,
naming the file.  write_csv prints every field as FMT = "%.17g" does, 17
significant digits, by one path: _format_rows formats the table in numpy, one
chunk of _CSV_CHUNK = 2048 rows at a time.  There _digits17 computes a
field's 17 digits exactly, by Dekker's two-product and a round half to even,
wherever %g prints no exponent; a zero takes its sign and "0" by a pattern
of its own, and every other field (infinities, nans, exponent forms) keeps
FMT % v.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .diffpoly import DiffPoly, EpsSeries
from .hierarchy import ContinuantWindow, flow_combination, standard_R, toda_rhs

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
    "read_csv",
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


# eps order through which init_from_ansatz carries the correction series R
_ANSATZ_CAP = 11


def init_from_ansatz(profile: Profile, N: int) -> LatticeState:
    """Lattice state on the full corrected manifold, a = f - eps R(f).

    Unlike the stencil initializers this evaluates the complete verified
    correction series on exact derivative jets of the profile, so the state
    satisfies the hierarchy asymptotics to the order the series carries.
    """
    R = standard_R(_ANSATZ_CAP)
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

    No state validation: this is the right side the steppers call, the f of
    the one flow-2 kernel _flow2.  Its constants are float64, so the result
    keeps the dtype of a float64 or longdouble x.
    """
    return _flow2(N, x)[0]


# The neighbour gather of _flow2: block i of its take is the a half (0) or
# b half (1) of x, shifted by one site forward (1), back (-1) or not (0).
# The blocks read bp, a, b, am, ap, bp, am, bm, so blocks 0-1 minus blocks
# 2-3 are [bp - b, u], blocks 4-5 minus blocks 6-7 are [ap - am, w], and
# a + blocks 3-4 is [v, a + ap].
_GATHER = ((1, 1), (0, 0), (1, 0), (0, -1), (0, 1), (1, 1), (0, -1), (1, -1))


def _constant(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array: as an operand it costs numpy
    less than a Python float, and every operation rounds alike (a longdouble
    x still promotes the result to longdouble)."""
    c = np.array(value)
    c.flags.writeable = False
    return c


_ONE, _TWO = _constant(1.0), _constant(2.0)


@functools.cache
def _flow2_layout(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index, eps2, n): the (8, N) index into x = (a, b) of the blocks of
    _GATHER, and eps^2 = 1/N^2 and N as _constant."""
    half, shift = np.array(_GATHER).T[..., None]
    index = N * half + (np.arange(N) + shift) % N
    index.flags.writeable = False
    return index, _constant(1.0 / N**2), _constant(float(N))


def _flow2(N: int, x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The flow-2 right side f of x = (a, b) and the operands it shares.

    The expanded stencil
        da = N (2bp - 2b - ap + am + eps^2 (bp a + bp ap - b a - b am))
        db = N (2a - 2am - bp + bm + eps^2 (-2ba + 2b am + a^2 - am^2
                + b bp - b bm + eps^2 (b am^2 - b a^2)))
    is evaluated factored over u = a - am, v = a + am and w = bp - bm,
        da = N (2(bp - b) - (ap - am) + eps^2 (bp (a + ap) - b v))
        db = N (2u - w + eps^2 (u (v (1 - eps^2 b) - 2b) + b w)).
    One take through _flow2_layout(N) reads every neighbour, so the linear
    parts of both halves, the differences they start from, v and a + ap and
    the final eps^2 and N products are each one stacked operation; only the
    two nonlinear parts are formed per half.  Every element takes the
    operations of the factored formulas in their order, in 20 array
    operations instead of 44 for the expanded stencil.

    Returns (f, (g, d, vs, eb, c, twob)): the (8, N) gather g of _GATHER,
    the rows d = [bp - b, u] and vs = [v, a + ap], eb = eps^2 b,
    c = 1 - eb and twob = 2b, which solver.flow2_jacobian builds its rows
    from.
    """
    index, eps2, n = _flow2_layout(N)
    g = x[index]
    bp, a, b = g[0], g[1], g[2]
    d = g[0:2] - g[2:4]
    r = g[4:6] - g[6:8]
    f = _TWO * d
    f -= r
    u, w = d[1], r[1]
    vs = a + g[3:5]
    v, s = vs[0], vs[1]
    eb = eps2 * b
    c = _ONE - eb
    twob = _TWO * b
    nonlinear = np.empty_like(f)
    np.subtract(bp * s, b * v, out=nonlinear[0])
    np.add(u * (v * c - twob), b * w, out=nonlinear[1])
    nonlinear *= eps2
    f += nonlinear
    f *= n
    return f.reshape(-1), (g, d, vs, eb, c, twob)


class _ExactWindow(ContinuantWindow):
    """A, B as exact ints at every site at once, the shape toda_rhs recurses on.

    A_of(n)[m] = A(m+n)*D and B_of(n)[m] = B(m+n)*D^2 over the common
    denominator D of _dyadic_numerators, as numpy object arrays of Python ints.
    It keeps the ring-generic ContinuantWindow.combine and the np.roll back,
    so every stencil is formed by exact int arithmetic.
    """

    zero, one = 0, 1

    def __init__(self, s: LatticeState):
        super().__init__()
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

    The raw stencils toda_D of flows i = k..1 are recombined exactly by
    hierarchy.flow_combination: on one exact window the ints D^(k-i) times
    D^(i+1) XZ_i (and D^(i+2) YZ_i) are summed over the common denominator
    D^(k+1) (D^(k+2)), and each site is rounded to float once, correctly.
    For k = 2 this equals rhs_flow2 up to the latter's float roundoff.
    """
    window = _ExactWindow(s)
    D = window.D
    X = Y = 0
    for i, c in flow_combination(k).items():
        XZ, YZ = toda_rhs(i, window)
        X = X + c * D ** (k - i) * XZ
        Y = Y + c * D ** (k - i) * YZ
    N3 = s.N**3
    scale = D ** (k + 1)
    return np.array([N3 * x / scale for x in X]), np.array([N3 * y / (scale * D) for y in Y])


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


# nodes of the periodic trapezoid rule behind asymptotic_C
_QUADRATURE_POINTS = 4096


def asymptotic_C(profile: Profile, N: int, depth: int = 3) -> tuple[float, float, float]:
    """Predicted C1, C2, C3 from the integral expansions at eps = 1/N.

    depth 1..3 controls how many of each series' nonzero terms are retained
    (C1 has three, C2 two, C3 one).  Integrals use the periodic trapezoid
    rule on _QUADRATURE_POINTS nodes, the mean over them: spectrally
    accurate for smooth f.
    """
    if not 1 <= depth <= 3:
        raise ValueError("depth must be 1..3")
    eps = 1.0 / N
    x = np.arange(_QUADRATURE_POINTS) / _QUADRATURE_POINTS
    out = []
    for series in (C1_EXPANSION, C2_EXPANSION, C3_EXPANSION):
        terms = [(k, poly) for k, poly in enumerate(series.coeffs) if not poly.is_zero()]
        val = 0.0
        for k, poly in terms[:depth]:
            val += eps**k * float(np.mean(poly.evaluate(profile.jet(x, poly.max_order()))))
        out.append(val)
    return tuple(out)


# ---------------------------------------------------------------------------
# CSV


FMT = "%.17g"  # 17 significant digits: every float64 reads back exactly
_CSV_CHUNK = 2048  # rows formatted per call: bounds the numpy work arrays held at once (about 3 MB at four columns)
_STATE_HEADER = ("n", "a", "b")


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write a table of equal-length 1-D columns, every field FMT % float(value).

    _format_rows formats the rows in numpy, _CSV_CHUNK at a time; the
    varying columns are stacked one chunk at a time, and a column that is a
    broadcast scalar (stride 0, as from np.broadcast_to) is formatted once.
    The file is byte for byte what csv.writer writes for the FMT fields: none
    of them needs quoting, and csv.writer ends lines in \\r\\n.  An integer
    such as a site index prints as %d prints it, for every integer below 2^53.
    A table of no rows is its header line.
    """
    rows = len(columns[0])
    if any(len(col) != rows for col in columns):
        raise ValueError("the columns of a CSV table must have equal lengths")
    fields = [FMT % col[0].item() if rows and col.strides == (0,) else None for col in columns]
    varying = [col for col, field in zip(columns, fields) if field is None]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, rows, _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, rows)
            part = np.column_stack([col[start:stop] for col in varying] or [np.empty((stop - start, 0))])
            fh.write(_format_rows(part, fields))


# _format_rows assembles a field from a 28-byte source row: its sign ("-" or
# NUL), "0.", its 17 digits, four spare bytes, and its separator NUL padded
# (",\0\0\0" or "\r\n\0\0").  One gather of _WIDTH bytes through the pattern
# of its decimal exponent X and digit count picks its text; every NUL is
# dropped at the end.  The source row of a field that FMT prints holds that
# text, NUL padded, in bytes 0..23 instead.
_SIGN, _ZERO, _DOT, _DIGIT, _END, _NUL = 0, 1, 2, 3, 24, 27
_SOURCE = 28
_TEXT = 24  # the longest FMT text, "-2.2250738585072014e-308"
_WIDTH = _TEXT + 2  # and a separator
_HEADS = np.frombuffer(b"\0" b"0.0" b"-0.0", np.uint32)  # source bytes 0..3; the first digit adds to byte 3
_ENDS = np.frombuffer(b",\0\0\0" b"\r\n\0\0", np.uint32)  # source bytes 24..27
_FALLBACK = 21 * 17  # the pattern of FMT text follows those of X = -4..16, 1..17 digits
_ZERO_CODE = _FALLBACK + 1  # and then that of "0" or "-0"
_POW10 = np.array([float(10**p) for p in range(21)])  # 10^p is an exact double for p <= 22
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for float64


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = hi + lo exactly, hi and lo of at most 26 significant bits each."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)


@functools.cache
def _format_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(quads, last, patterns), built once, by the first write.

    quads[g] holds the four ASCII digits of g = 0..9999 as one uint32, and
    last[g] the 1-based place of its last nonzero digit (-20 for g = 0).
    patterns[(X + 4) * 17 + digits - 1] lists the source bytes of a
    positional field and its separator, NUL padded: X in [-4, 16] is the
    decimal exponent and digits in 1..17 the significant digits left once
    trailing zeros go (the integer digits always stay).  patterns[_FALLBACK]
    copies FMT text, and patterns[_ZERO_CODE] the sign and "0" of a zero.
    """
    g = np.arange(10000)
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
    quads = np.stack([pairs[g // 100], pairs[g % 100]], axis=1).view(np.uint32)[:, 0]
    last = np.where(g > 0, 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0), -20).astype(np.int8)
    patterns = np.full((_ZERO_CODE + 1, _WIDTH), _NUL, np.uint8)
    for X in range(-4, 17):
        for digits in range(1, 18):
            places = list(range(_DIGIT, _DIGIT + max(digits, X + 1)))
            if X < 0:
                body = [_ZERO, _DOT] + [_ZERO] * (-X - 1) + places
            elif digits > X + 1:
                body = places[: X + 1] + [_DOT] + places[X + 1 :]
            else:
                body = places
            text = [_SIGN] + body + [_END, _END + 1]
            patterns[(X + 4) * 17 + digits - 1, : len(text)] = text
    patterns[_FALLBACK] = list(range(_TEXT)) + [_END, _END + 1]
    patterns[_ZERO_CODE, :4] = [_SIGN, _ZERO, _END, _END + 1]
    return quads, last, patterns


def _digits17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(positional, X, D): where positional, FMT % v prints the sign, D and X.

    positional marks the finite, nonzero v that %.17g prints without an
    exponent: X = floor(log10 |v|) lies in [-4, 16], and D in [10^16, 10^17)
    is |v| 10^(16 - X) rounded half to even, the 17 significant digits.  A v
    whose log10 estimate of X is one off (near a power of ten), or whose
    rounding would carry into an 18th digit, is left unmarked as well.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        estimate = np.floor(np.log10(np.abs(v)))
    positional = (estimate >= -5) & (estimate <= 17)
    a = np.where(positional, np.abs(v), 1.0)
    X = np.clip(np.where(positional, estimate, 0.0), -4, 16).astype(np.intp)
    # Dekker's two-product: a 10^p = hi + lo exactly (numpy fuses no multiply-add)
    p = 16 - X
    hi = a * _POW10[p]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    # hi >= 2^53 is an even integer, so lo rounded half to even rounds hi + lo so
    D = np.where(positional, hi, 1e16).astype(np.int64)
    D += np.rint(np.where(positional, lo, 0.0)).astype(np.int64)
    # No double lies within 8e-17 (relative) below 10^X, X in [-4, 16], so
    # D < 10^16 exactly when X is above floor(log10 |v|), and D >= 10^17
    # when X is below it or the rounding carries.
    positional &= (D >= 10**16) & (D < 10**17)
    return positional, X, D


def _format_rows(values: np.ndarray, fields: Sequence[str | None]) -> bytes:
    """The CSV rows of a (rows, k) array, each field exactly FMT % float(value).

    fields lists the columns of a row in order: the text of a constant
    column, None for each column of values.  A field that _digits17 marks
    positional takes its digits from a 4-digit table, keeps them up to the
    last nonzero one, and gets its sign, "0." and zeros or decimal point by
    the gather of its pattern.  A zero gets "0", signed by its sign bit,
    from a pattern of its own, and any other field is FMT % v.  One mask
    then drops the NUL padding of every field.
    """
    quads, last, patterns = _format_tables()
    rows, k = values.shape
    v = values.astype(np.float64, copy=False).ravel()
    positional, X, D = _digits17(v)
    top = D // 10**8
    lead = top // 10**8
    mid, low = top - lead * 10**8, D - top * 10**8
    columns = [j for j, field in enumerate(fields) if field is None]
    source = np.empty((len(v), _SOURCE), np.uint8)
    words = source.view(np.uint32)
    words[:, 0] = np.take(_HEADS, np.signbit(v))
    source[:, _DIGIT] += lead.astype(np.uint8)
    words[:, 6] = np.tile(np.take(_ENDS, np.array(columns) == len(fields) - 1), rows)
    kept = np.ones(len(v), np.intp)
    for i, group in enumerate((mid // 10000, mid % 10000, low // 10000, low % 10000)):
        words[:, 1 + i] = np.take(quads, group)
        np.maximum(kept, np.take(last, group) + 1 + 4 * i, out=kept)
    code = (X + 4) * 17 + kept - 1
    special = np.flatnonzero(~positional)
    zero = v[special] == 0
    code[special] = np.where(zero, _ZERO_CODE, _FALLBACK)
    fallback = special[~zero]
    if len(fallback):
        text = ((f"%-{_TEXT}.17g" * len(fallback)) % tuple(v[fallback].tolist())).encode().replace(b" ", b"\0")
        source[fallback, :_TEXT] = np.frombuffer(text, np.uint8).reshape(-1, _TEXT)
    index = np.add(np.arange(0, len(v) * _SOURCE, _SOURCE)[:, None], np.take(patterns, code, axis=0))
    out = np.empty((rows, len(fields), _WIDTH), np.uint8)
    out[:, columns] = np.take(source, index).reshape(rows, k, _WIDTH)
    for j, field in enumerate(fields):
        if field is not None:
            end = "\r\n" if j == len(fields) - 1 else ","
            out[:, j] = np.frombuffer((field + end).encode().ljust(_WIDTH, b"\0"), np.uint8)
    return out[out != 0].tobytes()


def read_csv(path, header: Sequence[str]) -> np.ndarray:
    """The rows of a CSV file with the given header, as a (rows, len(header)) float array.

    Each field is read by float, so a FMT field reads back bit for bit.  Another
    header (fields stripped), a row of another width or a field that is not a
    finite number raises ValueError naming the file.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [h.strip() for h in rows[0]] != list(header):
        raise ValueError(f"expected header {','.join(header)} in {path}")
    if any(len(row) != len(header) for row in rows[1:]):
        raise ValueError(f"every row of {path} needs {len(header)} columns {','.join(header)}")
    try:
        values = np.array([float(x) for row in rows[1:] for x in row]).reshape(-1, len(header))
    except ValueError as err:
        raise ValueError(f"non-numeric field in {path}: {err}") from None
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite field in {path}: {values[~np.isfinite(values)][0]}")
    return values


def write_state_csv(path, s: LatticeState) -> None:
    write_csv(path, _STATE_HEADER, (np.arange(s.N), s.a, s.b))


def read_state_csv(path) -> LatticeState:
    """The state in a state.csv file, whose rows list the sites n = 0..N-1 in any order."""
    n, a, b = read_csv(path, _STATE_HEADER).T
    order = np.argsort(n, kind="stable")
    if not np.array_equal(n[order], np.arange(len(n))):
        raise ValueError(f"site indices n in {path} must be exactly 0..N-1, each once")
    if len(n) < 8:
        raise ValueError(f"{path} lists {len(n)} sites; the lattice needs N >= 8")
    return LatticeState(len(n), a[order], b[order])
