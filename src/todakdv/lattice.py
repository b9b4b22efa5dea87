"""Numeric periodic Toda lattice in scaled variables a(n), b(n).

The lattice carries A(n) = 2 + eps^2 a(n), B(n) = -1 + eps^2 b(n) with
eps = 1/N.  This module provides the flow stencils, initialization of (a, b)
from a smooth profile, the exact polynomial invariants d_1, d_2, d_3, and the
asymptotically conserved combinations C1, C2, C3 together with their
integral expansions.

The invariants are exact: the C-combinations cancel them down by up to
sixteen decimal orders, below float64 resolution.  Lattice values are dyadic,
so A, B share one integer denominator D = 2^K N^2 and the recursions run on
the Python ints A*D, B*D^2 (a conserved_report takes under 1 ms at N = 128
and about 3 ms at N = 1024); only their results become Fractions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .diffpoly import DiffPoly, EpsSeries
from .hierarchy import FLOW_COMBOS, standard_R

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
        return _const_profile(float(tag.split(":", 1)[1]))
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


def _delta(c: np.ndarray, N: int) -> np.ndarray:
    # central difference: N*(c(k+1) - c(k-1))/2
    return 0.5 * N * (np.roll(c, -1) - np.roll(c, 1))


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
    d1 = _delta(c, N)
    d3 = _delta(_delta(d1, N), N)
    improved = d1 - (eps**2 / 6.0) * d3
    if variant == "paper_25_26":
        corr = (eps**2 / 4.0) * improved + (eps**3 / 8.0) * c**2 - (eps**4 / 192.0) * d3
    elif variant == "consistent_R":
        corr = (eps / 4.0) * improved + (eps**2 / 8.0) * c**2 - (eps**3 / 192.0) * d3
    else:
        raise ValueError(f"unknown init variant {variant!r}")
    return LatticeState(N, c + corr, c - corr)


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
    return rhs_flow2_arrays(s.N, s.a, s.b)


def rhs_flow2_arrays(N: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Array form of rhs_flow2 (no state validation; used inside steppers)."""
    eps2 = 1.0 / N**2
    ap = np.roll(a, -1)  # a(k+1)
    am = np.roll(a, 1)   # a(k-1)
    bp = np.roll(b, -1)
    bm = np.roll(b, 1)
    L = 2.0 * bp - 2.0 * b - ap + am
    M = 2.0 * a - 2.0 * am - bp + bm
    Fst = bp * a + bp * ap - b * a - b * am
    G = (
        -2.0 * b * a + 2.0 * b * am + a**2 - am**2 + b * bp - b * bm
        + eps2 * (-b * a**2 + b * am**2)
    )
    return N * (L + eps2 * Fst), N * (M + eps2 * G)


class _WindowTables:
    """Vectorized d-recursion rebased at every site, split as d = z + eps^2 u.

    z is the zero-state table (A = 2, B = -1; integer scalars), u the exact
    state-dependent correction (arrays over the base site m at offset j).
    Rebasing keeps entries O(k^2) and the split removes the constant parts
    before any subtraction, so the hierarchy stencils come out at full float
    precision even though they live eps^2 below the raw d-values.
    """

    def __init__(self, s: LatticeState, k: int):
        self.N = s.N
        self.eps2 = 1.0 / s.N**2
        self.a, self.b = s.a, s.b
        self.A, self.B = s.to_AB()
        self.k = k
        self._z: dict[tuple[int, int], int] = {}
        self._u: dict[tuple[int, int], np.ndarray] = {}
        self._zero = np.zeros(s.N)

    def z(self, i: int, j: int) -> int:
        if i < 0:
            return 0
        if i == 0:
            return 1
        if j == 0:
            return 0
        key = (i, j)
        got = self._z.get(key)
        if got is not None:
            return got
        if j > 0:
            val = self.z(i, j - 1) + 2 * self.z(i - 1, j - 1) - self.z(i - 2, j - 2)
        else:
            val = self.z(i, j + 1) - 2 * self.z(i - 1, j) + self.z(i - 2, j - 1)
        self._z[key] = val
        return val

    def u(self, i: int, j: int) -> np.ndarray:
        if i <= 0 or j == 0:
            return self._zero
        key = (i, j)
        got = self._u.get(key)
        if got is not None:
            return got
        # A * d = 2 z + eps^2 (a z + A u);  B * d = -z + eps^2 (b z + B u)
        if j > 0:
            off = j - 1
            val = (
                self.u(i, j - 1)
                + np.roll(self.a, -off) * self.z(i - 1, j - 1)
                + np.roll(self.A, -off) * self.u(i - 1, j - 1)
                + np.roll(self.b, -off) * self.z(i - 2, j - 2)
                + np.roll(self.B, -off) * self.u(i - 2, j - 2)
            )
        else:
            val = (
                self.u(i, j + 1)
                - np.roll(self.a, -j) * self.z(i - 1, j)
                - np.roll(self.A, -j) * self.u(i - 1, j)
                - np.roll(self.b, -j) * self.z(i - 2, j - 1)
                - np.roll(self.B, -j) * self.u(i - 2, j - 1)
            )
        self._u[key] = val
        return val

    def stencil_pieces(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Centered a_1, a_0: returns (v1, v0) with a_p = a_p0 + eps^2 v_p."""
        k = self.k
        aa0: dict[int, int] = {}
        v: dict[int, np.ndarray] = {}
        for p in range(k - 1, -1, -1):
            z_part = self.z(k - p, k) - self.z(k - p, 0)
            u_part = self.u(k - p, k) - self.u(k - p, 0)
            for r in range(p + 1, k):
                zr = self.z(r - p, r)
                ur = self.u(r - p, r)
                # aa_r * d = aa0 z + eps^2 (aa0 u + v z + eps^2 v u)
                z_part -= aa0[r] * zr
                u_part = u_part - (aa0[r] * ur + v[r] * zr + self.eps2 * v[r] * ur)
            aa0[p] = z_part
            v[p] = u_part
        return v[1], v[0], float(aa0[1])


def toda_D(s: LatticeState, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Numeric hierarchy stencils D_{1,k}(n), D_{2,k}(n) on the lattice.

    Same scale as the symbolic XZ, YZ times N: da/dt = N^2 D_{1,k} etc.
    """
    if k < 1:
        raise ValueError("flow index k must be >= 1")
    N = s.N
    eps2 = 1.0 / N**2
    a, b = s.a, s.b
    bp = np.roll(b, -1)
    if k == 1:
        # B - B(n+1) and B (A - A(n-1)) without the constant parts
        D1 = N * eps2 * (b - bp)
        diff_a = a - np.roll(a, 1)
        D2 = N * eps2 * (-diff_a + eps2 * b * diff_a)
        return D1, D2
    tables = _WindowTables(s, k)
    v1, v0, a1_const = tables.stencil_pieces()
    v1m = np.roll(v1, 1)
    v0m = np.roll(v0, 1)
    # a_1 B(n+1) - B a_1(n-1) with a_1 = a1_const + eps^2 v1, B = -1 + eps^2 b
    D1 = N * eps2 * (a1_const * (bp - b) + (v1m - v1) + eps2 * (v1 * bp - b * v1m))
    # B (a_0 - a_0(n-1)); the constant part of a_0 cancels in the difference
    dv0 = v0 - v0m
    D2 = N * eps2 * (-dv0 + eps2 * b * dv0)
    return D1, D2


def rhs_flow_k(s: LatticeState, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Recombined flow k right side in scaled variables: da/dt = N^2 * D_{1,.}, etc.

    The stencils are recombined by hierarchy.FLOW_COMBOS, so for k = 2 this
    equals rhs_flow2 up to float roundoff; toda_D is the raw k-th stencil.
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


def _scaled_AB(s: LatticeState) -> tuple[list[int], list[int], int]:
    """A*D and B*D^2 as Python ints over one common denominator D = 2^K N^2.

    Float entries are dyadic, p/q with q a power of two, so the largest q
    (2^K) divides every other: A*D = 2D + p 2^K/q, B*D^2 = (-D + p 2^K/q) D.
    """
    ratios = [x.as_integer_ratio() for x in s.a.tolist() + s.b.tolist()]
    K = max(q for _, q in ratios).bit_length() - 1
    D = s.N**2 << K
    nums = [p << (K + 1 - q.bit_length()) for p, q in ratios]  # p 2^K / q
    return [2 * D + x for x in nums[: s.N]], [(x - D) * D for x in nums[s.N :]], D


def _d_table_exact(A: Sequence, B: Sequence, N: int) -> tuple:
    """d_1(N), d_2(N), d_3(N) by the forward recursion (exact arithmetic).

    d_3 needs d_1(-1) = -A(N-1) from the inverse relation with periodic data.
    Graded (A weight 1, B weight 2): on A*D, B*D^2 it returns D^k d_k.
    """
    d1 = d2 = d3 = 0
    d1_prev = -A[N - 1]  # d_1(-1)
    for n in range(N):
        d3 = d3 + A[n] * d2 + B[n] * d1_prev
        d2 = d2 + A[n] * d1 + B[n]
        d1_prev = d1
        d1 = d1 + A[n]
    return d1, d2, d3


def _d3_generating_product(A: Sequence, B: Sequence) -> object:
    """[z^3] of prod_n (1 + z A(n) + z^2 B(n)), the site-local cubic (graded)."""
    c0, c1, c2, c3 = 1, 0, 0, 0
    for An, Bn in zip(A, B):
        c3 = c3 + c2 * An + c1 * Bn
        c2 = c2 + c1 * An + c0 * Bn
        c1 = c1 + c0 * An
    return c3


def conserved_d(s: LatticeState, i: int) -> float:
    """Exact lattice invariant d_i(N) for i in 1..3, rounded once to float."""
    if i not in (1, 2, 3):
        raise ValueError("conserved_d supports i in 1..3")
    return float(exact_invariants(s)[i - 1])


def exact_invariants(s: LatticeState) -> tuple[Fraction, Fraction, Fraction]:
    """d_1, d_2, d_3 as exact rationals.

    The recursion runs on the ints A*D, B*D^2 of _scaled_AB and returns
    D^k d_k; only the three results become Fractions (about 0.3 ms at
    N = 128, 2.3 ms at N = 1024).  Use it to difference invariants along
    trajectories, where the drift sits far below float64 granularity.
    """
    A, B, D = _scaled_AB(s)
    return tuple(Fraction(d, D**k) for k, d in enumerate(_d_table_exact(A, B, s.N), 1))


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
    C3 subtracts the full divergent part of the site-local cubic (computed
    as a generating product) and expands to
    eps^5 (-7/12 int f^3 + 1/8 int f f'').  C1 and C2 are exactly conserved;
    C3 is conserved to the order of the asymptotics, as is the cubic it uses.
    """
    A, B, D = _scaled_AB(s)
    eps = Fraction(1, s.N)
    d1, d2, d3 = (Fraction(d, D**k) for k, d in enumerate(_d_table_exact(A, B, s.N), 1))
    d3_local = Fraction(_d3_generating_product(A, B), D**3)
    w = d1 - 2 / eps
    v = d2 - 2 / eps**2 + 3 / eps
    C1 = w / eps
    C2 = Fraction(-4, 3) * (v - (2 - eps) / eps * w - w * w / 2)
    P = (
        Fraction(4, 3) / eps**3
        - 6 / eps**2
        + Fraction(14, 3) / eps
        - 2 * w / eps**2
        + (w + 2 * v - 2 * w * w) / eps
        - w**3 / 3
        + w * w
        + w
        + w * v
        - 2 * v
    )
    C3 = P - d3_local
    return ConservedReport(t, float(d1), float(d2), float(d3), float(C1), float(C2), float(C3))


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


def write_state_csv(path, s: LatticeState) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["n", "a", "b"])
        for n in range(s.N):
            wr.writerow([n, f"{s.a[n]:.17g}", f"{s.b[n]:.17g}"])


def read_state_csv(path) -> LatticeState:
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if [h.strip() for h in header] != ["n", "a", "b"]:
            raise ValueError(f"expected header n,a,b in {path}")
        rows = sorted((int(r[0]), float(r[1]), float(r[2])) for r in rd)
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"site indices n in {path} must be exactly 0..N-1, each once")
    a = np.array([r[1] for r in rows])
    b = np.array([r[2] for r in rows])
    return LatticeState(len(rows), a, b)
