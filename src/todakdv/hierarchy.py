"""Symbolic Toda hierarchy over eps-series and its KdV correspondence.

Builds the corrected lattice ansatz

    A(n) = 2 + eps^2 f - eps^3 R(f),      B(n) = -1 + eps^2 f + eps^3 R(f),

evaluated at x + n*eps by Taylor shift, runs the hierarchy recursions for any
flow 1 <= k <= MAX_FLOW, and verifies exactly (rational arithmetic, zero
tolerance) that the induced evolution satisfies the lattice equations through
eps^8.  Every flow reads one table of continuants d_i(n) per window
(ContinuantWindow), since they do not depend on k, and only at the base
site: the values at site -1 are those at site 0 moved back one site.  Each
continuant step and each hierarchy sum is one fused sum of products
(EpsSeries.combine) rather than a chain of series operations.  The raw flows AA_i
recombine into the right sides Z_k(f) by one rule, the Taylor coefficients of
sqrt(1 + 4x) (flow_combination); the leading term of Z_k is the (2k-1)-th
order member of the KdV hierarchy.  extend_R finds the next coefficient of
the correction series R by exact integration of the flow-1 defect; it either
extends R or reports the defect as an obstruction.  Its acceptance check
builds the flow-1 residual of the extended R at the next step's working cap,
and the accepted R carries it, so a chain of n steps builds n + 1 residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diffpoly import DiffPoly, EpsSeries, Monomial

__all__ = [
    "DEFAULT_CAP",
    "standard_R",
    "ContinuantWindow",
    "AnsatzPair",
    "MAX_FLOW",
    "toda_rhs",
    "flow_rhs",
    "flow_combination",
    "flow_rhs_combined",
    "residual",
    "residual_A",
    "kdv_leading",
    "ObstructionError",
    "integrate_total_derivative",
    "ExtendResult",
    "extend_R",
]

DEFAULT_CAP = 11

F = Fraction


def standard_R(cap: int = DEFAULT_CAP) -> EpsSeries:
    """The six-term correction series R(f) through its eps^5 coefficient."""
    if cap < 6:
        raise ValueError("standard_R needs cap >= 6")
    r = [
        DiffPoly.from_terms((F(-1, 4), [(1, 1)])),
        DiffPoly.from_terms((F(-1, 8), [(0, 2)])),
        DiffPoly.from_terms((F(1, 192), [(3, 1)])),
        DiffPoly.from_terms(
            (F(1, 64), [(0, 1), (2, 1)]),
            (F(1, 64), [(1, 2)]),
            (F(-1, 32), [(0, 3)]),
        ),
        DiffPoly.from_terms(
            (F(-1, 7680), [(5, 1)]),
            (F(1, 64), [(0, 2), (1, 1)]),
        ),
        DiffPoly.from_terms(
            (F(3, 256), [(1, 2), (0, 1)]),
            (F(3, 512), [(0, 2), (2, 1)]),
            (F(-5, 512), [(0, 4)]),
            (F(-1, 1536), [(0, 1), (4, 1)]),
            (F(-3, 2048), [(2, 2)]),
            (F(-1, 384), [(1, 1), (3, 1)]),
        ),
    ]
    return EpsSeries(r, order_cap=cap)


class ContinuantWindow:
    """A window of lattice values with its memoized continuants d_i(n).

    A subclass supplies A_of(n), B_of(n) and the ring's ``zero`` and ``one``,
    and calls ``__init__`` for the empty table.  The continuant recursion

        d_i(n+1) = d_i(n) + A(n) d_{i-1}(n) + B(n) d_{i-2}(n-1)

    does not depend on the flow index, so one table serves every flow run on
    the window; its d_i(N) are the exact spectral invariants.  Negative n uses
    the exact inverse relation.

    Every value is formed by ``combine``, one sum of products per step, and a
    value at site -1 is the one at site 0 moved back by ``back``.  The
    defaults serve windows whose values are numpy arrays over all sites of a
    periodic lattice, in any exact ring; AnsatzPair overrides both.
    """

    def __init__(self):
        self._d: dict[tuple[int, int], object] = {}

    def combine(self, terms):
        """Sum of c * S * T over (c, S, T) triples, where a T of None stands
        for the factor one."""
        total = self.zero
        for c, s, t in terms:
            term = s if t is None else s * t
            if c == -1:
                total = total - term
            else:
                total = total + (term if c == 1 else c * term)
        return total

    def back(self, x):
        """T^-1 x: the value x at each site moved to the next site, so that
        back(v(0)) = v(-1) for a value v(n) read at site n."""
        return np.roll(x, 1)

    def d(self, i: int, n: int):
        if i < 0:
            return self.zero
        if i == 0:
            return self.one
        if n == 0:
            return self.zero
        key = (i, n)
        got = self._d.get(key)
        if got is not None:
            return got
        # forward from d_i(n-1), or backward from d_i(n+1) for n < 0
        sign, m, prev = (1, n - 1, self.d(i, n - 1)) if n > 0 else (-1, n, self.d(i, n + 1))
        val = self._d[key] = self.combine([
            (1, prev, None),
            (sign, self.A_of(m), self.d(i - 1, m)),
            (sign, self.B_of(m), self.d(i - 2, m - 1)),
        ])
        return val


class AnsatzPair(ContinuantWindow):
    """Shifted ansatz series A_of(n), B_of(n) with memoized Taylor shifts."""

    def __init__(self, R: EpsSeries):
        super().__init__()
        cap = R.order_cap
        f = EpsSeries.f(cap)
        eps2_f = f.eps_shift(2)
        eps3_R = R.eps_shift(3)
        self.cap = cap
        self.R = R
        self.zero = EpsSeries.zero(cap)
        self.one = EpsSeries.const(1, cap)
        self.base_A = EpsSeries.const(2, cap) + eps2_f - eps3_R
        self.base_B = EpsSeries.const(-1, cap) + eps2_f + eps3_R
        self._A: dict[int, EpsSeries] = {0: self.base_A}
        self._B: dict[int, EpsSeries] = {0: self.base_B}

    def A_of(self, n: int) -> EpsSeries:
        s = self._A.get(n)
        if s is None:
            s = self._A[n] = self.base_A.shift(n)
        return s

    def B_of(self, n: int) -> EpsSeries:
        s = self._B.get(n)
        if s is None:
            s = self._B[n] = self.base_B.shift(n)
        return s

    def combine(self, terms) -> EpsSeries:
        return EpsSeries.combine(terms)

    def back(self, x: EpsSeries) -> EpsSeries:
        return x.shift(-1)


# The cost grows steeply with k (residual at the default cap, 2 vCPUs: 0.11-0.15 s
# at k = 16, 0.5-0.65 s at 32, 2.1-2.4 s at 64); the bound keeps every accepted
# flow to seconds and the continuant recursion far inside Python's depth limit.
MAX_FLOW = 64


def _check_flow(k: int) -> None:
    if k < 1:
        raise ValueError(f"flow index k must be >= 1, got {k}")
    if k > MAX_FLOW:
        raise ValueError(f"flow index k = {k} is above the bound MAX_FLOW = {MAX_FLOW}")


def toda_rhs(k: int, window: ContinuantWindow) -> tuple[EpsSeries, EpsSeries]:
    """Symbolic flow stencils (XZ, YZ) at the base site, scale factor N deferred.

    XZ is the right side of dA/dt and YZ of dB/dt, both divided by N; for
    k = 1 they are B(0)-B(1) and B(0)(A(0)-A(-1)).  lattice.toda_D passes
    an exact integer window in place of the ansatz.  For k >= 2 they read
    the descending recursion a_p(n), p = k-1..0, at n = 0 only: the window
    is translation covariant, so a_p(-1) is a_p(0) moved back one site,

        XZ = G - T^-1 G  with G = a_1(0) B(1),    YZ = B(0) (a_0(0) - T^-1 a_0(0)),

    with T^-1 the window's ``back``.
    """
    _check_flow(k)
    B0 = window.B_of(0)
    if k == 1:
        XZ = B0 - window.B_of(1)
        YZ = B0 * (window.A_of(0) - window.A_of(-1))
        return XZ, YZ
    d, a, combine = window.d, {}, window.combine
    for p in range(k - 1, -1, -1):
        # d_(k-p)(0) = 0, so a_p(0) = d_(k-p)(k) - sum_r a_r(0) d_(r-p)(r)
        a[p] = combine([(1, d(k - p, k), None)] + [(-1, a[r], d(r - p, r)) for r in range(p + 1, k)])
    G = combine([(1, a[1], window.B_of(1))])
    XZ = combine([(1, G, None), (-1, window.back(G), None)])
    YZ = combine([(1, B0, a[0]), (-1, B0, window.back(a[0]))])
    return XZ, YZ


def _induced(XZ: EpsSeries, YZ: EpsSeries) -> EpsSeries:
    # the df/dt that the stencils (XZ, YZ) induce on the ansatz
    return (XZ + YZ).scale(F(1, 2)).eps_div(3)


def flow_rhs(k: int, ansatz: AnsatzPair) -> EpsSeries:
    """Raw induced df/dt for the k-th flow: (XZ + YZ) / (2 eps^3)."""
    return _induced(*toda_rhs(k, ansatz))


def flow_combination(k: int) -> dict[int, int]:
    """{i: c} with Z_k = sum of c * AA_i over the raw flows AA_i, i = k, k-1, ..., 1.

    The c are the Taylor coefficients of sqrt(1 + 4x), 1, 2, -2, 4, -10, 28,
    ..., from c_0 = 1 and c_(j+1) = c_j (2 - 4j) / (j + 1), and c_j weighs
    AA_(k-j).  For k < 1 the result is {k: 1}, which toda_rhs rejects.
    """
    c, combo = 1, {k: 1}
    for j in range(k - 1):
        c = c * (2 - 4 * j) // (j + 1)
        combo[k - 1 - j] = c
    return combo


def flow_rhs_combined(k: int, ansatz: AnsatzPair) -> EpsSeries:
    """Z_k, the comprehensible linear combination of the raw flows.

    Direct form (flow_combination): Z2 = AA2 + 2 AA1, Z3 = AA3 + 2 AA2 - 2 AA1,
    Z4 = AA4 + 2 AA3 - 2 AA2 + 4 AA1.  Cumulatively these are the paper's
    Z_k = AA_k + 2 Z_(k-1) - 6 Z_(k-2) + 20 Z_(k-3) - 70 Z_(k-4) ...
    The combination cancels every eps power of Z_k below 2k - 2 once R is
    known through R_(2k-3): the six-term standard_R serves k <= 4, and
    kdv_leading extends it for higher k.
    """
    Z = ansatz.zero
    for i, c in flow_combination(k).items():
        Z = Z + flow_rhs(i, ansatz).scale(c)
    return Z


def residual(j: int, ansatz: AnsatzPair) -> EpsSeries:
    """B-equation defect of the ansatz under the induced j-th flow.

    Returns dt B(0) - YZ_j / eps where dt is taken along df/dt = AA_j.  With
    the six-term R this vanishes identically through eps^8 (checked for
    j = 1..6).
    """
    XZ, YZ = toda_rhs(j, ansatz)
    return ansatz.B_of(0).dt_along(_induced(XZ, YZ)) - YZ.eps_div(1)


def residual_A(j: int, ansatz: AnsatzPair) -> EpsSeries:
    """A-equation defect; identically the negative of the B-equation defect."""
    XZ, YZ = toda_rhs(j, ansatz)
    return ansatz.A_of(0).dt_along(_induced(XZ, YZ)) - XZ.eps_div(1)


def kdv_leading(j: int) -> DiffPoly:
    """Lowest nonvanishing eps-coefficient of Z_j: the (2j-1)-th order KdV flow.

    That coefficient sits at eps^(2j-2) and depends on R_0..R_(2j-3), so
    standard_R is extended by extend_R until it holds them (j >= 5).
    """
    _check_flow(j)
    R = standard_R()
    for order in range(6, 2 * j - 2):
        out = extend_R(R)
        if out.status != "extended":
            raise RuntimeError(f"cannot extend R to R_{order}: {out.summary()}")
        R = out.new_R
    Z = flow_rhs_combined(j, AnsatzPair(R))
    k0 = Z.first_nonzero_order()
    if k0 is None:
        raise RuntimeError(f"Z_{j} vanished identically on its eps window")
    return Z.coeff(k0)


class ObstructionError(ValueError):
    """A differential polynomial that is not an exact x-derivative."""

    def __init__(self, remainder: DiffPoly):
        super().__init__(f"not a total x-derivative; remainder {remainder}")
        self.remainder = remainder


def integrate_total_derivative(p: DiffPoly) -> DiffPoly:
    """Invert d/dx on differential polynomials.

    Greedy reduction by the leading monomial: a reducible top term has its
    single highest derivative f^(K) with exponent one, and lowering it gives
    the antiderivative term.  A top term with K = 0 or exponent >= 2 cannot
    occur in any exact derivative, so the remainder is a genuine obstruction.
    The integration constant is fixed to zero.
    """
    remainder = p
    result: list[tuple[Monomial, Fraction]] = []
    while not remainder.is_zero():
        top, coeff = remainder.leading_term()
        K = top.max_order()
        if K <= 0:
            raise ObstructionError(remainder)
        exps = dict(top.pairs)
        if exps[K] != 1:
            raise ObstructionError(remainder)
        del exps[K]
        exps[K - 1] = exps.get(K - 1, 0) + 1
        q_mono = Monomial(exps)
        c = coeff / exps[K - 1]
        result.append((q_mono, c))
        remainder = remainder - DiffPoly({q_mono: c}).x_derive()
    return DiffPoly(result)


@dataclass(frozen=True)
class ExtendResult:
    """Outcome of one correction-series extension step."""

    status: str  # "extended" | "obstruction"
    order: int | None = None  # index of the new R coefficient, if any
    phi: DiffPoly | None = None
    new_R: EpsSeries | None = None
    remainder: DiffPoly | None = None
    first_defect_order: int | None = None

    def summary(self) -> str:
        if self.status == "extended":
            return (
                f"extended: R coefficient at eps^{self.order} is {self.phi} "
                f"(defect was at eps^{self.first_defect_order})"
            )
        return (
            f"obstruction at eps^{self.first_defect_order}: remainder {self.remainder} "
            "is not a total x-derivative"
        )


class _CheckedR(EpsSeries):
    """A series that extend_R accepted, carrying the flow-1 residual that its
    acceptance check built: residual(1, ...) of the series at its working
    cap (or above it, with the same first defect), which is all the next
    extend_R step reads of it.  Only extend_R makes one, so a value-equal
    series computes its residual afresh."""

    __slots__ = ("flow1_residual",)

    def __init__(self, coeffs, flow1_residual: EpsSeries):
        super().__init__(coeffs)
        self.flow1_residual = flow1_residual


def _working_cap(coeffs) -> int:
    known = max((k for k, c in enumerate(coeffs) if not c.is_zero()), default=-1)
    return max(known + 7, DEFAULT_CAP)


def extend_R(R: EpsSeries) -> ExtendResult:
    """Attempt to compute the next coefficient of the correction series.

    Rebuilds the ansatz from ``R`` (assumed valid through its highest nonzero
    coefficient), locates the first nonvanishing flow-1 residual order q,
    and solves 2 phi' = residual_q by exact integration.  The normalization
    2 phi' = defect, sign included, is the flow-1 linearization and does not
    depend on R, so the flow-1 residual is the one to extend against; the
    extended R then fixes the residuals of the higher flows as well.  The
    candidate is accepted only if the rebuilt residual defect moves past q;
    otherwise the defect is reported as an obstruction.  So there are two
    outcomes, "extended" (with the new R) and "obstruction".

    The working cap is max(known + 7, DEFAULT_CAP) for R_known the highest
    nonzero coefficient, so the residual window reaches eps^(known + 4), the
    order of the defect that R_(known+1) fixes: the window always holds the
    next defect unless that coefficient is zero, and none of R_0..R_9 is.

    The acceptance check runs at the working cap of the next step, that of
    the candidate (known + 8 when it extends R past R_known), or at the
    current cap if that is higher.  Truncation is consistent: a residual at
    cap c is the one at any higher cap truncated to its cap c - 3, so the
    check decides as it would at the current cap, and the next step finds
    the same first defect in it.  The accepted new_R carries that residual,
    and extend_R(new_R) starts from it instead of rebuilding it: a chain of
    n steps runs n + 1 flow-1 residuals, not 2n.
    """
    cap = _working_cap(R.coeffs)
    R_work = EpsSeries(list(R.coeffs), order_cap=cap)
    if isinstance(R, _CheckedR):
        res = R.flow1_residual
    else:
        res = residual(1, AnsatzPair(R_work))
    q = res.first_nonzero_order()
    defect = res.coeff(q)
    try:
        phi = integrate_total_derivative(defect).scale(F(1, 2))
    except ObstructionError as err:
        return ExtendResult(
            status="obstruction",
            remainder=err.remainder,
            first_defect_order=q,
        )
    r_index = q - 3
    coeffs = list(R_work.coeffs)
    coeffs[r_index] = coeffs[r_index] + phi
    res_new = residual(1, AnsatzPair(EpsSeries(coeffs, order_cap=max(_working_cap(coeffs), cap))))
    q_new = res_new.first_nonzero_order()
    if q_new is None or q_new > q:
        return ExtendResult(
            status="extended",
            order=r_index,
            phi=phi,
            new_R=_CheckedR(coeffs, res_new),
            first_defect_order=q,
        )
    return ExtendResult(
        status="obstruction",
        remainder=defect,
        first_defect_order=q,
    )
