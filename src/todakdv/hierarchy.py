"""Symbolic Toda hierarchy over eps-series and its KdV correspondence.

Builds the corrected lattice ansatz

    A(n) = 2 + eps^2 f - eps^3 R(f),      B(n) = -1 + eps^2 f + eps^3 R(f),

evaluated at x + n*eps by Taylor shift, runs the hierarchy recursions for the
flows k = 1..4, and verifies exactly (rational arithmetic, zero tolerance)
that the induced evolution satisfies the lattice equations through eps^8.
The per-flow right sides Z_j(f) are recovered as eps-series whose leading
terms are the KdV hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .diffpoly import DiffPoly, EpsSeries, Monomial

__all__ = [
    "DEFAULT_CAP",
    "standard_R",
    "AnsatzPair",
    "FlowTable",
    "toda_rhs",
    "flow_rhs",
    "FlowEquation",
    "FLOW_COMBOS",
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


class AnsatzPair:
    """Shifted ansatz series A_of(n), B_of(n) with memoized Taylor shifts."""

    def __init__(self, R: EpsSeries):
        cap = R.order_cap
        f = EpsSeries.f(cap)
        eps2_f = f.eps_shift(2)
        eps3_R = R.eps_shift(3)
        self.cap = cap
        self.R = R
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


class FlowTable:
    """Memoized d_i(n) table over eps-series for one flow index k.

    The continuant recursion
        d_i(n+1) = d_i(n) + A(n) d_{i-1}(n) + B(n) d_{i-2}(n-1),
    whose d_i(N) are the exact spectral invariants.  Negative n uses the exact
    inverse relation.  Indices are restricted to the window the flow
    construction needs; anything outside raises.
    """

    def __init__(self, ansatz: AnsatzPair, k: int):
        self.ansatz = ansatz
        self.k = k
        self._n_range = 2 * k + 2
        self._d: dict[tuple[int, int], EpsSeries] = {}

    def d(self, i: int, n: int) -> EpsSeries:
        if i > self.k + 1 or abs(n) > self._n_range:
            raise ValueError(f"d({i},{n}) outside table range for k={self.k}")
        if i < 0:
            return EpsSeries.zero(self.ansatz.cap)
        if i == 0:
            return EpsSeries.const(1, self.ansatz.cap)
        if n == 0:
            return EpsSeries.zero(self.ansatz.cap)
        key = (i, n)
        got = self._d.get(key)
        if got is not None:
            return got
        if n > 0:
            val = (
                self.d(i, n - 1)
                + self.ansatz.A_of(n - 1) * self.d(i - 1, n - 1)
                + self.ansatz.B_of(n - 1) * self.d(i - 2, n - 2)
            )
        else:
            val = (
                self.d(i, n + 1)
                - self.ansatz.A_of(n) * self.d(i - 1, n)
                - self.ansatz.B_of(n) * self.d(i - 2, n - 1)
            )
        self._d[key] = val
        return val

    def a(self, p: int, n: int) -> EpsSeries:
        """Descending recursion a_p(n) for the k-th flow stencils."""
        k = self.k
        X = self.d(k - p, n + k) - self.d(k - p, n)
        for r in range(p + 1, k):
            X = X - self.a(r, n) * self.d(r - p, n + r)
        return X


def toda_rhs(k: int, ansatz: AnsatzPair) -> tuple[EpsSeries, EpsSeries]:
    """Symbolic flow stencils (XZ, YZ) at the base site, scale factor N deferred.

    XZ is the right side of dA/dt and YZ of dB/dt, both divided by N; for
    k = 1 they are B(0)-B(1) and B(0)(A(0)-A(-1)).
    """
    if not 1 <= k <= 4:
        raise ValueError("flow index k must be in 1..4")
    if k == 1:
        XZ = ansatz.B_of(0) - ansatz.B_of(1)
        YZ = ansatz.B_of(0) * (ansatz.A_of(0) - ansatz.A_of(-1))
        return XZ, YZ
    table = FlowTable(ansatz, k)
    XZ = table.a(1, 0) * ansatz.B_of(1) - table.a(1, -1) * ansatz.B_of(0)
    YZ = ansatz.B_of(0) * (table.a(0, 0) - table.a(0, -1))
    return XZ, YZ


def _induced(XZ: EpsSeries, YZ: EpsSeries) -> EpsSeries:
    # the df/dt that the stencils (XZ, YZ) induce on the ansatz
    return (XZ + YZ).scale(F(1, 2)).eps_div(3)


def flow_rhs(k: int, ansatz: AnsatzPair) -> EpsSeries:
    """Raw induced df/dt for the k-th flow: (XZ + YZ) / (2 eps^3)."""
    return _induced(*toda_rhs(k, ansatz))


@dataclass(frozen=True)
class FlowEquation:
    """Right side Z_j of df/dt for the recombined j-th flow."""

    j: int
    Z: EpsSeries


# Z_j = sum of c * AA_i over FLOW_COMBOS[j] = {i: c}, AA_i the raw i-th flow;
# the numeric lattice flows (lattice.rhs_flow_k) recombine by the same table.
FLOW_COMBOS = {1: {1: 1}, 2: {2: 1, 1: 2}, 3: {3: 1, 1: -2, 2: 2}, 4: {4: 1, 1: 4, 2: -2, 3: 2}}


def flow_rhs_combined(j: int, ansatz: AnsatzPair) -> FlowEquation:
    """The comprehensible linear combinations of the raw flows.

    Direct form (FLOW_COMBOS): Z2 = AA2 + 2 AA1, Z3 = AA3 - 2 AA1 + 2 AA2,
    Z4 = AA4 + 4 AA1 - 2 AA2 + 2 AA3.  Cumulatively these are the paper's
    Z1 = AA1, Z2 = AA2 + 2 Z1, Z3 = AA3 - 6 Z1 + 2 Z2,
    Z4 = AA4 + 20 Z1 - 6 Z2 + 2 Z3.
    """
    if not 1 <= j <= 4:
        raise ValueError("flow index j must be in 1..4")
    Z = EpsSeries.zero(ansatz.cap)
    for i, c in FLOW_COMBOS[j].items():
        Z = Z + flow_rhs(i, ansatz).scale(c)
    return FlowEquation(j, Z)


def residual(j: int, ansatz: AnsatzPair) -> EpsSeries:
    """B-equation defect of the ansatz under the induced j-th flow.

    Returns dt B(0) - YZ_j / eps where dt is taken along df/dt = AA_j.  With
    the six-term R this vanishes identically through eps^8 for j = 1..4.
    """
    XZ, YZ = toda_rhs(j, ansatz)
    return ansatz.B_of(0).dt_along(_induced(XZ, YZ)) - YZ.eps_div(1)


def residual_A(j: int, ansatz: AnsatzPair) -> EpsSeries:
    """A-equation defect; identically the negative of the B-equation defect."""
    XZ, YZ = toda_rhs(j, ansatz)
    return ansatz.A_of(0).dt_along(_induced(XZ, YZ)) - XZ.eps_div(1)


def kdv_leading(j: int, cap: int = DEFAULT_CAP) -> DiffPoly:
    """Lowest nonvanishing eps-coefficient of Z_j (for j=2 the KdV operator)."""
    eq = flow_rhs_combined(j, AnsatzPair(standard_R(cap)))
    k0 = eq.Z.first_nonzero_order()
    if k0 is None:
        raise RuntimeError(f"Z_{j} vanished identically (cap too small?)")
    return eq.Z.coeff(k0)


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
    result = DiffPoly.zero()
    while not remainder.is_zero():
        top, coeff = remainder.sorted_terms()[0]
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
        q_term = DiffPoly({q_mono: c})
        result = result + q_term
        remainder = remainder - q_term.x_derive()
    return result


@dataclass(frozen=True)
class ExtendResult:
    """Outcome of one correction-series extension step."""

    status: str  # "extended" | "obstruction" | "flat"
    flow: int
    order: int | None = None  # index of the new R coefficient, if any
    phi: DiffPoly | None = None
    new_R: EpsSeries | None = None
    remainder: DiffPoly | None = None
    first_defect_order: int | None = None

    def summary(self) -> str:
        if self.status == "flat":
            return "residual already vanishes at this cap; canonical choice phi = 0"
        if self.status == "extended":
            return (
                f"extended: R coefficient at eps^{self.order} is {self.phi} "
                f"(defect was at eps^{self.first_defect_order})"
            )
        return (
            f"obstruction at eps^{self.first_defect_order}: remainder {self.remainder} "
            "is not a total x-derivative"
        )


def extend_R(
    R: EpsSeries,
    flow: int = 1,
    known_through: int | None = None,
    cap: int | None = None,
) -> ExtendResult:
    """Attempt to compute the next coefficient of the correction series.

    Rebuilds the ansatz from ``R`` (assumed valid through eps-index
    ``known_through``; default: its highest nonzero coefficient), locates the
    first nonvanishing residual order q, and solves 2 phi' = residual_q by
    exact integration.  The sign convention is self-calibrating: the candidate
    is accepted only if the rebuilt residual defect moves past q.

    With the default cap the working window always reaches the first expected
    defect order.  An explicit smaller ``cap`` is honored as-is; if the
    residual already vanishes on the whole visible window the operation
    reports "flat" and returns the canonical choice phi = 0.
    """
    if known_through is None:
        known_through = max(
            (k for k, c in enumerate(R.coeffs) if not c.is_zero()), default=-1
        )
    work_cap = cap if cap is not None else max(known_through + 7, DEFAULT_CAP)
    if work_cap < 6:
        raise ValueError("extend_R needs cap >= 6")
    R_work = EpsSeries(list(R.coeffs), order_cap=work_cap)
    res = residual(flow, AnsatzPair(R_work))
    q = res.first_nonzero_order()
    if q is None:
        return ExtendResult(status="flat", flow=flow, phi=DiffPoly.zero(), new_R=R_work)
    defect = res.coeff(q)
    try:
        half = integrate_total_derivative(defect).scale(F(1, 2))
    except ObstructionError as err:
        return ExtendResult(
            status="obstruction",
            flow=flow,
            remainder=err.remainder,
            first_defect_order=q,
        )
    r_index = q - 3
    for phi in (half, -half):
        coeffs = list(R_work.coeffs)
        coeffs[r_index] = coeffs[r_index] + phi
        R_new = EpsSeries(coeffs)
        res_new = residual(flow, AnsatzPair(R_new))
        q_new = res_new.first_nonzero_order()
        if q_new is None or q_new > q:
            return ExtendResult(
                status="extended",
                flow=flow,
                order=r_index,
                phi=phi,
                new_R=R_new,
                first_defect_order=q,
            )
    return ExtendResult(
        status="obstruction",
        flow=flow,
        remainder=defect,
        first_defect_order=q,
    )
