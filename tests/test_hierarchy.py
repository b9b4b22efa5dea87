from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_fraction_state
from todakdv import hierarchy
from todakdv.diffpoly import DiffPoly, EpsSeries, Monomial
from todakdv.hierarchy import (
    MAX_FLOW,
    AnsatzPair,
    ContinuantWindow,
    ObstructionError,
    extend_R,
    flow_rhs,
    flow_rhs_combined,
    integrate_total_derivative,
    kdv_leading,
    residual,
    residual_A,
    standard_R,
    toda_rhs,
)
from todakdv.lattice import LatticeState, builtin_profile, init_from_ansatz, toda_D

T = DiffPoly.from_terms


@pytest.fixture(scope="module")
def ansatz():
    return AnsatzPair(standard_R(11))


@pytest.fixture(scope="module")
def Z(ansatz):
    return {j: flow_rhs_combined(j, ansatz) for j in range(1, 7)}


# -- the verified series, as printed -------------------------------------------

R_COEFFS = {
    0: T((F(-1, 4), [(1, 1)])),
    1: T((F(-1, 8), [(0, 2)])),
    2: T((F(1, 192), [(3, 1)])),
    3: T((F(1, 64), [(0, 1), (2, 1)]), (F(1, 64), [(1, 2)]), (F(-1, 32), [(0, 3)])),
    4: T((F(-1, 7680), [(5, 1)]), (F(1, 64), [(0, 2), (1, 1)])),
    5: T(
        (F(3, 256), [(1, 2), (0, 1)]),
        (F(3, 512), [(0, 2), (2, 1)]),
        (F(-5, 512), [(0, 4)]),
        (F(-1, 1536), [(0, 1), (4, 1)]),
        (F(-3, 2048), [(2, 2)]),
        (F(-1, 384), [(1, 1), (3, 1)]),
    ),
}

Z_COEFFS = {
    (1, 0): T((-1, [(1, 1)])),
    (1, 2): T((F(-1, 24), [(3, 1)]), (F(1, 2), [(0, 1), (1, 1)])),
    (1, 4): T(
        (F(-1, 1920), [(5, 1)]),
        (F(1, 16), [(0, 2), (1, 1)]),
        (F(1, 32), [(1, 1), (2, 1)]),
        (F(1, 48), [(0, 1), (3, 1)]),
    ),
    (1, 5): T((F(1, 128), [(2, 2)]), (F(1, 128), [(1, 1), (3, 1)])),
    (1, 6): T(
        (F(-1, 322560), [(7, 1)]),
        (F(1, 128), [(1, 3)]),
        (F(-1, 1536), [(2, 1), (3, 1)]),
        (F(1, 384), [(0, 2), (3, 1)]),
        (F(1, 64), [(1, 1), (0, 1), (2, 1)]),
        (F(1, 64), [(0, 3), (1, 1)]),
        (F(1, 3840), [(0, 1), (5, 1)]),
        (F(1, 1536), [(1, 1), (4, 1)]),
    ),
    (2, 2): T((F(-1, 4), [(3, 1)]), (3, [(0, 1), (1, 1)])),
    (2, 4): T(
        (F(3, 8), [(0, 1), (3, 1)]),
        (F(-9, 8), [(0, 2), (1, 1)]),
        (F(-1, 64), [(5, 1)]),
        (F(11, 16), [(1, 1), (2, 1)]),
    ),
    (2, 5): T((F(3, 64), [(2, 2)]), (F(3, 64), [(1, 1), (3, 1)])),
    (2, 6): T(
        (F(-1, 2560), [(7, 1)]),
        (F(-1, 64), [(1, 3)]),
        (F(49, 768), [(2, 1), (3, 1)]),
        (F(-5, 64), [(0, 2), (3, 1)]),
        (F(-7, 32), [(1, 1), (0, 1), (2, 1)]),
        (F(-9, 32), [(0, 3), (1, 1)]),
        (F(11, 640), [(0, 1), (5, 1)]),
        (F(35, 768), [(1, 1), (4, 1)]),
    ),
    (3, 4): T(
        (F(5, 4), [(0, 1), (3, 1)]),
        (F(-15, 2), [(0, 2), (1, 1)]),
        (F(-1, 16), [(5, 1)]),
        (F(5, 2), [(1, 1), (2, 1)]),
    ),
    (3, 6): T(
        (F(-1, 192), [(7, 1)]),
        (F(-5, 4), [(1, 3)]),
        (F(155, 192), [(2, 1), (3, 1)]),
        (F(-45, 32), [(0, 2), (3, 1)]),
        (F(-85, 16), [(1, 1), (0, 1), (2, 1)]),
        (F(15, 8), [(0, 3), (1, 1)]),
        (F(11, 64), [(0, 1), (5, 1)]),
        (F(47, 96), [(1, 1), (4, 1)]),
    ),
    (4, 6): T(
        (F(-1, 64), [(7, 1)]),
        (F(-35, 8), [(1, 3)]),
        (F(35, 16), [(2, 1), (3, 1)]),
        (F(-35, 8), [(0, 2), (3, 1)]),
        (F(-35, 2), [(1, 1), (0, 1), (2, 1)]),
        (F(35, 2), [(0, 3), (1, 1)]),
        (F(7, 16), [(0, 1), (5, 1)]),
        (F(21, 16), [(1, 1), (4, 1)]),
    ),
}

Z_NONZERO_ORDERS = {1: (0, 2, 4, 5, 6), 2: (2, 4, 5, 6), 3: (4, 6), 4: (6,)}


def test_standard_R_coefficients():
    R = standard_R(11)
    for k, expect in R_COEFFS.items():
        assert R.coeff(k) == expect, f"R coefficient at eps^{k}"
    for k in range(6, 12):
        assert R.coeff(k).is_zero()


def test_standard_R_requires_room():
    with pytest.raises(ValueError):
        standard_R(5)


# -- ansatz -----------------------------------------------------------------------


def test_ansatz_base_values(ansatz):
    assert ansatz.A_of(0).coeff(0) == DiffPoly.const(2)
    assert ansatz.B_of(0).coeff(0) == DiffPoly.const(-1)


def test_ansatz_sum_is_R_independent(ansatz):
    cap = ansatz.cap
    target_base = (
        EpsSeries.const(1, cap) + EpsSeries.f(cap).eps_shift(2).scale(2)
    )
    other = AnsatzPair(EpsSeries.of_poly(DiffPoly.f(exp=3), cap))  # any other R
    for n in (-2, -1, 0, 1, 2):
        expect = target_base.shift(n)
        assert ansatz.A_of(n) + ansatz.B_of(n) == expect
        assert other.A_of(n) + other.B_of(n) == expect


# -- d table ------------------------------------------------------------------------


def test_d_base_cases(ansatz):
    assert ansatz.d(0, 5) == EpsSeries.const(1, ansatz.cap)
    assert ansatz.d(2, 0).is_zero()
    assert ansatz.d(-1, 3).is_zero()
    assert ansatz.d(1, 1) == ansatz.A_of(0)
    # one unrolling: d(2,1) = d(2,0) + A(0) d(1,0) + B(0) d(0,-1) = B(0)
    assert ansatz.d(2, 1) == ansatz.B_of(0)


def test_d_forward_backward_consistency(ansatz):
    for i in (1, 2):
        for n in (2, 1, 0):
            lhs = ansatz.d(i, n)
            rhs = (
                ansatz.d(i, n + 1)
                - ansatz.A_of(n) * ansatz.d(i - 1, n)
                - ansatz.B_of(n) * ansatz.d(i - 2, n - 1)
            )
            assert lhs == rhs, (i, n)


@pytest.mark.parametrize("k, entries", [(4, 18), (6, 42), (8, 76)])
def test_flows_share_one_continuant_table(k, entries):
    # d_i(n) does not depend on the flow index: the lower flows of Z_k only
    # read entries that the k-th flow has already put in the window's table
    alone = AnsatzPair(standard_R())
    toda_rhs(k, alone)
    combined = AnsatzPair(standard_R())
    flow_rhs_combined(k, combined)
    assert len(alone._d) == entries
    assert combined._d.keys() == alone._d.keys()


# -- flow stencils -----------------------------------------------------------------


def _toda_rhs_two_sided(k, window):
    """toda_rhs reading a_p at both n = 0 and n = -1 (test oracle).

    Keeps its own continuant table, negative n by the inverse relation, and
    uses only the ring operations on the window's A_of, B_of, zero and one:
    no ``combine``, no ``back`` and no shared table.
    """
    A, B, table = window.A_of, window.B_of, {}

    def d(i, n):
        if i < 0 or (i > 0 and n == 0):
            return window.zero
        if i == 0:
            return window.one
        if (i, n) not in table:
            if n > 0:
                table[i, n] = d(i, n - 1) + A(n - 1) * d(i - 1, n - 1) + B(n - 1) * d(i - 2, n - 2)
            else:
                table[i, n] = d(i, n + 1) - A(n) * d(i - 1, n) - B(n) * d(i - 2, n - 1)
        return table[i, n]

    if k == 1:
        return B(0) - B(1), B(0) * (A(0) - A(-1))
    a = {}
    for n in (0, -1):
        for p in range(k - 1, -1, -1):
            X = d(k - p, n + k) - d(k - p, n)
            for r in range(p + 1, k):
                X = X - a[r, n] * d(r - p, n + r)
            a[p, n] = X
    return a[1, 0] * B(1) - a[1, -1] * B(0), B(0) * (a[0, 0] - a[0, -1])


class _SiteWindow(ContinuantWindow):
    """A = 2 + eps^2 a, B = -1 + eps^2 b as exact Fractions at every site of a
    periodic lattice; back is the default np.roll."""

    zero, one = 0, 1

    def __init__(self, a, b):
        super().__init__()
        eps2 = F(1, len(a) ** 2)
        self._A = np.array([2 + eps2 * x for x in a], dtype=object)
        self._B = np.array([-1 + eps2 * x for x in b], dtype=object)

    def A_of(self, n):
        return np.roll(self._A, -n)

    def B_of(self, n):
        return np.roll(self._B, -n)


@pytest.mark.parametrize("N", [9, 16])
def test_toda_rhs_matches_two_sided_recursion_on_exact_sites(N):
    # random rational data, far from smooth; k > N wraps around the lattice
    a, b = random_fraction_state(N, seed=N)
    window = _SiteWindow(a, b)
    for k in range(1, 13):
        XZ, YZ = toda_rhs(k, window)
        XZ_two, YZ_two = _toda_rhs_two_sided(k, _SiteWindow(a, b))
        assert XZ.tolist() == XZ_two.tolist(), k
        assert YZ.tolist() == YZ_two.tolist(), k


@pytest.mark.parametrize("k", range(1, 7))
def test_toda_rhs_matches_two_sided_recursion_on_the_ansatz(k):
    XZ, YZ = toda_rhs(k, AnsatzPair(standard_R(12)))
    XZ_two, YZ_two = _toda_rhs_two_sided(k, AnsatzPair(standard_R(12)))
    assert XZ == XZ_two
    assert YZ == YZ_two


def test_back_is_the_inverse_site_shift():
    ans = AnsatzPair(standard_R(12))
    assert ans.back(ans.A_of(1)) == ans.A_of(0)
    assert ans.back(ans.B_of(0)) == ans.B_of(-1)
    window = _SiteWindow(*random_fraction_state(9, seed=1))
    assert window.back(window.A_of(0)).tolist() == window.A_of(-1).tolist()


def test_toda_rhs_flow_index_validation(ansatz):
    with pytest.raises(ValueError):
        toda_rhs(-1, ansatz)
    with pytest.raises(ValueError):
        toda_rhs(0, ansatz)
    with pytest.raises(ValueError, match="MAX_FLOW = 64"):
        toda_rhs(MAX_FLOW + 1, ansatz)


def test_constant_profile_kills_first_flow(ansatz):
    XZ, YZ = toda_rhs(1, ansatz)
    assert XZ.drop_derivatives().is_zero()
    assert YZ.drop_derivatives().is_zero()


def test_first_flow_leading_term(ansatz):
    XZ, _ = toda_rhs(1, ansatz)
    assert XZ.first_nonzero_order() == 3
    assert XZ.coeff(3) == DiffPoly.f(1, coeff=-1)


def test_flow2_raw_is_average_over_eps3(ansatz):
    XZ, YZ = toda_rhs(2, ansatz)
    assert flow_rhs(2, ansatz) == (XZ + YZ).scale(F(1, 2)).eps_div(3)


def test_combination_unrolls_to_direct_form(ansatz, Z):
    # the code sums the direct form; the paper states the cumulative one,
    # Z_k = AA_k + 2 Z_(k-1) - 6 Z_(k-2) + 20 Z_(k-3) - 70 Z_(k-4) + 252 Z_(k-5)
    AA = {j: flow_rhs(j, ansatz) for j in range(1, 7)}
    assert Z[1] == AA[1]
    assert Z[2] == AA[2] + Z[1].scale(2)
    assert Z[3] == AA[3] - Z[1].scale(6) + Z[2].scale(2)
    assert Z[4] == AA[4] + Z[1].scale(20) - Z[2].scale(6) + Z[3].scale(2)
    assert Z[5] == AA[5] - Z[1].scale(70) + Z[2].scale(20) - Z[3].scale(6) + Z[4].scale(2)
    assert Z[6] == (
        AA[6] + Z[1].scale(252) - Z[2].scale(70) + Z[3].scale(20) - Z[4].scale(6) + Z[5].scale(2)
    )


def test_flow_equations_match_printed_series(Z):
    for (j, k), expect in Z_COEFFS.items():
        assert Z[j].coeff(k) == expect, f"Z_{j} at eps^{k}"
    for j, orders in Z_NONZERO_ORDERS.items():
        for k in range(7):
            if k not in orders:
                assert Z[j].coeff(k).is_zero(), f"Z_{j} should vanish at eps^{k}"


def test_kdv_leading():
    assert kdv_leading(2) == Z_COEFFS[(2, 2)]
    assert kdv_leading(3) == Z_COEFFS[(3, 4)]
    assert kdv_leading(1) == Z_COEFFS[(1, 0)]


@pytest.mark.parametrize("j, message", [
    pytest.param(0, "flow index k must be >= 1, got 0", id="zero"),
    pytest.param(MAX_FLOW + 1, "flow index k = 65 is above the bound MAX_FLOW = 64", id="above_bound"),
])
def test_kdv_leading_rejects_flow_index_before_extending_R(monkeypatch, j, message):
    """j is checked against toda_rhs's bounds before any extend_R step,
    of which j = MAX_FLOW + 1 would need about 2j - 8."""
    def no_extension(R):
        raise AssertionError("extend_R ran for a flow index outside 1..MAX_FLOW")

    monkeypatch.setattr("todakdv.hierarchy.extend_R", no_extension)
    with pytest.raises(ValueError) as err:
        kdv_leading(j)
    assert str(err.value) == message


@pytest.fixture(scope="module")
def leading():
    return {j: kdv_leading(j) for j in range(1, 7)}


@pytest.mark.parametrize("k", range(1, 7))
def test_kdv_leading_linear_term(leading, k):
    # the dispersive term of the (2k-1)-th order KdV flow: -f^(2k-1) / 4^(k-1)
    linear = {m: c for m, c in leading[k].terms.items() if m.degree() == 1}
    assert linear == {Monomial.f(2 * k - 1): F(-1, 4 ** (k - 1))}


def _frechet(P: DiffPoly, Q: DiffPoly) -> DiffPoly:
    """Derivative of P along f_t = Q: sum over f^(m) of dP/df^(m) * d^m Q / dx^m."""
    Q_derivs = [Q]
    out = DiffPoly.zero()
    for mono, c in P.terms.items():
        for order, exp, rest in mono.partials():
            while len(Q_derivs) <= order:
                Q_derivs.append(Q_derivs[-1].x_derive())
            out = out + DiffPoly({rest: c * exp}) * Q_derivs[order]
    return out


@pytest.mark.parametrize("k", range(1, 7))
def test_kdv_leading_commutes_with_kdv(leading, k):
    # each leading part is a symmetry of KdV: the flows commute exactly
    P, K = leading[k], leading[2]
    assert not P.is_zero()
    assert _frechet(P, K) == _frechet(K, P)


def test_frechet_commutator_is_not_trivially_zero(leading):
    # f_t = f f' is no KdV symmetry; the helper must see that
    P = DiffPoly.f(0) * DiffPoly.f(1)
    assert _frechet(P, leading[2]) != _frechet(leading[2], P)


def test_higher_flows_need_the_extended_R():
    # through R_9 the combination kills every eps power of Z5 (Z6) below 8
    # (10); adding one more AA_1 brings the eps^0 term back
    R = standard_R(11)
    for order in range(6, 10):
        out = extend_R(R)
        assert out.status == "extended" and out.order == order
        R = out.new_R
    ans = AnsatzPair(R)
    Z5 = flow_rhs_combined(5, ans)
    assert Z5.first_nonzero_order() == 8 and Z5.coeff(8) == kdv_leading(5)
    assert Z5.order_cap >= 10
    assert (Z5 + flow_rhs(1, ans)).coeff(0) == DiffPoly.f(1, coeff=-1)
    Z6 = flow_rhs_combined(6, ans)
    assert Z6.first_nonzero_order() == 10 and Z6.coeff(10) == kdv_leading(6)
    # with the six-term R the eps^8 term of Z5 is not the KdV flow
    assert flow_rhs_combined(5, AnsatzPair(standard_R(11))).coeff(8) != kdv_leading(5)


# -- residuals ----------------------------------------------------------------------


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_residual_vanishes_through_eps8(ansatz, j):
    res = residual(j, ansatz)
    assert res.order_cap >= 8
    for k in range(9):
        assert res.coeff(k).is_zero(), f"flow {j} residual at eps^{k}: {res.coeff(k)}"


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_A_residual_is_negative_of_B_residual(ansatz, j):
    res_b = residual(j, ansatz)
    res_a = residual_A(j, ansatz)
    assert res_a == -res_b
    for k in range(9):
        assert res_a.coeff(k).is_zero()


def test_truncated_R_fails_at_eps4():
    R0 = EpsSeries(list(standard_R(11).coeffs[:1]), order_cap=11)
    res = residual(1, AnsatzPair(R0))
    assert res.first_nonzero_order() == 4


# -- exact x-integration and series extension ------------------------------------------

low_polys = st.builds(
    DiffPoly,
    st.dictionaries(
        st.builds(Monomial, st.dictionaries(st.integers(0, 3), st.integers(1, 2), max_size=2)),
        st.builds(F, st.integers(-5, 5), st.integers(1, 4)),
        max_size=3,
    ),
)


@given(low_polys)
@settings(max_examples=50, deadline=None)
def test_integrate_inverts_derivative(q):
    anti = integrate_total_derivative(q.x_derive())
    # unique up to the constant term, which integration fixes to zero
    dropped = DiffPoly(
        {m: c for m, c in q.terms.items() if not m.is_one()}
    )
    assert anti == dropped


@pytest.mark.parametrize(
    "bad",
    [
        DiffPoly.f(exp=2),  # int f^2 dx leaves the algebra
        DiffPoly.f(1, exp=2),  # int f'^2 dx does too
        DiffPoly.const(3),
    ],
)
def test_integrate_obstructions(bad):
    with pytest.raises(ObstructionError):
        integrate_total_derivative(bad)


def test_extend_recovers_first_two_corrections():
    zero_R = EpsSeries.zero(11)
    out = extend_R(zero_R)
    assert out.status == "extended" and out.order == 0
    assert out.phi == DiffPoly.f(1, coeff=F(-1, 4))
    out2 = extend_R(out.new_R)
    assert out2.status == "extended" and out2.order == 1
    assert out2.phi == DiffPoly.f(exp=2, coeff=F(-1, 8))


def _record_residual_caps(monkeypatch):
    """Wrap hierarchy.residual; the list gets the order_cap of each call's R."""
    caps = []
    real = hierarchy.residual

    def recording(j, ansatz):
        caps.append(ansatz.R.order_cap)
        return real(j, ansatz)

    monkeypatch.setattr(hierarchy, "residual", recording)
    return caps


def test_extend_chain_from_zero_reaches_every_defect_through_R9(monkeypatch):
    """From R = 0 every step finds its defect inside the working window and
    extends R: each of R_0..R_9 is nonzero, so no window ever ends before the
    next defect, and R_0..R_5 are those of standard_R.  Each new_R carries
    the flow-1 residual at its working cap, so the chain builds 11, not 20."""
    caps = _record_residual_caps(monkeypatch)
    R = EpsSeries.zero(11)
    for order in range(10):
        out = extend_R(R)
        assert out.status == "extended" and out.order == order
        assert not out.phi.is_zero()
        R = out.new_R
        cap = max(order + 7, 11)
        assert R.flow1_residual == residual(1, AnsatzPair(EpsSeries(list(R.coeffs), order_cap=cap)))
    assert R.truncate(5) == standard_R(11).truncate(5)
    assert len(caps) == 11


def test_extend_chain_from_R3_runs_one_residual_per_step_plus_one(monkeypatch):
    """Each accepted new_R carries the residual its acceptance check built at
    the next step's working cap, so the next step does not rebuild it."""
    caps = _record_residual_caps(monkeypatch)
    R = EpsSeries(list(standard_R(11).coeffs[:4]), order_cap=11)
    for order in range(4, 8):
        out = extend_R(R)
        assert out.status == "extended" and out.order == order
        R = out.new_R
    assert caps == [11, 11, 12, 13, 14]


def test_extend_from_a_value_equal_copy_recomputes_the_residual(monkeypatch):
    first = extend_R(EpsSeries(list(standard_R(11).coeffs[:4]), order_cap=11))
    new_R = first.new_R
    copy = EpsSeries(list(new_R.coeffs), order_cap=new_R.order_cap)
    assert copy == new_R and copy is not new_R
    caps = _record_residual_caps(monkeypatch)
    carried = extend_R(new_R)
    assert caps == [12]
    caps.clear()
    fresh = extend_R(copy)
    assert caps == [11, 12]
    assert fresh == carried and fresh.status == "extended" and fresh.order == 5


def test_extend_full_R_continues_and_fixes_all_flows():
    out = extend_R(standard_R(11))
    assert out.status == "extended" and out.order == 6
    assert not out.phi.is_zero()
    ans = AnsatzPair(out.new_R)
    for j in (1, 2, 3, 4):
        res = residual(j, ans)
        assert res.order_cap >= 9
        for k in range(10):
            assert res.coeff(k).is_zero(), (j, k)


# Taylor coefficients of tanh(x) = sum_m t_m x^(2m+1)
TANH = [F(1), F(-1, 3), F(2, 15), F(-17, 315), F(62, 2835), F(-1382, 155925)]


def test_extended_R_linear_part_is_tanh():
    # the degree-1 part of R is -tanh(eps d/dx / 4) / eps applied to f:
    # -t_(k/2) / 4^(k+1) * f^(k+1) for even k, nothing for odd k
    R = EpsSeries(list(standard_R(11).coeffs[:6]), order_cap=11)
    for order in range(6, 11):
        out = extend_R(R)
        assert out.status == "extended" and out.order == order
        R = out.new_R
    for k in range(11):
        linear = {m: c for m, c in R.coeff(k).terms.items() if m.degree() == 1}
        if k % 2:
            assert linear == {}, k
        else:
            assert linear == {Monomial.f(k + 1): -TANH[k // 2] / 4 ** (k + 1)}, k


# -- numeric cross-check against the lattice stencils -----------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_symbolic_stencils_match_numeric_lattice(ansatz, k):
    prof = builtin_profile("cos")
    N = 64
    state = init_from_ansatz(prof, N)
    D1, D2 = toda_D(state, k)
    XZ, YZ = toda_rhs(k, ansatz)
    jets = prof.jet(np.array([0.0]), max(XZ.max_order(), YZ.max_order()))
    jet0 = [float(j[0]) for j in jets]
    eps = 1.0 / N
    xz_val = XZ.evaluate(jet0, eps) * N
    yz_val = YZ.evaluate(jet0, eps) * N
    assert D1[0] == pytest.approx(xz_val, rel=1e-8)
    assert D2[0] == pytest.approx(yz_val, rel=1e-8)
