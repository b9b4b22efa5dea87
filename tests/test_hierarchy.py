from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from todakdv.diffpoly import DiffPoly, EpsSeries, Monomial
from todakdv.hierarchy import (
    AnsatzPair,
    FlowTable,
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
    return {j: flow_rhs_combined(j, ansatz).Z for j in (1, 2, 3, 4)}


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
    table = FlowTable(ansatz, 3)
    assert table.d(0, 5) == EpsSeries.const(1, ansatz.cap)
    assert table.d(2, 0).is_zero()
    assert table.d(-1, 3).is_zero()
    assert table.d(1, 1) == ansatz.A_of(0)
    # one unrolling: d(2,1) = d(2,0) + A(0) d(1,0) + B(0) d(0,-1) = B(0)
    assert table.d(2, 1) == ansatz.B_of(0)


def test_d_forward_backward_consistency(ansatz):
    table = FlowTable(ansatz, 2)
    for i in (1, 2):
        for n in (2, 1, 0):
            lhs = table.d(i, n)
            back = 1  # continuant offset
            rhs = (
                table.d(i, n + 1)
                - ansatz.A_of(n) * table.d(i - 1, n)
                - ansatz.B_of(n) * table.d(i - 2, n - back)
            )
            assert lhs == rhs, (i, n)


def test_d_out_of_range(ansatz):
    table = FlowTable(ansatz, 2)
    with pytest.raises(ValueError):
        table.d(1, 9)


# -- flow stencils -----------------------------------------------------------------


def test_toda_rhs_flow_index_validation(ansatz):
    with pytest.raises(ValueError):
        toda_rhs(5, ansatz)
    with pytest.raises(ValueError):
        toda_rhs(0, ansatz)


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
    # the code sums the direct form; the paper states the cumulative one
    AA = {j: flow_rhs(j, ansatz) for j in (1, 2, 3, 4)}
    assert Z[1] == AA[1]
    assert Z[2] == AA[2] + Z[1].scale(2)
    assert Z[3] == AA[3] - Z[1].scale(6) + Z[2].scale(2)
    assert Z[4] == AA[4] + Z[1].scale(20) - Z[2].scale(6) + Z[3].scale(2)


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
    out = extend_R(zero_R, flow=1)
    assert out.status == "extended" and out.order == 0
    assert out.phi == DiffPoly.f(1, coeff=F(-1, 4))
    out2 = extend_R(out.new_R, flow=1)
    assert out2.status == "extended" and out2.order == 1
    assert out2.phi == DiffPoly.f(exp=2, coeff=F(-1, 8))


def test_extend_flat_window_returns_canonical_zero():
    # at cap 11 the residual window ends at eps^8, before the next defect
    out = extend_R(standard_R(11), flow=1, cap=11)
    assert out.status == "flat"
    assert out.phi == DiffPoly.zero()
    assert out.new_R.truncate(5) == standard_R(11).truncate(5)


def test_extend_full_R_continues_and_fixes_all_flows():
    out = extend_R(standard_R(11), flow=1)
    assert out.status == "extended" and out.order == 6
    assert not out.phi.is_zero()
    ans = AnsatzPair(out.new_R)
    for j in (1, 2, 3, 4):
        res = residual(j, ans)
        assert res.order_cap >= 9
        for k in range(10):
            assert res.coeff(k).is_zero(), (j, k)


# -- numeric cross-check against the lattice stencils -----------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_symbolic_stencils_match_numeric_lattice(ansatz, k):
    prof = builtin_profile("cos")
    N = 64
    state = init_from_ansatz(prof, N, cap=11)
    D1, D2 = toda_D(state, k)
    XZ, YZ = toda_rhs(k, ansatz)
    jets = prof.jet(np.array([0.0]), max(XZ.max_order(), YZ.max_order()))
    jet0 = [float(j[0]) for j in jets]
    eps = 1.0 / N
    xz_val = XZ.evaluate(jet0, eps) * N
    yz_val = YZ.evaluate(jet0, eps) * N
    assert D1[0] == pytest.approx(xz_val, rel=1e-8)
    assert D2[0] == pytest.approx(yz_val, rel=1e-8)
