from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from todakdv.diffpoly import (
    DerivativeOrderError,
    DiffPoly,
    EpsSeries,
    ExactDivisionError,
    Monomial,
)

# -- strategies ---------------------------------------------------------------

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 5))
monomials = st.builds(
    Monomial,
    st.dictionaries(st.integers(0, 3), st.integers(1, 2), max_size=3),
)
polys = st.builds(
    DiffPoly,
    st.dictionaries(monomials, rationals, max_size=4),
)
# low-order variants keep composed shift/dt chains under the 2*cap order guard
low_monomials = st.builds(
    Monomial,
    st.dictionaries(st.integers(0, 2), st.integers(1, 2), max_size=2),
)
low_polys = st.builds(DiffPoly, st.dictionaries(low_monomials, rationals, max_size=3))
flat_polys = st.builds(
    DiffPoly,
    st.dictionaries(st.builds(Monomial.f, st.just(0), st.integers(1, 3)), rationals, max_size=3),
)


def series(cap=4, poly_strategy=polys):
    return st.builds(
        lambda cs: EpsSeries(cs, order_cap=cap),
        st.lists(poly_strategy, min_size=1, max_size=cap + 1),
    )


f = DiffPoly.f


# -- Monomial / DiffPoly basics ----------------------------------------------


def test_monomial_canonical_form():
    m = Monomial({2: 1, 0: 2})
    assert m.pairs == ((0, 2), (2, 1))
    assert m.degree() == 3
    assert m.weight() == 2
    assert m.max_order() == 2
    assert Monomial({0: 0}).is_one()
    assert str(m) == "f^2 * f''"
    assert str(Monomial({3: 1, 1: 2})) == "f'^2 * f(3)"


def test_diffpoly_normalization():
    p = DiffPoly([(Monomial({0: 1}), F(1)), (Monomial({0: 1}), F(-1))])
    assert p.is_zero()
    q = f() + (-f())
    assert q.is_zero() and len(q) == 0
    assert DiffPoly.const(0).is_zero()


def test_add_examples():
    p = EpsSeries.of_poly(f(), 4, eps_power=2)
    zero = EpsSeries.zero(4)
    assert p + zero == p
    assert p + p == EpsSeries.of_poly(f().scale(2), 4, eps_power=2)
    assert (p - p).is_zero()


def test_mul_examples():
    cap = 4
    ef = EpsSeries.of_poly(f(), cap, eps_power=1)
    assert ef * ef == EpsSeries.of_poly(f(exp=2), cap, eps_power=2)
    one = EpsSeries.const(1, cap)
    p = EpsSeries([f(1), f(exp=2)], order_cap=cap)
    assert p * one == p
    lhs = (one + ef) * (one - ef)
    expect = EpsSeries.const(1, cap) - EpsSeries.of_poly(f(exp=2), cap, eps_power=2)
    assert lhs.truncate(2) == expect.truncate(2)


def test_x_derive_examples():
    assert f(exp=2).x_derive() == DiffPoly.from_terms((2, [(0, 1), (1, 1)]))
    assert DiffPoly.const(F(3, 7)).x_derive().is_zero()
    # d/dx (f f') = f'^2 + f f''
    p = DiffPoly.from_terms((1, [(0, 1), (1, 1)]))
    assert p.x_derive() == DiffPoly.from_terms((1, [(1, 2)]), (1, [(0, 1), (2, 1)]))


def test_shift_examples():
    cap = 2
    fs = EpsSeries.f(cap)
    assert fs.shift(0) == fs
    expect = EpsSeries(
        [f(), f(1), f(2, coeff=F(1, 2))],
        order_cap=cap,
    )
    assert fs.shift(1) == expect
    assert fs.shift(1).shift(-1) == fs


@given(series(4), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_shift_is_truncated_exponential(p, n):
    cap = p.order_cap
    acc = EpsSeries.zero(cap)
    deriv = p
    for i in range(cap + 1):
        if i:
            deriv = deriv.x_derive()
        acc = acc + deriv.scale(F(n**i, factorial(i))).eps_shift(i)
    assert p.shift(n) == acc


def test_shift_discards_untouched_high_coefficients():
    # (d/dx) f'' eps would break the order guard of cap 1, but the shift
    # truncates that term away, so it is never formed
    p = EpsSeries.of_poly(f(2), 1, eps_power=1)
    assert p.shift(1) == p
    with pytest.raises(DerivativeOrderError):
        p.x_derive()


@given(series(4, flat_polys), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=25, deadline=None)
def test_shift_composes_additively(p, n, m):
    assert p.shift(n).shift(m) == p.shift(n + m)


def test_dt_examples():
    cap = 3
    h = EpsSeries([f(1).scale(-1), f(exp=2)], order_cap=cap)
    fs = EpsSeries.f(cap)
    assert fs.dt_along(h) == h
    f2 = EpsSeries.of_poly(f(exp=2), cap)
    assert f2.dt_along(h) == h.mul_poly(f().scale(2))
    # dt f' along h = -f' is -f''
    fp = EpsSeries.of_poly(f(1), cap)
    minus_fp = EpsSeries.of_poly(f(1, coeff=-1), cap)
    assert fp.dt_along(minus_fp) == EpsSeries.of_poly(f(2, coeff=-1), cap)


# -- algebraic properties -------------------------------------------------------


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_x_derive_is_derivation(p, q):
    assert (p * q).x_derive() == p.x_derive() * q + p * q.x_derive()


@given(series(4, low_polys), series(4, low_polys), series(4, low_polys))
@settings(max_examples=25, deadline=None)
def test_dt_along_is_derivation(p, q, h):
    assert (p * q).dt_along(h) == p.dt_along(h) * q + p * q.dt_along(h)


def _dt_along_reference(p, h):
    # the definition, term by term: one h^(r) * (d mono / d f^(r)) product
    # per monomial and factor, shifted by eps^k
    cap = min(p.order_cap, h.order_cap)
    h_derivs = [h.truncate(cap)]
    out = EpsSeries.zero(cap)
    for k in range(cap + 1):
        part = EpsSeries.zero(cap)
        for mono, coeff in p.coeff(k).terms.items():
            for order, exp in mono.pairs:
                rest = dict(mono.pairs)
                rest[order] = exp - 1
                while len(h_derivs) <= order:
                    h_derivs.append(h_derivs[-1].x_derive())
                factor = DiffPoly({Monomial(rest): coeff * exp})
                part = part + h_derivs[order].mul_poly(factor)
        out = out + part.eps_shift(k)
    return out


# polys reach f(3) at every eps index, so derivative orders above the eps
# index (whose high h^(r) coefficients the grouped product drops) occur
@given(series(4), st.integers(3, 5).flatmap(series))
@settings(max_examples=40, deadline=None)
def test_dt_along_matches_per_monomial_definition(p, h):
    assert p.dt_along(h) == _dt_along_reference(p, h)


@given(series(4, low_polys), series(4, low_polys))
@settings(max_examples=25, deadline=None)
def test_dt_commutes_with_x_derive(p, h):
    assert p.x_derive().dt_along(h) == p.dt_along(h).x_derive()


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_evaluate_is_ring_homomorphism(p, q):
    jet = [1.25, -0.5, 2.0, 0.75]
    assert (p * q).evaluate(jet) == pytest.approx(p.evaluate(jet) * q.evaluate(jet), rel=1e-12, abs=1e-12)
    assert (p + q).evaluate(jet) == pytest.approx(p.evaluate(jet) + q.evaluate(jet), rel=1e-12, abs=1e-12)


def test_evaluate_examples():
    assert f(exp=2).evaluate([3.0]) == 9.0
    p = DiffPoly.from_terms((1, [(0, 1), (2, 1)]))
    assert p.evaluate([2.0, 0.0, 5.0]) == 10.0
    phi3 = f(1, coeff=F(-1, 4))
    assert phi3.evaluate([0.0, 4.0]) == -1.0
    with pytest.raises(ValueError):
        p.evaluate([2.0, 0.0])


# -- series bookkeeping ----------------------------------------------------------


def test_caps_truncate_to_smaller():
    p = EpsSeries([f()] * 6, order_cap=5)
    q = EpsSeries([f()] * 3, order_cap=2)
    assert (p + q).order_cap == 2
    assert (p * q).order_cap == 2


def test_eps_shift_and_div():
    p = EpsSeries([f(), f(1)], order_cap=3)
    q = p.eps_shift(2)
    assert q.coeff(2) == f() and q.coeff(3) == f(1)
    assert q.eps_div(2).truncate(1) == p.truncate(1)
    assert q.eps_div(2).order_cap == 1
    with pytest.raises(ExactDivisionError):
        p.eps_div(1)


def test_derivative_order_guard():
    p = EpsSeries.of_poly(f(2), 1)  # cap 1 -> max order 2
    with pytest.raises(DerivativeOrderError):
        p.x_derive()


def test_drop_derivatives():
    p = DiffPoly.from_terms((1, [(0, 3)]), (2, [(0, 1), (1, 1)]), (5, []))
    assert p.drop_derivatives() == DiffPoly.from_terms((1, [(0, 3)]), (5, []))


# -- rendering (canonical text contract) --------------------------------------------


def test_render_diffpoly():
    p = DiffPoly.from_terms((F(-1, 8), [(0, 2)]))
    assert str(p) == "(-1/8) * f^2"
    q = DiffPoly.from_terms((F(-1, 4), [(3, 1)]), (3, [(0, 1), (1, 1)]))
    assert str(q) == "(-1/4) * f(3) + 3 * f * f'"
    assert str(DiffPoly.zero()) == "0"
    assert str(DiffPoly.const(F(2, 3))) == "2/3"
    assert str(f()) == "f"
    assert str(f(coeff=-1)) == "(-1) * f"


def test_render_series():
    p = EpsSeries([DiffPoly.zero(), f(1, coeff=F(1, 2))], order_cap=2)
    assert p.render() == "eps^0 : 0\neps^1 : 1/2 * f'\neps^2 : 0"
