import copy
import pickle
from fractions import Fraction as F
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from todakdv import diffpoly
from todakdv.cli import main
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


def test_shift_guard_raises_on_every_call_and_caches_nothing():
    # (d/dx) f'' at eps^0 is kept by any nonzero shift of cap 1 and breaks its guard
    p = EpsSeries.of_poly(f(2), 1)
    for n in (1, 1, -3):
        with pytest.raises(DerivativeOrderError):
            p.shift(n)
        assert p._triangle is None
    assert p.shift(0) is p


@given(series(4), st.permutations(range(-5, 6)))
@settings(max_examples=20, deadline=None)
def test_cached_triangle_shifts_match_fresh_series(p, ns):
    a = _series_terms(p)
    for n in ns:
        # a fresh equal series differentiates its own triangle
        assert p.shift(n) == EpsSeries(list(p.coeffs)).shift(n)
        assert _series_terms(p.shift(n)) == _ref_shift(a, n)


def test_triangle_cache_leaves_equality_and_hash_alone():
    p = EpsSeries([f(1), f(exp=2), f(3, coeff=F(1, 3))], order_cap=4)
    q = EpsSeries([f(1), f(exp=2), f(3, coeff=F(1, 3))], order_cap=4)
    h = hash(p)
    shifted = p.shift(2)
    assert p._triangle is not None and q._triangle is None
    assert p == q and q == p and hash(p) == hash(q) == h
    assert {q: "q"}[p] == "q"
    assert p.shift(2) == shifted == q.shift(2)


def test_dt_along_discards_untouched_high_derivatives():
    # dt (f' eps) along h = f + f'' eps needs only h' at eps^0; h' at eps^1
    # would be f(3), above the order guard of cap 1, and is never formed
    h = EpsSeries([f(), f(2)], order_cap=1)
    p = EpsSeries.of_poly(f(1), 1, eps_power=1)
    assert p.dt_along(h) == p
    with pytest.raises(DerivativeOrderError):
        h.x_derive()


# -- interning ---------------------------------------------------------------------


def test_every_construction_path_returns_the_interned_monomial():
    m = Monomial({1: 1})
    assert Monomial([(1, 1)]) is m
    assert Monomial({1: 1, 4: 0}) is m
    assert Monomial.f(1) is m
    assert Monomial._of_dict({1: 1}) is m
    assert Monomial() is Monomial.one() is Monomial({0: 0})
    assert Monomial.f(0).x_terms() == ((m, 1),)
    assert m.mul(Monomial.one()) is m and Monomial.one().mul(m) is m
    ff1 = Monomial({0: 1, 1: 1})
    assert Monomial.f(0).mul(m) is ff1 and m.mul(Monomial.f(0)) is ff1
    assert [rest for _, _, rest in ff1.partials()] == [m, Monomial.f(0)]
    # kernel results are keyed by the same objects
    assert next(iter((f() * f(1)).terms)) is ff1
    assert next(iter(f().x_derive().terms)) is m
    # equality is identity
    assert "__eq__" not in Monomial.__dict__ and "__hash__" not in Monomial.__dict__
    assert m == Monomial.f(1) and m != Monomial.f(1, 2) and m != (1, 1)
    assert hash(m) == hash(Monomial([(1, 1)]))


def test_copy_and_pickle_return_the_interned_monomial():
    for m in (Monomial.one(), Monomial({0: 2, 3: 1})):
        assert copy.copy(m) is m
        assert copy.deepcopy(m) is m
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(m, protocol)) is m
    p = f(3) * f(exp=2) + DiffPoly.const(F(1, 3))
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert q == p and hash(q) == hash(p)
        assert all(a is b for a, b in zip(q.terms, p.terms))


def test_invalid_monomial_raises_and_interns_nothing():
    before = dict(diffpoly._INTERNED)
    for bad in ({-1: 1}, {0: -1}, [(37, 1), (-2, 1)], [(37, 1), (38, -1)]):
        with pytest.raises(ValueError):
            Monomial(bad)
    assert diffpoly._INTERNED == before


def test_monomial_init_is_kept_as_a_no_op():
    # the benchmark tracer counts constructions by wrapping __init__
    assert "__init__" in Monomial.__dict__
    m = Monomial({2: 1})
    m.__init__({5: 5})
    assert m.pairs == ((2, 1),) and Monomial({2: 1}) is m


def test_repeated_verify_interns_and_memoizes_nothing_new(capsys):
    tables = (diffpoly._INTERNED, diffpoly._MUL_MEMO, diffpoly._X_MEMO, diffpoly._PARTIALS_MEMO)
    assert main(["verify", "--flow", "4"]) == 0
    sizes = [len(t) for t in tables]
    assert main(["verify", "--flow", "4"]) == 0
    assert [len(t) for t in tables] == sizes
    capsys.readouterr()


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


# -- Fraction-dict reference kernels ---------------------------------------------
#
# The kernels as they were written over {Monomial: Fraction} dicts, one
# Fraction operation per term and one accumulator copy per series product.
# Monomial products and derivatives are rebuilt from the pairs here, so the
# oracle shares none of the memo tables of the engine; it shares only the
# interning, whose contract is tested on its own below.


def _acc(d, m, c):
    s = d.get(m, 0) + c
    if s:
        d[m] = s
    else:
        d.pop(m, None)


def _ref_add(a, b):
    d = dict(a)
    for m, c in b.items():
        _acc(d, m, c)
    return d


def _ref_neg(a):
    return {m: -c for m, c in a.items()}


def _ref_scale(a, w):
    return {m: c * w for m, c in a.items()} if w else {}


def _ref_mul(a, b):
    d = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1.pairs)
            for k, e in m2.pairs:
                exps[k] = exps.get(k, 0) + e
            _acc(d, Monomial(exps), c1 * c2)
    return d


def _ref_x_derive(a):
    d = {}
    for mono, c in a.items():
        for order, exp in mono.pairs:
            exps = dict(mono.pairs)
            exps[order] = exp - 1
            exps[order + 1] = exps.get(order + 1, 0) + 1
            _acc(d, Monomial(exps), c * exp)
    return d


def _ref_series_mul(a, b):
    cap = min(len(a), len(b)) - 1
    out = [{} for _ in range(cap + 1)]
    for i in range(cap + 1):
        for j in range(cap + 1 - i):
            out[i + j] = _ref_add(out[i + j], _ref_mul(a[i], b[j]))
    return out


def _ref_shift(a, n):
    cap = len(a) - 1
    acc = list(a)
    level = a
    for i in range(1, cap + 1):
        level = [_ref_x_derive(c) for c in level[: cap + 1 - i]]
        w = F(n**i, factorial(i))
        for j, c in enumerate(level):
            acc[i + j] = _ref_add(acc[i + j], _ref_scale(c, w))
    return acc


def _ref_dt_along(a, h):
    cap = min(len(a), len(h)) - 1
    h_derivs = [h[: cap + 1]]
    out = [{} for _ in range(cap + 1)]
    for k in range(cap + 1):
        for mono, c in a[k].items():
            for order, exp in mono.pairs:
                rest = dict(mono.pairs)
                rest[order] = exp - 1
                while len(h_derivs) <= order:
                    h_derivs.append([_ref_x_derive(p) for p in h_derivs[-1]])
                factor = {Monomial(rest): c * exp}
                for j in range(cap + 1 - k):
                    out[k + j] = _ref_add(out[k + j], _ref_mul(h_derivs[order][j], factor))
    return out


def _fraction_terms(p):
    terms = p.terms
    assert all(type(c) is F for c in terms.values())
    return terms


def _series_terms(s):
    return [_fraction_terms(c) for c in s.coeffs]


weights = st.one_of(rationals, st.integers(-3, 3), st.builds(F, st.integers(-50, 50), st.integers(1, 60)))


@st.composite
def cancelling_pairs(draw):
    # q = r - p term for term, so p + q keeps only r and p * q, p - q mix
    # cancelling and surviving terms
    p, r = draw(polys), draw(polys)
    return p, DiffPoly(_ref_add(_ref_neg(p.terms), r.terms))


@given(st.one_of(st.tuples(polys, polys), cancelling_pairs()), weights)
@settings(max_examples=150, deadline=None)
def test_diffpoly_kernels_match_fraction_oracle(pq, w):
    p, q = pq
    a, b = p.terms, q.terms
    assert _fraction_terms(p * q) == _ref_mul(a, b)
    assert _fraction_terms(p + q) == _ref_add(a, b)
    assert _fraction_terms(p - q) == _ref_add(a, _ref_neg(b))
    assert _fraction_terms(-p) == _ref_neg(a)
    assert _fraction_terms(p.scale(w)) == _ref_scale(a, w)
    assert _fraction_terms(p * w) == _ref_scale(a, w)
    assert _fraction_terms(p.x_derive()) == _ref_x_derive(a)
    assert (p - p).terms == {} and (p + (-p)).is_zero()


@given(series(4), st.integers(3, 6).flatmap(series), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_series_kernels_match_fraction_oracle(p, q, n):
    a, b = _series_terms(p), _series_terms(q)
    assert _series_terms(p * q) == _ref_series_mul(a, b)
    assert _series_terms(p.shift(n)) == _ref_shift(a, n)
    assert _series_terms(q.shift(n)) == _ref_shift(b, n)
    assert _series_terms(p.dt_along(q)) == _ref_dt_along(a, b)
    assert _series_terms(q.dt_along(p)) == _ref_dt_along(b, a)
    assert _series_terms(p.shift(n).shift(-n)) == a


def _assert_canonical(p):
    # one positive denominator, no zero numerator, nothing left to cancel
    assert p._den > 0 and 0 not in p._num.values()
    assert gcd(p._den, *p._num.values()) == 1
    terms = p.terms
    assert len(terms) == len(p)
    for m, c in terms.items():
        assert type(c) is F and c != 0 and p.coeff(m) == c
    listed = p.sorted_terms()
    assert dict(listed) == terms and all(type(c) is F for _, c in listed)
    if listed:
        top = p.leading_term()
        assert top == listed[0] and type(top[1]) is F


def test_canonical_form_examples():
    m = Monomial({0: 1})
    half, two_quarters = DiffPoly({m: F(1, 2)}), DiffPoly({m: F(2, 4)})
    assert half == two_quarters and hash(half) == hash(two_quarters)
    p = DiffPoly.from_terms((F(2, 3), [(0, 2)]), (F(-5, 6), [(1, 1)]), (4, []))
    q = DiffPoly.from_terms((F(1, 6), [(0, 2)]), (F(7, 10), [(2, 1)]))
    rebuilt = [
        p + q - q,
        p.scale(3).scale(F(1, 3)),
        p.scale(F(9, 4)).scale(F(4, 9)),
        -(-p),
        DiffPoly(reversed(list(p.terms.items()))),
        DiffPoly([(mono, c / 2) for mono, c in p.terms.items()] * 2),
    ]
    for r in rebuilt:
        assert r == p and hash(r) == hash(p)
        _assert_canonical(r)
    assert p.coeff(Monomial.one()) == 4 and type(p.coeff(Monomial.one())) is F
    assert p.coeff(Monomial({5: 1})) == 0 and type(p.coeff(Monomial({5: 1}))) is F
    assert EpsSeries([p, q], order_cap=3) == EpsSeries([q + p - q, q], order_cap=3)
    zero = p - p
    assert zero == DiffPoly.zero() and hash(zero) == hash(DiffPoly.zero()) and len(zero) == 0


@given(st.one_of(st.tuples(polys, polys), cancelling_pairs()), weights)
@settings(max_examples=60, deadline=None)
def test_kernel_results_are_canonical(pq, w):
    p, q = pq
    for r in (p * q, p + q, p - q, p.scale(w), p.x_derive(), p - p, (p * q).drop_derivatives()):
        _assert_canonical(r)


def test_floats_are_rejected():
    m = Monomial({0: 1})
    with pytest.raises(TypeError):
        DiffPoly({m: 0.5})
    with pytest.raises(TypeError):
        DiffPoly.const(1.0)
    with pytest.raises(TypeError):
        f().scale(0.5)
    with pytest.raises(TypeError):
        f() * 0.5
    with pytest.raises(TypeError):
        EpsSeries.f(2) * 0.5


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


@given(polys)
@settings(max_examples=100, deadline=None)
def test_x_derive_raises_the_top_order_by_exactly_one(p):
    # what lets the guard work on orders instead of scanning derivatives
    if p.max_order() >= 0:
        assert p.x_derive().max_order() == p.max_order() + 1
    else:
        assert p.x_derive().is_zero()


# -- the guard as a scan of every derived coefficient (test oracle) --
#
# Each function returns the message of the first derived polynomial whose
# order exceeds 2 * cap, in the order the operation forms them, or None.


def _scan(polys, cap):
    for p in polys:
        if p.max_order() > 2 * cap:
            return f"derivative order {p.max_order()} exceeds safety cap {2 * cap}"
    return None


def _scan_x_derive(s):
    return _scan([c.x_derive() for c in s.coeffs], s.order_cap)


def _scan_shift(s):
    cap, level = s.order_cap, s.coeffs
    for i in range(1, cap + 1):
        level = [c.x_derive() for c in level[: cap + 1 - i]]
        if (msg := _scan(level, cap)) is not None:
            return msg
    return None


def _scan_dt_along(p, h):
    # h^(r) is formed once, through eps^(cap-k) for the first eps^k of p
    # holding a factor f^(r)
    cap = min(p.order_cap, h.order_cap)
    levels = [h.coeffs[: cap + 1]]
    for k in range(cap + 1):
        top = max((order for m in p.coeff(k).terms for order, _ in m.pairs), default=-1)
        while len(levels) <= top:
            levels.append([c.x_derive() for c in levels[-1][: cap + 1 - k]])
            if (msg := _scan(levels[-1], cap)) is not None:
                return msg
    return None


def _raised(call):
    try:
        call()
    except DerivativeOrderError as err:
        return str(err)
    return None


@st.composite
def near_limit_series(draw, cap):
    # derivative orders from 0 to 2 * cap + 1 around the guard's limit 2 * cap
    mono = st.builds(
        Monomial, st.dictionaries(st.integers(0, 2 * cap + 1), st.integers(1, 2), max_size=2)
    )
    poly = st.builds(DiffPoly, st.dictionaries(mono, rationals, max_size=3))
    return EpsSeries(draw(st.lists(poly, min_size=1, max_size=cap + 1)), order_cap=cap)


@given(st.integers(1, 4).flatmap(lambda cap: st.tuples(near_limit_series(cap), near_limit_series(cap))),
       st.sampled_from([-2, -1, 1, 3]))
@settings(max_examples=200, deadline=None)
def test_guard_raises_exactly_where_the_scan_does(ph, n):
    p, h = ph
    assert _raised(p.x_derive) == _scan_x_derive(p)
    assert _raised(lambda: p.shift(n)) == _scan_shift(p)
    assert _raised(lambda: p.dt_along(h)) == _scan_dt_along(p, h)


def test_guard_examples_at_the_limit():
    # cap 2, limit 4: f(4) may not be differentiated, f(3) once
    at, below = EpsSeries.of_poly(f(4), 2), EpsSeries.of_poly(f(3), 2)
    assert _raised(at.x_derive) == _scan_x_derive(at) == "derivative order 5 exceeds safety cap 4"
    assert _raised(below.x_derive) is None
    # the shift differentiates eps^0 twice: f(3) -> f(5)
    assert _raised(lambda: below.shift(1)) == "derivative order 5 exceeds safety cap 4"
    # and eps^1 once: f(3) eps -> f(4) eps^2 passes
    assert EpsSeries.of_poly(f(3), 2, eps_power=1).shift(1).coeff(2) == f(4)
    # the first offending coefficient is reported, not the largest order
    two = EpsSeries([f(4), f(exp=2) + f(6)], order_cap=2)
    assert _raised(two.x_derive) == _scan_x_derive(two) == "derivative order 5 exceeds safety cap 4"
    # dt_along f'' needs h'' through eps^2: h = f(3) eps^2 reaches f(5)
    h = EpsSeries.of_poly(f(3), 2, eps_power=2)
    fpp = EpsSeries.of_poly(f(2), 2)
    assert _raised(lambda: fpp.dt_along(h)) == _scan_dt_along(fpp, h) == "derivative order 5 exceeds safety cap 4"
    # constants differentiate to zero and never raise
    assert EpsSeries.const(3, 0).shift(2) == EpsSeries.const(3, 0)
    assert _raised(EpsSeries.const(3, 0).x_derive) is None


# -- fused sum of products --------------------------------------------------------


@given(
    st.integers(2, 5).flatmap(lambda cap: st.lists(
        st.tuples(st.integers(-3, 3), series(cap), st.one_of(st.none(), series(cap))), min_size=1, max_size=4)),
)
@settings(max_examples=60, deadline=None)
def test_combine_matches_fraction_oracle(terms):
    cap = min(x.order_cap for _, s, t in terms for x in (s, t) if x is not None)
    expect = [{} for _ in range(cap + 1)]
    for c, s, t in terms:
        a = _series_terms(s)[: cap + 1]
        prod = a if t is None else _ref_series_mul(a, _series_terms(t))
        expect = [_ref_add(e, _ref_scale(x, c)) for e, x in zip(expect, prod)]
    got = EpsSeries.combine(terms)
    assert _series_terms(got) == expect
    for coeff in got.coeffs:
        _assert_canonical(coeff)


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
