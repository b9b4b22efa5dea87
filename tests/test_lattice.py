import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_flow_rhs, random_fraction_state, random_smooth_state
from todakdv.lattice import (
    C1_EXPANSION,
    C2_EXPANSION,
    C3_EXPANSION,
    LatticeState,
    _d3_generating_product,
    _d_table_exact,
    asymptotic_C,
    builtin_profile,
    conserved_d,
    conserved_report,
    exact_invariants,
    init_from_ansatz,
    init_from_profile,
    read_state_csv,
    render_integral_series,
    rhs_flow2,
    rhs_flow_k,
    toda_D,
    write_state_csv,
)

TWO_PI = 2 * math.pi


# -- profiles -------------------------------------------------------------------


def test_builtin_profiles():
    x = np.array([0.0, 0.25, 0.4])
    cos = builtin_profile("cos")
    assert cos(x) == pytest.approx(np.cos(TWO_PI * x))
    assert cos(x, 1) == pytest.approx(-TWO_PI * np.sin(TWO_PI * x))
    assert cos(x, 2) == pytest.approx(-TWO_PI**2 * np.cos(TWO_PI * x))
    const = builtin_profile("const:0.7")
    assert const(x) == pytest.approx(0.7)
    assert const(x, 3) == pytest.approx(0.0)
    assert builtin_profile("zero").samples(8) == pytest.approx(np.zeros(8))
    cos2 = builtin_profile("cos2")
    assert cos2(x) == pytest.approx(np.cos(TWO_PI * x) + 0.5 * np.cos(2 * TWO_PI * x))
    with pytest.raises(ValueError):
        builtin_profile("sawtooth")


# -- initialization ----------------------------------------------------------------


def test_init_variants_constant_profile():
    N = 16
    kappa = 0.9
    eps = 1.0 / N
    prof = builtin_profile(f"const:{kappa}")
    paper = init_from_profile(prof, N, "paper_25_26")
    assert paper.a == pytest.approx(np.full(N, kappa + eps**3 * kappa**2 / 8), abs=1e-15)
    assert paper.b == pytest.approx(np.full(N, kappa - eps**3 * kappa**2 / 8), abs=1e-15)
    cons = init_from_profile(prof, N, "consistent_R")
    assert cons.a == pytest.approx(np.full(N, kappa + eps**2 * kappa**2 / 8), abs=1e-15)
    assert cons.b == pytest.approx(np.full(N, kappa - eps**2 * kappa**2 / 8), abs=1e-15)


def test_init_zero_profile_and_average():
    N = 16
    zero = builtin_profile("zero")
    for variant in ("paper_25_26", "consistent_R"):
        s = init_from_profile(zero, N, variant)
        assert np.all(s.a == 0) and np.all(s.b == 0)
    cos = builtin_profile("cos")
    for variant in ("paper_25_26", "consistent_R"):
        s = init_from_profile(cos, N, variant)
        # the corrections are equal and opposite, so the average is exact
        assert s.average() == pytest.approx(cos.samples(N), abs=1e-16)


def test_init_requires_minimum_size():
    with pytest.raises(ValueError):
        init_from_profile(builtin_profile("cos"), 4)
    with pytest.raises(ValueError):
        LatticeState(4, np.zeros(4), np.zeros(4))


def test_state_rejects_nonfinite():
    a = np.zeros(8)
    a[0] = np.inf
    with pytest.raises(ValueError):
        LatticeState(8, a, np.zeros(8))


def test_ansatz_init_matches_stencil_init_to_stencil_error():
    prof = builtin_profile("cos")
    N = 64
    full = init_from_ansatz(prof, N)
    sten = init_from_profile(prof, N, "consistent_R")
    # differ by the eps^3 R-tail and stencil truncation: O(eps^3)
    assert np.max(np.abs(full.a - sten.a)) < 10.0 / N**3


# -- flow-2 stencil ---------------------------------------------------------------


def test_rhs_flow2_constant_equilibrium():
    s = LatticeState(12, np.full(12, 1.3), np.full(12, 1.3))
    da, db = rhs_flow2(s)
    assert np.all(da == 0) and np.all(db == 0)


def test_rhs_flow2_delta_state_hand_values():
    N = 8
    a = np.zeros(N)
    a[0] = 1.0
    s = LatticeState(N, a, np.zeros(N))
    da, db = rhs_flow2(s)
    eps2 = 1.0 / N**2
    # hand expansion of the stencils at k = 0, 1, 7
    assert da[0] == pytest.approx(N * (-a[1] + a[7]))  # = 0
    assert da[1] == pytest.approx(N * (-a[2] + a[0]))  # = N
    assert da[7] == pytest.approx(N * (-a[0] + a[6]))  # = -N
    assert db[0] == pytest.approx(N * (2 * a[0] + eps2 * a[0] ** 2))
    assert db[1] == pytest.approx(N * (-2 * a[0] - eps2 * a[0] ** 2))
    assert db[7] == pytest.approx(0.0)


def test_rhs_flow2_telescoping():
    s = random_smooth_state(32, seed=5)
    N = s.N
    da, db = rhs_flow2(s)
    a, b = s.a, s.b
    bp, ap, am, bm = np.roll(b, -1), np.roll(a, -1), np.roll(a, 1), np.roll(b, 1)
    L = 2 * bp - 2 * b - ap + am
    M = 2 * a - 2 * am - bp + bm
    assert abs(np.sum(L)) < 1e-12 and abs(np.sum(M)) < 1e-12
    Fs = bp * a + bp * ap - b * a - b * am
    G = (
        -2 * b * a + 2 * b * am + a**2 - am**2 + b * bp - b * bm
        + (1 / N**2) * (-b * a**2 + b * am**2)
    )
    assert np.sum(da + db) == pytest.approx(N * (1 / N**2) * np.sum(Fs + G), rel=1e-10, abs=1e-10)


def test_rhs_flow2_matches_exact_rational_oracle():
    N = 16
    aF, bF = random_fraction_state(N, seed=2)
    s = LatticeState(N, np.array([float(x) for x in aF]), np.array([float(x) for x in bF]))
    daF, dbF = exact_flow_rhs(aF, bF, N, k=2)
    da, db = rhs_flow2(s)
    assert da == pytest.approx([float(x) for x in daF], rel=1e-13)
    assert db == pytest.approx([float(x) for x in dbF], rel=1e-13)


# -- hierarchy stencils on the lattice -----------------------------------------------


def test_rhs_flow_k_combo_matches_flow2():
    for N in (16, 64):
        s = random_smooth_state(N, seed=N)
        da1, db1 = rhs_flow2(s)
        da2, db2 = rhs_flow_k(s, 2)
        assert np.max(np.abs(da2 - da1)) <= 1e-13 * np.max(np.abs(da1))
        assert np.max(np.abs(db2 - db1)) <= 1e-13 * np.max(np.abs(db1))


def test_rhs_flow_k_constants_are_equilibria():
    s = LatticeState(16, np.full(16, 0.4), np.full(16, 0.4))
    for k in (1, 2, 3, 4):
        da, db = rhs_flow_k(s, k)
        assert np.max(np.abs(da)) < 1e-12 and np.max(np.abs(db)) < 1e-12


def test_rhs_flow1_closed_form():
    s = random_smooth_state(16, seed=8)
    da, db = rhs_flow_k(s, 1)
    expect_da = s.N * (s.b - np.roll(s.b, -1))
    assert da == pytest.approx(expect_da, rel=1e-13)
    # db = N(a(k) - a(k-1)) B-weighted: N(-(a - am) + eps^2 b (a - am))
    diff = s.a - np.roll(s.a, 1)
    expect_db = s.N * (-diff + diff * s.b / s.N**2)
    assert db == pytest.approx(expect_db, rel=1e-12)


def test_toda_D_matches_exact_first_flow():
    N = 16
    aF, bF = random_fraction_state(N, seed=9)
    s = LatticeState(N, np.array([float(x) for x in aF]), np.array([float(x) for x in bF]))
    daF, dbF = exact_flow_rhs(aF, bF, N, k=1)
    D1, D2 = toda_D(s, 1)
    assert D1 * N**2 == pytest.approx([float(x) for x in daF], rel=1e-13)
    assert D2 * N**2 == pytest.approx([float(x) for x in dbF], rel=1e-13)


# -- invariants -------------------------------------------------------------------------


def test_conserved_d_zero_state():
    N = 32
    s = LatticeState(N, np.zeros(N), np.zeros(N))
    assert conserved_d(s, 1) == pytest.approx(2 * N)
    assert conserved_d(s, 2) == pytest.approx(2 * N**2 - 3 * N)
    assert conserved_d(s, 3) == pytest.approx(4 * N**3 / 3 - 6 * N**2 + 20 * N / 3)


def test_conserved_d1_is_sum_A():
    s = random_smooth_state(24, seed=3)
    A, _ = s.to_AB()
    assert conserved_d(s, 1) == pytest.approx(np.sum(A), rel=1e-12)


def test_d_closed_form_identities_exact():
    """d_2 and d_3 against independently summed closed forms, zero tolerance."""
    N = 12
    aF, bF = random_fraction_state(N, seed=4)
    eps2 = F(1, N * N)
    A = [2 + eps2 * x for x in aF]
    B = [-1 + eps2 * x for x in bF]
    d1, d2, d3 = _d_table_exact(A, B, N)
    sA = sum(A)
    sB = sum(B)
    sA2 = sum(x * x for x in A)
    assert d1 == sA
    assert d2 == (sA * sA - sA2) / 2 + sB
    e3 = (sA**3 - 3 * sA * sA2 + 2 * sum(x**3 for x in A)) / 6
    sAB = sum(A[i] * B[i] for i in range(N))
    W = sum(A[(i - 1) % N] * B[i] for i in range(N))
    assert d3 == e3 + sA * sB - sAB - W
    # the site-local cubic drops the shifted-correlation boundary term
    assert _d3_generating_product(A, B) == e3 + sA * sB - sAB


def test_exact_conservation_under_flows():
    """Directional derivative of d_i along the exact flow field vanishes.

    d_i is polynomial in the state, so the derivative is read off exactly
    from five points of a cubic in t.  Zero tolerance.
    """
    N = 10
    aF, bF = random_fraction_state(N, seed=6)
    eps2 = F(1, N * N)
    for k in (1, 2):
        va, vb = exact_flow_rhs(aF, bF, N, k=k)

        def dvals(t):
            A = [2 + eps2 * (aF[i] + t * va[i]) for i in range(N)]
            B = [-1 + eps2 * (bF[i] + t * vb[i]) for i in range(N)]
            return _d_table_exact(A, B, N), _d3_generating_product(A, B)

        vals = [dvals(F(t)) for t in (-2, -1, 1, 2)]
        for idx in range(3):
            deriv = (
                vals[0][0][idx] - 8 * vals[1][0][idx] + 8 * vals[2][0][idx] - vals[3][0][idx]
            ) / 12
            assert deriv == 0, f"d_{idx+1} not conserved under flow {k}"
        # the site-local cubic behind C3 is only asymptotically conserved
        deriv_local = (vals[0][1] - 8 * vals[1][1] + 8 * vals[2][1] - vals[3][1]) / 12
        assert deriv_local != 0


def test_exact_invariants_match_conserved_d():
    s = random_smooth_state(16, seed=12)
    d1, d2, d3 = exact_invariants(s)
    assert float(d1) == conserved_d(s, 1)
    assert float(d2) == conserved_d(s, 2)
    assert float(d3) == conserved_d(s, 3)


def _fraction_AB(s):
    """A, B built entry by entry as Fractions, with common denominator 1."""
    eps2 = F(1, s.N**2)
    return [2 + eps2 * F(x) for x in s.a.tolist()], [-1 + eps2 * F(x) for x in s.b.tolist()], 1


def _signed(values):
    return st.tuples(values, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])


_ENTRY_POOL = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**60, -(2.0**-60)]),
    _signed(st.floats(min_value=5e-324, max_value=2.0**-1022)),  # subnormal
    _signed(st.floats(min_value=2.0**-62, max_value=2.0**-58)),
    _signed(st.floats(min_value=2.0**58, max_value=2.0**62)),
    st.floats(min_value=-3.0, max_value=3.0),
)


@st.composite
def _mixed_states(draw):
    """Smooth states with some entries swapped for zeros, subnormals or 2^+-60 values."""
    N = draw(st.integers(min_value=8, max_value=40))
    smooth = random_smooth_state(N, seed=draw(st.integers(min_value=0, max_value=2**16)))
    vals = np.concatenate([smooth.a, smooth.b])
    for i in draw(st.lists(st.integers(min_value=0, max_value=2 * N - 1), max_size=2 * N)):
        vals[i] = draw(_ENTRY_POOL)
    return LatticeState(N, vals[:N], vals[N:])


@settings(max_examples=60, deadline=None)
@given(_mixed_states())
def test_scaled_integer_invariants_match_fraction_reference(s):
    """The common-denominator int path equals the entrywise Fraction path exactly."""
    A, B, _ = _fraction_AB(s)
    assert exact_invariants(s) == _d_table_exact(A, B, s.N)
    with mock.patch("todakdv.lattice._scaled_AB", _fraction_AB):
        reference = conserved_report(s, 0.25)
    assert conserved_report(s, 0.25) == reference


# -- conserved combinations -----------------------------------------------------------


def test_conserved_report_zero_state():
    N = 16
    s = LatticeState(N, np.zeros(N), np.zeros(N))
    rep = conserved_report(s)
    assert rep.C1 == 0 and rep.C2 == 0 and rep.C3 == 0
    assert rep.d1 == pytest.approx(2 * N)


def test_C1_constant_profile_full_ansatz():
    """With the complete correction series, C1 matches its three-term
    expansion through eps^4 (the next term is eps^6)."""
    kappa = 0.8
    prof = builtin_profile(f"const:{kappa}")
    for N in (32, 64):
        s = init_from_ansatz(prof, N)
        eps = 1.0 / N
        rep = conserved_report(s)
        pred = kappa + eps**2 * kappa**2 / 8 + eps**4 * kappa**3 / 32
        assert abs(rep.C1 - pred) < 2.0 * eps**6 * kappa**4


def test_C2_cos_profile_leading_term():
    prof = builtin_profile("cos")
    N = 128
    s = init_from_profile(prof, N, "consistent_R")
    rep = conserved_report(s)
    eps = 1.0 / N
    assert rep.C2 / eps**3 == pytest.approx(0.5, abs=5 * eps**2)


def test_C_reports_converge_to_expansions():
    prof = builtin_profile("cos")
    for N in (64, 128):
        s = init_from_profile(prof, N, "consistent_R")
        rep = conserved_report(s)
        p1, p2, p3 = asymptotic_C(prof, N)
        eps = 1.0 / N
        assert rep.C1 == pytest.approx(p1, abs=1e-3 * eps**2 * abs(p1) + 1e-16)
        assert rep.C2 == pytest.approx(p2, rel=5 * eps**2)
        assert rep.C3 == pytest.approx(p3, rel=50 * eps**2)


# -- asymptotic predictions --------------------------------------------------------------


def test_asymptotic_C_constant():
    kappa = 1.1
    prof = builtin_profile(f"const:{kappa}")
    N = 32
    eps = 1.0 / N
    c1, c2, c3 = asymptotic_C(prof, N, depth=3)
    assert c1 == pytest.approx(kappa + eps**2 * kappa**2 / 8 + eps**4 * kappa**3 / 32, rel=1e-12)
    assert c2 == pytest.approx(eps**3 * kappa**2 + eps**5 * kappa**3 / 4, rel=1e-12)
    assert c3 == pytest.approx(-eps**5 * 7 * kappa**3 / 12, rel=1e-12)


def test_asymptotic_C_cos_quadrature():
    prof = builtin_profile("cos")
    N = 64
    eps = 1.0 / N
    c1, c2, c3 = asymptotic_C(prof, N, depth=3)
    # int f = 0, int f^2 = 1/2, int f^3 = 0, int f f'' = -2 pi^2
    assert c1 == pytest.approx(eps**2 / 16, rel=1e-12)
    assert c2 == pytest.approx(eps**3 / 2 + eps**5 * math.pi**2 / 12, rel=1e-12)
    assert c3 == pytest.approx(-eps**5 * math.pi**2 / 4, rel=1e-12)


def test_asymptotic_depth_truncates():
    prof = builtin_profile("const:1.0")
    N = 16
    eps = 1.0 / N
    c1, c2, _ = asymptotic_C(prof, N, depth=1)
    assert c1 == pytest.approx(1.0, rel=1e-14)
    assert c2 == pytest.approx(eps**3, rel=1e-12)
    with pytest.raises(ValueError):
        asymptotic_C(prof, N, depth=4)


def test_expansion_renders():
    assert render_integral_series(C1_EXPANSION).splitlines()[2] == "eps^2 : 1/8 * I[f^2]"
    assert render_integral_series(C2_EXPANSION).splitlines()[5] == (
        "eps^5 : (-1/24) * I[f * f''] + 1/4 * I[f^3]"
    )
    line = render_integral_series(C3_EXPANSION).splitlines()[5]
    assert "(-7/12) * I[f^3]" in line and "1/8 * I[f * f'']" in line


# -- CSV ------------------------------------------------------------------------------


def test_state_csv_roundtrip(tmp_path):
    s = random_smooth_state(16, seed=1)
    path = tmp_path / "state.csv"
    write_state_csv(path, s)
    s2 = read_state_csv(path)
    assert s2.N == s.N
    assert s2.a == pytest.approx(s.a, abs=0)
    assert s2.b == pytest.approx(s.b, abs=0)


@settings(max_examples=40, deadline=None)
@given(s=_mixed_states())
def test_state_csv_roundtrip_is_bit_exact(tmp_path_factory, s):
    """write_state_csv -> read_state_csv keeps every bit: -0.0, subnormals, 2^+-60."""
    path = tmp_path_factory.mktemp("state") / "state.csv"
    write_state_csv(path, s)
    s2 = read_state_csv(path)
    assert s2.N == s.N
    assert np.array_equal(s2.a.view(np.uint64), s.a.view(np.uint64))
    assert np.array_equal(s2.b.view(np.uint64), s.b.view(np.uint64))
