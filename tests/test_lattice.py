import csv
import math
import warnings
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exact_flow_rhs, mixed_states, random_fraction_state, random_smooth_state, stacked
from todakdv import lattice
from todakdv.hierarchy import ContinuantWindow, toda_rhs
from todakdv.lattice import (
    C1_EXPANSION,
    C2_EXPANSION,
    C3_EXPANSION,
    ConservedReport,
    FMT,
    LatticeState,
    _CSV_CHUNK,
    _dyadic_numerators,
    _format_rows,
    _invariant_ints,
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
    rhs_flow2_arrays,
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
    for kappa in ("inf", "-inf", "nan"):
        with pytest.raises(ValueError, match="finite kappa"):
            builtin_profile(f"const:{kappa}")


@pytest.mark.parametrize("value", [np.inf, np.nan, 1e200])
def test_init_from_profile_rejects_nonfinite_without_warning(value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="state entries must be finite"):
            init_from_profile(np.full(16, value), 16)
    assert not caught


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
    # the oracle sees the exact values of the float state; toda_D rounds once
    daF, dbF = exact_flow_rhs([F(x) for x in s.a], [F(x) for x in s.b], N, k=1)
    D1, D2 = toda_D(s, 1)
    assert (D1 * N**2).tolist() == [float(x) for x in daF]
    assert (D2 * N**2).tolist() == [float(x) for x in dbF]
    for k in (0, -1):
        with pytest.raises(ValueError):
            toda_D(s, k)
        with pytest.raises(ValueError):
            rhs_flow_k(s, k)


class _FractionWindow(ContinuantWindow):
    """A(m+n), B(m+n) as exact Fractions at every site, for toda_rhs."""

    zero, one = 0, 1

    def __init__(self, s: LatticeState):
        super().__init__()
        eps2 = F(1, s.N**2)
        self._A = np.array([2 + eps2 * F(x) for x in s.a], dtype=object)
        self._B = np.array([-1 + eps2 * F(x) for x in s.b], dtype=object)

    def A_of(self, n):
        return np.roll(self._A, -n)

    def B_of(self, n):
        return np.roll(self._B, -n)


@pytest.mark.parametrize("N", [16, 64])
def test_rhs_flow_k_is_the_correctly_rounded_recombination(N):
    # Z_k = sum_j c_j AA_(k-j) with c_j the Taylor coefficients of sqrt(1 + 4x),
    # summed in Fractions and rounded once per site
    sqrt_coeffs = [1, 2, -2, 4, -10, 28]
    s = random_smooth_state(N, seed=3 * N)
    window = _FractionWindow(s)
    raw = {i: toda_rhs(i, window) for i in range(1, 7)}
    for k in range(1, 7):
        X = sum(sqrt_coeffs[j] * raw[k - j][0] for j in range(k))
        Y = sum(sqrt_coeffs[j] * raw[k - j][1] for j in range(k))
        da, db = rhs_flow_k(s, k)
        assert da.tolist() == [float(N**3 * x) for x in X], k
        assert db.tolist() == [float(N**3 * y) for y in Y], k


# -- invariants -------------------------------------------------------------------------


def _d_table_exact(A, B, N):
    """d_1(N), d_2(N), d_3(N) by the forward continuant recursion (test oracle).

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


def _d3_generating_product(A, B):
    """[z^3] of prod_n (1 + z A(n) + z^2 B(n)), the site-local cubic (test oracle)."""
    c0, c1, c2, c3 = 1, 0, 0, 0
    for An, Bn in zip(A, B):
        c3 = c3 + c2 * An + c1 * Bn
        c2 = c2 + c1 * An + c0 * Bn
        c1 = c1 + c0 * An
    return c3


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
    """A, B built entry by entry as Fractions."""
    eps2 = F(1, s.N**2)
    return [2 + eps2 * F(x) for x in s.a.tolist()], [-1 + eps2 * F(x) for x in s.b.tolist()]


def _fraction_report(s, t):
    """ConservedReport from entrywise Fractions, the recursions and the C-formulas in eps."""
    A, B = _fraction_AB(s)
    eps = F(1, s.N)
    d1, d2, d3 = _d_table_exact(A, B, s.N)
    w = d1 - 2 / eps
    v = d2 - 2 / eps**2 + 3 / eps
    C1 = w / eps
    C2 = F(-4, 3) * (v - (2 - eps) / eps * w - w * w / 2)
    P = (
        F(4, 3) / eps**3
        - 6 / eps**2
        + F(14, 3) / eps
        - 2 * w / eps**2
        + (w + 2 * v - 2 * w * w) / eps
        - w**3 / 3
        + w * w
        + w
        + w * v
        - 2 * v
    )
    C3 = P - _d3_generating_product(A, B)
    return ConservedReport(t, float(d1), float(d2), float(d3), float(C1), float(C2), float(C3))


@settings(max_examples=60, deadline=None)
@given(mixed_states())
def test_scaled_integer_invariants_match_fraction_reference(s):
    """The common-denominator int path equals the entrywise Fraction path exactly."""
    A, B = _fraction_AB(s)
    assert exact_invariants(s) == _d_table_exact(A, B, s.N)
    assert conserved_report(s, 0.25) == _fraction_report(s, 0.25)


@settings(max_examples=60, deadline=None)
@given(mixed_states())
def test_invariant_kernel_matches_recursions(s):
    """The closed-form power sums over the raw numerators give the recursions'
    graded ints exactly."""
    alpha, beta, D = _dyadic_numerators(s)
    A = [2 * D + x for x in alpha]
    B = [D * (y - D) for y in beta]
    D1, D2, D3, L3 = _invariant_ints(alpha, beta, D)
    assert (D1, D2, D3) == _d_table_exact(A, B, s.N)
    assert L3 == _d3_generating_product(A, B)
    FA, FB = _fraction_AB(s)
    assert [x * D for x in FA] == A and [x * D * D for x in FB] == B
    assert D == s.N**2 * max(F(x).denominator for x in s.a.tolist() + s.b.tolist())


@settings(max_examples=40, deadline=None)
@given(mixed_states())
def test_rhs_flow2_arrays_matches_roll_formula(s):
    """The padded-copy neighbours give the np.roll stencil bit for bit, stacked
    as (da, db), and rhs_flow2 returns the two halves."""
    N, a, b = s.N, s.a, s.b
    eps2 = 1.0 / N**2
    ap, am, bp, bm = np.roll(a, -1), np.roll(a, 1), np.roll(b, -1), np.roll(b, 1)
    u, v, w = a - am, a + am, bp - bm
    f = rhs_flow2_arrays(N, stacked(s))
    assert f.shape == (2 * N,) and f.dtype == np.float64
    da, db = f[:N], f[N:]
    assert all(x.tobytes() == y.tobytes() for x, y in zip(rhs_flow2(s), (da, db)))
    assert da.tobytes() == (N * (2.0 * (bp - b) - (ap - am) + eps2 * (bp * (a + ap) - b * v))).tobytes()
    assert db.tobytes() == (
        N * (2.0 * u - w + eps2 * (u * (v * (1.0 - eps2 * b) - 2.0 * b) + b * w))
    ).tobytes()


def _expanded_flow2(N, a, b):
    """The flow-2 right side in its expanded, term-by-term operation order."""
    eps2 = 1.0 / N**2
    ap, am, bp, bm = np.roll(a, -1), np.roll(a, 1), np.roll(b, -1), np.roll(b, 1)
    L = 2.0 * bp - 2.0 * b - ap + am
    M = 2.0 * a - 2.0 * am - bp + bm
    Fst = bp * a + bp * ap - b * a - b * am
    G = (
        -2.0 * b * a + 2.0 * b * am + a**2 - am**2 + b * bp - b * bm
        + eps2 * (-b * a**2 + b * am**2)
    )
    return N * (L + eps2 * Fst), N * (M + eps2 * G)


def _flow2_errors(s):
    """|computed - exact| over the exact sum of |term| of the expanded stencil,
    per site, for the kernel and the expanded order; exact_flow_rhs is the
    value oracle.  Underflow adds at most an absolute few 2^-1074."""
    N = s.N
    eps2 = F(1, N * N)
    a, b = [F(x) for x in s.a.tolist()], [F(x) for x in s.b.tolist()]
    exact = exact_flow_rhs(a, b, N, k=2)
    size_a, size_b = [], []
    for k in range(N):
        x, xp, xm = abs(a[k]), abs(a[(k + 1) % N]), abs(a[k - 1])
        y, yp, ym = abs(b[k]), abs(b[(k + 1) % N]), abs(b[k - 1])
        size_a.append(N * (2 * yp + 2 * y + xp + xm + eps2 * (yp * x + yp * xp + y * x + y * xm)))
        size_b.append(N * (
            2 * x + 2 * xm + yp + ym
            + eps2 * (2 * y * x + 2 * y * xm + x * x + xm * xm + y * yp + y * ym
                      + eps2 * (y * x * x + y * xm * xm))
        ))
    ratios = []
    for da, db in (rhs_flow2(s), _expanded_flow2(N, s.a, s.b)):
        worst = 0.0
        for got, want, size in zip(da.tolist() + db.tolist(), exact[0] + exact[1], size_a + size_b):
            err = abs(F(got) - want) - 16 * F(2) ** -1074
            if err > 0:
                worst = max(worst, float(err / size))
        ratios.append(worst)
    return ratios


def _smooth_flow2_states():
    for N in (8, 33, 128):
        for amp in (0.3, 3.0, 30.0):
            yield random_smooth_state(N, seed=N + int(10 * amp), amp=amp)


def test_rhs_flow2_arrays_accuracy_against_exact_oracle():
    """The factored kernel is accurate to a few roundings of the stencil's
    terms, as the expanded order is; its distance to that order, in ulps of
    max|rhs|, is printed (pytest -s)."""
    ulps = []
    for s in _smooth_flow2_states():
        new, old = _flow2_errors(s)
        assert new <= 8 * 2.0**-52 and old <= 8 * 2.0**-52
        for x, y in zip(rhs_flow2(s), _expanded_flow2(s.N, s.a, s.b)):
            ulps.append(np.max(np.abs(x - y)) / np.spacing(np.max(np.abs(y))))
    print(f"factored vs expanded flow-2 stencil: max {max(ulps):.1f} ulps of max|rhs|")


@settings(max_examples=40, deadline=None)
@given(mixed_states())
def test_rhs_flow2_arrays_accuracy_on_mixed_states(s):
    """Zeros, subnormals and 2^+-60 entries keep the factored kernel within a
    few roundings of the exact terms."""
    new, _ = _flow2_errors(s)
    assert new <= 8 * 2.0**-52


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
@given(s=mixed_states())
def test_state_csv_roundtrip_is_bit_exact(tmp_path_factory, s):
    """write_state_csv -> read_state_csv keeps every bit: -0.0, subnormals, 2^+-60."""
    path = tmp_path_factory.mktemp("state") / "state.csv"
    write_state_csv(path, s)
    s2 = read_state_csv(path)
    assert s2.N == s.N
    assert np.array_equal(s2.a.view(np.uint64), s.a.view(np.uint64))
    assert np.array_equal(s2.b.view(np.uint64), s.b.view(np.uint64))


def test_read_state_csv_takes_spaced_header_and_float_indices(tmp_path):
    # every field is read by float, so an index written 1.0 is site 1; the
    # rows may come in any order of n
    path = tmp_path / "state.csv"
    path.write_text(" n , a ,b\n" + "".join(f"{float(n)},{n},{-n}\n" for n in reversed(range(8))))
    s = read_state_csv(path)
    assert np.array_equal(s.a, np.arange(8.0)) and np.array_equal(s.b, -np.arange(8.0))


@pytest.mark.parametrize(
    "body",
    ["0,1,2\r\n\r\n1,2,3\r\n", "0,1,2\r\n1,2,3\r\n\r\n", "0,1,2\r\n \r\n", "\r\n0,1,2\r\n", "0,1,2\r\r\n"],
    ids=["blank_inside", "blank_last", "blank_field", "blank_first", "lone_cr"],
)
def test_read_csv_rejects_a_blank_row(tmp_path, body):
    # np.loadtxt skips a blank line; csv.reader reads it as a row of another
    # width (a lone \r ends a row, so an empty one follows it), and so does read_csv
    path = tmp_path / "x.csv"
    path.write_bytes(b"n,a,b\r\n" + body.encode())
    with pytest.raises(ValueError, match=r"^every row of .*x\.csv needs 3 columns n,a,b$"):
        lattice.read_csv(path, ("n", "a", "b"))


@pytest.mark.parametrize(
    "body, rows",
    [("0,1_0,2\r\n", [[0, 10, 2]]), ("0,1,2\r1,2,3\r", [[0, 1, 2], [1, 2, 3]]), ('"0\n",1,2\r\n', [[0, 1, 2]]),
     ("", np.empty((0, 3)))],
    ids=["float_underscore", "cr_rows", "quoted_newline", "header_only"],
)
def test_read_csv_reads_the_rows_csv_reader_and_float_read(tmp_path, body, rows):
    # where np.loadtxt rejects the body or splits it into other rows, read_csv
    # reads it as csv.reader and float do
    path = tmp_path / "x.csv"
    path.write_bytes(b"n,a,b\r\n" + body.encode())
    values = lattice.read_csv(path, ("n", "a", "b"))
    assert values.shape == np.shape(rows) and np.array_equal(values, rows)


def _state_csv_reference(path, s):
    """The per-row csv.writer loop that write_state_csv replaced."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["n", "a", "b"])
        for n in range(s.N):
            wr.writerow([n, f"{s.a[n]:.17g}", f"{s.b[n]:.17g}"])


_AWKWARD = np.array([-0.0, 0.0, 5e-324, -(2.0**-1030), 1e300, -1e300, 0.1, 1 / 3])
_LONG = 2 * _CSV_CHUNK + 5  # over chunk boundaries, with a short last chunk


@settings(max_examples=40, deadline=None)
@given(s=mixed_states())
@example(s=LatticeState(8, _AWKWARD, -_AWKWARD[::-1]))  # -0.0, subnormals, 1e300
@example(s=LatticeState(_LONG, np.resize(_AWKWARD, _LONG), -np.resize(_AWKWARD[::-1], _LONG)))
def test_state_csv_matches_csv_module(tmp_path_factory, s):
    path = tmp_path_factory.mktemp("state")
    write_state_csv(path / "new.csv", s)
    _state_csv_reference(path / "ref.csv", s)
    assert (path / "new.csv").read_bytes() == (path / "ref.csv").read_bytes()


def _assert_formats_as_fmt(values, columns=1):
    """_format_rows prints every float as FMT does, in rows of the given width."""
    values = np.asarray(values, dtype=np.float64)
    values = values[: len(values) // columns * columns].reshape(-1, columns)
    row = ",".join([FMT] * columns) + "\r\n"
    for start in range(0, len(values), _CSV_CHUNK):
        part = values[start : start + _CSV_CHUNK]
        expected = ((row * len(part)) % tuple(part.ravel().tolist())).encode()
        assert b"".join(_format_rows(part.T)) == expected


def test_format_rows_matches_fmt_on_random_bit_patterns():
    # every float64 bit pattern is as likely: mostly exponent fields, with
    # positional ones, subnormals, infinities and nans among them
    bits = np.random.default_rng(20261020).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    _assert_formats_as_fmt(bits.view(np.float64), columns=5)


def test_format_rows_matches_fmt_on_edge_values():
    edges = [0.0, math.inf, math.nan, 5e-324, np.finfo(np.float64).max, 9.9999999999999995e-5,
             99999999999999999.0, 2.0**53 - 1, 2.0**53 + 1]
    for k in range(-6, 19):
        edges += [10.0**k, np.nextafter(10.0**k, 0), np.nextafter(10.0**k, math.inf)]
    values = np.array(edges + [-x for x in edges])
    _assert_formats_as_fmt(values)
    _assert_formats_as_fmt(values, columns=3)


def test_format_rows_prints_signed_zeros_without_the_fmt_fallback(monkeypatch):
    # with the FMT text blanked, a field printed by FMT % v (inf here) loses
    # its text, while +-0 keep theirs: they are "0" from the digit source,
    # signed by the sign bit
    monkeypatch.setattr(lattice, "_fmt_text", lambda values: bytes(lattice._TEXT * len(values)))
    zeros = np.array([[0.0, -0.0, 1.5], [-0.0, math.inf, 0.0]])
    assert b"".join(_format_rows(zeros.T)) == b"0,-0,1.5\r\n-0,,0\r\n"


def test_format_rows_rounds_half_way_ties_to_even():
    # v = m / 2^(p+1) with m = o 5^p < 2^53 (o odd) is a double whose decimal
    # value o 5^(2p+1) / 10^(p+1) ends in 5; with 18 significant digits its
    # 17-digit rounding is a tie, which %.17g rounds half to even.  Past
    # p = 12, 5^(2p+1) alone has more than 18 digits.
    ties = []
    for p in range(1, 13):
        scale = 5 ** (2 * p + 1)
        odd = range(-(-(10**17) // scale) | 1, min(10**18 // scale, 2**53 // 5**p), 2)[:4000]
        ties += [o * 5**p / 2 ** (p + 1) for o in odd]
    assert len(ties) > 35000
    digits = [Decimal(t).as_tuple().digits for t in ties]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)
    _assert_formats_as_fmt(ties + [-t for t in ties])


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(), min_size=1, max_size=40))
def test_format_rows_matches_fmt_on_any_floats(values):
    _assert_formats_as_fmt(values)
