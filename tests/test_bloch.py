import math
import re
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

from todakdv import bloch
from todakdv.bloch import (
    BandDistanceResult,
    DiscriminantSample,
    DiscriminantTable,
    _narrow_band,
    band_distance,
    continuous_traces,
    discrete_traces,
    discriminant_scan,
    lattice_from_potential,
)
from todakdv.lattice import Profile, builtin_profile
from todakdv.solver import IntegrationError


def _discrete_at(A, B, lam):
    """Monodromy entries (m11, m12, m21, m22) of the lattice at one lambda."""
    return tuple(float(m[0]) for m in bloch._discrete_entries(A, B, np.array([lam], float)))


def _continuous_at(g, lam, tol=1e-10):
    """Entries (m11, m12, m21, m22) of the Hill period map at one lambda."""
    return tuple(float(m[0]) for m in bloch._continuous_entries(g, np.array([lam], float), tol))


def test_discrete_free_lattice_unipotent_power():
    N = 16
    A, B = np.full(N, 2.0), np.full(N, -1.0)
    assert _discrete_at(A, B, 0.0) == pytest.approx((N + 1, -N, N, 1 - N))
    assert discrete_traces(A, B, [0.0])[0] == pytest.approx([2.0])


def test_discrete_single_site():
    # N = 1: the monodromy is the single transfer matrix itself
    A, B = np.array([1.7]), np.array([-0.9])
    assert _discrete_at(A, B, 3.0) == pytest.approx((1.7 - 3.0, -0.9, 1.0, 0.0))
    assert discrete_traces(A, B, [3.0]) == pytest.approx(([1.7 - 3.0], [0.9]))


def test_discrete_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    A = rng.uniform(1.0, 3.0, 8)
    B = rng.uniform(-2.0, -0.5, 8)
    lams = np.array([-4.0, 0.0, 17.5])
    trs, dets = discrete_traces(A, B, lams)
    for lam, tr, det in zip(lams, trs, dets):
        m11, m12, m21, m22 = _discrete_at(A, B, float(lam))
        assert tr == pytest.approx(m11 + m22, rel=1e-13)
        assert det == pytest.approx(m11 * m22 - m12 * m21, rel=1e-13)


def test_discrete_determinant_identity():
    rng = np.random.default_rng(0)
    N = 24
    A = rng.uniform(1.0, 3.0, N)
    B = rng.uniform(-2.0, -0.5, N)
    m11, m12, m21, m22 = _discrete_at(A, B, 4.2)
    expect = np.prod(-B)
    assert abs(m11 * m22 - m12 * m21 - expect) <= 1e-12 * abs(expect)


def test_discrete_determinant_is_exact_on_a_wide_grid():
    """det_discrete is prod(-B(n)) at every lambda, also where the entries are
    large and m11 m22 - m12 m21 cancels (it read 1.875 near lambda = -198.85)."""
    A, B = lattice_from_potential(builtin_profile("cos"), 512)
    with np.errstate(over="ignore", invalid="ignore"):
        _, det = discrete_traces(A, B, np.linspace(-200, 200, 16384))
    exact = math.prod(-F(x) for x in B.tolist())
    assert len(det) == 16384
    assert max(abs(F(d) - exact) for d in set(det.tolist())) <= F(1, 10**12) * exact


def test_discrete_determinant_is_one_broadcast_value():
    """det_discrete is a read-only stride-0 view of prod(-B(n)), so the CSV
    writer formats it once; every row holds that one value."""
    A, B = lattice_from_potential(builtin_profile("cos2"), 64)
    lams = np.linspace(-200, 200, 1001)
    tr, det = discrete_traces(A, B, lams)
    assert det.shape == tr.shape == lams.shape
    assert det.strides == (0,) and not det.flags.writeable
    assert det.tolist() == [float(np.prod(-B))] * len(lams)
    table = discriminant_scan(builtin_profile("cos2"), 64, lams)
    assert table.det_discrete.strides == (0,)
    assert table.det_discrete.tolist() == det.tolist()


def test_discriminant_table_from_samples_keeps_band_distance():
    # the benchmark's spectrum check rebuilds the table from per-row samples
    table = discriminant_scan(builtin_profile("cos"), 64, np.linspace(-200, 200, 2001))
    samples = [DiscriminantSample(*row) for row in zip(
        table.lam.tolist(), table.trace_discrete.tolist(), table.trace_continuous.tolist(),
        table.det_discrete.tolist(), table.det_continuous.tolist())]
    rebuilt = DiscriminantTable.from_samples(samples)
    for name in ("lam", "trace_discrete", "trace_continuous", "det_discrete", "det_continuous"):
        assert np.array_equal(getattr(rebuilt, name), getattr(table, name))
    expect = band_distance(table, 200.0)
    assert math.isfinite(expect.distance)
    assert band_distance(rebuilt, 200.0) == expect == band_distance(samples, 200.0)


def test_discrete_band_edges_free_lattice():
    N = 32
    A = np.full(N, 2.0)
    B = np.full(N, -1.0)
    lams = [2.0 * N**2 * (1 - math.cos(2 * math.pi * m / N)) for m in (1, 2, 5)]
    assert discrete_traces(A, B, lams)[0] == pytest.approx([2.0] * 3, abs=1e-6)


def _discrete_entries_loop(A, B, lams):
    """Transfer-matrix product as one tuple assignment per site: the oracle."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    N = len(A)
    lam_eps2 = lams * (1.0 / N**2)
    ones = np.ones_like(lams)
    m11, m12, m21, m22 = ones.copy(), 0.0 * ones, 0.0 * ones, ones.copy()
    for n in range(N):
        t11 = A[n] - lam_eps2
        t12 = B[n]
        m11, m12, m21, m22 = (
            t11 * m11 + t12 * m21,
            t11 * m12 + t12 * m22,
            m11,
            m12,
        )
    return m11, m12, m21, m22


@pytest.mark.parametrize("case", ["cos", "cos2", "const:-2", "random"])
def test_discrete_entries_match_loop_bytewise(case):
    rng = np.random.default_rng(3)
    if case == "random":
        A, B = rng.uniform(-3.0, 3.0, 37), rng.uniform(-3.0, 3.0, 37)
        # far grid points overflow to inf and then nan, as they do in a scan
        lams = np.concatenate([rng.normal(0.0, 1e3, 200), [0.0, -0.0, 1e300, -1e300]])
    else:
        A, B = lattice_from_potential(builtin_profile(case), 64)
        lams = np.linspace(-200, 200, 2049)
    with np.errstate(over="ignore", invalid="ignore"):
        got = bloch._discrete_entries(A, B, lams)
        expect = _discrete_entries_loop(A, B, lams)
    for g, e in zip(got, expect):
        assert g.tobytes() == e.tobytes()


def test_continuous_free_closed_forms():
    zero = builtin_profile("zero")
    assert _continuous_at(zero, 0.0) == pytest.approx((1, 1, 0, 1), abs=1e-9)
    assert continuous_traces(zero, [math.pi**2])[0] == pytest.approx([-2.0], abs=1e-8)
    for lam in (-3.0, 7.0, 40.0):
        trace, det = continuous_traces(zero, [lam])
        if lam >= 0:
            expect = 2 * math.cos(math.sqrt(lam))
        else:
            expect = 2 * math.cosh(math.sqrt(-lam))
        assert trace == pytest.approx([expect], abs=1e-8)
        assert det == pytest.approx([1.0], abs=1e-8)


def test_continuous_wronskian_general_potential():
    g = builtin_profile("cos2")
    tol = 1e-10
    for lam in (-5.0, 12.3, 90.0):
        m11, m12, m21, m22 = _continuous_at(g, lam, tol=tol)
        assert abs(m11 * m22 - m12 * m21 - 1.0) <= 10 * tol + 1e-9


def test_continuous_traces_vectorized_matches_scalar():
    g = builtin_profile("cos")
    lams = np.array([-2.0, 5.0, 30.0])
    trs, dets = continuous_traces(g, lams)
    for lam, tr, det in zip(lams, trs, dets):
        m11, m12, m21, m22 = _continuous_at(g, float(lam))
        assert tr == pytest.approx(m11 + m22, abs=1e-8)
        assert det == pytest.approx(m11 * m22 - m12 * m21, abs=1e-8)


def _continuous_entries_full_period(g, lams, tol):
    """Hill period map by one stacked DOP853 solve over all of [0, 1]: the oracle."""
    L = len(lams)

    def rhs(x, y):
        Y = y.reshape(4, L)
        pot = g(np.array([x]))[0] - lams
        out = np.empty_like(Y)
        out[0] = Y[1]
        out[1] = pot * Y[0]
        out[2] = Y[3]
        out[3] = pot * Y[2]
        return out.ravel()

    y0 = np.zeros(4 * L)
    y0[:L] = 1.0
    y0[3 * L :] = 1.0
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", t_eval=(1.0,), rtol=tol, atol=tol * 1e-2)
    assert sol.success
    psi1, dpsi1, psi2, dpsi2 = sol.y[:, 0].reshape(4, L)
    return psi1, psi2, dpsi1, dpsi2


def _odd_profile():
    # sin 2 pi x + 0.3 cos 6 pi x: neither even nor a builtin
    def deriv(x, order):
        w1, w3 = 2 * math.pi, 6 * math.pi
        return (w1**order * np.sin(w1 * x + order * math.pi / 2)
                + 0.3 * w3**order * np.cos(w3 * x + order * math.pi / 2))

    return Profile("odd", deriv)


_HILL_PROFILES = ["cos", "cos2", "zero", "const:-2", "odd"]


def _hill_profile(tag):
    return _odd_profile() if tag == "odd" else builtin_profile(tag)


def _trace_det(m11, m12, m21, m22):
    return m11 + m22, m11 * m22 - m12 * m21


@pytest.mark.parametrize("tag", _HILL_PROFILES)
def test_continuous_traces_match_full_period_oracle(tag):
    g = _hill_profile(tag)
    lams = np.linspace(-200, 200, 16384)
    tol = 1e-10
    trace, det = continuous_traces(g, lams, tol=tol)
    ref_trace, _ = _trace_det(*_continuous_entries_full_period(g, lams, 1e-13))
    assert np.all(np.abs(trace - ref_trace) <= 10 * tol * np.maximum(1.0, np.abs(ref_trace)))
    _, oracle_det = _trace_det(*_continuous_entries_full_period(g, lams, tol))
    assert np.max(np.abs(det - 1.0)) <= np.max(np.abs(oracle_det - 1.0))


@pytest.mark.parametrize("tag", _HILL_PROFILES)
def test_segment_fits_have_negligible_chebyshev_tails(monkeypatch, tag):
    fits = []
    segment_fits = bloch._segment_fits

    def recording(*args, **kwargs):
        fits.append(segment_fits(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(bloch, "_segment_fits", recording)
    continuous_traces(_hill_profile(tag), np.linspace(-200, 200, 16384))
    (coef,) = fits
    assert coef.shape[0] >= 15  # ceil(sqrt(200 + max|g|)) segments
    assert np.max(np.abs(coef[..., -1])) < 1e-12


@pytest.mark.parametrize(
    "lams",
    [np.zeros(100), np.full(40, -7.5), np.array([12.0]), np.linspace(-200, 200, 17),
     np.array([3.0, -1.0, 50.0])],
    ids=["zeros", "constant", "single", "seventeen", "unsorted"],
)
def test_continuous_traces_on_degenerate_grids(monkeypatch, lams):
    # grids without an interval or with at most 17 points take the same
    # segments at their own lambdas, with no Chebyshev fit
    g = builtin_profile("cos")
    tol = 1e-10
    fits = []
    monkeypatch.setattr(bloch, "_segment_fits", lambda *args: fits.append(args))
    trace, det = continuous_traces(g, lams, tol=tol)
    assert not fits
    assert np.all(np.isfinite(trace))
    ref_trace, _ = _trace_det(*_continuous_entries_full_period(g, lams, 1e-13))
    assert np.all(np.abs(trace - ref_trace) <= 10 * tol * np.maximum(1.0, np.abs(ref_trace)))
    _, first = np.unique(lams, return_index=True)
    for lam, tr in zip(lams[first], trace[first]):
        m11, _, _, m22 = _continuous_at(g, float(lam))
        assert tr == pytest.approx(m11 + m22, rel=1e-8, abs=1e-8)


def test_continuous_traces_on_a_subnormal_interval():
    g = builtin_profile("cos")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace, _ = continuous_traces(g, np.array([0.0, 5e-324] * 20))
    assert np.all(np.abs(trace - continuous_traces(g, [0.0])[0]) <= 1e-12)


def _standard_segment_maps(g, lams, tol=1e-10):
    """The maps of the S = ceil(sqrt(max|lambda| + max|g|)) segments of [0, 1]."""
    R = np.max(np.abs(lams)) + np.max(np.abs(g(np.arange(256) / 256)))
    S = math.ceil(math.sqrt(R))
    return bloch._segment_maps(g, lams, np.arange(S) / S, 1.0 / S, tol), S


@pytest.mark.parametrize("tag", _HILL_PROFILES)
@pytest.mark.parametrize("lam_max", [0.5, 200.0])
def test_segment_maps_have_unit_wronskian(tag, lam_max):
    maps, _ = _standard_segment_maps(_hill_profile(tag), np.linspace(-lam_max, lam_max, 33))
    m11, m12, m21, m22 = np.moveaxis(maps, 1, 0)
    assert np.max(np.abs(m11 * m22 - m12 * m21 - 1.0)) <= 5e-14


@pytest.mark.parametrize("kappa", [0.0, -2.0, 3.5])
def test_constant_potential_segment_maps_are_closed_form(kappa):
    g = builtin_profile(f"const:{kappa}")
    lams = np.linspace(-200, 200, 1001)
    maps, S = _standard_segment_maps(g, lams)
    h = 1.0 / S
    mu = lams - kappa
    k = np.sqrt(np.abs(mu))
    osc = mu >= 0  # cos/sin above the potential, cosh/sinh below it
    c = np.where(osc, np.cos(k * h), np.cosh(k * h))
    s = np.where(osc, np.sin(k * h), np.sinh(k * h))
    expect = np.stack([c, np.where(k > 0, s / np.where(k > 0, k, 1.0), h), np.where(osc, -k, k) * s, c])
    assert np.all(np.abs(maps - expect) <= 1e-14 * np.maximum(1.0, np.abs(expect)))


def test_tiny_tol_finishes_at_the_ulp_threshold():
    g = builtin_profile("cos2")
    lams = np.linspace(-30, 30, 21)
    trace, _ = continuous_traces(g, lams, tol=1e-300)
    ref_trace, _ = _trace_det(*_continuous_entries_full_period(g, lams, 1e-13))
    assert np.all(np.abs(trace - ref_trace) <= 1e-11 * np.maximum(1.0, np.abs(ref_trace)))


@pytest.mark.parametrize("lam_max", [1e6, 1e10])
def test_continuous_traces_memory_is_bounded_in_the_segment_count(lam_max):
    # 1e10 takes 1e5 segments: one unblocked Taylor history of 5 lambdas
    # would hold 1e5 x 5 x 2 x 32 floats, 256 MB
    lams = np.linspace(-lam_max, lam_max, 5)
    tracemalloc.start()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            trace, _ = continuous_traces(builtin_profile("cos"), lams)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert trace[0] == math.inf and np.all(np.isfinite(trace[2:]))


def _jet_profile(jet):
    """A profile with g = 0 and the order-k derivative jet(k), k >= 1, everywhere."""
    return Profile("jet", lambda x, order: np.full_like(x, jet(order) if order else 0.0))


@pytest.mark.parametrize(
    "g, message",
    [
        (builtin_profile("const:1e100"), "max|lambda| + max|g| = 1e+100 needs more than 1048576 segments"),
        (_jet_profile(lambda k: math.nan), "non-finite Taylor series"),
        # derivatives of a frequency 1e6 want segments near 1e-5, 2^-17: more than 8 halvings of 1
        (_jet_profile(lambda k: 1e6**k), "no Taylor series converges on segments of 0.00391"),
    ],
    ids=["huge", "nan", "divergent"],
)
def test_unsummable_hill_maps_raise_integration_error(g, message):
    with pytest.raises(IntegrationError, match=f"^monodromy integration failed: {re.escape(message)}$"):
        continuous_traces(g, np.array([0.0]))


def test_continuous_traces_keep_only_the_period_map():
    # each map of 4 x 16384 entries costs 0.5 MB: holding all 15 segment maps,
    # or any per-step history, on the grid would show here
    lams = np.linspace(-200, 200, 16384)
    g = builtin_profile("cos")
    tracemalloc.start()
    try:
        continuous_traces(g, lams)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def _no_integration(*args, **kwargs):
    raise AssertionError("an integrator ran on an empty grid")


def test_discriminant_scan_empty_grid(monkeypatch):
    monkeypatch.setattr(bloch, "solve_ivp", _no_integration)
    monkeypatch.setattr(bloch, "_discrete_entries", _no_integration)
    assert len(discriminant_scan(builtin_profile("zero"), 16, np.array([]))) == 0


def test_discriminant_scan_builds_the_lattice_before_an_empty_grid():
    with pytest.raises(ValueError, match="state entries must be finite"):
        discriminant_scan(builtin_profile("const:1e200"), 8, np.array([]))


def _no_rebuild(*args, **kwargs):
    raise AssertionError("the scan rebuilt a lattice it was given")


def test_discriminant_scan_takes_a_built_lattice(monkeypatch):
    g = builtin_profile("cos2")
    lams = np.linspace(-50, 50, 101)
    expect = discriminant_scan(g, 32, lams)
    AB = lattice_from_potential(g, 32)
    monkeypatch.setattr(bloch, "lattice_from_potential", _no_rebuild)
    table = discriminant_scan(g, 32, lams, lattice=AB)
    for col in ("lam", "trace_discrete", "trace_continuous", "det_discrete", "det_continuous"):
        assert getattr(table, col).tobytes() == getattr(expect, col).tobytes()


def test_discriminant_scan_zero_potential_convergence():
    zero = builtin_profile("zero")
    lam = 50.0
    errs = []
    for N in (32, 64, 128):
        table = discriminant_scan(zero, N, np.array([lam]))
        errs.append(abs(table.trace_discrete[0] - 2 * math.cos(math.sqrt(lam))))
        assert table.det_discrete[0] == pytest.approx(1.0, rel=1e-12)
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.7 <= s <= 2.3 for s in slopes)


def test_lattice_from_potential_zero_is_free():
    A, B = lattice_from_potential(builtin_profile("zero"), 32)
    assert A == pytest.approx(np.full(32, 2.0))
    assert B == pytest.approx(np.full(32, -1.0))


def _synthetic(lams, band_d, band_c):
    td = np.where((band_d[0] <= lams) & (lams <= band_d[1]), 0.0, 3.0)
    tc = np.where((band_c[0] <= lams) & (lams <= band_c[1]), 0.0, 3.0)
    ones = np.ones_like(lams)
    return DiscriminantTable(lams, td, tc, ones, ones)


def test_band_distance_identical_is_zero():
    lams = np.linspace(0, 4, 401)
    rows = _synthetic(lams, (1, 2), (1, 2))
    assert band_distance(rows, 4.0).distance == 0.0


def test_band_distance_disjoint_intervals():
    lams = np.linspace(0, 3, 301)
    rows = _synthetic(lams, (0, 1), (2, 3))
    out = band_distance(rows, 3.0)
    assert out.distance == pytest.approx(2.0)


def test_band_distance_warnings():
    lams = np.linspace(0, 4, 41)  # spacing 0.1
    rows = _synthetic(lams, (1.0, 1.1), (1.0, 1.1))  # two-point band
    out = band_distance(rows, 4.0)
    assert out.grid_warning
    # empty side
    rows = _synthetic(lams, (1, 2), (10, 11))
    out = band_distance(rows, 4.0)
    assert math.isinf(out.distance) and out.grid_warning


def test_band_distance_truncates_to_K():
    lams = np.linspace(0, 3, 301)
    rows = _synthetic(lams, (0, 1), (2, 3))
    out = band_distance(rows, 1.5)  # continuous band lies outside |lam| <= K
    assert math.isinf(out.distance)


def test_band_distance_accepts_samples():
    # the benchmark's spectrum check still passes a list of DiscriminantSamples
    lams = np.linspace(0, 4, 41)
    table = _synthetic(lams, (1.0, 1.1), (1.0, 2.0))
    samples = [DiscriminantSample(*row) for row in zip(
        table.lam.tolist(), table.trace_discrete.tolist(), table.trace_continuous.tolist(),
        table.det_discrete.tolist(), table.det_continuous.tolist())]
    assert band_distance(samples, 4.0) == band_distance(table, 4.0)
    assert band_distance([], 4.0) == BandDistanceResult(0.0, True)


def test_discriminant_table_rejects_ragged_columns():
    with pytest.raises(ValueError):
        DiscriminantTable(np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3))


def _narrow_band_loop(mask):
    runs = []
    count = 0
    for m in mask:
        if m:
            count += 1
        elif count:
            runs.append(count)
            count = 0
    if count:
        runs.append(count)
    return any(r < 3 for r in runs)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        arrays(bool, st.integers(0, 40)),
        st.integers(0, 6).map(lambda n: np.ones(n, bool)),
        st.integers(0, 6).map(lambda n: np.zeros(n, bool)),
    )
)
def test_narrow_band_matches_run_length_loop(mask):
    assert _narrow_band(mask) == _narrow_band_loop(mask)
