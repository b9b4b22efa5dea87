import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    monodromy_continuous,
    monodromy_discrete,
)
from todakdv.lattice import builtin_profile


def test_discrete_free_lattice_unipotent_power():
    N = 16
    M = monodromy_discrete(np.full(N, 2.0), np.full(N, -1.0), 0.0)
    assert (M.m11, M.m12, M.m21, M.m22) == pytest.approx((N + 1, -N, N, 1 - N))
    assert M.trace() == pytest.approx(2.0)


def test_discrete_single_site():
    # N = 1: the monodromy is the single transfer matrix itself
    M = monodromy_discrete(np.array([1.7]), np.array([-0.9]), 3.0)
    assert (M.m11, M.m12, M.m21, M.m22) == pytest.approx((1.7 - 3.0, -0.9, 1.0, 0.0))
    assert M.trace() == pytest.approx(1.7 - 3.0)


def test_discrete_vectorized_matches_scalar():
    rng = np.random.default_rng(5)
    A = rng.uniform(1.0, 3.0, 8)
    B = rng.uniform(-2.0, -0.5, 8)
    lams = np.array([-4.0, 0.0, 17.5])
    trs, dets = discrete_traces(A, B, lams)
    for lam, tr, det in zip(lams, trs, dets):
        M = monodromy_discrete(A, B, float(lam))
        assert tr == pytest.approx(M.trace(), rel=1e-13)
        assert det == pytest.approx(M.det(), rel=1e-13)


def test_discrete_determinant_identity():
    rng = np.random.default_rng(0)
    N = 24
    A = rng.uniform(1.0, 3.0, N)
    B = rng.uniform(-2.0, -0.5, N)
    M = monodromy_discrete(A, B, 4.2)
    expect = np.prod(-B)
    assert abs(M.det() - expect) <= 1e-12 * abs(expect)


def test_discrete_band_edges_free_lattice():
    N = 32
    A = np.full(N, 2.0)
    B = np.full(N, -1.0)
    for m in (1, 2, 5):
        lam = 2.0 * N**2 * (1 - math.cos(2 * math.pi * m / N))
        M = monodromy_discrete(A, B, lam)
        assert M.trace() == pytest.approx(2.0, abs=1e-6)


def test_continuous_free_closed_forms():
    zero = builtin_profile("zero")
    M = monodromy_continuous(zero, 0.0)
    assert (M.m11, M.m12, M.m21, M.m22) == pytest.approx((1, 1, 0, 1), abs=1e-9)
    M = monodromy_continuous(zero, math.pi**2)
    assert M.trace() == pytest.approx(-2.0, abs=1e-8)
    for lam in (-3.0, 7.0, 40.0):
        M = monodromy_continuous(zero, lam)
        if lam >= 0:
            expect = 2 * math.cos(math.sqrt(lam))
        else:
            expect = 2 * math.cosh(math.sqrt(-lam))
        assert M.trace() == pytest.approx(expect, abs=1e-8)
        assert M.det() == pytest.approx(1.0, abs=1e-8)


def test_continuous_wronskian_general_potential():
    g = builtin_profile("cos2")
    tol = 1e-10
    for lam in (-5.0, 12.3, 90.0):
        M = monodromy_continuous(g, lam, tol=tol)
        assert abs(M.det() - 1.0) <= 10 * tol + 1e-9


def test_continuous_traces_vectorized_matches_scalar():
    g = builtin_profile("cos")
    lams = np.array([-2.0, 5.0, 30.0])
    trs, dets = continuous_traces(g, lams)
    for lam, tr, det in zip(lams, trs, dets):
        M = monodromy_continuous(g, float(lam))
        assert tr == pytest.approx(M.trace(), abs=1e-8)
        assert det == pytest.approx(M.det(), abs=1e-8)


def test_continuous_traces_keep_only_the_period_map():
    # every stored step state of 4 x 16384 unknowns costs 0.5 MB; a stored
    # trajectory of this scan peaks near 50 MB
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
