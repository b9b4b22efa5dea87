import math
import re
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from todakdv import bloch
from todakdv.bloch import (
    BandDistanceResult,
    DiscriminantSample,
    DiscriminantTable,
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


def _continuous_at(g, lam):
    """Entries (m11, m12, m21, m22) of the Hill period map at one lambda."""
    return tuple(float(m[0]) for m in bloch._continuous_entries(g, np.array([lam], float)))


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


def _loop_traces(A, B, lams):
    m11, _, _, m22 = bloch._discrete_entries(A, B, lams)
    return m11 + m22


def _exact_traces(A, B, lams):
    """Exact traces of the float lattice (A, B) at the float lambdas, rounded once.

    Every float is a dyadic Fraction, so with K = N^2 2^s for a common 2^s
    the recurrence X_(n+1) = (A(n) - lambda/N^2) X_n + B(n) X_(n-1) runs on
    the integers Y_n = K^n X_n:  Y_(n+1) = u_n Y_n + beta_n Y_(n-1), with
    u_n = (A(n) - lambda/N^2) K and beta_n = B(n) K^2.  The trace is
    X_N[0] + X_(N-1)[1] = (Y_N[0] + K Y_(N-1)[1]) / K^N.
    """
    A, B, lams = (np.asarray(x, float).tolist() for x in (A, B, lams))
    N = len(A)
    s = max(F(v).denominator.bit_length() - 1 for v in A + B + lams)
    K = N * N << s
    a = [int(F(x) * 2**s) * N * N for x in A]
    b = [int(F(x) * 2**s) for x in B]
    beta = [bn * N**4 << s for bn in b]
    traces = []
    for lam in lams:
        l = int(F(lam) * 2**s)
        p11, p12 = 1, 0  # Y_0
        y11, y12 = a[0] - l, b[0] * N * N  # Y_1: Y_(-1) = (0, 1/K)
        for n in range(1, N):
            u = a[n] - l
            y11, y12, p11, p12 = u * y11 + beta[n] * p11, u * y12 + beta[n] * p12, y11, y12
        traces.append(float(F(y11 + K * p12, K**N)))
    return np.array(traces)


def test_exact_traces_match_fraction_products():
    # the integer recurrence against the plain product of Fraction matrices
    rng = np.random.default_rng(11)
    for N in (1, 2, 5, 37):
        A, B = rng.uniform(-3.0, 3.0, N), rng.uniform(-3.0, 3.0, N)
        lams = rng.normal(0.0, 1e3, 4)
        for lam, got in zip(lams.tolist(), _exact_traces(A, B, lams).tolist()):
            M = [[F(1), F(0)], [F(0), F(1)]]
            for an, bn in zip(A.tolist(), B.tolist()):
                t11 = F(an) - F(lam) / N**2
                M = [[t11 * M[0][0] + F(bn) * M[1][0], t11 * M[0][1] + F(bn) * M[1][1]], M[0]]
            assert got == float(M[0][0] + M[1][1])


@pytest.mark.parametrize(
    "case",
    [f"{tag}-{N}" for N in (64, 128) for tag in ("cos", "cos2", "zero", "const:-2")]
    + [f"random-{N}-{seed}" for N in (37, 64) for seed in range(4)],
)
def test_discrete_traces_are_as_exact_as_the_loop(case):
    """Against exact rational traces, the panel path's largest error is at
    most twice the loop's, both relative to max(1, |trace|).

    The sample is every 16th grid lambda and the 8 where the two paths
    differ most.  The loop's error is spiky in lambda and the interpolant's
    smooth, so a sample of a few random lambdas misses the loop's largest
    errors while the 8 catch the interpolant's.  Random lattices vary by
    orders of magnitude within a panel: without the loop at small values,
    random-64-1 and random-64-2 read 8.4 and 7.2 times the loop's error.
    """
    if case.startswith("random"):
        _, N, seed = case.split("-")
        rng = np.random.default_rng(int(seed))
        A, B = rng.uniform(-3.0, 3.0, int(N)), rng.uniform(-3.0, 3.0, int(N))
        lams = np.linspace(-5000, 5000, 16384)
    else:
        tag, N = case.rsplit("-", 1)
        A, B = lattice_from_potential(builtin_profile(tag), int(N))
        lams = np.linspace(-200, 200, 16384)
    panel, _ = discrete_traces(A, B, lams)
    loop = _loop_traces(A, B, lams)
    assert not np.array_equal(panel, loop)  # the grid takes the panel path
    apart = np.abs(panel - loop) / np.maximum(1.0, np.abs(loop))
    sample = np.union1d(np.argsort(apart)[-8:], np.arange(0, len(lams), 16))
    exact = _exact_traces(A, B, lams[sample])

    def largest_error(trace):
        return np.max(np.abs(trace[sample] - exact) / np.maximum(1.0, np.abs(exact)))

    assert largest_error(panel) <= 2 * largest_error(loop)


def _recording_entries(monkeypatch):
    """Record the lambda count of every ``_discrete_entries`` call."""
    sizes = []
    entries = bloch._discrete_entries

    def recording(A, B, lams):
        sizes.append(len(lams))
        return entries(A, B, lams)

    monkeypatch.setattr(bloch, "_discrete_entries", recording)
    return sizes


def test_discrete_traces_run_the_loop_at_the_panel_nodes(monkeypatch):
    # spectrum --N 512 --lambda-max 200 --samples 16384: ceil(400/32) = 13
    # panels of 17 nodes, then the loop again only where the trace is small
    # beside its panel's largest node value
    A, B = lattice_from_potential(builtin_profile("cos"), 512)
    sizes = _recording_entries(monkeypatch)
    discrete_traces(A, B, np.linspace(-200, 200, 16384))
    assert sizes[0] == 13 * 17 and len(sizes) <= 2 and sum(sizes) < 16384 // 8


_ALL_EQUAL = np.full(4096, -7.5)
_SUBNORMAL_STEP = np.array([0.0, 5e-324] * 20)  # a span whose half underflows
_UNSORTED = np.concatenate([np.random.default_rng(3).normal(0.0, 1e3, 200), [0.0, -0.0, 1e300, -1e300]])
_HUGE = np.concatenate([[-1e308, 1e308], np.linspace(-1.0, 1.0, 4096)])  # hi - lo overflows


@pytest.mark.parametrize(
    "lams",
    [np.linspace(-200, 200, 13 * 17), _ALL_EQUAL, _SUBNORMAL_STEP, _UNSORTED, _HUGE],
    ids=["17P>=L", "all-equal", "subnormal-step", "unsorted", "1e308"],
)
def test_discrete_traces_take_the_loop_on_other_grids(monkeypatch, lams):
    rng = np.random.default_rng(3)
    A, B = rng.uniform(-3.0, 3.0, 37), rng.uniform(-3.0, 3.0, 37)
    sizes = _recording_entries(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nor a division by the zero half of a subnormal span
        with np.errstate(over="ignore", invalid="ignore"):
            trace, _ = discrete_traces(A, B, lams)
    assert sizes == [len(lams)]
    monkeypatch.undo()
    with np.errstate(over="ignore", invalid="ignore"):
        assert trace.tobytes() == _loop_traces(A, B, lams).tobytes()


def test_discrete_traces_keep_the_loops_overflow(monkeypatch):
    # far below the spectrum the N = 512 trace overflows near lambda = -5.9e5:
    # of 625 panels, those with an overflowing node take the loop's inf and nan
    A, B = lattice_from_potential(builtin_profile("cos"), 512)
    lams = np.linspace(-5.99e5, -5.79e5, 16384)
    sizes = _recording_entries(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        trace, _ = discrete_traces(A, B, lams)
        assert sizes[0] == 625 * 17
        loop = _loop_traces(A, B, lams)
    wild = ~np.isfinite(loop)
    assert np.isnan(loop).any() and np.isinf(loop).any() and not wild.all()
    assert trace[wild].tobytes() == loop[wild].tobytes()
    assert np.all(np.isfinite(trace[~wild]))
    assert np.all(np.abs(trace[~wild] - loop[~wild]) <= 1e-12 * np.abs(loop[~wild]))


def test_discrete_traces_memory_is_below_the_loops():
    A, B = lattice_from_potential(builtin_profile("cos"), 512)
    lams = np.linspace(-200, 200, 16384)
    peaks = []
    for scan in (discrete_traces, bloch._discrete_entries):
        tracemalloc.start()
        try:
            scan(A, B, lams)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] < 1.2e6


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
    for lam in (-5.0, 12.3, 90.0):
        m11, m12, m21, m22 = _continuous_at(g, lam)
        assert abs(m11 * m22 - m12 * m21 - 1.0) <= 2e-9


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
    trace, _ = continuous_traces(g, lams)
    ref_trace, _ = _trace_det(*_continuous_entries_full_period(g, lams, 1e-13))
    assert np.all(np.abs(trace - ref_trace) <= 1e-9 * np.maximum(1.0, np.abs(ref_trace)))


@pytest.mark.parametrize("tag", _HILL_PROFILES)
def test_period_map_has_unit_wronskian(tag):
    """m11 m22 - m12 m21 of the period map is 1 to rounding relative to its
    larger product: about 2.7e-13 on a grid that takes the segment fits, and
    4.4e-15 on grids of at most 17 points, which sum the segments at their
    own lambdas."""
    g = _hill_profile(tag)
    lams = np.linspace(-200, 200, 16384)

    def wronskian_error(at):
        m11, m12, m21, m22 = bloch._continuous_entries(g, at)
        a, b = m11 * m22, m12 * m21
        return np.max(np.abs(a - b - 1.0) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))

    assert wronskian_error(lams) <= 1e-12
    small = [np.linspace(-200, 200, 17)] + np.array_split(lams[::64], 16)
    assert max(wronskian_error(at) for at in small) <= 2e-14


@pytest.mark.parametrize("tag, kappa", [("zero", 0.0), ("const:-2", -2.0)])
def test_continuous_traces_of_constant_potentials_match_the_closed_form(tag, kappa):
    """On lambda in [-200, 200], 16384 points, the trace of g = kappa is
    2 cos sqrt(lambda - kappa), 2 cosh sqrt(kappa - lambda) below kappa, to
    1e-12 max(1, |trace|): an exact oracle, where the DOP853 one above is
    itself off by about 7e-13."""
    lams = np.linspace(-200, 200, 16384)
    trace, _ = continuous_traces(builtin_profile(tag), lams)
    root = np.sqrt(np.abs(lams - kappa))
    exact = np.where(lams >= kappa, 2.0 * np.cos(root), 2.0 * np.cosh(root))
    assert np.all(np.abs(trace - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))


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


def _recording_period_map(monkeypatch):
    """Record the lambda count of every evaluation of a ``_period_map``, and
    the arguments of every ``_segment_fits`` call."""
    sizes, fits = [], []
    period_map, segment_fits = bloch._period_map, bloch._segment_fits

    def recording_map(g, lams):
        period = period_map(g, lams)

        def recording(at):
            sizes.append(len(at))
            return period(at)

        return recording

    def recording_fits(*args):
        fits.append(args)
        return segment_fits(*args)

    monkeypatch.setattr(bloch, "_period_map", recording_map)
    monkeypatch.setattr(bloch, "_segment_fits", recording_fits)
    return sizes, fits


def test_continuous_traces_evaluate_the_map_at_the_panel_nodes(monkeypatch):
    # spectrum --lambda-max 200 --samples 16384: the segment maps are fitted
    # once on [-200, 200], and the period map is evaluated at 13 panels of
    # 17 nodes, then again only where the trace is small beside its panel's
    # largest node value
    sizes, fits = _recording_period_map(monkeypatch)
    continuous_traces(builtin_profile("cos"), np.linspace(-200, 200, 16384))
    assert [args[1:3] for args in fits] == [(-200.0, 200.0)]
    assert sizes[0] == 13 * 17 and len(sizes) <= 2 and sum(sizes) < 16384 // 8


@pytest.mark.parametrize("tag", _HILL_PROFILES)
def test_continuous_traces_are_as_exact_as_the_map_on_the_grid(tag):
    """Against an oracle, the panel path's largest trace error is at most
    twice that of the period map evaluated at every grid lambda
    (``_continuous_entries``), both relative to max(1, |trace|).

    The sample is every 16th grid lambda and the 8 where the two differ
    most.  The oracle is the closed form 2 cos sqrt(lambda - kappa) for a
    constant potential and the full-period DOP853 solve for the others.
    Both errors are about 3.6e-13 or 6.6e-13, the error of the segment fits,
    so the two paths must also agree to 3e-14: they read 1.1e-14 to 1.4e-14
    apart, and 4.0e-14 to 4.9e-14 without the direct evaluation at small
    traces.
    """
    g = _hill_profile(tag)
    lams = np.linspace(-200, 200, 16384)
    panel, _ = continuous_traces(g, lams)
    grid, _ = _trace_det(*bloch._continuous_entries(g, lams))
    assert not np.array_equal(panel, grid)  # the grid takes the panel path
    apart = np.abs(panel - grid) / np.maximum(1.0, np.abs(grid))
    assert np.max(apart) <= 3e-14
    sample = np.union1d(np.argsort(apart)[-8:], np.arange(0, len(lams), 16))
    if tag in ("zero", "const:-2"):
        mu = lams[sample] - g(np.zeros(1))[0]
        root = np.sqrt(np.abs(mu))
        exact = np.where(mu >= 0, 2.0 * np.cos(root), 2.0 * np.cosh(root))
    else:
        exact, _ = _trace_det(*_continuous_entries_full_period(g, lams[sample], 1e-13))

    def largest_error(trace):
        return np.max(np.abs(trace[sample] - exact) / np.maximum(1.0, np.abs(exact)))

    assert largest_error(panel) <= 2 * largest_error(grid)


@pytest.mark.parametrize(
    "lams",
    [np.linspace(-200, 200, 13 * 17), _ALL_EQUAL, _SUBNORMAL_STEP, _UNSORTED[:-2], _HUGE],
    ids=["17P>=L", "all-equal", "subnormal-step", "unsorted", "1e308"],
)
def test_continuous_traces_take_the_map_on_other_grids(monkeypatch, lams):
    g = builtin_profile("cos")
    if lams is _HUGE:  # max|lambda| = 1e308: both raise before a map is summed
        for scan in (bloch._continuous_entries, continuous_traces):
            with pytest.raises(IntegrationError, match=r"= 1e\+308 needs more than 1048576 segments$"):
                scan(g, lams)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        m11, _, _, m22 = bloch._continuous_entries(g, lams)
    sizes, _ = _recording_period_map(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            trace, det = continuous_traces(g, lams)
    assert sizes == [len(lams)]
    assert trace.tobytes() == (m11 + m22).tobytes()
    assert det.strides == (0,) and det.tolist() == [1.0] * len(lams)


@pytest.mark.parametrize(
    "lams",
    [np.linspace(-200, 200, 1001), np.linspace(-200, 200, 13 * 17), _ALL_EQUAL, _UNSORTED[:-2],
     _SUBNORMAL_STEP, np.array([])],
    ids=["panels", "17P>=L", "all-equal", "unsorted", "subnormal-step", "empty"],
)
def test_continuous_determinant_is_one_broadcast_value(lams):
    """det_continuous is the Wronskian of Hill's equation, a read-only
    stride-0 view of 1.0 on every grid, so the CSV writer formats it once."""
    g = builtin_profile("cos2")
    tr, det = continuous_traces(g, lams)
    assert det.shape == tr.shape == lams.shape
    assert det.strides == (0,) and not det.flags.writeable
    assert det.tolist() == [1.0] * len(lams)
    with np.errstate(over="ignore", invalid="ignore"):
        table = discriminant_scan(g, 64, lams)
    assert table.det_continuous.strides == (0,)
    assert table.det_continuous.tolist() == det.tolist()


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
    fits = []
    monkeypatch.setattr(bloch, "_segment_fits", lambda *args: fits.append(args))
    trace, det = continuous_traces(g, lams)
    assert not fits
    assert np.all(np.isfinite(trace))
    ref_trace, _ = _trace_det(*_continuous_entries_full_period(g, lams, 1e-13))
    assert np.all(np.abs(trace - ref_trace) <= 1e-9 * np.maximum(1.0, np.abs(ref_trace)))
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


def _standard_segment_maps(g, lams):
    """The maps of the S = ceil(sqrt(max|lambda| + max|g|)) segments of [0, 1]."""
    R = np.max(np.abs(lams)) + np.max(np.abs(g(np.arange(256) / 256)))
    S = math.ceil(math.sqrt(R))
    return bloch._segment_maps(g, lams, np.arange(S) / S, 1.0 / S), S


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


def test_continuous_traces_sum_to_the_ulp_threshold():
    g = builtin_profile("cos2")
    lams = np.linspace(-30, 30, 21)
    trace, _ = continuous_traces(g, lams)
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


def test_continuous_traces_keep_the_maps_overflow():
    # near lambda = -5e5 the period map's entries pass 1e306: fitted on the
    # whole grid, the map reads inf at every point, as its product overflows
    # in intermediate entries.  Panels with a non-finite node take the map's
    # own values at every point; the rest of the grid, summed from the node
    # values, is finite and agrees with the map summed at each lambda alone.
    g = builtin_profile("cos")
    lams = np.linspace(-5.02e5, -4.98e5, 8192)
    with np.errstate(over="ignore", invalid="ignore"):
        trace, _ = continuous_traces(g, lams)
        m11, _, _, m22 = bloch._continuous_entries(g, lams)
        tame = np.flatnonzero(np.isfinite(trace))
        alone = np.array([_continuous_at(g, lam) for lam in lams[tame].tolist()])
    wild = ~np.isfinite(trace)
    assert wild.any() and len(tame)
    assert trace[wild].tobytes() == (m11 + m22)[wild].tobytes()
    ref_trace = alone[:, 0] + alone[:, 3]
    assert np.all(np.abs(trace[tame] - ref_trace) <= 1e-11 * np.abs(ref_trace))


def test_continuous_traces_keep_only_the_period_map():
    # each map of 4 x 16384 entries costs 0.5 MB: holding the segment maps
    # on the grid, or a Chebyshev-Vandermonde matrix of 17 x 16384 (2.2 MB),
    # would show here; the panel path holds one row of the grid and the
    # Clenshaw buffers, about 1.75 MB
    lams = np.linspace(-200, 200, 16384)
    g = builtin_profile("cos")
    tracemalloc.start()
    try:
        continuous_traces(g, lams)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6


def test_discriminant_scan_empty_grid():
    # both trace functions return empty columns on an empty grid
    table = discriminant_scan(builtin_profile("zero"), 16, np.array([]))
    assert len(table) == 0
    for name in ("lam", "trace_discrete", "trace_continuous", "det_discrete", "det_continuous"):
        assert getattr(table, name).shape == (0,)


def test_discriminant_scan_builds_the_lattice_before_an_empty_grid():
    with pytest.raises(ValueError, match="state entries must be finite"):
        discriminant_scan(builtin_profile("const:1e200"), 8, np.array([]))


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


def test_band_distance_to_an_empty_side_is_inf():
    lams = np.linspace(0, 4, 41)
    rows = _synthetic(lams, (1, 2), (10, 11))
    assert math.isinf(band_distance(rows, 4.0).distance)


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
    assert band_distance([], 4.0) == BandDistanceResult(0.0)


def test_discriminant_table_rejects_ragged_columns():
    with pytest.raises(ValueError):
        DiscriminantTable(np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3))
