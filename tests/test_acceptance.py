"""Acceptance criteria, one test per criterion, printing one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criteria 1-3 are exact (zero tolerance, rational arithmetic); the numeric
criteria pin their tolerances here, nothing is deferred to calibration.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import random_smooth_state
from test_hierarchy import R_COEFFS, Z_COEFFS, Z_NONZERO_ORDERS

from todakdv.bloch import (
    DiscriminantTable,
    band_distance,
    continuous_traces,
    discrete_traces,
    lattice_from_potential,
)
from todakdv.diffpoly import DiffPoly, Monomial
from todakdv.hierarchy import AnsatzPair, flow_rhs_combined, residual, standard_R
from todakdv.lattice import (
    C1_EXPANSION,
    C2_EXPANSION,
    C3_EXPANSION,
    asymptotic_C,
    builtin_profile,
    conserved_report,
    exact_invariants,
    init_from_profile,
    rhs_flow2_arrays,
)
from todakdv.solver import (
    BlowUpError,
    SolverConfig,
    compare_to_kdv,
    run,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def ansatz():
    return AnsatzPair(standard_R(11))


def _loglog_slope(eps_values, errs):
    x = np.log(np.asarray(eps_values))
    y = np.log(np.asarray(errs))
    return float(np.polyfit(x, y, 1)[0])


# -- 1: exact residuals -----------------------------------------------------------


def test_criterion_1_symbolic_residuals(ansatz):
    bad = []
    for j in (1, 2, 3, 4):
        res = residual(j, ansatz)
        for k in range(9):
            if not res.coeff(k).is_zero():
                bad.append((j, k))
    report(1, not bad, f"residuals of flows 1..4 vanish exactly through eps^8 (violations: {bad})")


# -- 2: golden coefficients ---------------------------------------------------------


def test_criterion_2_golden_coefficients(ansatz):
    R = standard_R(11)
    mismatches = []
    for k, expect in R_COEFFS.items():
        if R.coeff(k) != expect:
            mismatches.append(f"R@eps^{k}")
    Z = {j: flow_rhs_combined(j, ansatz) for j in (1, 2, 3, 4)}
    for (j, k), expect in Z_COEFFS.items():
        if Z[j].coeff(k) != expect:
            mismatches.append(f"Z{j}@eps^{k}")
    for j, orders in Z_NONZERO_ORDERS.items():
        for k in range(7):
            if k not in orders and not Z[j].coeff(k).is_zero():
                mismatches.append(f"Z{j}@eps^{k} (should vanish)")
    # spot pins called out explicitly
    if Z[1].coeff(6).coeff(Monomial({7: 1})) != F(-1, 322560):
        mismatches.append("Z1 f(7) pin")
    if Z[4].coeff(6).coeff(Monomial({2: 1, 3: 1})) != F(35, 16):
        mismatches.append("Z4 f''f(3) pin")
    # conserved-quantity expansions
    if C1_EXPANSION.coeff(2) != DiffPoly.f(exp=2, coeff=F(1, 8)):
        mismatches.append("C1@eps^2")
    if C1_EXPANSION.coeff(4) != DiffPoly.f(exp=3, coeff=F(1, 32)):
        mismatches.append("C1@eps^4")
    if C2_EXPANSION.coeff(5) != DiffPoly.from_terms((F(1, 4), [(0, 3)]), (F(-1, 24), [(0, 1), (2, 1)])):
        mismatches.append("C2@eps^5")
    if C3_EXPANSION.coeff(5) != DiffPoly.from_terms((F(-7, 12), [(0, 3)]), (F(1, 8), [(0, 1), (2, 1)])):
        mismatches.append("C3@eps^5")
    report(2, not mismatches, f"printed rationals match exactly (mismatches: {mismatches})")


# -- 3: KdV leading term ----------------------------------------------------------------


def test_criterion_3_kdv_leading_term(ansatz):
    got = flow_rhs_combined(2, ansatz).coeff(2)
    expect = DiffPoly.from_terms((F(-1, 4), [(3, 1)]), (3, [(0, 1), (1, 1)]))
    report(3, got == expect, f"eps^2 coefficient of Z_2 is exactly -1/4 f''' + 3 f f' (got {got})")


# -- 4 and 5: invariant drift orders --------------------------------------------------------

ROUNDOFF_FLOOR = 1e-14  # exactly-conserved quantities sit at stepping roundoff


def _drift_run(s0, dt, t_end, scheme, checkpoints=5):
    """Worst exact drift of d1..d3 at the checkpoints of one run."""
    d0 = exact_invariants(s0)
    every = max(1, int(round(t_end / dt)) // checkpoints)
    traj = run(s0, SolverConfig(dt=dt, t_end=t_end, scheme=scheme, output_every=every))
    worst = [0.0, 0.0, 0.0]
    for _, s, _ in traj.samples[1:]:
        d = exact_invariants(s)
        for i in range(3):
            worst[i] = max(worst[i], abs(float(d[i] - d0[i])))
    return worst


def _ratio_ok(dr_coarse, dr_fine, lo, hi):
    details = []
    ok = True
    for name, c, f_ in zip(("d1", "d2", "d3"), dr_coarse, dr_fine):
        if c <= ROUNDOFF_FLOOR and f_ <= ROUNDOFF_FLOOR:
            details.append(f"{name}: conserved to roundoff ({c:.1e}, {f_:.1e})")
            continue
        r = c / f_
        details.append(f"{name}: ratio {r:.1f}")
        ok = ok and lo <= r <= hi
    return ok, "; ".join(details)


def test_criterion_4_rk4_drift_order():
    s0 = random_smooth_state(32, seed=11, max_mode=8, amp=12.0)
    coarse = _drift_run(s0, 1e-4, 0.1, "rk4")
    fine = _drift_run(s0, 5e-5, 0.1, "rk4")
    ok, details = _ratio_ok(coarse, fine, 8.0, 32.0)
    report(4, ok, f"RK4 drift shrinks 8-32x under dt halving ({details})")


def test_criterion_5_cn_order_and_stability():
    s0 = random_smooth_state(32, seed=11, max_mode=8, amp=12.0)
    with pytest.MonkeyPatch.context() as mp:  # the drift runs only
        mp.setattr("todakdv.solver._NEWTON_TOL", 1e-13)
        coarse = _drift_run(s0, 2e-3, 0.1, "cn")
        fine = _drift_run(s0, 1e-3, 0.1, "cn")
    ok1, details1 = _ratio_ok(coarse, fine, 3.0, 6.0)

    # stability demonstration at a step size far beyond the explicit limit
    N = 64
    prof = builtin_profile("cos")
    s_cos = init_from_profile(prof, N, "consistent_R")
    dt = 1.0 / N
    assert dt * N**3 >= 5
    try:
        run(s_cos, SolverConfig(dt=dt, t_end=0.5, scheme="rk4", output_every=10**9))
        blew_up = False
    except BlowUpError:
        blew_up = True
    traj = run(s_cos, SolverConfig(dt=dt, t_end=0.5, scheme="cn", output_every=10**9))
    d0 = exact_invariants(traj.samples[0][1])
    d1 = exact_invariants(traj.samples[-1][1])
    cn_drift = max(abs(float(a - b)) for a, b in zip(d0, d1))
    ok2 = blew_up and cn_drift <= 1e-8
    report(
        5,
        ok1 and ok2,
        f"CN drift ratios ({details1}); at dt*N^3={dt * N**3:.0f}: RK4 blow-up={blew_up}, "
        f"CN finished t=0.5 with max invariant drift {cn_drift:.2e}",
    )


# -- 6: KdV tracking order ---------------------------------------------------------------


def test_criterion_6_kdv_tracking_order():
    prof = builtin_profile("cos")
    t_end = 0.2
    errs = {}
    for N in (64, 128):
        s0 = init_from_profile(prof, N, "consistent_R")
        traj = run(s0, SolverConfig(dt=0.1 / N, t_end=t_end, scheme="rk4", output_every=10**9))
        errs[N] = compare_to_kdv(traj, prof, t_end).max_err
    ratio = errs[64] / errs[128]
    report(
        6,
        8.0 <= ratio <= 32.0,
        f"(a+b)/2 vs reference at t={t_end}: err(64)={errs[64]:.3e}, "
        f"err(128)={errs[128]:.3e}, ratio {ratio:.1f} in [8, 32]",
    )


# -- 7: conserved expansions ------------------------------------------------------------


def test_criterion_7_conserved_expansions():
    prof = builtin_profile("cos")
    Ns = (64, 128, 256)
    eps = [1.0 / N for N in Ns]
    rel1, rel2 = [], []
    for N in Ns:
        s = init_from_profile(prof, N, "consistent_R")
        rep = conserved_report(s)
        p1, p2, _ = asymptotic_C(prof, N)
        e = 1.0 / N
        lead1 = e**2 / 16.0  # eps^2/8 * int f^2, the first nonzero retained term
        lead2 = e**3 / 2.0
        rel1.append(abs(rep.C1 - p1) / lead1)
        rel2.append(abs(rep.C2 - p2) / lead2)
    # Each combination must match at relative O(eps^2): either the measured
    # slope certifies the rate, or the error is already far below eps^2
    # (for C1 on this profile the stencil expansion is exact and only
    # roundoff remains, so a slope fit would measure noise).
    def certified(rels):
        if all(r <= 0.01 * e**2 for r, e in zip(rels, eps)):
            return True, "error below 0.01 eps^2 at every N"
        slope = _loglog_slope(eps, rels)
        return slope >= 1.5, f"slope {slope:.2f} >= 1.5"
    ok1, det1 = certified(rel1)
    ok2, det2 = certified(rel2)
    report(
        7,
        ok1 and ok2,
        f"C1 rel errors {['%.2e' % r for r in rel1]} ({det1}); "
        f"C2 rel errors {['%.2e' % r for r in rel2]} ({det2})",
    )


# -- 8: spectra --------------------------------------------------------------------------


def test_criterion_8_spectra():
    # fixed lambda <= 100, free lattice: discriminant converges at eps^2
    lam = 50.0
    errs = []
    Ns = (32, 64, 128, 256)
    for N in Ns:
        tr, _ = discrete_traces(np.full(N, 2.0), np.full(N, -1.0), np.array([lam]))
        errs.append(abs(tr[0] - 2 * math.cos(math.sqrt(lam))))
    slopes = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    ok1 = all(1.7 <= s <= 2.3 for s in slopes)

    # band distance decreases monotonically in N for the cos potential
    prof = builtin_profile("cos")
    K = 15.0
    lams = np.linspace(-K, K, 300001)
    tr_c, _ = continuous_traces(prof, lams)
    zeros = np.zeros_like(lams)
    dists = []
    for N in Ns:
        A, B = lattice_from_potential(prof, N)
        tr_d, _ = discrete_traces(A, B, lams)
        dists.append(band_distance(DiscriminantTable(lams, tr_d, tr_c, zeros, zeros), K).distance)
    ok2 = all(dists[i + 1] < dists[i] for i in range(3))
    report(
        8,
        ok1 and ok2,
        f"discriminant slopes at lambda={lam}: {['%.2f' % s for s in slopes]} in [1.7, 2.3]; "
        f"band distances over N {list(Ns)}: {['%.1e' % d for d in dists]} strictly decreasing",
    )


# -- 9: symbolic vs numeric cross-oracle -----------------------------------------------------


def test_criterion_9_cross_oracle(ansatz):
    # The N=128 defect (~3e-15) sits below the float64 stencil roundoff
    # (~4e-14), so the slope is measured in extended precision; the stencil
    # arithmetic is dtype-generic and unchanged.
    Z2 = flow_rhs_combined(2, ansatz)
    R = standard_R(11)
    two_pi = 2 * math.pi
    kmax = max(Z2.max_order(), R.max_order())
    Ns = (32, 64, 128)
    diffs = []
    for N in Ns:
        eps = np.longdouble(1.0) / N
        x = np.arange(N, dtype=np.longdouble) / N
        jets = [np.longdouble(two_pi) ** k * np.cos(two_pi * x + k * math.pi / 2)
                for k in range(kmax + 1)]
        r_val = R.evaluate(jets, eps)
        a = jets[0] - eps * r_val
        b = jets[0] + eps * r_val
        f = rhs_flow2_arrays(N, np.concatenate((a, b)))
        assert f.dtype == np.longdouble
        davg = 0.5 * (f[:N] + f[N:])
        predicted = Z2.evaluate(jets, eps)
        diffs.append(float(np.max(np.abs(davg - predicted))))
    slope = _loglog_slope([1.0 / N for N in Ns], diffs)
    report(
        9,
        slope >= 6.5,
        f"max |(da+db)/2 - Z_2(f)| over N {list(Ns)}: {['%.2e' % d for d in diffs]}, "
        f"log-log slope {slope:.2f} >= 6.5",
    )
