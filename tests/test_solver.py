import math

import numpy as np
import pytest

from conftest import random_smooth_state
from todakdv.lattice import LatticeState, builtin_profile, init_from_profile, rhs_flow2
from todakdv.solver import (
    BlowUpError,
    NewtonError,
    SolverConfig,
    compare_to_kdv,
    flow2_jacobian,
    linear_spectral_radius,
    reference_kdv,
    run,
    step_cn,
    step_rk4,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=1.0, scheme="leapfrog")
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=1.0, newton_tol=-1)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=1.0, output_every=0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.003, t_end=0.01)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-300, t_end=1e300)  # infinitely many steps
    SolverConfig(dt=1e-3, t_end=1.0)  # 1000 steps up to float rounding


def test_rk4_constant_state_unchanged():
    s = LatticeState(16, np.full(16, 0.3), np.full(16, 0.3))
    s1 = step_rk4(s, 0.37)
    assert s1.a == pytest.approx(s.a, abs=0) and s1.b == pytest.approx(s.b, abs=0)


def test_rk4_one_step_taylor():
    s = random_smooth_state(16, seed=2, amp=0.5)
    da, db = rhs_flow2(s)
    errs = []
    for dt in (1e-4, 5e-5):
        s1 = step_rk4(s, dt)
        err = max(
            np.max(np.abs(s1.a - (s.a + dt * da))),
            np.max(np.abs(s1.b - (s.b + dt * db))),
        )
        errs.append(err)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)  # O(dt^2) defect vs Euler


def test_jacobian_matches_finite_differences():
    s = random_smooth_state(12, seed=3, amp=0.5)
    N = s.N
    J = flow2_jacobian(s)
    assert J.format == "csc" and J.nnz == 10 * N
    J = J.toarray()
    x0 = np.concatenate([s.a, s.b])
    h = 1e-7
    for j in range(2 * N):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        def f(x):
            da, db = rhs_flow2(LatticeState(N, x[:N], x[N:]))
            return np.concatenate([da, db])
        col = (f(xp) - f(xm)) / (2 * h)
        assert J[:, j] == pytest.approx(col, rel=1e-6, abs=1e-5)


def test_spectral_radius_closed_form_matches_dense_eigenvalues():
    for N in range(8, 65):
        # at a = b = 0 the Jacobian is exactly the linear stencil
        zero = LatticeState(N, np.zeros(N), np.zeros(N))
        dense = np.max(np.abs(np.linalg.eigvals(flow2_jacobian(zero).toarray())))
        assert linear_spectral_radius(N) == pytest.approx(dense, rel=1e-12), N


def test_cn_step_matches_dense_newton():
    N, dt = 256, 5e-3
    s = random_smooth_state(N, seed=11, amp=2.0)
    tol = 1e-13
    cfg = SolverConfig(dt=dt, t_end=dt, newton_tol=tol)

    def f(x):
        da, db = rhs_flow2(LatticeState(N, x[:N], x[N:]))
        return np.concatenate([da, db])

    x0 = np.concatenate([s.a, s.b])
    base = x0 + 0.5 * dt * f(x0)
    x = x0.copy()
    for _ in range(cfg.newton_max_iter):
        resid = x - base - 0.5 * dt * f(x)
        if np.max(np.abs(resid)) <= tol:
            break
        J = flow2_jacobian(LatticeState(N, x[:N], x[N:])).toarray()
        x = x - np.linalg.solve(np.eye(2 * N) - 0.5 * dt * J, resid)
    s1 = step_cn(s, dt, cfg)
    assert np.max(np.abs(s1.a - x[:N])) <= 1e-12
    assert np.max(np.abs(s1.b - x[N:])) <= 1e-12


def test_cn_constant_fixed_point():
    s = LatticeState(16, np.full(16, 0.5), np.full(16, 0.5))
    s1 = step_cn(s, 0.1)
    assert s1.a == pytest.approx(s.a, abs=1e-13)


def test_cn_agrees_with_rk4_to_third_order():
    s = random_smooth_state(16, seed=4, amp=0.5)
    errs = []
    for dt in (2e-4, 1e-4):
        c = step_cn(s, dt)
        r = step_rk4(s, dt)
        errs.append(max(np.max(np.abs(c.a - r.a)), np.max(np.abs(c.b - r.b))))
    assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.3)  # O(dt^3) gap


def test_cn_time_reversibility():
    s = random_smooth_state(16, seed=5)
    tol = 1e-13
    cfg = SolverConfig(dt=1e-3, t_end=1e-3, newton_tol=tol)
    fwd = step_cn(s, 1e-3, cfg)
    back = step_cn(fwd, -1e-3, cfg)
    assert np.max(np.abs(back.a - s.a)) <= 10 * tol
    assert np.max(np.abs(back.b - s.b)) <= 10 * tol


def test_cn_newton_quadratic_convergence():
    s = random_smooth_state(32, seed=6, amp=3.0)
    log: list = []
    step_cn(s, 5e-3, SolverConfig(dt=5e-3, t_end=5e-3, newton_tol=1e-14), residual_log=log)
    rs = [r for r in log if r > 0]
    # once inside the basin, each residual is at worst C * previous^2
    small = [i for i in range(len(rs) - 1) if rs[i] <= 1e-4]
    assert small, f"never reached the quadratic basin: {rs}"
    for i in small:
        assert rs[i + 1] <= 1e3 * rs[i] ** 2 + 1e-15, rs


def test_cn_newton_failure_reports_residual():
    s = random_smooth_state(16, seed=7)
    cfg = SolverConfig(dt=1e-3, t_end=1e-3, newton_tol=1e-300, newton_max_iter=3)
    with pytest.raises(NewtonError) as exc:
        step_cn(s, 1e-3, cfg)
    assert exc.value.residual > 0


def test_run_t_end_zero():
    s = random_smooth_state(16, seed=8)
    traj = run(s, SolverConfig(dt=0.1, t_end=0.0))
    assert len(traj.samples) == 1 and traj.samples[0][0] == 0.0


def test_run_constant_state_drift():
    s = LatticeState(8, np.full(8, 0.25), np.full(8, 0.25))
    traj = run(s, SolverConfig(dt=1e-3, t_end=1.0, scheme="cn", output_every=200))
    r0 = traj.samples[0][2]
    for _, _, rep in traj.samples:
        for name in ("d1", "d2", "d3", "C1", "C2", "C3"):
            assert abs(getattr(rep, name) - getattr(r0, name)) <= 1e-12


def test_run_records_strictly_increasing_times():
    s = random_smooth_state(16, seed=9)
    traj = run(s, SolverConfig(dt=1e-3, t_end=0.02, scheme="rk4", output_every=5))
    ts = traj.times()
    assert np.all(np.diff(ts) > 0)


def test_rk4_blowup_flagged_with_step():
    prof = builtin_profile("cos")
    N = 64
    s = init_from_profile(prof, N, "consistent_R")
    dt = 1.0 / N
    assert dt * N**3 >= 5
    with pytest.raises(BlowUpError) as exc:
        run(s, SolverConfig(dt=dt, t_end=0.5, scheme="rk4", output_every=10**9))
    assert exc.value.step is not None and exc.value.t is not None


def test_spectral_radius_scales_linearly():
    assert linear_spectral_radius(64) == pytest.approx(2 * linear_spectral_radius(32), rel=0.05)


# -- reference oracle -----------------------------------------------------------------


def test_reference_constant_in_time():
    prof = builtin_profile("const:0.6")
    ref = reference_kdv(prof, eps=1 / 32, t=0.5, modes=64)
    assert ref.values == pytest.approx(np.full(64, 0.6), abs=1e-10)


def test_reference_t_zero_is_initial_data():
    prof = builtin_profile("cos")
    ref = reference_kdv(prof, eps=1 / 32, t=0.0, modes=64)
    assert ref.values == pytest.approx(prof.samples(64), abs=0)


def test_reference_short_time_taylor():
    prof = builtin_profile("cos")
    eps = 1.0 / 32
    M = 128
    x = np.arange(M) / M
    f0 = prof.samples(M)
    rhs0 = eps**2 * (-0.25 * prof(x, 3) + 3 * f0 * prof(x, 1))
    errs = []
    for t in (2e-3, 1e-3):
        ref = reference_kdv(prof, eps, t, modes=M)
        errs.append(np.max(np.abs(ref.values - (f0 + t * rhs0))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_reference_subsampling():
    prof = builtin_profile("cos")
    ref = reference_kdv(prof, eps=1 / 32, t=0.0, modes=128)
    sub = ref.on_lattice(32)
    assert sub == pytest.approx(prof.samples(32))
    with pytest.raises(ValueError):
        ref.on_lattice(48)


# -- lattice vs reference --------------------------------------------------------------


@pytest.mark.parametrize("variant", ["paper_25_26", "consistent_R"])
def test_compare_at_time_zero_is_exact(variant):
    prof = builtin_profile("cos")
    s = init_from_profile(prof, 32, variant)
    traj = run(s, SolverConfig(dt=1e-3, t_end=0.0))
    rep = compare_to_kdv(traj, prof, 0.0)
    assert rep.max_err <= 1e-14  # the average cancels every correction term


def test_compare_constant_profile():
    prof = builtin_profile("const:0.4")
    s = init_from_profile(prof, 32, "consistent_R")
    traj = run(s, SolverConfig(dt=2e-3, t_end=0.1, scheme="cn", output_every=10))
    rep = compare_to_kdv(traj, prof, 0.1)
    assert rep.max_err <= 1e-10


def test_init_variant_tracking_orders():
    """The two initializations settle the one-eps-power question empirically.

    Placing the corrections at a = f - eps R(f) tracks the reference at
    fourth order; the variant with every correction one power higher only
    manages second order, with errors two decades larger.  This is why
    consistent_R is the default.
    """
    prof = builtin_profile("cos")
    t_end = 0.2
    errs = {}
    for variant in ("consistent_R", "paper_25_26"):
        per_N = {}
        for N in (64, 128):
            s0 = init_from_profile(prof, N, variant)
            traj = run(s0, SolverConfig(dt=0.1 / N, t_end=t_end, scheme="rk4", output_every=10**9))
            per_N[N] = compare_to_kdv(traj, prof, t_end).max_err
        errs[variant] = per_N
    ratio_consistent = errs["consistent_R"][64] / errs["consistent_R"][128]
    ratio_paper = errs["paper_25_26"][64] / errs["paper_25_26"][128]
    assert 8 <= ratio_consistent <= 32
    assert 2.5 <= ratio_paper <= 6
    assert errs["paper_25_26"][64] > 50 * errs["consistent_R"][64]
