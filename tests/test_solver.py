import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import solve_triangular

from conftest import mixed_states, random_smooth_state, stacked
from todakdv import solver
from todakdv.cli import main
from todakdv.lattice import (
    LatticeState,
    Profile,
    builtin_profile,
    conserved_report,
    init_from_profile,
    rhs_flow2,
    rhs_flow2_arrays,
)
from todakdv.solver import (
    BlowUpError,
    Flow2Jacobian,
    IntegrationError,
    NewtonError,
    SolverConfig,
    compare_to_kdv,
    flow2_jacobian,
    linear_spectral_radius,
    lu_factor,
    lu_solve,
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
        SolverConfig(dt=0.1, t_end=1.0, output_every=0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.003, t_end=0.01)
    with pytest.raises(ValueError):
        SolverConfig(dt=1e-300, t_end=1e300)  # infinitely many steps
    SolverConfig(dt=1e-3, t_end=1.0)  # 1000 steps up to float rounding


def test_rk4_constant_state_unchanged():
    x = np.full(32, 0.3)
    x1 = step_rk4(16, x, 0.37)
    assert x1 == pytest.approx(x, abs=0)


def test_rk4_one_step_taylor():
    s = random_smooth_state(16, seed=2, amp=0.5)
    x = stacked(s)
    f = rhs_flow2_arrays(s.N, x)
    errs = []
    for dt in (1e-4, 5e-5):
        x1 = step_rk4(s.N, x, dt)
        errs.append(np.max(np.abs(x1 - (x + dt * f))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)  # O(dt^2) defect vs Euler


def _rk4_formula(N, x, dt):
    """The classical four-stage step, every stage and sum a fresh array."""
    k1 = rhs_flow2_arrays(N, x)
    k2 = rhs_flow2_arrays(N, x + 0.5 * dt * k1)
    k3 = rhs_flow2_arrays(N, x + 0.5 * dt * k2)
    k4 = rhs_flow2_arrays(N, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


@settings(max_examples=60, deadline=None)
@given(s=mixed_states(), dt=st.sampled_from([1e-3, -1e-3, 5e-2, -5e-2]))
@example(s=random_smooth_state(8, seed=3), dt=-1e-3)
@example(s=random_smooth_state(8, seed=4, amp=0.5), dt=5e-2)
@example(s=random_smooth_state(9, seed=5), dt=1e-3)
def test_rk4_step_is_the_classical_formula(s, dt):
    """step_rk4, which forms its stages and sum in place, is byte for byte the
    classical formula on fresh arrays, or raises BlowUpError where that is not
    finite.  It never writes its input: neither x nor the snapshot an earlier
    step returned changes, and no result shares memory with its input."""
    N, x = s.N, stacked(s)
    before = x.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        want = _rk4_formula(N, x.copy(), dt)
    if not np.isfinite(want).all():
        with pytest.raises(BlowUpError):
            step_rk4(N, x, dt)
        assert x.tobytes() == before
        return
    x1 = step_rk4(N, x, dt)
    assert x1.tobytes() == want.tobytes()
    assert x.tobytes() == before and not np.shares_memory(x1, x)
    snapshot = x1.tobytes()
    try:
        x2 = step_rk4(N, x1, dt)
    except BlowUpError:
        x2 = None
    assert x1.tobytes() == snapshot and x.tobytes() == before
    assert x2 is None or not (np.shares_memory(x2, x1) or np.shares_memory(x2, x))


def test_jacobian_matches_finite_differences():
    s = random_smooth_state(12, seed=3, amp=0.5)
    N = s.N
    x0 = stacked(s)
    J = flow2_jacobian(N, x0).toarray()
    k = np.arange(N)
    pattern = np.zeros((2 * N, 2 * N), dtype=bool)
    for r, c, sh in solver._STENCIL:
        pattern[r * N + k, c * N + (k + sh) % N] = True
    assert pattern.sum() == 10 * N
    assert np.array_equal(J != 0, pattern)
    h = 1e-7
    for j in range(2 * N):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        col = (rhs_flow2_arrays(N, xp) - rhs_flow2_arrays(N, xm)) / (2 * h)
        assert J[:, j] == pytest.approx(col, rel=1e-6, abs=1e-5)


def test_spectral_radius_closed_form_matches_dense_eigenvalues():
    for N in range(8, 65):
        # at a = b = 0 the Jacobian is exactly the linear stencil
        dense = np.max(np.abs(np.linalg.eigvals(flow2_jacobian(N, np.zeros(2 * N)).toarray())))
        assert linear_spectral_radius(N) == pytest.approx(dense, rel=1e-12), N


def test_cn_step_matches_dense_newton(monkeypatch):
    N, dt = 256, 5e-3
    s = random_smooth_state(N, seed=11, amp=2.0)
    tol = 1e-13
    monkeypatch.setattr(solver, "_NEWTON_TOL", tol)

    def f(x):
        da, db = rhs_flow2(LatticeState(N, x[:N], x[N:]))
        return np.concatenate([da, db])

    x0 = stacked(s)
    base = x0 + 0.5 * dt * f(x0)
    x = x0.copy()
    for _ in range(solver._NEWTON_MAX_ITER):
        resid = x - base - 0.5 * dt * f(x)
        if np.max(np.abs(resid)) <= tol:
            break
        J = flow2_jacobian(N, x).toarray()
        x = x - np.linalg.solve(np.eye(2 * N) - 0.5 * dt * J, resid)
    x1, _ = step_cn(N, x0, flow2_jacobian(N, x0), dt)
    assert np.max(np.abs(x1 - x)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(min_value=8, max_value=300),
    dt=st.floats(min_value=1e-5, max_value=0.1),
    sign=st.sampled_from([-1.0, 1.0]),
    amp=st.floats(min_value=0.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
# the smallest even and odd rings, where the two joints of the fold are closest
@example(N=8, dt=0.05, sign=1.0, amp=2.0, seed=3)
@example(N=9, dt=0.05, sign=-1.0, amp=2.0, seed=4)
def test_banded_solve_matches_dense(N, dt, sign, amp, seed):
    """lu_solve(lu_factor(J, dt), r) solves (I - dt/2 J) x = r.

    The dense reference is Householder QR, which is backward stable.
    Gaussian elimination with partial pivoting (np.linalg.solve) is not on
    this periodic matrix: at N = 276, dt = -7.9e-3, amp = 1.19 its element
    growth was 6e19 and its answer wrong in the first digit.
    """
    dt *= sign
    J = flow2_jacobian(N, stacked(random_smooth_state(N, seed=seed, amp=amp)))
    r = np.random.default_rng(seed).normal(size=2 * N)
    q, upper = np.linalg.qr(np.eye(2 * N) - 0.5 * dt * J.toarray())
    expected = solve_triangular(upper, q.T @ r)
    got = lu_solve(lu_factor(J, dt), r)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _singular_jacobian(N, x):
    # I - dt/2 J with this J has a zero diagonal and nothing else in the band
    dt = 1e-3
    values = np.zeros((len(solver._STENCIL), N))
    values[solver._STENCIL.index((0, 0, 0))] = 2.0 / dt
    values[solver._STENCIL.index((1, 1, 0))] = 2.0 / dt
    return Flow2Jacobian(values, rhs_flow2_arrays(N, x))


def test_singular_band_factor_is_newton_error(monkeypatch):
    monkeypatch.setattr(solver, "flow2_jacobian", _singular_jacobian)
    x = stacked(random_smooth_state(16, seed=12))
    with pytest.raises(NewtonError, match="singular") as exc:
        step_cn(16, x, solver.flow2_jacobian(16, x), 1e-3)
    assert exc.value.residual > 0


def test_singular_band_factor_exits_3_with_message(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(solver, "flow2_jacobian", _singular_jacobian)
    code = main(["simulate", "--N", "16", "--dt", "1e-3", "--t-end", "2e-3", "--scheme", "cn",
                 "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical failure: Newton failure at step 1") and "singular" in err
    assert "Traceback" not in err


def _cn(N, x, dt):
    """The CN step with separate evaluations, the oracle of step_cn: each
    Newton iteration evaluates rhs_flow2_arrays, and factors the Jacobian of
    the stacked-row formula _jacobian_oracle; returns the new x."""
    f = rhs_flow2_arrays(N, x)
    base = x + 0.5 * dt * f
    for it in range(solver._NEWTON_MAX_ITER):
        if it:
            f = rhs_flow2_arrays(N, x)
        resid = x - base - 0.5 * dt * f
        if float(np.max(np.abs(resid))) <= solver._NEWTON_TOL:
            return x
        x = x - lu_solve(lu_factor(Flow2Jacobian(_jacobian_oracle(N, x), f), dt), resid)
    raise AssertionError("the oracle step did not converge")


def _step(N, x, dt):
    """One step_cn from x and a fresh linearization; the new x."""
    return step_cn(N, x, flow2_jacobian(N, x), dt)[0]


def test_cn_constant_fixed_point():
    x = np.full(32, 0.5)
    assert _step(16, x, 0.1) == pytest.approx(x, abs=1e-13)


def test_cn_agrees_with_rk4_to_third_order():
    x = stacked(random_smooth_state(16, seed=4, amp=0.5))
    errs = []
    for dt in (2e-4, 1e-4):
        errs.append(np.max(np.abs(_step(16, x, dt) - step_rk4(16, x, dt))))
    assert errs[0] / errs[1] == pytest.approx(8.0, rel=0.3)  # O(dt^3) gap


def test_cn_time_reversibility(monkeypatch):
    x = stacked(random_smooth_state(16, seed=5))
    tol = 1e-13
    monkeypatch.setattr(solver, "_NEWTON_TOL", tol)
    fwd, lin = step_cn(16, x, flow2_jacobian(16, x), 1e-3)
    back, _ = step_cn(16, fwd, lin, -1e-3)
    assert np.max(np.abs(back - x)) <= 10 * tol


def test_cn_newton_quadratic_convergence(monkeypatch):
    x = stacked(random_smooth_state(32, seed=6, amp=3.0))
    log: list = []
    monkeypatch.setattr(solver, "_NEWTON_TOL", 1e-14)
    step_cn(32, x, flow2_jacobian(32, x), 5e-3, residual_log=log)
    rs = [r for r in log if r > 0]
    # once inside the basin, each residual is at worst C * previous^2
    small = [i for i in range(len(rs) - 1) if rs[i] <= 1e-4]
    assert small, f"never reached the quadratic basin: {rs}"
    for i in small:
        assert rs[i + 1] <= 1e3 * rs[i] ** 2 + 1e-15, rs


def test_cn_newton_failure_reports_residual(monkeypatch):
    # the rounding floor is tried only after a Newton update, so a Newton
    # capped at one iteration fails and reports its one residual
    x = stacked(random_smooth_state(16, seed=7))
    monkeypatch.setattr(solver, "_NEWTON_TOL", 1e-300)
    monkeypatch.setattr(solver, "_NEWTON_MAX_ITER", 1)
    log: list = []
    with pytest.raises(NewtonError) as exc:
        step_cn(16, x, flow2_jacobian(16, x), 1e-3, residual_log=log)
    assert exc.value.residual > 0 and log == [exc.value.residual]


# dt N = 5243: the residuals stagnate at 1.2e-12 to 1.5e-12 from the third
# on, above _NEWTON_TOL, but below 4 ulps (1 + dt N) max|x| = 7e-12
_AT_THE_FLOOR = [(512, 10.24), (256, 20.48), (1024, 5.12)]


@pytest.mark.parametrize("N, dt", _AT_THE_FLOOR)
def test_cn_newton_stops_at_its_rounding_floor(N, dt, tmp_path, capsys):
    code = main(["simulate", "--scheme", "cn", "--init", "builtin:cos2", "--N", str(N),
                 "--dt", str(dt), "--t-end", str(dt), "--out", str(tmp_path / "run")])
    assert code == 0, capsys.readouterr().err
    x = stacked(init_from_profile(builtin_profile("cos2"), N, "consistent_R"))
    log: list = []
    step_cn(N, x, flow2_jacobian(N, x), dt, residual_log=log)
    floor = 4 * np.finfo(float).eps * (1 + dt * N) * np.max(np.abs(x))
    assert len(log) == 3 and solver._NEWTON_TOL < log[-1] <= floor < 1e-11, log


@pytest.mark.parametrize("max_iter", [1, 2])
def test_cn_newton_capped_short_of_its_floor_exits_3(monkeypatch, tmp_path, capsys, max_iter):
    # the first residual is 1.2e-2, and one Newton update leaves 7.5e-8,
    # far above the floor
    monkeypatch.setattr(solver, "_NEWTON_MAX_ITER", max_iter)
    out = tmp_path / "run"
    code = main(["simulate", "--scheme", "cn", "--init", "builtin:cos2", "--N", "512",
                 "--dt", "10.24", "--t-end", "10.24", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("numerical failure: Newton failure at step 1")
    assert not out.exists()


def _counting(monkeypatch, name):
    """Rebind solver.<name> to a wrapper that logs each call; returns the log."""
    calls = []
    fn = getattr(solver, name)

    def counted(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(solver, name, counted)
    return calls


@pytest.mark.parametrize(
    "N, dt, name, iters",
    [(32, 1e-4, "cos", 1), (33, 1e-3, "cos", 1), (64, 0.02, "cos2", 2), (31, 0.01, "cos2", 2)],
)
def test_cn_run_evaluates_each_right_side_once(monkeypatch, N, dt, name, iters):
    """One linearization (right side and Jacobian) per Newton iteration plus
    one for the initial state, no separate right side, and the same final
    state as the oracle steps that evaluate everything afresh."""
    s0 = init_from_profile(builtin_profile(name), N)
    steps = 6
    cfg = SolverConfig(dt=dt, t_end=steps * dt, output_every=4)
    rhs_calls = _counting(monkeypatch, "rhs_flow2_arrays")
    linearizations = _counting(monkeypatch, "flow2_jacobian")
    factors = _counting(monkeypatch, "lu_factor")
    final = run(s0, cfg).samples[-1][1]
    assert len(factors) == iters * steps
    assert len(linearizations) == 1 + iters * steps
    assert len(rhs_calls) == 0
    x = stacked(s0)
    for _ in range(steps):
        x = _cn(N, x, dt)
    assert stacked(final).tobytes() == x.tobytes()


@pytest.mark.parametrize("N, dt, name, steps, every", [(16, 1e-3, "cos", 10, 3), (33, 2e-4, "cos2", 12, 4)])
def test_rk4_run_snapshots_equal_chained_steps(monkeypatch, N, dt, name, steps, every):
    """run records byte for byte the states, times and reports of chained
    step_rk4 calls, one step_rk4 per step and four right sides per step."""
    s0 = init_from_profile(builtin_profile(name), N)
    steps_taken = _counting(monkeypatch, "step_rk4")
    rhs_calls = _counting(monkeypatch, "rhs_flow2_arrays")
    traj = run(s0, SolverConfig(dt=dt, t_end=steps * dt, scheme="rk4", output_every=every))
    assert (len(steps_taken), len(rhs_calls)) == (steps, 4 * steps)
    expect = [(0.0, s0)]
    x = stacked(s0)
    for step in range(1, steps + 1):
        x = step_rk4(N, x, dt)
        if step % every == 0 or step == steps:
            expect.append((step * dt, LatticeState(N, x[:N], x[N:])))
    assert len(traj.samples) == len(expect)
    for (t, got, rep), (t_want, want) in zip(traj.samples, expect):
        assert t == t_want
        assert got.a.tobytes() == want.a.tobytes() and got.b.tobytes() == want.b.tobytes()
        assert rep == conserved_report(want, t_want)


def _assert_linearization_of(lin, N, x):
    """lin is byte for byte flow2_jacobian(N, x), and its right side is
    rhs_flow2_arrays(N, x)."""
    fresh = flow2_jacobian(N, x.copy())
    assert lin.values.tobytes() == fresh.values.tobytes()
    assert lin.rhs.tobytes() == fresh.rhs.tobytes() == rhs_flow2_arrays(N, x).tobytes()


def test_cn_step_carries_the_right_side_of_its_result():
    """step_cn returns the linearization of its result, byte for byte a fresh
    one, and a step from it equals the oracle step."""
    N = 24
    x0 = stacked(random_smooth_state(N, seed=13))
    x1, lin1 = step_cn(N, x0, flow2_jacobian(N, x0), 1e-3)
    _assert_linearization_of(lin1, N, x1)
    x2, lin2 = step_cn(N, x1, lin1, 1e-3)
    assert x2.tobytes() == _cn(N, x1.copy(), 1e-3).tobytes()
    _assert_linearization_of(lin2, N, x2)


@pytest.mark.parametrize("scheme", ["rk4", "cn"])
def test_run_builds_a_state_only_per_recorded_sample(monkeypatch, scheme):
    """The steppers carry the stacked x; run builds one LatticeState per
    snapshot after the initial one, and that state is the one it records."""
    built = []

    def counted(*args):
        built.append(LatticeState(*args))
        return built[-1]

    monkeypatch.setattr(solver, "LatticeState", counted)
    s0 = init_from_profile(builtin_profile("cos2"), 24)
    traj = run(s0, SolverConfig(dt=1e-4, t_end=1e-3, scheme=scheme, output_every=3))
    assert len(traj.samples) == 5  # t = 0, steps 3, 6, 9 and the final step 10
    assert traj.samples[0][1] is s0
    assert len(built) == len(traj.samples) - 1
    assert all(got is want for (_, got, _), want in zip(traj.samples[1:], built))


def _jacobian_oracle(N, x):
    """The flow-2 Jacobian formula, the oracle of flow2_jacobian's values: ten
    row expressions stacked, then scaled by N."""
    eps2 = 1.0 / N**2
    a, b = x[:N], x[N:]
    am, ap = np.roll(a, 1), np.roll(a, -1)
    bm, bp = np.roll(b, 1), np.roll(b, -1)
    return float(N) * np.array([
        1.0 - eps2 * b,
        eps2 * (bp - b),
        -1.0 + eps2 * bp,
        -2.0 - eps2 * (a + am),
        2.0 + eps2 * (a + ap),
        -2.0 + eps2 * (2 * b - 2 * am + 2 * eps2 * b * am),
        2.0 + eps2 * (-2 * b + 2 * a - 2 * eps2 * b * a),
        1.0 - eps2 * b,
        eps2 * (-2 * a + 2 * am + bp - bm + eps2 * (am**2 - a**2)),
        -1.0 + eps2 * b,
    ])


@settings(max_examples=40, deadline=None)
@given(s=mixed_states(), dt=st.sampled_from([1e-3, -5e-3, 0.1]))
def test_jacobian_and_band_match_stacked_assembly(s, dt):
    """The preallocated Jacobian and the flat-index band write are bit for bit
    the stacked-array Jacobian and the np.put band."""
    J = flow2_jacobian(s.N, stacked(s))
    assert J.values.tobytes() == _jacobian_oracle(s.N, stacked(s)).tobytes()
    index, _ = solver._band_layout(s.N)
    band = np.zeros((2 * s.N, solver._LDAB))
    np.put(band, index, (-0.5 * dt) * J.values)
    band[:, solver._KL + solver._KU] += 1.0
    with pytest.MonkeyPatch.context() as mp:  # hand back the band dgbtrf would factor
        mp.setattr(solver, "dgbtrf", lambda ab, kl, ku, overwrite_ab: (ab.copy(), None, 0))
        written, _, _ = lu_factor(J, dt)
    assert written.tobytes() == band.T.tobytes()


@st.composite
def _scaled_states(draw):
    """Smooth random states of amplitude 1e-3 to 1e3."""
    N = draw(st.integers(min_value=8, max_value=64))
    amp = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0))
    return random_smooth_state(N, seed=draw(st.integers(min_value=0, max_value=2**16)), amp=amp)


@settings(max_examples=80, deadline=None)
@given(s=st.one_of(mixed_states(), _scaled_states()))
@example(s=random_smooth_state(8, seed=1, amp=1e3))
@example(s=random_smooth_state(9, seed=2, amp=1e-3))
def test_linearization_is_the_right_side_and_the_jacobian_formula(s):
    """flow2_jacobian's right side is rhs_flow2_arrays byte for byte and its
    values the stacked-row Jacobian formula byte for byte: both schemes take
    the right side of the one flow-2 kernel, and the Jacobian rows built from
    the operands it shares are the formula's."""
    N, x = s.N, stacked(s)
    lin = flow2_jacobian(N, x)
    assert lin.rhs.tobytes() == rhs_flow2_arrays(N, x).tobytes()
    assert lin.values.tobytes() == _jacobian_oracle(N, x).tobytes()


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


def _reference_direct(prof, eps, t, M):
    # the dispersive term stepped explicitly by DOP853, without the integrating factor
    ik = 2j * np.pi * np.fft.rfftfreq(M, d=1.0 / M)

    def rhs(_t, u):
        uhat = np.fft.rfft(u)
        ux, uxxx = np.fft.irfft(ik * uhat, n=M), np.fft.irfft(ik**3 * uhat, n=M)
        return eps**2 * (-0.25 * uxxx + 3.0 * u * ux)

    return solve_ivp(rhs, (0.0, t), prof.samples(M), method="DOP853", rtol=1e-11, atol=1e-13).y[:, -1]


# M = 4 puts the second mode of cos2 on the Nyquist frequency
@pytest.mark.parametrize("name, N, t, M", [("cos", 64, 0.05, 128), ("cos2", 32, 0.05, 63),
                                           ("cos2", 32, 0.2, 64), ("cos2", 8, 0.5, 4)])
def test_reference_matches_direct_integration(name, N, t, M):
    prof = builtin_profile(name)
    ref = reference_kdv(prof, 1.0 / N, t, modes=M)
    assert np.max(np.abs(ref.values - _reference_direct(prof, 1.0 / N, t, M))) <= 1e-11


def _reference_oracle(prof, eps, t, M):
    # the integrating factor stepped by DOP853 near its tightest tolerance
    kfreq = 2.0 * np.pi * np.fft.rfftfreq(M, d=1.0 / M)
    omega = 0.25 * eps**2 * kfreq**3
    omega[-1] = 0.0  # even M: irfft drops the derivatives of the Nyquist mode

    def rhs(t_, w):
        phase = np.exp(1j * omega * t_)
        uhat = phase * np.fft.rfft(w)
        u, ux = np.fft.irfft(uhat, n=M), np.fft.irfft(1j * kfreq * uhat, n=M)
        return np.fft.irfft(phase.conj() * np.fft.rfft(3.0 * eps**2 * u * ux), n=M)

    w = solve_ivp(rhs, (0.0, t), prof.samples(M), method="DOP853", rtol=1e-13, atol=1e-15).y[:, -1]
    return np.fft.irfft(np.exp(1j * omega * t) * np.fft.rfft(w), n=M)


# tau = eps^2 t = 1/256 and 1/102.4: a global tolerance holds on long horizons,
# where DOP853 at the default local tolerances was about 1e-9 off
@pytest.mark.parametrize("N, t", [(16, 1.0), (32, 10.0)])
def test_reference_matches_a_tight_oracle_on_long_horizons(monkeypatch, N, t):
    prof = builtin_profile("cos2")
    oracle = _reference_oracle(prof, 1.0 / N, t, 256)
    ref = reference_kdv(prof, 1.0 / N, t, modes=256)
    assert np.max(np.abs(ref.values - oracle)) <= 1e-10
    assert ref.error_estimate <= 1e-13 + 1e-11 * np.max(np.abs(ref.values))
    # the reported estimate is the size of the error where the oracle can see it
    monkeypatch.setattr(solver, "_REFERENCE_RTOL", 1e-6)
    monkeypatch.setattr(solver, "_REFERENCE_ATOL", 0.0)
    loose = reference_kdv(prof, 1.0 / N, t, modes=256)
    assert loose.steps < ref.steps
    assert loose.error_estimate <= 1e-6 * np.max(np.abs(loose.values))
    assert np.max(np.abs(loose.values - oracle)) <= 2 * loose.error_estimate


@pytest.mark.parametrize("amplitude", [np.nan, np.inf, 1e200])
def test_reference_non_finite_state_fails_before_stepping(monkeypatch, amplitude):
    """A non-finite initial state, or one whose stable step would need more
    than the step cap, raises without running a single step."""
    runs = []
    monkeypatch.setattr(solver, "_if_rk4", lambda *args: runs.append(args))
    prof = Profile("wild", lambda x, order: amplitude * np.cos(2 * np.pi * x + order * np.pi / 2))
    with pytest.raises(IntegrationError, match="^reference KdV integration failed: "):
        reference_kdv(prof, eps=1 / 32, t=0.1)
    assert runs == []


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
