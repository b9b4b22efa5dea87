import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import todakdv
from todakdv import bloch, hierarchy, lattice, solver
from todakdv.cli import _write_spectrum_csv, main, read_config, write_config
from todakdv.diffpoly import EpsSeries
from todakdv.lattice import FMT, builtin_profile, exact_invariants, init_from_profile, write_csv

GOLDEN = Path(__file__).parent / "golden" / "v1"
GOLDEN_V2 = Path(__file__).parent / "golden" / "v2"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- verify -----------------------------------------------------------------------


def test_verify_flow2_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--flow", "2")
    assert code == 0
    assert "VERIFIED" in out
    assert out.count("eps^") >= 9


def test_verify_truncated_R_fails_with_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--flow", "2", "--truncate-R", "1")
    assert code == 1
    assert "first nonzero residual at eps^4" in out


def test_verify_bad_flow_is_usage_error(capsys):
    for flow in ("0", "-1"):
        code, out, err = run_cli(capsys, "verify", "--flow", flow)
        assert code == 2 and out == ""
        assert err == f"error: flow index k must be >= 1, got {flow}\n"


@pytest.mark.parametrize("flow", ["65", "480", "600"])
def test_verify_flow_above_the_bound_is_usage_error(capsys, flow):
    code, out, err = run_cli(capsys, "verify", "--flow", flow)
    assert code == 2
    assert out == ""
    assert err == f"error: flow index k = {flow} is above the bound MAX_FLOW = 64\n"


@pytest.mark.parametrize("cap", ["0", "5", "6", "10", "15", "1000"])
def test_verify_order_cap_outside_its_range_is_usage_error(capsys, monkeypatch, cap):
    """Below 11 the residual stops short of eps^8, above 14 a run would take
    minutes to hours: both exit 2 before any series is built."""
    def no_work(*args):
        raise AssertionError("verify built a series for a rejected --order-cap")

    monkeypatch.setattr(hierarchy, "standard_R", no_work)
    code, out, err = run_cli(capsys, "verify", "--flow", "2", "--order-cap", cap)
    assert code == 2 and out == ""
    assert err == f"error: --order-cap must be between 11 and 14, got {cap}\n"


@pytest.mark.parametrize("keep", ["0", "-3"])
def test_verify_truncate_R_below_one_is_usage_error(capsys, monkeypatch, keep):
    """A series of no coefficients exits 2 before any series is built."""
    def no_work(*args):
        raise AssertionError("verify built a series for a rejected --truncate-R")

    monkeypatch.setattr(hierarchy, "standard_R", no_work)
    code, out, err = run_cli(capsys, "verify", "--flow", "2", "--truncate-R", keep)
    assert code == 2 and out == ""
    assert err == f"error: --truncate-R must keep at least one coefficient, got {keep}\n"


def test_verify_order_cap_at_the_bound_verifies(capsys):
    code, out, _ = run_cli(capsys, "verify", "--flow", "1", "--order-cap", "14")
    assert code == 0
    assert out.startswith("flow 1: residual coefficients through eps^11\n")
    assert out.splitlines()[-1] == "VERIFIED: residual vanishes exactly through eps^8"


@pytest.mark.parametrize("flow", ["5", "6"])
def test_verify_higher_flows_pass(capsys, flow):
    # the six-term R fixes the raw residual of flows 5 and 6 too
    code, out, _ = run_cli(capsys, "verify", "--flow", flow)
    assert code == 0
    assert out.splitlines()[-1] == "VERIFIED: residual vanishes exactly through eps^8"


# -- exactness gate: verify and extend_R outputs, byte for byte -----------------------


@pytest.mark.parametrize("argv, name", [
    *[((f"{k}", "--order-cap", "12"), f"verify_flow{k}_cap12") for k in range(1, 7)],
    (("12",), "verify_flow12"),
])
def test_verify_matches_golden_v2(capsys, argv, name):
    code, out, _ = run_cli(capsys, "verify", "--flow", *argv)
    assert code == 0
    assert out == (GOLDEN_V2 / f"{name}.txt").read_text()


def _extend_R_chain_text():
    """The summaries of four extend_R steps from R_0..R_3, then the
    coefficients R_4..R_7 they add."""
    R = hierarchy.standard_R()
    R = EpsSeries(list(R.coeffs[:4]), order_cap=R.order_cap)
    lines = []
    for step in range(1, 5):
        out = hierarchy.extend_R(R)
        assert out.status == "extended"
        lines.append(f"step {step}: {out.summary()}")
        R = out.new_R
    lines += [f"R_{k} : {R.coeff(k)}" for k in range(4, 8)]
    return "\n".join(lines) + "\n"


def test_extend_R_chain_matches_golden_v2():
    assert _extend_R_chain_text() == (GOLDEN_V2 / "extend_R_chain.txt").read_text()


# -- expand (golden rendering contract) ------------------------------------------------


@pytest.mark.parametrize("expr", ["R", "Z1", "Z2", "Z3", "Z4", "C1", "C2", "C3"])
def test_expand_matches_golden(capsys, expr):
    code, out, _ = run_cli(capsys, "expand", expr)
    assert code == 0
    assert out == (GOLDEN / f"{expr}.txt").read_text()


def test_expand_key_lines(capsys):
    _, out, _ = run_cli(capsys, "expand", "R")
    assert out.splitlines()[1] == "eps^1 : (-1/8) * f^2"
    _, out, _ = run_cli(capsys, "expand", "Z2")
    assert out.splitlines()[2] == "eps^2 : (-1/4) * f(3) + 3 * f * f'"
    _, out, _ = run_cli(capsys, "expand", "C3")
    line = out.splitlines()[5]
    assert "(-7/12)" in line and "1/8" in line


# -- simulate ------------------------------------------------------------------------


def _simulate(capsys, tmp_path, name, *extra):
    out = tmp_path / name
    code, stdout, stderr = run_cli(
        capsys,
        "simulate", "--N", "32", "--dt", "0.002", "--t-end", "0.02",
        "--scheme", "cn", "--init", "builtin:cos", "--out", str(out), *extra,
    )
    return code, out, stdout, stderr


def test_simulate_writes_outputs(capsys, tmp_path):
    code, out, stdout, _ = _simulate(capsys, tmp_path, "run")
    assert code == 0
    for fname in ("config.txt", "trajectory.csv", "conserved.csv", "comparison.csv", "state.csv"):
        assert (out / fname).exists()
    assert "spectral radius" in stdout
    cfg = read_config(out / "config.txt")
    assert cfg["N"] == "32" and cfg["scheme"] == "cn"
    with open(out / "conserved.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "d1", "d2", "d3", "C1", "C2", "C3"]
    with open(out / "trajectory.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "n", "a", "b"]
    with open(out / "comparison.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["x", "lattice", "reference", "error"]


def test_simulate_deterministic(capsys, tmp_path):
    _, out1, _, _ = _simulate(capsys, tmp_path, "run1")
    _, out2, _, _ = _simulate(capsys, tmp_path, "run2")
    for fname in ("trajectory.csv", "conserved.csv", "comparison.csv"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


def test_simulate_csv_init_roundtrip(capsys, tmp_path):
    from todakdv.lattice import builtin_profile, init_from_profile, write_state_csv

    state = init_from_profile(builtin_profile("cos"), 32, "consistent_R")
    path = tmp_path / "init.csv"
    write_state_csv(path, state)
    out = tmp_path / "fromcsv"
    code, *_ = run_cli(
        capsys,
        "simulate", "--N", "32", "--dt", "0.002", "--t-end", "0.004",
        "--init", f"csv:{path}", "--out", str(out),
    )
    assert code == 0
    assert not (out / "comparison.csv").exists()  # no closed form, no reference


def test_simulate_blowup_exits_3(capsys, tmp_path):
    out = tmp_path / "blow"
    code, _, err = run_cli(
        capsys,
        "simulate", "--N", "64", "--dt", str(1 / 64), "--t-end", "0.5",
        "--scheme", "rk4", "--init", "builtin:cos", "--out", str(out),
    )
    assert code == 3
    assert "blow-up" in err
    assert not out.exists()


def test_simulate_bad_init_usage(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "simulate", "--N", "32", "--dt", "0.01", "--t-end", "0.01",
        "--init", "fourier:3", "--out", str(tmp_path / "x"),
    )
    assert code == 2


@pytest.mark.parametrize(
    "extra, message",
    [
        (("--output-every", "0"), "output_every must be >= 1"),
        (("--output-every", "-2"), "output_every must be >= 1"),
        (("--dt", "0.003", "--t-end", "0.01"), "whole number of steps"),
        (("--t-end", "-0.02"), "non-negative"),
        (("--t-end", "-2e-3"), "non-negative"),
        (("--init", "builtin:const:inf"), "finite kappa"),
        (("--init", "builtin:const:1e200"), "state entries must be finite"),
    ],
)
def test_simulate_bad_run_config_usage(capsys, tmp_path, extra, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _, err = _simulate(capsys, tmp_path, "bad", *extra)
    assert code == 2
    assert message in err and "Traceback" not in err
    assert len(err.splitlines()) == 1 and not caught
    assert not (out / "config.txt").exists()
    assert not out.exists()


@pytest.mark.parametrize(
    "indices",
    [
        [0, 0, 2, 3, 4, 5, 6, 9],
        [0, 1, 2, 3, 4, 5, 6, 9],
        pytest.param("", id="empty_file"),
        pytest.param("n,a,b\n0,1.0\n", id="short_row"),
        pytest.param("n,a,b\n", id="header_only"),
        pytest.param("n,a,b\n" + "".join(f"{n},0.5,{'x' if n == 3 else 0.25}\n" for n in range(8)),
                     id="non_numeric_b"),
        pytest.param("n,a,b\n" + "".join(f"{1.5 if n == 1 else n},0.5,0.25\n" for n in range(8)),
                     id="fractional_index"),
        pytest.param("n,a,b\n" + "".join(f"{n},{'nan' if n == 2 else 0.5},0.25\n" for n in range(8)),
                     id="nan_a"),
        pytest.param("n,a,b\n" + "".join(f"{n},0.5,0.25\n" for n in range(16)), id="other_N"),
        pytest.param("n,a,b\n" + "".join(f"{n},0.5,0.25\n" for n in range(7)), id="seven_sites"),
    ],
)
def test_simulate_csv_init_bad_indices_usage(capsys, tmp_path, indices):
    path = tmp_path / "init.csv"
    if isinstance(indices, str):  # the file contents
        path.write_text(indices)
    else:
        path.write_text("n,a,b\n" + "".join(f"{n},0.5,0.25\n" for n in indices))
    code, _, err = run_cli(
        capsys,
        "simulate", "--N", "8", "--dt", "0.002", "--t-end", "0.004",
        "--init", f"csv:{path}", "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and str(path) in err
    assert not (tmp_path / "x").exists()
    if not isinstance(indices, str):
        assert "exactly 0..N-1" in err


@pytest.mark.parametrize("scheme", ["rk4", "cn"])
def test_simulate_huge_state_overflow_exits_3(capsys, tmp_path, scheme):
    # finite entries, but d_3 ~ (1e200 / N^2)^3 is beyond the float64 range
    path = tmp_path / "init.csv"
    path.write_text("n,a,b\n" + "".join(f"{n},{1e200 if n == 0 else 0.5},0.25\n" for n in range(8)))
    code, _, err = run_cli(
        capsys,
        "simulate", "--N", "8", "--dt", "1e-4", "--t-end", "1e-4", "--scheme", scheme,
        "--init", f"csv:{path}", "--out", str(tmp_path / "x"),
    )
    assert code == 3
    assert err.splitlines() == ["numerical failure: conserved quantities at t = 0 overflow float64"]
    assert not (tmp_path / "x").exists()


def test_simulate_overflowing_builtin_init_exits_3_without_output(capsys, tmp_path):
    out = tmp_path / "bad"
    code, _, err = run_cli(
        capsys, "simulate", "--N", "16", "--dt", "1e-3", "--t-end", "0.002",
        "--init", "builtin:const:1e60", "--out", str(out),
    )
    assert code == 3
    assert err.splitlines() == ["numerical failure: conserved quantities at t = 0 overflow float64"]
    assert not out.exists()


# -- conserved ----------------------------------------------------------------------


def test_conserved_drift_on_constant_state(capsys, tmp_path):
    out = tmp_path / "const"
    code, *_ = run_cli(
        capsys,
        "simulate", "--N", "32", "--dt", "0.01", "--t-end", "0.1",
        "--scheme", "cn", "--init", "builtin:const:0.5", "--out", str(out),
    )
    assert code == 0
    code, stdout, _ = run_cli(capsys, "conserved", "--traj", str(out))
    assert code == 0
    assert (out / "drift.csv").exists()
    for line in stdout.splitlines():
        if line.startswith("max |"):
            assert float(line.split("=")[1]) <= 1e-12


def test_conserved_reports_exact_d_drift(capsys, tmp_path):
    # the d's in conserved.csv are rounded far above their drift (which then
    # read 0); the report differences exact invariants of the snapshots
    out = tmp_path / "rk4"
    code, *_ = run_cli(
        capsys,
        "simulate", "--N", "32", "--dt", "1e-3", "--t-end", "0.05", "--scheme", "rk4",
        "--output-every", "10", "--out", str(out),
    )
    assert code == 0
    traj = solver.run(
        init_from_profile(builtin_profile("cos"), 32, "consistent_R"),
        solver.SolverConfig(dt=1e-3, t_end=0.05, scheme="rk4", output_every=10),
    )
    d0 = exact_invariants(traj.samples[0][1])
    expect = [[float(d - e) for d, e in zip(exact_invariants(s), d0)] for _, s, _ in traj.samples]
    code, stdout, _ = run_cli(capsys, "conserved", "--traj", str(out))
    assert code == 0
    with open(out / "drift.csv") as fh:
        rows = [[float(x) for x in r] for r in list(csv.reader(fh))[1:]]
    assert [r[1:4] for r in rows] == expect
    for i in range(3):
        worst = max(abs(e[i]) for e in expect)
        assert worst > 0
        assert f"max |d{i + 1} drift| = {worst:.3e}" in stdout.splitlines()


def test_conserved_needs_matching_trajectory(capsys, tmp_path):
    code, out, *_ = _simulate(capsys, tmp_path, "run")
    assert code == 0
    traj = (out / "trajectory.csv").read_text().splitlines()
    (out / "trajectory.csv").write_text("\n".join(traj[: 1 + 32]) + "\n")  # one snapshot
    code, _, err = run_cli(capsys, "conserved", "--traj", str(out))
    assert code == 2
    assert "must match" in err and "Traceback" not in err
    (out / "trajectory.csv").write_text("t,n,a,b\n0,0\n")
    code, _, err = run_cli(capsys, "conserved", "--traj", str(out))
    assert code == 2 and "Traceback" not in err
    assert "needs 4 columns" in err and str(out / "trajectory.csv") in err
    (out / "trajectory.csv").unlink()
    code, _, err = run_cli(capsys, "conserved", "--traj", str(out))
    assert code == 2
    assert "trajectory.csv" in err
    conserved = (out / "conserved.csv").read_text()
    with open(out / "conserved.csv", "a") as fh:
        fh.write("0.5,1\n")
    code, _, err = run_cli(capsys, "conserved", "--traj", str(out))
    assert code == 2
    assert "needs 7 columns" in err
    for name in ("conserved.csv", "trajectory.csv"):  # empty files
        (out / "conserved.csv").write_text(conserved)
        (out / name).write_text("")
        code, _, err = run_cli(capsys, "conserved", "--traj", str(out))
        assert code == 2
        assert err.startswith("error: expected header") and str(out / name) in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("file, lines, field, value", [
    pytest.param("trajectory.csv", range(5, 6), 2, "x", id="trajectory_a"),
    # the t of every site of the second snapshot (32 sites)
    pytest.param("trajectory.csv", range(33, 65), 0, "zz", id="trajectory_t"),
    pytest.param("conserved.csv", range(2, 3), 0, "zz", id="conserved_t"),
])
def test_conserved_non_numeric_field_names_file(capsys, tmp_path, file, lines, field, value):
    code, out, *_ = _simulate(capsys, tmp_path, "run")
    assert code == 0
    text = (out / file).read_text().splitlines()
    for i in lines:
        fields = text[i].split(",")
        fields[field] = value
        text[i] = ",".join(fields)
    (out / file).write_text("\n".join(text) + "\n")
    code, _, err = run_cli(capsys, "conserved", "--traj", str(out), "--out", str(tmp_path / "drift"))
    assert code == 2
    assert err.startswith("error: non-numeric field in ") and str(out / file) in err
    assert repr(value) in err and len(err.splitlines()) == 1
    assert not (tmp_path / "drift").exists()


# edits of a 16-site run with snapshots at t = 0, 0.004, 0.008 and 0.01; the
# snapshot at t = 0.004 is lines 17..32 of trajectory.csv and line 2 of conserved.csv
def _swap_sites(lines):
    lines[20], lines[21] = lines[21], lines[20]


def _drop_site(lines):
    del lines[24]


def _drop_last_site(lines):  # the last snapshot keeps n = 0..14 in order
    del lines[-1]


def _move_time(lines):
    lines[2] = "0.5" + lines[2][lines[2].index(","):]


@pytest.mark.parametrize("file, edit", [
    ("trajectory.csv", _swap_sites),
    ("trajectory.csv", _drop_site),
    ("trajectory.csv", _drop_last_site),
    ("conserved.csv", _move_time),
])
def test_conserved_rejects_snapshots_that_do_not_match(capsys, tmp_path, file, edit):
    """Each snapshot lists n = 0..N-1 in order, with the N of the first, at the
    time of its conserved.csv row; otherwise exit 2 naming the file, no drift.csv."""
    run = tmp_path / "rk4"
    code, *_ = run_cli(capsys, "simulate", "--N", "16", "--dt", "1e-3", "--t-end", "0.01",
                       "--scheme", "rk4", "--output-every", "4", "--out", str(run))
    assert code == 0
    lines = (run / file).read_text().splitlines()
    edit(lines)
    (run / file).write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "conserved", "--traj", str(run), "--out", str(tmp_path / "drift"))
    assert code == 2 and "Traceback" not in err
    assert str(run / file) in err and len(err.splitlines()) == 1
    assert not (tmp_path / "drift").exists()


# -- CSV input ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def csv_run(tmp_path_factory):
    """A finished run whose state.csv, trajectory.csv and conserved.csv the CLI reads back."""
    run = tmp_path_factory.mktemp("csv") / "run"
    assert main(["simulate", "--N", "16", "--dt", "1e-3", "--t-end", "0.004", "--scheme", "rk4",
                 "--output-every", "2", "--out", str(run)]) == 0
    return run


def _upper_header(lines):
    lines[0] = lines[0].upper()


def _drop_last_field(lines):
    lines[3] = lines[3].rsplit(",", 1)[0]


def _set_last_field(value):
    def edit(lines):
        _drop_last_field(lines)
        lines[3] += "," + value
    return edit


def _keep_header(lines):
    del lines[1:]


_CSV_FAULTS = {
    "wrong_header": _upper_header,
    "short_row": _drop_last_field,
    "non_numeric": _set_last_field("x"),
    "inf": _set_last_field("inf"),
    "header_only": _keep_header,
}


@pytest.mark.parametrize("fault", _CSV_FAULTS)
@pytest.mark.parametrize("file", ["state.csv", "trajectory.csv", "conserved.csv"])
def test_csv_input_fault_exits_2_naming_the_file(capsys, tmp_path, csv_run, file, fault):
    """Every table the CLI reads (state.csv through simulate --init csv:,
    trajectory.csv and conserved.csv through conserved) is rejected with one
    error line that names it, and no --out, for each fault read_csv knows."""
    run = tmp_path / "run"
    run.mkdir()
    for name in ("state.csv", "trajectory.csv", "conserved.csv"):
        (run / name).write_bytes((csv_run / name).read_bytes())
    lines = (run / file).read_text().splitlines()
    _CSV_FAULTS[fault](lines)
    (run / file).write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    if file == "state.csv":
        argv = ["simulate", "--N", "16", "--dt", "1e-3", "--t-end", "0.002", "--scheme", "rk4",
                "--init", f"csv:{run / file}", "--out", str(out)]
    else:
        argv = ["conserved", "--traj", str(run), "--out", str(out)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(run / file) in err
    assert not out.exists()


def test_simulate_lattice_not_dividing_reference_grid(capsys, tmp_path):
    # N = 24 does not divide the default 256 reference modes
    code, out, stdout, _ = _simulate(capsys, tmp_path, "n24", "--N", "24")
    assert code == 0
    assert "comparison at t=0.02" in stdout
    assert (out / "comparison.csv").exists()


def test_simulate_long_comparison_finishes(capsys, tmp_path):
    # the reference must not step the stiff dispersive term explicitly: on
    # 256 modes up to t = 1, DOP853 did not finish within a minute
    out = tmp_path / "long"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--N", "16", "--dt", "0.5", "--t-end", "1",
        "--init", "builtin:cos2", "--out", str(out),
    )
    assert code == 0
    assert re.search(r"comparison at t=1: max err \S+, l2 err \S+ "
                     r"\(reference: \d+ steps, Richardson estimate \S+\)\n", stdout)
    assert (out / "comparison.csv").exists()


def test_reference_integration_failure_exits_3(capsys, tmp_path, monkeypatch):
    # cos2 to t = 0.1 needs a Richardson pair of 2 and 4 reference steps; with
    # the finer run capped at 2 steps, the pair of 1 and 2 steps is the last
    monkeypatch.setattr(solver, "_MAX_STEPS", 2)
    code, out, _, err = _simulate(capsys, tmp_path, "ref", "--init", "builtin:cos2", "--t-end", "0.1")
    assert code == 3
    [line] = err.splitlines()
    assert re.fullmatch(
        r"numerical failure: reference KdV integration failed: Richardson estimate \S+ above "
        r"rtol = 1e-11, atol = 1e-13 within 2 steps",
        line,
    )
    assert not out.exists()


# -- spectrum -----------------------------------------------------------------------


def test_spectrum_zero_potential_closed_form(capsys, tmp_path):
    out = tmp_path / "spec"
    code, *_ = run_cli(
        capsys,
        "spectrum", "--g", "builtin:zero", "--N", "64",
        "--lambda-max", "50", "--samples", "101", "--out", str(out),
    )
    assert code == 0
    with open(out / "spectrum.csv") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        rows = [[float(x) for x in r] for r in rd]
    assert header == ["lambda", "trace_discrete", "trace_continuous",
                      "det_discrete", "det_continuous"]
    assert len(rows) == 101
    for lam, trd, trc, detd, detc in rows:
        expect = 2 * math.cos(math.sqrt(lam)) if lam >= 0 else 2 * math.cosh(math.sqrt(-lam))
        assert abs(trc - expect) < 1e-6 * max(1.0, abs(expect))
        # O(eps^2) discretization, relative to the (possibly cosh-large) trace
        assert abs(trd - expect) < 0.02 + 0.005 * abs(expect)
        # prod(-B(n)) of the free lattice to rounding, and the Hill Wronskian exactly
        assert abs(detd - 1.0) < 1e-9
        assert detc == 1.0


def _spectrum_csv_reference(path, table):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["lambda", "trace_discrete", "trace_continuous", "det_discrete", "det_continuous"])
        for row in zip(table.lam, table.trace_discrete, table.trace_continuous,
                       table.det_discrete, table.det_continuous):
            wr.writerow([FMT % x for x in row])


_AWKWARD = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308, 0.1, -2.0, 1 / 3, 4.0e-17]
_LONG = 2 * lattice._CSV_CHUNK + 5  # over chunk boundaries, with a short last chunk


@pytest.mark.parametrize("rows", [0, 1, 2, len(_AWKWARD), _LONG])
def test_spectrum_csv_writer_matches_csv_module(tmp_path, rows):
    # det: the det_discrete column as a stride-0 broadcast of one value, and
    # det_continuous as one of 1.0, as the trace functions return them, which
    # the writer formats once; the long block tiles _AWKWARD, so FMT-printed
    # fields sit among positional ones
    for k, det in enumerate([None, -0.0, math.nan, math.inf, -math.inf, 5e-324]):
        cols = [np.resize(np.roll(np.array(_AWKWARD), shift), rows) for shift in range(5)]
        if det is not None:
            cols[3:] = np.broadcast_to(det, rows), np.broadcast_to(1.0, rows)
            assert cols[3].strides == cols[4].strides == (0,)
        table = bloch.DiscriminantTable(*cols)
        _write_spectrum_csv(tmp_path / f"new{k}.csv", table)
        _spectrum_csv_reference(tmp_path / f"ref{k}.csv", table)
        new = (tmp_path / f"new{k}.csv").read_bytes()
        assert new == (tmp_path / f"ref{k}.csv").read_bytes()
        if det is not None and rows:
            det_fields = new.splitlines()[1].split(b",")[3:]
            assert det_fields[0].decode() == {-0.0: "-0", 5e-324: "4.9406564584124654e-324"}.get(det, FMT % det)
            assert det_fields[1] == b"1"


def test_spectrum_scan_csv_matches_csv_module(capsys, tmp_path):
    # a benchmark-sized scan: 16384 rows of positional fields from the real traces
    out = tmp_path / "s"
    code, *_ = run_cli(capsys, "spectrum", "--g", "builtin:cos2", "--N", "512", "--samples", "16384",
                       "--out", str(out))
    assert code == 0
    table = bloch.discriminant_scan(builtin_profile("cos2"), 512, np.linspace(-200, 200, 16384))
    _spectrum_csv_reference(tmp_path / "ref.csv", table)
    written = (out / "spectrum.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    # det_continuous is the Hill Wronskian, exactly 1 in every row
    assert [row.split(b",")[4] for row in written.splitlines()[1:]] == [b"1"] * 16384


@pytest.mark.parametrize("rows", [0, 1, len(_AWKWARD)])
def test_trajectory_csv_writer_matches_csv_module(tmp_path, rows):
    # the trajectory.csv layout: FMT floats around an integer site index, as
    # one table; with const_t the snapshots of 3 rows are concatenated, each
    # snapshot's t repeated over its rows, as cmd_simulate passes them
    for const_t in (False, True):
        t, a, b = (np.roll(np.array(_AWKWARD), shift)[:rows] for shift in range(3))
        n = np.arange(rows) * 7919
        if const_t:
            t = np.repeat(t[::3], 3)[:rows]
        write_csv(tmp_path / "new.csv", ["t", "n", "a", "b"], (t, n, a, b))
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t", "n", "a", "b"])
            for row in zip(t, n, a, b):
                wr.writerow([FMT % row[0], int(row[1]), FMT % row[2], FMT % row[3]])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _csv_module_bytes(path, header, rows):
    """What csv.writer writes for these rows: every float FMT % v, an int as it is."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([v if isinstance(v, int) else FMT % v for v in row] for row in rows)
    return path.read_bytes()


def test_simulate_and_conserved_tables_match_csv_module(capsys, tmp_path):
    # the explicit benchmark's shape: 21 snapshots of N = 128 sites make a
    # trajectory table past one chunk of rows, whose t = 0 and n = 0 fields
    # print by FMT among positional ones
    N, every = 128, 4
    cfg = solver.SolverConfig(dt=2e-3, t_end=0.16, scheme="rk4", output_every=every)
    csv_state = init_from_profile(builtin_profile("cos2"), N)
    _csv_module_bytes(tmp_path / "init.csv", ["n", "a", "b"], zip(range(N), csv_state.a, csv_state.b))
    argv = ["simulate", "--scheme", "rk4", "--N", str(N), "--dt", "2e-3", "--t-end", "0.16",
            "--output-every", str(every)]
    for init, state0, profile in [
        (f"csv:{tmp_path / 'init.csv'}", csv_state, None),
        ("builtin:cos", init_from_profile(builtin_profile("cos"), N), builtin_profile("cos")),
    ]:
        out = tmp_path / init.split(":")[0]
        assert run_cli(capsys, *argv, "--init", init, "--out", str(out))[0] == 0
        assert run_cli(capsys, "conserved", "--traj", str(out))[0] == 0
        traj = solver.run(state0, cfg)
        times, states, reports = zip(*traj.samples)
        assert len(states) == 21 and len(states) * N > lattice._CSV_CHUNK
        d0 = exact_invariants(states[0])
        expected = {
            "trajectory.csv": (["t", "n", "a", "b"],
                               [(t, n, s.a[n], s.b[n]) for t, s in zip(times, states) for n in range(N)]),
            "conserved.csv": (lattice.ConservedReport.COLUMNS, [r.row() for r in reports]),
            "state.csv": (["n", "a", "b"], [(n, states[-1].a[n], states[-1].b[n]) for n in range(N)]),
            "drift.csv": (["t", *(f"{c}_drift" for c in lattice.ConservedReport.COLUMNS[1:])], [
                (r.t, *(float(d - e) for d, e in zip(exact_invariants(s), d0)),
                 r.C1 - reports[0].C1, r.C2 - reports[0].C2, r.C3 - reports[0].C3)
                for s, r in zip(states, reports)
            ]),
        }
        if profile is not None:
            kdv = solver.compare_to_kdv(traj, profile, cfg.t_end)
            expected["comparison.csv"] = (["x", "lattice", "reference", "error"],
                                          zip(kdv.x, kdv.lattice, kdv.reference, kdv.lattice - kdv.reference))
        for name, (header, rows) in expected.items():
            assert (out / name).read_bytes() == _csv_module_bytes(tmp_path / "ref.csv", header, rows), name


@pytest.mark.parametrize("chunk, rows", [(3, 3), (3, 10), (None, _LONG)])
def test_csv_writer_chunks_match_csv_module(tmp_path, monkeypatch, chunk, rows):
    # rows are formatted chunk by chunk; the last chunk may be short
    if chunk is not None:
        monkeypatch.setattr(lattice, "_CSV_CHUNK", chunk)
    x = np.resize(np.array(_AWKWARD), rows)
    n = np.arange(rows)
    cols = (np.roll(x, 1), np.broadcast_to(-0.0, rows), np.broadcast_to(7919, rows), n, x)
    header = ["x", "c", "k", "n", "y"]
    write_csv(tmp_path / "new.csv", header, cols)
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in zip(*cols):
            wr.writerow([FMT % row[0], FMT % row[1], int(row[2]), int(row[3]), FMT % row[4]])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_csv_writer_block_of_only_constant_columns(tmp_path):
    # no rows is the header alone; one row past a chunk is a second chunk
    for rows in (0, 3, lattice._CSV_CHUNK + 1):
        write_csv(tmp_path / "x.csv", ["t", "n"], (np.broadcast_to(-0.0, rows), np.broadcast_to(2.5, rows)))
        assert (tmp_path / "x.csv").read_bytes() == b"t,n\r\n" + b"-0,2.5\r\n" * rows


def test_csv_writer_rejects_ragged_block(tmp_path):
    with pytest.raises(ValueError, match="equal lengths"):
        write_csv(tmp_path / "x.csv", ["t", "a"], (np.broadcast_to(1.0, 3), np.zeros(2)))
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "option, value",
    [("--g", "foo"), ("--g", "builtin:nope"), ("--samples", "-1"), ("--N", "0"),
     ("--g", "builtin:const:inf"), ("--g", "builtin:const:nan"), ("--g", "builtin:const:1e200")],
)
def test_spectrum_bad_args_leave_no_output(capsys, tmp_path, monkeypatch, option, value):
    # the scan itself validates the lattice it builds; no traces may run
    monkeypatch.setattr(bloch, "discrete_traces", _no_scan)
    monkeypatch.setattr(bloch, "continuous_traces", _no_scan)
    argv = ["spectrum", "--N", "8", "--samples", "5", "--out", str(tmp_path / "s"), option, value]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and not caught
    assert not (tmp_path / "s").exists()
    if option == "--N":
        assert err.startswith("error: --N must be >= 8")


def test_spectrum_empty_grid_rejects_overflowing_lattice_data(capsys, tmp_path):
    # the same usage error as with samples: the lattice is built before the scan's empty-grid return
    out = tmp_path / "s"
    code, _, err = run_cli(
        capsys, "spectrum", "--g", "builtin:const:1e200", "--N", "8", "--samples", "0", "--out", str(out),
    )
    assert code == 2
    assert err == "error: state entries must be finite\n"
    assert not out.exists()


def _no_scan(*args, **kwargs):
    raise AssertionError("the discriminant scan ran on invalid arguments")


def test_spectrum_builds_the_lattice_once(capsys, tmp_path, monkeypatch):
    build, calls = bloch.lattice_from_potential, []
    monkeypatch.setattr(bloch, "lattice_from_potential", lambda *args: calls.append(args) or build(*args))
    for samples in ("0", "9"):
        calls.clear()
        out = tmp_path / f"s{samples}"
        code, _, _ = run_cli(capsys, "spectrum", "--N", "8", "--samples", samples, "--out", str(out))
        assert code == 0 and len(calls) == 1


@pytest.mark.parametrize(
    "option, value",
    [("--lambda-max", "nan"), ("--lambda-max", "inf"), ("--lambda-max", "-inf")],
)
def test_spectrum_nonfinite_args_rejected_before_scan(capsys, tmp_path, monkeypatch, option, value):
    # these reached the scan, which then did not finish: validation comes first
    monkeypatch.setattr(bloch, "discriminant_scan", _no_scan)
    code, _, err = run_cli(
        capsys, "spectrum", "--N", "8", "--samples", "5", f"{option}={value}", "--out", str(tmp_path / "s"),
    )
    assert code == 2
    assert err.startswith(f"error: {option} must be")


def test_spectrum_has_no_tol_option(capsys, tmp_path, monkeypatch):
    # the Hill maps are always summed to the 4-ulp threshold: an old --tol is
    # a usage error, not a run at some other accuracy
    monkeypatch.setattr(bloch, "discriminant_scan", _no_scan)
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--N", "8", "--samples", "5", "--tol", "1e-10", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-10" in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_config_records_exactly_its_options(capsys, tmp_path):
    out = tmp_path / "s"
    code, *_ = run_cli(capsys, "spectrum", "--N", "8", "--samples", "5", "--out", str(out))
    assert code == 0
    assert (out / "config.txt").read_text().splitlines() == [
        "N=8", "g=builtin:cos", "lambda_max=200.0", "samples=5", "subcommand=spectrum",
    ]


def test_spectrum_integration_failure_exits_3(capsys, tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(
            capsys, "spectrum", "--N", "8", "--samples", "5", "--lambda-max", "1e300",
            "--out", str(tmp_path / "s"),
        )
    assert code == 3
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: monodromy integration failed:")
    assert not caught
    assert not (tmp_path / "s").exists()


def test_spectrum_huge_potential_exits_3_without_output(capsys, tmp_path):
    out = tmp_path / "s"
    code, _, err = run_cli(
        capsys, "spectrum", "--g", "builtin:const:1e100", "--N", "8", "--samples", "5", "--out", str(out),
    )
    assert code == 3
    assert err.startswith("numerical failure: monodromy integration failed:")
    assert not out.exists()


_DT = st.sampled_from(["1e-3", "2e-3", "3e-3", "0", "-1e-3", "nan", "inf", "-inf"])
_T_END = st.sampled_from(["0", "2e-3", "4e-3", "5e-3", "-2e-3", "nan", "inf"])
_LAMBDA_MAX = st.sampled_from(["0", "10", "-30", "200", "1e300", "nan", "inf"])


@st.composite
def _cli_args(draw):
    N = ["--N", str(draw(st.integers(min_value=0, max_value=48)))]
    if draw(st.booleans()):
        return ["simulate", *N, "--dt", draw(_DT), "--t-end", draw(_T_END),
                "--scheme", draw(st.sampled_from(["rk4", "cn"])),
                "--output-every", str(draw(st.integers(min_value=-2, max_value=3)))]
    return ["spectrum", *N, "--lambda-max", draw(_LAMBDA_MAX),
            "--samples", str(draw(st.integers(min_value=0, max_value=16)))]


@settings(max_examples=30, deadline=None)
@given(argv=_cli_args(), out_is_file=st.booleans())
def test_cli_exit_codes_are_documented(tmp_path_factory, argv, out_is_file):
    """Every run ends in exit 0/1/2/3 with no traceback, whatever the arguments,
    also when --out names an existing file."""
    dest = tmp_path_factory.mktemp("cli")
    if out_is_file:
        dest = dest / "file"
        dest.write_text("kept\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(dest)])
    assert code in ((2, 3) if out_is_file else (0, 1, 2, 3)), argv
    assert "Traceback" not in err.getvalue()
    if out_is_file:
        assert dest.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv, path",
    [
        (["spectrum", "--N", "16", "--samples", "8", "--out", "{F}"], "{F}"),
        (["spectrum", "--N", "16", "--samples", "8", "--out", "{F}/sub"], "{F}/sub"),
        (["simulate", "--N", "16", "--dt", "1e-3", "--t-end", "0.002", "--out", "{F}"], "{F}"),
        (["conserved", "--traj", "{F}"], "{F}/conserved.csv"),
    ],
    ids=["spectrum-out-file", "spectrum-out-under-file", "simulate-out-file", "conserved-traj-file"],
)
def test_unusable_path_is_usage_error(capsys, tmp_path, argv, path):
    """An OSError from a path the run cannot use (a file where a directory
    must be) exits 2 with one message naming the path, and the file stays."""
    F = tmp_path / "F"
    F.write_text("kept\n")
    code, _, err = run_cli(capsys, *(arg.format(F=F) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert path.format(F=F) in err
    assert F.read_text() == "kept\n"


_SEQUENCE = [
    ["simulate", "--N", "16", "--dt", "1e-3", "--t-end", "0.004", "--scheme", "rk4",
     "--output-every", "2", "--out", "sim"],
    ["verify", "--flow", "0"],
    ["spectrum", "--g", "builtin:cos2", "--N", "8", "--samples", "9", "--lambda-max", "10",
     "--out", "spec"],
    ["verify", "--flow", "1"],
]


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_one_parser_serves_every_call_in_a_process(capsys, tmp_path, monkeypatch):
    """Calls in one process, a usage error among them, print and write what
    fresh processes do."""
    env = dict(os.environ, PYTHONPATH=str(Path(todakdv.__file__).parents[1]))
    codes = []
    for i, argv in enumerate(_SEQUENCE):
        fresh_dir = tmp_path / f"fresh{i}"
        fresh_dir.mkdir()
        fresh = subprocess.run([sys.executable, "-m", "todakdv.cli", *argv], cwd=fresh_dir,
                               env=env, capture_output=True, text=True)
        here_dir = tmp_path / f"here{i}"
        here_dir.mkdir()
        monkeypatch.chdir(here_dir)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert _tree(here_dir) == _tree(fresh_dir), argv
        codes.append(code)
    assert codes == [0, 2, 0, 0]


def test_config_roundtrip(tmp_path):
    path = tmp_path / "config.txt"
    write_config(path, {"b": 2, "a": "x y"})
    assert read_config(path) == {"a": "x y", "b": "2"}
    assert path.read_text().splitlines()[0] == "a=x y"
