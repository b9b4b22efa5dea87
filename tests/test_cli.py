import csv
import math
from pathlib import Path

import numpy as np
import pytest

from todakdv.cli import main, read_config, write_config

GOLDEN = Path(__file__).parent / "golden" / "v1"


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


def test_verify_bad_flow_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--flow", "5"])
    assert exc.value.code == 2


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
    ],
)
def test_simulate_bad_run_config_usage(capsys, tmp_path, extra, message):
    code, out, _, err = _simulate(capsys, tmp_path, "bad", *extra)
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not (out / "config.txt").exists()


@pytest.mark.parametrize("indices", [[0, 0, 2, 3, 4, 5, 6, 9], [0, 1, 2, 3, 4, 5, 6, 9]])
def test_simulate_csv_init_bad_indices_usage(capsys, tmp_path, indices):
    path = tmp_path / "init.csv"
    path.write_text("n,a,b\n" + "".join(f"{n},0.5,0.25\n" for n in indices))
    code, _, err = run_cli(
        capsys,
        "simulate", "--N", "8", "--dt", "0.002", "--t-end", "0.004",
        "--init", f"csv:{path}", "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert "exactly 0..N-1" in err


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
        # Wronskian/product determinants: roundoff scales with the entry size
        assert abs(detd - 1.0) < 1e-9 + 1e-12 * trd**2
        assert abs(detc - 1.0) < 1e-9 + 1e-12 * trc**2


def test_config_roundtrip(tmp_path):
    path = tmp_path / "config.txt"
    write_config(path, {"b": 2, "a": "x y"})
    assert read_config(path) == {"a": "x y", "b": "2"}
    assert path.read_text().splitlines()[0] == "a=x y"
