"""The import contract: scipy is loaded only by the commands that call it.

Each check runs the CLI in a fresh interpreter, because this test process has
long since imported scipy.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import todakdv
from todakdv import bloch, solver
from todakdv.cli import main
from todakdv.lattice import builtin_profile, init_from_profile, write_state_csv

_ENV = dict(os.environ, PYTHONPATH=str(Path(todakdv.__file__).parents[1]))


def _scipy_modules_after(calls: list[list[str]], cwd: Path) -> set[str]:
    """The scipy modules a fresh process holds after ``cli.main`` ran ``calls``."""
    code = (
        "import json, sys\n"
        "from todakdv.cli import main\n"
        f"codes = [main(argv) for argv in {calls!r}]\n"
        "print(json.dumps([codes, [m for m in sys.modules if m.partition('.')[0] == 'scipy']]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(calls), proc.stderr
    return set(modules)


def test_symbolic_commands_and_conserved_load_no_scipy(capsys, tmp_path):
    code = main(["simulate", "--N", "16", "--dt", "1e-3", "--t-end", "0.004", "--scheme", "rk4",
                 "--output-every", "2", "--out", str(tmp_path / "run")])
    capsys.readouterr()
    assert code == 0
    calls = [["verify", "--flow", "1"], ["expand", "R"], ["conserved", "--traj", "run"]]
    assert _scipy_modules_after(calls, tmp_path) == set()


def test_cn_simulate_loads_lapack_not_the_integrator(tmp_path):
    write_state_csv(tmp_path / "init.csv", init_from_profile(builtin_profile("cos"), 16, "consistent_R"))
    calls = [["simulate", "--N", "16", "--dt", "1e-3", "--t-end", "0.004", "--scheme", "cn",
              "--init", "csv:init.csv", "--out", "cn"]]
    modules = _scipy_modules_after(calls, tmp_path)
    assert "scipy.linalg.lapack" in modules
    assert "scipy.integrate" not in modules


def test_spectrum_loads_no_scipy(tmp_path):
    # 8 samples take the Hill segments at their own lambdas, 2048 the Chebyshev fits
    calls = [["spectrum", "--N", "16", "--samples", "8", "--out", "sp"],
             ["spectrum", "--N", "16", "--samples", "2048", "--out", "sp2"]]
    assert _scipy_modules_after(calls, tmp_path) == set()


def test_builtin_simulate_runs_its_kdv_reference_without_the_integrator(tmp_path):
    # the reference is numpy alone: RK4 loads no scipy module, CN LAPACK and no integrator
    run = ["simulate", "--N", "16", "--dt", "1e-3", "--t-end", "0.004", "--init", "builtin:cos"]
    assert _scipy_modules_after([run + ["--scheme", "rk4", "--out", "rk4"]], tmp_path) == set()
    assert (tmp_path / "rk4" / "comparison.csv").exists()
    modules = _scipy_modules_after([run + ["--scheme", "cn", "--out", "cn"]], tmp_path)
    assert "scipy.linalg.lapack" in modules
    assert "scipy.integrate" not in modules


@pytest.mark.parametrize(
    "module, name",
    [(solver, "solve_ivp"), (solver, "dgbtrf"), (solver, "dgbtrs"), (bloch, "solve_ivp")],
)
def test_scipy_stand_ins_are_rebindable_module_functions(module, name):
    """The benchmark tracer and the tests rebind these names in the module's
    namespace; kept out of __all__, the tracer wraps each of them once."""
    assert isinstance(module.__dict__[name], types.FunctionType)
    assert name not in module.__all__
