"""The four benchmark workloads: inputs from a seed, one operation, its check.

An operation is what a user runs: ``todakdv.cli.main(argv)`` in-process, or
``hierarchy.extend_R`` where the command line has no entry.  ``run`` holds
only those calls, so the caller can time it from outside.  ``check`` runs
afterwards, untimed, and compares the outputs with exact and independent
reference oracles.

Every workload draws a small pool of inputs in ``make_pool``; the run cycles
through the whole pool, so each input carries the same weight in every
statistic and the per-input oracle work (KdV reference solutions) is done
once per input.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass
class Check:
    ok: bool
    reason: str = ""
    accuracy: dict = field(default_factory=dict)  # metric name -> value


def _main(pkg, argv: list[str]) -> tuple[int, str]:
    """One CLI call with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pkg.cli.main(argv)
    return code, buf.getvalue()


def _bytes_in(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


# ---------------------------------------------------------------------------
# symbolic


class Symbolic:
    """verify --flow j for j = 1..4 above the default cap, then extend_R.

    The extension chain starts from the first four R coefficients, must
    recover R_4 and R_5 exactly and then find further coefficients.  The
    inputs are the paper's series, so the seed does not change them.
    """

    name = "symbolic"
    produces = ()

    def __init__(self, pkg, reduced: bool = False, broken: bool = False):
        self.pkg = pkg
        self.cap = 11 if reduced else 12
        self.flows = (1, 2) if reduced else (1, 2, 3, 4)
        self.extend_steps = 3 if reduced else 4
        self.extra_args = []
        if broken:
            # Self-test only: a deliberately broken series, which must be
            # counted as a failed operation.
            self.flows = (2,)
            self.extra_args = ["--truncate-R", "1"]

    def params(self) -> dict:
        return {"order_cap": self.cap, "flows": list(self.flows),
                "extend_from": 4, "extend_steps": self.extend_steps,
                "extra_args": self.extra_args}

    def make_pool(self, seed: int, workdir: Path) -> list:
        R = self.pkg.hierarchy.standard_R(self.pkg.hierarchy.DEFAULT_CAP)
        start = self.pkg.EpsSeries(list(R.coeffs[:4]), order_cap=R.order_cap)
        return [start]

    def run(self, start):
        verified = [
            _main(self.pkg, ["verify", "--flow", str(j), "--order-cap", str(self.cap)]
                  + self.extra_args)
            for j in self.flows
        ]
        chain = []
        R = start
        for _ in range(self.extend_steps):
            res = self.pkg.hierarchy.extend_R(R)
            chain.append(res)
            if res.status != "extended":
                break
            R = res.new_R
        return verified, chain

    def check(self, start, out) -> Check:
        verified, chain = out
        for j, (code, text) in zip(self.flows, verified):
            if code != 0:
                return Check(False, f"verify --flow {j} exited {code}")
            lines = set(text.splitlines())
            if "VERIFIED: residual vanishes exactly through eps^8" not in lines:
                return Check(False, f"verify --flow {j}: no exact verification through eps^8")
            missing = [k for k in range(9) if f"eps^{k} : 0" not in lines]
            if missing:
                return Check(False, f"verify --flow {j}: residual nonzero at eps^{missing[0]}")
        standard = self.pkg.hierarchy.standard_R(self.pkg.hierarchy.DEFAULT_CAP)
        for step, res in enumerate(chain):
            order = 4 + step
            if res.status != "extended" or res.order != order:
                return Check(False, f"extend step {step}: {res.summary()}")
            if order <= 5 and res.new_R.coeff(order) != standard.coeff(order):
                return Check(False, f"extend_R recovered a wrong R_{order}: {res.phi}")
        if len(chain) != self.extend_steps:
            return Check(False, f"extension chain stopped after {len(chain)} steps")
        return Check(True)

    def bytes_written(self, start) -> int:
        return 0


# ---------------------------------------------------------------------------
# simulate (implicit and explicit)


@dataclass
class SimInput:
    index: int
    profile: object  # todakdv.lattice.Profile
    init_csv: Path
    out_dir: Path
    reference: np.ndarray | None = None  # KdV oracle on the lattice, filled lazily


def few_mode_profile(pkg, rng: random.Random, index: int):
    """f = cos(2 pi x + p1) + 1/2 cos(4 pi x + p2) + 1/4 cos(6 pi x + p3).

    The amplitudes are fixed and the phases seeded, so every input has the
    same size and smoothness and the accuracy figures stay comparable.
    """
    modes = [(1.0, 1), (0.5, 2), (0.25, 3)]
    phases = [rng.uniform(0.0, TWO_PI) for _ in modes]

    def deriv(x, order):
        out = np.zeros_like(x)
        for (amp, m), ph in zip(modes, phases):
            w = TWO_PI * m
            out = out + amp * w**order * np.cos(w * x + ph + order * math.pi / 2)
        return out

    return pkg.lattice.Profile(f"fewmode{index}", deriv)


def _write_state(path: Path, a: np.ndarray, b: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["n", "a", "b"])
        for n in range(len(a)):
            wr.writerow([n, repr(float(a[n])), repr(float(b[n]))])


def _read_state(pkg, path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["n", "a", "b"]:
        raise ValueError(f"unexpected header in {path}")
    body = sorted((int(r[0]), float(r[1]), float(r[2])) for r in rows[1:])
    if [r[0] for r in body] != list(range(len(body))):
        raise ValueError(f"site indices in {path} are not 0..N-1")
    return pkg.lattice.LatticeState(len(body), np.array([r[1] for r in body]),
                                    np.array([r[2] for r in body]))


class Simulate:
    """simulate --init csv:<seeded smooth profile> with a fixed scheme."""

    produces = ("kdv_max_err",)
    pool_size = 8
    drift_bound = 1e-10  # round-off sits near 1e-14; a real loss shows far above

    def __init__(self, pkg, name: str, scheme: str, N: int, dt: float, t_end: float,
                 output_every: int, kdv_bound: float):
        self.pkg = pkg
        self.name = name
        self.scheme = scheme
        self.N = N
        self.dt = dt
        self.t_end = t_end
        self.output_every = output_every
        self.kdv_bound = kdv_bound

    def params(self) -> dict:
        return {"scheme": self.scheme, "N": self.N, "dt": self.dt, "t_end": self.t_end,
                "output_every": self.output_every, "pool": self.pool_size,
                "kdv_bound": self.kdv_bound, "drift_bound": self.drift_bound}

    def make_pool(self, seed: int, workdir: Path) -> list[SimInput]:
        rng = random.Random(f"{self.name}/{seed}")
        pool = []
        for i in range(self.pool_size):
            prof = few_mode_profile(self.pkg, rng, i)
            state = self.pkg.lattice.init_from_profile(prof, self.N, "consistent_R")
            path = workdir / f"{self.name}-init{i}.csv"
            _write_state(path, state.a, state.b)
            out = workdir / f"{self.name}-out{i}"
            out.mkdir(parents=True, exist_ok=True)
            pool.append(SimInput(i, prof, path, out))
        return pool

    def run(self, item: SimInput):
        return _main(self.pkg, [
            "simulate", "--N", str(self.N), "--dt", repr(self.dt), "--t-end", repr(self.t_end),
            "--scheme", self.scheme, "--init", f"csv:{item.init_csv}",
            "--output-every", str(self.output_every), "--out", str(item.out_dir),
        ])

    def check(self, item: SimInput, out) -> Check:
        code, _ = out
        if code != 0:
            return Check(False, f"simulate exited {code}")
        lattice, solver = self.pkg.lattice, self.pkg.solver
        s0 = _read_state(self.pkg, item.init_csv)
        s1 = _read_state(self.pkg, item.out_dir / "state.csv")
        if s1.N != self.N:
            return Check(False, f"final state has N={s1.N}")
        if item.reference is None:
            ref = solver.reference_kdv(item.profile, 1.0 / self.N, self.t_end,
                                       modes=max(256, 2 * self.N))
            item.reference = ref.on_lattice(self.N)
        kdv_err = float(np.max(np.abs(s1.average() - item.reference)))
        d0 = lattice.exact_invariants(s0)
        d1 = lattice.exact_invariants(s1)
        drift = float(max(abs(x - y) for x, y in zip(d0, d1)))
        acc = {"kdv_max_err": kdv_err, "invariant_drift": drift}
        if not kdv_err <= self.kdv_bound:
            return Check(False, f"kdv_max_err {kdv_err:.3e} above {self.kdv_bound:g}", acc)
        if not drift <= self.drift_bound:
            return Check(False, f"invariant drift {drift:.3e} above {self.drift_bound:g}", acc)
        return Check(True, "", acc)

    def bytes_written(self, item: SimInput) -> int:
        return _bytes_in(item.out_dir)


def implicit(pkg, reduced: bool = False) -> Simulate:
    # dt is above the explicit stability limit 2.8/rho (2.8e-3 at N=192):
    # Crank-Nicolson is the stable scheme here and its Newton/LU step is
    # most of the cost.
    if reduced:
        return Simulate(pkg, "implicit", "cn", 64, 5e-3, 0.05, 5, kdv_bound=1e-3)
    return Simulate(pkg, "implicit", "cn", 192, 5e-3, 0.3, 30, kdv_bound=2e-5)


def explicit(pkg, reduced: bool = False) -> Simulate:
    # Stable RK4 step (limit 4.2e-3 at N=128) and frequent output: the exact
    # invariants of every snapshot dominate, with no Jacobian or LU work.
    if reduced:
        return Simulate(pkg, "explicit", "rk4", 64, 2e-3, 0.04, 4, kdv_bound=1e-3)
    return Simulate(pkg, "explicit", "rk4", 128, 2e-3, 0.16, 4, kdv_bound=1e-4)


# ---------------------------------------------------------------------------
# spectrum


@dataclass
class SpecInput:
    index: int
    tag: str  # builtin profile tag
    out_dir: Path


class Spectrum:
    """spectrum on builtin potentials: cos, cos2, zero and a seeded constant.

    The constant is negative: there the discrete and Hill band sets differ
    by many grid cells, so band_distance measures discretization rather than
    the lambda grid.  For the nonnegative potentials it is at most a few
    grid cells.
    """

    name = "spectrum"
    produces = ("band_distance",)
    lambda_max = 200.0
    band_bound = 5.0

    def __init__(self, pkg, reduced: bool = False):
        self.pkg = pkg
        self.N = 64 if reduced else 512
        self.samples = 8192 if reduced else 16384

    def params(self) -> dict:
        return {"N": self.N, "lambda_max": self.lambda_max, "samples": self.samples,
                "band_bound": self.band_bound}

    def make_pool(self, seed: int, workdir: Path) -> list[SpecInput]:
        rng = random.Random(f"{self.name}/{seed}")
        kappa = -2.0 + rng.uniform(-0.1, 0.1)
        tags = ["cos", "cos2", "zero", f"const:{kappa:.6f}"]
        rng.shuffle(tags)
        pool = []
        for i, tag in enumerate(tags):
            out = workdir / f"{self.name}-out{i}"
            out.mkdir(parents=True, exist_ok=True)
            pool.append(SpecInput(i, tag, out))
        return pool

    def run(self, item: SpecInput):
        return _main(self.pkg, [
            "spectrum", "--g", f"builtin:{item.tag}", "--N", str(self.N),
            "--lambda-max", repr(self.lambda_max), "--samples", str(self.samples),
            "--out", str(item.out_dir),
        ])

    def check(self, item: SpecInput, out) -> Check:
        code, _ = out
        if code != 0:
            return Check(False, f"spectrum exited {code}")
        with open(item.out_dir / "spectrum.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        data = np.array(rows[1:], dtype=float)
        if data.shape != (self.samples, 5):
            return Check(False, f"spectrum.csv has shape {data.shape}")
        lams = np.linspace(-self.lambda_max, self.lambda_max, self.samples)
        if not np.array_equal(data[:, 0], lams):
            return Check(False, "spectrum.csv lambda column is not the requested grid")
        if item.tag == "zero" or item.tag.startswith("const:"):
            # Closed-form Hill discriminant of a constant potential.
            kappa = 0.0 if item.tag == "zero" else float(item.tag.split(":", 1)[1])
            mu = lams - kappa
            exact = np.where(mu >= 0, 2 * np.cos(np.sqrt(np.abs(mu))),
                             2 * np.cosh(np.sqrt(np.abs(mu))))
            err = np.max(np.abs(data[:, 2] - exact) / np.maximum(1.0, np.abs(exact)))
            if not err <= 1e-6:
                return Check(False, f"Hill trace off its closed form by {err:.2e}")
        samples = [self.pkg.bloch.DiscriminantSample(*row) for row in data.tolist()]
        dist = self.pkg.bloch.band_distance(samples, self.lambda_max).distance
        acc = {"band_distance": dist}
        if not dist <= self.band_bound:
            return Check(False, f"band distance {dist:.3g} above {self.band_bound:g}", acc)
        return Check(True, "", acc)

    def bytes_written(self, item: SpecInput) -> int:
        return _bytes_in(item.out_dir)


_CONSTRUCTORS = {"symbolic": Symbolic, "implicit": implicit, "explicit": explicit,
             "spectrum": Spectrum}
WORKLOADS = tuple(_CONSTRUCTORS)


def build(pkg, name: str, reduced: bool = False):
    return _CONSTRUCTORS[name](pkg, reduced)
