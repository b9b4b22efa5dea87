"""todakdv benchmark: one workload, timed from outside, checked by oracles.

    python3 perfbench/run.py --workload {symbolic,implicit,explicit,spectrum}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The run sets up (imports, seeded
inputs, one warm-up operation), then cycles through the workload's input
pool in a closed loop, one caller, until ``--seconds`` have passed, checking
every operation untimed.  Timings are rescaled to a reference host speed by
a calibration kernel run next to them (see calibrate.py).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  The line
before it is the run record (machine, versions, seed, parameters, sample
counts and bases).  Scratch files and the span dump go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# One BLAS thread (never more than nproc): the runs share a small machine,
# and a single thread keeps the dense LU timings steady.
BLAS_THREADS = 1
SETUP_PROBES = 2  # fresh processes that repeat the set-up, besides the run itself
TAIL_BEYOND = 10  # the tail percentile keeps at least this many operations above it

# BLAS reads these when numpy is first imported, so they are set before any
# module of this benchmark imports it; setup probes inherit them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from calibrate import at_reference_speed, kernel_seconds  # noqa: E402


def import_package():
    """Import todakdv from this checkout's ``src``; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import todakdv
        from todakdv import bloch, cli, diffpoly, hierarchy, lattice, solver  # noqa: F401
    except ImportError as err:
        raise SystemExit(f"perfbench: cannot import todakdv from {src}: {err}")
    if Path(todakdv.__file__).resolve().parent != (src / "todakdv").resolve():
        raise SystemExit(f"perfbench: todakdv imported from {todakdv.__file__}, not {src}")
    return todakdv


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    operations above it, but not below the median."""
    xs = sorted(samples)
    n = len(xs)
    k = n - TAIL_BEYOND - 1  # index with exactly TAIL_BEYOND samples beyond it
    median = statistics.median(xs)
    if k < 0 or xs[k] <= median:
        return 50.0, median
    return 100.0 * (k + 1) / n, xs[k]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the run


class Run:
    def __init__(self, pkg, workload, seed: int, workdir: Path):
        self.pkg = pkg
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.pool = workload.make_pool(seed, workdir)
        self.times: list[float] = []  # untraced operations, wall seconds
        self.kernels: list[float] = []  # calibration kernel run just before each
        self.traced_times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.accuracy: dict[str, dict[int, float]] = {}
        self.bytes_written: list[int] = []

    def warm_up(self) -> None:
        self.workload.run(self.pool[0])

    def run_one(self, index: int, item, tracer=None, op_id: int = -1) -> None:
        run = self.workload.run
        self.attempted += 1
        kernel = kernel_seconds()
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = tracer.run_operation(op_id, lambda: run(item)) if tracer else run(item)
            error = None
        except Exception as exc:  # a crash is a failed operation, not a failed run
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            self.traced_times.append(elapsed)
        else:
            self.times.append(elapsed)
            self.kernels.append(kernel)
        if error is None:
            check = self.workload.check(item, out)
            for name, value in check.accuracy.items():
                self.accuracy.setdefault(name, {})[index] = value
            error = None if check.ok else check.reason
        if error is not None:
            self.failures.append(f"input {index}: {error}")
        if tracer is not None:
            self.bytes_written.append(self.workload.bytes_written(item))

    def measure(self, seconds: float, tracer=None) -> None:
        """Closed loop over whole pool cycles until ``seconds`` have passed.

        With a tracer, every input runs untraced and then traced, back to
        back, so the two timing sets see the same inputs and conditions.
        """
        deadline = time.perf_counter() + seconds
        op_id = 0
        while True:
            for index, item in enumerate(self.pool):
                self.run_one(index, item)
                if tracer is not None:
                    self.run_one(index, item, tracer, op_id)
                    op_id += 1
            if time.perf_counter() >= deadline:
                return

    def calibrated_times(self) -> list[float]:
        """Operation times at reference speed.  Each is rescaled by the
        median kernel time of the five operations around it, which follows
        the host's drift and smooths the kernel's own jitter."""
        k = self.kernels
        return [at_reference_speed(t, statistics.median(k[max(0, i - 2):i + 3]))
                for i, t in enumerate(self.times)]

    def input_mean(self, metric: str) -> float:
        """Mean of an accuracy metric over the inputs of the pool.

        An input whose operation crashed has no value; its failure is
        already counted, and 0.0 stands in if no input has one.
        """
        values = self.accuracy.get(metric, {})
        return statistics.fmean(values.values()) if values else 0.0


def calibrated_setup(seconds: float) -> float:
    """Set-up time at reference speed, calibrated by kernel runs after it."""
    return at_reference_speed(seconds, statistics.median(kernel_seconds() for _ in range(5)))


def setup_probe_samples(workload: str, seed: int) -> list[tuple[float, float]]:
    """(calibrated, raw) set-up times of fresh processes, as each measures it."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        calibrated, raw = proc.stdout.split()[-2:]
        out.append((float(calibrated), float(raw)))
    return out


def accuracy_probe(run: Run, metric: str) -> float:
    """An accuracy metric this workload's operations do not produce, taken
    untimed from one pass of the reduced-size workload that does.  Its
    operations count in the run's attempted and failed operations."""
    from workloads import build

    owner = build(run.pkg, "implicit" if metric == "kdv_max_err" else "spectrum", reduced=True)
    probe = Run(run.pkg, owner, run.seed, run.workdir)
    for index, item in enumerate(probe.pool):
        probe.run_one(index, item)
    run.attempted += probe.attempted
    run.failures += [f"{owner.name} probe {f}" for f in probe.failures]
    return probe.input_mean(metric)


def end_to_end(run: Run, setup: list[tuple[float, float]], rss: float,
               probes: dict) -> tuple[dict, dict]:
    """End-to-end metrics; setup holds (calibrated, raw) seconds per sample."""
    pct, tail_value = tail(run.calibrated_times())
    m = {
        "setup_s": (statistics.median(c for c, _ in setup), "s"),
        "op_s_p50": (statistics.median(run.calibrated_times()), "s"),
        "op_s_tail": (tail_value, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    for metric in ("kdv_max_err", "band_distance"):
        m[metric] = (probes[metric] if metric in probes else run.input_mean(metric), "1")
    notes = {"op_s_tail_percentile": pct, "ops_timed": len(run.times),
             "raw_op_s_p50": statistics.median(run.times),
             "raw_op_s_tail": tail(run.times)[1],
             "raw_setup_s": statistics.median(r for _, r in setup),
             "kernel_s_p50": statistics.median(run.kernels),
             "setup_samples": setup,
             "accuracy_from_probe": sorted(probes)}
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, notes


LAYER_SHARES = {
    # layer -> span-name prefixes; the share of traced operation time it covers
    "layer_share.solver_cn_step": ("solver.step_cn",),
    "layer_share.lattice_conserved_report": ("lattice.conserved_report",),
    "layer_share.symbolic": ("hierarchy.", "diffpoly."),
    "layer_share.bloch": ("bloch.",),
}

PER_LAYER_STATS = [
    ("solver.step_cn", ("calls", "self_s")),
    ("solver.flow2_jacobian", ("calls", "total_s")),
    ("solver.linear_spectral_radius", ("total_s",)),
    ("lattice.conserved_report", ("calls", "total_s")),
    ("solver.step_rk4", ("calls", "total_s")),
    ("lattice.rhs_flow2_arrays", ("calls", "total_s")),
    ("lattice.write_state_csv", ("total_s",)),
    ("lattice.read_state_csv", ("total_s",)),
    ("solver.run", ("self_s",)),
    ("hierarchy.residual", ("calls", "total_s", "self_s")),
    ("hierarchy.extend_R", ("calls", "total_s")),
    ("hierarchy.integrate_total_derivative", ("calls", "total_s")),
    ("diffpoly.EpsSeries.shift", ("calls", "total_s")),
    ("diffpoly.EpsSeries.dt_along", ("calls", "total_s")),
    ("diffpoly.EpsSeries.mul", ("calls", "total_s")),
    ("bloch.discriminant_scan", ("total_s", "self_s")),
    ("bloch.discrete_traces", ("total_s",)),
    ("bloch.continuous_traces", ("total_s",)),
    ("cli.main", ("calls", "self_s")),
]


def per_layer(run: Run, tracer) -> tuple[dict, dict]:
    n = len(run.traced_times)
    stats = tracer.layer_stats()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    m: dict[str, tuple[float, str]] = {}
    for name, wanted in PER_LAYER_STATS:
        st = stats.get(name, empty)
        for stat in wanted:
            unit = "calls/op" if stat == "calls" else "s/op"
            m[f"{name}.{stat}"] = (st[stat] / n, unit)
    lu_f = stats.get("solver.lu_factor", empty)
    lu_s = stats.get("solver.lu_solve", empty)
    m["solver.cn_linear_solve.calls"] = (lu_f["calls"] / n, "calls/op")
    m["solver.cn_linear_solve.total_s"] = ((lu_f["total_s"] + lu_s["total_s"]) / n, "s/op")
    steps = stats.get("solver.step_cn", empty)["calls"]
    jacobians = stats.get("solver.flow2_jacobian", empty)["calls"]
    m["solver.newton_iters_per_step"] = (jacobians / steps if steps else 0.0, "ratio")
    m["bloch.hill_rhs_evals"] = (tracer.counts["bloch.hill_rhs_evals"] / n, "count/op")
    m["diffpoly.Monomial.created"] = (tracer.counts["diffpoly.Monomial.created"] / n, "count/op")
    m["cli.bytes_written"] = (sum(run.bytes_written) / n, "bytes/op")
    drift = run.accuracy.get("invariant_drift")
    m["solver.invariant_drift"] = (max(drift.values()) if drift else 0.0, "1")
    op_total = sum(run.traced_times)
    for key, prefixes in LAYER_SHARES.items():
        m[key] = (tracer.covered_by(prefixes) / op_total, "ratio")
    untraced = statistics.median(run.times)
    traced = statistics.median(run.traced_times)
    m["trace.op_s_p50_untraced"] = (untraced, "s")
    m["trace.op_s_p50_traced"] = (traced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    notes = {"ops_traced": n, "newton_base_steps": steps, "spans": len(tracer.spans)}
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, notes


def run_record(pkg, workload, args, notes: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": workload.params(),
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "todakdv": pkg.__version__,
        "loop": "closed, one caller", **notes,
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS, build

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    pkg = import_package()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = build(pkg, args.workload)
        run = Run(pkg, workload, args.seed, workdir)
        run.warm_up()
        setup = time.perf_counter() - T_START
        setup_sample = (calibrated_setup(setup), setup)
        if args.setup_probe:
            print("setup_s {!r} {!r}".format(*setup_sample))
            return 0

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(pkg)
        run.measure(args.seconds, tracer)
        rss = peak_rss_mb()

        if tracer is None:
            setup_samples = [setup_sample] + setup_probe_samples(args.workload, args.seed)
            probes = {metric: accuracy_probe(run, metric)
                      for metric in ("kdv_max_err", "band_distance")
                      if metric not in workload.produces}
            metrics, notes = end_to_end(run, setup_samples, rss, probes)
        else:
            metrics, notes = per_layer(run, tracer)
            spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans)
            notes["spans_file"] = str(spans.relative_to(ROOT))
        failed = len(run.failures)
        notes["fail_ratio"] = failed / run.attempted
        notes["fail_base"] = run.attempted
        notes["failures"] = run.failures[:5]
        print(json.dumps({"record": run_record(pkg, workload, args, notes)}))
        print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
