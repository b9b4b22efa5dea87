"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Runs every workload briefly at reduced size, untraced and traced, and
asserts that every metric named in BENCHMARK.json is emitted with its unit,
that every check passes, and that the exact counts repeat across two traced
runs of the same seed.  Then runs a deliberately broken operation
(``verify --flow 2 --truncate-R 1``) and asserts that it is counted as
failed.  Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run as bench
from tracer import Tracer
from workloads import WORKLOADS, Symbolic, build

SECONDS = 0.5
SEED = 7
# Per-layer metrics that are exact counts, not times.
EXACT = ("calls/op", "count/op", "bytes/op")


def _spec():
    with open(bench.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def _check_metrics(where: str, metrics: dict, wanted: dict, positive: bool) -> None:
    for name, unit in wanted.items():
        got = metrics.get(name)
        assert got is not None, f"{where}: metric {name} missing"
        assert got["unit"] == unit, f"{where}: {name} has unit {got['unit']}, want {unit}"
        value = got["value"]
        assert math.isfinite(value), f"{where}: {name} = {value}"
        assert value > 0 or not positive, f"{where}: {name} = {value}, must be positive"


def _traced(pkg, name: str, workdir) -> dict:
    r = bench.Run(pkg, build(pkg, name, reduced=True), SEED, workdir)
    r.warm_up()
    tracer = Tracer(pkg)
    r.measure(SECONDS, tracer)
    assert not r.failures, f"{name} traced: {r.failures}"
    metrics, _ = bench.per_layer(r, tracer)
    return metrics


def main() -> int:
    pkg = bench.import_package()
    e2e_units, layer_units = _spec()
    workdir = bench.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name in WORKLOADS:
            r = bench.Run(pkg, build(pkg, name, reduced=True), SEED, workdir)
            r.warm_up()
            r.measure(SECONDS)
            assert r.attempted >= 1 and not r.failures, f"{name}: {r.failures}"
            probes = {m: bench.accuracy_probe(r, m)
                      for m in ("kdv_max_err", "band_distance") if m not in r.workload.produces}
            assert not r.failures, f"{name} accuracy probes: {r.failures}"
            metrics, _ = bench.end_to_end(r, [(1.0, 1.0)], bench.peak_rss_mb(), probes)
            _check_metrics(name, metrics, e2e_units, positive=True)

            first = _traced(pkg, name, workdir)
            second = _traced(pkg, name, workdir)
            _check_metrics(f"{name} traced", first, layer_units, positive=False)
            for metric, unit in layer_units.items():
                if unit in EXACT or metric == "solver.newton_iters_per_step":
                    assert first[metric]["value"] == second[metric]["value"], (
                        f"{name}: count {metric} differs between runs of one seed: "
                        f"{first[metric]['value']} != {second[metric]['value']}")
            print(f"selftest: {name}: {r.attempted} operations checked, "
                  f"{len(e2e_units)} end-to-end and {len(layer_units)} per-layer metrics")

        broken = bench.Run(pkg, Symbolic(pkg, reduced=True, broken=True), SEED, workdir)
        broken.measure(0.0)
        assert broken.attempted >= 1 and len(broken.failures) == broken.attempted, (
            f"broken operation not counted: {broken.failures}")
        print(f"selftest: broken verify counted: fail_ratio "
              f"{len(broken.failures)}/{broken.attempted} ({broken.failures[0]})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
