"""Command-line entry point: verify, expand, simulate, spectrum, conserved.

Every run writes its exact configuration as a key=value file next to its
outputs, and all CSV output is deterministic given the configuration.  Every
CSV input is parsed and checked by lattice.read_csv, which names its file.

Exit codes: 0 success / verified, 1 verification failure, 2 usage error
(also a path that cannot be read or written), 3 numerical failure (blow-up,
Newton breakdown, float64 overflow of the conserved quantities, a failed
KdV reference integration, a Hill period map that would need more than 2^20
segments).  A run that exits 2 or 3 creates no --out:
simulate and spectrum create it only once their computation has succeeded.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

import numpy as np

from . import bloch, hierarchy, lattice, solver
from .diffpoly import EpsSeries

__all__ = ["main", "write_config", "read_config"]

def write_config(path: Path, mapping: dict) -> None:
    lines = [f"{k}={mapping[k]}" for k in sorted(mapping)]
    path.write_text("\n".join(lines) + "\n")


def read_config(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            k, _, v = line.partition("=")
            out[k] = v
    return out


# ---------------------------------------------------------------------------


# Cost of a cold verify at --flow MAX_FLOW = 64, the costliest flow, on 2 vCPUs:
# 2.2 s at cap 11, 2.8 s at 12, 3.7-4.7 s at 13, 5.8-7.0 s at 14 and 11.0 s at
# 16; it grows about 5x per 8 caps, so the bound keeps every accepted run to
# seconds.
_MAX_ORDER_CAP = 14


def cmd_verify(args) -> int:
    # below DEFAULT_CAP = 11 the residual would stop short of eps^8
    if not hierarchy.DEFAULT_CAP <= args.order_cap <= _MAX_ORDER_CAP:
        raise ValueError(
            f"--order-cap must be between {hierarchy.DEFAULT_CAP} and {_MAX_ORDER_CAP}, "
            f"got {args.order_cap}"
        )
    if args.truncate_R is not None and args.truncate_R < 1:
        raise ValueError(f"--truncate-R must keep at least one coefficient, got {args.truncate_R}")
    R = hierarchy.standard_R(args.order_cap)
    if args.truncate_R is not None:
        R = EpsSeries(list(R.coeffs[: args.truncate_R]), order_cap=args.order_cap)
    ansatz = hierarchy.AnsatzPair(R)
    res = hierarchy.residual(args.flow, ansatz)
    print(f"flow {args.flow}: residual coefficients through eps^{res.order_cap}")
    print(res.render())
    first_bad = res.first_nonzero_order()
    if first_bad is None or first_bad > 8:
        print("VERIFIED: residual vanishes exactly through eps^8")
        return 0
    print(f"FAILED: first nonzero residual at eps^{first_bad}: {res.coeff(first_bad)}")
    return 1


def cmd_expand(args) -> int:
    name = args.expr
    if name == "R":
        print(hierarchy.standard_R(11).truncate(5).render())
        return 0
    if name in ("Z1", "Z2", "Z3", "Z4"):
        j = int(name[1])
        ansatz = hierarchy.AnsatzPair(hierarchy.standard_R(11))
        print(hierarchy.flow_rhs_combined(j, ansatz).render())
        return 0
    series = {"C1": lattice.C1_EXPANSION, "C2": lattice.C2_EXPANSION, "C3": lattice.C3_EXPANSION}[name]
    print(lattice.render_integral_series(series))
    return 0


# ---------------------------------------------------------------------------


def _parse_init(tag: str, N: int, variant: str) -> tuple[lattice.LatticeState, lattice.Profile | None]:
    if tag.startswith("builtin:"):
        prof = lattice.builtin_profile(tag.split(":", 1)[1])
        return lattice.init_from_profile(prof, N, variant), prof
    if tag.startswith("csv:"):
        path = tag.split(":", 1)[1]
        state = lattice.read_state_csv(path)
        if state.N != N:
            raise ValueError(f"state file {path} has N={state.N}, requested {N}")
        return state, None
    raise ValueError(f"init must be builtin:<name> or csv:<path>, got {tag!r}")


_VARIANTS = {"paper": "paper_25_26", "consistent": "consistent_R"}
_TRAJECTORY_HEADER = ("t", "n", "a", "b")


def cmd_simulate(args) -> int:
    variant = _VARIANTS[args.init_variant]
    state0, profile = _parse_init(args.init, args.N, variant)
    cfg = solver.SolverConfig(
        dt=args.dt,
        t_end=args.t_end,
        scheme=args.scheme,
        output_every=args.output_every,
    )
    rho = solver.linear_spectral_radius(args.N)
    print(
        f"linearized stencil spectral radius {rho:.1f} "
        f"(explicit stability needs dt well below {2.8 / rho:.2e}; dt*N^3 = {args.dt * args.N**3:.3g})"
    )
    # every numerical failure (exit 3) comes before --out exists
    traj = solver.run(state0, cfg)
    kdv = solver.compare_to_kdv(traj, profile, args.t_end) if profile is not None else None

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_config(
        outdir / "config.txt",
        {
            "subcommand": "simulate",
            "N": args.N,
            "dt": args.dt,
            "t_end": args.t_end,
            "scheme": args.scheme,
            "init": args.init,
            "init_variant": args.init_variant,
            "output_every": args.output_every,
        },
    )
    # one table: each snapshot's t repeated over its N sites, then the next snapshot
    times, states, reports = zip(*traj.samples)
    lattice.write_csv(
        outdir / "trajectory.csv",
        _TRAJECTORY_HEADER,
        (
            np.repeat(times, args.N),
            np.tile(np.arange(args.N), len(states)),
            np.concatenate([s.a for s in states]),
            np.concatenate([s.b for s in states]),
        ),
    )
    lattice.write_csv(
        outdir / "conserved.csv", lattice.ConservedReport.COLUMNS, np.array([r.row() for r in reports]).T
    )
    lattice.write_state_csv(outdir / "state.csv", states[-1])  # restartable
    if kdv is not None:
        lattice.write_csv(
            outdir / "comparison.csv",
            ["x", "lattice", "reference", "error"],
            (kdv.x, kdv.lattice, kdv.reference, kdv.lattice - kdv.reference),
        )
        print(
            f"comparison at t={kdv.t:g}: max err {kdv.max_err:.3e}, l2 err {kdv.l2_err:.3e} "
            f"(reference: {kdv.reference_steps} steps, "
            f"Richardson estimate {kdv.reference_estimate:.1e})"
        )
    print(f"wrote {outdir}/trajectory.csv, conserved.csv ({len(states)} snapshots)")
    return 0


def _write_spectrum_csv(path: Path, table: bloch.DiscriminantTable) -> None:
    lattice.write_csv(
        path,
        ["lambda", "trace_discrete", "trace_continuous", "det_discrete", "det_continuous"],
        (table.lam, table.trace_discrete, table.trace_continuous, table.det_discrete,
         table.det_continuous),
    )


def cmd_spectrum(args) -> int:
    if not np.isfinite(args.lambda_max):
        raise ValueError(f"--lambda-max must be finite, got {args.lambda_max}")
    if args.N < 8:
        raise ValueError(f"--N must be >= 8, got {args.N}")
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    if not args.g.startswith("builtin:"):
        raise ValueError("--g must be builtin:<name>")
    prof = lattice.builtin_profile(args.g.split(":", 1)[1])
    lams = np.linspace(-args.lambda_max, args.lambda_max, args.samples)
    # exit 2 (non-finite lattice data, also for --samples 0) and 3 before --out exists
    table = bloch.discriminant_scan(prof, args.N, lams)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_config(
        outdir / "config.txt",
        {
            "subcommand": "spectrum",
            "g": args.g,
            "N": args.N,
            "lambda_max": args.lambda_max,
            "samples": args.samples,
        },
    )
    _write_spectrum_csv(outdir / "spectrum.csv", table)
    print(f"wrote {outdir}/spectrum.csv ({len(table)} samples)")
    return 0


def _read_snapshots(path: Path) -> list[tuple[float, lattice.LatticeState]]:
    """The (t, state) snapshots recorded in trajectory.csv, in file order.

    A snapshot is a run of rows with equal t.  Each must list the sites
    n = 0..N-1 in order, with the N of the first snapshot.
    """
    rows = lattice.read_csv(path, _TRAJECTORY_HEADER)
    if not len(rows):  # np.split would give one empty snapshot
        return []
    snapshots = np.split(rows, np.flatnonzero(rows[1:, 0] != rows[:-1, 0]) + 1)
    N = len(snapshots[0])
    if N < 8:
        raise ValueError(f"the first snapshot in {path} lists {N} sites; the lattice needs N >= 8")
    for t, n, _, _ in (snapshot.T for snapshot in snapshots):
        if not np.array_equal(n, np.arange(N)):
            raise ValueError(
                f"the snapshot at t = {float(t[0])!r} in {path} must list the sites "
                f"n = 0..{N - 1} in order, as the first snapshot does"
            )
    return [(float(t[0]), lattice.LatticeState(N, a, b)) for t, _, a, b in (s.T for s in snapshots)]


def cmd_conserved(args) -> int:
    traj_dir = Path(args.traj)
    src, traj_src = traj_dir / "conserved.csv", traj_dir / "trajectory.csv"
    rows = lattice.read_csv(src, lattice.ConservedReport.COLUMNS)
    snapshots = _read_snapshots(traj_src)
    if not len(rows) or len(snapshots) != len(rows):
        raise ValueError(
            f"{traj_src} has {len(snapshots)} snapshots and {src} {len(rows)} rows; "
            "they must match and be nonzero"
        )
    for (t, _), t_row in zip(snapshots, rows[:, 0]):
        if t != t_row:
            raise ValueError(
                f"the snapshot at t = {t!r} in {traj_src} does not match "
                f"the row at t = {float(t_row)!r} in {src}"
            )
    # d1..d3 drift exactly from the %.17g snapshots: the d's stored in
    # conserved.csv are rounded far above their drift.  C1..C3 as recorded.
    d0 = lattice.exact_invariants(snapshots[0][1])
    d_drift = [[float(d - e) for d, e in zip(lattice.exact_invariants(s), d0)] for _, s in snapshots]
    drifts = np.column_stack([d_drift, rows[:, 4:] - rows[0, 4:]])
    names = lattice.ConservedReport.COLUMNS[1:]
    outdir = Path(args.out) if args.out else traj_dir
    outdir.mkdir(parents=True, exist_ok=True)
    lattice.write_csv(outdir / "drift.csv", ["t", *(f"{c}_drift" for c in names)], (rows[:, 0], *drifts.T))
    for name, drift in zip(names, drifts.T):
        print(f"max |{name} drift| = {np.abs(drift).max():.3e}")
    print(f"wrote {outdir}/drift.csv")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args keeps no state."""
    p = argparse.ArgumentParser(prog="todakdv", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    v = sub.add_parser("verify", help="check the hierarchy residuals symbolically")
    v.add_argument("--flow", type=int, required=True, help="flow index k >= 1")
    v.add_argument("--order-cap", type=int, default=hierarchy.DEFAULT_CAP)
    v.add_argument("--truncate-R", type=int, default=None,
                   help="keep only the first K coefficients of the correction series")
    v.set_defaults(func=cmd_verify)

    e = sub.add_parser("expand", help="print a verified series in canonical form")
    e.add_argument("expr", choices=("R", "Z1", "Z2", "Z3", "Z4", "C1", "C2", "C3"))
    e.set_defaults(func=cmd_expand)

    s = sub.add_parser("simulate", help="integrate the lattice flow")
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--dt", type=float, required=True)
    s.add_argument("--t-end", type=float, required=True)
    s.add_argument("--scheme", choices=("rk4", "cn"), default="cn")
    s.add_argument("--init", default="builtin:cos")
    s.add_argument("--init-variant", choices=("paper", "consistent"), default="consistent")
    s.add_argument("--out", required=True)
    s.add_argument("--output-every", type=int, default=16)
    s.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("spectrum", help="discriminant scan, discrete vs continuous")
    sp.add_argument("--g", default="builtin:cos")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--lambda-max", type=float, default=200.0)
    sp.add_argument("--samples", type=int, default=2048)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_spectrum)

    c = sub.add_parser("conserved", help="drift columns for a recorded trajectory")
    c.add_argument("--traj", required=True)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_conserved)
    return p


def _join_negative_values(argv: list[str]) -> list[str]:
    # argparse takes a value such as -2e-3 or -inf for an option unless it
    # is joined to its flag, so --t-end -2e-3 is passed on as --t-end=-2e-3
    out: list[str] = []
    for tok in argv:
        if out and re.fullmatch(r"--\w[\w-]*", out[-1]) and tok.startswith("-") and _is_float(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _is_float(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (solver.BlowUpError, solver.NewtonError, solver.IntegrationError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:  # an OSError's message names its path
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
