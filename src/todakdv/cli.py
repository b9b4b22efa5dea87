"""Command-line entry point: verify, expand, simulate, spectrum, conserved.

Every run writes its exact configuration as a key=value file next to its
outputs, and all CSV output is deterministic given the configuration.

Exit codes: 0 success / verified, 1 verification failure, 2 usage error
(also a path that cannot be read or written), 3 numerical failure (blow-up,
Newton breakdown, float64 overflow of the conserved quantities, a failed
KdV reference integration, a Hill period map that would need more than 2^20
segments).  A run that exits 2 or 3 creates no --out:
simulate and spectrum create it only once their computation has succeeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
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


def cmd_verify(args) -> int:
    R = hierarchy.standard_R(args.order_cap)
    if args.truncate_R is not None:
        if args.truncate_R < 1:
            print("--truncate-R must keep at least one coefficient", file=sys.stderr)
            return 2
        coeffs = list(R.coeffs[: args.truncate_R])
        R = EpsSeries(coeffs, order_cap=args.order_cap)
    ansatz = hierarchy.AnsatzPair(R)
    res = hierarchy.residual(args.flow, ansatz)
    check_through = min(8, res.order_cap)
    print(f"flow {args.flow}: residual coefficients through eps^{res.order_cap}")
    print(res.render())
    first_bad = None
    for k in range(check_through + 1):
        if not res.coeff(k).is_zero():
            first_bad = k
            break
    if first_bad is None:
        print(f"VERIFIED: residual vanishes exactly through eps^{check_through}")
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
        state = lattice.read_state_csv(tag.split(":", 1)[1])
        if state.N != N:
            raise ValueError(f"state file has N={state.N}, requested {N}")
        return state, None
    raise ValueError(f"init must be builtin:<name> or csv:<path>, got {tag!r}")


_VARIANTS = {"paper": "paper_25_26", "consistent": "consistent_R"}


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
    lattice.write_csv(
        outdir / "trajectory.csv",
        ["t", "n", "a", "b"],
        ((np.broadcast_to(t, s.N), np.arange(s.N), s.a, s.b) for t, s, _ in traj.samples),
        row_format=f"{lattice.FMT},%d,{lattice.FMT},{lattice.FMT}",
    )
    lattice.write_csv(
        outdir / "conserved.csv",
        lattice.ConservedReport.COLUMNS,
        [np.array([rep.row() for _, _, rep in traj.samples]).T],
    )
    lattice.write_state_csv(outdir / "state.csv", traj.samples[-1][1])  # restartable
    if kdv is not None:
        lattice.write_csv(
            outdir / "comparison.csv",
            ["x", "lattice", "reference", "error"],
            [(kdv.x, kdv.lattice, kdv.reference, kdv.lattice - kdv.reference)],
        )
        print(
            f"comparison at t={kdv.t:g}: max err {kdv.max_err:.3e}, l2 err {kdv.l2_err:.3e} "
            f"(reference: {kdv.reference_steps} steps, "
            f"Richardson estimate {kdv.reference_estimate:.1e})"
        )
    print(f"wrote {outdir}/trajectory.csv, conserved.csv ({len(traj.samples)} snapshots)")
    return 0


def _write_spectrum_csv(path: Path, table: bloch.DiscriminantTable) -> None:
    lattice.write_csv(
        path,
        ["lambda", "trace_discrete", "trace_continuous", "det_discrete", "det_continuous"],
        [(table.lam, table.trace_discrete, table.trace_continuous, table.det_discrete,
          table.det_continuous)],
    )


def cmd_spectrum(args) -> int:
    if not np.isfinite(args.lambda_max):
        raise ValueError(f"--lambda-max must be finite, got {args.lambda_max}")
    if not 0 < args.tol < np.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    if args.N < 8:
        raise ValueError(f"--N must be >= 8, got {args.N}")
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    if not args.g.startswith("builtin:"):
        raise ValueError("--g must be builtin:<name>")
    prof = lattice.builtin_profile(args.g.split(":", 1)[1])
    lams = np.linspace(-args.lambda_max, args.lambda_max, args.samples)
    # exit 2 (non-finite lattice data, also for --samples 0) and 3 before --out exists
    table = bloch.discriminant_scan(prof, args.N, lams, tol=args.tol)
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
            "tol": args.tol,
        },
    )
    _write_spectrum_csv(outdir / "spectrum.csv", table)
    print(f"wrote {outdir}/spectrum.csv ({len(table)} samples)")
    return 0


def _read_snapshots(path: Path) -> list[tuple[float, lattice.LatticeState]]:
    """The (t, state) snapshots recorded in trajectory.csv, in file order.

    Each snapshot must list the sites n = 0..N-1 in order, with the N of the
    first snapshot.
    """
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        if next(rd, None) != ["t", "n", "a", "b"]:
            raise ValueError(f"expected header t,n,a,b in {path}")
        snapshots = []
        for _, rows in itertools.groupby(rd, key=lambda row: row[:1]):
            rows = list(rows)
            if any(len(row) != 4 for row in rows):
                raise ValueError(f"every row of {path} needs 4 columns t,n,a,b")
            N = snapshots[0][1].N if snapshots else len(rows)
            if [n for _, n, _, _ in rows] != [str(n) for n in range(N)]:
                raise ValueError(
                    f"the snapshot at t = {rows[0][0]} in {path} must list the sites "
                    f"n = 0..{N - 1} in order, as the first snapshot does"
                )
            try:
                t = float(rows[0][0])
                a, b = np.array([[float(a), float(b)] for _, _, a, b in rows]).T
            except ValueError as err:
                raise ValueError(f"non-numeric field in {path}: {err}") from None
            snapshots.append((t, lattice.LatticeState(N, a, b)))
    return snapshots


def cmd_conserved(args) -> int:
    traj_dir = Path(args.traj)
    src = traj_dir / "conserved.csv"
    with open(src, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        try:
            rows = [[float(x) for x in row] for row in rd]
        except ValueError as err:
            raise ValueError(f"non-numeric field in {src}: {err}") from None
    if header != list(lattice.ConservedReport.COLUMNS):
        raise ValueError(f"expected header {','.join(lattice.ConservedReport.COLUMNS)} in {src}")
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"every row of {src} needs {len(header)} columns")
    snapshots = _read_snapshots(traj_dir / "trajectory.csv")
    if not rows or len(snapshots) != len(rows):
        raise ValueError(
            f"trajectory.csv has {len(snapshots)} snapshots and conserved.csv {len(rows)} rows; "
            "they must match and be nonzero"
        )
    for (t, _), row in zip(snapshots, rows):
        if t != row[0]:
            raise ValueError(
                f"the snapshot at t = {t!r} in {traj_dir / 'trajectory.csv'} does not match "
                f"the row at t = {row[0]!r} in {src}"
            )
    # d1..d3 drift exactly from the %.17g snapshots: the d's stored in
    # conserved.csv are rounded far above their drift.  C1..C3 as recorded.
    d0 = lattice.exact_invariants(snapshots[0][1])
    drifts = [
        [float(d - e) for d, e in zip(lattice.exact_invariants(state), d0)]
        + [x - x0 for x, x0 in zip(row[4:], rows[0][4:])]
        for (_, state), row in zip(snapshots, rows)
    ]
    outdir = Path(args.out) if args.out else traj_dir
    outdir.mkdir(parents=True, exist_ok=True)
    lattice.write_csv(
        outdir / "drift.csv",
        ["t"] + [f"{c}_drift" for c in header[1:]],
        [(np.array([row[0] for row in rows]), *np.array(drifts).T)],
    )
    for i, name in enumerate(header[1:]):
        print(f"max |{name} drift| = {max(abs(drift[i]) for drift in drifts):.3e}")
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
    sp.add_argument("--tol", type=float, default=1e-10)
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
