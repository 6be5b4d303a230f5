"""Command-line front end: generate, measure, certify, solve, collide, sweep.

Exit codes: 0 success; 1 usage or input error; 2 mathematically determined
negative (certification failed, or a collision was found -- distinct from
an operational failure so scripts can branch on the outcome); 3 a fragile
rank decision was encountered and --strict was given.

All output is deterministic for fixed inputs and seeds apart from one
timestamped log line, which --no-log suppresses.  No entropy source is
consulted implicitly; randomness enters only through --seed flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .distance import certify_unique, phase_gen_min_distance
from .experiments import (
    SweepConfig,
    build_collision_real,
    emit_results,
    run_sweep,
)
from .model import (
    Field,
    MeasurementVector,
    generate_ensemble,
    measure,
    read_matrix,
    read_measurements,
    read_sparse_vector,
    write_matrix,
    write_measurements,
)
from .solver_complex import solve_l0_complex
from .solver_real import solve_l0_real

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_FRAGILE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); remap to exit 1
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="sparsepr", description=__doc__, add_help=True)
    p.add_argument("--version", action="version", version=f"sparsepr {__version__}")
    p.add_argument("--no-log", action="store_true", help="suppress the timestamped log line")
    sub = p.add_subparsers(dest="command", metavar="command")

    g = sub.add_parser("gen", help="generate a seeded Gaussian ensemble and write it to a file")
    g.add_argument("--field", choices=["real", "complex"], required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("-o", "--output", required=True, help="matrix file to write")

    me = sub.add_parser("measure", help="compute y = |Ax| for a matrix and sparse vector file")
    me.add_argument("matrix")
    me.add_argument("vector")
    me.add_argument("-o", "--output", help="write magnitudes here instead of stdout")

    d = sub.add_parser("dist", help="phase-generalized minimum distance report (real, m < n)")
    d.add_argument("matrix")
    d.add_argument("--max-support", type=int, default=None)
    d.add_argument("--strict", action="store_true", help="exit 3 on fragile rank decisions")

    c = sub.add_parser("certify", help="certify unique k-sparse recovery")
    c.add_argument("matrix")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--strict", action="store_true", help="exit 3 on fragile rank decisions")

    s = sub.add_parser("solve", help="exact l0 solve from a measurement file or inline values")
    s.add_argument("matrix")
    s.add_argument("measurements", nargs="?", help="file with one magnitude per line")
    s.add_argument("--y", help="inline comma-separated magnitudes (alternative to the file)")
    s.add_argument("--kmax", type=int, required=True)
    s.add_argument("--tol", type=float, default=1e-8,
                   help="solve tolerance, relative to max y (default 1e-8)")
    s.add_argument("--allow-heuristic", action="store_true",
                   help="enable the labeled-heuristic complex path: support sizes k outside the exact rule "
                        "(m >= k^2, or k^2 - 2 <= m with m >= 4k - 2) and supports whose lift the SVD "
                        "rank policy cannot decide")
    s.add_argument("--seed", type=int, default=0, help="seed for heuristic restarts")

    co = sub.add_parser("collide", help="construct a disjoint-support collision at m <= 2k-1")
    co.add_argument("matrix")
    co.add_argument("--k", type=int, required=True)

    sw = sub.add_parser("sweep", help="run a recovery-rate sweep (JSON config or flags)")
    sw.add_argument("config", nargs="?", help="JSON file with the sweep configuration")
    sw.add_argument("--field", choices=["real", "complex"])
    sw.add_argument("--n", type=int)
    sw.add_argument("--k", type=int)
    sw.add_argument("--m-range", help="inclusive range as lo:hi")
    sw.add_argument("--trials", type=int)
    sw.add_argument("--seed", type=int)
    sw.add_argument("--tol", type=float, help="solve tolerance, relative to max y (default 1e-8)")
    sw.add_argument("--outdir", default="results")
    sw.add_argument("--formats", default="csv,json,gnuplot",
                    help="comma-separated subset of csv,json,gnuplot")
    return p


def _log(args) -> None:
    if not args.no_log:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        print(f"# {stamp} sparsepr {args.command}")


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_gen(args) -> int:
    A = generate_ensemble(Field.from_label(args.field), args.m, args.n, args.seed)
    write_matrix(A, args.output)
    _print_json(
        {
            "written": args.output,
            "field": A.field.value,
            "m": A.m,
            "n": A.n,
            "seed": A.provenance.seed,
            "distribution": A.provenance.distribution,
        }
    )
    return EXIT_OK


def _cmd_measure(args) -> int:
    A = read_matrix(args.matrix)
    x = read_sparse_vector(args.vector, field=A.field)
    y = measure(A, x)
    if args.output:
        write_measurements(y, args.output)
        _print_json({"written": args.output, "m": y.m})
    else:
        for v in y.magnitudes:
            print(repr(float(v)))
    return EXIT_OK


def _cmd_dist(args) -> int:
    A = read_matrix(args.matrix)
    report = phase_gen_min_distance(A, max_support=args.max_support)
    _print_json(report.to_json_dict())
    if args.strict and report.fragile:
        return EXIT_FRAGILE
    return EXIT_OK


def _cmd_certify(args) -> int:
    A = read_matrix(args.matrix)
    report = certify_unique(A, args.k)
    _print_json(report.to_json_dict())
    if args.strict and report.fragile:
        return EXIT_FRAGILE
    return EXIT_OK if report.certified else EXIT_NEGATIVE


def _cmd_solve(args) -> int:
    A = read_matrix(args.matrix)
    if (args.measurements is None) == (args.y is None):
        raise _UsageError("provide exactly one of a measurements file or --y")
    if args.y is not None:
        try:
            y = MeasurementVector(np.array([float(t) for t in args.y.split(",")]))
        except ValueError as exc:
            raise _UsageError(f"bad --y value: {exc}") from None
    else:
        y = read_measurements(args.measurements)
    if y.m != A.m:
        raise _UsageError(f"measurement length {y.m} does not match matrix rows {A.m}")
    if A.field is Field.REAL:
        sol = solve_l0_real(A, y, args.kmax, tol=args.tol)
    else:
        sol = solve_l0_complex(
            A, y, args.kmax, tol=args.tol, allow_heuristic=args.allow_heuristic, seed=args.seed
        )
    _print_json(sol.to_json_dict())
    return EXIT_OK


def _cmd_collide(args) -> int:
    A = read_matrix(args.matrix)
    x, z = build_collision_real(A, args.k)
    yx = measure(A, x).magnitudes
    yz = measure(A, z).magnitudes
    _print_json(
        {
            "m": A.m,
            "n": A.n,
            "k": args.k,
            "x": x.to_json_dict(),
            "z": z.to_json_dict(),
            "max_abs_mismatch": float(np.max(np.abs(yx - yz))),
            "verdict": "collision_found",
        }
    )
    # A found collision is a mathematically determined negative about uniqueness.
    return EXIT_NEGATIVE


# The sweep flags a config file replaces, with their argparse destinations.
_SWEEP_FLAGS = (("--field", "field"), ("--n", "n"), ("--k", "k"), ("--m-range", "m_range"),
                ("--trials", "trials"), ("--seed", "seed"))


def _sweep_config(args) -> SweepConfig:
    if args.config is not None:
        given = [flag for flag, dest in (*_SWEEP_FLAGS, ("--tol", "tol")) if getattr(args, dest) is not None]
        if given:
            raise _UsageError(f"{given[0]} cannot be combined with a config file; set it in the file")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.config}:{exc.lineno}: invalid JSON ({exc.msg})") from None
        return SweepConfig.from_json_dict(raw, source=args.config)
    if any(getattr(args, dest) is None for _, dest in _SWEEP_FLAGS):
        raise _UsageError(
            "sweep needs a config file or all of --field --n --k --m-range --trials --seed"
        )
    try:
        lo, hi = (int(t) for t in args.m_range.split(":"))
    except ValueError:
        raise _UsageError(f"--m-range must be lo:hi, got {args.m_range!r}") from None
    return SweepConfig(
        field=Field.from_label(args.field),
        n=args.n,
        k=args.k,
        m_range=(lo, hi),
        trials_per_m=args.trials,
        base_seed=args.seed,
        **({} if args.tol is None else {"tol": args.tol}),
    )


def _cmd_sweep(args) -> int:
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    ext = {"csv": "csv", "json": "json", "gnuplot": "dat"}
    for fmt in formats:
        if fmt not in ext:
            raise _UsageError(f"unknown format {fmt!r}")
    cfg = _sweep_config(args)
    result = run_sweep(cfg)
    os.makedirs(args.outdir, exist_ok=True)
    written = []
    for fmt in formats:
        path = os.path.join(args.outdir, f"sweep_{cfg.fingerprint()}.{ext[fmt]}")
        emit_results(result, fmt, path)
        written.append(path)
    _print_json(
        {
            "config": cfg.to_json_dict(),
            "files": written,
            "rows": [
                {
                    "m": r.m,
                    "trials": r.trials,
                    "successes": r.successes,
                    "rate": r.rate,
                    "heuristic": r.heuristic,
                }
                for r in result.rows
            ],
        }
    )
    return EXIT_OK


_HANDLERS = {
    "gen": _cmd_gen,
    "measure": _cmd_measure,
    "dist": _cmd_dist,
    "certify": _cmd_certify,
    "solve": _cmd_solve,
    "collide": _cmd_collide,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required (gen, measure, dist, certify, solve, collide, sweep)")
        _log(args)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"sparsepr: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"sparsepr: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
