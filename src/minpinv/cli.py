"""Command-line interface.

Subcommands: ``solve`` (regularized solution of A z = u), ``pinv``
(minimal pseudoinverse of an approximate matrix), ``svd-report``
(spectrum and conditioning data), ``experiment`` (the model-problem
harness).  Reports are JSON, bulk data CSV; every float is printed in
shortest round-trip form, so identical inputs reproduce identical
bytes.  Exit codes: 0 success, 2 input/parse error, 3 solver error.

When a command writes its primary CSV payload to a file (``--out`` /
``--out-dir``), the JSON summary goes to stdout; without ``--out`` the
CSV payload takes stdout and the summary moves to stderr.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .baselines import METHODS, ParameterError, solve
from .errors import InputError, SolverError
from .experiments import (
    FULL_SHAPE,
    _parse_seeds,
    curve_csv,
    detail_json,
    parse_config,
    run_experiment,
    table_csv,
)
from .linalg import (
    default_rank_tolerance,
    frobenius_norm,
    numerical_rank,
    singular_values,
    spectrum_cond,
)
from .matio import (
    dump_matrix_csv,
    format_float,
    format_rows,
    read_matrix,
    read_text,
    read_vector,
    write_matrix,
    write_text,
    write_vector,
)
from .mpm import minimal_pseudoinverse

INLINE_SOLUTION_LIMIT = 1000
# solve flag -> the library parameter it gives
SOLVE_FLAGS = {"--delta-rel": "delta_abs", "--delta-abs": "delta_abs",
               "--rank": "rank", "--alpha": "alpha", "--h": "h"}


def _emit_report(report_dict, payload_csv, out_path):
    """Primary CSV payload to --out (stdout otherwise); JSON summary to
    whichever of stdout/stderr the payload does not occupy."""
    text = json.dumps(report_dict, sort_keys=True, indent=2)
    if out_path:
        write_text(out_path, payload_csv)
        print(text)
    else:
        sys.stdout.write(payload_csv)
        print(text, file=sys.stderr)


def _cmd_solve(args):
    # usage errors come before any file is read
    if args.delta_rel is not None and args.delta_abs is not None:
        raise InputError("give one of --delta-rel and --delta-abs, not both")
    matrix = read_matrix(args.matrix)
    rhs = read_vector(args.rhs)
    if rhs.shape[0] != matrix.shape[0]:
        raise InputError(
            f"right-hand side length {rhs.shape[0]} does not match "
            f"matrix rows {matrix.shape[0]}"
        )

    delta_abs = args.delta_abs
    if args.delta_rel is not None:
        # the exact right side is unknown to a solver: scale by ||u||
        delta_abs = args.delta_rel * float(np.linalg.norm(rhs))
    try:
        # an overflowing spectrum is a SolverError from spectral_report, not
        # a numpy warning on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            solve_report = solve(matrix, rhs, args.method, delta_abs=delta_abs,
                                 rank=args.rank, alpha=args.alpha, h=args.h)
    except ParameterError as exc:
        given = [f for f in SOLVE_FLAGS if getattr(args, f[2:].replace("-", "_")) is not None]
        accepted = [f for f, name in SOLVE_FLAGS.items() if name in exc.accepted]
        raise ParameterError(args.method, given, accepted) from None
    solution = solve_report.solution
    inline = len(solution) <= INLINE_SOLUTION_LIMIT or not args.out
    report = solve_report.to_dict(solution_inline=inline)
    if not inline:
        sidecar = os.path.splitext(args.out)[0] + ".solution.csv"
        write_vector(sidecar, solution)
        report["solution_path"] = sidecar
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        write_text(args.out, text + "\n")
    else:
        print(text)
    return 0


def _cmd_pinv(args):
    if args.emit_matrix and not args.out:
        raise InputError("--emit-matrix requires --out")
    matrix = read_matrix(args.matrix)
    result = minimal_pseudoinverse(matrix, args.h)
    report = {
        "level": result.level,
        "jump_root": result.jumped,
        "rank": result.rank,
        "distance": frobenius_norm(result.matrix - matrix),
        "condition_number": spectrum_cond(result.filtered_sigma),
    }
    if args.out and args.emit_matrix:
        stem, ext = os.path.splitext(args.out)
        write_matrix(stem + ".matrix" + (ext or ".csv"), result.matrix)
    _emit_report(report, dump_matrix_csv(result.pinv), args.out)
    return 0


def _cmd_svd_report(args):
    matrix = read_matrix(args.matrix)
    sigma = singular_values(matrix)
    tolerance = default_rank_tolerance(sigma, matrix.shape)
    rank = numerical_rank(sigma, tolerance)
    lines = ["k,sigma", *(f"{k},{value}" for k, value in
                          enumerate(format_rows(sigma[:, None]), start=1))]
    payload = "\n".join(lines) + "\n"
    report = {
        "rows": matrix.shape[0],
        "cols": matrix.shape[1],
        "frobenius_norm": frobenius_norm(matrix),
        "numerical_rank": rank,
        "rank_tolerance": tolerance,
        "condition_number": spectrum_cond(sigma[:rank]),
        "condition_number_full": spectrum_cond(sigma) if sigma[-1] > 0.0 else None,
    }
    _emit_report(report, payload, args.out)
    return 0


def _cmd_experiment(args):
    config = parse_config(read_text(args.config))
    if args.full_scale:
        config = replace(config, m=FULL_SHAPE[0], n=FULL_SHAPE[1])
    if args.seeds:
        try:
            seeds = _parse_seeds(args.seeds)
        except ValueError as exc:
            raise InputError(f"--seeds: {exc}") from exc
        config = replace(config, seeds=seeds)
    table = run_experiment(config)

    os.makedirs(args.out_dir, exist_ok=True)
    write_text(os.path.join(args.out_dir, "table.csv"), table_csv(table))
    write_text(os.path.join(args.out_dir, "detail.json"), detail_json(table))
    if config.curve_points > 0:
        curve_dir = os.path.join(args.out_dir, "curves")
        os.makedirs(curve_dir, exist_ok=True)
        for record in table.records:
            if record.curve is None:
                continue
            name = f"curve_{record.method}_delta{record.delta}_seed{record.seed}.csv"
            write_text(os.path.join(curve_dir, name), curve_csv(record.curve))

    succeeded = sum(1 for r in table.records if r.error is None)
    failed = len(table.records) - succeeded
    for row in table.rows:
        acc, cond = ("n/a" if v is None else format_float(v)
                     for v in (row.accuracy, row.condition_number))
        print(f"{row.method} delta={row.delta}: accuracy={acc} cond={cond} "
              f"failures={row.failures}/{row.runs}")
    print(f"wrote {args.out_dir}/table.csv and detail.json "
          f"({succeeded} runs ok, {failed} failed)")
    if succeeded == 0:
        raise SolverError("noise dominates signal", "every cell failed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minpinv",
        description="Stable solution of ill-conditioned linear systems "
        "via minimal pseudoinverse matrices and friends.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve A z = u with a chosen method")
    p_solve.add_argument("--matrix", required=True, help="matrix file (CSV or MatrixMarket)")
    p_solve.add_argument("--rhs", required=True, help="right-hand side vector file")
    p_solve.add_argument("--method", required=True,
                         choices=list(METHODS))
    p_solve.add_argument("--delta-rel", type=float,
                         help="relative noise level (scaled by ||u||)")
    p_solve.add_argument("--delta-abs", type=float, help="absolute noise bound")
    p_solve.add_argument("--alpha", type=float, help="regularization parameter (tr/morozov)")
    p_solve.add_argument("--rank", type=int, help="truncation rank (tsvd)")
    p_solve.add_argument("--h", type=float, help="matrix error bound (mpm)")
    p_solve.add_argument("--out", help="write the JSON report here instead of stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_pinv = sub.add_parser("pinv", help="minimal pseudoinverse of an approximate matrix")
    p_pinv.add_argument("--matrix", required=True)
    p_pinv.add_argument("--h", type=float, required=True, help="matrix error bound")
    p_pinv.add_argument("--out", help="write the pseudoinverse CSV here")
    p_pinv.add_argument("--emit-matrix", action="store_true",
                        help="also write the filtered matrix next to --out")
    p_pinv.set_defaults(func=_cmd_pinv)

    p_svd = sub.add_parser("svd-report", help="singular spectrum and conditioning")
    p_svd.add_argument("--matrix", required=True)
    p_svd.add_argument("--out", help="write the (k, sigma) CSV here")
    p_svd.set_defaults(func=_cmd_svd_report)

    p_exp = sub.add_parser("experiment", help="run the model-problem harness")
    p_exp.add_argument("--config", required=True, help="key=value config file")
    p_exp.add_argument("--out-dir", required=True)
    p_exp.add_argument("--full-scale", action="store_true",
                       help="force the 1991x2001 grid (minutes of runtime)")
    p_exp.add_argument("--seeds", help="override config seeds, e.g. 0:20 or 1,2,3")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
