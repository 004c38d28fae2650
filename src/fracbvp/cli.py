"""Command-line interface: solve, study and timestudy subcommands.

Exit codes: 0 on success, 2 on solver failure, 3 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import CATALOG_NAMES, catalog, with_overrides
from .correction import correct
from .report import emit_pointwise_error
from .solver import SchemeKind, SolverError, solve_bvp
from .study import ConfigError, StudyConfig, emit_reports, run_study, run_time_study

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--example", choices=CATALOG_NAMES, help="catalog problem name")
    p.add_argument("--beta", type=float, nargs="+", default=[1.5],
                   help="fractional order(s) in (1, 2)")
    p.add_argument("--theta", type=float, default=None,
                   help="override the derivative weight of the catalog problem")
    p.add_argument("--alpha", type=float, default=None,
                   help="override the reaction coefficient")
    p.add_argument("--scheme", choices=["wsgd", "fcd"], default="wsgd")
    p.add_argument("--correct", action="store_true",
                   help="apply the two-grid singular correction")
    p.add_argument("--singular-exponent", type=float, default=None,
                   dest="rho", help="override the singular boundary exponent")
    p.add_argument("--format", choices=["csv", "json", "markdown"], default="csv")
    p.add_argument("--out", default=None, help="output file path")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="fracbvp",
                 description="Fractional boundary-value solvers with "
                             "two-grid singularity correction.")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="solve one problem and write x,u data")
    _add_common(solve)
    solve.add_argument("--grids", type=int, nargs="+", default=[256],
                       help="interval count (one value)")

    study = sub.add_parser("study", help="stationary convergence study")
    _add_common(study)
    study.add_argument("--grids", type=int, nargs="+",
                       default=[64, 128, 256, 512], help="interval counts")
    study.add_argument("--ref-level", type=int, default=15,
                       help="reference grid is 2**level when no exact solution")
    study.add_argument("--cache-dir", default=None,
                       help="directory for the on-disk reference cache")

    tstudy = sub.add_parser("timestudy", help="time-dependent spatial-rate study")
    _add_common(tstudy)
    tstudy.add_argument("--grids", type=int, nargs="+", default=[16, 32, 64, 128])
    tstudy.add_argument("--tau", type=float, default=1e-3, help="time step")
    tstudy.add_argument("--steps", type=int, default=None,
                        help="step count (overrides --tau)")
    return ap


def _cmd_solve(args) -> int:
    if args.example is None:
        raise ConfigError("solve requires --example")
    if args.example == "ex3":
        raise ConfigError("ex3 is time-dependent; use the timestudy subcommand")
    if len(args.beta) != 1 or len(args.grids) != 1:
        raise ConfigError("solve takes exactly one --beta and one --grids value")
    problem = catalog(args.example, args.beta[0])
    if args.alpha is not None or args.theta is not None or args.rho is not None:
        problem = with_overrides(problem, alpha=args.alpha, theta=args.theta,
                                 rho=args.rho)
    M = args.grids[0]
    scheme = SchemeKind(args.scheme)
    if args.correct:
        if problem.singular is None:
            raise ConfigError("no singular term available for correction")
        sol = correct(problem, problem.singular, M, scheme)
        u = sol.corrected_coarse
    else:
        u = solve_bvp(problem, M, scheme)
    out = Path(args.out) if args.out else Path(f"{args.example}-M{M}.csv")
    meta = {"problem": args.example, "beta": problem.params.beta,
            "scheme": args.scheme, "corrected": args.correct, "M": M}
    if problem.exact is not None:
        emit_pointwise_error(u, problem.exact, out, metadata=meta)
    else:
        lines = [f"# {k}={v}" for k, v in sorted(meta.items())] + ["x,u"]
        lines += [f"{x!r},{v!r}" for x, v in zip(u.grid.nodes(), u.values)]
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(lines) + "\n")
    print(out)
    return EXIT_OK


def _cmd_study(args) -> int:
    config = StudyConfig(
        example=args.example, betas=args.beta, scheme=SchemeKind(args.scheme),
        corrected=args.correct, M_list=args.grids, ref_level=args.ref_level,
        cache_dir=args.cache_dir,
        alpha=args.alpha, theta=args.theta, singular_rho=args.rho)
    reports = run_study(config)
    out = args.out or "study.csv"
    for path in emit_reports(reports, args.format, out):
        print(path)
    return EXIT_OK


def _cmd_timestudy(args) -> int:
    config = StudyConfig(
        example=args.example or "ex3", betas=args.beta,
        scheme=SchemeKind(args.scheme), corrected=args.correct,
        M_list=args.grids, tau=args.tau, steps=args.steps)
    reports = run_time_study(config)
    out = args.out or "timestudy.csv"
    for path in emit_reports(reports, args.format, out):
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "study":
            return _cmd_study(args)
        return _cmd_timestudy(args)
    except (ConfigError, KeyError, ValueError) as err:
        print(f"fracbvp: configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as err:
        print(f"fracbvp: solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
