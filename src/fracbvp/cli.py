"""Command-line interface: solve, study and timestudy subcommands.

Exit codes: 0 on success, 2 on solver failure, 3 on configuration errors,
an output path that cannot be written and grids too large for the memory
included.
"""

from __future__ import annotations

import argparse
import sys

from .analytic import singular_exponents
from .catalog import CATALOG_NAMES, catalog, with_overrides
from .correction import ConfigError, correct
from .report import emit_nodal
from .solver import SchemeKind, SolverError, solve_bvp
from .study import StudyConfig, emit_reports, run_study, run_time_study

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_CONFIG = 3

STATIONARY_NAMES = [name for name in CATALOG_NAMES if name != "ex3"]
SUFFIXES = {"csv": ".csv", "json": ".json", "markdown": ".md"}  # by --format


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser, **example) -> None:
    p.add_argument("--example", help="catalog problem name", **example)
    p.add_argument("--beta", type=float, nargs="+", default=[1.5],
                   help="fractional order(s) in (1, 2)")
    p.add_argument("--correct", action="store_true",
                   help="apply the two-grid singular correction")
    p.add_argument("--out", default=None, help="output file path")


def _add_stationary(p: argparse.ArgumentParser) -> None:
    _add_common(p, choices=STATIONARY_NAMES, required=True)
    p.add_argument("--scheme", choices=["wsgd", "fcd"], default="wsgd")
    p.add_argument("--theta", type=float, default=None,
                   help="override the derivative weight of the catalog problem")
    p.add_argument("--alpha", type=float, default=None,
                   help="override the reaction coefficient")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="fracbvp",
                 description="Fractional boundary-value solvers with "
                             "two-grid singularity correction.")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="solve one problem; write x,abs_error or x,u")
    _add_stationary(solve)
    solve.add_argument("--grids", type=int, nargs="+", default=[256],
                       help="interval count (one value)")

    study = sub.add_parser("study", help="stationary convergence study")
    _add_stationary(study)
    study.add_argument("--grids", type=int, nargs="+",
                       default=list(StudyConfig.M_list), help="interval counts")

    tstudy = sub.add_parser("timestudy", help="time-dependent spatial-rate study")
    _add_common(tstudy, choices=["ex3"], default="ex3")
    tstudy.add_argument("--grids", type=int, nargs="+", default=[16, 32, 64, 128])
    tstudy.add_argument("--tau", type=float, default=StudyConfig.tau,
                        help="time step (default %(default)s)")
    for p in (study, tstudy):
        p.add_argument("--format", choices=list(SUFFIXES), default="csv")
    return ap


def _problems(args) -> list:
    """The catalog problem at each ``--beta``, with the stationary overrides."""
    if len(set(args.beta)) != len(args.beta):
        raise ConfigError(f"repeated --beta value in {args.beta}")
    problems = [catalog(args.example, beta) for beta in args.beta]
    if args.command == "timestudy":
        return problems
    return [with_overrides(p, alpha=args.alpha, theta=args.theta)
            for p in problems]


def _cmd_solve(args) -> int:
    if len(args.beta) != 1 or len(args.grids) != 1:
        raise ConfigError("solve takes exactly one --beta and one --grids value")
    (problem,) = _problems(args)
    M = args.grids[0]
    scheme = SchemeKind(args.scheme)
    if args.correct:
        sol = correct(problem, M, scheme)
        u, guards = sol.corrected_coarse, sol.guard_activations
    else:
        u, guards = solve_bvp(problem, M, scheme), 0
    out = args.out or f"{args.example}-M{M}.csv"
    p = problem.params
    rho_left, rho_right = singular_exponents(p.beta, p.theta)
    meta = {"problem": problem.name, "alpha": p.alpha, "beta": p.beta,
            "theta": p.theta, "scheme": args.scheme, "corrected": args.correct,
            "M": M, "rho_left": rho_left, "rho_right": rho_right,
            "guard_activations": guards}
    x = u.grid.nodes()
    if problem.exact is not None:
        emit_nodal(out, "x,abs_error", x, abs(u.values - problem.exact(x)), meta)
    else:
        emit_nodal(out, "x,u", x, u.values, meta)
    print(out)
    return EXIT_OK


def _cmd_study(args) -> int:
    """One study per problem (``study`` or ``timestudy``); all reports are
    written together."""
    if args.command == "study":
        run, fields = run_study, dict(scheme=SchemeKind(args.scheme))
    else:
        run, fields = run_time_study, dict(tau=args.tau)
    reports = []
    for problem in _problems(args):
        reports += run(StudyConfig(problem, corrected=args.correct,
                                   M_list=args.grids, **fields))
    out = args.out or args.command + SUFFIXES[args.format]
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
        return _cmd_study(args)
    except (ConfigError, ValueError) as err:
        print(f"fracbvp: configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, MemoryError) as err:
        # an output path that cannot be written, or grids too large to hold
        print(f"fracbvp: configuration error: {type(err).__name__}: {err}",
              file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as err:
        print(f"fracbvp: solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
