"""Convergence-study harness: reference solutions, error tables, timings.

Error conventions (matching the measurement protocol of the tables this
harness reproduces):

* an uncorrected row ``M`` reports the max-norm error of the plain solve
  on grid ``M``;
* a corrected row ``M`` solves the pair ``(M, 2M)`` and reports the error
  of the corrected *fine-grid* field on grid ``2M`` (its midpoint values
  carry the dominant corrected error, so this is the honest metric);
* a time-study row ``M`` reports the error of the final-time field on
  grid ``M``, the corrected coarse field when corrected;
* when the problem has no exact solution, errors are measured against a
  reference solution on the grid ``2**level`` restricted by exact index
  selection: the least level of at least ``REF_LEVEL`` whose ``2**level``
  is a multiple of ``4*M`` for every grid M, ``max(15, log2(4*max(M)))``,
  so that it nests grid M and grid 2M with room to spare.  A grid that
  is not a power of two is refused before the reference is solved.

The reference itself is the corrected solve at that level.  It inherits
the defect of the pointwise strength ratio, so a corrected row can measure
the reference and not itself (``ex1-case2`` at beta = 1.8 reads 2.178e-7
from M = 512 on, the level-15 reference's own error).  Reports record the
grid their errors are on as ``error_grid``.

Every linear solve, the reference's included, is accepted on the one
normwise backward-error bound of :mod:`fracbvp.solver`; reports record
that bound as ``backward_error_bound``.  A time study also records the
largest backward error its march steps reached, ``backward_error_max``,
and how many step solves missed the bound and were solved again,
``refinements``.

Both runners check their own configuration and hand a solve per grid
to one row loop, which times and measures it and writes the metadata
keys that every report shares.  The corrected rows of a study share one
map of solved grids, so that each grid is solved once, by the first row
that needs it; a row's wall time leaves out the solves it reuses.

References are cached in memory only, keyed by the problem, scheme and
level values; nothing is written to disk.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .catalog import ProblemSpec, TimeDependentProblem
from .correction import ConfigError, check_pair, correct
from .grids import Grid, GridFunction
from .report import ConvergenceReport, emit_report
from .solver import BACKWARD_ERROR_BOUND, SchemeKind, solve_bvp
from .timestepper import cn_wsgd_solve


#: Most steps a time study marches: 1000 times the steps of the default
#: tau, some 6 s of marching on M = 16 at 5.6 us a step (BENCH_31.json).
#: A smaller time step is refused as a mistake; its march could run for days.
MAX_STEPS = 10 ** 6

#: Least level of the reference grid 2**level; finer grid lists get a finer one.
REF_LEVEL = 15


@dataclass
class StudyConfig:
    """One convergence study of one problem (stationary or time-dependent)."""

    problem: ProblemSpec | TimeDependentProblem
    scheme: SchemeKind = SchemeKind.WSGD
    corrected: bool = False
    M_list: Sequence[int] = (64, 128, 256, 512)
    tau: float = 1e-3

    def __post_init__(self):
        Ms = list(self.M_list)
        if not Ms or any(m2 <= m1 for m1, m2 in zip(Ms, Ms[1:])):
            raise ConfigError(f"grid list must be strictly increasing, got {Ms}")
        if any(m < 4 for m in Ms):
            raise ConfigError("grids need at least 4 intervals")
        if self.corrected:  # refused here, before the reference is solved
            for m in Ms:
                check_pair(m)
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ConfigError(f"time step must be finite and positive, got {self.tau!r}")


# -- reference solutions -------------------------------------------------

_memory_cache: dict[tuple[ProblemSpec, SchemeKind, int], np.ndarray] = {}


def _solve_reference(problem: ProblemSpec, scheme: SchemeKind,
                     level: int) -> np.ndarray:
    """Nodal reference values on the grid 2**level (with boundaries)."""
    return correct(problem, 2 ** (level - 1), scheme).corrected_fine.values


def reference_solution(problem: ProblemSpec, scheme: SchemeKind,
                       level: int) -> GridFunction:
    """Reference solution on the grid ``2**level``, cached in memory.

    The cache key is the value ``(problem, scheme, level)``: problems that
    compare equal share a reference, and any change to the problem data
    (a callable right-hand side included) makes a new one.
    """
    key = (problem, scheme, level)
    if key not in _memory_cache:
        _memory_cache[key] = _solve_reference(problem, scheme, level)
    return GridFunction(Grid(2 ** level), _memory_cache[key].copy())


# -- study execution -----------------------------------------------------


def _restrict_errors(field: GridFunction, exact, reference: GridFunction | None):
    """Error grid function of ``field`` against exact or nested reference."""
    if exact is not None:
        target = np.asarray(exact(field.grid.nodes()), dtype=float)
    else:
        target = reference.values[::reference.grid.M // field.grid.M]
    return GridFunction(field.grid, field.values - target)


def _report(config: StudyConfig, solve, exact, reference: GridFunction | None,
            meta: dict) -> list[ConvergenceReport]:
    """Report of ``solve(M)`` on each grid, timed in wall seconds and
    measured against ``exact`` or ``reference``; the metadata are the
    shared keys and ``meta``, which a solve may update."""
    rows = []
    for M in config.M_list:
        t0 = time.perf_counter()
        u = solve(M)
        seconds = time.perf_counter() - t0
        err = _restrict_errors(u, exact, reference)
        rows.append((M, err.max_norm(), err.l2_norm(), seconds))
    shared = {
        "problem": config.problem.name,
        "beta": config.problem.params.beta,
        "theta": config.problem.params.theta,
        "corrected": config.corrected,
        "backward_error_bound": BACKWARD_ERROR_BOUND,
    }
    return [ConvergenceReport.from_rows(rows, shared | meta)]


def run_study(config: StudyConfig) -> list[ConvergenceReport]:
    """Run the configured stationary study; returns its one report."""
    problem = config.problem
    if isinstance(problem, TimeDependentProblem):
        raise ConfigError("time-dependent problems run through run_time_study")
    reference = None
    if problem.exact is None:
        for M in config.M_list:
            if M & (M - 1):
                raise ConfigError(f"no reference grid 2**level nests grid {M}: "
                                  f"{M} is not a power of two")
        level = max(REF_LEVEL, int(4 * max(config.M_list)).bit_length() - 1)
        reference = reference_solution(problem, config.scheme, level)
    meta = {
        "alpha": problem.params.alpha,
        "scheme": config.scheme.value,
        "error_grid": "2M" if config.corrected else "M",
        "reference": "exact" if reference is None else f"level-{level}",
        "guard_activations": 0,
    }
    solved = {}  # each grid's solves, shared by the corrected rows

    def solve(M):
        if not config.corrected:
            return solve_bvp(problem, M, config.scheme)
        sol = correct(problem, M, config.scheme, solved)
        meta["guard_activations"] += sol.guard_activations
        return sol.corrected_fine

    return _report(config, solve, problem.exact, reference, meta)


def run_time_study(config: StudyConfig) -> list[ConvergenceReport]:
    """Final-time errors and spatial rates of the Crank-Nicolson march;
    returns its one report.

    Needs the problem's exact solution.  The march takes N = round(T / tau)
    steps to the problem's final time T, at least one and at most
    ``MAX_STEPS``, and the report records ``steps`` N and ``tau`` T / N;
    the default tau = 1e-3 of the tables lets the spatial error dominate.
    """
    problem = config.problem
    if not isinstance(problem, TimeDependentProblem):
        raise ConfigError("timestudy needs a time-dependent problem")
    if config.scheme is not SchemeKind.WSGD:
        raise ConfigError(f"timestudy marches the WSGD scheme only, got {config.scheme.value}")
    if problem.exact is None:
        raise ConfigError(
            f"problem {problem.name!r} has no exact solution to measure against")
    T = problem.final_time
    steps = T / config.tau
    if not steps <= MAX_STEPS:
        raise ConfigError(f"time step {config.tau!r} takes {steps:.3g} steps to "
                          f"T = {T}, more than MAX_STEPS = {MAX_STEPS}")
    N = round(steps)
    if N < 1:
        raise ConfigError(f"time step {config.tau!r} takes round(T / tau) = 0 steps to T = {T}")
    meta = {
        "scheme": "cn-wsgd",
        "error_grid": "M",
        "tau": T / N,
        "steps": N,
        "final_time": T,
        "backward_error_max": 0.0,
        "refinements": 0,
        "guard_activations": 0,
    }

    def solve(M):
        diag: dict = {}
        u = cn_wsgd_solve(problem, M, N, corrected=config.corrected,
                          diagnostics=diag)
        meta["guard_activations"] += diag["guard_activations"]
        meta["refinements"] += diag["refinements"]
        meta["backward_error_max"] = max(meta["backward_error_max"],
                                         diag["backward_error_max"])
        return u

    return _report(config, solve, lambda x: problem.exact(x, T), None, meta)


def emit_reports(reports: Sequence[ConvergenceReport], fmt: str,
                 out: str) -> list[Path]:
    """Write reports; multiple reports get a -beta<value> path suffix.

    Raises :class:`ConfigError`, before writing anything, when two reports
    would go to one path (several reports at one ``beta``).
    """
    base = Path(out)
    if len(reports) == 1:
        paths = [base]
    else:
        paths = [base.with_name(f"{base.stem}-beta{rep.metadata.get('beta')}"
                                f"{base.suffix}") for rep in reports]
    if len(set(paths)) != len(paths):
        raise ConfigError(f"several reports would be written to one path: "
                          f"{[str(p) for p in paths]}")
    return [emit_report(rep, fmt, path) for rep, path in zip(reports, paths)]

