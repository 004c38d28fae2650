"""Convergence-study harness: reference solutions, error tables, timings.

Error conventions (matching the measurement protocol of the tables this
harness reproduces):

* an uncorrected row ``M`` reports the max-norm error of the plain solve
  on grid ``M``;
* a corrected row ``M`` solves the pair ``(M, 2M)`` and reports the error
  of the corrected *fine-grid* field on grid ``2M`` (its midpoint values
  carry the dominant corrected error, so this is the honest metric);
* when the problem has no exact solution, errors are measured against a
  reference solution on a power-of-two grid ``2**ref_level`` restricted
  by exact index selection, which requires the study grids to nest.

The reference itself is the corrected solve at the reference level when
a singular term is available (its own error is then orders of magnitude
below the rows being measured, and reported errors are insensitive to
the reference level); without one it falls back to the plain solve.

Every linear solve, the reference's included, is accepted on the one
normwise backward-error bound of :mod:`fracbvp.solver`; reports record
that bound as ``backward_error_bound``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .catalog import ProblemSpec, TimeDependentProblem, catalog, with_overrides
from .correction import correct
from .grids import Grid, GridFunction
from .report import ConvergenceReport, emit_pointwise_error, emit_report
from .solver import BACKWARD_ERROR_BOUND, SchemeKind, solve_bvp
from .timestepper import TimeGrid, cn_wsgd_solve


class ConfigError(ValueError):
    """Invalid study configuration."""


@dataclass
class StudyConfig:
    """Inputs of one convergence study (stationary or time-dependent)."""

    example: Optional[str] = None
    problem: Optional[ProblemSpec | TimeDependentProblem] = None
    betas: Sequence[float] = (1.5,)
    scheme: SchemeKind = SchemeKind.WSGD
    corrected: bool = False
    M_list: Sequence[int] = (64, 128, 256, 512)
    ref_level: int = 15
    cache_dir: Optional[str] = None
    alpha: Optional[float] = None
    theta: Optional[float] = None
    singular_rho: Optional[float] = None
    tau: Optional[float] = None
    steps: Optional[int] = None

    def __post_init__(self):
        if self.example is None and self.problem is None:
            raise ConfigError("either an example name or an inline problem is required")
        Ms = list(self.M_list)
        if not Ms or any(m2 <= m1 for m1, m2 in zip(Ms, Ms[1:])):
            raise ConfigError(f"grid list must be strictly increasing, got {Ms}")
        if any(m < 4 for m in Ms):
            raise ConfigError("grids need at least 4 intervals")
        if self.corrected and any(m % 2 for m in Ms):
            raise ConfigError("corrected studies need even interval counts")
        if not self.betas:
            raise ConfigError("at least one order is required")


# -- reference solutions -------------------------------------------------

_memory_cache: dict[str, np.ndarray] = {}


def _powersum_fingerprint(ps) -> str:
    if ps is None:
        return "none"
    if hasattr(ps, "terms"):
        terms = ";".join(f"{t.coef!r}*{t.left!r}*{t.right!r}" for t in ps.terms)
        return f"[{ps.a!r},{ps.b!r}]{terms}"
    return f"callable:{getattr(ps, '__name__', repr(ps))}"


def _reference_key(problem: ProblemSpec, scheme: SchemeKind, level: int) -> str:
    p = problem.params
    sing = problem.singular
    # "True" stands where a corrected-reference flag once did, so that the
    # keys of caches written before its removal stay valid
    parts = [
        problem.name, repr(p.alpha), repr(p.beta), repr(p.theta),
        repr(problem.domain), scheme.value, str(level), "True",
        _powersum_fingerprint(problem.rhs),
        _powersum_fingerprint(sing.us if sing else None),
        _powersum_fingerprint(sing.fs if sing else None),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def _solve_reference(problem: ProblemSpec, scheme: SchemeKind,
                     level: int) -> np.ndarray:
    """Nodal reference values on the grid 2**level (with boundaries)."""
    if problem.singular is not None:
        sol = correct(problem, problem.singular, 2 ** (level - 1), scheme)
        return sol.corrected_fine.values
    return solve_bvp(problem, 2 ** level, scheme).values


def reference_solution(problem: ProblemSpec, scheme: SchemeKind, level: int,
                       cache_dir: Optional[str] = None) -> GridFunction:
    """Reference solution on the grid ``2**level``, cached by content.

    Results are cached in-process and optionally on disk (``cache_dir``)
    keyed by a hash of everything that affects the values: problem data,
    scheme and level.
    """
    key = _reference_key(problem, scheme, level)
    a, b = problem.domain
    grid = Grid(a, b, 2 ** level)
    if key in _memory_cache:
        return GridFunction(grid, _memory_cache[key].copy())
    disk = Path(cache_dir) / f"ref-{key}.npz" if cache_dir else None
    if disk is not None and disk.exists():
        values = np.load(disk)["values"]
        _memory_cache[key] = values.copy()
        return GridFunction(grid, values)
    values = _solve_reference(problem, scheme, level)
    _memory_cache[key] = values.copy()
    if disk is not None:
        disk.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(disk, values=values)
    return GridFunction(grid, values)


# -- study execution -----------------------------------------------------


def _resolve_problem(config: StudyConfig, beta: float):
    if config.problem is not None:
        return config.problem
    spec = catalog(config.example, beta)
    if isinstance(spec, ProblemSpec) and (config.alpha is not None
                                          or config.theta is not None
                                          or config.singular_rho is not None):
        spec = with_overrides(spec, alpha=config.alpha, theta=config.theta,
                              rho=config.singular_rho)
    return spec


def _restrict_errors(field: GridFunction, exact, reference: GridFunction | None):
    """Error grid function of ``field`` against exact or nested reference."""
    if exact is not None:
        target = np.asarray(exact(field.grid.nodes()), dtype=float)
    else:
        stride, rem = divmod(reference.grid.M, field.grid.M)
        if rem:
            raise ConfigError(
                f"grid {field.grid.M} does not nest in the reference grid "
                f"{reference.grid.M}")
        target = reference.values[::stride]
    return GridFunction(field.grid, field.values - target)


def run_study(config: StudyConfig) -> list[ConvergenceReport]:
    """Run the configured study; one report per order in ``config.betas``."""
    reports = []
    for beta in config.betas:
        problem = _resolve_problem(config, beta)
        if isinstance(problem, TimeDependentProblem):
            raise ConfigError(
                "time-dependent problems run through run_time_study")
        if config.corrected and problem.singular is None:
            raise ConfigError(
                f"problem {problem.name!r} has no singular term to correct")
        reference = None
        if problem.exact is None:
            max_exp = math.ceil(math.log2(max(config.M_list)))
            if config.ref_level < max_exp + 2:
                raise ConfigError(
                    f"reference level {config.ref_level} must exceed the largest "
                    f"grid exponent {max_exp} by at least 2")
            reference = reference_solution(
                problem, config.scheme, config.ref_level, cache_dir=config.cache_dir)
        rows = []
        guards = 0
        for M in config.M_list:
            t0 = time.perf_counter()
            if config.corrected:
                sol = correct(problem, problem.singular, M, config.scheme)
                seconds = time.perf_counter() - t0
                guards += sol.guard_activations
                err = _restrict_errors(sol.corrected_fine, problem.exact, reference)
            else:
                u = solve_bvp(problem, M, config.scheme)
                seconds = time.perf_counter() - t0
                err = _restrict_errors(u, problem.exact, reference)
            rows.append((M, err.max_norm(), err.l2_norm(), seconds))
        p = problem.params
        meta = {
            "problem": problem.name,
            "beta": p.beta,
            "theta": p.theta,
            "alpha": p.alpha,
            "scheme": config.scheme.value,
            "corrected": config.corrected,
            "error_grid": "2M" if config.corrected else "M",
            "reference": "exact" if problem.exact is not None
                         else f"level-{config.ref_level}",
            "backward_error_bound": BACKWARD_ERROR_BOUND,
            "guard_activations": guards,
        }
        reports.append(ConvergenceReport.from_rows(rows, meta))
    return reports


def run_time_study(config: StudyConfig) -> list[ConvergenceReport]:
    """Final-time errors and spatial rates of the Crank-Nicolson march
    (one report per order).

    Needs the problem's exact solution.  The time step must be small
    enough that the spatial error dominates (the tables use tau = 1e-3).
    """
    reports = []
    for beta in config.betas:
        problem = _resolve_problem(config, beta)
        if not isinstance(problem, TimeDependentProblem):
            raise ConfigError("timestudy needs a time-dependent problem")
        if problem.exact is None:
            raise ConfigError(
                f"problem {problem.name!r} has no exact solution to measure against")
        T = problem.final_time
        if config.steps is not None:
            N = config.steps
        else:
            tau = config.tau if config.tau is not None else 1e-3
            N = max(1, round(T / tau))
        tg = TimeGrid(T=T, N=N)
        rows = []
        guards = 0
        for M in config.M_list:
            diag: dict = {}
            t0 = time.perf_counter()
            u = cn_wsgd_solve(problem, M, tg, corrected=config.corrected,
                              diagnostics=diag)
            seconds = time.perf_counter() - t0
            guards += diag.get("guard_activations", 0)
            err = _restrict_errors(u, lambda x: problem.exact(x, T), None)
            rows.append((M, err.max_norm(), err.l2_norm(), seconds))
        meta = {
            "problem": problem.name,
            "beta": problem.params.beta,
            "theta": problem.params.theta,
            "scheme": "cn-wsgd",
            "corrected": config.corrected,
            "tau": tg.tau,
            "steps": tg.N,
            "final_time": T,
            "backward_error_bound": BACKWARD_ERROR_BOUND,
            "guard_activations": guards,
        }
        reports.append(ConvergenceReport.from_rows(rows, meta))
    return reports


def emit_reports(reports: Sequence[ConvergenceReport], fmt: str,
                 out: str) -> list[Path]:
    """Write reports; multiple reports get a -beta<value> path suffix."""
    paths = []
    base = Path(out)
    for rep in reports:
        if len(reports) == 1:
            path = base
        else:
            beta = rep.metadata.get("beta")
            path = base.with_name(f"{base.stem}-beta{beta}{base.suffix}")
        paths.append(emit_report(rep, fmt, path))
    return paths


__all__ = [
    "ConfigError",
    "StudyConfig",
    "reference_solution",
    "run_study",
    "run_time_study",
    "emit_reports",
    "emit_report",
    "emit_pointwise_error",
]
