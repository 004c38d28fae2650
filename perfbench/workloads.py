"""Operations of the two benchmark workloads.

An operation is one call of a public study entry point, configured the way
``fracbvp study`` or ``fracbvp timestudy`` configures it, followed by
``emit_reports``.  Each workload exists to load a different layer:

* ``reference`` -- two studies without an exact solution, so each pays a
  cold level-15 reference: Krylov (Strang-preconditioned GMRES) at
  M = 16384/32768, on the Hessenberg (theta = 1) and on the full
  (theta = 1/2) Toeplitz case.  Almost no dense LU runs.
* ``dense`` -- no Krylov and no reference; the dense solver used both
  ways.  Two exact-solution tables up to the dense path's limit (fine
  grid 4096), dominated by the LU factorization, and the Crank-Nicolson
  march of ``ex3`` (1000 steps), one operation per grid and correction
  flag: one small factorization, then thousands of solves, matvecs and
  right-hand-side evaluations.  The tables take about half of a pass and
  the march the other half, so a change that speeds up factorization but
  slows each solve shows in both halves of the trace.

Building the problem specs is part of the benchmark's set-up time.
"""

from __future__ import annotations

from dataclasses import dataclass

from fracbvp.catalog import catalog
from fracbvp.study import StudyConfig

#: Fractional order of every operation (the paper's tables lead with 1.5).
BETA = 1.5

#: CLI default time step of ``fracbvp timestudy``.
TAU = 1e-3


@dataclass(frozen=True)
class Operation:
    """One study call: ``key`` names it in results and in expected.json."""

    key: str
    time_dependent: bool
    config: StudyConfig


def _studies(examples, grids=(64, 128, 256, 512)) -> list[Operation]:
    # the default grids are those of ``fracbvp study``
    return [Operation(f"{example}/corrected", False,
                      StudyConfig(problem=catalog(example, BETA),
                                  corrected=True, M_list=grids))
            for example in examples]


def _march() -> list[Operation]:
    problem = catalog("ex3", BETA)
    runs = [(M, False) for M in (16, 32, 64, 128, 256, 512)]
    runs += [(M, True) for M in (16, 32, 64, 128)]
    return [Operation(f"ex3/M{M}" + ("/corrected" if corrected else ""), True,
                      StudyConfig(problem=problem, corrected=corrected,
                                  M_list=[M], tau=TAU))
            for M, corrected in runs]


WORKLOADS = {
    "reference": lambda: _studies(["ex1-case2", "ex2-case2"]),
    "dense": lambda: _studies(["ex1-case1", "ex2-case1"],
                              grids=[128, 256, 512, 1024, 2048]) + _march(),
}


def build(workload: str) -> list[Operation]:
    """Problem specs and study configs of one workload, in a fixed order."""
    return WORKLOADS[workload]()
