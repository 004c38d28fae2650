"""Costs of the Toeplitz solve paths, and end-to-end benchmark medians.

Run from the repository root::

    python3 scripts/solver_costs.py --out BENCH.json [--quick]
        [--baseline DIR --pairs 10 --seconds 40]

Layer costs, on one BLAS thread: for every interval count M in
2**4 ... 2**12 (2**4 ... 2**7 with ``--quick``) and beta in {1.1, 1.5, 1.8},
the set-up seconds, the seconds per checked solve and the GMRES iterations
of each path of :func:`fracbvp.solver.make_solver` -- GMRES, which serves
the stationary solves, and the two forms of ``A^-1`` that a march holds,
the explicit inverse and the Gohberg-Semencul product -- on both systems,
whichever role uses each: the stationary WSGD system (alpha = 1,
theta = 1) and the half Crank-Nicolson matrix ``A/2 = I/2 - (tau/4) D``
that the ``ex3`` march holds (tau = 1e-3).  A direct path also records
the seconds of the unchecked product ``apply_inverse`` that a march pays
per grid and step.  The explicit inverse holds two dense M x M arrays, so
it is timed up to M = 1024 only.  GMRES is also timed at M = 2**13 ...
2**16 (not with ``--quick``), the sizes of the level-14 and level-15
reference solves and one beyond; with ``--baseline DIR`` its solve at
those sizes is also timed on DIR, alternating with this checkout over
``ROUNDS`` rounds, and so is the set-up of both direct paths on the
Crank-Nicolson matrix at M = 2**4 ... ``EXPLICIT_LIMIT``, where a march
holds the explicit inverse.

Then whole ``ex3`` marches (beta = 1.5, 1000 steps), each a time study
of one grid (:func:`fracbvp.study.run_time_study`, tau = 1e-3), which
also measures the final-time error: uncorrected at M = 2**4 ...
2**11, corrected up to 2**9 (up to 2**7 and 2**6 with ``--quick``).  A
round times every march ``MARCH_REPEATS`` times in a fresh interpreter
and keeps the least wall and CPU seconds of each; with ``--baseline DIR``
the script runs ``ROUNDS`` rounds on this checkout and on DIR,
alternating which runs first, and records the median and quartiles over
the rounds.  Other processes on the machine lengthen the wall time; the
CPU time leaves out the time they hold the processor.

With ``--baseline DIR`` (another checkout of this repository, say the
parent commit) it also runs ``perfbench/run.py`` on both checkouts for
each workload, ``--pairs`` times, alternating which runs first, and
records the median and quartiles of every end-to-end metric of
``BENCHMARK.json``.

Every cell and metric timed on both checkouts gets a ``compare`` entry:
the pairs (rounds) the change won, their number, and ``resolved``, true
when the change won at least 9 in 10 pairs and its median is better than
the baseline's by more than the baseline's interquartile range.  A
difference that is not resolved is not told apart from noise.

Exits 1 when a path of :data:`fracbvp.solver.PATHS` has no entry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from fracbvp.grids import Grid  # noqa: E402
from fracbvp.solver import (EXPLICIT_LIMIT, PATHS, FracParams,  # noqa: E402
                            SchemeKind, ToeplitzSolver, scheme_toeplitz)

BETAS = (1.1, 1.5, 1.8)
TAU = 1e-3
EXPLICIT_TIMED_UP_TO = 1024
KRYLOV_SIZES = [2 ** k for k in range(13, 17)]
#: System -> (alpha, frac_scale) of its WSGD matrix at theta = 1.
SYSTEMS = {"stationary": (1.0, 1.0), "crank-nicolson": (0.5, 0.25 * TAU)}
WORKLOADS = ("dense", "reference")
#: Runs of each march per process and round: with the least of 3, an
#: unchanged march won as few as 2 of 10 rounds against itself.
MARCH_REPEATS = 15
KRYLOV_REPEATS = 7
SETUP_SIZES = [2 ** k for k in range(4, EXPLICIT_LIMIT.bit_length())]
SETUP_REPEATS = 10
ROUNDS = 10

# Times the marches given as JSON [[M, corrected], ...] with fracbvp from
# the src/ directory given first, each through the time study that every
# checkout has; prints {"M/corrected": [wall seconds, CPU seconds, raised]}.
MARCH_CODE = """
import json, sys, time, warnings
sys.path.insert(0, sys.argv[1])
from fracbvp.catalog import catalog
from fracbvp.study import StudyConfig, run_time_study
warnings.simplefilter("ignore")  # the diverging corrected march overflows
problem = catalog("ex3", 1.5)
result = {}
for M, corrected in json.loads(sys.argv[2]):
    config = StudyConfig(problem, M_list=[M], tau=1e-3, corrected=corrected)
    wall = cpu = float("inf")
    raised = None
    for _ in range(int(sys.argv[3])):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            run_time_study(config)
        except Exception as exc:
            raised = type(exc).__name__
        wall = min(wall, time.perf_counter() - t0)
        cpu = min(cpu, time.process_time() - c0)
    result[f"{M}/{corrected}"] = [wall, cpu, raised]
print(json.dumps(result))
"""
# Times GMRES solves, make_solver's stationary path, of the stationary
# system given as JSON [[M, beta], ...] with fracbvp from the src/ directory
# given first; prints
# {"M/beta": [least seconds per solve, GMRES iterations]}.
KRYLOV_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from fracbvp.grids import Grid
from fracbvp.solver import FracParams, SchemeKind, make_solver
result = {}
for M, beta in json.loads(sys.argv[2]):
    b = np.random.default_rng(M).standard_normal(M - 1)
    solver = make_solver(FracParams(1.0, beta, 1.0), Grid(M), SchemeKind.WSGD)
    best = float("inf")
    for _ in range(int(sys.argv[3])):
        t0 = time.perf_counter()
        solver.solve(b)
        best = min(best, time.perf_counter() - t0)
    result[f"{M}/{beta}"] = [best, solver.last_iterations]
print(json.dumps(result))
"""
# Times the set-up of a direct path on the half Crank-Nicolson matrix given as
# JSON [[M, beta, alpha, frac_scale, path], ...] with fracbvp from the src/
# directory given first; prints {"M/beta/path": least set-up seconds}.
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from fracbvp.grids import Grid
from fracbvp.solver import FracParams, SchemeKind, ToeplitzSolver, scheme_toeplitz
result = {}
for M, beta, alpha, scale, path in json.loads(sys.argv[2]):
    col, row = scheme_toeplitz(FracParams(alpha, beta, 1.0), Grid(M),
                               SchemeKind.WSGD, scale)
    best = float("inf")
    for _ in range(int(sys.argv[3])):
        t0 = time.perf_counter()
        ToeplitzSolver(col, row, path=path)
        best = min(best, time.perf_counter() - t0)
    result[f"{M}/{beta}/{path}"] = best
print(json.dumps(result))
"""
#: End-to-end metric -> "lower" or "higher", whichever is better.
METRICS = {metric["name"]: metric["better"] for metric in
           json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _best(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def path_costs(M: int, beta: float, system: str, path: str) -> dict:
    alpha, frac_scale = SYSTEMS[system]
    col, row = scheme_toeplitz(FracParams(alpha, beta, 1.0), Grid(M),
                               SchemeKind.WSGD, frac_scale)
    b = np.random.default_rng(M).standard_normal(M - 1)
    repeats = 3 if M >= 1024 else 10
    setup = _best(lambda: ToeplitzSolver(col, row, path=path), repeats)
    solver = ToeplitzSolver(col, row, path=path)
    x = solver.solve(b)
    entry = {"M": M, "beta": beta, "system": system, "path": path,
             "setup_s": setup,
             "solve_s": _best(lambda: solver.solve(b), 5 * repeats),
             "iterations": solver.last_iterations,
             "backward_error": solver.backward_error(x, b)}
    if path != "gmres":
        out = np.empty(M - 1)
        entry["apply_s"] = _best(lambda: solver.apply_inverse(b, out=out),
                                 5 * repeats)
    return entry


def _rounds(code: str, runs: list, repeats: int, baseline: Path | None) -> dict:
    """What ``code`` prints for ``runs`` in a fresh interpreter, per side
    (this checkout, and the baseline if given) and round, alternating
    which side runs first."""
    sides = {"change": ROOT} | ({"baseline": baseline} if baseline else {})
    rounds: dict = {side: [] for side in sides}
    for i in range(ROUNDS if baseline else 1):
        for side in sorted(sides, reverse=i % 2 == 1):
            out = subprocess.run([sys.executable, "-c", code, str(sides[side] / "src"),
                                  json.dumps(runs), str(repeats)],
                                 check=True, capture_output=True, text=True).stdout
            rounds[side].append(json.loads(out))
    return rounds


def krylov_solves(baseline: Path) -> list:
    """Least seconds per GMRES solve and iterations at ``KRYLOV_SIZES`` over
    the rounds, on this checkout and the baseline."""
    runs = [[M, beta] for M in KRYLOV_SIZES for beta in BETAS]
    rounds = _rounds(KRYLOV_CODE, runs, KRYLOV_REPEATS, baseline)
    entries = []
    for M, beta in runs:
        key = f"{M}/{beta}"
        entry = {"M": M, "beta": beta, "system": "stationary"}
        times = {side: [r[key][0] for r in results]
                 for side, results in rounds.items()}
        for side, results in rounds.items():
            entry[side] = {"solve_s": _summary(times[side]),
                           "iterations": results[0][key][1]}
        entry["compare"] = {"solve_s": _compare(times["baseline"], times["change"])}
        entries.append(entry)
    return entries


def direct_setups(baseline: Path) -> list:
    """Least set-up seconds of both direct paths on the Crank-Nicolson
    system at ``SETUP_SIZES`` over the rounds, on this checkout and the
    baseline."""
    runs = [[M, beta, *SYSTEMS["crank-nicolson"], path] for M in SETUP_SIZES
            for beta in BETAS for path in ("explicit", "gohberg-semencul")]
    rounds = _rounds(SETUP_CODE, runs, SETUP_REPEATS, baseline)
    entries = []
    for M, beta, _, _, path in runs:
        times = {side: [r[f"{M}/{beta}/{path}"] for r in results]
                 for side, results in rounds.items()}
        entry = {"M": M, "beta": beta, "system": "crank-nicolson", "path": path}
        entry |= {side: {"setup_s": _summary(t)} for side, t in times.items()}
        entry["compare"] = {"setup_s": _compare(times["baseline"], times["change"])}
        entries.append(entry)
    return entries


def marches(runs: list, baseline: Path | None) -> list:
    """Wall and CPU seconds of each whole march over the rounds, on this
    checkout and the baseline."""
    rounds = _rounds(MARCH_CODE, runs, MARCH_REPEATS, baseline)
    entries = []
    for M, corrected in runs:
        key = f"{M}/{corrected}"
        entry = {"M": M, "beta": 1.5, "steps": 1000, "corrected": corrected}
        times = {side: {name: [r[key][j] for r in results]
                        for j, name in enumerate(("wall_s", "cpu_s"))}
                 for side, results in rounds.items()}
        for side, results in rounds.items():
            entry[side] = {"raises": results[0][key][2]} | {
                name: _summary(t) if len(t) > 1 else t[0]
                for name, t in times[side].items()}
        if baseline:
            entry["compare"] = {name: _compare(times["baseline"][name], t)
                                for name, t in times["change"].items()}
        entries.append(entry)
    return entries


def _perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True,
                         text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {name: result["metrics"][name]["value"] for name in METRICS} | {
        "correct": result["correct"]}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _compare(baseline: list[float], change: list[float],
             better: str = "lower") -> dict:
    """Pairs the change wins over the baseline, and whether its difference
    is resolved: won in at least 9 of 10 pairs, with the change's median
    better than the baseline's by more than the baseline's IQR."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * c < sign * b for b, c in zip(baseline, change))
    q1, median, q3 = statistics.quantiles(baseline, n=4, method="inclusive")
    gain = sign * (median - statistics.median(change))
    return {"wins": wins, "pairs": len(baseline),
            "resolved": wins >= 0.9 * len(baseline) and gain > q3 - q1}


def end_to_end(baseline: Path, pairs: int, seconds: float) -> dict:
    sides = {"baseline": baseline, "change": ROOT}
    result = {}
    for workload in WORKLOADS:
        runs = {side: [] for side in sides}
        for i in range(pairs):
            order = ("baseline", "change") if i % 2 == 0 else ("change", "baseline")
            for side in order:
                runs[side].append(_perfbench(sides[side], workload, i, seconds))
        values = {side: {name: [r[name] for r in rs] for name in METRICS}
                  for side, rs in runs.items()}
        result[workload] = {
            side: {name: _summary(v) for name, v in values[side].items()}
            | {"correct": all(r["correct"] for r in runs[side])}
            for side in sides}
        result[workload]["compare"] = {
            name: _compare(values["baseline"][name], values["change"][name], better)
            for name, better in METRICS.items()}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--quick", action="store_true",
                    help="interval counts 2**4 ... 2**7 only")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="checkout to compare end to end against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40.0)
    args = ap.parse_args(argv)
    # refused before any measurement: quartiles need two pairs, and the
    # baseline must hold a program and a benchmark to run
    if args.baseline is not None:
        if args.pairs < 2:
            ap.error(f"--baseline needs --pairs of at least 2, got {args.pairs}")
        for part in ("src/fracbvp/__init__.py", "perfbench/run.py"):
            if not (args.baseline / part).is_file():
                ap.error(f"--baseline {args.baseline} has no {part}")

    sizes = [2 ** k for k in range(4, 8 if args.quick else 13)]
    solves = [path_costs(M, beta, system, path)
              for M in sizes for beta in BETAS for system in SYSTEMS
              for path in PATHS
              if path != "explicit" or M <= EXPLICIT_TIMED_UP_TO]
    if not args.quick:
        solves += [path_costs(M, beta, system, "gmres") for M in KRYLOV_SIZES
                   for beta in BETAS for system in SYSTEMS]
    march_runs = ([[M, False] for M in sizes if M <= 2048]
                  + [[M, True] for M in sizes if M <= (64 if args.quick else 512)])
    baseline = args.baseline.resolve() if args.baseline is not None else None
    doc = {
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__,
                        "nproc": len(os.sched_getaffinity(0)),
                        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "solve": solves,
        "march": marches(march_runs, baseline),
    }
    if baseline is not None:
        doc["krylov"] = krylov_solves(baseline)
        doc["setup"] = direct_setups(baseline)
        doc["end_to_end"] = end_to_end(baseline, args.pairs, args.seconds)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    missing = sorted(set(PATHS) - {entry["path"] for entry in solves})
    if missing:
        print(f"no entry for the paths {missing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
