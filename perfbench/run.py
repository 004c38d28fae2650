"""Benchmark of the fracbvp convergence studies, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload {reference,dense} \\
        --seed N --seconds S --trace {0,1}

The benchmark imports ``fracbvp`` from ``src/`` of the same checkout and
runs one workload (see ``workloads.py``) through the public entry points
``run_study`` / ``run_time_study`` and ``emit_reports``: what a
``fracbvp study`` or ``fracbvp timestudy`` user pays, minus argument
parsing.  It is a closed loop with one client: passes over the workload's
operations run back to back, in an order drawn from ``--seed``, until
``--seconds`` have elapsed (at least one pass).  Every operation starts
cold, as from the command line: the in-memory reference cache and the
weight-table cache are cleared and no on-disk cache is used.

Each operation's emitted report is read back and its rows checked against
``expected.json``, recorded from the code this benchmark was written
against.  A row passes when ``|e - e0| <= RTOL*|e0| + eps * M**beta``, with
``M`` the error grid: the second term is the rounding floor
``eps*||A||`` of the scheme matrix, so a solver change may move an error by
rounding but not beyond.  An operation fails when it raises or misses the
gate.  A failure recorded in expected.json (``raises``) is the program's
known behaviour: it still counts as failed, but leaves ``correct`` true.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics: the wall and CPU seconds of one pass at the median (each
operation's median over the run's passes, summed), the process's peak
resident memory, the median of several cold-interpreter set-up times and
the share of operations that succeeded.  Every time is scaled to a fixed
reference speed of the machine, sampled beside the program (``speed.py``);
the unscaled times go on the line before the result.  With ``--trace 1`` it reports the
per-layer metrics of ``tracing.py`` (medians over traced passes) and the
tracing overhead, traced minus untraced pass time, from passes that
alternate.  The line
before it records the run environment, the per-pass samples and every
failure with its exception type.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

STARTED = time.perf_counter()

#: A traced run ends within this many seconds of its start if one traced
#: pass does (a run must end within 180 s).
TRACE_BUDGET_S = 100.0

#: Cold interpreter starts timed per run; setup_s is their median.
SETUP_REPEATS = 5

RTOL = 1e-6
EPS = 2.0 ** -52

SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import fracbvp, workloads; "
    "workloads.build(sys.argv[3])"
)

# Load comes from one process on one BLAS thread: on a few shared cores a
# multi-threaded LU times the other tenants as much as the program.  Set
# before numpy loads OpenBLAS (child set-up processes inherit it).
NPROC = len(os.sched_getaffinity(0))
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _import_program():
    """Import fracbvp from this checkout's src/, or exit without a result."""
    if not (SRC / "fracbvp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fracbvp package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import fracbvp
    if Path(fracbvp.__file__).resolve().parent != SRC / "fracbvp":
        sys.exit(f"perfbench: imported fracbvp from {fracbvp.__file__}, not {SRC}")


def setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing fracbvp and building the
    workload's problem specs, and the speed scale of each (see speed.py)."""
    from speed import Speedometer

    speed = Speedometer()
    samples, scales = [], []
    for _ in range(SETUP_REPEATS):
        speed.start(periodic=False)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
                        workload], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
        scales.append(speed.stop())
    return samples, scales


@dataclass
class Pass:
    """One pass over a workload: wall and CPU seconds, the outcome, wall and
    CPU seconds and speed scale of each operation and, for a traced pass,
    its layer metrics."""

    wall: float
    cpu: float
    outcomes: dict
    op_wall: dict
    op_cpu: dict
    op_scale: dict
    layers: dict | None = None


def median_pass(passes: list[Pass], field: str, scaled: bool = True) -> float:
    """Seconds of one pass at the median: each operation's median over the
    passes, summed (``field`` is ``op_wall`` or ``op_cpu``), at the
    reference speed unless not ``scaled``.

    A burst of load from another tenant slows the operations it overlaps,
    not a whole pass, so the per-operation median drops it.
    """
    return sum(statistics.median(getattr(p, field)[key]
                                 * (p.op_scale[key] if scaled else 1.0)
                                 for p in passes)
               for key in getattr(passes[0], field))


def run_pass(ops, rng, tracer=None) -> Pass:
    """Run every operation once, cold, in a seeded order.

    An operation's outcome is its emitted report, read back after the
    timed loop, or the exception it raised.  Its times exclude the speed
    samples taken during it; a traced pass takes none (scale 1).
    """
    import fracbvp.study as study
    from fracbvp.report import parse_report_json
    from fracbvp.weights import weight_table
    from speed import Speedometer

    order = list(ops)
    rng.shuffle(order)
    outcomes, op_wall, op_cpu, op_scale = {}, {}, {}, {}
    speed = Speedometer() if tracer is None else None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in order:
        if speed is not None:
            speed.start()
        t0, c0 = time.perf_counter(), time.process_time()
        study._memory_cache.clear()
        weight_table.cache_clear()
        config = op.config
        if tracer is not None and op.time_dependent:
            config = replace(config, problem=tracer.count_steps(config.problem))
        path = OUT / (op.key.replace("/", "_") + ".json")
        run = study.run_time_study if op.time_dependent else study.run_study
        try:
            study.emit_reports(run(config), "json", str(path))
        except Exception as exc:  # an operation's failure is a result
            outcomes[op.key] = exc
        else:
            outcomes[op.key] = path
        finally:
            op_wall[op.key] = time.perf_counter() - t0
            op_cpu[op.key] = time.process_time() - c0
            op_scale[op.key] = 1.0
            if speed is not None:
                op_scale[op.key] = speed.stop()
                op_wall[op.key] -= speed.wall
                op_cpu[op.key] -= speed.cpu
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return Pass(wall, cpu, {key: parse_report_json(outcome) if isinstance(outcome, Path)
                            else outcome for key, outcome in outcomes.items()},
                op_wall, op_cpu, op_scale)


def traced_passes(ops, rng, seconds) -> tuple[list[Pass], float]:
    """Alternate traced and untraced passes for ``seconds`` (one pair at
    least); returns the passes and the tracing overhead in seconds.

    The overhead is the traced minus the untraced pass time.  When an
    untraced pass would end the run later than ``TRACE_BUDGET_S`` after
    its start, it is skipped and the overhead is the tracer's own
    backward-error work alone, a lower bound.
    """
    from tracing import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    traced, base = [], []
    while True:
        tracer.install()
        try:
            traced.append(run_pass(ops, rng, tracer))
        finally:
            tracer.uninstall()
        traced[-1].layers = tracer.drain()
        if time.perf_counter() - STARTED + traced[-1].wall > TRACE_BUDGET_S:
            break
        base.append(run_pass(ops, rng))
        if time.perf_counter() - start >= seconds:
            break
    if not base:  # only one traced pass ran
        return traced, tracer.backward_error_s
    return traced + base, (median_pass(traced, "op_wall", scaled=False)
                           - median_pass(base, "op_wall", scaled=False))


def check(key: str, outcome, expected: dict) -> str | None:
    """None if the operation's outcome passes the gate, else the reason."""
    spec = expected[key]
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    if "raises" in spec:
        # the known failure now succeeds: the correction must do no harm
        bound = expected[spec["no_worse_than"]]["rows"]
        rows = [(r.M, r.err_max, r.err_l2) for r in outcome.rows]
        ok = len(rows) == len(bound) and all(
            M == M0 and 0.0 <= e <= e0 and 0.0 <= l2 <= l20
            for (M, e, l2), (M0, e0, l20) in zip(rows, bound))
        return None if ok else f"rows {rows} worse than uncorrected {bound}"
    rows = outcome.rows
    if [r.M for r in rows] != [M for M, _, _ in spec["rows"]]:
        return f"grids {[r.M for r in rows]} differ from {spec['rows']}"
    for r, (M, e_max, e_l2) in zip(rows, spec["rows"]):
        floor = EPS * (spec["grid_factor"] * M) ** spec["beta"]
        for got, want in ((r.err_max, e_max), (r.err_l2, e_l2)):
            if not abs(got - want) <= RTOL * abs(want) + floor:
                return f"M={M}: error {got!r} differs from {want!r}"
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "blas": _openblas(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _openblas() -> dict:
    """Runtime configuration and thread count of numpy's and scipy's
    bundled OpenBLAS, where the library can be found."""
    import ctypes
    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            suffix = "64_" if "64" in lib.name else ""
            try:
                handle = ctypes.CDLL(str(lib))
                config = getattr(handle, f"scipy_openblas_get_config{suffix}")
                threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            config.restype = ctypes.c_char_p
            found[package.__name__] = {"config": config().decode(),
                                       "threads": threads()}
    return found


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    expected = json.loads((HERE / "expected.json").read_text())["operations"]
    OUT.mkdir(exist_ok=True)

    setup, setup_scales = ([], []) if args.trace else setup_seconds(args.workload)
    ops = workloads.build(args.workload)
    rng = random.Random(args.seed)
    if args.trace:
        passes, overhead = traced_passes(ops, rng, args.seconds)
    else:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(ops, rng))

    attempted = failed = 0
    correct = True
    failures = {}
    for p in passes:
        for key, outcome in p.outcomes.items():
            attempted += 1
            reason = check(key, outcome, expected)
            if reason is None:
                continue
            failed += 1
            known = (isinstance(outcome, Exception)
                     and type(outcome).__name__ == expected[key].get("raises"))
            correct = correct and known
            entry = failures.setdefault(key, {
                "type": type(outcome).__name__ if isinstance(outcome, Exception)
                        else "GateMiss",
                "reason": reason, "known": known, "count": 0})
            entry["count"] += 1

    if args.trace:
        traced = [p for p in passes if p.layers is not None]
        layers = {}
        for name, (_, unit) in traced[0].layers.items():
            layers[name] = _metric(
                statistics.median(p.layers[name][0] for p in traced), unit)
        layers["trace.overhead_s"] = _metric(overhead, "s")
        metrics = layers
    else:
        import resource
        metrics = {
            "wall_s": _metric(median_pass(passes, "op_wall"), "s"),
            "cpu_s": _metric(median_pass(passes, "op_cpu"), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": _metric(statistics.median(
                t * k for t, k in zip(setup, setup_scales)), "s"),
            "ok_frac": _metric((attempted - failed) / attempted, "frac"),
        }

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        "unscaled_wall_s": median_pass(passes, "op_wall", scaled=False),
        "unscaled_cpu_s": median_pass(passes, "op_cpu", scaled=False),
        "setup_samples_s": setup,
        "setup_scales": setup_scales,
        "failures": failures,
        "environment": environment(),
    }))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
