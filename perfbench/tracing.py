"""In-memory spans around the calls into fracbvp's layers.

The tracer patches public functions and methods where they are looked up
(modules bind names at import, so every ``fracbvp`` module that holds the
function gets the wrapper).  Each wrapped call records a span: id, parent
id, name, start, end and self time (duration minus the time its child
spans cover).  Counters ride on the same boundaries.  The patches live
only while a traced pass runs; the package's source is not changed.
"""

from __future__ import annotations

import functools
import itertools
import sys
import weakref
from collections import Counter, defaultdict
from dataclasses import replace
from time import perf_counter

import numpy as np

import fracbvp.analytic
import fracbvp.operators
import fracbvp.solver
import fracbvp.study
import fracbvp.timestepper
import fracbvp.weights


class _Frame:
    __slots__ = ("id", "parent", "start", "child")

    def __init__(self, span_id, parent, start):
        self.id = span_id
        self.parent = parent
        self.start = start
        self.child = 0.0


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self_s)
        self.counts: Counter = Counter()
        self.backward_error_max = 0.0
        self.backward_error_s = 0.0  # tracer work of the last drained pass
        self._stack: list[_Frame] = []
        self._ids = itertools.count()
        self._reference_depth = 0
        self._patches: list[tuple] = []
        self._norms = weakref.WeakKeyDictionary()
        self._matvec = fracbvp.operators.toeplitz_matvec

    # -- spans -----------------------------------------------------------

    def _enter(self) -> _Frame:
        parent = self._stack[-1].id if self._stack else None
        frame = _Frame(next(self._ids), parent, perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, name: str) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame.start
        if self._stack:
            self._stack[-1].child += duration
        self.spans.append((frame.id, frame.parent, name, frame.start, end,
                           duration - frame.child))

    def _wrap(self, name, fn):
        """Wrapper of ``fn`` recording a span ``name`` per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, name)
        return traced

    def drain(self) -> dict:
        """Per-pass aggregates; clears the spans and counters."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        for _id, _parent, name, start, end, self_s in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += self_s
        counts = self.counts
        steps = counts["timestepper.steps"]
        metrics = {
            "solver.gmres.iterations": (counts["solver.gmres.iterations"], "count"),
            "solver.krylov.failures": (counts["solver.krylov.failures"], "count"),
            "study.reference.attempts": (counts["study.reference.attempts"], "count"),
            "solver.solve_krylov.s": (total["solver.solve_krylov"], "s"),
            "solver.backward_error.max": (self.backward_error_max, "ratio"),
            "solver.setup.calls": (calls["solver.setup_dense"]
                                   + calls["solver.setup_krylov"], "count"),
            "solver.setup_dense.s": (total["solver.setup_dense"], "s"),
            "solver.setup_krylov.s": (total["solver.setup_krylov"], "s"),
            "solver.solve.calls": (calls["solver.solve_dense"]
                                   + calls["solver.solve_krylov"], "count"),
            "solver.solve_dense.s": (total["solver.solve_dense"], "s"),
            "operators.matvec.calls": (calls["operators.matvec"], "count"),
            "operators.matvec.s": (total["operators.matvec"], "s"),
            "analytic.eval.calls": (calls["analytic.eval"], "count"),
            "analytic.eval.s": (total["analytic.eval"], "s"),
            "timestepper.steps": (steps, "count"),
            "timestepper.step_us": (1e6 * total["timestepper"] / steps
                                    if steps else 0.0, "us"),
            "timestepper.self_s": (own["timestepper"], "s"),
            "correction.calls": (calls["correction"], "count"),
            "correction.self_s": (own["correction"], "s"),
            "correction.guard_activations": (counts["correction.guard_activations"],
                                             "count"),
            "weights.table_builds": (counts["weights.table_builds"], "count"),
            "weights.s": (total["weights"], "s"),
            "study.self_s": (own["study"], "s"),
            "report.emit.s": (total["report.emit"], "s"),
        }
        self.backward_error_s = total["trace.backward_error"]
        self.spans.clear()
        self.counts.clear()
        self.backward_error_max = 0.0
        return metrics

    # -- patches ---------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every fracbvp module that binds it."""
        for name, module in list(sys.modules.items()):
            if name != "fracbvp" and not name.startswith("fracbvp."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        study = fracbvp.study
        solver_cls = fracbvp.solver.ToeplitzSolver
        weight_table = fracbvp.weights.weight_table

        self._rebind(self._matvec, self._wrap("operators.matvec", self._matvec))
        self._rebind(weight_table, self._weights(weight_table))
        self._set(solver_cls, "__init__", self._setup(solver_cls.__init__))
        self._set(solver_cls, "solve", self._solve(solver_cls.solve))
        self._set(fracbvp.analytic.PowerSum, "__call__",
                  self._wrap("analytic.eval", fracbvp.analytic.PowerSum.__call__))
        self._rebind(study.reference_solution,
                     self._reference(study.reference_solution))
        self._rebind(study.correct, self._correct(study.correct))
        self._rebind(fracbvp.timestepper.cn_wsgd_solve,
                     self._wrap("timestepper", fracbvp.timestepper.cn_wsgd_solve))
        self._rebind(study.emit_report,
                     self._wrap("report.emit", study.emit_report))
        for entry in ("run_study", "run_time_study", "emit_reports"):
            original = getattr(study, entry)
            self._rebind(original, self._wrap("study", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count_steps(self, problem):
        """Copy of a time-dependent problem whose rhs counts CN grid steps
        (the stepper samples the rhs once per grid and step)."""
        rhs = problem.rhs
        counts = self.counts

        def counted(x, t):
            counts["timestepper.steps"] += 1
            return rhs(x, t)
        return replace(problem, rhs=counted)

    def _weights(self, weight_table):
        tracer = self

        @functools.wraps(weight_table)
        def traced(*args, **kwargs):
            misses = weight_table.cache_info().misses
            frame = tracer._enter()
            try:
                return weight_table(*args, **kwargs)
            finally:
                tracer._exit(frame, "weights")
                tracer.counts["weights.table_builds"] += (
                    weight_table.cache_info().misses - misses)
        traced.cache_info = weight_table.cache_info
        traced.cache_clear = weight_table.cache_clear
        return traced

    def _setup(self, init):
        tracer = self

        @functools.wraps(init)
        def traced(solver, *args, **kwargs):
            frame = tracer._enter()
            try:
                init(solver, *args, **kwargs)
            finally:
                method = getattr(solver, "method", "unknown")
                tracer._exit(frame, f"solver.setup_{method}")
        return traced

    def _solve(self, solve):
        tracer = self

        @functools.wraps(solve)
        def traced(solver, rhs):
            frame = tracer._enter()
            try:
                x = solve(solver, rhs)
            except fracbvp.solver.KrylovError as err:
                tracer.counts["solver.krylov.failures"] += 1
                tracer.counts["solver.gmres.iterations"] += err.iterations
                raise
            finally:
                tracer._exit(frame, f"solver.solve_{solver.method}")
            tracer.counts["solver.gmres.iterations"] += solver.last_iterations
            tracer._backward_error(solver, x, rhs)
            return x
        return traced

    def _backward_error(self, solver, x, rhs) -> None:
        """Record ||Ax - b|| / (||A|| ||x|| + ||b||) in the infinity norm.

        Runs in a span of its own so the parent's self time excludes it.
        """
        frame = self._enter()
        try:
            norm = self._norms.get(solver)
            if norm is None:
                # row i of a Toeplitz matrix sums col[0..i] and row[1..m-1-i]
                lower = np.cumsum(np.abs(solver.col))
                upper = np.concatenate(([0.0], np.cumsum(np.abs(solver.row[1:]))))
                norm = float(np.max(lower + upper[::-1]))
                self._norms[solver] = norm
            b = np.asarray(rhs, dtype=float)
            r = self._matvec(solver.col, solver.row, x) - b
            den = norm * float(np.max(np.abs(x))) + float(np.max(np.abs(b)))
            if den > 0.0:
                be = float(np.max(np.abs(r))) / den
                if not be <= self.backward_error_max:
                    self.backward_error_max = be
        finally:
            self._exit(frame, "trace.backward_error")

    def _reference(self, reference_solution):
        tracer = self
        wrapped = self._wrap("study.reference", reference_solution)

        @functools.wraps(reference_solution)
        def traced(*args, **kwargs):
            tracer._reference_depth += 1
            try:
                return wrapped(*args, **kwargs)
            finally:
                tracer._reference_depth -= 1
        return traced

    def _correct(self, correct):
        tracer = self
        wrapped = self._wrap("correction", correct)

        @functools.wraps(correct)
        def traced(*args, **kwargs):
            if tracer._reference_depth:
                tracer.counts["study.reference.attempts"] += 1
            solution = wrapped(*args, **kwargs)
            tracer.counts["correction.guard_activations"] += solution.guard_activations
            return solution
        return traced
