"""Span tracing of fwlab's layers from outside the package.

Each public entry point is replaced where its caller looks it up, for the
duration of one traced pass, by a wrapper that records a span (name, start,
end, parent) and, for a few entry points, a count taken from the call's
arguments or result. Spans live in flat arrays so a pass of a few hundred
thousand calls stays small in memory and cheap to record.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import time
import tracemalloc
from array import array
from collections import Counter

import numpy as np

import fwlab.analysis
import fwlab.checks
import fwlab.config
import fwlab.geometry
import fwlab.runner
import fwlab.solver

SET_CLASSES = (fwlab.geometry.Simplex, fwlab.geometry.L1Ball, fwlab.geometry.L2Ball,
               fwlab.geometry.Box, fwlab.geometry.VertexPolytope)
SET_METHODS = ("lmo", "project", "contains", "extreme_points")


class Tracer:
    """Records the spans and counts of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """fn with a span named `name` around every call."""
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        code = self._codes[name]
        codes, parents, starts, ends = self.code, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(codes)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace fwlab's entry points with traced ones; restore them on exit."""
        saved: list[tuple[object, str, object]] = []

        def patch(owners, attr, replacement):
            for owner in owners:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)

        config, runner = fwlab.config, fwlab.runner
        counts = self.counts

        build_problem = fwlab.config.build_problem
        wrap_value = functools.partial(self.wrap, "objectives.value")
        wrap_grad = functools.partial(self.wrap, "objectives.grad")

        def build_problem_traced(spec):
            problem = build_problem(spec)
            obj = problem.objective
            obj = dataclasses.replace(obj, value=wrap_value(obj.value),
                                      grad=wrap_grad(obj.grad))
            return dataclasses.replace(problem, objective=obj)

        patch((config, runner), "build_problem",
              self.wrap("config.build_problem", build_problem_traced))
        for attr in ("resolve_x0", "validate_spec", "spec_fingerprint"):
            patch((config, runner), attr,
                  self.wrap(f"config.{attr}", getattr(fwlab.config, attr)))

        for cls in SET_CLASSES:
            for attr in SET_METHODS:
                patch((cls,), attr, self.wrap(f"geometry.{attr}", cls.__dict__[attr]))

        line_search = fwlab.solver.line_search

        def line_search_counted(phi, *args, **kwargs):
            def counted_phi(t):
                counts["stepsize.phi_evals"] += 1
                return phi(t)
            return line_search(counted_phi, *args, **kwargs)

        patch((fwlab.solver,), "line_search",
              self.wrap("stepsize.line_search", line_search_counted))

        def counting_rows(fn):
            def solve_counted(*args, **kwargs):
                trace = fn(*args, **kwargs)
                counts["solver.iterations"] += len(trace.iterations)
                return trace
            return solve_counted

        for attr in ("solve", "solve_gpa"):
            patch((runner,), attr,
                  self.wrap("solver.solve", counting_rows(getattr(runner, attr))))
        patch((runner,), "write_trace_csv",
              self.wrap("solver.write_trace_csv", runner.write_trace_csv))

        evaluate_check = runner.evaluate_check

        def evaluate_counted(desc, ctx):
            result = evaluate_check(desc, ctx)
            if not result.passed:
                counts["checks.failed"] += 1
            return result

        patch((runner,), "evaluate_check", self.wrap("checks.evaluate", evaluate_counted))

        patch((fwlab.analysis, fwlab.checks), "estimate_curvature",
              self.wrap("analysis.estimate_curvature", fwlab.analysis.estimate_curvature))
        patch((fwlab.analysis.RateBound,), "curve",
              self.wrap("analysis.bound_curve", fwlab.analysis.RateBound.curve))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_times(self) -> tuple[Counter, Counter, Counter]:
        """Calls, inclusive seconds and self seconds per span name.

        Self time is a span's duration minus the time its child spans cover;
        spans nest strictly on one thread, so that is the children's sum.
        """
        codes = np.frombuffer(self.code, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(float) * 1e-9
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(codes, minlength=k)
        inclusive = np.bincount(codes, weights=dur, minlength=k)
        own = np.bincount(codes, weights=dur - child, minlength=k)
        return (Counter({n: int(calls[i]) for i, n in enumerate(self.names)}),
                Counter({n: float(inclusive[i]) for i, n in enumerate(self.names)}),
                Counter({n: float(own[i]) for i, n in enumerate(self.names)}))

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV: id, parent id, name, start and end in ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            names = self.names
            for i, (c, p, s, e) in enumerate(zip(self.code, self.parent,
                                                 self.start, self.end)):
                fh.write(f"{i},{p},{names[c]},{s},{e}\n")


@contextlib.contextmanager
def solve_peaks(peaks: list[float]):
    """While tracemalloc runs, append each solve's peak traced bytes above
    the bytes in use when it started."""
    saved = [(attr, getattr(fwlab.runner, attr)) for attr in ("solve", "solve_gpa")]

    def measured(fn):
        def solve_measured(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trace = fn(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return trace
        return solve_measured

    for attr, fn in saved:
        setattr(fwlab.runner, attr, measured(fn))
    try:
        yield peaks
    finally:
        for attr, fn in saved:
            setattr(fwlab.runner, attr, fn)
