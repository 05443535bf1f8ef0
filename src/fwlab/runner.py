"""Experiment execution: run a spec, evaluate its checks, write artifacts.

Artifact layout per experiment, inside the output directory:
- <name>.trace.csv    iteration trace (solving specs only)
- <name>.bounds.csv   theoretical envelopes, one k/bound block per bound
                      check (only when a bound check is present)
- <name>.summary.json run configuration, fingerprint, termination, and one
                      entry per check with measured/required values
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import RateBound
from .checks import CheckContext, CheckResult, evaluate_check
from .config import (
    ExperimentSpec,
    build_problem,
    build_rule,
    build_stop,
    resolve_x0,
    spec_fingerprint,
    validate_spec,
)
from .solver import (
    RENDER_CHUNK,
    SolveTrace,
    chunks,
    solve,
    trace_summary,
    write_trace_csv,
)

# bench/tracer.py patches this name beside `solve`; it goes once the tracer
# traces the solve loop through one stable seam
solve_gpa = solve


@dataclass(frozen=True)
class ExperimentReport:
    """Outcome of one experiment: artifacts on disk plus check verdicts."""

    name: str
    passed: bool
    check_results: tuple[CheckResult, ...]
    trace_path: str | None
    summary_path: str


def _run_trace(spec: ExperimentSpec) -> SolveTrace:
    problem = build_problem(spec)
    # x0 passed inline: the solve holds the only reference, and drops it at
    # its first step
    trace = solve(problem, build_rule(spec), x0=resolve_x0(spec, problem.feasible_set),
                  stop=build_stop(spec), seed=spec.seed)
    del problem  # the drift check builds its own
    expected = spec_fingerprint(spec)
    if expected and trace.config_fingerprint != expected:
        raise RuntimeError(
            f"fingerprint mismatch for {spec.name!r}: config drifted between "
            "validation and execution")
    return trace


def _write_bounds_csv(path: Path,
                      bounds: list[tuple[RateBound, np.ndarray, np.ndarray]]) -> None:
    with open(path, "w") as fh:
        for bound, ks, values in bounds:
            fh.write(f"# bound kind={bound.kind}\nk,bound\n")
            for k_chunk, v_chunk in zip(chunks(ks), chunks(values)):
                pairs = tuple(chain.from_iterable(zip(k_chunk, v_chunk)))
                fh.write(("%d,%.17g\n" * (len(pairs) // 2)) % pairs)


def _indented_pieces(v, pad: str = ""):
    """json.dumps(v, indent=2, sort_keys=True) in pieces, indented by pad past
    the first line.

    A numeric array renders as its `tolist()`, row by row past one dimension. A
    flat list of plain floats and ints, or a 1-D array (as `trace_summary`
    hands out final_x), goes through the C encoder a chunk per call; a number's
    JSON text has no ", ", so splitting the compact text there gives the items.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    array = isinstance(v, np.ndarray)
    if isinstance(v, dict) and v and all(isinstance(k, str) for k in v):
        lead = "{\n" + inner
        for k in sorted(v):
            yield lead + json.dumps(k) + ": "
            yield from _indented_pieces(v[k], inner)
            lead = sep
        yield "\n" + pad + "}"
    elif array and v.ndim and len(v) or isinstance(v, (list, tuple)) and v:
        lead = "[\n" + inner
        if (v.ndim == 1) if array else set(map(type, v)) <= {float, int}:
            for chunk in chunks(v):
                yield lead + json.dumps(chunk)[1:-1].replace(", ", sep)
                lead = sep
        else:
            for u in v:
                yield lead
                yield from _indented_pieces(u, inner)
                lead = sep
        yield "\n" + pad + "]"
    elif isinstance(v, dict) and v:  # non-string keys, which the stdlib sorts
        yield json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    else:  # a scalar or an empty container: the C encoder, which leaves no cycles
        yield json.dumps(v.tolist() if array else v)


def run_experiment(spec: ExperimentSpec, out_dir: str | Path) -> ExperimentReport:
    """Validate, execute, check, and persist one experiment."""
    checks = validate_spec(spec)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    trace = _run_trace(spec) if spec.is_solving() else None

    trace_path: Path | None = None
    if trace is not None:
        trace_path = out / f"{spec.name}.trace.csv"
        write_trace_csv(trace, trace_path)

    # the checks' problem is built once the solve's is gone, and it goes,
    # with the curves the checks kept, before the summary's fingerprint
    # builds one more
    problem = build_problem(spec) if spec.problem is not None else None
    ctx = CheckContext(problem=problem, trace=trace)
    results = tuple(evaluate_check(check, ctx) for check in checks)

    bounds_path: Path | None = None
    if ctx.bounds:
        bounds_path = out / f"{spec.name}.bounds.csv"
        _write_bounds_csv(bounds_path, ctx.bounds)
    del problem, ctx

    passed = all(r.passed for r in results)
    summary = {
        "name": spec.name,
        "seed": spec.seed,
        "fingerprint": spec_fingerprint(spec),
        "spec": spec.as_dict(),
        "passed": passed,
        "checks": [r.as_dict() for r in results],
    }
    if trace is not None:
        summary["trace"] = trace_summary(trace)
        summary["trace_csv"] = trace_path.name
    if bounds_path is not None:
        summary["bounds_csv"] = bounds_path.name
    summary_path = out / f"{spec.name}.summary.json"
    with open(summary_path, "w") as fh:
        fh.writelines(_indented_pieces(summary))
        fh.write("\n")

    return ExperimentReport(
        name=spec.name,
        passed=passed,
        check_results=results,
        trace_path=str(trace_path) if trace_path is not None else None,
        summary_path=str(summary_path),
    )


def reproduce(case: str, out_dir: str | Path) -> list[ExperimentReport]:
    """Run one canned case (or every case for ``case == "all"``)."""
    from .cases import CASES, case_specs

    names = list(CASES) if case == "all" else [case]
    reports: list[ExperimentReport] = []
    for name in names:
        for spec in case_specs(name):
            reports.append(run_experiment(spec, out_dir))
    return reports


def compare(specs: list[ExperimentSpec], out_dir: str | Path) -> Path:
    """Run several solving specs on one shared problem, merge traces wide.

    Output columns: k, then obj_<name> and gap_<name> per spec. Shorter
    traces leave their cells empty past termination. A single spec is
    degenerate but allowed.
    """
    if not specs:
        raise ValueError("compare needs at least one spec")
    for spec in specs:
        validate_spec(spec)
        if not spec.is_solving():
            raise ValueError(f"spec {spec.name!r} has no rule; compare needs "
                             "solving specs")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("compare specs must have distinct names")

    # the same set, objective and composite part (absent or null: none), or the
    # comparison is meaningless; by value, so [0, 1] and array([0.0, 1.0]) match
    first = build_problem(specs[0]).descriptor()
    for spec in specs[1:]:
        if not _same(build_problem(spec).descriptor(), first):
            raise ValueError(
                f"spec {spec.name!r} runs a different problem than "
                f"{specs[0].name!r}; compare requires a shared set, objective "
                "and composite part")

    traces = [_run_trace(spec) for spec in specs]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "compare.csv"

    with open(path, "w") as fh:
        fh.writelines(_compare_csv_pieces(names, traces))
    return path


def _same(a, b) -> bool:
    """a == b, with a descriptor's arrays equal when their shapes and values are."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _compare_csv_pieces(names: list[str], traces: list[SolveTrace]):
    """The wide CSV of `compare`, in pieces of about RENDER_CHUNK cells, one
    format call each. The traces that still have a row k change only where
    one ends, so the rows between two such ends share one row format."""
    yield ",".join(["k"] + [f"{col}_{name}" for name in names for col in ("obj", "gap")]) + "\n"
    lengths = [len(t.rows) for t in traces]
    step = max(1, RENDER_CHUNK // (1 + 2 * len(traces)))
    edges = sorted(set(range(0, max(lengths), step)).union(lengths))
    for start, end in zip(edges, edges[1:]):
        live = [length > start for length in lengths]
        cols = [np.arange(start, end, dtype=float)]
        cols += [t.rows[start:end, :2] for t, on in zip(traces, live) if on]
        row = "%d" + "".join(",%.17g,%.17g" if on else ",," for on in live) + "\n"
        yield (row * (end - start)) % tuple(np.column_stack(cols).ravel().tolist())
