"""Experiment runner: artifacts, summaries, reproduction, and comparison."""
import functools
import gc
import hashlib
import json
import math
import sys
import tracemalloc
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import canon_text, json_floats, json_values
from references import compare_csv_per_cell, window_check_by_mask
from hypothesis import given, settings
from hypothesis import strategies as st

import fwlab.runner
from fwlab import Box, Problem, checks, config_fingerprint, make_quadratic, stepsize
from fwlab.analysis import fit_rate
from fwlab.cases import CASE_NAMES, case_specs
from fwlab.config import build_problem, parse_spec
from fwlab.runner import (
    _compare_csv_pieces,
    _indented_pieces,
    _run_trace,
    _write_bounds_csv,
    compare,
    reproduce,
    run_experiment,
)
from fwlab.solver import (
    RENDER_CHUNK,
    SolveTrace,
    _canonical_pieces,
    trace_to_csv,
    write_trace_csv,
)


def _raw(name="exp", **over):
    raw = {
        "name": name,
        "seed": 3,
        "problem": {
            "set": {"kind": "simplex", "dim": 4},
            "objective": {"kind": "quadratic", "b": [0.0, 0.0, 0.0, 0.0]},
        },
        "rule": {"kind": "harmonic", "c": 2.0},
        "x0": "vertex(0)",
        "stop": {"max_iter": 40},
        "checks": [{"kind": "monotonicity", "tol": 1e-12}],
    }
    raw.update(over)
    return raw


def test_run_experiment_writes_trace_and_summary(tmp_path):
    report = run_experiment(parse_spec(_raw()), tmp_path)
    assert report.passed
    assert (tmp_path / "exp.trace.csv").exists()
    assert (tmp_path / "exp.summary.json").exists()
    # no bound check, so no bounds artifact
    assert not (tmp_path / "exp.bounds.csv").exists()
    assert report.trace_path.endswith("exp.trace.csv")


def test_summary_records_config_verdicts_and_termination(tmp_path):
    run_experiment(parse_spec(_raw()), tmp_path)
    summary = json.loads((tmp_path / "exp.summary.json").read_text())
    assert summary["name"] == "exp"
    assert summary["seed"] == 3
    assert len(summary["fingerprint"]) == 64
    assert summary["passed"] is True
    assert summary["spec"]["stop"] == {"max_iter": 40}
    assert summary["trace_csv"] == "exp.trace.csv"
    assert summary["trace"]["termination"]["reason"] == "max_iter"
    assert summary["trace"]["n_iterations"] == 41  # rows k=0..max_iter
    (check,) = summary["checks"]
    assert check["kind"] == "monotonicity"
    assert check["passed"] is True
    assert "measured" in check and "required" in check


def test_bounds_csv_written_when_a_bound_check_runs(tmp_path):
    raw = _raw(checks=[{
        "kind": "bound-domination", "opt": 0.125,
        "bound": {"kind": "harmonic_classic", "C_f": 2.0},
        "k_min": 1,
    }])
    run_experiment(parse_spec(raw), tmp_path)
    text = (tmp_path / "exp.bounds.csv").read_text()
    assert text.startswith("# bound kind=harmonic_classic\nk,bound\n")
    assert json.loads((tmp_path / "exp.summary.json").read_text())["bounds_csv"] \
        == "exp.bounds.csv"


def test_failing_check_does_not_abort_the_report(tmp_path):
    raw = _raw(checks=[
        {"kind": "optimum-proximity", "opt": 0.0, "tol": 1e-30},  # unattainable
        {"kind": "monotonicity", "tol": 1e-12},
    ])
    report = run_experiment(parse_spec(raw), tmp_path)
    assert not report.passed
    assert [r.passed for r in report.check_results] == [False, True]
    summary = json.loads((tmp_path / "exp.summary.json").read_text())
    assert summary["passed"] is False
    assert len(summary["checks"]) == 2
    # the trace still got written despite the failing check
    assert (tmp_path / "exp.trace.csv").exists()


def test_errored_check_keeps_the_exception_type_and_frame(monkeypatch):
    def broken(check, ctx):
        line = sys._getframe().f_lineno + 1
        raise KeyError(line)

    monkeypatch.setattr(checks.Monotonicity, "evaluate", broken)
    check = checks.parse_check({"kind": "monotonicity"})
    result = checks.evaluate_check(check, checks.CheckContext(None, None))
    assert not result.passed
    assert result.measured.startswith("check errored: ")
    line = int(result.measured.removeprefix("check errored: "))
    assert result.detail == f"KeyError at test_runner.py:{line}"


# --- every check kind can fail ----------------------------------------------------

@functools.cache
def _canned(name):
    """(spec, problem, trace) of the canned spec of that name."""
    spec = next(s for case in CASE_NAMES for s in case_specs(case) if s.name == name)
    problem = build_problem(spec) if spec.problem is not None else None
    return spec, problem, _run_trace(spec) if spec.is_solving() else None


def _verdict(desc, problem, trace):
    check = checks.parse_check(desc)
    return checks.evaluate_check(check, checks.CheckContext(problem, trace))


def _opt(desc, problem):
    return checks.parse_check(desc).optimum(problem)


def _with_obj(trace, k, value):
    """The trace with the objective of row k set to value."""
    rows = trace.rows.copy()
    rows[k, 0] = value
    return SolveTrace(rows, trace.reason, trace.final_x)


def _bound_below_peak(d, p, t, _):
    # C_f at 0.9 of the least constant the rows from k_min satisfy
    ks = np.arange(d["k_min"], len(t.rows))  # row k is iterate k
    bound = checks.parse_check(d).bound
    peak = float(np.max((t.objs[ks] - _opt(d, p)) / bound.curve(ks)))
    return {**d, "bound": {**d["bound"], "C_f": 0.9 * peak * d["bound"]["C_f"]}}, p, t


def _floor_above_slack(d, p, t, _):
    # opt raised by twice the least slack, so the worst row falls below the floor
    ks = np.arange(d["k_min"], d["k_max"] + 1)  # row k is iterate k
    slack = t.objs[ks] - _opt(d, p) - (d["coeff"] / (ks + d["offset"]) - d["tol"])
    return {**d, "opt": _opt(d, p) + 2.0 * float(slack.min())}, p, t


class _L1BlindBox(Box):
    """A box whose composite oracle drops the l1 term: a wrong oracle."""

    def lmo_l1(self, c, lam):
        return self.lmo(c)


def _l1_blind_oracle(d, p, t, _):
    box = p.feasible_set
    return d, Problem(_L1BlindBox(box.dim, box.lower, box.upper), p.objective, p.composite), t


def _schedule_one_ulp_high(d, p, t, monkeypatch):
    # the check's input is the schedule itself: every gamma_k one ulp up
    exact = stepsize.DHRecursion.gamma
    monkeypatch.setattr(stepsize.DHRecursion, "gamma",
                        lambda rule, k: np.nextafter(exact(rule, k), 2))
    return d, p, t


# kind: (a canned spec whose check of that kind passes, a mutation of the
# check's (descriptor, problem, trace) after which it fails). Each mutation
# changes the input, never the check's code: the trace rows, the problem, opt
# or one field, or, for schedule-bounds, which reads none of them, the schedule.
_FLIPS = {
    "monotonicity": ("holder_rate_sweep_line_s125",
                     lambda d, p, t, _: (d, p, _with_obj(t, 5, t.objs[4] + 2 * d["tol"]))),
    "bound-domination": ("harmonic_upper_bound", _bound_below_peak),
    "lower-bound": ("polyak_lower_bound", _floor_above_slack),
    "finite-termination": ("sharp_finite_termination",  # the final row dropped
                           lambda d, p, t, _: (d, p, SolveTrace(t.rows[:-1], t.reason, t.final_x))),
    "non-convergence-margin": ("nesterov_failure",  # one row in range at the optimum
                               lambda d, p, t, _: (d, p, _with_obj(t, d["k_max"], _opt(d, p)))),
    "rate-slope": ("holder_rate_sweep_line_s125",  # max_slope just below the fitted slope
                   lambda d, p, t, _: ({**d, "max_slope": fit_rate(
                       t, _opt(d, p), d["tail_fraction"])["slope"] - 0.01}, p, t)),
    "optimum-proximity": ("gpa_parity_gpa",
                          lambda d, p, t, _: ({**d, "opt": _opt(d, p) + 3 * d["tol"]}, p, t)),
    "curvature-exact": ("t_alpha_curvature",  # t^1.5 on [0, 2], not [0, 1]
                        lambda d, p, t, _: (d, Problem(Box(1, [0.0], [2.0]), p.objective), t)),
    "curvature-divergence": ("t_alpha_curvature",  # a quadratic has bounded curvature
                             lambda d, p, t, _: (d, Problem(p.feasible_set,
                                                            make_quadratic([0.0])), t)),
    "oracle-grid-match": ("composite_lasso_box_line", _l1_blind_oracle),
    "schedule-bounds": ("dh_schedule_bounds", _schedule_one_ulp_high),
}


@pytest.mark.parametrize("kind", sorted(checks._CHECKS))
def test_every_check_kind_can_fail(kind, monkeypatch):
    # a kind with no declared mutation fails here, so none lands without one
    assert kind in _FLIPS, f"no mutation is declared that makes a {kind} check fail"
    name, mutate = _FLIPS[kind]
    spec, problem, trace = _canned(name)
    desc = next(d for d in spec.checks if d["kind"] == kind)
    assert _verdict(desc, problem, trace).passed
    result = _verdict(*mutate(desc, problem, trace, monkeypatch))
    assert result.passed is False, result
    assert not result.measured.startswith("check errored"), result


# --- window edges -----------------------------------------------------------------

# (k_min, k_max) against an 11-row trace, rows k = 0..10: a window that starts
# below row 0, ends below it, ends on or past the last row, or starts past it
_WINDOWS = [(-3, 4), (-5, -1), (-4, -2), (0, 0), (3, 10), (3, 25), (10, 10), (11, 20),
            (14, 20)]


@functools.cache
def _eleven_rows():
    fs = Box(4, [0.0] * 4, [1.0] * 4)
    problem = Problem(fs, make_quadratic(np.array([0.1, 0.4, 0.7, 1.0]), fs))
    return problem, fwlab.solve(problem, stepsize.Harmonic(2.0), np.zeros(4),
                                fwlab.StopRule(max_iter=10))


def _window_checks():
    for k_min, k_max in _WINDOWS:
        for c_f in (0.01, 2.0):
            yield {"kind": "bound-domination", "opt": 0.0, "k_min": k_min,
                   "bound": {"kind": "harmonic_classic", "C_f": c_f}}
        for coeff in (1e-3, 10.0):
            yield {"kind": "lower-bound", "opt": 0.0, "coeff": coeff, "offset": 10.0,
                   "k_min": k_min, "k_max": k_max}
        for margin in (1e-3, 10.0):
            yield {"kind": "non-convergence-margin", "opt": 0.0, "margin": margin,
                   "k_min": k_min, "k_max": k_max}


@pytest.mark.parametrize("desc", list(_window_checks()), ids=repr)
def test_window_checks_match_the_mask_form_at_every_edge(desc):
    problem, trace = _eleven_rows()
    check = checks.parse_check(desc)
    ctx = checks.CheckContext(problem, trace)
    result = checks.evaluate_check(check, ctx)
    passed, measured, window = window_check_by_mask(check, problem, trace)
    assert (result.passed, result.measured) == (passed, measured)
    if window is None:
        assert not ctx.bounds
    else:  # the bounds CSV gets the mask's k values and curve
        ((_, ks, values),) = ctx.bounds
        assert ks.tolist() == window[0].tolist()
        assert values.tobytes() == window[1].tobytes()


def test_a_window_ending_below_row_0_is_empty():
    _, trace = _eleven_rows()
    for k_min, k_max in ((-5, -1), (-4, -2), (-3, -3)):
        ks, rows = checks._window(trace, k_min, k_max)
        # never a negative-index slice, which would count rows from the end
        assert len(ks) == 0 and len(trace.rows[rows]) == 0
    ks, rows = checks._window(trace, -2, 25)
    assert ks.tolist() == list(range(11)) and trace.rows[rows].shape == (11, 4)


def test_analysis_only_spec_writes_summary_without_trace(tmp_path):
    raw = {
        "name": "probe",
        "seed": 0,
        "problem": {
            "set": {"kind": "box", "dim": 1, "lower": [0.0], "upper": [1.0]},
            "objective": {"kind": "t_alpha", "alpha": 1.5},
        },
        "checks": [{"kind": "curvature-exact", "sigma": 1.5, "expect": 1.5,
                    "tol": 1e-6, "n_samples": 50, "seed": 1}],
    }
    report = run_experiment(parse_spec(raw), tmp_path)
    assert report.passed
    assert report.trace_path is None
    summary = json.loads((tmp_path / "probe.summary.json").read_text())
    assert summary["fingerprint"] == ""
    assert "trace" not in summary and "trace_csv" not in summary
    assert not (tmp_path / "probe.trace.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(parse_spec(_raw()), a)
    run_experiment(parse_spec(_raw()), b)
    for fname in ("exp.trace.csv", "exp.summary.json"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()


def test_a_run_holds_one_problem_and_one_x0_at_a_time(tmp_path):
    def raw(n):
        b = np.random.default_rng(5).standard_normal(n).tolist()
        return _raw(f"simplex_{n}", x0="sample(7)", stop={"max_iter": 5},
                    problem={"set": {"kind": "simplex", "dim": n},
                             "objective": {"kind": "quadratic", "b": b}},
                    checks=[{"kind": "bound-domination", "k_min": 1, "tol_add": 1e-9,
                             "bound": {"kind": "harmonic_classic", "C_f": 2.0}}])

    run_experiment(parse_spec(raw(4)), tmp_path)  # first calls, outside the count
    n = 100_000
    spec = parse_spec(raw(n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = run_experiment(spec, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.passed  # the check read f*, whose projection is part of the peak
    # the checks' phase sets it: the final point, the checks' b and the two
    # n-vectors of the f* projection, 4.27 n-vectors. Building the checks'
    # problem before the solve, holding the solve's problem and x0 through
    # the drift check and copying x0 into the loop made it 6.02
    assert peak < 5.0 * 8 * n


@pytest.mark.parametrize("entry", [-0.0, 5e-324])
def test_drift_check_fails_when_the_spec_changes_during_the_solve(
        tmp_path, monkeypatch, entry):
    spec = parse_spec(_raw())
    solve = fwlab.runner.solve

    def solve_then_edit(*args, **kwargs):
        trace = solve(*args, **kwargs)
        spec.problem["objective"]["b"][0] = entry  # 0.0 before: one sign bit or one ulp
        return trace

    monkeypatch.setattr(fwlab.runner, "solve", solve_then_edit)
    with pytest.raises(RuntimeError, match="fingerprint mismatch"):
        run_experiment(spec, tmp_path)


def test_reproduce_unknown_case_errors(tmp_path):
    with pytest.raises(ValueError, match="unknown case"):
        reproduce("no_such_case", tmp_path)


def test_reproduce_single_case_produces_reports(tmp_path):
    reports = reproduce("sharp_finite_termination", tmp_path)
    assert all(r.passed for r in reports)
    assert (tmp_path / "sharp_finite_termination.summary.json").exists()


@pytest.fixture(scope="module")
def reproduced_all(tmp_path_factory):
    out = tmp_path_factory.mktemp("reproduce_all")
    return out, reproduce("all", out)


def test_reproduce_all_matches_the_recorded_artifact_hashes(reproduced_all):
    """The equivalence oracle: every canned trace and bounds file, byte for byte."""
    out, reports = reproduced_all
    table = Path(__file__).resolve().parent.parent / "bench" / "reproduce_sha256.json"
    recorded = json.loads(table.read_text())
    assert all(r.passed for r in reports)
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(recorded)
    for name, digest in recorded.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_reproduce_all_summaries_are_the_stdlib_indented_json(reproduced_all):
    """No recorded hash covers the summaries, so pin their rendering instead."""
    out, reports = reproduced_all
    assert sorted(p.name for p in out.glob("*.summary.json")) == \
        sorted(Path(r.summary_path).name for r in reports)
    for path in out.glob("*.summary.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


def _canonical(v) -> str:
    return "".join(_canonical_pieces(v))


def _indented(v) -> str:
    return "".join(_indented_pieces(v))


@given(st.one_of(json_values(),
                 st.dictionaries(st.integers(), json_values(), max_size=3),
                 st.dictionaries(json_floats(), st.integers(), max_size=3)))
@settings(max_examples=300)
def test_indented_json_equals_the_stdlib_rendering(v):
    assert _indented(v) == json.dumps(v, indent=2, sort_keys=True)
    assert _indented({"v": [v]}) == json.dumps({"v": [v]}, indent=2, sort_keys=True)


# --- streamed writers at chunk boundaries ------------------------------------------

CHUNK_LENGTHS = (RENDER_CHUNK - 1, RENDER_CHUNK, RENDER_CHUNK + 1, 2 * RENDER_CHUNK + 1)
_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320,
          2.2250738585072009e-308, -1.7976931348623157e308, 0.1]


def _edge_floats(n: int) -> np.ndarray:
    """n floats of every magnitude, with signed zeros, infinities, NaN and
    subnormals at every third place, the chunk edges included."""
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    v[::3] = np.resize(_EDGES, v[::3].size)
    return v


@pytest.mark.parametrize("n", CHUNK_LENGTHS)
def test_streamed_canonical_json_matches_the_one_shot_rendering(n):
    v = _edge_floats(n)
    want = canon_text(v.tolist())
    for form in (v, v.tolist(), tuple(v.tolist()), v[::-1][::-1]):
        assert _canonical(form).encode() == want.encode()
    # as the fingerprint hashes it: array descriptors and x0 against lists;
    # the problem descriptor is written out, since an objective rejects
    # non-finite data
    problem_desc = {"composite": None, "objective": {"b": v, "kind": "quadratic"},
                    "set": {"dim": n, "kind": "simplex"}}
    desc = {"problem": {"composite": None, "objective": {"b": v.tolist(), "kind": "quadratic"},
                        "set": {"dim": n, "kind": "simplex"}},
            "rule": {"c": 2.0}, "x0": v.tolist(), "stop": {"max_iter": 1}, "seed": 7}
    assert config_fingerprint(problem_desc, {"c": 2.0}, v, {"max_iter": 1}, 7) \
        == hashlib.sha256(canon_text(desc).encode()).hexdigest()


def test_streamed_canonical_json_of_empty_and_2d_arrays():
    rows = _edge_floats(3 * (RENDER_CHUNK + 1)).reshape(3, RENDER_CHUNK + 1)
    for arr in (np.empty(0), np.empty((0, 3)), np.empty((3, 0)), rows, rows.T,
                rows[:, :RENDER_CHUNK].reshape(2, 3, -1), np.arange(5), np.float64(-0.0),
                np.array(math.nan)):
        assert _canonical(arr).encode() == canon_text(np.asarray(arr).tolist()).encode()


@pytest.mark.parametrize("n", CHUNK_LENGTHS)
def test_streamed_summary_json_matches_the_stdlib(n):
    v = _edge_floats(n).tolist()
    mixed = [int(x) if i % 4 == 1 and math.isfinite(x) and abs(x) < 1e300 else x
             for i, x in enumerate(v)]
    for value in (v, tuple(v), mixed, {"final_x": v, "spec": [{"b": mixed}, v[:2]]}):
        want = json.dumps(value, indent=2, sort_keys=True)
        assert _indented(value).encode() == want.encode()
    # the float64 array itself, as trace_summary hands out final_x, renders as its list
    array = np.array(v)
    assert _indented(array).encode() == json.dumps(v, indent=2).encode()
    assert _indented({"final_x": array, "n": n}).encode() == \
        json.dumps({"final_x": v, "n": n}, indent=2, sort_keys=True).encode()


@pytest.mark.parametrize("array", [
    np.array([0, 1, 0]), np.eye(3), np.arange(6).reshape(2, 3), np.arange(RENDER_CHUNK + 2),
    np.linspace(-1.0, 1.0, RENDER_CHUNK + 1, dtype=np.float32), np.array([-0.0, 5e-324]),
    np.array([True, False]), np.empty(0), np.empty((3, 0)), np.empty((0, 3)), np.array(2.5),
    np.array(7), np.zeros((2, 2, 2))], ids=lambda a: f"{a.dtype}{list(a.shape)}")
def test_summary_renders_a_numeric_array_as_its_list(array):
    listed = array.tolist()
    assert _indented(array).encode() == json.dumps(listed, indent=2).encode()
    assert _indented({"v": array, "w": [array]}).encode() == \
        json.dumps({"v": listed, "w": [listed]}, indent=2, sort_keys=True).encode()


def test_specs_built_with_numeric_arrays_run_and_write_their_listed_summary(tmp_path):
    polytope = {"set": {"kind": "vertex_polytope", "vertices": np.eye(3)},
                "objective": {"kind": "quadratic", "b": [0.2, 0.3, 0.5]}}
    integral = {"set": {"kind": "simplex", "dim": 3},
                "objective": {"kind": "quadratic", "b": np.array([0, 1, 0])}}
    for name, problem in (("polytope", polytope), ("integral", integral)):
        report = run_experiment(parse_spec(_raw(name=name, problem=problem, checks=[])),
                                tmp_path)
        text = Path(report.summary_path).read_text()
        listed = json.loads(text)
        assert text == json.dumps(listed, indent=2, sort_keys=True) + "\n"
    assert listed["spec"]["problem"]["objective"]["b"] == [0, 1, 0]
    polytope_spec = json.loads((tmp_path / "polytope.summary.json").read_text())["spec"]
    assert polytope_spec["problem"]["set"]["vertices"] == np.eye(3).tolist()


# a trace CSV formats RENDER_CHUNK // 5 rows per call
ROW_CHUNK = RENDER_CHUNK // 5
ROW_CHUNK_LENGTHS = (ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK + 1)


@pytest.mark.parametrize("n", CHUNK_LENGTHS + ROW_CHUNK_LENGTHS)
def test_streamed_trace_csv_matches_the_one_shot_rendering(n, tmp_path):
    cols = _edge_floats(4 * n).reshape(4, n).tolist()
    trace = SolveTrace(np.array(cols).T, "max_iter", np.zeros(1))
    rows = [(k, *fields) for k, fields in enumerate(zip(*cols))]  # k is the row index
    want = ("k,obj,gap,gamma,step_norm\n"
            + ("%d,%.17g,%.17g,%.17g,%.17g\n" * len(rows)) % tuple(chain.from_iterable(rows)))
    write_trace_csv(trace, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == want.encode()
    assert trace_to_csv(trace) == want


def test_streamed_bounds_csv_matches_the_one_shot_rendering(tmp_path):
    bounds = [(SimpleNamespace(kind=f"b{n}"), np.arange(n), _edge_floats(n))
              for n in CHUNK_LENGTHS + (0, 1)]
    want = "".join(
        f"# bound kind={bound.kind}\nk,bound\n"
        + ("%d,%.17g\n" * len(ks)) % tuple(chain.from_iterable(zip(ks.tolist(), vals.tolist())))
        for bound, ks, vals in bounds)
    _write_bounds_csv(tmp_path / "b.csv", bounds)
    assert (tmp_path / "b.csv").read_bytes() == want.encode()


def _peak_above_base(fn, *args) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _harmonic_trace(rows: int):
    b = np.linspace(0.0, 1.0, 10)
    problem = Problem(Box(10, [0.0] * 10, [1.0] * 10), make_quadratic(b))
    return problem, fwlab.solve(problem, stepsize.Harmonic(2.0), np.zeros(10),
                                fwlab.StopRule(max_iter=rows - 1))


def test_a_long_bound_check_and_its_writers_hold_o_chunk_memory(tmp_path):
    check = checks.parse_check({"kind": "bound-domination", "opt": 0.0,
                                "bound": {"kind": "harmonic_classic", "C_f": 10.0}})
    problem, short = _harmonic_trace(5)  # first calls, outside the count
    check.evaluate(checks.CheckContext(problem, short))
    write_trace_csv(short, tmp_path / "short.csv")

    rows = 20_001
    _, trace = _harmonic_trace(rows)
    ctx = checks.CheckContext(problem, trace)
    # above the trace's 32 bytes a row, the window check holds the window's
    # k and curve, its slack and one working array: 32
    assert _peak_above_base(checks.evaluate_check, check, ctx) <= 35 * rows
    assert ctx.bounds and ctx.bounds[0][1].size == rows - 1
    # the writers hold O(RENDER_CHUNK) memory whatever the trace's length
    assert _peak_above_base(_write_bounds_csv, tmp_path / "b.csv", ctx.bounds) < 0.25e6
    assert _peak_above_base(write_trace_csv, trace, tmp_path / "t.csv") < 0.1e6


def test_summary_of_a_long_run_is_the_stdlib_indented_json(tmp_path):
    n = RENDER_CHUNK + 1
    b = np.nan_to_num(_edge_floats(n)).clip(-9.0, 9.0)  # keeps -0.0 and subnormals
    raw = _raw(problem={"set": {"kind": "simplex", "dim": n},
                        "objective": {"kind": "quadratic", "b": b.tolist()}},
               stop={"max_iter": RENDER_CHUNK}, checks=[])
    report = run_experiment(parse_spec(raw), tmp_path)
    text = Path(report.summary_path).read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert text.count("\n") > 2 * n  # b and final_x, one float a line
    assert len(Path(report.trace_path).read_text().splitlines()) == RENDER_CHUNK + 2


def test_summary_rendering_leaves_no_garbage_for_the_cycle_collector(tmp_path):
    # a summary of scalars, strings, null, bools, lists and empty lists
    report = run_experiment(parse_spec(_raw(stop={"max_iter": 5})), tmp_path)
    summary = json.loads(Path(report.summary_path).read_text())
    gc.collect()
    gc.disable()
    try:
        text = "".join(_indented_pieces(summary))
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
    assert text.encode() == json.dumps(summary, indent=2, sort_keys=True).encode()


def test_compare_writes_wide_csv_with_padding(tmp_path):
    # the exact line-search step reaches x* = (1/4, ..., 1/4) at k = 3 and
    # stops there; the harmonic run uses its whole budget of 9 steps
    short = parse_spec(_raw(name="short", stop={"max_iter": 9},
                            rule={"kind": "line_search", "tol": 1e-10,
                                  "max_evals": 200}))
    long = parse_spec(_raw(name="long", stop={"max_iter": 9}))
    report = run_experiment(short, tmp_path / "alone")
    summary = json.loads(Path(report.summary_path).read_text())["trace"]
    assert summary["termination"]["reason"] == "finite_termination"
    assert summary["n_iterations"] == 4

    path = compare([short, long], tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,obj_short,gap_short,obj_long,gap_long"
    assert len(lines) == 11  # header + rows k=0..9
    # short trace has rows 0..3; its cells are empty afterwards
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[1] != "" and r[2] != "" for r in rows[:4])
    assert all(r[1] == "" and r[2] == "" for r in rows[4:])
    assert all(r[3] != "" and r[4] != "" for r in rows)
    # the same bytes as a cell-by-cell rendering of the two traces
    traces = [_run_trace(short), _run_trace(long)]
    assert path.read_bytes() == compare_csv_per_cell(["short", "long"], traces).encode()


def _edge_trace(n: int, seed: int) -> SolveTrace:
    rows = _edge_floats(4 * n + seed)[:4 * n].reshape(n, 4)
    return SolveTrace(rows, "max_iter", np.zeros(1))


# a compare CSV of p traces formats RENDER_CHUNK // (1 + 2p) rows per call
_STEP1, _STEP3 = RENDER_CHUNK // 3, RENDER_CHUNK // 7


@pytest.mark.parametrize("lengths", [
    (1,), (_STEP1 - 1,), (_STEP1,), (_STEP1 + 1,), (2 * _STEP1 + 1,),
    (_STEP3 - 1, _STEP3, _STEP3 + 1), (1, 2 * _STEP3 + 1, _STEP3), (7, 7, 2),
])
def test_streamed_compare_csv_matches_the_per_cell_rendering(lengths):
    names = [f"s{i}" for i in range(len(lengths))]
    traces = [_edge_trace(n, i) for i, n in enumerate(lengths)]
    text = "".join(_compare_csv_pieces(names, traces))
    assert text.encode() == compare_csv_per_cell(names, traces).encode()


def test_compare_single_spec_is_degenerate_but_valid(tmp_path):
    path = compare([parse_spec(_raw(name="only", stop={"max_iter": 3}))], tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,obj_only,gap_only"
    assert len(lines) == 5


def test_compare_rejects_mismatched_problems_before_solving(tmp_path):
    a = _raw(name="a")
    b = _raw(name="b", stop={"max_iter": 10 ** 9})  # would hang if it ran
    b["problem"] = {
        "set": {"kind": "simplex", "dim": 5},
        "objective": {"kind": "quadratic", "b": [0.0] * 5},
    }
    with pytest.raises(ValueError, match="different problem"):
        compare([parse_spec(a), parse_spec(b)], tmp_path)
    assert not (tmp_path / "compare.csv").exists()


def _quadratic_b(name, b):
    return parse_spec(_raw(name=name, problem={"set": {"kind": "simplex", "dim": 4},
                                               "objective": {"kind": "quadratic", "b": b}}))


def test_compare_takes_a_list_and_an_equal_array_for_one_problem(tmp_path):
    path = compare([_quadratic_b("listed", [0.0, 0.5, 0.0, 0.25]),
                    _quadratic_b("array", np.array([0.0, 0.5, 0.0, 0.25]))], tmp_path)
    assert path.read_text().splitlines()[0] == "k,obj_listed,gap_listed,obj_array,gap_array"


def test_compare_takes_ints_and_equal_floats_for_one_problem(tmp_path):
    assert compare([_quadratic_b("ints", [0, 1, 0, 0]),
                    _quadratic_b("floats", [0.0, 1.0, 0.0, 0.0])], tmp_path).exists()


def test_compare_rejects_a_different_b_in_an_array(tmp_path):
    with pytest.raises(ValueError, match=r"^spec 'other' runs a different problem than "
                                         r"'array'; compare requires a shared set, "
                                         r"objective and composite part$"):
        compare([_quadratic_b("array", np.array([0, 1, 0, 0])),
                 _quadratic_b("other", np.array([1, 0, 0, 0]))], tmp_path)
    assert not (tmp_path / "compare.csv").exists()


def test_compare_rejects_a_composite_part_the_other_spec_lacks(tmp_path):
    lasso = {"set": {"kind": "box", "dim": 4, "lower": [-1.0] * 4, "upper": [1.0] * 4},
             "objective": {"kind": "quadratic", "b": [0.9, -0.4, 0.2, -1.5]},
             "composite": {"kind": "l1", "lam": 0.5}}
    plain = {key: lasso[key] for key in ("set", "objective")}
    a = parse_spec(_raw(name="lasso", problem=lasso))
    b = parse_spec(_raw(name="plain", problem=plain))
    with pytest.raises(ValueError, match="different problem"):
        compare([a, b], tmp_path)
    assert not (tmp_path / "compare.csv").exists()
    # a null composite part is no composite part
    c = parse_spec(_raw(name="null", problem={**plain, "composite": None}))
    assert compare([b, c], tmp_path).exists()


def test_compare_rejects_duplicate_names(tmp_path):
    with pytest.raises(ValueError, match="distinct names"):
        compare([parse_spec(_raw()), parse_spec(_raw())], tmp_path)


def test_compare_rejects_analysis_only_specs(tmp_path):
    probe = parse_spec({"name": "p", "seed": 0})
    with pytest.raises(ValueError, match="no rule"):
        compare([probe], tmp_path)
