import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fwlab.geometry
import fwlab.solver
from fwlab import (
    Box,
    CompositePart,
    Harmonic,
    L1Ball,
    L2Ball,
    LineSearch,
    Linear,
    NesterovMax,
    Objective,
    PowerNorm,
    Problem,
    ProjectedGradient,
    Quadratic,
    Simplex,
    StopRule,
    TAlpha,
    config_fingerprint,
    line_search,
    solve,
    trace_to_csv,
    write_trace_csv,
)
from fwlab.config import build_problem, parse_spec
from fwlab.solver import (
    REASON_FINITE_TERMINATION,
    REASON_GAP_TOL,
    REASON_MAX_ITER,
    TRACE_CSV_COLUMNS,
    SolveTrace,
    _canonical_pieces,
    _gap,
)

from conftest import canon_bytes, fw_gap, json_floats, json_values, replay_iterates


def _simplex_quadratic(n=3):
    fs = Simplex(n)
    return Problem(fs, Quadratic(np.zeros(n)))


# --- trace semantics ---------------------------------------------------------------

def test_trace_records_pre_step_rows_zero_through_max_iter():
    trace = solve(_simplex_quadratic(), Harmonic(2.0),
                  x0=np.array([1.0, 0.0, 0.0]), stop=StopRule(max_iter=5))
    assert len(trace.rows) == 6  # row k is iterate k, for k = 0..5
    assert trace.reason == REASON_MAX_ITER
    # row 0 holds the values at the start point, before any step
    assert trace.objs[0] == 0.5
    # the budget row is recorded without stepping, at the final point
    obj, _, gamma, step_norm = trace.rows[-1]
    assert gamma == 0.0 and step_norm == 0.0
    assert trace.final_obj == obj


def test_trace_rows_hold_no_copy_of_the_iterate():
    n = 10_000
    fs = Simplex(n)
    problem = Problem(fs, Quadratic(np.zeros(n)))
    x0 = np.zeros(n)
    x0[0] = 1.0
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = solve(problem, Harmonic(2.0), x0=x0, stop=StopRule(max_iter=300))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(trace.rows) == 301
    # one 8n-byte copy per row would hold 24 MB
    assert held < 1_000_000


def test_fingerprint_is_rendered_before_the_loop_allocates_a_row():
    n = 100_000
    fs = Simplex(n)
    problem = Problem(fs, Quadratic(np.zeros(n)))
    x0 = np.zeros(n)
    x0[0] = 1.0
    stop, rule = StopRule(max_iter=5), Harmonic(2.0)

    def peak_bytes(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    vector = 8 * n
    # the byte walk streams a chunk at a time into the hash: less than one
    # n-vector, whatever n is
    assert peak_bytes(lambda: config_fingerprint(
        problem.descriptor(), rule.descriptor(), x0, stop.descriptor(), None)) < vector
    # an open-loop row holds x, the gradient and the direction, written into
    # the oracle's answer and then holding the next iterate: six n-vectors
    # when each step made a new array; the fingerprint, hashed first, adds
    # nothing on top of them
    assert peak_bytes(lambda: solve(problem, rule, x0=x0, stop=stop)) < 3.5 * vector


def test_trace_columns_are_built_once_and_read_only():
    trace = solve(_simplex_quadratic(), Harmonic(2.0),
                  x0=np.array([1.0, 0.0, 0.0]), stop=StopRule(max_iter=5))
    assert trace.objs is trace.objs
    assert trace.objs.tolist() == [row[0] for row in trace.rows.tolist()]
    assert trace.final_obj == trace.rows.tolist()[-1][0]
    with pytest.raises(ValueError, match="read-only"):
        trace.objs[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        trace.rows[0, 1] = 0.0


def test_trace_rows_hold_32_bytes_a_row():
    problem = _simplex_quadratic(10)
    x0 = np.eye(10)[0]
    stop = StopRule(max_iter=20_000)
    solve(problem, Harmonic(2.0), x0=x0, stop=stop)  # first calls' caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = solve(problem, Harmonic(2.0), x0=x0, stop=stop)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert trace.rows.shape == (20_001, 4)
    # four floats a row in one buffer, plus its growth slack; k is the row
    # index, so no column holds it
    assert held <= 40 * 20_001
    # while it runs, the open-loop schedule holds one block of its stepsizes;
    # its whole float64 array added 8 bytes a row, a list of Python floats 32
    assert peak <= 35 * 20_001


def test_open_loop_budget_costs_no_memory_the_rows_do_not_reach():
    # the schedule is evaluated a block at a time as the rows reach it; the
    # whole budget's stepsizes once cost 80 MB before row 0 at max_iter 1e7
    problem = _simplex_quadratic(10)
    x0 = np.eye(10)[0]
    stop = StopRule(max_iter=10**7, gap_tol=1e-3)
    tracemalloc.start()
    try:
        trace = solve(problem, Harmonic(2.0), x0=x0, stop=stop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.reason == "gap_tol"
    assert len(trace.rows) < 1000
    assert peak < 1_000_000


def test_trace_built_from_rows_gives_the_rows_back():
    floats = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 0.1, -1.7976931348623157e308]
    rows = [[floats[(k + j) % len(floats)] for j in range(4)] for k in range(11)]
    want = np.array(rows)
    for given in (rows, want):
        trace = SolveTrace(given, "max_iter", np.zeros(1))
        assert trace.rows.shape == (11, 4) and trace.rows.dtype == np.float64
        # the bytes tell -0.0 from 0.0 and match NaN, which == would not
        assert trace.rows.tobytes() == want.tobytes()
        assert trace.rows[3].tobytes() == want[3].tobytes()
        assert trace.rows[-1].tobytes() == want[-1].tobytes()
        assert trace.rows[2:9:3].tobytes() == want[2:9:3].tobytes()
        assert np.float64(trace.final_obj).tobytes() == want[-1, 0].tobytes()
        assert trace.objs.tobytes() == want[:, 0].tobytes()
        with pytest.raises(IndexError):
            trace.rows[11]
    # an array of float64 rows is kept, not copied, behind a read-only view
    assert trace.rows.base is want
    assert want.flags.writeable
    # a solve records row 0 whatever stops it, so a trace has a row
    for empty in ([], np.empty((0, 4))):
        with pytest.raises(ValueError, match=r"\(K, 4\) array with K >= 1"):
            SolveTrace(empty, "max_iter", np.zeros(1))
    with pytest.raises(ValueError, match=r"\(K, 4\) array"):
        SolveTrace([(0, 1.0, 2.0, 3.0, 4.0)], "max_iter", np.zeros(1))


def test_open_loop_gamma_column_matches_schedule():
    trace = solve(_simplex_quadratic(), Harmonic(2.0),
                  x0=np.array([1.0, 0.0, 0.0]), stop=StopRule(max_iter=4))
    for k, gamma in enumerate(trace.rows[:-1, 2].tolist()):
        assert gamma == 2.0 / (k + 2.0)


def test_gap_tol_stop_certifies_the_reported_point():
    problem = _simplex_quadratic(5)
    trace = solve(problem, Harmonic(2.0), x0=np.eye(5)[0],
                  stop=StopRule(max_iter=10_000, gap_tol=1e-3))
    assert trace.reason == REASON_GAP_TOL
    obj, gap, _, _ = trace.rows[-1].tolist()
    assert gap <= 1e-3
    # stop fires before stepping: the certified iterate is the final point
    assert trace.final_obj == obj
    assert fw_gap(problem, trace.final_x)[0] == gap
    assert len(trace.rows) < 10_001


def test_gap_tol_zero_never_stops_on_gap():
    problem = Problem(Simplex(3), Linear(np.array([1.0, 2.0, 3.0])))
    trace = solve(problem, Harmonic(2.0), x0=np.array([1.0, 0.0, 0.0]),
                  stop=StopRule(max_iter=50, gap_tol=0.0))
    # gap hits exactly 0 at the optimum yet the loop continues to a fixed point
    assert trace.reason == REASON_FINITE_TERMINATION


def test_finite_termination_on_sharp_linear_problem():
    problem = Problem(Simplex(3), Linear(np.array([1.0, 2.0, 3.0])))
    trace = solve(problem, LineSearch(1e-10, 200), x0=np.array([0.0, 0.0, 1.0]),
                  stop=StopRule(max_iter=100))
    assert trace.reason == REASON_FINITE_TERMINATION
    assert len(trace.rows) - 1 == 1  # the last row's k
    assert np.array_equal(trace.final_x, [1.0, 0.0, 0.0])


def test_finite_termination_compares_iterates_not_step_norms():
    # row 0 moves x from 0 to 1e-300, whose square underflows: the step norm
    # reads 0 although the iterate changed, so only row 1 is a fixed point
    fs = Box(1, np.array([0.0]), np.array([1e-300]))
    trace = solve(Problem(fs, Linear(np.array([-1.0]))), Harmonic(2.0),
                  x0=np.array([0.0]), stop=StopRule(max_iter=10))
    _, _, gamma, step_norm = trace.rows[0]
    assert step_norm == 0.0
    assert gamma == 1.0
    assert np.array_equal(trace.final_x, [1e-300])
    assert trace.reason == REASON_FINITE_TERMINATION
    assert len(trace.rows) == 2
    assert len(trace.rows) - 1 == 1  # the last row's k


@pytest.mark.parametrize("rule, stop, reason", [
    (Harmonic(2.0), StopRule(max_iter=10, gap_tol=1e-3), REASON_GAP_TOL),
    (LineSearch(), StopRule(max_iter=10), REASON_FINITE_TERMINATION),
], ids=["gap_tol", "finite_termination"])
def test_a_solve_ending_at_row_0_hands_out_its_own_final_point(rule, stop, reason):
    # x0 is the first iterate itself, not a copy; a solve that never steps
    # away from it must still not hand the caller's array back
    problem = Problem(Simplex(3), Linear(np.array([1.0, 2.0, 3.0])))
    x0 = np.array([1.0, 0.0, 0.0])
    trace = solve(problem, rule, x0=x0, stop=stop)
    assert trace.reason == reason and len(trace.rows) == 1
    x0[:] = [0.0, 0.0, 1.0]
    assert trace.final_x.tolist() == [1.0, 0.0, 0.0]


def test_a_strided_x0_solves_as_its_contiguous_copy():
    problem = _simplex_quadratic(4)
    big = np.zeros(8)
    big[::2] = [0.1, 0.2, 0.3, 0.4]
    for rule in (Harmonic(2.0), LineSearch()):
        strided = solve(problem, rule, x0=big[::2], stop=StopRule(max_iter=20))
        contiguous = solve(problem, rule, x0=big[::2].copy(), stop=StopRule(max_iter=20))
        assert strided.rows.tobytes() == contiguous.rows.tobytes()
        assert strided.config_fingerprint == contiguous.config_fingerprint
        assert (strided.final_x.tobytes()
                == contiguous.final_x.tobytes())
    assert big.tolist() == [0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 0.4, 0.0]


def test_infeasible_start_rejected():
    with pytest.raises(ValueError, match="x0 is not feasible"):
        solve(_simplex_quadratic(), Harmonic(2.0), x0=np.array([0.6, 0.6, 0.0]),
              stop=StopRule(max_iter=5))


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule(max_iter=0)
    with pytest.raises(ValueError):
        StopRule(max_iter=10, gap_tol=-1.0)
    # each once got past the stop rule: a float budget died in the solve with a
    # TypeError, True ran one row, a NaN tolerance turned the gap stop off and
    # an infinite one stopped at row 0
    for build, message in [
        (lambda: StopRule(2.5), "'max_iter' must be a positive integer, got 2.5"),
        (lambda: StopRule(True), "'max_iter' must be a positive integer, got True"),
        (lambda: StopRule(5, math.nan), "'gap_tol' must be a finite number >= 0, got nan"),
        (lambda: StopRule(5, math.inf), "'gap_tol' must be a finite number >= 0, got inf"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def _phi_evals_per_search(monkeypatch, problem, x0, max_iter):
    """Solve under LineSearch and count phi evaluations, one entry per search.

    Counts through the module global the solver calls, as bench/tracer.py does.
    """
    counts = []
    line_search_in_solver = fwlab.solver.line_search

    def counting(phi, *args):
        counts.append(0)

        def counted(t):
            counts[-1] += 1
            return phi(t)
        return line_search_in_solver(counted, *args)

    monkeypatch.setattr(fwlab.solver, "line_search", counting)
    trace = solve(problem, LineSearch(1e-10, 200), x0=x0, stop=StopRule(max_iter))
    # every row steps but a budget row
    assert len(counts) == min(len(trace.rows), max_iter)  # the rows with k < max_iter
    assert len(counts) >= 10
    return counts


def test_plain_quadratic_searches_take_three_phi_evaluations(monkeypatch):
    fs = L2Ball(3, 1.0)
    problem = Problem(fs, Quadratic(np.array([2.0, -1.0, 0.5])))
    counts = _phi_evals_per_search(monkeypatch, problem, np.array([0.0, 1.0, 0.0]), 20)
    assert set(counts) == {3}


def test_power_norm_and_composite_searches_keep_golden_section(monkeypatch):
    fs = L2Ball(3, 1.0)
    b = np.array([2.0, -1.0, 0.5])
    x0 = np.array([0.0, 1.0, 0.0])
    power = Problem(fs, PowerNorm(1.5, b))
    assert min(_phi_evals_per_search(monkeypatch, power, x0, 20)) > 3
    # the quadratic's closed form ignores the composite term, so it must not run
    composite = Problem(fs, Quadratic(b), CompositePart(0.5))
    assert min(_phi_evals_per_search(monkeypatch, composite, x0, 20)) > 3


@given(kind=st.sampled_from(["simplex", "l1_ball", "l2_ball", "box"]),
       dim=st.integers(1, 20),
       seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=200)
def test_exact_quadratic_step_beats_a_grid_and_golden_section(kind, dim, seed):
    rng = np.random.default_rng(seed)
    half = rng.uniform(0.5, 1.5, dim)
    radius = rng.uniform(0.5, 2.0)
    fs = {"simplex": Simplex(dim), "l1_ball": L1Ball(dim, radius),
          "l2_ball": L2Ball(dim, radius), "box": Box(dim, -half, half)}[kind]
    b = rng.normal(scale=2.0, size=dim)
    problem = Problem(fs, Quadratic(b))
    x = fs.draw(rng)
    trace = solve(problem, LineSearch(1e-10, 200), x0=x, stop=StopRule(max_iter=1))
    gamma = float(trace.rows[0, 2])
    d = fs.lmo(problem.objective.grad(x)) - x

    def phi(t):
        return problem.phi(x + t * d)

    assert 0.0 <= gamma <= 1.0
    scale = max(1.0, phi(0.0), phi(1.0))
    # 0.5*||x + t*d - b||^2 at all 2001 grid points in one expression
    residuals = x + np.linspace(0.0, 1.0, 2001)[:, None] * d - b
    grid_min = float(np.min(0.5 * np.einsum("ij,ij->i", residuals, residuals)))
    assert phi(gamma) <= grid_min + 1e-12 * scale
    golden = line_search(phi, LineSearch(1e-10, 200))
    assert phi(gamma) <= phi(golden) + 1e-12 * scale


def test_line_search_failure_carries_iteration_context():
    fs = Box(1, np.array([0.0]), np.array([1.0]))
    base = Quadratic(np.ones(1)).objective()  # descent direction points at x = 1

    def poisoned(x):
        return float("nan") if x[0] > 0.9 else float(0.5 * (x - 1.0) @ (x - 1.0))

    bad = dataclasses.replace(base, value=poisoned)
    problem = Problem(fs, bad)
    with pytest.raises(ValueError, match="iteration 0"):
        solve(problem, LineSearch(1e-10, 50), x0=np.array([0.5]),
              stop=StopRule(max_iter=5))


# --- phi_into: a search's phi, evaluated in its trial array --------------------------

_B3 = np.array([2.0, -1.0, 0.5])
_BOX3 = Box(3, np.full(3, -1.0), np.full(3, 1.0))
_PHI_KINDS = [
    (Quadratic(_B3), _BOX3), (PowerNorm(1.5, _B3), _BOX3),
    (TAlpha(1.5), Box(1, [0.0], [1.0])), (NesterovMax(), L2Ball(2, 1.0)),
    (Linear([1.0, -2.0, 0.5]), L2Ball(3, 1.0)),
]
_PHI_IDS = ["quadratic", "power_norm", "t_alpha", "nesterov_max", "linear"]


def _kind_and_rebuilt(kind, fs, composite):
    """The problem built on the kind, and one built on its record as
    `config.build_problem` rebuilds a composite problem."""
    return Problem(fs, kind, composite), Problem(fs, Problem(fs, kind).objective, composite)


@pytest.mark.parametrize("lam", [None, 0.5], ids=["plain", "composite"])
@pytest.mark.parametrize("kind, fs", _PHI_KINDS, ids=_PHI_IDS)
def test_phi_into_is_bitwise_phi_and_overwrites_only_for_a_kind_that_subtracts_b(
        kind, fs, lam):
    composite = None if lam is None else CompositePart(lam)
    rng = np.random.default_rng(3)
    points = [fs.draw(rng) for _ in range(40)] + [fs.lmo(np.ones(fs.dim))]
    if hasattr(kind, "b"):
        points.append(kind.b.copy())  # f's zero, where PowerNorm's power takes 0.0
    for problem in _kind_and_rebuilt(kind, fs, composite):
        for x in points:
            trial = x.copy()
            got = problem.phi_into(trial)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(problem.phi(x)).tobytes()
            # the kinds that subtract b leave trial - b behind; the rest keep it
            assert trial.tobytes() == (x - kind.b if hasattr(kind, "b") else x).tobytes()


@pytest.mark.parametrize("lam", [None, 0.3], ids=["plain", "composite"])
@pytest.mark.parametrize("make", [Quadratic, lambda b: PowerNorm(1.5, b)],
                         ids=["quadratic", "power_norm"])
def test_phi_into_writes_only_into_its_trial_array(make, lam):
    n = 20_000
    fs, b = _row_budget_data(n)
    problem = Problem(fs, make(b), None if lam is None else CompositePart(lam))
    x = fs.draw(np.random.default_rng(0))
    want = problem.phi(x)
    guarded = np.full(n + 2, 7.0)  # the trial array between two guard entries
    trial = guarded[1:-1]
    trial[:] = x
    saved = [a.tobytes() for a in (x, b, fs.lower, fs.upper)]
    tracemalloc.start()
    try:
        got = problem.phi_into(trial)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert guarded[0] == guarded[-1] == 7.0
    assert [a.tobytes() for a in (x, b, fs.lower, fs.upper)] == saved
    # f makes no n-vector; g takes |trial| beside it
    assert peak < (0.1 if lam is None else 1.1) * 8 * n


@pytest.mark.parametrize("lam", [None, 0.5], ids=["plain", "composite"])
@pytest.mark.parametrize("kind, fs", _PHI_KINDS, ids=_PHI_IDS)
def test_a_search_in_its_trial_array_solves_as_phi_does(kind, fs, lam):
    # the kind's value_into path, on both problems, against phi's path, which
    # a value swapped in with dataclasses.replace takes
    composite = None if lam is None else CompositePart(lam)
    kind_built, rebuilt = _kind_and_rebuilt(kind, fs, composite)
    record = kind_built.objective
    swapped = Problem(fs, dataclasses.replace(record, value=lambda x: record.value(x)),
                      composite)
    x0 = fs.lmo(-np.ones(fs.dim))  # off every kind's minimizer
    traces = [solve(problem, LineSearch(1e-10, 50), x0=x0, stop=StopRule(max_iter=30))
              for problem in (kind_built, rebuilt, swapped)]
    assert len(traces[0].rows) > 1
    for trace in traces[1:]:
        assert trace_to_csv(trace) == trace_to_csv(traces[0])
        assert trace.final_x.tobytes() == traces[0].final_x.tobytes()


@pytest.mark.parametrize("lam", [None, 0.5], ids=["plain", "composite"])
@pytest.mark.parametrize("make", [Quadratic, lambda b: PowerNorm(1.5, b)],
                         ids=["quadratic", "power_norm"])
def test_a_swapped_value_takes_every_search_evaluation(monkeypatch, make, lam):
    record = make(_B3).objective()
    calls = []

    def value(x):
        calls.append(1)
        return record.value(x)

    problem = Problem(L2Ball(3, 1.0), dataclasses.replace(record, value=value),
                      None if lam is None else CompositePart(lam))
    evals = []
    line_search_in_solver = fwlab.solver.line_search

    def counting(phi, *args):
        def counted(t):
            evals.append(t)
            return phi(t)
        return line_search_in_solver(counted, *args)

    monkeypatch.setattr(fwlab.solver, "line_search", counting)
    trace = solve(problem, LineSearch(1e-10, 50), x0=np.array([0.0, 1.0, 0.0]),
                  stop=StopRule(max_iter=15))
    assert len(evals) >= 3 * (len(trace.rows) - 1)
    # one value call a row, the rest the search's
    assert len(calls) == len(trace.rows) + len(evals)


def _solve_peak_bytes(problem, rule, x0, stop):
    """tracemalloc's peak over one solve, above what was alive before it."""
    solve(problem, rule, x0=x0, stop=stop)  # first calls' caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = solve(problem, rule, x0=x0, stop=stop)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(trace.rows) == stop.max_iter + 1
    return peak


def _row_budget_data(n):
    """A box of half-widths in [0.5, 1.5] and a quadratic's b, both of size n."""
    rng = np.random.default_rng(0)
    half = rng.uniform(0.5, 1.5, n)
    return Box(n, -half, half), rng.standard_normal(n)


@pytest.mark.parametrize("make", [Quadratic, lambda b: PowerNorm(1.5, b)],
                         ids=["quadratic", "power_norm"])
def test_a_line_search_row_holds_under_a_tenth_n_vector_more_than_an_open_loop_row(make):
    # an open-loop row holds x, the gradient and d; a line-search row holds x,
    # d and the trial array, which value_into evaluates f in. With value's
    # x - b beside them it held 0.87 n-vectors more; with the gradient kept
    # through the search as well, 1.87
    n = 20_000
    fs, b = _row_budget_data(n)
    problem = Problem(fs, make(b))
    x0 = fs.lmo(np.ones(n))
    stop = StopRule(max_iter=5)
    assert (_solve_peak_bytes(problem, LineSearch(), x0, stop)
            <= _solve_peak_bytes(problem, Harmonic(2.0), x0, stop) + 0.1 * 8 * n)


# a composite row holds the plain open-loop row's x, gradient and d, plus
# g(x_bar)'s |x_bar|; on the box, the oracle's three working vectors beside
# the gradient set its peak. Measured n-vectors above the plain open-loop
# row's (3.0; 3.1 on the box), open-loop / line search. A composite search
# takes g's |trial| before value_into writes f's x - b into the trial array,
# so its one temporary is g's, as it was beside the x - b that phi made:
#   box      4.13 / 5.13 when the oracle held 5.3 working vectors; now 1.867 / 1.865
#   l2 ball  2.00 / 2.99 when the soft-threshold held two; now 1.001 / 1.002
#   l1 ball  1.00 / 2.00 when the trial array lived through the solve; now 1.001 / 1.001
#   simplex  1.00 / 2.00 likewise; now 1.000 / 1.001
@pytest.mark.parametrize("rule", [Harmonic(2.0), LineSearch()], ids=["open-loop", "line-search"])
@pytest.mark.parametrize("kind, budget", [
    ("simplex", 1.1), ("l1_ball", 1.1), ("l2_ball", 1.1), ("box", 2.1),
])
def test_a_composite_row_holds_the_plain_rows_vectors_and_its_oracles(kind, budget, rule):
    n = 20_000
    box, _ = _row_budget_data(n)
    fs = {"simplex": Simplex(n), "l1_ball": L1Ball(n, 1.0), "l2_ball": L2Ball(n, 1.0),
          "box": box}[kind]
    # this b keeps every solve off the optimum for its 5 rows; the b above
    # reaches the simplex's at row 2, where a solve stops
    objective = Quadratic(np.random.default_rng(1).standard_normal(n))
    x0 = fs.lmo(np.ones(n))
    stop = StopRule(max_iter=5)
    plain = _solve_peak_bytes(Problem(fs, objective), Harmonic(2.0), x0, stop)
    composite = Problem(fs, objective, CompositePart(0.3))
    assert _solve_peak_bytes(composite, rule, x0, stop) <= plain + budget * 8 * n


@pytest.mark.parametrize("objective, composite", [
    (Quadratic(np.array([2.0, -1.0, 0.5])).objective(), None),
    (Quadratic(np.array([2.0, -1.0, 0.5])).objective(), CompositePart(0.5)),
    (PowerNorm(1.5, np.array([2.0, -1.0, 0.5])).objective(), None),
], ids=["closed-form", "golden-section-composite", "golden-section-power-norm"])
def test_a_line_search_drops_each_rows_gradient_before_its_trials(objective, composite):
    # the search reads only the slope <grad, d>: no row's gradient may be
    # alive at any value call, the row's own and the search's trials alike
    gradients, alive = [], []

    def grad(x):
        g = objective.grad(x)
        gradients.append(weakref.ref(g))
        return g

    def value(x):
        alive.append(sum(ref() is not None for ref in gradients))
        return objective.value(x)

    watched = dataclasses.replace(objective, value=value, grad=grad)
    problem = Problem(L2Ball(3, 1.0), watched, composite)
    trace = solve(problem, LineSearch(), x0=np.array([0.0, 1.0, 0.0]),
                  stop=StopRule(max_iter=10))
    # one value call a row, and at least three a search on every row but the last
    assert len(alive) >= len(trace.rows) + 3 * (len(trace.rows) - 1)
    assert len(gradients) == len(trace.rows)
    assert set(alive) == {0}


# --- gap ----------------------------------------------------------------------------

def test_gap_certifies_suboptimality_on_convex_problems():
    problem = _simplex_quadratic(4)
    x = np.array([0.4, 0.3, 0.2, 0.1])
    gap, d = fw_gap(problem, x)
    x_bar = problem.feasible_set.lmo(problem.objective.grad(x))
    f_star = 1.0 / 8.0
    assert gap >= problem.objective.value(x) - f_star - 1e-12
    assert problem.feasible_set.contains(x_bar, 1e-9)
    assert d.tobytes() == (x_bar - x).tobytes()


def test_composite_gap_includes_the_nonsmooth_part():
    fs = Box(2, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    problem = Problem(fs, Quadratic(np.array([0.9, -0.4])), CompositePart(0.5))
    x = np.array([1.0, 1.0])
    gap, d = fw_gap(problem, x)
    grad = problem.objective.grad(x)
    x_bar = fs.lmo_l1(grad, 0.5)
    assert d.tobytes() == (x_bar - x).tobytes()
    expected = float(grad @ (x - x_bar)) + problem.composite.value(x) \
        - problem.composite.value(x_bar)
    assert gap == pytest.approx(expected, abs=1e-15)


_GAP_ENTRIES = st.one_of(st.floats(-1e3, 1e3),
                         st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5, 1e-300]))


def _gap_sets(n: int) -> dict:
    return {"simplex": Simplex(n), "l1_ball": L1Ball(n, 1.5), "l2_ball": L2Ball(n, 0.5),
            "box": Box(n, np.full(n, -1.0), np.full(n, 2.0))}


@given(kind=st.sampled_from(["simplex", "l1_ball", "l2_ball", "box"]),
       entries=st.lists(st.tuples(_GAP_ENTRIES, _GAP_ENTRIES), min_size=1, max_size=8),
       at_x_bar=st.booleans(),
       lam=st.sampled_from([None, 0.3, 2.0]))
@example(kind="simplex", entries=[(1.0, 0.0)], at_x_bar=True, lam=None)
@example(kind="simplex", entries=[(-1.0, 0.0)], at_x_bar=True, lam=None)
@example(kind="l1_ball", entries=[(-2.5, 0.0), (0.0, -0.0)], at_x_bar=True, lam=None)
@example(kind="l1_ball", entries=[(0.1, 0.0)], at_x_bar=True, lam=0.3)
@settings(max_examples=300)
def test_gap_is_bitwise_the_product_with_x_minus_x_bar(kind, entries, at_x_bar, lam):
    # the row takes gap = 0.0 - <grad, d> with d = x_bar - x; the reference is
    # <grad, x - x_bar> (+ g(x) - g(x_bar)), signed zeros included
    grad = np.array([c for c, _ in entries])
    x = np.array([v for _, v in entries])
    composite = None if lam is None else CompositePart(lam)
    problem = Problem(_gap_sets(grad.size)[kind], Quadratic(np.zeros(grad.size)),
                      composite)
    x_bar = (problem.feasible_set.lmo(grad) if composite is None
             else problem.feasible_set.lmo_l1(grad, composite.lam))
    if at_x_bar:
        x = x_bar.copy()  # a zero gap
    want = float(grad @ (x - x_bar))
    g_x = None
    if composite is not None:
        g_x = composite.value(x)
        want = want + g_x - composite.value(x_bar)
    x_arg, grad_arg = x.copy(), grad.copy()
    gap, slope, d = _gap(problem, x, grad, g_x)
    assert type(gap) is float and type(slope) is float
    assert np.float64(gap).tobytes() == np.float64(want).tobytes()
    assert d.tobytes() == (x_bar - x).tobytes()
    # the slope a line search reads in the gradient's place
    assert np.float64(slope).tobytes() == np.float64(float(grad.dot(d))).tobytes()
    # d is written into the oracle's answer, never into an argument
    assert x.tobytes() == x_arg.tobytes() and grad.tobytes() == grad_arg.tobytes()


def test_composite_rows_evaluate_g_once_at_the_iterate(monkeypatch):
    fs = Box(3, np.full(3, -1.0), np.full(3, 1.0))
    problem = Problem(fs, Quadratic(np.array([0.9, -0.4, 0.05])), CompositePart(0.5))
    x0 = np.array([-1.0, 1.0, -1.0])
    calls = []
    value = CompositePart.value
    monkeypatch.setattr(CompositePart, "value",
                        lambda self, x: calls.append(1) or value(self, x))
    trace = solve(problem, Harmonic(2.0), x0=x0, stop=StopRule(max_iter=20))
    monkeypatch.undo()
    # g(x_k) and g(x_bar_k) per row; the final objective is the last row's
    assert len(calls) == 2 * len(trace.rows)
    assert (np.float64(trace.final_obj).tobytes()
            == np.float64(problem.phi(trace.final_x)).tobytes())
    for x, (obj, gap, _, _) in zip(replay_iterates(problem, x0, trace), trace.rows):
        assert obj.tobytes() == np.float64(problem.phi(x)).tobytes()
        assert gap.tobytes() == np.float64(fw_gap(problem, x)[0]).tobytes()


# --- composite oracle -----------------------------------------------------------------

def test_composite_lmo_box_l1_brute_force_grid():
    fs = Box(3, np.array([-1.0, -0.5, -2.0]), np.array([0.5, 1.0, 1.0]))
    g = CompositePart(0.7)
    rng = np.random.default_rng(11)
    grid = np.linspace(-2.0, 1.0, 3001)
    for _ in range(25):
        c = rng.normal(size=3) * rng.choice([0.3, 1.0, 3.0])
        s = fs.lmo_l1(c, g.lam)
        assert fs.contains(s, 1e-12)
        for i in range(3):
            pts = grid[(grid >= fs.lower[i]) & (grid <= fs.upper[i])]
            vals = c[i] * pts + 0.7 * np.abs(pts)
            best = float(vals.min())
            got = c[i] * s[i] + 0.7 * abs(s[i])
            assert got <= best + 1e-6


def test_composite_lmo_prefers_zero_only_strictly():
    fs = Box(1, np.array([-1.0]), np.array([1.0]))
    g = CompositePart(1.0)
    # cost +1: endpoint value at -1 is -1+1 = 0, ties the zero candidate;
    # the endpoint wins ties so the oracle stays extreme-point-valued
    s = fs.lmo_l1(np.array([1.0]), g.lam)
    assert s[0] == -1.0
    # cost +0.5: endpoint value 0.5 > 0, zero wins strictly
    s = fs.lmo_l1(np.array([0.5]), g.lam)
    assert s[0] == 0.0
    # the L1 ball follows the same rule: ||c||_inf = lam ties the vertex with
    # the origin and keeps the vertex; ||c||_inf < lam hands the win to zero
    ball = L1Ball(2, 2.0)
    assert np.array_equal(ball.lmo_l1(np.array([0.5, -1.0]), g.lam), [0.0, 2.0])
    assert np.array_equal(ball.lmo_l1(np.array([0.5, -0.75]), g.lam), [0.0, 0.0])


@given(kind=st.sampled_from(["simplex", "l1_ball", "l2_ball"]),
       d=st.integers(1, 30),
       lam_exp=st.integers(-3, 3),
       c_exp=st.integers(-3, 3),
       r_exp=st.integers(-2, 2),
       seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=200, deadline=None)
def test_composite_lmo_meets_a_weak_duality_bound(kind, d, lam_exp, c_exp, r_exp, seed):
    rng = np.random.default_rng(seed)
    lam = 10.0 ** lam_exp * rng.uniform(0.5, 2.0)
    c = 10.0 ** c_exp * rng.standard_normal(d)
    r = 10.0 ** r_exp
    fs = {"simplex": Simplex(d), "l1_ball": L1Ball(d, r), "l2_ball": L2Ball(d, r)}[kind]
    x = fs.lmo_l1(c, lam)
    assert fs.contains(x, 1e-12 * max(r, 1.0))
    value = float(c @ x) + lam * float(np.abs(x).sum())
    # lam*||y||_1 >= <u, y> on the whole set whenever ||u||_inf <= lam, so the
    # plain oracle's value for c + u bounds the composite minimum from below
    # (on the simplex ||y||_1 = <1, y>, so u = lam*1 is tight)
    u = np.full(d, lam) if kind == "simplex" else np.clip(-c, -lam, lam)
    w = c + u
    bound = float(w @ fs.lmo(w))
    scale = float(np.abs(c) @ np.abs(x)) + lam * float(np.abs(x).sum())
    assert abs(value - bound) <= 1e-12 * max(scale, abs(bound))


def test_composite_solve_is_monotone_under_line_search():
    fs = Box(2, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    problem = Problem(fs, Quadratic(np.array([0.9, -1.5])), CompositePart(0.5))
    trace = solve(problem, LineSearch(1e-10, 200), x0=np.array([-1.0, -1.0]),
                  stop=StopRule(max_iter=60))
    objs = trace.objs
    assert np.all(np.diff(objs) <= 1e-12)


# --- projected-gradient baseline ---------------------------------------------------------

def test_gpa_unit_step_on_simplex_quadratic_hits_optimum():
    problem = _simplex_quadratic(10)
    trace = solve(problem, ProjectedGradient(1.0), np.eye(10)[0], StopRule(200))
    assert trace.reason == REASON_FINITE_TERMINATION
    assert trace.final_obj == pytest.approx(0.05, abs=1e-12)
    # finite termination keeps x, so the last row's objective is phi(final_x)
    assert trace.final_obj == problem.phi(trace.final_x)
    assert np.allclose(trace.final_x, np.full(10, 0.1), atol=1e-12)


def test_gpa_rejects_bad_steps_and_composite_problems():
    problem = _simplex_quadratic(3)
    with pytest.raises(ValueError, match=r"step must lie in \(0, 2/L\)"):
        solve(problem, ProjectedGradient(2.0), np.eye(3)[0], StopRule(10))
    fs = Box(2, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    comp = Problem(fs, Quadratic(np.zeros(2)), CompositePart(0.5))
    with pytest.raises(ValueError, match="composite"):
        solve(comp, ProjectedGradient(1.0), np.zeros(2), StopRule(10))


def test_gpa_evaluates_one_gradient_per_row():
    problem = _simplex_quadratic(4)
    calls = []
    objective = problem.objective
    counted = dataclasses.replace(
        objective, grad=lambda x: calls.append(1) or objective.grad(x))
    problem = dataclasses.replace(problem, objective=counted)
    trace = solve(problem, ProjectedGradient(0.5), np.eye(4)[0], StopRule(10))
    assert len(trace.rows) == 11
    assert len(calls) == 11


@pytest.mark.parametrize("kind, feasible_set, x0, spec_problem", [
    (Quadratic([0.5, 0.2, 0.3]), Simplex(3), [1.0, 0.0, 0.0],
     {"set": {"kind": "simplex", "dim": 3},
      "objective": {"kind": "quadratic", "b": [0.5, 0.2, 0.3]}}),
    (PowerNorm(1.5, [0.5, 0.2, 0.3]), Simplex(3), [1.0, 0.0, 0.0],
     {"set": {"kind": "simplex", "dim": 3},
      "objective": {"kind": "power_norm", "sigma": 1.5, "b": [0.5, 0.2, 0.3]}}),
    (TAlpha(1.5), Box(1, [0.0], [1.0]), [1.0],
     {"set": {"kind": "box", "dim": 1, "lower": [0.0], "upper": [1.0]},
      "objective": {"kind": "t_alpha", "alpha": 1.5}}),
    (NesterovMax(), L2Ball(2, 1.0), [1.0, 0.0],
     {"set": {"kind": "l2_ball", "dim": 2, "radius": 1.0},
      "objective": {"kind": "nesterov_max"}}),
    (Linear([1.0, -2.0, 0.5]), L2Ball(3, 1.0), [0.0, 0.0, 1.0],
     {"set": {"kind": "l2_ball", "dim": 3, "radius": 1.0},
      "objective": {"kind": "linear", "c": [1.0, -2.0, 0.5]}}),
], ids=["quadratic", "power_norm", "t_alpha", "nesterov_max", "linear"])
def test_every_objective_kind_takes_one_value_and_one_grad_call_per_open_loop_row(
        kind, feasible_set, x0, spec_problem):
    # a problem built on a kind holds its record, and keeps a record as given
    problem = Problem(feasible_set, kind)
    record = problem.objective
    assert isinstance(record, Objective)
    assert Problem(feasible_set, record).objective is record
    spec = parse_spec({"name": "by_class", "seed": 0, "problem": spec_problem,
                       "rule": {"kind": "harmonic", "c": 2.0}, "x0": x0,
                       "stop": {"max_iter": 20}})
    from_spec = build_problem(spec)
    np.testing.assert_equal(problem.descriptor(), from_spec.descriptor())

    # the seam bench/tracer.py counts through: callables swapped into the record
    calls = {"value": 0, "grad": 0}

    def counted(name, fn):
        def call(x):
            calls[name] += 1
            return fn(x)
        return call

    watched = dataclasses.replace(record, value=counted("value", record.value),
                                  grad=counted("grad", record.grad))
    trace = solve(dataclasses.replace(problem, objective=watched), Harmonic(2.0),
                  np.array(x0), StopRule(max_iter=20))
    assert len(trace.rows) > 1
    assert calls == {"value": len(trace.rows), "grad": len(trace.rows)}
    spec_trace = solve(from_spec, Harmonic(2.0), np.array(x0), StopRule(max_iter=20))
    assert trace.config_fingerprint == spec_trace.config_fingerprint


def test_gpa_gamma_column_is_the_fixed_step():
    problem = _simplex_quadratic(4)
    trace = solve(problem, ProjectedGradient(0.5), np.eye(4)[0], StopRule(5))
    for gamma in trace.rows[:-1, 2]:
        assert gamma == 0.5


# --- iterate feasibility and determinism ---------------------------------------------------

@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25)
def test_all_iterates_stay_feasible(seed):
    rng = np.random.default_rng(seed)
    fs = L2Ball(3, 1.0)
    problem = Problem(fs, Quadratic(rng.normal(scale=0.4, size=3)))
    x0 = fs.sample(seed)
    trace = solve(problem, Harmonic(2.0), x0=x0, stop=StopRule(max_iter=30))
    for x, gap in zip(replay_iterates(problem, x0, trace), trace.rows[:, 1]):
        assert fs.contains(x, 1e-9)
        assert gap >= -1e-12  # oracle roundoff only


def test_identical_configs_produce_bit_identical_traces():
    problem = _simplex_quadratic(5)
    kw = dict(rule=Harmonic(2.0), x0=np.eye(5)[0], stop=StopRule(max_iter=40), seed=3)
    a = solve(problem, **kw)
    b = solve(problem, **kw)
    assert a.config_fingerprint == b.config_fingerprint
    assert trace_to_csv(a) == trace_to_csv(b)


def test_fingerprint_tracks_every_config_field():
    problem = _simplex_quadratic(3)
    x0 = np.eye(3)[0]
    base = solve(problem, Harmonic(2.0), x0=x0, stop=StopRule(max_iter=5), seed=1)
    other_seed = solve(problem, Harmonic(2.0), x0=x0, stop=StopRule(max_iter=5), seed=2)
    other_stop = solve(problem, Harmonic(2.0), x0=x0, stop=StopRule(max_iter=6), seed=1)
    other_rule = solve(problem, Harmonic(3.0), x0=x0, stop=StopRule(max_iter=5), seed=1)
    fps = {base.config_fingerprint, other_seed.config_fingerprint,
           other_stop.config_fingerprint, other_rule.config_fingerprint}
    assert len(fps) == 4


def test_config_fingerprint_canonicalizes_float_rendering():
    fp1 = config_fingerprint({"kind": "simplex", "dim": 3}, {"kind": "harmonic", "c": 2.0},
                             np.array([1.0, 0.0, 0.0]), {"max_iter": 5, "gap_tol": 0.0}, 0)
    fp2 = config_fingerprint({"kind": "simplex", "dim": 3}, {"kind": "harmonic", "c": 2.0},
                             [1.0, 0.0, 0.0], {"gap_tol": 0.0, "max_iter": 5}, 0)
    assert fp1 == fp2


@given(problem=st.dictionaries(st.text(max_size=3), json_values(), max_size=3),
       b=st.lists(json_floats(), max_size=6), x0=st.lists(json_floats(), max_size=6),
       entry=json_floats().filter(lambda v: v == v),  # NaN: its neighbour is itself
       at=st.integers(0, 6), in_x0=st.booleans(), seed=st.one_of(st.none(), st.integers()))
@example(problem={}, b=[], x0=[], entry=0.0, at=0, in_x0=True, seed=None)
@example(problem={}, b=[], x0=[], entry=-0.0, at=0, in_x0=False, seed=None)
@settings(max_examples=60)
def test_config_fingerprint_repeats_and_misses_on_one_bit(problem, b, x0, entry, at,
                                                          in_x0, seed):
    rule, stop = {"kind": "harmonic"}, {"max_iter": 3}

    def fingerprint_and_reference():
        problem_desc = {**problem, "b": b}  # b a list, x0 an array: both vector leaves
        canon = canon_bytes({"problem": problem_desc, "rule": rule, "x0": x0, "stop": stop,
                             "seed": seed})
        return (config_fingerprint(problem_desc, rule, np.array(x0), stop, seed),
                hashlib.sha256(canon).hexdigest())

    vector = x0 if in_x0 else b
    vector.insert(at, entry)
    got, want = fingerprint_and_reference()
    assert got == want
    # a signed zero flips its sign, any other float moves one ulp toward 0
    vector[min(at, len(vector) - 1)] = -entry if entry == 0 else float(np.nextafter(entry, 0.0))
    other, other_want = fingerprint_and_reference()
    assert other == other_want != want


_ONE_VECTOR = np.random.default_rng(5).standard_normal(2049)
_ONE_VECTOR[::7] = np.resize([0.0, -0.0, 5e-324, -math.inf, math.nan, 1e308, 0.1],
                              len(_ONE_VECTOR[::7]))


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_one_configuration_has_one_fingerprint_in_every_vector_form(monkeypatch, block):
    monkeypatch.setattr(fwlab.geometry, "BLOCK", block)

    def forms(v):
        return (v.tolist(), [np.float64(u) for u in v], tuple(v.tolist()), v,
                v.astype(">f8"), v[::-1][::-1])

    def fingerprints(v):
        return {config_fingerprint({"kind": "quadratic", "b": b}, {"kind": "harmonic"}, x0,
                                   {"max_iter": 3}, 1)
                for b, x0 in zip(forms(v), forms(v)[::-1])}

    base = fingerprints(_ONE_VECTOR)
    assert len(base) == 1
    for i in (0, 7, 1, 2048):  # 0.0 against -0.0 and ulp steps, at both ends
        flipped = _ONE_VECTOR.copy()
        flipped.view(np.uint64)[i] ^= np.uint64(1 << (63 if i % 7 == 0 else 0))
        other = fingerprints(flipped)
        assert len(other) == 1 and other != base


@given(st.one_of(json_values(),
                 st.dictionaries(st.integers(), json_values(), max_size=3),
                 st.dictionaries(json_floats(), st.integers(), max_size=3)))
@settings(max_examples=300)
def test_canonical_json_equals_the_canon_reference(v):
    def canonical(u):
        return b"".join(_canonical_pieces(u))

    if isinstance(v, dict) and any(not isinstance(k, str) for k in v):
        with pytest.raises(TypeError, match="keys must be strings"):
            canonical(v)
        return
    assert canonical(v) == canon_bytes(v)
    assert canonical({"v": v}) == canon_bytes({"v": v})


def test_canonical_json_rejects_keys_that_are_not_strings():
    for key in (1, 1.5, True, None):
        with pytest.raises(TypeError, match="keys must be strings"):
            b"".join(_canonical_pieces({"problem": {key: 2.0}}))


def test_config_fingerprint_at_large_n_peaks_under_50_kb():
    n = 100_000
    rng = np.random.default_rng(0)
    problem_desc = Problem(Simplex(n), Quadratic(rng.normal(size=n))).descriptor()
    x0 = rng.random(n)
    tracemalloc.start()
    try:
        config_fingerprint(problem_desc, Harmonic(2.0).descriptor(), x0,
                           StopRule(10).descriptor(), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one str object per float, as json.dumps of a canonicalized list needs,
    # peaks at 28 MB, and a "%.17g" text of one chunk at about 0.1 MB; the
    # byte walk hashes each chunk of b and x0 from a view of the array
    assert peak < 50_000


# --- CSV round-trip ---------------------------------------------------------------------

def test_trace_csv_header_is_bit_exact():
    trace = solve(_simplex_quadratic(), Harmonic(2.0), x0=np.eye(3)[0],
                  stop=StopRule(max_iter=3))
    text = trace_to_csv(trace)
    assert text.splitlines()[0] == ",".join(TRACE_CSV_COLUMNS) == "k,obj,gap,gamma,step_norm"


def test_trace_csv_round_trips_exact_floats(tmp_path):
    trace = solve(_simplex_quadratic(7), Harmonic(2.0), x0=np.eye(7)[0],
                  stop=StopRule(max_iter=50))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_CSV_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == len(trace.rows)
    for i, (want, (k, obj, gap, gamma, step_norm)) in enumerate(zip(trace.rows.tolist(), rows)):
        obj, gap, gamma, step_norm = map(float, (obj, gap, gamma, step_norm))
        assert int(k) == i  # the row index
        assert obj == want[0]  # %.17g reproduces doubles exactly
        assert gap == want[1]
        assert gamma == want[2]
        assert step_norm == want[3]
