"""Projection-free solver loops with gap certificates and trace recording.

The main iteration picks the feasible point minimizing the linearized
objective (plus the composite term when present), then steps toward it by a
convex combination. Feasibility of every iterate is structural: no projection
happens and the update is never renormalized. A fixed-step projected-gradient
baseline is one more rule of the same loop, so both record the same trace rows.
"""
from __future__ import annotations

import hashlib
import json
import math
from array import array
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .geometry import FeasibleSet, Vector, VertexPolytope, l2_norm
from .objectives import CompositePart, Objective, _Kind
from .schema import Count, NonNegative, Tagged, _show, field_dict
from .stepsize import LineSearch, StepsizeRule, line_search, step_toward

REASON_MAX_ITER = "max_iter"
REASON_GAP_TOL = "gap_tol"
REASON_FINITE_TERMINATION = "finite_termination"

ROW_COLUMNS = ("obj", "gap", "gamma", "step_norm")
TRACE_CSV_COLUMNS = ("k",) + ROW_COLUMNS

# items per format call when an artifact or a fingerprint's canonical text
# is rendered: floats, or a bounds CSV's (k, value) pairs; a trace CSV
# formats RENDER_CHUNK // 5 rows a call. Pieces stream to their file or hash,
# so a rendering holds O(RENDER_CHUNK) memory whatever the vector's length
RENDER_CHUNK = 1024


@dataclass(frozen=True)
class Problem:
    """min f(x) + g(x) over the set, f a kind (held as its `Objective` record) or a
    record (kept as given). Building one runs `objective.fit`; f's minimizer there,
    `x_star` (None if unknown), and f(x_star) are found on first read, once."""

    feasible_set: FeasibleSet
    objective: Objective
    composite: CompositePart | None = None

    def __post_init__(self):
        if isinstance(self.objective, _Kind):
            object.__setattr__(self, "objective", self.objective.objective())
        elif not isinstance(self.objective, Objective):
            raise ValueError(f"'objective' must be an objective kind or its record, got "
                             f"{_show(self.objective)}; objective_from_descriptor builds "
                             f"a kind from a descriptor")
        object.__setattr__(self, "_x_star", cache(self.objective.fit(self.feasible_set)))
        if self.composite is not None and isinstance(self.feasible_set, VertexPolytope):
            raise ValueError("composite terms need a set with an exact composite oracle "
                             "(simplex, l1_ball, l2_ball or box), not vertex_polytope")

    x_star = property(lambda self: self._x_star())

    @cached_property
    def f_star(self) -> float | None:
        return None if self.x_star is None else self.objective.value(self.x_star)

    def phi(self, x: Vector) -> float:
        v = self.objective.value(x)
        if self.composite is not None:
            v += self.composite.value(x)
        return v

    def phi_into(self, trial: Vector) -> float:
        """phi(trial), the same bits, from a scratch array that f may overwrite:
        g(trial) is taken first, then f by the kind's `value_into`. A record
        whose `value` is not the kind's own method, as `dataclasses.replace`
        swaps one in, gets `phi` itself, so every value goes through it."""
        value_into = self._value_into
        if value_into is None:
            return self.phi(trial)
        if self.composite is None:
            return value_into(trial)
        g = self.composite.value(trial)
        return value_into(trial) + g

    @cached_property
    def _value_into(self) -> Callable[[Vector], float] | None:
        """The kind's `value_into` while `objective.value` is its bound `value`."""
        value = self.objective.value
        kind = getattr(value, "__self__", None)
        value_into = getattr(kind, "value_into", None)
        return value_into if value_into is not None and value == kind.value else None

    def descriptor(self) -> dict:
        return {
            "set": self.feasible_set.descriptor(),
            "objective": self.objective.descriptor(),
            "composite": None if self.composite is None else self.composite.descriptor(),
        }


class StopRule(Tagged):
    """When a solve stops: after row `max_iter`, or once the gap is at most
    `gap_tol`; a gap_tol of 0 disables gap-based stopping."""

    max_iter: Count
    gap_tol: NonNegative = 0.0

    def descriptor(self) -> dict:
        return field_dict(self)  # untagged: a spec's stop section has no kind


@dataclass(frozen=True, eq=False)
class SolveTrace:
    """A solve's rows, one per iterate, and how it ended.

    `rows` is a read-only (K, 4) float64 array whose columns are ROW_COLUMNS:
    32 bytes a row. Row k holds the values at x_k, so a row's index is its k;
    K >= 1, since a solve records row 0 whatever stops it. Any sequence of
    4-field rows is accepted and converted; an array of float64 rows is kept
    as it is, behind a read-only view.
    """

    rows: np.ndarray
    reason: str
    final_x: Vector
    config_fingerprint: str = ""

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(ROW_COLUMNS) or not len(rows):
            raise ValueError(f"trace rows must be a (K, {len(ROW_COLUMNS)}) array "
                             f"with K >= 1, got shape {rows.shape}")
        rows = rows.view()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    # the rows again, kept only because bench/tracer.py counts them with
    # len(trace.iterations); it goes when the benchmark reads len(trace.rows)
    @property
    def iterations(self) -> np.ndarray:
        return self.rows

    # a view of its column, made once, read-only like every column of the rows
    @cached_property
    def objs(self) -> np.ndarray:
        return self.rows[:, 0]

    @property
    def final_obj(self) -> float:  # phi(final_x): the last row is recorded there
        return float(self.rows[-1, 0])


# the configuration rendered last, as (key, fingerprint): a run hashes its
# configuration in the solve, in the drift check and in the summary, and the
# repeats walk the key instead of rendering the text again. A hit returns
# what a render would, so callers share this state unseen but in time; one
# entry, so a sequence of runs keeps nothing of the configurations before
_last_rendered: tuple[bytes, str] = (b"", "")


def config_fingerprint(problem_desc: dict, rule_desc: dict, x0, stop_desc: dict,
                       seed: int | None) -> str:
    """sha256 over a canonical rendering of the full solve configuration.

    The canonical form is compact JSON (separators "," and ":") with the keys
    of every object sorted and every float written as the string of its
    "%.17g" rendering, so equal doubles always hash alike; a float64 array
    renders as the nested list of its floats. Keys must be strings. The
    rendering streams into the hash in pieces, so no whole text is held.

    The last configuration rendered is remembered, one entry only, under a
    key: the sha256 of the same walk with each float vector written as its
    raw float64 bytes instead of its text. Identical configurations hashed
    back to back thus render once; a configuration that differs in any bit,
    -0.0 against 0.0 included, misses and renders afresh.
    """
    global _last_rendered
    payload = {
        "problem": problem_desc,
        "rule": rule_desc,
        "x0": np.asarray(x0, dtype=float),
        "stop": stop_desc,
        "seed": seed,
    }
    key = _sha256(_canonical_pieces(payload, _vector_bits)).digest()
    last_key, fingerprint = _last_rendered
    if key != last_key:
        fingerprint = _sha256(_canonical_pieces(payload)).hexdigest()
        _last_rendered = (key, fingerprint)
    return fingerprint


def _sha256(pieces):
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece.encode() if isinstance(piece, str) else piece)
    return digest


def chunks(v):
    """v in consecutive slices of RENDER_CHUNK items; an array's come out as lists."""
    for start in range(0, len(v), RENDER_CHUNK):
        chunk = v[start:start + RENDER_CHUNK]
        yield chunk.tolist() if isinstance(chunk, np.ndarray) else chunk


def _vector_text(v):
    """A float vector's canonical text, one format call per chunk."""
    lead = "["
    for chunk in chunks(v):
        yield lead + ",".join(['"%.17g"'] * len(chunk)) % tuple(chunk)
        lead = ","
    yield "]" if len(v) else "[]"


def _vector_bits(v):
    """A float vector for the memo key: per chunk, a NUL tag, the chunk's
    length and its raw float64 bytes. A slice of an array goes in as it is; a
    list goes in converted a chunk at a time.

    The canonical text holds no NUL, as JSON escapes it in strings, so the
    key's bytes parse back into the walk's text pieces and float chunks
    alone: equal keys mean equal canonical text.
    """
    yield "["
    for start in range(0, len(v), RENDER_CHUNK):
        chunk = np.ascontiguousarray(v[start:start + RENDER_CHUNK], dtype=np.float64)
        yield b"\0" + len(chunk).to_bytes(8, "little")
        yield chunk
    yield "]"


def _canonical_pieces(v, vector=_vector_text):
    """The canonical text of v, in pieces; a float vector, a list of plain
    floats or a 1-D float64 array, goes through `vector`, which renders its
    text unless the walk computes a memo key."""
    if isinstance(v, float):
        yield '"%.17g"' % v
    elif isinstance(v, dict):
        for k in v:
            if not isinstance(k, str):
                raise TypeError(f"fingerprint keys must be strings, got {k!r}")
        lead = "{"
        for k in sorted(v):
            yield lead + json.dumps(k) + ":"
            yield from _canonical_pieces(v[k], vector)
            lead = ","
        yield "}" if v else "{}"
    elif isinstance(v, np.ndarray) and (v.dtype != np.float64 or v.ndim == 0):
        yield from _canonical_pieces(v.tolist(), vector)
    elif (isinstance(v, np.ndarray) and v.ndim == 1) or \
            (isinstance(v, (list, tuple)) and v and set(map(type, v)) == {float}):
        yield from vector(v)
    elif isinstance(v, (list, tuple, np.ndarray)):  # an array here is 2-D or more
        lead = "["
        for u in v:
            yield lead
            yield from _canonical_pieces(u, vector)
            lead = ","
        yield "]" if len(v) else "[]"
    else:
        yield json.dumps(v)


def _gap(problem: Problem, x: Vector, grad: Vector,
         g_x: float | None) -> tuple[float, float, Vector]:
    """The gap <grad, x - x_bar> (+ g(x) - g(x_bar)) at x, given g_x = g(x), the
    slope <grad, d> and the direction d = x_bar - x, written into the array the
    oracle returned.

    g(x_bar) is taken before d overwrites x_bar. x - x_bar is -d elementwise, so
    <grad, x - x_bar> is -<grad, d>; `0.0 -` turns a zero of either sign into
    +0.0, which is what <grad, x - x_bar> gives.
    """
    composite = problem.composite
    if composite is None:
        d = problem.feasible_set.lmo(grad)
        np.subtract(d, x, out=d)
        slope = float(grad.dot(d))
        return 0.0 - slope, slope, d
    d = problem.feasible_set.lmo_l1(grad, composite.lam)
    g_bar = composite.value(d)
    np.subtract(d, x, out=d)
    slope = float(grad.dot(d))
    return (0.0 - slope) + g_x - g_bar, slope, d


def _searcher(problem: Problem, rule: LineSearch
              ) -> Callable[[int, Vector, float, Vector], tuple[float, Vector]]:
    """`advance(k, x, slope, d)` of a line search: gamma_k and x_{k+1}, given
    x_k, the slope <f'(x_k), d_k> and the direction d_k = x_bar_k - x_k to the
    linear-subproblem minimizer, with x_{k+1} written into d. The search reads
    only that number of the gradient, so it takes no gradient to keep alive."""
    # the closed form minimizes f alone, so it serves only when phi = f
    segment_min = problem.objective.segment_min if problem.composite is None else None
    # each search writes its trial points x + t * d into one array, made at
    # its first trial and dropped when it returns, and phi_into evaluates f in
    # it: it is never alive beside a row's gradient or oracle call, so a row's
    # peak is no higher under a search than open-loop
    point = None

    def phi_along(x: Vector, d: Vector, t: float) -> float:
        nonlocal point
        if point is None:
            point = np.empty_like(x)
        np.multiply(d, t, out=point)
        return problem.phi_into(np.add(x, point, out=point))

    def searched(k: int, x: Vector, slope: float, d: Vector) -> tuple[float, Vector]:
        nonlocal point
        gamma_star = None if segment_min is None else segment_min(slope, d)
        try:
            gamma_k = line_search(lambda t: phi_along(x, d, t), rule, gamma_star)
        except ValueError as exc:
            raise ValueError(f"line search failed at iteration {k}: {exc}") from exc
        finally:
            point = None
        return gamma_k, step_toward(x, gamma_k, d)

    return searched


def solve(problem: Problem, rule: StepsizeRule, x0, stop: StopRule,
          seed: int | None = None) -> SolveTrace:
    """Run the iteration from x0 under a rule whose `validate` accepts the
    problem and the stop rule.

    x_{k+1} = x_k + gamma_k (x_bar_k - x_k), with gamma_k from the open-loop
    schedule or from a line search on the segment (in closed form where the
    objective has one and the problem no composite term); the projected-gradient
    baseline steps to P(x_k - step * grad) instead, its gap column still the
    linear-subproblem certificate. Row k records the values at x_k; the final
    point is `final_x`. Stops on a gap certificate (only when
    stop.gap_tol > 0), on the iteration budget, or on an exact fixed point
    x_{k+1} == x_k (bitwise), which sharp minima produce. The `seed` enters
    only the config fingerprint; the loop itself draws no randomness.

    A row works in place where the arithmetic allows it: d = x_bar - x is
    written into the fresh array the oracle returned and a Frank-Wolfe step
    writes x_{k+1} into d, so an open-loop row holds three n-vectors (x, the
    gradient and d, then x, d and x_{k+1} - x). A line search reads only the
    slope <grad, d> of the gradient, which the gap already takes, so the
    gradient is dropped before its first trial point, and `Problem.phi_into`
    evaluates f in the trial array itself: a line-search row also holds three,
    x, d and the trial array (a swapped-in `value` adds its own temporaries).
    Each value is the same bits as the out-of-place expression. The loop never
    writes into x, so a C-contiguous float64 x0 is the first iterate itself,
    not a copy; `final_x` never shares x0's memory.
    """
    rule.validate(problem, stop)
    # a strided or non-float64 x0 is converted into a copy
    x = np.ascontiguousarray(x0, dtype=float)
    del x0  # once a step's result replaces x, no name here keeps x0 alive
    if not problem.feasible_set.contains(x, 1e-9):
        raise ValueError("x0 is not feasible (tolerance 1e-9)")
    # rendered before the loop, while no row's vectors are alive
    fingerprint = config_fingerprint(problem.descriptor(), rule.descriptor(), x,
                                     stop.descriptor(), seed)
    # every other rule steps itself; the search stays here, where bench/tracer.py
    # counts it at solver.line_search, until ROADMAP item 1 moves that seam
    search = isinstance(rule, LineSearch)
    advance = _searcher(problem, rule) if search else rule.stepper(problem, stop.max_iter)

    composite = problem.composite
    g_x = None
    rows = array("d")  # the trace's rows, four floats each, in column order
    for k in range(stop.max_iter + 1):
        # phi(x) with g(x) taken once, for the objective and the gap alike
        obj_k = problem.objective.value(x)
        if composite is not None:
            g_x = composite.value(x)
            obj_k += g_x
        if not math.isfinite(obj_k):
            raise ValueError(f"objective value is not finite at iteration {k}: {obj_k}")
        grad = problem.objective.grad(x)
        gap_k, slope, d = _gap(problem, x, grad, g_x)
        if search:  # the slope <grad, d> in the gradient's place, which a search
            grad = slope  # reads alone: the gradient goes before its first trial

        if stop.gap_tol > 0 and gap_k <= stop.gap_tol:
            rows.extend((obj_k, gap_k, 0.0, 0.0))
            reason = REASON_GAP_TOL
            break
        if k == stop.max_iter:
            rows.extend((obj_k, gap_k, 0.0, 0.0))
            reason = REASON_MAX_ITER
            break

        gamma_k, x_next = advance(k, x, grad, d)
        grad = d = None
        step_norm = l2_norm(x_next - x)
        rows.extend((obj_k, gap_k, gamma_k, step_norm))
        # equal iterates step by 0 (NaN where both hold the same infinity),
        # so a positive step skips the elementwise comparison
        if not step_norm > 0.0 and np.array_equal(x_next, x):
            reason = REASON_FINITE_TERMINATION
            break
        x = x_next

    # the last row holds phi(x): a gap or budget stop breaks before the step,
    # and finite termination keeps x. Past row 0, x is a step's fresh result;
    # at row 0 it may be the caller's x0, so the final point is its copy;
    # the array wraps the buffer's memory, no copy
    return SolveTrace(np.frombuffer(rows).reshape(-1, len(ROW_COLUMNS)), reason,
                      x.copy() if k == 0 else x, fingerprint)


def _trace_csv_pieces(trace: SolveTrace):
    """CSV rendering with 17-significant-digit floats (exact round-trip), in
    pieces of RENDER_CHUNK // 5 rows, one format call each; k is the row
    index, an integral float beside each chunk, which %d writes as an int."""
    yield ",".join(TRACE_CSV_COLUMNS) + "\n"
    step = RENDER_CHUNK // len(TRACE_CSV_COLUMNS)
    for start in range(0, len(trace.rows), step):
        chunk = trace.rows[start:start + step]
        cells = np.column_stack((np.arange(start, start + len(chunk), dtype=float), chunk))
        yield ("%d,%.17g,%.17g,%.17g,%.17g\n" * len(chunk)) % tuple(cells.ravel().tolist())


def trace_to_csv(trace: SolveTrace) -> str:
    """The text `write_trace_csv` writes."""
    return "".join(_trace_csv_pieces(trace))


def write_trace_csv(trace: SolveTrace, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(_trace_csv_pieces(trace))


def trace_summary(trace: SolveTrace) -> dict:
    """Summary: termination, final values, provenance. Every value is JSON-ready
    but `final_x`, the final point's float64 array itself; the summary writer
    renders it a chunk at a time, so no list of n Python floats is built."""
    return {
        "n_iterations": len(trace.rows),
        "termination": {
            "reason": trace.reason,
            "final_x": trace.final_x,
            "final_obj": trace.final_obj,
        },
        "config_fingerprint": trace.config_fingerprint,
        "final_gap": float(trace.rows[-1, 1]),
    }
