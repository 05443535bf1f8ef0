import json
import math
import struct

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def fd_grad(f, x, h=1e-6):
    """Central finite-difference gradient, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def small_sets():
    """One instance of every feasible-set kind, low-dimensional."""
    from fwlab import Box, L1Ball, L2Ball, Simplex, VertexPolytope

    return [
        Simplex(3),
        L1Ball(3, 1.5),
        L2Ball(3, 2.0),
        Box(3, np.array([-1.0, 0.0, -2.0]), np.array([1.0, 2.0, 0.5])),
        VertexPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])),
    ]


def projectable_sets():
    """The set kinds whose Euclidean projection is implemented."""
    return [s for s in small_sets() if type(s).__name__ != "VertexPolytope"]


def fw_gap(problem, x):
    """The gap certificate at x and the direction d = x_bar - x, as a solve row
    takes them; for convex problems the gap bounds the suboptimality at x."""
    from fwlab.solver import _gap

    g_x = None if problem.composite is None else problem.composite.value(x)
    gap, _, d = _gap(problem, x, problem.objective.grad(x), g_x)
    return gap, d


def replay_iterates(problem, x0, trace):
    """The iterates x_0, x_1, ... behind a projection-free trace, one per row.

    Trace rows keep no iterates, so this rebuilds them from the gamma column:
    x <- x + gamma_k * d_k for every row but the last, with d_k = x_bar_k - x
    from the solver's own gap step. The replay must land on the reported final
    point bitwise.
    """
    x = np.array(x0, dtype=float)
    iterates = [x]
    for gamma in trace.rows[:-1, 2].tolist():
        x = x + gamma * fw_gap(problem, x)[1]
        iterates.append(x)
    assert np.array_equal(x, trace.final_x)
    return iterates


# the floats a renderer must keep apart: signed zeros, infinities, NaN, the
# subnormal range and the top of the range
_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320,
                2.2250738585072009e-308, 1e308, -1.7976931348623157e308, 0.1]


def json_floats():
    return st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())


def json_values():
    """Nested JSON-ready values in the shapes artifacts hold.

    Float lists (plain, np.float64 and mixed with ints and bools), lists of
    float lists (polytope vertices), tuples, empty containers, and strings
    with quotes, backslashes and non-ASCII text.
    """
    floats = json_floats()
    numbers = st.one_of(floats, floats.map(np.float64), st.integers(), st.booleans())
    text = st.one_of(st.sampled_from(["", ", ", 'a "q", \\b', "é→\n"]),
                     st.text(st.one_of(st.sampled_from('"\\, é→\n\u2028'), st.characters())))
    float_lists = st.lists(floats, max_size=6)
    leaves = st.one_of(numbers, text, st.none(), float_lists,
                       st.lists(numbers, max_size=6), st.lists(float_lists, max_size=3),
                       st.lists(st.one_of(numbers, text, st.none()), max_size=6))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(text, kids, max_size=4),
    ), max_leaves=12)


def canon_bytes(v) -> bytes:
    """The fingerprint's canonical bytes, one-shot: compact JSON with sorted
    keys and every float scalar as the string of its "%.17g" rendering, but a
    nonempty list or tuple of floats (np.float64 included) as a NUL byte, its
    length as 8 little-endian bytes and its float64 bytes; an array is its
    list. This is the reference the streamed `_canonical_pieces` must match."""
    if isinstance(v, np.ndarray):
        return canon_bytes(v.tolist())
    if isinstance(v, (list, tuple)) and v and all(isinstance(u, float) for u in v):
        return b"\0" + struct.pack("<Q", len(v)) + np.asarray(v, "<f8").tobytes()
    if isinstance(v, float):
        return ('"%.17g"' % v).encode()
    if isinstance(v, dict):
        return b"{" + b",".join(json.dumps(k).encode() + b":" + canon_bytes(u)
                                for k, u in sorted(v.items())) + b"}"
    if isinstance(v, (list, tuple)):
        return b"[" + b",".join(map(canon_bytes, v)) + b"]"
    return json.dumps(v).encode()
