import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fwlab.geometry
from fwlab import (
    Box,
    L1Ball,
    L2Ball,
    Problem,
    Quadratic,
    Simplex,
    VertexPolytope,
    config_fingerprint,
    set_from_descriptor,
)
from fwlab.geometry import BLOCK, _project_onto_simplex_face, blocks, l2_norm

from conftest import projectable_sets, small_sets
from references import box_lmo_l1, l2_ball_lmo_l1, project_onto_simplex_face

TRIANGLE = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])


# --- linear minimization oracles ---------------------------------------------

def test_simplex_lmo_picks_smallest_cost_vertex():
    s = Simplex(3).lmo(np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(s, [1.0, 0.0, 0.0])


def test_simplex_lmo_tie_takes_lowest_index():
    s = Simplex(3).lmo(np.array([2.0, 2.0, 5.0]))
    assert np.array_equal(s, [1.0, 0.0, 0.0])


def test_l1_ball_lmo_spikes_largest_coordinate():
    s = L1Ball(2, 1.0).lmo(np.array([1.0, -2.0]))
    assert np.array_equal(s, [0.0, 1.0])


def test_l2_ball_lmo_is_antiparallel_boundary_point():
    c = np.array([3.0, -4.0])
    s = L2Ball(2, 2.0).lmo(c)
    assert np.allclose(s, [-1.2, 1.6])
    assert abs(np.linalg.norm(s) - 2.0) < 1e-12


def test_l2_ball_lmo_zero_cost_returns_center():
    assert np.array_equal(L2Ball(3, 1.0).lmo(np.zeros(3)), np.zeros(3))


def test_box_lmo_is_cornerwise():
    box = Box(3, np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]))
    s = box.lmo(np.array([2.0, -3.0, 0.0]))
    # zero cost coordinate resolves to the lower corner
    assert np.array_equal(s, [-1.0, 1.0, -1.0])


_COST_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, math.nan, math.inf, -math.inf]),  # ties
    st.floats(width=64),
)
_BOX_SIDES = [(-1.0, 2.0), (-0.0, 1.0), (0.0, 1.5), (-2.0, -0.0), (-3.0, 0.0)]


@given(st.lists(st.tuples(_COST_ENTRIES, st.sampled_from(_BOX_SIDES)), min_size=1,
                max_size=12))
def test_box_lmo_is_bitwise_the_two_sided_rule(entries):
    c = np.array([e for e, _ in entries])
    lo = np.array([side[0] for _, side in entries])
    hi = np.array([side[1] for _, side in entries])
    box = Box(c.size, lo, hi)
    want = np.where(c > 0, lo, np.where(c < 0, hi, lo))
    assert box.lmo(c).tobytes() == want.tobytes()


# signed zeros at either end, an upper end of -0.0, and ends of equal |y|, at
# which a zero cost ties the two; a cost of -lam on a side in [0, inf), or of
# lam on one in (-inf, 0], ties both ends at 0 too
_L1_BOX_SIDES = _BOX_SIDES + [(-1.0, 1.0), (-2.5, 2.5), (0.5, 2.0), (-3.0, -1.0),
                              (-1.0, 3.0), (-1e-300, 1e300)]
_LAMS = [1e-9, 0.3, 1.0, 5.0]


@st.composite
def composite_oracle_cases(draw):
    lam = draw(st.sampled_from(_LAMS))
    costs = st.one_of(_COST_ENTRIES, st.sampled_from([lam, -lam]))
    entries = draw(st.lists(st.tuples(costs, st.sampled_from(_L1_BOX_SIDES)),
                            min_size=1, max_size=12))
    c = np.array([e for e, _ in entries])
    lower = np.array([side[0] for _, side in entries])
    upper = np.array([side[1] for _, side in entries])
    return c, lower, upper, lam


def _large_composite_oracle_case(n=4099, lam=0.3):
    # thousands of entries: every kind of cost and side, tiled
    rng = np.random.default_rng(0)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.0, math.nan, math.inf, -math.inf, lam, -lam])
    c = np.where(rng.random(n) < 0.5, rng.choice(pool, n), rng.normal(size=n))
    lower, upper = np.array(_L1_BOX_SIDES)[rng.integers(0, len(_L1_BOX_SIDES), n)].T
    return c, lower, upper, lam


@given(composite_oracle_cases(), st.sampled_from([0.5, 1.0, 2.5]))
@example(_large_composite_oracle_case(), 1.5)
def test_composite_oracles_are_bitwise_the_out_of_place_forms(case, radius):
    # the box and l2-ball oracles build their answer in place; every bit must
    # be the plain expressions', and the cost vector is only read
    c, lower, upper, lam = case
    before = c.tobytes()
    with np.errstate(all="ignore"):  # inf and NaN costs
        got = Box(c.size, lower, upper).lmo_l1(c, lam)
        want = box_lmo_l1(lower, upper, c, lam)
        assert got.tobytes() == want.tobytes()
        got = L2Ball(c.size, radius).lmo_l1(c, lam)
        want = l2_ball_lmo_l1(radius, c, lam)
        assert got.tobytes() == want.tobytes()
    assert c.tobytes() == before


@given(st.lists(_COST_ENTRIES, min_size=1, max_size=12))
@example([2.0, 2.0, 5.0])
@example([-1.0, 1.0, -1.0, math.nan])
@example([math.nan, -math.inf, math.nan])
def test_vertex_lmos_are_bitwise_the_function_form_argmin(entries):
    c = np.array(entries)
    n = c.size
    want = np.zeros(n)
    want[int(np.argmin(c))] = 1.0
    assert Simplex(n).lmo(c).tobytes() == want.tobytes()

    i = int(np.argmax(np.abs(c)))
    want = np.zeros(n)
    want[i] = -1.5 * (1.0 if c[i] >= 0 else -1.0)
    assert L1Ball(n, 1.5).lmo(c).tobytes() == want.tobytes()

    vertices = np.vstack([np.eye(n), -np.eye(n)])
    with np.errstate(invalid="ignore"):  # 0 * inf
        want = vertices[int(np.argmin(vertices @ c))]
        got = VertexPolytope(vertices).lmo(c)
    assert got.tobytes() == want.tobytes()


def test_vertex_polytope_lmo_scans_vertices():
    p = VertexPolytope(TRIANGLE)
    s = p.lmo(np.array([0.0, 1.0]))
    assert np.array_equal(s, [0.0, -1.0])


@given(st.integers(0, 2 ** 31 - 1), st.integers(0, len(small_sets()) - 1))
def test_lmo_certificate_beats_sampled_points(seed, which):
    # <c, lmo(c)> <= <c, y> for any feasible y
    fs = small_sets()[which]
    rng = np.random.default_rng(seed)
    c = rng.normal(size=fs.dim)
    s = fs.lmo(c)
    assert fs.contains(s, 1e-9)
    for _ in range(5):
        y = fs.draw(rng)
        assert float(c @ s) <= float(c @ y) + 1e-9


@given(st.integers(0, 2 ** 31 - 1), st.integers(0, len(small_sets()) - 1))
def test_lmo_lands_on_listed_extreme_point_or_center(seed, which):
    fs = small_sets()[which]
    rng = np.random.default_rng(seed)
    c = rng.normal(size=fs.dim)
    s = fs.lmo(c)
    if isinstance(fs, L2Ball):
        # continuum of extreme points; certify boundary membership instead
        assert abs(np.linalg.norm(s) - fs.radius) < 1e-12
    else:
        pts = fs.extreme_points()
        assert min(np.linalg.norm(pts - s, axis=1)) < 1e-12


# --- projections --------------------------------------------------------------

_PROJECTION_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 3.0]),
                                st.floats(-1e6, 1e6))


def _one_hot(n: int, i: int, value: float, zero: float) -> list:
    return [value if j == i % n else zero for j in range(n)]


def _tied_entries(n: int) -> list:
    # ties and signed zeros; at a total of 1 or more the -1.0 entries fall
    # below the threshold, whose index, near 5n/6, passes the first divisor
    # block once n > 1.2 BLOCK
    return np.resize([0.0, -0.0, 1e-300, 1e-3, 1e-3, -1.0], n).tolist()


@given(st.one_of(
    st.lists(_PROJECTION_ENTRIES, min_size=1, max_size=40),  # ties and signed zeros
    st.builds(_one_hot, st.integers(1, 40), st.integers(0, 39), _PROJECTION_ENTRIES,
              st.sampled_from([0.0, -0.0])),
    st.builds(lambda n, v: [v] * n, st.integers(1, 40), _PROJECTION_ENTRIES),  # constant
), st.sampled_from([1.0, 1.5, 1e-3, 2.5]))
@example([1.0, 0.0, 0.0], 1.0)
@example([-0.0, -0.0], 1.0)
@example([0.5, 0.5, 0.5], 1.0)
@example(_tied_entries(BLOCK - 1), 1e-3)
@example(_tied_entries(BLOCK), 2.5)
@example(_tied_entries(BLOCK + 1), 1.0)
@example(_tied_entries(2 * BLOCK + 1), 2.5)
def test_simplex_projection_is_bitwise_the_out_of_place_formula(entries, total):
    x = np.array(entries)
    got = _project_onto_simplex_face(x, total)
    assert got.tobytes() == project_onto_simplex_face(x, total).tobytes()
    assert got.flags.c_contiguous and got.flags.writeable


@given(st.integers(0, 5 * BLOCK), st.integers(1, 2 * BLOCK + 1), st.sampled_from([1, 7, 1024]))
def test_blocks_tile_the_range_in_order_in_slices_of_the_block_size(n, width, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fwlab.geometry, "BLOCK", block)
        slices = list(blocks(n, width))
    step = max(1, block // width)
    # they tile range(n) in order, their stops within n, as callers read them
    assert [i for s in slices for i in range(s.start, s.stop)] == list(range(n))
    assert all(0 < s.stop - s.start <= step and s.step is None for s in slices)
    assert len(slices) == math.ceil(n / step)


@pytest.mark.parametrize("x", [[math.inf, 0.0, 0.0], [math.nan, 0.0, 1.0], [math.nan] * 2])
def test_simplex_projection_without_a_threshold_index_raises(x):
    # an argmax over no True entry returns 0 silently, so the projection
    # says so instead of projecting onto a wrong threshold
    with pytest.raises(ValueError, match="no threshold index"):
        _project_onto_simplex_face(np.array(x), 1.0)


def test_simplex_projection_matches_grid_oracle():
    # brute-force oracle: nearest point among a fine simplex grid
    x = np.array([0.8, 0.8])
    p = Simplex(2).project(x)
    grid = np.linspace(0.0, 1.0, 20001)
    cand = np.stack([grid, 1.0 - grid], axis=1)
    best = cand[np.argmin(np.linalg.norm(cand - x, axis=1))]
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)
    assert np.linalg.norm(p - best) < 1e-4


def test_box_projection_clips():
    box = Box(2, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert np.array_equal(box.project(np.array([2.0, 0.5])), [1.0, 0.5])


def test_l1_ball_projection_keeps_interior_points():
    ball = L1Ball(3, 1.0)
    x = np.array([0.2, -0.3, 0.1])
    assert np.array_equal(ball.project(x), x)


def test_vertex_polytope_has_no_projection():
    with pytest.raises(ValueError, match="projection not available"):
        VertexPolytope(TRIANGLE).project(np.zeros(2))


@given(st.integers(0, 2 ** 31 - 1), st.integers(0, len(projectable_sets()) - 1))
def test_projection_is_idempotent_and_obtuse(seed, which):
    fs = projectable_sets()[which]
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=3.0, size=fs.dim)
    p = fs.project(x)
    assert fs.contains(p, 1e-9)
    assert np.linalg.norm(fs.project(p) - p) <= 1e-12
    # <x - p, y - p> <= 0 for feasible y characterizes the nearest point
    for _ in range(5):
        y = fs.draw(rng)
        assert float((x - p) @ (y - p)) <= 1e-9


# --- diameter, membership, sampling -------------------------------------------

def test_diameters_match_closed_forms():
    assert Simplex(4).diameter() == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert L1Ball(3, 1.5).diameter() == pytest.approx(3.0, abs=1e-15)
    assert L2Ball(5, 2.0).diameter() == pytest.approx(4.0, abs=1e-15)
    box = Box(2, np.array([-1.0, 0.0]), np.array([1.0, 3.0]))
    assert box.diameter() == pytest.approx(np.sqrt(4.0 + 9.0), abs=1e-15)


@given(st.integers(0, len(small_sets()) - 1))
def test_diameter_attained_by_extreme_point_pair(which):
    fs = small_sets()[which]
    pts = fs.extreme_points()
    best = max(
        float(np.linalg.norm(a - b)) for i, a in enumerate(pts) for b in pts[i + 1:]
    )
    assert best == pytest.approx(fs.diameter(), rel=1e-12)


def test_contains_accepts_boundary_and_rejects_outside():
    s = Simplex(3)
    assert s.contains(np.array([1.0, 0.0, 0.0]))
    assert s.contains(np.array([0.5, 0.5, 0.0]))
    assert not s.contains(np.array([0.6, 0.6, 0.0]))
    assert not s.contains(np.array([-0.1, 0.6, 0.5]))


def test_vertex_polytope_membership_via_hull():
    p = VertexPolytope(TRIANGLE)
    assert p.contains(np.array([0.0, -0.3]))
    assert p.contains(np.array([1.0, 0.0]))
    assert not p.contains(np.array([0.5, -0.8]))


def test_listed_vertex_membership_needs_no_lp(monkeypatch):
    import scipy.optimize

    def no_lp(*args, **kwargs):
        raise AssertionError("membership of a listed vertex ran an LP")

    monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
    v = np.random.default_rng(3).normal(size=(40, 7))
    p = VertexPolytope(v)
    assert all(p.contains(row.copy()) for row in v)
    assert all(p.contains(row, 0.0) for row in p.extreme_points())


def _in_hull_by_lp(v, x):
    """Independent reference: is V^T lam = x feasible for some lam in the simplex?"""
    from scipy.optimize import linprog

    m = v.shape[0]
    res = linprog(np.zeros(m), A_eq=np.vstack([v.T, np.ones(m)]),
                  b_eq=np.append(x, 1.0), bounds=[(0, None)] * m, method="highs")
    return res.status == 0


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12), st.integers(1, 6))
def test_vertex_polytope_membership_agrees_with_the_lp(seed, m, d):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(m, d))
    p = VertexPolytope(v)
    # a vertex, a convex combination, and a point beyond the vertex that
    # maximizes a random direction (so outside the hull by a margin)
    i = int(rng.integers(m))
    inside = rng.dirichlet(np.ones(m)) @ v
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    outside = v[int(np.argmax(v @ u))] + 0.5 * u
    for x, want in ((v[i], True), (inside, True), (outside, False)):
        assert _in_hull_by_lp(v, x) == want
        assert p.contains(x) == want


def _full_table(fs):
    """Every set kind's extreme-point table, written out as a whole."""
    d = fs.dim
    if isinstance(fs, Simplex):
        return np.eye(d)
    if isinstance(fs, (L1Ball, L2Ball)):
        eye = np.eye(d)
        return np.vstack([fs.radius * eye, -fs.radius * eye])
    if isinstance(fs, Box):
        if d <= 12:
            return np.array(list(itertools.product(*zip(fs.lower, fs.upper))))
        rows = [fs.lower.copy(), fs.upper.copy()]
        for i in range(d):
            a, b = fs.lower.copy(), fs.upper.copy()
            a[i], b[i] = fs.upper[i], fs.lower[i]
            rows += [a, b]
        return np.array(rows)
    return fs.vertices.copy()


@st.composite
def sets_of_every_kind(draw):
    kind = draw(st.sampled_from(["simplex", "l1_ball", "l2_ball", "box", "vertex_polytope"]))
    d = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    radius = draw(st.sampled_from([0.5, 1, 1.0, 2.5]))
    if kind == "simplex":
        return Simplex(d)
    if kind == "l1_ball":
        return L1Ball(d, radius)
    if kind == "l2_ball":
        return L2Ball(d, radius)
    if kind == "box":
        lower = rng.normal(size=d).round(1)
        return Box(d, lower, lower + rng.uniform(0.1, 2.0, size=d))
    return VertexPolytope(rng.normal(size=(draw(st.integers(1, 10)), d)))


@given(sets_of_every_kind(), st.data(), st.sampled_from([0.3, 1.0, 5.0]))
def test_oracles_hand_out_a_fresh_writable_array(fs, data, lam):
    # the solve row writes d = x_bar - x into the oracle's answer, so the
    # answer must be its own: writable float64, sharing memory with neither
    # the cost vector nor the set's data
    c = np.array(data.draw(st.lists(_COST_ENTRIES, min_size=fs.dim,
                                    max_size=fs.dim), label="c"))
    held = [c] + [v for v in vars(fs).values() if isinstance(v, np.ndarray)]
    with np.errstate(all="ignore"):  # inf and NaN costs
        answers = [fs.lmo(c)]
        if not isinstance(fs, VertexPolytope):  # no composite oracle
            answers.append(fs.lmo_l1(c, lam))
    for x_bar in answers:
        assert x_bar.flags.writeable
        assert x_bar.dtype == np.float64 and x_bar.shape == (fs.dim,)
        assert not any(np.shares_memory(x_bar, v) for v in held)


@given(sets_of_every_kind(), st.data())
def test_bounded_extreme_points_are_a_bitwise_prefix(fs, data):
    full = fs.extreme_points()
    assert full.tobytes() == _full_table(fs).tobytes()
    k = data.draw(st.integers(0, len(full) + 3), label="limit")
    head = fs.extreme_points(k)
    assert head.shape == full[:k].shape
    # bytes, not values: -0.0 == 0.0 would hide a lost sign
    assert head.tobytes() == full[:k].tobytes()


@pytest.mark.parametrize("fs", [
    Simplex(4), L1Ball(3, 2.0), L2Ball(4, 1), Box(1, [-1.0], [0.5]),
    Box(5, np.arange(5.0) - 2.5, np.arange(5.0) ** 2 - 1.0),
    Box(12, -np.ones(12), np.linspace(0.1, 2.0, 12)),
    Box(13, -np.linspace(0.5, 1.5, 13), np.ones(13)),
    Box(20, np.arange(20.0) - 30.0, np.arange(20.0)),
    VertexPolytope(np.random.default_rng(4).normal(size=(7, 3))),
], ids=lambda fs: f"{fs.kind}-{fs.dim}")
def test_each_extreme_point_is_its_table_row_bit_for_bit(fs):
    # the written-out table pins the order of the rows and their -0.0 entries
    table = _full_table(fs)
    assert fs.extreme_point_count() == len(table)
    for i, row in enumerate(table):
        # bytes, not values: the balls' negative half holds -0.0 entries
        point = fs.extreme_point(i)
        assert point.tobytes() == row.tobytes() and point.flags.writeable
        assert not any(np.shares_memory(point, v) for v in vars(fs).values()
                       if isinstance(v, np.ndarray))


@pytest.mark.parametrize("fs", [Simplex(3), L1Ball(2, 1.0), Box(3, -np.ones(3), np.ones(3)),
                                Box(13, -np.ones(13), np.ones(13)),
                                VertexPolytope(np.eye(3))], ids=lambda fs: f"{fs.kind}-{fs.dim}")
def test_extreme_point_rejects_an_index_out_of_range(fs):
    # neither a negative index counted from the end nor a box corner index
    # whose high bits would be dropped
    for i in (-1, fs.extreme_point_count()):
        with pytest.raises(ValueError, match="extreme point index"):
            fs.extreme_point(i)


def test_bounded_extreme_points_keep_negative_zeros():
    head = L1Ball(3, 2.0).extreme_points(4)
    assert np.signbit(head[3, 1:]).all() and not np.signbit(head[:3]).any()


def test_extreme_points_reject_a_negative_limit():
    with pytest.raises(ValueError, match="limit"):
        Simplex(3).extreme_points(-1)


@given(st.integers(0, 2 ** 31 - 1), st.integers(0, len(small_sets()) - 1))
def test_sample_is_feasible_and_seed_deterministic(seed, which):
    fs = small_sets()[which]
    x = fs.sample(seed)
    assert fs.contains(x, 1e-9)
    assert np.array_equal(x, fs.sample(seed))


# --- descriptors ---------------------------------------------------------------

def test_descriptor_round_trip_preserves_behavior():
    rng = np.random.default_rng(0)
    for fs in small_sets():
        clone = set_from_descriptor(fs.descriptor())
        c = rng.normal(size=fs.dim)
        assert np.array_equal(clone.lmo(c), fs.lmo(c))
        assert clone.diameter() == fs.diameter()


def test_box_and_polytope_own_their_vectors():
    lower, upper, vertices = np.zeros(2), np.ones(2), TRIANGLE.copy()
    box, poly = Box(2, lower, upper), VertexPolytope(vertices)
    x, c = np.array([0.5, 0.5]), np.array([1.0, 2.0])

    def fingerprint(fs):
        return config_fingerprint(Problem(fs, Quadratic(np.zeros(2))).descriptor(),
                                  {"kind": "harmonic", "c": 2.0}, [0.0, 0.0],
                                  {"max_iter": 1}, 0)

    before = fingerprint(box), fingerprint(poly), poly.lmo(c).tolist()
    # the callers' arrays, written after the build: a box with lower 5 > upper 1
    # and a moved vertex, if the sets still read them
    lower[0] = 5.0
    vertices[2] = [0.0, -9.0]
    assert box.contains(x) and box.lmo(-c).tolist() == [1.0, 1.0]
    assert (fingerprint(box), fingerprint(poly), poly.lmo(c).tolist()) == before
    for desc, field in ((box.descriptor(), "lower"), (box.descriptor(), "upper"),
                        (poly.descriptor(), "vertices")):
        with pytest.raises(ValueError, match="read-only"):
            desc[field][0] = 5.0


def test_descriptor_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown set kind"):
        set_from_descriptor({"kind": "moebius"})


def test_descriptor_missing_field_rejected():
    with pytest.raises(ValueError, match="missing field"):
        set_from_descriptor({"kind": "l1_ball", "dim": 3})


def test_set_constructor_validation():
    with pytest.raises(ValueError):
        Simplex(0)
    with pytest.raises(ValueError):
        L2Ball(3, -1.0)
    for radius in (math.inf, math.nan):
        with pytest.raises(ValueError, match="'radius' must be a finite positive number"):
            L1Ball(3, radius)
        with pytest.raises(ValueError, match="'radius' must be a finite positive number"):
            L2Ball(3, radius)
    with pytest.raises(ValueError):
        Box(2, np.array([0.0, 0.0]), np.array([1.0, -1.0]))
    # a Python call gets the checks and messages a spec gets
    for build, message in [
        (lambda: Simplex(2.0), "'dim' must be a positive integer, got 2.0"),
        (lambda: Simplex(True), "'dim' must be a positive integer, got True"),
        (lambda: L1Ball(3, True), "'radius' must be a finite positive number, got True"),
        (lambda: L2Ball(3, "1"), "'radius' must be a finite positive number, got '1'"),
        (lambda: Box(0, [], []), "'dim' must be a positive integer, got 0"),
        (lambda: Box(True, [0.0], [1.0]), "'dim' must be a positive integer, got True"),
        # the dimension is typed before the vectors are checked against it
        (lambda: Box(-1, [0.0], [1.0]), "'dim' must be a positive integer, got -1"),
        # fields by position and by keyword, as a dataclass took them
        (lambda: Simplex(3, dim=3), "fields given twice ['dim']"),
        (lambda: Simplex(3, 4), "too many fields: 2 values for ['dim']"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


# --- the norm helper ---------------------------------------------------------

_NORM_ENTRIES = st.one_of(
    st.floats(width=64),  # NaN and infinities included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160,
                     1e154, 1e155, -1e200, 1.7976931348623157e308, math.nan, -math.inf]),
)


@given(st.lists(_NORM_ENTRIES, max_size=64),
       st.sampled_from(["contiguous", "strided", "reversed"]))
def test_l2_norm_is_bitwise_numpy_norm(entries, layout):
    v = np.array(entries, dtype=float)
    if layout == "strided":
        w = np.full(2 * v.size, 3.0)
        w[::2] = v
        v = w[::2]
    elif layout == "reversed":
        v = v[::-1]
    with np.errstate(over="ignore", invalid="ignore"):  # squares that overflow
        got, want = l2_norm(v), np.linalg.norm(v)
    # bytes, not ==: NaN != NaN, and -0.0 == 0.0 would hide a lost sign
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
