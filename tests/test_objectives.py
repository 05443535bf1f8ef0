import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from fwlab import (
    Box,
    CompositePart,
    L1Ball,
    L2Ball,
    Linear,
    NesterovMax,
    PowerNorm,
    Problem,
    Quadratic,
    Simplex,
    TAlpha,
    composite_from_descriptor,
    config_fingerprint,
    objective_from_descriptor,
)
from fwlab.stepsize import line_search_quadratic_exact

from conftest import fd_grad, small_sets
from references import project_onto_simplex_face


def estimate_holder_constant(obj, feasible_set, nu: float, n_pairs: int, seed: int) -> float:
    """Sampled lower estimate of the nu-Holder constant of the gradient.

    max over feasible pairs of ||grad(x)-grad(y)|| / ||x-y||^nu; pairs closer
    than 1e-12 are skipped. Never an upper bound.
    """
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_pairs):
        x = feasible_set.draw(rng)
        y = feasible_set.draw(rng)
        dist = float(np.linalg.norm(x - y))
        if dist < 1e-12:
            continue
        ratio = float(np.linalg.norm(obj.grad(x) - obj.grad(y))) / dist**nu
        if best is None or ratio > best:
            best = ratio
    return best


# --- quadratic -----------------------------------------------------------------

def test_quadratic_value_and_gradient():
    b = np.array([1.0, -2.0])
    f = Quadratic(b)
    x = np.array([3.0, 0.0])
    assert f.value(x) == pytest.approx(0.5 * (4.0 + 4.0), abs=1e-15)
    assert np.allclose(f.grad(x), x - b, atol=1e-15)


def test_quadratic_records_projected_optimum():
    f = Quadratic(np.zeros(3))
    problem = Problem(Simplex(3), f)
    assert np.allclose(problem.x_star, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    assert problem.f_star == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert f.holder.nu == 1.0 and f.holder.const == 1.0


def test_simplex_optimum_holds_under_two_and_a_half_n_vectors():
    n = 100_000
    b = np.random.default_rng(0).standard_normal(n)
    f = Quadratic(b)
    problem = Problem(Simplex(n), f)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f_star = problem.f_star
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the sorted copy and its cumulative sums, which the quotients overwrite
    # and which become x*, plus a byte a coordinate for the comparison: 2.25
    # n-vectors (3.25 when the quotients had their own array, about five when
    # each step made a new one)
    assert peak < 2.5 * 8 * n
    want = project_onto_simplex_face(b, 1.0)
    assert problem.x_star.tobytes() == want.tobytes()
    assert np.float64(f_star).tobytes() == np.float64(f.value(want)).tobytes()


@pytest.mark.parametrize("make, name", [
    (Quadratic, "'b'"),
    (lambda v: PowerNorm(1.5, v), "'b'"),
    (Linear, "'c'"),
], ids=["quadratic", "power_norm", "linear"])
# an integer past float64's range, as json reads a long literal, is not finite
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 10**400],
                         ids=["inf", "-inf", "nan", "int-1e400"])
def test_objective_data_must_be_finite(make, name, bad):
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
        make([bad, 1.0, 0.0])


_DOT_ENTRIES = st.one_of(st.floats(-1e6, 1e6),
                         st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300]))


@given(st.lists(st.tuples(_DOT_ENTRIES, _DOT_ENTRIES, _DOT_ENTRIES), min_size=1, max_size=8))
# each entry is (b_i, x_i, d_i), and grad = x - b
@example([(1.0, 0.0, 0.0)])   # grad = [-1], d = [0]: .dot gives -0.0, @ gives +0.0
@example([(0.0, 0.0, -1.0)])  # grad = [0], d = [-1]
@example([(2.0, 2.0, 0.5), (-0.0, 0.0, 0.0)])
def test_quadratic_value_and_segment_step_are_bitwise_the_matmul_forms(entries):
    b, x, d = (np.array(column) for column in zip(*entries))
    f = Quadratic(b)
    grad = f.grad(x)
    # the slope as solver._gap takes it, for the gap and the search alike
    value, gamma = f.value(x), f.segment_min(float(grad.dot(d)), d)
    # plain floats: an np.float64 here turns check verdicts into np.bool_
    assert type(value) is float and type(gamma) is float
    r = x - b
    assert np.float64(value).tobytes() == np.float64(0.5 * float(r @ r)).tobytes()
    want = line_search_quadratic_exact(float(grad @ d), float(d @ d))
    assert np.float64(gamma).tobytes() == np.float64(want).tobytes()


def test_quadratic_optimum_on_hull_set_needs_membership():
    tri = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
    from fwlab import VertexPolytope

    problem = Problem(VertexPolytope(tri), Quadratic(np.array([0.0, -0.25])))
    # b inside the hull: optimum is b itself despite no projection operator
    assert np.allclose(problem.x_star, [0.0, -0.25])
    assert problem.f_star == 0.0


@pytest.mark.parametrize("make", [Quadratic, lambda b: PowerNorm(1.5, b)])
def test_polytope_optimum_runs_one_lp_on_first_read(make, monkeypatch):
    from fwlab import VertexPolytope

    calls = []
    contains = VertexPolytope.contains

    def counted(self, x, tol=1e-9):
        calls.append(tol)
        return contains(self, x, tol)

    monkeypatch.setattr(VertexPolytope, "contains", counted)
    tri = VertexPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]))
    problem = Problem(tri, make(np.array([0.0, -0.25])))
    assert calls == []
    assert problem.f_star == 0.0
    assert np.array_equal(problem.x_star, [0.0, -0.25])
    assert problem.f_star == 0.0 and problem.x_star is problem.x_star
    assert calls == [0.0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.x_star = None


@given(st.integers(0, 2 ** 31 - 1))
def test_quadratic_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=4)
    x = rng.normal(size=4)
    f = Quadratic(b)
    assert np.allclose(f.grad(x), fd_grad(f.value, x), atol=1e-6)


# --- power norm ------------------------------------------------------------------

def test_power_norm_zero_gradient_at_anchor():
    f = PowerNorm(1.5, np.array([0.3, -0.1]))
    assert np.array_equal(f.grad(np.array([0.3, -0.1])), np.zeros(2))
    assert f.value(np.array([0.3, -0.1])) == 0.0


def test_power_norm_holder_tag():
    f = PowerNorm(1.25, np.zeros(2))
    assert f.holder is not None
    assert f.holder.nu == pytest.approx(0.25)
    assert f.holder.const is None  # no closed-form constant recorded


@given(st.sampled_from([1.25, 1.5, 1.75, 2.0]), st.integers(0, 2 ** 31 - 1))
def test_power_norm_gradient_matches_finite_differences(sigma, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=3)
    x = b + rng.normal(size=3)  # stay away from the nonsmooth anchor
    if np.linalg.norm(x - b) < 0.1:
        x = b + np.array([0.5, 0.0, 0.0])
    f = PowerNorm(sigma, b)
    assert np.allclose(f.grad(x), fd_grad(f.value, x), atol=1e-5)


def test_power_norm_optimum_recorded_when_anchor_feasible():
    b = np.array([0.1, 0.2, 0.0, 0.0, 0.0])
    problem = Problem(L2Ball(5, 1.0), PowerNorm(1.5, b))
    assert np.array_equal(problem.x_star, b)
    assert problem.f_star == 0.0


# --- scalar t^alpha ---------------------------------------------------------------

def test_t_alpha_value_grad_and_tags():
    f = TAlpha(1.5)
    t = np.array([0.25])
    assert f.value(t) == pytest.approx(0.125, abs=1e-15)
    assert f.grad(t)[0] == pytest.approx(1.5 * 0.5, abs=1e-12)
    assert f.holder.nu == pytest.approx(0.5)
    assert f.holder.const == pytest.approx(1.5)


def test_t_alpha_rejects_a_set_that_reaches_below_zero():
    # (-1.0) ** 1.5 is complex; tests/test_config.py checks the spec path
    for fs in (Box(1, [-1.0], [1.0]), L1Ball(1, 1.0), L2Ball(1, 2.0)):
        with pytest.raises(ValueError, match=r"^t_alpha is defined on t >= 0; "
                                             r"the set reaches t = -"):
            Problem(fs, TAlpha(1.5))


def test_t_alpha_rejects_degenerate_exponents():
    with pytest.raises(ValueError):
        TAlpha(1.0)
    with pytest.raises(ValueError):
        TAlpha(2.0)


# --- nonsmooth max -----------------------------------------------------------------

def test_nesterov_max_value_and_tie_rule():
    f = NesterovMax()
    assert f.value(np.array([0.3, -0.5])) == 0.3
    assert np.array_equal(f.grad(np.array([0.2, 0.7])), [0.0, 1.0])
    # diagonal tie resolves to the first coordinate, deterministically
    assert np.array_equal(f.grad(np.array([0.4, 0.4])), [1.0, 0.0])


def test_nesterov_max_records_its_optimum_on_a_disc_only():
    # on the unit disc, the bits it has always recorded
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    f = NesterovMax()
    problem = Problem(L2Ball(2, 1.0), f)
    assert problem.x_star.tobytes() == np.array([-inv_sqrt2, -inv_sqrt2]).tobytes()
    assert np.float64(problem.f_star).tobytes() == np.float64(-inv_sqrt2).tobytes()
    # a disc of radius r: the corner -r * (1/sqrt2, 1/sqrt2), where f is f*
    problem = Problem(L2Ball(2, 3.0), f)
    assert np.array_equal(problem.x_star, [-3.0 * inv_sqrt2] * 2)
    assert problem.f_star == f.value(problem.x_star) == pytest.approx(-3.0 / np.sqrt(2.0),
                                                                      rel=1e-15)
    # the box [-1, 1]^2 reaches f = -1, below the disc's -1/sqrt2: unknown there
    for fs in (Box(2, [-1.0, -1.0], [1.0, 1.0]), L1Ball(2, 1.0)):
        problem = Problem(fs, f)
        assert problem.x_star is None and problem.f_star is None


# --- linear -----------------------------------------------------------------------

def test_linear_optimum_from_lmo():
    f = Linear(np.array([1.0, 2.0, 3.0]))
    problem = Problem(Simplex(3), f)
    assert np.array_equal(problem.x_star, [1.0, 0.0, 0.0])
    assert problem.f_star == 1.0
    assert np.array_equal(f.grad(np.array([0.2, 0.3, 0.5])), [1.0, 2.0, 3.0])


def test_linear_rejects_zero_cost():
    with pytest.raises(ValueError, match="^c must be nonzero$"):
        Problem(Simplex(3), Linear(np.zeros(3)))


# --- an objective on its set ----------------------------------------------------

@pytest.mark.parametrize("objective, message", [
    (Quadratic([0.0, 1.0]), "'b' has shape (2,), set dimension is 3"),
    (PowerNorm(1.5, [0.0] * 4), "'b' has shape (4,), set dimension is 3"),
    (Linear([1.0, 2.0]), "'c' has shape (2,), set dimension is 3"),
    (TAlpha(1.5), "t_alpha is 1-dimensional, set dimension is 3"),
    (NesterovMax(), "nesterov_max is 2-dimensional, set dimension is 3"),
], ids=["quadratic", "power_norm", "linear", "t_alpha", "nesterov_max"])
def test_problem_rejects_an_objective_that_does_not_fit_its_set(objective, message):
    # a short b once built, and the solve died on numpy's broadcast error
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        Problem(Simplex(3), objective)


@pytest.mark.parametrize("objective, shown", [
    ({"kind": "quadratic", "b": [0, 0, 0]}, "dict"),
    (None, "None"),
    ("quadratic", "'quadratic'"),
    (Simplex(3), "Simplex"),
], ids=["descriptor", "none", "string", "set"])
def test_problem_names_the_objective_it_cannot_use(objective, shown):
    # these once died on an AttributeError naming no field
    message = (f"'objective' must be an objective kind or its record, got {shown}; "
               "objective_from_descriptor builds a kind from a descriptor")
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        Problem(Simplex(3), objective)


def test_one_objective_on_two_sets_reports_each_sets_own_optimum():
    # an objective once kept the optimum of the set it was built on, so the
    # simplex reported the ball's f* = 0
    f = Quadratic([0.1, 0.2, 0.3])
    on_simplex, on_ball = Problem(Simplex(3), f), Problem(L2Ball(3, 5.0), f)
    want = project_onto_simplex_face(np.array([0.1, 0.2, 0.3]), 1.0)
    assert on_simplex.x_star.tobytes() == want.tobytes()
    assert on_simplex.f_star == f.value(want) == pytest.approx(0.08 / 3, rel=1e-12)
    assert on_ball.x_star.tolist() == [0.1, 0.2, 0.3] and on_ball.f_star == 0.0


def test_the_optimum_is_found_once_a_problem():
    calls = []
    base = Quadratic([0.1, 0.2, 0.3]).objective()

    def fit(feasible_set):
        find = base.fit(feasible_set)
        return lambda: calls.append(feasible_set) or find()

    f = dataclasses.replace(base, fit=fit)
    problem = Problem(Simplex(3), f)
    assert calls == []
    assert problem.x_star is problem.x_star and problem.f_star == problem.f_star
    assert len(calls) == 1
    # a copy is a new problem, whose optimum is found again on its first read
    again = dataclasses.replace(problem, composite=None)
    assert again.f_star == problem.f_star and len(calls) == 2


# f_star and f(y) are each one rounded evaluation, and x_star (a projection,
# an LMO vertex or b itself) is the exact optimum up to rounding, so f_star
# may exceed f(y) at a feasible y only by a few ulps of the values compared:
# 8 eps (1 + |f(y)|). The excess seen over 8 000 seeded draws was 0.5 eps.
_EPS = np.finfo(float).eps


_MAKERS = {"quadratic": Quadratic, "linear": Linear,
           "power_norm": lambda v: PowerNorm(1.5, v)}


@given(st.data(), st.integers(0, len(small_sets()) - 1), st.sampled_from(sorted(_MAKERS)),
       st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_the_problems_optimum_is_feasible_and_beats_every_listed_point(
        data, which, kind, inside, seed):
    fs = small_sets()[which]
    rng = np.random.default_rng(seed)
    if inside:  # a feasible anchor, so the power norm's optimum is known
        v = fs.draw(rng)
    else:
        v = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=fs.dim,
                                        max_size=fs.dim), label="data"))
    assume(np.any(v != 0.0))  # a linear objective needs c != 0
    objective = _MAKERS[kind](v)
    problem = Problem(fs, objective)
    assume(problem.x_star is not None)
    assert fs.contains(problem.x_star, 1e-9)
    assert (np.float64(problem.f_star).tobytes()
            == np.float64(objective.value(problem.x_star)).tobytes())
    count = min(24, fs.extreme_point_count())
    points = [fs.draw(rng) for _ in range(16)] + [fs.extreme_point(i) for i in range(count)]
    for y in points:
        f_y = objective.value(y)
        assert problem.f_star <= f_y + 8 * _EPS * (1.0 + abs(f_y))


# --- composite parts ---------------------------------------------------------------

def test_l1_part_value():
    g = CompositePart(0.5)
    x = np.array([2.0, -3.0, 0.0])
    assert g.value(x) == pytest.approx(2.5, abs=1e-15)


def test_composite_descriptor_round_trip():
    g = composite_from_descriptor({"kind": "l1", "lam": 0.25})
    assert g.value(np.array([-2.0])) == pytest.approx(0.5)
    assert composite_from_descriptor(None) is None
    with pytest.raises(ValueError):
        composite_from_descriptor({"kind": "l2"})
    for lam in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="'lam' must be a finite positive number"):
            CompositePart(lam)


# --- descriptors ---------------------------------------------------------------------

def test_objective_descriptor_round_trip():
    fs = L2Ball(3, 1.0)
    probes = [np.array([0.1, -0.2, 0.3]), np.array([0.0, 0.5, 0.0])]
    # the fixed-dimension objectives rebuild on a set of their own dimension
    for obj, on in [
        (Quadratic(np.array([0.2, 0.0, -0.1])), fs),
        (PowerNorm(1.5, np.array([0.2, 0.0, -0.1])), fs),
        (TAlpha(1.3), Box(1, np.array([0.0]), np.array([1.0]))),
        (NesterovMax(), L2Ball(2, 1.0)),
        (Linear(np.array([1.0, -1.0, 0.5])), fs),
    ]:
        clone = Problem(on, objective_from_descriptor(obj.descriptor())).objective
        for x in probes:
            p = x[: 1] if obj.descriptor()["kind"] == "t_alpha" else x
            p = np.abs(p) if obj.descriptor()["kind"] == "t_alpha" else p
            q = p[:2] if obj.descriptor()["kind"] == "nesterov_max" else p
            assert clone.value(q) == obj.value(q)


@pytest.mark.parametrize("build, field", [
    (Quadratic, "b"),
    (lambda v: PowerNorm(1.5, v), "b"),
    (Linear, "c"),
])
def test_objective_factories_own_their_vectors(build, field):
    v = np.array([1.0, 2.0])
    obj = build(v)
    x = np.zeros(2)

    def fingerprint():
        return config_fingerprint(Problem(Simplex(2), obj).descriptor(),
                                  {"kind": "harmonic", "c": 2.0}, [0.5, 0.5],
                                  {"max_iter": 1}, 0)

    before = obj.value(x), obj.grad(x).tolist(), fingerprint()
    v[0] = 10.0  # the caller's array, written after the build
    assert (obj.value(x), obj.grad(x).tolist(), fingerprint()) == before
    with pytest.raises(ValueError, match="read-only"):
        obj.descriptor()[field][0] = 10.0
    assert obj.descriptor()[field].tolist() == [1.0, 2.0]


def test_objective_descriptor_unknown_kind():
    with pytest.raises(ValueError, match="unknown objective kind"):
        objective_from_descriptor({"kind": "entropy"})


@pytest.mark.parametrize("make, kind, fields, message", [
    (Quadratic, "quadratic", {"b": [True, 0.0]},
     "'b' must be a vector of numbers; entry 0 is True"),
    (Quadratic, "quadratic", {"b": [1.0, "x"]},
     "'b' must be a vector of numbers; entry 1 is 'x'"),
    (Quadratic, "quadratic", {"b": np.zeros((2, 2))},
     "'b' must be a vector of numbers, got ndarray"),
    (PowerNorm, "power_norm", {"sigma": "1.5", "b": [0.0]},
     "'sigma' must be a number in (1, 2], got '1.5'"),
    (PowerNorm, "power_norm", {"sigma": 1.5, "b": [False]},
     "'b' must be a vector of numbers; entry 0 is False"),
    (TAlpha, "t_alpha", {"alpha": "1.5"}, "'alpha' must be a finite number, got '1.5'"),
    (Linear, "linear", {"c": [[1.0, 2.0]]},
     "'c' must be a vector of numbers; entry 0 is list"),
], ids=["bool-in-b", "string-in-b", "2d-b", "string-sigma", "power-norm-bool-in-b",
        "string-alpha", "2d-c"])
def test_each_constructor_rejects_a_mistyped_field_by_name_as_a_spec_does(
        make, kind, fields, message):
    with pytest.raises(ValueError) as library:
        make(**fields)
    with pytest.raises(ValueError) as spec:
        objective_from_descriptor({"kind": kind, **fields})
    assert str(library.value) == str(spec.value) == message


# --- gradient regularity samplers ------------------------------------------------------

def test_holder_estimate_quadratic_is_sharp_from_below():
    f = Quadratic(np.zeros(3))
    est = estimate_holder_constant(f, L2Ball(3, 1.0), nu=1.0, n_pairs=400, seed=0)
    # identity gradient: every pair ratio equals 1 exactly
    assert est == pytest.approx(1.0, abs=1e-9)
