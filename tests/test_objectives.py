import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fwlab import (
    Box,
    CompositePart,
    L1Ball,
    L2Ball,
    Problem,
    Simplex,
    composite_from_descriptor,
    config_fingerprint,
    make_linear,
    make_nesterov_max,
    make_power_norm,
    make_quadratic,
    make_t_alpha,
    objective_from_descriptor,
)
from fwlab.stepsize import line_search_quadratic_exact

from conftest import fd_grad
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
    f = make_quadratic(b)
    x = np.array([3.0, 0.0])
    assert f.value(x) == pytest.approx(0.5 * (4.0 + 4.0), abs=1e-15)
    assert np.allclose(f.grad(x), x - b, atol=1e-15)


def test_quadratic_records_projected_optimum():
    f = make_quadratic(np.zeros(3), Simplex(3))
    assert np.allclose(f.x_star, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    assert f.f_star == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert f.holder.nu == 1.0 and f.holder.const == 1.0


def test_simplex_optimum_holds_under_two_and_a_half_n_vectors():
    n = 100_000
    b = np.random.default_rng(0).standard_normal(n)
    f = make_quadratic(b, Simplex(n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f_star = f.f_star
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the sorted copy and its cumulative sums, which the quotients overwrite
    # and which become x*, plus a byte a coordinate for the comparison: 2.25
    # n-vectors (3.25 when the quotients had their own array, about five when
    # each step made a new one)
    assert peak < 2.5 * 8 * n
    want = project_onto_simplex_face(b, 1.0)
    assert f.x_star.tobytes() == want.tobytes()
    assert np.float64(f_star).tobytes() == np.float64(f.value(want)).tobytes()


@pytest.mark.parametrize("make, name", [
    (lambda v, fs: make_quadratic(v, fs), "'b'"),
    (lambda v, fs: make_power_norm(1.5, v, fs), "'b'"),
    (lambda v, fs: make_linear(v, fs), "'c'"),
    (lambda v, fs: make_quadratic(v), "'b'"),
], ids=["quadratic", "power_norm", "linear", "quadratic_without_a_set"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_objective_data_must_be_finite(make, name, bad):
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
        make([bad, 1.0, 0.0], Simplex(3))


_DOT_ENTRIES = st.one_of(st.floats(-1e6, 1e6),
                         st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300]))


@given(st.lists(st.tuples(_DOT_ENTRIES, _DOT_ENTRIES, _DOT_ENTRIES), min_size=1, max_size=8))
# each entry is (b_i, x_i, d_i), and grad = x - b
@example([(1.0, 0.0, 0.0)])   # grad = [-1], d = [0]: .dot gives -0.0, @ gives +0.0
@example([(0.0, 0.0, -1.0)])  # grad = [0], d = [-1]
@example([(2.0, 2.0, 0.5), (-0.0, 0.0, 0.0)])
def test_quadratic_value_and_segment_step_are_bitwise_the_matmul_forms(entries):
    b, x, d = (np.array(column) for column in zip(*entries))
    f = make_quadratic(b)
    grad = f.grad(x)
    value, gamma = f.value(x), f.segment_min(x, d, grad)
    # plain floats: an np.float64 here turns check verdicts into np.bool_
    assert type(value) is float and type(gamma) is float
    r = x - b
    assert np.float64(value).tobytes() == np.float64(0.5 * float(r @ r)).tobytes()
    want = line_search_quadratic_exact(float(grad @ d), float(d @ d))
    assert np.float64(gamma).tobytes() == np.float64(want).tobytes()


def test_quadratic_optimum_on_hull_set_needs_membership():
    tri = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
    from fwlab import VertexPolytope

    f = make_quadratic(np.array([0.0, -0.25]), VertexPolytope(tri))
    # b inside the hull: optimum is b itself despite no projection operator
    assert np.allclose(f.x_star, [0.0, -0.25])
    assert f.f_star == 0.0


@pytest.mark.parametrize("make", [make_quadratic, lambda b, fs: make_power_norm(1.5, b, fs)])
def test_polytope_optimum_runs_one_lp_on_first_read(make, monkeypatch):
    from fwlab import VertexPolytope

    calls = []
    contains = VertexPolytope.contains

    def counted(self, x, tol=1e-9):
        calls.append(tol)
        return contains(self, x, tol)

    monkeypatch.setattr(VertexPolytope, "contains", counted)
    tri = VertexPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]))
    f = make(np.array([0.0, -0.25]), tri)
    assert calls == []
    assert f.f_star == 0.0
    assert np.array_equal(f.x_star, [0.0, -0.25])
    assert f.f_star == 0.0 and f.x_star is f.x_star
    assert calls == [0.0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.x_star = None


def test_objective_without_a_set_records_no_optimum():
    for f in (make_quadratic(np.zeros(2)), make_power_norm(1.5, np.zeros(2)),
              make_linear(np.ones(2))):
        assert f.x_star is None and f.f_star is None


@given(st.integers(0, 2 ** 31 - 1))
def test_quadratic_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=4)
    x = rng.normal(size=4)
    f = make_quadratic(b)
    assert np.allclose(f.grad(x), fd_grad(f.value, x), atol=1e-6)


# --- power norm ------------------------------------------------------------------

def test_power_norm_zero_gradient_at_anchor():
    f = make_power_norm(1.5, np.array([0.3, -0.1]))
    assert np.array_equal(f.grad(np.array([0.3, -0.1])), np.zeros(2))
    assert f.value(np.array([0.3, -0.1])) == 0.0


def test_power_norm_holder_tag():
    f = make_power_norm(1.25, np.zeros(2))
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
    f = make_power_norm(sigma, b)
    assert np.allclose(f.grad(x), fd_grad(f.value, x), atol=1e-5)


def test_power_norm_optimum_recorded_when_anchor_feasible():
    b = np.array([0.1, 0.2, 0.0, 0.0, 0.0])
    f = make_power_norm(1.5, b, L2Ball(5, 1.0))
    assert np.array_equal(f.x_star, b)
    assert f.f_star == 0.0


# --- scalar t^alpha ---------------------------------------------------------------

def test_t_alpha_value_grad_and_tags():
    f = make_t_alpha(1.5)
    t = np.array([0.25])
    assert f.value(t) == pytest.approx(0.125, abs=1e-15)
    assert f.grad(t)[0] == pytest.approx(1.5 * 0.5, abs=1e-12)
    assert f.holder.nu == pytest.approx(0.5)
    assert f.holder.const == pytest.approx(1.5)
    assert np.array_equal(f.x_star, [0.0])
    assert f.f_star == 0.0


def test_t_alpha_rejects_a_set_that_reaches_below_zero():
    # (-1.0) ** 1.5 is complex; tests/test_config.py checks the spec path
    for fs in (Box(1, [-1.0], [1.0]), L1Ball(1, 1.0), L2Ball(1, 2.0)):
        with pytest.raises(ValueError, match=r"^t_alpha is defined on t >= 0; "
                                             r"the set reaches t = -"):
            make_t_alpha(1.5, fs)


def test_t_alpha_rejects_degenerate_exponents():
    with pytest.raises(ValueError):
        make_t_alpha(1.0)
    with pytest.raises(ValueError):
        make_t_alpha(2.0)


# --- nonsmooth max -----------------------------------------------------------------

def test_nesterov_max_value_and_tie_rule():
    f = make_nesterov_max()
    assert f.value(np.array([0.3, -0.5])) == 0.3
    assert np.array_equal(f.grad(np.array([0.2, 0.7])), [0.0, 1.0])
    # diagonal tie resolves to the first coordinate, deterministically
    assert np.array_equal(f.grad(np.array([0.4, 0.4])), [1.0, 0.0])


def test_nesterov_max_records_its_optimum_on_a_disc_only():
    # on the unit disc, the bits it has always recorded
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    f = make_nesterov_max(L2Ball(2, 1.0))
    assert f.x_star.tobytes() == np.array([-inv_sqrt2, -inv_sqrt2]).tobytes()
    assert np.float64(f.f_star).tobytes() == np.float64(-inv_sqrt2).tobytes()
    # a disc of radius r: the corner -r * (1/sqrt2, 1/sqrt2), where f is f*
    f = make_nesterov_max(L2Ball(2, 3.0))
    assert np.array_equal(f.x_star, [-3.0 * inv_sqrt2] * 2)
    assert f.f_star == f.value(f.x_star) == pytest.approx(-3.0 / np.sqrt(2.0), rel=1e-15)
    # the box [-1, 1]^2 reaches f = -1, below the disc's -1/sqrt2: unknown there
    for fs in (Box(2, [-1.0, -1.0], [1.0, 1.0]), L1Ball(2, 1.0), None):
        f = make_nesterov_max(fs)
        assert f.x_star is None and f.f_star is None


# --- linear -----------------------------------------------------------------------

def test_linear_optimum_from_lmo():
    f = make_linear(np.array([1.0, 2.0, 3.0]), Simplex(3))
    assert np.array_equal(f.x_star, [1.0, 0.0, 0.0])
    assert f.f_star == 1.0
    assert np.array_equal(f.grad(np.array([0.2, 0.3, 0.5])), [1.0, 2.0, 3.0])


def test_linear_rejects_zero_cost():
    with pytest.raises(ValueError):
        make_linear(np.zeros(3))


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
        (make_quadratic(np.array([0.2, 0.0, -0.1]), fs), fs),
        (make_power_norm(1.5, np.array([0.2, 0.0, -0.1]), fs), fs),
        (make_t_alpha(1.3), Box(1, np.array([0.0]), np.array([1.0]))),
        (make_nesterov_max(), L2Ball(2, 1.0)),
        (make_linear(np.array([1.0, -1.0, 0.5]), fs), fs),
    ]:
        clone = objective_from_descriptor(obj.descriptor(), on)
        for x in probes:
            p = x[: 1] if obj.descriptor()["kind"] == "t_alpha" else x
            p = np.abs(p) if obj.descriptor()["kind"] == "t_alpha" else p
            q = p[:2] if obj.descriptor()["kind"] == "nesterov_max" else p
            assert clone.value(q) == obj.value(q)


@pytest.mark.parametrize("build, field", [
    (make_quadratic, "b"),
    (lambda v: make_power_norm(1.5, v), "b"),
    (make_linear, "c"),
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


# --- gradient regularity samplers ------------------------------------------------------

def test_holder_estimate_quadratic_is_sharp_from_below():
    f = make_quadratic(np.zeros(3))
    est = estimate_holder_constant(f, L2Ball(3, 1.0), nu=1.0, n_pairs=400, seed=0)
    # identity gradient: every pair ratio equals 1 exactly
    assert est == pytest.approx(1.0, abs=1e-9)
