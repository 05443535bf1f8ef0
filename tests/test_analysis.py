import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fwlab import (
    Box,
    DHRecursion,
    Harmonic,
    HarmonicClassic,
    L1Ball,
    L2Ball,
    LineSearch,
    LineSearchOrderSigma,
    OpenLoopOrderSigma,
    Power,
    PowerNorm,
    Problem,
    Quadratic,
    Simplex,
    StopRule,
    TAlpha,
    VertexPolytope,
    beta_recursion,
    curvature_bound_holder,
    estimate_curvature,
    fit_rate,
    probe_curvature_divergence,
    solve,
)
from fwlab.analysis import _EXTREME_PAIR_CAP, DEFAULT_GAMMA_GRID
from fwlab.solver import SolveTrace

from references import fit_points
from scalar_recursions import (
    beta_bound_report,
    polyak_recursion,
    polyak_sequence_bound,
    xu_recursion_check,
)


# --- curvature estimation ------------------------------------------------------

def test_scalar_power_curvature_is_the_exponent_exactly():
    # at the pair (0, 1) and any gamma the scaled deviation collapses to the
    # exponent itself, so the estimate is exact, not approximate
    obj = TAlpha(1.5)
    fs = Box(1, np.array([0.0]), np.array([1.0]))
    est = estimate_curvature(Problem(fs, obj), sigma=1.5, n_samples=64, seed=0)
    assert est.sampled_value == pytest.approx(1.5, abs=1e-12)


def test_quadratic_curvature_reaches_squared_diameter():
    fs = Simplex(3)
    est = estimate_curvature(Problem(fs, Quadratic(np.zeros(3))), sigma=2.0,
                             n_samples=128, seed=0)
    # vertices pairs are included: the supremum ||s-x||^2 = 2 is attained
    assert est.sampled_value == pytest.approx(2.0, abs=1e-9)
    assert est.holder_upper_bound == pytest.approx(2.0, abs=1e-12)
    assert est.sampled_value <= est.holder_upper_bound * (1.0 + 1e-6)


def test_curvature_estimate_is_prefix_monotone_in_samples():
    fs = L2Ball(3, 1.0)
    obj = Quadratic(np.array([0.2, -0.1, 0.3]))
    prev = 0.0
    for n in [16, 64, 256]:
        est = estimate_curvature(Problem(fs, obj), sigma=2.0, n_samples=n, seed=42)
        assert est.sampled_value >= prev
        prev = est.sampled_value


def test_gamma_grid_must_live_in_unit_interval_and_include_one():
    fs = Simplex(2)
    obj = Quadratic(np.zeros(2))
    with pytest.raises(ValueError):
        estimate_curvature(Problem(fs, obj), sigma=2.0, gamma_grid=[0.5, 2.0, 1.0])
    with pytest.raises(ValueError):
        estimate_curvature(Problem(fs, obj), sigma=2.0, gamma_grid=[0.1, 0.5])
    assert DEFAULT_GAMMA_GRID[-1] == 1.0
    assert len(DEFAULT_GAMMA_GRID) == 14


def test_divergence_probe_blows_up_only_for_unbounded_curvature():
    fs = Box(1, np.array([0.0]), np.array([1.0]))
    value = probe_curvature_divergence(Problem(fs, TAlpha(1.5)), sigma=2.0)
    assert value > 1e3
    # order matched to the Holder exponent: bounded; the roundoff-aware depth
    # cap keeps amplified float noise from faking a divergence
    value = probe_curvature_divergence(Problem(fs, TAlpha(1.5)), sigma=1.5)
    assert 1.5 - 1e-9 <= value <= 1.7
    fs3 = Simplex(3)
    value = probe_curvature_divergence(Problem(fs3, Quadratic(np.zeros(3))), sigma=2.0)
    assert 2.0 - 1e-9 <= value < 1e3



def test_curvature_estimates_take_the_problem_that_fitted_the_objective():
    # an objective and a set given apart skipped the fit: a b of the wrong
    # length reached the sampler and died on numpy's broadcast error
    with pytest.raises(ValueError, match=r"^'b' has shape \(2,\), set dimension is 3$"):
        estimate_curvature(Problem(Simplex(3), Quadratic([0.0, 1.0])), 2.0)
    problem = Problem(Simplex(3), Quadratic([0.0, 1.0, 0.0]))
    assert estimate_curvature(problem, 2.0, n_samples=8).sampled_value == \
        pytest.approx(2.0, abs=1e-9)
    assert 2.0 - 1e-9 <= probe_curvature_divergence(problem, 2.0, n_samples=8) < 1e3


def _curvature_term(obj, x, s, gamma, sigma):
    """One pair at one gamma, with nothing shared across gammas: the reference
    the estimator's per-pair evaluation must match bitwise."""
    g = obj.grad(x)
    if not np.all(np.isfinite(g)):
        raise ValueError(f"gradient unavailable at sampled point {x}")
    d = s - x
    inner = obj.value(x + gamma * d) - obj.value(x) - gamma * float(g @ d)
    if inner < 0.0:
        inner = 0.0
    return sigma / gamma**sigma * inner


def _reference_curvature(obj, fs, sigma, n_samples, grid, seed):
    rng = np.random.default_rng(seed)
    pairs = [(fs.draw(rng), fs.draw(rng)) for _ in range(n_samples)]
    pts = fs.extreme_points(_EXTREME_PAIR_CAP)
    pairs += [(pts[i], pts[j]) for i in range(len(pts)) for j in range(len(pts)) if i != j]
    best = 0.0
    for x, s in pairs:
        for gamma in grid:
            v = _curvature_term(obj, x, s, gamma, sigma)
            if v > best:
                best = v
    return best


@st.composite
def _curvature_cases(draw):
    kind = draw(st.sampled_from(["simplex", "l1_ball", "l2_ball", "box", "vertex_polytope"]))
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    if kind == "simplex":
        fs = Simplex(d)
    elif kind == "l1_ball":
        fs = L1Ball(d, 1.5)
    elif kind == "l2_ball":
        fs = L2Ball(d, 0.7)
    elif kind == "box":
        lower = rng.normal(size=d)
        fs = Box(d, lower, lower + rng.uniform(0.1, 2.0, size=d))
    else:
        fs = VertexPolytope(rng.normal(size=(draw(st.integers(1, 6)), d)))
    sigma = draw(st.floats(1.0, 2.0, exclude_min=True))
    b = rng.normal(size=d)
    obj = PowerNorm(sigma, b) if draw(st.booleans()) else Quadratic(b)
    grid = draw(st.one_of(
        st.none(),
        st.lists(st.floats(1e-6, 1.0), max_size=6).map(lambda g: g + [1.0])))
    return obj, fs, sigma, grid


@given(_curvature_cases(), st.integers(1, 24), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60)
# a one-point set: diameter 0 once made the Holder bound raise
@example(case=(Quadratic(np.array([0.0])), Simplex(1), 2.0, None), n_samples=1, seed=0)
def test_curvature_estimate_equals_the_per_gamma_reference(case, n_samples, seed):
    obj, fs, sigma, grid = case
    est = estimate_curvature(Problem(fs, obj), sigma, n_samples=n_samples, gamma_grid=grid,
                             seed=seed)
    want = _reference_curvature(obj, fs, sigma, n_samples,
                                DEFAULT_GAMMA_GRID if grid is None else grid, seed)
    assert est.sampled_value == want


def test_curvature_estimate_takes_one_gradient_per_pair():
    fs = L1Ball(4, 1.0)
    objective = Quadratic(np.array([0.3, -0.2, 0.1, 0.5])).objective()
    grads, values = [], []
    counted = dataclasses.replace(
        objective,
        grad=lambda x: grads.append(1) or objective.grad(x),
        value=lambda x: values.append(1) or objective.value(x))
    grid = [0.01, 0.1, 0.5, 1.0]
    estimate_curvature(Problem(fs, counted), sigma=2.0, n_samples=10, gamma_grid=grid, seed=3)
    pairs = 10 + 8 * 7  # the random pairs and the ordered pairs of 8 vertices
    assert len(grads) == pairs
    assert len(values) == pairs * (len(grid) + 1)


def test_curvature_estimate_holds_one_pair_at_a_time():
    n = 10_000
    fs = L2Ball(n, 1.0)
    obj = Quadratic(np.zeros(n))
    tracemalloc.start()
    try:
        estimate_curvature(Problem(fs, obj), sigma=2.0, n_samples=256, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 512 drawn points alone take 41 MB; the 24 extreme points take 1.9 MB
    assert peak < 8_000_000


# --- analytic curvature bounds -----------------------------------------------------

def test_holder_curvature_bound_values():
    assert curvature_bound_holder(1.0, 1.0, math.sqrt(2.0)) == pytest.approx(2.0, abs=1e-12)
    assert curvature_bound_holder(1.5, 0.5, 1.0) == pytest.approx(1.5, abs=1e-15)
    # scalar power family: constant alpha with nu = alpha-1 on a unit segment
    assert curvature_bound_holder(1.5, 0.5, 1.0) == pytest.approx(1.5)


def test_holder_curvature_bound_is_zero_on_a_one_point_set():
    assert curvature_bound_holder(1.0, 1.0, 0.0) == 0.0
    for delta in (-1.0, -1e-300, math.nan):
        with pytest.raises(ValueError, match="diameter"):
            curvature_bound_holder(1.0, 1.0, delta)


@pytest.mark.parametrize("fs", [Simplex(1), VertexPolytope(np.array([[0.5, -0.2]]))],
                         ids=["simplex_1", "one_vertex"])
def test_curvature_estimate_of_a_one_point_set_is_zero(fs):
    obj = Quadratic(np.full(fs.dim, 0.3))
    est = estimate_curvature(Problem(fs, obj), sigma=2.0, n_samples=8, seed=1)
    assert est.sampled_value == 0.0
    assert est.holder_upper_bound == 0.0


# --- rate bound curves ----------------------------------------------------------------

def _line_search(**params):
    return LineSearchOrderSigma(**params)


def _open_loop(**params):
    return OpenLoopOrderSigma(**params)


def test_line_search_bound_closed_forms():
    b = _line_search(theta0=1.0, sigma=2.0, C_sigma=2.0)
    for k in [1, 2, 5, 10]:
        assert b.bound(k) == pytest.approx(1.0 / (1.0 + k / 4.0), rel=1e-12)
    assert b.bound(0) == 1.0
    b = _line_search(theta0=1.0, sigma=1.5, C_sigma=1.0)
    assert b.bound(4) == pytest.approx((1.0 + (2.0 / 3.0) * 4.0) ** -0.5, rel=1e-12)
    assert b.bound(4) == pytest.approx(0.5222, abs=5e-5)


def test_open_loop_bound_closed_forms():
    b = _open_loop(Delta=1.0, sigma=2.0)
    for k in [1, 2, 8]:
        assert b.bound(k) == pytest.approx(4.0 / k, rel=1e-12)
    b = _open_loop(Delta=2.0, sigma=1.5)
    assert b.bound(9) == pytest.approx(1.5 ** 1.5 * 2.0 / 3.0, rel=1e-12)
    assert b.bound(9) == pytest.approx(1.2247, abs=5e-5)


def test_composite_open_loop_bound_shifts_the_index():
    plain = _open_loop(Delta=1.0, sigma=2.0, composite=False)
    comp = _open_loop(Delta=1.0, sigma=2.0, composite=True)
    assert comp.bound(0) == 4.0  # 4*Delta/(0+1)
    assert comp.bound(3) == plain.bound(4)


def test_classic_bound_and_positivity():
    b = HarmonicClassic(C_f=2.0)
    assert b.bound(0) == 2.0
    assert b.bound(2) == 1.0
    ks = np.arange(1, 50)
    for bound in [b, _open_loop(Delta=1.0, sigma=1.5),
                  _line_search(theta0=1.0, sigma=2.0, C_sigma=2.0)]:
        curve = bound.curve(ks)
        assert np.all(curve > 0)
        assert np.all(np.diff(curve) <= 0)
        # the curve holds bound(k)'s own doubles, bit for bit, from k = 0
        window = np.arange(1000)
        assert bound.curve(window).tobytes() == \
            np.array([bound.bound(int(k)) for k in window], dtype=np.float64).tobytes()
        with pytest.raises(ValueError, match="iteration index must be >= 0"):
            bound.curve(np.arange(-1, 5))
    # the plain open-loop bound starts at k = 1: its curve reads inf at k = 0
    assert _open_loop(Delta=1.0, sigma=1.5).curve(np.arange(3))[0] == math.inf


def test_bound_parameter_validation():
    with pytest.raises(ValueError):
        _line_search(theta0=0.0, sigma=2.0, C_sigma=1.0)
    with pytest.raises(ValueError):
        _open_loop(Delta=-1.0, sigma=2.0)
    with pytest.raises(ValueError):
        _open_loop(Delta=1.0, sigma=2.5)
    with pytest.raises(ValueError):
        HarmonicClassic(C_f=0.0)


def test_delta_assembly_takes_the_max():
    bound = _open_loop(sigma=2.0, assemble={"C_sigma": 2.0})
    assert bound.resolve(None, _synthetic_trace([0.3]), 0.0).Delta == 1.0
    assert bound.resolve(None, _synthetic_trace([3.0]), 0.0).Delta == 3.0


def test_bound_as_dict_prints_params_in_order_as_written():
    # summary.json prints str(as_dict()) in a check's detail; an int stays an int
    assert str(HarmonicClassic(C_f=2).as_dict()) == \
        "{'kind': 'harmonic_classic', 'params': {'C_f': 2}}"
    assert str(_line_search(C_sigma=2, sigma=1.5, theta0=0.25).as_dict()) == \
        ("{'kind': 'line_search_order_sigma', "
         "'params': {'theta0': 0.25, 'sigma': 1.5, 'C_sigma': 2}}")
    assert str(_open_loop(sigma=2.0, Delta=3).as_dict()) == \
        ("{'kind': 'open_loop_order_sigma', "
         "'params': {'Delta': 3, 'sigma': 2.0, 'composite': False}}")
    assembled = _open_loop(sigma=2, composite=True, assemble={"C_sigma": 5})
    assert str(assembled.resolve(None, _synthetic_trace([0.5]), 0.0).as_dict()) == \
        ("{'kind': 'open_loop_order_sigma', "
         "'params': {'Delta': 2.5, 'sigma': 2, 'composite': True}}")


# --- the averaged recursion and its claimed envelope -------------------------------------

def test_beta_recursion_hand_values():
    betas = beta_recursion(Harmonic(2.0), sigma=2.0, K=2)
    assert betas[0] == 1.0
    assert betas[1] == 1.0  # (1-1)*1 + 1^2
    assert betas[2] == pytest.approx(7.0 / 9.0, abs=1e-15)


@given(
    st.sampled_from([Harmonic(2.0), DHRecursion(1.0), Power(1.0, 0.5)]),
    st.sampled_from([1.25, 1.5, 2.0]),
)
@settings(max_examples=20)
def test_beta_recursion_stays_in_unit_interval(rule, sigma):
    betas = beta_recursion(rule, sigma, K=500)
    assert np.all(betas > 0.0)
    assert np.all(betas <= 1.0)


def test_beta_envelope_holds_for_classic_harmonic_at_order_two():
    rep = beta_bound_report(Harmonic(2.0), sigma=2.0, K=100_000)
    assert rep.holds
    assert rep.max_ratio <= 1.0
    # k * beta_k <= 4 with the max ratio creeping toward 1 from below
    assert rep.max_ratio == pytest.approx(0.999879, abs=1e-5)


def test_beta_envelope_first_violations_are_frozen():
    # the claimed sigma^sigma/k^(sigma-1) envelope fails off the matched
    # schedule; these indices pin the measured behavior
    expected = {
        (2.0, "harmonic"): None,
        (1.5, "harmonic"): 59,
        (1.25, "harmonic"): 23,
        (2.0, "dh"): 31,
        (1.5, "dh"): 75,
        (1.25, "dh"): 230,
    }
    for (sigma, kind), first in expected.items():
        rule = Harmonic(2.0) if kind == "harmonic" else DHRecursion(1.0)
        rep = beta_bound_report(rule, sigma, K=1000)
        assert rep.first_violation == first, (sigma, kind)
        assert rep.holds is (first is None)


def test_beta_dh_order_two_is_the_harmonic_number_ratio():
    # closed form beta_k = H_k / k for the rational-decay rule at order 2
    betas = beta_recursion(DHRecursion(1.0), sigma=2.0, K=200)
    hk = np.cumsum(1.0 / np.arange(1, 201))
    assert np.allclose(betas[1:], hk / np.arange(1, 201), rtol=1e-12)


def _own_envelope_ratio(rule, sigma, K):
    """beta_k (k+m)^(sigma-1) / A for k = 0..K, writing the schedule as
    gamma_k = c/(k+m); for m >= c > sigma-1 induction gives the constant
    A = max(c^sigma/(c-sigma+1), m^(sigma-1))."""
    if isinstance(rule, Harmonic):
        c, m = rule.c, rule.c
    else:
        c, m = 1.0, 1.0 / rule.gamma0  # gamma0/(gamma0*k+1) = 1/(k+1/gamma0)
    betas = beta_recursion(rule, sigma, K)
    A = max(c**sigma / (c - sigma + 1.0), m ** (sigma - 1.0))
    return betas * (np.arange(K + 1) + m) ** (sigma - 1.0) / A


@given(st.floats(1.0, 2.0, exclude_min=True), st.floats(1.0, 6.0))
@settings(max_examples=40)
def test_beta_harmonic_stays_in_its_own_envelope(sigma, c):
    assume(c > sigma - 1.0)
    ratio = _own_envelope_ratio(Harmonic(c), sigma, K=2000)
    assert ratio.max() <= 1.0 + 1e-12


@given(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
       st.floats(1e-3, 1.0))
@settings(max_examples=40)
def test_beta_dh_stays_in_its_own_envelope(sigma, gamma0):
    ratio = _own_envelope_ratio(DHRecursion(gamma0), sigma, K=2000)
    assert ratio.max() <= 1.0 + 1e-12


def test_beta_recursion_input_validation():
    with pytest.raises(ValueError):
        beta_recursion(LineSearch(1e-10, 200), 2.0, 10)
    with pytest.raises(ValueError):
        beta_recursion(Harmonic(2.0), 1.0, 10)
    with pytest.raises(ValueError):
        beta_recursion(Harmonic(2.0), 2.0, 0)


# --- scalar recursion envelopes ---------------------------------------------------------

def test_polyak_bound_closed_form_at_unit_eta():
    bound = polyak_sequence_bound(1.0, [0.1] * 10, eta=1.0)
    ks = np.arange(11)
    assert np.allclose(bound, 1.0 / (1.0 + 0.1 * ks), rtol=1e-15)


def test_polyak_recursion_frozen_value_and_domination():
    alphas = polyak_recursion(1.0, [0.1] * 10, eta=1.0)
    # frozen by direct simulation of the exact float recursion
    assert alphas[10] == 0.48171287847015176
    bound = polyak_sequence_bound(1.0, [0.1] * 10, eta=1.0)
    assert bound[10] == pytest.approx(0.5, abs=1e-15)
    assert np.all(alphas <= bound + 1e-15)


def test_polyak_zero_start_stays_zero():
    assert np.array_equal(polyak_sequence_bound(0.0, [0.3, 0.2], eta=0.5),
                          np.zeros(3))


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0.5, 1.0]))
@settings(max_examples=40)
def test_polyak_bound_dominates_random_recursions(seed, eta):
    rng = np.random.default_rng(seed)
    alpha0 = float(rng.uniform(0.1, 1.0))
    betas = rng.uniform(0.0, 1.0, size=200)
    # keep the recursion in its contraction regime: beta*alpha0^eta <= 1
    betas = betas / max(1.0, float(betas.max()) * alpha0 ** eta)
    alphas = polyak_recursion(alpha0, betas, eta)
    bound = polyak_sequence_bound(alpha0, betas, eta)
    assert np.all(alphas >= 0.0)
    assert np.all(alphas <= bound * (1.0 + 1e-12) + 1e-15)


def test_xu_recursion_exact_zero_when_first_eta_is_one():
    rep = xu_recursion_check(1.0, etas=[1.0 / (k + 1) for k in range(100)],
                             epsilons=[0.0] * 100)
    assert rep.final_alpha == 0.0
    assert rep.tail_max == 0.0


def test_xu_recursion_telescopes_for_shifted_harmonic_weights():
    K = 1000
    rep = xu_recursion_check(1.0, etas=[1.0 / (k + 2) for k in range(K)],
                             epsilons=[0.0] * K)
    assert rep.final_alpha == pytest.approx(1.0 / (K + 1), rel=1e-12)


def test_xu_recursion_frozen_long_horizon_value():
    K = 1_000_000
    etas = 1.0 / (np.arange(K) + 1.0)
    rep = xu_recursion_check(1.0, etas=etas, epsilons=etas)
    assert rep.final_alpha == 1.4392726722865793e-05
    assert rep.final_alpha < 1e-2
    assert rep.eta_sum_keeps_growing


def test_xu_recursion_flags_stalled_driver():
    rep = xu_recursion_check(0.7, etas=[0.0] * 50, epsilons=[0.0] * 50)
    assert rep.final_alpha == 0.7
    assert not rep.eta_sum_keeps_growing


def test_xu_recursion_input_validation():
    with pytest.raises(ValueError):
        xu_recursion_check(1.0, [0.5, 1.5], [0.0, 0.0])
    with pytest.raises(ValueError):
        xu_recursion_check(1.0, [0.5], [0.0, 0.0])
    with pytest.raises(ValueError):
        xu_recursion_check(1.0, [0.5], [-1.0])


# --- empirical rate fitting --------------------------------------------------------------

def _synthetic_trace(objs):
    rows = np.zeros((len(objs), 4))
    rows[:, 0] = objs
    return SolveTrace(rows, "max_iter", np.zeros(1))


def test_fit_rate_recovers_exact_power_laws():
    ks = np.arange(1, 200)
    for p, slope in [(1.0, -1.0), (0.5, -0.5)]:
        objs = np.concatenate(([2.0], 1.0 + ks ** -p))
        fit = fit_rate(_synthetic_trace(objs), opt=1.0, tail_fraction=0.5)
        assert fit["slope"] == pytest.approx(slope, abs=1e-6)
        assert fit["r2"] > 0.999999


@pytest.mark.parametrize("tail_fraction", [0.5, 0.3, 1.0])
def test_fit_rate_takes_the_points_a_row_by_row_selection_takes(tail_fraction):
    rng = np.random.default_rng(7)
    objs = 1.0 + rng.standard_normal(400) * 10.0 ** rng.integers(-17, 1, 400)
    objs[::5] = 1.0 + 1e-15  # inside the roundoff floor
    trace = _synthetic_trace(objs)
    xs, ys = fit_points(trace, 1.0, tail_fraction)
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = fit_rate(trace, opt=1.0, tail_fraction=tail_fraction)
    assert (fit["slope"], fit["intercept"], fit["n_used"]) == (slope, intercept, len(xs))


def test_fit_rate_on_a_real_solve_shows_first_order_decay():
    fs = Simplex(100)
    problem = Problem(fs, Quadratic(np.zeros(100)))
    trace = solve(problem, Harmonic(2.0), x0=np.eye(100)[0],
                  stop=StopRule(max_iter=2000))
    fit = fit_rate(trace, opt=1.0 / 200.0, tail_fraction=0.5)
    assert fit["slope"] <= -0.9


def test_fit_rate_preconditions():
    objs = np.concatenate(([2.0], 1.0 + np.arange(1, 12) ** -1.0))
    with pytest.raises(ValueError, match="20"):
        fit_rate(_synthetic_trace(objs), opt=1.0, tail_fraction=0.5)
    # converged trace: above opt, but inside the roundoff floor around it
    near = np.full(60, 1.0 + 1e-15)
    near[0] = 2.0
    with pytest.raises(ValueError, match="usable"):
        fit_rate(_synthetic_trace(near), opt=1.0, tail_fraction=0.5)
