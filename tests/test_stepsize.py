import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwlab import (
    Box,
    DHRecursion,
    Harmonic,
    LineSearch,
    OpenLoop,
    Power,
    ProjectedGradient,
    TAlpha,
    line_search,
    line_search_quadratic_exact,
    rule_from_descriptor,
)
from fwlab.geometry import BLOCK
from fwlab.stepsize import dh_envelope_holds

from references import schedule_one_shot


def schedule_value(rule, k: int) -> float:
    """The k-th stepsize of an open-loop rule, k >= 0: the scalar reference
    that `OpenLoop.values` must match element by element."""
    if isinstance(rule, Harmonic):
        return rule.c / (k + rule.c)
    if isinstance(rule, Power):
        return rule.gamma0 / (k + 1.0) ** rule.p
    if isinstance(rule, DHRecursion):
        return rule.gamma0 / (rule.gamma0 * k + 1.0)
    raise TypeError(f"{type(rule).__name__} has no schedule")


def dh_terms_iterative(gamma0: float, upto: int) -> np.ndarray:
    """The DH recursion iterated literally, for cross-checking the closed form."""
    out = np.empty(upto + 1)
    g = gamma0
    out[0] = g
    for k in range(upto):
        g = g / (1.0 + g)
        out[k + 1] = g
    return out


# --- golden-section line search ------------------------------------------------

def test_line_search_locates_interior_quadratic_minimum():
    gamma = line_search(lambda g: (g - 0.3) ** 2, LineSearch(1e-10, 200))
    assert abs(gamma - 0.3) < 1e-9


def test_line_search_returns_endpoint_for_monotone_profiles():
    assert line_search(lambda g: g, LineSearch(1e-10, 200)) == 0.0
    assert line_search(lambda g: -g, LineSearch(1e-10, 200)) == 1.0


def test_line_search_constant_profile_ties_to_smallest_gamma():
    assert line_search(lambda g: 5.0, LineSearch(1e-10, 200)) == 0.0


def test_line_search_respects_eval_budget():
    calls = []

    def phi(g):
        calls.append(g)
        return (g - 0.5) ** 2

    line_search(phi, LineSearch(1e-15, 10))
    assert len(calls) <= 10


def test_line_search_returns_best_evaluated_point():
    # a narrow dip the coarse budget cannot localize; the returned gamma must
    # still be one of the evaluated points with the smallest seen value
    seen = {}

    def phi(g):
        v = 1.0 - math.exp(-((g - 0.123456) ** 2) / 1e-6)
        seen[g] = v
        return v

    gamma = line_search(phi, LineSearch(1e-10, 40))
    assert gamma in seen
    assert seen[gamma] == min(seen.values())


def test_line_search_rejects_non_finite_values():
    with pytest.raises(ValueError, match="not finite"):
        line_search(lambda g: float("nan"), LineSearch(1e-8, 50))


def test_line_search_given_a_minimizer_compares_it_with_the_endpoints():
    calls = []

    def phi(g):
        calls.append(g)
        return (g - 0.3) ** 2

    assert line_search(phi, gamma_star=0.3) == 0.3
    assert calls == [0.0, 1.0, 0.3]
    # a claimed minimizer worse than an endpoint loses to it
    assert line_search(lambda g: g, gamma_star=0.5) == 0.0
    assert line_search(lambda g: -g, gamma_star=0.5) == 1.0
    # ties still go to the smaller gamma
    assert line_search(lambda g: 5.0, gamma_star=0.5) == 0.0
    with pytest.raises(ValueError, match="not finite"):
        line_search(lambda g: math.inf if g == 0.5 else g, gamma_star=0.5)


@pytest.mark.parametrize("gamma_star", [-1e-12, 1.5, math.nan])
def test_line_search_rejects_a_minimizer_off_the_segment(gamma_star):
    calls = []
    with pytest.raises(ValueError, match=r"must lie in \[0,1\]"):
        line_search(lambda g: calls.append(g) or g, gamma_star=gamma_star)
    assert calls == []


@given(st.floats(-2.0, 2.0), st.floats(1e-6, 2.0))
def test_exact_quadratic_step_matches_clipped_vertex(a, b):
    gamma = line_search_quadratic_exact(a, b)
    assert gamma == max(0.0, min(1.0, -a / b))


def test_exact_quadratic_step_degenerate_slope():
    assert line_search_quadratic_exact(1.0, 0.0) == 0.0  # increasing line
    assert line_search_quadratic_exact(-1.0, 0.0) == 1.0  # decreasing line
    assert line_search_quadratic_exact(0.0, 0.0) == 0.0


# --- open-loop schedules ----------------------------------------------------------

def test_harmonic_classic_values():
    rule = Harmonic(2.0)
    assert schedule_value(rule, 0) == 1.0
    assert schedule_value(rule, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert schedule_value(rule, 2) == 0.5


def test_power_schedule_values():
    rule = Power(1.0, 0.5)
    assert schedule_value(rule, 0) == 1.0
    assert schedule_value(rule, 3) == 0.5


def test_dh_closed_form_is_the_exact_upper_envelope():
    # the recursion telescopes to gamma0/(gamma0*k + 1); the implementation
    # must equal that expression bit for bit, since downstream verification
    # compares with zero tolerance
    for gamma0 in [0.1, 0.5, 1.0]:
        rule = DHRecursion(gamma0)
        ks = np.arange(0, 100_000, dtype=float)
        vals = rule.values(99_999)
        envelope = gamma0 / (gamma0 * ks + 1.0)
        assert np.array_equal(vals, envelope)
        assert np.all(vals >= gamma0 / (ks + 1.0))


def test_dh_iterative_recursion_tracks_closed_form():
    # literal float iteration drifts; it must stay within 1e-12 relative
    for gamma0 in [0.1, 0.5, 1.0]:
        it = dh_terms_iterative(gamma0, 100_000)
        cf = DHRecursion(gamma0).values(100_000)
        assert np.max(np.abs(it - cf) / cf) <= 1e-12


def test_dh_satisfies_its_own_recursion_within_float_error():
    vals = DHRecursion(0.7).values(1000)
    stepped = vals[:-1] / (1.0 + vals[:-1])
    assert np.allclose(vals[1:], stepped, rtol=1e-14)


@given(
    st.sampled_from(
        [Harmonic(1.0), Harmonic(2.0), Harmonic(4.5), Power(1.0, 0.5),
         Power(0.3, 1.0), DHRecursion(1.0), DHRecursion(0.25)]
    ),
    st.integers(0, 5000),
)
def test_schedule_vectorization_agrees_pointwise(rule, k):
    vals = rule.values(k)
    assert vals.shape == (k + 1,)
    assert vals[k] == schedule_value(rule, k)
    assert 0.0 < vals[k] <= 1.0


def test_dh_envelope_holds_exactly_and_needs_a_horizon_of_ten():
    for gamma0 in (0.1, 0.5, 1.0):
        assert dh_envelope_holds(DHRecursion(gamma0), horizon=10_000)
    with pytest.raises(ValueError, match="horizon"):
        dh_envelope_holds(DHRecursion(0.5), horizon=9)


def test_dh_envelope_check_holds_one_horizon_length_array():
    horizon = 100_000
    dh_envelope_holds(DHRecursion(0.5), horizon=10)  # first calls' caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert dh_envelope_holds(DHRecursion(0.5), horizon=horizon)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the schedule itself, then the envelope a block at a time; taking the
    # bounds over the whole horizon at once would add four such arrays
    assert peak < 1.5 * 8 * (horizon + 1)


_UNIT = st.floats(0.0, 1.0, exclude_min=True)
# a horizon on either side of each of the first block boundaries, or any below them
_BOUNDARY = st.sampled_from([m * BLOCK + d for m in (1, 2, 3) for d in range(-2, 3)])


@settings(max_examples=60)
@given(st.one_of(st.builds(Harmonic, st.floats(1.0, 1e6)),
                 st.builds(Power, _UNIT, _UNIT),
                 st.builds(DHRecursion, _UNIT)),
       st.one_of(_BOUNDARY, st.integers(0, 3 * BLOCK + 2)))
def test_blocked_schedule_is_the_one_shot_schedule_bit_for_bit(rule, upto):
    assert rule.values(upto).tobytes() == schedule_one_shot(rule, upto).tobytes()


def test_open_loop_classification():
    assert isinstance(Harmonic(2.0), OpenLoop)
    assert isinstance(Power(1.0, 0.5), OpenLoop)
    assert isinstance(DHRecursion(1.0), OpenLoop)
    assert not isinstance(LineSearch(1e-10, 200), OpenLoop)
    assert not isinstance(ProjectedGradient(0.5), OpenLoop)


# --- parameter validation ------------------------------------------------------------

def test_rule_parameter_validation():
    with pytest.raises(ValueError):
        Harmonic(0.5)
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError, match="'c' must be a finite number"):
            Harmonic(c)
    with pytest.raises(ValueError):
        Power(0.0, 0.5)
    with pytest.raises(ValueError):
        Power(1.0, 1.5)
    with pytest.raises(ValueError):
        DHRecursion(1.5)
    with pytest.raises(ValueError):
        LineSearch(0.0, 200)
    with pytest.raises(ValueError):
        LineSearch(1e-10, 1)
    # a Python call gets the checks and messages a spec gets
    for build, message in [
        (lambda: Harmonic(True), "'c' must be a finite number, got True"),
        (lambda: Harmonic(0.5), "'c' must be >= 1, got 0.5"),
        (lambda: Power(1.0, True), "'p' must be a number in (0, 1], got True"),
        (lambda: Power(2.0, 0.5), "'gamma0' must be a number in (0, 1], got 2.0"),
        (lambda: DHRecursion(0.0), "'gamma0' must be a number in (0, 1], got 0.0"),
        (lambda: LineSearch(math.inf, 200), "'tol' must be a finite positive number, got inf"),
        (lambda: ProjectedGradient(0), "'step' must be a finite positive number, got 0"),
        # a range a field's type does not hold names the field in the same form
        (lambda: LineSearch(1e-10, 1), "'max_evals' must be >= 2, got 1"),
        (lambda: TAlpha(2.5), "'alpha' must lie in (1, 2), got 2.5"),
        (lambda: Box(2, [0.0, 1.0], [1.0, 1.0]),
         "'lower' must be strictly below 'upper' componentwise"),
    ]:
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            build()


def test_rule_descriptor_round_trip():
    for rule in [LineSearch(1e-10, 200), Harmonic(2.0), Power(0.5, 0.75),
                 DHRecursion(0.3)]:
        assert rule_from_descriptor(rule.descriptor()) == rule


def test_rule_descriptor_rejects_unknown_kind_and_fields():
    with pytest.raises(ValueError, match="unknown stepsize rule kind"):
        rule_from_descriptor({"kind": "armijo"})
    with pytest.raises(ValueError, match="missing field"):
        rule_from_descriptor({"kind": "power", "gamma0": 1.0})
    with pytest.raises(ValueError, match="unknown fields"):
        rule_from_descriptor({"kind": "harmonic", "c": 2.0, "warmup": 5})
