"""Spec parsing, materialization, validation, and fingerprint stability."""
import copy
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from fwlab import analysis, checks, geometry, objectives, stepsize
from fwlab.config import (
    ExperimentSpec,
    build_problem,
    build_rule,
    build_stop,
    load_spec,
    parse_spec,
    resolve_x0,
    spec_fingerprint,
    validate_spec,
)
from fwlab.geometry import Box, L1Ball, Simplex
from fwlab.schema import field_types, typed
from fwlab.stepsize import Harmonic, ProjectedGradient


def _solving_raw(**over):
    raw = {
        "name": "smoke",
        "seed": 7,
        "problem": {
            "set": {"kind": "simplex", "dim": 3},
            "objective": {"kind": "quadratic", "b": [0.0, 0.0, 0.0]},
        },
        "rule": {"kind": "harmonic", "c": 2.0},
        "x0": "vertex(0)",
        "stop": {"max_iter": 5},
    }
    raw.update(over)
    return raw


# --- parse_spec --------------------------------------------------------------

def test_parse_minimal_analysis_only_spec():
    spec = parse_spec({"name": "probe", "seed": 0})
    assert not spec.is_solving()
    assert spec.checks == []
    assert spec_fingerprint(spec) == ""


def test_parse_full_solving_spec():
    spec = parse_spec(_solving_raw())
    assert spec.is_solving()
    assert spec.name == "smoke"


def test_parse_rejects_unknown_spec_fields():
    with pytest.raises(ValueError, match=r"unknown fields \['extra'\]"):
        parse_spec(_solving_raw(extra=1))


def test_parse_rejects_non_object():
    with pytest.raises(ValueError, match="must be a JSON object"):
        parse_spec([1, 2, 3])


@pytest.mark.parametrize("name", ["", None, 3, "has space", "has/slash", "has\x00nul"])
def test_parse_rejects_bad_names(name):
    with pytest.raises(ValueError, match="'name'"):
        parse_spec(_solving_raw(name=name))


def test_parse_rejects_non_integer_seed():
    with pytest.raises(ValueError, match="'seed'"):
        parse_spec(_solving_raw(seed="7"))


@pytest.mark.parametrize("seed", [True, "1", 1.5])
def test_parse_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match=r"^<spec>: 'seed' must be an integer, got "):
        parse_spec(_solving_raw(seed=seed))


def test_parse_rejects_unknown_problem_fields():
    raw = _solving_raw()
    raw["problem"]["mystery"] = 1
    with pytest.raises(ValueError, match=r"problem: unknown fields \['mystery'\]"):
        parse_spec(raw)


def test_parse_requires_set_and_objective():
    raw = _solving_raw()
    del raw["problem"]["objective"]
    with pytest.raises(ValueError, match=r"problem: missing fields \['objective'\]"):
        parse_spec(raw)


def test_parse_solving_parts_are_all_or_none():
    raw = _solving_raw()
    del raw["x0"], raw["stop"]
    with pytest.raises(ValueError, match=r"missing \['x0', 'stop'\]"):
        parse_spec(raw)


def test_parse_solving_parts_require_problem():
    raw = _solving_raw()
    del raw["problem"]
    with pytest.raises(ValueError, match="'problem' is required"):
        parse_spec(raw)


def test_parse_rejects_malformed_checks():
    with pytest.raises(ValueError, match="'checks'"):
        parse_spec(_solving_raw(checks=[3]))
    with pytest.raises(ValueError, match=r"checks\[0\] is missing 'kind'"):
        parse_spec(_solving_raw(checks=[{"tol": 1e-9}]))


def test_parse_error_names_the_source():
    with pytest.raises(ValueError, match="myfile.json:"):
        parse_spec({"name": "x", "seed": "bad"}, source="myfile.json")


# --- load_spec ---------------------------------------------------------------

def test_load_spec_round_trips_through_json(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_solving_raw()))
    spec = load_spec(path)
    assert spec.as_dict() == parse_spec(_solving_raw()).as_dict()


def test_load_spec_reports_invalid_json_with_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_spec(path)


# --- materialization ---------------------------------------------------------

def test_resolve_x0_vector_and_dimension_check():
    spec = parse_spec(_solving_raw(x0=[0.2, 0.3, 0.5]))
    fs = Simplex(3)
    assert np.array_equal(resolve_x0(spec, fs), [0.2, 0.3, 0.5])
    bad = parse_spec(_solving_raw(x0=[1.0, 0.0]))
    with pytest.raises(ValueError, match="dimension"):
        resolve_x0(bad, fs)
    for x0 in ([1.0, "0", 0.0], [True, False, False]):  # numpy reads both as [1, 0, 0]
        with pytest.raises(ValueError, match=r"^smoke: 'x0' must be a vector of "
                                             r"numbers; entry [01] is "):
            resolve_x0(parse_spec(_solving_raw(x0=x0)), fs)


def test_resolve_x0_vertex_and_sample_forms():
    fs = Simplex(3)
    spec = parse_spec(_solving_raw(x0="vertex(2)"))
    assert np.array_equal(resolve_x0(spec, fs), [0.0, 0.0, 1.0])
    spec = parse_spec(_solving_raw(x0="sample(11)"))
    assert np.array_equal(resolve_x0(spec, fs), fs.sample(11))


def test_resolve_x0_vertex_out_of_range():
    spec = parse_spec(_solving_raw(x0="vertex(3)"))
    with pytest.raises(ValueError, match="out of range"):
        resolve_x0(spec, Simplex(3))


def test_resolve_x0_vertex_out_of_range_reports_the_full_count():
    for fs, i, count in ((L1Ball(3, 1.0), 6, 6),
                         (Box(13, np.zeros(13), np.ones(13)), 100, 28),
                         (Simplex(3), 3, 3)):
        spec = parse_spec(_solving_raw(x0=f"vertex({i})"))
        with pytest.raises(ValueError) as err:
            resolve_x0(spec, fs)
        assert str(err.value) == (f"smoke: vertex({i}) out of range, "
                                  f"set has {count} listed extreme points")


@pytest.mark.parametrize("fs, i", [(L1Ball(2000, 1.0), 0), (Simplex(2000), 1999),
                                   (L1Ball(2000, 1.0), 3999)])
def test_resolve_x0_vertex_builds_one_row_not_the_table(fs, i):
    # building rows 0..i to return row i peaked at 32 MB for vertex(1999)
    # on the simplex and at 64 MB for vertex(3999), the ball's last row
    spec = parse_spec(_solving_raw(x0=f"vertex({i})"))
    tracemalloc.start()
    try:
        x0 = resolve_x0(spec, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert x0[i % 2000] == (-1.0 if i >= 2000 else 1.0)
    assert np.count_nonzero(x0) == 1 and np.signbit(x0).all() == (i >= 2000)


def test_resolve_x0_rejects_unknown_string():
    # checked when the spec is parsed, so resolve_x0 never sees it
    with pytest.raises(ValueError, match="'vertex\\(i\\)' or 'sample\\(seed\\)'"):
        parse_spec(_solving_raw(x0="center"))


@pytest.mark.parametrize("x0", ["vertex(0)\n", "sample(3) ", " vertex(0)", "vertex(-1)",
                                "vertex()", "sample(1)(2)"])
def test_parse_rejects_an_x0_string_that_is_not_exactly_one_form(x0):
    with pytest.raises(ValueError, match=re.escape(
            f"<spec>: x0 string must be 'vertex(i)' or 'sample(seed)', got {x0!r}")):
        parse_spec(_solving_raw(x0=x0))


def test_parse_reads_a_null_section_as_omitted():
    spec = parse_spec({"name": "probe", "seed": 0, "problem": None, "rule": None,
                       "x0": None, "stop": None})
    assert not spec.is_solving() and spec.problem is None


@pytest.mark.parametrize("over, message", [
    ({"name": None}, "'name' must be a nonempty string with no '/', '\\', space or NUL, "
                     "got None"),
    ({"seed": None}, "'seed' must be an integer, got None"),
    ({"checks": None}, "'checks' must be a list of objects, got None"),
    ({"checks": [{"kind": "monotonicity"}, 3]},
     "'checks' must be a list of objects; entry 1 is int"),
    ({"rule": 5}, "'rule' must be an object or null, got 5"),
    ({"stop": [5]}, "'stop' must be an object or null, got list"),
    ({"x0": 0}, "'x0' must be a vector, 'vertex(i)' or 'sample(seed)', got 0"),
    ({"problem": {"set": None, "objective": {"kind": "quadratic", "b": [0.0] * 3}}},
     "problem: 'set' must be an object, got None"),
    ({"problem": [1]}, "'problem' must be an object or null, got list"),
    ({"self": 1}, "unknown fields ['self']"),
])
def test_parse_rejects_a_mistyped_spec_field_by_name(over, message):
    with pytest.raises(ValueError, match="^" + re.escape(f"<spec>: {message}") + "$"):
        parse_spec(_solving_raw(**over))


def test_build_rule_returns_rule_object_or_gpa_descriptor():
    assert isinstance(build_rule(parse_spec(_solving_raw())), Harmonic)
    gpa = build_rule(parse_spec(_solving_raw(rule={"kind": "gpa", "step": 1})))
    assert gpa == ProjectedGradient(1)
    # the descriptor echoes the spec's step unchanged, so fingerprints keep their bytes
    assert gpa.descriptor() == {"kind": "gpa", "step": 1}
    assert type(gpa.descriptor()["step"]) is int


def test_build_rule_rejects_bad_gpa_descriptors():
    spec = parse_spec(_solving_raw(rule={"kind": "gpa", "step": 0.5, "tol": 1}))
    with pytest.raises(ValueError, match=r"smoke: rule: unknown fields \['tol'\]"):
        build_rule(spec)
    spec = parse_spec(_solving_raw(rule={"kind": "gpa", "step": -1.0}))
    with pytest.raises(ValueError,
                       match="smoke: rule: 'step' must be a finite positive number, got -1.0"):
        build_rule(spec)


def test_build_stop_defaults_and_unknown_fields():
    stop = build_stop(parse_spec(_solving_raw()))
    assert stop.max_iter == 5 and stop.gap_tol == 0.0
    spec = parse_spec(_solving_raw(stop={"max_iter": 5, "patience": 2}))
    with pytest.raises(ValueError, match=r"smoke: stop: unknown fields \['patience'\]"):
        build_stop(spec)


# --- validate_spec -----------------------------------------------------------

def test_validate_accepts_the_smoke_spec():
    validate_spec(parse_spec(_solving_raw()))


def test_validate_rejects_infeasible_x0():
    spec = parse_spec(_solving_raw(x0=[0.9, 0.9, 0.9]))
    with pytest.raises(ValueError, match="not feasible"):
        validate_spec(spec)


def test_validate_rejects_gpa_with_composite_part():
    raw = _solving_raw(rule={"kind": "gpa", "step": 0.5})
    raw["problem"]["composite"] = {"kind": "l1", "lam": 0.1}
    with pytest.raises(ValueError, match="smoke: rule: gpa rule cannot take a composite"):
        validate_spec(parse_spec(raw))


def test_validate_rejects_composite_on_a_vertex_polytope():
    raw = _solving_raw(x0=[1.0, 0.0, 0.0])
    raw["problem"]["set"] = {"kind": "vertex_polytope",
                             "vertices": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
    raw["problem"]["composite"] = {"kind": "l1", "lam": 0.1}
    with pytest.raises(ValueError, match=r"smoke: problem\.composite: .*vertex_polytope"):
        validate_spec(parse_spec(raw))


@pytest.mark.parametrize("vertices, message", [
    ([[1.0, 0.0, 0.0], [0.0, math.nan, 1.0]], "'vertices' contains non-finite entries"),
    ([], "'vertices' must be a nonempty list of d-vectors"),
    ([[]], "'vertices' must be a nonempty list of d-vectors"),
    ([[1.0, 0.0], [1.0]], "'vertices' rows differ in length: row 0 has 2 entries, row 1 has 1"),
], ids=["nan", "empty", "zero-dimensional", "ragged"])
def test_validate_names_the_vertices_of_a_bad_vertex_polytope(vertices, message):
    raw = _solving_raw()
    raw["problem"]["set"] = {"kind": "vertex_polytope", "vertices": vertices}
    with pytest.raises(ValueError, match=rf"^smoke: problem\.set: {re.escape(message)}$"):
        validate_spec(parse_spec(raw))


def test_validate_rejects_gpa_with_gap_tol():
    raw = _solving_raw(rule={"kind": "gpa", "step": 0.5},
                       stop={"max_iter": 5, "gap_tol": 1e-6})
    with pytest.raises(ValueError, match="smoke: rule: gpa rule ignores gap_tol"):
        validate_spec(parse_spec(raw))


def test_validate_rejects_degenerate_bound_before_any_solve():
    # a Delta <= 0 bound is a config bug; it must die at validation time
    check = {"kind": "bound-domination", "opt": 0.0,
             "bound": {"kind": "open_loop_order_sigma", "Delta": 0.0, "sigma": 2.0}}
    spec = parse_spec(_solving_raw(checks=[check]))
    with pytest.raises(ValueError, match=r"checks\[0\]"):
        validate_spec(spec)


@pytest.mark.parametrize("objective", [
    {"kind": "quadratic", "b": [0.0, 0.0]},
    {"kind": "power_norm", "sigma": 1.5, "b": [0.0, 0.0, 0.0, 0.0]},
    {"kind": "linear", "c": [1.0, 2.0]},
], ids=["quadratic", "power_norm", "linear"])
def test_validate_rejects_an_objective_vector_of_the_wrong_length(objective):
    field = "c" if "c" in objective else "b"
    shape = (len(objective[field]),)
    raw = _solving_raw(problem={"set": _SIMPLEX, "objective": objective})
    with pytest.raises(ValueError, match="^" + re.escape(
            f"smoke: problem.objective: '{field}' has shape {shape}, set dimension is 3")):
        validate_spec(parse_spec(raw))


def test_validate_names_the_offending_check():
    spec = parse_spec(_solving_raw(checks=[{"kind": "no-such-check"}]))
    with pytest.raises(ValueError, match=r"checks\[0\]: unknown check kind"):
        validate_spec(spec)


@pytest.mark.parametrize("check, field", [
    ({"kind": "optimum-proximity", "tol": "1e-6"}, "tol"),
    ({"kind": "lower-bound", "coeff": "0.1", "k_min": 1, "k_max": 4}, "coeff"),
    ({"kind": "lower-bound", "coeff": 0.1, "k_min": "1", "k_max": 4}, "k_min"),
    ({"kind": "non-convergence-margin", "margin": "0.1", "k_min": 1, "k_max": 4}, "margin"),
    ({"kind": "optimum-proximity", "tol": True}, "tol"),
])
def test_validate_names_a_non_numeric_check_field(check, field):
    spec = parse_spec(_solving_raw(checks=[check]))
    with pytest.raises(ValueError, match=rf"checks\[0\]: '{field}' must be a"):
        validate_spec(spec)


def test_validate_rejects_final_x_of_the_wrong_dimension():
    check = {"kind": "finite-termination", "final_x": [1.0, 0.0]}
    spec = parse_spec(_solving_raw(checks=[check]))
    with pytest.raises(ValueError, match=r"checks\[0\]: 'final_x' has shape \(2,\), "
                                         r"set dimension is 3"):
        validate_spec(spec)
    check["final_x"] = [1.0, "a", 0.0]
    with pytest.raises(ValueError, match=r"checks\[0\]: 'final_x' must be a vector"):
        validate_spec(parse_spec(_solving_raw(checks=[check])))
    # JSON's NaN and Infinity: a NaN entry once passed, as err > tol is False
    for bad in (math.nan, math.inf, -math.inf):
        check["final_x"] = [1.0, bad, 0.0]
        with pytest.raises(ValueError, match=r"checks\[0\]: 'final_x' contains non-finite"):
            validate_spec(parse_spec(_solving_raw(checks=[check])))
    check["final_x"] = [1.0, 0.0, 0.0]
    validate_spec(parse_spec(_solving_raw(checks=[check])))


def _t_alpha_raw(lower):
    box = {"kind": "box", "dim": 1, "lower": [lower], "upper": [1.0]}
    return {"name": "tt", "seed": 0,
            "problem": {"set": box, "objective": {"kind": "t_alpha", "alpha": 1.5}},
            "checks": [{"kind": "curvature-exact", "sigma": 1.5, "expect": 1.5,
                        "tol": 1e-6, "n_samples": 10}]}


def test_t_alpha_optimum_is_the_lowest_point_of_its_set():
    # f* was recorded as 0 on every set, though t^1.5 is 0.5^1.5 at best on [0.5, 1]
    for lower, want in ((0.5, 0.5 ** 1.5), (0.0, 0.0)):
        spec = parse_spec(_t_alpha_raw(lower))
        validate_spec(spec)
        problem = build_problem(spec)
        assert problem.x_star.tobytes() == np.array([lower]).tobytes()
        assert problem.f_star == want


def test_validate_rejects_a_t_alpha_set_that_reaches_below_zero():
    # (-1.0) ** 1.5 is complex: a solve died on a TypeError from math.isfinite
    with pytest.raises(ValueError, match="^" + re.escape(
            "tt: problem.objective: t_alpha is defined on t >= 0; "
            "the set reaches t = -1.0") + "$"):
        validate_spec(parse_spec(_t_alpha_raw(-1.0)))


def test_nesterov_max_off_the_disc_needs_an_explicit_opt():
    # the box [-1, 1]^2 reaches f = -1; the disc's -1/sqrt2 is not its optimum
    box = {"kind": "box", "dim": 2, "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
    problem = {"set": box, "objective": {"kind": "nesterov_max"}}
    check = {"kind": "optimum-proximity", "tol": 1e-6}
    raw = _solving_raw(problem=problem, x0=[1.0, 0.0], checks=[check])
    with pytest.raises(ValueError, match=r"^smoke: checks\[0\]: objective has no "
                                         r"recorded optimum; give 'opt' explicitly$"):
        validate_spec(parse_spec(raw))
    validate_spec(parse_spec(_solving_raw(problem=problem, x0=[1.0, 0.0],
                                          checks=[{**check, "opt": -1.0}])))
    disc = {"kind": "l2_ball", "dim": 2, "radius": 2.0}
    validate_spec(parse_spec(_solving_raw(problem={**problem, "set": disc},
                                          x0=[1.0, 0.0], checks=[check])))


@pytest.mark.parametrize("check, err", [
    # a factor below 1 deflates the sampled lower estimate, and one <= 0 negates it
    *(({"kind": "bound-domination", "opt": 0.0,
        "bound": {"kind": "open_loop_order_sigma", "sigma": 1.5,
                  "assemble": {"inflate": inflate, "n_samples": 10, "seed": 0}}},
       f"bound: assemble: 'inflate' must be >= 1, got {inflate!r}") for inflate in (0.5, 0, -1)),
    # k_min + offset <= 0 divides by zero (-inf slack) or makes the floor vacuous
    *(({"kind": "lower-bound", "opt": 0.0, "coeff": 0.25, "offset": offset,
        "k_min": 1, "k_max": 49}, f"'offset' must be > -k_min = -1, got {offset!r}")
      for offset in (-1.0, -60.0)),
], ids=["inflate-0.5", "inflate-0", "inflate-neg1", "offset-neg1", "offset-neg60"])
def test_validate_rejects_a_bound_parameter_that_makes_its_check_vacuous(check, err):
    spec = parse_spec(_solving_raw(checks=[check]))
    with pytest.raises(ValueError, match="^" + re.escape(f"smoke: checks[0]: {err}") + "$"):
        validate_spec(spec)


# One valid descriptor per check kind (and per bound and assemble shape), all
# validated against a composite box problem, which every kind accepts. Each
# field of each, nested ones included, is fed a string, null and a bool (an
# int for a bool field, also a float for an integer field, and an infinity and
# NaN for a number field); validation must reject every one and name the field.
_VALID_CHECKS = [
    {"kind": "monotonicity", "tol": 1e-12},
    {"kind": "bound-domination", "opt": 0.0, "k_min": 1, "tol_add": 0.0, "tol_rel": 0.0,
     "bound": {"kind": "harmonic_classic", "C_f": 4.0}},
    {"kind": "bound-domination", "opt": 0.0,
     "bound": {"kind": "line_search_order_sigma", "theta0": 1.0, "sigma": 2.0,
               "C_sigma": 4.0}},
    {"kind": "bound-domination", "opt": 0.0,
     "bound": {"kind": "open_loop_order_sigma", "sigma": 2.0, "Delta": 1.0,
               "composite": True}},
    {"kind": "bound-domination", "opt": 0.0,
     "bound": {"kind": "open_loop_order_sigma", "sigma": 2.0,
               "assemble": {"C_sigma": 4.0}}},
    {"kind": "bound-domination", "opt": 0.0,
     "bound": {"kind": "open_loop_order_sigma", "sigma": 1.5,
               "assemble": {"inflate": 1.2, "n_samples": 10, "seed": 0}}},
    {"kind": "lower-bound", "opt": 0.0, "coeff": 0.1, "offset": 1.0, "k_min": 1,
     "k_max": 4, "tol": 1e-12},
    {"kind": "finite-termination", "at_k": 1, "final_x": [1.0, 0.0, 0.0], "tol": 1e-12},
    {"kind": "non-convergence-margin", "opt": 0.0, "margin": 0.1, "k_min": 1, "k_max": 4},
    {"kind": "rate-slope", "opt": 0.0, "max_slope": -0.5, "tail_fraction": 0.5},
    {"kind": "optimum-proximity", "opt": 0.0, "tol": 1e-6},
    {"kind": "curvature-exact", "sigma": 2.0, "expect": 1.0, "tol": 1e-6,
     "n_samples": 10, "seed": 0},
    {"kind": "curvature-divergence", "sigma": 2.0, "threshold": 1e3, "n_samples": 10,
     "seed": 0},
    {"kind": "oracle-grid-match", "seed": 0, "n_vectors": 2, "tol": 1e-6,
     "grid_points": 11},
    {"kind": "schedule-bounds", "gamma0s": [0.5], "horizon": 100},
]


def _with(desc, path, value):
    """A copy of desc with the field at path, a tuple of keys, set to value."""
    out = dict(desc)
    out[path[0]] = value if len(path) == 1 else _with(desc[path[0]], path[1:], value)
    return out


def _field_paths(desc, prefix=()):
    for key, value in desc.items():
        if key != "kind":
            yield prefix + (key,)
            if isinstance(value, dict):
                yield from _field_paths(value, prefix + (key,))


def _get(desc, path):
    return desc[path[0]] if len(path) == 1 else _get(desc[path[0]], path[1:])


def _mistyped_checks():
    for desc in _VALID_CHECKS:
        for path in _field_paths(desc):
            good = _get(desc, path)
            bads = ["x", None, 1 if isinstance(good, bool) else True]
            if type(good) is int:
                bads.append(1.5)  # an integer field takes no float
            if type(good) in (int, float):
                bads += [math.inf, math.nan]  # JSON's Infinity and NaN
            for bad in bads:
                yield pytest.param(desc, _with(desc, path, bad), path,
                                   id=f"{desc['kind']}-{'.'.join(path)}={bad!r}")
    # the inputs that used to pass validation, escape it as a TypeError, or
    # run on a coerced or out-of-range value
    def first(kind, path):
        return next(desc for desc in _VALID_CHECKS
                    if desc["kind"] == kind and path in set(_field_paths(desc)))

    for kind, path, bad in [
        ("bound-domination", ("tol_add",), "x"), ("bound-domination", ("k_min",), "one"),
        ("bound-domination", ("tol_rel",), None), ("bound-domination", ("opt",), True),
        ("bound-domination", ("bound", "C_f"), "4"),
        ("rate-slope", ("tail_fraction",), "half"), ("rate-slope", ("max_slope",), "-0.5"),
        ("monotonicity", ("tol",), None),
        ("curvature-exact", ("n_samples",), "many"), ("curvature-exact", ("sigma",), "2"),
        ("schedule-bounds", ("horizon",), "100"), ("schedule-bounds", ("horizon",), 100.5),
        ("schedule-bounds", ("gamma0s",), ["0.5"]),
        ("finite-termination", ("at_k",), "3"),
        ("rate-slope", ("tail_fraction",), 2.0), ("rate-slope", ("tail_fraction",), 0.0),
        ("curvature-exact", ("n_samples",), 0), ("curvature-divergence", ("n_samples",), 0),
        ("bound-domination", ("bound", "assemble", "n_samples"), 0),
        ("oracle-grid-match", ("grid_points",), 0), ("oracle-grid-match", ("n_vectors",), 0),
        ("curvature-exact", ("sigma",), 3.0), ("curvature-divergence", ("sigma",), 0.5),
        ("curvature-divergence", ("threshold",), -1.0),
    ]:
        desc = first(kind, path)
        yield pytest.param(desc, _with(desc, path, bad), path,
                           id=f"reported-{kind}-{'.'.join(path)}={bad!r}")


def _box_composite_raw(check):
    """The smoke spec on an l1-composite quadratic over [-1, 1]^3, which
    every check of _VALID_CHECKS takes, with check as its one check."""
    raw = _solving_raw(x0=[1.0, 0.0, 0.0], checks=[check])
    raw["problem"] = {"set": {"kind": "box", "dim": 3, "lower": [-1.0] * 3,
                              "upper": [1.0] * 3},
                      "objective": {"kind": "quadratic", "b": [0.5, 0.0, 0.0]},
                      "composite": {"kind": "l1", "lam": 0.1}}
    return raw


def _nested_at(path) -> str:
    """The prefix an error at path carries: each object holding the field."""
    return "".join(f"{key}: " for key in path[:-1])


@pytest.mark.parametrize("valid, check, path", _mistyped_checks())
def test_validate_rejects_a_mistyped_check_field_by_name(valid, check, path):
    validate_spec(parse_spec(_box_composite_raw(valid)))
    with pytest.raises(ValueError, match="^" + re.escape(
            f"smoke: checks[0]: {_nested_at(path)}'{path[-1]}' must be ")):
        validate_spec(parse_spec(_box_composite_raw(check)))


@pytest.mark.parametrize("kind, path", [
    ("curvature-exact", ("seed",)), ("curvature-divergence", ("seed",)),
    ("oracle-grid-match", ("seed",)), ("bound-domination", ("bound", "assemble", "seed")),
], ids=["curvature-exact", "curvature-divergence", "oracle-grid-match", "assemble"])
def test_validate_rejects_a_negative_seed_by_name(kind, path):
    # each once validated, and the check then errored in numpy's generator
    # with "expected non-negative integer", naming no field
    valid = next(desc for desc in _VALID_CHECKS
                 if desc["kind"] == kind and path in set(_field_paths(desc)))
    validate_spec(parse_spec(_box_composite_raw(_with(valid, path, 0))))
    with pytest.raises(ValueError, match="^" + re.escape(
            f"smoke: checks[0]: {_nested_at(path)}'seed' must be a non-negative integer, "
            "got -1") + "$"):
        validate_spec(parse_spec(_box_composite_raw(_with(valid, path, -1))))


_OPEN_LOOP_SAMPLED = {"kind": "open_loop_order_sigma", "sigma": 1.5,
                      "assemble": {"inflate": 1.2, "n_samples": 10, "seed": 0}}


@pytest.mark.parametrize("bound, err", [
    ({"kind": "harmonic_classic", "C_f": 4.0, "zz": 1}, "bound: unknown fields ['zz']"),
    ({"kind": "harmonic_upper", "C_f": 4.0}, "bound: unknown bound kind 'harmonic_upper'"),
    ({"kind": "harmonic_classic", "C_f": -1.0},
     "bound: 'C_f' must be a finite positive number, got -1.0"),
    (_with(_OPEN_LOOP_SAMPLED, ("assemble", "zz"), 1), "bound: assemble: unknown fields ['zz']"),
    # an assemble object's shape is its kind, so one that names a kind is unknown
    (_with(_OPEN_LOOP_SAMPLED, ("assemble",), {"kind": "given", "C_sigma": 4.0}),
     "bound: assemble: unknown fields ['kind']"),
    (_with(_OPEN_LOOP_SAMPLED, ("assemble", "inflate"), 0.5),
     "bound: assemble: 'inflate' must be >= 1, got 0.5"),
], ids=["bound-unknown-field", "bound-unknown-kind", "bound-out-of-range",
        "assemble-unknown-field", "assemble-unknown-kind", "assemble-out-of-range"])
def test_an_error_inside_a_nested_check_object_names_that_object(bound, err):
    # each once read "smoke: checks[0]: ..." with no object named, the same
    # text as a fault on the check itself
    check = {"kind": "bound-domination", "opt": 0.0, "bound": bound}
    with pytest.raises(ValueError, match="^" + re.escape(f"smoke: checks[0]: {err}") + "$"):
        validate_spec(parse_spec(_box_composite_raw(check)))
    with pytest.raises(ValueError, match="^" + re.escape(
            "smoke: checks[0]: unknown fields ['zz']") + "$"):
        validate_spec(parse_spec(_box_composite_raw({**check, "zz": 1})))


# where a key lands in a spec, and the section its error names
_KEY_SECTIONS = {
    "spec": ((), "<spec>: "),
    "problem": (("problem",), "<spec>: problem: "),
    "set": (("problem", "set"), "smoke: problem.set: "),
    "objective": (("problem", "objective"), "smoke: problem.objective: "),
    "composite": (("problem", "composite"), "smoke: problem.composite: "),
    "rule": (("rule",), "smoke: rule: "),
    "stop": (("stop",), "smoke: stop: "),
    "check": (("checks", 0), "smoke: checks[0]: "),
    "bound": (("checks", 0, "bound"), "smoke: checks[0]: bound: "),
}


@pytest.mark.parametrize("keys, listed", [
    ({1: 2}, "[1]"),
    ({1: 2, "zz": 3}, "[1, 'zz']"),
], ids=["int", "int-and-str"])
@pytest.mark.parametrize("section", _KEY_SECTIONS)
def test_a_key_that_is_not_a_string_is_an_unknown_field(section, keys, listed):
    # a Python-built spec's int key was a bare "keywords must be strings"
    # TypeError, and beside a string key it broke the sort of the unknowns
    path, where = _KEY_SECTIONS[section]
    raw = _box_composite_raw({"kind": "bound-domination", "opt": 0.0,
                              "bound": {"kind": "harmonic_classic", "C_f": 4.0}})
    validate_spec(parse_spec(raw))
    target = raw
    for key in path:
        target = target[key]
    target.update(keys)
    with pytest.raises(ValueError, match="^" + re.escape(f"{where}unknown fields {listed}")
                       + "$"):
        validate_spec(parse_spec(raw))


# One valid descriptor per rule, set, objective and composite kind, and the
# stop rule, each as (section, descriptor, the problem it runs on). Each field
# of each is fed a string, null and a bool (a float for an integer field, and
# an infinity and NaN for a number field), and each descriptor one unknown
# field; validation must reject every one, naming the spec, the section and
# the field.
_SIMPLEX = {"kind": "simplex", "dim": 3}
_QUADRATIC = {"kind": "quadratic", "b": [0.0, 0.0, 0.0]}
_VALID_SECTIONS = [
    ("rule", {"kind": "line_search", "tol": 1e-10, "max_evals": 200}, None),
    ("rule", {"kind": "harmonic", "c": 2.0}, None),
    ("rule", {"kind": "power", "gamma0": 1.0, "p": 0.5}, None),
    ("rule", {"kind": "dh_recursion", "gamma0": 0.5}, None),
    ("rule", {"kind": "gpa", "step": 0.5}, None),
    ("stop", {"max_iter": 5, "gap_tol": 1e-9}, None),
    ("problem.set", _SIMPLEX, None),
    ("problem.set", {"kind": "l1_ball", "dim": 3, "radius": 1.0}, None),
    ("problem.set", {"kind": "l2_ball", "dim": 3, "radius": 1.0}, None),
    ("problem.set", {"kind": "box", "dim": 3, "lower": [-1.0] * 3, "upper": [1.0] * 3},
     None),
    ("problem.set", {"kind": "vertex_polytope",
                     "vertices": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}, None),
    ("problem.objective", _QUADRATIC, None),
    ("problem.objective", {"kind": "power_norm", "sigma": 1.5, "b": [0.0, 0.0, 0.0]}, None),
    ("problem.objective", {"kind": "linear", "c": [1.0, 2.0, 3.0]}, None),
    ("problem.objective", {"kind": "t_alpha", "alpha": 1.5},
     {"set": {"kind": "box", "dim": 1, "lower": [0.0], "upper": [1.0]}}),
    ("problem.objective", {"kind": "nesterov_max"},
     {"set": {"kind": "l2_ball", "dim": 2, "radius": 1.0}}),
    ("problem.composite", {"kind": "l1", "lam": 0.1}, None),
]


def _spec_with(section, desc, problem=None):
    """The smoke spec with desc as its section, on problem's parts if given."""
    raw = _solving_raw()
    raw["problem"] = {**raw["problem"], **(problem or {})}
    if section.startswith("problem."):
        raw["problem"][section.removeprefix("problem.")] = desc
    else:
        raw[section] = desc
    return raw


def _mistyped_sections():
    for section, desc, problem in _VALID_SECTIONS:
        name = f"{section}-{desc.get('kind', section)}"
        for field, good in desc.items():
            if field == "kind":
                continue
            bads = ["x", None, True] + ([1.5] if type(good) is int else [])
            if type(good) in (int, float):
                bads += [math.inf, math.nan]  # JSON's Infinity and NaN
            for bad in bads:
                yield pytest.param(_spec_with(section, desc, problem),
                                   _spec_with(section, {**desc, field: bad}, problem),
                                   rf"{section}: '{field}' must be ", id=f"{name}.{field}={bad!r}")
        yield pytest.param(_spec_with(section, desc, problem),
                           _spec_with(section, {**desc, "extra": 1}, problem),
                           rf"{section}: unknown fields \['extra'\]", id=f"{name}.extra")
    # the inputs that used to escape validation as a TypeError, validate and
    # then crash the solve, or run with a bool, a bad vector entry or a field
    # the fingerprint drops
    for section, desc, field, bad in [
        ("rule", {"kind": "harmonic", "c": 2.0}, "c", "2"),
        ("rule", {"kind": "line_search"}, "tol", "x"),
        ("stop", {"max_iter": 5}, "max_iter", "5"),
        ("stop", {"max_iter": 5}, "gap_tol", "x"),
        ("problem.set", _SIMPLEX, "dim", "3"),
        ("problem.set", _SIMPLEX, "dim", 3.0),
        ("problem.composite", {"kind": "l1", "lam": 0.1}, "lam", "x"),
        ("stop", {"max_iter": 5}, "max_iter", 5.5),
        ("rule", {"kind": "harmonic", "c": 2.0}, "c", True),
        ("stop", {"max_iter": 5}, "max_iter", True),
        ("problem.set", {"kind": "l1_ball", "dim": 3, "radius": 1.0}, "radius", True),
        ("problem.objective", _QUADRATIC, "b", [0.1, "0.2", 0.3]),
        ("problem.objective", _QUADRATIC, "b", [0.1, True, 0.3]),
        ("problem.set", _SIMPLEX, "radius", 2.0),
        ("problem.objective", _QUADRATIC, "sigma", 2.0),
        ("problem.composite", {"kind": "l1", "lam": 0.1}, "extra", 1),
    ]:
        if isinstance(bad, list):
            match = rf"'{field}' must be a vector of numbers; entry 1 is "
        elif field in ("radius", "sigma", "extra") and field not in desc:
            match = rf"unknown fields \['{field}'\]"
        else:
            match = rf"'{field}' must be "
        yield pytest.param(_spec_with(section, desc), _spec_with(section, {**desc, field: bad}),
                           rf"{section}: {match}", id=f"reported-{section}.{field}={bad!r}")


@pytest.mark.parametrize("valid, raw, match", _mistyped_sections())
def test_validate_rejects_a_mistyped_section_field_by_name(valid, raw, match):
    validate_spec(parse_spec(valid))
    with pytest.raises(ValueError, match=rf"^smoke: {match}"):
        validate_spec(parse_spec(raw))


@pytest.mark.parametrize("sign", [1, -1], ids=["+10**400", "-10**400"])
@pytest.mark.parametrize("typ", ["float", "Positive", "NonNegative", "Fraction", "Order"])
def test_a_number_field_rejects_an_integer_past_float64s_range_by_name(typ, sign):
    # -inf < 10**400 < inf holds for a Python int, so a float field let it
    # through; a rejection that did fire (Fraction, a negative Positive)
    # printed all 401 digits
    with pytest.raises(ValueError) as exc:
        typed("c", typ, sign * 10**400)
    assert re.fullmatch(r"'c' must be .*, got an integer past float64's range",
                        str(exc.value))
    good = 2 if typ == "Order" else 1
    assert typed("c", typ, good) == good  # an int in range is kept as written


@pytest.mark.parametrize("section, desc, field", [
    ("rule", {"kind": "harmonic", "c": 2.0}, "c"),
    ("stop", {"max_iter": 5}, "gap_tol"),
])
def test_validate_rejects_an_integer_past_float64s_range_before_the_solve(
        section, desc, field):
    # the harmonic c passed and Harmonic.gamma raised a bare OverflowError
    raw = _spec_with(section, {**desc, field: 10**400})
    with pytest.raises(ValueError, match=rf"^smoke: {section}: '{field}' must be a finite "
                                         rf".*, got an integer past float64's range$"):
        validate_spec(parse_spec(raw))


# every kind of every kinds table, built by a Python call from the fields of
# its valid descriptor above: an unknown or a missing field is the spec
# path's ValueError, not a TypeError, and no field of the built section can
# be assigned
_KINDS_TABLES = {"set": geometry._SET_KINDS, "rule": stepsize._RULE_KINDS,
                 "composite": objectives._COMPOSITE_KINDS, "check": checks._CHECKS,
                 "bound": analysis.BOUND_KINDS}
_EXAMPLES = {desc["kind"]: desc for desc in [
    *(desc for section, desc, _ in _VALID_SECTIONS
      if section not in ("stop", "problem.objective")),
    *_VALID_CHECKS, *(desc["bound"] for desc in _VALID_CHECKS if "bound" in desc)]}


@pytest.mark.parametrize("table, kind", [(table, kind) for table in _KINDS_TABLES
                                         for kind in _KINDS_TABLES[table]])
def test_every_section_class_reads_its_fields_and_refuses_assignment(table, kind):
    cls = _KINDS_TABLES[table][kind]
    fields = {name: v for name, v in _EXAMPLES[kind].items() if name != "kind"}
    section = cls(**fields)
    with pytest.raises(ValueError, match=r"^unknown fields \['extra'\]$"):
        cls(**fields, extra=1)
    types = field_types(cls)
    for name in fields:
        if not types[name].endswith(" | None"):
            with pytest.raises(ValueError, match=rf"^missing fields \['{name}'\]$"):
                cls(**{n: v for n, v in fields.items() if n != name})
    for name in types:
        with pytest.raises(AttributeError, match="read-only"):
            setattr(section, name, getattr(section, name))


# (class, its other fields, a vector field, an integer value for that field)
_VECTOR_FIELDS = [
    (geometry.Box, {"dim": 2, "upper": [2.0, 3.0]}, "lower", [1, 0]),
    (geometry.Box, {"dim": 2, "lower": [-2.0, -3.0]}, "upper", [1, 0]),
    (geometry.VertexPolytope, {}, "vertices", [[1, 0], [0, 1]]),
    (objectives.Quadratic, {}, "b", [1, 0]),
    (objectives.PowerNorm, {"sigma": 1.5}, "b", [1, 0]),
    (objectives.Linear, {}, "c", [1, 0]),
    (checks.FiniteTermination, {}, "final_x", [1, 0]),
    (checks.ScheduleBounds, {"horizon": 10}, "gamma0s", [1, 1]),
]


@pytest.mark.parametrize("as_array", [False, True], ids=["int-list", "int64-array"])
@pytest.mark.parametrize("cls, others, name, ints", _VECTOR_FIELDS,
                         ids=[f"{cls.kind}.{name}" for cls, _, name, _ in _VECTOR_FIELDS])
def test_every_vector_field_holds_a_private_finite_float64_array(cls, others, name, ints,
                                                                 as_array):
    given = np.array(ints, dtype=np.int64) if as_array else copy.deepcopy(ints)
    section = cls(**others, **{name: given})
    held = getattr(section, name)
    assert isinstance(held, np.ndarray) and held.dtype == np.float64
    assert not held.flags.writeable
    assert held.tolist() == ints
    # the caller's input, written after the build, does not reach the section
    if as_array:
        given.flat[0] = 7
    elif isinstance(given[0], list):
        given[0][0] = 7
    else:
        given[0] = 7
    assert held.tolist() == ints
    if not issubclass(cls, checks.Check):
        assert section.descriptor()[name] is held
    bad = np.array(ints, dtype=float)
    bad.flat[0] = math.inf
    with pytest.raises(ValueError, match=rf"^'{name}' contains non-finite entries$"):
        cls(**others, **{name: bad if as_array else bad.tolist()})


@pytest.mark.parametrize("desc", [
    {"kind": "lower-bound", "opt": 0.0, "coeff": 0.1, "k_min": 5, "k_max": 4},
    # once validated, then failed every run with "min suboptimality over k range nan"
    {"kind": "non-convergence-margin", "opt": 0.0, "margin": 0.1, "k_min": 5, "k_max": 4},
])
def test_a_window_check_rejects_k_min_past_k_max(desc):
    with pytest.raises(ValueError, match=r"^smoke: checks\[0\]: 'k_min' must be <= 'k_max'$"):
        validate_spec(parse_spec(_solving_raw(checks=[desc])))


def test_schedule_bounds_takes_its_gamma0s_as_an_array():
    # a Vector field takes an array, as a descriptor hands it out; the
    # emptiness test once raised numpy's "truth value ... is ambiguous"
    check = checks.ScheduleBounds(gamma0s=np.array([0.5, 0.7]), horizon=100)
    assert check.evaluate(None).passed
    with pytest.raises(ValueError, match="'gamma0s' must be a nonempty list"):
        checks.ScheduleBounds(gamma0s=np.array([]), horizon=100)


# --- fingerprints ------------------------------------------------------------

def test_fingerprint_is_deterministic_and_seed_sensitive():
    a = spec_fingerprint(parse_spec(_solving_raw()))
    b = spec_fingerprint(parse_spec(_solving_raw()))
    c = spec_fingerprint(parse_spec(_solving_raw(seed=8)))
    assert a == b
    assert a != c
    assert len(a) == 64  # sha256 hex


def test_fingerprint_normalizes_defaulted_rule_fields():
    # omitting line-search defaults must hash identically to spelling them out
    short = _solving_raw(rule={"kind": "line_search"})
    full = _solving_raw(rule={"kind": "line_search", "tol": 1e-10, "max_evals": 200})
    assert spec_fingerprint(parse_spec(short)) == spec_fingerprint(parse_spec(full))


# one spec per rule kind, each rule's descriptor as the hand-written
# descriptor() methods gave it (value types included: an int gpa step stays an
# int), and the spec's fingerprint as those methods hashed it: the sha256 of
# conftest.canon_bytes of the spec's configuration
_PINNED_RULES = [
    ({"kind": "line_search"}, {"kind": "line_search", "tol": 1e-10, "max_evals": 200},
     "2afbc17b5baa1c201ab3d8dfae67c0b531cb4e290fb87a1d3976b6b8535e501c"),
    ({"kind": "line_search", "tol": 1e-8, "max_evals": 50},
     {"kind": "line_search", "tol": 1e-8, "max_evals": 50},
     "19ff145657efd5e6d94af20748cffbdc0df4b0b113d3ff0c4ee309f6fb2d43a2"),
    ({"kind": "harmonic", "c": 2.0}, {"kind": "harmonic", "c": 2.0},
     "2e339a8668fda071b92f27ef17d3ee1d62e4a42fd96333705d5ffa26c587d573"),
    ({"kind": "power", "gamma0": 1.0, "p": 0.5}, {"kind": "power", "gamma0": 1.0, "p": 0.5},
     "c28cd0faf5480f31e61ed79ae098e8f536d3ef52d12e5d107c633a9808b71e1b"),
    ({"kind": "dh_recursion", "gamma0": 0.5}, {"kind": "dh_recursion", "gamma0": 0.5},
     "46faa669a76a7497cfd55a79b64a8a48b17145d28270b8aa102ba91fc03b6e30"),
    ({"kind": "gpa", "step": 1}, {"kind": "gpa", "step": 1},
     "81c58ae8e64d2a00838810de1439e3f32d97177ada5849e47a918d5bb5e1b57c"),
]


@pytest.mark.parametrize("rule, descriptor, fingerprint", _PINNED_RULES,
                         ids=["line_search-defaults-omitted", "line_search", "harmonic",
                              "power", "dh_recursion", "gpa-int-step"])
def test_rule_descriptor_and_fingerprint_are_pinned(rule, descriptor, fingerprint):
    spec = parse_spec(_solving_raw(rule=rule))
    got = build_rule(spec).descriptor()
    assert got == descriptor
    assert list(got) == list(descriptor)
    assert [type(v) for v in got.values()] == [type(v) for v in descriptor.values()]
    assert spec_fingerprint(spec) == fingerprint


def _on_set(feasible_set, composite=None):
    problem = {"set": feasible_set, "objective": _QUADRATIC}
    return {"problem": {**problem, "composite": composite} if composite else problem}


_PIN_BOX = {"kind": "box", "dim": 3, "lower": [-1.0, 0, -2.5], "upper": [1.0, 2, 0.5]}

# (section, spec overrides, its descriptor, the spec's fingerprint): values
# as the spec gave them, but a set's vectors as its read-only float64 arrays
_PINNED_SECTIONS = [
    ("set", _on_set(_SIMPLEX), {"kind": "simplex", "dim": 3},
     "2e339a8668fda071b92f27ef17d3ee1d62e4a42fd96333705d5ffa26c587d573"),
    ("set", _on_set({"kind": "l1_ball", "dim": 3, "radius": 2.0}),
     {"kind": "l1_ball", "dim": 3, "radius": 2.0},
     "484561034387c4d4f9928011051cd119ef1151aeac01649a5a8c78a4d69b3a56"),
    ("set", _on_set({"kind": "l2_ball", "dim": 3, "radius": 1}),
     {"kind": "l2_ball", "dim": 3, "radius": 1},
     "8e6e647754b368531331b5fbcdaf933a55fc79f76c643a71a2b9e7394aa13ac8"),
    ("set", _on_set(_PIN_BOX),
     {"kind": "box", "dim": 3, "lower": np.array([-1.0, 0.0, -2.5]),
      "upper": np.array([1.0, 2.0, 0.5])},
     "c04104b86d645aa500ef595e0c5d8cad504e6d07a0447d9bae3d97e2cdee1ef9"),
    ("set", _on_set({"kind": "vertex_polytope", "vertices": [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1]]}),
     {"kind": "vertex_polytope", "vertices": np.eye(3)},
     "e8e1447682e83b8a74325dde61f9c49e0d68ffefe6b7f8c7bee0baa6ced2f932"),
    ("composite", _on_set(_PIN_BOX, {"kind": "l1", "lam": 0.5}), {"kind": "l1", "lam": 0.5},
     "412cf3e83b2f4966ce5fca71ffe9fc3bc7eed52d7b6d9168b83921f0a1666271"),
    ("stop", {"stop": {"max_iter": 5, "gap_tol": 0}}, {"max_iter": 5, "gap_tol": 0},
     "9b7695cbe9c53d2a6a60dabe4c18f9f9fd632f0f4b7b176662d80db57d63a1c6"),
]


@pytest.mark.parametrize("section, over, descriptor, fingerprint", _PINNED_SECTIONS,
                         ids=["simplex", "l1_ball", "l2_ball-int-radius", "box",
                              "vertex_polytope", "l1-composite", "stop-int-gap_tol"])
def test_section_descriptor_and_fingerprint_are_pinned(section, over, descriptor,
                                                       fingerprint):
    spec = parse_spec(_solving_raw(**over))
    problem = build_problem(spec)
    got = {"set": problem.feasible_set, "composite": problem.composite,
           "stop": build_stop(spec)}[section].descriptor()
    assert list(got) == list(descriptor)
    assert [type(v) for v in got.values()] == [type(v) for v in descriptor.values()]
    for name, want in descriptor.items():
        if isinstance(want, np.ndarray):
            assert got[name].dtype == np.float64 and np.array_equal(got[name], want)
        else:
            assert got[name] == want
    assert spec_fingerprint(spec) == fingerprint


def test_fingerprint_matches_solver_trace():
    from fwlab.solver import solve

    spec = parse_spec(_solving_raw())
    problem = build_problem(spec)
    trace = solve(problem, build_rule(spec), resolve_x0(spec, problem.feasible_set),
                  build_stop(spec), seed=spec.seed)
    assert trace.config_fingerprint == spec_fingerprint(spec)


def test_as_dict_round_trips():
    spec = parse_spec(_solving_raw())
    assert parse_spec(spec.as_dict()).as_dict() == spec.as_dict()
    analysis = ExperimentSpec(name="probe", seed=0)
    assert parse_spec(analysis.as_dict()).as_dict() == analysis.as_dict()
