"""Command-line interface, driven in process through main(argv)."""
import json
import math

import numpy as np
import pytest

from fwlab import checks, stepsize
from fwlab.cli import main


def run_cli(*argv):
    """main() return code, with argparse/usage SystemExits normalized."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def _write_spec(tmp_path, raw, fname="spec.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(raw))
    return str(path)


def _quadratic_raw(name="cliexp", **over):
    raw = {
        "name": name,
        "seed": 5,
        "problem": {
            "set": {"kind": "simplex", "dim": 3},
            "objective": {"kind": "quadratic", "b": [0.0, 0.0, 0.0]},
        },
        "rule": {"kind": "harmonic", "c": 2.0},
        "x0": "vertex(0)",
        "stop": {"max_iter": 30},
        "checks": [{"kind": "monotonicity", "tol": 1e-12}],
    }
    raw.update(over)
    return raw


# --- solve -------------------------------------------------------------------

def test_solve_passing_spec_exits_zero(tmp_path, capsys):
    spec = _write_spec(tmp_path, _quadratic_raw())
    out = tmp_path / "out"
    assert run_cli("solve", spec, "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "[PASS] cliexp :: monotonicity:" in stdout
    assert (out / "cliexp.trace.csv").exists()
    assert (out / "cliexp.summary.json").exists()


def test_solve_failing_check_exits_one(tmp_path, capsys):
    raw = _quadratic_raw(checks=[{"kind": "optimum-proximity",
                                  "opt": 0.0, "tol": 1e-30}])
    spec = _write_spec(tmp_path, raw)
    assert run_cli("solve", spec, "--out", str(tmp_path / "out")) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_bound_domination_on_an_empty_window_fails(tmp_path, capsys):
    # no row reaches k_min, so the bound is checked on nothing: not a pass
    raw = _quadratic_raw(stop={"max_iter": 9}, checks=[
        {"kind": "bound-domination", "k_min": 1000,
         "bound": {"kind": "harmonic_classic", "C_f": 1e-9}}])
    out = tmp_path / "out"
    assert run_cli("solve", _write_spec(tmp_path, raw), "--out", str(out)) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        "[FAIL] cliexp :: bound-domination: no row has k >= 1000 "
        "(required <= 0 on a nonempty window)")
    assert not (out / "cliexp.bounds.csv").exists()


def test_solve_invalid_spec_exits_two(tmp_path, capsys):
    spec = _write_spec(tmp_path, {**_quadratic_raw(), "bogus": 1})
    assert run_cli("solve", spec, "--out", str(tmp_path / "out")) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_mistyped_check_field_exits_two_before_any_artifact(tmp_path, capsys):
    # a string horizon used to escape validation as a TypeError traceback
    raw = _quadratic_raw(checks=[{"kind": "schedule-bounds", "gamma0s": [0.5],
                                  "horizon": "100"}])
    out = tmp_path / "out"
    assert run_cli("solve", _write_spec(tmp_path, raw), "--out", str(out)) == 2
    assert capsys.readouterr().err == ("error: cliexp: checks[0]: 'horizon' must be "
                                       "an integer, got '100'\n")
    assert not out.exists()


def test_solve_out_of_range_sigma_exits_two_before_any_artifact(tmp_path, capsys):
    # an order outside (1, 2] used to run and then fail as an errored check
    raw = _quadratic_raw(checks=[{"kind": "curvature-exact", "sigma": 3.0,
                                  "expect": 1.0, "tol": 1e-6}])
    out = tmp_path / "out"
    assert run_cli("solve", _write_spec(tmp_path, raw), "--out", str(out)) == 2
    assert capsys.readouterr().err == ("error: cliexp: checks[0]: 'sigma' must be "
                                       "a number in (1, 2], got 3.0\n")
    assert not out.exists()


@pytest.mark.parametrize("over, err", [
    # a TypeError traceback, and a field the fingerprint silently dropped
    ({"stop": {"max_iter": "5"}}, "stop: 'max_iter' must be a positive integer, got '5'"),
    ({"stop": {"max_iter": 5, "gap_tol": -1.0}},
     "stop: 'gap_tol' must be a finite number >= 0, got -1.0"),
    ({"problem": {"set": {"kind": "simplex", "dim": 3, "radius": 2.0},
                  "objective": {"kind": "quadratic", "b": [0.0, 0.0, 0.0]}}},
     "problem.set: unknown fields ['radius']"),
    # a short b used to validate and then die in the solve on a broadcast error
    ({"problem": {"set": {"kind": "simplex", "dim": 3},
                  "objective": {"kind": "quadratic", "b": [0.0, 0.0]}}},
     "problem.objective: 'b' has shape (2,), set dimension is 3"),
    # fixed-dimension objectives used to validate and then die on a shape error
    ({"problem": {"set": {"kind": "box", "dim": 3, "lower": [0.0] * 3, "upper": [1.0] * 3},
                  "objective": {"kind": "t_alpha", "alpha": 1.5}}},
     "problem.objective: t_alpha is 1-dimensional, set dimension is 3"),
    ({"problem": {"set": {"kind": "simplex", "dim": 3},
                  "objective": {"kind": "nesterov_max"}}},
     "problem.objective: nesterov_max is 2-dimensional, set dimension is 3"),
    # gpa runs the baseline cannot take used to validate and then die in the solve
    ({"rule": {"kind": "gpa", "step": 3.0}},
     "rule: step must lie in (0, 2/L) = (0, 2.0), got 3.0"),
    ({"rule": {"kind": "gpa", "step": 0.5},
      "problem": {"set": {"kind": "simplex", "dim": 3},
                  "objective": {"kind": "power_norm", "sigma": 1.5, "b": [0.0] * 3}}},
     "rule: gpa rule needs an objective with a recorded gradient Lipschitz constant"),
    ({"rule": {"kind": "gpa", "step": 0.5},
      "problem": {"set": {"kind": "vertex_polytope", "vertices": np.eye(3).tolist()},
                  "objective": {"kind": "quadratic", "b": [0.0] * 3}}},
     "rule: gpa rule needs a set with a projection; vertex_polytope has none"),
    # non-finite vector entries, which JSON's Infinity and NaN let through:
    # an IndexError traceback from the f* projection
    ({"problem": {"set": {"kind": "simplex", "dim": 3},
                  "objective": {"kind": "quadratic", "b": [math.inf, 0.0, 0.0]}},
      "checks": [{"kind": "optimum-proximity", "tol": 1e-6}]},
     "problem.objective: 'b' contains non-finite entries"),
    # a failure in the solve that named no field, after the output directory was made
    ({"problem": {"set": {"kind": "simplex", "dim": 3},
                  "objective": {"kind": "linear", "c": [math.inf, 1.0, 0.0]}}},
     "problem.objective: 'c' contains non-finite entries"),
    # "lower must be strictly below upper"
    ({"problem": {"set": {"kind": "box", "dim": 3, "lower": [math.nan, 0.0, 0.0],
                          "upper": [1.0] * 3},
                  "objective": {"kind": "quadratic", "b": [0.0] * 3}}},
     "problem.set: 'lower' contains non-finite entries"),
    ({"x0": [math.nan, 0.0, 1.0]}, "'x0' contains non-finite entries"),
    # a NaN final_x passed the check, since err > tol is False for NaN
    *(({"checks": [{"kind": "finite-termination", "final_x": [bad, 0.0, 0.0]}]},
       "checks[0]: 'final_x' contains non-finite entries")
      for bad in (math.nan, math.inf, -math.inf)),
    # non-finite scalar fields: "objective value is not finite at iteration 0",
    # "x0 is not feasible" and NaN steps, each naming no field
    ({"problem": {"set": {"kind": "box", "dim": 3, "lower": [-1.0] * 3, "upper": [1.0] * 3},
                  "objective": {"kind": "quadratic", "b": [0.0] * 3},
                  "composite": {"kind": "l1", "lam": math.inf}}},
     "problem.composite: 'lam' must be a finite positive number, got inf"),
    ({"problem": {"set": {"kind": "l2_ball", "dim": 3, "radius": math.inf},
                  "objective": {"kind": "quadratic", "b": [0.0] * 3}}},
     "problem.set: 'radius' must be a finite positive number, got inf"),
    ({"rule": {"kind": "harmonic", "c": math.inf}}, "rule: 'c' must be a finite number, got inf"),
])
def test_solve_mistyped_section_field_exits_two_before_any_artifact(tmp_path, capsys,
                                                                     over, err):
    out = tmp_path / "out"
    assert run_cli("solve", _write_spec(tmp_path, _quadratic_raw(**over)),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: cliexp: {err}\n"
    assert not out.exists()


def _box_spec_with(field, v):
    """A solving spec on [-1, 1]^3 whose vector `field` is v; each of its
    other vectors fits the set."""
    box = {"kind": "box", "dim": 3, "lower": [-1.0] * 3, "upper": [1.0] * 3}
    objective = ({"kind": "linear", "c": [1.0] * 3} if field == "c"
                 else {"kind": "quadratic", "b": [0.0] * 3})
    check = {"kind": "finite-termination", "final_x": [0.0] * 3}
    raw = _quadratic_raw(problem={"set": box, "objective": objective},
                         x0=[0.0] * 3, checks=[check])
    {"lower": box, "upper": box, "b": objective, "c": objective, "x0": raw,
     "final_x": check}[field][field] = v
    return raw


@pytest.mark.parametrize("field, where", [
    ("lower", "problem.set: "), ("upper", "problem.set: "),
    ("b", "problem.objective: "), ("c", "problem.objective: "),
    ("x0", ""), ("final_x", "checks[0]: "),
], ids=["lower", "upper", "b", "c", "x0", "final_x"])
@pytest.mark.parametrize("v, fault", [
    ([0.0, 0.0], "has shape (2,), set dimension is 3"),
    ([0.0, math.nan, 0.0], "contains non-finite entries"),
], ids=["short", "nan"])
def test_every_vector_that_must_fit_the_set_fails_with_one_message(tmp_path, capsys,
                                                                   field, where, v, fault):
    out = tmp_path / "out"
    assert run_cli("solve", _write_spec(tmp_path, _box_spec_with(field, v)),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: cliexp: {where}'{field}' {fault}\n"
    assert not out.exists()


def test_t_alpha_on_a_set_below_zero_exits_two_before_any_artifact(tmp_path, capsys):
    # (-1.0) ** 1.5 is complex: the solve died on a TypeError traceback
    box = {"kind": "box", "dim": 1, "lower": [-1.0], "upper": [1.0]}
    raw = _quadratic_raw(problem={"set": box, "objective": {"kind": "t_alpha", "alpha": 1.5}},
                         x0=[0.5])
    out = tmp_path / "out"
    assert run_cli("solve", _write_spec(tmp_path, raw), "--out", str(out)) == 2
    assert capsys.readouterr().err == ("error: cliexp: problem.objective: t_alpha is "
                                       "defined on t >= 0; the set reaches t = -1.0\n")
    assert not out.exists()


def test_solve_bool_seed_exits_two_before_any_artifact(tmp_path, capsys):
    # the top level is read before the spec has a name, so the error names the file
    spec = _write_spec(tmp_path, _quadratic_raw(seed=True))
    out = tmp_path / "out"
    assert run_cli("solve", spec, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {spec}: 'seed' must be an integer, got True\n"
    assert not out.exists()


def test_gpa_spec_with_a_zero_gap_tol_runs(tmp_path):
    # the solve once rebuilt its stop rule, hashed gap_tol 0.0 against the
    # spec's 0 and died on a fingerprint mismatch
    raw = _quadratic_raw(rule={"kind": "gpa", "step": 1.0},
                         stop={"max_iter": 5, "gap_tol": 0})
    out = tmp_path / "out"
    assert run_cli("solve", _write_spec(tmp_path, raw), "--out", str(out)) == 0
    summary = json.loads((out / "cliexp.summary.json").read_text())
    assert summary["trace"]["config_fingerprint"] == summary["fingerprint"] != ""


def test_solve_missing_file_exits_two(tmp_path, capsys):
    assert run_cli("solve", str(tmp_path / "nope.json")) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_seed_and_max_iter_overrides(tmp_path):
    spec = _write_spec(tmp_path, _quadratic_raw())
    out = tmp_path / "out"
    run_cli("solve", spec, "--out", str(out))
    base = json.loads((out / "cliexp.summary.json").read_text())
    run_cli("solve", spec, "--out", str(out), "--seed", "99", "--max-iter", "7")
    over = json.loads((out / "cliexp.summary.json").read_text())
    assert over["seed"] == 99
    assert over["spec"]["stop"]["max_iter"] == 7
    assert over["trace"]["n_iterations"] == 8
    # overrides are part of the provenance hash
    assert over["fingerprint"] != base["fingerprint"]


def test_solve_max_iter_on_analysis_spec_is_usage_error(tmp_path, capsys):
    raw = {"name": "probe", "seed": 0,
           "problem": {"set": {"kind": "box", "dim": 1,
                               "lower": [0.0], "upper": [1.0]},
                       "objective": {"kind": "t_alpha", "alpha": 1.5}},
           "checks": []}
    spec = _write_spec(tmp_path, raw)
    assert run_cli("solve", spec, "--max-iter", "10") == 2
    assert "stop section" in capsys.readouterr().err


def test_out_dir_falls_back_to_environment(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FWLAB_OUT", str(tmp_path / "envout"))
    spec = _write_spec(tmp_path, _quadratic_raw())
    assert run_cli("solve", spec) == 0
    assert (tmp_path / "envout" / "cliexp.summary.json").exists()


# --- reproduce ---------------------------------------------------------------

def test_reproduce_single_case(tmp_path, capsys):
    code = run_cli("reproduce", "sharp_finite_termination",
                   "--out", str(tmp_path))
    assert code == 0
    stdout = capsys.readouterr().out
    assert "reproduce: all checks passed" in stdout
    assert (tmp_path / "sharp_finite_termination.trace.csv").exists()


def test_reproduce_rejects_unknown_case(tmp_path, capsys):
    assert run_cli("reproduce", "not_a_case", "--out", str(tmp_path)) == 2


# --- estimate-curvature ------------------------------------------------------

def test_estimate_curvature_writes_json(tmp_path, capsys):
    spec = _write_spec(tmp_path, _quadratic_raw(name="curv"))
    out = tmp_path / "out"
    code = run_cli("estimate-curvature", spec, "--sigma", "2.0",
                   "--n-samples", "128", "--seed", "4", "--out", str(out))
    assert code == 0
    payload = json.loads((out / "curv.curvature.json").read_text())
    assert payload["sigma"] == 2.0
    assert payload["n_samples"] == 128
    assert 1.0 < payload["sampled_value"] <= 2.0 + 1e-6
    assert "sampled order-2.0 curvature" in capsys.readouterr().out


def test_estimate_curvature_needs_a_problem(tmp_path, capsys):
    spec = _write_spec(tmp_path, {"name": "empty", "seed": 0})
    assert run_cli("estimate-curvature", spec, "--sigma", "2.0") == 2
    assert "problem" in capsys.readouterr().err


# --- compare -----------------------------------------------------------------

def test_compare_merges_two_specs(tmp_path, capsys):
    a = _write_spec(tmp_path, _quadratic_raw(name="ha"), "a.json")
    b = _write_spec(
        tmp_path,
        _quadratic_raw(name="ls", rule={"kind": "line_search", "tol": 1e-10,
                                        "max_evals": 200},
                       stop={"max_iter": 10}),
        "b.json")
    out = tmp_path / "out"
    assert run_cli("compare", a, b, "--out", str(out)) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "k,obj_ha,gap_ha,obj_ls,gap_ls"
    assert "compare.csv" in capsys.readouterr().out


def test_compare_mismatched_problems_exit_two(tmp_path, capsys):
    a = _write_spec(tmp_path, _quadratic_raw(name="a"), "a.json")
    raw = _quadratic_raw(name="b")
    raw["problem"]["set"] = {"kind": "l2_ball", "dim": 3, "radius": 1.0}
    raw["x0"] = [0.0, 0.0, 0.0]
    b = _write_spec(tmp_path, raw, "b.json")
    assert run_cli("compare", a, b, "--out", str(tmp_path / "out")) == 2
    assert "different problem" in capsys.readouterr().err


# --- validate-schedule -------------------------------------------------------

def test_validate_schedule_harmonic(capsys):
    assert run_cli("validate-schedule", "harmonic:c=2", "--horizon", "1000") == 0
    stdout = capsys.readouterr().out
    assert stdout == "schedule harmonic:c=2 over horizon 1000:\n"
    assert "decays to zero" not in stdout
    assert "partial sum" not in stdout


def test_validate_schedule_reports_exact_envelope(capsys):
    code = run_cli("validate-schedule", "dh_recursion:gamma0=0.7",
                   "--horizon", "5000")
    assert code == 0
    assert "exact two-sided envelope: holds" in capsys.readouterr().out


def test_schedule_checks_fail_when_a_step_leaves_the_envelope(monkeypatch, capsys):
    # one ulp above the closed form is above the upper envelope it equals
    exact = stepsize.DHRecursion.gamma
    monkeypatch.setattr(stepsize.DHRecursion, "gamma",
                        lambda rule, k: np.nextafter(exact(rule, k), 2))
    desc = {"kind": "schedule-bounds", "gamma0s": [0.5], "horizon": 100}
    result = checks.evaluate_check(checks.parse_check(desc), checks.CheckContext(None, None))
    assert result.passed is False
    assert result.measured == "envelope broken for gamma0 in [0.5]"
    code = run_cli("validate-schedule", "dh_recursion:gamma0=0.7",
                   "--horizon", "100")
    assert code == 1
    assert "exact two-sided envelope: VIOLATED" in capsys.readouterr().out


def test_validate_schedule_rejects_closed_loop_rule(capsys):
    code = run_cli("validate-schedule", "line_search:tol=1e-8,max_evals=50",
                   "--horizon", "10")
    assert code == 2
    assert "not an open-loop schedule" in capsys.readouterr().err
    assert run_cli("validate-schedule", "gpa:step=0.1", "--horizon", "10") == 2
    assert "'gpa' is not an open-loop schedule" in capsys.readouterr().err


def test_validate_schedule_rejects_malformed_parameters(capsys):
    assert run_cli("validate-schedule", "harmonic:c", "--horizon", "10") == 2
    assert run_cli("validate-schedule", "harmonic:c=two", "--horizon", "10") == 2
    assert run_cli("validate-schedule", "mystery:a=1", "--horizon", "10") == 2
    assert run_cli("validate-schedule", "harmonic:c=2", "--horizon", "5") == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli() == 2
