"""Tests of the benchmark itself: workload generators, gate, tracer, metric names.

    python3 -m pytest bench/test_bench.py
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fwlab.cases import CASES  # noqa: E402
from fwlab.config import parse_spec  # noqa: E402
from fwlab.runner import run_experiment  # noqa: E402


def _tiny(name="tiny", checks=None, rule=workloads.HARMONIC):
    if checks is None:
        checks = [workloads.MONOTONE if rule is workloads.LINE_SEARCH
                  else workloads._classic_bound(2.0)]
    return {
        "name": name, "seed": 5,
        "problem": {"set": {"kind": "simplex", "dim": 4},
                    "objective": {"kind": "quadratic", "b": [0.3, -0.2, 0.9, 0.1]}},
        "rule": rule, "x0": "vertex(0)", "stop": {"max_iter": 30}, "checks": checks,
    }


def _pass(raws, out_dir, reference=None, recorded=None):
    out_dir.mkdir(exist_ok=True)
    outcomes = {raw["name"]: run_experiment(parse_spec(raw), out_dir) for raw in raws}
    digests = gate.artifact_digests(out_dir)
    return gate.pass_failures(outcomes, out_dir, digests, reference, recorded), digests


def _flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_generators_are_deterministic_in_the_seed(name):
    make = workloads.WORKLOADS[name]
    first = json.dumps(make(7))
    assert json.dumps(make(7)) == first
    specs = [parse_spec(raw) for raw in make(7)]
    assert len({s.name for s in specs}) == len(specs)
    if name != "reproduce":
        assert json.dumps(make(8)) != first


def test_every_workload_name_has_a_generator():
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_both_modes_print_exactly_the_declared_metrics(tmp_path):
    raws = [_tiny("a"), _tiny("b", rule=workloads.LINE_SEARCH)]
    specs = [parse_spec(raw) for raw in raws]
    runner = run.PassRunner(tmp_path, None)
    metrics, _ = run.end_to_end(runner, specs, raws, 0.01, run.Phases())
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    metrics, samples = run.per_layer(runner, specs, 0.01, tmp_path / "spans.csv.gz",
                                     run.Phases())
    assert list(metrics) == list(run.PER_LAYER)
    assert all(len(set(samples[name])) == 1 for name, unit in run.PER_LAYER.items()
               if unit == "count")
    assert (tmp_path / "spans.csv.gz").stat().st_size > 0
    assert runner.failed == 0 and runner.attempted == 2 * runner.passes


def test_wall_times_are_rescaled_by_the_kernels_around_them():
    ref = speed.REFERENCE_KERNEL_S
    assert speed.at_reference(2.0, ref, ref) == pytest.approx(2.0)
    # kernels running twice as slow mean the machine ran at half speed
    assert speed.at_reference(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert speed.at_reference(2.0, ref, 3 * ref) == pytest.approx(1.0)
    assert speed.kernel_s() > 0


def test_traced_counts_repeat_and_match_the_runner(tmp_path):
    specs = [parse_spec(_tiny("a")), parse_spec(_tiny("b", rule=workloads.LINE_SEARCH))]
    runner = run.PassRunner(tmp_path, None)
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        with t.installed():
            result = runner.run(specs, t.wrap("runner.run_experiment", run_experiment))
        counts.append({k: v for k, v in run.layer_metrics(t, result).items()
                       if run.PER_LAYER[k] == "count"})
    assert counts[0] == counts[1]
    # run_experiment builds the problem 5 times and resolves x0 4 times per
    # solving spec
    assert counts[0]["config.build_problem_calls"] == 10
    assert counts[0]["config.resolve_x0_calls"] == 8
    assert counts[0]["solver.iterations"] > 0
    assert runner.failed == 0


def test_tracer_restores_the_entry_points():
    import fwlab.config
    import fwlab.geometry
    import fwlab.solver

    before = (fwlab.config.build_problem, fwlab.solver.line_search,
              fwlab.geometry.Simplex.__dict__["lmo"])
    with tracer.Tracer().installed():
        assert fwlab.config.build_problem is not before[0]
    after = (fwlab.config.build_problem, fwlab.solver.line_search,
             fwlab.geometry.Simplex.__dict__["lmo"])
    assert after == before


def test_gate_passes_the_canned_artifacts_and_catches_one_flipped_byte(tmp_path):
    raws = CASES["polyak_lower_bound"] + CASES["sharp_finite_termination"]
    recorded = gate.load_recorded()
    failures, reference = _pass(raws, tmp_path / "p0", recorded=recorded)
    assert failures == {}

    _flip_byte(tmp_path / "p0" / "polyak_lower_bound.trace.csv")
    digests = gate.artifact_digests(tmp_path / "p0")
    outcomes = {raw["name"]: run_experiment(parse_spec(raw), tmp_path / "p1") for raw in raws}
    failures = gate.pass_failures(outcomes, tmp_path / "p0", digests, None, recorded)
    assert list(failures) == ["polyak_lower_bound"]
    assert "recorded" in failures["polyak_lower_bound"]


def test_gate_catches_a_byte_that_differs_from_the_first_pass(tmp_path):
    raws = [_tiny("a"), _tiny("b")]
    failures, reference = _pass(raws, tmp_path / "p0")
    assert failures == {}
    failures, _ = _pass(raws, tmp_path / "p1", reference=reference)
    assert failures == {}
    _flip_byte(tmp_path / "p1" / "b.summary.json")
    outcomes = {raw["name"]: run_experiment(parse_spec(raw), tmp_path / "p2") for raw in raws}
    failures = gate.pass_failures(outcomes, tmp_path / "p1",
                                  gate.artifact_digests(tmp_path / "p1"), reference, None)
    assert list(failures) == ["b"]


def test_gate_catches_a_failing_check_and_a_raised_experiment(tmp_path):
    impossible = {"kind": "optimum-proximity", "tol": 1e-300, "opt": -5.0}
    raws = [_tiny("ok"), _tiny("bad", checks=[impossible])]
    failures, _ = _pass(raws, tmp_path)
    assert list(failures) == ["bad"]
    assert "optimum-proximity" in failures["bad"]

    outcomes = {"boom": ValueError("no")}
    failures = gate.pass_failures(outcomes, tmp_path, {}, None, None)
    assert failures == {"boom": "raised ValueError: no"}


def test_gate_catches_a_final_objective_worse_than_the_start(tmp_path):
    raws = [_tiny("a")]
    _, _ = _pass(raws, tmp_path)
    path = tmp_path / "a.summary.json"
    summary = json.loads(path.read_text())
    summary["trace"]["termination"]["final_obj"] = 1e9
    path.write_text(json.dumps(summary))
    outcomes = {"a": run_experiment(parse_spec(raws[0]), tmp_path / "again")}
    failures = gate.pass_failures(outcomes, tmp_path, gate.artifact_digests(tmp_path),
                                  None, None)
    assert "exceeds phi(x0)" in failures["a"]


def test_run_refuses_a_tree_without_fwlab_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "reproduce", "--seed", "1", "--seconds", "1",
                     "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
