"""Experiment configuration: named-field JSON specs and their materialization.

A spec file is one JSON object per experiment. Solving specs carry problem,
rule, x0, and stop; analysis-only specs (curvature probes, schedule
validation) may omit all four and drive everything from their checks. Checks
are declarative data so the emitted summary fully records what was asserted.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .geometry import FeasibleSet, require_finite, set_from_descriptor
from .objectives import composite_from_descriptor, objective_from_descriptor
from .schema import field_dict, field_types, typed
from .solver import Problem, StopRule, config_fingerprint
from .stepsize import StepsizeRule, rule_from_descriptor

_PROBLEM_FIELDS = {"set", "objective", "composite"}

_X0_VERTEX = re.compile(r"^vertex\((\d+)\)$")
_X0_SAMPLE = re.compile(r"^sample\((\d+)\)$")


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    seed: int
    problem: dict | None = None
    rule: dict | None = None
    x0: list | str | None = None
    stop: dict | None = None
    checks: list = field(default_factory=list)

    def is_solving(self) -> bool:
        return self.rule is not None

    def as_dict(self) -> dict:
        return field_dict(self)


def parse_spec(raw: dict, source: str = "<spec>") -> ExperimentSpec:
    """Parse and structurally validate one spec object. Errors name the field."""
    if not isinstance(raw, dict):
        raise ValueError(f"{source}: spec must be a JSON object, got {type(raw).__name__}")
    unknown = raw.keys() - field_types(ExperimentSpec)
    if unknown:
        raise ValueError(f"{source}: unknown spec fields {sorted(unknown)}")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(f"{source}: 'name' must be a nonempty string")
    if any(ch in name for ch in "/\\ "):
        raise ValueError(f"{source}: 'name' must be file-name safe, got {name!r}")
    try:
        seed = typed("seed", "int", raw.get("seed"))
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None

    problem = raw.get("problem")
    if problem is not None:
        if not isinstance(problem, dict):
            raise ValueError(f"{source}: 'problem' must be an object")
        bad = set(problem) - _PROBLEM_FIELDS
        if bad:
            raise ValueError(f"{source}: unknown problem fields {sorted(bad)}")
        for key in ("set", "objective"):
            if key not in problem:
                raise ValueError(f"{source}: 'problem.{key}' is required")

    rule, x0, stop = raw.get("rule"), raw.get("x0"), raw.get("stop")
    solving_parts = {"rule": rule, "x0": x0, "stop": stop}
    present = [k for k, v in solving_parts.items() if v is not None]
    if present and len(present) != 3:
        missing = [k for k, v in solving_parts.items() if v is None]
        raise ValueError(f"{source}: solving specs need rule, x0, and stop together; "
                         f"missing {missing}")
    if present and problem is None:
        raise ValueError(f"{source}: 'problem' is required when rule/x0/stop are given")

    checks = raw.get("checks", [])
    if not isinstance(checks, list) or any(not isinstance(c, dict) for c in checks):
        raise ValueError(f"{source}: 'checks' must be a list of objects")
    for i, c in enumerate(checks):
        if "kind" not in c:
            raise ValueError(f"{source}: checks[{i}] is missing 'kind'")

    return ExperimentSpec(name=name, seed=seed, problem=problem, rule=rule,
                          x0=x0, stop=stop, checks=checks)


def load_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    return parse_spec(raw, source=str(path))


def _section(spec: ExperimentSpec, where: str, build, *args):
    """build(*args), whose ValueError is prefixed by the spec's name and section."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{spec.name}: {where}: {exc}") from None


def build_problem(spec: ExperimentSpec) -> Problem:
    if spec.problem is None:
        raise ValueError(f"{spec.name}: spec has no problem section")
    feasible_set = _section(spec, "problem.set", set_from_descriptor, spec.problem["set"])
    objective = _section(spec, "problem.objective", objective_from_descriptor,
                         spec.problem["objective"], feasible_set)
    composite = _section(spec, "problem.composite", composite_from_descriptor,
                         spec.problem.get("composite"))
    return _section(spec, "problem.composite", Problem, feasible_set, objective, composite)


def build_rule(spec: ExperimentSpec) -> StepsizeRule:
    return _section(spec, "rule", rule_from_descriptor, spec.rule)


def resolve_x0(spec: ExperimentSpec, feasible_set: FeasibleSet) -> np.ndarray:
    x0 = spec.x0
    if isinstance(x0, list):
        arr = np.asarray(_section(spec, "x0", typed, "x0", "Vector", x0), dtype=float)
        if arr.ndim != 1 or arr.size != feasible_set.dim:
            raise ValueError(f"{spec.name}: x0 has shape {arr.shape}, "
                             f"set dimension is {feasible_set.dim}")
        require_finite(arr, f"{spec.name}: x0")
        return arr
    if isinstance(x0, str):
        m = _X0_VERTEX.match(x0)
        if m:
            i = int(m.group(1))
            # a table shorter than i + 1 rows is the whole table, so its
            # length is the full count the error reports
            pts = feasible_set.extreme_points(i + 1)
            if i >= len(pts):
                raise ValueError(f"{spec.name}: vertex({i}) out of range, "
                                 f"set has {len(pts)} listed extreme points")
            return pts[i]
        m = _X0_SAMPLE.match(x0)
        if m:
            return feasible_set.sample(int(m.group(1)))
        raise ValueError(f"{spec.name}: x0 string must be 'vertex(i)' or 'sample(seed)', "
                         f"got {x0!r}")
    raise ValueError(f"{spec.name}: x0 must be a vector, 'vertex(i)', or 'sample(seed)'")


def build_stop(spec: ExperimentSpec) -> StopRule:
    return _section(spec, "stop", lambda desc: StopRule(**typed("stop", "object", desc)),
                    spec.stop)


def spec_fingerprint(spec: ExperimentSpec) -> str:
    """Fingerprint of the full solve configuration; empty for analysis-only specs.

    The spec's parts are built afresh; `config_fingerprint` renders the text
    only when the configuration differs in some bit from the one it rendered
    last (its memo holds one entry), so right after a run's solve this repeat
    costs a key walk over the raw float64 bytes, not a render.
    """
    if not spec.is_solving():
        return ""
    problem = build_problem(spec)
    x0 = resolve_x0(spec, problem.feasible_set)
    # normalize through the rule object so omitted-but-defaulted fields hash
    # the same way the solver will hash them
    stop = build_stop(spec)
    return config_fingerprint(problem.descriptor(), build_rule(spec).descriptor(), x0,
                              stop.descriptor(), spec.seed)


def validate_spec(spec: ExperimentSpec) -> list:
    """Materialize every part of the spec once, surfacing field-level errors.

    Returns the checks parsed (the checks module owns their schemas); a spec
    that validates here will run, though its checks may still fail on the
    measured values.
    """
    from . import checks as checks_mod

    problem = None
    if spec.problem is not None:
        problem = build_problem(spec)
    if spec.is_solving():
        rule = build_rule(spec)
        x0 = resolve_x0(spec, problem.feasible_set)
        if not problem.feasible_set.contains(x0, 1e-9):
            raise ValueError(f"{spec.name}: x0 is not feasible")
        _section(spec, "rule", rule.validate, problem, build_stop(spec))
    checks = []
    for i, desc in enumerate(spec.checks):
        try:
            checks.append(checks_mod.validate_check(desc, spec, problem))
        except ValueError as exc:
            raise ValueError(f"{spec.name}: checks[{i}]: {exc}") from None
    return checks
