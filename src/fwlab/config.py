"""Experiment configuration: named-field JSON specs and their materialization.

A spec file is one JSON object per experiment, read like each of its sections:
`ExperimentSpec` is a `Tagged` section, so an unknown, missing or mistyped
field, the `problem` object's included, is rejected by name when the spec is
parsed. Solving specs carry problem, rule, x0, and stop; analysis-only specs
(curvature probes, schedule validation) may omit all four, or give them as
null, and drive everything from their checks. Checks are declarative data so
the emitted summary fully records what was asserted.
"""
from __future__ import annotations

import json
import re

import numpy as np

from .geometry import FeasibleSet, fit_shape, set_from_descriptor
from .objectives import composite_from_descriptor, objective_from_descriptor
from .schema import Checks, Name, Section, Tagged, X0, field_dict, read, typed
from .solver import Problem, StopRule, config_fingerprint
from .stepsize import StepsizeRule, rule_from_descriptor

_X0 = re.compile(r"(vertex|sample)\((\d+)\)")


class ExperimentSpec(Tagged):
    """One experiment, as its spec file states it. The sections stay the
    objects the file gives, so the summary echoes them as written; the
    materializers below build each into its class. The fields of `problem`
    and the form of an x0 string are checked here, and a null problem, rule,
    x0, stop or composite is an omitted one."""

    name: Name
    seed: int
    problem: Section | None = None
    rule: Section | None = None
    x0: X0 | None = None
    stop: Section | None = None
    checks: Checks = []  # shared by every spec that omits it; never mutated

    def check_values(self):
        if self.problem is not None:
            try:
                read(self.problem, {"set": "object", "objective": "object",
                                    "composite": "Section | None"})
            except ValueError as exc:
                raise ValueError(f"problem: {exc}") from None
        solving_parts = {"rule": self.rule, "x0": self.x0, "stop": self.stop}
        missing = [k for k, v in solving_parts.items() if v is None]
        if 0 < len(missing) < 3:
            raise ValueError(f"solving specs need rule, x0, and stop together; "
                             f"missing {missing}")
        if not missing and self.problem is None:
            raise ValueError("'problem' is required when rule/x0/stop are given")
        if isinstance(self.x0, str) and not _X0.fullmatch(self.x0):
            raise ValueError(f"x0 string must be 'vertex(i)' or 'sample(seed)', "
                             f"got {self.x0!r}")
        for i, c in enumerate(self.checks):
            if not isinstance(c, dict):
                raise ValueError(f"'checks' must be a list of objects; entry {i} is "
                                 f"{type(c).__name__}")
            if "kind" not in c:
                raise ValueError(f"checks[{i}] is missing 'kind'")

    def is_solving(self) -> bool:
        return self.rule is not None

    def as_dict(self) -> dict:
        return field_dict(self)


def parse_spec(raw: dict, source: str = "<spec>") -> ExperimentSpec:
    """Parse and structurally validate one spec object. Errors name the field."""
    if not isinstance(raw, dict):
        raise ValueError(f"{source}: spec must be a JSON object, got {type(raw).__name__}")
    try:
        return ExperimentSpec.from_dict(raw)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


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
    # the objective meets its set alone first, so a misfit names problem.objective
    problem = _section(spec, "problem.objective", lambda desc: Problem(
        feasible_set, objective_from_descriptor(desc)), spec.problem["objective"])
    composite = _section(spec, "problem.composite", composite_from_descriptor,
                         spec.problem.get("composite"))
    return problem if composite is None else _section(
        spec, "problem.composite", Problem, feasible_set, problem.objective, composite)


def build_rule(spec: ExperimentSpec) -> StepsizeRule:
    return _section(spec, "rule", rule_from_descriptor, spec.rule)


def resolve_x0(spec: ExperimentSpec, feasible_set: FeasibleSet) -> np.ndarray:
    if isinstance(spec.x0, str):
        kind, i = _X0.fullmatch(spec.x0).groups()
        if kind == "sample":
            return feasible_set.sample(int(i))
        i, count = int(i), feasible_set.extreme_point_count()
        if i >= count:
            raise ValueError(f"{spec.name}: vertex({i}) out of range, "
                             f"set has {count} listed extreme points")
        return feasible_set.extreme_point(i)
    try:
        return fit_shape("x0", typed("x0", "Vector", spec.x0), feasible_set.dim)
    except ValueError as exc:
        raise ValueError(f"{spec.name}: {exc}") from None


def build_stop(spec: ExperimentSpec) -> StopRule:
    return _section(spec, "stop", StopRule.from_dict, spec.stop)


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
        del x0  # not held through the checks' validation
        _section(spec, "rule", rule.validate, problem, build_stop(spec))
    checks = []
    for i, desc in enumerate(spec.checks):
        try:
            checks.append(checks_mod.validate_check(desc, spec, problem))
        except ValueError as exc:
            raise ValueError(f"{spec.name}: checks[{i}]: {exc}") from None
    return checks
