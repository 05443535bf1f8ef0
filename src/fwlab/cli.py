"""Command-line frontend.

Subcommands:
- solve <spec-file>            run one experiment spec and its checks
- reproduce <case>             run a canned case ('all' runs every case)
- estimate-curvature <spec>    sample the order-sigma curvature constant of a
                               spec's problem
- compare <spec-file>...       run specs on a shared problem, merge traces
                               into one wide CSV
- validate-schedule <rule>     check that a rule is an open-loop schedule
                               and, for the rational-decay recursion, its
                               exact two-sided envelope

Output directory resolution: --out flag, else the FWLAB_OUT environment
variable, else ./fwlab-out. Exit code 0 means every evaluated check passed,
1 means at least one failed, 2 means the invocation itself was invalid.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .analysis import estimate_curvature
from .cases import CASE_NAMES
from .checks import CheckResult
from .config import ExperimentSpec, build_problem, load_spec
from .runner import ExperimentReport, compare, reproduce, run_experiment
from .schema import typed
from .stepsize import DHRecursion, OpenLoop, dh_envelope_holds, rule_from_descriptor


def _usage_error(msg: str) -> SystemExit:
    print(f"error: {msg}", file=sys.stderr)
    return SystemExit(2)


def _seed(text: str) -> int:
    """A seed flag's value, checked as a spec's seed field is."""
    try:
        return typed("seed", "Seed", int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, "
                                         f"got {text!r}") from None


def _default_out() -> str:
    return os.environ.get("FWLAB_OUT", "fwlab-out")


def _print_check(name: str, result: CheckResult) -> None:
    tag = "PASS" if result.passed else "FAIL"
    print(f"[{tag}] {name} :: {result.kind}: {result.measured} "
          f"(required {result.required})")


def _print_report(report: ExperimentReport) -> None:
    for result in report.check_results:
        _print_check(report.name, result)
    if report.trace_path:
        print(f"       {report.name}: trace {report.trace_path}")
    print(f"       {report.name}: summary {report.summary_path}")


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    over = {}
    if getattr(args, "seed", None) is not None:
        over["seed"] = args.seed
    if getattr(args, "max_iter", None) is not None:
        if spec.stop is None:
            raise _usage_error(f"{spec.name}: --max-iter override needs a "
                               "spec with a stop section")
        over["stop"] = {**spec.stop, "max_iter": args.max_iter}
    return ExperimentSpec(**{**spec.as_dict(), **over}) if over else spec


def _cmd_solve(args) -> int:
    spec = _apply_overrides(load_spec(args.spec_file), args)
    report = run_experiment(spec, args.out)
    _print_report(report)
    return 0 if report.passed else 1


def _cmd_reproduce(args) -> int:
    names = list(CASE_NAMES) if args.case == "all" else [args.case]
    rows = []
    for name in names:
        t0 = time.perf_counter()
        reports = reproduce(name, args.out)
        elapsed = time.perf_counter() - t0
        for report in reports:
            _print_report(report)
        rows.append((name, all(r.passed for r in reports),
                     sum(len(r.check_results) for r in reports), elapsed))
    width = max(len(name) for name, *_ in rows)
    print(f"\n{'case':<{width}}  verdict  checks  seconds")
    for name, passed, n_checks, elapsed in rows:
        print(f"{name:<{width}}  {'pass' if passed else 'FAIL':<7}  "
              f"{n_checks:>6}  {elapsed:7.2f}")
    ok = all(passed for _, passed, *_ in rows)
    print("reproduce:", "all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def _cmd_estimate_curvature(args) -> int:
    spec = load_spec(args.spec_file)
    problem = build_problem(spec)
    estimate = estimate_curvature(problem, sigma=args.sigma, n_samples=args.n_samples,
                                  seed=args.seed if args.seed is not None else 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{spec.name}.curvature.json"
    path.write_text(json.dumps(estimate.as_dict(), indent=2, sort_keys=True) + "\n")
    print(f"sampled order-{args.sigma} curvature of {spec.name}: "
          f"{estimate.sampled_value:.12g} ({estimate.n_samples} pairs)")
    if estimate.holder_upper_bound is not None:
        print(f"  smoothness upper bound: {estimate.holder_upper_bound:.12g}")
    print(f"  written to {path}")
    return 0


def _cmd_compare(args) -> int:
    specs = [load_spec(p) for p in args.spec_files]
    path = compare(specs, args.out)
    print(f"combined trace written to {path}")
    return 0


def _parse_rule_string(text: str) -> dict:
    """'kind:key=val,key=val' -> rule descriptor dict (digits give an int, else a float)."""
    kind, _, rest = text.partition(":")
    desc: dict = {"kind": kind.strip()}
    if rest.strip():
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise _usage_error(f"malformed rule parameter {item!r}; "
                                   "expected key=value")
            try:
                desc[key.strip()] = int(val) if val.strip().isdigit() else float(val)
            except ValueError:
                raise _usage_error(f"rule parameter {key.strip()!r} is not "
                                   f"a number: {val!r}") from None
    return desc


def _cmd_validate_schedule(args) -> int:
    desc = _parse_rule_string(args.rule)
    rule = rule_from_descriptor(desc)
    if not isinstance(rule, OpenLoop):
        raise _usage_error(f"{desc['kind']!r} is not an open-loop schedule")
    if args.horizon < 10:
        raise _usage_error(f"horizon must be >= 10, got {args.horizon}")
    print(f"schedule {args.rule} over horizon {args.horizon}:")
    if not isinstance(rule, DHRecursion):
        return 0
    ok = dh_envelope_holds(rule, args.horizon)
    print(f"  exact two-sided envelope: {'holds' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwlab",
        description="projection-free convex optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one experiment spec file")
    p.add_argument("spec_file")
    p.add_argument("--out", default=_default_out())
    p.add_argument("--seed", type=int, default=None,
                   help="override the spec's seed")
    p.add_argument("--max-iter", type=int, default=None,
                   help="override the spec's iteration budget")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("reproduce", help="run a canned case by name")
    p.add_argument("case", choices=tuple(CASE_NAMES) + ("all",))
    p.add_argument("--out", default=_default_out())
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("estimate-curvature",
                       help="sample the curvature constant of a spec's problem")
    p.add_argument("spec_file")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--n-samples", type=int, default=256)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", default=_default_out())
    p.set_defaults(fn=_cmd_estimate_curvature)

    p = sub.add_parser("compare", help="overlay several specs on one problem")
    p.add_argument("spec_files", nargs="+")
    p.add_argument("--out", default=_default_out())
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("validate-schedule",
                       help="check an open-loop schedule, e.g. "
                            "'dh_recursion:gamma0=0.7'")
    p.add_argument("rule")
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(fn=_cmd_validate_schedule)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
