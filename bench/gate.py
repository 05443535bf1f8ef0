"""Correctness gate: decides, per experiment and pass, whether the output is right.

An experiment fails its pass when it raised, when any of its checks failed,
when an artifact differs from the same artifact of the run's first pass, or:
- on `reproduce`, when a `.trace.csv` or `.bounds.csv` differs from the sha256
  recorded in reproduce_sha256.json (`.summary.json` is gated on its verdicts
  only, since removing dead summary fields is a legitimate change);
- on a generated workload, when the final objective is not finite or is
  worse than the objective at x0.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

RECORDED_SHA256 = Path(__file__).resolve().parent / "reproduce_sha256.json"
HASHED_SUFFIXES = (".trace.csv", ".bounds.csv")


def load_recorded() -> dict[str, str]:
    return json.loads(RECORDED_SHA256.read_text())


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in a pass's output directory, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def _experiment_of(file_name: str) -> str:
    return file_name.split(".", 1)[0]


def _objective_regressed(out_dir: Path, name: str) -> str | None:
    summary = json.loads((out_dir / f"{name}.summary.json").read_text())
    if "trace" not in summary:
        return None  # analysis-only spec
    with open(out_dir / f"{name}.trace.csv") as fh:
        fh.readline()
        phi_x0 = float(fh.readline().split(",")[1])
    final = summary["trace"]["termination"]["final_obj"]
    if not math.isfinite(final) or final > phi_x0:
        return f"final objective {final!r} is not finite or exceeds phi(x0) = {phi_x0!r}"
    return None


def pass_failures(outcomes: dict, out_dir: Path, digests: dict[str, str],
                  reference: dict[str, str] | None,
                  recorded: dict[str, str] | None) -> dict[str, str]:
    """Failed experiments of one pass, each with its first reason.

    `outcomes` maps each experiment name to its ExperimentReport or to the
    exception it raised; `reference` holds the first pass's digests (None on
    the first pass); `recorded` holds the sha256 table on `reproduce` and is
    None on generated workloads.
    """
    failures: dict[str, str] = {}
    by_experiment: dict[str, dict[str, str]] = {name: {} for name in outcomes}
    for file_name, digest in digests.items():
        by_experiment.setdefault(_experiment_of(file_name), {})[file_name] = digest
    ref_by_experiment: dict[str, dict[str, str]] = {}
    for file_name, digest in (reference or {}).items():
        ref_by_experiment.setdefault(_experiment_of(file_name), {})[file_name] = digest

    for name, outcome in outcomes.items():
        files = by_experiment[name]
        if isinstance(outcome, BaseException):
            failures[name] = f"raised {type(outcome).__name__}: {outcome}"
            continue
        if not outcome.passed:
            failed = [r.kind for r in outcome.check_results if not r.passed]
            failures[name] = f"checks failed: {', '.join(failed)}"
            continue
        if reference is not None and files != ref_by_experiment.get(name, {}):
            failures[name] = "artifacts differ from the first pass"
            continue
        if recorded is not None:
            want = {f: d for f, d in recorded.items() if _experiment_of(f) == name}
            got = {f: d for f, d in files.items() if f.endswith(HASHED_SUFFIXES)}
            if got != want:
                failures[name] = "artifact sha256 differs from the recorded value"
                continue
        else:
            reason = _objective_regressed(out_dir, name)
            if reason:
                failures[name] = reason
    return failures
