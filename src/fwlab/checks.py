"""Declarative experiment checks: each is a JSON descriptor, not code.

A check descriptor names its kind plus named parameters; the runner evaluates
every check against the solve trace (or against the problem/schedule alone for
analysis-only kinds) and reports measured-vs-required for each. A failing
check never aborts the remaining ones.
"""
from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    RateBound,
    delta_from,
    estimate_curvature,
    fit_rate,
    probe_curvature_divergence,
    rate_bound_classic,
    rate_bound_line_search,
    rate_bound_open_loop,
)
from .solver import Problem, SolveTrace, composite_lmo, REASON_FINITE_TERMINATION
from .stepsize import DHRecursion, dh_envelope_holds
from .geometry import Box


@dataclass(frozen=True)
class CheckResult:
    kind: str
    passed: bool
    measured: str
    required: str
    detail: str = ""

    def as_dict(self) -> dict:
        return {"kind": self.kind, "passed": self.passed, "measured": self.measured,
                "required": self.required, "detail": self.detail}


@dataclass
class CheckContext:
    problem: Problem | None
    trace: SolveTrace | None
    # (bound, ks, values) of each curve checked, exported to <name>.bounds.csv
    bounds: list = field(default_factory=list)


def _resolve_opt(desc: dict, problem: Problem | None, for_validation: bool = False):
    if "opt" in desc:
        v = desc["opt"]
        if not isinstance(v, (int, float)):
            raise ValueError("'opt' must be a number")
        return float(v)
    if problem is None:
        raise ValueError("check needs an explicit 'opt' (no problem to take it from)")
    if problem.composite is not None:
        raise ValueError("composite problems need an explicit 'opt' "
                         "(the recorded optimum covers the smooth part only)")
    if problem.objective.f_star is None:
        raise ValueError("objective has no recorded optimum; give 'opt' explicitly")
    return None if for_validation else float(problem.objective.f_star)


def _require(desc: dict, allowed: set, required: set) -> None:
    unknown = set(desc) - allowed - {"kind"}
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}")
    missing = required - set(desc)
    if missing:
        raise ValueError(f"missing fields {sorted(missing)}")


def _positive(desc: dict, key: str) -> None:
    """Reject a non-numeric or non-positive value of field `key`, naming it."""
    v = desc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"'{key}' must be a number, got {v!r}")
    if not v > 0:
        raise ValueError(f"'{key}' must be positive")


def _build_bound(desc: dict, problem: Problem | None,
                 trace: SolveTrace | None, opt: float | None) -> RateBound:
    kind = desc.get("kind")
    if kind == "harmonic_classic":
        _require(desc, {"C_f"}, {"C_f"})
        return rate_bound_classic(desc["C_f"])
    if kind == "line_search_order_sigma":
        _require(desc, {"theta0", "sigma", "C_sigma"}, {"theta0", "sigma", "C_sigma"})
        return rate_bound_line_search(desc["theta0"], desc["sigma"], desc["C_sigma"])
    if kind == "open_loop_order_sigma":
        _require(desc, {"Delta", "sigma", "composite", "assemble"}, {"sigma"})
        sigma = desc["sigma"]
        composite = bool(desc.get("composite", False))
        if ("Delta" in desc) == ("assemble" in desc):
            raise ValueError("give exactly one of 'Delta' or 'assemble'")
        if "Delta" in desc:
            return rate_bound_open_loop(desc["Delta"], sigma, composite)
        asm = desc["assemble"]
        if "C_sigma" in asm:
            _require(asm, {"C_sigma"}, {"C_sigma"})
            c_sigma = float(asm["C_sigma"])
            if not c_sigma > 0:
                raise ValueError("'C_sigma' must be positive")
        else:
            _require(asm, {"inflate", "n_samples", "seed"}, {"inflate", "n_samples", "seed"})
            if trace is None:  # validation pass: just vet the fields
                return rate_bound_open_loop(1.0, sigma, composite)
            est = estimate_curvature(problem.objective, problem.feasible_set, sigma,
                                     n_samples=asm["n_samples"], seed=asm["seed"])
            c_sigma = float(asm["inflate"]) * est.sampled_value
        if trace is None:
            return rate_bound_open_loop(max(1.0, c_sigma / sigma), sigma, composite)
        theta0 = float(trace.objs[0]) - opt
        return rate_bound_open_loop(delta_from(theta0, c_sigma, sigma), sigma, composite)
    raise ValueError(f"unknown bound kind {kind!r}")


# --- kind: monotonicity -----------------------------------------------------

def _validate_monotonicity(desc, spec, problem):
    _require(desc, {"tol"}, set())
    if not spec.is_solving():
        raise ValueError("monotonicity needs a solve trace")


def _eval_monotonicity(desc, ctx: CheckContext) -> CheckResult:
    tol = float(desc.get("tol", 1e-12))
    objs = ctx.trace.objs
    worst = float(np.max(np.diff(objs))) if len(objs) > 1 else 0.0
    return CheckResult("monotonicity", worst <= tol,
                       measured=f"max objective increase {worst:.6g}",
                       required=f"<= {tol:g}")


# --- kind: bound-domination -------------------------------------------------

def _validate_bound_domination(desc, spec, problem):
    _require(desc, {"bound", "opt", "k_min", "tol_add", "tol_rel"}, {"bound"})
    if not spec.is_solving():
        raise ValueError("bound-domination needs a solve trace")
    _resolve_opt(desc, problem, for_validation=True)
    _build_bound(desc["bound"], problem, None, None)  # rejects Delta <= 0 etc.


def _eval_bound_domination(desc, ctx: CheckContext) -> CheckResult:
    opt = _resolve_opt(desc, ctx.problem)
    bound = _build_bound(desc["bound"], ctx.problem, ctx.trace, opt)
    k_min = int(desc.get("k_min", 1))
    tol_add = float(desc.get("tol_add", 0.0))
    tol_rel = float(desc.get("tol_rel", 0.0))
    ks = ctx.trace.ks
    mask = ks >= k_min
    theta = ctx.trace.objs[mask] - opt
    bvals = bound.curve(ks[mask])
    ctx.bounds.append((bound, ks[mask], bvals))
    allowed = bvals * (1.0 + tol_rel) + tol_add
    excess = theta - allowed
    worst = float(excess.max()) if excess.size else 0.0
    worst_k = int(ks[mask][np.argmax(excess)]) if excess.size else -1
    return CheckResult("bound-domination", worst <= 0.0,
                       measured=f"max excess over bound {worst:.6g} at k={worst_k}",
                       required="<= 0",
                       detail=f"bound {bound.as_dict()}")


# --- kind: lower-bound ------------------------------------------------------

def _validate_lower_bound(desc, spec, problem):
    _require(desc, {"coeff", "offset", "k_min", "k_max", "tol", "opt"},
             {"coeff", "k_min", "k_max"})
    if not spec.is_solving():
        raise ValueError("lower-bound needs a solve trace")
    _positive(desc, "coeff")
    for key in ("k_min", "k_max"):
        if isinstance(desc[key], bool) or not isinstance(desc[key], int):
            raise ValueError(f"'{key}' must be an integer, got {desc[key]!r}")
    if desc["k_min"] > desc["k_max"]:
        raise ValueError("'k_min' must be <= 'k_max'")
    _resolve_opt(desc, problem, for_validation=True)


def _eval_lower_bound(desc, ctx: CheckContext) -> CheckResult:
    opt = _resolve_opt(desc, ctx.problem)
    coeff = float(desc["coeff"])
    offset = float(desc.get("offset", 1.0))
    tol = float(desc.get("tol", 1e-12))
    k_min, k_max = int(desc["k_min"]), int(desc["k_max"])
    ks = ctx.trace.ks
    mask = (ks >= k_min) & (ks <= k_max)
    if int(mask.sum()) < (k_max - k_min + 1):
        return CheckResult("lower-bound", False,
                           measured=f"trace covers {int(mask.sum())} of the k range",
                           required=f"all k in [{k_min}, {k_max}]")
    theta = ctx.trace.objs[mask] - opt
    floor = coeff / (ks[mask] + offset) - tol
    slack = theta - floor
    worst = float(slack.min())
    worst_k = int(ks[mask][np.argmin(slack)])
    return CheckResult("lower-bound", worst >= 0.0,
                       measured=f"min slack above floor {worst:.6g} at k={worst_k}",
                       required=">= 0")


# --- kind: finite-termination -----------------------------------------------

def _validate_finite_termination(desc, spec, problem):
    _require(desc, {"at_k", "final_x", "tol"}, set())
    if not spec.is_solving():
        raise ValueError("finite-termination needs a solve trace")
    if "final_x" in desc:
        try:
            final_x = np.asarray(desc["final_x"], dtype=float)
        except (TypeError, ValueError):
            raise ValueError("'final_x' must be a vector of numbers") from None
        dim = problem.feasible_set.dimension
        if final_x.shape != (dim,):
            raise ValueError(f"'final_x' has shape {final_x.shape}, "
                             f"set dimension is {dim}")


def _eval_finite_termination(desc, ctx: CheckContext) -> CheckResult:
    tol = float(desc.get("tol", 1e-12))
    term = ctx.trace.termination
    last_k = ctx.trace.iterations[-1].k
    problems = []
    if term.reason != REASON_FINITE_TERMINATION:
        problems.append(f"reason={term.reason}")
    if "at_k" in desc and last_k != int(desc["at_k"]):
        problems.append(f"stopped at k={last_k}")
    if "final_x" in desc:
        want = np.asarray(desc["final_x"], dtype=float)
        err = float(np.max(np.abs(term.final_x - want)))
        if err > tol:
            problems.append(f"final_x off by {err:.3g}")
    want_k = f" at k={desc['at_k']}" if "at_k" in desc else ""
    return CheckResult("finite-termination", not problems,
                       measured="; ".join(problems) or f"fixed point at k={last_k}",
                       required=f"reason=finite_termination{want_k}")


# --- kind: non-convergence-margin -------------------------------------------

def _validate_non_convergence(desc, spec, problem):
    _require(desc, {"margin", "k_min", "k_max", "opt"}, {"margin", "k_min", "k_max"})
    if not spec.is_solving():
        raise ValueError("non-convergence-margin needs a solve trace")
    _positive(desc, "margin")
    _resolve_opt(desc, problem, for_validation=True)


def _eval_non_convergence(desc, ctx: CheckContext) -> CheckResult:
    opt = _resolve_opt(desc, ctx.problem)
    k_min, k_max = int(desc["k_min"]), int(desc["k_max"])
    margin = float(desc["margin"])
    ks = ctx.trace.ks
    mask = (ks >= k_min) & (ks <= k_max)
    gaps = ctx.trace.objs[mask] - opt
    measured = float(gaps.min()) if gaps.size else float("nan")
    return CheckResult("non-convergence-margin", bool(gaps.size) and measured >= margin,
                       measured=f"min suboptimality over k range {measured:.6g}",
                       required=f">= {margin:g}")


# --- kind: rate-slope --------------------------------------------------------

def _validate_rate_slope(desc, spec, problem):
    _require(desc, {"max_slope", "tail_fraction", "opt"}, {"max_slope"})
    if not spec.is_solving():
        raise ValueError("rate-slope needs a solve trace")
    _resolve_opt(desc, problem, for_validation=True)


def _eval_rate_slope(desc, ctx: CheckContext) -> CheckResult:
    opt = _resolve_opt(desc, ctx.problem)
    tail = float(desc.get("tail_fraction", 0.5))
    max_slope = float(desc["max_slope"])
    fit = fit_rate(ctx.trace, opt, tail)
    return CheckResult("rate-slope", fit["slope"] <= max_slope,
                       measured=f"tail slope {fit['slope']:.4f} "
                                f"(n={fit['n_used']}, r2={fit['r2']:.3f})",
                       required=f"<= {max_slope:g}")


# --- kind: optimum-proximity -------------------------------------------------

def _validate_optimum_proximity(desc, spec, problem):
    _require(desc, {"tol", "opt"}, {"tol"})
    if not spec.is_solving():
        raise ValueError("optimum-proximity needs a solve trace")
    _positive(desc, "tol")
    _resolve_opt(desc, problem, for_validation=True)


def _eval_optimum_proximity(desc, ctx: CheckContext) -> CheckResult:
    opt = _resolve_opt(desc, ctx.problem)
    tol = float(desc["tol"])
    err = abs(ctx.trace.termination.final_obj - opt)
    return CheckResult("optimum-proximity", err <= tol,
                       measured=f"|final_obj - opt| = {err:.6g}",
                       required=f"<= {tol:g}")


# --- kind: curvature-exact ----------------------------------------------------

def _validate_curvature_exact(desc, spec, problem):
    _require(desc, {"sigma", "expect", "tol", "n_samples", "seed"},
             {"sigma", "expect", "tol"})
    if problem is None:
        raise ValueError("curvature-exact needs a problem section")


def _eval_curvature_exact(desc, ctx: CheckContext) -> CheckResult:
    est = estimate_curvature(ctx.problem.objective, ctx.problem.feasible_set,
                             float(desc["sigma"]),
                             n_samples=int(desc.get("n_samples", 256)),
                             seed=int(desc.get("seed", 0)))
    err = abs(est.sampled_value - float(desc["expect"]))
    return CheckResult("curvature-exact", err <= float(desc["tol"]),
                       measured=f"sampled value {est.sampled_value!r}",
                       required=f"{desc['expect']} within {desc['tol']:g}")


# --- kind: curvature-divergence ------------------------------------------------

def _validate_curvature_divergence(desc, spec, problem):
    _require(desc, {"sigma", "threshold", "n_samples", "seed"}, {"sigma"})
    if problem is None:
        raise ValueError("curvature-divergence needs a problem section")


def _eval_curvature_divergence(desc, ctx: CheckContext) -> CheckResult:
    threshold = float(desc.get("threshold", 1e3))
    value = probe_curvature_divergence(ctx.problem.objective, ctx.problem.feasible_set,
                                       float(desc["sigma"]), threshold=threshold,
                                       n_samples=int(desc.get("n_samples", 64)),
                                       seed=int(desc.get("seed", 0)))
    return CheckResult("curvature-divergence", value > threshold,
                       measured=f"refined estimate reached {value:.6g}",
                       required=f"> {threshold:g}")


# --- kind: oracle-grid-match ----------------------------------------------------

def _validate_oracle_grid_match(desc, spec, problem):
    _require(desc, {"n_vectors", "tol", "seed", "grid_points"}, {"seed"})
    if problem is None or problem.composite is None:
        raise ValueError("oracle-grid-match needs a composite problem")
    if not isinstance(problem.feasible_set, Box):
        raise ValueError("the brute-force grid oracle is coordinate-wise; it needs a box set")


def _eval_oracle_grid_match(desc, ctx: CheckContext) -> CheckResult:
    box = ctx.problem.feasible_set
    g = ctx.problem.composite
    n_vectors = int(desc.get("n_vectors", 100))
    tol = float(desc.get("tol", 1e-6))
    n_grid = int(desc.get("grid_points", 2001))
    rng = np.random.default_rng(int(desc["seed"]))
    worst = 0.0
    for _ in range(n_vectors):
        c = rng.normal(size=box.dimension) * float(rng.choice([0.3, 1.0, 3.0]))
        x = composite_lmo(box, c, g)
        for i in range(box.dimension):
            grid = np.linspace(box.lower[i], box.upper[i], n_grid)
            best = float(np.min(c[i] * grid + g.lam * np.abs(grid)))
            ours = c[i] * x[i] + g.lam * abs(x[i])
            worst = max(worst, float(ours - best))
    return CheckResult("oracle-grid-match", worst <= tol,
                       measured=f"max value excess vs grid {worst:.6g}",
                       required=f"<= {tol:g}")


# --- kind: schedule-bounds -------------------------------------------------------

def _validate_schedule_bounds(desc, spec, problem):
    _require(desc, {"gamma0s", "horizon"}, {"gamma0s", "horizon"})
    if not isinstance(desc["gamma0s"], list) or not desc["gamma0s"]:
        raise ValueError("'gamma0s' must be a nonempty list")
    for g0 in desc["gamma0s"]:
        DHRecursion(g0)  # rejects out-of-range values
    if desc["horizon"] < 10:
        raise ValueError("'horizon' must be >= 10")


def _eval_schedule_bounds(desc, ctx: CheckContext) -> CheckResult:
    failed = [float(g0) for g0 in desc["gamma0s"]
              if not dh_envelope_holds(DHRecursion(float(g0)), int(desc["horizon"]))]
    return CheckResult("schedule-bounds", not failed,
                       measured=("envelope broken for gamma0 in " + repr(failed)) if failed
                       else f"exact envelope holds for all gamma0 to k={desc['horizon']}",
                       required="gamma0/(k+1) <= gamma_k <= gamma0/(gamma0*k+1) everywhere")


_CHECK_KINDS = {
    "monotonicity": (_validate_monotonicity, _eval_monotonicity),
    "bound-domination": (_validate_bound_domination, _eval_bound_domination),
    "lower-bound": (_validate_lower_bound, _eval_lower_bound),
    "finite-termination": (_validate_finite_termination, _eval_finite_termination),
    "non-convergence-margin": (_validate_non_convergence, _eval_non_convergence),
    "rate-slope": (_validate_rate_slope, _eval_rate_slope),
    "optimum-proximity": (_validate_optimum_proximity, _eval_optimum_proximity),
    "curvature-exact": (_validate_curvature_exact, _eval_curvature_exact),
    "curvature-divergence": (_validate_curvature_divergence, _eval_curvature_divergence),
    "oracle-grid-match": (_validate_oracle_grid_match, _eval_oracle_grid_match),
    "schedule-bounds": (_validate_schedule_bounds, _eval_schedule_bounds),
}


def validate_check(desc: dict, spec, problem: Problem | None) -> None:
    kind = desc.get("kind")
    if kind not in _CHECK_KINDS:
        raise ValueError(f"unknown check kind {kind!r}")
    _CHECK_KINDS[kind][0](desc, spec, problem)


def evaluate_check(desc: dict, ctx: CheckContext) -> CheckResult:
    """Evaluate one validated check; any internal error becomes a failed result."""
    kind = desc["kind"]
    try:
        return _CHECK_KINDS[kind][1](desc, ctx)
    except Exception as exc:  # a failing check must not abort the report
        # the type and the innermost frame tell a bug in the check apart from
        # a failed measurement; the bare file name keeps summaries portable
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        return CheckResult(kind, False, measured=f"check errored: {exc}",
                           required="clean evaluation",
                           detail=f"{type(exc).__name__} at {where}")
