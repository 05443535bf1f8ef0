"""Declarative experiment checks: each is a JSON descriptor, not code.

Each check kind is one read-only class whose annotated fields are its
parameters, typed by their annotations and defaulted by their class values.
`parse_check` reads a descriptor into it once, naming any unknown, missing or
mistyped field (strings, null and bools included); `validate` vets it against
the spec and problem, and `evaluate` runs it against the solve trace (or the
problem/schedule alone for analysis-only kinds) and reports measured-vs-
required. A failing check never aborts the remaining ones.
"""
from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    BOUND_KINDS,
    RateBound,
    estimate_curvature,
    fit_rate,
    probe_curvature_divergence,
)
from .solver import Problem, SolveTrace, REASON_FINITE_TERMINATION
from .stepsize import DHRecursion, dh_envelope_holds
from .geometry import Box, finite_vector
from .schema import (Count, Fraction, Index, Order, Positive, Seed, Tagged, Vector, build,
                     field_dict, kinds)


@dataclass(frozen=True)
class CheckResult:
    kind: str
    passed: bool
    measured: str
    required: str
    detail: str = ""

    def as_dict(self) -> dict:
        return field_dict(self)


@dataclass
class CheckContext:
    problem: Problem | None
    trace: SolveTrace | None
    # (bound, ks, values) of each curve checked, exported to <name>.bounds.csv
    bounds: list = field(default_factory=list)


def _window(trace: SolveTrace, k_min: int, k_max: int | None = None):
    """The k values k_min..k_max (k_max None: no end) the trace holds, and the
    slice of rows they index: row k is iterate k, so [k_min, min(k_max, K - 1)],
    empty if k_min > K - 1 (both ends are >= 0, so never a negative index)."""
    hi = len(trace.rows) if k_max is None else min(k_max + 1, len(trace.rows))
    return np.arange(k_min, hi), slice(k_min, hi)


class Check(Tagged):
    needs_trace = True

    def validate(self, spec, problem: Problem | None) -> None:
        """Vet the parsed check against its spec; raise ValueError if it cannot run."""
        if self.needs_trace and not spec.is_solving():
            raise ValueError(f"{self.kind} needs a solve trace")

    def evaluate(self, ctx: CheckContext) -> CheckResult:
        raise NotImplementedError


class _AgainstOptimum(Check):
    """A check of suboptimality: against `opt`, or the problem's own optimum."""

    opt: float | None = None

    def optimum(self, problem: Problem | None) -> float:
        if self.opt is not None:
            return self.opt
        if problem is None:
            raise ValueError("check needs an explicit 'opt' (no problem to take it from)")
        if problem.composite is not None:
            raise ValueError("composite problems need an explicit 'opt' "
                             "(the recorded optimum covers the smooth part only)")
        if problem.f_star is None:
            raise ValueError("objective has no recorded optimum; give 'opt' explicitly")
        return float(problem.f_star)

    def validate(self, spec, problem):
        super().validate(spec, problem)
        self.optimum(problem)


class Monotonicity(Check):
    kind = "monotonicity"
    tol: float = 1e-12

    def evaluate(self, ctx):
        objs = ctx.trace.objs
        worst = float(np.max(np.diff(objs))) if len(objs) > 1 else 0.0
        return CheckResult(self.kind, worst <= self.tol,
                           measured=f"max objective increase {worst:.6g}",
                           required=f"<= {self.tol:g}")


class BoundDomination(_AgainstOptimum):
    kind = "bound-domination"
    nested = {"bound": lambda v: build(v, BOUND_KINDS, "bound")}
    bound: RateBound
    k_min: Index = 1
    tol_add: float = 0.0
    tol_rel: float = 0.0

    def evaluate(self, ctx):
        ks, rows = _window(ctx.trace, self.k_min)
        if not len(ks):  # an empty window bounds nothing
            return CheckResult(self.kind, False, measured=f"no row has k >= {self.k_min}",
                               required="<= 0 on a nonempty window")
        opt = self.optimum(ctx.problem)
        bound = self.bound.resolve(ctx.problem, ctx.trace, opt)
        bvals = bound.curve(ks)
        ctx.bounds.append((bound, ks, bvals))
        # (objs - opt) - (bvals * (1 + tol_rel) + tol_add), in place: beside
        # the window's k and curve, which the bounds CSV keeps, one working array
        excess = ctx.trace.objs[rows] - opt
        allowed = bvals * (1.0 + self.tol_rel)
        allowed += self.tol_add
        excess -= allowed
        worst = float(excess.max())
        worst_k = int(ks[np.argmax(excess)])
        return CheckResult(self.kind, worst <= 0.0,
                           measured=f"max excess over bound {worst:.6g} at k={worst_k}",
                           required="<= 0",
                           detail=f"bound {bound.as_dict()}")


class _Window(_AgainstOptimum):
    """A check of suboptimality on the rows k_min..k_max, a range a subclass
    declares among its fields. It fails unless the trace holds every row of
    that range: a part of it would pass on rows the check never saw."""

    def check_values(self):
        if self.k_min > self.k_max:
            raise ValueError("'k_min' must be <= 'k_max'")

    def evaluate(self, ctx):
        opt = self.optimum(ctx.problem)
        k_min, k_max = self.k_min, self.k_max
        ks, rows = _window(ctx.trace, k_min, k_max)
        if len(ks) < (k_max - k_min + 1):
            return CheckResult(self.kind, False,
                               measured=f"trace covers {len(ks)} of the k range",
                               required=f"all k in [{k_min}, {k_max}]")
        return self.judge(ctx.trace.objs[rows] - opt, ks)

    def judge(self, gaps, ks) -> CheckResult:
        """The verdict on the suboptimality gaps of rows ks, the whole range."""
        raise NotImplementedError


class LowerBound(_Window):
    kind = "lower-bound"
    coeff: Positive
    k_min: Index
    k_max: Index
    offset: float = 1.0
    tol: float = 1e-12

    def check_values(self):
        super().check_values()
        if self.k_min + self.offset <= 0:  # the floor coeff / (k + offset) must be finite, > 0
            raise ValueError(f"'offset' must be > -k_min = {-self.k_min}, got {self.offset!r}")

    def judge(self, gaps, ks):
        slack = gaps - (self.coeff / (ks + self.offset) - self.tol)
        worst = float(slack.min())
        worst_k = int(ks[np.argmin(slack)])
        return CheckResult(self.kind, worst >= 0.0,
                           measured=f"min slack above floor {worst:.6g} at k={worst_k}",
                           required=">= 0")


class FiniteTermination(Check):
    kind = "finite-termination"
    at_k: Index | None = None
    final_x: Vector | None = None
    tol: float = 1e-12

    def validate(self, spec, problem):
        super().validate(spec, problem)
        if self.final_x is not None:
            # a NaN entry would pass evaluate's err > tol test
            finite_vector("final_x", self.final_x, problem.feasible_set.dim)

    def evaluate(self, ctx):
        last_k = len(ctx.trace.rows) - 1
        problems = []
        if ctx.trace.reason != REASON_FINITE_TERMINATION:
            problems.append(f"reason={ctx.trace.reason}")
        if self.at_k is not None and last_k != self.at_k:
            problems.append(f"stopped at k={last_k}")
        if self.final_x is not None:
            want = np.asarray(self.final_x, dtype=float)
            err = float(np.max(np.abs(ctx.trace.final_x - want)))
            if err > self.tol:
                problems.append(f"final_x off by {err:.3g}")
        want_k = f" at k={self.at_k}" if self.at_k is not None else ""
        return CheckResult(self.kind, not problems,
                           measured="; ".join(problems) or f"fixed point at k={last_k}",
                           required=f"reason=finite_termination{want_k}")


class NonConvergenceMargin(_Window):
    kind = "non-convergence-margin"
    margin: Positive
    k_min: Index
    k_max: Index

    def judge(self, gaps, ks):
        measured = float(gaps.min())
        return CheckResult(self.kind, measured >= self.margin,
                           measured=f"min suboptimality over k range {measured:.6g}",
                           required=f">= {self.margin:g}")


class RateSlope(_AgainstOptimum):
    kind = "rate-slope"
    max_slope: float
    tail_fraction: Fraction = 0.5

    def evaluate(self, ctx):
        fit = fit_rate(ctx.trace, self.optimum(ctx.problem), self.tail_fraction)
        return CheckResult(self.kind, fit["slope"] <= self.max_slope,
                           measured=f"tail slope {fit['slope']:.4f} "
                                    f"(n={fit['n_used']}, r2={fit['r2']:.3f})",
                           required=f"<= {self.max_slope:g}")


class OptimumProximity(_AgainstOptimum):
    kind = "optimum-proximity"
    tol: Positive

    def evaluate(self, ctx):
        err = abs(ctx.trace.final_obj - self.optimum(ctx.problem))
        return CheckResult(self.kind, err <= self.tol,
                           measured=f"|final_obj - opt| = {err:.6g}",
                           required=f"<= {self.tol:g}")


class _OnProblem(Check):
    """A check of the problem alone: no solve, but a problem section."""

    needs_trace = False

    def validate(self, spec, problem):
        super().validate(spec, problem)
        if problem is None:
            raise ValueError(f"{self.kind} needs a problem section")


class CurvatureExact(_OnProblem):
    kind = "curvature-exact"
    sigma: Order
    expect: float
    tol: float
    n_samples: Count = 256
    seed: Seed = 0

    def evaluate(self, ctx):
        est = estimate_curvature(ctx.problem, float(self.sigma),
                                 n_samples=self.n_samples, seed=self.seed)
        err = abs(est.sampled_value - self.expect)
        return CheckResult(self.kind, err <= self.tol,
                           measured=f"sampled value {est.sampled_value!r}",
                           required=f"{self.expect} within {self.tol:g}")


class CurvatureDivergence(_OnProblem):
    kind = "curvature-divergence"
    sigma: Order
    threshold: Positive = 1e3
    n_samples: Count = 64
    seed: Seed = 0

    def evaluate(self, ctx):
        value = probe_curvature_divergence(ctx.problem, float(self.sigma),
                                           threshold=self.threshold,
                                           n_samples=self.n_samples, seed=self.seed)
        return CheckResult(self.kind, value > self.threshold,
                           measured=f"refined estimate reached {value:.6g}",
                           required=f"> {self.threshold:g}")


class OracleGridMatch(Check):
    kind = "oracle-grid-match"
    needs_trace = False
    seed: Seed
    n_vectors: Count = 100
    tol: float = 1e-6
    grid_points: Count = 2001

    def validate(self, spec, problem):
        super().validate(spec, problem)
        if problem is None or problem.composite is None:
            raise ValueError("oracle-grid-match needs a composite problem")
        if not isinstance(problem.feasible_set, Box):
            raise ValueError("the brute-force grid oracle is coordinate-wise; "
                             "it needs a box set")

    def evaluate(self, ctx):
        box = ctx.problem.feasible_set
        g = ctx.problem.composite
        rng = np.random.default_rng(self.seed)
        worst = 0.0
        for _ in range(self.n_vectors):
            c = rng.normal(size=box.dim) * float(rng.choice([0.3, 1.0, 3.0]))
            x = box.lmo_l1(c, g.lam)
            for i in range(box.dim):
                grid = np.linspace(box.lower[i], box.upper[i], self.grid_points)
                best = float(np.min(c[i] * grid + g.lam * np.abs(grid)))
                ours = c[i] * x[i] + g.lam * abs(x[i])
                worst = max(worst, float(ours - best))
        return CheckResult(self.kind, worst <= self.tol,
                           measured=f"max value excess vs grid {worst:.6g}",
                           required=f"<= {self.tol:g}")


class ScheduleBounds(Check):
    kind = "schedule-bounds"
    needs_trace = False
    gamma0s: Vector
    horizon: int

    def check_values(self):
        if len(self.gamma0s) == 0:  # not `not`: the field may be an array
            raise ValueError("'gamma0s' must be a nonempty list")
        for g0 in self.gamma0s:
            DHRecursion(g0)  # rejects out-of-range values
        if self.horizon < 10:
            raise ValueError("'horizon' must be >= 10")

    def evaluate(self, ctx):
        failed = [float(g0) for g0 in self.gamma0s
                  if not dh_envelope_holds(DHRecursion(float(g0)), self.horizon)]
        return CheckResult(self.kind, not failed,
                           measured=("envelope broken for gamma0 in " + repr(failed)) if failed
                           else f"exact envelope holds for all gamma0 to k={self.horizon}",
                           required="gamma0/(k+1) <= gamma_k <= gamma0/(gamma0*k+1) everywhere")


_CHECKS = kinds(Monotonicity, BoundDomination, LowerBound, FiniteTermination,
                NonConvergenceMargin, RateSlope, OptimumProximity, CurvatureExact,
                CurvatureDivergence, OracleGridMatch, ScheduleBounds)


def parse_check(desc: dict) -> Check:
    """The typed check a descriptor describes; ValueError names a bad field."""
    return build(desc, _CHECKS, "check")


def validate_check(desc: dict, spec, problem: Problem | None) -> Check:
    """Parse a descriptor and vet it against its spec and problem."""
    check = parse_check(desc)
    check.validate(spec, problem)
    return check


def evaluate_check(check: Check, ctx: CheckContext) -> CheckResult:
    """Evaluate one validated check; any internal error becomes a failed result."""
    try:
        return check.evaluate(ctx)
    except Exception as exc:  # a failing check must not abort the report
        # the type and the innermost frame tell a bug in the check apart from
        # a failed measurement; the bare file name keeps summaries portable
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        return CheckResult(check.kind, False, measured=f"check errored: {exc}",
                           required="clean evaluation",
                           detail=f"{type(exc).__name__} at {where}")
