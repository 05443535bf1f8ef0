"""Curvature estimation, closed-form rate bounds, and recursion envelope checks.

The central quantity is the order-sigma curvature of a differentiable f over a
compact convex set: the supremum over feasible pairs (x, s) and gamma in (0,1]
of (sigma/gamma^sigma) * (f(x + gamma(s-x)) - f(x) - <f'(x), gamma(s-x)>).
It is finite when the gradient is (sigma-1)-Holder on the set, and it feeds
every convergence bound in this module. Sampled estimates are suprema over
finite samples, hence lower estimates; upper bounds come from Holder constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Vector
from .schema import Count, Order, Positive, Seed, Tagged, field_dict, kinds, typed
from .stepsize import OpenLoop, StepsizeRule
from .solver import Problem, SolveTrace

# 13 log-spaced points on [1e-3, 10^-0.5] plus gamma = 1: small gammas probe
# local curvature, gamma = 1 probes the full segment
DEFAULT_GAMMA_GRID: tuple[float, ...] = tuple(np.logspace(-3.0, -0.5, 13)) + (1.0,)

_EXTREME_PAIR_CAP = 24  # at most this many extreme points enter the pair augmentation

_MAX_DEPTH = 12  # the divergence probe's finest gamma grid reaches down to 10^-12


@dataclass(frozen=True)
class CurvatureEstimate:
    sigma: float
    sampled_value: float
    holder_upper_bound: float | None
    n_samples: int
    seed: int

    def as_dict(self) -> dict:
        return field_dict(self)


def _validate_gamma_grid(gamma_grid) -> list[float]:
    grid = [float(g) for g in gamma_grid]
    if not grid:
        raise ValueError("gamma grid is empty")
    if any(not 0.0 < g <= 1.0 for g in grid):
        raise ValueError("gamma grid must lie in (0, 1]")
    if 1.0 not in grid:
        raise ValueError("gamma grid must include 1.0")
    return grid


def estimate_curvature(
    problem: Problem,
    sigma: float,
    n_samples: int = 256,
    gamma_grid=None,
    seed: int = 0,
) -> CurvatureEstimate:
    """Sampled lower estimate of the order-sigma curvature constant of the
    problem's objective f over its set (the composite term plays no part).

    Takes the max of the curvature expression over n_samples random feasible
    pairs plus all ordered extreme-point pairs (suprema tend to live on the
    boundary; pure uniform sampling converges too slowly). Pairs are drawn
    sequentially from one seeded generator, so for a fixed seed the sample set
    grows by extension: the estimate is nondecreasing in n_samples.

    Each pair costs one gradient and len(gamma_grid) + 1 values, and pairs
    are evaluated as they are drawn, so memory is O(n) in the dimension
    whatever n_samples is.

    When the objective carries a true Holder constant matching sigma = 1 + nu,
    the corresponding upper bound L_nu * diam^(1+nu) is attached for contrast.
    """
    obj, feasible_set = problem.objective, problem.feasible_set
    typed("sigma", "Order", sigma)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    grid = _validate_gamma_grid(DEFAULT_GAMMA_GRID if gamma_grid is None else gamma_grid)

    weights = [sigma / gamma**sigma for gamma in grid]

    def pair_max(x: Vector, s: Vector, best: float) -> float:
        # f'(x), f(x) and <f'(x), d> once per pair, one value per gamma; each
        # term is the same double that evaluating the pair per gamma gives
        g = obj.grad(x)
        if not np.all(np.isfinite(g)):
            raise ValueError(f"gradient unavailable at sampled point {x}")
        d = s - x
        fx = obj.value(x)
        slope = float(g @ d)
        for gamma, weight in zip(grid, weights):
            inner = obj.value(x + gamma * d) - fx - gamma * slope
            if inner < 0.0:
                inner = 0.0  # convexity makes it >= 0; clip roundoff
            v = weight * inner
            if v > best:
                best = v
        return best

    # each random pair is evaluated before the next is drawn: the generator
    # sees the same calls in the same order, and only one pair is held
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(n_samples):
        x = feasible_set.draw(rng)
        best = pair_max(x, feasible_set.draw(rng), best)
    pts = feasible_set.extreme_points(_EXTREME_PAIR_CAP)
    for i in range(len(pts)):
        for j in range(len(pts)):
            if i != j:
                best = pair_max(pts[i], pts[j], best)

    holder_upper = None
    if (obj.holder is not None and obj.holder.const is not None
            and abs(1.0 + obj.holder.nu - sigma) < 1e-12):
        holder_upper = curvature_bound_holder(obj.holder.const, obj.holder.nu,
                                              feasible_set.diameter())
    return CurvatureEstimate(
        sigma=sigma,
        sampled_value=best,
        holder_upper_bound=holder_upper,
        n_samples=n_samples,
        seed=seed,
    )


def probe_curvature_divergence(
    problem: Problem,
    sigma: float,
    threshold: float = 1e3,
    n_samples: int = 64,
    seed: int = 0,
) -> float:
    """Refinement probe for an unbounded curvature constant.

    No finite computation certifies infinity, so divergence is operationalized
    as the sampled estimate crossing `threshold` while the gamma grid is
    refined toward 0 (depth m extends the grid down to 10^-m). Returns the
    largest estimate seen; callers compare it against the threshold.

    The curvature expression magnifies function-evaluation roundoff by
    sigma/gamma^sigma, so refining past the depth where that amplification
    alone reaches threshold/100 would flag any objective as divergent;
    refinement stops before that depth.
    """
    eps = float(np.finfo(float).eps)
    noise_depth = int(math.log10(0.01 * threshold / (sigma * eps)) / sigma)
    best = 0.0
    for depth in range(3, min(_MAX_DEPTH, noise_depth) + 1):
        grid = list(np.logspace(-float(depth), -0.5, 2 * depth)) + [1.0]
        est = estimate_curvature(problem, sigma,
                                 n_samples=n_samples, gamma_grid=grid, seed=seed)
        best = max(best, est.sampled_value)
        if best > threshold:
            break
    return best


def curvature_bound_holder(L_nu: float, nu: float, delta: float) -> float:
    """Upper bound L_nu * delta^(1+nu) on the order-(1+nu) curvature.

    delta = 0 is a one-point set, whose curvature is exactly 0.
    """
    if not L_nu > 0:
        raise ValueError(f"holder constant must be positive, got {L_nu}")
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    if not delta >= 0:
        raise ValueError(f"diameter must be >= 0, got {delta}")
    return L_nu * delta ** (1.0 + nu)


class RateBound(Tagged):
    """A closed-form convergence bound bound(k) on objective suboptimality.

    Each kind is a subclass that parses and checks its own parameters and
    evaluates its own formula; `as_dict` prints its fields in the order they
    are declared, all but the nested ones.
    """

    def bound(self, k: int) -> float:
        if k < 0:
            raise ValueError(f"iteration index must be >= 0, got {k}")
        return self.formula(k)

    def formula(self, k: int) -> float:
        raise NotImplementedError

    def curve(self, ks) -> np.ndarray:
        return np.fromiter((self.bound(int(k)) for k in ks), np.float64, count=len(ks))

    def resolve(self, problem, trace: SolveTrace, opt: float) -> RateBound:
        """The bound with every parameter known, given the solve it is checked on."""
        return self

    def as_dict(self) -> dict:
        return {"kind": self.kind, "params": {name: getattr(self, name) for name in self._types
                                              if name not in self.nested}}


class HarmonicClassic(RateBound):
    """2*C_f/(k+2), the classic order-2 bound for the c=2 harmonic schedule."""

    kind = "harmonic_classic"
    C_f: Positive

    def formula(self, k):
        return 2.0 * self.C_f / (k + 2.0)


class LineSearchOrderSigma(RateBound):
    """Suboptimality bound under exact line minimization; equals theta0 at k=0."""

    kind = "line_search_order_sigma"
    theta0: Positive
    sigma: Order
    C_sigma: Positive

    def formula(self, k):
        theta0, sigma, c = self.theta0, self.sigma, self.C_sigma
        base = 1.0 + (1.0 / sigma) * theta0 ** (1.0 / (sigma - 1.0)) \
            * c ** (1.0 / (1.0 - sigma)) * k
        return theta0 / base ** (sigma - 1.0)


class GivenC(Tagged):  # assemble: C_sigma itself
    C_sigma: Positive

    def c_sigma(self, problem, sigma: float) -> float:
        return self.C_sigma


class SampledC(Tagged):  # assemble: inflate times a sampled estimate of C_sigma
    inflate: float
    n_samples: Count
    seed: Seed

    def check_values(self):
        if self.inflate < 1:  # the sample is a lower estimate: never shrink it
            raise ValueError(f"'inflate' must be >= 1, got {self.inflate!r}")

    def c_sigma(self, problem, sigma: float) -> float:
        est = estimate_curvature(problem, sigma, n_samples=self.n_samples, seed=self.seed)
        return self.inflate * est.sampled_value


class OpenLoopOrderSigma(RateBound):
    """sigma^sigma * Delta / k^(sigma-1), with (k+1) in the composite variant.

    Delta is given, or assembled as max(theta0, C_sigma/sigma) from the
    trace's theta0 and a C_sigma by `resolve`.

    The constant sigma^sigma rests on the recursion of `beta_recursion` and is
    a theorem only for the order-matched schedule Harmonic(sigma),
    gamma_k = sigma/(k+sigma). A schedule c/(k+m) with m >= c > sigma-1 has the
    constant c^sigma/(c-sigma+1) (or m^(sigma-1), if larger) instead, which
    exceeds sigma^sigma whenever c != sigma: 2^sigma/(3-sigma) for Harmonic(2)
    at sigma < 2. The bound takes no schedule; matching one is up to the caller.
    """

    kind = "open_loop_order_sigma"
    nested = {"assemble": lambda v: (GivenC if "C_sigma" in v else SampledC).from_dict(v)}
    Delta: Positive | None = None  # first, so `as_dict` prints it before sigma
    sigma: Order
    composite: bool = False
    assemble: GivenC | SampledC | None = None

    def check_values(self):
        if (self.Delta is None) == (self.assemble is None):
            raise ValueError("give exactly one of 'Delta' or 'assemble'")

    def formula(self, k):
        delta, sigma = self.Delta, self.sigma
        kk = k + 1.0 if self.composite else float(k)
        if kk <= 0.0:
            return math.inf  # the plain bound starts at k = 1
        return sigma**sigma * delta / kk ** (sigma - 1.0)

    def resolve(self, problem, trace, opt):
        if self.assemble is None:
            return self
        theta0 = float(trace.objs[0]) - opt
        c_sigma = self.assemble.c_sigma(problem, self.sigma)
        return OpenLoopOrderSigma(Delta=max(theta0, c_sigma / self.sigma),
                                  sigma=self.sigma, composite=self.composite)


BOUND_KINDS = kinds(HarmonicClassic, LineSearchOrderSigma, OpenLoopOrderSigma)


def beta_recursion(rule: StepsizeRule, sigma: float, K: int) -> np.ndarray:
    """beta_0..beta_K of beta_{k+1} = (1-gamma_k)*beta_k + gamma_k^sigma, beta_0=1."""
    if not isinstance(rule, OpenLoop):
        raise ValueError(f"{type(rule).__name__} is not an open-loop rule")
    typed("sigma", "Order", sigma)
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    gam = rule.values(K - 1)
    out = np.empty(K + 1)
    b = 1.0
    out[0] = b
    for k in range(K):
        g = gam[k]
        b = (1.0 - g) * b + g**sigma
        out[k + 1] = b
    return out


def fit_rate(trace: SolveTrace, opt: float, tail_fraction: float) -> dict:
    """Power-law fit of suboptimality against iteration index.

    Least squares of log(obj_k - opt) on log k over the last tail_fraction of
    rows with k >= 1, after dropping residuals at or below the roundoff floor
    max(0, 100*eps*|opt|); the slope estimates minus the empirical rate
    exponent. Needs at least 10 usable points.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    objs = trace.objs[1:]  # row k is iterate k: the rows past the start
    ks = np.arange(1, 1 + len(objs))
    n_positive = int(np.count_nonzero(objs > opt))
    if n_positive < 20:
        raise ValueError(
            f"trace has only {n_positive} iterations above the reference optimum; need >= 20")
    start = len(ks) - max(1, int(round(tail_fraction * len(ks))))
    floor = 100.0 * np.finfo(float).eps * abs(opt)
    resid = objs[start:] - opt
    usable = (resid > floor) & (resid > 0.0)
    # math.log, not np.log, whose last bit may differ: the fit goes into the summary
    xs = list(map(math.log, ks[start:][usable].tolist()))
    ys = list(map(math.log, resid[usable].tolist()))
    if len(xs) < 10:
        raise ValueError(
            f"only {len(xs)} usable points above the roundoff floor; need >= 10")
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * np.asarray(xs) + intercept
    ss_res = float(np.sum((np.asarray(ys) - pred) ** 2))
    ss_tot = float(np.sum((np.asarray(ys) - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2,
            "n_used": len(xs)}
