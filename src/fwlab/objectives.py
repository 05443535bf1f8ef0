"""Differentiable convex test objectives, each a function of x alone.

Each kind is a read-only `Tagged` section whose fields are its spec's, so a
Python call gets a spec's checks; an objective is built by its class, as sets
and rules are. Its methods are evaluation, gradient, where it has a closed
form the minimizer of the objective along a segment, and `fit`, which
`Problem` calls to place it on its feasible set; `holder` is the gradient's
Holder constant (a Lipschitz constant where nu = 1), where known. A `Problem`
holds them as the kind's `objective()` record. A kind keeps a read-only
float64 copy of its vector data (b or c), so a caller's later write cannot
change the objective behind its descriptor, which hands out that same array.

The scalar t^alpha objective is defined on t >= 0 only, and does not fit a
set that reaches below 0. The nonsmooth max objective carries a pointwise
gradient selection with a fixed tie rule; it exists to demonstrate failure,
and certificate invariants do not apply to it (it records no smoothness
constant). Its optimum is known only on a disc (an l2 ball).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import FeasibleSet, L2Ball, Vector, finite_vector, fit_shape, l2_norm
from .schema import Order, Positive, Tagged, build, kinds
from .stepsize import line_search_quadratic_exact


@dataclass(frozen=True)
class HolderInfo:
    """Gradient Holder regularity ||f'(x)-f'(y)|| <= const * ||x-y||^nu.

    const is None where no closed form is known, as for the shipped power-norm
    objective in general dimension. Sampling gradient pairs gives only a lower
    estimate of it, so no sampled value is ever recorded here.
    """

    nu: float
    const: float | None


@dataclass(frozen=True)
class Objective:
    """An objective kind's callables, as the record a `Problem` builds from the
    kind and holds; a caller may swap one with `dataclasses.replace`.

    `segment_min(slope, d)`, when set, is the exact minimizer over gamma in
    [0,1] of f(x + gamma d), given the slope <f'(x), d>. It takes no x and no
    gradient: a line-search row holds x, d, the trial array and `value`'s
    temporary.

    `Problem` calls `fit(feasible_set)`: a ValueError where f is not defined
    on the set, else a function giving f's minimizer there, or None.
    """

    value: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    descriptor: Callable[[], dict]
    fit: Callable[[FeasibleSet], Callable[[], Vector | None]]
    holder: HolderInfo | None = None
    segment_min: Callable[[float, Vector], float] | None = None


class _Kind(Tagged):
    """Base of the objective kinds: each fills in `value`, `grad` and `fit`."""

    holder = None
    segment_min = None

    def objective(self) -> Objective:
        """The record of this section's bound methods."""
        return Objective(self.value, self.grad, self.descriptor, self.fit,
                         self.holder, self.segment_min)


class CompositePart(Tagged):
    """Convex additive term g for composite problems: g(x) = lam * ||x||_1."""

    kind = "l1"
    lam: Positive

    def value(self, x: Vector) -> float:
        return self.lam * float(np.abs(x).sum())


def _optimum_if_inside(b: Vector, feasible_set: FeasibleSet) -> Vector | None:
    """b when the unconstrained minimizer b is feasible, else unknown."""
    return b.copy() if feasible_set.contains(b, 0.0) else None


class Quadratic(_Kind):
    """f(x) = 0.5 * ||x - b||^2, gradient x - b, 1-Lipschitz and 1-strongly convex.

    On a set that supports projection, the optimum is the projection of b
    (exact for this objective), e.g. b=0 on the d-simplex gives
    x* = (1/d, ..., 1/d) and f* = 1/(2d).
    """

    kind = "quadratic"
    b: Vector
    holder = HolderInfo(1.0, 1.0)  # exactly 1-Lipschitz, a true constant

    def check_values(self):
        object.__setattr__(self, "b", finite_vector("b", self.b))

    def value(self, x: Vector) -> float:
        d = x - self.b
        return 0.5 * float(d.dot(d))

    def grad(self, x: Vector) -> Vector:
        return x - self.b

    def segment_min(self, slope: float, d: Vector) -> float:
        # f(x + gamma d) = f(x) + gamma slope + 0.5 gamma^2 ||d||^2, slope = <grad, d>
        # .dot may give -0.0 where @ gives +0.0 (n = 1); the step is the same
        return line_search_quadratic_exact(slope, float(d.dot(d)))

    def fit(self, feasible_set: FeasibleSet):
        b = fit_shape("b", self.b, feasible_set.dim)

        def optimum():
            try:
                return feasible_set.project(b)
            except ValueError:
                return _optimum_if_inside(b, feasible_set)
        return optimum


class PowerNorm(_Kind):
    """f(x) = ||x - b||_2^sigma for sigma in (1, 2].

    grad(x) = sigma * ||x-b||^(sigma-2) * (x-b), set to 0 at x = b (f is
    differentiable there for sigma > 1, with gradient 0). The gradient is
    (sigma-1)-Holder; the constant is left unset until estimated on a
    concrete set.
    """

    kind = "power_norm"
    sigma: Order
    b: Vector

    def check_values(self):
        object.__setattr__(self, "b", finite_vector("b", self.b))
        object.__setattr__(self, "holder", HolderInfo(self.sigma - 1.0, None))

    def value(self, x: Vector) -> float:
        return l2_norm(x - self.b) ** self.sigma

    def grad(self, x: Vector) -> Vector:
        d = x - self.b
        n = l2_norm(d)
        if n == 0.0:
            return np.zeros_like(d)
        return self.sigma * n ** (self.sigma - 2.0) * d

    def fit(self, feasible_set: FeasibleSet):
        b = fit_shape("b", self.b, feasible_set.dim)
        return lambda: _optimum_if_inside(b, feasible_set)


def _of_dimension(kind: str, dim: int, feasible_set: FeasibleSet) -> None:
    """Reject a set whose dimension is not the objective's fixed one."""
    if feasible_set.dim != dim:
        raise ValueError(f"{kind} is {dim}-dimensional, "
                         f"set dimension is {feasible_set.dim}")


class TAlpha(_Kind):
    """One-dimensional f(t) = t^alpha on t >= 0 for alpha in (1, 2).

    The gradient alpha * t^(alpha-1) is (alpha-1)-Holder with constant alpha,
    yet the order-2 curvature over [0,1] is unbounded; this is the stock example
    separating the order-sigma machinery from the Lipschitz case. f is
    increasing, so the optimum is the set's lowest point; it does not fit a
    set that reaches below 0, where t^alpha is complex.
    """

    kind = "t_alpha"
    alpha: float

    def check_values(self):
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")
        object.__setattr__(self, "holder", HolderInfo(self.alpha - 1.0, self.alpha))

    def value(self, x: Vector) -> float:
        return float(x[0]) ** self.alpha

    def grad(self, x: Vector) -> Vector:
        return np.array([self.alpha * float(x[0]) ** (self.alpha - 1.0)])

    def fit(self, feasible_set: FeasibleSet):
        _of_dimension(self.kind, 1, feasible_set)
        lowest = feasible_set.lmo(np.ones(1))
        if lowest[0] < 0.0:
            raise ValueError(f"t_alpha is defined on t >= 0; the set reaches "
                             f"t = {float(lowest[0])!r}")
        return lambda: lowest


class NesterovMax(_Kind):
    """f(x) = max(x[0], x[1]) on R^2 with a pointwise gradient selection.

    grad = (1,0) where x[0] > x[1], (0,1) where x[0] < x[1], and (1,0) on the
    diagonal by a fixed tie rule (any selection shows the same behavior;
    determinism is what matters). The optimum is known on a disc only,
    x* = -r * (1/sqrt2, 1/sqrt2) with value -r/sqrt2; on any other set it is
    unknown. Convex but nondifferentiable: gap certificates do not apply.
    """

    kind = "nesterov_max"

    def value(self, x: Vector) -> float:
        return float(max(x[0], x[1]))

    def grad(self, x: Vector) -> Vector:
        if x[0] >= x[1]:
            return np.array([1.0, 0.0])
        return np.array([0.0, 1.0])

    def fit(self, feasible_set: FeasibleSet):
        _of_dimension(self.kind, 2, feasible_set)
        disc = isinstance(feasible_set, L2Ball)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        return lambda: np.full(2, -feasible_set.radius * inv_sqrt2) if disc else None


class Linear(_Kind):
    """f(x) = <c, x> with constant gradient c. It fits no set with c = 0
    (no sharp minimum)."""

    kind = "linear"
    c: Vector

    def check_values(self):
        object.__setattr__(self, "c", finite_vector("c", self.c))

    def value(self, x: Vector) -> float:
        return float(self.c @ x)

    def grad(self, x: Vector) -> Vector:
        return self.c.copy()

    def fit(self, feasible_set: FeasibleSet):
        fit_shape("c", self.c, feasible_set.dim)
        if not np.any(self.c != 0.0):
            raise ValueError("c must be nonzero")
        return lambda: feasible_set.lmo(self.c)


_OBJECTIVE_KINDS = kinds(Quadratic, PowerNorm, TAlpha, NesterovMax, Linear)
_COMPOSITE_KINDS = kinds(CompositePart)


def objective_from_descriptor(desc: dict) -> _Kind:
    return build(desc, _OBJECTIVE_KINDS, "objective")


def composite_from_descriptor(desc: dict | None) -> CompositePart | None:
    return None if desc is None else build(desc, _COMPOSITE_KINDS, "composite")
