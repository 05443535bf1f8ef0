"""Differentiable convex test objectives.

Each factory returns an immutable Objective bundling evaluation, gradient,
optional smoothness metadata (the gradient's Holder constant, a Lipschitz
constant where nu = 1), when a feasible set is supplied, the known constrained
optimum (computed on first read), and, where it has a closed form, the
minimizer of the objective along a segment. A factory keeps a read-only
float64 copy of its vector data (b or c), so a caller's later write cannot
change the objective behind its descriptor, which hands out that same array.

The nonsmooth max objective carries a pointwise gradient selection with a fixed
tie rule; it exists to demonstrate failure, and certificate invariants do not
apply to it (it records no smoothness constant).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import FeasibleSet, Vector, frozen_copy, l2_norm, require_finite
from .schema import build
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
    """An objective and what is known about it.

    `segment_min(x, d, grad)`, when set, is the exact minimizer over
    gamma in [0,1] of f(x + gamma d), given grad = f'(x).

    `optimum()`, when set, returns the known constrained optimum as
    (x_star, f_star), either of which may be None. It runs once, on the
    first read of `x_star` or `f_star`, so building an objective never pays
    for a projection or a membership LP that no check reads.
    """

    value: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    descriptor_dict: dict
    holder: HolderInfo | None = None
    segment_min: Callable[[Vector, Vector, Vector], float] | None = None
    optimum: Callable[[], tuple[Vector | None, float | None]] | None = None

    @functools.cached_property
    def _optimum(self) -> tuple[Vector | None, float | None]:
        return (None, None) if self.optimum is None else self.optimum()

    @property
    def x_star(self) -> Vector | None:
        return self._optimum[0]

    @property
    def f_star(self) -> float | None:
        return self._optimum[1]

    def descriptor(self) -> dict:
        return self.descriptor_dict


@dataclass(frozen=True)
class CompositePart:
    """Convex additive term g for composite problems: g(x) = lam * ||x||_1."""

    lam: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"l1 weight must be finite and positive, got {self.lam}")

    def value(self, x: Vector) -> float:
        return self.lam * float(np.abs(x).sum())

    def descriptor(self) -> dict:
        return {"kind": "l1", "lam": self.lam}


def _optimum_if_inside(b: Vector, feasible_set: FeasibleSet) -> tuple:
    """(b, 0) when the unconstrained minimizer b is feasible, else unknown."""
    if feasible_set.contains(b, 0.0):
        return b.copy(), 0.0
    return None, None


def _data(name: str, v, feasible_set: FeasibleSet | None) -> Vector:
    """frozen_copy(v), finite, and of the set's dimension when there is a set."""
    v = frozen_copy(v)
    if feasible_set is not None and v.shape != (feasible_set.dimension,):
        raise ValueError(f"'{name}' has shape {v.shape}, "
                         f"set dimension is {feasible_set.dimension}")
    require_finite(v, f"'{name}'")
    return v


def make_quadratic(b, feasible_set: FeasibleSet | None = None) -> Objective:
    """f(x) = 0.5 * ||x - b||^2, gradient x - b, 1-Lipschitz and 1-strongly convex.

    With a feasible set that supports projection, the constrained optimum is the
    projection of b (exact for this objective), e.g. b=0 on the d-simplex gives
    x* = (1/d, ..., 1/d) and f* = 1/(2d).
    """
    b = _data("b", b, feasible_set)

    def value(x: Vector) -> float:
        d = x - b
        return 0.5 * float(d.dot(d))

    def grad(x: Vector) -> Vector:
        return x - b

    def segment_min(x: Vector, d: Vector, grad: Vector) -> float:
        # f(x + gamma d) = f(x) + gamma <grad, d> + 0.5 gamma^2 ||d||^2
        # .dot may give -0.0 where @ gives +0.0 (n = 1); the step is the same
        return line_search_quadratic_exact(float(grad.dot(d)), float(d.dot(d)))

    def optimum():
        try:
            x_star = feasible_set.project(b)
        except ValueError:
            return _optimum_if_inside(b, feasible_set)
        return x_star, value(x_star)

    return Objective(
        value, grad,
        holder=HolderInfo(1.0, 1.0),  # exactly 1-Lipschitz, a true constant
        descriptor_dict={"kind": "quadratic", "b": b},
        segment_min=segment_min,
        optimum=None if feasible_set is None else optimum,
    )


def make_power_norm(sigma: float, b, feasible_set: FeasibleSet | None = None) -> Objective:
    """f(x) = ||x - b||_2^sigma for sigma in (1, 2].

    grad(x) = sigma * ||x-b||^(sigma-2) * (x-b), set to 0 at x = b (f is
    differentiable there for sigma > 1, with gradient 0). The gradient is
    (sigma-1)-Holder; the constant is left unset until estimated on a
    concrete set.
    """
    if not 1.0 < sigma <= 2.0:
        raise ValueError(f"sigma must lie in (1, 2], got {sigma}")
    b = _data("b", b, feasible_set)

    def value(x: Vector) -> float:
        return l2_norm(x - b) ** sigma

    def grad(x: Vector) -> Vector:
        d = x - b
        n = l2_norm(d)
        if n == 0.0:
            return np.zeros_like(d)
        return sigma * n ** (sigma - 2.0) * d

    return Objective(
        value, grad,
        holder=HolderInfo(sigma - 1.0, None),
        optimum=None if feasible_set is None else lambda: _optimum_if_inside(b, feasible_set),
        descriptor_dict={"kind": "power_norm", "sigma": sigma, "b": b},
    )


def _of_dimension(kind: str, dim: int, feasible_set: FeasibleSet | None) -> None:
    """Reject a set whose dimension is not the objective's fixed one."""
    if feasible_set is not None and feasible_set.dimension != dim:
        raise ValueError(f"{kind} is {dim}-dimensional, "
                         f"set dimension is {feasible_set.dimension}")


def make_t_alpha(alpha: float, feasible_set: FeasibleSet | None = None) -> Objective:
    """One-dimensional f(t) = t^alpha on [0,1] for alpha in (1, 2).

    The gradient alpha * t^(alpha-1) is (alpha-1)-Holder with constant alpha,
    yet the order-2 curvature over [0,1] is unbounded; this is the stock example
    separating the order-sigma machinery from the Lipschitz case.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    _of_dimension("t_alpha", 1, feasible_set)

    def value(x: Vector) -> float:
        return float(x[0]) ** alpha

    def grad(x: Vector) -> Vector:
        return np.array([alpha * float(x[0]) ** (alpha - 1.0)])

    return Objective(
        value, grad,
        holder=HolderInfo(alpha - 1.0, alpha),
        optimum=lambda: (np.array([0.0]), 0.0),
        descriptor_dict={"kind": "t_alpha", "alpha": alpha},
    )


def make_nesterov_max(feasible_set: FeasibleSet | None = None) -> Objective:
    """f(x) = max(x[0], x[1]) on R^2 with a pointwise gradient selection.

    grad = (1,0) where x[0] > x[1], (0,1) where x[0] < x[1], and (1,0) on the
    diagonal by a fixed tie rule (any selection shows the same behavior;
    determinism is what matters). Over the unit disc the optimum is
    x* = -(1/sqrt2, 1/sqrt2) with value -1/sqrt2. Convex but nondifferentiable:
    gap certificates do not apply.
    """
    _of_dimension("nesterov_max", 2, feasible_set)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)

    def value(x: Vector) -> float:
        return float(max(x[0], x[1]))

    def grad(x: Vector) -> Vector:
        if x[0] >= x[1]:
            return np.array([1.0, 0.0])
        return np.array([0.0, 1.0])

    return Objective(
        value, grad,
        optimum=lambda: (np.array([-inv_sqrt2, -inv_sqrt2]), -inv_sqrt2),
        descriptor_dict={"kind": "nesterov_max"},
    )


def make_linear(c, feasible_set: FeasibleSet | None = None) -> Objective:
    """f(x) = <c, x> with constant gradient c. Rejects c = 0 (no sharp minimum)."""
    c = _data("c", c, feasible_set)
    if not np.any(c != 0.0):
        raise ValueError("c must be nonzero")

    def value(x: Vector) -> float:
        return float(c @ x)

    def grad(x: Vector) -> Vector:
        return c.copy()

    def optimum():
        x_star = feasible_set.lmo(c)
        return x_star, value(x_star)

    return Objective(
        value, grad,
        optimum=None if feasible_set is None else optimum,
        descriptor_dict={"kind": "linear", "c": c},
    )


_OBJECTIVE_KINDS = {
    "quadratic": (make_quadratic, {"b": "Vector"}),
    "power_norm": (make_power_norm, {"sigma": "float", "b": "Vector"}),
    "t_alpha": (make_t_alpha, {"alpha": "float"}),
    "nesterov_max": (make_nesterov_max, {}),
    "linear": (make_linear, {"c": "Vector"}),
}

_COMPOSITE_KINDS = {"l1": (CompositePart, {"lam": "float"})}


def objective_from_descriptor(desc: dict, feasible_set: FeasibleSet | None = None) -> Objective:
    return build(desc, _OBJECTIVE_KINDS, "objective", feasible_set=feasible_set)


def composite_from_descriptor(desc: dict | None) -> CompositePart | None:
    return None if desc is None else build(desc, _COMPOSITE_KINDS, "composite")
