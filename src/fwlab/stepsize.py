"""Stepsize rules: exact 1-D line minimization and open-loop schedules.

Open-loop rules are predetermined sequences gamma_k in [0,1] with gamma_k -> 0
and divergent partial sums; they never look at function values. The line-search
rule minimizes the objective along the current segment. Where the objective
gives the segment minimizer in closed form (the plain quadratic with no
composite term), the search only compares it with the two endpoints. Every
other objective gets a derivative-free golden-section search (the composite
objective can be kinked, so derivative methods are out).
"""
from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from .geometry import Vector, VertexPolytope, blocks
from .schema import Fraction, Positive, Tagged, build, kinds


class StepsizeRule(Tagged):
    """A stepsize rule: a read-only object whose fields are its spec's, under
    the class's `kind`. Two rules are equal when their descriptors are."""

    def __eq__(self, other):
        return type(other) is type(self) and other.descriptor() == self.descriptor()

    def __hash__(self):
        return hash(tuple(self.descriptor().values()))

    def validate(self, problem, stop) -> None:
        """Every problem and stop rule suit a Frank-Wolfe step; nothing to check."""


def step_toward(x: Vector, gamma: float, d: Vector) -> Vector:
    """x + gamma * d, bit for bit, written into d."""
    np.multiply(d, gamma, out=d)
    return np.add(x, d, out=d)


class LineSearch(StepsizeRule):
    """gamma_k minimizes the objective on the segment [x_k, x_bar_k].

    `tol` (final bracket width) and `max_evals` (objective evaluations per
    search) govern only the golden-section route; a closed-form segment
    minimizer always costs three evaluations.
    """

    kind = "line_search"
    tol: Positive = 1e-10
    max_evals: int = 200

    def check_values(self):
        if self.max_evals < 2:
            raise ValueError(f"'max_evals' must be >= 2, got {self.max_evals}")


class OpenLoop(StepsizeRule):
    """A predetermined schedule: a subclass gives gamma_k as `gamma(k)`, which
    takes a float k or an array of them alike."""

    def values(self, upto: int) -> np.ndarray:
        """The stepsizes for k = 0..upto inclusive, evaluated a block at a
        time into one array; the formula is elementwise, so each is the same
        bits as in one evaluation over all of k."""
        if upto < 0:
            raise ValueError(f"horizon must be >= 0, got {upto}")
        out = np.empty(upto + 1)
        for k in _blocks(upto):
            out[int(k[0]):int(k[-1]) + 1] = self.gamma(k)
        return out

    def stepper(self, problem, max_iter: int):
        """`advance(k, x, grad, d)`: gamma_k and x_{k+1}, written into d, for
        k = 0, 1, ... in turn."""
        # the blocks of `values(max_iter)`, each evaluated when the rows reach
        # it: the same bits in O(BLOCK) memory, whatever the budget
        gammas = itertools.chain.from_iterable(map(self.gamma, _blocks(max_iter)))

        def advance(k, x, grad, d):
            gamma = next(gammas)
            return gamma, step_toward(x, gamma, d)

        return advance


class Harmonic(OpenLoop):
    """gamma_k = c/(k+c), c >= 1. c=2 is the classic 2/(k+2) schedule."""

    kind = "harmonic"
    c: float

    def check_values(self):
        if not self.c >= 1:
            raise ValueError(f"'c' must be >= 1, got {self.c}")

    def gamma(self, k):
        return self.c / (k + self.c)


class Power(OpenLoop):
    """gamma_k = gamma0/(k+1)^p with gamma0, p in (0,1]."""

    kind = "power"
    gamma0: Fraction
    p: Fraction

    def gamma(self, k):
        return self.gamma0 / (k + 1.0) ** self.p


class DHRecursion(OpenLoop):
    """gamma_{k+1} = gamma_k/(1+gamma_k) from gamma0 in (0,1].

    Implemented through the closed form gamma_k = gamma0/(gamma0*k + 1), which
    the recursion telescopes to (induction on 1/gamma_k). The literal float
    iteration drifts by ~1e-14 relative around k=1e5, enough to poke above the
    exact envelope gamma0/(gamma0*k+1) that downstream checks assert with zero
    slack; the closed form IS that envelope, and stays above gamma0/(k+1)
    because gamma0*k <= k and IEEE +,*,/ are correctly rounded and monotone.
    """

    kind = "dh_recursion"
    gamma0: Fraction

    def gamma(self, k):
        return self.gamma0 / (self.gamma0 * k + 1.0)


class ProjectedGradient(StepsizeRule):
    """The projected-gradient baseline x_{k+1} = P(x_k - step*grad(x_k)), not a
    Frank-Wolfe rule. `step` is kept as the spec gave it, so the descriptor
    (and the fingerprint) echoes it unchanged."""

    kind = "gpa"
    step: Positive

    def validate(self, problem, stop) -> None:
        """The baseline needs no composite part, a recorded gradient Lipschitz
        constant L (Holder, nu = 1) with step < 2/L, a projection and no gap stop."""
        if problem.composite is not None:
            raise ValueError("gpa rule cannot take a composite part")
        holder = problem.objective.holder
        if holder is None or holder.nu != 1 or holder.const is None:
            raise ValueError("gpa rule needs an objective with a recorded "
                             "gradient Lipschitz constant")
        if not self.step < 2.0 / holder.const:
            raise ValueError(f"step must lie in (0, 2/L) = (0, {2.0 / holder.const}), "
                             f"got {self.step}")
        if isinstance(problem.feasible_set, VertexPolytope):
            raise ValueError("gpa rule needs a set with a projection; vertex_polytope has none")
        if stop.gap_tol:
            raise ValueError("gpa rule ignores gap_tol; leave it 0")

    def stepper(self, problem, max_iter: int):
        """`advance(k, x, grad, d)`: the step and x_{k+1} = P(x_k - step * grad)."""
        step, project = self.step, problem.feasible_set.project
        return lambda k, x, grad, d: (step, project(x - step * grad))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden ratio conjugate, ~0.618


def line_search(phi: Callable[[float], float], rule: LineSearch = LineSearch(),
                gamma_star: float | None = None) -> float:
    """Minimize phi over [0,1]: golden section, or a known minimizer checked.

    Given gamma_star, the exact minimizer from a closed form, phi is evaluated
    at 0, 1 and gamma_star only; otherwise golden-section search runs until
    the bracket is narrower than the rule's tol or its max_evals evaluations
    are spent. The rule's fields were checked when it was built, so a solve
    that searches once a row checks them once.
    Returns the best evaluated point; both endpoints are always evaluated, so
    the result never exceeds min(phi(0), phi(1)). Ties go to the smaller gamma
    (a zero step beats an equal-valued nonzero one). Raises on non-finite phi.
    """
    tol, max_evals = rule.tol, rule.max_evals
    if gamma_star is not None and not 0.0 <= gamma_star <= 1.0:
        raise ValueError(f"segment minimizer must lie in [0,1], got {gamma_star}")

    best_g = 0.0
    best_v = math.inf
    evals = 0

    def ev(g: float) -> float:
        nonlocal best_g, best_v, evals
        v = float(phi(g))
        if not math.isfinite(v):
            raise ValueError(f"line search objective is not finite at gamma={g}: {v}")
        evals += 1
        if v < best_v or (v == best_v and g < best_g):
            best_g, best_v = g, v
        return v

    ev(0.0)
    ev(1.0)
    if gamma_star is not None:
        ev(gamma_star)
        return best_g

    a, b = 0.0, 1.0
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = ev(c) if evals < max_evals else None
    fd = ev(d) if evals < max_evals else None
    while fc is not None and fd is not None and (b - a) > tol and evals < max_evals:
        if fc <= fd:  # keep the left bracket on ties: smaller gamma wins
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = ev(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = ev(d)
    return best_g


def line_search_quadratic_exact(a: float, b: float) -> float:
    """Minimizer of a*gamma + 0.5*b*gamma^2 on [0,1] for b >= 0 (closed form)."""
    if b < 0:
        raise ValueError(f"quadratic coefficient must be >= 0, got {b}")
    if b == 0.0:
        return 0.0 if a >= 0 else 1.0
    return min(1.0, max(0.0, -a / b))


def dh_envelope_holds(rule: DHRecursion, horizon: int) -> bool:
    """Exact envelope gamma0/(k+1) <= gamma_k <= gamma0/(gamma0*k+1) of the DH
    rule for every k <= horizon, compared with no tolerance."""
    if horizon < 10:
        raise ValueError(f"horizon must be >= 10, got {horizon}")
    for k in _blocks(horizon):
        block = rule.gamma(k)
        if not (np.all(rule.gamma0 / (k + 1.0) <= block)
                and np.all(block <= rule.gamma0 / (rule.gamma0 * k + 1.0))):
            return False
    return True


def _blocks(upto: int):
    """k = 0..upto as floats, one array per slice of `geometry.blocks`, so the
    temporaries of a formula evaluated to a horizon hold O(BLOCK) memory."""
    for s in blocks(upto + 1):
        yield np.arange(s.start, s.stop, dtype=float)


_RULE_KINDS = kinds(LineSearch, Harmonic, Power, DHRecursion, ProjectedGradient)


def rule_from_descriptor(desc: dict) -> StepsizeRule:
    return build(desc, _RULE_KINDS, "stepsize rule")
