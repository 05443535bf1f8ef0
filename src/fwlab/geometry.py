"""Compact convex feasible sets with linear minimization oracles.

Every set kind supports five operations: lmo (linear minimization oracle),
project (Euclidean projection, where closed-form), diameter, contains, and
seeded sampling. The simplex, the two balls and the box also solve the
L1-composite subproblem argmin <c, x> + lam*||x||_1 exactly (lmo_l1); on
every set the origin wins that subproblem only strictly. All operations are
pure; sampling is pure given its seed. The norm is l2 throughout. A set
keeps read-only float64 copies of its vectors, and its descriptor hands out
those arrays, not lists.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .schema import build

Vector = np.ndarray


def frozen_copy(x) -> np.ndarray:
    """A private read-only float64 copy of x, for the data a set or an
    objective owns: a caller's later write to x cannot reach it, and the
    descriptor that hands it out cannot write to it."""
    arr = np.array(x, dtype=float)
    arr.flags.writeable = False
    return arr


def _as_vector(x, dim: int, name: str) -> Vector:
    arr = frozen_copy(x)
    if arr.shape != (dim,):
        raise ValueError(
            f"{name} must be a vector of dimension {dim}, got shape {arr.shape}"
        )
    require_finite(arr, name)
    return arr


def l2_norm(v: Vector) -> float:
    """||v||_2 of a real float64 vector, bitwise float(np.linalg.norm(v)).

    It is numpy's own code path for that call, sqrt(v.dot(v)) over the
    elements in memory order (`ravel(order="K")`, which a strided or
    reversed view changes), without the dispatch that costs about 2 us.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def require_finite(arr: Vector, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")


class FeasibleSet:
    """Base for all set kinds. Concrete kinds fill in the five operations."""

    dimension: int

    def lmo(self, c: Vector) -> Vector:
        """argmin_{x in C} <c, x>, as a fresh writable float64 array that
        shares no memory with c or with the set's data: the solve loop writes
        the direction x_bar - x into it."""
        raise NotImplementedError

    def lmo_l1(self, c: Vector, lam: float) -> Vector:
        """argmin_{x in C} <c, x> + lam * ||x||_1, in closed form, as a fresh
        writable float64 array, like `lmo`'s."""
        raise NotImplementedError

    def project(self, x: Vector) -> Vector:
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def contains(self, x: Vector, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def draw(self, rng: np.random.Generator) -> Vector:
        raise NotImplementedError

    def extreme_points(self, limit: int | None = None) -> np.ndarray:
        """A finite family of extreme points, one per row (representative for the
        l2 ball, whose true extreme set is the whole sphere).

        With a limit, only the first `limit` rows of that same sequence are
        built, at O(limit * dimension) cost.
        """
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    def sample(self, rng_seed: int) -> Vector:
        """Feasible point, deterministic for a fixed seed."""
        return self.draw(np.random.default_rng(rng_seed))


@dataclass(frozen=True, eq=False)
class Simplex(FeasibleSet):
    """Probability simplex {x >= 0, sum x = 1} in R^d."""

    dimension: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")

    def lmo(self, c: Vector) -> Vector:
        # argmin over vertices; argmin takes the lowest index on ties
        out = np.zeros(self.dimension)
        out[int(c.argmin())] = 1.0
        return out

    def lmo_l1(self, c: Vector, lam: float) -> Vector:
        # ||x||_1 = 1 on the whole simplex, so the l1 term is a constant
        return self.lmo(c)

    def project(self, x: Vector) -> Vector:
        return _project_onto_simplex_face(x, 1.0)

    def diameter(self) -> float:
        return float(np.sqrt(2.0)) if self.dimension >= 2 else 0.0

    def contains(self, x: Vector, tol: float = 1e-9) -> bool:
        return bool(np.all(x >= -tol) and abs(float(x.sum()) - 1.0) <= tol)

    def draw(self, rng: np.random.Generator) -> Vector:
        # exponential-normalization construction (uniform on the simplex)
        e = rng.exponential(1.0, self.dimension)
        e /= e.sum()
        return e

    def extreme_points(self, limit: int | None = None) -> np.ndarray:
        d = self.dimension
        return np.eye(_row_count(d, limit), d)

    def descriptor(self) -> dict:
        return {"kind": "simplex", "dim": self.dimension}


@dataclass(frozen=True, eq=False)
class L1Ball(FeasibleSet):
    """{x : ||x||_1 <= radius}."""

    dimension: int
    radius: float

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and positive, got {self.radius}")

    def lmo(self, c: Vector) -> Vector:
        i = int(np.abs(c).argmax())
        s = 1.0 if c[i] >= 0 else -1.0  # c[i] == 0 only when c == 0; any vertex then ties
        out = np.zeros(self.dimension)
        out[i] = -self.radius * s
        return out

    def lmo_l1(self, c: Vector, lam: float) -> Vector:
        # <c, x> + lam*||x||_1 >= (lam - ||c||_inf) * ||x||_1, with equality at
        # the plain oracle's vertex, whose value r*(lam - ||c||_inf) beats the
        # origin's 0 only when ||c||_inf > lam; at equality the vertex keeps it
        if float(np.max(np.abs(c))) < lam:
            return np.zeros(self.dimension)
        return self.lmo(c)

    def project(self, x: Vector) -> Vector:
        a = np.abs(x)
        if float(a.sum()) <= self.radius:
            return x.copy()
        shrunk = _project_onto_simplex_face(a, self.radius)
        return np.sign(x) * shrunk

    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, x: Vector, tol: float = 1e-9) -> bool:
        return bool(float(np.abs(x).sum()) <= self.radius + tol)

    def draw(self, rng: np.random.Generator) -> Vector:
        # uniform: Dirichlet magnitudes, random orthant, then radial u^(1/d)
        e = rng.exponential(1.0, self.dimension)
        x = rng.integers(0, 2, self.dimension) * 2.0
        x -= 1.0  # the signs
        x *= e
        x /= e.sum()  # a boundary point
        u = rng.random()
        x *= self.radius * u ** (1.0 / self.dimension)
        return x

    def extreme_points(self, limit: int | None = None) -> np.ndarray:
        return _signed_axes(self.dimension, self.radius, limit)

    def descriptor(self) -> dict:
        return {"kind": "l1_ball", "dim": self.dimension, "radius": self.radius}


@dataclass(frozen=True, eq=False)
class L2Ball(FeasibleSet):
    """{x : ||x||_2 <= radius}."""

    dimension: int
    radius: float

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be finite and positive, got {self.radius}")

    def lmo(self, c: Vector) -> Vector:
        n = l2_norm(c)
        if n == 0.0:
            return np.zeros(self.dimension)
        return -self.radius / n * c

    def lmo_l1(self, c: Vector, lam: float) -> Vector:
        # minimax: min over the ball of max_{|u|_inf <= lam} <c + u, x> is
        # -r*||S||, attained at -r*S/||S||, where S = sign(c)*max(|c| - lam, 0)
        # is the soft-threshold of c; S = 0 leaves the origin as the minimizer
        s = np.sign(c) * np.maximum(np.abs(c) - lam, 0.0)
        n = l2_norm(s)
        if n == 0.0:
            return np.zeros(self.dimension)
        return -self.radius / n * s

    def project(self, x: Vector) -> Vector:
        n = l2_norm(x)
        if n <= self.radius:
            return x.copy()
        return self.radius / n * x

    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, x: Vector, tol: float = 1e-9) -> bool:
        return l2_norm(x) <= self.radius + tol

    def draw(self, rng: np.random.Generator) -> Vector:
        g = rng.standard_normal(self.dimension)
        n = l2_norm(g)
        while n == 0.0:  # not reachable in practice
            g = rng.standard_normal(self.dimension)
            n = l2_norm(g)
        u = rng.random()
        g *= self.radius * u ** (1.0 / self.dimension) / n
        return g

    def extreme_points(self, limit: int | None = None) -> np.ndarray:
        return _signed_axes(self.dimension, self.radius, limit)

    def descriptor(self) -> dict:
        return {"kind": "l2_ball", "dim": self.dimension, "radius": self.radius}


@dataclass(frozen=True, eq=False)
class Box(FeasibleSet):
    """Axis-aligned box {lower <= x <= upper} componentwise."""

    dimension: int
    lower: Vector
    upper: Vector

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        lo = _as_vector(self.lower, self.dimension, "lower")
        hi = _as_vector(self.upper, self.dimension, "upper")
        if not np.all(lo < hi):
            raise ValueError("lower must be strictly below upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def lmo(self, c: Vector) -> Vector:
        # c_i = 0 (and NaN) picks the lower corner: deterministic vertex on ties
        return np.where(c < 0, self.upper, self.lower)

    def lmo_l1(self, c: Vector, lam: float) -> Vector:
        # coordinate-wise: c_i*y + lam*|y| on [l_i, u_i] is piecewise linear
        # with its only kink at 0, so the minimum sits in {l_i, u_i, 0}
        lo, up = self.lower, self.upper
        at_lo = c * lo + lam * np.abs(lo)
        at_up = c * up + lam * np.abs(up)
        out = np.where(at_lo <= at_up, lo, up)
        best = np.minimum(at_lo, at_up)
        # the kink value is 0; it wins only strictly, so endpoint ties keep
        # the candidate order (lower, upper, zero)
        zero_ok = (lo <= 0.0) & (0.0 <= up)
        return np.where(zero_ok & (best > 0.0), 0.0, out)

    def project(self, x: Vector) -> Vector:
        return np.clip(x, self.lower, self.upper)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def contains(self, x: Vector, tol: float = 1e-9) -> bool:
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def draw(self, rng: np.random.Generator) -> Vector:
        x = rng.random(self.dimension)
        x *= self.upper - self.lower
        return np.add(self.lower, x, out=x)

    def extreme_points(self, limit: int | None = None) -> np.ndarray:
        d = self.dimension
        if d <= 12:
            rows, total = itertools.product(*zip(self.lower, self.upper)), 2 ** d
        else:
            rows, total = self._corners_and_flips(), 2 + 2 * d
        return np.array(list(itertools.islice(rows, _row_count(total, limit)))).reshape(-1, d)

    def _corners_and_flips(self):
        # too many corners to enumerate: both extreme corners plus single flips
        yield self.lower.copy()
        yield self.upper.copy()
        for i in range(self.dimension):
            a = self.lower.copy()
            a[i] = self.upper[i]
            yield a
            b = self.upper.copy()
            b[i] = self.lower[i]
            yield b

    def descriptor(self) -> dict:
        return {
            "kind": "box",
            "dim": self.dimension,
            "lower": self.lower,
            "upper": self.upper,
        }


@dataclass(frozen=True, eq=False)
class VertexPolytope(FeasibleSet):
    """Convex hull of an explicit vertex list (one vertex per row)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = frozen_copy(self.vertices)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("vertices must be a nonempty list of d-vectors")
        require_finite(v, "vertices")
        object.__setattr__(self, "vertices", v)

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    def lmo(self, c: Vector) -> Vector:
        scores = self.vertices @ c
        return self.vertices[int(scores.argmin())].copy()

    def project(self, x: Vector) -> Vector:
        raise ValueError("projection not available for this set kind")

    def diameter(self) -> float:
        v = self.vertices
        best = 0.0
        for i in range(v.shape[0]):
            d = np.linalg.norm(v[i + 1:] - v[i], axis=1)
            if d.size:
                best = max(best, float(d.max()))
        return best

    def contains(self, x: Vector, tol: float = 1e-9) -> bool:
        v = self.vertices
        x = np.asarray(x, dtype=float)
        # a listed vertex (every vertex(i) start) is in the hull at any tol
        if x.shape == (v.shape[1],) and bool(np.any(np.all(v == x, axis=1))):
            return True
        # min t s.t. |V^T lam - x|_inf <= t, sum lam = 1, lam >= 0
        from scipy.optimize import linprog

        m, d = v.shape
        c_obj = np.zeros(m + 1)
        c_obj[-1] = 1.0
        a_ub = np.zeros((2 * d, m + 1))
        b_ub = np.zeros(2 * d)
        a_ub[:d, :m] = v.T
        a_ub[:d, -1] = -1.0
        b_ub[:d] = x
        a_ub[d:, :m] = -v.T
        a_ub[d:, -1] = -1.0
        b_ub[d:] = -x
        a_eq = np.zeros((1, m + 1))
        a_eq[0, :m] = 1.0
        res = linprog(
            c_obj, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
            bounds=[(0, None)] * m + [(0, None)], method="highs",
        )
        if not res.success:
            return False
        return float(res.x[-1]) <= tol + 1e-9

    def draw(self, rng: np.random.Generator) -> Vector:
        w = rng.exponential(1.0, self.vertices.shape[0])
        w /= w.sum()
        return w @ self.vertices

    def extreme_points(self, limit: int | None = None) -> np.ndarray:
        return self.vertices[:_row_count(len(self.vertices), limit)].copy()

    def descriptor(self) -> dict:
        return {
            "kind": "vertex_polytope",
            "vertices": self.vertices,
        }


def _row_count(total: int, limit: int | None) -> int:
    """How many of a table's `total` rows a call with this limit returns."""
    if limit is None:
        return total
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    return min(total, limit)


def _signed_axes(dim: int, radius: float, limit: int | None) -> np.ndarray:
    """The first rows of [r * I; -r * I], the listed extreme points of both balls.

    The negative half keeps the -0.0 entries that -r * I holds off the diagonal.
    """
    n = _row_count(2 * dim, limit)
    return np.vstack([radius * np.eye(min(n, dim), dim),
                      -radius * np.eye(max(n - dim, 0), dim)])


def _project_onto_simplex_face(x: Vector, total: float) -> Vector:
    """Euclidean projection onto {z >= 0, sum z = total} by sort and threshold.

    With u = x sorted descending and css its cumulative sums less total, rho
    is the last index with u[rho] > css[rho] / (rho + 1), and the projection
    is max(x - css[rho] / (rho + 1), 0). It works in place on three n-vectors
    (u, css and the quotient, which becomes the result), each value the same
    bits as the out-of-place formula.
    """
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    css -= total
    q = np.arange(1.0, x.size + 1)
    np.divide(css, q, out=q)
    above = u > q
    rho = x.size - 1 - int(above[::-1].argmax())
    if not above[rho]:  # argmax finds no True: x holds a NaN or an infinity
        raise ValueError("no threshold index: the simplex projection needs finite "
                         "entries and a positive total")
    theta = css[rho] / (rho + 1.0)
    del u, css, above
    np.subtract(x, theta, out=q)
    return np.maximum(q, 0.0, out=q)


_SET_KINDS = {
    "simplex": (lambda dim: Simplex(dim), {"dim": "int"}),
    "l1_ball": (lambda dim, radius: L1Ball(dim, radius), {"dim": "int", "radius": "float"}),
    "l2_ball": (lambda dim, radius: L2Ball(dim, radius), {"dim": "int", "radius": "float"}),
    "box": (lambda dim, lower, upper: Box(dim, lower, upper),
            {"dim": "int", "lower": "Vector", "upper": "Vector"}),
    "vertex_polytope": (VertexPolytope, {"vertices": "Matrix"}),
}


def set_from_descriptor(desc: dict) -> FeasibleSet:
    """Rebuild a set from its serializable descriptor (kind tag + parameters)."""
    return build(desc, _SET_KINDS, "set")
