"""Compact convex feasible sets with linear minimization oracles.

Every set kind supports five operations: lmo (linear minimization oracle),
project (Euclidean projection, where closed-form), diameter, contains, and
seeded sampling. The simplex, the two balls and the box also solve the
L1-composite subproblem argmin <c, x> + lam*||x||_1 exactly (lmo_l1); on
every set the origin wins that subproblem only strictly. All operations are
pure; sampling is pure given its seed. The norm is l2 throughout. A set's
fields are its spec's, under its `kind`: `fwlab.schema` reads each vector
as a finite read-only float64 copy, and the descriptor hands out those
arrays, not lists; `fit_shape` checks a vector's length against a set's.
"""
from __future__ import annotations

import math

import numpy as np

from .schema import Count, Matrix, Positive, Tagged, build, kinds

Vector = np.ndarray

# items per block of every bounded-memory loop: the simplex projection's
# divisors, a schedule's stepsizes, a fingerprint's floats and an artifact's
# cells each go BLOCK at a time, so each holds O(BLOCK) memory whatever n
BLOCK = 1024


def blocks(n: int, width: int = 1):
    """The slices of range(n), in order, of max(1, BLOCK // width) indices
    each but the last: rows of `width` items, about BLOCK items a slice.
    BLOCK is read at each call."""
    step = max(1, BLOCK // width)
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def fit_shape(name: str, arr: Vector, dim: int) -> Vector:
    """arr, the field `name`, where its shape is (dim,); a ValueError else."""
    if arr.shape != (dim,):
        raise ValueError(f"'{name}' has shape {arr.shape}, set dimension is {dim}")
    return arr


def l2_norm(v: Vector) -> float:
    """||v||_2 of a real float64 vector, bitwise float(np.linalg.norm(v)).

    It is numpy's own code path for that call, sqrt(v.dot(v)) over the
    elements in memory order (`ravel(order="K")`, which a strided or
    reversed view changes), without the dispatch that costs about 2 us.
    """
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


class FeasibleSet(Tagged):
    """Base for all set kinds. Concrete kinds fill in the five operations;
    each has a dimension `dim`, a field or a property."""

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
        l2 ball, whose true extreme set is the whole sphere): row i is
        `extreme_point(i)`.

        With a limit, only the first `limit` rows of that same sequence are
        built, at O(limit * dim) cost.
        """
        # each set class binds this method in its own namespace, where
        # bench/tracer.py wraps it class by class
        rows = np.empty((_row_count(self.extreme_point_count(), limit), self.dim))
        for i, row in enumerate(rows):
            row[:] = self._extreme_point(i)
        return rows

    def extreme_point_count(self) -> int:
        """The number of rows of `extreme_points()`, none of them built."""
        raise NotImplementedError

    def extreme_point(self, i: int) -> Vector:
        """Row i of `extreme_points()`, 0 <= i < extreme_point_count(), as a
        fresh array built alone at O(dim) cost."""
        count = self.extreme_point_count()
        if not 0 <= i < count:
            raise ValueError(f"extreme point index must be in [0, {count}), got {i}")
        return self._extreme_point(i)

    def _extreme_point(self, i: int) -> Vector:
        """`extreme_point(i)` for an index already known to be in range."""
        raise NotImplementedError

    def sample(self, rng_seed: int) -> Vector:
        """Feasible point, deterministic for a fixed seed."""
        return self.draw(np.random.default_rng(rng_seed))


class Simplex(FeasibleSet):
    """Probability simplex {x >= 0, sum x = 1} in R^d."""

    kind = "simplex"
    dim: Count

    def lmo(self, c: Vector) -> Vector:
        # argmin over vertices; argmin takes the lowest index on ties
        return self._extreme_point(int(c.argmin()))

    def lmo_l1(self, c: Vector, lam: float) -> Vector:
        # ||x||_1 = 1 on the whole simplex, so the l1 term is a constant
        return self.lmo(c)

    def project(self, x: Vector) -> Vector:
        return _project_onto_simplex_face(x, 1.0)

    def diameter(self) -> float:
        return float(np.sqrt(2.0)) if self.dim >= 2 else 0.0

    def contains(self, x: Vector, tol: float = 1e-9) -> bool:
        return bool(np.all(x >= -tol) and abs(float(x.sum()) - 1.0) <= tol)

    def draw(self, rng: np.random.Generator) -> Vector:
        # exponential-normalization construction (uniform on the simplex)
        e = rng.exponential(1.0, self.dim)
        e /= e.sum()
        return e

    extreme_points = FeasibleSet.extreme_points

    def extreme_point_count(self) -> int:
        return self.dim

    def _extreme_point(self, i: int) -> Vector:
        out = np.zeros(self.dim)
        out[i] = 1.0
        return out


class _Ball(FeasibleSet):
    """Base of the two norm balls {x : ||x|| <= radius} in R^dim. Their listed
    extreme points are the signed axes r * e_i, then -r * e_i: all of the l1
    ball's, a representative few of the l2 ball's sphere."""

    dim: Count
    radius: Positive

    def diameter(self) -> float:
        return 2.0 * self.radius

    def extreme_point_count(self) -> int:
        return 2 * self.dim

    def _extreme_point(self, i: int) -> Vector:
        # row i of [r * I; -r * I], whose lower half holds -0.0 off the diagonal
        if i < self.dim:
            out = np.zeros(self.dim)
            out[i] = self.radius
        else:
            out = np.full(self.dim, -0.0)
            out[i - self.dim] = -self.radius
        return out


class L1Ball(_Ball):
    """{x : ||x||_1 <= radius}."""

    kind = "l1_ball"

    def lmo(self, c: Vector) -> Vector:
        i = int(np.abs(c).argmax())
        s = 1.0 if c[i] >= 0 else -1.0  # c[i] == 0 only when c == 0; any vertex then ties
        out = np.zeros(self.dim)
        out[i] = -self.radius * s
        return out

    def lmo_l1(self, c: Vector, lam: float) -> Vector:
        # <c, x> + lam*||x||_1 >= (lam - ||c||_inf) * ||x||_1, with equality at
        # the plain oracle's vertex, whose value r*(lam - ||c||_inf) beats the
        # origin's 0 only when ||c||_inf > lam; at equality the vertex keeps it
        if float(np.max(np.abs(c))) < lam:
            return np.zeros(self.dim)
        return self.lmo(c)

    def project(self, x: Vector) -> Vector:
        a = np.abs(x)
        if float(a.sum()) <= self.radius:
            return x.copy()
        shrunk = _project_onto_simplex_face(a, self.radius)
        return np.sign(x) * shrunk

    def contains(self, x: Vector, tol: float = 1e-9) -> bool:
        return bool(float(np.abs(x).sum()) <= self.radius + tol)

    def draw(self, rng: np.random.Generator) -> Vector:
        # uniform: Dirichlet magnitudes, random orthant, then radial u^(1/d)
        e = rng.exponential(1.0, self.dim)
        x = rng.integers(0, 2, self.dim) * 2.0
        x -= 1.0  # the signs
        x *= e
        x /= e.sum()  # a boundary point
        u = rng.random()
        x *= self.radius * u ** (1.0 / self.dim)
        return x

    extreme_points = FeasibleSet.extreme_points


class L2Ball(_Ball):
    """{x : ||x||_2 <= radius}."""

    kind = "l2_ball"

    def lmo(self, c: Vector) -> Vector:
        n = l2_norm(c)
        if n == 0.0:
            return np.zeros(self.dim)
        return -self.radius / n * c

    def lmo_l1(self, c: Vector, lam: float) -> Vector:
        # minimax: min over the ball of max_{|u|_inf <= lam} <c + u, x> is
        # -r*||S||, attained at -r*S/||S||, where S = sign(c)*max(|c| - lam, 0)
        # is the soft-threshold of c; S = 0 leaves the origin as the minimizer
        s = np.abs(c)
        s -= lam
        np.maximum(s, 0.0, out=s)
        # in the formula's operand order, which picks the NaN a NaN cost gives
        np.multiply(np.sign(c), s, out=s)
        n = l2_norm(s)
        if n == 0.0:
            return np.zeros(self.dim)
        return np.multiply(-self.radius / n, s, out=s)

    def project(self, x: Vector) -> Vector:
        n = l2_norm(x)
        if n <= self.radius:
            return x.copy()
        return self.radius / n * x

    def contains(self, x: Vector, tol: float = 1e-9) -> bool:
        return l2_norm(x) <= self.radius + tol

    def draw(self, rng: np.random.Generator) -> Vector:
        g = rng.standard_normal(self.dim)
        n = l2_norm(g)
        while n == 0.0:  # not reachable in practice
            g = rng.standard_normal(self.dim)
            n = l2_norm(g)
        u = rng.random()
        g *= self.radius * u ** (1.0 / self.dim) / n
        return g

    extreme_points = FeasibleSet.extreme_points


class Box(FeasibleSet):
    """Axis-aligned box {lower <= x <= upper} componentwise."""

    kind = "box"
    dim: Count
    lower: Vector
    upper: Vector

    def check_values(self):
        fit_shape("lower", self.lower, self.dim)
        fit_shape("upper", self.upper, self.dim)
        if not np.all(self.lower < self.upper):
            raise ValueError("'lower' must be strictly below 'upper' componentwise")

    def lmo(self, c: Vector) -> Vector:
        # c_i = 0 (and NaN) picks the lower corner: deterministic vertex on ties
        return np.where(c < 0, self.upper, self.lower)

    def lmo_l1(self, c: Vector, lam: float) -> Vector:
        # coordinate-wise: c_i*y + lam*|y| on [l_i, u_i] is piecewise linear
        # with its only kink at 0, so the minimum sits in {l_i, u_i, 0}
        lo, up = self.lower, self.upper
        # each end's c*y + lam*|y| is built in place, in the same operations
        # as the plain expression, so three n-vectors are alive at the peak
        w = np.abs(lo)
        w *= lam
        at_lo = c * lo
        at_lo += w
        np.abs(up, out=w)
        w *= lam
        at_up = c * up
        at_up += w
        del w
        lo_wins = at_lo <= at_up
        best = np.minimum(at_lo, at_up, out=at_lo)
        del at_up
        out = np.where(lo_wins, lo, up)
        # the kink value is 0; it wins only strictly, so endpoint ties keep
        # the candidate order (lower, upper, zero)
        zero = best > 0.0
        zero &= lo <= 0.0
        zero &= up >= 0.0
        out[zero] = 0.0
        return out

    def project(self, x: Vector) -> Vector:
        return np.clip(x, self.lower, self.upper)

    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def contains(self, x: Vector, tol: float = 1e-9) -> bool:
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def draw(self, rng: np.random.Generator) -> Vector:
        x = rng.random(self.dim)
        x *= self.upper - self.lower
        return np.add(self.lower, x, out=x)

    extreme_points = FeasibleSet.extreme_points

    def extreme_point_count(self) -> int:
        # too many corners to enumerate past d = 12: both extreme corners
        # plus the single flips of each
        return 2 ** self.dim if self.dim <= 12 else 2 + 2 * self.dim

    def _extreme_point(self, i: int) -> Vector:
        lo, up = self.lower, self.upper
        if self.dim <= 12:
            # corner i of the product, whose last coordinate varies fastest:
            # bit d - 1 - j of i picks the upper end of coordinate j
            return np.where((i >> np.arange(self.dim - 1, -1, -1)) & 1, up, lo)
        if i < 2:
            return (lo, up)[i].copy()
        j, flip = divmod(i - 2, 2)  # lower with j raised, then upper with j lowered
        row = (lo, up)[flip].copy()
        row[j] = (up, lo)[flip][j]
        return row


class VertexPolytope(FeasibleSet):
    """Convex hull of an explicit vertex list (one vertex per row)."""

    kind = "vertex_polytope"
    vertices: Matrix

    def check_values(self):
        v = self.vertices
        if v.ndim != 2 or v.size == 0:  # no vertex, or vertices of dimension 0
            raise ValueError("'vertices' must be a nonempty list of d-vectors")

    @property
    def dim(self) -> int:
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

    extreme_points = FeasibleSet.extreme_points

    def extreme_point_count(self) -> int:
        return len(self.vertices)

    def _extreme_point(self, i: int) -> Vector:
        return self.vertices[i].copy()


def _row_count(total: int, limit: int | None) -> int:
    """How many of a table's `total` rows a call with this limit returns."""
    if limit is None:
        return total
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    return min(total, limit)


def _project_onto_simplex_face(x: Vector, total: float) -> Vector:
    """Euclidean projection onto {z >= 0, sum z = total} by sort and threshold.

    With u = x sorted descending and css its cumulative sums less total, rho
    is the last index with u[rho] > css[rho] / (rho + 1), and the projection
    is max(x - css[rho] / (rho + 1), 0). It works in place on two n-vectors:
    u, and css, which the quotients css / (i + 1) overwrite, their divisors
    made a block at a time, and which then becomes the result. theta =
    q[rho] is the double css[rho] / (rho + 1), and each value is the same bits
    as the out-of-place formula.
    """
    u = np.sort(x)[::-1]
    q = np.cumsum(u)
    q -= total
    for s in blocks(x.size):
        np.divide(q[s], np.arange(s.start + 1.0, s.stop + 1.0), out=q[s])
    above = u > q
    rho = x.size - 1 - int(above[::-1].argmax())
    if not above[rho]:  # argmax finds no True: x holds a NaN or an infinity
        raise ValueError("no threshold index: the simplex projection needs finite "
                         "entries and a positive total")
    theta = q[rho]
    del u, above
    np.subtract(x, theta, out=q)
    return np.maximum(q, 0.0, out=q)


_SET_KINDS = kinds(Simplex, L1Ball, L2Ball, Box, VertexPolytope)


def set_from_descriptor(desc: dict) -> FeasibleSet:
    """Rebuild a set from its serializable descriptor (kind tag + parameters)."""
    return build(desc, _SET_KINDS, "set")
