"""Seeded workload generators: each returns the raw spec dicts one pass runs.

A raw spec is exactly what a user's spec file holds, so the program sees
only parsed specs. Generated data depends on the seed alone; the canned
`reproduce` cases are frozen and ignore it. WORKLOADS.md records why each
workload exists and which defect it exposes.
"""
from __future__ import annotations

import numpy as np

LINE_SEARCH = {"kind": "line_search", "tol": 1e-10, "max_evals": 200}
HARMONIC = {"kind": "harmonic", "c": 2.0}
COMPOSITE_LAM = 0.3


def _floats(arr) -> list:
    return [float(v) for v in arr]


def _sets(n: int, rng: np.random.Generator) -> dict[str, tuple[dict, float]]:
    """The four closed-form set kinds at dimension n, each with its squared
    diameter (the curvature constant of a 1-smooth objective on it)."""
    radius = float(rng.uniform(0.5, 2.0))
    half = rng.uniform(0.5, 1.5, n)
    box = {"kind": "box", "dim": n, "lower": _floats(-half), "upper": _floats(half)}
    return {
        "simplex": ({"kind": "simplex", "dim": n}, 2.0),
        "l1_ball": ({"kind": "l1_ball", "dim": n, "radius": radius}, 4.0 * radius**2),
        "l2_ball": ({"kind": "l2_ball", "dim": n, "radius": radius}, 4.0 * radius**2),
        "box": (box, float(np.sum((2.0 * half) ** 2))),
    }


def _quadratic(n: int, rng: np.random.Generator) -> dict:
    # unit-normal anchors lie outside every set above, so each constrained
    # optimum sits on the boundary
    return {"kind": "quadratic", "b": _floats(rng.standard_normal(n))}


def _dense_anchor(kind: str, set_desc: dict, n: int, rng: np.random.Generator) -> dict:
    """A quadratic whose constrained optimum on the simplex or L1 ball has all
    n coordinates nonzero, so no run reaches it exactly and a line-search
    spec uses its whole budget on every seed. (From a unit-normal anchor the
    optimum has a few nonzeros; line search then lands on it exactly after a
    seed-dependent 3 to 200 iterations.) Open-loop specs keep unit-normal
    anchors: from a dense x0 near a dense optimum, open-loop steps end above
    phi(x0), which the gate would flag."""
    w = rng.uniform(1.0, 2.0, n) / n
    if kind == "simplex":
        # projecting w, which sums to about 1.5, onto the simplex subtracts
        # about 0.5/n from every coordinate, and each exceeds 1/n
        return {"kind": "quadratic", "b": _floats(w)}
    # a signed w scaled to half the ball's radius in l1 norm: an interior optimum
    signs = rng.choice([-1.0, 1.0], n)
    return {"kind": "quadratic", "b": _floats(signs * w * (0.5 * set_desc["radius"] / w.sum()))}


def _classic_bound(diam_sq: float, opt: float | None = None) -> dict:
    # Jaggi (ICML 2013), Thm. 1: under gamma_k = 2/(k+2) and an exact oracle,
    # f(x_k) - f* <= 2 C_f/(k+2) for k >= 1, with C_f <= L diam^2 and L = 1
    # for 0.5||x - b||^2. It holds on every correct run.
    check = {"kind": "bound-domination", "k_min": 1, "tol_add": 1e-9,
             "bound": {"kind": "harmonic_classic", "C_f": diam_sq}}
    if opt is not None:
        check["opt"] = opt
    return check


MONOTONE = {"kind": "monotonicity", "tol": 1e-12}


def _curvature_probe(name: str, set_desc: dict, diam_sq: float, seed: int) -> dict:
    """Analysis-only spec: the order-2 curvature of 0.5||x||^2 is exactly
    max ||s - x||^2 over the sampled pairs, which the extreme-point pairs
    drive to diam^2 on these small sets."""
    return {
        "name": name,
        "seed": seed,
        "problem": {"set": set_desc,
                    "objective": {"kind": "quadratic", "b": [0.0] * set_desc["dim"]}},
        "checks": [{"kind": "curvature-exact", "sigma": 2.0, "expect": diam_sq,
                    "tol": 1e-6, "n_samples": 64, "seed": seed}],
    }


def _solving(name, seed, set_desc, objective, rule, x0, max_iter, checks,
             composite=None) -> dict:
    problem = {"set": set_desc, "objective": objective}
    if composite is not None:
        problem["composite"] = composite
    return {"name": name, "seed": seed, "problem": problem, "rule": rule,
            "x0": x0, "stop": {"max_iter": max_iter}, "checks": checks}


def reproduce_specs(seed: int) -> list[dict]:
    """The nine canned cases in `fwlab reproduce all` order (seed unused)."""
    # imported here: run.py imports this module before it puts src/ on the path
    from fwlab.cases import CASE_NAMES, CASES

    return [raw for name in CASE_NAMES for raw in CASES[name]]


def large_n_specs(seed: int) -> list[dict]:
    """Plain quadratics at n = 1e4 on every closed-form set, open-loop and
    line search."""
    rng = np.random.default_rng([seed, 1])
    n = 10_000
    specs = []
    for kind, (set_desc, diam_sq) in _sets(n, rng).items():
        objective = _quadratic(n, rng)
        x0 = f"sample({int(rng.integers(1 << 30))})"
        specs.append(_solving(f"large_{kind}_open", seed, set_desc, objective,
                              HARMONIC, x0, 300, [_classic_bound(diam_sq)]))
        if kind in ("simplex", "l1_ball"):
            objective = _dense_anchor(kind, set_desc, n, rng)
        specs.append(_solving(f"large_{kind}_line", seed, set_desc, objective,
                              LINE_SEARCH, x0, 200, [MONOTONE]))
    probe_set, probe_diam_sq = _sets(20, rng)["l2_ball"]
    specs.append(_curvature_probe("large_curvature_probe", probe_set, probe_diam_sq, seed))
    return specs


def _lasso_box_opt(b: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                   lam: float) -> float:
    # separable: each coordinate minimizes 0.5(y - b)^2 + lam|y| on [l, u] by
    # soft-thresholding b and clipping
    x = np.clip(np.sign(b) * np.maximum(np.abs(b) - lam, 0.0), lower, upper)
    return float(0.5 * np.sum((x - b) ** 2) + lam * np.sum(np.abs(x)))


def composite_specs(seed: int) -> list[dict]:
    """L1-composite quadratics: the exact box oracle at n = 1e4, and the
    projected-subgradient fallback on the other sets at n = 100."""
    rng = np.random.default_rng([seed, 2])
    composite = {"kind": "l1", "lam": COMPOSITE_LAM}
    specs = []
    n = 10_000
    box, diam_sq = _sets(n, rng)["box"]
    objective = _quadratic(n, rng)
    opt = _lasso_box_opt(np.array(objective["b"]), np.array(box["lower"]),
                         np.array(box["upper"]), COMPOSITE_LAM)
    x0 = f"sample({int(rng.integers(1 << 30))})"
    # composite open-loop envelope 4 Delta/(k+1) with C_2 = L diam^2
    open_bound = {"kind": "bound-domination", "k_min": 0, "opt": opt, "tol_add": 1e-9,
                  "bound": {"kind": "open_loop_order_sigma", "sigma": 2.0,
                            "composite": True, "assemble": {"C_sigma": diam_sq}}}
    specs.append(_solving("composite_box_line", seed, box, objective, LINE_SEARCH,
                          x0, 100, [MONOTONE], composite))
    specs.append(_solving("composite_box_open", seed, box, objective, HARMONIC,
                          x0, 300, [open_bound], composite))
    small = _sets(100, rng)
    for kind in ("simplex", "l1_ball", "l2_ball"):
        set_desc, _ = small[kind]
        specs.append(_solving(f"composite_{kind}_fallback", seed, set_desc,
                              _quadratic(100, rng), LINE_SEARCH,
                              f"sample({int(rng.integers(1 << 30))})", 1, [MONOTONE],
                              composite))
    probe_set, probe_diam_sq = _sets(20, rng)["box"]
    specs.append(_curvature_probe("composite_curvature_probe", probe_set, probe_diam_sq,
                                  seed))
    return specs


def _polytope(m: int, d: int, rng: np.random.Generator) -> tuple[dict, float, list]:
    vertices = rng.normal(size=(m, d))
    diffs = vertices[:, None, :] - vertices[None, :, :]
    diam_sq = float(np.max(np.sum(diffs * diffs, axis=2)))
    inside = rng.dirichlet(np.ones(m)) @ vertices
    desc = {"kind": "vertex_polytope", "vertices": [_floats(row) for row in vertices]}
    return desc, diam_sq, _floats(inside)


def materialize_specs(seed: int) -> list[dict]:
    """Short solves whose cost is setting up: vertex(0) on the closed-form
    sets, vertex polytopes behind an LP, and one n = 1e5 spec."""
    rng = np.random.default_rng([seed, 3])
    n = 2000
    specs = []
    rules = {"simplex": HARMONIC, "l1_ball": LINE_SEARCH,
             "l2_ball": HARMONIC, "box": LINE_SEARCH}
    for kind, (set_desc, diam_sq) in _sets(n, rng).items():
        rule = rules[kind]
        checks = [_classic_bound(diam_sq)] if rule is HARMONIC else [MONOTONE]
        if kind == "l1_ball":
            objective = _dense_anchor(kind, set_desc, n, rng)
        else:
            objective = _quadratic(n, rng)
        specs.append(_solving(f"materialize_{kind}", seed, set_desc, objective,
                              rule, "vertex(0)", 20, checks))
    for m, rule in ((200, HARMONIC), (250, LINE_SEARCH), (300, HARMONIC)):
        desc, diam_sq, inside = _polytope(m, 50, rng)
        # b inside the hull, so the constrained optimum is f* = 0
        objective = {"kind": "quadratic", "b": inside}
        checks = [_classic_bound(diam_sq, opt=0.0)] if rule is HARMONIC else [MONOTONE]
        specs.append(_solving(f"materialize_polytope_{m}", seed, desc, objective,
                              rule, f"vertex({int(rng.integers(m))})", 20, checks))
    # config work grows with n even on a short budget: every fingerprint and
    # summary renders x0 and the problem data
    big = 100_000
    specs.append(_solving("materialize_simplex_1e5", seed, {"kind": "simplex", "dim": big},
                          _quadratic(big, rng), HARMONIC,
                          f"sample({int(rng.integers(1 << 30))})", 20,
                          [_classic_bound(2.0)]))
    probe_set, probe_diam_sq = _sets(20, rng)["simplex"]
    specs.append(_curvature_probe("materialize_curvature_probe", probe_set, probe_diam_sq,
                                  seed))
    return specs


WORKLOADS = {
    "reproduce": reproduce_specs,
    "large_n": large_n_specs,
    "composite": composite_specs,
    "materialize": materialize_specs,
}
