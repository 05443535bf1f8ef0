"""Canned reproduction cases: frozen experiment specs with their checks.

Each case is a list of raw spec dicts in the exact shape a spec file holds, so
they double as working examples of the config format. Every constant here is
frozen: objective data, start points, iteration budgets, estimator seeds, and
the check tolerances. The case names are the vocabulary of the `reproduce`
subcommand.

Cases and what they demonstrate:
- polyak_lower_bound: on the 100-simplex the classic schedule cannot beat a
  1/(4(k+1)) floor for the first n/2-1 iterations (support grows by one
  vertex per step).
- harmonic_upper_bound: the same run obeys the classic 2*C/(k+2) envelope
  with C = 2 from the Lipschitz bound on the squared-distance objective.
- t_alpha_curvature: the scalar t^alpha objective has order-alpha curvature
  exactly alpha, while its order-2 curvature blows up under grid refinement.
- holder_rate_sweep: power-norm objectives with Holder (not Lipschitz)
  gradients obey the order-sigma open-loop envelope with estimated constants,
  and line search is monotone with a steep empirical tail slope.
- nesterov_failure: a pointwise gradient selection on a nonsmooth max keeps
  the iterates a fixed margin above the optimum: differentiability is a real
  hypothesis, not a convenience.
- composite_lasso_box: the composite subproblem oracle on a box matches
  brute-force grids, line search is monotone, and the composite open-loop
  envelope 4*Delta/(k+1) holds with the closed-form curvature constant.
- sharp_finite_termination: a linear objective over the simplex terminates at
  the exact vertex optimum after one step (sharp minimum, fixed point hit
  bitwise).
- dh_schedule_bounds: the rational-decay recursion stays inside its exact
  two-sided envelope for 1e5 steps with zero tolerance.
- gpa_parity: the projection-free path and the projected-gradient baseline
  land on the same optimum of a quadratic over the 10-simplex.
"""
from __future__ import annotations

from .config import ExperimentSpec, parse_spec

# interior anchor for the power-norm instances, |b| = 0.85 (frozen floats)
_POWER_B = [
    0.5061676340491016,
    -0.4555508706441915,
    0.30370058042946096,
    0.3543173438343711,
    0.20246705361964065,
]

_SIMPLEX100_QUADRATIC = {
    "set": {"kind": "simplex", "dim": 100},
    "objective": {"kind": "quadratic", "b": [0.0] * 100},
}

_LASSO_BOX_PROBLEM = {
    "set": {"kind": "box", "dim": 5, "lower": [-1.0] * 5, "upper": [1.0] * 5},
    "objective": {"kind": "quadratic", "b": [0.9, -0.4, 0.2, -1.5, 0.0]},
    "composite": {"kind": "l1", "lam": 0.5},
}
# coordinate-wise shrink-then-clip optimum of the lasso-box problem:
# x* = (0.4, 0, 0, -1, 0), objective 0.35 + 0.7
_LASSO_BOX_OPT = 1.05


def _power_problem(sigma: float) -> dict:
    return {
        "set": {"kind": "l2_ball", "dim": 5, "radius": 1.0},
        "objective": {"kind": "power_norm", "sigma": sigma, "b": list(_POWER_B)},
    }


CASES: dict[str, list[dict]] = {
    "polyak_lower_bound": [
        {
            "name": "polyak_lower_bound",
            "seed": 101,
            "problem": _SIMPLEX100_QUADRATIC,
            "rule": {"kind": "harmonic", "c": 2.0},
            "x0": "vertex(0)",
            "stop": {"max_iter": 50},
            "checks": [
                {"kind": "lower-bound", "coeff": 0.25, "offset": 1.0,
                 "k_min": 1, "k_max": 49, "tol": 1e-12},
            ],
        },
    ],
    "harmonic_upper_bound": [
        {
            "name": "harmonic_upper_bound",
            "seed": 102,
            "problem": _SIMPLEX100_QUADRATIC,
            "rule": {"kind": "harmonic", "c": 2.0},
            "x0": "vertex(0)",
            "stop": {"max_iter": 10_000},
            "checks": [
                {"kind": "bound-domination", "k_min": 0, "tol_add": 1e-12,
                 "bound": {"kind": "harmonic_classic", "C_f": 2.0}},
            ],
        },
    ],
    "t_alpha_curvature": [
        {
            "name": "t_alpha_curvature",
            "seed": 103,
            "problem": {
                "set": {"kind": "box", "dim": 1, "lower": [0.0], "upper": [1.0]},
                "objective": {"kind": "t_alpha", "alpha": 1.5},
            },
            "checks": [
                {"kind": "curvature-exact", "sigma": 1.5, "expect": 1.5,
                 "tol": 1e-9, "n_samples": 200, "seed": 3},
                {"kind": "curvature-divergence", "sigma": 2.0, "threshold": 1e3,
                 "n_samples": 64, "seed": 3},
            ],
        },
    ],
    "holder_rate_sweep": [
        {
            "name": "holder_rate_sweep_open_s125",
            "seed": 104,
            "problem": _power_problem(1.25),
            "rule": {"kind": "harmonic", "c": 2.0},
            "x0": [1.0, 0.0, 0.0, 0.0, 0.0],
            "stop": {"max_iter": 10_000},
            "checks": [
                {"kind": "bound-domination", "k_min": 1,
                 "bound": {"kind": "open_loop_order_sigma", "sigma": 1.25,
                           "composite": False,
                           "assemble": {"inflate": 1.2, "n_samples": 400, "seed": 7}}},
            ],
        },
        {
            "name": "holder_rate_sweep_open_s150",
            "seed": 105,
            "problem": _power_problem(1.5),
            "rule": {"kind": "harmonic", "c": 2.0},
            "x0": [1.0, 0.0, 0.0, 0.0, 0.0],
            "stop": {"max_iter": 10_000},
            "checks": [
                {"kind": "bound-domination", "k_min": 1,
                 "bound": {"kind": "open_loop_order_sigma", "sigma": 1.5,
                           "composite": False,
                           "assemble": {"inflate": 1.2, "n_samples": 400, "seed": 7}}},
            ],
        },
        {
            "name": "holder_rate_sweep_line_s125",
            "seed": 106,
            "problem": _power_problem(1.25),
            "rule": {"kind": "line_search", "tol": 1e-10, "max_evals": 200},
            "x0": [1.0, 0.0, 0.0, 0.0, 0.0],
            "stop": {"max_iter": 2000},
            "checks": [
                {"kind": "monotonicity", "tol": 1e-12},
                {"kind": "rate-slope", "max_slope": -0.15, "tail_fraction": 0.5},
            ],
        },
        {
            "name": "holder_rate_sweep_line_s150",
            "seed": 107,
            "problem": _power_problem(1.5),
            "rule": {"kind": "line_search", "tol": 1e-10, "max_evals": 200},
            "x0": [1.0, 0.0, 0.0, 0.0, 0.0],
            "stop": {"max_iter": 2000},
            "checks": [
                {"kind": "monotonicity", "tol": 1e-12},
                {"kind": "rate-slope", "max_slope": -0.4, "tail_fraction": 0.5},
            ],
        },
    ],
    "nesterov_failure": [
        {
            "name": "nesterov_failure",
            "seed": 108,
            "problem": {
                "set": {"kind": "l2_ball", "dim": 2, "radius": 1.0},
                "objective": {"kind": "nesterov_max"},
            },
            "rule": {"kind": "harmonic", "c": 2.0},
            "x0": [1.0, 0.0],
            "stop": {"max_iter": 1000},
            "checks": [
                {"kind": "non-convergence-margin", "margin": 0.2,
                 "k_min": 100, "k_max": 1000},
            ],
        },
    ],
    "composite_lasso_box": [
        {
            "name": "composite_lasso_box_line",
            "seed": 109,
            "problem": _LASSO_BOX_PROBLEM,
            "rule": {"kind": "line_search", "tol": 1e-10, "max_evals": 200},
            "x0": [-1.0, -1.0, -1.0, -1.0, -1.0],
            "stop": {"max_iter": 500},
            "checks": [
                {"kind": "monotonicity", "tol": 1e-12},
                {"kind": "optimum-proximity", "tol": 1e-8, "opt": _LASSO_BOX_OPT},
                {"kind": "oracle-grid-match", "seed": 42, "n_vectors": 100,
                 "tol": 1e-6, "grid_points": 2001},
            ],
        },
        {
            "name": "composite_lasso_box_open",
            "seed": 110,
            "problem": _LASSO_BOX_PROBLEM,
            "rule": {"kind": "harmonic", "c": 2.0},
            "x0": [-1.0, -1.0, -1.0, -1.0, -1.0],
            "stop": {"max_iter": 10_000},
            "checks": [
                {"kind": "bound-domination", "k_min": 0, "opt": _LASSO_BOX_OPT,
                 "bound": {"kind": "open_loop_order_sigma", "sigma": 2.0,
                           "composite": True,
                           "assemble": {"C_sigma": 20.0}}},
            ],
        },
    ],
    "sharp_finite_termination": [
        {
            "name": "sharp_finite_termination",
            "seed": 111,
            "problem": {
                "set": {"kind": "simplex", "dim": 3},
                "objective": {"kind": "linear", "c": [1.0, 2.0, 3.0]},
            },
            "rule": {"kind": "line_search", "tol": 1e-10, "max_evals": 200},
            "x0": [0.0, 0.0, 1.0],
            "stop": {"max_iter": 100},
            "checks": [
                {"kind": "finite-termination", "at_k": 1,
                 "final_x": [1.0, 0.0, 0.0], "tol": 1e-12},
                {"kind": "optimum-proximity", "tol": 1e-12},
            ],
        },
    ],
    "dh_schedule_bounds": [
        {
            "name": "dh_schedule_bounds",
            "seed": 112,
            "checks": [
                {"kind": "schedule-bounds", "gamma0s": [0.1, 0.5, 1.0],
                 "horizon": 100_000},
            ],
        },
    ],
    "gpa_parity": [
        {
            "name": "gpa_parity_fw",
            "seed": 113,
            "problem": {
                "set": {"kind": "simplex", "dim": 10},
                "objective": {"kind": "quadratic", "b": [0.0] * 10},
            },
            "rule": {"kind": "harmonic", "c": 2.0},
            "x0": "vertex(0)",
            "stop": {"max_iter": 20_000},
            "checks": [
                {"kind": "optimum-proximity", "tol": 1e-6},
            ],
        },
        {
            "name": "gpa_parity_gpa",
            "seed": 114,
            "problem": {
                "set": {"kind": "simplex", "dim": 10},
                "objective": {"kind": "quadratic", "b": [0.0] * 10},
            },
            "rule": {"kind": "gpa", "step": 1.0},
            "x0": "vertex(0)",
            "stop": {"max_iter": 200},
            "checks": [
                {"kind": "optimum-proximity", "tol": 1e-6},
            ],
        },
    ],
}

CASE_NAMES = tuple(CASES)


def case_specs(case: str) -> list[ExperimentSpec]:
    """Parsed specs for a canned case; raises on unknown case names."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; known cases: {', '.join(CASE_NAMES)}")
    return [parse_spec(raw, source=f"case {case}") for raw in CASES[case]]
