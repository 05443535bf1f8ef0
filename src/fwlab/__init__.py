"""Projection-free convex optimization toolkit with rate-bound verification."""

from .geometry import (
    Box,
    FeasibleSet,
    L1Ball,
    L2Ball,
    Simplex,
    VertexPolytope,
    set_from_descriptor,
)
from .objectives import (
    CompositePart,
    Objective,
    composite_from_descriptor,
    make_linear,
    make_nesterov_max,
    make_power_norm,
    make_quadratic,
    make_t_alpha,
    objective_from_descriptor,
)
from .stepsize import (
    DHRecursion,
    Harmonic,
    LineSearch,
    OpenLoop,
    Power,
    ProjectedGradient,
    StepsizeRule,
    dh_envelope_holds,
    line_search,
    line_search_quadratic_exact,
    rule_from_descriptor,
)
from .solver import (
    Problem,
    SolveTrace,
    StopRule,
    config_fingerprint,
    solve,
    trace_summary,
    trace_to_csv,
    write_trace_csv,
)
from .analysis import (
    CurvatureEstimate,
    HarmonicClassic,
    LineSearchOrderSigma,
    OpenLoopOrderSigma,
    RateBound,
    beta_recursion,
    curvature_bound_holder,
    estimate_curvature,
    fit_rate,
    probe_curvature_divergence,
)
from .config import (
    ExperimentSpec,
    load_spec,
    parse_spec,
    spec_fingerprint,
    validate_spec,
)
from .checks import CheckResult, evaluate_check, validate_check
from .cases import CASE_NAMES, CASES, case_specs
from .runner import ExperimentReport, compare, reproduce, run_experiment

__version__ = "0.1.0"
