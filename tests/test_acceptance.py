"""Acceptance gate: one test per shipped acceptance criterion.

Every test prints exactly one line

    [PASS|FAIL] criterion NN <name>: <measured detail> [<runtime>, budget <s>]

before asserting, so `pytest tests/test_acceptance.py -v -s` reads as a
checklist. Each criterion also carries a wall-clock budget; blowing the
budget fails the criterion even if the numbers are right.

Criterion 07 checks the normalized stepsize recursion
beta_{k+1} = (1-gamma_k) beta_k + gamma_k^sigma, beta_0 = 1, behind the
open-loop rate sigma^sigma * Delta / k^(sigma-1). For a schedule
gamma_k = c/(k+m) with m >= c > sigma-1, induction gives
beta_k <= A/(k+m)^(sigma-1) with A = max(c^sigma/(c-sigma+1), m^(sigma-1));
at c = m = sigma, A = sigma^sigma, and c^sigma/(c-sigma+1) is smallest there.
So the sigma^sigma/k^(sigma-1) envelope is a theorem only for the
order-matched schedule sigma/(k+sigma). The criterion asserts (a) that
envelope for Harmonic(sigma), (b) the per-schedule envelope on every shipped
(order, schedule) pair, tight to within 1% (k*beta_k = H_k exactly for the
rational-decay rule at order 2, where c = sigma-1), and (c) that the
sigma^sigma envelope is crossed exactly where c != sigma.
"""
import time

import numpy as np

from fwlab import (
    Box,
    CompositePart,
    DHRecursion,
    Harmonic,
    L1Ball,
    L2Ball,
    LineSearch,
    OpenLoopOrderSigma,
    Problem,
    ProjectedGradient,
    Simplex,
    StopRule,
    VertexPolytope,
    beta_recursion,
    estimate_curvature,
    fit_rate,
    make_linear,
    make_nesterov_max,
    make_power_norm,
    make_quadratic,
    make_t_alpha,
    probe_curvature_divergence,
    solve,
    trace_to_csv,
)

from conftest import fw_gap, replay_iterates
from scalar_recursions import polyak_recursion, polyak_sequence_bound, xu_recursion_check

# interior anchor for the power-norm instances, |b| = 0.85 inside L2Ball(5, 1);
# same frozen vector the canned cases use
_ANCHOR = np.array([
    0.5061676340491016,
    -0.4555508706441915,
    0.30370058042946096,
    0.3543173438343711,
    0.20246705361964065,
])


def _finish(num: int, name: str, ok: bool, detail: str,
            t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:02d} {name}: {detail} "
          f"[{elapsed:.2f}s, budget {budget:g}s]")
    assert elapsed < budget, (
        f"criterion {num} overran its {budget:g}s runtime budget "
        f"({elapsed:.2f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"


def _simplex_quadratic(dim: int) -> Problem:
    fs = Simplex(dim)
    return Problem(fs, make_quadratic(np.zeros(dim)))


def test_criterion_01_harmonic_iterates_stay_above_lower_bound():
    t0 = time.perf_counter()
    problem = _simplex_quadratic(100)
    trace = solve(problem, Harmonic(2.0), x0=np.eye(100)[0],
                  stop=StopRule(max_iter=49))
    ks, theta = np.arange(len(trace.rows)), trace.objs - 1.0 / 200.0
    mask = ks >= 1
    slack = theta[mask] - (1.0 / (4.0 * (ks[mask] + 1.0)) - 1e-12)
    ok = bool(np.all(slack >= 0.0))
    _finish(1, "suboptimality floor 1/(4(k+1)) on the simplex quadratic",
            ok, f"min slack {slack.min():.3g} over k=1..49", t0, 1.0)


def test_criterion_02_classic_upper_bound_dominates_harmonic_run():
    t0 = time.perf_counter()
    problem = _simplex_quadratic(100)
    trace = solve(problem, Harmonic(2.0), x0=np.eye(100)[0],
                  stop=StopRule(max_iter=10_000))
    theta = trace.objs - 1.0 / 200.0
    excess = theta - (4.0 / (np.arange(len(trace.rows)) + 2.0) + 1e-12)
    ok = bool(np.all(excess <= 0.0))
    _finish(2, "classic 4/(k+2) envelope on the simplex quadratic",
            ok, f"max excess {excess.max():.3g} over k=0..10000", t0, 2.0)


def test_criterion_03_scalar_power_curvature_exact_and_divergent():
    t0 = time.perf_counter()
    obj = make_t_alpha(1.5)
    fs = Box(1, np.array([0.0]), np.array([1.0]))
    est = estimate_curvature(Problem(fs, obj), sigma=1.5, n_samples=200, seed=3)
    probe = probe_curvature_divergence(Problem(fs, obj), sigma=2.0)
    exact_ok = abs(est.sampled_value - 1.5) <= 1e-9
    ok = exact_ok and probe > 1e3
    _finish(3, "matched-order curvature of t^1.5 is the exponent, order 2 diverges",
            ok, f"sampled {est.sampled_value:.12g}, order-2 probe {probe:.4g}",
            t0, 1.0)


def test_criterion_04_open_loop_bound_with_sampled_constants():
    t0 = time.perf_counter()
    fs = L2Ball(5, 1.0)
    worst = -np.inf
    for sigma in (1.25, 1.5):
        obj = make_power_norm(sigma, _ANCHOR)
        trace = solve(Problem(fs, obj), Harmonic(2.0),
                      x0=np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
                      stop=StopRule(max_iter=10_000))
        est = estimate_curvature(Problem(fs, obj), sigma, n_samples=400, seed=7)
        c_sigma = 1.2 * est.sampled_value
        # Delta = max(theta0, C_sigma/sigma); the optimum is 0 at the interior anchor
        bound = OpenLoopOrderSigma(sigma=sigma, assemble={"C_sigma": c_sigma})
        bound = bound.resolve(Problem(fs, obj), trace, opt=0.0)
        # row k is iterate k: the rows past the start
        excess = trace.objs[1:] - bound.curve(np.arange(1, len(trace.rows)))
        worst = max(worst, float(excess.max()))
    ok = worst <= 0.0
    _finish(4, "order-sigma open-loop envelope with sampled inflated constants",
            ok, f"max excess {worst:.3g} across sigma 1.25 and 1.5, k=1..10000",
            t0, 5.0)


def test_criterion_05_line_search_is_monotone_with_fast_tail():
    t0 = time.perf_counter()
    fs = L2Ball(5, 1.0)
    details = []
    ok = True
    for sigma in (1.25, 1.5):
        obj = make_power_norm(sigma, _ANCHOR)
        trace = solve(Problem(fs, obj), LineSearch(1e-10, 200),
                      x0=np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
                      stop=StopRule(max_iter=2000))
        mono = bool(np.all(np.diff(trace.objs) <= 1e-12))
        slope = fit_rate(trace, opt=0.0, tail_fraction=0.5)["slope"]
        ok = ok and mono and slope <= -(sigma - 1.0) + 0.1
        details.append(f"sigma={sigma}: monotone={mono}, tail slope {slope:.3g}")
    _finish(5, "exact line search descends monotonically at the stated order",
            ok, "; ".join(details), t0, 10.0)


def test_criterion_06_kinked_objective_keeps_harmonic_run_away_from_optimum():
    t0 = time.perf_counter()
    problem = Problem(L2Ball(2, 1.0), make_nesterov_max())
    trace = solve(problem, Harmonic(2.0), x0=np.array([1.0, 0.0]),
                  stop=StopRule(max_iter=1000))
    margin = float((trace.objs[100:] - (-1.0 / np.sqrt(2.0))).min())
    ok = margin >= 0.2
    _finish(6, "max-of-coordinates objective stays a fixed margin above its optimum",
            ok, f"min margin {margin:.6g} over k=100..1000", t0, 1.0)


def _harmonic_form(rule) -> tuple[float, float]:
    """(c, m) with gamma_k = c/(k+m) for the two shipped open-loop families."""
    if isinstance(rule, Harmonic):
        return rule.c, rule.c
    return 1.0, 1.0 / rule.gamma0  # gamma0/(gamma0*k+1) = 1/(k+1/gamma0)


def test_criterion_07_stepsize_recursion_envelope_all_orders_and_schedules():
    # (a) sigma^sigma/k^(sigma-1) under its hypothesis, the matched schedule
    # Harmonic(sigma); (b) every shipped pair under its own A/(k+m)^(sigma-1),
    # tight to 1%, or k*beta_k = H_k where c = sigma-1 leaves no O(1/k)
    # envelope; (c) the sigma^sigma envelope is crossed iff c != sigma.
    t0 = time.perf_counter()
    K = 100_000
    k = np.arange(1, K + 1, dtype=float)
    failing = []
    matched = []
    for sigma in (1.25, 1.5, 2.0):
        for rule in dict.fromkeys((Harmonic(sigma), Harmonic(2.0), DHRecursion(1.0))):
            c, m = _harmonic_form(rule)
            label = f"sigma={sigma}/{rule.descriptor()['kind']}({c:g},{m:g})"
            betas = beta_recursion(rule, sigma, K)[1:]
            scaled = betas * k ** (sigma - 1.0) / sigma**sigma
            crossed = bool(np.any(scaled > 1.0))
            if c == sigma:
                matched.append(f"{scaled.max():.6f}")
            if crossed != (c != sigma):
                failing.append(f"{label} sigma^sigma envelope crossed={crossed}")
            if c > sigma - 1.0:
                A = max(c**sigma / (c - sigma + 1.0), m ** (sigma - 1.0))
                ratio = betas * (k + m) ** (sigma - 1.0) / A
                if not 0.99 <= ratio.max() <= 1.0:
                    failing.append(f"{label} own-envelope max ratio {ratio.max():.6g}")
            else:
                hk = np.cumsum(1.0 / k)
                rel = float(np.max(np.abs(k * betas - hk) / hk))
                if rel > 1e-12:
                    failing.append(f"{label} k*beta_k off H_k by {rel:.3g}")
    ok = not failing
    detail = ("matched schedule peaks at " + "/".join(matched)
              + " of sigma^sigma/k^(sigma-1); every pair holds its own "
              "envelope; crossings exactly where c != sigma" if ok
              else f"{len(failing)} failures: " + "; ".join(failing))
    _finish(7, "recursion envelope under the order-matched schedule sigma/(k+sigma)",
            ok, detail, t0, 1.0)


def test_criterion_08_rational_decay_schedule_sits_in_its_envelope():
    t0 = time.perf_counter()
    ok = True
    for gamma0 in (0.1, 0.5, 1.0):
        gammas = DHRecursion(gamma0).values(upto=100_000)
        ks = np.arange(gammas.size, dtype=float)
        ok = ok and bool(np.all(gammas >= gamma0 / (ks + 1.0)))
        ok = ok and bool(np.all(gammas <= gamma0 / (gamma0 * ks + 1.0)))
    _finish(8, "two-sided envelope of the rational-decay schedule",
            ok, "gamma0/(k+1) <= gamma_k <= gamma0/(gamma0*k+1) for "
                "gamma0 in {0.1, 0.5, 1.0}, k<=100000", t0, 1.0)


def test_criterion_09_scalar_sequence_bounds_hold_in_simulation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    dominated = 0
    for i in range(100):
        eta = 0.5 if i % 2 == 0 else 1.0
        alpha0 = float(rng.uniform(0.1, 1.0))
        betas = rng.uniform(0.0, 1.0, size=150)
        # scale into the regime where the recursion stays nonnegative
        betas = betas / max(1.0, float(betas.max()) * alpha0 ** eta)
        alphas = polyak_recursion(alpha0, betas, eta)
        bound = polyak_sequence_bound(alpha0, betas, eta)
        if np.all(alphas <= bound * (1.0 + 1e-12) + 1e-15):
            dominated += 1
    etas = 1.0 / (np.arange(1_000_000) + 1.0)
    rep = xu_recursion_check(1.0, etas=etas, epsilons=etas)
    ok = dominated == 100 and rep.final_alpha < 1e-2
    _finish(9, "closed-form envelopes dominate simulated scalar recursions",
            ok, f"{dominated}/100 randomized recursions dominated; "
                f"averaged recursion reaches {rep.final_alpha:.4g} at K=1e6",
            t0, 5.0)


def test_criterion_10_composite_split_solver_on_the_box():
    t0 = time.perf_counter()
    fs = Box(5, -np.ones(5), np.ones(5))
    b = np.array([0.9, -0.4, 0.2, -1.5, 0.0])
    lam = 0.5
    problem = Problem(fs, make_quadratic(b), CompositePart(lam))
    # coordinate-wise soft-threshold-then-clip optimum of f + g on the box
    x_star = np.clip(np.sign(b) * np.maximum(np.abs(b) - lam, 0.0), -1.0, 1.0)
    phi_star = 0.5 * float(((x_star - b) ** 2).sum()) + lam * float(np.abs(x_star).sum())

    trace_ls = solve(problem, LineSearch(1e-10, 200), x0=-np.ones(5),
                     stop=StopRule(max_iter=500))
    mono_ok = bool(np.all(np.diff(trace_ls.objs) <= 1e-12))

    trace_ol = solve(problem, Harmonic(2.0), x0=-np.ones(5),
                     stop=StopRule(max_iter=10_000))
    theta0 = float(trace_ol.objs[0]) - phi_star
    delta = max(theta0, 20.0 / 2.0)  # curvature bound = squared diameter = 20
    bound = OpenLoopOrderSigma(Delta=delta, sigma=2.0, composite=True)
    excess = (trace_ol.objs - phi_star) - bound.curve(np.arange(len(trace_ol.rows)))
    bound_ok = bool(np.all(excess <= 0.0))

    rng = np.random.default_rng(42)
    grid = np.linspace(-1.0, 1.0, 2001)
    grid_gap = 0.0
    for _ in range(100):
        c = rng.standard_normal(5)
        s = fs.lmo_l1(c, problem.composite.lam)
        val_s = float(c @ s) + lam * float(np.abs(s).sum())
        val_grid = sum(float(np.min(ci * grid + lam * np.abs(grid))) for ci in c)
        grid_gap = max(grid_gap, abs(val_s - val_grid))
    oracle_ok = grid_gap <= 1e-6

    ok = mono_ok and bound_ok and oracle_ok
    _finish(10, "composite solver on the lasso-style box problem",
            ok, f"line search monotone={mono_ok}, open-loop max excess "
                f"{excess.max():.3g}, oracle-vs-grid gap {grid_gap:.3g}",
            t0, 5.0)


def test_criterion_11_sharp_linear_problem_terminates_finitely():
    t0 = time.perf_counter()
    fs = Simplex(3)
    problem = Problem(fs, make_linear(np.array([1.0, 2.0, 3.0])))
    trace = solve(problem, LineSearch(1e-10, 200), x0=np.array([0.0, 0.0, 1.0]),
                  stop=StopRule(max_iter=100))
    ok = (trace.reason == "finite_termination"
          and len(trace.rows) - 1 == 1
          and bool(np.all(np.abs(trace.final_x
                                 - np.array([1.0, 0.0, 0.0])) <= 1e-12)))
    _finish(11, "linear objective over the simplex stops at its vertex",
            ok, f"reason={trace.reason} at k={len(trace.rows) - 1}, "
                f"final_x={trace.final_x.tolist()}", t0, 0.1)


def test_criterion_12_projection_free_run_matches_projected_gradient():
    t0 = time.perf_counter()
    problem = _simplex_quadratic(10)
    x0 = np.eye(10)[0]
    fw = solve(problem, Harmonic(2.0), x0=x0, stop=StopRule(max_iter=20_000))
    gpa = solve(problem, ProjectedGradient(1.0), x0, StopRule(200))
    f_star = 1.0 / 20.0
    err_fw = fw.final_obj - f_star
    err_gpa = gpa.final_obj - f_star
    ok = abs(err_fw) <= 1e-6 and abs(err_gpa) <= 1e-6
    _finish(12, "both solvers land on the simplex quadratic optimum",
            ok, f"final error {err_fw:.3g} (projection-free) and "
                f"{err_gpa:.3g} (projected gradient)", t0, 1.0)


def test_criterion_13_randomized_invariant_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    failures: list[str] = []
    sets = [
        Simplex(4),
        L1Ball(4, 1.5),
        L2Ball(4, 2.0),
        Box(4, np.array([-1.0, 0.0, -2.0, -0.5]), np.array([1.0, 2.0, 0.5, 1.5])),
    ]
    triangle = VertexPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]))

    # linear oracle certificates: the oracle point is feasible and beats
    # every sampled feasible point and every listed extreme point
    for fs in sets + [triangle]:
        for i in range(40):
            c = rng.standard_normal(fs.dim)
            s = fs.lmo(c)
            if not fs.contains(s, 1e-9):
                failures.append(f"lmo left {type(fs).__name__}")
            best_ext = min(float(c @ v) for v in fs.extreme_points())
            if float(c @ s) > best_ext + 1e-9:
                failures.append(f"lmo beaten by an extreme point of {type(fs).__name__}")
            for j in range(5):
                y = fs.sample(i * 13 + j)
                if float(c @ s) > float(c @ y) + 1e-9:
                    failures.append(f"lmo beaten by a sample on {type(fs).__name__}")

    # projections: feasible, idempotent, and obtuse against the set
    for fs in sets:
        for i in range(40):
            x = 3.0 * rng.standard_normal(fs.dim)
            p = fs.project(x)
            if not fs.contains(p, 1e-9):
                failures.append(f"projection left {type(fs).__name__}")
            if float(np.linalg.norm(fs.project(p) - p)) > 1e-12:
                failures.append(f"projection not idempotent on {type(fs).__name__}")
            for j in range(5):
                y = fs.sample(i * 7 + j)
                if float((x - p) @ (y - p)) > 1e-9:
                    failures.append(f"projection not obtuse on {type(fs).__name__}")

    # the reported gap upper-bounds the suboptimality against sampled points,
    # for both plain and composite problems
    for fs in sets:
        b = rng.standard_normal(fs.dim)
        for composite in (None, CompositePart(0.3)):
            problem = Problem(fs, make_quadratic(b), composite)
            for i in range(20):
                x = fs.sample(100 + i)
                gap, _ = fw_gap(problem, x)
                gx = composite.value(x) if composite else 0.0
                for j in range(5):
                    y = fs.sample(200 + i * 5 + j)
                    gy = composite.value(y) if composite else 0.0
                    drop = (problem.objective.value(x) + gx
                            - problem.objective.value(y) - gy)
                    if drop > gap + 1e-9:
                        failures.append(f"gap fails to certify on {type(fs).__name__}")

    # every iterate of a solve stays feasible and reports a nonnegative gap
    for fs in sets:
        b = rng.standard_normal(fs.dim)
        problem = Problem(fs, make_quadratic(b))
        for rule in (Harmonic(2.0), LineSearch(1e-10, 200)):
            x0 = fs.sample(0)
            trace = solve(problem, rule, x0=x0, stop=StopRule(max_iter=300))
            for x, gap in zip(replay_iterates(problem, x0, trace), trace.rows[:, 1]):
                if not fs.contains(x, 1e-9):
                    failures.append(f"iterate left {type(fs).__name__}")
                if gap < -1e-12:
                    failures.append(f"negative gap on {type(fs).__name__}")

    # bit-identical reruns
    fs = sets[0]
    problem = Problem(fs, make_quadratic(np.zeros(4)))
    a = solve(problem, Harmonic(2.0), x0=fs.sample(3), stop=StopRule(max_iter=100))
    b2 = solve(problem, Harmonic(2.0), x0=fs.sample(3), stop=StopRule(max_iter=100))
    if trace_to_csv(a) != trace_to_csv(b2):
        failures.append("identical configs produced different traces")

    # analytic gradients agree with central differences away from kinks
    probes = [
        (make_quadratic(rng.standard_normal(4)), 4),
        (make_power_norm(1.5, rng.standard_normal(4)), 4),
        (make_nesterov_max(), 2),
    ]
    h = 1e-6
    for obj, dim in probes:
        for _ in range(20):
            x = rng.uniform(0.05, 0.95, size=dim)
            g = obj.grad(x)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
                if abs(fd - g[i]) > 1e-4 * max(1.0, abs(g[i])):
                    failures.append("finite differences disagree with grad")

    ok = not failures
    detail = ("oracle certificates, projections, gap certificates, iterate "
              "feasibility, determinism, and gradients all held"
              if ok else f"{len(failures)} violations, first: {failures[0]}")
    _finish(13, "randomized invariant sweep across the whole toolkit",
            ok, detail, t0, 30.0)
