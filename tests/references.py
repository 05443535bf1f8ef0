"""Out-of-place and one-shot forms of what fwlab computes in place or in pieces.

The simplex projection behind f* reuses its buffers; this keeps the plain
sort-and-threshold expression it replaced. A schedule is evaluated a block at
a time, the compare CSV is rendered from the trace's row array a chunk at a
time, the rate fit selects its points from the trace's columns and the window
checks slice the rows k_min..k_max; this keeps the one-shot schedule, the
per-cell rendering, the per-row point loop and the boolean masks over a k
column they replaced. Tests require the package to match each of them bit for
bit. Nothing in the package reads this module.
"""
import math

import numpy as np


def project_onto_simplex_face(x, total):
    """Euclidean projection onto {z >= 0, sum z = total} by sort and threshold."""
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, x.size + 1)
    rho = int(np.nonzero(u > css / idx)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(x - theta, 0.0)


def schedule_one_shot(rule, upto):
    """An open-loop rule's stepsizes for k = 0..upto in one evaluation."""
    return rule.gamma(np.arange(upto + 1.0))


def compare_csv_per_cell(names, traces):
    """The compare CSV built a cell at a time from each trace's rows, the
    cells of a trace past its last row left empty."""
    header = ["k"]
    for name in names:
        header.append(f"obj_{name}")
        header.append(f"gap_{name}")
    longest = max(len(t.rows) for t in traces)
    lines = [",".join(header)]
    for k in range(longest):
        row = [str(k)]
        for t in traces:
            if k < len(t.rows):
                obj, gap, _, _ = t.rows[k].tolist()
                row.append("%.17g" % obj)
                row.append("%.17g" % gap)
            else:
                row.append("")
                row.append("")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def fit_points(trace, opt, tail_fraction):
    """The (log k, log(obj_k - opt)) points a rate fit uses, row by row: the
    last tail_fraction of rows with k >= 1, residuals at or below the
    roundoff floor max(0, 100*eps*|opt|) dropped."""
    ks, objs = [], []
    for k, (obj, _, _, _) in enumerate(trace.rows.tolist()):
        if k >= 1:
            ks.append(k)
            objs.append(obj)
    start = len(ks) - max(1, int(round(tail_fraction * len(ks))))
    floor = 100.0 * np.finfo(float).eps * abs(opt)
    xs, ys = [], []
    for k, o in zip(ks[start:], objs[start:]):
        resid = o - opt
        if resid > floor and resid > 0.0:
            xs.append(math.log(k))
            ys.append(math.log(resid))
    return xs, ys


def window_check_by_mask(check, problem, trace):
    """(passed, measured) of a bound-domination, lower-bound or
    non-convergence-margin check, its rows picked by a boolean mask over the
    k column 0..K-1, and the (k, bound) window a bound check exports."""
    ks = np.arange(len(trace.rows))
    objs = trace.objs
    if check.kind == "bound-domination":
        mask = ks >= check.k_min
        if not mask.any():
            return False, f"no row has k >= {check.k_min}", None
        opt = check.optimum(problem)
        bound = check.bound.resolve(problem, trace, opt)
        bvals = bound.curve(ks[mask])
        excess = (objs[mask] - opt) - (bvals * (1.0 + check.tol_rel) + check.tol_add)
        worst = float(excess.max())
        worst_k = int(ks[mask][np.argmax(excess)])
        return (worst <= 0.0, f"max excess over bound {worst:.6g} at k={worst_k}",
                (ks[mask], bvals))
    opt = check.optimum(problem)
    mask = (ks >= check.k_min) & (ks <= check.k_max)
    if int(mask.sum()) < check.k_max - check.k_min + 1:  # a part of the range
        return False, f"trace covers {int(mask.sum())} of the k range", None
    if check.kind == "lower-bound":
        slack = (objs[mask] - opt) - (check.coeff / (ks[mask] + check.offset) - check.tol)
        worst = float(slack.min())
        worst_k = int(ks[mask][np.argmin(slack)])
        return worst >= 0.0, f"min slack above floor {worst:.6g} at k={worst_k}", None
    measured = float((objs[mask] - opt).min())
    return measured >= check.margin, f"min suboptimality over k range {measured:.6g}", None
