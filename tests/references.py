"""Out-of-place and one-shot forms of what fwlab computes in place or in pieces.

The simplex projection behind f* reuses its buffers; this keeps the plain
sort-and-threshold expression it replaced. A schedule is evaluated a block at
a time, the compare CSV is rendered from the trace's row array a chunk at a
time and the rate fit selects its points from the trace's columns; this keeps
the one-shot schedule, the per-cell rendering and the per-row point loop they
replaced. Tests require the package to match each of them bit for bit.
Nothing in the package reads this module.
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
    """The compare CSV built a cell at a time from each trace's records, the
    cells of a trace past its last row left empty."""
    header = ["k"]
    for name in names:
        header.append(f"obj_{name}")
        header.append(f"gap_{name}")
    longest = max(len(t.iterations) for t in traces)
    lines = [",".join(header)]
    for k in range(longest):
        row = [str(k)]
        for t in traces:
            if k < len(t.iterations):
                rec = t.iterations[k]
                row.append("%.17g" % rec.obj)
                row.append("%.17g" % rec.gap)
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
    for r in trace.iterations:
        if r.k >= 1:
            ks.append(r.k)
            objs.append(r.obj)
    start = len(ks) - max(1, int(round(tail_fraction * len(ks))))
    floor = 100.0 * np.finfo(float).eps * abs(opt)
    xs, ys = [], []
    for k, o in zip(ks[start:], objs[start:]):
        resid = o - opt
        if resid > floor and resid > 0.0:
            xs.append(math.log(k))
            ys.append(math.log(resid))
    return xs, ys
