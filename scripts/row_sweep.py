"""Time the solve row over set kind x dimension x stepsize rule.

    python3 scripts/row_sweep.py [--n 10 1000 10000 100000] [--rows 200]
                                 [--repeats 3]

Each run solves one seeded quadratic 0.5*||x - b||^2, b standard normal, on a
simplex, an L1 ball, an L2 ball or a box of dimension n, under the open-loop
`harmonic` rule and under `line_search`, for a budget of --rows rows through
fwlab.solver.solve (no gap stop; a run that reaches an exact fixed point
stops early and reports the rows it ran). Every run starts at the set's
oracle answer for the all-ones cost, a feasible point of every kind.

Prints one JSON object. Each entry of "runs" holds the set kind, n, the rule,
the rows run, the median microseconds per row over --repeats timed solves,
the tracemalloc peak of one more solve above the memory in use before it,
and the sha256 of the trace's CSV. Equal hashes on two commits mean equal
traces byte for byte.
"""
import os

# one BLAS thread, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fwlab import (  # noqa: E402
    Box,
    Harmonic,
    L1Ball,
    L2Ball,
    LineSearch,
    Problem,
    Quadratic,
    Simplex,
    StopRule,
    solve,
    trace_to_csv,
)

KINDS = ("simplex", "l1_ball", "l2_ball", "box")
RULES = {"harmonic": Harmonic(2.0), "line_search": LineSearch(1e-10, 200)}
SEED = 0  # of b and of the box sides


def make_set(kind: str, n: int, rng: np.random.Generator):
    if kind == "simplex":
        return Simplex(n)
    if kind == "l1_ball":
        return L1Ball(n, 1.0)
    if kind == "l2_ball":
        return L2Ball(n, 1.0)
    half = rng.uniform(0.5, 1.5, n)
    return Box(n, -half, half)


def sweep_one(kind: str, n: int, rule_name: str, rows: int, repeats: int) -> dict:
    rng = np.random.default_rng([SEED, KINDS.index(kind), n])
    fs = make_set(kind, n, rng)
    problem = Problem(fs, Quadratic(rng.standard_normal(n)))
    x0 = fs.lmo(np.ones(n))
    stop = StopRule(max_iter=rows - 1)  # rows 0..max_iter
    rule = RULES[rule_name]

    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        trace = solve(problem, rule, x0, stop)
        seconds.append(time.perf_counter() - t0)
    ran = len(trace.rows)

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    solve(problem, rule, x0, stop)
    peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()

    return {
        "set": kind, "n": n, "rule": rule_name, "rows": ran,
        "us_per_row": statistics.median(seconds) / ran * 1e6,
        "peak_mb": peak / 1e6,
        "trace_sha256": hashlib.sha256(trace_to_csv(trace).encode()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[10, 1000, 10_000, 100_000],
                        help="dimensions (default: %(default)s)")
    parser.add_argument("--rows", type=int, default=200,
                        help="row budget per solve (default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed solves per run (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.rows < 2 or args.repeats < 1 or min(args.n) < 1:
        parser.error("--rows must be >= 2, --repeats >= 1 and every --n >= 1")

    runs = [sweep_one(kind, n, rule_name, args.rows, args.repeats)
            for n in args.n for kind in KINDS for rule_name in RULES]
    print(json.dumps({
        "rows": args.rows, "repeats": args.repeats, "seed": SEED,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "processor": platform.processor() or platform.machine()},
        "runs": runs,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
