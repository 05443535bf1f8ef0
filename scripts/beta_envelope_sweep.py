"""Sweep the stepsize recursion beta_{k+1} = (1-gamma_k) beta_k + gamma_k^sigma
against the claimed envelope sigma^sigma / k^(sigma-1).

For any schedule behaving like gamma_k ~ a/k the scaled sequence
beta_k * k^(sigma-1) converges to a^sigma / (a - sigma + 1) when a > sigma - 1
and diverges otherwise. That limit is minimized exactly at a = sigma, where it
equals sigma^sigma. So the envelope holds only for the order-matched schedule
Harmonic(sigma), gamma_k = sigma/(k+sigma), and direct simulation below
confirms it: the matched rows stay below 1 and every mismatched (order,
schedule) pair crosses the envelope at a finite k. Acceptance criterion 07
asserts both halves.

Writes ratio curves (beta_k * k^(sigma-1) / sigma^sigma per combination) to a
CSV for plotting.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fwlab import DHRecursion, Harmonic, beta_recursion  # noqa: E402


def predicted_limit_ratio(a: float, sigma: float) -> float:
    """Limit of beta_k * k^(sigma-1) / sigma^sigma for gamma_k ~ a/k."""
    if a <= sigma - 1.0:
        return float("inf")
    return a**sigma / (a - sigma + 1.0) / sigma**sigma


def schedule_rate(rule) -> float:
    # both families decay like a/k: Harmonic(c) with a = c, the rational
    # recursion with a = 1 for every starting value
    return rule.c if isinstance(rule, Harmonic) else 1.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--horizon", type=int, default=100_000,
                        help="recursion length K (default: %(default)s)")
    parser.add_argument("--out", default="fwlab-out/beta_sweep.csv",
                        help="CSV of ratio curves (default: %(default)s)")
    parser.add_argument("--sigmas", type=float, nargs="+",
                        default=[1.1, 1.25, 1.5, 1.75, 2.0])
    args = parser.parse_args()

    rules = [Harmonic(2.0), Harmonic(3.0), DHRecursion(1.0), DHRecursion(0.5)]
    combos = [(sigma, rule) for sigma in args.sigmas
              for rule in dict.fromkeys([Harmonic(sigma), *rules])]

    header = (f"{'sigma':>5}  {'schedule':<18}  {'predicted limit':>15}  "
              f"{'holds':>5}  {'first violation':>15}  {'max ratio':>10}")
    print(header)
    print("-" * len(header))

    curves = {}
    ks = np.arange(1, args.horizon + 1, dtype=float)
    for sigma, rule in combos:
        desc = rule.descriptor()
        label = f"{desc['kind']}({desc.get('c', desc.get('gamma0'))})"
        limit = predicted_limit_ratio(schedule_rate(rule), sigma)
        betas = beta_recursion(rule, sigma, K=args.horizon)
        ratio = betas[1:] * ks ** (sigma - 1.0) / sigma**sigma
        curves[f"ratio_{label}_s{sigma}"] = ratio
        # the envelope holds where the ratio stays at or below 1
        over = np.flatnonzero(ratio > 1.0)
        holds = over.size == 0
        first = "-" if holds else int(over[0]) + 1
        print(f"{sigma:>5}  {label:<18}  {limit:>15.6g}  "
              f"{str(holds):>5}  {str(first):>15}  {float(ratio.max()):>10.6g}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    names = sorted(curves)
    # k column is log-thinned; the interesting crossings happen early
    keep = np.unique(np.geomspace(1, args.horizon, 2000).astype(int))
    with open(out, "w") as fh:
        fh.write("k," + ",".join(names) + "\n")
        for k in keep:
            row = [str(k)] + ["%.17g" % curves[n][k - 1] for n in names]
            fh.write(",".join(row) + "\n")
    print(f"\nratio curves written to {out}")

    print("\nreading the table: 'predicted limit' > 1 means the envelope must "
          "fail at some finite k;\nonly schedules matching the order "
          "(harmonic constant = sigma) have limit 1 and approach it from below.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
