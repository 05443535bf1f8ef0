"""Scalar sequence recursions and their closed-form envelopes, simulated.

Criterion 09 and tests/test_analysis.py check the envelopes against these
simulations; nothing in the package reads them.
"""
import math
from dataclasses import dataclass

import numpy as np


def polyak_sequence_bound(alpha0: float, betas, eta: float) -> np.ndarray:
    """Closed-form envelope alpha0 * (1 + eta*alpha0^eta*sum_{i<k} beta_i)^(-1/eta).

    Entry k of the result bounds alpha_k of any nonnegative sequence with
    alpha_{k+1} <= alpha_k - beta_k*alpha_k^(1+eta); entry 0 is alpha0 itself.
    """
    if alpha0 < 0:
        raise ValueError(f"alpha0 must be >= 0, got {alpha0}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    b = np.asarray(betas, dtype=float)
    if np.any(b < 0):
        raise ValueError("betas must be nonnegative")
    if alpha0 == 0.0:
        return np.zeros(b.size + 1)
    csum = np.concatenate(([0.0], np.cumsum(b)))
    return alpha0 * (1.0 + eta * alpha0**eta * csum) ** (-1.0 / eta)


def polyak_recursion(alpha0: float, betas, eta: float) -> np.ndarray:
    """The recursion alpha_{k+1} = alpha_k - beta_k*alpha_k^(1+eta), simulated."""
    if alpha0 < 0:
        raise ValueError(f"alpha0 must be >= 0, got {alpha0}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    out = np.empty(len(betas) + 1)
    a = float(alpha0)
    out[0] = a
    for i, b in enumerate(betas):
        a = a - float(b) * a ** (1.0 + eta)
        out[i + 1] = a
    return out


@dataclass(frozen=True)
class XuReport:
    final_alpha: float
    tail_max: float  # max of alpha over the second half of the horizon
    eta_sum_keeps_growing: bool  # partial sums still increased in the second half


def xu_recursion_check(alpha0: float, etas, epsilons) -> XuReport:
    """Simulate alpha_{k+1} = (1-eta_k)*alpha_k + eta_k*eps_k and summarize.

    Under the driving conditions (eta_k -> 0 with divergent sum, eps_k -> 0)
    the sequence tends to 0; the report carries what a finite horizon can
    honestly say: the final value, the max over the tail half, and whether
    the eta partial sum was still growing late (a constant-zero eta, for
    which the sequence provably stalls, reports False).
    """
    if alpha0 < 0:
        raise ValueError(f"alpha0 must be >= 0, got {alpha0}")
    e = [float(v) for v in etas]
    eps = [float(v) for v in epsilons]
    if len(e) != len(eps):
        raise ValueError(f"etas and epsilons differ in length: {len(e)} vs {len(eps)}")
    if any(not 0.0 <= v <= 1.0 for v in e):
        raise ValueError("etas must lie in [0, 1]")
    if any(v < 0.0 for v in eps):
        raise ValueError("epsilons must be nonnegative")
    K = len(e)
    half = K // 2
    a = float(alpha0)
    tail_max = a if half == 0 else -math.inf
    for k in range(K):
        a = (1.0 - e[k]) * a + e[k] * eps[k]
        if k + 1 >= half and a > tail_max:
            tail_max = a
    second_half_sum = math.fsum(e[half:])
    return XuReport(
        final_alpha=a,
        tail_max=tail_max,
        eta_sum_keeps_growing=second_half_sum > 0.0,
    )
