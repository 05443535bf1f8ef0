import numpy as np
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def fd_grad(f, x, h=1e-6):
    """Central finite-difference gradient, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def small_sets():
    """One instance of every feasible-set kind, low-dimensional."""
    from fwlab import Box, L1Ball, L2Ball, Simplex, VertexPolytope

    return [
        Simplex(3),
        L1Ball(3, 1.5),
        L2Ball(3, 2.0),
        Box(3, np.array([-1.0, 0.0, -2.0]), np.array([1.0, 2.0, 0.5])),
        VertexPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])),
    ]


def projectable_sets():
    """The set kinds whose Euclidean projection is implemented."""
    return [s for s in small_sets() if type(s).__name__ != "VertexPolytope"]


def replay_iterates(problem, x0, trace):
    """The iterates x_0, x_1, ... behind a projection-free trace, one per row.

    Trace rows keep no iterates, so this rebuilds them from the gamma column:
    x <- x + gamma_k * (x_bar_k - x) for every row but the last, with x_bar_k
    from the same gap oracle the solver calls. The replay must land on the
    reported final point bitwise.
    """
    from fwlab import fw_gap

    x = np.array(x0, dtype=float)
    iterates = [x]
    for rec in trace.iterations[:-1]:
        x = x + rec.gamma * (fw_gap(problem, x)[1] - x)
        iterates.append(x)
    assert np.array_equal(x, trace.termination.final_x)
    return iterates
