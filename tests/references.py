"""Out-of-place forms of what fwlab computes in place.

The simplex projection behind f* reuses its buffers; this keeps the plain
sort-and-threshold expression it replaced, and tests require the package to
match it bit for bit. Nothing in the package reads it.
"""
import numpy as np


def project_onto_simplex_face(x, total):
    """Euclidean projection onto {z >= 0, sum z = total} by sort and threshold."""
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, x.size + 1)
    rho = int(np.nonzero(u > css / idx)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(x - theta, 0.0)
