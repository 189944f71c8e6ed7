"""Closed-form heat kernel of one activation star, and its expectation over
the star's uniform m-subsets of neighbors.

Everything here is exact scalar arithmetic on a handful of exponentials,
with no series truncation anywhere. The per-center conditional expectation
averages the star kernel over all uniform m-subsets analytically, using the
subset inclusion probabilities m/(n-1) for one node and m(m-1)/((n-1)(n-2))
for a pair; the bounds read only its four distinct entries.
"""

import math

import numpy as np

from .adn_model import ModelParams
from .graph_core import StarSpec


def star_kernel_scalars(m: int, t: float) -> tuple:
    """(center, edge, y, w): the entries of e**(-t*L) for a star Laplacian
    with m spokes.

    With x = exp(-(m+1)t) and y = exp(-t): the center diagonal is
    (m*x + 1)/(m+1), each center-neighbor entry edge = (1 - x)/(m+1), the
    neighbor block y*I + w*J with w = (m + x - (m+1)*y)/(m*(m+1)), and
    untouched nodes are exactly identity.
    """
    x = math.exp(-(m + 1) * t)
    y = math.exp(-t)
    center = (m * x + 1.0) / (m + 1)
    edge = (1.0 - x) / (m + 1)
    w = (m + x - (m + 1) * y) / (m * (m + 1))
    return center, edge, y, w


def star_exponential(spec: StarSpec, t: float) -> np.ndarray:
    """e**(-t*L) for a star Laplacian, assembled from ``star_kernel_scalars``."""
    if not (t >= 0.0) or not math.isfinite(t):
        raise ValueError(f"time must be >= 0, got {t}")
    center, edge, y, w = star_kernel_scalars(spec.m, t)
    E = np.eye(spec.n)
    c, idx = spec.center - 1, np.array(spec.neighbors) - 1
    E[c, c] = center
    E[c, idx] = E[idx, c] = edge
    E[np.ix_(idx, idx)] = w
    E[idx, idx] += y
    return E


def activation_entries(p: ModelParams) -> tuple:
    """The four distinct entries of every ``activation_expectation``: each
    entry of the star kernel (``star_kernel_scalars`` at T = 2*dt) weighted
    by the chance that the subset holds its nodes, q1 = m/(n-1) for one
    node and q2 = m(m-1)/((n-1)(n-2)) for a pair:
      dc    diag at the center     center
      do    diag elsewhere         1 + q1*(y + w - 1)
      edge  center row/column      q1*edge
      pair  remaining off-diagonal q2*w
    """
    n, m = p.n, p.m
    center, edge, y, w = star_kernel_scalars(m, 2.0 * p.dt)
    q1 = m / (n - 1)
    q2 = m * (m - 1) / ((n - 1) * (n - 2)) if m > 1 else 0.0  # m > 1 means n > 2
    return center, 1.0 + q1 * (y + w - 1.0), q1 * edge, q2 * w


def activation_expectation(p: ModelParams, center: int) -> np.ndarray:
    """Expected heat kernel over 2*dt of a single activation at ``center``,
    averaged over all uniform m-subsets of neighbors (``activation_entries``).
    Each such matrix is symmetric, entrywise nonnegative and doubly
    stochastic."""
    if not (1 <= center <= p.n):
        raise ValueError(f"center {center} outside 1..{p.n}")
    dc, do, edge, pair = activation_entries(p)
    M = np.full((p.n, p.n), pair)
    np.fill_diagonal(M, do)
    c = center - 1
    M[c, :] = M[:, c] = edge
    M[c, c] = dc
    return M
