"""Closed-form heat kernels of activation stars and their expectations.

Everything here is exact scalar arithmetic on a handful of exponentials,
with no series truncation anywhere. The per-center conditional expectation
averages the star kernel over all uniform m-subsets analytically, using the
subset inclusion probabilities m/(n-1) for one node and m(m-1)/((n-1)(n-2))
for a pair.
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
    c = spec.center - 1
    E[c, c] = center
    for j in spec.neighbors:
        E[c, j - 1] = edge
        E[j - 1, c] = edge
        for l in spec.neighbors:
            E[j - 1, l - 1] = w + (y if j == l else 0.0)
    return E


def activation_expectation(p: ModelParams, center: int) -> np.ndarray:
    """Expected heat kernel over 2*dt of a single activation at ``center``,
    averaged over all uniform m-subsets of neighbors.

    Each entry of the star kernel (``star_kernel_scalars`` at T = 2*dt) is
    weighted by the chance that the subset holds its nodes, q1 = m/(n-1)
    for one node and q2 = m(m-1)/((n-1)(n-2)) for a pair:
      diag at the center     center
      diag elsewhere         1 + q1*(y + w - 1)
      center row/column      q1*edge
      remaining off-diagonal q2*w
    Each such matrix is symmetric, entrywise nonnegative and doubly
    stochastic.
    """
    if not (1 <= center <= p.n):
        raise ValueError(f"center {center} outside 1..{p.n}")
    n, m = p.n, p.m
    diag_center, edge, y, w = star_kernel_scalars(m, 2.0 * p.dt)
    q1 = m / (n - 1)
    q2 = m * (m - 1) / ((n - 1) * (n - 2)) if m > 1 else 0.0  # m > 1 means n > 2
    M = np.full((n, n), q2 * w)
    np.fill_diagonal(M, 1.0 + q1 * (y + w - 1.0))
    c = center - 1
    M[c, :] = M[:, c] = q1 * edge
    M[c, c] = diag_center
    return M


def weighted_expected_exponential(p: ModelParams, weights) -> np.ndarray:
    """(1 - sum(w)) * I + sum_i w_i * activation_expectation(p, i).

    Shared kernel for the sparse variant (w = activity rates) and the
    fast-switching variant (w = survivor rates).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (p.n,):
        raise ValueError(f"weight vector has shape {w.shape}, expected ({p.n},)")
    if (w < 0).any():
        raise ValueError("weights must be >= 0")
    total = float(w.sum())
    if total > 1.0 + 1e-12:
        raise ValueError(f"weights sum to {total}, must be <= 1")
    E = (1.0 - total) * np.eye(p.n)
    for i in range(p.n):
        E += w[i] * activation_expectation(p, i + 1)
    return E


def sparse_expected_exponential(p: ModelParams) -> np.ndarray:
    """Expected heat kernel over 2*dt of one sparse-variant snapshot."""
    p.require_sparse()
    return weighted_expected_exponential(p, p.a)
