"""The activation-kernel mixtures behind the expected heat kernels,
second-largest eigenvalues, the non-consensus probability bound, and the
certified decay-rate bounds for the sparse and fast-switching regimes, which
take O(n) time and memory.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .adn_model import FastSwitch, ModelParams, Sparse
from .closed_form import activation_entries
from .graph_core import STACK_BYTES

@dataclass(frozen=True)
class DecayBound:
    """A certified geometric decay rate: 1 - weight_sum + lambda_second."""

    rate: float
    kind: str
    lambda_second: float
    weight_sum: float


def _activation_mixture(p: ModelParams, w: np.ndarray) -> np.ndarray:
    """S = sum_i w_i * activation_expectation(p, i), the matrix of both
    expected kernels once shifted by (1 - sum(w)) * I.

    Every activation kernel has the same four distinct entries
    (``activation_entries``), so S is O(n^2): with W = sum(w),
    S[j, j] = w_j * dc + (W - w_j) * do and, off the diagonal,
    S[j, k] = (w_j + w_k) * edge + (W - w_j - w_k) * pair.
    """
    dc, do, edge, pair = activation_entries(p)
    W = w.sum()
    ends = w[:, None] + w
    S = ends * edge + (W - ends) * pair
    np.fill_diagonal(S, w * dc + (W - w) * do)
    return S


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
    return (1.0 - total) * np.eye(p.n) + _activation_mixture(p, w)


def sparse_expected_exponential(p: ModelParams) -> np.ndarray:
    """Expected heat kernel over 2*dt of one sparse-variant snapshot."""
    return weighted_expected_exponential(p, Sparse(p).weights())


def lambda_second_largest(M: np.ndarray) -> float:
    """Second-largest eigenvalue (with multiplicity) of a symmetric matrix."""
    M = np.asarray(M, dtype=np.float64)
    if M.shape[0] < 2:
        raise ValueError("second-largest eigenvalue needs n >= 2")
    w = np.linalg.eigvalsh(M)
    return float(w[-2])


def convergence_bound(pz0_sq: float, eps: float, lam: float, K: int) -> float:
    """Upper bound on P(sup over k >= K of the squared off-consensus norm
    exceeding eps): pz0_sq / eps * lam**K. May exceed 1; it is a bound,
    not a probability."""
    if eps <= 0:
        raise ValueError(f"threshold must be > 0, got {eps}")
    if pz0_sq < 0:
        raise ValueError(f"squared norm must be >= 0, got {pz0_sq}")
    if lam < 0:
        raise ValueError(f"eigenvalue bound must be >= 0, got {lam}")
    if K < 0:
        raise ValueError(f"step index must be >= 0, got {K}")
    return pz0_sq / eps * lam**K


@cache
def _gauss_legendre() -> tuple:
    """The 16 Gauss-Legendre nodes and weights on [0, 1], within a few ulps:
    Newton steps on P_N from the cosine guesses, by its recurrence."""
    N = 16
    x = np.cos(np.pi * (np.arange(N, 0, -1) - 0.25) / (N + 0.5))
    for _ in range(5):
        prev, P = np.ones(N), x
        for k in range(2, N + 1):
            prev, P = P, ((2 * k - 1) * x * P - (k - 1) * prev) / k
        dP = N * (x * P - prev) / (x * x - 1.0)
        x = x - P / dP
    return (x + 1.0) / 2.0, 1.0 / ((1.0 - x * x) * dP * dP)


def survivor_rates(p: ModelParams) -> np.ndarray:
    """Per-node probability of ending up the sole surviving activated node
    in one fast-switching step, under the tie-break rule ``p.rule``.

    Uniform rule: a node survives its own activation with probability
    1/(1 + K), K the number of co-activated nodes, and E[1/(1 + K)] =
    int_0^1 E[u**K] du, so b_i = a_i * int_0^1 F(u) / (1 - a_i u) du with
    F(u) = prod_j (1 - a_j u) ~ exp(-W u), W = sum(a): Gauss-Legendre on
    the panels [0, 2**-J], ..., [1/4, 1/2], [1/2, 1] with 2**-J <= 1/W, log F
    summed in chunks of ``STACK_BYTES``, O(n) time and memory. An integrand
    adds at most exp(-c (W - 1)) past c, and each integral is at least
    (1 - exp(-W)) / (2W); panels past a c where that ratio is 2**-60 are cut.
    Table rule: ``enumerated_survivor_rates``.
    """
    if p.rule.table is not None:
        return enumerated_survivor_rates(p)
    a, W = p.rates, float(p.rates.sum())
    ends = 2.0 ** -np.arange(max(0, math.ceil(math.log2(W))), -1.0, -1.0)
    starts = np.append(0.0, ends[:-1])
    keep = starts * (W - 1.0) < math.log(2.0**62 * max(W, 1.0))
    width = (ends - starts)[keep, None]
    x, w = _gauss_legendre()
    u, weights = (starts[keep, None] + width * x).ravel(), (width * w).ravel()
    rows = max(1, STACK_BYTES // (8 * len(u)))
    chunks = range(0, p.n, rows)
    # log F by chunks, the partial sums then added pairwise, node by node
    parts = [np.log1p(np.multiply.outer(a[lo:lo + rows], -u)).sum(axis=0) for lo in chunks]
    weighted_F = weights * np.exp(np.stack(parts, axis=1).sum(axis=1))
    return a * np.concatenate(
        [1.0 / (1.0 - np.multiply.outer(a[lo:lo + rows], u)) @ weighted_F for lo in chunks]
    )


def enumerated_survivor_rates(p: ModelParams) -> np.ndarray:
    """Survivor rates as the per-node marginals of ``FastSwitch``'s centre
    law (all 2**n activation sets, ``FastSwitch.folded``), under any
    tie-break rule; refused above n = 20."""
    if p.n > 20:
        raise ValueError(f"tie_break: survivor-rate enumeration is 2**n; refused for n={p.n} > 20")
    return FastSwitch(p).folded()[1][1:]


def _top_projected_diagonal(w: np.ndarray) -> float:
    """Largest eigenvalue of P diag(w) P on the complement of the all-ones
    vector, P the off-consensus projection, in a few O(n) steps.

    A value shared by c >= 2 nodes is an eigenvalue; every other one solves
    g(x) = sum_j 1/(w_j - x) = 0, one root between each two neighbouring
    distinct values (Golub, SIAM Rev. 1973). So the largest is the top value
    t if shared, else the root above the next value s, where g rises from
    -inf to +inf. Each step fits g at x by C + S/(s - y) + 1/(t - y) in value
    and slope (Bunch, Nielsen and Sorensen, Numer. Math. 1978) and moves to
    its root, kept in the bracket lo < y < hi, g(lo) <= 0 < g(hi): past x it
    is the float next to x, past the far end the midpoint. It stops once lo
    and hi are adjacent floats.
    """
    top = w.max()
    if np.count_nonzero(w == top) >= 2:
        return float(top)
    rest = w[w != top]
    lo, hi = s, t = float(rest.max()), float(top)
    x = lo + (hi - lo) / 2
    # Only a gap narrower than about n * 1e-308 overflows the terms next to
    # both ends (a sum of nan); midpoint steps then close the bracket.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while np.nextafter(lo, hi) < hi:
            r = 1.0 / (rest - x)
            psi, dpsi, d_s, d_t = r.sum(), r @ r, s - x, t - x
            g = psi + 1.0 / d_t
            lo, hi = (lo, x) if g > 0 else (x, hi)
            # tau = y - x solves C tau**2 - b tau + c = 0, the model at y
            # times (s - y)(t - y); this root lies between s and t
            C, c = psi - dpsi * d_s, d_s * d_t * g
            b = C * (d_s + d_t) + dpsi * d_s * d_s + 1.0
            sq = math.sqrt(max(b * b - 4.0 * C * c, 0.0))
            y = x + (2.0 * c / (b + sq) if b >= 0 else (b - sq) / (2.0 * C))
            if not lo < y < hi:
                past_x = y >= hi if x == hi else y <= lo
                y = np.nextafter(x, lo if x == hi else hi) if past_x else lo + (hi - lo) / 2
            x = float(y)
    return float(lo + (hi - lo) / 2)


def decay_bound(p: ModelParams, weights, kind: str) -> DecayBound:
    """The bound 1 - W + lambda_second, with W = sum(w) and lambda_second
    the largest eigenvalue off the all-ones vector of the mixture S
    (``_activation_mixture``), without forming S, for activation-kernel
    weights w of a variant named ``kind``: ``Variant.bound()`` on its
    ``weights()``. With at most one star a period this is the second
    eigenvalue of the variant's expected kernel.

    S = W*pair*J + (edge - pair)*(w 1' + 1 w') + W*(do - pair)*I + xi*diag(w)
    with xi = dc - do - 2*(edge - pair), so on the complement of the
    all-ones vector it is W*(do - pair) plus xi times P diag(w) P, whose
    top (xi > 0) or bottom (xi < 0) eigenvalue is the one needed: |xi|
    times the top one of P diag(sign(xi) w) P.
    """
    w = np.asarray(weights, dtype=np.float64)
    dc, do, edge, pair = activation_entries(p)
    total = float(w.sum())
    xi = dc - do - 2.0 * (edge - pair)
    lam = total * (do - pair) + abs(xi) * _top_projected_diagonal(np.sign(xi) * w)
    return DecayBound(rate=1.0 - total + lam, kind=kind, lambda_second=lam, weight_sum=total)


def gamma_sp(p: ModelParams) -> DecayBound:
    """Decay-rate bound for the sparse variant:
    1 - sum(a) + lambda_second(sum_i a_i * activation_expectation(i))."""
    return Sparse(p).bound()


def gamma_fs(p: ModelParams) -> DecayBound:
    """Decay-rate bound for the fast-switching variant, built on the
    survivor rates under ``p.rule``: the exact second-largest eigenvalue of
    its expected kernel, since each period holds at most one star."""
    return FastSwitch(p).bound()
