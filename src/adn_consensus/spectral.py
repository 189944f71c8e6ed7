"""The activation-kernel mixtures behind the expected heat kernels,
second-largest eigenvalues, the non-consensus probability bound, and the
certified decay-rate bounds for the sparse and fast-switching regimes.
"""

from dataclasses import dataclass

import numpy as np

from .adn_model import FastSwitch, ModelParams, Sparse
from .closed_form import activation_expectation
from .graph_core import symmetrize


@dataclass(frozen=True)
class DecayBound:
    """A certified geometric decay rate: 1 - weight_sum + lambda_second."""

    rate: float
    kind: str
    lambda_second: float
    weight_sum: float


def _kernel_entries(p: ModelParams) -> tuple:
    """(dc, do, edge, pair): the centre diagonal, the other diagonal, the
    centre row and the remaining off-diagonal entry of the centre-1
    activation kernel, as floats. pair is 0 at n = 2, which has no pair
    off the centre."""
    K = activation_expectation(p, 1)
    pair = float(K[1, 2]) if p.n > 2 else 0.0
    return float(K[0, 0]), float(K[1, 1]), float(K[0, 1]), pair


def _activation_mixture(p: ModelParams, w: np.ndarray) -> np.ndarray:
    """S = sum_i w_i * activation_expectation(p, i): the matrix of
    ``dense_bound`` and, shifted by (1 - sum(w)) * I, of both expected
    kernels.

    Each activation kernel is the centre-1 kernel with nodes 1 and i
    swapped, so one kernel's four distinct entries give S in O(n^2): with
    W = sum(w), S[j, j] = w_j * dc + (W - w_j) * do and, off the diagonal,
    S[j, k] = (w_j + w_k) * edge + (W - w_j - w_k) * pair.
    """
    dc, do, edge, pair = _kernel_entries(p)
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


def lambda_second_deflated(M: np.ndarray) -> float:
    """Second-largest eigenvalue of M, assuming the all-ones vector carries
    the largest one.

    Projects the consensus direction out (largest eigenvalue of P M P with
    P the off-consensus projection), which sidesteps any ordering ambiguity
    when the spectrum crowds the top. Only valid for matrices, like the
    expected heat kernels here, that fix the all-ones vector and are
    positive semidefinite on its complement. P M P is formed in O(n^2) as
    M minus its row means and its column means plus its grand mean; the
    one eigen-solve is O(n^3). The bounds use it only through
    ``dense_bound``, their reference.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if n < 2:
        raise ValueError("second-largest eigenvalue needs n >= 2")
    rows = M.mean(axis=1)
    PMP = M - rows[:, None]
    PMP -= M.mean(axis=0)
    PMP += rows.mean()
    w = np.linalg.eigvalsh(symmetrize(PMP))
    return float(w[-1])


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


def poisson_binomial_pmf(probs) -> np.ndarray:
    """PMF of the number of successes among independent Bernoulli trials
    with the rates of the vector ``probs``, by the standard O(n^2)
    convolution recurrence. Step k updates counts 0..k+1 only; the higher
    ones are still 0."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError(f"need one vector of rates, got shape {probs.shape}")
    pmf = np.zeros(len(probs) + 1)
    pmf[0] = 1.0
    for k, q in enumerate(probs):
        pmf[1 : k + 2] = pmf[1 : k + 2] * (1.0 - q) + pmf[: k + 1] * q
        pmf[0] *= 1.0 - q
    return pmf


def _removed_trial_means(pmf: np.ndarray, q: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] * L[k] for each rate in q, where L is ``pmf`` with
    one Bernoulli(q) trial taken out: pmf[k] = (1 - q) L[k] + q L[k-1].

    Peels L off from count 0 upward, one (len(q),) step per count; each
    step scales the error it carries by q / (1 - q), at most 1 for q <= 1/2.
    """
    s = 1.0 / (1.0 - q)
    r = q * s
    L = np.zeros_like(q)
    total = np.zeros_like(q)
    for k in range(len(pmf) - 1):
        L = pmf[k] * s - r * L
        total += weights[k] * L
    return total


def survivor_rates(p: ModelParams) -> np.ndarray:
    """Per-node probability of ending up the sole surviving activated node
    in one fast-switching step, under the tie-break rule ``p.rule``.

    Uniform rule: a node survives its own activation with probability
    1/(1 + number of co-activated nodes), so its rate is the activity rate
    times the mean reciprocal, taken against the Poisson-binomial count of
    the others. One recurrence gives the PMF of all n counts; each node's
    leave-one-out PMF comes out of it by deconvolution, forward for a rate
    <= 1/2 and, for a larger rate, backward (forward on the mirrored counts
    n - k, whose trial rates are 1 - a). O(n^2) flops in O(n) memory.
    Table rule: ``enumerated_survivor_rates``.
    """
    if p.rule.table is not None:
        return enumerated_survivor_rates(p)
    a = np.asarray(p.a, dtype=np.float64)
    pmf = poisson_binomial_pmf(a)
    recip = 1.0 / np.arange(1.0, p.n + 1.0)  # 1 / (1 + co-activated count)
    low = a <= 0.5
    mean_recip = np.empty(p.n)
    if low.any():
        mean_recip[low] = _removed_trial_means(pmf, a[low], recip)
    if not low.all():
        mean_recip[~low] = _removed_trial_means(pmf[::-1], 1.0 - a[~low], recip[::-1])
    return a * mean_recip


def enumerated_survivor_rates(p: ModelParams) -> np.ndarray:
    """Survivor rates as the per-node marginals of ``FastSwitch``'s centre
    law (all 2**n activation sets), under any tie-break rule; refused above n = 20."""
    if p.n > 20:
        raise ValueError(f"tie_break: survivor-rate enumeration is 2**n; refused for n={p.n} > 20")
    b = np.zeros(p.n)
    for centres, prob in FastSwitch(p).law():
        if centres:
            b[centres[0] - 1] += prob
    return b


def _top_projected_diagonal(w: np.ndarray) -> float:
    """Largest eigenvalue of P diag(w) P on the complement of the all-ones
    vector, P the off-consensus projection, in O(n) per bisection step.

    A value shared by c >= 2 nodes is an eigenvalue (c - 1 times); every
    other eigenvalue x solves the secular equation sum_k c_k / (v_k - x) = 0
    over the distinct values v_k and their counts c_k, one root strictly
    between each two neighbouring v_k (Golub, SIAM Rev. 1973). So the
    largest is the top value when it is shared and otherwise the root above
    the second value, which bisection finds down to adjacent floats: the
    secular function increases from -inf to +inf across that gap.
    """
    v, c = np.unique(w, return_counts=True)
    if c[-1] >= 2:
        return float(v[-1])
    lo, hi = float(v[-2]), float(v[-1])
    mid = lo + (hi - lo) / 2
    # Only a gap narrower than about n * 1e-308 overflows the terms next to
    # both ends (a sum of nan); any point of it is then as good as the root.
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < mid < hi:
            if np.sum(c / (v - mid)) > 0:
                hi = mid
            else:
                lo = mid
            mid = lo + (hi - lo) / 2
    return mid


def decay_bound(p: ModelParams, weights, kind: str) -> DecayBound:
    """The bound 1 - W + lambda_second of ``dense_bound``, with W = sum(w),
    without the n x n mixture S, for activation-kernel weights w of a
    variant named ``kind``: ``Variant.bound()`` on its ``weights()``.

    S = W*pair*J + (edge - pair)*(w 1' + 1 w') + W*(do - pair)*I + xi*diag(w)
    with xi = dc - do - 2*(edge - pair), so on the complement of the
    all-ones vector it is W*(do - pair) plus xi times P diag(w) P, whose
    top (xi > 0) or bottom (xi < 0) eigenvalue is the one needed.
    """
    w = np.asarray(weights, dtype=np.float64)
    dc, do, edge, pair = _kernel_entries(p)
    total = float(w.sum())
    xi = dc - do - 2.0 * (edge - pair)
    lam = total * (do - pair)
    if xi > 0:
        lam += xi * _top_projected_diagonal(w)
    elif xi < 0:
        lam -= xi * _top_projected_diagonal(-w)
    return DecayBound(rate=1.0 - total + lam, kind=kind, lambda_second=lam, weight_sum=total)


def dense_bound(p: ModelParams, weights, kind: str) -> DecayBound:
    """The reference for ``decay_bound``: the same bound from the dense
    mixture S and one O(n^3) eigen-solve. Validate's checks 2 and 3 gate
    the closed form against it on the same weights."""
    w = np.asarray(weights, dtype=np.float64)
    lam = lambda_second_deflated(_activation_mixture(p, w))
    total = float(w.sum())
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
