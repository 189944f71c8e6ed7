"""Second-largest eigenvalues, the non-consensus probability bound, and the
certified decay-rate bounds for the sparse and fast-switching regimes.
"""

from dataclasses import dataclass

import numpy as np

from .adn_model import UNIFORM_TIE_BREAK, ModelParams, TieBreakRule, center_sets
from .closed_form import activation_expectation
from .graph_core import symmetrize


@dataclass(frozen=True)
class DecayBound:
    """A certified geometric decay rate: 1 - weight_sum + lambda_second."""

    rate: float
    kind: str
    lambda_second: float
    weight_sum: float


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
    positive semidefinite on its complement.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if n < 2:
        raise ValueError("second-largest eigenvalue needs n >= 2")
    P = np.eye(n) - np.full((n, n), 1.0 / n)
    w = np.linalg.eigvalsh(symmetrize(P @ M @ P))
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
    """PMF of the number of successes among independent Bernoulli trials,
    by the standard O(n^2) convolution recurrence."""
    probs = np.asarray(probs, dtype=np.float64)
    pmf = np.zeros(len(probs) + 1)
    pmf[0] = 1.0
    for q in probs:
        pmf[1:] = pmf[1:] * (1.0 - q) + pmf[:-1] * q
        pmf[0] *= 1.0 - q
    return pmf


def survivor_rates(p: ModelParams, rule: TieBreakRule) -> np.ndarray:
    """Per-node probability of ending up the sole surviving activated node
    in one fast-switching step.

    Uniform rule: a node survives its own activation with probability
    1/(1 + number of co-activated nodes), so its rate is the activity rate
    times the mean reciprocal, taken against the Poisson-binomial count of
    the others via the convolution recurrence; this stays polynomial at any
    n. Table rule: ``enumerated_survivor_rates``.
    """
    if rule.mode == "uniform":
        a = np.asarray(p.a)
        b = np.empty(p.n)
        ks = np.arange(p.n, dtype=np.float64)
        for i in range(p.n):
            pmf = poisson_binomial_pmf(np.delete(a, i))
            b[i] = a[i] * float(np.sum(pmf / (ks + 1.0)))
        return b
    return enumerated_survivor_rates(p, rule)


def enumerated_survivor_rates(p: ModelParams, rule: TieBreakRule) -> np.ndarray:
    """Survivor rates as the per-node marginals of the fast-switching centre
    law (all 2**n activation sets), under any tie-break rule; refused above n = 20."""
    if p.n > 20:
        raise ValueError(f"survivor-rate enumeration is 2**n; refused for n={p.n} > 20")
    b = np.zeros(p.n)
    for centres, prob in center_sets(p, "fastswitch", rule):
        if centres:
            b[centres[0] - 1] += prob
    return b


def _deflated_bound(p: ModelParams, weights, kind: str) -> DecayBound:
    w = np.asarray(weights, dtype=np.float64)
    S = np.zeros((p.n, p.n))
    for i in range(p.n):
        S += w[i] * activation_expectation(p, i + 1)
    lam = lambda_second_deflated(S)
    total = float(w.sum())
    return DecayBound(rate=1.0 - total + lam, kind=kind, lambda_second=lam, weight_sum=total)


def gamma_sp(p: ModelParams) -> DecayBound:
    """Decay-rate bound for the sparse variant:
    1 - sum(a) + lambda_second(sum_i a_i * activation_expectation(i))."""
    p.require_sparse()
    return _deflated_bound(p, p.a, "sparse")


def gamma_fs(p: ModelParams, rule: TieBreakRule = UNIFORM_TIE_BREAK) -> DecayBound:
    """Decay-rate bound for the fast-switching regime, built on the
    survivor rates. Meaningful when the sampling period is small."""
    b = survivor_rates(p, rule)
    return _deflated_bound(p, b, "fastswitch")
