"""Brute-force enumeration oracles for the expected heat kernels, and the
numerical probe of the fast-switching eigenvalue inequality.

Enumeration is exact or refused, with no sampling anywhere. The variant's
law of star centres (``Variant.law``) is folded onto its distinct centre
tuples, then each tuple is expanded, with its true probability, into every
choice of one star per centre (``center_star_table``) by index arithmetic,
in ``product`` order. ``Full`` and ``Sparse`` rows are distinct already;
``FastSwitch`` has a row per (activated set, survivor) but only 1 + n
tuples, so it takes 1 + n*C(n-1, m) dense exponentials under any rule.
Consecutive configurations are built as one Laplacian stack within
``graph_core.STACK_BYTES`` (``star_union_laplacians``), decomposed once for
every exponent scale asked for, and their exponentials added one at a time
in configuration order, so memory stays bounded at any size and each sum is
the one the configurations give one call each.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adn_model import FastSwitch, Full, ModelParams, Variant, center_star_table
from .graph_core import expm_sym, stacks, star_union_laplacians
from .spectral import lambda_second_largest

MAX_BRANCHES = 10**7
# Floating-point floor below zero that a sample's eigenvalue gap may reach
# and still hold.
GAP_SLACK = 1e-9


def _require_enumerable(v: Variant):
    """Refuse, before any work, an enumeration over ``MAX_BRANCHES``."""
    size = v.size()
    if size > MAX_BRANCHES:
        raise ValueError(
            f"enumeration for model={v.name!r} needs {size} branches, "
            f"over the {MAX_BRANCHES} limit"
        )


def _enumerate_branches(v: Variant, copies: int = 1):
    """Yield (weights, centre, nbs) stacks of consecutive configurations,
    each within ``STACK_BYTES`` at ``copies`` n x n matrices a row: the
    variant's ``law`` folded onto its distinct centre tuples, each tuple
    times each choice of one neighbour set per centre from
    ``center_star_table``, in ``product`` order. Row r's stars join
    centre[r, q] to nbs[r, q] (0-based, as ``star_union_laplacians`` reads
    them); a shorter tuple's row starts with node 0 joined to itself, which
    adds no edge."""
    p, law = v.p, {}
    for centres, prob in v.law():
        law[centres] = law.get(centres, 0.0) + prob
    table = center_star_table(p)
    C, width = table.shape[1], max(map(len, law))
    weights = np.array([prob / C ** len(centres) for centres, prob in law.items()])
    lens = np.array([len(centres) for centres in law])
    centre = np.array([[1] * (width - len(cs)) + list(cs) for cs in law], dtype=np.intp) - 1
    real = np.arange(width) >= width - lens[:, None]
    sizes = C**lens
    starts = np.cumsum(sizes) - sizes
    for chunk in stacks(range(sizes.sum()), p.n, copies):
        q = np.arange(chunk[0], chunk[-1] + 1)
        g = np.searchsorted(starts, q, side="right") - 1
        # a tuple's choice, right-aligned: its digits in base C, last fastest
        digit = np.stack(np.unravel_index(q - starts[g], (C,) * width), axis=-1)
        c = centre[g]
        yield weights[g], c, np.where(real[g][..., None], table[c, digit], c[..., None])


def _expected_exponentials(v: Variant, T: np.ndarray):
    """Exact E[e**(-t*L)] for each exponent scale t in T, (len(T), n, n):
    the probability-weighted sum of dense exponentials over every
    configuration, each Laplacian decomposed once for all of T."""
    _require_enumerable(v)
    acc = np.zeros((len(T), v.p.n, v.p.n))
    total = 0.0
    for weights, centre, nbs in _enumerate_branches(v, max(len(T), 1)):
        kernels = expm_sym(star_union_laplacians(v.p.n, centre, nbs), T)
        for i, w in enumerate(weights.tolist()):
            acc += w * kernels[:, i]
            total += w
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"enumeration probabilities sum to {total}, drifted from 1")
    return acc


def enumerate_expected_exponential(v: Variant) -> np.ndarray:
    """Exact E[e**(-2*dt*L)] as the probability-weighted sum of dense
    exponentials over every configuration. Refuses oversized enumerations."""
    return _expected_exponentials(v, np.array([2.0 * v.p.dt]))[0]


@dataclass(frozen=True)
class GapSample:
    T: float
    lambda_full: float
    lambda_fastswitch: float
    gap: float
    holds: bool


@dataclass(frozen=True)
class FastSwitchReport:
    samples: tuple
    holds_all: bool
    first_violation: float | None


def verify_fast_switch_inequality(p: ModelParams, T_grid) -> FastSwitchReport:
    """Probe, by exact enumeration at each exponent scale T in the grid,
    whether the full model's second-largest expected-kernel eigenvalue
    stays below the fast-switching variant's under the rule ``p.rule``.

    ``holds`` allows a floating-point floor of ``GAP_SLACK`` below zero on
    the gap. Violations at large T are expected and merely reported; the
    smallest violating T, if any, is singled out.
    """
    T_grid = tuple(T_grid)
    for T in T_grid:
        if not (0 < T < math.inf):
            raise ValueError(f"exponent scales must be finite and > 0, got {T}")
    # Both sizes are checked before either enumeration starts, since either
    # can be the larger one (the fastswitch count when m = n-1).
    variants = (Full(p), FastSwitch(p))
    for v in variants:
        _require_enumerable(v)
    full, fastswitch = (
        _expected_exponentials(v, np.array(T_grid, dtype=float)) for v in variants
    )
    samples = []
    for T, E_full, E_fs in zip(T_grid, full, fastswitch):
        lam_full = lambda_second_largest(E_full)
        lam_fs = lambda_second_largest(E_fs)
        gap = lam_fs - lam_full
        samples.append(GapSample(float(T), lam_full, lam_fs, gap, gap >= -GAP_SLACK))
    violations = [s.T for s in samples if not s.holds]
    return FastSwitchReport(
        samples=tuple(samples),
        holds_all=not violations,
        first_violation=min(violations) if violations else None,
    )
