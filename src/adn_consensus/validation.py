"""Brute-force enumeration oracles for the expected heat kernels, and the
numerical probe of the fast-switching eigenvalue inequality.

Enumeration is exact or refused: every reachable snapshot configuration is
visited with its true probability (activation pattern times uniform subset
choice), with no sampling anywhere. Configurations stream out one at a
time; only the list of each centre's stars is held.
"""

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .adn_model import (
    ModelParams,
    Snapshot,
    TieBreakRule,
    UNIFORM_TIE_BREAK,
    center_sets,
    center_stars,
    snapshot_count,
    snapshot_laplacian,
)
from .graph_core import expm_sym
from .spectral import lambda_second_largest

MAX_BRANCHES = 10**7
# Floating-point floor below zero that a sample's eigenvalue gap may reach
# and still hold.
GAP_SLACK = 1e-9


def enumeration_size(
    p: ModelParams, model: str, rule: TieBreakRule = UNIFORM_TIE_BREAK
) -> int:
    """Exact number of weighted configurations enumeration would visit, the
    sum of C(n-1, m)**len(centres) over ``center_sets``: counted off that law
    under a table rule, and in closed form otherwise, so as to refuse at once."""
    C = math.comb(p.n - 1, p.m)
    if model == "sparse":
        return 1 + p.n * C
    if model == "full":
        return snapshot_count(p.n, p.m)
    if model == "fastswitch" and rule.table is not None:
        return sum(C ** len(centres) for centres, _ in center_sets(p, model, rule))
    if model == "fastswitch":
        return 1 + p.n * 2 ** (p.n - 1) * C
    raise ValueError(f"unknown model tag {model!r}")


def _require_enumerable(p: ModelParams, model: str, rule: TieBreakRule):
    size = enumeration_size(p, model, rule)
    if size > MAX_BRANCHES:
        raise ValueError(
            f"enumeration for model={model!r} needs {size} branches, "
            f"over the {MAX_BRANCHES} limit"
        )


def _enumerate_branches(p: ModelParams, model: str, rule: TieBreakRule):
    """Yield (probability, snapshot) over every reachable configuration: each
    centre tuple of ``center_sets`` times one of ``center_stars`` per centre."""
    stars = center_stars(p)
    for centres, prob in center_sets(p, model, rule):
        w = prob / len(stars[0]) ** len(centres)
        for choice in product(*(stars[i - 1] for i in centres)):
            yield w, Snapshot(p.n, choice)


def enumerate_expected_exponential(
    p: ModelParams, model: str, rule: TieBreakRule = UNIFORM_TIE_BREAK
) -> np.ndarray:
    """Exact E[e**(-2*dt*L)] as the probability-weighted sum of dense
    exponentials over every configuration. Refuses oversized enumerations."""
    _require_enumerable(p, model, rule)
    T = 2.0 * p.dt
    acc = np.zeros((p.n, p.n))
    total = 0.0
    for prob, snap in _enumerate_branches(p, model, rule):
        acc += prob * expm_sym(snapshot_laplacian(snap), T)
        total += prob
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"enumeration probabilities sum to {total}, drifted from 1")
    return acc


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


def verify_fast_switch_inequality(p: ModelParams, rule: TieBreakRule, T_grid) -> FastSwitchReport:
    """Probe, by exact enumeration at each exponent scale T in the grid,
    whether the full model's second-largest expected-kernel eigenvalue
    stays below the fast-switching variant's.

    ``holds`` allows a floating-point floor of ``GAP_SLACK`` below zero on
    the gap. Violations at large T are expected and merely reported; the
    smallest violating T, if any, is singled out.
    """
    # Both sizes are checked before either enumeration starts, since either
    # can be the larger one (the fastswitch count when m = n-1).
    for model in ("full", "fastswitch"):
        _require_enumerable(p, model, rule)
    samples = []
    for T in T_grid:
        if not (T > 0):
            raise ValueError(f"exponent scales must be > 0, got {T}")
        pT = replace(p, dt=T / 2.0)
        lam_full = lambda_second_largest(enumerate_expected_exponential(pT, "full", rule))
        lam_fs = lambda_second_largest(
            enumerate_expected_exponential(pT, "fastswitch", rule)
        )
        gap = lam_fs - lam_full
        samples.append(GapSample(float(T), lam_full, lam_fs, gap, gap >= -GAP_SLACK))
    violations = [s.T for s in samples if not s.holds]
    return FastSwitchReport(
        samples=tuple(samples),
        holds_all=not violations,
        first_violation=min(violations) if violations else None,
    )
