"""Brute-force enumeration oracles for the expected heat kernels, and the
numerical probe of the fast-switching eigenvalue inequality.

Enumeration is exact or refused, with no sampling anywhere. The variant's
law of star centres folded onto its distinct centre tuples
(``Variant.folded``) is expanded, each tuple with its true probability,
into every choice of one star per centre (``center_star_table``) by index
arithmetic, in ``product`` order. ``Full`` and ``Sparse`` rows are distinct
already; ``FastSwitch`` has a row per (activated set, survivor) but only
1 + n tuples, which it sums as arrays over the activation sets, so it
takes 1 + n*C(n-1, m) dense exponentials under any rule. Consecutive
configurations are built as one Laplacian stack within
``graph_core.STACK_BYTES`` (``star_union_laplacians``). Many share a union
graph (check 5's 256 probe configurations have 51), so each distinct
adjacency of a stack is decomposed once for every exponent scale asked for
and gathered back to its configurations, whose weighted exponentials are
added in configuration order by one reduction a stack: memory stays bounded
at any size and each sum is, bit for bit, the one of adding them one at a time.

``validate(p)`` runs the five checks of ``adn validate`` on a model: each
closed form against its oracle, and each variant's bound against the second
eigenvalue of its enumerated kernel. Checks 1-3 all read the 1 + n*C(n-1, m)
one-star configurations, the empty one and each single star, and share one
pass over them (``_one_star_pass``) that decomposes each Laplacian once.
Check 5 sums the fast-switching kernels from the full model's.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .adn_model import (
    UNIFORM_TIE_BREAK,
    FastSwitch,
    Full,
    ModelParams,
    Sparse,
    Variant,
    center_star_table,
)
from .closed_form import activation_expectation
from .graph_core import expm_sym, stacks, star_union_laplacians
from .spectral import (
    decay_bound,
    enumerated_survivor_rates,
    lambda_second_largest,
    survivor_rates,
    weighted_expected_exponential,
)

MAX_BRANCHES = 10**7
# Checks 1-3 refuse k dense n x n exponentials once k * n**3, about their
# eigen-solves' flops, passes this: busy's check 1, 77,520 kernels at n = 20,
# is 6.2e8 and runs; n = 300, m = 1 would take minutes under a count guard.
WORK_LIMIT = 10**9
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
    """Yield (weights, row, centre, nbs) stacks of consecutive
    configurations, each within ``STACK_BYTES`` at ``copies`` n x n matrices
    a configuration: the variant's ``folded`` law, each centre tuple
    times each choice of one neighbour set per centre from
    ``center_star_table``, in ``product`` order. Configuration r of a
    stack has the stars q with row[q] == r, each joining centre[q] to
    nbs[q] (0-based, the flat form ``star_union_laplacians`` reads)."""
    p, (tuples, probs) = v.p, v.folded()
    table = center_star_table(p)
    lens = np.array([len(centres) for centres in tuples])
    C, width = table.shape[1], int(lens.max())
    sizes = C**lens
    weights = np.asarray(probs) / sizes
    centre = np.array([[1] * (width - len(cs)) + list(cs) for cs in tuples], dtype=np.intp) - 1
    real = np.arange(width) >= width - lens[:, None]
    starts = np.cumsum(sizes) - sizes
    for chunk in stacks(range(sizes.sum()), p.n, copies):
        q = np.arange(chunk[0], chunk[-1] + 1)
        g = np.searchsorted(starts, q, side="right") - 1
        # a tuple's choice, right-aligned: its digits in base C, last fastest
        digit = np.stack(np.unravel_index(q - starts[g], (C,) * width), axis=-1)
        row, col = np.nonzero(real[g])
        c = centre[g[row], col]
        yield weights[g], row, c, table[c, digit[row, col]]


def _kernel_stacks(v: Variant, T: np.ndarray):
    """Yield (weights, row, kernels) a stack of ``_enumerate_branches(v)``:
    its exponentials at each scale t in T, (len(T), k, n, n), each distinct
    union graph of the stack decomposed once for all of T and gathered to
    its configurations, bit for bit as each alone."""
    _require_enumerable(v)
    total = 0.0
    for weights, row, centre, nbs in _enumerate_branches(v, max(len(T), 1)):
        L = star_union_laplacians(k := len(weights), v.p.n, row, centre, nbs)
        key = np.packbits(L.reshape(k, -1) != 0, axis=1)  # the adjacency, as bytes
        key = key.view(f"V{key.shape[1]}")[:, 0]
        _, first, which = np.unique(key, return_index=True, return_inverse=True)
        yield weights, row, expm_sym(L[first], T)[:, which]
        total += float(weights.sum())
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"enumeration probabilities sum to {total}, drifted from 1")


def _add_weighted(acc, kernels, weights) -> np.ndarray:
    """acc plus the weighted kernels, which it overwrites, added in order by
    one ``np.add.reduce``, as if one at a time, bit for bit."""
    kernels *= weights[:, None, None]
    kernels[:, 0] += acc
    return np.add.reduce(kernels, axis=1)


def _expected_exponentials(v: Variant, T: np.ndarray) -> np.ndarray:
    """Exact E[e**(-t*L)] for each exponent scale t in T, (len(T), n, n)."""
    acc = np.zeros((len(T), v.p.n, v.p.n))
    for weights, _, kernels in _kernel_stacks(v, T):
        acc = _add_weighted(acc, kernels, weights)
    return acc


def _one_star_weights(probs, C: int) -> np.ndarray:
    """One-star configurations' weights: a tuple's probability over its C choices."""
    w = np.concatenate([[probs[0]], np.repeat(np.asarray(probs[1:]) / C, C)])
    if abs((total := float(w.sum())) - 1.0) > 1e-9:
        raise RuntimeError(f"enumeration probabilities sum to {total}, drifted from 1")
    return w


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
    _require_enumerable(FastSwitch(p))  # before any enumeration
    # both expected kernels from Full's configurations, bit for bit as each
    # alone: FastSwitch's are those with at most one star, in its order
    full = fs = np.zeros((len(T_grid), p.n, p.n))
    w = _one_star_weights(FastSwitch(p).folded()[1], math.comb(p.n - 1, p.m))
    for weights, row, kernels in _kernel_stacks(Full(p), np.array(T_grid, dtype=float)):
        if len(q := np.flatnonzero(np.bincount(row, minlength=len(weights)) < 2)):
            fs, w = _add_weighted(fs, kernels[:, q], w[: len(q)]), w[len(q):]
        full = _add_weighted(full, kernels, weights)
    if len(w):
        raise RuntimeError(f"{len(w)} one-star configurations not enumerated")
    samples = []
    for T, E_full, E_fs in zip(T_grid, full, fs):
        lam_full, lam_fs = lambda_second_largest(E_full), lambda_second_largest(E_fs)
        gap = lam_fs - lam_full
        samples.append(GapSample(float(T), lam_full, lam_fs, gap, gap >= -GAP_SLACK))
    violations = [s.T for s in samples if not s.holds]
    return FastSwitchReport(tuple(samples), not violations, min(violations, default=None))


def _diff_row(name: str, diffs, tol: float) -> tuple:
    """A check row: the largest entry of the arrays ``diffs`` within ``tol``."""
    d = max(float(np.max(np.abs(x))) for x in diffs)
    return name, f"max diff {d:.3g}, tol {tol:g}", d <= tol


def _one_star_pass(params: ModelParams, probs: list, centre_mean=None) -> list:
    """Decompose each one-star configuration once for every check that reads
    it: the empty one, then each centre's C(n-1, m) stars in
    ``center_star_table`` order, in ``stacks``, one ``expm_sym`` call a
    stack at T = 2*dt. Return, for each folded law's probabilities in
    ``probs`` (over the tuples (), (1,), ..., (n,)), its expected kernel: a
    stack's kernels weighted in a copy, the sum so far added into the first
    and all added in order by one ``np.add.reduce``, bit for bit
    ``enumerate_expected_exponential``. With ``centre_mean``, also call
    centre_mean(i, mean kernel of centre i's stars) for each 0-based centre
    in turn, its kernels added in order by one reduction a stack and the
    sum carried across stack ends. The empty configuration is taken only
    for ``probs``, and nothing at all without either."""
    if not probs and centre_mean is None:
        return []
    n, C = (table := center_star_table(params)).shape[:2]
    weights = [_one_star_weights(pr, C) for pr in probs]
    sums, acc = [0.0] * len(probs), 0.0  # acc: the current centre's sum so far
    for q in stacks(range(0 if probs else 1, 1 + n * C), n):
        q = np.array(q)
        row = np.flatnonzero(q)  # the configurations with a star
        centre, j = np.divmod(q[row] - 1, C)
        L = star_union_laplacians(len(q), n, row, centre, table[centre, j])
        kernels = expm_sym(L, 2.0 * params.dt)
        for k, w in enumerate(weights):
            weighted = kernels * w[q, None, None]
            weighted[0] += sums[k]
            sums[k] = np.add.reduce(weighted, axis=0)
        if centre_mean is None:
            continue
        stars = kernels[len(q) - len(row):]  # added into in place, once weighted
        starts = np.flatnonzero(np.diff(centre, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(row)]):
            stars[lo] += acc
            acc = np.add.reduce(stars[lo:hi], axis=0)
            if j[hi - 1] == C - 1:
                centre_mean(int(centre[lo]), acc / C)
                acc = 0.0
    return sums


def _check_rows(params: ModelParams):
    """Yield validate's checks 1-4 as (name, detail, ok) rows, ok None for
    a refused or skipped check."""
    n, m = params.n, params.m
    C = math.comb(n - 1, m)

    def too_costly(kernels: int) -> str | None:
        if kernels * n**3 > WORK_LIMIT:
            return f"refused: size ({kernels} kernels of {n} x {n})"
        return None

    # 1. Per-activation closed form against the plain subset average.
    # 2-3. Sparse and fast-switching expected kernels against enumeration,
    #      and each bound against the second eigenvalue of the enumerated
    #      kernel, which it equals with at most one star a period, unless the
    #      variant refuses the params (Sparse, above a rate sum of 1).
    # The checks that run share one ``_one_star_pass``. refusals: each
    # check's row detail if refused or skipped, else None.
    subset = "activation-kernel-vs-subset-average"
    if C * n > 200_000:
        refusals = {subset: f"refused: size ({C} subsets per center)"}
    else:
        refusals = {subset: too_costly(n * C)}
    live = {}
    for cls in (Sparse, FastSwitch):
        name = f"{cls.name}-kernel-vs-enumeration"
        try:
            v = cls(params)
        except ValueError:
            refusals[name] = f"skipped (rate sum {params.rate_sum:.3g} > 1)"
            continue
        if (size := v.size()) > MAX_BRANCHES:
            refusals[name] = f"refused: size ({size} branches)"
        else:
            refusals[name] = too_costly(1 + n * C)  # its configurations once folded
        if refusals[name] is None:
            live[name] = v
    diffs = []  # check 1's largest entry of each centre's difference

    def compare(i: int, E: np.ndarray):
        diffs.append(np.max(np.abs(E - activation_expectation(params, i + 1))))

    probs = [v.folded()[1] for v in live.values()]
    kernels = dict(zip(live, _one_star_pass(params, probs, None if refusals[subset] else compare)))
    for name, refusal in refusals.items():
        if refusal is not None:
            yield name, refusal, None
        elif name == subset:
            yield _diff_row(name, diffs, 1e-10)
        else:
            v, E = live[name], kernels[name]
            w = v.weights()
            gap = decay_bound(params, w, v.name).rate - lambda_second_largest(E)
            yield _diff_row(name, [weighted_expected_exponential(params, w) - E, [gap]], 1e-10)
    # 4. Uniform-rule survivor rates: the quadrature against all activation sets.
    name = "survivor-rates-quadrature-vs-exhaustive"
    if n > 12:
        yield name, f"refused: size (2**{n} activation sets)", None
    else:
        uniform = dataclasses.replace(params, rule=UNIFORM_TIE_BREAK)
        yield _diff_row(name, [survivor_rates(uniform) - enumerated_survivor_rates(uniform)], 1e-12)


def validate(p: ModelParams) -> tuple:
    """``adn validate``'s five checks on ``p``: a list of (name, detail, ok)
    rows, ok None for a refused or skipped check, and check 5's
    ``FastSwitchReport``. Check 5 probes the fast-switching eigenvalue
    inequality on a fixed 4-node model and small-T grid, not on ``p``."""
    rows = list(_check_rows(p))
    probe = ModelParams(4, 2, (0.35, 0.2, 0.5, 0.15), 0.5)
    report = verify_fast_switch_inequality(probe, (0.01, 0.05, 0.1))
    min_gap = min(s.gap for s in report.samples)
    detail = f"min gap {min_gap:.3g} over {len(report.samples)} grid points"
    rows.append(("fastswitch-inequality-grid", detail, report.holds_all))
    return rows, report
