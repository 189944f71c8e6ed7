"""Brute-force enumeration oracles for the expected heat kernels, and the
numerical probe of the fast-switching eigenvalue inequality.

Enumeration is exact or refused, with no sampling anywhere, and one walk
(``_expected_kernels``) serves all of it: one list of centre tuples, and
laws over them, one a row, each a variant's law folded onto its distinct
tuples (``Variant.folded``) or put on another's, 0 off its own. Each tuple
is expanded into every choice of one star per centre
(``center_star_table``) by index arithmetic, in ``product`` order, and
consecutive configurations are built as one Laplacian stack within
``graph_core.STACK_BYTES``. Many share a union graph (check 5's 256 probe
configurations have 51), so each distinct adjacency of a stack is
decomposed once for every exponent scale asked for and gathered back to
its configurations, whose weighted exponentials are added in order by one
reduction a stack and law: memory stays bounded at any size and each sum
is, bit for bit, that of adding them one at a time, the law walked alone.

``validate(p)`` runs the five checks of ``adn validate`` on a model: each
closed form against its oracle, and each variant's bound against the second
eigenvalue of its enumerated kernel. Checks 2 and 3 are two laws of one walk
of the 1 + n*C(n-1, m) one-star configurations, whose star kernels check 1
reads once the sums are taken (``_centre_means``). Check 5 walks the full
model's configurations with the fast-switching law as a second row.
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


def _enumerate_branches(p: ModelParams, tuples, probs, copies: int = 1):
    """Yield (weights, row, centre, nbs) stacks of consecutive
    configurations, each within ``STACK_BYTES`` at ``copies`` n x n matrices
    a configuration: each centre tuple of ``tuples`` times each choice of
    one neighbour set per centre from ``center_star_table``, in ``product``
    order, weighted under each law (a row of ``probs``, over the tuples) by
    its tuple's probability over its choices. Configuration r of a stack
    has the stars q with row[q] == r, each joining centre[q] to nbs[q]
    (0-based, the flat form ``star_union_laplacians`` reads)."""
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
        row, col = np.nonzero(real[g])
        c = centre[g[row], col]
        # a tuple's choice, right-aligned: its digits in base C, last fastest
        digit = (q - starts[g])[row] // C ** (width - 1 - col) % C
        yield weights[..., g], row, c, table[c, digit]


def _expected_kernels(p: ModelParams, tuples, probs: np.ndarray, T: np.ndarray, stars=None):
    """Exact E[e**(-t*L)] at each t in T under each law, a row of ``probs``
    over ``tuples`` summing to 1: (laws, len(T), n, n), the weighted kernels
    of each stack of ``_enumerate_branches`` added in order, the sum so far
    into the first, by one ``np.add.reduce``, bit for bit one at a time, and
    each law's as if walked alone: a zero weight adds +-0 to a sum that is
    never -0. stars(row, centre, kernels), if given, then reads a stack's
    kernels, which it may overwrite."""
    for total in probs.sum(axis=1).tolist():
        if abs(total - 1.0) > 1e-9:
            raise RuntimeError(f"enumeration probabilities sum to {total}, drifted from 1")
    acc = np.zeros((len(probs), len(T), p.n, p.n))
    for weights, row, centre, nbs in _enumerate_branches(p, tuples, probs, len(T)):
        L = star_union_laplacians(k := weights.shape[1], p.n, row, centre, nbs)
        key = np.packbits(L.reshape(k, -1) != 0, axis=1)  # the adjacency, as bytes
        key = key.view(f"V{key.shape[1]}")[:, 0]
        _, first, which = np.unique(key, return_index=True, return_inverse=True)
        if len(first) == k:  # all distinct: decomposed in place, not permuted and gathered
            first = which = slice(None)
        kernels = expm_sym(L[first], T)[:, which]
        weighted = kernels * weights[:, None, :, None, None]
        weighted[:, :, 0] += acc
        acc = np.add.reduce(weighted, axis=2)
        if stars is not None:
            stars(row, centre, kernels)
    return acc


def _centre_means(C: int, centre_mean):
    """A ``stars`` reader of the tuples (), if there, (1,), ..., (n,): it calls
    centre_mean(i, mean kernel of centre i's C stars) at the first scale
    for each 0-based centre in turn, added in order by one reduction a
    stack in a view of its star rows, the sum carried across stack ends."""
    acc, seen = 0.0, 0  # the current centre's sum so far and its stars

    def read(row, centre, kernels):
        nonlocal acc, seen
        stars = kernels[0, kernels.shape[1] - len(row):]
        starts = np.flatnonzero(np.diff(centre, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(row)]):
            stars[lo] += acc
            acc, seen = np.add.reduce(stars[lo:hi], axis=0), seen + hi - lo
            if seen == C:
                centre_mean(int(centre[lo]), acc / C)
                acc, seen = 0.0, 0

    return read


def enumerate_expected_exponential(v: Variant) -> np.ndarray:
    """Exact E[e**(-2*dt*L)] as the probability-weighted sum of dense
    exponentials over every configuration of the variant's ``folded`` law.
    Refuses oversized enumerations."""
    return _expected_exponentials(v, np.array([2.0 * v.p.dt]))[0]


def _expected_exponentials(v: Variant, T: np.ndarray) -> np.ndarray:
    """Exact E[e**(-t*L)] for each exponent scale t in T, (len(T), n, n)."""
    _require_enumerable(v)
    tuples, probs = v.folded()
    return _expected_kernels(v.p, tuples, np.array([probs]), T)[0]


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
    full, fs = Full(p), FastSwitch(p)
    for v in (fs, full):
        _require_enumerable(v)  # before any enumeration
    # both expected kernels from one walk of Full's configurations:
    # FastSwitch's law on Full's tuples (), (1,), ..., (n,), at masks 0 and
    # 2**(i-1), and 0 elsewhere, its sums bit for bit its own
    tuples, probs = full.folded()
    probs = np.array([probs, np.zeros(len(probs))])
    probs[1, np.r_[0, 1 << np.arange(p.n)]] = fs.folded()[1]
    kernels = _expected_kernels(p, tuples, probs, np.array(T_grid, dtype=float))
    samples = []
    for T, E_full, E_fs in zip(T_grid, *kernels):
        lam_full, lam_fs = lambda_second_largest(E_full), lambda_second_largest(E_fs)
        gap = lam_fs - lam_full
        samples.append(GapSample(float(T), lam_full, lam_fs, gap, gap >= -GAP_SLACK))
    violations = [s.T for s in samples if not s.holds]
    return FastSwitchReport(tuple(samples), not violations, min(violations, default=None))


def _diff_row(name: str, diffs, tol: float) -> tuple:
    """A check row: the largest entry of the arrays ``diffs`` within ``tol``."""
    d = max(float(np.max(np.abs(x))) for x in diffs)
    return name, f"max diff {d:.3g}, tol {tol:g}", d <= tol


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
    # The checks that run share one walk, the variants' laws as its rows and
    # check 1 its star reader. refusals: each check's row detail if refused
    # or skipped, else None.
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

    stars = None if refusals[subset] else _centre_means(C, compare)
    tuples = ((),) * bool(live) + tuple((i,) for i in range(1, n + 1))  # () only for a law
    probs = np.reshape([v.folded()[1] for v in live.values()], (len(live), len(tuples)))
    if live or stars:  # else nothing to walk
        T = np.array([2.0 * params.dt])
        kernels = dict(zip(live, _expected_kernels(params, tuples, probs, T, stars)[:, 0]))
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
