"""Exact expected heat kernels summed over the laws of union graphs, and
the numerical probe of the fast-switching eigenvalue inequality.

Enumeration is exact or refused, with no sampling anywhere. A variant's
expected kernel E[e**(-t*L)] is a sum over the distinct graphs its periods
can make, each weighted by its probability: for ``Full`` the per-node laws
(idle, or one of C(n-1, m) stars) folded under OR of edge masks
(``_full_law``), and for a one-star variant its ``folded`` law with each
centre's probability shared by its stars (``_star_law``), equal graphs
merged. One summation (``_kernel_sums``) serves every law: it relabels each
graph's nodes by a stable sort on degree, eigen-solves one representative a
relabelled adjacency, and permutes that kernel back to each graph of the
shape, e**(-t*P L P^T) = P e**(-t*L) P^T.

``validate(p)`` runs the five checks of ``adn validate`` on a model: each
closed form against its oracle, and each variant's bound against the second
eigenvalue of its enumerated kernel. Checks 1-3 are rows of one summation
over the empty graph and the 1 + n*C(n-1, m) star graphs: the two variants'
laws, and for check 1 each centre's mean over its stars, each graph added
to its centres' rows. Check 5 sums
``Full``'s law with the fast-switching law on its graphs as a second row.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .adn_model import (
    UNIFORM_TIE_BREAK,
    FastSwitch,
    ModelParams,
    Sparse,
    Variant,
    center_star_table,
)
from .closed_form import activation_expectation
from .graph_core import STACK_BYTES, expm_sym, stacks, star_union_laplacians
from .spectral import (
    decay_bound,
    enumerated_survivor_rates,
    lambda_second_largest,
    survivor_rates,
    weighted_expected_exponential,
)

# A one-star variant's enumeration refuses past this ``size()``.
MAX_BRANCHES = 10**7
# The full model's law spans the 2**E edge masks of its union graphs,
# E = n(n-1)/2, in one float64 array: 16 MB at E = 21 (n = 7).
MAX_EDGES = 21
# Checks 1-3 take one eigen-solve a graph shape, then gather each of a check's
# k kernels, n x n, from its shape's, about GATHER_NS an entry, and add it into
# each of the check's weight rows (check 1's n centre means, a variant's law),
# about ROW_NS an entry a row (``_one_star_sums`` on one core of a 2-core Xeon
# VM, numpy 2.4, OpenBLAS: 13 ns an entry at n = 20, m = 4 with 1 to 21 rows,
# 0.3 ns more an entry a row at n = 30, m = 2). Keying the graphs by shape costs
# only their edges (``_shape_keys``) and is left out. A check refuses once its
# price comes to WORK_LIMIT seconds, which keeps validate to seconds and its peak
# RSS under 200 MB: at the largest n that still runs, checks 1-3 priced 12.3 s
# took 12.7 s (m = 1, n = 119), checks 2-3 alone priced 9.8 s took 3.6 s (m = 1,
# n = 165), and 9.1 s took 6.3 s (m = 3, n = 41). Busy's check 1, 77,520 kernels
# at n = 20 into 20 rows, is priced at 0.59 s; n = 300, m = 1 would take minutes.
GATHER_NS, ROW_NS = 13.0, 0.3
WORK_LIMIT = 10.0
# Floating-point floor below zero that a sample's eigenvalue gap may reach
# and still hold.
GAP_SLACK = 1e-9


def _require_enumerable(v: Variant):
    """Refuse, before any work, a one-star law over ``MAX_BRANCHES``."""
    size = v.size()
    if size > MAX_BRANCHES:
        raise ValueError(
            f"enumeration for model={v.name!r} needs {size} branches, "
            f"over the {MAX_BRANCHES} limit"
        )


def _edges(n: int) -> tuple:
    """The n(n-1)/2 edges (i[e], j[e]), i < j, in ``np.triu_indices`` order,
    and the (n, n) table of their ids."""
    i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    ids = np.zeros((n, n), dtype=np.intp)
    ids[i, j] = ids[j, i] = np.arange(len(i))
    return i, j, ids


def _star_edges(p: ModelParams) -> np.ndarray:
    """(n, C(n-1, m), m): the edge ids of each centre's stars, in
    ``center_star_table`` order."""
    return _edges(p.n)[2][np.arange(p.n)[:, None, None], center_star_table(p)]


def _star_masks(p: ModelParams) -> np.ndarray:
    """(n, C(n-1, m)): each centre's stars as edge masks, edge e at bit e."""
    return np.bitwise_or.reduce(1 << _star_edges(p), axis=2)


def _one_star_graphs(p: ModelParams) -> tuple:
    """The graphs of the one-star laws as packed edge bits (``_kernel_sums``),
    the empty graph first, and (n, C(n-1, m)) the graph of each centre's
    stars. With m >= 2 a star's one node of degree m is its centre, so
    stars are distinct graphs; at m = 1 the star (c, {j}) is (j, {c}), one
    edge."""
    star = _star_edges(p).reshape(-1, p.m)
    graph = np.arange(len(star))
    if p.m == 1:
        star, graph = np.unique(star, return_inverse=True)
        star = star[:, None]
    graphs = np.zeros((1 + len(star), -(-p.n * (p.n - 1) // 16)), dtype=np.uint8)
    for e in star.T:  # the k-th edge of every star: each graph's byte set once
        graphs[np.arange(1, len(graphs)), e >> 3] |= (1 << (e & 7)).astype(np.uint8)
    return graphs, 1 + graph.reshape(p.n, -1)


def _star_owners(p: ModelParams, graph: np.ndarray, size: int) -> np.ndarray:
    """(size, 1 + (m == 1)): the centres whose star each graph id of
    ``_one_star_graphs`` is, n for none; at m = 1 the edge {c, j} is a star
    of both, the smaller first."""
    centre = np.arange(p.n)[:, None]
    owners = np.full((size, 1 + (p.m == 1)), p.n)
    slot = (centre > center_star_table(p)[..., 0]).astype(np.intp) if p.m == 1 else 0
    owners[graph, slot] = centre
    return owners


def _star_law(v: Variant, graph: np.ndarray, size: int) -> np.ndarray:
    """A one-star variant's ``folded`` law over ``size`` graph ids: its ()
    on graph 0, the empty one, and centre i's probability shared equally
    by its stars, star s on graph[i - 1, s], equal graphs' added."""
    _, probs = v.folded()  # over (), (1,), ..., (n,)
    shares = np.repeat(np.asarray(probs[1:]) / graph.shape[1], graph.shape[1])
    law = np.bincount(graph.ravel(), shares, minlength=size)
    law[0] = probs[0]
    return law


def _full_law(p: ModelParams) -> np.ndarray:
    """The full model's law over the 2**E edge masks of its union graphs,
    edge e at bit e: node by node, each mask stays with probability
    1 - a_i or is ORed with each of node i's C(n-1, m) star masks with
    a_i / C, added up by ``np.bincount``. Refuses E > ``MAX_EDGES`` (n > 7)
    before any work."""
    E = p.n * (p.n - 1) // 2
    if E > MAX_EDGES:
        raise ValueError(
            f"the full model's graph law at n={p.n} spans 2**{E} edge masks "
            f"(E={E}), over the E <= {MAX_EDGES} limit"
        )
    law = np.zeros(1 << E)
    law[0] = 1.0
    for a, masks in zip(p.a, _star_masks(p).tolist()):
        idx = np.flatnonzero(law)
        shares = law[idx] * (a / len(masks))
        law *= 1.0 - a
        for s in masks:
            law += np.bincount(idx | s, shares, minlength=1 << E)
    return law


def _mask_sums(n: int, laws: np.ndarray, T: np.ndarray) -> np.ndarray:
    """``_kernel_sums`` of laws over the edge masks of n nodes, a row each."""
    masks = np.flatnonzero(laws.any(axis=0))
    graphs = masks.astype("<u4").view(np.uint8).reshape(-1, 4)[:, : -(-n * (n - 1) // 16)]
    return _kernel_sums(n, graphs, laws[:, masks], T)


def _shape_keys(n: int, graphs: np.ndarray) -> tuple:
    """Each graph of ``graphs`` (packed edge bits, as ``_kernel_sums``
    takes them) relabelled by a stable sort of its nodes on degree: its
    relabelled edges, packed alike, equal for graphs of one shape, and each
    node's place in the relabelling, (G, n)."""
    i, j, ids = _edges(n)
    keys = np.empty_like(graphs)
    place = np.empty((len(graphs), n), dtype=np.min_scalar_type(n))
    size = max(1, STACK_BYTES // (8 * len(i)))
    for lo in range(0, len(graphs), size):
        X = np.unpackbits(graphs[lo:lo + size], axis=1, count=len(i), bitorder="little").view(bool)
        g, e = np.nonzero(X)  # each graph's edges, a cost of the edges present only
        degree = np.bincount(np.concatenate([g * n + i[e], g * n + j[e]]), minlength=len(X) * n)
        at = np.argsort(np.argsort(degree.reshape(len(X), n), axis=1, kind="stable"), axis=1)
        relabelled = np.zeros_like(X)
        relabelled[g, ids[at[g, i[e]], at[g, j[e]]]] = True
        keys[lo:lo + size] = np.packbits(relabelled, axis=1, bitorder="little")
        place[lo:lo + size] = at
    return keys, place


def _kernel_sums(
    n: int, graphs: np.ndarray, W: np.ndarray, T: np.ndarray, owners=None, share: float = 0.0
) -> np.ndarray:
    """sum_g W[r, g] e**(-t*L_g) for each row r of W and t in T, (len(W),
    len(T), n, n), over ``graphs``, a graph a row of its edges' packed bits
    (edge e of ``np.triu_indices`` order at bit e % 8 of byte e // 8, the
    bytes of its edge mask), skipping a graph that no row weights. With
    ``owners``, n rows more, row i weighting by ``share`` each graph g with
    i in owners[g] (n for none), never held as dense rows over the graphs.
    ``expm_sym`` decomposes one representative a shape (``_shape_keys``),
    once for all of T, in stacks within ``STACK_BYTES``, and each graph of
    the shape takes its kernel with the relabelling undone:
    e**(-t*L)[x, y] = e**(-t*L')[at[x], at[y]] for L' the relabelled
    Laplacian and at the places."""
    if owners is None:
        owners = np.zeros((len(graphs), 0), dtype=np.intp)
    rows = len(W) + n * (owners.shape[1] > 0)
    kept = np.flatnonzero(W.any(axis=0) | (owners < n).any(axis=1))
    keys, place = _shape_keys(n, graphs[kept])
    # the kept graphs sorted by key, shape k's at order[shape[k]:shape[k + 1]]
    order = np.argsort(keys.view(f"V{keys.shape[1]}")[:, 0], kind="stable")
    keys = keys[order]
    shape = np.flatnonzero(np.concatenate([[True], (keys[1:] != keys[:-1]).any(axis=1), [True]]))
    i, j, _ = _edges(n)
    shapes = np.unpackbits(keys[shape[:-1]], axis=1, count=len(i), bitorder="little").view(bool)
    acc = np.zeros((rows, len(T), n, n))
    size = max(1, STACK_BYTES // (8 * n * n * len(T)))
    for reps in stacks(range(len(shapes)), n, len(T)):
        row, e = np.nonzero(shapes[reps])
        kernels = expm_sym(star_union_laplacians(len(reps), n, row, i[e], j[e][:, None]), T)
        members = order[shape[reps[0]]:shape[reps[-1] + 1]]
        rep = np.repeat(np.arange(len(reps)), np.diff(shape[reps[0]:reps[-1] + 2]))
        for lo in range(0, len(members), size):
            at, g = place[members[lo:lo + size]], kept[members[lo:lo + size]]
            K = kernels[:, rep[lo:lo + size, None, None], at[:, :, None], at[:, None, :]]
            weights = np.zeros((rows + 1, len(g)))  # the rows' columns, a spare row for none
            weights[: len(W)] = W[:, g]
            weights[len(W) + owners[g], np.arange(len(g))[:, None]] = share
            acc += np.tensordot(weights[:rows], K, axes=(1, 1))
    return acc


def enumerate_expected_exponential(v: Variant) -> np.ndarray:
    """Exact E[e**(-2*dt*L)] as the probability-weighted sum of dense
    exponentials over the variant's union graphs. Refuses oversized
    enumerations."""
    return _expected_exponentials(v, np.array([2.0 * v.p.dt]))[0]


def _expected_exponentials(v: Variant, T: np.ndarray) -> np.ndarray:
    """Exact E[e**(-t*L)] for each exponent scale t in T, (len(T), n, n)."""
    if not v.one_star:
        return _mask_sums(v.p.n, _full_law(v.p)[None], T)[0]
    _require_enumerable(v)
    return _one_star_sums(v.p, [v], False, T)[0]


def _one_star_sums(p: ModelParams, variants: list, means: bool, T: np.ndarray) -> np.ndarray:
    """Rows of one ``_kernel_sums`` over the one-star graphs: each one-star
    variant's expected kernel, then, if ``means``, each centre's mean
    kernel over its C(n-1, m) stars."""
    graphs, graph = _one_star_graphs(p)
    W = np.array([_star_law(v, graph, len(graphs)) for v in variants]).reshape(-1, len(graphs))
    owners = _star_owners(p, graph, len(graphs)) if means else None
    return _kernel_sums(p.n, graphs, W, T, owners, 1.0 / graph.shape[1])


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
    # both expected kernels from one summation over Full's union graphs,
    # FastSwitch's law on their masks as a second row
    laws = _full_law(p)
    laws = np.array([laws, _star_law(FastSwitch(p), _star_masks(p), len(laws))])
    kernels = _mask_sums(p.n, laws, np.array(T_grid, dtype=float))
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

    def too_costly(kernels: int, rows: int) -> str | None:
        if kernels * n * n * (GATHER_NS + rows * ROW_NS) * 1e-9 > WORK_LIMIT:
            return f"refused: size ({kernels} kernels of {n} x {n})"
        return None

    # 1. Per-activation closed form against the plain subset average.
    # 2-3. Sparse and fast-switching expected kernels against enumeration,
    #      and each bound against the second eigenvalue of the enumerated
    #      kernel, which it equals with at most one star a period, unless the
    #      variant refuses the params (Sparse, above a rate sum of 1).
    # The checks that run are rows of one summation over the one-star graphs:
    # the variants' laws, and check 1's mean of each centre's stars.
    # refusals: each check's row detail if refused or skipped, else None.
    subset = "activation-kernel-vs-subset-average"
    if C * n > 200_000:
        refusals = {subset: f"refused: size ({C} subsets per center)"}
    else:
        refusals = {subset: too_costly(n * C, n)}
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
            refusals[name] = too_costly(1 + n * C, 1)  # its configurations once folded
        if refusals[name] is None:
            live[name] = v
    if live or refusals[subset] is None:  # else nothing to sum
        T = np.array([2.0 * params.dt])
        sums = _one_star_sums(params, list(live.values()), refusals[subset] is None, T)[:, 0]
        kernels = dict(zip(live, sums))
        diffs = [E - activation_expectation(params, i) for i, E in enumerate(sums[len(live):], 1)]
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
