import dataclasses
import json
import math
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adn_consensus import (
    VARIANTS,
    FastSwitch,
    Full,
    ModelParams,
    Sparse,
    StarSpec,
    TieBreakRule,
    UNIFORM_TIE_BREAK,
    enumerate_expected_exponential,
    expm_sym,
    gamma_fs,
    generate_snapshot,
    snapshot_count,
    snapshot_laplacian,
    sparse_expected_exponential,
    survivor_rates,
    verify_fast_switch_inequality,
    weighted_expected_exponential,
)
from adn_consensus import adn_model, graph_core, validation
from adn_consensus.adn_model import activation_chunks, activation_sets
from adn_consensus.cli import parse_config, resolve_config
from adn_consensus.graph_core import star_union_laplacian
from adn_consensus.spectral import enumerated_survivor_rates
from adn_consensus.validation import MAX_BRANCHES, validate
from oracles import (
    activation_sets_by_mask,
    enumerate_branches,
    fastswitch_law,
    folded_law,
    lambda_second_deflated,
    law_survivor_rates,
    star_union_laplacian_ints,
    subset_averages,
    taylor_expm,
    unfolded_expected_exponential,
    walked_expected_kernels,
)

FASTSWITCH_TABLE = Path(__file__).resolve().parents[1] / "configs" / "fastswitch_table.json"
VALIDATE_SMALL = FASTSWITCH_TABLE.with_name("validate_small.json")
CERTIFY_VALIDATE = FASTSWITCH_TABLE.parents[1] / "perfbench" / "inputs" / "certify_validate.json"


@st.composite
def tiny_params(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, n - 1))
    a = tuple(
        draw(st.floats(0.01, 1.0 / n, allow_nan=False)) for _ in range(n)
    )
    dt = draw(st.floats(0.1, 2.0))
    return ModelParams(n, m, a, dt)


def _random_table(n: int, data) -> TieBreakRule:
    """A tie-break table over every set of two or more of n nodes, with
    random weights of which some are 0."""
    table = {}
    for size in range(2, n + 1):
        for s in combinations(range(1, n + 1), size):
            raw = [data.draw(st.sampled_from([0.0, 0.25, 1.0, 3.0])) for _ in s]
            if not any(raw):
                raw[data.draw(st.integers(0, size - 1))] = 1.0
            table[frozenset(s)] = {i: x / sum(raw) for i, x in zip(s, raw)}
    return TieBreakRule(table)


def _variant(p: ModelParams, model: str, rule: TieBreakRule = UNIFORM_TIE_BREAK):
    """The variant of tag ``model`` on p under the tie-break ``rule``."""
    return VARIANTS[model](dataclasses.replace(p, rule=rule))


def _center_stars(p: ModelParams) -> list:
    """Each centre's C(n-1, m) equally likely stars, in ``combinations`` order."""
    others = ([j for j in range(1, p.n + 1) if j != i] for i in range(1, p.n + 1))
    return [[StarSpec(p.n, i, N) for N in combinations(js, p.m)] for i, js in enumerate(others, 1)]


def _branches(v) -> list:
    """The reference walk's stacks (``oracles.enumerate_branches``) of the
    variant's folded law unpacked to one (weight, stars) pair per
    configuration, stars as 1-based (centre, neighbours) pairs."""
    return [
        (w, [(c + 1, tuple(N + 1)) for c, N in zip(centre[row == r], nbs[row == r])])
        for ws, row, centre, nbs in enumerate_branches(v.p, *v.folded())
        for r, w in enumerate(ws.tolist())
    ]


def _law_rows(v) -> list:
    """The variant's law as (centres, probability) rows before folding:
    fastswitch's a row per (activated set, survivor), from the oracle;
    full's and sparse's rows are distinct already."""
    if v.name == "fastswitch":
        return list(fastswitch_law(v.p.a, v.p.rule.weights_for))
    return list(zip(*v.folded()))


def _unread(monkeypatch, message: str):
    """Make reading any variant's centre law fail with ``message``."""
    def unread(*_):
        raise AssertionError(message)

    for cls in (Full, Sparse, FastSwitch):
        monkeypatch.setattr(cls, "folded", unread)


def _count_exponentials(monkeypatch) -> list:
    """Count the dense exponentials the enumeration computes: the returned
    list grows by one entry per matrix, a stack counting each of its own."""
    calls = []
    exact = validation.expm_sym

    def counted(L, t):
        calls.extend([t] * (L.shape[0] if L.ndim == 3 else 1))
        return exact(L, t)

    monkeypatch.setattr(validation, "expm_sym", counted)
    return calls


class TestEnumerationSize:
    @given(tiny_params(), st.sampled_from(["sparse", "full", "fastswitch", "table"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_size_matches_generated_branch_count(self, p, model, data):
        # sparse: the size is the branch count, and full's is its snapshot
        # count; fastswitch: the size is the uniform rule's centre-law rows,
        # which bound a table's rows and the 1 + n * C(n-1, m) branches
        rule = UNIFORM_TIE_BREAK
        if model == "table":  # fastswitch under a random table with zero weights
            model, rule = "fastswitch", _random_table(p.n, data)
        v = _variant(p, model, rule)
        branches = _branches(v)
        size = snapshot_count(p.n, p.m) if model == "full" else v.size()
        if model == "fastswitch":
            rows = len(_law_rows(v))
            assert len(branches) == 1 + p.n * math.comb(p.n - 1, p.m)
            assert rows <= size and (rows == size or rule.table is not None)
        else:
            assert len(branches) == size
        if model != "full":
            assert all(len(stars) <= 1 for _, stars in branches)

    def test_known_sizes(self):
        p = ModelParams(3, 1, (0.1, 0.2, 0.3), 1.0)
        assert Sparse(p).size() == 1 + 3 * 2
        assert len(_branches(Full(p))) == snapshot_count(3, 1) == 27
        # the empty set, then each member of each nonempty activated set
        assert FastSwitch(p).size() == 1 + 3 * 4
        # the folded law's 1 + 3 centre tuples times 2 stars a centre
        assert len(_branches(FastSwitch(p))) == 1 + 3 * 2
        # n = 20 is the smallest n refused under fastswitch, whatever m is
        for n, refused in ((19, False), (20, True)):
            q = ModelParams(n, 1, (0.01,) * n, 1.0)
            assert (FastSwitch(q).size() > MAX_BRANCHES) == refused

    def test_table_rule_counts_only_positive_weights(self):
        """A zero tie-break weight takes that survivor's rows out of the
        centre law, one per 3-set here (33 rows to 29), but no branch: each
        centre keeps its lone activation at weight 1, so both rules fold to
        1 + 4 centre tuples, 13 branches with C(3, 2) stars a centre."""
        p = ModelParams(4, 2, (0.1, 0.2, 0.3, 0.25), 1.0)
        table = {}
        for size in (2, 3, 4):
            for s in combinations(range(1, 5), size):
                w = dict.fromkeys(s, 1.0 / size)
                if size == 3:
                    w = {s[0]: 0.0, s[1]: 0.5, s[2]: 0.5}
                table[frozenset(s)] = w
        rule = TieBreakRule(table)
        assert len(_law_rows(_variant(p, "fastswitch", rule))) == 29
        assert len(_law_rows(FastSwitch(p))) == 33
        assert FastSwitch(p).size() == 33
        for r in (rule, UNIFORM_TIE_BREAK):
            assert len(_branches(_variant(p, "fastswitch", r))) == 13

    def test_incomplete_table_refused(self, monkeypatch):
        # the size no longer reads the law; the fold meets the missing set
        # before the first dense exponential
        p = ModelParams(3, 1, (0.1, 0.2, 0.3), 1.0)
        table = {frozenset(s): dict.fromkeys(s, 0.5) for s in ((1, 2), (1, 3), (2, 3))}
        rule = TieBreakRule(table)
        calls = _count_exponentials(monkeypatch)
        with pytest.raises(ValueError, match=r"\[1, 2, 3\] missing from tie-break table"):
            enumerate_expected_exponential(_variant(p, "fastswitch", rule))
        assert calls == []

    def test_refused_before_the_law_is_read(self, monkeypatch):
        _unread(monkeypatch, "centre law read before the size was refused")
        p = ModelParams(20, 3, (0.01,) * 20, 1.0)
        with pytest.raises(ValueError, match="10485761 branches"):
            enumerate_expected_exponential(FastSwitch(p))


class TestFoldedLaw:
    @given(tiny_params(), st.sampled_from(["sparse", "full", "fastswitch", "table"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_unfolded_enumeration(self, p, model, data):
        rule = UNIFORM_TIE_BREAK
        if model == "table":
            model, rule = "fastswitch", _random_table(p.n, data)
        T = 2.0 * p.dt
        v = _variant(p, model, rule)
        ref = unfolded_expected_exponential(
            _law_rows(v),
            _center_stars(p),
            lambda choice: expm_sym(star_union_laplacian(p.n, choice), T),
            p.n,
        )
        got = enumerate_expected_exponential(v)
        assert np.max(np.abs(got - ref)) <= 1e-13

    @pytest.mark.parametrize("tabled", [False, True])
    def test_one_exponential_per_graph_shape(self, monkeypatch, tabled):
        # 1 + n * C(n-1, m) = 281 graphs at n = 8, m = 3, under any rule
        # (every centre's lone activation has weight 1), of two shapes: the
        # empty graph and the star K(1, 3)
        n = 8
        p = ModelParams(n, 3, tuple(np.linspace(0.05, 0.4, n)), 0.5)
        rule = UNIFORM_TIE_BREAK
        if tabled:  # survivor weight 0 for the lowest member, 1/(|S| - 1) for the others
            rule = TieBreakRule({
                frozenset(s): {i: (0.0 if i == s[0] else 1.0 / (k - 1)) for i in s}
                for k in range(2, n + 1)
                for s in combinations(range(1, n + 1), k)
            })
        calls = _count_exponentials(monkeypatch)
        v = _variant(p, "fastswitch", rule)
        E = enumerate_expected_exponential(v)
        assert len(calls) == 2
        ref = weighted_expected_exponential(p, survivor_rates(v.p))
        assert np.max(np.abs(E - ref)) <= 1e-12

    @given(tiny_params(), st.sampled_from(["sparse", "full", "fastswitch", "table"]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_configurations_in_product_order(self, p, model, data):
        # each folded centre tuple's choices in itertools.product order,
        # at the weight the tuple's probability gives each
        rule = UNIFORM_TIE_BREAK
        if model == "table":
            model, rule = "fastswitch", _random_table(p.n, data)
        v = _variant(p, model, rule)
        law = {}
        for centres, prob in _law_rows(v):
            law[centres] = law.get(centres, 0.0) + prob
        stars = _center_stars(p)
        ref = [
            (prob / len(stars[0]) ** len(centres), [(s.center, s.neighbors) for s in choice])
            for centres, prob in law.items()
            for choice in product(*(stars[i - 1] for i in centres))
        ]
        assert _branches(v) == ref


class TestArrayLaws:
    """The laws taken as arrays equal the loops they replace, bit for bit."""

    @given(st.integers(2, 8), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equal_to_the_loops(self, n, tabled, data):
        a = tuple(data.draw(st.floats(1e-6, 1.0, allow_nan=False)) for _ in range(n))
        rule = _random_table(n, data) if tabled else UNIFORM_TIE_BREAK
        p = ModelParams(n, 1, a, 1.0, rule)
        # a chunk of one set, of five, or of the default STACK_BYTES
        chunk = data.draw(st.sampled_from([8 * n, 40 * n, adn_model.STACK_BYTES]))
        sets = list(activation_sets_by_mask(a))
        rows = list(fastswitch_law(a, rule.weights_for))
        law = folded_law(rows)
        with mock.patch.object(adn_model, "STACK_BYTES", chunk):
            probs = np.concatenate([prob for _, prob in activation_chunks(p)])
            assert np.array_equal(probs, [prob for _, prob in sets])
            assert list(activation_sets(p)) == sets
            tuples, folded = FastSwitch(p).folded()
            assert list(tuples) == list(law)
            assert np.array_equal(folded, list(law.values()))
            assert np.array_equal(enumerated_survivor_rates(p), law_survivor_rates(rows, n))
            tuples, full = Full(p).folded()
            assert list(tuples) == [members for members, _ in sets]
            assert np.array_equal(full, probs)


@contextmanager
def _stack_bytes(nbytes: int):
    """Patch the stack size that ``graph_core.stacks`` and validation's
    own chunks read."""
    with mock.patch.object(graph_core, "STACK_BYTES", nbytes), \
            mock.patch.object(validation, "STACK_BYTES", nbytes):
        yield


def _union_edges(stars) -> frozenset:
    """The edge set of a union of 1-based (centre, neighbours) stars."""
    return frozenset(frozenset((c, j)) for c, N in stars for j in N)


def _graph_edges(n: int, rows: np.ndarray) -> list:
    """The edge sets of (G, E) bool edge rows, edges in ``np.triu_indices`` order, 1-based."""
    i, j = np.triu_indices(n, 1)
    return [frozenset(frozenset((i[e] + 1, j[e] + 1)) for e in np.flatnonzero(r)) for r in rows]


def _packed(rows: np.ndarray) -> np.ndarray:
    """(G, E) bool edge rows as the packed bits ``_kernel_sums`` takes."""
    return np.packbits(rows, axis=1, bitorder="little")


def _unpacked(n: int, graphs: np.ndarray) -> np.ndarray:
    """Packed graphs back as (G, E) bool edge rows."""
    return np.unpackbits(graphs, axis=1, count=n * (n - 1) // 2, bitorder="little").astype(bool)


def _shape_key(n: int, edges: frozenset) -> tuple:
    """A graph's edges with its nodes relabelled by a stable sort on
    degree, sorted: what two graphs of one shape share."""
    degree = [sum(i in e for e in edges) for i in range(1, n + 1)]
    place = {node: k for k, node in enumerate(sorted(range(1, n + 1), key=lambda i: degree[i - 1]))}
    return tuple(sorted(tuple(sorted(place[i] for i in e)) for e in edges))


class TestGraphLaw:
    """The laws over union graphs against the configuration walk of
    ``tests/oracles.py``."""

    @given(tiny_params(), st.sampled_from(["sparse", "full", "fastswitch", "table"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_law_equals_the_configuration_histogram(self, p, model, data):
        # each distinct union graph once, at the summed weight of the
        # configurations that make it
        rule = UNIFORM_TIE_BREAK
        if model == "table":
            model, rule = "fastswitch", _random_table(p.n, data)
        v = _variant(p, model, rule)
        histogram = Counter()
        for w, stars in _branches(v):
            histogram[_union_edges(stars)] += w
        if v.one_star:
            packed, graph = validation._one_star_graphs(v.p, validation._edges(p.n))
            law = validation._star_law(v.folded()[1], graph, len(packed))
            graphs = _graph_edges(p.n, _unpacked(p.n, packed))
        else:
            law, _ = validation._full_law(v.p, validation._edges(p.n))
            masks = np.arange(len(law))
            rows = (masks[:, None] >> np.arange(p.n * (p.n - 1) // 2) & 1).astype(bool)
            graphs = _graph_edges(p.n, rows)
        assert len(set(graphs)) == len(graphs)  # equal graphs merged
        got = {g: w for g, w in zip(graphs, law.tolist()) if w or g in histogram}
        assert got.keys() == histogram.keys()
        assert max(abs(got[g] - w) for g, w in histogram.items()) <= 1e-15

    @given(tiny_params(), st.sampled_from(["sparse", "full", "fastswitch", "table"]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_kernels_match_the_configuration_walk(self, p, model, data):
        rule = UNIFORM_TIE_BREAK
        if model == "table":
            model, rule = "fastswitch", _random_table(p.n, data)
        v = _variant(p, model, rule)
        T = np.array([0.01, 2.0 * p.dt, 7.5])
        ref = walked_expected_kernels(v.p, *v.folded(), T)[0]
        # a stack of one matrix, of a few, or of the default size
        nbytes = data.draw(st.sampled_from([8 * p.n * p.n, 24 * p.n * p.n, graph_core.STACK_BYTES]))
        with _stack_bytes(nbytes):
            got = validation._expected_exponentials(v, T)
        assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_full_kernels_match_the_walk_at_n5(self, m):
        # (1 + C(4, m))**5 configurations: 16,807 at m = 2
        p = ModelParams(5, m, (0.35, 0.2, 0.5, 0.15, 0.6), 0.7)
        T = np.array([0.01, 1.4, 7.5])
        got = validation._expected_exponentials(Full(p), T)
        assert np.max(np.abs(got - walked_expected_kernels(p, *Full(p).folded(), T)[0])) <= 1e-12

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_full_rows_sum_to_one_at_n6(self, m):
        p = ModelParams(6, m, (0.35, 0.2, 0.5, 0.15, 0.6, 0.3), 0.5)
        E = enumerate_expected_exponential(Full(p))
        assert np.max(np.abs(E.sum(axis=1) - 1.0)) <= 1e-13
        assert np.array_equal(E, E.T)

    def test_full_runs_at_n7_and_refuses_above_before_any_work(self, monkeypatch):
        # m = 6: each node's one star joins it to all others
        p = ModelParams(7, 6, tuple(np.linspace(0.1, 0.7, 7)), 0.5)
        E = enumerate_expected_exponential(Full(p))
        assert np.max(np.abs(E.sum(axis=1) - 1.0)) <= 1e-13
        monkeypatch.setattr(validation, "center_star_table", lambda p: pytest.fail("work done"))
        for n in (8, 12):
            p = ModelParams(n, 1, (0.1,) * n, 0.5)
            E_ = n * (n - 1) // 2
            with pytest.raises(ValueError, match=rf"n={n} spans 2\*\*{E_} edge masks \(E={E_}\)"):
                enumerate_expected_exponential(Full(p))


class TestShapes:
    """One eigen-solve per graph shape, each graph's kernel that of its own
    Laplacian."""

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_relabelled_kernels_equal_each_graphs_own(self, n, data):
        # random graphs, some repeated and some isomorphic, in stacks of a
        # drawn size
        E = n * (n - 1) // 2
        G = data.draw(st.integers(1, 60))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rows = np.random.default_rng(seed).random((G, E)) < data.draw(st.sampled_from([0.2, 0.5, 0.8]))
        T = np.array([0.01, 1.3, 7.5])
        nbytes = data.draw(st.sampled_from([8 * n * n, 3 * 8 * n * n * len(T), graph_core.STACK_BYTES]))
        decomposed = []
        exact = validation.expm_sym

        def spy(L, t):
            decomposed.extend(L)
            return exact(L, t)

        with _stack_bytes(nbytes), mock.patch.object(validation, "expm_sym", spy):
            got = validation._kernel_sums(validation._edges(n), _packed(rows), np.eye(G), T)  # each graph's kernel, a row
        graphs = _graph_edges(n, rows)
        for g, edges in enumerate(graphs):
            L = star_union_laplacian_ints(n, [(min(e), (max(e),)) for e in edges])
            assert np.max(np.abs(got[g] - expm_sym(np.array(L, dtype=float), T))) <= 1e-13
        # one decomposition a shape, and none of a shape no graph has
        shapes = {_shape_key(n, e) for e in graphs}
        assert len(decomposed) == len(shapes)
        assert {_shape_key(n, _graph_edges(n, [L[np.triu_indices(n, 1)] != 0])[0])
                for L in decomposed} == shapes

    def test_unweighted_graphs_are_skipped(self, monkeypatch):
        calls = _count_exponentials(monkeypatch)
        rows = np.array([[False] * 6, [True] * 6, [True, False, False, False, False, True]])
        W = np.array([[0.25, 0.0, 0.75]])
        got = validation._kernel_sums(validation._edges(4), _packed(rows), W, np.array([1.0]))
        assert len(calls) == 2  # the empty graph and the two disjoint edges
        L = star_union_laplacian(4, [StarSpec(4, 1, (2,)), StarSpec(4, 3, (4,))])
        assert np.max(np.abs(got[0, 0] - (0.25 * np.eye(4) + 0.75 * expm_sym(L, 1.0)))) <= 1e-15


class TestBranchProbabilities:
    @given(tiny_params(), st.sampled_from(["sparse", "full", "fastswitch"]))
    @settings(max_examples=40, deadline=None)
    def test_probabilities_sum_to_one(self, p, model):
        total = sum(w for w, _ in _branches(_variant(p, model)))
        assert abs(total - 1.0) < 1e-12

    def test_full_model_branch_weights_are_true_probabilities(self):
        # with unequal rates the configurations are not equiprobable; check
        # one explicit branch weight: nobody activates
        p = ModelParams(3, 1, (0.5, 0.25, 0.125), 1.0)
        empty = [w for w, stars in _branches(Full(p)) if not stars]
        assert len(empty) == 1
        assert empty[0] == pytest.approx(0.5 * 0.75 * 0.875, abs=1e-15)

    def test_fastswitch_zero_weight_branches_dropped(self):
        table = {
            frozenset({1, 2}): {1: 1.0, 2: 0.0},
            frozenset({1, 3}): {1: 0.5, 3: 0.5},
            frozenset({2, 3}): {2: 0.5, 3: 0.5},
            frozenset({1, 2, 3}): {1: 0.5, 2: 0.5, 3: 0.0},
        }
        p = ModelParams(3, 1, (0.5, 0.5, 0.5), 1.0, TieBreakRule(table))
        total = sum(w for w, _ in _branches(FastSwitch(p)))
        assert abs(total - 1.0) < 1e-12


class TestEnumerateExpectedExponential:
    def test_sparse_matches_closed_form(self):
        p = ModelParams(5, 2, (0.05, 0.1, 0.02, 0.2, 0.01), 0.75)
        got = enumerate_expected_exponential(Sparse(p))
        ref = sparse_expected_exponential(p)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_fastswitch_matches_weighted_closed_form_uniform(self):
        p = ModelParams(4, 2, (0.3, 0.8, 0.1, 0.55), 0.4)
        b = survivor_rates(p)
        got = enumerate_expected_exponential(FastSwitch(p))
        ref = weighted_expected_exponential(p, b)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_fastswitch_matches_weighted_closed_form_table(self):
        table = {
            frozenset({1, 2}): {1: 0.3, 2: 0.7},
            frozenset({1, 3}): {1: 0.5, 3: 0.5},
            frozenset({2, 3}): {2: 1.0, 3: 0.0},
            frozenset({1, 2, 3}): {1: 0.2, 2: 0.3, 3: 0.5},
        }
        p = ModelParams(3, 1, (0.4, 0.6, 0.25), 0.6, TieBreakRule(table))
        b = survivor_rates(p)
        got = enumerate_expected_exponential(FastSwitch(p))
        ref = weighted_expected_exponential(p, b)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_full_model_against_sampled_average(self):
        # independent cross-check through the snapshot generator: average
        # the Taylor kernel over sampled snapshots and compare loosely
        # (the draws hold few distinct Laplacians: each kernel is taken once
        # and weighted by its draw count)
        p = ModelParams(3, 1, (0.7, 0.2, 0.5), 0.4)
        exact = enumerate_expected_exponential(Full(p))
        rng = np.random.default_rng(2024)
        trials = 20000
        draws = Counter(
            snapshot_laplacian(generate_snapshot(Full(p), rng)).tobytes() for _ in range(trials)
        )
        acc = np.zeros((3, 3))
        for L, count in draws.items():
            acc += count * taylor_expm(np.frombuffer(L, dtype=np.int64).reshape(3, 3), 2 * p.dt)
        acc /= trials
        assert np.max(np.abs(acc - exact)) < 0.02

    def test_doubly_stochastic_output(self):
        p = ModelParams(4, 1, (0.25, 0.5, 0.125, 0.4), 0.9)
        for cls in (Full, FastSwitch):
            E = enumerate_expected_exponential(cls(p))
            assert np.max(np.abs(E.sum(axis=1) - 1.0)) < 1e-12
            assert np.max(np.abs(E - E.T)) < 1e-13

    @pytest.mark.parametrize("dt", [0.2, 1.0, 2.0])
    def test_gamma_fs_is_the_enumerated_second_eigenvalue(self, dt):
        # one star a period: gamma_fs is the exact second eigenvalue of the
        # fastswitch expected kernel at any dt, not only as dt goes to 0
        raw = json.loads(FASTSWITCH_TABLE.read_text())
        p, _, _ = resolve_config(parse_config({**raw, "dt": dt}))
        exact = lambda_second_deflated(enumerate_expected_exponential(FastSwitch(p)))
        assert abs(gamma_fs(p).rate - exact) <= 1e-15

    def test_size_guard_refuses_before_work(self):
        p = ModelParams(10, 4, (0.05,) * 10, 1.0)
        with pytest.raises(ValueError, match=r"n=10 spans 2\*\*45 edge masks"):
            enumerate_expected_exponential(Full(p))
        q = ModelParams(20, 1, (0.01,) * 20, 1.0)
        assert FastSwitch(q).size() > MAX_BRANCHES
        with pytest.raises(ValueError, match="branches"):
            enumerate_expected_exponential(FastSwitch(q))

    def test_streams_its_stacks(self):
        # sparse at n = 40, m = 1: 1,561 branches of 40 x 40, 20 MB for each
        # copy of the whole stack; the oracle holds one stack of at most
        # STACK_BYTES (256 KiB) and its working copies at a time
        p = ModelParams(40, 1, (0.02,) * 40, 0.5)
        tracemalloc.start()
        try:
            E = enumerate_expected_exponential(Sparse(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert np.max(np.abs(E - sparse_expected_exponential(p))) < 1e-10


class TestFastSwitchInequality:
    def test_holds_on_small_grid(self):
        p = ModelParams(4, 2, (0.35, 0.2, 0.5, 0.15), 0.5)
        report = verify_fast_switch_inequality(p, (0.01, 0.05, 0.1))
        assert report.holds_all
        assert report.first_violation is None
        assert len(report.samples) == 3
        for s in report.samples:
            assert s.gap == pytest.approx(s.lambda_fastswitch - s.lambda_full, abs=1e-15)
            assert s.holds

    def test_violations_reported_with_the_smallest_T(self, monkeypatch):
        # No real violation is known at these scales, so a fake eigenvalue
        # puts the fastswitch value below the full model's at T = 0.1 and
        # T = 0.05. All six come from one call on the stacked kernels: the
        # full model's row, then the fastswitch variant's, a column a T.
        exact = validation.lambda_second_largest
        calls = []

        def fake(M):
            calls.append(M)
            lam = exact(M)
            lam[1, :2] -= 1.0
            return lam

        monkeypatch.setattr(validation, "lambda_second_largest", fake)
        p = ModelParams(4, 2, (0.35, 0.2, 0.5, 0.15), 0.5)
        report = verify_fast_switch_inequality(p, (0.1, 0.05, 0.2))
        assert [M.shape for M in calls] == [(2, 3, 4, 4)]
        assert not report.holds_all
        assert report.first_violation == 0.05
        assert [s.holds for s in report.samples] == [False, False, True]
        assert report.samples[1].gap == pytest.approx(-1.0, abs=0.1)

    def test_rejects_nonpositive_grid(self):
        p = ModelParams(4, 2, (0.35, 0.2, 0.5, 0.15), 0.5)
        with pytest.raises(ValueError):
            verify_fast_switch_inequality(p, (0.1, 0.0))

    @pytest.mark.parametrize("grid", [(0.1, 0.0), (0.1, -1.0, 0.2), (0.1, math.nan), (math.inf,)])
    def test_bad_grid_refused_before_the_law_is_read(self, monkeypatch, grid):
        _unread(monkeypatch, "centre law read before the grid was refused")
        p = ModelParams(4, 2, (0.35, 0.2, 0.5, 0.15), 0.5)
        with pytest.raises(ValueError, match="exponent scales must be finite and > 0"):
            verify_fast_switch_inequality(p, grid)

    @pytest.mark.parametrize("tabled", [False, True])
    def test_samples_match_each_T_enumerated_alone(self, tabled):
        p = ModelParams(4, 2, (0.35, 0.2, 0.5, 0.15), 0.5)
        rule = UNIFORM_TIE_BREAK
        if tabled:
            rule = TieBreakRule({
                frozenset(s): {i: (2.0 if i == s[-1] else 1.0) / (k + 1) for i in s}
                for k in range(2, 5)
                for s in combinations(range(1, 5), k)
            })
        grid = (0.01, 0.05, 0.1, 3.0)
        report = verify_fast_switch_inequality(dataclasses.replace(p, rule=rule), grid)
        for T, sample in zip(grid, report.samples):
            pT = ModelParams(p.n, p.m, p.a, T / 2.0, rule)
            full = enumerate_expected_exponential(Full(pT))
            fs = enumerate_expected_exponential(FastSwitch(pT))
            assert sample.T == T
            assert abs(sample.lambda_full - validation.lambda_second_largest(full)) <= 1e-14
            assert abs(sample.lambda_fastswitch - validation.lambda_second_largest(fs)) <= 1e-14

    @pytest.mark.parametrize("n, m, tabled", [(4, 2, False), (4, 2, True), (5, 1, False)])
    @pytest.mark.parametrize("size", [1, 3, 10**6])
    def test_fastswitch_read_off_the_full_graphs(self, n, m, tabled, size):
        # fastswitch's law on full's graph masks, summed with full's in
        # stacks of ``size`` matrices, against each variant's own sum and
        # the configuration walk
        rule = UNIFORM_TIE_BREAK
        if tabled:
            rule = TieBreakRule({
                frozenset(s): {i: (2.0 if i == s[0] else 1.0) / (k + 1) for i in s}
                for k in range(2, n + 1)
                for s in combinations(range(1, n + 1), k)
            })
        p = ModelParams(n, m, (0.35, 0.2, 0.5, 0.15, 0.6)[:n], 0.5, rule)
        T = np.array([0.01, 0.05, 3.0])
        seen, lam = [], validation.lambda_second_largest  # the kernels the probe compares
        with (
            _stack_bytes(size * 8 * n * n * len(T)),
            mock.patch.object(validation, "lambda_second_largest", lambda E: seen.append(E) or lam(E)),
        ):
            verify_fast_switch_inequality(p, T)
        (stacked,) = seen  # one call: the full model's kernels, then fastswitch's
        for got, v in zip(stacked, (Full(p), FastSwitch(p))):
            assert np.max(np.abs(got - validation._expected_exponentials(v, T))) <= 1e-14
            assert np.max(np.abs(got - walked_expected_kernels(p, *v.folded(), T)[0])) <= 1e-12

    def test_oversized_probe_refused(self):
        p = ModelParams(12, 5, (0.05,) * 12, 0.5)
        with pytest.raises(ValueError, match=r"n=12 spans 2\*\*66 edge masks"):
            verify_fast_switch_inequality(p, (0.1,))


class TestOneSummation:
    """One summation serves every law of its weight array, and check 1's
    centre means, each as if taken on its own."""

    @given(st.integers(2, 7), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_row_as_if_summed_alone(self, n, tabled, data):
        m = data.draw(st.integers(1, n - 1))
        # rate sums on both sides of 1, so that sparse is left out on some draws
        a = tuple(data.draw(st.floats(0.01, 2.0 / n)) for _ in range(n))
        rule = _random_table(n, data) if tabled else UNIFORM_TIE_BREAK
        p = ModelParams(n, m, a, data.draw(st.floats(0.05, 2.0)), rule)
        variants = [FastSwitch(p)] + ([Sparse(p)] if p.sparse_regime else [])
        means = data.draw(st.booleans())
        T = np.array([0.01, 2.0 * p.dt, 7.5])
        nbytes = data.draw(st.sampled_from([8 * n * n, 24 * n * n, graph_core.STACK_BYTES]))
        with _stack_bytes(nbytes):
            got = validation._one_star_sums(p, [v.folded()[1] for v in variants], means, T)
        assert got.shape == (len(variants) + n * means, len(T), n, n)
        for v, E in zip(variants, got):
            assert np.max(np.abs(E - validation._expected_exponentials(v, T))) <= 1e-14
        if means:
            alone = validation._one_star_sums(p, [], True, T)
            assert np.max(np.abs(got[len(variants):] - alone)) <= 1e-14

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_centre_means_match_the_subset_averages(self, n, data):
        m = data.draw(st.integers(1, n - 1))
        a = tuple(data.draw(st.floats(0.01, 2.0 / n)) for _ in range(n))
        p = ModelParams(n, m, a, data.draw(st.floats(0.05, 2.0)))
        T = 2.0 * p.dt
        C = math.comb(n - 1, m)
        nbytes = data.draw(st.sampled_from([8 * n * n, 8 * n * n * (C + 1), graph_core.STACK_BYTES]))
        with _stack_bytes(nbytes):
            got = validation._one_star_sums(p, [], True, np.array([T]))[:, 0]
        means = list(subset_averages(p, T))
        assert [i for i, _ in means] == list(range(n))
        assert max(np.max(np.abs(E - ref)) for E, (_, ref) in zip(got, means)) <= 1e-13


class TestValidate:
    def test_small_config_without_the_cli(self):
        p, _, _ = resolve_config(parse_config(json.loads(VALIDATE_SMALL.read_text())))
        rows, report = validate(p)
        assert [name for name, _, _ in rows] == [
            "activation-kernel-vs-subset-average",
            "sparse-kernel-vs-enumeration",
            "fastswitch-kernel-vs-enumeration",
            "survivor-rates-quadrature-vs-exhaustive",
            "fastswitch-inequality-grid",
        ]
        assert all(ok is True for _, _, ok in rows), rows
        assert len(report.samples) == 3 and report.holds_all

    CHECK_4 = "survivor-rates-quadrature-vs-exhaustive"

    @staticmethod
    def _params(path: Path) -> ModelParams:
        return resolve_config(parse_config(json.loads(path.read_text())), state=False)[0]

    @staticmethod
    def _uniform_detail(p: ModelParams) -> str:
        """Check 4's detail from the uniform-rule rates, each computed alone."""
        uniform = dataclasses.replace(p, rule=UNIFORM_TIE_BREAK)
        d = float(np.max(np.abs(survivor_rates(uniform) - enumerated_survivor_rates(uniform))))
        return f"max diff {d:.3g}, tol 1e-12"

    @staticmethod
    def _spy_rates(monkeypatch) -> list:
        """The rule of each call that check 4 makes to the survivor rates itself."""
        rules = []
        for name in ("survivor_rates", "enumerated_survivor_rates"):
            exact = getattr(validation, name)
            monkeypatch.setattr(validation, name, lambda q, exact=exact: rules.append(q.rule) or exact(q))
        return rules

    def test_table_rule_checks_the_uniform_rates(self, monkeypatch):
        # check 3 reads the table's survivor rates, which are not the uniform
        # rule's; check 4 computes the uniform rule's quadrature and
        # enumeration itself
        p = self._params(FASTSWITCH_TABLE)
        uniform = dataclasses.replace(p, rule=UNIFORM_TIE_BREAK)
        assert np.max(np.abs(FastSwitch(p).weights() - survivor_rates(uniform))) > 1e-3
        rules = self._spy_rates(monkeypatch)
        rows = {name: (detail, ok) for name, detail, ok in validation._check_rows(p)}
        assert rules == [UNIFORM_TIE_BREAK] * 2
        assert rows[self.CHECK_4] == (self._uniform_detail(p), True)

    @pytest.mark.parametrize("path", [CERTIFY_VALIDATE, VALIDATE_SMALL])
    def test_uniform_rule_reads_check_three(self, monkeypatch, path):
        # check 3's survivor rates and folded law are the uniform rule's:
        # check 4 computes no rates of its own, and prints what computing
        # them alone would
        p = self._params(path)
        rules = self._spy_rates(monkeypatch)
        rows = {name: (detail, ok) for name, detail, ok in validation._check_rows(p)}
        assert rules == []
        assert rows[self.CHECK_4] == (self._uniform_detail(p), True)

    def test_each_shared_law_once_a_call(self, monkeypatch):
        # per validate call: the edge tables of n = 8 and of the probe's
        # n = 4, each one-star law folded once for its n and fastswitch's
        # weights once, and the probe's six eigenvalues in one call; a second
        # call does the same work again, nothing kept from the first
        seen = []

        def spy(owner, name, key):
            exact = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda x: seen.append((name, key(x))) or exact(x))

        spy(validation, "_edges", lambda n: n)
        for cls in (Sparse, FastSwitch):
            spy(cls, "folded", lambda v: (v.name, v.p.n))
            spy(cls, "weights", lambda v: (v.name, v.p.n))
        spy(validation, "lambda_second_largest", lambda M: M.shape)
        p = self._params(CERTIFY_VALIDATE)
        for _ in range(2):
            seen.clear()
            validate(p)
            assert sorted(seen) == sorted([
                ("_edges", 8), ("_edges", 4),
                ("folded", ("sparse", 8)), ("folded", ("fastswitch", 8)),
                ("folded", ("fastswitch", 4)),
                ("weights", ("sparse", 8)), ("weights", ("fastswitch", 8)),
                ("lambda_second_largest", (8, 8)), ("lambda_second_largest", (8, 8)),
                ("lambda_second_largest", (2, 3, 4, 4)),
            ])
