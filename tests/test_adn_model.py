import dataclasses
import hashlib
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adn_consensus import (
    VARIANTS,
    FastSwitch,
    Full,
    ModelParams,
    Snapshot,
    Sparse,
    StarSpec,
    TieBreakRule,
    UNIFORM_TIE_BREAK,
    generate_snapshot,
    snapshot_count,
    snapshot_laplacian,
)
from adn_consensus import adn_model
from adn_consensus.adn_model import activation_sets, center_star_table


class _Draws:
    """Stub generator: ``random`` returns the queued values in turn (filling
    the requested shape)."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, size=None):
        v = self.values.pop(0)
        return v if size is None else np.full(size, v)


class TestModelParams:
    def test_valid_construction(self):
        p = ModelParams(4, 2, (0.1, 0.2, 0.3, 0.05), 1.5)
        assert p.rate_sum == pytest.approx(0.65)
        assert p.sparse_regime

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ModelParams(1, 1, (0.5,), 1.0)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            ModelParams(4, 0, (0.1,) * 4, 1.0)
        with pytest.raises(ValueError):
            ModelParams(4, 4, (0.1,) * 4, 1.0)

    def test_rejects_rate_vector_length_mismatch(self):
        with pytest.raises(ValueError):
            ModelParams(4, 2, (0.1, 0.2), 1.0)

    def test_rejects_rates_outside_unit_interval(self):
        with pytest.raises(ValueError):
            ModelParams(3, 1, (0.0, 0.5, 0.5), 1.0)
        with pytest.raises(ValueError):
            ModelParams(3, 1, (0.2, 1.5, 0.5), 1.0)

    def test_rejects_negative_or_nonfinite_dt(self):
        with pytest.raises(ValueError):
            ModelParams(3, 1, (0.1,) * 3, -1.0)
        with pytest.raises(ValueError):
            ModelParams(3, 1, (0.1,) * 3, math.nan)

    def test_dt_zero_is_allowed(self):
        assert ModelParams(3, 1, (0.1,) * 3, 0.0).dt == 0.0

    def test_hashable_under_a_table_rule(self):
        # the rule takes part in equality but not in the hash, since a
        # table is a dict
        table = TieBreakRule({frozenset({1, 2}): {1: 0.25, 2: 0.75}})
        p, q = ModelParams(3, 1, (0.1,) * 3, 1.0), ModelParams(3, 1, (0.1,) * 3, 1.0, table)
        assert hash(p) == hash(q) and p != q

    def test_sparse_rejects_large_rate_sum(self):
        # the parameters admit any rates; only the sparse variant gates them
        p = ModelParams(3, 1, (0.5, 0.6, 0.7), 1.0)
        assert not p.sparse_regime
        with pytest.raises(ValueError, match=r"^activity: .*exceeds 1.*<= 1"):
            Sparse(p)

    def test_one_rate_sum_for_gate_law_and_sampler(self):
        """sum(a) is the left-to-right running sum wherever it is read, even
        where math.fsum rounds differently."""
        over = ModelParams(4, 1, (0.2, 0.4, 0.3, 0.1), 1.0)  # fsum: exactly 1
        assert math.fsum(over.a) == 1.0 < over.rate_sum == over.rates_cumsum[-1]
        assert not over.sparse_regime
        with pytest.raises(ValueError, match="exceeds 1"):
            Sparse(over)

        under = ModelParams(10, 1, (0.1,) * 10, 1.0)  # fsum: exactly 1
        s = under.rate_sum
        assert s == under.rates_cumsum[-1] < math.fsum(under.a) == 1.0
        assert under.sparse_regime
        assert dict(Sparse(under).law())[()] == 1.0 - s > 0.0
        # the sampler's threshold: a uniform of exactly sum(a) is idle, the
        # next double down has a star, and a centre draw just under 1 picks
        # the last node
        assert generate_snapshot(Sparse(under), _Draws(s)).events == ()
        below = math.nextafter(s, 0.0)
        star = generate_snapshot(Sparse(under), _Draws(below, math.nextafter(1.0, 0.0), 0.5))
        assert [e.center for e in star.events] == [10]


class TestSnapshot:
    def test_single_star_snapshot(self):
        s = Snapshot(4, (StarSpec(4, 1, (2, 3)),))
        assert s.n == 4 and len(s.events) == 1

    def test_rejects_duplicate_centers(self):
        ev = (StarSpec(4, 1, (2,)), StarSpec(4, 1, (3,)))
        with pytest.raises(ValueError):
            Snapshot(4, ev)

    def test_rejects_event_size_mismatch(self):
        with pytest.raises(ValueError):
            Snapshot(5, (StarSpec(4, 1, (2,)),))


class TestTieBreakRule:
    def test_uniform_weights(self):
        w = UNIFORM_TIE_BREAK.weights_for(frozenset({1, 3, 4}))
        assert w == {1: pytest.approx(1 / 3), 3: pytest.approx(1 / 3), 4: pytest.approx(1 / 3)}

    def test_table_lookup(self):
        rule = TieBreakRule({frozenset({1, 2}): {1: 0.25, 2: 0.75}})
        assert rule.weights_for(frozenset({1, 2})) == {1: 0.25, 2: 0.75}
        # a lone activated node survives under either rule
        assert rule.weights_for(frozenset({3})) == {3: 1.0}
        assert UNIFORM_TIE_BREAK.weights_for(frozenset({3})) == {3: 1.0}

    def test_table_missing_set_raises(self):
        rule = TieBreakRule({frozenset({1, 2}): {1: 0.25, 2: 0.75}})
        with pytest.raises(ValueError, match="missing"):
            rule.weights_for(frozenset({1, 3}))

    def test_table_validation(self):
        with pytest.raises(ValueError, match=r"^tie_break\.entries: "):
            TieBreakRule({})
        with pytest.raises(ValueError):
            TieBreakRule({frozenset({1}): {1: 1.0}})
        with pytest.raises(ValueError):
            TieBreakRule({frozenset({1, 2}): {1: 0.5, 3: 0.5}})
        with pytest.raises(ValueError):
            TieBreakRule({frozenset({1, 2}): {1: -0.1, 2: 1.1}})
        with pytest.raises(ValueError):
            TieBreakRule({frozenset({1, 2}): {1: 0.6, 2: 0.6}})
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                TieBreakRule({frozenset({1, 2}): {1: bad, 2: 0.5}})

    def test_table_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(TieBreakRule)] == ["table"]
        assert UNIFORM_TIE_BREAK == TieBreakRule() and UNIFORM_TIE_BREAK.table is None

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_error_names_the_entry_position(self, k):
        table = {
            frozenset({1, 2}): {1: 0.5, 2: 0.5},
            frozenset({1, 3}): {1: 0.25, 3: 0.75},
            frozenset({2, 3}): {2: 1.0, 3: 0.0},
        }
        bad = list(table)[k]
        table[bad] = {i: 0.6 for i in bad}
        message = rf"^tie_break\.entries\[{k}\]: weights for .* sum to 1\.2"
        with pytest.raises(ValueError, match=message):
            TieBreakRule(table)


class TestSnapshotCount:
    def test_three_nodes_one_edge(self):
        assert snapshot_count(3, 1) == 27

    def test_single_edge_general_formula(self):
        assert snapshot_count(4, 1) == 4**4
        assert snapshot_count(5, 1) == 5**5

    @given(st.integers(2, 12), st.data())
    def test_matches_direct_formula(self, n, data):
        m = data.draw(st.integers(1, n - 1))
        assert snapshot_count(n, m) == (1 + math.comb(n - 1, m)) ** n

    def test_exact_integer_beyond_float_range(self):
        v = snapshot_count(40, 20)
        assert isinstance(v, int)
        assert v == (1 + math.comb(39, 20)) ** 40

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            snapshot_count(3, 3)
        with pytest.raises(ValueError):
            snapshot_count(1, 1)


class TestGenerators:
    def test_full_snapshot_shape(self):
        v = Full(ModelParams(6, 2, (0.4,) * 6, 1.0))
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = generate_snapshot(v, rng)
            centers = [e.center for e in s.events]
            assert len(set(centers)) == len(centers)
            assert centers == sorted(centers)
            for e in s.events:
                assert e.m == 2
                assert e.center not in e.neighbors

    def test_subset_choice_is_uniform(self):
        v = Full(ModelParams(5, 2, (1.0,) * 5, 1.0))
        rng = np.random.default_rng(7)
        trials = 12000
        counts = {}
        for _ in range(trials):
            s = generate_snapshot(v, rng)
            e = s.events[0]
            counts[e.neighbors] = counts.get(e.neighbors, 0) + 1
        assert len(counts) == math.comb(4, 2)
        expect = trials / 6
        sigma = math.sqrt(trials * (1 / 6) * (5 / 6))
        for c in counts.values():
            assert abs(c - expect) < 5 * sigma

    def test_sparse_requires_small_rate_sum(self):
        p = ModelParams(3, 1, (0.5, 0.6, 0.7), 1.0)
        with pytest.raises(ValueError, match="exceeds 1"):
            Sparse(p)

    def test_fastswitch_single_survivor_uniform(self):
        v = FastSwitch(ModelParams(3, 1, (1.0, 1.0, 1.0), 1.0))
        rng = np.random.default_rng(5)
        trials = 15000
        hits = np.zeros(3)
        for _ in range(trials):
            s = generate_snapshot(v, rng)
            assert len(s.events) == 1
            hits[s.events[0].center - 1] += 1
        sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
        for c in hits:
            assert abs(c - trials / 3) < 5 * sigma

    def test_fastswitch_table_rule_is_respected(self):
        table = {frozenset({1, 2, 3}): {3: 1.0}}
        v = FastSwitch(ModelParams(3, 1, (1.0, 1.0, 1.0), 1.0, TieBreakRule(table)))
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = generate_snapshot(v, rng)
            assert len(s.events) == 1
            assert s.events[0].center == 3

    def test_table_draw_past_the_weight_sum_skips_zero_weights(self):
        """Weights may sum to just under 1; a draw at or past their sum goes
        to the last node of positive weight, never to a weight of 0."""
        active = [1, 2, 3]
        for weights, last in (
            ({1: 0.5, 2: 0.4999999999999, 3: 0.0}, 2),
            ({1: 0.0, 2: 0.9999999999999, 3: 0.0}, 2),
            ({1: 0.5, 2: 0.0, 3: 0.4999999999999}, 3),
        ):
            rule = TieBreakRule({frozenset(active): weights})
            for u in (0.9999999999999, 0.99999999999995, math.nextafter(1.0, 0.0)):
                assert adn_model._survivor(active, rule, u) == last
        # draws below the sum keep the node whose bin holds them
        rule = TieBreakRule({frozenset(active): {1: 0.5, 2: 0.4999999999999, 3: 0.0}})
        for u, node in ((0.0, 1), (0.4999, 1), (0.5, 2), (0.99999999999985, 2)):
            assert adn_model._survivor(active, rule, u) == node

    def test_fastswitch_empty_snapshot_possible(self):
        v = FastSwitch(ModelParams(3, 1, (1e-9, 1e-9, 1e-9), 1.0))
        rng = np.random.default_rng(1)
        s = generate_snapshot(v, rng)
        assert s.events == ()

    def test_unknown_model_rejected(self):
        # a config's model tag is read only through VARIANTS, whose classes
        # carry their own tag; any other tag is no key of it
        assert VARIANTS == {"full": Full, "sparse": Sparse, "fastswitch": FastSwitch}
        assert all(cls.name == tag for tag, cls in VARIANTS.items())
        assert "other" not in VARIANTS


def _id_weighted_table(n: int) -> TieBreakRule:
    """Tie-break table over every set of two or more of n nodes, each
    member weighted by its node id; it also serves any smaller n."""
    table = {}
    for size in range(2, n + 1):
        for s in combinations(range(1, n + 1), size):
            table[frozenset(s)] = {i: i / sum(s) for i in s}
    return TieBreakRule(table)


LAWS = {
    "full": (Full, UNIFORM_TIE_BREAK),
    "sparse": (Sparse, UNIFORM_TIE_BREAK),
    "fastswitch-uniform": (FastSwitch, UNIFORM_TIE_BREAK),
    "fastswitch-table": (FastSwitch, _id_weighted_table(5)),
}


class TestVariantLaws:
    # sha256 (first 16 hex digits) of the first 400 snapshots' (centre,
    # neighbours) tuples at seed 2718 on STREAM_PARAMS, recorded from the
    # variant's one-period call (a Bernoulli draw, then the centres and
    # neighbours given a star). A change here changes every simulate output
    # of that variant.
    STREAM_PARAMS = ModelParams(5, 2, (0.3, 0.15, 0.2, 0.1, 0.15), 1.0)
    STREAM_DIGESTS = {
        "full": "2b3db4f61f9e0ccf",
        "sparse": "e5b1b884cf182d36",
        "fastswitch-uniform": "8051495e08c21926",
        "fastswitch-table": "780a7a3cce7d5138",
    }

    @pytest.mark.parametrize("variant", list(LAWS))
    def test_draw_stream_is_pinned(self, variant):
        cls, rule = LAWS[variant]
        v = cls(dataclasses.replace(self.STREAM_PARAMS, rule=rule))
        rng = np.random.default_rng(2718)
        stream = [
            tuple((e.center, e.neighbors) for e in generate_snapshot(v, rng).events)
            for _ in range(400)
        ]
        digest = hashlib.sha256(repr(stream).encode()).hexdigest()[:16]
        assert digest == self.STREAM_DIGESTS[variant]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_neighbours_are_the_m_smallest_keys(self, data):
        # on the same stream as one draw of every key and np.sort of
        # np.argpartition, with chunks of 1 to 3 rows so that a draw spans them
        n = data.draw(st.integers(2, 12))
        m, rows = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, 9))
        seed = data.draw(st.integers(0, 2**32 - 1))
        centre = np.random.default_rng(seed).integers(0, n, rows)
        v = Full(ModelParams(n, m, (0.5,) * n, 1.0))
        chunk = data.draw(st.integers(1, 3)) * 8 * n
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adn_model, "STACK_BYTES", chunk)
            got = v.neighbours(np.random.default_rng(seed + 1), centre)
        keys = np.random.default_rng(seed + 1).random((rows, n))
        keys[np.arange(rows), centre] = 2.0
        ref = np.sort(np.argpartition(keys, m - 1, axis=1)[:, :m], axis=1)
        assert got.dtype == np.intp and np.array_equal(got, ref)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_first_centre_and_gaps_follow_their_formulas(self, data):
        # on the same uniforms as the inverse CDF over all n bins clipped to
        # n - 1, and the floored, capped geometric; with rates of 1 (log_idle
        # -inf), subnormal ones (p_event may be subnormal, the quotient may
        # overflow) and the extreme uniforms 0 and 1 - 2**-53
        n = data.draw(st.integers(2, 8))
        rate = st.sampled_from([1.0, 0.5, 1e-9, 1e-300, 5e-324]) | st.floats(1e-6, 1.0)
        p = ModelParams(n, 1, tuple(data.draw(st.lists(rate, min_size=n, max_size=n))), 1.0)
        cls = data.draw(st.sampled_from([Full, FastSwitch] + [Sparse] * p.sparse_regime))
        v, rates = cls(p), np.array(p.a)
        if cls is Sparse:
            bins = np.cumsum(rates)
            log_idle = np.log1p(-bins[-1]) if bins[-1] < 1.0 else -np.inf
        else:
            with np.errstate(divide="ignore"):  # log1p(-1) = -inf
                idle = np.cumsum(np.log1p(-rates))
            bins, log_idle = -np.expm1(idle), idle[-1]
        rows, cap = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 60))
        seed = data.draw(st.integers(0, 2**32 - 1))
        for u0 in (None, 0.0, math.nextafter(1.0, 0.0)):
            def draws():
                return np.random.default_rng(seed) if u0 is None else _Draws(u0)
            u = draws().random(rows)
            first = np.minimum(np.searchsorted(bins, u * v.p_event, side="right"), n - 1)
            assert np.array_equal(v._first(draws(), rows), first)
            with np.errstate(over="ignore"):
                gaps = np.minimum(np.floor(np.log1p(-u) / log_idle), cap - 1).astype(np.int64) + 1
            got = v.gaps(draws(), rows, cap)
            assert got.dtype == np.int64 and np.array_equal(got, gaps)

    @pytest.mark.parametrize("cls", [Full, Sparse])
    def test_top_uniform_at_a_subnormal_event_rate_is_the_last_centre(self, cls):
        # p_event = 3 * 5e-324 is subnormal, where u * p_event rounds up to
        # p_event for u = 1 - 2**-53: every bin is at most the draw
        v = cls(ModelParams(3, 1, (5e-324,) * 3, 1.0))
        assert 0.0 < v.p_event < np.finfo(float).tiny
        top = math.nextafter(1.0, 0.0)
        assert top * v.p_event == v.p_event
        assert v._first(_Draws(top), 4).tolist() == [2] * 4

    @pytest.mark.parametrize("variant", list(LAWS))
    def test_sampler_matches_exact_law(self, variant):
        """Centre-tuple frequencies of 20,000 draws against the variant's
        law, each within 5 sigma; every drawn tuple is in the law's support,
        so sparse and fastswitch draws hold at most one star."""
        cls, rule = LAWS[variant]
        a = (0.1, 0.5, 0.3, 0.05) if cls is Sparse else (0.1, 0.5, 0.8, 0.3)
        v = cls(ModelParams(4, 1, a, 1.0, rule))
        law = {}  # fastswitch yields each survivor once per activation set
        for centres, prob in v.law():
            law[centres] = law.get(centres, 0.0) + prob
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(123)
        trials = 20000
        counts = dict.fromkeys(law, 0)
        for _ in range(trials):
            centres = tuple(e.center for e in generate_snapshot(v, rng).events)
            counts[centres] += 1
        assert len(counts) == len(law)
        for centres, prob in law.items():
            sigma = math.sqrt(prob * (1 - prob) / trials)
            assert abs(counts[centres] / trials - prob) <= 5 * sigma, centres

    def test_sampled_stars_match_center_stars(self):
        """Each centre's C(n-1, m) stars, its neighbour sets in
        ``combinations`` order, are drawn with a_i / C(n-1, m) each by
        20,000 sparse draws, each within 5 sigma."""
        p = self.STREAM_PARAMS
        C = math.comb(p.n - 1, p.m)
        counts = {
            StarSpec(p.n, i, N): 0
            for i in range(1, p.n + 1)
            for N in combinations([j for j in range(1, p.n + 1) if j != i], p.m)
        }
        assert len(counts) == p.n * C
        v = Sparse(p)
        rng = np.random.default_rng(7)
        trials = 20000
        for _ in range(trials):
            for e in generate_snapshot(v, rng).events:
                counts[e] += 1
        for s, count in counts.items():
            prob = p.a[s.center - 1] / C
            sigma = math.sqrt(prob * (1 - prob) / trials)
            assert abs(count / trials - prob) <= 5 * sigma, s

    @pytest.mark.parametrize("n, m", [(n, m) for n in range(2, 10) for m in range(1, n)])
    def test_star_table_is_center_stars_0_based(self, n, m):
        # the broadcast table equals each centre's own combinations, every m
        p = ModelParams(n, m, (0.1,) * n, 1.0)
        table = center_star_table(p)
        assert table.shape == (n, math.comb(n - 1, m), m) and table.dtype == np.intp
        ref = [[list(N) for N in combinations([j for j in range(n) if j != i], m)] for i in range(n)]
        assert table.tolist() == ref


class TestActivationSets:
    def test_every_set_once_with_its_probability(self):
        a = (0.1, 0.5, 0.8, 0.3)
        p = ModelParams(4, 1, a, 1.0)
        sets = list(activation_sets(p))
        assert len(sets) == 16
        assert len({members for members, _ in sets}) == 16
        for members, prob in sets:
            assert list(members) == sorted(members)
            expect = math.prod(a[i - 1] if i in members else 1 - a[i - 1] for i in range(1, 5))
            assert prob == pytest.approx(expect, rel=1e-15)
        assert sum(prob for _, prob in sets) == pytest.approx(1.0, abs=1e-15)


class TestSnapshotLaplacian:
    def test_empty_snapshot_is_zero(self):
        L = snapshot_laplacian(Snapshot(3, ()))
        assert np.array_equal(L, np.zeros((3, 3)))
        assert L.dtype == np.int64

    def test_duplicate_edge_collapses(self):
        ev = (StarSpec(3, 1, (2,)), StarSpec(3, 2, (1,)))
        L = snapshot_laplacian(Snapshot(3, ev))
        expected = np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 0]])
        assert np.array_equal(L, expected)

    def test_union_of_two_stars(self):
        ev = (StarSpec(4, 1, (2, 3)), StarSpec(4, 4, (2, 3)))
        L = snapshot_laplacian(Snapshot(4, ev))
        assert np.array_equal(L, L.T)
        assert np.array_equal(L @ np.ones(4, dtype=np.int64), np.zeros(4))
        assert L[0, 1] == -1 and L[0, 2] == -1 and L[0, 3] == 0
        assert np.array_equal(np.diag(L), [2, 2, 2, 2])
