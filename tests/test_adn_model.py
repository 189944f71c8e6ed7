import hashlib
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adn_consensus import (
    ModelParams,
    Snapshot,
    StarSpec,
    TieBreakRule,
    UNIFORM_TIE_BREAK,
    center_sets,
    generate_snapshot,
    snapshot_count,
    snapshot_laplacian,
)
from adn_consensus import adn_model
from adn_consensus.adn_model import activation_sets, idle_run


class _Draws:
    """Stub generator: ``random`` returns the queued values in turn (filling
    the requested shape), ``choice`` the first ``size`` candidates."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self, size=None):
        v = self.values.pop(0)
        return v if size is None else np.full(size, v)

    def choice(self, k, size, replace):
        return np.arange(size)


class TestModelParams:
    def test_valid_construction(self):
        p = ModelParams(4, 2, (0.1, 0.2, 0.3, 0.05), 1.5)
        assert p.rate_sum == pytest.approx(0.65)
        p.require_sparse()

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

    def test_require_sparse_rejects_large_rate_sum(self):
        p = ModelParams(3, 1, (0.5, 0.6, 0.7), 1.0)
        with pytest.raises(ValueError, match=r"^activity: .*exceeds 1.*<= 1"):
            p.require_sparse()

    def test_one_rate_sum_for_gate_law_and_sampler(self):
        """sum(a) is the left-to-right running sum wherever it is read, even
        where math.fsum rounds differently."""
        over = ModelParams(4, 1, (0.2, 0.4, 0.3, 0.1), 1.0)  # fsum: exactly 1
        assert math.fsum(over.a) == 1.0 < over.rate_sum == over.rates_cumsum[-1]
        assert not over.sparse_regime
        with pytest.raises(ValueError, match="exceeds 1"):
            over.require_sparse()
        with pytest.raises(ValueError, match="exceeds 1"):
            center_sets(over, "sparse")

        under = ModelParams(10, 1, (0.1,) * 10, 1.0)  # fsum: exactly 1
        s = under.rate_sum
        assert s == under.rates_cumsum[-1] < math.fsum(under.a) == 1.0
        assert under.sparse_regime
        under.require_sparse()
        assert dict(center_sets(under, "sparse"))[()] == 1.0 - s > 0.0
        # the sampler's threshold: a uniform of exactly sum(a) is idle, the
        # next double down activates the last node
        assert generate_snapshot(under, _Draws(s), "sparse").events == ()
        star = generate_snapshot(under, _Draws(math.nextafter(s, 0.0)), "sparse")
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
        rule = TieBreakRule("table", {frozenset({1, 2}): {1: 0.25, 2: 0.75}})
        assert rule.weights_for(frozenset({1, 2})) == {1: 0.25, 2: 0.75}
        # a lone activated node survives under either mode
        assert rule.weights_for(frozenset({3})) == {3: 1.0}
        assert UNIFORM_TIE_BREAK.weights_for(frozenset({3})) == {3: 1.0}

    def test_table_missing_set_raises(self):
        rule = TieBreakRule("table", {frozenset({1, 2}): {1: 0.25, 2: 0.75}})
        with pytest.raises(ValueError, match="missing"):
            rule.weights_for(frozenset({1, 3}))

    def test_table_validation(self):
        with pytest.raises(ValueError):
            TieBreakRule("table", None)
        with pytest.raises(ValueError):
            TieBreakRule("table", {frozenset({1}): {1: 1.0}})
        with pytest.raises(ValueError):
            TieBreakRule("table", {frozenset({1, 2}): {1: 0.5, 3: 0.5}})
        with pytest.raises(ValueError):
            TieBreakRule("table", {frozenset({1, 2}): {1: -0.1, 2: 1.1}})
        with pytest.raises(ValueError):
            TieBreakRule("table", {frozenset({1, 2}): {1: 0.6, 2: 0.6}})
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                TieBreakRule("table", {frozenset({1, 2}): {1: bad, 2: 0.5}})
        with pytest.raises(ValueError):
            TieBreakRule("lottery")


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
        p = ModelParams(6, 2, (0.4,) * 6, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = generate_snapshot(p, rng)
            centers = [e.center for e in s.events]
            assert len(set(centers)) == len(centers)
            assert centers == sorted(centers)
            for e in s.events:
                assert e.m == 2
                assert e.center not in e.neighbors

    def test_subset_choice_is_uniform(self):
        p = ModelParams(5, 2, (1.0,) * 5, 1.0)
        rng = np.random.default_rng(7)
        trials = 12000
        counts = {}
        for _ in range(trials):
            s = generate_snapshot(p, rng)
            e = s.events[0]
            counts[e.neighbors] = counts.get(e.neighbors, 0) + 1
        assert len(counts) == math.comb(4, 2)
        expect = trials / 6
        sigma = math.sqrt(trials * (1 / 6) * (5 / 6))
        for c in counts.values():
            assert abs(c - expect) < 5 * sigma

    def test_sparse_requires_small_rate_sum(self):
        p = ModelParams(3, 1, (0.5, 0.6, 0.7), 1.0)
        with pytest.raises(ValueError):
            generate_snapshot(p, np.random.default_rng(0), "sparse")
        with pytest.raises(ValueError):
            center_sets(p, "sparse")

    def test_fastswitch_single_survivor_uniform(self):
        p = ModelParams(3, 1, (1.0, 1.0, 1.0), 1.0)
        rng = np.random.default_rng(5)
        trials = 15000
        hits = np.zeros(3)
        for _ in range(trials):
            s = generate_snapshot(p, rng, "fastswitch")
            assert len(s.events) == 1
            hits[s.events[0].center - 1] += 1
        sigma = math.sqrt(trials * (1 / 3) * (2 / 3))
        for c in hits:
            assert abs(c - trials / 3) < 5 * sigma

    def test_fastswitch_table_rule_is_respected(self):
        p = ModelParams(3, 1, (1.0, 1.0, 1.0), 1.0)
        table = {frozenset({1, 2, 3}): {3: 1.0}}
        rule = TieBreakRule("table", table)
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = generate_snapshot(p, rng, "fastswitch", rule)
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
            rule = TieBreakRule("table", {frozenset(active): weights})
            for u in (0.9999999999999, 0.99999999999995, math.nextafter(1.0, 0.0)):
                assert adn_model._survivor(active, rule, _Draws(u)) == last
        # draws below the sum keep the node whose bin holds them
        rule = TieBreakRule("table", {frozenset(active): {1: 0.5, 2: 0.4999999999999, 3: 0.0}})
        for u, node in ((0.0, 1), (0.4999, 1), (0.5, 2), (0.99999999999985, 2)):
            assert adn_model._survivor(active, rule, _Draws(u)) == node

    def test_fastswitch_empty_snapshot_possible(self):
        p = ModelParams(3, 1, (1e-9, 1e-9, 1e-9), 1.0)
        rng = np.random.default_rng(1)
        s = generate_snapshot(p, rng, "fastswitch")
        assert s.events == ()

    def test_unknown_model_rejected(self):
        p = ModelParams(3, 1, (0.1, 0.2, 0.3), 1.0)
        with pytest.raises(ValueError):
            generate_snapshot(p, np.random.default_rng(0), "other")
        with pytest.raises(ValueError):
            center_sets(p, "other")


def _id_weighted_table(n: int) -> TieBreakRule:
    """Tie-break table over every set of two or more of n nodes, each
    member weighted by its node id; it also serves any smaller n."""
    table = {}
    for size in range(2, n + 1):
        for s in combinations(range(1, n + 1), size):
            table[frozenset(s)] = {i: i / sum(s) for i in s}
    return TieBreakRule("table", table)


VARIANTS = {
    "full": ("full", UNIFORM_TIE_BREAK),
    "sparse": ("sparse", UNIFORM_TIE_BREAK),
    "fastswitch-uniform": ("fastswitch", UNIFORM_TIE_BREAK),
    "fastswitch-table": ("fastswitch", _id_weighted_table(5)),
}


class TestVariantLaws:
    # sha256 (first 16 hex digits) of the first 400 snapshots' (centre,
    # neighbours) tuples at seed 2718 on STREAM_PARAMS, recorded from the
    # separate per-variant generators this sampler replaced. A change here
    # changes every simulate output of that variant.
    STREAM_PARAMS = ModelParams(5, 2, (0.3, 0.15, 0.2, 0.1, 0.15), 1.0)
    STREAM_DIGESTS = {
        "full": "b266e9d78821cf1a",
        "sparse": "2a5e62993f9ed4e2",
        "fastswitch-uniform": "ca91f01f867841e6",
        "fastswitch-table": "1a55539d10df7a4a",
    }

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_draw_stream_is_pinned(self, variant):
        model, rule = VARIANTS[variant]
        rng = np.random.default_rng(2718)
        stream = [
            tuple(
                (e.center, e.neighbors)
                for e in generate_snapshot(self.STREAM_PARAMS, rng, model, rule).events
            )
            for _ in range(400)
        ]
        digest = hashlib.sha256(repr(stream).encode()).hexdigest()[:16]
        assert digest == self.STREAM_DIGESTS[variant]

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_sampler_matches_exact_law(self, variant):
        """Centre-tuple frequencies of 20,000 draws against center_sets,
        each within 5 sigma; every drawn tuple is in the law's support, so
        sparse and fastswitch draws hold at most one star."""
        model, rule = VARIANTS[variant]
        a = (0.1, 0.5, 0.3, 0.05) if model == "sparse" else (0.1, 0.5, 0.8, 0.3)
        p = ModelParams(4, 1, a, 1.0)
        law = {}  # fastswitch yields each survivor once per activation set
        for centres, prob in center_sets(p, model, rule):
            law[centres] = law.get(centres, 0.0) + prob
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(123)
        trials = 20000
        counts = dict.fromkeys(law, 0)
        for _ in range(trials):
            centres = tuple(e.center for e in generate_snapshot(p, rng, model, rule).events)
            counts[centres] += 1
        assert len(counts) == len(law)
        for centres, prob in law.items():
            sigma = math.sqrt(prob * (1 - prob) / trials)
            assert abs(counts[centres] / trials - prob) <= 5 * sigma, centres


def _stars(s) -> tuple:
    return tuple((e.center, e.neighbors) for e in s.events)


class TestIdleRun:
    """idle_run followed by generate_snapshot reads each variant's stream
    draw for draw like generate_snapshot called once per period: the same
    idle count, the same next snapshot and the same generator state."""

    # P(idle) about 0.95: idle runs average 19 periods, so with a 10-draw
    # chunk (2 periods at n=5, 10 under sparse) most span several chunks.
    P = ModelParams(5, 2, (0.01, 0.005, 0.015, 0.01, 0.01), 1.0)

    @staticmethod
    def per_period(p, rng, model, rule, limit):
        """The idle periods before the first active one, at most limit,
        and that period's stars (None when limit idle periods came first)."""
        for k in range(limit):
            s = generate_snapshot(p, rng, model, rule)
            if s.events:
                return k, _stars(s)
        return limit, None

    @pytest.mark.parametrize("chunk", [None, 10])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_matches_per_period_walk(self, variant, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(adn_model, "_IDLE_CHUNK", chunk)
        model, rule = VARIANTS[variant]
        fast, ref = np.random.default_rng(31), np.random.default_rng(31)
        outcomes = set()
        for trial in range(300):
            if trial % 2:
                # Enter with the 32-bit half-word that choice and integers
                # buffer; restoring the saved state must keep it.
                state = fast.bit_generator.state
                state["has_uint32"], state["uinteger"] = 1, 1000 + trial
                fast.bit_generator.state = ref.bit_generator.state = state
            limit = (0, 1, 5, 40, 400)[trial % 5]
            k = idle_run(self.P, fast, model, limit)
            assert 0 <= k <= limit
            stars = _stars(generate_snapshot(self.P, fast, model, rule)) if k < limit else None
            assert (k, stars) == self.per_period(self.P, ref, model, rule, limit)
            assert fast.bit_generator.state == ref.bit_generator.state
            outcomes.add((trial % 2, "limit" if k == limit else "active", k > 0))
        # Both endings, from both kinds of entry state, after idle periods.
        assert {(b, end, True) for b in (0, 1) for end in ("limit", "active")} <= outcomes


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
