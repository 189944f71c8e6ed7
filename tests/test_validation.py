import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adn_consensus import (
    ModelParams,
    TieBreakRule,
    UNIFORM_TIE_BREAK,
    enumerate_expected_exponential,
    enumeration_size,
    generate_snapshot,
    snapshot_laplacian,
    sparse_expected_exponential,
    survivor_rates,
    verify_fast_switch_inequality,
    weighted_expected_exponential,
)
from adn_consensus import validation
from adn_consensus.validation import MAX_BRANCHES, _enumerate_branches
from oracles import taylor_expm


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


class TestEnumerationSize:
    @given(tiny_params(), st.sampled_from(["sparse", "full", "fastswitch", "table"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_size_matches_generated_branch_count(self, p, model, data):
        rule = UNIFORM_TIE_BREAK
        if model == "table":  # fastswitch under a random table with zero weights
            model, rule = "fastswitch", _random_table(p.n, data)
        branches = list(_enumerate_branches(p, model, rule))
        assert len(branches) == enumeration_size(p, model, rule)
        if model != "full":
            assert all(len(s.events) <= 1 for _, s in branches)

    def test_known_sizes(self):
        p = ModelParams(3, 1, (0.1, 0.2, 0.3), 1.0)
        assert enumeration_size(p, "sparse") == 1 + 3 * 2
        assert enumeration_size(p, "full") == 27
        # empty, three singletons with 2 subsets each, then sets of size
        # 2 and 3 with one survivor choice per member per subset
        assert enumeration_size(p, "fastswitch") == 1 + 6 + (3 * 2 + 1 * 3) * 2

    def test_table_rule_counts_only_positive_weights(self):
        """A zero tie-break weight removes that survivor's branches: one
        zero per 3-set takes 4 survivors times C(3, 2) subsets off 97."""
        p = ModelParams(4, 2, (0.1, 0.2, 0.3, 0.25), 1.0)
        table = {}
        for size in (2, 3, 4):
            for s in combinations(range(1, 5), size):
                w = dict.fromkeys(s, 1.0 / size)
                if size == 3:
                    w = {s[0]: 0.0, s[1]: 0.5, s[2]: 0.5}
                table[frozenset(s)] = w
        rule = TieBreakRule(table)
        branches = list(_enumerate_branches(p, "fastswitch", rule))
        assert enumeration_size(p, "fastswitch", rule) == len(branches) == 85
        assert enumeration_size(p, "fastswitch") == 97

    def test_incomplete_table_refused(self):
        p = ModelParams(3, 1, (0.1, 0.2, 0.3), 1.0)
        table = {frozenset(s): dict.fromkeys(s, 0.5) for s in ((1, 2), (1, 3), (2, 3))}
        rule = TieBreakRule(table)
        with pytest.raises(ValueError, match=r"\[1, 2, 3\] missing from tie-break table"):
            enumeration_size(p, "fastswitch", rule)

    def test_unknown_model_rejected(self):
        p = ModelParams(3, 1, (0.1, 0.2, 0.3), 1.0)
        with pytest.raises(ValueError):
            enumeration_size(p, "other")
        with pytest.raises(ValueError):
            enumerate_expected_exponential(p, "other")


class TestBranchProbabilities:
    @given(tiny_params(), st.sampled_from(["sparse", "full", "fastswitch"]))
    @settings(max_examples=40, deadline=None)
    def test_probabilities_sum_to_one(self, p, model):
        total = sum(w for w, _ in _enumerate_branches(p, model, UNIFORM_TIE_BREAK))
        assert abs(total - 1.0) < 1e-12

    def test_full_model_branch_weights_are_true_probabilities(self):
        # with unequal rates the configurations are not equiprobable; check
        # one explicit branch weight: nobody activates
        p = ModelParams(3, 1, (0.5, 0.25, 0.125), 1.0)
        empty = [w for w, s in _enumerate_branches(p, "full", UNIFORM_TIE_BREAK) if not s.events]
        assert len(empty) == 1
        assert empty[0] == pytest.approx(0.5 * 0.75 * 0.875, abs=1e-15)

    def test_fastswitch_zero_weight_branches_dropped(self):
        table = {
            frozenset({1, 2}): {1: 1.0, 2: 0.0},
            frozenset({1, 3}): {1: 0.5, 3: 0.5},
            frozenset({2, 3}): {2: 0.5, 3: 0.5},
            frozenset({1, 2, 3}): {1: 0.5, 2: 0.5, 3: 0.0},
        }
        rule = TieBreakRule(table)
        p = ModelParams(3, 1, (0.5, 0.5, 0.5), 1.0)
        total = sum(w for w, _ in _enumerate_branches(p, "fastswitch", rule))
        assert abs(total - 1.0) < 1e-12


class TestEnumerateExpectedExponential:
    def test_sparse_matches_closed_form(self):
        p = ModelParams(5, 2, (0.05, 0.1, 0.02, 0.2, 0.01), 0.75)
        got = enumerate_expected_exponential(p, "sparse")
        ref = sparse_expected_exponential(p)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_fastswitch_matches_weighted_closed_form_uniform(self):
        p = ModelParams(4, 2, (0.3, 0.8, 0.1, 0.55), 0.4)
        b = survivor_rates(p, UNIFORM_TIE_BREAK)
        got = enumerate_expected_exponential(p, "fastswitch")
        ref = weighted_expected_exponential(p, b)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_fastswitch_matches_weighted_closed_form_table(self):
        table = {
            frozenset({1, 2}): {1: 0.3, 2: 0.7},
            frozenset({1, 3}): {1: 0.5, 3: 0.5},
            frozenset({2, 3}): {2: 1.0, 3: 0.0},
            frozenset({1, 2, 3}): {1: 0.2, 2: 0.3, 3: 0.5},
        }
        rule = TieBreakRule(table)
        p = ModelParams(3, 1, (0.4, 0.6, 0.25), 0.6)
        b = survivor_rates(p, rule)
        got = enumerate_expected_exponential(p, "fastswitch", rule)
        ref = weighted_expected_exponential(p, b)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_full_model_against_sampled_average(self):
        # independent cross-check through the snapshot generator: average
        # the Taylor kernel over sampled snapshots and compare loosely
        p = ModelParams(3, 1, (0.7, 0.2, 0.5), 0.4)
        exact = enumerate_expected_exponential(p, "full")
        rng = np.random.default_rng(2024)
        trials = 20000
        acc = np.zeros((3, 3))
        for _ in range(trials):
            L = snapshot_laplacian(generate_snapshot(p, rng))
            acc += taylor_expm(L, 2 * p.dt)
        acc /= trials
        assert np.max(np.abs(acc - exact)) < 0.02

    def test_doubly_stochastic_output(self):
        p = ModelParams(4, 1, (0.25, 0.5, 0.125, 0.4), 0.9)
        for model in ("full", "fastswitch"):
            E = enumerate_expected_exponential(p, model)
            assert np.max(np.abs(E.sum(axis=1) - 1.0)) < 1e-12
            assert np.max(np.abs(E - E.T)) < 1e-13

    def test_size_guard_refuses_before_work(self):
        p = ModelParams(10, 4, (0.05,) * 10, 1.0)
        assert enumeration_size(p, "full") > MAX_BRANCHES
        with pytest.raises(ValueError, match="branches"):
            enumerate_expected_exponential(p, "full")


class TestFastSwitchInequality:
    def test_holds_on_small_grid(self):
        p = ModelParams(4, 2, (0.35, 0.2, 0.5, 0.15), 0.5)
        report = verify_fast_switch_inequality(p, UNIFORM_TIE_BREAK, (0.01, 0.05, 0.1))
        assert report.holds_all
        assert report.first_violation is None
        assert len(report.samples) == 3
        for s in report.samples:
            assert s.gap == pytest.approx(s.lambda_fastswitch - s.lambda_full, abs=1e-15)
            assert s.holds

    def test_violations_reported_with_the_smallest_T(self, monkeypatch):
        # No real violation is known at these scales, so a fake eigenvalue
        # puts the fastswitch value below the full model's at T = 0.1 and
        # T = 0.05. Each T takes two calls: the full model's, then the
        # fastswitch variant's.
        exact = validation.lambda_second_largest
        calls = []

        def fake(M):
            calls.append(M)
            return exact(M) - (1.0 if len(calls) in (2, 4) else 0.0)

        monkeypatch.setattr(validation, "lambda_second_largest", fake)
        p = ModelParams(4, 2, (0.35, 0.2, 0.5, 0.15), 0.5)
        report = verify_fast_switch_inequality(p, UNIFORM_TIE_BREAK, (0.1, 0.05, 0.2))
        assert len(calls) == 6
        assert not report.holds_all
        assert report.first_violation == 0.05
        assert [s.holds for s in report.samples] == [False, False, True]
        assert report.samples[1].gap == pytest.approx(-1.0, abs=0.1)

    def test_rejects_nonpositive_grid(self):
        p = ModelParams(4, 2, (0.35, 0.2, 0.5, 0.15), 0.5)
        with pytest.raises(ValueError):
            verify_fast_switch_inequality(p, UNIFORM_TIE_BREAK, (0.1, 0.0))

    def test_oversized_probe_refused(self):
        p = ModelParams(12, 5, (0.05,) * 12, 0.5)
        with pytest.raises(ValueError, match="branches"):
            verify_fast_switch_inequality(p, UNIFORM_TIE_BREAK, (0.1,))
