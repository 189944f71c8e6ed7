import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adn_consensus import (
    ModelParams,
    StarSpec,
    activation_expectation,
    sparse_expected_exponential,
    star_exponential,
    weighted_expected_exponential,
)
from oracles import star_laplacian_ints, taylor_expm


@st.composite
def star_specs(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    center = draw(st.integers(1, n))
    rest = [i for i in range(1, n + 1) if i != center]
    m = draw(st.integers(1, n - 1))
    neighbors = draw(st.permutations(rest))[:m]
    return StarSpec(n, center, tuple(sorted(neighbors)))


@st.composite
def small_params(draw, max_n=6, sparse=False):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, n - 1))
    cap = 1.0 / n if sparse else 1.0
    a = tuple(
        draw(st.floats(1e-6, cap, allow_nan=False, allow_infinity=False))
        for _ in range(n)
    )
    dt = draw(st.floats(0.0, 3.0))
    return ModelParams(n, m, a, dt)


class TestStarExponential:
    @given(star_specs(), st.floats(0.0, 4.0))
    @settings(max_examples=80, deadline=None)
    def test_matches_taylor_series(self, spec, t):
        got = star_exponential(spec, t)
        ref = taylor_expm(star_laplacian_ints(spec.n, spec.center, spec.neighbors), t)
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_frozen_center_entry_single_edge(self):
        # one edge, t = 1: the center diagonal is (1 + e**-2)/2; the frozen
        # decimal is the exact value to 17 digits, so allow a last-place
        # rounding of the double evaluation
        E = star_exponential(StarSpec(2, 1, (2,)), 1.0)
        assert abs(E[0, 0] - 0.56766764161830635) < 5e-16

    def test_identity_at_t_zero(self):
        E = star_exponential(StarSpec(6, 2, (1, 4, 5)), 0.0)
        assert np.array_equal(E, np.eye(6))

    def test_untouched_rows_exactly_identity(self):
        E = star_exponential(StarSpec(6, 2, (1, 4)), 1.3)
        for i in (2, 5):
            row = np.zeros(6)
            row[i] = 1.0
            assert np.array_equal(E[i], row)
            assert np.array_equal(E[:, i], row)

    @given(star_specs(), st.floats(0.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_doubly_stochastic_symmetric_nonnegative(self, spec, t):
        E = star_exponential(spec, t)
        assert np.max(np.abs(E - E.T)) == 0.0
        assert np.all(E >= -1e-15)
        assert np.max(np.abs(E.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(E.sum(axis=0) - 1.0)) < 1e-12

    def test_rejects_negative_or_nonfinite_time(self):
        spec = StarSpec(3, 1, (2,))
        with pytest.raises(ValueError):
            star_exponential(spec, -0.1)
        with pytest.raises(ValueError):
            star_exponential(spec, math.inf)


def subset_average_oracle(p: ModelParams, center: int) -> np.ndarray:
    """Average the true star kernel over every m-subset via Taylor series."""
    others = [j for j in range(1, p.n + 1) if j != center]
    T = 2.0 * p.dt
    acc = np.zeros((p.n, p.n))
    cnt = 0
    for N in combinations(others, p.m):
        acc += taylor_expm(star_laplacian_ints(p.n, center, N), T)
        cnt += 1
    return acc / cnt


class TestActivationExpectation:
    def test_matches_subset_average_small_grid(self):
        for n in range(2, 6):
            for m in range(1, n):
                for dt in (0.25, 1.0, 2.0):
                    p = ModelParams(n, m, (0.5 / n,) * n, dt)
                    for i in range(1, n + 1):
                        got = activation_expectation(p, i)
                        ref = subset_average_oracle(p, i)
                        assert np.max(np.abs(got - ref)) < 1e-12, (n, m, dt, i)

    def test_identity_at_dt_zero(self):
        p = ModelParams(5, 2, (0.1,) * 5, 0.0)
        assert np.array_equal(activation_expectation(p, 3), np.eye(5))

    @given(small_params())
    @settings(max_examples=60, deadline=None)
    def test_doubly_stochastic_and_symmetric(self, p):
        for i in (1, p.n):
            M = activation_expectation(p, i)
            assert np.max(np.abs(M - M.T)) == 0.0
            assert np.all(M >= -1e-15)
            assert np.max(np.abs(M.sum(axis=1) - 1.0)) < 1e-12

    def test_exchangeable_structure(self):
        # all non-center nodes are interchangeable, so the matrix has only
        # four distinct values: center diag, other diag, center row, rest
        p = ModelParams(6, 3, (0.1,) * 6, 0.7)
        M = activation_expectation(p, 2)
        c = 1
        others = [k for k in range(6) if k != c]
        assert len({round(M[k, k], 15) for k in others}) == 1
        assert len({round(M[c, k], 15) for k in others}) == 1
        pair_vals = {round(M[k, l], 15) for k in others for l in others if k != l}
        assert len(pair_vals) == 1

    @given(small_params(max_n=9))
    @example(ModelParams(2, 1, (0.5, 0.5), 0.5))
    @example(ModelParams(6, 5, (0.1,) * 6, 1.3))
    @example(ModelParams(7, 1, (0.1,) * 7, 0.0))
    @settings(max_examples=60, deadline=None)
    def test_every_centre_is_centre_one_relabelled(self, p):
        # the O(n^2) activation mixture reads all n kernels off the
        # centre-1 one, with nodes 1 and i swapped
        K1 = activation_expectation(p, 1)
        for i in range(1, p.n + 1):
            perm = np.arange(p.n)
            perm[0], perm[i - 1] = i - 1, 0
            assert np.array_equal(activation_expectation(p, i), K1[np.ix_(perm, perm)]), i

    def test_rejects_center_out_of_range(self):
        p = ModelParams(4, 2, (0.1,) * 4, 1.0)
        with pytest.raises(ValueError):
            activation_expectation(p, 0)
        with pytest.raises(ValueError):
            activation_expectation(p, 5)


class TestWeightedExpectedExponential:
    def test_two_node_hand_computation(self):
        p = ModelParams(2, 1, (0.3, 0.4), 0.8)
        T = 2 * 0.8
        x = math.exp(-2 * T)
        off = (1 - x) / 2
        M = np.array([[1 - off, off], [off, 1 - off]])
        ref = 0.3 * np.eye(2) + 0.3 * M + 0.4 * M
        got = weighted_expected_exponential(p, (0.3, 0.4))
        assert np.max(np.abs(got - ref)) < 1e-15

    def test_rejects_bad_weights(self):
        p = ModelParams(3, 1, (0.2,) * 3, 1.0)
        with pytest.raises(ValueError):
            weighted_expected_exponential(p, (0.1, 0.2))
        with pytest.raises(ValueError):
            weighted_expected_exponential(p, (-0.1, 0.2, 0.3))
        with pytest.raises(ValueError):
            weighted_expected_exponential(p, (0.5, 0.5, 0.5))

    def test_weights_summing_to_one_allowed(self):
        p = ModelParams(3, 1, (0.2,) * 3, 1.0)
        E = weighted_expected_exponential(p, (0.5, 0.25, 0.25))
        assert np.max(np.abs(E.sum(axis=1) - 1.0)) < 1e-12

    @given(small_params(sparse=True))
    @settings(max_examples=40, deadline=None)
    def test_sparse_kernel_properties(self, p):
        E = sparse_expected_exponential(p)
        assert np.max(np.abs(E - E.T)) == 0.0
        assert np.all(E >= -1e-15)
        assert np.max(np.abs(E.sum(axis=1) - 1.0)) < 1e-12
        # spectral radius 1, reached on the consensus line
        w = np.linalg.eigvalsh(E)
        assert w[-1] == pytest.approx(1.0, abs=1e-12)

    def test_sparse_rejects_large_rate_sum(self):
        p = ModelParams(3, 1, (0.5, 0.6, 0.7), 1.0)
        with pytest.raises(ValueError):
            sparse_expected_exponential(p)
