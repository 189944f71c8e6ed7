import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adn_consensus import (
    VARIANTS,
    FastSwitch,
    Full,
    ModelParams,
    Sparse,
    TieBreakRule,
    UNIFORM_TIE_BREAK,
    activation_expectation,
    convergence_bound,
    decay_bound,
    gamma_fs,
    gamma_sp,
    lambda_second_largest,
    sparse_expected_exponential,
    survivor_rates,
    symmetrize,
)
from adn_consensus import spectral
from adn_consensus.cli import N_LIMIT, draw_activity_rates, parse_config, resolve_config
from adn_consensus.closed_form import activation_entries
from adn_consensus.spectral import _activation_mixture, enumerated_survivor_rates
from oracles import (
    bruteforce_poisson_binomial,
    dense_bound,
    exhaustive_survivor_rates,
    jacobi_eigenvalues,
    lambda_second_deflated,
    leave_one_out_survivor_rates,
    per_centre_mixture,
    poisson_binomial_pmf,
    projected_top_eigenvalue,
    recurrence_survivor_rates,
)

CERTIFY_BOUND = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "certify_bound.json"


class TestLambdaSecond:
    def test_diagonal_examples(self):
        assert lambda_second_largest(np.diag([3.0, 7.0, 7.0])) == pytest.approx(7.0)
        assert lambda_second_largest(np.diag([3.0, 7.0])) == pytest.approx(3.0)

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            lambda_second_largest(np.array([[2.0]]))
        with pytest.raises(ValueError):
            lambda_second_deflated(np.array([[2.0]]))

    def test_against_jacobi_rotations(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            M = symmetrize(rng.normal(size=(n, n)))
            ref = jacobi_eigenvalues(M)[-2]
            assert abs(lambda_second_largest(M) - ref) < 1e-10

    def test_deflated_agrees_on_consensus_preserving_kernels(self):
        p = ModelParams(5, 2, (0.05, 0.1, 0.02, 0.2, 0.01), 0.8)
        E = sparse_expected_exponential(p)
        assert abs(lambda_second_deflated(E) - lambda_second_largest(E)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 50, 400])
    def test_deflated_matches_dense_projector(self, n):
        # convex mixtures of permutation matrices (doubly stochastic, not
        # symmetric), and general matrices, whose row and column means differ
        rng = np.random.default_rng(n)
        perms = [np.eye(n)[rng.permutation(n)] for _ in range(4)]
        for M in (
            sum(w * P for w, P in zip(rng.dirichlet(np.ones(4)), perms)),
            rng.normal(size=(n, n)),
            rng.uniform(0.0, 1.0, (n, n)) + np.arange(n),
        ):
            ref = projected_top_eigenvalue(M)
            assert abs(lambda_second_deflated(M) - ref) <= 1e-13 * np.max(np.abs(M))

    @pytest.mark.parametrize("model", ["sparse", "fastswitch"])
    def test_deflated_matches_dense_projector_on_certify_mixture(self, model):
        p, _, _ = resolve_config(parse_config(json.loads(CERTIFY_BOUND.read_text())))
        S = _activation_mixture(p, np.asarray(VARIANTS[model](p).weights(), dtype=np.float64))
        ref = projected_top_eigenvalue(S)
        assert abs(lambda_second_deflated(S) - ref) <= 1e-13 * np.max(np.abs(S))

    def test_deflated_scope_is_narrower(self):
        # diag(5, 1) does not have the all-ones vector on top, so the two
        # definitions intentionally disagree there
        D = np.diag([5.0, 1.0])
        assert lambda_second_largest(D) == pytest.approx(1.0)
        assert lambda_second_deflated(D) == pytest.approx(3.0)


class TestConvergenceBound:
    def test_k_zero(self):
        assert convergence_bound(0.8, 0.2, 0.5, 0) == pytest.approx(4.0)

    def test_frozen_value(self):
        got = convergence_bound(2.0, 0.5, 0.9, 10)
        assert abs(got - 1.3947137604000001) < 1e-15

    def test_log_domain_cross_check(self):
        got = convergence_bound(3.0, 0.7, 0.85, 40)
        ref = math.exp(math.log(3.0 / 0.7) + 40 * math.log(0.85))
        assert got == pytest.approx(ref, rel=1e-12)

    def test_may_exceed_one(self):
        assert convergence_bound(10.0, 0.1, 1.0, 5) == pytest.approx(100.0)

    def test_zero_eigenvalue(self):
        assert convergence_bound(1.0, 0.5, 0.0, 3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_bound(1.0, 0.0, 0.5, 1)
        with pytest.raises(ValueError):
            convergence_bound(-1.0, 0.5, 0.5, 1)
        with pytest.raises(ValueError):
            convergence_bound(1.0, 0.5, -0.5, 1)
        with pytest.raises(ValueError):
            convergence_bound(1.0, 0.5, 0.5, -1)


class TestPoissonBinomial:
    def test_empty(self):
        assert np.array_equal(poisson_binomial_pmf([]), [1.0])

    def test_two_fair_coins(self):
        assert np.allclose(poisson_binomial_pmf([0.5, 0.5]), [0.25, 0.5, 0.25], atol=1e-15)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_matches_bruteforce(self, probs):
        got = poisson_binomial_pmf(probs)
        ref = bruteforce_poisson_binomial(probs)
        assert np.max(np.abs(got - ref)) < 1e-12

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, probs):
        assert abs(poisson_binomial_pmf(probs).sum() - 1.0) < 1e-12

    def test_stack_of_vectors_refused(self):
        with pytest.raises(ValueError, match="one vector"):
            poisson_binomial_pmf(np.zeros((3, 4)))


@st.composite
def rate_vectors(draw, max_n=300):
    """Activity rates from 1e-300 up to 1, exact 1 and within an ulp of it
    included, with sum(a) from about 0 up to n."""
    n = draw(st.integers(2, max_n))
    upper = draw(st.sampled_from([2.0 / n, 1.0]))
    rate = st.one_of(
        st.sampled_from([1e-300, 1.0, 1.0 - 1e-9, 1.0 - 2**-53, 0.5]),
        st.floats(1e-300, upper),
    )
    return tuple(draw(st.lists(rate, min_size=n, max_size=n)))


class TestSurvivorRates:
    def test_frozen_two_node_value(self):
        p = ModelParams(2, 1, (0.5, 0.5), 1.0)
        b = survivor_rates(p)
        assert np.allclose(b, [0.375, 0.375], atol=1e-15)

    def test_all_always_active(self):
        p = ModelParams(4, 1, (1.0,) * 4, 1.0)
        b = survivor_rates(p)
        assert np.allclose(b, [0.25] * 4, atol=1e-14)

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_dp_matches_exhaustive(self, n, data):
        a = tuple(
            data.draw(st.floats(1e-6, 1.0, allow_nan=False)) for _ in range(n)
        )
        p = ModelParams(n, 1, a, 1.0)
        ref = exhaustive_survivor_rates(a)
        got = survivor_rates(p)
        assert np.max(np.abs(got - ref)) < 1e-12
        enumerated = enumerated_survivor_rates(p)
        assert np.max(np.abs(enumerated - ref)) < 1e-12

    @given(st.integers(2, 10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_total_is_probability_of_any_activation(self, n, data):
        a = tuple(
            data.draw(st.floats(1e-6, 1.0, allow_nan=False)) for _ in range(n)
        )
        p = ModelParams(n, 1, a, 1.0)
        b = survivor_rates(p)
        none_active = math.prod(1.0 - x for x in a)
        assert abs(b.sum() - (1.0 - none_active)) < 1e-12

    def test_uniform_rates_at_n_300_match_leave_one_out_pmfs(self):
        n = 300
        a = np.random.default_rng(300).uniform(0.0, 1.0, n)
        p = ModelParams(n, 1, tuple(a), 1.0)
        ref = leave_one_out_survivor_rates(a, poisson_binomial_pmf)
        got = survivor_rates(p)
        assert np.max(np.abs(got - ref) / ref) < 1e-14

    @pytest.mark.parametrize(
        "kind", ["uniform", "half", "near_half", "with_ones", "clamped", "tiny_and_near_one", "mixed"]
    )
    def test_deconvolution_matches_leave_one_out_loop(self, kind):
        rng = np.random.default_rng(len(kind))
        draws = {
            "uniform": lambda n: rng.uniform(0.0, 1.0, n),
            "half": lambda n: np.full(n, 0.5),
            "near_half": lambda n: 0.5 + rng.uniform(-1e-3, 1e-3, n),
            "with_ones": lambda n: rng.choice([1.0, 0.5, rng.uniform()], n),
            "clamped": lambda n: rng.choice([1e-300, 0.5, 1.0, rng.uniform()], n),
            "tiny_and_near_one": lambda n: rng.choice([1e-9, 1e-300, 1.0 - 1e-9, 0.999], n),
        }
        parts = list(draws.values())
        draws["mixed"] = lambda n: np.concatenate([draw(n // len(parts)) for draw in parts])
        for n in (2, 3, 17, 150) if kind != "mixed" else (600,):
            a = rng.permutation(draws[kind](n))
            p = ModelParams(len(a), 1, tuple(a), 1.0)
            got = survivor_rates(p)
            ref = leave_one_out_survivor_rates(a, poisson_binomial_pmf)
            assert np.max(np.abs(got - ref) / ref) < 1e-13, n

    @pytest.mark.parametrize("upper", [2.0 / N_LIMIT, 1.0])
    def test_total_and_memory_at_the_size_limit(self, upper):
        a = draw_activity_rates(N_LIMIT, upper, 2025)
        p = ModelParams(N_LIMIT, 1, a, 1.0)
        tracemalloc.start()
        try:
            b = survivor_rates(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        none_active = float(np.prod(1.0 - np.asarray(a)))
        assert abs(b.sum() - (1.0 - none_active)) < 1e-12
        assert peak < 16 * 2**20, peak

    def test_enumeration_is_chunked_at_n_18(self):
        # 2**18 activation sets: a (2**n, n) float64 array alone would be
        # 38 MB; the law is taken in chunks of about STACK_BYTES
        a = tuple(np.linspace(0.01, 0.5, 18).tolist())
        p = ModelParams(18, 1, a, 1.0)
        tracemalloc.start()
        try:
            b = enumerated_survivor_rates(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        assert np.max(np.abs(b - survivor_rates(p))) <= 1e-12

    def test_gauss_rule_is_exact_on_polynomials(self):
        u, w = spectral._gauss_legendre()
        k = np.arange(32)  # 16 nodes integrate degree 31 exactly
        assert np.max(np.abs((w[:, None] * u[:, None] ** k).sum(axis=0) * (k + 1) - 1.0)) <= 1e-15

    @given(rate_vectors())
    @example((1.0,) * 300)  # sum(a) = n
    @example((1.0 - 1e-9,) * 250)
    @example((1e-300,) * 40)
    @example((1.0, 1e-300, 1.0 - 2**-53, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_quadrature_matches_recurrence(self, a):
        got = survivor_rates(ModelParams(len(a), 1, a, 1.0))
        ref = recurrence_survivor_rates(a)
        assert np.max(np.abs(got - ref) / ref) <= 1e-13

    def test_uniform_table_matches_uniform_mode(self):
        n = 4
        table = {}
        for mask in range(1 << n):
            members = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            if len(members) >= 2:
                table[members] = {i: 1.0 / len(members) for i in members}
        p = ModelParams(n, 2, (0.3, 0.8, 0.1, 0.55), 1.0)
        got = survivor_rates(dataclasses.replace(p, rule=TieBreakRule(table)))
        ref = survivor_rates(p)
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_biased_table_shifts_mass(self):
        table = {frozenset({1, 2}): {1: 1.0, 2: 0.0}}
        p = ModelParams(2, 1, (0.5, 0.5), 1.0, TieBreakRule(table))
        b = survivor_rates(p)
        # node 1 survives alone (0.25) or wins every tie (0.25)
        assert np.allclose(b, [0.5, 0.25], atol=1e-15)

    def test_table_mode_size_guard(self):
        rule = TieBreakRule({frozenset({1, 2}): {1: 0.5, 2: 0.5}})
        p = ModelParams(21, 1, (0.01,) * 21, 1.0, rule)
        with pytest.raises(ValueError, match="refused"):
            survivor_rates(p)

    def test_table_mode_missing_set_raises(self):
        rule = TieBreakRule({frozenset({1, 2}): {1: 0.5, 2: 0.5}})
        p = ModelParams(3, 1, (0.5, 0.5, 0.5), 1.0, rule)
        with pytest.raises(ValueError, match="missing"):
            survivor_rates(p)


class TestKernelWeights:
    def test_sparse_weights_are_the_rates(self):
        p = ModelParams(4, 2, (0.1, 0.2, 0.3, 0.15), 1.0)
        assert Sparse(p).weights() == p.a
        assert Sparse(p).bound() == decay_bound(p, p.a, "sparse") == gamma_sp(p)

    def test_sparse_refuses_rate_sum_above_one(self):
        p = ModelParams(3, 1, (0.5, 0.6, 0.7), 1.0)
        with pytest.raises(ValueError, match=r"^activity: rate sum .* exceeds 1"):
            Sparse(p)
        assert Full(p).bound() is None

    def test_fastswitch_weights_are_the_survivor_rates(self):
        n = 4
        table = {}
        for mask in range(1 << n):
            members = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            if len(members) >= 2:
                table[members] = {i: i / sum(members) for i in members}
        p = ModelParams(n, 2, (0.3, 0.8, 0.1, 0.55), 1.0)
        for rule in (UNIFORM_TIE_BREAK, TieBreakRule(table)):
            q = dataclasses.replace(p, rule=rule)
            v = FastSwitch(q)
            assert np.array_equal(v.weights(), survivor_rates(q))
            assert v.bound() == decay_bound(q, survivor_rates(q), "fastswitch") == gamma_fs(q)

    def test_full_bound_is_the_sparse_one_while_sum_a_is_at_most_one(self):
        # Full has several stars a period; its bound is gamma_sp, which
        # simulate labels by its kind as the sparse-regime approximation
        p = ModelParams(4, 2, (0.1, 0.2, 0.3, 0.15), 1.0)
        assert Full(p).bound() == gamma_sp(p)
        assert Full(p).bound().kind == "sparse"


def deflated_rate_oracle(p: ModelParams, weights) -> float:
    """Recompute 1 - sum(w) + lambda_max(P S P) with Jacobi rotations."""
    S = per_centre_mixture(activation_expectation, p, weights)
    P = np.eye(p.n) - np.full((p.n, p.n), 1.0 / p.n)
    lam = jacobi_eigenvalues(symmetrize(P @ S @ P))[-1]
    return 1.0 - float(np.sum(weights)) + lam


@st.composite
def mixture_cases(draw, max_n=10):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, n - 1))
    dt = draw(st.floats(0.0, 3.0))
    w = [draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0 / n))) for _ in range(n)]
    return ModelParams(n, m, (0.5 / n,) * n, dt), np.array(w)


class TestActivationMixture:
    @given(mixture_cases())
    @example((ModelParams(2, 1, (0.25, 0.25), 0.7), np.array([0.3, 0.0])))
    @example((ModelParams(5, 4, (0.1,) * 5, 1.1), np.array([0.0, 0.2, 0.0, 0.05, 0.15])))
    @example((ModelParams(4, 3, (0.1,) * 4, 0.4), np.zeros(4)))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_centre_sum(self, case):
        p, w = case
        got = _activation_mixture(p, w)
        ref = per_centre_mixture(activation_expectation, p, w)
        assert np.max(np.abs(got - ref)) <= 1e-14

    @pytest.mark.parametrize("model", ["sparse", "fastswitch"])
    def test_certify_bounds_match_per_centre_path(self, model):
        p, _, _ = resolve_config(parse_config(json.loads(CERTIFY_BOUND.read_text())))
        got = gamma_sp(p) if model == "sparse" else gamma_fs(p)
        w = np.asarray(VARIANTS[model](p).weights(), dtype=np.float64)
        lam = lambda_second_deflated(per_centre_mixture(activation_expectation, p, w))
        ref = 1.0 - float(w.sum()) + lam
        assert abs(got.rate - ref) <= 1e-12 * ref


class TestDecayBounds:
    def test_gamma_sp_fields_and_oracle(self):
        p = ModelParams(6, 2, (0.05, 0.1, 0.02, 0.2, 0.01, 0.07), 1.2)
        bound = gamma_sp(p)
        assert bound.kind == "sparse"
        assert bound.weight_sum == pytest.approx(p.rate_sum, abs=1e-15)
        assert bound.rate == pytest.approx(
            1.0 - bound.weight_sum + bound.lambda_second, abs=1e-15
        )
        assert abs(bound.rate - deflated_rate_oracle(p, np.array(p.a))) < 1e-10
        assert 0.0 < bound.rate < 1.0

    def test_gamma_sp_rejects_large_rates(self):
        p = ModelParams(3, 1, (0.5, 0.6, 0.7), 1.0)
        with pytest.raises(ValueError):
            gamma_sp(p)

    def test_gamma_sp_is_one_at_dt_zero(self):
        p = ModelParams(5, 2, (0.1,) * 5, 0.0)
        assert gamma_sp(p).rate == pytest.approx(1.0, abs=1e-13)

    def test_gamma_fs_fields_and_oracle(self):
        p = ModelParams(5, 2, (0.3, 0.8, 0.1, 0.55, 0.2), 0.05)
        bound = gamma_fs(p)
        b = survivor_rates(p)
        assert bound.kind == "fastswitch"
        assert bound.weight_sum == pytest.approx(float(b.sum()), abs=1e-14)
        assert abs(bound.rate - deflated_rate_oracle(p, b)) < 1e-10
        assert 0.0 < bound.rate < 1.0

    def test_gamma_fs_is_one_at_dt_zero(self):
        p = ModelParams(4, 1, (0.4,) * 4, 0.0)
        assert gamma_fs(p).rate == pytest.approx(1.0, abs=1e-13)

    def test_gamma_fs_accepts_rate_sum_above_one(self):
        p = ModelParams(4, 2, (0.9, 0.8, 0.9, 0.7), 0.1)
        bound = gamma_fs(p)
        assert 0.0 < bound.rate <= 1.0


class CountedSubtractions(np.ndarray):
    """A weight vector that counts the numpy subtractions made on it: the
    secular solver makes one, ``rest - x``, per evaluation of its function."""

    count = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.subtract:
            CountedSubtractions.count += 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def secular_evaluations(w) -> int:
    CountedSubtractions.count = 0
    spectral._top_projected_diagonal(np.asarray(w, dtype=np.float64).view(CountedSubtractions))
    return CountedSubtractions.count


@st.composite
def weight_vectors(draw, max_n=60):
    """Weights in [0, 1] drawn from a few values, so that ties and zeros
    are common."""
    n = draw(st.integers(2, max_n))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=n))
    return np.array(draw(st.lists(st.sampled_from([0.0, *values]), min_size=n, max_size=n)))


class TestSecularBound:
    @pytest.mark.parametrize("model", ["sparse", "fastswitch"])
    @given(mixture_cases(max_n=40))
    @example((ModelParams(2, 1, (0.25, 0.25), 0.7), np.array([0.3, 0.1])))  # n = 2
    @example((ModelParams(6, 2, (0.1,) * 6, 0.9), np.full(6, 0.15)))  # all equal
    @example((ModelParams(5, 2, (0.1,) * 5, 0.4), np.array([0.1, 0.0, 0.2, 0.05, 0.3])))  # a 0
    @example((ModelParams(5, 4, (0.1,) * 5, 50.0), np.array([0.0, 0.2, 0.1, 0.05, 0.15])))  # m=n-1
    @example((ModelParams(7, 3, (0.1,) * 7, 2.0), np.linspace(0.0, 0.14, 7)))  # xi < 0
    @example((ModelParams(4, 2, (0.1,) * 4, 0.0), np.array([0.1, 0.2, 0.3, 0.4])))  # dt = 0
    @example((ModelParams(9, 4, (0.1,) * 9, 1e3), np.array([0.1] * 8 + [0.02])))
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_bound(self, model, case):
        p, w = case
        got, ref = decay_bound(p, w, model), dense_bound(p, w, model)
        assert got.kind == ref.kind == model
        assert got.weight_sum == ref.weight_sum
        assert abs(got.lambda_second - ref.lambda_second) <= 1e-13
        assert abs(got.rate - ref.rate) <= 1e-13

    @pytest.mark.parametrize("m, dt, sign", [(3, 2.0, -1.0), (3, 0.0, 0.0), (4, 50.0, None)])
    def test_sign_of_xi(self, m, dt, sign):
        # xi is < 0 on every kernel tried and 0 at dt = 0; at m = n - 1 and
        # large dt it is 0 up to rounding
        dc, do, edge, pair = activation_entries(ModelParams(5, m, (0.1,) * 5, dt))
        xi = dc - do - 2.0 * (edge - pair)
        assert np.sign(xi) == sign if sign is not None else abs(xi) <= 1e-15

    @pytest.mark.parametrize("w", [
        [0.3, 0.1], [0.2, 0.2, 0.2], [0.0, 0.0, 0.1, 0.3], [0.1, 0.4, 0.4, 0.0],
        [0.05, 0.2, 0.1, 0.15, 0.0, 0.3], [1e-300, 0.0, 0.5],
    ])
    def test_top_and_bottom_match_dense_eigenvalues(self, w):
        w = np.array(w)
        n = len(w)
        # orthonormal basis of the complement of the all-ones vector
        Q = np.linalg.qr(np.column_stack([np.ones(n), np.eye(n)[:, : n - 1]]))[0][:, 1:]
        ref = np.linalg.eigvalsh(Q.T @ np.diag(w) @ Q)
        assert abs(spectral._top_projected_diagonal(w) - ref[-1]) <= 1e-15
        assert abs(-spectral._top_projected_diagonal(-w) - ref[0]) <= 1e-15

    def test_no_dense_mixture_or_eigen_solve(self, monkeypatch):
        def refused(*_):
            raise AssertionError("dense step on the bound path")

        p, _, _ = resolve_config(parse_config(json.loads(CERTIFY_BOUND.read_text())))
        ref = [dense_bound(p, cls(p).weights(), cls.name) for cls in (Sparse, FastSwitch)]
        monkeypatch.setattr(spectral, "_activation_mixture", refused)
        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        for got, dense in zip((gamma_sp(p), gamma_fs(p)), ref):
            assert abs(got.rate - dense.rate) <= 1e-15

    @given(weight_vectors())
    @example(np.array([0.3, 0.3, 0.1]))  # a shared top
    @example(np.array([0.0, 0.0, 0.2]))  # a shared bottom
    @example(np.zeros(5))
    @settings(max_examples=80, deadline=None)
    def test_solver_matches_dense_eigenvalues(self, w):
        # top and, through -w, bottom (the xi < 0 side) off the ones vector;
        # with w >= 0 the ones vector's eigenvalue 0 is the smallest
        n = len(w)
        P = np.eye(n) - np.full((n, n), 1.0 / n)
        ref = np.linalg.eigvalsh(P @ np.diag(w) @ P)
        assert abs(spectral._top_projected_diagonal(w) - ref[-1]) <= 1e-14
        assert abs(-spectral._top_projected_diagonal(-w) - ref[1]) <= 1e-14

    def test_few_secular_evaluations(self):
        # Bisection needs about 50 evaluations at any n; the rational steps
        # took 5 on each certify weight vector and at most 9 over 40,000
        # random ones (n up to 20,000, both signs).
        p, _, _ = resolve_config(parse_config(json.loads(CERTIFY_BOUND.read_text())))
        certify = [np.asarray(cls(p).weights()) for cls in (Sparse, FastSwitch)]
        assert [secular_evaluations(s * w) for w in certify for s in (1, -1)] == [5] * 4
        rng = np.random.default_rng(23)
        counts = []
        for _ in range(400):
            n = int(rng.integers(2, 2_000))
            spread = rng.uniform(0.0, 1.0, n) ** rng.uniform(0.1, 20.0)
            ties = rng.choice(rng.uniform(0.0, 1.0, int(rng.integers(1, n + 1))), n)
            close = rng.uniform(0.0, 1.0, n)
            close[0] = close.max() * (1.0 + 10.0 ** -rng.integers(1, 16))
            counts += [secular_evaluations(s * w) for w in (spread, ties, close) for s in (1, -1)]
        assert 0 < max(counts) <= 10

    @pytest.mark.parametrize("bound", [gamma_sp, gamma_fs])
    def test_memory_is_a_few_vectors_at_n_1e5(self, bound):
        n = 100_000
        p = ModelParams(n, 3, draw_activity_rates(n, 1.9 / n, 2025), 0.5)
        tracemalloc.start()
        try:
            bound(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 8 * n, peak  # 16 float64 n-vectors

    def test_memory_is_one_kernel_and_fields_are_floats(self):
        n = 2_000
        p = ModelParams(n, 3, tuple(np.linspace(1e-6, 9e-4, n)), 0.5)
        tracemalloc.start()
        try:
            bound = gamma_sp(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * n
        assert all(type(x) is float for x in (bound.rate, bound.lambda_second, bound.weight_sum))
