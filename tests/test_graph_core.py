import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adn_consensus import (
    StarSpec,
    expm_sym,
    graph_core,
    star_exponential,
    star_laplacian,
    star_laplacian_power,
    symmetrize,
)
from adn_consensus.graph_core import (
    TAYLOR_MAX_DEGREE,
    expm_action,
    stacks,
    star_union_laplacian,
    star_union_laplacians,
    taylor_plan,
)
from oracles import (
    int_matpow,
    jacobi_eigenvalues,
    star_laplacian_ints,
    star_union_laplacian_ints,
    taylor_expm,
)


@st.composite
def star_specs(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    center = draw(st.integers(1, n))
    rest = [i for i in range(1, n + 1) if i != center]
    m = draw(st.integers(1, n - 1))
    neighbors = draw(st.permutations(rest))[:m]
    return StarSpec(n, center, tuple(sorted(neighbors)))


class TestStarSpec:
    def test_basic_fields(self):
        s = StarSpec(5, 2, (4, 1))
        assert s.neighbors == (1, 4)
        assert s.m == 2

    def test_center_cannot_be_neighbor(self):
        with pytest.raises(ValueError):
            StarSpec(4, 2, (2, 3))

    def test_duplicate_neighbors_rejected(self):
        with pytest.raises(ValueError):
            StarSpec(4, 1, (2, 2))

    def test_ids_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            StarSpec(4, 0, (1, 2))
        with pytest.raises(ValueError):
            StarSpec(4, 5, (1, 2))
        with pytest.raises(ValueError):
            StarSpec(4, 1, (2, 5))

    def test_empty_neighbor_set_rejected(self):
        with pytest.raises(ValueError):
            StarSpec(4, 1, ())

    def test_fewer_than_two_nodes_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            StarSpec(1, 1, (2,))


class TestStarLaplacian:
    def test_explicit_four_node_example(self):
        L = star_laplacian(StarSpec(4, 2, (1, 4)))
        expected = np.array(
            [
                [1, -1, 0, 0],
                [-1, 2, 0, -1],
                [0, 0, 0, 0],
                [0, -1, 0, 1],
            ]
        )
        assert np.array_equal(L, expected)
        assert L.dtype == np.int64

    @given(star_specs())
    def test_rows_sum_to_zero_and_symmetric(self, spec):
        L = star_laplacian(spec)
        assert np.array_equal(L, L.T)
        assert np.array_equal(L @ np.ones(spec.n, dtype=np.int64), np.zeros(spec.n))

    @given(star_specs())
    def test_matches_entrywise_assembly(self, spec):
        L = star_laplacian(spec)
        ref = np.array(star_laplacian_ints(spec.n, spec.center, spec.neighbors))
        assert np.array_equal(L, ref)

    @given(star_specs())
    def test_positive_semidefinite(self, spec):
        w = np.linalg.eigvalsh(star_laplacian(spec).astype(float))
        assert w.min() >= -1e-12


class TestStarLaplacianPower:
    @given(star_specs(max_n=7), st.integers(1, 6))
    def test_matches_exact_integer_power(self, spec, k):
        got = star_laplacian_power(spec, k)
        ref = int_matpow(star_laplacian_ints(spec.n, spec.center, spec.neighbors), k)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.array(ref, dtype=np.int64))

    def test_k_one_is_the_laplacian(self):
        spec = StarSpec(6, 3, (1, 2, 5))
        assert np.array_equal(star_laplacian_power(spec, 1), star_laplacian(spec))

    def test_rejects_k_below_one(self):
        spec = StarSpec(3, 1, (2,))
        with pytest.raises(ValueError):
            star_laplacian_power(spec, 0)

    def test_overflow_guard(self):
        spec = StarSpec(4, 1, (2, 3))
        star_laplacian_power(spec, 40)
        with pytest.raises(OverflowError):
            star_laplacian_power(spec, 41)


class TestExpmSym:
    def test_identity_at_t_zero(self):
        L = star_laplacian(StarSpec(5, 1, (2, 3))).astype(float)
        assert np.allclose(expm_sym(L, 0.0), np.eye(5), atol=1e-14)

    @given(star_specs(max_n=6), st.floats(0.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_taylor_series_on_laplacians(self, spec, t):
        got = expm_sym(star_laplacian(spec), t)
        ref = taylor_expm(star_laplacian_ints(spec.n, spec.center, spec.neighbors), t)
        assert np.max(np.abs(got - ref)) < 1e-12

    @pytest.mark.parametrize("t", [1e6, 1e12, 1e300])
    def test_matches_star_exponential_at_large_t(self, t):
        # eigh leaves a residue on the zero eigenvalue that t would amplify
        for spec in (StarSpec(5, 2, (1, 4)), StarSpec(8, 3, (1, 2, 5, 7, 8))):
            got = expm_sym(star_laplacian(spec), t)
            assert np.max(np.abs(got - star_exponential(spec, t))) < 1e-12

    def test_zero_eigenvalues_keep_weight_one_at_infinite_t(self):
        L = star_laplacian(StarSpec(4, 1, (2, 3))).astype(float)
        E = expm_sym(L, math.inf)
        # the limit projects onto the kernel: the component {1, 2, 3} and node 4
        ref = np.zeros((4, 4))
        ref[:3, :3] = 1.0 / 3.0
        ref[3, 3] = 1.0
        assert np.max(np.abs(E - ref)) < 1e-12
        assert np.array_equal(expm_sym(np.zeros((3, 3)), math.inf), np.eye(3))

    def test_matches_taylor_on_generic_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            B = rng.normal(size=(n, n))
            M = symmetrize(B @ B.T)
            t = float(rng.uniform(0.0, 2.0))
            assert np.max(np.abs(expm_sym(M, t) - taylor_expm(M, t))) < 1e-11

    @given(star_specs(max_n=7), st.floats(0.01, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_doubly_stochastic_on_laplacians(self, spec, t):
        E = expm_sym(star_laplacian(spec), t)
        assert np.all(E > -1e-13)
        assert np.max(np.abs(E.sum(axis=0) - 1.0)) < 1e-12
        assert np.max(np.abs(E.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(E - E.T)) < 1e-13

    def test_rejects_bad_input(self):
        for shape in ((2, 3), (0, 0)):
            with pytest.raises(ValueError, match="nonempty square"):
                expm_sym(np.ones(shape), 1.0)
        M = np.eye(3)
        M[0, 1] = 1e-12
        with pytest.raises(ValueError):
            expm_sym(M, 1.0)
        with pytest.raises(ValueError):
            expm_sym(np.eye(3), -0.5)
        bad = np.eye(3)
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            expm_sym(bad, 1.0)

    def test_eigenvalues_against_jacobi(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            M = symmetrize(rng.normal(size=(n, n)))
            E = expm_sym(M, 0.7)
            ref = np.exp(-0.7 * jacobi_eigenvalues(M))
            assert np.max(np.abs(np.sort(np.linalg.eigvalsh(E)) - np.sort(ref))) < 1e-10


def _laplacian_stack() -> np.ndarray:
    """Six 6 x 6 Laplacians: stars of several sizes, a union of two stars
    and the empty graph."""
    union = star_union_laplacian(6, (StarSpec(6, 1, (2, 3)), StarSpec(6, 4, (3, 5, 6))))
    mats = [star_laplacian(s) for s in (StarSpec(6, 1, (2,)), StarSpec(6, 3, (1, 2, 5)),
                                        StarSpec(6, 6, (1, 2, 3, 4, 5)))]
    return np.array(mats + [union, np.zeros((6, 6)), 3 * union], dtype=float)


class TestExpmSymStack:
    @pytest.mark.parametrize("t", [0.0, 0.3, 1e6, 1e18, math.inf])
    def test_each_slice_equals_the_single_matrix_call(self, t):
        S = _laplacian_stack()
        E = expm_sym(S, t)
        assert E.shape == S.shape
        for M, got in zip(S, E):
            assert np.array_equal(got, expm_sym(M, t))
        # any leading shape
        assert np.array_equal(expm_sym(S.reshape(2, 3, 6, 6), t), E.reshape(2, 3, 6, 6))

    def test_zero_eigenvalue_rule_applied_per_slice(self):
        # at t = 1e4 the star's eigenvalue residue could show (t times its
        # resolution exceeds 1e-11) and the scaled-down copy's could not
        L = star_laplacian(StarSpec(6, 3, (1, 2, 5))).astype(float)
        S = np.array([L, L / 1024])
        t = 1e4
        resolution = 6 * np.finfo(float).eps * np.abs(np.linalg.eigvalsh(S)).max(axis=1)
        assert list(t * resolution > 1e-11) == [True, False]
        E = expm_sym(S, t)
        for M, got in zip(S, E):
            assert np.array_equal(got, expm_sym(M, t))
        assert np.max(np.abs(E[0] - star_exponential(StarSpec(6, 3, (1, 2, 5)), t))) < 1e-12

    def test_zero_matrix_in_stack_at_infinite_t_is_identity(self):
        S = _laplacian_stack()
        with np.errstate(all="raise"):
            E = expm_sym(S, math.inf)
        assert np.array_equal(E[4], np.eye(6))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_time_grid_equals_each_time_alone(self, stacked):
        S = _laplacian_stack()
        M = S if stacked else S[1]
        # the star of S[1] has eigenvalues up to 4: t * resolution passes
        # 1e-11 between the two times around the crossing
        resolution = 6 * np.finfo(float).eps * 4.0
        cross = 1e-11 / resolution
        times = (0.0, 0.3, cross * 0.999, cross * 1.001, math.inf)
        E = expm_sym(M, np.array(times))
        assert E.shape == (len(times),) + M.shape
        for t, got in zip(times, E):
            assert np.array_equal(got, expm_sym(M, t))
        assert expm_sym(M, np.array([])).shape == (0,) + M.shape

    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    def test_bad_time_anywhere_in_the_grid_rejected(self, bad):
        for M in (_laplacian_stack(), np.eye(3)):
            with pytest.raises(ValueError, match="time must be >= 0"):
                expm_sym(M, np.array([0.1, bad, 1.0]))
        with pytest.raises(ValueError, match="scalar or a 1-D array"):
            expm_sym(np.eye(3), np.ones((2, 2)))

    def test_one_bad_slice_rejects_the_stack(self):
        S = _laplacian_stack()
        asym = S.copy()
        asym[2, 0, 1] += 1e-12
        with pytest.raises(ValueError, match="not exactly symmetric"):
            expm_sym(asym, 1.0)
        nonfinite = S.copy()
        nonfinite[5, 3, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            expm_sym(nonfinite, 1.0)
        for shape in ((3, 2, 3), (0, 3, 3)):
            with pytest.raises(ValueError, match="nonempty square"):
                expm_sym(np.zeros(shape), 1.0)


def flat(n, centre, nbs) -> tuple:
    """``star_union_laplacians``' arguments (k, n, row, centre, nbs) for k
    graphs on n nodes of s stars each, given as (k, s) centres and (k, s, m)
    neighbours."""
    centre, nbs = np.asarray(centre), np.asarray(nbs)
    k, s = centre.shape
    return k, n, np.repeat(np.arange(k), s), centre.reshape(-1), nbs.reshape(k * s, -1)


class TestStarUnionLaplacians:
    # Graphs of two stars each on n = 5, 0-based: centres 0 and 1 picking each
    # other (one shared edge), m = n - 1 stars, and disjoint stars.
    CENTRE = np.array([[0, 1], [0, 3], [2, 4]])
    NBS = np.array([[[1, 2], [0, 4]], [[1, 2], [0, 1]], [[0, 1], [3, 1]]])

    def _specs(self, row):
        return [StarSpec(5, c + 1, tuple(N + 1)) for c, N in zip(self.CENTRE[row], self.NBS[row])]

    def test_each_slice_is_the_star_union(self):
        L = star_union_laplacians(*flat(5, self.CENTRE, self.NBS))
        assert L.shape == (3, 5, 5) and L.dtype == np.float64
        for row, got in enumerate(L):
            stars = self._specs(row)
            assert np.array_equal(got, star_union_laplacian(5, stars))
            ref = star_union_laplacian_ints(5, [(s.center, s.neighbors) for s in stars])
            assert np.array_equal(got, np.array(ref))
        # the shared edge 1-2 counts once: node 1 has degree 2, not 3
        assert L[0, 0, 0] == 2 and L[0, 0, 1] == -1

    def test_all_others_as_neighbours(self):
        n = 6
        for c in range(n):
            nbs = np.array([[j for j in range(n) if j != c]])
            got = star_union_laplacians(1, n, np.array([0]), np.array([c]), nbs)[0]
            ref = star_laplacian_ints(n, c + 1, [j + 1 for j in nbs[0]])
            assert np.array_equal(got, np.array(ref))
            assert got[c, c] == n - 1

    def test_empty_configuration_is_zero(self):
        none = np.zeros((0, 3), dtype=np.intp)
        L = star_union_laplacians(2, 4, none[:, 0], none[:, 0], none)
        assert np.array_equal(L, np.zeros((2, 4, 4)))
        assert np.array_equal(star_union_laplacian(4, ()), np.zeros((4, 4), dtype=np.int64))

    def test_self_joined_padding_adds_no_edge(self):
        # a graph padded with its last star repeated, or with a star on node 0
        # joined to itself, is the unpadded graph's Laplacian
        ref = star_union_laplacians(*flat(5, self.CENTRE[:, :1], self.NBS[:, :1]))
        repeated = star_union_laplacians(*flat(5, self.CENTRE[:, [0, 0]], self.NBS[:, [0, 0]]))
        selfed = star_union_laplacians(*flat(
            5, np.column_stack([self.CENTRE[:, 0], [0, 0, 0]]),
            np.concatenate([self.NBS[:, :1], np.zeros((3, 1, 2), dtype=int)], axis=1),
        ))
        assert np.array_equal(repeated, ref) and np.array_equal(selfed, ref)

    def test_stars_of_different_sizes(self):
        stars = (StarSpec(6, 1, (2,)), StarSpec(6, 4, (3, 5, 6)), StarSpec(6, 2, (1, 3)))
        got = star_union_laplacian(6, stars)
        assert got.dtype == np.int64
        ref = star_union_laplacian_ints(6, [(s.center, s.neighbors) for s in stars])
        assert np.array_equal(got, np.array(ref))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_flat_star_lists_match_the_integer_oracle(self, data):
        # graphs with any number of stars, none included, in any order of
        # graphs, and centres that may repeat within a graph
        n = data.draw(st.integers(2, 9))
        m = data.draw(st.integers(1, n - 1))
        k = data.draw(st.integers(1, 5))
        row = np.array(data.draw(st.lists(st.integers(0, k - 1), max_size=12)), dtype=np.intp)
        centre = np.array([data.draw(st.integers(0, n - 1)) for _ in row], dtype=np.intp)
        nbs = np.array(
            [data.draw(st.permutations([j for j in range(n) if j != c]))[:m] for c in centre],
            dtype=np.intp,
        ).reshape(len(row), m)
        L = star_union_laplacians(k, n, row, centre, nbs)
        for r in range(k):
            stars = [(c + 1, N + 1) for c, N in zip(centre[row == r], nbs[row == r])]
            assert np.array_equal(L[r], np.array(star_union_laplacian_ints(n, stars)))


@st.composite
def star_union_stacks(draw, max_n=30):
    """(L, k) a (k, n, n) stack of star-union Laplacians: k graphs of up to
    four stars each, with m neighbours a star (padded with the centre)."""
    n = draw(st.integers(2, max_n))
    k, count = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    m = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centre = rng.integers(0, n, (k, count))
    nbs = np.empty((k, count, m), dtype=np.intp)
    for r, q in np.ndindex(k, count):
        others = np.delete(np.arange(n), centre[r, q])
        nbs[r, q] = rng.choice(others, m, replace=False)
        nbs[r, q, : int(rng.integers(0, m))] = centre[r, q]  # padding adds no edge
    return star_union_laplacians(*flat(n, centre, nbs))


def remainder_bound_holds(theta: float, m: int, s: int) -> bool:
    """(theta / s)**(m+1) / (m+1)! <= 2**-53, in exact arithmetic."""
    return (Fraction(theta) / s) ** (m + 1) / math.factorial(m + 1) <= Fraction(1, 2**53)


class TestExpmAction:
    @pytest.mark.parametrize(
        "theta", [0.0, 1e-300, 1e-6, 0.01, 0.1, 0.4, 0.7, 0.99, 1.0, 1.1, 1.2, 2.0, 3.8, 12.0, 59.0, 400.0]
    )
    def test_plan_meets_the_remainder_bound(self, theta):
        m, s = taylor_plan(theta)
        assert 1 <= m <= TAYLOR_MAX_DEGREE and s >= 1
        assert remainder_bound_holds(theta, m, s)
        # the fewest steps at the largest degree, then the least degree
        assert s == 1 or not remainder_bound_holds(theta, TAYLOR_MAX_DEGREE, s - 1)
        assert m == 1 or not remainder_bound_holds(theta, m - 1, s)

    def test_one_step_of_degree_at_most_18_up_to_theta_one(self):
        assert taylor_plan(1.0) == (18, 1)
        assert all(taylor_plan(x)[1] == 1 for x in np.linspace(0.0, 1.0, 101))

    @given(star_union_stacks(), st.floats(0.0, 3.0), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_expm_sym(self, L, t, data):
        # shifted by the largest degree or by a larger mu, at the plan for
        # t * mu; within 32 ulps of ||z||_2 a step, the eigen-solve
        # reference's error included
        k, n, _ = L.shape
        seed = data.draw(st.integers(0, 2**32 - 1))
        z = np.random.default_rng(seed).uniform(-5.0, 5.0, (k, n, 1))
        mu = L.diagonal(0, 1, 2).max() * data.draw(st.sampled_from([1.0, 1.5]))
        ref = np.matmul(expm_sym(L, t), z)
        m, s = taylor_plan(t * mu)
        got = expm_action(L, t, z.copy(), m, s, mu)
        err = np.linalg.norm(got - ref, axis=1)
        assert np.all(err <= 32 * s * np.finfo(float).eps * np.linalg.norm(z, axis=1))

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_shifted_action_on_lone_and_multi_star_rows(self, data):
        # graphs of one to four stars each, as the engine stacks them, at
        # the plan it takes: within 8 ulps of ||z||_2 a step of the
        # eigen-solve e**(-t*L) z = z + V expm1(-t*w) V^T z. That form keeps
        # the identity exact; expm_sym's recomposition is itself up to about
        # 10 ulps off at n = 30 against a 40-digit reference.
        n = data.draw(st.integers(2, 30))
        spokes = data.draw(st.integers(1, n - 1))
        t = data.draw(st.floats(1e-3, 2.0))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        count = rng.integers(1, 5, data.draw(st.integers(1, 5)))
        centre = rng.integers(0, n, count.sum())
        nbs = np.array([rng.choice(np.delete(np.arange(n), c), spokes, replace=False) for c in centre])
        L = star_union_laplacians(len(count), n, np.repeat(np.arange(len(count)), count), centre, nbs)
        z = rng.uniform(-5.0, 5.0, (len(count), n, 1))
        w, V = np.linalg.eigh(L)
        mu = L.diagonal(0, 1, 2).max()
        m, s = taylor_plan(t * mu)
        got = expm_action(L, t, z.copy(), m, s, mu)
        ref = z + V @ (np.expm1(-t * w)[..., None] * (V.swapaxes(1, 2) @ z))
        err = np.linalg.norm(got - ref, axis=1)
        assert np.all(err <= 8 * s * np.finfo(float).eps * np.linalg.norm(z, axis=1))

    @pytest.mark.parametrize("m, s", [(1, 1), (3, 2), (6, 1), (18, 3)])
    def test_applies_the_degree_m_polynomial_s_times(self, m, s):
        # v = (4, -1, -1, -1, -1) is the star's eigenvector of eigenvalue 5;
        # the series is taken in L - 4I, shifted by the largest degree 4
        L = star_union_laplacians(1, 5, np.array([0]), np.array([0]), np.array([[1, 2, 3, 4]]))
        v = np.array([4.0, -1.0, -1.0, -1.0, -1.0])
        x = -0.8 * (5 - 4) / s
        poly = math.exp(-0.8 * 4 / s) * sum(x**j / math.factorial(j) for j in range(m + 1))
        got = expm_action(L, 0.8, v[None, :, None].copy(), m, s, 4.0)
        assert np.allclose(got[0, :, 0], poly**s * v, rtol=1e-14, atol=1e-14)

    def test_overwrites_and_returns_the_states_and_shifts_l(self):
        # every degree is 2: L becomes L - 2I
        L = star_union_laplacians(*flat(4, [[0, 2]], [[[1, 3], [1, 3]]]))
        before = L.copy()
        z = np.array([[[1.0], [-1.0], [0.5], [0.0]]])
        out = expm_action(L, 0.3, z, *taylor_plan(0.3 * 2), 2.0)
        assert out is z
        assert np.array_equal(L, before - 2.0 * np.eye(4))
        assert np.allclose(z[0, :, 0], expm_sym(before[0], 0.3) @ [1.0, -1.0, 0.5, 0.0], atol=1e-15)


class TestStacks:
    def test_chunks_fit_the_byte_budget_in_order(self, monkeypatch):
        monkeypatch.setattr(graph_core, "STACK_BYTES", 3 * 8 * 4 * 4)
        assert list(stacks(range(7), 4)) == [[0, 1, 2], [3, 4, 5], [6]]
        # a matrix larger than the budget still goes alone
        assert list(stacks(iter("ab"), 40)) == [["a"], ["b"]]
        assert list(stacks([], 4)) == []


class TestSymmetrize:
    def test_result_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 5))
        S = symmetrize(M)
        assert np.array_equal(S, S.T)
        assert np.allclose(S, (M + M.T) / 2.0)
