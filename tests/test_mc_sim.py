import concurrent.futures
import dataclasses
import json
import math
import os
import tracemalloc
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adn_consensus import (
    VARIANTS,
    FastSwitch,
    Full,
    ModelParams,
    Snapshot,
    StarSpec,
    Sparse,
    SurvivalCurve,
    TieBreakRule,
    UNIFORM_TIE_BREAK,
    expm_sym,
    fit_decay_stats,
    generate_snapshot,
    mc_sim,
    off_consensus_sq,
    project_off_consensus,
    run_paths,
    snapshot_laplacian,
    step,
)
from adn_consensus.adn_model import PATHS, stream
from adn_consensus.graph_core import STACK_BYTES, star_union_laplacians
from adn_consensus.cli import parse_config, resolve_config
from oracles import block_walk_survival, star_laplacian_ints, taylor_expm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BUSY = CONFIGS.parent / "perfbench" / "inputs" / "busy.json"


class TestProjection:
    def test_subtracts_mean(self):
        d = project_off_consensus([1.0, 2.0, 6.0])
        assert np.allclose(d, [-2.0, -1.0, 3.0])
        assert abs(d.sum()) < 1e-14

    def test_consensus_maps_to_zero(self):
        assert np.allclose(project_off_consensus([4.0] * 5), 0.0)

    def test_idempotent(self):
        z = np.array([0.3, -1.2, 2.0, 0.7])
        once = project_off_consensus(z)
        assert np.allclose(project_off_consensus(once), once, atol=1e-15)

    def test_squared_norm(self):
        assert off_consensus_sq([1.0, 3.0]) == pytest.approx(2.0)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_is_np_mean_bit_for_bit(self, data):
        # one state or a stack of them: the engine's norms, and so every
        # first passage, depend on these bytes
        shape = data.draw(st.sampled_from([(), (1,), (6,), (3,)])) + (data.draw(st.integers(1, 40)),)
        seed, scale = data.draw(st.integers(0, 2**32 - 1)), data.draw(st.sampled_from([1e-8, 1.0, 1e6]))
        z = np.random.default_rng(seed).uniform(-scale, scale, shape)
        assert project_off_consensus(z).tobytes() == (z - z.mean(axis=-1, keepdims=True)).tobytes()


@st.composite
def star_specs(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    center = draw(st.integers(1, n))
    rest = [i for i in range(1, n + 1) if i != center]
    m = draw(st.integers(1, n - 1))
    neighbors = draw(st.permutations(rest))[:m]
    return StarSpec(n, center, tuple(sorted(neighbors)))


class TestStep:
    def test_requires_positive_dt(self):
        s = Snapshot(3, ())
        with pytest.raises(ValueError):
            step(np.zeros(3), s, 0.0)

    def test_empty_snapshot_is_identity_copy(self):
        z = np.array([1.0, -2.0, 0.5])
        out = step(z, Snapshot(3, ()), 1.0)
        assert np.array_equal(out, z)
        assert out is not z

    @given(star_specs(), st.floats(0.05, 3.0), st.data())
    @settings(max_examples=60, deadline=None)
    def test_single_star_matches_dense_kernel(self, spec, dt, data):
        z = np.array(
            [
                data.draw(st.floats(-5.0, 5.0, allow_nan=False))
                for _ in range(spec.n)
            ]
        )
        snap = Snapshot(spec.n, (spec,))
        got = step(z, snap, dt)
        ref = expm_sym(snapshot_laplacian(snap), dt) @ z
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_multi_star_matches_taylor_kernel(self):
        ev = (StarSpec(5, 1, (2, 3)), StarSpec(5, 4, (3, 5)))
        snap = Snapshot(5, ev)
        rng = np.random.default_rng(3)
        z = rng.normal(size=5)
        L = np.zeros((5, 5), dtype=int)
        for e in ev:
            Ls = star_laplacian_ints(5, e.center, e.neighbors)
            L = L + np.array(Ls)
        # union graph here has no duplicate edges, so the sum is the union
        got = step(z, snap, 0.7)
        ref = taylor_expm(L, 0.7) @ z
        assert np.max(np.abs(got - ref)) < 1e-10

    @given(star_specs(), st.floats(0.05, 3.0), st.data())
    @settings(max_examples=60, deadline=None)
    def test_mean_preserved_and_disagreement_contracts(self, spec, dt, data):
        z = np.array(
            [
                data.draw(st.floats(-5.0, 5.0, allow_nan=False))
                for _ in range(spec.n)
            ]
        )
        out = step(z, Snapshot(spec.n, (spec,)), dt)
        assert abs(out.mean() - z.mean()) < 1e-12 * max(1.0, np.abs(z).max())
        assert off_consensus_sq(out) <= off_consensus_sq(z) * (1 + 1e-12) + 1e-12


def exact_sparse_survival(p: ModelParams, z0, k_max: int, eps: float):
    """Exact survival curve for the sparse variant by enumerating every
    snapshot sequence with its probability."""
    C = math.comb(p.n - 1, p.m)
    branches = [(1.0 - p.rate_sum, None)]
    for i in range(1, p.n + 1):
        others = [j for j in range(1, p.n + 1) if j != i]
        for N in combinations(others, p.m):
            snap = Snapshot(p.n, (StarSpec(p.n, i, N),))
            kernel = expm_sym(snapshot_laplacian(snap), p.dt)
            branches.append((p.a[i - 1] / C, kernel))
    probs = np.zeros(k_max + 1)
    for seq in product(range(len(branches)), repeat=k_max):
        prob = 1.0
        z = np.asarray(z0, dtype=float)
        norms = [off_consensus_sq(z)]
        for b in seq:
            weight, kernel = branches[b]
            prob *= weight
            if kernel is not None:
                z = kernel @ z
            norms.append(off_consensus_sq(z))
        suffix = np.maximum.accumulate(np.asarray(norms)[::-1])[::-1]
        probs += prob * (suffix >= eps)
    return probs


class TestRunPaths:
    def test_consensus_start_never_exceeds(self):
        p = ModelParams(4, 1, (0.2,) * 4, 1.0)
        curve = run_paths(Sparse(p), np.ones(4), 10, 50, 0.01, 7)
        assert np.array_equal(curve.probs, np.zeros(11))

    def test_threshold_above_start_stays_zero(self):
        # disagreement only contracts, so a threshold above the start value
        # is never reached at any step
        p = ModelParams(3, 1, (0.2, 0.1, 0.15), 0.8)
        z0 = np.array([0.1, 0.0, -0.1])
        eps = off_consensus_sq(z0) + 0.05
        curve = run_paths(Sparse(p), z0, 15, 80, eps, 11)
        assert np.array_equal(curve.probs, np.zeros(16))

    def test_monotone_and_grid_valued(self):
        p = ModelParams(5, 2, (0.15,) * 5, 1.5)
        rng = np.random.default_rng(2)
        z0 = rng.uniform(-1, 1, 5)
        curve = run_paths(Full(p), z0, 40, 300, 0.05, 123)
        assert np.all(np.diff(curve.probs) <= 0)
        scaled = curve.probs * 300
        assert np.max(np.abs(scaled - np.round(scaled))) < 1e-9
        assert curve.paths == 300 and curve.eps == 0.05

    def test_deterministic_and_thread_invariant(self):
        p = ModelParams(4, 2, (0.2, 0.3, 0.1, 0.25), 1.0)
        z0 = np.array([1.0, -0.5, 0.25, 0.0])
        a = run_paths(FastSwitch(p), z0, 25, 90, 0.02, 99)
        b = run_paths(FastSwitch(p), z0, 25, 90, 0.02, 99)
        c = run_paths(FastSwitch(p), z0, 25, 90, 0.02, 99, n_jobs=3)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.probs, c.probs)
        # more workers than paths: one path per worker
        d = run_paths(FastSwitch(p), z0, 25, 3, 0.02, 99, n_jobs=5)
        e = run_paths(FastSwitch(p), z0, 25, 3, 0.02, 99)
        assert np.array_equal(d.probs, e.probs)

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # the work is one item a block of paths whatever n_jobs is, and the
        # pool is sized by the blocks and the CPUs; an in-process executor
        # stands in
        pools, parts = [], []

        class InlineExecutor:
            def __init__(self, max_workers, mp_context=None):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                work = list(zip(*iterables))
                parts.append(len(work))
                return [fn(*args) for args in work]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        p = ModelParams(4, 2, (0.2, 0.3, 0.1, 0.25), 1.0)
        z0 = np.array([1.0, -0.5, 0.25, 0.0])
        n_paths = 2 * mc_sim.BLOCK + 1
        many = run_paths(Full(p), z0, 5, n_paths, 0.02, 99, n_jobs=10**6)
        one = run_paths(Full(p), z0, 5, n_paths, 0.02, 99)
        assert np.array_equal(many.probs, one.probs)
        assert many.norm_rises == one.norm_rises
        assert parts == [3]
        assert len(pools) == 1 and 1 <= pools[0] <= min(3, os.cpu_count() or 1)

    def test_workers_are_spawned_with_one_blas_thread(self, monkeypatch):
        # workers start afresh (spawn) with one BLAS thread each, and the
        # caller's environment is as it was afterwards
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        started = []

        class InlineExecutor:
            def __init__(self, max_workers, mp_context=None):
                pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                started.append((mp_context.get_start_method(), [os.environ.get(v) for v in pins]))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return [fn(*args) for args in zip(*iterables)]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        p = ModelParams(4, 2, (0.2, 0.3, 0.1, 0.25), 1.0)
        run_paths(Full(p), np.array([1.0, -0.5, 0.25, 0.0]), 5, mc_sim.BLOCK + 1, 0.02, 99, n_jobs=2)
        assert started == [("spawn", ["1", "1", "1"])]
        assert dict(os.environ) == before

    def test_seed_changes_the_curve(self):
        # block streams are seeded from SeedSequence([seed, PATHS, b]), so
        # even seeds that differ in one low bit share no path
        p = ModelParams(4, 2, (0.2, 0.3, 0.1, 0.25), 1.0)
        z0 = np.array([1.0, -0.5, 0.25, 0.0])
        a = run_paths(Full(p), z0, 25, 200, 0.02, 12345)
        b = run_paths(Full(p), z0, 25, 200, 0.02, 9876543)
        assert not np.array_equal(a.probs, b.probs)

    def test_neighbouring_seeds_share_no_stream(self):
        # seeds one bit apart, and neighbouring blocks, read different streams
        draws = {s: stream(s, PATHS, 0).random(4).tolist() for s in (2024, 2025)}
        assert draws[2024] != draws[2025]
        assert stream(2025, PATHS, 0).random() != stream(2025, PATHS, 1).random()

    def test_matches_exact_enumeration(self):
        p = ModelParams(3, 1, (0.25, 0.3, 0.2), 1.2)
        z0 = np.array([1.0, -1.0, 0.4])
        k_max, eps, n_paths = 3, 0.5, 4000
        exact = exact_sparse_survival(p, z0, k_max, eps)
        curve = run_paths(Sparse(p), z0, k_max, n_paths, eps, 314)
        for k in range(k_max + 1):
            sigma = math.sqrt(max(exact[k] * (1 - exact[k]), 1e-12) / n_paths)
            assert abs(curve.probs[k] - exact[k]) < 5 * sigma + 1e-9, k

    def test_validation_errors(self):
        p = ModelParams(3, 1, (0.2, 0.1, 0.1), 1.0)
        z0 = np.zeros(3)
        with pytest.raises(ValueError):
            run_paths(Sparse(p), z0, 0, 5, 0.1, 0)
        with pytest.raises(ValueError):
            run_paths(Sparse(p), z0, 5, 0, 0.1, 0)
        with pytest.raises(ValueError):
            run_paths(Sparse(p), z0, 5, 5, 0.0, 0)
        with pytest.raises(ValueError):
            run_paths(Sparse(p), np.array([1.0, np.nan, 0]), 5, 5, 0.1, 0)
        with pytest.raises(ValueError):
            run_paths(Sparse(p), np.zeros(4), 5, 5, 0.1, 0)
        with pytest.raises(ValueError):
            run_paths(Sparse(p), z0, 5, 5, 0.1, -3)
        pz = ModelParams(3, 1, (0.2, 0.1, 0.1), 0.0)
        with pytest.raises(ValueError):
            run_paths(Sparse(pz), z0, 5, 5, 0.1, 0)
        big = ModelParams(3, 1, (0.9, 0.8, 0.7), 1.0)
        with pytest.raises(ValueError):
            run_paths(Sparse(big), z0, 5, 5, 0.1, 0)


def oracle_case(case: int) -> dict:
    """Seeded random small run_paths arguments. The variant cycles with the
    case number; case % 10 picks a special start: 0 a consensus start
    (tau = 0), 1 an eps above the start value, 2 an eps so small that
    paths are censored at k_max. Every 40th case runs two blocks on two
    workers."""
    rng = np.random.default_rng(5150 + case)
    model = ("full", "sparse", "fastswitch")[case % 3]
    n = int(rng.integers(3, 7))
    m = int(rng.integers(1, n))
    a = rng.uniform(0.05, 0.9, n)
    if model == "sparse":
        a = a / (a.sum() * rng.uniform(1.05, 1.5))
    p = ModelParams(n, m, tuple(a), float(rng.uniform(0.1, 1.5)))
    z0 = rng.uniform(-1.0, 1.0, n)
    start = off_consensus_sq(z0)
    eps = float(rng.uniform(0.01, 0.5)) * start
    k_max = int(rng.integers(5, 31))
    kind = case % 10
    if kind == 0:
        z0 = np.full(n, z0[0])
    elif kind == 1:
        eps = 1.5 * start
    elif kind == 2:
        eps = 1e-30 * start
        k_max = int(rng.integers(2, 6))
    rule = UNIFORM_TIE_BREAK
    if model == "fastswitch" and case % 6 == 5:
        table = {}
        for size in range(2, n + 1):
            for s in combinations(range(1, n + 1), size):
                w = rng.uniform(0.1, 1.0, size)
                table[frozenset(s)] = dict(zip(s, (w / w.sum()).tolist()))
        rule = TieBreakRule(table)
    n_paths = int(rng.integers(5, 25))
    two = case % 40 == 13
    return dict(
        v=VARIANTS[model](dataclasses.replace(p, rule=rule)),
        z0=z0,
        k_max=k_max,
        n_paths=mc_sim.BLOCK + n_paths if two else n_paths,
        eps=eps,
        seed=int(rng.integers(0, 2**63)),
        n_jobs=2 if two else 1,
    )


def oracle_walk(c: dict) -> np.ndarray:
    """``block_walk_survival`` on run_paths arguments ``c``: the package's
    variant's draws and block streams, ``step`` and ``off_consensus_sq``."""
    v = c["v"]
    p = v.p

    def advance(z, stars):
        return step(z, Snapshot(p.n, tuple(StarSpec(p.n, i, N) for i, N in stars)), p.dt)

    def draw(rng):
        return generate_snapshot(v, rng).events

    return block_walk_survival(
        v,
        lambda b: stream(c["seed"], PATHS, b),
        mc_sim.BLOCK,
        lambda rng: [(e.center, e.neighbors) for e in draw(rng)],
        advance,
        off_consensus_sq,
        c["z0"],
        c["k_max"],
        c["n_paths"],
        c["eps"],
    )


def record_routes(monkeypatch) -> list:
    """The names of the multi-star kernels (``expm_action``, ``expm_sym``)
    that mc_sim calls from now on, in order."""
    routes = []
    for name in ("expm_action", "expm_sym"):
        kernel = getattr(mc_sim, name)
        monkeypatch.setattr(mc_sim, name, lambda *a, k=kernel, r=name: routes.append(r) or k(*a))
    return routes


class TestApplyStars:
    """The engine's period update against ``step``, row by row, with the
    stacks on either side of the switch between the Taylor action and the
    eigen-solve route. n = 20, m = 3, dt = 0.1."""

    N, M, DT = 20, 3, 0.1
    ROWS = (
        ((1, (2, 3, 4)),),  # one star: the closed form, or a row of an action stack
        ((1, (2, 3, 4)), (5, (6, 7, 8))),  # largest degree 3: theta = 0.3
        # node 1 joined to 12 others: theta = 0.1 * 12 = 1.2, two steps
        ((1, (2, 3, 4)), *((c, (1, c + 6, c + 7)) for c in range(5, 14))),
        # node 1 joined to all 19 others: theta = 1.9, two steps
        ((1, (2, 3, 4)), *((c, (1, 2, 3)) for c in range(5, 21))),
    )

    def apply(self, rows, monkeypatch):
        """_apply_stars on ``rows`` (indices into ROWS) of random states,
        the routes its stacks took, and ``step`` on each row alone."""
        Z = np.random.default_rng(7).uniform(-1.0, 1.0, (len(rows), self.N))
        stars = [(i, c, nb) for i, r in enumerate(rows) for c, nb in self.ROWS[r]]
        row = np.array([i for i, _, _ in stars])
        centre = np.array([c - 1 for _, c, _ in stars])
        nbs = np.array([[j - 1 for j in nb] for _, _, nb in stars])
        ref = [
            step(z, Snapshot(self.N, tuple(StarSpec(self.N, c, nb) for c, nb in self.ROWS[r])), self.DT)
            for z, r in zip(Z, rows)
        ]
        routes = record_routes(monkeypatch)
        got = mc_sim._apply_stars(Z.copy(), row, centre, nbs, self.M, self.DT)
        return got, routes, np.array(ref)

    @pytest.mark.parametrize(
        "rows, route",
        [
            ((0, 1), "expm_action"),
            ((2,), "expm_sym"),
            ((0, 1, 2), "expm_action"),
            ((1, 0, 1), "expm_action"),
            ((0, 3), "expm_sym"),
        ],
    )
    def test_matches_step_row_by_row(self, rows, route, monkeypatch):
        # row 1 takes the action and row 2 alone the eigen-solve; a stack
        # of three rows holding both takes the action, whose cost grows
        # more slowly with the stack. Row 3's multi-star rows alone would
        # take the action at theta = dt * m, so the lone row 0 joins their
        # stack, which at its largest degree takes the eigen-solve
        got, routes, ref = self.apply(rows, monkeypatch)
        assert routes == [route]
        tol = 8 * np.finfo(float).eps * np.linalg.norm(ref, axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= tol)

    @pytest.mark.parametrize(
        "rows, sizes",
        [
            # three lone-star rows and two multi-star rows: one kernel
            # call, on a stack of all five rows
            ((0, 1, 0, 1, 0), [5]),
            # twenty lone rows would cost the stack more than their closed
            # form: the multi-star row takes the action alone
            ((0,) * 10 + (1,) + (0,) * 10, [1]),
        ],
    )
    def test_lone_rows_join_the_action_stack_where_cheaper(self, rows, sizes, monkeypatch):
        seen = []
        action = mc_sim.expm_action
        monkeypatch.setattr(mc_sim, "expm_action", lambda L, *a: seen.append(len(L)) or action(L, *a))
        got, routes, ref = self.apply(rows, monkeypatch)
        assert routes == ["expm_action"] and seen == sizes
        tol = 8 * np.finfo(float).eps * np.linalg.norm(ref, axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= tol)

    def test_lone_stars_alone_take_the_closed_form(self, monkeypatch):
        got, routes, ref = self.apply((0, 0), monkeypatch)
        assert routes == []
        assert np.array_equal(got, ref)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_rounds_equal_step_bit_for_bit(self, data):
        # a round of one star a row (the closed form on every row), and a
        # mixed round whose multi-star rows ``_stacked`` hands to ``step``
        # here, so that every row of either round is ``step``'s bits
        n = data.draw(st.integers(2, 12))
        m, rows = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, 12))
        dt = data.draw(st.sampled_from([1e-3, 0.1, 2.0, 30.0]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        one = data.draw(st.booleans())
        stars = [1] * rows if one else [1] + [int(rng.integers(1, n + 1)) for _ in range(rows)]
        if not one:
            stars[-1] = max(stars[-1], 2)  # at least one multi-star row
        row = np.arange(len(stars)).repeat(stars)
        centre = np.concatenate([np.sort(rng.permutation(n)[:k]) for k in stars])
        nbs = np.array([np.sort(rng.permutation(np.delete(np.arange(n), c))[:m]) for c in centre])
        Z = rng.uniform(-1.0, 1.0, (len(stars), n))
        ends = np.cumsum(stars)

        def snapshot(i):
            lo = ends[i] - stars[i]
            return Snapshot(n, tuple(
                StarSpec(n, int(c) + 1, tuple((nb + 1).tolist()))
                for c, nb in zip(centre[lo:ends[i]], nbs[lo:ends[i]])
            ))

        ref = np.array([step(z, snapshot(i), dt) for i, z in enumerate(Z)])
        multi = [i for i, k in enumerate(stars) if k > 1]

        def by_step(W, count, c, nb, t, taylor):
            # the multi-star rows, or every row where the lone ones join the action
            picked = multi if len(W) == len(multi) else range(len(stars))
            return np.array([step(w, snapshot(i), t) for w, i in zip(W, picked)])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc_sim, "_stacked", by_step)
            got = mc_sim._apply_stars(Z.copy(), row, centre, nbs, m, dt)
        assert np.array_equal(got, ref)


def random_stars(rng, n: int, spokes: int, count):
    """(row, centre, nbs) of ``count[i]`` random stars of ``spokes``
    neighbours in row i, 0-based as ``_stacked`` takes them."""
    centre = rng.integers(0, n, int(np.sum(count)))
    nbs = np.array([rng.choice(np.delete(np.arange(n), c), spokes, replace=False) for c in centre])
    return np.repeat(np.arange(len(count)), count), centre, nbs


class TestOnTwins:
    """The eigen route solved on the twin classes of the nodes each row's
    stars touch."""

    @staticmethod
    def record_shapes(monkeypatch) -> list:
        """The shapes of the stacks ``np.linalg.eigh`` decomposes from now on."""
        shapes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda M: shapes.append(M.shape) or eigh(M))
        return shapes

    @staticmethod
    def assert_solved(Z, got, row, centre, nbs, t):
        """``got`` is Z's rows under their stars: untouched coordinates bit
        for bit, touched ones against an ``eigh`` on each row's touched nodes."""
        L = star_union_laplacians(len(Z), Z.shape[1], row, centre, nbs)
        touched = L.diagonal(0, 1, 2) > 0
        assert np.array_equal(got[~touched], Z[~touched])
        w = touched.sum(axis=1).max()
        for z, out, on, Lr in zip(Z, got, touched, L):
            # z + V expm1(-t*lam) V^T z on the row's touched nodes, taken about
            # their mean, which e^(-tL) keeps. expm_sym's recomposition, and
            # this form's, are off by O(w) ulps: up to 9 at w < 10 and 25 at
            # w = 50-60 over about 18,000 random rows
            lam, V = np.linalg.eigh(Lr[np.ix_(on, on)])
            d = z[on] - z[on].mean()
            ref = z[on] + V @ (np.expm1(-t * lam) * (V.T @ d))
            tol = (16 + w / 2) * np.finfo(float).eps * np.linalg.norm(z)
            assert np.linalg.norm(out[on] - ref) <= tol

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_eigen_solve_on_each_row(self, data):
        n = data.draw(st.integers(2, 60))
        spokes = data.draw(st.integers(1, n - 1))
        t = data.draw(st.floats(1e-3, 3.0))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # rows of 1-4 stars, a centre sometimes the centre of two
        row, centre, nbs = random_stars(rng, n, spokes, rng.integers(1, 5, data.draw(st.integers(1, 5))))
        for a in np.flatnonzero(row[1:] == row[:-1]).tolist():
            # stars a and a + 1 share a row: a centre neighbours the other
            # star, one way or both ways, an edge of both stars if both
            for x, y in data.draw(st.sampled_from([(), ((a, a + 1),), ((a, a + 1), (a + 1, a))])):
                if centre[x] != centre[y] and centre[x] not in nbs[y]:
                    nbs[y, 0] = centre[x]
        if spokes > 1 and data.draw(st.booleans()):
            nbs[:, -1] = centre  # each star padded with its own centre
        if data.draw(st.booleans()):
            # one more row, whose stars touch every node: star j joins node
            # j * spokes to the next spokes nodes, padded with its own centre
            c = np.arange(0, n - 1, spokes)
            ring = c[:, None] + np.arange(1, spokes + 1)
            row = np.append(row, np.full(len(c), row[-1] + 1))
            centre, nbs = np.append(centre, c), np.vstack([nbs, np.where(ring < n, ring, c[:, None])])
        Z = rng.uniform(-5.0, 5.0, (row[-1] + 1, n))
        got = Z.copy()
        mc_sim._on_twins(got, row, centre, nbs, t)
        self.assert_solved(Z, got, row, centre, nbs, t)

    def test_a_row_of_72_stars_keyed_past_64_bits(self):
        # n = 400, m = 1: star j joins centre j to node 100 for j < 60, to node
        # 101 + j - 60 from there. Keyed by the sum of 2**j over its stars,
        # node 100 would round to node 101's key in float64, and nodes 105-112
        # would wrap to one 64-bit key
        n, j, row = 400, np.arange(72), np.zeros(72, dtype=np.intp)
        nbs = np.where(j < 60, 100, 101 + j - 60)[:, None]
        keys = [sum(2**i for i in np.flatnonzero(nbs[:, 0] == v).tolist()) for v in range(100, 113)]
        assert float(keys[0]) == float(keys[1]) and len({x % 2**64 for x in keys}) < len(keys)
        Z = np.random.default_rng(7).uniform(-1.0, 1.0, (1, n))
        got = Z.copy()
        mc_sim._on_twins(got, row, j, nbs, 0.5)
        self.assert_solved(Z, got, row, j, nbs, 0.5)

    def test_large50_stacks_are_solved_on_five_classes(self, monkeypatch):
        # large50's shape: n = 50, m = 15, two stars a row, dt = 3. Fifteen
        # rows come in two stacks of 13 and 2 rows, each row's nodes in the two
        # centres and those of one star, of the other and of both, and come
        # back as the full-size route's
        rng = np.random.default_rng(2025)
        k, count = 15, np.full(15, 2)
        row, centre, nbs = random_stars(rng, 50, 15, count)
        Z = rng.uniform(-1.0, 1.0, (k, 50))
        shapes = self.record_shapes(monkeypatch)
        got = mc_sim._stacked(Z.copy(), count, centre, nbs, 3.0, False)
        assert shapes == [(13, 5, 5), (2, 5, 5)]
        L = star_union_laplacians(k, 50, row, centre, nbs)
        ref = np.matmul(expm_sym(L, 3.0), Z[..., None])[..., 0]
        tol = 64 * np.finfo(float).eps * np.linalg.norm(Z, axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= tol)

    def test_small10_stacks_keep_the_full_size(self, monkeypatch):
        # n = 10, m = 4: two stars may touch all 10 nodes, so no class is formed
        rng = np.random.default_rng(2025)
        count = np.full(6, 2)
        _, centre, nbs = random_stars(rng, 10, 4, count)
        shapes = self.record_shapes(monkeypatch)
        monkeypatch.setattr(mc_sim, "_on_twins", None)
        mc_sim._stacked(rng.uniform(-1.0, 1.0, (6, 10)), count, centre, nbs, 2.0, False)
        assert shapes == [(6, 10, 10)]

    def test_large50_three_star_row_takes_the_twin_classes(self, monkeypatch):
        # n = 50, m = 15: one row of three stars touches up to 48 nodes, but
        # its quotient has at most 3 centres and 7 neighbour classes
        rng = np.random.default_rng(2025)
        count = np.full(1, 3)
        row, centre, nbs = random_stars(rng, 50, 15, count)
        Z = rng.uniform(-1.0, 1.0, (1, 50))
        shapes = self.record_shapes(monkeypatch)
        got = mc_sim._stacked(Z.copy(), count, centre, nbs, 3.0, False)
        assert len(shapes) == 1 and shapes[0][0] == 1 and shapes[0][1] <= 10
        L = star_union_laplacians(1, 50, row, centre, nbs)
        ref = np.matmul(expm_sym(L, 3.0), Z[..., None])[..., 0]
        assert np.all(np.abs(got - ref) <= 64 * np.finfo(float).eps * np.linalg.norm(Z))

    @pytest.mark.parametrize("i", [0, 1])
    def test_large50_row_against_a_40_digit_exponential(self, i):
        # Two rows of large50's shape from the configs' seed. The twin route
        # is 0.02 and 1.55 ulps of ||z|| off on them, the full-size route
        # 12.5 and 7.5; on 114 random rows of this shape the twin route had
        # median 0.29-0.35 and max 1.7-3.7 ulps (BENCH_34.json), the
        # full-size route median 12.9 and min 5.3 on 120
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2025)
        count = np.full(2, 2)
        row, centre, nbs = random_stars(rng, 50, 15, count)
        Z = rng.uniform(-1.0, 1.0, (2, 50))
        got = mc_sim._stacked(Z.copy(), count, centre, nbs, 3.0, False)[i]
        L = star_union_laplacians(2, 50, row, centre, nbs)[i]
        # e^(-3L) is the identity on the nodes of degree 0, whose rows and
        # columns of L are 0; mpmath takes the rest
        on, ref = np.flatnonzero(L.diagonal()), Z[i].copy()
        with mpmath.workdps(40):
            E = mpmath.expm(mpmath.matrix((-3.0 * L[np.ix_(on, on)]).tolist()))
            ref[on] = [float(x) for x in E * mpmath.matrix(Z[i, on].tolist())]
        assert np.linalg.norm(got - ref) <= 2 * np.finfo(float).eps * np.linalg.norm(Z[i])


class TestFirstPassageOracle:
    """run_paths reads the curve off first-passage times, a block of paths
    at a time; the oracle walks each path on its own through the same
    block streams with ``step``, runs it on to k_max and takes suffix
    maxima. The two must agree exactly."""

    @pytest.mark.parametrize("case", range(160))
    def test_matches_suffix_max_oracle(self, case):
        c = oracle_case(case)
        curve = run_paths(**c)
        ref = oracle_walk(c)
        assert np.array_equal(curve.probs, ref)
        assert curve.norm_rises == 0
        kind = case % 10
        if kind == 0 or kind == 1:
            assert not curve.probs.any()
        elif kind == 2:
            assert curve.probs[-1] > 0


def edge_survival(model, a, dt, events, k_max, n_paths, seed):
    """A run at n = 2, m = 1 from z0 = (1, -1), with eps halfway (in log)
    between the disagreement after ``events - 1`` and ``events`` events:
    every event is the one edge and multiplies the squared disagreement by
    e**(-4 dt), so tau is the period of the events-th event. Returns the
    curve and the exact P(tau > K) = P(Binomial(K, p_event) < events)."""
    p = ModelParams(2, 1, a, dt)
    eps = 2.0 * math.exp(-4.0 * dt * (events - 0.5))
    curve = run_paths(VARIANTS[model](p), np.array([1.0, -1.0]), k_max, n_paths, eps, seed)
    q = a[0] + a[1] if model == "sparse" else 1.0 - (1.0 - a[0]) * (1.0 - a[1])
    exact = [
        sum(math.comb(K, j) * q**j * (1.0 - q) ** (K - j) for j in range(min(events, K + 1)))
        for K in range(k_max + 1)
    ]
    return curve, np.array(exact)


class TestEdgeLaw:
    """At n = 2, m = 1 the survival curve is an exact binomial tail; each
    variant's curve lies within 5 sigma of it at every K."""

    @pytest.mark.parametrize(
        "model, a", [("full", (0.3, 0.2)), ("sparse", (0.3, 0.2)), ("fastswitch", (0.45, 0.6))]
    )
    @pytest.mark.parametrize("k_max, events", [(30, 3), (1, 1)])
    def test_binomial_tail(self, model, a, k_max, events):
        n_paths = 4000
        curve, exact = edge_survival(model, a, 0.5, events, k_max, n_paths, 8128)
        assert curve.norm_rises == 0
        for K in range(k_max + 1):
            sigma = math.sqrt(exact[K] * (1.0 - exact[K]) / n_paths)
            assert abs(curve.probs[K] - exact[K]) <= 5.0 * sigma + 1e-12, K


class _Replay:
    """A stand-in generator: ``random(size)`` hands out the next doubles of
    one pre-drawn array, so a block that reads its stream only through
    ``random`` sees the same doubles however its draws are split."""

    def __init__(self, u):
        self.u, self.at = u, 0

    def random(self, size):
        k = int(np.prod(size))
        out = self.u[self.at:self.at + k]
        assert len(out) == k, "the pre-drawn doubles ran out"
        self.at += k
        return out.reshape(size)


class TestStreamReplay:
    # every variant's block against the same doubles handed out by _Replay:
    # equal counts and norm rises mean each draw reads the stream's next
    # doubles in order, the property that lets one draw replace two
    TABLE = TieBreakRule({
        frozenset(S): {i: i / sum(S) for i in S}
        for k in range(2, 5) for S in combinations(range(1, 5), k)
    })

    @pytest.mark.parametrize("model, a, rule", [
        ("full", (0.3, 0.5, 0.2, 0.4), UNIFORM_TIE_BREAK),
        ("sparse", (0.1, 0.3, 0.2, 0.25), UNIFORM_TIE_BREAK),
        ("fastswitch", (0.3, 0.5, 0.2, 0.4), UNIFORM_TIE_BREAK),
        ("fastswitch", (0.3, 0.5, 0.2, 0.4), TABLE),
    ])
    def test_counts_equal_on_replayed_doubles(self, model, a, rule, monkeypatch):
        v = VARIANTS[model](ModelParams(4, 2, a, 0.5, rule))
        args = (v, np.array([1.0, -0.5, 0.25, 2.0]), 40, 0.05, 99, 1, 60)
        counts, rises = mc_sim._count_block(*args)
        monkeypatch.setattr(mc_sim, "stream", lambda *key: _Replay(stream(*key).random(200_000)))
        got, got_rises = mc_sim._count_block(*args)
        assert np.array_equal(got, counts) and got_rises == rises
        assert counts[0] == 60 and counts[-1] < 60  # paths that moved


class TestGapDraw:
    @pytest.mark.parametrize(
        "model, a",
        [("full", (1.0, 0.2, 0.5)), ("fastswitch", (0.3, 1.0, 0.5)), ("sparse", (0.5, 0.25, 0.25))],
    )
    def test_certain_event_every_period(self, model, a):
        v = VARIANTS[model](ModelParams(3, 1, a, 1.0))
        assert v.p_event == 1.0 and v.log_idle == -math.inf
        assert np.array_equal(v.gaps(np.random.default_rng(1), 1000, 50), np.ones(1000))

    def test_certain_event_gives_tau_at_the_events_th_period(self):
        curve, _ = edge_survival("full", (1.0, 0.5), 0.5, 3, 10, 50, 3)
        assert np.array_equal(curve.probs, [1.0, 1.0, 1.0] + [0.0] * 8)

    @pytest.mark.parametrize("rate", [1e-300, 5e-324])
    @pytest.mark.parametrize("model", ["full", "sparse", "fastswitch"])
    def test_vanishing_rates_cap_the_gap_without_overflow(self, model, rate):
        # log(1 - u) / log_idle reaches 1e300 and beyond (inf for the
        # smallest subnormal rate); every warning is an error here
        p = ModelParams(4, 1, (rate,) * 4, 1.0)
        v = VARIANTS[model](p)
        assert 0.0 < -v.log_idle < 1e-290
        gaps = v.gaps(np.random.default_rng(2), 1000, 41)
        assert gaps.dtype == np.int64 and np.array_equal(gaps, np.full(1000, 41))
        curve = run_paths(v, np.arange(4.0), 40, 20, 0.1, 5)
        assert np.array_equal(curve.probs, np.ones(41))

    @pytest.mark.parametrize("model", ["full", "sparse", "fastswitch"])
    def test_k_max_one(self, model):
        c = dict(v=VARIANTS[model](ModelParams(3, 1, (0.5, 0.3, 0.15), 0.8)),
                 z0=np.array([1.0, 0.0, -1.0]), k_max=1, n_paths=300, eps=1.5, seed=17)
        curve = run_paths(**c)
        assert curve.probs[0] == 1.0 and 0.0 < curve.probs[1] < 1.0
        assert np.array_equal(curve.probs, oracle_walk(c))

    @pytest.mark.parametrize("model", ["full", "sparse", "fastswitch"])
    def test_no_row_starts_below_or_at_consensus(self, model):
        p = ModelParams(3, 1, (0.3, 0.2, 0.1), 1.0)
        z0 = np.array([0.5, -0.5, 0.0])
        for start, eps in ((np.full(3, 0.7), 0.01), (z0, off_consensus_sq(z0) * 1.01)):
            curve = run_paths(VARIANTS[model](p), start, 12, 40, eps, 9)
            assert np.array_equal(curve.probs, np.zeros(13))


class TestBoundedMemory:
    @pytest.mark.parametrize("n_paths", [mc_sim.BLOCK, 2 * mc_sim.BLOCK + 1])
    def test_peak_is_independent_of_the_path_count(self, n_paths, monkeypatch):
        """full at n = 200 with about 10 stars a period: every period is
        multi-star. The engine's peak stays under a few STACK_BYTES plus a
        few block-sized state arrays however many blocks run. A stand-in
        for expm_sym returns the identity (so no path ever finishes) and
        checks that each stack it gets fits in STACK_BYTES; expm_sym's own
        working copies are a small multiple of its stack. The Taylor action,
        the other route of a stack, gets an identity stand-in too."""
        n = 200
        per_stack = max(1, STACK_BYTES // (8 * n * n))
        stacks_seen = []

        def identity_kernel(L, t):
            stacks_seen.append(len(L))
            return np.broadcast_to(np.eye(n), L.shape).copy()

        def identity_action(L, t, Z, m, s, mu):
            stacks_seen.append(len(L))
            return Z

        monkeypatch.setattr(mc_sim, "expm_sym", identity_kernel)
        monkeypatch.setattr(mc_sim, "expm_action", identity_action)
        p = ModelParams(n, 3, (0.05,) * n, 1.0)
        tracemalloc.start()
        try:
            z0 = np.linspace(-1.0, 1.0, n)
            curve = run_paths(Full(p), z0, 2, n_paths, 1e-3, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(curve.probs, np.ones(3))
        assert len(stacks_seen) >= 2 * n_paths * 0.99 and max(stacks_seen) <= per_stack
        assert peak < 4 * STACK_BYTES + 4 * mc_sim.BLOCK * n * 8, peak


def config_run(name: str, n_paths: int) -> SurvivalCurve:
    cfg = parse_config(json.loads((CONFIGS / name).read_text()))
    p, z0, _ = resolve_config(cfg)
    return run_paths(VARIANTS[cfg["model"]](p), z0, cfg["k_max"], n_paths, cfg["eps"], cfg["seed"])


class TestNormRises:
    @pytest.mark.parametrize("name, n_paths", [("small10.json", 200), ("large50.json", 40)])
    def test_zero_on_shipped_configs(self, name, n_paths):
        curve = config_run(name, n_paths)
        assert curve.norm_rises == 0
        assert curve.probs[0] == 1.0 and curve.probs[-1] < 1.0

    def test_zero_on_the_busy_benchmark_input(self, monkeypatch):
        # n = 20 at dt = 0.05: the multi-star stacks take the Taylor action
        routes = record_routes(monkeypatch)
        cfg = parse_config(json.loads(BUSY.read_text()))
        p, z0, _ = resolve_config(cfg)
        curve = run_paths(Full(p), z0, cfg["k_max"], 200, cfg["eps"], cfg["seed"])
        assert curve.norm_rises == 0
        assert curve.probs[0] == 1.0 and curve.probs[-1] == 0.0
        assert routes and set(routes) == {"expm_action"}

    def test_counts_an_expanding_step(self, monkeypatch):
        monkeypatch.setattr(mc_sim, "_apply_stars", lambda Z, *args: 1.5 * Z)
        p = ModelParams(4, 2, (0.5, 0.4, 0.3, 0.6), 1.0)
        z0 = np.array([1.0, -0.5, 0.25, 0.0])
        curve = run_paths(Full(p), z0, 20, 10, 0.05, 3)
        assert curve.norm_rises > 0
        assert np.array_equal(curve.probs, np.ones(21))


class TestDecayFit:
    def test_exact_geometric_curve(self):
        ks = np.arange(61)
        curve = SurvivalCurve(eps=0.1, probs=0.9**ks, paths=1000)
        fit = fit_decay_stats(curve)
        assert fit.rate == pytest.approx(0.9, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.window == (0.01, 0.95)

    def test_window_excludes_saturated_head(self):
        probs = np.concatenate([np.ones(10), 0.8 ** np.arange(1, 40)])
        curve = SurvivalCurve(eps=0.1, probs=probs, paths=500)
        fit = fit_decay_stats(curve)
        # the flat head would bias the slope toward zero if included
        assert fit.rate == pytest.approx(0.8, abs=1e-10)

    def test_explicit_window(self):
        ks = np.arange(200)
        curve = SurvivalCurve(eps=0.1, probs=0.95**ks, paths=10_000)
        fit = fit_decay_stats(curve, window=(0.2, 0.8))
        assert fit.rate == pytest.approx(0.95, abs=1e-12)
        lo = 0.95 ** np.arange(200)
        inside = (lo > 0.2) & (lo < 0.8)
        assert fit.n_points == int(inside.sum())

    def test_too_few_points_raises(self):
        curve = SurvivalCurve(eps=0.1, probs=np.ones(30), paths=100)
        with pytest.raises(ValueError, match="at least 5"):
            fit_decay_stats(curve)
