import concurrent.futures
import json
import math
import os
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adn_consensus import (
    ModelParams,
    Snapshot,
    StarSpec,
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
from adn_consensus.cli import parse_config, resolve_config
from oracles import star_laplacian_ints, suffix_max_survival, taylor_expm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        curve = run_paths(p, "sparse", UNIFORM_TIE_BREAK, np.ones(4), 10, 50, 0.01, 7)
        assert np.array_equal(curve.probs, np.zeros(11))

    def test_threshold_above_start_stays_zero(self):
        # disagreement only contracts, so a threshold above the start value
        # is never reached at any step
        p = ModelParams(3, 1, (0.2, 0.1, 0.15), 0.8)
        z0 = np.array([0.1, 0.0, -0.1])
        eps = off_consensus_sq(z0) + 0.05
        curve = run_paths(p, "sparse", UNIFORM_TIE_BREAK, z0, 15, 80, eps, 11)
        assert np.array_equal(curve.probs, np.zeros(16))

    def test_monotone_and_grid_valued(self):
        p = ModelParams(5, 2, (0.15,) * 5, 1.5)
        rng = np.random.default_rng(2)
        z0 = rng.uniform(-1, 1, 5)
        curve = run_paths(p, "full", UNIFORM_TIE_BREAK, z0, 40, 300, 0.05, 123)
        assert np.all(np.diff(curve.probs) <= 0)
        scaled = curve.probs * 300
        assert np.max(np.abs(scaled - np.round(scaled))) < 1e-9
        assert curve.paths == 300 and curve.eps == 0.05

    def test_deterministic_and_thread_invariant(self):
        p = ModelParams(4, 2, (0.2, 0.3, 0.1, 0.25), 1.0)
        z0 = np.array([1.0, -0.5, 0.25, 0.0])
        a = run_paths(p, "fastswitch", UNIFORM_TIE_BREAK, z0, 25, 90, 0.02, 99)
        b = run_paths(p, "fastswitch", UNIFORM_TIE_BREAK, z0, 25, 90, 0.02, 99)
        c = run_paths(p, "fastswitch", UNIFORM_TIE_BREAK, z0, 25, 90, 0.02, 99, n_jobs=3)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.probs, c.probs)
        # more workers than paths: one path per worker
        d = run_paths(p, "fastswitch", UNIFORM_TIE_BREAK, z0, 25, 3, 0.02, 99, n_jobs=5)
        e = run_paths(p, "fastswitch", UNIFORM_TIE_BREAK, z0, 25, 3, 0.02, 99)
        assert np.array_equal(d.probs, e.probs)

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # a fork-started pool launches every worker at its first submit, so
        # the paths still split into n_jobs parts (at most one per path) but
        # the pool is sized by the CPUs; an in-process executor stands in
        pools, parts = [], []

        class InlineExecutor:
            def __init__(self, max_workers):
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
        many = run_paths(p, "full", UNIFORM_TIE_BREAK, z0, 25, 64, 0.02, 99, n_jobs=10**6)
        one = run_paths(p, "full", UNIFORM_TIE_BREAK, z0, 25, 64, 0.02, 99)
        assert np.array_equal(many.probs, one.probs)
        assert many.norm_rises == one.norm_rises
        assert parts == [64]
        assert len(pools) == 1 and 1 <= pools[0] <= (os.cpu_count() or 1)

    def test_seed_changes_the_curve(self):
        # streams are derived as seed XOR path-index, so two seeds give
        # genuinely different path sets only when they differ above the
        # index bits; use well-separated seeds here
        p = ModelParams(4, 2, (0.2, 0.3, 0.1, 0.25), 1.0)
        z0 = np.array([1.0, -0.5, 0.25, 0.0])
        a = run_paths(p, "full", UNIFORM_TIE_BREAK, z0, 25, 200, 0.02, 12345)
        b = run_paths(p, "full", UNIFORM_TIE_BREAK, z0, 25, 200, 0.02, 9876543)
        assert not np.array_equal(a.probs, b.probs)

    def test_matches_exact_enumeration(self):
        p = ModelParams(3, 1, (0.25, 0.3, 0.2), 1.2)
        z0 = np.array([1.0, -1.0, 0.4])
        k_max, eps, n_paths = 3, 0.5, 4000
        exact = exact_sparse_survival(p, z0, k_max, eps)
        curve = run_paths(p, "sparse", UNIFORM_TIE_BREAK, z0, k_max, n_paths, eps, 314)
        for k in range(k_max + 1):
            sigma = math.sqrt(max(exact[k] * (1 - exact[k]), 1e-12) / n_paths)
            assert abs(curve.probs[k] - exact[k]) < 5 * sigma + 1e-9, k

    def test_validation_errors(self):
        p = ModelParams(3, 1, (0.2, 0.1, 0.1), 1.0)
        z0 = np.zeros(3)
        with pytest.raises(ValueError):
            run_paths(p, "other", UNIFORM_TIE_BREAK, z0, 5, 5, 0.1, 0)
        with pytest.raises(ValueError):
            run_paths(p, "sparse", UNIFORM_TIE_BREAK, z0, 0, 5, 0.1, 0)
        with pytest.raises(ValueError):
            run_paths(p, "sparse", UNIFORM_TIE_BREAK, z0, 5, 0, 0.1, 0)
        with pytest.raises(ValueError):
            run_paths(p, "sparse", UNIFORM_TIE_BREAK, z0, 5, 5, 0.0, 0)
        with pytest.raises(ValueError):
            run_paths(p, "sparse", UNIFORM_TIE_BREAK, np.array([1.0, np.nan, 0]), 5, 5, 0.1, 0)
        with pytest.raises(ValueError):
            run_paths(p, "sparse", UNIFORM_TIE_BREAK, np.zeros(4), 5, 5, 0.1, 0)
        with pytest.raises(ValueError):
            run_paths(p, "sparse", UNIFORM_TIE_BREAK, z0, 5, 5, 0.1, -3)
        pz = ModelParams(3, 1, (0.2, 0.1, 0.1), 0.0)
        with pytest.raises(ValueError):
            run_paths(pz, "sparse", UNIFORM_TIE_BREAK, z0, 5, 5, 0.1, 0)
        big = ModelParams(3, 1, (0.9, 0.8, 0.7), 1.0)
        with pytest.raises(ValueError):
            run_paths(big, "sparse", UNIFORM_TIE_BREAK, z0, 5, 5, 0.1, 0)


def oracle_case(case: int) -> dict:
    """Seeded random small run_paths arguments. The variant cycles with the
    case number; case % 10 picks a special start: 0 a consensus start
    (tau = 0), 1 an eps above the start value, 2 an eps so small that
    paths are censored at k_max. Every 40th case runs on two workers."""
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
    return dict(
        p=p,
        model=model,
        rule=rule,
        z0=z0,
        k_max=k_max,
        n_paths=int(rng.integers(5, 25)),
        eps=eps,
        seed=int(rng.integers(0, 2**63)),
        n_jobs=2 if case % 40 == 13 else 1,
    )


class TestFirstPassageOracle:
    """run_paths reads the curve off first-passage times; the oracle runs
    every path to k_max and takes suffix maxima. On the same streams the
    two must agree exactly."""

    @pytest.mark.parametrize("case", range(160))
    def test_matches_suffix_max_oracle(self, case):
        c = oracle_case(case)
        p = c["p"]
        curve = run_paths(**c)
        ref = suffix_max_survival(
            lambda rng: generate_snapshot(p, rng, c["model"], c["rule"]),
            lambda z, s: step(z, s, p.dt),
            off_consensus_sq,
            c["z0"],
            c["k_max"],
            c["n_paths"],
            c["eps"],
            c["seed"],
        )
        assert np.array_equal(curve.probs, ref)
        assert curve.norm_rises == 0
        kind = case % 10
        if kind == 0 or kind == 1:
            assert not curve.probs.any()
        elif kind == 2:
            assert curve.probs[-1] > 0


def config_run(name: str, n_paths: int) -> SurvivalCurve:
    cfg = parse_config(json.loads((CONFIGS / name).read_text()))
    p, rule, z0, _ = resolve_config(cfg)
    return run_paths(
        p, cfg["model"], rule, z0, cfg["k_max"], n_paths, cfg["eps"], cfg["seed"]
    )


class TestNormRises:
    @pytest.mark.parametrize("name, n_paths", [("small10.json", 200), ("large50.json", 40)])
    def test_zero_on_shipped_configs(self, name, n_paths):
        curve = config_run(name, n_paths)
        assert curve.norm_rises == 0
        assert curve.probs[0] == 1.0 and curve.probs[-1] < 1.0

    def test_counts_an_expanding_step(self, monkeypatch):
        monkeypatch.setattr(mc_sim, "step", lambda z, s, dt: 1.5 * z)
        p = ModelParams(4, 2, (0.5, 0.4, 0.3, 0.6), 1.0)
        z0 = np.array([1.0, -0.5, 0.25, 0.0])
        curve = run_paths(p, "full", UNIFORM_TIE_BREAK, z0, 20, 10, 0.05, 3)
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
