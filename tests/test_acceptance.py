"""Acceptance gate: each test below is one numbered criterion, checked at
stated tolerances against independently computed references. The terminal
summary prints one PASS/FAIL line per criterion (see conftest)."""

import itertools
import math
import time

import numpy as np

from adn_consensus import (
    VARIANTS,
    FastSwitch,
    Full,
    ModelParams,
    Sparse,
    StarSpec,
    activation_expectation,
    enumerate_expected_exponential,
    expm_sym,
    fit_decay_stats,
    gamma_fs,
    gamma_sp,
    generate_snapshot,
    lambda_second_largest,
    off_consensus_sq,
    run_paths,
    snapshot_count,
    snapshot_laplacian,
    sparse_expected_exponential,
    star_exponential,
    star_laplacian,
    star_laplacian_power,
    step,
    survivor_rates,
    verify_fast_switch_inequality,
    weighted_expected_exponential,
)
from adn_consensus.cli import draw_activity_rates, draw_initial_state, main
from oracles import exhaustive_survivor_rates, int_matpow, star_laplacian_ints


def subset_average_kernel(p: ModelParams, center: int) -> np.ndarray:
    """Plain average of the squared-horizon heat kernel over every m-subset
    the center can wire to; the closed form must reproduce this exactly."""
    others = [j for j in range(1, p.n + 1) if j != center]
    acc = np.zeros((p.n, p.n))
    count = 0
    for N in itertools.combinations(others, p.m):
        acc += expm_sym(star_laplacian(StarSpec(p.n, center, N)), 2.0 * p.dt)
        count += 1
    return acc / count


def ramp_rates(n: int, total: float = 0.9) -> tuple:
    """Deterministic strictly increasing rates summing to `total`."""
    return tuple(total * 2 * i / (n * (n + 1)) for i in range(1, n + 1))


def test_criterion_1():
    """Per-activation expectation kernels match exhaustive subset averages,
    and the single-activation expected kernel matches exact enumeration,
    across the full small-parameter grid. Budget: 60 s."""
    t0 = time.monotonic()
    worst_avg = 0.0
    worst_enum = 0.0
    for n in range(3, 7):
        for m in range(1, min(3, n - 1) + 1):
            for dt in (0.25, 1.0, 2.0):
                p = ModelParams(n, m, ramp_rates(n), dt)
                for i in range(1, n + 1):
                    diff = np.max(
                        np.abs(activation_expectation(p, i) - subset_average_kernel(p, i))
                    )
                    worst_avg = max(worst_avg, float(diff))
                diff = np.max(
                    np.abs(
                        sparse_expected_exponential(p)
                        - enumerate_expected_exponential(Sparse(p))
                    )
                )
                worst_enum = max(worst_enum, float(diff))
    elapsed = time.monotonic() - t0
    assert worst_avg <= 1e-10, f"kernel vs subset average: max diff {worst_avg}"
    assert worst_enum <= 1e-10, f"closed form vs enumeration: max diff {worst_enum}"
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"


def test_criterion_2():
    """Closed-form star heat kernel equals the dense symmetric exponential
    on 200 random cases, n up to 8."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        center = int(rng.integers(1, n + 1))
        others = [j for j in range(1, n + 1) if j != center]
        neighbors = tuple(
            int(v) for v in rng.choice(others, size=m, replace=False)
        )
        spec = StarSpec(n, center, neighbors)
        t = float(rng.uniform(0.0, 4.0))
        diff = np.max(np.abs(star_exponential(spec, t) - expm_sym(star_laplacian(spec), t)))
        worst = max(worst, float(diff))
    assert worst <= 1e-10, f"max diff {worst}"


def test_criterion_3():
    """Closed-form integer powers of star Laplacians are entrywise equal to
    repeated exact integer multiplication, for every star with an untouched
    node (n <= 7, m <= n-2) and every exponent k <= 6."""
    for n in range(3, 8):
        for m in range(1, n - 1):
            for center in range(1, n + 1):
                others = [j for j in range(1, n + 1) if j != center]
                for N in itertools.combinations(others, m):
                    spec = StarSpec(n, center, N)
                    L = star_laplacian_ints(n, center, N)
                    for k in range(1, 7):
                        got = star_laplacian_power(spec, k)
                        assert got.tolist() == int_matpow(L, k), (
                            f"n={n} m={m} center={center} N={N} k={k}"
                        )


def test_criterion_4():
    """The snapshot space is astronomically large at n=10 for every feasible
    m except the all-to-all case, and exactly 27 at (n, m) = (3, 1)."""
    for m in range(1, 9):
        assert snapshot_count(10, m) >= 10**10, f"m={m}"
    # explicit enumeration: each node idles or wires to one other node
    options = [(None, (1, 2)), (None, (0, 2)), (None, (0, 1))]
    seen = set()
    for choice in itertools.product(range(3), repeat=3):
        snap = []
        for node, c in enumerate(choice):
            if c == 0:
                continue
            snap.append((node, options[node][1][c - 1]))
        seen.add(tuple(snap))
    assert len(seen) == 27
    assert snapshot_count(3, 1) == 27


def test_criterion_5():
    """Desk-scale replica of the 10-node experiment: the certified
    sparse-regime rate bounds the fitted decay of the survival curve to
    within 0.005, and the curve is geometric (R^2 >= 0.98). Budget: 300 s,
    one worker."""
    t0 = time.monotonic()
    seed = 2025
    a = draw_activity_rates(10, 0.01, seed)
    p = ModelParams(10, 4, a, 2.0)
    z0 = draw_initial_state(10, seed)
    curve = run_paths(Full(p), z0, 600, 10_000, 0.3, seed, n_jobs=1)
    fit = fit_decay_stats(curve)
    bound = gamma_sp(p)
    elapsed = time.monotonic() - t0
    assert fit.rate <= bound.rate + 0.005, (
        f"fitted {fit.rate} vs bound {bound.rate}"
    )
    assert fit.r_squared >= 0.98, f"R^2 {fit.r_squared}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_6():
    """Large sparse-regime experiment (50 nodes, 15-spoke stars): the
    certified rate bounds the geometric tail of the survival curve and is
    tight to within 5%. The head of the curve is a saturation transient, so
    the rate is read off the tail, probabilities between 1e-3 and 0.1.
    Budget: 900 s."""
    t0 = time.monotonic()
    seed = 2025
    n_paths = 10_000
    a = draw_activity_rates(50, 0.002, seed)
    p = ModelParams(50, 15, a, 3.0)
    z0 = draw_initial_state(50, seed)
    curve = run_paths(Full(p), z0, 700, n_paths, 0.1, seed, n_jobs=1)
    fit = fit_decay_stats(curve, (10.0 / n_paths, 0.1))
    bound = gamma_sp(p)
    rel_gap = abs(bound.rate - fit.rate) / fit.rate
    elapsed = time.monotonic() - t0
    assert fit.rate <= bound.rate, f"fitted {fit.rate} vs bound {bound.rate}"
    assert rel_gap <= 0.05, f"relative gap {rel_gap}"
    assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_criterion_7():
    """Fast-switching machinery: the survivor-rate recurrence equals 2^n
    enumeration up to n=12; the certified fast-switching rate equals the
    second eigenvalue of the exactly enumerated expected kernel up to n=5;
    and the spectral inequality holds on the small-horizon grid."""
    for n in range(2, 13):
        a = tuple(((i * 7) % 11 + 1) / 13.0 for i in range(1, n + 1))
        p = ModelParams(n, 1, a, 1.0)
        got = survivor_rates(p)
        ref = exhaustive_survivor_rates(a)
        assert np.max(np.abs(np.asarray(got) - np.asarray(ref))) <= 1e-12, f"n={n}"

    pool = (0.37, 0.82, 0.12, 0.55, 0.9)
    for n in range(3, 6):
        for m in range(1, n):
            p = ModelParams(n, m, pool[:n], 0.8)
            E = enumerate_expected_exponential(FastSwitch(p))
            bound = gamma_fs(p)
            assert abs(bound.rate - lambda_second_largest(E)) <= 1e-10, f"n={n} m={m}"

    probe = ModelParams(4, 2, (0.35, 0.2, 0.5, 0.15), 0.5)
    report = verify_fast_switch_inequality(probe, (0.01, 0.05, 0.1))
    assert report.holds_all, f"first violation at T={report.first_violation}"


def test_criterion_8():
    """Structural invariant sweep, 1000 randomized cases in total: snapshot
    heat kernels are symmetric doubly stochastic contractions, expectation
    kernels are symmetric doubly stochastic, survival curves are exactly
    non-increasing on the path grid, and long step chains preserve the
    mean."""
    rng = np.random.default_rng(90125)
    cases = 0

    # 600 random snapshots: kernel structure plus one-step contraction
    for _ in range(600):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        a = tuple(rng.uniform(0.2, 0.9, n))
        dt = float(rng.uniform(0.05, 2.5))
        p = ModelParams(n, m, a, dt)
        snap = generate_snapshot(Full(p), rng)
        E = expm_sym(snapshot_laplacian(snap), dt)
        assert np.max(np.abs(E.sum(axis=0) - 1.0)) <= 1e-12
        assert np.max(np.abs(E.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(E - E.T)) <= 1e-12
        z = rng.uniform(-5.0, 5.0, n)
        before = off_consensus_sq(z)
        after = off_consensus_sq(step(z, snap, dt)) if snap.events else before
        assert after <= before * (1.0 + 1e-12) + 1e-15
        cases += 1

    # 200 expectation kernels across the three averaging modes
    for j in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n))
        dt = float(rng.uniform(0.0, 2.0))
        a = rng.uniform(0.05, 1.0, n)
        if j % 3 == 0:
            p = ModelParams(n, m, tuple(a), dt)
            E = activation_expectation(p, int(rng.integers(1, n + 1)))
        elif j % 3 == 1:
            p = ModelParams(n, m, tuple(0.99 * a / a.sum()), dt)
            E = sparse_expected_exponential(p)
        else:
            p = ModelParams(n, m, tuple(a), dt)
            E = weighted_expected_exponential(p, survivor_rates(p))
        assert np.max(np.abs(E.sum(axis=0) - 1.0)) <= 1e-12
        assert np.max(np.abs(E.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(E - E.T)) <= 1e-12
        cases += 1

    # 190 small survival curves: exact monotonicity on the count grid
    for j in range(190):
        n = int(rng.integers(3, 6))
        m = int(rng.integers(1, n))
        a = rng.uniform(0.05, 0.9, n)
        model = ("full", "sparse", "fastswitch")[j % 3]
        if model == "sparse":
            a = a / (a.sum() * 1.25)
        p = ModelParams(n, m, tuple(a), float(rng.uniform(0.1, 1.5)))
        z0 = rng.uniform(-1.0, 1.0, n)
        n_paths = int(rng.integers(5, 13))
        curve = run_paths(
            VARIANTS[model](p),
            z0,
            int(rng.integers(10, 26)),
            n_paths,
            float(rng.uniform(0.01, 1.0)),
            int(rng.integers(0, 2**32)),
        )
        probs = np.asarray(curve.probs)
        assert np.all(np.diff(probs) <= 0.0)
        assert all(abs(q * n_paths - round(q * n_paths)) < 1e-9 for q in probs)
        cases += 1

    # 10 long chains: the state mean is invariant over 200 steps
    for _ in range(10):
        n = int(rng.integers(4, 8))
        m = int(rng.integers(1, n))
        p = ModelParams(n, m, tuple(rng.uniform(0.3, 0.95, n)), float(rng.uniform(0.2, 1.0)))
        z = rng.uniform(-10.0, 10.0, n)
        mean0 = z.mean()
        for _k in range(200):
            z = step(z, generate_snapshot(Full(p), rng), p.dt)
        assert abs(z.mean() - mean0) <= 1e-10
        cases += 1

    assert cases == 1000


def test_criterion_9(tmp_path):
    """One config, one seed, three worker counts: the survival CSV is
    byte-identical across 1, 2, and 8 processes."""
    import json

    cfg = {
        "n": 6,
        "m": 2,
        "dt": 0.6,
        "eps": 0.05,
        "k_max": 50,
        "n_paths": 240,
        "seed": 77,
        "model": "full",
        "activity": {"mode": "explicit", "values": [0.12, 0.3, 0.05, 0.2, 0.08, 0.16]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    blobs = {}
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        rc = main(
            [
                "simulate",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--threads",
                str(workers),
            ]
        )
        assert rc == 0
        blobs[workers] = (
            (out / "survival.csv").read_bytes(),
            (out / "manifest.json").read_bytes(),
        )
    assert blobs[1] == blobs[2] == blobs[8]
