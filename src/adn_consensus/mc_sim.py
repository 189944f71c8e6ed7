"""Monte Carlo engine for the sampled consensus dynamics, survival-curve
estimation, and decay-rate fitting.

Every snapshot kernel contracts the disagreement, so each path stops at its
first passage below eps and the survival curve is one minus the empirical
CDF of the first-passage times. After an idle period the walk consumes the
idle periods that follow in bulk (``idle_run``), with the same draws a
period-by-period walk would make. Each path runs on its own RNG stream,
``default_rng(seed ^ path_index)``, and counts are aggregated as exact
integers, so results are identical for any degree of parallelism.
"""

import os
from dataclasses import dataclass

import numpy as np

from .adn_model import (
    ModelParams,
    Snapshot,
    TieBreakRule,
    center_sets,
    generate_snapshot,
    idle_run,
    snapshot_laplacian,
)
from .closed_form import star_kernel_scalars
from .graph_core import expm_sym


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    """Estimated P(sup over k >= K of squared off-consensus norm >= eps),
    indexed by K = 0..k_max, non-increasing in K. Read off first-passage
    times, which is valid while ``norm_rises`` (event steps where the
    disagreement grew beyond rounding) is 0."""

    eps: float
    probs: np.ndarray
    paths: int
    norm_rises: int = 0


@dataclass(frozen=True)
class DecayFit:
    rate: float
    r_squared: float
    n_points: int
    window: tuple


def project_off_consensus(z) -> np.ndarray:
    """Orthogonal projection onto the complement of the consensus line:
    subtract the mean from every coordinate."""
    z = np.asarray(z, dtype=np.float64)
    return z - z.mean()


def off_consensus_sq(z) -> float:
    """Squared norm of the off-consensus component (the disagreement)."""
    d = project_off_consensus(z)
    return float(d @ d)


def step(z, s: Snapshot, dt: float) -> np.ndarray:
    """One sampling period of the consensus flow: apply the heat kernel of
    the snapshot's Laplacian over dt.

    A single-star snapshot uses the closed-form kernel restricted to the
    m+1 touched coordinates (two scalar sums, O(m) work); multi-star
    snapshots go through the dense symmetric exponential. Snapshots with no
    events leave the state unchanged.
    """
    if not (dt > 0.0):
        raise ValueError(f"step needs dt > 0, got {dt}")
    z = np.asarray(z, dtype=np.float64)
    if len(s.events) == 0:
        return z.copy()
    if len(s.events) == 1:
        e = s.events[0]
        center, edge, y, w = star_kernel_scalars(e.m, dt)
        c = e.center - 1
        idx = np.array(e.neighbors, dtype=np.intp) - 1
        zc = z[c]
        tot = float(z[idx].sum())
        out = z.copy()
        out[c] = center * zc + edge * tot
        out[idx] = edge * zc + y * z[idx] + w * tot
        return out
    E = expm_sym(snapshot_laplacian(s), dt)
    return E @ z


def _count_exceed(p, model, rule, z0, k_max, eps, seed, lo, hi):
    """Survival counts over paths lo..hi-1 from each path's first-passage
    time tau below eps (k_max + 1 if it never drops): counts[K] = #{paths
    with tau > K}. Also returns the paths' total norm rises.

    An idle draw leaves the state unchanged, so the idle periods after it
    are consumed in bulk by ``idle_run``, which draws what
    ``generate_snapshot`` would have drawn for them: each path reads the
    same stream as a period-by-period walk."""
    taus = np.empty(hi - lo, dtype=np.int64)
    rises = 0
    for j, idx in enumerate(range(lo, hi)):
        rng = np.random.default_rng(seed ^ idx)
        z, cur, k = z0, off_consensus_sq(z0), 0
        while cur >= eps and k < k_max:
            k += 1
            s = generate_snapshot(p, rng, model, rule)
            if not s.events:
                k += idle_run(p, rng, model, k_max - k)
                continue
            z = step(z, s, p.dt)
            new = off_consensus_sq(z)
            rises += new > cur * (1.0 + 1e-12) + 1e-15
            cur = new
        taus[j] = k if cur < eps else k_max + 1
    return (hi - lo) - np.cumsum(np.bincount(taus, minlength=k_max + 2)[:-1]), rises


def run_paths(
    p: ModelParams,
    model: str,
    rule: TieBreakRule,
    z0,
    k_max: int,
    n_paths: int,
    eps: float,
    seed: int,
    n_jobs: int = 1,
) -> SurvivalCurve:
    """Estimate the survival curve from n_paths independent sample paths.

    Per path: simulate from z0 until the squared disagreement first drops
    below eps, at step tau. probs[K] = #{tau > K} / n_paths, which is the
    fraction whose suffix max from K on reaches eps because every snapshot
    kernel contracts the disagreement. Deterministic for any n_jobs.
    """
    center_sets(p, model, rule)  # raises on an unknown tag or a sparse sum(a) > 1
    if k_max < 1 or n_paths < 1:
        raise ValueError(f"need k_max >= 1 and n_paths >= 1, got {k_max}, {n_paths}")
    if not (eps > 0):
        raise ValueError(f"threshold must be > 0, got {eps}")
    if not (p.dt > 0):
        raise ValueError(f"dt: simulation needs a positive sampling period, got {p.dt}")
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.shape != (p.n,) or not np.isfinite(z0).all():
        raise ValueError(f"initial state must be {p.n} finite values")
    seed = int(seed)
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")

    jobs = min(max(n_jobs, 1), n_paths)
    cuts = [n_paths * j // jobs for j in range(jobs + 1)]
    work = [(p, model, rule, z0, k_max, eps, seed, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    if jobs == 1:
        parts = [_count_exceed(*work[0])]
    else:
        # Imported here so that a single-process run does not load
        # multiprocessing. A fork-started pool launches all its workers at
        # the first submit.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as ex:
            parts = list(ex.map(_count_exceed, *zip(*work)))
    counts, rises = map(sum, zip(*parts))
    probs = counts / float(n_paths)
    return SurvivalCurve(eps=eps, probs=probs, paths=n_paths, norm_rises=rises)


def fit_decay_stats(curve: SurvivalCurve, window: tuple | None = None) -> DecayFit:
    """Least-squares geometric fit of the survival curve inside a
    probability window.

    Keeps the K with p_lo < probs[K] < p_hi (dropping the saturated head
    and the noise floor), fits log probs against K, and reports e**slope
    plus the fit's R^2. Default window: (10/paths, 0.95).
    """
    if window is None:
        window = (10.0 / curve.paths, 0.95)
    p_lo, p_hi = window
    probs = np.asarray(curve.probs)
    ks = np.nonzero((probs > p_lo) & (probs < p_hi))[0]
    if len(ks) < 5:
        raise ValueError(
            f"only {len(ks)} curve points fall strictly inside ({p_lo}, {p_hi}); "
            "need at least 5 for a decay fit"
        )
    y = np.log(probs[ks])
    slope, intercept = np.polyfit(ks, y, 1)
    resid = y - (slope * ks + intercept)
    ss_res = float(resid @ resid)
    dy = y - y.mean()
    ss_tot = float(dy @ dy)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        rate=float(np.exp(slope)),
        r_squared=r2,
        n_points=len(ks),
        window=(float(p_lo), float(p_hi)),
    )
