"""Monte Carlo engine for the sampled consensus dynamics, survival-curve
estimation, and decay-rate fitting.

Every snapshot kernel contracts the disagreement, so each path stops at its
first passage below eps and the survival curve is one minus the empirical
CDF of the first-passage times. The engine is event-driven and advances a
block of up to ``BLOCK`` paths together: each round, every live path draws
its gap to the next period with a star, paths pushed past k_max are
censored, and the rest draw that period's stars and take its heat kernel,
the closed form for a lone star and stacked dense exponentials for several
(the ``adn_model.Variant`` draws, ``_apply_stars`` applies). Block b reads
``stream(seed, PATHS, b)``; workers take whole blocks and counts are
aggregated as exact integers, so results are identical for any number of
workers. ``step`` is the one-path reference the engine's update matches.
"""

import os
from dataclasses import dataclass

import numpy as np

from .adn_model import PATHS, Snapshot, Variant, snapshot_laplacian, stream
from .closed_form import star_kernel_scalars
from .graph_core import expm_sym, stacks, star_union_laplacians

# Paths advanced together, whatever the worker count: the unit of the
# random streams and of the work handed to a worker.
BLOCK = 256


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
    subtract the mean from every coordinate (of each row of a stack)."""
    z = np.asarray(z, dtype=np.float64)
    return z - z.mean(axis=-1, keepdims=True)


def off_consensus_sq(z):
    """Squared norm of the off-consensus component (the disagreement): a
    float for one state, an array for a stack of states, one per row with
    each row's arithmetic as alone."""
    d = project_off_consensus(z)
    sq = (d * d).sum(axis=-1)
    return float(sq) if d.ndim == 1 else sq


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


def _apply_stars(Z, row, centre, nbs, m: int, dt: float) -> np.ndarray:
    """One period of each row of Z under its stars (``row``, ``centre`` and
    neighbours ``nbs``, 0-based, rows increasing), with ``step``'s
    arithmetic: a row with one star takes the closed-form kernel on its
    m + 1 touched coordinates, gathered across rows; rows with several go
    through ``star_union_laplacians`` and ``expm_sym`` in ``stacks``."""
    n = Z.shape[1]
    count = np.bincount(row, minlength=len(Z))
    lone = count[row] == 1
    if lone.any():
        r, c, idx = row[lone], centre[lone], nbs[lone]
        cw, edge, y, w = star_kernel_scalars(m, dt)
        zc, zn = Z[r, c], Z[r[:, None], idx]
        tot = zn.sum(axis=1)
        Z[r, c] = cw * zc + edge * tot
        Z[r[:, None], idx] = edge * zc[:, None] + y * zn + w * tot[:, None]
    multi = np.flatnonzero(count > 1)
    stars = np.flatnonzero(~lone)  # grouped by row, as the rows of multi
    first = np.cumsum(count[multi]) - count[multi]
    for chunk in stacks(range(len(multi)), n):
        lo, hi = chunk[0], chunk[-1] + 1
        rows, many = multi[lo:hi], count[multi[lo:hi]]
        # each row's stars, its last repeated (adding no edge) to the longest row's count
        s = stars[first[lo:hi, None] + np.minimum(np.arange(many.max()), many[:, None] - 1)]
        L = star_union_laplacians(n, centre[s], nbs[s])
        Z[rows] = np.matmul(expm_sym(L, dt), Z[rows, :, None])[..., 0]
    return Z


def _count_block(v, z0, k_max, eps, seed, b, paths):
    """Survival counts of block b's ``paths`` paths from their
    first-passage times tau below eps (k_max + 1 if a path never drops):
    counts[K] = #{paths with tau > K}, and the paths' total norm rises.

    Rows leave the block at first passage or at censoring, so each round
    draws and steps only the live ones."""
    rng = stream(seed, PATHS, b)
    taus = np.zeros(k_max + 2, dtype=np.int64)  # paths by first-passage time
    rows = paths if off_consensus_sq(z0) >= eps else 0
    taus[0] = paths - rows
    Z = np.tile(z0, (rows, 1))
    cur, k = off_consensus_sq(Z), np.zeros(rows, dtype=np.int64)
    rises = 0
    while len(k):
        k += v.gaps(rng, len(k), k_max + 1)
        out = k > k_max
        if out.any():
            taus[-1] += np.count_nonzero(out)
            Z, cur, k = Z[~out], cur[~out], k[~out]
            if not len(k):
                break
        row, centre = v.centres(rng, len(k))
        Z = _apply_stars(Z, row, centre, v.neighbours(rng, centre), v.p.m, v.p.dt)
        new = off_consensus_sq(Z)
        rises += int(np.count_nonzero(new > cur * (1.0 + 1e-12) + 1e-15))
        done = new < eps
        if done.any():
            np.add.at(taus, k[done], 1)
            Z, new, k = Z[~done], new[~done], k[~done]
        cur = new
    return paths - np.cumsum(taus[:-1]), rises


def run_paths(
    v: Variant,
    z0,
    k_max: int,
    n_paths: int,
    eps: float,
    seed: int,
    n_jobs: int = 1,
) -> SurvivalCurve:
    """Estimate the survival curve from n_paths independent sample paths
    of the variant ``v``.

    Per path: simulate from z0 until the squared disagreement first drops
    below eps, at step tau. probs[K] = #{tau > K} / n_paths, which is the
    fraction whose suffix max from K on reaches eps because every snapshot
    kernel contracts the disagreement. Deterministic for any n_jobs: the
    paths run in blocks of ``BLOCK`` and a worker takes whole blocks.
    """
    p = v.p
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

    work = [
        (v, z0, k_max, eps, seed, b, min(BLOCK, n_paths - lo))
        for b, lo in enumerate(range(0, n_paths, BLOCK))
    ]
    jobs = min(max(n_jobs, 1), len(work))
    if jobs == 1:
        parts = [_count_block(*w) for w in work]
    else:
        # Imported here so that a single-process run does not load
        # multiprocessing. A fork-started pool launches all its workers at
        # the first submit.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as ex:
            parts = list(ex.map(_count_block, *zip(*work)))
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
