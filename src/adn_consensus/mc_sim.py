"""Monte Carlo engine for the sampled consensus dynamics, survival-curve
estimation, and decay-rate fitting.

Every snapshot kernel contracts the disagreement, so each path stops at its
first passage below eps and the survival curve is one minus the empirical
CDF of the first-passage times. The engine is event-driven and advances a
block of up to ``BLOCK`` paths together: each round, every live path draws
its gap to the next period with a star, paths pushed past k_max are
censored, and the rest draw that period's stars and take its heat kernel
(the ``adn_model.Variant`` draws, ``_apply_stars`` applies): the closed form
for a lone star (``_lone``, on every row at once in a round of one star a
row, the sparse regime's usual round); for several, the kernel's action on
the states by a shifted Taylor series (``graph_core.expm_action``) below a
cost switch in dt times
the largest degree, joined there by lone stars where cheaper, and stacked
eigen-solves above it, of the Laplacians (``expm_sym``) or, where cheaper,
of their quotients on the touched nodes' twin classes (``_on_twins``),
"cheaper" by the fitted costs of ``_COST``. Block b reads ``stream(seed,
PATHS, b)``; workers take whole blocks and counts are exact integers, so
results are identical for any number of workers. ``step`` is the one-path
reference the engine's update matches.
"""

import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .adn_model import PATHS, Snapshot, Variant, snapshot_laplacian, stream
from .closed_form import star_kernel_scalars
from .graph_core import STACK_BYTES, expm_action, expm_sym, star_union_laplacians, taylor_plan

# Paths advanced together, whatever the worker count: the unit of the
# random streams and of the work handed to a worker.
BLOCK = 256
# The environment a worker process starts in, on top of its parent's.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The routes' costs in us on one core of a 2-core Xeon VM (numpy 2.4, OpenBLAS),
# each a line fitted to timeit figures of the calls it prices: a Taylor term of
# a (k, n, n) stack, term + term_nn k n^2, against eigh + eigh_nn k n^2 for the
# eigen-solve route; a lone row in the action's stacks, lone_build n^2 plus
# lone_term n^2 a term, against lone_gather for the closed form; and the
# eigen-solve on twin classes, twin + twin_row k (``_on_twins``, fitted on
# small10's and large50's replayed rows, k = 1-32), against the full-size solve.
_COST = {"term": 4.0, "term_nn": 5e-4, "eigh": 40.0, "eigh_nn": 0.12, "lone_build": 7e-4,
         "lone_term": 6e-4, "lone_gather": 40.0, "twin": 84.0, "twin_row": 10.0}


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
    return z - z.sum(axis=-1, keepdims=True) / z.shape[-1]  # np.mean's arithmetic


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
    neighbours ``nbs``, 0-based, rows increasing, one or more a row). A round
    of one star a row goes straight to ``_lone``. Otherwise rows with several
    go to ``_stacked``, on the action route if ``_cheaper_plan`` finds it
    cheaper even at its least theta, dt * m, and a lone star takes ``_lone``
    too, gathered across rows, unless its row costs less in the action's
    stacks. The routes agree to a few ulps."""
    if len(row) == len(Z):  # one star a row
        return _lone(Z, row, centre, nbs, m, dt)
    count = np.bincount(row, minlength=len(Z))
    multi = count > 1
    k, n = np.count_nonzero(multi), Z.shape[1]
    plan = _cheaper_plan(dt * m, k, n)
    if plan and (len(Z) - k) * n * n * (
        _COST["lone_term"] * plan[0] * plan[1] + _COST["lone_build"]
    ) < _COST["lone_gather"]:
        return _stacked(Z, count, centre, nbs, dt, True)
    lone = ~multi[row]
    if k < len(Z):
        _lone(Z, row[lone], centre[lone], nbs[lone], m, dt)
    Z[multi] = _stacked(Z[multi], count[multi], centre[~lone], nbs[~lone], dt, bool(plan))
    return Z


def _lone(Z, r, c, idx, m: int, dt: float) -> np.ndarray:
    """``step``'s closed form, in place, on rows r of Z, each under its one
    star (centre c, neighbours idx): two sums a row on its m + 1 touched
    coordinates."""
    cw, edge, y, w = star_kernel_scalars(m, dt)
    zc, zn = Z[r, c], Z[r[:, None], idx]
    tot = zn.sum(axis=1)
    Z[r, c] = cw * zc + edge * tot
    Z[r[:, None], idx] = edge * zc[:, None] + y * zn + w * tot[:, None]
    return Z


def _stacked(Z, count, centre, nbs, dt: float, taylor: bool) -> np.ndarray:
    """Each row of Z under its ``count`` stars, in ``stacks`` of consecutive
    rows: ``expm_action`` with ``taylor`` unless ``_cheaper_plan`` finds it
    dearer at dt times the stack's largest degree, else ``expm_sym``, without
    ``taylor`` on the rows' twin classes (``_on_twins``) where ``_COST``
    prices that cheaper than the full-size solve."""
    n, c = Z.shape[1], _COST
    ends, size = count.cumsum(), max(1, STACK_BYTES // (8 * n * n))  # ``stacks``' rule
    for lo in range(0, len(Z), size):
        hi = min(lo + size, len(Z))
        a, b = ends[lo] - count[lo], ends[hi - 1]  # the stack's stars
        k, row = hi - lo, np.arange(hi - lo).repeat(count[lo:hi])
        if not taylor and c["twin"] + c["twin_row"] * k < c["eigh"] + c["eigh_nn"] * k * n * n:
            _on_twins(Z[lo:hi], row, centre[a:b], nbs[a:b], dt)
            continue
        L = star_union_laplacians(k, n, row, centre[a:b], nbs[a:b])
        z = Z[lo:hi, :, None]  # a view
        mu = float(L.diagonal(0, 1, 2).max()) if taylor else 0.0  # the largest degree
        if plan := taylor and _cheaper_plan(dt * mu, k, n):
            expm_action(L, dt, z, *plan, mu)
        else:
            z[...] = np.matmul(expm_sym(L, dt), z)
    return Z


def _on_twins(Z, row, centre, nbs, dt: float) -> None:
    """Z's rows, in place, under their stars on twin classes: each centre alone, and a row's
    other touched nodes by the exact set of its stars they neighbour, so a class's nodes share
    their neighbours and no edge. e^(-dt L) scales a node's deviation from its class mean by
    e^(-dt d), d its degree, and moves the class means by e^(-dt B) on the (k, C, C) quotient
    B = S^(-1/2) P^T L P S^(-1/2), S the class sizes (an equitable partition: Godsil and Royle,
    Algebraic Graph Theory, 2001, ch. 9). Untouched nodes are not written."""
    k, n = Z.shape
    j = np.arange(len(row)) - np.searchsorted(row, row)  # each star's place in its row
    q = int(j.max()) + 1
    bits = np.zeros((k, n, 2 * q), dtype=bool)  # the stars a node neighbours, then centres
    bits[row[:, None], nbs, j[:, None]] = True
    bits[row, centre, j] = False  # a neighbour equal to its own centre pads
    bits[row, centre, q + j] = True
    keys = np.packbits(bits, axis=2)
    keys = keys.view(f"V{keys.shape[2]}")[..., 0]  # the bits' bytes, exact at any q
    r = np.arange(k)[:, None]
    order = np.argsort(keys, axis=1, kind="stable")  # each class a run, untouched (key 0) first
    keys = keys[r, order]
    before = np.concatenate([np.zeros((k, 1), keys.dtype), keys[:, :-1]], axis=1)
    cls = np.empty((k, n), dtype=np.intp)
    cls[r, order] = (keys != before).cumsum(axis=1)  # 0 untouched, then the classes 1..C
    C = int(cls.max())
    P = (cls[..., None] == np.arange(1, C + 1)).astype(float)  # (k, n, C), 0 pads a row
    s = P.sum(axis=1)
    t = s.sum(axis=1, keepdims=True)
    sums = np.matmul(Z[:, None, :], P)[:, 0]
    mu = sums.sum(axis=1, keepdims=True) / t  # the touched mean
    mean = sums / np.maximum(s, 1.0)
    # s_a s_b times the stars that class a neighbours and b centres: a and b are joined,
    # each node of a to each of b, if either way has one, an edge of two stars counted once
    F = np.matmul(P.swapaxes(1, 2), bits.astype(float))
    X = np.matmul(F[..., :q], F[..., q:].swapaxes(1, 2))
    A = (X + X.swapaxes(1, 2) > 0).astype(float)
    d = np.matmul(A, s[..., None])[..., 0]  # a class's degree
    root = np.sqrt(s)
    B = -(root[:, :, None] * root[:, None, :]) * A
    B.reshape(k, C * C)[:, :: C + 1] = d
    lam, V = np.linalg.eigh(B)
    # the means taken about mu as root * (mean - mu); e^(-dt L) keeps the touched mean, which
    # V's rounding on the null vector root would move by several ulps, so it is put back
    y = np.matmul((root * (mean - mu))[:, None, :], V)[:, 0] * np.exp(-dt * lam)
    y = np.matmul(V, y[..., None])[..., 0] / np.maximum(root, 1.0)
    y -= (s * y).sum(axis=1, keepdims=True) / t
    G = np.empty((k, C, 3))
    G[..., 0], G[..., 1], G[..., 2] = mean, y, np.exp(-dt * d)
    G = np.matmul(P, G)  # each node's class's
    np.copyto(Z, mu + G[..., 1] + G[..., 2] * (Z - G[..., 0]), where=cls > 0)


def _cheaper_plan(theta: float, k: int, n: int):
    """``taylor_plan(theta)`` if ``expm_action`` with it on a (k, n, n) stack
    should beat ``expm_sym`` and a product by ``_COST``, else None."""
    size, c = k * n * n, _COST
    try:
        m, s = taylor_plan(theta)
        taylor = m * s * (c["term"] + c["term_nn"] * size)
        return (m, s) if taylor < c["eigh"] + c["eigh_nn"] * size else None
    except OverflowError:  # theta or the step count past the float range
        return None


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
        if gone := np.count_nonzero(out):
            taus[-1] += gone
            Z, cur, k = Z[~out], cur[~out], k[~out]
            if not len(k):
                break
        row, centre = v.centres(rng, len(k))
        Z = _apply_stars(Z, row, centre, v.neighbours(rng, centre), v.p.m, v.p.dt)
        new = off_consensus_sq(Z)
        rises += int(np.count_nonzero(new > cur * (1.0 + 1e-12) + 1e-15))
        done = new < eps
        if np.count_nonzero(done):
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
        # multiprocessing. Workers are spawned, so they load numpy afresh,
        # with one BLAS thread each: forked ones keep the parent's BLAS
        # thread pool and oversubscribe the cores (criterion 6's run took
        # 6.1-9.9 s on two forked workers, 0.9 s on two spawned ones and
        # 1.2-1.5 s on one, on 2 cores).
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        workers = min(jobs, os.cpu_count() or 1)
        with _environ(_WORKER_ENV), ProcessPoolExecutor(workers, mp_context=spawn) as ex:
            parts = list(ex.map(_count_block, *zip(*work)))
    counts, rises = map(sum, zip(*parts))
    probs = counts / float(n_paths)
    return SurvivalCurve(eps=eps, probs=probs, paths=n_paths, norm_rises=rises)


@contextmanager
def _environ(pins: dict):
    """Set ``pins`` in os.environ for the block, then restore what was there."""
    saved = {name: os.environ.get(name) for name in pins}
    os.environ.update(pins)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


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
