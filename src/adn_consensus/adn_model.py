"""Temporal-network generators: the activity-driven model, its sparse
at-most-one-activation variant, and the fast-switching single-survivor
variant, plus the snapshot-count formula.

All randomness flows through an explicit ``numpy.random.Generator`` (PCG64
via ``numpy.random.default_rng``). Callers that need scheduling-independent
parallel streams derive one generator per unit of work as
``default_rng(seed ^ index)``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graph_core import StarSpec


@dataclass(frozen=True)
class ModelParams:
    """Activity-driven model parameters.

    ``a`` holds per-node activity rates in (0, 1]. ``dt`` is the sampling
    period; 0 is admitted so the no-motion limit stays representable.
    The sparse variant additionally needs sum(a) <= 1, checked at the point
    of use rather than here.
    """

    n: int
    m: int
    a: tuple
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        if self.n < 2:
            raise ValueError(f"need n >= 2 nodes, got {self.n}")
        if not (1 <= self.m <= self.n - 1):
            raise ValueError(f"need 1 <= m <= n-1, got m={self.m}, n={self.n}")
        if len(self.a) != self.n:
            raise ValueError(f"activity vector has {len(self.a)} entries, n={self.n}")
        if any(not (0.0 < x <= 1.0) for x in self.a):
            raise ValueError("activity rates must lie in (0, 1]")
        if not (self.dt >= 0.0) or not math.isfinite(self.dt):
            raise ValueError(f"sampling period must be >= 0, got {self.dt}")

    @property
    def rate_sum(self) -> float:
        return float(sum(self.a))

    def require_sparse(self):
        if self.rate_sum > 1.0:
            raise ValueError(
                f"sparse variant needs sum of activity rates <= 1, got {self.rate_sum}"
            )


@dataclass(frozen=True)
class Snapshot:
    """One discrete-time graph: the union of zero or more activation stars."""

    n: int
    events: tuple
    kind: str = "full"

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if self.kind not in ("full", "sparse", "fastswitch"):
            raise ValueError(f"unknown snapshot kind {self.kind!r}")
        for e in self.events:
            if e.n != self.n:
                raise ValueError(
                    f"event is sized for {e.n} nodes, snapshot has {self.n}"
                )
        if len(self.events) > 1:
            if self.kind != "full":
                raise ValueError(f"{self.kind} snapshots carry at most one event")
            centers = [e.center for e in self.events]
            if len(set(centers)) != len(centers):
                raise ValueError("event centers must be distinct")


@dataclass(frozen=True)
class TieBreakRule:
    """How the fast-switching variant picks the one surviving activated node.

    ``uniform`` keeps each activated node with probability 1/|S|. ``table``
    looks the activated set up in an explicit weight table (frozenset of
    node ids -> {node id: weight}) and never falls back silently.
    """

    mode: str = "uniform"
    table: dict | None = None

    def __post_init__(self):
        if self.mode not in ("uniform", "table"):
            raise ValueError(f"unknown tie-break mode {self.mode!r}")
        if self.mode == "table":
            if not self.table:
                raise ValueError("table mode needs a weight table")
            for s, weights in self.table.items():
                s = frozenset(s)
                if len(s) < 2:
                    raise ValueError("table entries are for sets of >= 2 nodes")
                if set(weights) - s:
                    raise ValueError(f"weights for {sorted(s)} name nodes outside the set")
                vals = list(weights.values())
                if any(w < 0 for w in vals):
                    raise ValueError("tie-break weights must be >= 0")
                if abs(sum(vals) - 1.0) > 1e-12:
                    raise ValueError(f"weights for {sorted(s)} sum to {sum(vals)}, not 1")

    def weights_for(self, active: frozenset) -> dict:
        if self.mode == "uniform":
            w = 1.0 / len(active)
            return {i: w for i in active}
        if active not in self.table:
            raise ValueError(
                f"activated set {sorted(active)} missing from tie-break table"
            )
        return self.table[active]


UNIFORM_TIE_BREAK = TieBreakRule("uniform")


@lru_cache(maxsize=None)
def _rates_cumsum(p: ModelParams) -> tuple:
    acc, out = 0.0, []
    for x in p.a:
        acc += x
        out.append(acc)
    return tuple(out)


def _sample_m_subset(n: int, center: int, m: int, rng) -> tuple:
    """Uniform m-subset of {1..n} minus the center, without replacement.

    Draws distinct indices over the n-1 candidates (partial shuffle inside
    ``Generator.choice``) and remaps them around the excluded center.
    """
    idx = rng.choice(n - 1, size=m, replace=False)
    return tuple(sorted(int(i) + 1 if int(i) + 1 < center else int(i) + 2 for i in idx))


def generate_snapshot(p: ModelParams, rng) -> Snapshot:
    """Draw one activity-driven snapshot: each node activates independently
    with its own rate and wires itself to a uniform m-subset of the others."""
    u = rng.random(p.n)
    events = []
    for i in range(p.n):
        if u[i] < p.a[i]:
            center = i + 1
            events.append(StarSpec(p.n, center, _sample_m_subset(p.n, center, p.m, rng)))
    return Snapshot(p.n, tuple(events), "full")


def generate_sparse_snapshot(p: ModelParams, rng) -> Snapshot:
    """Draw a sparse-variant snapshot: node i is the single activated node
    with probability a_i, and no node activates with probability 1 - sum(a)."""
    cum = _rates_cumsum(p)
    if cum[-1] > 1.0:
        raise ValueError(f"sparse variant needs sum of activity rates <= 1, got {cum[-1]}")
    u = rng.random()
    if u >= cum[-1]:
        return Snapshot(p.n, (), "sparse")
    for i, c in enumerate(cum):
        if u < c:
            center = i + 1
            spec = StarSpec(p.n, center, _sample_m_subset(p.n, center, p.m, rng))
            return Snapshot(p.n, (spec,), "sparse")
    raise AssertionError("unreachable")


def generate_fastswitch_snapshot(p: ModelParams, rule: TieBreakRule, rng) -> Snapshot:
    """Draw a fast-switching snapshot: sample the full activation set, then
    if two or more nodes activated keep exactly one survivor per the rule."""
    u = rng.random(p.n)
    active = [i + 1 for i in range(p.n) if u[i] < p.a[i]]
    if not active:
        return Snapshot(p.n, (), "fastswitch")
    if len(active) == 1:
        center = active[0]
    elif rule.mode == "uniform":
        center = active[int(rng.integers(len(active)))]
    else:
        weights = rule.weights_for(frozenset(active))
        v = rng.random()
        acc = 0.0
        center = active[-1]
        for i in active:
            acc += weights.get(i, 0.0)
            if v < acc:
                center = i
                break
    spec = StarSpec(p.n, center, _sample_m_subset(p.n, center, p.m, rng))
    return Snapshot(p.n, (spec,), "fastswitch")


def snapshot_count(n: int, m: int) -> int:
    """Number of distinct snapshots the activity-driven model can produce:
    every node is either idle or paired with one of its C(n-1, m) possible
    neighbor sets, so the count is (1 + C(n-1, m))**n (exact big integer)."""
    if n < 2 or not (1 <= m <= n - 1):
        raise ValueError(f"need n >= 2 and 1 <= m <= n-1, got n={n}, m={m}")
    return (1 + math.comb(n - 1, m)) ** n


def snapshot_laplacian(s: Snapshot) -> np.ndarray:
    """Laplacian of the union of the snapshot's stars (int64).

    The union is a simple graph: when two activated nodes pick each other
    the duplicate edge collapses to a single edge of weight 1.
    """
    A = np.zeros((s.n, s.n), dtype=np.int64)
    for e in s.events:
        c = e.center - 1
        for j in e.neighbors:
            A[c, j - 1] = 1
            A[j - 1, c] = 1
    L = np.diag(A.sum(axis=1)) - A
    return L
