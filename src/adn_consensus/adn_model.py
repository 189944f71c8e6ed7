"""The activity-driven model and its sparse and fast-switching variants:
each variant's law of star centres, exact (``center_sets``) and sampled
(``generate_snapshot``, with ``idle_run`` consuming runs of idle periods on
the same draws), and the snapshot-count formula.

All randomness flows through an explicit ``numpy.random.Generator`` (PCG64
via ``numpy.random.default_rng``). Callers that need scheduling-independent
parallel streams derive one generator per unit of work as
``default_rng(seed ^ index)``.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations

import numpy as np

from .graph_core import StarSpec, star_union_laplacian


@dataclass(frozen=True)
class ModelParams:
    """Activity-driven model parameters.

    ``a`` holds per-node activity rates in (0, 1]. ``dt`` is the sampling
    period; 0 is admitted so the no-motion limit stays representable.
    The sparse variant additionally needs sum(a) <= 1 (``sparse_regime``),
    checked at the point of use by ``require_sparse`` rather than here.
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

    @cached_property
    def rates(self) -> np.ndarray:
        """``a`` as a read-only float64 array, for vectorized comparisons."""
        a = np.array(self.a)
        a.flags.writeable = False
        return a

    @cached_property
    def rates_cumsum(self) -> tuple:
        """Running sums a_1, a_1 + a_2, ..., the sparse generator's bins."""
        return tuple(accumulate(self.a))

    @cached_property
    def rate_sum(self) -> float:
        """sum(a), added left to right: the last of ``rates_cumsum``."""
        return self.rates_cumsum[-1]

    @property
    def sparse_regime(self) -> bool:
        """sum(a) <= 1, the sparse variant's condition."""
        return self.rate_sum <= 1.0

    def require_sparse(self):
        """The sparse variant's gate: ``sparse_regime``."""
        if not self.sparse_regime:
            raise ValueError(
                f"activity: rate sum {self.rate_sum} exceeds 1; the sparse variant "
                "requires sum(a) <= 1"
            )


@dataclass(frozen=True)
class Snapshot:
    """One discrete-time graph: the union of zero or more activation stars."""

    n: int
    events: tuple

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        for e in self.events:
            if e.n != self.n:
                raise ValueError(
                    f"event is sized for {e.n} nodes, snapshot has {self.n}"
                )
        if len(self.events) > 1:
            centers = [e.center for e in self.events]
            if len(set(centers)) != len(centers):
                raise ValueError("event centers must be distinct")


def _check_entry(s: frozenset, weights: dict):
    """Raise ValueError unless ``weights`` is a survivor distribution over
    the activated set ``s`` of two or more nodes."""
    if len(s) < 2:
        raise ValueError("table entries are for sets of >= 2 nodes")
    if set(weights) - s:
        raise ValueError(f"weights for {sorted(s)} name nodes outside the set")
    vals = list(weights.values())
    if any(not (math.isfinite(w) and w >= 0) for w in vals):
        raise ValueError(f"tie-break weights must be finite and >= 0, got {vals}")
    if abs(sum(vals) - 1.0) > 1e-12:
        raise ValueError(f"weights for {sorted(s)} sum to {sum(vals)}, not 1")


@dataclass(frozen=True)
class TieBreakRule:
    """How the fast-switching variant picks the one surviving activated node.

    With no ``table`` (the uniform rule) each activated node survives with
    probability 1/|S|. A ``table`` maps activated sets (frozensets of node
    ids) to survivor weights ({node id: weight}), is checked here, each
    entry once and in order, and never falls back silently.
    """

    table: dict | None = None

    def __post_init__(self):
        if self.table is None:
            return
        if not self.table:
            raise ValueError("tie_break.entries: a table needs at least one entry")
        for k, (s, weights) in enumerate(self.table.items()):
            try:
                _check_entry(frozenset(s), weights)
            except ValueError as exc:
                raise ValueError(f"tie_break.entries[{k}]: {exc}") from None

    def weights_for(self, active: frozenset) -> dict:
        """Survivor weights over a nonempty activated set; a lone activated
        node survives with weight 1 under either rule."""
        if self.table is None or len(active) == 1:
            w = 1.0 / len(active)
            return {i: w for i in active}
        if active not in self.table:
            raise ValueError(
                f"tie_break: activated set {sorted(active)} missing from tie-break table"
            )
        return self.table[active]


UNIFORM_TIE_BREAK = TieBreakRule()


def activation_sets(p: ModelParams):
    """Yield (members, probability) for each of the 2**n activation sets:
    the activated node ids in increasing order, and the product of a_i over
    the members and 1 - a_i over the other nodes."""
    for mask in range(1 << p.n):
        prob = 1.0
        for i in range(p.n):
            prob *= p.a[i] if mask >> i & 1 else 1.0 - p.a[i]
        yield tuple(i + 1 for i in range(p.n) if mask >> i & 1), prob


def _sample_m_subset(n: int, center: int, m: int, rng) -> tuple:
    """Uniform m-subset of {1..n} minus the center, without replacement.

    Draws distinct indices over the n-1 candidates (partial shuffle inside
    ``Generator.choice``) and remaps them around the excluded center, in
    draw order (``StarSpec`` sorts them).
    """
    idx = rng.choice(n - 1, size=m, replace=False).tolist()
    return tuple(i + 1 if i + 1 < center else i + 2 for i in idx)


def center_stars(p: ModelParams) -> list:
    """The law ``_sample_m_subset`` draws from, written out: for each centre
    1..n, the list of its C(n-1, m) equally likely stars in ``combinations`` order."""
    others = ([j for j in range(1, p.n + 1) if j != i] for i in range(1, p.n + 1))
    return [[StarSpec(p.n, i, N) for N in combinations(js, p.m)] for i, js in enumerate(others, 1)]


def center_sets(p: ModelParams, model: str = "full", rule: TieBreakRule = UNIFORM_TIE_BREAK):
    """The variant's exact law of one period's star centres: (centres,
    probability) pairs, centres increasing. ``full``: ``activation_sets``;
    ``sparse``: () with 1 - sum(a), (i,) with a_i; ``fastswitch``: () with
    P(none active), (i,) with P(S) * w_i(S) for each activated set S and
    w_i(S) > 0. Checks the tag and the sparse gate on the call."""
    if model == "full":
        return activation_sets(p)
    if model == "sparse":
        p.require_sparse()
        return [((), 1.0 - p.rate_sum)] + [((i + 1,), a) for i, a in enumerate(p.a)]
    if model == "fastswitch":
        return _survivor_sets(p, rule)
    raise ValueError(f"unknown model tag {model!r}")


def _survivor_sets(p: ModelParams, rule: TieBreakRule):
    for members, prob in activation_sets(p):
        if not members:
            yield (), prob
            continue
        weights = rule.weights_for(frozenset(members))
        for i in members:
            wi = weights.get(i, 0.0)
            if wi > 0.0:
                yield (i,), prob * wi


def _survivor(active: list, rule: TieBreakRule, rng) -> int:
    """One survivor of two or more activated nodes, drawn per the rule."""
    if rule.table is None:
        return active[int(rng.integers(len(active)))]
    weights = rule.weights_for(frozenset(active))
    cum = list(accumulate(weights.get(i, 0.0) for i in active))
    # A draw at or past cum[-1] goes to the last node of positive weight.
    return active[min(bisect_right(cum, rng.random()), bisect_left(cum, cum[-1]))]


def _draw_activity(p: ModelParams, rng, model: str, periods: tuple = ()):
    """Draw the uniforms of ``periods`` sampling periods and apply the
    variant's activation test, the one place it is written. ``sparse`` draws
    one uniform per period, and some node activates when it falls below
    sum(a); ``full`` and ``fastswitch`` draw one per node, and node i
    activates when its uniform falls below a_i. Returns the uniforms and the
    activation mask, both of shape ``periods + (1 or n,)``."""
    if model == "sparse":
        p.require_sparse()
        u = rng.random(periods + (1,))
        return u, u < p.rate_sum
    if model == "full" or model == "fastswitch":
        u = rng.random(periods + (p.n,))
        return u, u < p.rates
    raise ValueError(f"unknown model tag {model!r}")


def generate_snapshot(
    p: ModelParams, rng, model: str = "full", rule: TieBreakRule = UNIFORM_TIE_BREAK
) -> Snapshot:
    """Draw the centres under the variant's law (``center_sets``), then wire
    each in turn to a uniform m-subset of the other nodes. ``sparse`` reads
    its centre off the running rate sums; the others activate each node
    whose uniform falls below its rate."""
    u, active = _draw_activity(p, rng, model)
    if model == "sparse":
        centres = [bisect_right(p.rates_cumsum, u[0]) + 1] if active[0] else []
    else:
        centres = [i for i, hit in enumerate(active.tolist(), 1) if hit]
        if model == "fastswitch" and len(centres) > 1:
            centres = [_survivor(centres, rule, rng)]
    if not centres:
        return Snapshot(p.n, ())
    stars = (StarSpec(p.n, c, _sample_m_subset(p.n, c, p.m, rng)) for c in centres)
    return Snapshot(p.n, tuple(stars))


# Uniforms per chunk of ``idle_run``: enough to amortize a chunk's fixed
# cost (a saved state and a few numpy calls, several microseconds) over a
# typical idle run, few enough that the draws past its end stay cheap.
_IDLE_CHUNK = 1024


def idle_run(p: ModelParams, rng, model: str, limit: int) -> int:
    """Consume the coming idle periods, at most ``limit``, and return how
    many there were. The draws are exactly those ``generate_snapshot``
    would make for them, taken in chunks of periods, so ``rng`` is left at
    the start of the first period that activates a node and the stream
    reads on as if each idle period had been drawn in turn.

    ``Generator.random((B, w))`` yields the doubles of B calls to
    ``random(w)`` and leaves the 32-bit buffer that ``choice`` and
    ``integers`` may hold untouched. On a chunk with an active period the
    state saved before the chunk is restored and only its idle rows are
    drawn again; ``advance()`` would rewind too, but clears that buffer.
    """
    per_period = 1 if model == "sparse" else p.n  # as _draw_activity draws
    done = 0
    while done < limit:
        rows = min(max(1, _IDLE_CHUNK // per_period), limit - done)
        saved = rng.bit_generator.state
        active = _draw_activity(p, rng, model, (rows,))[1]
        first = int(active.argmax())  # flat index of the first activation
        if active.flat[first]:
            r = first // active.shape[1]
            rng.bit_generator.state = saved
            _draw_activity(p, rng, model, (r,))
            return done + r
        done += rows
    return done


def snapshot_count(n: int, m: int) -> int:
    """Number of distinct snapshots the activity-driven model can produce:
    every node is either idle or paired with one of its C(n-1, m) possible
    neighbor sets, so the count is (1 + C(n-1, m))**n (exact big integer)."""
    if n < 2 or not (1 <= m <= n - 1):
        raise ValueError(f"need n >= 2 and 1 <= m <= n-1, got n={n}, m={m}")
    return (1 + math.comb(n - 1, m)) ** n


def snapshot_laplacian(s: Snapshot) -> np.ndarray:
    """Laplacian of the union of the snapshot's stars (int64), in which an
    edge two activated nodes both pick counts once."""
    return star_union_laplacian(s.n, s.events)
