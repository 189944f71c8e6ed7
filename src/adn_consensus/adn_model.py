"""The activity-driven model and its sparse and fast-switching variants:
each variant's law of star centres, exact (``center_sets``) and sampled
(``EventSampler``, which draws for many paths at once; ``generate_snapshot``
is its one-period call), and the snapshot-count formula.

All randomness flows through an explicit ``numpy.random.Generator`` (PCG64).
Independent streams come from ``stream(seed, *key)``, which seeds one
generator from ``SeedSequence([seed, *key])``: the Monte Carlo paths of
block b read ``stream(seed, PATHS, b)``, and the drawn rates and initial
state ``stream(seed, RATES)`` and ``stream(seed, STATE)``. No two keys
share a stream, whatever the seeds.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations

import numpy as np

from .graph_core import STACK_BYTES, StarSpec, star_union_laplacian

# Stream keys: the second word of each ``stream`` seed.
PATHS, RATES, STATE = 0, 1, 2


def stream(seed: int, *key: int):
    """The generator of one keyed stream of a run seed."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


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


def center_stars(p: ModelParams) -> list:
    """The law ``EventSampler.neighbours`` draws from, written out: for each
    centre 1..n, the list of its C(n-1, m) equally likely stars in
    ``combinations`` order."""
    others = ([j for j in range(1, p.n + 1) if j != i] for i in range(1, p.n + 1))
    return [[StarSpec(p.n, i, N) for N in combinations(js, p.m)] for i, js in enumerate(others, 1)]


def center_star_table(p: ModelParams) -> np.ndarray:
    """``center_stars``' neighbour sets as one (n, C(n-1, m), m) array of
    0-based node ids, without a ``StarSpec`` per star."""
    others = ([j for j in range(p.n) if j != i] for i in range(p.n))
    return np.array([list(combinations(js, p.m)) for js in others], dtype=np.intp)


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


def _survivor(active: list, rule: TieBreakRule, u: float) -> int:
    """The survivor of two or more activated nodes under a table rule, for
    a uniform u in [0, 1)."""
    weights = rule.weights_for(frozenset(active))
    cum = list(accumulate(weights.get(i, 0.0) for i in active))
    # A draw at or past cum[-1] goes to the last node of positive weight.
    return active[min(bisect_right(cum, u), bisect_left(cum, cum[-1]))]


class EventSampler:
    """A variant's law of one period's stars, drawn for many paths at once,
    the one place each variant's sampling is written.

    A period has a star with probability ``p_event``: sum(a) under
    ``sparse``, 1 - prod(1 - a_i) otherwise (``log_idle`` is the log of its
    complement). ``gaps`` draws the periods up to the next one with a star;
    ``centres`` draws that period's centres given that it has one, and
    ``neighbours`` each star's m neighbours. Each method reads its uniforms
    in row order, so a stream's meaning depends only on the rows drawn.
    """

    def __init__(
        self, p: ModelParams, model: str = "full", rule: TieBreakRule = UNIFORM_TIE_BREAK
    ):
        self.p, self.model, self.rule = p, model, rule
        if model == "sparse":
            p.require_sparse()
            self._bins = np.array(p.rates_cumsum)
            self.p_event = p.rate_sum
            self.log_idle = math.log1p(-p.rate_sum) if p.rate_sum < 1.0 else -math.inf
        elif model == "full" or model == "fastswitch":
            with np.errstate(divide="ignore"):  # log1p(-1) = -inf for a rate of 1
                idle = np.cumsum(np.log1p(-p.rates))
            # P(one of nodes 1..i activates), increasing to p_event
            self._bins = -np.expm1(idle)
            self.p_event = float(self._bins[-1])
            self.log_idle = float(idle[-1])
        else:
            raise ValueError(f"unknown model tag {model!r}")

    def gaps(self, rng, rows: int, cap: int) -> np.ndarray:
        """Geometric(p_event) periods up to and including the next one with
        a star, one uniform a row, capped at ``cap``: 1 + floor(log(1 - u) /
        log_idle), which a rate near 0 sends past any integer."""
        u = rng.random(rows)
        with np.errstate(over="ignore"):
            g = np.floor(np.log1p(-u) / self.log_idle)
        return np.minimum(g, cap - 1).astype(np.int64) + 1

    def centres(self, rng, rows: int) -> tuple:
        """The stars' (row, centre) pairs of ``rows`` periods that each have
        one, centres 0-based and increasing within a row, rows increasing.

        ``sparse``: one uniform a row picks centre i with probability
        a_i / sum(a) off the running rate sums. ``full``: one uniform a row
        picks the first active node by inverse CDF, then n uniforms a row
        test each node above it against its rate. ``fastswitch``: as
        ``full``, then one more uniform a row picks the survivor by the
        rule (``_survivor`` for a table)."""
        n, row = self.p.n, np.arange(rows)
        first = np.searchsorted(self._bins, rng.random(rows) * self.p_event, side="right")
        first = np.minimum(first, n - 1)  # u * p_event rounded up to p_event
        if self.model == "sparse":
            return row, first
        active = rng.random((rows, n)) < self.p.rates
        active &= np.arange(n) > first[:, None]
        active[row, first] = True
        if self.model == "full":
            return np.nonzero(active)
        u, count = rng.random(rows), active.sum(axis=1)
        pick = np.minimum((u * count).astype(np.int64), count - 1)
        centre = np.argmax(np.cumsum(active, axis=1) > pick[:, None], axis=1)
        if self.rule.table is not None:
            for r in np.flatnonzero(count > 1).tolist():
                members = (np.flatnonzero(active[r]) + 1).tolist()
                centre[r] = _survivor(members, self.rule, u[r]) - 1
        return row, centre

    def neighbours(self, rng, centre: np.ndarray) -> np.ndarray:
        """Each star's m neighbours, 0-based and increasing: the m smallest
        of n uniform keys, the centre's excluded, a uniform m-subset of the
        other nodes. Keys are drawn in chunks of at most ``STACK_BYTES``."""
        n, m = self.p.n, self.p.m
        out = np.empty((len(centre), m), dtype=np.intp)
        size = max(1, STACK_BYTES // (8 * n))
        for lo in range(0, len(centre), size):
            c = centre[lo:lo + size]
            keys = rng.random((len(c), n))
            keys[np.arange(len(c)), c] = 2.0
            out[lo:lo + size] = np.sort(np.argpartition(keys, m - 1, axis=1)[:, :m], axis=1)
        return out


def generate_snapshot(
    p: ModelParams, rng, model: str = "full", rule: TieBreakRule = UNIFORM_TIE_BREAK
) -> Snapshot:
    """One period of the variant's law (``center_sets``): a Bernoulli(p_event)
    draw, then ``EventSampler``'s draw of the centres given a star, and of
    each centre's neighbours, for one row."""
    sampler = EventSampler(p, model, rule)
    if not rng.random() < sampler.p_event:
        return Snapshot(p.n, ())
    _, centre = sampler.centres(rng, 1)
    nbs = (sampler.neighbours(rng, centre) + 1).tolist()
    stars = (StarSpec(p.n, c + 1, tuple(N)) for c, N in zip(centre.tolist(), nbs))
    return Snapshot(p.n, tuple(stars))


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
