"""The activity-driven model and its three variants, ``Full``, ``Sparse``
and ``FastSwitch``: each one class holding its law of star centres, exact
(``folded``) and sampled for many paths at once (``centres``;
``generate_snapshot`` is the one-period call), whether a period holds at
most one star, and its decay-rate ``bound``; the one-star variants with
their enumeration size; and the snapshot-count formula.

All randomness flows through an explicit ``numpy.random.Generator`` (PCG64).
Independent streams come from ``stream(seed, *key)``, which seeds one
generator from ``SeedSequence([seed, *key])``: the Monte Carlo paths of
block b read ``stream(seed, PATHS, b)``, and the drawn rates and initial
state ``stream(seed, RATES)`` and ``stream(seed, STATE)``. No two keys
share a stream, whatever the seeds.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, combinations

import numpy as np

from .graph_core import STACK_BYTES, StarSpec, star_union_laplacian

# Stream keys: the second word of each ``stream`` seed.
PATHS, RATES, STATE = 0, 1, 2


def stream(seed: int, *key: int):
    """The generator of one keyed stream of a run seed."""
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


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


@dataclass(frozen=True)
class ModelParams:
    """Activity-driven model parameters.

    ``a`` holds per-node activity rates in (0, 1]. ``dt`` is the sampling
    period; 0 is admitted so the no-motion limit stays representable.
    ``rule`` is the tie-break rule, which only ``FastSwitch`` reads. The
    sparse variant additionally needs sum(a) <= 1 (``sparse_regime``),
    checked by ``Sparse`` rather than here.
    """

    n: int
    m: int
    a: tuple
    dt: float
    rule: TieBreakRule = field(default=UNIFORM_TIE_BREAK, hash=False)  # a table is a dict
    # ``a`` as a read-only float64 array, for vectorized arithmetic
    rates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rates = np.array(self.a, dtype=np.float64)
        rates.flags.writeable = False
        object.__setattr__(self, "a", tuple(rates.tolist()))
        object.__setattr__(self, "rates", rates)
        if self.n < 2:
            raise ValueError(f"need n >= 2 nodes, got {self.n}")
        if not (1 <= self.m <= self.n - 1):
            raise ValueError(f"need 1 <= m <= n-1, got m={self.m}, n={self.n}")
        if rates.shape != (self.n,):
            raise ValueError(f"activity vector has {rates.size} entries, n={self.n}")
        if not np.all((rates > 0.0) & (rates <= 1.0)):
            raise ValueError("activity rates must lie in (0, 1]")
        if not (self.dt >= 0.0) or not math.isfinite(self.dt):
            raise ValueError(f"sampling period must be >= 0, got {self.dt}")

    @cached_property
    def rates_cumsum(self) -> np.ndarray:
        """Running sums a_1, a_1 + a_2, ... (read-only), the sparse bins."""
        s = np.cumsum(self.rates)
        s.flags.writeable = False
        return s

    @cached_property
    def rate_sum(self) -> float:
        """sum(a), added left to right: the last of ``rates_cumsum``."""
        return float(self.rates_cumsum[-1])

    @property
    def sparse_regime(self) -> bool:
        """sum(a) <= 1, the sparse variant's condition."""
        return self.rate_sum <= 1.0


@dataclass(frozen=True)
class Snapshot:
    """One discrete-time graph: the union of zero or more activation stars."""

    n: int
    events: tuple

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        for e in self.events:
            if e.n != self.n:
                raise ValueError(f"event is sized for {e.n} nodes, snapshot has {self.n}")
        if len(self.events) > 1:
            centers = [e.center for e in self.events]
            if len(set(centers)) != len(centers):
                raise ValueError("event centers must be distinct")


def activation_chunks(p: ModelParams):
    """Yield the 2**n activation sets in mask order (bit i - 1 for node i)
    as (active, prob) chunks of about ``STACK_BYTES``: (k, n) bool members,
    and the product of a_i over them and 1 - a_i over the other nodes."""
    size, nodes = max(1, STACK_BYTES // (8 * p.n)), np.arange(p.n)
    for lo in range(0, 1 << p.n, size):
        active = (np.arange(lo, min(lo + size, 1 << p.n))[:, None] >> nodes & 1).astype(bool)
        prob = np.ones(len(active))
        for i, a in enumerate(p.a):  # node by node from node 1
            prob *= np.where(active[:, i], a, 1.0 - a)
        yield active, prob


def activation_sets(p: ModelParams):
    """Yield (members, probability) for each activation set of
    ``activation_chunks``, the members 1-based and increasing."""
    for active, prob in activation_chunks(p):
        for row, pr in zip(active.tolist(), prob.tolist()):
            yield tuple(i for i, x in enumerate(row, 1) if x), pr


def center_star_table(p: ModelParams) -> np.ndarray:
    """Each centre's C(n-1, m) equally likely neighbour sets, the law
    ``Variant.neighbours`` draws from, written out as one (n, C(n-1, m), m)
    array of 0-based node ids in ``combinations`` order: the subsets of
    n - 1 ids, each id from i up moved one on for centre i."""
    subsets = np.array(list(combinations(range(p.n - 1), p.m)), dtype=np.intp)
    return subsets + (subsets >= np.arange(p.n)[:, None, None])


def _survivor(active: list, rule: TieBreakRule, u: float) -> int:
    """The survivor of two or more activated nodes under a table rule, for
    a uniform u in [0, 1)."""
    weights = rule.weights_for(frozenset(active))
    cum = list(accumulate(weights.get(i, 0.0) for i in active))
    # A draw at or past cum[-1] goes to the last node of positive weight.
    return active[min(bisect_right(cum, u), bisect_left(cum, cum[-1]))]


class Variant:
    """One regime of the model: a law of one period's star centres, exact
    (``folded``: (centre tuples, probabilities), the tuples distinct and
    each increasing) and drawn for many paths at once (``centres``, given
    that the period has a star).

    The draws all regimes share live here. A period has a star with
    probability ``p_event``, the last of the increasing ``bins`` that the
    first centre is read off by inverse CDF (``log_idle`` is the log of
    1 - p_event). ``gaps`` draws the periods up to the next one with a
    star, and ``neighbours`` each star's m neighbours. Each draw reads its
    uniforms in row order, so a stream's meaning depends only on the rows.
    A variant with at most one star a period (``one_star``) mixes the
    activation kernels by its ``weights()``, which its ``bound()`` reads,
    and is sized for enumeration in closed form (``size``).
    """

    name: str  # the config's model tag
    one_star = True

    def __init__(self, p: ModelParams, bins: np.ndarray, log_idle: float):
        self.p, self._bins, self.log_idle = p, bins[:-1], log_idle
        self.p_event = float(bins[-1])

    def gaps(self, rng, rows: int, cap: int) -> np.ndarray:
        """Geometric(p_event) periods up to and including the next one with
        a star, one uniform a row, capped at ``cap``: 1 + floor(log(1 - u) /
        log_idle), which a rate near 0 sends past any integer."""
        u = rng.random(rows)
        with np.errstate(over="ignore"):
            g = np.log1p(-u) / self.log_idle  # >= 0, so the cast below floors it
        return np.minimum(g, cap - 1).astype(np.int64) + 1

    def _first(self, rng, rows: int) -> np.ndarray:
        """One uniform a row: the first centre, 0-based, by inverse CDF."""
        # in the first n - 1 bins, so u * p_event rounded up to p_event gives n - 1
        return self._bins.searchsorted(rng.random(rows) * self.p_event, side="right")

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
            out[lo:lo + size] = keys.argpartition(m - 1, axis=1)[:, :m]
            out[lo:lo + size].sort(axis=1)
        return out

    def bound(self):
        """The certified decay rate of a one-star variant: ``decay_bound``."""
        from .spectral import decay_bound  # spectral imports this module
        return decay_bound(self.p, self.weights(), self.name)


class Sparse(Variant):
    """At most one star a period: centre i with probability a_i, none with
    1 - sum(a); requires sum(a) <= 1."""

    name = "sparse"

    def __init__(self, p: ModelParams):
        if not p.sparse_regime:
            raise ValueError(
                f"activity: rate sum {p.rate_sum} exceeds 1; the sparse variant "
                "requires sum(a) <= 1"
            )
        log_idle = math.log1p(-p.rate_sum) if p.rate_sum < 1.0 else -math.inf
        super().__init__(p, p.rates_cumsum, log_idle)

    def folded(self) -> tuple:
        """(), with 1 - sum(a), then (i,) with a_i for each node i."""
        tuples = ((),) + tuple((i,) for i in range(1, self.p.n + 1))
        return tuples, (1.0 - self.p.rate_sum,) + self.p.a

    def size(self) -> int:
        """Its 1 + n*C(n-1, m) configurations."""
        return 1 + self.p.n * math.comb(self.p.n - 1, self.p.m)

    def weights(self) -> tuple:
        """The activity rates a, centre i's probabilities."""
        return self.p.a

    def centres(self, rng, rows: int) -> tuple:
        """The stars' (row, centre) pairs of ``rows`` periods that each have
        one: one uniform a row picks centre i with probability a_i / sum(a)
        off the running rate sums."""
        return np.arange(rows), self._first(rng, rows)


class Full(Variant):
    """Every activated node is a centre: the 2**n ``activation_sets``."""

    name = "full"
    one_star = False

    def __init__(self, p: ModelParams):
        with np.errstate(divide="ignore"):  # log1p(-1) = -inf for a rate of 1
            idle = np.cumsum(np.log1p(-p.rates))
        # P(one of nodes 1..i activates), increasing to p_event
        super().__init__(p, -np.expm1(idle), float(idle[-1]))
        self._nodes = np.arange(p.n)

    def folded(self) -> tuple:
        """The ``activation_sets`` in mask order, as (centre tuples, probabilities)."""
        return tuple(zip(*activation_sets(self.p)))

    def bound(self):
        """While sum(a) <= 1, ``Sparse``'s, which approximates but does not
        bound this variant's rate; else None."""
        return Sparse(self.p).bound() if self.p.sparse_regime else None

    def _active(self, rng, rows: int) -> np.ndarray:
        """(rows, n) activation masks given a star: the first active node by
        inverse CDF, then n uniforms a row test each node above it against
        its rate."""
        n, first = self.p.n, self._first(rng, rows)
        active = rng.random((rows, n)) < self.p.rates
        active &= self._nodes > first[:, None]
        active[np.arange(rows), first] = True
        return active

    def centres(self, rng, rows: int) -> tuple:
        """The stars' (row, centre) pairs of ``rows`` periods that each have
        one, centres 0-based and increasing within a row, rows increasing."""
        return self._active(rng, rows).nonzero()


class FastSwitch(Full):
    """One survivor of the activated nodes is the period's one centre, picked
    by the tie-break rule ``p.rule``: () with P(none active), (i,) with
    P(S) * w_i(S) for each activated set S and w_i(S) > 0."""

    name = "fastswitch"

    def folded(self) -> tuple:
        """The law folded onto its 1 + n centre tuples (), (1,), ..., (n,):
        P(none active) for (), and P(S) * w_i(S) added for each node i over
        the activation sets S in mask order by ``np.bincount``, sums so far
        first."""
        n, b, p_none, rule = self.p.n, np.zeros(self.p.n), None, self.p.rule
        for active, prob in activation_chunks(self.p):
            p_none = prob[0] if p_none is None else p_none  # the empty set, mask 0
            rows, members = np.nonzero(active)
            share = 1.0 / active.sum(axis=1)[rows]  # the uniform rule's 1/|S|
            if rule.table is not None:  # a table is read set by set, in mask order
                sets = ([i for i, x in enumerate(r, 1) if x] for r in active.tolist())
                share = [rule.weights_for(frozenset(S)).get(i, 0.0) for S in sets for i in S]
            b = np.concatenate([b, prob[rows] * share])
            b = np.bincount(np.concatenate([np.arange(n), members]), b)
        return ((),) + tuple((i,) for i in range(1, n + 1)), np.concatenate([[p_none], b])

    def size(self) -> int:
        """1 + n*2**(n-1), the (activated set, survivor) pairs of its law
        unfolded under the uniform rule, which no table exceeds and which
        outnumber its 1 + n*C(n-1, m) configurations."""
        return 1 + self.p.n * 2 ** (self.p.n - 1)

    def weights(self) -> np.ndarray:
        """The survivor rates under ``p.rule`` (``survivor_rates``)."""
        from .spectral import survivor_rates  # spectral imports this module
        return survivor_rates(self.p)

    one_star, bound = True, Variant.bound  # one star a period, unlike Full

    def centres(self, rng, rows: int) -> tuple:
        """As ``Full``'s activation, then one more uniform a row picks the
        survivor by the rule (``_survivor`` for a table)."""
        active = self._active(rng, rows)
        u, count = rng.random(rows), active.sum(axis=1)
        pick = np.minimum((u * count).astype(np.int64), count - 1)
        centre = np.argmax(np.cumsum(active, axis=1) > pick[:, None], axis=1)
        if self.p.rule.table is not None:
            for r in np.flatnonzero(count > 1).tolist():
                members = (np.flatnonzero(active[r]) + 1).tolist()
                centre[r] = _survivor(members, self.p.rule, u[r]) - 1
        return np.arange(rows), centre


# The config's model tag -> its variant: the one place a tag is read.
VARIANTS = {cls.name: cls for cls in (Full, Sparse, FastSwitch)}


def generate_snapshot(v: Variant, rng) -> Snapshot:
    """One period of the variant's law: a Bernoulli(p_event) draw, then its
    draw of the centres given a star, and of each centre's neighbours, for
    one row."""
    if not rng.random() < v.p_event:
        return Snapshot(v.p.n, ())
    _, centre = v.centres(rng, 1)
    nbs = (v.neighbours(rng, centre) + 1).tolist()
    stars = (StarSpec(v.p.n, c + 1, tuple(N)) for c, N in zip(centre.tolist(), nbs))
    return Snapshot(v.p.n, tuple(stars))


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
