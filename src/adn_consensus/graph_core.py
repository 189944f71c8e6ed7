"""Laplacians of unions of star graphs, the exact integer powers of a single
star's, a dense symmetric matrix exponential, and its truncated-Taylor action
on a stack of states.

Node ids are 1-based in a ``StarSpec`` and 0-based in index arrays, as the
matrices are. Integer-valued matrices (a Laplacian of stars and its powers)
use int64, everything floating-point (a stack of them) uses float64.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

import numpy as np

INT64_MAX = 2**63 - 1
_EPS = float(np.finfo(np.float64).eps)
# Bytes of one stack of matrices that ``stacks`` hands to ``expm_sym``; its
# working copies come to a small multiple of this.
STACK_BYTES = 1 << 18
# Taylor degree m -> the largest theta with theta**(m+1) / (m+1)! <= 2**-53,
# shrunk by a relative 1e-9 so that the rounding of the table errs low.
TAYLOR_MAX_DEGREE = 18
_TAYLOR_THETA = tuple(
    math.exp((math.lgamma(m + 2) - 53 * math.log(2)) / (m + 1)) * (1 - 1e-9)
    for m in range(TAYLOR_MAX_DEGREE + 1)
)


@dataclass(frozen=True, slots=True)
class StarSpec:
    """One activation event: a center node wired to m distinct neighbors."""

    n: int
    center: int
    neighbors: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"star needs n >= 2, got n={self.n}")
        ns = tuple(sorted(self.neighbors))
        object.__setattr__(self, "neighbors", ns)
        if len(ns) < 1 or len(set(ns)) != len(ns):
            raise ValueError("neighbors must be a nonempty set of distinct ids")
        if not (1 <= self.center <= self.n):
            raise ValueError(f"center {self.center} outside 1..{self.n}")
        if any(j < 1 or j > self.n for j in ns):
            raise ValueError(f"neighbor ids {ns} outside 1..{self.n}")
        if self.center in ns:
            raise ValueError(f"center {self.center} cannot be its own neighbor")

    @property
    def m(self) -> int:
        return len(self.neighbors)


def star_union_laplacians(k: int, n: int, row, centre, nbs) -> np.ndarray:
    """(k, n, n) float64 stack of Laplacians from a flat list of stars:
    star q joins centre ``centre[q]`` to its neighbours ``nbs[q]`` in graph
    ``row[q]`` (0-based, shapes (s,), (s,) and (s, m)). Degrees minus
    adjacency, so an edge that two stars share counts once, a graph with no
    star is 0, and a neighbour equal to its own centre adds no edge, which
    pads a star of fewer neighbours."""
    L = np.zeros((k, n, n))
    r, c = row[:, None], centre[:, None]
    L[r, c, nbs] = L[r, nbs, c] = -1.0
    diagonal = L.reshape(k, n * n)[:, :: n + 1]  # a view into L
    diagonal -= L @ np.ones(n)  # less the row sums, padding's -1.0 in them: degrees, +0.0 if 0
    return L


def star_union_laplacian(n: int, stars) -> np.ndarray:
    """Laplacian (int64) of the union of the stars, a one-graph call of
    ``star_union_laplacians`` with a one-neighbour star per edge."""
    edges = np.array([(e.center - 1, j - 1) for e in stars for j in e.neighbors], dtype=np.intp)
    c, j = edges.reshape(-1, 2).T
    return star_union_laplacians(1, n, np.zeros_like(c), c, j[:, None])[0].astype(np.int64)


def star_laplacian(spec: StarSpec) -> np.ndarray:
    """Laplacian of the star with the given center and neighbors (int64).

    Diagonal: m at the center, 1 at each neighbor, 0 elsewhere; -1 on each
    center-neighbor edge. Rows sum to zero.
    """
    return star_union_laplacian(spec.n, (spec,))


def star_laplacian_power(spec: StarSpec, k: int) -> np.ndarray:
    """k-th power of a star Laplacian in exact integer arithmetic.

    Closed form: writing r = (m+1)**(k-1), the center diagonal is m*r, the
    center-neighbor entries are -r, and the neighbor block is
    I + (r-1)/m * J; rows and columns of untouched nodes are zero. The
    fraction (r-1)/m is an integer because (m+1)**(k-1) is 1 modulo m.
    Entries beyond the int64 range raise rather than wrap.
    """
    if k < 1:
        raise ValueError(f"power must be >= 1, got k={k}")
    m = spec.m
    r = (m + 1) ** (k - 1)
    off = (r - 1) // m
    if m * r > INT64_MAX:
        raise OverflowError(f"entry m*(m+1)**(k-1) = {m * r} exceeds int64")
    L = np.zeros((spec.n, spec.n), dtype=np.int64)
    c, idx = spec.center - 1, np.array(spec.neighbors) - 1
    L[c, c] = m * r
    L[c, idx] = L[idx, c] = -r
    L[np.ix_(idx, idx)] = off
    L[idx, idx] += 1
    return L


def symmetrize(M: np.ndarray) -> np.ndarray:
    """(M + M.T) / 2, restoring exact symmetry after float computation, for
    one matrix or each matrix of a stack."""
    return (M + M.swapaxes(-1, -2)) / 2.0


def expm_sym(M: np.ndarray, t) -> np.ndarray:
    """e**(-t*M) for symmetric M, or for each matrix of a stack (..., n, n),
    via eigendecomposition.

    Diagonalize, exponentiate the eigenvalues, recompose, then symmetrize.
    Max-abs accuracy 1e-12 against the true exponential for desk-scale
    matrices; used both as the multi-activation snapshot kernel and as the
    oracle for the closed-form star exponential. Each matrix of a stack
    comes out bit for bit as it would alone, and so does each time of a
    1-D array t, which gives (len(t), ..., n, n) from one decomposition.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or not M.size:
        raise ValueError(f"expected a nonempty square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(M, M.swapaxes(-1, -2)):
        raise ValueError("matrix is not exactly symmetric; symmetrize() first")
    times = np.asarray(t, dtype=np.float64)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {times.shape}")
    bad = [x for x in times.ravel().tolist() if not x >= 0.0]
    if bad:
        raise ValueError(f"time must be >= 0, got {bad[0]}")
    w, V = np.linalg.eigh(M)
    if not times.ndim:
        return _recompose(w, V, t)
    out = np.empty(times.shape + M.shape)
    for i, ti in enumerate(times.tolist()):
        out[i] = _recompose(w, V, ti)
    return out


def _recompose(w: np.ndarray, V: np.ndarray, t: float) -> np.ndarray:
    """``expm_sym``'s recomposition of one eigendecomposition or a stack."""
    # eigh returns each eigenvalue only to about n * _EPS * max|w|, and
    # e**(-t*w) turns that residue on a zero eigenvalue into an error about
    # t times as large. Once the error could show, eigenvalues within each
    # matrix's resolution count as exactly 0, with e**0 = 1 even at t = inf.
    resolution = w.shape[-1] * _EPS * np.maximum(-w[..., :1], w[..., -1:])
    zero = np.abs(w) <= resolution
    if t != np.inf:
        zero &= t * resolution > 1e-11
    # -t*w is left at 0 where the eigenvalue counts as 0, so inf*0 never
    # forms; elsewhere it may overflow to -inf, and e**-inf = 0 is exact
    with np.errstate(over="ignore"):
        decay = np.exp(np.multiply(-t, w, out=np.zeros_like(w), where=~zero))
    return symmetrize((V * decay[..., None, :]) @ V.swapaxes(-1, -2))


def taylor_plan(theta: float) -> tuple:
    """(m, s) for ``expm_action`` over a time t with shift mu, theta =
    t * mu: the fewest steps s with (theta / s)**(m+1) / (m+1)!
    <= 2**-53 at a degree m <= ``TAYLOR_MAX_DEGREE``, then the least such m."""
    s = max(1, math.ceil(theta / _TAYLOR_THETA[-1]))
    return max(1, bisect_left(_TAYLOR_THETA, theta / s)), s


def expm_action(L: np.ndarray, t: float, Z: np.ndarray, m: int, s: int, mu: float) -> np.ndarray:
    """e**(-t*L) @ Z for a C-contiguous (k, n, n) stack of Laplacians L of
    largest degree at most mu and a (k, n, 1) stack of states Z; it
    overwrites L with A = L - mu*I and Z with the result, which it returns.
    s steps of h = t/s, each Z <- e**(-h*mu) sum_{j<=m} (-h*A)**j Z / j!
    (the shifted, truncated Taylor series of Al-Mohy and Higham, "Computing
    the action of the matrix exponential", SIAM J. Sci. Comput. 33(2),
    2011), with two state-sized temporaries and no n x n one.

    Bound: by Gershgorin A's eigenvalues lie in [-mu, mu], row i's disc
    being L_ii - mu +- L_ii. For x = h*(lam - mu) in [-theta, theta],
    theta = h*mu, e**(-x) less its degree-m Taylor polynomial is at most
    e**theta theta**(m+1) / (m+1)! (Lagrange), which e**(-h*mu) scales back
    to theta**(m+1) / (m+1)!. With (m, s) from ``taylor_plan(t * mu)`` each
    step is thus within 2**-53 ||z||_2 of e**(-h*L) z, of 2-norm at most
    1 + 2**-53, and the s steps within about s * 2**-53 ||z||_2 of
    e**(-t*L) z before rounding; the terms' norms sum to at most
    e**theta ||z||_2, scaled back alike, so rounding adds a few ulps of
    ||z||_2 a step."""
    k, n = L.shape[:2]
    L.reshape(k, n * n, copy=False)[:, :: n + 1] -= mu  # its diagonals, a view
    h = -t / s
    term, product = np.empty(Z.shape), np.empty(Z.shape)
    for _ in range(s):
        for j in range(1, m + 1):
            np.matmul(L, term if j > 1 else Z, out=product)
            np.multiply(product, h / j, out=term)
            Z += term
        Z *= math.exp(h * mu)
    return Z


def stacks(items, n: int, copies: int = 1):
    """Consecutive lists of ``items``, each as long as fits in
    ``STACK_BYTES`` as ``copies`` n x n float64 matrices an item (at least
    one item), so that an enumeration can take its exponentials in stacks
    without ever holding all of them."""
    items = iter(items)
    size = max(1, STACK_BYTES // (8 * n * n * copies))
    while chunk := list(islice(items, size)):
        yield chunk
