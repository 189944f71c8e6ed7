"""Independent reference implementations used to gate the library.

Everything here favors obviousness over speed: exact integer matrix
algebra over Python lists, truncated Taylor series with scaling and
squaring, cyclic Jacobi rotations, exhaustive bitmask enumerations. None
of it routes through the package under test, except that some references
take package primitives as arguments: the survival-curve reference a
variant's draws and the block streams, since exact equality with the
package needs the package's own random streams, the per-centre mixture the closed-form
activation kernel, which its own subset-average oracle gates, the
leave-one-out survivor rates the Poisson-binomial PMF, which its
brute-force oracle gates, the unfolded enumeration a variant's centre
law, the star lists and a dense heat kernel, which the package's
enumeration reads too, and the fast-switching law a tie-break rule's
survivor weights. And the dense bound, the reference for
``spectral.decay_bound``, builds the package's O(n^2) mixture
(``spectral._activation_mixture``, gated against ``per_centre_mixture``)
and returns its ``DecayBound``; its eigenvalue, ``lambda_second_deflated``,
symmetrizes by ``graph_core.symmetrize``. ``subset_averages``, validate's
check-1 means taken on their own rather than in the pass shared with
checks 2-3, reads each centre's stars from ``center_star_table`` and takes
their kernels in ``graph_core.stacks`` by ``star_union_laplacians`` and
``expm_sym``. The configuration walk (``enumerate_branches`` and
``walked_expected_kernels``), the reference for validate's sums over union
graphs, reads the same star table and builds its stacks the same way.
"""

import math
from itertools import product

import numpy as np

from adn_consensus.adn_model import center_star_table
from adn_consensus.graph_core import expm_sym, stacks, star_union_laplacians, symmetrize
from adn_consensus.spectral import DecayBound, _activation_mixture


def int_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_matmul(A, B):
    n = len(A)
    return [
        [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def int_matpow(A, k):
    out = int_identity(len(A))
    for _ in range(k):
        out = int_matmul(out, A)
    return out


def star_laplacian_ints(n, center, neighbors):
    """Star-graph Laplacian assembled entry by entry as exact Python ints."""
    L = [[0] * n for _ in range(n)]
    for j in neighbors:
        L[center - 1][j - 1] = -1
        L[j - 1][center - 1] = -1
        L[center - 1][center - 1] += 1
        L[j - 1][j - 1] += 1
    return L


def star_union_laplacian_ints(n, stars):
    """Laplacian of the simple graph whose edges join each (center,
    neighbors) star's center to its neighbors, as exact Python ints: an
    edge two stars share is one edge."""
    edges = {frozenset((c, j)) for c, neighbors in stars for j in neighbors}
    L = [[0] * n for _ in range(n)]
    for i, j in map(sorted, edges):
        L[i - 1][j - 1] = L[j - 1][i - 1] = -1
        L[i - 1][i - 1] += 1
        L[j - 1][j - 1] += 1
    return L


def taylor_expm(M, t, terms=30):
    """e**(-t*M) by scaled Taylor summation plus repeated squaring."""
    M = np.asarray(M, dtype=np.float64)
    A = -t * M
    s = 0
    while np.max(np.abs(A)) > 0.25:
        A = A / 2.0
        s += 1
    n = M.shape[0]
    term = np.eye(n)
    out = np.eye(n)
    for k in range(1, terms + 1):
        term = term @ A / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def jacobi_eigenvalues(M, max_sweeps=100, tol=1e-13):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations,
    returned in ascending order."""
    A = np.array(M, dtype=np.float64)
    n = A.shape[0]
    if n == 1:
        return np.array([A[0, 0]])
    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * sum(A[i, j] ** 2 for i in range(n) for j in range(i + 1, n)))
        if off < tol * max(1.0, float(np.max(np.abs(np.diag(A))))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * A[p, q])
                sign = 1.0 if theta >= 0 else -1.0
                tval = sign / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(tval * tval + 1.0)
                s = tval * c
                J = np.eye(n)
                J[p, p] = c
                J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return np.sort(np.diag(A))


def per_centre_mixture(expectation, p, w):
    """S = sum_i w_i * expectation(p, i) with one dense n x n kernel per
    centre, O(n^3): the direct sum behind the activation mixture."""
    S = np.zeros((p.n, p.n))
    for i in range(p.n):
        S += w[i] * expectation(p, i + 1)
    return S


def projected_top_eigenvalue(M):
    """Largest eigenvalue of P M P, with P = I - J/n the off-consensus
    projection built as a dense n x n matrix: two O(n^3) products."""
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    P = np.eye(n) - np.full((n, n), 1.0 / n)
    PMP = P @ M @ P
    return float(np.linalg.eigvalsh((PMP + PMP.T) / 2.0)[-1])


def lambda_second_deflated(M: np.ndarray) -> float:
    """Second-largest eigenvalue of M, assuming the all-ones vector carries
    the largest one.

    Projects the consensus direction out (largest eigenvalue of P M P with
    P the off-consensus projection), which sidesteps any ordering ambiguity
    when the spectrum crowds the top. Only valid for matrices, like the
    expected heat kernels here, that fix the all-ones vector and are
    positive semidefinite on its complement. P M P is formed in O(n^2) as
    M minus its row means and its column means plus its grand mean; the
    one eigen-solve is O(n^3). The bounds use it only through
    ``dense_bound``, their reference.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if n < 2:
        raise ValueError("second-largest eigenvalue needs n >= 2")
    rows = M.mean(axis=1)
    PMP = M - rows[:, None]
    PMP -= M.mean(axis=0)
    PMP += rows.mean()
    w = np.linalg.eigvalsh(symmetrize(PMP))
    return float(w[-1])


def dense_bound(p, weights, kind: str) -> DecayBound:
    """The reference for ``decay_bound``: the same bound from the dense
    mixture S and one O(n^3) eigen-solve, on the same weights."""
    w = np.asarray(weights, dtype=np.float64)
    lam = lambda_second_deflated(_activation_mixture(p, w))
    total = float(w.sum())
    return DecayBound(rate=1.0 - total + lam, kind=kind, lambda_second=lam, weight_sum=total)


def leave_one_out_survivor_rates(a, pmf):
    """Per-node survivor rates under the uniform tie break, a_i times the
    mean of 1/(1 + K) over the count K of the others, with one call of the
    Poisson-binomial ``pmf`` per node on its leave-one-out rate vector."""
    a = np.asarray(a, dtype=np.float64)
    ks = np.arange(1.0, len(a) + 1.0)
    return a * np.array([np.sum(pmf(np.delete(a, i)) / ks) for i in range(len(a))])


def exhaustive_survivor_rates(a):
    """Per-node survivor rates under the uniform tie break by summing all
    2**(n-1) activation patterns of the other nodes."""
    a = [float(x) for x in a]
    n = len(a)
    out = []
    for i in range(n):
        others = a[:i] + a[i + 1 :]
        total = 0.0
        for mask in range(1 << (n - 1)):
            prob = 1.0
            cnt = 0
            for j in range(n - 1):
                if mask >> j & 1:
                    prob *= others[j]
                    cnt += 1
                else:
                    prob *= 1.0 - others[j]
            total += prob / (1.0 + cnt)
        out.append(a[i] * total)
    return np.array(out)


def bruteforce_poisson_binomial(probs):
    """Success-count pmf by direct enumeration of all outcome masks."""
    probs = [float(p) for p in probs]
    n = len(probs)
    pmf = np.zeros(n + 1)
    for mask in range(1 << n):
        prob = 1.0
        cnt = 0
        for j in range(n):
            if mask >> j & 1:
                prob *= probs[j]
                cnt += 1
            else:
                prob *= 1.0 - probs[j]
        pmf[cnt] += prob
    return pmf


def poisson_binomial_pmf(probs):
    """PMF of the number of successes among independent Bernoulli trials
    with the rates of the vector ``probs``, by the standard O(n^2)
    convolution recurrence. Step k updates counts 0..k+1 only; the higher
    ones are still 0."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError(f"need one vector of rates, got shape {probs.shape}")
    pmf = np.zeros(len(probs) + 1)
    pmf[0] = 1.0
    for k, q in enumerate(probs):
        pmf[1 : k + 2] = pmf[1 : k + 2] * (1.0 - q) + pmf[: k + 1] * q
        pmf[0] *= 1.0 - q
    return pmf


def _removed_trial_means(pmf, q, weights):
    """sum_k weights[k] * L[k] for each rate in q, where L is ``pmf`` with
    one Bernoulli(q) trial taken out: pmf[k] = (1 - q) L[k] + q L[k-1].

    Peels L off from count 0 upward, one (len(q),) step per count; each
    step scales the error it carries by q / (1 - q), at most 1 for q <= 1/2.
    """
    s = 1.0 / (1.0 - q)
    r = q * s
    L = np.zeros_like(q)
    total = np.zeros_like(q)
    for k in range(len(pmf) - 1):
        L = pmf[k] * s - r * L
        total += weights[k] * L
    return total


def recurrence_survivor_rates(a):
    """Per-node survivor rates under the uniform tie break, a_i times the
    mean of 1/(1 + K) over the count K of the others, in O(n^2) flops and
    O(n) memory: one Poisson-binomial PMF of all n counts, and each node's
    leave-one-out PMF out of it by deconvolution, forward for a rate <= 1/2
    and, for a larger rate, backward (forward on the mirrored counts n - k,
    whose trial rates are 1 - a)."""
    a = np.asarray(a, dtype=np.float64)
    n = len(a)
    pmf = poisson_binomial_pmf(a)
    recip = 1.0 / np.arange(1.0, n + 1.0)  # 1 / (1 + co-activated count)
    low = a <= 0.5
    mean_recip = np.empty(n)
    if low.any():
        mean_recip[low] = _removed_trial_means(pmf, a[low], recip)
    if not low.all():
        mean_recip[~low] = _removed_trial_means(pmf[::-1], 1.0 - a[~low], recip[::-1])
    return a * mean_recip


def block_walk_survival(variant, block_rng, block, draw, advance, norm, z0, k_max, n_paths, eps):
    """Survival curve by its definition, one path at a time on the
    package's block streams: path lo + i, with lo a multiple of ``block``,
    reads row i of each draw from ``block_rng(lo // block)``.

    Each round the block's live paths draw their gaps to the next period
    with a star (``variant.gaps``, capped at k_max + 1), then those still
    inside k_max draw that period's stars (``variant.centres`` and
    ``variant.neighbours``). Each path applies its own stars, as 1-based
    (centre, neighbours) pairs, with ``advance(z, stars)`` and records
    ``norm(z)`` for every period it passed, idle ones included. A path
    leaves the rounds at its first norm below eps, as the engine's rows
    do, and runs on to k_max on a stream of its own, one ``draw(rng)``
    (a period's star list) a period, so that the suffix maxima cover
    every period: nothing here assumes that the disagreement contracts."""
    counts = np.zeros(k_max + 1, dtype=np.int64)
    for b, lo in enumerate(range(0, n_paths, block)):
        rows = min(block, n_paths - lo)
        rng, tail = block_rng(b), np.random.default_rng([b, 1])
        z = [np.array(z0, dtype=np.float64) for _ in range(rows)]
        norms = [[norm(z[i])] for i in range(rows)]
        live = [i for i in range(rows) if norms[i][0] >= eps]
        left = []
        while live:
            events = []
            for i, g in zip(live, variant.gaps(rng, len(live), k_max + 1).tolist()):
                k = len(norms[i]) - 1
                norms[i] += [norms[i][-1]] * min(g - 1, k_max - k)
                if k + g <= k_max:
                    events.append(i)
            live = events
            if not live:
                break
            row, centre = variant.centres(rng, len(live))
            stars = [[] for _ in live]
            nbs = variant.neighbours(rng, centre).tolist()
            for j, c, N in zip(row.tolist(), centre.tolist(), nbs):
                stars[j].append((c + 1, tuple(x + 1 for x in N)))
            for i, own in zip(live, stars):
                z[i] = advance(z[i], own)
                norms[i].append(norm(z[i]))
            left += [i for i in live if norms[i][-1] < eps]
            live = [i for i in live if norms[i][-1] >= eps]
        for i in left:
            while len(norms[i]) <= k_max:
                own = draw(tail)
                if own:
                    z[i] = advance(z[i], own)
                norms[i].append(norm(z[i]))
        for seq in norms:
            seq += [seq[-1]] * (k_max + 1 - len(seq))
            suffix = np.maximum.accumulate(np.asarray(seq)[::-1])[::-1]
            counts += suffix >= eps
    return counts / float(n_paths)


def unfolded_expected_exponential(rows, stars, kernel, n):
    """sum of probability * kernel(choice) with one dense kernel per branch:
    each (centres, probability) row of a variant's ``law``, as given and repeated
    centre tuples included, times each choice of one star per centre from
    ``stars`` (each centre's equally likely stars); ``kernel(choice)`` is
    the n x n heat kernel of the union of the chosen stars."""
    acc = np.zeros((n, n))
    for centres, prob in rows:
        w = prob / len(stars[0]) ** len(centres)
        for choice in product(*(stars[i - 1] for i in centres)):
            acc += w * kernel(choice)
    return acc


def activation_sets_by_mask(a):
    """Yield (members, probability) for each of the 2**n activation sets,
    mask by mask (node i active when bit i - 1 is set): the 1-based members
    in increasing order and the probability multiplied node by node from
    node 1, a_i for a member and 1 - a_i for any other node."""
    n = len(a)
    for mask in range(1 << n):
        prob = 1.0
        for i in range(n):
            prob *= a[i] if mask >> i & 1 else 1.0 - a[i]
        yield tuple(i + 1 for i in range(n) if mask >> i & 1), prob


def fastswitch_law(a, weights_for):
    """The fast-switching centre law row by row: () with P(none active),
    then, for each activated set S of ``activation_sets_by_mask`` and each
    member i of positive survivor weight w_i(S) = ``weights_for(S)[i]``,
    (i,) with P(S) * w_i(S)."""
    sets = activation_sets_by_mask(a)
    yield next(sets)
    for members, prob in sets:
        weights = weights_for(frozenset(members))
        for i in members:
            if weights.get(i, 0.0) > 0.0:
                yield (i,), prob * weights[i]


def folded_law(rows) -> dict:
    """A centre law's (centres, probability) rows folded onto its distinct
    centre tuples, in the order they first come, each tuple's probability
    added row by row."""
    law = {}
    for centres, prob in rows:
        law[centres] = law.get(centres, 0.0) + prob
    return law


def law_survivor_rates(rows, n):
    """Per-node survivor rates: a one-star law's probabilities added row by
    row onto each row's centre."""
    b = np.zeros(n)
    for centres, prob in rows:
        if centres:
            b[centres[0] - 1] += prob
    return b


def subset_averages(params, T: float):
    """Yield (i, mean heat kernel of centre i's C(n-1, m) stars) for each
    0-based centre in turn: all stars in ``center_star_table`` order, in
    ``stacks``, added in that order by one reduction per centre a stack."""
    n, C = (table := center_star_table(params)).shape[:2]
    acc = 0.0  # the current centre's sum so far
    for q in stacks(range(n * C), n):
        k, (centre, j) = len(q), np.divmod(np.array(q), C)
        E = expm_sym(star_union_laplacians(k, n, np.arange(k), centre, table[centre, j]), T)
        starts = np.flatnonzero(np.diff(centre, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [k]):
            E[lo] += acc
            acc = np.add.reduce(E[lo:hi], axis=0)
            if j[hi - 1] == C - 1:
                yield int(centre[lo]), acc / C
                acc = 0.0


def enumerate_branches(p, tuples, probs, copies: int = 1):
    """Yield (weights, row, centre, nbs) stacks of consecutive
    configurations, each within ``STACK_BYTES`` at ``copies`` n x n matrices
    a configuration: each centre tuple of ``tuples`` times each choice of
    one neighbour set per centre from ``center_star_table``, in ``product``
    order, weighted under each law (a row of ``probs``, over the tuples) by
    its tuple's probability over its choices. Configuration r of a stack
    has the stars q with row[q] == r, each joining centre[q] to nbs[q]
    (0-based, the flat form ``star_union_laplacians`` reads)."""
    table = center_star_table(p)
    lens = np.array([len(centres) for centres in tuples])
    C, width = table.shape[1], int(lens.max())
    sizes = C**lens
    weights = np.asarray(probs) / sizes
    centre = np.array([[1] * (width - len(cs)) + list(cs) for cs in tuples], dtype=np.intp) - 1
    real = np.arange(width) >= width - lens[:, None]
    starts = np.cumsum(sizes) - sizes
    for chunk in stacks(range(sizes.sum()), p.n, copies):
        q = np.arange(chunk[0], chunk[-1] + 1)
        g = np.searchsorted(starts, q, side="right") - 1
        row, col = np.nonzero(real[g])
        c = centre[g[row], col]
        # a tuple's choice, right-aligned: its digits in base C, last fastest
        digit = (q - starts[g])[row] // C ** (width - 1 - col) % C
        yield weights[..., g], row, c, table[c, digit]


def walked_expected_kernels(p, tuples, probs, T):
    """Exact E[e**(-t*L)] at each t in T under each law, a row of ``probs``
    over ``tuples``: (laws, len(T), n, n), one dense exponential per
    configuration of ``enumerate_branches``, weighted and added one
    configuration at a time."""
    probs = np.atleast_2d(probs)
    acc = np.zeros((len(probs), len(T), p.n, p.n))
    for weights, row, centre, nbs in enumerate_branches(p, tuples, probs, len(T)):
        kernels = expm_sym(star_union_laplacians(weights.shape[1], p.n, row, centre, nbs), T)
        for r in range(weights.shape[1]):
            acc += weights[:, r, None, None, None] * kernels[:, r]
    return acc
