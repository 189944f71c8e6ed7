"""Independent reference implementations used to gate the library.

Everything here favors obviousness over speed: exact integer matrix
algebra over Python lists, truncated Taylor series with scaling and
squaring, cyclic Jacobi rotations, exhaustive bitmask enumerations. None
of it routes through the package under test, except that two references
take package primitives as arguments: the survival-curve reference a
variant's draws and the block streams, since exact equality with the
package needs the package's own random streams, the per-centre mixture the closed-form
activation kernel, which its own subset-average oracle gates, the
leave-one-out survivor rates the Poisson-binomial PMF, which its
brute-force oracle gates, and the unfolded enumeration a variant's centre
law, the star lists and a dense heat kernel, which the package's
enumeration reads too.
"""

import math
from itertools import product

import numpy as np


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
