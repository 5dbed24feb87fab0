"""Reference computations made apart from cfstats.

Nothing here imports cfstats: these are the values the benchmark checks
the program's outputs against.  They are small pure-Python sieves and
digit loops, closed forms, and exact counts.
"""

import math
from collections import Counter

ENTROPY = math.pi**2 / (6.0 * math.log(2.0))  # -lambda_s of the Gauss operator


def gauss_frequency(j: int) -> float:
    """Lambda_j: digit-j occurrences per unit weight 2 log q, Gauss map."""
    return math.log2(1.0 + 1.0 / (j * (j + 2))) / ENTROPY


def brun_density(x1, x2):
    """Invariant density of the Brun map, m = 2, up to a constant factor:
    the sum over both orders of 1/(1 + x_a) * 1/(1 + x_a + x_b)."""
    both = 1.0 + x1 + x2
    return 1.0 / ((1.0 + x1) * both) + 1.0 / ((1.0 + x2) * both)


def totients(n: int) -> list:
    """phi(0..n) by the multiplicative sieve."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p is prime
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return phi


def mobius(n: int) -> list:
    """mu(0..n) by a linear sieve (mu(0) is unused and set to 0)."""
    mu = [1] * (n + 1)
    mu[0] = 0
    primes = []
    composite = [False] * (n + 1)
    for i in range(2, n + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > n:
                break
            composite[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def brun_lane_count(bound: int) -> int:
    """Coprime triples t1 >= t2 >= t3 >= 1 with t1 <= bound.

    Weakly descending triples below n number C(n + 2, 3); Moebius
    inversion over the common divisor leaves the coprime ones.
    """
    mu = mobius(bound)
    return sum(mu[d] * math.comb(bound // d + 2, 3) for d in range(1, bound + 1))


def jp_lane_count(bound: int) -> int:
    """Coprime triples (p, r, q) with 1 <= p <= q, 0 <= r <= q, 2 <= q <= bound.

    For a fixed q the pairs (p, r) sharing the divisor d of q number
    (q/d)(q/d + 1); Moebius inversion over d | q leaves the coprime ones.
    """
    mu = mobius(bound)
    total = 0
    for d in range(1, bound + 1):
        if mu[d]:
            total += mu[d] * sum(m * (m + 1) for m in range(max(1, -(-2 // d)), bound // d + 1))
    return total


def euclid_rows(q: int, targets) -> Counter:
    """Multiplicity of each digit-count vector over the coprime p/q, 0 < p < q,
    by the plain Euclidean algorithm."""
    rows = Counter()
    for p in range(1, q):
        if math.gcd(p, q) != 1:
            continue
        counts = [0] * len(targets)
        a, b = p, q
        while a:
            j, r = divmod(b, a)
            for k, t in enumerate(targets):
                if j == t:
                    counts[k] += 1
            a, b = r, a
        rows[tuple(counts)] += 1
    return rows


def brun_rows(t1: int, targets) -> Counter:
    """Multiplicity of each digit-count vector over the coprime triples
    t1 >= t2 >= t3 >= 1, by the Brun GCD: divide the largest entry by the
    second largest until only one entry is nonzero."""
    rows = Counter()
    for t2 in range(1, t1 + 1):
        for t3 in range(1, t2 + 1):
            if math.gcd(t1, math.gcd(t2, t3)) != 1:
                continue
            counts = [0] * len(targets)
            t = [t1, t2, t3]
            while t[1]:
                j = t[0] // t[1]
                for k, lab in enumerate(targets):
                    if j == lab:
                        counts[k] += 1
                t[0] -= j * t[1]
                t.sort(reverse=True)
            rows[tuple(counts)] += 1
    return rows
