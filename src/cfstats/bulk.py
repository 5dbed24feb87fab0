"""Vectorized ensemble sweeps over denominator-partitioned blocks.

These builders produce the same per-point digit counts as the record
generators in orbits.py, but run the integer recursions simultaneously
over numpy lanes, block by block in denominator order.  A block is an
independent pure computation, so blocks can be dispatched to a process
pool; results are merged in fixed block order and all reductions are
integer-exact, which makes every output bit-identical regardless of the
worker count.

Each sweep returns an EnsembleTable, the lossless sufficient statistic
(q, digit-count vector) -> multiplicity for the chosen targets.  The
verifying variants additionally recompose every trajectory's homography
with exact integer column recursions, check the round trip against the
point, and accumulate forward log-Jacobians against the closed-form
weight.  Matrix entries stay far below 2^63 for the bounds used here;
VerifyReport.ok fails if the largest one reaches 2^62.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from .orbits import jp_digits  # noqa: F401  the JP reference; tracers patch bulk.jp_digits
from .stats import EnsembleTable

_COUNT_CAP = 64  # per-target digit counts must stay below this per trajectory


@dataclass
class VerifyReport:
    checked: int
    roundtrip_failures: int
    max_weight_error: float
    max_matrix_entry: int

    @property
    def ok(self) -> bool:
        return self.roundtrip_failures == 0 and self.max_matrix_entry < 2**62


def totient_sum(n: int) -> int:
    """Sum of Euler's totient over 2..n (independent sieve oracle)."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return int(phi[2:].sum())


def _blocks(lo: int, hi: int, budget: int):
    """Split denominators [lo, hi] into ranges of roughly `budget` lanes,
    assuming ~q lanes per denominator (q^2 for the triple sweeps)."""
    out = []
    start = lo
    acc = 0
    for q in range(lo, hi + 1):
        acc += max(q, 1)
        if acc >= budget:
            out.append((start, q))
            start, acc = q + 1, 0
    if start <= hi:
        out.append((start, hi))
    return out


def _run_blocks(fn, blocks, workers: int, *shared):
    """[fn(block, *shared) for block in blocks], on `workers` processes.

    Workers receive `shared` once, when they are forked, rather than
    pickled with every block.
    """
    if workers <= 1 or len(blocks) <= 1:
        return [fn(b, *shared) for b in blocks]
    with get_context("fork").Pool(workers, _keep_shared, (shared,)) as pool:
        return pool.map(functools.partial(_with_shared, fn), blocks)


_worker_shared = ()  # set only inside pool workers, by _keep_shared


def _keep_shared(shared):
    global _worker_shared
    _worker_shared = shared


def _with_shared(fn, block):
    return fn(block, *_worker_shared)


def _table_from_parts(parts, algorithm, multiplier, targets, bound):
    qs = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])
    mult = np.concatenate([p[2] for p in parts])
    return EnsembleTable(algorithm, multiplier, tuple(targets), qs, counts, mult, bound)


def _histogram(qlo, qhi, q0, cnt):
    """Per-lane digit counts of one block -> sorted sparse rows (q, counts, mult)."""
    if cnt.size and cnt.max() >= _COUNT_CAP:
        raise OverflowError("digit count exceeded the histogram cap")
    acc = np.zeros((qhi - qlo + 1,) + (_COUNT_CAP,) * cnt.shape[1], np.int64)
    np.add.at(acc, (q0 - qlo,) + tuple(cnt.T), 1)
    nz = np.nonzero(acc)
    qs = (nz[0] + qlo).astype(np.int64)
    counts = np.stack([ix.astype(np.int64) for ix in nz[1:]], axis=1)
    return qs, counts, acc[nz].astype(np.int64)


def _merge_reports(parts) -> VerifyReport:
    return VerifyReport(
        sum(p[0] for p in parts),
        sum(p[1] for p in parts),
        max(p[2] for p in parts),
        max(p[3] for p in parts),
    )


# ---------------------------------------------------------------------------
# Gauss


def _gauss_block(args):
    (qlo, qhi), targets = args
    t = list(targets)
    d = len(t)
    ps, qs = [], []
    for q in range(qlo, qhi + 1):
        p = np.arange(1, q, dtype=np.int64)
        p = p[np.gcd(p, q) == 1]
        ps.append(p)
        qs.append(np.full(len(p), q, np.int64))
    if not ps:
        shape = (0, d)
        return np.zeros(0, np.int64), np.zeros(shape, np.int64), np.zeros(0, np.int64)
    a = np.concatenate(ps)
    b = np.concatenate(qs)
    q0 = b.copy()
    idx = np.arange(len(a))
    cnt = np.zeros((len(a), d), np.int64)
    while len(a):
        j = b // a
        for k, lab in enumerate(t):
            cnt[idx[j == lab], k] += 1
        a, b = b % a, a
        alive = a > 0
        a, b, idx = a[alive], b[alive], idx[alive]
    return _histogram(qlo, qhi, q0, cnt)


def gauss_ensemble_table(bound: int, targets=(1,), workers: int = 1, block_lanes: int = 4_000_000):
    """Digit-count table for all coprime p/q with 2 <= q <= bound."""
    if not 1 <= len(targets) <= 2:
        raise ValueError("bulk sweeps support 1 or 2 targets; use the record path otherwise")
    blocks = _blocks(2, bound, block_lanes)
    parts = _run_blocks(_gauss_block, [(b, tuple(targets)) for b in blocks], workers)
    return _table_from_parts(parts, "gauss", 2, targets, bound)


def _gauss_verify_block(args):
    (qlo, qhi) = args
    ps, qs = [], []
    for q in range(qlo, qhi + 1):
        p = np.arange(1, q, dtype=np.int64)
        p = p[np.gcd(p, q) == 1]
        ps.append(p)
        qs.append(np.full(len(p), q, np.int64))
    a = np.concatenate(ps)
    b = np.concatenate(qs)
    p0, q0 = a.copy(), b.copy()
    n = len(a)
    # homography columns: M <- M @ [[0,1],[1,j]] swaps columns and shears
    c1 = np.zeros((n, 2), np.int64)
    c2 = np.zeros((n, 2), np.int64)
    c1[:, 0] = 1
    c2[:, 1] = 1
    wacc = np.zeros(n)
    idx = np.arange(n)
    while len(a):
        j = b // a
        wacc[idx] += 2.0 * (np.log(b) - np.log(a))
        c1[idx], c2[idx] = c2[idx].copy(), c1[idx] + j[:, None] * c2[idx]
        a, b = b % a, a
        alive = a > 0
        a, b, idx = a[alive], b[alive], idx[alive]
    fails = int(np.count_nonzero((c2[:, 0] != p0) | (c2[:, 1] != q0)))
    werr = float(np.abs(wacc - 2.0 * np.log(q0)).max()) if n else 0.0
    return n, fails, werr, int(max(c1.max(), c2.max()))


def gauss_verify(bound: int, workers: int = 1, block_lanes: int = 4_000_000) -> VerifyReport:
    """Exact round-trip and weight-telescoping check over all coprime p/q."""
    blocks = _blocks(2, bound, block_lanes)
    return _merge_reports(_run_blocks(_gauss_verify_block, blocks, workers))


# ---------------------------------------------------------------------------
# Brun, m = 2


def _brun2_lanes(qlo, qhi):
    """All coprime weakly-descending positive triples with t1 in [qlo, qhi]."""
    qs, u1s, u2s = [], [], []
    for t1 in range(qlo, qhi + 1):
        t2, t3 = np.meshgrid(
            np.arange(1, t1 + 1, dtype=np.int64),
            np.arange(1, t1 + 1, dtype=np.int64),
            indexing="ij",
        )
        keep = t3 <= t2
        t2, t3 = t2[keep], t3[keep]
        cop = np.gcd(np.gcd(t2, t3), t1) == 1
        t2, t3 = t2[cop], t3[cop]
        qs.append(np.full(len(t2), t1, np.int64))
        u1s.append(t2)
        u2s.append(t3)
    return np.concatenate(qs), np.concatenate(u1s), np.concatenate(u2s)


def _brun2_step(q, u1, u2):
    """One Brun step on tuple lanes (q; u1, u2); returns digit j and max pos."""
    i1 = u1 >= u2  # smallest index wins ties
    um = np.where(i1, u1, u2)
    j = q // um
    r = q - j * um
    nq = um
    nu1 = np.where(i1, u2, r)
    nu2 = np.where(i1, r, u1)
    return j, i1, nq, nu1, nu2


def _brun2_block(args):
    (qlo, qhi), targets = args
    t = list(targets)
    d = len(t)
    q, u1, u2 = _brun2_lanes(qlo, qhi)
    q0 = q.copy()
    idx = np.arange(len(q))
    cnt = np.zeros((len(q), d), np.int64)
    while len(q):
        j, i1, q, u1, u2 = _brun2_step(q, u1, u2)
        for k, lab in enumerate(t):
            cnt[idx[j == lab], k] += 1
        alive = (u1 > 0) | (u2 > 0)
        q, u1, u2, idx = q[alive], u1[alive], u2[alive], idx[alive]
    return _histogram(qlo, qhi, q0, cnt)


def brun2_ensemble_table(bound: int, targets=(1,), workers: int = 1, block_lanes: int = 2_000_000):
    """Digit-count table for coprime descending triples with t1 <= bound."""
    if not 1 <= len(targets) <= 2:
        raise ValueError("bulk sweeps support 1 or 2 targets")
    blocks = _blocks(1, bound, max(1, int(block_lanes**0.5)))
    parts = _run_blocks(_brun2_block, [(b, tuple(targets)) for b in blocks], workers)
    return _table_from_parts(parts, "brun", 3, targets, bound)


def _brun2_verify_block(args):
    (qlo, qhi) = args
    q, u1, u2 = _brun2_lanes(qlo, qhi)
    n = len(q)
    q0, u10, u20 = q.copy(), u1.copy(), u2.copy()
    cols = np.zeros((n, 3, 3), np.int64)
    cols[:, 0, 0] = cols[:, 1, 1] = cols[:, 2, 2] = 1  # cols[:, :, k] = k-th column
    wacc = np.zeros(n)
    idx = np.arange(n)
    while len(q):
        j, i1, nq, nu1, nu2 = _brun2_step(q, u1, u2)
        um = np.where(i1, u1, u2)
        wacc[idx] += 3.0 * (np.log(q) - np.log(um))
        c = cols[idx]
        jj = j[:, None]
        # M <- M @ B(i, j); B(1,j) cols = (e2, e3, e1 + j e3), B(2,j) cols = (e3, e1, e2 + j e3)
        b1 = np.stack([c[:, :, 1], c[:, :, 2], c[:, :, 0] + jj * c[:, :, 2]], axis=2)
        b2 = np.stack([c[:, :, 2], c[:, :, 0], c[:, :, 1] + jj * c[:, :, 2]], axis=2)
        cols[idx] = np.where(i1[:, None, None], b1, b2)
        q, u1, u2 = nq, nu1, nu2
        alive = (u1 > 0) | (u2 > 0)
        q, u1, u2, idx = q[alive], u1[alive], u2[alive], idx[alive]
    last = cols[:, :, 2]
    fails = int(
        np.count_nonzero((last[:, 0] != u10) | (last[:, 1] != u20) | (last[:, 2] != q0))
    )
    werr = float(np.abs(wacc - 3.0 * np.log(q0)).max()) if n else 0.0
    return n, fails, werr, int(cols.max())


def brun2_verify(bound: int, workers: int = 1) -> VerifyReport:
    return _merge_reports(_run_blocks(_brun2_verify_block, _blocks(1, bound, 700), workers))


# ---------------------------------------------------------------------------
# Jacobi-Perron
#
# The canonical expansion (orbits.jp_digits) is the first digit string, in
# the child order of orbits._jp_children, that reaches the origin with a
# final b >= 2 and never takes a = 0 right after a diagonal digit.  Whether
# a subtree gets there depends only on its state and on whether the digit
# into it was diagonal, so one choice table settles every expansion: for
# each state (p, r, q) and each value of that flag it holds the first child
# k whose subtree succeeds, or -1.  Child k = 2 da + db is the digit
# (r // p - da, q // p - db); the fixed order of k is the DFS's order.


def _jp_index(p, r, q):
    """Position of state (p, r, q) in the choice table: layers q = 1, 2, ...
    of q (q + 1) states each, rows p = 1..q, columns r = 0..q."""
    return (q - 1) * q * (q + 1) // 3 + (p - 1) * (q + 1) + r


def _jp_choice_table(bound: int) -> np.ndarray:
    """int8[after-diagonal flag, state]: the canonical child of every state
    with q <= bound, built layer by layer in q."""
    choice = np.full((2, _jp_index(1, 0, bound + 1)), -1, np.int8)
    for q in range(1, bound + 1):
        p, r = np.meshgrid(np.arange(1, q + 1), np.arange(q + 1), indexing="ij")
        # children of row p < q lie in layer p; row p = q has children in
        # rows p < q of its own layer, plus (q, 0, q), which has no
        # admissible child and so is already -1
        for rows in (slice(0, q - 1), slice(q - 1, q)):
            _jp_resolve(choice, p[rows].ravel(), r[rows].ravel(), q)
    return choice


# index of the lowest set bit of 0..15, -1 for none: the first good child
_LOWEST_BIT = np.array([-1, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0], np.int8)


def _jp_resolve(choice, p, r, q):
    """Fill the choice of the states (p, r, q) from those of their children."""
    af, bf = r // p, q // p
    # the closure digits a - 1 and b - 1 exist only for exact quotients a >= 1 and b >= 2,
    # so children k > 0 are worked out only on the few states that have them
    closure = ((r % p == 0) & (af > 0), (q % p == 0) & (bf > 1))
    good = np.zeros((2, len(p)), np.uint8)  # bit k: child k reaches the origin, by flag
    for k in range(4):
        da, db = k >> 1, k & 1
        i = np.nonzero((closure[0] | (not da)) & (closure[1] | (not db)))[0] if k else slice(None)
        a, b, pi = af[i] - da, bf[i] - db, p[i]
        np_, nr = r[i] - a * pi, q - b * pi
        valid, end = a <= b, np_ == 0
        child = np.where(valid & ~end, _jp_index(np_, nr, pi), 0)
        reaches = np.where(end, (nr == 0) & (b >= 2), choice[(a == b).astype(np.intp), child] >= 0)
        ok = valid & reaches
        good[0, i] |= ok.astype(np.uint8) << k
        good[1, i] |= (ok & (a > 0)).astype(np.uint8) << k
    choice[:, _jp_index(p, r, q)] = _LOWEST_BIT[good]


def _jp_lanes(qlo, qhi):
    qs, ps, rs = [], [], []
    for q in range(qlo, qhi + 1):
        p, r = np.meshgrid(
            np.arange(1, q + 1, dtype=np.int64),
            np.arange(0, q + 1, dtype=np.int64),
            indexing="ij",
        )
        p, r = p.ravel(), r.ravel()
        cop = np.gcd(np.gcd(p, r), q) == 1
        p, r = p[cop], r[cop]
        qs.append(np.full(len(p), q, np.int64))
        ps.append(p)
        rs.append(r)
    return np.concatenate(ps), np.concatenate(rs), np.concatenate(qs)


def _jp_replay(choice, p, r, q, on_digit):
    """Walk every lane along its canonical expansion, read from `choice`.

    Calls on_digit(lanes, a, b, p, q) once per step with the lanes that
    take the digit (a, b) from a state of first coordinate p and
    denominator q, and returns the mask of expandable lanes.  Raises
    RuntimeError where the table leads a lane off an admissible string.
    """
    k = choice[0, _jp_index(p, r, q)]
    expandable = k >= 0
    lanes = np.nonzero(expandable)[0]
    p, r, q, k = p[lanes], r[lanes], q[lanes], k[lanes]
    after_diag = np.zeros(len(lanes), bool)

    def require(bad, what):
        if bad.any():
            i = np.argmax(bad)
            raise RuntimeError(f"JP replay: {what} at state ({p[i]}, {r[i]}, {q[i]})")

    while len(lanes):
        a = r // p - (k >> 1)
        b = q // p - (k & 1)
        np_, nr = r - a * p, q - b * p
        end = np_ == 0
        require((a < 0) | (a > b) | (b < 1) | (np_ > p) | (nr > p), "a choice that is no child")
        require(after_diag & (a == 0), "a = 0 right after a diagonal digit")
        require(end & ((nr != 0) | (b < 2)), "an end off the origin or with b < 2")
        on_digit(lanes, a, b, p, q)
        live = ~end
        after_diag = (a == b)[live]
        p, r, q, lanes = np_[live], nr[live], p[live], lanes[live]
        k = choice[after_diag.astype(np.intp), _jp_index(p, r, q)]
        require(k < 0, "no admissible choice")
    return expandable


def _jp_run(block_fn, tasks, bound: int, workers: int):
    """Build the choice table once and replay the blocks against it."""
    return _run_blocks(block_fn, tasks, workers, _jp_choice_table(bound))


def _jp_table_block(args, choice):
    (qlo, qhi), targets = args
    p, r, q = _jp_lanes(qlo, qhi)
    cnt = np.zeros((len(q), len(targets)), np.int64)

    def count(lanes, a, b, p, q):
        for k, (ta, tb) in enumerate(targets):
            cnt[lanes[(a == ta) & (b == tb)], k] += 1

    exp = _jp_replay(choice, p, r, q, count)
    return _histogram(qlo, qhi, q[exp], cnt[exp])


def jp_ensemble_table(bound: int, targets=((1, 2),), workers: int = 1):
    """Digit-count table over all expandable coprime (p, r, q), q <= bound."""
    if not 1 <= len(targets) <= 2:
        raise ValueError("bulk sweeps support 1 or 2 targets")
    tasks = [(b, tuple(targets)) for b in _blocks(2, bound, 400)]  # ~q^2 lanes per denominator
    parts = _jp_run(_jp_table_block, tasks, bound, workers)
    return _table_from_parts(parts, "jp", 3, targets, bound)


def _jp_count_block(qs, choice):
    p, r, q = _jp_lanes(*qs)
    return int(np.count_nonzero(choice[0, _jp_index(p, r, q)] >= 0))


def jp_count_points(bound: int, workers: int = 1) -> int:
    """Number of expandable coprime triples with q <= bound."""
    return sum(_jp_run(_jp_count_block, _blocks(2, bound, 400), bound, workers))


def _jp_roundtrip_block(qs, choice):
    """Round-trip and weight check over every expandable triple in the block."""
    p0, r0, q0 = _jp_lanes(*qs)
    n = len(q0)
    cols = np.zeros((n, 3, 3), np.int64)
    cols[:, 0, 0] = cols[:, 1, 1] = cols[:, 2, 2] = 1  # cols[:, :, k] = k-th column
    wacc = np.zeros(n)

    def recompose(lanes, a, b, p, q):
        # M <- M @ B(a, b) maps the columns (c1, c2, c3) to (c2, c3, c1 + a c2 + b c3)
        c = cols[lanes]
        new3 = c[:, :, 0] + a[:, None] * c[:, :, 1] + b[:, None] * c[:, :, 2]
        cols[lanes] = np.stack([c[:, :, 1], c[:, :, 2], new3], axis=2)
        wacc[lanes] += 3.0 * (np.log(q) - np.log(p))

    sel = _jp_replay(choice, p0, r0, q0, recompose)
    if not sel.any():
        return 0, 0, 0.0, 1
    last = cols[sel, :, 2]
    fails = np.count_nonzero((last[:, 0] != p0[sel]) | (last[:, 1] != r0[sel]) | (last[:, 2] != q0[sel]))
    werr = float(np.abs(wacc[sel] - 3.0 * np.log(q0[sel])).max())
    return int(sel.sum()), int(fails), werr, int(cols[sel].max())


def jp_verify(bound: int, workers: int = 1) -> VerifyReport:
    return _merge_reports(_jp_run(_jp_roundtrip_block, _blocks(2, bound, 400), bound, workers))
