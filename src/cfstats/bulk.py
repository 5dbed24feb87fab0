"""Vectorized ensemble sweeps.

Table sweeps count target digits per point; verify sweeps prove that
every point's canonical expansion recomposes to it exactly (the round
trip) and that its forward log-Jacobians sum to (m + 1) log q.

Every sweep is a DP over the states of its algorithm, filled layer by
layer in the denominator: a state's value is its first step's term plus
the value of the child it steps to.  Two DPs serve all three maps.  The
count DP (_count_states) holds one int8 count per target and state,
negative where the gcd exceeds 1 or there is no expansion, and raises if
a count reaches 127; one histogram of the count rows (_table_rows) turns
the lanes' states into table rows, for any number of targets.  The
weight DP (_weight_states) holds a float64 sum of forward log-Jacobians
per state, NaN where the count DP's would be negative.  Each map supplies
a layer loop, which hands both DPs its steps (_gauss_layers,
_brun2_layers for the Brun GCD, m = 2, over the states with sorted
numerators only, since swapping them changes no digit j and no
denominator, and _jp_choice_layers, which follows the JP choice table
that settles every canonical expansion), and
a step check, which decodes each state's child from the position the
weight DP read and checks the step's inverse branch exactly, B (child) =
state, so by induction on the denominator it proves every point's round
trip without composing any matrix.

Each sweep builds the starts of its DP's layers (_layer_starts), and
its layer loop builds them again.  They give the DP's size and its
positions both ways: a child's position is its layer's start plus its
offset there, and every position decodes to its layer and offset by one
exact lookup in them (_decode).  Every sweep runs in the calling
process, and raises BudgetError before it builds them if the DP's bytes,
given in its docstring, exceed physical memory or the process's cgroup
memory limit (_require_memory); the check counts neither memory in use
nor the histograms.  Rows and checks run over
blocks of about _LANE_BUDGET states, counted from the starts and split
by one rule, which bounds their temporaries; results merge
in block order and every reduction is integer-exact or a maximum, so
outputs are bit-identical for any block split.  The six public sweeps
take a `workers` keyword that is ignored, kept for callers that still
pass it.  Checked products stay far below 2^63 for the bounds used here;
VerifyReport.ok fails if the largest one reaches 2^62.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .orbits import BudgetError
from .orbits import jp_digits  # noqa: F401  the JP reference; tracers patch bulk.jp_digits
from .stats import EnsembleTable

# DP states per block of rows or checks, for every sweep; larger blocks cost
# memory and buy no speed
_LANE_BUDGET = 2**15


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


def _layer_starts(start, bound: int, per_state: int, what: str, extra: int = 0) -> np.ndarray:
    """The positions start(q) where the layers q = 0..max(bound, 1) + 1 of a
    DP begin, the last its size.  Raises BudgetError first if per_state
    bytes per state, plus extra, exceed the memory (_require_memory), with
    the size counted in Python integers, which no bound overflows."""
    top = max(bound, 1) + 1
    _require_memory(per_state * start(top) + extra, what)
    return start(np.arange(top + 1, dtype=np.int64))


def _decode(starts, k):
    """The layers q of the positions k of a DP whose layer q begins at
    starts[q], and the offsets k - starts[q]: exact for every 0 <= k <
    starts[-1] and any nondecreasing starts, since the search takes the
    last layer that begins at or before k, never an empty one."""
    q = np.searchsorted(starts, k, "right") - 1
    return q, k - starts[q]


def _blocks(lo: int, hi: int, sizes):
    """Split denominators [lo, hi] into ranges of about _LANE_BUDGET states,
    counting sizes[q] states at denominator q."""
    out, start, acc = [], lo, 0
    for q, size in enumerate(sizes[lo : hi + 1].tolist(), lo):
        acc += size
        if acc >= _LANE_BUDGET:
            out.append((start, q))
            start, acc = q + 1, 0
    if start <= hi:
        out.append((start, hi))
    return out


def _table_from_parts(parts, algorithm, multiplier, targets, bound):
    if not any(len(p[0]) for p in parts):
        raise ValueError("empty ensemble")  # as EnsembleTable.from_records
    qs = np.concatenate([p[0] for p in parts])
    counts = np.concatenate([p[1] for p in parts])[:, : len(targets)]  # without the stand-in row of no target
    mult = np.concatenate([p[2] for p in parts])
    return EnsembleTable(algorithm, multiplier, tuple(targets), qs, counts, mult, bound)


def _merge_reports(parts) -> VerifyReport:
    if not sum(p[0] for p in parts):
        raise ValueError("empty ensemble")  # as _table_from_parts
    return VerifyReport(
        sum(p[0] for p in parts),
        sum(p[1] for p in parts),
        max(p[2] for p in parts),
        max(p[3] for p in parts),
    )


def _count_states(layers, size: int, bound: int, targets) -> np.ndarray:
    """int8[target, state]: the digit counts of the `size` states of a DP
    with denominators up to bound.  layers(bound, fill) calls
    fill(k, j, child, q, cq) with the positions k of the states of each
    layer in order, their digits j, the positions of their children, and
    the denominators of the states and of their children; the state at
    position 0 ends every coprime expansion.

    Every state starts at -128 but the base, at 0, and takes its child's
    counts plus its own digit, one gather per target.  A state with gcd
    g > 1 ends at a state that no layer fills, so it holds -128 plus the
    counts of its reduced expansion, which is negative as long as every
    count stays below 127.  Raises RuntimeError if one reaches 127.
    """
    state = np.full((len(targets), size), -128, np.int8)
    state[:, 0] = 0

    def fill(k, j, child, *_):
        for row, t in zip(state, targets):
            row[k] = row.take(child) + (j == t)

    layers(bound, fill)
    _require_int8(state)
    return state


def _require_int8(state):
    """Raise RuntimeError if a digit count of a DP reaches 127: one more
    digit would wrap, and the sign would no longer mark gcd > 1.  The first
    state to reach 127 keeps it, so one check after the last layer sees it."""
    if state.max(initial=0) >= 127:
        raise RuntimeError("a digit count reaches 127, beyond what an int8 state holds")


def _weight_states(layers, size: int, bound: int, multiplier: int) -> np.ndarray:
    """float64[state]: the sums W of the forward log-Jacobians
    multiplier * (log q - log q') over the steps q -> q' of the expansions
    of the `size` states of a DP, last step first, with layers as for
    _count_states: 0 at the base, NaN where the gcd exceeds 1 or there is
    no expansion, since every other state starts at NaN."""
    logs = np.zeros(bound + 1)
    logs[1:] = np.log(np.arange(1, bound + 1))  # logs[k] = log k
    wsum = np.full(size, np.nan)
    wsum[0] = 0.0

    def fill(k, j, child, q, cq):
        term = logs[q] - logs[cq]  # multiplier * (log q - log cq) + W(child), in place
        term *= multiplier
        term += wsum.take(child)
        wsum[k] = term

    layers(bound, fill)
    return wsum


def _table_rows(qs, state, starts, lane):
    """Table rows of the denominators [qlo, qhi], read from the counts
    int8[target, state] of a DP whose layer q begins at the position
    starts[q]; lane(m) marks the lanes among the states at the offsets m
    within their layers, or lane is None where every state is a lane.

    Each row's negatives, gcd > 1 or no expansion, are clamped to -1, and
    the rows are histogrammed as they are, in one positional key whose
    digits are q and the rows, each in a base of its span in the data.
    The key is int32 while its size stays below 2^31, then int64.  Where
    the next row would overflow 2^63, np.unique first replaces the key by
    its rank among the distinct keys so far, so any number of targets
    works.  Target 0 is the most significant row, so the keys sort in
    (q, counts) order.  Only the distinct keys are decoded, and the -1
    rows are dropped then.
    """
    qlo, qhi = qs
    lo, hi = starts[qlo], starts[qhi + 1]
    rows = state[:, lo:hi]
    key = np.repeat(np.arange(qhi - qlo + 1, dtype=np.int32), np.diff(starts[qlo : qhi + 2]))  # q - qlo
    if lane is not None:
        keep = lane(np.arange(lo, hi) - starts[key + qlo])
        rows, key = rows[:, keep], key[keep]
    rows = np.maximum(rows, -1)
    size, lows, spans, ranked = qhi - qlo + 1, [], [], []  # key < size
    for row in rows:
        low = int(row.min())
        span = int(row.max()) - low + 1
        distinct = None
        if size * span >= 2**63:
            distinct, key = np.unique(key, return_inverse=True)
            size = len(distinct)
        if size * span >= 2**31:
            key = key.astype(np.int64, copy=False)
        key = key * span - low + row
        size *= span
        lows.append(low)
        spans.append(span)
        ranked.append(distinct)
    key, mult = np.unique(key, return_counts=True)
    key = key.astype(np.int64, copy=False)
    counts = np.empty((len(rows), len(key)), np.int64)
    for i in reversed(range(len(rows))):
        key, counts[i] = np.divmod(key, spans[i])
        counts[i] += lows[i]
        if ranked[i] is not None:
            key = ranked[i][key]
    keep = counts[0] >= 0
    return key[keep] + qlo, counts[:, keep].T, mult[keep].astype(np.int64)


# ---------------------------------------------------------------------------
# Gauss
#
# Both Gauss sweeps are DPs over the states (r, p), 0 <= r < p <= bound: the
# Euclid step from r/p takes the digit p // r to the state (p mod r, r), so a
# sum along the expansion of r/p is its first step's term plus its child's
# sum.  The states lie in layers p = 1, 2, ... of p states each; a layer
# reads only earlier ones, and one loop (_gauss_layers) feeds both DPs.
# gcd(r, p) > 1 is marked in each state (a negative count in the table,
# NaN in the weights), since (0, p) is coprime only for p = 1 and every
# coprime state has a coprime child.


def _gauss_index(r, p):
    """Position of state (r, p) in the DP array: layers p = 1, 2, ... of p
    states each, r = 0..p-1.  The layer p begins at _gauss_index(0, p),
    and _decode on those starts gives back (p, r)."""
    return p * (p - 1) // 2 + r


_GAUSS_START = functools.partial(_gauss_index, 0)


def _gauss_children(r, p, first):
    """The Euclid step from the states (r, p), r >= 1, given the positions
    first of the states (0, r): the digits p // r and the positions of the
    child states (p mod r, r)."""
    j, rem = np.divmod(p, r)
    return j, first + rem


def _gauss_layers(bound: int, fill):
    """Call fill(k, j, child, p, r) for the layers p = 2..bound in order: k
    is the slice of positions of the states (r, p), r = 1..p-1, j, child are
    their _gauss_children, and the children's denominators r are the slice
    1..p-1, which indexes a table by denominator without a gather."""
    r = np.arange(1, bound, dtype=np.int32)
    first = _gauss_index(0, r.astype(np.int64))
    for p in range(2, bound + 1):
        start = _gauss_index(0, p) + 1
        j, child = _gauss_children(r[: p - 1], np.int32(p), first[: p - 1])
        fill(slice(start, start + p - 1), j, child, p, slice(1, p))


_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


def _memory_bytes() -> int:
    """Physical memory, or the memory limit of this process's cgroup or
    any of its ancestors (cgroup v2 memory.max, v1 memory.limit_in_bytes),
    whichever is smallest."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open(_PROC_CGROUP) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return have
    for line in lines:
        _, controllers, path = line.split(":", 2)
        if controllers == "":
            root, name = _CGROUP_ROOT, "memory.max"
        elif "memory" in controllers.split(","):
            root, name = os.path.join(_CGROUP_ROOT, "memory"), "memory.limit_in_bytes"
        else:
            continue
        parts = [d for d in path.split("/") if d]
        for k in range(len(parts) + 1):
            try:
                with open(os.path.join(root, *parts[:k], name)) as fh:
                    limit = fh.read().strip()
            except OSError:
                continue
            if limit.isdigit():
                have = min(have, int(limit))
    return have


def _require_memory(need: int, what: str):
    """Raise BudgetError if `need` bytes of DP states exceed _memory_bytes()."""
    have = _memory_bytes()
    if need > have:
        raise BudgetError(f"{what} needs {need / 2**30:.1f} GiB of DP states, "
                          f"more than the {have / 2**30:.1f} GiB of physical memory or cgroup limit")


def gauss_ensemble_table(bound: int, targets=(1,), workers: int = 1):
    """Digit-count table for all coprime p/q with 2 <= q <= bound.

    A DP holds the target counts of every state (r, p) with p <= bound
    (_count_states); by induction on p each coprime state holds the counts
    of its expansion, C(r, p) = [p // r = t] + C(p mod r, r), from the base
    (0, 1), which holds none; (0, p) holds -128 for p >= 2.  Lame's bound
    keeps every expansion far below 127 digits at any bound whose states
    fit in memory.  The denominator blocks of states are then histogrammed
    (_table_rows).  The states take 1 byte per state and target,
    bound * (bound + 1) / 2 bytes per target in all.
    """
    targets = tuple(targets)
    rows = targets or (0,)  # with no target, a row that no digit hits still marks gcd > 1
    starts = _layer_starts(_GAUSS_START, bound, len(rows), f"the Gauss table at q <= {bound}")
    state = _count_states(_gauss_layers, starts[-1], max(bound, 1), rows)
    parts = [_table_rows(b, state, starts, None) for b in _blocks(2, bound, np.diff(starts))]
    return _table_from_parts(parts, "gauss", 2, targets, bound)


def _gauss_check(qs, wsum, starts):
    """Round-trip and weight check of the coprime states (r, p), r >= 1, with
    p in [qlo, qhi]: the child the DP read for (r, p), decoded from its
    position on the layer starts into (r', p'), must satisfy B(j) (r', p') =
    (r, p) with B(j) = [[0, 1], [1, j]] and j = p // r, and W(r, p) = 2 log p."""
    qlo, qhi = qs
    lo, hi = starts[qlo], starts[qhi + 1]
    p = np.repeat(np.arange(qlo, qhi + 1), np.diff(starts[qlo : qhi + 2]))  # the block's own layers, with no search
    r = np.arange(lo, hi) - starts[p]
    w = wsum[lo:hi]
    k = np.flatnonzero(~np.isnan(w) & (r > 0))  # r = 0 is NaN but for a lost gcd mark
    r, p, w = r[k], p[k], w[k]
    j, child = _gauss_children(r, p, starts[r])
    # pc, rc encode child exactly, so a pass means child is the position of (p mod r, r)
    pc, rc = _decode(starts, child)
    top, bottom = pc, rc + j * pc
    fails = np.count_nonzero((top != r) | (bottom != p))
    werr = float(np.abs(w - 2.0 * np.log(p)).max())
    return len(k), int(fails), werr, int(max(top.max(), bottom.max()))


def gauss_verify(bound: int, workers: int = 1) -> VerifyReport:
    """Exact round-trip and weight-telescoping check over all coprime p/q
    with 2 <= q <= bound.

    The weight DP over the table's states holds the weight sum W(r, p) of
    every state (_weight_states), and every coprime state with r >= 1 is
    checked against the child it read (_gauss_check).  By induction on p
    this proves every point: the composed inverse branches M(r/p) =
    B(j) M(r'/p') of the expansion give back (r, p) = B(j) (r', p') from
    the child's round trip and the base (0, 1), and W(r, p) = 2 (log p -
    log r) + W(r', p') telescopes to 2 log p.  roundtrip_failures counts
    the states whose step check fails, and max_matrix_entry is the largest
    entry of the checked products B(j) (r', p').

    The weights take 8 bytes per state, 4 * bound * (bound + 1) bytes in
    all.
    """
    starts = _layer_starts(_GAUSS_START, bound, 8, f"the Gauss verify sweep at q <= {bound}")
    wsum = _weight_states(_gauss_layers, starts[-1], max(bound, 1), 2)
    return _merge_reports([_gauss_check(b, wsum, starts) for b in _blocks(2, bound, np.diff(starts))])


# ---------------------------------------------------------------------------
# Brun, m = 2
#
# The Brun step from (q; u1, u2) divides q by its largest numerator um, u1 on
# ties, taking the digit j = q // um, to the child (um; u2, q - j um) if
# um = u1 and to (um; q - j um, u1) if not.  It depends only on the multiset
# of the numerators: swapping them swaps the child's, so (q; u1, u2) and
# (q; u2, u1) have the same digits j and the same denominators all along
# their expansions (Schweiger 2000, Multidimensional Continued Fractions),
# and the expansion of one recomposes to the other through the swap.  So the
# DPs hold only the sorted states q >= u1 >= u2 >= 0, in layers q = 1, 2,
# ...; a sorted state divides by u1, and reads its child at the child's
# sorted position.  (q; 0, 0) ends every expansion, and is coprime only for
# q = 1.  Both DPs share the layer loop (_brun2_layers), and the lanes are
# the states with u2 >= 1.


def _brun2_index(q, u1, u2):
    """Position of the sorted state (q; u1, u2) in the DPs: layers
    q = 1, 2, ... of (q + 1)(q + 2) / 2 states each, rows u1 = 0..q of
    u1 + 1 states, columns u2 = 0..u1.  The layer q begins at
    _brun2_index(q, 0, 0), and its rows at the offsets _brun2_rows."""
    return q * (q + 1) * (q + 2) // 6 - 1 + _gauss_index(u2, u1 + 1)


_BRUN2_START = functools.partial(_brun2_index, u1=0, u2=0)


def _brun2_rows(bound: int) -> np.ndarray:
    """The offsets u1 (u1 + 1) / 2 = _gauss_index(0, u1 + 1) where the rows
    u1 = 0..bound + 1 of a Brun layer begin, the last the size of layer bound."""
    return _GAUSS_START(np.arange(1, bound + 3, dtype=np.int64))


def _brun2_state(k, starts, rows):
    """The states (q, u1, u2) at the positions k of a DP whose layer q
    begins at starts[q], with the row starts rows (_brun2_rows)."""
    q, m = _decode(starts, k)
    return (q, *_decode(rows, m))


def _brun2_children(q, u1, u2, starts, rows):
    """The Brun step from the sorted states (q; u1, u2), u1 >= 1, which
    divides by u1: the digits j = q // u1, and the positions of the children
    (u1; u2, r), r = q - j u1, at their sorted positions (u1; max(u2, r),
    min(u2, r)), read off the starts of the layers and rows (_brun2_rows)."""
    j, r = np.divmod(q, u1)
    return j, starts[u1] + rows[np.maximum(u2, r)] + np.minimum(u2, r)


def _brun2_is_lane(rows, m):
    """Whether the offsets m within their layers hold lanes, the states
    (q; u1, u2) with u2 >= 1, with the row starts rows (_brun2_rows)."""
    return _decode(rows, m)[1] >= 1


def _brun2_layers(bound: int, fill):
    """Call fill(k, j, pos, q, u1) for the states (q; u1, u2), u1 >= 1, of
    the layers q = 1..bound in order: k is the slice of their positions, and
    j, pos the digits and the children's positions (_brun2_children); the
    children's denominators are u1.  A step from the row u1 = q reads its own
    layer, so each layer comes in three slices: the rows u1 < q, which read
    earlier layers; the row u1 = q but (q; q, q), which steps to (q; u2, 0)
    of the first slice, or to (q; 0, 0); and last (q; q, q), which steps to
    (q; q, 0) of the second."""
    starts, rows = _BRUN2_START(np.arange(bound + 1, dtype=np.int64)), _brun2_rows(bound)
    u1, u2 = _decode(rows, np.arange(rows[-1]))  # the rows and columns of the largest layer
    for q in range(1, bound + 1):
        start, row = starts[q], rows[q]  # row: the offset of (q; q, 0)
        for lo, hi in ((1, row), (row, row + q), (row + q, row + q + 1)):
            j, pos = _brun2_children(q, u1[lo:hi], u2[lo:hi], starts, rows)
            fill(slice(start + lo, start + hi), j, pos, q, u1[lo:hi])


def brun2_ensemble_table(bound: int, targets=(1,), workers: int = 1):
    """Digit-count table for coprime descending triples with t1 <= bound.

    A DP holds the target counts of every sorted state (q; u1, u2) with
    q <= bound (_count_states); by induction on q, each layer in the order
    of _brun2_layers, every coprime state holds the counts of its
    expansion, C(q; u1, u2) = [j = t] + C(child), from the base (1; 0, 0),
    which holds none.  The longest expansions are far shorter than 127
    digits (17 at t1 <= 600).  The lanes (t2, t3, t1) = (u1, u2, q) of the
    denominator blocks are then histogrammed (_table_rows).  The states
    take 1 byte per state and target, (bound + 1)(bound + 2)(bound + 3) / 6
    - 1 bytes per target in all, 4.6 MB at t1 <= 300.
    """
    targets = tuple(targets)
    rows = targets or (0,)  # with no target, a row that no digit hits still marks gcd > 1
    starts = _layer_starts(_BRUN2_START, bound, len(rows), f"the Brun table at t1 <= {bound}")
    state = _count_states(_brun2_layers, starts[-1], max(bound, 1), rows)
    lane = functools.partial(_brun2_is_lane, _brun2_rows(max(bound, 1)))
    parts = [_table_rows(b, state, starts, lane) for b in _blocks(1, bound, np.diff(starts))]
    return _table_from_parts(parts, "brun", 3, targets, bound)


def _brun2_check(qs, wsum, starts, rows):
    """Round-trip and weight check of the coprime states (q; u1, u2),
    u1 >= 1, with q in [qlo, qhi]: the child the DP read, decoded from its
    position (_brun2_state) into (cq; c1, c2), c1 >= c2, must satisfy
    B(1, j) (y, r, cq) = (cq, y, r + j cq) = (u1, u2, q) for one order
    (y, r) of (c1, c2): (c1, c2) if c1 = u2, else (c2, c1).  Lanes, the
    states with u2 >= 1, must have W = 3 log q."""
    qlo, qhi = qs
    lo = starts[qlo]
    k = np.flatnonzero(~np.isnan(wsum[lo : starts[qhi + 1]]))
    q = np.repeat(np.arange(qlo, qhi + 1), np.diff(starts[qlo : qhi + 2]))[k]  # the states' own layers, with no search
    k += lo
    u1, u2 = _decode(rows, k - starts[q])
    step = u1 > 0  # (1; 0, 0) is the origin
    q, u1, u2, w = q[step], u1[step], u2[step], wsum[k[step]]
    j, pos = _brun2_children(q, u1, u2, starts, rows)
    # cq, c1, c2 encode pos exactly, so a pass means it holds the child
    cq, c1, c2 = _brun2_state(pos, starts, rows)
    first = c1 == u2
    x, y, z = cq, np.where(first, c1, c2), np.where(first, c2, c1) + j * cq
    fails = np.count_nonzero((x != u1) | (y != u2) | (z != q))
    lane = u2 >= 1
    werr = float(np.abs(w[lane] - 3.0 * np.log(q[lane])).max(initial=0.0))
    top = max(x.max(initial=0), y.max(initial=0), z.max(initial=0))
    return int(np.count_nonzero(lane)), int(fails), werr, int(top)


def brun2_verify(bound: int, workers: int = 1) -> VerifyReport:
    """Exact round-trip and weight-telescoping check over all coprime
    descending triples (t1, t2, t3) with t1 <= bound.

    The weight DP holds the weight sum W(q; u1, u2) of every sorted state
    with q <= bound (_weight_states), and every coprime state but the
    origin is checked against the child it read (_brun2_check).  By
    induction on q this proves every point: the composed inverse branches
    M(q; u1, u2) = B(1, j) M(child) of the expansion give back (u1, u2, q)
    = B(1, j) (y, r, u1) from the round trip of the child (u1; y, r), which
    is that of its sorted state, swapped if r > y, and the base (1; 0, 0);
    and W(q; u1, u2) = 3 (log q - log u1) + W(child) telescopes to
    3 log q.  A step from the row u1 = q reads a state of its own layer,
    filled first.  checked counts the lanes (t2, t3, t1) = (u1, u2, q),
    roundtrip_failures the states whose step check fails, and
    max_matrix_entry is the largest entry of the checked products.

    The weights take 8 bytes per state, 8 * ((bound + 1)(bound + 2)
    (bound + 3) / 6 - 1) bytes in all, 37 MB at t1 <= 300.
    """
    starts = _layer_starts(_BRUN2_START, bound, 8, f"the Brun verify sweep at t1 <= {bound}")
    wsum = _weight_states(_brun2_layers, starts[-1], max(bound, 1), 3)
    rows = _brun2_rows(max(bound, 1))
    return _merge_reports([_brun2_check(b, wsum, starts, rows) for b in _blocks(1, bound, np.diff(starts))])


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
# (r // p - da, q // p - db); the fixed order of k is the DFS's order.  The
# count and weight DPs hold a value for every (flag, state) of the same
# table, following its stored child (_jp_choice_layers).


def _jp_index(p, r, q):
    """Position of state (p, r, q) in the choice table: layers q = 1, 2, ...
    of q (q + 1) states each, rows p = 1..q, columns r = 0..q.  The layer q
    begins at _jp_index(1, 0, q)."""
    return (q - 1) * q * (q + 1) // 3 + (p - 1) * (q + 1) + r


_JP_START = functools.partial(_jp_index, 1, 0)


def _jp_state(k, starts):
    """The states (p, r, q) at the positions k of a table whose layer q
    begins at starts[q]: q by _decode, and the row and column from the
    offset, since every row of the layer q holds q + 1 states."""
    q, m = _decode(starts, k)
    p, r = np.divmod(m, q + 1)
    return p + 1, r, q


def _jp_layers(starts, fill):
    """Call fill(lo, p, r, q) for the states of a table whose layer q begins
    at starts[q], layers q = 1, ..., len(starts) - 2 in order, in two parts
    per layer at the positions from lo on: the rows p < q, whose children
    lie in layer p, and then the row p = q, whose children lie in rows
    p < q of its own layer, or are (q, 0, q), which has no admissible child."""
    for q in range(1, len(starts) - 1):
        p, r = np.divmod(np.arange(q * (q + 1)), q + 1)
        p += 1
        split = (q - 1) * (q + 1)
        if split:
            fill(starts[q], p[:split], r[:split], q)
        fill(starts[q] + split, p[split:], r[split:], q)


def _jp_choice_table(bound: int) -> np.ndarray:
    """int8[after-diagonal flag, state]: the canonical child of every state
    with q <= bound, built layer by layer in q (_jp_resolve).  The row p = q
    reads (q, 0, q) before the row is filled, which is right, since it has
    no child and starts at -1."""
    starts = _JP_START(np.arange(bound + 2, dtype=np.int64))
    choice = np.full((2, starts[-1]), -1, np.int8)
    _jp_layers(starts, functools.partial(_jp_resolve, choice, starts))
    return choice


# index of the lowest set bit of 0..15, -1 for none: the first good child
_LOWEST_BIT = np.array([-1, 0, 1, 0, 2, 0, 1, 0, 3, 0, 1, 0, 2, 0, 1, 0], np.int8)


def _jp_resolve(choice, starts, lo, p, r, q):
    """Fill the choices of the states (p, r, q), at the positions from lo on,
    in two passes: the floor child k = 0 of every state, then the closure
    children k = 1, 2, 3 of the few states that have them, all at once.  Bit
    k of a state's mask, per flag, is set where the digit k has a <= b, and
    a >= 1 at flag 1, and its child ends at the origin with b >= 2 or has a
    choice at the flag a == b.  Children are read off the layer starts."""
    n, flat = choice.shape[1], choice.reshape(-1)

    def good(a, b, np_, nr, p):
        # an end's position may fall outside the table; "clip" reads a value that np.where drops
        child = (a == b) * n + starts.take(p) + (np_ - 1) * (p + 1) + nr
        ok = (a <= b) & np.where(np_ == 0, (nr == 0) & (b >= 2), flat.take(child, mode="clip") >= 0)
        return np.array((ok, ok & (a > 0))).view(np.uint8)

    (a, np_), (b, nr) = np.divmod(r, p), np.divmod(q, p)
    mask = good(a, b, np_, nr, p)
    # the closure digits a - 1 and b - 1 exist only for exact quotients a >= 1 and b >= 2;
    # a state with both has the children 1, 2 and 3, so each group is ORed in on its own
    ca, cb = (np_ == 0) & (a > 0), (nr == 0) & (b > 1)
    groups = (cb.nonzero()[0], ca.nonzero()[0], (ca & cb).nonzero()[0])
    sizes = [len(g) for g in groups]
    i = np.concatenate(groups)
    k = np.repeat(np.arange(1, 4, dtype=np.uint8), sizes)
    bits = good(*_jp_step(k, p[i], r[i], q), p[i]) << k
    for g, end in zip(groups, (sizes[0], sizes[0] + sizes[1], len(i))):
        mask[:, g] |= bits[:, end - len(g) : end]
    choice[:, lo : lo + len(p)] = _LOWEST_BIT[mask]


def _jp_step(k, p, r, q):
    """The digits (a, b) that the choices k take from the states (p, r, q),
    and the first coordinates and numerators (r - a p, q - b p) of the
    children, whose denominator is p; the step ends where r - a p = 0."""
    a = r // p - (k >> 1)
    b = q // p - (k & 1)
    return a, b, r - a * p, q - b * p


def _jp_children(k, p, r, q, starts, n: int):
    """_jp_step, plus the positions of the children in a [flag, state] array
    of n states per flag, flattened, with the flag a == b, read off the layer
    starts; 0 where the step ends or k < 0."""
    a, b, np_, nr = _jp_step(k, p, r, q)
    pos = np.where((k >= 0) & (np_ > 0), (a == b) * n + starts.take(p) + (np_ - 1) * (p + 1) + nr, 0)
    return a, b, np_, nr, pos


def _jp_require(bad, what, p, r, q):
    """Raise RuntimeError naming the first state (p, r, q) where bad is set."""
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        state = (int(np.broadcast_to(x, bad.shape)[i]) for x in (p, r, q))
        raise RuntimeError(f"JP replay: {what} at state ({', '.join(map(str, state))})")


def _jp_require_admissible(on, after_diag, a, b, np_, nr, p, r, q):
    """Raise RuntimeError where a step marked by `on` that takes the digit
    (a, b) from the state (p, r, q), after a diagonal digit where after_diag
    is set, is no child, or leaves the admissible strings."""
    end = np_ == 0
    _jp_require(on & ((a < 0) | (a > b) | (b < 1) | (np_ > p) | (nr > p)), "a choice that is no child", p, r, q)
    _jp_require(on & after_diag & (a == 0), "a = 0 right after a diagonal digit", p, r, q)
    _jp_require(on & end & ((nr != 0) | (b < 2)), "an end off the origin or with b < 2", p, r, q)


_AFTER_DIAG = np.array([[False], [True]])  # the flag of each row of a [flag, state] array


@dataclass(eq=False)
class _JPDigits:
    """The digits (a, b) of JP steps, equal to a target (a, b) where both
    parts are.  The count DP compares them with its targets; the weight DP
    never reads them, so no digit code is worked out for it."""
    a: np.ndarray
    b: np.ndarray

    def __eq__(self, target):
        return (self.a == target[0]) & (self.b == target[1])


def _jp_choice_layers(choice: np.ndarray, bound: int, fill):
    """The layer loop of the JP DPs over a choice table: call
    fill(k, j, child, q, p) for the (flag, state) pairs of each _jp_layers
    call, one flag at a time.  A DP holds the origin (0, 0, 1) at position
    0, a slot at 1 that no layer fills, and the state s at flag f at
    2 + f * n + s, n = choice.shape[1]; so k is a slice, and j holds the
    digits (_JPDigits).  A step to a state reads it at the flag a == b, an
    end at (0, 0, 1) reads the origin, and an end at (0, 0, g), g > 1, or a
    state with no choice reads the slot that is never filled, so its value
    stays negative or NaN whatever digit its -1 decodes to.

    Raises RuntimeError where a stored choice is no child, leaves the
    admissible strings or leads to a state with no choice.
    """
    n = choice.shape[1]
    starts = _JP_START(np.arange(bound + 2, dtype=np.int64))

    def follow(lo, p, r, q):
        k = choice[:, lo : lo + len(p)]
        a, b, np_, nr, pos = _jp_children(k, p, r, q, starts, n)
        on = k >= 0
        _jp_require_admissible(on, _AFTER_DIAG, a, b, np_, nr, p, r, q)
        read = on & (np_ > 0)
        _jp_require(read & (choice.reshape(-1).take(pos) < 0), "no admissible choice", p, r, q)
        child = np.where(read, pos + 2, np.where(on & (p == 1), 0, 1))
        for f in (0, 1):
            start = 2 + f * n + lo
            fill(slice(start, start + len(p)), _JPDigits(a[f], b[f]), child[f], q, p)

    _jp_layers(starts, follow)


def jp_ensemble_table(bound: int, targets=((1, 2),), workers: int = 1):
    """Digit-count table over all expandable coprime (p, r, q), q <= bound.

    The count DP over the choice table holds the target counts of every
    state and after-diagonal flag (_count_states, _jp_choice_layers),
    checking as it goes that every choice takes an admissible digit; by
    induction on q, each layer in the order of _jp_layers, every expandable
    state holds the counts of its canonical expansion, C(flag, p, r, q) =
    [(a, b) = t] + C(a == b, child), from the base, the origin (0, 0, 1),
    which holds none.  The longest expansions are far shorter than 127
    digits (16 at q <= 500).  The lanes, the states at flag 0, of the
    denominator blocks are then histogrammed (_table_rows).  The choice
    table and the counts take 2 + 2 * len(targets) bytes per state, and
    the counts 2 * len(targets) more for the origin and the slot that is
    never filled: (2 + 2 * len(targets)) * bound * (bound + 1) *
    (bound + 2) / 3 + 2 * len(targets) bytes in all, 167 MB at q <= 500
    with one target.
    """
    targets = tuple(targets)
    rows = targets or ((0, 0),)  # with no target, a row that no digit hits still marks gcd > 1
    starts = _layer_starts(_JP_START, bound, 2 + 2 * len(rows), f"the JP table at q <= {bound}", 2 * len(rows))
    choice = _jp_choice_table(max(bound, 1))
    state = _count_states(functools.partial(_jp_choice_layers, choice), 2 + choice.size, max(bound, 1), rows)
    parts = [_table_rows(b, state[:, 2 : 2 + starts[-1]], starts, None) for b in _blocks(2, bound, np.diff(starts))]
    return _table_from_parts(parts, "jp", 3, targets, bound)


def _jp_check(qs, choice, wsum, starts):
    """Round-trip and weight check of the (flag, state) pairs with a finite
    weight and q in [qlo, qhi]: the child the DP read, decoded from its
    position (_jp_state) into its flag and (p', r', q'), or the origin
    (0, 0, 1) at an end, must satisfy B(a, b) (p', r', q') = (q', p' + a q',
    r' + b q') = (p, r, q) with the flag a == b.  Lanes, the states with
    q >= 2 at flag 0, must have W = 3 log q."""
    qlo, qhi = qs
    n = choice.shape[1]
    lo = starts[qlo]
    flag, k = np.nonzero(~np.isnan(wsum[:, lo : starts[qhi + 1]]))
    q = np.repeat(np.arange(qlo, qhi + 1), np.diff(starts[qlo : qhi + 2]))[k]  # the states' own layers, with no search
    k += lo
    p, r = np.divmod(k - starts[q], q + 1)
    p += 1
    a, b, np_, nr, pos = _jp_children(choice[flag, k], p, r, q, starts, n)
    end = np_ == 0
    # the decoded flag and state encode pos exactly, so a pass means it holds the child
    cflag, ck = np.divmod(pos, n)
    cp, cr, cq = _jp_state(ck, starts)
    cp, cr, cq = np.where(end, 0, cp), np.where(end, 0, cr), np.where(end, 1, cq)
    x, y, z = cq, cp + a * cq, cr + b * cq
    fails = np.count_nonzero((x != p) | (y != r) | (z != q) | (~end & (cflag != (a == b))))
    lane = (flag == 0) & (q >= 2)
    werr = float(np.abs(wsum[0, k[lane]] - 3.0 * np.log(q[lane])).max(initial=0.0))
    top = max(x.max(initial=0), y.max(initial=0), z.max(initial=0))
    return int(np.count_nonzero(lane)), int(fails), werr, int(top)


def jp_verify(bound: int, workers: int = 1) -> VerifyReport:
    """Exact round-trip and weight-telescoping check over all expandable
    coprime (p, r, q) with 2 <= q <= bound.

    The weight DP over the choice table holds the weight sum
    W(flag, p, r, q) of every state and after-diagonal flag (_weight_states,
    _jp_choice_layers), checking as it goes that every choice takes an
    admissible digit, and every (flag, state) with a finite weight is
    checked against the child it read (_jp_check).
    By induction on q this proves every expandable point: the composed
    inverse branches M(p, r, q) = B(a, b) M(child) of its canonical
    expansion give back (p, r, q) = B(a, b) (p', r', q') from the child's
    round trip and the base, the origin (0, 0, 1), and W(flag, p, r, q) =
    3 (log q - log p) + W(a == b, child) telescopes to 3 log q.  A state of
    the row p = q reads one of rows p < q of its own layer, filled first.
    checked counts the lanes, roundtrip_failures the (flag, state) pairs
    whose step check fails, and max_matrix_entry is the largest entry of
    the checked products.

    The choice table and the weights take 18 bytes per state, and the
    weights 16 more for the origin and the slot that is never filled:
    6 * bound * (bound + 1) * (bound + 2) + 16 bytes in all, 164 MB at
    q <= 300.
    """
    starts = _layer_starts(_JP_START, bound, 18, f"the JP verify sweep at q <= {bound}", 16)
    choice = _jp_choice_table(max(bound, 1))
    wsum = _weight_states(functools.partial(_jp_choice_layers, choice), 2 + choice.size, max(bound, 1), 3)
    wsum = wsum[2:].reshape(choice.shape)  # [flag, state], without the origin and the unfilled slot
    return _merge_reports([_jp_check(b, choice, wsum, starts) for b in _blocks(1, bound, 2 * np.diff(starts))])
