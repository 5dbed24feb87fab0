import functools
import hashlib
import math
import re
from collections import Counter

import numpy as np
import pytest

from cfstats import bulk, orbits
from cfstats.maps import BRUN2, GAUSS, JP2
from cfstats.orbits import (
    BudgetError,
    NotExpandableError,
    brun_gcd_digits,
    brun_trajectory_digits,
    enumerate_trajectories,
    euclid_digits,
    jp_digits,
)
from cfstats.stats import EnsembleTable


def tables_equal(a, b):
    return (
        np.array_equal(a.qs, b.qs)
        and np.array_equal(a.counts, b.counts)
        and np.array_equal(a.mult, b.mult)
    )


def table_digest(t):
    """SHA-256 of a table's header and int64 arrays (perfbench's table digest recipe)."""
    h = hashlib.sha256(repr((t.algorithm, t.multiplier, t.targets, t.denominator_bound)).encode())
    for arr in (t.qs, t.counts, t.mult):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


SWEEPS = {
    "gauss": lambda: bulk.gauss_ensemble_table(100, targets=(1,)),
    "gauss_verify": lambda: bulk.gauss_verify(100),
    "jp_table": lambda: bulk.jp_ensemble_table(30, targets=((1, 2), (0, 1))),
    "jp_verify": lambda: bulk.jp_verify(30),
    "brun_table": lambda: bulk.brun2_ensemble_table(30, targets=(1, 2)),
    "brun_verify": lambda: bulk.brun2_verify(30),
}


# the verify sweep of each algorithm of THREE_TARGETS
VERIFY_SWEEPS = {"gauss": bulk.gauss_verify, "brun": bulk.brun2_verify, "jp": bulk.jp_verify}


# algorithm, bound, three targets, bulk sweep
THREE_TARGETS = {
    "gauss": (GAUSS, 60, (1, 2, 3), bulk.gauss_ensemble_table),
    "brun": (BRUN2, 30, (1, 2, 3), bulk.brun2_ensemble_table),
    "jp": (JP2, 20, ((1, 2), (0, 1), (1, 1)), bulk.jp_ensemble_table),
}


class TestTableAgreement:
    def test_gauss_matches_record_path(self):
        t1 = bulk.gauss_ensemble_table(60, targets=(1, 2))
        t2 = EnsembleTable.from_records(
            enumerate_trajectories(GAUSS, denominator_cap=60), (1, 2), "gauss"
        )
        assert tables_equal(t1, t2)

    def test_brun_matches_record_path(self):
        t1 = bulk.brun2_ensemble_table(18, targets=(1,))
        t2 = EnsembleTable.from_records(
            enumerate_trajectories(BRUN2, denominator_cap=18), (1,), "brun"
        )
        assert tables_equal(t1, t2)

    def test_brun_default_targets(self):
        t = bulk.brun2_ensemble_table(20)
        assert t.targets == (1,)
        assert table_digest(t) == table_digest(bulk.brun2_ensemble_table(20, targets=(1,)))

    def test_jp_matches_record_path(self):
        t1 = bulk.jp_ensemble_table(22, targets=((1, 2), (0, 1)))
        t2 = EnsembleTable.from_records(
            enumerate_trajectories(JP2, denominator_cap=22), ((1, 2), (0, 1)), "jp"
        )
        assert tables_equal(t1, t2)

    @pytest.mark.parametrize("name", sorted(THREE_TARGETS))
    def test_empty_bound_matches_record_path(self, name):
        # the largest bound with no point: q <= 1 for gauss and jp, t1 <= 0 for brun
        desc, _, targets, sweep = THREE_TARGETS[name]
        bound = 0 if name == "brun" else 1
        with pytest.raises(ValueError, match="empty ensemble"):
            EnsembleTable.from_records(enumerate_trajectories(desc, denominator_cap=bound), targets, name)
        with pytest.raises(ValueError, match="empty ensemble"):
            sweep(bound, targets)
        assert sweep(bound + 1, targets).size > 0

    @pytest.mark.parametrize("name", sorted(THREE_TARGETS))
    def test_three_targets_match_record_path(self, name, monkeypatch):
        desc, bound, targets, sweep = THREE_TARGETS[name]
        monkeypatch.setattr(bulk, "_LANE_BUDGET", 500)  # several blocks, each with its own key spans
        records = EnsembleTable.from_records(enumerate_trajectories(desc, denominator_cap=bound), targets)
        assert tables_equal(sweep(bound, targets), records)

    # with no target the DP keeps one row that no digit hits, whose sign
    # still drops the points with gcd > 1
    @pytest.mark.parametrize("name", sorted(THREE_TARGETS))
    def test_no_targets_match_record_path(self, name):
        desc, bound, _, sweep = THREE_TARGETS[name]
        records = EnsembleTable.from_records(enumerate_trajectories(desc, denominator_cap=bound), ())
        table = sweep(bound, ())
        assert table.counts.shape == (len(table.qs), 0)
        assert tables_equal(table, records)

    # table_digest of the Brun and JP tables as computed by the earlier
    # per-lane walks
    @pytest.mark.parametrize("sweep, bound, targets, pin", [
        (bulk.brun2_ensemble_table, 150, (1, 2), "4ef695d18b9ed5e9bb3b8a7c2d100e51fabfc118cf3fdb39881eab8f5f83a986"),
        (bulk.jp_ensemble_table, 80, ((1, 2),), "a1281f72c6fbfbabafa3036bf34ac0aca9a624cc75cfad909c55fe3c6b23b716"),
    ])
    def test_multidim_table_bytes_pinned(self, sweep, bound, targets, pin):
        assert table_digest(sweep(bound, targets)) == pin

    # every digit a target: in each state the rows are negative together,
    # or they sum to the length of the state's expansion by the record
    # path, which must stay below 127, where the int8 counts would wrap
    @pytest.mark.parametrize("name", ["gauss", "brun", "jp"])
    @pytest.mark.parametrize("bound", [2, 3, 8, 21])
    def test_longest_expansion_below_radix(self, name, bound):
        layers, size, _, _ = dp_inputs(name, bound)
        if name == "jp":
            targets = tuple((a, b) for b in range(1, bound + 1) for a in range(b + 1))
            state = bulk._count_states(layers, size, bound, targets)[:, 2:]  # without the origin and unfilled slot
        else:
            targets = tuple(range(1, bound + 1))
            state = bulk._count_states(layers, size, bound, targets)
        state = state.astype(np.int64)
        expandable = state[0] >= 0
        assert np.all((state >= 0) == expandable)
        lengths = np.array([-1 if n is None else n for n in expansion_lengths(name, bound)])
        assert np.array_equal(expandable, lengths >= 0)
        assert np.array_equal(state[:, expandable].sum(axis=0), lengths[expandable])
        assert expandable.any() and lengths.max() < 127

    @pytest.mark.parametrize("steps", [126, 127])
    def test_count_of_127_raises(self, steps):
        # a chain of states k = 1..steps, each stepping to k - 1 by the digit 1
        def layers(bound, fill):
            for k in range(1, bound + 1):
                fill(np.array([k]), np.array([1]), np.array([k - 1]))

        if steps == 127:
            with pytest.raises(RuntimeError, match="127"):
                bulk._count_states(layers, steps + 1, steps, (1, 2))
        else:
            state = bulk._count_states(layers, steps + 1, steps, (1, 2))
            assert np.array_equal(state[:, -1], [126, 0])

    def test_rank_fallback_matches_counter(self, monkeypatch):
        # ten rows spanning -1..126 each need a key of more than 2^70
        rng = np.random.default_rng(5)
        starts = np.array([0, 0, 0, 900, 2000, 3000])  # layers q = 2, 3, 4
        state = rng.integers(0, 2, (10, 3000)).astype(np.int8)
        neg = rng.random(3000) < 0.2
        neg[7] = False
        state[:, 7] = 126
        state[:, neg] = rng.integers(-128, 0, (10, np.count_nonzero(neg)))
        unique, ranked = np.unique, []

        def recorded_unique(*args, **kwargs):
            ranked.append(kwargs.get("return_inverse", False))
            return unique(*args, **kwargs)

        monkeypatch.setattr(bulk.np, "unique", recorded_unique)
        qs, counts, mult = bulk._table_rows((2, 4), state, starts, None)
        assert any(ranked)
        want = Counter(
            (q, *state[:, k].tolist()) for q in (2, 3, 4) for k in range(starts[q], starts[q + 1]) if not neg[k]
        )
        got = {(q, *c): m for q, c, m in zip(qs.tolist(), counts.tolist(), mult.tolist())}
        assert got == want
        assert [(q, *c) for q, c in zip(qs.tolist(), counts.tolist())] == sorted(want)
        assert qs.dtype == counts.dtype == mult.dtype == np.int64

    @pytest.mark.parametrize("name", sorted(THREE_TARGETS))
    @pytest.mark.parametrize("ntargets", [1, 3])
    def test_memory_budget_is_the_allocation(self, name, ntargets, monkeypatch):
        _, bound, targets, sweep = THREE_TARGETS[name]
        requested, allocated = [], []
        require = bulk._require_memory
        monkeypatch.setattr(bulk, "_require_memory", lambda need, what: requested.append(need) or require(need, what))
        for dp in ("_count_states", "_weight_states", "_jp_choice_table"):
            def recorded(*args, real=getattr(bulk, dp)):
                out = real(*args)
                allocated.append(out.nbytes)
                return out

            monkeypatch.setattr(bulk, dp, recorded)
        sweep(bound, targets[:ntargets])
        assert requested == [sum(allocated)]
        requested.clear()
        allocated.clear()
        VERIFY_SWEEPS[name](bound)
        assert requested == [sum(allocated)]

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_block_split_does_not_change_output(self, sweep, monkeypatch):
        splits, built = [], []
        blocks, choice_table = bulk._blocks, bulk._jp_choice_table

        def recorded_blocks(*args):
            splits.append(blocks(*args))
            return splits[-1]

        monkeypatch.setattr(bulk, "_blocks", recorded_blocks)
        monkeypatch.setattr(bulk, "_jp_choice_table", lambda bound: built.append(bound) or choice_table(bound))
        whole = SWEEPS[sweep]()
        monkeypatch.setattr(bulk, "_LANE_BUDGET", 2000)  # several blocks per sweep
        split = SWEEPS[sweep]()
        assert whole == split if sweep.endswith("verify") else tables_equal(whole, split)
        assert len(splits) == 2 and len(splits[1]) > 2
        # the JP choice table is built once per sweep, not once per block
        assert len(built) == (2 if sweep.startswith("jp") else 0)

    # the blocks of all six sweeps at the perfbench bounds (Gauss table 3000,
    # verify 1500, Brun 150, JP 80) and the acceptance bounds (Gauss table
    # 20000, verify 5000, Brun verify 300, JP table 500, verify 300): the
    # number of ranges and the SHA-256 of their list, which fix the sizes of
    # the block temporaries; the DPs are stubbed by zeros that no one reads
    @pytest.mark.parametrize("sweep, bound, nblocks, pin", [
        ("gauss_ensemble_table", 1500, 34, "fcfe3673fe2c173d48ebd1c82fa730e022277ad9a23e039c5b62d288051d60af"),
        ("gauss_ensemble_table", 3000, 134, "42e870832f377b30404ccdd482a8f24b57378e67177064b61f303fe3f6337662"),
        ("gauss_ensemble_table", 5000, 364, "3d93f7879226777743925db813264fffadcacbc313bdf4f56d14dfc25aa2bf00"),
        ("gauss_ensemble_table", 20000, 5251, "0bab83421adf942d0394ad4698e1fe3fc992d538bdff8f225b57e03e8b66e07d"),
        ("gauss_verify", 1500, 34, "fcfe3673fe2c173d48ebd1c82fa730e022277ad9a23e039c5b62d288051d60af"),
        ("gauss_verify", 3000, 134, "42e870832f377b30404ccdd482a8f24b57378e67177064b61f303fe3f6337662"),
        ("gauss_verify", 5000, 364, "3d93f7879226777743925db813264fffadcacbc313bdf4f56d14dfc25aa2bf00"),
        ("gauss_verify", 20000, 5251, "0bab83421adf942d0394ad4698e1fe3fc992d538bdff8f225b57e03e8b66e07d"),
        ("brun2_ensemble_table", 150, 16, "0c8474d08e851c899cc81f41c3819144718020ede9436137f416054f3613c88b"),
        ("brun2_ensemble_table", 300, 109, "fa0ea3a8bb98ee50f71de66a22677af8c6c7c015940475fe9ffded1afb7ee123"),
        ("brun2_verify", 150, 16, "0c8474d08e851c899cc81f41c3819144718020ede9436137f416054f3613c88b"),
        ("brun2_verify", 300, 109, "fa0ea3a8bb98ee50f71de66a22677af8c6c7c015940475fe9ffded1afb7ee123"),
        ("jp_ensemble_table", 80, 5, "9ade9088146eab471c8dc6575233c7a40a4ac4c1528d43424b1a3ce01288f5ec"),
        ("jp_ensemble_table", 300, 164, "8fd3cbbc89878a29ae98acc393bc08ca86b2e552a8981615216b58f85603dbca"),
        ("jp_ensemble_table", 500, 364, "203b4fdc02acf2f46099291a7f9b8b2746cd982e63490647ed6ca6c4d4d2cf8e"),
        ("jp_verify", 80, 10, "89c07dea16d3adff0d82742f850a9ec09e1a72b0e09b0ac7e0577f49bb0b612b"),
        ("jp_verify", 300, 204, "21390ca3465ec2d16ced7cee844c3aef3906b7410dd55df914a8f52876b4df77"),
        ("jp_verify", 500, 404, "4c67c862c84ad37e6cafd3201af1f0c20a341b3eb5bc93567e89ff4cf373d990"),
    ])
    def test_block_splits_pinned(self, sweep, bound, nblocks, pin, monkeypatch):
        class Stop(Exception):
            pass

        splits, blocks = [], bulk._blocks

        def recorded_blocks(*args):
            splits.append([(int(lo), int(hi)) for lo, hi in blocks(*args)])
            raise Stop

        monkeypatch.setattr(bulk, "_blocks", recorded_blocks)
        monkeypatch.setattr(bulk, "_require_memory", lambda need, what: None)
        monkeypatch.setattr(bulk, "_count_states", lambda layers, size, bnd, rows: np.zeros((len(rows), size), np.int8))
        monkeypatch.setattr(bulk, "_weight_states", lambda layers, size, bnd, mult: np.zeros(size))
        monkeypatch.setattr(bulk, "_jp_choice_table", lambda bnd: np.zeros((2, bulk._jp_index(1, 0, bnd + 1)), np.int8))
        with pytest.raises(Stop):
            getattr(bulk, sweep)(bound)
        (split,) = splits
        assert (len(split), hashlib.sha256(repr(split).encode()).hexdigest()) == (nblocks, pin)


def euclid_verify(bound):
    """(checked, failures, max weight error, max matrix entry) of the Gauss
    verify sweep, composing B(j) = [[0, 1], [1, j]] along the Euclid digits
    of every coprime p/q and summing the forward log-Jacobians first to last."""
    checked = failures = top = 0
    werr = 0.0
    for q in range(2, bound + 1):
        for p in range(1, q):
            if math.gcd(p, q) > 1:
                continue
            m = [[1, 0], [0, 1]]
            w, a, b = 0.0, p, q
            for d in euclid_digits(p, q):
                m = [[row[1], row[0] + d.j * row[1]] for row in m]  # m @ B(j)
                w += 2.0 * (math.log(b) - math.log(a))
                a, b = b % a, a
            checked += 1
            failures += (m[0][1], m[1][1]) != (p, q)
            werr = max(werr, abs(w - 2.0 * math.log(q)))
            top = max(top, *m[0], *m[1])
    return checked, failures, werr, top


def matmul3(m, b):
    return [[sum(m[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def composition_report(points, multiplier):
    """(checked, failures, max weight error, max matrix entry) over `points`,
    each a (point, [(B, q, q') per step]) with the step's branch matrix B
    and the denominators before and after it: composes M = B_1 B_2 ...,
    compares its last column with the point, and sums the forward
    log-Jacobians multiplier * (log q - log q') first to last."""
    checked = failures = top = 0
    werr = 0.0
    for point, steps in points:
        m = [[int(i == j) for j in range(3)] for i in range(3)]
        w = 0.0
        for b, q, qc in steps:
            m = matmul3(m, b)
            w += multiplier * (math.log(q) - math.log(qc))
        checked += 1
        failures += [row[2] for row in m] != list(point)
        werr = max(werr, abs(w - multiplier * math.log(point[-1])))
        top = max(top, *(x for row in m for x in row))
    return checked, failures, werr, top


def brun_points(bound):
    """Every coprime descending triple (t1, t2, t3), t1 <= bound, as the point
    (t2, t3, t1) with the steps of orbits.brun_trajectory_digits, where
    B(1, j) (x, y, z) = (z, x, y + j z) and B(2, j) (x, y, z) = (y, z, x + j z)."""
    for t1 in range(1, bound + 1):
        for t2 in range(1, t1 + 1):
            for t3 in range(1, t2 + 1):
                if math.gcd(t1, t2, t3) > 1:
                    continue
                steps, q, u = [], t1, [t2, t3]
                for d in brun_trajectory_digits((t1, t2, t3)):
                    b = [[0, 0, 1], [1, 0, 0], [0, 1, d.j]] if d.i == 1 else [[0, 1, 0], [0, 0, 1], [1, 0, d.j]]
                    um = u[d.i - 1]
                    steps.append((b, q, um))
                    q, u = um, u[d.i :] + [q - d.j * um] + u[: d.i - 1]
                yield (t2, t3, t1), steps


def jp_points(bound):
    """Every expandable coprime (p, r, q), 2 <= q <= bound, with the steps of
    orbits.jp_digits, where B(a, b) (x, y, z) = (z, x + a z, y + b z)."""
    for q in range(2, bound + 1):
        for p in range(1, q + 1):
            for r in range(q + 1):
                if math.gcd(p, r, q) > 1:
                    continue
                try:
                    digits = jp_digits(p, r, q)
                except NotExpandableError:
                    continue
                steps, (x, y, z) = [], (p, r, q)
                for d in digits:
                    steps.append(([[0, 0, 1], [1, 0, d.a], [0, 1, d.b]], z, x))
                    x, y, z = y - d.a * x, z - d.b * x, x
                yield (p, r, q), steps


def dp_inputs(name, bound):
    """(layers, size, multiplier, denominators) of the DPs of an algorithm
    with denominators up to bound: the layer loop and the number of states
    that _count_states and _weight_states take, the weight multiplier
    m + 1, and the denominator of the state at each position, 1 at the JP
    origin and at its unfilled slot.  The denominators repeat each layer
    q = 1..bound as often as it has states, by the index functions alone."""
    layers = np.arange(1, bound + 2)
    if name == "gauss":
        q = np.repeat(layers[:-1], np.diff(bulk._gauss_index(0, layers)))
        return bulk._gauss_layers, len(q), 2, q
    if name == "brun":
        q = np.repeat(layers[:-1], np.diff(bulk._brun2_index(layers, 0, 0)))
        return bulk._brun2_layers, len(q), 3, q
    choice = bulk._jp_choice_table(bound)
    q = np.repeat(layers[:-1], np.diff(bulk._jp_index(1, 0, layers)))
    return functools.partial(bulk._jp_choice_layers, choice), 2 + choice.size, 3, np.concatenate([[1, 1], q, q])


def expansion_lengths(name, bound):
    """The length of the expansion of every state of a count DP with
    denominators up to bound, in the DP's order, by the record path; None
    where the gcd exceeds 1 or there is no expansion.  A JP state comes
    once per after-diagonal flag: flag 0 is orbits.jp_digits, and flag 1
    is the same search with a = 0 barred from the first digit."""
    if name == "gauss":
        for p in range(1, bound + 1):
            for r in range(p):
                if (r, p) == (0, 1):
                    yield 0
                else:
                    yield len(euclid_digits(r, p)) if r and math.gcd(r, p) == 1 else None
    elif name == "brun":
        for q in range(1, bound + 1):
            for u1 in range(q + 1):
                for u2 in range(u1 + 1):
                    yield len(brun_gcd_digits((q, u1, u2))[0]) if math.gcd(q, u1, u2) == 1 else None
    else:
        for flag in (0, 1):
            for q in range(1, bound + 1):
                for p in range(1, q + 1):
                    for r in range(q + 1):
                        yield jp_length(p, r, q, flag) if math.gcd(p, r, q) == 1 else None


@functools.lru_cache(maxsize=None)
def jp_length(p, r, q, after_diag):
    """Length of the canonical JP expansion of the coprime (p, r, q) after a
    digit that was diagonal where after_diag is set, None if there is none."""
    if not after_diag:
        try:
            return len(jp_digits(p, r, q))
        except NotExpandableError:
            return None
    for a, b in orbits._jp_children(p, r, q):
        np_, nr = r - a * p, q - b * p
        if a == 0 or (np_ == 0 and (nr != 0 or b < 2)):
            continue
        rest = 0 if np_ == 0 else jp_length(np_, nr, p, a == b)
        if rest is not None:
            return 1 + rest
    return None


class TestVerifySweeps:
    def test_ok_needs_matrix_entries_below_2_62(self):
        # the largest checked matrix entry must stay below 2^62, the edge included
        assert not bulk.VerifyReport(1, 0, 0.0, 2**62).ok
        assert bulk.VerifyReport(1, 0, 0.0, 2**62 - 1).ok

    def test_gauss(self):
        rep = bulk.gauss_verify(400)
        assert rep.checked == bulk.totient_sum(400)
        assert rep.roundtrip_failures == 0
        assert rep.max_weight_error < 1e-9
        assert rep.ok

    def test_brun(self):
        rep = bulk.brun2_verify(40)
        assert rep.roundtrip_failures == 0
        assert rep.max_weight_error < 1e-9

    def test_jp(self):
        rep = bulk.jp_verify(40)
        assert rep.roundtrip_failures == 0
        assert rep.max_weight_error < 1e-9

    def test_gauss_matches_pure_python_composition(self):
        rep = bulk.gauss_verify(200)
        checked, failures, werr, top = euclid_verify(200)
        assert (rep.checked, rep.roundtrip_failures, rep.max_matrix_entry) == (checked, failures, top)
        assert failures == 0 and werr < 1e-12 and rep.max_weight_error < 1e-12

    @pytest.mark.parametrize("sweep, points, bound", [
        (bulk.brun2_verify, brun_points, 40),
        (bulk.jp_verify, jp_points, 30),
    ])
    def test_matches_pure_python_composition(self, sweep, points, bound):
        rep = sweep(bound)
        checked, failures, werr, top = composition_report(points(bound), 3)
        assert (rep.checked, rep.roundtrip_failures, rep.max_matrix_entry) == (checked, failures, top)
        assert failures == 0 and werr < 1e-12 and rep.max_weight_error < 1e-12

    # the largest bound with no point: q <= 1 for gauss and jp, t1 <= 0 for brun
    @pytest.mark.parametrize("sweep, bound", [(bulk.gauss_verify, 1), (bulk.jp_verify, 1), (bulk.brun2_verify, 0)])
    def test_empty_ensemble(self, sweep, bound):
        for empty in (bound - 1, bound):
            with pytest.raises(ValueError, match="empty ensemble"):
                sweep(empty)
        assert sweep(bound + 1).checked > 0

    # every state, JP flag 1 included: a weight is
    # finite exactly where the count DP finds an expansion, and there it
    # telescopes to (m + 1) log q
    @pytest.mark.parametrize("name", ["gauss", "brun", "jp"])
    @pytest.mark.parametrize("bound", [3, 30])
    def test_weights_telescope_where_counts_exist(self, name, bound):
        layers, size, multiplier, q = dp_inputs(name, bound)
        counts = bulk._count_states(layers, size, bound, [(1, 2) if name == "jp" else 1])[0]
        weights = bulk._weight_states(layers, size, bound, multiplier)
        expandable = counts >= 0
        assert np.array_equal(np.isfinite(weights), expandable)
        assert np.abs(weights[expandable] - multiplier * np.log(q[expandable])).max() <= 1e-12

    # every field of the verify reports as computed by the earlier weight
    # DP of each map, the weight error to the last bit
    @pytest.mark.parametrize("sweep, bound, pin", [
        (bulk.gauss_verify, 1500, (684181, 0, "0x1.0000000000000p-49", 1500)),
        (bulk.brun2_verify, 150, (474981, 0, "0x1.8000000000000p-48", 150)),
        (bulk.jp_verify, 80, (122872, 0, "0x1.8000000000000p-48", 80)),
    ])
    def test_reports_pinned(self, sweep, bound, pin):
        rep = sweep(bound)
        assert (rep.checked, rep.roundtrip_failures, rep.max_weight_error.hex(), rep.max_matrix_entry) == pin

    def test_jp_expandable_count_matches_record_path(self):
        n_records = sum(1 for _ in enumerate_trajectories(JP2, denominator_cap=30))
        assert bulk.jp_ensemble_table(30).size == n_records


def brun_walk(q, u1, u2):
    """The Brun map from (q; u1, u2), in any order of the numerators: divide q
    by the first largest numerator um, take the digit j = q // um, and move
    on to the cyclic reorder of the rest and q - j um.  Returns the digits j,
    the steps (q, um), and the last denominator, 1 exactly where the state
    is coprime."""
    js, steps, u = [], [], [u1, u2]
    while any(u):
        i = u.index(max(u))
        j = q // u[i]
        js.append(j)
        steps.append((q, u[i]))
        q, u = u[i], u[i + 1 :] + [q - j * u[i]] + u[:i]
    return js, steps, q


class TestBrunSymmetry:
    # every (q; u1, u2) in [0, q]^2: the walks from (u1, u2) and from
    # (u2, u1) agree, and the sorted DPs hold their counts and weights, the
    # weights to the last bit
    def test_sorted_dps_match_walks_from_both_orders(self):
        bound, targets = 30, (1, 2, 3, 5)
        layers, size, multiplier, _ = dp_inputs("brun", bound)
        counts = bulk._count_states(layers, size, bound, targets)
        weights = bulk._weight_states(layers, size, bound, multiplier)
        logs = np.zeros(bound + 1)
        logs[1:] = np.log(np.arange(1, bound + 1))  # as _weight_states
        for q in range(1, bound + 1):
            for u1 in range(q + 1):
                for u2 in range(q + 1):
                    js, steps, end = brun_walk(q, u1, u2)
                    assert brun_walk(q, u2, u1) == (js, steps, end)
                    assert (end == 1) == (math.gcd(q, u1, u2) == 1)
                    k = bulk._brun2_index(q, max(u1, u2), min(u1, u2))
                    if end > 1:
                        assert np.all(counts[:, k] < 0) and np.isnan(weights[k])
                        continue
                    tally = Counter(js)
                    assert counts[:, k].tolist() == [tally[t] for t in targets]
                    w = 0.0
                    for a, b in reversed(steps):
                        w = (logs[a] - logs[b]) * multiplier + w
                    assert weights[k] == w


class TestStateDecoding:
    # the 50 positions on either side of every layer boundary, where a
    # decode that takes a wrong side of a start is off by one layer, decode
    # to the state at that position; the decoders take the last coordinate
    # from the offset, so it is the ranges that pin the layer.  Each decodes
    # against the starts of all layers 0..10^6 + 1 from the index functions,
    # and the Gauss and JP ones begin with the empty layers 0 and 1
    @pytest.mark.parametrize("name", ["brun", "gauss", "jp"])
    def test_layer_ends_decode_exactly(self, name):
        layers = np.concatenate([np.arange(1, 10_001), np.arange(10**6 - 100, 10**6)])
        every = np.arange(10**6 + 2)
        if name == "brun":
            starts = bulk._brun2_index(layers, 0, 0)
        elif name == "gauss":
            starts = bulk._gauss_index(0, layers)
        else:
            starts = bulk._jp_index(1, 0, layers)
        k = (starts[:, None] + np.arange(-50, 50)).ravel()
        k = k[k >= 0]
        if name == "brun":
            q, u1, u2 = bulk._brun2_state(k, bulk._brun2_index(every, 0, 0), bulk._gauss_index(0, every + 1))
            assert np.array_equal(bulk._brun2_index(q, u1, u2), k)
            assert np.all((q >= u1) & (u1 >= u2) & (u2 >= 0))
        elif name == "gauss":
            p, r = bulk._decode(bulk._gauss_index(0, every), k)
            assert np.array_equal(bulk._gauss_index(r, p), k)
            assert np.all((p >= 1) & (r >= 0) & (r < p))
        else:
            p, r, q = bulk._jp_state(k, bulk._jp_index(1, 0, every))
            assert np.array_equal(bulk._jp_index(p, r, q), k)
            assert np.all((p >= 1) & (p <= q) & (r >= 0) & (r <= q))


class TestJPChoiceTable:
    def test_replay_reproduces_reference_strings(self):
        # follow the stored choices from every coprime state in pure Python
        bound = 24
        choice = bulk._jp_choice_table(bound)
        for q in range(2, bound + 1):
            for p in range(1, q + 1):
                for r in range(q + 1):
                    if math.gcd(p, r, q) > 1:
                        continue
                    try:
                        ref = [d.label for d in jp_digits(p, r, q)]
                    except NotExpandableError:
                        ref = None
                    state, flag, got = (p, r, q), 0, []
                    while state[0]:
                        k = int(choice[flag, bulk._jp_index(*state)])
                        if k < 0:
                            assert state == (p, r, q)  # only the first state may lack an expansion
                            got = None
                            break
                        a, b, np_, nr = (int(x) for x in bulk._jp_step(k, *state))
                        got.append((a, b))
                        state, flag = (np_, nr, state[0]), int(a == b)
                    assert got == ref
                    assert got is None or state == (0, 0, 1)

    # SHA-256 of the choice table, both flags: the replay test above follows
    # flag 0 only, and flag 1 is otherwise checked only through the DPs' outputs
    @pytest.mark.parametrize("bound, pin", [
        (12, "b2ab6b4c92dee72ffea2decdd4b215ce86d8d161d87b1afd886180e59e11b797"),
        (80, "71e45193f136db50a390ae2300d8165e5f9ace2c7e781f606f4e9e3e2355875c"),
        (150, "87b1166253eb8a4796eca873577742f5652f11486628dbf3d74950e6f6965d02"),
    ])
    def test_choice_table_bytes_pinned(self, bound, pin):
        choice = bulk._jp_choice_table(bound)
        assert choice.shape == (2, bulk._jp_index(1, 0, bound + 1))
        assert hashlib.sha256(choice.tobytes()).hexdigest() == pin

    # one case per check of the replay, each corrupting one choice:
    # (2, 1, 5) expands as (0, 2) then (1, 2) from (1, 1, 2), so dropping
    # the choice at (1, 1, 2) strands (2, 1, 3) mid-path; choice 2 at
    # (2, 1, 5) asks for the digit a = -1; after a diagonal digit, (1, 0, 2)
    # has no choice, and its floor digit (0, 2) would take a = 0; the floor
    # digit (1, 1) of (2, 2, 2) ends at the origin with b = 1
    @pytest.mark.parametrize("flag, state, value, message", [
        pytest.param(0, (1, 1, 2), -1, "no admissible choice at state (2, 1, 3)", id="stranded"),
        pytest.param(0, (2, 1, 5), 2, "a choice that is no child at state (2, 1, 5)", id="no-child"),
        pytest.param(1, (1, 0, 2), 0, "a = 0 right after a diagonal digit at state (1, 0, 2)", id="a0-after-diagonal"),
        pytest.param(0, (2, 2, 2), 0, "an end off the origin or with b < 2 at state (2, 2, 2)", id="end-b1"),
    ])
    def test_corrupted_choice_fails_verify(self, monkeypatch, flag, state, value, message):
        real = bulk._jp_choice_table

        def corrupted(bound):
            choice = real(bound)
            assert choice[flag, bulk._jp_index(*state)] != value
            choice[flag, bulk._jp_index(*state)] = value
            return choice

        monkeypatch.setattr(bulk, "_jp_choice_table", corrupted)
        for sweep in (bulk.jp_verify, bulk.jp_ensemble_table):
            with pytest.raises(RuntimeError, match=re.escape("JP replay: " + message)):
                sweep(12)


def euclid_table(bound, targets):
    """(qs, counts, mult) of the Gauss table, by Euclid's algorithm on every p/q."""
    rows = Counter()
    for q in range(2, bound + 1):
        for p in range(1, q):
            if math.gcd(p, q) > 1:
                continue
            digits = []
            a, b = p, q
            while a:
                digits.append(b // a)
                a, b = b % a, a
            rows[(q, *(digits.count(t) for t in targets))] += 1
    keys = sorted(rows)
    return (
        np.array([k[0] for k in keys], np.int64),
        np.array([k[1:] for k in keys], np.int64).reshape(len(keys), len(targets)),
        np.array([rows[k] for k in keys], np.int64),
    )


class TestGaussDP:
    # (7, 1, 2, 3, 5) is unsorted
    @pytest.mark.parametrize("bound", [2, 3, 60, 400])
    @pytest.mark.parametrize("targets", [(1,), (7, 1, 2, 3, 5), "beyond"])
    def test_matches_pure_python_euclid(self, bound, targets):
        targets = (1, bound + 5) if targets == "beyond" else targets
        table = bulk.gauss_ensemble_table(bound, targets)
        for got, want in zip((table.qs, table.counts, table.mult), euclid_table(bound, targets)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    # many targets, most of them rare at q <= 400 or taken by no expansion
    @pytest.mark.parametrize("targets", [tuple(range(1, 21)), tuple(range(300, 330))])
    def test_many_targets_match_pure_python_euclid(self, targets):
        table = bulk.gauss_ensemble_table(400, targets)
        for got, want in zip((table.qs, table.counts, table.mult), euclid_table(400, targets)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_memory_limit_read_from_cgroups(self, tmp_path, monkeypatch):
        # v2: the tightest limit on the path wins, here the parent's;
        # v1: "memory" among the controllers
        (tmp_path / "a" / "b").mkdir(parents=True)
        (tmp_path / "memory.max").write_text("max\n")
        (tmp_path / "a" / "memory.max").write_text("500000\n")
        (tmp_path / "a" / "b" / "memory.max").write_text("700000\n")
        (tmp_path / "memory" / "c").mkdir(parents=True)
        (tmp_path / "memory" / "c" / "memory.limit_in_bytes").write_text("400000\n")
        proc = tmp_path / "cgroup"
        monkeypatch.setattr(bulk, "_CGROUP_ROOT", str(tmp_path))
        monkeypatch.setattr(bulk, "_PROC_CGROUP", str(proc))
        proc.write_text("0::/a/b\n")
        assert bulk._memory_bytes() == 500000
        proc.write_text("4:cpu,memory:/c\n3:pids:/a/b\n")
        assert bulk._memory_bytes() == 400000
        proc.write_text("0::/\n")
        assert bulk._memory_bytes() > 500000
        proc.write_text("0::/a/b\n")
        bulk.gauss_ensemble_table(400)  # 1 byte per state and target: 80,200
        with pytest.raises(BudgetError, match="cgroup limit"):
            bulk.gauss_ensemble_table(1000)  # 500,500 bytes
        bulk.gauss_verify(200)  # the verify DP takes 8 bytes per state: 160,800
        with pytest.raises(BudgetError, match="cgroup limit"):
            bulk.gauss_verify(400)  # 641,600 bytes
        bulk.brun2_verify(70)  # 8 bytes per sorted state: 497,560
        with pytest.raises(BudgetError, match="cgroup limit"):
            bulk.brun2_verify(71)  # 518,584 bytes
        bulk.jp_verify(40)  # 18 bytes per state, choices and weights, and 16 for two slots: 413,296
        with pytest.raises(BudgetError, match="cgroup limit"):
            bulk.jp_verify(50)  # 795,616 bytes
        bulk.brun2_ensemble_table(142)  # 1 byte per sorted state and target: 497,639
        with pytest.raises(BudgetError, match="cgroup limit"):
            bulk.brun2_ensemble_table(143)  # 508,079 bytes
        bulk.jp_ensemble_table(71)  # 2 bytes of choices and 2 per target per state, and 2 per target for two slots: 497,570
        with pytest.raises(BudgetError, match="cgroup limit"):
            bulk.jp_ensemble_table(72)  # 518,594 bytes

    def test_table_bytes_pinned(self):
        # SHA-256 of the q <= 3000, targets (1, 2) table as computed by the
        # earlier per-lane Euclid sweep (perfbench's table digest recipe)
        t = bulk.gauss_ensemble_table(3000, (1, 2))
        assert table_digest(t) == "4f13d1c4ae2edfd63c9df9b4c8edc8705e9240a73f21cce4707c8c422c154e3f"

    def test_oversized_bound_rejected_before_allocating(self, monkeypatch):
        # 5 * 10^13 bytes of states: rejected before the DP starts
        def no_states(*args):
            raise AssertionError("the DP was started")

        for dp in ("_count_states", "_weight_states", "_jp_choice_table"):
            monkeypatch.setattr(bulk, dp, no_states)
        with pytest.raises(BudgetError, match="physical memory"):
            bulk.gauss_ensemble_table(10**7)
        with pytest.raises(BudgetError, match="physical memory"):
            bulk.gauss_verify(10**7)  # 4 * 10^14 bytes of weights
        with pytest.raises(BudgetError, match="physical memory"):
            bulk.brun2_verify(10**7)  # 1.3 * 10^21 bytes of weights
        with pytest.raises(BudgetError, match="physical memory"):
            bulk.jp_verify(10**7)  # 6 * 10^21 bytes of choices and weights
        with pytest.raises(BudgetError, match="physical memory"):
            bulk.brun2_ensemble_table(10**7)  # 1.7 * 10^20 bytes of counts
        with pytest.raises(BudgetError, match="physical memory"):
            bulk.jp_ensemble_table(10**7)  # 1.3 * 10^21 bytes of choices and counts


class TestTotient:
    def test_against_gcd_loop(self):
        brute = sum(
            1 for q in range(2, 200) for p in range(1, q) if math.gcd(p, q) == 1
        )
        assert bulk.totient_sum(199) == brute

    def test_small_values(self):
        assert bulk.totient_sum(5) == 1 + 2 + 2 + 4
