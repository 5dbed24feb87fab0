import math
import pickle

import numpy as np
import pytest

from cfstats import bulk
from cfstats.maps import BRUN2, GAUSS, JP2
from cfstats.orbits import NotExpandableError, enumerate_trajectories, jp_digits
from cfstats.stats import EnsembleTable


def tables_equal(a, b):
    return (
        np.array_equal(a.qs, b.qs)
        and np.array_equal(a.counts, b.counts)
        and np.array_equal(a.mult, b.mult)
    )


SWEEPS = {
    "gauss": lambda workers: bulk.gauss_ensemble_table(80, targets=(1,), workers=workers),
    "jp_table": lambda workers: bulk.jp_ensemble_table(30, targets=((1, 2), (0, 1)), workers=workers),
    "jp_verify": lambda workers: bulk.jp_verify(30, workers=workers),
}


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

    def test_histogram_rejects_keys_beyond_int64(self):
        q = np.array([2, 3], np.int64)
        cnt = np.array([[0, 2**21], [0, 2**21], [0, 2**21]], np.int64)
        with pytest.raises(OverflowError):
            bulk._histogram(q, cnt)

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_worker_count_does_not_change_output(self, sweep, monkeypatch):
        monkeypatch.setattr(bulk, "_LANE_BUDGET", 2000)  # several blocks per sweep
        tasks, built = [], []
        run_blocks, choice_table = bulk._run_blocks, bulk._jp_choice_table
        monkeypatch.setattr(
            bulk, "_run_blocks", lambda fn, blocks, *rest: tasks.extend(blocks) or run_blocks(fn, blocks, *rest)
        )
        monkeypatch.setattr(bulk, "_jp_choice_table", lambda bound: built.append(bound) or choice_table(bound))
        one, two = SWEEPS[sweep](1), SWEEPS[sweep](2)
        assert one == two if sweep == "jp_verify" else tables_equal(one, two)
        assert len(tasks) > 2  # both runs had more than one block, so two workers ran
        # tasks are denominator blocks; the JP choice table is built once per sweep, not sent with them
        assert max(len(pickle.dumps(t)) for t in tasks) < 200
        assert len(built) == (2 if sweep.startswith("jp") else 0)


class TestVerifySweeps:
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

    def test_jp_expandable_count_matches_record_path(self):
        n_records = sum(1 for _ in enumerate_trajectories(JP2, denominator_cap=30))
        assert bulk.jp_ensemble_table(30).size == n_records


class TestJPChoiceTable:
    def test_replay_reproduces_reference_strings(self):
        bound = 24
        p, r, q = bulk._jp_lanes(2, bound)
        strings = [[] for _ in q]

        def record(lanes, a, b, *state):
            for i, ai, bi in zip(lanes, a, b):
                strings[i].append((int(ai), int(bi)))

        expandable = bulk._jp_replay(bulk._jp_choice_table(bound), p, r, q, record)
        for i in range(len(q)):
            try:
                ref = [d.label for d in jp_digits(int(p[i]), int(r[i]), int(q[i]))]
            except NotExpandableError:
                ref = None
            assert (strings[i] if expandable[i] else None) == ref

    # (2, 1, 5) expands as (0, 2) then (1, 2) from (1, 1, 2): dropping the
    # choice at (1, 1, 2) strands it mid-path, and choice 2 at (2, 1, 5)
    # asks for the digit a = -1
    @pytest.mark.parametrize("state, value", [((1, 1, 2), -1), ((2, 1, 5), 2)])
    def test_corrupted_choice_fails_verify(self, monkeypatch, state, value):
        real = bulk._jp_choice_table

        def corrupted(bound):
            choice = real(bound)
            choice[0, bulk._jp_index(*state)] = value
            return choice

        monkeypatch.setattr(bulk, "_jp_choice_table", corrupted)
        with pytest.raises(RuntimeError, match="JP replay"):
            bulk.jp_verify(12)


class TestTotient:
    def test_against_gcd_loop(self):
        brute = sum(
            1 for q in range(2, 200) for p in range(1, q) if math.gcd(p, q) == 1
        )
        assert bulk.totient_sum(199) == brute

    def test_small_values(self):
        assert bulk.totient_sum(5) == 1 + 2 + 2 + 4
