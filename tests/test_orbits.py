import hashlib
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfstats.maps import BRUN2, BRUN3, GAUSS, JP2, JPDigit, compose_string, max_denominator
from cfstats.orbits import (
    NotExpandableError,
    RationalPoint,
    brun_gcd_digits,
    brun_trajectory_digits,
    enumerate_trajectories,
    euclid_digits,
    jp_digits,
)


def jp_digits_floor_path(p: int, r: int, q: int):
    """Raw floor recursion digits; returns (digits, clean) without search."""
    digits = []
    while p:
        a, b = r // p, q // p  # a <= b since r <= q
        digits.append(JPDigit(a, b))
        p, r, q = r - a * p, q - b * p, p
        if p == 0 and r != 0:
            return digits, False
    return digits, True


def verify_roundtrip(map_desc, record) -> bool:
    """Exact check that the record's digits recompose to its point."""
    h = compose_string(map_desc, record.digits)
    image = h.apply_to_origin()
    return image == record.point.coords() and h.corner_denominator() == record.point.denominator


class TestEuclid:
    def test_examples(self):
        assert [d.j for d in euclid_digits(1, 2)] == [2]
        assert [d.j for d in euclid_digits(2, 5)] == [2, 2]
        assert [d.j for d in euclid_digits(1, 3)] == [3]

    def test_terminal_quotient_at_least_two(self):
        for q in range(2, 120):
            for p in range(1, q):
                if math.gcd(p, q) == 1:
                    assert euclid_digits(p, q)[-1].j >= 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            euclid_digits(2, 4)
        with pytest.raises(ValueError):
            euclid_digits(3, 2)

    @given(st.integers(min_value=2, max_value=4000), st.integers(min_value=1, max_value=3999))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, q, p):
        p = p % q
        if p == 0 or math.gcd(p, q) != 1:
            return
        h = compose_string(GAUSS, euclid_digits(p, q))
        assert h.apply_to_origin() == (Fraction(p, q),)


def brun_gcd_oracle(t):
    """Independent recursion: resort, divide, recurse."""
    t = sorted(t, reverse=True)
    if t[1] == 0:
        return [], t[0]
    a = t[0] // t[1]
    digits, g = brun_gcd_oracle([t[0] - a * t[1]] + t[1:])
    return [a] + digits, g


class TestBrunGcd:
    def test_examples(self):
        assert brun_gcd_digits((2, 1, 0)) == ([2], 1)
        assert brun_gcd_digits((2, 1, 1)) == ([2, 1], 1)
        assert brun_gcd_digits((5, 3, 2)) == ([1, 1, 1, 2], 1)

    def test_gcd_value(self):
        assert brun_gcd_digits((12, 8, 4))[1] == 4
        assert brun_gcd_digits((9, 6, 0))[1] == 3

    @given(st.tuples(*[st.integers(min_value=0, max_value=400)] * 3))
    @settings(max_examples=120, deadline=None)
    def test_against_recursive_oracle(self, t):
        if all(v == 0 for v in t):
            return
        digits, g = brun_gcd_digits(t)
        odigits, og = brun_gcd_oracle(list(t))
        assert digits == odigits and g == og
        assert g == math.gcd(*t)

    def test_trajectory_digits_match_gcd_labels(self):
        for t in ((5, 3, 2), (7, 4, 1), (9, 7, 2), (8, 5, 5), (6, 6, 1)):
            labels = [d.j for d in brun_trajectory_digits(t)]
            assert labels == brun_gcd_digits(t)[0]

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            brun_gcd_digits((0, 0, 0))

    @pytest.mark.parametrize("t, message", [
        ((5, 7, 2), "sorted descending"),
        ((7, 5, 0), "positive"),
        ((6, 4, 2), "not coprime"),
        ((1,), "2 entries"),
    ])
    def test_trajectory_digits_reject_bad_tuples(self, t, message):
        with pytest.raises(ValueError, match=message):
            brun_trajectory_digits(t)


class TestJPDigits:
    def test_examples(self):
        assert [(d.a, d.b) for d in jp_digits(1, 1, 2)] == [(1, 2)]
        assert [(d.a, d.b) for d in jp_digits(1, 2, 3)] == [(2, 3)]
        assert [(d.a, d.b) for d in jp_digits(1, 0, 2)] == [(0, 2)]

    def test_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            jp_digits(2, 2, 4)

    def test_boundary_point_with_backtracking(self):
        # (1/2, 1/3): the raw floor orbit stalls at (0, 1/2); the canonical
        # search deviates at the first step and still reaches the origin
        digits = jp_digits(3, 2, 6)
        assert [(d.a, d.b) for d in digits] == [(0, 1), (1, 1), (1, 2)]
        h = compose_string(JP2, digits)
        assert h.apply_to_origin() == (Fraction(1, 2), Fraction(1, 3))

    def test_corner_points_not_expandable(self):
        for p, r, q in ((1, 0, 1), (1, 1, 1), (2, 0, 3), (3, 3, 5)):
            with pytest.raises(NotExpandableError):
                jp_digits(p, r, q)

    def test_exhaustive_small_denominators(self):
        # every produced string is admissible, ends with b >= 2, and
        # recomposes exactly; clean floor orbits are always expandable
        checked = expandable = 0
        for q in range(2, 41):
            for p in range(1, q + 1):
                for r in range(0, q + 1):
                    if math.gcd(p, math.gcd(r, q)) != 1:
                        continue
                    checked += 1
                    _, clean = jp_digits_floor_path(p, r, q)
                    try:
                        ds = jp_digits(p, r, q)
                    except NotExpandableError:
                        assert not clean
                        continue
                    expandable += 1
                    assert ds[-1].b >= 2
                    for u, v in zip(ds, ds[1:]):
                        assert JP2.admissible(u, v)
                    h = compose_string(JP2, ds)
                    assert h.apply_to_origin() == (Fraction(p, q), Fraction(r, q))
        assert checked > 0 and expandable / checked > 0.7


class TestEnumeration:
    def test_gauss_count_totient(self):
        recs = list(enumerate_trajectories(GAUSS, denominator_cap=5))
        assert len(recs) == 9

    def test_gauss_unique_and_ordered(self):
        recs = list(enumerate_trajectories(GAUSS, denominator_cap=30))
        pts = [(r.point.denominator, r.point.numerators) for r in recs]
        assert pts == sorted(pts)
        assert len(set(pts)) == len(pts)
        brute = {
            (q, (p,))
            for q in range(2, 31)
            for p in range(1, q)
            if math.gcd(p, q) == 1
        }
        assert set(pts) == brute

    def test_jp_bound_two(self):
        recs = list(enumerate_trajectories(JP2, denominator_cap=2))
        pts = {(r.point.numerators, r.point.denominator) for r in recs}
        assert pts == {((1, 0), 2), ((1, 1), 2), ((1, 2), 2), ((2, 1), 2)}
        assert all(verify_roundtrip(JP2, r) for r in recs)

    def test_brun_against_brute_force(self):
        recs = list(enumerate_trajectories(BRUN2, denominator_cap=12))
        pts = {(r.point.denominator,) + r.point.numerators for r in recs}
        brute = set()
        for t1 in range(1, 13):
            for t2 in range(1, t1 + 1):
                for t3 in range(1, t2 + 1):
                    if math.gcd(t1, math.gcd(t2, t3)) == 1:
                        brute.add((t1, t2, t3))
        assert pts == brute

    # SHA-256 of every record's point, digits (i, j) and counts, in stream
    # order, as computed by the recursive tuple generator and
    # brun_trajectory_digits before the Brun record walk was fused
    @pytest.mark.parametrize("desc, cap, n, pin", [
        (BRUN2, 40, 9389, "2179c35042858c02a366e753017d47b2a336d4b9adc43819ade8550e6c1f2ce5"),
        (BRUN3, 16, 3462, "9857742ac5d837c463ec56036758fe99e0aa57567a0848769579f87d4fa02c00"),
    ], ids=["brun2", "brun3"])
    def test_brun_record_stream_pinned(self, desc, cap, n, pin):
        h, count = hashlib.sha256(), 0
        for rec in enumerate_trajectories(desc, denominator_cap=cap):
            digits = tuple((d.i, d.j) for d in rec.digits)
            h.update(repr((rec.point.numerators, rec.point.denominator, digits, sorted(rec.counts.items()))).encode())
            count += 1
        assert (count, h.hexdigest()) == (n, pin)

    def test_roundtrip_all_small(self):
        for desc, cap in ((GAUSS, 60), (JP2, 12), (BRUN2, 10)):
            for rec in enumerate_trajectories(desc, denominator_cap=cap):
                assert verify_roundtrip(desc, rec)

    @pytest.mark.parametrize("desc, cap", [(GAUSS, 60), (BRUN2, 12), (JP2, 12)], ids=["gauss", "brun2", "jp"])
    def test_counts_tally_the_digits(self, desc, cap):
        # EnsembleTable.from_records reads counts instead of rescanning digits
        recs = list(enumerate_trajectories(desc, denominator_cap=cap))
        assert recs
        for rec in recs:
            assert rec.counts == Counter(d.label for d in rec.digits)

    def test_weight_matches_telescoped_jacobian(self):
        for rec in enumerate_trajectories(GAUSS, denominator_cap=25):
            h = compose_string(GAUSS, rec.digits)
            assert rec.weight == pytest.approx(h.weight_at((Fraction(0),)), abs=1e-12)

    def test_jp_admissibility_of_records(self):
        for rec in enumerate_trajectories(JP2, denominator_cap=15):
            assert rec.digits[-1].b >= 2
            for u, v in zip(rec.digits, rec.digits[1:]):
                assert JP2.admissible(u, v)

    def test_denominator_bound_strict(self):
        # w < Q strictly: at Q = 2 log 5 the point 4/5 itself is excluded
        assert max_denominator(2, 2 * math.log(5)) == 4
        assert max_denominator(2, 2 * math.log(5) + 1e-9) == 5


class TestRationalPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            RationalPoint((2, 4), 6)
        with pytest.raises(ValueError):
            RationalPoint((7,), 5)
        p = RationalPoint((3, 5), 7)
        assert p.coords() == (Fraction(3, 7), Fraction(5, 7))
