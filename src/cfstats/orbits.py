"""Exact enumeration of finite rational trajectories.

Integer-arithmetic digit algorithms (Euclid, Brun GCD, Jacobi-Perron)
and exhaustive enumeration of all coprime points up to a denominator
bound; a weight bound Q enters only through maps.max_denominator, which
the caller applies first.  Every emitted record carries the canonical
digit string produced by the forward integer algorithm, so each point
appears exactly once and composing the inverse branches at the base
point reproduces it exactly.

Conventions for degenerate inputs: p = 0 (Gauss), xi = 0 (JP) and
tuples containing zeros (Brun) are terminal-or-skipped states and never
enumerated.  A small family of Jacobi-Perron boundary points (for
example (v/u, 0) with v >= 2, and most points with a coordinate equal
to 1 or on the diagonal) admits no admissible expansion ending in
b >= 2; jp_digits raises NotExpandableError for those and the
enumeration skips them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from .maps import (
    BrunDigit,
    GaussDigit,
    JPDigit,
    MapDescriptor,
)


class NotExpandableError(ValueError):
    """The point has no admissible digit string reaching the base point."""


class BudgetError(RuntimeError):
    """The implied denominator bound exceeds the configured resource budget."""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True, slots=True)
class RationalPoint:
    """Exact point (n_1/q, ..., n_m/q) with gcd(n_1, ..., n_m, q) = 1."""

    numerators: tuple
    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be positive")
        if any(n < 0 or n > self.denominator for n in self.numerators):
            raise ValueError("numerators must lie in [0, denominator]")
        if math.gcd(*self.numerators, self.denominator) != 1:
            raise ValueError("point is not in lowest terms")

    def coords(self) -> tuple:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)


@dataclass(frozen=True)
class TrajectoryRecord:
    """A point of the trajectory space with its canonical expansion."""

    point: RationalPoint
    digits: tuple
    weight_multiplier: int
    counts: Counter = field(compare=False)

    @property
    def depth(self) -> int:
        return len(self.digits)

    @property
    def weight(self) -> float:
        return self.weight_multiplier * math.log(self.point.denominator)


# ---------------------------------------------------------------------------
# integer digit algorithms


def euclid_digits(p: int, q: int) -> list:
    """Continued fraction digits of p/q with the last quotient >= 2.

    The terminal convention holds automatically: the Gauss orbit of a
    rational in (0, 1) never passes through 1, so the final exact
    quotient is at least 2.
    """
    if not (0 < p < q):
        raise ValueError(f"need 0 < p < q, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise ValueError(f"({p}, {q}) is not coprime")
    digits = []
    while p:
        j, r = divmod(q, p)
        digits.append(GaussDigit(j))
        p, q = r, p
    return digits


def brun_gcd_digits(t: Sequence[int], m: int | None = None):
    """Brun GCD digits of a nonnegative integer tuple.

    Repeatedly divides the largest entry by the second largest,
    recording a_i = floor(largest / second largest) >= 1, until only the
    leading entry is nonzero.  Returns (digits, gcd).  The j sequence
    equals the digit labels of the Brun map orbit of the projective
    point; max positions are tracked separately by the enumeration.
    """
    t = sorted((int(v) for v in t), reverse=True)
    if m is not None and len(t) != m + 1:
        raise ValueError("tuple length must be m + 1")
    if t[-1] < 0:
        raise ValueError("entries must be nonnegative")
    if t[0] == 0:
        raise ValueError("all-zero input")
    digits = []
    while t[1] != 0:
        a = t[0] // t[1]
        digits.append(a)
        t[0] -= a * t[1]
        t.sort(reverse=True)
    return digits, t[0]


def brun_trajectory_digits(t: Sequence[int]) -> list:
    """Digit string (with max positions) of the Brun map orbit of a tuple.

    The input (t_1, ..., t_{m+1}) must be coprime, all entries positive,
    sorted descending; it corresponds to the point
    (t_2/t_1, ..., t_{m+1}/t_1).  Ties take the smallest index.
    """
    t = tuple(int(v) for v in t)
    if len(t) < 2:
        raise ValueError("tuple needs m + 1 >= 2 entries")
    if list(t) != sorted(t, reverse=True):
        raise ValueError("tuple must be sorted descending")
    if t[-1] < 1:
        raise ValueError("entries must be positive")
    if math.gcd(*t) != 1:
        raise ValueError("tuple is not coprime")
    return _brun_walk(t, {})[0]


def _brun_walk(t: tuple, digit_of: dict) -> tuple:
    """(digits, counts) of the Brun map orbit of the int tuple t of m + 1 >= 2
    entries, sorted descending, positive and coprime, as brun_trajectory_digits
    checks: the digit string and a Counter of its labels j.  digit_of holds
    the BrunDigit of each (i, j) met so far, and gains the new ones."""
    q, u = t[0], list(t[1:])
    digits, labels = [], []
    um = max(u)  # u holds m >= 1 entries
    while um:  # the entries stay >= 0, so the orbit ends where all are 0
        i = u.index(um)  # the first maximum: ties take the smallest index
        j = q // um
        d = digit_of.get((i, j))
        if d is None:
            d = digit_of[i, j] = BrunDigit(i + 1, j)
        digits.append(d)
        labels.append(j)
        q, u = um, u[i + 1 :] + [q - j * um] + u[:i]
        um = max(u)
    return digits, Counter(labels)


# The four digit choices at a JP state (p, r, q) ~ (p/q, r/q), preferred
# in this order.  Floor choices reproduce the raw forward map; the
# boundary variants (exact quotient minus one) realize the closure of a
# neighbouring cell and are needed for a null family of rationals whose
# floor orbit stalls at (0, eta) with eta != 0.
def _jp_children(p: int, r: int, q: int):
    af, bf = r // p, q // p
    a_opts = [af] if r % p or af == 0 else [af, af - 1]
    b_opts = [bf] if q % p or bf == 1 else [bf, bf - 1]
    for a in a_opts:
        for b in b_opts:
            if a <= b and b >= 1:
                yield a, b


# steps of the jp_digits search before it gives up
_JP_MAX_STEPS = 40_000


def jp_digits(p: int, r: int, q: int) -> list:
    """Canonical Jacobi-Perron digit string of (p/q, r/q).

    Depth-first search preferring the floor digits at every state, with
    boundary fallbacks explored in a fixed order; the first admissible
    string that reaches (0, 0) with final b >= 2 is returned.  Raises
    NotExpandableError when no admissible expansion exists (possible
    only for boundary and diagonal points).
    """
    if q < 1 or not (0 < p <= q) or not (0 <= r <= q):
        raise ValueError(f"need 1 <= p <= q and 0 <= r <= q, got ({p}, {r}, {q})")
    if math.gcd(p, math.gcd(r, q)) != 1:
        raise ValueError(f"({p}, {r}, {q}) is not coprime")

    # stack entries: (state, child iterator); digits grows with the stack
    digits: list[JPDigit] = []
    stack = [((p, r, q), _jp_children(p, r, q))]
    steps = 0
    while stack:
        steps += 1
        if steps > _JP_MAX_STEPS:
            raise RuntimeError("search budget exceeded")
        (sp, sr, sq), children = stack[-1]
        advanced = False
        for a, b in children:
            if digits and digits[-1].diagonal and a == 0:
                continue
            np_, nr = sr - a * sp, sq - b * sp
            if np_ == 0:
                if nr == 0 and b >= 2:
                    digits.append(JPDigit(a, b))
                    return digits
                continue
            digits.append(JPDigit(a, b))
            stack.append(((np_, nr, sp), _jp_children(np_, nr, sp)))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if digits and stack:
                digits.pop()
    raise NotExpandableError(f"({p}, {r}, {q}) has no admissible expansion")


# ---------------------------------------------------------------------------
# enumeration


def _gauss_records(bound: int) -> Iterator[TrajectoryRecord]:
    for q in range(2, bound + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                digits = tuple(euclid_digits(p, q))
                yield TrajectoryRecord(
                    RationalPoint((p,), q), digits, 2, Counter(d.label for d in digits)
                )


def _jp_records(bound: int) -> Iterator[TrajectoryRecord]:
    for q in range(2, bound + 1):
        for p in range(1, q + 1):
            for r in range(0, q + 1):
                if math.gcd(p, math.gcd(r, q)) != 1:
                    continue
                try:
                    digits = tuple(jp_digits(p, r, q))
                except NotExpandableError:
                    continue
                yield TrajectoryRecord(
                    RationalPoint((p, r), q), digits, 3, Counter(d.label for d in digits)
                )


def _brun_records(bound: int, m: int) -> Iterator[TrajectoryRecord]:
    digit_of: dict = {}
    for t1 in range(1, bound + 1):
        for rest in itertools.combinations_with_replacement(range(t1, 0, -1), m):
            if math.gcd(t1, *rest) != 1:
                continue
            digits, counts = _brun_walk((t1,) + rest, digit_of)
            yield TrajectoryRecord(RationalPoint(rest, t1), tuple(digits), m + 1, counts)


def enumerate_trajectories(map_desc: MapDescriptor, denominator_cap: int) -> Iterator[TrajectoryRecord]:
    """Stream every coprime trajectory point with q <= denominator_cap, exactly once.

    Order is deterministic: by denominator, then lexicographic numerators
    (Brun numerators descending within a denominator by construction).
    """
    if map_desc.algorithm == "gauss":
        yield from _gauss_records(denominator_cap)
    elif map_desc.algorithm == "jp":
        yield from _jp_records(denominator_cap)
    else:
        yield from _brun_records(denominator_cap, map_desc.m)
