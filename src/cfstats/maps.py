"""The three piecewise-expanding maps and their branch structure.

Forward maps, digit extraction, inverse branches as unimodular
homographies, Jacobian weights and the Markov admissibility rule for
each algorithm:

* Gauss (m = 1):    T(x) = {1/x}, digit j = floor(1/x) >= 1.
* Brun (any m):     divide by the largest coordinate x_i and reorder
                    cyclically; digit (i, j) with j = floor(1/x_i).
* Jacobi-Perron (m = 2):  T(xi, eta) = ({eta/xi}, {1/xi}), digit
                    (a, b) = (floor(eta/xi), floor(1/xi)), 0 <= a <= b.

Ties for the Brun maximum are broken towards the smallest index, and
points on cell boundaries follow the same floor conventions as interior
points.  Digit payloads are validated at construction.  Everything here
is an immutable value and every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .homography import Homography


class TerminalStateError(ValueError):
    """Raised when a forward map is applied to its terminal state."""


# ---------------------------------------------------------------------------
# digits


@dataclass(frozen=True, slots=True)
class GaussDigit:
    j: int

    def __post_init__(self):
        if self.j < 1:
            raise ValueError(f"Gauss digit must be >= 1, got {self.j}")

    @property
    def label(self) -> int:
        return self.j


@dataclass(frozen=True, slots=True)
class BrunDigit:
    """Brun digit (i, j).

    The max position i selects the inverse branch; the counting identity
    of the digit is j alone.
    """

    i: int
    j: int

    def __post_init__(self):
        if self.i < 1:
            raise ValueError(f"Brun max position must be >= 1, got {self.i}")
        if self.j < 1:
            raise ValueError(f"Brun digit must be >= 1, got {self.j}")

    @property
    def label(self) -> int:
        return self.j


@dataclass(frozen=True, slots=True)
class JPDigit:
    a: int
    b: int

    def __post_init__(self):
        if not (0 <= self.a <= self.b and self.b >= 1):
            raise ValueError(f"JP digit needs 0 <= a <= b, b >= 1, got ({self.a}, {self.b})")

    @property
    def label(self) -> tuple:
        return (self.a, self.b)

    @property
    def diagonal(self) -> bool:
        return self.a == self.b


# ---------------------------------------------------------------------------
# forward maps (double precision; exact integer versions live in orbits.py)


def gauss_forward(x: float):
    """One Gauss step: x -> ({1/x}, j) with j = floor(1/x).

    x = 1 is a boundary point of I_1 and maps to (0, 1).
    """
    if x == 0:
        raise TerminalStateError("x = 0 is terminal for the Gauss map")
    if not 0 < x <= 1:
        raise ValueError(f"x must lie in (0, 1], got {x}")
    inv = 1.0 / x if not isinstance(x, Fraction) else Fraction(1, 1) / x
    j = int(math.floor(inv))
    return inv - j, GaussDigit(j)


def brun_forward(x, m: int | None = None):
    """One Brun step in dimension m.

    Divides by the maximal coordinate x_i (smallest index on ties) and
    reorders the remaining coordinates cyclically:

        (x_{i+1}/x_i, ..., x_m/x_i, {1/x_i}, x_1/x_i, ..., x_{i-1}/x_i)
    """
    x = tuple(x)
    m = len(x) if m is None else m
    if len(x) != m:
        raise ValueError("point dimension mismatch")
    if all(v == 0 for v in x):
        raise TerminalStateError("the zero vector is terminal for the Brun map")
    if any(v < 0 or v > 1 for v in x):
        raise ValueError("coordinates must lie in [0, 1]")
    i = max(range(m), key=lambda k: (x[k], -k)) + 1  # 1-based, smallest index wins ties
    xi = x[i - 1]
    inv = (Fraction(1, 1) if isinstance(xi, Fraction) else 1.0) / xi
    j = int(math.floor(inv))
    frac = inv - j
    image = tuple(x[k] / xi for k in range(i, m)) + (frac,) + tuple(x[k] / xi for k in range(0, i - 1))
    return image, BrunDigit(i, j)


def jp_forward(x):
    """One Jacobi-Perron step (m = 2): (xi, eta) -> ({eta/xi}, {1/xi})."""
    xi, eta = x
    if xi == 0:
        raise TerminalStateError("xi = 0 is terminal for the Jacobi-Perron map")
    if not (0 < xi <= 1 and 0 <= eta <= 1):
        raise ValueError(f"point must lie in (0,1] x [0,1], got {x}")
    ratio = eta / xi
    inv = (Fraction(1, 1) if isinstance(xi, Fraction) else 1.0) / xi
    a = int(math.floor(ratio))
    b = int(math.floor(inv))
    return (ratio - a, inv - b), JPDigit(a, b)


# ---------------------------------------------------------------------------
# map descriptors


def max_denominator(multiplier: int, Q: float) -> int:
    """Largest denominator n whose weight multiplier * log n is strictly
    below Q, or 0 if there is none.  exp and log round, so the estimate
    floor(exp(Q / multiplier)) is corrected in both directions."""
    n = max(int(math.floor(math.exp(Q / multiplier))), 1)
    while n > 0 and multiplier * math.log(n) >= Q:
        n -= 1
    while multiplier * math.log(n + 1) < Q:
        n += 1
    return n


@dataclass(frozen=True)
class MapDescriptor:
    """One of the three algorithms together with its branch metadata.

    The terminal rule constrains the last digit of a canonical expansion
    (Gauss: j >= 2, JP: b >= 2, Brun: unconstrained).
    """

    algorithm: str  # "gauss" | "brun" | "jp"
    m: int

    def __post_init__(self):
        if self.algorithm not in ("gauss", "brun", "jp"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "gauss" and self.m != 1:
            raise ValueError("gauss is one dimensional")
        if self.algorithm == "jp" and self.m != 2:
            raise ValueError("jp is implemented for m = 2 only")
        if self.m < 1:
            raise ValueError("m must be >= 1")

    @property
    def weight_multiplier(self) -> int:
        """w(p/q-type point) = weight_multiplier * log(denominator)."""
        return self.m + 1

    def forward(self, x):
        if self.algorithm == "gauss":
            image, d = gauss_forward(x[0] if isinstance(x, (tuple, list)) else x)
            return (image,), d
        if self.algorithm == "brun":
            return brun_forward(x, self.m)
        return jp_forward(x)

    def validate_digit(self, digit) -> None:
        ok = (
            (self.algorithm == "gauss" and isinstance(digit, GaussDigit))
            or (self.algorithm == "brun" and isinstance(digit, BrunDigit) and digit.i <= self.m)
            or (self.algorithm == "jp" and isinstance(digit, JPDigit))
        )
        if not ok:
            raise ValueError(f"digit {digit!r} is not valid for {self.algorithm} (m={self.m})")

    def inverse_branch(self, digit) -> Homography:
        """The local inverse selected by the digit, as a homography.

        Applying the forward map to inverse_branch(d)(x) returns (x, d)
        for every x in the branch codomain.
        """
        self.validate_digit(digit)
        if self.algorithm == "gauss":
            return Homography(((0, 1), (1, digit.j)))
        if self.algorithm == "jp":
            a, b = digit.a, digit.b
            return Homography(((0, 0, 1), (1, 0, a), (0, 1, b)))
        return _brun_inverse(self.m, digit.i, digit.j)

    def admissible(self, prev, next_) -> bool:
        """May next_ follow prev in a digit string?

        Gauss and Brun are full branch, so the answer is always yes.  For
        Jacobi-Perron a diagonal digit (a, a) maps its cell onto the
        region {xi < eta}, whose cells all carry a >= 1.
        """
        self.validate_digit(prev)
        self.validate_digit(next_)
        if self.algorithm != "jp":
            return True
        if prev.diagonal:
            return next_.a >= 1
        return True

    def terminal_admissible(self, last) -> bool:
        """May a canonical expansion end with this digit?"""
        self.validate_digit(last)
        if self.algorithm == "gauss":
            return last.j >= 2
        if self.algorithm == "jp":
            return last.b >= 2
        return True

    def log_jacobian(self, h: Homography, x) -> float:
        """log |J_h(x)| for a branch composition h at x."""
        if h.m != self.m:
            raise ValueError("homography dimension mismatch")
        return h.log_jacobian(x)


def _brun_inverse(m: int, i: int, j: int) -> Homography:
    """Inverse of the Brun step with max position i and digit j.

    Solving the forward formula for the preimage y gives, with
    den = j + x_{m-i+1}:

        y_i = 1/den,  y_{i+k} = x_k/den (k = 1..m-i),
        y_l = x_{m-i+1+l}/den (l = 1..i-1).
    """
    if i > m:
        raise ValueError("max position exceeds dimension")
    n = m + 1
    rows = [[0] * n for _ in range(n)]
    rows[i - 1][m] = 1
    for k in range(1, m - i + 1):
        rows[i + k - 1][k - 1] = 1
    for l in range(1, i):
        rows[l - 1][m - i + l] = 1
    rows[m][m - i] = 1  # x_{m-i+1} coefficient of the denominator
    rows[m][m] = j
    return Homography(rows)


GAUSS = MapDescriptor("gauss", 1)
JP2 = MapDescriptor("jp", 2)


def brun(m: int) -> MapDescriptor:
    return MapDescriptor("brun", m)


BRUN2 = brun(2)
BRUN3 = brun(3)


def compose_string(map_desc: MapDescriptor, digits) -> Homography:
    """h_{d_1} o ... o h_{d_n} for a digit string."""
    h = Homography.identity(map_desc.m)
    for d in digits:
        h = h.compose(map_desc.inverse_branch(d))
    return h
