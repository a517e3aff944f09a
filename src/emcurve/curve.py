"""Exact group law on the curve over Q, reduction mod good primes, torsion.

Points carry exact Fraction coordinates; equality is structural on reduced
fractions.  No floating point anywhere: the descent and torsion arguments
need exactness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .family import CurveParams
from .numtheory import _legendre_prime, is_prime

# Good odd primes torsion_bound_generic may count at before giving up.
_TORSION_BOUND_PRIMES = 12


class BadReductionError(ValueError):
    pass


class PointNotOnCurve(ValueError):
    pass


@dataclass(frozen=True)
class RationalPoint:
    x: Fraction | None
    y: Fraction | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "O"
        return f"({self.x}, {self.y})"


INFINITY = RationalPoint(None, None)


def point(x, y) -> RationalPoint:
    return RationalPoint(Fraction(x), Fraction(y))


def contains(c: CurveParams, p: RationalPoint) -> bool:
    """Exact membership test, including the point at infinity.

    With x = n/d and y = s/t in lowest terms (d, t > 0), y^2 = x^3 + a x^2 +
    b x + c times t^2 d^3 is an identity in integers.
    """
    if p.is_infinity:
        return True
    a, b, cc = c.cubic_coefficients()
    n, d = p.x.numerator, p.x.denominator
    s, t = p.y.numerator, p.y.denominator
    return s * s * d**3 == t * t * (((n + a * d) * n + b * d * d) * n + cc * d**3)


def negate(p: RationalPoint) -> RationalPoint:
    if p.is_infinity:
        return p
    return RationalPoint(p.x, -p.y)


def add(c: CurveParams, p: RationalPoint, q: RationalPoint) -> RationalPoint:
    """Chord-tangent addition.  Errors if either input is off the curve."""
    for r in (p, q):
        if not contains(c, r):
            raise PointNotOnCurve(f"{r} is not on the curve for m={c.m}")
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    a2, a4, _ = c.cubic_coefficients()
    if p.x == q.x:
        if p.y == -q.y:
            return INFINITY
        # Tangent line; y != 0 here since y = -y was handled above.
        slope = (3 * p.x * p.x + 2 * a2 * p.x + a4) / (2 * p.y)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope * slope - a2 - p.x - q.x
    y3 = slope * (p.x - x3) - p.y
    return RationalPoint(x3, y3)


def scalar_mul(c: CurveParams, k: int, p: RationalPoint) -> RationalPoint:
    if k < 0:
        return scalar_mul(c, -k, negate(p))
    out = INFINITY
    acc = p
    while k:
        if k & 1:
            out = add(c, out, acc)
        acc = add(c, acc, acc)
        k >>= 1
    return out


@dataclass(frozen=True)
class ReducedCurve:
    """y^2 = x^3 + a x^2 + b x + c over F_place, place an odd good prime."""

    place: int
    a: int
    b: int
    c: int

    def rhs(self, x: int) -> int:
        return (((x + self.a) * x + self.b) * x + self.c) % self.place


def reduce_mod(c: CurveParams, ell: int) -> ReducedCurve:
    """Reduce the cubic mod an odd prime of good reduction."""
    if ell == 2 or not c.has_good_reduction(ell):
        raise BadReductionError(f"{ell} is a prime of bad reduction for m={c.m}")
    a, b, cc = c.cubic_coefficients()
    return ReducedCurve(place=ell, a=a % ell, b=b % ell, c=cc % ell)


def count_points_mod(rc: ReducedCurve) -> int:
    """#E(F_ell) including infinity, by enumerating x.  Intended for small
    ell: torsion counts only at 3 for m >= 6, and at 7 and 13 for m = 4."""
    ell = rc.place
    n = 1
    for x in range(ell):
        v = rc.rhs(x)
        if v == 0:
            n += 1
        elif _legendre_prime(v, ell) == 1:
            n += 2
    return n


@dataclass(frozen=True)
class TorsionGroup:
    structure: str
    generators: tuple[RationalPoint, ...]

    @property
    def points(self) -> tuple[RationalPoint, ...]:
        return (INFINITY,) + self.generators


def _good_odd_primes(c: CurveParams) -> Iterator[int]:
    """The odd primes of good reduction, ascending."""
    ell = 3
    while True:
        if is_prime(ell) and c.has_good_reduction(ell):
            yield ell
        ell += 2


def torsion_bound_generic(c: CurveParams) -> int:
    """gcd of #E(F_ell) over good odd ell, ascending, stopping once it is 4.

    An upper bound on |tors|; at most _TORSION_BOUND_PRIMES primes are used.
    """
    g = 0
    for ell in itertools.islice(_good_odd_primes(c), _TORSION_BOUND_PRIMES):
        g = math.gcd(g, count_points_mod(reduce_mod(c, ell)))
        if g == 4:
            break
    return g


def torsion_group(c: CurveParams) -> TorsionGroup:
    """The full torsion subgroup: Z/2 x Z/2 on the three rational roots.

    The three 2-torsion points come from the rational roots of the cubic.
    The matching upper bound |tors| <= 4 is torsion_bound_generic.  For
    admissible m >= 6 its first prime is 3, which is good because 3 | m;
    there the curve reduces to y^2 = x^3 - x with exactly 4 points, so one
    count settles it.  For m = 4 (where 3 | m^4-1) the gcd needs 7 and 13.
    A bound other than 4 is an internal inconsistency.
    """
    two_torsion = tuple(point(e, 0) for e in c.roots)
    for pt in two_torsion:
        if not contains(c, pt):
            raise PointNotOnCurve(f"root point {pt} not on curve for m={c.m}")
    g = torsion_bound_generic(c)
    if g != 4:
        raise AssertionError(
            f"torsion bound from point counts is {g}, not 4; curve data for "
            f"m={c.m} is inconsistent"
        )
    return TorsionGroup(structure="Z/2 x Z/2", generators=two_torsion)
