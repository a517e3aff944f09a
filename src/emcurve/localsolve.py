"""Q_ell solvability of the homogeneous space attached to a descent pair.

The space for a pair (b1, b2) is cut out in P^3 by

    F1:  b1 Z1^2 - b2 Z2^2    + 2A W^2 = 0
    F2:  b1 Z1^2 - b1b2 Z3^2  +  Q W^2 = 0

with A = m^4-1 and Q = m^4-1-4m^2 = A - 4m^2.  A point with W = 1 gives a
point of E_m: y^2 = f(x) = (x-A)(x+A)(x-4m^2) with x - A = b1 z1^2,
x + A = b2 z2^2 and x - 4m^2 = b1b2 z3^2.  So the space has a Q_ell-point
iff the pair's classes in Q_ell*/Q_ell*^2 lie in the image of the local
descent map delta_ell, which sends a point to ([x-A], [x+A]) (the usual
special cases at the 2-torsion points).  delta_ell is injective on
E(Q_ell)/2E(Q_ell), so its image is a subgroup of order
|E(Q_ell)[2]| / |2|_ell: 4 at odd ell and 8 at 2, as all of E[2] is
rational.

local_image, the one builder of that image, spans it by images of actual
points: the four rational points x = A, x = 4m^2, (0, t) and (n1, t), then
points of E(Q_ell) from one short x-search (_points), and raises unless the
span reaches the full order.  It is built once per (A, Q, R, ell) and kept.
A pair in the span is the image of a product of those points, so it is
solvable; a pair outside the full span is unsolvable.  decide_local and the
descent answer by that membership, and decide_local certifies a solvable
verdict by the abscissa x of the first point of the same search whose
classes are exactly the pair's.  Its three quotients (x-A)/b1, (x+A)/b2 and
(x-4m^2)/(b1b2) are checked to be Q_ell-squares, so their square roots and
W = 1 are a Q_ell-point of the space.

The F2 forms that cut the image out of the pair's coordinates depend only
on its basis, and few bases recur across curves and places, so _image_forms
derives them once per basis.  real_solvable returns one of two shared
verdicts.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .numtheory import _legendre_prime

REAL_PLACE = math.inf


class LocalSolverError(RuntimeError):
    """The point search fell short; never a silent verdict."""


@dataclass(frozen=True)
class LocalVerdict:
    place: int | float
    outcome: str  # solvable | unsolvable | real_solvable | real_unsolvable
    # x of a point of E(Q_ell) in exactly the pair's classes.
    witness: Fraction | None = None

    @property
    def is_solvable(self) -> bool:
        return self.outcome in ("solvable", "real_solvable")


def _val_unit(n: int, ell: int) -> tuple[int, int]:
    """(v_ell(n), n / ell^v) for a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is +infinity; callers must branch first")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v, n


def _value_class(n: int, ell: int) -> tuple[int, int]:
    """The class of a nonzero integer in Q_ell*/Q_ell*^2: (v_ell mod 2,
    Legendre symbol of the unit part) at odd ell, (v_2 mod 2, unit mod 8) at 2."""
    v, u = _val_unit(n, ell)
    return v % 2, u % 8 if ell == 2 else _legendre_prime(u, ell)


def _pair_bits(cls1: tuple[int, int], cls2: tuple[int, int], ell: int) -> int:
    """F2 coordinates of a pair of classes in _value_class's form, the
    second's above the first's.  A class has v mod 2 in bit 0, then at odd
    ell one bit for a non-residue unit, and at 2 the unit mod 8 shifted right
    once (1, 3, 5, 7 -> 0, 1, 2, 3 is an isomorphism (Z/8)* -> F2^2)."""
    def bits(cls):
        v, u = cls
        return v | (u >> 1 if ell == 2 else u < 0) << 1

    return bits(cls1) | bits(cls2) << (3 if ell == 2 else 2)


def _f2_reduce(basis: Sequence[int], vec: int) -> int:
    """vec reduced by an F2 basis in echelon form listed by decreasing leading
    bit; 0 iff vec lies in the span."""
    for b in basis:
        vec = min(vec, vec ^ b)
    return vec


def _points(a_value: int, e3: int, ell: int) -> Iterator[tuple[int, int]]:
    """(t, den) for each candidate x = t/den of the search at which f(x) is a
    nonzero Q_ell-square: x = e +- ell^k u with e in {A, -A, e3, 0}, k in
    [-12, 40) by increasing |k| and 0 < u < 200."""
    a = a_value
    for k in sorted(range(-12, 40), key=abs):
        step, den = (ell**k, 1) if k >= 0 else (1, ell**-k)
        for u in range(1, 200):
            for e in (a, -a, e3, 0):
                for t in (e * den + step * u, e * den - step * u):
                    # f(x) den^4 = (t - a den)(t + a den)(t - e3 den) den.
                    fx = (t - a * den) * (t + a * den) * (t - e3 * den) * den
                    if fx and _value_class(fx, ell) == (0, 1):
                        yield t, den


def _point_bits(t: int, den: int, a_value: int, ell: int) -> int:
    """The F2 vector of delta_ell(x) for x = t/den: ([x-A], [x+A])."""
    return _pair_bits(_value_class((t - a_value * den) * den, ell),
                      _value_class((t + a_value * den) * den, ell), ell)


@functools.lru_cache(maxsize=1024)
def local_image(a_value: int, q_value: int, r_value: int, ell: int) -> tuple[int, ...]:
    """F2 basis of delta_ell(E(Q_ell)/2E(Q_ell)) for E: y^2 = (x-A)(x+A)(x-e3),
    e3 = A - Q = 4m^2, pairs encoded by _pair_bits, in echelon form by
    decreasing leading bit.  Kept per (A, Q, R, ell).

    It starts from the images of the rational points x = A, x = 4m^2, (0, t)
    and (n1, t): (2AQ, 2A), (-Q, R), (-A, A) and (2(m^2+1), 2(m^2+1)), whose
    span must not exceed the image's dimension, 2 at odd ell and 3 at 2
    (AssertionError).  If it falls short, the points of _points add their
    classes until it is reached; a search that ends short raises
    LocalSolverError.
    """
    full = 3 if ell == 2 else 2
    basis: list[int] = []

    def add(vec):
        vec = _f2_reduce(basis, vec)
        if vec:
            basis.append(vec)
            basis.sort(reverse=True)

    a2, e3 = 2 * a_value, a_value - q_value
    b = e3 // 2 + 2  # 2(m^2 + 1)
    for b1, b2 in ((a2 * q_value, a2), (-q_value, r_value), (-a_value, a_value), (b, b)):
        add(_pair_bits(_value_class(b1, ell), _value_class(b2, ell), ell))
    if len(basis) > full:
        raise AssertionError(
            f"the images of rational points span dimension {len(basis)} at {ell}, "
            f"more than dim E(Q_{ell})/2E(Q_{ell}) = {full}")
    if len(basis) < full:
        for t, den in _points(a_value, e3, ell):
            add(_point_bits(t, den, a_value, ell))
            if len(basis) == full:
                break
        else:
            raise LocalSolverError(f"the local image at {ell} reached dimension "
                                   f"{len(basis)}, not {full}, in the point search")
    return tuple(basis)


@functools.cache
def _image_forms(basis: tuple[int, ...], k: int) -> tuple[tuple[int, int], ...]:
    """The F2 forms (u, v) on the coordinates of _pair_bits vectors, k of
    each class, that cut out the span of an echelon basis: a vector x lies
    in it iff every (x & u) ^ (x >> k & v) has even popcount.

    Reduction by the basis is F2-linear, so each bit of the reduced vector is
    a sum of coordinates, one form; they come in the order their bits first
    appear as coordinate 0, 1, ..., 2k - 1 is reduced.  Kept per (basis, k):
    there are 70 bases of local_image's shape at k = 2 and 11,160 at k = 3.
    """
    rows: dict[int, tuple[int, int]] = {}  # reduced bit -> form
    for i in range(2 * k):
        u, v = (1 << i, 0) if i < k else (0, 1 << i - k)
        reduced = _f2_reduce(basis, 1 << i)
        for bit in range(reduced.bit_length()):
            if reduced >> bit & 1:
                ru, rv = rows.get(bit, (0, 0))
                rows[bit] = (ru ^ u, rv ^ v)
    return tuple(rows.values())


@functools.lru_cache(maxsize=1024)
def _first_points(a_value: int, e3: int, ell: int) -> dict[int, tuple[int, int]]:
    """The first point (t, den) of _points in each class of the local image,
    by F2 vector; a search that ends before it has met all 2^dim classes
    raises LocalSolverError."""
    size = 8 if ell == 2 else 4
    first: dict[int, tuple[int, int]] = {}
    for t, den in _points(a_value, e3, ell):
        first.setdefault(_point_bits(t, den, a_value, ell), (t, den))
        if len(first) == size:
            return first
    raise LocalSolverError(f"the point search at {ell} met {len(first)} of the "
                           f"{size} classes of the local image")


def decide_local(
    b1: int,
    b2: int,
    a_value: int,
    q_value: int,
    r_value: int,
    ell: int,
    *,
    want_witness: bool = True,
) -> LocalVerdict:
    """Q_ell solvability of the pair's homogeneous space, with certificate.

    ell must be prime and is not re-checked here: the descent passes the
    bad primes s_primes, from complete factorizations.  The verdict is
    membership of the pair's classes in the local image (module docstring).
    A solvable verdict carries, unless want_witness is False, the abscissa x
    of the first point of the search in exactly the pair's classes; its
    three quotients (x-A)/b1, (x+A)/b2 and (x-4m^2)/(b1b2) are checked to be
    Q_ell-squares, else LocalSolverError names a decision bug.  A search that
    ends before it has met every class of the image raises LocalSolverError.
    The image and those first points are kept per (A, Q, R, ell).
    """
    vec = _pair_bits(_value_class(b1, ell), _value_class(b2, ell), ell)
    if _f2_reduce(local_image(a_value, q_value, r_value, ell), vec):
        return LocalVerdict(place=ell, outcome="unsolvable")
    witness = None
    if want_witness:
        e3 = a_value - q_value
        t, den = _first_points(a_value, e3, ell)[vec]
        for num, b in ((t - a_value * den, b1), (t + a_value * den, b2),
                       (t - e3 * den, b1 * b2)):
            # num/(den b) is a square iff num den b is.
            if _value_class(num * den * b, ell) != (0, 1):
                raise LocalSolverError(f"{num}/{den * b} is not a square in Q_{ell}; "
                                       "decision bug")
        witness = Fraction(t, den)
    return LocalVerdict(place=ell, outcome="solvable", witness=witness)


_REAL_SOLVABLE = LocalVerdict(place=REAL_PLACE, outcome="real_solvable")
_REAL_UNSOLVABLE = LocalVerdict(place=REAL_PLACE, outcome="real_unsolvable")


def real_solvable(b1: int, b2: int) -> LocalVerdict:
    """Solvability over the reals: possible iff b2 > 0.

    For b2 > 0 and b1 > 0 take z1 large; for b1 < 0 the window
    q/|b1| <= z1^2 <= 2A/|b1| is nonempty since q < 2A.  For b2 < 0 both
    sign choices of b1 force a positive quantity to equal a negative one.
    The verdict is one of two shared frozen objects.
    """
    return _REAL_SOLVABLE if b2 > 0 else _REAL_UNSOLVABLE
