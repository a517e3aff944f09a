"""Reference helpers the tests check emcurve against.

No command calls them, so they live here rather than in src/: the rest of
the group law (negation and scalar multiples), the numerical rank of the
height pairing, the descent's square classes, coset representatives and
descent map on points, each computed the direct way, and the local verdict
of one pair at one place, from its values and from its masks.
"""

from emcurve import DEFAULT_TOL
from emcurve.curve import INFINITY, RationalPoint, add, contains
from emcurve.descent import DescentPair, SquareClass
from emcurve.family import CurveParams
from emcurve.heights import _pivots, pairing_matrix
from emcurve.localsolve import (
    LocalVerdict, _f2_reduce, _pair_bits, _value_class, local_image,
)
from emcurve.numtheory import factorize


def negate(p: RationalPoint) -> RationalPoint:
    if p.is_infinity:
        return p
    return RationalPoint(p.x, -p.y)


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


def independence_rank(
    c: CurveParams,
    pts: list[RationalPoint] | tuple[RationalPoint, ...],
    tol: float = DEFAULT_TOL,
) -> int:
    """Numerical rank of the pairing matrix of pts, computed at tol.

    The pivots of the elimination behind the determinant (heights._pivots,
    partial pivoting) that exceed 50*tol in absolute value.
    Positive-semidefiniteness of the pairing makes this a lower bound on the
    number of independent points, up to the height error; the exact
    certificate is descent's rank_lower_bound.
    """
    pivots, _ = _pivots(pairing_matrix(c, pts, tol).entries)
    return sum(abs(p) > 50.0 * tol for p in pivots)


def canonical_rep(ctx, b1m, b2m):
    """The H-coset representative with b1 > 0 and b2 odd."""
    if b2m & ctx.two_bit:
        b1m ^= ctx.h2[0]
        b2m ^= ctx.h2[1]
    if b1m & ctx.sign_bit:
        b1m ^= ctx.h4[0]
        b2m ^= ctx.h4[1]
    return b1m, b2m


def coset_reps(ctx):
    """All 4^(nbits-1) coset representatives as mask pairs, b1m without the
    sign bit and b2m without the 2-bit, ascending in b1m, then in b2m."""
    masks = range(1 << ctx.nbits)
    return ((b1m, b2m) for b1m in masks if not b1m & ctx.sign_bit
            for b2m in masks if not b2m & ctx.two_bit)


IDENTITY_CLASS = SquareClass(1, ())


def square_class(n):
    """Squarefree kernel of a nonzero integer as a SquareClass.

    Any support is allowed; DescentContext.mask_of_class raises
    UnsupportedClass for a class outside a curve's Q(S,2).
    """
    if n == 0:
        raise ValueError("square class of 0 undefined")
    sign = 1 if n > 0 else -1
    odd_part = tuple(p for p, e in factorize(abs(n)).factors if e % 2 == 1)
    return SquareClass(sign, odd_part)


def phi_image(curve, pt):
    """Image of a rational point under the descent map.

    Generic case ([x - e1], [x + e1]); the printed special cases at the
    2-torsion abscissae x = e1 and x = e2; identity pair at infinity.  The
    third root e3 falls under the generic formula.
    """
    if not contains(curve, pt):
        raise ValueError(f"{pt} is not on the curve for m={curve.m}")
    A = curve.a_value
    if pt.is_infinity:
        return DescentPair(IDENTITY_CLASS, IDENTITY_CLASS)
    if pt.x == curve.e1:
        b1 = square_class(2 * A * curve.q_value)
        b2 = square_class(2 * A)
    elif pt.x == curve.e2:
        b1 = square_class(-2 * A)
        b2 = square_class(2 * A * curve.r_value)
    else:
        # [a/b] = [a*b] for a rational in lowest terms.
        b1, b2 = (square_class(x.numerator * x.denominator)
                  for x in (pt.x - curve.e1, pt.x + curve.e1))
    return DescentPair(b1, b2)


def decide_local(b1, b2, a_value, q_value, r_value, ell, *, want_witness=True):
    """Q_ell solvability of the pair's homogeneous space, ell a bad prime:
    whether the classes of b1 and b2 lie in localsolve.local_image.
    want_witness is accepted and ignored; no verdict carries a point."""
    vec = _pair_bits(_value_class(b1, ell), _value_class(b2, ell), ell)
    basis = local_image(a_value, q_value, r_value, ell)[0]
    return LocalVerdict(outcome="unsolvable" if _f2_reduce(basis, vec) else "solvable")


def locally_solvable(ctx, b1m, b2m, ell):
    """The same verdict from the pair's masks, by the context's local_forms
    at ell."""
    for u, v in ctx.local_forms(ell):
        if ((b1m & u) ^ (b2m & v)).bit_count() & 1:
            return False
    return True
