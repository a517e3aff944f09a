"""The rank of E over Q(m) is exactly 2, from one injective specialization.

Gusic-Tadic, "A remark on the injectivity of the specialization
homomorphism", Glas. Mat. 47 (2012): let E be y^2 = (x-e1)(x-e2)(x-e3) over
Q(T) with e1, e2, e3 in Z[T], and let t0 be rational.  If h(t0) is not a
square in Q for every nonconstant squarefree divisor h of
(e1-e2)(e1-e3)(e2-e3) in Z[T], then specialization at t0 is injective on
E(Q(T)).

Here T = m, and the cubic x(x-n1)(x-n2) + t^2 is (x-A)(x+A)(x-4m^2) with
A = m^4-1, so (e1-e2)(e1-e3)(e2-e3) = 2A * Q * (-R) = -2(m-1)(m+1)(m^2+1)QR
with Q = m^4-4m^2-1 and R = m^4+4m^2-1, both irreducible over Z.  Its
nonconstant squarefree divisors are +-1 and +-2 times the 31 nonempty
products of the five factors: 124 values at each m0.  Where none is a
square, rank E(Q(m)) <= rank E_m0(Q) <= s2(m0), and the torsion of E(Q(m)),
which holds the three 2-torsion points, embeds in E_m0(Q)_tors = Z/2 x Z/2.
With s2(m0) = 2, and rank >= 2 from the images of (0, t) and (n1, t), which
are points over Q(m), E(Q(m)) is Z/2 x Z/2 x Z^2.  s2 is read only where Q
and R are squarefree, since elsewhere it can be too low (ROADMAP item 1).
"""

import itertools
import math

import pytest

from emcurve.curve import torsion_group
from emcurve.descent import DescentContext, selmer_group
from emcurve.family import build_curve
from emcurve.numtheory import factorize

Q_POLY = (1, 0, -4, 0, -1)  # m^4 - 4m^2 - 1, leading coefficient first
R_POLY = (1, 0, 4, 0, -1)  # m^4 + 4m^2 - 1


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def poly_eval(f, x):
    out = 0
    for a in f:
        out = out * x + a
    return out


def is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def divisor_values(m):
    """h(m) for the 124 nonconstant squarefree divisors h of
    (e1-e2)(e1-e3)(e2-e3): +-1 or +-2 times a nonempty product of m-1,
    m+1, m^2+1, Q(m) and R(m)."""
    factors = (m - 1, m + 1, m**2 + 1, poly_eval(Q_POLY, m), poly_eval(R_POLY, m))
    products = [math.prod(s) for k in range(1, 6) for s in itertools.combinations(factors, k)]
    return [unit * p for unit in (1, -1, 2, -2) for p in products]


@pytest.mark.parametrize("poly", [Q_POLY, R_POLY], ids=["Q", "R"])
def test_q_and_r_do_not_factor_over_z(poly):
    # A monic quartic that factors over Q factors over Z into monic factors
    # (Gauss's lemma).  A linear factor is a rational root, which divides
    # the constant term -1.
    assert all(poly_eval(poly, x) != 0 for x in (1, -1))
    # Two quadratics (m^2 + a m + b)(m^2 + a' m + c): bc = -1 puts b, c in
    # {1, -1} with b + c = 0, the m^3 coefficient gives a' = -a, and then the
    # m^2 coefficient is -a^2, so |a| <= 2 for Q and no a exists for R.
    assert poly[1] == poly[3] == 0 and poly[4] == -1
    for b, c in ((1, -1), (-1, 1)):
        for a in range(-2, 3):
            assert poly_mul((1, a, b), (1, -a, c)) != poly


def test_the_discriminant_factors_are_the_papers():
    # e1, e2, e3 = A, -A, 4m^2, and (e1-e2)(e1-e3)(e2-e3) is
    # -2(m-1)(m+1)(m^2+1)QR with Q and R as above.
    for m in (6, 240, 570):
        c = build_curve(m)
        assert c.roots == (c.a_value, -c.a_value, 4 * m**2)
        assert (c.q_value, c.r_value) == (poly_eval(Q_POLY, m), poly_eval(R_POLY, m))
        e1, e2, e3 = c.roots
        assert ((e1 - e2) * (e1 - e3) * (e2 - e3)
                == -2 * (m - 1) * (m + 1) * (m**2 + 1) * c.q_value * c.r_value)


@pytest.mark.parametrize("m0", [240, 570, 1290])
def test_specialization_at_m0_pins_the_generic_rank(m0):
    values = divisor_values(m0)
    assert len(values) == len(set(values)) == 124
    assert not any(is_square(h) for h in values)
    c = build_curve(m0)
    assert factorize(c.q_value).is_squarefree() and factorize(c.r_value).is_squarefree()
    ctx = DescentContext(c)
    assert selmer_group(ctx).s2 == 2
    assert ctx.rank_lower_bound() == 2
    assert torsion_group(c).structure == "Z/2 x Z/2"
