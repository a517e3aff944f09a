import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from emcurve.curve import (
    BadReductionError,
    INFINITY,
    PointNotOnCurve,
    ReducedCurve,
    add,
    contains,
    count_points_mod,
    negate,
    point,
    reduce_mod,
    scalar_mul,
    torsion_group,
)
from emcurve.family import build_curve, scan_admissible


@pytest.fixture(scope="module")
def c6():
    return build_curve(6)


def generators(c):
    return point(0, c.t), point(c.n1, c.t), point(c.n2, c.t)


def test_contains_examples(c6):
    p1, _, _ = generators(c6)
    assert contains(c6, p1)
    assert contains(c6, INFINITY)
    assert contains(c6, point(1295, 0))
    assert not contains(c6, point(1, 1))


def on_curve_by_fractions(c, p):
    """Reference membership test: y^2 == x^3 + a x^2 + b x + c in Fractions."""
    if p.is_infinity:
        return True
    a, b, cc = c.cubic_coefficients()
    return p.y * p.y == ((p.x + a) * p.x + b) * p.x + cc


@functools.lru_cache(maxsize=None)
def lattice_point(m, a, b):
    """a (0, t) + b (n1, t) on E_m."""
    c = build_curve(m)
    p1, p2, _ = generators(c)
    return add(c, scalar_mul(c, a, p1), scalar_mul(c, b, p2))


def _perturbations(c, p):
    """p and nearby points, most of them off the curve."""
    x, y = p.x, p.y
    yield p
    yield point(x, y + Fraction(1, y.denominator))
    yield point(x, y - Fraction(1, y.denominator))
    yield point(x * (1 + Fraction(1, x.denominator)), y)
    yield point(-x, y)
    for ell in c.s_primes[:3]:  # denominators divisible by bad primes
        yield point(x / ell**2, y / ell**3)
        yield point(x + Fraction(1, ell), y)


@settings(max_examples=60, deadline=None)
@given(m=st.sampled_from([4, 6, 12, 462]), a=st.integers(-3, 3), b=st.integers(-3, 3),
       torsion=st.integers(0, 3))
def test_contains_matches_the_fraction_identity(m, a, b, torsion):
    c = build_curve(m)
    base = lattice_point(m, a, b)
    if torsion:  # the three 2-torsion points, and their sums with base
        t2 = point((c.e1, c.e2, c.e3)[torsion - 1], 0)
        base = t2 if a == b == 0 else add(c, base, t2)
    assert contains(c, base) and on_curve_by_fractions(c, base)
    if base.is_infinity:
        return
    for p in _perturbations(c, base):
        assert contains(c, p) == on_curve_by_fractions(c, p), p


def test_add_identity_and_inverse(c6):
    p1, _, _ = generators(c6)
    assert add(c6, p1, INFINITY) == p1
    assert add(c6, INFINITY, p1) == p1
    assert add(c6, p1, negate(p1)) == INFINITY


def test_doubling_golden(c6):
    p1, _, _ = generators(c6)
    d = add(c6, p1, p1)
    assert d.x == Fraction(1759969, 576)


def test_collinear_relation(c6):
    p1, p2, p3 = generators(c6)
    assert add(c6, add(c6, p1, p2), p3) == INFINITY


def test_add_rejects_off_curve(c6):
    with pytest.raises(PointNotOnCurve):
        add(c6, point(1, 1), INFINITY)


def _sample_points(c, rng):
    p1, p2, p3 = generators(c)
    pool = [INFINITY, p1, p2, p3, point(c.e1, 0), point(c.e3, 0)]
    pool.append(add(c, p1, p2))
    pool.append(scalar_mul(c, 2, p1))
    pool.append(negate(p1))
    return [rng.choice(pool) for _ in range(3)]


def test_group_law_axioms(c6):
    rng = random.Random(0)
    for _ in range(25):
        p, q, r = _sample_points(c6, rng)
        assert contains(c6, add(c6, p, q))
        assert add(c6, p, q) == add(c6, q, p)
        assert add(c6, add(c6, p, q), r) == add(c6, p, add(c6, q, r))
        assert add(c6, p, negate(p)) == INFINITY


def test_reduce_mod_goldens(c6):
    rc = reduce_mod(c6, 3)
    assert (rc.a, rc.b, rc.c) == (0, 2, 0)  # y^2 = x^3 - x over F_3
    with pytest.raises(BadReductionError):
        reduce_mod(c6, 5)
    rc12 = reduce_mod(build_curve(12), 3)
    assert (rc12.a, rc12.b, rc12.c) == (0, 2, 0)


def test_count_points_examples(c6):
    assert count_points_mod(reduce_mod(c6, 3)) == 4
    assert count_points_mod(ReducedCurve(5, 0, 4, 0)) == 8   # y^2 = x^3 - x mod 5
    assert count_points_mod(ReducedCurve(7, 0, 6, 0)) == 8   # y^2 = x^3 - x mod 7


def _reduce_point(pt, ell):
    if pt.is_infinity:
        return None
    dx, dy = pt.x.denominator, pt.y.denominator
    if dx % ell == 0 or dy % ell == 0:
        raise ValueError("not ell-integral")
    x = pt.x.numerator * pow(dx, -1, ell) % ell
    y = pt.y.numerator * pow(dy, -1, ell) % ell
    return (x, y)


def _ff_add(rc, p, q):
    ell = rc.place
    if p is None:
        return q
    if q is None:
        return p
    if p[0] == q[0] and (p[1] + q[1]) % ell == 0:
        return None
    if p == q:
        num = (3 * p[0] * p[0] + 2 * rc.a * p[0] + rc.b) % ell
        den = (2 * p[1]) % ell
    else:
        num = (q[1] - p[1]) % ell
        den = (q[0] - p[0]) % ell
    lam = num * pow(den, -1, ell) % ell
    x3 = (lam * lam - rc.a - p[0] - q[0]) % ell
    y3 = (lam * (p[0] - x3) - p[1]) % ell
    return (x3, y3)


def test_reduction_is_homomorphism(c6):
    rng = random.Random(2)
    for ell in (13, 17, 23):
        rc = reduce_mod(c6, ell)
        for _ in range(15):
            p, q, _ = _sample_points(c6, rng)
            try:
                rp, rq = _reduce_point(p, ell), _reduce_point(q, ell)
                rsum = _reduce_point(add(c6, p, q), ell)
            except ValueError:
                continue
            assert _ff_add(rc, rp, rq) == rsum


def test_torsion_group_m6(c6):
    t = torsion_group(c6)
    assert t.structure == "Z/2 x Z/2"
    assert set(t.points) == {
        INFINITY, point(1295, 0), point(-1295, 0), point(144, 0)
    }
    for g in t.generators:
        assert g.y == 0
        assert add(c6, g, g) == INFINITY


@pytest.mark.parametrize("m", [4, 12, 30, 462])
def test_torsion_group_structure(m):
    t = torsion_group(build_curve(m))
    assert t.structure == "Z/2 x Z/2"
    assert len(t.points) == 4


def test_torsion_order_divides_mod3_count():
    for m in scan_admissible(6, 100):
        c = build_curve(m)
        assert count_points_mod(reduce_mod(c, 3)) % len(torsion_group(c).points) == 0
