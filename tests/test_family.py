import math

import pytest

from emcurve.family import (
    CurveParams,
    InadmissibleParameter,
    build_curve,
    is_admissible,
    scan_admissible,
)
from emcurve.numtheory import factorize


@pytest.mark.parametrize("m,expected", [
    (6, True),
    (8, False),    # 9 composite
    (462, True),
    (4, True),     # 3, 5 twin primes; 17 squarefree
    (18, False),   # 325 = 5^2 * 13
    (72, True),
])
def test_is_admissible(m, expected):
    assert is_admissible(m).admissible is expected


def test_scan_admissible_windows():
    assert list(scan_admissible(2, 100)) == [4, 6, 12, 30, 42, 60, 72]
    assert list(scan_admissible(7, 11)) == []
    assert 462 in list(scan_admissible(400, 500))


def test_build_curve_m6():
    c = build_curve(6)
    assert c.roots == (1295, -1295, 144)
    assert c.p_primes == (5, 7, 37)
    # The two cofactors, recomputed: 6^4-1-4*36 = 1151 and 6^4-1+4*36 = 1439.
    assert c.q_value == 1151 and c.q_primes == (1151,)
    assert c.r_value == 1439 and c.r_primes == (1439,)


def test_build_curve_m12_m30():
    c = build_curve(12)
    assert c.p_primes == (5, 11, 13, 29)
    assert c.q_primes == (19, 1061)
    assert c.r_primes == (101, 211)
    assert build_curve(30).p_primes == (17, 29, 31, 53)


def test_build_curve_m42_full_factorization():
    # 42^4 - 1 = 41 * 43 * 1765 with 1765 = 5 * 353; the full set is used.
    c = build_curve(42)
    assert c.p_primes == (5, 41, 43, 353)


def test_build_curve_rejects_inadmissible():
    with pytest.raises(InadmissibleParameter):
        build_curve(8)


def _identity_holds(c: CurveParams) -> bool:
    # x(x-n1)(x-n2) + t^2 == (x-e1)(x-e2)(x-e3) as integer polynomials.
    lhs = (1, -(c.n1 + c.n2), c.n1 * c.n2, c.t**2)
    e1, e2, e3 = c.roots
    rhs = (1, -(e1 + e2 + e3), e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3)
    return lhs == rhs


def test_polynomial_identity_sampled():
    for m in (4, 6, 12, 30, 42, 60, 462):
        assert _identity_holds(build_curve(m))


def test_root_symmetric_functions():
    for m in (6, 12, 462):
        c = build_curve(m)
        e1, e2, e3 = c.roots
        assert e1 + e2 + e3 == 4 * m**2
        assert e1 * e2 * e3 == -4 * m**2 * (m**4 - 1) ** 2


def test_three_good_for_admissible_m_at_least_6():
    for m in scan_admissible(6, 200):
        c = build_curve(m)
        assert m % 3 == 0
        # The odd prime support of the discriminant is the odd part of S.
        e1, e2, e3 = c.roots
        rest = 16 * ((e1 - e2) * (e1 - e3) * (e2 - e3)) ** 2
        for p in c.s_primes[1:]:
            assert rest % p == 0
            while rest % p == 0:
                rest //= p
        assert rest & (rest - 1) == 0  # a power of 2: no other odd prime
        assert 3 not in c.s_primes and c.has_good_reduction(3)


def test_gcd_invariant_for_exclusion_lemma():
    for m in scan_admissible(2, 200):
        c = build_curve(m)
        assert math.gcd(2 * c.a_value, c.q_value) == 1


def test_bad_prime_families_disjoint():
    for m in scan_admissible(2, 200):
        c = build_curve(m)
        p, q, r = set(c.p_primes), set(c.q_primes), set(c.r_primes)
        assert not (p & q) and not (p & r) and not (q & r)
        assert 2 not in p | q | r


def test_squarefree_flags_recorded():
    c = build_curve(6)
    assert factorize(c.q_value).is_squarefree() and c.r_squarefree
    # A parameter value whose factorization data must match factorize directly.
    c = build_curve(60)
    assert factorize(c.q_value).is_squarefree()
    assert c.r_squarefree == factorize(c.r_value).is_squarefree()


def test_a_value_always_squarefree_for_admissible():
    # m^4-1 = (m-1)(m+1)(m^2+1): distinct primes times a squarefree number.
    for m in scan_admissible(2, 300):
        c = build_curve(m)
        assert factorize(c.a_value).is_squarefree()


@pytest.mark.parametrize("ms", [
    list(scan_admissible(2, 2000)),
    [10008, 100152, 1000038, 100000038],
])
def test_p_primes_assembled_match_factorize(ms):
    # build_curve assembles m^4-1 from m-1, m+1 and m^2+1 instead of factoring it.
    assert ms
    for m in ms:
        assert build_curve(m).p_primes == factorize(m**4 - 1).primes()
