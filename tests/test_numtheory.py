import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from emcurve.numtheory import (
    Factorization,
    FactorizationTimeout,
    factorize,
    is_prime,
    _legendre_prime,
    _sqrt_mod_prime,
    sqrt_mod_prime_power,
)
from emcurve.localsolve import _val_unit

ODD_PRIMES = [3, 5, 7, 11, 13, 37, 101, 1151, 1439, 42689]


@pytest.mark.parametrize("n,expected", [
    (461, True),           # factor of 462^4 - 1
    (1, False),
    (45557487359, True),   # 462^4 - 1 - 4*462^2
    (0, False),
    (2, True),
    (45558341135, False),
])
def test_is_prime_examples(n, expected):
    assert is_prime(n) is expected


def test_is_prime_matches_sieve_to_1e6():
    limit = 10**6
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i:: i] = bytearray(len(sieve[i * i:: i]))
    mismatches = [n for n in range(limit + 1) if bool(sieve[n]) != is_prime(n)]
    assert mismatches == []


@pytest.mark.parametrize("n,factors", [
    (1295, ((5, 1), (7, 1), (37, 1))),
    (1, ()),
    (20735, ((5, 1), (11, 1), (13, 1), (29, 1))),
    (2**10, ((2, 10),)),
    (3111695, ((5, 1), (41, 1), (43, 1), (353, 1))),
])
def test_factorize_examples(n, factors):
    assert factorize(n).factors == factors


def test_factorize_large_semiprime():
    n = 1000003 * 1000033
    f = factorize(n)
    assert f.factors == ((1000003, 1), (1000033, 1))


def test_factorize_timeout_carries_partial():
    n = 10000019 * 10000079
    with pytest.raises(FactorizationTimeout) as exc:
        factorize(4 * n, rho_budget=1)
    assert exc.value.cofactor == n
    assert (2, 2) in exc.value.partial


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factorize_ladder_top_rung_q(seed):
    # m^4 - 1 - 4m^2 at m = 10000000278: rho alone needs seconds to tens of
    # seconds (seed-dependent) for the 15-digit factor; ECM takes it.
    m = 10000000278
    f = factorize(m**4 - 1 - 4 * m**2, seed=seed)
    assert f.primes() == (89, 318811, 172528145104789, 2042757393218353249)
    assert f.is_squarefree()


SEMIPRIME_20_DIGIT = (10**19 + 51) * (10**20 + 39)


def test_factorize_semiprime_beyond_rho_budget():
    # Rho would need about 4e9 iterations here, 40 times the default budget.
    f = factorize(SEMIPRIME_20_DIGIT)
    assert f.factors == ((10**19 + 51, 1), (10**20 + 39, 1))


def test_factorize_semiprime_small_budget_times_out():
    with pytest.raises(FactorizationTimeout) as exc:
        factorize(12 * SEMIPRIME_20_DIGIT, rho_budget=200000)
    assert exc.value.cofactor == SEMIPRIME_20_DIGIT
    assert exc.value.partial == [(2, 2), (3, 1)]


def test_factorize_repeated_prime_above_trial_bound():
    assert factorize(1000003**2 * 10000019).factors == ((1000003, 2), (10000019, 1))


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


# Primes in (2^10, 10^6): trial division no longer reaches them, rho does.
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("factors", [
    ((1031, 6),),
    ((65537, 6),),
    ((999983, 6),),
    ((1031, 1), (1033, 1)),
    ((1031, 2), (65537, 3), (999983, 1)),
    ((2, 3), (1021, 1), (1031, 2), (999979, 1), (999983, 2)),
    ((999961, 1), (999979, 1), (999983, 1)),
])
def test_factorize_medium_primes(factors, seed):
    n = math.prod(p**e for p, e in factors)
    assert factorize(n, seed=seed).factors == factors


@given(st.lists(st.tuples(st.integers(min_value=2**10, max_value=999983),
                          st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=4),
       st.integers(min_value=0, max_value=2))
@settings(max_examples=60, deadline=None)
def test_factorize_medium_smooth_recomposes(parts, seed):
    expected = {}
    for a, e in parts:
        p = _next_prime(a)
        expected[p] = expected.get(p, 0) + e
    n = math.prod(p**e for p, e in expected.items())
    f = factorize(n, seed=seed)
    assert f.recompose() == n
    assert all(is_prime(p) for p in f.primes())
    assert list(f.primes()) == sorted(set(f.primes()))
    assert dict(f.factors) == expected


@given(st.integers(min_value=10**6, max_value=10**12),
       st.integers(min_value=10**6, max_value=10**12))
@settings(max_examples=30, deadline=None)
def test_factorize_two_large_primes_recomposes(a, b):
    p, q = _next_prime(a), _next_prime(b)
    f = factorize(p * q)
    assert f.recompose() == p * q
    assert f.primes() == tuple(sorted({p, q}))


@given(st.integers(min_value=2, max_value=200000))
@settings(max_examples=120, deadline=None)
def test_factorize_recomposes(n):
    f = factorize(n)
    assert f.recompose() == n
    assert all(is_prime(p) for p in f.primes())
    assert list(f.primes()) == sorted(set(f.primes()))


@pytest.mark.parametrize("n,expected", [(37, True), (4, False), (213445, True)])
def test_is_squarefree_examples(n, expected):
    assert factorize(n).is_squarefree() is expected


@pytest.mark.parametrize("a,p,expected", [
    (-1, 37, 1),
    (0, 7, 0),
    (2, 1151, 1),   # 1151 = 7 mod 8
    (3, 7, -1),
])
def test_legendre_examples(a, p, expected):
    assert _legendre_prime(a, p) == expected


@given(st.integers(), st.integers(), st.sampled_from(ODD_PRIMES))
@settings(max_examples=200, deadline=None)
def test_legendre_multiplicative(a, b, p):
    assert _legendre_prime(a * b, p) == _legendre_prime(a, p) * _legendre_prime(b, p)


def test_sqrt_mod_examples():
    assert _sqrt_mod_prime(4, 7) in (2, 5)
    assert _sqrt_mod_prime(2, 7) in (3, 4)
    assert _sqrt_mod_prime(3, 7) is None
    assert _sqrt_mod_prime(0, 13) == 0


@given(st.integers(min_value=1, max_value=10**6), st.sampled_from(ODD_PRIMES))
@settings(max_examples=200, deadline=None)
def test_sqrt_mod_squares_back(a, p):
    r = _sqrt_mod_prime(a, p)
    if _legendre_prime(a, p) == -1:
        assert r is None
    else:
        assert r is not None and r * r % p == a % p


@pytest.mark.parametrize("a,p,k", [(2, 7, 6), (5, 11, 4), (17, 2, 9), (41, 2, 12)])
def test_sqrt_mod_prime_power(a, p, k):
    r = sqrt_mod_prime_power(a, p, k)
    assert r is not None and (r * r - a) % p**k == 0


# 45557487359 and 45559194911 are q and r of m = 462.
@pytest.mark.parametrize("p", [3, 7, 42689, 45557487359, 45559194911])
def test_sqrt_mod_prime_power_every_precision(p):
    residues = [a for a in range(2, 200)
                if _legendre_prime(a, p) == 1 and math.isqrt(a) ** 2 != a][:3]
    assert residues
    for a in residues:
        for k in range(1, 61):
            r = sqrt_mod_prime_power(a, p, k)
            assert r is not None and 0 <= r < p**k
            assert (r * r - a) % p**k == 0
            # The lift of the mod-p root, not the other root.
            assert r % p == _sqrt_mod_prime(a, p)


@pytest.mark.parametrize("x,p,v", [
    (Fraction(1, 9), 3, -2),
    (576, 2, 6),
    (Fraction(1759969, 576), 2, -6),
])
def test_valuation_examples(x, p, v):
    x = Fraction(x)
    assert _val_unit(x.numerator, p)[0] - _val_unit(x.denominator, p)[0] == v


def test_valuation_of_zero_rejected():
    with pytest.raises(ValueError):
        _val_unit(0, 5)


@given(
    st.integers(min_value=-10**6, max_value=10**6).filter(lambda x: x != 0),
    st.integers(min_value=-10**6, max_value=10**6).filter(lambda x: x != 0),
    st.sampled_from([2, 3, 5, 7]),
)
@settings(max_examples=200, deadline=None)
def test_valuation_additive(x, y, p):
    vx, ux = _val_unit(x, p)
    vy, uy = _val_unit(y, p)
    assert _val_unit(x * y, p) == (vx + vy, ux * uy)
    assert ux % p and x == ux * p**vx


def test_factorization_invariants():
    f = factorize(45558341135)
    assert f.primes() == (5, 461, 463, 42689)
    assert f.is_squarefree()
    assert f.recompose() == f.value
