import functools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import emcurve.numtheory as numtheory
from emcurve.numtheory import (
    Factorization,
    FactorizationTimeout,
    factorize,
    is_prime,
    _legendre_prime,
    _ECM_BABY,
    _ECM_D,
    _ECM_FIRST,
    _ECM_SCHEDULE,
    _RHO_SLICE,
    _SMALL_PRIMES,
    _affine_x,
    _ecm_cost,
    _ecm_curve,
    _ecm_pairs,
    _ecm_stage2_span,
    _pollard_rho_brent,
    _stage1_multiplier,
    _xadd,
    _xdbl,
)
from emcurve.localsolve import _val_unit

ODD_PRIMES = [3, 5, 7, 11, 13, 37, 101, 1151, 1439, 42689]


# psi_k, the least strong pseudoprime to each of the first k primes: every
# row of the base table, up to psi_12 = 399165290221 * 798330580441, which
# the 12 bases 2..37 pass and 41 exposes.
PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 3825123056546413051, 318665857834031151167461]


@pytest.mark.parametrize("n,expected", [
    (461, True),           # factor of 462^4 - 1
    (1, False),
    (45557487359, True),   # 462^4 - 1 - 4*462^2
    (0, False),
    (2, True),
    (45558341135, False),
] + [(psi, False) for psi in PSI])
def test_is_prime_examples(n, expected):
    assert is_prime(n) is expected


def test_factorize_psi12():
    psi12 = 318665857834031151167461
    assert factorize(psi12).factors == ((399165290221, 1), (798330580441, 1))


def test_is_prime_matches_sieve_to_1e6():
    limit = 10**6
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i:: i] = bytearray(len(sieve[i * i:: i]))
    mismatches = [n for n in range(limit + 1) if bool(sieve[n]) != is_prime(n)]
    assert mismatches == []


def test_small_primes_are_the_primes_below_the_trial_division_bound():
    # One table serves trial division, is_prime's screen and bases, and torsion.
    assert _SMALL_PRIMES == tuple(n for n in range(2**10) if is_prime(n))
    assert len(_SMALL_PRIMES) == 172


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factorize_ladder_top_rung_r(seed):
    # m^4 - 1 + 4m^2 at the same m: rho fails on the cofactor
    # 13888927589 * 37006611189955924639849, and ECM splits it.
    m = 10000000278
    f = factorize(m**4 - 1 + 4 * m**2, seed=seed)
    assert f.primes() == (11, 1768721, 13888927589, 37006611189955924639849)
    assert f.is_squarefree()


# The 1e10 Q cofactor left after 89 and 318811.
Q_COFACTOR_1E10 = 172528145104789 * 2042757393218353249


def test_rho_slice_fails_at_exactly_its_budget():
    # No factor within 2^15 iterations, eight times the slice, and no block
    # started beyond them.
    c = Q_COFACTOR_1E10
    rng = random.Random(f"rho:0:{c}")
    assert _pollard_rho_brent(c, rng, 2**15) == (None, 2**15)
    fresh = random.Random(f"rho:0:{c}")
    fresh.randrange(1, c)
    fresh.randrange(1, c)
    assert rng.getstate() == fresh.getstate()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [1000003 * 1000033, 10000019 * 10000079,
                               1031 * 1033, 65537**2, 172528145104789 * 2042757393218353249])
def test_rho_never_reports_more_than_its_budget(n, seed):
    factor, used = _pollard_rho_brent(n, random.Random(seed), 100)
    assert used <= 100
    assert factor is None or (1 < factor < n and n % factor == 0)


def reference_rho(n, rng, budget):
    """_pollard_rho_brent with one product and one reduction per step."""
    if n % 2 == 0:
        return 2, 0
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g, r, q = 1, 1, 1
    used = 0
    x = ys = y
    while g == 1:
        if used + r > budget:
            return None, budget
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            used += min(m, r - k)
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            if used == budget:
                return None, budget
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
            used += 1
    if g == n:
        return None, used
    return g, used


# Budgets that end inside the first blocks, at a block's leftover steps, at
# the slice and past it; 1031 * 1033 backtracks from a block whose gcd is n.
@pytest.mark.parametrize("budget", [1, 2, 3, 5, 7, 100, 4096, 2**15])
@pytest.mark.parametrize("n", [1031 * 1033, 65537**2, 1000003 * 1000033,
                               10000019 * 10000079, 172528145104789 * 2042757393218353249])
def test_rho_matches_the_one_product_reference(n, budget):
    for seed in range(4):
        rng, ref = random.Random(seed), random.Random(seed)
        assert _pollard_rho_brent(n, rng, budget) == reference_rho(n, ref, budget)
        assert rng.getstate() == ref.getstate()


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


# The B1 = 450 span starts at k = 1, whose giant step reaches the primes in
# (450, 1260); a start at k = 2 used to skip them.
@pytest.mark.parametrize("b1", [450, 2000, 11000])
def test_ecm_pairs_cover_every_stage2_prime(b1):
    span = _ecm_stage2_span(b1)
    pairs = _ecm_pairs(b1)
    assert len(pairs) == len(span)
    listed = {(k, _ECM_BABY[i]) for k, ks in zip(span, pairs) for i in ks}
    for k, j in listed:
        assert any(b1 < l <= 100 * b1 and is_prime(l) for l in (k * _ECM_D - j, k * _ECM_D + j))
    for l in range(b1 + 1, 100 * b1 + 1):
        if is_prime(l):
            k, r = divmod(l, _ECM_D)
            k, j = (k, r) if r < _ECM_D // 2 else (k + 1, _ECM_D - r)
            assert (k, j) in listed, l


# Budget units of one curve at every B1 that _split runs; README.md quotes
# the first two.
CURVE_COSTS = {450: 4_229, 2_000: 17_092, 11_000: 85_807, 50_000: 363_316}


@pytest.mark.parametrize("b1", [b1 for b1, _ in _ECM_FIRST + _ECM_SCHEDULE])
def test_ecm_cost_counts_ladder_bits_and_paired_products(b1):
    products = sum(len(ks) for ks in _ecm_pairs(b1))
    assert _ecm_cost(b1) == _stage1_multiplier(b1).bit_length() + products
    assert _ecm_cost(b1) == CURVE_COSTS[b1]


def _record_work(monkeypatch):
    """Rho iterations and (b1, sigma) of every ECM curve, as factorize runs."""
    work = {"rho": 0, "curves": []}
    real_rho, real_curve = numtheory._pollard_rho_brent, numtheory._ecm_curve

    def rho(n, rng, budget):
        factor, used = real_rho(n, rng, budget)
        work["rho"] += used
        return factor, used

    def curve(n, sigma, b1):
        work["curves"].append((b1, sigma))
        return real_curve(n, sigma, b1)

    monkeypatch.setattr(numtheory, "_pollard_rho_brent", rho)
    monkeypatch.setattr(numtheory, "_ecm_curve", curve)
    return work


def test_split_draws_each_ecm_stage_from_its_own_generator(monkeypatch):
    # The B1 = 450 curve has a generator of its own, so the main schedule
    # draws the sigma it would draw without it: after the slice's one rho
    # attempt (two draws), the ninth B1 = 2000 curve splits c.
    c = Q_COFACTOR_1E10
    work = _record_work(monkeypatch)
    assert factorize(c, seed=0).factors == ((172528145104789, 1), (2042757393218353249, 1))
    first = random.Random(f"ecm:0:{c}")
    rho = random.Random(f"rho:0:{c}")
    rho.randrange(1, c)
    rho.randrange(1, c)
    assert work["rho"] == _RHO_SLICE
    assert work["curves"] == ([(450, first.randrange(6, c - 1))]
                              + [(2000, rho.randrange(6, c - 1)) for _ in range(9)])
    b1, sigma = work["curves"][-1]
    assert _ecm_curve(c, sigma, b1) in (172528145104789, 2042757393218353249)


# A budget that ends inside the first curve's cost starts no curve; one that
# covers it runs exactly that curve.  c resists both the slice and it.
@pytest.mark.parametrize("extra,curves", [(0, []), (_ecm_cost(450) - 1, []),
                                          (_ecm_cost(450), [450])])
def test_first_curve_runs_only_within_the_budget(monkeypatch, extra, curves):
    c = Q_COFACTOR_1E10
    work = _record_work(monkeypatch)
    with pytest.raises(FactorizationTimeout) as exc:
        factorize(c, rho_budget=_RHO_SLICE + extra)
    assert exc.value.cofactor == c and exc.value.partial == []
    assert [b1 for b1, _ in work["curves"]] == curves
    assert work["rho"] + sum(map(_ecm_cost, curves)) <= _RHO_SLICE + extra


def test_affine_x_normalizes_points():
    n = 1000003 * 1000033
    points = [(5, 7), (11, 1), (n - 2, 123456789), (0, 3)]
    xs, g = _affine_x(points, n)
    assert g == 1
    assert [x * z % n for x, (_, z) in zip(xs, points)] == [x % n for x, _ in points]


def test_affine_x_returns_factor_of_a_nonunit_z():
    p, q = 1000003, 1000033
    assert _affine_x([(5, 7), (3, 11 * p), (2, 9)], p * q) == (None, p)
    # Every Z shares a prime with n, but not the same one: still a proper factor.
    assert _affine_x([(5, p), (3, q)], p * q)[1] in (p, q)


def reference_ecm_curve(n, sigma, b1):
    """_ecm_curve with the odd-multiple baby table and one stage-2 product
    per reduction.  Returns (gcd, stage): stage 1 if the curve ended before
    stage 2 ran."""
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    den = 16 * pow(u, 3, n) * v % n
    g = math.gcd(den, n)
    if g != 1:
        return g, 1
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
    x, z = numtheory._ladder(_stage1_multiplier(b1), pow(u * pow(v, -1, n), 3, n), a24, n)
    g = math.gcd(z, n)
    if g != 1:
        return g, 1
    x2, z2 = _xdbl(x, z, a24, n)
    odd = [(x, z), _xadd(x2, z2, x, z, x, z, n)]
    while len(odd) <= _ECM_D // 4:
        odd.append(_xadd(*odd[-1], x2, z2, *odd[-2], n))
    span = _ecm_stage2_span(b1)
    xd, zd = _xadd(*odd[-1], *odd[-2], x2, z2, n)
    giant = [(xd, zd), _xdbl(xd, zd, a24, n)]
    while len(giant) < span[-1]:
        giant.append(_xadd(*giant[-1], xd, zd, *giant[-2], n))
    xs, g = _affine_x([odd[j // 2] for j in _ECM_BABY] + giant[span.start - 1 :], n)
    if g != 1:
        return g, 2
    baby, giant_xs = xs[: len(_ECM_BABY)], xs[len(_ECM_BABY) :]
    acc = 1
    for xk, ks in zip(giant_xs, _ecm_pairs(b1)):
        for i in ks:
            acc = acc * (xk - baby[i]) % n
    return math.gcd(acc, n), 2


# The 25-bit factor of this semiprime is found in stage 1 on some curves and
# only in stage 2 on others, at both B1.
SEMIPRIME_25_BIT = (2**25 - 39) * 1000000000000000003


@pytest.mark.parametrize("b1", [450, 2000])
@pytest.mark.parametrize("n", [Q_COFACTOR_1E10, SEMIPRIME_25_BIT])
def test_ecm_curve_matches_the_odd_multiple_reference(n, b1, monkeypatch):
    # Stage 1 is the same ladder on both sides: each curve runs it once.
    monkeypatch.setattr(numtheory, "_ladder", functools.lru_cache(maxsize=1)(numtheory._ladder))
    rng = random.Random(f"ecm-reference:{b1}:{n}")
    found = set()
    for _ in range(200):
        sigma = rng.randrange(6, n - 1)
        g, stage = reference_ecm_curve(n, sigma, b1)
        assert _ecm_curve(n, sigma, b1) == g, sigma
        if 1 < g < n:
            found.add(stage)
    if n == SEMIPRIME_25_BIT:
        assert found == {1, 2}


def test_ecm_curve_may_take_the_other_factor_on_a_degenerate_curve():
    # Q has order 9 mod p and 61 mod q: each prime divides some Z, in both
    # tables, so both return the first Z's proper gcd.  The odd-multiple
    # table's x-only additions of 2Q meet 9Q = 0 as a difference and vanish
    # mod p from 13Q on; the two chains prime to 6 never hold a multiple of
    # 3, so their first such Z is 61Q's, which vanishes mod q.
    p, q, sigma = 1048583, 2097169, 1415034716230
    assert reference_ecm_curve(p * q, sigma, 450) == (p, 2)
    assert _ecm_curve(p * q, sigma, 450) == q


# Factors in (1e11, 1e13), beyond the reach of the rho slice: ECM finds them.
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p,q", [
    (100000000003, 9999999900001),
    (300000000077, 2000000000003),
    (2000000000003, 7000000000009),
])
def test_factorize_ecm_semiprime(p, q, seed):
    with pytest.raises(FactorizationTimeout):
        factorize(p * q, seed=seed, rho_budget=_RHO_SLICE)
    assert factorize(p * q, seed=seed).factors == ((p, 1), (q, 1))


# Q and R at the 1e6 and 1e8 ladder rungs: their 25- to 30-bit factors go to
# the rho slice, the B1 = 450 curve or the main schedule, by seed.
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("m,q_primes,r_primes", [
    (1000038, (179, 461, 122611339, 98851080299), (19, 52639579403590515478469)),
    (100000038, (5196011, 993702881, 19367521616627549),
     (1231, 36784459, 39791519, 55499326882861)),
])
def test_factorize_ladder_mid_size_factors(m, q_primes, r_primes, seed):
    for n, primes in ((m**4 - 4 * m**2 - 1, q_primes), (m**4 + 4 * m**2 - 1, r_primes)):
        assert factorize(n, seed=seed).factors == tuple((p, 1) for p in primes)


def test_import_builds_no_pair_table():
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import emcurve.cli; "
              "from emcurve.numtheory import _ecm_pairs; "
              "print(_ecm_pairs.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-I", "-c", script, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


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
