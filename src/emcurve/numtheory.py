"""Exact integer arithmetic: primality, factorization, quadratic residues.

Everything here is deterministic for a fixed seed.  Primality uses the
Miller-Rabin witness set that is provably correct below 3.3e24, which covers
every integer this package ever has to classify at desk scale; beyond that a
seeded 64-round probabilistic test takes over.  Factorization is trial
division below 2^10, then a Brent-cycle Pollard rho slice that takes
factors up to about 1e9, then ECM (Lenstra's elliptic curve method on
Montgomery curves), under one work budget.  Square roots modulo p^k are
Hensel-lifted from Tonelli-Shanks by the Newton iteration for the inverse
square root, which needs no modular inverse beyond one mod p.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

# Deterministic for all n < 3,317,044,064,679,887,385,961,981 (~3.3e24).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

# Trial division stops here: rho finds any larger factor below 1e6 in about a
# thousand iterations, far fewer than the wheel's steps up to 1e6.
TRIAL_DIVISION_BOUND = 2**10
DEFAULT_RHO_BUDGET = 10**8

# Rho iterations per composite cofactor before ECM takes over.
_RHO_SLICE = 1 << 16
# ECM stage-1 bounds B1 with their curve counts; the last runs until the
# budget is spent.  Stage 2 reaches B2 = _ECM_B2_FACTOR * B1 in giant steps
# of D, against baby steps j < D/2 coprime to D.
_ECM_SCHEDULE = ((2_000, 25), (11_000, 90), (50_000, None))
_ECM_B2_FACTOR = 100
_ECM_D = 210
_ECM_BABY = tuple(j for j in range(1, _ECM_D // 2, 2) if math.gcd(j, _ECM_D) == 1)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class FactorizationTimeout(Exception):
    """A composite cofactor resisted the rho budget.

    Carries the factors found so far and the unfactored cofactor so callers
    can report partial progress.
    """

    def __init__(self, n: int, partial: list[tuple[int, int]], cofactor: int):
        super().__init__(
            f"factorization budget exhausted on cofactor {cofactor} of {n}"
        )
        self.n = n
        self.partial = partial
        self.cofactor = cofactor

    def __reduce__(self):
        # Rebuilt from the fields, so that it unpickles in a scan --jobs parent.
        return type(self), (self.n, self.partial, self.cofactor)


@dataclass(frozen=True)
class Factorization:
    """Complete factorization of a positive integer, primes ascending."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def recompose(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def _miller_rabin_composite_witness(a: int, n: int, d: int, s: int) -> bool:
    """True when `a` proves n composite."""
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int, *, seed: int = 0) -> bool:
    """Primality test, deterministic below ~3.3e24, else seeded Miller-Rabin.

    Composites are never reported prime within the deterministic range; beyond
    it 64 seeded bases bound the error probability by 4^-64.
    """
    if n < 0:
        raise ValueError("is_prime expects n >= 0")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_BOUND:
        bases = _MR_WITNESSES
    else:
        rng = random.Random(f"mr:{seed}:{n}")
        bases = tuple(rng.randrange(2, n - 1) for _ in range(64))
    return not any(_miller_rabin_composite_witness(a, n, d, s) for a in bases)


def _pollard_rho_brent(n: int, rng: random.Random, budget: int) -> tuple[int | None, int]:
    """One Brent-cycle rho attempt.  Returns (factor or None, iterations used)."""
    if n % 2 == 0:
        return 2, 0
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g, r, q = 1, 1, 1
    used = 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            used += min(m, r - k)
            if used > budget:
                return None, used
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # Backtrack one step at a time from the last saved position.
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            used += 1
            if used > budget:
                return None, used
    if g == n:
        return None, used
    return g, used


def _xdbl(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """x-only doubling on the Montgomery curve with a24 = (A + 2) / 4."""
    s = (x + z) * (x + z) % n
    d = (x - z) * (x - z) % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd(xp: int, zp: int, xq: int, zq: int, xd: int, zd: int, n: int) -> tuple[int, int]:
    """x-only P + Q given P - Q = (xd : zd)."""
    u = (xp - zp) * (xq + zq) % n
    v = (xp + zp) * (xq - zq) % n
    return zd * (u + v) * (u + v) % n, xd * (u - v) * (u - v) % n


def _ladder(k: int, x: int, z: int, a24: int, n: int) -> tuple[int, int, int, int]:
    """Montgomery ladder: (kP, (k+1)P) for k >= 1, one step per bit of k."""
    x0, z0 = x, z
    x1, z1 = _xdbl(x, z, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            x0, z0 = _xadd(x1, z1, x0, z0, x, z, n)
            x1, z1 = _xdbl(x1, z1, a24, n)
        else:
            x1, z1 = _xadd(x1, z1, x0, z0, x, z, n)
            x0, z0 = _xdbl(x0, z0, a24, n)
    return x0, z0, x1, z1


@functools.lru_cache(maxsize=None)
def _stage1_multiplier(b1: int) -> int:
    """Product over primes p <= b1 of the largest power of p not above b1."""
    sieve = bytearray([1]) * (b1 + 1)
    k = 1
    for p in range(2, b1 + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, b1 + 1, p)))
            q = p
            while q * p <= b1:
                q *= p
            k *= q
    return k


def _ecm_stage2_span(b1: int) -> range:
    """Giant steps k: every prime in (b1, _ECM_B2_FACTOR * b1] is k*D +- j."""
    return range(max(2, b1 // _ECM_D), _ECM_B2_FACTOR * b1 // _ECM_D + 2)


def _ecm_cost(b1: int) -> int:
    """Budget units of one curve: ladder steps plus stage-2 products."""
    return _stage1_multiplier(b1).bit_length() + len(_ECM_BABY) * len(_ecm_stage2_span(b1))


def _ecm_curve(n: int, sigma: int, b1: int) -> int:
    """One ECM curve with Suyama parameter sigma; gcd(n, result), maybe 1 or n.

    Stage 1 multiplies the start point by every prime power up to b1.  Stage 2
    catches one further prime l <= _ECM_B2_FACTOR * b1: writing l = k*D +- j,
    l*Q = 0 (mod p) makes x(kDQ) z(jQ) - x(jQ) z(kDQ) vanish mod p, so the
    product over all k and j needs no table of primes.
    """
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    den = 16 * pow(u, 3, n) * v % n
    g = math.gcd(den, n)
    if g != 1:
        return g
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
    x, z, _, _ = _ladder(_stage1_multiplier(b1), pow(u, 3, n), pow(v, 3, n), a24, n)
    g = math.gcd(z, n)
    if g != 1:
        return g
    # odd[i] = (2i + 1) Q up to (D/2) Q, by differential additions of 2Q.
    x2, z2 = _xdbl(x, z, a24, n)
    odd = [(x, z), _xadd(x2, z2, x, z, x, z, n)]
    while len(odd) <= _ECM_D // 4:
        odd.append(_xadd(*odd[-1], x2, z2, *odd[-2], n))
    baby = [odd[j // 2] for j in _ECM_BABY]
    xd, zd = _xdbl(*odd[-1], a24, n)
    span = _ecm_stage2_span(b1)
    xp, zp, xr, zr = _ladder(span.start - 1, xd, zd, a24, n)
    acc = 1
    for _ in span:
        for xj, zj in baby:
            acc = acc * (xr * zj - xj * zr) % n
        xp, zp, (xr, zr) = xr, zr, _xadd(xr, zr, xd, zd, xp, zp, n)
    return math.gcd(acc, n)


def _ecm(n: int, rng: random.Random, budget: int) -> tuple[int | None, int]:
    """ECM curves along _ECM_SCHEDULE until one splits n or budget runs out.

    Returns (factor or None, budget units used).  A curve is only started if
    its whole cost still fits the budget.
    """
    used = 0
    for b1, curves in _ECM_SCHEDULE:
        cost = _ecm_cost(b1)
        for _ in itertools.count() if curves is None else range(curves):
            if used + cost > budget:
                return None, used
            used += cost
            g = _ecm_curve(n, rng.randrange(6, n - 1), b1)
            if 1 < g < n:
                return g, used
    raise AssertionError("the last ECM stage runs until the budget is spent")


def _split(c: int, rng: random.Random, budget: int) -> tuple[int | None, int]:
    """A proper factor of the composite c, or None once budget runs out.

    Returns (factor or None, budget units used).  Brent rho gets the first
    _RHO_SLICE iterations, which find factors up to about 1e9; ECM takes the
    rest, since its cost grows far slower than rho's sqrt(p).
    """
    used = 0
    factor = None
    rho_budget = min(_RHO_SLICE, budget)
    while factor is None and used < rho_budget:
        factor, spent = _pollard_rho_brent(c, rng, rho_budget - used)
        used += spent
    if factor is None:
        factor, spent = _ecm(c, rng, budget - used)
        used += spent
    assert factor is None or (1 < factor < c and c % factor == 0)
    return factor, used


def factorize(
    n: int,
    *,
    rho_budget: int = DEFAULT_RHO_BUDGET,
    seed: int = 0,
    cache=None,
) -> Factorization:
    """Complete factorization of n >= 1.

    Trial division below 2^10, then Brent rho (whose first slice takes
    factors up to about 1e9) and ECM on what remains (see _split).
    rho_budget is shared by every cofactor of n and counts rho iterations
    plus ECM ladder steps and stage-2 products.  Raises
    FactorizationTimeout if a composite cofactor survives the budget.
    An optional cache (get_factorization/put_factorization) short-circuits
    repeat values.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    if cache is not None:
        hit = cache.get_factorization(n)
        if hit is not None:
            return Factorization(value=n, factors=tuple((p, e) for p, e in hit))
    original = n
    counts: dict[int, int] = {}

    for p in (2, 3, 5):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    # Wheel over residues coprime to 30.
    f = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f <= TRIAL_DIVISION_BOUND and f * f <= n:
        while n % f == 0:
            counts[f] = counts.get(f, 0) + 1
            n //= f
        f += increments[i]
        i = (i + 1) % 8
    # Whatever survives trial division is prime, or a composite for _split.
    stack = [n] if n > 1 else []
    budget_left = rho_budget
    while stack:
        c = stack.pop()
        if is_prime(c, seed=seed):
            counts[c] = counts.get(c, 0) + 1
            continue
        factor, used = _split(c, random.Random(f"rho:{seed}:{c}"), budget_left)
        budget_left -= used
        if factor is None:
            raise FactorizationTimeout(original, sorted(counts.items()), c)
        stack.append(factor)
        stack.append(c // factor)

    factors = tuple(sorted(counts.items()))
    if cache is not None:
        cache.put_factorization(original, factors)
    return Factorization(value=original, factors=factors)


def _legendre_prime(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion; 0 iff p | a.

    p must be an odd prime and is not re-checked: every caller takes p from
    a completed factorization or from a primality test it already ran.  The
    name stays private because perfbench's layer tracer wraps each public
    function, and this one runs thousands of times per analysis.
    """
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """Tonelli-Shanks square root of a modulo an odd prime p.

    Returns the smaller of the two roots, 0 when p | a, None when a is a
    non-residue.  p must be an odd prime and is not re-checked, as in
    _legendre_prime.
    """
    a %= p
    if a == 0:
        return 0
    half = (p - 1) // 2
    if pow(a, half, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Tonelli-Shanks for p = 1 mod 4.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, half, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i, x = 0, t
        while x != 1:
            x = x * x % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def sqrt_mod_prime_power(a: int, p: int, k: int) -> int | None:
    """A root of x^2 = a (mod p^k) for a a unit mod p, via Hensel lifting.

    For odd p requires (a/p) = 1; for p = 2 requires a = 1 (mod 8) and k >= 3
    (the cases k < 3 are handled directly).  Returns None when no root exists.
    p must be prime and is not re-checked: callers pass primes from a
    completed factorization.

    For odd p the returned root is the unique lift of _sqrt_mod_prime(a, p).
    It is found as a * y, where y = a^(-1/2) is lifted by the division-free
    Newton iteration y <- y (3 - a y^2) / 2, which doubles the precision per
    step without the modular inverse a direct lift of x^2 - a needs.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    if p == 2:
        a %= 1 << k
        if a % 2 == 0:
            raise ValueError("unit expected")
        if k == 1:
            return 1
        if k == 2:
            return 1 if a % 4 == 1 else None
        if a % 8 != 1:
            return None
        # Lift bit by bit: if r^2 = a mod 2^j then r or r + 2^(j-1) works mod 2^(j+1).
        r = 1
        for j in range(3, k):
            if (r * r - a) % (1 << (j + 1)) != 0:
                r += 1 << (j - 1)
        return r % (1 << k)
    r = _sqrt_mod_prime(a, p)
    if r is None:
        return None
    if r == 0:
        raise ValueError("unit expected")
    target = p**k
    y = pow(r, -1, p)
    pk = p
    while pk < target:
        # a y^2 = 1 mod pk gives a y'^2 = 1 mod pk^2, capped at p^k; halving
        # mod the odd pk is a shift, after adding pk to an odd value.
        pk = min(pk * pk, target)
        v = y * (3 - a * y * y % pk) % pk
        y = v >> 1 if v % 2 == 0 else (v + pk) >> 1
    return a * y % target
