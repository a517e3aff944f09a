"""Exact integer/rational arithmetic: primality, factorization, quadratic residues.

Everything here is deterministic for a fixed seed.  Primality uses the
Miller-Rabin witness set that is provably correct below 3.3e24, which covers
every integer this package ever has to classify at desk scale; beyond that a
seeded 64-round probabilistic test takes over.  Factorization is trial
division up to 10^6 followed by Brent-cycle Pollard rho with an iteration
budget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

# Deterministic for all n < 3,317,044,064,679,887,385,961,981 (~3.3e24).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

TRIAL_DIVISION_BOUND = 10**6
DEFAULT_RHO_BUDGET = 10**8

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


@dataclass(frozen=True)
class Factorization:
    """Complete factorization of a positive integer, primes ascending."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

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


def is_prime(n: int, *, rounds: int = 64, seed: int = 0) -> bool:
    """Primality test, deterministic below ~3.3e24, else seeded Miller-Rabin.

    Composites are never reported prime within the deterministic range; beyond
    it the error probability is at most 4^-rounds (rounds >= 64 by default).
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
        bases = tuple(rng.randrange(2, n - 1) for _ in range(max(rounds, 64)))
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


def factorize(
    n: int,
    *,
    rho_budget: int = DEFAULT_RHO_BUDGET,
    seed: int = 0,
    cache=None,
) -> Factorization:
    """Complete factorization of n >= 1.

    Trial division up to 10^6, then Pollard rho (Brent) on what remains.
    Raises FactorizationTimeout if a composite cofactor survives the budget.
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
    # Whatever survives trial division is prime, or a semiprime-or-worse for rho.
    stack = [n] if n > 1 else []
    budget_left = rho_budget
    while stack:
        c = stack.pop()
        if c == 1:
            continue
        if is_prime(c, seed=seed):
            counts[c] = counts.get(c, 0) + 1
            continue
        rng = random.Random(f"rho:{seed}:{c}")
        factor = None
        while factor is None:
            factor, used = _pollard_rho_brent(c, rng, budget_left)
            budget_left -= used
            if budget_left <= 0 and factor is None:
                partial = sorted(counts.items())
                raise FactorizationTimeout(original, partial, c)
        stack.append(factor)
        stack.append(c // factor)

    factors = tuple(sorted(counts.items()))
    if cache is not None:
        cache.put_factorization(original, factors)
    return Factorization(value=original, factors=factors)


def is_squarefree(n: int, **kwargs) -> bool:
    """True iff no prime divides n more than once.  Propagates rho timeouts."""
    if n < 1:
        raise ValueError("is_squarefree expects n >= 1")
    return factorize(n, **kwargs).is_squarefree()


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion; 0 iff p | a.

    Raises ValueError unless p is an odd prime.
    """
    if p == 2 or p < 2 or not is_prime(p):
        raise ValueError(f"legendre requires an odd prime modulus, got {p}")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """Tonelli-Shanks square root of a modulo an odd prime p.

    Returns the smaller of the two roots, 0 when p | a, None when a is a
    non-residue.  Primality is checked once; the residue tests inside use
    Euler's criterion directly.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"sqrt_mod requires an odd prime modulus, got {p}")
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
    r = sqrt_mod(a % p, p)
    if r is None:
        return None
    if r == 0:
        raise ValueError("unit expected")
    pk = p
    while pk < p**k:
        pk_next = pk * pk
        # Newton step on x^2 - a; inverse of 2r exists since r is a unit.
        inv = pow(2 * r, -1, pk_next)
        r = (r - (r * r - a) * inv) % pk_next
        pk = pk_next
    return r % p**k


def valuation(x: int | Fraction, p: int) -> int:
    """Exact p-adic valuation of a nonzero rational."""
    if x == 0:
        raise ValueError("valuation of 0 is +infinity; callers must branch first")
    if isinstance(x, Fraction):
        return valuation(x.numerator, p) - valuation(x.denominator, p)
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v
