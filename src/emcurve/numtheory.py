"""Exact integer arithmetic: primality, factorization, quadratic residues.

Everything here is deterministic for a fixed seed.  Primality is
Miller-Rabin on the shortest prefix of the primes 2..41 proven to admit no
strong pseudoprime below n's size, which covers every n below 3.3e24 and
so every integer this package ever has to classify at desk scale; beyond
that a seeded 64-round probabilistic test takes over.  Factorization is
trial division below 2^10, then a Brent-cycle Pollard rho slice that takes
most factors below 1e7, then ECM (Lenstra's elliptic curve method on
Montgomery curves, stage 2 with prime pairing): one curve at B1 = 450 for
the 8- to 10-digit factors, then the main schedule from B1 = 2000, all
under one work budget.  Both inner loops reduce mod n once per two
products (Montgomery, Math. Comp. 48, 1987): rho's block takes four
squarings per pass, and stage 2 multiplies its differences in pairs, on
baby steps built along the two chains prime to 6.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from . import DEFAULT_RHO_BUDGET

# (psi, k): the first k primes admit no strong pseudoprime below psi, the
# least one to all of them (Jaeschke, Math. Comp. 61, 1993; Sorenson and
# Webster, Math. Comp. 86, 2017).  The first 8 and the first 10 or 11 primes
# share their psi with the first 7 and the first 9.
_MR_PSI = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)

# Trial division stops here: rho finds any larger factor below 1e6 in about a
# thousand iterations, far fewer than the 78,498 primes below 1e6.
TRIAL_DIVISION_BOUND = 2**10

# Rho iterations per composite cofactor before ECM takes over.  Rho's cost
# grows like sqrt(p) and a curve's does not: 2^12 iterations find most
# factors below 1e7, and beyond that one B1 = 450 curve (4,229 units) is
# the cheaper way to an 8- to 10-digit factor.
_RHO_SLICE = 1 << 12
# ECM stage-1 bounds B1 with their curve counts.  _ECM_FIRST runs between
# the rho slice and _ECM_SCHEDULE, on a generator of its own, so that the
# main schedule draws the same sigma whether or not it ran.  The last stage
# of _ECM_SCHEDULE runs until the budget is spent.  Stage 2 reaches
# B2 = _ECM_B2_FACTOR * B1 in giant steps of D, against baby steps j < D/2
# coprime to D: at B1 = 2000, 96 baby and 238 giant steps.
_ECM_FIRST = ((450, 1),)
_ECM_SCHEDULE = ((2_000, 25), (11_000, 90), (50_000, None))
_ECM_B2_FACTOR = 100
_ECM_D = 840
_ECM_BABY = tuple(j for j in range(1, _ECM_D // 2, 2) if math.gcd(j, _ECM_D) == 1)


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

    Below 3.3e24 the bases are the shortest prefix of _SMALL_PRIMES that _MR_PSI
    proves for n, so composites are never reported prime there; beyond it 64
    seeded bases, drawn one by one until a witness turns up, bound the error
    probability by 4^-64.
    """
    if n < 0:
        raise ValueError("is_prime expects n >= 0")
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:15]:  # the primes to 47, before any modular power
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for psi, k in _MR_PSI:
        if n < psi:
            bases = _SMALL_PRIMES[:k]
            break
    else:
        rng = random.Random(f"mr:{seed}:{n}")
        bases = (rng.randrange(2, n - 1) for _ in range(64))
    return not any(_miller_rabin_composite_witness(a, n, d, s) for a in bases)


def _pollard_rho_brent(n: int, rng: random.Random, budget: int) -> tuple[int | None, int]:
    """One Brent-cycle rho attempt.  Returns (factor or None, iterations used).

    Iterations are the products x - y taken into the gcd, plus backtrack
    steps.  A block of r products starts only if all r fit the budget, since
    its r-squaring advance would be wasted on a partial block; a failing
    attempt reports exactly the budget, never more.
    """
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
            steps = min(m, r - k)
            # Four squarings per pass, their four products folded into q
            # with two reductions; q mod n, and so each gcd, is unchanged.
            for _ in range(steps >> 2):
                y1 = (y * y + c) % n
                y2 = (y1 * y1 + c) % n
                y3 = (y2 * y2 + c) % n
                y = (y3 * y3 + c) % n
                q = q * (x - y1) * (x - y2) % n
                q = q * (x - y3) * (x - y) % n
            for _ in range(steps & 3):
                y = (y * y + c) % n
                q = q * (x - y) % n
            used += steps
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        # Backtrack one step at a time from the last saved position.
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
    plus, minus = u + v, u - v
    return zd * plus * plus % n, xd * minus * minus % n


def _ladder(k: int, x: int, a24: int, n: int) -> tuple[int, int]:
    """Montgomery ladder from P = (x : 1): kP for k >= 1.

    Each bit of k costs one _xadd with difference P and one _xdbl, written
    out in the loop so that no step makes a call; a set bit swaps the two
    points before and after, so both branches share one body.
    """
    x0, z0 = x, 1
    x1, z1 = _xdbl(x, 1, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
        p, m = x0 + z0, x0 - z0
        u = (x1 - z1) * p % n
        v = (x1 + z1) * m % n
        plus, minus = u + v, u - v
        x1, z1 = plus * plus % n, x * minus * minus % n
        s, d = p * p % n, m * m % n
        t = s - d
        x0, z0 = s * d % n, t * (d + a24 * t) % n
        if bit == "1":
            x0, z0, x1, z1 = x1, z1, x0, z0
    return x0, z0


def _affine_x(points: list[tuple[int, int]], n: int) -> tuple[list[int] | None, int]:
    """X/Z mod n for every (X : Z) in points, with one modular inverse.

    Montgomery's simultaneous inversion: the inverse of the product of all Z,
    unwound through the prefix products, costs three products per point.
    Returns (xs, 1), or (None, g) when some Z is not a unit mod n; g is then
    gcd(Z, n) for such a Z, a proper factor of n unless every such Z is 0.
    """
    prefix = []
    acc = 1
    for _, z in points:
        prefix.append(acc)
        acc = acc * z % n
    g = math.gcd(acc, n)
    if g == n:
        g = next((h for _, z in points if 1 < (h := math.gcd(z, n)) < n), n)
    if g != 1:
        return None, g
    inv = pow(acc, -1, n)
    xs = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, z = points[i]
        xs[i] = x * inv * prefix[i] % n
        inv = inv * z % n
    return xs, 1


def _odd_prime_flags(limit: int) -> bytearray:
    """flags[i] is 1 iff 2i + 1 is prime, for 2i + 1 <= limit (Eratosthenes)."""
    flags = bytearray([1]) * ((limit + 1) // 2)
    flags[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(flags), p)))
    return flags


# The 172 primes below TRIAL_DIVISION_BOUND: trial division's divisors,
# is_prime's screen and Miller-Rabin bases, and torsion's small primes.
_SMALL_PRIMES = (2,) + tuple(
    2 * i + 1 for i, prime in enumerate(_odd_prime_flags(TRIAL_DIVISION_BOUND)) if prime)


@functools.lru_cache(maxsize=None)
def _stage1_multiplier(b1: int) -> int:
    """Product over primes p <= b1 of the largest power of p not above b1."""
    k = 1 << (b1.bit_length() - 1)
    for i, prime in enumerate(_odd_prime_flags(b1)):
        if prime:
            p = q = 2 * i + 1
            while q * p <= b1:
                q *= p
            k *= q
    return k


def _ecm_stage2_span(b1: int) -> range:
    """Giant steps k: every prime in (b1, _ECM_B2_FACTOR * b1] is k*D +- j.

    Needs b1 >= D/2, since a prime below D/2 is 0*D + j and k starts at 1.
    """
    return range(max(1, b1 // _ECM_D), _ECM_B2_FACTOR * b1 // _ECM_D + 2)


@functools.lru_cache(maxsize=None)
def _ecm_pairs(b1: int) -> tuple[bytes, ...]:
    """Stage-2 prime pairing: for each k of _ecm_stage2_span(b1), the indices
    i into _ECM_BABY with k*D - j or k*D + j a prime in (b1, B2], where
    j = _ECM_BABY[i] and B2 = _ECM_B2_FACTOR * b1.

    Built on the first curve at this b1 (14,214 pairs out of 22,848 at
    b1 = 2000), never at import.
    """
    span = _ecm_stage2_span(b1)
    b2 = _ECM_B2_FACTOR * b1
    odd = _odd_prime_flags(span[-1] * _ECM_D + _ECM_D // 2)

    def stage2_prime(l: int) -> bool:
        return b1 < l <= b2 and odd[l // 2]

    return tuple(
        bytes(i for i, j in enumerate(_ECM_BABY)
              if stage2_prime(k * _ECM_D - j) or stage2_prime(k * _ECM_D + j))
        for k in span
    )


def _ecm_cost(b1: int) -> int:
    """Budget units of one curve: ladder steps plus stage-2 products."""
    return _stage1_multiplier(b1).bit_length() + sum(map(len, _ecm_pairs(b1)))


def _ecm_curve(n: int, sigma: int, b1: int) -> int:
    """One ECM curve with Suyama parameter sigma; gcd(n, result), maybe 1 or n.

    Stage 1 multiplies the start point by every prime power up to b1.  Stage 2
    catches one further prime l <= _ECM_B2_FACTOR * b1: writing l = k*D +- j,
    l*Q = 0 (mod p) makes x(kDQ) - x(jQ) vanish mod p, so the product runs
    over the pairs (k, j) of _ecm_pairs, on the baby steps jQ and the giant
    steps kDQ, all brought to Z = 1 by one _affine_x.  A Z that is not a
    unit mod n ends the curve with its gcd.  Which Z vanish mod a prime p
    depends on the addition chain once Q has a small order mod p: when
    that holds for two primes of n, another chain may return the other
    proper factor.
    """
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    den = 16 * pow(u, 3, n) * v % n
    g = math.gcd(den, n)
    if g != 1:
        return g
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
    # The start point (u^3 : v^3), at Z = 1; v is a unit since den is.
    x, z = _ladder(_stage1_multiplier(b1), pow(u * pow(v, -1, n), 3, n), a24, n)
    g = math.gcd(z, n)
    if g != 1:
        return g
    # chain[j] = jQ for j = 1, 5 (mod 6) up to (D/2 + 1) Q: two chains of
    # differential additions of 6Q, which hold every baby step.
    x2, z2 = _xdbl(x, z, a24, n)
    x3, z3 = _xadd(x2, z2, x, z, x, z, n)
    x5, z5 = _xadd(x3, z3, x2, z2, x, z, n)
    x6, z6 = _xdbl(x3, z3, a24, n)
    chain = {1: (x, z), 5: (x5, z5),
             7: _xadd(x6, z6, x, z, x5, z5, n), 11: _xadd(x6, z6, x5, z5, x, z, n)}
    for j in range(13, _ECM_D // 2 + 2, 2):
        if j % 3:
            chain[j] = _xadd(*chain[j - 6], x6, z6, *chain[j - 12], n)
    # DQ = (D/2 + 1) Q + (D/2 - 1) Q, then kDQ for k up to the span's end.
    span = _ecm_stage2_span(b1)
    xd, zd = _xadd(*chain[_ECM_D // 2 + 1], *chain[_ECM_D // 2 - 1], x2, z2, n)
    giant = [(xd, zd), _xdbl(xd, zd, a24, n)]
    while len(giant) < span[-1]:
        giant.append(_xadd(*giant[-1], xd, zd, *giant[-2], n))
    xs, g = _affine_x([chain[j] for j in _ECM_BABY] + giant[span.start - 1 :], n)
    if g != 1:
        return g
    baby, giant_xs = xs[: len(_ECM_BABY)], xs[len(_ECM_BABY) :]
    acc = 1
    for xk, ks in zip(giant_xs, _ecm_pairs(b1)):
        for i, j in zip(ks[::2], ks[1::2]):
            acc = acc * (xk - baby[i]) * (xk - baby[j]) % n
        if len(ks) & 1:
            acc = acc * (xk - baby[ks[-1]]) % n
    return math.gcd(acc, n)


def _ecm(
    n: int,
    rng: random.Random,
    budget: int,
    schedule: tuple[tuple[int, int | None], ...] = _ECM_SCHEDULE,
) -> tuple[int | None, int]:
    """ECM curves along schedule until one splits n, budget runs out or a
    finite schedule ends.

    Returns (factor or None, budget units used).  A curve is only started if
    its whole cost still fits the budget.
    """
    used = 0
    for b1, curves in schedule:
        cost = _ecm_cost(b1)
        for _ in itertools.count() if curves is None else range(curves):
            if used + cost > budget:
                return None, used
            used += cost
            g = _ecm_curve(n, rng.randrange(6, n - 1), b1)
            if 1 < g < n:
                return g, used
    return None, used


def _split(c: int, seed: int, budget: int) -> tuple[int | None, int]:
    """A proper factor of the composite c, or None once budget runs out.

    Returns (factor or None, budget units used).  Brent rho gets the first
    _RHO_SLICE iterations, then one ECM curve at B1 = 450 (_ECM_FIRST),
    then _ECM_SCHEDULE takes the rest, since a curve's cost does not grow
    with p as rho's sqrt(p) does.  Rho and the main schedule draw from
    Random("rho:{seed}:{c}"), the first curve from Random("ecm:{seed}:{c}").
    """
    rng = random.Random(f"rho:{seed}:{c}")
    used = 0
    factor = None
    rho_budget = min(_RHO_SLICE, budget)
    while factor is None and used < rho_budget:
        factor, spent = _pollard_rho_brent(c, rng, rho_budget - used)
        used += spent
    if factor is None:
        first = random.Random(f"ecm:{seed}:{c}")
        factor, spent = _ecm(c, first, budget - used, _ECM_FIRST)
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

    Trial division below 2^10, then on each composite cofactor a 2^12
    Brent rho slice, one ECM curve at B1 = 450 and the ECM schedule from
    B1 = 2000 (see _split).
    rho_budget is shared by every cofactor of n and counts rho iterations
    plus ECM ladder steps and the prime-paired stage-2 products.  Raises
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

    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    # Whatever survives trial division is prime, or a composite for _split.
    stack = [n] if n > 1 else []
    budget_left = rho_budget
    while stack:
        c = stack.pop()
        if is_prime(c, seed=seed):
            counts[c] = counts.get(c, 0) + 1
            continue
        factor, used = _split(c, seed, budget_left)
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

