"""Square classes, the descent map, lemma filters, and 2-Selmer assembly.

Candidate pairs live in Q(S,2) x Q(S,2) where Q(S,2) is generated by [-1],
[2] and the odd bad primes.  The four torsion images span an order-4
subgroup H; each of the 4^(nbits-1) H-cosets has one representative with
b1 > 0 and b2 odd, so b1*b2 is never divisible by 4.  The five exclusion
rules are linear in those representatives and leave 2^(nbits-2) of them:
the descent indexes these survivors by their nbits-2 free bits and counts
the excluded cosets in closed form.  On the survivors every quadratic-symbol
necessary condition is a linear F2 form in the free bits, so the conditions
cut out a subgroup, the kernel of one homogeneous F2 system, and only that
kernel is enumerated; the survivors it rejects are counted in closed form
too.  Each solution then goes through local solvability at the bad places
S u {inf}: the real place and curve.s_primes, which is 2 and the odd bad
primes.  At ell it is membership of the pair's classes in Q_ell*/Q_ell*^2
in the local image delta_ell(E(Q_ell)/2E(Q_ell)), spanned by images of
actual points and built once per (A, Q, R, ell) by localsolve.local_image
(the proof is in selmer_group).  That membership is F2-linear in the masks:
the image is cut out by 2 linear forms at odd ell and 3 at 2, its
codimension, built once per place and context.  The members that pass are
a subgroup too, checked by one rank test.  An odd prime p outside
S needs no test, 3 included (3 | m for every admissible m >= 6).  There b1
and b2 are p-units, and up to sign the six 2x2 minors of the two diagonal
quadrics are b1*b2, b1^2*b2, b1*R, b1*b2^2, b2*Q and 2A*b1*b2 (A, Q, R =
m^4-1, m^4-1 -+ 4m^2), all units at p.  So the space is a smooth genus-1
curve mod p, Hasse-Weil gives it at least p + 1 - 2 sqrt(p) > 0 points
over F_p, and Hensel's lemma lifts one to Z_p.

Internally classes are bitmasks over the generator list, and a quadratic
character is the mask of the generators it sends to -1, so a symbol is a
popcount parity.  DescentContext is the interface to those pieces: the
generators of Q(S,2) (`gens`), the exclusion rules (`exclusion_reason`),
the symbol conditions (`necessary_failures`), the local classes at a bad
prime (`local_class`), the forms of the local images (`local_forms`) and
membership in them (`locally_solvable`) act on mask pairs, and
selmer_group re-checks the rules and conditions on every enumerated
candidate; `coset_reps` lists every coset, the brute-force reference for
`survivor_reps`, and `survivor_reps` is the reference for
`symbol_solutions`.
`rank_lower_bound` certifies rank >= 2 from the images of the torsion and of
the points (0, t) and (n1, t).  `_f2_eliminate` is the one F2 eliminator,
and localsolve's `_f2_reduce` tests membership in an echelon basis.
selmer_group is the one descent entry point; the witnesses of a pair it
returns, points of E(Q_ell) in the pair's classes, are found by decide_local
when the pair's `local_evidence` is first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .curve import RationalPoint, contains
from .family import CurveParams
from .localsolve import (
    _f2_reduce, _val_unit, decide_local, local_image, real_solvable,
)
from .numtheory import _legendre_prime, factorize


class SquarefreePrecondition(RuntimeError):
    """m^4 - 1 + 4m^2 is not squarefree; the exclusion lemmas assume it is."""


class UnsupportedClass(ValueError):
    """A square class has support outside the allowed generator set."""


@dataclass(frozen=True)
class SquareClass:
    """Element of Q*/(Q*)^2: a sign times a squarefree product of primes."""

    sign: int
    primes: tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        if any(self.primes[i] >= self.primes[i + 1] for i in range(len(self.primes) - 1)):
            raise ValueError("primes must be strictly increasing")

    @property
    def value(self) -> int:
        out = self.sign
        for p in self.primes:
            out *= p
        return out

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        sym = set(self.primes) ^ set(other.primes)
        return SquareClass(self.sign * other.sign, tuple(sorted(sym)))

    def __repr__(self) -> str:
        return f"[{self.value}]"


IDENTITY_CLASS = SquareClass(1, ())


def square_class(n: int) -> SquareClass:
    """Squarefree kernel of a nonzero integer as a SquareClass.

    Any support is allowed; DescentContext.mask_of_class raises
    UnsupportedClass for a class outside a curve's Q(S,2).
    """
    if n == 0:
        raise ValueError("square class of 0 undefined")
    sign = 1 if n > 0 else -1
    odd_part = tuple(p for p, e in factorize(abs(n)).factors if e % 2 == 1)
    return SquareClass(sign, odd_part)


@dataclass
class DescentPair:
    """Candidate ([b1], [b2]) with its pipeline status and evidence.

    status: undecided | excluded | member.  reason is set for an excluded
    pair (the place where it is locally unsolvable).  context is set on the
    pairs selmer_group makes, and their local_evidence is computed from it
    on first read.
    """

    b1: SquareClass
    b2: SquareClass
    status: str = "undecided"
    reason: str | None = None
    context: DescentContext | None = field(default=None, repr=False, compare=False)

    def key(self) -> tuple[int, int]:
        return (self.b1.value, self.b2.value)

    @functools.cached_property
    def local_evidence(self) -> dict:
        """Verdicts by place: inf, then curve.s_primes in order up to the
        first unsolvable place, from decide_local; a solvable finite one
        carries its witness, a point of E(Q_ell) in exactly this pair's
        classes.  Empty without a context.

        decide_local and selmer_group read the one local image,
        localsolve.local_image; decide_local places the pair in it by the
        classes of its values, the context by the image's linear forms on
        its masks.  Each verdict is asserted to agree with the context's, so
        a member's evidence is solvable at every place and an excluded
        pair's ends at the place its reason names.
        """
        if self.context is None:
            return {}
        ctx, b1, b2 = self.context, self.b1.value, self.b2.value
        c = ctx.curve
        b1m, b2m = ctx.mask_of_class(self.b1), ctx.mask_of_class(self.b2)
        evidence = {math.inf: real_solvable(b1, b2)}
        for ell in c.s_primes:
            verdict = decide_local(b1, b2, c.a_value, c.q_value, c.r_value, ell)
            if verdict.is_solvable != ctx.locally_solvable(b1m, b2m, ell):
                raise AssertionError(
                    f"decide_local finds ({b1}, {b2}) {verdict.outcome} at {ell}, "
                    f"against its local image, for m={c.m}")
            evidence[ell] = verdict
            if not verdict.is_solvable:
                break
        return evidence


@dataclass(frozen=True)
class RuleTally:
    """Number of coset representatives that one exclusion rule rejects first,
    or that the symbol conditions reject after all five rules."""

    reason: str
    count: int


@dataclass(frozen=True)
class SelmerResult:
    curve: CurveParams
    members: tuple[DescentPair, ...]
    size_log2: int
    s2: int
    theorem_w: int
    corollary_value: int | None
    status_counts: dict


class DescentContext:
    """Bitmask arithmetic and symbol tables for one curve's Q(S,2)."""

    def __init__(self, curve: CurveParams):
        self.curve = curve
        self.gens: tuple[int, ...] = (-1, 2) + curve.p_primes + curve.q_primes + curve.r_primes
        self.index = {g: i for i, g in enumerate(self.gens)}
        self.nbits = len(self.gens)
        self.sign_bit = 1 << 0
        self.two_bit = 1 << 1

        def mask_of(primes):
            return sum(1 << self.index[p] for p in primes)

        self.p_mask = mask_of(curve.p_primes)
        self.q_mask = mask_of(curve.q_primes)
        self.r_mask = mask_of(curve.r_primes)
        # Odd generators congruent to 3 mod 4, and to 5 or 7 mod 8 (the sign
        # acts like 7): the two characters of (Z/8)*, with kernels {1, 5}
        # and {1, 3}.
        self.mod4_mask = self.sign_bit | mask_of(g for g in self.gens[2:] if g % 4 == 3)
        self.mod8_mask = self.sign_bit | mask_of(g for g in self.gens[2:] if g % 8 >= 5)

        def odd_mask(n, primes):  # the class of n > 0 supported on primes
            return mask_of(p for p in primes if _val_unit(n, p)[0] % 2)

        # Torsion images phi(T) as mask pairs: h2 = (2AQ, 2A), h4 = (-Q, R)
        # and their product (-2A, 2AR).
        # A = (m-1)(m+1)(m^2+1) is squarefree, but Q or R may not be.
        q_cls = odd_mask(curve.q_value, curve.q_primes)
        pa = self.two_bit | self.p_mask
        self.h2 = (pa | q_cls, pa)
        self.h4 = (self.sign_bit | q_cls, odd_mask(curve.r_value, curve.r_primes))
        # Images of (0, t) and (n1, t): ([-A], [A]) and ([2(m^2+1)], [2(m^2+1)]).
        b = self.two_bit | odd_mask(curve.m**2 + 1, curve.p_primes)
        self.point_images = ((self.sign_bit | self.p_mask, self.p_mask), (b, b))
        # Per-instance, so that no cache outlives the context.
        self._forms: dict[int, tuple[tuple[int, int], ...]] = {}

    @functools.cached_property
    def nonres(self) -> dict[int, int]:
        """Quadratic characters: for each odd bad prime pi, the mask of the
        generators other than pi that are non-residues mod pi."""
        return {pi: sum(1 << i for i, g in enumerate(self.gens)
                        if g != pi and _legendre_prime(g, pi) == -1)
                for pi in self.gens[2:]}

    # -- mask <-> class ------------------------------------------------------

    def mask_of_class(self, cls: SquareClass) -> int:
        m = 0 if cls.sign == 1 else self.sign_bit
        for p in cls.primes:
            if p not in self.index:
                raise UnsupportedClass(f"prime {p} outside the generator set")
            m |= 1 << self.index[p]
        return m

    def class_of_mask(self, mask: int) -> SquareClass:
        sign = -1 if mask & self.sign_bit else 1
        primes = tuple(
            sorted(self.gens[i] for i in range(1, self.nbits) if mask >> i & 1)
        )
        return SquareClass(sign, primes)

    def value_of_mask(self, mask: int) -> int:
        out = -1 if mask & self.sign_bit else 1
        for i in range(1, self.nbits):
            if mask >> i & 1:
                out *= self.gens[i]
        return out

    def chi(self, pi: int, mask: int) -> int:
        """Legendre symbol at pi of the class `mask` with pi's own bit
        ignored: of the value if pi does not divide it, else of its unit part."""
        return -1 if (mask & self.nonres[pi]).bit_count() & 1 else 1

    def mod4(self, mask: int) -> int:
        """Residue mod 4 of the odd part of a class value."""
        return 3 if (mask & self.mod4_mask).bit_count() & 1 else 1

    def local_class(self, mask: int, ell: int) -> tuple[int, int]:
        """The class of the value of `mask` in Q_ell*/Q_ell*^2, ell a bad prime:
        (v_ell mod 2, Legendre symbol of the unit part) at odd ell and
        (v_2 mod 2, unit part mod 8) at 2."""
        if ell == 2:
            return mask >> 1 & 1, self.mod4(mask) + 4 * ((mask & self.mod8_mask).bit_count() & 1)
        return mask >> self.index[ell] & 1, self.chi(ell, mask)

    def local_forms(self, ell: int) -> tuple[tuple[int, int], ...]:
        """The F2 linear forms (u, v) on mask pairs that cut out the local
        image at the bad prime ell: a pair is in it iff every
        (b1m & u) ^ (b2m & v) has even popcount.

        The coordinates of localsolve._pair_bits are such forms: v_ell mod 2
        and the non-residue bit of each side at odd ell, v_2 mod 2 and the
        two characters of the unit mod 8 at 2.  Reduction by the echelon
        basis of localsolve.local_image is F2-linear, so each bit of the
        reduced vector is a sum of coordinates, one form; the nonzero ones
        number the codimension of the image, 2 of 4 at odd ell and 3 of 6 at
        2.  Kept per place for the life of the context.
        """
        forms = self._forms.get(ell)
        if forms is None:
            c = self.curve
            basis = local_image(c.a_value, c.q_value, c.r_value, ell)
            if ell == 2:
                coords = (self.two_bit, self.mod4_mask, self.mod8_mask)
            else:
                coords = (1 << self.index[ell], self.nonres[ell])
            rows: dict[int, tuple[int, int]] = {}  # reduced bit -> form
            for i, (u, v) in enumerate([(u, 0) for u in coords] + [(0, v) for v in coords]):
                reduced = _f2_reduce(basis, 1 << i)
                for bit in range(reduced.bit_length()):
                    if reduced >> bit & 1:
                        ru, rv = rows.get(bit, (0, 0))
                        rows[bit] = (ru ^ u, rv ^ v)
            if len(rows) != len(coords):
                raise AssertionError(
                    f"the local image at {ell} is cut out by {len(rows)} forms, "
                    f"not {len(coords)}, for m={c.m}")
            forms = self._forms[ell] = tuple(rows.values())
        return forms

    def locally_solvable(self, b1m: int, b2m: int, ell: int) -> bool:
        """Whether the pair's space has a Q_ell-point, ell a bad prime: whether
        its local classes lie in localsolve.local_image (proof in
        selmer_group), decided by the image's local_forms."""
        for u, v in self.local_forms(ell):
            if ((b1m & u) ^ (b2m & v)).bit_count() & 1:
                return False
        return True

    # -- coset machinery ------------------------------------------------------

    def canonical_rep(self, b1m: int, b2m: int) -> tuple[int, int]:
        """The H-coset representative with b1 > 0 and b2 odd."""
        if b2m & self.two_bit:
            b1m ^= self.h2[0]
            b2m ^= self.h2[1]
        if b1m & self.sign_bit:
            b1m ^= self.h4[0]
            b2m ^= self.h4[1]
        return b1m, b2m

    def rep_of_index(self, idx: int) -> tuple[int, int]:
        """Representative #idx: b1 ranges over subsets of the gens minus the
        sign (a contiguous shift), b2 over subsets of the gens minus 2."""
        half = 1 << (self.nbits - 1)
        a, b = divmod(idx, half)
        b1m = a << 1
        b2m = (b & 1) | (b >> 1) << 2
        return b1m, b2m

    def coset_reps(self) -> Iterator[tuple[int, int]]:
        """All 4^(1 + #odd bad primes) coset representatives, in index order."""
        for idx in range(self.coset_count()):
            yield self.rep_of_index(idx)

    def coset_count(self) -> int:
        return 1 << (2 * (self.nbits - 1))

    def survivor_reps(self) -> Iterator[tuple[int, int]]:
        """The 2^(nbits-2) coset representatives that no exclusion rule rejects.

        Rules (i), (ii) and (v) clear b2's sign bit, b2's q-bits and b1's
        2-bit; (iii) clears b1's r-bits and (iv) makes the p-bits of b1 and
        b2 agree.  So b1 runs over the subsets of the p- and q-primes (the
        contiguous bits above the 2-bit), and b2 is b1's p-part times any
        subset of the r-primes (the bits above those).
        """
        for idx in range(1 << (self.nbits - 2)):
            yield self.survivor_rep(idx)

    def survivor_rep(self, idx: int) -> tuple[int, int]:
        """Survivor #idx; the map is F2-linear in the bits of idx."""
        pq = len(self.curve.p_primes) + len(self.curve.q_primes)
        b1m = (idx & ((1 << pq) - 1)) << 2
        return b1m, (b1m & self.p_mask) | ((idx >> pq) << (2 + pq))

    def exclusion_counts(self) -> dict[str, int]:
        """How many coset representatives each rule (i)-(v) rejects first.

        Closed form: a rule forcing k free bits to zero keeps 1/2^k of the
        representatives the earlier rules left, independently of them.
        """
        forced = (
            ("(i) b2 < 0", 1),
            ("(ii) b2 = 0 mod q_i", len(self.curve.q_primes)),
            ("(iii) b1 = 0 mod r_i", len(self.curve.r_primes)),
            ("(iv) v_p(b1*b2) = 1", len(self.curve.p_primes)),
            ("(v) b1*b2 = 2 mod 4", 1),
        )
        left = self.coset_count()
        out = {}
        for reason, k in forced:
            out[reason] = left - (left >> k)
            left >>= k
        return out

    # -- pipeline pieces -------------------------------------------------------

    def exclusion_reason(self, b1m: int, b2m: int) -> str | None:
        """First exclusion rule that fires, in the printed order (i)-(v)."""
        if b2m & self.sign_bit:
            return "(i) b2 < 0"
        if b2m & self.q_mask:
            return "(ii) b2 = 0 mod q_i"
        if b1m & self.r_mask:
            return "(iii) b1 = 0 mod r_i"
        if (b1m ^ b2m) & self.p_mask:
            return "(iv) v_p(b1*b2) = 1"
        if (b1m ^ b2m) & self.two_bit:
            return "(v) b1*b2 = 2 mod 4"
        return None

    def necessary_failures(self, b1m: int, b2m: int) -> list[str]:
        """Violated symbol conditions, assuming no exclusion rule fired."""
        out = []
        both = b1m & b2m & self.p_mask
        neither = ~(b1m | b2m)
        for p in self.curve.p_primes:
            bit = 1 << self.index[p]
            if both & bit:
                # The class of b1*b2/p^2 is the symmetric difference of the
                # masks (the shared p-bit squares away); prepend a sign flip.
                val = self.chi(p, self.sign_bit) * self.chi(p, b1m ^ b2m)
                if val != 1:
                    out.append(f"(i) chi_{p}(-b1*b2/p^2) != 1")
            elif neither & bit:
                if self.chi(p, b1m) != self.chi(p, b2m):
                    out.append(f"(i) chi_{p}(b1) != chi_{p}(b2)")
        for q in self.curve.q_primes:
            target = self.chi(q, self.two_bit) if b1m >> self.index[q] & 1 else 1
            if self.chi(q, b2m & ~(1 << self.index[q])) != target:
                out.append(f"(ii) chi_{q}(b2) condition")
        for r in self.curve.r_primes:
            target = self.chi(r, self.two_bit) if b2m >> self.index[r] & 1 else 1
            if self.chi(r, b1m & ~(1 << self.index[r])) != target:
                out.append(f"(iii) chi_{r}(b1) condition")
        if self.mod4(b1m) != 1:
            out.append("(iv) b1 != 1 mod 4")
        return out

    def symbol_solutions(self) -> tuple[int, list[int]]:
        """(rank, ascending indices of the survivors passing every condition).

        On a survivor of rules (i)-(v) the p-bits of b1 and b2 agree and b2
        has no q-bits, so each condition of necessary_failures fails exactly
        when (b1 & u) ^ (b2 & v) has odd popcount for a mask pair (u, v):
        one per p-, q- and r-prime, then b1 = 1 mod 4.  survivor_rep is
        F2-linear and survivor 0 is the identity pair, so each condition is
        a linear F2 form in the nbits-2 index bits.  Its values at the unit
        vectors give a homogeneous system; the solutions are its kernel,
        2^(nbits-2-rank) indices.
        """
        c, nr = self.curve, self.nonres

        def odd(pi, gen_bit):  # pi's own bit when the generator is a non-residue
            return 1 << self.index[pi] if nr[pi] & gen_bit else 0

        forms = (
            [(nr[p] ^ odd(p, self.sign_bit), nr[p]) for p in c.p_primes]
            + [(odd(q, self.two_bit), nr[q]) for q in c.q_primes]
            + [(nr[r], odd(r, self.two_bit)) for r in c.r_primes]
            + [(self.mod4_mask, 0)]
        )

        def row(idx):
            b1m, b2m = self.survivor_rep(idx)
            return sum((((b1m & u) ^ (b2m & v)).bit_count() & 1) << j
                       for j, (u, v) in enumerate(forms))

        rank, kernel = _f2_eliminate([row(1 << i) for i in range(self.nbits - 2)])
        solutions = [0]
        for k in kernel:
            solutions += [s ^ k for s in solutions]
        return rank, sorted(solutions)

    def rank_lower_bound(self) -> int:
        """Mordell-Weil rank >= 2, certified by F2 linear algebra.

        The descent map is injective on E(Q)/2E(Q), of dimension r + 2 (all
        2-torsion is rational), so r >= dim span(h2, h4, point_images) - 2.
        That span has dimension 4 for every admissible m: [R] occurs only in
        h4, [Q] only in h2 and h4, and neither is a square (each is k^2 - 5
        with k = m^2 -+ 2 > 3); -1 is in the image of (0, t) but not of
        (n1, t), and 2 the other way round.
        """
        images = (self.h2, self.h4) + self.point_images
        dim, _ = _f2_eliminate([b1m << self.nbits | b2m for b1m, b2m in images])
        if dim != 4:
            raise AssertionError(f"the images of T1, T2, (0, t), (n1, t) span "
                                 f"dimension {dim}, not 4, for m={self.curve.m}")
        return dim - 2

    def local_places(self) -> tuple[int, ...]:
        """The finite places tested: the bad primes, 2 first, then ascending."""
        return self.curve.s_primes


def _f2_eliminate(vectors: list[int]) -> tuple[int, list[int]]:
    """(rank, kernel) of F2 vectors given as bitmasks.

    Column elimination on leading bits.  The kernel is a basis of the
    combinations that sum to zero, each a bitmask over the input positions.
    """
    basis: dict[int, tuple[int, int]] = {}  # leading bit -> (vector, combo)
    kernel = []
    for i, vec in enumerate(vectors):
        combo = 1 << i
        while vec and vec.bit_length() - 1 in basis:
            v, k = basis[vec.bit_length() - 1]
            vec, combo = vec ^ v, combo ^ k
        if vec:
            basis[vec.bit_length() - 1] = (vec, combo)
        else:
            kernel.append(combo)
    return len(basis), kernel


def phi_image(curve: CurveParams, pt: RationalPoint) -> DescentPair:
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


def selmer_group(
    curve: CurveParams,
    *,
    observer: Callable[[RuleTally | DescentPair], None] | None = None,
) -> SelmerResult:
    """Full 2-Selmer computation: filters, symbols, certified local tests.

    Refuses when m^4-1+4m^2 is not squarefree (a hypothesis of the exclusion
    lemmas), and raises rather than guess when a local image cannot be
    completed.  s2 satisfies |Sel| = 2^(2+s2) where |Sel| counts 4 elements
    per member coset.

    Local solvability at a bad prime ell is membership in a subgroup: the
    space of (b1, b2) has a Q_ell-point iff the pair of classes of b1 and b2
    in Q_ell*/Q_ell*^2 lies in the image of the local descent map delta_ell,
    which is injective on E(Q_ell)/2E(Q_ell) and so has the known order
    |E(Q_ell)[2]| / |2|_ell, 4 at odd ell and 8 at 2.  localsolve.local_image
    spans that image by images of actual points, rational ones and points
    of E(Q_ell) it finds, and raises unless the span reaches the full order;
    it is built once per (A, Q, R, ell).  So a pair whose local vector lies
    in the span is the image of a product of those points and is solvable;
    and since the span is the whole image, a pair outside it is unsolvable.
    A pair's witnesses, the first points of the same search in its classes,
    are found by decide_local when its `local_evidence` is read, which
    asserts that the verdicts from the classes of the pair's values agree
    with the context's, from its masks.

    Asserts what the mathematics gives: every symbol solution is solvable at
    the real place (rule (i) makes b2 > 0), and the images of rational
    points span no more than dim E(Q_ell)/2E(Q_ell) at any place.

    The observer first receives one RuleTally per exclusion rule and one for
    the symbol conditions, then every candidate passing them as a DescentPair.
    """
    if not curve.r_squarefree:
        raise SquarefreePrecondition(
            f"m^4-1+4m^2 = {curve.r_value} is not squarefree for m={curve.m}"
        )
    ctx = DescentContext(curve)
    places = ctx.local_places()
    rule_counts = ctx.exclusion_counts()
    rank, solutions = ctx.symbol_solutions()
    symbol_fails = (1 << (ctx.nbits - 2)) - len(solutions)
    if observer:
        for reason, count in rule_counts.items():
            observer(RuleTally(reason, count))
        observer(RuleTally(f"necessary_fail (symbol system of F2 rank {rank})",
                           symbol_fails))
    counts = {"excluded": sum(rule_counts.values()), "necessary_fail": symbol_fails,
              "member": 0}
    members: list[DescentPair] = []
    member_masks = []  # b1m << nbits | b2m
    for idx in solutions:
        b1m, b2m = ctx.survivor_rep(idx)
        b1, b2 = ctx.value_of_mask(b1m), ctx.value_of_mask(b2m)
        reason = (ctx.exclusion_reason(b1m, b2m)
                  or "; ".join(ctx.necessary_failures(b1m, b2m)))
        if reason:
            raise AssertionError(
                f"symbol solution ({b1}, {b2}) fails {reason} for m={curve.m}")
        if not real_solvable(b1, b2).is_solvable:
            raise AssertionError(
                f"symbol solution ({b1}, {b2}) is not real-solvable for m={curve.m}")
        pair = DescentPair(ctx.class_of_mask(b1m), ctx.class_of_mask(b2m), context=ctx)
        for ell in places:
            if not ctx.locally_solvable(b1m, b2m, ell):
                pair.status = "excluded"
                pair.reason = f"locally unsolvable at {ell}"
                counts["excluded"] += 1
                break
        else:
            pair.status = "member"
            counts["member"] += 1
            members.append(pair)
            member_masks.append(b1m << ctx.nbits | b2m)
        if observer:
            observer(pair)

    members.sort(key=lambda p: p.key())
    # Survivor reps are canonical (b1 > 0, b2 odd) and so is the XOR of two,
    # so XOR is the H-coset product.  The members lie in the 2^s2-element
    # span of their masks, and are that subgroup iff there are 2^s2 of them.
    s2, _ = _f2_eliminate(member_masks)
    if len(members) != 1 << s2:
        raise AssertionError(
            f"the {len(members)} member cosets are not a subgroup "
            f"(their masks span 2^{s2}) for m={curve.m}"
        )
    return SelmerResult(
        curve=curve,
        members=tuple(members),
        size_log2=2 + s2,
        s2=s2,
        theorem_w=theorem_lower_bound(curve),
        corollary_value=corollary_rank(curve),
        status_counts=counts,
    )


def theorem_lower_bound(curve: CurveParams) -> int:
    """Count of primes p | m^4-1 whose symbol pattern forces (p-ish, p) in Sel.

    p = 1 mod 4 needs (p/q_i) = (p/r_j) = 1 for all q_i, r_j; p = 3 mod 4
    needs (p/q_i) = (-p/r_j) = 1 instead.
    """
    w = 0
    for p in curve.p_primes:
        p_at_r = p if p % 4 == 1 else -p
        if all(_legendre_prime(p, q) == 1 for q in curve.q_primes) and all(
            _legendre_prime(p_at_r, r) == 1 for r in curve.r_primes
        ):
            w += 1
    return w


def corollary_rank(curve: CurveParams) -> int | None:
    """1 + #{p | m^4-1} when both m^4-1-4m^2 and m^4-1+4m^2 are prime, else None."""
    q_prime = len(curve.q_primes) == 1 and curve.q_primes[0] == curve.q_value
    r_prime = len(curve.r_primes) == 1 and curve.r_primes[0] == curve.r_value
    if q_prime and r_prime:
        return len(curve.p_primes) + 1
    return None
