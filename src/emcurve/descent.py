"""Square classes, the descent's F2 forms, and 2-Selmer assembly.

Candidate pairs live in Q(S,2) x Q(S,2) where Q(S,2) is generated by [-1],
[2] and the odd bad primes.  The four torsion images span an order-4
subgroup H; each of the 4^(nbits-1) H-cosets has one representative with
b1 > 0 and b2 odd, so b1*b2 is never divisible by 4.  Every condition of
the descent is an F2 linear form on mask pairs, that choice of
representative included (`kernel`): the five exclusion rules
(`rule_forms`), which leave 2^(nbits-2) representatives; each
quadratic-symbol necessary condition (`symbol_forms`); and local
solvability at each bad place of curve.s_primes, 2 and the odd bad primes.
At ell that is membership of the pair's classes in Q_ell*/Q_ell*^2 in the
local image delta_ell(E(Q_ell)/2E(Q_ell)), spanned by images of actual
points and built once per (A, Q, R, ell) by localsolve.local_image (the
proof is in selmer_group).  The image has codimension 2 at odd ell and 3 at
2, and is cut out by that many forms (`local_forms`): sums of the pair's
local coordinates, which localsolve._image_forms derives once per basis of
the image.  selmer_group takes the kernel of all these forms at once: the
members are its span, a subgroup by construction, and the rank after each
group of forms counts the cosets that group rejects.
The real place needs no form: rule (i) makes b2 > 0.  An odd prime p
outside S needs no test, 3 included (3 | m for every admissible m >= 6).
There b1 and b2 are p-units, and up to sign the six 2x2 minors of the two
diagonal quadrics are b1*b2, b1^2*b2, b1*R, b1*b2^2, b2*Q and 2A*b1*b2 (A,
Q, R = m^4-1, m^4-1 -+ 4m^2), all units at p.  So the space is a smooth
genus-1 curve mod p, Hasse-Weil gives it at least p + 1 - 2 sqrt(p) > 0
points over F_p, and Hensel's lemma lifts one to Z_p.

Internally classes are bitmasks over the generator list, and a quadratic
character is the mask of the generators it sends to -1, so a symbol is a
popcount parity.  DescentContext is the interface to those pieces: the
generators of Q(S,2) (`gens`), the exclusion rules (`exclusion_reason`),
the symbol conditions (`necessary_failures`) and the forms of the local
images (`local_forms`) act on mask pairs; `kernel` solves groups of forms on
mask pairs, and selmer_group re-checks the rules and conditions on every
member.
`rank_lower_bound` certifies rank >= 2 from the images of the torsion and of
the points (0, t) and (n1, t).  `_f2_eliminate` is the one F2 eliminator,
and localsolve's `_f2_reduce` tests membership in an echelon basis.
selmer_group is the one descent entry point.  Its result carries the
members' values, and the audit as data: `tallies`, the cosets each rule,
the symbol conditions and each bad place reject.  The member objects are
built when first read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .family import CurveParams
from .localsolve import _image_forms, _val_unit, local_image, real_solvable
from .numtheory import _legendre_prime


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


@dataclass
class DescentPair:
    """A pair ([b1], [b2]) of square classes."""

    b1: SquareClass
    b2: SquareClass


@dataclass(frozen=True)
class SelmerResult:
    """The descent's result.  values holds each member coset's representative
    (b1, b2) as ints, ascending; records and the selmer command read these.
    members holds the same pairs as DescentPair objects, in the same order;
    they are built from masks and context on first read, once.  tallies is
    the audit, in order: the coset representatives each exclusion rule
    (i)-(v) rejects first, those the symbol conditions reject after all five
    rules, then those each bad place rejects after those and the places
    before it, zeros included."""

    values: tuple[tuple[int, int], ...]
    size_log2: int
    s2: int
    theorem_w: int
    corollary_value: int | None
    status_counts: dict
    tallies: dict[str, int]
    masks: tuple[tuple[int, int], ...] = field(compare=False, repr=False)
    context: DescentContext = field(compare=False, repr=False)

    @functools.cached_property
    def members(self) -> tuple[DescentPair, ...]:
        ctx = self.context
        return tuple(DescentPair(ctx.class_of_mask(b1m), ctx.class_of_mask(b2m))
                     for b1m, b2m in self.masks)


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

    @functools.cached_property
    def nonres(self) -> dict[int, int]:
        """Quadratic characters: for each odd bad prime pi, the mask of the
        generators other than pi that are non-residues mod pi.  -1 and 2 are
        read off pi mod 8; a pair of odd generators takes one Legendre symbol,
        mod the smaller prime, and quadratic reciprocity gives the other."""
        odd = self.gens[2:]
        out = {pi: (pi % 4 == 3) | (pi % 8 in (3, 5)) << 1 for pi in odd}
        for i, p in enumerate(odd):
            for q in odd[i + 1:]:
                lo, hi = min(p, q), max(p, q)
                at_lo = _legendre_prime(hi, lo) == -1
                out[lo] |= at_lo << self.index[hi]
                out[hi] |= (at_lo ^ (p % 4 == q % 4 == 3)) << self.index[lo]
        return out

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

    def local_forms(self, ell: int) -> tuple[tuple[int, int], ...]:
        """The F2 linear forms (u, v) on mask pairs that cut out the local
        image at the bad prime ell: a pair is in it iff every
        (b1m & u) ^ (b2m & v) has even popcount.

        The coordinates of localsolve._pair_bits are such forms: v_ell mod 2
        and the non-residue bit of each side at odd ell, v_2 mod 2 and the
        two characters of the unit mod 8 at 2.  localsolve._image_forms
        gives, once per echelon basis of localsolve.local_image, the sums of
        coordinates that cut the image out, as many as its codimension, 2 of
        4 at odd ell and 3 of 6 at 2; here coordinate i becomes its side's
        coords[i].
        """
        c = self.curve
        basis = local_image(c.a_value, c.q_value, c.r_value, ell)[0]
        if ell == 2:
            coords = (self.two_bit, self.mod4_mask, self.mod8_mask)
        else:
            coords = (1 << self.index[ell], self.nonres[ell])

        def over(mask):  # the sum of the coordinates set in mask
            out = 0
            for i, g in enumerate(coords):
                if mask >> i & 1:
                    out ^= g
            return out

        forms = tuple((over(u), over(v)) for u, v in _image_forms(basis, len(coords)))
        if len(forms) != len(coords):
            raise AssertionError(
                f"the local image at {ell} is cut out by {len(forms)} forms, "
                f"not {len(coords)}, for m={c.m}")
        return forms

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

    @functools.cached_property
    def symbol_table(self) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
        """The p-, q- and r-prime rows of the symbol conditions: for each
        prime pi, (pi, its bit, nonres[pi], 1 if g is a non-residue mod pi
        else 0), where g is -1 for a p-prime and 2 for a q- or r-prime."""
        def rows(primes, g):
            return tuple((pi, 1 << self.index[pi], self.nonres[pi], self.nonres[pi] >> g & 1)
                         for pi in primes)

        c = self.curve
        return rows(c.p_primes, 0), rows(c.q_primes, 1), rows(c.r_primes, 1)

    def necessary_failures(self, b1m: int, b2m: int) -> list[str]:
        """Violated symbol conditions, assuming no exclusion rule fired.

        Each condition is a Legendre symbol at a p-, q- or r-prime of b1, b2
        or -b1*b2/p^2 with that prime divided out, then b1 = 1 mod 4.  Each
        is read from symbol_table as a popcount parity: a symbol is -1 iff
        the class meets nonres[pi] in an odd number of bits, and nonres[pi]
        leaves out pi's own bit.  Returns the messages in that order.
        """
        p_rows, q_rows, r_rows = self.symbol_table
        out = []
        diff = b1m ^ b2m
        for p, bit, nr, sign_odd in p_rows:
            if diff & bit:  # p divides exactly one of b1, b2: no condition
                continue
            # Both or neither hold p.  chi_p(b1) * chi_p(b2) is chi_p of the
            # symmetric difference, the class of b1*b2/p^2 when both hold it
            # (the shared p-bit squares away); the sign flip adds chi_p(-1).
            odd = (diff & nr).bit_count() & 1
            if b1m & bit:
                if odd ^ sign_odd:
                    out.append(f"(i) chi_{p}(-b1*b2/p^2) != 1")
            elif odd:
                out.append(f"(i) chi_{p}(b1) != chi_{p}(b2)")
        for q, bit, nr, two_odd in q_rows:
            if (b2m & nr).bit_count() & 1 != (two_odd if b1m & bit else 0):
                out.append(f"(ii) chi_{q}(b2) condition")
        for r, bit, nr, two_odd in r_rows:
            if (b1m & nr).bit_count() & 1 != (two_odd if b2m & bit else 0):
                out.append(f"(iii) chi_{r}(b1) condition")
        if (b1m & self.mod4_mask).bit_count() & 1:
            out.append("(iv) b1 != 1 mod 4")
        return out

    def rule_forms(self) -> list[list[tuple[int, int]]]:
        """Exclusion rules (i)-(v) as five groups of F2 linear forms (u, v) on
        mask pairs: a coset representative passes a rule iff
        (b1m & u) ^ (b2m & v) has even popcount for every form of its group.
        (v) reads b1's 2-bit alone, since no representative's b2 has one."""
        def bits(primes):
            return [1 << self.index[p] for p in primes]

        c = self.curve
        return [
            [(0, self.sign_bit)],
            [(0, b) for b in bits(c.q_primes)],
            [(b, 0) for b in bits(c.r_primes)],
            [(b, b) for b in bits(c.p_primes)],
            [(self.two_bit, self.two_bit)],
        ]

    def symbol_forms(self) -> list[tuple[int, int]]:
        """The symbol conditions as F2 linear forms (u, v) on mask pairs.

        On a coset representative that passes rules (i)-(v) the p-bits of
        b1 and b2 agree and b2 has no q-bits, so each condition of
        necessary_failures fails exactly when (b1 & u) ^ (b2 & v) has odd
        popcount: one form per p-, q- and r-prime, then b1 = 1 mod 4.
        """
        p_rows, q_rows, r_rows = self.symbol_table
        return (
            [(nr ^ bit * odd, nr) for _, bit, nr, odd in p_rows]
            + [(bit * odd, nr) for _, bit, nr, odd in q_rows]
            + [(nr, bit * odd) for _, bit, nr, odd in r_rows]
            + [(self.mod4_mask, 0)]
        )

    def kernel(self, groups) -> tuple[list[int], list[int]]:
        """(rank of groups 0..k for each k, kernel basis) of ordered groups of
        F2 linear forms (u, v) on mask pairs, solved over the pairs with
        b1 > 0 and b2 odd: one per H-coset.

        Column j is bit j of u << nbits | v, one generator on one side, so a
        form's set bits fill the rows.  The coset choice is two more forms,
        (sign_bit, 0) and (0, two_bit), put first and left out of the ranks.
        Each basis vector is b1m << nbits | b2m; the basis spans the pairs
        that pass every form, and the ranks are counted in one walk down the
        sorted pivots.
        """
        choice = [(self.sign_bit, 0), (0, self.two_bit)]
        forms = choice + [f for group in groups for f in group]
        rows = [0] * (2 * self.nbits)  # per column, its parities, first form on top
        for k, (u, v) in enumerate(reversed(forms)):
            cols = u << self.nbits | v
            while cols:
                low = cols & -cols
                rows[low.bit_length() - 1] |= 1 << k
                cols ^= low
        # The leading bits of an echelon basis of the rows that fall among
        # the top n bits number the rank of the first n forms.  The choice
        # forms are independent, so on the representatives each prefix of
        # groups has the rank it has after them, less theirs.
        pivots, basis = _f2_eliminate(rows)
        ranks, n, left = [], len(forms) - len(choice), sorted(pivots)
        for group in groups:
            n -= len(group)
            while left and left[-1] >= n:
                left.pop()
            ranks.append(len(pivots) - len(left) - len(choice))
        return ranks, basis

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
        dim = len(_f2_eliminate([b1m << self.nbits | b2m for b1m, b2m in images])[0])
        if dim != 4:
            raise AssertionError(f"the images of T1, T2, (0, t), (n1, t) span "
                                 f"dimension {dim}, not 4, for m={self.curve.m}")
        return dim - 2

    def theorem_w(self) -> int:
        """Count of primes p | m^4-1 whose symbol pattern forces (p-ish, p) in
        Sel, read from nonres: p = 1 mod 4 needs (p/q_i) = (p/r_j) = 1 for all
        q_i, r_j; p = 3 mod 4 needs (p/q_i) = (-p/r_j) = 1 instead."""
        c, nonres, w = self.curve, self.nonres, 0
        for p in c.p_primes:
            bit = 1 << self.index[p]
            at_r = bit | self.sign_bit if p % 4 == 3 else bit
            if not (any(nonres[q] & bit for q in c.q_primes)
                    or any((nonres[r] & at_r).bit_count() & 1 for r in c.r_primes)):
                w += 1
        return w

    def local_places(self) -> tuple[int, ...]:
        """The finite places tested: the bad primes, 2 first, then ascending."""
        return self.curve.s_primes


def _f2_eliminate(vectors: list[int]) -> tuple[list[int], list[int]]:
    """(pivots, kernel) of F2 vectors given as bitmasks.

    Column elimination on leading bits; the pivots, one per rank, are the
    leading bits of an echelon basis of the span.  The kernel is a basis of
    the combinations that sum to zero, each a bitmask over the input positions.
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
    return list(basis), kernel


def selmer_group(ctx: DescentContext) -> SelmerResult:
    """Full 2-Selmer computation: one F2 kernel on mask pairs.

    The member cosets are the common kernel of the rule forms, the symbol
    forms and each place's local forms, in curve.s_primes order, among the
    representatives b1 > 0 and b2 odd, so a subgroup of 2^s2; the rank after
    each group counts the representatives it rejects.  Each basis vector
    splits at bit nbits into b1's mask and b2's.  Refuses when m^4-1+4m^2 is
    not squarefree (a hypothesis of the exclusion lemmas), and raises rather
    than guess when a local image cannot be completed.  s2 satisfies |Sel| = 2^(2+s2)
    where |Sel| counts 4 elements per member coset.  run_analysis shares
    ctx with the rank certificate, so its tables are built once.

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
    The names of the points that span each image are --verbose's
    certificate of that place, printed once for all members.

    Asserts what the mathematics gives: every member passes the exclusion
    rules and the symbol conditions and is solvable at the real place (rule
    (i) makes b2 > 0), and the images of rational points span no more than
    dim E(Q_ell)/2E(Q_ell) at any place.  The walk over the span takes
    each member's masks and values from two it already has, runs
    exclusion_reason, necessary_failures and real_solvable on each and keeps
    its masks and values only, in ascending (b1, b2) order: the result's
    values, which records read, and its members, built on first read.
    """
    curve = ctx.curve
    if not curve.r_squarefree:
        raise SquarefreePrecondition(
            f"m^4-1+4m^2 = {curve.r_value} is not squarefree for m={curve.m}"
        )
    places = ctx.local_places()
    ranks, basis = ctx.kernel(ctx.rule_forms() + [ctx.symbol_forms()]
                              + [ctx.local_forms(ell) for ell in places])
    symbol_reason = f"necessary_fail (symbol system of F2 rank {ranks[5] - ranks[4]})"
    reasons = ["(i) b2 < 0", "(ii) b2 = 0 mod q_i", "(iii) b1 = 0 mod r_i",
               "(iv) v_p(b1*b2) = 1", "(v) b1*b2 = 2 mod 4", symbol_reason,
               *(f"locally unsolvable at {ell}" for ell in places)]
    # passing[k] counts the coset representatives that pass the first k groups.
    passing = [1 << 2 * (ctx.nbits - 1) - r for r in [0, *ranks]]
    tallies = {reason: passing[k] - passing[k + 1] for k, reason in enumerate(reasons)}
    counts = {"excluded": sum(tallies.values()) - tallies[symbol_reason],
              "necessary_fail": tallies[symbol_reason], "member": passing[-1]}
    # The span, each member from its two parents: masks multiply by XOR, and
    # the value of a product of squarefree classes is a*b / gcd(a, b)^2.
    rows = [(1, 1, 0, 0)]
    for k in basis:
        k1m, k2m = k >> ctx.nbits, k & (1 << ctx.nbits) - 1
        k1, k2 = ctx.value_of_mask(k1m), ctx.value_of_mask(k2m)
        rows += [(b1 * k1 // math.gcd(b1, k1) ** 2, b2 * k2 // math.gcd(b2, k2) ** 2,
                  b1m ^ k1m, b2m ^ k2m) for b1, b2, b1m, b2m in rows]
    for b1, b2, b1m, b2m in rows:
        reason = (ctx.exclusion_reason(b1m, b2m)
                  or "; ".join(ctx.necessary_failures(b1m, b2m)))
        if reason:
            raise AssertionError(
                f"symbol solution ({b1}, {b2}) fails {reason} for m={curve.m}")
        if not real_solvable(b1, b2).is_solvable:
            raise AssertionError(
                f"symbol solution ({b1}, {b2}) is not real-solvable for m={curve.m}")
    rows.sort()
    s2 = len(basis)
    return SelmerResult(
        values=tuple(row[:2] for row in rows),
        size_log2=2 + s2,
        s2=s2,
        theorem_w=ctx.theorem_w(),
        corollary_value=corollary_rank(curve),
        status_counts=counts,
        tallies=tallies,
        masks=tuple(row[2:] for row in rows),
        context=ctx,
    )


def corollary_rank(curve: CurveParams) -> int | None:
    """1 + #{p | m^4-1} when both m^4-1-4m^2 and m^4-1+4m^2 are prime, else None."""
    q_prime = len(curve.q_primes) == 1 and curve.q_primes[0] == curve.q_value
    r_prime = len(curve.r_primes) == 1 and curve.r_primes[0] == curve.r_value
    if q_prime and r_prime:
        return len(curve.p_primes) + 1
    return None
