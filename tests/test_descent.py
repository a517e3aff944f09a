import hashlib
import itertools
import json
import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from emcurve.analysis import run_analysis
from emcurve.curve import INFINITY, add, contains, point, scalar_mul
from emcurve.descent import (
    DescentContext,
    DescentPair,
    SquareClass,
    SquarefreePrecondition,
    UnsupportedClass,
    corollary_rank,
    selmer_group,
)
from emcurve.family import build_curve, scan_admissible
from emcurve.localsolve import (
    LocalSolverError, LocalVerdict, _f2_reduce, _pair_bits, _val_unit, decide_local,
    local_image, real_solvable,
)
from emcurve.numtheory import _legendre_prime, factorize
from oracle import kstar, oracle_local_solvable


def canonical_rep(ctx, b1m, b2m):
    """The H-coset representative with b1 > 0 and b2 odd."""
    if b2m & ctx.two_bit:
        b1m ^= ctx.h2[0]
        b2m ^= ctx.h2[1]
    if b1m & ctx.sign_bit:
        b1m ^= ctx.h4[0]
        b2m ^= ctx.h4[1]
    return b1m, b2m


def coset_reps(ctx):
    """All 4^(nbits-1) coset representatives as mask pairs, b1m without the
    sign bit and b2m without the 2-bit, ascending in b1m, then in b2m."""
    masks = range(1 << ctx.nbits)
    return ((b1m, b2m) for b1m in masks if not b1m & ctx.sign_bit
            for b2m in masks if not b2m & ctx.two_bit)


def mask_pair(ctx, k):
    """The mask pair (b1m, b2m) of a kernel vector k = b1m << nbits | b2m."""
    return k >> ctx.nbits, k & (1 << ctx.nbits) - 1


IDENTITY_CLASS = SquareClass(1, ())


def pair_key(pair):
    """A DescentPair's (b1, b2) as ints, the order of SelmerResult.values."""
    return (pair.b1.value, pair.b2.value)


def square_class(n):
    """Squarefree kernel of a nonzero integer as a SquareClass.

    Any support is allowed; DescentContext.mask_of_class raises
    UnsupportedClass for a class outside a curve's Q(S,2).
    """
    if n == 0:
        raise ValueError("square class of 0 undefined")
    sign = 1 if n > 0 else -1
    odd_part = tuple(p for p, e in factorize(abs(n)).factors if e % 2 == 1)
    return SquareClass(sign, odd_part)


def phi_image(curve, pt):
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


def theorem_lower_bound(curve):
    """Count of primes p | m^4-1 whose symbol pattern forces (p-ish, p) in Sel.

    p = 1 mod 4 needs (p/q_i) = (p/r_j) = 1 for all q_i, r_j; p = 3 mod 4
    needs (p/q_i) = (-p/r_j) = 1 instead.  The reference for
    DescentContext.theorem_w, from Legendre symbols taken one by one.
    """
    w = 0
    for p in curve.p_primes:
        p_at_r = p if p % 4 == 1 else -p
        if all(_legendre_prime(p, q) == 1 for q in curve.q_primes) and all(
            _legendre_prime(p_at_r, r) == 1 for r in curve.r_primes
        ):
            w += 1
    return w


@pytest.fixture(scope="module")
def c6():
    return build_curve(6)


@pytest.fixture(scope="module")
def sel6(c6):
    return selmer_group(DescentContext(c6))


def test_square_class_examples(c6):
    assert square_class(18).value == 2
    assert square_class(-1295).value == -1295
    assert square_class(1) == IDENTITY_CLASS
    assert square_class(4 * 9) == IDENTITY_CLASS
    assert square_class(-50).value == -2


def test_square_class_support_restriction(c6):
    # 11 is a good prime for m = 6, so [11] lies outside Q(S,2).
    with pytest.raises(UnsupportedClass):
        DescentContext(c6).mask_of_class(square_class(11))


@given(st.integers(min_value=-5000, max_value=5000).filter(lambda n: n != 0),
       st.integers(min_value=-5000, max_value=5000).filter(lambda n: n != 0))
@settings(max_examples=150, deadline=None)
def test_square_class_group_law(a, b):
    prod = square_class(a) * square_class(b)
    assert prod == square_class(a * b)
    assert square_class(a) * square_class(a) == IDENTITY_CLASS


def test_q_s_2_generators(c6):
    ctx = DescentContext(c6)
    gens = [ctx.class_of_mask(1 << i) for i in range(ctx.nbits)]
    assert [g.value for g in gens] == [-1, 2, 5, 7, 37, 1151, 1439]
    # Group order 2^(2 + |P| + |Q| + |R|).
    assert 2 ** len(gens) == 2**7
    assert DescentContext(build_curve(12)).nbits == 10
    assert IDENTITY_CLASS * gens[0] == gens[0]


def test_phi_image_examples(c6):
    assert phi_image(c6, INFINITY).b1 == IDENTITY_CLASS
    t1 = phi_image(c6, point(c6.e1, 0))
    assert t1.b1 == square_class(2 * 1295 * 1151)
    assert t1.b2 == square_class(2 * 1295)
    p1 = phi_image(c6, point(0, c6.t))
    assert p1.b1 == square_class(1 - 6**4)
    assert p1.b2 == square_class(6**4 - 1)
    # x = e3 goes through the generic formula.
    t3 = phi_image(c6, point(c6.e3, 0))
    assert t3.b1 == square_class(c6.e3 - c6.e1)
    assert t3.b2 == square_class(c6.e3 + c6.e1)


def test_phi_is_homomorphism_on_samples(c6):
    p1 = point(0, c6.t)
    p2 = point(c6.n1, c6.t)
    pool = [p1, p2, point(c6.e1, 0), point(c6.e3, 0), add(c6, p1, p2), INFINITY]
    for a, b in itertools.combinations(pool, 2):
        img_sum = phi_image(c6, add(c6, a, b))
        ia, ib = phi_image(c6, a), phi_image(c6, b)
        assert img_sum.b1 == ia.b1 * ib.b1
        assert img_sum.b2 == ia.b2 * ib.b2


def test_candidate_pairs_count_and_identity(c6):
    ctx = DescentContext(c6)
    pairs = [DescentPair(ctx.class_of_mask(b1m), ctx.class_of_mask(b2m))
             for b1m, b2m in coset_reps(ctx)]
    assert len(pairs) == 4096  # 2^(2*(2+5)) / 4
    assert pairs[0].b1 == pairs[0].b2 == IDENTITY_CLASS
    # Normalization: b1 positive, b2 odd, so b1*b2 is never 0 mod 4.
    for p in pairs[:64]:
        assert p.b1.value > 0
        assert p.b2.value % 2 == 1


def test_candidate_pairs_cover_cosets_once(c6):
    ctx = DescentContext(c6)
    seen = set()
    for b1m, b2m in coset_reps(ctx):
        rep = canonical_rep(ctx, b1m, b2m)
        assert rep == (b1m, b2m)  # reps are already canonical
        seen.add(rep)
    assert len(seen) == 4 ** (ctx.nbits - 1)
    # Multiplying by each torsion image lands back in the same coset.
    h3 = (ctx.h2[0] ^ ctx.h4[0], ctx.h2[1] ^ ctx.h4[1])
    for h in ((0, 0), ctx.h2, h3, ctx.h4):
        assert canonical_rep(ctx, h[0] ^ 0, h[1] ^ 0) == (0, 0)


def masks(ctx, b1, b2):
    """The mask pair of the classes of b1 and b2 in ctx's Q(S,2)."""
    return ctx.mask_of_class(square_class(b1)), ctx.mask_of_class(square_class(b2))


@pytest.mark.parametrize("ms", [
    list(scan_admissible(2, 2000)),
    [10008, 100152, 1000038, 100000038, 10000000278],
], ids=["m<=2000", "ladder"])
def test_descent_images_certify_rank_two(ms):
    assert ms
    for m in ms:
        assert DescentContext(build_curve(m)).rank_lower_bound() == 2, m


@pytest.mark.parametrize("m", [228, 1950])
def test_images_are_true_square_classes_when_q_not_squarefree(m):
    # 11^4 divides Q at m = 228, and 11^2 19^2 at m = 1950.
    c = build_curve(m)
    assert not factorize(c.q_value).is_squarefree()
    ctx = DescentContext(c)
    images = [(ctx.h2, point(c.e1, 0)), (ctx.h4, point(c.e3, 0))]
    images += zip(ctx.point_images, (point(0, c.t), point(c.n1, c.t)))
    for pair, pt in images:
        img = phi_image(c, pt)
        assert pair == (ctx.mask_of_class(img.b1), ctx.mask_of_class(img.b2))
    assert ctx.rank_lower_bound() == 2


def test_lemma_exclusion_rules(c6):
    ctx = DescentContext(c6)
    assert ctx.exclusion_reason(*masks(ctx, 1, -1)) == "(i) b2 < 0"
    assert ctx.exclusion_reason(*masks(ctx, 1, 1151)) == "(ii) b2 = 0 mod q_i"
    assert ctx.exclusion_reason(*masks(ctx, 1439, 1)) == "(iii) b1 = 0 mod r_i"
    assert ctx.exclusion_reason(*masks(ctx, 5, 1)) == "(iv) v_p(b1*b2) = 1"
    assert ctx.exclusion_reason(*masks(ctx, 2, 1)) == "(v) b1*b2 = 2 mod 4"
    assert ctx.exclusion_reason(*masks(ctx, 5, 5)) is None
    # First matching rule wins when several apply.
    assert ctx.exclusion_reason(*masks(ctx, 1439, -1151)) == "(i) b2 < 0"


def test_necessary_conditions_examples(c6):
    ctx = DescentContext(c6)
    fails = ctx.necessary_failures(*masks(ctx, 5, 5))
    assert not fails, fails
    assert [_legendre_prime(a, p) for a, p in ((-1, 5), (5, 1151), (5, 1439))] == [1] * 3
    fails = ctx.necessary_failures(*masks(ctx, 7, 7))
    assert fails and any("(iv)" in f for f in fails)  # 7 = 3 mod 4
    # Torsion image (after normalization) passes: Sel contains it.
    h3 = (ctx.h2[0] ^ ctx.h4[0], ctx.h2[1] ^ ctx.h4[1])
    for b1m, b2m in ((0, 0), ctx.h2, h3, ctx.h4):
        rep = canonical_rep(ctx, b1m, b2m)
        assert ctx.exclusion_reason(*rep) is None
        fails = ctx.necessary_failures(*rep)
        assert not fails, fails


def test_real_solvable(c6, sel6):
    def pair(b1, b2):
        return DescentPair(square_class(b1), square_class(b2))

    def real(p):
        return real_solvable(p.b1.value, p.b2.value)

    assert real(pair(1, 1)).is_solvable
    assert not real(pair(1, -1)).is_solvable
    assert real(pair(-1151, 5)).is_solvable
    # The descent records this verdict at the real place of every member.
    for p in sel6.members:
        assert p.local_evidence[math.inf] == real(p)


def test_difference_identity_per_curve():
    for m in (4, 6, 12, 462):
        c = build_curve(m)
        assert c.q_value + c.r_value == 2 * c.a_value


def test_selmer_m6(c6, sel6):
    assert sel6.s2 == 4
    assert sel6.size_log2 == 6
    assert len(sel6.members) == 16
    assert sel6.theorem_w == 3
    assert sel6.corollary_value == 4
    assert sel6.theorem_w <= sel6.s2


def test_selmer_members_contain_images(c6, sel6):
    ctx = DescentContext(c6)
    member_keys = {
        canonical_rep(ctx, ctx.mask_of_class(p.b1), ctx.mask_of_class(p.b2))
        for p in sel6.members
    }
    p1 = point(0, c6.t)
    p2 = point(c6.n1, c6.t)
    check = [p1, p2, INFINITY, point(c6.e1, 0), point(c6.e2, 0), point(c6.e3, 0)]
    for pt in check:
        img = phi_image(c6, pt)
        key = canonical_rep(ctx, ctx.mask_of_class(img.b1), ctx.mask_of_class(img.b2))
        assert key in member_keys, f"phi image of {pt} missing"


SCAN2000 = [json.loads(line)["m"] for line in (
    Path(__file__).resolve().parent / "data" / "scan2000.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("m", [
    pytest.param(m, marks=pytest.mark.xfail(
        strict=True, reason="Q is not squarefree and s2 is one too low: ROADMAP item 1"))
    if m in (228, 1950) else m
    for m in SCAN2000
])
def test_point_images_are_members(m):
    # phi(E(Q)) lies in Sel_2, so the images of (0, t) and (n1, t) are members.
    ctx = DescentContext(build_curve(m))
    members = {(ctx.mask_of_class(p.b1), ctx.mask_of_class(p.b2))
               for p in selmer_group(ctx).members}
    for image in ctx.point_images:
        assert canonical_rep(ctx, *image) in members


def test_selmer_members_closed_under_multiplication(c6, sel6):
    ctx = DescentContext(c6)
    keys = {
        canonical_rep(ctx, ctx.mask_of_class(p.b1), ctx.mask_of_class(p.b2))
        for p in sel6.members
    }
    for a in keys:
        for b in keys:
            assert canonical_rep(ctx, a[0] ^ b[0], a[1] ^ b[1]) in keys


def test_member_witnesses_recorded(sel6):
    for p in sel6.members:
        assert math.inf in p.local_evidence
        for place, verdict in p.local_evidence.items():
            assert verdict.is_solvable
            if place != math.inf:
                assert verdict.witness is not None


def test_theorem_lower_bound_values():
    assert theorem_lower_bound(build_curve(6)) == 3
    assert theorem_lower_bound(build_curve(462)) == 4


def test_tables_match_their_references_at_every_admissible_m():
    # At every admissible m <= 20000: nonres, one Legendre symbol per pair of
    # odd generators and the rest by reciprocity, against every symbol taken
    # directly; theorem_w, read from nonres, against theorem_lower_bound;
    # and each member's values, taken from its parents in the span, against
    # its masks.  The m where R is not squarefree have no members to check.
    ms, refused = 0, 0
    for m in scan_admissible(2, 20000):
        ctx = DescentContext(build_curve(m))
        assert ctx.nonres == {pi: sum(1 << i for i, g in enumerate(ctx.gens)
                                      if g != pi and _legendre_prime(g, pi) == -1)
                              for pi in ctx.gens[2:]}, m
        assert ctx.theorem_w() == theorem_lower_bound(ctx.curve), m
        ms += 1
        if not ctx.curve.r_squarefree:
            refused += 1
            continue
        res = selmer_group(ctx)
        assert res.values == tuple((ctx.value_of_mask(b1m), ctx.value_of_mask(b2m))
                                   for b1m, b2m in res.masks), m
    assert (ms, refused) == (286, 8)


def test_corollary_rank_values():
    assert corollary_rank(build_curve(462)) == 5
    # Both cofactors are prime at m = 6 as well, so the hypothesis applies
    # mechanically and predicts 3 + 1 = 4.
    assert corollary_rank(build_curve(6)) == 4
    assert corollary_rank(build_curve(12)) is None


def theorem_pairs(c):
    """(p, p) for p = 1 mod 4, (-p, p) for p = 3 mod 4, over the primes p | A
    that theorem_lower_bound counts, restated from its hypotheses."""
    pairs = []
    for p in c.p_primes:
        p_at_r = p if p % 4 == 1 else -p
        if (all(_legendre_prime(p, q) == 1 for q in c.q_primes)
                and all(_legendre_prime(p_at_r, r) == 1 for r in c.r_primes)):
            pairs.append((p_at_r, p))
    return pairs


def test_theorem_pairs_and_corollary_hold_where_q_and_r_are_squarefree():
    # The paper's theorem puts each counted pair in Sel, and its corollary
    # gives s2 when Q and R are prime.  Where Q is not squarefree s2 can be
    # one too low (ROADMAP item 1), so only squarefree Q and R are checked.
    ms, pairs, corollary_ms = 0, 0, 0
    for m in scan_admissible(2, 20000):
        c = build_curve(m)
        if math.prod(c.q_primes) != c.q_value or not c.r_squarefree:
            continue
        ms += 1
        ctx = DescentContext(c)
        sel = selmer_group(DescentContext(c))
        members = {canonical_rep(ctx, ctx.mask_of_class(p.b1), ctx.mask_of_class(p.b2))
                   for p in sel.members}
        counted = theorem_pairs(c)
        assert len(counted) == theorem_lower_bound(c) == sel.theorem_w, m
        for b1, b2 in counted:
            assert canonical_rep(ctx, *masks(ctx, b1, b2)) in members, (m, b1, b2)
        pairs += len(counted)
        if sel.corollary_value is not None:
            assert sel.s2 == sel.corollary_value == corollary_rank(c), m
            corollary_ms += 1
    assert (ms, pairs, corollary_ms) == (267, 312, 8)


def test_selmer_refuses_non_squarefree_r(c6):
    import dataclasses
    broken = dataclasses.replace(c6, r_squarefree=False)
    with pytest.raises(SquarefreePrecondition):
        selmer_group(DescentContext(broken))


def span(basis):
    """The ascending elements of the F2 span of bitmasks."""
    out = [0]
    for k in basis:
        out += [s ^ k for s in out]
    return sorted(out)


def unexcluded(ctx):
    """The kernel vectors b1m << nbits | b2m of the coset representatives
    that pass every exclusion rule, ascending."""
    return span(ctx.kernel(ctx.rule_forms())[1])


@pytest.mark.parametrize("m", [6, 12, 462])
def test_survivor_reps_are_exactly_the_unexcluded_cosets(m):
    # The kernel of the rule forms, against every coset's rule.
    ctx = DescentContext(build_curve(m))
    ranks, basis = ctx.kernel(ctx.rule_forms())
    survivors = [mask_pair(ctx, k) for k in span(basis)]
    brute = {rep for rep in coset_reps(ctx) if ctx.exclusion_reason(*rep) is None}
    assert len(survivors) == len(set(survivors)) == 1 << (ctx.nbits - 2)
    assert set(survivors) == brute
    assert ranks[-1] == ctx.nbits


@pytest.mark.parametrize("m", [6, 12, 462])
def test_exclusion_counts_match_brute_force_tally(m):
    # The first five tallies, rank differences, against every coset's rule.
    c = build_curve(m)
    ctx = DescentContext(c)
    tally = Counter(ctx.exclusion_reason(*rep) for rep in coset_reps(ctx))
    survivors = tally.pop(None)
    counts = dict(itertools.islice(selmer_group(DescentContext(c)).tallies.items(), 5))
    assert counts == dict(tally)
    assert [r.split()[0] for r in counts] == ["(i)", "(ii)", "(iii)", "(iv)", "(v)"]
    assert sum(counts.values()) + survivors == 4 ** (ctx.nbits - 1)


# (excluded, necessary_fail, member) as computed by the full coset scan.
SEED_STATUS_COUNTS = {
    6: (4064, 16, 16),
    12: (261888, 248, 8),
    30: (261888, 248, 8),
    42: (1048064, 496, 16),
    60: (1048064, 496, 16),
    462: (16320, 32, 32),
}


@pytest.mark.parametrize("m", sorted(SEED_STATUS_COUNTS))
def test_status_counts_match_full_scan(m):
    counts = selmer_group(DescentContext(build_curve(m))).status_counts
    assert (counts["excluded"], counts["necessary_fail"], counts["member"]) == (
        SEED_STATUS_COUNTS[m]
    )


# The full audit of selmer_group: the rules, the symbol system with its
# rank, then each place.  Q is not squarefree at m = 228 and 1950.
RULE_TALLIES = {
    4: (8192, 4096, 3072, 896, 64),
    6: (2048, 1024, 512, 448, 32),
    228: (2097152, 1572864, 458752, 63488, 1024),
    1950: (2097152, 1966080, 98304, 30720, 1024),
}
SYMBOL_TALLIES = {4: (3, 56), 6: (1, 16), 228: (7, 1016), 1950: (7, 1016)}
PLACE_TALLIES = {  # the nonzero ones; every other place of s_primes rejects 0
    4: {}, 6: {}, 228: {}, 1950: {11: 4},
}


@pytest.mark.parametrize("m", [4, 6, 228, 1950])
def test_tallies_are_the_audit_of_the_status_counts(m):
    # The rules (i)-(v), the symbol conditions, then every bad place in
    # s_primes order, zeros included; with the members they count every
    # coset, and status_counts is read from the same numbers.
    c = build_curve(m)
    res = selmer_group(DescentContext(c))
    ctx = DescentContext(c)
    rank, rejected = SYMBOL_TALLIES[m]
    labels = ["(i) b2 < 0", "(ii) b2 = 0 mod q_i", "(iii) b1 = 0 mod r_i",
              "(iv) v_p(b1*b2) = 1", "(v) b1*b2 = 2 mod 4"]
    assert list(res.tallies.items()) == [
        *zip(labels, RULE_TALLIES[m]),
        (f"necessary_fail (symbol system of F2 rank {rank})", rejected),
        *((f"locally unsolvable at {ell}", PLACE_TALLIES[m].get(ell, 0))
          for ell in c.s_primes),
    ]
    counts = list(res.tallies.values())
    assert res.status_counts == {"excluded": sum(counts) - counts[5],
                                 "necessary_fail": counts[5],
                                 "member": len(res.members)}
    assert sum(counts) + len(res.members) == 4 ** (ctx.nbits - 1)


@pytest.mark.parametrize("m", [6, 12, 30, 42, 60, 312, 462, 1302])
def test_symbol_solutions_match_brute_force_scan(m):
    # The span of the kernel of the rule and symbol forms.
    ctx = DescentContext(build_curve(m))
    ranks, basis = ctx.kernel(ctx.rule_forms() + [ctx.symbol_forms()])
    rank = ranks[5] - ranks[4]
    solutions = span(basis)
    brute = [k for k in unexcluded(ctx)
             if not ctx.necessary_failures(*mask_pair(ctx, k))]
    assert solutions == brute
    assert len(solutions) == 1 << (ctx.nbits - 2 - rank)
    # The solutions are a subgroup of the mask pairs.
    found = set(solutions)
    assert 0 in found
    assert all(a ^ b in found for a in solutions for b in solutions)


@pytest.mark.parametrize("m", [6, 12, 462, 1950])
def test_kernel_carries_the_coset_choice(m):
    # The choice b1 > 0 and b2 odd is two forms of kernel's own: no basis
    # vector of any prefix of the descent's groups, none included, has b1's
    # sign bit or b2's 2-bit, and every member is its own representative.
    ctx = DescentContext(build_curve(m))
    groups = (ctx.rule_forms() + [ctx.symbol_forms()]
              + [ctx.local_forms(ell) for ell in ctx.local_places()])
    assert len(ctx.kernel([])[1]) == 2 * (ctx.nbits - 1)
    for n in range(len(groups) + 1):
        for b1m, b2m in (mask_pair(ctx, k) for k in ctx.kernel(groups[:n])[1]):
            assert not (b1m & ctx.sign_bit or b2m & ctx.two_bit), (m, n, b1m, b2m)
    masks = selmer_group(ctx).masks
    assert masks and all(canonical_rep(ctx, *pair) == pair for pair in masks)


def value_failures(ctx, b1m, b2m):
    """necessary_failures from the values: each condition's Legendre symbol
    of b1, b2 or -b1*b2/p^2 with its prime divided out, then the odd part of
    b1 mod 4."""
    b1, b2 = ctx.value_of_mask(b1m), ctx.value_of_mask(b2m)

    def chi(n, pi):
        return _legendre_prime(n // pi if n % pi == 0 else n, pi)

    out = []
    for p in ctx.curve.p_primes:
        if b1 % p == 0 and b2 % p == 0:
            if _legendre_prime(-b1 * b2 // p**2, p) != 1:
                out.append(f"(i) chi_{p}(-b1*b2/p^2) != 1")
        elif b1 % p and b2 % p and chi(b1, p) != chi(b2, p):
            out.append(f"(i) chi_{p}(b1) != chi_{p}(b2)")
    for q in ctx.curve.q_primes:
        if chi(b2, q) != (chi(2, q) if b1 % q == 0 else 1):
            out.append(f"(ii) chi_{q}(b2) condition")
    for r in ctx.curve.r_primes:
        if chi(b1, r) != (chi(2, r) if b2 % r == 0 else 1):
            out.append(f"(iii) chi_{r}(b1) condition")
    odd = b1 // (b1 & -b1)
    if odd % 4 != 1:
        out.append("(iv) b1 != 1 mod 4")
    return out


@pytest.mark.parametrize("m", [6, 12, 462, 1950])
def test_necessary_failures_match_the_values(m):
    # The same list, messages and order as the Legendre symbols of the
    # values.  Every unexcluded representative at m = 6 and 12; at 462 and
    # 1950, which have only 64 and 1,024 of them, 4,096 seeded ones drawn
    # from every coset, where the conditions still read the values with the
    # prime divided out.
    ctx = DescentContext(build_curve(m))
    if m in (6, 12):
        reps = [mask_pair(ctx, k) for k in unexcluded(ctx)]
    else:
        rng = random.Random(m)
        reps = [(rng.getrandbits(ctx.nbits) & ~ctx.sign_bit,
                 rng.getrandbits(ctx.nbits) & ~ctx.two_bit) for _ in range(4096)]
    seen = set()
    for rep in reps:
        fails = ctx.necessary_failures(*rep)
        assert fails == value_failures(ctx, *rep), (m, rep)
        seen.update(re.sub(r"_\d+", "_", f) for f in fails)
    # Each of the five messages is met, but (ii) at m = 6: there every
    # unexcluded representative satisfies it.
    assert len(seen) == (4 if m == 6 else 5), seen


@pytest.mark.parametrize("m", [6, 12, 30, 42, 60, 462, 228, 1950])
def test_member_values_match_the_member_objects(m):
    # The record and the selmer command read values; --verbose and
    # local_evidence read members, built once from the same masks.
    res = selmer_group(DescentContext(build_curve(m)))
    assert len(res.values) == 2 ** res.s2
    assert all(a < b for a, b in zip(res.values, res.values[1:]))
    assert res.values == tuple((p.b1.value, p.b2.value) for p in res.members)
    assert res.members is res.members
    assert all(p.context is res.context for p in res.members)
    assert tuple(p.masks for p in res.members) == res.masks == tuple(
        (res.context.mask_of_class(p.b1), res.context.mask_of_class(p.b2))
        for p in res.members)
    assert run_analysis(m).members == [[str(a), str(b)] for a, b in res.values]


def test_records_build_no_member_objects(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a record reads the member values only")

    monkeypatch.setattr(DescentPair, "__init__", refuse)
    assert len(run_analysis(6).members) == 16


def local_class(n, ell):
    """The class of n in Q_ell*/Q_ell*^2, from the value: (v_ell(n) mod 2,
    unit part mod 8) at 2, (v_ell(n) mod 2, Legendre symbol of the unit
    part) at odd ell."""
    v, u = _val_unit(n, ell)
    return v % 2, u % 8 if ell == 2 else _legendre_prime(u, ell)


def mask_local_class(ctx, mask, ell):
    """The same class from the mask, by the context's character masks:
    (v_2 mod 2, unit part mod 8) at 2, (v_ell mod 2, chi_ell) at odd ell."""
    def odd(char):
        return (mask & char).bit_count() & 1

    if ell == 2:
        return mask >> 1 & 1, 1 + 2 * odd(ctx.mod4_mask) + 4 * odd(ctx.mod8_mask)
    return mask >> ctx.index[ell] & 1, 1 - 2 * odd(ctx.nonres[ell])


@pytest.mark.parametrize("m", [6, 42, 462])
def test_local_class_of_masks_matches_the_values(m):
    ctx = DescentContext(build_curve(m))
    rng = random.Random(m)
    masks = [1 << i for i in range(ctx.nbits)]
    masks += [rng.getrandbits(ctx.nbits) for _ in range(50)]
    for ell in ctx.local_places():
        for mask in masks:
            assert (mask_local_class(ctx, mask, ell)
                    == local_class(ctx.value_of_mask(mask), ell))


@pytest.mark.parametrize("m", [6, 12, 30, 42, 60, 462])
def test_decide_local_runs_once_per_local_class(m, monkeypatch):
    # The descent decides each place by membership in the local image and
    # makes no local solve; decide_local runs only when a pair's evidence
    # is read, once per finite place of a member.
    import emcurve.descent as descent_mod

    verdicts = []
    real = descent_mod.decide_local

    def counted(*args, **kwargs):
        verdicts.append(real(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(descent_mod, "decide_local", counted)
    c = build_curve(m)
    res = selmer_group(DescentContext(c))
    assert verdicts == []
    for p in res.members:
        assert all(v.is_solvable for v in p.local_evidence.values())
    assert len(verdicts) == len(res.members) * len(c.s_primes)
    assert all(v.is_solvable for v in verdicts)


@pytest.mark.parametrize("m", [6, 42, 462])
def test_local_verdict_depends_only_on_local_classes(m):
    # (b1 g, b2 h) with g, h products of generators that are squares in
    # Q_ell has the same verdict as (b1, b2); the descent relies on it.
    # Every symbol solution of these curves is a member, so survivors that
    # the symbol conditions reject supply the unsolvable verdicts.
    c = build_curve(m)
    ctx = DescentContext(c)
    solutions = span(ctx.kernel(ctx.rule_forms() + [ctx.symbol_forms()])[1])
    rejected = sorted(set(unexcluded(ctx)) - set(solutions))
    pairs = [tuple(map(ctx.value_of_mask, mask_pair(ctx, k)))
             for k in solutions[:12] + rejected[:12]]
    seen = set()
    for ell in c.s_primes:
        squares = [g for g in map(ctx.value_of_mask, range(2, 1 << ctx.nbits))
                   if local_class(g, ell) == (0, 1)][:3]
        assert squares

        def verdict(b1, b2):
            return decide_local(b1, b2, c.a_value, c.q_value, c.r_value, ell,
                                want_witness=False).is_solvable

        for b1, b2 in pairs:
            expected = verdict(b1, b2)
            seen.add(expected)
            for g, h in zip(squares, [1] + squares):
                assert verdict(b1 * g, b2 * h) == expected, (b1, b2, g, h, ell)
                assert verdict(b1 * h, b2 * g) == expected, (b1, b2, h, g, ell)
        # Cross-check against the brute-force oracle where it is cheap.
        if ell < 40:
            g = squares[0]
            for b1, b2 in (pairs[0], pairs[-1]):
                ks = kstar(b1 * g, b2, c.a_value, c.q_value, c.r_value, ell)
                assert oracle_local_solvable(b1 * g, b2, c.a_value, c.q_value,
                                             ell, ks + 6) == verdict(b1, b2)
    assert seen == {True, False}


@pytest.mark.parametrize("m", [6, 12, 42, 228, 462, 1950, 10008])
def test_local_image_membership_matches_decide_local(m):
    # Every pair of local classes that a survivor of the exclusion rules
    # reaches, symbol solutions and rejected survivors alike, at every bad
    # place; checked against the brute-force oracle below ell = 40.  At
    # m = 228 and 1950, Q is not squarefree.
    c = build_curve(m)
    ctx = DescentContext(c)
    seen = set()
    for ell in c.s_primes:
        reps = {}
        for b1m, b2m in (mask_pair(ctx, k) for k in unexcluded(ctx)):
            classes = (mask_local_class(ctx, b1m, ell), mask_local_class(ctx, b2m, ell))
            reps.setdefault(classes, (b1m, b2m))
        for b1m, b2m in reps.values():
            b1, b2 = ctx.value_of_mask(b1m), ctx.value_of_mask(b2m)
            expected = decide_local(b1, b2, c.a_value, c.q_value, c.r_value, ell,
                                    want_witness=False).is_solvable
            assert ctx.locally_solvable(b1m, b2m, ell) == expected, (b1, b2, ell)
            seen.add(expected)
            if ell < 40:
                ks = kstar(b1, b2, c.a_value, c.q_value, c.r_value, ell)
                assert oracle_local_solvable(b1, b2, c.a_value, c.q_value,
                                             ell, ks + 6) == expected
    assert seen == {True, False}


@pytest.mark.parametrize("m", [4, 6, 42, 228, 462, 1950, 10008])
def test_local_forms_match_the_reduction_by_the_local_image(m):
    # Every pair of zero or unit masks and 200 random pairs, not only the
    # survivors: the forms decide membership as reducing the pair's
    # _pair_bits vector by the echelon basis does.
    c = build_curve(m)
    ctx = DescentContext(c)
    rng = random.Random(m)
    masks = [0] + [1 << i for i in range(ctx.nbits)]
    pairs = list(itertools.product(masks, masks))
    pairs += [(rng.getrandbits(ctx.nbits), rng.getrandbits(ctx.nbits)) for _ in range(200)]
    for ell in c.s_primes:
        assert len(ctx.local_forms(ell)) == (3 if ell == 2 else 2)
        basis = local_image(c.a_value, c.q_value, c.r_value, ell)
        for b1m, b2m in pairs:
            classes = (mask_local_class(ctx, b1m, ell), mask_local_class(ctx, b2m, ell))
            vec = _pair_bits(*classes, ell)
            assert ctx.locally_solvable(b1m, b2m, ell) == (not _f2_reduce(basis, vec)), (
                b1m, b2m, ell)


def test_local_forms_assert_the_codimension(c6, monkeypatch):
    import emcurve.descent as descent_mod

    # A basis one short of the image leaves one form too many.
    monkeypatch.setattr(descent_mod, "local_image", lambda *args: local_image(*args)[1:])
    with pytest.raises(AssertionError, match="the local image at 2 is cut out by 4 "
                                             "forms, not 3, for m=6"):
        selmer_group(DescentContext(c6))


def test_local_images_reach_full_dimension():
    # dim E(Q_ell)/2E(Q_ell) = log2(|E(Q_ell)[2]| / |2|_ell) at every bad place
    # of every admissible m <= 2000, with or without the point search.
    for m in scan_admissible(2, 2000):
        c = build_curve(m)
        for ell in c.s_primes:
            basis = local_image(c.a_value, c.q_value, c.r_value, ell)
            assert len(basis) == (3 if ell == 2 else 2), (m, ell)


def test_one_local_image_per_place():
    # The descent and every member's evidence read one image per bad place.
    c = build_curve(462)
    local_image.cache_clear()
    for pair in selmer_group(DescentContext(c)).members:
        assert pair.local_evidence
    assert local_image.cache_info().misses == len(c.s_primes)


def test_selmer_asserts_every_member_passes_the_rules_and_symbols(c6, monkeypatch):
    # The kernel of the rules alone makes (7, 7) a member at m = 6, though
    # 7 = 3 mod 4.
    rules_kernel = DescentContext.kernel

    def rules_only(self, groups):
        ranks, basis = rules_kernel(self, groups[:5])
        return ranks + ranks[-1:] * (len(groups) - 5), basis

    monkeypatch.setattr(DescentContext, "kernel", rules_only)
    with pytest.raises(AssertionError, match=r"symbol solution \(7, 7\) fails .*"
                                             r"\(iv\) b1 != 1 mod 4 for m=6"):
        selmer_group(DescentContext(c6))


# Pairs of local classes made non-members of the local image by the fakes
# below, a class function as every verdict is.  Excluding ((0, 1), (0, 7))
# at 2 and ((0, -1), (0, -1)) at 37 leaves 8 of the 16 members at m = 6, a
# power of two but not a subgroup; excluding only the first leaves 12.
@pytest.mark.parametrize("unsolvable", [
    {2: ((0, 1), (0, 7)), 37: ((0, -1), (0, -1))},
    {2: ((0, 1), (0, 7))},
], ids=["eight-not-closed", "twelve"])
def test_selmer_asserts_the_members_are_a_subgroup(c6, monkeypatch, unsolvable):
    # The members are the kernel of the local forms, so a per-pair verdict
    # that rejects a set of classes that is not a subgroup leaves them all
    # 16; reading the evidence of each member it rejects asserts.
    real = DescentContext.locally_solvable

    def unsolvable_on_a_class(self, b1m, b2m, ell):
        if unsolvable.get(ell) == (mask_local_class(self, b1m, ell),
                                  mask_local_class(self, b2m, ell)):
            return False
        return real(self, b1m, b2m, ell)

    monkeypatch.setattr(DescentContext, "locally_solvable", unsolvable_on_a_class)
    result = selmer_group(DescentContext(c6))
    ctx = DescentContext(c6)
    keys = {(ctx.mask_of_class(p.b1), ctx.mask_of_class(p.b2)) for p in result.members}
    assert len(keys) == 16 and result.size_log2 == 6
    assert (0, 0) in keys
    assert all(canonical_rep(ctx, a1 ^ b1, a2 ^ b2) in keys
               for a1, a2 in keys for b1, b2 in keys)
    rejected = 0
    for pair in result.members:
        try:
            pair.local_evidence
        except AssertionError as exc:
            assert "against its local image, for m=6" in str(exc)
            rejected += 1
    assert rejected == 16 - (8 if 37 in unsolvable else 12)


def test_selmer_asserts_the_local_images_fit(c6, monkeypatch, fresh_local_caches):
    import emcurve.descent as descent_mod
    import emcurve.localsolve as localsolve

    # A class map that tells every value apart gives the images of the four
    # rational points dimension 4 at 2, more than dim E(Q_2)/2E(Q_2) = 3.
    monkeypatch.setattr(localsolve, "_value_class", lambda n, ell: (abs(n), 1))
    with pytest.raises(AssertionError, match="span dimension 4 at 2, more than"):
        selmer_group(DescentContext(c6))
    monkeypatch.undo()
    # At 7 the rational points span dimension 1 of 2; a search that finds
    # no point of E(Q_7) cannot complete the image and raises.
    assert len(local_image(c6.a_value, c6.q_value, c6.r_value, 7)) == 2
    monkeypatch.setattr(localsolve, "_points", lambda a_value, e3, ell: iter(()))
    local_image.cache_clear()  # drop the image the real search completed
    with pytest.raises(LocalSolverError,
                       match="local image at 7 reached dimension 1, not 2"):
        selmer_group(DescentContext(c6))
    monkeypatch.undo()
    monkeypatch.setattr(descent_mod, "real_solvable",
                        lambda b1, b2: LocalVerdict(math.inf, "real_unsolvable"))
    with pytest.raises(AssertionError, match=r"symbol solution \(1, 1\) is not real-solvable"):
        selmer_group(DescentContext(c6))


def test_local_evidence_asserts_agreement_with_the_local_image(c6, monkeypatch):
    members = selmer_group(DescentContext(c6)).members
    monkeypatch.setattr(DescentContext, "locally_solvable", lambda self, b1m, b2m, ell: False)
    with pytest.raises(AssertionError, match=r"decide_local finds \(1, 1\) solvable at 2, "
                                             "against its local image"):
        members[0].local_evidence


# sha256 of repr([(key, [(place, outcome, x)])]) over the members: the
# verdict at every place and each witness x, the first point of the
# local-image search in the member's classes (None at the real place),
# pinned byte for byte.
WITNESS_DIGESTS = {
    6: "a980e6922d872648b708ecf885907b0cbbb17d798badc001aee72e0ff5ea2f74",
    42: "0ba8caee950f0af2daf25e4e622c03a4a879d8ce2469f5c5fa65176ede4093d4",
    462: "c1478ff57ea4b25f825267deda116ed20f6caf7123852fa143fac13050bffd2d",
}


@pytest.mark.parametrize("m", sorted(WITNESS_DIGESTS))
def test_member_witnesses_are_pinned(m):
    members = selmer_group(DescentContext(build_curve(m))).members
    text = repr([(pair_key(p), [(place, verdict.outcome, verdict.witness)
                                for place, verdict in p.local_evidence.items()])
                 for p in members])
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_DIGESTS[m]


@pytest.mark.parametrize("m", [4, 6, 462])
def test_local_places_are_the_bad_primes(m):
    c = build_curve(m)
    places = DescentContext(c).local_places()
    assert places == c.s_primes
    assert places[0] == 2 and list(places) == sorted(places)
    # 3 is bad only at m = 4, where 3 = m - 1 divides m^4 - 1.
    assert (3 in places) == (m == 4)


def test_selmer_starts_no_process_pool(c6, sel6, monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("the descent must not start a process pool")

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", refuse)
    res = selmer_group(DescentContext(c6))
    assert [pair_key(p) for p in res.members] == [pair_key(p) for p in sel6.members]


def test_selmer_m312_matches_full_scan():
    # 2^28 cosets, of which 2^13 survive the exclusion rules; the values were
    # produced by scanning every coset.
    res = selmer_group(DescentContext(build_curve(312)))
    assert res.s2 == 4
    assert res.status_counts == {
        "excluded": 268427264, "necessary_fail": 8176, "member": 16,
    }
    assert [pair_key(p) for p in res.members] == [
        (1, 1), (5, 5), (18349, 8642556581), (19469, 184492988809459),
        (91745, 43212782905), (97345, 922464944047295),
        (357236681, 2064706919), (1786183405, 10323534595),
        (50268144613, 8698135723), (251340723065, 43490678615),
        (922370185503937, 97343), (978670507470497, 2077984777),
        (4611850927519685, 486715), (4893352537352485, 10389923885),
        (17957625141576149453, 17959101009679167437),
        (89788125707880747265, 89795505048395837185),
    ]
