import hashlib
import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from emcurve.curve import INFINITY, add, point, scalar_mul
from emcurve.descent import (
    DescentContext,
    DescentPair,
    IDENTITY_CLASS,
    SquareClass,
    SquarefreePrecondition,
    UnsupportedClass,
    corollary_rank,
    phi_image,
    selmer_group,
    square_class,
    theorem_lower_bound,
)
from emcurve.family import build_curve, scan_admissible
from emcurve.localsolve import (
    LocalSolverError, LocalVerdict, _f2_reduce, _pair_bits, _val_unit, decide_local,
    kstar, local_image, real_solvable,
)
from emcurve.numtheory import _legendre_prime, factorize
from oracle import oracle_local_solvable


@pytest.fixture(scope="module")
def c6():
    return build_curve(6)


@pytest.fixture(scope="module")
def sel6(c6):
    return selmer_group(c6)


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
             for b1m, b2m in ctx.coset_reps()]
    assert len(pairs) == 4096  # 2^(2*(2+5)) / 4
    assert pairs[0].b1 == pairs[0].b2 == IDENTITY_CLASS
    # Normalization: b1 positive, b2 odd, so b1*b2 is never 0 mod 4.
    for p in pairs[:64]:
        assert p.b1.value > 0
        assert p.b2.value % 2 == 1


def test_candidate_pairs_cover_cosets_once(c6):
    ctx = DescentContext(c6)
    seen = set()
    for b1m, b2m in ctx.coset_reps():
        rep = ctx.canonical_rep(b1m, b2m)
        assert rep == (b1m, b2m)  # reps are already canonical
        seen.add(rep)
    assert len(seen) == ctx.coset_count()
    # Multiplying by each torsion image lands back in the same coset.
    h3 = (ctx.h2[0] ^ ctx.h4[0], ctx.h2[1] ^ ctx.h4[1])
    for h in ((0, 0), ctx.h2, h3, ctx.h4):
        assert ctx.canonical_rep(h[0] ^ 0, h[1] ^ 0) == (0, 0)


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
        rep = ctx.canonical_rep(b1m, b2m)
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
        ctx.canonical_rep(ctx.mask_of_class(p.b1), ctx.mask_of_class(p.b2))
        for p in sel6.members
    }
    p1 = point(0, c6.t)
    p2 = point(c6.n1, c6.t)
    check = [p1, p2, INFINITY, point(c6.e1, 0), point(c6.e2, 0), point(c6.e3, 0)]
    for pt in check:
        img = phi_image(c6, pt)
        key = ctx.canonical_rep(ctx.mask_of_class(img.b1), ctx.mask_of_class(img.b2))
        assert key in member_keys, f"phi image of {pt} missing"


def test_selmer_members_closed_under_multiplication(c6, sel6):
    ctx = DescentContext(c6)
    keys = {
        ctx.canonical_rep(ctx.mask_of_class(p.b1), ctx.mask_of_class(p.b2))
        for p in sel6.members
    }
    for a in keys:
        for b in keys:
            assert ctx.canonical_rep(a[0] ^ b[0], a[1] ^ b[1]) in keys


def test_member_witnesses_recorded(sel6):
    for p in sel6.members:
        assert p.status == "member"
        assert math.inf in p.local_evidence
        for place, verdict in p.local_evidence.items():
            assert verdict.is_solvable
            if place != math.inf:
                assert verdict.witness is not None


def test_theorem_lower_bound_values():
    assert theorem_lower_bound(build_curve(6)) == 3
    assert theorem_lower_bound(build_curve(462)) == 4


def test_corollary_rank_values():
    assert corollary_rank(build_curve(462)) == 5
    # Both cofactors are prime at m = 6 as well, so the hypothesis applies
    # mechanically and predicts 3 + 1 = 4.
    assert corollary_rank(build_curve(6)) == 4
    assert corollary_rank(build_curve(12)) is None


def test_selmer_refuses_non_squarefree_r(c6):
    import dataclasses
    broken = dataclasses.replace(c6, r_squarefree=False)
    with pytest.raises(SquarefreePrecondition):
        selmer_group(broken)


@pytest.mark.parametrize("m", [6, 12, 462])
def test_survivor_reps_are_exactly_the_unexcluded_cosets(m):
    ctx = DescentContext(build_curve(m))
    survivors = list(ctx.survivor_reps())
    brute = {rep for rep in ctx.coset_reps() if ctx.exclusion_reason(*rep) is None}
    assert len(survivors) == len(set(survivors)) == 1 << (ctx.nbits - 2)
    assert set(survivors) == brute


@pytest.mark.parametrize("m", [6, 12, 462])
def test_exclusion_counts_match_brute_force_tally(m):
    ctx = DescentContext(build_curve(m))
    tally = Counter(ctx.exclusion_reason(*rep) for rep in ctx.coset_reps())
    survivors = tally.pop(None)
    counts = ctx.exclusion_counts()
    assert counts == dict(tally)
    assert [r.split()[0] for r in counts] == ["(i)", "(ii)", "(iii)", "(iv)", "(v)"]
    assert sum(counts.values()) + survivors == ctx.coset_count()


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
    counts = selmer_group(build_curve(m)).status_counts
    assert (counts["excluded"], counts["necessary_fail"], counts["member"]) == (
        SEED_STATUS_COUNTS[m]
    )


@pytest.mark.parametrize("m", [6, 12, 30, 42, 60, 312, 462, 1302])
def test_symbol_solutions_match_brute_force_scan(m):
    ctx = DescentContext(build_curve(m))
    rank, solutions = ctx.symbol_solutions()
    brute = [idx for idx, rep in enumerate(ctx.survivor_reps())
             if not ctx.necessary_failures(*rep)]
    assert solutions == brute
    assert len(solutions) == 1 << (ctx.nbits - 2 - rank)
    # The solutions are a subgroup of the survivor index space.
    found = set(solutions)
    assert 0 in found
    assert all(a ^ b in found for a in solutions for b in solutions)


def local_class(n, ell):
    """The class of n in Q_ell*/Q_ell*^2, from the value: (v_ell(n) mod 2,
    unit part mod 8) at 2, (v_ell(n) mod 2, Legendre symbol of the unit
    part) at odd ell."""
    v, u = _val_unit(n, ell)
    return v % 2, u % 8 if ell == 2 else _legendre_prime(u, ell)


@pytest.mark.parametrize("m", [6, 42, 462])
def test_local_class_of_masks_matches_the_values(m):
    ctx = DescentContext(build_curve(m))
    rng = random.Random(m)
    masks = [1 << i for i in range(ctx.nbits)]
    masks += [rng.getrandbits(ctx.nbits) for _ in range(50)]
    for ell in ctx.local_places():
        for mask in masks:
            assert ctx.local_class(mask, ell) == local_class(ctx.value_of_mask(mask), ell)


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
    res = selmer_group(c)
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
    _, solutions = ctx.symbol_solutions()
    rejected = sorted(set(range(1 << (ctx.nbits - 2))) - set(solutions))
    pairs = [tuple(map(ctx.value_of_mask, ctx.survivor_rep(idx)))
             for idx in solutions[:12] + rejected[:12]]
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
        for b1m, b2m in ctx.survivor_reps():
            reps.setdefault((ctx.local_class(b1m, ell), ctx.local_class(b2m, ell)),
                            (b1m, b2m))
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
            vec = _pair_bits(ctx.local_class(b1m, ell), ctx.local_class(b2m, ell), ell)
            assert ctx.locally_solvable(b1m, b2m, ell) == (not _f2_reduce(basis, vec)), (
                b1m, b2m, ell)


def test_local_forms_assert_the_codimension(c6, monkeypatch):
    import emcurve.descent as descent_mod

    # A basis one short of the image leaves one form too many.
    monkeypatch.setattr(descent_mod, "local_image", lambda *args: local_image(*args)[1:])
    with pytest.raises(AssertionError, match="the local image at 2 is cut out by 4 "
                                             "forms, not 3, for m=6"):
        selmer_group(c6)


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
    for pair in selmer_group(c).members:
        assert pair.local_evidence
    assert local_image.cache_info().misses == len(c.s_primes)


# Pairs of local classes made non-members of the local image by the fakes
# below, a class function as every verdict is.  Excluding ((0, 1), (0, 7))
# at 2 and ((0, -1), (0, -1)) at 37 leaves 8 of the 16 members at m = 6, a
# power of two but not a subgroup; excluding only the first leaves 12.
@pytest.mark.parametrize("unsolvable", [
    {2: ((0, 1), (0, 7)), 37: ((0, -1), (0, -1))},
    {2: ((0, 1), (0, 7))},
], ids=["eight-not-closed", "twelve"])
def test_selmer_asserts_the_members_are_a_subgroup(c6, monkeypatch, unsolvable):
    real = DescentContext.locally_solvable

    def unsolvable_on_a_class(self, b1m, b2m, ell):
        if unsolvable.get(ell) == (self.local_class(b1m, ell), self.local_class(b2m, ell)):
            return False
        return real(self, b1m, b2m, ell)

    monkeypatch.setattr(DescentContext, "locally_solvable", unsolvable_on_a_class)
    with pytest.raises(AssertionError, match=f"the {8 if 37 in unsolvable else 12} "
                                             "member cosets are not a subgroup"):
        selmer_group(c6)


def test_selmer_asserts_the_local_images_fit(c6, monkeypatch, fresh_local_caches):
    import emcurve.descent as descent_mod
    import emcurve.localsolve as localsolve

    # A class map that tells every value apart gives the images of the four
    # rational points dimension 4 at 2, more than dim E(Q_2)/2E(Q_2) = 3.
    monkeypatch.setattr(localsolve, "_value_class", lambda n, ell: (abs(n), 1))
    with pytest.raises(AssertionError, match="span dimension 4 at 2, more than"):
        selmer_group(c6)
    monkeypatch.undo()
    # At 7 the rational points span dimension 1 of 2; a search that finds
    # no point of E(Q_7) cannot complete the image and raises.
    assert len(local_image(c6.a_value, c6.q_value, c6.r_value, 7)) == 2
    monkeypatch.setattr(localsolve, "_points", lambda a_value, e3, ell: iter(()))
    local_image.cache_clear()  # drop the image the real search completed
    with pytest.raises(LocalSolverError,
                       match="local image at 7 reached dimension 1, not 2"):
        selmer_group(c6)
    monkeypatch.undo()
    monkeypatch.setattr(descent_mod, "real_solvable",
                        lambda b1, b2: LocalVerdict(math.inf, "real_unsolvable"))
    with pytest.raises(AssertionError, match=r"symbol solution \(1, 1\) is not real-solvable"):
        selmer_group(c6)


def test_local_evidence_asserts_agreement_with_the_local_image(c6, monkeypatch):
    members = selmer_group(c6).members
    monkeypatch.setattr(DescentContext, "locally_solvable", lambda self, b1m, b2m, ell: False)
    with pytest.raises(AssertionError, match=r"decide_local finds \(1, 1\) solvable at 2, "
                                             "against its local image"):
        members[0].local_evidence


# sha256 of repr([(key, local_evidence)]) over the members: the verdicts at
# every place and each witness, the first point of the local-image search in
# the member's classes with its quadruple mod ell^k*, pinned byte for byte.
WITNESS_DIGESTS = {
    6: "f6c4d2380623a3e7f2208188ff0f57f159b17a504fe6e35693d4c615474bc26e",
    42: "5efd1f5f0e541e5741d4ad4ffa6e6bf13d07842fe748dbedaa77c80453742a1f",
    462: "093b4b2381d2b98cb77d90c14b3e5b3ee643ef15add90b1563e6900418471e11",
}


@pytest.mark.parametrize("m", sorted(WITNESS_DIGESTS))
def test_member_witnesses_are_pinned(m):
    members = selmer_group(build_curve(m)).members
    text = repr([(p.key(), p.local_evidence) for p in members])
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
    res = selmer_group(c6)
    assert [p.key() for p in res.members] == [p.key() for p in sel6.members]


def test_selmer_m312_matches_full_scan():
    # 2^28 cosets, of which 2^13 survive the exclusion rules; the values were
    # produced by scanning every coset.
    res = selmer_group(build_curve(312))
    assert res.s2 == 4
    assert res.status_counts == {
        "excluded": 268427264, "necessary_fail": 8176, "member": 16,
    }
    assert [p.key() for p in res.members] == [
        (1, 1), (5, 5), (18349, 8642556581), (19469, 184492988809459),
        (91745, 43212782905), (97345, 922464944047295),
        (357236681, 2064706919), (1786183405, 10323534595),
        (50268144613, 8698135723), (251340723065, 43490678615),
        (922370185503937, 97343), (978670507470497, 2077984777),
        (4611850927519685, 486715), (4893352537352485, 10389923885),
        (17957625141576149453, 17959101009679167437),
        (89788125707880747265, 89795505048395837185),
    ]
