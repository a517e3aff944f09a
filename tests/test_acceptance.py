"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with `pytest -s` to see them).  The
expensive artifacts (curves, Selmer results) are shared session fixtures so
that the whole suite stays inside the stated runtime budgets.
"""

import itertools
import random
import time

import pytest

from emcurve.curve import INFINITY, add, point, torsion_group
from emcurve.descent import (
    DescentContext,
    selmer_group,
)
from emcurve.family import build_curve, scan_admissible
from emcurve.heights import canonical_height, pairing_matrix
from emcurve.localsolve import real_solvable
from oracle import kstar, oracle_local_solvable
from reference import (
    canonical_rep, coset_reps, decide_local, independence_rank, negate, phi_image,
    scalar_mul,
)

TOL = 1e-3
TABLE_S2 = {6: 4, 12: 3, 30: 3, 42: 4, 60: 4}
EXACT_RANKS = {6: 2, 12: 3, 30: 3, 60: 4}


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def curves():
    return {m: build_curve(m) for m in (6, 12, 30, 42, 60, 462)}


@pytest.fixture(scope="module")
def small_selmer(curves):
    t0 = time.perf_counter()
    results = {m: selmer_group(DescentContext(curves[m])) for m in TABLE_S2}
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def selmer_462(curves):
    t0 = time.perf_counter()
    res = selmer_group(DescentContext(curves[462]))
    return res, time.perf_counter() - t0


def test_table1_selmer_reproduction(small_selmer):
    results, elapsed = small_selmer
    got = {m: results[m].s2 for m in TABLE_S2}
    ok = got == TABLE_S2 and elapsed < 300
    report("table1-selmer", ok, f"s2={got}, {elapsed:.1f}s")
    assert got == TABLE_S2
    assert elapsed < 300


def test_m462_selmer_corollary_theorem(selmer_462):
    res, elapsed = selmer_462
    ok = (res.corollary_value == 5 and res.theorem_w == 4 and res.s2 == 5
          and elapsed < 1800)
    report(
        "m462",
        ok,
        f"s2={res.s2} w={res.theorem_w} corollary={res.corollary_value}, {elapsed:.1f}s",
    )
    assert res.corollary_value == 5
    assert res.theorem_w == 4
    assert res.s2 == 5
    assert elapsed < 1800


def test_torsion_for_all_admissible_up_to_1000():
    t0 = time.perf_counter()
    checked = 0
    for m in scan_admissible(2, 1000):
        c = build_curve(m)
        tors = torsion_group(c)
        assert tors.structure == "Z/2 x Z/2"
        expected = {(c.a_value, 0), (-c.a_value, 0), (4 * m * m, 0)}
        got = {(int(p.x), int(p.y)) for p in tors.generators}
        assert got == expected, m
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    report("torsion<=1000", ok, f"{checked} parameters, {elapsed:.1f}s")
    assert elapsed < 60


def test_rank_lower_bound_and_gram(curves):
    dets = {}
    for m, c in curves.items():
        p1, p2 = point(0, c.t), point(c.n1, c.t)
        gram = pairing_matrix(c, (p1, p2), TOL)
        rank = independence_rank(c, (p1, p2), TOL)
        dets[m] = gram.determinant
        assert rank == 2, m
        assert gram.determinant > 0.1, m
        p3 = point(c.n2, c.t)
        assert independence_rank(c, (p1, p2, p3), TOL) == 2, m
    report("rank-lower-bound", True,
           "min det %.3f" % min(dets.values()))


def test_consistency_bounds(small_selmer, selmer_462):
    results, _ = small_selmer
    res462, _ = selmer_462
    everything = dict(results)
    everything[462] = res462
    for m, res in everything.items():
        assert res.theorem_w <= res.s2, m
        assert 2 <= res.s2, m
    for m, r_exact in EXACT_RANKS.items():
        assert r_exact <= everything[m].s2, m
    report("consistency", True,
           "w<=s2 and 2<=s2 for all; exact ranks bounded by s2")


def test_property_group_law(curves):
    c = curves[6]
    p1, p2 = point(0, c.t), point(c.n1, c.t)
    rng = random.Random(0)
    pool = [INFINITY, p1, p2, negate(p1), add(c, p1, p2),
            scalar_mul(c, 2, p1), point(c.e1, 0), point(c.e3, 0)]
    for _ in range(40):
        a, b, d = (rng.choice(pool) for _ in range(3))
        assert add(c, a, b) == add(c, b, a)
        assert add(c, add(c, a, b), d) == add(c, a, add(c, b, d))
        assert add(c, a, negate(a)) == INFINITY
    report("group-law", True, "40 random triples")


def test_property_phi_homomorphism(curves):
    c = curves[6]
    p1, p2 = point(0, c.t), point(c.n1, c.t)
    pool = [p1, p2, point(c.e1, 0), point(c.e2, 0), add(c, p1, p2), INFINITY]
    for a, b in itertools.combinations(pool, 2):
        ia, ib, isum = phi_image(c, a), phi_image(c, b), phi_image(c, add(c, a, b))
        assert isum.b1 == ia.b1 * ib.b1 and isum.b2 == ia.b2 * ib.b2
    report("phi-homomorphism", True)


def test_property_height_laws(curves):
    c = curves[6]
    p1, p2 = point(0, c.t), point(c.n1, c.t)
    pairs = [(p1, p2), (p1, add(c, p1, p2)), (p2, negate(p1))]
    worst = 0.0
    for a, b in pairs:
        lhs = (canonical_height(c, add(c, a, b), TOL).value
               + canonical_height(c, add(c, a, negate(b)), TOL).value)
        rhs = 2 * canonical_height(c, a, TOL).value + 2 * canonical_height(c, b, TOL).value
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) < 10 * TOL
    for p in (p1, p2):
        gap = abs(canonical_height(c, add(c, p, p), TOL).value
                  - 4 * canonical_height(c, p, TOL).value)
        worst = max(worst, gap)
        assert gap < 10 * TOL
    report("height-laws", True, f"worst gap {worst:.2e} < {10 * TOL}")


def _locally_solvable_everywhere(c, ctx, b1v, b2v):
    if not real_solvable(b1v, b2v).is_solvable:
        return False
    for ell in ctx.local_places():
        verdict = decide_local(b1v, b2v, c.a_value, c.q_value, c.r_value, ell,
                               want_witness=False)
        if not verdict.is_solvable:
            return False
    return True


def test_property_lemma_filter_soundness_m6(curves, small_selmer):
    # The unfiltered local pipeline over every coset must reproduce exactly
    # the member set of the filtered pipeline: the exclusion lemmas and the
    # necessary conditions never reject a locally solvable pair.
    c = curves[6]
    ctx = DescentContext(c)
    results, _ = small_selmer
    member_keys = {
        canonical_rep(ctx, ctx.mask_of_class(p.b1), ctx.mask_of_class(p.b2))
        for p in results[6].members
    }
    t0 = time.perf_counter()
    local_keys = set()
    for b1m, b2m in coset_reps(ctx):
        b1v, b2v = ctx.value_of_mask(b1m), ctx.value_of_mask(b2m)
        if _locally_solvable_everywhere(c, ctx, b1v, b2v):
            local_keys.add((b1m, b2m))
    elapsed = time.perf_counter() - t0
    ok = local_keys == member_keys
    report("lemma-filter-soundness", ok,
           f"4096 cosets, {len(local_keys)} locally solvable, {elapsed:.0f}s")
    assert local_keys == member_keys


def test_property_local_solver_vs_oracle_m6(curves):
    # All cosets at the small places, plus a structured sample of cosets at
    # every prime up to 50 (the full grid costs > 1e12 operations; the
    # sample keeps members, near-members and random cosets).
    c = curves[6]
    ctx = DescentContext(c)
    reps = list(coset_reps(ctx))
    t0 = time.perf_counter()
    for ell in (2, 3, 5):
        for b1m, b2m in reps:
            b1v, b2v = ctx.value_of_mask(b1m), ctx.value_of_mask(b2m)
            ks = kstar(b1v, b2v, c.a_value, c.q_value, c.r_value, ell)
            mine = decide_local(b1v, b2v, c.a_value, c.q_value, c.r_value, ell,
                                want_witness=False).is_solvable
            naive = oracle_local_solvable(b1v, b2v, c.a_value, c.q_value, ell, ks + 6)
            assert mine == naive, (b1v, b2v, ell)
    rng = random.Random(1)
    sample = [reps[0]] + rng.sample(reps, 60)
    primes = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    for ell in primes:
        for b1m, b2m in sample:
            b1v, b2v = ctx.value_of_mask(b1m), ctx.value_of_mask(b2m)
            ks = kstar(b1v, b2v, c.a_value, c.q_value, c.r_value, ell)
            mine = decide_local(b1v, b2v, c.a_value, c.q_value, c.r_value, ell,
                                want_witness=False).is_solvable
            naive = oracle_local_solvable(b1v, b2v, c.a_value, c.q_value, ell, ks + 6)
            assert mine == naive, (b1v, b2v, ell)
    elapsed = time.perf_counter() - t0
    report("local-solver-vs-oracle", True,
           f"4096x3 grid + 61x12 sample, {elapsed:.0f}s")


def test_property_member_closure(small_selmer, selmer_462, curves):
    results, _ = small_selmer
    res462, _ = selmer_462
    for m, res in list(results.items()) + [(462, res462)]:
        ctx = DescentContext(curves[m])
        keys = {
            canonical_rep(ctx, ctx.mask_of_class(p.b1), ctx.mask_of_class(p.b2))
            for p in res.members
        }
        for a in keys:
            for b in keys:
                assert canonical_rep(ctx, a[0] ^ b[0], a[1] ^ b[1]) in keys
    report("member-closure", True, "all six parameters")


def test_polynomial_identity_up_to_1000():
    count = 0
    for m in scan_admissible(2, 1000):
        c = build_curve(m)
        lhs = (1, -(c.n1 + c.n2), c.n1 * c.n2, c.t**2)
        e1, e2, e3 = c.roots
        rhs = (1, -(e1 + e2 + e3), e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3)
        assert lhs == rhs, m
        count += 1
    report("polynomial-identity<=1000", True, f"{count} parameters")
