import random

import pytest

from emcurve.family import build_curve
from emcurve.localsolve import (
    _ChartSearch,
    _Quadratic,
    decide_local,
    kstar,
    real_solvable,
)

from oracle import oracle_local_solvable


def curve_constants(m):
    c = build_curve(m)
    return c.a_value, c.q_value, c.r_value


A6, B6, C6 = 1295, 1151, 1439


def test_kstar_examples():
    # Good odd prime with unit data: k* = 3.
    assert kstar(1, 1, A6, B6, C6, 13) == 3
    # ell = 2: v(2 * odd stuff) = 1.
    assert kstar(1, 1, A6, B6, C6, 2) == 5
    # q-prime dividing B and b1: 2*(1+1)+3.
    assert kstar(1151, 1, A6, B6, C6, 1151) == 7


def test_identity_pair_solvable_everywhere():
    for ell in (2, 3, 5, 7, 37, 1151, 1439):
        v = decide_local(1, 1, A6, B6, C6, ell)
        assert v.is_solvable
        assert v.witness is not None


def test_known_verdicts_from_exclusion_patterns():
    # b2 = 0 mod q kills Q_q; b1 = 0 mod r kills Q_r.
    assert not decide_local(1, 1151, A6, B6, C6, 1151, want_witness=False).is_solvable
    assert not decide_local(1439, 1, A6, B6, C6, 1439, want_witness=False).is_solvable
    # (5, 5) is a member pair: solvable at the interesting places.
    for ell in (2, 3, 5, 1151, 1439):
        assert decide_local(5, 5, A6, B6, C6, ell, want_witness=False).is_solvable


def test_p_adic_witness_negative_valuation_pattern():
    # For the (p, p) member pair at ell = p the solution has v(z3) = -1 and
    # integral z1, z2: exactly the shape used to certify membership.
    v = decide_local(5, 5, A6, B6, C6, 5)
    w = v.witness
    assert w is not None
    v1, v2, v3 = w.affine_valuations
    assert v3 == -1
    assert v1 is None or v1 >= 0
    assert v2 is None or v2 >= 0


def test_witness_certificates_check_out():
    kinds = [(5, 5, 5), (5, 5, 2), (1, 1, 3), (7 * 1151, 7, 1151), (5, 5, 1439)]
    for b1, b2, ell in kinds:
        v = decide_local(b1, b2, A6, B6, C6, ell)
        w = v.witness
        assert w is not None
        mod = ell**w.modulus_exp
        z1, z2, z3, ww = w.quadruple
        assert any(z % ell for z in w.quadruple), "quadruple must be primitive"
        r1 = (b1 * z1 * z1 - b2 * z2 * z2 + 2 * A6 * ww * ww) % mod
        r2 = (b1 * z1 * z1 - b1 * b2 * z3 * z3 + B6 * ww * ww) % mod
        for res, rv in zip((r1, r2), w.residual_valuations):
            if res:
                seen = 0
                t = res
                while t % ell == 0:
                    t //= ell
                    seen += 1
                assert seen == rv
            assert rv >= 2 * w.tau + 1


def test_valuation_pattern_of_witnesses_lemma():
    # At odd places, negative valuations of z1 and z2 come in equal pairs.
    random.seed(4)
    gens = [-1, 2, 5, 7, 37, 1151, 1439]
    for _ in range(150):
        b1 = b2 = 1
        for g in gens:
            if random.random() < 0.4:
                b1 *= g
            if random.random() < 0.4:
                b2 *= g
        for ell in (3, 5, 7, 37, 1151):
            v = decide_local(b1, b2, A6, B6, C6, ell)
            w = v.witness
            if w is None:
                continue
            v1, v2, _ = w.affine_valuations
            if v1 is not None and v2 is not None:
                assert (v1 < 0) == (v2 < 0)
                if v1 < 0:
                    assert v1 == v2


def test_real_place():
    assert real_solvable(1, 1).outcome == "real_solvable"
    assert real_solvable(-5, 7).outcome == "real_solvable"
    assert real_solvable(1, -1).outcome == "real_unsolvable"
    assert real_solvable(-1151, 5).is_solvable


def test_oracle_agreement_small_primes_random_pairs():
    random.seed(9)
    gens = [-1, 2, 5, 7, 37, 1151, 1439]
    for _ in range(120):
        b1 = b2 = 1
        for g in gens:
            if random.random() < 0.4:
                b1 *= g
            if random.random() < 0.4:
                b2 *= g
        for ell in (2, 3, 5, 7, 11, 13):
            ks = kstar(b1, b2, A6, B6, C6, ell)
            mine = decide_local(b1, b2, A6, B6, C6, ell, want_witness=False)
            naive = oracle_local_solvable(b1, b2, A6, B6, ell, ks + 6)
            assert mine.is_solvable == naive, (b1, b2, ell)


def test_structured_path_matches_digit_loop_midsize():
    random.seed(10)
    a, b, c = curve_constants(12)   # q-primes 19, 1061; r-primes 101, 211
    gens = [-1, 2, 5, 11, 13, 29, 19, 101]
    for _ in range(60):
        b1 = b2 = 1
        for g in gens:
            if random.random() < 0.35:
                b1 *= g
            if random.random() < 0.35:
                b2 *= g
        for ell in (1061, 211):
            ks = kstar(b1, b2, a, b, c, ell)
            mine = decide_local(b1, b2, a, b, c, ell, want_witness=False)
            naive = oracle_local_solvable(b1, b2, a, b, ell, ks + 6)
            assert mine.is_solvable == naive, (b1, b2, ell)


def _digit_polys(ell, rng):
    """Reductions of every shape the screen must decide, with random roots
    and scalars: constant, linear, l(d-a)^2, l(d-a)(d-b), and l times an
    irreducible quadratic."""
    def unit():
        return rng.randrange(1, ell)

    def times(poly, scale):
        return tuple(scale * t % ell for t in poly)

    a, b = rng.sample(range(ell), 2)
    nonres = next(n for n in range(2, ell) if pow(n, (ell - 1) // 2, ell) != 1)
    return [
        (unit(), 0, 0),
        times((-a, 1, 0), unit()),
        times((a * a, -2 * a, 1), unit()),
        times((a * b, -a - b, 1), unit()),
        times((-nonres * a * a % ell, 0, 1), unit()),  # (d^2 - n a^2), no roots
    ]


def _brute_no_clean_digit(ell, rb1, rb2):
    """True when no digit off the roots of R1 and R2 makes both residues."""
    residues = {x * x % ell for x in range(1, ell)}

    def value(rb, d):
        return (rb[0] + rb[1] * d + rb[2] * d * d) % ell

    return not any(value(rb1, d) in residues and value(rb2, d) in residues
                   for d in range(ell))


@pytest.mark.parametrize("ell", [257, 263, 269, 271])
def test_no_clean_digit_screen_matches_digit_scan(ell):
    rng = random.Random(ell)
    search = _ChartSearch(_Quadratic(1, 0, 1), _Quadratic(1, 0, 1), ell, 3)
    pairs = []
    for _ in range(20):
        polys = _digit_polys(ell, rng)
        pairs += [(p, q) for p in polys for q in polys]
        # Proportional pairs, by a residue and by a non-residue.
        lam = rng.randrange(2, ell)
        pairs += [(p, tuple(lam * t % ell for t in p)) for p in polys]
        # The shared-root pair (d-a)^2, (d-a)(d-b), with random scalars.
        a, b = rng.sample(range(ell), 2)
        l1, l2 = rng.randrange(1, ell), rng.randrange(1, ell)
        pairs.append(((l1 * a * a % ell, -2 * l1 * a % ell, l1),
                      (l2 * a * b % ell, -l2 * (a + b) % ell, l2)))
    outcomes = set()
    for rb1, rb2 in pairs:
        expected = _brute_no_clean_digit(ell, rb1, rb2)
        assert search._no_clean_digit(rb1, rb2) == expected, (rb1, rb2)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_huge_prime_corollary_witnesses():
    a, b, c = curve_constants(462)
    q, r = b, c
    # (-q, 1) is a Selmer member; the witness at ell = q mirrors the
    # u2^2 = 8m^2 construction.
    for ell in (2, 3, 5, q, r):
        v = decide_local(-q, 1, a, b, c, ell)
        assert v.is_solvable, ell
    assert not decide_local(1, q, a, b, c, q, want_witness=False).is_solvable
