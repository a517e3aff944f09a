import random

import pytest

from emcurve.family import build_curve
from emcurve.localsolve import (
    DepthExceeded,
    LocalVerdict,
    decide_local,
    is_square_qp,
    kstar,
    real_solvable,
)
from fractions import Fraction

from oracle import oracle_local_solvable


def curve_constants(m):
    c = build_curve(m)
    return c.a_value, c.q_value, c.r_value


A6, B6, C6 = 1295, 1151, 1439


def test_is_square_qp():
    assert is_square_qp(0, 7)
    assert is_square_qp(4, 7) and not is_square_qp(3, 7)
    assert not is_square_qp(49 * 3, 7)
    assert not is_square_qp(7 * 4, 7)
    assert is_square_qp(49 * 4, 7)
    assert is_square_qp(17, 2) and not is_square_qp(3, 2) and not is_square_qp(2, 2)
    assert is_square_qp(Fraction(4, 9), 3) and not is_square_qp(Fraction(1, 3), 3)


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


def test_depth_exceeded():
    with pytest.raises(DepthExceeded):
        decide_local(5, 5, A6, B6, C6, 5, depth=2)


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
            fast = decide_local(b1, b2, a, b, c, ell, want_witness=False)
            slow = decide_local(b1, b2, a, b, c, ell, want_witness=False,
                                exhaustive_below=10**6)
            assert fast.is_solvable == slow.is_solvable, (b1, b2, ell)


def test_huge_prime_corollary_witnesses():
    a, b, c = curve_constants(462)
    q, r = b, c
    # (-q, 1) is a Selmer member; the witness at ell = q mirrors the
    # u2^2 = 8m^2 construction.
    for ell in (2, 3, 5, q, r):
        v = decide_local(-q, 1, a, b, c, ell)
        assert v.is_solvable, ell
    assert not decide_local(1, q, a, b, c, q, want_witness=False).is_solvable
