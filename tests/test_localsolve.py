import itertools
import random
from fractions import Fraction

import pytest

import emcurve.localsolve as localsolve
from emcurve.family import build_curve, scan_admissible
from emcurve.localsolve import (
    LocalSolverError,
    _f2_reduce,
    _image_forms,
    _point_bits,
    _val_unit,
    decide_local,
    real_solvable,
)

from oracle import kstar, oracle_local_solvable


def curve_constants(m):
    c = build_curve(m)
    return c.a_value, c.q_value, c.r_value


A6, B6, C6 = 1295, 1151, 1439


def valuation(x: Fraction, ell: int) -> int:
    return _val_unit(x.numerator, ell)[0] - _val_unit(x.denominator, ell)[0]


def squares(x, b1, b2, a, q):
    """z1^2, z2^2, z3^2 of the witness point: (x-A)/b1, (x+A)/b2, (x-4m^2)/(b1b2)."""
    return (x - a) / b1, (x + a) / b2, (x - (a - q)) / (b1 * b2)


def affine_valuations(w, b1, b2, a, q, ell):
    """(v(z1), v(z2), v(z3)) of the witness point."""
    return tuple(valuation(z2, ell) // 2 for z2 in squares(w, b1, b2, a, q))


def check_witness(w, b1, b2, a, q, ell):
    """The witness x has z1^2, z2^2 and z3^2 Q_ell-squares, so their roots and
    W = 1 solve both quadrics exactly."""
    unit_mod = 8 if ell == 2 else ell
    for square in squares(w, b1, b2, a, q):
        assert valuation(square, ell) % 2 == 0
        unit = square / Fraction(ell) ** valuation(square, ell)
        unit = unit.numerator * pow(unit.denominator, -1, unit_mod) % unit_mod
        assert unit == 1 if ell == 2 else pow(unit, (ell - 1) // 2, ell) == 1


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
    v1, v2, v3 = affine_valuations(w, 5, 5, A6, B6, 5)
    assert v3 == -1
    assert v1 >= 0
    assert v2 >= 0


def test_witness_certificates_check_out():
    kinds = [(5, 5, 5), (5, 5, 2), (1, 1, 3), (7 * 1151, 7, 1151), (5, 5, 1439)]
    for b1, b2, ell in kinds:
        v = decide_local(b1, b2, A6, B6, C6, ell)
        assert v.witness is not None
        check_witness(v.witness, b1, b2, A6, B6, ell)


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
            v1, v2, _ = affine_valuations(w, b1, b2, A6, B6, ell)
            assert (v1 < 0) == (v2 < 0)
            if v1 < 0:
                assert v1 == v2


def test_real_place():
    assert real_solvable(1, 1).outcome == "real_solvable"
    assert real_solvable(-5, 7).outcome == "real_solvable"
    assert real_solvable(1, -1).outcome == "real_unsolvable"
    assert real_solvable(-1151, 5).is_solvable


def test_real_place_returns_one_of_two_shared_verdicts():
    assert real_solvable(1, 1) is real_solvable(-1151, 5)
    assert real_solvable(1, -1) is real_solvable(-5, -7)


def echelon_bases(k, top=None):
    """Every basis of local_image's shape: k vectors of 2k bits with
    distinct leading bits, in decreasing order, each leading bit below top."""
    if k == 0:
        yield ()
        return
    for lead in range(k - 1, 2 * k if top is None else top):
        for low in range(1 << lead):
            for rest in echelon_bases(k - 1, lead):
                yield (1 << lead | low, *rest)


@pytest.mark.parametrize("k, count", [(2, 70), (3, 11160)])
def test_image_forms_cut_out_the_span_of_every_basis(k, count):
    # k forms for each basis, and a vector pairs evenly with all of them iff
    # it is a sum of basis vectors.
    bases = list(echelon_bases(k))
    assert len(bases) == len(set(bases)) == count
    for basis in bases:
        assert all(_f2_reduce(basis[:i], b) == b for i, b in enumerate(basis))
        forms = _image_forms(basis, k)
        assert len(forms) == k, basis
        span = {0}
        for b in basis:
            span |= {x ^ b for x in span}
        for x in range(1 << 2 * k):
            even = not any(((x & u) ^ (x >> k & v)).bit_count() & 1 for u, v in forms)
            assert even == (x in span), (basis, x)


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
    # decide_local against the oracle's digit loop at two midsize primes.
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


def test_huge_prime_corollary_witnesses():
    a, b, c = curve_constants(462)
    q, r = b, c
    # (-q, 1) is a Selmer member; the witness at ell = q mirrors the
    # u2^2 = 8m^2 construction.
    for ell in (2, 3, 5, q, r):
        v = decide_local(-q, 1, a, b, c, ell)
        assert v.is_solvable, ell
        check_witness(v.witness, -q, 1, a, b, ell)
    assert not decide_local(1, q, a, b, c, q, want_witness=False).is_solvable


def image_pairs(basis, ell):
    """An integer pair (b1, b2) in each class pair of the span of basis."""
    width = 3 if ell == 2 else 2
    if ell > 2:
        nonres = next(n for n in range(2, ell) if pow(n, (ell - 1) // 2, ell) == ell - 1)

    def rep(bits):  # inverse of localsolve._pair_bits on one class
        if ell == 2:
            unit = 2 * (bits >> 1) + 1
        else:
            unit = nonres if bits >> 1 else 1
        return ell ** (bits & 1) * unit

    for combo in itertools.product((0, 1), repeat=len(basis)):
        vec = 0
        for bit, b in zip(combo, basis):
            vec ^= b * bit
        yield rep(vec & ((1 << width) - 1)), rep(vec >> width)


def bad_places():
    for m in scan_admissible(2, 2000):
        c = build_curve(m)
        for ell in c.s_primes:
            yield c, ell
    c6 = build_curve(6)
    for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        yield c6, ell


def test_every_element_of_the_local_image_has_a_witness():
    # At every bad place of each admissible m <= 2000, and for m = 6 at every
    # prime below 50, each class pair of the local image is hit exactly by
    # some point of the search, whose quotients are Q_ell-squares.
    places = 0
    for c, ell in bad_places():
        basis = localsolve.local_image(c.a_value, c.q_value, c.r_value, ell)
        assert len(basis) == (3 if ell == 2 else 2)
        for b1, b2 in image_pairs(basis, ell):
            v = decide_local(b1, b2, c.a_value, c.q_value, c.r_value, ell)
            assert v.is_solvable, (c.m, ell, b1, b2)
            check_witness(v.witness, b1, b2, c.a_value, c.q_value, ell)
        places += 1
    assert places > 500


def test_starved_search_raises_instead_of_a_solvable_verdict(monkeypatch, fresh_local_caches):
    # A stream that still completes the image at 13 but has no point in the
    # class of (1, 1): the verdict is solvable, and the witness search raises
    # rather than return a verdict without a certificate.
    real = localsolve._points

    def starved(a_value, e3, ell):
        return (p for p in itertools.islice(real(a_value, e3, ell), 2000)
                if _point_bits(*p, a_value, ell) != 0)

    monkeypatch.setattr(localsolve, "_points", starved)
    assert decide_local(1, 1, A6, B6, C6, 13, want_witness=False).is_solvable
    with pytest.raises(LocalSolverError, match="the point search at 13 met 3 of the 4 classes"):
        decide_local(1, 1, A6, B6, C6, 13)


def test_witness_in_another_class_raises(fresh_local_caches, monkeypatch):
    # The first point of the class of (1, 1) replaced by one of another class:
    # the verdict, read from the image, is still solvable, and the check of
    # the witness's quotients refuses the point.  monkeypatch comes second so
    # that it restores _first_points before the caches are cleared.
    real = localsolve._first_points

    def misfiled(a_value, e3, ell):
        first = dict(real(a_value, e3, ell))
        first[0] = first[max(first)]
        return first

    monkeypatch.setattr(localsolve, "_first_points", misfiled)
    assert decide_local(1, 1, A6, B6, C6, 13, want_witness=False).is_solvable
    with pytest.raises(LocalSolverError, match="decision bug"):
        decide_local(1, 1, A6, B6, C6, 13)
