import random
from fractions import Fraction

import pytest

from emcurve.family import build_curve
from emcurve.localsolve import (
    _f2_reduce,
    _image_forms,
    _pair_bits,
    _value_class,
    local_image,
    real_solvable,
)

from oracle import kstar, oracle_local_solvable
from reference import decide_local


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
        assert decide_local(1, 1, A6, B6, C6, ell).is_solvable


def test_known_verdicts_from_exclusion_patterns():
    # b2 = 0 mod q kills Q_q; b1 = 0 mod r kills Q_r.
    assert not decide_local(1, 1151, A6, B6, C6, 1151).is_solvable
    assert not decide_local(1439, 1, A6, B6, C6, 1439).is_solvable
    # (5, 5) is a member pair: solvable at the interesting places.
    for ell in (2, 3, 5, 1151, 1439):
        assert decide_local(5, 5, A6, B6, C6, ell).is_solvable


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
            mine = decide_local(b1, b2, A6, B6, C6, ell)
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
            mine = decide_local(b1, b2, a, b, c, ell)
            naive = oracle_local_solvable(b1, b2, a, b, ell, ks + 6)
            assert mine.is_solvable == naive, (b1, b2, ell)


def test_huge_prime_corollary_witnesses():
    a, b, c = curve_constants(462)
    q, r = b, c
    # (-q, 1) is a Selmer member, so solvable at every place.
    for ell in (2, 3, 5, q, r):
        assert decide_local(-q, 1, a, b, c, ell).is_solvable, ell
    assert not decide_local(1, q, a, b, c, q).is_solvable




def named_abscissa(name, c):
    """The abscissa of a point that local_image names: T1 = (A, 0),
    T2 = (4m^2, 0), P1 = (0, t), P2 = (n1, t), or a search point x=..."""
    fixed = {"T1": c.e1, "T2": c.e3, "P1": 0, "P2": c.n1}
    return Fraction(fixed[name] if name in fixed else name.removeprefix("x="))


def descent_bits(x, c, ell):
    """delta_ell of the point at x in _pair_bits form: ([x - A], [x + A]),
    with [x - A] read as [(x + A)(x - 4m^2)] at x = A."""
    a = c.a_value
    first = (x + a) * (x - c.e3) if x == a else x - a

    def cls(r):  # [a/b] = [a b]
        return _value_class(r.numerator * r.denominator, ell)

    return _pair_bits(cls(first), cls(x + a), ell)


@pytest.mark.parametrize("m", [6, 42, 228, 462, 1950])
def test_spanning_points_certify_each_image(m):
    # At every bad place, the points local_image names are as many as the
    # image's dimension; each search point x has f(x) a nonzero Q_ell-square,
    # so it is a point of E(Q_ell); and the images of the named points lie
    # in the span of the basis and span it.
    c = build_curve(m)
    for ell in c.s_primes:
        basis, names = local_image(c.a_value, c.q_value, c.r_value, ell)
        assert len(names) == (3 if ell == 2 else 2), (m, ell, names)
        span = {0}
        for name in names:
            x = named_abscissa(name, c)
            if name.startswith("x="):
                fx = (x - c.a_value) * (x + c.a_value) * (x - c.e3)
                assert fx, (m, ell, name)
                assert _value_class(fx.numerator * fx.denominator, ell) == (0, 1), (
                    m, ell, name)
            vec = descent_bits(x, c, ell)
            assert _f2_reduce(basis, vec) == 0, (m, ell, name)
            span |= {v ^ vec for v in span}
        assert len(span) == 1 << len(basis), (m, ell, names)
