import math
from fractions import Fraction

import pytest

from emcurve.curve import INFINITY, add, negate, point
from emcurve.family import build_curve
from emcurve.heights import (
    HeightBudgetExceeded,
    HeightEstimate,
    _duplication_step,
    canonical_height,
    independence_rank,
    naive_height,
    pairing_matrix,
)

TOL = 1e-3


@pytest.fixture(scope="module")
def c6():
    return build_curve(6)


@pytest.fixture(scope="module")
def pts6(c6):
    return point(0, c6.t), point(c6.n1, c6.t), point(c6.n2, c6.t)


def test_naive_height_examples(c6, pts6):
    p1, _, _ = pts6
    assert naive_height(p1) == 0.0  # x = 0 under the max(|0|, 1) convention
    assert naive_height(point(1295, 0)) == pytest.approx(math.log(1295))
    d = add(c6, p1, p1)
    assert naive_height(d) == pytest.approx(math.log(1759969))
    with pytest.raises(ValueError):
        naive_height(INFINITY)


def test_canonical_height_torsion_and_infinity(c6):
    for e in c6.roots:
        est = canonical_height(c6, point(e, 0), TOL)
        assert est.value == 0.0 and est.error_bound == 0.0
    assert canonical_height(c6, INFINITY, TOL).value == 0.0


def test_canonical_height_ratio_diagnostic(c6, pts6):
    # In log-base-m units h(P1) tends to 1 and h(P2) to 3/2 for the family;
    # at a fixed m the ratio carries lower-order corrections, so this is a
    # loose diagnostic, not a tolerance gate.
    p1, p2, _ = pts6
    r1 = canonical_height(c6, p1, TOL).value / math.log(6)
    r2 = canonical_height(c6, p2, TOL).value / math.log(6)
    assert abs(r1 - 1.0) < 0.1
    assert abs(r2 - 1.5) < 0.1


def test_canonical_height_positive_off_torsion(c6, pts6):
    for p in pts6:
        assert canonical_height(c6, p, TOL).value > 0.5


def test_budget_error_carries_estimate(c6, pts6):
    # Pinned bit for bit: the doubling must keep the exact reduced pair, so
    # the estimate and the step at which the cap hits never move.
    p1, _, _ = pts6
    with pytest.raises(HeightBudgetExceeded) as exc:
        canonical_height(c6, p1, 1e-12, max_bits=2000)
    assert exc.value.estimate == HeightEstimate(
        value=1.8153911811303396, iterations=4, error_bound=2.900260032134838e-10
    )
    assert str(exc.value) == "height iteration hit the bit cap at N=4 with error bound 2.9e-10"


def _general_cubic_step(u, v, coeffs, strip):
    """x(2P) = (u', v') from x(P) = u/v on y^2 = x^3 + a x^2 + b x + c, by the
    general duplication formula: numerator u^4 - 2b u^2 v^2 - 8c u v^3 +
    (b^2 - 4ac) v^4 over 4 v^4 y^2, reduced by stripping the bad primes."""
    a, b, c = coeffs
    nu = u**4 - 2 * b * u**2 * v**2 - 8 * c * u * v**3 + (b * b - 4 * a * c) * v**4
    dv = 4 * v * (u**3 + a * u**2 * v + b * u * v**2 + c * v**3)
    for p in strip:
        while nu % p == 0 and dv % p == 0:
            nu //= p
            dv //= p
    return nu, dv


# Steps checked against the exact group law; later steps get too big for
# Fraction arithmetic to stay quick.
_FRACTION_STEPS = 3


@pytest.mark.parametrize("m", [6, 12, 30, 42, 60, 462, 10008, 100152, 1000038])
def test_duplication_step_matches_group_law(m):
    # The translated doubling x' = x - e3 against two oracles: the group law
    # on exact Fractions for the first steps, and the general cubic formula
    # for every step canonical_height takes at the pairing's tolerance.
    c = build_curve(m)
    qr = c.q_value * c.r_value
    p1, p2 = point(0, c.t), point(c.n1, c.t)
    starts = [p1, p2, add(c, p1, p2), add(c, p1, p1), add(c, p2, p2)]
    for start in starts:
        steps = canonical_height(c, start, TOL / 3).iterations
        assert steps >= 2
        x = start.x
        w, v = x.numerator - c.e3 * x.denominator, x.denominator
        u_ref, v_ref = x.numerator, x.denominator
        p = start
        for n in range(steps):
            w, v = _duplication_step(w, v, c.e3, qr, c.s_primes)
            u = w + c.e3 * v
            assert v > 0 and math.gcd(u, v) == 1
            u_ref, v_ref = _general_cubic_step(u_ref, v_ref, c.cubic_coefficients(), c.s_primes)
            assert (u, v) == (u_ref, v_ref)
            if n < _FRACTION_STEPS:
                p = add(c, p, p)
                assert (u, v) == (p.x.numerator, p.x.denominator)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_canonical_height_rejects_tol_not_finite_and_positive(c6, pts6, tol):
    with pytest.raises(ValueError, match="finite and positive"):
        canonical_height(c6, pts6[0], tol)


def test_pairing_definition_consistency(c6, pts6):
    p1, p2, _ = pts6
    gram = pairing_matrix(c6, (p1, point(c6.e1, 0)), TOL)
    self_pair, torsion_pair = gram.entries[0]
    assert self_pair == pytest.approx(2 * canonical_height(c6, p1, TOL / 3).value, abs=10 * TOL)
    assert abs(torsion_pair) < 10 * TOL


def test_parallelogram_law(c6, pts6):
    p1, p2, _ = pts6
    for a, b in ((p1, p2), (p1, add(c6, p1, p2)), (p2, negate(p1))):
        lhs = (
            canonical_height(c6, add(c6, a, b), TOL).value
            + canonical_height(c6, add(c6, a, negate(b)), TOL).value
        )
        rhs = 2 * canonical_height(c6, a, TOL).value + 2 * canonical_height(c6, b, TOL).value
        assert abs(lhs - rhs) < 10 * TOL


def test_quadraticity(c6, pts6):
    for p in pts6:
        h1 = canonical_height(c6, p, TOL).value
        h2 = canonical_height(c6, add(c6, p, p), TOL).value
        assert abs(h2 - 4 * h1) < 10 * TOL


def test_pairing_matrix_sign_pattern_and_rank(c6, pts6):
    p1, p2, p3 = pts6
    gram = pairing_matrix(c6, (p1, p2), TOL)
    assert gram.entries[0][0] > 0 and gram.entries[1][1] > 0
    assert gram.entries[0][1] < 0
    assert gram.determinant > 0.1
    assert independence_rank(c6, (p1, p2), TOL) == 2
    assert independence_rank(c6, (p1, p1), TOL) == 1
    # The three generators satisfy P1 + P2 + P3 = O, so the 3x3 Gram matrix
    # is singular of rank 2, with row sums near zero.
    gram3 = pairing_matrix(c6, (p1, p2, p3), TOL)
    for row in gram3.entries:
        assert abs(sum(row)) < 30 * TOL
    assert independence_rank(c6, (p1, p2, p3), TOL) == 2


def test_pairing_matrix_matches_log_m_profile(c6, pts6):
    # Entrywise the 2x2 Gram matrix is ln(m) * [[2, -1], [-1, 3]] up to
    # lower-order terms.
    p1, p2, _ = pts6
    gram = pairing_matrix(c6, (p1, p2), TOL)
    unit = math.log(6)
    profile = ((2, -1), (-1, 3))
    for i in range(2):
        for j in range(2):
            assert gram.entries[i][j] / unit == pytest.approx(profile[i][j], abs=0.12)


def test_rejects_off_curve_point(c6):
    with pytest.raises(ValueError):
        canonical_height(c6, point(1, 1), TOL)
