import math
from fractions import Fraction

import pytest

from emcurve.curve import INFINITY, add, negate, point
from emcurve.family import build_curve
from emcurve.heights import (
    HeightBudgetExceeded,
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
    p1, _, _ = pts6
    with pytest.raises(HeightBudgetExceeded) as exc:
        canonical_height(c6, p1, 1e-12, max_bits=2000)
    assert exc.value.estimate.value > 0


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
