import math
from fractions import Fraction

import pytest

from emcurve import heights
from emcurve.curve import INFINITY, add, negate, point
from emcurve.family import build_curve, scan_admissible
from emcurve.heights import (
    HeightBudgetExceeded,
    HeightEstimate,
    _doubling_chain,
    _duplication_step,
    _numerators,
    _open_window,
    _window_step,
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
def c12():
    return build_curve(12)


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


def test_budget_error_carries_estimate(c6, pts6, monkeypatch):
    # Pinned bit for bit: the doubling must keep the exact reduced pair, so
    # the estimate and the step at which the cap hits never move.
    p1, _, _ = pts6
    monkeypatch.setattr(heights, "DEFAULT_MAX_BITS", 2000)
    with pytest.raises(HeightBudgetExceeded) as exc:
        canonical_height(c6, p1, 1e-12)
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


def _pairing_starts(c):
    """The five points whose heights the pairing of (0, t), (n1, t) takes."""
    p1, p2 = point(0, c.t), point(c.n1, c.t)
    return [p1, p2, add(c, p1, p2), add(c, p1, p1), add(c, p2, p2)]


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
    for start in _pairing_starts(c):
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


def _checked_window_step(c, w, v, window=None):
    """_window_step from the window of the exact pair (w, v), or from
    `window`, checked against the exact step: its float and bit length, and
    the next window holding (w', v') in its box and residues.  None if it
    declines."""
    qr = c.q_value * c.r_value
    step = _window_step(window or _open_window(w, v, c.s_primes), c.e3, qr)
    w2, v2 = _duplication_step(w, v, c.e3, qr, c.s_primes)
    if step is not None:
        top = max(abs(w2 + c.e3 * v2), v2)
        assert step[:2] == (math.log(top), top.bit_length())
        s, box, moduli, residues = step[2]
        for x, iv in zip((w2, v2), box):
            assert iv.lo << s <= x <= iv.hi << s
        big = math.prod(moduli.values())
        assert residues == (w2 % big, v2 % big)
    return step


def test_certified_log_declines_or_matches_the_exact_step():
    # Called directly, so the width gate is bypassed and the narrow first
    # steps are checked too.  Above the gate it must also certify.
    certified, wide_steps = 0, 0
    for m in [*scan_admissible(2, 2000), 10008, 100152, 1000038]:
        c = build_curve(m)
        qr = c.q_value * c.r_value
        for start in _pairing_starts(c):
            w, v = start.x.numerator - c.e3 * start.x.denominator, start.x.denominator
            for _ in range(canonical_height(c, start, TOL / 3).iterations):
                wide = max(w.bit_length(), v.bit_length()) > heights._CERTIFY_MIN_BITS
                step = _checked_window_step(c, w, v)
                w, v = _duplication_step(w, v, c.e3, qr, c.s_primes)
                certified += step is not None
                assert step is not None or not wide, m
                wide_steps += wide
    # Most declines are the first steps, whose boxes are too coarse.
    assert (certified, wide_steps) == (494, 14)


def _multiple(c, p, k):
    q = INFINITY
    for _ in range(abs(k)):
        q = add(c, q, p)
    return q if k >= 0 else negate(q)


@pytest.mark.parametrize("m", [6, 12, 30])
def test_certified_log_strips_the_bad_primes_exactly(m):
    # The pairing chains reduce by g > 1 only at their coarse first step.
    # The first steps from a (0, t) + b (n1, t) reduce by g > 1 too, at
    # widths the window can pin.
    c = build_curve(m)
    qr = c.q_value * c.r_value
    p1, p2 = point(0, c.t), point(c.n1, c.t)
    stripped = 0
    for a in range(5):
        for b in range(-4, 5):
            q = add(c, _multiple(c, p1, a), _multiple(c, p2, b))
            if q.is_infinity or q.y == 0:
                continue
            w, v = q.x.numerator - c.e3 * q.x.denominator, q.x.denominator
            if _checked_window_step(c, w, v) is not None:
                v2 = _duplication_step(w, v, c.e3, qr, c.s_primes)[1]
                stripped += _numerators(w, v, c.e3, qr)[1] != v2  # v2 = dv / g
    assert stripped >= 10


def test_certified_log_declines_when_both_residues_vanish():
    # 2^40 | w, v puts 2^160 in nu and dv, past the 2^65 the residues see.
    c = build_curve(6)
    w, v = 2**40 * 12345678901234567890**150, 2**40 * 98765432109876543211**150
    assert _window_step(_open_window(w, v, c.s_primes), c.e3, c.q_value * c.r_value) is None


def test_window_step_declines_when_stripping_uses_up_the_precision():
    # The first step from (0, t) - 3 (n1, t) at m = 12 strips 2^2.  Residues
    # mod 2^2 cannot tell that valuation from a larger one, and the step
    # declines; mod 2^3 it certifies, and the next window reads 2 mod 2^1.
    c = build_curve(12)
    q = add(c, point(0, c.t), _multiple(c, point(c.n1, c.t), -3))
    w, v = q.x.numerator - c.e3 * q.x.denominator, q.x.denominator
    s, box, moduli, _ = _open_window(w, v, c.s_primes)
    assert _checked_window_step(c, w, v) is not None
    for bits, certifies in ((2, False), (3, True)):
        narrowed = {**moduli, 2: 2**bits}
        big = math.prod(narrowed.values())
        step = _checked_window_step(c, w, v, (s, box, narrowed, (w % big, v % big)))
        assert (step is not None) == certifies
    assert step[2][2][2] == 2


def test_window_step_declines_when_the_bit_length_straddles_a_power_of_two():
    # With e3 = QR = 0 and no bad primes, M = w^4 over the box.  Both ends
    # round to 2^240, but on [2^60 - 1, 2^60] w^4 crosses 2^240.
    def step(lo, hi):
        box = (heights._Interval(lo, hi), heights._Interval(1, 1))
        return _window_step((0, box, {}, (0, 0)), 0, 0)

    assert step(2**60 + 1, 2**60 + 2)[:2] == (math.log(2**240), 241)
    assert step(2**60 - 1, 2**60) is None


def test_certified_step_skips_one_exact_doubling(c12, monkeypatch):
    # At m = 12, h(2 (n1, t)) runs 6 steps.  The last three, from 2,751,
    # 11,003 and 44,009 bits, run on the window: 3 exact doublings.
    calls = []

    def counted(*args):
        calls.append(args)
        return _duplication_step(*args)

    monkeypatch.setattr(heights, "_duplication_step", counted)
    est = canonical_height(c12, _pairing_starts(c12)[4], TOL / 3)
    assert (est.iterations, len(calls)) == (6, 3)


def test_declined_certificate_falls_back_to_the_exact_step(c12, monkeypatch):
    # Eight bits cannot pin a double, so the first window step declines, the
    # chain runs every step exactly and gives the same estimate.
    verdicts = []

    def recorded(*args):
        verdicts.append(_window_step(*args))
        return verdicts[-1]

    monkeypatch.setattr(heights, "_WINDOW_BITS", 8)
    monkeypatch.setattr(heights, "_CERTIFY_MIN_BITS", 0)
    monkeypatch.setattr(heights, "_window_step", recorded)
    est = canonical_height(c12, _pairing_starts(c12)[4], TOL / 3)
    assert verdicts == [None]
    assert est == HeightEstimate(
        value=14.89485050000572, iterations=6, error_bound=7.116838318665941e-08
    )


def test_certified_log_is_cross_checked_by_the_exact_step(c12, monkeypatch):
    # A decline after a window step makes the chain catch up exactly from
    # the last exact pair, and each float the window gave must match.
    def second_declines(wrong):
        verdicts = iter([True, False])

        def step(*args):
            got = _window_step(*args)
            return (wrong or got[0], *got[1:]) if next(verdicts) else None

        return step

    monkeypatch.setattr(heights, "_window_step", second_declines(None))
    assert canonical_height(c12, _pairing_starts(c12)[4], TOL / 3) == HeightEstimate(
        *TABLE1_HEIGHTS[12][4])
    monkeypatch.setattr(heights, "_window_step", second_declines(1e6))
    with pytest.raises(AssertionError, match="window 1000000.0 != exact"):
        canonical_height(c12, _pairing_starts(c12)[4], TOL / 3)


# canonical_height(c, p, TOL / 3) at the pairing's five points for each
# table1 m, (value, iterations, error_bound), pinned bit for bit from the
# exact doubling chain.
TABLE1_HEIGHTS = {
    6: [(1.8153911822899507, 5, 1.1596110738310017e-09),
        (2.672719959400046, 6, 1.1559643926517538e-06),
        (2.7131231423618583, 6, 2.7413331946668507e-06),
        (7.261564729159803, 4, 4.638444295324007e-09),
        (10.690879837600184, 5, 4.623857570607015e-06)],
    12: [(2.4911377090853692, 6, 2.5126301039790633e-09),
         (3.7224084933507235, 3, 0.00019874828429511382),
         (3.732796766824746, 3, 0.0001781966929090828),
         (9.964550836341477, 5, 1.0050520415916253e-08),
         (14.89485050000572, 6, 7.116838318665941e-08)],
    30: [(3.4013052310766945, 3, 7.854122236272687e-05),
         (5.100969123277406, 3, 4.97915816133343e-06),
         (5.102635670015251, 3, 4.891462284106751e-06),
         (13.605220924306778, 2, 0.0003141648894509075),
         (20.403876493109625, 2, 1.991663264533372e-05)],
    42: [(3.737697785390645, 3, 2.0535481022765367e-05),
         (5.606080912133689, 3, 1.2911000268900352e-06),
         (5.606931236332274, 3, 1.27944371985933e-06),
         (14.95079114156258, 2, 8.214192409106147e-05),
         (22.424323648534756, 2, 5.164400107560141e-06)],
    60: [(4.094351331153583, 3, 4.936419764511868e-06),
         (6.141308906373261, 3, 3.093162259659721e-07),
         (6.141725571164596, 3, 3.079445773934708e-07),
         (16.377405324614333, 2, 1.9745679058047472e-05),
         (24.565235625493045, 2, 1.2372649038638883e-06)],
    462: [(6.13556489300784, 3, 1.4047909502323819e-09),
          (9.20334382293289, 3, 8.780176585787558e-11),
          (9.203350850537312, 3, 8.779643678735738e-11),
          (24.54225957203136, 2, 5.6191638009295275e-09),
          (36.81337529173156, 2, 3.512070634315023e-10)],
}


@pytest.mark.parametrize("m", sorted(TABLE1_HEIGHTS))
def test_table1_height_estimates_are_pinned(m):
    c = build_curve(m)
    assert [canonical_height(c, p, TOL / 3) for p in _pairing_starts(c)] == [
        HeightEstimate(*row) for row in TABLE1_HEIGHTS[m]
    ]


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


def test_det_signs_the_pivot_product_by_the_row_swaps():
    assert heights._det(((0.0, 1.0), (1.0, 0.0))) == -1.0
    assert heights._det(((2.0, 1.0), (1.0, 3.0))) == 5.0
    # The swap makes the pivots (2.0, 0.0); a zero column gives +0.0, never -0.0.
    det = heights._det(((0.0, 0.0), (2.0, 0.0)))
    assert det == 0.0 and math.copysign(1.0, det) == 1.0


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


def _outcome(c, p, tol):
    """canonical_height(c, p, tol), or the estimate its bit-cap error carries."""
    try:
        return canonical_height(c, p, tol)
    except HeightBudgetExceeded as exc:
        return ("capped", exc.estimate)


def _chain_outcomes(c, p, tol):
    """h-hat(P) and h-hat(2P) from P's one chain, in _outcome's form."""
    return [("capped", r.estimate) if isinstance(r, HeightBudgetExceeded) else r
            for r in _doubling_chain(c, p, tol, 2)]


@pytest.mark.parametrize("ms, caps", [
    (sorted(TABLE1_HEIGHTS), 1),
    ([10008, 100152, 1000038, 100000038], 0),
    (list(scan_admissible(2, 3000)), 3),
], ids=["table1", "ladder", "m<=3000"])
def test_one_chain_reads_h_of_p_and_2p_bit_for_bit(ms, caps):
    # The chain of 2P is P's one step on: value, iterations and gap equal
    # canonical_height's on P and on 2P, bit-cap hits included (2 P1 at m = 30,
    # and 2 P1 and 2 P2 at m = 4, at the lower tolerance).
    capped = 0
    for m in ms:
        c = build_curve(m)
        for p in (point(0, c.t), point(c.n1, c.t)):
            for tol in (1e-3 / 3, 1e-4 / 3):
                got = _chain_outcomes(c, p, tol)
                want = [_outcome(c, p, tol), _outcome(c, add(c, p, p), tol)]
                assert got == want, (m, tol)
                capped += sum(isinstance(r, tuple) for r in got)
        if m in TABLE1_HEIGHTS:
            rows = TABLE1_HEIGHTS[m]
            for p, (row, row2) in ((point(0, c.t), (rows[0], rows[3])),
                                   (point(c.n1, c.t), (rows[1], rows[4]))):
                assert _doubling_chain(c, p, TOL / 3, 2) == [HeightEstimate(*row),
                                                             HeightEstimate(*row2)]
    assert capped == caps


def test_window_chain_matches_the_exact_chain_bit_for_bit(monkeypatch):
    # Every reading of the chains the pairing runs, bit-cap errors included,
    # against the same chain with the window never opened.
    steps = []

    def counted(*args):
        got = _window_step(*args)
        steps.append(got is not None)
        return got

    for m in scan_admissible(2, 3000):
        c = build_curve(m)
        p1, p2 = point(0, c.t), point(c.n1, c.t)
        for p in (p1, p2, add(c, p1, p2)):
            for tol in (1e-3 / 3, 1e-6, 1e-9):
                with monkeypatch.context() as patch:
                    patch.setattr(heights, "_window_step", counted)
                    got = _chain_outcomes(c, p, tol)
                with monkeypatch.context() as patch:
                    patch.setattr(heights, "_CERTIFY_MIN_BITS", math.inf)
                    assert got == _chain_outcomes(c, p, tol), (m, p, tol)
    assert (steps.count(True), steps.count(False)) == (290, 0)


def test_one_chain_on_torsion_and_identity_reads_zero(c6):
    zero = HeightEstimate(value=0.0, iterations=0, error_bound=0.0)
    for p in (*(point(e, 0) for e in c6.roots), INFINITY):
        assert add(c6, p, p) == INFINITY
        assert _doubling_chain(c6, p, TOL, 2) == [zero, zero]
        assert canonical_height(c6, add(c6, p, p), TOL) == zero


def _first_capped(c, pts, tol):
    """The estimate of the first bit-cap error in the order the pairing's
    entries read their heights: h(P_i + P_j), then h(P_i) and h(P_j), each on
    its own chain, with 2P = P + P."""
    for i in range(len(pts)):
        for j in range(i, len(pts)):
            for q in (add(c, pts[i], pts[j]), pts[i], pts[j]):
                got = _outcome(c, q, tol / 3)
                if isinstance(got, tuple):
                    return got[1]
    return None


@pytest.mark.parametrize("m, which, tol, cap", [
    (6, "first", 1e-12, 2000),
    (12, "first", 1e-12, 20000),
    (30, "second", 1e-4, 2000),
    (60, "second", 1e-5, 4000),
])
def test_capped_pairing_raises_the_first_capped_height(m, which, tol, cap, monkeypatch):
    # On the diagonal 2P is read before P; a later point's P is read (for
    # its first pair) before its 2P (on its own diagonal).  Both chains are
    # capped here, at different estimates, so the order shows.
    c = build_curve(m)
    p1, p2 = point(0, c.t), point(c.n1, c.t)
    # Where P1 comes second, h(2 P2), h(P2) and h(P2 + P1) end under the cap.
    pts = (p1, p2) if which == "first" else (p2, p1)
    monkeypatch.setattr(heights, "DEFAULT_MAX_BITS", cap)
    want = _first_capped(c, pts, tol)
    h1, h2 = _chain_outcomes(c, p1, tol / 3)
    assert isinstance(h1, tuple) and isinstance(h2, tuple) and h1 != h2
    assert want == (h2 if which == "first" else h1)[1]
    with pytest.raises(HeightBudgetExceeded) as exc:
        pairing_matrix(c, pts, tol)
    assert exc.value.estimate == want
