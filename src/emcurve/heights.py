"""Naive and canonical heights, the height pairing, and its numerical rank.

The canonical height is computed straight from its defining doubling limit,
h-hat(P) = (1/2) lim H(2^N P) / 4^N, with exact integer arithmetic, doubling
in x' = x - 4m^2 on y^2 = x'(x'^2 + 8m^2 x' - QR), which puts the 2-torsion
point (4m^2, 0) at the origin.  The pair x'(2^N P) is kept reduced by
stripping the bad primes, exact because the resultant of the duplication
numerator and denominator is supported on 2AQR.  Coordinates grow 4x in bit
length per doubling, so a bit-length cap bounds the work.  Past
_CERTIFY_MIN_BITS a step is needed only for its float estimate and the bit
length the cap reads, so the chain carries a window instead of the pair:
bounds on the pair's top bits and its residues mod the bad primes, from which
_window_step certifies both bit for bit, or declines and the chain doubles
exactly from its last exact pair.  The chain of 2P is P's chain one step on,
so one chain per point gives both h-hat(P) and h-hat(2P), and the pairing of
two points takes three chains.  The pairing keeps its points' chains by
position, and a chain builds an estimate only at the step where a reader
stops or meets the cap.

The pairing is a report: DescentContext.rank_lower_bound certifies rank >= 2
exactly, and independence_rank is a numerical cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import DEFAULT_MAX_BITS, DEFAULT_TOL
from .curve import RationalPoint, add, contains
from .family import CurveParams

# Width max(bits(w), bits(v)) past which the chain steps a window.  Per step
# at m = 6 (2-core x86, Python 3.11), exact against window: 8 vs 31 us at
# 490 bits, 45 vs 31 us at 2,000 and 360 vs 31 us at 7,900, where opening
# the window costs 23 us.
_CERTIFY_MIN_BITS = 2000
_WINDOW_BITS = 128  # bits of w and v that a window keeps


class HeightBudgetExceeded(RuntimeError):
    """Tolerance unmet when the bit-length cap was hit; carries the last estimate."""

    def __init__(self, estimate: "HeightEstimate"):
        super().__init__(
            f"height iteration hit the bit cap at N={estimate.iterations} "
            f"with error bound {estimate.error_bound:.3g}"
        )
        self.estimate = estimate

    def __reduce__(self):
        # Rebuilt from the estimate, so that it unpickles in a scan --jobs parent.
        return type(self), (self.estimate,)


@dataclass(frozen=True)
class HeightEstimate:
    value: float
    iterations: int
    error_bound: float


@dataclass(frozen=True)
class PairingMatrix:
    points: tuple[RationalPoint, ...]
    entries: tuple[tuple[float, ...], ...]
    determinant: float


def naive_height(p: RationalPoint) -> float:
    """log max(|num|, |den|) of x(P) in lowest terms; H((0, y)) = 0."""
    if p.is_infinity:
        raise ValueError("naive height of the identity is handled by canonical_height")
    num, den = abs(p.x.numerator), p.x.denominator
    return math.log(max(num, den, 1))


def _numerators(w, v, e3: int, qr: int):
    """The unreduced numerator and denominator of x'(2P) from x'(P) = w/v, or
    their bounds over a box when w and v are _Intervals."""
    w2, v2, wv = w * w, v * v, w * v
    qv2 = qr * v2
    t = w2 + qv2
    return t * t, 4 * wv * (w2 + 2 * e3 * wv - qv2)


def _duplication_step(
    w: int, v: int, e3: int, qr: int, strip: tuple[int, ...]
) -> tuple[int, int]:
    """x'(2P) = (w', v') from x'(P) = w/v, both in lowest terms with v > 0.

    x'(2P) = (x'^2 - b)^2 / 4y^2 on y^2 = x'(x'^2 + a x' + b), a = 2 e3, b = -QR
    (Silverman-Tate III.2), where 4 v^4 y^2 = 4 w v (w^2 + a w v + b v^2) > 0.  A
    prime dividing both divides 2 b (a^2 - 4b) = -8 QR A^2 (QR = A^2 - 16m^4), so
    stripping `strip` (s_primes) reduces exactly.
    """
    nu, dv = _numerators(w, v, e3, qr)
    for p in strip:
        while nu % p == 0 and dv % p == 0:
            nu //= p
            dv //= p
    return nu, dv


class _Interval:
    """The integers lo..hi, with the sums and products _numerators takes."""

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi = lo, hi

    def __add__(self, o):
        return _Interval(self.lo + o.lo, self.hi + o.hi)

    def __sub__(self, o):
        return _Interval(self.lo - o.hi, self.hi - o.lo)

    def __mul__(self, o):
        o = _Interval(o, o) if isinstance(o, int) else o
        ends = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return _Interval(min(ends), max(ends))

    __rmul__ = __mul__


def _open_window(w: int, v: int, strip: tuple[int, ...]) -> tuple:
    """The window of the exact pair (w, v): the scale s = max(bits(w),
    bits(v)) - _WINDOW_BITS, the box [w>>s, (w>>s)+1] x [v>>s, (v>>s)+1] that
    holds (w, v) / 2^s, the moduli {p: p^J} over strip, each the least power
    past 2^64, and (w, v) mod their product."""
    s = max(max(w.bit_length(), v.bit_length()) - _WINDOW_BITS, 0)
    box = tuple(_Interval(x >> s, (x >> s) + 1) for x in (w, v))
    moduli = {p: p ** (64 // (p.bit_length() - 1) + 1) for p in strip}
    big = math.prod(moduli.values())
    return s, box, moduli, (w % big, v % big)


def _window_step(window: tuple, e3: int, qr: int) -> tuple | None:
    """(log, bits, window') for the step (w', v') = _duplication_step(w, v, ...)
    from a window of (w, v): log = math.log(M) and bits = M.bit_length() for
    M = max(|u'|, v'), u' = w' + e3 v', and window' the window of (w', v'); None
    if uncertified.

    _numerators is homogeneous of degree 4, so exact interval arithmetic puts
    M g in [lo, hi] 2^(4s).  The stripped g = prod p^min(v_p(nu), v_p(dv)) is
    read exactly from the residues mod each p^J (a zero residue has the larger
    valuation, so v_p(g) < J); g divides the modulus and the residues of nu
    and dv, so their quotients are the residues of (w', v') mod the modulus
    over g, and what stripping leaves of p^J the next step reads.  Int true
    division rounds correctly, so if lo and hi over 2^t g round to one double,
    it times 2^(4s+t) is M correctly rounded; and CPython's math.log of an int
    reads only that double, or _PyLong_Frexp's correctly rounded mantissa and
    exponent when it overflows.  Declines when the bounds round apart (as when
    lo <= 0 by cancellation), both residues vanish mod some p^J, M < 2^53 (a
    guard that operands as wide as _CERTIFY_MIN_BITS do not reach), or the
    floors of the bounds differ in bit length, so that bits straddles a power
    of two.
    """
    s, (w, v), moduli, residues = window
    big = math.prod(moduli.values())
    nu_r, dv_r = (x % big for x in _numerators(*residues, e3, qr))
    g, left = 1, {}
    for p, pj in moduli.items():
        nu, dv = nu_r % pj, dv_r % pj
        if nu == dv == 0:
            return None
        while nu % p == 0 and dv % p == 0:
            nu, dv, pj, g = nu // p, dv // p, pj // p, g * p
        left[p] = pj
    nu, dv = _numerators(w, v, e3, qr)
    u = nu + e3 * dv
    lo, hi = max(u.lo, -u.hi, dv.lo), max(-u.lo, u.hi, dv.hi)
    t = max(hi.bit_length() - g.bit_length() - 64, 0)  # brings hi/g to about 2^64
    lo_f, hi_f = lo / (g << t), hi / (g << t)
    bits = (lo // (g << t)).bit_length()
    if lo_f != hi_f or lo_f < 2.0**53 or bits != (hi // (g << t)).bit_length():
        return None
    r = max(max(nu.hi.bit_length(), dv.hi.bit_length()) - g.bit_length() - _WINDOW_BITS, 0)
    box = tuple(_Interval(x.lo // (g << r), -(-x.hi // (g << r))) for x in (nu, dv))
    window = 4 * s + r, box, left, (nu_r // g, dv_r // g)
    return math.log(int(lo_f) << 4 * s + t), bits + 4 * s + t, window


def _exact_step(w: int, v: int, e3: int, qr: int,
                strip: tuple[int, ...]) -> tuple[int, int, float, int]:
    """(w', v', log, bits) of _duplication_step, as _window_step reads them."""
    # A 2-torsion x would zero the denominator; non-torsion points never hit it.
    w, v = _duplication_step(w, v, e3, qr, strip)
    u = w + e3 * v  # x(2P) = u/v, still in lowest terms
    return w, v, math.log(max(abs(u), v)), max(u.bit_length(), v.bit_length())


def _doubling_chain(
    c: CurveParams, p: RationalPoint, tol: float, readers: int
) -> list[HeightEstimate | HeightBudgetExceeded]:
    """canonical_height of 2^s P for s < readers, each an estimate or the
    error it raises, from P's one chain.  The chain of 2^s P is P's from step
    s on, so its estimates and gaps are P's times 4^s, exactly in binary
    floating point, and reader s stops where that chain alone would, so the
    readers end in order.  A reader's HeightEstimate is built only at the
    step where it stops or meets the cap.

    Once the operands pass _CERTIFY_MIN_BITS the chain steps a window
    (_window_step) and keeps the last exact pair.  At the first decline it
    catches up exactly from that pair, checking each float the window gave
    bit for bit, and carries on exactly."""
    if not 0 < tol < math.inf:  # also false for nan
        raise ValueError("tol must be finite and positive")
    if not contains(c, p):
        raise ValueError(f"{p} is not on the curve for m={c.m}")
    if p.is_infinity or p.y == 0:
        return [HeightEstimate(value=0.0, iterations=0, error_bound=0.0)] * readers

    e3, qr, strip = c.e3, c.q_value * c.r_value, c.s_primes
    w, v = p.x.numerator - e3 * p.x.denominator, p.x.denominator
    est_prev = naive_height(p) / 2.0
    out: list = [None] * readers
    gaps = [math.inf] * readers  # reader s's last gap, from step s + 1 on
    window, windowed = None, []  # False once declined; the floats it gave since (w, v)
    n = 0
    while out[-1] is None:
        n += 1
        if window is None and max(w.bit_length(), v.bit_length()) > _CERTIFY_MIN_BITS:
            window = _open_window(w, v, strip)
        step = window and _window_step(window, e3, qr)
        if step:
            log_top, bits, window = step
            windowed.append(log_top)
        else:
            for certified in windowed:
                w, v, log_top, _ = _exact_step(w, v, e3, qr, strip)
                if certified != log_top:
                    raise AssertionError(f"window {certified!r} != exact {log_top!r}")
            if window:
                window, windowed = False, []
            w, v, log_top, bits = _exact_step(w, v, e3, qr, strip)
        capped = bits * 4 > DEFAULT_MAX_BITS
        est = log_top / (2.0 * 4.0**n)
        for s in range(min(n, readers)):
            if out[s] is not None:
                continue
            gap = 4.0**s * abs(est - est_prev)
            # The gap sequence is not monotone (early coincidental plateaus
            # occur), so demand two consecutive sub-tolerance gaps.
            stops = gap < tol and gaps[s] < tol
            if stops or capped:
                reading = HeightEstimate(4.0**s * est, iterations=n - s, error_bound=gap)
                out[s] = reading if stops else HeightBudgetExceeded(reading)
            gaps[s] = gap
        est_prev = est
    return out


def _estimate(reading: HeightEstimate | HeightBudgetExceeded) -> HeightEstimate:
    """A chain reader's estimate; its bit-cap error is raised instead."""
    if isinstance(reading, HeightBudgetExceeded):
        raise reading
    return reading


def canonical_height(c: CurveParams, p: RationalPoint,
                     tol: float = DEFAULT_TOL) -> HeightEstimate:
    """Neron-Tate height by the doubling limit, exactly 0 on torsion.

    Stops once successive normalized estimates differ by less than tol,
    which must be finite and positive (ValueError otherwise);
    raises HeightBudgetExceeded (carrying the last estimate) if the
    coordinate bit-length cap DEFAULT_MAX_BITS is reached first.  Steps
    past _CERTIFY_MIN_BITS run on a window (_window_step) that certifies the
    exact chain's float and bit length; after a decline the chain runs
    exactly, and each float a window gave must agree bit for bit.
    """
    return _estimate(_doubling_chain(c, p, tol, 1)[0])


def pairing_matrix(
    c: CurveParams,
    pts: list[RationalPoint] | tuple[RationalPoint, ...],
    tol: float = DEFAULT_TOL,
) -> PairingMatrix:
    """Gram matrix of <P, Q> = h-hat(P+Q) - h-hat(P) - h-hat(Q).

    Every height is taken at tol/3, by one doubling chain per point, which
    gives h-hat(P) and, one step on, h-hat(2P), and one per pair of points
    for h-hat(P+Q): two points take three chains.  The points' chains are
    kept by position, each run when an entry first reads it.  A bit-cap
    error raises in the order the entries read the heights, h-hat(2P)
    before h-hat(P) on the diagonal.
    """
    pts = tuple(pts)
    k = len(pts)
    chains: list = [None] * k  # by position, each run on first read

    def height(i: int, doubled: bool = False) -> float:
        if chains[i] is None:
            chains[i] = _doubling_chain(c, pts[i], tol / 3.0, 2)
        return _estimate(chains[i][doubled]).value

    entries = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            hsum = (height(i, doubled=True) if i == j
                    else canonical_height(c, add(c, pts[i], pts[j]), tol / 3.0).value)
            entries[i][j] = entries[j][i] = hsum - height(i) - height(j)
    rows = tuple(tuple(r) for r in entries)
    return PairingMatrix(points=pts, entries=rows, determinant=_det(rows))


def _pivots(rows: tuple[tuple[float, ...], ...]) -> tuple[list[float], int]:
    """(pivots in column order, row swaps) of Gaussian elimination with
    partial pivoting; it stops at the first zero column, short of a full list."""
    n = len(rows)
    a = [list(r) for r in rows]
    pivots, swaps = [], 0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0.0:
            break
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            swaps += 1
        pivots.append(a[col][col])
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for cc in range(col, n):
                a[r][cc] -= f * a[col][cc]
    return pivots, swaps


def _det(rows: tuple[tuple[float, ...], ...]) -> float:
    """The pivots' product in order, signed by the swaps; +0.0 on a zero column."""
    pivots, swaps = _pivots(rows)
    return math.prod(pivots, start=(-1.0) ** swaps) if len(pivots) == len(rows) else 0.0


def independence_rank(
    c: CurveParams,
    pts: list[RationalPoint] | tuple[RationalPoint, ...],
    tol: float = DEFAULT_TOL,
) -> int:
    """Numerical rank of the pairing matrix of pts, computed at tol.

    The pivots of the elimination behind the determinant (_pivots, partial
    pivoting) that exceed 50*tol in absolute value.  Positive-semidefiniteness
    of the pairing makes this a lower bound on the number of independent
    points, up to the height error; the exact certificate is descent's
    rank_lower_bound.
    """
    pivots, _ = _pivots(pairing_matrix(c, pts, tol).entries)
    return sum(abs(p) > 50.0 * tol for p in pivots)
