"""Naive and canonical heights, the height pairing, and its numerical rank.

The canonical height is computed straight from its defining doubling limit,
h-hat(P) = (1/2) lim H(2^N P) / 4^N, with exact integer arithmetic, doubling
in x' = x - 4m^2 on y^2 = x'(x'^2 + 8m^2 x' - QR), which puts the 2-torsion
point (4m^2, 0) at the origin.  The pair x'(2^N P) is kept reduced by
stripping the bad primes, exact because the resultant of the duplication
numerator and denominator is supported on 2AQR.  Coordinates grow 4x in bit
length per doubling, so a bit-length cap bounds the work.

The pairing is a report: DescentContext.rank_lower_bound certifies rank >= 2
exactly, and independence_rank is a numerical cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .curve import RationalPoint, add, contains
from .family import CurveParams

DEFAULT_TOL = 1e-3
DEFAULT_MAX_BITS = 10**6


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


def _duplication_step(
    w: int, v: int, e3: int, qr: int, strip: tuple[int, ...]
) -> tuple[int, int]:
    """x'(2P) = (w', v') from x'(P) = w/v, both in lowest terms with v > 0.

    x'(2P) = (x'^2 - b)^2 / 4y^2 on y^2 = x'(x'^2 + a x' + b), a = 2 e3, b = -QR
    (Silverman-Tate III.2), where 4 v^4 y^2 = 4 w v (w^2 + a w v + b v^2) > 0.  A
    prime dividing both divides 2 b (a^2 - 4b) = -8 QR A^2 (QR = A^2 - 16m^4), so
    stripping `strip` (s_primes) reduces exactly.
    """
    w2, v2, wv = w * w, v * v, w * v
    qv2 = qr * v2
    nu = (w2 + qv2) ** 2
    dv = 4 * wv * (w2 + 2 * e3 * wv - qv2)
    for p in strip:
        while nu % p == 0 and dv % p == 0:
            nu //= p
            dv //= p
    return nu, dv


def canonical_height(
    c: CurveParams,
    p: RationalPoint,
    tol: float = DEFAULT_TOL,
    *,
    max_bits: int = DEFAULT_MAX_BITS,
) -> HeightEstimate:
    """Neron-Tate height by the doubling limit, exactly 0 on torsion.

    Stops once successive normalized estimates differ by less than tol,
    which must be finite and positive (ValueError otherwise);
    raises HeightBudgetExceeded (carrying the last estimate) if the
    coordinate bit-length cap is reached first.
    """
    if not 0 < tol < math.inf:  # also false for nan
        raise ValueError("tol must be finite and positive")
    if not contains(c, p):
        raise ValueError(f"{p} is not on the curve for m={c.m}")
    if p.is_infinity or p.y == 0:
        return HeightEstimate(value=0.0, iterations=0, error_bound=0.0)

    e3, qr, strip = c.e3, c.q_value * c.r_value, c.s_primes
    w, v = p.x.numerator - e3 * p.x.denominator, p.x.denominator
    est_prev = naive_height(p) / 2.0
    n = 0
    gap_prev = math.inf
    while True:
        # A 2-torsion x would zero the denominator; non-torsion points never hit it.
        w, v = _duplication_step(w, v, e3, qr, strip)
        u = w + e3 * v  # x(2^n P) = u/v, still in lowest terms
        n += 1
        est = math.log(max(abs(u), v)) / (2.0 * 4.0**n)
        gap = abs(est - est_prev)
        # The gap sequence is not monotone (early coincidental plateaus
        # occur), so demand two consecutive sub-tolerance gaps.
        if gap < tol and gap_prev < tol:
            return HeightEstimate(value=est, iterations=n, error_bound=gap)
        est_prev = est
        gap_prev = gap
        if max(u.bit_length(), v.bit_length()) * 4 > max_bits:
            raise HeightBudgetExceeded(
                HeightEstimate(value=est, iterations=n, error_bound=gap)
            )


def pairing_matrix(
    c: CurveParams,
    pts: list[RationalPoint] | tuple[RationalPoint, ...],
    tol: float = DEFAULT_TOL,
) -> PairingMatrix:
    """Gram matrix of <P, Q> = h-hat(P+Q) - h-hat(P) - h-hat(Q).

    Every height is taken at tol/3 and computed once per distinct point:
    h-hat(P) once per point, h-hat(P+Q) once per pair.
    """
    pts = tuple(pts)
    k = len(pts)

    @functools.cache
    def height(p: RationalPoint) -> float:
        return canonical_height(c, p, tol / 3.0).value

    entries = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            hsum = height(add(c, pts[i], pts[j]))
            entries[i][j] = entries[j][i] = hsum - height(pts[i]) - height(pts[j])
    rows = tuple(tuple(r) for r in entries)
    return PairingMatrix(points=pts, entries=rows, determinant=_det(rows))


def _det(rows: tuple[tuple[float, ...], ...]) -> float:
    n = len(rows)
    a = [list(r) for r in rows]
    det = 1.0
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0.0:
            return 0.0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for cc in range(col, n):
                a[r][cc] -= f * a[col][cc]
    return det


def independence_rank(
    c: CurveParams,
    pts: list[RationalPoint] | tuple[RationalPoint, ...],
    tol: float = DEFAULT_TOL,
) -> int:
    """Numerical rank of the pairing matrix of pts, computed at tol.

    Pivots from Gaussian elimination with full pivoting, counted while they
    exceed 50*tol.  Positive-semidefiniteness of the pairing makes this a
    lower bound on the number of independent points, up to the height
    error; the exact certificate is descent's rank_lower_bound.
    """
    a = [list(r) for r in pairing_matrix(c, pts, tol).entries]
    n = len(a)
    threshold = 50.0 * tol
    rank = 0
    for _ in range(n):
        piv_r, piv_c, piv = 0, 0, 0.0
        for i in range(n):
            for j in range(n):
                if abs(a[i][j]) > piv:
                    piv_r, piv_c, piv = i, j, abs(a[i][j])
        if piv <= threshold:
            break
        rank += 1
        pr = a[piv_r]
        pv = pr[piv_c]
        for i in range(n):
            if i == piv_r:
                continue
            f = a[i][piv_c] / pv
            for j in range(n):
                a[i][j] -= f * pr[j]
        for j in range(n):
            pr[j] = 0.0
        for i in range(n):
            a[i][piv_c] = 0.0
    return rank
