"""Q_ell solvability of the homogeneous space attached to a descent pair.

The space for a pair (b1, b2) is cut out in P^3 by

    F1:  b1 Z1^2 - b2 Z2^2    + 2A W^2 = 0
    F2:  b1 Z1^2 - b1b2 Z3^2  +  B W^2 = 0

with A = m^4-1 and B = m^4-1-4m^2.  Projecting to the (Z1 : W) line shows a
Q_ell point exists iff some u in P^1(Q_ell) makes both

    P1(u) = (b1 u^2 + 2A) * b2       and    P2(u) = (b1 u^2 + B) * b1 b2

squares in Q_ell (zero allowed).  Two charts cover P^1: u in Z_ell, and
u = 1/(ell*y) with y in Z_ell (y = 0 is the point at infinity).  Each chart
is an instance of: do two integer quadratics take simultaneous Q_ell-square
values on Z_ell?

That question is decided by a depth-first search over residue classes
c mod ell^j.  On a class, a quadratic's value either has its valuation and
unit pinned (the square test is decided for the whole class) or the class
straddles a root and the search descends a digit.  Descents are cut off in
two ways: a Hensel-certified root of one quadratic is followed directly
(Newton refinement) and the other condition is evaluated at it; and once the
other condition's value is stable across the class the whole class is
rejected.  Both cutoffs keep the depth below

    k* = 2 * v_ell(2 * b1 * b2 * A * B * C) + 3,

the modulus at which a surviving primitive candidate would already be
Hensel-liftable; the search runs to that depth (plus a fixed slack) and
raises rather than guess if an ambiguity survives it.  At ell = 2 every
digit is tried.  At odd ell a digit line is analysed through the mod-ell
reductions of the two quadratics: only their roots (at most four digits)
need a deeper look, and a "clean" digit where both square tests pass
outright is searched for directly.  A proportionality screen decides exactly
when no clean digit exists (one reduction a non-residue times a square, or
the two reductions proportional by a non-residue); otherwise a digit scan
looks for one.  Above ell = 256 the Weil bound guarantees a hit, and below
that the scan is exhaustive.

Every Solvable verdict carries a witness quadruple modulo ell^N together
with a smooth-lift certificate: residuals of both quadrics vanish to order
2*tau+1 where tau is the valuation of some 2x2 minor of the Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numtheory import _legendre_prime, _sqrt_mod_prime, sqrt_mod_prime_power

_STRUCTURED_SCAN_CAP = 200_000
_DEPTH_SLACK = 6

REAL_PLACE = math.inf


class LocalSolverError(RuntimeError):
    """The search could not resolve within its budget; never a silent verdict."""


@dataclass(frozen=True)
class Witness:
    """Certified local point: quadruple mod ell^modulus_exp plus lift data.

    tau is the minimal valuation over the Jacobian 2x2 minors (in the affine
    chart of a unit coordinate of the quadruple); both residual valuations
    are at least 2*tau + 1, which is the multivariate Hensel criterion.
    zero_z2 / zero_z3 mark coordinates that vanish exactly on the limit
    point.  affine_valuations are (v(z1), v(z2), v(z3)) of the dehomogenized
    solution, None for an exact zero.
    """

    place: int
    chart: str
    x: int
    modulus_exp: int
    quadruple: tuple[int, int, int, int]
    tau: int
    residual_valuations: tuple[int, int]
    zero_z2: bool
    zero_z3: bool
    affine_valuations: tuple[int | None, int | None, int | None]


@dataclass(frozen=True)
class LocalVerdict:
    place: int | float
    outcome: str  # solvable | unsolvable | real_solvable | real_unsolvable
    witness: Witness | None = None

    @property
    def is_solvable(self) -> bool:
        return self.outcome in ("solvable", "real_solvable")


def _val_unit(n: int, ell: int) -> tuple[int, int]:
    """(v_ell(n), n / ell^v) for a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of 0 is +infinity; callers must branch first")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v, n


def kstar(b1: int, b2: int, a_value: int, q_value: int, r_value: int, ell: int) -> int:
    """Exhaustion modulus exponent sufficient to decide solvability at ell."""
    return 2 * _val_unit(2 * b1 * b2 * a_value * q_value * r_value, ell)[0] + 3


class _Quadratic:
    """q2 x^2 + q1 x + q0 with integer coefficients."""

    __slots__ = ("q2", "q1", "q0")

    def __init__(self, q2: int, q1: int, q0: int):
        self.q2 = q2
        self.q1 = q1
        self.q0 = q0

    def __call__(self, x: int) -> int:
        return (self.q2 * x + self.q1) * x + self.q0

    def deriv(self, x: int) -> int:
        return 2 * self.q2 * x + self.q1


class _ChartSearch:
    """Decide whether two quadratics take simultaneous Q_ell square values on Z_ell."""

    def __init__(self, p1: _Quadratic, p2: _Quadratic, ell: int, kmax: int):
        self.p = (p1, p2)
        self.ell = ell
        self.kmax = kmax
        # Newton refinement precision; generous relative to kmax so that
        # witness certification never outruns a followed root.
        self.prec = 2 * kmax + 40
        self.ell_prec = ell**self.prec

    # -- square-status primitives ------------------------------------------

    def _unit_square(self, v: int, unit: int) -> bool:
        if v % 2:
            return False
        if self.ell == 2:
            return unit % 8 == 1
        return _legendre_prime(unit, self.ell) == 1

    def _exact_square(self, n: int) -> bool:
        if n == 0:
            return True
        v, u = _val_unit(n, self.ell)
        return self._unit_square(v, u)

    def _class_status(self, i: int, x: int, jn: int) -> str:
        """Square status of p[i] on the class x mod ell^jn: yes/no/ambiguous."""
        val = self.p[i](x)
        if val == 0:
            return "amb"
        v, u = _val_unit(val, self.ell)
        margin = 3 if self.ell == 2 else 1
        if jn - v >= margin:
            return "yes" if self._unit_square(v, u) else "no"
        return "amb"

    # -- Hensel root following ---------------------------------------------

    def _refine_root(self, i: int, c: int) -> int:
        """Newton-refine the root of p[i] near c to self.prec digits."""
        q = self.p[i]
        mod = self.ell_prec
        r = c % mod
        for _ in range(64):
            val = q(r) % mod
            if val == 0:
                return r
            v_val = _val_unit(val, self.ell)[0]
            der = q.deriv(r)
            e, du = _val_unit(der, self.ell)
            if v_val >= self.prec - 1:
                return r
            step = (val // self.ell**e) * pow(du, -1, mod)
            r = (r - step) % mod
        raise LocalSolverError("Newton refinement failed to converge")

    def _root_shortcut(self, i: int, c: int, j: int):
        """Resolve an ambiguity chain when p[i] has a Hensel root in the class.

        Returns ("witness", x) when the companion condition is a square at
        the root, "prune" when it is decidedly non-square across the class,
        None when nothing is settled yet.
        """
        q = self.p[i]
        val = q(c)
        der = q.deriv(c)
        if der == 0:
            return None
        e = _val_unit(der, self.ell)[0]
        if val != 0:
            v = _val_unit(val, self.ell)[0]
            if v <= 2 * e or v - e < j:
                return None
        r = self._refine_root(i, c)
        other = self.p[1 - i](r)
        if other == 0:
            # r is an exact integer root of the companion; deeper exact tests settle it.
            return None
        v2, u2 = _val_unit(other, self.ell)
        if v2 > self.prec - 8:
            raise LocalSolverError("companion value valuation unstable at root")
        if self._unit_square(v2, u2):
            return ("witness", r, i)
        # Non-square at the root.  Once the companion value is stable on the
        # whole class (its perturbation h'(r)*(x-r) + O((x-r)^2) cannot reach
        # the unit digits), no x in the class can work.
        d2 = self.p[1 - i].deriv(r)
        e2 = _val_unit(d2, self.ell)[0] if d2 else self.prec
        margin = 3 if self.ell == 2 else 1
        if v2 + margin <= min(e2 + j, 2 * j):
            return "prune"
        return None

    # -- digit-level analysis ----------------------------------------------

    def _children_small(self, c: int, j: int):
        step = self.ell**j
        children = []
        for d in range(self.ell):
            x = c + d * step
            s1 = self._class_status(0, x, j + 1)
            if s1 == "no":
                continue
            s2 = self._class_status(1, x, j + 1)
            if s2 == "no":
                continue
            if s1 == "yes" and s2 == "yes":
                return [], x
            children.append(x)
        return children, None

    def _poly_digit_data(self, i: int, c: int, j: int):
        """p[i] restricted to the digit line x = c + d*ell^j: content and mod-ell part."""
        q = self.p[i]
        step = self.ell**j
        alpha = q(c)
        beta = q.deriv(c) * step
        gamma = q.q2 * step * step
        vals = [_val_unit(t, self.ell)[0] for t in (alpha, beta, gamma) if t != 0]
        g = min(vals)
        sc = self.ell**g
        rbar = ((alpha // sc) % self.ell, (beta // sc) % self.ell,
                (gamma // sc) % self.ell)
        return g, rbar

    def _rbar_roots(self, rbar) -> list[int]:
        r0, r1, r2 = rbar
        ell = self.ell
        if r2 == 0:
            if r1 == 0:
                return []  # nonzero constant
            return [(-r0) * pow(r1, -1, ell) % ell]
        disc = (r1 * r1 - 4 * r2 * r0) % ell
        s = _sqrt_mod_prime(disc, ell)
        if s is None:
            return []
        inv = pow(2 * r2, -1, ell)
        roots = {(-r1 + s) * inv % ell, (-r1 - s) * inv % ell}
        return sorted(roots)

    def _no_clean_digit(self, rb1, rb2) -> bool:
        """True when no digit off the roots makes both reductions residues.

        A reduction that is e * (constant or linear)^2 has chi(e) at every
        such digit: a non-residue e rules them all out, and if both are such
        with residue e, every digit is clean.  Otherwise R1*R2 is a constant
        times a square exactly when R2 = lam * R1, and then chi(R1)*chi(R2) =
        chi(lam) at every such digit, so there is no clean digit iff
        chi(lam) = -1.  In every other case the Weil bound guarantees a
        clean digit once ell > 256.
        """
        ell = self.ell
        chis = []
        for r0, r1, r2 in (rb1, rb2):
            if r2 == 0 and r1 == 0:
                chis.append(_legendre_prime(r0, ell))
            elif r2 != 0 and (r1 * r1 - 4 * r2 * r0) % ell == 0:
                chis.append(_legendre_prime(r2, ell))
            else:
                chis.append(None)  # linear, or two distinct roots or none
        if -1 in chis:
            return True
        if chis == [1, 1]:
            return False
        # rbar is never zero (its content is stripped), so k exists.
        k = next(i for i, r in enumerate(rb1) if r)
        lam = rb2[k] * pow(rb1[k], -1, ell) % ell
        if any((lam * a - b) % ell for a, b in zip(rb1, rb2)):
            return False
        return _legendre_prime(lam, ell) == -1

    def _children_structured(self, c: int, j: int):
        """Digit analysis for odd ell without scanning every digit.

        On the digit line the restricted quadratic has content ell^g and a
        primitive part R whose mod-ell reduction pins the valuation (= g)
        and unit of the value on each child class away from R's roots.  So
        ambiguous digits are the mod-ell roots of either reduction (at most
        four), and a "clean" digit where both square tests pass outright
        exists iff both contents are even and the two chi-conditions are
        jointly attainable.  _no_clean_digit, which is exact, rules that out
        first; otherwise the scan tries every digit, and above ell = 256 the
        Weil bound guarantees it a hit (the joint count is at least
        (ell - 3*sqrt(ell) - 24)/4 > 0).
        """
        ell = self.ell
        step = self.ell**j
        g1, rb1 = self._poly_digit_data(0, c, j)
        g2, rb2 = self._poly_digit_data(1, c, j)
        roots1 = self._rbar_roots(rb1)
        roots2 = self._rbar_roots(rb2)

        children = []
        for d in sorted(set(roots1) | set(roots2)):
            x = c + d * step
            ok = True
            for i, rb, roots in ((0, rb1, roots1), (1, rb2, roots2)):
                if d in roots:
                    continue  # ambiguous for this condition
                g = g1 if i == 0 else g2
                val = self._eval_rbar(rb, d)
                if not (g % 2 == 0 and _legendre_prime(val, ell) == 1):
                    ok = False
                    break
            if ok:
                children.append(x)

        if g1 % 2 or g2 % 2:
            return children, None
        skip = set(roots1) | set(roots2)
        if self._no_clean_digit(rb1, rb2):
            return children, None
        for d in range(min(ell, _STRUCTURED_SCAN_CAP)):
            if d in skip:
                continue
            if _legendre_prime(self._eval_rbar(rb1, d), ell) == 1 and \
               _legendre_prime(self._eval_rbar(rb2, d), ell) == 1:
                return children, c + d * step
        if ell <= _STRUCTURED_SCAN_CAP:
            return children, None  # scan was exhaustive: no clean digit
        raise LocalSolverError(
            f"clean digit guaranteed but not found within scan cap at ell={ell}"
        )

    def _eval_rbar(self, rbar, d: int) -> int:
        r0, r1, r2 = rbar
        return (r0 + r1 * d + r2 * d * d) % self.ell

    # -- main DFS ------------------------------------------------------------

    def search(self):
        """Returns (x, zero_index or None) for a witness, or None if none exists."""
        return self._search(0, 0)

    def _search(self, c: int, j: int):
        if self._exact_square(self.p[0](c)) and self._exact_square(self.p[1](c)):
            return (c, None)
        for i in (0, 1):
            res = self._root_shortcut(i, c, j)
            if res == "prune":
                return None
            if res is not None:
                _, x, zero_at = res
                return (x, zero_at)
        if j >= self.kmax:
            raise LocalSolverError(
                f"ambiguity survived past the exhaustion modulus ell^{self.kmax}"
            )
        if self.ell == 2:
            children, hit = self._children_small(c, j)
        else:
            children, hit = self._children_structured(c, j)
        if hit is not None:
            return (hit, None)
        for c2 in children:
            found = self._search(c2, j + 1)
            if found is not None:
                return found
        return None


def _charts(b1: int, b2: int, a_value: int, q_value: int, ell: int):
    """The two P^1 charts as pairs of integer quadratics in a Z_ell variable."""
    A2 = 2 * a_value
    chart_a = (
        _Quadratic(b1 * b2, 0, A2 * b2),
        _Quadratic(b1 * b1 * b2, 0, q_value * b1 * b2),
    )
    e2 = ell * ell
    chart_b = (
        _Quadratic(A2 * b2 * e2, 0, b1 * b2),
        _Quadratic(q_value * b1 * b2 * e2, 0, b1 * b1 * b2),
    )
    return {"z1": chart_a, "infinity": chart_b}


def decide_local(
    b1: int,
    b2: int,
    a_value: int,
    q_value: int,
    r_value: int,
    ell: int,
    *,
    want_witness: bool = True,
) -> LocalVerdict:
    """Q_ell solvability of the pair's homogeneous space, with certificate.

    ell must be prime and is not re-checked here: the descent passes the
    bad primes s_primes, from complete factorizations.  The search runs to the
    exhaustion modulus k* = 2 v_ell(2 b1 b2 A B C) + 3 plus a fixed slack,
    trying every digit at ell = 2 and analysing each digit line through its
    mod-ell reductions at odd ell; an ambiguity that outlives it raises
    LocalSolverError (an Unknown is never converted into a verdict).
    """
    ks = kstar(b1, b2, a_value, q_value, r_value, ell)
    kmax = ks + _DEPTH_SLACK
    for chart, (p1, p2) in _charts(b1, b2, a_value, q_value, ell).items():
        found = _ChartSearch(p1, p2, ell, kmax).search()
        if found is not None:
            x, zero_at = found
            witness = None
            if want_witness:
                witness = _build_witness(
                    b1, b2, a_value, q_value, ell, chart, x, zero_at, ks
                )
            return LocalVerdict(place=ell, outcome="solvable", witness=witness)
    return LocalVerdict(place=ell, outcome="unsolvable")


def _sqrt_qp(value: int, ell: int, prec: int, mod: int) -> tuple[int | None, int]:
    """(valuation/2, unit sqrt mod ell^prec) of a square integer; (None, 0) for 0.

    mod is ell^prec, which the caller has already computed.
    """
    if value == 0:
        return None, 0
    v, u = _val_unit(value, ell)
    assert v % 2 == 0
    root = sqrt_mod_prime_power(u % mod, ell, prec)
    if root is None:
        raise LocalSolverError("witness value is not a square; decision bug")
    return v // 2, root


def _build_witness(
    b1: int,
    b2: int,
    a_value: int,
    q_value: int,
    ell: int,
    chart: str,
    x: int,
    zero_at: int | None,
    ks: int,
) -> Witness:
    """Assemble the primitive quadruple mod ell^N and its smooth-lift data."""
    prec = 2 * ks + 24
    for attempt in range(3):
        w = _try_build_witness(b1, b2, a_value, q_value, ell, chart, x, zero_at, prec)
        if w is not None:
            return w
        prec *= 2
    raise LocalSolverError("could not certify witness; decision bug")


def _try_build_witness(b1, b2, a_value, q_value, ell, chart, x, zero_at, prec):
    p1, p2 = _charts(b1, b2, a_value, q_value, ell)[chart]
    val1, val2 = p1(x), p2(x)
    # Coordinates as (valuation, unit) pairs; None valuation means exact zero.
    vb2, ub2 = _val_unit(b2, ell)
    vb12, ub12 = _val_unit(b1 * b2, ell)
    mod = ell**prec

    def coord_from_sqrt(val, vden, uden, forced_zero):
        if forced_zero or val == 0:
            return (None, 0)
        h, root = _sqrt_qp(val, ell, prec, mod)
        return (h - vden, root * pow(uden, -1, mod))

    z2 = coord_from_sqrt(val1, vb2, ub2, zero_at == 0)
    z3 = coord_from_sqrt(val2, vb12, ub12, zero_at == 1)
    if chart == "z1":
        z1 = (None, 0) if x == 0 else _val_unit(x, ell)
        w = (0, 1)
    else:
        z1 = (0, 1)
        w = (None, 0) if x == 0 else _val_unit(ell * x, ell)

    finite = [v for v, _ in (z1, z2, z3, w) if v is not None]
    shift = -min(finite)

    def materialize(coord):
        v, u = coord
        if v is None:
            return 0
        return (u * ell ** (v + shift)) % mod

    quad = tuple(materialize(cd) for cd in (z1, z2, z3, w))
    Z1, Z2, Z3, W = quad

    res1 = (b1 * Z1 * Z1 - b2 * Z2 * Z2 + 2 * a_value * W * W) % mod
    res2 = (b1 * Z1 * Z1 - b1 * b2 * Z3 * Z3 + q_value * W * W) % mod
    rv1 = prec if res1 == 0 else _val_unit(res1, ell)[0]
    rv2 = prec if res2 == 0 else _val_unit(res2, ell)[0]

    j1 = (2 * b1 * Z1 % mod, -2 * b2 * Z2 % mod, 0, 4 * a_value * W % mod)
    j2 = (2 * b1 * Z1 % mod, 0, -2 * b1 * b2 * Z3 % mod, 2 * q_value * W % mod)
    # Unit coordinates of the quadruple; minors must avoid the chart column.
    unit_cols = [k for k, val in enumerate(quad) if val % ell != 0]
    tau = None
    for k in range(4):
        for l in range(k + 1, 4):
            if all(col in (k, l) for col in unit_cols):
                continue  # not a minor of an affine-chart Jacobian
            minor = (j1[k] * j2[l] - j1[l] * j2[k]) % mod
            if minor == 0:
                continue
            mv = _val_unit(minor, ell)[0]
            if tau is None or mv < tau:
                tau = mv
    if tau is None or rv1 < 2 * tau + 1 or rv2 < 2 * tau + 1:
        return None

    wv = w[0]
    afv = tuple(
        (None if v is None else v - (wv if wv is not None else 0))
        for v, _ in (z1, z2, z3)
    )
    return Witness(
        place=ell,
        chart=chart,
        x=x,
        modulus_exp=prec,
        quadruple=quad,
        tau=tau,
        residual_valuations=(rv1, rv2),
        zero_z2=z2[0] is None,
        zero_z3=z3[0] is None,
        affine_valuations=afv,
    )


def real_solvable(b1: int, b2: int) -> LocalVerdict:
    """Solvability over the reals: possible iff b2 > 0.

    For b2 > 0 and b1 > 0 take z1 large; for b1 < 0 the window
    q/|b1| <= z1^2 <= 2A/|b1| is nonempty since q < 2A.  For b2 < 0 both
    sign choices of b1 force a positive quantity to equal a negative one.
    """
    if b2 > 0:
        return LocalVerdict(place=REAL_PLACE, outcome="real_solvable")
    return LocalVerdict(place=REAL_PLACE, outcome="real_unsolvable")
