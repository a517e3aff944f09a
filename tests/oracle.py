"""Independent brute-force local solvability oracle for tests.

Re-derives the two quadratic conditions straight from the descent equations
and decides by plain digit-by-digit refinement: every residue class is
either settled by a table-based square test or split into its ell children,
down to the exhaustion modulus.  No Hensel shortcuts, no character sums.
Returns True/False, or raises if a branch is still ambiguous at the cutoff
(which would indicate the cutoff is wrong; it never fires in practice).
"""

from __future__ import annotations


class OracleAmbiguous(RuntimeError):
    pass


def _valuation_unit(n: int, ell: int) -> tuple[int, int]:
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v, n


def kstar(b1: int, b2: int, a_value: int, q_value: int, r_value: int, ell: int) -> int:
    """k* = 2 v_ell(2 b1 b2 A Q R) + 3, the depth scale of the digit search
    at ell (the suites run oracle_local_solvable to k* + 6)."""
    return 2 * _valuation_unit(2 * b1 * b2 * a_value * q_value * r_value, ell)[0] + 3


def oracle_local_solvable(b1: int, b2: int, a_value: int, q_value: int,
                          ell: int, kmax: int) -> bool:
    if ell == 2:
        def sqtest(v, u):
            return v % 2 == 0 and u % 8 == 1
        margin = 3
    else:
        residues = {x * x % ell for x in range(1, ell)}

        def sqtest(v, u):
            return v % 2 == 0 and (u % ell) in residues
        margin = 1

    def exact_square(n: int) -> bool:
        return n == 0 or sqtest(*_valuation_unit(n, ell))

    def scan(q1, q2, c, j):
        if exact_square(q1(c)) and exact_square(q2(c)):
            return True
        if j > kmax:
            return "amb"
        step = ell**j
        out: object = False
        for d in range(ell):
            x = c + d * step
            statuses = []
            for q in (q1, q2):
                val = q(x)
                if val == 0:
                    statuses.append("amb")
                    continue
                v, u = _valuation_unit(val, ell)
                if j + 1 - v >= margin:
                    statuses.append("yes" if sqtest(v, u) else "no")
                else:
                    statuses.append("amb")
            if "no" in statuses:
                continue
            if statuses == ["yes", "yes"]:
                return True
            sub = scan(q1, q2, x, j + 1)
            if sub is True:
                return True
            if sub == "amb":
                out = "amb"
        return out

    a2 = 2 * a_value
    e2 = ell * ell
    charts = (
        (lambda x: (b1 * x * x + a2) * b2, lambda x: (b1 * x * x + q_value) * b1 * b2),
        (lambda y: (b1 + a2 * e2 * y * y) * b2,
         lambda y: (b1 + q_value * e2 * y * y) * b1 * b2),
    )
    ambiguous = False
    for q1, q2 in charts:
        res = scan(q1, q2, 0, 0)
        if res is True:
            return True
        if res == "amb":
            ambiguous = True
    if ambiguous:
        raise OracleAmbiguous(
            f"oracle could not settle (b1={b1}, b2={b2}) at ell={ell}"
        )
    return False
