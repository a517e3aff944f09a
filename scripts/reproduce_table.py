#!/usr/bin/env python3
"""Recompute the reference table for the six tabulated parameters.

For each m this prints the recomputed bad-prime factorizations, the torsion
structure, the height-pairing determinant, the theorem lower bound w, the
corollary value when both cofactors are prime, and the 2-Selmer rank, next
to the expected values.  Exits nonzero on any s2 mismatch.
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from emcurve.curve import point, torsion_group
from emcurve.descent import selmer_group
from emcurve.family import build_curve
from emcurve.heights import independence_rank, pairing_matrix

EXPECTED = {6: 4, 12: 3, 30: 3, 42: 4, 60: 4, 462: 5}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tol", type=float, default=1e-3)
    args = ap.parse_args()

    failures = 0
    for m, expected_s2 in EXPECTED.items():
        t0 = time.perf_counter()
        c = build_curve(m)
        tors = torsion_group(c)
        p1, p2 = point(0, c.t), point(c.n1, c.t)
        gram = pairing_matrix(c, (p1, p2), args.tol)
        rank = independence_rank(c, (p1, p2), args.tol)
        sel = selmer_group(c)
        dt = time.perf_counter() - t0
        ok = sel.s2 == expected_s2
        failures += 0 if ok else 1
        print(f"m = {m}")
        print(f"  m^4-1        = {c.a_value} = {' * '.join(map(str, c.p_primes))}")
        print(f"  m^4-1-4m^2   = {c.q_value} = {' * '.join(map(str, c.q_primes))}")
        print(f"  m^4-1+4m^2   = {c.r_value} = {' * '.join(map(str, c.r_primes))}")
        print(f"  torsion      = {tors.structure}")
        print(f"  rank bound   = {rank} (Gram det {gram.determinant:.4f})")
        cor = "-" if sel.corollary_value is None else sel.corollary_value
        print(f"  s2 = {sel.s2} (expected {expected_s2}, "
              f"{'ok' if ok else 'MISMATCH'}), w = {sel.theorem_w}, "
              f"corollary = {cor}   [{dt:.1f}s]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
