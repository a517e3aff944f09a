#!/usr/bin/env python3
"""Recompute the reference table for the six tabulated parameters.

For each m of `cli.REFERENCE_ROWS` this prints the bad-prime factorizations,
which `emcurve table1` leaves out, then the torsion structure, the
height-pairing determinant, the theorem lower bound w, the corollary value
and the 2-Selmer rank of `run_analysis`, next to the reference s2.  Exits
nonzero on any s2 mismatch.
"""

import argparse
import sys
from pathlib import Path

# The package source next to this script, wherever it is run from.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from emcurve.analysis import EngineConfig, analysis_curve, run_analysis
from emcurve.cache import ResultCache
from emcurve.cli import REFERENCE_ROWS
from emcurve.heights import DEFAULT_TOL


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tol", type=float, default=DEFAULT_TOL)
    args = ap.parse_args()
    config = EngineConfig(tol=args.tol)
    cache = ResultCache(None)  # in memory: each row's numbers are factored once

    failures = 0
    for m, ref in REFERENCE_ROWS.items():
        c = analysis_curve(m, config, cache)
        r = run_analysis(m, config, cache=cache)
        ok = r.s2 == ref["s2"]
        failures += 0 if ok else 1
        print(f"m = {m}")
        print(f"  m^4-1        = {c.a_value} = {' * '.join(map(str, c.p_primes))}")
        print(f"  m^4-1-4m^2   = {c.q_value} = {' * '.join(map(str, c.q_primes))}")
        print(f"  m^4-1+4m^2   = {c.r_value} = {' * '.join(map(str, c.r_primes))}")
        print(f"  torsion      = {r.torsion_structure}")
        print(f"  rank bound   = {r.independence} (Gram det {r.pairing_determinant:.4f})")
        cor = "-" if r.corollary_value is None else r.corollary_value
        print(f"  s2 = {r.s2} (expected {ref['s2']}, "
              f"{'ok' if ok else 'MISMATCH'}), w = {r.theorem_w}, "
              f"corollary = {cor}   [{sum(r.timings.values()):.1f}s]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
