#!/usr/bin/env python3
"""Survey s2, the theorem bound w, and the corollary over a parameter range.

Walks every admissible m in [--from, --to], runs the descent, and tabulates
how often the theorem bound is sharp and where the corollary applies.
Parameters whose r-side cofactor is not squarefree are listed and skipped
(the exclusion lemmas need that hypothesis).
"""

import argparse
import sys
from collections import Counter

sys.path.insert(0, "src")

from emcurve.descent import SquarefreePrecondition, selmer_group
from emcurve.family import build_curve, scan_admissible


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--from", dest="lo", type=int, default=2)
    ap.add_argument("--to", dest="hi", type=int, default=200)
    args = ap.parse_args()

    s2_hist = Counter()
    sharp = 0
    corollary_rows = []
    skipped = []
    rows = []
    for m in scan_admissible(args.lo, args.hi):
        c = build_curve(m)
        try:
            sel = selmer_group(c, want_witness=False)
        except SquarefreePrecondition as e:
            skipped.append(m)
            continue
        s2_hist[sel.s2] += 1
        if sel.theorem_w == sel.s2:
            sharp += 1
        if sel.corollary_value is not None:
            corollary_rows.append((m, sel.corollary_value, sel.s2))
        rows.append((m, sel.s2, sel.theorem_w, sel.corollary_value))
        print(f"m={m:>5}  s2={sel.s2}  w={sel.theorem_w}  "
              f"corollary={sel.corollary_value if sel.corollary_value is not None else '-'}")

    print()
    print(f"analyzed {len(rows)} parameters; s2 histogram: {dict(sorted(s2_hist.items()))}")
    print(f"theorem bound sharp (w == s2) for {sharp} of {len(rows)}")
    if corollary_rows:
        bad = [r for r in corollary_rows if r[1] != r[2]]
        print(f"corollary applied at {[r[0] for r in corollary_rows]}; "
              f"{'all matched s2' if not bad else f'MISMATCHES: {bad}'}")
    if skipped:
        print(f"skipped (r-side cofactor not squarefree): {skipped}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
