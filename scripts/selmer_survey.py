#!/usr/bin/env python3
"""Survey s2, the theorem bound w, and the corollary over scan records.

Reads the records of `emcurve scan --json` on stdin, e.g.

    emcurve scan --from 2 --to 500 --json | python scripts/selmer_survey.py

and tabulates how often the theorem bound is sharp and where the corollary
applies; it exits 1 if the corollary's value differs from s2 anywhere.
Parameters the scan refused (an r-side cofactor that is not squarefree) are
reported by the scan itself on stderr.
"""

import json
import sys
from collections import Counter


def main() -> int:
    rows = [json.loads(line) for line in sys.stdin if line.strip()]
    s2_hist = Counter(r["s2"] for r in rows)
    for r in rows:
        cor = r["corollary_value"]
        print(f"m={r['m']:>5}  s2={r['s2']}  w={r['theorem_w']}  "
              f"corollary={cor if cor is not None else '-'}")
    sharp = sum(r["theorem_w"] == r["s2"] for r in rows)
    corollary_rows = [(r["m"], r["corollary_value"], r["s2"]) for r in rows
                      if r["corollary_value"] is not None]

    print()
    print(f"analyzed {len(rows)} parameters; s2 histogram: {dict(sorted(s2_hist.items()))}")
    print(f"theorem bound sharp (w == s2) for {sharp} of {len(rows)}")
    bad = [r for r in corollary_rows if r[1] != r[2]]
    if corollary_rows:
        print(f"corollary applied at {[r[0] for r in corollary_rows]}; "
              f"{'all matched s2' if not bad else f'MISMATCHES: {bad}'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
