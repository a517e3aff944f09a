#!/usr/bin/env python3
"""Write golden.json: the reference outputs that run.py checks every run against.

    python3 perfbench/capture_golden.py

Run it only at a commit whose outputs are the reference; the file in the
repository was captured from engine version 1, whose records reproduce the
paper's table.  Everything runs with engine seed 0 and the CLI defaults.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

from run import GOLDEN, LADDER, LADDER_TOP, OUT, REPLAY_RANGE, SRC, TABLE1_S2

sys.path.insert(0, str(SRC))
from emcurve.cli import main  # noqa: E402


def cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"emcurve {' '.join(map(str, argv))} exited {code}")
    return out.getvalue()


def capture() -> dict:
    lo, hi = REPLAY_RANGE
    replay_ms = json.loads(cli("scan", "--from", lo, "--to", hi,
                               "--admissible-only", "--json", "--no-cache"))
    analyze = {}
    for m in sorted(set(replay_ms) | set(TABLE1_S2)):
        record = json.loads(cli("analyze", "--m", m, "--json", "--no-cache"))
        del record["timings"]
        analyze[str(m)] = record

    work = OUT / "golden-capture"
    work.mkdir(parents=True, exist_ok=True)
    heights, torsion, factorizations = {}, {}, {}
    try:
        for m in LADDER + LADDER_TOP:
            cache = work / f"{m}.jsonl"
            heights[str(m)] = json.loads(
                cli("heights", "--m", m, "--json", "--cache-path", cache))
            torsion[str(m)] = cli("torsion", "--m", m, "--json",
                                  "--cache-path", cache).strip()
            stored = {}
            with open(cache, encoding="utf-8") as fh:
                for line in fh:
                    obj = json.loads(line)
                    stored[obj["key"]] = obj["value"]
            a = m**4 - 1
            for n in (a, a - 4 * m * m, a + 4 * m * m):
                factorizations[str(n)] = stored[str(n)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"replay_ms": replay_ms, "analyze": analyze, "heights": heights,
            "torsion": torsion, "factorizations": factorizations}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
