#!/usr/bin/env python3
"""Run the benchmark on several seeds; report each metric's median and spread.

    python3 perfbench/spread.py --workload table1 --seeds 10 [--out FILE]

Runs `run.py --workload W --seed s --seconds <run_seconds> --trace 0` for
s = 0, 1, ... one after another.  For every metric it prints the median, the
quartiles (statistics.quantiles with n=4) and the spread: the distance
between the quartiles as a share of the median.  With --out, the summary is
merged into that JSON file under the workload's name.  Exits 1 if a run
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stdout, done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)

    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
        print(f"{name:<36} median {median:.6g} {units[name]}  spread {spread:.4f}"
              f"  bound {bounds[name]}  {spread / bounds[name]:.2f} of it")
    if args.out:
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        merged[args.workload] = summary
        args.out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
