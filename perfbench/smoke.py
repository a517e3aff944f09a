#!/usr/bin/env python3
"""Smoke check of the benchmark itself: one small invocation per workload.

    python3 perfbench/smoke.py

Runs run.py --smoke (table1 at m = 6, the ladder's 10008 rung, one warm
replay of m = 6) with tracing off and on, under engine seed 1.  Asserts that
every run passes its correctness checks and prints every metric that
BENCHMARK.json names, each with its unit.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, ROOT


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "0", "--trace", str(trace),
                 "--smoke", "--engine-seed", "1"],
                capture_output=True, text=True, timeout=300)
            if done.returncode != 0:
                errors.append(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[group]}
            printed = {n: v["unit"] for n, v in result["metrics"].items()}
            if printed != expected:
                diff = sorted(set(printed.items()) ^ set(expected.items()))
                errors.append(f"{label}: metric names or units differ: {diff}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{label}: {result['failed']} failed\n{done.stderr}")
            print(f"{label}: {result['attempted']} invocations checked")
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("smoke: FAIL" if errors else "smoke: ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
