#!/usr/bin/env python3
"""The emcurve benchmark: four workloads driven through emcurve.cli.main.

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 15 --trace 0

Workloads (README.md in this directory says why each was chosen):

  table1      analyze --m M --json for the paper's six m, fresh cache every
              pass
  ladder      heights --m M --json then torsion --m M --json for the first
              admissible m at or above 1e4, 1e5, 1e6 and 1e8, fresh cache
              every pass
  ladder1e10  the same for the first admissible m at or above 1e10
  replay      analyze --m M --json for the 17 admissible m <= 300, all served
              from a cache that an untimed cold `scan --from 2 --to 300` filled

Every invocation runs in this process, one after another, with --jobs 1.  A
run repeats whole passes until --seconds have elapsed (at least one pass).
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
untraced passes, then as many traced passes (layertrace.py), and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.

Times are reported in seconds at a fixed reference machine speed: a fixed
calibration kernel is timed before and after every invocation and every
PROBE_INTERVAL_S during it, and each invocation's time is divided by how
much slower than CAL_REF_S the kernel ran meanwhile.  setup_s, measured in
separate processes, is raw wall time.

Every output is checked against golden.json.  A nonzero exit code or a wrong
output counts as a failed invocation, and the run then exits 1.

--seed is the workload seed: it fixes the order of the invocations in each
pass.  --engine-seed is forwarded to every invocation as the engine's --seed,
which picks the rho start points and the large-n Miller-Rabin bases.  It is
not tied to --seed because the rho time of the 1e10 rung alone ranges from
4 s to 37 s across engine seeds, which would swamp every timing.

The 1e10 rung is its own workload because its one invocation takes 20 to
30 s: inside the ladder it would leave one pass per run, and single samples
of the millisecond invocations of the small rungs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "_out"

TABLE1_S2 = {6: 4, 12: 3, 30: 3, 42: 4, 60: 4, 462: 5}
LADDER = (10008, 100152, 1000038, 100000038)
LADDER_TOP = (10000000278,)
REPLAY_RANGE = (2, 300)
# The CLI's default height tolerance, under which golden.json was captured.
HEIGHTS_TOL = 1e-3
SETUP_SAMPLES = 15
# Seconds that _calibration_kernel takes at the reference machine speed.  The
# timing metrics are scaled to that speed; see calibrate().
CAL_REF_S = 0.0015
CAL_SAMPLES = 3
# While an invocation runs, the kernel is also timed this often (SIGALRM).
PROBE_INTERVAL_S = 0.25
SUBPROCESS_TIMEOUT_S = 150
MAX_PRINTED_FAILURES = 20

END_TO_END = {
    "wall_s": ("s", "lower"),
    "param_p50_s": ("s", "lower"),
    "param_tail_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# Child interpreters put the checkout's src/ first and run emcurve from there.
_CLI_CHILD = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
              "from emcurve.cli import main; sys.exit(main(sys.argv[1:]))")
_SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import emcurve.cli; "
                "from emcurve.cache import ResultCache; ResultCache(sys.argv[2])")


def _calibration_kernel() -> int:
    """Fixed interpreter work: small and big integers, dicts, strings, JSON.

    Never change it: the reference speed of every earlier baseline is defined
    by it.
    """
    x, big, table, parts = 1, 3**200, {}, []
    modulus = 10**40 + 33
    for i in range(2000):
        x = (x * 31 + i) & 0xFFFFFFFF
        big = (big * big + 7) % modulus
        table[i & 255] = x
        parts.append(str(x))
    json.loads(json.dumps(table))
    return len("".join(parts))


def _time_kernel() -> float:
    t0 = perf_counter()
    _calibration_kernel()
    return perf_counter() - t0


def calibrate() -> float:
    """This machine's current slowdown against the reference speed.

    The machine is shared, and its speed drifts by tens of percent within
    minutes; README.md shows what scaling by this did to the spreads.
    """
    return statistics.median(_time_kernel() for _ in range(CAL_SAMPLES)) / CAL_REF_S


class Probe:
    """Slowdown samples taken inside an invocation, from a SIGALRM handler.

    Calibrating only between invocations cannot follow the machine through
    a 25-second invocation.  The handler runs the kernel in the main thread,
    between two bytecodes of the program; its time is kept so the caller
    can take it out of the invocation's latency.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame):
        dt = _time_kernel()
        self.samples.append(dt / CAL_REF_S)
        self.spent += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Invocation:
    latency: float  # raw seconds, less the probe's time
    code: int | None
    out: str
    err: str
    slowdowns: list[float]  # the probe's samples inside it


@dataclass
class Pass:
    """One pass; times are in seconds at the reference speed (CAL_REF_S)."""

    wall: float
    latencies: list[float]
    failures: list[str]
    slowdown: float  # raw time / reference time, over the whole pass
    layers: dict | None = None


def tail_latency(passes: list[Pass]) -> float:
    """The slowest invocation of each pass, as a median over passes.

    With fewer than 11 invocations per pass this is the highest percentile
    with ten samples beyond it, always at the same parameter.  On `replay`
    that percentile pooled over the run measured the shared machine's
    spikes, not the program: its quartile spread over ten seeds was 14%.
    """
    return statistics.median(max(p.latencies) for p in passes)


def record_key(record: dict) -> str:
    """An analysis record in canonical form, without its timings."""
    return json.dumps({k: v for k, v in record.items() if k != "timings"},
                      sort_keys=True)


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter, isolated from the caller's environment."""
    try:
        return subprocess.run([sys.executable, "-I", *argv], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child interpreter timed out: {argv[-6:]}") from exc


class Table1:
    """The paper's table: descent-bound, written to a cold cache."""

    fresh_cache = True

    def __init__(self, ms):
        self.ms = ms

    def prepare(self, bench, cache: Path) -> tuple[int, list[str]]:
        return 0, []

    def calls(self, rng: random.Random) -> list[tuple[str, int]]:
        order = list(self.ms)
        rng.shuffle(order)
        return [("analyze", m) for m in order]

    def check(self, bench, command: str, m: int, out: str, cache: Path):
        record = json.loads(out)
        if record["s2"] != TABLE1_S2[m]:
            return f"s2 = {record['s2']}, reference {TABLE1_S2[m]}"
        return bench.check_record(m, record)


class Ladder:
    """Large m: factorization-bound, no descent."""

    fresh_cache = True

    def __init__(self, rungs):
        self.rungs = rungs

    def prepare(self, bench, cache: Path) -> tuple[int, list[str]]:
        return 0, []

    def calls(self, rng: random.Random) -> list[tuple[str, int]]:
        order = list(self.rungs)
        rng.shuffle(order)
        # torsion reads the factorizations that heights wrote to the cache.
        return [(command, m) for m in order for command in ("heights", "torsion")]

    def check(self, bench, command: str, m: int, out: str, cache: Path):
        if command == "torsion":
            if out.strip() != bench.golden["torsion"][str(m)]:
                return "torsion output differs from golden"
            return None
        got, gold = json.loads(out), bench.golden["heights"][str(m)]
        if got["m"] != m or got["rank_lower_bound"] != 2:
            return f"m = {got['m']}, rank lower bound {got['rank_lower_bound']}"
        pairs = zip(sum(got["entries"], []), sum(gold["entries"], []))
        if any(abs(a - b) > HEIGHTS_TOL for a, b in pairs):
            return "height pairing entry off by more than the tolerance"
        (g11, g12), (_, g22) = gold["entries"]
        # First-order error of det = e11*e22 - e12^2 when each entry is off by tol.
        allowed = HEIGHTS_TOL * (abs(g11) + abs(g22) + 2 * abs(g12))
        if abs(got["determinant"] - gold["determinant"]) > allowed:
            return f"determinant {got['determinant']} outside {allowed} of golden"
        return self._check_factors(bench, m, cache)

    @staticmethod
    def _check_factors(bench, m: int, cache: Path):
        stored = {}
        with open(cache, encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if obj["kind"] == "factorization":
                    stored[obj["key"]] = obj["value"]
        a = m**4 - 1
        for n in (a, a - 4 * m * m, a + 4 * m * m):
            factors = stored.get(str(n))
            if factors is None:
                return f"no cached factorization of {n}"
            product = 1
            for p, e in factors:
                product *= int(p) ** e
            if product != n or factors != bench.golden["factorizations"][str(n)]:
                return f"cached factorization of {n} is wrong"
        return None


class Replay:
    """Warm cache: every invocation is a cache hit, nothing is computed."""

    fresh_cache = False

    def __init__(self, span):
        self.lo, self.hi = span
        self.prefilled: dict[int, str] = {}

    def prepare(self, bench, cache: Path) -> tuple[int, list[str]]:
        """One cold scan into the shared cache: (1 attempt, its problems)."""
        done = run_child(["-c", _CLI_CHILD, str(SRC), "scan",
                          "--from", str(self.lo), "--to", str(self.hi),
                          *bench.common_flags(cache)])
        if done.returncode != 0:
            return 1, [f"prefill scan: exit {done.returncode}: {done.stderr.strip()}"]
        for line in done.stdout.splitlines(keepends=True):
            self.prefilled[json.loads(line)["m"]] = line
        expected = [m for m in bench.golden["replay_ms"] if self.lo <= m <= self.hi]
        if sorted(self.prefilled) != expected:
            return 1, [f"prefill scan gave m = {sorted(self.prefilled)}, "
                       f"expected {expected}"]
        return 1, [f"prefill m = {m}: {problem}" for m, line in self.prefilled.items()
                   if (problem := bench.check_record(m, json.loads(line)))]

    def calls(self, rng: random.Random) -> list[tuple[str, int]]:
        order = sorted(self.prefilled)
        rng.shuffle(order)
        return [("analyze", m) for m in order]

    def check(self, bench, command: str, m: int, out: str, cache: Path):
        if out != self.prefilled[m]:
            return "replayed record differs from the prefilled one"
        return None


# name -> (kind, parameters, smoke.py's small parameters)
WORKLOADS = {
    "table1": (Table1, tuple(TABLE1_S2), (6,)),
    "ladder": (Ladder, LADDER, (10008,)),
    "ladder1e10": (Ladder, LADDER_TOP, (10008,)),
    "replay": (Replay, REPLAY_RANGE, (6, 6)),
}


def make_workload(name: str, smoke: bool):
    kind, params, small = WORKLOADS[name]
    return kind(small if smoke else params)


class Bench:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.workload = make_workload(args.workload, args.smoke)
        self.golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        self.rng = random.Random(f"{args.workload}:{args.seed}")
        self.cli = importlib.import_module("emcurve.cli")
        self.shared_cache = work / f"{args.workload}.jsonl"
        self.passes_run = 0

    def common_flags(self, cache: Path) -> list[str]:
        return ["--json", "--jobs", "1", "--seed", str(self.args.engine_seed),
                "--cache-path", str(cache)]

    def check_record(self, m: int, record: dict):
        if record_key(record) != record_key(self.golden["analyze"][str(m)]):
            return "record differs from golden apart from timings"
        return None

    def invoke(self, argv: list[str]) -> Invocation:
        """Run one CLI command in this process, with the probe armed."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                Probe() as probe:
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
            except Exception:
                code = None
                err.write(traceback.format_exc())
            latency = perf_counter() - t0 - probe.spent
        return Invocation(latency, code, out.getvalue(), err.getvalue(),
                          probe.samples)

    def one_pass(self, tracer) -> Pass:
        wl = self.workload
        cache = (self.work / f"pass-{self.passes_run}.jsonl" if wl.fresh_cache
                 else self.shared_cache)
        self.passes_run += 1
        calls = wl.calls(self.rng)
        if tracer is not None:
            tracer.reset_counts()
        results = []
        slowdowns = [calibrate()]
        for command, m in calls:
            if tracer is not None:
                tracer.invocation += 1
            results.append(self.invoke([command, "--m", str(m),
                                        *self.common_flags(cache)]))
            slowdowns.append(calibrate())
        # Each invocation is scaled by its mean slowdown: the calibrations on
        # either side of it and the probe's samples inside it.
        latencies = [
            r.latency / statistics.fmean([slowdowns[i], slowdowns[i + 1], *r.slowdowns])
            for i, r in enumerate(results)]
        wall = sum(latencies)
        slowdown = sum(r.latency for r in results) / wall
        failures = []
        for (command, m), r in zip(calls, results):
            if r.code != 0:
                problem = f"exit {r.code}: {r.err.strip()}"
            else:
                try:
                    problem = wl.check(self, command, m, r.out, cache)
                except (ValueError, KeyError, TypeError, OSError) as exc:
                    problem = f"unreadable output: {exc!r}"
            if problem:
                failures.append(f"{command} --m {m}: {problem}")
        layers = None
        if tracer is not None:
            tracer.counters["cli.stdout_bytes"] += sum(
                len(r.out.encode()) for r in results)
            layers = {name: value / slowdown if layertrace.METRICS[name][0] == "s"
                      else value for name, value in tracer.layer_metrics().items()}
        if wl.fresh_cache:
            cache.unlink(missing_ok=True)
        return Pass(wall, latencies, failures, slowdown, layers)

    def passes(self, seconds: float, tracer=None) -> list[Pass]:
        done = []
        deadline = perf_counter() + seconds
        while not done or perf_counter() < deadline:
            done.append(self.one_pass(tracer))
        return done

    def setup_times(self) -> list[float]:
        """Fresh interpreter to emcurve imported and this workload's cache opened."""
        cache = self.shared_cache if not self.workload.fresh_cache \
            else self.work / "setup-fresh.jsonl"
        argv = ["-c", _SETUP_CHILD, str(SRC), str(cache)]
        run_child(argv)  # warm the bytecode and file caches
        times = []
        for _ in range(SETUP_SAMPLES):
            t0 = perf_counter()
            done = run_child(argv)
            times.append(perf_counter() - t0)
            if done.returncode != 0:
                raise BenchError(f"setup child failed: {done.stderr.strip()}")
        return times

    def run(self) -> int:
        args = self.args
        attempted, problems = self.workload.prepare(self, self.shared_cache)
        failed = 1 if problems else 0
        setup = [] if args.trace else self.setup_times()
        plain = self.passes(args.seconds)
        traced = []
        if args.trace:
            tracer = layertrace.Tracer()
            tracer.install()
            traced = self.passes(args.seconds, tracer)
            tracer.write_spans(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        for p in plain + traced:
            attempted += len(p.latencies)
            failed += len(p.failures)
            problems += p.failures

        if args.trace:
            specs = layertrace.METRICS
            metrics = {name: statistics.median(p.layers[name] for p in traced)
                       for name in traced[0].layers}
            metrics["trace.wall_s"] = statistics.median(p.wall for p in traced)
            metrics["trace.overhead_s"] = (
                metrics["trace.wall_s"] - statistics.median(p.wall for p in plain))
            metrics["trace.slowdown"] = statistics.median(p.slowdown for p in traced)
        else:
            specs = END_TO_END
            metrics = {
                "wall_s": statistics.median(p.wall for p in plain),
                "param_p50_s": statistics.median(
                    statistics.median(p.latencies) for p in plain),
                "param_tail_s": tail_latency(plain),
                "setup_s": statistics.median(setup),
                # ru_maxrss is in KiB on Linux.
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }

        for problem in problems[:MAX_PRINTED_FAILURES]:
            print(f"FAIL {problem}", file=sys.stderr)
        if len(problems) > MAX_PRINTED_FAILURES:
            print(f"... {len(problems) - MAX_PRINTED_FAILURES} more", file=sys.stderr)
        slowdown = statistics.median(p.slowdown for p in plain)
        raw_wall = statistics.median(p.wall * p.slowdown for p in plain)
        print(f"{args.workload}: {len(plain)} passes of {len(plain[0].latencies)} "
              f"invocations, {len(traced)} traced, {len(setup)} setup samples; "
              f"machine at {slowdown:.3f}x the reference time, "
              f"{raw_wall:.6g} s raw per untraced pass")
        for name, value in metrics.items():
            print(f"  {name:<36} {value:.6g} {specs[name][0]}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": specs[n][0]} for n, v in metrics.items()},
        }))
        return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="workload seed")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure whole passes for at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--engine-seed", type=int, default=0,
                    help="forwarded as the engine's --seed")
    ap.add_argument("--smoke", action="store_true",
                    help="one small parameter per workload (smoke.py)")
    args = ap.parse_args(argv)

    if not (SRC / "emcurve" / "__init__.py").is_file():
        print(f"error: no emcurve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import emcurve
    if Path(emcurve.__file__).resolve().parent != (SRC / "emcurve").resolve():
        print(f"error: emcurve imported from {emcurve.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return Bench(args, work).run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
