"""Per-layer tracing of emcurve from outside the package.

Every public function of each layer module is replaced, at every emcurve
module attribute that names it, by a wrapper that records a span: name,
start, end, parent span and invocation id.  Spans stay in memory and are
written out when the benchmark ends.  A few methods are wrapped too: the
cache's load/get/put, and the two per-coset tests of the descent, which
run millions of times per pass and are therefore only counted, never timed.

Self time of a span is its duration minus the durations of its child spans.
A layer's self time is the sum of the self times of its spans, so the layers'
self times add up to the traced wall time, less the benchmark's own work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
from collections import Counter
from time import perf_counter

LAYERS = ("numtheory", "family", "curve", "heights", "localsolve",
          "descent", "cache", "analysis", "cli")

# name -> (unit, better); the order is the order of the benchmark output.
METRICS = {
    "descent.selmer_group.s": ("s", "lower"),
    "descent.selmer_group.self_s": ("s", "lower"),
    "descent.cosets_examined": ("count", "lower"),
    "descent.symbol_checks": ("count", "lower"),
    "descent.members": ("count", "higher"),
    "descent.member_ratio": ("ratio", "higher"),
    "localsolve.decide_local.calls": ("count", "lower"),
    "localsolve.decide_local.s": ("s", "lower"),
    "localsolve.decide_local.p2.calls": ("count", "lower"),
    "localsolve.decide_local.p2.s": ("s", "lower"),
    "localsolve.decide_local.p3.calls": ("count", "lower"),
    "localsolve.decide_local.p3.s": ("s", "lower"),
    "localsolve.decide_local.odd.calls": ("count", "lower"),
    "localsolve.decide_local.odd.s": ("s", "lower"),
    "localsolve.solvable_ratio": ("ratio", "higher"),
    "localsolve.errors": ("count", "lower"),
    "numtheory.factorize.calls": ("count", "lower"),
    "numtheory.factorize.self_s": ("s", "lower"),
    "numtheory.timeouts": ("count", "lower"),
    "numtheory.is_prime.calls": ("count", "lower"),
    "numtheory.is_prime.s": ("s", "lower"),
    "numtheory.legendre.calls": ("count", "lower"),
    "numtheory.legendre.s": ("s", "lower"),
    "family.is_admissible.calls": ("count", "lower"),
    "family.is_admissible.s": ("s", "lower"),
    "family.build_curve.self_s": ("s", "lower"),
    "heights.pairing_matrix.s": ("s", "lower"),
    "heights.independence_rank.s": ("s", "lower"),
    "heights.canonical_height.calls": ("count", "lower"),
    "heights.canonical_height.s": ("s", "lower"),
    "heights.doublings": ("count", "lower"),
    "heights.budget_exceeded": ("count", "lower"),
    "curve.torsion_group.s": ("s", "lower"),
    "curve.count_points_mod.calls": ("count", "lower"),
    "cache.load.s": ("s", "lower"),
    "cache.lines_loaded": ("count", "lower"),
    "cache.get.calls": ("count", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "cache.put.calls": ("count", "lower"),
    "cache.put.s": ("s", "lower"),
    "cache.bytes_written": ("bytes", "lower"),
    "analysis.run_analysis.s": ("s", "lower"),
    "analysis.run_analysis.self_s": ("s", "lower"),
    "analysis.stage.build_s": ("s", "lower"),
    "analysis.stage.torsion_s": ("s", "lower"),
    "analysis.stage.heights_s": ("s", "lower"),
    "analysis.stage.selmer_s": ("s", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.slowdown": ("ratio", "lower"),
}

_PLACES = {2: "p2", 3: "p3"}


def _ratio(num: float, den: float) -> float:
    """num/den, and 0.0 when nothing was attempted (den is reported beside it)."""
    return num / den if den else 0.0


class Tracer:
    """Spans and counters for one benchmark run; install() wraps the package."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.invocation = 0
        self._ids = itertools.count(1)
        self._stack: list[list] = []
        self.reset_counts()

    def reset_counts(self) -> None:
        """Start a new pass: zero the aggregates, keep the spans."""
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()

    # -- wrapping ---------------------------------------------------------

    def _timed(self, name, fn, after=None, split=None):
        """Wrap fn in a span; after(result, args, kwargs) adds counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = name if split is None else f"{name}.{split(args, kwargs)}"
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counters[f"raised:{name}"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                st = tracer.stats.setdefault(key, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append(
                    (frame[0], key, start, end, parent, tracer.invocation))
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def _counted(self, counter, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every public function of every layer, and the listed methods.

        The wrappers stay in place for the rest of the process.
        """
        modules = {n: importlib.import_module(f"emcurve.{n}") for n in LAYERS}
        hooks = {
            "descent.selmer_group": self._after_selmer,
            "localsolve.decide_local": self._after_decide_local,
            "heights.canonical_height": self._after_canonical_height,
            "analysis.run_analysis": self._after_run_analysis,
        }
        splits = {"localsolve.decide_local": _decide_local_place}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                # A span around a generator function would time only its creation.
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._timed(name, fn, hooks.get(name), splits.get(name))
                for other in modules.values():
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, other_attr, wrapped)

        ctx = modules["descent"].DescentContext
        ctx.exclusion_reason = self._counted("descent.cosets_examined",
                                             ctx.exclusion_reason)
        ctx.necessary_failures = self._counted("descent.symbol_checks",
                                               ctx.necessary_failures)
        cache = modules["cache"].ResultCache
        cache.__init__ = self._timed("cache.load", cache.__init__, self._after_load)
        for attr in ("get_factorization", "get_analysis"):
            setattr(cache, attr, self._timed(f"cache.{attr}", getattr(cache, attr),
                                             self._after_get))
        for attr in ("put_factorization", "put_analysis"):
            setattr(cache, attr, self._cache_put(
                self._timed(f"cache.{attr}", getattr(cache, attr))))

    def _cache_put(self, put):
        tracer = self

        @functools.wraps(put)
        def sized(cache, *args, **kwargs):
            before = _file_size(cache.path)
            put(cache, *args, **kwargs)
            tracer.counters["cache.bytes_written"] += _file_size(cache.path) - before

        return sized

    # -- result hooks -----------------------------------------------------

    def _after_selmer(self, result, args, kwargs):
        self.counters["descent.members"] += len(result.members)

    def _after_decide_local(self, verdict, args, kwargs):
        self.counters["localsolve.solvable"] += verdict.is_solvable

    def _after_canonical_height(self, estimate, args, kwargs):
        self.counters["heights.doublings"] += estimate.iterations

    def _after_run_analysis(self, record, args, kwargs):
        for stage, seconds in record.timings.items():
            self.counters[f"analysis.stage.{stage}_s"] += seconds

    def _after_load(self, result, args, kwargs):
        path = args[0].path
        if os.path.exists(path):
            with open(path, "rb") as fh:
                self.counters["cache.lines_loaded"] += fh.read().count(b"\n")

    def _after_get(self, result, args, kwargs):
        self.counters["cache.hits"] += result is not None

    # -- metrics ----------------------------------------------------------

    def _sum(self, prefix: str, field: int) -> float:
        """Sum a stats field over `prefix` and every split of it."""
        return sum(st[field] for name, st in self.stats.items()
                   if name == prefix or name.startswith(prefix + "."))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the current pass (everything but trace.*)."""
        calls = lambda n: self._sum(n, 0)
        total = lambda n: self._sum(n, 1)
        self_s = lambda n: self._sum(n, 2)
        c = self.counters
        cosets = c["descent.cosets_examined"]
        decides = calls("localsolve.decide_local")
        gets = calls("cache.get_factorization") + calls("cache.get_analysis")
        out = {
            "descent.selmer_group.s": total("descent.selmer_group"),
            "descent.selmer_group.self_s": self_s("descent.selmer_group"),
            "descent.cosets_examined": cosets,
            "descent.symbol_checks": c["descent.symbol_checks"],
            "descent.members": c["descent.members"],
            "descent.member_ratio": _ratio(c["descent.members"], cosets),
            "localsolve.decide_local.calls": decides,
            "localsolve.decide_local.s": total("localsolve.decide_local"),
        }
        for place in ("p2", "p3", "odd"):
            name = f"localsolve.decide_local.{place}"
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = total(name)
        out.update({
            "localsolve.solvable_ratio": _ratio(c["localsolve.solvable"], decides),
            "localsolve.errors": c["raised:localsolve.decide_local"],
            "numtheory.factorize.calls": calls("numtheory.factorize"),
            "numtheory.factorize.self_s": self_s("numtheory.factorize"),
            "numtheory.timeouts": c["raised:numtheory.factorize"],
            "numtheory.is_prime.calls": calls("numtheory.is_prime"),
            "numtheory.is_prime.s": total("numtheory.is_prime"),
            "numtheory.legendre.calls": calls("numtheory.legendre"),
            "numtheory.legendre.s": total("numtheory.legendre"),
            "family.is_admissible.calls": calls("family.is_admissible"),
            "family.is_admissible.s": total("family.is_admissible"),
            "family.build_curve.self_s": self_s("family.build_curve"),
            "heights.pairing_matrix.s": total("heights.pairing_matrix"),
            "heights.independence_rank.s": total("heights.independence_rank"),
            "heights.canonical_height.calls": calls("heights.canonical_height"),
            "heights.canonical_height.s": total("heights.canonical_height"),
            "heights.doublings": c["heights.doublings"],
            "heights.budget_exceeded": c["raised:heights.canonical_height"],
            "curve.torsion_group.s": total("curve.torsion_group"),
            "curve.count_points_mod.calls": calls("curve.count_points_mod"),
            "cache.load.s": total("cache.load"),
            "cache.lines_loaded": c["cache.lines_loaded"],
            "cache.get.calls": gets,
            "cache.hit_ratio": _ratio(c["cache.hits"], gets),
            "cache.put.calls": (calls("cache.put_factorization")
                                + calls("cache.put_analysis")),
            "cache.put.s": (total("cache.put_factorization")
                            + total("cache.put_analysis")),
            "cache.bytes_written": c["cache.bytes_written"],
            "analysis.run_analysis.s": total("analysis.run_analysis"),
            "analysis.run_analysis.self_s": self_s("analysis.run_analysis"),
        })
        for stage in ("build", "torsion", "heights", "selmer"):
            key = f"analysis.stage.{stage}_s"
            out[key] = c[key]
        out.update({
            "cli.main.s": total("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
            "cli.stdout_bytes": c["cli.stdout_bytes"],
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(st[2] for name, st in self.stats.items()
                                         if name.startswith(layer + "."))
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: id, name, start, end, parent, invocation."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, inv in self.spans:
                fh.write(json.dumps([sid, name, start - t0, end - t0, parent, inv]))
                fh.write("\n")


def _decide_local_place(args, kwargs) -> str:
    ell = kwargs["ell"] if "ell" in kwargs else args[5]
    return _PLACES.get(ell, "odd")


def _file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0
