"""Command-line front end.

Subcommands: analyze, scan, table1, selmer, heights, torsion.  Each command
opens the result cache at most once.  analyze, scan and table1 share one
flow: cached records are served, and the rest run through run_analysis in
this process or, with --jobs, in workers; whichever process computes a record
appends the factorizations it made, then the record, to the cache at once.
selmer, heights and torsion build the curve as run_analysis does and run
only their stage.  Output is a human-readable table by default,
newline-delimited JSON with --json, or CSV with --csv (analyze and scan
only); --verbose adds the descent audit trail to the default output, so
--json, --csv and --verbose exclude each other.  The audit is read from the
Selmer result of each record's curve, whether the record was served from
the cache or computed.  Each subcommand takes only the flags it reads (see
build_parser), but for --jobs, which analyze, heights and torsion accept
and ignore.  Exit codes: 0 success, 1 reference-table mismatch, 2 invalid
input (an unusable cache path included), 3 resource exhaustion.

A served record needs only the cache and the record side of the package
(AnalysisRecord, EngineConfig), so this module imports no engine module
(numtheory, family, curve, heights, localsolve, descent, analysis) at top
level: each path that computes imports what it calls, once it runs -- a
miss, the --verbose audit, scan's admissibility sieve, and the selmer,
heights and torsion commands.  A warm analyze or table1 loads none of it,
nor csv, which only --csv output imports.
"""

import argparse
import contextlib
import functools
import json
import math
import sys

from . import DEFAULT_RHO_BUDGET, DEFAULT_TOL, AnalysisRecord, EngineConfig
from .cache import ResultCache, resolve_cache_path

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

# Reference values for the six tabulated parameters: s2, and the published
# rank figure where one is known exactly (None when only a bound is known).
REFERENCE_ROWS = {
    6: {"s2": 4, "rank_exact": 2},
    12: {"s2": 3, "rank_exact": 3},
    30: {"s2": 3, "rank_exact": 3},
    42: {"s2": 4, "rank_exact": None},
    60: {"s2": 4, "rank_exact": 4},
    462: {"s2": 5, "rank_exact": None},
}


# Every flag a subcommand may take; build_parser gives each the ones it reads.
_FLAGS = {
    "--json": dict(action="store_true", help="newline-delimited JSON output"),
    "--no-cache": dict(action="store_true", help="keep results in memory, no cache file"),
    "--cache-path": dict(help="cache file (default ./.emcache.jsonl or $EM_CACHE_PATH)"),
    "--seed": dict(type=int, default=0, help="seed for randomized stages"),
    "--rho-budget": dict(type=int, default=DEFAULT_RHO_BUDGET,
                         help="work budget per factorization, shared by its "
                              "cofactors: rho iterations plus ECM ladder steps "
                              "and prime-paired stage-2 products (trial "
                              "division stops below 2^10, so medium factors draw "
                              "on it too)"),
    "--verbose": dict(action="store_true", default=False,
                      help="print the descent's counts per exclusion rule, for "
                           "the symbol conditions and per bad place, then each "
                           "Selmer member with its verdicts and witnesses"),
    "--jobs": dict(type=int, default=1,
                   help="parallel workers across the parameters of scan and "
                        "table1 (no effect on analyze, heights and torsion)"),
    "--tol": dict(type=float, default=DEFAULT_TOL,
                  help="stopping tolerance of the doubling chain behind the height "
                       "pairing, not a proven bound; finite and positive"),
    "--csv": dict(action="store_true", help="CSV output"),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Add the named _FLAGS; the three that choose what stdout holds,
    --json, --csv and --verbose, exclude each other."""
    outputs = p.add_mutually_exclusive_group()
    for name in names:
        group = outputs if name in ("--json", "--csv", "--verbose") else p
        group.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every main call;
    main parses a known subcommand's flags on that subcommand's own parser.

    Each subcommand takes only the flags it reads, apart from --jobs, which
    analyze, heights and torsion accept without effect so that one flag set
    serves every command.
    """
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """build_parser's parser, and each subcommand's own parser by name."""
    ap = argparse.ArgumentParser(
        prog="emcurve",
        description="Torsion, rank lower bounds and 2-Selmer groups for the "
                    "curve family y^2 = x(x-n1)(x-n2) + t^2",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    shared = ("--json", "--no-cache", "--cache-path", "--seed", "--rho-budget")

    p = sub.add_parser("analyze", help="full pipeline for one parameter")
    p.add_argument("--m", type=int, required=True)
    _add_flags(p, *shared, "--verbose", "--jobs", "--tol", "--csv")

    p = sub.add_parser("scan", help="analyze every admissible m in a range")
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--admissible-only", action="store_true",
                   help="list admissible m without running the pipeline")
    _add_flags(p, *shared, "--verbose", "--jobs", "--tol", "--csv")

    p = sub.add_parser("table1", help="recompute the reference table and compare")
    _add_flags(p, *shared, "--verbose", "--jobs", "--tol")

    p = sub.add_parser("selmer", help="2-Selmer group only")
    p.add_argument("--m", type=int, required=True)
    _add_flags(p, *shared, "--verbose")

    p = sub.add_parser("heights", help="height pairing matrix only")
    p.add_argument("--m", type=int, required=True)
    _add_flags(p, *shared, "--jobs", "--tol")

    p = sub.add_parser("torsion", help="torsion subgroup only")
    p.add_argument("--m", type=int, required=True)
    _add_flags(p, *shared, "--jobs")

    return ap, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), on the subcommand's own parser when
    argv starts with one, so the top-level parser does not scan the flags
    first; an unrecognized flag then prints the subcommand's usage."""
    ap, commands = _parsers()
    if not argv or argv[0] not in commands:
        return ap.parse_args(argv)  # -h, or a missing or unknown command
    args = commands[argv[0]].parse_args(argv[1:])
    args.command = argv[0]
    return args


def _config(args) -> EngineConfig:
    return EngineConfig(
        seed=args.seed,
        rho_budget=args.rho_budget,
        tol=args.tol,
    )


def _cache(args) -> ResultCache:
    """The command's cache; under --no-cache one held in memory only."""
    return ResultCache(None if args.no_cache else resolve_cache_path(args.cache_path))


def _print_audit(res) -> None:
    """The descent audit of --verbose, from a descent.SelmerResult: the
    tallies, then each member with its verdicts and witnesses by place."""
    for reason, count in res.tallies.items():
        print(f"  {reason}: {count} cosets")
    for pair in res.members:
        print(f"  ({pair.b1.value}, {pair.b2.value}) -> member")
        for place, verdict in sorted(
            pair.local_evidence.items(), key=lambda kv: (kv[0] is math.inf, kv[0])
        ):
            w = verdict.witness
            extra = "" if w is None else f" witness x={w}"
            print(f"      place {place}: {verdict.outcome}{extra}")


def _print_record_human(r: AnalysisRecord) -> None:
    print(f"m = {r.m}")
    print(f"  admissible:      {r.admissible}")
    print(f"  torsion:         {r.torsion_structure}")
    print(f"  rank lower bound {r.independence} (pairing det {r.pairing_determinant:.4f})")
    print(f"  s2:              {r.s2}   (|Sel| = 2^{r.size_log2})")
    print(f"  theorem bound w: {r.theorem_w}")
    cor = "-" if r.corollary_value is None else str(r.corollary_value)
    print(f"  corollary s2:    {cor}")
    print(f"  member cosets:   {len(r.members)}")
    total = sum(r.timings.values())
    print(f"  time:            {total:.2f}s " +
          " ".join(f"{k}={v:.2f}" for k, v in r.timings.items()))


def _emit_records(records, args) -> None:
    """Print records as they arrive; the CSV header goes before the first."""
    if args.csv:
        import csv

        writer = csv.writer(sys.stdout)
    for i, r in enumerate(records):
        if args.json:
            print(r.to_json())
        elif args.csv:
            if i == 0:
                writer.writerow(AnalysisRecord.CSV_HEADER)
            writer.writerow(r.csv_row())
        else:
            _print_record_human(r)


def _engine_errors():
    """The engine's errors that a scan reports per m and main maps to exit
    codes: exit 3 for the first three, exit 2 for SquarefreePrecondition.

    Named only in except clauses, which run this only once something is
    raised; each of them is raised only after its module has loaded.
    """
    from .descent import SquarefreePrecondition
    from .heights import HeightBudgetExceeded
    from .localsolve import LocalSolverError
    from .numtheory import FactorizationTimeout

    return (FactorizationTimeout, HeightBudgetExceeded, LocalSolverError,
            SquarefreePrecondition)


def _scan_worker(m, config, cache):
    """run_analysis through the cache, then its new factorizations and the
    record appended there in one batch; a scan error is returned instead of
    raised, so one failing m does not end a scan."""
    from .analysis import run_analysis

    try:
        with cache.batch():
            record = run_analysis(m, config, cache=cache)
            cache.put_analysis(m, config.record_key, record.__dict__)
    except _engine_errors() as e:
        return e
    return record


_pool_cache = None  # set in each --jobs worker: its copy of the command's cache


def _init_pool_worker(cache):
    global _pool_cache
    _pool_cache = cache


def _pool_worker(task):
    m, config = task
    return _scan_worker(m, config, _pool_cache)


_RECORD_FIELDS = set(AnalysisRecord.FIELDS)


def _analyses(ms, args):
    """(m, AnalysisRecord | scan error) for each m, in the order given.

    Opens the command's one cache and serves its hits in place.  The misses
    run through _scan_worker, in --jobs worker processes when there are two
    or more of them and --verbose is off, else in this process.  Each worker
    gets a copy of the cache, so the file is read once per command, and
    appends its own factorizations and records under the cache's lock.
    Either way the results stream in order.  With --verbose each record,
    served or computed, is preceded by the descent audit of its curve, built
    here through the cache (so it stays out of the record's timings); a scan
    error has none.  A cached value without exactly AnalysisRecord's fields
    raises ValueError before anything runs.
    """
    config = _config(args)
    key = config.record_key
    cache = _cache(args)
    hits = [cache.get_analysis(m, key) for m in ms]
    for m, hit in zip(ms, hits):
        if hit is not None and (type(hit) is not dict or hit.keys() != _RECORD_FIELDS):
            raise ValueError(f"cache {cache.path}: the value at key {m}:{key} "
                             f"is not an analysis record")
    misses = [m for m, hit in zip(ms, hits) if hit is None]
    with contextlib.ExitStack() as stack:
        if args.jobs > 1 and len(misses) > 1 and not args.verbose:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=args.jobs, initializer=_init_pool_worker,
                initargs=(cache,)))
            fresh = pool.map(_pool_worker, [(m, config) for m in misses])
        else:
            fresh = (_scan_worker(m, config, cache) for m in misses)
        for m, hit in zip(ms, hits):
            outcome = next(fresh) if hit is None else AnalysisRecord(**hit)
            if args.verbose and not isinstance(outcome, Exception):
                from .analysis import analysis_curve
                from .descent import DescentContext, selmer_group

                curve = analysis_curve(m, config, cache)
                _print_audit(selmer_group(DescentContext(curve)))
            yield m, outcome


def _raising(outcomes):
    """The records of _analyses, raising the first scan error instead."""
    for _, outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        yield outcome


def cmd_analyze(args) -> int:
    _emit_records(_raising(_analyses([args.m], args)), args)
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.lo > args.hi:
        print("error: --from must not exceed --to", file=sys.stderr)
        return EXIT_INVALID
    if args.admissible_only:
        # The list comes from the sieve alone, which reads --seed; --json
        # picks its format, and --no-cache has nothing to bypass.
        unread = [flag for flag in ("--verbose", "--cache-path", "--tol", "--jobs",
                                    "--rho-budget")
                  if getattr(args, flag[2:].replace("-", "_"))
                  != _FLAGS[flag].get("default")]
        if args.csv or unread:
            print("error: --admissible-only " + ("prints no CSV" if args.csv else
                  "does not read " + ", ".join(unread)), file=sys.stderr)
            return EXIT_INVALID
    from .family import scan_admissible

    lo = max(args.lo, 2)  # a window that ends below 2 is empty
    ms = list(scan_admissible(lo, args.hi, seed=args.seed)) if lo <= args.hi else []
    if args.admissible_only:
        if args.json:
            print(json.dumps(ms))
        else:
            print(" ".join(str(m) for m in ms))
        return EXIT_OK

    def records():
        for m, outcome in _analyses(ms, args):
            if isinstance(outcome, Exception):
                print(f"m = {m}: failed ({outcome})", file=sys.stderr)
            else:
                yield outcome

    _emit_records(records(), args)
    return EXIT_OK


def cmd_table1(args) -> int:
    rows = []
    ok = True
    for record in _raising(_analyses(list(REFERENCE_ROWS), args)):
        m, ref = record.m, REFERENCE_ROWS[record.m]
        s2_match = record.s2 == ref["s2"]
        rank_ok = record.independence >= 2 and record.independence <= record.s2
        if ref["rank_exact"] is not None:
            rank_ok = rank_ok and ref["rank_exact"] <= record.s2
        ok = ok and s2_match and rank_ok
        rows.append((m, record, ref, s2_match, rank_ok))
    if args.json:
        for m, record, ref, s2_match, rank_ok in rows:
            print(json.dumps({
                "m": m, "s2": record.s2, "s2_reference": ref["s2"],
                "s2_match": s2_match, "torsion": record.torsion_structure,
                "rank_lower_bound": record.independence,
                "pairing_det": record.pairing_determinant,
                "rank_consistent": rank_ok,
            }, sort_keys=True))
    else:
        header = (f"{'m':>5} {'torsion':>10} {'rank>=':>7} {'det':>12} "
                  f"{'s2':>4} {'ref':>4} {'w':>3} {'match':>6}")
        print(header)
        for m, record, ref, s2_match, rank_ok in rows:
            verdict = "ok" if (s2_match and rank_ok) else "FAIL"
            print(f"{m:>5} {record.torsion_structure:>10} {record.independence:>7} "
                  f"{record.pairing_determinant:>12.4f} {record.s2:>4} "
                  f"{ref['s2']:>4} {record.theorem_w:>3} {verdict:>6}")
    return EXIT_OK if ok else EXIT_MISMATCH


def _curve(args):
    """The curve of --m, built as run_analysis builds it, through the cache;
    the factorizations it makes go out in one append."""
    from .analysis import analysis_curve

    config = EngineConfig(seed=args.seed, rho_budget=args.rho_budget)
    cache = _cache(args)
    with cache.batch():
        return analysis_curve(args.m, config, cache)


def cmd_selmer(args) -> int:
    from .descent import DescentContext, selmer_group

    res = selmer_group(DescentContext(_curve(args)))
    if args.verbose:
        _print_audit(res)
    if args.json:
        print(json.dumps({
            "m": args.m, "s2": res.s2, "size_log2": res.size_log2,
            "theorem_w": res.theorem_w, "corollary": res.corollary_value,
            "members": [[str(b1), str(b2)] for b1, b2 in res.values],
        }, sort_keys=True))
    else:
        print(f"m = {args.m}: s2 = {res.s2}, w = {res.theorem_w}, "
              f"corollary = {res.corollary_value}")
        for b1, b2 in res.values:
            print(f"  ({b1}, {b2})")
    return EXIT_OK


def cmd_heights(args) -> int:
    from .analysis import height_certificate
    from .descent import DescentContext

    gram, rank = height_certificate(DescentContext(_curve(args)), _config(args))
    if args.json:
        print(json.dumps({
            "m": args.m,
            "entries": [list(r) for r in gram.entries],
            "determinant": gram.determinant,
            "rank_lower_bound": rank,
        }, sort_keys=True))
    else:
        print(f"m = {args.m}: height pairing of (0,t), (n1,t)")
        for row in gram.entries:
            print("  [" + "  ".join(f"{v:10.6f}" for v in row) + "]")
        print(f"  det = {gram.determinant:.6f}, rank lower bound {rank}")
    return EXIT_OK


def cmd_torsion(args) -> int:
    from .curve import torsion_group

    tors = torsion_group(_curve(args))
    if args.json:
        print(json.dumps({
            "m": args.m, "structure": tors.structure,
            "points": [None] + [[str(p.x), str(p.y)] for p in tors.generators],
        }, sort_keys=True))
    else:
        pts = ", ".join(repr(p) for p in tors.points)
        print(f"m = {args.m}: {tors.structure}  {{{pts}}}")
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "scan": cmd_scan,
    "table1": cmd_table1,
    "selmer": cmd_selmer,
    "heights": cmd_heights,
    "torsion": cmd_torsion,
}


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        # Before any curve is built.  scan --admissible-only reads none of
        # these and refuses a set one itself, by name.
        if not getattr(args, "admissible_only", False):
            if "jobs" in args and args.jobs < 1:
                raise ValueError("--jobs must be at least 1")
            if args.rho_budget < 0:
                raise ValueError("--rho-budget must not be negative")
            if "tol" in args and not 0 < args.tol < math.inf:  # also true for nan
                raise ValueError("tol must be finite and positive")
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as e:
        # ValueError covers InadmissibleParameter and bad flag values; OSError
        # an unusable cache path.
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except _engine_errors() as e:
        from .descent import SquarefreePrecondition

        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID if isinstance(e, SquarefreePrecondition) else EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
