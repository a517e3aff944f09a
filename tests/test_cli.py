import binascii
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import emcurve
from emcurve.analysis import AnalysisRecord, EngineConfig, run_analysis
from emcurve.cache import ResultCache
from emcurve.cli import build_parser, main
from emcurve.numtheory import factorize

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)
DATA = Path(__file__).resolve().parent / "data"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_analyze_json(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "--m", "6", "--json", "--no-cache")
    assert rc == 0
    rec = json.loads(out)
    assert rec["s2"] == 4
    assert rec["torsion_structure"] == "Z/2 x Z/2"
    assert ["1", "1"] in rec["members"]
    # Big integers are decimal strings.
    assert all(isinstance(b1, str) and isinstance(b2, str)
               for b1, b2 in rec["members"])


def test_analyze_inadmissible_exit_code(capsys):
    rc, _, err = run_cli(capsys, "analyze", "--m", "8", "--no-cache")
    assert rc == 2
    assert "not admissible" in err


def test_analyze_resource_exit_code(capsys, monkeypatch):
    from emcurve.numtheory import FactorizationTimeout
    import emcurve.analysis as analysis_mod

    def boom(*a, **k):
        raise FactorizationTimeout(10, [], 10)

    # cli imports run_analysis from analysis when it computes a record.
    monkeypatch.setattr(analysis_mod, "run_analysis", boom)
    rc, _, err = run_cli(capsys, "analyze", "--m", "6", "--no-cache")
    assert rc == 3
    assert "budget" in err


def test_scan_admissible_only(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--from", "2", "--to", "100",
                         "--admissible-only", "--no-cache")
    assert rc == 0
    assert out.split() == ["4", "6", "12", "30", "42", "60", "72"]


def test_scan_empty_window(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--from", "7", "--to", "11",
                         "--admissible-only", "--no-cache")
    assert rc == 0
    assert out.strip() == ""


@pytest.mark.parametrize("lo, hi", [(1, 1), (0, 1), (-5, 0)])
def test_scan_window_ending_below_2_is_empty(capsys, lo, hi):
    rc, out, err = run_cli(capsys, "scan", "--from", str(lo), "--to", str(hi),
                           "--json", "--no-cache")
    assert (rc, out, err) == (0, "", "")
    rc, out, _ = run_cli(capsys, "scan", "--from", str(lo), "--to", str(hi),
                         "--admissible-only", "--json", "--no-cache")
    assert (rc, json.loads(out)) == (0, [])


def test_scan_bad_range(capsys):
    rc, _, err = run_cli(capsys, "scan", "--from", "10", "--to", "4", "--no-cache")
    assert rc == 2


def test_scan_json_stream(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--from", "2", "--to", "12", "--json",
                         "--no-cache")
    assert rc == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["m"] for r in records] == [4, 6, 12]
    assert records[1]["s2"] == 4 and records[2]["s2"] == 3


def test_analyze_csv(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "--m", "6", "--csv", "--no-cache")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2 and rows[0] == AnalysisRecord.CSV_HEADER
    assert rows[1][0] == "6" and rows[1][4] == "4"


@pytest.mark.parametrize("argv, message", [
    (["table1", "--csv"], "unrecognized arguments: --csv"),
    (["selmer", "--m", "6", "--csv"], "unrecognized arguments: --csv"),
    (["heights", "--m", "6", "--csv"], "unrecognized arguments: --csv"),
    (["torsion", "--m", "6", "--csv"], "unrecognized arguments: --csv"),
    (["analyze", "--m", "6", "--json", "--csv"],
     "argument --csv: not allowed with argument --json"),
    (["scan", "--from", "2", "--to", "12", "--json", "--csv"],
     "argument --csv: not allowed with argument --json"),
    # Each subcommand takes only the flags it reads.
    (["selmer", "--m", "6", "--jobs", "4"], "unrecognized arguments: --jobs 4"),
    (["selmer", "--m", "6", "--tol", "5"], "unrecognized arguments: --tol 5"),
    (["heights", "--m", "6", "--verbose"], "unrecognized arguments: --verbose"),
    (["torsion", "--m", "6", "--verbose"], "unrecognized arguments: --verbose"),
    (["torsion", "--m", "6", "--tol", "nan"], "unrecognized arguments: --tol nan"),
    # --verbose writes its audit trail to stdout, which --json and --csv own.
    (["analyze", "--m", "6", "--json", "--verbose"],
     "argument --verbose: not allowed with argument --json"),
    (["analyze", "--m", "6", "--verbose", "--csv"],
     "argument --csv: not allowed with argument --verbose"),
    (["scan", "--from", "2", "--to", "30", "--json", "--verbose"],
     "argument --verbose: not allowed with argument --json"),
    (["scan", "--from", "2", "--to", "30", "--csv", "--verbose"],
     "argument --verbose: not allowed with argument --csv"),
    (["table1", "--json", "--verbose"],
     "argument --verbose: not allowed with argument --json"),
    (["selmer", "--m", "6", "--verbose", "--json"],
     "argument --json: not allowed with argument --verbose"),
])
def test_csv_only_on_analyze_and_scan_and_never_with_json(capsys, argv, message):
    """argparse refuses a flag the subcommand does not read, and two output
    flags together, before anything runs."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--no-cache"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.rstrip().endswith(message)


def test_scan_admissible_only_rejects_csv(capsys):
    rc, out, err = run_cli(capsys, "scan", "--from", "2", "--to", "20",
                           "--admissible-only", "--csv", "--no-cache")
    assert (rc, out, err) == (2, "", "error: --admissible-only prints no CSV\n")


@pytest.mark.parametrize("flags, unread", [
    (["--verbose"], "--verbose"),
    (["--cache-path", "/nonexistent/dir/x.jsonl"], "--cache-path"),
    (["--tol", "5"], "--tol"),
    (["--tol", "nan"], "--tol"),
    (["--jobs", "4"], "--jobs"),
    (["--jobs", "0"], "--jobs"),
    (["--rho-budget", "0"], "--rho-budget"),
    (["--rho-budget", "-5"], "--rho-budget"),
    (["--verbose", "--tol", "5", "--jobs", "4", "--rho-budget", "1"],
     "--verbose, --tol, --jobs, --rho-budget"),
], ids=["verbose", "cache-path", "tol", "tol-nan", "jobs", "jobs-zero", "rho-budget",
        "rho-budget-negative", "all"])
def test_scan_admissible_only_rejects_unread_flags(capsys, flags, unread):
    """The list runs only the sieve, so a flag that would change the
    pipeline's work is refused, not silently ignored."""
    rc, out, err = run_cli(capsys, "scan", "--from", "2", "--to", "20",
                           "--admissible-only", *flags)
    assert (rc, out, err) == (
        2, "", f"error: --admissible-only does not read {unread}\n")


def test_scan_admissible_only_takes_seed_and_default_values(capsys):
    rc, out, err = run_cli(capsys, "scan", "--from", "2", "--to", "20",
                           "--admissible-only", "--json", "--no-cache",
                           "--seed", "7", "--jobs", "1", "--tol", "0.001")
    assert (rc, out, err) == (0, "[4, 6, 12]\n", "")


def test_selmer_heights_torsion_subcommands(capsys):
    rc, out, _ = run_cli(capsys, "selmer", "--m", "6", "--json", "--no-cache")
    assert rc == 0 and json.loads(out)["s2"] == 4
    rc, out, _ = run_cli(capsys, "heights", "--m", "6", "--json", "--no-cache")
    data = json.loads(out)
    assert rc == 0 and data["rank_lower_bound"] == 2 and data["determinant"] > 0.1
    rc, out, _ = run_cli(capsys, "torsion", "--m", "6", "--json", "--no-cache")
    data = json.loads(out)
    assert rc == 0 and data["structure"] == "Z/2 x Z/2"
    assert ["1295", "0"] in data["points"]


def test_plain_heights_and_torsion_output(capsys):
    rc, out, _ = run_cli(capsys, "heights", "--m", "6", "--no-cache")
    assert rc == 0 and out == (
        "m = 6: height pairing of (0,t), (n1,t)\n"
        "  [  3.630782   -1.774988]\n"
        "  [ -1.774988    5.345440]\n"
        "  det = 16.257547, rank lower bound 2\n")
    rc, out, _ = run_cli(capsys, "torsion", "--m", "6", "--no-cache")
    assert rc == 0
    assert out == "m = 6: Z/2 x Z/2  {O, (1295, 0), (-1295, 0), (144, 0)}\n"


def test_scan_admissible_only_json(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--from", "2", "--to", "50",
                         "--admissible-only", "--json", "--no-cache")
    assert rc == 0 and out == "[4, 6, 12, 30, 42]\n"


def test_verbose_analyze_prints_audit_trail(capsys):
    rc, out, _ = run_cli(capsys, "analyze", "--m", "6", "--verbose", "--no-cache")
    assert rc == 0
    assert "(i) b2 < 0" in out
    assert "place 2: solvable" in out
    # 3 is a good prime for m = 6, so no local test runs there.
    assert "place 3:" not in out


def test_verbose_prints_locally_excluded_candidates(capsys):
    # m = 1950: 11^2 and 19^2 divide m^4-1-4m^2, and four symbol solutions
    # fail at 11, counted in one line; every other bad place rejects none.
    rc, out, _ = run_cli(capsys, "selmer", "--m", "1950", "--verbose", "--no-cache")
    assert rc == 0
    lines = out.splitlines()
    places = (2, 11, 19, 29, 1453, 1949, 1951, 2617, 14741, 11414251, 980871139)
    assert [line for line in lines if line.startswith("  locally unsolvable at ")] == [
        f"  locally unsolvable at {ell}: {4 if ell == 11 else 0} cosets"
        for ell in places]
    assert not any(" -> excluded" in line for line in lines)


def test_verbose_counts_rules_and_details_survivors(capsys):
    rc, out, _ = run_cli(capsys, "selmer", "--m", "6", "--verbose", "--no-cache")
    assert rc == 0
    lines = out.splitlines()
    assert "  (i) b2 < 0: 2048 cosets" in lines
    assert "  (v) b1*b2 = 2 mod 4: 32 cosets" in lines
    # Of the 2^(nbits-2) = 32 survivors of the rules, the rank-1 symbol system
    # rejects 16 in one line; one line per solution, none per rejected coset.
    assert "  necessary_fail (symbol system of F2 rank 1): 16 cosets" in lines
    assert sum(" -> " in line for line in lines) == 16
    assert "necessary_fail [" not in out


# sha256 of `selmer --m M --verbose --no-cache` stdout, which prints no
# timings: the tallies, the points that span each place's local image, and
# the members.
VERBOSE_DIGESTS = {
    6: "9f1ca62a12538970f8d03089ee025f277611204f81b37f5fc9e3753e2a5d390b",
    42: "1423009a86d7cb62c08f0ee967a4391bcf56a26d034de50199660ead01b10084",
    462: "4552cba292d5abfed005a7097ad65156e1ddb17d044c502050fa8c0206bf26d9",
    1950: "eaea79be88dac5c201a6f50b95b90646e547bb37b0dcacde60ddd8d783db60cf",
}


@pytest.mark.parametrize("m", sorted(VERBOSE_DIGESTS))
def test_selmer_verbose_output_is_pinned(capsys, m):
    rc, out, _ = run_cli(capsys, "selmer", "--m", str(m), "--verbose", "--no-cache")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERBOSE_DIGESTS[m]


def test_verbose_audit_certifies_each_place_once(capsys):
    # The tallies, one line per bad place in s_primes order and one for the
    # real place, then the members in the order selmer --json lists them.
    rc, out, _ = run_cli(capsys, "selmer", "--m", "462", "--verbose", "--no-cache")
    assert rc == 0
    lines = out.splitlines()
    audit = lines[:lines.index("m = 462: s2 = 5, w = 4, corollary = 5")]
    rc, js, _ = run_cli(capsys, "selmer", "--m", "462", "--json", "--no-cache")
    members = json.loads(js)["members"]
    places = (2, 5, 461, 463, 42689, 45557487359, 45559194911)
    assert len(audit) == 13 + len(places) + 1 + len(members) == 53
    assert all(line.endswith(" cosets") for line in audit[:13])
    assert [line.split(":")[0] for line in audit[13:21]] == [
        f"  place {place}" for place in (*places, "inf")]
    assert audit[16] == "  place 463: solvable on the image spanned by T1, x=45558341134"
    assert audit[20] == "  place inf: solvable, b2 > 0 by rule (i)"
    assert audit[21:] == [f"  ({b1}, {b2}) -> member" for b1, b2 in members]
    assert not any("witness" in line for line in audit)
    rc, out, _ = run_cli(capsys, "selmer", "--m", "1950", "--verbose", "--no-cache")
    assert rc == 0
    assert "  place 1951: solvable on the image spanned by T1, x=14459006249997" in (
        out.splitlines())


@pytest.mark.parametrize("argv", [
    ["analyze", "--m", "6"],
    ["scan", "--from", "2", "--to", "60"],
], ids=["analyze", "scan"])
def test_verbose_prints_the_audit_for_cached_records(capsys, tmp_path, argv):
    # The second run serves every record from the cache; the audit is read
    # from the Selmer result of the curve, so it prints the same lines.
    argv += ["--verbose", "--cache-path", str(tmp_path / "cache.jsonl")]
    rc, cold, _ = run_cli(capsys, *argv)
    assert rc == 0 and "necessary_fail (symbol system of F2 rank" in cold
    rc, warm, _ = run_cli(capsys, *argv)
    assert rc == 0 and warm == cold


@pytest.mark.parametrize("verbose", [False, True], ids=["plain", "verbose"])
def test_no_cache_factors_each_number_once(capsys, tmp_path, monkeypatch, verbose):
    # --no-cache keeps the command's results in memory, so the audit's curve
    # is rebuilt from the factorizations the record made, and no file is
    # written, wherever the cache would have gone.
    import emcurve.numtheory as numtheory

    splits = []
    real_split = numtheory._split

    def counting_split(c, seed, budget):
        splits.append(c)
        return real_split(c, seed, budget)

    monkeypatch.setattr(numtheory, "_split", counting_split)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("EM_CACHE_PATH", str(tmp_path / "env.jsonl"))
    argv = ["analyze", "--m", "10008", "--no-cache"] + (["--verbose"] if verbose else [])
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and ("necessary_fail (symbol system" in out) == verbose
    assert len(splits) == 3
    assert list(tmp_path.iterdir()) == []


def test_record_round_trip():
    rec = run_analysis(6)
    assert AnalysisRecord(**json.loads(rec.to_json())) == rec


def test_run_analysis_proves_admissibility_once(monkeypatch):
    import emcurve.family as family_mod

    factored = []

    def counting_factorize(n, **kwargs):
        factored.append(n)
        return factorize(n, **kwargs)

    monkeypatch.setattr(family_mod, "factorize", counting_factorize)
    rec = run_analysis(60)
    assert factored.count(60**2 + 1) == 1
    assert rec.admissible is True
    assert rec.admissibility == {
        "is_even": True, "twin_primes": True, "squarefree_check": True,
    }


def test_run_analysis_assembles_m4_minus_1(monkeypatch, tmp_path):
    import emcurve.family as family_mod

    factored = []

    def counting_factorize(n, **kwargs):
        factored.append(n)
        return factorize(n, **kwargs)

    monkeypatch.setattr(family_mod, "factorize", counting_factorize)
    path = str(tmp_path / "cache.jsonl")
    run_analysis(60, cache=ResultCache(path))
    assert 60**4 - 1 not in factored
    stored = ResultCache(path).get_factorization(60**4 - 1)
    assert stored == list(factorize(60**4 - 1).factors)


def test_height_budget_at_requested_tol_exits_3(capsys, monkeypatch):
    # The pairing is a report computed once at --tol: a bit-cap hit there is
    # a resource error, never a retry at a coarser tolerance.
    import emcurve.analysis as analysis_mod
    from emcurve.heights import HeightBudgetExceeded, HeightEstimate

    tols = []

    def capped(curve, pts, tol):
        tols.append(tol)
        raise HeightBudgetExceeded(HeightEstimate(0.0, 1, 1.0))

    monkeypatch.setattr(analysis_mod, "pairing_matrix", capped)
    for command in ("heights", "analyze"):
        tols.clear()
        rc, out, err = run_cli(capsys, command, "--m", "6", "--json", "--no-cache")
        assert (rc, out, tols) == (3, "", [1e-3])
        assert err.startswith("error: height iteration hit the bit cap")
        assert err.count("\n") == 1
    rc, out, err = run_cli(capsys, "scan", "--from", "6", "--to", "6", "--json",
                           "--no-cache")
    assert (rc, out) == (0, "")
    assert err.startswith("m = 6: failed (height iteration hit the bit cap")


def test_real_height_bit_cap_exits_3(capsys):
    # No stand-in: at --tol 1e-9 the doubling at m = 6 reaches the default
    # bit cap first, at the same step and with the same gap every time.
    rc, out, err = run_cli(capsys, "heights", "--m", "6", "--tol", "1e-9", "--no-cache")
    assert (rc, out) == (3, "")
    assert err == "error: height iteration hit the bit cap at N=7 with error bound 2.85e-07\n"


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--m", "6", "--jobs", "0"], "--jobs must be at least 1"),
    (["scan", "--from", "2", "--to", "12", "--jobs", "-3"],
     "--jobs must be at least 1"),
    (["analyze", "--m", "6", "--rho-budget", "-5"],
     "--rho-budget must not be negative"),
    (["analyze", "--m", "10008", "--rho-budget", "-5"],
     "--rho-budget must not be negative"),
    (["table1", "--jobs", "0"], "--jobs must be at least 1"),
    (["torsion", "--m", "6", "--jobs", "0"], "--jobs must be at least 1"),
    # selmer takes no --jobs.
    (["selmer", "--m", "6", "--rho-budget", "-5"],
     "--rho-budget must not be negative"),
])
def test_bad_jobs_or_rho_budget_exits_2(capsys, argv, message):
    rc, out, err = run_cli(capsys, *argv, "--json", "--no-cache")
    assert (rc, out, err) == (2, "", f"error: {message}\n")


# What perfbench/run.py passes to every invocation (see perfbench/README.md).
_BENCH_FLAGS = ["--json", "--jobs", "1", "--seed", "0", "--cache-path", "bench.jsonl"]


@pytest.mark.parametrize("argv", [
    # perfbench/run.py: the timed invocations and the replay prefill scan.
    ["analyze", "--m", "42", *_BENCH_FLAGS],
    ["heights", "--m", "10008", *_BENCH_FLAGS],
    ["torsion", "--m", "10008", *_BENCH_FLAGS],
    ["scan", "--from", "2", "--to", "300", *_BENCH_FLAGS],
    # perfbench/capture_golden.py, which recaptures perfbench/golden.json.
    ["scan", "--from", "2", "--to", "300", "--admissible-only", "--json", "--no-cache"],
    ["analyze", "--m", "42", "--json", "--no-cache"],
    ["heights", "--m", "10008", "--json", "--cache-path", "golden.jsonl"],
    ["torsion", "--m", "10008", "--json", "--cache-path", "golden.jsonl"],
])
def test_benchmark_command_lines_parse(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0] and args.json


def _every_flag_argvs():
    """(command, argv) giving the command every flag it takes, once with
    each of its mutually exclusive output flags."""
    from emcurve.cli import _parsers

    values = {int: "7", float: "0.5", None: "c.jsonl"}
    for command, parser in _parsers()[1].items():
        exclusive = {a for g in parser._mutually_exclusive_groups
                     for a in g._group_actions}
        flags = [a for a in parser._actions if a.option_strings != ["-h", "--help"]]

        def argv(action):
            name = action.option_strings[0]
            return [name] if action.nargs == 0 else [name, values[action.type]]

        shared = [s for a in flags if a not in exclusive for s in argv(a)]
        for output in [a for a in flags if a in exclusive]:
            yield command, [command, *shared, *argv(output)]


@pytest.mark.parametrize("command, argv", list(_every_flag_argvs()))
def test_direct_subcommand_parse_matches_the_top_level_parser(command, argv):
    from emcurve.cli import _parse_args

    args = _parse_args(argv)
    assert args == build_parser().parse_args(argv)
    assert args.command == command


@pytest.mark.parametrize("argv, code", [([], 2), (["-h"], 0), (["nosuch"], 2)])
def test_missing_or_unknown_command_prints_the_top_level_usage(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == code
    assert (out if code == 0 else err).startswith(
        "usage: emcurve [-h] {analyze,scan,table1,selmer,heights,torsion} ...\n")


def test_unrecognized_flag_prints_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--m", "6", "--bogus"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: emcurve analyze [-h] --m M ")
    assert err.endswith(": error: unrecognized arguments: --bogus\n")


def _load_cache(path):
    """(ResultCache, what loading it printed on stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        cache = ResultCache(path)
    return cache, err.getvalue()


@settings(max_examples=25, deadline=None)
@given(lines=st.integers(1, 6), tagged=st.booleans(), nested=st.booleans(),
       data=st.data())
def test_cache_cut_at_any_byte_then_two_writers(lines, tagged, nested, data):
    def value(n):
        # A nested value puts closing braces inside the line, so a cut can
        # leave a line that ends in "}" and matches the line regex.
        return {"m": n, "stats": {"f": {"n": n}, "g": [n]}} if nested else [[str(n), 1]]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.jsonl")
        writer = ResultCache(path)
        for n in range(2, 2 + lines):
            if tagged:
                writer.put_analysis(n, "k", value(n))
            else:  # as lines were written before they carried a crc
                line = {"kind": "analysis", "key": f"{n}:k", "value": value(n)}
                with open(path, "ab") as fh:
                    fh.write(json.dumps(line).encode() + b"\n")
        raw = Path(path).read_bytes()
        last = raw.rfind(b"\n", 0, len(raw) - 1) + 1  # start of the last line
        cut = data.draw(st.integers(last + 1, len(raw) - 1), label="cut")
        Path(path).write_bytes(raw[:cut])
        torn = cut < len(raw) - 1  # else only the newline is gone
        served = range(2, 1 + lines + (not torn))
        first, err1 = _load_cache(path)
        second, err2 = _load_cache(path)
        warning = f"warning: skipping torn last line of cache {path}\n"
        assert err1 == err2 == (warning if torn else "")
        for cache in (first, second):
            assert all(cache.get_analysis(n, "k") == value(n) for n in served)
            assert (cache.get_analysis(1 + lines, "k") is None) == torn
        # Interleaved appends from both writers: the first repairs the tail.
        first.put_analysis(100, "k", value(100))
        second.put_analysis(101, "k", value(101))
        first.put_analysis(102, "k", value(102))
        reloaded, err = _load_cache(path)
        assert err == ""
        for n in [*served, 100, 101, 102]:
            assert reloaded.get_analysis(n, "k") == value(n)
        data_now = Path(path).read_bytes()
        assert data_now.startswith(raw[:last] if torn else raw)
        assert data_now.count(b"\n") == len(served) + 3
        assert data_now.endswith(b"\n")


def _cache_line(key, value, tagged):
    """A line as the cache writes it, or as it wrote it before the crc."""
    if not tagged:
        return json.dumps({"kind": "analysis", "key": key, "value": value}).encode()
    text = json.dumps(value).encode()
    return b'{"kind": "analysis", "key": "%s", "crc": %d, "value": %s}' % (
        key.encode(), binascii.crc32(text), text)


def _damage(line, how, at):
    """line damaged as `how` says; `at` picks the byte a digit change or a
    cut hits."""
    if how == "bom":
        return b"\xef\xbb\xbf" + line
    if how == "cr":
        return line + b"\r"
    if how == "space":
        return line + b" "
    if how == "digit":
        start = line.index(b'"value": ')
        digits = [i for i in range(start, len(line)) if line[i:i + 1].isdigit()]
        i = digits[at % len(digits)]
        return line[:i] + str((int(line[i:i + 1]) + 1) % 10).encode() + line[i + 1:]
    if how == "cut":
        return line[:at % len(line)]
    if how == "whitespace":
        return b" \t"
    assert how == "overlong-crc"
    return re.sub(rb'"crc": ([0-9]+)', lambda m: b'"crc": 0' + m[1].zfill(10), line)


_LINE_SPECS = st.tuples(
    st.sampled_from(["2:k", "3:k", "4:k"]),  # few keys, so some repeat
    st.integers(0, 10**6),
    st.sampled_from(["tagged"] * 6 + ["crcless", "blank", "bom", "cr", "space",
                                      "digit", "cut", "whitespace", "overlong-crc"]),
    st.booleans(), st.integers(0, 10**4))


@settings(max_examples=300, deadline=None)
@given(specs=st.lists(_LINE_SPECS, min_size=1, max_size=8), ends_whole=st.booleans())
# Every line matches and one fails its crc; a key repeats, the later line winning.
@example(specs=[("2:k", 5, "tagged", True, 0), ("3:k", 5, "digit", True, 0)],
         ends_whole=True)
@example(specs=[("2:k", 5, "tagged", True, 0), ("2:k", 6, "tagged", True, 0),
                ("2:k", 7, "crcless", False, 0)], ends_whole=False)
# A line without a crc takes no check off the tagged line or the gap beside it.
@example(specs=[("2:k", 5, "crcless", False, 0), ("3:k", 5, "digit", True, 0),
                ("4:k", 5, "tagged", True, 0)], ends_whole=True)
@example(specs=[("2:k", 5, "crcless", False, 0), ("3:k", 5, "whitespace", False, 0),
                ("4:k", 5, "tagged", True, 0)], ends_whole=True)
def test_cache_one_pass_load_matches_the_per_line_judge(specs, ends_whole):
    """ResultCache's one-pass load serves what judging line by line serves,
    the later line winning, or raises the same error for the same first
    damaged line, and warns about the same torn tail."""
    from emcurve.cache import _judge

    lines = []
    for key, n, how, tagged, at in specs:
        # tagged picks the line a damage starts from.
        line = _cache_line(key, {"m": n, "f": [[str(n + 7), 1]]},
                           how in ("tagged", "overlong-crc") or tagged and how != "crcless")
        lines.append(b"" if how == "blank" else line if how in ("tagged", "crcless")
                     else _damage(line, how, at))
    raw = b"\n".join(lines) + b"\n" * ends_whole
    *inner, last = raw.split(b"\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.jsonl")
        Path(path).write_bytes(raw)
        try:
            expected = dict(filter(None, map(_judge, inner)))
        except ValueError as e:
            with pytest.raises(ValueError) as exc:
                _load_cache(path)
            assert str(exc.value) == f"cache {path}: {e}"
            return
        try:
            expected.update(filter(None, [_judge(last)]))
            warning = ""
        except ValueError:
            warning = f"warning: skipping torn last line of cache {path}\n"
        cache, err = _load_cache(path)
    assert err == warning
    assert cache._data == expected
    # The snapshot is keyed by each line's bytes from kind to key; a key
    # whose every line was blank or torn off is a miss.
    slots = {b'analysis", "key": "%s' % key.encode(): key for key, *_ in specs}
    assert set(expected) <= set(slots)
    for slot, key in slots.items():
        value = expected.get(slot)
        assert cache.get("analysis", key) == (json.loads(value) if type(value) is bytes
                                               else value)


def test_cache_line_without_crc_holding_no_json_names_itself(tmp_path):
    # _damage makes no such line: the regex matches it, the decode fails.
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b"\n".join([_cache_line("2:k", {"m": 2}, True),
                                 _cache_line("3:k", {"m": 3}, False).replace(b"3}}", b"3}x}"),
                                 _cache_line("4:k", {"m": 4}, True), b""]))
    with pytest.raises(ValueError, match=f"^cache {re.escape(str(path))}: "
                                         "cache line holds a value that is not JSON"):
        ResultCache(str(path))


def test_cache_torn_last_line_is_skipped(tmp_path, capsys):
    cache_file = tmp_path / "cache.jsonl"
    rc, cold, _ = run_cli(capsys, "analyze", "--m", "6", "--json",
                          "--cache-path", str(cache_file))
    assert rc == 0
    whole = cache_file.read_bytes()
    with open(cache_file, "ab") as fh:  # an append cut off mid-line
        fh.write(b'{"kind": "factorization", "key": "17", "val')
    rc, out, err = run_cli(capsys, "analyze", "--m", "6", "--json",
                           "--cache-path", str(cache_file))
    assert rc == 0 and out == cold
    assert err.count("warning: skipping torn last line") == 1
    # The next append replaces the torn tail instead of running on from it.
    rc, _, err = run_cli(capsys, "analyze", "--m", "12", "--json",
                         "--cache-path", str(cache_file))
    assert rc == 0 and err.count("warning") == 1
    data = cache_file.read_bytes()
    assert data.startswith(whole) and data.endswith(b"\n")
    rc, out, err = run_cli(capsys, "analyze", "--m", "6", "--json",
                           "--cache-path", str(cache_file))
    assert rc == 0 and out == cold and err == ""


def test_cache_malformed_inner_line_raises(tmp_path, capsys):
    cache_file = tmp_path / "cache.jsonl"
    rc, _, _ = run_cli(capsys, "analyze", "--m", "6", "--json",
                       "--cache-path", str(cache_file))
    assert rc == 0
    lines = cache_file.read_bytes().split(b"\n")
    lines[1] = lines[1][:20]
    cache_file.write_bytes(b"\n".join(lines))
    rc, out, err = run_cli(capsys, "analyze", "--m", "6", "--json",
                           "--cache-path", str(cache_file))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "warning" not in err


_M6_RECORD_KEY = f"6:{EngineConfig().record_key}"


@pytest.mark.parametrize("argv, kind, key, value", [
    (["analyze", "--m", "6"], "analysis", _M6_RECORD_KEY, [1, 2]),
    (["analyze", "--m", "6"], "analysis", _M6_RECORD_KEY, {"m": 6}),
    (["selmer", "--m", "6"], "factorization", "1151", 5),
    (["selmer", "--m", "6"], "factorization", "1151", [["7", 1]]),
    (["selmer", "--m", "6"], "factorization", "1151", [["1151", "one"]]),
    (["analyze", "--m", "6"], "factorization", "1151", [["1151", 1, 0]]),
    (["scan", "--from", "6", "--to", "6"], "factorization", "1295", [["1295", 1]] * 2),
], ids=["record-list", "record-fields", "factors-int", "factors-product",
        "factors-exponent", "factors-pair", "scan-factors-product"])
def test_cached_value_of_wrong_shape_exits_2(tmp_path, capsys, argv, kind, key, value):
    # Well-formed lines whose values are not what their kind holds: 1151 is
    # Q and 1295 is A at m = 6, so 7 is not a factorization of the first
    # and 1295^2 not one of the second.  Neither is served.
    cache_file = tmp_path / "cache.jsonl"
    cache_file.write_text(json.dumps({"kind": kind, "key": key, "value": value}) + "\n")
    rc, out, err = run_cli(capsys, *argv, "--cache-path", str(cache_file))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: cache {cache_file}: ")
    assert f"at key {key} " in err and err.count("\n") == 1


_SIX = b'{"kind": "factorization", "key": "6", "value": [["2", 1], ["3", 1]]}'
# A tagged line whose crc field is the given digits; a CRC-32 prints in at
# most ten.
_OVERLONG_CRC = b'{"kind": "factorization", "key": "6", "crc": %s, "value": []}'


@pytest.mark.parametrize("line", [
    b'{"kind": "x"}', b"[1, 2]", b'{"kind": ["x"], "key": "1", "value": 1}',
    pytest.param("\ufeff".encode() + _SIX, id="bom"),
    pytest.param(b" " + _SIX, id="leading-space"),
    pytest.param(b" \t", id="whitespace"),
    pytest.param(b'{"kind": "factorization", "key": "6", "value": [["2", 1],}',
                 id="crcless-value-not-json"),
    pytest.param(_OVERLONG_CRC % (b"%011d" % binascii.crc32(b"[]")),
                 id="crc-of-11-digits"),
    pytest.param(_OVERLONG_CRC % (b"9" * 5000), id="crc-of-5000-digits")])
def test_cache_line_of_wrong_shape_is_malformed(tmp_path, capsys, line):
    # Lines the cache never writes, JSON or not: an error inside the file,
    # a torn line at its end.
    cache_file = tmp_path / "cache.jsonl"
    rc, cold, _ = run_cli(capsys, "analyze", "--m", "6", "--json",
                          "--cache-path", str(cache_file))
    assert rc == 0
    whole = cache_file.read_bytes()
    cache_file.write_bytes(line + b"\n" + whole)
    rc, out, err = run_cli(capsys, "analyze", "--m", "6", "--json",
                           "--cache-path", str(cache_file))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    cache_file.write_bytes(whole + line)
    rc, out, err = run_cli(capsys, "analyze", "--m", "6", "--json",
                           "--cache-path", str(cache_file))
    assert rc == 0 and out == cold
    assert err.count("warning: skipping torn last line") == 1
    rc, _, err = run_cli(capsys, "analyze", "--m", "12", "--json",
                         "--cache-path", str(cache_file))
    assert rc == 0
    data = cache_file.read_bytes()
    assert data.startswith(whole + b'{"kind": ') and data.endswith(b"\n")
    assert line not in data


def test_cache_overlong_crc_names_its_line(tmp_path, capsys):
    # int() would refuse 5000 digits with a message that names no line.
    line = _OVERLONG_CRC % (b"9" * 5000)
    cache_file = tmp_path / "cache.jsonl"
    cache_file.write_bytes(line + b"\n" + _SIX + b"\n")
    rc, out, err = run_cli(capsys, "selmer", "--m", "6", "--cache-path", str(cache_file))
    assert (rc, out) == (2, "")
    assert err == (f"error: cache {cache_file}: cache line is not one the cache "
                   f"writes: {line[:80]!r}\n")


@pytest.mark.parametrize("line", [
    b'{"kind": "factorization", "key": "6", "value": []} 2',
    b'{"kind": "factorization", "key": "6", "value": []}{}',
    b'\f{"kind": "factorization", "key": "6", "value": []}'])
def test_cache_line_with_more_than_one_value_is_malformed(tmp_path, line):
    # One JSON object per line, with nothing around it.
    whole = b'{"kind": "factorization", "key": "10", "value": [["2", 1], ["5", 1]]}\n'
    cache_file = tmp_path / "cache.jsonl"
    cache_file.write_bytes(line + b"\n" + whole)
    with pytest.raises(ValueError, match="cache line (is not one the cache writes"
                                         "|holds a value that is not JSON)"):
        ResultCache(str(cache_file))
    cache_file.write_bytes(whole + line)
    cache, err = _load_cache(str(cache_file))
    assert err == f"warning: skipping torn last line of cache {cache_file}\n"
    assert cache.get_factorization(10) == [(2, 1), (5, 1)]
    assert cache.get_factorization(6) is None
    # The writer cuts off the same tail that the reader skipped.
    cache.put_factorization(14, [(2, 1), (7, 1)])
    # Its line is tagged with the crc32 of the value's bytes.
    assert cache_file.read_bytes() == (
        whole + b'{"kind": "factorization", "key": "14", "crc": 1975649954, '
        + b'"value": [["2", 1], ["7", 1]]}\n')


def test_cache_unterminated_whole_last_line_is_kept(tmp_path):
    cache_file = tmp_path / "cache.jsonl"
    cache_file.write_bytes(b'{"kind": "factorization", "key": "6", '
                           b'"value": [["2", 1], ["3", 1]]}')
    cache = ResultCache(str(cache_file))
    assert cache.get_factorization(6) == [(2, 1), (3, 1)]
    cache.put_factorization(10, [(2, 1), (5, 1)])
    reloaded = ResultCache(str(cache_file))
    assert reloaded.get_factorization(6) == [(2, 1), (3, 1)]
    assert reloaded.get_factorization(10) == [(2, 1), (5, 1)]


@pytest.mark.parametrize("ending, message", [
    (b"", "fails its checksum"),
    (b" ", "is not one the cache writes"),
    (b"\r", "is not one the cache writes"),
], ids=["bare", "space", "cr"])
def test_cache_tagged_line_failing_its_checksum_is_damaged(tmp_path, capsys,
                                                           ending, message):
    # One digit of a tagged value changed: the line still parses as JSON,
    # but its crc no longer matches, so it is damaged like a torn line.
    # JSON whitespace after the object does not take it past the checksum.
    cache_file = tmp_path / "cache.jsonl"
    writer = ResultCache(str(cache_file))
    for n, p in ((6, 3), (10, 5), (14, 7)):
        writer.put_factorization(n, [(2, 1), (p, 1)])
    six, ten, fourteen = cache_file.read_bytes().splitlines(keepends=True)
    assert ten.endswith(b'"value": [["2", 1], ["5", 1]]}\n')
    damaged = ten[:-1].replace(b'["5", 1]', b'["5", 3]') + ending + b"\n"
    json.loads(damaged)
    cache_file.write_bytes(six + damaged + fourteen)
    with pytest.raises(ValueError, match=f"^cache {re.escape(str(cache_file))}: "
                                         f"cache line {message}"):
        ResultCache(str(cache_file))
    rc, out, err = run_cli(capsys, "analyze", "--m", "6", "--json",
                           "--cache-path", str(cache_file))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: cache {cache_file}: ") and "warning" not in err
    # As the last line, where an interrupted append leaves one, it is skipped
    # and the next append cuts it off.
    cache_file.write_bytes(six + fourteen + damaged.rstrip(b"\n"))
    cache, err = _load_cache(str(cache_file))
    assert err == f"warning: skipping torn last line of cache {cache_file}\n"
    assert cache.get_factorization(6) == [(2, 1), (3, 1)]
    assert cache.get_factorization(14) == [(2, 1), (7, 1)]
    assert cache.get_factorization(10) is None
    cache.put_factorization(22, [(2, 1), (11, 1)])
    data = cache_file.read_bytes()
    assert data.startswith(six + fourteen + b'{"kind": "factorization", "key": "22", ')
    assert data.count(b"\n") == 3 and damaged.rstrip(b"\n") not in data
    reloaded, err = _load_cache(str(cache_file))
    assert err == "" and reloaded.get_factorization(22) == [(2, 1), (11, 1)]


def test_cache_tagged_value_that_is_not_json_exits_2(tmp_path, capsys):
    # Only a hand-written line has a checksum that matches a value which is
    # not JSON; loading keeps it, and reading it fails, naming the file.
    value = b'{"m": 6,'
    cache_file = tmp_path / "cache.jsonl"
    cache_file.write_bytes(b'{"kind": "analysis", "key": "%s", "crc": %d, "value": %s}\n'
                           % (_M6_RECORD_KEY.encode(), binascii.crc32(value), value))
    rc, out, err = run_cli(capsys, "analyze", "--m", "6", "--json",
                           "--cache-path", str(cache_file))
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: cache {cache_file}: the value at key "
                          f"{_M6_RECORD_KEY} is not JSON: ")


def test_cache_serves_untagged_and_tagged_lines(tmp_path):
    # Lines without a crc, as earlier versions wrote them, mixed with tagged
    # ones: both are served, the later line wins in either order, and new
    # appends are tagged.
    def untagged(m, value):
        obj = {"kind": "analysis", "key": f"{m}:k", "value": value}
        return json.dumps(obj).encode() + b"\n"

    cache_file = tmp_path / "cache.jsonl"
    writer = ResultCache(str(cache_file))
    writer.put_analysis(6, "k", {"line": 1})
    with open(cache_file, "ab") as fh:
        fh.write(untagged(6, {"line": 2}) + untagged(10, {"line": 3})
                 + untagged(12, {"line": 4}))
    writer.put_analysis(10, "k", {"line": 5})
    cache = ResultCache(str(cache_file))
    assert cache.get_analysis(6, "k") == {"line": 2}  # untagged after tagged
    assert cache.get_analysis(10, "k") == {"line": 5}  # tagged after untagged
    assert cache.get_analysis(12, "k") == {"line": 4}
    cache.put_analysis(14, "k", {"line": 6})
    lines = cache_file.read_bytes().splitlines()
    assert ["crc" in json.loads(line) for line in lines] == [
        True, False, False, False, True, True]
    assert lines[-1] == b'{"kind": "analysis", "key": "14:k", "crc": %d, ' \
        b'"value": {"line": 6}}' % binascii.crc32(b'{"line": 6}')
    assert ResultCache(str(cache_file)).get_analysis(14, "k") == {"line": 6}


def test_cache_decodes_only_what_it_serves(tmp_path, capsys, monkeypatch):
    import emcurve.cache as cache_mod

    cache_file = tmp_path / "cache.jsonl"
    rc, cold, _ = run_cli(capsys, "scan", "--from", "2", "--to", "31", "--json",
                          "--cache-path", str(cache_file))
    assert rc == 0
    lines = cache_file.read_bytes().splitlines()
    assert len(lines) > 10 and all(b'"crc": ' in line for line in lines)
    decoded = []

    def counting_decode(raw):
        value = decode(raw)
        decoded.append(value)
        return value

    decode = cache_mod._decode
    monkeypatch.setattr(cache_mod, "_decode", counting_decode)
    ResultCache(str(cache_file))
    assert decoded == []  # loading decodes none of the values
    rc, warm, _ = run_cli(capsys, "analyze", "--m", "6", "--json",
                          "--cache-path", str(cache_file))
    assert rc == 0 and warm in cold.splitlines(keepends=True)
    assert len(decoded) == 1 and decoded[0]["m"] == 6


def test_cache_of_tagged_lines_is_judged_in_one_pass(tmp_path, capsys, monkeypatch):
    # Loading a clean tagged cache runs no Python code per line: _judge
    # sees the tail alone.
    import emcurve.cache as cache_mod

    cache_file = tmp_path / "cache.jsonl"
    rc, cold, _ = run_cli(capsys, "scan", "--from", "2", "--to", "31", "--json",
                          "--cache-path", str(cache_file))
    assert rc == 0
    judged = []

    def counting_judge(line):
        judged.append(line)
        return judge(line)

    judge = cache_mod._judge
    monkeypatch.setattr(cache_mod, "_judge", counting_judge)
    rc, warm, _ = run_cli(capsys, "analyze", "--m", "6", "--json",
                          "--cache-path", str(cache_file))
    assert rc == 0 and warm in cold.splitlines(keepends=True)
    assert judged == [b""]
    # So does one with a line written before the crc, first or later, or
    # with a blank line.
    lines = cache_file.read_bytes().split(b"\n")

    def crcless(line):
        obj = json.loads(line)
        return json.dumps({k: obj[k] for k in ("kind", "key", "value")}).encode()

    for mixed in ([*lines[:3], crcless(lines[3]), *lines[4:]],
                  [*lines[:3], b"", *lines[3:]],
                  [crcless(lines[0]), *lines[1:]]):
        cache_file.write_bytes(b"\n".join(mixed))
        judged.clear()
        rc, warm, _ = run_cli(capsys, "analyze", "--m", "6", "--json",
                              "--cache-path", str(cache_file))
        assert rc == 0 and warm in cold.splitlines(keepends=True)
        assert judged == [b""]


TORN =b'{"kind": "factorization", "key": "17", "val'


def test_cache_repair_keeps_records_of_other_writers(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    ResultCache(str(path)).put_factorization(6, [(2, 1), (3, 1)])
    with open(path, "ab") as fh:
        fh.write(TORN)
    a, b = ResultCache(str(path)), ResultCache(str(path))
    b.put_factorization(21, [(3, 1), (7, 1)])
    a.put_factorization(33, [(3, 1), (11, 1)])
    assert capsys.readouterr().err.count("warning") == 2
    reloaded = ResultCache(str(path))
    assert capsys.readouterr().err == ""
    assert [reloaded.get_factorization(n) for n in (6, 21, 33)] == [
        [(2, 1), (3, 1)], [(3, 1), (7, 1)], [(3, 1), (11, 1)]]


def test_cache_writer_loaded_before_a_tear_starts_a_line(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    ResultCache(str(path)).put_factorization(6, [(2, 1), (3, 1)])
    early = ResultCache(str(path))
    with open(path, "ab") as fh:
        fh.write(TORN)
    early.put_factorization(33, [(3, 1), (11, 1)])
    reloaded = ResultCache(str(path))
    assert capsys.readouterr().err == ""
    assert reloaded.get_factorization(6) == [(2, 1), (3, 1)]
    assert reloaded.get_factorization(33) == [(3, 1), (11, 1)]


def test_cache_repair_reads_back_past_long_tails(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    ResultCache(str(path)).put_factorization(6, [(2, 1), (3, 1)])
    long_factors = [["2", 1]] * 1000  # a 10 kB line, a factorization of 2^1000
    whole = json.dumps({"kind": "factorization", "key": str(2**1000),
                        "value": long_factors})
    with open(path, "ab") as fh:
        fh.write(whole.encode())
    ResultCache(str(path)).put_factorization(10, [(2, 1), (5, 1)])
    with open(path, "ab") as fh:
        fh.write(whole[:9000].encode())
    ResultCache(str(path)).put_factorization(14, [(2, 1), (7, 1)])
    reloaded = ResultCache(str(path))
    assert capsys.readouterr().err.count("warning") == 1
    assert [len(reloaded.get_factorization(n)) for n in (6, 2**1000, 10, 14)] == [
        2, len(long_factors), 2, 2]


def _cli_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(emcurve.__file__).resolve().parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))


_SRC = str(Path(emcurve.__file__).resolve().parents[1])
# An isolated (-I) child with the checkout's src/ first: it runs argv[2],
# then prints the names in sys.modules, space-separated, as its last line.
_MODULES_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); exec(sys.argv[2]); "
                  "print(' '.join(sorted(sys.modules)))")
ENGINE_MODULES = {f"emcurve.{name}" for name in (
    "numtheory", "family", "curve", "heights", "localsolve", "descent", "analysis")}


def _fresh_modules(code):
    """The modules a fresh isolated interpreter has loaded after running
    code, and what code printed before them."""
    proc = subprocess.run([sys.executable, "-I", "-c", _MODULES_CHILD, _SRC, code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *printed, names = proc.stdout.splitlines()
    return "\n".join(printed), set(names.split())


def test_warm_hit_loads_no_engine(tmp_path, capsys):
    # A site .pth file may preload modules (typing, re, random, ...), so each
    # child is compared with a bare one, not with a fixed list.
    warm = str(tmp_path / "warm.jsonl")
    rc, cold, _ = run_cli(capsys, "analyze", "--m", "6", "--json", "--cache-path", warm)
    assert rc == 0
    _, bare = _fresh_modules("pass")
    _, imported = _fresh_modules("import emcurve.cli")
    out, served = _fresh_modules(
        "from emcurve.cli import main; "
        f"assert main(['analyze', '--m', '6', '--json', '--cache-path', {warm!r}]) == 0")
    assert out == cold.rstrip("\n")
    for loaded in (imported - bare, served - bare):
        assert {"emcurve.cli", "emcurve.cache"} <= loaded
        assert loaded & (ENGINE_MODULES | {"dataclasses", "csv"}) == set()


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    ("analyze --m 8 --no-cache", 2, "",
     "error: m = 8 is not admissible: m-1, m+1 not twin primes\n"),
    ("analyze --m 600 --no-cache", 2, "",
     "error: m^4-1+4m^2 = 129601439999 is not squarefree for m=600\n"),
    ("heights --m 12 --tol 1e-9 --no-cache", 3, "",
     "error: height iteration hit the bit cap at N=7 with error bound 1.59e-07\n"),
    ("analyze --m 10008 --rho-budget 1 --no-cache", 3, "",
     "error: factorization budget exhausted on cofactor 14149559971571 of "
     "10032038019843839\n"),
    ("scan --from 600 --to 600 --json --no-cache", 0, "",
     "m = 600: failed (m^4-1+4m^2 = 129601439999 is not squarefree for m=600)\n"),
])
def test_exit_codes_in_a_fresh_interpreter(argv, code, stdout, stderr):
    # In-process tests run after others have loaded the engine, so only a
    # fresh interpreter shows that main maps the engine's errors when cli
    # itself has imported none of them.
    proc = subprocess.run(
        [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, sys.argv.pop(1)); "
         "from emcurve.cli import main; sys.exit(main(sys.argv[1:]))", _SRC,
         *argv.split()], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)


def test_a_closed_stdout_ends_the_command_quietly():
    # A reader that stops after one line, as head -1 does: the next write
    # meets a closed pipe, and the command still exits 0 with an empty
    # stderr.  The range leaves out m = 600, which writes its failed line
    # there.
    proc = subprocess.Popen(
        [sys.executable, "-m", "emcurve.cli", "scan", "--from", "601", "--to", "2000",
         "--json", "--no-cache"],
        env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert json.loads(proc.stdout.readline())["m"] == 642
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")


def test_cache_concurrent_processes_append_whole_lines(tmp_path):
    # Three writers of 200 appends each, more than a two-core box runs at once.
    path = tmp_path / "cache.jsonl"
    script = (
        "import sys\n"
        "from emcurve.cache import ResultCache\n"
        "cache = ResultCache(sys.argv[1])\n"
        "for n in range(int(sys.argv[2]), int(sys.argv[2]) + 200):\n"
        "    cache.put_factorization(n, [(n, 1)])\n"
    )
    env = _cli_env()
    procs = [subprocess.Popen([sys.executable, "-c", script, str(path), str(start)],
                              env=env)
             for start in (1000, 2000, 3000)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0, 0]
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b"" and len(lines) == 601
    assert all(json.loads(line)["kind"] == "factorization" for line in lines[:-1])
    reloaded = ResultCache(str(path))
    for n in [*range(1000, 1200), *range(2000, 2200), *range(3000, 3200)]:
        assert reloaded.get_factorization(n) == [(n, 1)]


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_analyze_tol_not_finite_exits_2(tol):
    # In a subprocess with a timeout: a nan tol once looped forever.
    proc = subprocess.run(
        [sys.executable, "-m", "emcurve.cli", "analyze", "--m", "6", "--json",
         "--no-cache", "--tol", tol],
        env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: tol must be finite and positive\n"


def test_bad_tol_exits_2_before_the_curve_is_built(tmp_path, capsys):
    # With one rho step the curve cannot be built, so this exits 2 only if
    # --tol is checked first, and the cache is never opened.
    cache_file = tmp_path / "cache.jsonl"
    rc, out, err = run_cli(capsys, "heights", "--m", "10000000278", "--tol", "0",
                           "--rho-budget", "1", "--json", "--cache-path", str(cache_file))
    assert (rc, out, err) == (2, "", "error: tol must be finite and positive\n")
    assert not cache_file.exists()


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unusable_cache_path_exits_2(tmp_path, capsys, where):
    path = tmp_path if where == "directory" else tmp_path / "no" / "c.jsonl"
    rc, _, err = run_cli(capsys, "analyze", "--m", "6", "--json",
                         "--cache-path", str(path))
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("via", ["flag", "env"])
def test_empty_cache_path_exits_2(tmp_path, capsys, monkeypatch, via):
    # An empty path is unusable, not a request for the default one.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EM_CACHE_PATH", raising=False)
    argv = ["torsion", "--m", "6"]
    if via == "flag":
        argv += ["--cache-path", ""]
    else:
        monkeypatch.setenv("EM_CACHE_PATH", "")
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: ''\n"
    assert list(tmp_path.iterdir()) == []


def test_cache_round_trip_and_determinism(tmp_path, capsys):
    cache_file = tmp_path / "cache.jsonl"
    rc, cold, _ = run_cli(capsys, "analyze", "--m", "6", "--json",
                          "--cache-path", str(cache_file))
    assert rc == 0
    rc, warm, _ = run_cli(capsys, "analyze", "--m", "6", "--json",
                          "--cache-path", str(cache_file))
    assert rc == 0
    assert warm == cold  # served from cache, byte-identical
    rc, nocache, _ = run_cli(capsys, "analyze", "--m", "6", "--json", "--no-cache")
    a, b = json.loads(warm), json.loads(nocache)
    a.pop("timings"), b.pop("timings")
    assert a == b  # identical up to wall-clock timings


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache_file = tmp_path / "envcache.jsonl"
    monkeypatch.setenv("EM_CACHE_PATH", str(cache_file))
    rc, _, _ = run_cli(capsys, "analyze", "--m", "6")
    assert rc == 0
    assert cache_file.exists()
    cache = ResultCache(str(cache_file))
    assert cache.get_analysis(6, EngineConfig().record_key) is not None
    # Factorizations were cached under their integer keys.
    assert cache.get_factorization(6**4 - 1) == list(factorize(6**4 - 1).factors)


def test_factorization_cache_used(tmp_path):
    cache = ResultCache(str(tmp_path / "f.jsonl"))
    f1 = factorize(3111695, cache=cache)
    # Poison the cache to prove the second call reads it.
    cache.put_factorization(3111695, [(3111695, 1)])
    f2 = factorize(3111695, cache=cache)
    assert f2.factors == ((3111695, 1),)
    assert f1.factors == ((5, 1), (41, 1), (43, 1), (353, 1))


def test_cache_file_removed_before_it_opens_loads_empty(tmp_path, monkeypatch):
    # Another process may remove the file just before the cache opens it:
    # the snapshot is then empty.  Any other error opening it still raises.
    import emcurve.cache as cache_mod

    cache_file = tmp_path / "cache.jsonl"
    ResultCache(str(cache_file)).put_factorization(6, [(2, 1), (3, 1)])

    def fail_with(error):
        def fail(*args, **kwargs):
            raise error(str(cache_file))
        return fail

    monkeypatch.setattr(cache_mod, "open", fail_with(FileNotFoundError), raising=False)
    cache = ResultCache(str(cache_file))
    assert cache._data == {} and cache.get_factorization(6) is None
    monkeypatch.setattr(cache_mod, "open", fail_with(PermissionError))
    with pytest.raises(PermissionError):
        ResultCache(str(cache_file))


@pytest.mark.parametrize("kind, key", [
    ("factorization", "6"),
    ("factorization", str(10**39 + 7)),  # 40 digits
    *[("analysis", f"6:{EngineConfig(tol=tol).record_key}") for tol in (1e-3, 1e-9, 0.25)],
])
def test_cache_writes_each_key_as_json_dumps_prints_it(tmp_path, kind, key):
    # The keys the CLI writes: a line is the bytes json.dumps gives, and a
    # fresh cache serves its value under the same (kind, key).
    value = [["7", 1]] if kind == "factorization" else {"m": 6, "s2": 4}
    path = str(tmp_path / "cache.jsonl")
    ResultCache(path)._put(kind, key, value)
    text = json.dumps(value)
    line = (f'{{"kind": {json.dumps(kind)}, "key": {json.dumps(key)}, '
            f'"crc": {binascii.crc32(text.encode())}, "value": {text}}}\n')
    assert Path(path).read_bytes() == line.encode("ascii")
    assert ResultCache(path).get(kind, key) == value


def test_table1_json(capsys):
    rc, out, _ = run_cli(capsys, "table1", "--json", "--no-cache")
    assert rc == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert {r["m"]: r["s2"] for r in rows} == {6: 4, 12: 3, 30: 3, 42: 4, 60: 4, 462: 5}
    assert all(r["s2_match"] and r["rank_consistent"] for r in rows)


def test_table1_mismatch_exit_code(capsys, monkeypatch):
    import emcurve.cli as cli_mod
    monkeypatch.setattr(cli_mod, "REFERENCE_ROWS",
                        {6: {"s2": 99, "rank_exact": 2}})
    rc, out, _ = run_cli(capsys, "table1", "--no-cache")
    assert rc == 1
    assert "FAIL" in out


def test_analyze_refuses_non_squarefree_r(capsys):
    # m = 600 is admissible but 600^4-1+4*600^2 has a square factor, which
    # the exclusion lemmas need to rule out; the pipeline refuses loudly.
    rc, _, err = run_cli(capsys, "analyze", "--m", "600", "--no-cache")
    assert rc == 2
    assert "not squarefree" in err


def test_scan_reports_refusals_inline_and_continues(capsys):
    rc, out, err = run_cli(capsys, "scan", "--from", "595", "--to", "610",
                           "--json", "--no-cache")
    assert rc == 0
    assert "m = 600: failed" in err
    assert out.strip() == ""  # 600 is the only admissible value in range


def test_scan_jobs_matches_serial(capsys):
    rc, serial, _ = run_cli(capsys, "scan", "--from", "2", "--to", "31", "--json",
                            "--no-cache")
    assert rc == 0
    rc, parallel, _ = run_cli(capsys, "scan", "--from", "2", "--to", "31", "--json",
                              "--no-cache", "--jobs", "2")
    assert rc == 0
    strip = lambda text: [
        {k: v for k, v in json.loads(line).items() if k != "timings"}
        for line in text.splitlines()
    ]
    assert strip(serial) == strip(parallel)


def test_scan_jobs_caches_the_same_factorizations(tmp_path, capsys):
    def entries(path):
        """(kind, key) -> value as the cache serves it, timings left out,
        and the line count."""
        cache = ResultCache(str(path))
        lines = path.read_text().splitlines()
        data = {}
        for line in lines:
            obj = json.loads(line)
            key = obj["kind"], obj["key"]
            value = data[key] = cache.get(*key)
            if isinstance(value, dict):
                value.pop("timings")
        return data, len(lines)

    serial, parallel = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
    argv = ("scan", "--from", "2", "--to", "100", "--json")
    rc, serial_out, _ = run_cli(capsys, *argv, "--cache-path", str(serial))
    assert rc == 0
    rc, parallel_out, _ = run_cli(capsys, *argv, "--cache-path", str(parallel),
                                  "--jobs", "2")
    assert rc == 0 and strip_timings(parallel_out) == strip_timings(serial_out)
    # The workers append the same factorizations and records, each once.
    data, lines = entries(parallel)
    assert (data, lines) == entries(serial)
    assert lines == len(data)
    assert {kind for kind, _ in data} == {"factorization", "analysis"}
    assert sum(kind == "analysis" for kind, _ in data) == 7  # 4, 6, ..., 72


def test_cache_keeps_analyses_apart_by_tol(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    rc, coarse, _ = run_cli(capsys, "analyze", "--m", "6", "--json", "--tol", "0.5",
                            "--cache-path", path)
    assert rc == 0 and json.loads(coarse)["heights_tol"] == 0.5
    rc, default, _ = run_cli(capsys, "analyze", "--m", "6", "--json",
                             "--cache-path", path)
    assert rc == 0 and json.loads(default)["heights_tol"] == 1e-3
    # Both records stay cached; seed and rho budget never change a record,
    # so a run that differs only in those is served the same entry.
    rc, again, _ = run_cli(capsys, "analyze", "--m", "6", "--json", "--tol", "0.5",
                           "--seed", "3", "--rho-budget", "1000000",
                           "--cache-path", path)
    assert rc == 0 and again == coarse


def strip_timings(text):
    return [{k: v for k, v in json.loads(line).items() if k != "timings"}
            for line in text.splitlines()]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_matches_golden_analyze_records(capsys, jobs):
    rc, out, _ = run_cli(capsys, "scan", "--from", "2", "--to", "300", "--json",
                         "--no-cache", "--jobs", jobs)
    assert rc == 0
    records = strip_timings(out)
    assert [r["m"] for r in records] == GOLDEN["replay_ms"]
    assert records == [GOLDEN["analyze"][str(r["m"])] for r in records]


def test_scan_to_2000_matches_pinned_records(capsys):
    # Every admissible m <= 2000, captured before the symbol conditions were
    # solved as an F2 system and the witness roots lifted without inverses.
    rc, out, err = run_cli(capsys, "scan", "--from", "2", "--to", "2000", "--json",
                           "--no-cache")
    assert rc == 0
    pinned = (DATA / "scan2000.jsonl").read_text().splitlines()
    assert strip_timings(out) == [json.loads(line) for line in pinned]
    assert err == ("m = 600: failed (m^4-1+4m^2 = 129601439999 is not squarefree "
                   "for m=600)\n")


@pytest.mark.parametrize("m", [10008, 100152, 1000038])
def test_heights_and_torsion_match_golden(capsys, m):
    rc, out, _ = run_cli(capsys, "heights", "--m", str(m), "--json", "--no-cache")
    assert rc == 0 and json.loads(out) == GOLDEN["heights"][str(m)]
    rc, out, _ = run_cli(capsys, "torsion", "--m", str(m), "--json", "--no-cache")
    assert rc == 0 and out.strip() == GOLDEN["torsion"][str(m)]


def test_warm_scan_opens_the_cache_once(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "cache.jsonl")
    rc, cold, _ = run_cli(capsys, "scan", "--from", "2", "--to", "300", "--json",
                          "--cache-path", path)
    assert rc == 0
    opened = []
    real_init = ResultCache.__init__

    def counting_init(self, cache_path):
        opened.append(cache_path)
        real_init(self, cache_path)

    monkeypatch.setattr(ResultCache, "__init__", counting_init)
    rc, warm, _ = run_cli(capsys, "scan", "--from", "2", "--to", "300", "--json",
                          "--cache-path", path)
    assert rc == 0 and warm == cold
    assert opened == [path]


def test_a_computed_record_goes_out_in_one_locked_append(tmp_path, capsys, monkeypatch):
    # analyze --m 6 on a fresh cache appends the factorizations it made, of
    # m^2+1, A, Q and R, then the record, in that order, under one lock.
    import emcurve.cache as cache_mod

    locks = []
    real_flock = cache_mod.fcntl.flock

    def counting_flock(fd, op):
        locks.append(op)
        real_flock(fd, op)

    monkeypatch.setattr(cache_mod.fcntl, "flock", counting_flock)
    path = tmp_path / "cache.jsonl"
    rc, out, _ = run_cli(capsys, "analyze", "--m", "6", "--json", "--cache-path", str(path))
    assert rc == 0 and locks == [cache_mod.fcntl.LOCK_EX]
    lines = [json.loads(line) for line in path.read_bytes().splitlines()]
    assert [(obj["kind"], obj["key"]) for obj in lines] == [
        ("factorization", "37"), ("factorization", "1295"),
        ("factorization", "1151"), ("factorization", "1439"),
        ("analysis", _M6_RECORD_KEY)]
    assert json.dumps(lines[-1]["value"], sort_keys=True) + "\n" == out


def test_a_failed_command_still_caches_its_factorizations(tmp_path, capsys):
    # heights --m 12 at --tol 1e-9 exits 3 at the bit cap, after the curve is
    # built: its four factorizations are in the file, and a second run, served
    # from them, appends nothing.
    path = tmp_path / "cap.jsonl"
    argv = ("heights", "--m", "12", "--tol", "1e-9", "--cache-path", str(path))
    rc, out, _ = run_cli(capsys, *argv)
    assert (rc, out) == (3, "")
    before = path.read_bytes()
    assert [json.loads(line)["key"] for line in before.splitlines()] == [
        "145", "20735", "20159", "21311"]
    rc, out, _ = run_cli(capsys, *argv)
    assert (rc, out) == (3, "") and path.read_bytes() == before


def test_warm_scan_jobs_appends_nothing(tmp_path, capsys):
    # Each worker appends each of its records with its factorizations; the
    # warm scan is served all of them and writes nothing.
    path = tmp_path / "cache.jsonl"
    argv = ("scan", "--from", "2", "--to", "300", "--json", "--cache-path", str(path),
            "--jobs", "2")
    rc, cold, _ = run_cli(capsys, *argv)
    assert rc == 0
    before = path.read_bytes()
    keys = [(obj["kind"], obj["key"]) for obj in map(json.loads, before.splitlines())]
    assert len(keys) == len(set(keys)) == 85
    rc, warm, _ = run_cli(capsys, *argv)
    assert rc == 0 and warm == cold and path.read_bytes() == before


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_torn_last_line_warns_once_per_command(tmp_path, capfd, jobs):
    # capfd, not capsys: it also sees what --jobs workers print.
    path = tmp_path / "cache.jsonl"
    flags = ("--json", "--cache-path", str(path), "--jobs", jobs)
    rc, cold, _ = run_cli(capfd, "table1", *flags)
    assert rc == 0
    with open(path, "ab") as fh:  # an append cut off mid-line
        fh.write(b'{"kind": "analysis", "key": "4:1')
    rc, out, err = run_cli(capfd, "table1", *flags)
    assert rc == 0 and out == cold
    assert err.count("warning: skipping torn last line") == 1
    # m = 4 and 72 are not in the table, so this scan appends them (from two
    # workers with --jobs 2) and repairs the tail.
    rc, _, err = run_cli(capfd, "scan", "--from", "2", "--to", "80", *flags)
    assert rc == 0 and err.count("warning: skipping torn last line") == 1
    rc, _, err = run_cli(capfd, "scan", "--from", "2", "--to", "80", *flags)
    assert rc == 0 and err == ""


def test_warm_scan_jobs_starts_no_pool(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    pools = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def counting_pool(*a, **kw):
        pools.append(kw["max_workers"])
        return real_pool(*a, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
    argv = ("scan", "--from", "2", "--to", "100", "--json",
            "--cache-path", str(tmp_path / "cache.jsonl"), "--jobs", "2")
    rc, cold, _ = run_cli(capsys, *argv)
    assert rc == 0 and pools == [2]
    rc, warm, _ = run_cli(capsys, *argv)
    assert rc == 0 and warm == cold and pools == [2]


def test_scan_jobs_starts_no_more_workers_than_misses(capsys, monkeypatch):
    # Under fork a ProcessPoolExecutor starts all max_workers at the first
    # submit, so --jobs 64 over four misses must ask for four.  The stand-in
    # keeps max_workers, runs the initializer and maps in this process.
    import concurrent.futures
    import emcurve.cli as cli_mod

    workers = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            workers.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    argv = ("scan", "--from", "2", "--to", "40", "--json", "--no-cache")
    rc, serial, _ = run_cli(capsys, *argv)
    assert rc == 0 and len(serial.splitlines()) == 4
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli_mod, "_pool_cache", None)  # the initializer sets it
    rc, pooled, _ = run_cli(capsys, *argv, "--jobs", "64")
    assert rc == 0 and workers == [4]
    assert strip_timings(pooled) == strip_timings(serial)


def test_scan_jobs_reports_budget_failures_like_serial(capsys):
    # Every m here exhausts a budget of one step; the errors that workers
    # send back must unpickle, so the scan reports each m and goes on.
    argv = ["scan", "--from", "10000", "--to", "10300", "--json", "--no-cache",
            "--rho-budget", "1"]
    rc, serial_out, serial_err = run_cli(capsys, *argv)
    assert rc == 0 and serial_err.count("failed (factorization budget") == 4
    rc, out, err = run_cli(capsys, *argv, "--jobs", "2")
    assert rc == 0 and err == serial_err
    assert strip_timings(out) == strip_timings(serial_out)


def test_scan_csv_without_records_prints_no_header(capsys):
    rc, out, err = run_cli(capsys, "scan", "--from", "595", "--to", "610", "--csv",
                           "--no-cache")
    assert rc == 0 and out == ""
    assert "m = 600: failed" in err


def test_run_analysis_pairs_each_height_once(monkeypatch):
    import emcurve.heights as heights_mod
    from emcurve.curve import add, point
    from emcurve.family import build_curve

    chains, doubled = [], []
    real_chain, real_add = heights_mod._doubling_chain, heights_mod.add

    def counting_chain(c, p, tol, readers):
        chains.append((p, readers))
        return real_chain(c, p, tol, readers)

    def counting_add(c, p, q):
        doubled.append(p == q)
        return real_add(c, p, q)

    monkeypatch.setattr(heights_mod, "_doubling_chain", counting_chain)
    monkeypatch.setattr(heights_mod, "add", counting_add)
    rec = run_analysis(6)
    # P1's and P2's chains read h(P) and h(2P); P1 + P2 takes a third.
    c = build_curve(6)
    p1, p2 = point(0, c.t), point(c.n1, c.t)
    assert chains == [(p1, 2), (add(c, p1, p2), 1), (p2, 2)]
    assert doubled == [False]
    assert rec.independence == 2
