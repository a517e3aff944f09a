import json
import subprocess
import sys
from pathlib import Path

import pytest

from emcurve.cli import main

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("where", ["repo-root", "elsewhere"])
def test_reproduce_table_matches_all_six_rows(where, tmp_path):
    # The script puts the src/ next to it on its path, so it runs from any
    # working directory.
    cwd = ROOT if where == "repo-root" else tmp_path
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_table.py")],
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(", ok), w = ") == 6
    assert "MISMATCH" not in proc.stdout


def test_selmer_survey_reads_scan_records(capsys):
    assert main(["scan", "--from", "2", "--to", "300", "--json", "--no-cache"]) == 0
    records = capsys.readouterr().out
    assert len(records.splitlines()) == 17
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "selmer_survey.py")],
                          input=records, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "analyzed 17 parameters" in proc.stdout
    assert "all matched s2" in proc.stdout


def test_selmer_survey_exits_1_on_a_corollary_mismatch(capsys):
    assert main(["analyze", "--m", "6", "--json", "--no-cache"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["corollary_value"] == record["s2"] == 4
    record["s2"] = 3
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "selmer_survey.py")],
                          input=json.dumps(record) + "\n", capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert "MISMATCHES: [(6, 4, 3)]" in proc.stdout
