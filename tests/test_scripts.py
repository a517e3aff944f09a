import subprocess
import sys
from pathlib import Path

from emcurve.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_table_matches_all_six_rows():
    # The script puts src/ on its path relative to the repository root.
    proc = subprocess.run([sys.executable, "scripts/reproduce_table.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
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
