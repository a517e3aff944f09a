"""src/ holds only what a command runs.

A fresh interpreter runs cli.main in-process on commands that cover every
path of the six subcommands, under sys.setprofile, and reports each code
object of src/emcurve it saw called.  Every def and lambda of src/emcurve
must be among them, apart from the allowlist below, each with its reason.
A helper that only tests call belongs in tests/reference.py.  The child is
fresh because the lru and functools.cache memos of a warm pytest process
would hide calls.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Every command but those with the cache C takes --no-cache, added below.
COMMANDS = [
    ("analyze --m 6 --verbose --cache-path C", 0),  # a miss
    ("analyze --m 6 --verbose --cache-path C", 0),  # a hit
    ("analyze --m 4 --csv", 0),
    ("table1 --json", 0),
    ("table1", 0),
    ("scan --from 2 --to 60 --json --cache-path C", 0),
    ("scan --from 2 --to 100 --admissible-only", 0),
    ("scan --from 2 --to 100 --admissible-only --json", 0),
    ("selmer --m 6 --verbose", 0),
    ("selmer --m 6 --json", 0),
    ("heights --m 12", 0),
    ("heights --m 12 --json", 0),
    ("heights --m 12 --tol 1e-9", 3),  # the bit cap
    ("torsion --m 4", 0),
    ("torsion --m 6 --json", 0),
    ("analyze --m 600", 2),  # m^4-1+4m^2 is not squarefree
    ("analyze --m 5", 2),  # inadmissible
    ("analyze --m 10008 --rho-budget 0", 3),  # FactorizationTimeout
    ("heights --m 10000000278 --json", 0),  # ECM
]

UNREACHED = {
    "emcurve.cli.build_parser": "the public parser object, which tests read",
    "emcurve.cli._init_pool_worker": "runs in --jobs workers, which the profile does not follow",
    "emcurve.cli._pool_worker": "runs in --jobs workers, which the profile does not follow",
    "emcurve.AnalysisRecord.__reduce__": "a --jobs worker runs it to pickle its result",
    "emcurve.heights.HeightBudgetExceeded.__reduce__":
        "a --jobs worker runs it to pickle its result",
    "emcurve.numtheory.FactorizationTimeout.__reduce__":
        "a --jobs worker runs it to pickle its result",
    "emcurve.descent.DescentContext.mask_of_class": "the acceptance suite calls it",
    "emcurve.descent.SquareClass.__mul__": "the acceptance suite calls it",
    "emcurve.descent.SquareClass.__repr__": "used in failure messages",
}

CHILD = """
import contextlib, io, json, os, sys
src, commands = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
from emcurve import cli

seen = set()

def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

codes = []
sys.setprofile(profile)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
package = os.path.join(src, "emcurve")
print(json.dumps({"exit_codes": codes, "reached": sorted(
    (os.path.basename(c.co_filename), c.co_firstlineno)
    for c in seen if os.path.dirname(c.co_filename) == package)}))
"""


def definitions(path):
    """{(file name, first line): qualified name} for each def and lambda of
    a module; a decorated def's code starts at its first decorator."""
    module = "emcurve" if path.stem == "__init__" else f"emcurve.{path.stem}"
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
                lines = [d.lineno for d in getattr(child, "decorator_list", [])]
                out[(path.name, min(lines, default=child.lineno))] = name
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), module)
    return out


def test_every_function_in_src_runs_under_some_command(tmp_path):
    commands = [(cmd + ("" if "--cache-path" in cmd else " --no-cache")).split()
                for cmd, _ in COMMANDS]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", CHILD, str(SRC), json.dumps(commands)],
        cwd=tmp_path, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["exit_codes"] == [code for _, code in COMMANDS]
    reached = {tuple(pair) for pair in out["reached"]}
    defs = {}
    for path in sorted((SRC / "emcurve").glob("*.py")):
        defs.update(definitions(path))
    unreached = {name for key, name in defs.items() if key not in reached}
    assert unreached == set(UNREACHED)
