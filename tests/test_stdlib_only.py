"""emcurve is pure Python with no runtime dependencies: every module it
imports, apart from its own, ships with the interpreter."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "emcurve"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_src_imports_only_the_standard_library():
    imported = {name.partition(".")[0]
                for path in sorted(SRC.glob("*.py"))
                for name in absolute_imports(path)}
    assert imported and "fcntl" in imported
    assert imported - sys.stdlib_module_names - {"emcurve"} == set()


def unused_imports(path):
    """The names path imports and never reads (__future__ imports aside)."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_src_imports_no_name_it_never_uses():
    unused = {path.name: names for path in sorted(SRC.glob("*.py"))
              if (names := unused_imports(path))}
    assert unused == {}


def test_engine_import_leaves_typing_out():
    # A cold command pays for every module the engine imports; the engine's
    # annotations take Iterator and Sequence from collections.abc, so typing
    # stays unloaded.  -I -S: no environment, no site packages, src first on
    # the path.
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
            "import emcurve.analysis; print('typing' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"
