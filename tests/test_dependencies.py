"""numpy is the package's one runtime dependency: scipy is installed in
development environments, so an import of it would pass every other test
and fail only where the package is installed on its own."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "voxanon"
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_modules(source: str) -> set[str]:
    """The top-level name of every module an ``import`` statement of
    ``source`` names, at any depth; relative imports name none."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_walks_every_module():
    assert PACKAGE / "cli.py" in MODULES and PACKAGE / "nnet" / "nsf.py" in MODULES


def test_finds_nested_and_dotted_imports():
    source = "def f():\n    import scipy.signal\nfrom scipy import fft\nfrom . import nnet\n"
    assert imported_modules(source) == {"scipy"}


@pytest.mark.parametrize("module", MODULES, ids=lambda path: str(path.relative_to(PACKAGE)))
def test_no_scipy_import(module):
    assert "scipy" not in imported_modules(module.read_text(encoding="utf-8"))


def test_cli_import_leaves_process_pools_unimported():
    # synthesize imports them when it starts its workers; imported with the
    # CLI, they would add about 14 ms to the start of every command.
    code = ("import sys, voxanon.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
