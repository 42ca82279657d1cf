"""No module of the package imports a name it never uses.

No linter ships with the test dependencies, so this is the one pyflakes
rule (F401) the package keeps, checked on the AST: a module-level import
whose bound name never appears as a name in the module fails, unless its
line carries ``# noqa: F401``.  A name used only inside a quoted
annotation counts as unused.  ``__init__.py`` is left out, since its
imports are the public re-exports.  A fresh interpreter also checks that
importing the CLI leaves out the modules it needs only on demand, and
compiles no component catalog.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "natfx"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if not any("# noqa: F401" in lines[i - 1] for i in {node.lineno, alias.lineno}):
                    imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import_and_honours_noqa():
    source = (
        "from dataclasses import dataclass, field\n"
        "from typing import Callable\n"
        "import os  # noqa: F401\n"
        "def f(x: Callable) -> None:\n"
        "    return dataclass\n"
    )
    assert unused_imports(source) == ["line 1: field"]


def private_imports(source: str) -> list[str]:
    """The underscored names `source` imports from the package's own modules."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").startswith("natfx"))
                  for alias in node.names if alias.name.startswith("_"))


def test_infer_takes_only_the_pricers_and_the_row_sums_from_the_engines():
    # each engine's private layout is known by its own module: a chunk
    # pricer lives beside the engine it batches, and the bootstrap needs
    # only the pricers and the exact row sums
    source = (SRC / "infer.py").read_text(encoding="utf-8")
    assert private_imports(source) == ["_LinearChunkPricer", "_PluginChunkPricer", "_totals"]


def test_private_import_check_reads_relative_and_absolute_imports():
    source = (
        "from .scm import Dataset, _tally\n"
        "from natfx.decomp import _totals\n"
        "from numpy import _globals\n"
        "def f():\n"
        "    from .estimate import _factored\n"
    )
    assert private_imports(source) == ["_factored", "_tally", "_totals"]


def after_importing_the_cli(expression: str) -> str:
    """What a fresh interpreter prints for `expression` after ``import natfx.cli``."""
    code = f"import sys, natfx.cli; print({expression})"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env).stdout


def loaded_by_importing_the_cli(module: str) -> bool:
    """Whether a fresh interpreter holds `module` after ``import natfx.cli``."""
    return {"True\n": True, "False\n": False}[after_importing_the_cli(f"{module!r} in sys.modules")]


def test_the_cli_starts_without_the_thread_pool_module():
    # concurrent.futures pulls in logging, about 9 ms of every start-up;
    # only bootstrap(workers=) on a plain callable needs it
    assert not loaded_by_importing_the_cli("concurrent.futures")


def test_the_cli_starts_without_numpy_random():
    # loading numpy.random costs 11-27 ms; bootstrap and simulate load it
    # when they run
    assert not loaded_by_importing_the_cli("numpy.random")


def test_the_cli_starts_without_compiling_a_catalog():
    # a command prices at most one of the catalogs; each compiles on first use
    assert after_importing_the_cli("natfx.decomp._compiled.cache_info().currsize") == "0\n"


def test_the_cli_starts_without_exact_arithmetic_or_reader_tables():
    # the CSV reader proves its floats with numpy alone, and builds its
    # tables when it runs: the digit pairs of the writer are the one array
    # made at import
    assert not loaded_by_importing_the_cli("decimal")
    assert not loaded_by_importing_the_cli("fractions")
    arrays = "sorted(k for k, v in vars(natfx.cli).items() if type(v).__name__ == 'ndarray')"
    assert after_importing_the_cli(arrays) == "['_DIGIT_PAIRS']\n"
