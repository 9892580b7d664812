"""Every module of the package and every script reads each name it imports,
each module loads only the layers below it, and every function the benchmark
traces exists under the name it traces."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "cliquebound").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, by line. A name
    listed in its ``__all__`` counts as read, and ``__future__`` imports are
    not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds a.
            imported += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names if alias.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for _, name in sorted(imported) if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_sources_are_found():
    names = {str(path.relative_to(ROOT)) for path in SOURCES}
    assert {"src/cliquebound/simplex.py", "scripts/kernel_times.py"} <= names


def test_unused_imports_are_named():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from itertools import chain, islice\n"
        "from .cliques import CHUNK, CliqueIndex\n"
        "from .graph import Graph\n"
        "__all__ = ['Graph']\n"
        "def f(index: CliqueIndex):\n"
        "    return list(chain(os.sep))\n"
    )
    assert unused_imports(source) == ["system", "islice", "CHUNK"]


# The package modules each one loads: graph, then cliques, bounds and simplex
# above it; the oracles and the corpus beside them on graph alone; and the CLI
# over all of them.
LOADS = {
    "graph": {"graph"},
    "cliques": {"graph", "cliques"},
    "bounds": {"graph", "cliques", "bounds"},
    "simplex": {"graph", "cliques", "bounds", "simplex"},
    "oracles": {"graph", "oracles"},
    "corpus": {"graph", "corpus"},
    "cli": {"graph", "cliques", "bounds", "simplex", "oracles", "corpus", "cli"},
}


@pytest.mark.parametrize("module", sorted(LOADS))
def test_module_loads_only_its_layers(module):
    # A fresh interpreter, so no module an earlier test imported counts.
    code = (f"import sys, cliquebound.{module}; "
            "print(*(key.partition('.')[2] for key in sys.modules "
            "if key.startswith('cliquebound.')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, env=env, check=True)
    assert set(result.stdout.split()) == LOADS[module]


def test_traced_functions_exist():
    # perfbench/spans.py swaps each (module, function) of TRACED by name, so
    # a rename in the package would leave its span reading 0.
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [f"{module}.{name}" for module, name, _ in spans.TRACED
               if not callable(getattr(importlib.import_module(f"cliquebound.{module}"),
                                       name, None))]
    assert missing == []
