"""Every imported name is read: an unused import keeps a name alive in a
grep for its callers, which is how dead code is found."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(f for d in ("src", "scripts", "tests")
               for f in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names an import binds that no expression of ``source`` reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - read)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os, re\nfrom a.b import c, d as e\nre, e\n") \
        == ["c", "os"]
    assert unused_imports("from __future__ import annotations\n"
                          "import eened.cli\neened.cli.main\n") == []


def test_no_unused_imports():
    found = {str(f.relative_to(ROOT)): unused_imports(f.read_text(encoding="utf-8"))
             for f in FILES}
    assert {f: names for f, names in found.items() if names} == {}
