"""Every imported name is read: an unused import keeps a name alive in a
grep for its callers, which is how dead code is found. And the program runs
on one thread pool, the part threads of ``eened.tensor``."""

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


def pool_uses(source: str) -> list[str]:
    """Imports of a second pool module (``concurrent.futures``,
    ``multiprocessing``) and uses of ``threading.Thread``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.module == "threading" and "Thread" in {a.name for a in node.names}:
                found.append("threading.Thread")
        else:
            if (isinstance(node, ast.Attribute) and node.attr == "Thread"
                    and isinstance(node.value, ast.Name) and node.value.id == "threading"):
                found.append("threading.Thread")
            continue
        found += [m for m in modules
                  if m.partition(".")[0] in ("concurrent", "multiprocessing")]
    return found


def test_scan_finds_a_second_pool():
    assert pool_uses("def f():\n    from concurrent.futures import "
                     "ThreadPoolExecutor\n") == ["concurrent.futures"]
    assert pool_uses("import multiprocessing.pool\n") == ["multiprocessing.pool"]
    assert pool_uses("import threading\nthreading.Thread(target=f)\n"
                     "threading.Lock()\n") == ["threading.Thread"]
    assert pool_uses("from threading import Lock, Thread\n") == ["threading.Thread"]


def test_one_thread_pool():
    found = {str(f.relative_to(ROOT)): pool_uses(f.read_text(encoding="utf-8"))
             for f in sorted((ROOT / "src").rglob("*.py"))}
    assert {f: uses for f, uses in found.items() if uses} == {
        "src/eened/tensor.py": ["threading.Thread"]}
