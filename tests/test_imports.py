"""Every imported name is read: a stdlib `ast` scan of the library and the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "hyperforms").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(text: str) -> list[tuple[int, str]]:
    """(line, name) for each name the source `text` imports and never reads.
    A `from __future__` import binds no name, so it is skipped."""
    module = ast.parse(text)
    imported = {}
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_covers_the_library_and_the_tests():
    assert {"census.py", "cli.py", "conftest.py", "test_imports.py"} <= {p.name for p in SOURCES}


def test_every_imported_name_is_read():
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in SOURCES for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def test_scan_finds_an_unused_import():
    text = ("from __future__ import annotations\nimport os, sys\nimport os.path as osp\n"
            "from json import dumps as d, loads\nprint(sys.argv, loads)\n")
    assert unused_imports(text) == [(2, "os"), (3, "osp"), (4, "d")]
