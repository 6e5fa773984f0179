"""No module of src/twinrt or tests imports a name it never uses.

The check reads each file with the standard library's ``ast``. An imported
name counts as used if it appears as a name anywhere in the module, or in a
string annotation such as ``"GatewayHandle"``. ``from __future__`` imports
are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "twinrt").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _string_annotation_names(node: ast.AST | None) -> set[str]:
    names: set[str] = set()
    for part in ast.walk(node) if node is not None else ():
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            try:
                parsed = ast.parse(part.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """``line: name`` for each imported name ``source`` never uses."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _string_annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _string_annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _string_annotation_names(node.annotation)
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used]


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["1: os"]),
    ("import os.path\nos.sep\n", []),
    ("import json as j\nfrom a import b, c as d\nj, d\n", ["2: b"]),
    ("from __future__ import annotations\n", []),
    ("from a import B, C\ndef f(x: 'B') -> 'list[C]': pass\n", []),
    ("from a import B\nx: 'B | None' = None\n", []),
    ("from a import B\nx = 'B'\n", ["1: B"]),
])
def test_the_check_finds_what_it_should(source, unused):
    assert unused_imports(source) == unused


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(ROOT)}:{entry}" for path in FILES
             for entry in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
