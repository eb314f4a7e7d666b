"""The library's checks hold under ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

import descpoly

PACKAGE = Path(descpoly.__file__).parent


def test_no_assert_statement_in_the_package():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(PACKAGE.rglob("*.py"))) > 10
    assert found == []
