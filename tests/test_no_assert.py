"""The library's checks hold under ``python -O``, which strips ``assert``,
and a failed check is never caught and reported as some other error."""

import ast
from pathlib import Path

import descpoly

PACKAGE = Path(descpoly.__file__).parent


def _package_trees():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_assert_statement_in_the_package():
    found = [f"{path.name}:{node.lineno}" for path, tree in _package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _caught_names(node):
    """The class names an ``except`` clause names, alone or in a tuple."""
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _caught_names(elt)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def test_no_except_clause_catches_a_failed_invariant():
    # InvariantError means a library bug; reinterpreting it as a user error
    # would hide one.  AssertionError, its base, would catch it just the same.
    found = [f"{path.name}:{node.lineno}" for path, tree in _package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler)
             and _caught_names(node.type) & {"InvariantError", "AssertionError"}]
    assert found == []
