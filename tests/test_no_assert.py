"""The library's checks hold under ``python -O``, which strips ``assert``,
a failed check is never caught and reported as some other error, and the
order, count and depth rule is written once, in ``value.need``."""

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


def _message_text(node):
    """The text of a string constant, or of an f-string with each
    formatted part as ``{}``; None for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return None


def _raises_outside_the_gate(path, node):
    """The ``raise`` statements under ``node``, skipping ``value.need``."""
    for child in ast.iter_child_nodes(node):
        if (path.name == "value.py" and isinstance(child, ast.FunctionDef)
                and child.name == "need"):
            continue
        if isinstance(child, ast.Raise):
            yield child
        yield from _raises_outside_the_gate(path, child)


def test_no_order_check_is_written_outside_the_gate():
    # An order, count or depth argument is checked by value.need alone, so
    # no entry words the rule, or a looser copy of it, on its own.
    found = []
    for path, tree in _package_trees():
        for node in _raises_outside_the_gate(path, tree):
            exc = node.exc
            if not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                    and exc.func.id == "ValueError" and exc.args):
                continue
            text = _message_text(exc.args[0])
            if text is not None and (text.startswith("need ") or "must be an int" in text
                                     or "must be at least" in text):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
