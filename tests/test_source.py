"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import cance

BROAD = {"Exception", "BaseException"}


def _names(node):
    if node is None:
        return {"BaseException"}  # a bare `except:`
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(elt) for elt in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def broad_handlers(source: str, filename="<string>") -> list:
    """Lines of handlers catching every exception that do not re-raise it."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ExceptHandler) or not BROAD & _names(node.type):
            continue
        last = node.body[-1]
        if not (isinstance(last, ast.Raise) and last.exc is None):
            found.append(f"{filename}:{node.lineno}")
    return found


@pytest.mark.parametrize("source, flagged", [
    ("try:\n    f()\nexcept:\n    pass\n", True),
    ("try:\n    f()\nexcept Exception as exc:\n    log(exc)\n", True),
    ("try:\n    f()\nexcept BaseException:\n    raise ValueError()\n", True),
    ("try:\n    f()\nexcept (ValueError, Exception):\n    pass\n", True),
    ("try:\n    f()\nexcept builtins.Exception:\n    pass\n", True),
    ("try:\n    f()\nexcept Exception:\n    undo()\n    raise\n", False),
    ("try:\n    f()\nexcept ValueError:\n    pass\n", False),
])
def test_guard_flags_handlers_that_swallow_everything(source, flagged):
    assert bool(broad_handlers(source)) == flagged


def test_no_handler_swallows_every_exception():
    # a programming error must propagate, never end up as a recorded failure
    root = Path(cance.__file__).parent
    found = [
        line
        for path in sorted(root.rglob("*.py"))
        for line in broad_handlers(path.read_text(), str(path.relative_to(root)))
    ]
    assert found == []
