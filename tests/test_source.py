"""The library's source text: every postcondition is a real check."""

import ast
from pathlib import Path

import dgdeform


def test_library_has_no_assert_statement():
    # an assert vanishes under python -O; a postcondition raises
    # PostconditionFailed instead, whatever the interpreter's flags
    paths = sorted(Path(dgdeform.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
