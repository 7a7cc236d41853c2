"""The library's source text and public surface: every postcondition is a
real check, the README's library section is the public API, and every name
the benchmark's tracer wraps still exists."""

import ast
import importlib
import re
from pathlib import Path

import dgdeform

ROOT = Path(__file__).resolve().parent.parent


def test_library_has_no_assert_statement():
    # an assert vanishes under python -O; a postcondition raises
    # PostconditionFailed instead, whatever the interpreter's flags
    paths = sorted(Path(dgdeform.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _library_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_section_lists_exactly_the_public_api():
    lists = [p for p in _library_section().split("\n\n") if p.startswith("- ")]
    assert len(lists) == 1
    names = re.findall(r"`([A-Za-z_]\w*)`", lists[0])
    assert sorted(names) == sorted(dgdeform.__all__)
    assert len(set(dgdeform.__all__)) == len(dgdeform.__all__)


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", _library_section(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip().isdigit()


def test_the_benchmark_tracer_resolves_every_target(monkeypatch):
    # perfbench/trace.py wraps these names by identity and reports a name it
    # cannot find as a null metric, which only its self-test would notice
    monkeypatch.syspath_prepend(str(ROOT))
    trace = importlib.import_module("perfbench.trace")
    targets = [(module, qualname) for module, qualname, _ in trace.TARGETS.values()]
    missing = [t for t in targets + [("dgdeform.cochain", "cochain_basis")]
               if trace._resolve(*t) is None]
    assert missing == []


def test_the_field_is_decided_in_field_linalg_and_the_file_format():
    # a number becomes a value in field.py, and integer results are read in
    # and out in linalg.py; dsl.py writes the modulus into a file's header
    from dgdeform import cochain, linalg

    paths = sorted(Path(dgdeform.__file__).parent.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    reads = sorted(name for name, tree in trees.items() for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "modulus")
    assert set(reads) <= {"field.py", "linalg.py", "dsl.py"}
    imported = [alias.name for node in ast.walk(trees["cochain.py"])
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(trees["cochain.py"])
                 if isinstance(node, ast.ImportFrom)]
    assert "fractions" not in imported
    assert not hasattr(linalg, "_matrix") and not hasattr(cochain, "_integer_columns")
