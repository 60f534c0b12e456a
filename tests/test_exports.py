"""The public surface: every name the package exports serves the package.

A name `ergorate/__init__.py` imports must be read somewhere in
`src/ergorate/*.py`, as a name or an attribute.  Its own `def`/`class`
line, an assignment to it and every import line are not reads.  A helper
that only tests call belongs in `tests/oracles.py`, not in the library.
"""

import ast
from pathlib import Path

import ergorate

SRC = Path(ergorate.__file__).parent


def _exports(text: str) -> set:
    return {alias.asname or alias.name for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _reads(texts) -> set:
    names = set()
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_export_is_read_in_the_package():
    exports = _exports((SRC / "__init__.py").read_text())
    assert len(exports) > 50
    reads = _reads(path.read_text() for path in SRC.glob("*.py"))
    assert sorted(exports - reads) == []


def test_definitions_and_imports_are_not_reads():
    text = ("from .x import f, g\n"
            "def d():\n    pass\n"
            "class C:\n    pass\n"
            "A = 1\n"
            "y = f.attr\n")
    assert _exports(text) == {"f", "g"}
    assert _reads([text]) == {"f", "attr"}
