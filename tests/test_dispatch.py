"""One switch on the frequency representation.

Each representation in `arithmetic.py` yields its own partial quotients
(`quotients`) and, for surds and decimals, its own enclosure (`interval`),
so no other code tests which representation it holds.  An `isinstance`
test on `QuadraticSurd`, `PartialQuotients` or `DecimalString` is allowed
in three places only: `_enclosure`, where partial quotients expand to
enclose; `Frequency.is_rational`; and `Frequency.scale`, because only surds
scale exactly.
"""

import ast
from pathlib import Path

from ergorate import arithmetic

REPRESENTATIONS = {"QuadraticSurd", "PartialQuotients", "DecimalString"}
ALLOWED = {"_enclosure", "Frequency.is_rational", "Frequency.scale"}


def _switches(text: str) -> list:
    """The dotted name of the def or class around each isinstance test on a
    representation, in source order."""
    places = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call) and len(child.args) == 2
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance"):
                kinds = child.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(k, ast.Name) and k.id in REPRESENTATIONS
                       for k in kinds):
                    places.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(text), [])
    return places


def test_representations_are_told_apart_in_three_places():
    places = _switches(Path(arithmetic.__file__).read_text())
    assert places
    assert sorted(set(places) - ALLOWED) == []


def test_switches_are_found_by_their_enclosing_def():
    text = ("class F:\n"
            "    def f(self, r):\n"
            "        return isinstance(r, (int, DecimalString))\n"
            "def g(r):\n"
            "    if isinstance(r, int) or isinstance(r, QuadraticSurd):\n"
            "        return [x for x in r if isinstance(x, PartialQuotients)]\n"
            "ok = isinstance(1, DecimalString)\n")
    assert _switches(text) == ["F.f", "g", "g", "<module>"]
