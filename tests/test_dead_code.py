"""No dead code in the package: every function, method and class defined in
`src/ovlang/` is referenced somewhere in `src/ovlang/` outside its own
definition, unless ALLOWED names the user it has outside the package.

A reference is any use of the name, as a bare name or as an attribute, so
the check is by name: a method is live when any `.name` in the package
could reach it. Dunder methods are called by Python itself and are not
checked."""
import ast
import re
from collections import Counter
from pathlib import Path

from conftest import ROOT

SRC = ROOT / "src" / "ovlang"

# qualified name -> its user outside src/ovlang
ALLOWED = {
    "serial_execute": "the serial oracle of the block tests",
    "interferes": "the block tests' reference graph; bench/tracer.py's hook",
    "Diagnostics.errors": "the tests' view of a check's errors",
    "Diagnostics.codes": "the tests' view of a check's codes",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree: ast.AST) -> Counter:
    """Every name the tree uses, as a bare name or an attribute."""
    used: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
    return used


def _defs(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) of each definition, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _DEFS):
            qual = prefix + node.name
            yield qual, node
            yield from _defs(node, qual + ".")
        else:
            yield from _defs(node, prefix)


def unreferenced() -> list[str]:
    trees = [ast.parse(p.read_text(encoding="utf-8"), str(p))
             for p in sorted(SRC.glob("*.py"))]
    used: Counter = Counter()
    for tree in trees:
        used += _names(tree)
    dead = []
    for tree in trees:
        for qual, node in _defs(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] - _names(node)[name] == 0:
                dead.append(qual)
    return sorted(dead)


def test_every_definition_has_a_user():
    dead = unreferenced()
    assert sorted(set(dead) - set(ALLOWED)) == []


def test_allowed_names_are_still_unreferenced():
    # a name the package uses again leaves the list
    assert sorted(set(ALLOWED) - set(unreferenced())) == []


def test_allowed_names_have_an_outside_user():
    # an entry whose user outside the package is gone leaves the list too:
    # its name occurs as a word in a file under tests/ or bench/ other
    # than this one
    texts = [p.read_text(encoding="utf-8")
             for d in ("tests", "bench") for p in (ROOT / d).rglob("*.py")
             if p != Path(__file__)]
    unused = [qual for qual in ALLOWED
              if not any(re.search(rf"\b{qual.split('.')[-1]}\b", text)
                         for text in texts)]
    assert unused == []
