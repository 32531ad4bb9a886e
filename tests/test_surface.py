"""Every public function, class and method of the package has a caller.

A public name in ``src/ioncavity/*.py`` passes when one of these holds:

* it is named in the package outside its own definition (as a name, an
  attribute, an import or a string, as in ``getattr(obj, "name")``);
* it is named in ``perfbench/`` or ``scripts/``;
* it is exported in ``ioncavity.__all__``.

Tests do not count as callers: a helper only tests use belongs in the
tests (``conftest.py``). A name that is kept for another reason is listed
in ``EXCEPTIONS`` with that reason.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import ioncavity

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ioncavity"

EXCEPTIONS = {
    "cli.schema_description": "generates docs/config.schema.json",
}


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _names(node) -> Counter:
    """Identifiers named anywhere under ``node``."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            found[sub.value] += 1
    return found


def _public_definitions(trees):
    """(qualified name, node) of every public top-level function and class and of
    every public method of a top-level class."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        yield f"{module}.{node.name}.{method.name}", method


def test_every_public_name_has_a_caller():
    trees = _trees()
    named = sum((_names(tree) for tree in trees.values()), Counter())
    outside = "\n".join(
        path.read_text() for folder in ("perfbench", "scripts") for path in sorted((ROOT / folder).rglob("*.py"))
    )
    uncalled = [
        qualified
        for qualified, node in _public_definitions(trees)
        if qualified not in EXCEPTIONS
        and named[node.name] - _names(node)[node.name] == 0
        and not re.search(rf"\b{node.name}\b", outside)
        and node.name not in ioncavity.__all__
    ]
    assert uncalled == [], "public names with no caller outside the tests: " + ", ".join(uncalled)


def test_exceptions_are_still_defined():
    defined = {qualified for qualified, _ in _public_definitions(_trees())}
    assert set(EXCEPTIONS) <= defined
