"""Every public function, class and method of the package has a caller, and
every keyword option of a public function has a caller that sets it.

A public name in ``src/ioncavity/*.py`` passes when one of these holds:

* it is named in the package outside its own definition (as a name, an
  attribute, an import or a string, as in ``getattr(obj, "name")``);
* it is named in ``perfbench/`` or ``scripts/``;
* it is exported in ``ioncavity.__all__``.

Tests do not count as callers: a helper only tests use belongs in the
tests (``conftest.py``). A name that is kept for another reason is listed
in ``EXCEPTIONS`` with that reason.

A defaulted parameter of a public top-level function passes when a call
in the package, ``perfbench/`` or ``scripts/`` passes it, by name or by
position; a call with ``*`` or ``**`` unpacking passes every parameter.
An option no caller sets is a constant in disguise. One kept for another
reason is listed in ``OPTION_EXCEPTIONS`` with that reason.
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

OPTION_EXCEPTIONS = {
    "lindblad.evolve.atol": "tests check the absolute tolerance's behaviour",
    "localization.fit_waist_scan.initial": "tests check a fit from a given start",
    "polarization.dipole_projection.quantization_axis": "tests check projections in other frames",
    "lindblad.steady_state.check_unique": "tests probe a single solve for a second stationary state",
    "lindblad.steady_state.return_info": "tests read a single solve's residual, block size, LU fill and path",
    "io_utils.write_svg_plot.title": "always empty; dropping it changes every SVG",
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


def _defaulted_parameters(trees):
    """(qualified name, function name, positional parameters, parameter) of every
    defaulted parameter of a public top-level function."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            for arg in defaulted:
                yield f"{module}.{node.name}.{arg.arg}", node.name, positional, arg


def _passes(call, positional, arg) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(kw.arg is None for kw in call.keywords):
        return True
    if any(kw.arg == arg.arg for kw in call.keywords):
        return True
    return arg in positional and positional.index(arg) < len(call.args)


def test_every_keyword_option_has_a_caller():
    trees = _trees()
    sources = list(trees.values()) + [
        ast.parse(path.read_text()) for folder in ("perfbench", "scripts") for path in sorted((ROOT / folder).rglob("*.py"))
    ]
    calls = {}
    for tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    parameters = list(_defaulted_parameters(trees))
    assert set(OPTION_EXCEPTIONS) <= {qualified for qualified, *_ in parameters}
    unset = [
        qualified
        for qualified, name, positional, arg in parameters
        if qualified not in OPTION_EXCEPTIONS
        and not any(_passes(call, positional, arg) for call in calls.get(name, []))
    ]
    assert unset == [], "keyword options no caller sets: " + ", ".join(unset)
