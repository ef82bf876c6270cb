"""Every top-level function and class of the package has a user.

A helper whose last caller is deleted stays importable and keeps passing its
own tests, so nothing else notices it.  This guard parses the sources with
``ast`` and asks that each top-level definition in ``src/breatherlab`` be
read (as a name or an attribute) somewhere in ``src/``, ``tests/`` or
``demos/`` outside its own definition.  Imports do not count as uses, and
dunder hooks (``__getattr__``, ``__dir__``) are called by the interpreter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "breatherlab"
SCANNED = ("src", "tests", "demos")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions():
    """(module file, name) of every top-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFS) and not (node.name.startswith("__")
                                                and node.name.endswith("__")):
                yield path, node.name


def _uses():
    """Each name read anywhere in the scanned trees, mapped to the (file, name
    of the top-level definition it is read inside, None outside any) pairs."""
    uses = {}
    for tree_dir in SCANNED:
        for path in sorted((ROOT / tree_dir).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for top in tree.body:
                owner = top.name if isinstance(top, DEFS) else None
                for node in ast.walk(top):
                    if isinstance(node, ast.Name):
                        uses.setdefault(node.id, []).append((path, owner))
                    elif isinstance(node, ast.Attribute):
                        uses.setdefault(node.attr, []).append((path, owner))
    return uses


USES = _uses()
DEFINITIONS = list(_definitions())


@pytest.mark.parametrize("home,name", DEFINITIONS,
                         ids=[f"{path.stem}.{name}" for path, name in DEFINITIONS])
def test_definition_has_a_user(home, name):
    # a recursive call or a method naming its own class is not a user
    readers = [use for use in USES.get(name, []) if use != (home, name)]
    assert readers, f"breatherlab.{home.stem}.{name} is read nowhere in {', '.join(SCANNED)}"
