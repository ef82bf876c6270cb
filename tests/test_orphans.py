"""Every top-level function and class of the package has a user.

A helper whose last caller is deleted stays importable and keeps passing its
own tests, so nothing else notices it.  This guard parses the sources with
``ast`` and asks that each top-level definition in ``src/breatherlab`` be
read (as a name or an attribute) somewhere in ``src/``, ``tests/`` or
``demos/`` outside its own definition.  Imports do not count as uses, and
dunder hooks (``__getattr__``, ``__dir__``) are called by the interpreter.

A defaulted parameter that no call passes is the same waste one level down:
each one of a package function or method must be passed, by position or by
keyword, by some call of that name in the scanned trees (a call of a class
counts for its ``__init__``).  Calls are matched by name, so any call of that
name counts, and a call with ``*args`` or ``**kwargs`` passes every parameter
of its kind.  Parameters with a leading underscore are exempt: they override
a library signature, as ``iterencode(_one_shot)`` does.
"""

import ast
import math
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


def _defaulted_parameters():
    """(module file, callable name, parameter, positional index or None for
    keyword-only) of each defaulted parameter of a package function or method;
    the index counts from the first argument a call passes (after ``self``)."""
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            funcs = [(top.name, top, 0)] if isinstance(top, DEFS[:2]) else []
            if isinstance(top, ast.ClassDef):
                funcs = [(top.name if f.name == "__init__" else f.name, f,
                          0 if any(getattr(dec, "id", None) == "staticmethod"
                                   for dec in f.decorator_list) else 1)
                         for f in top.body if isinstance(f, DEFS[:2])]
            for name, func, skip in funcs:
                args = func.args
                positional = (args.posonlyargs + args.args)[skip:]
                first = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional[first:], first):
                    yield path, name, arg.arg, index
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield path, name, arg.arg, None


def _passed():
    """Each called name mapped to (most positional arguments, keyword names),
    with ``*args`` counting as every position and ``**kwargs`` as every keyword."""
    passed = {}
    for tree_dir in SCANNED:
        for path in sorted((ROOT / tree_dir).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                entry = passed.setdefault(name, [0, set()])
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                entry[0] = max(entry[0], math.inf if starred else len(node.args))
                entry[1].update("**" if kw.arg is None else kw.arg for kw in node.keywords)
    return passed


PASSED = _passed()
PARAMETERS = [p for p in _defaulted_parameters() if not p[2].startswith("_")]


@pytest.mark.parametrize("home,name,param,index", PARAMETERS,
                         ids=[f"{path.stem}.{name}({param})"
                              for path, name, param, _ in PARAMETERS])
def test_defaulted_parameter_is_passed(home, name, param, index):
    most, keywords = PASSED.get(name, (0, set()))
    by_position = index is not None and most > index
    assert by_position or param in keywords or "**" in keywords, (
        f"no call in {', '.join(SCANNED)} passes {param} to breatherlab.{home.stem}.{name}")
