"""The benchmark scripts import names that the package still defines.

``bench/prepare_probe.py`` times set-up through ``cli._prepare``, a private
helper, together with ``build_model`` and ``load_config``; a rename in the
package would fail every benchmark run while every other test passes.  This
guard parses each ``bench/*.py`` with ``ast`` and resolves every module and
name it imports from ``breatherlab``.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _imports():
    """(script, module, name) of each ``breatherlab`` import, name None for ``import m``."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("breatherlab"):
                yield from ((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, alias.name, None) for alias in node.names
                            if alias.name.split(".")[0] == "breatherlab")


IMPORTS = list(_imports())


def test_bench_imports_the_set_up_helpers():
    assert ("prepare_probe.py", "breatherlab.cli", "_prepare") in IMPORTS


@pytest.mark.parametrize("script,module,name", IMPORTS,
                         ids=[f"{s}:{m}.{n}" if n else f"{s}:{m}" for s, m, n in IMPORTS])
def test_bench_import_resolves(script, module, name):
    mod = importlib.import_module(module)
    assert name is None or hasattr(mod, name), f"{script} imports {name} from {module}"
