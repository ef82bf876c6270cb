"""Fuzz the configuration through ``main``: every position of every shipped config.

Each case takes one shipped configuration and mutates one value in it: a
scalar, a list element, a list or an object.  The mutations are a value of
the wrong JSON type, a value just outside the field's range, NaN, the string
``"false"``, deletion, and an extra sibling key.  ``main`` runs in-process
and must return an exit code in 0-5 without raising, print no traceback, and
leave no output directory behind when it exits with 2.

The sample counts are capped before mutating (``SMALL``) so that every case
that still runs takes milliseconds.  No mutation makes a run larger than its
shipped config: a size only falls or is rejected, and a deleted size falls
back to its default, which is at or below the shipped value.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breatherlab.cli import FIELDS, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = {
    "validate": "validate_breather.json",
    "spectrum": "spectrum_small.json",
    "ids": "ids_bracketing.json",
    "lifshitz": "lifshitz.json",
    "bounds": "bounds.json",
}
SMALL = {"samples": 4, "L_max": 8}


def small_config(name: str) -> dict:
    cfg = json.loads((CONFIGS / name).read_text())
    for key, cap in SMALL.items():
        if key in cfg["experiment"]:
            cfg["experiment"][key] = min(cfg["experiment"][key], cap)
    return cfg


def positions(node, path=()):
    """Every position below ``node``, as a tuple of keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from positions(value, path + (key,))


def least_value(path) -> list:
    """One below the least value the table allows at ``path``, if its rule has one."""
    field = ".".join(key for key in path if isinstance(key, str))
    match = re.search(r">= (\d+)", FIELDS.get(field, (None, ""))[1])
    return [int(match.group(1)) - 1] if match else []


def out_of_range(value, path) -> list:
    if isinstance(value, bool):
        return [0, 1]
    if isinstance(value, (int, float)):
        return sorted({0, -1, -value, value + 0.5, *least_value(path)})
    if isinstance(value, str):
        return [value + "x", ""]
    return [type(value)()]  # an empty list or object


def mutations(cfg: dict, path) -> list:
    """(name, value) pairs for the position ``path``."""
    *parents, key = path
    parent = cfg
    for step in parents:
        parent = parent[step]
    value = parent[key]
    found = [("wrong-type", ["x"] if isinstance(value, dict) else {"x": 1}),
             ("nan", math.nan), ("false", "false"), ("deleted", None)]
    found += [("out-of-range", v) for v in out_of_range(value, path)]
    if isinstance(parent, dict):
        found.append(("extra-key", 1))
    return found


def apply(cfg: dict, path, name: str, value) -> dict:
    cfg = copy.deepcopy(cfg)
    *parents, key = path
    parent = cfg
    for step in parents:
        parent = parent[step]
    if name == "deleted":
        del parent[key]
    else:
        parent["zz_extra" if name == "extra-key" else key] = value
    return cfg


CASES = [pytest.param(command, path, id=f"{command}-{'.'.join(map(str, path))}")
         for command, name in SHIPPED.items()
         for path in positions(small_config(name))]


# no position has more than 12 mutations, and hypothesis does not repeat an
# example of a finite strategy, so each case tries every mutation once
@pytest.mark.parametrize("command,path", CASES)
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(data=st.data())
def test_mutated_config_exits_cleanly(command, path, data):
    base = small_config(SHIPPED[command])
    name, value = data.draw(st.sampled_from(mutations(base, path)), label="mutation")
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(apply(base, path, name, value)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(cfg), "--out", str(out), "--no-cache"])
        assert code in range(6)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not out.exists()
