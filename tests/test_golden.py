"""Golden digests: the shipped configs, run at their own seeds, keep their bytes.

Every primary output file of the five shipped configs, and of the d = 2
bench config (the d = 2 line-block LDL^T path), is pinned by its SHA-256.  A
change meant to be byte-neutral (a speed-up, a refactor) that moves any byte
fails here; a change that moves bytes on purpose updates the digest and names
the bytes and the reason in CHANGES.md.  ``ids`` and ``lifshitz`` run once
more on two worker processes, against the same digests.

The three files whose numbers come from eigensolves are also held against
their values before the eigensolver moved to NumPy (``tests/data/*_parent``,
from LAPACK's ``eigh_tridiagonal`` and ``eigh``): every float within
1e-12 (1 + |value|), everything else (verdicts, counts, labels) equal.
"""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from breatherlab.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PARENT = Path(__file__).resolve().parent / "data"

GOLDEN = {
    ("validate", "validate_breather.json"): {
        "validate_report.json":
            "1fed73c3d7f31052e6e45da133e59789404dc95693c507025e48a5c1bd324e2b",
        "validate_report.txt":
            "e8b83322cc09c2bb84afbf93c95374f0884541677451d41d27895f3e74131874",
    },
    ("spectrum", "spectrum_small.json"): {
        "spectrum.csv":
            "903be090ab10d7facd04a4b40d5e87f750975a28e684ab95b64a0704444c3558",
    },
    ("ids", "ids_bracketing.json"): {
        "ids_curve.csv":
            "2f95b8084abd44f630171363c6e759d6c4e9f4467485b7e4663597db55b40ca1",
        "bracketing.json":
            "e41837f50709c07eb92997bac51378707f51c170a579f5fcff11f4483d8b7820",
    },
    ("bounds", "bounds.json"): {
        "bounds_report.json":
            "39f1ac27c789ceba31d039aa0c327fa677eca6e6caf2442b36ff1271e986b835",
    },
    ("lifshitz", "lifshitz.json"): {
        "lifshitz.json":
            "63890143c693acfe444ad0c5cda0dc77f2e34a0b964338f77c88a48fdeab9c08",
        "lifshitz_curve.csv":
            "4bc0ceb63ada58a96e06e07aa9e48dce273e180f117cfda4b84936e9973d8c91",
    },
    ("ids", "../bench/configs/ids_2d.json"): {
        "ids_curve.csv":
            "d9ab24ca9fd4925b5839ae3ebfbfa67e135ec9cc36c9f2fef192f909b68b68f2",
        "bracketing.json":
            "0bf0471db040cd4b60e022f28170262735f2c8be9765b8baa4eddcac75966b53",
    },
}

# config paths are relative to configs/; ids and lifshitz also run on two workers
CASES = [pytest.param(command, config, 1, id=f"{command}-{Path(config).name}")
         for command, config in sorted(GOLDEN)]
CASES += [pytest.param(command, config, 2, id=f"{command}-{config}-workers2")
          for command, config in (("ids", "ids_bracketing.json"),
                                  ("ids", "../bench/configs/ids_2d.json"),
                                  ("lifshitz", "lifshitz.json"))]


@pytest.mark.parametrize("command,config,workers", CASES)
def test_shipped_config_bytes(tmp_path, capsys, command, config, workers):
    out = tmp_path / "out"
    code = main([command, "--config", str(CONFIGS / config), "--out", str(out),
                 "--workers", str(workers), "--no-cache"])
    capsys.readouterr()
    assert code == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN[command, config]}
    assert digests == GOLDEN[command, config]


def leaves(node, path=""):
    """(path, value) of every scalar in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaves(value, f"{path}/{key}")
        else:
            yield f"{path}/{key}", value


def csv_leaves(path):
    """(row/column, value) of a CSV table; the E and residual columns as floats."""
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh)):
            for key, value in row.items():
                yield f"{i}/{key}", float(value) if key in ("E", "residual") else value


@pytest.mark.parametrize("command,config,name,parent", [
    ("spectrum", "spectrum_small.json", "spectrum.csv", "spectrum_parent.csv"),
    ("bounds", "bounds.json", "bounds_report.json", "bounds_report_parent.json"),
    ("lifshitz", "lifshitz.json", "lifshitz.json", "lifshitz_parent.json"),
])
def test_eigensolve_outputs_match_lapack_values(tmp_path, capsys, command, config, name,
                                                parent):
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIGS / config), "--out", str(out),
                 "--no-cache"]) == 0
    capsys.readouterr()
    if name.endswith(".csv"):
        got, was = dict(csv_leaves(out / name)), dict(csv_leaves(PARENT / parent))
    else:
        got = dict(leaves(json.loads((out / name).read_text())))
        was = dict(leaves(json.loads((PARENT / parent).read_text())))
    assert got.keys() == was.keys()
    for key, value in was.items():
        if isinstance(value, float):
            assert abs(got[key] - value) <= 1e-12 * (1.0 + abs(value)), key
        else:
            assert got[key] == value and type(got[key]) is type(value), key
