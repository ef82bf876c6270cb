"""Golden digests: the shipped configs, run at their own seeds, keep their bytes.

Every primary output file of the five shipped configs, and of the d = 2
bench config (the sparse LDL^T counting path), is pinned by its SHA-256.  A
change meant to be byte-neutral (a speed-up, a refactor) that moves any byte
fails here; a change that moves bytes on purpose updates the digest and names
the bytes and the reason in CHANGES.md.  ``ids`` and ``lifshitz`` run once
more on two worker processes, against the same digests.
"""

import hashlib
from pathlib import Path

import pytest

from breatherlab.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    ("validate", "validate_breather.json"): {
        "validate_report.json":
            "1fed73c3d7f31052e6e45da133e59789404dc95693c507025e48a5c1bd324e2b",
        "validate_report.txt":
            "e8b83322cc09c2bb84afbf93c95374f0884541677451d41d27895f3e74131874",
    },
    ("spectrum", "spectrum_small.json"): {
        "spectrum.csv":
            "42790ae3f8cf2f2c6873f2a2e14c471f5dfe82144bd6aff0a16fd5fc2f50ddb2",
    },
    ("ids", "ids_bracketing.json"): {
        "ids_curve.csv":
            "2f95b8084abd44f630171363c6e759d6c4e9f4467485b7e4663597db55b40ca1",
        "bracketing.json":
            "e41837f50709c07eb92997bac51378707f51c170a579f5fcff11f4483d8b7820",
    },
    ("bounds", "bounds.json"): {
        "bounds_report.json":
            "6e55a07f81ef1c8e81fdc40eaea48606f1aa62f8d4e22d34ca7ba67d1924b92d",
    },
    ("lifshitz", "lifshitz.json"): {
        "lifshitz.json":
            "a29e2ec1f0e751e32837935a666b768cb6c87f51468dbb5e456195aea1ccc4b1",
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
