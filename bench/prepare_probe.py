"""Set-up probe: import the CLI, then load, build and prepare each config.

Usage (with ``src`` on PYTHONPATH):

    python3 bench/prepare_probe.py CONFIG [CONFIG ...]

The benchmark times this whole process as ``setup_s``: interpreter start,
``import breatherlab.cli`` and the per-config preparation every command pays
before it computes anything, prepared exactly as the commands prepare it.
"""

import sys

from breatherlab.cli import _prepare, build_model, load_config

for path in sys.argv[1:]:
    cfg = load_config(path)
    _prepare(cfg, build_model(cfg))
