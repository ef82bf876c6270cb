"""End-to-end command tests: exit codes, file formats, determinism, cache."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import breatherlab
from breatherlab import cli
from breatherlab.cli import main
from breatherlab.errors import (ConvergenceError, DomainError, GroundStateError, InputError,
                                NumericalError, PreconditionError, StateError)
from breatherlab.ids import synthetic_curve


def write_config(path, **overrides):
    cfg = {
        "schema_version": 1,
        "model": {
            "d": 1,
            "vper": {"kind": "zero"},
            "site": {"kind": "breather", "amplitude": 1.0, "radius": 0.4,
                     "standardized": True},
            "dist": {"kind": "uniform", "lambda_minus": 1.0, "lambda_plus": 2.0},
        },
        "grid": {"n": 16, "L": [4]},
        "solve": {"workers": 1},
        "experiment": {"seed": 7, "samples": 10},
        "output": {"dir": str(path.parent / "out")},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return cfg


SHIPPED = Path(__file__).resolve().parents[1] / "configs"


def spy_skeleton_builds(monkeypatch):
    """Count skeleton builds (the only box assemblies) per (L, bc kind)."""
    from collections import Counter

    from breatherlab import bounds as bounds_mod
    from breatherlab import lattice

    builds = Counter()
    build = lattice.skeleton

    def counted(model, grid, bc):
        builds[grid.L, bc.kind] += 1
        return build(model, grid, bc)

    for module in (lattice, bounds_mod):
        monkeypatch.setattr(module, "skeleton", counted)
    return builds


class TestValidate:
    def test_breather_passes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "validate_report.json").read_text())
        assert report["passed"] is True
        assert "config_hash" in report

    @staticmethod
    def run_sign_changing_site(tmp_path):
        """``validate`` on a tabulated site that takes both signs: (exit, out dir)."""
        cfg = tmp_path / "cfg.json"
        xg = list(np.linspace(-0.5, 0.5, 33))
        f = [float(np.sin(2 * np.pi * x)) for x in xg]
        write_config(
            cfg,
            model={
                "d": 1,
                "vper": {"kind": "zero"},
                "site": {"kind": "tabulated", "lambda_nodes": [0.0, 1.0],
                         "x_nodes": [xg],
                         "values": [[0.0] * 33, f]},
                "dist": {"kind": "uniform", "lambda_minus": 0.0, "lambda_plus": 1.0},
            },
        )
        out = tmp_path / "out"
        return main(["validate", "--config", str(cfg), "--out", str(out)]), out

    def test_sign_changing_alloy_fails(self, tmp_path):
        code, out = self.run_sign_changing_site(tmp_path)
        assert code == 1
        report = json.loads((out / "validate_report.json").read_text())
        assert report["verdicts"]["iii"] is False
        assert report["violation_site"][0] == "iii"

    def test_violation_site_prints_python_floats(self, tmp_path, capsys):
        # the report text reads the same under every NumPy version: no np.float64(...)
        code, out = self.run_sign_changing_site(tmp_path)
        text, stdout = (out / "validate_report.txt").read_text(), capsys.readouterr().out
        assert code == 1 and "np." not in text and "np." not in stdout
        kind, lam, point = json.loads((out / "validate_report.json").read_text())["violation_site"]
        line = next(ln for ln in text.splitlines() if ln.startswith("worst violation"))
        assert line.endswith(f" at {(kind, lam, tuple(point))!r}")

    def test_tabulated_values_of_wrong_shape_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={
            "d": 1, "vper": {"kind": "zero"},
            "site": {"kind": "tabulated", "lambda_nodes": [1.0, 2.0],
                     "x_nodes": [[-0.5, 0.0, 0.5]], "values": [[0.0, 0.0], [0.0, 1.0]]},
            "dist": {"kind": "uniform", "lambda_minus": 1.0, "lambda_plus": 2.0},
        })
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "model rejected: tabulated site values have shape (2, 2)" in err
        assert "Traceback" not in err
        # the sidecar explains the failed run with the printed line; no cache slot
        meta = json.loads((out / "validate_meta.json").read_text())
        assert meta["error"] == err.strip() and meta["cache"] == "miss"
        assert not (out / ".cache").exists()

    def test_site_table_short_of_coupling_range_exit_1(self, tmp_path, capsys):
        # nodes on [1, 1.5] leave u = 0 for couplings in (1.5, 2]
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={
            "d": 1, "vper": {"kind": "zero"},
            "site": {"kind": "tabulated", "lambda_nodes": [1.0, 1.5],
                     "x_nodes": [[-0.5, 0.0, 0.5]], "values": [[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]]},
            "dist": {"kind": "uniform", "lambda_minus": 1.0, "lambda_plus": 2.0},
        })
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("model rejected: tabulated site lambda_nodes must cover the "
                              "coupling range [1.0, 2.0]")
        assert "Traceback" not in err
        assert not (out / "validate_report.json").exists() and not (out / ".cache").exists()

    def test_site_table_unsorted_lambda_nodes_exit_1(self, tmp_path, capsys):
        # SciPy's interpolator would raise ValueError on the axis [2, 1, 1.5]
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={
            "d": 1, "vper": {"kind": "zero"},
            "site": {"kind": "tabulated", "lambda_nodes": [2.0, 1.0, 1.5],
                     "x_nodes": [[-0.5, 0.0, 0.5]], "values": [[0.0, 1.0, 0.0]] * 3},
            "dist": {"kind": "uniform", "lambda_minus": 1.0, "lambda_plus": 2.0},
        })
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("model rejected: tabulated site lambda_nodes must be strictly "
                              "increasing or strictly decreasing")
        assert "Traceback" not in err
        assert not (out / "validate_report.json").exists() and not (out / ".cache").exists()

    @pytest.mark.parametrize("command,primary", [("validate", "validate_report.json"),
                                                 ("spectrum", "spectrum.csv")])
    def test_site_table_past_cell_face_exit_1(self, tmp_path, capsys, command, primary):
        # u = lambda on [-1, 1] reaches into the neighbouring cells: assumption
        # (i) fails when the model is built, before any scan or assembly
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={
            "d": 1, "vper": {"kind": "zero"},
            "site": {"kind": "tabulated", "lambda_nodes": [1.0, 2.0],
                     "x_nodes": [[-1.0, 0.0, 1.0]], "values": [[1.0] * 3, [2.0] * 3]},
            "dist": {"kind": "uniform", "lambda_minus": 1.0, "lambda_plus": 2.0},
        }, experiment={"seed": 1, "realizations": 1})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("model rejected: tabulated site x_nodes must lie in [-1/2, 1/2]")
        assert "assumption (i)" in err and "Traceback" not in err
        assert not (out / primary).exists() and not (out / ".cache").exists()

    def test_truncated_beta_law_passes(self, tmp_path):
        # assumption (v) of a truncated-beta law: kappa is its first shape
        # parameter, certified on half the coupling range
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={
            "d": 1, "vper": {"kind": "cosine-sum", "amplitudes": [0.5]},
            "site": {"kind": "breather", "amplitude": 1.0, "radius": 0.4},
            "dist": {"kind": "truncated-beta", "lambda_minus": 1.0, "lambda_plus": 2.0,
                     "beta_a": 2.0, "beta_b": 3.0}})
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "validate_report.json").read_text())
        assert report["passed"] is True and report["verdicts"]["v"] is True
        assert report["kappa"] == 2.0
        # alpha = (1/2)^(b-1) / (a B(a, b) W^a) with B(2, 3) = 1/12
        assert report["alpha"] == pytest.approx(0.25 * 12.0 / 2.0, rel=1e-12)

    def test_out_naming_a_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        target = tmp_path / "afile"
        target.write_text("kept\n")
        assert main(["validate", "--config", str(cfg), "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert f"config error: output directory {target}" in err
        assert "Traceback" not in err
        assert target.read_text() == "kept\n"

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["validate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("name,message", [
        pytest.param("absent.json", "cannot read config", id="missing-file"),
        pytest.param(".", "cannot read config", id="directory"),
        pytest.param("list.json", "config root must be an object", id="root-not-object"),
    ])
    def test_unusable_config_exit_2(self, tmp_path, capsys, name, message):
        (tmp_path / "list.json").write_text("[1, 2]\n")
        out = tmp_path / "o"
        assert main(["validate", "--config", str(tmp_path / name), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_integer_past_the_digit_limit_exit_2(self, tmp_path, capsys):
        # the interpreter converts at most 4300 digits of an integer literal
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"schema_version": ' + "1" * 5000 + "}")
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_field_exit_2(self, tmp_path, capsys):
        for path in ("model.dist.lambda_minus", "model.dist.lambda_plus", "model.dist.kind",
                     "model.site.kind", "model.vper.kind", "model.vper", "model.site",
                     "model.dist", "grid.n", "schema_version"):
            cfg = tmp_path / "cfg.json"
            payload = write_config(cfg)
            *parents, key = path.split(".")
            node = payload
            for parent in parents:
                node = node[parent]
            del node[key]
            cfg.write_text(json.dumps(payload))
            out = tmp_path / "o"
            assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"missing field {path}" in err
            assert not out.exists()

    @pytest.mark.parametrize("damage", ["truncated-manifest", "missing-file"])
    def test_damaged_cache_entry_is_a_miss(self, tmp_path, damage):
        # a truncated manifest or a file gone from the slot: recomputed and
        # stored again, never a traceback
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "out"
        args = ["validate", "--config", str(cfg), "--out", str(out)]
        assert main(args) == 0
        key = json.loads((out / "validate_meta.json").read_text())["cache_key"]
        slot = out / ".cache" / f"validate-{key}"
        if damage == "truncated-manifest":
            text = (slot / "manifest.json").read_text()
            (slot / "manifest.json").write_text(text[:len(text) // 2])
        else:
            (slot / "validate_report.txt").unlink()
        primary = ("validate_report.json", "validate_report.txt")
        for name in primary:
            (out / name).unlink()
        assert main(args) == 0
        assert json.loads((out / "validate_meta.json").read_text())["cache"] == "miss"
        fresh = tmp_path / "fresh"
        assert main([*args[:-1], str(fresh), "--no-cache"]) == 0
        for name in primary:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        assert main(args) == 0
        assert json.loads((out / "validate_meta.json").read_text())["cache"] == "hit"


def test_cli_import_skips_stats_and_interpolate():
    # neither the package nor the command line loads a numerical library at import
    src = str(Path(breatherlab.__file__).resolve().parents[1])
    probe = ("import sys, breatherlab, breatherlab.cli; "
             "print(sorted(m for m in ('numpy', 'scipy', 'scipy.stats', 'scipy.interpolate') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_sha256_is_hashlibs(tmp_path):
    # the interpreter's SHA-256 gives hashlib's digests, so every config hash,
    # cache key and stored slot keeps its value; without it cli takes hashlib's
    import hashlib

    blob = json.dumps(write_config(tmp_path / "cfg.json"), sort_keys=True).encode()
    assert cli.sha256(blob).hexdigest() == hashlib.sha256(blob).hexdigest()
    source = hashlib.sha256()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    assert cli._source_digest() == source.digest()
    src = str(Path(breatherlab.__file__).resolve().parents[1])
    probe = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
             "import hashlib; from breatherlab import cli; print(cli.sha256 is hashlib.sha256)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "True"


def test_public_names_resolve_to_their_submodule():
    import importlib

    for name in breatherlab.__all__:
        home = importlib.import_module(f"breatherlab.{breatherlab._HOME[name]}")
        assert getattr(breatherlab, name) is getattr(home, name), name
    star = {}
    exec("from breatherlab import *", star)
    assert set(star) - {"__builtins__"} == set(breatherlab.__all__)
    assert set(breatherlab.__all__) <= set(dir(breatherlab))
    with pytest.raises(AttributeError):
        breatherlab.no_such_name


@pytest.mark.parametrize("command,name", [
    ("validate", "validate_breather.json"), ("spectrum", "spectrum_small.json"),
    ("ids", "ids_bracketing.json"), ("lifshitz", "lifshitz.json"), ("bounds", "bounds.json"),
])
def test_cache_hit_loads_no_numerical_library(tmp_path, command, name):
    out = tmp_path / "out"
    args = [command, "--config", str(SHIPPED / name), "--out", str(out)]
    code = main(args)
    primary = {p.name: p.read_bytes() for p in out.iterdir()
               if p.is_file() and p.name != f"{command}_meta.json"}
    for file in primary:
        (out / file).unlink()
    src = str(Path(breatherlab.__file__).resolve().parents[1])
    probe = ("import sys; from breatherlab.cli import main; "
             f"code = main({args!r}); "
             "print(code, sorted(m for m in ('numpy', 'scipy', 'dataclasses', 'numpy.random', "
             "'_hashlib') if m in sys.modules))")
    replay = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": src})
    assert replay.stdout.strip().splitlines()[-1] == f"{code} []"
    assert json.loads((out / f"{command}_meta.json").read_text())["cache"] == "hit"
    assert {file: (out / file).read_bytes() for file in primary} == primary


@pytest.mark.parametrize("command,name,scipy", [
    ("validate", "validate_breather.json", False), ("spectrum", "spectrum_small.json", False),
    ("ids", "ids_bracketing.json", False), ("lifshitz", "lifshitz.json", False),
    ("bounds", "bounds.json", False), ("ids", "../bench/configs/ids_2d.json", False),
    pytest.param("spectrum", {"grid": {"n": 64, "L": [40]}}, False,
                 id="spectrum-above-dense-threshold"),
    pytest.param("ids", {"model": {"d": 2}, "grid": {"n": 4, "L": [17]},
                         "experiment": {"seed": 7, "samples": 2,
                                        "energies": {"kind": "list", "values": [1.0, 5.0]}}},
                 True, id="ids-d2-lines-above-cutoff"),
])
def test_d1_commands_load_no_scipy(tmp_path, command, name, scipy):
    # a d = 1 run computes on NumPy alone, a box above DENSE_THRESHOLD too, and
    # so does a d = 2 ids run, whose counting blocks run the line kernel; lines
    # longer than spectral.LINE_POINTS (68 > 64 points here) count through
    # SuperLU; at one worker no run loads the process-pool machinery, and a
    # SciPy-free run loads neither numpy.random, numpy.ma nor OpenSSL's
    # _hashlib (SciPy itself loads them, so they are asked of SciPy-free runs
    # only)
    if isinstance(name, str):
        config = SHIPPED / name
    else:  # write_config overrides
        config = tmp_path / "cfg.json"
        write_config(config, **name)
    args = [command, "--config", str(config), "--out", str(tmp_path / "out"), "--no-cache"]
    src = str(Path(breatherlab.__file__).resolve().parents[1])
    probe = ("import sys; from breatherlab.cli import main; "
             f"code = main({args!r}); "
             "sp = any(m.split('.')[0] == 'scipy' for m in sys.modules); "
             "print(code, sp, 'multiprocessing' in sys.modules, "
             "not sp and 'concurrent.futures' in sys.modules, "
             "not sp and 'numpy.random' in sys.modules, not sp and '_hashlib' in sys.modules, "
             "not sp and 'numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip().splitlines()[-1] == f"0 {scipy} False False False False False"


@pytest.mark.parametrize("user", [None, "3"])
def test_cli_shortens_blas_spin(tmp_path, user):
    # a CLI run sets OpenBLAS's idle spin before NumPy loads, unless the user
    # set one, and its meta sidecar says which
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(Path(breatherlab.__file__).resolve().parents[1])
    if user:
        env["OPENBLAS_THREAD_TIMEOUT"] = user
    args = ["validate", "--config", str(SHIPPED / "validate_breather.json"),
            "--out", str(tmp_path), "--no-cache"]
    probe = ("import os; from breatherlab.cli import main; "
             f"code = main({args!r}); print(code, os.environ['OPENBLAS_THREAD_TIMEOUT'])")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    value = user or cli.BLAS_SPIN[1]
    assert run.stdout.strip().splitlines()[-1] == f"0 {value}"
    meta = json.loads((tmp_path / "validate_meta.json").read_text())
    assert meta["blas_spin"] == {"OPENBLAS_THREAD_TIMEOUT": value,
                                 "set_by": "user" if user else "cli"}
    assert meta["worker_pools"] == 0


def test_library_call_sets_no_blas_spin():
    # only the command line touches the environment: the quickstart leaves it alone
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(Path(breatherlab.__file__).resolve().parents[1])
    readme = Path(__file__).resolve().parents[1] / "README.md"
    probe = ("import os, breatherlab; "
             f"text = open({str(readme)!r}).read(); "
             "block = text.split('## Library quickstart\\n\\n```python\\n', 1)[1]"
             ".split('```', 1)[0]; "
             "exec(block, {}); print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    assert run.stdout.strip().splitlines()[-1] == "None"


@pytest.mark.parametrize("command,name,pool", [
    pytest.param("ids", "ids_bracketing.json", [], id="ids-ids_bracketing.json"),
    pytest.param("lifshitz", "lifshitz.json", [2], id="lifshitz-lifshitz.json"),
    pytest.param("ids", "../bench/configs/ids_2d.json", [2], id="ids-ids_2d.json"),
])
def test_one_worker_pool_per_run(tmp_path, monkeypatch, capsys, command, name, pool):
    # at two workers every counting block of a run (all box sides, all energy
    # points) goes to one pool in one map call, which submits them all before
    # it waits on any, where the run's work exceeds ids.POOL_WORK: not on
    # ids_bracketing.json, whose counting takes less than opening a pool; at
    # one worker no pool is built
    import concurrent.futures

    built, maps = [], []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            maps.append(fn)
            return super().map(fn, *iterables, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    environ = dict(os.environ)
    for workers, pools in ((1, []), (2, pool)):
        out = tmp_path / str(workers)
        assert main([command, "--config", str(SHIPPED / name), "--out", str(out),
                     "--workers", str(workers), "--no-cache"]) == 0
        assert built == pools
        assert len(maps) == len(pools)
        assert json.loads((out / f"{command}_meta.json").read_text())["worker_pools"] == len(pools)
    assert dict(os.environ) == environ  # an in-process run leaves the environment alone


def test_meta_records_peak_rss(tmp_path):
    # the sidecar, not a primary output, records the peak RSS of the run's own
    # process and of the largest pool worker it waited for, and the minor page
    # faults of its own process
    out = tmp_path / "out"
    assert main(["lifshitz", "--config", str(SHIPPED / "lifshitz.json"), "--out", str(out),
                 "--workers", "2"]) == 0
    meta = json.loads((out / "lifshitz_meta.json").read_text())
    assert meta["peak_rss_mb"] > 0 and meta["pool_peak_rss_mb"] > 0
    assert isinstance(meta["minor_faults"], int) and meta["minor_faults"] >= 0
    assert "rss" not in (out / "lifshitz.json").read_text()


def test_cli_import_is_stdlib_only():
    src = str(Path(breatherlab.__file__).resolve().parents[1])
    probe = ("import sys; before = set(sys.modules); import breatherlab.cli; "
             "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} "
             "- set(sys.stdlib_module_names)))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "['breatherlab']"


@pytest.mark.parametrize("error,code", [
    (GroundStateError, 1), (DomainError, 1), (StateError, 1), (NumericalError, 3),
    (ConvergenceError, 3), (PreconditionError, 5), (InputError, 1),
])
def test_library_error_maps_to_exit_code(tmp_path, monkeypatch, capsys, error, code):
    def command(cfg, out_dir, digest):
        raise error("raised inside the command")

    monkeypatch.setitem(cli.COMMANDS, "validate", command)
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--no-cache"]) == code
    err = capsys.readouterr().err
    meta = json.loads((tmp_path / "out" / "validate_meta.json").read_text())
    assert meta["error"] == err.strip()
    assert err.endswith(": raised inside the command\n")
    assert err.startswith("model rejected: ") == (code == 1)
    assert "Traceback" not in err


BAD_EXPERIMENT_FIELDS = [
    pytest.param("bounds", "bernoulli_p", [1.5], id="p-above-one"),
    pytest.param("bounds", "bernoulli_p", [0.0], id="p-zero"),
    pytest.param("bounds", "bernoulli_p", 0.5, id="p-not-a-list"),
    pytest.param("bounds", "bernoulli_Ld", [0], id="Ld-zero"),
    pytest.param("bounds", "bernoulli_Ld", [8.5], id="Ld-fractional"),
    pytest.param("bounds", "gamma", -1.0, id="gamma-negative"),
    pytest.param("bounds", "gamma", 0, id="gamma-zero"),
    pytest.param("lifshitz", "curve_csv", "no-such-curve.csv", id="csv-missing"),
    pytest.param("bounds", "experiment", [0.5], id="section-not-an-object"),
    pytest.param("spectrum", "seed", -1, id="seed-negative"),
    pytest.param("spectrum", "seed", 2**64, id="seed-too-large"),
    pytest.param("spectrum", "seed", "7", id="seed-string"),
    pytest.param("bounds", "samples", 0, id="bounds-samples-zero"),
    pytest.param("ids", "samples", 0, id="ids-samples-zero"),
    pytest.param("lifshitz", "samples", 0, id="lifshitz-samples-zero"),
    pytest.param("spectrum", "eigenvalues", "four", id="eigenvalues-string"),
    pytest.param("spectrum", "realizations", -1, id="realizations-negative"),
    pytest.param("lifshitz", "L_max", 0, id="L_max-zero"),
    pytest.param("validate", "lambda_grid_size", 8, id="lambda-grid-too-coarse"),
    pytest.param("validate", "x_grid_size", 256.0, id="x-grid-float"),
    pytest.param("bounds", "temple_Ls", [4.5], id="temple-Ls-fractional"),
    pytest.param("bounds", "temple_Ls", [], id="temple-Ls-empty"),
    pytest.param("bounds", "temple_Ls", [4, 4], id="temple-Ls-repeated"),
    pytest.param("bounds", "gap_Ls", [4], id="gap-Ls-single"),
    pytest.param("ids", "energies", {"kind": "linear", "start": 0.5, "stop": 8.0,
                                     "count": "six"}, id="energies-count-string"),
    pytest.param("ids", "energies", {"kind": "geometric", "start": 0.0, "stop": 1.0,
                                     "count": 4}, id="energies-geometric-zero"),
    pytest.param("ids", "energies", {"kind": "cubic", "start": 0.5, "stop": 1.0,
                                     "count": 4}, id="energies-kind-unknown"),
    pytest.param("ids", "energies", {"values": []}, id="energies-list-empty"),
    pytest.param("lifshitz", "energies", [0.1, 0.2], id="energies-not-an-object"),
    pytest.param("lifshitz", "window", [0.1, 1e-4], id="window-reversed"),
    pytest.param("lifshitz", "window", [0.0, 0.1], id="window-zero"),
    pytest.param("lifshitz", "tolerance_band", [-0.3, -0.8], id="band-reversed"),
    pytest.param("lifshitz", "fit_boundary", "X", id="fit-boundary-unknown"),
    pytest.param("lifshitz", "target", "half", id="target-string"),
    pytest.param("spectrum", "include_periodic", "false", id="include-periodic-string"),
    pytest.param("ids", "energies", {"values": [2.0, 0.5]}, id="energies-unsorted"),
    pytest.param("validate", "energies", {"values": [2.0, 0.5]}, id="energies-unsorted-validate"),
    pytest.param("lifshitz", "energies", {"kind": "geometric", "start": 0.3, "stop": 0.05,
                                          "count": 4}, id="energies-descending"),
    pytest.param("ids", "energies", {"kind": "linear", "start": 0.5, "stop": 8.0, "count": 6,
                                     "cnt": 6}, id="energies-unknown-key"),
    pytest.param("ids", "energies", {"kind": "linear", "start": 0.5, "count": 6},
                 id="energies-stop-missing"),
    pytest.param("ids", "energies", {"kind": "linear", "start": -1e308, "stop": 1e308,
                                     "count": 3}, id="energies-linear-span-overflows"),
    pytest.param("lifshitz", "sampels", 10, id="samples-misspelt"),
    pytest.param("spectrum", "boundary", 5, id="boundary-number"),
    pytest.param("spectrum", "boundary", "DM", id="boundary-string"),
    pytest.param("spectrum", "boundary", ["X"], id="boundary-unknown-label"),
]


@pytest.mark.parametrize("command,field,value", BAD_EXPERIMENT_FIELDS)
def test_bad_experiment_field_exit_2(tmp_path, capsys, command, field, value):
    cfg = tmp_path / "cfg.json"
    if field == "experiment":
        write_config(cfg, experiment=value)
    else:
        value = str(tmp_path / value) if field == "curve_csv" else value
        write_config(cfg, experiment={"seed": 11, "samples": 3, field: value})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    # rejected while loading the config: the output directory is never made
    assert not out.exists()


def dist(**fields):
    return {"dist": {"kind": "uniform", "lambda_minus": 1.0, "lambda_plus": 2.0, **fields}}


def site(**fields):
    return {"site": {"kind": "breather", "amplitude": 1.0, "radius": 0.4,
                     "standardized": True, **fields}}


BAD_SECTION_FIELDS = [
    pytest.param("solve", {"dense_threshold": 100}, "solve.dense_threshold",
                 id="dense-threshold"),
    pytest.param("solve", {"eig_tol": 1e-9}, "solve.eig_tol", id="eig-tol"),
    pytest.param("solve", {"pivot_tol": 1e-12}, "solve.pivot_tol", id="pivot-tol"),
    pytest.param("output", {"formats": ["csv", "json"]}, "output.formats", id="formats"),
    pytest.param("solve", {"worker": 2}, "solve.worker", id="solve-misspelt"),
    pytest.param("grid", {"L": ["four"]}, "grid.L", id="L-string"),
    pytest.param("grid", {"L": [4.5]}, "grid.L", id="L-fractional"),
    pytest.param("grid", {"L": [0]}, "grid.L", id="L-zero"),
    pytest.param("grid", {"n": 2}, "grid.n", id="n-two"),
    pytest.param("grid", {"L": [4, 4]}, "grid.L", id="L-repeated"),
    pytest.param("solve", {"workers": 1.5}, "solve.workers", id="workers-fractional"),
    pytest.param("model", {"d": 4}, "model.d", id="d-four"),
    pytest.param("model", {"d": "1"}, "model.d", id="d-string"),
    pytest.param("model", dist(lambda_minus="one"), "model.dist.lambda_minus",
                 id="lambda-minus-string"),
    pytest.param("model", dist(lambda_plus=float("nan")), "model.dist.lambda_plus",
                 id="lambda-plus-nan"),
    pytest.param("model", dist(kind="two-point-plus-uniform", atom_mass_at_min="half"),
                 "model.dist.atom_mass_at_min", id="atom-mass-string"),
    pytest.param("model", site(amplitude=[1.0]), "model.site.amplitude",
                 id="amplitude-list"),
    pytest.param("model", site(radius=None), "model.site.radius", id="radius-null"),
    pytest.param("model", site(radius=10**400), "model.site.radius", id="radius-huge-integer"),
    pytest.param("model", dist(lambda_plus=-10**400), "model.dist.lambda_plus",
                 id="lambda-plus-huge-integer"),
    pytest.param("model", site(standardized="false"), "model.site.standardized",
                 id="standardized-string"),
    pytest.param("model", {"vper": {"kind": "square"}}, "model.vper.kind", id="vper-kind"),
    pytest.param("model", site(kind="bump"), "model.site.kind", id="site-kind"),
    pytest.param("model", dist(kind="gauss"), "model.dist.kind", id="dist-kind"),
    pytest.param("model", {"vper": {"kind": "cosine-sum", "amplitudes": "abc"}},
                 "model.vper.amplitudes", id="amplitudes-string"),
    pytest.param("model", {"vper": {"kind": "cosine-sum"}}, "model.vper.amplitudes",
                 id="amplitudes-missing"),
    pytest.param("model", {"vper": {"kind": "tabulated", "values": [[0.0], [0.0, 1.0]]}},
                 "model.vper.values", id="vper-values-ragged"),
    pytest.param("model", site(kind="tabulated", lambda_nodes=["a"], x_nodes=[[0.0, 1.0]],
                               values=[[0.0, 0.0]]),
                 "model.site.lambda_nodes", id="lambda-nodes-string"),
    pytest.param("model", site(kind="tabulated", lambda_nodes=[1.0, 2.0], x_nodes=[0.0, 1.0],
                               values=[[0.0, 0.0], [0.0, 1.0]]),
                 "model.site.x_nodes", id="x-nodes-flat"),
    pytest.param("model", site(kind="tabulated", lambda_nodes=[1.0, 2.0], x_nodes=[[0.0, 1.0]],
                               values=[[0.0, float("nan")], [0.0, 1.0]]),
                 "model.site.values", id="site-values-nan"),
    pytest.param("model", dist(kind="truncated-beta", beta_a="x", beta_b=2.0),
                 "model.dist.beta_a", id="beta-a-string"),
    pytest.param("model", dist(kind="truncated-beta", beta_a=2.0), "model.dist.beta_b",
                 id="beta-b-missing"),
    pytest.param("model", dist(sigma=1.0), "model.dist.sigma", id="dist-unknown-key"),
    pytest.param("grid", {"N": 16}, "grid.N", id="grid-unknown-key"),
    pytest.param("output", {"dir": 5}, "output.dir", id="dir-number"),
    pytest.param("modle", {"d": 1}, "modle", id="root-unknown-key"),
]


@pytest.mark.parametrize("flag,value,field", [
    pytest.param("--seed", "-1", "experiment.seed", id="seed-negative"),
    pytest.param("--workers", "0", "solve.workers", id="workers-zero"),
])
def test_bad_override_exit_2(tmp_path, capsys, flag, value, field):
    # the overrides are checked like the config fields they replace
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("section,block,field", BAD_SECTION_FIELDS)
def test_bad_solve_output_grid_field_exit_2(tmp_path, capsys, section, block, field):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **{section: block})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,overrides,field", [
    pytest.param("ids", {}, "experiment.energies", id="ids-needs-energies"),
    pytest.param("lifshitz", {}, "experiment.energies", id="inline-lifshitz-needs-energies"),
    pytest.param("validate", {"model": {"d": 2, "vper": {"kind": "cosine-sum",
                                                         "amplitudes": [0.5, 0.5]}},
                              "experiment": {"seed": 1, "x_grid_size": 2048}},
                 "x_grid_size ** model.d", id="x-grid-over-scan-cap-at-d-2"),
    pytest.param("spectrum", {"grid": {"n": 16, "L": [4, 2**18 + 1]}}, "largest box side",
                 id="box-over-point-cap"),
    pytest.param("bounds", {"experiment": {"seed": 1, "temple_Ls": [2**18 + 1]}},
                 "largest box side", id="temple-box-over-point-cap"),
    pytest.param("ids", {"experiment": {"seed": 1, "samples": 2**20,
                                        "energies": {"values": [1.0]}}},
                 "experiment.samples * box points", id="samples-over-value-cap"),
    pytest.param("validate", {"experiment": {"seed": 1, "lambda_grid_size": 2**20}},
                 "experiment.lambda_grid_size * x_grid_size", id="scan-over-value-cap"),
])
def test_cross_field_rule_exit_2(tmp_path, capsys, command, overrides, field):
    # rules that join two fields, or a field and the command, are checked at load too
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("samples,ok", [(2**16, True), (2**16 + 1, False)])
def test_samples_cap_charges_both_conditions(tmp_path, samples, ok):
    # a counting block holds its realizations under D and M: 2 * samples * box
    # points <= MAX_VALUES, which 2 * 2^16 * (16 * 16) meets exactly
    cfg = tmp_path / "cfg.json"
    write_config(cfg, grid={"n": 16, "L": [16]},
                 experiment={"seed": 1, "samples": samples, "energies": {"values": [1.0]}})
    assert 2 * 2**16 * 16 * 16 == cli.MAX_VALUES
    if ok:
        cli.load_config(str(cfg), command="ids")
    else:
        with pytest.raises(cli.ConfigError, match=r"2 \* experiment.samples \* box points"):
            cli.load_config(str(cfg), command="ids")


def test_samples_cap_spares_commands_without_samples(tmp_path):
    # spectrum reads no experiment.samples: its default of 50 would charge
    # 2 * 50 * 480000 > MAX_VALUES to a box that spectrum accepts; a library
    # call (no command) still meets every rule
    path = tmp_path / "cfg.json"
    cfg = write_config(path, grid={"n": 16, "L": [30000]},
                       experiment={"seed": 1, "eigenvalues": 1, "realizations": 0,
                                   "boundary": ["D"], "energies": {"values": [1.0]}})
    del cfg["experiment"]["samples"]
    path.write_text(json.dumps(cfg))
    assert cli.load_config(str(path), command="spectrum")["grid"]["L"] == [30000]
    for command in ("ids", "lifshitz", "bounds", None):
        with pytest.raises(cli.ConfigError, match=r"2 \* experiment.samples \* box points"):
            cli.load_config(str(path), command=command)


def test_x_grid_size_charged_to_validate_only(tmp_path):
    # only validate reads experiment.x_grid_size: spectrum runs at d = 2 with
    # 2048 ** 2 scan points, more than an assumption scan may visit
    cfg = tmp_path / "cfg.json"
    write_config(cfg, model={"d": 2, "vper": {"kind": "cosine-sum", "amplitudes": [0.5, 0.5]},
                             "site": {"kind": "breather", "amplitude": 1.0, "radius": 0.4},
                             "dist": {"kind": "uniform", "lambda_minus": 1.0,
                                      "lambda_plus": 2.0}},
                 grid={"n": 4, "L": [2]},
                 experiment={"seed": 1, "x_grid_size": 2048, "realizations": 1})
    assert 2048**2 > breatherlab.model.X_SCAN_POINTS
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "spectrum.csv").exists()


def test_validate_builds_no_box(tmp_path):
    # validate builds no box and reads no experiment.samples, so a wide grid.L
    # charges it nothing; a library call (no command) still meets every rule
    path, cfg = tmp_path / "cfg.json", json.loads((SHIPPED / "validate_breather.json").read_text())
    cfg["grid"]["L"] = [30000]
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    with pytest.raises(cli.ConfigError, match=r"2 \* experiment.samples \* box points"):
        cli.load_config(str(path))


@pytest.mark.parametrize("energies", [
    {"values": [-0.1, 0.5, 1.0]},
    {"kind": "linear", "start": 0.0, "stop": 1.0, "count": 6},
])
def test_lifshitz_nonpositive_energy_exit_2(tmp_path, energies):
    # box matching needs E > 0: decided from the block at load, before NumPy
    cfg = tmp_path / "cfg.json"
    write_config(cfg, experiment={"seed": 1, "energies": energies})
    out = tmp_path / "out"
    args = ["lifshitz", "--config", str(cfg), "--out", str(out)]
    src = str(Path(breatherlab.__file__).resolve().parents[1])
    probe = ("import sys; from breatherlab.cli import main; "
             f"code = main({args!r}); print(code, 'numpy' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip().splitlines()[-1] == "2 False"
    assert "experiment.energies" in run.stderr
    assert "Traceback" not in run.stderr
    assert not out.exists()


def test_readme_field_table_matches_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| path | rule | default |\n", 1)[1].split("\n\n", 1)[0]
    paths = [row.split("|")[1].strip().strip("`") for row in table.splitlines()[1:]]
    assert paths == list(cli.FIELDS)


def test_readme_stream_table_matches_code():
    # the stream paragraph states every role's base, shift and width, and the
    # cap sentence the bounds samples cap that those widths set
    from breatherlab.errors import STREAMS

    def number(text):  # "20", or a power "2⁶²"
        text = text.strip()
        sup = text[1:].translate(str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789"))
        return 2 ** int(sup) if text[0] == "2" and sup != text[1:] else int(text)

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| role | base | shift | width |", 1)[1].split("\n\n", 1)[0]
    rows = [row.split("|")[1:5] for row in table.splitlines()[2:]]
    assert {role.strip().strip("`"): tuple(map(number, cells)) for role, *cells in rows} == STREAMS
    cap = readme.split("`bounds` takes at most ", 1)[1].split(" samples", 1)[0]
    assert number(cap) == cli.MAX_BOUNDS_SAMPLES
    widths = readme.split("`dirichlet` streams, whose count fields are ", 1)[1].split(" bits", 1)[0]
    assert widths.split() == [str(STREAMS["temple"][2]), "and", str(STREAMS["dirichlet"][2])]


def test_readme_kernel_constants_match_code():
    # every README mention of the line kernel's cutoff and stack cap states
    # the value in spectral
    import re

    from breatherlab import spectral

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sup = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
    lines = re.findall(r"`(?:spectral\.)?LINE_POINTS` = (\d+)", readme)
    stacks = re.findall(r"`(?:spectral\.)?STACK_VALUES` = 2([⁰¹²³⁴⁵⁶⁷⁸⁹]+)", readme)
    assert len(lines) >= 2 and len(stacks) >= 1
    assert {int(v) for v in lines} == {spectral.LINE_POINTS}
    assert {2 ** int(v.translate(sup)) for v in stacks} == {spectral.STACK_VALUES}
    assert f"lines of at most {spectral.LINE_POINTS} points" in " ".join(readme.split())


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "readme.json"
    cfg.write_text("\n".join(line.split("//", 1)[0] for line in block.splitlines()))
    cli.build_model(cli.load_config(str(cfg)))


def test_readme_library_quickstart_runs(capsys):
    # the documented library API: a signature change that breaks it fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quickstart\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.strip().splitlines()) == 5


class TestSpectrum:
    def test_degenerate_ground_state_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={
            "d": 1, "vper": {"kind": "cosine-sum", "amplitudes": [1e9]},
            "site": {"kind": "breather", "amplitude": 1.0, "radius": 0.4},
            "dist": {"kind": "uniform", "lambda_minus": 1.0, "lambda_plus": 2.0}})
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("model rejected: periodic ground state")
        assert "Traceback" not in err

    def test_free_dirichlet_matches_closed_form(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, experiment={"seed": 7, "eigenvalues": 3,
                                      "realizations": 0, "boundary": ["D"]})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "spectrum.csv").read_text().strip().split("\n")
        assert lines[0] == "L,n,bc,index,k,E,residual"
        N, h = 64, 1 / 16
        for row, m in zip(lines[1:4], range(1, 4)):
            parts = row.split(",")
            oracle = (4 / h**2) * np.sin(m * np.pi / (2 * N)) ** 2
            assert float(parts[5]) == pytest.approx(oracle, abs=1e-9)

    def test_mezincescu_first_row_constant_across_L(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            model={"d": 1, "vper": {"kind": "cosine-sum", "amplitudes": [0.5]},
                   "site": {"kind": "breather", "amplitude": 1.0, "radius": 0.4},
                   "dist": {"kind": "uniform", "lambda_minus": 1.0,
                            "lambda_plus": 2.0}},
            grid={"n": 16, "L": [2, 4, 6]},
            experiment={"seed": 7, "eigenvalues": 1, "realizations": 0,
                        "boundary": ["M"]},
        )
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "spectrum.csv").read_text().strip().split("\n")[1:]
        firsts = [float(r.split(",")[5]) for r in rows if r.split(",")[4] == "1"]
        assert len(firsts) == 3
        # normalized model: the periodic ground level sits at zero for every L
        assert all(abs(e) <= 1e-8 for e in firsts)

    def test_convergence_failure_exit_3_keeps_rows(self, tmp_path, monkeypatch, capsys):
        from breatherlab import spectral

        solve, calls = spectral.lowest_eigenvalues, []

        def second_fails(*args):
            calls.append(1)
            if len(calls) == 2:
                raise ConvergenceError("no convergence in the second solve")
            return solve(*args)

        monkeypatch.setattr(spectral, "lowest_eigenvalues", second_fails)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, grid={"n": 16, "L": [4, 6]},
                     experiment={"seed": 3, "eigenvalues": 2, "realizations": 1,
                                 "boundary": ["D"]})
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        rows = (out / "spectrum.csv").read_text().strip().split("\n")[1:]
        # the first box's two operators (periodic and one realization), m = 2 each
        assert len(rows) == 4 and {row.split(",")[0] for row in rows} == {"4"}
        assert not (out / ".cache").exists()
        meta = json.loads((out / "spectrum_meta.json").read_text())
        assert meta["error"] == "solver non-convergence: no convergence in the second solve"
        assert meta["cache"] == "miss"

    def test_tabulated_background_matches_cosine_sum(self, tmp_path):
        # V_per tabulated at the cosine sum's own cell samples gives the same
        # spectrum, bit for bit; samples on a grid of another size exit 1
        from breatherlab.model import PeriodicPotentialSpec

        shipped = json.loads((SHIPPED / "spectrum_small.json").read_text())
        cell = PeriodicPotentialSpec(kind="cosine-sum", amplitudes=(0.5,)).sample_cell(16, 1)
        outs = {}
        for name, vper in (("cosine", shipped["model"]["vper"]),
                           ("tabulated", {"kind": "tabulated", "values": cell.tolist()}),
                           ("coarse", {"kind": "tabulated", "values": cell[::2].tolist()})):
            cfg, outs[name] = tmp_path / f"{name}.json", tmp_path / name
            cfg.write_text(json.dumps({**shipped, "model": {**shipped["model"], "vper": vper}}))
            code = main(["spectrum", "--config", str(cfg), "--out", str(outs[name]),
                         "--no-cache"])
            assert code == (1 if name == "coarse" else 0)
        assert ((outs["tabulated"] / "spectrum.csv").read_bytes()
                == (outs["cosine"] / "spectrum.csv").read_bytes())
        meta = json.loads((outs["coarse"] / "spectrum_meta.json").read_text())
        assert meta["error"] == ("model rejected: tabulated potential sampled at (8,), "
                                 "grid wants (16,)")

    def test_rerun_identical_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, experiment={"seed": 3, "eigenvalues": 2,
                                      "realizations": 2, "boundary": ["D", "M"]})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out1),
                     "--no-cache"]) == 0
        assert main(["spectrum", "--config", str(cfg), "--out", str(out2),
                     "--no-cache"]) == 0
        assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2**60, 2**60)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def near(x, ulps):
    """``x`` moved by ``ulps`` units in the last place (towards +inf if positive)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


ENERGY_BLOCKS = st.one_of(
    st.builds(lambda values: {"kind": "list", "values": values},
              st.lists(FINITE, min_size=1, max_size=8)),
    st.builds(lambda start, stop, count: {"kind": "linear", "start": start, "stop": stop,
                                          "count": count},
              FINITE, FINITE, st.integers(1, 40)),
    st.builds(lambda start, stop, count: {"kind": "geometric", "start": start, "stop": stop,
                                          "count": count},
              POSITIVE, POSITIVE, st.integers(1, 40)),
    # ranges whose ends are a few ulps apart, where exp(log E) can reorder the grid
    st.builds(lambda kind, start, ulps, count: {"kind": kind, "start": start,
                                                "stop": near(start, ulps), "count": count},
              st.sampled_from(["linear", "geometric"]), POSITIVE.filter(lambda x: x < 1e300),
              st.integers(-4, 4), st.integers(1, 40)),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(block=ENERGY_BLOCKS)
def test_order_check_matches_the_built_grid(block):
    # the rules checked before the order: a linear span must be finite
    if block["kind"] == "linear" and not math.isfinite(float(block["stop"])
                                                      - float(block["start"])):
        return
    with np.errstate(all="ignore"):
        built = bool(np.any(np.diff(cli.energies_from(block)) < 0))
    assert cli._descending(block) == built


class TestIds:
    def test_failed_bracketing_exit_1(self, tmp_path, capsys):
        # one sample has no standard error to absorb a rise of the ground-state
        # estimate from side 3 to side 4, so the upper monotone check fails
        cfg = tmp_path / "cfg.json"
        write_config(cfg, grid={"n": 16, "L": [3, 4]}, experiment={
            "seed": 1, "samples": 1, "energies": {"kind": "list", "values": [1.0, 3.0]}})
        out = tmp_path / "out"
        assert main(["ids", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "bracketing all_pass=False" in captured.out
        assert "Traceback" not in captured.err
        report = json.loads((out / "bracketing.json").read_text())
        assert (report["all_pass"], report["upper_monotone"]) == (False, False)

    @pytest.mark.parametrize("kind", ["linear", "geometric"])
    def test_constant_range_loads_and_runs(self, tmp_path, kind):
        E = 8.55496088241544
        cfg = tmp_path / "cfg.json"
        write_config(cfg, experiment={"seed": 5, "samples": 3, "energies": {
            "kind": kind, "start": E, "stop": E, "count": 14}})
        out = tmp_path / "out"
        assert main(["ids", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "ids_curve.csv").read_text().strip().split("\n")[1:]
        assert [float(row.split(",")[0]) for row in rows] == [E] * 14

    def test_scalar_box_side_is_a_one_side_list(self, tmp_path):
        # grid.L = 4 loads as [4]: the same files, config_hash included
        shipped = json.loads((SHIPPED / "ids_bracketing.json").read_text())
        outs = []
        for side in (4, [4]):
            cfg, out = tmp_path / f"{side!r}.json", tmp_path / f"out{len(outs)}"
            cfg.write_text(json.dumps({**shipped, "grid": {**shipped["grid"], "L": side}}))
            assert main(["ids", "--config", str(cfg), "--out", str(out), "--no-cache"]) == 0
            outs.append(out)
        assert (outs[0] / "ids_curve.csv").read_bytes() == (outs[1] / "ids_curve.csv").read_bytes()
        hashes = [json.loads((out / "ids_meta.json").read_text())["config_hash"] for out in outs]
        assert hashes[0] == hashes[1]

    def test_smoke_run_nondecreasing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            grid={"n": 16, "L": [4, 8]},
            experiment={"seed": 5, "samples": 10,
                        "energies": {"kind": "linear", "start": 0.0,
                                     "stop": 6.0, "count": 5}},
        )
        out = tmp_path / "out"
        assert main(["ids", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "ids_curve.csv").read_text().strip().split("\n")
        assert lines[0] == "E,N_D,se_D,N_M,se_M,L,n,M,seed"
        by_L = {}
        for row in lines[1:]:
            p = row.split(",")
            by_L.setdefault(p[5], []).append((float(p[0]), float(p[1]), float(p[3])))
        for rows in by_L.values():
            vals_D = [r[1] for r in rows]
            vals_M = [r[2] for r in rows]
            assert vals_D == sorted(vals_D)
            assert vals_M == sorted(vals_M)
        bracketing = json.loads((out / "bracketing.json").read_text())
        assert bracketing["pathwise_violations"] == 0

    def test_degenerate_atom_rejected_exit_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            model={"d": 1, "vper": {"kind": "zero"},
                   "site": {"kind": "breather", "amplitude": 1.0, "radius": 0.4},
                   "dist": {"kind": "two-point-plus-uniform", "lambda_minus": 1.0,
                            "lambda_plus": 2.0, "atom_mass_at_min": 1.0}},
            experiment={"seed": 5, "samples": 5,
                        "energies": {"kind": "list", "values": [1.0]}},
        )
        assert main(["ids", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 1

    def test_each_curve_estimated_once(self, tmp_path, monkeypatch):
        from breatherlab import ids as ids_mod

        calls = []
        estimate = ids_mod.estimate_ids

        def spy(*args, **kwargs):
            calls.append(list(args[2]))
            return estimate(*args, **kwargs)

        monkeypatch.setattr(ids_mod, "estimate_ids", spy)
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            grid={"n": 16, "L": [4, 8]},
            experiment={"seed": 5, "samples": 6,
                        "energies": {"kind": "list", "values": [0.5, 2.0]}},
        )
        out = tmp_path / "out"
        assert main(["ids", "--config", str(cfg), "--out", str(out)]) == 0
        assert calls == [[4, 8]]
        assert (out / "bracketing.json").is_file()

    def test_cache_hit_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            experiment={"seed": 5, "samples": 5,
                        "energies": {"kind": "list", "values": [0.5, 2.0]}},
        )
        out = tmp_path / "out"
        assert main(["ids", "--config", str(cfg), "--out", str(out)]) == 0
        first = (out / "ids_curve.csv").read_bytes()
        assert (out / ".cache").is_dir()
        assert main(["ids", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((out / "ids_meta.json").read_text())
        assert meta["cache"] == "hit"
        assert (out / "ids_curve.csv").read_bytes() == first
        # disabling the cache changes nothing about the payload
        out2 = tmp_path / "out2"
        assert main(["ids", "--config", str(cfg), "--out", str(out2),
                     "--no-cache"]) == 0
        assert (out2 / "ids_curve.csv").read_bytes() == first

    def test_source_change_misses_cache(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            experiment={"seed": 5, "samples": 3,
                        "energies": {"kind": "list", "values": [0.5]}},
        )
        out = tmp_path / "out"
        args = ["ids", "--config", str(cfg), "--out", str(out)]
        assert main(args) == 0
        monkeypatch.setattr(cli, "_source_digest", lambda: b"other source")
        assert main(args) == 0
        assert json.loads((out / "ids_meta.json").read_text())["cache"] == "miss"
        assert main(args) == 0
        assert json.loads((out / "ids_meta.json").read_text())["cache"] == "hit"

    @pytest.mark.parametrize("library", ["python", "numpy", "scipy"])
    def test_library_version_change_misses_cache(self, tmp_path, monkeypatch, library):
        # a slot stored under other library versions is not replayed
        import importlib.util
        from importlib.machinery import ModuleSpec

        cfg = tmp_path / "cfg.json"
        write_config(cfg, experiment={"seed": 5, "samples": 3,
                                      "energies": {"kind": "list", "values": [0.5]}})
        out = tmp_path / "out"
        args = ["ids", "--config", str(cfg), "--out", str(out)]
        assert main(args) == 0
        if library == "python":
            monkeypatch.setattr(sys, "version", sys.version + " (faked)")
        else:
            fake = tmp_path / library / "version.py"
            fake.parent.mkdir()
            fake.write_text('version = "0.0.0+faked"\n')
            find_spec = importlib.util.find_spec
            monkeypatch.setattr(importlib.util, "find_spec", lambda name, *rest: (
                ModuleSpec(name, None, origin=str(fake.with_name("__init__.py")))
                if name == library else find_spec(name, *rest)))
        assert main(args) == 0
        assert json.loads((out / "ids_meta.json").read_text())["cache"] == "miss"
        assert main(args) == 0
        assert json.loads((out / "ids_meta.json").read_text())["cache"] == "hit"


class TestLifshitz:
    def test_replay_synthetic_half(self, tmp_path):
        curve_path = tmp_path / "curve.csv"
        E = np.geomspace(0.05, 0.8, 12)
        synthetic_curve(E, c=2.0, s=0.5).to_csv(str(curve_path))
        cfg = tmp_path / "cfg.json"
        vals = np.exp(-2.0 * E ** (-0.5))
        write_config(
            cfg,
            experiment={"seed": 1, "samples": 1,
                        "curve_csv": str(curve_path),
                        "window": [float(vals.min() * 0.5), float(min(vals.max() * 2, 0.99))],
                        "tolerance_band": [-0.55, -0.45],
                        "target": -0.5},
        )
        out = tmp_path / "out"
        assert main(["lifshitz", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "lifshitz.json").read_text())
        assert rep["slope"] == pytest.approx(-0.5, abs=1e-3)
        assert all(t["pass"] for t in rep["self_test"])
        assert {"window", "slope", "ci_lo", "ci_hi", "target", "points"} <= set(rep)

    def test_replay_target_follows_model_dimension(self, tmp_path):
        curve_path = tmp_path / "curve.csv"
        E = np.geomspace(0.05, 0.8, 12)
        synthetic_curve(E, c=2.0, s=1.0, d=2).to_csv(str(curve_path))
        cfg = tmp_path / "cfg.json"
        payload = write_config(
            cfg,
            experiment={"seed": 1, "samples": 1, "curve_csv": str(curve_path),
                        "window": [1e-4, 0.5], "tolerance_band": [-1.05, -0.95]},
        )
        payload["model"]["d"] = 2
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["lifshitz", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "lifshitz.json").read_text())
        assert rep["target"] == -1.0
        assert rep["slope"] == pytest.approx(-1.0, abs=1e-3)

    def test_edited_curve_csv_misses_cache(self, tmp_path):
        curve_path = tmp_path / "curve.csv"
        E = np.geomspace(0.05, 0.8, 12)
        synthetic_curve(E, c=2.0, s=0.5).to_csv(str(curve_path))
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            experiment={"seed": 1, "samples": 1, "curve_csv": str(curve_path),
                        "window": [1e-7, 0.5], "tolerance_band": [-0.7, -0.4],
                        "target": -0.5},
        )
        out = tmp_path / "out"
        args = ["lifshitz", "--config", str(cfg), "--out", str(out)]
        assert main(args) == 0
        first = json.loads((out / "lifshitz.json").read_text())
        first_key = json.loads((out / "lifshitz_meta.json").read_text())["cache_key"]
        assert (out / ".cache" / f"lifshitz-{first_key}").is_dir()

        synthetic_curve(E, c=2.0, s=0.6).to_csv(str(curve_path))
        assert main(args) == 0
        meta = json.loads((out / "lifshitz_meta.json").read_text())
        rep = json.loads((out / "lifshitz.json").read_text())
        assert meta["cache"] == "miss" and meta["cache_key"] != first_key
        assert first["slope"] == pytest.approx(-0.5, abs=1e-3)
        assert rep["slope"] == pytest.approx(-0.6, abs=1e-3)
        # the embedded config hash covers the config alone
        assert rep["config_hash"] == first["config_hash"] == meta["config_hash"]

    def test_replay_caches_only_its_own_files(self, tmp_path):
        # a curve file left by an earlier inline run is not part of a replay
        curve_path = tmp_path / "curve.csv"
        synthetic_curve(np.geomspace(0.05, 0.8, 12), c=2.0, s=0.5).to_csv(str(curve_path))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, experiment={"seed": 1, "samples": 1,
                                      "curve_csv": str(curve_path),
                                      "window": [1e-7, 0.5], "target": -0.5})
        out = tmp_path / "out"
        out.mkdir()
        (out / "lifshitz_curve.csv").write_text("stale\n")
        main(["lifshitz", "--config", str(cfg), "--out", str(out)])
        key = json.loads((out / "lifshitz_meta.json").read_text())["cache_key"]
        manifest = json.loads((out / ".cache" / f"lifshitz-{key}" / "manifest.json")
                              .read_text())
        assert manifest["files"] == ["lifshitz.json"]

    @pytest.mark.parametrize("mangle", [
        pytest.param(lambda rows: rows[:1] + [rows[1].replace(",", ",x", 1)] + rows[2:],
                     id="bad-value"),
        pytest.param(lambda rows: rows[:1] + [rows[1].rsplit(",", 1)[0]] + rows[2:],
                     id="short-row"),
        pytest.param(lambda rows: rows[:1], id="empty-body"),
        pytest.param(lambda rows: rows + rows[1:], id="two-curves"),
        pytest.param(lambda rows: [rows[0].replace("N_D", "N_d")] + rows[1:], id="bad-header"),
    ])
    def test_malformed_curve_csv_exit_2(self, tmp_path, capsys, mangle):
        curve_path = tmp_path / "curve.csv"
        synthetic_curve(np.geomspace(0.05, 0.8, 12), c=2.0, s=0.5).to_csv(str(curve_path))
        rows = curve_path.read_text().strip().split("\n")
        curve_path.write_text("\n".join(mangle(rows)) + "\n")
        cfg = tmp_path / "cfg.json"
        write_config(cfg, experiment={"seed": 1, "samples": 1,
                                      "curve_csv": str(curve_path)})
        assert main(["lifshitz", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "experiment.curve_csv" in err
        assert "Traceback" not in err

    def test_inline_run_reads_B2_without_eigensolve(self, tmp_path, monkeypatch):
        from breatherlab import bounds as bounds_mod
        from breatherlab import lattice, spectral

        kinds = []

        def spy(H, m):
            kinds.append(H.box.bc.kind)
            return spectral.lowest_eigenvalues(H, m)

        for module in (bounds_mod, lattice):
            monkeypatch.setattr(module, "lowest_eigenvalues", spy)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, experiment={"seed": 3, "samples": 20, "L_max": 8,
                                      "energies": {"kind": "list", "values": [0.2, 0.3]}})
        out = tmp_path / "out"
        assert main(["lifshitz", "--config", str(cfg), "--out", str(out)]) == 4
        # only the two unit-cell ground states of prepare_model are solved
        assert kinds == ["periodic", "periodic"]
        loaded = cli.load_config(str(cfg))
        prepared, _ = cli._prepare(loaded, cli.build_model(loaded))
        test = bounds_mod.dirichlet_test_function(prepared, lattice.GridSpec(L=4, n=16))
        assert json.loads((out / "lifshitz.json").read_text())["B2"] == test.B2

    def test_shipped_config_draws_fields_in_bulk(self, tmp_path, monkeypatch, capsys):
        from breatherlab import ids as ids_mod

        draws, philox = [], []
        sample_fields, Philox = ids_mod.sample_fields, np.random.Philox
        monkeypatch.setattr(ids_mod, "sample_fields",
                            lambda *args: draws.append(1) or sample_fields(*args))
        monkeypatch.setattr(np.random, "Philox",
                            lambda *args, **kwargs: philox.append(1) or Philox(*args, **kwargs))
        assert main(["lifshitz", "--config", str(SHIPPED / "lifshitz.json"),
                     "--out", str(tmp_path / "out"), "--no-cache"]) == 0
        # one bulk draw per energy point (8), no per-realization generator;
        # the bootstrap of fit_lifshitz draws from the package's Philox too
        assert len(draws) == 8
        assert len(philox) == 0

    def test_impossible_window_exit_4(self, tmp_path):
        curve_path = tmp_path / "curve.csv"
        E = np.geomspace(0.05, 0.8, 12)
        synthetic_curve(E, c=2.0, s=0.5).to_csv(str(curve_path))
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            experiment={"seed": 1, "samples": 1, "curve_csv": str(curve_path),
                        "window": [1e-12, 1e-11]},
        )
        assert main(["lifshitz", "--config", str(cfg), "--out",
                     str(tmp_path / "out")]) == 4


class TestBounds:
    def test_smoke_all_pass(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            model={"d": 1, "vper": {"kind": "cosine-sum", "amplitudes": [0.5]},
                   "site": {"kind": "breather", "amplitude": 1.0, "radius": 0.4},
                   "dist": {"kind": "uniform", "lambda_minus": 1.0,
                            "lambda_plus": 2.0}},
            experiment={"seed": 11, "samples": 5, "temple_Ls": [4],
                        "gap_Ls": [2, 3, 4, 5, 6],
                        "bernoulli_p": [0.5], "bernoulli_Ld": [8, 27]},
        )
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "bounds_report.json").read_text())
        assert rep["all_pass"] is True
        assert rep["temple"]["4"]["passes"] == 5
        consts = rep["constants"]
        for key in ("epsilon0", "c3", "c4", "kappa1", "eps1", "eps2",
                    "lambda_star", "gamma", "p", "provenance"):
            assert key in consts
        assert rep["dirichlet_upper"]["passes"] == rep["dirichlet_upper"]["checks"]

    @pytest.mark.parametrize("kind", ["alloy", "tabulated"])
    def test_kappa1_of_alloy_and_tabulated_sites(self, tmp_path, kind):
        # kappa1 is the alloy amplitude, and for a table the largest |du/dlambda|
        # on the run's derivative window: u = lambda f at the nodes, so the
        # largest linear interpolant of f on the n = 16 midpoint grid
        xg = np.linspace(-0.5, 0.5, 33)
        bump = np.clip(1.0 - (xg / 0.4) ** 2, 0.0, None) ** 2
        site = {"kind": "alloy", "amplitude": 1.3, "radius": 0.4} if kind == "alloy" else {
            "kind": "tabulated", "lambda_nodes": [1.0, 1.5, 2.0], "x_nodes": [xg.tolist()],
            "values": [(lam * bump).tolist() for lam in (1.0, 1.5, 2.0)]}
        lo = 0.0 if kind == "alloy" else 1.0
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={"d": 1, "vper": {"kind": "cosine-sum", "amplitudes": [0.5]},
                                 "site": site, "dist": {"kind": "uniform", "lambda_minus": lo,
                                                        "lambda_plus": lo + 1.0}},
                     experiment={"seed": 11, "samples": 5, "temple_Ls": [4],
                                 "gap_Ls": [2, 3, 4], "bernoulli_p": [0.5],
                                 "bernoulli_Ld": [8]})
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
        kappa1 = json.loads((out / "bounds_report.json").read_text())["constants"]["kappa1"]
        if kind == "alloy":
            assert kappa1 == 1.3
        else:
            midpoints = (np.arange(16) + 0.5) / 16 - 0.5
            assert kappa1 == pytest.approx(np.interp(midpoints, xg, bump).max(), rel=1e-9)
            assert kappa1 < 1.0

    def test_d2_chain_all_pass(self, tmp_path, capsys):
        # the whole chain at d = 2: inertia counts (block LDL^T along the grid
        # lines) decide every verdict
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            model={"d": 2, "vper": {"kind": "cosine-sum", "amplitudes": [0.5, 0.5]},
                   "site": {"kind": "breather", "amplitude": 1.0, "radius": 0.4}},
            grid={"n": 8, "L": [2]},
            experiment={"seed": 505, "samples": 4, "temple_Ls": [2, 3], "gap_Ls": [2, 3, 4],
                        "bernoulli_p": [0.5], "bernoulli_Ld": [8]},
        )
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out), "--no-cache"]) == 0
        rep = json.loads((out / "bounds_report.json").read_text())
        assert rep["all_pass"] is True
        assert {L: side["passes"] for L, side in rep["temple"].items()} == {"2": 4, "3": 4}
        assert "temple L=2: 4/4, L=3: 4/4" in capsys.readouterr().out

    def test_gamma_below_one_exit_5(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, experiment={"seed": 11, "samples": 3, "gamma": 0.5})
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 5
        assert "Traceback" not in capsys.readouterr().err
        rep = json.loads((out / "bounds_report.json").read_text())
        assert "gamma > 1" in rep["infeasible"]
        assert not (out / ".cache").exists()

    def test_flat_floor_exit_5_names_iv(self, tmp_path, capsys):
        # u flat in lambda on [lambda_minus, lambda_minus + 1/2]: no window
        xg = list(np.linspace(-0.5, 0.5, 33))
        bump = [max(1.0 - (x / 0.4) ** 2, 0.0) ** 2 for x in xg]
        cfg = tmp_path / "cfg.json"
        write_config(cfg, model={
            "d": 1, "vper": {"kind": "zero"},
            "site": {"kind": "tabulated", "lambda_nodes": [0.0, 0.5, 1.0], "x_nodes": [xg],
                     "values": [[0.0] * 33, [0.0] * 33, bump]},
            "dist": {"kind": "uniform", "lambda_minus": 0.0, "lambda_plus": 1.0},
        }, experiment={"seed": 11, "samples": 3})
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert "assumption iv" in err and "Traceback" not in err
        assert not (out / ".cache").exists()

    def test_temple_and_dirichlet_streams_disjoint(self, tmp_path, monkeypatch):
        # sides 4 and 8: a Dirichlet range (L << 21) + k at L = 4 would be the
        # Temple range (L << 20) + k at L = 8
        from breatherlab import ids

        drawn = []
        sample = ids.sample_fields

        def spy(dist, seed, indices, L, d):
            drawn.append(set(np.asarray(indices).tolist()))
            return sample(dist, seed, indices, L, d)

        monkeypatch.setattr(ids, "sample_fields", spy)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, experiment={"seed": 11, "samples": 3, "temple_Ls": [4, 8],
                                      "gap_Ls": [2, 3, 4], "bernoulli_p": [0.5],
                                      "bernoulli_Ld": [8]})
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--no-cache"]) == 0
        assert len(drawn) == 4  # Temple and Dirichlet samples of both sides
        assert sum(map(len, drawn)) == len(set().union(*drawn)) == 4 * 3

    @pytest.mark.parametrize("samples", [2**20, 2**20 + 1])
    def test_samples_capped_by_temple_streams(self, tmp_path, capsys, samples):
        # side L's Temple streams are (L << 20) + k, k < samples: more than 2^20
        # would share fields with side L + 1; tiny boxes keep the memory check quiet
        cfg = tmp_path / "cfg.json"
        write_config(cfg, grid={"n": 4, "L": [1]},
                     experiment={"samples": samples, "temple_Ls": [1], "gap_Ls": [1, 2]})
        if samples <= 2**20:
            assert cli.load_config(str(cfg), command="bounds")["experiment"]["samples"] == samples
            return
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"experiment.samples of bounds must be <= {2**20}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_determinism_bounds_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            experiment={"seed": 11, "samples": 3, "temple_Ls": [4],
                        "gap_Ls": [2, 3, 4], "bernoulli_p": [0.5],
                        "bernoulli_Ld": [8]},
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["bounds", "--config", str(cfg), "--out", str(a),
                     "--no-cache"]) == 0
        assert main(["bounds", "--config", str(cfg), "--out", str(b),
                     "--no-cache"]) == 0
        assert (a / "bounds_report.json").read_bytes() == \
            (b / "bounds_report.json").read_bytes()

    def test_per_box_work_done_once(self, tmp_path, monkeypatch):
        from breatherlab import bounds as bounds_mod
        from breatherlab import lattice

        calls = {}

        def spy(owner, name, label=None):
            fn = getattr(owner, name)
            label = label or name

            def wrapped(*args, **kwargs):
                calls[label] = calls.get(label, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        spy(bounds_mod, "map_realization")
        spy(bounds_mod, "count_below")
        solve = bounds_mod.lowest_eigenvalues

        def solved(H, m):  # counts operators: a batch adds its width
            calls["lowest_eigenvalues"] = (calls.get("lowest_eigenvalues", 0)
                                           + (1 if H.diag.ndim == 1 else len(H.diag)))
            return solve(H, m)

        monkeypatch.setattr(bounds_mod, "lowest_eigenvalues", solved)
        spy(bounds_mod, "site_values")  # mapping: xi and the cut-off potential
        spy(lattice, "site_values")  # the Dirichlet samples' V_omega
        spy(bounds_mod.TempleConfig, "__post_init__", "hypothesis_checks")
        builds = spy_skeleton_builds(monkeypatch)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, experiment={"seed": 11, "samples": 3, "temple_Ls": [4, 6],
                                      "gap_Ls": [2, 3, 4], "bernoulli_p": [0.5],
                                      "bernoulli_Ld": [8]})
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out), "--no-cache"]) == 0
        M, temple, sides = 3, 2, 4  # sides: the distinct L of temple_Ls and gap_Ls
        # all samples of a box are mapped at once; site values once for them and
        # once for all its Dirichlet samples; the Temple hypotheses once per config
        assert calls["map_realization"] == temple
        assert calls["site_values"] == 2 * temple
        assert calls["hypothesis_checks"] == temple
        # one skeleton per (box, boundary condition); the unit cell once per
        # model in prepare_model
        assert builds == {(1, "periodic"): 2,
                          **{(L, "mezincescu"): 1 for L in (2, 3, 4, 6)},
                          **{(L, "dirichlet"): 1 for L in (4, 6)}}
        # periodic levels are the only solve, once per side; the Temple and
        # Dirichlet verdicts are one count each per Temple box, and the
        # corollary reads its premise off Temple's
        assert calls["lowest_eigenvalues"] == sides
        assert calls["count_below"] == 2 * temple

    def test_ground_state_tiled_once_per_temple_box(self, tmp_path, monkeypatch, capsys):
        from breatherlab import bounds as bounds_mod
        from breatherlab import lattice

        tiled = []
        tile = lattice.periodized_ground_state
        for module in (lattice, bounds_mod):
            monkeypatch.setattr(module, "periodized_ground_state",
                                lambda gs, grid: tiled.append(grid.L) or tile(gs, grid))
        assert main(["bounds", "--config", str(SHIPPED / "bounds.json"),
                     "--out", str(tmp_path / "out"), "--no-cache"]) == 0
        # psi_L once per Temple box (temple_Ls = [4, 6, 8]), not twice per sample
        assert tiled == [4, 6, 8]

    def test_shipped_config_builds_each_box_once(self, tmp_path, monkeypatch, capsys):
        from breatherlab import spectral

        builds = spy_skeleton_builds(monkeypatch)
        dense = []
        eigh = spectral.np.linalg.eigh
        monkeypatch.setattr(spectral.np.linalg, "eigh",
                            lambda *args, **kwargs: dense.append(1) or eigh(*args, **kwargs))
        assert main(["bounds", "--config", str(SHIPPED / "bounds.json"),
                     "--out", str(tmp_path / "out"), "--no-cache"]) == 0
        assert builds[1, "periodic"] == 2
        assert sum(builds.values()) == 2 + 9 + 3
        assert max(n for key, n in builds.items() if key != (1, "periodic")) == 1
        # the d = 1 boxes are tridiagonal: only the two unit-cell solves are dense
        assert len(dense) == 2
