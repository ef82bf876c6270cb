"""End-to-end command tests: exit codes, file formats, determinism, cache."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import breatherlab
from breatherlab import cli
from breatherlab.cli import main
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


class TestValidate:
    def test_breather_passes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "validate_report.json").read_text())
        assert report["passed"] is True
        assert "config_hash" in report

    def test_sign_changing_alloy_fails(self, tmp_path):
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
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 1
        report = json.loads((out / "validate_report.json").read_text())
        assert report["verdicts"]["iii"] is False
        assert report["violation_site"][0] == "iii"

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["validate", "--config", str(cfg)]) == 2

    def test_missing_field_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        payload = write_config(cfg)
        del payload["model"]["dist"]["lambda_minus"]
        cfg.write_text(json.dumps(payload))
        assert main(["validate", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 2


def test_cli_import_skips_stats_and_interpolate():
    src = str(Path(breatherlab.__file__).resolve().parents[1])
    probe = ("import sys, breatherlab.cli; "
             "print(sorted(m for m in ('scipy.stats', 'scipy.interpolate') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


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


BAD_SOLVE_OUTPUT_GRID_FIELDS = [
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
]


@pytest.mark.parametrize("section,block,field", BAD_SOLVE_OUTPUT_GRID_FIELDS)
def test_bad_solve_output_grid_field_exit_2(tmp_path, capsys, section, block, field):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **{section: block})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err
    assert not out.exists()


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "readme.json"
    cfg.write_text("\n".join(line.split("//", 1)[0] for line in block.splitlines()))
    cli.build_model(cli.load_config(str(cfg)))


class TestSpectrum:
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


class TestIds:
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
            calls.append(args[2])
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
        assert calls == [4, 8]
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
