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


SHIPPED = Path(__file__).resolve().parents[1] / "configs"


def spy_skeleton_builds(monkeypatch):
    """Count skeleton builds (the only sparse assemblies) per (L, bc kind)."""
    from collections import Counter

    from breatherlab import bounds as bounds_mod
    from breatherlab import lattice

    builds = Counter()
    build = lattice.skeleton

    def counted(model, grid, bc):
        builds[grid.L, bc.kind] += 1
        return build(model, grid, bc)

    for module in (lattice, bounds_mod, cli):
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
                 "experiment.x_grid_size", id="x-grid-over-scan-cap-at-d-2"),
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


def test_readme_field_table_matches_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| path | rule | default |\n", 1)[1].split("\n\n", 1)[0]
    paths = [row.split("|")[1].strip().strip("`") for row in table.splitlines()[1:]]
    assert paths == list(cli.FIELDS)


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

    def test_inline_run_reads_B2_without_eigensolve(self, tmp_path, monkeypatch):
        from breatherlab import bounds as bounds_mod
        from breatherlab import lattice, spectral

        kinds = []

        def spy(H, m):
            kinds.append(H.bc.kind)
            return spectral.lowest_eigenvalues(H, m)

        for module in (bounds_mod, lattice, cli):
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
        # only the bootstrap of fit_lifshitz builds a Philox
        assert len(draws) == 8
        assert len(philox) == 1

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

    def test_per_box_work_done_once(self, tmp_path, monkeypatch):
        from breatherlab import bounds as bounds_mod

        calls = {}

        def spy(name, counts=lambda *args, **kwargs: True):
            fn = getattr(bounds_mod, name)

            def wrapped(*args, **kwargs):
                calls[name] = calls.get(name, 0) + int(counts(*args, **kwargs))
                return fn(*args, **kwargs)

            monkeypatch.setattr(bounds_mod, name, wrapped)

        spy("map_realization")
        spy("lowest_eigenvalues")
        builds = spy_skeleton_builds(monkeypatch)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, experiment={"seed": 11, "samples": 3, "temple_Ls": [4, 6],
                                      "gap_Ls": [2, 3, 4], "bernoulli_p": [0.5],
                                      "bernoulli_Ld": [8]})
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out), "--no-cache"]) == 0
        M, temple, sides = 3, 2, 4  # sides: the distinct L of temple_Ls and gap_Ls
        assert calls["map_realization"] == M * temple
        # one skeleton per (box, boundary condition); the unit cell once per
        # model in prepare_model
        assert builds == {(1, "periodic"): 2,
                          **{(L, "mezincescu"): 1 for L in (2, 3, 4, 6)},
                          **{(L, "dirichlet"): 1 for L in (4, 6)}}
        # periodic levels once per side, then one cut-off and one Dirichlet
        # solve per sample
        assert calls["lowest_eigenvalues"] == sides + 2 * M * temple

    def test_shipped_config_builds_each_box_once(self, tmp_path, monkeypatch, capsys):
        from breatherlab import spectral

        builds = spy_skeleton_builds(monkeypatch)
        dense = []
        eigh = spectral.linalg.eigh
        monkeypatch.setattr(spectral.linalg, "eigh",
                            lambda *args, **kwargs: dense.append(1) or eigh(*args, **kwargs))
        assert main(["bounds", "--config", str(SHIPPED / "bounds.json"),
                     "--out", str(tmp_path / "out"), "--no-cache"]) == 0
        assert builds[1, "periodic"] == 2
        assert sum(builds.values()) == 2 + 9 + 3
        assert max(n for key, n in builds.items() if key != (1, "periodic")) == 1
        # the d = 1 boxes are tridiagonal: only the two unit-cell solves are dense
        assert len(dense) == 2
