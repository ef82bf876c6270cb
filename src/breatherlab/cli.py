"""Command-line surface: validate | spectrum | ids | lifshitz | bounds.

Every run is a pure function of its configuration file plus the seed
override; primary outputs (CSV tables, JSON reports) are byte-deterministic,
carry the effective-config hash, and contain no timestamps.  Timing and
environment notes go to a ``<command>_meta.json`` sidecar.  A content-
addressed cache can replay prior outputs byte-identically; its key covers
the config hash, the bytes of every input file the config names and the
package source, so an edited input or a code change is a miss.

Exit codes: 0 success (all checked inequalities hold), 1 failed validation
or failed inequality, 2 configuration/parse error, 3 eigensolver
non-convergence, 4 insufficient window data for the exponent fit,
5 infeasible cutoff configuration (the binding hypothesis is named).
"""

import argparse
import copy
import hashlib
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import ids as ids_mod
from .errors import (
    ConvergenceError,
    InputError,
    InsufficientDataError,
    PreconditionError,
)
from .lattice import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    GridSpec,
    mezincescu_correction,
    prepare_model,
    random_potentials,
    skeleton,
)
from .model import (
    DistributionSpec,
    ModelSpec,
    PeriodicPotentialSpec,
    SingleSiteSpec,
    validate_assumptions,
)
from .spectral import lowest_eigenvalues

OUTPUT_ENV_VAR = "BREATHERLAB_OUT"
SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration shape problem; rendered with the offending field path."""


# ---------------------------------------------------------------------------
# deterministic serialization


def _json_default(o):
    if isinstance(o, (np.floating,)):
        return float(o)
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.bool_,)):
        return bool(o)
    raise TypeError(f"not serializable: {type(o)}")


class _SeventeenDigitEncoder(json.JSONEncoder):
    """Floats rendered with 17 significant digits (round-trip safe)."""

    def iterencode(self, o, _one_shot=False):
        markers = {} if self.check_circular else None

        def floatstr(x):
            if x != x:
                return "NaN"
            if x == float("inf"):
                return "Infinity"
            if x == float("-inf"):
                return "-Infinity"
            return format(x, ".17g")

        make = json.encoder._make_iterencode(
            markers, self.default, json.encoder.encode_basestring_ascii,
            self.indent, floatstr, self.key_separator, self.item_separator,
            self.sort_keys, self.skipkeys, False,
        )
        return make(o, 0)


def dump_json(payload, path: Path):
    text = json.dumps(payload, cls=_SeventeenDigitEncoder, sort_keys=True,
                      indent=2, default=_json_default)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def config_hash(effective: dict) -> str:
    """Hash of the payload-relevant part of the effective configuration."""
    hashed = copy.deepcopy(effective)
    hashed.pop("output", None)
    hashed.get("solve", {}).pop("workers", None)
    blob = json.dumps(hashed, cls=_SeventeenDigitEncoder, sort_keys=True,
                      separators=(",", ":"), default=_json_default)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# configuration


DEFAULTS = {
    "solve": {"workers": 1},
    "experiment": {"seed": 1, "samples": 50},
    "output": {"dir": "out"},
}


# integer experiment fields and the least value each takes
INT_FIELDS = {"samples": 1, "eigenvalues": 1, "realizations": 0, "L_max": 1,
              "lambda_grid_size": 16, "x_grid_size": 16}


def _need(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"missing field {path}.{key}")
    return section[key]


def load_config(path: str, seed: int = None, workers: int = None) -> dict:
    """Read, complete and check a configuration; ``seed`` and ``workers``
    override ``experiment.seed`` and ``solve.workers`` before the checks."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config is not valid JSON: line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    for section in ("model", "grid"):
        if section not in cfg or not isinstance(cfg[section], dict):
            raise ConfigError(f"missing section {section}")
    effective = copy.deepcopy(cfg)
    for section, defaults in DEFAULTS.items():
        given = effective.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"section {section} must be an object")
        # experiment fields vary per command; solve and output take only their defaults
        unknown = sorted(set(given) - set(defaults)) if section != "experiment" else []
        if unknown:
            raise ConfigError(f"unknown field {section}.{unknown[0]}; {section} takes "
                              f"only {', '.join(defaults)}")
        effective[section] = {**defaults, **given}
    if seed is not None:
        effective["experiment"]["seed"] = seed
    if workers is not None:
        effective["solve"]["workers"] = workers
    _check_model(effective["model"])
    _check_grid(effective["grid"])
    _check_experiment(effective["experiment"])
    if not (_is_int(effective["solve"]["workers"]) and effective["solve"]["workers"] >= 1):
        raise ConfigError(f"solve.workers must be an integer >= 1, "
                          f"got {effective['solve']['workers']!r}")
    return effective


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return _is_number(v) and math.isfinite(v)


def _check_sizes(value, path: str, least: int):
    """Box sizes: a list of at least ``least`` distinct integers >= 1."""
    if not (isinstance(value, list) and all(_is_int(v) and v >= 1 for v in value)
            and len(set(value)) == len(value) >= least):
        raise ConfigError(f"{path} must be a list of at least {least} distinct integers "
                          f">= 1, got {value!r}")


def _is_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_is_finite, v))


# numeric model fields; the model classes check their ranges
MODEL_NUMBERS = (("dist", "lambda_minus"), ("dist", "lambda_plus"),
                 ("dist", "atom_mass_at_min"), ("site", "amplitude"), ("site", "radius"))


def _check_model(model: dict):
    """Reject model fields of the wrong type before the model is built."""
    d = _need(model, "d", "model")
    if not (_is_int(d) and d in (1, 2, 3)):
        raise ConfigError(f"model.d must be 1, 2 or 3, got {d!r}")
    for section in ("dist", "site"):
        if not isinstance(model.get(section, {}), dict):
            raise ConfigError(f"model.{section} must be an object, got {model[section]!r}")
    for section, key in MODEL_NUMBERS:
        value = model.get(section, {}).get(key, 0.0)
        if not _is_finite(value):
            raise ConfigError(f"model.{section}.{key} must be a finite number, got {value!r}")
    standardized = model.get("site", {}).get("standardized", False)
    if not isinstance(standardized, bool):
        raise ConfigError(f"model.site.standardized must be true or false, "
                          f"got {standardized!r}")


def _check_grid(grid: dict):
    """Reject grids no box can be built on; a scalar side becomes a list."""
    n = _need(grid, "n", "grid")
    if not (_is_int(n) and n >= 4):
        raise ConfigError(f"grid.n must be an integer >= 4, got {n!r}")
    Ls = _need(grid, "L", "grid")
    grid["L"] = [Ls] if _is_int(Ls) else Ls
    _check_sizes(grid["L"], "grid.L", 1)


def _check_experiment(exp: dict):
    """Reject experiment fields no command could run with, before any compute."""
    if not (_is_int(exp["seed"]) and 0 <= exp["seed"] < 2**64):
        raise ConfigError(f"experiment.seed must be an integer in [0, 2^64), "
                          f"got {exp['seed']!r}")
    for key, least in INT_FIELDS.items():
        if key in exp and not (_is_int(exp[key]) and exp[key] >= least):
            raise ConfigError(f"experiment.{key} must be an integer >= {least}, "
                              f"got {exp[key]!r}")
    for key, least in (("temple_Ls", 1), ("gap_Ls", 2)):
        if key in exp:
            _check_sizes(exp[key], f"experiment.{key}", least)
    if "energies" in exp and np.any(np.diff(energies_from(exp["energies"])) < 0):
        raise ConfigError(f"experiment.energies must be in increasing order, "
                          f"got {energies_from(exp['energies']).tolist()}")
    for key, ordered, rule in (("window", lambda lo, hi: 0 < lo < hi < 1, "0 < lo < hi < 1"),
                               ("tolerance_band", lambda lo, hi: lo <= hi, "lo <= hi")):
        if key in exp and not (_is_pair(exp[key]) and ordered(*exp[key])):
            raise ConfigError(f"experiment.{key} must be [lo, hi] with {rule}, "
                              f"got {exp[key]!r}")
    if not isinstance(exp.get("include_periodic", True), bool):
        raise ConfigError(f"experiment.include_periodic must be true or false, "
                          f"got {exp['include_periodic']!r}")
    if exp.get("fit_boundary", "M") not in ("D", "M"):
        raise ConfigError(f"experiment.fit_boundary must be \"D\" or \"M\", "
                          f"got {exp['fit_boundary']!r}")
    if exp.get("target") is not None and not _is_finite(exp["target"]):
        raise ConfigError(f"experiment.target must be a finite number, got {exp['target']!r}")
    ps = exp.get("bernoulli_p", [])
    if not isinstance(ps, list) or not all(_is_number(p) and 0.0 < p <= 1.0 for p in ps):
        raise ConfigError(f"experiment.bernoulli_p must be a list of numbers in (0, 1], "
                          f"got {ps!r}")
    lds = exp.get("bernoulli_Ld", [])
    if not isinstance(lds, list) or not all(_is_int(v) and v >= 1 for v in lds):
        raise ConfigError(f"experiment.bernoulli_Ld must be a list of integers >= 1, "
                          f"got {lds!r}")
    gamma = exp.get("gamma")
    if gamma is not None and not (_is_number(gamma) and 0 < gamma < float("inf")):
        raise ConfigError(f"experiment.gamma must be a finite number > 0, got {gamma!r}")
    for path in input_files(exp):
        if not (isinstance(path, str) and os.path.isfile(path) and os.access(path, os.R_OK)):
            raise ConfigError(f"experiment.curve_csv is not a readable file: {path!r}")


def input_files(exp: dict) -> list:
    """Paths of the input files an experiment block names."""
    return [exp["curve_csv"]] if exp.get("curve_csv") else []


def build_model(cfg: dict) -> ModelSpec:
    m = cfg["model"]
    d = _need(m, "d", "model")
    vper_cfg = _need(m, "vper", "model")
    kind = _need(vper_cfg, "kind", "model.vper")
    if kind == "zero":
        vper = PeriodicPotentialSpec(kind="zero")
    elif kind == "cosine-sum":
        vper = PeriodicPotentialSpec(
            kind="cosine-sum",
            amplitudes=tuple(_need(vper_cfg, "amplitudes", "model.vper")),
        )
    elif kind == "tabulated":
        vper = PeriodicPotentialSpec(
            kind="tabulated", values=np.asarray(_need(vper_cfg, "values", "model.vper")),
        )
    else:
        raise ConfigError(f"model.vper.kind unknown: {kind!r}")

    dist_cfg = _need(m, "dist", "model")
    dist = DistributionSpec(
        kind=_need(dist_cfg, "kind", "model.dist"),
        lambda_minus=float(_need(dist_cfg, "lambda_minus", "model.dist")),
        lambda_plus=float(_need(dist_cfg, "lambda_plus", "model.dist")),
        atom_mass_at_min=float(dist_cfg.get("atom_mass_at_min", 0.0)),
        beta_a=dist_cfg.get("beta_a"),
        beta_b=dist_cfg.get("beta_b"),
    )

    site_cfg = _need(m, "site", "model")
    site_kind = _need(site_cfg, "kind", "model.site")
    if site_kind in ("alloy", "breather"):
        site = SingleSiteSpec(
            kind=site_kind,
            amplitude=float(site_cfg.get("amplitude", 1.0)),
            radius=float(site_cfg.get("radius", 0.4)),
            lambda_minus=dist.lambda_minus,
            lambda_plus=dist.lambda_plus,
            standardized=site_cfg.get("standardized", False),
        )
    elif site_kind == "tabulated":
        site = SingleSiteSpec(
            kind="tabulated",
            lambda_minus=dist.lambda_minus,
            lambda_plus=dist.lambda_plus,
            lambda_nodes=tuple(_need(site_cfg, "lambda_nodes", "model.site")),
            x_nodes=tuple(tuple(ax) for ax in _need(site_cfg, "x_nodes", "model.site")),
            values=np.asarray(_need(site_cfg, "values", "model.site")),
        )
    else:
        raise ConfigError(f"model.site.kind unknown: {site_kind!r}")
    return ModelSpec(d=d, vper=vper, site=site, dist=dist)


def energies_from(cfg_block: dict) -> np.ndarray:
    """The energy grid of an ``experiment.energies`` block; ConfigError names
    the block when a field is missing or out of range."""
    if cfg_block is None:
        raise ConfigError("missing experiment.energies")
    if not isinstance(cfg_block, dict):
        raise ConfigError(f"experiment.energies must be an object, got {cfg_block!r}")
    kind = cfg_block.get("kind", "list")
    if kind == "list":
        values = _need(cfg_block, "values", "experiment.energies")
        if not (isinstance(values, list) and values and all(map(_is_finite, values))):
            raise ConfigError(f"experiment.energies.values must be a non-empty list of "
                              f"finite numbers, got {values!r}")
        return np.asarray([float(v) for v in values])
    if kind not in ("linear", "geometric"):
        raise ConfigError(f"experiment.energies.kind unknown: {kind!r}")
    start, stop, count = (_need(cfg_block, key, "experiment.energies")
                          for key in ("start", "stop", "count"))
    if not (_is_finite(start) and _is_finite(stop) and _is_int(count) and count >= 1):
        raise ConfigError(f"experiment.energies needs finite start and stop and an integer "
                          f"count >= 1, got {start!r}, {stop!r}, {count!r}")
    if kind == "linear":
        return np.linspace(float(start), float(stop), count)
    if not (start > 0 and stop > 0):
        raise ConfigError(f"experiment.energies of kind geometric need start, stop > 0, "
                          f"got {start!r}, {stop!r}")
    return np.geomspace(float(start), float(stop), count)


# ---------------------------------------------------------------------------
# cache


def _source_digest() -> bytes:
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.digest()


def cache_key(cfg: dict, digest: str) -> str:
    """sha256 over the config hash, the named input files and the package source."""
    h = hashlib.sha256(digest.encode())
    for path in input_files(cfg["experiment"]):
        h.update(hashlib.sha256(Path(path).read_bytes()).digest())
    h.update(_source_digest())
    return h.hexdigest()


class ResultCache:
    """Content-addressed store of primary outputs, keyed on (command, cache key)."""

    def __init__(self, root: Path):
        self.root = root

    def _slot(self, command: str, key: str) -> Path:
        return self.root / f"{command}-{key}"

    def fetch(self, command: str, key: str, out_dir: Path):
        slot = self._slot(command, key)
        manifest = slot / "manifest.json"
        if not manifest.is_file():
            return None
        info = json.loads(manifest.read_text())
        for name in info["files"]:
            shutil.copyfile(slot / name, out_dir / name)
        return info

    def store(self, command: str, key: str, out_dir: Path, files, exit_code: int):
        slot = self._slot(command, key)
        slot.mkdir(parents=True, exist_ok=True)
        for name in files:
            shutil.copyfile(out_dir / name, slot / name)
        dump_json({"files": list(files), "exit_code": exit_code},
                  slot / "manifest.json")


# ---------------------------------------------------------------------------
# commands


def _prepare(cfg, model):
    return prepare_model(model, int(cfg["grid"]["n"]))


def _bc_from_label(label, gs, grid):
    if label == "D":
        return DIRICHLET
    if label == "N":
        return NEUMANN
    if label == "P":
        return PERIODIC
    if label == "M":
        return mezincescu_correction(gs, grid)
    raise ConfigError(f"unknown boundary label {label!r}")


def cmd_validate(cfg, out_dir: Path, digest: str):
    model = build_model(cfg)
    exp = cfg["experiment"]
    lam_grid = int(exp.get("lambda_grid_size", 64))
    x_grid = int(exp.get("x_grid_size", {1: 256, 2: 64, 3: 32}[model.d]))
    report = validate_assumptions(model, lambda_grid_size=lam_grid, x_grid_size=x_grid)
    payload = report.to_dict()
    payload["config_hash"] = digest
    dump_json(payload, out_dir / "validate_report.json")
    lines = [f"assumption ({k}): {'PASS' if v else 'FAIL'}"
             for k, v in report.verdicts.items()]
    lines.append(f"kappa1 = {report.kappa1:.17g}")
    lines.append(f"eps1 = {report.eps1:.17g}")
    lines.append(f"eps2 = {report.eps2:.17g}")
    lines.append(f"alpha = {report.alpha:.17g}, kappa = {report.kappa:.17g}")
    if report.violation_site is not None:
        lines.append(f"worst violation {report.worst_violation:.3e} at "
                     f"{report.violation_site}")
    (out_dir / "validate_report.txt").write_text("\n".join(lines) + "\n",
                                                 encoding="utf-8", newline="\n")
    for line in lines:
        print(line)
    files = ["validate_report.json", "validate_report.txt"]
    return (0 if report.passed else 1), files


def cmd_spectrum(cfg, out_dir: Path, digest: str):
    model = build_model(cfg)
    prepared, gs = _prepare(cfg, model)
    exp = cfg["experiment"]
    n = int(cfg["grid"]["n"])
    m = int(exp.get("eigenvalues", 4))
    labels = exp.get("boundary", ["D", "M"])
    n_real = int(exp.get("realizations", 1))
    include_periodic = exp.get("include_periodic", True)
    seed = int(exp["seed"])

    rows = []
    exit_code = 0
    try:
        for L in cfg["grid"]["L"]:
            grid = GridSpec(L=int(L), n=n, d=prepared.d)
            fields = ids_mod.sample_fields(prepared.dist, seed, range(n_real), L, prepared.d)
            vrand = random_potentials(prepared, grid, fields)
            for label in labels:
                box = skeleton(prepared, grid, _bc_from_label(label, gs, grid))
                indices = ([-1] if include_periodic else []) + list(range(n_real))
                for idx in indices:
                    H = box.hamiltonian(None if idx < 0 else vrand[idx])
                    res = lowest_eigenvalues(H, m)
                    for k in range(len(res.energies)):
                        rows.append((int(L), n, label, idx, k + 1,
                                     res.energies[k], res.residuals[k]))
    except ConvergenceError as err:
        print(f"solver non-convergence: {err}", file=sys.stderr)
        exit_code = 3

    with open(out_dir / "spectrum.csv", "w", newline="\n") as fh:
        fh.write("L,n,bc,index,k,E,residual\n")
        for row in rows:
            fh.write(f"{row[0]},{row[1]},{row[2]},{row[3]},{row[4]},"
                     f"{row[5]:.17g},{row[6]:.17g}\n")
    print(f"spectrum: {len(rows)} rows for Ls={cfg['grid']['L']} bcs={labels}")
    return exit_code, ["spectrum.csv"]


def cmd_ids(cfg, out_dir: Path, digest: str):
    model = build_model(cfg)
    prepared, gs = _prepare(cfg, model)
    exp = cfg["experiment"]
    n = int(cfg["grid"]["n"])
    energies = energies_from(exp.get("energies"))
    M = int(exp["samples"])
    seed = int(exp["seed"])
    workers = int(cfg["solve"]["workers"])
    Ls = cfg["grid"]["L"]

    curves = []
    for L in Ls:
        grid = GridSpec(L=L, n=n, d=prepared.d)
        bcs = [DIRICHLET, mezincescu_correction(gs, grid)]
        curves.append(ids_mod.estimate_ids(prepared, n, L, bcs, energies, M, seed,
                                           workers=workers))
    with open(out_dir / "ids_curve.csv", "w", newline="\n") as fh:
        for k, cur in enumerate(curves):
            cur.to_csv(fh, header=(k == 0))

    files = ["ids_curve.csv"]
    exit_code = 0
    if len(Ls) >= 2:
        report = ids_mod.bracketing_report(dict(zip(Ls, curves)))
        report["config_hash"] = digest
        dump_json(report, out_dir / "bracketing.json")
        files.append("bracketing.json")
        print(f"bracketing all_pass={report['all_pass']} "
              f"(pathwise violations {report['pathwise_violations']})")
        if not report["all_pass"]:
            exit_code = 1
    return exit_code, files


def _self_test_fit():
    results = []
    for s in (0.5, 1.0, 1.5):
        E = np.geomspace(0.05, 0.8, 12)
        cur = ids_mod.synthetic_curve(E, c=2.0, s=s)
        vals = cur.estimates["M"]
        window = (max(vals.min() * 0.5, 1e-300), min(vals.max() * 2.0, 0.999))
        fit = ids_mod.fit_lifshitz(cur, window=window, label="M", max_rel_se=10.0,
                                   target=-s)
        results.append({"s": s, "slope": fit.slope,
                        "error": abs(fit.slope + s),
                        "pass": bool(abs(fit.slope + s) <= 1e-3)})
    return results


def cmd_lifshitz(cfg, out_dir: Path, digest: str):
    exp = cfg["experiment"]
    payload = {"config_hash": digest, "self_test": _self_test_fit()}
    self_ok = all(r["pass"] for r in payload["self_test"])

    window = tuple(float(v) for v in exp.get("window", [1e-4, 1e-1]))
    band = exp.get("tolerance_band", [-0.8, -0.3])
    label = exp.get("fit_boundary", "M")
    d = cfg["model"]["d"]
    files = ["lifshitz.json"]

    if exp.get("curve_csv"):
        try:
            curve = ids_mod.IDSCurve.from_csv(exp["curve_csv"], d)
        except InputError as err:
            raise ConfigError(f"experiment.curve_csv: {err}") from err
        target = exp.get("target")
    else:
        model = build_model(cfg)
        prepared, gs = _prepare(cfg, model)
        n = int(cfg["grid"]["n"])
        energies = energies_from(exp.get("energies"))
        M = int(exp["samples"])
        seed = int(exp["seed"])
        workers = int(cfg["solve"]["workers"])
        L_max = int(exp.get("L_max", 64))
        B2 = bounds_mod.dirichlet_test_function(prepared, GridSpec(L=4, n=n, d=prepared.d)).B2
        payload["B2"] = B2

        def make_bcs(grid):
            return [DIRICHLET, mezincescu_correction(gs, grid)]

        curve = ids_mod.matched_box_curve(prepared, n, make_bcs, energies, M, seed,
                                          B2=B2, L_max=L_max, workers=workers)
        curve.to_csv(out_dir / "lifshitz_curve.csv")
        files.append("lifshitz_curve.csv")
        target = None

    try:
        fit = ids_mod.fit_lifshitz(
            curve, window=window, label=label,
            target=(target if target is not None else -d / 2.0),
        )
    except InsufficientDataError as err:
        payload["error"] = str(err)
        dump_json(payload, out_dir / "lifshitz.json")
        print(f"insufficient window data: {err}", file=sys.stderr)
        return 4, files

    payload.update(fit.to_dict())
    payload["tolerance_band"] = band
    payload["band_pass"] = bool(band[0] <= fit.slope <= band[1])
    dump_json(payload, out_dir / "lifshitz.json")
    print(f"lifshitz slope {fit.slope:.4f} target {fit.target} "
          f"band {band} pass={payload['band_pass']} self_test={self_ok}")
    return (0 if (payload["band_pass"] and self_ok) else 1), files


def cmd_bounds(cfg, out_dir: Path, digest: str):
    model = build_model(cfg)
    prepared, gs = _prepare(cfg, model)
    exp = cfg["experiment"]
    n = int(cfg["grid"]["n"])
    M = int(exp["samples"])
    seed = int(exp["seed"])

    consts = bounds_mod.model_constants(prepared, gs)
    gap_Ls = tuple(int(v) for v in exp.get("gap_Ls", range(2, 11)))
    temple_Ls = [int(v) for v in exp.get("temple_Ls", [4, 6, 8])]
    # one ground-state-boundary box, and its periodic levels, per side
    boxes = {L: bounds_mod.ground_state_box(prepared, gs, GridSpec(L=L, n=n, d=prepared.d))
             for L in dict.fromkeys([*gap_Ls, *temple_Ls])}
    levels = {L: bounds_mod.periodic_levels(box) for L, box in boxes.items()}
    gap = bounds_mod.fit_gap_constant({L: levels[L] for L in gap_Ls})
    lam_star, p_star = prepared.dist.lambda_star()
    gamma = float(exp.get("gamma") or 2.0 / p_star)

    payload = {
        "config_hash": digest,
        "constants": {
            **consts.to_dict(),
            "epsilon0": gap.epsilon0,
            "gap_loglog_slope": gap.loglog_slope,
            "lambda_star": lam_star,
            "p": p_star,
            "gamma": gamma,
            "provenance": {
                "epsilon0": f"min over L in {list(gap_Ls)} of L^2 (E2-E1) of the "
                            "periodic operator with ground-state boundary",
                "kappa1": "analytic sup of the coupling derivative for built-in "
                          "families, grid sup otherwise",
                "eps1_eps2": "integral-derivative window at run resolution "
                             f"n={n}, fine coupling grid",
                "lambda_star": "median of the coupling law (continuous-part "
                               "midpoint when an atom holds half the mass)",
                "gamma": "2/p with p the mass at or above lambda_star",
                "B1_B2": "realized from the product-cosine test function",
            },
        },
        "gap_fit": gap.to_dict(),
    }

    temple_out = {}
    corollary_out = {"checks": 0, "passes": 0, "nonvacuous": 0}
    deviation_out = {"checks": 0, "passes": 0, "premise_sites": 0}
    diri = {"checks": 0, "passes": 0, "B1": None, "B2": None}
    all_pass = True
    try:
        for L in temple_Ls:
            tcfg = bounds_mod.make_temple_config(L=L, gamma=gamma, constants=consts,
                                                 epsilon0=gap.epsilon0)
            box = boxes[L]
            grid = box.grid
            test = bounds_mod.dirichlet_test_function(prepared, grid)
            shape = (L,) * prepared.d
            passes = 0
            for lams in ids_mod.sample_fields(prepared.dist, seed, (L << 20) + np.arange(M),
                                              L, prepared.d):
                mapped = bounds_mod.map_realization(gs, prepared, grid, lams.reshape(shape),
                                                    tcfg)
                rep = bounds_mod.temple_lower_bound(gs, prepared, box, mapped, tcfg,
                                                    levels[L])
                passes += int(rep.passed)
                cor = bounds_mod.counting_corollary_check(
                    mapped, rep.constants["E1_cut"], tcfg.energy_scale, gamma)
                corollary_out["checks"] += 1
                corollary_out["passes"] += int(cor.passed)
                corollary_out["nonvacuous"] += int(not cor.constants["vacuous"])
                dev = bounds_mod.deviation_chain_check(mapped, tcfg)
                deviation_out["checks"] += 1
                deviation_out["passes"] += int(dev.passed)
                deviation_out["premise_sites"] += dev.constants["premise_count"]
            for lams in ids_mod.sample_fields(prepared.dist, seed, (L << 21) + np.arange(M),
                                              L, prepared.d):
                rep = bounds_mod.dirichlet_upper_bound(prepared, grid, lams.reshape(shape),
                                                       test)
                diri["checks"] += 1
                diri["passes"] += int(rep.passed)
            diri["B1"], diri["B2"] = test.B1, test.B2
            temple_out[str(L)] = {
                "passes": passes, "samples": M,
                "c2": tcfg.c2, "c7": tcfg.c7, "gamma": gamma,
                "energy_scale": tcfg.energy_scale,
            }
            all_pass = all_pass and passes == M
    except PreconditionError as err:
        print(f"cutoff configuration infeasible: {err}", file=sys.stderr)
        payload["infeasible"] = str(err)
        dump_json(payload, out_dir / "bounds_report.json")
        return 5, ["bounds_report.json"]

    all_pass = all_pass and corollary_out["passes"] == corollary_out["checks"]
    all_pass = all_pass and deviation_out["passes"] == deviation_out["checks"]
    all_pass = all_pass and diri["passes"] == diri["checks"]

    bern_ps = [float(v) for v in exp.get("bernoulli_p", [0.3, 0.5, 0.8])]
    bern_lds = [int(v) for v in exp.get("bernoulli_Ld", [8, 27, 64])]
    bern_rows = []
    for p in bern_ps:
        for Ld in bern_lds:
            exact, bound = bounds_mod.bernoulli_tail(p, 2.0 / p, Ld)
            ok = exact <= bound
            all_pass = all_pass and ok
            bern_rows.append({"p": p, "Ld": Ld, "exact": exact, "bound": bound,
                              "pass": bool(ok)})

    payload.update({
        "temple": temple_out,
        "corollary": corollary_out,
        "deviation": deviation_out,
        "bernoulli": bern_rows,
        "dirichlet_upper": diri,
        "all_pass": bool(all_pass),
    })
    dump_json(payload, out_dir / "bounds_report.json")
    print(f"bounds all_pass={all_pass}; temple "
          + ", ".join(f"L={L}: {v['passes']}/{v['samples']}"
                      for L, v in temple_out.items()))
    return (0 if all_pass else 1), ["bounds_report.json"]


COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "ids": cmd_ids,
    "lifshitz": cmd_lifshitz,
    "bounds": cmd_bounds,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="breatherlab",
        description="Finite-volume spectra and density-of-states estimates for "
                    "random operators with breather-type disorder",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override experiment.seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--workers", type=int, default=None,
                        help="override solve.workers")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the result cache")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config, seed=args.seed, workers=args.workers)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    out_dir = Path(args.out or os.environ.get(OUTPUT_ENV_VAR)
                   or cfg["output"]["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_hash(cfg)
    key = cache_key(cfg, digest)
    cache = ResultCache(out_dir / ".cache")

    if not args.no_cache:
        hit = cache.fetch(args.command, key, out_dir)
        if hit is not None:
            dump_json({"config_hash": digest, "cache_key": key, "cache": "hit",
                       "elapsed_seconds": time.perf_counter() - t0,
                       "timestamp": time.time()},
                      out_dir / f"{args.command}_meta.json")
            print(f"cache hit for {args.command} ({key[:12]})")
            return int(hit["exit_code"])

    try:
        exit_code, files = COMMANDS[args.command](cfg, out_dir, digest)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except InputError as err:
        print(f"model rejected: {err}", file=sys.stderr)
        return 1
    except PreconditionError as err:
        print(f"infeasible configuration: {err}", file=sys.stderr)
        return 5
    except ConvergenceError as err:
        print(f"solver non-convergence: {err}", file=sys.stderr)
        return 3

    dump_json({"config_hash": digest, "cache_key": key, "cache": "miss",
               "elapsed_seconds": time.perf_counter() - t0,
               "timestamp": time.time()},
              out_dir / f"{args.command}_meta.json")
    if not args.no_cache and exit_code in (0, 1):
        cache.store(args.command, key, out_dir, files, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
