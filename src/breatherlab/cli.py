"""Command-line surface: validate | spectrum | ids | lifshitz | bounds.

Every run is a pure function of its configuration file plus the seed
override; primary outputs (CSV tables, JSON reports) are byte-deterministic,
carry the effective-config hash, and contain no timestamps.  Timing and
environment notes, and the reason a command failed, go to a
``<command>_meta.json`` sidecar.  A content-addressed cache can replay prior
outputs byte-identically; its key covers the config hash, the bytes of every
input file the config names and the package source, so an edited input or a
code change is a miss.  Every digest is SHA-256 from the interpreter's
built-in module (``_sha2``, or ``_sha256`` before Python 3.12), the digests
of ``hashlib`` without loading OpenSSL's libcrypto; ``hashlib`` serves only
where neither module exists.

Exit codes: 0 success (all checked inequalities hold), 1 failed validation
or failed inequality, or a model the library rejects, 2 configuration/parse
error, 3 eigensolver non-convergence or numerical breakdown, 4 insufficient
window data for the exponent fit, 5 infeasible cutoff configuration (the
binding hypothesis is named).

The numerical modules are imported inside the commands, so loading and
checking a configuration and replaying a cache hit need neither NumPy nor
SciPy.  Before NumPy loads, ``main`` sets OpenBLAS's idle spin to 2^16 cycles
unless the user set one; ``ids`` and ``lifshitz`` make one estimator call,
which opens at most one process pool (``worker_pools`` reads ``ids.pool_size``).
"""

import argparse
import copy
import importlib.util
import json
import os
import shutil
import sys
import time
from pathlib import Path

try:  # the interpreter's own SHA-256: hashlib would map OpenSSL's libcrypto
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from .errors import (DIST_KINDS, SITE_KINDS, STREAMS, VPER_KINDS, ConvergenceError,
                     DomainError, GroundStateError, InputError, InsufficientDataError,
                     NumericalError, PreconditionError, StateError)

OUTPUT_ENV_VAR = "BREATHERLAB_OUT"
SCHEMA_VERSION = 1
BLAS_SPIN = ("OPENBLAS_THREAD_TIMEOUT", "16")  # idle BLAS threads sleep after ~25 us
# The running command's notes for its meta sidecar; main resets it.  A command
# that fails leaves its reason in RUN["error"]: main prints that line to stderr
# and writes it to the sidecar, and the run stores no cache slot.
RUN = {}


class ConfigError(ValueError):
    """Configuration shape problem; rendered with the offending field path."""


# ---------------------------------------------------------------------------
# deterministic serialization


def _json_default(o):
    try:  # NumPy scalars and arrays, as their Python values
        return o.tolist()
    except AttributeError:
        raise TypeError(f"not serializable: {type(o)}") from None


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
    return sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# configuration


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A number with a finite float value (a JSON integer can exceed the float range)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_is_finite, v))


def _list_of(item, rule, least=0):
    return (lambda v: isinstance(v, list) and len(v) >= least and all(map(item, v))), rule


# Caps on the sizes, in float64 values: one box holds at most MAX_POINTS grid
# points (32 MB), and what a command works through (the diagonals of all its
# realizations under both conditions, counts or scan points) at most MAX_VALUES.
MAX_POINTS = 2**22
MAX_VALUES = 2**25
# bounds draws the samples of a box side from one slot of each of its two stream roles
MAX_BOUNDS_SAMPLES = 2 ** min(STREAMS[role][2] for role in ("temple", "dirichlet"))
MAX_BERNOULLI_LD = 4096  # the exact tail is summed in integers: <= 0.3 s there
MAX_WORKERS = 256
X_GRID_DEFAULT = {1: 256, 2: 64, 3: 32}  # experiment.x_grid_size for d = 1, 2, 3


def _int(least, most=MAX_POINTS):
    return ((lambda v: _is_int(v) and least <= v <= most),
            f"an integer >= {least} and <= {most}")


def _sizes(least):
    """Box sizes: a list of at least ``least`` distinct integers >= 1."""
    check, rule = _list_of(_int(1)[0], f"a list of at least {least} distinct integers "
                                       f">= 1 and <= {MAX_POINTS}", least)
    return (lambda v: check(v) and len(set(v)) == len(v)), rule


def _one_of(options):
    return (lambda v: isinstance(v, str) and v in options), f"one of {', '.join(options)}"


NUMBERS = _list_of(_is_finite, "a non-empty list of finite numbers", 1)


def _is_array(v) -> bool:
    """A non-empty rectangular (nested) list of finite numbers."""
    flat = v
    while isinstance(flat, list) and flat and all(isinstance(x, list) for x in flat):
        if len({len(x) for x in flat}) != 1:
            return False
        flat = [x for row in flat for x in row]
    return NUMBERS[0](flat)


REQUIRED = object()
OBJECT = (lambda v: isinstance(v, dict)), "an object"
FINITE = _is_finite, "a finite number"
ARRAY = _is_array, "a non-empty rectangular (nested) list of finite numbers"
BOOL = (lambda v: isinstance(v, bool)), "true or false"

# Every field of a configuration: dotted path -> (check, rule, default).  The
# default is REQUIRED, the set of kinds of its object that need the field, a
# value, or None for "absent"; null counts as absent where there is no value.
# An object's fields follow it, and a key the table does not list is an
# error.  The table is the union over the commands: each reads what it needs.
FIELDS = {
    "schema_version": (lambda v: _is_int(v) and v == SCHEMA_VERSION, str(SCHEMA_VERSION),
                       REQUIRED),
    "model": (*OBJECT, REQUIRED),
    "model.d": (lambda v: _is_int(v) and v in (1, 2, 3), "1, 2 or 3", REQUIRED),
    "model.vper": (*OBJECT, REQUIRED),
    "model.vper.kind": (*_one_of(VPER_KINDS), REQUIRED),
    "model.vper.amplitudes": (*NUMBERS, {"cosine-sum"}),
    "model.vper.values": (*ARRAY, {"tabulated"}),
    "model.site": (*OBJECT, REQUIRED),
    "model.site.kind": (*_one_of(SITE_KINDS), REQUIRED),
    "model.site.amplitude": (*FINITE, 1.0),
    "model.site.radius": (*FINITE, 0.4),
    "model.site.standardized": (*BOOL, False),
    "model.site.lambda_nodes": (*NUMBERS, {"tabulated"}),
    "model.site.x_nodes": (*_list_of(NUMBERS[0], "a non-empty list of per-axis node lists", 1),
                           {"tabulated"}),
    "model.site.values": (*ARRAY, {"tabulated"}),
    "model.dist": (*OBJECT, REQUIRED),
    "model.dist.kind": (*_one_of(DIST_KINDS), REQUIRED),
    "model.dist.lambda_minus": (*FINITE, REQUIRED),
    "model.dist.lambda_plus": (*FINITE, REQUIRED),
    "model.dist.atom_mass_at_min": (*FINITE, 0.0),
    "model.dist.beta_a": (*FINITE, {"truncated-beta"}),
    "model.dist.beta_b": (*FINITE, {"truncated-beta"}),
    "grid": (*OBJECT, REQUIRED),
    "grid.n": (*_int(4), REQUIRED),
    "grid.L": (lambda v: _int(1)[0](v) or _sizes(1)[0](v),
               f"an integer >= 1 and <= {MAX_POINTS} or a non-empty list of distinct ones",
               REQUIRED),
    "solve": (*OBJECT, {}),
    "solve.workers": (*_int(1, MAX_WORKERS), 1),
    "output": (*OBJECT, {}),
    "output.dir": (lambda v: isinstance(v, str) and v != "", "a non-empty string", "out"),
    "experiment": (*OBJECT, {}),
    "experiment.seed": (lambda v: _is_int(v) and 0 <= v < 2**64, "an integer in [0, 2^64)", 1),
    "experiment.samples": (*_int(1), 50),
    "experiment.energies": (*OBJECT, None),
    "experiment.energies.kind": (*_one_of(("list", "linear", "geometric")), "list"),
    "experiment.energies.values": (*NUMBERS, {"list"}),
    "experiment.energies.start": (*FINITE, {"linear", "geometric"}),
    "experiment.energies.stop": (*FINITE, {"linear", "geometric"}),
    "experiment.energies.count": (*_int(1), {"linear", "geometric"}),
    "experiment.eigenvalues": (*_int(1), 4),
    "experiment.realizations": (*_int(0), 1),
    "experiment.boundary": (*_list_of(lambda b: b in ("D", "N", "P", "M"),
                                      "a non-empty list of D, N, P, M", 1), ["D", "M"]),
    "experiment.include_periodic": (*BOOL, True),
    "experiment.window": (lambda v: _is_pair(v) and 0 < v[0] < v[1] < 1,
                          "[lo, hi] with 0 < lo < hi < 1", [1e-4, 1e-1]),
    "experiment.tolerance_band": (lambda v: _is_pair(v) and v[0] <= v[1],
                                  "[lo, hi] with lo <= hi", [-0.8, -0.3]),
    "experiment.fit_boundary": (*_one_of(("D", "M")), "M"),
    "experiment.target": (*FINITE, None),
    "experiment.L_max": (*_int(1), 64),
    "experiment.curve_csv": (lambda v: isinstance(v, str) and os.path.isfile(v)
                             and os.access(v, os.R_OK), "a readable file", None),
    "experiment.temple_Ls": (*_sizes(1), [4, 6, 8]),
    "experiment.gap_Ls": (*_sizes(2), list(range(2, 11))),
    "experiment.gamma": (lambda v: _is_finite(v) and v > 0, "a finite number > 0", None),
    "experiment.bernoulli_p": (*_list_of(lambda p: _is_finite(p) and 0 < p <= 1,
                                         "a list of numbers in (0, 1]"), [0.3, 0.5, 0.8]),
    "experiment.bernoulli_Ld": (*_list_of(_int(1, MAX_BERNOULLI_LD)[0],
                                          f"a list of integers >= 1 and <= {MAX_BERNOULLI_LD}"),
                                [8, 27, 64]),
    "experiment.lambda_grid_size": (*_int(16), 64),
    "experiment.x_grid_size": (*_int(16), None),  # X_GRID_DEFAULT
}

# the defaults that enter the effective configuration, and so config_hash; the
# others are filled in by settled() where a command reads them
WRITTEN = ("solve", "solve.workers", "output", "output.dir",
           "experiment", "experiment.seed", "experiment.samples")


def _defaults() -> dict:
    """Parent path -> {key: default value, or None where there is none}."""
    out = {}
    for field, (_, _, default) in FIELDS.items():
        parent, _, key = field.rpartition(".")
        out.setdefault(parent, {})[key] = (
            None if default is REQUIRED or isinstance(default, set) else default)
    return out


DEFAULTS = _defaults()


def settled(node: dict, path: str) -> dict:
    """The checked object at ``path`` with the table default of each absent field."""
    return {**DEFAULTS[path], **node}


def load_config(path: str, seed: int = None, workers: int = None, command: str = None) -> dict:
    """Read, complete and check a configuration against FIELDS; ``seed`` and
    ``workers`` override ``experiment.seed`` and ``solve.workers`` before the
    checks, and ``command`` adds the fields that command needs."""
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
    except ValueError as err:  # an integer longer than the interpreter converts
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    overrides = {"experiment.seed": seed, "solve.workers": workers}
    objects = {"": cfg}  # the objects met so far, by path
    for field, (check, rule, default) in FIELDS.items():
        parent, _, key = field.rpartition(".")
        node = objects.get(parent)
        if node is None:  # a field of an absent optional object
            continue
        if overrides.get(field) is not None:
            node[key] = overrides[field]
        if node.get(key) is None and (key not in node or DEFAULTS[parent][key] is None):
            kind = node.get("kind", DEFAULTS[parent].get("kind"))
            if default is REQUIRED or isinstance(default, set) and kind in default:
                raise ConfigError(f"missing field {field}")
            if field in WRITTEN:
                node[key] = copy.copy(default)
        elif not check(node[key]):
            raise ConfigError(f"{field} must be {rule}, got {node[key]!r}")
        if isinstance(node.get(key), dict):
            objects[field] = node[key]
    for parent, node in objects.items():
        for field in (f"{parent}.{key}" if parent else key for key in node):
            if field not in FIELDS:
                raise ConfigError(f"unknown field {field}")
    if _is_int(cfg["grid"]["L"]):
        cfg["grid"]["L"] = [cfg["grid"]["L"]]
    # the rules that join two fields, or a field and the command
    exp = cfg["experiment"]
    if command == "bounds" and exp["samples"] > MAX_BOUNDS_SAMPLES:
        raise ConfigError(f"experiment.samples of bounds must be <= {MAX_BOUNDS_SAMPLES} "
                          f"(disjoint Temple streams per box side), got {exp['samples']}")
    energies = exp.get("energies") and settled(exp["energies"], "experiment.energies")
    if not energies:
        if command == "ids" or command == "lifshitz" and exp.get("curve_csv") is None:
            raise ConfigError(f"missing field experiment.energies, which {command} needs")
    elif energies["kind"] == "geometric" and not (energies["start"] > 0 and energies["stop"] > 0):
        raise ConfigError(f"experiment.energies of kind geometric need start, stop > 0, "
                          f"got {energies['start']!r}, {energies['stop']!r}")
    elif energies["kind"] == "linear" and not _is_finite(energies["stop"] - energies["start"]):
        raise ConfigError(f"experiment.energies of kind linear need a finite stop - start, "
                          f"got {energies['start']!r}, {energies['stop']!r}")
    elif _descending(energies):
        raise ConfigError(f"experiment.energies must be in increasing order, "
                          f"got {exp['energies']!r}")
    elif command == "lifshitz" and exp.get("curve_csv") is None and float(
            energies["values"][0] if energies["kind"] == "list" else energies["start"]) <= 0:
        raise ConfigError(f"experiment.energies of lifshitz must be > 0 (box matching), "
                          f"got {exp['energies']!r}")
    _check_memory(cfg, command)
    return cfg


def _check_memory(cfg: dict, command: str):
    """The sizes that multiply stay within MAX_POINTS and MAX_VALUES.  The box
    sides are grid.L and those of L_max, temple_Ls and gap_Ls that the config
    gives or ``command`` reads by default.  Each rule is charged to the
    commands that allocate its memory; with no command, every rule applies.
    The ``2 * experiment.samples * box points`` rule is a work cap, on the
    diagonal values a run counts, not a memory rule: counting holds a capped
    part of them at once (spectral.SWEEP_VALUES, spectral.STACK_VALUES)."""
    exp, d = settled(cfg["experiment"], "experiment"), cfg["model"]["d"]
    reads = {"lifshitz": ("L_max",), "bounds": ("temple_Ls", "gap_Ls")}.get(command, ())
    sides = list(cfg["grid"]["L"])
    for key in ("L_max", "temple_Ls", "gap_Ls"):
        if key in cfg["experiment"] or key in reads:
            sides += exp[key] if isinstance(exp[key], list) else [exp[key]]
    points = (cfg["grid"]["n"] * max(sides)) ** d
    energies = exp["energies"] and settled(exp["energies"], "experiment.energies")
    count = 0 if not energies else (
        len(energies["values"]) if energies["kind"] == "list" else energies["count"])
    x_points = (exp["x_grid_size"] or X_GRID_DEFAULT[d]) ** d
    for label, size, cap, commands in (
            ("(grid.n * largest box side) ** model.d", points, MAX_POINTS,
             ("spectrum", "ids", "lifshitz", "bounds")),
            ("2 * experiment.samples * box points", 2 * exp["samples"] * points, MAX_VALUES,
             ("ids", "lifshitz", "bounds")),
            ("(experiment.realizations + 1) * experiment.eigenvalues * box points",
             (exp["realizations"] + 1) * exp["eigenvalues"] * points, MAX_VALUES, ("spectrum",)),
            ("experiment.samples * energies", exp["samples"] * count, MAX_VALUES,
             ("ids", "lifshitz")),
            ("experiment.lambda_grid_size * x_grid_size ** model.d",
             exp["lambda_grid_size"] * x_points, MAX_VALUES, ("validate",))):
        if size > cap and command in (None, *commands):
            raise ConfigError(f"{label} must be <= {cap}, got {size}")


def _descending(block: dict) -> bool:
    """Whether the grid of a checked energies block decreases somewhere, decided
    from the block alone: ``energies_from`` keeps a rising range sorted."""
    if block["kind"] == "list":
        values = [float(v) for v in block["values"]]
        return any(b < a for a, b in zip(values, values[1:]))
    return block["count"] > 1 and float(block["stop"]) < float(block["start"])


def build_model(cfg: dict) -> "ModelSpec":
    from .model import DistributionSpec, ModelSpec, PeriodicPotentialSpec, SingleSiteSpec

    m = cfg["model"]
    vper, site, dist = (settled(m[key], f"model.{key}") for key in ("vper", "site", "dist"))
    lambda_minus, lambda_plus = float(dist["lambda_minus"]), float(dist["lambda_plus"])
    return ModelSpec(
        d=m["d"],
        vper=PeriodicPotentialSpec(kind=vper["kind"], amplitudes=vper["amplitudes"],
                                   values=vper["values"]),
        site=SingleSiteSpec(
            kind=site["kind"],
            amplitude=float(site["amplitude"]),
            radius=float(site["radius"]),
            lambda_minus=lambda_minus,
            lambda_plus=lambda_plus,
            standardized=site["standardized"],
            lambda_nodes=site["lambda_nodes"] and tuple(site["lambda_nodes"]),
            x_nodes=site["x_nodes"] and tuple(tuple(ax) for ax in site["x_nodes"]),
            values=site["values"],
        ),
        dist=DistributionSpec(
            kind=dist["kind"],
            lambda_minus=lambda_minus,
            lambda_plus=lambda_plus,
            atom_mass_at_min=float(dist["atom_mass_at_min"]),
            beta_a=dist["beta_a"],
            beta_b=dist["beta_b"],
        ),
    )


def energies_from(block: dict) -> "np.ndarray":
    """The energy grid of a checked ``experiment.energies`` block."""
    import numpy as np

    block = settled(block, "experiment.energies")
    if block["kind"] == "list":
        return np.asarray([float(v) for v in block["values"]])
    start, stop = float(block["start"]), float(block["stop"])
    if block["kind"] == "linear":
        return np.linspace(start, stop, block["count"])
    grid = np.geomspace(start, stop, block["count"])
    # exp(log E) moves inner points by an ulp: keep a rising grid sorted in
    # [start, stop], and constant when start == stop
    return np.maximum.accumulate(np.clip(grid, start, stop)) if start <= stop else grid


# ---------------------------------------------------------------------------
# cache


def _source_digest() -> bytes:
    h = sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.digest()


def cache_key(cfg: dict, digest: str) -> str:
    """sha256 over the config hash, the named input files, the package source,
    the Python version and the ``version.py`` files of NumPy and SciPy."""
    h = sha256(digest.encode())
    if cfg["experiment"].get("curve_csv"):  # the only input file a config names
        h.update(sha256(Path(cfg["experiment"]["curve_csv"]).read_bytes()).digest())
    h.update(_source_digest() + sys.version.encode())
    for name in ("numpy", "scipy"):  # found, not imported: a cache hit loads neither
        h.update(Path(importlib.util.find_spec(name).origin).with_name("version.py").read_bytes())
    return h.hexdigest()


class ResultCache:
    """Content-addressed store of primary outputs, keyed on (command, cache key)."""

    def __init__(self, root: Path):
        self.root = root

    def _slot(self, command: str, key: str) -> Path:
        return self.root / f"{command}-{key}"

    def fetch(self, command: str, key: str, out_dir: Path):
        """The slot's manifest after copying its files to ``out_dir``; None for a
        missing or damaged slot (unparsable manifest, a field or file gone)."""
        slot = self._slot(command, key)
        try:
            info = json.loads((slot / "manifest.json").read_text())
            files, exit_code = info["files"], int(info["exit_code"])
            if not all((slot / name).is_file() for name in files):
                return None
        except (OSError, ValueError, TypeError, KeyError):
            return None
        for name in files:
            shutil.copyfile(slot / name, out_dir / name)
        return {"files": files, "exit_code": exit_code}

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
    from .lattice import prepare_model

    return prepare_model(model, cfg["grid"]["n"])


def cmd_validate(cfg, out_dir: Path, digest: str):
    from dataclasses import asdict

    from .model import validate_assumptions

    model = build_model(cfg)
    exp = settled(cfg["experiment"], "experiment")
    x_grid = exp["x_grid_size"] or X_GRID_DEFAULT[model.d]
    report = validate_assumptions(model, lambda_grid_size=exp["lambda_grid_size"],
                                  x_grid_size=x_grid)
    payload = {**asdict(report), "passed": report.passed, "config_hash": digest}
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
    import numpy as np

    from .ids import sample_fields, stream_indices
    from .lattice import (DIRICHLET, NEUMANN, PERIODIC, GridSpec, mezincescu_correction,
                          random_potentials, skeleton)
    from .spectral import lowest_eigenvalues

    fixed = {"D": DIRICHLET, "N": NEUMANN, "P": PERIODIC}  # "M" is built per box
    model = build_model(cfg)
    prepared, gs = _prepare(cfg, model)
    exp = settled(cfg["experiment"], "experiment")
    n, m, labels = cfg["grid"]["n"], exp["eigenvalues"], exp["boundary"]
    n_real, seed = exp["realizations"], exp["seed"]

    indices = ([-1] if exp["include_periodic"] else []) + list(range(n_real))
    rows = []
    exit_code = 0
    try:
        for L in cfg["grid"]["L"] if indices else ():  # no operator: the header alone
            grid = GridSpec(L=L, n=n, d=prepared.d)
            vrand = random_potentials(prepared, grid, sample_fields(
                prepared.dist, seed, stream_indices("realization", 0, n_real), L, prepared.d))
            if exp["include_periodic"]:  # index -1: V_per alone
                vrand = np.vstack([np.zeros(grid.num_dof), vrand])
            for label in labels:
                bc = fixed.get(label) or mezincescu_correction(gs, grid)
                res = lowest_eigenvalues(skeleton(prepared, grid, bc).hamiltonian(vrand), m)
                for idx, energies, residuals in zip(indices, res.energies, res.residuals):
                    for k in range(len(energies)):
                        rows.append((L, n, label, idx, k + 1, energies[k], residuals[k]))
    except ConvergenceError as err:
        RUN["error"], exit_code = f"solver non-convergence: {err}", 3

    with open(out_dir / "spectrum.csv", "w", newline="\n") as fh:
        fh.write("L,n,bc,index,k,E,residual\n")
        for row in rows:
            fh.write(f"{row[0]},{row[1]},{row[2]},{row[3]},{row[4]},"
                     f"{row[5]:.17g},{row[6]:.17g}\n")
    print(f"spectrum: {len(rows)} rows for Ls={cfg['grid']['L']} bcs={labels}")
    return exit_code, ["spectrum.csv"]


def cmd_ids(cfg, out_dir: Path, digest: str):
    from . import ids as ids_mod

    model = build_model(cfg)
    prepared, gs = _prepare(cfg, model)
    exp = cfg["experiment"]
    Ls = cfg["grid"]["L"]
    energies = energies_from(exp["energies"])
    M, seed, workers = exp["samples"], exp["seed"], cfg["solve"]["workers"]

    RUN["worker_pools"] = int(ids_mod.pool_size(workers, M, [(L, energies) for L in Ls],
                                                gs.n, model.d) > 1)
    curves = ids_mod.estimate_ids(prepared, gs, Ls, energies, M, seed, workers=workers)
    with open(out_dir / "ids_curve.csv", "w", newline="\n") as fh:
        for k, cur in enumerate(curves.values()):
            cur.to_csv(fh, header=(k == 0))

    files = ["ids_curve.csv"]
    exit_code = 0
    if len(Ls) >= 2:
        report = ids_mod.bracketing_report(curves)
        report["config_hash"] = digest
        dump_json(report, out_dir / "bracketing.json")
        files.append("bracketing.json")
        print(f"bracketing all_pass={report['all_pass']} "
              f"(pathwise violations {report['pathwise_violations']})")
        if not report["all_pass"]:
            exit_code = 1
    return exit_code, files


def _self_test_fit():
    import numpy as np

    from . import ids as ids_mod

    results = []
    for s in (0.5, 1.0, 1.5):
        E = np.geomspace(0.05, 0.8, 12)
        cur = ids_mod.synthetic_curve(E, c=2.0, s=s)
        vals = cur.estimates["M"]
        window = (max(vals.min() * 0.5, 1e-300), min(vals.max() * 2.0, 0.999))
        fit = ids_mod.fit_lifshitz(cur, window=window, label="M", target=-s)
        results.append({"s": s, "slope": fit.slope,
                        "error": abs(fit.slope + s),
                        "pass": bool(abs(fit.slope + s) <= 1e-3)})
    return results


def cmd_lifshitz(cfg, out_dir: Path, digest: str):
    from dataclasses import asdict

    from . import bounds as bounds_mod
    from . import ids as ids_mod
    from .lattice import GridSpec

    exp = settled(cfg["experiment"], "experiment")
    payload = {"config_hash": digest, "self_test": _self_test_fit()}
    self_ok = all(r["pass"] for r in payload["self_test"])

    window = tuple(float(v) for v in exp["window"])
    band = exp["tolerance_band"]
    d = cfg["model"]["d"]
    files = ["lifshitz.json"]

    if exp["curve_csv"]:
        try:
            curve = ids_mod.IDSCurve.from_csv(exp["curve_csv"], d)
        except InputError as err:
            raise ConfigError(f"experiment.curve_csv: {err}") from err
    else:
        model = build_model(cfg)
        prepared, gs = _prepare(cfg, model)
        B2 = bounds_mod.dirichlet_test_function(prepared, GridSpec(L=4, n=gs.n, d=gs.d)).B2
        payload["B2"] = B2
        energies, M = energies_from(exp["energies"]), exp["samples"]
        workers = cfg["solve"]["workers"]
        curve = ids_mod.matched_box_curve(prepared, gs, energies, M, exp["seed"], B2=B2,
                                          L_max=exp["L_max"], workers=workers)
        RUN["worker_pools"] = int(ids_mod.pool_size(
            workers, M, [(L, [E]) for L, E in zip(curve.box_sizes, energies)], gs.n, d) > 1)
        curve.to_csv(out_dir / "lifshitz_curve.csv")
        files.append("lifshitz_curve.csv")

    try:
        fit = ids_mod.fit_lifshitz(
            curve, window=window, label=exp["fit_boundary"],
            target=exp["target"] if exp["curve_csv"] else None,
        )
    except InsufficientDataError as err:
        payload["error"] = str(err)
        dump_json(payload, out_dir / "lifshitz.json")
        RUN["error"] = f"insufficient window data: {err}"
        return 4, files

    payload.update(asdict(fit))
    payload["tolerance_band"] = band
    payload["band_pass"] = bool(band[0] <= fit.slope <= band[1])
    dump_json(payload, out_dir / "lifshitz.json")
    print(f"lifshitz slope {fit.slope:.4f} target {fit.target} "
          f"band {band} pass={payload['band_pass']} self_test={self_ok}")
    return (0 if (payload["band_pass"] and self_ok) else 1), files


def cmd_bounds(cfg, out_dir: Path, digest: str):
    from dataclasses import asdict

    from . import bounds as bounds_mod
    from . import ids as ids_mod
    from .lattice import GridSpec

    model = build_model(cfg)
    prepared, gs = _prepare(cfg, model)
    exp = settled(cfg["experiment"], "experiment")
    n, M, seed = cfg["grid"]["n"], exp["samples"], exp["seed"]

    consts = bounds_mod.model_constants(prepared, gs)
    gap_Ls, temple_Ls = tuple(exp["gap_Ls"]), exp["temple_Ls"]
    # one ground-state-boundary box, and its periodic levels, per side
    boxes = {L: bounds_mod.ground_state_box(prepared, gs, GridSpec(L=L, n=n, d=prepared.d))
             for L in dict.fromkeys([*gap_Ls, *temple_Ls])}
    levels = {L: bounds_mod.periodic_levels(box) for L, box in boxes.items()}
    gap = bounds_mod.fit_gap_constant({L: levels[L] for L in gap_Ls})
    lam_star, p_star = prepared.dist.lambda_star()
    gamma = float(exp["gamma"] or 2.0 / p_star)

    payload = {
        "config_hash": digest,
        "constants": {
            **asdict(consts),
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
        "gap_fit": asdict(gap),
    }

    temple_out = {}
    corollary_out = {"checks": 0, "passes": 0, "nonvacuous": 0}
    deviation_out = {"checks": 0, "passes": 0, "premise_sites": 0}
    diri = {"checks": 0, "passes": 0, "B1": None, "B2": None}

    def draw(role, L):  # the M sample fields of side L in the role's streams
        return ids_mod.sample_fields(prepared.dist, seed, ids_mod.stream_indices(role, L, M), L,
                                     prepared.d)

    try:
        for L in temple_Ls:
            tcfg = bounds_mod.make_temple_config(L=L, gamma=gamma, constants=consts,
                                                 epsilon0=gap.epsilon0)
            test = bounds_mod.dirichlet_test_function(prepared, boxes[L].grid)
            mapped = bounds_mod.map_realization(gs, prepared, test.grid, draw("temple", L), tcfg)
            temple = bounds_mod.temple_lower_bounds(boxes[L], mapped, tcfg, levels[L])
            cor = bounds_mod.counting_corollary_check(
                mapped, tcfg.energy_scale, gamma, temple.constants["escale_count"])
            dev = bounds_mod.deviation_chain_check(mapped, tcfg)
            upper = bounds_mod.dirichlet_upper_bounds(prepared, draw("dirichlet", L), test)
            for out, rep in ((corollary_out, cor), (deviation_out, dev), (diri, upper)):
                out["checks"] += M
                out["passes"] += int(rep.passed.sum())
            corollary_out["nonvacuous"] += int((~cor.constants["vacuous"]).sum())
            deviation_out["premise_sites"] += int(dev.constants["premise_count"].sum())
            diri["B1"], diri["B2"] = test.B1, test.B2
            temple_out[str(L)] = {
                "passes": int(temple.passed.sum()), "samples": M,
                "c2": tcfg.c2, "c7": tcfg.c7, "gamma": gamma,
                "energy_scale": tcfg.energy_scale,
            }
    except PreconditionError as err:
        RUN["error"] = f"cutoff configuration infeasible: {err}"
        payload["infeasible"] = str(err)
        dump_json(payload, out_dir / "bounds_report.json")
        return 5, ["bounds_report.json"]

    all_pass = all(v["passes"] == v["samples"] for v in temple_out.values())
    all_pass = all_pass and all(out["passes"] == out["checks"]
                                for out in (corollary_out, deviation_out, diri))

    bern_rows = []
    for p in (float(v) for v in exp["bernoulli_p"]):
        for Ld in exp["bernoulli_Ld"]:
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

# what a command may raise -> (exit code, message prefix)
FAILURES = {
    ConfigError: (2, "config error"),
    InputError: (1, "model rejected"),
    DomainError: (1, "model rejected"),
    GroundStateError: (1, "model rejected"),
    StateError: (1, "model rejected"),
    ConvergenceError: (3, "solver non-convergence"),
    NumericalError: (3, "numerical breakdown"),
    PreconditionError: (5, "infeasible configuration"),
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
    # OpenBLAS reads the spin once, as NumPy loads; worker processes inherit it
    var, cycles = BLAS_SPIN
    set_by = "user" if var in os.environ else None
    if set_by is None and "numpy" not in sys.modules:
        os.environ[var], set_by = cycles, "cli"
    RUN.clear()
    RUN.update(worker_pools=0, blas_spin={var: os.environ.get(var), "set_by": set_by})
    try:
        cfg = load_config(args.config, seed=args.seed, workers=args.workers,
                          command=args.command)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    out_dir = Path(args.out or os.environ.get(OUTPUT_ENV_VAR)
                   or cfg["output"]["dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"config error: output directory {out_dir}: {err.strerror}", file=sys.stderr)
        return 2
    digest = config_hash(cfg)
    key = cache_key(cfg, digest)
    cache = ResultCache(out_dir / ".cache")

    hit = None if args.no_cache else cache.fetch(args.command, key, out_dir)
    if hit is not None:
        exit_code = hit["exit_code"]
        print(f"cache hit for {args.command} ({key[:12]})")
    else:
        try:
            exit_code, files = COMMANDS[args.command](cfg, out_dir, digest)
        except tuple(FAILURES) as err:
            exit_code, what = next(v for kind, v in FAILURES.items() if isinstance(err, kind))
            RUN["error"] = f"{what}: {err}"
    if "error" in RUN:
        print(RUN["error"], file=sys.stderr)
    try:  # ru_maxrss in KiB: this process, and the largest child (pool worker) it waited for
        import resource
        own, pool = map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        rss = [own.ru_maxrss / 1024, pool.ru_maxrss / 1024, own.ru_minflt]
    except ImportError:
        rss = [None, None, None]
    dump_json({"config_hash": digest, "cache_key": key, "cache": "miss" if hit is None else "hit",
               **RUN, "elapsed_seconds": time.perf_counter() - t0, "timestamp": time.time(),
               "peak_rss_mb": rss[0], "pool_peak_rss_mb": rss[1], "minor_faults": rss[2]},
              out_dir / f"{args.command}_meta.json")
    if hit is None and not args.no_cache and "error" not in RUN:
        cache.store(args.command, key, out_dir, files, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
