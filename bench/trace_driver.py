"""Run one breatherlab CLI command with a span recorded at every layer boundary.

Usage (with ``src`` on PYTHONPATH):

    python3 bench/trace_driver.py SPANS_FILE RUN_ID -- <breatherlab CLI arguments>

The driver times ``import breatherlab.cli``, then wraps the traced functions
(see ``TARGETS``) and calls ``breatherlab.cli.main``.  Functions are wrapped
by object identity in every ``breatherlab.*`` module namespace, so names bound
with ``from .spectral import count_below`` are traced too; methods are
wrapped on their class.  A target that the code under test no longer has is
skipped, and reads as zero calls in the report.

Spans stay in memory and are appended to SPANS_FILE as JSON lines when the
command returns.  Each span records its name, id, parent id, start and end
(``perf_counter_ns``), the run id, the tracer's own time spent outside the
call (``overhead_ns``) and a few per-call facts.
"""

import sys
import time

T0_NS = time.perf_counter_ns()
MODULES_BEFORE = len(sys.modules)
import breatherlab.cli  # noqa: E402  (timed: the import layer)

IMPORT_END_NS = time.perf_counter_ns()
MODULES_AFTER = len(sys.modules)

import dataclasses  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse as sps  # noqa: E402


def _digest(obj, h):
    """Feed a stable description of ``obj`` into the hash ``h``."""
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif sps.issparse(obj):
        csr = sps.csr_matrix(obj)
        h.update(f"sp{csr.shape}".encode())
        for part in (csr.data, csr.indices, csr.indptr):
            h.update(np.ascontiguousarray(part).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__qualname__.encode())
        for field in dataclasses.fields(obj):
            _digest(getattr(obj, field.name), h)
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _digest(key, h)
            _digest(obj[key], h)
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _digest(item, h)
        h.update(b"]")
    elif isinstance(obj, np.generic):
        h.update(repr(obj.item()).encode())
    else:
        h.update(f"{type(obj).__qualname__}:{obj!r};".encode())


def _args_key(fn):
    """Fact: a digest of the call's arguments, defaults applied."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        sig = None

    def before(args, kwargs):
        h = hashlib.blake2b(digest_size=12)
        if sig is not None:
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                _digest(bound.arguments, h)
                return h.hexdigest()
            except TypeError:
                pass
        _digest((args, kwargs), h)
        return h.hexdigest()

    return before


def _inertia_facts(args, kwargs, result):
    facts = {"ok": bool(result[1])}
    if sps.issparse(args[0]):
        facts["nnz"] = int(args[0].nnz)
    return facts


def _tridiag_facts(args, kwargs, result):
    return {"row_steps": int(np.size(args[0]))}


def _eig_facts(args, kwargs, result):
    return {"method": getattr(result, "method", None)}


def _fetch_facts(args, kwargs, result):
    return {"hit": result is not None}


# span name -> (module, qualified name, argument-key fact?, result facts)
TARGETS = {
    "cli.main": ("breatherlab.cli", "main", False, None),
    "cli.load_config": ("breatherlab.cli", "load_config", False, None),
    "cli.config_hash": ("breatherlab.cli", "config_hash", False, None),
    "cli.dump_json": ("breatherlab.cli", "dump_json", False, None),
    "cli.cache_fetch": ("breatherlab.cli", "ResultCache.fetch", False, _fetch_facts),
    "cli.cache_store": ("breatherlab.cli", "ResultCache.store", False, None),
    "model.site_values": ("breatherlab.model", "site_values", False, None),
    "model.dist_sample": ("breatherlab.model", "DistributionSpec.sample", False, None),
    "model.validate_assumptions": ("breatherlab.model", "validate_assumptions", False, None),
    "lattice.prepare_model": ("breatherlab.lattice", "prepare_model", False, None),
    "lattice.assemble": ("breatherlab.lattice", "assemble", True, None),
    "lattice.kinetic_operator": ("breatherlab.lattice", "kinetic_operator", False, None),
    "spectral.count_below": ("breatherlab.spectral", "count_below", False, None),
    "spectral.dense_inertia": ("breatherlab.spectral", "_dense_inertia", False, _inertia_facts),
    "spectral.sparse_inertia": ("breatherlab.spectral", "_sparse_inertia", False, _inertia_facts),
    "spectral.tridiag_count_below": ("breatherlab.spectral", "tridiag_count_below", False,
                                     _tridiag_facts),
    "spectral.lowest_eigenvalues": ("breatherlab.spectral", "lowest_eigenvalues", True,
                                    _eig_facts),
    "ids.estimate_ids": ("breatherlab.ids", "estimate_ids", True, None),
    "ids.uniform_field": ("breatherlab.ids", "_uniform_field", False, None),
    "ids.sample_realization": ("breatherlab.ids", "sample_realization", False, None),
    "ids.fit_lifshitz": ("breatherlab.ids", "fit_lifshitz", False, None),
    "ids.matched_box_curve": ("breatherlab.ids", "matched_box_curve", False, None),
    "ids.bracketing_report": ("breatherlab.ids", "bracketing_report", False, None),
    "bounds.temple_lower_bound": ("breatherlab.bounds", "temple_lower_bound", False, None),
    "bounds.dirichlet_upper_bound": ("breatherlab.bounds", "dirichlet_upper_bound", False, None),
    "bounds.map_realization": ("breatherlab.bounds", "map_realization", True, None),
    "bounds.fit_gap_constant": ("breatherlab.bounds", "fit_gap_constant", False, None),
    "bounds.bernoulli_tail": ("breatherlab.bounds", "bernoulli_tail", False, None),
}


class Recorder:
    """In-memory span stack for one process (the CLI runs single-threaded)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, key_fact, result_facts):
        before = _args_key(fn) if key_fact else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = clock()
            span = {"name": name, "id": len(self.spans),
                    "parent": self.stack[-1] if self.stack else None}
            if before is not None:
                span["key"] = before(args, kwargs)
            self.spans.append(span)
            self.stack.append(span["id"])
            ok = False
            span["start_ns"] = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span["end_ns"] = clock()
                self.stack.pop()
                if ok and result_facts is not None:
                    span.update(result_facts(args, kwargs, result))
                span["overhead_ns"] = (span["start_ns"] - t_in) + (clock() - span["end_ns"])
            return result

        return traced

    def install(self):
        """Wrap every target found; returns the span names that were missing."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "breatherlab"
                                           or name.startswith("breatherlab."))}
        replace = {}
        missing = []
        for name, (module, qualname, key_fact, facts) in TARGETS.items():
            owner = modules.get(module)
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, parts[-1], None) if owner is not None else None
            if not callable(fn):
                missing.append(name)
                continue
            wrapper = self.wrap(name, fn, key_fact, facts)
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapper)
            else:
                replace[id(fn)] = wrapper
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        return missing

    def write(self, path, extra):
        header = {"kind": "process", "run": self.run_id, "pid": os.getpid(), **extra}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                span["run"] = self.run_id
                fh.write(json.dumps(span) + "\n")


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        print("usage: trace_driver.py SPANS_FILE RUN_ID -- <CLI arguments>", file=sys.stderr)
        return 2
    spans_file, run_id, cli_args = argv[0], argv[1], argv[3:]
    rec = Recorder(run_id)
    rec.spans.append({"name": "import.breatherlab", "id": 0, "parent": None,
                      "start_ns": T0_NS, "end_ns": IMPORT_END_NS, "overhead_ns": 0})
    missing = rec.install()
    code = 1
    try:
        code = breatherlab.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        rec.write(spans_file, {"modules_loaded": MODULES_AFTER - MODULES_BEFORE,
                               "missing_targets": missing})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
