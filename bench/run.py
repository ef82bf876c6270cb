#!/usr/bin/env python3
"""Benchmark of the breatherlab CLI: closed-loop workloads and a layer trace.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every workload is one client that launches ``breatherlab`` CLI processes one
after another, each after the previous one exits (a closed loop), with
``--workers 1`` and the default BLAS threading.  ``--trace 0`` repeats passes
for ``--seconds`` seconds and reports the end-to-end metrics as medians over
passes; ``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics from the spans of ``bench/trace_driver.py``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

``--seed`` is passed to every command with ``--seed``; without it the seeds
written in the configs are used, and only then can outputs be compared with
``bench/reference_digests.json``.  The program is run from ``src`` of the
checkout this file sits in; everything the benchmark writes goes under
``.bench_work/`` at the checkout root.  See ``bench/README.md``.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
PY = sys.executable
PROCESS_TIMEOUT_S = 60

SHIPPED = [
    ("validate", "configs/validate_breather.json"),
    ("spectrum", "configs/spectrum_small.json"),
    ("ids", "configs/ids_bracketing.json"),
    ("bounds", "configs/bounds.json"),
    ("lifshitz", "configs/lifshitz.json"),
]
# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "cli-shipped": SHIPPED,
    "ids-2d": [("ids", "bench/configs/ids_2d.json")],
    "cli-replay": SHIPPED,
}
PRIMARY = {
    "validate": ["validate_report.json", "validate_report.txt"],
    "spectrum": ["spectrum.csv"],
    "ids": ["ids_curve.csv", "bracketing.json"],
    "bounds": ["bounds_report.json"],
    "lifshitz": ["lifshitz.json", "lifshitz_curve.csv"],
}
REFERENCE = BENCH / "reference_digests.json"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, broken set-up)."""


@dataclass
class Invocation:
    command: str
    config: str
    out_dir: Path
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stderr: str
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def wall_s(self):
        return self.end - self.start


@dataclass
class Pass:
    invocations: list

    @property
    def wall_s(self):
        return self.invocations[-1].end - self.invocations[0].start

    @property
    def cpu_s(self):
        return sum(inv.cpu_s for inv in self.invocations)

    @property
    def peak_rss_mb(self):
        return max(inv.rss_mb for inv in self.invocations)


# ---------------------------------------------------------------------------
# processes


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(argv, log_stem: Path):
    """Run one process to completion; returns (start, end, rusage, exit code, stderr)."""
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = Path(f"{log_stem}.err").read_text(encoding="utf-8", errors="replace")
    return start, end, usage, proc.returncode, stderr


def run_pass(jobs, seed, pass_dir: Path, spans_file=None, out_dirs=None) -> Pass:
    """Launch each (command, config) once, in order, each after the last exits.

    With ``out_dirs`` every command writes into its fixed directory; the
    primary files and the meta sidecar a previous pass left there are deleted
    first, so only the command itself (from its cache, or by recomputing) can
    put them back.  The cache under ``.cache`` is kept.
    """
    pass_dir.mkdir(parents=True, exist_ok=True)
    for command, _ in jobs if out_dirs else ():
        for name in PRIMARY[command] + [f"{command}_meta.json"]:
            (out_dirs[command] / name).unlink(missing_ok=True)
    invocations = []
    for command, config in jobs:
        out_dir = out_dirs[command] if out_dirs else pass_dir / command
        cli = [command, "--config", config, "--out", str(out_dir), "--workers", "1"]
        if seed is not None:
            cli += ["--seed", str(seed)]
        if spans_file is None:
            argv = [PY, "-m", "breatherlab.cli", *cli]
        else:
            run_id = f"{pass_dir.name}/{command}"
            argv = [PY, str(BENCH / "trace_driver.py"), str(spans_file), run_id, "--", *cli]
        start, end, usage, code, stderr = launch(argv, pass_dir / f"{command}.log")
        invocations.append(Invocation(
            command=command, config=config, out_dir=out_dir, start=start, end=end,
            cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=code, stderr=stderr,
        ))
    for inv in invocations:
        check(inv)
    return Pass(invocations)


# ---------------------------------------------------------------------------
# correctness


def _verdict_failures(command, files, config):
    if command == "validate":
        return [] if json.loads(files["validate_report.json"])["passed"] is True \
            else ["validate: passed is false"]
    if command == "ids":
        rep = json.loads(files["bracketing.json"])
        fails = [] if rep["all_pass"] is True else ["ids: all_pass is false"]
        if rep["pathwise_violations"] != 0:
            fails.append(f"ids: {rep['pathwise_violations']} pathwise violations")
        return fails
    if command == "bounds":
        return [] if json.loads(files["bounds_report.json"])["all_pass"] is True \
            else ["bounds: all_pass is false"]
    if command == "lifshitz":
        rep = json.loads(files["lifshitz.json"])
        fails = [] if rep["band_pass"] is True else ["lifshitz: band_pass is false"]
        if not rep["self_test"] or not all(r["pass"] is True for r in rep["self_test"]):
            fails.append("lifshitz: self_test failed")
        return fails
    if command == "spectrum":
        cfg = json.loads((ROOT / config).read_text(encoding="utf-8"))
        tol = float(cfg.get("solve", {}).get("eig_tol", 1e-9))
        rows = list(csv.DictReader(io.StringIO(files["spectrum.csv"].decode())))
        if not rows:
            return ["spectrum: no rows"]
        bad = [r for r in rows if not float(r["residual"]) <= tol * (1.0 + abs(float(r["E"])))]
        return [f"spectrum: {len(bad)} residuals above eig_tol*(1+|E|)"] if bad else []
    return []


def check(inv: Invocation):
    """Fill ``inv.failures`` and ``inv.digests`` from the exit code, stderr and files."""
    if inv.exit_code != 0:
        inv.failures.append(f"exit code {inv.exit_code}")
    if "Traceback (most recent call last)" in inv.stderr:
        inv.failures.append("Python traceback on stderr")
    files = {}
    for name in PRIMARY[inv.command]:
        path = inv.out_dir / name
        if path.is_file():
            files[name] = path.read_bytes()
            inv.digests[name] = hashlib.sha256(files[name]).hexdigest()
        else:
            inv.failures.append(f"missing {name}")
    if len(files) == len(PRIMARY[inv.command]):
        try:
            inv.failures += _verdict_failures(inv.command, files, inv.config)
        except (ValueError, KeyError, TypeError) as err:
            inv.failures.append(f"unreadable output: {err!r}")


def require_same_bytes(p: Pass, expected: dict, why: str):
    """Fail each invocation whose primary files differ from ``expected[config]``."""
    for inv in p.invocations:
        if inv.digests != expected[inv.config]:
            inv.failures.append(f"primary outputs differ from {why}")


def require_cache_hits(p: Pass):
    """Fail each invocation whose meta sidecar does not record a cache hit."""
    for inv in p.invocations:
        try:
            meta = json.loads((inv.out_dir / f"{inv.command}_meta.json").read_text())
            hit = meta.get("cache") == "hit"
        except (OSError, ValueError, AttributeError):
            hit = False
        if not hit:
            inv.failures.append("replay was not a cache hit")


def outputs_changed(p: Pass) -> int:
    """Primary files whose SHA-256 differs from the reference (default seeds only)."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return sum(
        inv.digests.get(name) != reference.get(inv.config, {}).get(name)
        for inv in p.invocations for name in PRIMARY[inv.command]
    )


# ---------------------------------------------------------------------------
# set-up


def compile_sources():
    """Byte-compile the package once, so no timed process pays for it."""
    subprocess.run([PY, "-m", "compileall", "-q", str(ROOT / "src" / "breatherlab")],
                   cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)


def setup_seconds(jobs, log_stem: Path):
    """Wall time of a fresh interpreter that imports and prepares every config."""
    configs = list(dict.fromkeys(cfg for _, cfg in jobs))
    start, end, _, code, stderr = launch([PY, str(BENCH / "prepare_probe.py"), *configs],
                                         log_stem)
    if code != 0:
        raise BenchError(f"set-up probe failed with exit code {code}:\n{stderr}")
    return end - start


def fill_replay_cache(jobs, seed, run_dir: Path):
    """Run every command once into its own output directory, filling its cache."""
    out_dirs = {command: run_dir / "replay" / command for command, _ in jobs}
    fill = run_pass(jobs, seed, run_dir / "fill", out_dirs=out_dirs)
    return fill, out_dirs


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _rank(values, q):
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans_file: Path, traced: Pass, untraced: Pass, changed: int):
    processes, spans = [], []
    with open(spans_file, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            (processes if rec.get("kind") == "process" else spans).append(rec)
    by_id = {(s["run"], s["id"]): s for s in spans}
    self_ns = {key: s["end_ns"] - s["start_ns"] for key, s in by_id.items()}
    for (run, _), s in by_id.items():
        if s["parent"] is not None:
            self_ns[(run, s["parent"])] -= (s["end_ns"] - s["start_ns"]) + s["overhead_ns"]

    groups = defaultdict(list)
    for key, s in by_id.items():
        groups[s["name"]].append((s, self_ns[key]))

    def calls(name):
        return len(groups[name])

    def self_s(name):
        return sum(ns for _, ns in groups[name]) / 1e9

    def useful_ratio(name):
        n = calls(name)
        return len({s["key"] for s, _ in groups[name]}) / n if n else 0.0

    def duration_q(name, q, scale):
        return _rank([(s["end_ns"] - s["start_ns"]) / scale for s, _ in groups[name]], q)

    def total(name, fact):
        return sum(s.get(fact, 0) for s, _ in groups[name])

    def count(name, fact, value):
        return sum(s.get(fact) == value for s, _ in groups[name])

    traced_wall = sum(inv.wall_s for inv in traced.invocations)
    row_steps = total("spectral.tridiag_count_below", "row_steps")
    m = {
        "import.breatherlab_s": self_s("import.breatherlab"),
        "import.modules_loaded": max((p["modules_loaded"] for p in processes), default=0),
        "lattice.prepare_model.self_s": self_s("lattice.prepare_model"),
        "lattice.assemble.calls": calls("lattice.assemble"),
        "lattice.assemble.self_s": self_s("lattice.assemble"),
        "lattice.assemble.useful_ratio": useful_ratio("lattice.assemble"),
        "lattice.kinetic_operator.calls": calls("lattice.kinetic_operator"),
        "model.site_values.calls": calls("model.site_values"),
        "model.site_values.self_s": self_s("model.site_values"),
        "model.dist_sample.self_s": self_s("model.dist_sample"),
        "model.validate_assumptions.self_s": self_s("model.validate_assumptions"),
        "spectral.count_below.calls": calls("spectral.count_below"),
        "spectral.count_below.self_s": self_s("spectral.count_below"),
        "spectral.count_below.p50_ms": duration_q("spectral.count_below", 0.5, 1e6),
        "spectral.count_below.p99_ms": duration_q("spectral.count_below", 0.99, 1e6),
        "spectral.dense_inertia.calls": calls("spectral.dense_inertia"),
        "spectral.dense_inertia.self_s": self_s("spectral.dense_inertia"),
        "spectral.sparse_inertia.calls": calls("spectral.sparse_inertia"),
        "spectral.sparse_inertia.self_s": self_s("spectral.sparse_inertia"),
        "spectral.sparse_inertia.nnz_sum": total("spectral.sparse_inertia", "nnz"),
        "spectral.inertia_retries": (count("spectral.dense_inertia", "ok", False)
                                     + count("spectral.sparse_inertia", "ok", False)),
        "spectral.tridiag_count_below.calls": calls("spectral.tridiag_count_below"),
        "spectral.tridiag_count_below.self_s": self_s("spectral.tridiag_count_below"),
        "spectral.tridiag_count_below.row_steps": row_steps,
        "spectral.tridiag_count_below.ns_per_row_step": (
            self_s("spectral.tridiag_count_below") * 1e9 / row_steps if row_steps else 0.0),
        "spectral.lowest_eigenvalues.calls": calls("spectral.lowest_eigenvalues"),
        "spectral.lowest_eigenvalues.dense_calls": count("spectral.lowest_eigenvalues",
                                                         "method", "dense"),
        "spectral.lowest_eigenvalues.iterative_calls": count("spectral.lowest_eigenvalues",
                                                             "method", "iterative"),
        "spectral.lowest_eigenvalues.self_s": self_s("spectral.lowest_eigenvalues"),
        "spectral.lowest_eigenvalues.useful_ratio": useful_ratio("spectral.lowest_eigenvalues"),
        "ids.estimate_ids.calls": calls("ids.estimate_ids"),
        "ids.estimate_ids.useful_ratio": useful_ratio("ids.estimate_ids"),
        "ids.uniform_field.calls": calls("ids.uniform_field"),
        "ids.uniform_field.self_s": self_s("ids.uniform_field"),
        "ids.uniform_field.p50_us": duration_q("ids.uniform_field", 0.5, 1e3),
        "ids.sample_realization.calls": calls("ids.sample_realization"),
        "ids.fit_lifshitz.self_s": self_s("ids.fit_lifshitz"),
        "ids.matched_box_curve.self_s": self_s("ids.matched_box_curve"),
        "ids.bracketing_report.self_s": self_s("ids.bracketing_report"),
        "bounds.temple_lower_bound.calls": calls("bounds.temple_lower_bound"),
        "bounds.temple_lower_bound.self_s": self_s("bounds.temple_lower_bound"),
        "bounds.dirichlet_upper_bound.calls": calls("bounds.dirichlet_upper_bound"),
        "bounds.dirichlet_upper_bound.self_s": self_s("bounds.dirichlet_upper_bound"),
        "bounds.map_realization.calls": calls("bounds.map_realization"),
        "bounds.map_realization.useful_ratio": useful_ratio("bounds.map_realization"),
        "bounds.fit_gap_constant.self_s": self_s("bounds.fit_gap_constant"),
        "bounds.bernoulli_tail.self_s": self_s("bounds.bernoulli_tail"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.load_config.self_s": self_s("cli.load_config"),
        "cli.config_hash.self_s": self_s("cli.config_hash"),
        "cli.dump_json.self_s": self_s("cli.dump_json"),
        "cli.cache_fetch.self_s": self_s("cli.cache_fetch"),
        "cli.cache_store.self_s": self_s("cli.cache_store"),
        "cli.cache_hits": count("cli.cache_fetch", "hit", True),
        "cli.cache_misses": count("cli.cache_fetch", "hit", False),
        "cli.outputs_changed": changed,
        "trace.other_s": traced_wall - sum(self_ns.values()) / 1e9,
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    }
    missing = sorted({t for p in processes for t in p.get("missing_targets", [])})
    return m, missing, traced_wall


# ---------------------------------------------------------------------------
# environment


def environment():
    """Facts that decide whether two results may be compared."""
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREAD" in k},
        "git_sha": _git_sha(),
    }
    try:
        import numpy
        import scipy
        env["numpy"], env["scipy"] = numpy.__version__, scipy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as err:
        env["blas"] = f"unknown ({err!r})"
    return env


def _git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# reporting


def declared_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def result_line(metrics: dict, kind: str, invocations):
    units = declared_metrics(kind)
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(set(units) ^ set(metrics))} disagree with "
                         "BENCHMARK.json")
    failed = sum(bool(inv.failures) for inv in invocations)
    return {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def print_failures(invocations):
    for inv in invocations:
        for why in inv.failures:
            print(f"FAILED {inv.command} ({inv.config}): {why}")


def run_end_to_end(args, jobs, run_dir):
    compile_sources()
    invocations, out_dirs = [], None
    # The first pass after set-up runs measurably slower; it is not timed.  On
    # cli-replay that pass is the cache fill.
    if args.workload == "cli-replay":
        fill, out_dirs = fill_replay_cache(jobs, args.seed, run_dir)
        invocations += fill.invocations
        filled = {inv.config: inv.digests for inv in fill.invocations}
    else:
        warm = run_pass(jobs, args.seed, run_dir / "warm-up")
        invocations += warm.invocations
    # One set-up probe follows the warm-up and each timed pass, so its samples
    # spread over the run like the passes do.
    setup_samples = [setup_seconds(jobs, run_dir / "setup-warm-up")]

    passes = []
    t0 = time.perf_counter()
    while True:
        pass_dir = run_dir / f"pass{len(passes)}"
        p = run_pass(jobs, args.seed, pass_dir, out_dirs=out_dirs)
        if out_dirs:
            require_same_bytes(p, filled, "the set-up run")
            require_cache_hits(p)
        passes.append(p)
        invocations += p.invocations
        setup_samples.append(setup_seconds(jobs, pass_dir / "setup"))
        shutil.rmtree(pass_dir)
        if any(inv.failures for inv in p.invocations):
            break
        if time.perf_counter() - t0 + p.wall_s + setup_samples[-1] > args.seconds:
            break

    samples = {
        "wall_s": [p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "setup_s": setup_samples,
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
    }
    metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    for p in passes:
        for inv in p.invocations:
            samples.setdefault(f"{inv.command}_wall_s", []).append(inv.wall_s)
    units = declared_metrics("end_to_end")
    failed = sum(bool(inv.failures) for inv in invocations)
    print(f"workload {args.workload}: {len(passes)} passes in "
          f"{time.perf_counter() - t0:.1f} s, seed {args.seed}")
    print(f"{'metric':<18}{'unit':>6}{'median':>12}{'min':>10}{'max':>10}{'n':>5}")
    for name, vals in samples.items():
        print(f"{name:<18}{units.get(name, 's'):>6}{statistics.median(vals):>12.4f}"
              f"{min(vals):>10.4f}{max(vals):>10.4f}{len(vals):>5}")
    print(f"{'failed_frac':<18}{'1':>6}{failed / len(invocations):>12.4f}"
          f"{'':>20}{len(invocations):>5}")
    if args.seed is None:
        print(f"outputs_changed (vs reference digests): {outputs_changed(passes[-1])}")
    print_failures(invocations)
    record = {"samples": samples}
    return metrics, invocations, record


def run_traced(args, jobs, run_dir):
    compile_sources()
    invocations, out_dirs = [], None
    # The first pass (the cache fill on cli-replay) also warms up the untraced
    # pass that the traced one is compared with.
    if args.workload == "cli-replay":
        if args.seed is not None:
            reference_pass = run_pass(jobs, None, run_dir / "default-seeds")
            invocations += reference_pass.invocations
        fill, out_dirs = fill_replay_cache(jobs, args.seed, run_dir)
        invocations += fill.invocations
        filled = {inv.config: inv.digests for inv in fill.invocations}
        if args.seed is None:
            reference_pass = fill
    else:
        reference_pass = run_pass(jobs, None, run_dir / "default-seeds")
        invocations += reference_pass.invocations
    changed = outputs_changed(reference_pass)
    spans_file = WORK / "trace" / f"{args.workload}.spans.jsonl"
    spans_file.parent.mkdir(parents=True, exist_ok=True)
    spans_file.unlink(missing_ok=True)

    untraced = run_pass(jobs, args.seed, run_dir / "untraced", out_dirs=out_dirs)
    traced = run_pass(jobs, args.seed, run_dir / "traced", spans_file=spans_file,
                      out_dirs=out_dirs)
    invocations += untraced.invocations + traced.invocations
    require_same_bytes(traced, {inv.config: inv.digests for inv in untraced.invocations},
                       "the untraced run")
    if out_dirs:
        for p in (untraced, traced):
            require_same_bytes(p, filled, "the set-up run")
            require_cache_hits(p)

    metrics, missing, traced_wall = layer_metrics(spans_file, traced, untraced, changed)
    print(f"workload {args.workload}: traced pass {traced.wall_s:.3f} s, untraced "
          f"{untraced.wall_s:.3f} s, spans in {spans_file.relative_to(ROOT)}")
    if missing:
        print(f"targets not found in this code (reported as zero calls): {missing}")
    for name, value in metrics.items():
        print(f"{name:<46}{value:>16.6g}")
    print(f"self times + trace.other_s = {traced_wall:.4f} s traced process wall")
    print_failures(invocations)
    return metrics, invocations, {"spans_file": str(spans_file.relative_to(ROOT)),
                                  "missing_targets": missing}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="passed to every command as --seed (default: the configs' seeds)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long --trace 0 keeps starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    needed = [ROOT / "src" / "breatherlab" / "cli.py"] + [ROOT / cfg for _, cfg in SHIPPED]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"bench: the program is not in this checkout (missing {absent})", file=sys.stderr)
        return 2
    run_dir = WORK / "runs" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        jobs = WORKLOADS[args.workload]
        if args.trace:
            metrics, invocations, record = run_traced(args, jobs, run_dir)
            line = result_line(metrics, "per_layer", invocations)
        else:
            metrics, invocations, record = run_end_to_end(args, jobs, run_dir)
            line = result_line(metrics, "end_to_end", invocations)
    except (BenchError, subprocess.CalledProcessError, OSError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    env = environment()
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "environment": env, **line, "detail": record},
        indent=2, default=str) + "\n")
    print(f"environment: {json.dumps(env)}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
