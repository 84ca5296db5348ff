"""varicurv benchmark: seeded closed-loop workloads over the real pipeline.

Usage (from the repository root):

    python3 bench/run.py --workload cube-cli-16k --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

One process, one caller: each pass starts only after the previous one has
returned.  A run imports varicurv from ``src/`` and sets the workload up
``SETUPS`` times from the seed; each set-up time is the import time in a
fresh interpreter plus the input generation, and the median is reported.
It then makes passes until ``--seconds`` is used up; the first pass is a
warm-up and is checked but not timed into the medians.  Every pass is
checked for correctness, and all passes of one run must produce the same
output bytes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes, prints the per-layer metrics (including the
tracing overhead) and writes every span to ``.bench_out/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 all checks passed, 1 an output check failed, 2 the benchmark
could not start (for instance ``src/varicurv`` is missing).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("cube-cli-16k", "torus-schedule")
SETUPS = 5
MIN_TIMED = 3
THREAD_VARS = ("VARICURV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "points_per_ref": "points/ref",
    "pass_ref_p50": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "oracle_err_p50": "rel",
    "ok_frac": "frac",
}

# Per-layer metric -> (source, key, unit).  "time" sums span durations,
# "self" sums span durations minus the time covered by their child spans,
# "count" sums an exact counter.
LAYER_SOURCES = {
    "estimator.report_s": ("time", "estimator.curvature_report", "s"),
    "estimator.report_self_s": ("self", "estimator.curvature_report", "s"),
    "estimator.point_calls": ("count", "estimator.point_curvature.calls", "count"),
    "estimator.point_s": ("time", "estimator.point_curvature", "s"),
    "estimator.point_self_s": ("self", "estimator.point_curvature", "s"),
    "estimator.pairs": ("count", "estimator.pairs", "count"),
    "estimator.tensor_flops_computed": ("count", "estimator.tensor_flops_computed", "flop"),
    "estimator.tensor_bytes_computed": ("count", "estimator.tensor_bytes_computed", "B"),
    "estimator.index_builds": ("count", "estimator.index_build.calls", "count"),
    "estimator.resolve_calls": ("count", "estimator.resolve_all.calls", "count"),
    "estimator.resolve_s": ("time", "estimator.resolve_all", "s"),
    "estimator.tangent_s": ("time", "estimator.estimate_tangent_planes", "s"),
    "estimator.tangent_ambiguous": ("count", "estimator.tangent_ambiguous", "count"),
    "estimator.mass_s": ("time", "estimator.estimate_masses", "s"),
    "kernels.eval_calls": ("count", "kernels.eval.calls", "count"),
    "kernels.eval_radii": ("count", "kernels.eval_radii", "count"),
    "kernels.eval_s": ("time", "kernels.eval", "s"),
    "kernels.pair_build_s": ("time", "kernels.pair_build", "s"),
    "io.read_s": ("time", "io.read_xyz", "s"),
    "io.write_csv_s": ("time", "io.write_report_csv", "s"),
    "io.write_ply_s": ("time", "io.write_ply", "s"),
    "io.bytes_written": ("count", "io.bytes_written", "B"),
    "varifold.validate_s": ("time", "varifold.validate_cloud", "s"),
    "tensors.solve_calls": ("count", "tensors.solve_curvature_system.calls", "count"),
    "tensors.solve_s": ("time", "tensors.solve_curvature_system", "s"),
    "tensors.bilinear_calls": ("count", "tensors.to_bilinear_form.calls", "count"),
    "shapes.sample_s": ("time", "shapes.sample", "s"),
    "shapes.oracle_calls": ("count", "shapes.exact_report.calls", "count"),
    "cli.self_s": ("self", "cli.main", "s"),
    "convergence.self_s": ("self", "convergence.run_convergence", "s"),
}
DERIVED_LAYER_UNITS = {
    "estimator.neighbors_p50": "count",
    "io.read_mb_per_s": "MB/s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
EXACT_UNITS = {"count", "flop", "B"}
PER_LAYER_UNITS = {
    **{name: unit for name, (_, _, unit) in LAYER_SOURCES.items()},
    **DERIVED_LAYER_UNITS,
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="full is the benchmark; smoke is a few hundred points")
    return ap.parse_args(argv)


def fail_to_start(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_varicurv() -> None:
    """Import varicurv from this checkout's src/."""
    if not (SRC / "varicurv" / "__init__.py").is_file():
        fail_to_start(f"no varicurv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    importlib.import_module("varicurv")
    loaded = Path(sys.modules["varicurv"].__file__).resolve()
    if SRC not in loaded.parents:
        fail_to_start(f"varicurv loaded from {loaded}, not {SRC}")


# Set-up includes importing varicurv, which only a fresh interpreter repeats.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); "
                "import varicurv, varicurv.cli, varicurv.convergence; "
                "print(time.perf_counter() - t)")


def fresh_import_s() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def environment(seed: int, removed: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "thread_env_removed": removed,
        "varicurv_threads": 1,
        "load": "closed loop, 1 caller, 1 process",
    }


# ---------------------------------------------------------------- passes


class Reference:
    """A fixed computation with the estimator's mix of work: a Python loop
    of small numpy gathers, contractions and 3x3 ``eigh``.

    It is timed before the first pass and after every pass, and each pass
    is reported relative to the mean of the two reference times around it.
    That divides out the speed of a shared host: on the 2-core host the
    benchmark was defined on, the speed drifts by 20-60% over minutes, and
    pass wall times drift with it.  The reference is the benchmark's own
    code, so a change to varicurv moves only the pass side of the ratio.
    """

    ITERS = 16000

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.points = rng.standard_normal((4000, 3))
        self.neighbors = rng.integers(0, 4000, (500, 40))

    def time(self) -> float:
        np, points, neighbors = self.np, self.points, self.neighbors
        t0 = time.perf_counter()
        for i in range(self.ITERS):
            d = points[neighbors[i % 500]] - points[i % 4000]
            w = np.exp(-np.einsum("ij,ij->i", d, d))
            np.linalg.eigh(np.einsum("i,ij,ik->jk", w, d, d))
        return time.perf_counter() - t0


class PassLog:
    """Outcome of every pass of a run, in order."""

    def __init__(self, reference):
        self.reference = reference
        self.refs = [reference.time()]
        self.relative = []  # (points, pass time / reference time) per untraced pass
        self.attempted = 0
        self.failed = 0
        self.fingerprint = None
        self.timed = {"untraced": [], "traced": []}
        self.points = []
        self.flagged = 0
        self.checked_points = 0
        self.errors = []

    def run(self, workload, state, tracer, label, warmup):
        self.attempted += 1
        failures = []
        try:
            dt = workload.run_pass(state, tracer)
            outcome = workload.check_pass(state)
        except Exception as e:  # a raising pass is a failed pass, not a crash
            dt, outcome = None, None
            failures.append(f"raised {type(e).__name__}: {e}")
        self.refs.append(self.reference.time())
        if outcome is not None:
            failures += outcome.failures
            if self.fingerprint is None:
                self.fingerprint = outcome.fingerprint
            elif outcome.fingerprint != self.fingerprint:
                failures.append("output differs from the first pass of this run")
            self.flagged += outcome.flagged
            self.checked_points += outcome.points
            self.errors.append(outcome.oracle_err)
        if failures:
            self.failed += 1
            print(f"pass {self.attempted} failed: {'; '.join(failures)}",
                  file=sys.stderr)
        elif not warmup:
            self.timed[label].append(dt)
            self.points.append(outcome.points)
            if label == "untraced":
                self.relative.append(
                    (outcome.points, dt / statistics.fmean(self.refs[-2:])))
        if dt is not None:
            print(f"pass {self.attempted} {'warm-up' if warmup else label} "
                  f"{dt:.4f} s, reference {self.refs[-1]:.4f} s")
        return dt


def run_passes(workload, state, seconds, tracer, traced_run):
    """Warm-up pass, then timed passes until ``seconds`` is used up.

    An untraced run makes at least ``MIN_TIMED`` timed passes.  In a traced
    run, timed passes alternate traced/untraced, starting traced, with at
    least two traced and one untraced; ``phases`` lists the traced ones.
    """
    from spans import NullTracer

    null = NullTracer()
    log = PassLog(Reference())
    phases = []
    start = time.perf_counter()
    log.run(workload, state, null, "untraced", warmup=True)
    durations = []
    while True:
        n_traced, n_untraced = len(phases), log.attempted - 1 - len(phases)
        enough = (n_traced >= 2 and n_untraced >= 1) if traced_run \
            else n_untraced >= MIN_TIMED
        elapsed = time.perf_counter() - start
        if enough and elapsed + statistics.median(durations or [0.0]) > seconds:
            break
        if traced_run and n_traced <= n_untraced:
            label = f"pass{log.attempted}"
            phases.append(label)
            with tracer.phase(label), tracer.installed(), tracer.span("bench.pass"):
                dt = log.run(workload, state, tracer, "traced", warmup=False)
        else:
            dt = log.run(workload, state, null, "untraced", warmup=False)
        if dt is not None:
            durations.append(dt)
    return log, phases


# ---------------------------------------------------------------- metrics


def end_to_end(log, setup_s):
    rel = log.relative
    metrics = {}
    if rel:
        metrics["points_per_ref"] = (statistics.median(p / r for p, r in rel), len(rel))
        metrics["pass_ref_p50"] = (statistics.median(r for _, r in rel), len(rel))
    metrics["setup_s"] = (statistics.median(setup_s), len(setup_s))
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    if log.errors:
        metrics["oracle_err_p50"] = (statistics.median(log.errors), len(log.errors))
    if log.checked_points:
        metrics["ok_frac"] = (1.0 - log.flagged / log.checked_points,
                              log.checked_points)
    return metrics


def _phase_totals(tracer):
    """Per phase: summed span durations and self times by span name (s)."""
    child = {}
    for _, parent, _, t0, t1, _ in tracer.spans:
        child[parent] = child.get(parent, 0) + (t1 - t0)
    totals, selfs = {}, {}
    for sid, _, name, t0, t1, phase in tracer.spans:
        tot = totals.setdefault(phase, {})
        slf = selfs.setdefault(phase, {})
        tot[name] = tot.get(name, 0) + (t1 - t0)
        slf[name] = slf.get(name, 0) + (t1 - t0 - child.get(sid, 0))
    return totals, selfs


def per_layer(tracer, setup_phases, pass_phases, log):
    """Each layer metric covers one set-up plus one pass: the median over
    the traced set-ups plus the median over the traced passes."""
    totals, selfs = _phase_totals(tracer)
    span_counts = {}
    for span in tracer.spans:
        span_counts[span[5]] = span_counts.get(span[5], 0) + 1

    def per_phase(source, key, phase):
        if source == "count":
            return tracer.counts.get(phase, {}).get(key, 0)
        table = totals if source == "time" else selfs
        return table.get(phase, {}).get(key, 0) / 1e9

    def combined(fn):
        return (statistics.median(fn(p) for p in setup_phases)
                + statistics.median(fn(p) for p in pass_phases))

    metrics = {}
    for name, (source, key, _) in LAYER_SOURCES.items():
        metrics[name] = combined(lambda p: per_phase(source, key, p))
    read_bytes = combined(lambda p: tracer.counts.get(p, {}).get("io.bytes_read", 0))
    metrics["io.read_mb_per_s"] = (read_bytes / 1e6 / metrics["io.read_s"]
                                   if metrics["io.read_s"] > 0 else 0.0)
    sizes = tracer.neighbor_sizes.get(pass_phases[0], [])
    metrics["estimator.neighbors_p50"] = float(statistics.median(sizes)) if sizes else 0.0
    metrics["trace.spans"] = combined(lambda p: span_counts.get(p, 0))
    metrics["trace.overhead_s"] = (statistics.median(log.timed["traced"])
                                   - statistics.median(log.timed["untraced"])
                                   if log.timed["traced"] and log.timed["untraced"]
                                   else 0.0)
    return metrics


def count_mismatches(tracer, phases):
    """Names of exact counts that differ between phases that did equal work."""
    if len(phases) < 2:
        return []
    first = tracer.counts.get(phases[0], {})
    bad = set()
    for p in phases[1:]:
        other = tracer.counts.get(p, {})
        bad |= {k for k in set(first) | set(other) if first.get(k) != other.get(k)}
        if tracer.neighbor_sizes.get(p) != tracer.neighbor_sizes.get(phases[0]):
            bad.add("neighbor sizes")
    return sorted(bad)


def emit(metrics, units, result):
    for name, (value, n) in metrics.items():
        print(f"metric {name} = {value!r} {units[name]} (n={n})")
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, (value, _) in metrics.items()}
    print(json.dumps(result), flush=True)


# ---------------------------------------------------------------- entry points


def run_workload(args) -> int:
    removed = {}
    if "VARICURV_THREADS" in os.environ:
        # Measure the program's default thread count (1).
        removed["VARICURV_THREADS"] = os.environ.pop("VARICURV_THREADS")
    import_varicurv()
    sys.path.insert(0, str(HERE))
    import workloads
    from spans import NullTracer, Tracer

    env = environment(args.seed, removed)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} size={args.size} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    workload = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_s, setup_phases = [], []
        for i in range(SETUPS):
            setup_phases.append(f"setup{i}")
            import_s = fresh_import_s()
            t0 = time.perf_counter()
            if args.trace:
                with tracer.phase(f"setup{i}"), tracer.installed(), \
                        tracer.span("bench.setup"):
                    state = workload.setup(args.seed, args.size, workdir)
            else:
                state = workload.setup(args.seed, args.size, workdir)
            setup_s.append(import_s + time.perf_counter() - t0)
        log, phases = run_passes(workload, state, args.seconds, tracer, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"metric failed_frac = {log.failed / log.attempted!r} frac "
          f"(n={log.attempted})")
    if log.checked_points:
        print(f"metric flagged_frac = {log.flagged / log.checked_points!r} frac "
              f"(n={log.checked_points})")
    timed = log.timed["untraced"]
    if timed:
        # Wall times as a user sees them; they drift with the host's speed.
        pass_s = statistics.median(timed)
        print(f"metric points_per_s = {statistics.median(log.points) / pass_s!r} "
              f"points/s (n={len(timed)})")
        print(f"metric pass_s_p50 = {pass_s!r} s (n={len(timed)})")
    print(f"metric reference_s_p50 = {statistics.median(log.refs)!r} s (n={len(log.refs)})")
    result = {"correct": log.failed == 0, "attempted": log.attempted,
              "failed": log.failed}
    if not args.trace:
        metrics = end_to_end(log, setup_s)
        result["correct"] = result["correct"] and set(metrics) == set(END_TO_END_UNITS)
        emit(metrics, END_TO_END_UNITS, result)
        return 0 if result["correct"] else 1

    mismatched = count_mismatches(tracer, phases) + count_mismatches(tracer, setup_phases)
    if mismatched:
        print(f"exact counts differ between traced passes or set-ups: {mismatched}",
              file=sys.stderr)
    result["correct"] = result["correct"] and not mismatched and bool(phases)
    layers = per_layer(tracer, setup_phases, phases, log) if phases else {}
    path = OUT / f"{args.workload}-{args.size}-seed{args.seed}.spans.jsonl.gz"
    tracer.write(str(path), {"env": env, "workload": args.workload,
                             "size": args.size, "metrics": layers,
                             "setup_phases": setup_phases, "pass_phases": phases,
                             "span_fields": ["id", "parent", "name", "start_ns",
                                             "end_ns", "phase"]})
    print(f"spans written to {path.relative_to(ROOT)}")
    n = len(phases)
    layers = {k: int(v) if PER_LAYER_UNITS[k] in EXACT_UNITS and v == int(v) else v
              for k, v in layers.items()}
    emit({k: (v, n) for k, v in layers.items()}, PER_LAYER_UNITS, result)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            print(f"workload {name}: no result (exit code {proc.returncode})",
                  file=sys.stderr)
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        fail_to_start("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
