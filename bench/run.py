"""Benchmark of the tespovm characterization chain.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory. The workloads (see ``workloads.py`` and README.md)
run one operation after another for about ``--seconds`` seconds. Every
operation is checked against the acceptance floors and counted as failed
if it misses one. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, timed with no
tracing installed. With ``--trace 1`` operations run in pairs, one
untraced and one traced on the same inputs, and the metrics are the
per-layer ones: span self times per layer function, counters, tracing
overhead and the diagnostics of ``workloads.diagnostics``. The spans are
written to ``.bench_run/spans_<workload>_seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 3
# Every run times at least this many operations (a traced run's pair
# counts as two), so even a workload whose operation takes most of
# --seconds reports a median over two of them.
MIN_OPS = 2

END_TO_END = {"chain_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "tes_sim.simulate_s": "s",
    "tes_sim.pulses": "count",
    "tes_sim.speedup_jobs2": "ratio",
    "files.trace_write_s": "s",
    "files.trace_read_s": "s",
    "files.trace_mb": "MB",
    "artifact_mb": "MB",
    "calibration.fit_peaks_s": "s",
    "calibration.thresholds_s": "s",
    "calibration.bin_s": "s",
    "calibration.components": "count",
    "calibration.label_tv_max": "ratio",
    "estimation.estimate_eta_s": "s",
    "estimation.eta_gamma_s": "s",
    "estimation.eta_abs_err": "abs",
    "estimation.gamma_abs_err": "abs",
    "tomography.reconstruct_s": "s",
    "tomography.iters": "count",
    "tomography.stop_reason": "code",
    "tomography.converged": "flag",
    "tomography.min_fidelity_low": "ratio",
    "tomography.exact_reconstruct_s": "s",
    "tomography.exact_iters": "count",
    "tomography.exact_converged": "flag",
    "tomography.exact_residual": "abs",
    "tomography.exact_min_fidelity": "ratio",
    "tomography.move_from_init": "abs",
    "tomography.uniform_init_min_fidelity": "ratio",
    "tomography.pg_residual": "abs",
    "metrics.fidelity_s": "s",
    "metrics.comparison_s": "s",
    "metrics.sweep_s": "s",
    "cli.simulate_s": "s",
    "cli.calibrate_s": "s",
    "cli.reconstruct_s": "s",
    "cli.estimate_s": "s",
    "cli.validate_s": "s",
    "cli.calibrate_speedup_jobs2": "ratio",
    "trace.chain_s": "s",
    "trace.untraced_chain_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}

# Self time of each wrapped function, by the metric it feeds.
SELF_TIMES = {
    "tes_sim.simulate_s": "tes_sim.simulate_ensemble",
    "files.trace_write_s": "files.write_trace_csv",
    "files.trace_read_s": "files.read_trace_csv",
    "calibration.fit_peaks_s": "calibration.fit_peaks",
    "calibration.thresholds_s": "calibration.place_thresholds",
    "calibration.bin_s": "calibration.bin_counts",
    "estimation.estimate_eta_s": "estimation.estimate_eta",
    "estimation.eta_gamma_s": "estimation.estimate_eta_gamma",
    "metrics.fidelity_s": "metrics.fidelity_curve",
    "metrics.comparison_s": "metrics.three_way_comparison",
    "metrics.sweep_s": "metrics.sensitivity_sweep",
}

# tomography.stop_reason as a number, lower for a firmer stop; 0 = no solve.
STOP_CODES = {"objective_tol": 1, "noise_floor": 2, "objective_stall": 3,
              "max_iters": 4}


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import tespovm from this checkout's src/, and nothing else."""
    if not (SRC / "tespovm" / "__init__.py").is_file():
        fail(f"no tespovm package under {SRC}; run from a source checkout")
    # Single-threaded BLAS: the CLI's --jobs pools are then the only
    # parallelism, and a run uses at most JOBS threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import tespovm

    if SRC.resolve() not in Path(tespovm.__file__).resolve().parents:
        fail(f"imported tespovm from {tespovm.__file__}, not from {SRC}")


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports and prepares the inputs."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=True, timeout=150,
    )
    return time.perf_counter() - t0


def no_span(name):
    return contextlib.nullcontext()


def op_seeds(seed: int):
    """Per-operation simulation seeds drawn from the run seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def run_op(wl, inputs, op_seed, scratch, tracer=None):
    """One operation: returns (outcome or None, seconds, failure reasons)."""
    import spans
    from workloads import check

    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    outcome, problems = None, []
    t0 = time.perf_counter()
    try:
        if tracer is None:
            outcome = wl.op(inputs, op_seed, scratch, no_span)
            elapsed = time.perf_counter() - t0
        else:
            with spans.installed(tracer):
                t0 = time.perf_counter()
                outcome = wl.op(inputs, op_seed, scratch, tracer.span)
                elapsed = time.perf_counter() - t0
        outcome = wl.collect(outcome, scratch, inputs)
        problems = check(outcome)
    except Exception:  # one failed operation must not end the run
        elapsed = time.perf_counter() - t0
        problems = ["raised:\n" + traceback.format_exc()]
        outcome = None
    for p in problems:
        print(f"bench: operation with seed {op_seed} failed: {p}", file=sys.stderr)
    return outcome, elapsed, problems


def layer_metrics(name, tracer, outcome, traced_s) -> dict:
    from spans import self_times
    from workloads import ETA, GAMMA

    self_s, attrs = defaultdict(float), defaultdict(list)
    for span, t in zip(tracer.spans, self_times(tracer.spans)):
        self_s[span.name] += t
        attrs[span.name].append(span.attrs)
    roots = sum(s.duration for s in tracer.spans if s.parent is None)
    m = {metric: self_s[fn] for metric, fn in SELF_TIMES.items()}
    m["tes_sim.pulses"] = sum(a["pulses"] for a in attrs["tes_sim.simulate_ensemble"])
    m["calibration.components"] = sum(a["components"] for a in attrs["calibration.fit_peaks"])
    solves = attrs["tomography.reconstruct_povm"]
    prefix = "tomography.exact_" if name == "solvers" else "tomography."
    m[prefix + "reconstruct_s"] = self_s["tomography.reconstruct_povm"]
    m[prefix + "iters"] = sum(a["iters"] for a in solves)
    m[prefix + "converged"] = int(bool(solves) and all(a["converged"] for a in solves))
    if name != "solvers":
        m["tomography.stop_reason"] = max((STOP_CODES[a["stop_reason"]] for a in solves),
                                          default=0)
    for stage, seconds in outcome.stage_s.items():
        m[f"cli.{stage}_s"] = seconds
    m["files.trace_mb"] = outcome.trace_bytes / 1e6
    m["artifact_mb"] = outcome.artifact_bytes / 1e6
    if outcome.eta_hat is not None:
        m["estimation.eta_abs_err"] = abs(outcome.eta_hat - ETA)
        m["tomography.min_fidelity_low"] = outcome.min_fidelity_low
    if outcome.gamma_hat is not None:
        m["estimation.gamma_abs_err"] = abs(outcome.gamma_hat - GAMMA)
        m["tomography.exact_residual"] = outcome.exact_residual
        m["tomography.exact_min_fidelity"] = outcome.exact_min_fidelity
    m["trace.unattributed_s"] = traced_s - roots
    m["trace.spans"] = len(tracer.spans)
    return m


def measure(name, seed, seconds, trace):
    import spans
    from workloads import WORKLOADS, diagnostics

    wl = WORKLOADS[name]
    inputs = wl.prepare(seed)
    seeds = op_seeds(seed)
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR))
    scratch = work / "op"
    attempted = failed = 0
    untraced, traced, rows, dumps, costs = [], [], [], [], []
    last = None
    start = time.perf_counter()
    try:
        while True:
            op_start = time.perf_counter()
            op_seed = next(seeds)
            outcome, elapsed, problems = run_op(wl, inputs, op_seed, scratch)
            attempted += 1
            failed += bool(problems)
            untraced.append(elapsed)
            if trace:
                tracer = spans.Tracer()
                outcome, elapsed, problems = run_op(wl, inputs, op_seed, scratch, tracer)
                attempted += 1
                failed += bool(problems)
                traced.append(elapsed)
                dumps.append({"op_seed": op_seed, "chain_s": elapsed,
                              "spans": tracer.to_json()})
                if outcome is not None:
                    rows.append(layer_metrics(name, tracer, outcome, elapsed))
                    last = outcome
            costs.append(time.perf_counter() - op_start)
            if (len(untraced) + len(traced) >= MIN_OPS
                    and time.perf_counter() - start + statistics.median(costs) > seconds):
                break
        if not trace:
            metrics = {
                "chain_s": statistics.median(untraced),
                "setup_s": statistics.median(
                    [time_setup(name, seed) for _ in range(SETUP_REPEATS)]
                ),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                * 1024 / 1e6,
            }
            units = END_TO_END
        else:
            metrics = dict.fromkeys(PER_LAYER, 0)
            for key in rows[0] if rows else ():
                metrics[key] = statistics.median(r[key] for r in rows)
            if last is not None:
                try:
                    metrics.update(diagnostics(name, inputs, last, scratch))
                except Exception:  # diagnostics are ungated; keep the result
                    print("bench: diagnostics failed:\n" + traceback.format_exc(),
                          file=sys.stderr)
            metrics["trace.chain_s"] = statistics.median(traced)
            metrics["trace.untraced_chain_s"] = statistics.median(untraced)
            metrics["trace.overhead_s"] = metrics["trace.chain_s"] - metrics[
                "trace.untraced_chain_s"]
            units = PER_LAYER
            out = RUN_DIR / f"spans_{name}_seed{seed}.json"
            out.write_text(json.dumps({"workload": name, "seed": seed, "ops": dumps}))
            print(f"bench: spans written to {out}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    undeclared = set(metrics) - set(units)
    if undeclared:
        raise RuntimeError(f"undeclared metrics {sorted(undeclared)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_default", "library_default", "solvers"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_package()
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].prepare(args.seed)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
