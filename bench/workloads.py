"""The benchmark's three workloads, the gate every operation must pass,
and the start-independence diagnostics of the traced run.

Each workload is closed-loop: one process characterizes one design at a
time and starts the next operation only when the previous one is done.
``prepare`` builds the workload's inputs from the run seed; ``op`` is one
timed operation; ``collect`` reads what the operation produced, outside
the timed region, into an :class:`Outcome` that :func:`check` gates.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import tespovm as tp
from tespovm import cli

# The default design: 20 geometric probes x 1e5 pulses, 12 outcomes,
# truncation 140, eta 0.051 (tespovm.files.default_config).
ETA = 0.051
GAMMA = 0.2
N_OUTCOMES = 12
TRUNCATION = 140
SPLIT = 100
BIN_WIDTH_MV = 1.3
ENERGY_SCALE = 0.03
ATTENUATION_DB = 0.1
# Worker threads of the CLI's --jobs pools: the reference machine's nproc.
JOBS = 2

# Acceptance floors of tests/test_acceptance.py, checked on every operation.
MIN_FIDELITY_NOISY = 0.99  # criterion 1, m <= 100
ETA_TOLERANCE = 0.002  # criterion 2
EXACT_RESIDUAL_MAX = 1e-10  # criterion 5
MIN_FIDELITY_EXACT = 0.999  # criterion 5
GAMMA_SIGMAS = 3.0  # criterion 3, injected gamma = 0.2

CLI_STAGES = ("simulate", "calibrate", "reconstruct", "estimate", "validate")


@dataclass
class Outcome:
    """What one operation produced, as far as the gate and diagnostics need.

    Fields a workload does not produce stay None and are not checked.
    """

    op_seed: int
    stage_s: dict = field(default_factory=dict)
    exit_codes: dict | None = None
    hashes: dict | None = None
    table: tp.CountTable | None = None  # the table the POVM was solved from
    ensemble: tp.ProbeEnsemble | None = None
    povm: np.ndarray | None = None
    init_eta: float | None = None
    reference_eta: float | None = None  # eta of the binomial reference POVM
    eta_hat: float | None = None
    min_fidelity_low: float | None = None
    sweep_points: int | None = None
    exact_residual: float | None = None
    exact_min_fidelity: float | None = None
    gamma_hat: float | None = None
    gamma_se: float | None = None
    artifact_bytes: int = 0
    trace_bytes: int = 0


def check(out: Outcome) -> list[str]:
    """Reasons the operation failed; empty when it passed."""
    bad = []
    if out.exit_codes is not None:
        codes = [out.exit_codes.get(s) for s in CLI_STAGES]
        if codes != [0] * len(CLI_STAGES):
            bad.append(f"cli exit codes {codes}")
    if out.hashes is not None and len(set(out.hashes.values())) != 1:
        bad.append(f"lineage hashes disagree: {out.hashes}")
    if out.min_fidelity_low is not None and not out.min_fidelity_low >= MIN_FIDELITY_NOISY:
        bad.append(f"min fidelity m<={SPLIT} {out.min_fidelity_low} < {MIN_FIDELITY_NOISY}")
    if out.eta_hat is not None and not abs(out.eta_hat - ETA) <= ETA_TOLERANCE:
        bad.append(f"eta_hat {out.eta_hat} off {ETA} by more than {ETA_TOLERANCE}")
    if out.sweep_points is not None and out.sweep_points != 5:
        bad.append(f"sensitivity sweep has {out.sweep_points} points, expected 5")
    if out.exact_residual is not None and not out.exact_residual <= EXACT_RESIDUAL_MAX:
        bad.append(f"exact-data residual {out.exact_residual} > {EXACT_RESIDUAL_MAX}")
    if out.exact_min_fidelity is not None and not out.exact_min_fidelity >= MIN_FIDELITY_EXACT:
        bad.append(f"exact-data min fidelity {out.exact_min_fidelity} < {MIN_FIDELITY_EXACT}")
    if out.gamma_hat is not None and not (
        abs(out.gamma_hat - GAMMA) <= GAMMA_SIGMAS * out.gamma_se
    ):
        bad.append(f"gamma_hat {out.gamma_hat} off {GAMMA} by more than "
                   f"{GAMMA_SIGMAS} se ({out.gamma_se})")
    if out.exit_codes is None and out.eta_hat is None and out.gamma_hat is None:
        bad.append("operation produced no result")
    return bad


def calibrate(traces, n_outcomes: int = N_OUTCOMES) -> tp.CountTable:
    """The README's calibration loop: fit, cut, bin, stack in id order."""
    columns = {}
    for trace in traces:
        fit = tp.fit_peaks(trace, bin_width_mv=BIN_WIDTH_MV)
        cuts = tp.place_thresholds(fit)
        columns[trace.probe_id] = tp.bin_counts(trace, cuts, n_outcomes)
    ids = tuple(sorted(columns))
    return tp.CountTable.from_counts(
        np.column_stack([columns[i] for i in ids]), probe_ids=ids
    )


def truth_histograms(traces, n_outcomes: int = N_OUTCOMES) -> np.ndarray:
    """True detected-count histograms, top bin cumulative, columns in id order."""
    by_id = {t.probe_id: t.truth_counts for t in traces}
    return np.column_stack([
        np.bincount(np.minimum(by_id[i], n_outcomes - 1), minlength=n_outcomes)
        for i in sorted(by_id)
    ])


# -- library_default and cli_default -------------------------------------------

def prepare_default(seed: int):
    """The default design; the CLI builds the same one from its own defaults."""
    return SimpleNamespace(
        detector=tp.DetectorPhysicalConfig(eta=ETA), ensemble=tp.geometric_ensemble()
    )


def library_op(inputs, op_seed: int, scratch: Path, span) -> Outcome:
    """README quick start at jobs=1, then comparison and sensitivity sweep."""
    ensemble = inputs.ensemble
    traces = tp.simulate_ensemble(inputs.detector, ensemble, seed=op_seed, jobs=1)
    table = calibrate(traces)
    del traces
    est = tp.estimate_eta(table, ensemble)
    cfg = tp.ReconstructionConfig(init_eta=est.eta_hat)
    rec = tp.reconstruct_povm(table, ensemble, cfg)
    reference = tp.binomial_povm(est.eta_hat, N_OUTCOMES, TRUNCATION)
    curve = tp.fidelity_curve(rec.povm, reference, split=SPLIT)
    tp.three_way_comparison(table, rec.povm, est.eta_hat, ensemble)
    sweep = tp.sensitivity_sweep(
        table, ensemble, cfg, reference,
        energy_scale=ENERGY_SCALE, attenuation_db=ATTENUATION_DB, split=SPLIT,
    )
    return Outcome(
        op_seed=op_seed, table=table, ensemble=ensemble, povm=rec.povm.entries,
        init_eta=cfg.init_eta, reference_eta=est.eta_hat, eta_hat=est.eta_hat,
        min_fidelity_low=curve.min_low, sweep_points=len(sweep.points),
    )


def cli_argv(scratch: Path, op_seed: int, calibrate_jobs: int = JOBS) -> dict:
    sim, cal = scratch / "sim", scratch / "cal"
    counts, ensemble = cal / "counts.json", sim / "ensemble.json"
    povm, estimate = scratch / "rec" / "povm.json", scratch / "est" / "estimate.json"
    argv = {
        "simulate": ["simulate", "--seed", op_seed, "--out", sim, "--jobs", JOBS],
        "calibrate": ["calibrate", "--traces", sim, "--out", cal,
                      "--jobs", calibrate_jobs],
        "reconstruct": ["reconstruct", "--counts", counts, "--ensemble", ensemble,
                        "--out", scratch / "rec"],
        "estimate": ["estimate", "--counts", counts, "--ensemble", ensemble,
                     "--out", scratch / "est"],
        "validate": ["validate", "--povm", povm, "--counts", counts,
                     "--ensemble", ensemble, "--estimate", estimate,
                     "--out", scratch / "val", "--energy-scale", ENERGY_SCALE,
                     "--attenuation-db", ATTENUATION_DB],
    }
    return {stage: [str(a) for a in args] for stage, args in argv.items()}


def run_cli_stage(argv: list[str]) -> int:
    """``tespovm.cli.main`` in-process, its console output kept off stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    if code != 0:
        print(f"tespovm {' '.join(argv)} exited {code}:\n{buf.getvalue()}",
              file=sys.stderr)
    return code


def cli_op(inputs, op_seed: int, scratch: Path, span) -> Outcome:
    """The five CLI stages on the built-in default design."""
    out = Outcome(op_seed=op_seed, exit_codes={})
    for stage, argv in cli_argv(scratch, op_seed).items():
        t0 = time.perf_counter()
        with span(f"cli.{stage}"):
            code = run_cli_stage(argv)
        out.stage_s[stage] = time.perf_counter() - t0
        out.exit_codes[stage] = code
        if code != 0:
            break
    return out


def collect_cli(out: Outcome, scratch: Path, inputs) -> Outcome:
    """Read the CLI's artifacts back for the gate and the diagnostics."""
    if list(out.exit_codes.values()) != [0] * len(CLI_STAGES):
        return out
    docs = {
        name: json.loads((scratch / rel).read_text())
        for name, rel in (
            ("manifest", "sim/manifest.json"), ("ensemble", "sim/ensemble.json"),
            ("counts", "cal/counts.json"), ("povm", "rec/povm.json"),
            ("estimate", "est/estimate.json"), ("fidelity", "val/fidelity.json"),
            ("comparison", "val/comparison.json"), ("sweep", "val/sweep.json"),
        )
    }
    counts, povm = docs["counts"], docs["povm"]
    out.hashes = {name: doc["config_hash"] for name, doc in docs.items()}
    out.table = tp.CountTable.from_counts(
        np.asarray(counts["counts"], dtype=np.int64),
        probe_ids=tuple(counts["probe_ids"]),
    )
    out.ensemble = inputs.ensemble.subset(out.table.probe_ids)
    out.povm = np.asarray(povm["entries"], dtype=float)
    out.init_eta = povm["init_eta"]
    out.eta_hat = out.reference_eta = docs["estimate"]["eta_hat"]
    out.min_fidelity_low = docs["fidelity"]["min_low"]
    out.sweep_points = len(docs["sweep"]["points"])
    files = [p for p in scratch.rglob("*") if p.is_file()]
    out.artifact_bytes = sum(p.stat().st_size for p in files)
    out.trace_bytes = sum(
        p.stat().st_size for p in files if p.name.startswith("trace_probe_")
    )
    return out


# -- solvers ------------------------------------------------------------------

def prepare_solvers(seed: int):
    """Criterion 5's exact input and criterion 3's injected-gamma table."""
    ensemble = tp.geometric_ensemble()
    truth = tp.binomial_povm(ETA, N_OUTCOMES, TRUNCATION)
    q, _ = tp.probe_q_matrix(ensemble, TRUNCATION)
    exact = tp.CountTable.from_probs(truth.entries @ q, probe_ids=ensemble.ids)
    detector = tp.DetectorPhysicalConfig(eta=ETA, gamma=GAMMA)
    traces = tp.simulate_ensemble(detector, ensemble, seed=seed, jobs=1)
    return SimpleNamespace(
        detector=detector,
        ensemble=ensemble,
        truth=truth,
        exact=exact,
        exact_init_eta=tp.estimate_eta(exact, ensemble).eta_hat,
        gamma_table=calibrate(traces),
        gamma_truth=truth_histograms(traces),
    )


def solvers_op(inputs, op_seed: int, scratch: Path, span) -> Outcome:
    """Exact-data reconstruction, then the joint (eta, gamma) fit."""
    cfg = tp.ReconstructionConfig(init_eta=inputs.exact_init_eta)
    rec = tp.reconstruct_povm(inputs.exact, inputs.ensemble, cfg)
    est = tp.estimate_eta_gamma(inputs.gamma_table, inputs.ensemble)
    curve = tp.fidelity_curve(rec.povm, inputs.truth, split=SPLIT)
    return Outcome(
        op_seed=op_seed, table=inputs.exact, ensemble=inputs.ensemble,
        povm=rec.povm.entries, init_eta=cfg.init_eta, reference_eta=ETA,
        exact_residual=rec.data_term, exact_min_fidelity=curve.min_low,
        gamma_hat=est.gamma_hat, gamma_se=est.gamma_se,
    )


@dataclass(frozen=True)
class Workload:
    prepare: Callable
    op: Callable
    collect: Callable = lambda out, scratch, inputs: out


WORKLOADS = {
    "cli_default": Workload(prepare_default, cli_op, collect_cli),
    "library_default": Workload(prepare_default, library_op),
    "solvers": Workload(prepare_solvers, solvers_op),
}


# -- diagnostics of the traced run --------------------------------------------

def pg_residual(pi: np.ndarray, table: tp.CountTable, ensemble: tp.ProbeEnsemble,
                reg_weight: float) -> float:
    """||Pi - P_simplex(Pi - grad f)||_F for the solver's objective f."""
    ids = table.probe_ids if table.probe_ids is not None else ensemble.ids
    order = np.argsort(ids)
    p = table.probs[:, order]
    q, _ = tp.probe_q_matrix(ensemble.subset(tuple(sorted(ids))), pi.shape[1])
    grad = 2.0 * (pi @ q - p) @ q.T
    d = np.diff(pi, axis=1)
    lap = np.zeros_like(pi)
    lap[:, :-1] -= d
    lap[:, 1:] += d
    grad += 2.0 * reg_weight * lap
    stepped = pi - grad
    proj = np.column_stack(
        [tp.project_simplex(stepped[:, m]) for m in range(pi.shape[1])]
    )
    return float(np.linalg.norm(pi - proj))


def _median_time(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def diagnostics(name: str, inputs, out: Outcome, scratch: Path) -> dict:
    """Ungated start-independence and thread-pool numbers of one operation."""
    cfg = tp.ReconstructionConfig()
    reference = tp.binomial_povm(out.reference_eta, N_OUTCOMES, TRUNCATION)
    start = tp.binomial_povm(out.init_eta, N_OUTCOMES, TRUNCATION).entries
    uniform = tp.reconstruct_povm(out.table, out.ensemble, cfg)
    if name == "solvers":
        calibrated, truth = inputs.gamma_table, inputs.gamma_truth
    else:
        calibrated = out.table
        truth = truth_histograms(
            tp.simulate_ensemble(inputs.detector, inputs.ensemble, out.op_seed, jobs=JOBS)
        )
    counts = calibrated.counts
    tv = 0.5 * np.abs(counts / counts.sum(axis=0) - truth / truth.sum(axis=0)).sum(axis=0)
    diag = {
        "tomography.move_from_init": float(np.abs(out.povm - start).max()),
        "tomography.uniform_init_min_fidelity": tp.fidelity_curve(
            uniform.povm, reference, split=SPLIT).min_low,
        "tomography.pg_residual": pg_residual(out.povm, out.table, out.ensemble,
                                              cfg.reg_weight),
        "calibration.label_tv_max": float(tv.max()),
        "tes_sim.speedup_jobs2": _median_time(
            lambda: tp.simulate_ensemble(inputs.detector, inputs.ensemble, out.op_seed, jobs=1)
        ) / _median_time(
            lambda: tp.simulate_ensemble(inputs.detector, inputs.ensemble, out.op_seed, jobs=2)
        ),
    }
    if name == "cli_default":
        def calibrate_at(jobs):
            argv = cli_argv(scratch, out.op_seed, calibrate_jobs=jobs)["calibrate"]
            return lambda: run_cli_stage(argv)
        diag["cli.calibrate_speedup_jobs2"] = (
            _median_time(calibrate_at(1), 1) / _median_time(calibrate_at(2), 1)
        )
    return diag
