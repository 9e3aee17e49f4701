"""Batch pipeline driver.

Five stages: simulate -> calibrate -> reconstruct -> estimate ->
validate, each reading the previous stage's artifacts. Only ``simulate``
takes a config; it records it as the run config in ``ensemble.json``.
``reconstruct`` solves with that config's reconstruction section and
records every solver setting in ``povm.json``, which ``validate`` reuses
for its sensitivity sweep. Exit codes: 0 success, 2 schema or input
validation error, 3 numerical failure, 4 lineage mismatch (artifacts
from different runs; --force overrides).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import files
from .calibration import (CountTable, bin_counts, bin_counts_by_area, check_peak_labels,
                          fit_peaks, place_thresholds)
from .errors import CalibrationError, EstimationError, LineageError, SchemaError
from .estimation import estimate_eta, estimate_eta_gamma
from .metrics import fidelity_curve, sensitivity_sweep, three_way_comparison
from .photon_stats import binomial_povm
from .tes_sim import simulate_ensemble
from .tomography import reconstruct_povm

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_LINEAGE = 4


def cmd_simulate(args) -> int:
    config = files.load_config(args.config) if args.config else files.default_config()
    detector = files.config_detector(config)
    ensemble = files.config_ensemble(config)
    out = Path(args.out)
    traces = simulate_ensemble(detector, ensemble, args.seed, jobs=args.jobs)
    for trace in traces:
        files.write_trace_csv(out, trace)
    files.write_manifest(out, config, args.seed)
    files.write_ensemble(out / "ensemble.json", config)
    print(f"simulated {len(traces)} traces -> {out}")
    return EXIT_OK


def _calibrate_one(trace, calib, n_outcomes, method):
    fit = fit_peaks(trace, bin_width_mv=calib["bin_width_mv"],
                    max_peaks=calib["max_peaks"])
    thresholds = place_thresholds(fit)
    if method == "area":
        column = bin_counts_by_area(trace, fit, n_outcomes)
    else:
        column = bin_counts(trace, thresholds, n_outcomes)
    return fit, thresholds, column


def cmd_calibrate(args) -> int:
    trace_dir = Path(args.traces)
    manifest = files.read_manifest(trace_dir)
    config = manifest["config"]
    cfg_hash = manifest["config_hash"]
    calib = files.config_calibration(config)
    n_outcomes = files.config_reconstruction(config).n_outcomes
    entries = manifest["traces"]

    def load_and_fit(entry):
        trace = files.read_trace_csv(trace_dir / entry["file"],
                                     probe_id=entry["probe_id"])
        return _calibrate_one(trace, calib, n_outcomes, args.method)

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        futures = {e["probe_id"]: pool.submit(load_and_fit, e) for e in entries}
    results = {}
    failures = {}
    for pid, fut in futures.items():
        try:
            results[pid] = fut.result()
        except (CalibrationError, SchemaError) as exc:
            failures[pid] = exc
    fits = {pid: result[0] for pid, result in results.items()}
    for pid, exc in check_peak_labels(fits).items():
        del results[pid]
        failures[pid] = exc

    if failures and not args.skip_failed:
        pid, exc = next(iter(failures.items()))
        raise exc if isinstance(exc, SchemaError) else CalibrationError(
            f"probe {pid}: {exc}"
        )
    if not results:
        raise CalibrationError("every probe failed calibration")

    out = Path(args.out)
    kept_ids = sorted(results)
    columns = [results[pid][2] for pid in kept_ids]
    table = CountTable.from_counts(
        np.column_stack(columns), probe_ids=tuple(kept_ids)
    )
    files.write_count_table(
        out / "counts.json", table, cfg_hash, args.method,
        skipped_probe_ids=sorted(failures),
    )
    for pid in kept_ids:
        fit, thresholds, _ = results[pid]
        files.write_fit_report(
            out / "fits" / f"probe_{pid:03d}.json", fit, thresholds, cfg_hash
        )
    for pid, exc in sorted(failures.items()):
        print(f"probe {pid}: skipped ({exc})", file=sys.stderr)
    print(f"calibrated {len(kept_ids)} probes ({args.method}) -> {out}")
    return EXIT_OK


def _aligned_ensemble(ensemble, table):
    if table.probe_ids is None:
        if ensemble.n_probes != table.n_probes:
            raise SchemaError(
                f"count table has {table.n_probes} probes but the ensemble "
                f"has {ensemble.n_probes} and the table carries no probe ids"
            )
        return ensemble
    try:
        return ensemble.subset(table.probe_ids)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def cmd_reconstruct(args) -> int:
    table, counts_hash = files.read_count_table(args.counts)
    ensemble, ensemble_hash, config = files.read_ensemble(args.ensemble)
    files.check_lineage(counts_hash, ensemble_hash, "ensemble file", args.force)
    ensemble = _aligned_ensemble(ensemble, table)
    cfg = files.config_reconstruction(
        config, init_eta=estimate_eta(table, ensemble).eta_hat
    )
    result = reconstruct_povm(table, ensemble, cfg)
    out = Path(args.out)
    files.write_povm(out / "povm.json", result, cfg, counts_hash)
    files.write_convergence_log(out / "convergence.log", result)
    if not result.converged:
        print(
            f"warning: solver hit max_iters={cfg.max_iters} before tol",
            file=sys.stderr,
        )
    print(
        f"reconstructed {result.povm.n_outcomes}x{result.povm.truncation} POVM "
        f"in {result.n_iters} iterations (data term {result.data_term:.3e}) -> {out}"
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    table, counts_hash = files.read_count_table(args.counts)
    ensemble, ensemble_hash, _ = files.read_ensemble(args.ensemble)
    files.check_lineage(counts_hash, ensemble_hash, "ensemble file", args.force)
    ensemble = _aligned_ensemble(ensemble, table)
    if args.dark_counts:
        estimate = estimate_eta_gamma(table, ensemble)
        method = "eta_gamma"
    else:
        estimate = estimate_eta(table, ensemble)
        method = "eta"
    out = Path(args.out)
    files.write_estimate(out / "estimate.json", estimate, counts_hash, method)
    gamma_part = (
        f", gamma_hat={estimate.gamma_hat:.4g}" if estimate.gamma_hat is not None else ""
    )
    print(f"estimated eta_hat={estimate.eta_hat:.6f}{gamma_part} -> {out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    povm, povm_hash, cfg = files.read_povm(args.povm)
    table, counts_hash = files.read_count_table(args.counts)
    ensemble, ensemble_hash, _ = files.read_ensemble(args.ensemble)
    estimate, estimate_hash = files.read_estimate(args.estimate)
    files.check_lineage(povm_hash, counts_hash, "count table", args.force)
    files.check_lineage(povm_hash, ensemble_hash, "ensemble file", args.force)
    files.check_lineage(povm_hash, estimate_hash, "estimate file", args.force)
    ensemble = _aligned_ensemble(ensemble, table)

    eta_hat = float(estimate["eta_hat"])
    reference = binomial_povm(eta_hat, povm.n_outcomes, povm.truncation)
    curve = fidelity_curve(povm, reference, split=args.split)
    out = Path(args.out)
    files.write_json(
        out / "fidelity.json",
        {
            "config_hash": povm_hash,
            "reference_eta": eta_hat,
            "split": curve.split,
            "min_low": curve.min_low,
            "min_high": curve.min_high,
            "fidelity": curve.values,
        },
    )
    comparisons = three_way_comparison(table, povm, eta_hat, ensemble)
    files.write_json(
        out / "comparison.json",
        {
            "config_hash": povm_hash,
            "probes": [dataclasses.asdict(c) for c in comparisons],
        },
    )
    if args.energy_scale > 0 or args.attenuation_db > 0:
        # The recorded settings make the baseline point the reported POVM.
        sweep = sensitivity_sweep(
            table,
            ensemble,
            cfg,
            reference,
            energy_scale=args.energy_scale,
            attenuation_db=args.attenuation_db,
            split=args.split,
        )
        files.write_json(
            out / "sweep.json",
            {
                "config_hash": povm_hash,
                "envelope": sweep.envelope,
                "points": [dataclasses.asdict(pt) for pt in sweep.points],
            },
        )
    print(
        f"validated: min fidelity {curve.min_low:.6f} for m <= {curve.split} -> {out}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tespovm",
        description="Photon-number calibration and POVM tomography pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate amplitude traces")
    sim.add_argument("--config", help="pipeline config JSON (defaults built in)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--jobs", type=int, default=1)
    sim.set_defaults(func=cmd_simulate)

    cal = sub.add_parser("calibrate", help="fit peaks and bin counts")
    cal.add_argument("--traces", required=True, help="simulate output directory")
    cal.add_argument("--out", required=True)
    cal.add_argument("--method", choices=["threshold", "area"], default="threshold")
    cal.add_argument("--jobs", type=int, default=1)
    cal.add_argument("--skip-failed", action="store_true",
                     help="drop probes that fail calibration instead of aborting")
    cal.set_defaults(func=cmd_calibrate)

    rec = sub.add_parser("reconstruct", help="solve for the POVM")
    rec.add_argument("--counts", required=True)
    rec.add_argument("--ensemble", required=True)
    rec.add_argument("--out", required=True)
    rec.add_argument("--force", action="store_true")
    rec.set_defaults(func=cmd_reconstruct)

    est = sub.add_parser("estimate", help="maximum-likelihood detector parameters")
    est.add_argument("--counts", required=True)
    est.add_argument("--ensemble", required=True)
    est.add_argument("--out", required=True)
    est.add_argument("--dark-counts", action="store_true",
                     help="jointly fit the dark-count rate")
    est.add_argument("--force", action="store_true")
    est.set_defaults(func=cmd_estimate)

    val = sub.add_parser("validate", help="fidelity and comparison reports")
    val.add_argument("--povm", required=True)
    val.add_argument("--counts", required=True)
    val.add_argument("--ensemble", required=True)
    val.add_argument("--estimate", required=True)
    val.add_argument("--out", required=True)
    val.add_argument("--split", type=int, default=100)
    val.add_argument("--energy-scale", type=float, default=0.0)
    val.add_argument("--attenuation-db", type=float, default=0.0)
    val.add_argument("--force", action="store_true")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except LineageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LINEAGE
    except (CalibrationError, EstimationError, FloatingPointError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
