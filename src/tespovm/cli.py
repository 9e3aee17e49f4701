"""Batch pipeline driver.

Five stages: simulate -> calibrate -> reconstruct -> estimate ->
validate, each reading the previous stage's artifacts. Only ``simulate``
takes a config; :func:`files.parse_config` refuses an unknown or mistyped
key, and ``simulate`` alone a probe whose mean count exceeds
:data:`~tespovm.tes_sim.MAX_MEAN_COUNT`, before a trace is written. It
records the config as the run config in ``ensemble.json``, the one copy
every later stage reads, and its hash and the seed in ``manifest.json``,
its own record, which no stage reads. It writes no truth:
:func:`~tespovm.tes_sim.simulate_probe` at that seed draws it again.
``calibrate`` reads only the ``trace_probe_NNN.npy`` file of each probe
id and ``ensemble.json``, so measured traces beside an ``ensemble.json``
that has no ``detector`` section, at any mean photon numbers, enter the
chain as simulated ones do.
``simulate`` and ``calibrate`` work one probe at a time on their
``--jobs`` threads: ``simulate`` writes each trace from the thread that
drew it, and ``calibrate`` histograms each trace on the thread that read
it and fits the run's comb to the histograms. So each stage holds at most
``--jobs`` traces at a time, whatever the number of probes.
Each stage has one route. ``calibrate`` fits one comb to the run and
counts each probe's class ``n`` as its tooth-``n`` weight
(:func:`~tespovm.calibration.counts_by_area`), which folds the teeth
past the last class into it; the run config's
``reconstruction.n_outcomes`` alone sets the classes. It writes the whole
comb once, with each probe's unfolded tooth weights and goodness, to
``fits.json`` (:func:`files.write_fit_report`). ``estimate`` fits
efficiency and dark rate jointly
(:func:`~tespovm.estimation.estimate_eta_gamma`), which needs
usable probes at two or more mean photon numbers (exit 3 otherwise).
``reconstruct`` starts from that fit's efficiency, solves with the run
config's reconstruction section and records the start in ``povm.json``;
``validate``'s sensitivity sweep solves from that start with that section.
``validate`` scores against the fitted linear detector
``binomial_povm(eta_hat, ..., gamma_hat)``. ``calibrate`` reads the
trace of each probe id of the run config, and the later stages pair
count-table columns with the run config's probes by id; a column id the
run config lacks exits 2 naming the ``--counts`` file. Exit codes: 0
success, 2 schema or input validation error, 3 numerical failure, 4
lineage mismatch (artifacts from different runs; --force, where a stage
offers it, overrides). An ``ensemble.json`` whose hash is not that of its config is
corrupt, not a mix: exit 2, even with --force.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import files
from .calibration import CountTable, _fit_comb, _histogram, counts_by_area
from .errors import CalibrationError, EstimationError, LineageError, SchemaError
from .estimation import estimate_eta_gamma
from .metrics import fidelity_curve, sensitivity_sweep, three_way_comparison
from .photon_stats import _check_number, binomial_povm
from .tes_sim import _SEED_RANGE, MAX_MEAN_COUNT, simulate_probe
from .tomography import TOL, reconstruct_povm

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_LINEAGE = 4


def cmd_simulate(args) -> int:
    _check_number("--seed", args.seed, _SEED_RANGE, integer=True)
    _check_number("--jobs", args.jobs, "[1, inf)", integer=True)
    config = files.read_json(args.config) if args.config else files.default_config()
    run = files.parse_config(config)
    for i, probe in enumerate(run.ensemble.probes):
        lam = run.detector.eta * probe.mean_photons + run.detector.gamma
        if lam > MAX_MEAN_COUNT:
            raise SchemaError(f"config: probes[{i}]: probe {probe.id} has a mean count eta * "
                              f"mean_photons + gamma of {lam:g}, above {MAX_MEAN_COUNT:g}")
    out = Path(args.out)

    # Each trace is written by the thread that drew it, then dropped.
    def simulate(probe):
        files.write_trace_csv(out, simulate_probe(run.detector, probe, args.seed))

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        list(pool.map(simulate, run.ensemble.probes))
    files.write_manifest(out, config, args.seed)
    files.write_ensemble(out / "ensemble.json", config)
    print(f"simulated {len(run.ensemble.probes)} traces -> {out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    _check_number("--jobs", args.jobs, "[1, inf)", integer=True)
    trace_dir = Path(args.traces)
    run, cfg_hash = files.read_ensemble(trace_dir / "ensemble.json")
    n_outcomes = run.reconstruction.n_outcomes

    # A thread keeps only its trace's histogram, or its failure.
    def histogram(pid):
        try:
            trace = files.read_trace_csv(trace_dir / files.trace_filename(pid), probe_id=pid)
        except SchemaError as exc:
            return pid, exc
        return pid, _histogram(trace, **run.calibration)

    try:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            histograms = dict(pool.map(histogram, sorted(run.ensemble.ids)))
        fits, failures = _fit_comb(histograms.items())
    except ValueError as exc:  # a bin width too fine for the traces
        raise SchemaError(f"calibration.{exc}") from exc
    if failures and not args.skip_failed:
        pid = min(failures)
        exc = failures[pid]
        raise exc if isinstance(exc, SchemaError) else CalibrationError(f"probe {pid}: {exc}")
    if not fits:
        raise CalibrationError("every probe failed calibration")

    # Class n holds a probe's tooth-n weight, teeth past the last folded in:
    # events in the overlap of two teeth are shared by the fit, not cut.
    kept_ids = sorted(fits)
    out = Path(args.out)
    table = CountTable.from_counts(
        np.column_stack([counts_by_area(fits[pid], n_outcomes, int(histograms[pid].counts.sum()))
                         for pid in kept_ids]),
        probe_ids=tuple(kept_ids),
    )
    files.write_count_table(
        out / "counts.json", table, cfg_hash, skipped_probe_ids=sorted(failures),
    )
    files.write_fit_report(out / "fits.json", fits, cfg_hash)
    for pid, exc in sorted(failures.items()):
        print(f"probe {pid}: skipped ({exc})", file=sys.stderr)
    print(f"calibrated {len(kept_ids)} probes -> {out}")
    return EXIT_OK


def _read_counts(args, others=None):
    """The count table of ``--counts``, its config hash and the run config
    of ``--ensemble``, checked to come from one run with the ``others``
    artifacts (a map of path to recorded config hash) unless ``--force``.
    A column id that is not a probe of the run config raises
    :class:`SchemaError` naming the ``--counts`` file."""
    table, counts_hash = files.read_count_table(args.counts)
    run, ensemble_hash = files.read_ensemble(args.ensemble)
    files.check_lineage({**(others or {}), args.counts: counts_hash,
                         args.ensemble: ensemble_hash}, args.force)
    try:
        run.ensemble.subset(table.probe_ids)
    except ValueError as exc:
        raise SchemaError(f"{args.counts}: {exc}") from exc
    return table, counts_hash, run


def cmd_reconstruct(args) -> int:
    table, counts_hash, run = _read_counts(args)
    cfg = dataclasses.replace(run.reconstruction,
                              init_eta=estimate_eta_gamma(table, run.ensemble).eta_hat)
    result = reconstruct_povm(table, run.ensemble, cfg)
    out = Path(args.out)
    files.write_povm(out / "povm.json", result, cfg.init_eta, counts_hash)
    files.write_convergence_log(out / "convergence.log", result)
    certificate = f"gradient-mapping norm {result.gradient_mapping_norm:.3e}, tol {TOL:g}"
    if not result.converged:
        print(f"warning: solver hit tomography.MAX_ITERS, {result.n_iters} iterations "
              f"({certificate})", file=sys.stderr)
    print(
        f"reconstructed {result.povm.n_outcomes}x{result.povm.truncation} POVM "
        f"in {result.n_iters} iterations (data term {result.data_term:.3e}, "
        f"{certificate}) -> {out}"
    )
    return EXIT_OK


def cmd_estimate(args) -> int:
    table, counts_hash, run = _read_counts(args)
    estimate = estimate_eta_gamma(table, run.ensemble)
    out = Path(args.out)
    files.write_estimate(out / "estimate.json", estimate, counts_hash)
    print(f"estimated eta_hat={estimate.eta_hat:.6f}, "
          f"gamma_hat={estimate.gamma_hat:.4g} -> {out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    _check_number("--energy-scale", args.energy_scale, "[0, 1)")
    _check_number("--attenuation-db", args.attenuation_db, "[0, inf)")
    povm, povm_hash, init_eta = files.read_povm(args.povm)
    estimate, estimate_hash = files.read_estimate(args.estimate)
    table, _, run = _read_counts(args, {args.povm: povm_hash, args.estimate: estimate_hash})

    # The reference is the fitted linear detector.
    eta_hat, gamma_hat = float(estimate["eta_hat"]), float(estimate["gamma_hat"])
    comparisons = three_way_comparison(table, povm, eta_hat, run.ensemble, gamma_hat)
    reference = binomial_povm(eta_hat, povm.n_outcomes, povm.truncation, gamma_hat)
    curve = fidelity_curve(povm, reference)
    # Every report is computed before the first is written.
    reports = {
        "fidelity.json": {
            "config_hash": povm_hash,
            "split": curve.split,
            "min_low": curve.min_low,
            "min_high": curve.min_high,
            "fidelity": curve.values,
        },
        "comparison.json": {
            "config_hash": povm_hash,
            "probes": [dataclasses.asdict(c) for c in comparisons],
        },
    }
    if args.energy_scale > 0 or args.attenuation_db > 0:
        # The run's solver settings from the recorded start make the
        # baseline point the reported POVM.
        sweep = sensitivity_sweep(
            table,
            run.ensemble,
            dataclasses.replace(run.reconstruction, init_eta=init_eta),
            reference,
            energy_scale=args.energy_scale,
            attenuation_db=args.attenuation_db,
        )
        reports["sweep.json"] = {
            "config_hash": povm_hash,
            "envelope": sweep.envelope,
            "points": [dataclasses.asdict(pt) for pt in sweep.points],
        }
    out = Path(args.out)
    for name, payload in reports.items():
        files.write_json(out / name, payload)
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
    sim.add_argument("--jobs", type=int, default=1,
                     help="threads that simulate and write traces")
    sim.set_defaults(func=cmd_simulate)

    cal = sub.add_parser("calibrate", help="fit the run's comb and count by tooth weights")
    cal.add_argument("--traces", required=True,
                     help="directory of trace_probe_NNN.npy files and ensemble.json")
    cal.add_argument("--out", required=True)
    cal.add_argument("--jobs", type=int, default=1,
                     help="threads that read and histogram traces")
    cal.add_argument("--skip-failed", action="store_true",
                     help="drop probes that fail calibration instead of aborting")
    cal.set_defaults(func=cmd_calibrate)

    rec = sub.add_parser("reconstruct", help="solve for the POVM")
    rec.add_argument("--counts", required=True)
    rec.add_argument("--ensemble", required=True)
    rec.add_argument("--out", required=True)
    rec.add_argument("--force", action="store_true")
    rec.set_defaults(func=cmd_reconstruct)

    est = sub.add_parser("estimate", help="maximum-likelihood efficiency and dark rate")
    est.add_argument("--counts", required=True)
    est.add_argument("--ensemble", required=True)
    est.add_argument("--out", required=True)
    est.add_argument("--force", action="store_true")
    est.set_defaults(func=cmd_estimate)

    val = sub.add_parser("validate", help="fidelity and comparison reports")
    val.add_argument("--povm", required=True)
    val.add_argument("--counts", required=True)
    val.add_argument("--ensemble", required=True)
    val.add_argument("--estimate", required=True)
    val.add_argument("--out", required=True)
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
        hint = "; pass --force to override" if hasattr(args, "force") else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_LINEAGE
    except (CalibrationError, EstimationError, FloatingPointError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
