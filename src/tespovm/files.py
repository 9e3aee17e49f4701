"""On-disk formats for the batch pipeline.

Traces are NumPy ``.npy`` files: float64 amplitudes in mV, and ground truth
in a ``.truth.npy`` sidecar of the smallest unsigned integer type that holds
its largest count, as in memory; any NumPy reads them with ``np.load``.
Count tables, POVM matrices, estimates and reports are JSON with
row-major nested arrays. Each fact is stored once: ``ensemble.json`` is
the one copy of the run config, and a counted table stores only its
counts. Every artifact embeds the hash of the producing config so stages
refuse to mix runs; :func:`read_ensemble` checks that hash against the
config beside it. All writers are deterministic: sorted keys, no
timestamps, exact floats.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from .calibration import DEFAULT_BIN_WIDTH_MV, CountTable, fit_run
from .errors import LineageError, SchemaError
from .photon_stats import (Probe, ProbeEnsemble, PovmMatrix, _check_number,
                           geometric_ensemble)
from .tes_sim import AmplitudeTrace, DetectorPhysicalConfig
from .tomography import ReconstructionConfig, ReconstructionResult

TRACE_PREFIX = "trace_probe_"
# convergence.log records the objective at every this many iterations, and the last.
CONVERGENCE_LOG_STRIDE = 100


def default_config() -> dict:
    """Pipeline defaults: the 20-probe geometric ensemble on a 13 mV grid.

    The detector and reconstruction sections are the field defaults of
    :class:`DetectorPhysicalConfig` and :class:`ReconstructionConfig`, the
    calibration section the :func:`~tespovm.calibration.fit_run` default
    bin width.
    """
    reconstruction = dataclasses.asdict(ReconstructionConfig())
    del reconstruction["init_eta"]
    return {
        "detector": dataclasses.asdict(DetectorPhysicalConfig()),
        "probes": [dataclasses.asdict(p) for p in geometric_ensemble().probes],
        "calibration": {"bin_width_mv": DEFAULT_BIN_WIDTH_MV},
        "reconstruction": reconstruction,
    }


def config_hash(config: dict) -> str:
    """Hash of the canonical JSON form of a config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path, payload: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise SchemaError(f"{where}: missing field '{key}'")
    return mapping[key]


def check_lineage(hashes: dict, force: bool = False):
    """Raise :class:`LineageError` unless the artifacts of ``hashes``, a map
    of path to recorded config hash, come from one run or ``force`` is set."""
    if len(set(hashes.values())) > 1 and not force:
        listed = ", ".join(f"{path} has config {h}" for path, h in hashes.items())
        raise LineageError(f"artifacts of different runs: {listed}")


# -- config ------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A run config, each section built by the type that uses it;
    ``calibration`` holds the keyword arguments of
    :func:`~tespovm.calibration.fit_run` but ``max_peaks``, which is
    ``reconstruction.n_outcomes``."""

    detector: DetectorPhysicalConfig
    ensemble: ProbeEnsemble
    calibration: dict
    reconstruction: ReconstructionConfig


def _build(where: str, make, section):
    try:
        return make(**section)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"config: {where}: {exc}") from exc


def parse_config(config: dict) -> RunConfig:
    """Check a run config and build its sections.

    Each section is ``Type(**section)``: an absent key takes that type's
    default, and a key it does not take or a value that is not a finite
    number of the right kind (a bool is not one) or out of range raises
    :class:`SchemaError` naming the section and the key. So do other
    top-level keys, ``reconstruction.init_eta``, since ``reconstruct``
    starts from :func:`~tespovm.estimation.estimate_eta_gamma`, and
    ``calibration.max_peaks``, since ``reconstruction.n_outcomes`` alone
    sets the count classes. A probe's ``id`` defaults to its index.
    """
    if not isinstance(config, dict):
        raise SchemaError("config: top level must be an object")
    unknown = sorted(set(config) - {"probes", "detector", "calibration", "reconstruction"})
    if unknown:
        raise SchemaError(f"config: unknown top-level keys {unknown}")
    probes = _require(config, "probes", "config")
    if not isinstance(probes, list) or not probes:
        raise SchemaError("config: 'probes' must be a nonempty list")
    # Keys a section's type takes but the run sets from elsewhere.
    for section, key, why in (
            ("reconstruction", "init_eta", "reconstruct starts from the fitted efficiency"),
            ("calibration", "max_peaks", "reconstruction.n_outcomes sets the count classes")):
        if isinstance(config.get(section), dict) and key in config[section]:
            raise SchemaError(f"config: {section}: {key} is not a config key; {why}")
    calibration = config.get("calibration", {})
    _build("calibration", functools.partial(fit_run, ()), calibration)
    return RunConfig(
        detector=_build("detector", DetectorPhysicalConfig, config.get("detector", {})),
        ensemble=_build("probes", ProbeEnsemble, {"probes": [
            _build(f"probes[{i}]", functools.partial(Probe, id=i), entry)
            for i, entry in enumerate(probes)]}),
        calibration=calibration,
        reconstruction=_build("reconstruction", ReconstructionConfig,
                              config.get("reconstruction", {})),
    )


# -- traces ------------------------------------------------------------------

def trace_filename(probe_id: int) -> str:
    return f"{TRACE_PREFIX}{probe_id:03d}.npy"


def truth_filename(probe_id: int) -> str:
    return f"{TRACE_PREFIX}{probe_id:03d}.truth.npy"


def write_trace_csv(directory, trace: AmplitudeTrace):
    """Write ``trace`` into ``directory`` as ``.npy`` files.

    Amplitudes go to :func:`trace_filename` as float64 and the truth, when
    present, to :func:`truth_filename` in the type :class:`AmplitudeTrace`
    holds it in. The name predates the ``.npy`` format and is kept for
    callers that wrap it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / trace_filename(trace.probe_id), trace.amplitudes_mv)
    if trace.truth_counts is not None:
        np.save(directory / truth_filename(trace.probe_id), trace.truth_counts)


def read_trace_csv(path, probe_id: int) -> AmplitudeTrace:
    """Read the amplitudes :func:`write_trace_csv` wrote to ``path``.

    Pickled, object, structured or non-1-D arrays, a dtype other than
    float and non-finite amplitudes raise :class:`SchemaError`. The
    truth sidecar is not read here; ``np.load`` reads it. The name
    predates the ``.npy`` format.
    """
    magic = np.lib.format.MAGIC_PREFIX
    try:
        with open(path, "rb") as fh:
            is_npy = fh.read(len(magic)) == magic
            fh.seek(0)
            # Checking the magic first keeps np.load off its pickle and .npz routes.
            amps = np.load(fh, allow_pickle=False) if is_npy else None
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc})") from exc
    except (ValueError, EOFError) as exc:
        raise SchemaError(f"{path}: bad .npy data ({exc})") from exc
    if amps is None:
        raise SchemaError(f"{path}: not a .npy file")
    if amps.ndim != 1:
        raise SchemaError(f"{path}: expected a 1-D array, got shape {amps.shape}")
    if amps.dtype.kind != "f":
        raise SchemaError(f"{path}: expected float amplitudes, got dtype {amps.dtype}")
    try:
        return AmplitudeTrace(probe_id=probe_id, amplitudes_mv=amps)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# -- manifest and ensemble ---------------------------------------------------

def write_manifest(directory, config: dict, seed: int):
    """Record the hash of the run config and the seed of a simulate output.

    The config itself is :func:`write_ensemble`'s ``ensemble.json``. Each
    probe's trace is :func:`trace_filename` of its id in the same
    directory, so the manifest lists no files.
    """
    write_json(Path(directory) / "manifest.json",
               {"config_hash": config_hash(config), "seed": seed})


def read_manifest(directory) -> dict:
    path = Path(directory) / "manifest.json"
    if not path.exists():
        raise SchemaError(f"{directory}: no manifest.json; not a simulate output?")
    manifest = read_json(path)
    for key in ("config_hash", "seed"):
        _require(manifest, key, str(path))
    return manifest


def write_ensemble(path, config: dict):
    """Write the run config, keyed by its hash: the probes plus every section.

    Downstream stages read their settings from this one file, so a run is
    reconstructed and validated with the config it was simulated with.
    """
    write_json(path, {"config_hash": config_hash(config), **config})


def read_ensemble(path) -> tuple[RunConfig, str]:
    """The parsed run config and config hash of an ``ensemble.json``.

    A recorded hash that is not :func:`config_hash` of the config beside
    it marks the file corrupt and raises :class:`SchemaError`, as does a
    config that :func:`parse_config` refuses.
    """
    payload = read_json(path)
    cfg_hash = _require(payload, "config_hash", str(path))
    config = {k: v for k, v in payload.items() if k != "config_hash"}
    if config_hash(config) != cfg_hash:
        raise SchemaError(f"{path}: config_hash {cfg_hash} is not the hash of its "
                          f"config ({config_hash(config)})")
    try:
        return parse_config(config), cfg_hash
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# -- count tables ------------------------------------------------------------

def write_count_table(path, table: CountTable, cfg_hash: str, skipped_probe_ids=()):
    """Write a table as its ``counts``, or as ``probs`` when it has none."""
    data = {"probs": table.probs} if table.counts is None else {"counts": table.counts}
    write_json(path, {
        "config_hash": cfg_hash,
        "probe_ids": list(table.probe_ids),
        "skipped_probe_ids": list(skipped_probe_ids),
        **data,
    })


def read_count_table(path) -> tuple[CountTable, str]:
    """The table and config hash of a ``counts.json``; its ``counts``, when
    present, fix the probabilities, so ``probs`` beside them are ignored."""
    payload = read_json(path)
    cfg_hash = _require(payload, "config_hash", str(path))
    counts = payload.get("counts")
    probs = None if counts is not None else _require(payload, "probs", str(path))
    try:
        # A null "probe_ids" numbers the columns 0 .. n-1, as CountTable does.
        table = CountTable(
            probs=None if probs is None else np.asarray(probs, dtype=float),
            counts=None if counts is None else np.asarray(counts),
            probe_ids=payload.get("probe_ids"),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return table, cfg_hash


# -- POVM and results --------------------------------------------------------

def write_povm(path, result: ReconstructionResult, init_eta: float | None,
               cfg_hash: str):
    """Write the POVM, the efficiency ``init_eta`` its solve started from
    (None for uniform columns) and the solve's record.

    The other solver settings are the run config's reconstruction section,
    stored once in ``ensemble.json``, to which ``config_hash`` ties the file.
    """
    write_json(
        path,
        {
            "init_eta": init_eta,
            "config_hash": cfg_hash,
            "entries": result.povm.entries,
            "converged": result.converged,
            "n_iters": result.n_iters,
            "stop_reason": result.stop_reason,
            "gradient_mapping_norm": result.gradient_mapping_norm,
            "noise_floor": result.noise_floor,
            "data_term": result.data_term,
            "reg_term": result.reg_term,
            "per_probe_residuals": result.per_probe_residuals,
            "probe_tail_mass": result.probe_tail_mass,
        },
    )


def read_povm(path) -> tuple[PovmMatrix, str, float | None]:
    """The POVM, config hash and starting efficiency ``init_eta`` of a
    ``povm.json``; an ``init_eta`` that is null or absent is a uniform
    start, any other must be a number in [0, 1]."""
    payload = read_json(path)
    cfg_hash = _require(payload, "config_hash", str(path))
    entries = np.asarray(_require(payload, "entries", str(path)), dtype=float)
    init_eta = payload.get("init_eta")
    try:
        povm = PovmMatrix(entries)
        if init_eta is not None:
            _check_number("init_eta", init_eta, "[0, 1]")
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return povm, cfg_hash, init_eta


def write_convergence_log(path, result: ReconstructionResult):
    history = result.objective_history
    lines = ["# iteration objective"]
    for i in range(0, history.size, CONVERGENCE_LOG_STRIDE):
        lines.append(f"{i} {float(history[i])!r}")
    if (history.size - 1) % CONVERGENCE_LOG_STRIDE:
        lines.append(f"{history.size - 1} {float(history[-1])!r}")
    lines.append(
        f"# stop={result.stop_reason} iters={result.n_iters} "
        f"data_term={float(result.data_term)!r} reg_term={float(result.reg_term)!r} "
        f"gradient_mapping_norm={float(result.gradient_mapping_norm)!r}"
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_fit_report(path, fits: dict, cfg_hash: str):
    """Write the run's comb once, its ``spacing_mv`` and its ``teeth`` from
    class 0 up, then each probe's ``id``, ``goodness`` and tooth ``weights``
    in id order. ``fits`` holds the fits of one :func:`fit_run` by
    probe id, so the teeth of each are a prefix of the longest one's."""
    longest = max(fits.values(), key=lambda fit: fit.n_components)
    write_json(path, {
        "config_hash": cfg_hash,
        "spacing_mv": longest.spacing_mv,
        "teeth": [{"mean_mv": c.mean_mv, "sigma_mv": c.sigma_mv} for c in longest.components],
        "probes": [{"id": pid, "goodness": fits[pid].goodness,
                    "weights": [c.weight for c in fits[pid].components]}
                   for pid in sorted(fits)],
    })


def write_estimate(path, estimate, cfg_hash: str):
    write_json(path, {"config_hash": cfg_hash, **dataclasses.asdict(estimate)})


def read_estimate(path) -> tuple[dict, str]:
    """The payload and config hash of an ``estimate.json``, whose ``eta_hat``
    must be a number in [0, 1] and ``gamma_hat`` one >= 0."""
    payload = read_json(path)
    cfg_hash = _require(payload, "config_hash", str(path))
    eta_hat = _require(payload, "eta_hat", str(path))
    gamma_hat = _require(payload, "gamma_hat", str(path))
    try:
        _check_number("eta_hat", eta_hat, "[0, 1]")
        _check_number("gamma_hat", gamma_hat, "[0, inf)")
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return payload, cfg_hash
