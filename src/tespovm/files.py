"""On-disk formats for the batch pipeline.

Traces are NumPy ``.npy`` files: float64 amplitudes in mV, with ground
truth in a ``.truth.npy`` sidecar of the smallest unsigned integer type
that holds its largest count; any NumPy reads them with ``np.load``.
Count tables, POVM matrices, estimates and reports are JSON with
explicit dimensions and row-major nested arrays. Every artifact
embeds the hash of the producing config so stages refuse to mix runs.
All writers are deterministic: sorted keys, no timestamps, exact floats.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from .calibration import (DEFAULT_BIN_WIDTH_MV, DEFAULT_MAX_PEAKS, CountTable,
                          GaussianMixtureFit, ThresholdSet)
from .errors import LineageError, SchemaError
from .photon_stats import Probe, ProbeEnsemble, PovmMatrix, geometric_ensemble
from .tes_sim import AmplitudeTrace, DetectorPhysicalConfig
from .tomography import ReconstructionConfig, ReconstructionResult

TRACE_PREFIX = "trace_probe_"


def _field_defaults(cls, skip=()) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name not in skip}


def default_config() -> dict:
    """Pipeline defaults: the 20-probe geometric ensemble on a 13 mV grid.

    The detector and reconstruction sections are the field defaults of
    :class:`DetectorPhysicalConfig` and :class:`ReconstructionConfig`, the
    calibration section the :func:`~tespovm.calibration.fit_peaks` defaults.
    """
    return {
        "detector": _field_defaults(DetectorPhysicalConfig),
        "probes": [dataclasses.asdict(p) for p in geometric_ensemble().probes],
        "calibration": {"bin_width_mv": DEFAULT_BIN_WIDTH_MV, "max_peaks": DEFAULT_MAX_PEAKS},
        "reconstruction": _field_defaults(ReconstructionConfig, skip=("init_eta",)),
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


def check_lineage(expected_hash: str, found_hash: str, what: str, force: bool):
    if found_hash != expected_hash and not force:
        raise LineageError(
            f"{what} was produced by config {found_hash}, expected "
            f"{expected_hash}; pass --force to override"
        )


# -- config ------------------------------------------------------------------

def load_config(path) -> dict:
    config = read_json(path)
    validate_config(config)
    return config


def validate_config(config: dict):
    if not isinstance(config, dict):
        raise SchemaError("config: top level must be an object")
    probes = _require(config, "probes", "config")
    if not isinstance(probes, list) or not probes:
        raise SchemaError("config: 'probes' must be a nonempty list")
    for i, probe in enumerate(probes):
        if not isinstance(probe, dict):
            raise SchemaError(f"config: probe at index {i} must be an object")
        pid = probe.get("id", i)
        if "mean_photons" not in probe:
            raise SchemaError(f"config: probe {pid}: missing field 'mean_photons'")
    for section in ("detector", "calibration", "reconstruction"):
        if section in config and not isinstance(config[section], dict):
            raise SchemaError(f"config: '{section}' must be an object")


def _known_fields(cls, section: dict) -> dict:
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in section.items() if k in names}


def config_detector(config: dict) -> DetectorPhysicalConfig:
    """The detector section; absent fields take the dataclass defaults."""
    try:
        return DetectorPhysicalConfig(
            **_known_fields(DetectorPhysicalConfig, config.get("detector", {}))
        )
    except ValueError as exc:
        raise SchemaError(f"config: detector: {exc}") from exc


def config_ensemble(config: dict) -> ProbeEnsemble:
    probes = []
    for i, entry in enumerate(config["probes"]):
        pid = entry.get("id", i)
        try:
            probes.append(
                Probe(
                    id=int(pid),
                    mean_photons=float(entry["mean_photons"]),
                    n_pulses=int(entry.get("n_pulses", 100_000)),
                    attenuation_db=entry.get("attenuation_db"),
                )
            )
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"config: probe {pid}: {exc}") from exc
    try:
        return ProbeEnsemble(tuple(probes))
    except ValueError as exc:
        raise SchemaError(f"config: probes: {exc}") from exc


def config_reconstruction(config: dict, **overrides) -> ReconstructionConfig:
    section = dict(config.get("reconstruction", {}))
    section.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return ReconstructionConfig(**_known_fields(ReconstructionConfig, section))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"config: reconstruction: {exc}") from exc


def config_calibration(config: dict) -> dict:
    """The calibration section; absent fields take the :func:`fit_peaks` defaults."""
    section = config.get("calibration", {})
    out = {
        "bin_width_mv": float(section.get("bin_width_mv", DEFAULT_BIN_WIDTH_MV)),
        "max_peaks": int(section.get("max_peaks", DEFAULT_MAX_PEAKS)),
    }
    if out["bin_width_mv"] <= 0:
        raise SchemaError("config: calibration: bin_width_mv must be positive")
    if out["max_peaks"] < 1:
        raise SchemaError("config: calibration: max_peaks must be >= 1")
    return out


# -- traces ------------------------------------------------------------------

def trace_filename(probe_id: int) -> str:
    return f"{TRACE_PREFIX}{probe_id:03d}.npy"


def truth_filename(probe_id: int) -> str:
    return f"{TRACE_PREFIX}{probe_id:03d}.truth.npy"


def write_trace_csv(directory, trace: AmplitudeTrace):
    """Write ``trace`` into ``directory`` as ``.npy`` files.

    Amplitudes go to :func:`trace_filename` as float64 and the truth, when
    present, to :func:`truth_filename` in the smallest unsigned integer
    type that holds its largest count (uint8 on the default design);
    :class:`AmplitudeTrace` widens it back to int64 on reading. The name
    predates the ``.npy`` format and is kept for callers that wrap it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / trace_filename(trace.probe_id), trace.amplitudes_mv)
    truth = trace.truth_counts
    if truth is not None:
        dtype = np.min_scalar_type(truth.max(initial=0))
        np.save(directory / truth_filename(trace.probe_id), truth.astype(dtype))


def _read_npy_column(path, kinds: str, what: str) -> np.ndarray:
    """The 1-D array in the ``.npy`` file ``path``; its dtype kind is in ``kinds``."""
    magic = np.lib.format.MAGIC_PREFIX
    try:
        with open(path, "rb") as fh:
            is_npy = fh.read(len(magic)) == magic
            fh.seek(0)
            # Checking the magic first keeps np.load off its pickle and .npz routes.
            arr = np.load(fh, allow_pickle=False) if is_npy else None
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc})") from exc
    except (ValueError, EOFError) as exc:
        raise SchemaError(f"{path}: bad .npy data ({exc})") from exc
    if arr is None:
        raise SchemaError(f"{path}: not a .npy file")
    if arr.ndim != 1:
        raise SchemaError(f"{path}: expected a 1-D array, got shape {arr.shape}")
    if arr.dtype.kind not in kinds:
        raise SchemaError(f"{path}: expected {what}, got dtype {arr.dtype}")
    return arr


def read_trace_csv(path, probe_id: int, truth_path=None) -> AmplitudeTrace:
    """Read a trace written by :func:`write_trace_csv`.

    ``path`` holds the amplitudes, ``truth_path`` (optional) the truth
    sidecar. Pickled, object, structured or non-1-D arrays, the wrong
    dtype, a sidecar of another length and non-finite amplitudes raise
    :class:`SchemaError`. The name predates the ``.npy`` format.
    """
    amps = _read_npy_column(path, "f", "float amplitudes")
    truth = None
    if truth_path is not None:
        truth = _read_npy_column(truth_path, "iu", "integer counts")
        if truth.shape != amps.shape:
            raise SchemaError(
                f"{truth_path}: sidecar has {truth.size} events, trace has {amps.size}"
            )
    try:
        return AmplitudeTrace(probe_id=probe_id, amplitudes_mv=amps, truth_counts=truth)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# -- manifest and ensemble ---------------------------------------------------

def write_manifest(directory, config: dict, seed: int):
    write_json(
        Path(directory) / "manifest.json",
        {
            "config_hash": config_hash(config),
            "seed": seed,
            "config": config,
            "traces": [
                {
                    "probe_id": p["id"],
                    "file": trace_filename(p["id"]),
                    "truth_file": truth_filename(p["id"]),
                }
                for p in config["probes"]
            ],
        },
    )


def read_manifest(directory) -> dict:
    path = Path(directory) / "manifest.json"
    if not path.exists():
        raise SchemaError(f"{directory}: no manifest.json; not a simulate output?")
    manifest = read_json(path)
    for key in ("config_hash", "seed", "config", "traces"):
        _require(manifest, key, str(path))
    validate_config(manifest["config"])
    if not isinstance(manifest["traces"], list):
        raise SchemaError(f"{path}: 'traces' must be a list")
    seen = set()
    for i, entry in enumerate(manifest["traces"]):
        where = f"{path}: trace entry {i}"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where} must be an object")
        for key in ("probe_id", "file"):
            _require(entry, key, where)
        # A repeated id would silently replace one probe's counts with another's.
        if not isinstance(entry["probe_id"], int) or entry["probe_id"] in seen:
            raise SchemaError(f"{where}: probe_id must be a unique integer")
        seen.add(entry["probe_id"])
    return manifest


def write_ensemble(path, config: dict):
    """Write the run config, keyed by its hash: the probes plus every section.

    Downstream stages read their settings from this one file, so a run is
    reconstructed and validated with the config it was simulated with.
    """
    write_json(path, {"config_hash": config_hash(config), **config})


def read_ensemble(path) -> tuple[ProbeEnsemble, str, dict]:
    """The probe ensemble, config hash and run config of an ``ensemble.json``.

    Files that carry only probes give a config whose absent sections take
    the defaults.
    """
    payload = read_json(path)
    cfg_hash = _require(payload, "config_hash", str(path))
    config = {k: v for k, v in payload.items() if k != "config_hash"}
    validate_config(config)
    return config_ensemble(config), cfg_hash, config


# -- count tables ------------------------------------------------------------

def write_count_table(path, table: CountTable, cfg_hash: str, method: str,
                      skipped_probe_ids=()):
    payload = {
        "config_hash": cfg_hash,
        "method": method,
        "n_outcomes": table.n_outcomes,
        "n_probes": table.n_probes,
        "probe_ids": list(table.probe_ids) if table.probe_ids is not None else None,
        "skipped_probe_ids": list(skipped_probe_ids),
        "counts": table.counts,
        "probs": table.probs,
    }
    write_json(path, payload)


def read_count_table(path) -> tuple[CountTable, str]:
    payload = read_json(path)
    cfg_hash = _require(payload, "config_hash", str(path))
    probs = np.asarray(_require(payload, "probs", str(path)), dtype=float)
    counts = payload.get("counts")
    probe_ids = payload.get("probe_ids")
    try:
        if counts is not None:
            table = CountTable(
                probs,
                counts=np.asarray(counts, dtype=np.int64),
                probe_ids=tuple(probe_ids) if probe_ids is not None else None,
            )
        else:
            table = CountTable.from_probs(
                probs, probe_ids=tuple(probe_ids) if probe_ids is not None else None
            )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return table, cfg_hash


# -- POVM and results --------------------------------------------------------

def write_povm(path, result: ReconstructionResult, cfg: ReconstructionConfig,
               cfg_hash: str):
    """Write the POVM with every solver setting that produced it."""
    write_json(
        path,
        {
            **dataclasses.asdict(cfg),
            "config_hash": cfg_hash,
            "entries": result.povm.entries,
            "converged": result.converged,
            "n_iters": result.n_iters,
            "stop_reason": result.stop_reason,
            "noise_floor": result.noise_floor,
            "data_term": result.data_term,
            "reg_term": result.reg_term,
            "per_probe_residuals": result.per_probe_residuals,
            "probe_tail_mass": result.probe_tail_mass,
        },
    )


def read_povm(path) -> tuple[PovmMatrix, str, ReconstructionConfig]:
    """The POVM, config hash and solver settings of a ``povm.json``.

    The shape of the matrix fixes ``n_outcomes`` and ``truncation``; other
    settings a file lacks take the :class:`ReconstructionConfig` defaults.
    """
    payload = read_json(path)
    cfg_hash = _require(payload, "config_hash", str(path))
    entries = np.asarray(_require(payload, "entries", str(path)), dtype=float)
    try:
        povm = PovmMatrix(entries)
        cfg = ReconstructionConfig(**{
            **_known_fields(ReconstructionConfig, payload),
            "n_outcomes": povm.n_outcomes,
            "truncation": povm.truncation,
        })
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return povm, cfg_hash, cfg


def write_convergence_log(path, result: ReconstructionResult, stride: int = 100):
    history = result.objective_history
    lines = ["# iteration objective"]
    for i in range(0, history.size, stride):
        lines.append(f"{i} {float(history[i])!r}")
    if (history.size - 1) % stride:
        lines.append(f"{history.size - 1} {float(history[-1])!r}")
    lines.append(
        f"# stop={result.stop_reason} iters={result.n_iters} "
        f"data_term={float(result.data_term)!r} reg_term={float(result.reg_term)!r}"
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_fit_report(path, fit: GaussianMixtureFit, thresholds: ThresholdSet | None,
                     cfg_hash: str):
    write_json(
        path,
        {
            "config_hash": cfg_hash,
            "bin_width_mv": fit.bin_width_mv,
            "n_events": fit.n_events,
            "goodness": fit.goodness,
            "baseline_mv": fit.baseline_mv,
            "spacing_mv": fit.spacing_mv,
            "components": [dataclasses.asdict(c) for c in fit.components],
            "thresholds_mv": list(thresholds.cut_points_mv) if thresholds else None,
        },
    )


def write_estimate(path, estimate, cfg_hash: str, method: str):
    write_json(
        path,
        {"config_hash": cfg_hash, "method": method, **dataclasses.asdict(estimate)},
    )


def read_estimate(path) -> tuple[dict, str]:
    payload = read_json(path)
    cfg_hash = _require(payload, "config_hash", str(path))
    _require(payload, "eta_hat", str(path))
    return payload, cfg_hash
