"""Round-trip and schema tests for the on-disk artifact formats."""

import json
import math
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tespovm as tp
from tespovm import calibration, files


def _small_reconstruction():
    ens = tp.ProbeEnsemble((
        tp.Probe(id=0, mean_photons=0.5, n_pulses=1000),
        tp.Probe(id=1, mean_photons=2.0, n_pulses=1000),
        tp.Probe(id=2, mean_photons=4.0, n_pulses=1000),
    ))
    truth = tp.binomial_povm(0.4, 3, 5)
    q, _ = tp.probe_q_matrix(ens, 5)
    table = tp.CountTable.from_probs(truth.entries @ q, probe_ids=ens.ids)
    cfg = tp.ReconstructionConfig(truncation=5, n_outcomes=3, max_iters=2000,
                                  init_eta=0.4)
    return tp.reconstruct_povm(table, ens, cfg), cfg, table, ens


def test_config_hash_canonical():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert files.config_hash(a) == files.config_hash(b)
    assert files.config_hash(a) != files.config_hash({"x": 2, "y": [1, 2]})
    assert len(files.config_hash(a)) == 16


def test_default_config_sections():
    config = files.default_config()
    files.validate_config(config)
    assert files.config_detector(config).eta == 0.051
    ens = files.config_ensemble(config)
    assert ens.n_probes == 20
    assert ens.mean_photons[0] == 6.5
    rec = files.config_reconstruction(config)
    assert rec == tp.ReconstructionConfig()
    calib = files.config_calibration(config)
    assert calib == {"bin_width_mv": 1.3, "max_peaks": 16}


def test_config_calibration_defaults_are_fit_peaks_defaults():
    defaults = {"bin_width_mv": calibration.DEFAULT_BIN_WIDTH_MV,
                "max_peaks": calibration.DEFAULT_MAX_PEAKS}
    assert files.default_config()["calibration"] == defaults
    # The outcome count no longer changes the peak cap.
    assert files.config_calibration({"reconstruction": {"n_outcomes": 8}}) == defaults
    calib = files.config_calibration({"calibration": {"max_peaks": 10}})
    assert calib == {**defaults, "max_peaks": 10}
    with pytest.raises(tp.SchemaError):
        files.config_calibration({"calibration": {"max_peaks": 0}})


def test_default_config_hash_is_pinned():
    # Artifact lineage depends on this value; a default that drifts changes it.
    assert files.config_hash(files.default_config()) == "1f7fcd1113052a69"


def test_config_reconstruction_overrides():
    cfg = files.config_reconstruction({}, truncation=50, n_outcomes=8, reg_weight=1e-6)
    assert (cfg.truncation, cfg.n_outcomes, cfg.reg_weight) == (50, 8, 1e-6)
    # None overrides fall through to the section value.
    cfg2 = files.config_reconstruction(
        {"reconstruction": {"truncation": 30}}, truncation=None
    )
    assert cfg2.truncation == 30
    with pytest.raises(tp.SchemaError):
        files.config_reconstruction({}, truncation=-1)


def test_trace_csv_roundtrip(tmp_path):
    trace = tp.simulate_trace(tp.DetectorPhysicalConfig(), 2.0, 500, seed=1, probe_id=7)
    files.write_trace_csv(tmp_path, trace)
    assert files.trace_filename(7) == "trace_probe_007.npy"
    assert files.truth_filename(7) == "trace_probe_007.truth.npy"
    # Plain NumPy reads the files without the package.
    amps = np.load(tmp_path / files.trace_filename(7), allow_pickle=False)
    truth = np.load(tmp_path / files.truth_filename(7), allow_pickle=False)
    # The truth sidecar takes the smallest type that holds its largest count.
    assert (amps.dtype, truth.dtype) == (np.float64, np.uint8)
    back = files.read_trace_csv(
        tmp_path / files.trace_filename(7), probe_id=7,
        truth_path=tmp_path / files.truth_filename(7),
    )
    assert back.probe_id == 7
    assert np.array_equal(back.amplitudes_mv, trace.amplitudes_mv)
    assert np.array_equal(back.truth_counts, trace.truth_counts)
    # Without the sidecar the truth is simply absent.
    bare = files.read_trace_csv(tmp_path / files.trace_filename(7), probe_id=7)
    assert bare.truth_counts is None


@pytest.mark.parametrize("truth, dtype", [
    pytest.param(np.array([0, 20, 3]), np.uint8, id="uint8"),
    pytest.param(np.array([0, 255, 256]), np.uint16, id="uint16"),
    pytest.param(np.array([], dtype=np.int64), np.uint8, id="empty"),
])
def test_truth_sidecar_roundtrip(tmp_path, truth, dtype):
    trace = tp.AmplitudeTrace(probe_id=2, amplitudes_mv=np.zeros(truth.size),
                              truth_counts=truth)
    files.write_trace_csv(tmp_path, trace)
    path = tmp_path / files.truth_filename(2)
    assert np.load(path, allow_pickle=False).dtype == dtype
    back = files.read_trace_csv(tmp_path / files.trace_filename(2), probe_id=2,
                                truth_path=path)
    assert back.truth_counts.dtype == np.int64
    assert np.array_equal(back.truth_counts, truth)


def test_trace_csv_schema_errors(tmp_path):
    bad = tmp_path / "trace_probe_000.csv"
    bad.write_text("amplitude_mv\n0.25\n13.1\n")
    with pytest.raises(tp.SchemaError, match="trace_probe_000.csv: not a .npy file"):
        files.read_trace_csv(bad, probe_id=0)
    pickled = tmp_path / "pickled.npy"
    pickled.write_bytes(pickle.dumps(np.array([0.25, 13.1])))
    with pytest.raises(tp.SchemaError, match="pickled.npy: not a .npy file"):
        files.read_trace_csv(pickled, probe_id=0)
    cut = tmp_path / "cut.npy"
    np.save(cut, np.arange(10.0))
    cut.write_bytes(cut.read_bytes()[:-8])
    with pytest.raises(tp.SchemaError, match="cut.npy: bad .npy data"):
        files.read_trace_csv(cut, probe_id=0)
    with pytest.raises(tp.SchemaError, match="missing.npy: cannot read"):
        files.read_trace_csv(tmp_path / "missing.npy", probe_id=0)


_AMPS = np.array([0.4, 13.2, 25.9])


@pytest.mark.parametrize("amps, truth, bad_file, match", [
    pytest.param(np.array([0.4, None], dtype=object), None, "t.npy",
                 "Object arrays cannot be loaded", id="object-array"),
    pytest.param(_AMPS.reshape(1, 3), None, "t.npy", "1-D", id="not-1d"),
    pytest.param(_AMPS, np.array([[0, 1, 2]]), "t.truth.npy", "1-D", id="not-1d-truth"),
    pytest.param(np.array([0, 13, 26]), None, "t.npy", "float amplitudes",
                 id="int-amplitudes"),
    pytest.param(_AMPS, np.array([0.0, 1.0, 2.0]), "t.truth.npy", "integer counts",
                 id="float-truth"),
    pytest.param(_AMPS, np.array([0, 1]), "t.truth.npy", "sidecar has 2 events",
                 id="short-truth"),
    pytest.param(np.array([0.4, np.nan, 25.9]), None, "t.npy", "finite", id="nan"),
    pytest.param(np.array([0.4, np.inf]), None, "t.npy", "finite", id="inf"),
])
def test_read_trace_refuses(tmp_path, amps, truth, bad_file, match):
    np.save(tmp_path / "t.npy", amps, allow_pickle=True)
    truth_path = None
    if truth is not None:
        truth_path = tmp_path / "t.truth.npy"
        np.save(truth_path, truth)
    with pytest.raises(tp.SchemaError, match=match) as info:
        files.read_trace_csv(tmp_path / "t.npy", probe_id=0, truth_path=truth_path)
    assert f"{tmp_path / bad_file}:" in str(info.value)


_FMAX = np.finfo(np.float64).max
_FLOAT_EDGES = np.array([
    -0.0, 0.0, 5e-324, -5e-324, np.nextafter(np.finfo(np.float64).tiny, 0.0),
    _FMAX, -_FMAX, np.nextafter(_FMAX, 0.0),
])


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 64),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(_FLOAT_EDGES)
def test_trace_roundtrip_is_bitwise(amps):
    with tempfile.TemporaryDirectory() as tmp:
        files.write_trace_csv(tmp, tp.AmplitudeTrace(probe_id=3, amplitudes_mv=amps))
        back = files.read_trace_csv(Path(tmp) / files.trace_filename(3), probe_id=3)
    assert back.amplitudes_mv.dtype == np.float64
    assert back.amplitudes_mv.tobytes() == amps.tobytes()


def test_ensemble_roundtrip(tmp_path):
    config = files.default_config()
    config["reconstruction"]["max_iters"] = 30000
    files.write_ensemble(tmp_path / "ensemble.json", config)
    back, h, run_config = files.read_ensemble(tmp_path / "ensemble.json")
    assert h == files.config_hash(config)
    assert run_config == config
    assert back.probes == tp.geometric_ensemble().probes
    assert files.config_reconstruction(run_config).max_iters == 30000
    # Files that carry only probes give the default solver settings.
    payload = {"config_hash": h, "probes": config["probes"][:2]}
    files.write_json(tmp_path / "old.json", payload)
    old, _, old_config = files.read_ensemble(tmp_path / "old.json")
    assert old.ids == (0, 1)
    assert files.config_reconstruction(old_config) == tp.ReconstructionConfig()


def test_count_table_roundtrip(tmp_path):
    counts = np.array([[120, 30], [40, 60], [0, 10]], dtype=np.int64)
    table = tp.CountTable.from_counts(counts, probe_ids=(3, 1))
    files.write_count_table(tmp_path / "counts.json", table, "h", "threshold",
                            skipped_probe_ids=[2])
    back, h = files.read_count_table(tmp_path / "counts.json")
    assert h == "h"
    assert np.array_equal(back.counts, counts)
    assert np.array_equal(back.probs, table.probs)  # repr-exact floats
    assert back.probe_ids == (3, 1)
    payload = json.loads((tmp_path / "counts.json").read_text())
    assert payload["method"] == "threshold"
    assert payload["skipped_probe_ids"] == [2]


def test_count_table_probs_only_roundtrip(tmp_path):
    table = tp.CountTable.from_probs(np.array([[0.25], [0.75]]))
    files.write_count_table(tmp_path / "probs.json", table, "h", "exact")
    back, _ = files.read_count_table(tmp_path / "probs.json")
    assert back.counts is None
    assert np.array_equal(back.probs, table.probs)


def test_povm_roundtrip(tmp_path):
    rec, cfg, _, _ = _small_reconstruction()
    files.write_povm(tmp_path / "povm.json", rec, cfg, "beef")
    povm, h, back_cfg = files.read_povm(tmp_path / "povm.json")
    assert h == "beef"
    assert np.array_equal(povm.entries, rec.povm.entries)
    assert back_cfg == cfg
    payload = json.loads((tmp_path / "povm.json").read_text())
    assert payload["stop_reason"] == rec.stop_reason
    assert payload["n_iters"] == rec.n_iters
    assert (payload["reg_weight"], payload["max_iters"]) == (cfg.reg_weight, 2000)
    assert payload["noise_floor"] is None
    assert "last_outcome_cumulative" not in payload
    # Older files carry that key and lack max_iters and tol; the reader
    # ignores the one and gives the others their defaults.
    payload["last_outcome_cumulative"] = True
    del payload["max_iters"], payload["tol"]
    files.write_json(tmp_path / "old.json", payload)
    old, _, old_cfg = files.read_povm(tmp_path / "old.json")
    assert np.array_equal(old.entries, rec.povm.entries)
    defaults = tp.ReconstructionConfig()
    assert (old_cfg.max_iters, old_cfg.tol) == (defaults.max_iters, defaults.tol)
    assert (old_cfg.truncation, old_cfg.n_outcomes, old_cfg.init_eta) == (5, 3, 0.4)


def test_read_povm_rejects_bad_columns(tmp_path):
    path = tmp_path / "povm.json"
    files.write_json(path, {"config_hash": "h", "entries": [[0.9, 0.5], [0.3, 0.5]]})
    with pytest.raises(tp.SchemaError, match="sum to 1"):
        files.read_povm(path)
    files.write_json(path, {"config_hash": "h", "entries": [[1.0, 0.5], [0.0, 0.5]],
                            "max_iters": 0})
    with pytest.raises(tp.SchemaError, match="max_iters"):
        files.read_povm(path)


def test_convergence_log_format(tmp_path):
    rec, _, _, _ = _small_reconstruction()
    path = tmp_path / "convergence.log"
    files.write_convergence_log(path, rec, stride=100)
    lines = path.read_text().splitlines()
    assert lines[0] == "# iteration objective"
    assert lines[-1].startswith("# stop=")
    assert f"stop={rec.stop_reason}" in lines[-1]
    assert "np.float64" not in path.read_text()
    for line in lines[1:-1]:
        it, val = line.split()
        int(it)
        float(val)


def test_estimate_roundtrip(tmp_path):
    _, _, table, ens = _small_reconstruction()
    est = tp.estimate_eta(table, ens)
    files.write_estimate(tmp_path / "estimate.json", est, "h", "eta")
    payload, h = files.read_estimate(tmp_path / "estimate.json")
    assert h == "h"
    assert payload["eta_hat"] == est.eta_hat
    assert payload["method"] == "eta"
    assert payload["gamma_hat"] is None
    assert payload["per_probe_etas"] == list(est.per_probe_etas)


def test_manifest_roundtrip(tmp_path):
    config = files.default_config()
    files.write_manifest(tmp_path, config, seed=9)
    manifest = files.read_manifest(tmp_path)
    assert manifest["seed"] == 9
    assert manifest["config_hash"] == files.config_hash(config)
    assert len(manifest["traces"]) == 20
    entry = manifest["traces"][0]
    assert entry["file"] == files.trace_filename(entry["probe_id"])
    assert entry["truth_file"] == files.truth_filename(entry["probe_id"])


def test_read_manifest_missing(tmp_path):
    with pytest.raises(tp.SchemaError, match="manifest"):
        files.read_manifest(tmp_path)


def test_check_lineage():
    files.check_lineage("a", "a", "thing", force=False)
    files.check_lineage("a", "b", "thing", force=True)
    with pytest.raises(tp.LineageError, match="--force"):
        files.check_lineage("a", "b", "thing", force=False)


def test_load_config_schema_errors(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(tp.SchemaError, match="not valid JSON"):
        files.load_config(path)
    path.write_text(json.dumps({"probes": []}))
    with pytest.raises(tp.SchemaError, match="nonempty"):
        files.load_config(path)
    path.write_text(json.dumps({"probes": [{"id": 0}]}))
    with pytest.raises(tp.SchemaError, match="mean_photons"):
        files.load_config(path)
    path.write_text(json.dumps({"probes": [{"mean_photons": 1.0}], "detector": 3}))
    with pytest.raises(tp.SchemaError, match="detector"):
        files.load_config(path)
    with pytest.raises(tp.SchemaError, match="cannot read"):
        files.read_json(tmp_path / "missing.json")


def test_write_json_deterministic(tmp_path):
    payload = {"b": np.array([1.5, 2.5]), "a": {"nested": np.float64(0.1)}}
    files.write_json(tmp_path / "one.json", payload)
    files.write_json(tmp_path / "two.json", payload)
    one = (tmp_path / "one.json").read_bytes()
    assert one == (tmp_path / "two.json").read_bytes()
    parsed = json.loads(one)
    assert parsed["a"]["nested"] == 0.1
    assert parsed["b"] == [1.5, 2.5]


def test_fit_report(tmp_path):
    fit = tp.GaussianMixtureFit(
        components=(
            tp.GaussianComponent(weight=90.0, mean_mv=0.0, sigma_mv=2.0),
            tp.GaussianComponent(weight=10.0, mean_mv=13.0, sigma_mv=2.1),
        ),
        goodness=1.2,
        bin_width_mv=1.3,
        n_events=100,
        spacing_mv=13.0,
    )
    cuts = tp.ThresholdSet((7.2,))
    files.write_fit_report(tmp_path / "fit.json", fit, cuts, "h")
    payload = json.loads((tmp_path / "fit.json").read_text())
    assert payload["config_hash"] == "h"
    assert payload["thresholds_mv"] == [7.2]
    assert len(payload["components"]) == 2
    assert payload["components"][1]["mean_mv"] == 13.0
    assert payload["n_events"] == 100
    assert (payload["baseline_mv"], payload["spacing_mv"]) == (0.0, 13.0)


def test_estimate_roundtrip_preserves_nan(tmp_path):
    ens = tp.ProbeEnsemble((
        tp.Probe(id=0, mean_photons=0.0),
        tp.Probe(id=1, mean_photons=4.0),
        tp.Probe(id=2, mean_photons=8.0),
    ))
    body = tp.poisson_pmf(0.2, np.arange(5))
    col = np.append(body, 1.0 - body.sum())
    e0 = np.zeros(6)
    e0[0] = 1.0
    table = tp.CountTable.from_probs(
        np.column_stack([e0, col, col]), probe_ids=(0, 1, 2)
    )
    with pytest.warns(UserWarning):
        est = tp.estimate_eta(table, ens)
    files.write_estimate(tmp_path / "estimate.json", est, "h", "eta")
    payload, _ = files.read_estimate(tmp_path / "estimate.json")
    assert math.isnan(payload["per_probe_etas"][0])
    assert not math.isnan(payload["per_probe_etas"][1])
