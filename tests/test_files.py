"""Round-trip and schema tests for the on-disk artifact formats."""

import argparse
import dataclasses
import inspect
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
from tespovm import files
from tespovm.cli import build_parser


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
    run = files.parse_config(files.default_config())
    assert run.detector == tp.DetectorPhysicalConfig()
    assert run.detector.eta == 0.051
    assert run.ensemble.n_probes == 20
    assert run.ensemble.mean_photons[0] == 6.5
    assert run.reconstruction == tp.ReconstructionConfig()
    assert run.calibration == {"bin_width_mv": 1.3}


def test_config_calibration_defaults_are_fit_peaks_defaults():
    # fit_run's signature is the one source of the calibration defaults.
    for fit in (tp.fit_run, tp.fit_peaks):
        default = inspect.signature(fit).parameters["bin_width_mv"].default
        assert files.default_config()["calibration"] == {"bin_width_mv": default}
    probes = [{"mean_photons": 1.0}]
    # An absent key is left to fit_run.
    run = files.parse_config({"probes": probes, "reconstruction": {"n_outcomes": 8}})
    assert run.calibration == {}
    # The count classes are set once, by reconstruction.n_outcomes.
    with pytest.raises(tp.SchemaError, match=r"calibration: max_peaks is not a config key; "
                                             r"reconstruction\.n_outcomes sets"):
        files.parse_config({"probes": probes, "calibration": {"max_peaks": 12}})


def test_default_config_hash_is_pinned():
    # Artifact lineage depends on this value; a default that drifts changes it.
    assert files.config_hash(files.default_config()) == "1e7c6b953e310dd2"


def test_public_names_are_pinned():
    # Adding or dropping a public name is a visible edit here.
    public = {name for name, value in vars(tp).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {
        "AmplitudeTrace", "CalibrationError", "CountDistribution", "CountTable",
        "DetectorPhysicalConfig", "EfficiencyEstimate", "EstimationError",
        "FidelityCurve", "GaussianComponent", "GaussianMixtureFit", "LineageError",
        "PovmMatrix", "Probe", "ProbeComparison", "ProbeEnsemble",
        "ReconstructionConfig", "ReconstructionResult", "SchemaError", "SweepResult",
        "ThresholdSet", "bin_counts", "bin_counts_by_area", "binomial_povm",
        "derive_subseed", "estimate_eta", "estimate_eta_gamma", "fidelity_curve",
        "fit_peaks", "fit_run", "geometric_ensemble", "linear_prediction",
        "place_thresholds", "poisson_pmf", "predict_distribution", "probe_q_matrix",
        "project_simplex", "reconstruct_povm", "sensitivity_sweep",
        "simulate_ensemble", "simulate_trace", "three_way_comparison",
    }


def test_cli_options_are_pinned():
    # Adding or dropping a command-line option is a visible edit here.
    (subcommands,) = [action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    options = {name: sorted(opt for action in sub._actions for opt in action.option_strings)
               for name, sub in subcommands.choices.items()}
    assert options == {
        "simulate": ["--config", "--help", "--jobs", "--out", "--seed", "-h"],
        "calibrate": ["--help", "--jobs", "--out", "--skip-failed", "--traces", "-h"],
        "reconstruct": ["--counts", "--ensemble", "--force", "--help", "--out", "-h"],
        "estimate": ["--counts", "--ensemble", "--force", "--help", "--out", "-h"],
        "validate": ["--attenuation-db", "--counts", "--energy-scale", "--ensemble",
                     "--estimate", "--force", "--help", "--out", "--povm", "--split", "-h"],
    }


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
    assert np.array_equal(truth, trace.truth_counts)
    # The package reads only the amplitudes.
    back = files.read_trace_csv(tmp_path / files.trace_filename(7), probe_id=7)
    assert back.probe_id == 7
    assert np.array_equal(back.amplitudes_mv, trace.amplitudes_mv)
    assert back.truth_counts is None


@pytest.mark.parametrize("truth, dtype", [
    pytest.param(np.array([0, 20, 3]), np.uint8, id="uint8"),
    pytest.param(np.array([0, 255, 256]), np.uint16, id="uint16"),
    pytest.param(np.array([], dtype=np.int64), np.uint8, id="empty"),
    # Unsaturated counts at a mean of 400 detected photons need 16 bits.
    pytest.param(tp.simulate_trace(tp.DetectorPhysicalConfig(eta=1.0), 400.0, 1000,
                                   seed=3).truth_counts, np.uint16, id="simulated-uint16"),
])
def test_truth_sidecar_roundtrip(tmp_path, truth, dtype):
    trace = tp.AmplitudeTrace(probe_id=2, amplitudes_mv=np.zeros(truth.size),
                              truth_counts=truth)
    # The trace holds its truth in the sidecar's type.
    assert trace.truth_counts.dtype == dtype
    files.write_trace_csv(tmp_path, trace)
    back = np.load(tmp_path / files.truth_filename(2), allow_pickle=False)
    assert back.dtype == dtype
    assert np.array_equal(back, truth)


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


@pytest.mark.parametrize("amps, match", [
    pytest.param(np.array([0.4, None], dtype=object), "Object arrays cannot be loaded",
                 id="object-array"),
    pytest.param(_AMPS.reshape(1, 3), "1-D", id="not-1d"),
    pytest.param(np.array([0, 13, 26]), "float amplitudes", id="int-amplitudes"),
    pytest.param(np.array([0.4, np.nan, 25.9]), "finite", id="nan"),
    pytest.param(np.array([0.4, np.inf]), "finite", id="inf"),
])
def test_read_trace_refuses(tmp_path, amps, match):
    np.save(tmp_path / "t.npy", amps, allow_pickle=True)
    with pytest.raises(tp.SchemaError, match=match) as info:
        files.read_trace_csv(tmp_path / "t.npy", probe_id=0)
    assert f"{tmp_path / 't.npy'}:" in str(info.value)


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
    run, h = files.read_ensemble(tmp_path / "ensemble.json")
    assert h == files.config_hash(config)
    assert run == files.parse_config(config)
    assert run.ensemble.probes == tp.geometric_ensemble().probes
    assert run.reconstruction.max_iters == 30000
    # Files that carry only probes, under their own hash, give the default
    # solver settings.
    probes_only = {"probes": config["probes"][:2]}
    payload = {"config_hash": files.config_hash(probes_only), **probes_only}
    files.write_json(tmp_path / "old.json", payload)
    old, _ = files.read_ensemble(tmp_path / "old.json")
    assert old.ensemble.ids == (0, 1)
    assert old.reconstruction == tp.ReconstructionConfig()
    # A hash that is not the hash of the config beside it is refused.
    files.write_json(tmp_path / "bad.json", {**payload, "config_hash": h})
    with pytest.raises(tp.SchemaError, match=f"{tmp_path / 'bad.json'}: config_hash"):
        files.read_ensemble(tmp_path / "bad.json")
    # A config under its own hash that parse_config refuses names the file.
    typo = {**probes_only, "reconstruction": {"reg_wieght": 1e-3}}
    files.write_json(tmp_path / "typo.json", {"config_hash": files.config_hash(typo), **typo})
    with pytest.raises(tp.SchemaError, match="typo.json: config: reconstruction: .*reg_wieght"):
        files.read_ensemble(tmp_path / "typo.json")


def test_count_table_roundtrip(tmp_path):
    counts = np.array([[120, 30], [40, 60], [0, 10]], dtype=np.int64)
    table = tp.CountTable.from_counts(counts, probe_ids=(3, 1))
    files.write_count_table(tmp_path / "counts.json", table, "h", skipped_probe_ids=[2])
    back, h = files.read_count_table(tmp_path / "counts.json")
    assert h == "h"
    assert np.array_equal(back.counts, counts)
    assert np.array_equal(back.probs, table.probs)  # repr-exact floats
    assert back.probe_ids == (3, 1)
    payload = json.loads((tmp_path / "counts.json").read_text())
    assert payload["skipped_probe_ids"] == [2]
    # The counts are the table: no probabilities or dimensions beside them.
    assert sorted(payload) == ["config_hash", "counts", "probe_ids", "skipped_probe_ids"]


def test_count_table_probs_only_roundtrip(tmp_path):
    table = tp.CountTable.from_probs(np.array([[0.25], [0.75]]))
    files.write_count_table(tmp_path / "probs.json", table, "h")
    back, _ = files.read_count_table(tmp_path / "probs.json")
    assert back.counts is None
    assert np.array_equal(back.probs, table.probs)
    assert "counts" not in json.loads((tmp_path / "probs.json").read_text())


def test_povm_roundtrip(tmp_path):
    rec, cfg, _, _ = _small_reconstruction()
    files.write_povm(tmp_path / "povm.json", rec, cfg.init_eta, "beef")
    povm, h, init_eta = files.read_povm(tmp_path / "povm.json")
    assert h == "beef"
    assert np.array_equal(povm.entries, rec.povm.entries)
    assert init_eta == 0.4
    payload = json.loads((tmp_path / "povm.json").read_text())
    assert payload["stop_reason"] == rec.stop_reason
    assert payload["n_iters"] == rec.n_iters
    assert payload["noise_floor"] is None
    assert payload["gradient_mapping_norm"] == rec.gradient_mapping_norm
    # The solver settings are the run config's, stored once in ensemble.json.
    for key in ("n_outcomes", "truncation", "reg_weight", "max_iters", "tol",
                "last_outcome_cumulative"):
        assert key not in payload
    # Older files carry some of them; the reader ignores them.
    payload.update(last_outcome_cumulative=True, max_iters=2000, tol=1e-8)
    files.write_json(tmp_path / "old.json", payload)
    old, _, old_init_eta = files.read_povm(tmp_path / "old.json")
    assert np.array_equal(old.entries, rec.povm.entries)
    assert old_init_eta == 0.4
    # A solve from uniform columns records no start.
    files.write_povm(tmp_path / "uniform.json", rec, None, "beef")
    assert files.read_povm(tmp_path / "uniform.json")[2] is None


def test_read_povm_rejects_bad_columns(tmp_path):
    path = tmp_path / "povm.json"
    files.write_json(path, {"config_hash": "h", "entries": [[0.9, 0.5], [0.3, 0.5]]})
    with pytest.raises(tp.SchemaError, match="sum to 1"):
        files.read_povm(path)


@pytest.mark.parametrize("init_eta, match", [
    (1.5, r"init_eta must lie in \[0, 1\], got 1\.5"),
    ("0.05", r"init_eta must be a real number, got '0\.05'"),
    # JSON's NaN is a number but not in [0, 1]; true is not a number.
    (math.nan, r"init_eta must lie in \[0, 1\], got nan"),
    (True, r"init_eta must be a real number, got True"),
], ids=["out_of_range", "string", "nan", "true"])
def test_read_povm_rejects_a_bad_init_eta(tmp_path, init_eta, match):
    path = tmp_path / "povm.json"
    files.write_json(path, {"config_hash": "h", "entries": [[1.0, 0.5], [0.0, 0.5]],
                            "init_eta": init_eta})
    with pytest.raises(tp.SchemaError, match=match):
        files.read_povm(path)


def test_convergence_log_format(tmp_path):
    rec, _, _, _ = _small_reconstruction()
    path = tmp_path / "convergence.log"
    files.write_convergence_log(path, rec)
    lines = path.read_text().splitlines()
    assert lines[0] == "# iteration objective"
    assert lines[-1].startswith("# stop=")
    assert f"stop={rec.stop_reason}" in lines[-1]
    assert f"gradient_mapping_norm={rec.gradient_mapping_norm!r}" in lines[-1]
    assert "np.float64" not in path.read_text()
    for line in lines[1:-1]:
        it, val = line.split()
        int(it)
        float(val)


def test_estimate_roundtrip(tmp_path):
    _, _, table, ens = _small_reconstruction()
    est = tp.estimate_eta_gamma(table, ens)
    files.write_estimate(tmp_path / "estimate.json", est, "h")
    payload, h = files.read_estimate(tmp_path / "estimate.json")
    assert h == "h"
    assert payload["eta_hat"] == est.eta_hat
    assert payload["gamma_hat"] == est.gamma_hat
    assert payload["per_probe_etas"] == list(est.per_probe_etas)


def test_manifest_roundtrip(tmp_path):
    config = files.default_config()
    files.write_manifest(tmp_path, config, seed=9)
    manifest = files.read_manifest(tmp_path)
    # Traces are found by probe id, so the manifest lists no files, and the
    # run config itself is ensemble.json.
    assert manifest == {"config_hash": files.config_hash(config), "seed": 9}


def test_read_manifest_missing(tmp_path):
    with pytest.raises(tp.SchemaError, match="manifest"):
        files.read_manifest(tmp_path)


def test_check_lineage():
    files.check_lineage({"x.json": "a", "y.json": "a"})
    files.check_lineage({"x.json": "a", "y.json": "b"}, force=True)
    with pytest.raises(tp.LineageError, match="x.json has config a, y.json has config b"):
        files.check_lineage({"x.json": "a", "y.json": "b"})


# Every setting a run config section feeds, with a builder that varies it alone.
_SETTINGS = [
    *(pytest.param(build, f.name, id=f"{cls.__name__}.{f.name}")
      for cls, build in [
          (tp.Probe, lambda **kw: tp.Probe(**{"id": 0, "mean_photons": 1.0, **kw})),
          (tp.DetectorPhysicalConfig, tp.DetectorPhysicalConfig),
          (tp.ReconstructionConfig, tp.ReconstructionConfig)]
      for f in dataclasses.fields(cls)),
    *(pytest.param(lambda **kw: tp.fit_run((), **kw), name, id=f"fit_run.{name}")
      for name in list(inspect.signature(tp.fit_run).parameters)[1:]),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1"],
                         ids=["nan", "inf", "-inf", "true", "string"])
@pytest.mark.parametrize("build, name", _SETTINGS)
def test_every_setting_refuses_a_value_that_is_not_a_finite_number(build, name, bad):
    # One rule for every numeric setting: the error names the setting.
    with pytest.raises((TypeError, ValueError), match=rf"^{name} must "):
        build(**{name: bad})


def test_parse_config_schema_errors(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(tp.SchemaError, match="not valid JSON"):
        files.read_json(path)
    with pytest.raises(tp.SchemaError, match="cannot read"):
        files.read_json(tmp_path / "missing.json")
    probes = [{"mean_photons": 1.0}]
    for config, match in [
        ([], "top level must be an object"),
        ({}, "missing field 'probes'"),
        ({"probes": []}, "nonempty"),
        ({"probes": [{"id": 0}]}, r"probes\[0\]: .*mean_photons"),
        ({"probes": [{"id": 1, "mean_photons": 1.0}] * 2}, "probes: probe ids must be unique"),
        ({"probes": probes, "detector": 3}, "detector"),
        ({"probes": probes, "reconstruction": {"truncation": -1}},
         r"reconstruction: truncation must lie in \[1, inf\), got -1"),
        ({"probes": probes, "seed": 7}, r"unknown top-level keys \['seed'\]"),
    ]:
        with pytest.raises(tp.SchemaError, match=match):
            files.parse_config(config)
    # A probe's id defaults to its index.
    assert files.parse_config({"probes": probes * 2}).ensemble.ids == (0, 1)


def test_write_json_deterministic(tmp_path):
    payload = {"b": np.array([1.5, 2.5]), "a": {"nested": np.float64(0.1)}}
    files.write_json(tmp_path / "one.json", payload)
    files.write_json(tmp_path / "two.json", payload)
    one = (tmp_path / "one.json").read_bytes()
    assert one == (tmp_path / "two.json").read_bytes()
    parsed = json.loads(one)
    assert parsed["a"]["nested"] == 0.1
    assert parsed["b"] == [1.5, 2.5]


def _comb_fit(weights, goodness=1.0):
    return tp.GaussianMixtureFit(
        components=tuple(tp.GaussianComponent(w, 13.0 * k, 2.0 + 0.1 * k)
                         for k, w in enumerate(weights)),
        goodness=goodness, spacing_mv=13.0,
    )


def test_fit_report(tmp_path):
    # The run's comb once, from class 0 up, then each probe in id order.
    fits = {3: _comb_fit([90.0, 10.0], goodness=1.2), 1: _comb_fit([50.0, 30.0, 20.0])}
    files.write_fit_report(tmp_path / "fits.json", fits, "h")
    payload = json.loads((tmp_path / "fits.json").read_text())
    assert payload == {
        "config_hash": "h",
        "spacing_mv": 13.0,
        "teeth": [{"mean_mv": 0.0, "sigma_mv": 2.0}, {"mean_mv": 13.0, "sigma_mv": 2.1},
                  {"mean_mv": 26.0, "sigma_mv": 2.2}],
        "probes": [{"id": 1, "goodness": 1.0, "weights": [50.0, 30.0, 20.0]},
                   {"id": 3, "goodness": 1.2, "weights": [90.0, 10.0]}],
    }


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
    est = tp.estimate_eta_gamma(table, ens)
    assert math.isnan(est.per_probe_etas[0])
    files.write_estimate(tmp_path / "estimate.json", est, "h")
    payload, _ = files.read_estimate(tmp_path / "estimate.json")
    assert math.isnan(payload["per_probe_etas"][0])
    assert not math.isnan(payload["per_probe_etas"][1])
