"""End-to-end tests for the five-stage command line pipeline."""

import json
import re
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

import tespovm as tp
from tespovm import files
from tespovm.cli import main


def _config(gamma: float = 0.0) -> dict:
    mus = np.geomspace(2.0, 40.0, 5)
    return {
        "probes": [
            {"id": i, "mean_photons": float(m), "n_pulses": 4000}
            for i, m in enumerate(mus)
        ],
        "detector": {"eta": 0.051, "gamma": gamma},
        "calibration": {"bin_width_mv": 1.3, "max_peaks": 10},
        "reconstruction": {"truncation": 50, "n_outcomes": 8, "max_iters": 30000},
    }


def _run_pipeline(root, config, estimate_flags=()):
    """The five stages on ``config``; no stage after simulate sees the config."""
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    sim, cal, rec, est, val = (root / name for name in
                               ("sim", "cal", "rec", "est", "val"))
    steps = [
        ["simulate", "--config", str(cfg_path), "--seed", "1", "--out", str(sim)],
        ["calibrate", "--traces", str(sim), "--out", str(cal)],
        ["reconstruct", "--counts", str(cal / "counts.json"),
         "--ensemble", str(sim / "ensemble.json"), "--out", str(rec)],
        ["estimate", "--counts", str(cal / "counts.json"),
         "--ensemble", str(sim / "ensemble.json"), "--out", str(est),
         *estimate_flags],
        ["validate", "--povm", str(rec / "povm.json"),
         "--counts", str(cal / "counts.json"),
         "--ensemble", str(sim / "ensemble.json"),
         "--estimate", str(est / "estimate.json"),
         "--out", str(val), "--split", "20", "--energy-scale", "0.05"],
    ]
    codes = [main(argv) for argv in steps]
    assert codes == [0, 0, 0, 0, 0]
    return {"config": cfg_path, "sim": sim, "cal": cal, "rec": rec,
            "est": est, "val": val}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return _run_pipeline(tmp_path_factory.mktemp("pipeline"), _config())


def test_pipeline_artifacts_exist(pipeline):
    sim = pipeline["sim"]
    assert (sim / "manifest.json").exists()
    assert (sim / "ensemble.json").exists()
    for pid in range(5):
        assert (sim / files.trace_filename(pid)).exists()
        assert (sim / files.truth_filename(pid)).exists()
    assert (pipeline["cal"] / "counts.json").exists()
    fits = sorted((pipeline["cal"] / "fits").glob("probe_*.json"))
    assert len(fits) == 5
    assert (pipeline["rec"] / "povm.json").exists()
    assert (pipeline["rec"] / "convergence.log").exists()
    assert (pipeline["est"] / "estimate.json").exists()
    assert (pipeline["val"] / "fidelity.json").exists()
    assert (pipeline["val"] / "comparison.json").exists()
    assert (pipeline["val"] / "sweep.json").exists()


def test_pipeline_fit_reports(pipeline):
    for pid in range(5):
        payload = json.loads((pipeline["cal"] / "fits" / f"probe_{pid:03d}.json").read_text())
        assert payload["baseline_mv"] == payload["components"][0]["mean_mv"]
        assert abs(payload["baseline_mv"]) < 0.5
        assert abs(payload["spacing_mv"] - 13.0) < 0.2


@pytest.mark.parametrize("eta, first_flagged", [(0.15, 13), (0.3, 9)])
def test_calibrate_mislabelled_zero_peak_exits_3_unless_skipped(
    tmp_path, capsys, eta, first_flagged
):
    # At 2e4 pulses the brightest probes keep fewer than WEIGHT_FLOOR_EVENTS
    # zero-count events, so their lowest tooth is a one-photon peak or
    # higher; the run's common scale exposes them. At eta = 0.3 they are
    # 11 of the 20 probes.
    config = files.default_config()
    config["detector"]["eta"] = eta
    for probe in config["probes"]:
        probe["n_pulses"] = 20_000
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    sim, cal = tmp_path / "sim", tmp_path / "cal"
    assert main(["simulate", "--config", str(cfg), "--seed", "3", "--out", str(sim)]) == 0

    assert main(["calibrate", "--traces", str(sim), "--out", str(cal)]) == 3
    err = capsys.readouterr().err
    assert f"probe {first_flagged}: peak 0 at" in err and "off the run's scale" in err

    assert main(["calibrate", "--traces", str(sim), "--out", str(cal),
                 "--skip-failed"]) == 0
    payload = json.loads((cal / "counts.json").read_text())
    assert payload["skipped_probe_ids"] == list(range(first_flagged, 20))
    assert main(["estimate", "--counts", str(cal / "counts.json"),
                 "--ensemble", str(sim / "ensemble.json"),
                 "--out", str(tmp_path / "est")]) == 0
    estimate, _ = files.read_estimate(tmp_path / "est" / "estimate.json")
    assert abs(estimate["eta_hat"] - eta) < 3.0 * estimate["eta_se"]


def test_pipeline_povm_artifact(pipeline):
    povm, h, cfg = files.read_povm(pipeline["rec"] / "povm.json")
    assert (povm.n_outcomes, povm.truncation) == (8, 50)
    assert h == files.config_hash(json.loads(pipeline["config"].read_text()))
    np.testing.assert_allclose(povm.entries.sum(axis=0), 1.0, atol=1e-9)
    estimate, _ = files.read_estimate(pipeline["est"] / "estimate.json")
    assert cfg.init_eta == estimate["eta_hat"]


def test_ensemble_json_is_the_run_config(pipeline):
    payload = json.loads((pipeline["sim"] / "ensemble.json").read_text())
    manifest = files.read_manifest(pipeline["sim"])
    config = {k: v for k, v in payload.items() if k != "config_hash"}
    assert config == manifest["config"] == _config()
    assert payload["config_hash"] == files.config_hash(config) == manifest["config_hash"]


def test_pipeline_estimate_artifact(pipeline):
    payload, _ = files.read_estimate(pipeline["est"] / "estimate.json")
    assert payload["method"] == "eta"
    assert abs(payload["eta_hat"] - 0.051) < 0.005
    assert 0 < payload["eta_se"] < 0.01
    assert payload["gamma_hat"] is None


def test_pipeline_fidelity_artifact(pipeline):
    payload = json.loads((pipeline["val"] / "fidelity.json").read_text())
    assert payload["split"] == 20
    values = np.array(payload["fidelity"])
    assert values.shape == (50,)
    assert np.all((values >= 0.0) & (values <= 1.0 + 1e-12))
    assert payload["min_low"] == pytest.approx(values[:21].min())


def test_pipeline_comparison_artifact(pipeline):
    payload = json.loads((pipeline["val"] / "comparison.json").read_text())
    probes = payload["probes"]
    assert [p["probe_id"] for p in probes] == list(range(5))
    mus = np.geomspace(2.0, 40.0, 5)
    for entry, mu in zip(probes, mus):
        assert entry["mean_photons"] == float(mu)
        assert len(entry["measured"]) == 8
        assert 0.0 <= entry["tv_reconstructed"] <= 1.0
        assert entry["max_diff_linear"] >= 0.0


def test_pipeline_sweep_artifact(pipeline):
    payload = json.loads((pipeline["val"] / "sweep.json").read_text())
    labels = [pt["label"] for pt in payload["points"]]
    assert "baseline" in labels
    assert len(labels) == 3
    stacked = np.array([pt["fidelities"] for pt in payload["points"]])
    np.testing.assert_array_equal(np.array(payload["envelope"]),
                                  stacked.min(axis=0))


def test_validate_without_perturbation_skips_sweep(pipeline, tmp_path):
    rc = main([
        "validate", "--povm", str(pipeline["rec"] / "povm.json"),
        "--counts", str(pipeline["cal"] / "counts.json"),
        "--ensemble", str(pipeline["sim"] / "ensemble.json"),
        "--estimate", str(pipeline["est"] / "estimate.json"),
        "--out", str(tmp_path), "--split", "20",
    ])
    assert rc == 0
    assert (tmp_path / "fidelity.json").exists()
    assert not (tmp_path / "sweep.json").exists()


def test_calibrate_area_method(pipeline, tmp_path):
    rc = main(["calibrate", "--traces", str(pipeline["sim"]),
               "--out", str(tmp_path), "--method", "area"])
    assert rc == 0
    payload = json.loads((tmp_path / "counts.json").read_text())
    assert payload["method"] == "area"
    table, _ = files.read_count_table(tmp_path / "counts.json")
    assert table.probe_ids == (0, 1, 2, 3, 4)


def test_estimate_dark_counts_flag(pipeline, tmp_path):
    rc = main(["estimate", "--counts", str(pipeline["cal"] / "counts.json"),
               "--ensemble", str(pipeline["sim"] / "ensemble.json"),
               "--out", str(tmp_path), "--dark-counts"])
    assert rc == 0
    payload, _ = files.read_estimate(tmp_path / "estimate.json")
    assert payload["method"] == "eta_gamma"
    assert payload["gamma_hat"] >= 0.0
    assert payload["gamma_upper"] >= payload["gamma_hat"]


def test_estimate_dark_counts_single_mu_exits_3(tmp_path, capsys):
    # One mean photon number identifies only eta * mu + gamma.
    ens = tp.ProbeEnsemble(tuple(tp.Probe(id=i, mean_photons=8.0) for i in range(2)))
    table = tp.CountTable.from_counts(np.array([[50, 40], [30, 35], [20, 25]]),
                                      probe_ids=ens.ids)
    config = {"probes": [{"id": p.id, "mean_photons": p.mean_photons} for p in ens.probes]}
    files.write_ensemble(tmp_path / "ensemble.json", config)
    files.write_count_table(tmp_path / "counts.json", table, files.config_hash(config),
                            "threshold")
    argv = ["estimate", "--counts", str(tmp_path / "counts.json"),
            "--ensemble", str(tmp_path / "ensemble.json"), "--out", str(tmp_path)]
    assert main(argv + ["--dark-counts"]) == 3
    assert "distinct mean photon numbers" in capsys.readouterr().err
    assert main(argv) == 0


def test_missing_counts_exits_2(pipeline, tmp_path, capsys):
    rc = main(["reconstruct", "--counts", str(tmp_path / "nope.json"),
               "--ensemble", str(pipeline["sim"] / "ensemble.json"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"probes": []}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")])
    assert rc == 2
    assert "nonempty" in capsys.readouterr().err


def test_outcome_mismatch_exits_2(pipeline, tmp_path, capsys):
    # The pipeline reconstructed with no config flag, in the run config's
    # 8 outcomes, truncation 50 and max_iters 30000, and recorded them.
    payload = json.loads((pipeline["rec"] / "povm.json").read_text())
    assert (payload["n_outcomes"], payload["truncation"]) == (8, 50)
    assert payload["max_iters"] == 30000
    assert payload["reg_weight"] == tp.ReconstructionConfig().reg_weight
    assert payload["tol"] == tp.ReconstructionConfig().tol

    # A run config of 12 outcomes disagrees with the 8-outcome table.
    ensemble = json.loads((pipeline["sim"] / "ensemble.json").read_text())
    ensemble["reconstruction"]["n_outcomes"] = 12
    (tmp_path / "ensemble.json").write_text(json.dumps(ensemble))
    rc = main(["reconstruct", "--counts", str(pipeline["cal"] / "counts.json"),
               "--ensemble", str(tmp_path / "ensemble.json"),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "outcomes" in capsys.readouterr().err
    assert not (tmp_path / "povm.json").exists()


def test_reconstruct_unfittable_table_exits_3(tmp_path, capsys):
    # Probes of mean photon number 0 carry no efficiency information, so
    # there is no start to solve from.
    config = {"probes": [{"id": i, "mean_photons": 0.0} for i in range(3)]}
    files.write_ensemble(tmp_path / "ensemble.json", config)
    table = tp.CountTable.from_counts(np.array([[100, 90, 95]] + [[0, 10, 5]] * 11),
                                      probe_ids=(0, 1, 2))
    files.write_count_table(tmp_path / "counts.json", table, files.config_hash(config),
                            "threshold")
    with pytest.warns(UserWarning, match="no efficiency information"):
        rc = main(["reconstruct", "--counts", str(tmp_path / "counts.json"),
                   "--ensemble", str(tmp_path / "ensemble.json"),
                   "--out", str(tmp_path / "rec")])
    assert rc == 3
    assert "no usable probes" in capsys.readouterr().err
    assert not (tmp_path / "rec" / "povm.json").exists()


def test_sweep_baseline_is_the_reported_povm(tmp_path):
    # With dark counts the estimate's eta differs from the eta that
    # reconstruct starts from; the sweep must still solve as reconstruct did.
    run = _run_pipeline(tmp_path, _config(gamma=0.2), estimate_flags=["--dark-counts"])
    povm = json.loads((run["rec"] / "povm.json").read_text())
    estimate = json.loads((run["est"] / "estimate.json").read_text())
    assert estimate["method"] == "eta_gamma"
    assert povm["init_eta"] != estimate["eta_hat"]
    fidelity = json.loads((run["val"] / "fidelity.json").read_text())
    sweep = json.loads((run["val"] / "sweep.json").read_text())
    baseline = next(pt for pt in sweep["points"] if pt["label"] == "baseline")
    assert baseline["fidelities"] == fidelity["fidelity"]


def test_lineage_mismatch_exits_4(pipeline, tmp_path, capsys):
    tampered = tmp_path / "ensemble.json"
    payload = json.loads((pipeline["sim"] / "ensemble.json").read_text())
    payload["config_hash"] = "deadbeef"
    tampered.write_text(json.dumps(payload))
    argv = ["estimate", "--counts", str(pipeline["cal"] / "counts.json"),
            "--ensemble", str(tampered), "--out", str(tmp_path)]
    assert main(argv) == 4
    assert "--force" in capsys.readouterr().err
    assert main(argv + ["--force"]) == 0
    assert (tmp_path / "estimate.json").exists()


def test_calibrate_short_trace_exits_3_unless_skipped(pipeline, tmp_path, capsys):
    sim = tmp_path / "sim"
    shutil.copytree(pipeline["sim"], sim)
    np.save(sim / files.trace_filename(2), np.full(50, 0.25))
    (sim / files.truth_filename(2)).unlink()

    rc = main(["calibrate", "--traces", str(sim), "--out", str(tmp_path / "cal")])
    assert rc == 3
    assert "need at least 100" in capsys.readouterr().err

    rc = main(["calibrate", "--traces", str(sim),
               "--out", str(tmp_path / "cal"), "--skip-failed"])
    assert rc == 0
    payload = json.loads((tmp_path / "cal" / "counts.json").read_text())
    assert payload["skipped_probe_ids"] == [2]
    table, _ = files.read_count_table(tmp_path / "cal" / "counts.json")
    assert table.probe_ids == (0, 1, 3, 4)


def test_simulate_jobs_write_identical_traces(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_config()))
    for jobs in ("1", "2"):
        rc = main(["simulate", "--config", str(cfg), "--seed", "3",
                   "--out", str(tmp_path / jobs), "--jobs", jobs])
        assert rc == 0
    names = sorted(p.name for p in (tmp_path / "1").glob("trace_probe_*"))
    assert len(names) == 10
    assert names == sorted(p.name for p in (tmp_path / "2").glob("trace_probe_*"))
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def _copy_sim(pipeline, tmp_path, edit_entry=None):
    """A copy of the pipeline's simulate output, each manifest entry edited."""
    sim = tmp_path / "sim"
    shutil.copytree(pipeline["sim"], sim)
    if edit_entry is not None:
        manifest = json.loads((sim / "manifest.json").read_text())
        for entry in manifest["traces"]:
            edit_entry(sim, entry)
        (sim / "manifest.json").write_text(json.dumps(manifest))
    return sim


def _drop_file_field(sim, entry):
    if entry["probe_id"] == 2:
        del entry["file"]


def _repeat_probe_id(sim, entry):
    if entry["probe_id"] == 3:
        entry["probe_id"] = 1


def _delete_trace(sim, entry):
    if entry["probe_id"] == 2:
        (sim / entry["file"]).unlink()


def _to_csv_era(sim, entry):
    """Rewrite the trace as the one-column CSV that earlier versions wrote."""
    amps = np.load(sim / entry["file"], allow_pickle=False)
    (sim / entry["file"]).unlink()
    entry["file"] = entry["file"].replace(".npy", ".csv")
    lines = ["amplitude_mv"] + [repr(float(a)) for a in amps]
    (sim / entry["file"]).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("edit_entry, match", [
    pytest.param(_drop_file_field, "trace entry 2: missing field 'file'", id="no-file"),
    pytest.param(_repeat_probe_id, "trace entry 3: probe_id must be a unique integer",
                 id="repeated-id"),
    pytest.param(_delete_trace, "trace_probe_002.npy: cannot read", id="no-trace"),
    pytest.param(_to_csv_era, "trace_probe_000.csv: not a .npy file", id="csv-era"),
])
def test_calibrate_bad_trace_input_exits_2(pipeline, tmp_path, capsys, jobs,
                                           edit_entry, match):
    sim = _copy_sim(pipeline, tmp_path, edit_entry)
    rc = main(["calibrate", "--traces", str(sim), "--out", str(tmp_path / "cal"),
               "--jobs", jobs])
    assert rc == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_calibrate_ignores_truth_sidecar(pipeline, tmp_path, jobs):
    def drop_truth(sim, entry):
        (sim / entry.pop("truth_file")).unlink()

    sim = _copy_sim(pipeline, tmp_path, drop_truth)
    rc = main(["calibrate", "--traces", str(sim), "--out", str(tmp_path / "cal"),
               "--jobs", jobs])
    assert rc == 0
    assert ((tmp_path / "cal" / "counts.json").read_bytes()
            == (pipeline["cal"] / "counts.json").read_bytes())


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_calibrate_nonfinite_trace_exits_2_unless_skipped(pipeline, tmp_path, capsys,
                                                          jobs):
    sim = _copy_sim(pipeline, tmp_path)
    amps = np.load(sim / files.trace_filename(2))
    amps[10] = np.nan
    np.save(sim / files.trace_filename(2), amps)
    argv = ["calibrate", "--traces", str(sim), "--out", str(tmp_path / "cal"),
            "--jobs", jobs]

    assert main(argv) == 2
    assert "trace_probe_002.npy: amplitudes_mv must be finite" in capsys.readouterr().err

    assert main(argv + ["--skip-failed"]) == 0
    payload = json.loads((tmp_path / "cal" / "counts.json").read_text())
    assert payload["skipped_probe_ids"] == [2]


def _readme_commands() -> list[list[str]]:
    """The commands of the README's "Command line" block, one argv each."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(cmd) for cmd in block.replace("\\\n", " ").splitlines()
            if cmd.strip()]


def test_readme_command_block_runs(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert [argv[:2] for argv in commands] == [
        ["tespovm", stage] for stage in
        ("simulate", "calibrate", "reconstruct", "estimate", "validate")
    ]
    (tmp_path / "config.json").write_text(json.dumps(_config()))
    monkeypatch.chdir(tmp_path)
    assert [main(argv[1:]) for argv in commands] == [0, 0, 0, 0, 0]
    assert (tmp_path / "run" / "val" / "sweep.json").exists()
