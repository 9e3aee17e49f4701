"""End-to-end tests for the five-stage command line pipeline."""

import contextlib
import dataclasses
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tespovm as tp
from tespovm import calibration, estimation, files, tomography
from tespovm.cli import main
from tespovm.tes_sim import simulate_probe
from tespovm.tomography import TOL

import scenarios


def _config(gamma: float = 0.0) -> dict:
    return {
        "probes": [{"id": i, "mean_photons": float(m), "n_pulses": 4000}
                   for i, m in enumerate(np.geomspace(2.0, 40.0, 5))],
        "detector": {"eta": 0.051, "gamma": gamma},
        "calibration": {"bin_width_mv": 1.3},
        "reconstruction": {"truncation": 50, "n_outcomes": 8},
    }


@contextlib.contextmanager
def _max_iters(n):
    """Cap every solve at ``n`` steps in place of ``tomography.MAX_ITERS``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tomography, "MAX_ITERS", n)
        yield


@pytest.fixture(scope="module", autouse=True)
def _small_design_cap():
    """The small design's in-process solves stop at 30 000 steps."""
    with _max_iters(30_000):
        yield


_ARTIFACTS = {
    "manifest": "sim/manifest.json",
    "ensemble": "sim/ensemble.json",
    "counts": "cal/counts.json",
    "povm": "rec/povm.json",
    "estimate": "est/estimate.json",
}


# validate's sweep flags: the small design's, and the benchmark's on the default design.
_SWEEP = ("--energy-scale", "0.05")
_DEFAULT_SWEEP = ("--energy-scale", "0.03", "--attenuation-db", "0.1")


def _stage_argv(stage, run, out, sweep=_SWEEP, **paths):
    """The argv of ``stage`` on the artifacts under ``run``, or at ``paths``
    by artifact name, writing to ``out``."""
    art = {name: str(run / rel) for name, rel in _ARTIFACTS.items()}
    art.update((name, str(path)) for name, path in paths.items())
    inputs = {
        "calibrate": ["--traces", str(run / "sim")],
        "reconstruct": ["--counts", art["counts"], "--ensemble", art["ensemble"]],
        "estimate": ["--counts", art["counts"], "--ensemble", art["ensemble"]],
        "validate": ["--povm", art["povm"], "--counts", art["counts"],
                     "--ensemble", art["ensemble"], "--estimate", art["estimate"], *sweep],
    }[stage]
    return [stage, *inputs, "--out", str(out)]


def _run_pipeline(root, config, jobs=None, seed=1, sweep=_SWEEP):
    """The five stages on ``config``; no stage after simulate sees the config."""
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    run = {"config": cfg_path, **{name: root / name for name in
                                  ("sim", "cal", "rec", "est", "val")}}
    jobs_flag = [] if jobs is None else ["--jobs", str(jobs)]
    codes = [main(["simulate", "--config", str(cfg_path), "--seed", str(seed),
                   "--out", str(run["sim"])] + jobs_flag)]
    for stage, out in (("calibrate", "cal"), ("reconstruct", "rec"),
                       ("estimate", "est"), ("validate", "val")):
        flags = jobs_flag if stage == "calibrate" else []
        codes.append(main(_stage_argv(stage, root, run[out], sweep) + flags))
    assert codes == [0, 0, 0, 0, 0]
    return run


def _refused(capsys, argv, code, named, out):
    """``main(argv)`` exits ``code``, naming ``named`` on stderr, and writes no ``out``."""
    assert main(argv) == code
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return _run_pipeline(tmp_path_factory.mktemp("pipeline"), _config())


def test_pipeline_artifacts_exist(pipeline):
    # Each stage writes exactly these files, so a stray one cannot come back
    # unnoticed.
    traces = {files.trace_filename(pid) for pid in range(5)}
    expected = {
        "sim": {"manifest.json", "ensemble.json", *traces},
        "cal": {"counts.json", "fits.json"},
        "rec": {"povm.json", "convergence.log"},
        "est": {"estimate.json"},
        "val": {"fidelity.json", "comparison.json", "sweep.json"},
    }
    for stage, names in expected.items():
        written = {str(path.relative_to(pipeline[stage]))
                   for path in pipeline[stage].rglob("*")}
        assert written == names, stage


def test_pipeline_fit_reports(pipeline):
    # One record of the run's comb: its teeth once, then each probe's
    # goodness and tooth weights, in id order.
    payload = json.loads((pipeline["cal"] / "fits.json").read_text())
    run, cfg_hash = files.read_ensemble(pipeline["sim"] / "ensemble.json")
    assert set(payload) == {"config_hash", "spacing_mv", "teeth", "probes"}
    assert payload["config_hash"] == cfg_hash
    teeth = payload["teeth"]
    assert abs(teeth[0]["mean_mv"]) < 0.5
    assert abs(payload["spacing_mv"] - 13.0) < 0.2
    means = [tooth["mean_mv"] for tooth in teeth]
    assert np.allclose(np.diff(means), payload["spacing_mv"], rtol=1e-12)
    assert len(teeth) <= run.reconstruction.n_outcomes
    assert [probe["id"] for probe in payload["probes"]] == list(range(5))
    table, _ = files.read_count_table(pipeline["cal"] / "counts.json")
    for probe, column in zip(payload["probes"], table.counts.T):
        assert probe["goodness"] < 3.0
        assert 1 <= len(probe["weights"]) <= len(teeth)
        assert abs(sum(probe["weights"]) - column.sum()) < 0.01 * column.sum()


def test_calibrate_counts_are_tooth_weights_of_one_comb_fit(pipeline, tmp_path, monkeypatch):
    # The run's comb is the one nonlinear fit, and each probe's count
    # classes are its tooth weights on that comb, folded once, when
    # counted at the run's n_outcomes.
    fits_done = []
    maximize = calibration._maximize

    def counted(*args, **kwargs):
        fits_done.append(1)
        return maximize(*args, **kwargs)

    monkeypatch.setattr(calibration, "_maximize", counted)
    sim = pipeline["sim"]
    assert main(["calibrate", "--traces", str(sim), "--out", str(tmp_path / "cal")]) == 0
    assert len(fits_done) == 1
    run, _ = files.read_ensemble(sim / "ensemble.json")
    traces = [files.read_trace_csv(sim / files.trace_filename(pid), probe_id=pid)
              for pid in run.ensemble.ids]
    n_outcomes = run.reconstruction.n_outcomes
    fits, failures = tp.fit_run(traces, **run.calibration)
    assert failures == {} and len(fits_done) == 2
    expected = np.column_stack([
        tp.bin_counts_by_area(t, fits[t.probe_id], n_outcomes) for t in traces
    ])
    for cal in (pipeline["cal"], tmp_path / "cal"):
        table, _ = files.read_count_table(cal / "counts.json")
        assert table.probe_ids == run.ensemble.ids
        assert np.array_equal(table.counts, expected)
        record = json.loads((cal / "fits.json").read_text())
        # Unfolded: each probe's weights end at its last tooth over the floor.
        assert all(probe["weights"][-1] >= calibration.WEIGHT_FLOOR_EVENTS
                   for probe in record["probes"])
        longest = max(fits.values(), key=lambda fit: fit.n_components)
        assert record["teeth"] == [{"mean_mv": c.mean_mv, "sigma_mv": c.sigma_mv}
                                   for c in longest.components]
        assert record["probes"] == [
            {"id": pid, "goodness": fits[pid].goodness,
             "weights": [c.weight for c in fits[pid].components]}
            for pid in run.ensemble.ids]


def test_fits_json_records_the_whole_comb(tmp_path):
    # fits.json keeps the teeth past the last count class, unfolded, and
    # counts.json is their fold: each column is counts_by_area of the
    # recorded weights.
    sim = _simulate_default(tmp_path, lambda config: None)
    cal = tmp_path / "cal"
    assert main(["calibrate", "--traces", str(sim), "--out", str(cal), "--jobs", "2"]) == 0
    table, _ = files.read_count_table(cal / "counts.json")
    record = json.loads((cal / "fits.json").read_text())
    assert len(record["teeth"]) > table.n_outcomes == 12
    assert [probe["id"] for probe in record["probes"]] == list(table.probe_ids)
    for probe, column in zip(record["probes"], table.counts.T):
        fit = tp.GaussianMixtureFit(
            [tp.GaussianComponent(w, tooth["mean_mv"], tooth["sigma_mv"])
             for w, tooth in zip(probe["weights"], record["teeth"])],
            probe["goodness"], record["spacing_mv"])
        assert np.array_equal(calibration.counts_by_area(fit, table.n_outcomes, int(column.sum())),
                              column), probe["id"]


def _simulate_default(tmp_path, edit_config, seed=3):
    """Simulate the default design, edited; returns the simulate output."""
    config = files.default_config()
    edit_config(config)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "config.json"), "--seed", str(seed),
                 "--out", str(tmp_path / "sim")]) == 0
    return tmp_path / "sim"


def _true_counts(sim, probe_ids):
    """True counts of the simulate output ``sim``, one column a probe:
    simulate_probe at the run's seed draws each trace again, its truth included."""
    run, _ = files.read_ensemble(sim / "ensemble.json")
    seed = files.read_manifest(sim)["seed"]
    return scenarios.true_counts(simulate_probe(run.detector, probe, seed)
                                 for probe in run.ensemble.subset(tuple(probe_ids)).probes)


@pytest.mark.parametrize("eta", [0.15, 0.3])
def test_calibrate_bright_probes_keep_their_labels(tmp_path, eta):
    # At 2e4 pulses the brightest probes (13-19 at eta = 0.15, 9-19 at
    # 0.3) keep fewer than WEIGHT_FLOOR_EVENTS zero-count events. The
    # run's one comb still labels them: their zero tooth holds no events.
    def edit(config):
        config["detector"]["eta"] = eta
        for probe in config["probes"]:
            probe["n_pulses"] = 20_000

    sim, cal = _simulate_default(tmp_path, edit), tmp_path / "cal"
    assert main(_stage_argv("calibrate", tmp_path, cal)) == 0
    table, _ = files.read_count_table(cal / "counts.json")
    assert table.probe_ids == tuple(range(20))
    truth = _true_counts(sim, table.probe_ids)
    tv = 0.5 * np.abs(table.counts - truth).sum(axis=0) / truth.sum(axis=0)
    assert tv.max() <= 0.02
    assert main(_stage_argv("estimate", tmp_path, tmp_path / "est")) == 0
    estimate, _ = files.read_estimate(tmp_path / "est" / "estimate.json")
    assert abs(estimate["eta_hat"] - eta) < 3.0 * estimate["eta_se"]


def test_n_outcomes_alone_sets_the_count_classes(tmp_path):
    # When calibration.max_peaks (16) also folded the comb, this run's
    # classes 16-19 held no events, the brightest probe put 6458 in class
    # 15 and eta_hat read 0.0954, 24 standard errors low.
    def edit(config):
        config["detector"]["eta"] = 0.1
        ensemble = tp.geometric_ensemble(n_probes=4, n_pulses=20_000)
        config["probes"] = [dataclasses.asdict(p) for p in ensemble.probes]
        config["reconstruction"]["n_outcomes"] = 20

    _simulate_default(tmp_path, edit, seed=1)
    assert main(_stage_argv("calibrate", tmp_path, tmp_path / "cal")) == 0
    table, _ = files.read_count_table(tmp_path / "cal" / "counts.json")
    assert table.n_outcomes == 20
    assert np.all(table.counts[16:, -1] > 0)
    assert main(_stage_argv("estimate", tmp_path, tmp_path / "est")) == 0
    estimate, _ = files.read_estimate(tmp_path / "est" / "estimate.json")
    assert abs(estimate["eta_hat"] - 0.1) < 5.0 * estimate["eta_se"]


def test_calibrate_no_light_probe_gets_its_dark_count_tooth(tmp_path):
    # 50-110 dark events one spacing above the zero peak are too few for
    # a trace's own peak search; the run's comb gives them their tooth.
    def edit(config):
        config["detector"]["gamma"] = 1e-3
        config["probes"].append({"id": 20, "mean_photons": 0.0, "n_pulses": 100_000})

    sim, cal = _simulate_default(tmp_path, edit, seed=1), tmp_path / "cal"
    assert main(["calibrate", "--traces", str(sim), "--out", str(cal)]) == 0
    record = json.loads((cal / "fits.json").read_text())
    (report,) = [probe for probe in record["probes"] if probe["id"] == 20]
    assert len(report["weights"]) == 2
    table, _ = files.read_count_table(cal / "counts.json")
    dark = int(_true_counts(sim, [20])[1, 0])
    counted = int(table.counts[1, table.probe_ids.index(20)])
    assert abs(counted - dark) < 4.0 * np.sqrt(dark)


@pytest.mark.parametrize("skip", [[], ["--skip-failed"]])
def test_calibrate_run_without_a_scale_exits_3(tmp_path, capsys, skip):
    # At sigma0 3.9 mV and sigma-slope 0.27 mV no trace of this bright run
    # shows two prominent peaks. Without a photon-number scale its bright
    # probes once put every event in class 0 and estimate read eta_hat 0.
    def edit(config):
        config["detector"].update(eta=0.699, gamma=0.3105, sigma0_mv=3.8754,
                                  sigma_slope_mv=0.2665)
        ensemble = tp.geometric_ensemble(n_probes=4, n_pulses=10_000)
        config["probes"] = [dataclasses.asdict(p) for p in ensemble.probes]

    _simulate_default(tmp_path, edit, seed=1280924133)
    _refused(capsys, _stage_argv("calibrate", tmp_path, tmp_path / "cal") + skip, 3,
             "no photon-number scale", tmp_path / "cal" / "counts.json")


@pytest.mark.parametrize("stage", ["calibrate", "estimate"])
def test_fit_at_its_step_cap_exits_3(pipeline, tmp_path, capsys, monkeypatch, stage):
    # Steps far too short to converge, as in the library's step-cap tests:
    # the comb fit and the (eta, gamma) fit each raise at their step cap.
    jacobian, score = calibration._CombSolve.jacobian, estimation._score

    def flat(cols, design, theta):
        loglik, grad, info = score(cols, design, theta)
        return loglik, grad, 1e6 * info

    monkeypatch.setattr(calibration._CombSolve, "jacobian", lambda self: 1e3 * jacobian(self))
    monkeypatch.setattr(estimation, "_score", flat)
    _refused(capsys, _stage_argv(stage, pipeline["sim"].parent, tmp_path / "out"), 3,
             "did not converge (100 steps)", tmp_path / "out")


@pytest.mark.parametrize("stage", ["estimate", "reconstruct"])
@pytest.mark.parametrize("row, named", [(0, "all its events in class 0"),
                                        (-1, "all its events in the top class")],
                         ids=["class_0", "top_class"])
def test_table_all_in_one_end_class_exits_3(tmp_path, capsys, stage, row, named):
    # Every event in class 0 leaves eta and gamma on their zero bound; every
    # event in the top class leaves the likelihood without a maximum.
    files.write_ensemble(tmp_path / "ensemble.json", _config())
    run, cfg_hash = files.read_ensemble(tmp_path / "ensemble.json")
    counts = np.zeros((8, 5), dtype=int)
    counts[row] = 4000
    files.write_count_table(tmp_path / "counts.json",
                            tp.CountTable.from_counts(counts, probe_ids=run.ensemble.ids),
                            cfg_hash)
    argv = _stage_argv(stage, tmp_path, tmp_path / "out", counts=tmp_path / "counts.json",
                       ensemble=tmp_path / "ensemble.json")
    _refused(capsys, argv, 3, named, tmp_path / "out")


def test_pipeline_povm_artifact(pipeline):
    povm, h, init_eta = files.read_povm(pipeline["rec"] / "povm.json")
    assert (povm.n_outcomes, povm.truncation) == (8, 50)
    assert h == files.config_hash(json.loads(pipeline["config"].read_text()))
    np.testing.assert_allclose(povm.entries.sum(axis=0), 1.0, atol=1e-9)
    estimate, _ = files.read_estimate(pipeline["est"] / "estimate.json")
    assert init_eta == estimate["eta_hat"]


def test_ensemble_json_is_the_run_config(pipeline):
    payload = json.loads((pipeline["sim"] / "ensemble.json").read_text())
    manifest = files.read_manifest(pipeline["sim"])
    config = {k: v for k, v in payload.items() if k != "config_hash"}
    assert config == _config()
    # The manifest records the run config's hash, not a second copy of it.
    assert manifest == {"config_hash": files.config_hash(config), "seed": 1}
    assert payload["config_hash"] == manifest["config_hash"]


def test_pipeline_estimate_artifact(pipeline):
    # estimate always fits efficiency and dark rate jointly.
    payload, _ = files.read_estimate(pipeline["est"] / "estimate.json")
    assert "method" not in payload
    assert abs(payload["eta_hat"] - 0.051) < 0.005
    assert 0 < payload["eta_se"] < 0.01
    assert payload["gamma_hat"] >= 0.0
    assert payload["gamma_upper"] >= payload["gamma_hat"]


def test_pipeline_fidelity_artifact(pipeline):
    # validate splits at the paper's M = 100, past this design's truncation.
    payload = json.loads((pipeline["val"] / "fidelity.json").read_text())
    assert payload["split"] == 100
    values = np.array(payload["fidelity"])
    assert values.shape == (50,)
    assert np.all((values >= 0.0) & (values <= 1.0 + 1e-12))
    assert payload["min_low"] == values[:101].min()
    assert np.isnan(payload["min_high"])


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
    assert main(_stage_argv("validate", pipeline["config"].parent, tmp_path, sweep=())) == 0
    assert (tmp_path / "fidelity.json").exists()
    assert not (tmp_path / "sweep.json").exists()


def test_validate_checks_before_it_writes(pipeline, tmp_path, capsys):
    out = tmp_path / "val"
    argv = _stage_argv("validate", pipeline["config"].parent, out, ("--energy-scale", "1.5"))
    _refused(capsys, argv, 2, "--energy-scale", out)


_MISSING = object()  # an estimate.json edit that deletes the key


@pytest.mark.parametrize("flags, estimate, named", [
    (["--energy-scale", "nan"], {}, r"--energy-scale must lie in \[0, 1\), got nan"),
    (["--energy-scale", "-0.03"], {}, r"--energy-scale must lie in \[0, 1\), got -0\.03"),
    (["--attenuation-db", "inf"], {}, r"--attenuation-db must lie in \[0, inf\), got inf"),
    (["--attenuation-db", "-0.1"], {}, r"--attenuation-db must lie in \[0, inf\), got -0\.1"),
    (["--attenuation-db", "3070"], {}, r"attenuation_db 3070 overflows 10\^\(dB / 10\)"),
    (["--attenuation-db", "4000"], {}, r"attenuation_db 4000 overflows 10\^\(dB / 10\)"),
    ([], {"eta_hat": True}, r"estimate\.json: eta_hat must be a real number, got True"),
    ([], {"eta_hat": "0.05"}, r"estimate\.json: eta_hat must be a real number, got '0\.05'"),
    ([], {"eta_hat": float("nan")}, r"estimate\.json: eta_hat must lie in \[0, 1\], got nan"),
    ([], {"gamma_hat": -0.1}, r"estimate\.json: gamma_hat must lie in \[0, inf\), got -0\.1"),
    ([], {"gamma_hat": None}, r"estimate\.json: gamma_hat must be a real number, got None"),
    ([], {"gamma_hat": _MISSING}, r"estimate\.json: missing field 'gamma_hat'"),
], ids=["energy-scale_nan", "energy-scale_-0.03", "attenuation-db_inf", "attenuation-db_-0.1",
        "attenuation-db_3070", "attenuation-db_4000", "eta_hat_true",
        "eta_hat_string", "eta_hat_NaN", "gamma_hat_-0.1", "gamma_hat_null", "gamma_hat_missing"])
def test_validate_refuses_a_bad_flag_or_estimate(pipeline, tmp_path, capsys, flags, estimate,
                                                 named):
    # Each is refused where it enters, naming the flag or the file, before
    # any report is written.
    payload = {**json.loads((pipeline["est"] / "estimate.json").read_text()), **estimate}
    payload = {k: v for k, v in payload.items() if v is not _MISSING}
    (tmp_path / "estimate.json").write_text(json.dumps(payload))
    out = tmp_path / "val"
    argv = _stage_argv("validate", pipeline["config"].parent, out, flags,
                       estimate=tmp_path / "estimate.json")
    assert main(argv) == 2
    assert re.search(named, capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("init_eta", [None, _MISSING], ids=["null", "missing"])
def test_validate_refuses_a_povm_without_its_start(pipeline, tmp_path, capsys, init_eta):
    # Every solve starts from the fitted efficiency, so povm.json records it.
    payload = json.loads((pipeline["rec"] / "povm.json").read_text())
    payload["init_eta"] = init_eta
    path = tmp_path / "povm.json"
    files.write_json(path, {k: v for k, v in payload.items() if v is not _MISSING})
    out = tmp_path / "val"
    argv = _stage_argv("validate", pipeline["config"].parent, out, (), povm=path)
    _refused(capsys, argv, 2, f"error: {path}: ", out)


@pytest.mark.parametrize("stage, flag", [
    ("calibrate", ["--method", "area"]), ("estimate", ["--dark-counts"]),
    ("validate", ["--split", "20"]),
])
def test_removed_route_flags_exit_2(pipeline, tmp_path, capsys, stage, flag):
    # Each stage has one route: tooth-weight counts, the (eta, gamma) fit,
    # the fidelity summary split at the paper's M = 100.
    with pytest.raises(SystemExit) as exit_info:
        main(_stage_argv(stage, pipeline["config"].parent, tmp_path / stage) + flag)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / stage).exists()


def test_validate_scores_the_fitted_dark_count_model(tmp_path):
    # On this run, scored against the eta-only model Poisson(eta_hat * mu),
    # the worst tv_linear is 0.133: a linear detector would read as nonlinear.
    config = files.default_config()
    config["detector"]["gamma"] = 0.2
    _run_pipeline(tmp_path, config, jobs=2, seed=7, sweep=())
    estimate, _ = files.read_estimate(tmp_path / "est/estimate.json")
    assert abs(estimate["gamma_hat"] - 0.2) < 0.01
    comparison = json.loads((tmp_path / "val/comparison.json").read_text())
    assert max(p["tv_linear"] for p in comparison["probes"]) <= 0.01


@pytest.mark.parametrize("stage", ["estimate", "reconstruct"])
@pytest.mark.parametrize("mu", [0.0, 8.0])
def test_single_mu_design_exits_3(tmp_path, capsys, stage, mu):
    # One mean photon number identifies only eta * mu + gamma, so neither
    # the estimate nor the solver's start exists.
    config = {"probes": [{"id": i, "mean_photons": mu} for i in range(3)],
              "reconstruction": {"n_outcomes": 3, "truncation": 6}}
    files.write_ensemble(tmp_path / "ensemble.json", config)
    table = tp.CountTable.from_counts(np.array([[50, 40, 45], [30, 35, 30], [20, 25, 25]]),
                                      probe_ids=(0, 1, 2))
    files.write_count_table(tmp_path / "counts.json", table, files.config_hash(config))
    argv = _stage_argv(stage, tmp_path, tmp_path / "out", counts=tmp_path / "counts.json",
                       ensemble=tmp_path / "ensemble.json")
    _refused(capsys, argv, 3, "distinct mean photon numbers", tmp_path / "out")


def test_missing_counts_exits_2(pipeline, tmp_path, capsys):
    argv = _stage_argv("reconstruct", pipeline["config"].parent, tmp_path,
                       counts=tmp_path / "nope.json")
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"probes": []}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")])
    assert rc == 2
    assert "nonempty" in capsys.readouterr().err


@pytest.mark.parametrize("path, value, named", [
    (("reconstuction",), {"truncation": 50},
     r"config: unknown top-level keys \['reconstuction'\]"),
    (("detector", "sigma_0_mv"), 3.0, r"config: detector: .*'sigma_0_mv'"),
    (("probes", 0, "n_pulse"), 3000, r"config: probes\[0\]: .*'n_pulse'"),
    (("calibration", "bin_width"), 1.0, r"config: calibration: .*'bin_width'"),
    (("reconstruction", "reg_wieght"), 1e-3, r"config: reconstruction: .*'reg_wieght'"),
    (("reconstruction", "init_eta"), 0.05, r"config: reconstruction: init_eta is not"),
    (("reconstruction", "truncation"), 20.5,
     r"config: reconstruction: truncation must be an integer, got 20\.5"),
    (("probes", 2, "id"), 2.5, r"config: probes\[2\]: id must be an integer, got 2\.5"),
    (("probes", 0, "n_pulses"), 3000.5, r"config: probes\[0\]: n_pulses must be an integer"),
    (("reconstruction", "truncation"), -1,
     r"config: reconstruction: truncation must lie in \[1, inf\), got -1"),
    (("calibration", "max_peaks"), 10.5, r"config: calibration: .*'max_peaks'"),
    # A value the key once took is refused too: fit_run takes no fold.
    (("calibration", "max_peaks"), 12, r"config: calibration: .*'max_peaks'"),
    # JSON's NaN and Infinity are numbers but not finite; true, "0" and null are not numbers.
    (("detector", "baseline_mv"), float("nan"),
     r"config: detector: baseline_mv must lie in \(-inf, inf\), got nan"),
    (("detector", "peak_spacing_mv"), float("inf"),
     r"config: detector: peak_spacing_mv must lie in \(0, inf\), got inf"),
    (("detector", "sigma_slope_mv"), float("-inf"),
     r"config: detector: sigma_slope_mv must lie in \[0, inf\), got -inf"),
    (("detector", "sigma0_mv"), float("nan"),
     r"config: detector: sigma0_mv must lie in \(0, inf\), got nan"),
    (("calibration", "bin_width_mv"), float("nan"),
     r"config: calibration: bin_width_mv must lie in \(0, inf\), got nan"),
    (("reconstruction", "reg_weight"), float("inf"),
     r"config: reconstruction: reg_weight must lie in \[0, inf\), got inf"),
    # The solve tolerance is the solver's constant, not a config key, so
    # its old default is refused too.
    (("reconstruction", "tol"), float("-inf"), r"config: reconstruction: .*'tol'"),
    (("reconstruction", "tol"), 1e-8, r"config: reconstruction: .*'tol'"),
    # So is the iteration cap, at its old default and at a non-number.
    (("reconstruction", "max_iters"), 200_000, r"config: reconstruction: .*'max_iters'"),
    (("reconstruction", "max_iters"), True, r"config: reconstruction: .*'max_iters'"),
    (("probes", 1, "attenuation_db"), float("nan"), r"config: probes\[1\]: .*'attenuation_db'"),
    (("probes", 1, "attenuation_db"), 70.0, r"config: probes\[1\]: .*'attenuation_db'"),
    (("detector", "eta"), True, r"config: detector: eta must be a real number, got True"),
    (("probes", 0, "n_pulses"), True,
     r"config: probes\[0\]: n_pulses must be an integer, got True"),
    (("detector", "baseline_mv"), "0",
     r"config: detector: baseline_mv must be a real number, got '0'"),
    (("detector", "baseline_mv"), None,
     r"config: detector: baseline_mv must be a real number, got None"),
    # A JSON integer too large for a float is not a finite number either.
    (("detector", "baseline_mv"), 10**400,
     r"config: detector: baseline_mv must lie in \(-inf, inf\), got 10{400}$"),
], ids=["reconstuction", "sigma_0_mv", "n_pulse", "bin_width", "reg_wieght", "init_eta",
        "truncation_20.5", "id_2.5", "n_pulses_3000.5", "truncation_-1", "max_peaks_10.5",
        "max_peaks_12", "baseline_mv_NaN", "peak_spacing_mv_Infinity", "sigma_slope_mv_-Infinity",
        "sigma0_mv_NaN", "bin_width_mv_NaN", "reg_weight_Infinity", "tol_-Infinity",
        "tol_1e-8", "max_iters_200000", "max_iters_true",
        "attenuation_db_NaN", "attenuation_db_70", "eta_true", "n_pulses_true", "baseline_mv_string", "baseline_mv_null",
        "baseline_mv_10^400"])
def test_bad_config_exits_2_before_a_trace(tmp_path, capsys, path, value, named):
    """A key that no section's type takes, a key that no stage reads and a
    mistyped or out-of-range value each stop simulate before it writes."""
    config = _config()
    *parents, last = path
    node = config
    for k in parents:
        node = node[k]
    node[last] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert re.search(named, capsys.readouterr().err)
    assert not out.exists()


def test_simulate_takes_a_saturation_count_past_int64(tmp_path):
    # Any integer a float can hold is a valid cap; one no count reaches
    # leaves every trace as it is without saturation.
    config = _config()
    config["detector"]["saturation_count"] = 10**30
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "config.json"), "--seed", "3",
                 "--out", str(tmp_path / "sim")]) == 0
    run = files.parse_config(_config())
    for trace in tp.simulate_ensemble(run.detector, run.ensemble, 3):
        amps = np.load(tmp_path / "sim" / files.trace_filename(trace.probe_id))
        assert np.array_equal(amps, trace.amplitudes_mv)


@pytest.mark.parametrize("stage, flags, named", [
    ("simulate", ["--seed", "-1"], r"--seed must lie in \[0, 18446744073709551616\), got -1"),
    ("simulate", ["--seed", str(2**64)], r"--seed must lie in .*, got 18446744073709551616"),
    ("simulate", ["--jobs", "0"], r"--jobs must lie in \[1, inf\), got 0"),
    ("simulate", ["--jobs", "-2"], r"--jobs must lie in \[1, inf\), got -2"),
    ("calibrate", ["--jobs", "0"], r"--jobs must lie in \[1, inf\), got 0"),
], ids=["seed_-1", "seed_2^64", "simulate_jobs_0", "simulate_jobs_-2", "calibrate_jobs_0"])
def test_bad_seed_or_jobs_exits_2_before_writing(pipeline, tmp_path, capsys, stage, flags,
                                                 named):
    out = tmp_path / "out"
    inputs = ["--traces", str(pipeline["sim"])] if stage == "calibrate" else []
    assert main([stage, *inputs, *flags, "--out", str(out)]) == 2
    assert re.search(named, capsys.readouterr().err)
    assert not out.exists()


def _fresh_interpreter(code, *args):
    """The last line ``code`` prints in a new interpreter, given ``args``."""
    src = Path(tp.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout.splitlines()[-1]


_BLOCK_SCIPY = (
    "import sys\n"
    "asked = []\n"
    "class NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.partition('.')[0] == 'scipy':\n"
    "            asked.append(name)\n"
    "            raise ModuleNotFoundError(f'{name} is blocked', name=name)\n"
    "sys.meta_path.insert(0, NoScipy())\n"
)


def test_five_stages_run_where_scipy_cannot_load(tmp_path):
    # numpy is the one runtime dependency: no import, flag check or stage
    # asks for scipy, so none pays for loading it.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_config()))
    sim = str(tmp_path / "sim")
    argvs = [["--help"],
             ["calibrate", "--traces", sim, "--jobs", "0", "--out", str(tmp_path / "cal")],
             ["simulate", "--config", str(cfg), "--seed", "1", "--out", sim]]
    argvs += [_stage_argv(stage, tmp_path, tmp_path / out) for stage, out in
              (("calibrate", "cal"), ("reconstruct", "rec"), ("estimate", "est"),
               ("validate", "val"))]
    code = _BLOCK_SCIPY + (
        "import json\n"
        "import tespovm, tespovm.cli\n"
        "def run(argv):\n"
        "    try:\n"
        "        return tespovm.cli.main(argv)\n"
        "    except SystemExit as exc:\n"
        "        return exc.code\n"
        "codes = [run(argv) for argv in json.loads(sys.argv[1])]\n"
        "record = asked[:]\n"
        "try:\n"
        "    import scipy\n"
        "except ModuleNotFoundError:\n"
        "    print(json.dumps([codes, record]))\n")
    codes, record = json.loads(_fresh_interpreter(code, json.dumps(argvs)))
    assert codes == [0, 2, 0, 0, 0, 0, 0]
    assert record == []
    assert (tmp_path / "val" / "sweep.json").exists()


def _main_peak_memory(argv):
    """``main(argv)``'s exit code and the peak memory traced while it ran."""
    tracemalloc.start()
    try:
        return main(argv), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unaffordable_runs_are_refused_in_small_memory(tmp_path, capsys):
    # A probe of mean count 2.04e5 would ask simulate for a Poisson CDF
    # table of 2e5 entries, and a bin width of 1e-12 mV calibrate for
    # about 1e14 histogram bins; each is refused before it allocates.
    config = _config()
    config["probes"][2]["mean_photons"] = 4e6
    (tmp_path / "bright.json").write_text(json.dumps(config))
    code, peak = _main_peak_memory(["simulate", "--config", str(tmp_path / "bright.json"),
                                    "--out", str(tmp_path / "bright")])
    assert code == 2 and peak < 1_000_000
    assert re.search(r"probes\[2\]: probe 2 has a mean count .* of 204000, above 100000",
                     capsys.readouterr().err)
    assert not (tmp_path / "bright").exists()

    config = _config()
    config["calibration"]["bin_width_mv"] = 1e-12
    (tmp_path / "fine.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "fine.json"),
                 "--out", str(tmp_path / "sim")]) == 0
    capsys.readouterr()
    code, peak = _main_peak_memory(["calibrate", "--traces", str(tmp_path / "sim"),
                                    "--out", str(tmp_path / "cal")])
    assert code == 2 and peak < 1_000_000
    assert re.search(r"calibration\.bin_width_mv 1e-12 .* more than 65536 bins",
                     capsys.readouterr().err)
    assert not (tmp_path / "cal").exists()


def test_outcome_mismatch_exits_2(pipeline, tmp_path, capsys):
    # The pipeline reconstructed with no config flag, in the run config's
    # 8 outcomes and truncation 50, which ensemble.json alone records.
    payload = json.loads((pipeline["rec"] / "povm.json").read_text())
    assert np.asarray(payload["entries"]).shape == (8, 50)
    run, _ = files.read_ensemble(pipeline["sim"] / "ensemble.json")
    assert run.reconstruction.reg_weight == tp.ReconstructionConfig().reg_weight
    assert not {"reg_weight", "max_iters", "tol"} & set(payload)

    # A run config of 12 outcomes, mixed in by --force, disagrees with the
    # 8-outcome table.
    config = _config()
    config["reconstruction"]["n_outcomes"] = 12
    files.write_ensemble(tmp_path / "ensemble.json", config)
    argv = _stage_argv("reconstruct", pipeline["config"].parent, tmp_path,
                       ensemble=tmp_path / "ensemble.json")
    _refused(capsys, argv + ["--force"], 2, "outcomes", tmp_path / "povm.json")


@pytest.mark.parametrize("max_iters", [50, 200_000])
def test_reconstruct_reports_its_certificate(tmp_path, capsys, max_iters):
    # Exact probabilities have no noise floor, so only the certificate
    # stops the solve; a cap of 50 steps does not reach it, the default does.
    mus = (0.3, 1.0, 2.5, 5.0)
    config = {"probes": [{"id": i, "mean_photons": m} for i, m in enumerate(mus)],
              "reconstruction": {"truncation": 4, "n_outcomes": 4}}
    files.write_ensemble(tmp_path / "ensemble.json", config)
    run, cfg_hash = files.read_ensemble(tmp_path / "ensemble.json")
    ensemble = run.ensemble
    q, _ = tp.probe_q_matrix(ensemble, 4)
    table = tp.CountTable.from_probs(tp.binomial_povm(0.6, 4, 4).entries @ q,
                                     probe_ids=ensemble.ids)
    files.write_count_table(tmp_path / "counts.json", table, cfg_hash)
    with _max_iters(max_iters):
        assert main(["reconstruct", "--counts", str(tmp_path / "counts.json"),
                     "--ensemble", str(tmp_path / "ensemble.json"),
                     "--out", str(tmp_path / "rec")]) == 0
    printed = capsys.readouterr()
    povm = json.loads((tmp_path / "rec" / "povm.json").read_text())
    certificate = (f"gradient-mapping norm {povm['gradient_mapping_norm']:.3e}, "
                   f"tol {TOL:g}")
    capped = max_iters == 50
    assert certificate in printed.out
    assert povm["converged"] == (not capped)
    assert (f"hit tomography.MAX_ITERS, 50 iterations ({certificate})" in printed.err) == capped
    assert (povm["gradient_mapping_norm"] <= TOL) == (not capped)


def test_sweep_baseline_is_the_reported_povm(tmp_path):
    # With dark counts reconstruct starts from the (eta, gamma) fit's eta,
    # as estimate reports it, and the sweep solves as reconstruct did.
    run = _run_pipeline(tmp_path, _config(gamma=0.2))
    povm = json.loads((run["rec"] / "povm.json").read_text())
    estimate = json.loads((run["est"] / "estimate.json").read_text())
    assert abs(estimate["gamma_hat"] - 0.2) < 0.05
    assert povm["init_eta"] == estimate["eta_hat"]
    fidelity = json.loads((run["val"] / "fidelity.json").read_text())
    sweep = json.loads((run["val"] / "sweep.json").read_text())
    baseline = next(pt for pt in sweep["points"] if pt["label"] == "baseline")
    assert baseline["fidelities"] == fidelity["fidelity"]


def test_lineage_mismatch_exits_4(pipeline, tmp_path, capsys):
    # A count table of another run: both files are named, --force mixes them.
    table, _ = files.read_count_table(pipeline["cal"] / "counts.json")
    other = tmp_path / "counts.json"
    files.write_count_table(other, table, "deadbeef")
    ensemble = pipeline["sim"] / "ensemble.json"
    argv = _stage_argv("estimate", pipeline["config"].parent, tmp_path / "est", counts=other)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert f"{other} has config deadbeef" in err and str(ensemble) in err
    assert "--force" in err
    assert not (tmp_path / "est").exists()
    assert main(argv + ["--force"]) == 0
    assert (tmp_path / "est" / "estimate.json").exists()


def test_ensemble_hash_of_another_config_exits_2_even_forced(pipeline, tmp_path, capsys):
    # A hash that is not the hash of the config beside it marks the file
    # corrupt, not a mix of runs, so --force does not pass it.
    payload = json.loads((pipeline["sim"] / "ensemble.json").read_text())
    payload["reconstruction"]["reg_weight"] = 1e-3
    tampered = tmp_path / "ensemble.json"
    tampered.write_text(json.dumps(payload))
    argv = _stage_argv("reconstruct", pipeline["config"].parent, tmp_path / "rec",
                       ensemble=tampered)
    for flags in ([], ["--force"]):
        assert main(argv + flags) == 2
        assert f"{tampered}: config_hash" in capsys.readouterr().err
    assert not (tmp_path / "rec").exists()


def test_calibrate_short_trace_exits_3_unless_skipped(pipeline, tmp_path, capsys):
    sim = _copy_sim(pipeline, tmp_path)
    np.save(sim / files.trace_filename(2), np.full(50, 0.25))

    argv = _stage_argv("calibrate", tmp_path, tmp_path / "cal")
    assert main(argv) == 3
    assert "need at least 100" in capsys.readouterr().err

    assert main(argv + ["--skip-failed"]) == 0
    payload = json.loads((tmp_path / "cal" / "counts.json").read_text())
    assert payload["skipped_probe_ids"] == [2]
    table, _ = files.read_count_table(tmp_path / "cal" / "counts.json")
    assert table.probe_ids == (0, 1, 3, 4)
    record = json.loads((tmp_path / "cal" / "fits.json").read_text())
    assert [probe["id"] for probe in record["probes"]] == [0, 1, 3, 4]


def test_chain_is_bitwise_the_same_for_any_jobs(tmp_path):
    # Every artifact is a function of the run config and the seed alone:
    # --jobs spreads simulate's and calibrate's work, never changes a byte.
    written = []
    for jobs in (1, 2):
        root = tmp_path / str(jobs)
        root.mkdir()
        _run_pipeline(root, _config(), jobs=jobs)
        written.append({path.relative_to(root): path.read_bytes()
                        for stage in ("sim", "cal", "rec", "est", "val")
                        for path in sorted((root / stage).rglob("*")) if path.is_file()})
    assert sorted(written[0]) == sorted(written[1])
    assert len([p for p in written[0] if p.name.startswith("trace_probe_")]) == 5
    assert Path("val/sweep.json") in written[0]
    for path, data in written[0].items():
        assert data == written[1][path], path


def _default_run(root, seed, **detector):
    """The five stages on the built-in default design (20 probes of 1e5 pulses,
    eta 0.051), with ``detector`` fields replaced, as the benchmark runs them."""
    config = files.default_config()
    config["detector"].update(detector)
    return _run_pipeline(root, config, jobs=2, seed=seed, sweep=_DEFAULT_SWEEP)


@pytest.mark.parametrize("seed", range(1, 11))
def test_cli_route_meets_the_acceptance_floors(tmp_path, seed):
    # Criterion 1's fidelity floor and criterion 2's efficiency bound.
    run = _default_run(tmp_path, seed)
    assert json.loads((run["val"] / "fidelity.json").read_text())["min_low"] >= 0.99
    estimate, _ = files.read_estimate(run["est"] / "estimate.json")
    assert abs(estimate["eta_hat"] - 0.051) <= 0.002
    # Against the truth the report scores 0.99993-0.99998 at these seeds: eta_hat
    # lies within 5.03e-5 of 0.051, and the solve stops at the noise floor 1-3 steps
    # from binomial_povm(eta_hat), so the report is that start, nudged (ROADMAP item 1).
    povm, _, _ = files.read_povm(run["rec"] / "povm.json")
    assert povm.entries.shape == (12, 140)
    assert scenarios.fidelity_to_truth(povm, 0.051) >= 0.999


@pytest.mark.parametrize("seed", range(1, 6))
def test_cli_route_meets_the_dark_count_floor(tmp_path, seed):
    # Criterion 3: an injected dark-count rate of 0.2 is found within 3 se,
    # and criterion 2 still holds.
    estimate, _ = files.read_estimate(_default_run(tmp_path, seed, gamma=0.2)["est"]
                                      / "estimate.json")
    assert abs(estimate["gamma_hat"] - 0.2) <= 3.0 * estimate["gamma_se"]
    assert abs(estimate["eta_hat"] - 0.051) <= 0.002


def test_cli_route_flags_a_saturating_detector(tmp_path):
    # Criterion 8: a detector that counts at most 3 photons is no linear
    # detector, and validate's fidelity to the fitted one falls below 0.99.
    run = _default_run(tmp_path, 1, saturation_count=3)
    assert json.loads((run["val"] / "fidelity.json").read_text())["min_low"] < 0.99


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_writes_the_ensembles_traces(tmp_path, jobs):
    # simulate draws and writes each probe on its --jobs threads; the files
    # hold simulate_ensemble's amplitudes at the same seed.
    (tmp_path / "config.json").write_text(json.dumps(_config()))
    assert main(["simulate", "--config", str(tmp_path / "config.json"), "--seed", "3",
                 "--out", str(tmp_path / "sim"), "--jobs", jobs]) == 0
    run = files.parse_config(_config())
    traces = tp.simulate_ensemble(run.detector, run.ensemble, 3)
    for trace in traces:
        amps = np.load(tmp_path / "sim" / files.trace_filename(trace.probe_id))
        assert amps.dtype == np.float64
        assert np.array_equal(amps, trace.amplitudes_mv)


@pytest.mark.parametrize("jobs", [1, 2])
def test_calibrate_holds_about_jobs_traces(pipeline, tmp_path, monkeypatch, jobs):
    # Each of the --jobs threads keeps only the histogram of the trace it
    # read: at each read no more than --jobs are alive.
    read, alive = files.read_trace_csv, []

    def tracked(*args, **kwargs):
        trace = read(*args, **kwargs)
        alive.append(weakref.ref(trace))
        assert sum(ref() is not None for ref in alive) <= jobs
        return trace

    monkeypatch.setattr(files, "read_trace_csv", tracked)
    assert main(["calibrate", "--traces", str(pipeline["sim"]), "--out", str(tmp_path / "cal"),
                 "--jobs", str(jobs)]) == 0
    assert len(alive) == 5
    assert ((tmp_path / "cal" / "counts.json").read_bytes()
            == (pipeline["cal"] / "counts.json").read_bytes())


def _copy_sim(pipeline, tmp_path, edit=None):
    """A copy of the pipeline's simulate output, edited by ``edit(sim, config)``.

    ``config`` is the run config; edits to it are written back through
    :func:`files.write_ensemble`.
    """
    sim = tmp_path / "sim"
    shutil.copytree(pipeline["sim"], sim)
    if edit is not None:
        config = _config()
        edit(sim, config)
        files.write_ensemble(sim / "ensemble.json", config)
    return sim


def _relabel_probe(sim, config):
    """The run config names probe 2 as probe 25, which has no trace file."""
    config["probes"][2]["id"] = 25


def _repeat_probe_id(sim, config):
    config["probes"][3]["id"] = 1


def _delete_trace(sim, config):
    (sim / files.trace_filename(2)).unlink()


def _to_csv_era(sim, config):
    """Overwrite probe 0's trace with the one-column CSV that earlier versions wrote."""
    path = sim / files.trace_filename(0)
    amps = np.load(path, allow_pickle=False)
    lines = ["amplitude_mv"] + [repr(float(a)) for a in amps]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("edit, match", [
    pytest.param(_relabel_probe, "trace_probe_025.npy: cannot read", id="no-file"),
    pytest.param(_repeat_probe_id, "probe ids must be unique", id="repeated-id"),
    pytest.param(_delete_trace, "trace_probe_002.npy: cannot read", id="no-trace"),
    pytest.param(_to_csv_era, "trace_probe_000.npy: not a .npy file", id="csv-era"),
])
def test_calibrate_bad_trace_input_exits_2(pipeline, tmp_path, capsys, jobs, edit, match):
    _copy_sim(pipeline, tmp_path, edit)
    argv = _stage_argv("calibrate", tmp_path, tmp_path / "cal") + ["--jobs", jobs]
    _refused(capsys, argv, 2, match, tmp_path / "cal")


def test_measured_traces_enter_the_chain(tmp_path):
    # Measured data is trace files and a design: no manifest and no
    # detector section. From calibrate on, it runs as the simulated run it
    # came from, and only the config hash tells them apart.
    def outputs(root):
        """The config hashes calibrate to validate record, and each file
        they write, a JSON file without its hash."""
        hashes, written = set(), {}
        for stage, out in (("calibrate", "cal"), ("reconstruct", "rec"),
                           ("estimate", "est"), ("validate", "val")):
            assert main(_stage_argv(stage, root, root / out)) == 0, stage
            for path in sorted((root / out).iterdir()):
                content = path.read_bytes()
                if path.suffix == ".json":
                    content = json.loads(content)
                    hashes.add(content.pop("config_hash"))
                written[path.relative_to(root)] = content
        return hashes, written

    simulated, measured = tmp_path / "simulated", tmp_path / "measured"
    assert main(["simulate", "--seed", "7", "--out", str(simulated / "sim")]) == 0
    config = files.default_config()
    del config["detector"]
    (measured / "sim").mkdir(parents=True)
    for probe in config["probes"]:
        shutil.copy(simulated / "sim" / files.trace_filename(probe["id"]), measured / "sim")
    files.write_ensemble(measured / "sim" / "ensemble.json", config)

    (expected_hash,), expected = outputs(simulated)
    (measured_hash,), written = outputs(measured)
    assert measured_hash == files.config_hash(config) != expected_hash
    assert len(written) == 8
    assert written == expected


def _bright_measured(pipeline, measured):
    """The pipeline's traces under ``measured``, beside a design without a
    detector section whose probe 3 has 3e6 mean photons; returns the design."""
    config = _config()
    del config["detector"]
    config["probes"][3]["mean_photons"] = 3e6
    measured.mkdir()
    for probe in config["probes"]:
        shutil.copy(pipeline["sim"] / files.trace_filename(probe["id"]), measured)
    files.write_ensemble(measured / "ensemble.json", config)
    return config


def test_only_simulate_bounds_the_mean_count(pipeline, tmp_path, capsys):
    # A measured design's mean photon numbers meet no detector: calibrate
    # counts its traces, although the default detector could not simulate
    # probe 3 (eta * mu = 153000).
    measured = tmp_path / "measured"
    config = _bright_measured(pipeline, measured)
    assert main(["calibrate", "--traces", str(measured), "--out", str(tmp_path / "cal")]) == 0
    table, _ = files.read_count_table(tmp_path / "cal" / "counts.json")
    expected, _ = files.read_count_table(pipeline["cal"] / "counts.json")
    assert np.array_equal(table.counts, expected.counts)
    capsys.readouterr()

    (tmp_path / "bright.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "bright.json"),
                 "--out", str(tmp_path / "sim")]) == 2
    assert re.search(r"probes\[3\]: probe 3 has a mean count .* of 153000, above 100000",
                     capsys.readouterr().err)
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("stage, out", [("reconstruct", "rec/povm.json"),
                                        ("estimate", "est/estimate.json"),
                                        ("validate", "val/sweep.json")],
                         ids=["reconstruct", "estimate", "validate"])
def test_later_stages_take_a_design_past_the_mean_count(pipeline, tmp_path, stage, out):
    # Each stage reads the measured design through read_ensemble, which no
    # longer bounds eta * mu + gamma, and runs to the end on it.
    _bright_measured(pipeline, tmp_path / "sim")
    for before, out_dir in (("calibrate", "cal"), ("reconstruct", "rec"),
                            ("estimate", "est"), ("validate", "val")):
        assert main(_stage_argv(before, tmp_path, tmp_path / out_dir)) == 0
        if before == stage:
            break
    assert (tmp_path / out).is_file()


@pytest.mark.parametrize("stage", ["reconstruct", "estimate", "validate"])
def test_counts_naming_unknown_probe_exits_2(pipeline, tmp_path, capsys, stage):
    # Columns pair with the run config's probes by id; the config has no probe 25.
    payload = json.loads((pipeline["cal"] / "counts.json").read_text())
    payload["probe_ids"][2] = 25
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(payload))
    out = tmp_path / stage
    _refused(capsys, _stage_argv(stage, pipeline["config"].parent, out, (), counts=counts), 2,
             f"{counts}: the ensemble has no probes with probe ids [25]", out)


def test_skipped_probes_pair_by_id(pipeline, tmp_path):
    # A table without probe 2 pairs its columns with probes 0, 1, 3 and 4
    # of the full run config, in every stage after calibrate.
    table, cfg_hash = files.read_count_table(pipeline["cal"] / "counts.json")
    keep = [0, 1, 3, 4]
    sub = tp.CountTable.from_counts(table.counts[:, keep], probe_ids=tuple(keep))
    counts = tmp_path / "counts.json"
    files.write_count_table(counts, sub, cfg_hash, skipped_probe_ids=[2])
    for stage, out in (("estimate", "est"), ("reconstruct", "rec"), ("validate", "val")):
        assert main(_stage_argv(stage, tmp_path, tmp_path / out, counts=counts,
                                ensemble=pipeline["sim"] / "ensemble.json")) == 0
    rows = json.loads((tmp_path / "val" / "comparison.json").read_text())["probes"]
    mus = np.geomspace(2.0, 40.0, 5)
    assert [(r["probe_id"], r["mean_photons"]) for r in rows] == [
        (i, float(mus[i])) for i in keep]


_READERS = {
    "manifest": [],  # no stage reads it
    "ensemble": ["calibrate", "reconstruct", "estimate", "validate"],
    "counts": ["reconstruct", "estimate", "validate"],
    "povm": ["validate"],
    "estimate": ["validate"],
}
_RUN_CONFIG_FIELDS = [
    ("reconstruction", "reg_weight"), ("reconstruction", "truncation"),
    ("calibration", "bin_width_mv"), ("detector", "eta"), ("probes", 2, "mean_photons"),
]
_TAMPERS = st.one_of(
    st.tuples(st.just("ensemble"), st.sampled_from(_RUN_CONFIG_FIELDS),
              st.one_of(st.integers(0, 10**5), st.floats(0.0, 50.0))),
    st.tuples(st.just("counts"),
              st.tuples(st.just("counts"), st.integers(0, 7), st.integers(0, 4)),
              st.integers(-3, 5000)),
    st.tuples(st.just("counts"), st.tuples(st.just("probe_ids"), st.integers(0, 4)),
              st.integers(0, 30)),
    st.tuples(st.sampled_from(sorted(_ARTIFACTS)), st.just(("config_hash",)),
              st.text("0123456789abcdef", min_size=16, max_size=16)),
)


def _run_stage(stage, run, out):
    """Exit code, stderr and the files written under ``out`` (None: no ``out``)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(_stage_argv(stage, run, out))
    written = None
    if out.exists():
        written = {p.relative_to(out): p.read_bytes()
                   for p in sorted(out.rglob("*")) if p.is_file()}
    return code, err.getvalue(), written


def _write_honest_counts(payload, path) -> bool:
    """Write ``payload`` through the ``files`` writers, if they can hold it."""
    try:
        table = tp.CountTable.from_counts(np.asarray(payload["counts"]),
                                          probe_ids=payload["probe_ids"])
    except ValueError:
        return False
    files.write_count_table(path, table, payload["config_hash"], payload["skipped_probe_ids"])
    return True


@pytest.fixture(scope="module")
def tamper_run(tmp_path_factory):
    """The small design, its solves capped as the property's are."""
    with _max_iters(2000):
        return _run_pipeline(tmp_path_factory.mktemp("tamper"), _config())


@settings(max_examples=25)
@given(tamper=_TAMPERS)
# Edits that a table storing probabilities beside its counts, or a run
# config whose hash goes unchecked, would let through silently.
@example(tamper=("counts", ("counts", 5, 2), 700))
@example(tamper=("ensemble", ("reconstruction", "reg_weight"), 1e-3))
def test_tampered_artifact_fails_loudly_or_reads_as_honest(tamper_run, tamper):
    """One field of one artifact is changed. Each stage that reads it either
    exits 2 or 4 naming the file and writes nothing, or writes exactly what
    it writes from an honest artifact holding that value. Solves stop at
    2000 steps: a tampered table may keep the solver from its noise floor,
    and the property checks what the stages read, not how far they solve."""
    artifact, key, value = tamper
    with tempfile.TemporaryDirectory() as tmp:
        tampered, honest = Path(tmp) / "tampered", Path(tmp) / "honest"
        for run in (tampered, honest):
            for name in ("sim", "cal", "rec", "est"):
                shutil.copytree(tamper_run[name], run / name)
        path = tampered / _ARTIFACTS[artifact]
        payload = json.loads(path.read_text())
        *parents, last = key
        node = payload
        for k in parents:
            node = node[k]
        # A run-config section may lack the field; the edit then adds it.
        assume((node[last] if isinstance(node, list) else node.get(last)) != value)
        node[last] = value
        path.write_text(json.dumps(payload))
        has_honest = (artifact == "counts"
                      and _write_honest_counts(payload, honest / _ARTIFACTS["counts"]))

        with _max_iters(2000):
            for stage in _READERS[artifact]:
                code, err, written = _run_stage(stage, tampered, Path(tmp) / "out" / stage)
                if code in (2, 4) and str(path) in err and written is None:
                    continue
                assert has_honest, (stage, code, err)
                honest_code, _, honest_written = _run_stage(
                    stage, honest, Path(tmp) / "honest_out" / stage)
                assert (code, written) == (honest_code, honest_written), stage


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_calibrate_nonfinite_trace_exits_2_unless_skipped(pipeline, tmp_path, capsys,
                                                          jobs):
    sim = _copy_sim(pipeline, tmp_path)
    amps = np.load(sim / files.trace_filename(2))
    amps[10] = np.nan
    np.save(sim / files.trace_filename(2), amps)
    argv = _stage_argv("calibrate", tmp_path, tmp_path / "cal") + ["--jobs", jobs]

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


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert "min fidelity (m <= 100)" in capsys.readouterr().out
