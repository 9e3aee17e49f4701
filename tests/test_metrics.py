"""Tests for fidelity curves, model comparison and the sensitivity sweep."""

import math

import numpy as np
import pytest

import tespovm as tp


def _exact_table(ensemble, povm):
    q, _ = tp.probe_q_matrix(ensemble, povm.truncation)
    return tp.CountTable.from_probs(povm.entries @ q, probe_ids=ensemble.ids)


def test_fidelity_curve_identical_matrices():
    povm = tp.binomial_povm(0.051, 12, 140)
    curve = tp.fidelity_curve(povm, povm, split=100)
    assert curve.values.shape == (140,)
    assert np.allclose(curve.values, 1.0, atol=1e-12)
    assert curve.min_low == pytest.approx(1.0)
    assert curve.min_high == pytest.approx(1.0)
    assert curve.split == 100


def test_fidelity_curve_split_semantics():
    povm = tp.binomial_povm(0.3, 6, 10)
    other = tp.binomial_povm(0.4, 6, 10)
    curve = tp.fidelity_curve(povm, other, split=4)
    assert math.isclose(curve.min_low, curve.values[:5].min())
    assert math.isclose(curve.min_high, curve.values[5:].min())
    empty_high = tp.fidelity_curve(povm, other, split=9)
    assert math.isnan(empty_high.min_high)
    assert math.isclose(empty_high.min_low, curve.values.min())


def test_fidelity_curve_split_must_be_nonnegative_integer():
    povm = tp.binomial_povm(0.3, 6, 10)
    with pytest.raises(ValueError, match=r"split must lie in \[0, inf\), got -5"):
        tp.fidelity_curve(povm, povm, split=-5)
    with pytest.raises(TypeError, match="split must be an integer"):
        tp.fidelity_curve(povm, povm, split=4.5)


def test_fidelity_curve_detects_disagreement():
    a = tp.binomial_povm(0.5, 12, 40)
    b = tp.binomial_povm(0.6, 12, 40)
    curve = tp.fidelity_curve(a, b, split=20)
    # Zero photons look identical; every other column differs.
    assert curve.values[0] == pytest.approx(1.0)
    assert np.all(curve.values[1:] < 1.0)
    assert np.all(np.diff(curve.values[1:12]) < 0)
    # Orthogonal columns: a perfect and a blind detector at m = 1.
    perfect, blind = tp.binomial_povm(1.0, 12, 40), tp.binomial_povm(0.0, 12, 40)
    assert tp.fidelity_curve(perfect, blind).values[1] == 0.0


def test_fidelity_curve_shape_mismatch():
    with pytest.raises(ValueError):
        tp.fidelity_curve(tp.binomial_povm(0.5, 12, 40), tp.binomial_povm(0.5, 12, 30))


def test_three_way_comparison_exact_data():
    ens = tp.geometric_ensemble(n_probes=4, mu_min=3.0, mu_max=30.0)
    truth = tp.binomial_povm(0.051, 12, 140)
    table = _exact_table(ens, truth)
    rows = tp.three_way_comparison(table, truth, 0.051, ens)
    assert [r.probe_id for r in rows] == list(ens.ids)
    for row, probe in zip(rows, ens.probes):
        assert row.mean_photons == probe.mean_photons
        assert row.tv_reconstructed < 1e-12
        assert row.max_diff_reconstructed < 1e-12
        # Closed form and folded forward model agree well below truncation.
        assert row.tv_linear < 1e-8
        assert math.isclose(
            row.max_diff_linear, np.abs(row.measured - row.linear).max(), rel_tol=1e-12
        )


def test_three_way_comparison_scores_the_dark_count_model():
    ens = tp.geometric_ensemble(n_probes=4, mu_min=3.0, mu_max=30.0)
    table = _exact_table(ens, tp.binomial_povm(0.051, 12, 140, gamma=0.2))
    povm = tp.binomial_povm(0.051, 12, 140)
    dark = tp.three_way_comparison(table, povm, 0.051, ens, gamma_hat=0.2)
    assert max(row.tv_linear for row in dark) < 1e-8
    plain = tp.three_way_comparison(table, povm, 0.051, ens)
    assert min(row.tv_linear for row in plain) > 0.05


def test_three_way_comparison_validation():
    ens = tp.geometric_ensemble(n_probes=3, mu_min=3.0, mu_max=30.0)
    truth = tp.binomial_povm(0.051, 12, 140)
    table = _exact_table(ens, truth)
    with pytest.raises(ValueError):
        tp.three_way_comparison(table, truth, 0.051, ens.subset((0, 1)))
    small = tp.binomial_povm(0.051, 6, 140)
    with pytest.raises(ValueError):
        tp.three_way_comparison(table, small, 0.051, ens)


def _sweep_setup():
    ens = tp.ProbeEnsemble((
        tp.Probe(id=0, mean_photons=0.3),
        tp.Probe(id=1, mean_photons=1.0),
        tp.Probe(id=2, mean_photons=2.5),
        tp.Probe(id=3, mean_photons=5.0),
    ))
    truth = tp.binomial_povm(0.6, 4, 4)
    table = _exact_table(ens, truth)
    cfg = tp.ReconstructionConfig(truncation=4, n_outcomes=4, max_iters=5000,
                                  init_eta=0.6)
    return ens, truth, table, cfg


def test_sensitivity_sweep_baseline_only():
    ens, truth, table, cfg = _sweep_setup()
    sweep = tp.sensitivity_sweep(table, ens, cfg, truth, split=3)
    assert len(sweep.points) == 1
    assert sweep.points[0].label == "baseline"
    assert sweep.points[0].mu_scale == 1.0
    assert np.array_equal(sweep.envelope, sweep.points[0].fidelities)


def test_sensitivity_sweep_envelope_is_pointwise_min():
    ens, truth, table, cfg = _sweep_setup()
    sweep = tp.sensitivity_sweep(
        table, ens, cfg, truth, energy_scale=0.1, attenuation_db=0.5, split=3
    )
    assert len(sweep.points) == 5
    labels = [pt.label for pt in sweep.points]
    assert labels[0] == "baseline"
    assert sum("energy" in lab for lab in labels) == 2
    assert sum("attenuation" in lab for lab in labels) == 2
    scales = {pt.label: pt.mu_scale for pt in sweep.points}
    assert scales["energy -0.1"] == pytest.approx(0.9)
    assert scales["attenuation +0.5 dB"] == pytest.approx(10.0 ** -0.05)
    stacked = np.vstack([pt.fidelities for pt in sweep.points])
    assert np.array_equal(sweep.envelope, stacked.min(axis=0))
    # Perturbed reconstructions cannot beat the unperturbed baseline.
    assert np.all(sweep.envelope <= sweep.points[0].fidelities + 1e-12)


def test_sensitivity_sweep_perturbation_hurts():
    ens, truth, table, cfg = _sweep_setup()
    base = tp.sensitivity_sweep(table, ens, cfg, truth, split=3)
    pert = tp.sensitivity_sweep(table, ens, cfg, truth, energy_scale=0.2, split=3)
    assert pert.envelope.min() < base.envelope.min()


def test_sensitivity_sweep_validation():
    ens, truth, table, cfg = _sweep_setup()
    with pytest.raises(ValueError):
        tp.sensitivity_sweep(table, ens, cfg, truth, energy_scale=1.0)
    with pytest.raises(ValueError):
        tp.sensitivity_sweep(table, ens, cfg, truth, energy_scale=-0.1)
    with pytest.raises(ValueError):
        tp.sensitivity_sweep(table, ens, cfg, truth, attenuation_db=-1.0)
