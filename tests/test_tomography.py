"""Tests for simplex projection and the constrained POVM solver."""

import numpy as np
import pytest

import tespovm as tp
from tespovm import tomography
from tespovm.tomography import TOL


def brute_force_projection(v):
    """Projection by exhaustive support enumeration.

    For every nonempty support S the unconstrained optimum is
    v - theta on S with theta = (sum_S v - 1) / |S|; the projection is
    the feasible candidate closest to v.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    best, best_cost = None, np.inf
    for mask_bits in range(1, 2**d):
        mask = np.array([(mask_bits >> i) & 1 for i in range(d)], dtype=bool)
        theta = (v[mask].sum() - 1.0) / mask.sum()
        x = np.where(mask, v - theta, 0.0)
        if x.min() < -1e-12:
            continue
        x = np.maximum(x, 0.0)
        cost = float(((x - v) ** 2).sum())
        if cost < best_cost:
            best, best_cost = x, cost
    return best


def test_project_simplex_frozen_case():
    out = tp.project_simplex(np.array([0.5, 0.5, 1.0]))
    assert np.allclose(out, [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0], rtol=1e-12)


def test_project_simplex_fixes_simplex_points():
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(tp.project_simplex(e0), e0)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(tp.project_simplex(p), p, atol=1e-15)


def test_project_simplex_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(300):
        d = int(rng.integers(2, 7))
        v = rng.normal(0.0, rng.choice([0.3, 1.0, 3.0]), d)
        got = tp.project_simplex(v)
        want = brute_force_projection(v)
        assert np.allclose(got, want, atol=1e-9), (v, got, want)


def test_project_simplex_kkt_conditions():
    rng = np.random.default_rng(7)
    for _ in range(500):
        d = int(rng.integers(2, 13))
        v = rng.normal(0.0, 2.0, d)
        x = tp.project_simplex(v)
        assert x.min() >= 0.0
        assert abs(x.sum() - 1.0) < 1e-9
        support = x > 1e-9
        theta = (v - x)[support]
        assert np.ptp(theta) < 1e-9
        assert np.all(v[~support] <= theta.max() + 1e-9)


def test_project_simplex_validation():
    with pytest.raises(ValueError):
        tp.project_simplex(np.array([]))
    with pytest.raises(ValueError):
        tp.project_simplex(np.ones((2, 2)))
    with pytest.raises(ValueError):
        tp.project_simplex(np.array([1.0, np.nan]))


def test_forward_model():
    # The solver's forward model is Pi @ Q; predict_distribution folds the
    # Poisson tail as probe_q_matrix does, so it gives the same columns.
    povm = tp.binomial_povm(0.5, 4, 6)
    ens = tp.ProbeEnsemble((tp.Probe(id=0, mean_photons=0.7),
                            tp.Probe(id=1, mean_photons=5.0)))
    q, _ = tp.probe_q_matrix(ens, 6)
    out = povm.entries @ q
    for j, probe in enumerate(ens.probes):
        pred = tp.predict_distribution(povm, probe.mean_photons).probs
        np.testing.assert_allclose(pred, out[:, j], rtol=0.0, atol=1e-15)


def _square_setup():
    ens = tp.ProbeEnsemble((
        tp.Probe(id=0, mean_photons=0.3, n_pulses=1000),
        tp.Probe(id=1, mean_photons=1.0, n_pulses=1000),
        tp.Probe(id=2, mean_photons=2.5, n_pulses=1000),
        tp.Probe(id=3, mean_photons=5.0, n_pulses=1000),
    ))
    truth = tp.binomial_povm(0.6, 4, 4)
    q, _ = tp.probe_q_matrix(ens, 4)
    return ens, truth, q


def test_reconstruct_exact_data_well_conditioned():
    """A full-rank probe design pins the POVM; the solver must find it."""
    ens, truth, q = _square_setup()
    table = tp.CountTable.from_probs(truth.entries @ q, probe_ids=ens.ids)
    cfg = tp.ReconstructionConfig(truncation=4, n_outcomes=4, init_eta=0.3)
    rec = tp.reconstruct_povm(table, ens, cfg)
    assert rec.converged
    assert rec.stop_reason == "objective_tol"
    assert rec.data_term < 1e-12
    assert rec.noise_floor is None
    assert np.abs(rec.povm.entries - truth.entries).max() < 1e-5
    assert tp.fidelity_curve(rec.povm, truth).values[:4].min() > 0.9999
    # Restarts keep the objective monotone.
    assert np.all(np.diff(rec.objective_history) <= 1e-15)


def test_reconstruct_stops_at_noise_floor():
    ens, truth, q = _square_setup()
    rng = np.random.default_rng(8)
    cols = [rng.multinomial(20_000, p / p.sum()) for p in (truth.entries @ q).T]
    table = tp.CountTable.from_counts(np.array(cols).T, probe_ids=ens.ids)
    cfg = tp.ReconstructionConfig(truncation=4, n_outcomes=4, init_eta=0.3)
    rec = tp.reconstruct_povm(table, ens, cfg)
    assert rec.stop_reason == "noise_floor"
    assert rec.converged
    assert rec.n_iters > 0
    assert rec.noise_floor is not None
    assert rec.data_term <= rec.noise_floor
    assert rec.objective_history.size == rec.n_iters + 1
    # Floor matches the multinomial formula sum_j (1 - sum_n p^2) / n_j.
    p = table.probs
    floor = float(((1.0 - (p * p).sum(axis=0)) / 20_000.0).sum())
    assert np.isclose(rec.noise_floor, floor, rtol=1e-12)


def test_reconstruct_starting_below_floor_takes_no_steps():
    ens, truth, q = _square_setup()
    rng = np.random.default_rng(1)
    cols = [rng.multinomial(20_000, p / p.sum()) for p in (truth.entries @ q).T]
    table = tp.CountTable.from_counts(np.array(cols).T, probe_ids=ens.ids)
    cfg = tp.ReconstructionConfig(truncation=4, n_outcomes=4, init_eta=0.6)
    rec = tp.reconstruct_povm(table, ens, cfg)
    assert rec.stop_reason == "noise_floor"
    assert rec.n_iters == 0
    # The iterate never moved off the initialization.
    init = tp.binomial_povm(0.6, 4, 4)
    assert np.array_equal(rec.povm.entries, init.entries)


def test_reconstruct_hits_max_iters_without_counts(monkeypatch):
    ens, truth, q = _square_setup()
    table = tp.CountTable.from_probs(truth.entries @ q, probe_ids=ens.ids)
    monkeypatch.setattr(tomography, "MAX_ITERS", 5)
    rec = tp.reconstruct_povm(table, ens, tp.ReconstructionConfig(truncation=4, n_outcomes=4))
    assert rec.stop_reason == "max_iters"
    assert not rec.converged
    assert rec.n_iters == 5
    assert rec.objective_history.size == 6
    # The certificate is still reported, and it is not met.
    assert rec.gradient_mapping_norm > TOL


def _plain_step(pi, q, p, reg_weight):
    """One projected gradient step P(Pi - s grad f) with the solver's step s,
    projected column by column; returns the new iterate and s."""
    step = 1.0 / (2.0 * (np.linalg.norm(q, 2) ** 2 + 4.0 * reg_weight))
    d = np.diff(pi, axis=1)
    lap = np.zeros_like(pi)
    lap[:, :-1] -= d
    lap[:, 1:] += d
    grad = 2.0 * (pi @ q - p) @ q.T + 2.0 * reg_weight * lap
    stepped = pi - step * grad
    return np.column_stack([tp.project_simplex(col) for col in stepped.T]), step


def _gradient_mapping_norm(pi, q, p, reg_weight):
    """||Pi - P(Pi - s grad f)||_F / s with the solver's step."""
    proj, step = _plain_step(pi, q, p, reg_weight)
    return float(np.linalg.norm(pi - proj)) / step


def test_first_two_steps_are_plain_projected_gradient_steps(monkeypatch):
    """Momentum starts at the third step, so a noise-floor stop within two
    steps gives the same POVM as plain projected gradient."""
    ens, truth, q = _square_setup()
    rng = np.random.default_rng(8)
    cols = [rng.multinomial(20_000, p / p.sum()) for p in (truth.entries @ q).T]
    table = tp.CountTable.from_counts(np.array(cols).T, probe_ids=ens.ids)
    pi = np.full((4, 4), 0.25)
    cfg = tp.ReconstructionConfig(truncation=4, n_outcomes=4)
    for n_steps in (1, 2):
        monkeypatch.setattr(tomography, "MAX_ITERS", n_steps)
        pi = _plain_step(pi, q, table.probs, cfg.reg_weight)[0]
        rec = tp.reconstruct_povm(table, ens, cfg)
        assert rec.stop_reason == "max_iters"
        assert np.array_equal(rec.povm.entries, pi)


def test_momentum_overshoot_keeps_objective_monotone(monkeypatch):
    """The small CLI design with probe 0's zero-count entry set to 0 sits
    far from the model; momentum overshoots there, and each overshooting
    step is redone as a plain one, so the objective never rises."""
    mus = np.geomspace(2.0, 40.0, 5)
    ens = tp.ProbeEnsemble(tuple(
        tp.Probe(id=i, mean_photons=float(m), n_pulses=4000) for i, m in enumerate(mus)
    ))
    q, _ = tp.probe_q_matrix(ens, 50)
    rng = np.random.default_rng(0)
    model = tp.binomial_povm(0.051, 8, 50).entries @ q
    counts = np.column_stack([rng.multinomial(4000, c / c.sum()) for c in model.T])
    counts[0, 0] = 0
    table = tp.CountTable.from_counts(counts, probe_ids=ens.ids)
    cfg = tp.ReconstructionConfig(
        truncation=50, n_outcomes=8, init_eta=tp.estimate_eta(table, ens).eta_hat,
    )
    monkeypatch.setattr(tomography, "MAX_ITERS", 500)
    rec = tp.reconstruct_povm(table, ens, cfg)
    history = rec.objective_history
    assert np.all(np.diff(history) <= 0.0)
    assert rec.n_iters == history.size - 1 == 500
    assert rec.stop_reason == "max_iters"


def test_exact_default_design_stops_on_certificate():
    """Criterion 5's exact input stops on the gradient-mapping certificate."""
    ensemble = tp.geometric_ensemble()
    truth = tp.binomial_povm(0.051, 12, 140)
    q, _ = tp.probe_q_matrix(ensemble, 140)
    table = tp.CountTable.from_probs(truth.entries @ q, probe_ids=ensemble.ids)
    cfg = tp.ReconstructionConfig(init_eta=tp.estimate_eta(table, ensemble).eta_hat)
    rec = tp.reconstruct_povm(table, ensemble, cfg)
    assert rec.converged
    assert rec.stop_reason == "objective_tol"
    assert rec.n_iters <= 1_000
    assert rec.data_term <= 1e-10
    assert rec.gradient_mapping_norm <= TOL
    recomputed = _gradient_mapping_norm(rec.povm.entries, q, table.probs, cfg.reg_weight)
    assert np.isclose(rec.gradient_mapping_norm, recomputed, rtol=1e-12, atol=0.0)


def test_noisy_default_design_stops_at_noise_floor():
    """The seed-42 default run, started from estimate_eta, stops at the
    noise floor after three steps, before the certificate is met."""
    ensemble = tp.geometric_ensemble()
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(), ensemble, seed=42, jobs=2)
    fits, failures = tp.fit_run(traces, bin_width_mv=1.3)
    assert not failures
    columns = [
        tp.bin_counts(t, tp.place_thresholds(fits[t.probe_id]), 12) for t in traces
    ]
    table = tp.CountTable.from_counts(
        np.column_stack(columns), probe_ids=tuple(t.probe_id for t in traces)
    )
    cfg = tp.ReconstructionConfig(init_eta=tp.estimate_eta(table, ensemble).eta_hat)
    rec = tp.reconstruct_povm(table, ensemble, cfg)
    assert rec.stop_reason == "noise_floor"
    assert rec.n_iters == 3
    assert rec.gradient_mapping_norm > TOL


def test_reconstruct_permutation_invariant():
    """Shuffled probe columns with matching ids give the identical POVM."""
    ens, truth, q = _square_setup()
    rng = np.random.default_rng(5)
    counts = np.array(
        [rng.multinomial(10_000, p / p.sum()) for p in (truth.entries @ q).T]
    ).T
    cfg = tp.ReconstructionConfig(truncation=4, n_outcomes=4, init_eta=0.3)
    table = tp.CountTable.from_counts(counts, probe_ids=(0, 1, 2, 3))
    perm = [2, 0, 3, 1]
    shuffled = tp.CountTable.from_counts(
        counts[:, perm], probe_ids=tuple(perm)
    )
    a = tp.reconstruct_povm(table, ens, cfg)
    b = tp.reconstruct_povm(shuffled, ens, cfg)
    assert np.array_equal(a.povm.entries, b.povm.entries)
    assert np.allclose(a.per_probe_residuals[perm], b.per_probe_residuals, rtol=1e-12)
    assert np.allclose(a.probe_tail_mass[perm], b.probe_tail_mass, rtol=1e-15)


def test_reconstruct_zero_photon_probe_pins_first_column():
    ens = tp.ProbeEnsemble((tp.Probe(id=0, mean_photons=0.0, n_pulses=100),))
    table = tp.CountTable.from_probs(np.array([[1.0], [0.0], [0.0]]), probe_ids=(0,))
    cfg = tp.ReconstructionConfig(truncation=6, n_outcomes=3)
    rec = tp.reconstruct_povm(table, ens, cfg)
    assert rec.stop_reason == "objective_tol"
    assert np.allclose(rec.povm.column(0), [1.0, 0.0, 0.0], atol=1e-6)
    assert np.abs(rec.povm.entries.sum(axis=0) - 1.0).max() < 1e-12


def test_reconstruct_result_is_column_stochastic():
    ens, truth, q = _square_setup()
    rng = np.random.default_rng(3)
    cols = [rng.multinomial(500, p / p.sum()) for p in (truth.entries @ q).T]
    table = tp.CountTable.from_counts(np.array(cols).T, probe_ids=ens.ids)
    rec = tp.reconstruct_povm(
        table, ens, tp.ReconstructionConfig(truncation=4, n_outcomes=4)
    )
    assert rec.povm.entries.min() >= 0.0
    assert np.abs(rec.povm.entries.sum(axis=0) - 1.0).max() < 1e-9


def test_reconstruct_dimension_validation():
    ens, truth, q = _square_setup()
    table = tp.CountTable.from_probs(truth.entries @ q, probe_ids=ens.ids)
    with pytest.raises(ValueError, match="outcomes"):
        tp.reconstruct_povm(
            table, ens, tp.ReconstructionConfig(truncation=4, n_outcomes=6)
        )
    with pytest.raises(ValueError, match="probes"):
        tp.reconstruct_povm(
            table,
            ens.subset((0, 1)),
            tp.ReconstructionConfig(truncation=4, n_outcomes=4),
        )
    mismatched = tp.CountTable.from_probs(truth.entries @ q, probe_ids=(7, 8, 9, 10))
    with pytest.raises(ValueError, match="probe ids"):
        tp.reconstruct_povm(
            mismatched, ens, tp.ReconstructionConfig(truncation=4, n_outcomes=4)
        )


def test_reconstruction_config_validation():
    with pytest.raises(ValueError):
        tp.ReconstructionConfig(reg_weight=-1.0)
    with pytest.raises(ValueError):
        tp.ReconstructionConfig(n_outcomes=1)
    with pytest.raises(ValueError):
        tp.ReconstructionConfig(truncation=0)
    # The solve tolerance and iteration cap are the solver's constants,
    # not settings.
    with pytest.raises(TypeError, match="tol"):
        tp.ReconstructionConfig(tol=1e-8)
    with pytest.raises(TypeError, match="max_iters"):
        tp.ReconstructionConfig(max_iters=200_000)
    with pytest.raises(ValueError):
        tp.ReconstructionConfig(init_eta=1.5)
    for name in ("truncation", "n_outcomes"):
        with pytest.raises(TypeError, match=f"{name} must be an integer, got 20.5"):
            tp.ReconstructionConfig(**{name: 20.5})
    assert tp.ReconstructionConfig().reg_weight == 1e-8
