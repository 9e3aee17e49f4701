"""Tests for efficiency and dark-count maximum-likelihood estimation."""

import math
import warnings

import numpy as np
import pytest

import tespovm as tp
from tespovm import estimation, photon_stats

from scenarios import model_draws, poisson_column, z_scores


@pytest.mark.parametrize("mu", [6.5, 31.0, 130.0])
@pytest.mark.parametrize("eta", [0.02, 0.051, 0.09])
def test_loglik_routes_agree(mu, eta):
    """The fit's closed form and the explicit photon-number sum through
    the binomial POVM give the same log likelihood."""
    rng = np.random.default_rng(3)
    counts = rng.multinomial(100_000, tp.linear_prediction(0.051, mu, 12).probs)
    seen = counts > 0
    closed = photon_stats._poisson_log_probs(eta * mu, 12)[seen, 0]
    probs = tp.binomial_povm(eta, 12, 600).entries @ tp.poisson_pmf(mu, np.arange(600))
    with np.errstate(divide="ignore"):
        msum = np.log(probs[seen])
    assert math.isclose(counts[seen] @ closed, counts[seen] @ msum,
                        rel_tol=1e-9, abs_tol=1e-8)


def test_loglik_eta_is_linear_in_weights():
    ens = tp.geometric_ensemble(n_probes=3, mu_min=2.0, mu_max=8.0)
    counts = np.array([[70, 40, 20], [20, 30, 30], [10, 30, 50]])
    one = tp.estimate_eta(tp.CountTable.from_counts(counts, probe_ids=ens.ids), ens)
    two = tp.estimate_eta(tp.CountTable.from_counts(2 * counts, probe_ids=ens.ids), ens)
    assert math.isclose(two.eta_hat, one.eta_hat, rel_tol=1e-9)
    assert math.isclose(two.loglik, 2.0 * one.loglik, rel_tol=1e-12)


def test_loglik_eta_zero_probability_outcome():
    # eta * mu = 0 puts all mass on outcome 0; any other count is -inf.
    log_probs = photon_stats._poisson_log_probs(0.0, 2)[:, 0]
    assert estimation._weighted_loglik(np.array([5.0, 1.0]), log_probs) == -math.inf
    assert estimation._weighted_loglik(np.array([5.0, 0.0]), log_probs) == 0.0


def test_estimate_eta_exact_probs():
    ens = tp.geometric_ensemble(n_probes=5, mu_min=5.0, mu_max=60.0)
    cols = [poisson_column(0.051 * p.mean_photons, 12) for p in ens.probes]
    table = tp.CountTable.from_probs(np.column_stack(cols), probe_ids=ens.ids)
    est = tp.estimate_eta(table, ens)
    assert np.abs(est.per_probe_etas - 0.051).max() < 1e-5
    assert abs(est.eta_hat - 0.051) < 1e-5
    assert est.eta_se is None  # probabilities only: no sample size
    assert est.loglik < 0.0
    assert est.gamma_hat is None


def test_estimate_eta_noisy_recovery():
    ens = tp.geometric_ensemble(n_probes=5, mu_min=5.0, mu_max=60.0, n_pulses=50_000)
    rng = np.random.default_rng(14)
    counts = np.column_stack([rng.multinomial(50_000, poisson_column(0.051 * p.mean_photons, 12))
                              for p in ens.probes])
    table = tp.CountTable.from_counts(counts, probe_ids=ens.ids)
    est = tp.estimate_eta(table, ens)
    assert abs(est.eta_hat - 0.051) < 5.0 * est.eta_se
    assert est.eta_se < 5e-4


def test_estimate_eta_gamma_zero_bound_reduces_to_plain():
    """On dark-count-free data the joint fit sits at gamma = 0 and agrees
    with the plain fit."""
    ens = tp.geometric_ensemble(n_probes=4, mu_min=5.0, mu_max=40.0)
    cols = [poisson_column(0.051 * p.mean_photons, 12) for p in ens.probes]
    table = tp.CountTable.from_probs(np.column_stack(cols), probe_ids=ens.ids)
    plain = tp.estimate_eta(table, ens)
    joint = tp.estimate_eta_gamma(table, ens)
    assert abs(joint.eta_hat - plain.eta_hat) < 1e-7
    assert joint.gamma_hat < 1e-6
    assert np.abs(joint.per_probe_gammas).max() < 1e-6
    assert np.abs(joint.per_probe_etas - plain.per_probe_etas).max() < 1e-6


def test_estimate_eta_gamma_joint_recovery():
    """The mu dependence separates efficiency from a flat dark rate."""
    mus = (2.0, 5.0, 10.0, 20.0, 40.0)
    ens = tp.ProbeEnsemble(
        tuple(tp.Probe(id=i, mean_photons=m) for i, m in enumerate(mus))
    )
    cols = [poisson_column(0.05 * m + 0.3, 12) for m in mus]
    table = tp.CountTable.from_probs(np.column_stack(cols), probe_ids=ens.ids)
    est = tp.estimate_eta_gamma(table, ens)
    assert abs(est.eta_hat - 0.05) < 1e-4
    assert abs(est.gamma_hat - 0.3) < 1e-3
    assert est.gamma_se is None and est.gamma_upper is None  # no sample size
    assert np.abs(est.per_probe_gammas - 0.3).max() < 1e-3
    assert np.abs(est.per_probe_etas - 0.05).max() < 1e-4


def test_estimate_eta_gamma_validation():
    """One mean photon number identifies only eta * mu + gamma."""
    same_mu = tp.ProbeEnsemble(
        tuple(tp.Probe(id=i, mean_photons=8.0) for i in range(3))
    )
    cols = [poisson_column(0.1 * 8.0, 6)] * 3
    table = tp.CountTable.from_probs(np.column_stack(cols), probe_ids=same_mu.ids)
    with pytest.raises(tp.EstimationError, match="distinct"):
        tp.estimate_eta_gamma(table, same_mu)
    assert abs(tp.estimate_eta(table, same_mu).eta_hat - 0.1) < 1e-6


def _rms(z):
    return float(np.sqrt(np.mean(np.square(z))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_joint_standard_errors_cover_over_model_draws():
    """z-scores of eta_hat and gamma_hat have unit spread over 200 draws."""
    z = []
    for ens, table in model_draws(0.051, 0.2, 200, seed=2024):
        est = tp.estimate_eta_gamma(table, ens)
        assert est.gamma_upper >= est.gamma_hat
        z.append(z_scores(est, 0.051, 0.2))
    z_eta, z_gamma = np.transpose(z)
    assert 0.85 <= _rms(z_eta) <= 1.15
    assert 0.85 <= _rms(z_gamma) <= 1.15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dark_count_free_draws_rarely_detect_dark_counts():
    """At gamma = 0 the one-sided 95 percent test fires in at most 10 percent
    of the draws, and the plain fit's z-scores have unit spread."""
    false_detections, z_eta = 0, []
    for ens, table in model_draws(0.051, 0.0, 200, seed=7):
        joint = tp.estimate_eta_gamma(table, ens)
        false_detections += joint.gamma_hat - 1.645 * joint.gamma_se > 0
        z_eta += z_scores(tp.estimate_eta(table, ens), 0.051)
    assert false_detections <= 20
    assert 0.85 <= _rms(z_eta) <= 1.15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_survives_underflowing_top_bin():
    """With 40 outcomes, P(X >= 39) underflows near lam = 0, where the
    search for the dim probes' means goes; the errors stay finite."""
    ens = tp.ProbeEnsemble(tuple(
        tp.Probe(id=i, mean_photons=m) for i, m in enumerate((1e-6, 2e-6, 1.0))
    ))
    counts = np.zeros((40, 3), dtype=np.int64)
    counts[0] = (10_000, 10_000, 9_500)
    counts[1:3, 2] = (480, 20)
    table = tp.CountTable.from_counts(counts, probe_ids=ens.ids)
    joint = tp.estimate_eta_gamma(table, ens)
    plain = tp.estimate_eta(table, ens)
    assert np.isfinite([joint.eta_se, joint.gamma_se, plain.eta_se]).all()
    assert abs(plain.eta_hat - 0.052) < 0.005


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_search_through_zero_rate_stays_finite():
    """Tables whose search passes eta = gamma = 0, where lam = 0."""
    ens = tp.ProbeEnsemble((tp.Probe(id=0, mean_photons=32.363),
                            tp.Probe(id=1, mean_photons=33.535)))
    table = tp.CountTable.from_counts(np.array([[258, 615], [49, 0], [0, 19]]),
                                      probe_ids=ens.ids)
    joint = tp.estimate_eta_gamma(table, ens)
    plain = tp.estimate_eta(table, ens)
    assert np.isfinite([joint.loglik, joint.gamma_se, plain.loglik, plain.eta_se]).all()


def test_estimate_eta_skips_degenerate_probes():
    ens = tp.ProbeEnsemble((
        tp.Probe(id=0, mean_photons=0.0),
        tp.Probe(id=1, mean_photons=10.0),
    ))
    cols = np.column_stack([
        poisson_column(0.0, 6),
        poisson_column(0.5, 6),
    ])
    table = tp.CountTable.from_probs(cols, probe_ids=(0, 1))
    # The mu 0 probe is skipped without a warning; its eta is NaN.
    est = tp.estimate_eta(table, ens)
    assert math.isnan(est.per_probe_etas[0])
    assert abs(est.per_probe_etas[1] - 0.05) < 1e-5
    assert est.eta_se is None  # single usable probe


def test_estimate_eta_all_degenerate_raises():
    ens = tp.ProbeEnsemble((tp.Probe(id=0, mean_photons=0.0),))
    table = tp.CountTable.from_probs(np.array([[1.0], [0.0]]), probe_ids=(0,))
    with pytest.raises(tp.EstimationError, match="no usable probes"):
        tp.estimate_eta(table, ens)


def test_all_events_in_class_0_raise():
    """With every event in class 0, eta and gamma sit on their zero bound,
    where the Fisher information gives standard errors of about 1e-10:
    both estimators raise rather than report a boundary fit as exact."""
    ens = tp.geometric_ensemble(n_probes=4)
    counts = np.zeros((12, 4), dtype=int)
    counts[0] = 10_000
    table = tp.CountTable.from_counts(counts, probe_ids=ens.ids)
    for estimate in (tp.estimate_eta, tp.estimate_eta_gamma):
        with pytest.raises(tp.EstimationError, match="all its events in class 0"):
            estimate(table, ens)


def test_all_events_in_the_top_class_raise():
    """With every event in the top class the likelihood rises without bound
    in each probe's mean count: both estimators raise, as for class 0,
    rather than report where the search stopped (once eta 1.0, gamma 65.9
    with a gamma standard error of 2.7e11)."""
    ens = tp.geometric_ensemble(n_probes=4, mu_min=5.0, mu_max=40.0)
    counts = np.zeros((6, 4), dtype=int)
    counts[-1] = 10_000
    table = tp.CountTable.from_counts(counts, probe_ids=ens.ids)
    for estimate in (tp.estimate_eta, tp.estimate_eta_gamma):
        with pytest.raises(tp.EstimationError, match="all its events in the top class"):
            estimate(table, ens)


@pytest.mark.parametrize("estimate", [tp.estimate_eta, tp.estimate_eta_gamma])
def test_fit_raises_at_the_step_cap(monkeypatch, estimate):
    """An information a million times too large takes steps a million times
    too short, so the Newton decrement barely falls: the fit raises at its
    step cap rather than report where it stopped."""
    score = estimation._score

    def flat(cols, design, theta):
        loglik, grad, info = score(cols, design, theta)
        return loglik, grad, 1e6 * info

    monkeypatch.setattr(estimation, "_score", flat)
    ens = tp.geometric_ensemble(n_probes=4)
    rng = np.random.default_rng(1)
    counts = np.column_stack([
        rng.multinomial(10_000, tp.linear_prediction(0.051, p.mean_photons, 8, 0.1).probs)
        for p in ens.probes])
    table = tp.CountTable.from_counts(counts, probe_ids=ens.ids)
    with pytest.raises(tp.EstimationError, match=r"did not converge \(100 steps\)"):
        estimate(table, ens)


def test_vacuum_column_in_class_0_still_fits():
    """A dark-free probe of mu 0 puts every event in class 0 by right;
    beside lit probes both estimators still fit."""
    lit = tp.geometric_ensemble(n_probes=4)
    ens = tp.ProbeEnsemble((tp.Probe(id=20, mean_photons=0.0),) + lit.probes)
    rng = np.random.default_rng(5)
    counts = np.column_stack([
        rng.multinomial(10_000, tp.linear_prediction(0.051, p.mean_photons, 12).probs)
        for p in ens.probes
    ])
    assert counts[0, 0] == 10_000
    table = tp.CountTable.from_counts(counts, probe_ids=ens.ids)
    for estimate in (tp.estimate_eta, tp.estimate_eta_gamma):
        est = estimate(table, ens)
        assert abs(est.eta_hat - 0.051) < 4.0 * est.eta_se


def test_all_top_probe_has_no_per_probe_entry():
    """A probe with every event in the top class has a likelihood that rises
    with its Poisson mean without bound: its per-probe entries hold NaN, as
    a skipped probe's do, and the pooled fit is unchanged. The pinned values
    are the pooled fit of an earlier version, which iterated on that column
    until its step fell below tolerance."""
    ens = tp.geometric_ensemble(n_probes=4, mu_min=5.0, mu_max=40.0)
    rng = np.random.default_rng(3)
    counts = np.column_stack([
        rng.multinomial(10_000, tp.linear_prediction(0.051, p.mean_photons, 6, 0.2).probs)
        for p in ens.probes
    ])
    counts[:, 3] = 0
    counts[-1, 3] = 10_000
    table = tp.CountTable.from_counts(counts, probe_ids=ens.ids)
    alone, joint = tp.estimate_eta(table, ens), tp.estimate_eta_gamma(table, ens)
    for est in (alone, joint):
        assert np.isnan(est.per_probe_etas[3])
        assert np.isfinite(est.per_probe_etas[:3]).all()
        assert abs(est.eta_hat - 0.11688310032772528) <= 1e-8 * est.eta_se
    assert np.isnan(joint.per_probe_gammas[3])
    assert np.isfinite(joint.per_probe_gammas[:3]).all()
    assert joint.gamma_hat <= 1e-8 * joint.gamma_se


def test_estimate_alignment_validation():
    ens = tp.geometric_ensemble(n_probes=3, mu_min=2.0, mu_max=10.0)
    # Two of the three probes, out of order: columns pair with probes by id.
    mus = ens.mean_photons
    cols = [poisson_column(0.1 * mus[j], 6) for j in (1, 0)]
    table = tp.CountTable.from_probs(np.column_stack(cols), probe_ids=(1, 0))
    est = tp.estimate_eta(table, ens)
    assert abs(est.eta_hat - 0.1) < 1e-6
    np.testing.assert_allclose(est.per_probe_etas, 0.1, atol=1e-6)
    bad_ids = tp.CountTable.from_probs(
        np.column_stack([poisson_column(0.2, 6)] * 3), probe_ids=(0, 6, 7)
    )
    with pytest.raises(ValueError, match=r"probes with probe ids \[6, 7\]"):
        tp.estimate_eta(bad_ids, ens)


def test_joint_fit_counts_a_vacuum_probe():
    """A probe of mu 0 measures gamma alone: the joint fit keeps it without
    a warning, and it narrows gamma_se."""
    lit = tp.geometric_ensemble()
    ens = tp.ProbeEnsemble((tp.Probe(id=20, mean_photons=0.0),) + lit.probes)
    rng = np.random.default_rng(11)
    counts = np.column_stack([
        rng.multinomial(100_000, tp.linear_prediction(0.051, p.mean_photons, 12, 0.2).probs)
        for p in ens.probes
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = tp.estimate_eta_gamma(tp.CountTable.from_counts(counts, probe_ids=ens.ids), ens)
    without = tp.estimate_eta_gamma(
        tp.CountTable.from_counts(counts[:, 1:], probe_ids=lit.ids), ens)
    assert math.isnan(est.per_probe_etas[0])
    assert np.isfinite(est.per_probe_etas[1:]).all()
    assert est.gamma_se < without.gamma_se
    assert abs(est.gamma_hat - 0.2) < 4.0 * est.gamma_se
