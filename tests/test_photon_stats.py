"""Tests for the closed-form photon statistics primitives."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammainc, gammaln, xlogy

import tespovm as tp
from tespovm.photon_stats import _binomial_rows, _check_number, _poisson_log_probs

# One-sided Poisson mass beyond m = 139 at mu = 130 (scipy.stats.poisson.sf).
TAIL_139_130 = 0.20106831223210758


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 6.5, 31.0, 130.0])
def test_poisson_pmf_matches_scipy(mu):
    m = np.arange(400)
    ours = tp.poisson_pmf(mu, m)
    ref = stats.poisson.pmf(m, mu)
    assert np.allclose(ours, ref, rtol=1e-10, atol=1e-18)


@given(lam=st.one_of(st.just(0.0), st.floats(-6.0, 3.0).map(lambda e: 10.0**e)),
       n_outcomes=st.integers(2, 20))
@example(lam=1e3, n_outcomes=20)
@example(lam=19.0, n_outcomes=20)  # the mean where the top bin changes route
def test_poisson_log_probs_match_scipy(lam, n_outcomes):
    """Body and cumulative top bin within 1e-10 relative of scipy's
    ``gammaln`` and ``gammainc``; a mean of 0 is the point mass at 0."""
    ours = _poisson_log_probs(lam, n_outcomes)[:, 0]
    ns = np.arange(n_outcomes - 1.0)
    with np.errstate(divide="ignore"):
        ref = np.append(xlogy(ns, lam) - lam - gammaln(ns + 1.0),
                        np.log(gammainc(n_outcomes - 1, lam)))
    finite = np.isfinite(ref)
    assert np.array_equal(ours[~finite], ref[~finite])
    assert np.abs(ours[finite] - ref[finite]).max() <= 1e-10


def test_poisson_law_costs_do_not_grow_with_m_or_lam():
    # One log-factorial per value of m, and a top bin summed no further
    # than the tail bound at mean N - 1, whatever the mean.
    tracemalloc.start()
    try:
        pmf = tp.poisson_pmf(2.0, 10**9)
        top = _poisson_log_probs(1e8, 12)[-1, 0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pmf == stats.poisson.pmf(10**9, 2.0) == 0.0
    assert top == 0.0
    assert peak < 100_000


def test_poisson_pmf_scalar_and_validation():
    out = tp.poisson_pmf(2.0, 3)
    assert isinstance(out, float)
    assert math.isclose(out, 8.0 / 6.0 * math.exp(-2.0), rel_tol=1e-14)
    assert tp.poisson_pmf(0.0, 0) == 1.0
    assert tp.poisson_pmf(0.0, 5) == 0.0
    with pytest.raises(ValueError):
        tp.poisson_pmf(-1.0, 0)
    with pytest.raises(ValueError):
        tp.poisson_pmf(2.0, -1)
    with pytest.raises(ValueError):
        tp.poisson_pmf(2.0, 0.5)
    with pytest.raises(ValueError):
        tp.poisson_pmf(math.inf, 0)


@pytest.mark.parametrize(
    "eta", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(51, 1000), Fraction(3, 4)]
)
def test_binomial_povm_matches_exact_enumeration(eta):
    """Entries must agree with exact rational binomial probabilities."""
    n_out, trunc = 6, 21
    povm = tp.binomial_povm(float(eta), n_out, trunc)
    for m in range(trunc):
        body = [
            Fraction(math.comb(m, n)) * eta**n * (1 - eta) ** (m - n) if n <= m else Fraction(0)
            for n in range(n_out - 1)
        ]
        exact = body + [1 - sum(body)]
        got = povm.column(m)
        assert np.allclose(got[:-1], [float(x) for x in body], rtol=1e-13, atol=1e-15)
        # The remainder row is 1 minus a near-unit float sum; its error is
        # absolute (a few ulps of 1), not relative.
        assert abs(got[-1] - float(exact[-1])) < 5e-15


def test_binomial_povm_column_stochastic():
    rng = np.random.default_rng(0)
    for eta in rng.uniform(0.0, 1.0, 20):
        povm = tp.binomial_povm(float(eta), 12, 140)
        assert povm.entries.min() >= 0.0
        assert np.abs(povm.entries.sum(axis=0) - 1.0).max() < 1e-12
        assert povm.n_outcomes == 12
        assert povm.truncation == 140


def test_binomial_povm_eta_limits():
    ident = tp.binomial_povm(1.0, 12, 140)
    for m in range(140):
        expected = np.zeros(12)
        expected[min(m, 11)] = 1.0
        assert np.array_equal(ident.column(m), expected)
    blind = tp.binomial_povm(0.0, 12, 140)
    assert np.array_equal(blind.entries[0], np.ones(140))
    assert np.array_equal(blind.entries[1:], np.zeros((11, 140)))


def test_binomial_povm_validation():
    with pytest.raises(ValueError):
        tp.binomial_povm(1.1, 12, 140)
    with pytest.raises(ValueError):
        tp.binomial_povm(0.5, 1, 140)
    with pytest.raises(ValueError):
        tp.binomial_povm(0.5, 12, 0)


def test_dark_count_povm_entry_oracle():
    # P(report 1 | 1 photon) = exp(-gamma) * (eta + gamma * (1 - eta))
    # at eta = 0.5, gamma = 0.1: exp(-0.1) * 0.55.
    povm = tp.binomial_povm(0.5, 3, 4, gamma=0.1)
    assert math.isclose(povm.entries[1, 1], 0.4976605799197778, rel_tol=1e-12)


def test_dark_count_povm_gamma_zero_reduces_to_binomial():
    # At gamma = 0 the Poisson(gamma) Toeplitz matrix is the identity, so
    # the convolved rows are the raw binomial table exactly.
    dark = tp.binomial_povm(0.3, 12, 140, gamma=0.0)
    raw = _binomial_rows(0.3, 11, 140)
    assert np.array_equal(dark.entries[:-1], raw)
    assert np.array_equal(dark.entries[-1], np.maximum(1.0 - raw.sum(axis=0), 0.0))
    plain = tp.binomial_povm(0.3, 12, 140)
    assert np.array_equal(dark.entries, plain.entries)
    # A vanishing gamma approaches the binomial POVM continuously.
    tiny = tp.binomial_povm(0.3, 12, 140, gamma=1e-12)
    np.testing.assert_allclose(tiny.entries, plain.entries, atol=1e-11)


def test_dark_count_povm_matches_convolution_loop():
    # Reference: the row-by-row convolution the Toeplitz product replaced.
    # Each body entry sums at most 11 nonnegative float64 terms.
    eta, gamma, n_outcomes, truncation = 0.3, 0.7, 12, 60
    dark = tp.binomial_povm(eta, n_outcomes, truncation, gamma=gamma)
    raw = tp.binomial_povm(eta, n_outcomes, truncation).entries[:-1]
    w = tp.poisson_pmf(gamma, np.arange(n_outcomes - 1))
    body = np.zeros_like(raw)
    for n in range(n_outcomes - 1):
        for j in range(n + 1):
            body[n] += w[j] * raw[n - j]
    np.testing.assert_allclose(dark.entries[:-1], body, rtol=1e-14, atol=1e-300)
    np.testing.assert_allclose(dark.entries[-1], 1.0 - body.sum(axis=0), atol=1e-14)


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.2, 3.0])
@pytest.mark.parametrize("n_outcomes", [2, 3, 12, 40])
def test_dark_count_povm_is_the_handwritten_convolution(gamma, n_outcomes):
    # Pi[n, m] = sum_{j <= n} Poisson(j; gamma) * Binomial(n - j; m, eta),
    # summed term by term from the binomial rows, with the top row the
    # remainder. The terms are nonnegative, so each entry is within a few
    # ulps per term of up to 39 terms.
    eta, truncation = 0.4, 45
    raw = _binomial_rows(eta, n_outcomes - 1, truncation)
    w = [math.exp(-gamma) * gamma**j / math.factorial(j) for j in range(n_outcomes - 1)]
    body = np.zeros_like(raw)
    for n in range(n_outcomes - 1):
        for j in range(n + 1):
            body[n] += w[j] * raw[n - j]
    dark = tp.binomial_povm(eta, n_outcomes, truncation, gamma=gamma).entries
    np.testing.assert_allclose(dark[:-1], body, rtol=1e-13, atol=1e-300)
    np.testing.assert_allclose(dark[-1], np.maximum(1.0 - body.sum(axis=0), 0.0),
                               rtol=0, atol=1e-14)


def test_dark_count_povm_column_stochastic():
    povm = tp.binomial_povm(0.051, 12, 140, gamma=0.2)
    assert povm.entries.min() >= 0.0
    assert np.abs(povm.entries.sum(axis=0) - 1.0).max() < 1e-12


@pytest.mark.parametrize("eta", [0.0, 0.051, 0.5, 1.0])
@pytest.mark.parametrize("mu", [0.5, 6.5, 31.0, 130.0])
def test_thinning_identity(eta, mu):
    """Binomial response to a Poisson source is Poisson(eta * mu)."""
    trunc = 600
    povm = tp.binomial_povm(eta, 12, trunc)
    q = tp.poisson_pmf(mu, np.arange(trunc))
    summed = povm.entries @ q
    closed = tp.linear_prediction(eta, mu, 12).probs
    assert np.abs(summed[:-1] - closed[:-1]).max() <= 1e-6


def test_probe_q_matrix_folds_tail():
    ens = tp.geometric_ensemble()
    q, tail = tp.probe_q_matrix(ens, 140)
    assert q.shape == (140, 20)
    assert np.abs(q.sum(axis=0) - 1.0).max() < 1e-12
    assert math.isclose(tail[19], TAIL_139_130, rel_tol=1e-10)
    assert tail[0] < 1e-12
    # Folded mass sits on the last row, on top of the pmf value there.
    assert math.isclose(
        q[-1, 19], tp.poisson_pmf(130.0, 139) + tail[19], rel_tol=1e-12
    )
    with pytest.raises(ValueError):
        tp.probe_q_matrix(ens, 0)


@pytest.mark.parametrize("truncation", [1, 2, 50, 140, 400])
def test_probe_q_matrix_is_bitwise_each_probes_pmf(truncation):
    # Q is built for every probe at once; it equals, bit for bit, the matrix
    # stacked from each probe's own pmf and folded the same way. A dark
    # probe (mean 0) is the point mass at m = 0.
    ens = tp.ProbeEnsemble((tp.Probe(id=100, mean_photons=0.0), *tp.geometric_ensemble().probes))
    q, tail = tp.probe_q_matrix(ens, truncation)
    ref = np.column_stack([tp.poisson_pmf(p.mean_photons, np.arange(truncation))
                           for p in ens.probes])
    ref_tail = np.maximum(0.0, 1.0 - ref.sum(axis=0))
    ref[-1] += ref_tail
    assert np.array_equal(q, ref)
    assert np.array_equal(tail, ref_tail)
    assert q[0, 0] == 1.0 and tail[0] == 0.0


@pytest.mark.parametrize("mu", [0.5, 6.5, 31.0, 87.0])
def test_predict_distribution_matches_closed_form(mu):
    povm = tp.binomial_povm(0.051, 12, 140)
    pred = tp.predict_distribution(povm, mu)
    closed = tp.linear_prediction(0.051, mu, 12)
    assert 0.5 * np.abs(pred.probs - closed.probs).sum() < 1e-8
    # Dark counts add to the Poisson mean in both.
    dark = tp.predict_distribution(tp.binomial_povm(0.051, 12, 140, gamma=0.2), mu)
    closed = tp.linear_prediction(0.051, mu, 12, gamma=0.2)
    assert 0.5 * np.abs(dark.probs - closed.probs).sum() < 1e-8


def test_predict_distribution_reports_folded_tail():
    povm = tp.binomial_povm(0.051, 12, 140)
    pred = tp.predict_distribution(povm, 130.0)
    assert math.isclose(pred.truncation_tail, TAIL_139_130, rel_tol=1e-10)
    assert math.isclose(pred.probs.sum(), 1.0, abs_tol=1e-12)


def test_linear_prediction_end_members():
    e0 = np.zeros(12)
    e0[0] = 1.0
    assert np.allclose(tp.linear_prediction(0.5, 0.0, 12).probs, e0, atol=1e-15)
    assert np.allclose(tp.linear_prediction(0.0, 50.0, 12).probs, e0, atol=1e-15)
    with pytest.raises(ValueError):
        tp.linear_prediction(1.5, 1.0, 12)
    with pytest.raises(ValueError):
        tp.linear_prediction(0.5, -1.0, 12)
    with pytest.raises(ValueError):
        tp.linear_prediction(0.5, 1.0, 1)


def test_geometric_ensemble_defaults():
    ens = tp.geometric_ensemble()
    assert ens.n_probes == 20
    assert ens.ids == tuple(range(20))
    mus = ens.mean_photons
    assert mus[0] == 6.5
    assert mus[19] == 130.0
    assert math.isclose(mus[10], 31.453283248267553, rel_tol=1e-12)
    # Geometric spacing: constant ratio between neighbours.
    ratios = mus[1:] / mus[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    assert all(p.n_pulses == 100_000 for p in ens.probes)


def test_geometric_ensemble_validation():
    with pytest.raises(ValueError):
        tp.geometric_ensemble(n_probes=0)
    with pytest.raises(ValueError):
        tp.geometric_ensemble(mu_min=0.0)
    with pytest.raises(ValueError):
        tp.geometric_ensemble(mu_min=10.0, mu_max=5.0)


def test_ensemble_scaling_and_subset():
    ens = tp.geometric_ensemble(n_probes=5)
    doubled = ens.with_scaled_means(2.0)
    assert np.allclose(doubled.mean_photons, 2.0 * ens.mean_photons, rtol=1e-15)
    assert doubled.ids == ens.ids
    assert all(p.n_pulses == 100_000 for p in doubled.probes)
    sub = ens.subset((3, 1))
    assert sub.ids == (3, 1)
    assert sub.probes[0].mean_photons == ens.probes[3].mean_photons
    with pytest.raises(ValueError):
        ens.subset((99,))
    with pytest.raises(ValueError):
        ens.with_scaled_means(0.0)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        tp.ProbeEnsemble(())
    with pytest.raises(ValueError):
        tp.ProbeEnsemble((tp.Probe(id=0, mean_photons=1.0), tp.Probe(id=0, mean_photons=2.0)))


def test_probe_validation():
    with pytest.raises(ValueError):
        tp.Probe(id=0, mean_photons=-1.0)
    with pytest.raises(ValueError):
        tp.Probe(id=0, mean_photons=1.0, n_pulses=0)
    with pytest.raises(TypeError, match="id must be an integer, got 2.5"):
        tp.Probe(id=2.5, mean_photons=1.0)
    with pytest.raises(TypeError, match="n_pulses must be an integer, got 3000.5"):
        tp.Probe(id=0, mean_photons=1.0, n_pulses=3000.5)
    assert tp.Probe(id=np.int64(3), mean_photons=1.0, n_pulses=np.int32(5)).id == 3


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_check_number_takes_numpy_floats_without_a_warning(dtype):
    # A float32 compared with sys.float_info.max would round it to inf and warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_number("x", dtype(2.1), "(0, inf)")
        _check_number("x", dtype(0.0), "[0, 1]")
        _check_number("x", np.finfo(dtype).max, "(-inf, inf)")
        tp.DetectorPhysicalConfig(sigma0_mv=dtype(2.1))
        tp.Probe(id=0, mean_photons=dtype(6.5))
    for bad in (dtype("inf"), dtype("-inf"), dtype("nan"), dtype(-1.0)):
        with pytest.raises(ValueError, match="x must lie in"):
            _check_number("x", bad, "[0, inf)")


def test_check_number_refuses_an_int_too_large_for_a_float():
    with pytest.raises(ValueError, match=r"x must lie in \(-inf, inf\)"):
        _check_number("x", 10**400, "(-inf, inf)")
    with pytest.raises(ValueError, match=r"n must lie in \[1, inf\)"):
        _check_number("n", 10**400, "[1, inf)", integer=True)


def test_povm_matrix_validation():
    good = np.array([[0.7, 0.2], [0.3, 0.8]])
    assert tp.PovmMatrix(good).n_outcomes == 2
    with pytest.raises(ValueError):
        tp.PovmMatrix(np.array([[0.7, 0.2], [0.4, 0.8]]))  # column sums off
    with pytest.raises(ValueError):
        tp.PovmMatrix(np.array([[1.1, 0.2], [-0.1, 0.8]]))
    with pytest.raises(ValueError):
        tp.PovmMatrix(np.ones((1, 3)))


def test_count_distribution_validation():
    with pytest.raises(ValueError):
        tp.CountDistribution(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        tp.CountDistribution(np.array([1.5, -0.5]))


def test_linear_detector_model_validation():
    for eta, gamma in [(-0.1, 0.0), (0.5, -1.0), (0.5, math.nan), (0.5, math.inf)]:
        with pytest.raises(ValueError):
            tp.binomial_povm(eta, 12, 140, gamma=gamma)
        with pytest.raises(ValueError):
            tp.linear_prediction(eta, 4.0, 12, gamma)
