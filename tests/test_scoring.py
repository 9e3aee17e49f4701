"""The (eta, gamma) fit by Fisher scoring against an independent scipy fit."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.special import gammainc, gammaln, xlogy

import tespovm as tp


def _loglik_and_score(cols, design, theta):
    """Log likelihood of the weights ``cols`` and its gradient in theta, with
    each probe's counts Poisson(design @ theta) and the top bin cumulative,
    through scipy's ``gammaln`` and ``gammainc``."""
    lam = np.maximum(design @ theta, 1e-12)
    ns = np.arange(cols.shape[0] - 1.0)[:, None]
    body = xlogy(ns, lam) - lam - gammaln(ns + 1.0)
    top = np.log(gammainc(cols.shape[0] - 1, lam))
    scores = np.vstack([ns / lam - 1.0, np.exp(body[-1] - top)])
    loglik = float((cols[:-1] * body).sum() + cols[-1] @ top)
    return loglik, design.T @ (cols * scores).sum(axis=0)


def _reference(cols, design):
    """L-BFGS-B over eta in [0, 1] and gamma >= 0, then the root of the
    gradient in the parameters it leaves off their bounds.

    The root-finding polish is needed because L-BFGS-B compares log
    likelihoods, which float64 resolves only to about eps * |loglik|: at
    1e5 events a probe that places the optimum only to about 1e-6
    standard errors.
    """
    lower, upper = np.zeros(2), np.array([1.0, np.inf])
    scale = 1.0 / cols.sum()

    def nll(theta):
        loglik, grad = _loglik_and_score(cols, design, theta)
        return -scale * loglik, -scale * grad

    theta = optimize.minimize(nll, [0.5, 0.0], jac=True, method="L-BFGS-B",
                              bounds=list(zip(lower, upper)),
                              options={"ftol": 0.0, "gtol": 0.0, "maxiter": 1000}).x
    # A parameter the root would take out of its box is held at the bound.
    free = (theta > lower) & (theta < upper)
    while free.any():
        def free_gradient(x):
            full = theta.copy()
            full[free] = x
            return _loglik_and_score(cols, design, full)[1][free]

        root = optimize.root(free_gradient, theta[free], options={"xtol": 1e-15}).x
        out = np.flatnonzero(free)[(root <= lower[free]) | (root >= upper[free])]
        theta[free] = np.clip(root, lower[free], upper[free])
        if not out.size:
            break
        free[out] = False
    return theta


@settings(max_examples=60)
@given(eta=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
       gamma=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
       mus=st.lists(st.floats(0.5, 17.0), min_size=2, max_size=6, unique=True),
       n_pulses=st.integers(2_000, 100_000), n_outcomes=st.integers(4, 20),
       seed=st.integers(0, 2**32 - 1))
# Fits at eta_hat = 1 and gamma_hat = 0, at eta_hat = 1 alone and at
# gamma_hat = 0 alone.
@example(eta=1.0, gamma=0.0, mus=[1.0, 3.0, 6.0], n_pulses=50_000, n_outcomes=12, seed=1)
@example(eta=1.0, gamma=0.3, mus=[1.0, 3.0, 6.0], n_pulses=50_000, n_outcomes=12, seed=1)
@example(eta=0.051, gamma=0.0, mus=[6.5, 30.0, 130.0], n_pulses=100_000, n_outcomes=12,
         seed=2)
def test_scoring_matches_an_lbfgsb_reference(eta, gamma, mus, n_pulses, n_outcomes, seed):
    # A design whose brightest probe puts most events in the top bin leaves
    # (eta, gamma) on a flat ridge, where no solver fixes the optimum.
    n_outcomes = max(n_outcomes, math.ceil(eta * max(mus) + gamma) + 2)
    ens = tp.ProbeEnsemble(tuple(tp.Probe(id=i, mean_photons=m) for i, m in enumerate(mus)))
    rng = np.random.default_rng(seed)
    counts = np.column_stack([
        rng.multinomial(n_pulses, tp.linear_prediction(eta, m, n_outcomes, gamma).probs)
        for m in mus])
    est = tp.estimate_eta_gamma(tp.CountTable.from_counts(counts, probe_ids=ens.ids), ens)
    ref = _reference(counts.astype(float), np.column_stack([mus, np.ones(len(mus))]))
    assert abs(est.eta_hat - ref[0]) <= 1e-8 * est.eta_se
    assert abs(est.gamma_hat - ref[1]) <= 1e-8 * est.gamma_se
