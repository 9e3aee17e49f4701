"""Maximum-likelihood efficiency and dark-count estimation.

For a coherent probe of mean mu, binomial thinning by a detector of
efficiency eta gives Poisson(eta * mu) detected counts, and an added
Poissonian background of mean gamma shifts that to Poisson(eta * mu +
gamma) (the linear-detector model). Each probe's outcome probabilities
follow in closed form, with the last outcome cumulative.

Both estimators maximize one pooled likelihood over all probes, in eta
alone or in (eta, gamma), by bounded L-BFGS-B with an analytic gradient.
Standard errors come from the Fisher information at the optimum, so
they need the raw event counts of the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CountTable
from .errors import EstimationError
from .photon_stats import ProbeEnsemble

__all__ = [
    "EfficiencyEstimate",
    "estimate_eta",
    "estimate_eta_gamma",
]

_Z_ONE_SIDED_95 = 1.6448536269514722
# Smallest Poisson mean the fit evaluates: the search may touch
# eta = gamma = 0, where log(lam) and the score diverge.
_LAM_MIN = 1e-12


@dataclass(frozen=True, eq=False)
class EfficiencyEstimate:
    """Detector parameter estimates with Fisher-information uncertainties.

    ``eta_hat`` and ``gamma_hat`` maximize the likelihood pooled over the
    usable probes. ``eta_se`` and ``gamma_se`` are their standard errors
    from the inverse Fisher information at that optimum; ``None`` when
    the table holds probabilities without raw counts, since there is
    then no sample size. ``gamma_upper`` is a one-sided 95 percent upper
    bound, relevant when the estimate sits at the zero boundary.
    ``per_probe_etas`` and ``per_probe_gammas`` are each probe's own
    maximizer with the other parameter held at its pooled value;
    skipped probes, and the eta of a probe of mu 0, hold NaN.
    """

    eta_hat: float
    eta_se: float | None
    per_probe_etas: np.ndarray
    loglik: float
    gamma_hat: float | None = None
    gamma_se: float | None = None
    gamma_upper: float | None = None
    per_probe_gammas: np.ndarray | None = None


def _log_probs(lam, n_outcomes: int) -> np.ndarray:
    """Log outcome probabilities of Poisson(lam) with a cumulative top bin.

    ``lam`` holds one mean per probe; the result has shape
    ``(n_outcomes, lam.size)``. The top bin is P(X >= N-1) =
    ``gammainc(N-1, lam)``.
    """
    from scipy.special import gammainc, gammaln, xlogy
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    ns = np.arange(n_outcomes - 1.0)[:, None]
    with np.errstate(divide="ignore"):
        body = xlogy(ns, lam) - lam - gammaln(ns + 1.0)
        top = np.log(gammainc(n_outcomes - 1, lam))
        # Deep in the lower tail gammainc underflows; its leading term,
        # pmf(N-1), does not.
        top = np.where(np.isneginf(top), body[-1] + np.log(lam / (n_outcomes - 1)), top)
    return np.vstack([body, top])


def _scores(lam: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """Derivatives in ``lam`` > 0 of :func:`_log_probs`.

    n / lam - 1 in the body; at the top, d gammainc(N-1, lam) / d lam =
    pmf(N-2), divided by the top probability.
    """
    ns = np.arange(log_probs.shape[0] - 1.0)[:, None]
    return np.vstack([ns / lam - 1.0, np.exp(log_probs[-2] - log_probs[-1])])


def _weighted_loglik(weights: np.ndarray, log_probs: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):
        terms = np.where(weights > 0, weights * log_probs, 0.0)
    return float(terms.sum())


def _maximize(cols: np.ndarray, design: np.ndarray, lower, upper, x0) -> np.ndarray:
    """Maximize the pooled log likelihood over theta, with lam = design @ theta.

    ``cols`` holds one probe's outcome weights per column and ``design``
    one row per probe. The objective is scaled to the mean per event, so
    the tolerances mean the same for any sample size.
    """
    from scipy import optimize
    scale = 1.0 / cols.sum()

    def nll(theta):
        lam = np.maximum(design @ theta, _LAM_MIN)
        log_probs = _log_probs(lam, cols.shape[0])
        dlam = (cols * _scores(lam, log_probs)).sum(axis=0)
        return -scale * float((cols * log_probs).sum()), -scale * (design.T @ dlam)

    res = optimize.minimize(
        nll, np.clip(x0, lower, upper), jac=True, method="L-BFGS-B",
        bounds=optimize.Bounds(lower, upper),
        options={"ftol": 1e-15, "gtol": 1e-11, "maxiter": 1000},
    )
    return res.x


def _fit(counts: CountTable, ensemble: ProbeEnsemble, joint: bool) -> EfficiencyEstimate:
    """Pooled fit of eta, and of gamma when ``joint``, over the usable probes."""
    probes = ensemble.subset(counts.probe_ids)
    # Pooling in canonical id order makes the fit bitwise permutation-invariant.
    # A probe of mu 0 measures gamma alone, so only the eta fit skips it.
    used = [j for j in np.argsort(counts.probe_ids)
            if joint or probes.probes[j].mean_photons > 0]
    if not used:
        raise EstimationError("no usable probes: every column was degenerate")
    # Event counts weigh the likelihood when the table has them.
    weights = counts.probs if counts.counts is None else counts.counts
    cols = weights[:, used].astype(float)
    if not cols[1:].any():
        raise EstimationError(
            "every usable probe has all its events in class 0: the fit sits on its "
            "zero bound, where the Fisher information gives no standard error"
        )
    mus = probes.mean_photons[used]
    if joint and np.unique(mus).size < 2:
        raise EstimationError(
            "fitting eta and gamma needs usable probes at two or more distinct "
            "mean photon numbers; one mu identifies only eta * mu + gamma"
        )
    n_outcomes, n_used = cols.shape

    # Each probe's own Poisson mean, started from its censored mean count.
    lam_j = _maximize(
        cols, np.eye(n_used), _LAM_MIN, np.inf,
        np.arange(n_outcomes) @ cols / cols.sum(axis=0),
    )
    # The pooled fit starts from the ratio of those means to mu, at gamma = 0.
    design = np.column_stack([mus, np.ones(n_used)]) if joint else mus[:, None]
    upper = np.array([1.0, np.inf])[: design.shape[1]]
    x0 = np.array([lam_j.sum() / mus.sum(), 0.0])[: design.shape[1]]
    theta = _maximize(cols, design, 0.0, upper, x0)
    eta_hat = float(theta[0])
    gamma_hat = float(theta[1]) if joint else 0.0

    lam = np.maximum(design @ theta, _LAM_MIN)
    log_probs = _log_probs(lam, n_outcomes)
    eta_se = gamma_se = None
    if counts.counts is not None:
        per_event = (np.exp(log_probs) * _scores(lam, log_probs) ** 2).sum(axis=0)
        info = design.T @ ((cols.sum(axis=0) * per_event)[:, None] * design)
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        eta_se = float(se[0])
        gamma_se = float(se[1]) if joint else None

    etas = np.full(counts.n_probes, np.nan)
    lit = mus > 0
    etas[np.asarray(used)[lit]] = np.clip((lam_j[lit] - gamma_hat) / mus[lit], 0.0, 1.0)
    gammas = np.full(counts.n_probes, np.nan)
    gammas[used] = np.maximum(lam_j - eta_hat * mus, 0.0)
    return EfficiencyEstimate(
        eta_hat=eta_hat,
        eta_se=eta_se,
        per_probe_etas=etas,
        loglik=_weighted_loglik(cols, log_probs),
        gamma_hat=gamma_hat if joint else None,
        gamma_se=gamma_se,
        gamma_upper=None if gamma_se is None else gamma_hat + _Z_ONE_SIDED_95 * gamma_se,
        per_probe_gammas=gammas if joint else None,
    )


def estimate_eta(counts: CountTable, ensemble: ProbeEnsemble) -> EfficiencyEstimate:
    """Estimate the efficiency by maximum likelihood pooled over the probes.

    The dark-count rate is pinned at zero, so each probe's counts are
    Poisson(eta * mu) with a cumulative top bin. ``eta_se`` comes from
    the Fisher information; ``per_probe_etas`` are the single-probe
    maximizers, in column order. Columns pair with the ensemble's probes
    by id (:meth:`ProbeEnsemble.subset`), and the fit pools them in id
    order, so it is bitwise the same for any column order. Probes of
    mu zero carry no efficiency information: the fit skips them, and
    their ``per_probe_etas`` entry is NaN.

    Raises:
        ValueError: A column id names no probe of the ensemble.
        EstimationError: Every probe was degenerate, or every probe of mu
            above zero has all its events in class 0.
    """
    return _fit(counts, ensemble, joint=False)


def estimate_eta_gamma(counts: CountTable, ensemble: ProbeEnsemble) -> EfficiencyEstimate:
    """Jointly estimate efficiency and dark-count rate.

    A single probe cannot separate eta from gamma (only eta * mu + gamma
    enters its distribution), so both come from the likelihood pooled
    over all probes, with eta in [0, 1] and gamma >= 0. Standard errors
    come from the 2x2 Fisher information at the optimum, also when gamma
    sits at its zero bound. A probe of mu zero measures gamma alone and
    counts in the fit. ``per_probe_etas`` maximize each probe's
    likelihood at the pooled gamma (NaN at mu zero), ``per_probe_gammas``
    at the pooled eta.

    Raises:
        ValueError: A column id names no probe of the ensemble.
        EstimationError: The probes share a single mean photon number, or
            every probe has all its events in class 0.
    """
    return _fit(counts, ensemble, joint=True)
