"""Maximum-likelihood efficiency and dark-count estimation.

For a coherent probe of mean mu, binomial thinning by a detector of
efficiency eta gives Poisson(eta * mu) detected counts, and an added
Poissonian background of mean gamma shifts that to Poisson(eta * mu +
gamma) (the linear-detector model). Each probe's outcome probabilities
follow in closed form, with the last outcome cumulative.

Both estimators maximize one pooled likelihood over all probes, in eta
alone or in (eta, gamma), by the bounded Fisher scoring that also fits the
calibration comb (``calibration._maximize``), until a step is shorter than
1e-10 standard errors; a fit that does not get there in 100 steps raises.
Standard errors come from the same Fisher information at the optimum, so
they need the raw event counts of the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import _MAX_STEPS, CountTable, _maximize
from .errors import EstimationError
from .photon_stats import ProbeEnsemble, _poisson_log_probs

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
    maximizer with the other parameter held at its pooled value; skipped
    probes, a probe with every event in the top class (whose likelihood
    has no maximum) and the eta of a probe of mu 0 hold NaN.
    """

    eta_hat: float
    eta_se: float | None
    per_probe_etas: np.ndarray
    loglik: float
    gamma_hat: float | None = None
    gamma_se: float | None = None
    gamma_upper: float | None = None
    per_probe_gammas: np.ndarray | None = None


def _weighted_loglik(weights: np.ndarray, log_probs: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):
        terms = np.where(weights > 0, weights * log_probs, 0.0)
    return float(terms.sum())


def _score(cols: np.ndarray, design: np.ndarray, theta: np.ndarray):
    """Log likelihood, gradient and expected information at theta. Column j
    of ``cols`` weighs the outcomes of probe j, of Poisson mean
    ``design[j] @ theta``: its score is n / lam - 1 in the body and
    pmf(N-2) / P(X >= N-1) at the top."""
    lam = np.maximum(design @ theta, _LAM_MIN)
    log_probs = _poisson_log_probs(lam, cols.shape[0])
    ns = np.arange(cols.shape[0] - 1.0)[:, None]
    scores = np.vstack([ns / lam - 1.0, np.exp(log_probs[-2] - log_probs[-1])])
    per_event = (np.exp(log_probs) * scores**2).sum(axis=0)
    info = design.T @ ((cols.sum(axis=0) * per_event)[:, None] * design)
    return _weighted_loglik(cols, log_probs), design.T @ (cols * scores).sum(axis=0), info


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
    if not cols[:-1].any():
        raise EstimationError(
            "every usable probe has all its events in the top class: the likelihood "
            "rises without bound in the mean count, so it has no maximum"
        )
    mus = probes.mean_photons[used]
    if joint and np.unique(mus).size < 2:
        raise EstimationError(
            "fitting eta and gamma needs usable probes at two or more distinct "
            "mean photon numbers; one mu identifies only eta * mu + gamma"
        )
    n_outcomes, n_used = cols.shape

    # Each probe's own Poisson mean, started from its censored mean count; a
    # probe with every event in the top class has none and keeps NaN.
    lam_j = np.full(n_used, np.nan)
    finite = cols[:-1].any(axis=0)
    own, identity = cols[:, finite], np.eye(finite.sum())
    lam_j[finite] = _maximize(
        lambda lam: _score(own, identity, lam), _LAM_MIN, np.inf,
        np.arange(n_outcomes) @ own / own.sum(axis=0),
        EstimationError(f"the per-probe fits did not converge ({_MAX_STEPS} steps)"),
    )
    # The pooled fit starts from the ratio of the finite means to their mu,
    # at gamma = 0, or at eta = 1 when no lit probe has a finite mean.
    design = np.column_stack([mus, np.ones(n_used)]) if joint else mus[:, None]
    upper = np.array([1.0, np.inf])[: design.shape[1]]
    lit = mus[finite].sum()
    x0 = np.array([lam_j[finite].sum() / lit if lit > 0 else 1.0, 0.0])[: design.shape[1]]
    theta = _maximize(lambda theta: _score(cols, design, theta), 0.0, upper, x0,
                      EstimationError(f"the pooled fit did not converge ({_MAX_STEPS} steps)"))
    loglik, _, info = _score(cols, design, theta)
    eta_hat = float(theta[0])
    gamma_hat = float(theta[1]) if joint else 0.0

    eta_se = gamma_se = None
    if counts.counts is not None:
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
        loglik=loglik,
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
            above zero has all its events in class 0, or all in the top class.
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
            every probe has all its events in class 0, or all in the top class.
    """
    return _fit(counts, ensemble, joint=True)
