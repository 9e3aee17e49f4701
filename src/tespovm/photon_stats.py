"""Closed-form photon statistics for linear photon counters.

Coherent probe states carry Poisson photon-number statistics. A lossy
counter with quantum efficiency ``eta`` maps ``m`` incoming photons to
``n`` detections with binomial probability, and a Poissonian background
with mean ``gamma`` adds spurious counts on top. Everything here is a
deterministic pure function over plain arrays and small frozen
dataclasses; no randomness, no I/O.

Conventions used throughout the package:

* POVM matrices have shape ``(n_outcomes, truncation)``; entry ``[n, m]``
  is the probability of reporting ``n`` counts given ``m`` photons.
* The last outcome row is cumulative: it absorbs all probability for
  ``n >= n_outcomes - 1``, so every column sums to one.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "COLUMN_SUM_TOL",
    "Probe",
    "ProbeEnsemble",
    "PovmMatrix",
    "CountDistribution",
    "geometric_ensemble",
    "poisson_pmf",
    "probe_q_matrix",
    "binomial_povm",
    "predict_distribution",
    "linear_prediction",
]

# Columns of a POVM matrix and probability vectors must sum to one
# within this tolerance.
COLUMN_SUM_TOL = 1e-9


def _check_stochastic(arr: np.ndarray, name: str):
    """Raise unless ``arr`` is finite, nonnegative and sums to one along axis 0."""
    if not np.isfinite(arr).all() or arr.min() < 0:
        raise ValueError(f"{name} must be finite and nonnegative")
    worst = np.abs(arr.sum(axis=0) - 1.0).max()
    if worst > COLUMN_SUM_TOL:
        raise ValueError(
            f"{name} must sum to 1 per column within {COLUMN_SUM_TOL}, "
            f"worst deviation {worst:.3e}"
        )


def _check_number(name: str, value, interval: str, integer: bool = False):
    """Raise, naming ``name``, unless ``value`` is a finite real number in ``interval``.

    ``interval`` reads like ``"[0, 1)"``: a bracket closes an end, a
    parenthesis opens it, and ``(-inf`` or ``inf)`` leaves a side unbounded.
    NaN, +-inf and an integer too large for a float are never in range. A
    bool, a non-real value or, with ``integer``, a non-integer raises
    TypeError; a value out of range ValueError.
    """
    number_type = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, number_type):
        kind = "an integer" if integer else "a real number"
        raise TypeError(f"{name} must be {kind}, got {value!r}")
    # As the Python int or float it holds, a NumPy scalar compares exactly:
    # a NumPy integer past 2**53 would be rounded to a float first, and a
    # float32 would round sys.float_info.max to inf.
    number = value.item() if isinstance(value, np.generic) else value
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    above = lo < number if interval[0] == "(" else lo <= number
    below = number < hi if interval[-1] == ")" else number <= hi
    if not (above and below and abs(number) <= sys.float_info.max):
        raise ValueError(f"{name} must lie in {interval}, got {value!r}")


@dataclass(frozen=True)
class Probe:
    """One coherent probe state.

    Attributes:
        id: Integer label, unique within an ensemble.
        mean_photons: Mean photon number of the state, >= 0.
        n_pulses: Number of optical pulses recorded for this probe, >= 1.
    """

    id: int
    mean_photons: float
    n_pulses: int = 100_000

    def __post_init__(self):
        _check_number("id", self.id, "(-inf, inf)", integer=True)
        _check_number("mean_photons", self.mean_photons, "[0, inf)")
        _check_number("n_pulses", self.n_pulses, "[1, inf)", integer=True)


@dataclass(frozen=True)
class ProbeEnsemble:
    """An ordered collection of coherent probes with unique ids."""

    probes: tuple[Probe, ...]

    def __post_init__(self):
        object.__setattr__(self, "probes", tuple(self.probes))
        if len(self.probes) < 1:
            raise ValueError("ensemble needs at least one probe")
        ids = [p.id for p in self.probes]
        if len(set(ids)) != len(ids):
            raise ValueError("probe ids must be unique")

    @property
    def n_probes(self) -> int:
        return len(self.probes)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(p.id for p in self.probes)

    @property
    def mean_photons(self) -> np.ndarray:
        return np.array([p.mean_photons for p in self.probes])

    def with_scaled_means(self, factor: float) -> "ProbeEnsemble":
        """Return a copy with every mean photon number multiplied by ``factor`` > 0."""
        _check_number("factor", factor, "(0, inf)")
        return ProbeEnsemble(tuple(replace(p, mean_photons=p.mean_photons * factor)
                                   for p in self.probes))

    def subset(self, ids: tuple[int, ...]) -> "ProbeEnsemble":
        """Return the sub-ensemble with the given ids, in the given order.

        This is how a count table's columns pair with probes:
        ``ensemble.subset(table.probe_ids)`` holds the probe of each
        column in column order, whatever the order of the ensemble, and
        the ensemble may hold probes the table lacks.

        Raises:
            ValueError: Naming every id the ensemble lacks.
        """
        by_id = {p.id: p for p in self.probes}
        missing = [i for i in ids if i not in by_id]
        if missing:
            raise ValueError(f"the ensemble has no probes with probe ids {missing}")
        return ProbeEnsemble(tuple(by_id[i] for i in ids))


def geometric_ensemble(
    n_probes: int = 20,
    mu_min: float = 6.5,
    mu_max: float = 130.0,
    n_pulses: int = Probe.n_pulses,
) -> ProbeEnsemble:
    """Build a geometrically spaced probe ensemble with ids ``0 .. n_probes-1``.

    The defaults give 20 states from 6.5 to 130 mean photons, the span a
    13 dB attenuator sweep produces from a fixed source.
    """
    _check_number("n_probes", n_probes, "[1, inf)", integer=True)
    _check_number("mu_min", mu_min, "(0, inf)")
    _check_number("mu_max", mu_max, "(0, inf)")
    if mu_max < mu_min:
        raise ValueError("need mu_min <= mu_max")
    mus = np.geomspace(mu_min, mu_max, n_probes)
    return ProbeEnsemble(tuple(Probe(id=j, mean_photons=float(mu), n_pulses=n_pulses)
                               for j, mu in enumerate(mus)))


@dataclass(frozen=True, eq=False)
class PovmMatrix:
    """Column-stochastic POVM matrix for a photon-number-diagonal detector.

    Attributes:
        entries: Array of shape ``(n_outcomes, truncation)``; entry
            ``[n, m]`` is P(report n | m photons). Nonnegative, each
            column sums to one within ``COLUMN_SUM_TOL``. The last row
            absorbs all outcomes ``n >= n_outcomes - 1``.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"entries must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError("need at least two outcome rows")
        _check_stochastic(arr, "entries")
        object.__setattr__(self, "entries", arr)

    @property
    def n_outcomes(self) -> int:
        return self.entries.shape[0]

    @property
    def truncation(self) -> int:
        return self.entries.shape[1]

    def column(self, m: int) -> np.ndarray:
        """Outcome distribution for exactly ``m`` incoming photons."""
        return self.entries[:, m]


@dataclass(frozen=True, eq=False)
class CountDistribution:
    """A normalized distribution over detector outcomes.

    ``truncation_tail`` records any Poisson probe mass beyond the model
    truncation, which was folded into its last photon-number column; zero
    for exact distributions.
    """

    probs: np.ndarray
    truncation_tail: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1:
            raise ValueError("probs must be 1-D")
        _check_stochastic(arr, "probs")
        object.__setattr__(self, "probs", arr)

    @property
    def n_outcomes(self) -> int:
        return self.probs.shape[0]


def _tail_end(lam: float) -> int:
    """K beyond which Poisson(lam) holds below 1e-18: with t = K - lam,
    Bennett's inequality gives P(X >= K) <= exp(-t**2 / (2 (lam + t))),
    whose exponent then exceeds 41.45 > ln(1e18)."""
    return math.ceil(lam + 10.0 * math.sqrt(lam) + 90.0)


# log k! by math.lgamma for k < 4096, beyond the truncation and outcome
# count of any design; a larger k takes one math.lgamma of its own.
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(4096)])


def _log_factorial(ks: np.ndarray) -> np.ndarray:
    """log k! at each nonnegative integer of ``ks``."""
    if ks.max(initial=0) < _LOG_FACTORIAL.size:
        return _LOG_FACTORIAL[ks]
    return np.array([math.lgamma(k + 1.0) for k in ks.ravel().tolist()]).reshape(ks.shape)


def _poisson_log_pmf(lam, ks: np.ndarray) -> np.ndarray:
    """log P(X = k) of Poisson(``lam``), broadcast over the integers ``ks``
    and the means ``lam``; a mean of 0 is the point mass at k = 0."""
    lam = np.asarray(lam, dtype=float)
    log_lam = np.array([math.log(x) if x > 0 else -math.inf for x in lam.ravel().tolist()])
    with np.errstate(invalid="ignore"):  # 0 * log(0) is taken as 0
        k_log_lam = np.where(ks == 0, 0.0, ks * log_lam.reshape(lam.shape))
    return k_log_lam - lam - _log_factorial(ks)


def _poisson_log_probs(lam, n_outcomes: int) -> np.ndarray:
    """Log outcome probabilities, shape ``(n_outcomes, lam.size)``, of
    Poisson(``lam``) with a cumulative top bin P(X >= N-1). Above mean N-1
    the top bin is one less the body; below, its terms summed to the tail
    bound at mean N-1, so its cost does not grow with the mean."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    top = n_outcomes - 1
    log_pmf = _poisson_log_pmf(lam, np.arange(_tail_end(top) + 1)[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.log1p(-np.exp(log_pmf[:top]).sum(axis=0))
    tail = np.where(lam > top, rest, np.logaddexp.reduce(log_pmf[top:], axis=0))
    return np.vstack([log_pmf[:top], tail])


def poisson_pmf(mu: float, m) -> float | np.ndarray:
    """Poisson probability mass exp(-mu) mu^m / m!.

    Evaluated in log space from ``math.lgamma`` log-factorials, so that
    photon numbers of several hundred stay finite, at a cost that grows
    with the number of values of ``m``, not with the largest.

    Args:
        mu: Mean, finite and >= 0.
        m: Nonnegative integer or integer array of outcomes.

    Returns:
        Scalar float for scalar ``m``, else an array of the same shape.
    """
    _check_number("mu", mu, "[0, inf)")
    m_arr = np.asarray(m)
    scalar = m_arr.ndim == 0
    if not np.issubdtype(m_arr.dtype, np.integer):
        if not np.all(np.equal(np.mod(m_arr, 1), 0)):
            raise ValueError("m must be integer-valued")
        m_arr = m_arr.astype(np.int64)
    if m_arr.size and m_arr.min() < 0:
        raise ValueError("m must be >= 0")
    out = np.exp(_poisson_log_pmf(mu, m_arr))
    return float(out) if scalar else out


def probe_q_matrix(
    ensemble: ProbeEnsemble, truncation: int
) -> tuple[np.ndarray, np.ndarray]:
    """Poisson source matrix for an ensemble, plus truncation diagnostics.

    Args:
        ensemble: Probes with mean photon numbers mu_j.
        truncation: Number of photon-number rows M (m = 0 .. M-1).

    The Poisson mass beyond the truncation is folded into the last row,
    so every column sums to one. The fold counts that mass as M - 1
    photons, which biases the predicted statistics of bright probes:
    for mu = 130 and M = 140 about a fifth of the mass lies in the tail,
    and at eta = 0.051 the mean detected count is 7.1 at m = 139 but
    8.7 at m = 170. Choose M well above the brightest probe where that
    matters.

    Returns:
        ``(q, tail)`` where ``q`` has shape ``(truncation, n_probes)``,
        ``q[m, j] = poisson_pmf(mu_j, m)`` for ``m < truncation - 1``,
        and ``tail[j]`` is the folded Poisson mass of probe ``j``.
    """
    _check_number("truncation", truncation, "[1, inf)", integer=True)
    q = np.exp(_poisson_log_pmf(ensemble.mean_photons[None, :], np.arange(truncation)[:, None]))
    tail = np.maximum(0.0, 1.0 - q.sum(axis=0))
    q[-1] += tail
    return q, tail


def _binomial_rows(eta: float, n_rows: int, truncation: int) -> np.ndarray:
    """Raw binomial pmf table B[n, m] for n < n_rows, without a cumulative row."""
    ns = np.arange(n_rows)[:, None]
    ms = np.arange(truncation)[None, :]
    if eta == 0.0:
        return np.where(ns == 0, 1.0, 0.0) * np.ones((1, truncation))
    if eta == 1.0:
        return (ns == ms).astype(float)
    diff = np.maximum(ms - ns, 0)
    logpmf = (
        _log_factorial(ms)
        - _log_factorial(ns)
        - _log_factorial(diff)
        + ns * math.log(eta)
        + diff * math.log1p(-eta)
    )
    return np.where(ns <= ms, np.exp(logpmf), 0.0)


def binomial_povm(
    eta: float, n_outcomes: int, truncation: int, gamma: float = 0.0
) -> PovmMatrix:
    """POVM matrix of a linear detector: efficiency ``eta``, dark counts ``gamma``.

    Rows ``n < n_outcomes - 1`` hold the Binomial(m, eta) pmf at n,
    convolved with Poisson(``gamma``) dark counts:

        Pi[n, m] = exp(-gamma) * sum_{j=0}^{n} gamma^j / j! * B[n-j, m]

    The last row is the cumulative remainder so columns sum to one
    exactly. At ``gamma`` = 0 the convolution matrix is the identity, so
    the rows are the binomial pmf exactly.

    Args:
        eta: Quantum efficiency in [0, 1].
        n_outcomes: Number of outcome rows N, >= 2.
        truncation: Number of photon-number columns M, >= 1.
        gamma: Mean dark counts per pulse, finite and >= 0.
    """
    _check_number("eta", eta, "[0, 1]")
    _check_number("gamma", gamma, "[0, inf)")
    _check_number("n_outcomes", n_outcomes, "[2, inf)", integer=True)
    _check_number("truncation", truncation, "[1, inf)", integer=True)
    i = np.arange(n_outcomes - 1)
    w = poisson_pmf(gamma, i)
    # Lower-triangular Toeplitz matrix: row n holds w[n], w[n-1], ..., w[0].
    d = i[:, None] - i[None, :]
    body = np.where(d >= 0, w[np.maximum(d, 0)], 0.0) @ _binomial_rows(
        eta, n_outcomes - 1, truncation
    )
    top = np.maximum(1.0 - body.sum(axis=0), 0.0)
    return PovmMatrix(np.vstack([body, top]))


def predict_distribution(povm: PovmMatrix, mu: float) -> CountDistribution:
    """Outcome distribution of a detector POVM probed with a coherent state.

    Computes ``r_n = sum_m Pi[n, m] q_m(mu)`` over the POVM truncation, with
    ``q`` the column of :func:`probe_q_matrix`: Poisson mass beyond the
    truncation is folded into the last photon-number column and reported
    in ``truncation_tail``.
    """
    q, tail = probe_q_matrix(ProbeEnsemble((Probe(id=0, mean_photons=mu),)), povm.truncation)
    probs = np.maximum(povm.entries @ q[:, 0], 0.0)
    return CountDistribution(probs, truncation_tail=float(tail[0]))


def linear_prediction(
    eta: float, mu: float, n_outcomes: int, gamma: float = 0.0
) -> CountDistribution:
    """Closed-form outcome distribution of a linear detector.

    Binomial thinning of a Poisson source is again Poisson, and Poisson
    dark counts add to its mean, so the body of the distribution is the
    Poisson(eta * mu + gamma) pmf and the last outcome absorbs the upper
    tail, as the estimators fit it.
    """
    _check_number("eta", eta, "[0, 1]")
    _check_number("mu", mu, "[0, inf)")
    _check_number("gamma", gamma, "[0, inf)")
    _check_number("n_outcomes", n_outcomes, "[2, inf)", integer=True)
    return CountDistribution(np.exp(_poisson_log_probs(eta * mu + gamma, n_outcomes)[:, 0]))
