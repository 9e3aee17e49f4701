"""Pulse-height calibration: comb fitting, count binning, thresholds.

A TES puts the pulse height of ``k`` detected photons at ``baseline + k *
spacing`` with a width ``sigma0 + k * sigma_slope``. That four-parameter
Gaussian comb is fitted once to a run's pooled histogram, its traces'
counts summed on one grid, which numbers its teeth, so component index is
detected count in every probe; each trace keeps its own nonnegative weight
(expected events) per tooth of that one comb. A probe whose histogram the
comb does not describe fails loudly. Count class ``n`` holds a probe's
tooth-``n`` weight (:func:`bin_counts_by_area`), so events where two teeth
overlap are shared as the fit shares them; :func:`bin_counts` cuts at the
density minima between adjacent teeth instead (:func:`place_thresholds`).
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import CalibrationError
from .photon_stats import _check_number, _check_stochastic
from .tes_sim import AmplitudeTrace

__all__ = [
    "DEFAULT_BIN_WIDTH_MV",
    "MIN_EVENTS",
    "MAX_GOODNESS",
    "MAX_BINS",
    "WEIGHT_FLOOR_EVENTS",
    "GaussianComponent",
    "GaussianMixtureFit",
    "ThresholdSet",
    "CountTable",
    "fit_peaks",
    "fit_run",
    "place_thresholds",
    "bin_counts",
    "bin_counts_by_area",
    "counts_by_area",
]

# Histogram bin width, unless the run's config says otherwise.
DEFAULT_BIN_WIDTH_MV = 1.3

# Fewer events than this cannot support a comb fit.
MIN_EVENTS = 100

# Comb teeth below the lowest, or above the highest, tooth carrying this
# many expected events are dropped.
WEIGHT_FLOOR_EVENTS = 10.0

# A fit whose reduced chi-square exceeds this does not describe its
# histogram: its peaks are unresolved or not on one comb.
MAX_GOODNESS = 3.0

# A trace's histogram, and the run's pool of them, may have at most this
# many bins: 40 times the 1 637 of a bright run's pool (eta 0.9, gamma
# 0.2), whose 164 comb teeth would then take 86 MB of bin masses.
MAX_BINS = 2**16

_SQRT2PI = math.sqrt(2.0 * math.pi)
_PEAK_SIGMAS = 4.0  # a peak's least prominence, in sqrt(height)
_REFINE_POINTS = 17  # points of each nested grid that narrows a threshold's bracket
_THRESHOLD_XATOL_MV = 1e-3  # width at which a threshold's bracket stops narrowing

# A bounded Newton-type fit (_maximize) stops after a step shorter than 1e-10
# standard errors, and fails after _MAX_STEPS steps.
_DECREMENT_TOL = 1e-20
_MAX_STEPS = 100


def _ndtr(z) -> np.ndarray:
    """The standard normal CDF at each entry of ``z``, ``erfc(-z / sqrt(2)) / 2``.

    Entries where it rounds to exactly 0 (below -38.5) or 1 (above 8.5)
    are set, not evaluated.
    """
    z = np.asarray(z, dtype=float)
    out = (z > 0).astype(float)
    inside = (z > -38.5) & (z < 8.5)
    v = (-z[inside] * math.sqrt(0.5)).tolist()
    out[inside] = 0.5 * np.fromiter(map(math.erfc, v), float, len(v))
    return out


def _nnls(gram: np.ndarray, rhs: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Lawson and Hanson's nonnegative least squares on the normal equations.

    Returns the ``x >= 0`` that minimises ``|A x - b|`` given ``gram = A.T @
    A`` and ``rhs = A.T @ b``. ``passive`` marks the entries first taken to
    be positive: the least squares solution on them, less every entry that
    is not positive, starts Lawson and Hanson's loop, which frees the entry
    of largest gradient ``rhs - gram @ x`` and re-solves, stepping back to
    the last feasible point and dropping the entries that reach zero while
    an entry would not be positive. It returns only at a point that meets
    the Karush-Kuhn-Tucker conditions, every gradient entry of a zero entry
    at most its rounding error, so the start changes the time taken and not
    the answer.

    Raises:
        CalibrationError: The loop freed an entry ``3 * n`` times, scipy's
            default limit, without meeting the conditions.
    """
    n = rhs.size
    # A column of zeros takes no weight, and would make the solves singular.
    passive = np.array(passive, dtype=bool) & (np.diag(gram) > 0.0)
    x = np.zeros(n)
    for _ in range(3 * n):
        while True:
            at = np.flatnonzero(passive)
            solution = np.zeros(n)
            solution[at] = np.linalg.solve(gram[np.ix_(at, at)], rhs[at])
            blocked = at[solution[at] <= 0.0]
            if blocked.size == 0:
                break
            # Zero where x is: those entries leave without a step.
            share = np.divide(x[blocked], x[blocked] - solution[blocked],
                              out=np.zeros(blocked.size), where=x[blocked] > 0.0)
            step = share.min()
            x += step * (solution - x)
            stopped = blocked[share <= step]
            x[stopped] = 0.0
            passive[stopped] = False
        x = solution
        zero = np.flatnonzero(~passive)
        gradient = rhs[zero] - gram[zero] @ x
        rounding = 10.0 * n * np.finfo(float).eps * (np.abs(rhs[zero]) + np.abs(gram[zero]) @ x)
        rising = gradient > rounding
        if not rising.any():
            return x
        passive[zero[rising][np.argmax(gradient[rising])]] = True
    raise CalibrationError(f"tooth weights did not converge ({3 * n} iterations)")


def _maximize(score, lower, upper, x0, failure: Exception):
    """Maximize a log likelihood over x in [lower, upper] by Fisher scoring
    (Osborne 1992): Newton's method with the expected information.

    ``score(x)`` gives ``(loglik, gradient, information)`` at ``x``. A
    parameter at a bound that its gradient points past is held there; the
    others take the step, clipped to the bounds and halved while the log
    likelihood falls by more than rounding. It returns, untried, the first
    step whose Newton decrement, its squared length in standard errors, is
    below ``_DECREMENT_TOL``. A Poisson-weighted least squares is one such
    likelihood, with half its squared residuals ``r`` the negative log
    likelihood, ``-J.T @ r`` the gradient and ``J.T @ J`` the information of
    their Jacobian ``J`` (Gauss-Newton).

    Raises:
        failure: ``_MAX_STEPS`` steps left the decrement above tolerance.
    """
    theta = np.clip(x0, lower, upper)
    loglik, grad, info = score(theta)
    for _ in range(_MAX_STEPS):
        free = ~(((theta <= lower) & (grad <= 0)) | ((theta >= upper) & (grad >= 0)))
        step = np.zeros_like(theta)
        step[free] = np.linalg.solve(info[np.ix_(free, free)], grad[free])
        if grad @ step <= _DECREMENT_TOL:
            return np.clip(theta + step, lower, upper)
        for halvings in range(20):
            trial = np.clip(theta + step / 2**halvings, lower, upper)
            result = score(trial)
            if result[0] >= loglik - 1e-12 * abs(loglik):
                break
        theta, (loglik, grad, info) = trial, result
    raise failure


@dataclass(frozen=True)
class GaussianComponent:
    """One fitted peak: expected event count, location and width in mV."""

    weight: float
    mean_mv: float
    sigma_mv: float


@dataclass(frozen=True, eq=False)
class GaussianMixtureFit:
    """A multi-Gaussian fit to a binned pulse-height spectrum.

    Components are ordered by strictly increasing mean; component ``i``
    is the peak of ``i`` detected counts, and its weight the events the fit
    gives it, so the weights sum to about the trace's events. ``goodness``
    is the reduced chi-square of the Poisson-weighted fit. ``spacing_mv``
    is the spacing of the comb the components sit on; every fit of
    :func:`fit_run` has one, and a fit built by hand may leave it ``None``.
    """

    components: tuple[GaussianComponent, ...]
    goodness: float
    spacing_mv: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("fit must hold at least one component")
        means = self.means
        if np.any(np.diff(means) <= 0):
            raise ValueError("component means must be strictly increasing")
        for c in self.components:
            _check_number("component weight", c.weight, "[0, inf)")
            _check_number("component sigma_mv", c.sigma_mv, "(0, inf)")

    @property
    def means(self) -> np.ndarray:
        return np.array([c.mean_mv for c in self.components])

    @property
    def n_components(self) -> int:
        return len(self.components)

    def density(self, x) -> np.ndarray:
        """Event-weighted mixture density (events per mV) at ``x``."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for c in self.components:
            z = (x - c.mean_mv) / c.sigma_mv
            out = out + c.weight / (c.sigma_mv * _SQRT2PI) * np.exp(-0.5 * z * z)
        return out


@dataclass(frozen=True)
class ThresholdSet:
    """Sorted decision boundaries between adjacent count classes, which
    only the acceptance criteria and the benchmark's library chain use."""

    cut_points_mv: tuple[float, ...]

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.cut_points_mv)
        if any(not math.isfinite(c) for c in cuts):
            raise ValueError("cut points must be finite")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise ValueError("cut points must be strictly increasing")
        object.__setattr__(self, "cut_points_mv", cuts)


@dataclass(frozen=True, eq=False)
class CountTable:
    """Outcome-by-probe count statistics.

    A table holds either event ``counts`` or, for exact model
    probabilities, ``probs`` alone, never both. A counted table derives
    ``probs`` from its counts, column by column, so the two cannot
    disagree and no column is empty; a table without counts has
    ``counts=None``. ``probe_ids``, a 1-D sequence or array of integers,
    names the probe of each column; when none are given (``None`` or
    empty) the columns are probes ``0 .. n-1``. Consumers pair columns
    with probes by these ids through ``ensemble.subset(table.probe_ids)``,
    never by position.
    """

    probs: np.ndarray | None = None
    counts: np.ndarray | None = None
    probe_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        if (self.probs is None) == (self.counts is None):
            raise ValueError("give counts or probs, not both: a counted table "
                             "derives its probs")
        if self.counts is not None:
            counts = np.asarray(self.counts)
            if not np.issubdtype(counts.dtype, np.integer):
                raise ValueError("counts must be integers")
            counts = counts.astype(np.int64)
            if counts.min() < 0:
                raise ValueError("counts must be >= 0")
            totals = counts.sum(axis=0)
            if np.any(totals == 0):
                raise ValueError(f"count columns {np.flatnonzero(totals == 0).tolist()} "
                                 "have no events")
            object.__setattr__(self, "counts", counts)
            object.__setattr__(self, "probs", counts / totals)
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise ValueError("probs must be 2-D (outcomes x probes)")
        _check_stochastic(probs, "probs")
        object.__setattr__(self, "probs", probs)
        ids = self.probe_ids
        if isinstance(ids, np.ndarray):
            ids = ids.tolist()
        if ids is not None and (isinstance(ids, (str, bytes)) or not isinstance(ids, Sequence)):
            raise TypeError(f"probe_ids must be a sequence of integers, got {self.probe_ids!r}")
        ids = tuple(ids or range(probs.shape[1]))
        for i in ids:
            _check_number("probe_ids", i, "(-inf, inf)", integer=True)
        if len(ids) != probs.shape[1]:
            raise ValueError("probe_ids must match the number of columns")
        if len(set(ids)) != len(ids):
            raise ValueError("probe_ids must be unique")
        object.__setattr__(self, "probe_ids", tuple(int(i) for i in ids))

    @classmethod
    def from_counts(cls, counts, probe_ids=None) -> "CountTable":
        return cls(counts=counts, probe_ids=probe_ids)

    @classmethod
    def from_probs(cls, probs, probe_ids=None) -> "CountTable":
        return cls(probs=probs, probe_ids=probe_ids)

    @property
    def n_outcomes(self) -> int:
        return self.probs.shape[0]

    @property
    def n_probes(self) -> int:
        return self.probs.shape[1]


def _peak_search(x: np.ndarray):
    """Every local maximum of ``x``, its prominence, bases and width.

    A peak is a run of equal samples with a lower sample on each side; it
    sits at the run's middle, ``(first + last) // 2``. Its bases are the
    lowest samples on each side out to the nearest strictly higher one (or
    the end), each the one nearest the peak when values tie, and its
    prominence is its height above the higher base. Its width is taken at
    half prominence, interpolated linearly between samples and bounded by
    the bases. These are scipy.signal's ``find_peaks`` with ``height`` and
    ``prominence`` 0 and its ``peak_widths``, bit for bit.

    Returns:
        ``(peaks, prominences, left_bases, right_bases, widths)``, one
        entry per peak.
    """
    n = x.size
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:] - 1, n - 1]
    level = x[starts]
    top = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = (starts[top] + ends[top]) // 2
    prominences, widths = np.empty(peaks.size), np.empty(peaks.size)
    left_bases, right_bases = np.empty_like(peaks), np.empty_like(peaks)
    for k, p in enumerate(peaks):
        higher = np.flatnonzero(x[:p] > x[p])
        lo = higher[-1] + 1 if higher.size else 0
        higher = np.flatnonzero(x[p:] > x[p])
        hi = p + higher[0] if higher.size else n
        left = p - np.argmin(x[lo:p + 1][::-1])
        right = p + np.argmin(x[p:hi])
        prominences[k] = x[p] - max(x[left], x[right])
        # Neither base lies above half prominence, so each side reaches it.
        half = x[p] - prominences[k] * 0.5
        i = left + np.flatnonzero(x[left:p + 1] <= half)[-1]
        j = p + np.flatnonzero(x[p:right + 1] <= half)[0]
        left_ip = i + (half - x[i]) / (x[i + 1] - x[i]) if x[i] < half else float(i)
        right_ip = j - (half - x[j]) / (x[j - 1] - x[j]) if x[j] < half else float(j)
        left_bases[k], right_bases[k], widths[k] = left, right, right_ip - left_ip
    return peaks, prominences, left_bases, right_bases, widths


@dataclass(eq=False)
class _Spectrum:
    """Events per bin on the run's grid, whose edges are the bin width
    times the integers from ``first`` on, and their prominent peaks.

    The histogram is smoothed by a three-bin running mean. Its peaks are
    the local maxima of :func:`_peak_search` whose prominence is at least
    ``_PEAK_SIGMAS`` times the square root of their height, and whose
    valley before the previous such peak dips that far below the lower of
    the two; of two without that valley the higher stays. ``widths`` holds
    their widths at half prominence, in bins.
    """

    counts: np.ndarray
    first: int
    bin_width: float

    @classmethod
    def of(cls, amps: np.ndarray, bin_width: float) -> "_Spectrum":
        """A trace histogrammed over its own data, in at most ``MAX_BINS`` bins."""
        lo, hi = float(amps.min()) / bin_width, float(amps.max()) / bin_width
        n_bins = math.inf  # if either end overflows
        if math.isfinite(hi - lo):
            # One bin lower where lo rounded up onto an integer above the data.
            first = math.floor(lo) - int(bin_width * math.floor(lo) > amps.min())
            n_bins = math.ceil(hi - first) + 1
        if n_bins > MAX_BINS:
            raise ValueError(f"bin_width_mv {bin_width:g} cuts amplitudes from {amps.min():g} "
                             f"to {amps.max():g} mV into more than {MAX_BINS} bins")
        edges = bin_width * (first + np.arange(n_bins + 1))
        return cls(np.histogram(amps, bins=edges)[0].astype(float), first, bin_width)

    @classmethod
    def pooled(cls, spectra) -> "_Spectrum":
        """The sum of spectra on one grid, over all of their bins."""
        first = min(s.first for s in spectra)
        n_bins = max(s.first + s.counts.size for s in spectra) - first
        if n_bins > MAX_BINS:
            raise ValueError(f"bin_width_mv {spectra[0].bin_width:g} cuts the run's amplitudes "
                             f"into {n_bins} bins, more than {MAX_BINS}")
        counts = np.zeros(n_bins)
        for s in spectra:
            counts[s.first - first:s.first - first + s.counts.size] += s.counts
        return cls(counts, first, spectra[0].bin_width)

    def __post_init__(self):
        bw = self.bin_width
        self.edges = bw * (self.first + np.arange(self.counts.size + 1))
        self.centers = self.edges[:-1] + 0.5 * bw

    @functools.cached_property
    def smooth(self) -> np.ndarray:
        return np.convolve(self.counts, np.ones(3) / 3.0, mode="same")

    @property
    def peaks(self) -> np.ndarray:
        return self._prominent[0]

    @property
    def widths(self) -> np.ndarray:
        return self._prominent[1]

    @functools.cached_property
    def _prominent(self):
        """The prominent peaks and their widths, searched for when first
        asked: the comb is fitted to a pool whose peaks nothing reads."""
        y = self.smooth
        peaks, prominences, _, _, widths = _peak_search(y)
        # A bump that rises only a few Poisson deviations above its
        # surroundings is noise; one in the tail would skew the spacing.
        # Prominence looks past a neighbour of equal height, so two maxima
        # of one smooth hump can both pass: their valley tells them apart.
        kept = []
        for i in np.flatnonzero(prominences >= _PEAK_SIGMAS * np.sqrt(y[peaks])):
            if kept:
                j = kept[-1]
                lower = min(y[peaks[i]], y[peaks[j]])
                if lower - y[peaks[j]:peaks[i]].min() < _PEAK_SIGMAS * math.sqrt(lower):
                    kept[-1] = i if y[peaks[i]] > y[peaks[j]] else j
                    continue
            kept.append(i)
        return peaks[kept], widths[kept]

    def teeth(self, base, spacing) -> np.ndarray:
        """Teeth centred within the data, which alone may hold its events
        (one outside would only soak up tails), or else the next one up."""
        first = max(0, math.ceil((self.edges[0] - base) / spacing))
        return np.arange(first, max(first, math.floor((self.edges[-1] - base) / spacing)) + 1)

    def standard(self, comb, teeth) -> np.ndarray:
        """Each bin edge in standard deviations above each tooth's mean."""
        base, spacing, sigma0, sigma_slope = comb
        return (self.edges[:, None] - (base + teeth * spacing)) / (sigma0 + teeth * sigma_slope)

    def mass(self, comb, teeth) -> np.ndarray:
        """Share of each tooth's events in each bin under one trial comb."""
        return np.diff(_ndtr(self.standard(comb, teeth)), axis=0)


class _Weighing:
    """The nonnegative least-squares weights of a histogram's tooth
    ``mass`` columns, bins weighted by their ``variance`` (at least 1), from
    the ``passive`` start of :func:`_nnls`, and the weighted residuals; with
    the weighted ``design``, its Gram matrix and the bins' ``inv_err``."""

    def __init__(self, mass, counts, variance, passive):
        self.inv_err = 1.0 / np.sqrt(np.maximum(variance, 1.0))
        self.design = mass * self.inv_err[:, None]
        target = counts * self.inv_err
        self.gram = self.design.T @ self.design
        self.weights = _nnls(self.gram, self.design.T @ target, passive)
        self.residuals = self.design @ self.weights - target


class _CombSolve(_Weighing):
    """A histogram's Poisson-weighted tooth weights under one trial comb,
    from every tooth taken to carry weight unless a ``passive`` start is
    given, with the standardised bin edges ``z`` its Jacobian needs."""

    def __init__(self, spectrum: _Spectrum, comb, teeth, passive=None):
        self.comb, self.teeth = np.array(comb, dtype=float), teeth
        self.z = spectrum.standard(self.comb, teeth)
        if passive is None:
            passive = np.ones(teeth.size, dtype=bool)
        super().__init__(np.diff(_ndtr(self.z), axis=0), spectrum.counts, spectrum.counts,
                         passive)

    def jacobian(self) -> np.ndarray:
        """Kaufman's variable-projection Jacobian of the residuals.

        The derivative of the weighted bins at fixed tooth weights, taken
        off the span of the teeth that carry weight. It drops a term that
        lies in that span, to which the residuals are orthogonal, so its
        gradient of half the squared residuals is exact.
        """
        comb = self.comb
        free = self.weights > 0
        k = self.teeth[free]
        z = self.z[:, free]
        # The event density at each edge per standard deviation of its tooth;
        # dz/d(base, spacing, sigma0, sigma_slope) = -(1, k, z, k z) / sigma_k.
        u = np.exp(-0.5 * z * z) * (self.weights[free] / ((comb[2] + k * comb[3]) * _SQRT2PI))
        zu = z * u
        edge = np.stack([u.sum(axis=1), u @ k, zu.sum(axis=1), zu @ k], axis=1)
        grad = -np.diff(edge, axis=0) * self.inv_err[:, None]
        design = self.design[:, free]
        return grad - design @ np.linalg.solve(self.gram[np.ix_(free, free)], design.T @ grad)


def fit_run(traces, bin_width_mv: float = DEFAULT_BIN_WIDTH_MV) -> tuple[dict, dict]:
    """Fit one Gaussian comb to all traces of a run.

    One detector puts tooth ``k`` at ``baseline + k * spacing`` with width
    ``sigma0 + k * sigma_slope`` in every trace, so a tooth has one label in
    every probe. The traces' prominent peaks, in probe-id order, seed the
    comb. A trace's expected bins are linear in its tooth weights, so the
    run's pooled histogram, its traces' counts summed on one grid, is the
    same comb with summed weights: one Poisson-weighted least squares over
    the pooled bins fits it and numbers the teeth. It is solved as a
    likelihood by the bounded Fisher scoring that fits (eta, gamma)
    (:func:`_maximize`), here Gauss-Newton, until a step is shorter than
    1e-10 standard errors, with Kaufman's variable-projection Jacobian
    (:meth:`_CombSolve.jacobian`) in closed form, so an evaluation solves
    one set of tooth weights for the whole run (:func:`_nnls`). A run of one
    trace pools to its own histogram. Every probe's components sit on that
    comb: a trace's tooth weights, over the teeth centred within its data,
    solve its own nonnegative least squares, last with the model's bin
    variances, and a trace whose peaks leave the comb fails its goodness
    gate rather than moving the comb. The zero tooth is the lowest to which
    some probe gives ``WEIGHT_FLOOR_EVENTS`` events and beside which no
    probe holds more one-count events than Poisson light allows
    (:func:`_admits_zero`): a tooth fitted to the tail of a zero peak, or to
    stray events below it, is not the zero. A probe's components run from
    it, empty or not, to its highest tooth holding ``WEIGHT_FLOOR_EVENTS``,
    unfolded: the count classes fold once, when counted
    (:func:`counts_by_area`, :func:`bin_counts`). A run of no traces, or of
    traces too sparse to fit, only checks the settings and gives no fits. It
    keeps of each trace only its histogram, which holds every one of its
    events (:func:`_histogram`, which ``calibrate`` takes on the thread that
    read the trace), and fits the comb to those (:func:`_fit_comb`).

    Returns:
        ``(fits, failures)`` by probe id. A probe fails with a
        :class:`CalibrationError` when its trace has fewer than
        ``MIN_EVENTS`` events, its reduced chi-square exceeds
        ``MAX_GOODNESS`` or no tooth of it reaches the weight floor; every
        probe fails when no tooth is a zero every probe admits.

    Raises:
        CalibrationError: No trace with enough events shows two prominent
            peaks, so the run has no photon-number scale, or the run's
            comb fit did not converge in ``_MAX_STEPS`` steps.
    """
    _check_number("bin_width_mv", bin_width_mv, "(0, inf)")
    return _fit_comb((t.probe_id, _histogram(t, bin_width_mv)) for t in traces)


def _histogram(trace: AmplitudeTrace, bin_width_mv: float = DEFAULT_BIN_WIDTH_MV):
    """What :func:`fit_run` keeps of a trace: its histogram, or the
    :class:`CalibrationError` of a trace with fewer than ``MIN_EVENTS`` events."""
    if trace.n_pulses < MIN_EVENTS:
        return CalibrationError(f"trace has {trace.n_pulses} events, need at least {MIN_EVENTS}")
    return _Spectrum.of(np.asarray(trace.amplitudes_mv, float), bin_width_mv)


def _fit_comb(histograms) -> tuple[dict, dict]:
    """:func:`fit_run` on ``(probe id, histogram or exception)`` pairs;
    a probe paired with an exception fails with it."""
    by_id = {}
    for pid, histogram in histograms:
        if pid in by_id:
            raise ValueError(f"probe id {pid} is repeated")
        by_id[pid] = histogram
    failures = {pid: h for pid, h in by_id.items() if isinstance(h, Exception)}
    spectra = {pid: h for pid, h in sorted(by_id.items()) if pid not in failures}
    if not spectra:
        return {}, failures
    resolved = [s.centers[s.peaks] for s in spectra.values() if s.peaks.size >= 2]
    if not resolved:
        raise CalibrationError("no trace shows two prominent peaks: the run has no "
                               "photon-number scale")
    # The median gap between adjacent peaks of every trace is robust
    # to a missed peak. The traces' runs of peaks, over the whole number
    # of gaps they span, refine it; a hump split into two peaks spans none.
    gap = float(np.median(np.concatenate([np.diff(at) for at in resolved])))
    spans = [at[-1] - at[0] for at in resolved]
    steps = [round(span / gap) for span in spans]
    spacing = sum(span for span, n in zip(spans, steps) if n) / sum(steps)
    low = min((s for s in spectra.values() if s.peaks.size),
              key=lambda s: s.centers[s.peaks[0]])
    first = low.centers[low.peaks[0]]
    start = min(s.edges[0] for s in spectra.values())
    base = first - math.floor((first - start) / spacing) * spacing
    # A first peak merged with its neighbour looks wider than its tooth.
    width = low.widths[0] * low.bin_width / 2.355
    x0 = [base, spacing, min(width, spacing / 4.0), 0.0]
    lo = [base - spacing / 2.0, spacing / 2.0, low.bin_width / 4.0, 0.0]
    hi = [base + spacing / 2.0, 1.5 * spacing, spacing, spacing / 2.0]
    pool = _Spectrum.pooled(list(spectra.values()))
    pool_teeth = pool.teeth(base, spacing)
    support = None

    def score(comb):
        # Each evaluation starts its tooth weights from the last one's.
        nonlocal support
        solve = _CombSolve(pool, comb, pool_teeth, support)
        support = solve.weights > 0
        jac, resid = solve.jacobian(), solve.residuals
        return -0.5 * float(resid @ resid), -(jac.T @ resid), jac.T @ jac

    x = _maximize(score, lo, hi, x0,
                  CalibrationError(f"comb fit did not converge ({_MAX_STEPS} steps)"))
    comb = base, spacing, sigma0, sigma_slope = tuple(map(float, x))

    # Every trace's edges and teeth are some of the pool's edges and of
    # these teeth, so its bin masses are a block of theirs.
    teeth_of = {pid: s.teeth(base, spacing) for pid, s in spectra.items()}
    low_tooth = min(t[0] for t in teeth_of.values())
    masses = pool.mass(comb, np.arange(low_tooth, max(t[-1] for t in teeth_of.values()) + 1))
    solved, lowest = {}, set()
    for pid, s in spectra.items():
        numbers = teeth_of[pid]
        at = s.first - pool.first
        mass = masses[at:at + s.counts.size, numbers[0] - low_tooth:numbers[-1] - low_tooth + 1]
        # Counts as variances bias the weights low where counts are sparse;
        # the fitted model's variances do not.
        counted = _Weighing(mass, s.counts, s.counts, np.ones(numbers.size, dtype=bool))
        modelled = _Weighing(mass, s.counts, mass @ counted.weights, counted.weights > 0)
        w, resid = modelled.weights, modelled.residuals
        goodness = float(resid @ resid) / max(1, resid.size - len(comb) - numbers.size)
        if goodness > MAX_GOODNESS:
            failures[pid] = CalibrationError(
                f"comb fit does not describe the histogram: reduced chi-square "
                f"{goodness:.4g} > {MAX_GOODNESS} (peaks unresolved or off the comb)"
            )
            continue
        lowest.update(numbers[w >= WEIGHT_FLOOR_EVENTS][:1].tolist())
        # Teeth below the trace's data hold none of its events.
        solved[pid] = np.bincount(numbers, w), goodness, s.counts.sum()
    # A tooth proposed by one probe's tail is the zero only if every probe
    # admits it, and a probe with a zero peak of its own admits no lower one.
    zero = min((z for z in lowest
                if all(_admits_zero(w, n, z) for w, _, n in solved.values())), default=None)

    fits = {}
    for pid, (w, goodness, _) in solved.items():
        kept = np.flatnonzero(w >= WEIGHT_FLOOR_EVENTS)
        if zero is None and lowest:
            failures[pid] = CalibrationError("no tooth is a zero-count tooth every probe admits")
            continue
        if zero is None or kept.size == 0 or kept[-1] < zero:
            failures[pid] = CalibrationError("every comb tooth fell below the weight floor")
            continue
        comps = [GaussianComponent(float(wk), base + k * spacing, sigma0 + k * sigma_slope)
                 for k, wk in enumerate(w[zero:kept[-1] + 1], start=zero)]
        fits[pid] = GaussianMixtureFit(comps, goodness, spacing)
    return fits, failures


def _admits_zero(weights, n_events: int, zero: int) -> bool:
    """Whether a probe's tooth weights, by tooth number, allow tooth ``zero``
    to be its zero-count tooth.

    For any mixture of Poisson counts (classical light, any efficiency and
    dark-count rate) the one-count share is at most ln(1/p0) times the
    zero-count share p0. The bound is doubled, the zero tooth given
    ``WEIGHT_FLOOR_EVENTS`` more events and the logarithm taken as at
    least 1, to allow for noise.
    """
    w0, w1 = (weights[k] if k < weights.size else 0.0 for k in (zero, zero + 1))
    w0 += WEIGHT_FLOOR_EVENTS
    return w1 <= 2.0 * w0 * math.log(max(n_events / w0, math.e))


def fit_peaks(trace: AmplitudeTrace, bin_width_mv: float = DEFAULT_BIN_WIDTH_MV,
              max_peaks: int | None = None) -> GaussianMixtureFit:
    """:func:`fit_run` on a run of one trace; raises its failure.

    Teeth past a given ``max_peaks`` fold into the last component, which
    keeps the mean and width of tooth ``max_peaks - 1``; no other fit folds.
    Alone, a trace's comb is fitted to its own histogram; in a run it is
    the run's. Where the trace shows its own zero tooth, the two give
    tooth weights that agree to about an event per class. A bright trace
    whose zero peak holds too few events cannot show it, and alone its
    lowest visible tooth is taken for zero: fit a run's traces together
    with :func:`fit_run`. A trace without two prominent peaks, such as a
    dark one, has no photon-number scale of its own and raises; in a run
    with a resolved trace it sits on the run's comb.
    """
    if max_peaks is not None:
        _check_number("max_peaks", max_peaks, "[1, inf)", integer=True)
    fits, failures = fit_run([trace], bin_width_mv)
    if failures:
        raise failures[trace.probe_id]
    fit = fits[trace.probe_id]
    if max_peaks is None or fit.n_components <= max_peaks:
        return fit
    *kept, top = fit.components[:max_peaks]
    folded = np.sum([c.weight for c in fit.components[max_peaks - 1:]])
    return replace(fit, components=(*kept, replace(top, weight=float(folded))))


def place_thresholds(fit: GaussianMixtureFit) -> ThresholdSet:
    """Place decision thresholds at the mixture-density minima, as only the
    acceptance criteria and the benchmark's library chain do.

    Between each pair of adjacent component means the fitted mixture
    density is evaluated on 510 interior grid points, all pairs in one
    call. The lowest point and its two neighbours bracket the minimum.
    Every bracket is then narrowed at once on nested grids of
    ``_REFINE_POINTS`` points, each spanning the previous grid's lowest
    point and its neighbours, until it is at most ``_THRESHOLD_XATOL_MV``
    (1e-3 mV) wide or as narrow as floats allow. The cut is the vertex of
    the parabola through the last grid's lowest point and its neighbours,
    kept within the bracket, so it lies within that width of the minimum.
    Next to a component that holds no events, and wherever the density has
    no interior valley, the midpoint is used; in the latter case a warning
    is emitted.
    """
    means = fit.means
    cuts = 0.5 * (means[:-1] + means[1:])
    weights = np.array([c.weight for c in fit.components])
    pairs = np.flatnonzero((weights[:-1] > 0) & (weights[1:] > 0))
    grid = np.linspace(means[pairs], means[pairs + 1], 512, axis=1)[:, 1:-1]
    dens = fit.density(grid)
    i = np.argmin(dens, axis=1)
    valley = (i > 0) & (i < grid.shape[1] - 1)
    for pair in pairs[~valley]:
        warnings.warn(
            f"no interior density minimum between peaks at {means[pair]:.3f} and "
            f"{means[pair + 1]:.3f} mV; using the midpoint",
            stacklevel=2,
        )
    rows = np.arange(np.count_nonzero(valley))
    grid, dens, i = grid[valley], dens[valley], i[valley]
    step, last = np.linspace(0.0, 1.0, _REFINE_POINTS), None
    while True:
        lo = grid[rows, np.maximum(i - 1, 0)]
        hi = grid[rows, np.minimum(i + 1, grid.shape[1] - 1)]
        # Stop at that width, or where floats resolve the brackets no finer.
        if (not np.any(hi - lo > _THRESHOLD_XATOL_MV)
                or (last is not None and np.array_equal(last, [lo, hi]))):
            break
        last = [lo, hi]
        grid = lo[:, None] + (hi - lo)[:, None] * step
        dens = fit.density(grid)
        i = np.argmin(dens, axis=1)
    # The vertex of the parabola through the lowest point and its neighbours.
    j = np.clip(i, 1, grid.shape[1] - 2)
    below, at, above = (dens[rows, j + d] for d in (-1, 0, 1))
    curvature = below - 2.0 * at + above
    shift = np.divide(below - above, 2.0 * curvature, out=np.zeros_like(at), where=curvature > 0)
    cuts[pairs[valley]] = np.clip(grid[rows, j] + shift * (grid[:, 1] - grid[:, 0]), lo, hi)
    return ThresholdSet(tuple(cuts))


def bin_counts(
    trace: AmplitudeTrace, thresholds: ThresholdSet, n_outcomes: int
) -> np.ndarray:
    """Bin trace amplitudes into count classes by thresholding, as only the
    acceptance criteria and the benchmark's library chain do.

    Intervals are half-open with the upper side owning the boundary: an
    amplitude exactly on a cut point belongs to the upper class. Classes
    at or above ``n_outcomes - 1`` are folded into the cumulative top
    outcome. Binning is invariant under a common affine rescale of
    amplitudes and cut points.

    Returns:
        Integer counts of length ``n_outcomes``.
    """
    _check_number("n_outcomes", n_outcomes, "[2, inf)", integer=True)
    amps = trace.amplitudes_mv
    # Events below each cut that bounds a class of its own; the rest are on top.
    below = np.full(n_outcomes + 1, amps.size, dtype=np.int64)
    below[0] = 0
    for k, cut in enumerate(thresholds.cut_points_mv[:n_outcomes - 1], start=1):
        below[k] = np.count_nonzero(amps < cut)
    return np.diff(below)


def _round_preserving_total(x: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder rounding of nonnegative reals to a fixed total."""
    base = np.floor(x).astype(np.int64)
    short = int(total - base.sum())
    if short > 0:
        order = np.argsort(-(x - base), kind="stable")
        base[order[:short]] += 1
    return base


def bin_counts_by_area(
    trace: AmplitudeTrace, fit: GaussianMixtureFit, n_outcomes: int
) -> np.ndarray:
    """Bin a trace by fitted Gaussian areas instead of thresholds.

    Only the trace's event count is read: this is
    :func:`counts_by_area` of ``trace.n_pulses``.
    """
    return counts_by_area(fit, n_outcomes, trace.n_pulses)


def counts_by_area(fit: GaussianMixtureFit, n_outcomes: int, n_events: int) -> np.ndarray:
    """``n_events`` shared among count classes by fitted Gaussian areas.

    Count class ``i`` receives the fitted weight of component ``i``
    (components beyond the top class fold into it), scaled to ``n_events``
    with total-preserving rounding. A fit whose weights are all 0 has no
    shares to give and raises ValueError.
    """
    _check_number("n_outcomes", n_outcomes, "[2, inf)", integer=True)
    _check_number("n_events", n_events, "[0, inf)", integer=True)
    folded = np.zeros(n_outcomes)
    for i, comp in enumerate(fit.components):
        folded[min(i, n_outcomes - 1)] += comp.weight
    if not folded.any():
        raise ValueError("every component weight is 0: the fit shares no events")
    probs = folded / folded.sum()
    return _round_preserving_total(probs * n_events, n_events)
