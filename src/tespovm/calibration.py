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

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError
from .photon_stats import _check_number, _check_stochastic
from .tes_sim import AmplitudeTrace

__all__ = [
    "DEFAULT_BIN_WIDTH_MV",
    "MIN_EVENTS",
    "MAX_GOODNESS",
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

_SQRT2PI = math.sqrt(2.0 * math.pi)
_PEAK_SIGMAS = 4.0  # a peak's least prominence, in sqrt(height)
_REFINE_POINTS = 17  # points of each nested grid that narrows a threshold's bracket


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
    """Sorted decision boundaries between adjacent count classes."""

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
        """A trace histogrammed over its own data."""
        first = math.floor(amps.min() / bin_width)
        edges = bin_width * (first + np.arange(math.ceil(amps.max() / bin_width - first) + 2))
        return cls(np.histogram(amps, bins=edges)[0].astype(float), first, bin_width)

    @classmethod
    def pooled(cls, spectra) -> "_Spectrum":
        """The sum of spectra on one grid, over all of their bins."""
        first = min(s.first for s in spectra)
        counts = np.zeros(max(s.first + s.counts.size for s in spectra) - first)
        for s in spectra:
            counts[s.first - first:s.first - first + s.counts.size] += s.counts
        return cls(counts, first, spectra[0].bin_width)

    def __post_init__(self):
        bw = self.bin_width
        self.edges = bw * (self.first + np.arange(self.counts.size + 1))
        self.centers = self.edges[:-1] + 0.5 * bw
        self.smooth = y = np.convolve(self.counts, np.ones(3) / 3.0, mode="same")
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
        self.peaks, self.widths = peaks[kept], widths[kept]
        self._last = None

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
        from scipy import special
        return np.diff(special.ndtr(self.standard(comb, teeth)), axis=0)

    def weigh(self, mass, variance):
        """Nonnegative least-squares tooth weights, bins weighted by their
        ``variance`` (at least 1), and the weighted residuals."""
        from scipy import optimize
        inv_err = 1.0 / np.sqrt(np.maximum(variance, 1.0))
        design = mass * inv_err[:, None]
        target = self.counts * inv_err
        weights, _ = optimize.nnls(design, target)
        return weights, design @ weights - target

    def _solve(self, comb, teeth):
        """The Poisson-weighted tooth weights under ``comb``, with what the
        Jacobian needs of them. The last solve is kept: ``least_squares``
        asks for the Jacobian at the comb whose residuals it has just had."""
        from scipy import special
        comb = np.array(comb, dtype=float)
        last = self._last
        if last is None or last[1] is not teeth or not np.array_equal(last[0], comb):
            z = self.standard(comb, teeth)
            mass = np.diff(special.ndtr(z), axis=0)
            self._last = comb, teeth, z, mass, *self.weigh(mass, self.counts)
        return self._last[2:]

    def residuals(self, comb, teeth) -> np.ndarray:
        """Poisson-weighted residuals of the best tooth weights under ``comb``."""
        return self._solve(comb, teeth)[-1]

    def jacobian(self, comb, teeth) -> np.ndarray:
        """Kaufman's variable-projection Jacobian of :meth:`residuals`.

        The derivative of the weighted bins at fixed tooth weights, taken
        off the span of the teeth that carry weight. It drops a term that
        lies in that span, to which the residuals are orthogonal, so its
        gradient of half the squared residuals is exact.
        """
        z, mass, weights, _ = self._solve(comb, teeth)
        free = weights > 0
        k = teeth[free]
        z = z[:, free]
        # The event density at each edge per standard deviation of its tooth;
        # dz/d(base, spacing, sigma0, sigma_slope) = -(1, k, z, k z) / sigma_k.
        u = np.exp(-0.5 * z * z) * (weights[free] / ((comb[2] + k * comb[3]) * _SQRT2PI))
        zu = z * u
        edge = np.stack([u.sum(axis=1), u @ k, zu.sum(axis=1), zu @ k], axis=1)
        inv_err = 1.0 / np.sqrt(np.maximum(self.counts, 1.0))[:, None]
        grad = -np.diff(edge, axis=0) * inv_err
        q = np.linalg.qr(mass[:, free] * inv_err)[0]
        return grad - q @ (q.T @ grad)


def fit_run(traces, bin_width_mv: float = DEFAULT_BIN_WIDTH_MV,
            max_peaks: int | None = None) -> tuple[dict, dict]:
    """Fit one Gaussian comb to all traces of a run.

    One detector puts tooth ``k`` at ``baseline + k * spacing`` with width
    ``sigma0 + k * sigma_slope`` in every trace, so a tooth has one label
    in every probe. The traces' prominent peaks, in probe-id order, seed
    the comb. A trace's expected bins are linear in its tooth weights, so
    the run's pooled histogram, its traces' counts summed on one grid, is
    the same comb with summed weights: one Poisson-weighted least squares
    over the pooled bins fits it and numbers the teeth, with Kaufman's
    variable-projection Jacobian (:meth:`_Spectrum.jacobian`) in closed
    form, so a step solves one set of tooth weights for the whole run. A
    run of one trace pools to its own histogram. Every probe's components
    sit on that comb: a trace's tooth weights, over the teeth centred
    within its data, solve its own nonnegative least squares, last with
    the model's bin variances, and a trace whose peaks leave the comb
    fails its goodness gate rather than moving the comb. The zero tooth is
    the lowest to which some probe gives ``WEIGHT_FLOOR_EVENTS`` events
    and beside which no probe holds more one-count events than Poisson
    light allows (:func:`_admits_zero`): a tooth fitted to the tail of a
    zero peak, or to stray events below it, is not the zero. A probe's
    components run from it, empty or not, to its highest tooth holding
    ``WEIGHT_FLOOR_EVENTS``, and the count classes fold once, when binned.
    Only teeth past a given ``max_peaks`` fold into the last component;
    ``calibrate`` passes the run's ``reconstruction.n_outcomes``. A run of
    no traces, or of traces too sparse to fit, only checks the settings
    and gives no fits.

    Returns:
        ``(fits, failures)`` by probe id. A probe fails with a
        :class:`CalibrationError` when its trace has fewer than
        ``MIN_EVENTS`` events, its reduced chi-square exceeds
        ``MAX_GOODNESS`` or no tooth of it reaches the weight floor; every
        probe fails when no tooth is a zero every probe admits.

    Raises:
        CalibrationError: No trace with enough events shows two prominent
            peaks, so the run has no photon-number scale, or the run's
            comb fit did not converge.
    """
    _check_number("bin_width_mv", bin_width_mv, "(0, inf)")
    if max_peaks is not None:
        _check_number("max_peaks", max_peaks, "[1, inf)", integer=True)
    failures, spectra = {}, {}
    for trace in traces:
        pid = trace.probe_id
        if pid in failures or pid in spectra:
            raise ValueError(f"probe id {pid} is repeated")
        if trace.n_pulses < MIN_EVENTS:
            failures[pid] = CalibrationError(
                f"trace has {trace.n_pulses} events, need at least {MIN_EVENTS}"
            )
        else:
            spectra[pid] = _Spectrum.of(np.asarray(trace.amplitudes_mv, float), bin_width_mv)

    if not spectra:
        return {}, failures
    spectra = dict(sorted(spectra.items()))
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
    width = low.widths[0] * bin_width_mv / 2.355
    x0 = [base, spacing, min(width, spacing / 4.0), 0.0]
    lo = [base - spacing / 2.0, spacing / 2.0, bin_width_mv / 4.0, 0.0]
    hi = [base + spacing / 2.0, 1.5 * spacing, spacing, spacing / 2.0]
    pool = _Spectrum.pooled(list(spectra.values()))
    from scipy import optimize
    res = optimize.least_squares(pool.residuals, np.clip(x0, lo, hi), pool.jacobian,
                                 bounds=(lo, hi), args=(pool.teeth(base, spacing),))
    if res.status == 0:
        raise CalibrationError(f"comb fit did not converge ({res.nfev} evaluations)")
    comb = base, spacing, sigma0, sigma_slope = tuple(map(float, res.x))

    solved, lowest = {}, set()
    for pid, s in spectra.items():
        numbers = s.teeth(base, spacing)
        mass = s.mass(comb, numbers)
        # Counts as variances bias the weights low where counts are sparse;
        # the fitted model's variances do not.
        w, resid = s.weigh(mass, mass @ s.weigh(mass, s.counts)[0])
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
        weights = w[zero:kept[-1] + 1]
        if max_peaks is not None and weights.size > max_peaks:
            weights = np.append(weights[:max_peaks - 1], weights[max_peaks - 1:].sum())
        comps = [GaussianComponent(float(wk), base + k * spacing, sigma0 + k * sigma_slope)
                 for k, wk in enumerate(weights, start=zero)]
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
    """:func:`fit_run` on a run of one trace, folding as it does; raises its failure.

    Alone, a trace's comb is fitted to its own histogram; in a run it is
    the run's. Where the trace shows its own zero tooth, the two give
    tooth weights that agree to about an event per class. A bright trace
    whose zero peak holds too few events cannot show it, and alone its
    lowest visible tooth is taken for zero: fit a run's traces together
    with :func:`fit_run`. A trace without two prominent peaks, such as a
    dark one, has no photon-number scale of its own and raises; in a run
    with a resolved trace it sits on the run's comb.
    """
    fits, failures = fit_run([trace], bin_width_mv, max_peaks)
    if failures:
        raise failures[trace.probe_id]
    return fits[trace.probe_id]


def place_thresholds(fit: GaussianMixtureFit, xatol: float = 1e-3) -> ThresholdSet:
    """Place decision thresholds at the mixture-density minima.

    Between each pair of adjacent component means the fitted mixture
    density is evaluated on 510 interior grid points, all pairs in one
    call. The lowest point and its two neighbours bracket the minimum.
    Every bracket is then narrowed at once on nested grids of
    ``_REFINE_POINTS`` points, each spanning the previous grid's lowest
    point and its neighbours, until it is at most ``xatol`` mV wide or as
    narrow as floats allow. The cut is the vertex of the parabola through
    the last grid's lowest point and its neighbours, kept within the
    bracket, so it lies within ``xatol`` of the minimum. ``xatol`` must be
    a positive real number. Next to a component that holds no events, and
    wherever the density has no interior valley, the midpoint is used; in
    the latter case a warning is emitted.
    """
    _check_number("xatol", xatol, "(0, inf)")
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
        # Stop at xatol, or where floats resolve the brackets no finer.
        if not np.any(hi - lo > xatol) or (last is not None and np.array_equal(last, [lo, hi])):
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
    """Bin trace amplitudes into count classes by thresholding.

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

    Count class ``i`` receives the fitted weight of component ``i``
    (components beyond the top class fold into it), scaled to the number
    of events in the trace with total-preserving rounding.
    """
    _check_number("n_outcomes", n_outcomes, "[2, inf)", integer=True)
    folded = np.zeros(n_outcomes)
    for i, comp in enumerate(fit.components):
        folded[min(i, n_outcomes - 1)] += comp.weight
    probs = folded / folded.sum()
    return _round_preserving_total(probs * trace.n_pulses, trace.n_pulses)
