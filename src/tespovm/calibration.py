"""Pulse-height calibration: comb fitting, thresholds, count binning.

A TES puts the pulse height of ``k`` detected photons at ``baseline + k *
spacing`` with a width ``sigma0 + k * sigma_slope``. A raw amplitude trace
is histogrammed and that four-parameter Gaussian comb is fitted to it,
with one nonnegative weight (expected events) per tooth. Component index
is tooth index, counted from the lowest tooth that holds events, so it
equals detected count when that tooth is the zero peak. Calibration
fails loudly instead of mislabelling: a fit that does not describe its
histogram raises, and :func:`check_peak_labels` flags the probes of a
run whose teeth stray from the run's common scale. Events are binned
into count classes either by thresholds at the density minima between
adjacent teeth or by the tooth weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize, signal, special

from .errors import CalibrationError, FitError
from .photon_stats import COLUMN_SUM_TOL
from .tes_sim import AmplitudeTrace

__all__ = [
    "DEFAULT_BIN_WIDTH_MV",
    "DEFAULT_MAX_PEAKS",
    "MIN_EVENTS",
    "MAX_GOODNESS",
    "WEIGHT_FLOOR_EVENTS",
    "GaussianComponent",
    "GaussianMixtureFit",
    "ThresholdSet",
    "CountTable",
    "fit_peaks",
    "place_thresholds",
    "bin_counts",
    "bin_counts_by_area",
    "check_peak_labels",
]

# Histogram bin width and the most count classes a fit reports, unless
# the run's config says otherwise.
DEFAULT_BIN_WIDTH_MV = 1.3
DEFAULT_MAX_PEAKS = 16

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
_ONE_TOOTH_WINDOW = 4.0  # half-width, in tooth widths, of a lone tooth's goodness
_ZERO_SHARE = 0.1  # least share of a run's zero-peak events at its zero


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
    is the peak of ``i`` detected counts. ``goodness`` is the reduced
    chi-square of the Poisson-weighted fit. ``spacing_mv`` is the comb
    spacing of a :func:`fit_peaks` result with two or more teeth, and
    ``None`` otherwise.
    """

    components: tuple[GaussianComponent, ...]
    goodness: float
    bin_width_mv: float
    n_events: int
    spacing_mv: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("fit must hold at least one component")
        means = self.means
        if np.any(np.diff(means) <= 0):
            raise ValueError("component means must be strictly increasing")
        for c in self.components:
            if c.weight < 0 or c.sigma_mv <= 0:
                raise ValueError("component weights must be >= 0 and sigmas positive")

    @property
    def means(self) -> np.ndarray:
        return np.array([c.mean_mv for c in self.components])

    @property
    def baseline_mv(self) -> float:
        """Position of the zero peak (component 0)."""
        return self.components[0].mean_mv

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

    @property
    def n_cuts(self) -> int:
        return len(self.cut_points_mv)


@dataclass(frozen=True, eq=False)
class CountTable:
    """Outcome-by-probe count statistics.

    ``probs`` always holds column-normalized probabilities. ``counts``
    is present when the table came from event data; tables built from
    exact model probabilities carry ``counts=None``.
    """

    probs: np.ndarray
    counts: np.ndarray | None = None
    probe_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise ValueError("probs must be 2-D (outcomes x probes)")
        if not np.isfinite(probs).all() or probs.min() < 0:
            raise ValueError("probs must be finite and nonnegative")
        colsums = probs.sum(axis=0)
        if np.abs(colsums - 1.0).max() > COLUMN_SUM_TOL:
            raise ValueError("probability columns must sum to 1")
        object.__setattr__(self, "probs", probs)
        if self.counts is not None:
            counts = np.asarray(self.counts)
            if counts.shape != probs.shape:
                raise ValueError("counts must match probs in shape")
            if not np.issubdtype(counts.dtype, np.integer):
                raise ValueError("counts must be integers")
            if counts.min() < 0:
                raise ValueError("counts must be >= 0")
            object.__setattr__(self, "counts", counts.astype(np.int64))
        if self.probe_ids is not None:
            ids = tuple(int(i) for i in self.probe_ids)
            if len(ids) != probs.shape[1]:
                raise ValueError("probe_ids must match the number of columns")
            if len(set(ids)) != len(ids):
                raise ValueError("probe_ids must be unique")
            object.__setattr__(self, "probe_ids", ids)

    @classmethod
    def from_counts(cls, counts, probe_ids=None) -> "CountTable":
        counts = np.asarray(counts)
        totals = counts.sum(axis=0)
        if np.any(totals <= 0):
            empty = np.nonzero(totals <= 0)[0].tolist()
            raise ValueError(f"count columns {empty} have no events")
        return cls(counts / totals, counts=counts, probe_ids=probe_ids)

    @classmethod
    def from_probs(cls, probs, probe_ids=None) -> "CountTable":
        return cls(np.asarray(probs, dtype=float), probe_ids=probe_ids)

    @property
    def n_outcomes(self) -> int:
        return self.probs.shape[0]

    @property
    def n_probes(self) -> int:
        return self.probs.shape[1]

    def column(self, j: int) -> np.ndarray:
        """Event weights for probe column ``j``: counts when available."""
        if self.counts is not None:
            return self.counts[:, j]
        return self.probs[:, j]


def _histogram(amps: np.ndarray, bin_width: float):
    lo = math.floor(amps.min() / bin_width) * bin_width
    n_bins = max(1, math.ceil((amps.max() - lo) / bin_width) + 1)
    edges = lo + bin_width * np.arange(n_bins + 1)
    counts, _ = np.histogram(amps, bins=edges)
    centers = edges[:-1] + 0.5 * bin_width
    return counts.astype(float), centers, edges


def fit_peaks(
    trace: AmplitudeTrace,
    bin_width_mv: float = DEFAULT_BIN_WIDTH_MV,
    max_peaks: int = DEFAULT_MAX_PEAKS,
) -> GaussianMixtureFit:
    """Fit a Gaussian comb to the pulse-height spectrum of a trace.

    Tooth ``k`` sits at ``baseline + k * spacing`` with width ``sigma0 +
    k * sigma_slope``. The prominent peaks of the histogram (bin width
    ``bin_width_mv``) seed the spacing, and the comb reaches left to the
    data minimum so that a weak zero peak still gets a tooth; it ends at
    the data maximum. Poisson-weighted least squares moves the four comb
    parameters; the tooth weights of each trial comb are its
    nonnegative least-squares solution. Teeth below the lowest and above
    the highest tooth holding ``WEIGHT_FLOOR_EVENTS`` events are dropped.
    The lowest kept tooth is component 0; teeth past ``max_peaks`` fold
    into the last component. Fewer than two prominent peaks give one
    tooth at the sample median; its goodness counts only the bins within
    ``_ONE_TOOTH_WINDOW`` widths of it, so an unresolved shoulder raises
    while a weak peak a spacing away (dark counts in a no-light trace)
    does not.

    Raises:
        CalibrationError: Fewer than ``MIN_EVENTS`` events, no tooth
            above the weight floor, or a reduced chi-square above
            ``MAX_GOODNESS``.
        FitError: The nonlinear fit did not converge.
    """
    amps = np.asarray(trace.amplitudes_mv, dtype=float)
    if amps.size < MIN_EVENTS:
        raise CalibrationError(
            f"trace has {amps.size} events, need at least {MIN_EVENTS}"
        )
    if bin_width_mv <= 0:
        raise ValueError("bin_width_mv must be positive")
    if max_peaks < 1:
        raise ValueError("max_peaks must be >= 1")

    counts, centers, edges = _histogram(amps, bin_width_mv)
    inv_err = 1.0 / np.sqrt(np.maximum(counts, 1.0))
    target = counts * inv_err

    def solve_weights(comb, teeth):
        """Tooth weights and weighted residuals of one trial comb."""
        base, spacing, sigma0, sigma_slope = comb
        z = (edges[:, None] - (base + teeth * spacing)) / (sigma0 + teeth * sigma_slope)
        design = np.diff(special.ndtr(z), axis=0) * inv_err[:, None]
        weights, _ = optimize.nnls(design, target)
        return weights, design @ weights - target

    smooth = np.convolve(counts, np.ones(3) / 3.0, mode="same")
    peaks, props = signal.find_peaks(smooth, height=0.0, prominence=0.0)
    # A bump that rises only a few Poisson deviations above its
    # surroundings is noise; one in the tail would skew the spacing.
    peaks = peaks[props["prominences"] >= _PEAK_SIGMAS * np.sqrt(props["peak_heights"])]
    if peaks.size >= 2:
        # The median gap is robust to a missed peak; the whole run of
        # peaks then refines it below the bin width.
        first, run = centers[peaks[0]], centers[peaks[-1]] - centers[peaks[0]]
        spacing = run / round(run / float(np.median(np.diff(centers[peaks]))))
        base = first - math.floor((first - edges[0]) / spacing) * spacing
        width = signal.peak_widths(smooth, peaks[:1])[0][0] * bin_width_mv / 2.355
        x0 = [base, spacing, width, 0.0]
        lo = [base - spacing / 2.0, spacing / 2.0, bin_width_mv / 4.0, 0.0]
        hi = [base + spacing / 2.0, 1.5 * spacing, spacing, spacing / 2.0]
        # Teeth centred past the histogram would only soak up tails.
        teeth = np.arange(math.floor((edges[-1] - base) / spacing) + 1)
        res = optimize.least_squares(
            lambda comb: solve_weights(comb, teeth)[1], np.clip(x0, lo, hi), bounds=(lo, hi)
        )
        if res.status == 0:
            norm = float(np.linalg.norm(res.fun))
            raise FitError(f"comb fit did not converge (residual norm {norm:.4g})", norm)
        comb, n_params = tuple(res.x), 4
        window = slice(None)
    else:
        # One tooth, placed by the median and the normal-scaled median
        # absolute deviation, which a few stray events do not drag.
        median = float(np.median(amps))
        mad = 1.4826 * float(np.median(np.abs(amps - median)))
        comb, n_params = (median, 0.0, max(mad, bin_width_mv / 4.0), 0.0), 2
        teeth = np.zeros(1)
        window = np.abs(centers - median) <= _ONE_TOOTH_WINDOW * comb[2]
    weights, resid = solve_weights(comb, teeth)
    resid = resid[window]
    goodness = float(resid @ resid) / max(1, resid.size - n_params - teeth.size)
    if goodness > MAX_GOODNESS:
        raise CalibrationError(
            f"comb fit does not describe the histogram: reduced chi-square "
            f"{goodness:.4g} > {MAX_GOODNESS} (peaks unresolved or off the comb)"
        )
    kept = np.nonzero(weights >= WEIGHT_FLOOR_EVENTS)[0]
    if kept.size == 0:
        raise CalibrationError("every comb tooth fell below the weight floor")
    teeth, weights = teeth[kept[0]:kept[-1] + 1], weights[kept[0]:kept[-1] + 1]
    if teeth.size > max_peaks:
        weights = np.append(weights[:max_peaks - 1], weights[max_peaks - 1:].sum())
        teeth = teeth[:max_peaks]
    base, spacing, sigma0, sigma_slope = comb
    return GaussianMixtureFit(
        components=tuple(
            GaussianComponent(float(w), float(base + k * spacing),
                              float(sigma0 + k * sigma_slope))
            for w, k in zip(weights, teeth)
        ),
        goodness=goodness,
        bin_width_mv=float(bin_width_mv),
        n_events=int(amps.size),
        spacing_mv=float(spacing) if spacing > 0 else None,
    )


def check_peak_labels(fits) -> dict[int, CalibrationError]:
    """Probes whose peak labels disagree with the run's energy scale.

    ``fits`` maps probe id to fit. All probes of a run see one detector,
    so peak ``i`` belongs near ``zero + i * spacing``, where ``spacing``
    is the median comb spacing over probes. A true zero peak is the lowest
    peak a probe can have, while a bright probe whose zero peak fell below
    the weight floor starts higher, however many such probes there are.
    So ``zero`` is the median position of the lowest group of zero peaks
    (within half a spacing) that holds ``_ZERO_SHARE`` of all zero-peak
    events; a lone light tooth below it, fitted to tail events, is not
    one. A probe whose lowest or highest peak is more than half a spacing
    off has mislabelled its peaks and maps to the error saying so. Without
    any fitted spacing there is no scale, and nothing is flagged.
    """
    spacings = [f.spacing_mv for f in fits.values() if f.spacing_mv is not None]
    if not spacings:
        return {}
    spacing = float(np.median(spacings))
    zeros = np.array([f.baseline_mv for f in fits.values()])
    weights = np.array([f.components[0].weight for f in fits.values()])
    for lowest in np.sort(zeros):
        near = np.abs(zeros - lowest) <= 0.5 * spacing
        if weights[near].sum() >= _ZERO_SHARE * weights.sum():
            break
    zero = float(np.median(zeros[near]))
    flagged = {}
    for pid, fit in fits.items():
        for i in (0, fit.n_components - 1):
            offset = fit.means[i] - (zero + i * spacing)
            if abs(offset) > 0.5 * spacing:
                flagged[pid] = CalibrationError(
                    f"peak {i} at {fit.means[i]:.3f} mV lies {offset:+.3f} mV (about "
                    f"{round(offset / spacing):+d} peaks) off the run's scale "
                    f"{zero:.3f} + {i} x {spacing:.3f} mV"
                )
                break
    return flagged


def place_thresholds(fit: GaussianMixtureFit, xatol: float = 1e-3) -> ThresholdSet:
    """Place decision thresholds at the mixture-density minima.

    For each pair of adjacent component means the fitted mixture density
    is minimized on the open interval between them (tolerance ``xatol``
    mV). If the density has no interior valley there, the midpoint is
    used and a warning is emitted.
    """
    cuts = []
    means = fit.means
    for a, b in zip(means, means[1:]):
        grid = np.linspace(a, b, 512)[1:-1]
        dens = fit.density(grid)
        i = int(np.argmin(dens))
        if i == 0 or i == grid.size - 1:
            warnings.warn(
                f"no interior density minimum between peaks at {a:.3f} and "
                f"{b:.3f} mV; using the midpoint",
                stacklevel=2,
            )
            cuts.append(0.5 * (a + b))
            continue
        res = optimize.minimize_scalar(
            lambda x: float(fit.density(x)),
            bounds=(grid[i - 1], grid[i + 1]),
            method="bounded",
            options={"xatol": xatol},
        )
        cuts.append(float(res.x))
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
    if n_outcomes < 2:
        raise ValueError("n_outcomes must be >= 2")
    cuts = np.asarray(thresholds.cut_points_mv, dtype=float)
    idx = np.searchsorted(cuts, trace.amplitudes_mv, side="right")
    outcome = np.minimum(idx, n_outcomes - 1)
    return np.bincount(outcome, minlength=n_outcomes).astype(np.int64)[:n_outcomes]


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
    if n_outcomes < 2:
        raise ValueError("n_outcomes must be >= 2")
    folded = np.zeros(n_outcomes)
    for i, comp in enumerate(fit.components):
        folded[min(i, n_outcomes - 1)] += comp.weight
    probs = folded / folded.sum()
    return _round_preserving_total(probs * trace.n_pulses, trace.n_pulses)
