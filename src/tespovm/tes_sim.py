"""Seeded Monte Carlo stand-in for the cryogenic detection chain.

Only the pulse-height summary statistic is modeled. Each optical pulse
yields one Poisson(eta * mu + gamma) detected count, the law of Poisson
photons thinned with efficiency eta plus Poisson dark counts, capped at
saturation afterwards, and a Gaussian-smeared amplitude around that
count's peak. Pulse shapes, readout bandwidth and trigger logic are out
of scope; the point is to exercise calibration and tomography against a
known ground truth.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .photon_stats import Probe, ProbeEnsemble, _check_number

__all__ = [
    "DetectorPhysicalConfig",
    "AmplitudeTrace",
    "derive_subseed",
    "simulate_trace",
    "simulate_probe",
    "simulate_ensemble",
]

_MASK64 = (1 << 64) - 1
# The seeds a run accepts: every sub-seed is derived modulo 2**64.
_SEED_RANGE = f"[0, {1 << 64})"


@dataclass(frozen=True)
class DetectorPhysicalConfig:
    """Physical parameters of the simulated detector and readout.

    Attributes:
        eta: Quantum efficiency in [0, 1].
        gamma: Mean dark counts per pulse, >= 0.
        baseline_mv: Amplitude of the zero-count peak, any finite value.
        peak_spacing_mv: Amplitude step per detected photon, > 0.
        sigma0_mv: Gaussian width of the zero-count peak, > 0.
        sigma_slope_mv: Extra width per detected count, >= 0 (amplitude
            noise grows linearly with count when nonzero).
        saturation_count: Integer >= 0; counts at or above this value all
            pile up at this value. ``None`` disables saturation and keeps
            the detector linear.
    """

    eta: float = 0.051
    gamma: float = 0.0
    baseline_mv: float = 0.0
    peak_spacing_mv: float = 13.0
    sigma0_mv: float = 2.0
    sigma_slope_mv: float = 0.0
    saturation_count: int | None = None

    def __post_init__(self):
        _check_number("eta", self.eta, "[0, 1]")
        _check_number("gamma", self.gamma, "[0, inf)")
        _check_number("baseline_mv", self.baseline_mv, "(-inf, inf)")
        _check_number("peak_spacing_mv", self.peak_spacing_mv, "(0, inf)")
        _check_number("sigma0_mv", self.sigma0_mv, "(0, inf)")
        _check_number("sigma_slope_mv", self.sigma_slope_mv, "[0, inf)")
        if self.saturation_count is not None:
            _check_number("saturation_count", self.saturation_count, "[0, inf)",
                          integer=True)


@dataclass(frozen=True, eq=False)
class AmplitudeTrace:
    """Per-pulse amplitudes for one probe, with optional ground truth
    counts held in the smallest unsigned integer type that holds the largest."""

    probe_id: int
    amplitudes_mv: np.ndarray
    truth_counts: np.ndarray | None = None

    def __post_init__(self):
        amps = np.asarray(self.amplitudes_mv, dtype=float)
        if amps.ndim != 1:
            raise ValueError("amplitudes_mv must be 1-D")
        if amps.size and not np.isfinite(amps).all():
            raise ValueError("amplitudes_mv must be finite")
        object.__setattr__(self, "amplitudes_mv", amps)
        if self.truth_counts is not None:
            truth = np.asarray(self.truth_counts)
            if truth.dtype.kind not in "ui":
                raise ValueError(f"truth_counts must be integers, got dtype {truth.dtype}")
            if truth.shape != amps.shape:
                raise ValueError("truth_counts must match amplitudes_mv in length")
            if truth.size and truth.min() < 0:
                raise ValueError("truth_counts must be >= 0")
            truth = truth.astype(np.min_scalar_type(truth.max(initial=0)), copy=False)
            object.__setattr__(self, "truth_counts", truth)

    @property
    def n_pulses(self) -> int:
        return self.amplitudes_mv.shape[0]


def derive_subseed(seed: int, probe_id: int) -> int:
    """Stable 64-bit sub-seed for one probe of a seeded run.

    Splitmix-style finalizer, so adding or reordering probes never
    perturbs the stream of any existing probe.
    """
    z = (int(seed) + (int(probe_id) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def simulate_trace(
    config: DetectorPhysicalConfig,
    mu: float,
    n_pulses: int,
    seed: int,
    probe_id: int = 0,
) -> AmplitudeTrace:
    """Simulate pulse amplitudes for one coherent probe.

    Per pulse: draw ``c ~ Poisson(eta * mu + gamma)``, the law of Poisson(mu)
    photons thinned with efficiency ``eta`` plus Poisson(gamma) dark counts;
    cap it at ``saturation_count`` if set; emit ``baseline + c * spacing``
    plus Gaussian noise of width ``sigma0 + c * sigma_slope``, in float64.

    Deterministic for a fixed ``(config, mu, n_pulses, seed)``.
    """
    _check_number("mu", mu, "[0, inf)")
    _check_number("n_pulses", n_pulses, "[1, inf)", integer=True)
    rng = np.random.default_rng(seed)
    c = rng.poisson(float(config.eta) * mu + float(config.gamma), n_pulses)
    if config.saturation_count is not None:
        c = np.minimum(c, config.saturation_count)
    # Narrowed before the amplitudes are drawn, so the int64 draw is freed first.
    c = c.astype(np.min_scalar_type(c.max(initial=0)))
    amps = rng.standard_normal(n_pulses)
    amps *= float(config.sigma0_mv) + c * float(config.sigma_slope_mv)
    amps += float(config.baseline_mv) + c * float(config.peak_spacing_mv)
    return AmplitudeTrace(probe_id=probe_id, amplitudes_mv=amps, truth_counts=c)


def simulate_probe(config: DetectorPhysicalConfig, probe: Probe, seed: int) -> AmplitudeTrace:
    """Simulate one probe of a seeded run.

    ``seed`` is the run's seed, an integer in [0, 2**64); the probe's
    stream is ``derive_subseed(seed, probe.id)``, so its trace does not
    depend on which other probes are simulated, or on which thread.
    """
    _check_number("seed", seed, _SEED_RANGE, integer=True)
    return simulate_trace(
        config,
        probe.mean_photons,
        probe.n_pulses,
        derive_subseed(seed, probe.id),
        probe_id=probe.id,
    )


def simulate_ensemble(
    config: DetectorPhysicalConfig,
    ensemble: ProbeEnsemble,
    seed: int,
    jobs: int = 1,
) -> list[AmplitudeTrace]:
    """:func:`simulate_probe` over every probe of an ensemble.

    ``seed`` is an integer in [0, 2**64) and ``jobs``, the number of
    worker threads, an integer >= 1. Results do not depend on ``jobs``.
    Traces are returned in ensemble order.
    """
    _check_number("jobs", jobs, "[1, inf)", integer=True)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(partial(simulate_probe, config, seed=seed), ensemble.probes))
