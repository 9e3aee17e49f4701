"""Validation metrics: fidelity curves, model comparison, sensitivity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import CountTable
from .photon_stats import (
    PovmMatrix,
    ProbeEnsemble,
    _check_number,
    linear_prediction,
    predict_distribution,
)
from .tomography import ReconstructionConfig, reconstruct_povm

__all__ = [
    "FidelityCurve",
    "ProbeComparison",
    "SweepPoint",
    "SweepResult",
    "fidelity_curve",
    "three_way_comparison",
    "sensitivity_sweep",
]

# Fidelity summaries split at the paper's M = 100 unless told otherwise.
DEFAULT_SPLIT = 100


@dataclass(frozen=True, eq=False)
class FidelityCurve:
    """Per-photon-number Bhattacharyya fidelities with split summaries.

    ``min_low`` is the minimum over m <= split, ``min_high`` over
    split < m < truncation (NaN when the split leaves that range empty).
    """

    values: np.ndarray
    split: int
    min_low: float
    min_high: float


@dataclass(frozen=True, eq=False)
class ProbeComparison:
    """Measured vs reconstructed vs linear-model distributions for one probe."""

    probe_id: int
    mean_photons: float
    measured: np.ndarray
    reconstructed: np.ndarray
    linear: np.ndarray
    max_diff_reconstructed: float
    max_diff_linear: float
    tv_reconstructed: float
    tv_linear: float


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One perturbation of the assumed probe energies."""

    label: str
    mu_scale: float
    fidelities: np.ndarray


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Worst-case fidelity envelope across a perturbation sweep."""

    envelope: np.ndarray
    points: tuple[SweepPoint, ...]


def fidelity_curve(
    reconstructed: PovmMatrix, model: PovmMatrix, split: int = DEFAULT_SPLIT
) -> FidelityCurve:
    """Column-wise Bhattacharyya fidelity between two POVM matrices."""
    _check_number("split", split, "[0, inf)", integer=True)
    if reconstructed.entries.shape != model.entries.shape:
        raise ValueError(
            f"shape mismatch: {reconstructed.entries.shape} vs "
            f"{model.entries.shape}"
        )
    values = np.minimum(
        np.sqrt(reconstructed.entries * model.entries).sum(axis=0), 1.0
    )
    m = np.arange(values.size)
    low = values[m <= split]
    high = values[m > split]
    return FidelityCurve(
        values=values,
        split=split,
        min_low=float(low.min()) if low.size else float("nan"),
        min_high=float(high.min()) if high.size else float("nan"),
    )


def three_way_comparison(
    counts: CountTable,
    reconstructed: PovmMatrix,
    eta_hat: float,
    ensemble: ProbeEnsemble,
    gamma_hat: float = 0.0,
) -> list[ProbeComparison]:
    """Compare measured, reconstructed and linear-model distributions.

    For every probe: the calibrated probabilities, the reconstruction's
    forward prediction, and the closed-form Poisson(eta_hat * mu +
    gamma_hat) prediction, with max and total-variation differences
    against the measurement. Rows follow the table's columns, each paired
    with its probe by id (:meth:`ProbeEnsemble.subset`).
    """
    if counts.n_outcomes != reconstructed.n_outcomes:
        raise ValueError("count table and POVM outcome counts disagree")
    out = []
    for j, probe in enumerate(ensemble.subset(counts.probe_ids).probes):
        p = counts.probs[:, j]
        r = predict_distribution(reconstructed, probe.mean_photons).probs
        l = linear_prediction(eta_hat, probe.mean_photons, counts.n_outcomes,
                              gamma_hat).probs
        out.append(
            ProbeComparison(
                probe_id=probe.id,
                mean_photons=probe.mean_photons,
                measured=p,
                reconstructed=r,
                linear=l,
                max_diff_reconstructed=float(np.abs(p - r).max()),
                max_diff_linear=float(np.abs(p - l).max()),
                tv_reconstructed=float(0.5 * np.abs(p - r).sum()),
                tv_linear=float(0.5 * np.abs(p - l).sum()),
            )
        )
    return out


def sensitivity_sweep(
    counts: CountTable,
    ensemble: ProbeEnsemble,
    config: ReconstructionConfig,
    reference: PovmMatrix,
    energy_scale: float = 0.0,
    attenuation_db: float = 0.0,
    split: int = DEFAULT_SPLIT,
) -> SweepResult:
    """Rerun the reconstruction under perturbed probe-energy assumptions.

    Axis-aligned perturbations: the mean photon numbers are scaled by
    ``1 +- energy_scale`` and by ``10^(-+attenuation_db / 10)``, one axis
    at a time, plus the unperturbed baseline. Each point is reconstructed
    and scored against ``reference``; the envelope is the pointwise
    minimum fidelity, so it can only sit at or below the baseline curve.
    An ``attenuation_db`` whose gain ``10^(dB / 10)``, or that gain times
    the largest mean photon number, overflows raises ValueError.
    """
    _check_number("energy_scale", energy_scale, "[0, 1)")
    _check_number("attenuation_db", attenuation_db, "[0, inf)")
    factors: list[tuple[str, float]] = [("baseline", 1.0)]
    if energy_scale > 0:
        factors.append((f"energy -{energy_scale:g}", 1.0 - energy_scale))
        factors.append((f"energy +{energy_scale:g}", 1.0 + energy_scale))
    if attenuation_db > 0:
        try:
            gain = 10.0 ** (attenuation_db / 10.0)
        except OverflowError:
            gain = math.inf
        if not math.isfinite(gain * float(ensemble.mean_photons.max())):
            raise ValueError(f"attenuation_db {attenuation_db:g} overflows 10^(dB / 10) "
                             "times the probes' mean photon numbers")
        factors.append((f"attenuation +{attenuation_db:g} dB", 10.0 ** (-attenuation_db / 10.0)))
        factors.append((f"attenuation -{attenuation_db:g} dB", gain))
    points = []
    for label, factor in factors:
        scaled = ensemble.with_scaled_means(factor)
        rec = reconstruct_povm(counts, scaled, config)
        fid = fidelity_curve(rec.povm, reference, split=split)
        points.append(SweepPoint(label=label, mu_scale=factor, fidelities=fid.values))
    envelope = np.min(np.vstack([pt.fidelities for pt in points]), axis=0)
    return SweepResult(envelope=envelope, points=tuple(points))
