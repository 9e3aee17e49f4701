"""Photon-number calibration and POVM tomography for TES detectors.

Simulate pulse-amplitude traces, calibrate them into photon-count
statistics, reconstruct the detector POVM from coherent probes, estimate
efficiency and dark counts by maximum likelihood, and validate against
the linear-detector model.
"""

from .calibration import (
    CountTable,
    GaussianComponent,
    GaussianMixtureFit,
    ThresholdSet,
    bin_counts,
    bin_counts_by_area,
    fit_peaks,
    fit_run,
    place_thresholds,
)
from .errors import (
    CalibrationError,
    EstimationError,
    LineageError,
    SchemaError,
)
from .estimation import EfficiencyEstimate, estimate_eta, estimate_eta_gamma
from .metrics import (
    FidelityCurve,
    ProbeComparison,
    SweepResult,
    fidelity_curve,
    sensitivity_sweep,
    three_way_comparison,
)
from .photon_stats import (
    CountDistribution,
    PovmMatrix,
    Probe,
    ProbeEnsemble,
    binomial_povm,
    geometric_ensemble,
    linear_prediction,
    poisson_pmf,
    predict_distribution,
    probe_q_matrix,
)
from .tes_sim import (
    AmplitudeTrace,
    DetectorPhysicalConfig,
    derive_subseed,
    simulate_ensemble,
    simulate_trace,
)
from .tomography import (
    ReconstructionConfig,
    ReconstructionResult,
    project_simplex,
    reconstruct_povm,
)

__version__ = "0.1.0"
