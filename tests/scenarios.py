"""Seeded scenarios over the detector/probe space, and the verdicts on them.

The chain is the CLI's route as library calls: ``simulate_ensemble`` ->
``fit_run`` -> ``counts_by_area`` -> ``estimate_eta_gamma``, on draws from
a seeded numpy Generator. ``PYTHONPATH=src python tests/scenarios.py``
replays the tooth-weight draws with eta up to 0.9 (200 runs, 35-53 s) and
prints the verdict counts.
"""

import collections
import re
from typing import NamedTuple

import numpy as np

import tespovm as tp
from tespovm.calibration import counts_by_area

N_OUTCOMES = 12


class Run(NamedTuple):
    """One seeded run of an ensemble, fitted as ``calibrate`` fits it."""

    ensemble: tp.ProbeEnsemble
    traces: list
    fits: dict
    failures: dict

    def estimate(self, n_outcomes=N_OUTCOMES) -> tp.EfficiencyEstimate:
        """The joint fit to the fitted probes' tooth-weight counts."""
        ids = sorted(self.fits)
        events = {trace.probe_id: trace.n_pulses for trace in self.traces}
        counts = np.column_stack([counts_by_area(self.fits[i], n_outcomes, events[i])
                                  for i in ids])
        return tp.estimate_eta_gamma(tp.CountTable.from_counts(counts, probe_ids=ids),
                                     self.ensemble)


def calibrate(detector, ensemble, seed, jobs=1) -> Run:
    """Simulate ``ensemble`` on ``detector`` at ``seed`` on ``jobs`` threads
    and fit the run; raises ``CalibrationError`` where ``fit_run`` refuses
    the whole run."""
    traces = tp.simulate_ensemble(detector, ensemble, seed=seed, jobs=jobs)
    return Run(ensemble, traces, *tp.fit_run(traces))


def detector_draws(rng, n_runs, eta_max=0.3):
    """``(detector, seed)`` of ``n_runs`` runs from ``rng``: eta in [0.01,
    eta_max), sigma0 in [1, 4) mV, sigma-slope in [0, 0.3) mV and gamma in
    [0, 0.5), drawn in that order, then the run's seed."""
    for _ in range(n_runs):
        eta, sigma0, sigma_slope, gamma = (rng.uniform(0.01, eta_max), rng.uniform(1.0, 4.0),
                                           rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.5))
        detector = tp.DetectorPhysicalConfig(eta=eta, gamma=gamma, sigma0_mv=sigma0,
                                             sigma_slope_mv=sigma_slope)
        yield detector, int(rng.integers(2**32))


def poisson_column(lam, n_outcomes):
    """The linear model's outcome column: Poisson(lam), the top class its tail."""
    body = tp.poisson_pmf(lam, np.arange(n_outcomes - 1))
    return np.append(body, 1.0 - body.sum())


def model_draws(eta, gamma, n_draws, seed):
    """Count tables drawn straight from the linear model on the default design."""
    ens, rng = tp.geometric_ensemble(), np.random.default_rng(seed)
    probs = [poisson_column(eta * p.mean_photons + gamma, N_OUTCOMES) for p in ens.probes]
    for _ in range(n_draws):
        yield ens, tp.CountTable.from_counts(rng.multinomial(100_000, probs).T, probe_ids=ens.ids)


def true_counts(traces, n_outcomes=N_OUTCOMES) -> np.ndarray:
    """True detected-count histograms, top class cumulative, one column a trace."""
    return np.column_stack([
        np.bincount(np.minimum(trace.truth_counts, n_outcomes - 1), minlength=n_outcomes)
        for trace in traces
    ])


def area_tv(trace, fit, n_outcomes=N_OUTCOMES) -> float:
    """Total-variation distance of a trace's tooth-weight counts from its truth."""
    area = tp.bin_counts_by_area(trace, fit, n_outcomes)
    truth = true_counts([trace], n_outcomes)[:, 0]
    return 0.5 * float(np.abs(area - truth).sum()) / trace.n_pulses


def mislabelled(run, tol, n_outcomes=N_OUTCOMES) -> list:
    """Ids of the run's fitted probes whose counts lie more than ``tol`` in
    TV from the truth: labelled wrong, and not failed."""
    return [trace.probe_id for trace in run.traces if trace.probe_id in run.fits
            and area_tv(trace, run.fits[trace.probe_id], n_outcomes) > tol]


def z_scores(est, eta, gamma=0.0) -> list:
    """The z of eta_hat, and of gamma_hat when ``est`` fits one, against the truth."""
    z = [(est.eta_hat - eta) / est.eta_se]
    if est.gamma_hat is not None:
        z.append((est.gamma_hat - gamma) / est.gamma_se)
    return z


def raised_known(exc) -> bool:
    """Whether ``exc`` is one of the ways ``fit_run`` refuses a whole run."""
    return re.search("comb fit did not converge|no photon-number scale", str(exc)) is not None


def fidelity_to_truth(povm, eta) -> float:
    """Least fidelity over m <= 100 of ``povm`` to ``binomial_povm(eta)``'s."""
    truth = tp.binomial_povm(eta, povm.n_outcomes, povm.truncation)
    return tp.fidelity_curve(povm, truth).min_low


def _replay():
    """ROADMAP item 5's replay: the tooth-weight draws with eta up to 0.9."""
    ensemble = tp.geometric_ensemble(n_probes=4, n_pulses=10_000)
    runs = collections.defaultdict(list)
    for k, (detector, seed) in enumerate(detector_draws(np.random.default_rng(2026), 200, 0.9)):
        try:
            run = calibrate(detector, ensemble, seed)
        except tp.CalibrationError as exc:
            runs[f"raised ({'known' if raised_known(exc) else 'UNKNOWN'}): {exc}"].append(k)
            continue
        z = z_scores(run.estimate(), detector.eta, detector.gamma)
        wrong = max(map(abs, z)) > 5.0
        runs["silently wrong, |z| > 5" if wrong else "right, |z| <= 5"].append(
            f"{k} (z {z[0]:+.1f}, {z[1]:+.1f})")
        if mislabelled(run, 0.02):
            runs["area TV > 0.02"].append(k)
    for verdict, ks in sorted(runs.items()):
        listed = f": runs {', '.join(map(str, ks))}" if len(ks) < 10 else ""
        print(f"{len(ks):4d}  {verdict}{listed}")


if __name__ == "__main__":
    _replay()
