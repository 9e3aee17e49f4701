"""Tests for peak fitting, threshold placement and count binning."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import signal

import tespovm as tp
from tespovm.calibration import _peak_search, _Spectrum

# Density minimum between Gaussians of weight 9:1 at 0 and 13 mV, both
# sigma 2 (root of the mixture-density derivative, scipy brentq).
VALLEY_9_TO_1 = 7.247115959047495


def _trace(amps, probe_id=0):
    return tp.AmplitudeTrace(probe_id=probe_id, amplitudes_mv=np.asarray(amps, float))


def test_fit_peaks_recovers_mixture():
    """Fitted means, widths and weights track the generating mixture."""
    trace = tp.simulate_trace(tp.DetectorPhysicalConfig(eta=0.051), 6.5, 100_000, seed=3)
    fit = tp.fit_peaks(trace)
    assert 4 <= fit.n_components <= 7
    assert abs(sum(c.weight for c in fit.components) - 100_000) < 100
    assert fit.goodness < 3.0
    lam = 0.051 * 6.5
    for c, comp in enumerate(fit.components[:4]):
        p = tp.poisson_pmf(lam, c)
        assert abs(comp.mean_mv - 13.0 * c) < 0.3
        assert 1.7 < comp.sigma_mv < 2.3
        assert abs(comp.weight - 100_000 * p) < 5.0 * np.sqrt(100_000 * p * (1 - p))
    spacings = np.diff(fit.means[:4])
    assert np.all((spacings > 12.0) & (spacings < 14.0))


def test_fit_peaks_respects_max_peaks():
    trace = tp.simulate_trace(tp.DetectorPhysicalConfig(eta=0.051), 130.0, 100_000, seed=6)
    fit = tp.fit_peaks(trace, max_peaks=5)
    assert fit.n_components <= 5


def _area_tv(trace, fit, n_outcomes=12):
    area = tp.bin_counts_by_area(trace, fit, n_outcomes)
    truth = np.bincount(np.minimum(trace.truth_counts, n_outcomes - 1), minlength=n_outcomes)
    return 0.5 * float(np.abs(area - truth).sum()) / trace.n_pulses


def test_fit_peaks_weak_zero_peak_is_tooth_zero():
    # At mu = 130 the zero peak holds 24 of 2e4 events: too few for the
    # peak search, which starts at the one-photon peak. The comb reaches
    # the zero peak from the data minimum.
    trace = tp.simulate_trace(tp.DetectorPhysicalConfig(), 130.0, 20_000, seed=3)
    fit = tp.fit_peaks(trace, max_peaks=40)
    zeros = int((trace.truth_counts == 0).sum())
    assert abs(fit.means[0]) < 0.5
    assert abs(fit.components[0].weight - zeros) < 5.0 * np.sqrt(zeros)
    assert abs(fit.spacing_mv - 13.0) < 0.13
    # No tooth is centred outside the histogram of the data.
    amps = trace.amplitudes_mv
    assert amps.min() - 1.3 <= fit.means[0]
    assert fit.means[-1] <= amps.max() + 1.3
    assert _area_tv(trace, fit) < 0.01


@pytest.mark.parametrize(("gamma", "seed"),
                         [(0.0, 3), (5e-4, 1), (5e-4, 2), (1e-3, 1), (1e-3, 2)])
def test_fit_peaks_dark_trace_has_no_scale(gamma, seed):
    # A dark trace shows one prominent peak, and its at most ~110 dark events
    # one spacing up are too few for a second: alone it has no photon-number
    # scale, so it raises rather than guess one.
    trace = tp.simulate_trace(tp.DetectorPhysicalConfig(gamma=gamma), 0.0, 100_000, seed=seed)
    with pytest.raises(tp.CalibrationError, match="no photon-number scale"):
        tp.fit_peaks(trace)


def test_fit_peaks_folds_teeth_past_max_peaks():
    trace = tp.simulate_trace(tp.DetectorPhysicalConfig(), 130.0, 100_000, seed=6)
    fit = tp.fit_peaks(trace, max_peaks=5)
    weights = np.array([c.weight for c in fit.components])
    assert fit.n_components == 5
    assert abs(weights.sum() - trace.n_pulses) < 0.01 * trace.n_pulses
    top = int((trace.truth_counts >= 4).sum())
    assert abs(weights[-1] - top) < 0.01 * top
    assert abs(fit.means[-1] - 4 * 13.0) < 0.5


def test_fit_peaks_raises_on_unresolved_peaks():
    # Spacing 2.9 zero-peak widths: the one-photon peak is a shoulder, not
    # a second prominent peak, so the trace has no scale of its own.
    detector = tp.DetectorPhysicalConfig(sigma0_mv=13.0 / 2.9)
    trace = tp.simulate_trace(detector, 6.5, 100_000, seed=3)
    with pytest.raises(tp.CalibrationError, match="no photon-number scale"):
        tp.fit_peaks(trace)


def _fit_ensemble(detector, seed, n_pulses=100_000):
    ensemble = tp.geometric_ensemble(n_pulses=n_pulses)
    traces = tp.simulate_ensemble(detector, ensemble, seed=seed, jobs=2)
    fits, failures = tp.fit_run(traces)
    return traces, fits, failures


def _worst_scale(fits):
    """The largest distance of any probe's zero peak from 0 mV, and of its
    spacing from 13 mV: every probe's component 0 must be the zero peak."""
    return (max(abs(fit.means[0]) for fit in fits.values()),
            max(abs(fit.spacing_mv - 13.0) for fit in fits.values()))


def test_comb_labels_widening_peaks():
    detector = tp.DetectorPhysicalConfig(sigma_slope_mv=0.5)
    traces, fits, failures = _fit_ensemble(detector, seed=3)
    assert failures == {}
    zero, spacing = _worst_scale(fits)
    assert zero < 0.5 and spacing < 0.13
    for trace in traces:
        assert _area_tv(trace, fits[trace.probe_id]) <= 0.01


def test_comb_low_resolution_fails_loudly_or_labels_right():
    # Spacing/sigma0 = 2.9: every probe raises or is right, and the run's
    # comb labels them all. Threshold binning is not bounded here:
    # overlapping peaks, not wrong labels, put it at TV 0.01-0.07.
    detector = tp.DetectorPhysicalConfig(sigma0_mv=13.0 / 2.9)
    traces, fits, failures = _fit_ensemble(detector, seed=3)
    zero, spacing = _worst_scale(fits)
    assert zero < 0.5 and spacing < 0.13
    right = [trace.probe_id for trace in traces if trace.probe_id in fits
             and _area_tv(trace, fits[trace.probe_id]) <= 0.01]
    assert sorted(right + list(failures)) == list(range(20))
    assert len(right) == 20


def test_fit_run_zero_tooth_ignores_tail_teeth():
    # At spacing/sigma0 = 2.9 and 2e4 pulses the tooth below the zero
    # peak takes 10-18 tail events in 4 probes: in probe 15, 17 events
    # beside a zero peak of 593, more than a hundredth of it. Poisson
    # light cannot put 593 one-count events beside 17 zero-count ones,
    # nor probe 0's 14130 beside 2, so none of these teeth is the zero.
    detector = tp.DetectorPhysicalConfig(sigma0_mv=13.0 / 2.9)
    traces, fits, failures = _fit_ensemble(detector, seed=3, n_pulses=20_000)
    assert failures == {}
    zero, _ = _worst_scale(fits)
    assert zero < 0.5
    for trace in traces:
        assert _area_tv(trace, fits[trace.probe_id]) <= 0.02, trace.probe_id


def test_fit_run_bright_run_keeps_its_labels():
    # eta = 0.9, gamma = 0.2, 2e4 pulses: only probes 0 and 1 keep 10 or
    # more zero-count events. Every other probe takes its zero from them:
    # fitted alone, a trace without a zero peak calls its lowest peak zero.
    detector = tp.DetectorPhysicalConfig(eta=0.9, gamma=0.2)
    traces, fits, failures = _fit_ensemble(detector, seed=2, n_pulses=20_000)
    assert failures == {}
    zero, spacing = _worst_scale(fits)
    assert zero < 0.5 and spacing < 0.05
    for trace in traces:
        fit = fits[trace.probe_id]
        assert _area_tv(trace, fit) <= 0.02, trace.probe_id
        if trace.amplitudes_mv.min() > fit.means[0] + fit.spacing_mv / 2.0:
            # No event near the zero tooth: it holds none.
            assert fit.components[0].weight == 0.0


def test_fit_run_failures_stay_out_of_the_scale():
    ensemble = tp.geometric_ensemble(n_probes=4, n_pulses=20_000)
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(), ensemble, seed=5)
    fits, failures = tp.fit_run(traces)
    assert failures == {} and sorted(fits) == [0, 1, 2, 3]
    tiny = _trace(np.linspace(-50.0, 50.0, 50), probe_id=7)
    # A trace too sparse to fit stays out of the pool: beside it, a lone
    # trace keeps its own fit bit for bit.
    for run, expected in ((traces, fits), (traces[:1], {0: tp.fit_peaks(traces[0])})):
        with_tiny, failed = tp.fit_run([*run, tiny])
        assert list(failed) == [7] and "need at least 100" in str(failed[7])
        for pid, fit in expected.items():
            got = with_tiny[pid]
            assert (got.components, got.goodness, got.spacing_mv) == (
                fit.components, fit.goodness, fit.spacing_mv)
    with pytest.raises(ValueError, match="repeated"):
        tp.fit_run([traces[0], traces[0]])
    assert tp.fit_run([]) == ({}, {})


def test_fit_run_is_the_same_for_any_trace_order():
    ensemble = tp.geometric_ensemble(n_probes=6, n_pulses=20_000)
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(), ensemble, seed=4)
    fits, failures = tp.fit_run(traces)
    reversed_fits, reversed_failures = tp.fit_run(traces[::-1])
    assert failures == reversed_failures == {} and sorted(fits) == sorted(reversed_fits)
    for pid, fit in fits.items():
        other = reversed_fits[pid]
        assert (fit.spacing_mv, fit.components, fit.goodness) == (
            other.spacing_mv, other.components, other.goodness)


@pytest.mark.parametrize("max_peaks", [20, None], ids=["max_peaks_20", "default"])
def test_fit_run_folds_teeth_once_at_max_peaks(max_peaks):
    # With max_peaks at the 20 count classes, or at the default of no fold,
    # the teeth fold once, at the last class. When the library default
    # folded at 16 the brightest probe put 6458 events in class 15 and none
    # in classes 16-19, and eta_hat read 0.095377, 24 standard errors low.
    ensemble = tp.geometric_ensemble(n_probes=4, n_pulses=20_000)
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(eta=0.1), ensemble, seed=1)
    fits, failures = (tp.fit_run(traces) if max_peaks is None
                      else tp.fit_run(traces, max_peaks=max_peaks))
    assert failures == {}
    for trace in traces:
        if max_peaks is not None:
            assert fits[trace.probe_id].n_components <= max_peaks
        assert _area_tv(trace, fits[trace.probe_id], n_outcomes=20) <= 0.01, trace.probe_id
    brightest = traces[-1]
    assert np.all(tp.bin_counts_by_area(brightest, fits[brightest.probe_id], 20)[16:] > 0)
    table = tp.CountTable.from_counts(
        np.column_stack([tp.bin_counts_by_area(t, fits[t.probe_id], 20) for t in traces]),
        probe_ids=ensemble.ids,
    )
    est = tp.estimate_eta_gamma(table, ensemble)
    assert abs(est.eta_hat - 0.1) < 5.0 * est.eta_se, (est.eta_hat, est.eta_se)


def test_fits_of_one_run_share_its_teeth():
    # One comb per run: every probe's teeth are a prefix of the longest
    # fit's, whatever its brightness, folded or not.
    ensemble = tp.geometric_ensemble(n_probes=4, n_pulses=20_000)
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(gamma=0.2), ensemble, seed=7)
    for max_peaks in (None, 12):
        fits, failures = tp.fit_run(traces, max_peaks=max_peaks)
        assert failures == {}
        longest = max(fits.values(), key=lambda fit: fit.n_components)
        assert len({fit.n_components for fit in fits.values()}) > 1
        for fit in fits.values():
            n = fit.n_components
            assert np.array_equal(fit.means, longest.means[:n])
            assert [c.sigma_mv for c in fit.components] == [
                c.sigma_mv for c in longest.components[:n]]
            assert fit.spacing_mv == longest.spacing_mv


def test_fit_run_trace_off_the_comb_fails_its_goodness_gate():
    # A trace of another detector, spacing 19 mV, sits on no tooth of the
    # run's 13 mV comb: it fails alone, and the run keeps its scale.
    ensemble = tp.geometric_ensemble(n_probes=4, n_pulses=20_000)
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(), ensemble, seed=5)
    odd = tp.simulate_trace(tp.DetectorPhysicalConfig(eta=0.3, peak_spacing_mv=19.0),
                            6.5, 20_000, seed=5)
    fits, failures = tp.fit_run([*traces, _trace(odd.amplitudes_mv, probe_id=9)])
    assert list(failures) == [9] and "reduced chi-square" in str(failures[9])
    zero, spacing = _worst_scale(fits)
    assert zero < 0.5 and spacing < 0.05
    for trace in traces:
        assert _area_tv(trace, fits[trace.probe_id]) <= 0.01


@settings(max_examples=20)
@given(eta=st.floats(0.01, 0.9), gamma=st.floats(0.0, 0.5), sigma0=st.floats(1.0, 3.0),
       sigma_slope=st.floats(0.0, 0.3), baseline=st.floats(-20.0, 20.0),
       seed=st.integers(0, 2**32 - 1))
@example(eta=0.9, gamma=0.2, sigma0=2.0, sigma_slope=0.0, baseline=0.0, seed=2)
@example(eta=0.051, gamma=0.0, sigma0=13.0 / 2.9, sigma_slope=0.0, baseline=0.0, seed=3)
# No trace shows two prominent peaks: without a scale every bright probe
# once put all its events in class 0.
@example(eta=0.699, gamma=0.3105, sigma0=3.8754, sigma_slope=0.2665, baseline=0.0,
         seed=1280924133)
def test_fit_run_labels_right_or_raises(eta, gamma, sigma0, sigma_slope, baseline, seed):
    """Calibrated counts match the true counts, or the probe fails: never
    wrong silently."""
    detector = tp.DetectorPhysicalConfig(eta=eta, gamma=gamma, baseline_mv=baseline,
                                         sigma0_mv=sigma0, sigma_slope_mv=sigma_slope)
    ensemble = tp.geometric_ensemble(n_probes=4, n_pulses=20_000)
    traces = tp.simulate_ensemble(detector, ensemble, seed=seed)
    try:
        fits, failures = tp.fit_run(traces)
    except tp.CalibrationError as exc:
        assert re.search("comb fit did not converge|no photon-number scale", str(exc))
        return
    for trace in traces:
        if trace.probe_id not in failures:
            assert _area_tv(trace, fits[trace.probe_id]) <= 0.02, trace.probe_id


def test_tooth_weight_counts_keep_the_estimates_honest():
    """simulate -> fit_run -> tooth-weight counts -> estimate_eta_gamma
    over detectors whose teeth overlap: eta_hat and gamma_hat scatter by
    their own standard errors, though events cross between teeth."""
    rng = np.random.default_rng(2026)
    ensemble = tp.geometric_ensemble(n_probes=4, n_pulses=10_000)
    z = []
    for _ in range(200):
        eta, sigma0, sigma_slope, gamma = (rng.uniform(0.01, 0.3), rng.uniform(1.0, 4.0),
                                           rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.5))
        detector = tp.DetectorPhysicalConfig(eta=eta, gamma=gamma, sigma0_mv=sigma0,
                                             sigma_slope_mv=sigma_slope)
        traces = tp.simulate_ensemble(detector, ensemble, seed=int(rng.integers(2**32)))
        fits, _ = tp.fit_run(traces)
        ids = sorted(fits)
        table = tp.CountTable.from_counts(
            np.column_stack([tp.bin_counts_by_area(traces[i], fits[i], 12) for i in ids]),
            probe_ids=ids,
        )
        est = tp.estimate_eta_gamma(table, ensemble)
        z.append([(est.eta_hat - eta) / est.eta_se, (est.gamma_hat - gamma) / est.gamma_se])
    rms_eta, rms_gamma = np.sqrt(np.mean(np.square(z), axis=0))
    assert 0.8 <= rms_eta <= 1.25 and 0.8 <= rms_gamma <= 1.25, (rms_eta, rms_gamma)


def test_two_maxima_of_one_hump_are_one_peak():
    # A flat-topped hump whose smoothed maxima tie: prominence looks past
    # the equal neighbour, so both maxima reach the hump's full height.
    # The shallow valley between them makes them one peak. Teeth keep theirs.
    hump = [10, 30, 60, 80, 90, 95, 90, 85, 90, 95, 90, 80, 60, 30, 10]
    amps = np.repeat(np.arange(len(hump)) + 0.5, hump)
    spectrum = _Spectrum.of(amps, 1.0)
    heights = spectrum.smooth[_peak_search(spectrum.smooth)[0]]
    assert heights.size == 2 and heights[0] == heights[1]
    assert spectrum.peaks.size == 1
    rng = np.random.default_rng(0)
    teeth = np.concatenate([rng.normal(0.0, 2.0, 5000), rng.normal(13.0, 2.0, 500)])
    assert _Spectrum.of(teeth, 1.3).peaks.size == 2


@given(st.floats(0.1, 10.0),
       st.lists(st.tuples(st.floats(-200.0, 200.0),
                          hnp.arrays(float, st.integers(1, 30), elements=st.floats(-20.0, 20.0))),
                min_size=1, max_size=4))
def test_pooled_spectrum_sums_its_traces_on_one_grid(bin_width, traces):
    spectra = [_Spectrum.of(offset + amps, bin_width) for offset, amps in traces]
    pool = _Spectrum.pooled(spectra)
    total = np.zeros_like(pool.counts)
    for s in spectra:
        at = s.first - pool.first
        # Every edge is the bin width times the same integer in both grids.
        assert np.array_equal(s.edges, pool.edges[at:at + s.edges.size])
        total[at:at + s.counts.size] += s.counts
    assert np.array_equal(pool.counts, total)
    assert pool.counts.sum() == sum(s.counts.sum() for s in spectra)
    alone, own = _Spectrum.pooled(spectra[:1]), spectra[0]
    assert alone.first == own.first
    for name in ("counts", "edges", "centers", "smooth", "peaks", "widths"):
        assert np.array_equal(getattr(alone, name), getattr(own, name)), name


@given(hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(0, 5)))
@example(np.array([0, 3, 3, 3, 0, 3, 3, 1, 3, 3, 0]))
def test_peak_search_is_scipy_bit_for_bit(steps):
    # Small integers over 3 give plateaus, tied bases and inexact floats.
    x = steps / 3.0
    peaks, prominences, left_bases, right_bases, widths = _peak_search(x)
    expected, props = signal.find_peaks(x, height=0.0, prominence=0.0)
    assert np.array_equal(peaks, expected)
    assert np.array_equal(prominences, props["prominences"])
    assert np.array_equal(left_bases, props["left_bases"])
    assert np.array_equal(right_bases, props["right_bases"])
    assert np.array_equal(widths, signal.peak_widths(x, expected)[0])


def _comb_spectrum():
    # sigma_slope > 0, so every comb parameter moves the bins.
    detector = tp.DetectorPhysicalConfig(eta=0.3, sigma_slope_mv=0.2)
    trace = tp.simulate_trace(detector, 10.0, 20_000, seed=1)
    return _Spectrum.of(trace.amplitudes_mv, 1.3), np.array([0.0, 13.0, 2.0, 0.2])


def _central_difference(f, comb, h=1e-5):
    return np.stack([(f(comb + h * e) - f(comb - h * e)) / (2.0 * h) for e in np.eye(4)],
                    axis=-1)


def test_comb_jacobian_is_exact_on_noise_free_bins():
    spectrum, comb = _comb_spectrum()
    teeth = spectrum.teeth(comb[0], comb[1])
    # Counts set to the model's own bins: the residuals vanish at this comb,
    # and with them the one term Kaufman's Jacobian leaves out.
    spectrum.counts = spectrum.mass(comb, teeth) @ (1000.0 * np.exp(-0.3 * teeth) + 50.0)
    jac = spectrum.jacobian(comb, teeth)
    expected = _central_difference(lambda c: spectrum.residuals(c, teeth), comb)
    assert np.abs(spectrum.residuals(comb, teeth)).max() < 1e-9
    np.testing.assert_allclose(jac, expected, rtol=1e-6, atol=1e-6 * np.abs(expected).max())


@pytest.mark.parametrize("offset", [[0.0, 0.0, 0.0, 0.0], [0.4, -0.2, 0.3, 0.05],
                                    [-0.8, 0.3, -0.4, -0.1]])
def test_comb_jacobian_gives_the_exact_gradient(offset):
    # On noisy bins the dropped term lies in the span of the weighted teeth,
    # to which the residuals are orthogonal: J^T r is the exact gradient.
    spectrum, comb = _comb_spectrum()
    comb = comb + offset
    teeth = spectrum.teeth(0.0, 13.0)
    resid = spectrum.residuals(comb, teeth)
    gradient = spectrum.jacobian(comb, teeth).T @ resid
    expected = _central_difference(
        lambda c: 0.5 * float(spectrum.residuals(c, teeth) @ spectrum.residuals(c, teeth)), comb)
    np.testing.assert_allclose(gradient, expected, rtol=1e-6)


def test_fit_peaks_rejects_tiny_traces():
    with pytest.raises(tp.CalibrationError, match="need at least 100"):
        tp.fit_peaks(_trace(np.zeros(50)))


def test_fit_peaks_input_validation():
    trace = _trace(np.linspace(0.0, 10.0, 200))
    with pytest.raises(ValueError):
        tp.fit_peaks(trace, bin_width_mv=0.0)
    with pytest.raises(ValueError):
        tp.fit_peaks(trace, max_peaks=0)
    with pytest.raises(TypeError, match="max_peaks must be an integer, got 2.5"):
        tp.fit_peaks(trace, max_peaks=2.5)
    # A run of no traces only checks the settings.
    assert tp.fit_run((), bin_width_mv=2.0, max_peaks=3) == ({}, {})


def test_place_thresholds_finds_density_valley():
    fit = tp.GaussianMixtureFit(
        components=(
            tp.GaussianComponent(weight=90_000.0, mean_mv=0.0, sigma_mv=2.0),
            tp.GaussianComponent(weight=10_000.0, mean_mv=13.0, sigma_mv=2.0),
        ),
        goodness=1.0,
    )
    cuts = tp.place_thresholds(fit, xatol=1e-6)
    assert len(cuts.cut_points_mv) == 1
    assert abs(cuts.cut_points_mv[0] - VALLEY_9_TO_1) < 1e-4
    # At the default xatol the parabola's vertex still lands on the valley.
    assert abs(tp.place_thresholds(fit).cut_points_mv[0] - VALLEY_9_TO_1) < 1e-6


def test_place_thresholds_midpoint_fallback():
    # Heavy overlap leaves no interior valley; the midpoint is used.
    fit = tp.GaussianMixtureFit(
        components=(
            tp.GaussianComponent(weight=1000.0, mean_mv=0.0, sigma_mv=10.0),
            tp.GaussianComponent(weight=1000.0, mean_mv=13.0, sigma_mv=10.0),
        ),
        goodness=1.0,
    )
    with pytest.warns(UserWarning, match="midpoint"):
        cuts = tp.place_thresholds(fit)
    assert cuts.cut_points_mv[0] == 6.5


@pytest.mark.parametrize("xatol, error", [(0, ValueError), (-1.0, ValueError),
                                           (float("nan"), ValueError), (float("inf"), ValueError),
                                           (True, TypeError), ("1e-3", TypeError)])
def test_place_thresholds_refuses_a_bad_xatol(xatol, error):
    fit = tp.GaussianMixtureFit(
        components=(tp.GaussianComponent(9_000.0, 0.0, 2.0),
                    tp.GaussianComponent(1_000.0, 13.0, 2.0)),
        goodness=1.0,
    )
    with pytest.raises(error, match="xatol"):
        tp.place_thresholds(fit, xatol=xatol)


def test_bin_counts_boundary_and_fold():
    trace = _trace([-1.0, 0.0, 1.0, 6.5, 7.0, 200.0])
    cuts = tp.ThresholdSet((0.0, 6.5, 20.0))
    # The upper class owns the boundary; classes >= 2 fold into the top.
    out = tp.bin_counts(trace, cuts, 3)
    assert out.tolist() == [1, 2, 3]
    assert out.dtype == np.int64
    full = tp.bin_counts(trace, cuts, 4)
    assert full.tolist() == [1, 2, 2, 1]


@given(amps=hnp.arrays(float, st.integers(0, 300), elements=st.floats(-50.0, 50.0)),
       extra=st.lists(st.floats(-60.0, 60.0), max_size=20),
       picks=st.lists(st.integers(0, 299), max_size=20), n_outcomes=st.integers(2, 20))
def test_bin_counts_is_searchsorted_then_bincount(amps, extra, picks, n_outcomes):
    # Cuts drawn from the amplitudes themselves put events on a boundary.
    drawn = [float(amps[i % amps.size]) for i in picks] if amps.size else []
    cuts = sorted(set(extra + drawn))[:20]
    out = tp.bin_counts(_trace(amps), tp.ThresholdSet(tuple(cuts)), n_outcomes)
    idx = np.minimum(np.searchsorted(cuts, amps, side="right"), n_outcomes - 1)
    assert out.dtype == np.int64
    assert out.tolist() == np.bincount(idx, minlength=n_outcomes).tolist()


def test_bin_counts_affine_invariance():
    rng = np.random.default_rng(12)
    amps = rng.normal(0.0, 20.0, 5000)
    cuts = (-15.0, -5.0, 5.0, 15.0)
    base = tp.bin_counts(_trace(amps), tp.ThresholdSet(cuts), 5)
    a, b = 2.7, -5.0
    scaled = tp.bin_counts(
        _trace(a * amps + b), tp.ThresholdSet(tuple(a * c + b for c in cuts)), 5
    )
    assert np.array_equal(base, scaled)


def test_bin_counts_validation():
    with pytest.raises(ValueError):
        tp.bin_counts(_trace([1.0]), tp.ThresholdSet((0.5,)), 1)
    with pytest.raises(ValueError):
        tp.ThresholdSet((1.0, 1.0))
    with pytest.raises(ValueError):
        tp.ThresholdSet((np.inf,))


def test_bin_counts_by_area_exact_shares():
    fit = tp.GaussianMixtureFit(
        components=tuple(
            tp.GaussianComponent(weight=w, mean_mv=13.0 * i, sigma_mv=2.0)
            for i, w in enumerate([10.0, 20.0, 30.0, 40.0, 100.0])
        ),
        goodness=1.0,
    )
    trace = _trace(np.zeros(100))
    out = tp.bin_counts_by_area(trace, fit, 3)
    # Components beyond the top class fold: shares 10:20:170 over 100 events.
    assert out.tolist() == [5, 10, 85]
    assert out.sum() == 100


def test_bin_counts_by_area_largest_remainder():
    fit = tp.GaussianMixtureFit(
        components=tuple(
            tp.GaussianComponent(weight=1.0, mean_mv=13.0 * i, sigma_mv=2.0)
            for i in range(3)
        ),
        goodness=1.0,
    )
    out = tp.bin_counts_by_area(_trace(np.zeros(100)), fit, 3)
    assert out.sum() == 100
    assert sorted(out.tolist()) == [33, 33, 34]
    with pytest.raises(ValueError):
        tp.bin_counts_by_area(_trace(np.zeros(100)), fit, 1)


def test_threshold_and_area_binning_agree():
    trace = tp.simulate_trace(tp.DetectorPhysicalConfig(eta=0.051), 31.0, 100_000, seed=9)
    fit = tp.fit_peaks(trace)
    thresholds = tp.place_thresholds(fit)
    by_cut = tp.bin_counts(trace, thresholds, 12)
    by_area = tp.bin_counts_by_area(trace, fit, 12)
    assert by_area.sum() == by_cut.sum() == 100_000
    tv = 0.5 * np.abs(by_cut / by_cut.sum() - by_area / by_area.sum()).sum()
    assert tv < 0.01


def test_count_table_from_counts():
    counts = np.array([[80, 10], [20, 90]])
    table = tp.CountTable.from_counts(counts, probe_ids=(4, 2))
    assert np.allclose(table.probs.sum(axis=0), 1.0)
    assert np.array_equal(table.counts, counts)
    assert table.probe_ids == (4, 2)
    assert table.n_outcomes == 2
    assert table.n_probes == 2


@pytest.mark.parametrize("bad", [
    (5, 0.7), (5, True), (5, "3"), 5, "53", {5, 3}, np.array([[5, 3]]), np.array([5.0, 3.0]),
], ids=["0.7", "True", "3", "int", "str", "set", "2-D", "float-array"])
def test_count_table_probe_ids_must_be_integers(bad):
    probs = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(TypeError, match="probe_ids"):
        tp.CountTable.from_probs(probs, probe_ids=bad)
    for good in ((np.int64(5), np.int64(3)), np.array([5, 3]), [5, 3]):
        ids = tp.CountTable.from_probs(probs, probe_ids=good).probe_ids
        assert ids == (5, 3) and all(type(i) is int for i in ids)
    assert tp.CountTable.from_probs(probs, probe_ids=np.array([], int)).probe_ids == (0, 1)


def test_count_table_from_probs_column():
    table = tp.CountTable.from_probs(np.array([[0.25], [0.75]]))
    assert table.counts is None
    assert np.array_equal(table.probs[:, 0], np.array([0.25, 0.75]))


def test_count_table_validation():
    with pytest.raises(ValueError, match="have no events"):
        tp.CountTable.from_counts(np.array([[5, 0], [5, 0]]))
    # A counted table derives its probabilities; it cannot be given others.
    with pytest.raises(ValueError, match="give counts or probs"):
        tp.CountTable(np.array([[0.5], [0.5]]), counts=np.array([[9], [1]]))
    with pytest.raises(ValueError):
        tp.CountTable.from_counts(np.array([[0.5, 0.5], [0.5, 0.5]]))  # not integers
    with pytest.raises(ValueError):
        tp.CountTable.from_counts(np.array([[-1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        tp.CountTable.from_probs(np.array([[0.5], [0.4]]))
    with pytest.raises(ValueError):
        tp.CountTable.from_probs(np.array([[0.5, 0.5], [0.5, 0.5]]), probe_ids=(1, 1))
    with pytest.raises(ValueError):
        tp.CountTable.from_probs(np.array([0.5, 0.5]))


def test_gaussian_mixture_fit_validation():
    comp = tp.GaussianComponent(weight=1.0, mean_mv=0.0, sigma_mv=1.0)
    with pytest.raises(ValueError):
        tp.GaussianMixtureFit(components=(), goodness=1.0)
    with pytest.raises(ValueError):
        tp.GaussianMixtureFit(components=(comp, comp), goodness=1.0)
    # A tooth may hold no events; it may not hold a negative number.
    zero = tp.GaussianComponent(weight=0.0, mean_mv=0.0, sigma_mv=1.0)
    assert tp.GaussianMixtureFit(components=(zero,), goodness=1.0).n_components == 1
    with pytest.raises(ValueError):
        tp.GaussianMixtureFit(
            components=(tp.GaussianComponent(weight=-1.0, mean_mv=0.0, sigma_mv=1.0),),
            goodness=1.0,
        )


@pytest.mark.parametrize("probe", [0, 3])
def test_fit_run_stray_cluster_below_zero_moves_no_label(probe):
    # 300 stray events one spacing below the zero peak of one probe: of
    # probe 0, beside its 14 000 zero-count events, or of probe 3 (mu =
    # 130), whose zero tooth holds about 30. Either way the other probes'
    # zero peaks rule the cluster out as the zero, and no label moves.
    ensemble = tp.geometric_ensemble(n_probes=4, n_pulses=20_000)
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(), ensemble, seed=5)
    stray = np.random.default_rng(0).normal(-13.0, 2.0, 300)
    traces[probe] = _trace(np.append(traces[probe].amplitudes_mv, stray), probe_id=probe)
    fits, failures = tp.fit_run(traces)
    assert failures == {}
    for trace in traces:
        fit = fits[trace.probe_id]
        assert abs(fit.means[0]) < 0.5, trace.probe_id
        if trace.truth_counts is not None:
            assert _area_tv(trace, fit) <= 0.01, trace.probe_id


def test_fit_peaks_counts_as_fit_run_does():
    # Every probe of a run sits on the run's one comb, and a trace fitted
    # alone gets its own comb: its tooth-weight counts differ by at most
    # an event per class.
    ensemble = tp.geometric_ensemble(n_probes=4, n_pulses=20_000)
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(gamma=0.2), ensemble, seed=5)
    fits, failures = tp.fit_run(traces)
    assert failures == {}
    assert len({fit.means[0] for fit in fits.values()}) == 1
    assert len({fit.spacing_mv for fit in fits.values()}) == 1
    for trace in traces:
        alone = tp.bin_counts_by_area(trace, tp.fit_peaks(trace), 12)
        together = tp.bin_counts_by_area(trace, fits[trace.probe_id], 12)
        assert np.abs(alone - together).max() <= 1, trace.probe_id


def test_fit_run_fails_a_run_no_poisson_light_explains():
    # 10 000 one-count events beside 100 zero-count ones: classical light
    # allows at most ln(10 200 / 100) ~ 4.6 times as many, so no tooth is zero.
    rng = np.random.default_rng(1)
    amps = np.concatenate([rng.normal(0.0, 2.0, 100), rng.normal(13.0, 2.0, 10_000),
                           rng.normal(26.0, 2.0, 100)])
    fits, failures = tp.fit_run([_trace(amps)])
    assert fits == {} and "every probe admits" in str(failures[0])
