"""Tests for peak fitting, threshold placement and count binning."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import optimize, signal, special

import tespovm as tp
from tespovm import calibration
from tespovm.calibration import _CombSolve, _maximize, _ndtr, _nnls, _peak_search, _Spectrum

import scenarios

# Density minimum between Gaussians of weight 9:1 at 0 and 13 mV, both
# sigma 2 (root of the mixture-density derivative, scipy brentq).
VALLEY_9_TO_1 = 7.247115959047495
_FOUR_PROBES = tp.geometric_ensemble(n_probes=4, n_pulses=20_000)


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
    assert scenarios.area_tv(trace, fit) < 0.01


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


def test_fit_run_streams_a_generator_as_it_does_a_list():
    detector = tp.DetectorPhysicalConfig()
    ensemble = tp.geometric_ensemble(n_probes=6, n_pulses=20_000)
    traces = tp.simulate_ensemble(detector, ensemble, seed=4)
    traces.append(_trace(traces[0].amplitudes_mv[:50], probe_id=99))
    listed, listed_failures = tp.fit_run(traces)
    fits, failures = tp.fit_run(t for t in traces)
    assert sorted(failures) == sorted(listed_failures) == [99]
    assert sorted(fits) == sorted(listed)
    for pid, fit in fits.items():
        assert fit.components == listed[pid].components
        assert (fit.goodness, fit.spacing_mv) == (listed[pid].goodness, listed[pid].spacing_mv)


def _worst_scale(fits):
    """The largest distance of any probe's zero peak from 0 mV, and of its
    spacing from 13 mV: every probe's component 0 must be the zero peak."""
    return (max(abs(fit.means[0]) for fit in fits.values()),
            max(abs(fit.spacing_mv - 13.0) for fit in fits.values()))


def test_comb_labels_widening_peaks():
    detector = tp.DetectorPhysicalConfig(sigma_slope_mv=0.5)
    run = scenarios.calibrate(detector, tp.geometric_ensemble(), seed=3, jobs=2)
    assert run.failures == {}
    zero, spacing = _worst_scale(run.fits)
    assert zero < 0.5 and spacing < 0.13
    assert scenarios.mislabelled(run, 0.01) == []


def test_comb_low_resolution_labels_every_probe_right():
    # Spacing/sigma0 = 2.9: the run's comb labels every probe right, none
    # failing. Threshold binning is not bounded here: overlapping peaks,
    # not wrong labels, put it at TV 0.01-0.07.
    detector = tp.DetectorPhysicalConfig(sigma0_mv=13.0 / 2.9)
    run = scenarios.calibrate(detector, tp.geometric_ensemble(), seed=3, jobs=2)
    zero, spacing = _worst_scale(run.fits)
    assert zero < 0.5 and spacing < 0.13
    assert run.failures == {} and scenarios.mislabelled(run, 0.01) == []


def test_fit_run_zero_tooth_ignores_tail_teeth():
    # At spacing/sigma0 = 2.9 and 2e4 pulses the tooth below the zero
    # peak takes 10-18 tail events in 4 probes: in probe 15, 17 events
    # beside a zero peak of 593, more than a hundredth of it. Poisson
    # light cannot put 593 one-count events beside 17 zero-count ones,
    # nor probe 0's 14130 beside 2, so none of these teeth is the zero.
    detector = tp.DetectorPhysicalConfig(sigma0_mv=13.0 / 2.9)
    run = scenarios.calibrate(detector, tp.geometric_ensemble(n_pulses=20_000), 3, jobs=2)
    assert run.failures == {}
    zero, _ = _worst_scale(run.fits)
    assert zero < 0.5
    assert scenarios.mislabelled(run, 0.02) == []


def test_fit_run_bright_run_keeps_its_labels():
    # eta = 0.9, gamma = 0.2, 2e4 pulses: only probes 0 and 1 keep 10 or
    # more zero-count events. Every other probe takes its zero from them:
    # fitted alone, a trace without a zero peak calls its lowest peak zero.
    detector = tp.DetectorPhysicalConfig(eta=0.9, gamma=0.2)
    run = scenarios.calibrate(detector, tp.geometric_ensemble(n_pulses=20_000), 2, jobs=2)
    assert run.failures == {}
    zero, spacing = _worst_scale(run.fits)
    assert zero < 0.5 and spacing < 0.05
    assert scenarios.mislabelled(run, 0.02) == []
    for trace in run.traces:
        fit = run.fits[trace.probe_id]
        if trace.amplitudes_mv.min() > fit.means[0] + fit.spacing_mv / 2.0:
            # No event near the zero tooth: it holds none.
            assert fit.components[0].weight == 0.0


def test_fit_run_failures_stay_out_of_the_scale():
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(), _FOUR_PROBES, seed=5)
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


@pytest.mark.parametrize("n_outcomes", [20, 24])
def test_run_fits_fold_once_when_counted(n_outcomes):
    # A run's fits keep every tooth up to the last that holds the weight
    # floor, and the teeth fold once, at the last count class. When the
    # library default folded the fits at 16 the brightest probe put 6458
    # events in class 15 and none in classes 16-19, and eta_hat read
    # 0.095377, 24 standard errors low.
    run = scenarios.calibrate(tp.DetectorPhysicalConfig(eta=0.1), _FOUR_PROBES, seed=1)
    assert run.failures == {}
    assert min(fit.components[-1].weight for fit in run.fits.values()) >= (
        calibration.WEIGHT_FLOOR_EVENTS)
    assert scenarios.mislabelled(run, 0.01, n_outcomes) == []
    assert run.fits[3].n_components > n_outcomes
    assert np.all(tp.bin_counts_by_area(run.traces[3], run.fits[3], n_outcomes)[16:] > 0)
    est = run.estimate(n_outcomes)
    assert abs(est.eta_hat - 0.1) < 5.0 * est.eta_se, (est.eta_hat, est.eta_se)


def test_fits_of_one_run_share_its_teeth():
    # One comb per run: every probe's teeth are a prefix of the longest
    # fit's, whatever its brightness.
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(gamma=0.2), _FOUR_PROBES, seed=7)
    fits, failures = tp.fit_run(traces)
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
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(), _FOUR_PROBES, seed=5)
    odd = tp.simulate_trace(tp.DetectorPhysicalConfig(eta=0.3, peak_spacing_mv=19.0),
                            6.5, 20_000, seed=5)
    fits, failures = tp.fit_run([*traces, _trace(odd.amplitudes_mv, probe_id=9)])
    assert list(failures) == [9] and "reduced chi-square" in str(failures[9])
    zero, spacing = _worst_scale(fits)
    assert zero < 0.5 and spacing < 0.05
    for trace in traces:
        assert scenarios.area_tv(trace, fits[trace.probe_id]) <= 0.01


# Hypothesis seeds a derandomized test from a digest of its source text: this
# one keeps the 20 draws the test was checked on when its text changes.
@seed(0xb8b463a989e4aa40e6e550fd8ba2c0e7a02ca701c701502765a70ceb8e77e4aafa4c811d88330bdd1103c06818eb2bf8)
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
    try:
        run = scenarios.calibrate(detector, _FOUR_PROBES, seed)
    except tp.CalibrationError as exc:
        assert scenarios.raised_known(exc), exc
        return
    assert scenarios.mislabelled(run, 0.02) == []


def test_tooth_weight_counts_keep_the_estimates_honest():
    """simulate -> fit_run -> tooth-weight counts -> estimate_eta_gamma
    over detectors whose teeth overlap: eta_hat and gamma_hat scatter by
    their own standard errors, though events cross between teeth."""
    ensemble = tp.geometric_ensemble(n_probes=4, n_pulses=10_000)
    z = [scenarios.z_scores(scenarios.calibrate(detector, ensemble, seed).estimate(),
                            detector.eta, detector.gamma)
         for detector, seed in scenarios.detector_draws(np.random.default_rng(2026), 200)]
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


def test_spectra_refuse_more_than_max_bins():
    # Each histogram is refused from its ends, before its grid is built:
    # a trace's own range, or the range the run's traces span together.
    ramp = np.linspace(0.0, 100.0, 1000)
    max_bins = tp.calibration.MAX_BINS
    assert _Spectrum.of(ramp, 100.0 / (max_bins - 1)).counts.size == max_bins
    for width in (100.0 / max_bins, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="bin_width_mv .* more than 65536 bins"):
            _Spectrum.of(ramp, width)
    apart = [_Spectrum.of(ramp + offset, 1.0) for offset in (0.0, 1e5)]
    with pytest.raises(ValueError, match=r"the run's amplitudes into 100101 bins"):
        _Spectrum.pooled(apart)


@pytest.mark.parametrize("bin_width", [0.1, 0.2, 0.3, 1.1, 1.3, 2.6])
def test_histogram_keeps_every_amplitude_on_a_quantised_grid(bin_width):
    # Amplitudes on an ADC's 0.1 mV steps: where lowest / bin_width rounds
    # up onto an integer, that integer's edge lies above the lowest
    # amplitude, and the grid must start one bin lower to hold it.
    for k in range(-100, 400):
        trace = _trace(np.arange(k, k + 200) / 10.0)
        histogram = calibration._histogram(trace, bin_width)
        assert histogram.edges[0] <= trace.amplitudes_mv.min(), k
        assert histogram.counts.sum() == trace.n_pulses, k


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
    jac = _CombSolve(spectrum, comb, teeth).jacobian()
    expected = _central_difference(lambda c: _CombSolve(spectrum, c, teeth).residuals, comb)
    assert np.abs(_CombSolve(spectrum, comb, teeth).residuals).max() < 1e-9
    np.testing.assert_allclose(jac, expected, rtol=1e-6, atol=1e-6 * np.abs(expected).max())


@pytest.mark.parametrize("offset", [[0.0, 0.0, 0.0, 0.0], [0.4, -0.2, 0.3, 0.05],
                                    [-0.8, 0.3, -0.4, -0.1]])
def test_comb_jacobian_gives_the_exact_gradient(offset):
    # On noisy bins the dropped term lies in the span of the weighted teeth,
    # to which the residuals are orthogonal: J^T r is the exact gradient.
    spectrum, comb = _comb_spectrum()
    comb = comb + offset
    teeth = spectrum.teeth(0.0, 13.0)
    solve = _CombSolve(spectrum, comb, teeth)
    gradient = solve.jacobian().T @ solve.residuals

    def cost(c):
        resid = _CombSolve(spectrum, c, teeth).residuals
        return 0.5 * float(resid @ resid)

    np.testing.assert_allclose(gradient, _central_difference(cost, comb), rtol=1e-6)


def test_ndtr_matches_scipy():
    # A dense grid, with -38.5 and 8.5, beyond which the CDF is set, not
    # evaluated, and +-2.5, and the neighbours of each.
    z = np.r_[np.linspace(-40.0, 40.0, 800_001), -38.5, -2.5, 2.5, 8.5,
              np.nextafter([-38.5, -2.5, 2.5, 8.5], 0.0)]
    expected = special.ndtr(z)
    got = _ndtr(z)
    error = np.abs(got - expected)
    assert error.max() <= 1e-15
    tail = expected > 1e-300
    assert (error[tail] / expected[tail]).max() <= 1e-13
    rounded = (z <= -38.5) | (z >= 8.5)
    assert np.array_equal(got[rounded], expected[rounded])
    assert set(expected[rounded]) == {0.0, 1.0}
    assert np.array_equal(_ndtr(z[-12:].reshape(4, 3)), _ndtr(z[-12:]).reshape(4, 3))


@pytest.mark.parametrize("z", [
    np.array([]),
    np.array([-1e300, -40.0, -38.5, 8.5, 9.0, np.inf, -np.inf]),
    np.r_[np.nextafter(-38.5, 0.0), -2.5, -0.0, 0.0, 2.5, np.nextafter(8.5, 0.0)],
    np.linspace(-38.4, 8.4, 3_170),
    np.linspace(-5.0, 5.0, 12).reshape(3, 4),
], ids=["empty", "set-only", "edges", "grid", "two-d"])
def test_ndtr_is_bitwise_math_erfc(z):
    # Each entry is the standard library's erfc(-z * sqrt(1/2)) / 2, taken
    # one at a time, or the 0.0 or 1.0 it rounds to beyond the cut-offs.
    expected = np.array([0.0 if x <= -38.5 else 1.0 if x >= 8.5
                         else 0.5 * math.erfc(-x * math.sqrt(0.5))
                         for x in z.ravel().tolist()]).reshape(z.shape)
    got = _ndtr(z)
    assert got.shape == z.shape and got.dtype == np.float64
    assert np.array_equal(got, expected)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_nnls_matches_scipy_from_any_start(n, extra_rows, seed, empty_column):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n + extra_rows, n))
    b = rng.normal(size=n + extra_rows)
    # A tooth may have no mass in any bin of a trace.
    a[:, :empty_column] = 0.0
    assume(n == empty_column or np.linalg.cond(a[:, empty_column:]) < 1e3)
    expected, _ = optimize.nnls(a, b)
    gram, rhs = a.T @ a, a.T @ b
    # A cold start, and one that starts every entry on the wrong side.
    for start in (np.zeros(n, dtype=bool), expected == 0):
        x = _nnls(gram, rhs, start)
        np.testing.assert_allclose(x, expected, rtol=1e-9, atol=1e-9 * np.abs(expected).max())
        # Karush-Kuhn-Tucker: x >= 0, a zero gradient where x > 0, none
        # pointing into the feasible set where x = 0.
        gradient = rhs - gram @ x
        scale = 1e-9 * (np.abs(rhs).max() + 1.0)
        assert (x >= 0).all()
        assert np.abs(gradient[x > 0]).max(initial=0.0) <= scale
        assert gradient[x == 0].max(initial=0.0) <= scale


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_comb_fit_agrees_with_least_squares(monkeypatch, seed):
    # The run comb fit of the default design's pool, and scipy's dogbox fit
    # from the same start at scipy's tightest stops (its trust-region fit
    # stops up to 2e-6 relative short on the baseline at seed 3).
    fits, pools = [], []

    def recorded(score, lo, hi, x0, failure):
        fits.append((lo, hi, x0, _maximize(score, lo, hi, x0, failure)))
        return fits[-1][-1]

    class Recorded(_CombSolve):
        def __init__(self, spectrum, comb, teeth, passive=None):
            pools.append((spectrum, teeth))
            super().__init__(spectrum, comb, teeth, passive)

    monkeypatch.setattr(calibration, "_maximize", recorded)
    monkeypatch.setattr(calibration, "_CombSolve", Recorded)
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(eta=0.051),
                                  tp.geometric_ensemble(), seed=seed, jobs=2)
    tp.fit_run(traces)
    (lo, hi, x0, x), = fits
    pool, teeth = pools[0]
    expected = optimize.least_squares(
        lambda comb: _CombSolve(pool, comb, teeth).residuals, np.clip(x0, lo, hi),
        lambda comb: _CombSolve(pool, comb, teeth).jacobian(), bounds=(lo, hi),
        method="dogbox", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert expected.status > 0
    np.testing.assert_allclose(x, expected.x, rtol=1e-7)
    # The fit stops on the Newton decrement: what is left of the gradient,
    # once each parameter held on a bound is dropped, is within 1e-10
    # standard errors of the optimum.
    at = _CombSolve(pool, x, teeth)
    jac = at.jacobian()
    gradient = jac.T @ at.residuals
    free = ~(((x <= lo) & (gradient > 0)) | ((x >= hi) & (gradient < 0)))
    jac, gradient = jac[:, free], gradient[free]
    assert gradient @ np.linalg.solve(jac.T @ jac, gradient) <= 1e-20


def test_comb_fit_raises_at_the_step_cap(monkeypatch):
    # A Jacobian 1000 times too steep takes steps 1000 times too short, so
    # the Newton decrement, which does not scale with it, barely falls.
    jacobian = _CombSolve.jacobian
    monkeypatch.setattr(_CombSolve, "jacobian", lambda self: 1e3 * jacobian(self))
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(eta=0.3),
                                  tp.geometric_ensemble(n_probes=2, n_pulses=2_000), seed=1)
    with pytest.raises(tp.CalibrationError, match=r"comb fit did not converge \(100 steps\)"):
        tp.fit_run(traces)


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
    # The one fold's setting is refused before a fit.
    for bad in (np.nan, np.inf, -np.inf, True, "1"):
        with pytest.raises((TypeError, ValueError), match=r"^max_peaks must "):
            tp.fit_peaks(trace, max_peaks=bad)
    # A run of no traces only checks the settings; its fits are unfolded.
    assert tp.fit_run((), bin_width_mv=2.0) == ({}, {})
    with pytest.raises(TypeError, match="'max_peaks'"):
        tp.fit_run((), bin_width_mv=2.0, max_peaks=3)


def test_place_thresholds_finds_density_valley(monkeypatch):
    fit = tp.GaussianMixtureFit(
        components=(
            tp.GaussianComponent(weight=90_000.0, mean_mv=0.0, sigma_mv=2.0),
            tp.GaussianComponent(weight=10_000.0, mean_mv=13.0, sigma_mv=2.0),
        ),
        goodness=1.0,
    )
    # At the module's 1e-3 mV bracket the parabola's vertex lands on the valley.
    cuts = tp.place_thresholds(fit)
    assert len(cuts.cut_points_mv) == 1
    assert abs(cuts.cut_points_mv[0] - VALLEY_9_TO_1) < 1e-6
    # So does a bracket narrowed to 1e-6 mV.
    monkeypatch.setattr(calibration, "_THRESHOLD_XATOL_MV", 1e-6)
    assert abs(tp.place_thresholds(fit).cut_points_mv[0] - VALLEY_9_TO_1) < 1e-4


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


def test_place_thresholds_takes_only_the_fit():
    # The bracket width is the module's constant, not a parameter.
    fit = tp.GaussianMixtureFit(
        components=(tp.GaussianComponent(9_000.0, 0.0, 2.0),
                    tp.GaussianComponent(1_000.0, 13.0, 2.0)),
        goodness=1.0,
    )
    with pytest.raises(TypeError, match="xatol"):
        tp.place_thresholds(fit, xatol=1e-3)


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


@pytest.mark.parametrize(("weights", "n_events", "match"), [
    ((0.0, 0.0, 0.0), 100, "every component weight is 0"),
    ((1.0, 2.0, 3.0), -5, r"n_events must lie in \[0, inf\)"),
], ids=["zero_weights", "negative_events"])
def test_counts_by_area_refuses_an_empty_fit_or_negative_events(weights, n_events, match):
    # Both once returned counts: -2**63 in every class, or negative ones.
    fit = tp.GaussianMixtureFit(
        [tp.GaussianComponent(w, 13.0 * i, 2.0) for i, w in enumerate(weights)], goodness=1.0)
    with pytest.raises(ValueError, match=match):
        calibration.counts_by_area(fit, 3, n_events)
    if n_events >= 0:
        with pytest.raises(ValueError, match=match):
            tp.bin_counts_by_area(_trace(np.zeros(n_events)), fit, 3)


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
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(), _FOUR_PROBES, seed=5)
    stray = np.random.default_rng(0).normal(-13.0, 2.0, 300)
    traces[probe] = _trace(np.append(traces[probe].amplitudes_mv, stray), probe_id=probe)
    fits, failures = tp.fit_run(traces)
    assert failures == {}
    for trace in traces:
        fit = fits[trace.probe_id]
        assert abs(fit.means[0]) < 0.5, trace.probe_id
        if trace.truth_counts is not None:
            assert scenarios.area_tv(trace, fit) <= 0.01, trace.probe_id


def test_fit_peaks_counts_as_fit_run_does():
    # Every probe of a run sits on the run's one comb, and a trace fitted
    # alone gets its own comb: its tooth-weight counts differ by at most
    # an event per class.
    traces = tp.simulate_ensemble(tp.DetectorPhysicalConfig(gamma=0.2), _FOUR_PROBES, seed=5)
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
