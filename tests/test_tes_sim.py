"""Tests for the seeded pulse-amplitude simulator."""

import tracemalloc

import numpy as np
import pytest

import tespovm as tp
from tespovm.tes_sim import _poisson_cdf, simulate_probe


def test_derive_subseed_reference_vectors():
    """First four outputs of the splitmix64 sequence for seed 0."""
    expected = [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]
    assert [tp.derive_subseed(0, k) for k in range(4)] == expected


def test_derive_subseed_streams_distinct():
    seeds = {tp.derive_subseed(7, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert tp.derive_subseed(0, 0) != tp.derive_subseed(1, 0)


def test_simulate_trace_deterministic():
    cfg = tp.DetectorPhysicalConfig()
    a = tp.simulate_trace(cfg, 6.5, 2000, seed=5)
    b = tp.simulate_trace(cfg, 6.5, 2000, seed=5)
    assert np.array_equal(a.amplitudes_mv, b.amplitudes_mv)
    assert np.array_equal(a.truth_counts, b.truth_counts)
    c = tp.simulate_trace(cfg, 6.5, 2000, seed=6)
    assert not np.array_equal(a.amplitudes_mv, c.amplitudes_mv)


def test_simulate_ensemble_jobs_invariant():
    cfg = tp.DetectorPhysicalConfig(eta=0.2)
    ens = tp.geometric_ensemble(n_probes=3, mu_min=2.0, mu_max=20.0, n_pulses=2000)
    serial = tp.simulate_ensemble(cfg, ens, 11, jobs=1)
    threaded = tp.simulate_ensemble(cfg, ens, 11, jobs=3)
    for a, b in zip(serial, threaded):
        assert a.probe_id == b.probe_id
        assert np.array_equal(a.amplitudes_mv, b.amplitudes_mv)
        assert np.array_equal(a.truth_counts, b.truth_counts)


def test_simulate_probe_is_its_ensemble_trace():
    cfg = tp.DetectorPhysicalConfig(eta=0.2)
    ens = tp.geometric_ensemble(n_probes=3, mu_min=2.0, mu_max=20.0, n_pulses=2000)
    for probe, trace in zip(ens.probes, tp.simulate_ensemble(cfg, ens, 11, jobs=2)):
        alone = simulate_probe(cfg, probe, 11)
        assert alone.probe_id == trace.probe_id == probe.id
        assert np.array_equal(alone.amplitudes_mv, trace.amplitudes_mv)
        assert np.array_equal(alone.truth_counts, trace.truth_counts)
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 18446744073709551616\), got -1"):
        simulate_probe(cfg, ens.probes[0], -1)


@pytest.mark.parametrize("kwargs, error, match", [
    ({"seed": -1}, ValueError, r"seed must lie in \[0, 18446744073709551616\), got -1"),
    ({"seed": 2**64}, ValueError, r"seed must lie in .*, got 18446744073709551616"),
    ({"seed": 1.5}, TypeError, r"seed must be an integer, got 1\.5"),
    ({"seed": True}, TypeError, r"seed must be an integer, got True"),
    ({"jobs": 0}, ValueError, r"jobs must lie in \[1, inf\), got 0"),
    ({"jobs": -2}, ValueError, r"jobs must lie in \[1, inf\), got -2"),
    ({"jobs": 2.0}, TypeError, r"jobs must be an integer, got 2\.0"),
])
def test_simulate_ensemble_refuses_a_bad_seed_or_jobs(kwargs, error, match):
    # Sub-seeds are derived modulo 2**64: seed -1 would alias 2**64 - 1.
    ens = tp.geometric_ensemble(n_probes=2, n_pulses=100)
    with pytest.raises(error, match=match):
        tp.simulate_ensemble(tp.DetectorPhysicalConfig(), ens, **{"seed": 0, **kwargs})


def test_simulate_ensemble_takes_the_top_64_bit_seed():
    # A NumPy seed past 2**53 is compared as the integer it is, not as a float.
    ens = tp.geometric_ensemble(n_probes=1, n_pulses=100)
    top = tp.simulate_ensemble(tp.DetectorPhysicalConfig(), ens, 2**64 - 1)[0]
    same = tp.simulate_ensemble(tp.DetectorPhysicalConfig(), ens, np.uint64(2**64 - 1))[0]
    assert np.array_equal(top.amplitudes_mv, same.amplitudes_mv)


def test_probe_streams_independent_of_ensemble_shape():
    """Dropping probes must not change the remaining probes' draws."""
    cfg = tp.DetectorPhysicalConfig(eta=0.2)
    ens = tp.geometric_ensemble(n_probes=4, mu_min=2.0, mu_max=20.0, n_pulses=1000)
    full = tp.simulate_ensemble(cfg, ens, 3)
    alone = tp.simulate_ensemble(cfg, ens.subset((2,)), 3)
    assert np.array_equal(full[2].amplitudes_mv, alone[0].amplitudes_mv)


# Each case draws at its own seed, derive_subseed(17, its index here), so
# the cases check the sampler independently: at one shared seed they would
# invert the same uniforms, and their mean errors would move together.
_MARGINAL_CASES = [
    (0.5, 4.0, 0.3, None, np.uint8),
    (0.0, 4.0, 0.3, None, np.uint8),  # dark counts only
    (0.5, 0.0, 0.3, None, np.uint8),  # vacuum probe
    (0.5, 0.0, 0.0, None, np.uint8),  # vacuum probe without dark counts: all zero
    (1.0, 4.0, 0.3, None, np.uint8),  # every photon detected
    (0.051, 130.0, 0.0, None, np.uint8),  # the default design's brightest probe
    (1.0, 10.0, 0.0, None, np.uint8),  # where NumPy's Poisson sampler switches method
    (1.0, 30.0, 0.0, None, np.uint8),
    (1.0, 250.0, 0.0, None, np.uint16),  # counts above 255
    (0.5, 4.0, 0.3, 2, np.uint8),  # every class >= 2 piles up at 2
]


@pytest.mark.parametrize("eta, mu, gamma, saturation, dtype", _MARGINAL_CASES)
def test_truth_count_marginals_match_model(eta, mu, gamma, saturation, dtype):
    # Detected counts follow the thinned-photon model binomial_povm, here
    # at a truncation and a class count whose Poisson tails are
    # negligible, with saturation folding every class >= saturation_count
    # into it. 4 / sqrt(n) of total variation, over 12 classes from the
    # mean's lower side, covers multinomial noise with wide margin.
    cfg = tp.DetectorPhysicalConfig(eta=eta, gamma=gamma, saturation_count=saturation)
    n = 200_000
    case = _MARGINAL_CASES.index((eta, mu, gamma, saturation, dtype))
    trace = tp.simulate_trace(cfg, mu, n, seed=tp.derive_subseed(17, case))
    assert trace.truth_counts.dtype == dtype
    lam = eta * mu + gamma
    k = np.arange(int(lam + 10 * np.sqrt(lam)) + 20)
    truncation = int(mu + 10 * np.sqrt(mu)) + 50
    model = tp.predict_distribution(tp.binomial_povm(eta, k.size, truncation, gamma=gamma),
                                    mu).probs
    if saturation is not None:
        model = np.bincount(np.minimum(k, saturation), weights=model, minlength=k.size)
    mean = model @ k
    se = np.sqrt((model @ k**2 - mean**2) / n)
    assert abs(trace.truth_counts.mean() - mean) <= 5.0 * se
    low = max(0, int(mean) - 6)
    emp = np.bincount(np.clip(trace.truth_counts, low, low + 11) - low, minlength=12) / n
    tv = 0.5 * np.abs(emp - np.bincount(np.clip(k, low, low + 11) - low, weights=model)).sum()
    assert tv < 4.0 / np.sqrt(n)


@pytest.mark.parametrize("lam", [0.0, 0.05, 0.33, 1.0, 6.63, 10.0, 30.0, 130.0, 1000.0])
def test_poisson_cdf_table_is_the_pmf_summed(lam):
    cdf = _poisson_cdf(lam)
    k = np.arange(cdf.size)
    assert cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0.0)
    assert np.abs(np.diff(cdf, prepend=0.0) - tp.poisson_pmf(lam, k)).max() <= 1e-12
    # The table stops where the Poisson tail it drops is below 1e-18.
    assert tp.poisson_pmf(lam, np.arange(cdf.size, cdf.size + 1000)).sum() < 1e-18


@pytest.mark.parametrize("saturation", [300, 2**63, 10**30])
def test_saturation_above_every_count_changes_nothing(saturation):
    # The cap counts at most saturation_count CDF edges, a comparison of
    # Python ints, so a cap no count reaches is bitwise no cap at all.
    free = tp.simulate_trace(tp.DetectorPhysicalConfig(eta=0.5, gamma=0.2), 40.0, 5000, seed=8)
    capped = tp.simulate_trace(
        tp.DetectorPhysicalConfig(eta=0.5, gamma=0.2, saturation_count=saturation),
        40.0, 5000, seed=8)
    assert np.array_equal(capped.amplitudes_mv, free.amplitudes_mv)
    assert capped.truth_counts.dtype == free.truth_counts.dtype
    assert np.array_equal(capped.truth_counts, free.truth_counts)


def test_simulate_trace_stream_is_pinned():
    """The seeded stream is part of the contract: a change to it shows here."""
    trace = tp.simulate_trace(tp.DetectorPhysicalConfig(gamma=0.2), 10.0, 8, seed=1)
    assert np.array_equal(trace.truth_counts, [1, 2, 0, 2, 0, 0, 1, 0])
    assert np.array_equal(
        trace.amplitudes_mv,
        [
            13.729144792372152,
            26.588264993311054,
            0.05684448263159358,
            27.093425973224893,
            -1.4729081740033338,
            -0.32581989598610556,
            12.035761374640044,
            1.1976924252692551,
        ],
    )


def test_simulate_trace_stays_float64_for_float32_fields():
    fields = dict(eta=0.3, gamma=0.2, baseline_mv=1.5, peak_spacing_mv=13.0,
                  sigma0_mv=2.1, sigma_slope_mv=0.3)
    as_float = {k: float(np.float32(v)) for k, v in fields.items()}
    # uint8 counts times a float32 field would round the product to float32.
    narrow = tp.DetectorPhysicalConfig(**{k: np.float32(v) for k, v in fields.items()},
                                       saturation_count=7)
    wide = tp.DetectorPhysicalConfig(**as_float, saturation_count=7)
    a = tp.simulate_trace(narrow, 30.0, 20_000, seed=5)
    b = tp.simulate_trace(wide, 30.0, 20_000, seed=5)
    assert a.amplitudes_mv.dtype == np.float64
    assert np.array_equal(a.amplitudes_mv, b.amplitudes_mv)
    assert np.array_equal(a.truth_counts, b.truth_counts)


def test_simulate_trace_keeps_nine_bytes_per_pulse():
    # float64 amplitudes plus uint8 truth; an int64 truth would keep 16.
    n = 100_000
    cfg = tp.DetectorPhysicalConfig()
    tp.simulate_trace(cfg, 130.0, 1000, seed=1)  # warm up lazy imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = tp.simulate_trace(cfg, 130.0, n, seed=1)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert trace.truth_counts.dtype == np.uint8
    assert kept / n <= 9.1
    assert peak / n <= 18.0


def test_amplitude_peak_positions():
    cfg = tp.DetectorPhysicalConfig(
        eta=0.4, baseline_mv=5.0, peak_spacing_mv=13.0, sigma0_mv=0.5
    )
    trace = tp.simulate_trace(cfg, 5.0, 50_000, seed=23)
    # 13 mV spacing at 0.5 mV width: class recovery by rounding is exact.
    recovered = np.round((trace.amplitudes_mv - 5.0) / 13.0).astype(int)
    assert np.array_equal(recovered, trace.truth_counts)
    for c in range(4):
        sel = trace.truth_counts == c
        n_c = int(sel.sum())
        assert n_c > 100
        center = trace.amplitudes_mv[sel].mean()
        assert abs(center - (5.0 + 13.0 * c)) < 5.0 * 0.5 / np.sqrt(n_c)


def test_sigma_slope_widens_higher_peaks():
    cfg = tp.DetectorPhysicalConfig(
        eta=1.0, sigma0_mv=1.0, sigma_slope_mv=0.5, peak_spacing_mv=50.0
    )
    trace = tp.simulate_trace(cfg, 3.0, 100_000, seed=2)
    widths = []
    for c in (0, 4):
        sel = trace.truth_counts == c
        widths.append(trace.amplitudes_mv[sel].std(ddof=1))
    assert abs(widths[0] - 1.0) < 0.05
    assert abs(widths[1] - 3.0) < 0.15


def test_saturation_caps_counts():
    cfg = tp.DetectorPhysicalConfig(eta=0.9, saturation_count=2)
    trace = tp.simulate_trace(cfg, 50.0, 5000, seed=4)
    assert trace.truth_counts.max() == 2
    assert trace.amplitudes_mv.max() < 2 * 13.0 + 8 * 2.0


def test_dark_and_blind_limits():
    silent = tp.simulate_trace(tp.DetectorPhysicalConfig(eta=0.0), 100.0, 50_000, seed=9)
    assert np.array_equal(silent.truth_counts, np.zeros(50_000, dtype=np.int64))
    assert abs(silent.amplitudes_mv.mean()) < 5 * 2.0 / np.sqrt(50_000)


def test_simulate_trace_validation():
    cfg = tp.DetectorPhysicalConfig()
    with pytest.raises(ValueError):
        tp.simulate_trace(cfg, -1.0, 100, seed=0)
    with pytest.raises(ValueError):
        tp.simulate_trace(cfg, 1.0, 0, seed=0)


def test_detector_config_validation():
    with pytest.raises(ValueError):
        tp.DetectorPhysicalConfig(eta=1.5)
    with pytest.raises(ValueError):
        tp.DetectorPhysicalConfig(gamma=-0.1)
    with pytest.raises(ValueError):
        tp.DetectorPhysicalConfig(sigma0_mv=0.0)
    with pytest.raises(ValueError):
        tp.DetectorPhysicalConfig(peak_spacing_mv=-1.0)
    with pytest.raises(ValueError):
        tp.DetectorPhysicalConfig(sigma_slope_mv=-0.1)
    with pytest.raises(ValueError):
        tp.DetectorPhysicalConfig(saturation_count=-1)
    with pytest.raises(TypeError, match="saturation_count must be an integer, got 2.5"):
        tp.DetectorPhysicalConfig(saturation_count=2.5)


def test_amplitude_trace_validation():
    with pytest.raises(ValueError):
        tp.AmplitudeTrace(probe_id=0, amplitudes_mv=np.ones((2, 2)))
    with pytest.raises(ValueError):
        tp.AmplitudeTrace(probe_id=0, amplitudes_mv=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        tp.AmplitudeTrace(
            probe_id=0, amplitudes_mv=np.ones(3), truth_counts=np.zeros(2, dtype=int)
        )
    with pytest.raises(ValueError):
        tp.AmplitudeTrace(
            probe_id=0, amplitudes_mv=np.ones(2), truth_counts=np.array([-1, 0])
        )
    trace = tp.AmplitudeTrace(probe_id=3, amplitudes_mv=np.array([1.0, 2.0]))
    assert trace.n_pulses == 2
    assert trace.truth_counts is None


@pytest.mark.parametrize("truth", [
    pytest.param(np.array([1.7, 0.2, 2.9]), id="fractional"),
    pytest.param(np.array([1.0, 0.0, 2.0]), id="whole-floats"),
    pytest.param(np.array([True, False, True]), id="bool"),
    pytest.param(np.array([np.nan, 0.0, 1.0]), id="nan"),
    pytest.param(np.array([1e30, 0.0, 1.0]), id="huge"),
])
def test_amplitude_trace_takes_integer_truth_only(truth):
    with pytest.raises(ValueError, match=f"truth_counts must be integers, got dtype {truth.dtype}"):
        tp.AmplitudeTrace(probe_id=0, amplitudes_mv=np.ones(3), truth_counts=truth)


@pytest.mark.parametrize("truth, dtype", [
    pytest.param(np.array([0, 20, 3], dtype=np.int64), np.uint8, id="int64-to-uint8"),
    pytest.param(np.array([0, 300, 3], dtype=np.int32), np.uint16, id="int32-to-uint16"),
    pytest.param([2, 0, 1], np.uint8, id="list"),
    pytest.param(np.array([0, 255, 256]), np.uint16, id="uint16"),
    pytest.param(np.array([], dtype=np.int64), np.uint8, id="empty"),
    # Unsaturated counts at a mean of 400 detected photons need 16 bits.
    pytest.param(tp.simulate_trace(tp.DetectorPhysicalConfig(eta=1.0), 400.0, 1000,
                                   seed=3).truth_counts, np.uint16, id="simulated-uint16"),
])
def test_amplitude_trace_narrows_its_truth(truth, dtype):
    amps = np.ones(len(truth))
    trace = tp.AmplitudeTrace(probe_id=0, amplitudes_mv=amps, truth_counts=truth)
    assert trace.truth_counts.dtype == dtype
    assert np.array_equal(trace.truth_counts, truth)
    # Truth already in its narrow type is held without a copy.
    again = tp.AmplitudeTrace(probe_id=0, amplitudes_mv=amps,
                              truth_counts=trace.truth_counts)
    assert again.truth_counts is trace.truth_counts
