"""Count-table columns pair with probes by id in every consumer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tespovm as tp

N_OUTCOMES = 6


def _multinomial_table(rng, probes, eta, gamma, n_pulses):
    """Counts of a linear detector with dark counts, one column a probe.

    Each probe's outcomes are Poisson(eta * mu + gamma) with a cumulative
    top outcome: ``linear_prediction`` at unit efficiency.
    """
    return np.column_stack([
        rng.multinomial(n_pulses, tp.linear_prediction(
            1.0, eta * p.mean_photons + gamma, N_OUTCOMES).probs)
        for p in probes
    ])


def _same_estimate(a, b, perm):
    """The estimates are bitwise equal, per-probe arrays in column order."""
    for field in ("eta_hat", "eta_se", "loglik", "gamma_hat", "gamma_se", "gamma_upper"):
        assert getattr(a, field) == getattr(b, field), field
    for field in ("per_probe_etas", "per_probe_gammas"):
        x, y = getattr(a, field), getattr(b, field)
        assert (x is None and y is None) or np.array_equal(x[perm], y, equal_nan=True), field


@settings(max_examples=30)
@given(
    n_probes=st.integers(2, 8),
    n_extra=st.integers(0, 3),
    eta=st.floats(0.02, 0.5),
    gamma=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_columns_pair_with_probes_by_id(n_probes, n_extra, eta, gamma, seed, data):
    rng = np.random.default_rng(seed)
    ids = rng.choice(1000, size=n_probes + n_extra, replace=False).tolist()
    mus = np.geomspace(1.0, 30.0, n_probes + n_extra)
    probes = [tp.Probe(id=i, mean_photons=float(mu)) for i, mu in zip(ids, mus)]
    measured = tp.ProbeEnsemble(tuple(probes[:n_probes]))
    counts = _multinomial_table(rng, measured.probes, eta, gamma, n_pulses=5000)
    table = tp.CountTable.from_counts(counts, probe_ids=measured.ids)

    # The same columns in another order, against a superset in another order.
    perm = data.draw(st.permutations(range(n_probes)), label="column order")
    shuffled = tp.CountTable.from_counts(counts[:, perm],
                                         probe_ids=tuple(measured.ids[j] for j in perm))
    order = data.draw(st.permutations(range(len(probes))), label="ensemble order")
    superset = tp.ProbeEnsemble(tuple(probes[k] for k in order))

    cfg = tp.ReconstructionConfig(truncation=40, n_outcomes=N_OUTCOMES, init_eta=eta)
    rec = tp.reconstruct_povm(table, measured, cfg)
    rec_shuffled = tp.reconstruct_povm(shuffled, superset, cfg)
    assert np.array_equal(rec.povm.entries, rec_shuffled.povm.entries)
    assert np.array_equal(rec.per_probe_residuals[perm], rec_shuffled.per_probe_residuals)

    for estimator in (tp.estimate_eta, tp.estimate_eta_gamma):
        _same_estimate(estimator(table, measured), estimator(shuffled, superset), perm)

    rows = tp.three_way_comparison(table, rec.povm, eta, measured)
    rows_shuffled = tp.three_way_comparison(shuffled, rec.povm, eta, superset)
    assert [r.probe_id for r in rows_shuffled] == [rows[j].probe_id for j in perm]
    by_id = {r.probe_id: r for r in rows}
    for row in rows_shuffled:
        ref = by_id[row.probe_id]
        assert row.mean_photons == ref.mean_photons
        assert np.array_equal(row.measured, ref.measured)
        assert np.array_equal(row.reconstructed, ref.reconstructed)
        assert (row.tv_reconstructed, row.tv_linear) == (ref.tv_reconstructed, ref.tv_linear)
