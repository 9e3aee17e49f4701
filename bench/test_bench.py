"""Tests of the benchmark itself.

    python -m pytest bench/test_bench.py
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wk  # noqa: E402

OP_SEED = 20240611


def bench_run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """One cli_default and one library_default operation on the same seed."""
    scratch = tmp_path_factory.mktemp("cli")
    inputs = wk.prepare_default(0)
    cli_out = wk.collect_cli(
        wk.cli_op(inputs, OP_SEED, scratch, run.no_span), scratch, inputs
    )
    lib_out = wk.library_op(inputs, OP_SEED, None, run.no_span)
    return scratch, inputs, cli_out, lib_out


def test_same_seed_gives_identical_count_table(chains):
    _, _, cli_out, lib_out = chains
    assert wk.check(cli_out) == []
    assert wk.check(lib_out) == []
    assert cli_out.table.probe_ids == lib_out.table.probe_ids
    assert np.array_equal(cli_out.table.counts, lib_out.table.counts)
    assert cli_out.table.probs.tobytes() == lib_out.table.probs.tobytes()


def test_different_seed_gives_different_inputs():
    first = list(itertools.islice(run.op_seeds(1), 3))
    assert first == list(itertools.islice(run.op_seeds(1), 3))
    assert first != list(itertools.islice(run.op_seeds(2), 3))
    inputs = wk.prepare_default(0)
    a = wk.calibrate(wk.tp.simulate_ensemble(inputs.detector, inputs.ensemble, first[0]))
    b = wk.calibrate(wk.tp.simulate_ensemble(inputs.detector, inputs.ensemble, first[1]))
    assert not np.array_equal(a.counts, b.counts)
    g1, g2 = wk.prepare_solvers(1), wk.prepare_solvers(2)
    assert not np.array_equal(g1.gamma_table.counts, g2.gamma_table.counts)
    assert np.array_equal(g1.exact.probs, g2.exact.probs)


def test_corrupted_output_is_a_failed_operation(chains):
    scratch, inputs, cli_out, lib_out = chains
    counts = scratch / "cal" / "counts.json"
    original = counts.read_text()
    doc = json.loads(original)
    doc["config_hash"] = "0" * 16
    try:
        counts.write_text(json.dumps(doc))
        fresh = dataclasses.replace(cli_out, hashes=None)
        assert any("lineage" in p for p in wk.check(wk.collect_cli(fresh, scratch, inputs)))
    finally:
        counts.write_text(original)
    assert wk.check(dataclasses.replace(cli_out, exit_codes={**cli_out.exit_codes,
                                                             "validate": 3}))
    assert wk.check(dataclasses.replace(lib_out, min_fidelity_low=0.98))
    assert wk.check(dataclasses.replace(lib_out, eta_hat=wk.ETA + 0.0021))
    assert wk.check(dataclasses.replace(lib_out, eta_hat=float("nan")))
    solved = wk.Outcome(op_seed=0, exact_residual=0.0, exact_min_fidelity=0.9995,
                        gamma_hat=0.2, gamma_se=0.001)
    assert wk.check(solved) == []
    assert wk.check(dataclasses.replace(solved, exact_residual=2e-10))
    assert wk.check(dataclasses.replace(solved, exact_min_fidelity=0.998))
    assert wk.check(dataclasses.replace(solved, gamma_hat=0.2031))


def test_declared_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} <= set(wk.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in declared[key]} == table


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_declared(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace == "1" else "end_to_end"
    proc = bench_run("--workload", "library_default", "--seed", "3",
                     "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared[key]
    }


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("--workload", "library_default", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_the_union_of_concurrent_children():
    parent = spans.Span(0, "stage", None, 1, 0.0, 10.0)
    kids = [spans.Span(1, "a", 0, 2, 1.0, 5.0), spans.Span(2, "b", 0, 3, 3.0, 6.0),
            spans.Span(3, "c", 0, 2, 8.0, 9.0)]
    assert spans.self_times([parent, *kids]) == pytest.approx([4.0, 4.0, 3.0, 1.0])
