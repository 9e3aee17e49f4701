"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/repeat.py --workloads cli_default,library_default,solvers \
        --seeds 1-10 --trace 0 [--out bench/baseline.json]

Runs ``bench/run.py`` once per (workload, seed), one after another, each
in its own process. For every metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(Q3 - Q1) / median, against the metric's bound in ``BENCHMARK.json``.
With ``--out`` it writes the same summary plus the environment it was
measured in; an existing file is merged, so end-to-end and traced
summaries can be written by two invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def environment() -> dict:
    versions = subprocess.run(
        [sys.executable, "-c",
         "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions[0],
        "scipy": versions[1],
        "machine": platform.machine(),
    }


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f}s, attempted "
                  f"{result['attempted']}, failed {result['failed']}", file=sys.stderr)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = first["unit"]
            s = metrics[name]
            bound = bounds.get(name) if args.trace == 0 else None
            print(f"{workload:16} {name:40} median {s['median']:.6g} {s['unit']}"
                  + (f"  spread {s['spread']:.4f}" if s.get("spread") is not None else "")
                  + (f"  bound {bound}" if bound is not None else ""))
        report[workload] = {
            "seeds": parse_seeds(args.seeds),
            "seconds": seconds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        key = "per_layer" if args.trace else "end_to_end"
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc["environment"] = environment()
        doc.setdefault(key, {}).update(report)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
