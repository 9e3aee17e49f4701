"""In-memory spans around calls into tespovm's public functions.

A :class:`Tracer` records one span per call: name, start, end, parent
and a few counters taken from the call's result. Spans opened on a pool
thread with no open span of their own take the innermost span of the
thread that created the tracer as their parent, so the per-probe work a
CLI stage hands to its ``--jobs`` pool nests under that stage.

:func:`installed` swaps traced wrappers into the module namespaces the
benchmark and the CLI call through (the ``tespovm`` package,
``tespovm.cli`` and ``tespovm.files``) and restores the originals on
exit. Nothing under ``src/`` is edited; untraced runs call the original
functions directly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field

# Layer functions to wrap, each with an optional summary of its result
# recorded on the span as counters.
WRAPPED = {
    "tes_sim.simulate_ensemble": lambda r: {"pulses": sum(t.n_pulses for t in r)},
    "calibration.fit_peaks": lambda r: {"components": r.n_components},
    "calibration.place_thresholds": None,
    "calibration.bin_counts": None,
    "estimation.estimate_eta": None,
    "estimation.estimate_eta_gamma": None,
    "tomography.reconstruct_povm": lambda r: {
        "iters": r.n_iters, "stop_reason": r.stop_reason, "converged": r.converged,
    },
    "metrics.fidelity_curve": None,
    "metrics.three_way_comparison": None,
    "metrics.sensitivity_sweep": None,
    "files.write_trace_csv": None,
    "files.read_trace_csv": None,
    "files.write_manifest": None,
    "files.read_manifest": None,
    "files.write_ensemble": None,
    "files.read_ensemble": None,
    "files.write_count_table": None,
    "files.read_count_table": None,
    "files.write_fit_report": None,
    "files.write_povm": None,
    "files.read_povm": None,
    "files.write_convergence_log": None,
    "files.write_estimate": None,
    "files.read_estimate": None,
    "files.write_json": None,
}

# Namespaces whose attributes are looked up at call time by the code
# under test: the library chain calls ``tespovm.<fn>``, the CLI calls
# names imported into ``tespovm.cli`` and ``files.<fn>``.
NAMESPACES = ("tespovm", "tespovm.cli", "tespovm.files")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :meth:`to_json` hands them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._local.stack = self._main_stack
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1].id
        else:
            parent = self._main_stack[-1].id if self._main_stack else None
        with self._lock:
            span = Span(next(self._ids), name, parent, threading.get_ident(),
                        time.perf_counter() - self._t0)
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter() - self._t0
            stack.pop()

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
             "start": s.start, "end": s.end, "self": t, "attrs": s.attrs}
            for s, t in zip(self.spans, self_times(self.spans))
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children running concurrently on pool threads overlap; their union
    is subtracted, not their sum.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def _wrap(tracer: Tracer, name: str, fn, summarize):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if summarize is not None:
                span.attrs.update(summarize(result))
            return result
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route calls to the :data:`WRAPPED` functions through ``tracer``."""
    namespaces = [importlib.import_module(n) for n in NAMESPACES]
    saved = []
    try:
        for name, summarize in WRAPPED.items():
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"tespovm.{module}"), attr)
            wrapper = _wrap(tracer, name, original, summarize)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    saved.append((ns, attr, original))
                    setattr(ns, attr, wrapper)
        yield tracer
    finally:
        for ns, attr, original in reversed(saved):
            setattr(ns, attr, original)
