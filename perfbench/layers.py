"""Benchmark-side span tracing of the simulator's layers.

The simulator is not modified: :func:`install` replaces a fixed set of
public functions (methods on their classes, or module-level functions)
with timing wrappers, and :func:`uninstall` puts the originals back.
Every wrapped call records one span ``(layer key, start, end, parent
index)`` in an in-memory :class:`Recorder`; a layer's *self time* is its
span's duration minus the durations of the wrapped calls nested directly
inside it.

Campaign workers are forked with the wrappers already installed.  The
first wrapped call in a new process resets the inherited recorder, and
the worker-side root (``run_scenario``) writes that process's spans to
``<dump_dir>/worker-<pid>-<n>.json`` before returning, because the worker
exits without running any cleanup.  :meth:`Recorder.collect_workers`
folds those files back into the parent's view.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _ppn_count(args, kwargs, result):
    return int(np.asarray(args[1]).size)


def _page_count(args, kwargs, result):
    return int(np.asarray(args[1] if len(args) > 1 else kwargs["pages"]).size)


def _granted(args, kwargs, result):
    return 1 if result is not None else 0


#: ``(module, attribute path, layer key, size function)``.  The size
#: function, when given, maps ``(args, kwargs, result)`` of one call to
#: a number recorded alongside the span (reads per flush, pages sensed,
#: leases granted).
TARGETS = (
    ("repro.controller.engine", "SimulationEngine.run_trace", "engine", None),
    ("repro.controller.ftl", "PageMappingFtl.write", "ftl", None),
    ("repro.controller.ftl", "PageMappingFtl.read_many", "ftl", None),
    ("repro.controller.ftl", "PageMappingFtl.collect_garbage", "ftl.gc", None),
    ("repro.controller.ftl", "PageMappingFtl.relocate_block", "ftl.relocate", None),
    ("repro.controller.backends", "FlashChipBackend.on_reads",
     "backends.read_flush", _ppn_count),
    ("repro.controller.backends", "FlashChipBackend.on_append",
     "backends.program", None),
    ("repro.controller.backends", "FlashChipBackend.on_append_many",
     "backends.program", None),
    ("repro.controller.backends", "FlashChipBackend.flush_programs",
     "backends.program", None),
    ("repro.controller.backends", "FlashChipBackend.on_erase",
     "backends.erase", None),
    ("repro.flash.block", "FlashBlock.record_reads",
     "flash.block.record_reads", None),
    ("repro.flash.block", "FlashBlock.page_error_counts",
     "flash.block.sense", _page_count),
    ("repro.flash.block", "FlashBlock.page_error_masks",
     "flash.block.sense", _page_count),
    ("repro.flash.block", "FlashBlock.block_voltages", "flash.block.sense", None),
    ("repro.flash.block", "FlashBlock.program_wordline_bits",
     "flash.block.program", None),
    ("repro.flash.block", "FlashBlock.erase", "flash.block.erase", None),
    ("repro.flash.cell_array", "CellArray.sample_voltages",
     "flash.cell_array.sample", None),
    ("repro.flash.cell_array", "CellArray.program_wordline",
     "flash.cell_array.program", None),
    ("repro.flash.cell_array", "CellArray.erase", "flash.cell_array.erase", None),
    ("repro.ecc.decoder", "EccDecoder.check_pages", "ecc", None),
    ("repro.core.rdr", "ReadDisturbRecovery.rescue_wordline", "core.rdr", None),
    ("repro.workloads.synthetic", "SyntheticWorkload.generate", "workloads", None),
    ("repro.workloads.trace_cache", "warm_trace_cache", "workloads", None),
    ("repro.parallel.campaign", "Campaign.run", "parallel.campaign", None),
    ("repro.controller.factory", "run_scenario", "parallel.campaign.worker", None),
    ("repro.parallel.store", "ResultStore.append", "parallel.store.append", None),
    ("repro.parallel.store", "ResultStore.load", "parallel.store.load", None),
    ("repro.parallel.store", "ResultStore.scenario_ids", "parallel.store.load", None),
    ("repro.parallel.leases", "LeaseLedger.plan", "parallel.leases", None),
    ("repro.parallel.leases", "LeaseLedger.claim", "parallel.leases", _granted),
    ("repro.parallel.leases", "LeaseLedger.renew", "parallel.leases", None),
    ("repro.parallel.leases", "LeaseLedger.mark_done", "parallel.leases", None),
    ("repro.parallel.leases", "LeaseLedger.states", "parallel.leases", None),
)

#: layer key of the worker-side root span (dumps the worker's spans).
WORKER_ROOT = "parallel.campaign.worker"


class Recorder:
    """In-memory spans of one process, plus per-call sizes and counts."""

    def __init__(self, dump_dir: Path):
        self.dump_dir = Path(dump_dir)
        self.pid = os.getpid()
        self._dumps = 0
        self.clear()

    def clear(self) -> None:
        #: ``[key, t0, t1, parent]`` per span, in start order.
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.sizes: dict[str, list[int]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        #: spans written by campaign workers since the last clear.
        self.worker_spans: list[list] = []

    def adopt_process(self) -> None:
        """First wrapped call in a forked child: drop inherited state."""
        self.pid = os.getpid()
        self._dumps = 0
        self.clear()

    def dump_worker(self) -> None:
        """Write this (worker) process's spans for the parent to collect."""
        self._dumps += 1
        path = self.dump_dir / f"worker-{self.pid}-{self._dumps}.json"
        payload = {
            "spans": self.spans,
            "sizes": self.sizes,
            "counts": self.counts,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
        self.clear()

    def collect_workers(self) -> None:
        """Fold every worker dump into this recorder, then delete them."""
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            path.unlink()
            self.worker_spans.append(payload["spans"])
            for key, values in payload["sizes"].items():
                self.sizes[key].extend(values)
            for key, value in payload["counts"].items():
                self.counts[key] += value


def _traced(original, key, size, recorder):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        rec = recorder
        if rec.pid != os.getpid():
            rec.adopt_process()
        index = len(rec.spans)
        span = [key, 0.0, 0.0, rec.stack[-1] if rec.stack else -1]
        rec.spans.append(span)
        rec.stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            rec.stack.pop()
        if size is not None:
            rec.sizes[key].append(size(args, kwargs, result))
        return result

    return traced


def _traced_run_trace(original, recorder):
    """``run_trace`` wrapper that also counts maintenance windows."""
    traced = _traced(original, "engine", None, recorder)

    @functools.wraps(original)
    def run_trace(self, trace, on_window=None):
        def count_window(engine):
            recorder.counts["engine.windows"] += 1
            if on_window is not None:
                on_window(engine)

        return traced(self, trace, on_window=count_window)

    return run_trace


def _traced_worker_root(original, recorder):
    traced = _traced(original, WORKER_ROOT, None, recorder)

    @functools.wraps(original)
    def run_scenario(*args, **kwargs):
        try:
            return traced(*args, **kwargs)
        finally:
            if not recorder.stack:
                recorder.dump_worker()

    return run_scenario


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def install(recorder: Recorder) -> list:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    undo = []
    for module_name, path, key, size in TARGETS:
        owner, name = _resolve(module_name, path)
        original = owner.__dict__[name]
        if path == "SimulationEngine.run_trace":
            wrapper = _traced_run_trace(original, recorder)
        elif key == WORKER_ROOT:
            wrapper = _traced_worker_root(original, recorder)
        else:
            wrapper = _traced(original, key, size, recorder)
        setattr(owner, name, wrapper)
        undo.append((owner, name, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def span_times(spans: list[list]) -> tuple[dict, dict, dict, float]:
    """Per-key self seconds, inclusive seconds and call counts of one
    process's spans, plus the inclusive seconds of its root spans."""
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    if not spans:
        return self_s, total_s, calls, 0.0
    duration = np.array([span[2] - span[1] for span in spans])
    parent = np.array([span[3] for span in spans], dtype=np.int64)
    nested = parent >= 0
    children = np.bincount(
        parent[nested], weights=duration[nested], minlength=len(spans)
    )
    own = duration - children
    for (key, *_), inclusive, exclusive in zip(spans, duration, own):
        self_s[key] += float(exclusive)
        total_s[key] += float(inclusive)
        calls[key] += 1
    return self_s, total_s, calls, float(duration[~nested].sum())


def intervals(spans: list[list], key: str) -> list[tuple[float, float]]:
    """``(start, end)`` of every span of *key*.  ``perf_counter`` reads
    ``CLOCK_MONOTONIC``, so the spans of forked workers share the
    parent's time axis."""
    return [(span[1], span[2]) for span in spans if span[0] == key]


def union_s(spans: list[tuple[float, float]]) -> float:
    """Seconds covered by at least one of the *spans*."""
    covered, reached = 0.0, float("-inf")
    for t0, t1 in sorted(spans):
        if t1 > reached:
            covered += t1 - max(t0, reached)
            reached = t1
    return covered
