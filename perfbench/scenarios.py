"""The benchmark's workloads, built only from the simulator's public API.

A workload turns a seed into inputs (:meth:`setup`), runs them through
the simulator (:meth:`run`), and reduces the simulated statistics to a
digest that is compared with ``reference.json``.  Every run of a
workload is one *rep*: set-up is paid again for each rep, so set-up
time is measured as often as the timed phase.

Seeds select one of :data:`VARIANTS` input variants (``seed %
VARIANTS``), so every seed the benchmark can be given has a committed
reference digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.controller import FlashChipBackend, SimulationEngine, SsdConfig
from repro.controller.factory import run_scenario
from repro.ecc import EccConfig
from repro.parallel import Campaign
from repro.workloads import (
    IoTrace,
    OP_WRITE,
    SyntheticWorkload,
    WorkloadSpec,
    clear_trace_cache,
    suite_grid,
)
from repro.workloads.grid import BackendSpec, GeometrySpec, PolicySpec

#: number of distinct input variants; the seed picks one.
VARIANTS = 64

#: the drive shared by ``read_hot`` and ``write_gc``: 16 blocks of 128
#: pages (64 MLC wordlines) with 4096 bitlines, worn to 12000 P/E cycles.
DRIVE = SsdConfig(blocks=16, pages_per_block=128, overprovision=0.15,
                  gc_threshold_blocks=1)
BITLINES = 4096
INITIAL_PE_CYCLES = 12_000
#: a 105-bit code per 9216-bit codeword: worn hot blocks cross it after
#: roughly 90K reads, before the 100K-read reclaim threshold.
ECC = EccConfig(codeword_bits=9216, correctable_bits=105)
RECLAIM_READS = 100_000
MAINTENANCE_DAYS = 0.005


def digest(payload) -> str:
    """Short SHA-256 of the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _seeds(variant: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(variant).generate_state(count)]


def _sequential_fill(pages: int) -> IoTrace:
    """One write to each of the first *pages* logical pages, at t=0."""
    return IoTrace(
        np.zeros(pages),
        np.full(pages, OP_WRITE, dtype=np.int64),
        np.arange(pages, dtype=np.int64),
        "fill",
    )


@dataclass
class Rep:
    """Result of one rep's timed phase."""

    ops: int
    scenarios: int
    #: the simulated statistics the digest covers.
    payload: dict
    #: simulated counts reported as per-layer metrics.
    counts: dict

    @property
    def digest(self) -> str:
        return digest(self.payload)


class DriveWorkload:
    """One flash-chip scenario: precondition, then one timed trace."""

    scenarios_per_rep = 1

    def __init__(self, name: str):
        self.name = name

    def trace(self, variant: int) -> tuple[IoTrace, int]:
        """The timed trace and the logical footprint to precondition."""
        raise NotImplementedError

    def setup(self, variant: int, workdir: Path):
        trace, footprint = self.trace(variant)
        backend = FlashChipBackend(
            bitlines_per_block=BITLINES,
            initial_pe_cycles=INITIAL_PE_CYCLES,
            ecc=ECC,
            seed=_seeds(variant, 3)[2],
        )
        engine = SimulationEngine(
            DRIVE,
            read_reclaim_threshold=RECLAIM_READS,
            maintenance_period_days=MAINTENANCE_DAYS,
            backend=backend,
        )
        engine.run_trace(_sequential_fill(footprint))
        return engine, trace

    def run(self, state) -> Rep:
        engine, trace = state
        ftl = engine.ftl
        host, flash = ftl.host_writes, ftl.flash_writes
        try:
            stats = engine.run_trace(trace)
            summary = engine.backend.summary()
        finally:
            engine.close()
        counts = _counts([asdict(stats)], [summary])
        # The engine's own figure includes the preconditioning writes.
        counts["ftl.write_amplification"] = (
            (ftl.flash_writes - flash) / max(ftl.host_writes - host, 1)
        )
        return Rep(
            ops=len(trace),
            scenarios=1,
            payload={"stats": asdict(stats), "backend": summary},
            counts=counts,
        )

    def reference_digest(self, variant: int, workdir: Path) -> str:
        return self.run(self.setup(variant, workdir)).digest


class ReadHot(DriveWorkload):
    """~99% reads over a 256-page hot set (two blocks), 1% writes to a
    disjoint 256-page cold set: the hot blocks take the read disturb."""

    HOT_PAGES = 256
    COLD_PAGES = 256
    READ_IOPS = 5.0
    DAYS = 0.5

    def trace(self, variant):
        hot_seed, cold_seed, _ = _seeds(variant, 3)
        hot = WorkloadSpec(
            name="read_hot", description="hot reads", iops=self.READ_IOPS,
            read_fraction=1.0, working_set_pages=self.HOT_PAGES,
            read_zipf_theta=0.8, sequential_read_fraction=0.0,
        )
        cold = WorkloadSpec(
            name="cold_writes", description="cold writes",
            iops=self.READ_IOPS / 99, read_fraction=0.0,
            working_set_pages=self.COLD_PAGES, read_zipf_theta=0.0,
        )
        reads = SyntheticWorkload(hot, seed=hot_seed).generate(self.DAYS)
        writes = SyntheticWorkload(cold, seed=cold_seed).generate(self.DAYS)
        timestamps = np.concatenate([reads.timestamps, writes.timestamps])
        order = np.argsort(timestamps, kind="stable")
        trace = IoTrace(
            timestamps[order],
            np.concatenate([reads.ops, writes.ops])[order],
            np.concatenate([reads.lpns, writes.lpns + self.HOT_PAGES])[order],
            self.name,
        )
        return trace, self.HOT_PAGES + self.COLD_PAGES


class WriteGc(DriveWorkload):
    """50% writes, uniform over every logical page of the drive: greedy
    GC keeps write amplification near 5."""

    IOPS = 5.0
    DAYS = 0.006

    def trace(self, variant):
        footprint = DRIVE.logical_pages
        spec = WorkloadSpec(
            name="write_gc", description="full-drive mixed", iops=self.IOPS,
            read_fraction=0.5, working_set_pages=footprint,
            read_zipf_theta=0.5, write_zipf_theta=0.0,
        )
        seed = _seeds(variant, 3)[0]
        return SyntheticWorkload(spec, seed=seed).generate(self.DAYS), footprint


class CampaignWorkload:
    """A suite grid run by :class:`repro.parallel.Campaign` into a fresh
    store, ``workers`` = the CPUs this process may use."""

    SUITE = ("web_0", "src1_2", "postmark")
    DAYS = 0.005

    def __init__(self, name: str, elastic: bool):
        self.name = name
        self.elastic = elastic
        self.workers = len(os.sched_getaffinity(0))
        self.scenarios_per_rep = len(self.grid(0))

    def grid(self, variant: int):
        return suite_grid(
            list(self.SUITE),
            geometries=(GeometrySpec(blocks=16, pages_per_block=64,
                                     overprovision=0.25, gc_threshold_blocks=1),),
            policies=(
                PolicySpec(name="baseline"),
                PolicySpec(name="reclaim", read_reclaim_threshold=20_000),
            ),
            backends=(BackendSpec(kind="flash_chip", bitlines_per_block=2048,
                                  initial_pe_cycles=3000),),
            duration_days=self.DAYS,
            root_seed=variant,
        )

    def setup(self, variant: int, workdir: Path):
        # Traces are cached per process: start every rep cold, so each
        # campaign pays its own trace generation.
        clear_trace_cache()
        store = workdir / self.name
        shutil.rmtree(store, ignore_errors=True)
        return self.grid(variant), store

    def run(self, state) -> Rep:
        grid, store = state
        try:
            report = Campaign(
                grid, str(store), workers=self.workers, elastic=self.elastic
            ).run()
        finally:
            shutil.rmtree(store, ignore_errors=True)
        results = [result.as_dict() for result in report]
        stats = [r["stats"] for r in results]
        return Rep(
            ops=sum(s["host_reads"] + s["host_writes"] + s["unmapped_reads"]
                    for s in stats),
            scenarios=len(results),
            payload={r["scenario_id"]: digest(r) for r in results},
            counts=_counts(stats, [r["backend"] for r in results]),
        )

    def reference_digest(self, variant: int, workdir: Path) -> str:
        """Digest of the grid run scenario by scenario in this process:
        no fork, no store, no leases."""
        clear_trace_cache()
        return digest({
            s.scenario_id: digest(run_scenario(s).as_dict())
            for s in self.grid(variant)
        })


def _counts(stats: list[dict], summaries: list[dict]) -> dict:
    """Simulated statistics reported as per-layer counts."""
    attempts = sum(s["rdr_attempts"] for s in summaries)
    recovered = sum(s["rdr_recovered"] for s in summaries)
    return {
        "ftl.write_amplification": float(
            np.mean([s["write_amplification"] for s in stats])
        ),
        "ecc.pages_checked": sum(s["pages_checked"] for s in summaries),
        "ecc.uncorrectable_pages": sum(s["uncorrectable_pages"] for s in summaries),
        "core.rdr.attempts": attempts,
        # With no rescue attempted, no rescue failed.
        "core.rdr.recovered_ratio": recovered / attempts if attempts else 1.0,
    }


WORKLOADS = {
    w.name: w
    for w in (
        ReadHot("read_hot"),
        WriteGc("write_gc"),
        CampaignWorkload("campaign", elastic=False),
        CampaignWorkload("campaign_elastic", elastic=True),
    )
}
