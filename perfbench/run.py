"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 40 --trace 0

Run from the root of a repository checkout: the simulator is imported
from ``src/``.  Each workload is a closed loop with one client: reps
(set-up, then the timed phase) run back to back within ``--seconds``,
and every rep's simulated statistics are checked against
``reference.json``.  ``--trace 0`` reports the end-to-end metrics,
scaled to a reference host's speed (see :func:`calibrate`);
``--trace 1`` runs untraced reps for half the time and traced reps for
the other half, and reports the per-layer metrics (see README.md).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch space for campaign stores and worker span dumps (removed).
WORK = HERE / ".work"
#: traced runs leave their spans here.
OUT = HERE / "out"

#: reps per phase even when one rep outlasts ``--seconds``.
MIN_REPS = 3
MIN_TRACED_REPS = 2

#: seconds :func:`calibrate` takes on the reference host; end-to-end
#: times are scaled to that host's speed.
REFERENCE_CALIBRATION_S = 0.25


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q / 100 * len(ordered)))])


class Run:
    """Attempted/failed accounting and the digests one run produced."""

    def __init__(self, workload, variant, reference):
        self.workload = workload
        self.variant = variant
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.digests = set()

    def reps(self, deadline, min_reps, recorder=None):
        """Run reps until *deadline* (at least *min_reps* tries); yields
        ``(setup_s, run_s, rep)`` for each good rep.  A rep that would
        end past the deadline, judged by the median length of the tries
        so far, is not started, so a run lasts about as long as asked."""
        lengths = []
        while len(lengths) < min_reps or (
            time.perf_counter() + statistics.median(lengths) < deadline
        ):
            start = time.perf_counter()
            self.attempted += self.workload.scenarios_per_rep
            # Free the previous rep's engine (its objects form reference
            # cycles) so peak memory does not depend on collector timing.
            gc.collect()
            if recorder is not None:
                recorder.clear()
            try:
                t0 = time.perf_counter()
                state = self.workload.setup(self.variant, WORK)
                t1 = time.perf_counter()
                rep = self.workload.run(state)
                t2 = time.perf_counter()
            except Exception:  # noqa: BLE001 - a failed rep is counted
                traceback.print_exc(file=sys.stderr)
                self.failed += self.workload.scenarios_per_rep
                continue
            finally:
                lengths.append(time.perf_counter() - start)
            rep_digest = rep.digest
            self.digests.add(rep_digest)
            if rep_digest != self.reference:
                print(
                    f"perfbench: {self.workload.name} variant {self.variant} "
                    f"digest {rep_digest} != reference {self.reference}",
                    file=sys.stderr,
                )
                self.failed += rep.scenarios
                continue
            yield t1 - t0, t2 - t1, rep


def calibrate():
    """Seconds a fixed kernel takes on this host now.

    A shared host's speed can drift by tens of percent within minutes,
    alike for every process on it.  The kernel does the two kinds of
    work the simulator does, numpy sampling and sorting of 2 MiB arrays
    and a Python dict loop, on inputs of its own, so no change to the
    simulator changes its time.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(20):
        np.count_nonzero(np.sort(rng.normal(size=(64, 4096)), axis=1) > 0.3)
    counts = {}
    for i in range(150_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - start


def warm_up(run):
    """One untimed rep: the first reps of a process run slower while the
    allocator and caches settle, which would make the spread a property
    of rep order rather than of the program."""
    for _ in run.reps(0, 1):
        pass


def end_to_end(run, seconds, import_s):
    """Warm-up, then timed reps, within *seconds*.  A :func:`calibrate`
    sample follows the warm-up and every timed rep, and times are scaled
    by the median sample to the reference host's speed."""
    deadline = time.perf_counter() + seconds
    warm_up(run)
    samples = [calibrate()]
    setups, rates, hourly = [], [], []
    for setup_s, run_s, rep in run.reps(deadline, MIN_REPS):
        setups.append(setup_s)
        rates.append(rep.ops / run_s)
        hourly.append(rep.scenarios * 3600.0 / run_s)
        samples.append(calibrate())
    if not rates:
        return {}
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    # Above 1 while this host runs slower than the reference host.
    scale = statistics.median(samples) / REFERENCE_CALIBRATION_S
    wall_setup_s = import_s + statistics.median(setups)
    print(
        f"# wall clock: {statistics.median(rates):.6g} ops/s, setup "
        f"{wall_setup_s:.6g} s, {len(rates)} timed reps; host time scale "
        f"{scale:.4f} ({len(samples)} calibration samples)"
    )
    return {
        "trace_ops_per_s": statistics.median(rates) * scale,
        "scenarios_per_hour": statistics.median(hourly) * scale,
        "setup_s": wall_setup_s / scale,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(run, seconds, layers):
    """Warm-up and untraced reps for half of *seconds*, then traced reps
    for the other half."""
    start = time.perf_counter()
    warm_up(run)
    untraced = [
        run_s for _, run_s, _ in run.reps(start + seconds / 2, MIN_TRACED_REPS)
    ]
    dump_dir = WORK / "spans"
    dump_dir.mkdir(parents=True, exist_ok=True)
    recorder = layers.Recorder(dump_dir)
    workers = getattr(run.workload, "workers", 1)
    undo = layers.install(recorder)
    per_rep, traced, kept = [], [], []
    try:
        for setup_s, run_s, rep in run.reps(
            start + seconds, MIN_TRACED_REPS, recorder
        ):
            recorder.collect_workers()
            traced.append(run_s)
            per_rep.append(
                layer_metrics(recorder, rep, setup_s + run_s, workers, layers)
            )
            kept.append([recorder.spans] + recorder.worker_spans)
    finally:
        layers.uninstall(undo)
    if not per_rep or not untraced:
        return {}
    metrics = {
        name: statistics.fmean(rep[name] for rep in per_rep)
        for name in per_rep[0]
    }
    metrics["trace_overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced)
    )
    _write_spans(run.workload.name, kept)
    return metrics


def layer_metrics(recorder, rep, wall, workers, layers):
    """Per-layer metrics of one traced rep (parent plus its workers)."""
    self_s, total_s, calls, roots = layers.span_times(recorder.spans)
    scenarios = []
    for spans in recorder.worker_spans:
        w_self, w_total, w_calls, _ = layers.span_times(spans)
        for key in w_self:
            self_s[key] += w_self[key]
            total_s[key] += w_total[key]
            calls[key] += w_calls[key]
        scenarios += layers.intervals(spans, layers.WORKER_ROOT)
    scenario_s = [t1 - t0 for t0, t1 in scenarios]
    sizes, counts = recorder.sizes, recorder.counts
    flushes = [n for n in sizes["backends.read_flush"] if n > 0]
    sensed = sum(sizes["flash.block.sense"])
    programs = calls["flash.cell_array.program"]
    campaign_s = total_s["parallel.campaign"]
    if campaign_s:
        # Campaign.run mostly waits for its workers.  Dispatch is the
        # part of it during which no worker runs a scenario, and the
        # campaign counts once per worker slot, so that a slot with no
        # scenario in it is unattributed time.
        dispatch_s = campaign_s - layers.union_s(scenarios)
        capacity = wall + campaign_s * (workers - 1)
        attributed = roots - campaign_s + dispatch_s + sum(scenario_s)
    else:
        dispatch_s = 0.0
        capacity, attributed = wall, roots
    return {
        "engine.self_s": self_s["engine"],
        "engine.windows": counts["engine.windows"],
        "ftl.self_s": self_s["ftl"] + self_s["ftl.gc"] + self_s["ftl.relocate"],
        "ftl.gc_runs": calls["ftl.gc"],
        "ftl.relocations": calls["ftl.relocate"],
        "ftl.write_amplification": rep.counts["ftl.write_amplification"],
        "backends.read_flush.self_s": self_s["backends.read_flush"],
        "backends.read_flushes": len(flushes),
        "backends.reads_per_flush.p50": _percentile(flushes, 50),
        "backends.reads_per_flush.p90": _percentile(flushes, 90),
        "backends.program.self_s": self_s["backends.program"],
        "backends.erase.self_s": self_s["backends.erase"],
        "flash.block.sense.self_s": self_s["flash.block.sense"],
        "flash.block.sense.us_per_page": (
            1e6 * self_s["flash.block.sense"] / sensed if sensed else 0.0
        ),
        "flash.block.record_reads.self_s": self_s["flash.block.record_reads"],
        "flash.block.program.self_s": self_s["flash.block.program"],
        "flash.block.erase.self_s": self_s["flash.block.erase"],
        "flash.cell_array.sample.self_s": self_s["flash.cell_array.sample"],
        "flash.cell_array.erase.self_s": self_s["flash.cell_array.erase"],
        "flash.cell_array.program.self_s": self_s["flash.cell_array.program"],
        "flash.cell_array.us_per_wordline": (
            1e6 * total_s["flash.cell_array.program"] / programs if programs else 0.0
        ),
        "ecc.self_s": self_s["ecc"],
        "ecc.pages_checked": rep.counts["ecc.pages_checked"],
        "ecc.uncorrectable_pages": rep.counts["ecc.uncorrectable_pages"],
        "core.rdr.self_s": self_s["core.rdr"],
        "core.rdr.attempts": rep.counts["core.rdr.attempts"],
        "core.rdr.recovered_ratio": rep.counts["core.rdr.recovered_ratio"],
        "workloads.generate_s": self_s["workloads"],
        "parallel.campaign.busy_ratio": (
            sum(scenario_s) / (campaign_s * workers) if campaign_s else 0.0
        ),
        "parallel.campaign.dispatch_s": dispatch_s,
        "parallel.campaign.scenario_s.p50": _percentile(scenario_s, 50),
        "parallel.store.append.self_s": self_s["parallel.store.append"],
        "parallel.store.appends": calls["parallel.store.append"],
        "parallel.store.load.self_s": self_s["parallel.store.load"],
        "parallel.leases.self_s": self_s["parallel.leases"],
        "parallel.leases.claims": sum(sizes["parallel.leases"]),
        "unattributed_s": capacity - attributed,
        "attributed_ratio": attributed / capacity,
    }


def _write_spans(name, kept):
    """One JSON line per span: rep, process (0 = parent), layer key,
    start, end, parent span index within that process."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}.spans.jsonl", "w") as handle:
        for rep_index, processes in enumerate(kept):
            for process, spans in enumerate(processes):
                for key, t0, t1, parent in spans:
                    handle.write(
                        json.dumps([rep_index, process, key, t0, t1, parent]) + "\n"
                    )


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no simulator sources under {ROOT / 'src'}; run from "
            "the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in bench["per_layer" if args.trace else "end_to_end"]
    }
    if not 1 <= args.seconds <= 60:
        print("perfbench: --seconds must be in [1, 60]", file=sys.stderr)
        return 2
    # Ambient simulator configuration (telemetry, fault injection,
    # worker counts) must not leak into the measured runs.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import scenarios

    import_s = time.perf_counter() - _START
    workload = scenarios.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(scenarios.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    variant = args.seed % reference["variants"]
    run = Run(workload, variant, reference["digests"][workload.name][variant])
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        if args.trace:
            metrics = per_layer(run, args.seconds, layers)
        else:
            metrics = end_to_end(run, args.seconds, import_s)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    correct = (
        run.failed == 0 and len(run.digests) == 1 and metrics.keys() == units.keys()
    )
    print(
        f"# {workload.name}: seed {args.seed} (variant {variant}), "
        f"{run.attempted} scenarios attempted, {run.failed} failed, "
        f"failed_ratio {run.failed / max(run.attempted, 1):g}"
    )
    for name, value in metrics.items():
        print(f"{name:36s} {value:>16.6g} {units.get(name, '?')}")
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
