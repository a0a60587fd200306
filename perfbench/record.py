"""Run the benchmark over many seeds and record medians and spreads.

    python3 perfbench/record.py --seeds 0-9 --held-out 1000-1009 \\
        --trace-seeds 0 --out perfbench/baseline.json

Run from the root of a repository checkout.  For each workload (default:
all of ``BENCHMARK.json``) and each seed, runs ``perfbench/run.py`` with
``--trace 0`` in a child process, then reports per end-to-end metric the
median of the seeds and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread is *steady* below a third of the metric's bound.  The
held-out seeds are a second set run the same way; its median must not
be worse than the first set's by more than the bound.  ``--trace-seeds``
adds ``--trace 1`` runs whose per-layer metrics are recorded as medians.
With ``--out``, the result is written as JSON together with the host's
CPU count and the Python and NumPy versions, and each run's ``#`` lines
(unscaled wall-clock figures, host time scale, scenarios attempted and
failed); workloads not recorded
this time keep their entry from an existing file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(command)} printed nothing:\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(command)} incorrect:\n{done.stderr}")
    notes = [line for line in lines if line.startswith("#")]
    return {name: m["value"] for name, m in result["metrics"].items()}, notes


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def worse_by(metric, first, second):
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def record_workload(bench, name, args, seconds):
    entry = {}
    for label, seeds in (("seeds", args.seeds), ("held_out", args.held_out)):
        if not seeds:
            continue
        runs, notes = zip(*(run_once(name, seed, seconds, 0) for seed in seeds))
        entry[label] = {
            "seeds": seeds,
            "notes": notes,
            "end_to_end": {
                metric["name"]: dict(
                    summarize([run[metric["name"]] for run in runs]),
                    unit=metric["unit"], bound=metric["bound"],
                )
                for metric in bench["end_to_end"]
            },
        }
    if args.trace_seeds:
        runs = [run_once(name, seed, seconds, 1)[0] for seed in args.trace_seeds]
        entry["per_layer"] = {
            metric["name"]: {
                "unit": metric["unit"],
                "median": statistics.median(run[metric["name"]] for run in runs),
            }
            for metric in bench["per_layer"]
        }
    return entry


def report(name, entry, bench):
    ok = True
    print(f"== {name}")
    for metric in bench["end_to_end"]:
        first = entry["seeds"]["end_to_end"][metric["name"]]
        line = (f"  {metric['name']:20s} median {first['median']:12.6g} "
                f"spread {first['spread']:.4f} (bound {metric['bound']})")
        # setup_s is gated on its median only: its import part happens
        # once per process, so a longer run cannot make it steadier.
        if metric["name"] != "setup_s" and first["spread"] > metric["bound"] / 3:
            line += "  NOT STEADY"
            ok = False
        if "held_out" in entry:
            second = entry["held_out"]["end_to_end"][metric["name"]]
            worse = worse_by(metric, first["median"], second["median"])
            line += (f" | held-out median {second['median']:12.6g} "
                     f"spread {second['spread']:.4f} worse-by {worse:+.4f}")
            if worse > metric["bound"]:
                line += "  WORSE THAN BOUND"
                ok = False
        print(line)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-9"))
    parser.add_argument("--held-out", type=_seed_range, default=[])
    parser.add_argument("--trace-seeds", type=_seed_range, default=[])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    workloads, ok = {}, True
    for name in names:
        entry = record_workload(bench, name, args, bench["run_seconds"])
        entry["why"] = why[name]
        ok &= report(name, entry, bench)
        workloads[name] = entry
    if args.out:
        import numpy

        if args.out.exists():
            # Workloads not recorded this time keep their earlier entry.
            workloads = dict(json.loads(args.out.read_text())["workloads"],
                             **workloads)
        payload = {
            "cpu_count": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "run_seconds": bench["run_seconds"],
            "workloads": workloads,
        }
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
