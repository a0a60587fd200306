"""Regenerate ``reference.json``: the digest of every workload's
simulated statistics for each input variant.

    python3 perfbench/make_reference.py

Run from the root of a repository checkout; it uses every CPU this
process may run on.  Drive workloads use the same set-up and run code as
the benchmark; the campaign workloads' reference runs every scenario of
the grid in-process with ``run_scenario`` (no fork, no store, no
leases), so a campaign that loses or alters a result through its store
does not match it.  Only a change that is meant to alter simulated
results should need a new reference.
"""

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import scenarios  # noqa: E402

#: the campaign workloads share one grid, hence one reference.
SHARED = {"campaign_elastic": "campaign"}


def _digest(job):
    name, variant = job
    work = HERE / ".work" / f"ref-{name}-{variant}"
    work.mkdir(parents=True, exist_ok=True)
    return scenarios.WORKLOADS[name].reference_digest(variant, work)


def main() -> int:
    names = [name for name in scenarios.WORKLOADS if name not in SHARED]
    jobs = [(name, v) for name in names for v in range(scenarios.VARIANTS)]
    workers = len(os.sched_getaffinity(0))
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        results = list(pool.map(_digest, jobs))
    digests = {name: [] for name in names}
    for (name, _), value in zip(jobs, results):
        digests[name].append(value)
    for name, source in SHARED.items():
        digests[name] = digests[source]
    payload = {"variants": scenarios.VARIANTS, "digests": digests}
    (HERE / "reference.json").write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(jobs)} digests to {HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
