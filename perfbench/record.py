"""Record the reference fingerprints ``run.py`` checks every rep against.

Usage (from the repository root)::

    python3 perfbench/record.py

For each workload and each of :data:`SEEDS` this runs one rep and stores its simulated
fingerprint.  ``hmmer-observed-live`` is recorded twice, with and
without its live dashboard, and recording stops if the two simulated
fingerprints differ: the dashboard must only read.  Re-record whenever
a campaign size in ``workloads.SIZES`` changes (``run.py`` refuses a
reference recorded at other sizes) or a change is meant to alter the
simulated outcome.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import run
import workloads

#: Every recorded seed.
SEEDS = tuple(range(32))
#: Seeds the benchmark was tuned on; every other recorded seed is held
#: out, so a later claim can be rechecked on a seed nobody tuned on.
TUNING_SEEDS = (1, 2, 3, 4, 5)
#: Reps recorded at once (each is its own single-threaded process).
JOBS = 2


def _record(workload: str, seed: int) -> dict:
    deadline = time.monotonic() + 600.0
    rep = run._spawn(workload, seed, "plain", "full", deadline)
    if "error" in rep or rep["failures"]:
        raise SystemExit(f"{workload} seed {seed}: "
                         f"{rep.get('error') or rep['failures']}")
    fp = rep["fingerprint"]
    if workload == "hmmer-observed-live":
        control = run._spawn(workload, seed, "nodash", "full", deadline)
        if "error" in control or control["fingerprint"]["sim"] != fp["sim"]:
            raise SystemExit(f"{workload} seed {seed}: the live dashboard "
                             f"changed the simulated outcome")
    return fp


def main() -> int:
    cells = [(w, s) for w in workloads.WORKLOADS for s in SEEDS]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        fps = list(pool.map(lambda cell: _record(*cell), cells))
    fingerprints: dict = {w: {} for w in workloads.WORKLOADS}
    for (w, s), fp in zip(cells, fps):
        fingerprints[w][str(s)] = fp
    doc = {
        "sizes": workloads.SIZES["full"],
        "tuning_seeds": list(TUNING_SEEDS),
        "held_out_seeds": [s for s in SEEDS if s not in TUNING_SEEDS],
        "fingerprints": fingerprints,
    }
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(cells)} fingerprints to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
