"""Print the exact work counts of every benchmark workload's traced run.

Usage (from any directory):

    python3 tools/bench_counts.py

For each workload of perfbench/run.py's WORKLOADS, in that order, the script
writes the workload's seed-1 inputs and runs its CLI command twice, traced,
in a temporary directory outside the checkout (bench_digests.run_once). It
keeps each per-layer metric of the second run whose unit in run.PER_LAYER is "count" (calls,
kernel evaluations, L-BFGS iterations; a layer that never ran counts 0), and
prints one line per metric: the workload, the metric, its value, and how the
value compares with the record in tools/bench_counts.txt (one "<workload>
<metric> <value>" line each): "match", "MISMATCH (recorded <value>)" or
"unrecorded". Counts do not move with machine load, so a change that keeps
the work the same matches every recorded line; a change that moves a count
on purpose updates the record and says so.

It changes no file under the checkout, and exits 1 if a recorded count
differs, the two runs' digests differ, any run fails, or the first run of a
news workload leaves no word-vector sidecar (the error goes to standard
error).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ under tools/

from bench_digests import compare, read_record, run, run_once  # noqa: E402

RECORD = Path(__file__).with_suffix(".txt")
SEED = 1


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    metrics = [name for name, unit in run.PER_LAYER.items() if unit == "count"]
    record = read_record(RECORD)
    failed = False
    for name in run.WORKLOADS:
        rep = run_once(name, SEED, traced=True)
        if rep is None:
            failed = True
            continue
        for metric in metrics:
            value = str(rep.layers.get(metric, 0))
            status = compare(record.get((name, metric)), value)
            failed = failed or status.startswith("MISMATCH")
            print(f"{name} {metric} {value} {status}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
