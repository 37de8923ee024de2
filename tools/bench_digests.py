"""Print the output digest of every benchmark workload on each seed.

Usage (from any directory):

    python3 tools/bench_digests.py [--seeds 1,2,3]

For each workload of perfbench/run.py's WORKLOADS, in that order, and each
seed, the script writes the workload's inputs (run.make_inputs) and runs its
CLI command once, untraced (run.run_rep), in a temporary directory outside
the checkout. It prints one line per run: the workload, the seed, the
first 16 hex digits of the sha256 the benchmark's output check takes of
results.csv or of the summary files, and how that digest compares with the
record in tools/bench_digests.txt (one "<workload> <seed> <digest>" line per
run): "match", "MISMATCH (recorded <digest>)" or "unrecorded". A refactor
that keeps the outputs byte-identical matches every recorded line; a change
that moves a digest on purpose updates the record.

It changes no file under the checkout, and exits 1 if a recorded digest
differs or any run fails its output check (the error goes to standard
error).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = Path(__file__).with_suffix(".txt")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/

import run  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated input seeds (default 1,2,3)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    record = {}
    for line in RECORD.read_text().splitlines():
        name, seed, digest = line.split()
        record[name, int(seed)] = digest
    failed = False
    for name, workload in run.WORKLOADS.items():
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix="protosel-digests-") as tmp:
                work = Path(tmp)
                inputs = run.make_inputs(workload, seed, work / "inputs")
                rep = run.run_rep(workload, inputs, work, 0, traced=False)
                if not rep.ok:
                    log = (work / "log-0.txt").read_text(errors="replace")
                    print(f"{name} {seed}: {rep.error}\n{log}", file=sys.stderr)
                    failed = True
                    continue
            digest = rep.digest[:16]
            recorded = record.get((name, seed))
            if recorded is None:
                status = "unrecorded"
            elif recorded == digest:
                status = "match"
            else:
                status = f"MISMATCH (recorded {recorded})"
                failed = True
            print(f"{name} {seed} {digest} {status}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
