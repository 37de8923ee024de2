"""Print the output digest of every benchmark workload on each seed.

Usage (from any directory):

    python3 tools/bench_digests.py [--seeds 1,2,3]

For each workload of perfbench/run.py's WORKLOADS, in that order, and each
seed, the script writes the workload's inputs (run.make_inputs) and runs its
CLI command twice on them, untraced (run.run_rep), in a temporary directory
outside the checkout; the second run reads what the first left beside the
inputs, such as a word-vector sidecar, and must give the same digest. It
prints one line per workload and seed: the workload, the seed, the
first 16 hex digits of the sha256 the benchmark's output check takes of
results.csv or of the summary files, and how that digest compares with the
record in tools/bench_digests.txt (one "<workload> <seed> <digest>" line per
run): "match", "MISMATCH (recorded <digest>)" or "unrecorded". A refactor
that keeps the outputs byte-identical matches every recorded line; a change
that moves a digest on purpose updates the record.

It changes no file under the checkout, and exits 1 if a recorded digest
differs, the two runs' digests differ, any run fails its output check, or
the first run of a news workload leaves no sidecar beside the vectors file
(the error goes to standard error). tools/bench_counts.py shares its record
and run helpers.
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
from protosel.corpus import SIDECAR_SUFFIX  # noqa: E402


def read_record(path: Path) -> dict:
    """Each "<key words> <value>" line of a record file, as {key words: value}."""
    record = {}
    for line in path.read_text().splitlines():
        *key, value = line.split()
        record[tuple(key)] = value
    return record


def compare(recorded: str | None, value: str) -> str:
    """How a value compares with its recorded one."""
    if recorded is None:
        return "unrecorded"
    return "match" if recorded == value else f"MISMATCH (recorded {recorded})"


def run_once(name: str, seed: int, traced: bool):
    """Two repetitions of the named workload on one set of seed-generated
    inputs, in a temporary directory outside the checkout: the second's
    run.Rep, or None after an error has gone to standard error (a failed
    repetition's, with its log, a news workload's first repetition that left
    no word-vector sidecar, or the two digests when they differ)."""
    workload = run.WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix="protosel-bench-") as tmp:
        work = Path(tmp)
        inputs = run.make_inputs(workload, seed, work / "inputs")
        reps = []
        for k in range(2):
            rep = run.run_rep(workload, inputs, work, k, traced=traced)
            if not rep.ok:
                log = (work / f"log-{k}.txt").read_text(errors="replace")
                print(f"{name} {seed}: {rep.error}\n{log}", file=sys.stderr)
                return None
            reps.append(rep)
            vectors = inputs["paths"].get("vectors")
            if k == 0 and vectors is not None and not Path(vectors + SIDECAR_SUFFIX).exists():
                print(f"{name} {seed}: the first repetition left no sidecar beside {vectors}", file=sys.stderr)
                return None
    if reps[0].digest != reps[1].digest:
        print(f"{name} {seed}: the repetitions' digests differ: {reps[0].digest[:16]} {reps[1].digest[:16]}",
              file=sys.stderr)
        return None
    return reps[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated input seeds (default 1,2,3)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    record = read_record(RECORD)
    failed = False
    for name in run.WORKLOADS:
        for seed in seeds:
            rep = run_once(name, seed, traced=False)
            if rep is None:
                failed = True
                continue
            digest = rep.digest[:16]
            status = compare(record.get((name, str(seed))), digest)
            failed = failed or status.startswith("MISMATCH")
            print(f"{name} {seed} {digest} {status}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
