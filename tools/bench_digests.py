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
error). tools/bench_counts.py shares its record and run helpers.
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
    """One repetition of the named workload on seed-generated inputs, in a
    temporary directory outside the checkout: its run.Rep, or None after its
    error and log have gone to standard error."""
    workload = run.WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix="protosel-bench-") as tmp:
        work = Path(tmp)
        inputs = run.make_inputs(workload, seed, work / "inputs")
        rep = run.run_rep(workload, inputs, work, 0, traced=traced)
        if not rep.ok:
            log = (work / "log-0.txt").read_text(errors="replace")
            print(f"{name} {seed}: {rep.error}\n{log}", file=sys.stderr)
            return None
    return rep


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
