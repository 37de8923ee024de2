"""Run one protosel CLI command in a fresh process and report on it.

Usage: python3 child.py REPORT [--trace SPILL_DIR] -- CLI_ARGS...

The report (JSON) holds the CLI exit code, the CLOCK_MONOTONIC time at
which the CLI first called run_experiment or build_summary, which ends the
set-up phase, and the time the CLI returned. With --trace, every protosel layer is wrapped by the tracer
and the report also holds the per-layer metrics and their breakdown.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _first_call(fn, stamp: dict):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stamp.setdefault("at", time.monotonic())
        return fn(*args, **kwargs)

    return wrapper


def main(argv) -> int:
    sep = argv.index("--")
    report_path, opts, cli_args = argv[0], argv[1:sep], argv[sep + 1 :]
    from protosel import cli

    tracer = None
    missing = []
    if opts[:1] == ["--trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(spill_dir=opts[1])
        missing = tracing.install(tracer)
    stamp: dict = {}
    cli.run_experiment = _first_call(cli.run_experiment, stamp)
    cli.build_summary = _first_call(cli.build_summary, stamp)
    code = cli.main(cli_args)
    report = {"exit_code": code, "setup_at": stamp.get("at"), "done_at": time.monotonic()}
    if tracer is not None:
        metrics, detail = tracing.layer_metrics(tracer.trees())
        report.update(layers=metrics, detail=detail, untraced=missing)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
