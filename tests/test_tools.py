"""tools/bench_digests.py and tools/bench_counts.py on stubbed benchmark runs:
each compares what a run gives with its record, reports a changed, missing
or failed line, and writes nothing under the checkout."""

import importlib
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from protosel.corpus import SIDECAR_SUFFIX

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(params=["bench_digests", "bench_counts"])
def tool(request, monkeypatch, tmp_path):
    """One tool: its main, its record (moved to tmp_path), whether it is the
    digest tool, the directories its runs wrote under (written), the
    workload whose repetitions fail (failed, none at first), the one whose
    second repetition writes other bytes (unstable, none at first) and the
    news workload whose repetitions leave no word-vector sidecar (uncached,
    none at first). run.make_inputs and run.run_rep are stubs that write
    under the directory they are given, as the real ones do."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", [str(ROOT / "tools"), *sys.path])
    module = importlib.import_module(request.param)
    monkeypatch.setattr(module, "RECORD", tmp_path / "record.txt")
    module.RECORD.write_text("")
    tool = SimpleNamespace(main=module.main, record=module.RECORD, digests=request.param == "bench_digests",
                           written=[], failed=None, unstable=None, uncached=None)
    run = module.run
    metrics = [name for name, unit in run.PER_LAYER.items() if unit == "count"]

    def make_inputs(workload, seed, outdir):
        outdir.mkdir(parents=True)
        (outdir / "inputs.txt").write_text(f"{seed}\n")
        tool.written.append(outdir)
        return {"seed": seed, "paths": {"vectors": str(outdir / "vectors.txt")} if workload.data == "news" else {}}

    def run_rep(workload, inputs, work, k, traced):
        (work / f"log-{k}.txt").write_text("stub log\n")
        tool.written.append(work)
        name = next(n for n, w in run.WORKLOADS.items() if w is workload)
        if name == tool.failed:
            return run.Rep(traced, 1.0, 1.0, 1.0, 3, error="exit code 3")
        if workload.data == "news" and name != tool.uncached:
            Path(inputs["paths"]["vectors"] + SIDECAR_SUFFIX).write_bytes(b"")
        layers = {metric: len(name) * i + inputs["seed"] for i, metric in enumerate(metrics)}
        output = f"{name}-{inputs['seed']}" + ("-again" if name == tool.unstable and k else "")
        return run.Rep(traced, 1.0, 1.0, 1.0, 0, digest=output.encode().hex(), layers=layers)

    monkeypatch.setattr(run, "make_inputs", make_inputs)
    monkeypatch.setattr(run, "run_rep", run_rep)
    return tool


def run_tool(tool, capsys):
    """(exit code, printed lines, standard error) of one run on seed 1."""
    code = tool.main(["--seeds", "1"] if tool.digests else [])
    out, err = capsys.readouterr()
    return code, out.splitlines(), err


def record_of(lines):
    """The record lines that a run's printed lines give."""
    return "".join(" ".join(line.split()[:3]) + "\n" for line in lines)


def checkout_files():
    """(path, modification time) of every file under the checkout outside .git."""
    found = set()
    for path, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d != ".git"]
        found |= {(os.path.join(path, f), os.stat(os.path.join(path, f)).st_mtime_ns) for f in files}
    return found


def test_every_recorded_line_matches(tool, capsys):
    _, lines, _ = run_tool(tool, capsys)
    assert lines and all(line.endswith(" unrecorded") for line in lines)
    tool.record.write_text(record_of(lines))
    code, again, _ = run_tool(tool, capsys)
    assert code == 0
    assert again == [line.replace(" unrecorded", " match") for line in lines]


def test_an_altered_record_line_exits_1_with_a_mismatch(tool, capsys):
    _, lines, _ = run_tool(tool, capsys)
    record = record_of(lines).splitlines()
    *key, value = record[1].split()
    record[1] = " ".join([*key, value + "0"])
    tool.record.write_text("\n".join(record) + "\n")
    code, again, _ = run_tool(tool, capsys)
    assert code == 1
    assert [line for line in again if "MISMATCH" in line] == [f"{lines[1].rsplit(' ', 1)[0]} "
                                                              f"MISMATCH (recorded {value}0)"]


def test_a_missing_record_line_is_unrecorded(tool, capsys):
    _, lines, _ = run_tool(tool, capsys)
    tool.record.write_text(record_of(lines[1:]))
    code, again, _ = run_tool(tool, capsys)
    assert code == 0
    assert [line for line in again if not line.endswith(" match")] == [lines[0]]


def test_a_failed_repetition_exits_1(tool, capsys):
    _, lines, _ = run_tool(tool, capsys)
    tool.record.write_text(record_of(lines))
    tool.failed = "news-svm"
    code, again, err = run_tool(tool, capsys)
    assert code == 1
    assert "news-svm 1: exit code 3\nstub log" in err
    assert again == [line.replace(" unrecorded", " match") for line in lines if not line.startswith("news-svm ")]


def test_a_second_repetition_with_other_bytes_exits_1(tool, capsys):
    _, lines, _ = run_tool(tool, capsys)
    tool.record.write_text(record_of(lines))
    tool.unstable = "news-summarize"
    code, again, err = run_tool(tool, capsys)
    assert code == 1
    first, second = (f"news-summarize-1{tail}".encode().hex()[:16] for tail in ("", "-again"))
    assert f"news-summarize 1: the repetitions' digests differ: {first} {second}" in err
    assert again == [line.replace(" unrecorded", " match") for line in lines
                     if not line.startswith("news-summarize ")]


def test_a_news_workload_that_leaves_no_sidecar_exits_1(tool, capsys):
    _, lines, _ = run_tool(tool, capsys)
    tool.record.write_text(record_of(lines))
    tool.uncached = "news-summarize"
    code, again, err = run_tool(tool, capsys)
    assert code == 1
    assert "news-summarize 1: the first repetition left no sidecar beside " in err
    assert again == [line.replace(" unrecorded", " match") for line in lines
                     if not line.startswith("news-summarize ")]


def test_nothing_is_written_under_the_checkout(tool, capsys):
    before = checkout_files()
    run_tool(tool, capsys)
    assert checkout_files() == before
    assert tool.written and not any(path.is_relative_to(ROOT) for path in tool.written)
