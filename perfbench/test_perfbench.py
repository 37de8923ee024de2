"""Tests of the benchmark's own code: span arithmetic, namespace patching,
generator determinism, output checks, and agreement with BENCHMARK.json."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import gen
import run
import tracer as tracing


def _span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_inclusive_time_counts_nested_same_name_once():
    spans = [
        _span("x", 0.0, 8.0),
        _span("x", 1.0, 5.0, 0),
        _span("y", 5.0, 7.0, 0),
        _span("x", 9.0, 10.0),
    ]
    assert tracing.outermost(spans) == [True, False, True, True]
    metrics, _ = tracing.layer_metrics([spans])
    assert metrics["x.calls"] == 3
    assert metrics["x.s"] == pytest.approx(9.0)
    assert metrics["x.self_s"] == pytest.approx(2.0 + 4.0 + 1.0)


def test_worker_idle_fraction_uses_worker_capacity():
    parent = [_span("evaluation.run_experiment", 0.0, 10.0, -1, {"workers": 2})]
    worker_a = [_span("evaluation.eval_cell", 1.0, 9.0)]
    worker_b = [_span("evaluation.eval_cell", 1.0, 5.0)]
    metrics, _ = tracing.layer_metrics([parent, worker_a, worker_b])
    assert metrics["evaluation.run_experiment.worker_idle_frac"] == pytest.approx(1 - 12 / 20)


def test_patch_sees_kernel_calls_from_every_importing_module():
    from protosel import greedy, kernel, objectives
    from protosel.corpus import from_rows
    from protosel.kernel import KernelSpec
    from protosel.objectives import ObjectiveSpec

    rng = np.random.Generator(np.random.PCG64(0))
    data = from_rows(rng.standard_normal((24, 3)), ["a"] * 12 + ["b"] * 12)
    spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.5), lam=1.0)
    original = kernel.kernel_matrix

    t = tracing.Tracer()
    assert tracing.install(t) == []
    try:
        assert greedy.kernel_matrix is not original
        assert objectives.kernel_matrix is not original
        summary = greedy.greedy_select(data, spec, 2)
        objectives.utility_value(spec, summary, data)
    finally:
        tracing.uninstall(t)
    assert greedy.kernel_matrix is original and objectives.kernel_matrix is original

    names = [s[0] for s in t.spans]
    callers = {names[s[3]] for s in t.spans if s[0] == "kernel.kernel_matrix"}
    assert "greedy.GreedyState.init" in callers
    assert "objectives.mmd2" in callers
    metrics, _ = tracing.layer_metrics(t.trees())
    assert metrics["kernel.kernel_matrix.evals"] > 0
    assert metrics["objectives.utility_value.peak_mb"] > 0


def _tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_generators_are_byte_identical_for_a_seed(tmp_path):
    counts = (4, 3, 3, 3, 3, 3, 3, 3, 3, 3)
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.write_usps(tmp_path / name / "usps", seed, counts, counts)
        gen.write_news(tmp_path / name / "news", seed, n_docs=30, n_groups=3, vocab=2000, dim=5)
    for kind in ("usps", "news"):
        assert _tree_bytes(tmp_path / "a" / kind) == _tree_bytes(tmp_path / "b" / kind)
        assert _tree_bytes(tmp_path / "a" / kind) != _tree_bytes(tmp_path / "c" / kind)


_CSV_HEAD = "method,M,classifier,split,gamma,lambda,C,balanced_accuracy\n"


def _write_results(out: Path, body: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(_CSV_HEAD + body)


def test_results_check_accepts_complete_table(tmp_path):
    w = run.Workload(data="usps", command="evaluate", methods=("kmeans",), m=2, splits=2)
    _write_results(tmp_path, "kmeans,2,1nn,0,,,,0.800000\nkmeans,2,1nn,1,,,,0.600000\n"
                             "kmeans,2,1nn,mean,,,,0.700000\n")
    quality, digest = run.check_evaluate(w, tmp_path)
    assert quality == pytest.approx(0.7) and len(digest) == 64


@pytest.mark.parametrize("body", [
    "kmeans,2,1nn,0,,,,0.800000\nkmeans,2,1nn,mean,,,,0.800000\n",                      # row missing
    "kmeans,2,1nn,0,,,,0.8\nkmeans,2,1nn,1,,,,0.6\nkmeans,2,1nn,2,,,,0.6\nkmeans,2,1nn,mean,,,,0.7\n",
    "kmeans,2,1nn,0,,,,nan\nkmeans,2,1nn,1,,,,0.6\nkmeans,2,1nn,mean,,,,0.7\n",         # non-finite
    "kmeans,2,1nn,0,,,,1.400000\nkmeans,2,1nn,1,,,,0.600000\nkmeans,2,1nn,mean,,,,1.000000\n",
])
def test_results_check_rejects_bad_tables(tmp_path, body):
    w = run.Workload(data="usps", command="evaluate", methods=("kmeans",), m=2, splits=2)
    _write_results(tmp_path, body)
    with pytest.raises(run.OutputError):
        run.check_evaluate(w, tmp_path)


def test_summary_check_requires_m_distinct_rows_of_the_group(tmp_path):
    w = run.Workload(data="news", command="summarize", methods=("mmd-diff-grad",), m=2)
    inputs = {"group_of": {"d1": "g1", "d2": "g1", "d3": "g2", "d4": "g2"}}
    head = "# objective_value: 1.5\n"
    (tmp_path / "summary_g1.txt").write_text(head + "d1\tg1\tt\n    s\nd2\tg1\tt\n")
    (tmp_path / "summary_g2.txt").write_text(head + "d3\tg2\tt\nd4\tg2\tt\n")
    assert run.check_summarize(w, tmp_path, inputs)[0] == 1.5
    (tmp_path / "summary_g2.txt").write_text(head + "d3\tg2\tt\nd3\tg2\tt\n")
    with pytest.raises(run.OutputError):
        run.check_summarize(w, tmp_path, inputs)
    (tmp_path / "summary_g2.txt").write_text(head + "d3\tg2\tt\nd1\tg2\tt\n")
    with pytest.raises(run.OutputError):
        run.check_summarize(w, tmp_path, inputs)


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
