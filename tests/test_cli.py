import configparser
import errno
import gzip
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import count_group_sums_evaluations, table_pass_evaluations, write_usps

from protosel import cli, evaluation, gradopt
from protosel.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    RunConfig,
    cmd_selftest,
    dump_config,
    load_config,
    main,
)
from protosel.corpus import SplitPair, apply_pca, fit_pca, from_rows, make_splits
from protosel.evaluation import default_grids
from protosel.kernel import MEDIAN_PAIRS, KernelSpec, median_gamma
from protosel.objectives import ObjectiveSpec
from protosel.selftest import total_value


@pytest.fixture
def toy_corpus(tmp_path):
    """Two topic groups with distinct vocabularies, plus a small vector table."""
    rng = np.random.Generator(np.random.PCG64(0))
    tokens = {
        "alpha": [1.0, 0.0], "beta": [0.9, 0.1],
        "gamma": [0.0, 1.0], "delta": [0.1, 0.9],
        "common": [0.5, 0.5],
    }
    vec_path = tmp_path / "vectors.txt"
    vec_path.write_text(
        "\n".join(f"{t} {v[0]} {v[1]}" for t, v in tokens.items()) + "\n"
    )
    docs = []
    for i in range(8):
        word = "alpha" if i % 2 else "beta"
        docs.append({"id": f"a{i}", "group": "early", "title": f"{word} common",
                     "sentences": [f"{word} {word}", "common"]})
    for i in range(8):
        word = "gamma" if i % 2 else "delta"
        docs.append({"id": f"b{i}", "group": "late", "title": f"{word} common",
                     "sentences": [f"{word} {word}", "common"]})
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
    return corpus_path, vec_path


def run(args):
    return main([str(a) for a in args])


class TestSummarize:
    def test_writes_per_group_files(self, toy_corpus, tmp_path):
        corpus, vectors = toy_corpus
        out = tmp_path / "out"
        code = run(["summarize", "--corpus", corpus, "--vectors", vectors,
                    "--method", "mmd-diff-grad", "--m", "2", "--seed", "1", "--out", out])
        assert code == EXIT_OK
        files = sorted(p.name for p in out.glob("summary_*.txt"))
        assert files == ["summary_early.txt", "summary_late.txt"]
        text = (out / "summary_early.txt").read_text()
        assert "# objective: mmd-diff" in text
        assert "# optimizer: gradient" in text
        assert "# gamma:" in text
        assert "# objective_value:" in text
        # two selected documents, each with id/group/title line
        entries = [l for l in text.splitlines() if l.startswith("a")]
        assert len(entries) == 2

    def test_byte_identical_across_runs(self, toy_corpus, tmp_path):
        corpus, vectors = toy_corpus
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            code = run(["summarize", "--corpus", corpus, "--vectors", vectors,
                        "--method", "mmd-div-greedy", "--m", "2", "--seed", "3", "--out", out])
            assert code == EXIT_OK
            outs.append({p.name: p.read_bytes() for p in out.glob("*.txt")})
        assert outs[0] == outs[1]

    def test_line_breaks_in_document_text_stay_inside_their_line(self, toy_corpus, tmp_path):
        corpus, vectors = toy_corpus
        docs = [json.loads(line) for line in corpus.read_text().splitlines()]
        for doc in docs:
            doc["title"] += "\ninjected\tline\u2028 x\x85y\x1cz "
            doc["sentences"] = [" alpha  alpha\r\nsecond\v", "common\f\x1fthird"]
        corpus.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        out = tmp_path / "out"
        assert run(["summarize", "--corpus", corpus, "--vectors", vectors, "--method", "full",
                    "--m", "1", "--out", out]) == EXIT_OK
        for group in ("early", "late"):
            lines = (out / f"summary_{group}.txt").read_text().split("\n")
            assert lines.pop() == ""
            entries = [line for line in lines if not line.startswith(("#", "    "))]
            assert len(entries) == 8
            for entry in entries:
                doc_id, doc_group, title = entry.split("\t")
                assert doc_group == group and title.endswith(" common injected line x y z")
            assert lines.count("    alpha alpha second") == 8 and lines.count("    common third") == 8

    @pytest.mark.parametrize("key", ["id", "group"])
    def test_a_line_break_in_a_document_id_or_group_exits_data_error(self, toy_corpus, tmp_path, capsys, key):
        corpus, vectors = toy_corpus
        lines = corpus.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), key: "a\nb"})
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run(["summarize", "--corpus", corpus, "--vectors", vectors, "--method", "full",
                    "--m", "1", "--out", out]) == EXIT_DATA
        assert f"line 3: '{key}' must not hold a tab or a line break" in capsys.readouterr().err
        assert not out.exists()

    def test_m_exceeding_group_size_exits_data_error(self, toy_corpus, tmp_path, capsys):
        corpus, vectors = toy_corpus
        code = run(["summarize", "--corpus", corpus, "--vectors", vectors,
                    "--method", "kmeans", "--m", "50", "--out", tmp_path / "x"])
        assert code == EXIT_DATA
        assert "error" in capsys.readouterr().err

    def test_greedy_init_and_header_value_share_one_table(self, tmp_path, monkeypatch):
        usps = tmp_path / "u.txt"
        write_usps(usps, [i % 3 for i in range(30)] + [0] * 7, seed=4)
        evaluations = count_group_sums_evaluations(monkeypatch)
        code = run(["summarize", "--usps-train", usps, "--method", "mmd-diff-grad", "--m", "2",
                    "--gamma", "0.002", "--lam", "1.5", "--out", tmp_path / "out"])
        assert code == EXIT_OK
        data = cli._load_dataset(RunConfig(usps_train=str(usps)))[0]
        assert sum(evaluations) == table_pass_evaluations(data)

    @pytest.mark.parametrize("method, grad_init, passes", [
        ("mmd-div-grad", "kmeans", 0), ("mmd-div-grad", "random", 0), ("mmd-diff-grad", "kmeans", 1),
    ])
    def test_only_a_reader_of_the_table_makes_its_pass(self, method, grad_init, passes, tmp_path, monkeypatch):
        # a kmeans or random start reads no table; mmd-diff's header value
        # with lam > 0 still needs one pass of its own
        usps = tmp_path / "u.txt"
        write_usps(usps, [i % 3 for i in range(30)] + [0] * 7, seed=4)
        evaluations = count_group_sums_evaluations(monkeypatch)
        code = run(["summarize", "--usps-train", usps, "--method", method, "--m", "2", "--grad-init", grad_init,
                    "--gamma", "0.002", "--lam", "1.5", "--out", tmp_path / "out"])
        assert code == EXIT_OK
        data = cli._load_dataset(RunConfig(usps_train=str(usps)))[0]
        assert sum(evaluations) == passes * table_pass_evaluations(data)

    def test_usps_rows_written_as_indices(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(1))
        lines = []
        for i in range(12):
            label = i % 2
            vals = rng.normal(loc=label * 3.0, size=256)
            lines.append(str(label) + " " + " ".join(f"{v:.4f}" for v in vals))
        usps = tmp_path / "usps.txt"
        usps.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = run(["summarize", "--usps-train", usps, "--method", "kmedoids",
                    "--m", "2", "--out", out])
        assert code == EXIT_OK
        text = (out / "summary_0.txt").read_text()
        assert "row " in text


# header lines after "# method:" of each method on the toy corpus (m = 2,
# seed 1); _VALUE marks the objective_value line, whose value must equal the
# selftest oracle's total value of the written summary
_GAMMA = "# gamma: 2.17013888889"
_VALUE = object()
HEADERS = {
    "nn-comp-greedy": ["# objective: nn", "# optimizer: greedy", _GAMMA, "# lambda: 0", _VALUE],
    "mmd-diff-greedy": ["# objective: mmd-diff", "# optimizer: greedy", _GAMMA, "# lambda: 1", _VALUE],
    "mmd-div-greedy": ["# objective: mmd-div", "# optimizer: greedy", _GAMMA, "# lambda: 1", _VALUE],
    "mmd-diff-grad": ["# objective: mmd-diff", "# optimizer: gradient", _GAMMA, "# lambda: 1", _VALUE],
    "mmd-div-grad": ["# objective: mmd-div", "# optimizer: gradient", _GAMMA, "# lambda: 1", _VALUE],
    "kmeans": ["# objective: inertia", "# optimizer: kmeans"],
    "kmedoids": ["# objective: total-distance", "# optimizer: kmedoids"],
    "mmd-critic": ["# objective: mmd-critic", "# optimizer: greedy", _GAMMA],
    "full": ["# objective: none", "# optimizer: full"],
}
SELECTED = {"mmd-critic": (2, 2), "full": (8, 8)}


def _oracle_value(method, corpus, vectors, out):
    """selftest.total_value of the summary written to out, at the CLI's gamma
    and the header's lambda."""
    data, _, _ = cli._load_dataset(RunConfig(corpus=str(corpus), vectors=str(vectors)))
    row_of = {rid: i for i, rid in enumerate(data.row_ids)}
    selections, lam = [], None
    for name in data.group_names:
        lines = (out / f"summary_{name}.txt").read_text().splitlines()
        lam = next(float(l.split(": ")[1]) for l in lines if l.startswith("# lambda: "))
        selections.append([row_of[l.split("\t")[0]] for l in lines if "\t" in l])
    kernel = KernelSpec(median_gamma(data.points))
    spec = ObjectiveSpec(kind=evaluation.METHODS[method].kind, kernel=kernel, lam=lam)
    return total_value(data, spec, selections)


@pytest.mark.parametrize("method", list(HEADERS))
def test_summary_header_lines(method, toy_corpus, tmp_path):
    corpus, vectors = toy_corpus
    out = tmp_path / "out"
    assert run(["summarize", "--corpus", corpus, "--vectors", vectors,
                "--method", method, "--m", "2", "--seed", "1", "--out", out]) == EXIT_OK
    for name, selected in zip(("early", "late"), SELECTED.get(method, (2, 2))):
        lines = [l for l in (out / f"summary_{name}.txt").read_text().splitlines() if l.startswith("#")]
        expected = [f"# group: {name}", f"# method: {method}", *HEADERS[method], f"# selected: {selected}"]
        assert len(lines) == len(expected)
        for line, want in zip(lines, expected):
            if want is _VALUE:
                oracle = _oracle_value(method, corpus, vectors, out)
                assert line == f"# objective_value: {format(oracle, '.12g')}"
            else:
                assert line == want


@pytest.mark.parametrize("command, method, m", [("evaluate", "full", "0"), ("summarize", "kmeans", "-2")])
def test_m_below_one_exits_config_error(command, method, m, toy_corpus, tmp_path, capsys):
    corpus, vectors = toy_corpus
    out = tmp_path / "out"
    code = run([command, "--corpus", corpus, "--vectors", vectors, "--method", method,
                "--m", m, "--out", out])
    assert code == EXIT_CONFIG
    assert "m must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, ini, message", [
    pytest.param("summarize", ["--pca-target", "1.5"], "",
                 "pca_target must be in (0, 1], got 1.5", id="pca_target"),
    pytest.param("summarize", [], "[run]\nfirst_sentences = -1\n",
                 "first_sentences must be >= 0, got -1", id="first_sentences"),
    pytest.param("summarize", ["--gamma", "-1"], "",
                 "gamma must be finite and positive, got -1.0", id="gamma-negative"),
    pytest.param("summarize", ["--gamma", "inf"], "",
                 "gamma must be finite and positive, got inf", id="gamma-inf"),
    pytest.param("summarize", ["--lam", "-1"], "",
                 "lam must be finite and nonnegative, got -1.0", id="lam-negative"),
    pytest.param("summarize", ["--lam", "nan"], "",
                 "lam must be finite and nonnegative, got nan", id="lam-nan"),
    pytest.param("evaluate", [], "[grids]\ncs = -1, 1\n",
                 "cs must be finite and positive, got -1.0", id="cs-negative"),
    pytest.param("evaluate", [], "[grids]\ngammas = 1, nan\n",
                 "gammas must be finite and positive, got nan", id="gammas-nan"),
    pytest.param("evaluate", [], "[grids]\nlambdas = nan\n",
                 "lambdas must be finite and nonnegative, got nan", id="lambdas-nan"),
    pytest.param("evaluate", ["--gamma", "50"], "",
                 "evaluate does not take gamma; set the [grids] gammas list", id="evaluate-gamma"),
    pytest.param("evaluate", [], "[run]\nlam = 7\n",
                 "evaluate does not take lam; set the [grids] lambdas list", id="evaluate-lam"),
    pytest.param("summarize", ["--seed", "-1"], "", "seed must be >= 0, got -1", id="summarize-seed"),
    pytest.param("evaluate", [], "[run]\nseed = -3\n", "seed must be >= 0, got -3", id="evaluate-seed"),
    # an empty method or m list wrote a header-only results.csv, and an empty
    # classifier list died on a missing gamma grid
    *(pytest.param("evaluate", [f"--{key}="], "", f"{key} needs at least one value", id=f"evaluate-{key}-empty")
      for key in ("method", "m", "classifier")),
    pytest.param("evaluate", [], "[run]\nclassifier =\n", "classifier needs at least one value",
                 id="evaluate-classifier-empty-in-file"),
    *(pytest.param("summarize", [], f"[grids]\n{key} = 0.5, 1\n",
                   f"summarize does not take the [grids] list {key}", id=f"summarize-{key}")
      for key in ("gammas", "lambdas", "cs")),
    # a repeated value would run, and write, every one of its cells again
    pytest.param("evaluate", ["--method", "kmeans,kmeans"], "", "method repeats the value 'kmeans'",
                 id="evaluate-method-repeated"),
    pytest.param("evaluate", ["--m", "2,2"], "", "m repeats the value 2", id="evaluate-m-repeated"),
    pytest.param("evaluate", [], "[run]\nclassifier = 1nn, svm, 1nn\n", "classifier repeats the value '1nn'",
                 id="evaluate-classifier-repeated-in-file"),
    pytest.param("summarize", ["--method", "kmeans,kmeans"], "", "method repeats the value 'kmeans'",
                 id="summarize-method-repeated"),
])
def test_out_of_range_values_exit_config_error(command, flags, ini, message, toy_corpus, tmp_path,
                                               capsys):
    corpus, vectors = toy_corpus
    config = tmp_path / "run.ini"
    config.write_text(ini)
    out = tmp_path / "out"
    code = run([command, "--config", config, "--corpus", corpus, "--vectors", vectors,
                "--method", "mmd-diff-greedy", "--m", "2", *flags, "--out", out])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, ini, keys", [
    pytest.param("summarize", ["--corpus", "{corpus}", "--vectors", "{vectors}", "--usps-train", "{usps}"], "",
                 "corpus, vectors, usps_train", id="summarize-corpus-and-usps-train"),
    pytest.param("evaluate", ["--usps-train", "{usps}", "--vectors", "{vectors}"], "",
                 "vectors, usps_train", id="evaluate-usps-train-and-vectors"),
    pytest.param("evaluate", ["--corpus", "{corpus}", "--vectors", "{vectors}", "--usps-test", "{usps}"], "",
                 "corpus, vectors, usps_test", id="evaluate-corpus-and-usps-test"),
    pytest.param("summarize", ["--usps-train", "{usps}"], "[data]\ncorpus = {corpus}\nvectors = {vectors}\n",
                 "corpus, vectors, usps_train", id="summarize-usps-flag-and-corpus-in-file"),
])
def test_a_corpus_and_a_usps_dataset_together_exit_config_error(command, flags, ini, keys, toy_corpus, tmp_path,
                                                                 capsys):
    # a run reads one dataset, so the other would be silently ignored
    corpus, vectors = toy_corpus
    usps = tmp_path / "u.txt"
    write_usps(usps, [i % 2 for i in range(16)])
    paths = {"corpus": corpus, "vectors": vectors, "usps": usps}
    config = tmp_path / "run.ini"
    config.write_text(ini.format(**paths))
    out = tmp_path / "out"
    code = run([command, "--config", config, *(f.format(**paths) for f in flags), "--method", "kmeans",
                "--m", "2", "--out", out])
    assert code == EXIT_CONFIG
    assert f"{keys} mix a corpus and a USPS dataset" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, method", [
    ("evaluate", "kmeans"), ("summarize", "full"), ("summarize", "mmd-diff-grad"), ("evaluate", "mmd-div-grad"),
])
def test_unknown_grad_init_exits_config_error_for_every_method(command, method, toy_corpus, tmp_path, capsys):
    corpus, vectors = toy_corpus
    out = tmp_path / "out"
    code = run([command, "--corpus", corpus, "--vectors", vectors, "--method", method,
                "--m", "2", "--grad-init", "nope", "--out", out])
    assert code == EXIT_CONFIG
    assert "unknown grad_init 'nope'; valid: greedy, kmeans, random" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method, expected", [
    ("kmeans", EXIT_OK), ("kmedoids", EXIT_OK), ("full", EXIT_OK),
    ("mmd-diff-greedy", EXIT_DATA), ("mmd-diff-grad", EXIT_DATA), ("mmd-critic", EXIT_DATA),
])
def test_summarize_infers_gamma_only_for_methods_that_read_it(method, expected, tmp_path, capsys):
    # every document embeds to the same point, so the median heuristic has no pair to read
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("same 1.0 0.0\n")
    corpus = tmp_path / "corpus.jsonl"
    docs = [{"id": f"d{i}", "group": ("early", "late")[i % 2], "title": "same", "sentences": ["same"]}
            for i in range(6)]
    corpus.write_text("".join(json.dumps(d) + "\n" for d in docs))
    out = tmp_path / "out"
    code = run(["summarize", "--corpus", corpus, "--vectors", vectors, "--method", method,
                "--m", "1", "--out", out])
    assert code == expected
    if expected == EXIT_DATA:
        assert "cannot infer a bandwidth" in capsys.readouterr().err
    else:
        assert "# gamma:" not in (out / "summary_early.txt").read_text()


def test_summarize_infers_gamma_from_the_projected_points(tmp_path):
    usps = tmp_path / "u.txt"
    write_usps(usps, [i % 2 for i in range(40)], seed=7)
    data = cli._load_dataset(RunConfig(usps_train=str(usps)))[0]
    projected = apply_pca(fit_pca(data, 0.5), data)
    assert projected.dim < data.dim
    out = tmp_path / "out"
    assert run(["summarize", "--usps-train", usps, "--method", "mmd-critic", "--m", "1",
                "--pca-target", "0.5", "--out", out]) == EXIT_OK
    lines = [l for l in (out / "summary_0.txt").read_text().splitlines() if l.startswith("# gamma: ")]
    assert lines == [f"# gamma: {median_gamma(projected.points):.12g}"]
    assert lines != [f"# gamma: {median_gamma(data.points):.12g}"]


def test_summarize_infers_gamma_by_the_rule_of_evaluate(tmp_path):
    # 600 rows hold more than MEDIAN_PAIRS pairs, so the heuristic samples
    # them; its seed is 0, as in default_grids, whatever --seed says
    usps = tmp_path / "u.txt"
    write_usps(usps, [i % 2 for i in range(600)], seed=6)
    data = cli._load_dataset(RunConfig(usps_train=str(usps)))[0]
    assert data.n_points * (data.n_points - 1) // 2 > MEDIAN_PAIRS
    headers = []
    for seed in ("0", "5"):
        out = tmp_path / f"out{seed}"
        assert run(["summarize", "--usps-train", usps, "--method", "mmd-critic", "--m", "1",
                    "--seed", seed, "--out", out]) == EXIT_OK
        headers.append([l for l in (out / "summary_0.txt").read_text().splitlines() if l.startswith("# gamma: ")])
    assert headers[0] == headers[1] == [f"# gamma: {default_grids(data).gammas[2]:.12g}"]


@pytest.mark.parametrize("method, flags, message", [
    pytest.param("kmeans", ["--gamma", "0.5"], "method 'kmeans' does not read gamma", id="kmeans-gamma"),
    pytest.param("nn-comp-greedy", ["--lam", "3"], "method 'nn-comp-greedy' does not read lam",
                 id="nn-comp-greedy-lam"),
])
def test_summarize_rejects_a_value_its_method_does_not_read(method, flags, message, toy_corpus, tmp_path,
                                                            capsys):
    corpus, vectors = toy_corpus
    out = tmp_path / "out"
    code = run(["summarize", "--corpus", corpus, "--vectors", vectors, "--method", method,
                "--m", "2", *flags, "--out", out])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--workers", "7"), ("--splits", "3"), ("--classifier", "svm"),
                                         ("--train-fraction", "0.3")])
def test_summarize_rejects_an_evaluate_flag(flag, value, toy_corpus, tmp_path, capsys):
    # summarize runs no splits, classifier or pool, so the flag would do nothing
    corpus, vectors = toy_corpus
    out = tmp_path / "out"
    code = run(["summarize", "--corpus", corpus, "--vectors", vectors, "--method", "kmeans", "--m", "2",
                flag, value, "--out", out])
    assert code == EXIT_CONFIG
    assert f"summarize does not take {flag};" in capsys.readouterr().err
    assert not out.exists()


def test_summarize_ignores_evaluate_keys_of_a_shared_config_file(toy_corpus, tmp_path):
    # the README's run.ini sets splits and classifier and serves both commands
    corpus, vectors = toy_corpus
    config = tmp_path / "run.ini"
    config.write_text("[run]\nworkers = 7\nsplits = 3\nclassifier = svm\ntrain_fraction = 0.3\n")
    out = tmp_path / "out"
    code = run(["summarize", "--config", config, "--corpus", corpus, "--vectors", vectors, "--method", "kmeans",
                "--m", "2", "--out", out])
    assert code == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["summary_early.txt", "summary_late.txt"]


def test_summarize_rejects_groups_that_share_a_file_name(toy_corpus, tmp_path, capsys, monkeypatch):
    # '2016/01' and '2016_01' both sanitize to summary_2016_01.txt
    _, vectors = toy_corpus
    corpus = tmp_path / "months.jsonl"
    words = ("alpha", "beta", "gamma", "delta")
    docs = [{"id": f"d{i}", "group": ("2016/01", "2016_01", "2016-02")[i % 3], "title": words[i % 4],
             "sentences": [f"{words[i % 4]} common"]} for i in range(24)]
    corpus.write_text("".join(json.dumps(d) + "\n" for d in docs))
    monkeypatch.setattr(cli, "build_summary", lambda *a, **k: pytest.fail("a summary was built"))
    out = tmp_path / "out"
    code = run(["summarize", "--corpus", corpus, "--vectors", vectors, "--method", "kmeans",
                "--m", "2", "--out", out])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "'2016/01'" in err and "'2016_01'" in err
    assert not out.exists()


@pytest.mark.parametrize("record, message", [
    pytest.param([1, 2], "line 2: expected a JSON object", id="array-record"),
    pytest.param({"id": "x", "group": "early", "title": "alpha", "sentences": "beta gamma"},
                 "line 2: 'sentences' must be an array", id="string-sentences"),
    pytest.param({"id": "x", "group": None, "title": "alpha", "sentences": ["beta"]},
                 "line 2: 'group' must be a string", id="null-group"),
    pytest.param({"id": "x", "group": 7, "title": "alpha", "sentences": ["beta"]},
                 "line 2: 'group' must be a string", id="numeric-group"),
    pytest.param({"id": "x", "group": "early", "title": None, "sentences": ["beta"]},
                 "line 2: 'title' must be a string", id="null-title"),
    pytest.param({"id": "x", "group": "early", "title": "alpha", "sentences": ["beta", None]},
                 "line 2: 'sentences' entries must be strings", id="null-sentence"),
    pytest.param({"id": None, "group": "early", "title": "alpha", "sentences": ["beta"]},
                 "line 2: 'id' must be a string or an integer", id="null-id"),
    pytest.param({"id": True, "group": "early", "title": "alpha", "sentences": ["beta"]},
                 "line 2: 'id' must be a string or an integer", id="bool-id"),
    pytest.param({"id": 1.5, "group": "early", "title": "alpha", "sentences": ["beta"]},
                 "line 2: 'id' must be a string or an integer", id="float-id"),
])
def test_malformed_corpus_record_exits_data_error(record, message, toy_corpus, tmp_path, capsys):
    corpus, vectors = toy_corpus
    lines = corpus.read_text().splitlines()
    lines.insert(1, json.dumps(record))
    corpus.write_text("\n".join(lines) + "\n")
    code = run(["summarize", "--corpus", corpus, "--vectors", vectors,
                "--method", "kmeans", "--m", "2", "--out", tmp_path / "x"])
    assert code == EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["summarize", "evaluate"])
@pytest.mark.parametrize("text, message", [
    pytest.param(b"method = kmeans\n", "contains no section headers", id="no-section-header"),
    pytest.param(b"[run]\nseed = 1\nseed = 2\n", "option 'seed' in section 'run' already exists",
                 id="duplicate-key"),
    pytest.param(b"[run]\nseed = 1\n[run]\nm = 2\n", "section 'run' already exists", id="duplicate-section"),
    pytest.param(b"[run]\nseed\n", "contains parsing errors", id="line-without-equals"),
    pytest.param(b"[run]\nmethod = k\xe9means\n", "can't decode byte 0xe9", id="not-utf8"),
])
def test_malformed_config_file_exits_config_error(command, text, message, tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_bytes(text)
    assert run([command, "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"cannot parse config file {path}" in err and message in err


@pytest.mark.parametrize("command", ["summarize", "evaluate"])
@pytest.mark.parametrize("out", ["taken", "taken/sub"])
def test_out_under_an_existing_file_exits_config_error_before_loading(command, out, tmp_path, capsys):
    (tmp_path / "taken").write_text("kept\n")
    # the dataset does not exist, so loading it would be a data error
    code = run([command, "--usps-train", tmp_path / "absent.txt", "--method", "kmeans", "--m", "1",
                "--out", tmp_path / out])
    assert code == EXIT_CONFIG
    assert "is, or lies under, an existing non-directory" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "kept\n"


@pytest.mark.parametrize("command", ["summarize", "evaluate"])
def test_an_out_the_os_cannot_check_exits_config_error_before_loading(command, tmp_path, capsys):
    out = tmp_path / ("a" * 300) / "x"
    # the dataset does not exist, so loading it would be a data error
    code = run([command, "--usps-train", tmp_path / "absent.txt", "--method", "kmeans", "--m", "1",
                "--out", out])
    assert code == EXIT_CONFIG
    assert f"cannot use out {str(out)!r}: File name too long" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["summarize", "evaluate"])
def test_an_out_that_cannot_be_created_exits_config_error(command, toy_corpus, tmp_path, capsys, monkeypatch):
    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "mkdir", full)
    corpus, vectors = toy_corpus
    out = tmp_path / "out"
    splits = ["--splits", "1"] if command == "evaluate" else []
    code = run([command, "--corpus", corpus, "--vectors", vectors, "--method", "kmeans", "--m", "1", *splits,
                "--out", out])
    assert code == EXIT_CONFIG
    assert f"cannot create out {str(out)!r}: No space left on device" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, first", [("summarize", "summary_early.txt"), ("evaluate", "results.csv")])
def test_an_out_that_cannot_be_written_exits_config_error(command, first, toy_corpus, tmp_path, capsys,
                                                           monkeypatch):
    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", full)
    corpus, vectors = toy_corpus
    out = tmp_path / "out"
    splits = ["--splits", "1"] if command == "evaluate" else []
    code = run([command, "--corpus", corpus, "--vectors", vectors, "--method", "kmeans", "--m", "1", *splits,
                "--out", out])
    assert code == EXIT_CONFIG
    assert f"cannot write {first} in out {str(out)!r}: No space left on device" in capsys.readouterr().err
    assert os.listdir(out) == []


def usps_pair(tmp_path):
    """A 12-row train file and a 6-row test file of digits 0 and 1."""
    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    write_usps(train, [i % 2 for i in range(12)], seed=1)
    write_usps(test, [i % 2 for i in range(6)], seed=2)
    return train, test


def test_evaluate_rejects_train_fraction_with_a_usps_test_file(tmp_path, capsys):
    # the canonical split fixes every split's per-group train sizes, so the flag would do nothing
    train, test = usps_pair(tmp_path)
    out = tmp_path / "out"
    code = run(["evaluate", "--usps-train", train, "--usps-test", test, "--train-fraction", "0.3",
                "--splits", "2", "--method", "kmeans", "--m", "1", "--out", out])
    assert code == EXIT_CONFIG
    assert "--train-fraction does not apply with usps_test" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_ignores_a_train_fraction_key_with_a_usps_test_file(tmp_path):
    train, test = usps_pair(tmp_path)
    config = tmp_path / "run.ini"
    config.write_text("[run]\ntrain_fraction = 0.3\n")
    out = tmp_path / "out"
    code = run(["evaluate", "--config", config, "--usps-train", train, "--usps-test", test, "--splits", "2",
                "--method", "kmeans", "--m", "1", "--out", out])
    assert code == EXIT_OK
    facts = json.loads((out / "run.json").read_text())
    assert [s["train_sizes"] for s in facts["splits"]] == [[6, 6], [6, 6]]


def unreadable_input(kind, content: bytes, tmp_path):
    """A path that cannot be read as UTF-8 text: missing, a directory, bytes
    that are not UTF-8, or a .gz whose header is no gzip header, whose
    deflate stream is damaged, or that is cut in half."""
    if kind == "missing":
        return tmp_path / "absent.txt"
    if kind == "directory":
        (tmp_path / "adir").mkdir()
        return tmp_path / "adir"
    packed = gzip.compress(content)
    damaged = packed[:12] + bytes(b ^ 0xFF for b in packed[12:30]) + packed[30:]  # header kept
    data = {"not-utf8": b"\xff\xfe" + content, "corrupt-gz": b"plain text, not gzip\n",
            "damaged-gz": damaged, "truncated-gz": packed[: len(packed) // 2]}[kind]
    path = tmp_path / ("bad.txt" if kind == "not-utf8" else "bad.txt.gz")
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("command", ["summarize", "evaluate"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8", "corrupt-gz", "damaged-gz", "truncated-gz"])
@pytest.mark.parametrize("flag", ["corpus", "vectors", "usps-train", "usps-test"])
def test_unreadable_input_file_exits_data_error_naming_it(command, kind, flag, toy_corpus, tmp_path, capsys):
    corpus, vectors = toy_corpus
    usps = tmp_path / "usps.txt"
    write_usps(usps, [0, 1] * 4)
    good = {"corpus": corpus, "vectors": vectors, "usps-train": usps, "usps-test": usps}
    dataset = ["corpus", "vectors"] if flag in ("corpus", "vectors") else ["usps-train", "usps-test"]
    bad = unreadable_input(kind, good[flag].read_bytes(), tmp_path)
    args = [a for name in dataset for a in (f"--{name}", bad if name == flag else good[name])]
    code = run([command, *args, "--method", "kmeans", "--m", "1", "--out", tmp_path / "out"])
    assert code == EXIT_DATA
    assert f"data error: cannot read {bad}: " in capsys.readouterr().err


class TestEvaluate:
    def test_outputs_and_shape(self, toy_corpus, tmp_path):
        corpus, vectors = toy_corpus
        out = tmp_path / "out"
        code = run(["evaluate", "--corpus", corpus, "--vectors", vectors,
                    "--method", "kmeans,full", "--m", "2", "--splits", "2",
                    "--seed", "5", "--classifier", "1nn", "--out", out])
        assert code == EXIT_OK
        csv = (out / "results.csv").read_text().strip().splitlines()
        assert csv[0] == "method,M,classifier,split,gamma,lambda,C,balanced_accuracy"
        assert len(csv) == 1 + 2 * 3  # 2 methods x (2 splits + aggregate)
        assert "classifier: 1nn" in (out / "summary.txt").read_text()

    def test_ten_splits_yield_ten_rows_plus_aggregate(self, toy_corpus, tmp_path):
        corpus, vectors = toy_corpus
        out = tmp_path / "out"
        code = run(["evaluate", "--corpus", corpus, "--vectors", vectors,
                    "--method", "kmeans", "--m", "2", "--splits", "10",
                    "--seed", "0", "--out", out])
        assert code == EXIT_OK
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 10 + 1
        assert lines[-1].split(",")[3] == "mean"

    @pytest.mark.parametrize("method", ["kmeans", "mmd-diff-greedy", "mmd-diff-grad"])
    def test_byte_identical_across_runs_and_worker_counts(self, method, toy_corpus, tmp_path):
        corpus, vectors = toy_corpus
        blobs = []
        for name, workers in (("e1", "1"), ("e2", "2")):
            out = tmp_path / name
            code = run(["evaluate", "--corpus", corpus, "--vectors", vectors,
                        "--method", method, "--m", "2", "--splits", "2",
                        "--seed", "7", "--workers", workers, "--out", out])
            assert code == EXIT_OK
            names = ("results.csv", "summary.txt", "run.json")
            blobs.append([(out / name).read_bytes() for name in names])
        assert blobs[0] == blobs[1]

    def test_run_json_records_the_data_and_splits_used(self, toy_corpus, tmp_path):
        corpus, vectors = toy_corpus
        with corpus.open("a") as fh:
            # no token of this document has a vector, so it is dropped
            fh.write(json.dumps({"id": "z0", "group": "late", "title": "zzz",
                                 "sentences": ["qqq"]}) + "\n")
        out = tmp_path / "out"
        code = run(["evaluate", "--corpus", corpus, "--vectors", vectors, "--method", "kmeans",
                    "--m", "2", "--splits", "3", "--seed", "4", "--pca-target", "0.9", "--out", out])
        assert code == EXIT_OK
        facts = json.loads((out / "run.json").read_text())
        data = facts["data"]
        assert data == {"points": 16, "dim": 2, "groups": ["early", "late"], "sizes": [8, 8],
                        "dropped_documents": 1}
        loaded, _, _ = cli._load_dataset(RunConfig(corpus=str(corpus), vectors=str(vectors)))
        splits = make_splits(loaded, 0.8, 3, 4)
        assert [s["seed"] for s in facts["splits"]] == [4, 5, 6]
        for split, recorded in zip(splits, facts["splits"]):
            sides = zip(recorded["train_sizes"], recorded["test_sizes"])
            assert [a + b for a, b in sides] == data["sizes"]
            assert recorded["train_sizes"] == split.train.group_sizes().tolist()
            assert recorded["dim"] == fit_pca(split.train, 0.9).n_components

    def test_missing_dataset_exits_config_error(self, tmp_path, capsys):
        code = run(["evaluate", "--method", "kmeans", "--out", tmp_path / "x"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no dataset" in err

    def test_unknown_method_exits_config_error(self, toy_corpus, tmp_path):
        corpus, vectors = toy_corpus
        code = run(["evaluate", "--corpus", corpus, "--vectors", vectors,
                    "--method", "magic", "--out", tmp_path / "x"])
        assert code == EXIT_CONFIG


# Run in a subprocess: argv[1] is a directory for the worker reports, the
# rest is the CLI command. Every cell's gradient build records the thread
# count of each OpenBLAS pool bundled with numpy and scipy, read through the
# library's own getter, and the process prints its own count after main.
BLAS_PROBE = """
import ctypes, importlib.util, json, os, sys
from pathlib import Path
from protosel import cli, gradopt

GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
           "openblas_get_num_threads")

def pools():
    found = {}
    for package in ("numpy", "scipy"):
        libs = Path(importlib.util.find_spec(package).origin).parents[1] / f"{package}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            found[path.name] = next(getattr(lib, name) for name in GETTERS if hasattr(lib, name))()
    return found

optimize_meta = gradopt.optimize_meta

def probed(*args):
    Path(sys.argv[1], f"{os.getpid()}.json").write_text(json.dumps(pools()))
    return optimize_meta(*args)

gradopt.optimize_meta = probed
code = cli.main(sys.argv[2:])
print(json.dumps({"code": code, "pid": os.getpid(), "pools": pools()}))
"""


def test_the_cli_pins_every_blas_pool_to_one_thread_in_the_parent_and_each_worker(toy_corpus, tmp_path):
    corpus, vectors = toy_corpus
    reports = tmp_path / "reports"
    reports.mkdir()
    src = str(Path(cli.__file__).resolve().parents[1])
    unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    command = ["evaluate", "--corpus", corpus, "--vectors", vectors, "--method", "mmd-diff-grad", "--m", "2",
               "--splits", "2", "--workers", "2", "--out", tmp_path / "out"]
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE, reports, *command], capture_output=True, text=True,
                          env=env, check=True)
    parent = json.loads(proc.stdout)
    assert parent["code"] == EXIT_OK
    workers = {int(p.stem): json.loads(p.read_text()) for p in reports.glob("*.json")}
    assert workers and parent["pid"] not in workers
    assert parent["pools"] and all(pools == parent["pools"] for pools in workers.values())
    assert set(parent["pools"].values()) == {1}


def test_pinning_logs_one_warning_when_no_pool_is_found(monkeypatch, caplog):
    monkeypatch.setattr(cli, "BLAS_SETTERS", ())
    cli.pin_blas_threads()
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "no OpenBLAS pool found" in caplog.text


def stub_blas(monkeypatch, exports):
    """Replace ctypes.CDLL by a stub whose library at a path exports the
    setter names exports(path) gives; returns the (path, threads) calls."""
    calls = []

    def load(path):
        return SimpleNamespace(**{name: lambda n, path=path: calls.append((path, n)) for name in exports(path)})

    monkeypatch.setattr(cli.ctypes, "CDLL", load)
    return calls


def test_pinning_names_each_library_that_exports_no_setter(monkeypatch, caplog):
    # numpy's pool would stay multithreaded while scipy's is pinned
    calls = stub_blas(monkeypatch, lambda path: [] if "numpy.libs" in path else ["scipy_openblas_set_num_threads"])
    cli.pin_blas_threads()
    assert calls and all("scipy.libs" in path and n == 1 for path, n in calls)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    numpy_libs = Path(importlib.util.find_spec("numpy").origin).parents[1] / "numpy.libs"
    names = [f"numpy.libs/{path.name}" for path in numpy_libs.glob("*openblas*")]
    assert names and all(name in caplog.text for name in names)
    assert "scipy.libs" not in caplog.text


def test_pinning_takes_the_ilp64_setter_without_the_scipy_prefix(monkeypatch, caplog):
    calls = stub_blas(monkeypatch, lambda path: ["openblas_set_num_threads64_"])
    cli.pin_blas_threads()
    assert {path.split("/")[-2] for path, _ in calls} == {"numpy.libs", "scipy.libs"}
    assert {n for _, n in calls} == {1}
    assert caplog.records == []


class TestNonFiniteData:
    def test_from_rows_with_nan_exits_data_error(self, tmp_path, monkeypatch, capsys):
        pts = np.random.Generator(np.random.PCG64(0)).normal(size=(20, 3))
        pts[3, 1] = np.nan
        labels = ["a"] * 10 + ["b"] * 10
        monkeypatch.setattr("protosel.cli.load_usps", lambda path: from_rows(pts, labels))
        code = run(["summarize", "--usps-train", "unused", "--method", "mmd-diff-greedy",
                    "--m", "2", "--out", tmp_path / "x"])
        assert code == EXIT_DATA
        assert "row 3" in capsys.readouterr().err

    def test_usps_nan_field_exits_data_error(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(1))
        lines = []
        for i in range(12):
            vals = [f"{v:.4f}" for v in rng.normal(loc=(i % 2) * 3.0, size=256)]
            if i == 5:
                vals[17] = "nan"
            lines.append(f"{i % 2} " + " ".join(vals))
        usps = tmp_path / "usps.txt"
        usps.write_text("\n".join(lines) + "\n")
        code = run(["summarize", "--usps-train", usps, "--method", "kmedoids",
                    "--m", "2", "--out", tmp_path / "x"])
        assert code == EXIT_DATA

    def test_used_inf_word_vector_exits_data_error(self, toy_corpus, tmp_path):
        corpus, vectors = toy_corpus
        text = vectors.read_text().replace("alpha 1.0 0.0", "alpha inf 0.0")
        assert "inf" in text
        vectors.write_text(text)
        code = run(["summarize", "--corpus", corpus, "--vectors", vectors,
                    "--method", "kmeans", "--m", "2", "--out", tmp_path / "x"])
        assert code == EXIT_DATA


def test_evaluate_mmd_critic_svm_scores_a_one_class_summary(tmp_path):
    # at M = 1 the critic's prototype and criticism can share a group; the
    # SVM then predicts that group, as 1-NN does
    usps = tmp_path / "u.txt"
    write_usps(usps, [0] * 20 + [1] * 20, seed=0)
    code = run(["evaluate", "--usps-train", usps, "--method", "mmd-critic", "--classifier", "svm",
                "--m", "1", "--splits", "2", "--out", tmp_path / "out"])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "results.csv").exists()


class TestSubsample:
    def test_fast_flag_sets_subsample(self, toy_corpus, tmp_path):
        from protosel.cli import _merge_cli, RunConfig
        import argparse

        args = argparse.Namespace(fast=True, m=None, method=None, classifier=None)
        merged = _merge_cli(RunConfig(), args)
        assert merged.subsample_train == 2000

    @pytest.mark.parametrize("command", ["evaluate", "summarize"])
    def test_fast_with_subsample_train_exits_config_error(self, command, toy_corpus, tmp_path, capsys):
        # --fast would otherwise replace the explicit size with 2000
        corpus, vectors = toy_corpus
        out = tmp_path / "out"
        code = run([command, "--corpus", corpus, "--vectors", vectors, "--method", "kmeans", "--m", "2",
                    "--fast", "--subsample-train", "500", "--out", out])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--fast" in err and "--subsample-train" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, ini", [
        pytest.param(["--subsample-train", "5"], "", id="flag"),
        pytest.param(["--fast"], "", id="fast"),
        pytest.param([], "[run]\nsubsample_train = 5\n", id="config-key"),
    ])
    def test_summarize_rejects_subsample_train(self, flags, ini, toy_corpus, tmp_path, capsys):
        corpus, vectors = toy_corpus
        config = tmp_path / "run.ini"
        config.write_text(ini)
        out = tmp_path / "out"
        code = run(["summarize", "--config", config, "--corpus", corpus, "--vectors", vectors,
                    "--method", "kmeans", "--m", "2", *flags, "--out", out])
        assert code == EXIT_CONFIG
        assert "summarize does not take subsample_train" in capsys.readouterr().err
        assert not out.exists()

    def test_subsample_split_is_stratified_and_deterministic(self):
        from protosel.cli import _subsample_split
        from protosel.corpus import from_rows, make_splits

        rng = np.random.Generator(np.random.PCG64(0))
        pts = np.vstack([rng.normal(size=(60, 2)), rng.normal(size=(40, 2)) + 5])
        data = from_rows(pts, ["a"] * 60 + ["b"] * 40)
        split = make_splits(data, 0.8, 1, base_seed=1)[0]
        a = _subsample_split(split, 40)
        b = _subsample_split(split, 40)
        assert a.train.n_points == 40
        sizes = a.train.group_sizes()
        assert sizes.tolist() == [24, 16]  # proportional to 48/32
        assert np.array_equal(a.train.points, b.train.points)
        assert np.array_equal(a.test.points, split.test.points)

    def test_subsample_noop_when_small(self):
        from protosel.cli import _subsample_split
        from protosel.corpus import from_rows, make_splits

        rng = np.random.Generator(np.random.PCG64(1))
        data = from_rows(rng.normal(size=(20, 2)), ["a"] * 10 + ["b"] * 10)
        split = make_splits(data, 0.8, 1, base_seed=0)[0]
        assert _subsample_split(split, 2000) is split

    def test_subsample_rounds_down_to_n_with_a_row_per_group(self):
        # proportional floors with one row per group give (3, 1, 1, 1), two
        # rows over n; the largest group gives them back
        labels = [name for name, size in zip("abcd", (100, 2, 2, 2)) for _ in range(size)]
        train = from_rows(np.arange(len(labels), dtype=float)[:, None], labels)
        split = SplitPair(train=train, test=train, seed=0)
        assert cli._subsample_split(split, 4).train.group_sizes().tolist() == [1, 1, 1, 1]

    def evaluate_ten_digits(self, tmp_path, n):
        usps = tmp_path / "u.txt"
        write_usps(usps, [i % 10 for i in range(40)], seed=2)
        return run(["evaluate", "--usps-train", usps, "--method", "kmeans", "--m", "1",
                    "--splits", "1", "--subsample-train", n, "--out", tmp_path / "out"])

    @pytest.mark.parametrize("n", [5, 0])
    def test_fewer_rows_than_groups_exits_config_error(self, tmp_path, capsys, n):
        # dropping whole groups would renumber the train classes against the test side
        assert self.evaluate_ten_digits(tmp_path, n) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "subsample_train" in err and "10 train groups" in err

    def test_group_count_keeps_one_row_per_group(self, tmp_path, monkeypatch):
        seen = []
        subsample = cli._subsample_split

        def recording(split, n):
            seen.append(subsample(split, n))
            return seen[-1]

        monkeypatch.setattr(cli, "_subsample_split", recording)
        assert self.evaluate_ten_digits(tmp_path, 10) == EXIT_OK
        assert seen[0].train.group_sizes().tolist() == [1] * 10
        assert seen[0].train.group_names == seen[0].test.group_names
        facts = json.loads((tmp_path / "out" / "run.json").read_text())
        assert facts["splits"][0]["train_sizes"] == [1] * 10


def test_prepare_is_not_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["prepare", "--usps-train", "unused"])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'prepare'" in capsys.readouterr().err


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        config = RunConfig(
            corpus="c.jsonl", vectors="v.txt", method=("kmeans", "full"), m=(2, 4),
            splits=3, seed=9, workers=2, classifier=("1nn", "svm"),
            gammas=(0.1, 0.2), out="results",
        )
        text = dump_config(config)
        path = tmp_path / "run.ini"
        path.write_text(text)
        loaded = load_config(path)
        assert loaded == config
        assert dump_config(loaded) == text

    def test_cli_overrides_config_file(self, toy_corpus, tmp_path):
        corpus, vectors = toy_corpus
        path = tmp_path / "run.ini"
        path.write_text(
            f"[data]\ncorpus = {corpus}\nvectors = {vectors}\n"
            "[run]\nmethod = kmeans\nm = 2\nsplits = 2\nseed = 1\n"
            f"[output]\nout = {tmp_path / 'from_config'}\n"
        )
        out = tmp_path / "cli_out"
        code = run(["summarize", "--config", path, "--method", "kmedoids", "--out", out])
        assert code == EXIT_OK
        assert (out / "summary_early.txt").exists()
        assert not (tmp_path / "from_config").exists()

    def test_unset_gamma_grid_is_chosen_per_split(self, tmp_path, monkeypatch):
        # with only [grids] cs set, every split still searches the
        # median-heuristic gamma grid of its own train set
        pts = np.random.Generator(np.random.PCG64(3)).normal(size=(40, 3))
        labels = ["a"] * 20 + ["b"] * 20
        data = from_rows(pts, labels)
        monkeypatch.setattr("protosel.cli.load_usps", lambda path: data)
        out = tmp_path / "out"
        path = tmp_path / "run.ini"
        path.write_text(
            "[data]\nusps_train = unused\n"
            "[run]\nmethod = kmeans\nm = 2\nsplits = 2\nseed = 4\nclassifier = svm\n"
            f"[grids]\ncs = 1\n[output]\nout = {out}\n"
        )
        assert run(["evaluate", "--config", path]) == EXIT_OK
        rows = (out / "results.csv").read_text().strip().splitlines()[1:]
        split1 = next(r.split(",") for r in rows if r.split(",")[3] == "1")
        own_grid = default_grids(make_splits(data, 0.8, 2, 4)[1].train).gammas
        assert any(float(split1[4]) == pytest.approx(g, rel=1e-9) for g in own_grid)

    def test_percent_sign_is_read_literally(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[output]\nout = res%1\n")
        assert load_config(path).out == "res%1"
        config = RunConfig(out="a%b")
        path.write_text(dump_config(config))
        assert load_config(path) == config

    def test_summarize_into_a_percent_directory(self, toy_corpus, tmp_path):
        corpus, vectors = toy_corpus
        out = tmp_path / "res%1"
        path = tmp_path / "run.ini"
        path.write_text(f"[data]\ncorpus = {corpus}\nvectors = {vectors}\n"
                        f"[run]\nmethod = kmeans\nm = 2\n[output]\nout = {out}\n")
        assert run(["summarize", "--config", path]) == EXIT_OK
        assert (out / "summary_early.txt").exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nbogus = 1\n")
        code = run(["summarize", "--config", path])
        assert code == EXIT_CONFIG


# every field set away from its default
ALL_FIELDS = RunConfig(
    corpus="news.jsonl", vectors="glove.txt", usps_train="usps.tr", usps_test="usps.te",
    pca_target=0.95, method=("mmd-diff-grad", "kmeans"), m=(2, 8), splits=3, seed=7, workers=2,
    classifier=("1nn", "svm"), grad_init="kmeans", train_fraction=0.75, first_sentences=2,
    gamma=0.125, lam=1.5, subsample_train=500, gammas=(0.1, 0.25), lambdas=(0.0, 2.0),
    cs=(1.0, 10.0), out="results",
)
ALL_FIELDS_INI = (
    "[data]\ncorpus = news.jsonl\nvectors = glove.txt\nusps_train = usps.tr\n"
    "usps_test = usps.te\npca_target = 0.95\n\n"
    "[run]\nmethod = mmd-diff-grad, kmeans\nm = 2, 8\nsplits = 3\nseed = 7\nworkers = 2\n"
    "classifier = 1nn, svm\ngrad_init = kmeans\ntrain_fraction = 0.75\nfirst_sentences = 2\n"
    "gamma = 0.125\nlam = 1.5\nsubsample_train = 500\n\n"
    "[grids]\ngammas = 0.1, 0.25\nlambdas = 0.0, 2.0\ncs = 1.0, 10.0\n\n"
    "[output]\nout = results\n\n"
)
DEFAULT_INI = (
    "[data]\n\n"
    "[run]\nmethod = mmd-diff-grad\nm = 4\nsplits = 10\nseed = 0\nworkers = 1\n"
    "classifier = 1nn\ngrad_init = greedy\ntrain_fraction = 0.8\nfirst_sentences = 3\n\n"
    "[grids]\n\n[output]\nout = protosel-out\n\n"
)
FILE_ONLY = {"first_sentences", "gammas", "lambdas", "cs"}


class TestConfigKeys:
    def test_dump_config_text(self):
        assert dump_config(ALL_FIELDS) == ALL_FIELDS_INI
        assert dump_config(RunConfig()) == DEFAULT_INI

    @staticmethod
    def config_seen_by_main(monkeypatch, argv):
        seen = []
        monkeypatch.setattr(cli, "cmd_evaluate", lambda config: seen.append(config) or EXIT_OK)
        assert main(["evaluate", *argv]) == EXIT_OK
        return seen[0]

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_flag_and_file_parse_alike(self, name, tmp_path, monkeypatch):
        ini = configparser.ConfigParser()
        ini.optionxform = str
        ini.read_string(ALL_FIELDS_INI)
        section = next(s for s in ini.sections() if name in ini[s])
        raw = ini[section][name]
        path = tmp_path / "one.ini"
        path.write_text(f"[{section}]\n{name} = {raw}\n")
        from_file = self.config_seen_by_main(monkeypatch, ["--config", str(path)])
        assert from_file == RunConfig(**{name: getattr(ALL_FIELDS, name)})
        flag = "--" + name.replace("_", "-")
        if name in FILE_ONLY:
            with pytest.raises(SystemExit) as exc:
                main(["evaluate", flag, raw])
            assert exc.value.code == EXIT_CONFIG
        else:
            assert self.config_seen_by_main(monkeypatch, [flag, raw]) == from_file

    @pytest.mark.parametrize("value", ["2,x", "abc"])
    def test_bad_flag_value_exits_config_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["summarize", "--m", value])
        assert exc.value.code == EXIT_CONFIG
        assert "invalid int list value" in capsys.readouterr().err


class TestSelftest:
    def test_healthy_build_passes(self, capsys):
        assert cmd_selftest() == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 6

    def test_induced_gradient_bug_fails(self, monkeypatch, capsys):
        correct = gradopt._MetaObjective.value_grad

        def broken(self, A):
            value, grad = correct(self, A)
            return value, 1.5 * grad

        monkeypatch.setattr(gradopt._MetaObjective, "value_grad", broken)
        code = cmd_selftest()
        assert code != EXIT_OK
        assert "[FAIL] gradient-vs-finite-differences" in capsys.readouterr().out
