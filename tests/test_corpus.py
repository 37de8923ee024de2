import errno
import gzip
import hashlib
import io
import json
import logging
import os
import shutil
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from conftest import write_usps

from protosel import corpus, kernel
from protosel.cli import EXIT_DATA, main
from protosel.corpus import (
    Document,
    GroupedDataset,
    apply_pca,
    document_tokens,
    embed_documents,
    fit_pca,
    from_rows,
    load_corpus,
    load_usps,
    load_usps_pair,
    load_word_vectors,
    make_splits,
    tokenize,
)
from protosel.errors import DataError, ParseError, ValidationError


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def grouped_in_order(points, labels, order, row_ids=None):
    """A dataset of rows with string labels whose groups follow order, which
    covers every label."""
    names = [name for name in order if name in set(labels)]
    return GroupedDataset(points, [names.index(lab) for lab in labels], tuple(names), row_ids)


def doc_record(i, group="g", title="hello world", sentences=("one two", "three")):
    return {"id": f"d{i}", "group": group, "title": title, "sentences": list(sentences)}


class TestLoadCorpus:
    def test_two_lines_in_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [doc_record(1), doc_record(2, group="h")])
        docs = load_corpus(path)
        assert [d.id for d in docs] == ["d1", "d2"]
        assert docs[1].group == "h"

    def test_blank_line_between_records_is_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(doc_record(1)) + "\n  \n" + json.dumps(doc_record(2)) + "\n")
        assert [d.id for d in load_corpus(path)] == ["d1", "d2"]

    def test_integer_id_reads_as_its_decimal_string(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{**doc_record(1), "id": 7}, {**doc_record(2), "id": "7"}])
        with pytest.raises(ValidationError, match="duplicate document id '7'"):
            load_corpus(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_duplicate_id_names_offender(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [doc_record(1), {**doc_record(2), "id": "d1"}])
        with pytest.raises(ValidationError, match="d1"):
            load_corpus(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "group": "g", "title": "t", "sentences": []}\n{oops\n')
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_missing_key_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "group": "g", "title": "t"}\n')
        with pytest.raises(ParseError, match="line 1"):
            load_corpus(path)

    @pytest.mark.parametrize("key", ["id", "group"])
    def test_a_tab_or_line_break_in_id_or_group_reports_line(self, tmp_path, key):
        # either would split the document's line of a summary file
        breaks = [c for c in map(chr, range(0x3000)) if len(f"a{c}b".splitlines()) > 1] + ["\t"]
        assert len(breaks) == 11
        path = tmp_path / "c.jsonl"
        for brk in breaks:
            write_jsonl(path, [doc_record(1), {**doc_record(2), key: f"x{brk}y"}])
            with pytest.raises(ParseError, match=f"line 2: '{key}' must not hold a tab or a line break"):
                load_corpus(path)

    def test_other_whitespace_in_id_or_group_is_kept(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{**doc_record(1), "id": "a b", "group": "g\u00a0h\x1f"}])
        [doc] = load_corpus(path)
        assert (doc.id, doc.group) == ("a b", "g\u00a0h\x1f")


def test_document_rejects_empty_group():
    with pytest.raises(ValidationError):
        Document("d1", "", "title", ())


@pytest.mark.parametrize("group_of", [[0, 2, 1], [0, -1, 1]])
def test_grouped_dataset_rejects_group_of_outside_group_names(group_of):
    with pytest.raises(ValidationError, match="index the 2 group names"):
        GroupedDataset(np.zeros((3, 2)), np.array(group_of), ("a", "b"))


def test_grouped_dataset_leaves_the_callers_arrays_writeable():
    X = np.zeros((3, 2))
    data = from_rows(X, ["a", "b", "a"])
    g = np.array([0, 1, 0])
    direct = GroupedDataset(X, g, ("a", "b"))
    assert X.flags.writeable and g.flags.writeable
    X[0, 0] = 1.0
    g[0] = 1
    assert data.points[0, 0] == 0.0 and direct.group_of[0] == 0
    for dataset in (data, direct):
        assert not dataset.points.flags.writeable
        assert not dataset.group_of.flags.writeable


def test_grouped_dataset_derives_group_index_from_group_of():
    data = GroupedDataset(np.zeros((5, 2)), np.array([1, 0, 1, 1, 0]), ("a", "b"))
    assert [rows.tolist() for rows in data.group_index] == [[1, 4], [0, 2, 3]]
    assert not data.group_index[0].flags.writeable
    with pytest.raises(ValidationError, match="group 'b' is empty"):
        GroupedDataset(np.zeros((2, 2)), np.array([0, 0]), ("a", "b"))


class TestLoadWordVectors:
    def test_basic(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 0\nb 0 1\n")
        vecs = load_word_vectors(path, {"a", "b"})
        assert isinstance(vecs, dict)
        assert len(vecs) == 2
        assert np.array_equal(vecs["a"], [1.0, 0.0])

    def test_keeps_exactly_the_vocabulary_tokens_in_the_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 0\nb 0 1\nc 2 2\n\nd 3 3\n")
        vecs = load_word_vectors(path, {"b", "d", "absent"})
        assert sorted(vecs) == ["b", "d"]
        assert np.array_equal(vecs["d"], [3.0, 3.0])

    def test_wrong_arity_reports_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 0\nb 0 1\nc 1\n")
        with pytest.raises(ParseError, match="line 3"):
            load_word_vectors(path, {"a", "b", "c"})

    @pytest.mark.parametrize("bad_line, message", [
        ("unused 1", "line 3: expected 2 components, got 1"),
        ("unused 1 x", "line 3: non-numeric component"),
        ("unused", "line 3: expected 2 components, got 0"),
        # Python's float reads these as 10.0 and 12.0; numpy's parser does not
        ("unused 1 1_0", "line 3: non-numeric component"),
        ("unused 1 \u0661\u0662", "line 3: non-numeric component"),
    ])
    def test_lines_outside_the_vocabulary_are_checked(self, tmp_path, bad_line, message):
        path = tmp_path / "v.txt"
        path.write_text(f"a 1 0\nb 0 1\n{bad_line}\nc 2 2\n", encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            load_word_vectors(path, {"a"})

    def test_empty_file_is_a_data_error(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="empty word-vector file"):
            load_word_vectors(path, {"a"})

    def test_duplicate_token_last_wins(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 0\na 0 2\n")
        vecs = load_word_vectors(path, {"a"})
        assert np.array_equal(vecs["a"], [0.0, 2.0])

    def test_vocabulary_dict_embeds_like_the_full_table(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(4))
        words = [f"w{i}" for i in range(40)]

        def line(word):
            return word + " " + " ".join(str(v) for v in rng.standard_normal(3).tolist())

        lines = [line(w) for w in words] + [line(f"w{i}") for i in (2, 7, 2)]
        path = tmp_path / "v.txt"
        path.write_text("\n".join(lines) + "\n")
        docs = [
            Document(f"d{i}", f"g{i % 3}", " ".join(rng.choice(words[:25], 3)),
                     tuple(" ".join(rng.choice(words[:25] + ["oov", "OOV2"], 4)) for _ in range(5)))
            for i in range(30)
        ]
        vocab = {t for doc in docs for t in document_tokens(doc, 2)}
        used = load_word_vectors(path, vocab)
        full = load_word_vectors(path, set(words))
        assert len(used) < len(full)
        a = embed_documents(docs, used, first_k_sentences=2)
        b = embed_documents(docs, full, first_k_sentences=2)
        assert np.array_equal(a.points, b.points)
        assert a.row_ids == b.row_ids

    def test_bad_line_beyond_the_first_chunk_reports_its_file_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernel, "CHUNK_BYTES", 64)  # a chunk of about ten lines
        lines = [f"w{i} {i} 1" for i in range(40)]
        lines[33] = "w33 1 x"
        path = tmp_path / "v.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 34: non-numeric component"):
            load_word_vectors(path, {"w0"})

    def test_a_run_of_blank_lines_longer_than_a_chunk_is_skipped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernel, "CHUNK_BYTES", 64)
        path = tmp_path / "v.txt"
        path.write_text("a 1 0\n" + "\n" * 200 + "b 0 1\n" + " \n" * 200 + "c 2\n")
        with pytest.raises(ParseError, match="line 403: expected 2 components, got 1"):
            load_word_vectors(path, {"a"})
        path.write_text("a 1 0\n" + "\n" * 200 + "b 0 1\n")
        vecs = load_word_vectors(path, {"a", "b"})
        assert np.array_equal(vecs["b"], [0.0, 1.0])

    def test_a_chunk_of_token_only_lines_is_rejected(self, tmp_path, monkeypatch):
        # numpy's loadtxt reads such a chunk as no data (a UserWarning), not as an error
        monkeypatch.setattr(kernel, "CHUNK_BYTES", 64)
        path = tmp_path / "v.txt"
        path.write_text("a " + "1 " * 40 + "\n" + "".join(f"t{i}\n" for i in range(30)))
        with pytest.raises(ParseError, match="line 2: expected 40 components, got 0"):
            load_word_vectors(path, {"a"})

    def test_repr_written_vectors_load_as_python_float_reads_them(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernel, "CHUNK_BYTES", 4096)
        rng = np.random.Generator(np.random.PCG64(8))
        values = rng.standard_normal((500, 12)) * 10.0 ** rng.integers(-30, 30, size=(500, 12))
        lines = [f"w{i} " + " ".join(repr(v) for v in row.tolist()) for i, row in enumerate(values)]
        path = tmp_path / "v.txt"
        path.write_text("\n".join(lines) + "\n")
        vecs = load_word_vectors(path, {f"w{i}" for i in range(500)})
        for line in lines:
            token, *fields = line.split()
            assert vecs[token].tobytes() == np.array([float(v) for v in fields]).tobytes()

    def test_a_kept_vector_holds_no_chunk(self, tmp_path):
        # a 10,000 x 100 file is three chunks of about 4,600 lines, whose
        # values take 3.5 MiB each
        row = " ".join(["0.123456"] * 100)
        path = tmp_path / "v.txt"
        path.write_text("".join(f"w{i} {row}\n" for i in range(10_000)))
        tracemalloc.start()
        try:
            vecs = load_word_vectors(path, {"w9000"})
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert list(vecs) == ["w9000"] and vecs["w9000"].shape == (100,)
        assert held < 1 << 20


def count_parses(monkeypatch) -> list:
    """Patch np.loadtxt to count its calls; the list gains one entry a call."""
    calls, loadtxt = [], np.loadtxt

    def counted(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


def parsed(path, vocab) -> dict:
    """What a parse of path's bytes gives: a load of a fresh copy, whose
    directory is removed with its sidecar."""
    fresh = tempfile.mkdtemp()
    try:
        copy = os.path.join(fresh, os.path.basename(path))
        shutil.copyfile(path, copy)
        return load_word_vectors(copy, vocab)
    finally:
        shutil.rmtree(fresh)


def assert_same_vectors(got: dict, want: dict):
    assert list(got) == list(want)
    for token, vec in want.items():
        assert got[token].dtype == vec.dtype and got[token].tobytes() == vec.tobytes()
        assert got[token].flags.writeable


class TestWordVectorSidecar:
    """A load leaves <path>.protosel-cache keyed by the SHA-256 of the file's
    bytes and of the vocabulary, and a load with the same bytes and the same
    vocabulary reads it instead of parsing; anything else parses."""

    def write(self, path, seed=0, rows=40, width=3):
        rng = np.random.Generator(np.random.PCG64(seed))
        lines = [f"w{i % 31} " + " ".join(repr(v) for v in rng.standard_normal(width).tolist()) for i in range(rows)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def sidecar(self, path):
        return path.parent / (path.name + corpus.SIDECAR_SUFFIX)

    @pytest.mark.parametrize("vocab", [set(), {"w3"}, {f"w{i}" for i in range(0, 31, 2)} | {"absent"},
                                       {f"w{i}" for i in range(31)}])
    def test_a_second_load_reads_the_sidecar_without_parsing(self, tmp_path, monkeypatch, vocab):
        path = self.write(tmp_path / "v.txt")
        want = parsed(path, vocab)
        assert_same_vectors(load_word_vectors(path, vocab), want)
        assert sorted(os.listdir(tmp_path)) == ["v.txt", "v.txt.protosel-cache"]
        calls = count_parses(monkeypatch)
        assert_same_vectors(load_word_vectors(path, vocab), want)
        assert calls == []

    def test_the_sidecar_holds_the_kept_vectors_and_their_tokens(self, tmp_path):
        path = self.write(tmp_path / "v.txt", rows=200, width=5)
        assert sorted(load_word_vectors(path, {"w1", "w22", "absent"})) == ["w1", "w22"]
        size = corpus._SIDECAR_HEADER.size + 8 * 2 * 5 + len("w1\nw22\n")
        assert self.sidecar(path).stat().st_size == size

    def test_another_vocabulary_parses_again_and_replaces_the_sidecar(self, tmp_path, monkeypatch):
        path = self.write(tmp_path / "v.txt")
        every = {f"w{i}" for i in range(31)}
        want = parsed(path, every)
        load_word_vectors(path, {"w1"})
        one = self.sidecar(path).read_bytes()
        calls = count_parses(monkeypatch)
        assert_same_vectors(load_word_vectors(path, every), want)
        assert calls and self.sidecar(path).read_bytes() != one
        calls.clear()
        assert_same_vectors(load_word_vectors(path, every), want)
        assert calls == []

    @pytest.mark.parametrize("first, second", [({"a", "b"}, {"a\nb"}), ({"ab", "c"}, {"a", "bc"}),
                                               ({"a"}, {"a", ""})])
    def test_vocabularies_that_concatenate_alike_have_other_keys(self, tmp_path, monkeypatch, first, second):
        # joined by line ends, or not joined at all, the two would read alike
        path = tmp_path / "v.txt"
        path.write_text("a 1 0\nb 0 1\nab 2 2\nc 3 3\nbc 4 4\n")
        load_word_vectors(path, first)
        calls = count_parses(monkeypatch)
        assert list(load_word_vectors(path, second)) == [t for t in ("a", "b", "ab", "c", "bc") if t in second]
        assert calls

    def test_a_version_1_sidecar_is_a_miss_that_is_rewritten(self, tmp_path, monkeypatch):
        path = tmp_path / "v.txt"
        path.write_text("a 1 0\nb 0 1\n")
        load_word_vectors(path, {"a"})
        good = self.sidecar(path).read_bytes()
        # version 1 held every row of the file and was keyed by its bytes alone
        head = struct.pack("<16sI32sQQQ", b"protosel-vectors", 1, hashlib.sha256(path.read_bytes()).digest(), 2, 2, 4)
        self.sidecar(path).write_bytes(head + np.array([[1.0, 0.0], [0.0, 1.0]], "<f8").tobytes() + b"a\nb\n")
        calls = count_parses(monkeypatch)
        vecs = load_word_vectors(path, {"a"})
        assert calls and list(vecs) == ["a"] and np.array_equal(vecs["a"], [1.0, 0.0])
        assert self.sidecar(path).read_bytes() == good

    def test_a_rewrite_with_the_same_size_and_mtime_parses_again(self, tmp_path, monkeypatch):
        path = tmp_path / "v.txt"
        path.write_text("a 1 2\nb 3 4\n")
        load_word_vectors(path, {"a"})
        before = os.stat(path)
        path.write_text("a 5 6\nb 3 4\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_size == before.st_size
        calls = count_parses(monkeypatch)
        vecs = load_word_vectors(path, {"a"})
        assert calls and np.array_equal(vecs["a"], [5.0, 6.0])
        calls.clear()
        assert np.array_equal(load_word_vectors(path, {"a"})["a"], [5.0, 6.0]) and calls == []

    @pytest.mark.parametrize("text, error, message", [
        ("a 1 0\nunused 1 x\nb 0 1\n", ParseError, "line 2: non-numeric component"),
        ("a 1 0\nunused 1\n", ParseError, "line 2: expected 2 components, got 1"),
        ("\n \n", DataError, "empty word-vector file"),
    ])
    def test_a_failed_parse_leaves_no_file(self, tmp_path, monkeypatch, text, error, message):
        monkeypatch.setattr(kernel, "CHUNK_BYTES", 4)  # the good first line is written before the bad one
        path = tmp_path / "v.txt"
        path.write_text(text)
        for _ in range(2):
            with pytest.raises(error, match=message):
                load_word_vectors(path, {"a"})
            assert os.listdir(tmp_path) == ["v.txt"]

    @pytest.mark.parametrize("failure", ["read-only directory", "disk full at the rows", "disk full at fsync"])
    def test_an_unwritable_sidecar_gives_the_same_dict_and_no_file(self, tmp_path, monkeypatch, failure):
        monkeypatch.setattr(kernel, "CHUNK_BYTES", 64)  # rows keep coming after a failed write
        path = self.write(tmp_path / "v.txt")
        want = parsed(path, {"w2", "w5"})

        def full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        class FillingFile(io.FileIO):
            """A file on a disk with room for 100 bytes."""
            room = 100

            def write(self, data):
                self.room -= memoryview(data).nbytes
                return super().write(data) if self.room >= 0 else full()

        if failure == "read-only directory":
            # a privileged user may write the directory anyway
            def denied(*args, **kwargs):
                raise PermissionError(errno.EACCES, "Permission denied")

            monkeypatch.setattr(tempfile, "mkstemp", denied)
            tmp_path.chmod(0o555)
        elif failure == "disk full at the rows":
            monkeypatch.setattr(os, "fdopen", lambda fd, mode: FillingFile(fd, mode))
        else:
            monkeypatch.setattr(os, "fsync", full)
        try:
            assert_same_vectors(load_word_vectors(path, {"w2", "w5"}), want)
        finally:
            tmp_path.chmod(0o755)
        assert os.listdir(tmp_path) == ["v.txt"]

    def test_a_source_changed_during_the_parse_writes_no_sidecar(self, tmp_path, monkeypatch):
        path = self.write(tmp_path / "v.txt")
        numeric_rows = corpus._numeric_rows

        def touched(*args):
            yield from numeric_rows(*args)
            os.utime(path, ns=(0, 10**9))

        monkeypatch.setattr(corpus, "_numeric_rows", touched)
        assert_same_vectors(load_word_vectors(path, {"w4"}), parsed(path, {"w4"}))
        assert os.listdir(tmp_path) == ["v.txt"]

    @pytest.mark.parametrize("damage", ["empty", "truncated", "extended", "magic", "version", "foreign",
                                        "short token section"])
    def test_a_damaged_or_foreign_sidecar_is_a_miss_that_is_rewritten(self, tmp_path, monkeypatch, damage):
        path = self.write(tmp_path / "v.txt")
        load_word_vectors(path, {"w1"})
        good = self.sidecar(path).read_bytes()
        if damage == "foreign":
            other = self.write(tmp_path / "other.txt", seed=1)
            load_word_vectors(other, {"w1"})
            bad = self.sidecar(other).read_bytes()
        else:
            bad = {
                "empty": b"",
                "truncated": good[:-1],
                "extended": good + b"\0",
                "magic": b"X" + good[1:],
                "version": good[:16] + b"\3" + good[17:],  # a later format
                # the last token loses its line end, and the size still agrees with the header
                "short token section": good[:-1] + b"x",
            }[damage]
        self.sidecar(path).write_bytes(bad)
        calls = count_parses(monkeypatch)
        assert_same_vectors(load_word_vectors(path, {"w1"}), parsed(path, {"w1"}))
        assert calls
        assert self.sidecar(path).read_bytes() == good

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o444])
    def test_the_sidecar_takes_the_permissions_of_its_source(self, tmp_path, mode):
        path = self.write(tmp_path / "v.txt")
        path.chmod(mode)
        load_word_vectors(path, {"w1"})
        assert self.sidecar(path).stat().st_mode & 0o777 == mode

    def test_a_duplicate_token_keeps_its_last_vector_on_a_hit(self, tmp_path, monkeypatch):
        path = tmp_path / "v.txt"
        path.write_text("a 1 0\nb 2 2\na 0 2\n")
        load_word_vectors(path, {"a", "b"})
        calls = count_parses(monkeypatch)
        vecs = load_word_vectors(path, {"a", "b"})
        assert calls == [] and list(vecs) == ["a", "b"]
        assert np.array_equal(vecs["a"], [0.0, 2.0])

    def test_a_gz_source_is_keyed_by_its_compressed_bytes(self, tmp_path, monkeypatch):
        text = self.write(tmp_path / "v.txt").read_bytes()
        path = tmp_path / "v.txt.gz"
        path.write_bytes(gzip.compress(text, mtime=1))
        want = parsed(tmp_path / "v.txt", {"w3"})
        assert_same_vectors(load_word_vectors(path, {"w3"}), want)
        assert self.sidecar(path).exists()
        calls = count_parses(monkeypatch)
        assert_same_vectors(load_word_vectors(path, {"w3"}), want)
        assert calls == []
        path.write_bytes(gzip.compress(text, mtime=2))  # the same text in other bytes
        assert_same_vectors(load_word_vectors(path, {"w3"}), want)
        assert calls

    @pytest.mark.parametrize("chunk", [64, kernel.CHUNK_BYTES])
    def test_a_parse_in_small_chunks_writes_a_sidecar_that_reads_back(self, tmp_path, monkeypatch, chunk):
        # a 64-byte chunk holds one or two 3-d lines, so 200 lines parse in
        # at least 100 chunks
        path = self.write(tmp_path / "v.txt", rows=200)
        vocab = {f"w{i}" for i in range(0, 31, 3)}
        want = parsed(path, vocab)
        monkeypatch.setattr(kernel, "CHUNK_BYTES", chunk)
        calls = count_parses(monkeypatch)
        assert_same_vectors(load_word_vectors(path, vocab), want)
        assert len(calls) >= 100 if chunk == 64 else len(calls) == 1
        calls.clear()
        assert_same_vectors(load_word_vectors(path, vocab), want)
        assert calls == []

    def test_a_pipe_is_read_once_and_gets_no_sidecar(self):
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"a 1 0\nb 0 1\n")
            os.close(write_end)
            vecs = load_word_vectors(f"/dev/fd/{read_end}", {"a", "b"})
        finally:
            os.close(read_end)
        assert np.array_equal(vecs["b"], [0.0, 1.0])


class TestEmbedDocuments:
    def vecs(self):
        return {"alpha": np.array([1.0, 0.0]), "beta": np.array([0.0, 1.0])}

    def test_single_token_title(self):
        docs = [Document("d1", "g", "alpha", ())]
        data = embed_documents(docs, self.vecs())
        assert np.allclose(data.points, [[1.0, 0.0]])
        assert data.row_ids == ("d1",)

    def test_two_token_mean(self):
        docs = [Document("d1", "g", "alpha beta", ())]
        data = embed_documents(docs, self.vecs())
        assert np.allclose(data.points, [[0.5, 0.5]])

    def test_out_of_vocabulary_dropped_with_warning(self, caplog):
        docs = [Document("d1", "g", "alpha", ()), Document("d2", "g", "unknown", ())]
        with caplog.at_level(logging.WARNING):
            data = embed_documents(docs, self.vecs())
        assert data.n_points == 1
        assert "dropped 1" in caplog.text

    def test_all_dropped_errors(self):
        docs = [Document("d1", "g", "unknown", ())]
        with pytest.raises(DataError):
            embed_documents(docs, self.vecs())

    def test_first_k_sentences_window(self):
        docs = [Document("d1", "g", "", ("alpha", "beta", "alpha", "beta"))]
        data = embed_documents(docs, self.vecs(), first_k_sentences=2)
        assert np.allclose(data.points, [[0.5, 0.5]])

    def test_document_tokens_read_title_then_first_k_sentences(self):
        doc = Document("d1", "g", "The Title", ("One two", "three", "four"))
        assert document_tokens(doc, 2) == ["the", "title", "one", "two", "three"]
        assert document_tokens(doc, 0) == ["the", "title"]
        assert document_tokens(doc, 9) == ["the", "title", "one", "two", "three", "four"]

    def test_tokenizer_lowercases_and_splits_nonalnum(self):
        assert tokenize("Alpha-BETA, gamma42!") == ["alpha", "beta", "gamma42"]

    def test_permutation_equivariance(self):
        docs = [
            Document("a", "g1", "alpha", ()),
            Document("b", "g2", "beta", ()),
            Document("c", "g1", "alpha beta", ()),
        ]
        data = embed_documents(docs, self.vecs())
        permuted = embed_documents(docs[::-1], self.vecs())
        assert np.allclose(permuted.points, data.points[::-1])
        assert permuted.row_ids == tuple(reversed(data.row_ids))
        # group order follows first appearance
        assert data.group_names == ("g1", "g2")
        assert permuted.group_names == ("g1", "g2")


class TestLoadUsps:
    def write(self, path, rows, compress=False):
        text = "\n".join(" ".join(str(v) for v in row) for row in rows) + "\n"
        if compress:
            with gzip.open(path, "wt", encoding="utf-8") as fh:
                fh.write(text)
        else:
            path.write_text(text, encoding="utf-8")

    def test_basic(self, tmp_path):
        path = tmp_path / "u.txt"
        rows = [[0] + [0.1] * 256, [1] + [0.2] * 256, [1] + [0.3] * 256]
        self.write(path, rows)
        data = load_usps(path)
        assert data.n_points == 3 and data.dim == 256
        assert data.group_names == ("0", "1")
        assert data.group_index[1].size == 2

    def test_empty_errors(self, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("")
        with pytest.raises(DataError):
            load_usps(path)

    def test_wrong_arity_reports_line(self, tmp_path):
        path = tmp_path / "u.txt"
        rows = [[0] + [0.1] * 256, [1] + [0.2] * 255]
        self.write(path, rows)
        with pytest.raises(ParseError, match="line 2"):
            load_usps(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "u.txt"
        self.write(path, [[11] + [0.1] * 256])
        with pytest.raises(ValidationError):
            load_usps(path)

    @pytest.mark.parametrize("label", ["nan", "inf", "1e400"])
    def test_non_finite_label_exits_data_error_naming_its_line(self, label, tmp_path, capsys):
        # int() of these raised ValueError or OverflowError: a traceback, exit 1
        path = tmp_path / "u.txt"
        write_usps(path, [i % 3 for i in range(8)], seed=5)
        lines = path.read_text().splitlines()
        lines[5] = label + lines[5][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=f"line 6: label {label} outside 0..9"):
            load_usps(path)
        assert main(["summarize", "--usps-train", str(path), "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert "line 6" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1_0", "\u0661\u0662"])
    def test_numbers_that_only_python_float_reads_are_rejected(self, tmp_path, value):
        path = tmp_path / "u.txt"
        self.write(path, [[0] + [0.1] * 256, [1] + [0.2] * 255 + [value]])
        with pytest.raises(ParseError, match="line 2: non-numeric component"):
            load_usps(path)

    @pytest.mark.parametrize("label", ["\u0661", "1_0", "x"])
    def test_label_that_numpy_cannot_parse_is_a_parse_error(self, tmp_path, label):
        # Python's float read \u0661 as 1 and 1_0 as the out-of-range 10
        path = tmp_path / "u.txt"
        self.write(path, [[0] + [0.1] * 256, [label] + [0.2] * 256])
        with pytest.raises(ParseError, match="line 2: non-numeric label"):
            load_usps(path)

    def test_bad_label_beyond_the_first_chunk_reports_its_file_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernel, "CHUNK_BYTES", 4096)  # a chunk of about four lines
        path = tmp_path / "u.txt"
        write_usps(path, [i % 3 for i in range(20)], seed=6)
        lines = path.read_text().splitlines()
        lines[13] = "1_0" + lines[13][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 14: non-numeric label"):
            load_usps(path)

    def test_bad_line_beyond_the_first_chunk_reports_its_file_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernel, "CHUNK_BYTES", 4096)  # a chunk of about four lines
        path = tmp_path / "u.txt"
        write_usps(path, [i % 3 for i in range(20)], seed=6)
        lines = path.read_text().splitlines()
        lines[13] = lines[13].rsplit(" ", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 14: expected 256 components, got 255"):
            load_usps(path)

    def test_chunks_stack_in_file_order(self, tmp_path, monkeypatch):
        path = tmp_path / "u.txt"
        write_usps(path, [i % 3 for i in range(20)], seed=7)
        whole = load_usps(path)
        monkeypatch.setattr(kernel, "CHUNK_BYTES", 4096)
        chunked = load_usps(path)
        assert np.array_equal(chunked.points, whole.points)
        assert np.array_equal(chunked.group_of, whole.group_of)

    def test_gzip_and_float_labels(self, tmp_path):
        path = tmp_path / "u.gz"
        rows = [["3.0000"] + [0.5] * 256, ["7.0000"] + [0.25] * 256]
        self.write(path, rows, compress=True)
        data = load_usps(path)
        assert data.group_names == ("3", "7")

    def test_pair_concatenates_with_canonical_rows(self, tmp_path):
        train, test = tmp_path / "tr.txt", tmp_path / "te.txt"
        self.write(train, [[0] + [0.1] * 256, [1] + [0.2] * 256, [1] + [0.25] * 256])
        self.write(test, [[0] + [0.3] * 256, [1] + [0.4] * 256])
        combined, train_rows, test_rows = load_usps_pair(train, test)
        assert combined.n_points == 5
        assert train_rows.tolist() == [0, 1, 2]
        assert test_rows.tolist() == [3, 4]

    def test_pair_equals_two_loads_relabelled_when_a_digit_is_only_in_the_test_file(self, tmp_path):
        train, test = tmp_path / "tr.txt", tmp_path / "te.txt"
        write_usps(train, [7, 2, 7, 9], seed=8)
        write_usps(test, [9, 4, 2], seed=9)
        combined, _, _ = load_usps_pair(train, test)
        parts = [load_usps(train), load_usps(test)]
        labels = [part.group_names[g] for part in parts for g in part.group_of]
        expected = grouped_in_order(np.vstack([part.points for part in parts]), labels,
                                    [str(d) for d in range(10)])
        assert combined.group_names == expected.group_names == ("2", "4", "7", "9")
        assert combined.group_of.tolist() == expected.group_of.tolist()
        assert combined.points.tobytes() == expected.points.tobytes()
        assert combined.row_ids is expected.row_ids is None


class TestPca:
    def test_points_on_a_line_give_rank_one(self):
        t = np.linspace(-1, 1, 10)[:, None]
        X = t * np.array([[1.0, 2.0]])
        data = from_rows(X, ["a"] * 10)
        model = fit_pca(data, target_variance=0.85)
        assert model.n_components == 1
        assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_target_one_reconstructs(self):
        rng = np.random.Generator(np.random.PCG64(1))
        X = rng.normal(size=(20, 4))
        data = from_rows(X, ["a"] * 20)
        model = fit_pca(data, target_variance=1.0)
        assert model.n_components == 4
        projected = apply_pca(model, data)
        reconstructed = projected.points @ model.components + model.mean
        assert np.allclose(reconstructed, X, atol=1e-8)

    def test_components_orthonormal_and_ratios_nonincreasing(self):
        rng = np.random.Generator(np.random.PCG64(2))
        X = rng.normal(size=(30, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.1])
        data = from_rows(X, ["a"] * 30)
        model = fit_pca(data, 0.99)
        KT = model.components @ model.components.T
        assert np.allclose(KT, np.eye(model.n_components), atol=1e-8)
        r = model.explained_variance_ratio
        assert np.all(np.diff(r) <= 1e-12)

    def test_sign_convention(self):
        rng = np.random.Generator(np.random.PCG64(3))
        X = rng.normal(size=(25, 4))
        model = fit_pca(from_rows(X, ["a"] * 25), 1.0)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_projected_variance_reproduces_ratios(self):
        rng = np.random.Generator(np.random.PCG64(4))
        X = rng.normal(size=(50, 6)) * np.array([5, 3, 2, 1, 0.5, 0.2])
        data = from_rows(X, ["a"] * 50)
        model = fit_pca(data, 0.9)
        projected = apply_pca(model, data).points
        total = np.var(X, axis=0, ddof=1).sum()
        ratios = np.var(projected, axis=0, ddof=1) / total
        assert np.allclose(ratios, model.explained_variance_ratio, atol=1e-8)

    def test_rank_deficient_keeps_only_nonzero_components(self):
        # rank-1 data in 3-D: even at target 1.0 only the single nonzero
        # component is kept (ratios are relative to the total variance, so the
        # target is reached without padding zero-variance directions)
        t = np.linspace(-1, 1, 8)[:, None]
        X = t * np.array([[1.0, 1.0, 0.0]])
        data = from_rows(X, ["a"] * 8)
        model = fit_pca(data, target_variance=1.0)
        assert model.n_components == 1
        assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_unreachable_target_warns_and_keeps_every_nonzero_component(self, caplog):
        # ten directions of variance about 4e-13 of the first: each counts as
        # zero (below 1e-12 of the largest), but together they hold about
        # 4e-12 of the variance, so the one nonzero component cannot reach 1.0
        rng = np.random.Generator(np.random.PCG64(9))
        X = np.hstack([rng.normal(size=(200, 1)), 6e-7 * rng.normal(size=(200, 10))])
        with caplog.at_level(logging.WARNING):
            model = fit_pca(from_rows(X, ["a"] * 200), target_variance=1.0)
        assert "rank-deficient data" in caplog.text
        assert model.n_components == 1

    def test_apply_preserves_pairwise_distances_with_full_basis(self):
        rng = np.random.Generator(np.random.PCG64(5))
        X = rng.normal(size=(12, 3))
        data = from_rows(X, ["a"] * 12)
        model = fit_pca(data, 1.0)
        proj = apply_pca(model, data).points
        for i in range(12):
            for j in range(i + 1, 12):
                a = float(np.sum((X[i] - X[j]) ** 2))
                b = float(np.sum((proj[i] - proj[j]) ** 2))
                assert a == pytest.approx(b, abs=1e-8)

    def test_mean_row_projects_to_zero(self):
        rng = np.random.Generator(np.random.PCG64(6))
        X = rng.normal(size=(15, 3))
        data = from_rows(X, ["a"] * 15)
        model = fit_pca(data, 0.9)
        z = (data.points.mean(axis=0) - model.mean) @ model.components.T
        assert np.allclose(z, 0.0, atol=1e-12)

    def test_shape_contract(self):
        rng = np.random.Generator(np.random.PCG64(7))
        X = rng.normal(size=(5, 3)) * np.array([4.0, 1.0, 0.01])
        data = from_rows(X, ["a"] * 5)
        model = fit_pca(data, 0.9)
        out = apply_pca(model, data)
        assert out.points.shape == (5, model.n_components)
        assert out.group_names == data.group_names

    def test_dimension_mismatch(self):
        rng = np.random.Generator(np.random.PCG64(8))
        model = fit_pca(from_rows(rng.normal(size=(6, 3)), ["a"] * 6), 1.0)
        other = from_rows(rng.normal(size=(4, 2)), ["a"] * 4)
        with pytest.raises(ValidationError):
            apply_pca(model, other)


class TestSubset:
    def data(self):
        return from_rows(np.arange(12.0).reshape(6, 2), ["a", "a", "b", "b", "c", "c"])

    @pytest.mark.parametrize("rows, emptied", [([2, 3, 4, 5], "a"), ([0, 1, 4], "b"), ([1, 3], "c")])
    def test_emptying_a_group_names_it(self, rows, emptied):
        # dropping the group would renumber the later ones: b, c as 0, 1
        with pytest.raises(ValidationError, match=f"group '{emptied}'"):
            self.data().subset(rows)

    def test_keeps_every_group_and_its_index(self):
        sub = self.data().subset([5, 0, 2])
        assert sub.group_names == ("a", "b", "c")
        assert sub.group_of.tolist() == [0, 1, 2]
        assert sub.points[:, 0].tolist() == [0.0, 4.0, 10.0]

    def test_matches_the_label_round_trip(self):
        # the same dataset as rebuilding the rows from their group labels
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(200):
            sizes = rng.integers(1, 6, size=rng.integers(1, 5))
            labels = [f"g{g}" for g in rng.permutation(np.repeat(np.arange(sizes.size), sizes))]
            n = len(labels)
            data = grouped_in_order(rng.normal(size=(n, 2)), labels, sorted(set(labels), reverse=True),
                                    tuple(f"r{i}" for i in range(n)))
            keep = [int(rng.choice(rows)) for rows in data.group_index]
            rows = rng.permutation(np.union1d(keep, rng.choice(n, size=rng.integers(0, n + 1))))
            sub = data.subset(rows)
            r = np.sort(rows)
            ref = grouped_in_order(data.points[r], [data.group_names[g] for g in data.group_of[r]],
                                   data.group_names, tuple(data.row_ids[i] for i in r))
            assert np.array_equal(sub.points, ref.points)
            assert sub.group_of.tolist() == ref.group_of.tolist()
            assert sub.group_names == ref.group_names
            assert [ix.tolist() for ix in sub.group_index] == [ix.tolist() for ix in ref.group_index]
            assert sub.row_ids == ref.row_ids


class TestMakeSplits:
    def dataset(self, sizes=(10, 10), seed=0):
        rng = np.random.Generator(np.random.PCG64(seed))
        pts, labels = [], []
        for g, n in enumerate(sizes):
            pts.append(rng.normal(size=(n, 2)))
            labels += [f"g{g}"] * n
        return from_rows(np.vstack(pts), labels)

    def test_counts(self):
        data = self.dataset((10, 10))
        splits = make_splits(data, 0.8, 3, base_seed=5)
        for split in splits:
            assert split.train.group_sizes().tolist() == [8, 8]
            assert split.test.group_sizes().tolist() == [2, 2]

    def test_disjoint_and_exhaustive(self):
        data = self.dataset((9, 7))
        for split in make_splits(data, 0.75, 2, base_seed=1):
            train_pts = {tuple(p) for p in split.train.points}
            test_pts = {tuple(p) for p in split.test.points}
            assert not train_pts & test_pts
            assert len(train_pts) + len(test_pts) == data.n_points

    def test_identical_seed_identical_splits(self):
        data = self.dataset((8, 8))
        a = make_splits(data, 0.8, 4, base_seed=11)
        b = make_splits(data, 0.8, 4, base_seed=11)
        for s, t in zip(a, b):
            assert np.array_equal(s.train.points, t.train.points)
            assert np.array_equal(s.test.points, t.test.points)
            assert s.seed == t.seed

    def test_group_of_one_point_errors(self):
        data = self.dataset((5, 2))
        ok = make_splits(data, 0.8, 1, 0)  # 2-point group still splits 1/1
        assert ok[0].train.group_sizes().tolist() == [4, 1]
        bad = from_rows(np.vstack([np.zeros((3, 2)), np.ones((1, 2))]), ["a"] * 3 + ["b"])
        with pytest.raises(ValidationError):
            make_splits(bad, 0.8, 1, 0)

    def test_both_sides_keep_every_group(self):
        # ceil would otherwise put both points of the small group in train
        data = self.dataset((2, 10))
        split = make_splits(data, 0.8, 1, 0)[0]
        assert split.train.group_sizes().tolist()[0] == 1
        assert split.test.group_sizes().tolist()[0] == 1

    def test_first_split_override(self):
        data = self.dataset((6, 6))
        train_rows = np.array([0, 1, 2, 3, 4, 6, 7, 8, 9])  # 5 of g0, 4 of g1
        test_rows = np.array([5, 10, 11])
        splits = make_splits(data, 0.8, 3, base_seed=0, first_split=(train_rows, test_rows))
        assert np.array_equal(splits[0].train.points, data.points[train_rows])
        # later splits copy the canonical per-group train counts
        counts0 = splits[0].train.group_sizes()
        for split in splits[1:]:
            assert np.array_equal(split.train.group_sizes(), counts0)

    @pytest.mark.parametrize(
        "train_rows, test_rows, message",
        [
            (range(0, 5), range(5, 12), "first_split leaves group 'g1' with no train rows"),
            (range(0, 11), [11], "first_split leaves group 'g0' with no test rows"),
            ([0, 1, 6], [1, 2, 3, 4, 5, 7, 8, 9, 10, 11], "first_split must partition"),
        ],
    )
    def test_first_split_errors_name_the_fault(self, train_rows, test_rows, message):
        with pytest.raises(ValidationError, match=message):
            make_splits(self.dataset((6, 6)), 0.8, 1, 0, first_split=(train_rows, test_rows))

    def test_usps_test_file_without_a_digit_exits_data_error(self, tmp_path, capsys):
        train, test = tmp_path / "tr.txt", tmp_path / "te.txt"
        write_usps(train, [i % 10 for i in range(30)], seed=1)
        write_usps(test, [d for d in range(10) if d != 3], seed=2)
        code = main(["evaluate", "--usps-train", str(train), "--usps-test", str(test),
                     "--method", "kmeans", "--m", "1", "--splits", "1",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "group '3' with no test rows" in capsys.readouterr().err

    def test_row_ids_carried_through(self):
        data = from_rows(
            np.random.default_rng(0).normal(size=(6, 2)),
            ["a", "a", "a", "b", "b", "b"],
            row_ids=[f"r{i}" for i in range(6)],
        )
        split = make_splits(data, 0.67, 1, 3)[0]
        assert set(split.train.row_ids) | set(split.test.row_ids) == {f"r{i}" for i in range(6)}
        assert not set(split.train.row_ids) & set(split.test.row_ids)
