"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and writes plain-text inputs in the
formats the CLI reads. The same seed gives byte-identical files: all draws go
through numpy's PCG64 and values are written from a fixed table of decimal
strings, so no float formatting depends on the platform.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

# Class counts of the canonical USPS train/test partition (digits 0..9).
USPS_TRAIN_COUNTS = (1194, 1005, 731, 658, 652, 556, 664, 645, 542, 644)
USPS_TEST_COUNTS = (359, 264, 198, 166, 200, 160, 170, 147, 166, 177)

# Calibrated so that PCA to 85% variance keeps about 39 components of the
# canonical train side and 1-NN on all of it scores about 0.93-0.96.
_USPS_LATENT = 80          # rank of the within-class variation
_USPS_DECAY = 0.58         # latent scale of component j is j ** -decay
_USPS_AMPLITUDE = 6.0
_USPS_SEPARATION = 5.6     # distance of each class mean from the origin
_USPS_NOISE = 0.1          # isotropic pixel noise

# News corpus: group (month) topics are mixed into a shared Zipf background.
_NEWS_TOPIC_SHARE = 0.10   # chance a token comes from its group's topic words
_NEWS_TOPIC_WORDS = 400    # topic words per group
_NEWS_OOV_SHARE = 0.05     # chance a token is out of vocabulary
_NEWS_ALL_OOV_DOCS = 3     # documents with no in-vocabulary token


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([stream, seed]))


def _decimal_table(limit: float, step: float) -> np.ndarray:
    """Strings for every multiple of step in [-limit, limit]; index 0 is -limit."""
    n = int(round(2 * limit / step)) + 1
    digits = max(0, -int(np.floor(np.log10(step))))
    return np.array([f"{-limit + i * step:.{digits}f}" for i in range(n)], dtype=object)


def _write_rows(path: Path, heads, values: np.ndarray, limit: float, step: float) -> None:
    """Write 'head v1 ... vd' per row with values quantized to step."""
    table = _decimal_table(limit, step)
    idx = np.rint((np.clip(values, -limit, limit) + limit) / step).astype(np.int64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for head, row in zip(heads, idx):
            fh.write(head + " " + " ".join(table[row]) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def usps_points(seed: int, train_counts=USPS_TRAIN_COUNTS, test_counts=USPS_TEST_COUNTS):
    """USPS-shaped digits: 256-d class clusters in [-1, 1].

    Returns (train_x, train_y, test_x, test_y). Each class is a mean point on
    an equidistant simplex inside a shared low-rank subspace, plus latent
    variation with a decaying spectrum and pixel noise, clipped to [-1, 1].
    The subspace and the class means are fixed; the seed draws the points,
    so every seed poses a problem of the same difficulty.
    """
    d, k = 256, _USPS_LATENT
    scales = _USPS_AMPLITUDE * np.arange(1, k + 1) ** -_USPS_DECAY
    shape = _rng(0, 0)
    basis = np.linalg.qr(shape.standard_normal((d, k)))[0]
    directions = np.linalg.qr(shape.standard_normal((k, 10)))[0]
    rng = _rng(seed, 1)
    means = _USPS_SEPARATION * directions.T @ basis.T
    sides = {"train": ([], []), "test": ([], [])}
    for c in range(10):
        for side, count in (("train", train_counts[c]), ("test", test_counts[c])):
            z = rng.standard_normal((count, k)) * scales
            pts = means[c] + z @ basis.T + _USPS_NOISE * rng.standard_normal((count, d))
            sides[side][0].append(np.clip(pts, -1.0, 1.0))
            sides[side][1].append(np.full(count, c))
    (trx, try_), (tex, tey) = sides["train"], sides["test"]
    return np.vstack(trx), np.concatenate(try_), np.vstack(tex), np.concatenate(tey)


def write_usps(outdir, seed: int, train_counts=USPS_TRAIN_COUNTS, test_counts=USPS_TEST_COUNTS) -> dict:
    """Write usps.train and usps.test ('label v1..v256', 4 decimals)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    trx, try_, tex, tey = usps_points(seed, train_counts, test_counts)
    paths = {"usps_train": outdir / "usps.train", "usps_test": outdir / "usps.test"}
    _write_rows(paths["usps_train"], [str(int(v)) for v in try_], trx, 1.0, 1e-4)
    _write_rows(paths["usps_test"], [str(int(v)) for v in tey], tex, 1.0, 1e-4)
    return {
        "paths": {k: str(p) for k, p in paths.items()},
        "n": int(try_.size + tey.size),
        "n_train": int(try_.size),
        "d": 256,
        "bytes": sum(p.stat().st_size for p in paths.values()),
        "digests": {k: file_digest(p) for k, p in paths.items()},
    }


def _token(i: int) -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    out = ""
    i += 26 * 26  # at least three letters
    while i:
        i, r = divmod(i, 26)
        out = letters[r] + out
    return out


def write_news(
    outdir,
    seed: int,
    n_docs: int,
    n_groups: int,
    vocab: int = 50_000,
    dim: int = 300,
) -> dict:
    """Write a news-shaped corpus (corpus.jsonl) and word vectors (vectors.txt).

    The vocabulary has Zipf-distributed frequencies; each group owns a block
    of topic words whose vectors share a group direction. A small share of
    tokens is out of vocabulary, and a few documents contain only such tokens,
    so the loader's drop path runs.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n_topic = _NEWS_TOPIC_WORDS * n_groups
    if n_topic >= vocab:
        raise ValueError("vocabulary too small for the topic blocks")
    # Background tokens hold indices [0, vocab - n_topic); topic block g
    # follows. Topic vectors lean toward their group's direction.
    group_dirs = _rng(0, 0).standard_normal((n_groups, dim))
    vec_rng = _rng(seed, 2)
    group_dirs /= np.linalg.norm(group_dirs, axis=1, keepdims=True)
    vectors = 0.35 * vec_rng.standard_normal((vocab, dim))
    for g in range(n_groups):
        start = vocab - n_topic + g * _NEWS_TOPIC_WORDS
        vectors[start : start + _NEWS_TOPIC_WORDS] += 2.0 * group_dirs[g]
    vectors_path = outdir / "vectors.txt"
    names = [_token(i) for i in range(vocab)]
    _write_rows(vectors_path, names, vectors, 4.0, 1e-3)

    rng = _rng(seed, 3)
    n_background = vocab - n_topic
    background_cdf = np.cumsum(1.0 / np.arange(1, n_background + 1) ** 1.07)
    topic_cdf = np.cumsum(1.0 / np.arange(1, _NEWS_TOPIC_WORDS + 1))
    oov = [f"x{_token(i)}" for i in range(2000)]

    def sentence(g, length):
        kinds = rng.random(length)
        background = np.searchsorted(background_cdf, rng.random(length) * background_cdf[-1])
        topic = np.searchsorted(topic_cdf, rng.random(length) * topic_cdf[-1])
        unknown = rng.integers(len(oov), size=length)
        words = []
        for j, u in enumerate(kinds):
            if u < _NEWS_OOV_SHARE:
                words.append(oov[unknown[j]])
            elif u < _NEWS_OOV_SHARE + _NEWS_TOPIC_SHARE:
                words.append(names[n_background + g * _NEWS_TOPIC_WORDS + topic[j]])
            else:
                words.append(names[background[j]])
        return " ".join(words).capitalize() + "."

    months = [f"2018-{m:02d}" for m in range(1, 13)] + [f"2019-{m:02d}" for m in range(1, 13)]
    if n_groups > len(months):
        raise ValueError("at most 24 groups")
    corpus_path = outdir / "corpus.jsonl"
    group_of = {}
    with open(corpus_path, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(n_docs):
            g = i % n_groups
            doc_id = f"d{i:06d}"
            if i < _NEWS_ALL_OOV_DOCS:
                title = " ".join(oov[int(rng.integers(len(oov)))] for _ in range(5))
                sentences = [title + "."]
            else:
                title = sentence(g, int(rng.integers(5, 9)))[:-1]
                sentences = [sentence(g, int(rng.integers(8, 18))) for _ in range(int(rng.integers(3, 6)))]
            group_of[doc_id] = months[g]
            record = {"id": doc_id, "group": months[g], "title": title, "sentences": sentences}
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    paths = {"corpus": corpus_path, "vectors": vectors_path}
    return {
        "paths": {k: str(p) for k, p in paths.items()},
        "n": n_docs,
        "groups": n_groups,
        "d": dim,
        "vocab": vocab,
        "all_oov_docs": _NEWS_ALL_OOV_DOCS,
        "bytes": sum(p.stat().st_size for p in paths.values()),
        "digests": {k: file_digest(p) for k, p in paths.items()},
        "group_of": group_of,
    }
