"""Dataset ingestion: text corpora, word-vector files, USPS digits, PCA, splits.

Produces immutable GroupedDataset instances consumed by every other module.
All seeded operations use the PCG64 generator so results reproduce across
platforms. Word vectors are a plain token -> vector dict of only the tokens
the corpus uses (its document_tokens); every line of the file is still checked.
"""

from __future__ import annotations

import gzip
import json
import logging
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, ParseError, ValidationError, DegenerateDataError

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class Document:
    """One raw article: identifier, group label, title, and ordered sentences."""

    id: str
    group: str
    title: str
    sentences: tuple[str, ...]

    def __post_init__(self):
        if not self.group:
            raise ValidationError(f"document {self.id!r} has an empty group label")
        object.__setattr__(self, "sentences", tuple(self.sentences))


@dataclass(frozen=True)
class GroupedDataset:
    """Embedded points partitioned into labelled groups.

    points is N x d; group_of[i] is the group index of row i, which names it
    in group_names. group_index[g], derived from group_of, lists the rows of
    group g in ascending order. row_ids optionally carries a stable
    identifier per row (document ids) for human-readable output. points and
    group_of are read-only copies, so the caller's arrays stay writeable.
    _group_sums is kernel.group_sums' memo of its table per KernelSpec; it is
    derived data and takes no part in comparison.
    """

    points: np.ndarray
    group_of: np.ndarray
    group_names: tuple[str, ...]
    row_ids: tuple[str, ...] | None = None
    group_index: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    _group_sums: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValidationError("points must be a 2-d array")
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            raise ValidationError(f"points must be finite; row {int(bad[0])} holds NaN or inf")
        gof = np.array(self.group_of, dtype=int)
        if gof.shape != (pts.shape[0],):
            raise ValidationError("group_of must have one entry per row")
        n_groups = len(self.group_names)
        if gof.size and (gof.min() < 0 or gof.max() >= n_groups):
            raise ValidationError(f"group_of entries must index the {n_groups} group names")
        index = tuple(np.flatnonzero(gof == g) for g in range(n_groups))
        for name, rows in zip(self.group_names, index):
            if rows.size == 0:
                raise ValidationError(f"group {name!r} is empty")
        if self.row_ids is not None and len(self.row_ids) != pts.shape[0]:
            raise ValidationError("row_ids must have one entry per row")
        for arr in (pts, gof, *index):
            arr.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "group_of", gof)
        object.__setattr__(self, "group_index", index)
        object.__setattr__(self, "_group_sums", {})

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_groups(self) -> int:
        return len(self.group_names)

    def group_sizes(self) -> np.ndarray:
        return np.array([ix.size for ix in self.group_index])

    def group_points(self, g: int) -> np.ndarray:
        return self.points[self.group_index[g]]

    def rest_points(self, g: int) -> np.ndarray:
        """All rows not in group g."""
        mask = self.group_of != g
        return self.points[mask]

    def subset(self, rows) -> "GroupedDataset":
        """New dataset from the given rows (kept in ascending original order).

        Every group must retain at least one row; otherwise ValidationError
        names the emptied group.
        """
        rows = np.sort(np.asarray(rows, dtype=int))
        if rows.size and (rows[0] < 0 or rows[-1] >= self.n_points):
            raise ValidationError("subset rows out of range")
        ids = tuple(self.row_ids[r] for r in rows) if self.row_ids is not None else None
        return GroupedDataset(self.points[rows], self.group_of[rows], self.group_names, ids)


def from_rows(points, group_labels, row_ids=None, group_order=None) -> GroupedDataset:
    """Build a GroupedDataset from rows and per-row string labels.

    Groups are ordered by first appearance unless an explicit group_order is
    given (which must cover every label present).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = list(group_labels)
    if len(labels) != points.shape[0]:
        raise ValidationError("one group label per row required")
    if points.shape[0] == 0:
        raise DataError("cannot build a dataset with no rows")
    if group_order is None:
        names = []
        for lab in labels:
            if lab not in names:
                names.append(lab)
    else:
        names = [g for g in group_order if g in set(labels)]
        missing = set(labels) - set(names)
        if missing:
            raise ValidationError(f"labels {sorted(missing)} not covered by group_order")
    pos = {name: g for g, name in enumerate(names)}
    group_of = np.array([pos[lab] for lab in labels], dtype=int)
    return GroupedDataset(
        points=points,
        group_of=group_of,
        group_names=tuple(names),
        row_ids=tuple(row_ids) if row_ids is not None else None,
    )


@dataclass(frozen=True)
class SplitPair:
    """One stratified train/test partition of a source dataset."""

    train: GroupedDataset
    test: GroupedDataset
    seed: int


@dataclass(frozen=True)
class PcaModel:
    """Linear projection onto the top principal components.

    components has orthonormal rows; explained_variance_ratio is nonincreasing
    and refers to the total variance of the fitted data.
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray

    def __post_init__(self):
        for name in ("mean", "components", "explained_variance_ratio"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def load_corpus(path) -> list[Document]:
    """Read a JSONL corpus: one object per line with id, group, title, sentences."""
    docs = []
    seen_ids = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict):
                raise ParseError(f"{path}: line {lineno}: expected a JSON object")
            if not isinstance(rec.get("sentences", []), list):
                raise ParseError(f"{path}: line {lineno}: 'sentences' must be an array")
            for key in ("group", "title"):
                if not isinstance(rec.get(key, ""), str):
                    raise ParseError(f"{path}: line {lineno}: {key!r} must be a string")
            if not all(isinstance(s, str) for s in rec.get("sentences", [])):
                raise ParseError(f"{path}: line {lineno}: 'sentences' entries must be strings")
            doc_id = rec.get("id", "")
            if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
                raise ParseError(f"{path}: line {lineno}: 'id' must be a string or an integer")
            try:
                doc = Document(
                    id=str(rec["id"]),
                    group=rec["group"],
                    title=rec["title"],
                    sentences=tuple(rec["sentences"]),
                )
            except KeyError as exc:
                raise ParseError(f"{path}: line {lineno}: missing key {exc.args[0]!r}") from exc
            if doc.id in seen_ids:
                raise ValidationError(f"{path}: line {lineno}: duplicate document id {doc.id!r}")
            seen_ids.add(doc.id)
            docs.append(doc)
    return docs


def load_word_vectors(path, vocab) -> dict[str, np.ndarray]:
    """Read whitespace-separated word vectors (token v1 ... vd per line) into a
    token -> vector dict holding only the tokens in vocab.

    Every line is checked, kept or not: the dimension is inferred from the
    first line and every component must parse as a number. Duplicate tokens
    keep the last vector seen.
    """
    vecs = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise ParseError(f"{path}: line {lineno}: no vector components")
            elif len(values) != dim:
                raise ParseError(
                    f"{path}: line {lineno}: expected {dim} components, got {len(values)}"
                )
            try:
                floats = list(map(float, values))
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: non-numeric component") from exc
            if token in vocab:
                vecs[token] = np.array(floats)
    if dim is None:
        raise DataError(f"{path}: empty word-vector file")
    return vecs


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


def document_tokens(doc: Document, first_k_sentences: int) -> list[str]:
    """Tokens that embed a document: its title plus the first min(k, available)
    sentences (k >= 0), tokenized in order."""
    return [t for part in (doc.title, *doc.sentences[:first_k_sentences]) for t in tokenize(part)]


def embed_documents(docs, vecs: dict, first_k_sentences: int = 3) -> GroupedDataset:
    """Embed each document as the mean word vector of its document_tokens.

    Tokens missing from vecs are ignored. Documents with no token in vecs are
    dropped (logged as a warning count). Groups are ordered by first appearance
    among kept rows.
    """
    if first_k_sentences < 0:
        raise ValidationError("first_k_sentences must be >= 0")
    rows, labels, ids = [], [], []
    dropped = 0
    for doc in docs:
        vectors = [vecs[t] for t in document_tokens(doc, first_k_sentences) if t in vecs]
        if not vectors:
            dropped += 1
            continue
        rows.append(np.mean(vectors, axis=0))
        labels.append(doc.group)
        ids.append(doc.id)
    if dropped:
        logger.warning("dropped %d document(s) with no in-vocabulary tokens", dropped)
    if not rows:
        raise DataError("no documents could be embedded (all out of vocabulary)")
    return from_rows(np.vstack(rows), labels, row_ids=ids)


def load_usps(path) -> GroupedDataset:
    """Read USPS digits: each line is an integer label 0-9 followed by 256 reals.

    Groups are named by digit and ordered numerically. Transparently reads
    gzip-compressed files.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    rows, labels = [], []
    with opener(path, "rt", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 257:
                raise ParseError(f"{path}: line {lineno}: expected 257 fields, got {len(parts)}")
            try:
                raw_label = float(parts[0])
                values = np.array([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: non-numeric field") from exc
            if raw_label != int(raw_label) or not (0 <= int(raw_label) <= 9):
                raise ValidationError(f"{path}: line {lineno}: label {parts[0]} outside 0..9")
            rows.append(values)
            labels.append(str(int(raw_label)))
    if not rows:
        raise DataError(f"{path}: empty USPS file")
    order = [str(d) for d in range(10)]
    return from_rows(np.vstack(rows), labels, group_order=order)


def load_usps_pair(train_path, test_path) -> tuple[GroupedDataset, np.ndarray, np.ndarray]:
    """Load the canonical USPS train and test files into one combined dataset.

    Returns (combined, train_rows, test_rows) where the row index arrays
    describe the canonical partition inside the combined dataset.
    """
    train = load_usps(train_path)
    test = load_usps(test_path)
    if train.dim != test.dim:
        raise ValidationError("train/test dimension mismatch")
    labels = [train.group_names[g] for g in train.group_of] + [
        test.group_names[g] for g in test.group_of
    ]
    combined = from_rows(
        np.vstack([train.points, test.points]), labels, group_order=[str(d) for d in range(10)]
    )
    n_train = train.n_points
    return combined, np.arange(n_train), np.arange(n_train, combined.n_points)


def fit_pca(data: GroupedDataset, target_variance: float) -> PcaModel:
    """Fit PCA keeping the fewest components whose cumulative variance ratio
    reaches target_variance.

    Components follow a fixed sign convention (largest-magnitude entry
    positive). If the data's rank cannot reach the target, all nonzero
    components are returned with a logged warning.
    """
    if not 0 < target_variance <= 1:
        raise ValidationError("target_variance must be in (0, 1]")
    X = data.points
    if X.shape[0] < 2:
        raise ValidationError("PCA needs at least 2 points")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (X.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    total = float(eigvals.sum())
    if total <= 0:
        raise DegenerateDataError("data has zero variance; PCA undefined")
    ratio = eigvals / total
    nonzero = int(np.sum(eigvals > eigvals[0] * 1e-12))
    cum = np.cumsum(ratio[:nonzero])
    if cum[-1] + 1e-12 < target_variance:
        logger.warning(
            "rank-deficient data: reachable variance ratio %.6f < target %.6f; keeping all %d nonzero components",
            cum[-1], target_variance, nonzero,
        )
        k = nonzero
    else:
        k = int(np.searchsorted(cum, target_variance - 1e-12)) + 1
    components = eigvecs[:, :k].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=components, explained_variance_ratio=ratio[:k])


def apply_pca(model: PcaModel, data: GroupedDataset) -> GroupedDataset:
    """Project every row onto the model's components: (x - mean) @ components.T."""
    if data.dim != model.mean.shape[0]:
        raise ValidationError(
            f"dimension mismatch: data dim {data.dim}, model dim {model.mean.shape[0]}"
        )
    return replace(data, points=(data.points - model.mean) @ model.components.T)


def make_splits(
    data: GroupedDataset,
    train_fraction: float,
    n_splits: int,
    base_seed: int,
    first_split=None,
) -> list[SplitPair]:
    """Deterministic stratified train/test splits.

    Split s uses seed base_seed + s: within each group, indices are shuffled by
    PCG64 and the first ceil(train_fraction * N_g) go to train (clamped to
    N_g - 1 so the test side keeps every group). first_split=(train_rows,
    test_rows) makes split 0 a fixed partition (e.g. the canonical USPS one),
    with later splits matching its per-group counts.
    """
    if not 0 < train_fraction < 1:
        raise ValidationError("train_fraction must be in (0, 1)")
    if n_splits < 1:
        raise ValidationError("n_splits must be >= 1")
    sizes = data.group_sizes()
    if np.any(sizes < 2):
        bad = data.group_names[int(np.argmin(sizes))]
        raise ValidationError(f"group {bad!r} has fewer than 2 points; cannot split")

    train_counts = None
    if first_split is not None:
        train_rows0, test_rows0 = (np.asarray(r, dtype=int) for r in first_split)
        merged = np.sort(np.concatenate([train_rows0, test_rows0]))
        if not np.array_equal(merged, np.arange(data.n_points)):
            raise ValidationError("first_split must partition the dataset rows")
        train_counts = np.bincount(data.group_of[train_rows0], minlength=data.n_groups)
        for name, n_train, n_all in zip(data.group_names, train_counts, sizes):
            if not 0 < n_train < n_all:
                side = "train" if n_train == 0 else "test"
                raise ValidationError(f"first_split leaves group {name!r} with no {side} rows")

    splits = []
    for s in range(n_splits):
        seed = base_seed + s
        if s == 0 and first_split is not None:
            splits.append(SplitPair(train=data.subset(train_rows0), test=data.subset(test_rows0), seed=seed))
            continue
        rng = np.random.Generator(np.random.PCG64(seed))
        train_rows, test_rows = [], []
        for g in range(data.n_groups):
            rows = data.group_index[g]
            perm = rng.permutation(rows.size)
            if train_counts is not None:
                n_train = int(train_counts[g])
            else:
                n_train = min(math.ceil(train_fraction * rows.size), rows.size - 1)
            train_rows.append(rows[perm[:n_train]])
            test_rows.append(rows[perm[n_train:]])
        splits.append(
            SplitPair(
                train=data.subset(np.concatenate(train_rows)),
                test=data.subset(np.concatenate(test_rows)),
                seed=seed,
            )
        )
    return splits
