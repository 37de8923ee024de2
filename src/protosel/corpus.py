"""Dataset ingestion: text corpora, word-vector files, USPS digits, PCA, splits.

Produces immutable GroupedDataset instances consumed by every other module.
All seeded operations use the PCG64 generator so results reproduce across
platforms. Word vectors are a plain token -> vector dict of only the tokens
the corpus uses (its document_tokens); every line of the file is still checked.
Every loader reads UTF-8 text through _read_lines, gzip-decompressed when the
path ends in .gz; a file that cannot be read is a DataError naming its path.
The word-vector and USPS loaders share _numeric_rows, which parses chunks of
about kernel.CHUNK_BYTES of lines with numpy's C parser.
"""

from __future__ import annotations

import gzip
import json
import logging
import math
import re
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernel
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
    group_of are read-only copies, so the caller's arrays stay writeable. A
    dataset keeps no derived kernel data: its kernel-sum table is
    kernel.group_sums, built by whoever reads it.
    """

    points: np.ndarray
    group_of: np.ndarray
    group_names: tuple[str, ...]
    row_ids: tuple[str, ...] | None = None
    group_index: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

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

    def require_rows(self, M: int):
        """Reject a per-group prototype count M outside [1, smallest group size]."""
        smallest = int(self.group_sizes().min())
        if not 1 <= M <= smallest:
            raise ValidationError(f"M must be in [1, {smallest}], got {M}")

    def group_points(self, g: int) -> np.ndarray:
        return self.points[self.group_index[g]]

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


def from_rows(points, group_labels, row_ids=None) -> GroupedDataset:
    """Build a GroupedDataset from rows and per-row string labels, with groups
    ordered by first appearance."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    labels = list(group_labels)
    if len(labels) != points.shape[0]:
        raise ValidationError("one group label per row required")
    if points.shape[0] == 0:
        raise DataError("cannot build a dataset with no rows")
    pos = {name: g for g, name in enumerate(dict.fromkeys(labels))}
    group_of = np.array([pos[lab] for lab in labels], dtype=int)
    return GroupedDataset(
        points=points,
        group_of=group_of,
        group_names=tuple(pos),
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


def _read_lines(path):
    """(line number, line) of a UTF-8 text file, gzip-decompressed when path
    ends in .gz. A file that is missing, a directory, not UTF-8, or a corrupt
    or truncated gzip stream is a DataError naming the path."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rt", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except (OSError, EOFError, UnicodeDecodeError, zlib.error) as exc:
        raise DataError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def load_corpus(path) -> list[Document]:
    """Read a JSONL corpus: one object per line with id, group, title, sentences."""
    docs = []
    seen_ids = set()
    for lineno, line in _read_lines(path):
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
            doc = Document(id=str(rec["id"]), group=rec["group"], title=rec["title"],
                           sentences=tuple(rec["sentences"]))
        except KeyError as exc:
            raise ParseError(f"{path}: line {lineno}: missing key {exc.args[0]!r}") from exc
        if doc.id in seen_ids:
            raise ValidationError(f"{path}: line {lineno}: duplicate document id {doc.id!r}")
        seen_ids.add(doc.id)
        docs.append(doc)
    return docs


def _numeric_rows(path, width):
    """Chunks (line numbers, heads, values) of a file whose lines read
    "head v1 ... v_width": the head is the first field, kept as text, and
    values is the (lines, width) float array of the rest. Blank lines are
    skipped but counted. width=None infers it from the first line.

    Lines are gathered until they hold about kernel.CHUNK_BYTES of text, and
    each chunk's values are parsed by one np.loadtxt call. When that fails or
    gives another shape, a pass over the chunk's lines raises a ParseError
    naming the first bad line: a line without width values, or one with a
    value numpy cannot parse as a number.
    """
    linenos, heads, rests, size = [], [], [], 0
    for lineno, line in _read_lines(path):
        parts = line.split(None, 1)
        if not parts:
            continue
        rest = parts[1] if len(parts) > 1 else ""
        if width is None:
            width = len(rest.split())
            if width == 0:
                raise ParseError(f"{path}: line {lineno}: no vector components")
        linenos.append(lineno)
        heads.append(parts[0])
        rests.append(rest)
        size += len(line)
        if size >= kernel.CHUNK_BYTES:
            yield linenos, heads, _parse_values(path, linenos, rests, width, "component")
            linenos, heads, rests, size = [], [], [], 0
    if linenos:
        yield linenos, heads, _parse_values(path, linenos, rests, width, "component")


def _parse_values(path, linenos, rests, width, name) -> np.ndarray:
    """The (len(rests), width) floats of one chunk; see _numeric_rows. name
    ("component" or "label") names a value in the errors. A token-only line
    (empty rest) skips the whole-chunk parse, which would drop it."""
    if all(rests):
        try:
            block = np.loadtxt(rests, dtype=float, comments=None, ndmin=2)
            if block.shape == (len(rests), width):
                return block
        except ValueError:
            pass  # the pass below names the bad line
    for lineno, rest in zip(linenos, rests):
        count = len(rest.split())
        if count != width:
            raise ParseError(f"{path}: line {lineno}: expected {width} {name}s, got {count}")
        try:
            np.loadtxt([rest], dtype=float, comments=None)
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: non-numeric {name}") from exc
    raise AssertionError(f"{path}: a chunk failed to parse but none of its lines does")


def load_word_vectors(path, vocab) -> dict[str, np.ndarray]:
    """Read whitespace-separated word vectors (token v1 ... vd per line) into a
    token -> vector dict holding only the tokens in vocab.

    Every line is checked, kept or not, through _numeric_rows: the dimension
    is inferred from the first line and every component must parse as a
    number by numpy's parser, which rejects forms that Python's float
    accepts, such as 1_0 and non-ASCII digits. Duplicate tokens keep the last
    vector seen. A kept vector is a row of a copy of its chunk's kept rows,
    so no chunk outlives its parse.
    """
    vecs = {}
    empty = True
    for _, tokens, block in _numeric_rows(path, None):
        empty = False
        keep = [i for i, token in enumerate(tokens) if token in vocab]
        vecs.update(zip((tokens[i] for i in keep), block[keep]))
    if empty:
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
    """Read USPS digits: each line is a label 0-9 followed by 256 reals.

    Pixels and labels both go through numpy's parser (so 1_0 and non-ASCII
    digits are rejected), the pixels in _numeric_rows and each chunk's labels
    in one more call. A label must be a whole number in 0..9, written as an
    integer or a float such as 3.0000. Groups are named by digit and ordered
    numerically.
    """
    return _digit_dataset(*_usps_rows(path))


def _usps_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """The pixel rows and integer digit labels of one USPS file; see load_usps."""
    blocks, digits = [], []
    for linenos, heads, block in _numeric_rows(path, 256):
        labels = _parse_values(path, linenos, heads, 1, "label")[:, 0]
        bad = np.flatnonzero(~((labels == np.floor(labels)) & (labels >= 0) & (labels <= 9)))
        if bad.size:
            raise ValidationError(f"{path}: line {linenos[bad[0]]}: label {heads[bad[0]]} outside 0..9")
        blocks.append(block)
        digits.append(labels.astype(int))
    if not blocks:
        raise DataError(f"{path}: empty USPS file")
    return np.vstack(blocks), np.concatenate(digits)


def _digit_dataset(points, digits) -> GroupedDataset:
    """One group per digit present, named by it, in numeric order."""
    present = np.unique(digits)
    return GroupedDataset(points, np.searchsorted(present, digits), tuple(str(d) for d in present))


def load_usps_pair(train_path, test_path) -> tuple[GroupedDataset, np.ndarray, np.ndarray]:
    """Load the canonical USPS train and test files into one combined dataset,
    built once from both files' stacked rows and labels.

    Returns (combined, train_rows, test_rows) where the row index arrays
    describe the canonical partition inside the combined dataset.
    """
    train_points, train_digits = _usps_rows(train_path)
    test_points, test_digits = _usps_rows(test_path)
    combined = _digit_dataset(
        np.vstack([train_points, test_points]), np.concatenate([train_digits, test_digits])
    )
    n_train = train_digits.size
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
