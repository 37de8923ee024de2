"""RBF kernel evaluation, streamed kernel row and label sums, and the median-heuristic bandwidth.

All objectives and optimizers in this package consume kernels through this
module, and nothing here mutates its inputs or keeps state between calls.
Only kernel_matrix evaluates the kernel; row_sums and label_sums aggregate
its blocks. label_sums is the one pass that builds a kernel-sum table, and
group_sums is its dataset case; the caller that owns a table hands it to
every reader, so no pass is repeated and nothing is cached here. Every
pairwise loop of the package takes its rows in row_blocks, so no kernel or
distance temporary outgrows CHUNK_BYTES. median_gamma is the package's one
bandwidth rule, over at most MEDIAN_PAIRS point pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DegenerateDataError, ValidationError


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel k(x, y) = exp(-gamma * ||x - y||^2) with bandwidth gamma > 0."""

    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise ValidationError(f"gamma must be a positive finite real, got {self.gamma!r}")


def kernel_matrix(X, Y, spec: KernelSpec) -> np.ndarray:
    """Pairwise kernel matrix between the rows of X (n x d) and Y (m x d).

    A self-call (X is Y) yields an exactly symmetric matrix with unit diagonal
    because squared distances are computed elementwise, not via dot-product
    expansion.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValidationError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    K = cdist(X, Y, "sqeuclidean")
    K *= -spec.gamma
    np.exp(K, out=K)
    return K


def row_sums(X, Y, spec: KernelSpec) -> np.ndarray:
    """sum_j k(X_i, Y_j) for every row of X: the row sums of kernel_matrix
    blocks, in row_blocks of X (8 m bytes a row for the m rows of Y). Each row
    sums in a fixed order, so the result does not depend on the blocking and
    equals kernel_matrix(X, Y).sum(axis=1) bit for bit."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    out = np.empty(X.shape[0])
    for b in row_blocks(X.shape[0], 8 * Y.shape[0]):
        out[b] = kernel_matrix(X[b], Y, spec).sum(axis=1)
    return out


# Bytes of float64 temporaries that one block of a pairwise loop may hold.
CHUNK_BYTES = 4 << 20


def row_blocks(n: int, row_bytes: int) -> list[slice]:
    """Consecutive slices of range(n) of at most CHUNK_BYTES // row_bytes rows
    and at least one, where row_bytes counts the float64 temporaries that one
    row creates. A reduction within a row does not depend on its block."""
    step = max(1, CHUNK_BYTES // row_bytes)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def label_sums(X, labels, spec: KernelSpec) -> np.ndarray:
    """The (N, L) table S[i, l] = sum of k(x_i, x_j) over the rows j with
    labels[j] == l, for the labels 0..L-1 (L = max(labels) + 1).

    One symmetric pass in row bands b of row_blocks(N, 8 N): each band takes
    K = kernel_matrix(X[b], X[b.start:]), its own rows get K @ E[b.start:],
    and the rows after it get K[:, len(b):].T @ E[b], E being the N x L
    one-hot label matrix. That is about N^2 / 2 + N |b| / 2 evaluations, with
    one band of kernel values held at a time. Every entry sums in a fixed
    order, so repeated calls return the same bits.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    labels = np.asarray(labels, dtype=int)
    n = X.shape[0]
    E = np.zeros((n, int(labels.max()) + 1))
    E[np.arange(n), labels] = 1.0
    S = np.zeros_like(E)
    for b in row_blocks(n, 8 * n):
        K = kernel_matrix(X[b], X[b.start :], spec)
        S[b] += K @ E[b.start :]
        S[b.stop :] += K[:, b.stop - b.start :].T @ E[b]
        del K  # before the next band's kernel_matrix allocates
    return S


def group_sums(data, spec: KernelSpec) -> np.ndarray:
    """The (N, G) table R[i, h] = sum_{j in group h} k(x_i, x_j) of a
    GroupedDataset: label_sums with the rows' groups as labels."""
    return label_sums(data.points, data.group_of, spec)


# Point pairs median_gamma samples; read at call time, so tests can shrink it.
MEDIAN_PAIRS = 100_000


def median_gamma(X) -> float:
    """Bandwidth from the median heuristic, the one rule by which evaluate and
    summarize infer gamma: 1 / median of squared pairwise distances.

    Considers min(MEDIAN_PAIRS, N*(N-1)/2) distinct point pairs, drawn when
    subsampling is needed by a PCG64 generator of seed 0 so the result is
    reproducible, in row_blocks of 4 d floats a pair (both rows, their
    difference, its square). Falls back to 1 / mean of the nonzero squared
    distances when the median is zero; all-identical points are an error.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < 2:
        raise ValidationError("median_gamma needs at least 2 points")
    total = n * (n - 1) // 2
    if total <= MEDIAN_PAIRS:
        i, j = np.triu_indices(n, k=1)
    else:
        # Batched draws continue the scalar stream a, b, a, b, ...; keep the
        # first MEDIAN_PAIRS distinct unordered pairs in draw order.
        rng = np.random.Generator(np.random.PCG64(0))
        keys = np.empty(0, dtype=np.int64)
        while keys.size < MEDIAN_PAIRS:
            a, b = rng.integers(0, n, size=(MEDIAN_PAIRS, 2)).T
            keys = np.concatenate([keys, (np.minimum(a, b) * n + np.maximum(a, b))[a != b]])
            keys = keys[np.sort(np.unique(keys, return_index=True)[1])]
        i, j = np.divmod(keys[:MEDIAN_PAIRS], n)
    d2 = np.concatenate([
        np.sum((X[i[b]] - X[j[b]]) ** 2, axis=1) for b in row_blocks(i.size, 32 * X.shape[1])
    ])
    med = float(np.median(d2))
    if med > 0:
        return 1.0 / med
    nonzero = d2[d2 > 0]
    if nonzero.size == 0:
        raise DegenerateDataError("all sampled point pairs coincide; cannot infer a bandwidth")
    return 1.0 / float(np.mean(nonzero))
