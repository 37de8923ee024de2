"""RBF kernel evaluation, streamed kernel row and group sums, and bandwidth heuristics.

All objectives and optimizers in this package consume kernels through this
module, and nothing here mutates its inputs. One aggregate is cached: the
per-point group kernel sums of group_sums, kept on the dataset per kernel, so
every consumer of one (dataset, kernel) reads one pass. Every other call
computes its matrix afresh.
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


def rbf(x, y, spec: KernelSpec) -> float:
    """Evaluate the Gaussian kernel between two d-vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError(f"rbf expects two vectors of equal length, got {x.shape} and {y.shape}")
    d = x - y
    return float(np.exp(-spec.gamma * np.dot(d, d)))


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
    d2 = cdist(X, Y, "sqeuclidean")
    return np.exp(-spec.gamma * d2)


def row_sums(X, Y, spec: KernelSpec, block: int = 1024) -> np.ndarray:
    """sum_j k(X_i, Y_j) for every row of X, streamed in row blocks of X.

    Avoids materializing the full matrix for large Y; summation order within
    each row is fixed, so results are deterministic.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValidationError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], block):
        stop = min(start + block, X.shape[0])
        out[start:stop] = np.exp(-spec.gamma * cdist(X[start:stop], Y, "sqeuclidean")).sum(axis=1)
    return out


_BLOCK_ROWS = 1024


def group_sums(data, spec: KernelSpec) -> np.ndarray:
    """The read-only (N, G) table R[i, h] = sum_{j in group h} k(x_i, x_j) of a
    GroupedDataset, built once per spec and kept on the dataset.

    One pass over the block pairs g <= h, at most 1024 rows of group g at a
    time: a chunk's row sums fill R[rows of g, h] and, for g < h, its column
    sums add into R[rows of h, g]; (N^2 + sum_g n_g^2) / 2 evaluations in all.
    """
    memo = data._group_sums
    if spec not in memo:
        groups = [data.group_points(g) for g in range(data.n_groups)]
        R = np.empty((data.n_points, data.n_groups))
        for g, (rows, Xg) in enumerate(zip(data.group_index, groups)):
            for h in range(g, data.n_groups):
                cols = np.zeros(groups[h].shape[0])
                for start in range(0, rows.size, _BLOCK_ROWS):
                    block = kernel_matrix(Xg[start : start + _BLOCK_ROWS], groups[h], spec)
                    R[rows[start : start + _BLOCK_ROWS], h] = block.sum(axis=1)
                    if h > g:
                        cols += block.sum(axis=0)
                if h > g:
                    R[data.group_index[h], g] = cols
        R.setflags(write=False)
        memo[spec] = R
    return memo[spec]


def median_gamma(X, max_pairs: int, seed: int) -> float:
    """Bandwidth from the median heuristic: 1 / median of squared pairwise distances.

    Considers min(max_pairs, N*(N-1)/2) distinct point pairs; when subsampling
    is needed, pairs are drawn by a seeded PCG64 generator so the result is
    reproducible. Falls back to 1 / mean of the nonzero squared distances when
    the median is zero; all-identical points are an error.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < 2:
        raise ValidationError("median_gamma needs at least 2 points")
    if max_pairs < 1:
        raise ValidationError("max_pairs must be positive")
    total = n * (n - 1) // 2
    if total <= max_pairs:
        i, j = np.triu_indices(n, k=1)
    else:
        # Batched draws continue the scalar stream a, b, a, b, ...; keep the
        # first max_pairs distinct unordered pairs in draw order.
        rng = np.random.Generator(np.random.PCG64(seed))
        keys = np.empty(0, dtype=np.int64)
        while keys.size < max_pairs:
            a, b = rng.integers(0, n, size=(max_pairs, 2)).T
            keys = np.concatenate([keys, (np.minimum(a, b) * n + np.maximum(a, b))[a != b]])
            keys = keys[np.sort(np.unique(keys, return_index=True)[1])]
        i, j = np.divmod(keys[:max_pairs], n)
    # squared distances in blocks of pairs, so the (pairs x d) temporaries stay
    # small; each pair's sum is the same as in one block
    d2 = np.concatenate([
        np.sum((X[i[s : s + 4096]] - X[j[s : s + 4096]]) ** 2, axis=1)
        for s in range(0, i.size, 4096)
    ])
    med = float(np.median(d2))
    if med > 0:
        return 1.0 / med
    nonzero = d2[d2 > 0]
    if nonzero.size == 0:
        raise DegenerateDataError("all sampled point pairs coincide; cannot infer a bandwidth")
    return 1.0 / float(np.mean(nonzero))
