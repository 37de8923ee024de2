"""Non-comparative baselines: kmeans (snapped), kmedoids, and an unlabeled
prototypes-plus-criticisms selector.

All clustering runs per group with kmeans++ initialization and is fully
deterministic under a fixed seed (PCG64). lloyd and _pam take every distance
grid from cdist, as the kernels do. The selector reads only the public
results of greedy, kernel and objectives.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .corpus import GroupedDataset
from .errors import ValidationError
from .greedy import greedy_select
from .kernel import KernelSpec, group_sums, kernel_matrix, row_blocks, row_sums
from .objectives import MetaPrototypes, ObjectiveSpec, Summary, snap

# Iteration cap of lloyd and _pam.
MAX_ITER = 300
# Diagonal jitter of the criticisms' kernel submatrix, for a stable Cholesky factor.
JITTER = 1e-10


def kmeanspp_init(points, M: int, seed: int) -> np.ndarray:
    """Deterministic kmeans++ D^2 seeding from a PCG64 stream of seed; returns
    M row indices. Falls back to a uniform draw over unchosen points when all
    remaining squared distances are zero. A draw needs one row of distances, so
    cdist would save nothing, and its last bits would change the draws. Each
    row of distances is a numpy row reduction in row_blocks of 16 d bytes a
    row (the difference and its square), which does not depend on the
    blocking."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if M < 1 or M > n:
        raise ValidationError(f"M must be in [1, {n}], got {M}")
    blocks = row_blocks(n, 16 * points.shape[1])

    def dist2(c):
        return np.concatenate([np.sum((points[b] - points[c]) ** 2, axis=1) for b in blocks])

    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = [int(rng.integers(0, n))]
    d2 = dist2(chosen[0])
    for _ in range(1, M):
        probs = d2.copy()
        probs[chosen] = 0.0
        total = probs.sum()
        if total > 0:
            probs /= total
            nxt = int(rng.choice(n, p=probs))
        else:
            pool = np.setdiff1d(np.arange(n), chosen)
            nxt = int(pool[rng.integers(0, pool.size)])
        chosen.append(nxt)
        d2 = np.minimum(d2, dist2(nxt))
    return np.array(chosen, dtype=int)


def lloyd(points, M: int, seed: int) -> np.ndarray:
    """The (M, d) centers of Lloyd's iterations from kmeans++ seeding, run
    until the assignment stops changing or MAX_ITER is reached.

    Each iteration takes the n x M squared distances to the centers from one
    cdist call. Empty clusters are repaired by moving the point currently
    farthest from its own center (among clusters that can spare one). A run
    capped at k iterations returns the centers of the k-th full one.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    init = kmeanspp_init(points, M, seed)
    centers = points[init].copy()
    assignment = None
    for _ in range(MAX_ITER):
        d2 = cdist(points, centers, "sqeuclidean")
        new_assignment = np.argmin(d2, axis=1)
        counts = np.bincount(new_assignment, minlength=M)
        for c in np.flatnonzero(counts == 0):
            donors = np.flatnonzero(counts[new_assignment] >= 2)
            dist_own = d2[donors, new_assignment[donors]]
            p = donors[int(np.argmax(dist_own))]
            counts[new_assignment[p]] -= 1
            new_assignment[p] = c
            counts[c] += 1
            d2[p, c] = 0.0
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for c in range(M):
            members = np.flatnonzero(assignment == c)
            centers[c] = points[members].mean(axis=0)
    return centers


def kmeans_centers(data: GroupedDataset, M: int, seed: int) -> list[np.ndarray]:
    """Lloyd's M centers for each group g, seeded with seed + g."""
    return [lloyd(data.group_points(g), M, seed=seed + g) for g in range(data.n_groups)]


def kmeans_summary(data: GroupedDataset, M: int, seed: int) -> Summary:
    """Per-group kmeans prototypes: Lloyd's centers snapped to nearest unused rows."""
    data.require_rows(M)
    return snap(MetaPrototypes(points=tuple(kmeans_centers(data, M, seed))), data)


def kmedoids_summary(data: GroupedDataset, M: int, seed: int) -> Summary:
    """Per-group PAM-style kmedoids; the medoids themselves are the prototypes."""
    data.require_rows(M)
    groups = []
    for g in range(data.n_groups):
        points = data.group_points(g)
        local = _pam(points, M, seed=seed + g)
        groups.append(tuple(int(data.group_index[g][i]) for i in local))
    return Summary(prototypes=tuple(groups))


def _pam(points, M, seed) -> list[int]:
    """Alternate assignment and medoid updates until the medoid set is stable
    or MAX_ITER is reached.

    Distances are plain Euclidean, from cdist; the assignment reads the n x M
    distances to the medoids. A medoid update picks the in-cluster point
    minimizing the total distance to its cluster rows P (ties: smallest
    index): row sums of cdist(P[b], P) in row_blocks of 8 n_c bytes a row,
    which do not depend on the blocking. No n x n matrix is built.
    """
    medoids = list(kmeanspp_init(points, M, seed))
    for _ in range(MAX_ITER):
        assignment = np.argmin(cdist(points, points[medoids]), axis=1)
        new_medoids = list(medoids)
        for c in range(M):
            members = np.flatnonzero(assignment == c)
            if members.size == 0:
                continue
            P = points[members]
            blocks = row_blocks(members.size, 8 * members.size)
            totals = np.concatenate([cdist(P[b], P).sum(axis=1) for b in blocks])
            new_medoids[c] = int(members[int(np.argmin(totals))])
        if new_medoids == medoids:
            break
        medoids = new_medoids
    return medoids


def mmd_critic_summary(data: GroupedDataset, total: int, spec: KernelSpec, sums=None) -> Summary:
    """Unlabeled selection: half prototypes, half criticisms.

    Prototypes are greedy_select's mmd-diff at lambda = 0 on the pooled data
    (one group holding every row), i.e. they maximize -MMD^2(selection, all
    points); criticisms then greedily maximize |witness value| plus the log-det
    gain of the criticism kernel submatrix (_select_criticisms). Both read the
    pooled column sums.sum(axis=1), where sums is the caller's
    kernel.group_sums table of data at spec (None: a fresh pass), so the
    critic makes no table pass of its own. Selected rows keep their true
    group labels, so per-group list lengths vary and a group may receive
    nothing.
    """
    if total % 2 != 0:
        raise ValidationError(f"total must be even, got {total}")
    if not 2 <= total <= data.n_points:
        raise ValidationError(f"total must be in [2, {data.n_points}], got {total}")
    half = total // 2

    own = (group_sums(data, spec) if sums is None else sums).sum(axis=1)
    pooled = GroupedDataset(data.points, np.zeros(data.n_points, dtype=int), ("all",))
    summary = greedy_select(pooled, ObjectiveSpec("mmd-diff", spec), half, own[:, None])
    protos = list(summary.prototypes[0])
    criticisms = _select_criticisms(pooled.points, protos, own, spec, half)

    groups = [[] for _ in range(data.n_groups)]
    for row in protos + criticisms:
        groups[int(data.group_of[row])].append(row)
    return Summary(prototypes=tuple(tuple(g) for g in groups))


def _select_criticisms(X, protos, own, spec: KernelSpec, count):
    """Greedy criticisms among the rows of X outside protos: argmax of
    |witness| + log-det increment.

    own[i] is sum_j k(x_i, x_j) over all of X. The witness value of a row c
    is own[c] / n - mean_{p in protos} k(c, x_p), the second mean from one
    kernel.row_sums(X, X[protos]) pass, chunked like every pairwise loop.
    The log-det increment of a row c is log(1 + JITTER - ||w_c||^2), w_c
    being column c of W = L^-1 k(criticisms, X) with L the Cholesky factor of
    the criticism kernel submatrix (diagonal JITTER for stability; the first
    increment is log(1 + JITTER) ~ 0). Each pick s extends the forward
    substitution by one row, W[s] = (k(x_s, X) - L[s, :s] @ W[:s]) / L[s, s],
    from its kernel row computed once, and adds W[s]**2 to the running
    squared norms; no earlier row is solved again, and no n x n matrix is
    built.
    """
    n = X.shape[0]
    witness = np.abs(own / n - row_sums(X, X[protos], spec) / len(protos))

    mask = np.ones(n, dtype=bool)
    mask[protos] = False
    chosen: list[int] = []
    W = np.empty((count, n))
    norm2 = np.zeros(n)  # sum of W[:t] ** 2 per column, in row order
    L = np.zeros((count, count))
    for t in range(count):
        pool = np.flatnonzero(mask)
        if pool.size == 0:
            break
        arg = 1.0 + JITTER - norm2[pool]
        gains = witness[pool] + np.log(np.maximum(arg, 1e-18))
        pick = int(np.argmax(gains))
        row = int(pool[pick])
        L[t, :t] = W[:t, row]
        L[t, t] = np.sqrt(max(float(arg[pick]), 1e-18))
        chosen.append(row)
        mask[row] = False
        if t + 1 < count:
            W[t] = (kernel_matrix(X[[row]], X, spec)[0] - L[t, :t] @ W[:t]) / L[t, t]
            norm2 += W[t] ** 2
    return chosen
