"""Pure evaluation of all summary utility functions, the one home of the
shared form that both MMD optimizers read, and the selection types (Summary,
MetaPrototypes) with snap, which turns meta-prototypes into a Summary.

Every value function here is stateless and recomputes from its arguments; the
optimizer modules keep incremental caches and are cross-checked against these
in tests. A summary is scored per group: coverage of its own group, and (for
the comparative objectives) separation from all other groups. The shared
form's coefficients, its point weights and its check that lam > 0 has a rest
live here. Each group's mean kernel over the points outside it comes for every
group at once from the dataset's kernel.group_sums table (rest_self_means),
which the caller supplies, so a summary and its value read one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import GroupedDataset
from .errors import NumericError, ValidationError
from .kernel import KernelSpec, group_sums, kernel_matrix, row_blocks, row_sums

OBJECTIVE_KINDS = ("nn", "mmd-diff", "mmd-div")


@dataclass(frozen=True)
class Summary:
    """Per-group ordered prototype row indices into a train dataset."""

    prototypes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "prototypes", tuple(tuple(int(i) for i in group) for group in self.prototypes)
        )
        for group in self.prototypes:
            if len(set(group)) != len(group):
                raise ValidationError("duplicate prototype index within a group")

    def validate_against(self, data: GroupedDataset):
        if len(self.prototypes) != data.n_groups:
            raise ValidationError("summary group count does not match dataset")
        for g, group in enumerate(self.prototypes):
            for i in group:
                if not 0 <= i < data.n_points or data.group_of[i] != g:
                    raise ValidationError(f"prototype row {i} does not belong to group {g}")


@dataclass(frozen=True)
class MetaPrototypes:
    """Free continuous points in embedding space, one (M, d) array per group."""

    points: tuple[np.ndarray, ...]

    def __post_init__(self):
        arrays = tuple(np.atleast_2d(np.asarray(p, dtype=float)) for p in self.points)
        object.__setattr__(self, "points", arrays)
        for arr in arrays:
            if not np.all(np.isfinite(arr)):
                raise NumericError("meta-prototypes must be finite")
            arr.setflags(write=False)


def snap(meta: MetaPrototypes, data: GroupedDataset) -> Summary:
    """Replace each meta-prototype with the nearest unused row of its group.

    Meta points are processed in order; when the nearest row was already taken
    by an earlier point of the same group, the next-nearest unused row is used.
    Distance ties prefer the smallest row index. The squared distances are a
    numpy row reduction, not cdist: cdist's last bits can reorder near-tied
    rows in 300 dimensions and so change which row a meta point takes. They
    are taken in row_blocks of 16 d bytes a row, straight from the dataset's
    rows, so no copy of the group is made.
    """
    if len(meta.points) != data.n_groups:
        raise ValidationError("meta-prototype group count does not match dataset")
    groups = []
    for g, A in enumerate(meta.points):
        rows = data.group_index[g]
        if A.shape[0] > rows.size:
            raise ValidationError(f"group {g} has fewer rows than meta-prototypes")
        blocks = row_blocks(rows.size, 16 * data.dim)
        used = np.zeros(rows.size, dtype=bool)
        chosen = []
        for a in A:
            d2 = np.concatenate([np.sum((data.points[rows[b]] - a) ** 2, axis=1) for b in blocks])
            order = np.lexsort((np.arange(rows.size), d2))
            local = next(int(i) for i in order if not used[i])
            used[local] = True
            chosen.append(int(rows[local]))
        groups.append(tuple(chosen))
    return Summary(prototypes=tuple(groups))


@dataclass(frozen=True)
class ObjectiveSpec:
    """Which utility to optimise, with its trade-off weight and kernel.

    kind 'nn' ignores lam.
    """

    kind: str
    kernel: KernelSpec
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValidationError(f"unknown objective kind {self.kind!r}")
        if not 0 <= self.lam < math.inf:
            raise ValidationError(f"lam must be finite and nonnegative, got {self.lam}")


def mmd2(X, Y, spec: KernelSpec) -> float:
    """Squared maximum mean discrepancy between two samples (biased estimator).

    mean k(x, x') - 2 mean k(x, y) + mean k(y, y'); nonnegative for the RBF
    kernel up to rounding. Each mean is a _kernel_mean, whose blocks stay
    within kernel.CHUNK_BYTES; a mean of one block has .mean()'s bits.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] == 0 or Y.shape[0] == 0:
        raise ValidationError("mmd2 requires nonempty samples")
    return _kernel_mean(X, X, spec) - 2.0 * _kernel_mean(X, Y, spec) + _kernel_mean(Y, Y, spec)


def _kernel_mean(X, Y, spec: KernelSpec) -> float:
    """mean k(x, y) over X x Y, summed over kernel_matrix row_blocks of X."""
    blocks = row_blocks(X.shape[0], 8 * Y.shape[0])
    return sum(float(kernel_matrix(X[b], Y, spec).sum()) for b in blocks) / (X.shape[0] * Y.shape[0])


def _prototype_points(summary: Summary, data: GroupedDataset, g: int) -> np.ndarray:
    """Group-g prototype coordinates of a Summary."""
    idx = summary.prototypes[g]
    if len(idx) == 0:
        raise ValidationError(f"group {g} has an empty prototype list")
    return data.points[list(idx)]


def group_nn_term(points_g: np.ndarray, data: GroupedDataset, g: int, spec: ObjectiveSpec) -> float:
    """sum over group-g points of the kernel similarity to their nearest prototype."""
    K = kernel_matrix(points_g, data.group_points(g), spec.kernel)
    return float(np.sum(K.max(axis=0)))


def group_mmd_term(points_g, data: GroupedDataset, g: int, spec: ObjectiveSpec, rest_self: float) -> float:
    """-MMD^2(P, own group) + lam * (kpp - 2 kpr + rest_self), with kpr = mean k(P, rest).

    'mmd-diff' takes kpp = mean k(P, P) and rest_self = mean k(rest, rest)
    (rest_self_means), so the lam term is lam * MMD^2(P, rest); 'mmd-div' has
    kpp = rest_self = 0. The rest is read only when lam > 0: kpr comes from one
    kernel.row_sums(points, P) pass, summed per group with np.bincount and then
    over the groups other than g, so no rest rows are copied.
    """
    value = -mmd2(points_g, data.group_points(g), spec.kernel)
    if spec.lam > 0:
        kpp = 0.0
        if spec.kind == "mmd-diff":
            kpp = float(kernel_matrix(points_g, points_g, spec.kernel).mean())
        per_group = np.bincount(data.group_of, weights=row_sums(data.points, points_g, spec.kernel))
        n_rest = data.n_points - data.group_index[g].size
        kpr = float(np.delete(per_group, g).sum()) / (len(points_g) * n_rest)
        value += spec.lam * (kpp - 2.0 * kpr + rest_self)
    return value


def _require_rest(data: GroupedDataset):
    if data.n_groups < 2:
        raise ValidationError("comparative objectives need at least 2 groups when lam > 0")


def rest_self_means(data: GroupedDataset, R: np.ndarray) -> np.ndarray:
    """mean k(x, x') over the points outside group g, for every group g, from
    R, the kernel.group_sums table of data under one kernel.

    The block sums S[g, h] of k over group g x group h are R summed by the
    point's group, so the pass over half the point pairs is the one the
    greedy state reads too. Group g's mean sums the blocks outside row and
    column g, which, unlike subtracting them from the total, loses nothing to
    cancellation when one group holds most of the points.
    """
    _require_rest(data)
    G = data.n_groups
    S = np.array([np.bincount(data.group_of, weights=R[:, h], minlength=G) for h in range(G)]).T
    n_rest = data.n_points - data.group_sizes()
    others = ~np.eye(G, dtype=bool)
    return np.array([S[np.ix_(others[g], others[g])].sum() for g in range(G)]) / n_rest**2


def coefficients(spec: ObjectiveSpec) -> tuple[float, float]:
    """(a, lam) of the shared form of every MMD kind.

    Up to a constant that does not depend on the prototypes P, the per-group
    value is a * mean k(P, P) + 2 * mean k(P, own) - 2 * lam * mean k(P, rest):
    a = lam - 1 for 'mmd-diff' and a = -1 for 'mmd-div'.
    """
    if spec.kind == "mmd-diff":
        return spec.lam - 1.0, spec.lam
    if spec.kind == "mmd-div":
        return -1.0, spec.lam
    raise ValidationError(f"{spec.kind!r} is not an MMD objective")


def point_weights(data: GroupedDataset, spec: ObjectiveSpec, counts) -> tuple[np.ndarray, np.ndarray]:
    """(own_w, rest_w): per group g with m_g = counts[g] prototypes, the shared
    form's weight of k(p, x) for a prototype p of g, 2/(m_g n_g) for x in g and
    -2 lam/(m_g n_rest) for x outside it. The greedy state takes every m_g = 1."""
    if spec.lam > 0:
        _require_rest(data)
    m = np.asarray(counts)
    n_own = data.group_sizes()
    # a single group has no rest; its weight is then unused (lam = 0)
    n_rest = np.maximum(data.n_points - n_own, 1)
    return 2.0 / (m * n_own), -2.0 * spec.lam / (m * n_rest)


def utility_value(spec: ObjectiveSpec, summary: Summary, data: GroupedDataset, sums=None) -> float:
    """Utility of a Summary under spec: the sum of the kind's per-group term
    over the groups (group_mmd_term for both MMD kinds). Any other selection,
    MetaPrototypes included, is a ValidationError.

    With lam > 0 it makes point_weights' two-group check, and 'mmd-diff' takes
    every group's mean k(rest, rest) from sums, the caller's kernel.group_sums
    table of data at spec.kernel (rest_self_means), or a fresh pass when sums
    is None; only that case reads a table, and no rest x rest kernel is
    built.
    """
    if not isinstance(summary, Summary):
        raise ValidationError(f"utility_value takes a Summary, got {type(summary).__name__}")
    summary.validate_against(data)
    points = [_prototype_points(summary, data, g) for g in range(data.n_groups)]
    if spec.kind == "nn":
        return sum(group_nn_term(P, data, g, spec) for g, P in enumerate(points))
    rest_self = [0.0] * len(points)
    if spec.lam > 0:
        _require_rest(data)
        if spec.kind == "mmd-diff":
            R = group_sums(data, spec.kernel) if sums is None else sums
            rest_self = rest_self_means(data, R).tolist()
    return sum(group_mmd_term(P, data, g, spec, rest_self[g]) for g, P in enumerate(points))
