"""Pure evaluation of all summary utility functions.

Every function here is stateless and recomputes from its arguments; the
optimizer modules keep incremental caches and are cross-checked against these
in tests. A summary is scored per group: coverage of its own group, and
(for the comparative objectives) separation from all other groups. The one
selection-independent constant a value needs, each group's mean kernel over
the points outside it, comes for every group at once from the dataset's
kernel.group_sums table (rest_self_means), the pass the greedy state reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import GroupedDataset
from .errors import NumericError, ValidationError
from .kernel import KernelSpec, group_sums, kernel_matrix

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
    kernel up to rounding.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] == 0 or Y.shape[0] == 0:
        raise ValidationError("mmd2 requires nonempty samples")
    kxx = float(kernel_matrix(X, X, spec).mean())
    kxy = float(kernel_matrix(X, Y, spec).mean())
    kyy = float(kernel_matrix(Y, Y, spec).mean())
    return kxx - 2.0 * kxy + kyy


def _prototype_points(selection, data: GroupedDataset, g: int) -> np.ndarray:
    """Group-g prototype coordinates from either a Summary or MetaPrototypes."""
    if isinstance(selection, Summary):
        idx = selection.prototypes[g]
        if len(idx) == 0:
            raise ValidationError(f"group {g} has an empty prototype list")
        return data.points[list(idx)]
    if isinstance(selection, MetaPrototypes):
        pts = selection.points[g]
        if pts.shape[0] == 0:
            raise ValidationError(f"group {g} has no meta-prototypes")
        return pts
    raise ValidationError(f"unsupported selection type {type(selection).__name__}")


def group_nn_term(points_g: np.ndarray, data: GroupedDataset, g: int, spec: ObjectiveSpec) -> float:
    """sum over group-g points of the kernel similarity to their nearest prototype."""
    K = kernel_matrix(points_g, data.group_points(g), spec.kernel)
    return float(np.sum(K.max(axis=0)))


def group_diff_term(
    points_g, data: GroupedDataset, g: int, spec: ObjectiveSpec, rest_self: float
) -> float:
    """-MMD^2(prototypes, own group) + lam * MMD^2(prototypes, rest).

    rest_self is mean k(rest, rest), read only when lam > 0; rest_self_means
    gives it and rejects a single group.
    """
    value = -mmd2(points_g, data.group_points(g), spec.kernel)
    if spec.lam > 0:
        kpp = float(kernel_matrix(points_g, points_g, spec.kernel).mean())
        kpr = float(kernel_matrix(points_g, data.rest_points(g), spec.kernel).mean())
        value += spec.lam * (kpp - 2.0 * kpr + rest_self)
    return value


def group_div_term(points_g, data: GroupedDataset, g: int, spec: ObjectiveSpec) -> float:
    """-MMD^2(prototypes, own group) - 2 lam * mean k(prototype, point outside group)."""
    value = -mmd2(points_g, data.group_points(g), spec.kernel)
    if spec.lam > 0:
        rest = data.rest_points(g)
        if rest.shape[0] == 0:
            raise ValidationError("comparative term needs at least 2 groups when lam > 0")
        cross = float(kernel_matrix(points_g, rest, spec.kernel).mean())
        value -= 2.0 * spec.lam * cross
    return value


def rest_self_means(data: GroupedDataset, kernel: KernelSpec) -> np.ndarray:
    """mean k(x, x') over the points outside group g, for every group g.

    The block sums S[g, h] of k over group g x group h are the kernel.group_sums
    table summed by the point's group, so the pass over half the point pairs
    is the one the greedy state reads too. Group g's mean sums the blocks
    outside row and column g, which, unlike subtracting them from the total,
    loses nothing to cancellation when one group holds most of the points.
    """
    G = data.n_groups
    if G < 2:
        raise ValidationError("comparative term needs at least 2 groups when lam > 0")
    R = group_sums(data, kernel)
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


def utility_value(spec: ObjectiveSpec, selection, data: GroupedDataset) -> float:
    """Utility of a Summary or MetaPrototypes under spec: the sum of the
    kind's per-group term over the groups.

    'mmd-diff' with lam > 0 takes every group's mean k(rest, rest) from the
    dataset's kernel.group_sums table, one pass over about half the N^2 point
    pairs shared with the greedy state; no rest x rest kernel is built.
    """
    if isinstance(selection, Summary):
        selection.validate_against(data)
    points = [_prototype_points(selection, data, g) for g in range(data.n_groups)]
    if spec.kind == "nn":
        terms = (group_nn_term(P, data, g, spec) for g, P in enumerate(points))
    elif spec.kind == "mmd-div":
        terms = (group_div_term(P, data, g, spec) for g, P in enumerate(points))
    else:
        rest_self = [0.0] * len(points)
        if spec.lam > 0:
            rest_self = rest_self_means(data, spec.kernel).tolist()
        terms = (group_diff_term(P, data, g, spec, rest_self[g]) for g, P in enumerate(points))
    return sum(terms)
