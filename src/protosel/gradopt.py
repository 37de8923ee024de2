"""Continuous relaxation of the comparative objectives.

Prototypes are relaxed to free points ("meta-prototypes") in embedding space,
optimised together by limited-memory quasi-Newton ascent of one weighted kernel
sum over all groups, then snapped back to the nearest unused data point of their
group. Gradients use d/da k(a, x) = 2 * gamma * k(a, x) * (x - a) and are
checked against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .corpus import GroupedDataset
from .errors import ValidationError
from .kernel import kernel_matrix
from .objectives import MetaPrototypes, ObjectiveSpec, Summary, coefficients, utility_value

_INIT_MODES = ("greedy", "kmeans", "random")


# L-BFGS settings: iteration cap, stop tolerance on the gradient infinity
# norm, and quasi-Newton history size.
MAX_ITERATIONS = 500
GRADIENT_TOLERANCE = 1e-6
HISTORY_SIZE = 10


@dataclass(frozen=True)
class GradConfig:
    """Optimizer initialization: mode and the seed of the random modes."""

    init: str = "greedy"
    random_seed: int = 0

    def __post_init__(self):
        if self.init not in _INIT_MODES:
            raise ValidationError(f"init must be one of {_INIT_MODES}, got {self.init!r}")


class _MetaObjective:
    """The shared form of objectives.coefficients over all groups at once.

    Values leave out the selection-independent constants (mean self-kernels
    of each group and of its complement): they only shift the objective, and
    L-BFGS would pay for them on every evaluation. utility_value adds them for
    the reported value, the complements' from one streamed N^2 pass.
    """

    def __init__(self, data: GroupedDataset, spec: ObjectiveSpec):
        if spec.kind not in ("mmd-diff", "mmd-div"):
            raise ValidationError(f"gradient path supports mmd-diff and mmd-div, got {spec.kind!r}")
        if spec.lam > 0 and data.n_groups < 2:
            raise ValidationError("comparative objectives need at least 2 groups when lam > 0")
        self.spec = spec
        self.a, self.lam = coefficients(spec)
        self.data = data

    def value_grad(self, groups) -> tuple[float, np.ndarray]:
        """Value at the groups' prototype arrays, and its gradient stacked in group order.

        Over the stacked prototypes A, with m the prototype count of a row's
        group g, the value sums k(A, points) weighted 2/(m n_g) on group g and
        -2 lam/(m n_rest) elsewhere, and k(A, A) weighted a/m^2 within a group.
        """
        X = self.data.points
        A = np.vstack(groups)
        owner = np.repeat(np.arange(len(groups)), [P.shape[0] for P in groups])[:, None]
        m = np.bincount(owner[:, 0])[owner]
        n_own = self.data.group_sizes()[owner]
        # a single group has no rest; its weight is then unused (lam = 0)
        n_rest = np.maximum(self.data.n_points - n_own, 1)
        W = np.where(owner == self.data.group_of, 2.0 / (m * n_own), -2.0 * self.lam / (m * n_rest))
        W *= kernel_matrix(A, X, self.spec.kernel)
        S = np.where(owner == owner.T, self.a / m**2, 0.0) * kernel_matrix(A, A, self.spec.kernel)
        row = W.sum(axis=1) + 2.0 * S.sum(axis=1)
        grad = 2.0 * self.spec.kernel.gamma * (W @ X + 2.0 * S @ A - row[:, None] * A)
        return float(W.sum() + S.sum()), grad


def grad_meta_objective(
    meta: MetaPrototypes, data: GroupedDataset, spec: ObjectiveSpec
) -> tuple[float, MetaPrototypes]:
    """Utility value at the meta-prototypes and its gradient, same shape as meta."""
    _, grad = _MetaObjective(data, spec).value_grad(list(meta.points))
    ends = np.cumsum([P.shape[0] for P in meta.points])[:-1]
    return utility_value(spec, meta, data), MetaPrototypes(points=tuple(np.split(grad, ends)))


def _initial_points(data: GroupedDataset, spec: ObjectiveSpec, M: int, config: GradConfig):
    if config.init == "greedy":
        from .greedy import greedy_select

        summary = greedy_select(data, spec, M)
        return [data.points[list(summary.prototypes[g])].copy() for g in range(data.n_groups)]
    if config.init == "kmeans":
        from .baselines import kmeans_centers

        return kmeans_centers(data, M, config.random_seed)
    rng = np.random.Generator(np.random.PCG64(config.random_seed))
    out = []
    for g in range(data.n_groups):
        rows = rng.choice(data.group_index[g].size, size=M, replace=False)
        out.append(data.group_points(g)[np.sort(rows)].copy())
    return out


def optimize_meta(
    data: GroupedDataset,
    spec: ObjectiveSpec,
    M: int,
    config: GradConfig = GradConfig(),
    value_trace: list | None = None,
) -> MetaPrototypes:
    """Limited-memory quasi-Newton ascent of the meta-prototype objective.

    Runs from the configured initialization until the gradient infinity norm
    drops below the tolerance or the iteration cap is reached. The line search
    never accepts a step that decreases the objective, and as a final guard the
    initialization is returned unchanged if the optimizer failed to improve it.
    value_trace, if given, collects the objective (up to its selection
    independent constant) at the initialization and at every accepted iterate.
    """
    sizes = data.group_sizes()
    if M < 1 or M > int(sizes.min()):
        raise ValidationError(f"M must be in [1, {int(sizes.min())}], got {M}")
    evaluator = _MetaObjective(data, spec)
    init_groups = _initial_points(data, spec, M, config)
    x0 = np.vstack(init_groups)

    def split(x):
        return np.split(x.reshape(x0.shape), len(init_groups))

    def negated(x):
        value, grad = evaluator.value_grad(split(x))
        return -value, -grad.ravel()

    value_init = evaluator.value_grad(init_groups)[0]
    callback = None
    if value_trace is not None:
        value_trace.append(value_init)
        callback = lambda xk: value_trace.append(evaluator.value_grad(split(xk))[0])
    res = minimize(
        negated,
        x0.ravel(),
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={
            "maxiter": MAX_ITERATIONS,
            "maxcor": HISTORY_SIZE,
            "gtol": GRADIENT_TOLERANCE,
            "ftol": 0.0,
        },
    )
    final_groups = split(res.x)
    value_final = evaluator.value_grad(final_groups)[0]
    if value_final < value_init:
        final_groups = init_groups
    return MetaPrototypes(points=tuple(final_groups))


def snap(meta: MetaPrototypes, data: GroupedDataset) -> Summary:
    """Replace each meta-prototype with the nearest unused row of its group.

    Meta points are processed in order; when the nearest row was already taken
    by an earlier point of the same group, the next-nearest unused row is used.
    Distance ties prefer the smallest row index.
    """
    if len(meta.points) != data.n_groups:
        raise ValidationError("meta-prototype group count does not match dataset")
    groups = []
    for g, A in enumerate(meta.points):
        rows = data.group_index[g]
        if A.shape[0] > rows.size:
            raise ValidationError(f"group {g} has fewer rows than meta-prototypes")
        Xg = data.group_points(g)
        used = np.zeros(rows.size, dtype=bool)
        chosen = []
        for a in A:
            d2 = np.sum((Xg - a) ** 2, axis=1)
            order = np.lexsort((np.arange(rows.size), d2))
            local = next(int(i) for i in order if not used[i])
            used[local] = True
            chosen.append(int(rows[local]))
        groups.append(tuple(chosen))
    return Summary(prototypes=tuple(groups))


def gradient_summary(
    data: GroupedDataset, spec: ObjectiveSpec, M: int, config: GradConfig = GradConfig()
) -> Summary:
    """Full gradient pipeline: optimise meta-prototypes, then snap them to rows."""
    return snap(optimize_meta(data, spec, M, config), data)
