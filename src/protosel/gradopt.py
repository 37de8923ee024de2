"""Continuous relaxation of the comparative objectives.

Prototypes are relaxed to free points ("meta-prototypes") in embedding space,
optimised by limited-memory quasi-Newton ascent with analytic gradients, then
snapped back to the nearest unused data point of their group. Gradients are
derived from the empirical MMD sums via d/da k(a, x) = 2 * gamma * k(a, x) * (x - a)
and are checked against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .corpus import GroupedDataset
from .errors import ValidationError
from .kernel import kernel_matrix
from .objectives import (
    MetaPrototypes,
    ObjectiveSpec,
    Provenance,
    Summary,
    coefficients,
    utility_value,
)

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
    """Cached per-group data for repeated value/gradient evaluations.

    Values are the shared form of objectives.coefficients, which leaves out
    the selection-independent constants (mean self-kernels of each group and
    of its complement): they only shift the objective, and computing them is
    quadratic in the dataset size.
    """

    def __init__(self, data: GroupedDataset, spec: ObjectiveSpec):
        if spec.kind not in ("mmd-diff", "mmd-div"):
            raise ValidationError(f"gradient path supports mmd-diff and mmd-div, got {spec.kind!r}")
        if spec.lam > 0 and data.n_groups < 2:
            raise ValidationError("comparative objectives need at least 2 groups when lam > 0")
        self.spec = spec
        self.a, self.lam = coefficients(spec)
        self.gamma = spec.kernel.gamma
        self.own = [data.group_points(g) for g in range(data.n_groups)]
        if self.lam > 0:
            self.rest = [data.rest_points(g) for g in range(data.n_groups)]

    def _cross(self, A, X):
        """mean k(a_l, x_j) over the rows of A and X, and its gradient in A."""
        K = kernel_matrix(A, X, self.spec.kernel)
        m, n = K.shape
        grad = (2.0 * self.gamma / (m * n)) * (K @ X - K.sum(axis=1)[:, None] * A)
        return float(K.mean()), grad

    def value_grad(self, groups) -> tuple[float, list]:
        value = 0.0
        grads = []
        for g, A in enumerate(groups):
            K = kernel_matrix(A, A, self.spec.kernel)
            m = K.shape[0]
            self_grad = (4.0 * self.gamma / (m * m)) * (K @ A - K.sum(axis=1)[:, None] * A)
            kpo, grad_po = self._cross(A, self.own[g])
            kpr, grad_pr = self._cross(A, self.rest[g]) if self.lam > 0 else (0.0, 0.0)
            value += self.a * float(K.mean()) + 2.0 * kpo - 2.0 * self.lam * kpr
            grads.append(self.a * self_grad + 2.0 * grad_po - 2.0 * self.lam * grad_pr)
        return value, grads


def grad_meta_objective(
    meta: MetaPrototypes, data: GroupedDataset, spec: ObjectiveSpec
) -> tuple[float, MetaPrototypes]:
    """Utility value at the meta-prototypes and its gradient, same shape as meta."""
    _, grads = _MetaObjective(data, spec).value_grad(list(meta.points))
    return utility_value(spec, meta, data), MetaPrototypes(points=tuple(grads))


def _initial_points(data: GroupedDataset, spec: ObjectiveSpec, M: int, config: GradConfig):
    if config.init == "greedy":
        from .greedy import greedy_select

        summary = greedy_select(data, spec, M)
        return [data.points[list(summary.prototypes[g])].copy() for g in range(data.n_groups)]
    if config.init == "kmeans":
        from .baselines import lloyd

        out = []
        for g in range(data.n_groups):
            model = lloyd(data.group_points(g), M, seed=config.random_seed + g)
            out.append(model.centers.copy())
        return out
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
    shapes = [a.shape for a in init_groups]
    x0 = np.concatenate([a.ravel() for a in init_groups])

    def unflatten(x):
        out = []
        offset = 0
        for shape in shapes:
            size = shape[0] * shape[1]
            out.append(x[offset : offset + size].reshape(shape))
            offset += size
        return out

    def negated(x):
        value, grads = evaluator.value_grad(unflatten(x))
        return -value, -np.concatenate([g.ravel() for g in grads])

    value_init = evaluator.value_grad(init_groups)[0]
    callback = None
    if value_trace is not None:
        value_trace.append(value_init)
        callback = lambda xk: value_trace.append(evaluator.value_grad(unflatten(xk))[0])
    res = minimize(
        negated,
        x0,
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
    final_groups = [a.copy() for a in unflatten(res.x)]
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
    """Full gradient pipeline: optimise meta-prototypes, snap, attach provenance."""
    meta = optimize_meta(data, spec, M, config)
    summary = snap(meta, data)
    prov = Provenance(
        objective=spec.kind, optimizer="gradient", gamma=spec.kernel.gamma, lam=spec.lam
    )
    return Summary(prototypes=summary.prototypes, provenance=prov)
