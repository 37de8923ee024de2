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
from .objectives import MetaPrototypes, ObjectiveSpec, Provenance, Summary, utility_value

_INIT_MODES = ("greedy", "kmeans", "random")


@dataclass(frozen=True)
class GradConfig:
    """Optimizer settings: iteration cap, stop tolerance on the gradient
    infinity norm, quasi-Newton history size, and initialization mode."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-6
    history_size: int = 10
    init: str = "greedy"
    random_seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.history_size < 1:
            raise ValidationError("history_size must be >= 1")
        if self.gradient_tolerance <= 0:
            raise ValidationError("gradient_tolerance must be positive")
        if self.init not in _INIT_MODES:
            raise ValidationError(f"init must be one of {_INIT_MODES}, got {self.init!r}")


class _MetaObjective:
    """Cached per-group data for repeated value/gradient evaluations.

    Values leave out the selection-independent constants (mean self-kernels
    of each group and of its complement): they only shift the objective, and
    computing them is quadratic in the dataset size.
    """

    def __init__(self, data: GroupedDataset, spec: ObjectiveSpec):
        if spec.kind not in ("mmd-diff", "mmd-div"):
            raise ValidationError(f"gradient path supports mmd-diff and mmd-div, got {spec.kind!r}")
        if spec.lam > 0 and data.n_groups < 2:
            raise ValidationError("comparative objectives need at least 2 groups when lam > 0")
        self.spec = spec
        self.gamma = spec.kernel.gamma
        self.own = [data.group_points(g) for g in range(data.n_groups)]
        if spec.lam > 0:
            self.rest = [data.rest_points(g) for g in range(data.n_groups)]

    def _cross_grad(self, A, X, K):
        """Gradient of mean k(a_l, x_j) over the rows of A; K is the A-vs-X kernel."""
        m, n = K.shape
        return (2.0 * self.gamma / (m * n)) * (K @ X - K.sum(axis=1)[:, None] * A)

    def _self_grad(self, A, K):
        """Gradient of mean k(a_i, a_j) over the rows of A; K is the A self kernel."""
        m = K.shape[0]
        return (4.0 * self.gamma / (m * m)) * (K @ A - K.sum(axis=1)[:, None] * A)

    def value_grad(self, groups) -> tuple[float, list]:
        spec = self.spec
        value = 0.0
        grads = []
        for g, A in enumerate(groups):
            K_aa = kernel_matrix(A, A, spec.kernel).values
            K_ao = kernel_matrix(A, self.own[g], spec.kernel).values
            kpp = float(K_aa.mean())
            kpo = float(K_ao.mean())
            t_own = kpp - 2.0 * kpo
            grad_own = self._self_grad(A, K_aa) - 2.0 * self._cross_grad(A, self.own[g], K_ao)
            term = -t_own
            grad = -grad_own
            if spec.lam > 0:
                K_ar = kernel_matrix(A, self.rest[g], spec.kernel).values
                kpr = float(K_ar.mean())
                if spec.kind == "mmd-diff":
                    t_rest = kpp - 2.0 * kpr
                    term += spec.lam * t_rest
                    grad = grad + spec.lam * (
                        self._self_grad(A, K_aa) - 2.0 * self._cross_grad(A, self.rest[g], K_ar)
                    )
                else:
                    term -= 2.0 * spec.lam * kpr
                    grad = grad - 2.0 * spec.lam * self._cross_grad(A, self.rest[g], K_ar)
            value += term
            grads.append(grad)
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
            "maxiter": config.max_iterations,
            "maxcor": config.history_size,
            "gtol": config.gradient_tolerance,
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
    return Summary(prototypes=tuple(groups), m_target=max(len(g) for g in groups), provenance=None)


def gradient_summary(
    data: GroupedDataset, spec: ObjectiveSpec, M: int, config: GradConfig = GradConfig()
) -> Summary:
    """Full gradient pipeline: optimise meta-prototypes, snap, attach provenance."""
    meta = optimize_meta(data, spec, M, config)
    summary = snap(meta, data)
    prov = Provenance(
        objective=spec.kind, optimizer="gradient", gamma=spec.kernel.gamma, lam=spec.lam
    )
    return Summary(prototypes=summary.prototypes, m_target=M, provenance=prov)
