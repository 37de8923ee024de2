"""Continuous relaxation of the comparative objectives.

Prototypes are relaxed to free points ("meta-prototypes") in embedding space,
optimised together by limited-memory quasi-Newton ascent of one weighted kernel
sum over all groups, then snapped back to the nearest unused data point of their
group by objectives.snap (also reachable as gradopt.snap). The greedy and kmeans
initialisations come from greedy and baselines, neither of which imports this
module. Gradients use d/da k(a, x) = 2 * gamma * k(a, x) * (x - a). The
evaluator builds its weights and the centred points once per optimisation,
and forms the prototype x points kernel from one GEMM per evaluation.
selftest checks its gradient against central differences of the
definitional per-group terms, and its value and gradient against a
reference that takes both kernels from cdist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .baselines import kmeans_centers
from .corpus import GroupedDataset
from .errors import ValidationError
from .greedy import greedy_select
from .kernel import kernel_matrix
from .objectives import MetaPrototypes, ObjectiveSpec, Summary, coefficients, point_weights, snap

INIT_MODES = ("greedy", "kmeans", "random")


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
        if self.init not in INIT_MODES:
            raise ValidationError(f"init must be one of {INIT_MODES}, got {self.init!r}")


class _MetaObjective:
    """The shared form of objectives.coefficients over all groups at once.

    Everything that stays fixed during one optimisation is built once: the
    weight masks W0 (prototypes x points), which take objectives.point_weights
    at the prototype count of each group (counts, in group order) by the
    owner group of each prototype row, and S0 (prototypes x prototypes), and
    the points centred on their mean with their squared norms. value_grad
    then takes the stacked prototypes.

    Values leave out the selection-independent constants (mean self-kernels
    of each group and of its complement): they only shift the objective, and
    L-BFGS would pay for them on every evaluation. The reported value of a
    snapped summary, constants included, is objectives.utility_value.
    """

    def __init__(self, data: GroupedDataset, spec: ObjectiveSpec, counts):
        if spec.kind not in ("mmd-diff", "mmd-div"):
            raise ValidationError(f"gradient path supports mmd-diff and mmd-div, got {spec.kind!r}")
        if len(counts) != data.n_groups:
            raise ValidationError("meta-prototype group count does not match dataset")
        if min(counts) < 1:
            raise ValidationError("every group needs at least one meta-prototype")
        own_w, rest_w = point_weights(data, spec, counts)
        a = coefficients(spec)[0]
        self.kernel = spec.kernel
        owner = np.repeat(np.arange(data.n_groups), counts)[:, None]
        m = np.asarray(counts)[owner]
        self.W0 = np.where(owner == data.group_of, own_w[owner], rest_w[owner])
        self.S0 = np.where(owner == owner.T, a / m**2, 0.0)
        self.center = data.points.mean(axis=0)
        self.Xc = data.points - self.center
        self.x2 = np.einsum("ij,ij->i", self.Xc, self.Xc)

    def value_grad(self, A) -> tuple[float, np.ndarray]:
        """Value at the stacked prototypes A (group order), and its gradient.

        With m the prototype count of a row's group g, the value sums k(A,
        points) weighted 2/(m n_g) on group g and -2 lam/(m n_rest) elsewhere,
        and k(A, A) weighted a/m^2 within a group. k(A, points) comes from
        ||a||^2 + ||x||^2 - 2 a.x clamped at 0; it and the gradient's weighted
        sums of x - a are formed in centred coordinates, so the cancellation
        error follows the data's spread, not its offset.
        """
        Ac = A - self.center
        W = (-2.0 * Ac) @ self.Xc.T
        W += np.einsum("ij,ij->i", Ac, Ac)[:, None]
        W += self.x2
        np.maximum(W, 0.0, out=W)
        W *= -self.kernel.gamma
        np.exp(W, out=W)
        W *= self.W0
        S = self.S0 * kernel_matrix(A, A, self.kernel)
        w, s = W.sum(axis=1), S.sum(axis=1)
        grad = 2.0 * self.kernel.gamma * (W @ self.Xc + 2.0 * S @ Ac - (w + 2.0 * s)[:, None] * Ac)
        return float(w.sum() + s.sum()), grad


def _initial_points(data: GroupedDataset, spec: ObjectiveSpec, M: int, config: GradConfig, sums):
    if config.init == "greedy":
        summary = greedy_select(data, spec, M, sums)
        return [data.points[list(summary.prototypes[g])].copy() for g in range(data.n_groups)]
    if config.init == "kmeans":
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
    sums=None,
) -> MetaPrototypes:
    """Limited-memory quasi-Newton ascent of the meta-prototype objective.

    sums(kernel) is the kernel.group_sums table of data (None: a fresh pass);
    only the greedy initialization reads it. Runs from the configured
    initialization until the gradient infinity norm drops below the tolerance
    or the iteration cap is reached. The line search never accepts a step
    that decreases the objective, and as a final guard the initialization is
    returned unchanged if the optimizer failed to improve it. minimize is
    looked up in this module at call time, so a wrapper put there sees the
    objective at the initialization and at every accepted iterate.
    """
    data.require_rows(M)
    evaluator = _MetaObjective(data, spec, [M] * data.n_groups)
    x0 = np.vstack(_initial_points(data, spec, M, config, sums))

    def negated(x):
        value, grad = evaluator.value_grad(x.reshape(x0.shape))
        return -value, -grad.ravel()

    value_init = evaluator.value_grad(x0)[0]
    res = minimize(
        negated,
        x0.ravel(),
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": MAX_ITERATIONS,
            "maxcor": HISTORY_SIZE,
            "gtol": GRADIENT_TOLERANCE,
            "ftol": 0.0,
        },
    )
    final = res.x.reshape(x0.shape)
    if evaluator.value_grad(final)[0] < value_init:
        final = x0
    return MetaPrototypes(points=tuple(np.split(final, data.n_groups)))


def gradient_summary(
    data: GroupedDataset, spec: ObjectiveSpec, M: int, config: GradConfig = GradConfig(), sums=None
) -> Summary:
    """Full gradient pipeline: optimise meta-prototypes (see optimize_meta for
    sums), then snap them to rows."""
    return snap(optimize_meta(data, spec, M, config, sums), data)
