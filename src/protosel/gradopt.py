"""Continuous relaxation of the comparative objectives.

Prototypes are relaxed to free points ("meta-prototypes") in embedding space,
optimised together by limited-memory quasi-Newton ascent of one weighted kernel
sum over all groups, the form of objectives.shared_form that the greedy reads
too, at the build's M prototypes a group. They are then snapped back to the
nearest unused data point of their group by objectives.snap (also reachable
as gradopt.snap). The greedy and kmeans initialisations come from greedy and
baselines, neither of which imports this module. Gradients use
d/da k(a, x) = 2 * gamma * k(a, x) * (x - a). The evaluator builds its
weights and the centred points once per optimisation, and takes both
kernels, the prototypes against the points and against each other, and so
its value and its gradient, from one GEMM block per evaluation. That block
and the gradient's GEMM are BLAS, so their last bits follow the BLAS thread
count (cli.pin_blas_threads). selftest checks its gradient against central
differences of the definitional per-group terms, and its value and gradient
against a reference that takes both kernels from cdist.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .baselines import kmeans_centers
from .corpus import GroupedDataset
from .errors import ValidationError
from .greedy import greedy_select
from .objectives import MetaPrototypes, ObjectiveSpec, Summary, shared_form, snap

INIT_MODES = ("greedy", "kmeans", "random")


# L-BFGS settings: iteration cap, stop tolerance on the gradient infinity
# norm, and quasi-Newton history size.
MAX_ITERATIONS = 500
GRADIENT_TOLERANCE = 1e-6
HISTORY_SIZE = 10


class _MetaObjective:
    """objectives.shared_form over all groups at once, at M prototypes a group.

    Everything that stays fixed during one optimisation is built once. G0
    (prototypes x (points + prototypes)) holds the weights of one kernel
    block: W0 on the points, the form's point weights at M by the owner group
    of each prototype row, and twice the within-group weights a/M^2 on the
    prototypes. R ((points + prototypes) x (d + 2)) holds the GEMM's right
    factor: a point row is [2 gamma xc, -gamma, -gamma ||xc||^2], xc the
    point centred on the points' mean, and is the one centred copy of the
    points; value_grad writes the prototype rows. L (prototypes x (d + 2))
    is the left factor's buffer.

    Values leave out the selection-independent constants (mean self-kernels
    of each group and of its complement): they only shift the objective, and
    L-BFGS would pay for them on every evaluation. The reported value of a
    snapped summary, constants included, is objectives.utility_value.
    """

    def __init__(self, data: GroupedDataset, spec: ObjectiveSpec, M: int):
        a, own_w, rest_w = shared_form(data, spec, M)
        gamma = self.gamma = spec.kernel.gamma
        owner = np.repeat(np.arange(data.n_groups), M)[:, None]
        (n, d), p = data.points.shape, owner.shape[0]
        self.G0 = np.empty((p, n + p))
        self.G0[:, :n] = np.where(owner == data.group_of, own_w[owner], rest_w[owner])
        self.G0[:, n:] = np.where(owner == owner.T, 2.0 * a / M**2, 0.0)
        self.center = data.points.mean(axis=0)
        self.R = np.empty((n + p, d + 2))
        xc = self.R[:n, :d]
        np.subtract(data.points, self.center, out=xc)
        self.R[:n, d + 1] = -gamma * np.einsum("ij,ij->i", xc, xc)
        xc *= 2.0 * gamma
        self.R[:, d] = -gamma
        self.L = np.ones((p, d + 2))

    def value_grad(self, A) -> tuple[float, np.ndarray]:
        """Value at the stacked prototypes A (group order), and its gradient.

        For a row of group g, the value sums k(A, points) weighted 2/(M n_g)
        on group g and -2 lam/(M n_rest) elsewhere, and k(A, A) weighted
        a/M^2 within a group. Both kernels come from one block: L @ R.T,
        with L's rows [ac, ||ac||^2, 1] for the centred prototypes ac, gives
        -gamma ||a - y||^2 for every point and prototype y; it is clamped at
        0, exponentiated and weighted by G0. The value is the block's sum
        less half its prototype columns, and the gradient
        2 gamma sum_y w k(a, y) (y - a) is the block times R's first d
        columns less 2 gamma ac times the block's row sums. Everything is in
        centred coordinates, so the cancellation error follows the data's
        spread, not its offset.
        """
        ac, p = self.L[:, :-2], self.L.shape[0]
        np.subtract(A, self.center, out=ac)
        self.L[:, -2] = np.einsum("ij,ij->i", ac, ac)
        np.multiply(ac, 2.0 * self.gamma, out=self.R[-p:, :-2])
        np.multiply(self.L[:, -2], -self.gamma, out=self.R[-p:, -1])
        W = self.L @ self.R.T
        np.minimum(W, 0.0, out=W)
        np.exp(W, out=W)
        W *= self.G0
        r = W.sum(axis=1)
        grad = W @ self.R[:, :-2] - (2.0 * self.gamma * r)[:, None] * ac
        return float(r.sum() - 0.5 * W[:, -p:].sum()), grad


def _initial_points(data: GroupedDataset, spec: ObjectiveSpec, M: int, init: str, seed: int, sums):
    if init not in INIT_MODES:
        raise ValidationError(f"init must be one of {INIT_MODES}, got {init!r}")
    if init == "greedy":
        summary = greedy_select(data, spec, M, sums)
        return [data.points[list(summary.prototypes[g])].copy() for g in range(data.n_groups)]
    if init == "kmeans":
        return kmeans_centers(data, M, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for g in range(data.n_groups):
        rows = rng.choice(data.group_index[g].size, size=M, replace=False)
        out.append(data.group_points(g)[np.sort(rows)].copy())
    return out


def optimize_meta(
    data: GroupedDataset,
    spec: ObjectiveSpec,
    M: int,
    init: str = "greedy",
    seed: int = 0,
    sums=None,
) -> MetaPrototypes:
    """Limited-memory quasi-Newton ascent of the meta-prototype objective.

    init is one of INIT_MODES (any other is a ValidationError), and seed
    seeds the kmeans and random modes. sums is the kernel.group_sums table
    of data at spec.kernel, or None for a fresh pass; only the greedy
    initialization reads it. Runs from that initialization until the
    gradient infinity norm drops below the tolerance or the iteration cap is
    reached. The line search never accepts a step that decreases the
    objective, and as a final guard the initialization is returned
    unchanged if the optimizer failed to improve it. minimize is
    looked up in this module at call time, so a wrapper put there sees the
    objective at the initialization and at every accepted iterate.
    """
    data.require_rows(M)
    evaluator = _MetaObjective(data, spec, M)
    x0 = np.vstack(_initial_points(data, spec, M, init, seed, sums))

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
    data: GroupedDataset, spec: ObjectiveSpec, M: int, init: str = "greedy", seed: int = 0, sums=None
) -> Summary:
    """Full gradient pipeline: optimise meta-prototypes (see optimize_meta for
    init, seed and sums), then snap them to rows."""
    return snap(optimize_meta(data, spec, M, init, seed, sums), data)
