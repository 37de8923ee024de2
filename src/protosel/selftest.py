"""Fast built-in oracle suites behind the `selftest` CLI command.

Each suite re-derives expected values by an independent slow path (scalar
loops, finite differences, exhaustive search, a one-machine SMO, the
meta-prototype evaluator with cdist kernels and per-call weights, dense kernel
block sums) and checks the optimized implementations against them on small
seeded instances. The oracles are public so the test suite checks against
the same reference code; the per-group utility terms are written here from
their definitions, not taken from objectives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from . import gradopt
from .corpus import from_rows
from .evaluation import LabeledPrototypeSet, svm_train
from .greedy import greedy_select
from .kernel import KernelSpec, kernel_matrix, label_sums
from .objectives import ObjectiveSpec, coefficients, mmd2


def scalar_rbf(a, b, gamma):
    """Scalar-loop reference for the Gaussian kernel between two d-vectors."""
    return math.exp(-gamma * sum((ai - bi) ** 2 for ai, bi in zip(a, b)))


def brute_mmd2(X, Y, gamma):
    """Triple-loop reference for the squared MMD."""
    X = np.asarray(X, dtype=float).tolist()
    Y = np.asarray(Y, dtype=float).tolist()
    n, m = len(X), len(Y)
    xx = sum(scalar_rbf(a, b, gamma) for a in X for b in X) / n**2
    xy = sum(scalar_rbf(a, b, gamma) for a in X for b in Y) / (n * m)
    yy = sum(scalar_rbf(a, b, gamma) for a in Y for b in Y) / m**2
    return xx - 2.0 * xy + yy


def random_grouped(rng, groups=2, n_per_group=8, d=3, spread=2.0):
    """Gaussian blobs, one per group, around centers drawn at scale spread.

    rng is a numpy Generator or an integer seed for a fresh PCG64 one;
    n_per_group is one size for every group or a sequence of group sizes.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.Generator(np.random.PCG64(rng))
    pts, labels = [], []
    for g, n in enumerate(np.broadcast_to(n_per_group, groups)):
        center = rng.normal(scale=spread, size=d)
        pts.append(center + rng.normal(size=(n, d)))
        labels += [f"g{g}"] * int(n)
    return from_rows(np.vstack(pts), labels)


def group_term(data, spec, g, P):
    """Definitional per-group utility term of the prototype points P of group g.

    nn: sum over group g of the kernel to the nearest prototype;
    mmd-diff: -MMD^2(P, own) + lam * MMD^2(P, rest);
    mmd-div: -MMD^2(P, own) - 2 lam * mean k(P, rest).
    """
    own = data.group_points(g)
    if spec.kind == "nn":
        return sum(max(scalar_rbf(p, x, spec.kernel.gamma) for p in P) for x in own)
    value = -mmd2(P, own, spec.kernel)
    if spec.lam > 0:
        rest = data.points[data.group_of != g]
        if spec.kind == "mmd-diff":
            value += spec.lam * mmd2(P, rest, spec.kernel)
        else:
            value -= 2.0 * spec.lam * float(kernel_matrix(P, rest, spec.kernel).mean())
    return value


def group_value(data, spec, g, rows):
    """Pure per-group utility term of the given rows of group g."""
    return group_term(data, spec, g, data.points[list(rows)])


def total_value(data, spec, selections):
    """Sum of group_value over the groups with a nonempty selection."""
    return sum(group_value(data, spec, g, sel) for g, sel in enumerate(selections) if len(sel))


def exhaustive_values(data, spec, M):
    """Per group, the utility term of every M-row selection of its rows."""
    return [
        [group_value(data, spec, g, combo) for combo in itertools.combinations(data.group_index[g], M)]
        for g in range(data.n_groups)
    ]


def exhaustive_optimum(data, spec, M):
    """Utility optimum over all M-row selections (groups are independent)."""
    return sum(max(values) for values in exhaustive_values(data, spec, M))


def central_difference(meta_pts, data, spec, h=1e-5):
    """Central finite differences over every coordinate of the definitional
    utility, the sum of group_term over the groups' prototype points."""

    def value(points):
        return sum(group_term(data, spec, g, P) for g, P in enumerate(points))

    grads = []
    for g, A in enumerate(meta_pts):
        G = np.zeros_like(A)
        for i in range(A.shape[0]):
            for j in range(A.shape[1]):
                plus = [p.copy() for p in meta_pts]
                minus = [p.copy() for p in meta_pts]
                plus[g][i, j] += h
                minus[g][i, j] -= h
                G[i, j] = (value(plus) - value(minus)) / (2 * h)
        grads.append(G)
    return grads


def gradient_error(meta_pts, data, spec):
    """Largest relative error of the gradient of the L-BFGS evaluator,
    gradopt._MetaObjective.value_grad looked up at call time, against
    central_difference.

    Each coordinate's error is |fd - an| / max(1, |fd|, |an|).
    """
    counts = [P.shape[0] for P in meta_pts]
    _, grad = gradopt._MetaObjective(data, spec, counts).value_grad(np.vstack(meta_pts))
    worst = 0.0
    for fd, an in zip(central_difference(meta_pts, data, spec), np.split(grad, np.cumsum(counts)[:-1])):
        scale = np.maximum(1.0, np.maximum(np.abs(fd), np.abs(an)))
        worst = max(worst, float((np.abs(fd - an) / scale).max()))
    return worst


def reference_smo(K, y, C, tol=1e-3):
    """Maximal-violating-pair dual ascent to KKT tolerance or 1e4*n updates.

    Solves min 0.5 a'Qa - sum(a) s.t. 0 <= a <= C, y'a = 0 with Q = yy' * K.
    Returns (alphas, bias, dual_objective).
    """
    n = y.size
    alpha = np.zeros(n)
    Q = K * np.outer(y, y)
    G = -np.ones(n)
    for _ in range(10_000 * n):
        neg_yG = -(y * G)
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
        if not up.any() or not low.any():
            break
        up_idx = np.flatnonzero(up)
        low_idx = np.flatnonzero(low)
        i = int(up_idx[np.argmax(neg_yG[up_idx])])
        j = int(low_idx[np.argmin(neg_yG[low_idx])])
        if neg_yG[i] - neg_yG[j] <= tol:
            break
        eta = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        t = (neg_yG[i] - neg_yG[j]) / eta
        t_max_i = (C - alpha[i]) if y[i] > 0 else alpha[i]
        t_max_j = alpha[j] if y[j] > 0 else (C - alpha[j])
        t = min(t, t_max_i, t_max_j)
        dai = y[i] * t
        daj = -y[j] * t
        alpha[i] = np.clip(alpha[i] + dai, 0.0, C)
        alpha[j] = np.clip(alpha[j] + daj, 0.0, C)
        G += Q[:, i] * dai + Q[:, j] * daj

    u = y * (Q @ alpha)
    free = (alpha > 1e-8 * C) & (alpha < C * (1.0 - 1e-8))
    if free.any():
        bias = float(np.mean((y - u)[free]))
    else:
        # y has both signs and y'alpha = 0, so up and low are never empty
        neg_yG = y - u
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
        bias = float((neg_yG[up].max() + neg_yG[low].min()) / 2.0)
    dual = float(alpha.sum() - 0.5 * (alpha @ (Q @ alpha)))
    return alpha, bias, dual


def reference_value_grad(data, spec, groups):
    """Meta-prototype objective value and gradient with the weight masks
    rebuilt from the groups' shapes and both kernels from kernel_matrix, in
    the data's own coordinates.

    Over the stacked prototypes A, with m the prototype count of a row's
    group g, the value sums k(A, points) weighted 2/(m n_g) on group g and
    -2 lam/(m n_rest) elsewhere, and k(A, A) weighted a/m^2 within a group.
    """
    a, lam = coefficients(spec)
    X = data.points
    A = np.vstack(groups)
    owner = np.repeat(np.arange(len(groups)), [P.shape[0] for P in groups])[:, None]
    m = np.bincount(owner[:, 0])[owner]
    n_own = data.group_sizes()[owner]
    # a single group has no rest; its weight is then unused (lam = 0)
    n_rest = np.maximum(data.n_points - n_own, 1)
    W = np.where(owner == data.group_of, 2.0 / (m * n_own), -2.0 * lam / (m * n_rest))
    W *= kernel_matrix(A, X, spec.kernel)
    S = np.where(owner == owner.T, a / m**2, 0.0) * kernel_matrix(A, A, spec.kernel)
    row = W.sum(axis=1) + 2.0 * S.sum(axis=1)
    grad = 2.0 * spec.kernel.gamma * (W @ X + 2.0 * S @ A - row[:, None] * A)
    return float(W.sum() + S.sum()), grad


def meta_objective_instances(seed: int = 4):
    """Seeded (data, counts, lams, offset) cases for the evaluator: equal and
    unequal prototype counts, one group at lam = 0, and the equal case moved
    by 1e4 in every coordinate."""
    rng = np.random.Generator(np.random.PCG64(seed))
    equal = random_grouped(rng, groups=3, n_per_group=9, d=4)
    yield equal, (2, 2, 2), (0.0, 0.7, 2.0), 0.0
    yield random_grouped(rng, groups=3, n_per_group=(5, 8, 11), d=3), (1, 2, 3), (0.0, 1.3), 0.0
    yield random_grouped(rng, groups=1, n_per_group=7, d=3), (2,), (0.0,), 0.0
    yield replace(equal, points=equal.points + 1e4), (2, 2, 2), (0.0, 0.7, 2.0), 1e4


def meta_objective_suite(seed: int = 5, tol: float = 1e-12):
    """The L-BFGS evaluator against reference_value_grad: relative error of
    the value, and of the gradient in the max norm.

    Value and gradient do not change when points and prototypes move
    together, so an offset case is referred to the reference at the origin;
    subtracting the offset there is exact, and the reference's uncentred
    distances and gradient lose nothing to it.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    worst_value = worst_grad = 0.0
    for data, counts, lams, offset in meta_objective_instances():
        groups = [data.group_points(g)[:m] + rng.normal(scale=0.5, size=(m, data.dim))
                  for g, m in enumerate(counts)]
        origin = replace(data, points=data.points - offset)
        for kind in ("mmd-diff", "mmd-div"):
            for lam in lams:
                spec = ObjectiveSpec(kind=kind, kernel=KernelSpec(float(rng.uniform(0.2, 1.5))), lam=lam)
                value, grad = gradopt._MetaObjective(data, spec, counts).value_grad(np.vstack(groups))
                ref_value, ref_grad = reference_value_grad(origin, spec, [P - offset for P in groups])
                worst_value = max(worst_value, abs(value - ref_value) / abs(ref_value))
                worst_grad = max(worst_grad, float(np.abs(grad - ref_grad).max() / np.abs(ref_grad).max()))
    ok = worst_value <= tol and worst_grad <= tol
    return ok, f"max rel. error: value {worst_value:.3e}, gradient {worst_grad:.3e} (tol {tol:.1e})"


SVM_CS = (0.1, 1.0, 10.0, 100.0)


def svm_instances(n_instances: int = 12, seed: int = 3):
    """Seeded one-vs-rest problems as (protos, spec, tol): 2-5 classes of 2-7
    points, tol 1e-3 or 1e-6; every other instance copies two points onto
    rows of another class, so duplicates with opposite targets hit the eta
    floor."""
    rng = np.random.Generator(np.random.PCG64(seed))
    for k in range(n_instances):
        groups = int(rng.integers(2, 6))
        data = random_grouped(rng, groups=groups, n_per_group=rng.integers(2, 8, size=groups),
                              d=int(rng.integers(2, 5)), spread=1.0)
        points = data.points.copy()
        if k % 2:
            points[-2:] = points[:2]
        spec = KernelSpec(float(rng.uniform(0.1, 2.0)))
        yield LabeledPrototypeSet(points, data.group_of), spec, (1e-3, 1e-6)[k // 2 % 2]


def svm_suite():
    """svm_train over several Cs at once against the one-machine reference
    SMO per (C, class), bit for bit, on the svm_instances problems."""
    machines = bad = 0
    for protos, spec, tol in svm_instances():
        K = kernel_matrix(protos.points, protos.points, spec)
        for C, model in zip(SVM_CS, svm_train(protos, SVM_CS, spec, tol)):
            for alphas, y, bias, dual in zip(model.alphas, model.labels, model.bias, model.dual_objective):
                ref_alphas, ref_bias, ref_dual = reference_smo(K, y, C, tol)
                machines += 1
                bad += not (np.array_equal(alphas, ref_alphas) and bias == ref_bias and dual == ref_dual)
    return bad == 0, f"{bad} of {machines} machines differ from the reference SMO (Cs {SVM_CS})"


def mmd_suite(n_instances: int = 50, seed: int = 0, tol: float = 1e-12):
    """mmd2 against the scalar triple-loop oracle on random instances."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 12))
        d = int(rng.integers(1, 6))
        gamma = float(rng.uniform(0.1, 2.0))
        X = rng.normal(size=(n, d))
        Y = rng.normal(size=(m, d))
        worst = max(worst, abs(mmd2(X, Y, KernelSpec(gamma)) - brute_mmd2(X, Y, gamma)))
    ok = worst <= tol
    return ok, f"max |mmd2 - oracle| = {worst:.3e} (tol {tol:.1e}, {n_instances} instances)"


def gradient_suite(n_configs: int = 20, seed: int = 1, rel_tol: float = 1e-5):
    """Analytic gradients against central finite differences on the pure
    utility functions, through gradient_error."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for kind in ("mmd-diff", "mmd-div"):
        for _ in range(n_configs):
            data = random_grouped(rng)
            spec = ObjectiveSpec(kind=kind, kernel=KernelSpec(float(rng.uniform(0.2, 1.5))),
                                 lam=float(rng.uniform(0.0, 2.0)))
            m = int(rng.integers(1, 4))
            meta_pts = [rng.normal(scale=1.5, size=(m, data.dim)) for _ in range(data.n_groups)]
            worst = max(worst, gradient_error(meta_pts, data, spec))
    ok = worst <= rel_tol
    return ok, f"max gradient rel. error = {worst:.3e} (tol {rel_tol:.1e})"


def greedy_suite(n_instances: int = 10, seed: int = 2):
    """Greedy against exhaustive search on tiny instances.

    The nearest-neighbour utility must meet the (1 - 1/e) bound; the
    comparative utilities are only required not to beat the optimum. For
    every kind the detail reports the smallest (greedy - worst) / (optimum -
    worst) over the exhaustive enumeration, which a constant shift of the
    utility does not change.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    bound = 1.0 - 1.0 / math.e
    worst_ratio = {"nn": np.inf, "mmd-diff": np.inf, "mmd-div": np.inf}
    for _ in range(n_instances):
        data = random_grouped(rng, groups=2, n_per_group=int(rng.integers(5, 9)), d=2)
        gamma = float(rng.uniform(0.2, 1.0))
        M = int(rng.integers(1, 4))
        for kind in ("nn", "mmd-diff", "mmd-div"):
            lam = 1.0 if kind != "nn" else 0.0
            spec = ObjectiveSpec(kind=kind, kernel=KernelSpec(gamma), lam=lam)
            summary = greedy_select(data, spec, M)
            greedy_val = total_value(data, spec, summary.prototypes)
            values = exhaustive_values(data, spec, M)
            opt_val = sum(max(v) for v in values)
            worst_val = sum(min(v) for v in values)
            if greedy_val > opt_val + 1e-9:
                return False, f"greedy exceeded the exhaustive optimum for {kind}"
            if kind == "nn":
                if greedy_val < bound * opt_val - 1e-9:
                    return False, (
                        f"nn greedy value {greedy_val:.6f} below (1-1/e) * optimum {opt_val:.6f}"
                    )
            if opt_val > worst_val:
                ratio = (greedy_val - worst_val) / (opt_val - worst_val)
                worst_ratio[kind] = min(worst_ratio[kind], ratio)
    ratios = ", ".join(f"{kind} {ratio:.4f}" for kind, ratio in worst_ratio.items())
    return True, f"min (greedy - worst) / (opt - worst): {ratios}"


def group_sums_suite(seed: int = 6, tol: float = 1e-12):
    """kernel.label_sums, the one table pass, against the label block sums of
    the dense kernel matrix, with the labels group * 3 + fold that
    cross-validation uses (each row dealt to one of 3 folds at random):
    unequal groups with a one-point group, a group of 1030 rows, and two of
    800 rows, each pass in several row bands."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for sizes in ((7, 1, 12, 3), (1, 1030, 40), (5, 9), (800, 800)):
        data = random_grouped(rng, groups=len(sizes), n_per_group=sizes, d=4)
        spec = KernelSpec(float(rng.uniform(0.05, 0.5)))
        labels = data.group_of * 3 + rng.integers(0, 3, size=data.n_points)
        K = kernel_matrix(data.points, data.points, spec)
        dense = np.column_stack([K[:, labels == label].sum(axis=1) for label in range(labels.max() + 1)])
        error = np.abs(label_sums(data.points, labels, spec) - dense)
        worst = max(worst, float(np.max(error / np.where(dense > 0, dense, 1.0))))
    return worst <= tol, f"max rel. error = {worst:.3e} (tol {tol:.1e})"


def run_all():
    """Run every suite; returns [(name, ok, detail)]."""
    return [
        ("mmd2-vs-bruteforce", *mmd_suite()),
        ("gradient-vs-finite-differences", *gradient_suite()),
        ("greedy-vs-exhaustive", *greedy_suite()),
        ("svm-vs-reference-smo", *svm_suite()),
        ("meta-objective-vs-reference", *meta_objective_suite()),
        ("group-sums-vs-dense", *group_sums_suite()),
    ]
