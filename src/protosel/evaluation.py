"""Classification-as-evaluation harness.

Summaries are scored by training a classifier (1-NN or kernel SVM) on the
selected prototypes and measuring balanced accuracy on held-out data.
Hyperparameters are chosen by stratified grid-search cross-validation on the
training split only; experiments aggregate over several splits with Student-t
confidence intervals.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import stdtrit

from . import baselines, gradopt, greedy
from .corpus import GroupedDataset, SplitPair
from .errors import ValidationError
from .kernel import KernelSpec, group_sums, kernel_matrix, label_sums, median_gamma
from .objectives import ObjectiveSpec, Summary

CLASSIFIERS = ("1nn", "svm")

CV_FOLDS = 3  # folds of stratified_folds, fold_sums and grid_search_cv
_GAMMA_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)
_DEFAULT_LAMBDAS = (0.5, 1.0, 2.0)
_DEFAULT_CS = (0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class LabeledPrototypeSet:
    """Prototype coordinates with their group labels, in summary order."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        labs = np.asarray(self.labels, dtype=int)
        if pts.shape[0] == 0:
            raise ValidationError("prototype set must be nonempty")
        if labs.shape != (pts.shape[0],):
            raise ValidationError("labels must align with points")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)

    @classmethod
    def from_summary(cls, summary: Summary, train: GroupedDataset) -> "LabeledPrototypeSet":
        rows = [row for group in summary.prototypes for row in group]
        if not rows:
            raise ValidationError("summary selects no prototypes")
        labels = [g for g, group in enumerate(summary.prototypes) for _ in group]
        return cls(points=train.points[rows], labels=np.array(labels))


def knn1_predict_batch(protos: LabeledPrototypeSet, queries) -> np.ndarray:
    """Label of the Euclidean-nearest prototype per query row; distance ties
    keep the earliest prototype ordinal."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    d2 = cdist(queries, protos.points, "sqeuclidean")
    return protos.labels[np.argmin(d2, axis=1)]


@dataclass(frozen=True)
class SvmModel:
    """One-vs-rest soft-margin machines over the same prototypes, one per
    class (ascending order).

    Row c of alphas, labels, bias and dual_objective is the machine of
    classes[c] against the rest: alphas are its box-constrained dual variables
    (0 <= alpha_i <= C), labels its +1/-1 targets, and its decision value is
    sum_i alpha_i y_i k(x_i, x) + bias. Decisions and predictions read a
    prototype x query kernel K = kernel_matrix(prototypes, queries), which
    the models of every C of one svm_train call can share.
    """

    classes: tuple[int, ...]
    alphas: np.ndarray  # (classes, points)
    labels: np.ndarray  # (classes, points)
    bias: np.ndarray  # (classes,)
    dual_objective: np.ndarray  # (classes,)

    def decision_values(self, K) -> np.ndarray:
        """Row c: machine c's decision value per query column of K."""
        return np.vstack([(a * y) @ K + b for a, y, b in zip(self.alphas, self.labels, self.bias)])

    def predict(self, K) -> np.ndarray:
        """The class of the largest decision value per query column of K; ties
        keep the smallest class."""
        return np.asarray(self.classes)[np.argmax(self.decision_values(K), axis=0)]


def _smo(K, Y, C, tol):
    """Maximal-violating-pair dual ascent for every machine over one kernel.

    Row c of Y (+1/-1 targets) and entry c of C (box) define machine c:
    min 0.5 a'Qa - sum(a) s.t. 0 <= a <= C[c], y'a = 0 with Q = yy' * K. All
    machines step in lockstep, each on its own maximal violating pair
    (Keerthi et al. 2001), and a machine freezes once its pair violates KKT
    by at most tol or it has no up or low index; the loop ends when none is
    live or after 1e4*n steps. Each machine's arithmetic is elementwise that
    of a one-machine solver, so its result does not depend on the others.
    K is exactly symmetric and y is +1/-1, so column i of Q is
    K[i] * (y * y[i]) exactly, and bias and dual read y * (Q @ a) as
    K @ (a * y), equal bit for bit: no n x n Q is stored.

    Returns (alphas, bias, dual_objective), shaped (machines, n), (machines,)
    and (machines,).
    """
    machines, n = Y.shape
    alphas = np.zeros((machines, n))
    ids = np.arange(machines)  # the live machines; y, a, g, c are their rows
    y, a, c = Y, np.zeros((machines, n)), C
    g = -np.ones((machines, n))
    for _ in range(10_000 * n):
        neg_yG = -(y * g)
        box = c[:, None]
        up = ((y > 0) & (a < box)) | ((y < 0) & (a > 0))
        low = ((y < 0) & (a < box)) | ((y > 0) & (a > 0))
        # the first index of the extreme among the masked entries: the one-machine tie rule
        i = np.argmax(np.where(up, neg_yG, -np.inf), axis=1)
        j = np.argmin(np.where(low, neg_yG, np.inf), axis=1)
        r = np.arange(ids.size)
        gap = neg_yG[r, i] - neg_yG[r, j]
        live = up.any(axis=1) & low.any(axis=1) & ~(gap <= tol)
        if not live.all():
            alphas[ids[~live]] = a[~live]
            ids, y, a, g, c = ids[live], y[live], a[live], g[live], c[live]
            i, j, gap = i[live], j[live], gap[live]
            if ids.size == 0:
                break
            r = np.arange(ids.size)
        eta = np.maximum(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        t = gap / eta
        yi, yj, ai, aj = y[r, i], y[r, j], a[r, i], a[r, j]
        t_max_i = np.where(yi > 0, c - ai, ai)
        t_max_j = np.where(yj > 0, aj, c - aj)
        t = np.minimum(np.minimum(t, t_max_i), t_max_j)
        dai = yi * t
        daj = -yj * t
        a[r, i] = np.clip(ai + dai, 0.0, c)
        a[r, j] = np.clip(a[r, j] + daj, 0.0, c)
        g += (K[i] * (y * yi[:, None])) * dai[:, None] + (K[j] * (y * yj[:, None])) * daj[:, None]
    alphas[ids] = a

    bias, dual = np.empty(machines), np.empty(machines)
    for m, (alpha, y, C_m) in enumerate(zip(alphas, Y, C)):
        u = K @ (alpha * y)  # y * (Q @ alpha)
        neg_yG = y - u
        free = (alpha > 1e-8 * C_m) & (alpha < C_m * (1.0 - 1e-8))
        if free.any():
            bias[m] = float(np.mean(neg_yG[free]))
        else:
            # y has both signs and y'alpha = 0, so up and low are never empty
            up = ((y > 0) & (alpha < C_m)) | ((y < 0) & (alpha > 0))
            low = ((y < 0) & (alpha < C_m)) | ((y > 0) & (alpha > 0))
            bias[m] = float((neg_yG[up].max() + neg_yG[low].min()) / 2.0)
        dual[m] = float(alpha.sum() - 0.5 * ((alpha * y) @ u))
    return alphas, bias, dual


def svm_train(protos: LabeledPrototypeSet, Cs, spec: KernelSpec, tol: float = 1e-3) -> list[SvmModel]:
    """One-vs-rest kernel SVMs on the prototype set, one model per C of Cs,
    in order.

    The prototype kernel is built once, and the machines of every (C, class)
    pair train together in one lockstep `_smo`.
    """
    Cs = tuple(Cs)
    if not Cs:
        raise ValidationError("svm_train needs at least one C")
    for C in Cs:
        if not 0 < C < math.inf:
            raise ValidationError(f"C must be finite and positive, got {C}")
    if not 0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    classes = tuple(int(c) for c in np.unique(protos.labels))
    if len(classes) < 2:
        raise ValidationError("SVM training needs at least 2 classes")
    K = kernel_matrix(protos.points, protos.points, spec)
    labels = np.where(protos.labels == np.array(classes)[:, None], 1.0, -1.0)
    shape = (len(Cs), len(classes))
    box = np.repeat(np.array(Cs, dtype=float), len(classes))
    alphas, bias, dual = _smo(K, np.tile(labels, (len(Cs), 1)), box, tol)
    per_c = zip(alphas.reshape(*shape, -1), bias.reshape(shape), dual.reshape(shape))
    return [SvmModel(classes, a, labels, b, d) for a, b, d in per_c]


def balanced_accuracy(predictions, truth, classes=None) -> float:
    """Mean per-class recall.

    classes defaults to the labels present in truth; when given explicitly,
    every class must occur in truth at least once.
    """
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape or truth.size == 0:
        raise ValidationError("predictions and truth must be equal-length and nonempty")
    if classes is None:
        classes = np.unique(truth)
    recalls = []
    for c in classes:
        mask = truth == c
        if not mask.any():
            raise ValidationError(f"class {c!r} has no truth instances")
        recalls.append(float(np.mean(predictions[mask] == c)))
    return float(np.mean(recalls))


@dataclass(frozen=True)
class HyperParams:
    """Chosen hyperparameters; None marks an axis the method/classifier ignores."""

    gamma: float | None = None
    lam: float | None = None
    C: float | None = None


@dataclass(frozen=True)
class Grids:
    """CV grids; gammas None means the median-heuristic grid of each train
    set (default_grids). Every given list is nonempty; each gamma and C is
    finite and positive, and each lambda finite and nonnegative, as
    KernelSpec, svm_train and ObjectiveSpec require."""

    gammas: tuple[float, ...] | None = None
    lams: tuple[float, ...] = _DEFAULT_LAMBDAS
    Cs: tuple[float, ...] = _DEFAULT_CS

    def __post_init__(self):
        lists = {"gammas": self.gammas, "lams": self.lams, "Cs": self.Cs}
        for name, values in lists.items():
            if values is not None and len(values) == 0:
                raise ValidationError(f"Grids.{name} needs at least one value")
        for name in ("gammas", "Cs"):
            for v in lists[name] or ():
                if not 0 < v < math.inf:
                    raise ValidationError(f"Grids.{name} values must be finite and positive, got {v}")
        for v in self.lams:
            if not 0 <= v < math.inf:
                raise ValidationError(f"Grids.lams values must be finite and nonnegative, got {v}")


def default_grids(train: GroupedDataset) -> Grids:
    """Gamma grid centered on kernel.median_gamma of the train points; fixed
    lambda and C grids."""
    g_med = median_gamma(train.points)
    return Grids(gammas=tuple(g_med * f for f in _GAMMA_FACTORS))


@dataclass(frozen=True)
class Method:
    """The facts of one summariser: the objective and optimizer labels of its
    summary header, the objective kind it optimises (None for baselines),
    whether its summaries depend on gamma and on lambda, and whether it can
    read a kernel-sum table (reads_table says whether one build does).
    build_summary runs it.
    """

    objective: str
    optimizer: str
    kind: str | None
    uses_gamma: bool
    uses_lam: bool
    reads_sums: bool

    def reads_table(self, grad_init: str) -> bool:
        """Whether a build with this gradient start reads a kernel-sum table."""
        return self.reads_sums and (self.optimizer != "gradient" or grad_init == "greedy")


METHODS = {
    "nn-comp-greedy": Method("nn", "greedy", "nn", True, False, False),
    "mmd-diff-greedy": Method("mmd-diff", "greedy", "mmd-diff", True, True, True),
    "mmd-div-greedy": Method("mmd-div", "greedy", "mmd-div", True, True, True),
    "mmd-diff-grad": Method("mmd-diff", "gradient", "mmd-diff", True, True, True),
    "mmd-div-grad": Method("mmd-div", "gradient", "mmd-div", True, True, True),
    "kmeans": Method("inertia", "kmeans", None, False, False, False),
    "kmedoids": Method("total-distance", "kmedoids", None, False, False, False),
    "mmd-critic": Method("mmd-critic", "greedy", None, True, False, True),
    "full": Method("none", "full", None, False, False, False),
}


def _method(name: str) -> Method:
    if name not in METHODS:
        raise ValidationError(f"unknown method {name!r}")
    return METHODS[name]


def _method_axes(method: str, classifier: str) -> tuple[bool, bool, bool]:
    """(uses_gamma, uses_lam, uses_C) for one (method, classifier) pairing."""
    entry = _method(method)
    svm = classifier == "svm"
    return (entry.uses_gamma or svm, entry.uses_lam, svm)


def objective_spec(entry: Method, params: HyperParams) -> ObjectiveSpec:
    """The objective a comparative method optimises; lambda defaults to 1."""
    lam = 0.0
    if entry.uses_lam:
        lam = params.lam if params.lam is not None else 1.0
    return ObjectiveSpec(kind=entry.kind, kernel=KernelSpec(gamma=params.gamma), lam=lam)


def build_summary(
    method: str,
    train: GroupedDataset,
    M: int,
    params: HyperParams,
    *,
    seed: int = 0,
    grad_init: str = "greedy",
    sums=None,
) -> Summary:
    """Run one summariser by its public name, passing it only what it reads.
    sums is the kernel.group_sums table of train at KernelSpec(params.gamma),
    or None for a fresh pass; only a build for which
    Method.reads_table(grad_init) holds reads it. Each summariser is looked
    up as a module attribute at call time, so a patched attribute (the
    benchmark tracer rewraps them) is what runs."""
    entry = _method(method)
    if entry.uses_gamma and params.gamma is None:
        raise ValidationError(f"method {method!r} needs a gamma")
    if method == "full":
        return Summary(prototypes=tuple(tuple(int(r) for r in rows) for rows in train.group_index))
    if method == "kmeans":
        return baselines.kmeans_summary(train, M, seed=seed)
    if method == "kmedoids":
        return baselines.kmedoids_summary(train, M, seed=seed)
    if method == "mmd-critic":
        return baselines.mmd_critic_summary(train, (train.n_groups * M) // 2 * 2, KernelSpec(params.gamma), sums)
    spec = objective_spec(entry, params)
    if entry.optimizer == "greedy":
        return greedy.greedy_select(train, spec, M, sums)
    return gradopt.gradient_summary(train, spec, M, grad_init, seed, sums)


def _classify(classifier: str, protos: LabeledPrototypeSet, queries, gamma, Cs) -> list[np.ndarray]:
    """Predicted labels of the queries, one array per C of Cs (1-NN reads no C
    and returns one). The SVMs of every C, trained in one svm_train call,
    read the one kernel_matrix(prototypes, queries) built here; prototypes of
    a single class predict it for every query and C, as 1-NN does."""
    if classifier == "1nn":
        return [knn1_predict_batch(protos, queries)]
    if classifier == "svm":
        if np.all(protos.labels == protos.labels[0]):
            return [np.full(len(queries), protos.labels[0])] * len(Cs)
        spec = KernelSpec(gamma)
        models = svm_train(protos, Cs, spec)
        K = kernel_matrix(protos.points, queries, spec)
        return [model.predict(K) for model in models]
    raise ValidationError(f"unknown classifier {classifier!r}")


def stratified_folds(data: GroupedDataset, seed: int) -> np.ndarray:
    """The (N,) fold label in 0..CV_FOLDS-1 of each row: one PCG64(seed)
    stream permutes each group's rows in turn, and they are dealt round-robin."""
    if int(data.group_sizes().min()) < CV_FOLDS:
        raise ValidationError(f"every group needs at least {CV_FOLDS} points")
    rng = np.random.Generator(np.random.PCG64(seed))
    fold_of = np.empty(data.n_points, dtype=int)
    for rows in data.group_index:
        fold_of[rows[rng.permutation(rows.size)]] = np.arange(rows.size) % CV_FOLDS
    return fold_of


def fold_sums(train: GroupedDataset, seed: int, spec: KernelSpec) -> np.ndarray:
    """The (N, G, CV_FOLDS) table T[i, h, k]: the kernel sum from train row i
    to the rows of group h in fold k, from one kernel.label_sums pass with
    the labels group * CV_FOLDS + stratified_folds(train, seed). A CV fold's
    training rows read T summed over the other folds, and the split's final
    build reads T summed over all of them. A train side whose smallest group
    has fewer than CV_FOLDS rows cannot be cross-validated, so only a
    one-cell grid runs on it, and its table has one fold holding every row."""
    if int(train.group_sizes().min()) < CV_FOLDS:
        return group_sums(train, spec)[:, :, None]
    T = label_sums(train.points, train.group_of * CV_FOLDS + stratified_folds(train, seed), spec)
    return T.reshape(train.n_points, train.n_groups, CV_FOLDS)


def grid_search_cv(
    train: GroupedDataset,
    method: str,
    M: int,
    grids: Grids,
    *,
    classifier: str = "1nn",
    seed: int = 0,
    grad_init: str = "greedy",
    tables=None,
) -> HyperParams:
    """Choose hyperparameters by stratified CV_FOLDS-fold CV on the training split.

    Only the axes the (method, classifier) pair actually uses are searched;
    when gamma is one of them, an unset gamma grid is default_grids(train)'s.
    Each fold builds its summary once per value of the axes the method reads
    (gamma only if the method uses it, lambda) and scores every grid cell
    that shares it, so C, and an SVM gamma the method ignores, never trigger
    a build. Every C of one (fold, build, gamma) comes from a single
    `svm_train` call. The cell with the best mean fold score wins; ties keep
    the smallest (gamma, lambda, C) in that order. Fold k holds the rows
    labelled k by stratified_folds(train, seed). tables maps each KernelSpec
    of the gamma grid to fold_sums(train, seed, spec). A build reads its
    fold's slice of its gamma's table when reads_table(grad_init) holds;
    then a None tables makes those passes here, one per gamma.
    """
    use_gamma, use_lam, use_c = _method_axes(method, classifier)
    if use_gamma and grids.gammas is None:
        grids = replace(grids, gammas=default_grids(train).gammas)
    gammas = sorted(grids.gammas) if use_gamma else [None]
    lams = sorted(grids.lams) if use_lam else [None]
    cs = sorted(grids.Cs) if use_c else [None]
    cells = [HyperParams(gamma=g, lam=lam, C=c) for g, lam, c in itertools.product(gammas, lams, cs)]
    if len(cells) == 1:
        return cells[0]
    entry = METHODS[method]
    reads_table = entry.reads_table(grad_init)
    if reads_table and tables is None:
        tables = {spec: fold_sums(train, seed, spec) for spec in map(KernelSpec, gammas)}
    fold_of = stratified_folds(train, seed)
    classes = np.arange(train.n_groups)
    scores = np.empty((CV_FOLDS, len(cells)))
    for held in range(CV_FOLDS):
        others = [k for k in range(CV_FOLDS) if k != held]
        rows, held_rows = np.flatnonzero(fold_of != held), np.flatnonzero(fold_of == held)
        sub_train = train.subset(rows)
        queries, truth = train.points[held_rows], train.group_of[held_rows]
        protos = {}
        # C is the innermost axis: each run of len(cs) cells shares gamma and lambda
        for start in range(0, len(cells), len(cs)):
            params = cells[start]
            key = (params.gamma if entry.uses_gamma else None, params.lam)
            if key not in protos:
                sums = tables[KernelSpec(params.gamma)][rows][:, :, others].sum(axis=2) if reads_table else None
                summary = build_summary(method, sub_train, M, HyperParams(*key), seed=seed, grad_init=grad_init,
                                        sums=sums)
                protos[key] = LabeledPrototypeSet.from_summary(summary, sub_train)
            for k, preds in enumerate(_classify(classifier, protos[key], queries, params.gamma, cs)):
                scores[held, start + k] = balanced_accuracy(preds, truth, classes=classes)
    return cells[int(np.argmax(scores.mean(axis=0)))]


@dataclass(frozen=True)
class SplitResult:
    split: int
    seed: int
    balanced_accuracy: float
    params: HyperParams


@dataclass(frozen=True)
class EvalReport:
    """Evaluation of one (method, M, classifier) combination on each split.

    mean is the mean split balanced accuracy, and ci95_halfwidth the half-width
    of its Student-t 95% interval (None for one split); both derive from splits.
    The t quantile is scipy.special.stdtrit(n - 1, 0.975), the call that
    scipy.stats.t.ppf makes, so scipy.stats is never imported.
    """

    method: str
    m: int
    classifier: str
    splits: tuple[SplitResult, ...]

    @property
    def mean(self) -> float:
        return float(np.mean([s.balanced_accuracy for s in self.splits]))

    @property
    def ci95_halfwidth(self) -> float | None:
        accs = np.array([s.balanced_accuracy for s in self.splits])
        if accs.size < 2:
            return None
        return float(stdtrit(accs.size - 1, 0.975) * np.std(accs, ddof=1) / np.sqrt(accs.size))


def _eval_cell(method, m, classifier, split_idx, split, grids, grad_init, tables):
    """One (method, M, classifier, split) evaluation on the split's gamma grid
    and its fold_sums tables (None when no cell of the split reads one)."""
    train, test = split.train, split.test
    params = grid_search_cv(train, method, m, grids, classifier=classifier, seed=split.seed, grad_init=grad_init,
                            tables=tables)
    sums = tables[KernelSpec(params.gamma)].sum(axis=2) if METHODS[method].reads_table(grad_init) else None
    summary = build_summary(method, train, m, params, seed=split.seed, grad_init=grad_init, sums=sums)
    protos = LabeledPrototypeSet.from_summary(summary, train)
    (preds,) = _classify(classifier, protos, test.points, params.gamma, (params.C,))
    acc = balanced_accuracy(preds, test.group_of, classes=np.arange(train.n_groups))
    return SplitResult(split=split_idx, seed=split.seed, balanced_accuracy=acc, params=params)


def _eval_split(task):
    """Every (method, M, classifier) cell of one split, in combos order: the
    split's gamma grid (default_grids of its train side when unset and some
    cell searches gamma), one fold_sums table per gamma when some cell's build
    reads one (Method.reads_table), then each cell through _eval_cell."""
    idx, split, combos, grids, grad_init = task
    if grids.gammas is None and any(_method_axes(method, classifier)[0] for method, _, classifier in combos):
        grids = replace(grids, gammas=default_grids(split.train).gammas)
    tables = None
    if any(METHODS[method].reads_table(grad_init) for method, _, _ in combos):
        tables = {spec: fold_sums(split.train, split.seed, spec) for spec in map(KernelSpec, grids.gammas)}
    return [_eval_cell(*combo, idx, split, grids, grad_init, tables) for combo in combos]


def run_experiment(
    splits: list[SplitPair],
    methods,
    m_list,
    classifiers=("1nn",),
    *,
    grids: Grids | None = None,
    grad_init: str = "greedy",
    workers: int = 1,
) -> list[EvalReport]:
    """Grid-search, select, train, and score every (method, M, classifier)
    combination on each of the given splits (e.g. corpus.make_splits), in order.

    Each split is one task (_eval_split) that makes the split's gamma grid
    and kernel-sum tables and runs all of its cells; with workers > 1 the
    tasks run on min(workers, splits) forked processes, which inherit the
    caller's BLAS settings. Results are reduced in task order whatever the
    worker count. An empty methods, m_list or classifiers, or one that
    repeats a value, is a ValidationError.
    """
    for name, values in (("methods", methods), ("m_list", m_list), ("classifiers", classifiers)):
        if len(values) == 0:
            raise ValidationError(f"run_experiment needs at least one value in {name}")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValidationError(f"run_experiment got {repeated[0]!r} twice in {name}")
    for method in methods:
        _method(method)
    for classifier in classifiers:
        if classifier not in CLASSIFIERS:
            raise ValidationError(f"unknown classifier {classifier!r}")
    combos = list(itertools.product(methods, m_list, classifiers))
    tasks = [(idx, split, combos, grids or Grids(), grad_init) for idx, split in enumerate(splits)]
    # a forked pool starts all its workers at the first submit
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(_eval_split, tasks))
    else:
        results = [_eval_split(task) for task in tasks]
    return [EvalReport(*combo, tuple(cells[k] for cells in results)) for k, combo in enumerate(combos)]


def _fmt(x):
    return "" if x is None else format(x, ".10g")


def reports_to_csv(reports) -> str:
    """Machine-readable table: per-split rows plus one aggregate row per cell."""
    lines = ["method,M,classifier,split,gamma,lambda,C,balanced_accuracy"]
    for rep in reports:
        for s in rep.splits:
            lines.append(
                f"{rep.method},{rep.m},{rep.classifier},{s.split},"
                f"{_fmt(s.params.gamma)},{_fmt(s.params.lam)},{_fmt(s.params.C)},"
                f"{s.balanced_accuracy:.6f}"
            )
        lines.append(f"{rep.method},{rep.m},{rep.classifier},mean,,,,{rep.mean:.6f}")
    return "\n".join(lines) + "\n"


def reports_to_text(reports) -> str:
    """Human-readable table: one block per classifier, methods by rows,
    prototype counts by columns, cells 'mean +/- ci'."""
    out = []
    classifiers = sorted({r.classifier for r in reports})
    for classifier in classifiers:
        subset = [r for r in reports if r.classifier == classifier]
        ms = sorted({r.m for r in subset})
        methods = sorted({r.method for r in subset})
        out.append(f"classifier: {classifier}")
        header = ["method".ljust(18)] + [f"M={m}".rjust(16) for m in ms]
        out.append("".join(header))
        for method in methods:
            cells = [method.ljust(18)]
            for m in ms:
                match = [r for r in subset if r.method == method and r.m == m]
                if not match:
                    cells.append("".rjust(16))
                    continue
                rep = match[0]
                if rep.ci95_halfwidth is None:
                    cells.append(f"{rep.mean:.3f}".rjust(16))
                else:
                    cells.append(f"{rep.mean:.3f} +/- {rep.ci95_halfwidth:.3f}".rjust(16))
            out.append("".join(cells))
        out.append("")
    return "\n".join(out)
