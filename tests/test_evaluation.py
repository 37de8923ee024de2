import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import t as student_t
from conftest import (
    USPS_SKIP_REASON,
    count_group_sums_evaluations,
    table_pass_evaluations,
    pgd_dual_optimum,
    project_box_hyperplane,
    usps_paths,
)

from protosel import baselines, evaluation, greedy, selftest
from protosel.cli import RunConfig
from protosel.corpus import from_rows, make_splits
from protosel.errors import ValidationError
from protosel.evaluation import (
    METHODS,
    EvalReport,
    Grids,
    HyperParams,
    LabeledPrototypeSet,
    balanced_accuracy,
    build_summary,
    default_grids,
    fold_sums,
    grid_search_cv,
    knn1_predict_batch,
    reports_to_csv,
    reports_to_text,
    SplitResult,
    run_experiment,
    svm_train,
)
from protosel.kernel import KernelSpec, group_sums, kernel_matrix, median_gamma


def blobs(seed, n_per_group=10, d=2, sep=6.0, groups=2):
    rng = np.random.Generator(np.random.PCG64(seed))
    pts, labels = [], []
    for g in range(groups):
        pts.append(rng.normal(size=(n_per_group, d)) + g * sep)
        labels += [f"g{g}"] * n_per_group
    return from_rows(np.vstack(pts), labels)


def bisection_projection(z, y, C):
    """Reference projection onto {0 <= a <= C, y'a = 0}: 100 bisection steps
    on the multiplier of the equality constraint."""

    def h(nu):
        return float(y @ np.clip(z - nu * y, 0.0, C))

    lo = -(C + float(np.abs(z).max()) + 1.0)
    hi = -lo
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
    return np.clip(z - 0.5 * (lo + hi) * y, 0.0, C)


def test_breakpoint_projection_matches_bisection():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(200):
        n = int(rng.integers(2, 30))
        y = np.where(rng.permutation(n) < int(rng.integers(1, n)), 1.0, -1.0)
        z = rng.normal(scale=float(rng.choice([0.1, 1.0, 5.0])), size=n)
        C = float(rng.choice([0.3, 1.0, 10.0]))
        exact = project_box_hyperplane(z, y, C)
        assert abs(float(y @ exact)) <= 1e-12
        assert np.max(np.abs(exact - bisection_projection(z, y, C))) <= 1e-12


class TestKnn:
    def protos(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        return LabeledPrototypeSet(points=pts, labels=np.array([0, 1, 1]))

    def test_query_equal_to_prototype(self):
        assert knn1_predict_batch(self.protos(), [2.0, 0.0])[0] == 1

    def test_equidistant_prefers_earlier_ordinal(self):
        assert knn1_predict_batch(self.protos(), [1.0, 0.0])[0] == 0  # tie rows 0 and 1

    def test_linear_scan_oracle(self):
        rng = np.random.Generator(np.random.PCG64(1))
        pts = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        protos = LabeledPrototypeSet(points=pts, labels=labels)
        queries = rng.normal(size=(50, 3))
        preds = knn1_predict_batch(protos, queries)
        for q, pred in zip(queries, preds):
            d2 = [float(np.sum((p - q) ** 2)) for p in pts]
            expected = labels[min(range(20), key=lambda i: (d2[i], i))]
            assert pred == expected


class TestSvm:
    @pytest.mark.parametrize("C", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite_c(self, C):
        data = blobs(seed=2, n_per_group=4)
        protos = LabeledPrototypeSet(points=data.points, labels=data.group_of)
        with pytest.raises(ValidationError, match="C must be finite and positive"):
            svm_train(protos, (C,), spec=KernelSpec(0.5))[0]

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite_tol(self, tol):
        data = blobs(seed=2, n_per_group=4)
        protos = LabeledPrototypeSet(points=data.points, labels=data.group_of)
        with pytest.raises(ValidationError, match="tol must be finite and positive"):
            svm_train(protos, (1.0,), spec=KernelSpec(0.5), tol=tol)

    def test_rejects_an_empty_c_tuple(self):
        data = blobs(seed=2, n_per_group=4)
        protos = LabeledPrototypeSet(points=data.points, labels=data.group_of)
        with pytest.raises(ValidationError, match="at least one C"):
            svm_train(protos, (), spec=KernelSpec(0.5))

    def test_lockstep_machines_match_the_reference_smo_bit_for_bit(self):
        bound = free = 0
        for protos, spec, tol in selftest.svm_instances():
            K = kernel_matrix(protos.points, protos.points, spec)
            models = svm_train(protos, selftest.SVM_CS, spec, tol)
            for C, model in zip(selftest.SVM_CS, models):
                for alphas, y, bias, dual in zip(model.alphas, model.labels, model.bias,
                                                 model.dual_objective):
                    ref_alphas, ref_bias, ref_dual = selftest.reference_smo(K, y, C, tol)
                    assert np.array_equal(alphas, ref_alphas)
                    assert bias == ref_bias and dual == ref_dual
                    bound += bool(np.any(alphas == C))
                    free += bool(np.any((alphas > 0) & (alphas < C)))
        # the Cs span machines that end at the bound and machines that stay free
        assert bound > 0 and free > 0

    def test_training_stores_no_stacked_q(self):
        # 40 machines over 200 prototypes: a (machines, n, n) Q would be 12.2 MiB
        data = selftest.random_grouped(26, groups=10, n_per_group=20, d=5)
        protos = LabeledPrototypeSet(points=data.points, labels=data.group_of)
        tracemalloc.start()
        try:
            models = svm_train(protos, (0.1, 1.0, 10.0, 100.0), spec=KernelSpec(0.2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(models) == 4 and all(len(m.classes) == 10 for m in models)
        assert peak < 4 * 2**20

    def test_separable_blobs_training_accuracy_one(self):
        data = blobs(seed=2, n_per_group=8)
        protos = LabeledPrototypeSet(points=data.points, labels=data.group_of)
        model = svm_train(protos, (10.0,), spec=KernelSpec(0.5))[0]
        preds = model.predict(kernel_matrix(protos.points, data.points, KernelSpec(0.5)))
        assert np.all(preds == data.group_of)

    def test_conflicting_duplicates_cannot_both_be_right(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]])
        labels = np.array([0, 1, 0, 1])
        protos = LabeledPrototypeSet(points=pts, labels=labels)
        model = svm_train(protos, (0.5,), spec=KernelSpec(1.0))[0]
        preds = model.predict(kernel_matrix(protos.points, pts[:2], KernelSpec(1.0)))
        acc_on_conflict = np.mean(preds == labels[:2])
        assert acc_on_conflict <= 0.5 + 1e-9

    def test_dual_objective_matches_projected_gradient_oracle(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for trial in range(3):
            pts = rng.normal(size=(20, 3))
            labels = np.array([0] * 10 + [1] * 10)
            rng.shuffle(labels)
            if len(np.unique(labels)) < 2:
                continue
            protos = LabeledPrototypeSet(points=pts, labels=labels)
            C, gamma = [(1.0, 0.5), (10.0, 1.0), (0.3, 0.2)][trial]
            spec = KernelSpec(gamma)
            model = svm_train(protos, (C,), spec=spec, tol=1e-6)[0]
            K = kernel_matrix(pts, pts, spec)
            for dual, cls in zip(model.dual_objective, model.classes):
                y = np.where(labels == cls, 1.0, -1.0)
                oracle = pgd_dual_optimum(K, y, C)
                assert dual == pytest.approx(oracle, abs=1e-3)

    def test_alphas_respect_box_and_kkt(self):
        rng = np.random.Generator(np.random.PCG64(4))
        pts = rng.normal(size=(16, 2))
        labels = rng.integers(0, 2, size=16)
        if len(np.unique(labels)) < 2:
            labels[0] = 1 - labels[0]
        protos = LabeledPrototypeSet(points=pts, labels=labels)
        C = 2.0
        model = svm_train(protos, (C,), spec=KernelSpec(0.7))[0]
        K = kernel_matrix(pts, pts, KernelSpec(0.7))
        for a, y in zip(model.alphas, model.labels):
            assert np.all(a >= -1e-12) and np.all(a <= C + 1e-12)
            # KKT: max over I_up of (y - u) minus min over I_low <= tol
            u = y * ((K * np.outer(y, y)) @ a)
            neg_yG = y - u
            up = ((y > 0) & (a < C)) | ((y < 0) & (a > 0))
            low = ((y < 0) & (a < C)) | ((y > 0) & (a > 0))
            assert neg_yG[up].max() - neg_yG[low].min() <= 1e-3 + 1e-9

    def test_decision_values_invariant_to_presentation_order(self):
        rng = np.random.Generator(np.random.PCG64(5))
        data = blobs(seed=6, n_per_group=8, sep=3.0)
        perm = rng.permutation(data.n_points)
        protos_a = LabeledPrototypeSet(points=data.points, labels=data.group_of)
        protos_b = LabeledPrototypeSet(points=data.points[perm], labels=data.group_of[perm])
        spec = KernelSpec(0.6)
        queries = rng.normal(size=(10, 2)) + 3.0
        model_a = svm_train(protos_a, (1.0,), spec=spec, tol=1e-10)[0]
        model_b = svm_train(protos_b, (1.0,), spec=spec, tol=1e-10)[0]
        da = model_a.decision_values(kernel_matrix(protos_a.points, queries, spec))
        db = model_b.decision_values(kernel_matrix(protos_b.points, queries, spec))
        assert np.allclose(da, db, atol=1e-6)

    def test_single_class_errors(self):
        protos = LabeledPrototypeSet(points=np.zeros((3, 2)), labels=np.zeros(3, dtype=int))
        with pytest.raises(ValidationError):
            svm_train(protos, (1.0,), spec=KernelSpec(1.0))[0]

    def test_multiclass_tie_prefers_smallest_class(self):
        # three identical machines by symmetry: query at the centroid
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        protos = LabeledPrototypeSet(points=pts, labels=np.array([0, 1, 2]))
        model = svm_train(protos, (1.0,), spec=KernelSpec(1.0))[0]
        centroid = pts.mean(axis=0)
        K = kernel_matrix(protos.points, centroid[None, :], KernelSpec(1.0))
        values = model.decision_values(K).ravel()
        assert np.allclose(values, values[0], atol=1e-9)
        assert model.predict(K)[0] == 0

    def test_decision_values_evaluate_one_kernel(self, monkeypatch):
        # the machines of every C read one prototype x query kernel
        shapes = []

        def recording(X, Y, spec):
            shapes.append((len(X), len(Y)))
            return kernel_matrix(X, Y, spec)

        data = blobs(seed=23, n_per_group=5, groups=3)
        protos = LabeledPrototypeSet(points=data.points, labels=data.group_of)
        queries = data.points[:7] + 0.1
        Cs = (0.1, 1.0, 10.0, 100.0)
        expected = []
        for C in Cs:
            model = svm_train(protos, (C,), spec=KernelSpec(0.5))[0]
            expected.append(model.predict(kernel_matrix(protos.points, queries, KernelSpec(0.5))))
        monkeypatch.setattr(evaluation, "kernel_matrix", recording)
        preds = evaluation._classify("svm", protos, queries, 0.5, Cs)
        assert shapes == [(15, 15), (15, 7)]
        assert all(np.array_equal(p, e) for p, e in zip(preds, expected)) and len(preds) == 4

    def test_one_class_prototypes_predict_their_class_for_every_query_and_c(self):
        data = blobs(seed=2, n_per_group=4)
        protos = LabeledPrototypeSet(points=data.points[:3], labels=[1, 1, 1])
        with pytest.raises(ValidationError, match="at least 2 classes"):
            svm_train(protos, (1.0,), spec=KernelSpec(0.5))
        preds = evaluation._classify("svm", protos, data.points, 0.5, (0.1, 10.0))
        assert len(preds) == 2
        assert all(np.array_equal(p, np.ones(8, dtype=int)) for p in preds)


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy([0, 1, 1], [0, 1, 1]) == 1.0

    def test_binary_formula(self):
        # 10 positives with 8 hits, 40 negatives with 20 hits: 0.5*(0.8+0.5)
        truth = np.array([1] * 10 + [0] * 40)
        preds = np.array([1] * 8 + [0] * 2 + [0] * 20 + [1] * 20)
        assert balanced_accuracy(preds, truth) == pytest.approx(0.65, abs=1e-12)

    def test_constant_predictor_scores_half(self):
        truth = np.array([0] * 95 + [1] * 5)
        preds = np.zeros(100, dtype=int)
        assert balanced_accuracy(preds, truth) == pytest.approx(0.5, abs=1e-12)

    def test_relabel_invariance(self):
        rng = np.random.Generator(np.random.PCG64(7))
        truth = rng.integers(0, 3, size=60)
        preds = rng.integers(0, 3, size=60)
        base = balanced_accuracy(preds, truth)
        mapping = {0: 2, 1: 0, 2: 1}
        t2 = np.vectorize(mapping.get)(truth)
        p2 = np.vectorize(mapping.get)(preds)
        assert balanced_accuracy(p2, t2) == pytest.approx(base, abs=1e-12)

    def test_missing_class_errors(self):
        with pytest.raises(ValidationError):
            balanced_accuracy([0, 0], [0, 0], classes=[0, 1])


class TestGridSearch:
    def test_single_cell_returned(self):
        data = blobs(seed=8, n_per_group=9)
        grids = Grids(gammas=(0.7,), lams=(1.0,), Cs=(5.0,))
        chosen = grid_search_cv(data, "mmd-diff-greedy", M=2, grids=grids, classifier="1nn", seed=0)
        assert chosen == HyperParams(gamma=0.7, lam=1.0, C=None)

    def test_separating_gamma_beats_degenerate_gamma(self):
        data = blobs(seed=9, n_per_group=9, sep=8.0)
        # gamma so large the kernel underflows to the identity: every held-out
        # decision is the bias and predictions collapse to one class
        bad_gamma = 1e12
        protos = LabeledPrototypeSet(points=data.points, labels=data.group_of)
        degenerate = svm_train(protos, (10.0,), spec=KernelSpec(bad_gamma))[0]
        rng = np.random.Generator(np.random.PCG64(0))
        queries = rng.normal(size=(8, 2)) + 4.0
        K = kernel_matrix(protos.points, queries, KernelSpec(bad_gamma))
        assert len(set(degenerate.predict(K).tolist())) == 1
        grids = Grids(gammas=(0.5, bad_gamma), lams=(1.0,), Cs=(10.0,))
        chosen = grid_search_cv(data, "kmeans", M=2, grids=grids, classifier="svm", seed=1)
        assert chosen.gamma == 0.5

    def test_tied_cells_keep_smallest_gamma(self):
        # full per-group selection is forced for M = N_g, so every gamma ties
        data = blobs(seed=10, n_per_group=6)
        grids = Grids(gammas=(0.25, 0.5, 1.0), lams=(1.0,), Cs=(1.0,))
        chosen = grid_search_cv(data, "nn-comp-greedy", M=4, grids=grids, classifier="1nn", seed=2)
        assert chosen.gamma == 0.25

    @pytest.mark.parametrize(
        "method, grids, builds, trainings",
        [
            ("kmeans", Grids(gammas=(0.3, 0.6), Cs=(1.0, 10.0)), 3, 6),
            ("mmd-diff-greedy", Grids(gammas=(0.3, 0.6), lams=(0.5, 1.0), Cs=(1.0, 10.0)), 12, 12),
        ],
    )
    def test_summary_built_once_per_fold_and_read_axes(self, monkeypatch, method, grids, builds,
                                                        trainings):
        calls, trained = [], []

        def counting_build_summary(*args, **kwargs):
            calls.append(args)
            return build_summary(*args, **kwargs)

        def counting_svm_train(*args, **kwargs):
            trained.append(args)
            return svm_train(*args, **kwargs)

        monkeypatch.setattr(evaluation, "build_summary", counting_build_summary)
        monkeypatch.setattr(evaluation, "svm_train", counting_svm_train)
        grid_search_cv(blobs(seed=24, n_per_group=9), method, M=2, grids=grids, classifier="svm")
        assert len(calls) == builds
        # every C of one (fold, build, gamma) trains in one call
        assert len(trained) == trainings

    def test_lambda_builds_of_a_fold_and_gamma_share_one_table(self, monkeypatch):
        data = blobs(seed=26, n_per_group=9)
        grids = Grids(gammas=(0.3, 0.6), lams=(0.5, 1.0, 2.0))
        evaluations = count_group_sums_evaluations(monkeypatch)
        grid_search_cv(data, "mmd-diff-greedy", M=2, grids=grids, classifier="1nn")
        # one fold-labelled pass per gamma over the 18 train rows serves the
        # 3 folds x 3 lambdas of its builds
        assert sum(evaluations) == 2 * table_pass_evaluations(data)

    def test_fold_tables_match_fresh_passes_on_the_fold_training_rows(self):
        data = selftest.random_grouped(27, groups=3, n_per_group=(40, 9, 23), d=3)
        spec = KernelSpec(0.4)
        T = fold_sums(data, 5, spec)
        fold_of = evaluation.stratified_folds(data, 5)
        for held in range(evaluation.CV_FOLDS):
            others = [k for k in range(evaluation.CV_FOLDS) if k != held]
            rows = np.flatnonzero(fold_of != held)
            fresh = group_sums(data.subset(rows), spec)
            assert np.allclose(T[rows][:, :, others].sum(axis=2), fresh, rtol=1e-12, atol=0)
        assert np.allclose(T.sum(axis=2), group_sums(data, spec), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(3))
    def test_stratified_folds_label_each_group_round_robin(self, seed):
        data = selftest.random_grouped(seed, groups=3, n_per_group=(40, 9, 23), d=2)
        fold_of = evaluation.stratified_folds(data, seed)
        assert fold_of.shape == (data.n_points,) and fold_of.dtype.kind == "i"
        for rows in data.group_index:
            counts = np.bincount(fold_of[rows], minlength=evaluation.CV_FOLDS)
            assert counts.size == evaluation.CV_FOLDS and counts.max() - counts.min() <= 1
        assert (evaluation.stratified_folds(data, seed) == fold_of).all()

    def test_tied_c_axis_keeps_smallest_gamma_and_c(self):
        # well separated blobs: every (gamma, C) cell scores 1.0 on every fold
        data = blobs(seed=25, n_per_group=9, sep=8.0)
        grids = Grids(gammas=(0.1, 0.2), Cs=(1.0, 10.0, 100.0))
        chosen = grid_search_cv(data, "kmeans", M=2, grids=grids, classifier="svm", seed=5)
        assert chosen == HyperParams(gamma=0.1, lam=None, C=1.0)

    def test_inapplicable_axes_not_searched(self):
        data = blobs(seed=11, n_per_group=9)
        grids = Grids(gammas=(0.1, 1.0), lams=(0.5, 2.0), Cs=(1.0, 10.0))
        chosen = grid_search_cv(data, "kmeans", M=2, grids=grids, classifier="1nn", seed=3)
        assert chosen == HyperParams(gamma=None, lam=None, C=None)

    def test_deterministic(self):
        data = blobs(seed=12, n_per_group=9)
        grids = Grids(gammas=(0.3, 0.6), lams=(0.5, 1.0), Cs=(1.0,))
        a = grid_search_cv(data, "mmd-div-greedy", M=2, grids=grids, classifier="1nn", seed=4)
        b = grid_search_cv(data, "mmd-div-greedy", M=2, grids=grids, classifier="1nn", seed=4)
        assert a == b

    @pytest.mark.parametrize("kwargs", [
        {"gammas": ()}, {"lams": ()}, {"Cs": ()},
        {"gammas": (0.5, 0.0)}, {"gammas": (-1.0,)}, {"gammas": (math.inf,)}, {"gammas": (math.nan,)},
        {"lams": (1.0, -0.5)}, {"lams": (math.inf,)}, {"lams": (math.nan,)},
        {"Cs": (0.0,)}, {"Cs": (-2.0,)}, {"Cs": (math.inf,)}, {"Cs": (math.nan,)},
    ])
    def test_grids_reject_an_empty_list_and_an_out_of_range_value(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValidationError, match=f"Grids.{name} "):
            Grids(**kwargs)

    def test_grids_accept_a_zero_lambda(self):
        assert Grids(gammas=(0.5,), lams=(0.0,), Cs=(1.0,)).lams == (0.0,)

    @pytest.mark.parametrize("method, classifier", [
        ("mmd-diff-greedy", "1nn"), ("kmeans", "svm"), ("mmd-critic", "svm"),
    ])
    def test_an_unset_gamma_grid_is_the_median_heuristic_grid(self, method, classifier):
        data = blobs(seed=30, n_per_group=9)
        gammas = default_grids(data).gammas
        chosen = grid_search_cv(data, method, 2, Grids(), classifier=classifier, seed=3)
        assert chosen == grid_search_cv(data, method, 2, Grids(gammas=gammas), classifier=classifier, seed=3)
        assert chosen.gamma in gammas

    def test_receives_only_train_split(self):
        import inspect

        sig = inspect.signature(grid_search_cv)
        assert "test" not in sig.parameters


@pytest.mark.parametrize("seed", range(4))
def test_three_fold_column_means_equal_one_dimensional_means(seed):
    # grid_search_cv ranks cells by scores.mean(axis=0) over its 3 folds, which
    # must have the bits of each column's own 1-D mean, or a tie could move
    rng = np.random.Generator(np.random.PCG64(seed))
    fractions = rng.integers(0, 12, size=(3, 400)) / rng.integers(1, 12, size=(3, 400))
    for scores in (rng.random((3, 400)), np.minimum(fractions, 1.0)):
        assert (scores.mean(axis=0) == np.array([np.mean(c) for c in scores.T])).all()


@pytest.fixture
def in_process_pool(monkeypatch):
    """Make run_experiment's process pool run its map in this process, and
    return the list of its events: ("pool", max_workers, start method) when
    one is made, and ("map", tasks) when its map begins."""
    events = []

    class InProcessPool:
        def __init__(self, max_workers, mp_context=None):
            events.append(("pool", max_workers, mp_context and mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            events.append(("map", tasks))
            return map(fn, tasks)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", InProcessPool)
    return events


def arrays_outside_the_split(task):
    """The numpy arrays a pool task holds in its tuples, lists and dicts,
    outside its SplitPair."""
    stack, found = list(task), []
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack += item.values()
        elif isinstance(item, (tuple, list)):
            stack += item
        elif isinstance(item, np.ndarray):
            found.append(item)
    return found


class TestRunExperiment:
    def test_mmd_critic_svm_scores_a_summary_that_holds_one_group(self):
        # M = 1: one prototype and one criticism, both in the 40-row group here
        splits = make_splits(selftest.random_grouped(3, groups=2, n_per_group=(40, 6), d=2, spread=0.5),
                             0.8, 2, 0)
        (report,) = run_experiment(splits, ["mmd-critic"], [1], ["svm"])
        for split, result in zip(splits, report.splits):
            assert build_summary("mmd-critic", split.train, 1, result.params).prototypes[1] == ()
        # one predicted class over two balanced-accuracy classes, as 1-NN would score
        assert report.mean == 0.5

    @pytest.mark.parametrize("empty", ["methods", "m_list", "classifiers"])
    def test_an_empty_axis_is_rejected(self, empty):
        splits = make_splits(blobs(seed=27), 0.75, 1, 0)
        axes = {"methods": ["mmd-diff-greedy"], "m_list": [2], "classifiers": ["1nn"], empty: []}
        with pytest.raises(ValidationError, match=f"at least one value in {empty}"):
            run_experiment(splits, **axes)

    def test_one_table_pass_per_split_and_gamma(self, monkeypatch):
        # every fold, lambda, method and final build of the split reads the
        # pass of its gamma; one pass per build would make dozens
        data = blobs(seed=28, n_per_group=12)
        splits = make_splits(data, 0.75, 1, 2)
        evaluations = count_group_sums_evaluations(monkeypatch)
        run_experiment(splits, methods=["mmd-diff-greedy", "mmd-critic"], m_list=[2])
        gammas = default_grids(splits[0].train).gammas
        assert len(gammas) == 5
        one_per_gamma = [table_pass_evaluations(splits[0].train)] * len(gammas)
        assert evaluations == one_per_gamma
        # a gradient method reads a table only through its greedy start, so
        # the other starts make no pass
        for method in ("mmd-diff-grad", "mmd-div-grad"):
            for grad_init, passes in (("greedy", one_per_gamma), ("kmeans", []), ("random", [])):
                evaluations.clear()
                run_experiment(splits, [method], [2], grids=Grids(lams=(1.0,)), grad_init=grad_init)
                assert evaluations == passes, (method, grad_init)

    @pytest.mark.parametrize("axis", ["methods", "m_list", "classifiers"])
    def test_a_repeated_value_is_rejected(self, axis):
        # a repeated value would run every one of its cells again
        splits = make_splits(blobs(seed=27), 0.75, 1, 0)
        axes = {"methods": ["kmeans"], "m_list": [2], "classifiers": ["1nn"]}
        axes[axis] = axes[axis] * 2
        with pytest.raises(ValidationError, match=f"twice in {axis}"):
            run_experiment(splits, **axes)

    def test_one_cell_grid_runs_on_groups_too_small_for_cv(self):
        # 2 train rows in one group cannot fill 3 folds; a one-cell grid
        # needs none, and its build reads the whole train table
        rng = np.random.Generator(np.random.PCG64(0))
        data = from_rows(np.vstack([rng.normal(size=(12, 2)), rng.normal(size=(3, 2)) + 4.0]), ["a"] * 12 + ["b"] * 3)
        splits = make_splits(data, 0.67, 1, 0)
        assert splits[0].train.group_sizes().min() < evaluation.CV_FOLDS
        params = HyperParams(gamma=0.5, lam=1.0)
        (report,) = run_experiment(splits, ["mmd-diff-greedy"], [1], grids=Grids(gammas=(0.5,), lams=(1.0,)))
        assert report.splits[0].params == params
        summary = build_summary("mmd-diff-greedy", splits[0].train, 1, params)
        preds = knn1_predict_batch(LabeledPrototypeSet.from_summary(summary, splits[0].train), splits[0].test.points)
        assert report.mean == balanced_accuracy(preds, splits[0].test.group_of, classes=[0, 1])

    def test_single_split_has_no_ci(self):
        data = blobs(seed=13, n_per_group=10)
        reports = run_experiment(
            make_splits(data, 0.8, 1, 0), methods=["kmeans"], m_list=[2], grids=Grids(gammas=(0.5,)),
        )
        assert len(reports) == 1
        assert reports[0].ci95_halfwidth is None
        assert len(reports[0].splits) == 1

    @pytest.mark.parametrize("n", range(2, 31))
    def test_ci95_is_the_student_t_interval_bit_for_bit(self, n):
        rng = np.random.Generator(np.random.PCG64(n))
        accs = rng.uniform(0.5, 1.0, size=n)
        report = EvalReport("kmeans", 2, "1nn", tuple(
            SplitResult(split=s, seed=s, balanced_accuracy=float(a), params=HyperParams())
            for s, a in enumerate(accs)))
        expected = float(student_t.ppf(0.975, n - 1) * np.std(accs, ddof=1) / np.sqrt(n))
        assert report.ci95_halfwidth == expected

    def test_identical_methods_identical_reports(self):
        # a repeated method is rejected, so the same method runs in two
        # experiments; its report does not depend on the cells before it
        data = blobs(seed=14, n_per_group=10)
        grids = Grids(gammas=(0.5,), lams=(1.0,), Cs=(1.0,))
        splits = make_splits(data, 0.8, 2, 3)
        (a,) = run_experiment(splits, methods=["kmeans"], m_list=[2], grids=grids)
        _, b = run_experiment(splits, methods=["full", "kmeans"], m_list=[2], grids=grids)
        assert a == b

    @pytest.mark.parametrize("n_splits, pools", [(2, [2]), (1, [])])
    def test_pool_has_at_most_one_worker_per_split(self, n_splits, pools, in_process_pool):
        # a forked pool starts all max_workers processes at once
        splits = make_splits(blobs(seed=17, n_per_group=10), 0.8, n_splits, 0)
        (report,) = run_experiment(splits, ["kmeans"], [2], grids=Grids(gammas=(0.5,)), workers=8)
        assert [event[1] for event in in_process_pool if event[0] == "pool"] == pools
        assert len(report.splits) == n_splits

    def test_pool_workers_are_forked(self, in_process_pool):
        # forked workers inherit the BLAS pools that cli.pin_blas_threads set;
        # forkserver, Python 3.14's Linux default, would start them unpinned
        splits = make_splits(blobs(seed=17, n_per_group=10), 0.8, 2, 0)
        run_experiment(splits, ["kmeans"], [2], workers=2)
        assert in_process_pool[0] == ("pool", 2, "fork")

    def test_each_split_task_makes_its_own_grid_and_tables(self, in_process_pool, monkeypatch):
        # the parent makes no gamma grid or table pass and ships no table:
        # each split's task makes its own once the pool's map has begun
        events = in_process_pool

        def recorded(name):
            original = getattr(evaluation, name)

            def call(*args):
                events.append((name,))
                return original(*args)

            return call

        for name in ("default_grids", "fold_sums"):
            monkeypatch.setattr(evaluation, name, recorded(name))
        splits = make_splits(blobs(seed=29, n_per_group=12), 0.75, 2, 4)
        kwargs = dict(methods=["mmd-diff-greedy", "kmeans"], m_list=[2], classifiers=["1nn", "svm"],
                      grids=Grids(lams=(1.0,), Cs=(1.0,)))
        par = run_experiment(splits, workers=2, **kwargs)
        per_split = ["default_grids"] + ["fold_sums"] * 5
        assert [event[0] for event in events] == ["pool", "map", *per_split, *per_split]
        tasks = events[1][1]
        assert len(tasks) == 2 and not any(arrays_outside_the_split(task) for task in tasks)
        assert run_experiment(splits, workers=1, **kwargs) == par

    def test_mean_matches_split_scores(self):
        data = blobs(seed=15, n_per_group=10)
        reports = run_experiment(
            make_splits(data, 0.8, 3, 1), methods=["kmedoids"], m_list=[2], grids=Grids(gammas=(0.5,)),
        )
        rep = reports[0]
        assert rep.mean == pytest.approx(
            np.mean([s.balanced_accuracy for s in rep.splits]), abs=1e-12
        )

    def test_full_method_and_report_outputs(self):
        data = blobs(seed=16, n_per_group=10)
        reports = run_experiment(
            make_splits(data, 0.8, 2, 5), methods=["full", "kmeans"], m_list=[2], grids=Grids(gammas=(0.5,)),
        )
        csv = reports_to_csv(reports)
        lines = csv.strip().split("\n")
        assert lines[0] == "method,M,classifier,split,gamma,lambda,C,balanced_accuracy"
        # 2 methods x (2 split rows + 1 aggregate)
        assert len(lines) == 1 + 2 * 3
        text = reports_to_text(reports)
        assert "classifier: 1nn" in text
        assert "full" in text and "kmeans" in text

    def test_workers_do_not_change_results(self):
        data = blobs(seed=17, n_per_group=10)
        grids = Grids(gammas=(0.5,), lams=(1.0,), Cs=(1.0,))
        kwargs = dict(methods=["kmeans"], m_list=[2], grids=grids)
        splits = make_splits(data, 0.8, 2, 2)
        seq = run_experiment(splits, workers=1, **kwargs)
        par = run_experiment(splits, workers=2, **kwargs)
        assert reports_to_csv(seq) == reports_to_csv(par)

    def test_gamma_grid_is_computed_once_per_split(self, monkeypatch):
        calls = []

        def counting_median_gamma(*args, **kwargs):
            calls.append(args)
            return median_gamma(*args, **kwargs)

        monkeypatch.setattr(evaluation, "median_gamma", counting_median_gamma)
        data = blobs(seed=19, n_per_group=10)
        kwargs = dict(methods=["mmd-diff-greedy", "mmd-critic", "mmd-diff-grad"], m_list=[2],
                      grids=Grids(lams=(1.0,)))
        splits = make_splits(data, 0.8, 1, 3)
        seq = run_experiment(splits, workers=1, **kwargs)
        assert len(calls) == 1
        par = run_experiment(splits, workers=2, **kwargs)
        assert reports_to_csv(seq) == reports_to_csv(par)


def test_readme_library_use_block_runs():
    # the README's "Library use" example as written, on seeded 2 x 12-point data
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    rng = np.random.Generator(np.random.PCG64(0))
    scope = {"points": np.vstack([rng.normal(size=(12, 2)), rng.normal(size=(12, 2)) + 4.0]),
             "group_labels": ["a"] * 12 + ["b"] * 12}
    exec(code, scope)
    assert [r.method for r in scope["reports"]] == ["mmd-diff-grad", "kmeans"]
    assert all(len(r.splits) == 10 for r in scope["reports"])


@pytest.mark.parametrize("func, names", [
    (build_summary, ("seed", "grad_init", "sums")),
    (grid_search_cv, ("classifier", "seed", "grad_init", "tables")),
    (run_experiment, ("grids", "grad_init", "workers")),
])
def test_settings_after_the_data_are_keyword_only(func, names):
    # perfbench/tracer.py reads these from a call's keywords before its
    # positions, so a call must name them
    kinds = {name: p.kind for name, p in inspect.signature(func).parameters.items()}
    assert {name: kinds[name] for name in names} == dict.fromkeys(names, inspect.Parameter.KEYWORD_ONLY)


def test_text_table_leaves_a_missing_cell_blank():
    split = SplitResult(split=0, seed=0, balanced_accuracy=0.75, params=HyperParams())
    reports = [EvalReport("kmeans", 2, "1nn", (split,)), EvalReport("full", 4, "1nn", (split,))]
    lines = reports_to_text(reports).splitlines()
    assert lines[1:4] == [
        "method".ljust(18) + "M=2".rjust(16) + "M=4".rjust(16),
        "full".ljust(18) + " " * 16 + "0.750".rjust(16),
        "kmeans".ljust(18) + "0.750".rjust(16) + " " * 16,
    ]


def test_default_grids_centered_on_median_heuristic():
    data = blobs(seed=18, n_per_group=10)
    grids = default_grids(data)
    assert len(grids.gammas) == 5
    center = grids.gammas[2]
    assert grids.gammas == tuple(center * f for f in (0.25, 0.5, 1.0, 2.0, 4.0))


class TestMethodRegistry:
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_every_method_validates_and_builds(self, method):
        RunConfig(usps_train="unused", method=(method,)).validate()
        data = blobs(seed=20, n_per_group=6)
        summary = build_summary(method, data, 2, HyperParams(gamma=0.5, lam=1.0))
        summary.validate_against(data)

    @pytest.mark.parametrize("classifier", ["1nn", "svm"])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_grid_search_axes_follow_registry(self, method, classifier):
        entry = METHODS[method]
        svm = classifier == "svm"
        grids = Grids(gammas=(0.5,), lams=(1.0,), Cs=(2.0,))
        chosen = grid_search_cv(blobs(seed=21, n_per_group=6), method, 2, grids, classifier=classifier)
        assert chosen == HyperParams(
            gamma=0.5 if entry.uses_gamma or svm else None,
            lam=1.0 if entry.uses_lam else None,
            C=2.0 if svm else None,
        )

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_unread_axes_do_not_change_the_summary(self, method):
        # grid_search_cv shares one build across the axes a method does not read
        entry = METHODS[method]
        data = blobs(seed=26, n_per_group=6)
        base = build_summary(method, data, 2, HyperParams(gamma=0.5, lam=1.0)).prototypes
        if not entry.uses_gamma:
            assert build_summary(method, data, 2, HyperParams(gamma=2.0, lam=1.0)).prototypes == base
        if not entry.uses_lam:
            assert build_summary(method, data, 2, HyperParams(gamma=0.5, lam=2.0)).prototypes == base

    @pytest.mark.parametrize("method", sorted(name for name, entry in METHODS.items() if entry.reads_table("greedy")))
    def test_a_given_table_builds_the_fresh_summary_without_a_pass(self, method, monkeypatch):
        # sums is the plain group_sums array at the build's gamma
        data = blobs(seed=29, n_per_group=8)
        params = HyperParams(gamma=0.5, lam=1.0)
        fresh = build_summary(method, data, 2, params)
        sums = group_sums(data, KernelSpec(params.gamma))
        evaluations = count_group_sums_evaluations(monkeypatch)
        assert build_summary(method, data, 2, params, sums=sums) == fresh
        assert evaluations == []

    def test_builders_call_patched_module_attributes(self, monkeypatch):
        # the benchmark tracer rewraps module attributes; a registry holding
        # the original function objects would bypass it
        sentinel = object()
        monkeypatch.setattr(baselines, "kmeans_summary", lambda *a, **k: sentinel)
        monkeypatch.setattr(greedy, "greedy_select", lambda *a, **k: sentinel)
        data = blobs(seed=22, n_per_group=6)
        params = HyperParams(gamma=0.5, lam=1.0)
        for method in ("kmeans", "nn-comp-greedy", "mmd-diff-greedy", "mmd-div-greedy"):
            assert build_summary(method, data, 2, params) is sentinel


@pytest.mark.skipif(usps_paths() is None, reason=USPS_SKIP_REASON)
def test_full_train_knn_dominates_summarisers_on_usps():
    # observed-trend check on one split: 1-NN on the full training set scores
    # at least as high as 1-NN on any summariser's prototypes (equality allowed)
    from protosel.cli import _pca_split
    from protosel.corpus import load_usps_pair

    train_path, test_path = usps_paths()
    combined, train_rows, test_rows = load_usps_pair(train_path, test_path)
    split = make_splits(combined, 0.784, 1, base_seed=0, first_split=(train_rows, test_rows))[0]
    split = _pca_split(split, 0.85)
    reports = run_experiment(
        [split], methods=["full", "kmeans", "kmedoids"], m_list=[16], classifiers=("1nn",),
    )
    means = {r.method: r.mean for r in reports}
    assert means["full"] >= means["kmeans"] - 1e-12
    assert means["full"] >= means["kmedoids"] - 1e-12


def test_prototype_set_from_summary_orders_group_major():
    data = blobs(seed=19, n_per_group=5)
    summary = build_summary("kmeans", data, 2, HyperParams(), seed=0)
    protos = LabeledPrototypeSet.from_summary(summary, data)
    assert protos.labels.tolist() == [0, 0, 1, 1]
