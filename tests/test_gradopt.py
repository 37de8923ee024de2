import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from protosel import gradopt, selftest
from protosel.corpus import from_rows
from protosel.errors import NumericError, ValidationError
from protosel.gradopt import (
    _MetaObjective,
    optimize_meta,
    snap,
)
from protosel.kernel import KernelSpec, kernel_matrix
from protosel.objectives import MetaPrototypes, ObjectiveSpec, Summary, utility_value
from protosel.selftest import gradient_error, group_term, random_grouped


class TestGradient:
    @pytest.mark.parametrize("kind", ["mmd-diff", "mmd-div"])
    def test_matches_finite_differences(self, kind):
        rng = np.random.Generator(np.random.PCG64(21))
        cases = []
        for trial in range(25):
            data = random_grouped(300 + trial, groups=2, n_per_group=6)
            spec = ObjectiveSpec(
                kind=kind,
                kernel=KernelSpec(float(rng.uniform(0.2, 1.5))),
                lam=float(rng.uniform(0.0, 2.0)),
            )
            m = int(rng.integers(1, 4))
            meta_pts = [rng.normal(scale=1.5, size=(m, data.dim)) for _ in range(2)]
            cases.append((data, spec, meta_pts))
        # groups of unequal size with 1, 2 and 3 prototypes
        data = random_grouped(320, groups=3, n_per_group=(5, 8, 11))
        meta_pts = [rng.normal(scale=1.5, size=(m, data.dim)) for m in (1, 2, 3)]
        for lam in (0.0, 1.3):
            spec = ObjectiveSpec(kind=kind, kernel=KernelSpec(0.6), lam=lam)
            cases.append((data, spec, meta_pts))
        # one group at lam = 0 (the pooled case): its rest is empty
        data = random_grouped(321, groups=1, n_per_group=7)
        spec = ObjectiveSpec(kind=kind, kernel=KernelSpec(0.6), lam=0.0)
        cases.append((data, spec, [rng.normal(scale=1.5, size=(2, data.dim))]))
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for data, spec, meta_pts in cases:
                worst = max(worst, gradient_error(meta_pts, data, spec))
        assert worst <= 1e-5

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_value_grad_evaluates_two_kernels(self, lam, monkeypatch):
        # k(A, points) comes from one GEMM block; only k(A, A) calls
        # kernel_matrix, once per evaluation and for all groups at once
        shapes = []

        def recording(X, Y, spec):
            shapes.append((len(X), len(Y)))
            return kernel_matrix(X, Y, spec)

        monkeypatch.setattr(gradopt, "kernel_matrix", recording)
        data = random_grouped(33, groups=3, n_per_group=6)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.5), lam=lam)
        evaluator = _MetaObjective(data, spec, [2, 2, 2])
        assert shapes == []
        for shift in (0.0, 0.5):
            evaluator.value_grad(data.points[[0, 1, 6, 7, 12, 13]] + shift)
        assert shapes == [(6, 6), (6, 6)]

    def test_stationary_at_symmetric_configuration(self):
        # every group-g point identical to p, one meta point at p, lam = 0:
        # the gradient vanishes exactly
        p = np.array([1.0, -2.0])
        data = from_rows(np.vstack([np.tile(p, (4, 1)), np.random.default_rng(0).normal(size=(4, 2)) + 10]),
                         ["a"] * 4 + ["b"] * 4)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.5), lam=0.0)
        _, grad = _MetaObjective(data, spec, [1, 1]).value_grad(np.vstack([p, data.points[4]]))
        assert np.allclose(grad[0], 0.0, atol=1e-15)

    def test_value_equals_pure_utility_at_data_points(self):
        # the optimizer's value drops only selection-independent constants, so
        # its differences between configurations equal the pure utility's:
        # utility_value at the data points, the definitional terms off them
        cases = [
            (random_grouped(22), ((0, 2), (8, 10)), (0.0, 1.0, 2.5)),
            # groups of 5, 8 and 11 points with 1, 2 and 3 prototypes
            (
                random_grouped(23, groups=3, n_per_group=(5, 8, 11)),
                ((1,), (5, 9), (14, 20, 23)),
                (0.0, 1.3),
            ),
        ]
        for data, prototypes, lams in cases:
            summary = Summary(prototypes=prototypes)
            at_data = [data.points[list(rows)] for rows in prototypes]
            rng = np.random.Generator(np.random.PCG64(22))
            off_data = [rng.normal(scale=1.5, size=(len(rows), data.dim)) for rows in prototypes]
            for kind in ("mmd-diff", "mmd-div"):
                for lam in lams:
                    spec = ObjectiveSpec(kind=kind, kernel=KernelSpec(0.7), lam=lam)
                    evaluator = _MetaObjective(data, spec, [len(rows) for rows in prototypes])
                    moved = (evaluator.value_grad(np.vstack(at_data))[0]
                             - evaluator.value_grad(np.vstack(off_data))[0])
                    pure = utility_value(spec, summary, data) - sum(
                        group_term(data, spec, g, P) for g, P in enumerate(off_data)
                    )
                    assert moved == pytest.approx(pure, abs=1e-12)

    def test_nonfinite_input_errors(self):
        data = random_grouped(23)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.5), lam=1.0)
        with pytest.raises(NumericError):
            MetaPrototypes(points=(np.array([[np.nan, 0.0, 0.0]]), np.zeros((1, 3))))

    def test_rejects_a_group_count_mismatch(self):
        data = random_grouped(24, groups=3)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(1.0), lam=1.0)
        with pytest.raises(ValidationError, match="group count"):
            _MetaObjective(data, spec, [1, 1])

    def test_rejects_a_group_without_meta_prototypes(self):
        # its weights would divide by a prototype count of 0
        data = random_grouped(24)
        spec = ObjectiveSpec(kind="mmd-div", kernel=KernelSpec(1.0), lam=1.0)
        with pytest.raises(ValidationError, match="at least one meta-prototype"):
            _MetaObjective(data, spec, [0, 1])

    def test_rejects_wrong_kind(self):
        data = random_grouped(24)
        with pytest.raises(ValidationError, match="gradient path supports"):
            _MetaObjective(data, ObjectiveSpec(kind="nn", kernel=KernelSpec(1.0)), [1, 1])


class TestOptimizeMeta:
    def test_stationary_start_returns_initialization(self):
        p = np.array([0.5, 0.5])
        pts = np.vstack([np.tile(p, (5, 1)), np.random.default_rng(1).normal(size=(5, 2)) + 50])
        data = from_rows(pts, ["a"] * 5 + ["b"] * 5)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.5), lam=0.0)
        # greedy init lands on data points; for group a all points equal p,
        # so its meta point starts exactly at the stationary point
        meta = optimize_meta(data, spec, M=1, init="greedy")
        assert np.allclose(meta.points[0][0], p, atol=1e-12)

    @pytest.mark.parametrize("init", ["greedy", "kmeans", "random"])
    def test_final_value_not_below_initialization(self, init):
        data = random_grouped(25, groups=2, n_per_group=10, d=2)
        for kind in ("mmd-diff", "mmd-div"):
            spec = ObjectiveSpec(kind=kind, kernel=KernelSpec(0.6), lam=1.0)
            from protosel.gradopt import _initial_points, _MetaObjective

            evaluator = _MetaObjective(data, spec, [2, 2])
            init_points = _initial_points(data, spec, 2, init, 3, None)
            v0 = evaluator.value_grad(np.vstack(init_points))[0]
            meta = optimize_meta(data, spec, M=2, init=init, seed=3)
            v1 = evaluator.value_grad(np.vstack(meta.points))[0]
            assert v1 >= v0 - 1e-10

    def test_well_separated_blobs_improve_over_greedy_init(self):
        rng = np.random.Generator(np.random.PCG64(26))
        a = rng.normal(size=(12, 2))
        b = rng.normal(size=(12, 2)) + 8.0
        data = from_rows(np.vstack([a, b]), ["a"] * 12 + ["b"] * 12)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.3), lam=1.0)
        from protosel.greedy import greedy_select

        init_summary = greedy_select(data, spec, 1)
        init_value = utility_value(spec, init_summary, data)
        meta = optimize_meta(data, spec, M=1, init="greedy")
        final_value = sum(group_term(data, spec, g, P) for g, P in enumerate(meta.points))
        assert final_value >= init_value - 1e-10

    def test_deterministic_across_runs(self):
        data = random_grouped(27, groups=2, n_per_group=9)
        spec = ObjectiveSpec(kind="mmd-div", kernel=KernelSpec(0.5), lam=1.0)
        a = optimize_meta(data, spec, M=2, init="kmeans", seed=11)
        b = optimize_meta(data, spec, M=2, init="kmeans", seed=11)
        for g in range(2):
            assert np.array_equal(a.points[g], b.points[g])

    def test_accepted_values_nondecreasing(self, monkeypatch):
        # optimize_meta minimizes the negated objective through gradopt.minimize;
        # record the objective at the start and at every accepted iterate
        trace = []

        def recording(fun, x0, **kwargs):
            trace.append(-fun(x0)[0])
            return minimize(fun, x0, callback=lambda xk: trace.append(-fun(xk)[0]), **kwargs)

        monkeypatch.setattr(gradopt, "minimize", recording)
        for seed in range(4):
            data = random_grouped(40 + seed, groups=2, n_per_group=10, d=2)
            spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.5), lam=1.0)
            trace.clear()
            optimize_meta(data, spec, M=2, init="random", seed=seed)
            assert len(trace) >= 2
            assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))
            assert any(b > a for a, b in zip(trace, trace[1:]))

    def test_an_optimizer_result_below_the_start_falls_back_to_it(self, monkeypatch):
        # the wrapper descends the objective instead of ascending it
        data = random_grouped(29, groups=2, n_per_group=8, d=2)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.5), lam=1.0)
        evaluator = _MetaObjective(data, spec, [2, 2])
        runs = []

        def descending(fun, x0, **kwargs):
            runs.append((x0.copy(), minimize(lambda x: tuple(-v for v in fun(x)), x0, **kwargs)))
            return runs[-1][1]

        monkeypatch.setattr(gradopt, "minimize", descending)
        meta = optimize_meta(data, spec, M=2, init="greedy")
        (x0, res), = runs
        start = x0.reshape(4, 2)
        assert evaluator.value_grad(res.x.reshape(4, 2))[0] < evaluator.value_grad(start)[0]
        assert np.array_equal(np.vstack(meta.points), start)

    def test_config_validation(self):
        data = random_grouped(28, groups=2, n_per_group=6)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.5), lam=1.0)
        with pytest.raises(ValidationError):
            optimize_meta(data, spec, M=2, init="nope")


class TestSnap:
    def test_exact_data_point_selected(self):
        data = random_grouped(28)
        meta = MetaPrototypes(points=(data.points[[3]].copy(), data.points[[9]].copy()))
        summary = snap(meta, data)
        assert summary.prototypes == ((3,), (9,))

    def test_collision_takes_next_nearest_unused(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
        data = from_rows(pts, ["a"] * 3 + ["b"] * 2)
        target = np.array([[0.2, 0.0], [0.1, 0.0]])  # both nearest to row 0
        meta = MetaPrototypes(points=(target, pts[3:4].copy()))
        summary = snap(meta, data)
        assert summary.prototypes[0] == (0, 1)  # first meta gets 0, second its next-nearest

    def test_distance_tie_prefers_smaller_row_index(self):
        pts = np.array([[0.0], [2.0], [9.0]])
        data = from_rows(pts, ["a"] * 3)
        meta = MetaPrototypes(points=(np.array([[1.0]]),))  # equidistant to rows 0 and 1
        summary = snap(meta, data)
        assert summary.prototypes[0] == (0,)

    def test_matches_exhaustive_nearest_unused_scan(self):
        rng = np.random.Generator(np.random.PCG64(29))
        data = random_grouped(30, groups=2, n_per_group=7, d=2)
        metas = tuple(rng.normal(scale=3.0, size=(3, 2)) for _ in range(2))
        summary = snap(MetaPrototypes(points=metas), data)
        for g in range(2):
            used = set()
            expected = []
            for a in metas[g]:
                candidates = sorted(
                    (float(np.sum((data.points[r] - a) ** 2)), int(r))
                    for r in data.group_index[g]
                    if int(r) not in used
                )
                pick = candidates[0][1]
                used.add(pick)
                expected.append(pick)
            assert list(summary.prototypes[g]) == expected

    def test_idempotent_on_own_points(self):
        data = random_grouped(31)
        original = Summary(prototypes=((1, 5), (9, 12)))
        meta = MetaPrototypes(
            points=tuple(data.points[list(original.prototypes[g])] for g in range(2))
        )
        assert snap(meta, data).prototypes == original.prototypes


class TestEvaluatorOracle:
    def test_offset_case_catches_an_uncentred_evaluator(self, monkeypatch):
        init = _MetaObjective.__init__

        def uncentred(self, data, spec, counts):
            init(self, data, spec, counts)
            self.center = np.zeros(data.dim)
            self.Xc = data.points
            self.x2 = np.einsum("ij,ij->i", data.points, data.points)

        monkeypatch.setattr(_MetaObjective, "__init__", uncentred)
        ok, detail = selftest.meta_objective_suite()
        assert not ok, detail
