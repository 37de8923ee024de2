import math

import numpy as np
import pytest
from conftest import count_group_sums_evaluations, table_pass_evaluations

from protosel import kernel, objectives
from protosel.corpus import from_rows
from protosel.errors import ValidationError
from protosel.gradopt import optimize_meta
from protosel.greedy import greedy_select
from protosel.kernel import KernelSpec, group_sums, kernel_matrix
from protosel.objectives import (
    MetaPrototypes,
    ObjectiveSpec,
    Summary,
    mmd2,
    rest_self_means,
    utility_value,
)
from protosel.selftest import brute_mmd2, random_grouped, total_value


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
def test_objective_spec_rejects_negative_or_non_finite_lam(lam):
    with pytest.raises(ValidationError, match="lam must be finite and nonnegative"):
        ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(1.0), lam=lam)


@pytest.mark.parametrize("kind", ["mmd-diff", "mmd-div"])
@pytest.mark.parametrize("call", [
    lambda data, spec: greedy_select(data, spec, 2),
    lambda data, spec: optimize_meta(data, spec, 2),
    lambda data, spec: utility_value(spec, Summary(prototypes=((0, 1),)), data),
], ids=["greedy_select", "optimize_meta", "utility_value"])
def test_one_group_with_positive_lambda_has_one_message(call, kind):
    data = random_grouped(11, groups=1, n_per_group=6)
    spec = ObjectiveSpec(kind=kind, kernel=KernelSpec(0.5), lam=1.0)
    with pytest.raises(ValidationError, match=r"^comparative objectives need at least 2 groups when lam > 0$"):
        call(data, spec)


class TestMmd2:
    def test_identical_multisets(self):
        rng = np.random.Generator(np.random.PCG64(0))
        X = rng.normal(size=(7, 3))
        assert abs(mmd2(X, X.copy(), KernelSpec(0.5))) <= 1e-12

    def test_singletons(self):
        x = np.array([[0.0, 0.0]])
        y = np.array([[1.0, 1.0]])
        spec = KernelSpec(0.5)
        expected = 2.0 - 2.0 * math.exp(-1.0)
        assert mmd2(x, y, spec) == pytest.approx(expected, abs=1e-14)
        assert mmd2(x, x, spec) == 0.0

    def test_brute_force_oracle(self):
        rng = np.random.Generator(np.random.PCG64(1))
        X = rng.normal(size=(7, 4))
        Y = rng.normal(size=(5, 4))
        gamma = 0.7
        assert mmd2(X, Y, KernelSpec(gamma)) == pytest.approx(
            brute_mmd2(X, Y, gamma), abs=1e-12
        )

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(20):
            X = rng.normal(size=(int(rng.integers(1, 9)), 3))
            Y = rng.normal(size=(int(rng.integers(1, 9)), 3))
            spec = KernelSpec(float(rng.uniform(0.1, 2.0)))
            a, b = mmd2(X, Y, spec), mmd2(Y, X, spec)
            assert a == pytest.approx(b, abs=1e-12)
            assert a >= -1e-12

    def test_empty_input_error(self):
        with pytest.raises(ValidationError):
            mmd2(np.empty((0, 2)), np.ones((2, 2)), KernelSpec(1.0))

    def test_subsample_shrinks_toward_zero(self):
        rng = np.random.Generator(np.random.PCG64(3))
        X = rng.normal(size=(40, 2))
        order = rng.permutation(40)
        spec = KernelSpec(0.5)
        values = [mmd2(X, X[order[:k]], spec) for k in (1, 5, 10, 20, 40)]
        inversions = sum(1 for a, b in zip(values, values[1:]) if b > a + 1e-12)
        assert inversions <= 1
        assert values[-1] <= 1e-12


class TestUtilityNn:
    def test_full_selection_sums_group_sizes(self):
        data = random_grouped(4, n_per_group=6)
        summary = Summary(
            prototypes=tuple(tuple(int(r) for r in data.group_index[g]) for g in range(2)),
        )
        value = utility_value(ObjectiveSpec(kind="nn", kernel=KernelSpec(0.8)), summary, data)
        assert value == pytest.approx(data.n_points, abs=1e-12)

    def test_degenerate_group_of_identical_points(self):
        data = from_rows(np.zeros((3, 2)), ["a", "a", "a"])
        summary = Summary(prototypes=((0,),))
        spec = ObjectiveSpec(kind="nn", kernel=KernelSpec(1.0))
        assert utility_value(spec, summary, data) == pytest.approx(3.0, abs=1e-14)

    def test_nested_loop_oracle(self):
        data = random_grouped(5, n_per_group=6)
        spec = ObjectiveSpec(kind="nn", kernel=KernelSpec(0.6))
        summary = Summary(prototypes=((0, 3), (6, 8)))
        expected = 0.0
        for g in range(2):
            for i in data.group_index[g]:
                best = max(
                    math.exp(-0.6 * float(np.sum((data.points[p] - data.points[i]) ** 2)))
                    for p in summary.prototypes[g]
                )
                expected += best
        assert utility_value(spec, summary, data) == pytest.approx(expected, abs=1e-12)

    def test_empty_group_list_error(self):
        data = random_grouped(6, n_per_group=6)
        summary = Summary(prototypes=((0,), ()))
        with pytest.raises(ValidationError):
            utility_value(ObjectiveSpec(kind="nn", kernel=KernelSpec(1.0)), summary, data)


class TestUtilityDiff:
    def test_lambda_zero_is_per_group_fit(self):
        data = random_grouped(7, n_per_group=6)
        kspec = KernelSpec(0.5)
        summary = Summary(prototypes=((0, 2), (7, 9)))
        spec = ObjectiveSpec(kind="mmd-diff", kernel=kspec, lam=0.0)
        expected = -sum(
            mmd2(data.points[list(summary.prototypes[g])], data.group_points(g), kspec)
            for g in range(2)
        )
        assert utility_value(spec, summary, data) == pytest.approx(expected, abs=1e-12)

    def test_symmetric_groups_contribute_equally(self):
        rng = np.random.Generator(np.random.PCG64(8))
        block = rng.normal(size=(5, 2))
        data = from_rows(np.vstack([block, block]), ["a"] * 5 + ["b"] * 5)
        kspec = KernelSpec(0.7)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=kspec, lam=1.5)
        from protosel.objectives import group_mmd_term

        term_a = group_mmd_term(data.points[[0, 2]], data, 0, spec,
                                rest_self_means(data, group_sums(data, kspec))[0])
        term_b = group_mmd_term(data.points[[5, 7]], data, 1, spec,
                                rest_self_means(data, group_sums(data, kspec))[1])
        assert term_a == pytest.approx(term_b, abs=1e-12)

    def test_composition_from_mmd2_oracle(self):
        data = random_grouped(9, n_per_group=6)
        kspec = KernelSpec(0.4)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=kspec, lam=1.0)
        summary = Summary(prototypes=((1, 4), (6, 10)))
        expected = 0.0
        for g in range(2):
            protos = data.points[list(summary.prototypes[g])]
            expected += -mmd2(protos, data.group_points(g), kspec)
            expected += spec.lam * mmd2(protos, data.points[data.group_of != g], kspec)
        assert utility_value(spec, summary, data) == pytest.approx(expected, abs=1e-12)

    def test_single_group_with_positive_lambda_errors(self):
        data = from_rows(np.random.default_rng(0).normal(size=(4, 2)), ["a"] * 4)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(1.0), lam=1.0)
        summary = Summary(prototypes=((0,),))
        with pytest.raises(ValidationError):
            utility_value(spec, summary, data)


class TestRestSelfMeans:
    @pytest.mark.parametrize("sizes", [(300, 3, 2), (4, 9, 6, 2)])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    def test_utility_value_matches_the_selftest_oracle(self, sizes, lam):
        data = random_grouped(16, groups=len(sizes), n_per_group=sizes)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.3), lam=lam)
        rows = tuple(tuple(ix[:2]) for ix in data.group_index)
        expected = total_value(data, spec, rows)
        value = utility_value(spec, Summary(prototypes=rows), data)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_no_kernel_has_both_sides_larger_than_the_largest_group(self, monkeypatch):
        data = random_grouped(17, groups=3, n_per_group=(300, 3, 2))
        shapes = []

        def recording(X, Y, spec):
            K = kernel_matrix(X, Y, spec)
            shapes.append(K.shape)
            return K

        monkeypatch.setattr(objectives, "kernel_matrix", recording)
        summary = Summary(prototypes=tuple(tuple(ix[:2]) for ix in data.group_index))
        for kind in ("nn", "mmd-diff", "mmd-div"):
            utility_value(ObjectiveSpec(kind=kind, kernel=KernelSpec(0.3), lam=1.0), summary, data)
        largest = int(data.group_sizes().max())
        assert shapes and all(min(shape) <= largest for shape in shapes)


    def test_one_pass_evaluates_each_unordered_block_once(self, monkeypatch):
        sizes = (30, 3, 2, 11)
        data = random_grouped(18, groups=len(sizes), n_per_group=sizes)
        monkeypatch.setattr(kernel, "CHUNK_BYTES", 8 * data.n_points * 5)
        evaluations = count_group_sums_evaluations(monkeypatch)
        value = utility_value(ObjectiveSpec("mmd-diff", KernelSpec(0.3), lam=1.0),
                              Summary(prototypes=tuple((int(rows[0]),) for rows in data.group_index)), data)
        # the rest means of every group read one table pass; in bands of 5
        # rows it evaluates each unordered pair of rows once, and a band's
        # own pairs twice
        assert np.isfinite(value)
        assert sum(evaluations) == table_pass_evaluations(data) < 0.6 * data.n_points**2


class TestUtilityDiv:
    def test_lambda_zero_equals_diff_exactly(self):
        data = random_grouped(10, n_per_group=6)
        kspec = KernelSpec(0.9)
        summary = Summary(prototypes=((0, 1), (6, 7)))
        div = utility_value(ObjectiveSpec(kind="mmd-div", kernel=kspec, lam=0.0), summary, data)
        diff = utility_value(ObjectiveSpec(kind="mmd-diff", kernel=kspec, lam=0.0), summary, data)
        assert div == diff

    def test_separated_groups_limit(self):
        rng = np.random.Generator(np.random.PCG64(11))
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(5, 2)) + 1000.0
        data = from_rows(np.vstack([a, b]), ["a"] * 5 + ["b"] * 5)
        kspec = KernelSpec(1.0)
        spec = ObjectiveSpec(kind="mmd-div", kernel=kspec, lam=2.0)
        summary = Summary(prototypes=((0, 1), (5, 6)))
        value = utility_value(spec, summary, data)
        expected = -sum(
            mmd2(data.points[list(summary.prototypes[g])], data.group_points(g), kspec)
            for g in range(2)
        )
        assert value == pytest.approx(expected, abs=1e-9)

    def test_brute_sums_oracle(self):
        data = random_grouped(12, n_per_group=6)
        kspec = KernelSpec(0.35)
        spec = ObjectiveSpec(kind="mmd-div", kernel=kspec, lam=1.25)
        summary = Summary(prototypes=((2, 5), (8, 11)))
        expected = 0.0
        for g in range(2):
            rows = list(summary.prototypes[g])
            protos = data.points[rows]
            expected -= brute_mmd2(protos, data.group_points(g), kspec.gamma)
            rest = data.points[data.group_of != g]
            cross = sum(
                math.exp(-kspec.gamma * float(np.sum((p - r) ** 2)))
                for p in protos
                for r in rest
            ) / (len(rows) * rest.shape[0])
            expected -= 2.0 * spec.lam * cross
        assert utility_value(spec, summary, data) == pytest.approx(expected, abs=1e-12)


class TestUtilitySingle:
    def test_matches_negative_mmd2(self):
        # mmd-diff at lambda = 0 on a single group holding every row is
        # -MMD^2(selection, all points)
        data = random_grouped(14, n_per_group=6)
        kspec = KernelSpec(0.8)
        rows = np.array([0, 5, 7])
        pooled = from_rows(data.points, ["all"] * data.n_points)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=kspec)
        expected = -mmd2(data.points[rows], data.points, kspec)
        assert utility_value(spec, Summary(prototypes=(rows,)), pooled) == pytest.approx(
            expected, abs=1e-14
        )

    def test_summary_validation_rejects_wrong_group(self):
        data = random_grouped(15, n_per_group=6)
        summary = Summary(prototypes=((0,), (1,)))  # row 1 is in group 0
        with pytest.raises(ValidationError):
            summary.validate_against(data)

    def test_rejects_anything_but_a_summary(self):
        # meta-prototypes are scored by the L-BFGS evaluator, not here
        data = random_grouped(13, n_per_group=6)
        spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.5), lam=1.0)
        meta = MetaPrototypes(points=(data.points[[0, 3]], data.points[[7, 9]]))
        for selection in (meta, ((0, 3), (7, 9))):
            with pytest.raises(ValidationError, match="utility_value takes a Summary"):
                utility_value(spec, selection, data)

    def test_summary_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            Summary(prototypes=((0, 0),))
