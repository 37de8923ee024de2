import math

import numpy as np
import pytest
from conftest import count_group_sums_evaluations, table_pass_evaluations

from protosel.errors import DegenerateDataError, ValidationError
from protosel.kernel import KernelSpec, group_sums, kernel_matrix, median_gamma, rbf, row_sums
from protosel.selftest import random_grouped


def test_rbf_identity():
    x = np.array([1.5, -2.0, 3.0])
    for gamma in (0.1, 1.0, 10.0):
        assert rbf(x, x, KernelSpec(gamma)) == 1.0


def test_rbf_hand_value():
    # exp(-0.5 * ||(0,0)-(1,1)||^2) = exp(-1), checked by hand
    value = rbf(np.zeros(2), np.ones(2), KernelSpec(0.5))
    assert value == pytest.approx(0.36787944117144233, abs=1e-15)


def test_rbf_monotone_in_gamma():
    x, y = np.zeros(2), np.array([0.3, -0.7])
    values = [rbf(x, y, KernelSpec(g)) for g in (0.5, 1.0, 5.0, 50.0, 500.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-12


def test_rbf_symmetry():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(20):
        x, y = rng.normal(size=4), rng.normal(size=4)
        spec = KernelSpec(float(rng.uniform(0.1, 3.0)))
        assert rbf(x, y, spec) == rbf(y, x, spec)


def test_rbf_scale_law():
    rng = np.random.Generator(np.random.PCG64(1))
    for _ in range(20):
        x, y = rng.normal(size=3), rng.normal(size=3)
        c = float(rng.uniform(0.5, 2.0))
        gamma = float(rng.uniform(0.1, 2.0))
        scaled = rbf(c * x, c * y, KernelSpec(gamma))
        original = rbf(x, y, KernelSpec(gamma * c * c))
        assert scaled == pytest.approx(original, abs=1e-12)


def test_rbf_dimension_mismatch():
    with pytest.raises(ValidationError):
        rbf(np.zeros(2), np.zeros(3), KernelSpec(1.0))


def test_spec_rejects_bad_gamma():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError):
            KernelSpec(bad)


def test_kernel_matrix_self_symmetric_unit_diagonal():
    rng = np.random.Generator(np.random.PCG64(2))
    X = rng.normal(size=(3, 4))
    K = kernel_matrix(X, X, KernelSpec(0.7))
    assert np.array_equal(K, K.T)
    assert np.max(np.abs(np.diag(K) - 1.0)) <= 1e-12


def test_kernel_matrix_singleton():
    x = np.array([[0.0, 1.0]])
    y = np.array([[2.0, 3.0]])
    spec = KernelSpec(0.3)
    K = kernel_matrix(x, y, spec)
    assert K.shape == (1, 1)
    assert K[0, 0] == pytest.approx(rbf(x[0], y[0], spec), abs=1e-15)


def test_kernel_matrix_matches_scalar_loop():
    rng = np.random.Generator(np.random.PCG64(3))
    X = rng.normal(size=(100, 5))
    Y = rng.normal(size=(50, 5))
    spec = KernelSpec(0.42)
    K = kernel_matrix(X, Y, spec)
    # independent scalar-path oracle
    for i in range(0, 100, 7):
        for j in range(0, 50, 5):
            expected = math.exp(-spec.gamma * sum((a - b) ** 2 for a, b in zip(X[i], Y[j])))
            assert abs(K[i, j] - expected) <= 1e-12


def test_kernel_matrix_entries_in_unit_interval():
    rng = np.random.Generator(np.random.PCG64(4))
    K = kernel_matrix(rng.normal(size=(20, 3)), rng.normal(size=(15, 3)), KernelSpec(1.1))
    assert np.all(K > 0) and np.all(K <= 1.0)


def test_kernel_matrix_positive_semidefinite_spot_check():
    rng = np.random.Generator(np.random.PCG64(5))
    X = rng.normal(size=(20, 4))
    K = kernel_matrix(X, X, KernelSpec(0.9))
    assert np.linalg.eigvalsh(K).min() >= -1e-8


def test_row_sums_matches_matrix():
    rng = np.random.Generator(np.random.PCG64(6))
    X = rng.normal(size=(37, 3))
    Y = rng.normal(size=(23, 3))
    spec = KernelSpec(0.8)
    expected = kernel_matrix(X, Y, spec).sum(axis=1)
    actual = row_sums(X, Y, spec, block=8)
    assert np.allclose(actual, expected, atol=1e-10)


class TestGroupSums:
    @pytest.mark.parametrize("sizes", [(7, 1, 12, 3), (1, 1030, 40)])
    def test_matches_dense_block_sums(self, sizes):
        # 1030 rows span two row chunks of one group
        data = random_grouped(31, groups=len(sizes), n_per_group=sizes, d=4)
        spec = KernelSpec(0.2)
        K = kernel_matrix(data.points, data.points, spec)
        expected = np.column_stack([K[:, rows].sum(axis=1) for rows in data.group_index])
        assert np.allclose(group_sums(data, spec), expected, rtol=1e-12, atol=0)

    def test_built_once_per_dataset_and_spec(self, monkeypatch):
        data = random_grouped(32, groups=3, n_per_group=(5, 1, 9))
        evaluations = count_group_sums_evaluations(monkeypatch)
        first = group_sums(data, KernelSpec(0.5))
        assert sum(evaluations) == table_pass_evaluations(data)
        assert group_sums(data, KernelSpec(0.5)) is first
        assert sum(evaluations) == table_pass_evaluations(data)
        group_sums(data, KernelSpec(0.7))
        assert sum(evaluations) == 2 * table_pass_evaluations(data)
        # a dataset built from the same rows starts with no table
        group_sums(data.subset(np.arange(data.n_points)), KernelSpec(0.5))
        assert sum(evaluations) == 3 * table_pass_evaluations(data)
        assert not first.flags.writeable


def test_median_gamma_single_pair():
    X = np.array([[0.0, 0.0], [2.0, 0.0]])  # squared distance 4
    assert median_gamma(X, max_pairs=10, seed=0) == pytest.approx(0.25, abs=1e-15)


def test_median_gamma_identical_points_error():
    X = np.zeros((5, 3))
    with pytest.raises(DegenerateDataError):
        median_gamma(X, max_pairs=100, seed=0)


def test_median_gamma_exhaustive_oracle():
    rng = np.random.Generator(np.random.PCG64(7))
    X = rng.normal(size=(50, 2))
    # oracle: explicit loop over all pairs
    d2 = [np.sum((X[i] - X[j]) ** 2) for i in range(50) for j in range(i + 1, 50)]
    expected = 1.0 / np.median(d2)
    assert median_gamma(X, max_pairs=10**6, seed=0) == pytest.approx(expected, rel=1e-12)


def test_median_gamma_subsampled_deterministic():
    rng = np.random.Generator(np.random.PCG64(8))
    X = rng.normal(size=(80, 3))
    a = median_gamma(X, max_pairs=200, seed=42)
    b = median_gamma(X, max_pairs=200, seed=42)
    assert a == b
    assert a > 0


def _scalar_pair_median_gamma(X, max_pairs, seed):
    """Oracle: one scalar draw at a time, deduplicated through a set."""
    n = X.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    seen = set()
    ii, jj = [], []
    while len(ii) < max_pairs:
        a = int(rng.integers(0, n))
        b = int(rng.integers(0, n))
        if a == b:
            continue
        if a > b:
            a, b = b, a
        key = a * n + b
        if key in seen:
            continue
        seen.add(key)
        ii.append(a)
        jj.append(b)
    d2 = np.sum((X[np.asarray(ii)] - X[np.asarray(jj)]) ** 2, axis=1)
    return 1.0 / float(np.median(d2))


@pytest.mark.parametrize(
    "n, max_pairs, seed",
    [(80, 200, 42), (1620, 100_000, 0), (2400, 100_000, 3), (500, 100_000, 1),
     (460, 100_000, 0), (30, 400, 5)],
)
def test_median_gamma_batched_draws_match_scalar_stream(n, max_pairs, seed):
    X = np.random.Generator(np.random.PCG64(n)).normal(size=(n, 3))
    assert median_gamma(X, max_pairs=max_pairs, seed=seed) == _scalar_pair_median_gamma(
        X, max_pairs, seed
    )


def test_median_gamma_zero_median_fallback():
    # 4 identical points and one distinct: 6 of the 10 pairwise squared
    # distances are 0, so the median is 0 and the mean of the nonzero ones
    # (four pairs at 4.0) is used instead
    X = np.array([[0.0], [0.0], [0.0], [0.0], [2.0]])
    assert median_gamma(X, max_pairs=100, seed=0) == pytest.approx(0.25, abs=1e-15)
