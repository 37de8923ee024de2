import math

import numpy as np
import pytest
from conftest import count_group_sums_evaluations, table_pass_evaluations
from scipy.spatial.distance import cdist

from protosel import kernel
from protosel.baselines import _pam
from protosel.errors import DegenerateDataError, ValidationError
from protosel.kernel import KernelSpec, group_sums, kernel_matrix, median_gamma, rbf, row_blocks, row_sums
from protosel.objectives import mmd2
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


@pytest.mark.parametrize("n, m, d", [(1, 1, 1), (3, 5, 2), (7, 13, 3), (17, 31, 5), (33, 1, 39), (65, 9, 7)])
def test_kernel_matrix_is_bitwise_exp_of_scaled_cdist(n, m, d):
    # odd shapes leave SIMD tails in both the scaling and the exponential
    rng = np.random.Generator(np.random.PCG64(n * 1000 + m))
    X, Y = rng.normal(size=(n, d)), rng.normal(size=(m, d))
    gamma = 0.37
    expected = np.exp(-gamma * cdist(X, Y, "sqeuclidean"))
    assert np.array_equal(kernel_matrix(X, Y, KernelSpec(gamma)), expected)


def test_fresh_kernel_column_is_bitwise_the_dense_column():
    # the greedy state's pick columns stand in for the columns of the dense K
    rng = np.random.Generator(np.random.PCG64(9))
    X = rng.normal(size=(41, 39))
    spec = KernelSpec(1.0 / 78)
    K = kernel_matrix(X, X, spec)
    for p in range(X.shape[0]):
        assert np.array_equal(kernel_matrix(X, X[[p]], spec)[:, 0], K[:, p])


def test_kernel_matrix_entries_in_unit_interval():
    rng = np.random.Generator(np.random.PCG64(4))
    K = kernel_matrix(rng.normal(size=(20, 3)), rng.normal(size=(15, 3)), KernelSpec(1.1))
    assert np.all(K > 0) and np.all(K <= 1.0)


def test_kernel_matrix_positive_semidefinite_spot_check():
    rng = np.random.Generator(np.random.PCG64(5))
    X = rng.normal(size=(20, 4))
    K = kernel_matrix(X, X, KernelSpec(0.9))
    assert np.linalg.eigvalsh(K).min() >= -1e-8


def test_row_sums_matches_matrix(monkeypatch):
    rng = np.random.Generator(np.random.PCG64(6))
    X = rng.normal(size=(37, 3))
    Y = rng.normal(size=(23, 3))
    spec = KernelSpec(0.8)
    expected = kernel_matrix(X, Y, spec).sum(axis=1)
    # blocks of 8 rows of X, 8 * 23 bytes a row: the last block is partial
    monkeypatch.setattr(kernel, "CHUNK_BYTES", 8 * 8 * 23)
    assert [b.stop - b.start for b in row_blocks(37, 8 * 23)] == [8, 8, 8, 8, 5]
    assert np.array_equal(row_sums(X, Y, spec), expected)


class TestGroupSums:
    @pytest.mark.parametrize("sizes", [(7, 1, 12, 3), (1, 1030, 40), (800, 800)])
    def test_matches_dense_block_sums(self, sizes):
        # the 1,071-row pass takes three row bands, the 1,600-row pass five
        assert len(kernel.row_blocks(1071, 8 * 1071)) == 3
        assert len(kernel.row_blocks(1600, 8 * 1600)) == 5
        data = random_grouped(31, groups=len(sizes), n_per_group=sizes, d=4)
        spec = KernelSpec(0.2)
        K = kernel_matrix(data.points, data.points, spec)
        expected = np.column_stack([K[:, rows].sum(axis=1) for rows in data.group_index])
        assert np.allclose(group_sums(data, spec), expected, rtol=1e-12, atol=0)

    def test_repeated_passes_are_bitwise_equal_and_match_the_dense_row_sums(self):
        # the own column sums in the pass's band order, not in a dense row's
        data = random_grouped(33, groups=3, n_per_group=(1030, 3, 17), d=5)
        spec = KernelSpec(0.2)
        assert len(kernel.row_blocks(data.n_points, 8 * data.n_points)) > 1
        R = group_sums(data, spec)
        assert np.array_equal(group_sums(data, spec), R)
        for g in range(data.n_groups):
            Xg = data.group_points(g)
            dense = kernel_matrix(Xg, Xg, spec).sum(axis=1)
            assert np.allclose(R[data.group_index[g], g], dense, rtol=1e-12, atol=0)

    def test_label_sums_match_dense_label_block_sums(self, monkeypatch):
        # fold x group labels, as cross-validation uses them, at a budget
        # that cuts the 300 rows into bands of 13
        monkeypatch.setattr(kernel, "CHUNK_BYTES", 8 * 300 * 13)
        rng = np.random.Generator(np.random.PCG64(34))
        X = rng.normal(size=(300, 3))
        labels = rng.integers(0, 4, size=300) * 3 + rng.integers(0, 3, size=300)
        spec = KernelSpec(0.4)
        K = kernel_matrix(X, X, spec)
        expected = np.column_stack([K[:, labels == label].sum(axis=1) for label in range(labels.max() + 1)])
        evaluations = count_group_sums_evaluations(monkeypatch)
        assert np.allclose(kernel.label_sums(X, labels, spec), expected, rtol=1e-12, atol=0)
        # each band pairs with itself and the rows after it: about half of N^2
        assert sum(evaluations) == sum((b.stop - b.start) * (300 - b.start) for b in row_blocks(300, 8 * 300))
        assert sum(evaluations) < 0.55 * 300**2


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


@pytest.mark.parametrize("n, row_bytes", [(0, 8), (1, 8), (10, 1 << 30), (1000, 8 * 1000), (4096, 1)])
def test_row_blocks_cover_range_in_budgeted_blocks(n, row_bytes):
    blocks = row_blocks(n, row_bytes)
    assert [i for b in blocks for i in range(n)[b]] == list(range(n))
    assert all(1 <= b.stop - b.start <= max(1, kernel.CHUNK_BYTES // row_bytes) for b in blocks)


def _own_and_other_columns(data, spec):
    """group_sums' own-group entries R[rows of g, g] and the other entries."""
    R = group_sums(data, spec)
    own = np.zeros(R.shape, dtype=bool)
    for g, rows in enumerate(data.group_index):
        own[rows, g] = True
    return R[own], R[~own]


# name -> (output of a row_blocks loop on fresh seeded inputs, whether its bits
# must not depend on the chunking); at a 1 KiB budget each loop below takes
# many blocks, at the default budget one
_BLOCKED_LOOPS = {
    "pam": (lambda rng: np.array(_pam(rng.normal(size=(200, 5)), 6, seed=1)), True),
    "median_gamma": (lambda rng: np.array([median_gamma(rng.normal(size=(60, 5)), 500, 2)]), True),
    "group_sums_own": (lambda rng: _own_and_other_columns(
        random_grouped(rng, groups=3, n_per_group=(30, 200, 7), d=3), KernelSpec(0.3))[0], False),
    "group_sums_other": (lambda rng: _own_and_other_columns(
        random_grouped(rng, groups=3, n_per_group=(30, 200, 7), d=3), KernelSpec(0.3))[1], False),
    "mmd2": (lambda rng: np.array([mmd2(rng.normal(size=(20, 3)), rng.normal(size=(150, 3)), KernelSpec(0.4))]),
             False),
}


@pytest.mark.parametrize("name", sorted(_BLOCKED_LOOPS))
def test_small_chunk_budget_keeps_every_loop_result(name, monkeypatch):
    make, exact = _BLOCKED_LOOPS[name]
    default = make(np.random.Generator(np.random.PCG64(12)))
    monkeypatch.setattr(kernel, "CHUNK_BYTES", 1 << 10)
    small = make(np.random.Generator(np.random.PCG64(12)))
    if exact:
        assert small.tolist() == default.tolist()
    else:
        assert np.allclose(small, default, rtol=1e-12, atol=1e-12)
