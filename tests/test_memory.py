"""Allocation bounds: at USPS scale the greedy state, MMD-critic and kmedoids
keep no group-by-group or N x N kernel or distance matrix, and at news scale
(300 dims, groups of thousands) every pairwise loop holds at most a
kernel.CHUNK_BYTES block of kernel or distance temporaries at a time."""

import tracemalloc

import numpy as np
import pytest

from protosel import kernel
from protosel.baselines import kmeans_summary, kmedoids_summary, mmd_critic_summary
from protosel.greedy import greedy_select
from protosel.kernel import KernelSpec, group_sums
from protosel.objectives import ObjectiveSpec, Summary, utility_value
from protosel.selftest import random_grouped

MIB = 1 << 20


@pytest.fixture(scope="module")
def usps_shaped():
    """6,000 points in 39 dims, 10 groups of 600, and gamma = 1 / (2 d)."""
    data = random_grouped(40, groups=10, n_per_group=600, d=39)
    return data, KernelSpec(1.0 / (2 * data.dim))


def traced_peak(call):
    """Peak of the allocations traced while call runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_greedy_select_keeps_no_group_kernel_matrix(usps_shaped):
    # ten 600 x 600 within-group matrices alone would take 27.5 MiB
    data, spec = usps_shaped
    objective = ObjectiveSpec("mmd-diff", spec, lam=1.0)
    assert traced_peak(lambda: greedy_select(data, objective, 16)) < 16 * MIB


def test_mmd_critic_keeps_no_pooled_kernel_matrix(usps_shaped):
    # one 6,000 x 6,000 pooled matrix alone would take 275 MiB
    data, spec = usps_shaped
    assert traced_peak(lambda: mmd_critic_summary(data, 160, spec)) < 64 * MIB


def test_group_sums_chunks_its_off_diagonal_block():
    # the 8,300 x 8,300 kernel would take 526 MiB, and one group's 300 x
    # 8,000 block 18.3 MiB; a band of 63 rows takes 4 MiB
    data = random_grouped(44, groups=2, n_per_group=(300, 8000), d=4)
    assert traced_peak(lambda: group_sums(data, KernelSpec(0.05))) < 6 * MIB


def test_group_sums_holds_one_other_group_at_a_time(monkeypatch):
    # copies of all four 3,000 x 300 groups would take 27.5 MiB; the pass
    # reads the rows in place, one band at a time. A block of ones of the
    # kernel's shape allocates as kernel_matrix does, so the 72M-evaluation
    # pass takes a fraction of a second
    monkeypatch.setattr(kernel, "kernel_matrix", lambda X, Y, spec: np.ones((X.shape[0], Y.shape[0])))
    data = random_grouped(46, groups=4, n_per_group=3000, d=300)
    assert traced_peak(lambda: group_sums(data, KernelSpec(1.0 / 600))) < 16 * MIB


def test_kmedoids_distances_are_broadcast_in_chunks():
    # 64 rows of a 1,000 x 1,000 x 300 broadcast would take 146 MiB
    data = random_grouped(41, groups=1, n_per_group=1000, d=300)
    assert traced_peak(lambda: kmedoids_summary(data, 8, 0)) < 48 * MIB


def test_kmedoids_keeps_no_group_distance_matrix():
    # one 4,000 x 4,000 distance matrix alone would take 122 MiB
    data = random_grouped(47, groups=2, n_per_group=4000, d=39)
    assert traced_peak(lambda: kmedoids_summary(data, 16, 7)) < 12 * MIB


def test_kmeans_assignment_distances_are_broadcast_in_chunks():
    # a whole 2,000 x 16 x 300 broadcast would take 73 MiB
    data = random_grouped(42, groups=1, n_per_group=2000, d=300)
    assert traced_peak(lambda: kmeans_summary(data, 16, 0)) < 32 * MIB


def test_kmeans_holds_only_the_group_copy_and_row_blocks():
    # the group's own copy takes 18.3 MiB; an 8,000 x 300 difference for
    # the inertia, for a kmeans++ draw or for a snapped center, or a second
    # copy of the group, would take 18.3 MiB more
    data = random_grouped(48, groups=1, n_per_group=8000, d=300)
    assert traced_peak(lambda: kmeans_summary(data, 16, 0)) < 32 * MIB


def test_utility_value_holds_no_group_kernel_matrix():
    # mmd2's 4,000 x 4,000 mean k(own, own) alone would take 122 MiB
    data = random_grouped(43, groups=2, n_per_group=(4000, 50), d=39)
    summary = Summary(prototypes=tuple(tuple(rows[:8].tolist()) for rows in data.group_index))
    objective = ObjectiveSpec("mmd-div", KernelSpec(0.05), lam=0.0)
    assert traced_peak(lambda: utility_value(objective, summary, data)) < 16 * MIB


def test_utility_value_copies_no_rest_rows():
    # the 8,000 x 300 rest of one group alone would take 18.3 MiB
    data = random_grouped(45, groups=9, n_per_group=1000, d=300)
    summary = Summary(prototypes=tuple(tuple(rows[:8].tolist()) for rows in data.group_index))
    objective = ObjectiveSpec("mmd-div", KernelSpec(1.0 / 600), lam=1.0)
    assert traced_peak(lambda: utility_value(objective, summary, data)) < 12 * MIB
