"""Allocation bounds at USPS scale: the greedy state and MMD-critic keep no
group-by-group or N x N kernel matrix."""

import tracemalloc

import numpy as np
import pytest

from protosel.baselines import mmd_critic_summary
from protosel.greedy import greedy_select
from protosel.kernel import KernelSpec
from protosel.objectives import ObjectiveSpec
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
