import math
import re

import numpy as np
import pytest
from conftest import caches_hold, row_gain

from protosel import selftest
from protosel.corpus import from_rows
from protosel.errors import ValidationError
from protosel.greedy import GreedyState, greedy_select
from protosel.kernel import KernelSpec
from protosel.objectives import ObjectiveSpec, Summary, mmd2
from protosel.selftest import exhaustive_optimum, group_value, random_grouped, total_value


def commit_order(summary):
    """Rows in greedy commit order: round by round, each group in turn."""
    return [row for picks in zip(*summary.prototypes) for row in picks]


def make_state(data, spec, selections):
    state = GreedyState(data, spec, None)
    for sel in selections:
        for row in sel:
            state.add(row)
    return state


SPECS = [
    ObjectiveSpec(kind="nn", kernel=KernelSpec(0.6)),
    ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.6), lam=1.0),
    ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.4), lam=0.5),
    ObjectiveSpec(kind="mmd-div", kernel=KernelSpec(0.6), lam=1.0),
    ObjectiveSpec(kind="mmd-div", kernel=KernelSpec(0.9), lam=2.0),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-lam{s.lam}")
def test_marginal_gain_matches_pure_difference(spec):
    rng = np.random.Generator(np.random.PCG64(17))
    for trial in range(40):
        data = random_grouped(100 + trial, groups=2, n_per_group=7)
        # random nonempty selection per group, then a fresh candidate
        selections = []
        for g in range(2):
            rows = data.group_index[g]
            size = int(rng.integers(1, 4))
            selections.append(list(rng.choice(rows, size=size, replace=False)))
        g = int(rng.integers(0, 2))
        pool = [r for r in data.group_index[g] if r not in selections[g]]
        cand = int(pool[int(rng.integers(0, len(pool)))])

        state = make_state(data, spec, selections)
        gain = row_gain(state, cand)

        before = total_value(data, spec, selections)
        after_sel = [list(s) for s in selections]
        after_sel[g].append(cand)
        after = total_value(data, spec, after_sel)
        assert gain == pytest.approx(after - before, abs=1e-8)


def test_first_pick_convention_single_group_mmd():
    # empty selection, single-group fit objective: gain is
    # (2/N) sum_i k(s, x_i) - k(s, s), the selection-dependent part of -MMD^2
    data = random_grouped(3, groups=1, n_per_group=6)
    spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.5), lam=0.0)
    state = GreedyState(data, spec, None)
    for s in range(6):
        got = row_gain(state, s)
        ksum = sum(
            math.exp(-0.5 * float(np.sum((data.points[s] - data.points[i]) ** 2)))
            for i in range(6)
        )
        expected = (2.0 / 6.0) * ksum - 1.0
        assert got == pytest.approx(expected, abs=1e-12)
        # and equals the pure value of the singleton set up to the
        # selection-independent constant mean k(x, x')
        from protosel.kernel import kernel_matrix

        const = float(kernel_matrix(data.points, data.points, spec.kernel).mean())
        pure_singleton = group_value(data, spec, 0, [s])
        assert got == pytest.approx(pure_singleton + const, abs=1e-12)


def test_duplicate_candidate_zero_gain_nn():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    data = from_rows(pts, ["a", "a", "a"])
    spec = ObjectiveSpec(kind="nn", kernel=KernelSpec(1.0))
    state = GreedyState(data, spec, None)
    state.add(0)
    assert row_gain(state, 1) == 0.0


def test_already_selected_candidate_errors():
    data = random_grouped(5)
    spec = ObjectiveSpec(kind="nn", kernel=KernelSpec(1.0))
    state = GreedyState(data, spec, None)
    state.add(0)
    with pytest.raises(ValidationError, match="row 0 is already selected"):
        state.add(0)


def test_full_selection_returns_every_point():
    data = random_grouped(6, groups=2, n_per_group=5)
    spec = ObjectiveSpec(kind="nn", kernel=KernelSpec(0.7))
    summary = greedy_select(data, spec, M=5)
    for g in range(2):
        assert sorted(summary.prototypes[g]) == sorted(int(r) for r in data.group_index[g])


def test_m_out_of_range_errors():
    data = random_grouped(7, groups=2, n_per_group=5)
    spec = ObjectiveSpec(kind="nn", kernel=KernelSpec(0.7))
    with pytest.raises(ValidationError):
        greedy_select(data, spec, M=6)
    with pytest.raises(ValidationError):
        greedy_select(data, spec, M=0)


def test_singleton_matches_exhaustive_single_group():
    data = random_grouped(8, groups=1, n_per_group=5)
    spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.5), lam=0.0)
    summary = greedy_select(data, spec, M=1)
    values = {s: -mmd2(data.points[[s]], data.points, spec.kernel) for s in range(5)}
    best = max(values, key=lambda s: (values[s], -s))
    assert summary.prototypes[0] == (best,)


def test_seeded_instance_against_exhaustive_udiff():
    data = random_grouped(9, groups=2, n_per_group=6)
    spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.5), lam=1.0)
    summary = greedy_select(data, spec, M=2)
    greedy_val = total_value(data, spec, summary.prototypes)
    opt = exhaustive_optimum(data, spec, 2)
    assert greedy_val <= opt + 1e-9
    assert greedy_val >= 0.95 * opt  # fixture threshold confirmed by this oracle run


def test_trajectory_matches_pure_objective_differences():
    for spec in SPECS:
        data = random_grouped(11, groups=2, n_per_group=6)
        picks = commit_order(greedy_select(data, spec, M=3))
        state = GreedyState(data, spec, None)
        selections = [[] for _ in range(2)]
        for row in picks:
            g = int(data.group_of[row])
            gain = row_gain(state, row)
            if all(selections):
                before = total_value(data, spec, selections)
                after_sel = [list(s) for s in selections]
                after_sel[g].append(row)
                after = total_value(data, spec, after_sel)
                assert gain == pytest.approx(after - before, abs=1e-8)
            state.add(row)
            selections[g].append(row)
        assert caches_hold(state)


def test_nn_gains_nonnegative_along_trajectory():
    data = random_grouped(12, groups=2, n_per_group=8)
    spec = ObjectiveSpec(kind="nn", kernel=KernelSpec(0.8))
    picks = commit_order(greedy_select(data, spec, M=4))
    state = GreedyState(data, spec, None)
    for row in picks:
        assert row_gain(state, row) >= 0.0
        state.add(row)


def test_determinism():
    data = random_grouped(13, groups=3, n_per_group=7)
    spec = ObjectiveSpec(kind="mmd-div", kernel=KernelSpec(0.5), lam=1.0)
    a = greedy_select(data, spec, M=3)
    b = greedy_select(data, spec, M=3)
    assert a.prototypes == b.prototypes


def test_tie_break_prefers_smallest_row_index():
    # two identical candidate rows: the smaller index must win the first pick
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    data = from_rows(pts, ["a"] * 3)
    spec = ObjectiveSpec(kind="mmd-diff", kernel=KernelSpec(0.3), lam=0.0)
    summary = greedy_select(data, spec, M=1)
    assert summary.prototypes[0][0] in (0, 1)
    assert summary.prototypes[0][0] == 0


def test_nn_guarantee_on_exhaustive_instances():
    bound = 1.0 - 1.0 / math.e
    for seed in range(5):
        data = random_grouped(200 + seed, groups=2, n_per_group=8, d=2)
        spec = ObjectiveSpec(kind="nn", kernel=KernelSpec(0.5))
        M = 2
        summary = greedy_select(data, spec, M)
        greedy_val = total_value(data, spec, summary.prototypes)
        opt = exhaustive_optimum(data, spec, M)
        assert greedy_val >= bound * opt - 1e-9


def test_greedy_value_trajectory_nn_matches_from_scratch():
    # incremental nn bookkeeping equals a from-scratch evaluation after each pick
    data = random_grouped(15, groups=2, n_per_group=6)
    spec = ObjectiveSpec(kind="nn", kernel=KernelSpec(0.6))
    picks = commit_order(greedy_select(data, spec, M=3))
    state = GreedyState(data, spec, None)
    selections = [[] for _ in range(2)]
    running = 0.0
    for row in picks:
        g = int(data.group_of[row])
        running += row_gain(state, row)
        state.add(row)
        selections[g].append(row)
        expected = total_value(data, spec, selections)
        assert running == pytest.approx(expected, abs=1e-8)


def test_greedy_suite_reports_a_shift_invariant_ratio_for_every_kind():
    # mmd-div's optimum sits near 0 at lam = 1, so a plain greedy/optimum
    # ratio would be skipped for it
    ok, detail = selftest.greedy_suite()
    assert ok
    found = dict(re.findall(r"(nn|mmd-diff|mmd-div) (\d\.\d{4})", detail))
    assert sorted(found) == ["mmd-diff", "mmd-div", "nn"]
    assert all(0.0 <= float(ratio) <= 1.0 for ratio in found.values())
