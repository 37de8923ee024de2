import itertools
import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from protosel import baselines, kernel
from protosel.baselines import (
    _pam,
    kmeans_centers,
    kmeans_summary,
    kmeanspp_init,
    kmedoids_summary,
    lloyd,
    mmd_critic_summary,
)
from protosel.corpus import from_rows
from protosel.errors import ValidationError
from protosel.gradopt import _initial_points
from protosel.greedy import greedy_select
from protosel.kernel import KernelSpec, group_sums, kernel_matrix
from protosel.objectives import ObjectiveSpec, mmd2
from protosel.selftest import random_grouped


class TestKmeansPP:
    def test_full_selection_takes_every_point(self):
        rng = np.random.Generator(np.random.PCG64(0))
        points = rng.normal(size=(6, 2))
        idx = kmeanspp_init(points, M=6, seed=1)
        assert sorted(idx.tolist()) == list(range(6))

    def test_identical_points_fall_back_to_uniform_distinct(self):
        points = np.zeros((5, 3))
        idx = kmeanspp_init(points, M=2, seed=7)
        assert len(set(idx.tolist())) == 2

    def test_deterministic(self):
        rng = np.random.Generator(np.random.PCG64(2))
        points = rng.normal(size=(10, 2))
        a = kmeanspp_init(points, M=4, seed=123)
        b = kmeanspp_init(points, M=4, seed=123)
        assert np.array_equal(a, b)

    def test_m_exceeds_n_errors(self):
        with pytest.raises(ValidationError):
            kmeanspp_init(np.zeros((3, 2)), M=4, seed=0)


class TestKmeans:
    def test_centers_are_each_groups_lloyd_centers_and_seed_gradient_init(self):
        data = random_grouped(6, groups=3, n_per_group=9, d=3)
        centers = kmeans_centers(data, M=3, seed=5)
        assert len(centers) == 3
        init = _initial_points(data, ObjectiveSpec(kind="nn", kernel=KernelSpec(1.0)), 3, "kmeans", 5, None)
        for g in range(3):
            expected = lloyd(data.group_points(g), 3, seed=5 + g)
            assert np.array_equal(centers[g], expected)
            assert np.array_equal(init[g], expected)

    def test_k_equals_n_selects_exactly_the_points(self):
        rng = np.random.Generator(np.random.PCG64(3))
        pts = rng.normal(size=(4, 2))
        data = from_rows(pts, ["a"] * 4)
        summary = kmeans_summary(data, M=4, seed=0)
        assert sorted(summary.prototypes[0]) == [0, 1, 2, 3]

    def test_two_tight_pairs_one_prototype_each(self):
        # exhaustive 2-clustering of 4 points: optimal clusters are the pairs
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        best = None
        for assign in itertools.product(range(2), repeat=4):
            if len(set(assign)) < 2:
                continue
            sse = 0.0
            for c in range(2):
                members = pts[[i for i in range(4) if assign[i] == c]]
                sse += float(np.sum((members - members.mean(axis=0)) ** 2))
            if best is None or sse < best[0]:
                best = (sse, assign)
        assert best[1] in [(0, 0, 1, 1), (1, 1, 0, 0)]  # oracle: tight pairs

        data = from_rows(pts, ["a"] * 4)
        summary = kmeans_summary(data, M=2, seed=4)
        chosen = sorted(summary.prototypes[0])
        assert chosen[0] in (0, 1) and chosen[1] in (2, 3)

    def test_deterministic(self):
        data = random_grouped(5, d=2, spread=3.0)
        a = kmeans_summary(data, M=3, seed=9)
        b = kmeans_summary(data, M=3, seed=9)
        assert a.prototypes == b.prototypes

    def test_inertia_nonincreasing(self, monkeypatch):
        # a run capped at k iterations returns the centers of the k-th one;
        # the inertia sums each point's squared distance to its nearest center
        rng = np.random.Generator(np.random.PCG64(6))
        points = rng.normal(size=(40, 2))

        def inertia(centers):
            return float(((points[:, None, :] - centers[None]) ** 2).sum(axis=2).min(axis=1).sum())

        converged = inertia(lloyd(points, M=4, seed=2))
        trace = []
        for cap in range(1, 8):
            monkeypatch.setattr(baselines, "MAX_ITER", cap)
            trace.append(inertia(lloyd(points, M=4, seed=2)))
        assert trace[-1] == converged
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert any(b < a for a, b in zip(trace, trace[1:]))

    def test_prototypes_are_distinct_rows(self):
        data = random_grouped(8, n_per_group=6, d=2, spread=3.0)
        summary = kmeans_summary(data, M=3, seed=3)
        for group in summary.prototypes:
            assert len(set(group)) == 3

    def test_coinciding_seed_centres_are_repaired(self):
        # kmeans++ takes 10 and two of the zeros (its zero-distance fallback),
        # so one centre owns no row until the repair hands it one
        points = np.array([[0.0], [0.0], [0.0], [0.0], [10.0]])
        assert np.isfinite(lloyd(points, 3, seed=0)).all()
        summary = kmeans_summary(from_rows(points, ["a"] * 5), M=3, seed=0)
        assert len(set(summary.prototypes[0])) == 3


class TestKmedoids:
    def test_a_medoid_without_members_is_kept(self):
        # identical rows all join the first medoid; the second owns none
        data = from_rows(np.ones((4, 2)), ["a"] * 4)
        summary = kmedoids_summary(data, M=2, seed=0)
        assert len(set(summary.prototypes[0])) == 2

    def test_collinear_three_points(self):
        # total |x - m|: m=0 -> 11, m=1 -> 10, m=10 -> 19; medoid is the middle point
        pts = np.array([[0.0], [1.0], [10.0]])
        data = from_rows(pts, ["a"] * 3)
        summary = kmedoids_summary(data, M=1, seed=0)
        assert summary.prototypes[0] == (1,)

    def test_full_selection(self):
        data = random_grouped(9, n_per_group=4, d=2, spread=3.0)
        summary = kmedoids_summary(data, M=4, seed=0)
        for g in range(2):
            assert sorted(summary.prototypes[g]) == sorted(int(r) for r in data.group_index[g])

    def test_total_distance_nonincreasing(self, monkeypatch):
        # a run capped at k iterations returns the medoids after the k-th one
        # (cap 0: the kmeans++ start); this instance's cost falls in 3 steps
        rng = np.random.Generator(np.random.PCG64(11))
        points = rng.normal(size=(30, 2))
        dist = cdist(points, points)
        converged = _pam(points, M=3, seed=5)
        trace = []
        for cap in range(6):
            monkeypatch.setattr(baselines, "MAX_ITER", cap)
            trace.append(float(dist[:, _pam(points, M=3, seed=5)].min(axis=1).sum()))
        assert trace[-1] == float(dist[:, converged].min(axis=1).sum())
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert any(b < a for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        data = random_grouped(11, d=2, spread=3.0)
        a = kmedoids_summary(data, M=2, seed=8)
        b = kmedoids_summary(data, M=2, seed=8)
        assert a.prototypes == b.prototypes

    @staticmethod
    def _reference_pam(points, M, seed):
        """_pam's iteration over one full n x n cdist matrix."""
        dist = cdist(points, points)
        medoids = list(kmeanspp_init(points, M, seed))
        for _ in range(baselines.MAX_ITER):
            assignment = np.argmin(dist[:, medoids], axis=1)
            new_medoids = list(medoids)
            for c in range(M):
                members = np.flatnonzero(assignment == c)
                if members.size:
                    totals = dist[np.ix_(members, members)].sum(axis=1)
                    new_medoids[c] = int(members[int(np.argmin(totals))])
            if new_medoids == medoids:
                break
            medoids = new_medoids
        return medoids

    @pytest.mark.parametrize("chunk_bytes", [None, 1 << 10])
    @pytest.mark.parametrize("d", [2, 39, 300])
    def test_medoids_equal_a_full_distance_matrix_reference(self, d, chunk_bytes, monkeypatch):
        # at 1 KiB every cluster of more than one row is summed in several row
        # blocks (8 n_c bytes a row), at the default budget in one
        points = np.random.Generator(np.random.PCG64(d)).normal(size=(150, d))
        if chunk_bytes is not None:
            monkeypatch.setattr(kernel, "CHUNK_BYTES", chunk_bytes)
        medoids = _pam(points, M=4, seed=3)
        assert medoids == self._reference_pam(points, 4, 3)
        largest = int(np.bincount(np.argmin(cdist(points, points[medoids]), axis=1)).max())
        assert (len(kernel.row_blocks(largest, 8 * largest)) > 1) == (chunk_bytes is not None)


class TestMmdCritic:
    def test_total_two_on_tight_cluster_matches_singleton_oracles(self):
        rng = np.random.Generator(np.random.PCG64(12))
        pts = rng.normal(size=(8, 2))
        data = from_rows(pts, ["a"] * 8)
        spec = KernelSpec(0.5)
        summary = mmd_critic_summary(data, total=2, spec=spec)
        flat = [r for g in summary.prototypes for r in g]
        assert len(flat) == 2

        # prototype stage oracle: best singleton of -MMD^2({s}, X)
        proto_values = {s: -mmd2(pts[[s]], pts, spec) for s in range(8)}
        best_proto = max(sorted(proto_values), key=lambda s: proto_values[s])
        # criticism stage oracle: largest |witness| among the rest
        K = kernel_matrix(pts, pts, spec)
        wit = np.abs(K.mean(axis=0) - K[:, [best_proto]].mean(axis=1))
        crit_pool = [s for s in range(8) if s != best_proto]
        best_crit = max(crit_pool, key=lambda s: (wit[s], -s))
        assert set(flat) == {best_proto, best_crit}

    def test_group_may_receive_nothing(self):
        # one far-away group with little mass can be skipped entirely
        rng = np.random.Generator(np.random.PCG64(13))
        big = rng.normal(size=(20, 2))
        far = rng.normal(size=(2, 2)) + 100.0
        data = from_rows(np.vstack([big, far]), ["big"] * 20 + ["far"] * 2)
        summary = mmd_critic_summary(data, total=2, spec=KernelSpec(0.5))
        sizes = [len(g) for g in summary.prototypes]
        assert sum(sizes) == 2
        assert sizes[1] == 0  # the far group got nothing

    def test_first_criticism_logdet_increment_is_zero(self):
        # with a unit diagonal the first log-det increment is log(1 + jitter) ~ 0,
        # so the first criticism is chosen purely by witness value
        rng = np.random.Generator(np.random.PCG64(14))
        pts = rng.normal(size=(10, 2))
        data = from_rows(pts, ["a"] * 10)
        spec = KernelSpec(0.4)
        summary = mmd_critic_summary(data, total=2, spec=spec)
        flat = [r for g in summary.prototypes for r in g]
        proto, crit = flat[0], flat[1]
        K = kernel_matrix(pts, pts, spec)
        wit = np.abs(K.mean(axis=0) - K[:, [proto]].mean(axis=1))
        pool = [s for s in range(10) if s != proto]
        assert crit == max(pool, key=lambda s: (wit[s], -s))

    def test_prototype_stage_matches_from_scratch_trajectory(self):
        rng = np.random.Generator(np.random.PCG64(15))
        pts = rng.normal(size=(12, 2))
        data = from_rows(pts, ["a"] * 12)
        spec = KernelSpec(0.6)
        summary = mmd_critic_summary(data, total=6, spec=spec)
        flat = [r for g in summary.prototypes for r in g]
        protos = flat[:3]
        # greedy prototypes must match a from-scratch greedy on -MMD^2 values
        chosen = []
        for _ in range(3):
            pool = [s for s in range(12) if s not in chosen]
            best = max(
                pool, key=lambda s: (-mmd2(pts[chosen + [s]], pts, spec), -s)
            )
            chosen.append(best)
        assert protos == chosen

    def test_odd_total_errors(self):
        data = random_grouped(16, d=2, spread=3.0)
        with pytest.raises(ValidationError):
            mmd_critic_summary(data, total=3, spec=KernelSpec(1.0))

    def test_labels_preserved(self):
        data = random_grouped(17, n_per_group=10, d=2, spread=3.0)
        summary = mmd_critic_summary(data, total=8, spec=KernelSpec(0.5))
        summary.validate_against(data)

    @staticmethod
    def _reference_summary(data, total, spec, jitter=1e-10):
        """Pooled greedy prototypes, then criticisms from fresh kernel passes
        and a whole triangular solve per pick. Both read the pooled column
        of the dataset's table, as the critic does: on tied kernel values the
        picks follow the bits of that column."""
        half = total // 2
        own = group_sums(data, spec).sum(axis=1)
        pooled = from_rows(data.points, ["all"] * data.n_points)
        summary = greedy_select(pooled, ObjectiveSpec("mmd-diff", spec), half, own[:, None])
        protos = list(summary.prototypes[0])
        points, n = data.points, data.n_points
        mean_all = own / n
        witness = np.abs(mean_all - kernel_matrix(points, points[protos], spec).mean(axis=1))
        mask = np.ones(n, dtype=bool)
        mask[protos] = False
        chosen, L = [], np.zeros((half, half))
        for t in range(half):
            pool = np.flatnonzero(mask)
            if t == 0:
                arg = np.full(pool.size, 1.0 + jitter)
            else:
                K_cp = kernel_matrix(points[chosen], points[pool], spec)
                W = solve_triangular(L[:t, :t], K_cp, lower=True)
                arg = 1.0 + jitter - np.sum(W**2, axis=0)
            pick = int(np.argmax(witness[pool] + np.log(np.maximum(arg, 1e-18))))
            if t > 0:
                L[t, :t] = W[:, pick]
            L[t, t] = np.sqrt(max(float(arg[pick]), 1e-18))
            chosen.append(int(pool[pick]))
            mask[chosen[-1]] = False
        groups = [[] for _ in range(data.n_groups)]
        for row in protos + chosen:
            groups[int(data.group_of[row])].append(row)
        return tuple(tuple(g) for g in groups)

    @pytest.mark.parametrize(
        "seed, groups, n_per_group, total, gamma",
        [(30, 2, 20, 16, 0.5), (31, 3, 15, 20, 0.3), (32, 4, 12, 24, 0.8), (33, 3, 30, 32, 0.2)],
    )
    def test_matches_fresh_kernel_reference(self, seed, groups, n_per_group, total, gamma):
        data = random_grouped(seed, groups=groups, n_per_group=n_per_group, d=3, spread=2.0)
        spec = KernelSpec(gamma)
        summary = mmd_critic_summary(data, total=total, spec=spec)
        assert summary.prototypes == self._reference_summary(data, total, spec)

    def test_matches_fresh_kernel_reference_on_tied_lattice(self):
        # A 7 x 7 integer grid has many exactly tied kernel values, so the
        # chosen criticisms depend on the summation order of the witness means.
        grid = np.stack(np.meshgrid(np.arange(7.0), np.arange(7.0), indexing="ij"), -1).reshape(-1, 2)
        data = from_rows(grid, ["even" if x % 2 == 0 else "odd" for x in grid[:, 0]])
        spec = KernelSpec(1.0)
        summary = mmd_critic_summary(data, total=16, spec=spec)
        assert summary.prototypes == self._reference_summary(data, 16, spec)

    def test_eighty_criticisms_match_the_whole_solve_reference(self):
        # each pick extends the forward substitution by one row; 80 of them
        # on 1,200 rows must pick what a whole solve per pick picks
        data = random_grouped(34, groups=3, n_per_group=400, d=5, spread=1.5)
        spec = KernelSpec(0.3)
        summary = mmd_critic_summary(data, total=160, spec=spec)
        assert summary.prototypes == self._reference_summary(data, 160, spec)


@pytest.mark.parametrize("half", [1, 7, 8, 80, 130])
def test_prototype_block_row_means_equal_stacked_pick_column_means(half):
    # the critic's witness takes the row means of one kernel_matrix(X, X[protos])
    # block; they must have the bits of the per-pick columns stacked side by
    # side, across numpy's pairwise-sum block sizes
    rng = np.random.Generator(np.random.PCG64(half))
    X = rng.normal(size=(300, 5))
    protos = list(rng.choice(300, size=half, replace=False))
    spec = KernelSpec(0.3)
    stacked = np.column_stack([kernel_matrix(X, X[[p]], spec)[:, 0] for p in protos])
    assert (kernel_matrix(X, X[protos], spec).mean(axis=1) == stacked.mean(axis=1)).all()
