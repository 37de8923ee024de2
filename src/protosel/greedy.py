"""Greedy utility maximisation via closed-form marginal gains.

The selection loop interleaves groups: one prototype is added to every group
per outer round, each time picking the candidate with the largest marginal
gain (ties broken by smallest row index). For the MMD kinds a gain is the
difference v(q+1) - v(q) of the shared form (objectives.coefficients and
objectives.point_weights), evaluated from cached kernel aggregates; gains
are validated against pure-objective differences in the test suite.
"""

from __future__ import annotations

import numpy as np

from .corpus import GroupedDataset
from .errors import ValidationError
from .kernel import group_sums, kernel_matrix
from .objectives import ObjectiveSpec, Summary, coefficients, point_weights


class GreedyState:
    """Incremental per-group bookkeeping for greedy selection.

    Caches, per group g with members V_g (local indexing):
      sel[g]  per member i, sum_{p selected} k(x_i, x_p) for the MMD kinds and
              max_{p selected} k(x_i, x_p) for nn (updated on add)
    for nn only:
      K[g]    within-group kernel matrix, read by every gain
    and for the MMD kinds only, which build no within-group matrix:
      lin[g]  own_w[g] sum_{j in V_g} k(x_i, x_j) + rest_w[g] sum_{j not in V_g} k(x_i, x_j),
              the selection-linear score of member i, with the weights of
              objectives.point_weights at one prototype per group
      ss[g], lin_sum[g]  sums of k over selected pairs and of lin over the selection
    Both kernel sums of lin are columns of sums, the (N, G) kernel.group_sums
    table of data at spec.kernel: its own column g, and with lam > 0 the sum
    of the other columns. The MMD kinds read it, making a fresh pass when
    sums is None, and nn never does. The evaluation harness builds each table
    once and hands it down, so every lambda at one kernel, every
    cross-validation fold of a split and the summary's header value read one
    pass. For greedy_select, gains scores candidates and add commits a pick,
    folding its kernel column into sel[g] and keeping nothing else of it.
    Groups never read each other's caches.
    """

    def __init__(self, data: GroupedDataset, spec: ObjectiveSpec, sums):
        # (a, lam) of the MMD kinds' shared form; None for nn
        self.coef = None if spec.kind == "nn" else coefficients(spec)
        if self.coef is not None:
            own_w, rest_w = point_weights(data, spec, [1] * data.n_groups)
            R = group_sums(data, spec.kernel) if sums is None else sums
        self.data = data
        self.kernel = spec.kernel
        self.points = []
        self.K = []
        self.lin = []
        self.sel = []
        self.selected = []          # per group, local indices in pick order
        self.selected_mask = []
        self.ss = [0.0] * data.n_groups
        self.lin_sum = [0.0] * data.n_groups
        for g in range(data.n_groups):
            Xg = data.group_points(g)
            n_g = Xg.shape[0]
            self.points.append(Xg)
            if self.coef is None:
                self.K.append(kernel_matrix(Xg, Xg, spec.kernel))
            else:
                Rg = R[data.group_index[g]]
                lin = own_w[g] * Rg[:, g]
                if spec.lam > 0:
                    lin = lin + rest_w[g] * np.delete(Rg, g, axis=1).sum(axis=1)
                self.lin.append(lin)
            self.sel.append(np.zeros(n_g))
            self.selected.append([])
            self.selected_mask.append(np.zeros(n_g, dtype=bool))

    def _locate(self, row: int) -> tuple[int, int]:
        g = int(self.data.group_of[row])
        local = int(np.searchsorted(self.data.group_index[g], row))
        return g, local

    def _value(self, ss, lin_sum, k: int):
        """MMD value, up to its constant, of k picks with these sums; v(0) = 0."""
        if k == 0:
            return 0.0
        return self.coef[0] * ss / k**2 + lin_sum / k

    def gains(self, g: int, candidates: np.ndarray) -> np.ndarray:
        """Marginal gains of the given local candidate indices in group g."""
        if self.coef is None:
            diff = self.K[g][:, candidates] - self.sel[g][:, None]
            return np.maximum(diff, 0.0).sum(axis=0)
        q = len(self.selected[g])
        after = self._value(
            self.ss[g] + 2.0 * self.sel[g][candidates] + 1.0,
            self.lin_sum[g] + self.lin[g][candidates],
            q + 1,
        )
        return after - self._value(self.ss[g], self.lin_sum[g], q)

    def add(self, row: int):
        """Commit one global row index to its group's selection."""
        g, local = self._locate(row)
        if self.selected_mask[g][local]:
            raise ValidationError(f"row {row} is already selected")
        if self.coef is None:
            np.maximum(self.sel[g], self.K[g][:, local], out=self.sel[g])
        else:
            Xg = self.points[g]
            self.ss[g] += 2.0 * self.sel[g][local] + 1.0
            self.lin_sum[g] += self.lin[g][local]
            self.sel[g] += kernel_matrix(Xg, Xg[[local]], self.kernel)[:, 0]
        self.selected[g].append(local)
        self.selected_mask[g][local] = True


def greedy_select(data: GroupedDataset, spec: ObjectiveSpec, M: int, sums=None) -> Summary:
    """Greedy summary of M prototypes per group: M rounds, each adding to
    every group in turn its candidate of largest GreedyState gain (ties keep
    the smallest row index), so each group's list is in pick order. sums is
    the kernel.group_sums table of data at spec.kernel, or None for a fresh
    pass (see GreedyState)."""
    data.require_rows(M)
    state = GreedyState(data, spec, sums)
    for _ in range(M):
        for g in range(data.n_groups):
            pool = np.flatnonzero(~state.selected_mask[g])
            chosen = pool[int(np.argmax(state.gains(g, pool)))]
            state.add(int(data.group_index[g][chosen]))
    groups = tuple(tuple(int(data.group_index[g][local]) for local in state.selected[g]) for g in range(data.n_groups))
    return Summary(prototypes=groups)
