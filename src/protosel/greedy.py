"""Greedy utility maximisation via closed-form marginal gains.

Each group's summary is filled on its own, one group after another: no
group's gains read another group's picks. Each round picks the candidate of
largest marginal gain (ties broken by smallest row index). For the MMD kinds
a gain is the difference v(q+1) - v(q) of the shared form
(objectives.shared_form at one prototype a group), evaluated from cached
kernel aggregates; gains are validated against pure-objective differences in
the test suite.
"""

from __future__ import annotations

import numpy as np

from .corpus import GroupedDataset
from .errors import ValidationError
from .kernel import group_sums, kernel_matrix
from .objectives import ObjectiveSpec, Summary, shared_form


class GreedyState:
    """Incremental bookkeeping for greedy selection in group g, whose members
    V_g are indexed locally, in ascending row order.

    Caches:
      points  the group's rows
      sel     per member i, sum_{p selected} k(x_i, x_p) for the MMD kinds and
              max_{p selected} k(x_i, x_p) for nn (updated on add)
      selected, selected_mask  the picks in order and as a mask over V_g
    for nn only:
      K       the within-group kernel matrix, read by every gain
    and for the MMD kinds only, which build no within-group matrix:
      coef    a of objectives.shared_form (None for nn)
      lin     own_w sum_{j in V_g} k(x_i, x_j) + rest_w sum_{j not in V_g} k(x_i, x_j),
              the selection-linear score of member i, with group g's weights
              of objectives.shared_form at one prototype a group
      ss, lin_sum  sums of k over selected pairs and of lin over the selection
    Both kernel sums of lin are columns of sums, the (N, G) kernel.group_sums
    table of data at spec.kernel: its own column g, and with lam > 0 the sum
    of the other columns. The MMD kinds read it, making a fresh pass when
    sums is None, and keep the table they read as self.sums for the other
    groups' states; nn reads none. gains scores local candidates and add
    commits one, folding its kernel column into sel and keeping nothing
    else of it.
    """

    def __init__(self, data: GroupedDataset, spec: ObjectiveSpec, g: int, sums):
        self.g = g
        self.kernel = spec.kernel
        self.points = data.group_points(g)
        n_g = self.points.shape[0]
        self.sums = sums
        if spec.kind == "nn":
            self.coef = None
            self.K = kernel_matrix(self.points, self.points, spec.kernel)
        else:
            self.coef, own_w, rest_w = shared_form(data, spec, 1)
            if sums is None:
                self.sums = group_sums(data, spec.kernel)
            Rg = self.sums[data.group_index[g]]
            self.lin = own_w[g] * Rg[:, g]
            if spec.lam > 0:
                self.lin = self.lin + rest_w[g] * np.delete(Rg, g, axis=1).sum(axis=1)
            self.ss = 0.0
            self.lin_sum = 0.0
        self.sel = np.zeros(n_g)
        self.selected = []          # local indices in pick order
        self.selected_mask = np.zeros(n_g, dtype=bool)

    def _value(self, ss, lin_sum, k: int):
        """MMD value, up to its constant, of k picks with these sums; v(0) = 0."""
        if k == 0:
            return 0.0
        return self.coef * ss / k**2 + lin_sum / k

    def gains(self, candidates: np.ndarray) -> np.ndarray:
        """Marginal gains of the given local candidate indices."""
        if self.coef is None:
            diff = self.K[:, candidates] - self.sel[:, None]
            return np.maximum(diff, 0.0).sum(axis=0)
        q = len(self.selected)
        ss = self.ss + 2.0 * self.sel[candidates] + 1.0
        after = self._value(ss, self.lin_sum + self.lin[candidates], q + 1)
        return after - self._value(self.ss, self.lin_sum, q)

    def add(self, local: int):
        """Commit one local index to the group's selection."""
        if self.selected_mask[local]:
            raise ValidationError(f"row {local} of group {self.g} is already selected")
        if self.coef is None:
            np.maximum(self.sel, self.K[:, local], out=self.sel)
        else:
            self.ss += 2.0 * self.sel[local] + 1.0
            self.lin_sum += self.lin[local]
            self.sel += kernel_matrix(self.points, self.points[[local]], self.kernel)[:, 0]
        self.selected.append(local)
        self.selected_mask[local] = True


def greedy_select(data: GroupedDataset, spec: ObjectiveSpec, M: int, sums=None) -> Summary:
    """Greedy summary of M prototypes per group, filled one group at a time:
    M rounds, each adding the group's candidate of largest GreedyState gain
    (ties keep the smallest row index), so each group's list is in pick
    order. sums is the kernel.group_sums table of data at spec.kernel, or
    None for a fresh pass, which the first group's state makes and hands on
    (see GreedyState); one call makes at most one pass."""
    data.require_rows(M)
    groups = []
    for g in range(data.n_groups):
        state = GreedyState(data, spec, g, sums)
        for _ in range(M):
            pool = np.flatnonzero(~state.selected_mask)
            state.add(int(pool[int(np.argmax(state.gains(pool)))]))
        groups.append(data.group_index[g][state.selected])
        sums = state.sums
    return Summary(prototypes=tuple(groups))
