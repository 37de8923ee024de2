"""Greedy utility maximisation via closed-form marginal gains.

The selection loop interleaves groups: one prototype is added to every group
per outer round, each time picking the candidate with the largest marginal
gain (ties broken by smallest row index). For the MMD kinds a gain is the
difference v(q+1) - v(q) of the shared form of objectives.coefficients,
evaluated from cached kernel aggregates; gains are validated against
pure-objective differences in the test suite.
"""

from __future__ import annotations

import numpy as np

from .corpus import GroupedDataset
from .errors import ValidationError
from .kernel import group_sums, kernel_matrix
from .objectives import ObjectiveSpec, Summary, coefficients


class GreedyState:
    """Incremental per-group bookkeeping for greedy selection.

    Caches, per group g with members V_g (local indexing):
      K[g]    within-group kernel matrix
      sel[g]  per member i, sum_{p selected} k(x_i, x_p) for the MMD kinds and
              max_{p selected} k(x_i, x_p) for nn (updated on add)
    and for the MMD kinds only:
      lin[g]  (2/n_g) sum_{j in V_g} k(x_i, x_j) - (2 lam/n_rest) sum_{j not in V_g} k(x_i, x_j),
              the selection-linear score of member i (the gradient path's weights)
      ss[g], lin_sum[g]  sums of k over selected pairs and of lin over the selection
    The own-group sums are K[g]'s row sums. With lam > 0 the rest sums add up
    the other groups' columns of kernel.group_sums, so every lambda at one
    kernel, and the summary's header value, read one pass over the data.
    """

    def __init__(self, data: GroupedDataset, spec: ObjectiveSpec):
        # (a, lam) of the MMD kinds' shared form; None for nn
        self.coef = None if spec.kind == "nn" else coefficients(spec)
        need_rest = self.coef is not None and self.coef[1] > 0
        if need_rest and data.n_groups < 2:
            raise ValidationError("comparative objectives need at least 2 groups when lam > 0")
        self.data = data
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
            K = kernel_matrix(Xg, Xg, spec.kernel)
            self.K.append(K)
            if self.coef is not None:
                own = K.sum(axis=1)
                lin = (2.0 / n_g) * own
                if need_rest:
                    R = group_sums(data, spec.kernel)[data.group_index[g]]
                    rest = np.delete(R, g, axis=1).sum(axis=1)
                    lin = lin - (2.0 * self.coef[1] / (data.n_points - n_g)) * rest
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
        col = self.K[g][:, local]
        if self.coef is None:
            np.maximum(self.sel[g], col, out=self.sel[g])
        else:
            self.ss[g] += 2.0 * self.sel[g][local] + 1.0
            self.lin_sum[g] += self.lin[g][local]
            self.sel[g] += col
        self.selected[g].append(local)
        self.selected_mask[g][local] = True

    def select(self, M: int, on_pick=None):
        """M rounds, adding the best candidate to each group in turn.

        Deterministic: candidate scans run in ascending row order and ties keep
        the smallest row index. on_pick, if given, is called with the chosen
        global row after each commit (used by tests to replay trajectories).
        """
        sizes = self.data.group_sizes()
        if M < 1 or M > int(sizes.min()):
            raise ValidationError(f"M must be in [1, {int(sizes.min())}], got {M}")
        for _ in range(M):
            for g in range(self.data.n_groups):
                pool = np.flatnonzero(~self.selected_mask[g])
                gains = self.gains(g, pool)
                chosen = pool[int(np.argmax(gains))]
                row = int(self.data.group_index[g][chosen])
                self.add(row)
                if on_pick is not None:
                    on_pick(row)

    def summary(self) -> Summary:
        groups = tuple(
            tuple(int(self.data.group_index[g][local]) for local in self.selected[g])
            for g in range(self.data.n_groups)
        )
        return Summary(prototypes=groups)

    def check_caches(self, tol: float = 1e-8) -> bool:
        """Test hook: cached aggregates match a from-scratch recomputation."""
        for g in range(self.data.n_groups):
            sel = self.selected[g]
            K = self.K[g]
            if self.coef is None:
                best = K[:, sel].max(axis=1) if sel else np.zeros(K.shape[0])
                ok = np.allclose(self.sel[g], best, atol=tol)
            else:
                ok = (
                    abs(self.ss[g] - K[np.ix_(sel, sel)].sum()) <= tol
                    and abs(self.lin_sum[g] - self.lin[g][sel].sum()) <= tol
                    and np.allclose(self.sel[g], K[:, sel].sum(axis=1), atol=tol)
                )
            if not ok:
                return False
        return True


def marginal_gain(state: GreedyState, candidate: int) -> float:
    """Gain of adding the candidate row to the current selection of its group."""
    g, local = state._locate(candidate)
    if state.selected_mask[g][local]:
        raise ValidationError(f"candidate row {candidate} is already selected")
    return float(state.gains(g, np.array([local]))[0])


def greedy_select(data: GroupedDataset, spec: ObjectiveSpec, M: int, on_pick=None) -> Summary:
    """Greedy summary of M prototypes per group; see GreedyState.select."""
    state = GreedyState(data, spec)
    state.select(M, on_pick)
    return state.summary()
