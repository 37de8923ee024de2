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
from .kernel import kernel_matrix, row_sums
from .objectives import ObjectiveSpec, Provenance, Summary, coefficients


class GreedyState:
    """Incremental per-group bookkeeping for greedy selection.

    Caches, per group g with members V_g (local indexing):
      K[g]        within-group kernel matrix
      col_own[g]  sum_{j in V_g} k(x_i, x_j) per member i
      col_rest[g] sum_{j not in V_g} k(x_i, x_j) per member i
      col_sel[g]  sum_{p selected} k(x_i, x_p) per member i (updated on add)
      best[g]     max_{p selected} k(x_i, x_p) per member i (for the nn kind)
    plus scalar aggregates over the current selection.
    """

    def __init__(self, data: GroupedDataset, spec: ObjectiveSpec):
        # (a, lam) of the MMD kinds' shared form; None for nn
        self.coef = None if spec.kind == "nn" else coefficients(spec)
        need_rest = self.coef is not None and self.coef[1] > 0
        if need_rest and data.n_groups < 2:
            raise ValidationError("comparative objectives need at least 2 groups when lam > 0")
        self.data = data
        self.K = []
        self.col_own = []
        self.col_rest = []
        self.col_sel = []
        self.best = []
        self.selected = []          # per group, local indices in pick order
        self.selected_mask = []
        self.n_rest = []
        self.ss = []                # sum over selected pairs of k
        self.s_own = []             # sum_{p selected} col_own[p]
        self.s_rest = []            # sum_{p selected} col_rest[p]
        for g in range(data.n_groups):
            Xg = data.group_points(g)
            K = kernel_matrix(Xg, Xg, spec.kernel)
            self.K.append(K)
            self.col_own.append(K.sum(axis=1))
            if need_rest:
                total = row_sums(Xg, data.points, spec.kernel)
                self.col_rest.append(total - self.col_own[g])
            else:
                self.col_rest.append(np.zeros(Xg.shape[0]))
            self.col_sel.append(np.zeros(Xg.shape[0]))
            self.best.append(np.zeros(Xg.shape[0]))
            self.selected.append([])
            self.selected_mask.append(np.zeros(Xg.shape[0], dtype=bool))
            self.n_rest.append(data.n_points - Xg.shape[0])
            self.ss.append(0.0)
            self.s_own.append(0.0)
            self.s_rest.append(0.0)

    def _locate(self, row: int) -> tuple[int, int]:
        g = int(self.data.group_of[row])
        local = int(np.searchsorted(self.data.group_index[g], row))
        return g, local

    def _value(self, g: int, ss, own, rest, k: int):
        """Group g's MMD value, up to its constant, of k picks with these sums; v(0) = 0."""
        if k == 0:
            return 0.0
        a, lam = self.coef
        value = a * ss / k**2 + (2.0 / self.K[g].shape[0]) * own / k
        if lam > 0:
            value = value - (2.0 * lam / self.n_rest[g]) * rest / k
        return value

    def gains(self, g: int, candidates: np.ndarray) -> np.ndarray:
        """Marginal gains of the given local candidate indices in group g."""
        if self.coef is None:
            diff = self.K[g][:, candidates] - self.best[g][:, None]
            return np.maximum(diff, 0.0).sum(axis=0)
        q = len(self.selected[g])
        after = self._value(
            g,
            self.ss[g] + 2.0 * self.col_sel[g][candidates] + 1.0,
            self.s_own[g] + self.col_own[g][candidates],
            self.s_rest[g] + self.col_rest[g][candidates],
            q + 1,
        )
        return after - self._value(g, self.ss[g], self.s_own[g], self.s_rest[g], q)

    def add(self, row: int):
        """Commit one global row index to its group's selection."""
        g, local = self._locate(row)
        if self.selected_mask[g][local]:
            raise ValidationError(f"row {row} is already selected")
        self.ss[g] += 2.0 * self.col_sel[g][local] + 1.0
        self.s_own[g] += self.col_own[g][local]
        self.s_rest[g] += self.col_rest[g][local]
        col = self.K[g][:, local]
        self.col_sel[g] += col
        np.maximum(self.best[g], col, out=self.best[g])
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

    def summary(self, provenance: Provenance | None = None) -> Summary:
        groups = tuple(
            tuple(int(self.data.group_index[g][local]) for local in self.selected[g])
            for g in range(self.data.n_groups)
        )
        return Summary(prototypes=groups, provenance=provenance)

    def check_caches(self, tol: float = 1e-8) -> bool:
        """Test hook: cached aggregates match a from-scratch recomputation."""
        for g in range(self.data.n_groups):
            sel = self.selected[g]
            K = self.K[g]
            ss = sum(K[i, j] for i in sel for j in sel)
            s_own = sum(self.col_own[g][i] for i in sel)
            s_rest = sum(self.col_rest[g][i] for i in sel)
            col_sel = K[:, sel].sum(axis=1) if sel else np.zeros(K.shape[0])
            best = K[:, sel].max(axis=1) if sel else np.zeros(K.shape[0])
            ok = (
                abs(self.ss[g] - ss) <= tol
                and abs(self.s_own[g] - s_own) <= tol
                and abs(self.s_rest[g] - s_rest) <= tol
                and np.allclose(self.col_sel[g], col_sel, atol=tol)
                and np.allclose(self.best[g], best, atol=tol)
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
    return state.summary(
        Provenance(objective=spec.kind, optimizer="greedy", gamma=spec.kernel.gamma, lam=spec.lam),
    )
