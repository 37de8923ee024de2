import os
import sys
from pathlib import Path

import numpy as np

USPS_SKIP_REASON = (
    "USPS dataset files not available in this environment (no dataset network "
    "access; verified against the package mirror and public mirrors). Provide "
    "the classic 'label + 256 pixels per line' files as data/usps/zip.train[.gz] "
    "and data/usps/zip.test[.gz], or set PROTOSEL_USPS_TRAIN / PROTOSEL_USPS_TEST."
)


def usps_paths():
    """Locate the canonical USPS train/test files, or None when absent."""
    env = (os.environ.get("PROTOSEL_USPS_TRAIN"), os.environ.get("PROTOSEL_USPS_TEST"))
    if env[0] and env[1] and Path(env[0]).exists() and Path(env[1]).exists():
        return env
    root = Path(__file__).resolve().parent.parent
    for suffix in ("", ".gz"):
        tr = root / "data" / "usps" / f"zip.train{suffix}"
        te = root / "data" / "usps" / f"zip.test{suffix}"
        if tr.exists() and te.exists():
            return str(tr), str(te)
    return None


def count_group_sums_evaluations(monkeypatch):
    """Patch kernel_matrix inside the kernel module and return the list that
    collects the evaluation count of each call that label_sums, the one
    table pass, makes; the calls of row_sums, its other caller there, are
    not counted."""
    from protosel import kernel

    evaluations = []
    original = kernel.kernel_matrix

    def counting(X, Y, spec):
        K = original(X, Y, spec)
        if sys._getframe(1).f_code is pass_code:
            evaluations.append(K.size)
        return K

    pass_code = kernel.label_sums.__code__
    monkeypatch.setattr(kernel, "kernel_matrix", counting)
    return evaluations


def table_pass_evaluations(data):
    """Kernel evaluations of one label_sums pass over the dataset's N rows:
    |b| (N - b.start) for each row band b, about N^2 / 2 + N |b| / 2."""
    from protosel import kernel

    n = data.n_points
    return sum((b.stop - b.start) * (n - b.start) for b in kernel.row_blocks(n, 8 * n))


def write_usps(path, labels, seed=0):
    """A USPS-format file: one line per label, the digit then 256 Gaussian
    pixel values centred on the digit."""
    rng = np.random.Generator(np.random.PCG64(seed))
    lines = [
        f"{label} " + " ".join(f"{v:.4f}" for v in rng.normal(loc=label, size=256))
        for label in labels
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def project_box_hyperplane(z, y, C):
    """Exact projection onto {0 <= a <= C, y'a = 0} (y in {-1, +1}, both signs).

    The projection is clip(z - nu*y, 0, C) at the root nu of
    h(nu) = y'clip(z - nu*y, 0, C), which is piecewise linear and nonincreasing
    with breakpoints z*y and (z - C)*y. h is evaluated at the sorted
    breakpoints and interpolated linearly inside the segment holding the root.
    """
    nus = np.unique(np.concatenate([z * y, (z - C) * y]))
    hs = np.clip(z - nus[:, None] * y, 0.0, C) @ y
    k = np.flatnonzero(hs >= 0)[-1]
    nu = nus[k]
    if hs[k] > 0:
        nu += (nus[k + 1] - nu) * hs[k] / (hs[k] - hs[k + 1])
    return np.clip(z - nu * y, 0.0, C)


def pgd_dual_optimum(K, y, C, iters=4000):
    """Slow projected-gradient ascent oracle for the SVM dual, from a = 0."""
    Q = K * np.outer(y, y)
    eta = 1.0 / max(float(np.linalg.eigvalsh(Q).max()), 1e-12)
    alpha = np.zeros_like(y)
    for _ in range(iters):
        alpha = project_box_hyperplane(alpha + eta * (1.0 - Q @ alpha), y, C)
    return float(alpha.sum() - 0.5 * (alpha @ (Q @ alpha)))
