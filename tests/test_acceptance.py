"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured runtimes. The USPS reproduction needs the real dataset
files (see the skip message for where to put them); everything else is
self-contained.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import local_index, row_gain

from protosel.corpus import from_rows, load_usps_pair, make_splits
from protosel.errors import ValidationError
from protosel.evaluation import (
    Grids,
    HyperParams,
    LabeledPrototypeSet,
    run_experiment,
    svm_train,
)
from protosel.gradopt import _MetaObjective, _initial_points, optimize_meta
from protosel.greedy import GreedyState, greedy_select
from protosel.kernel import KernelSpec, kernel_matrix
from protosel.objectives import ObjectiveSpec, mmd2
from protosel.selftest import (
    brute_mmd2,
    exhaustive_optimum,
    gradient_error,
    random_grouped,
    total_value,
)


def announce(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] acceptance criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_mmd2_brute_force_oracle():
    """200 seeded instances (n, m <= 30, d <= 10), 1e-12 absolute, < 5 s."""
    rng = np.random.Generator(np.random.PCG64(1001))
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 31))
        m = int(rng.integers(1, 31))
        d = int(rng.integers(1, 11))
        gamma = float(rng.uniform(0.05, 2.0))
        X = rng.normal(size=(n, d))
        Y = rng.normal(size=(m, d))
        fast = mmd2(X, Y, KernelSpec(gamma))
        worst = max(worst, abs(fast - brute_mmd2(X, Y, gamma)))
    elapsed = time.monotonic() - start
    announce(
        1,
        worst <= 1e-12 and elapsed < 5.0,
        f"max abs error {worst:.2e} (tol 1e-12) over 200 instances in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_discrete_derivatives_match_pure_differences():
    """A GreedyState gain equals U(S+s) - U(S) within 1e-8 over 500 probes, < 30 s."""
    rng = np.random.Generator(np.random.PCG64(1002))
    start = time.monotonic()
    kinds = ["nn", "mmd-diff", "mmd-div"]
    worst = 0.0
    for probe in range(500):
        kind = kinds[probe % 3]
        data = random_grouped(rng, groups=2, n_per_group=int(rng.integers(5, 9)), d=3)
        spec = ObjectiveSpec(
            kind=kind,
            kernel=KernelSpec(float(rng.uniform(0.2, 1.5))),
            lam=float(rng.uniform(0.0, 2.0)) if kind != "nn" else 0.0,
        )
        selections = []
        for g in range(2):
            rows = data.group_index[g]
            size = int(rng.integers(1, 4))
            selections.append([int(r) for r in rng.choice(rows, size=size, replace=False)])
        g = int(rng.integers(0, 2))
        pool = [int(r) for r in data.group_index[g] if int(r) not in selections[g]]
        cand = pool[int(rng.integers(0, len(pool)))]

        state = GreedyState(data, spec, g, None)
        for row in selections[g]:
            state.add(local_index(data, row))
        gain = row_gain(state, local_index(data, cand))

        before = total_value(data, spec, selections)
        after = [list(s) for s in selections]
        after[g].append(cand)
        worst = max(worst, abs(gain - (total_value(data, spec, after) - before)))
    elapsed = time.monotonic() - start
    announce(
        2,
        worst <= 1e-8 and elapsed < 30.0,
        f"max |gain - oracle difference| {worst:.2e} (tol 1e-8) over 500 probes in {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_gradients_match_finite_differences():
    """Analytic gradients of both relaxed objectives vs central differences,
    relative error <= 1e-5 on >= 100 configurations, < 30 s."""
    rng = np.random.Generator(np.random.PCG64(1003))
    start = time.monotonic()
    worst = 0.0
    configs = 0
    for kind in ("mmd-diff", "mmd-div"):
        for _ in range(50):
            configs += 1
            data = random_grouped(rng, groups=2, n_per_group=int(rng.integers(4, 8)), d=3)
            spec = ObjectiveSpec(
                kind=kind,
                kernel=KernelSpec(float(rng.uniform(0.2, 1.5))),
                lam=float(rng.uniform(0.0, 2.0)),
            )
            m = int(rng.integers(1, 4))
            meta_pts = [rng.normal(scale=1.5, size=(m, data.dim)) for _ in range(2)]
            worst = max(worst, gradient_error(meta_pts, data, spec))
    elapsed = time.monotonic() - start
    announce(
        3,
        worst <= 1e-5 and elapsed < 30.0 and configs >= 100,
        f"max rel. gradient error {worst:.2e} (tol 1e-5) over {configs} configs in {elapsed:.1f}s (< 30s)",
    )


def _exhaustive_instances(seed, count=50):
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(count):
        n_per_group = int(rng.integers(6, 13))
        data = random_grouped(rng, groups=2, n_per_group=n_per_group, d=2)
        gamma = float(rng.uniform(0.2, 1.2))
        M = int(rng.integers(1, 4))
        out.append((data, gamma, M))
    return out


def test_criterion_4_greedy_guarantee_and_ratios():
    """nn greedy >= (1 - 1/e) * OPT on every instance; comparative objectives
    report their empirical greedy/OPT ratios."""
    bound = 1.0 - 1.0 / math.e
    instances = _exhaustive_instances(1004)
    ratios = {"mmd-diff": [], "mmd-div": []}
    gaps = {"mmd-diff": [], "mmd-div": []}
    nn_ok = True
    worst_nn_ratio = np.inf
    for data, gamma, M in instances:
        for kind in ("nn", "mmd-diff", "mmd-div"):
            lam = 0.0 if kind == "nn" else 1.0
            spec = ObjectiveSpec(kind=kind, kernel=KernelSpec(gamma), lam=lam)
            summary = greedy_select(data, spec, M)
            greedy_val = total_value(data, spec, summary.prototypes)
            opt = exhaustive_optimum(data, spec, M)
            assert greedy_val <= opt + 1e-9
            if kind == "nn":
                worst_nn_ratio = min(worst_nn_ratio, greedy_val / opt)
                if greedy_val < bound * opt - 1e-9:
                    nn_ok = False
            else:
                gaps[kind].append(opt - greedy_val)
                if opt > 1e-12:
                    ratios[kind].append(greedy_val / opt)

    def report_kind(kind):
        out = f"{kind} mean OPT-greedy gap {np.mean(gaps[kind]):.2e}"
        if ratios[kind]:
            out += f", min/mean greedy/OPT {min(ratios[kind]):.4f}/{np.mean(ratios[kind]):.4f}"
        else:
            out += ", ratios n/a (optimum <= 0 on these instances)"
        return out

    detail = (
        f"nn worst greedy/OPT {worst_nn_ratio:.4f} >= 1-1/e = {bound:.4f} on 50 instances; "
        + report_kind("mmd-diff") + "; " + report_kind("mmd-div")
        + " (reported, no guarantee asserted)"
    )
    announce(4, nn_ok and worst_nn_ratio >= bound - 1e-9, detail)


def test_criterion_5_gradient_ascent_contract():
    """Pre-snap objective after optimize_meta >= value at initialization for
    both greedy and kmeans inits, within 1e-10, on the same 50 instances."""
    instances = _exhaustive_instances(1004)
    worst_drop = 0.0
    checked = 0
    for idx, (data, gamma, M) in enumerate(instances):
        kind = "mmd-diff" if idx % 2 == 0 else "mmd-div"
        spec = ObjectiveSpec(kind=kind, kernel=KernelSpec(gamma), lam=1.0)
        evaluator = _MetaObjective(data, spec, M)
        for init in ("greedy", "kmeans"):
            v0 = evaluator.value_grad(np.vstack(_initial_points(data, spec, M, init, idx, None)))[0]
            meta = optimize_meta(data, spec, M, init, idx)
            v1 = evaluator.value_grad(np.vstack(meta.points))[0]
            worst_drop = max(worst_drop, v0 - v1)
            checked += 1
    announce(
        5,
        worst_drop <= 1e-10,
        f"worst objective drop vs. initialization {worst_drop:.2e} (tol 1e-10) "
        f"over {checked} runs (50 instances x greedy/kmeans init)",
    )


from conftest import USPS_SKIP_REASON as USPS_SKIP, pgd_dual_optimum, usps_paths as _find_usps


@pytest.mark.skipif(_find_usps() is None, reason=USPS_SKIP)
def test_criterion_6_usps_reproduction():
    """PCA -> 39 dims, 10 splits, M = 16, 1-NN: kmeans ~ 0.909 +/- 0.02 and
    mmd-diff-grad ~ 0.910 +/- 0.02; at M = 2 kmeans ~ 0.823 +/- 0.03."""
    from protosel.cli import _pca_split
    from protosel.corpus import fit_pca

    train_path, test_path = _find_usps()
    combined, train_rows, test_rows = load_usps_pair(train_path, test_path)
    splits = make_splits(combined, 0.784, 10, base_seed=0, first_split=(train_rows, test_rows))

    model = fit_pca(splits[0].train, 0.85)
    k39 = model.n_components
    print(f"\n  PCA components explaining 85% of variance on the canonical train split: {k39}")
    assert k39 == 39

    splits = [_pca_split(s, 0.85) for s in splits]
    reports = run_experiment(
        splits,
        methods=["kmeans", "mmd-diff-grad"],
        m_list=[16, 2],
        classifiers=("1nn",),
        grad_init="kmeans",
    )
    by_key = {(r.method, r.m): r for r in reports}
    km16 = by_key[("kmeans", 16)].mean
    grad16 = by_key[("mmd-diff-grad", 16)].mean
    km2 = by_key[("kmeans", 2)].mean
    ok = abs(km16 - 0.909) <= 0.02 and abs(grad16 - 0.910) <= 0.02 and abs(km2 - 0.823) <= 0.03
    announce(
        6,
        ok,
        f"USPS 1-NN means: kmeans M=16 {km16:.3f} (target 0.909 +/- 0.02), "
        f"mmd-diff-grad M=16 {grad16:.3f} (target 0.910 +/- 0.02), "
        f"kmeans M=2 {km2:.3f} (target 0.823 +/- 0.03)",
    )


@pytest.mark.skipif(_find_usps() is None, reason=USPS_SKIP)
def test_criterion_6_fast_mode_gap():
    """--fast mode: on 2000 subsampled training points the comparative MMD
    method beats the unlabeled prototypes+criticisms baseline by >= 0.05 at
    M = 2, in under 5 minutes."""
    from protosel.cli import _pca_split, _subsample_split

    train_path, test_path = _find_usps()
    combined, train_rows, test_rows = load_usps_pair(train_path, test_path)
    start = time.monotonic()
    splits = make_splits(combined, 0.784, 1, base_seed=0, first_split=(train_rows, test_rows))
    splits = [_subsample_split(_pca_split(s, 0.85), 2000) for s in splits]
    reports = run_experiment(
        splits,
        methods=["mmd-diff-grad", "mmd-critic"],
        m_list=[2],
        classifiers=("1nn",),
        grad_init="kmeans",
    )
    elapsed = time.monotonic() - start
    by_method = {r.method: r.mean for r in reports}
    gap = by_method["mmd-diff-grad"] - by_method["mmd-critic"]
    announce(
        6,
        gap >= 0.05 and elapsed < 300.0,
        f"fast mode: mmd-diff-grad {by_method['mmd-diff-grad']:.3f} vs mmd-critic "
        f"{by_method['mmd-critic']:.3f} (gap {gap:.3f} >= 0.05) in {elapsed:.0f}s (< 300s)",
    )


def test_criterion_7_synthetic_two_group_corpus():
    """On overlapping Gaussian topic mixtures: the gradient comparative method
    is within 0.02 of kmeans on mean 1-NN balanced accuracy over 10 seeds, and
    the full-training-set classifier is at least as good as every prototype
    method."""
    rng = np.random.Generator(np.random.PCG64(1007))
    d = 8
    n_modes = 6  # more topic modes than prototypes, one mode shared by both groups
    shared = rng.normal(scale=4.0, size=d)
    pts, labels = [], []
    for g in range(2):
        centers = [rng.normal(scale=4.0, size=d) for _ in range(n_modes - 1)] + [shared]
        rows = np.vstack([c + 0.4 * rng.normal(size=(20, d)) for c in centers])
        pts.append(rows)
        labels += [f"g{g}"] * rows.shape[0]
    data = from_rows(np.vstack(pts), labels)

    start = time.monotonic()
    reports = run_experiment(
        make_splits(data, 0.8, 10, 0),
        methods=["mmd-diff-grad", "kmeans", "full"],
        m_list=[4],
        classifiers=("1nn",),
    )
    elapsed = time.monotonic() - start
    means = {r.method: r.mean for r in reports}
    ok = (
        means["mmd-diff-grad"] >= means["kmeans"] - 0.02
        and means["full"] >= means["mmd-diff-grad"]
        and means["full"] >= means["kmeans"]
    )
    announce(
        7,
        ok,
        f"synthetic corpus 1-NN means over 10 splits: mmd-diff-grad {means['mmd-diff-grad']:.3f} "
        f">= kmeans {means['kmeans']:.3f} - 0.02; full {means['full']:.3f} >= both ({elapsed:.0f}s)",
    )


def test_criterion_8_svm_against_projected_gradient_oracle():
    """Dual objective within 1e-3 of a slow projected-gradient solver on
    20-point instances; separable toy data trains to accuracy 1.0; < 30 s."""
    rng = np.random.Generator(np.random.PCG64(1008))
    start = time.monotonic()
    worst = 0.0
    for trial in range(5):
        pts = rng.normal(size=(20, 3))
        labels = np.array([0] * 10 + [1] * 10)
        rng.shuffle(labels)
        protos = LabeledPrototypeSet(points=pts, labels=labels)
        C = float(rng.choice([0.3, 1.0, 10.0]))
        spec = KernelSpec(float(rng.uniform(0.2, 1.0)))
        model = svm_train(protos, (C,), spec=spec, tol=1e-6)[0]
        K = kernel_matrix(pts, pts, spec)
        for dual, cls in zip(model.dual_objective, model.classes):
            y = np.where(labels == cls, 1.0, -1.0)
            worst = max(worst, abs(dual - pgd_dual_optimum(K, y, C)))

    blob_a = rng.normal(size=(10, 2))
    blob_b = rng.normal(size=(10, 2)) + 6.0
    protos = LabeledPrototypeSet(
        points=np.vstack([blob_a, blob_b]), labels=np.array([0] * 10 + [1] * 10)
    )
    model = svm_train(protos, (10.0,), spec=KernelSpec(0.5))[0]
    K = kernel_matrix(protos.points, protos.points, KernelSpec(0.5))
    train_acc = float(np.mean(model.predict(K) == protos.labels))
    elapsed = time.monotonic() - start
    announce(
        8,
        worst <= 1e-3 and train_acc == 1.0 and elapsed < 30.0,
        f"max |dual - oracle| {worst:.2e} (tol 1e-3); separable training accuracy "
        f"{train_acc:.2f}; {elapsed:.1f}s (< 30s)",
    )


@pytest.fixture
def toy_corpus(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    tokens = {
        "alpha": [1.0, 0.0], "beta": [0.9, 0.1],
        "gamma": [0.0, 1.0], "delta": [0.1, 0.9],
        "common": [0.5, 0.5],
    }
    vec_path = tmp_path / "vectors.txt"
    vec_path.write_text("\n".join(f"{t} {v[0]} {v[1]}" for t, v in tokens.items()) + "\n")
    docs = []
    for i in range(8):
        word = "alpha" if i % 2 else "beta"
        docs.append({"id": f"a{i}", "group": "early", "title": f"{word} common",
                     "sentences": [f"{word} {word}", "common"]})
    for i in range(8):
        word = "gamma" if i % 2 else "delta"
        docs.append({"id": f"b{i}", "group": "late", "title": f"{word} common",
                     "sentences": [f"{word} {word}", "common"]})
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
    return corpus_path, vec_path


def test_criterion_9_cli_byte_determinism(toy_corpus, tmp_path):
    """summarize and evaluate outputs are byte-identical across repeat runs,
    including with more than one worker."""
    from protosel.cli import main

    corpus, vectors = toy_corpus

    def tree(out):
        return {p.name: p.read_bytes() for p in sorted(Path(out).glob("*"))}

    summaries = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = main(["summarize", "--corpus", str(corpus), "--vectors", str(vectors),
                     "--method", "mmd-diff-grad", "--m", "2", "--seed", "4", "--out", str(out)])
        assert code == 0
        summaries.append(tree(out))

    evaluations = []
    for name, workers in (("e1", "1"), ("e2", "3"), ("e3", "3")):
        out = tmp_path / name
        code = main(["evaluate", "--corpus", str(corpus), "--vectors", str(vectors),
                     "--method", "kmeans,mmd-diff-greedy", "--m", "2", "--splits", "2",
                     "--seed", "4", "--workers", workers, "--out", str(out)])
        assert code == 0
        evaluations.append(tree(out))

    ok = summaries[0] == summaries[1] and evaluations[0] == evaluations[1] == evaluations[2]
    announce(
        9,
        ok,
        "summarize and evaluate outputs byte-identical across reruns and worker counts (1 and 3)",
    )
