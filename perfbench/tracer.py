"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the protosel modules from outside the
package: each wrapped call records a span (name, start, end, parent, attrs) in
memory. A function imported by name into several modules (kernel_matrix lives
in greedy, gradopt, objectives, evaluation and baselines) is replaced in every
namespace that holds it, so no call path escapes. Methods are replaced on
their class.

Pool workers forked from the traced process inherit the wrapped namespaces;
each worker starts an empty trace of its own and spills its finished
top-level spans to a file in the spill directory, which the traced process
merges at the end.

Selected phases also record their tracemalloc peak (bytes allocated during
the phase above what was live when it began). tracemalloc runs only while
such a phase is open.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

MIB = float(1 << 20)

# Methods whose summaries depend on gamma / on lambda; a build's input key
# keeps only the hyperparameters its method reads (C never reaches a build).
_USES_GAMMA = {"nn-comp-greedy", "mmd-diff-greedy", "mmd-div-greedy", "mmd-diff-grad", "mmd-div-grad", "mmd-critic"}
_USES_LAM = {"mmd-diff-greedy", "mmd-div-greedy", "mmd-diff-grad", "mmd-div-grad"}

# Phases whose tracemalloc peak is recorded.
_PEAK_PHASES = {
    "greedy.GreedyState.init",
    "baselines.mmd_critic_summary",
    "baselines.kmedoids_summary",
    "objectives.utility_value",
}


class Tracer:
    """In-memory span recorder for one process; a forked child starts empty."""

    def __init__(self, spill_dir=None):
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.forked = False
        self.spans: list = []         # (name, start, end, parent, attrs)
        self.stack: list[int] = []    # indices of open spans
        self.open_at: list[tuple] = []  # (name, attrs, start) of open spans
        self.peaks: list[list] = []   # open peak frames [span, base, running]
        self.patched: list[tuple] = []  # (owner, attribute, original)
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.forked, self.spans, self.stack, self.open_at, self.peaks = True, [], [], [], []

    def open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        self.open_at.append((name, attrs))
        if name in _PEAK_PHASES:
            self._peak_open(idx)
        self.open_at[-1] += (time.monotonic(),)
        return idx

    def close(self, idx: int) -> None:
        end = time.monotonic()
        name, attrs, start = self.open_at.pop()
        self.stack.pop()
        if self.peaks and self.peaks[-1][0] == idx:
            attrs = {} if attrs is None else attrs
            attrs["peak_mb"] = self._peak_close()
        # Spans are tuples of atomic values so the cyclic garbage collector
        # stops scanning them; hundreds of thousands stay alive in a run.
        self.spans[idx] = (name, start, end, self.stack[-1] if self.stack else -1, attrs)
        if not self.stack and self.forked and self.spill_dir is not None:
            with open(self.spill_dir / f"spans-{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(self.spans) + "\n")
            self.spans = []

    def ancestor_attr(self, key: str):
        """Value of key in the innermost open span that carries it."""
        for _, attrs, *_ in reversed(self.open_at):
            if attrs and key in attrs:
                return attrs[key]
        return None

    def _peak_open(self, idx: int) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for frame in self.peaks:
            frame[2] = max(frame[2], peak)
        tracemalloc.reset_peak()
        self.peaks.append([idx, current, current])

    def _peak_close(self) -> float:
        idx, base, running = self.peaks.pop()
        running = max(running, tracemalloc.get_traced_memory()[1])
        if self.peaks:
            self.peaks[-1][2] = max(self.peaks[-1][2], running)
        else:
            tracemalloc.stop()
        return (running - base) / MIB

    def trees(self) -> list[list]:
        """This process's spans plus every spilled worker chunk."""
        out = [self.spans]
        if self.spill_dir is not None:
            for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
                with open(path, encoding="utf-8") as fh:
                    out.extend(json.loads(line) for line in fh if line.strip())
        return out


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = before(tracer, args, kwargs) if before else None
        if after is not None and attrs is None:
            attrs = {}
        idx = tracer.open(name, attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(attrs, args, kwargs, result)
        return result

    return traced


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _shape_attrs(tracer, args, kwargs):
    X, Y = args[0], args[1]  # arrays: rows x d, or one d-vector
    return {
        "n": X.shape[0] if X.ndim == 2 else 1,
        "m": Y.shape[0] if Y.ndim == 2 else 1,
        "d": X.shape[-1],
    }


def _build_attrs(tracer, args, kwargs):
    method = _arg(args, kwargs, 0, "method")
    train = _arg(args, kwargs, 1, "train")
    params = _arg(args, kwargs, 3, "params")
    key = (
        method,
        hashlib.sha1(train.points.tobytes()).hexdigest(),
        _arg(args, kwargs, 2, "M"),
        params.gamma if method in _USES_GAMMA else None,
        params.lam if method in _USES_LAM else None,
        _arg(args, kwargs, 4, "seed", 0),
        _arg(args, kwargs, 5, "grad_init", "greedy") if method.endswith("-grad") else None,
    )
    return {"method": method, "key": repr(key)}


def _cv_attrs(tracer, args, kwargs):
    return {
        "method": _arg(args, kwargs, 1, "method"),
        "classifier": _arg(args, kwargs, 4, "classifier", "1nn"),
        "seed": _arg(args, kwargs, 6, "seed", 0),
    }


def _embed_after(attrs, args, kwargs, result):
    from protosel.corpus import tokenize

    docs, vecs = args[0], args[1]
    k = _arg(args, kwargs, 2, "first_k_sentences", 3)
    used = {t for d in docs for part in [d.title, *d.sentences[:k]] for t in tokenize(part) if t in vecs}
    attrs["vocab_used_ratio"] = len(used) / max(len(vecs), 1)


def _lbfgs_after(attrs, args, kwargs, result):
    maxiter = (kwargs.get("options") or {}).get("maxiter")
    attrs["nit"] = int(result.nit)
    attrs["nfev"] = int(result.nfev)
    attrs["capped"] = maxiter is not None and int(result.nit) >= int(maxiter)


# (module, attribute path, metric name, before, after). Private names are
# traced only where a per-layer metric needs them: _eval_cell is the unit a
# pool worker runs, and gradopt's minimize is scipy's L-BFGS entry point.
TARGETS = (
    ("corpus", "load_corpus", "corpus.load_corpus", None, None),
    ("corpus", "load_word_vectors", "corpus.load_word_vectors", None, None),
    ("corpus", "embed_documents", "corpus.embed_documents", None, _embed_after),
    ("corpus", "load_usps", "corpus.load_usps", None, None),
    ("corpus", "fit_pca", "corpus.fit_pca", None, None),
    ("corpus", "apply_pca", "corpus.apply_pca", None, None),
    ("corpus", "make_splits", "corpus.make_splits", None, None),
    ("corpus", "GroupedDataset.subset", "corpus.subset", None, None),
    ("kernel", "kernel_matrix", "kernel.kernel_matrix", _shape_attrs, None),
    ("kernel", "row_sums", "kernel.row_sums", _shape_attrs, None),
    ("kernel", "median_gamma", "kernel.median_gamma", None, None),
    ("greedy", "GreedyState.__init__", "greedy.GreedyState.init", None, None),
    ("greedy", "GreedyState.gains", "greedy.GreedyState.gains", None, None),
    ("greedy", "GreedyState.add", "greedy.GreedyState.add", None, None),
    ("greedy", "greedy_select", "greedy.greedy_select", None, None),
    ("gradopt", "optimize_meta", "gradopt.optimize_meta", None, None),
    ("gradopt", "minimize", "gradopt.lbfgs", lambda t, a, k: {"method": t.ancestor_attr("method")}, _lbfgs_after),
    ("gradopt", "snap", "gradopt.snap", None, None),
    ("gradopt", "gradient_summary", "gradopt.gradient_summary", None, None),
    ("baselines", "kmeans_summary", "baselines.kmeans_summary", None, None),
    ("baselines", "kmedoids_summary", "baselines.kmedoids_summary", None, None),
    ("baselines", "mmd_critic_summary", "baselines.mmd_critic_summary", None, None),
    ("baselines", "lloyd", "baselines.lloyd", None, None),
    ("objectives", "utility_value", "objectives.utility_value", None, None),
    ("objectives", "mmd2", "objectives.mmd2", None, None),
    ("evaluation", "default_grids", "evaluation.default_grids", None, None),
    ("evaluation", "grid_search_cv", "evaluation.grid_search_cv", _cv_attrs, None),
    ("evaluation", "build_summary", "evaluation.build_summary", _build_attrs, None),
    ("evaluation", "svm_train", "evaluation.svm_train", None, None),
    ("evaluation", "SvmModel.predict", "evaluation.SvmModel.predict", None, None),
    ("evaluation", "knn1_predict_batch", "evaluation.knn1_predict_batch", None, None),
    ("evaluation", "run_experiment", "evaluation.run_experiment",
     lambda t, a, k: {"workers": int(k.get("workers", 1))}, None),
    ("evaluation", "_eval_cell", "evaluation.eval_cell", None, None),
    ("cli", "cmd_evaluate", "cli.cmd_evaluate", None, None),
    ("cli", "cmd_summarize", "cli.cmd_summarize", None, None),
    ("cli", "main", "cli.main", None, None),
)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target in every protosel namespace that holds it.

    Returns the metric names whose target is missing from this version of
    the package (their metrics then read 0).
    """
    modules = {t[0]: importlib.import_module(f"protosel.{t[0]}") for t in TARGETS}
    namespaces = [m for k, m in sorted(sys.modules.items()) if k == "protosel" or k.startswith("protosel.")]
    missing = []
    for module_name, path, metric, before, after in TARGETS:
        owner = modules[module_name]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(metric)
            continue
        wrapped = _wrap(tracer, metric, original, before, after)
        holders = [(owner, attr)] if cls_path else [
            (ns, key) for ns in namespaces for key, value in vars(ns).items() if value is original
        ]
        for holder, key in holders:
            setattr(holder, key, wrapped)
            tracer.patched.append((holder, key, original))
    return missing


def uninstall(tracer: Tracer) -> None:
    """Put back every original that install replaced."""
    for holder, key, original in reversed(tracer.patched):
        setattr(holder, key, original)
    tracer.patched.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name (for inclusive sums)."""
    out = []
    for name, _, _, parent, _ in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        out.append(parent < 0)
    return out


def _kernel_flops(attrs) -> float:
    # cdist sqeuclidean: d subtracts, d multiplies, d adds per pair; then
    # one scale and one exp.
    return attrs["n"] * attrs["m"] * (3 * attrs["d"] + 2)


def layer_metrics(trees) -> tuple[dict, dict]:
    """Per-layer metric values and a detail breakdown from span trees.

    trees is a list of span lists, one per process chunk, each with parent
    indices local to the chunk.
    """
    calls, incl, excl, attrs_by = {}, {}, {}, {}
    for spans in trees:
        selfs = self_times(spans)
        top = outermost(spans)
        for i, (name, start, end, _, attrs) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            excl[name] = excl.get(name, 0.0) + selfs[i]
            if top[i]:
                incl[name] = incl.get(name, 0.0) + (end - start)
            attrs_by.setdefault(name, []).append(attrs or {})

    def attrs_of(name):
        return attrs_by.get(name, [])

    m = {}
    for name in calls:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = incl.get(name, 0.0)
        m[f"{name}.self_s"] = excl[name]
    for name in _PEAK_PHASES:
        m[f"{name}.peak_mb"] = max((a.get("peak_mb", 0.0) for a in attrs_of(name)), default=0.0)

    km = attrs_of("kernel.kernel_matrix")
    m["kernel.kernel_matrix.evals"] = sum(a["n"] * a["m"] for a in km)
    m["kernel.kernel_matrix.gflop_computed"] = sum(_kernel_flops(a) for a in km) / 1e9
    m["kernel.kernel_matrix.max_mb"] = max((a["n"] * a["m"] * 8 / MIB for a in km), default=0.0)
    m["kernel.row_sums.evals"] = sum(a["n"] * a["m"] for a in attrs_of("kernel.row_sums"))

    embeds = attrs_of("corpus.embed_documents")
    m["corpus.embed_documents.vocab_used_ratio"] = embeds[0]["vocab_used_ratio"] if embeds else 0.0

    runs = attrs_of("gradopt.lbfgs")
    m["gradopt.lbfgs.nit"] = sum(a["nit"] for a in runs)
    m["gradopt.lbfgs.nfev"] = sum(a["nfev"] for a in runs)
    m["gradopt.lbfgs.capped_ratio"] = sum(a["capped"] for a in runs) / len(runs) if runs else 0.0

    builds = attrs_of("evaluation.build_summary")
    m["evaluation.build_summary.distinct_ratio"] = (
        len({a["key"] for a in builds}) / len(builds) if builds else 0.0
    )

    m["evaluation.run_experiment.worker_idle_frac"] = _worker_idle(trees)
    return m, _detail(trees, m)


def _worker_idle(trees) -> float:
    """1 - cell busy time / (workers x run_experiment wall)."""
    spans = [s for chunk in trees for s in chunk]
    capacity = sum((s[2] - s[1]) * s[4]["workers"] for s in spans if s[0] == "evaluation.run_experiment")
    busy = sum(s[2] - s[1] for s in spans if s[0] == "evaluation.eval_cell")
    return 1.0 - busy / capacity if capacity > 0 else 0.0


def _detail(trees, m) -> dict:
    """Breakdowns that the acceptance counts are read from."""
    cv = []
    lbfgs = {}
    for spans in trees:
        for i, (name, _, _, _, attrs) in enumerate(spans):
            if name == "evaluation.grid_search_cv":
                keys = [s[4]["key"] for s in spans if s[0] == "evaluation.build_summary" and s[3] == i]
                cv.append({**attrs, "builds": len(keys), "distinct": len(set(keys))})
            elif name == "gradopt.lbfgs":
                row = lbfgs.setdefault(attrs.get("method") or "?", {"runs": 0, "capped": 0, "nit": 0, "nfev": 0})
                row["runs"] += 1
                row["capped"] += int(attrs["capped"])
                row["nit"] += attrs["nit"]
                row["nfev"] += attrs["nfev"]
    for row in lbfgs.values():
        row["capped_ratio"] = row["capped"] / row["runs"]
    wall = m.get("cli.main.s", 0.0)
    return {
        "grid_search_cv": cv,
        "lbfgs_by_method": lbfgs,
        "utility_value_share_of_wall": m.get("objectives.utility_value.s", 0.0) / wall if wall else 0.0,
    }


def median_metrics(samples: list[dict], names) -> dict:
    """Median of each named metric over several traced runs (0 when absent)."""
    return {name: statistics.median([s.get(name, 0.0) for s in samples]) for name in names}
