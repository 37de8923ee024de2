"""protosel benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload usps-1nn --seed 1 --seconds 20 --trace 0

The run generates its inputs from --seed, then repeats the workload's CLI
command, each time as a fresh process and one at a time (a closed loop with
one client), until --seconds have passed. Every repetition's outputs are
checked. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones (medians over repetitions); with --trace 1 untraced and
traced repetitions alternate, and the metrics are the per-layer ones
(medians over traced repetitions) plus the tracing overhead.

All files go to .perfbench-work/ under the repository root; the inputs and
outputs of a run are deleted when it ends (the outputs and logs of a run with
failed repetitions are kept), and a JSON record of the run
(environment, input sizes and digests, every repetition) is kept in
.perfbench-work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer  # noqa: E402

# BLAS/OpenMP threads per process; every workload runs at most nproc
# processes at once, so workers x threads <= nproc on a 2-core machine.
THREADS = 1
REP_TIMEOUT_S = 120.0
# USPS-shaped data keeps the USPS class proportions at a third of its size,
# so that a repetition of each workload takes a few seconds.
USPS_SCALE = 3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "quality": "score",
    "distinct_outputs": "count",
}

PER_LAYER = {
    "cli.main.s": "s",
    "trace.overhead_ratio": "ratio",
    "corpus.load_word_vectors.s": "s",
    "corpus.embed_documents.s": "s",
    "corpus.embed_documents.vocab_used_ratio": "ratio",
    "corpus.load_usps.s": "s",
    "corpus.fit_pca.s": "s",
    "corpus.make_splits.s": "s",
    "corpus.subset.calls": "count",
    "corpus.subset.s": "s",
    "kernel.kernel_matrix.calls": "count",
    "kernel.kernel_matrix.self_s": "s",
    "kernel.kernel_matrix.evals": "count",
    "kernel.kernel_matrix.gflop_computed": "GFLOP",
    "kernel.kernel_matrix.max_mb": "MiB",
    "kernel.row_sums.calls": "count",
    "kernel.row_sums.self_s": "s",
    "kernel.row_sums.evals": "count",
    "kernel.median_gamma.calls": "count",
    "kernel.median_gamma.self_s": "s",
    "greedy.GreedyState.init.s": "s",
    "greedy.GreedyState.init.peak_mb": "MiB",
    "greedy.GreedyState.gains.calls": "count",
    "greedy.GreedyState.gains.self_s": "s",
    "greedy.GreedyState.add.calls": "count",
    "greedy.greedy_select.calls": "count",
    "greedy.greedy_select.s": "s",
    "gradopt.optimize_meta.calls": "count",
    "gradopt.optimize_meta.s": "s",
    "gradopt.lbfgs.s": "s",
    "gradopt.lbfgs.nit": "count",
    "gradopt.lbfgs.nfev": "count",
    "gradopt.lbfgs.capped_ratio": "ratio",
    "gradopt.snap.calls": "count",
    "gradopt.snap.self_s": "s",
    "baselines.mmd_critic_summary.s": "s",
    "baselines.mmd_critic_summary.peak_mb": "MiB",
    "baselines.kmedoids_summary.s": "s",
    "baselines.kmedoids_summary.peak_mb": "MiB",
    "baselines.lloyd.calls": "count",
    "baselines.lloyd.self_s": "s",
    "objectives.utility_value.calls": "count",
    "objectives.utility_value.s": "s",
    "objectives.utility_value.peak_mb": "MiB",
    "objectives.mmd2.calls": "count",
    "objectives.mmd2.self_s": "s",
    "evaluation.grid_search_cv.calls": "count",
    "evaluation.grid_search_cv.s": "s",
    "evaluation.build_summary.calls": "count",
    "evaluation.build_summary.s": "s",
    "evaluation.build_summary.distinct_ratio": "ratio",
    "evaluation.svm_train.calls": "count",
    "evaluation.svm_train.self_s": "s",
    "evaluation.SvmModel.predict.s": "s",
    "evaluation.knn1_predict_batch.calls": "count",
    "evaluation.knn1_predict_batch.self_s": "s",
    "evaluation.default_grids.s": "s",
    "evaluation.run_experiment.s": "s",
    "evaluation.run_experiment.worker_idle_frac": "ratio",
}


@dataclass(frozen=True)
class Workload:
    data: str                    # "usps" or "news"
    command: str                 # CLI subcommand
    methods: tuple[str, ...]
    m: int
    classifier: str = "1nn"
    splits: int = 1
    workers: int = 1
    options: tuple[str, ...] = ()
    docs: int = 0                # news corpus size
    groups: int = 0              # news month groups

    def argv(self, inputs: dict, out: Path) -> list[str]:
        data = [f"--{k.replace('_', '-')}={v}" for k, v in sorted(inputs["paths"].items())]
        args = [self.command, *data, "--method", ",".join(self.methods), "--m", str(self.m)]
        if self.command == "evaluate":
            args += ["--classifier", self.classifier, "--splits", str(self.splits),
                     "--workers", str(self.workers)]
        return args + list(self.options) + ["--out", str(out)]


WORKLOADS = {
    "usps-1nn": Workload(
        data="usps", command="evaluate", m=16,
        methods=("mmd-diff-greedy", "mmd-critic", "kmeans", "kmedoids"),
        options=("--pca-target", "0.85"),
    ),
    "usps-grad": Workload(
        data="usps", command="evaluate", m=4, splits=2, workers=2,
        methods=("mmd-diff-grad", "mmd-div-grad"),
        options=("--pca-target", "0.85", "--subsample-train", "500"),
    ),
    "news-svm": Workload(
        data="news", command="evaluate", m=4, classifier="svm", docs=1200, groups=8,
        methods=("kmeans", "mmd-diff-greedy"),
        options=("--train-fraction", "0.5"),
    ),
    "news-summarize": Workload(
        data="news", command="summarize", m=8, docs=2400, groups=12,
        methods=("mmd-diff-grad",),
    ),
}


class OutputError(Exception):
    """A repetition's outputs break the workload's contract."""


# ---------------------------------------------------------------- inputs


def make_inputs(w: Workload, seed: int, outdir: Path) -> dict:
    if w.data == "usps":
        train = tuple(round(c / USPS_SCALE) for c in gen.USPS_TRAIN_COUNTS)
        test = tuple(round(c / USPS_SCALE) for c in gen.USPS_TEST_COUNTS)
        info = gen.write_usps(outdir, seed, train, test)
        info["pca_d"] = _pca_dim(info["paths"]["usps_train"])
        return info
    info = gen.write_news(outdir, seed, n_docs=w.docs, n_groups=w.groups)
    info["pca_d"] = None
    return info


def _pca_dim(train_path) -> int:
    """Components the program keeps at PCA 0.85 on the canonical train side."""
    from protosel.corpus import fit_pca, load_usps

    return fit_pca(load_usps(train_path), 0.85).n_components


# ---------------------------------------------------------------- checks


def check_evaluate(w: Workload, out: Path) -> tuple[float, str]:
    """Validate results.csv; returns (mean of the mean rows, sha256)."""
    path = out / "results.csv"
    if not path.is_file():
        raise OutputError("results.csv missing")
    data = path.read_bytes()
    lines = data.decode("utf-8").splitlines()
    if lines[:1] != ["method,M,classifier,split,gamma,lambda,C,balanced_accuracy"]:
        raise OutputError("results.csv header differs")
    expected = [
        (method, str(w.m), w.classifier, split)
        for method in w.methods
        for split in [*map(str, range(w.splits)), "mean"]
    ]
    rows = [line.split(",") for line in lines[1:]]
    if [tuple(r[:4]) for r in rows] != expected:
        raise OutputError(f"results.csv rows {[r[:4] for r in rows]} != expected {expected}")
    means, splits = [], []
    for r in rows:
        acc = float(r[7])
        if not (math.isfinite(acc) and 0.0 <= acc <= 1.0):
            raise OutputError(f"accuracy {r[7]!r} out of range")
        if r[3] == "mean":
            if abs(acc - statistics.fmean(splits)) > 1e-5:
                raise OutputError(f"mean row {acc} disagrees with its splits {splits}")
            means.append(acc)
            splits = []
        else:
            splits.append(acc)
    return statistics.fmean(means), hashlib.sha256(data).hexdigest()


def check_summarize(w: Workload, out: Path, inputs: dict) -> tuple[float, str]:
    """Every group file holds M distinct documents of that group and one
    shared finite objective value; returns (objective value, sha256)."""
    group_of = inputs["group_of"]
    groups = sorted(set(group_of.values()))
    files = sorted(p.name for p in out.iterdir())
    if files != [f"summary_{g}.txt" for g in groups]:
        raise OutputError(f"summary files {files} do not match groups {groups}")
    digest = hashlib.sha256()
    values = set()
    for g in groups:
        data = (out / f"summary_{g}.txt").read_bytes()
        digest.update(g.encode() + b"\0" + data)
        ids = []
        for line in data.decode("utf-8").splitlines():
            if line.startswith("# objective_value: "):
                values.add(float(line.split(": ", 1)[1]))
            elif line and not line.startswith(("#", " ")):
                doc_id, doc_group = line.split("\t")[:2]
                if doc_group != g or group_of.get(doc_id) != g:
                    raise OutputError(f"{doc_id} listed under {g}")
                ids.append(doc_id)
        if len(ids) != w.m or len(set(ids)) != w.m:
            raise OutputError(f"group {g} lists {len(ids)} rows ({len(set(ids))} distinct), expected {w.m}")
    if len(values) != 1 or not math.isfinite(next(iter(values))):
        raise OutputError(f"objective values {values}")
    return values.pop(), digest.hexdigest()


# ---------------------------------------------------------------- runs


@dataclass
class Rep:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    setup_s: float | None = None
    main_s: float | None = None   # process start until the CLI returned
    quality: float | None = None
    digest: str | None = None
    error: str | None = None
    layers: dict | None = None
    detail: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def _stop_group(pgid: int) -> None:
    """Kill what is left of a repetition's process group and wait for it."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_rep(w: Workload, inputs: dict, work: Path, k: int, traced: bool) -> Rep:
    out = work / f"out-{k}"
    report = work / f"report-{k}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(report)]
    if traced:
        spill = work / f"spans-{k}"
        spill.mkdir()
        cmd += ["--trace", str(spill)]
    cmd += ["--", *w.argv(inputs, out)]
    with open(work / f"log-{k}.txt", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        killer = threading.Timer(REP_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    rep = Rep(traced=traced, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
              peak_rss_mb=usage.ru_maxrss / 1024.0, exit_code=proc.returncode)
    try:
        if proc.returncode != 0:
            raise OutputError(f"exit code {proc.returncode}")
        rec = json.loads(report.read_text())
        if rec.get("setup_at") is None:
            raise OutputError("the CLI never reached run_experiment or build_summary")
        rep.setup_s = rec["setup_at"] - t0
        rep.main_s = rec["done_at"] - t0
        rep.layers, rep.detail = rec.get("layers"), rec.get("detail")
        if w.command == "evaluate":
            rep.quality, rep.digest = check_evaluate(w, out)
        else:
            rep.quality, rep.digest = check_summarize(w, out, inputs)
    except (OutputError, OSError, ValueError, KeyError) as exc:
        rep.error = f"{type(exc).__name__}: {exc}"
    return rep


def run_reps(w: Workload, inputs: dict, work: Path, seconds: float, trace: bool) -> list[Rep]:
    """Closed loop: start another repetition while at least half a typical
    one fits in the time left. Trace mode alternates untraced and traced
    repetitions and runs at least one of each."""
    reps: list[Rep] = []
    start = time.monotonic()
    while True:
        reps.append(run_rep(w, inputs, work, len(reps), traced=trace and len(reps) % 2 == 1))
        typical = statistics.median(r.wall_s for r in reps)
        enough = not trace or len(reps) >= 2
        if enough and time.monotonic() - start + typical / 2 >= seconds:
            return reps


# ---------------------------------------------------------------- results


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(reps: list[Rep]) -> dict:
    good = [r for r in reps if r.ok] or reps
    return {
        "wall_s": _median(r.wall_s for r in good),
        "setup_s": _median(r.setup_s for r in good),
        "cpu_s": _median(r.cpu_s for r in good),
        "peak_rss_mb": _median(r.peak_rss_mb for r in good),
        "quality": _median(r.quality for r in good),
        "distinct_outputs": len({r.digest for r in reps if r.ok}),
    }


def per_layer(reps: list[Rep]) -> tuple[dict, dict | None]:
    traced = [r for r in reps if r.traced and r.ok and r.layers is not None]
    untraced = [r.main_s for r in reps if not r.traced and r.ok]
    names = [n for n in PER_LAYER if n != "trace.overhead_ratio"]
    values = tracer.median_metrics([r.layers for r in traced], names) if traced else dict.fromkeys(names, 0.0)
    # Compared up to the CLI's return, so the child's span analysis is not counted.
    overhead = _median(r.main_s for r in traced) / statistics.median(untraced) - 1.0 if traced and untraced else 0.0
    values["trace.overhead_ratio"] = overhead
    return {n: values[n] for n in PER_LAYER}, (traced[0].detail if traced else None)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads_per_process": THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "protosel" / "cli.py").is_file():
        print(f"protosel sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    w = WORKLOADS[args.workload]
    base = ROOT / ".perfbench-work"
    work = base / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures: list = []
    try:
        inputs = make_inputs(w, args.seed, work / "inputs")
        reps = run_reps(w, inputs, work, args.seconds, bool(args.trace))
        failures = [r.error for r in reps if not r.ok]
        if failures:
            print(f"failed repetitions: {failures}; logs in {work}")
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)
        if not failures:
            shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(reps)
    correct = not failures and e2e["distinct_outputs"] == 1
    detail = None
    if args.trace:
        values, detail = per_layer(reps)
        units = PER_LAYER
    else:
        values, units = e2e, END_TO_END
    for r in reps:
        status = "ok" if r.ok else r.error
        print(f"{'traced' if r.traced else 'plain':6s} wall {r.wall_s:8.3f} s  setup "
              f"{(r.setup_s or 0.0):7.3f} s  cpu {r.cpu_s:8.3f} s  rss {r.peak_rss_mb:7.1f} MiB  "
              f"quality {(r.quality or 0.0):.6f}  {status}")
    for name, value in values.items():
        print(f"{name:45s} {value:16.6g} {units[name]}")
    # fail_frac is carried by failed/attempted, and quality has a name per command.
    print(f"{'fail_frac':45s} {len(failures) / len(reps):16.6g} ratio")
    alias = "bal_acc_mean" if w.command == "evaluate" else "summary_utility"
    print(f"{alias:45s} {e2e['quality']:16.6g} score")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "workers": w.workers, "argv": w.argv(inputs, Path("OUT")),
        "inputs": {k: v for k, v in inputs.items() if k not in ("paths", "group_of")},
        "reps": [{k: v for k, v in vars(r).items() if k not in ("layers", "detail")} for r in reps],
        "detail": detail,
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print("record " + json.dumps(record["environment"] | {"inputs": record["inputs"]}, default=str))
    if detail is not None:
        print("detail " + json.dumps(detail))
    result = {
        "correct": correct,
        "attempted": len(reps),
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
