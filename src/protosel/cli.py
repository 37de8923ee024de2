"""Command-line front end.

Subcommands: summarize (select and write per-group prototype files), evaluate
(multi-split classification evaluation: results.csv, summary.txt, and run.json
with the dataset and per-split facts the run used), selftest (built-in oracle
suites).

Configuration comes from an INI-style file (--config) with sections [data],
[run], [grids], [output]. Each key is declared once, as a RunConfig field
naming its section, parser and flag help. Every value except first_sentences
and the [grids] lists (gammas, lambdas, cs), which are set in the file only,
can be overridden on the command line, and the command line wins. evaluate
searches the [grids] lists and rejects gamma and lam; summarize rejects
subsample_train (and --fast), every set [grids] list, and a gamma or lam
that its method does not read, and infers gamma only for a method that
reads it, by evaluate's rule (evaluation.median_heuristic_gamma, whatever
the seed). --fast is --subsample-train 2000, and giving both flags is a
config error. So are corpus or vectors set together with a usps_* key,
and a method, m or classifier list that repeats a value. Two groups whose
sanitized names give one summary file are a data error before summarize
builds or writes anything. summarize hands its header the kernel-sum table
of a build that reads one (Method.reads_table); any other header makes a
pass, after the build, only if it needs one (mmd-diff, lam > 0). main first
sets every bundled OpenBLAS pool to one thread (pin_blas_threads), whatever
the environment says, so workers are the only parallelism. Exit codes: 0
success, 2 config error (also a malformed flag value, an out-of-range or
non-finite one, or a grad_init not in gradopt.INIT_MODES), 3 data error, 4
internal numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import importlib.util
import io
import json
import logging
import math
import re
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import evaluation, gradopt, selftest
from .corpus import (
    SplitPair,
    apply_pca,
    document_tokens,
    embed_documents,
    fit_pca,
    load_corpus,
    load_usps,
    load_usps_pair,
    load_word_vectors,
    make_splits,
)
from .errors import ConfigError, DataError, NumericError, ProtoselError
from .evaluation import Grids, HyperParams, build_summary, run_experiment
from .kernel import KernelSpec, group_sums
from .objectives import utility_value

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# OpenBLAS thread-count setters, in the order tried on each library: numpy's
# ILP64 build and scipy's wheel build rename the symbol, a plain build does not
BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads", "openblas_set_num_threads")

logger = logging.getLogger(__name__)


def _split(kind):
    """Parser of a comma-separated list of kind values, named for argparse errors."""

    def parse(raw):
        return tuple(kind(v.strip()) for v in raw.split(",") if v.strip())

    parse.__name__ = f"{kind.__name__} list"
    return parse


def _key(section, default=None, parse=str, flag=None):
    """One config key: its INI section, the parser of its raw string, and its
    flag help (None for a key set in the config file only)."""
    return field(default=default, metadata={"section": section, "parse": parse, "flag": flag})


@dataclass
class RunConfig:
    """Flat run configuration; see the module docstring for the file format."""

    corpus: str | None = _key("data", flag="JSONL corpus path")
    vectors: str | None = _key("data", flag="word-vector text file")
    usps_train: str | None = _key("data", flag="USPS train file")
    usps_test: str | None = _key("data", flag="USPS test file")
    pca_target: float | None = _key("data", parse=float, flag="PCA variance target in (0, 1]")
    method: tuple[str, ...] = _key("run", ("mmd-diff-grad",), _split(str), "comma-separated method names")
    m: tuple[int, ...] = _key("run", (4,), _split(int), "comma-separated prototype counts")
    splits: int = _key("run", 10, int, "number of train/test splits")
    seed: int = _key("run", 0, int, "base seed")
    workers: int = _key("run", 1, int, "parallel workers (1 = sequential)")
    classifier: tuple[str, ...] = _key("run", ("1nn",), _split(str), "comma-separated classifiers (1nn, svm)")
    grad_init: str = _key("run", "greedy", flag=f"gradient init: {', '.join(gradopt.INIT_MODES)}")
    train_fraction: float = _key("run", 0.8, float, "share of each group's rows in the train side")
    first_sentences: int = _key("run", 3, int)
    gamma: float | None = _key("run", parse=float, flag="kernel bandwidth override")
    lam: float | None = _key("run", parse=float, flag="trade-off weight override")
    subsample_train: int | None = _key("run", parse=int, flag="stratified train subsample size per split")
    gammas: tuple[float, ...] = _key("grids", (), _split(float))
    lambdas: tuple[float, ...] = _key("grids", (), _split(float))
    cs: tuple[float, ...] = _key("grids", (), _split(float))
    out: str = _key("output", "protosel-out", flag="output directory")

    def validate(self):
        for name in ("method", "m", "classifier"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} needs at least one value")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(f"{name} repeats the value {repeated[0]!r}")
        for name in self.method:
            if name not in evaluation.METHODS:
                raise ConfigError(f"unknown method {name!r}; valid: {', '.join(evaluation.METHODS)}")
        for c in self.classifier:
            if c not in evaluation.CLASSIFIERS:
                raise ConfigError(f"unknown classifier {c!r}")
        if self.grad_init not in gradopt.INIT_MODES:
            raise ConfigError(f"unknown grad_init {self.grad_init!r}; valid: {', '.join(gradopt.INIT_MODES)}")
        given = [name for name in ("corpus", "vectors", "usps_train", "usps_test") if getattr(self, name) is not None]
        if len({name.startswith("usps_") for name in given}) > 1:
            raise ConfigError(f"{', '.join(given)} mix a corpus and a USPS dataset; "
                              "set either corpus and vectors or the usps_* keys")
        if self.corpus is None and self.usps_train is None:
            raise ConfigError("no dataset given: set corpus+vectors or usps_train")
        if self.corpus is not None and self.vectors is None:
            raise ConfigError("a corpus needs a vectors file")
        if any(m < 1 for m in self.m):
            raise ConfigError(f"m must be >= 1, got {min(self.m)}")
        if self.splits < 1:
            raise ConfigError("splits must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 0 < self.train_fraction < 1:
            raise ConfigError("train_fraction must be in (0, 1)")
        if self.pca_target is not None and not 0 < self.pca_target <= 1:
            raise ConfigError(f"pca_target must be in (0, 1], got {self.pca_target}")
        if self.first_sentences < 0:
            raise ConfigError(f"first_sentences must be >= 0, got {self.first_sentences}")
        positive = [("gamma", self.gamma), *(("gammas", v) for v in self.gammas),
                    *(("cs", v) for v in self.cs)]
        for name, value in positive:
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        for name, value in [("lam", self.lam), *(("lambdas", v) for v in self.lambdas)]:
            if value is not None and not 0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and nonnegative, got {value}")
        if any(p.exists() and not p.is_dir() for p in (Path(self.out), *Path(self.out).parents)):
            raise ConfigError(f"out {self.out!r} is, or lies under, an existing non-directory")


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    config = RunConfig()
    keys = {f.name: f.metadata for f in fields(RunConfig)}
    sections = {meta["section"] for meta in keys.values()}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in keys or keys[key]["section"] != section:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                setattr(config, key, keys[key]["parse"](raw))
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for {key!r}: {raw!r}") from exc
    return config


def dump_config(config: RunConfig) -> str:
    """Serialize to the INI format; omitted keys carry their defaults."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    for f in fields(config):
        section = f.metadata["section"]
        if not parser.has_section(section):
            parser.add_section(section)
        value = getattr(config, f.name)
        if value is None or value == ():
            continue
        if isinstance(value, tuple):
            rendered = ", ".join(format(v, ".10g") if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            rendered = format(value, ".10g")
        else:
            rendered = str(value)
        parser.set(section, f.name, rendered)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _load_dataset(config: RunConfig):
    """Returns (dataset, docs_by_id or None, canonical_split or None)."""
    if config.corpus is not None:
        docs = load_corpus(config.corpus)
        k = config.first_sentences
        vocab = {t for doc in docs for t in document_tokens(doc, k)}
        vecs = load_word_vectors(config.vectors, vocab)
        data = embed_documents(docs, vecs, first_k_sentences=k)
        return data, {d.id: d for d in docs}, None
    if config.usps_test is not None:
        combined, train_rows, test_rows = load_usps_pair(config.usps_train, config.usps_test)
        return combined, None, (train_rows, test_rows)
    return load_usps(config.usps_train), None, None


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _fmt(x):
    return format(x, ".12g")


def cmd_summarize(config: RunConfig) -> int:
    config.validate()
    if len(config.method) != 1 or len(config.m) != 1:
        raise ConfigError("summarize takes exactly one method and one m")
    if config.subsample_train is not None:
        raise ConfigError("summarize does not take subsample_train (or --fast); "
                          "it subsamples the train splits of evaluate")
    for name in ("gammas", "lambdas", "cs"):
        if getattr(config, name):
            raise ConfigError(f"summarize does not take the [grids] list {name}; evaluate searches it")
    method, m = config.method[0], config.m[0]
    entry = evaluation.METHODS[method]
    for name, used in (("gamma", entry.uses_gamma), ("lam", entry.uses_lam)):
        if getattr(config, name) is not None and not used:
            raise ConfigError(f"method {method!r} does not read {name}")
    data, docs_by_id, _ = _load_dataset(config)
    files = {}
    for name in data.group_names:
        other = files.setdefault(_sanitize(name), name)
        if other != name:
            raise DataError(f"groups {other!r} and {name!r} would both write summary_{_sanitize(name)}.txt")
    if config.pca_target is not None:
        data = apply_pca(fit_pca(data, config.pca_target), data)
    gamma = config.gamma
    if gamma is None and entry.uses_gamma:
        gamma = evaluation.median_heuristic_gamma(data.points)
    params = HyperParams(gamma=gamma, lam=config.lam)
    # one table pass for a build that reads one, shared with the header's
    # objective value, which otherwise makes its own pass only if it needs one
    sums = group_sums(data, KernelSpec(gamma)) if entry.reads_table(config.grad_init) else None
    summary = build_summary(method, data, m, params, seed=config.seed, grad_init=config.grad_init, sums=sums)

    header = [f"# method: {method}", f"# objective: {entry.objective}", f"# optimizer: {entry.optimizer}"]
    if entry.uses_gamma:
        header.append(f"# gamma: {_fmt(gamma)}")
    if entry.kind is not None:
        spec = evaluation.objective_spec(entry, params)
        header.append(f"# lambda: {_fmt(spec.lam)}")
        header.append(f"# objective_value: {_fmt(utility_value(spec, summary, data, sums))}")

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    for g, name in enumerate(data.group_names):
        lines = [f"# group: {name}", *header, f"# selected: {len(summary.prototypes[g])}"]
        for row in summary.prototypes[g]:
            if docs_by_id is not None:
                doc = docs_by_id[data.row_ids[row]]
                lines.append(f"{doc.id}\t{doc.group}\t{doc.title}")
                for sentence in doc.sentences[: config.first_sentences]:
                    lines.append(f"    {sentence}")
            else:
                lines.append(f"row {row}")
        path = out / f"summary_{_sanitize(name)}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def _subsample_split(split: SplitPair, n: int) -> SplitPair:
    """Stratified proportional subsample of the train side, at least one row
    per group; deterministic given the split seed."""
    train = split.train
    if n < train.n_groups:
        raise ConfigError(f"subsample_train {n} is below the {train.n_groups} train groups")
    if train.n_points <= n:
        return split
    sizes = train.group_sizes()
    counts = np.maximum(1, np.floor(n * sizes / train.n_points).astype(int))
    while counts.sum() > n:
        counts[int(np.argmax(counts))] -= 1
    rng = np.random.Generator(np.random.PCG64(split.seed))
    rows = []
    for g in range(train.n_groups):
        take = rng.choice(train.group_index[g].size, size=int(counts[g]), replace=False)
        rows.append(train.group_index[g][np.sort(take)])
    return SplitPair(train=train.subset(np.concatenate(rows)), test=split.test, seed=split.seed)


def _pca_split(split: SplitPair, target: float) -> SplitPair:
    model = fit_pca(split.train, target)
    return SplitPair(
        train=apply_pca(model, split.train), test=apply_pca(model, split.test), seed=split.seed
    )


def _run_facts(data, docs_by_id, splits) -> str:
    """run.json: the dataset and each split as evaluate used them; every list
    of sizes follows the order of "groups"."""
    facts = {
        "data": {"points": data.n_points, "dim": data.dim, "groups": list(data.group_names),
                 "sizes": data.group_sizes().tolist()},
        "splits": [{"seed": s.seed, "train_sizes": s.train.group_sizes().tolist(),
                    "test_sizes": s.test.group_sizes().tolist(), "dim": s.train.dim}
                   for s in splits],
    }
    if docs_by_id is not None:
        facts["data"]["dropped_documents"] = len(docs_by_id) - data.n_points
    return json.dumps(facts, indent=2, sort_keys=True) + "\n"


def cmd_evaluate(config: RunConfig) -> int:
    config.validate()
    for name, grid in (("gamma", "gammas"), ("lam", "lambdas")):
        if getattr(config, name) is not None:
            raise ConfigError(f"evaluate does not take {name}; set the [grids] {grid} list")
    data, docs_by_id, canonical = _load_dataset(config)
    splits = make_splits(
        data, config.train_fraction, config.splits, config.seed, first_split=canonical
    )
    if config.pca_target is not None:
        splits = [_pca_split(s, config.pca_target) for s in splits]
    if config.subsample_train is not None:
        splits = [_subsample_split(s, config.subsample_train) for s in splits]
    # an unset gamma grid is filled per split from that split's train set
    base = Grids()
    grids = Grids(
        gammas=config.gammas or None, lams=config.lambdas or base.lams, Cs=config.cs or base.Cs
    )
    reports = run_experiment(
        splits,
        methods=list(config.method),
        m_list=list(config.m),
        classifiers=list(config.classifier),
        grids=grids,
        grad_init=config.grad_init,
        workers=config.workers,
    )
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "results.csv").write_text(evaluation.reports_to_csv(reports), encoding="utf-8")
    (out / "summary.txt").write_text(evaluation.reports_to_text(reports), encoding="utf-8")
    (out / "run.json").write_text(_run_facts(data, docs_by_id, splits), encoding="utf-8")
    return EXIT_OK


def cmd_selftest() -> int:
    results = selftest.run_all()
    failed = False
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        failed = failed or not ok
    return EXIT_NUMERIC if failed else EXIT_OK


def _add_common(parser):
    parser.add_argument("--config", help="INI config file")
    for f in fields(RunConfig):
        if f.metadata["flag"] is not None:
            parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                                type=f.metadata["parse"], help=f.metadata["flag"])
    parser.add_argument("--fast", action="store_true", help="subsample each train split to 2000 points")


def _merge_cli(config: RunConfig, args) -> RunConfig:
    updates = {f.name: getattr(args, f.name) for f in fields(RunConfig)
               if getattr(args, f.name, None) is not None}
    if getattr(args, "fast", False):
        if "subsample_train" in updates:
            raise ConfigError("--fast and --subsample-train cannot be given together")
        updates["subsample_train"] = 2000
    return replace(config, **updates)


def pin_blas_threads():
    """Set every OpenBLAS pool bundled in the numpy.libs and scipy.libs
    directories to one thread, through the first of BLAS_SETTERS that each
    library exports, and log a warning if no pool is found. Process-pool
    workers forked afterwards inherit the setting."""
    pinned = 0
    for package in ("numpy", "scipy"):
        libs = Path(importlib.util.find_spec(package).origin).parents[1] / f"{package}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            setter = next((getattr(lib, name) for name in BLAS_SETTERS if hasattr(lib, name)), None)
            if setter is not None:
                setter(1)
                pinned += 1
    if not pinned:
        logger.warning("no OpenBLAS pool found in numpy.libs or scipy.libs; BLAS threads are not pinned")


def main(argv=None) -> int:
    pin_blas_threads()
    parser = argparse.ArgumentParser(prog="protosel",
                                     description="Comparative summarisation of grouped datasets")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("summarize", "evaluate"):
        _add_common(sub.add_parser(name))
    sub.add_parser("selftest")
    args = parser.parse_args(argv)

    try:
        if args.command == "selftest":
            return cmd_selftest()
        config = load_config(args.config) if args.config else RunConfig()
        config = _merge_cli(config, args)
        if args.command == "summarize":
            return cmd_summarize(config)
        return cmd_evaluate(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ProtoselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
