"""Property tests: greedy caches, snap, the config file round trip and the splits."""

import numpy as np
import pytest
from conftest import caches_hold

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from protosel.cli import RunConfig, dump_config, load_config  # noqa: E402
from protosel.corpus import from_rows, make_splits  # noqa: E402
from protosel.gradopt import snap  # noqa: E402
from protosel.greedy import GreedyState  # noqa: E402
from protosel.kernel import KernelSpec  # noqa: E402
from protosel.objectives import MetaPrototypes, ObjectiveSpec  # noqa: E402
from protosel.selftest import random_grouped  # noqa: E402

SETTINGS = settings(max_examples=50, deadline=None)


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["nn", "mmd-diff", "mmd-div"]),
    lam=st.floats(0.0, 2.0),
    gamma=st.floats(0.05, 2.0),
    sizes=st.lists(st.integers(1, 7), min_size=2, max_size=4),
    share=st.floats(0.0, 1.0),
)
def test_greedy_caches_hold_after_random_adds(seed, kind, lam, gamma, sizes, share):
    data = random_grouped(seed, groups=len(sizes), n_per_group=sizes)
    state = GreedyState(data, ObjectiveSpec(kind, KernelSpec(gamma), lam), None)
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(data.n_points)
    for row in order[: int(share * data.n_points)]:
        state.add(int(row))
        assert caches_hold(state)


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    share=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    coincide=st.booleans(),
)
@example(seed=0, sizes=[3, 1, 4, 2], share=[1.0] * 4, coincide=True)
def test_snap_picks_distinct_rows_of_each_group(seed, sizes, share, coincide):
    data = random_grouped(seed, groups=len(sizes), n_per_group=sizes)
    rng = np.random.Generator(np.random.PCG64(seed))
    # M per group from 1 up to the group size; coincident meta points all sit
    # on one row of the group, so every later one finds its nearest row taken
    counts = [1 + round(f * (n - 1)) for f, n in zip(share, sizes)]
    meta = []
    for g, m in enumerate(counts):
        if coincide:
            meta.append(np.repeat(data.group_points(g)[:1], m, axis=0))
        else:
            meta.append(rng.normal(size=(m, data.dim)))
    summary = snap(MetaPrototypes(points=tuple(meta)), data)
    for g, m in enumerate(counts):
        rows = summary.prototypes[g]
        assert len(rows) == m == len(set(rows))
        assert set(rows) <= set(data.group_index[g].tolist())


# text that the INI file keeps as written ('%' included): no commas or edge whitespace
_word = st.text("abcxyz019._-/%", min_size=1, max_size=8)
# floats with at most 7 significant digits, which the 10-digit dump keeps
_float = st.integers(-10**6, 10**6).map(lambda i: i / 1000)


@SETTINGS
@given(
    st.builds(
        RunConfig,
        corpus=st.none() | _word,
        vectors=st.none() | _word,
        usps_train=st.none() | _word,
        usps_test=st.none() | _word,
        pca_target=st.none() | _float,
        method=st.lists(_word, min_size=1, max_size=3).map(tuple),
        m=st.lists(st.integers(-50, 50), min_size=1, max_size=3).map(tuple),
        splits=st.integers(-5, 50),
        seed=st.integers(-(2**40), 2**40),
        workers=st.integers(0, 8),
        classifier=st.lists(_word, min_size=1, max_size=2).map(tuple),
        grad_init=_word,
        train_fraction=_float,
        first_sentences=st.integers(0, 9),
        gamma=st.none() | _float,
        lam=st.none() | _float,
        subsample_train=st.none() | st.integers(0, 10**6),
        gammas=st.lists(_float, max_size=3).map(tuple),
        lambdas=st.lists(_float, max_size=3).map(tuple),
        cs=st.lists(_float, max_size=3).map(tuple),
        out=_word,
    )
)
def test_config_file_round_trip(tmp_path_factory, config):
    path = tmp_path_factory.mktemp("ini") / "run.ini"
    path.write_text(dump_config(config))
    assert load_config(path) == config


@SETTINGS
@given(
    sizes=st.lists(st.integers(2, 9), min_size=1, max_size=4),
    fraction=st.floats(0.05, 0.95),
    n_splits=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_splits_partition_rows_and_keep_every_group(sizes, fraction, n_splits, seed):
    labels = [f"g{g}" for g, n in enumerate(sizes) for _ in range(n)]
    data = from_rows(np.arange(len(labels), dtype=float)[:, None], labels)
    for split in make_splits(data, fraction, n_splits, seed):
        # each point is its own row index
        train = split.train.points[:, 0].astype(int)
        test = split.test.points[:, 0].astype(int)
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(data.n_points))
        assert split.train.group_names == split.test.group_names == data.group_names
        assert data.group_of[train].tolist() == split.train.group_of.tolist()
        assert data.group_of[test].tolist() == split.test.group_of.tolist()
