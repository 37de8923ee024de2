"""Comparative summarisation of grouped datasets via prototype selection.

Select M prototypes per group that cover their own group while discriminating
against the others, using kernel-MMD and nearest-neighbour objectives with
greedy or gradient-based optimisation, and evaluate summary quality as a
classification task.
"""

from .corpus import (
    Document,
    GroupedDataset,
    PcaModel,
    SplitPair,
    apply_pca,
    embed_documents,
    fit_pca,
    from_rows,
    load_corpus,
    load_usps,
    load_word_vectors,
    make_splits,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateDataError,
    NumericError,
    ParseError,
    ProtoselError,
    ValidationError,
)
from .kernel import KernelSpec, group_sums, kernel_matrix, median_gamma
from .objectives import (
    MetaPrototypes,
    ObjectiveSpec,
    Summary,
    mmd2,
    snap,
    utility_value,
)
from .greedy import GreedyState, greedy_select
from .gradopt import GradConfig, gradient_summary, optimize_meta
from .baselines import (
    ClusterModel,
    kmeans_summary,
    kmeanspp_init,
    kmedoids_summary,
    lloyd,
    mmd_critic_summary,
)
from .evaluation import (
    EvalReport,
    Grids,
    HyperParams,
    LabeledPrototypeSet,
    SvmModel,
    balanced_accuracy,
    build_summary,
    grid_search_cv,
    run_experiment,
    svm_train,
)

__version__ = "0.1.0"
