"""Tree linear cascade models: fitting, simulation, verification, export.

A tree linear cascade is a linear structural equation model whose graph is
a rooted tree and whose error components are merely uncorrelated.  The
undirected tree is recoverable as the maximum spanning tree of the
complete graph weighted by squared pairwise correlations, and the same
tree solves the Gaussian pairwise-MI approximation problem.

The names below are the public API; internals live in the submodules.
"""

from .cascade import (
    CascadeModel,
    get_sampler,
    make_unit_variance_model,
    population_covariance,
    random_unit_variance_model,
    reroot,
    simulate,
    verify_covariance_lemmas,
)
from .chowliu import correspondence_check
from .dataio import Dataset, load_csv, load_fit, sample_prices_path, save_csv, save_fit
from .errors import (
    DataError,
    DegeneracyError,
    InvalidInputError,
    SchemaError,
    TreeCascadeError,
    UnsupportedModelError,
)
from .regression import (
    CorrelationSummary,
    FitResult,
    correlation_from_covariance,
    correlation_from_dataset,
    empirical_fit,
    fit_cascade,
)
from .trees import (
    RootedTree,
    Tree,
    WeightedGraph,
    cluster_by_edge_deletion,
    maximum_spanning_tree,
    mst_is_unique,
    root_tree,
)

__version__ = "0.1.0"
