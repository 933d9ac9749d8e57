"""Tree linear cascade models: fitting, simulation, verification, export.

A tree linear cascade is a linear structural equation model whose graph is
a rooted tree and whose error components are merely uncorrelated.  The
undirected tree is recoverable as the maximum spanning tree of the
complete graph weighted by squared pairwise correlations, and the same
tree solves the Gaussian pairwise-MI approximation problem.
"""

from .cascade import (
    BUILTIN_SAMPLERS,
    CascadeModel,
    LemmaCheck,
    LemmaReport,
    cascade_inverse,
    coefficient_matrix,
    get_sampler,
    make_unit_variance_model,
    population_covariance,
    random_unit_variance_model,
    reroot,
    simulate,
    verify_covariance_lemmas,
)
from .chowliu import (
    CorrespondenceReport,
    GaussianSummary,
    correspondence_check,
    mutual_information_weights,
)
from .dataio import (
    Dataset,
    document_to_fit,
    fit_to_document,
    load_csv,
    load_document,
    load_fit,
    model_from_document,
    price_changes,
    sample_prices_path,
    save_csv,
    save_fit,
    standardize,
)
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
    objective_value,
    optimal_coefficients,
    squared_correlation_graph,
)
from .trees import (
    CANONICAL_EDGE_ORDER,
    MstResult,
    RootedTree,
    Tree,
    WeightedGraph,
    canonical_edge,
    check_strict_triangle_condition,
    cluster_by_edge_deletion,
    maximum_spanning_tree,
    mst_is_unique,
    random_tree,
    root_tree,
)

__version__ = "0.1.0"
