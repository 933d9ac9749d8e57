"""Gaussian tree approximation via pairwise mutual information.

For a zero-mean Gaussian, the divergence between a pair's joint and the
product of its marginals has the closed form -1/2 log(1 - rho^2).  The
best tree-factoring approximation (minimum divergence) is the maximum
spanning tree under those pairwise weights.  Because that weight is a
strictly increasing function of the squared correlation, the tree agrees
with the one cascade regression selects; ``correspondence_check`` makes
the agreement observable edge by edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InvalidInputError
from .regression import CorrelationSummary, correlation_from_covariance, fit_cascade
from .trees import Tree, WeightedGraph, maximum_spanning_tree


@dataclass(frozen=True)
class GaussianSummary:
    """Zero-mean Gaussian described by its positive-definite covariance.

    Input is symmetrized (averaging tiny numerical asymmetry) and positive
    definiteness is checked by attempting a Cholesky factorization.
    """

    covariance: np.ndarray

    def __post_init__(self) -> None:
        cov = np.array(self.covariance, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or not cov.size:
            raise InvalidInputError(f"covariance must be square and non-empty, got shape {cov.shape}")
        if not np.isfinite(cov).all():
            raise InvalidInputError("covariance contains non-finite entries")
        cov = (cov + cov.T) / 2.0
        if not (np.diag(cov) > 0.0).all():
            raise InvalidInputError("covariance diagonal must be strictly positive")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise InvalidInputError("covariance is not positive definite") from None
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)

    @property
    def d(self) -> int:
        return self.covariance.shape[0]


def mutual_information_weights(c: CorrelationSummary) -> np.ndarray:
    """Pairwise mutual information -1/2 log(1 - rho^2) as a symmetric matrix.

    Nonnegative, zero exactly for uncorrelated pairs, strictly increasing
    in the squared correlation, and zero on the diagonal.  A pair with
    ``|rho| = 1`` has no finite weight; the first one in row-major
    upper-triangle order raises.
    """
    degenerate = np.argwhere(np.triu(np.abs(c.corr) == 1.0, 1))
    if degenerate.size:
        i, j = degenerate[0]
        raise DegeneracyError(f"components {i} and {j} are perfectly correlated")
    i, j = np.triu_indices(c.d, 1)
    rho = c.corr[i, j]
    # math.log1p, not np.log1p: numpy's SIMD log1p differs from the C
    # library's in the last bit for some inputs, which could move ties.
    log1p = np.fromiter(map(math.log1p, (-rho * rho).tolist()), float, count=rho.size)
    mi = np.zeros((c.d, c.d))
    mi[i, j] = mi[j, i] = -0.5 * log1p
    return mi


@dataclass(frozen=True)
class CorrespondenceReport:
    """Side-by-side result of the two tree selections on one Gaussian.

    ``edge_pairs`` lists, per edge of the approximator tree, the squared
    correlation and its mutual-information image under the increasing map
    w -> -1/2 log(1 - w); equal trees with matching monotone weights are
    the expected outcome.
    """

    approximator_tree: Tree
    cascade_tree: Tree
    trees_equal: bool
    approximator_unique: bool
    cascade_unique: bool
    edge_pairs: tuple[tuple[tuple[int, int], float, float], ...]

    @property
    def tie_detected(self) -> bool:
        return not (self.approximator_unique and self.cascade_unique)


def correspondence_check(s: GaussianSummary) -> CorrespondenceReport:
    """Run both tree selections and report whether they coincide.

    Inequality is reported, not raised.  Non-unique maxima on either side
    are surfaced so callers can flag ties.
    """
    corr = correlation_from_covariance(s.covariance)
    mi = mutual_information_weights(corr)
    approx = maximum_spanning_tree(WeightedGraph.from_matrix(mi))
    fit = fit_cascade(corr)
    pairs = []
    for i, j in approx.tree.sorted_edges():
        rho = float(corr.corr[i, j])
        pairs.append(((i, j), rho * rho, float(mi[i, j])))
    return CorrespondenceReport(
        approximator_tree=approx.tree,
        cascade_tree=fit.tree,
        trees_equal=approx.tree.edges == fit.tree.edges,
        approximator_unique=approx.is_unique,
        cascade_unique=fit.tree_unique,
        edge_pairs=tuple(pairs),
    )
