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
from .regression import CorrelationSummary, squared_correlation_graph
from .trees import RootedTree, Tree, WeightedGraph, maximum_spanning_tree


def mutual_information_weights(c: CorrelationSummary) -> np.ndarray:
    """Pairwise mutual information -1/2 log(1 - rho^2) as a symmetric matrix.

    Nonnegative, zero exactly for uncorrelated pairs, strictly increasing
    in the squared correlation, and zero on the diagonal.  A pair with
    ``|rho| = 1`` has no finite weight; the first one in row-major
    upper-triangle order raises.
    """
    i, j = np.triu_indices(c.d, 1)
    mi = np.zeros((c.d, c.d))
    step = 4096  # pairs per chunk, in row-major upper-triangle order: each Python float takes 32 bytes
    for start in range(0, i.size, step):
        ci, cj = i[start : start + step], j[start : start + step]
        rho = c.corr[ci, cj]
        degenerate = np.flatnonzero(np.abs(rho) == 1.0)
        if degenerate.size:
            k = degenerate[0]
            raise DegeneracyError(f"components {ci[k]} and {cj[k]} are perfectly correlated")
        # math.log1p, not np.log1p: numpy's SIMD log1p differs from the C
        # library's in the last bit for some inputs, which could move ties.
        log1p = np.fromiter(map(math.log1p, (-rho * rho).tolist()), float, count=rho.size)
        mi[ci, cj] = mi[cj, ci] = -0.5 * log1p
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


def correspondence_check(
    c: CorrelationSummary, *, candidate: RootedTree | None = None
) -> CorrespondenceReport:
    """Run both tree selections on a Gaussian's correlations and report whether they coincide.

    Both trees depend on the correlations alone.  The Gaussian must be
    nondegenerate: a correlation matrix that is not positive definite is
    an error.  Inequality is reported, not raised.  Non-unique maxima on
    either side are surfaced so callers can flag ties.  The
    squared-correlation tree comes first, from ``candidate`` when that
    certifies as its unique maximum, and is then the candidate for the
    mutual-information tree, so a search runs only where a certificate
    fails; the report is the same with or without a candidate.
    """
    try:
        np.linalg.cholesky(c.corr)
    except np.linalg.LinAlgError:
        raise InvalidInputError("covariance is not positive definite") from None
    # one weight matrix at a time: the squared correlations' graph goes before the MI weights come
    cascade = maximum_spanning_tree(squared_correlation_graph(c), candidate=candidate)
    mi = WeightedGraph._adopt(mutual_information_weights(c))
    approx = maximum_spanning_tree(mi, candidate=cascade.rooted)
    pairs = []
    for i, j in approx.tree.sorted_edges():
        rho = float(c.corr[i, j])
        pairs.append(((i, j), rho * rho, mi.weight(i, j)))
    return CorrespondenceReport(
        approximator_tree=approx.tree,
        cascade_tree=cascade.tree,
        trees_equal=approx.tree.edges == cascade.tree.edges,
        approximator_unique=approx.is_unique,
        cascade_unique=cascade.is_unique,
        edge_pairs=tuple(pairs),
    )
