"""Gaussian tree approximation via pairwise mutual information.

For a zero-mean Gaussian, the divergence between a pair's joint and the
product of its marginals has the closed form -1/2 log(1 - rho^2).  The
best tree-factoring approximation (minimum divergence) is the maximum
spanning tree under those pairwise weights.  Because that weight is a
strictly increasing function of the squared correlation, the tree agrees
with the one cascade regression selects; ``correspondence_check`` shows
the agreement edge by edge, and takes every pair's weight only near a tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, InvalidInputError
from .regression import CorrelationSummary, squared_correlation_graph
from .trees import RootedTree, Tree, WeightedGraph, maximum_spanning_tree

_LOG1P_ULPS = 2  # the error bound k, in ulps, that correspondence_check assumes of math.log1p


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

    Both trees depend on the correlations alone, which must be positive
    definite.  Inequality is reported, not raised, and non-unique maxima on
    either side are flagged as ties.  The squared-correlation tree comes
    first, from ``candidate`` when that certifies as its unique maximum;
    the report is the same with or without a candidate.

    That tree's margin m (``MstResult.margin``) decides the MI tree unless
    it is within the rounding of f^(w) = ``-0.5 * math.log1p(-w)``, the MI
    f(w) = -1/2 log(1 - w) of a squared correlation w.  Assume |f^ - f| <=
    eps f + eta on [0, 1), with eps = k 2^-52 (glibc lists 1 ulp for double
    ``log1p`` on x86_64; k = 2 is assumed) and eta = (k + 1) 2^-1075 for
    subnormals.  A non-tree pair p and an edge e on its path have w_p + m
    <= w_e <= w_max, the largest tree weight; as f' >= 1/2, f^(w_e) -
    f^(w_p) >= m/2 - 2 eps f(w_max) - 2 eta, positive once m > 4 eps
    f(w_max) + 4 eta.  The tree is then the unique MI maximum and ``log1p``
    runs on its d - 1 edges alone; the test doubles eps for the rounding
    of m, of f^(w_max) and its own.  Otherwise (w_max = 1, a tie, or m
    within the slack) the MI matrix is built and certified with that tree
    as candidate, and a perfectly correlated pair raises there.
    """
    try:
        np.linalg.cholesky(c.corr)
    except np.linalg.LinAlgError:
        raise InvalidInputError("covariance is not positive definite") from None
    cascade = approx = maximum_spanning_tree(squared_correlation_graph(c), candidate=candidate)
    w_max = float(np.square([c.corr[e] for e in cascade.tree.edges]).max(initial=0.0))
    slack = 8 * _LOG1P_ULPS * 2**-52 * -0.5 * math.log1p(-w_max) + 2**-1060 if w_max < 1 else math.inf
    if not cascade.margin > slack:
        # one weight matrix at a time: the squared correlations' graph is gone before the MI weights come
        mi = WeightedGraph._adopt(mutual_information_weights(c))
        approx = maximum_spanning_tree(mi, candidate=cascade.rooted)
    rho = {e: float(c.corr[e]) for e in approx.tree.sorted_edges()}  # f^ below is the MI matrix's, bit for bit
    return CorrespondenceReport(
        approximator_tree=approx.tree,
        cascade_tree=cascade.tree,
        trees_equal=approx.tree.edges == cascade.tree.edges,
        approximator_unique=approx.is_unique,
        cascade_unique=cascade.is_unique,
        edge_pairs=tuple((e, r * r, -0.5 * math.log1p(-r * r)) for e, r in rho.items()),
    )
