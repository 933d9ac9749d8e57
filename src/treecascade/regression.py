"""Simultaneous cascade regression.

Fits a rooted tree and per-edge coefficients to minimize the expected
squared residual of predicting every standardized component from its
parent.  The optimal coefficient on each edge is the pairwise correlation,
and the optimal tree is a maximum spanning tree of the complete graph
weighted by squared correlations; at the optimum the objective collapses
to d minus the sum of the chosen squared correlations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dataio import (
    Dataset,
    _buffer,
    _difference_in_place,
    _differenced_rows,
    _standardize_in_place,
)
from .errors import InvalidInputError
from .trees import (
    RootedTree,
    Tree,
    WeightedGraph,
    _check_non_root_keys,
    _unchecked,
    canonical_edge,
    maximum_spanning_tree,
    root_tree,
)


@dataclass(frozen=True)
class CorrelationSummary:
    """Symmetric pairwise-correlation matrix with an exactly unit diagonal.

    Exact symmetry is required so downstream results are invariant to how
    vertex pairs are traversed; the builders below guarantee it.
    """

    corr: np.ndarray

    def __post_init__(self) -> None:
        corr = np.array(self.corr, dtype=float)
        if corr.ndim != 2 or corr.shape[0] != corr.shape[1] or not corr.size:
            raise InvalidInputError(
                f"correlation matrix must be square and non-empty, got shape {corr.shape}"
            )
        if not np.isfinite(corr).all():
            raise InvalidInputError("correlation matrix contains non-finite entries")
        if not np.array_equal(corr, corr.T):
            raise InvalidInputError("correlation matrix must be exactly symmetric")
        if not (np.diag(corr) == 1.0).all():
            raise InvalidInputError("correlation matrix diagonal must be exactly 1")
        if np.abs(corr).max() > 1.0:
            raise InvalidInputError("correlations must lie in [-1, 1]")
        corr.setflags(write=False)
        object.__setattr__(self, "corr", corr)

    @property
    def d(self) -> int:
        return self.corr.shape[0]


def correlation_from_covariance(cov: np.ndarray) -> CorrelationSummary:
    """Normalize a covariance matrix into a correlation summary.

    Each upper-triangle pair is normalized independently by the same
    scalar expression, ``C_ij / sqrt(C_ii * C_jj)`` clipped to [-1, 1], and
    mirrored below the diagonal.  The other entries are never computed, so
    a variance whose square overflows or vanishes warns only where a pair
    of variances does.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or not cov.size:
        raise InvalidInputError(f"covariance must be square and non-empty, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise InvalidInputError("covariance contains non-finite entries")
    diag = np.diag(cov)
    nonpositive = np.flatnonzero(~(diag > 0.0))
    if nonpositive.size:
        k = nonpositive[0]
        raise InvalidInputError(f"covariance diagonal must be positive, got {cov[k, k]} at {k}")
    lower = np.tri(len(diag), dtype=bool)  # with the diagonal
    corr = np.eye(len(diag))
    upper = ~lower
    np.multiply.outer(diag, diag, out=corr, where=upper)
    np.sqrt(corr, out=corr, where=upper)
    np.divide(cov, corr, out=corr, where=upper)
    np.copyto(corr, corr.T, where=lower)
    np.clip(corr, -1.0, 1.0, out=corr)
    return _adopt_summary(corr)


def correlation_from_dataset(
    ds: Dataset, *, diff: bool = False, overwrite: bool = False
) -> CorrelationSummary:
    """Empirical correlations of a dataset, standardized here (n - 1 divisor).

    With ``diff`` the time-ordered rows are first replaced by their first
    differences (one fewer row), treated as exchangeable draws.  The
    values are copied once, and the differences and the standardized
    values overwrite that copy.  With ``overwrite`` they overwrite
    ``ds``'s own values instead, which are then unspecified: for a caller
    that holds the only reference and wants no copy.
    """
    v = _buffer(ds, overwrite)
    if diff:
        v = _difference_in_place(v, ds.names)
    z = _standardize_in_place(v, ds.names)
    # numpy forms z.T @ z with one syrk and mirrors its triangle: exactly symmetric
    corr = z.T @ z
    corr /= z.shape[0] - 1
    np.fill_diagonal(corr, 1.0)
    np.clip(corr, -1.0, 1.0, out=corr)
    return _adopt_summary(corr)


def _adopt_summary(corr: np.ndarray) -> CorrelationSummary:
    """A summary over ``corr``, built symmetric, unit-diagonal and clipped; a 0/0 can leave NaN."""
    if not np.isfinite(corr).all():
        raise InvalidInputError("correlation matrix contains non-finite entries")
    corr.setflags(write=False)
    return _unchecked(CorrelationSummary, corr=corr)


@dataclass(frozen=True)
class FitResult:
    """A fitted cascade: rooted tree, coefficients, and diagnostics.

    ``rt`` is the tree rooted as the fit orients it; ``coeffs[i]`` is the
    correlation between non-root vertex ``i`` and its parent ``rt.parent[i]``;
    ``weights`` maps each tree edge to its squared correlation;
    ``objective`` is the expected squared residual, which at the optimum
    equals d minus the sum of the weights; ``tree_unique`` certifies that
    no other tree attains the optimum.
    """

    rt: RootedTree
    coeffs: dict[int, float]
    objective: float
    weights: dict[tuple[int, int], float]
    tree_unique: bool
    root_hint_source: str = "default"
    names: tuple[str, ...] | None = None

    @property
    def tree(self) -> Tree:
        return self.rt.tree

    @property
    def root(self) -> int:
        return self.rt.root


def optimal_coefficients(rt: RootedTree, c: CorrelationSummary) -> dict[int, float]:
    """Objective-minimizing coefficients for a fixed rooted tree.

    The best predictor of a standardized component from its standardized
    parent has slope equal to their correlation.
    """
    if rt.d != c.d:
        raise InvalidInputError(f"tree on {rt.d} vertices vs correlations on {c.d}")
    children = rt.non_root_vertices()
    return dict(zip(children, c.corr[children, [rt.parent[i] for i in children]].tolist()))


def objective_value(rt: RootedTree, coeffs: Mapping[int, float], c: CorrelationSummary) -> float:
    """Expected squared residual of the cascade predictor, from correlations only.

    Expands E(x_root^2) plus a per-edge quadratic in the coefficient.
    Terms accumulate in canonical edge order, making the value independent
    of the chosen root whenever the coefficients are the optimal ones.
    """
    total = 0.0
    for term in _objective_terms(rt, coeffs, c):
        total += term
    return total


def _objective_terms(
    rt: RootedTree, coeffs: Mapping[int, float], c: CorrelationSummary
) -> list[float]:
    """The terms :func:`objective_value` adds: E(x_root^2), then each edge's in canonical order."""
    if rt.d != c.d:
        raise InvalidInputError(f"tree on {rt.d} vertices vs correlations on {c.d}")
    _check_non_root_keys(rt, coeffs, "coefficients")
    corr = c.corr
    order = sorted(rt.non_root_vertices(), key=lambda i: canonical_edge(i, rt.parent[i]))
    parents = [rt.parent[i] for i in order]
    # elementwise, each operation rounds as the scalar expression's does
    a = np.array([coeffs[i] for i in order], dtype=float)
    terms = a * a * corr[parents, parents] - 2.0 * a * corr[order, parents] + corr[order, order]
    return [float(corr[rt.root, rt.root]), *terms.tolist()]


def squared_correlation_graph(c: CorrelationSummary) -> WeightedGraph:
    """Complete graph weighted by squared pairwise correlations."""
    return WeightedGraph._adopt(c.corr * c.corr)


def fit_cascade(
    c: CorrelationSummary, root_hint: int | None = None, *, candidate: RootedTree | None = None
) -> FitResult:
    """Optimal cascade for a correlation summary.

    Runs the deterministic maximum spanning tree on squared correlations,
    roots it (the objective does not depend on the root; the root is
    recorded for orientation only), and fills in optimal coefficients.
    A ``candidate`` tree, such as a model's own, is certified first and
    spares the search when it is the unique maximum; the fit is the same
    with or without it (see :func:`maximum_spanning_tree`).
    """
    graph = squared_correlation_graph(c)
    mst = maximum_spanning_tree(graph, candidate=candidate)
    # the maximum spanning tree comes rooted at 0
    rt = mst.rooted if not root_hint else root_tree(mst.tree, root_hint)
    coeffs = optimal_coefficients(rt, c)
    edges = mst.tree.sorted_edges()
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    return FitResult(
        rt=rt,
        coeffs=coeffs,
        objective=objective_value(rt, coeffs, c),
        weights=dict(zip(edges, graph.matrix[ends[:, 0], ends[:, 1]].tolist())),
        tree_unique=mst.is_unique,
        root_hint_source="default" if root_hint is None else "user",
    )


def empirical_fit(
    data: Dataset, root_hint: int | None = None, *, diff: bool = False, overwrite: bool = False
) -> FitResult:
    """Standardize a dataset, take empirical correlations, and fit.

    The reported objective uses the same correlation identity as the
    population fit, so empirical and population objectives share a scale.
    Column names carry through to the result.  ``diff`` fits the first
    differences of the rows; ``overwrite`` lets the fit reuse ``data``'s
    values as working space, as in ``correlation_from_dataset``.
    """
    n = _differenced_rows(data.n) if diff else data.n
    if n < 2:
        raise InvalidInputError(f"empirical fit needs at least 2 rows, got {n}")
    names = data.names
    corr = correlation_from_dataset(data, diff=diff, overwrite=overwrite)
    # the fit reads the correlations alone: a dataset the caller gave up goes now
    del data
    return dataclasses.replace(fit_cascade(corr, root_hint), names=names)
