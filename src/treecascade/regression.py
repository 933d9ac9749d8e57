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
    mirrored below the diagonal.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or not cov.size:
        raise InvalidInputError(f"covariance must be square and non-empty, got shape {cov.shape}")
    diag = np.diag(cov)
    nonpositive = np.flatnonzero(~(diag > 0.0))
    if nonpositive.size:
        k = nonpositive[0]
        raise InvalidInputError(f"covariance diagonal must be positive, got {cov[k, k]} at {k}")
    i, j = np.triu_indices(cov.shape[0], 1)
    rho = np.clip(cov[i, j] / np.sqrt(diag[i] * diag[j]), -1.0, 1.0)
    corr = np.eye(cov.shape[0])
    corr[i, j] = rho
    corr[j, i] = rho
    return CorrelationSummary(corr)


def correlation_from_dataset(
    ds: Dataset, *, diff: bool = False, overwrite: bool = False
) -> CorrelationSummary:
    """Empirical correlations of a dataset, standardized here (n - 1 divisor).

    With ``diff`` the rows are first differenced, as ``price_changes``
    does.  The values are copied once, and the differences and the
    standardized values overwrite that copy.  With ``overwrite`` they
    overwrite ``ds``'s own values instead, which are then unspecified: for
    a caller that holds the only reference and wants no copy.
    """
    v = _buffer(ds, overwrite)
    if diff:
        v = _difference_in_place(v)
    z = _standardize_in_place(v, ds.names)
    raw = z.T @ z / (z.shape[0] - 1)
    corr = (raw + raw.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    corr = np.clip(corr, -1.0, 1.0)
    return CorrelationSummary(corr)


@dataclass(frozen=True)
class FitResult:
    """A fitted cascade: tree, root, coefficients, and diagnostics.

    ``coeffs[i]`` is the correlation between non-root vertex ``i`` and its
    parent; ``weights`` maps each tree edge to its squared correlation;
    ``objective`` is the expected squared residual, which at the optimum
    equals d minus the sum of the weights; ``tree_unique`` certifies that
    no other tree attains the optimum.
    """

    tree: Tree
    root: int
    coeffs: dict[int, float]
    objective: float
    weights: dict[tuple[int, int], float]
    tree_unique: bool
    root_hint_source: str = "default"
    names: tuple[str, ...] | None = None


def optimal_coefficients(rt: RootedTree, c: CorrelationSummary) -> dict[int, float]:
    """Objective-minimizing coefficients for a fixed rooted tree.

    The best predictor of a standardized component from its standardized
    parent has slope equal to their correlation.
    """
    if rt.d != c.d:
        raise InvalidInputError(f"tree on {rt.d} vertices vs correlations on {c.d}")
    return {i: float(c.corr[i, rt.parent[i]]) for i in rt.non_root_vertices()}


def objective_value(rt: RootedTree, coeffs: Mapping[int, float], c: CorrelationSummary) -> float:
    """Expected squared residual of the cascade predictor, from correlations only.

    Expands E(x_root^2) plus a per-edge quadratic in the coefficient.
    Terms accumulate in canonical edge order, making the value independent
    of the chosen root whenever the coefficients are the optimal ones.
    """
    if rt.d != c.d:
        raise InvalidInputError(f"tree on {rt.d} vertices vs correlations on {c.d}")
    if set(coeffs) != set(rt.non_root_vertices()):
        raise InvalidInputError("coefficients must cover exactly the non-root vertices")
    corr = c.corr
    order = sorted(rt.non_root_vertices(), key=lambda i: canonical_edge(i, rt.parent[i]))
    total = float(corr[rt.root, rt.root])
    for i in order:
        p = rt.parent[i]
        a = float(coeffs[i])
        total += a * a * float(corr[p, p]) - 2.0 * a * float(corr[i, p]) + float(corr[i, i])
    return total


def squared_correlation_graph(c: CorrelationSummary) -> WeightedGraph:
    """Complete graph weighted by squared pairwise correlations."""
    return WeightedGraph.from_matrix(c.corr * c.corr)


def fit_cascade(c: CorrelationSummary, root_hint: int | None = None) -> FitResult:
    """Optimal cascade for a correlation summary.

    Runs the deterministic maximum spanning tree on squared correlations,
    roots it (the objective does not depend on the root; the root is
    recorded for orientation only), and fills in optimal coefficients.
    """
    root = 0 if root_hint is None else root_hint
    graph = squared_correlation_graph(c)
    mst = maximum_spanning_tree(graph)
    rt = mst.rooted if root == 0 else root_tree(mst.tree, root)
    coeffs = optimal_coefficients(rt, c)
    return FitResult(
        tree=mst.tree,
        root=root,
        coeffs=coeffs,
        objective=objective_value(rt, coeffs, c),
        weights={e: graph.weight(*e) for e in mst.tree.sorted_edges()},
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
    corr = correlation_from_dataset(data, diff=diff, overwrite=overwrite)
    return dataclasses.replace(fit_cascade(corr, root_hint), names=data.names)
