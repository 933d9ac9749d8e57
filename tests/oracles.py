"""Loop-based reference implementations, kept as test oracles.

The enumeration of every labeled tree (Pruefer decoding), the brute-force
fit over all of them and the Chow-Liu tree on mutual-information weights
check the paper's result itself.  The library computes the maximum
spanning tree with dense Prim, certifies it with a bottleneck matrix, runs
the dominance and covariance-lemma checks as array expressions over
first-hop and LCA matrices, fills the cascade inverse column by column,
and takes mutual-information weights from the shared correlation matrix.
The functions here are the straightforward versions those replaced:
Kruskal over the canonical edge order, one tree-path walk per vertex pair
or per vertex, and per-pair scalar formulas.  The data pipeline
differences, standardizes and correlates in place over one buffer; the
copying formulas it replaced are kept here too.  ``simulate`` streams one
block of rows at a time from the draw to the file; the one-shot draw and
``csv.writer`` it replaced are kept as well.  The covariance and
``simulate`` follow the structural equations x_v = a_v x_parent + e_v;
the dense products with the closed-form inverse that they replaced are
kept, and agree with them within a rounding bound.  A fit document
loads in one walk from its root, through constructors that skip the checks
the load already made; the loaders that built a ``Tree``, rooted it with
``root_tree`` and ran every constructor's checks are kept, and so is the
covariance normalization over upper-triangle index arrays, and the
objective summed one scalar edge term at a time.  The covariance-lemma
report compares the covariance with one predicted matrix, B_im * B_jm at
the deepest common ancestor; the report that took the ancestor pairs
against B_ji and gathered the branching pairs by index is kept.  The
certificate's tree margin, its least gap of bottleneck minus weight, has a
path-walk oracle too.  The dense coefficient matrix A, which only the
tests' LAPACK inverse of I - A reads, lives here.  ``correspondence_check``
reads the mutual-information tree off the squared-correlation margin; the
version that built every pair's weight and certified it is kept.  Tests
require the fast paths to agree with them exactly.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections import Counter
from typing import Mapping

import numpy as np

from treecascade import (
    CascadeModel,
    CorrelationSummary,
    DegeneracyError,
    FitResult,
    InvalidInputError,
    SchemaError,
    Tree,
    UnsupportedModelError,
    WeightedGraph,
    maximum_spanning_tree,
    population_covariance,
    root_tree,
)
from treecascade.cascade import LemmaCheck, cascade_inverse
from treecascade.chowliu import CorrespondenceReport, mutual_information_weights
from treecascade.dataio import FORMAT_VERSION
from treecascade.regression import objective_value, optimal_coefficients, squared_correlation_graph
from treecascade.trees import MstResult, canonical_edge
from treecascade.trees import _tree_from_pruefer

#: Guard for exhaustive spanning-tree enumeration (8**6 = 262144 trees).
MAX_ENUMERATION_VERTICES = 8


def enumerate_spanning_trees(d: int):
    """Every labeled tree on ``d`` vertices exactly once, as an iterator.

    Decodes all length-``d-2`` vertex sequences (the bijection with labeled
    trees) in lexicographic order, so the count is ``d**(d-2)`` for
    ``d >= 2`` and 1 for ``d = 1``.  Guarded at ``d <= 8``.
    """
    if d < 1:
        raise InvalidInputError(f"vertex count must be >= 1, got {d}")
    if d > MAX_ENUMERATION_VERTICES:
        raise ValueError(
            f"refusing to enumerate {d}**{d - 2} spanning trees (limit d <= "
            f"{MAX_ENUMERATION_VERTICES})"
        )
    if d == 1:
        return iter([Tree(1)])
    return (_tree_from_pruefer(seq, d) for seq in itertools.product(range(d), repeat=d - 2))


def brute_force_fit(c: CorrelationSummary) -> FitResult:
    """Global minimizer over every labeled tree; the optimality oracle.

    Evaluates the optimal-coefficient objective for all d**(d-2) trees.
    Ties on the objective resolve to the lexicographically smallest sorted
    edge list, and ``tree_unique`` reports whether the minimum was
    attained by exactly one tree.
    """
    if c.d > 8:
        raise ValueError(f"brute-force fit is limited to d <= 8, got {c.d}")

    def evaluate(tree: Tree) -> tuple[float, list[tuple[int, int]], Tree, dict[int, float]]:
        rt = root_tree(tree, 0)
        coeffs = optimal_coefficients(rt, c)
        return objective_value(rt, coeffs, c), tree.sorted_edges(), tree, coeffs

    candidates = map(evaluate, enumerate_spanning_trees(c.d))
    best, tied = next(candidates), False
    for candidate in candidates:
        if candidate[0] <= best[0]:
            tied = candidate[0] == best[0]
        if candidate[:2] < best[:2]:  # lower objective, then smaller edge list
            best = candidate
    objective, edges, tree, coeffs = best
    weights = {e: float(c.corr[e]) ** 2 for e in edges}
    return FitResult(root_tree(tree, 0), coeffs, objective, weights, tree_unique=not tied)


def chow_liu_tree(c: CorrelationSummary) -> MstResult:
    """Optimal approximator tree: maximum spanning tree of pairwise MI weights."""
    return maximum_spanning_tree(WeightedGraph.from_matrix(mutual_information_weights(c)))


def full_mi_correspondence(c: CorrelationSummary, *, candidate=None) -> CorrespondenceReport:
    """``correspondence_check`` as it was before the margin shortcut: the full MI matrix, always.

    Cholesky first, then the squared-correlation tree, then every pair's MI
    weight and a certified MI maximum with that tree as candidate.
    """
    try:
        np.linalg.cholesky(c.corr)
    except np.linalg.LinAlgError:
        raise InvalidInputError("covariance is not positive definite") from None
    cascade = maximum_spanning_tree(squared_correlation_graph(c), candidate=candidate)
    mi = WeightedGraph.from_matrix(mutual_information_weights(c))
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


def ancestors(rt, i: int) -> list[int]:
    """Proper ancestors of ``i``, nearest first, ending at the root."""
    out = []
    p = rt.parent[i]
    while p != -1:
        out.append(p)
        p = rt.parent[p]
    return out


def is_ancestor(rt, a: int, b: int) -> bool:
    """True iff ``a`` is a proper ancestor of ``b``."""
    if a == b:
        return False
    p = rt.parent[b]
    while p != -1:
        if p == a:
            return True
        p = rt.parent[p]
    return False


def lca(rt, i: int, j: int) -> int:
    """Deepest common ancestor of ``i`` and ``j``; a vertex is its own ancestor here."""
    for v in (i, j):
        if not (0 <= v < rt.d):
            raise InvalidInputError(f"vertex {v} out of range for {rt.d} vertices")
    a, b = i, j
    while rt.depth[a] > rt.depth[b]:
        a = rt.parent[a]
    while rt.depth[b] > rt.depth[a]:
        b = rt.parent[b]
    while a != b:
        a = rt.parent[a]
        b = rt.parent[b]
    return a


def path_vertices(rt, i: int, j: int) -> list[int]:
    """Vertices on the unique tree path from ``i`` to ``j``, inclusive."""
    m = lca(rt, i, j)
    up = [i]
    a = i
    while a != m:
        a = rt.parent[a]
        up.append(a)
    down = []
    b = j
    while b != m:
        down.append(b)
        b = rt.parent[b]
    return up + down[::-1]


def path_edges(rt, i: int, j: int) -> list[tuple[int, int]]:
    """Canonical edges along the tree path from ``i`` to ``j``."""
    verts = path_vertices(rt, i, j)
    return [canonical_edge(a, b) for a, b in zip(verts, verts[1:])]


def coefficient_matrix(m: CascadeModel) -> np.ndarray:
    """Dense d-by-d coefficient matrix; entry (i, parent(i)) per non-root i."""
    a = np.zeros((m.d, m.d))
    for i, coeff in m.coeffs.items():
        a[i, m.rt.parent[i]] = coeff
    return a


def graph_from_weights(d: int, weights) -> WeightedGraph:
    """Graph from a ``{(i, j): w}`` mapping; a pair left out stays NaN, which fails."""
    m = np.full((d, d), np.nan)
    for (i, j), w in weights.items():
        m[i, j] = m[j, i] = w
    return WeightedGraph.from_matrix(m)


def kruskal_mst(g: WeightedGraph) -> MstResult:
    """Kruskal's greedy construction over the canonical edge order; the total is ``math.fsum``'s."""
    edges = sorted(
        ((g.weight(i, j), i, j) for i in range(g.d) for j in range(i + 1, g.d)),
        key=lambda t: (-t[0], t[1], t[2]),
    )
    component = list(range(g.d))
    chosen: list[tuple[int, int]] = []
    weights: list[float] = []
    for w, i, j in edges:
        if component[i] != component[j]:
            joined = component[j]
            component = [component[i] if c == joined else c for c in component]
            chosen.append((i, j))
            weights.append(w)
            if len(chosen) == g.d - 1:
                break
    tree = Tree(g.d, frozenset(chosen))
    unique, margin = path_walk_is_unique(g, tree), path_walk_margin(g, tree)
    return MstResult(tree, math.fsum(weights), unique, root_tree(tree, 0), margin)


def path_walk_is_unique(g: WeightedGraph, t: Tree) -> bool:
    """Strict cycle property, checked by walking the tree path of every non-tree pair."""
    if t.d != g.d:
        raise InvalidInputError(f"tree on {t.d} vertices does not span graph on {g.d}")
    rt = root_tree(t, 0)
    unique = True
    for i in range(g.d):
        for j in range(i + 1, g.d):
            if t.has_edge(i, j):
                continue
            bound = min(g.weight(a, b) for a, b in path_edges(rt, i, j))
            w = g.weight(i, j)
            if w > bound:
                raise InvalidInputError(
                    f"tree is not a maximum spanning tree: non-tree edge ({i}, {j}) "
                    f"outweighs a tree edge on its path"
                )
            if w == bound:
                unique = False
    return unique


def path_walk_margin(g: WeightedGraph, t: Tree) -> float:
    """Least path minimum minus weight over the non-tree pairs, walked as ``path_walk_is_unique`` walks them; +inf with none."""
    rt = root_tree(t, 0)
    margin = math.inf
    for i in range(g.d):
        for j in range(i + 1, g.d):
            if t.has_edge(i, j):
                continue
            bound = min(g.weight(a, b) for a, b in path_edges(rt, i, j))
            margin = min(margin, bound - g.weight(i, j))
    return margin


def loop_strict_triangle_condition(g: WeightedGraph, t: Tree) -> bool:
    """``W_ij < min(W_ik, W_kj)`` for every nonadjacent ordered pair, k the first hop."""
    if t.d != g.d:
        raise InvalidInputError(f"tree on {t.d} vertices does not span graph on {g.d}")
    rt = root_tree(t, 0)
    for i in range(g.d):
        for j in range(g.d):
            if i == j or t.has_edge(i, j):
                continue
            k = path_vertices(rt, i, j)[1]
            if not g.weight(i, j) < min(g.weight(i, k), g.weight(k, j)):
                return False
    return True


def loop_covariance_lemmas(m, tol: float = 1e-12) -> tuple[LemmaCheck, ...]:
    """The three covariance-lemma checks, one pair at a time."""
    if not m.unit_variance:
        raise UnsupportedModelError("verify_covariance_lemmas requires a unit-variance model")
    inv = cascade_inverse(m)
    cov = population_covariance(m)
    rt = m.rt

    ancestor_dev = 0.0
    ancestor_pairs = 0
    branch_dev = 0.0
    branch_pairs = 0
    for i in range(m.d):
        for j in range(m.d):
            if i == j:
                continue
            if is_ancestor(rt, i, j):
                ancestor_dev = max(ancestor_dev, float(abs(cov[i, j] - inv[j, i])))
                ancestor_pairs += 1
            elif i < j and not is_ancestor(rt, j, i):
                meet = lca(rt, i, j)
                branch_dev = max(branch_dev, float(abs(cov[i, j] - inv[i, meet] * inv[j, meet])))
                branch_pairs += 1

    margin = math.inf
    bound_pairs = 0
    bound_ok = True
    for i in range(m.d):
        for j in range(m.d):
            if i == j or rt.tree.has_edge(i, j):
                continue
            k = path_vertices(rt, i, j)[1]
            gap = float(min(abs(cov[i, k]), abs(cov[k, j])) - abs(cov[i, j]))
            margin = min(margin, gap)
            bound_ok = bound_ok and gap > 0.0
            bound_pairs += 1

    return (
        LemmaCheck(
            "ancestor-covariance",
            ancestor_dev <= tol,
            ancestor_dev,
            "max |C_ij - B_ji|",
            ancestor_pairs,
        ),
        LemmaCheck(
            "branching-covariance",
            branch_dev <= tol,
            branch_dev,
            "max |C_ij - B_im B_jm|",
            branch_pairs,
        ),
        LemmaCheck(
            "strict-dominance",
            bound_ok,
            margin,
            "min margin min(|C_ik|, |C_kj|) - |C_ij|",
            bound_pairs,
        ),
    )


def two_formula_lemma_report(
    inv: np.ndarray, cov: np.ndarray, hop: np.ndarray, meet: np.ndarray
) -> tuple[LemmaCheck, ...]:
    """The covariance-lemma report with one formula per covariance check.

    Ancestor pairs compare C_ij with B_ji over the whole matrix; branching
    pairs are gathered by index and compared with B_im * B_jm.
    """
    rows = np.arange(len(inv))[:, None]
    cols = np.arange(len(inv))[None, :]

    ancestor_devs = np.abs(cov - inv.T)[(meet == rows) & (rows != cols)]
    i, j = np.nonzero((rows < cols) & (meet != rows) & (meet != cols))
    k = meet[i, j]
    branch_devs = np.abs(cov[i, j] - inv[i, k] * inv[j, k])
    # path-neighbour gaps gathered and compressed whole, where the package reduces in place
    x = np.abs(cov)
    gaps = (np.minimum(x[rows, hop], x[hop, cols]) - x)[hop != cols]

    ancestor_dev = float(ancestor_devs.max(initial=0.0))
    branch_dev = float(branch_devs.max(initial=0.0))
    return (
        LemmaCheck(
            "ancestor-covariance",
            ancestor_dev <= 1e-12,
            ancestor_dev,
            "max |C_ij - B_ji|",
            ancestor_devs.size,
        ),
        LemmaCheck(
            "branching-covariance",
            branch_dev <= 1e-12,
            branch_dev,
            "max |C_ij - B_im B_jm|",
            branch_devs.size,
        ),
        LemmaCheck(
            "strict-dominance",
            bool((gaps > 0.0).all()),
            float(gaps.min(initial=math.inf)),
            "min margin min(|C_ik|, |C_kj|) - |C_ij|",
            gaps.size,
        ),
    )


def scalar_mi_weight(cov: np.ndarray, i: int, j: int) -> float:
    """Mutual information -1/2 log(1 - rho^2) of one pair of a Gaussian's covariance."""
    if i == j:
        raise InvalidInputError(f"pairwise weight needs two distinct vertices, got {i}")
    d = len(cov)
    if not (0 <= i < d and 0 <= j < d):
        raise InvalidInputError(f"vertex pair ({i}, {j}) out of range for d={d}")
    rho = float(cov[i, j]) / math.sqrt(float(cov[i, i]) * float(cov[j, j]))
    if abs(rho) >= 1.0:
        raise DegeneracyError(f"components {i} and {j} are perfectly correlated")
    return -0.5 * math.log1p(-rho * rho)


def path_walk_inverse(m):
    """(I - A)^-1 by walking from each vertex up to the root, multiplying coefficients."""
    inv = np.eye(m.d)
    parent = m.rt.parent
    for i in range(m.d):
        acc = 1.0
        j = i
        while parent[j] != -1:
            acc *= m.coeffs[j]
            j = parent[j]
            inv[i, j] = acc
    return inv


def copying_standardize(values: np.ndarray) -> np.ndarray:
    """Centered values over their n - 1 standard deviation, each step a new array."""
    means = values.mean(axis=0)
    centered = values - means
    scales = np.sqrt((centered * centered).sum(axis=0) / (values.shape[0] - 1))
    return centered / scales


def copying_correlation(values: np.ndarray) -> np.ndarray:
    """Correlation matrix of the copying standardization, symmetrized and clipped."""
    z = copying_standardize(values)
    raw = z.T @ z / (z.shape[0] - 1)
    corr = (raw + raw.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return np.clip(corr, -1.0, 1.0)


def _one_shot_gaussian(rng, n, variances):
    x = rng.standard_normal((n, variances.size))
    x *= np.sqrt(variances)
    return x


def _one_shot_laplace(rng, n, variances):
    x = rng.laplace(0.0, 1.0, (n, variances.size))
    x *= np.sqrt(variances / 2.0)
    return x


def _one_shot_uniform(rng, n, variances):
    x = rng.uniform(-1.0, 1.0, (n, variances.size))
    x *= np.sqrt(3.0 * variances)
    return x


def _one_shot_rademacher(rng, n, variances):
    signs = rng.integers(0, 2, (n, variances.size)) * 2 - 1
    return signs * np.sqrt(variances)


def _one_shot_dependent(rng, n, variances):
    magnitude = np.abs(rng.standard_normal((n, 1)))
    signs = rng.integers(0, 2, (n, variances.size)) * 2 - 1
    return signs * magnitude * np.sqrt(variances)


#: Each sampler's whole (n, d) error draw in one call, by sampler name.
ONE_SHOT_SAMPLERS = {
    "gaussian": _one_shot_gaussian,
    "laplace": _one_shot_laplace,
    "uniform": _one_shot_uniform,
    "rademacher": _one_shot_rademacher,
    "dependent": _one_shot_dependent,
}


def one_shot_errors(m, sampler_name: str, n: int, seed: int) -> np.ndarray:
    """The whole (n, d) error draw of the named sampler, in one call."""
    return ONE_SHOT_SAMPLERS[sampler_name](np.random.default_rng(seed), n, m.error_variance_vector())


def one_shot_simulate(m, sampler_name: str, n: int, seed: int) -> np.ndarray:
    """The whole error draw through the structural equations, a vertex after its parent."""
    x = one_shot_errors(m, sampler_name, n, seed)
    for v in sorted(m.rt.non_root_vertices(), key=lambda v: m.rt.depth[v]):
        x[:, v] = m.coeffs[v] * x[:, m.rt.parent[v]] + x[:, v]
    return x


def dense_simulate(m, errors: np.ndarray) -> np.ndarray:
    """Rows of ``errors`` times the transposed closed-form inverse, in one BLAS product."""
    return errors @ cascade_inverse(m).T


def dense_covariance(m) -> np.ndarray:
    """(I - A)^-1 D (I - A)^-T as one BLAS product of the closed-form inverse, symmetrized."""
    inv = cascade_inverse(m)
    with np.errstate(over="ignore", invalid="ignore"):
        cov = (inv * m.error_variance_vector()) @ inv.T
        return (cov + cov.T) / 2.0


def csv_writer_bytes(names, values: np.ndarray) -> bytes:
    """Header and rows as ``csv.writer`` writes them, UTF-8 encoded."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(names)
    writer.writerows(values.tolist())
    return out.getvalue().encode("utf-8")


def loop_objective_value(rt, coeffs, c: CorrelationSummary) -> float:
    """The objective accumulated one scalar edge term at a time, in canonical edge order."""
    corr = c.corr
    order = sorted(rt.non_root_vertices(), key=lambda i: canonical_edge(i, rt.parent[i]))
    total = float(corr[rt.root, rt.root])
    for i in order:
        p = rt.parent[i]
        a = float(coeffs[i])
        total += a * a * float(corr[p, p]) - 2.0 * a * float(corr[i, p]) + float(corr[i, i])
    return total

def triu_correlation_from_covariance(cov: np.ndarray) -> CorrelationSummary:
    """Each upper-triangle pair normalized through index arrays, then mirrored."""
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
    i, j = np.triu_indices(cov.shape[0], 1)
    rho = np.clip(cov[i, j] / np.sqrt(diag[i] * diag[j]), -1.0, 1.0)
    corr = np.eye(cov.shape[0])
    corr[i, j] = rho
    corr[j, i] = rho
    return CorrelationSummary(corr)


_ROOT_HINT_SOURCES = ("default", "user")


def checking_document_to_fit(doc: Mapping) -> FitResult:
    """A fit document validated field by field, then through ``Tree`` and ``root_tree``."""
    _check_version(doc)
    d = _require_int(doc, "d", minimum=1)
    root = _require_int(doc, "root", minimum=0)
    if root >= d:
        raise SchemaError(f"root: {root} out of range for d={d}")
    edges_field = _require(doc, "edges", list)
    if len(edges_field) != d - 1:
        raise SchemaError(f"edges: expected {d - 1} entries for d={d}, got {len(edges_field)}")
    coeffs: dict[int, float] = {}
    parents: dict[int, int] = {}
    pairs = []
    for k, entry in enumerate(edges_field):
        if not isinstance(entry, Mapping):
            raise SchemaError(f"edges[{k}]: expected an object")
        child = _require_int(entry, "child", minimum=0, prefix=f"edges[{k}].")
        parent = _require_int(entry, "parent", minimum=0, prefix=f"edges[{k}].")
        coeff = _require_number(entry, "coeff", prefix=f"edges[{k}].")
        if child >= d or parent >= d:
            raise SchemaError(f"edges[{k}]: vertex out of range for d={d}")
        if child == root:
            raise SchemaError(f"edges[{k}].child: the root {root} cannot be a child")
        if child in coeffs:
            raise SchemaError(f"edges[{k}].child: vertex {child} appears twice")
        coeffs[child] = coeff
        parents[child] = parent
        pairs.append((child, parent))
    try:
        tree = Tree.from_edges(d, pairs)
    except InvalidInputError as exc:
        raise SchemaError(f"edges: {exc}") from None
    rt = root_tree(tree, root)
    for child, parent in parents.items():
        if rt.parent[child] != parent:
            raise SchemaError(
                f"edges: edge orientation {parent} -> {child} inconsistent with root {root}"
            )
    error_vars = _require(doc, "error_vars", list)
    if len(error_vars) != d:
        raise SchemaError(f"error_vars: expected {d} entries, got {len(error_vars)}")
    for k, v in enumerate(error_vars):
        if _finite_number(v, f"error_vars[{k}]") < 0:
            raise SchemaError(f"error_vars[{k}]: expected a nonnegative number, got {v!r}")
    _require(doc, "unit_variance", bool)
    weights_field = _require(doc, "weights", list)
    if len(weights_field) != d - 1:
        raise SchemaError(f"weights: expected {d - 1} entries aligned with edges")
    weights = {}
    for k, w in enumerate(weights_field):
        weights[canonical_edge(*pairs[k])] = _finite_number(w, f"weights[{k}]")
    source = _require(doc, "root_hint_source", str)
    if source not in _ROOT_HINT_SOURCES:
        raise SchemaError(f"root_hint_source: expected one of {_ROOT_HINT_SOURCES}, got {source!r}")
    names_field = doc.get("names")
    if names_field is not None:
        if not isinstance(names_field, list) or not all(isinstance(s, str) for s in names_field):
            raise SchemaError("names: expected a list of strings or null")
        if len(names_field) != d:
            raise SchemaError(f"names: expected {d} entries, got {len(names_field)}")
        repeated = sorted(name for name, count in Counter(names_field).items() if count > 1)
        if repeated:
            raise SchemaError(f"names: duplicate column names: {', '.join(repeated)}")
    return FitResult(
        rt=rt,
        coeffs=coeffs,
        objective=_require_number(doc, "objective"),
        weights=weights,
        tree_unique=_require(doc, "tree_unique", bool),
        root_hint_source=source,
        names=tuple(names_field) if names_field is not None else None,
    )


def checking_model_from_document(doc: Mapping) -> CascadeModel:
    """The generative model of a fit document, through every constructor's checks."""
    fit = checking_document_to_fit(doc)
    error_vars = {i: float(v) for i, v in enumerate(doc["error_vars"])}
    if doc["unit_variance"]:
        try:
            model = _checking_unit_variance_model(fit.rt, fit.coeffs)
        except InvalidInputError as exc:
            raise SchemaError(f"edges: unit-variance model rejected: {exc}") from None
        for i in range(fit.tree.d):
            if abs(model.error_vars[i] - error_vars[i]) > 1e-12:
                raise SchemaError(
                    f"error_vars[{i}]: {error_vars[i]!r} inconsistent with "
                    "unit-variance coefficients"
                )
        return model
    return CascadeModel(fit.rt, fit.coeffs, error_vars)


def _checking_unit_variance_model(rt, edge_correlations) -> CascadeModel:
    non_root = set(rt.non_root_vertices())
    if set(edge_correlations) != non_root:
        raise InvalidInputError(
            "edge correlations must cover exactly the non-root vertices; "
            f"got {sorted(edge_correlations)}, expected {sorted(non_root)}"
        )
    coeffs = {}
    error_vars = {rt.root: 1.0}
    for i, rho in edge_correlations.items():
        rho = float(rho)
        if not (math.isfinite(rho) and abs(rho) < 1.0):
            raise InvalidInputError(f"edge correlation at vertex {i} must be in (-1, 1), got {rho!r}")
        if rho == 0.0:
            raise InvalidInputError(f"edge correlation at vertex {i} must be nonzero")
        coeffs[i] = rho
        error_vars[i] = 1.0 - rho * rho
    return CascadeModel(rt, coeffs, error_vars)


def _check_version(doc: Mapping) -> None:
    version = _require_int(doc, "format_version", minimum=1)
    if version != FORMAT_VERSION:
        raise SchemaError(f"format_version: unsupported version {version}")


def _require(doc: Mapping, key: str, kind, prefix: str = ""):
    if key not in doc:
        raise SchemaError(f"missing field: {prefix}{key}")
    value = doc[key]
    if kind is bool:
        if not isinstance(value, bool):
            raise SchemaError(f"{prefix}{key}: expected a boolean, got {value!r}")
    elif not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(f"{prefix}{key}: expected {kind.__name__}, got {value!r}")
    return value


def _require_int(doc: Mapping, key: str, minimum: int, prefix: str = "") -> int:
    value = _require(doc, key, int, prefix)
    if value < minimum:
        raise SchemaError(f"{prefix}{key}: expected an integer >= {minimum}, got {value}")
    return value


def _require_number(doc: Mapping, key: str, prefix: str = "") -> float:
    if key not in doc:
        raise SchemaError(f"missing field: {prefix}{key}")
    return _finite_number(doc[key], f"{prefix}{key}")


def _finite_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{field}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{field}: value is not finite: {number!r}")
    return number
