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
block of rows at a time from the draw to the file; the one-shot draw,
product and ``csv.writer`` it replaced are kept as well.  Tests require
the fast paths to agree with them exactly.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

from treecascade import (
    CorrelationSummary,
    DegeneracyError,
    FitResult,
    GaussianSummary,
    InvalidInputError,
    LemmaCheck,
    LemmaReport,
    MstResult,
    Tree,
    UnsupportedModelError,
    WeightedGraph,
    canonical_edge,
    cascade_inverse,
    correlation_from_covariance,
    maximum_spanning_tree,
    mutual_information_weights,
    objective_value,
    optimal_coefficients,
    population_covariance,
    root_tree,
)
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
    return FitResult(tree, 0, coeffs, objective, weights, tree_unique=not tied)


def chow_liu_tree(s: GaussianSummary) -> MstResult:
    """Optimal approximator tree: maximum spanning tree of pairwise MI weights."""
    mi = mutual_information_weights(correlation_from_covariance(s.covariance))
    return maximum_spanning_tree(WeightedGraph.from_matrix(mi))


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


def graph_from_weights(d: int, weights) -> WeightedGraph:
    """Graph from a ``{(i, j): w}`` mapping; a pair left out stays NaN, which fails."""
    m = np.full((d, d), np.nan)
    for (i, j), w in weights.items():
        m[i, j] = m[j, i] = w
    return WeightedGraph.from_matrix(m)


def kruskal_mst(g: WeightedGraph) -> MstResult:
    """Kruskal's greedy construction over the canonical edge order."""
    edges = sorted(
        ((g.weight(i, j), i, j) for i in range(g.d) for j in range(i + 1, g.d)),
        key=lambda t: (-t[0], t[1], t[2]),
    )
    component = list(range(g.d))
    chosen: list[tuple[int, int]] = []
    total = 0.0
    for w, i, j in edges:
        if component[i] != component[j]:
            joined = component[j]
            component = [component[i] if c == joined else c for c in component]
            chosen.append((i, j))
            total += w
            if len(chosen) == g.d - 1:
                break
    tree = Tree(g.d, frozenset(chosen))
    return MstResult(tree, total, path_walk_is_unique(g, tree), root_tree(tree, 0))


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


def loop_covariance_lemmas(m, tol: float = 1e-12) -> LemmaReport:
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

    return LemmaReport(
        (
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
    )


def scalar_mi_weight(s, i: int, j: int) -> float:
    """Mutual information -1/2 log(1 - rho^2) of one pair of a Gaussian summary."""
    if i == j:
        raise InvalidInputError(f"pairwise weight needs two distinct vertices, got {i}")
    cov = s.covariance
    if not (0 <= i < s.d and 0 <= j < s.d):
        raise InvalidInputError(f"vertex pair ({i}, {j}) out of range for d={s.d}")
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


def one_shot_simulate(m, sampler_name: str, n: int, seed: int) -> np.ndarray:
    """The whole error draw times the transposed inverse, in one product."""
    rng = np.random.default_rng(seed)
    errors = ONE_SHOT_SAMPLERS[sampler_name](rng, n, m.error_variance_vector())
    return errors @ cascade_inverse(m).T


def csv_writer_bytes(names, values: np.ndarray) -> bytes:
    """Header and rows as ``csv.writer`` writes them, UTF-8 encoded."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(names)
    writer.writerows(values.tolist())
    return out.getvalue().encode("utf-8")
