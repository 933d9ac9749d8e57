"""Trees, rooted trees, and deterministic maximum spanning trees.

Vertices are always the integers ``0..d-1``.  Undirected edges are stored
canonically as ``(i, j)`` tuples with ``i < j``, and edge weights as a
dense symmetric matrix.  The maximum spanning tree is dense Prim under a
fixed strict total edge order -- weight descending, then ``(min, max)``
vertex pair ascending -- so equal inputs yield identical trees on every
platform, ties included.  Uniqueness of the maximum is certified exactly
(no tolerance) through the strict cycle property: every non-tree weight
must fall strictly below the bottleneck matrix entry, the lightest edge on
the tree path between its endpoints.  That test also certifies a
candidate tree without a search, and Prim runs only when it fails.  The
tree comes rooted at vertex 0, and path matrices such as the bottleneck
fill in a parent-first walk, where the vertices before each one form a
prefix.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError


def canonical_edge(i: int, j: int) -> tuple[int, int]:
    """Return the undirected edge ``{i, j}`` in canonical ``(min, max)`` form."""
    if i == j:
        raise InvalidInputError(f"self-loop ({i}, {j}) is not a valid edge")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Tree:
    """An undirected tree on vertices ``0..d-1``.

    Invariants checked at construction: exactly ``d - 1`` canonical edges,
    valid endpoints, connected (which with the edge count implies acyclic).
    A single-vertex tree has no edges.
    """

    d: int
    edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InvalidInputError(f"vertex count must be >= 1, got {self.d}")
        if len(self.edges) != self.d - 1:
            raise InvalidInputError(
                f"a tree on {self.d} vertices needs {self.d - 1} edges, "
                f"got {len(self.edges)}"
            )
        for i, j in self.edges:
            if not (0 <= i < j < self.d):
                raise InvalidInputError(f"edge ({i}, {j}) is not canonical on {self.d} vertices")
        if len(_breadth_first(self, 0)[0]) != self.d:
            raise InvalidInputError("edge set is not connected")

    @staticmethod
    def from_edges(d: int, edges: Sequence[tuple[int, int]]) -> "Tree":
        """Build a tree from any iterable of (possibly unordered) vertex pairs."""
        return Tree(d, frozenset(canonical_edge(i, j) for i, j in edges))

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Edges in ascending canonical order; the deterministic iteration order."""
        return sorted(self.edges)

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists, each sorted ascending."""
        adj: list[list[int]] = [[] for _ in range(self.d)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        for lst in adj:
            lst.sort()
        return adj

    def has_edge(self, i: int, j: int) -> bool:
        return canonical_edge(i, j) in self.edges


@dataclass(frozen=True)
class RootedTree:
    """A tree plus a distinguished root, with every edge oriented root-ward.

    ``parent[i]`` is the parent of vertex ``i`` and ``-1`` at the root;
    ``depth[i]`` is the number of edges from ``i`` up to the root.  Build
    via :func:`root_tree`.
    """

    tree: Tree
    root: int
    parent: tuple[int, ...]
    depth: tuple[int, ...]

    def __post_init__(self) -> None:
        d = self.tree.d
        if not (0 <= self.root < d):
            raise InvalidInputError(f"root {self.root} out of range for {d} vertices")
        if len(self.parent) != d or len(self.depth) != d:
            raise InvalidInputError("parent/depth maps must cover every vertex")
        if self.parent[self.root] != -1 or self.depth[self.root] != 0:
            raise InvalidInputError("root must have no parent and depth 0")
        for i in range(d):
            if i == self.root:
                continue
            p = self.parent[i]
            if not self.tree.has_edge(i, p):
                raise InvalidInputError(f"parent map entry {i} -> {p} is not a tree edge")
            if self.depth[i] != self.depth[p] + 1:
                raise InvalidInputError(f"depth of {i} inconsistent with its parent")

    @property
    def d(self) -> int:
        return self.tree.d

    def non_root_vertices(self) -> list[int]:
        return [i for i in range(self.d) if i != self.root]


class WeightedGraph:
    """The complete graph on ``0..d-1`` with finite real edge weights.

    Weights live in ``matrix``, a dense symmetric ``d``-by-``d`` array
    whose diagonal is NaN.  Build one with :meth:`from_matrix`, the
    validating constructor, or ``_adopt`` over a fresh matrix without its
    copy; every instance is therefore complete, and the maximum spanning
    tree and the checks against it need no checks of their own.
    """

    __slots__ = ("d", "matrix")

    def __init__(self, matrix: np.ndarray) -> None:
        self.d = matrix.shape[0]
        self.matrix = matrix

    @staticmethod
    def from_matrix(matrix: np.ndarray) -> "WeightedGraph":
        """Complete graph from a symmetric matrix; the diagonal is ignored, and ``matrix`` is copied."""
        return WeightedGraph._adopt(np.array(matrix, dtype=float))

    @staticmethod
    def _adopt(m: np.ndarray) -> "WeightedGraph":
        """:meth:`from_matrix` over ``m`` itself, a fresh float array that its builder gives up."""
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError(f"weight matrix must be square, got shape {m.shape}")
        if not m.size:
            raise InvalidInputError("vertex count must be >= 1, got 0")
        np.fill_diagonal(m, 0.0)
        if not (np.isfinite(m).all() and np.array_equal(m, m.T)):
            # name the first bad entry, finiteness first: NaN compares unequal to itself
            non_finite = np.argwhere(np.triu(~np.isfinite(m), 1))
            if non_finite.size:
                i, j = non_finite[0]
                raise InvalidInputError(f"weight of edge ({i}, {j}) is not finite: {float(m[i, j])!r}")
            i, j = np.argwhere(np.triu(m != m.T, 1))[0]
            raise InvalidInputError(f"weight matrix not symmetric at ({i}, {j})")
        np.fill_diagonal(m, np.nan)
        return WeightedGraph(m)

    def weight(self, i: int, j: int) -> float:
        e = canonical_edge(i, j)
        if not (0 <= e[0] and e[1] < self.d):
            raise InvalidInputError(f"edge {e} is out of range for {self.d} vertices")
        return float(self.matrix[e])


@dataclass(frozen=True)
class MstResult:
    """A maximum spanning tree, its weight, an exact uniqueness flag, and its rooting at 0.

    The same for a graph whether or not :func:`maximum_spanning_tree` was
    handed a candidate: a certified candidate is the tree Prim would find.
    """

    tree: Tree
    total_weight: float
    is_unique: bool
    rooted: RootedTree


def _unchecked(cls, **fields):
    """A ``cls`` instance built without its checks, for values correct by construction."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def maximum_spanning_tree(g: WeightedGraph, *, candidate: RootedTree | None = None) -> MstResult:
    """Maximum-weight spanning tree of a complete weighted graph.

    Dense Prim from vertex 0: every vertex outside the tree keeps its best
    edge into it, and each step joins the best of those.  Edges compare by
    the module's strict total edge order, under which the maximum spanning
    tree is unique, so the result (including tie resolution) is identical
    across runs and platforms, and equals Kruskal's greedy tree over that
    order.  ``total_weight`` sums the tree edges in that order.  Prim grows
    the tree from vertex 0, so the parent each vertex joined through roots
    it there: :func:`mst_is_unique` certifies that rooting, which
    ``rooted`` keeps.

    A ``candidate`` is certified first.  When every non-tree weight falls
    strictly below its bottleneck, the candidate is the unique maximum, so
    it is the tree Prim would find under any tie order: it is returned,
    rooted at 0, and Prim does not run.  On a heavier non-tree edge Prim
    runs as without one.  On a tie the candidate is a maximum that is not
    unique, so no maximum is: Prim runs, and its tree is not certified
    again.  The result is the same either way.
    """
    tied = False
    if candidate is not None:
        if candidate.d != g.d:
            raise InvalidInputError(f"tree on {candidate.d} vertices does not span graph on {g.d}")
        margin = _tree_gaps(g, candidate).min()
        if margin > 0:
            rooted = candidate if candidate.root == 0 else root_tree(candidate.tree, 0)
            return MstResult(rooted.tree, _total_weight(g, rooted), True, rooted)
        tied = margin == 0
    rooted = _prim(g)
    return MstResult(rooted.tree, _total_weight(g, rooted), not tied and mst_is_unique(g, rooted), rooted)


def _prim(g: WeightedGraph) -> RootedTree:
    """Prim's maximum spanning tree of ``g`` under the strict total edge order, rooted at 0."""
    w = g.matrix
    outside = np.ones(g.d, dtype=bool)
    outside[0] = False
    best_w = np.where(outside, w[0], -np.inf)
    best_u = np.zeros(g.d, dtype=np.intp)
    parent, depth = [-1] * g.d, [0] * g.d
    for _ in range(g.d - 1):
        v = int(best_w.argmax())
        if np.count_nonzero(best_w == best_w[v]) > 1:
            # a tie for the top weight: the smallest (min, max) pair wins
            ties = np.flatnonzero(best_w == best_w[v])
            lo = np.minimum(best_u[ties], ties)
            hi = np.maximum(best_u[ties], ties)
            v = int(ties[np.lexsort((hi, lo))[0]])
        parent[v] = u = int(best_u[v])
        depth[v] = depth[u] + 1
        outside[v] = False
        best_w[v] = -np.inf
        # Candidate edges into one outside vertex share it, so among equal
        # weights the canonical order prefers the smaller other endpoint.
        row = w[v]
        better = outside & ((row > best_w) | ((row == best_w) & (v < best_u)))
        np.putmask(best_w, better, row)
        np.putmask(best_u, better, v)
    # a vertex's best_u stays fixed once it joins: it is the vertex's parent
    v = np.arange(1, g.d)
    u = best_u[1:]
    edges = frozenset(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
    tree = _unchecked(Tree, d=g.d, edges=edges)
    return _unchecked(RootedTree, tree=tree, root=0, parent=tuple(parent), depth=tuple(depth))


def _total_weight(g: WeightedGraph, rt: RootedTree) -> float:
    """The weights of ``rt``'s edges summed in the strict total edge order, so over any rooting."""
    parent = np.array(rt.parent, dtype=np.intp)
    v = np.flatnonzero(parent >= 0)
    u = parent[v]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    weights = g.matrix[v, u]
    total = 0.0
    for weight in weights[np.lexsort((hi, lo, -weights))].tolist():
        total += weight
    return total


def _parent_first_order(rt: RootedTree) -> np.ndarray:
    """Vertices by ascending depth, ties by index: each parent precedes its children."""
    return np.argsort(rt.depth, kind="stable")


def _walk(rt: RootedTree) -> tuple[np.ndarray, Iterator[tuple[int, int, int, int]], np.ndarray]:
    """A parent-first walk of ``rt``: its order, its joins, and each vertex's position in it.

    The order is :func:`_parent_first_order`.  Join ``(k, v, u, pu)`` puts
    ``v`` at position ``k`` and its parent ``u`` at ``pu < k``.  The tree
    path from ``v`` to any vertex before it starts with the edge to ``u``,
    so a matrix of path quantities kept in walk order gains row and column
    ``k`` over the prefix ``[:k]`` from row ``pu``; :func:`_to_vertex_order`
    puts such a matrix back in vertex order.
    """
    order = _parent_first_order(rt)
    pos = np.argsort(order)
    at = pos.tolist()
    joins = ((k, v, rt.parent[v], at[rt.parent[v]]) for k, v in enumerate(order.tolist()) if k)
    return order, joins, pos


def _to_vertex_order(x: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Walk-order matrix ``x`` gathered back to vertex order, in ``x`` itself; returns ``x``.

    The row gather makes the one temporary; ``clip`` lets the column gather
    write into ``x`` unbuffered, and every position is in range anyway.
    """
    return x.take(pos, 0).take(pos, 1, out=x, mode="clip")


def _hop_and_meet_matrices(rt: RootedTree) -> tuple[np.ndarray, np.ndarray]:
    """First-hop and deepest-common-ancestor matrices of a rooted tree.

    ``hop[i, j]`` is the vertex after ``i`` on the tree path to ``j``, so
    it equals ``j`` exactly when ``i`` and ``j`` are adjacent.
    ``meet[i, j]`` is the deepest common ancestor of ``i`` and ``j``, a
    vertex being its own ancestor.  Both diagonals hold the vertex itself.
    """
    order, joins, pos = _walk(rt)
    hop = np.empty((rt.d, rt.d), dtype=np.intp)
    meet = np.empty((rt.d, rt.d), dtype=np.intp)
    np.fill_diagonal(hop, order)
    np.fill_diagonal(meet, order)
    for k, v, u, pu in joins:
        hop[k, :k] = u
        hop[:k, k] = hop[:k, pu]
        hop[pu, k] = v
        meet[k, :k] = meet[:k, k] = meet[pu, :k]
    return _to_vertex_order(hop, pos), _to_vertex_order(meet, pos)


def mst_is_unique(g: WeightedGraph, t: Tree | RootedTree) -> bool:
    """Exact uniqueness certificate for a maximum spanning tree.

    ``t`` is the unique maximum iff every non-tree edge ``{i, j}`` weighs
    strictly less than its bottleneck, the lightest edge on the tree path
    between ``i`` and ``j``: iff the least gap of :func:`_tree_gaps`, the
    tree margin, is positive; a zero gap is a tie.  The bottleneck matrix
    fills over the prefixes of a parent-first walk, of ``t`` rooted at 0,
    or from its own root when ``t`` comes rooted.  Raises if ``t`` does
    not span ``g`` or is not maximal, naming the first non-tree edge in
    row-major upper-triangle order that outweighs an edge on its path.
    """
    if t.d != g.d:
        raise InvalidInputError(f"tree on {t.d} vertices does not span graph on {g.d}")
    gaps = _tree_gaps(g, t if isinstance(t, RootedTree) else root_tree(t, 0))
    margin = gaps.min()
    if margin < 0:
        i, j = np.argwhere(np.triu(gaps < 0, 1))[0].tolist()
        raise InvalidInputError(
            f"tree is not a maximum spanning tree: non-tree edge ({i}, {j}) "
            f"outweighs a tree edge on its path"
        )
    return bool(margin > 0)


def _tree_gaps(g: WeightedGraph, rt: RootedTree) -> np.ndarray:
    """Each non-tree pair's bottleneck on spanning tree ``rt`` minus its weight in ``g``.

    The diagonal and the tree edges hold +inf, so the least entry is the
    tree margin.  Every bottleneck is a copy of a weight, and for finite
    doubles a difference is negative exactly when the weight is the larger
    and zero exactly when the two are equal, so the signs are exact.
    """
    w = g.matrix
    _, joins, pos = _walk(rt)
    # a path minimum is exact, so the walk cannot change a bit
    gaps = np.full((g.d, g.d), np.inf)
    for k, v, u, pu in joins:
        gaps[k, :k] = gaps[:k, k] = np.minimum(gaps[pu, :k], w[u, v])
    _to_vertex_order(gaps, pos)
    with np.errstate(over="ignore"):  # an overflow to +-inf keeps the sign
        gaps -= w
    np.fill_diagonal(gaps, np.inf)
    parent = np.array(rt.parent, dtype=np.intp)
    v = np.flatnonzero(parent >= 0)
    gaps[v, parent[v]] = gaps[parent[v], v] = np.inf
    return gaps


def _path_neighbor_gaps(x: np.ndarray, hop: np.ndarray) -> tuple[float, int]:
    """Least ``min(x[i, k], x[k, j]) - x[i, j]`` over nonadjacent ordered pairs, ``k = hop[i, j]``, and their count.

    For finite doubles a gap is positive exactly when ``x[i, j]`` is smaller; as rounding is
    monotone, the least is that of ``x[i, k] - x[i, j]`` and ``x[k, j] - x[i, j]`` taken in turn.
    """
    nonadjacent = hop != np.arange(len(x))
    least = np.inf
    for axis in (1, 0):  # x[i, k], then x[k, j]
        gaps = np.take_along_axis(x, hop, axis)
        gaps -= x
        least = np.minimum(least, gaps.min(initial=np.inf, where=nonadjacent))
        del gaps  # before the next gather
    return float(least), int(np.count_nonzero(nonadjacent))


def _tree_from_pruefer(seq: Sequence[int], d: int) -> Tree:
    """Decode a length-``d-2`` sequence over ``0..d-1`` into its labeled tree."""
    degree = [1] * d
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(d) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append(canonical_edge(leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append(canonical_edge(u, v))
    return Tree(d, frozenset(edges))


def random_tree(d: int, rng: np.random.Generator) -> Tree:
    """Uniformly random labeled tree on ``d`` vertices."""
    if d < 1:
        raise InvalidInputError(f"vertex count must be >= 1, got {d}")
    if d <= 2:
        return Tree(d, frozenset({(0, 1)}) if d == 2 else frozenset())
    try:
        draws = rng.integers(0, d, size=d - 2)
    except ValueError:  # past int64, or past numpy's largest array
        raise InvalidInputError(f"cannot draw a random tree on {d} vertices") from None
    return _tree_from_pruefer([int(s) for s in draws], d)


def _breadth_first(t: Tree, r: int) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first walk of ``t`` from ``r``, neighbors in ascending order.

    Returns the visit order and the parent and depth maps.  ``parent`` is
    ``-1`` at ``r``; a vertex the walk does not reach is left out of the
    order and has depth ``-1``.
    """
    adj = t.adjacency()
    parent = [-1] * t.d
    depth = [-1] * t.d
    depth[r] = 0
    order = [r]
    for v in order:
        for w in adj[v]:
            if depth[w] < 0:
                parent[w] = v
                depth[w] = depth[v] + 1
                order.append(w)
    return order, parent, depth


def root_tree(t: Tree, r: int) -> RootedTree:
    """Orient every edge of ``t`` toward the root ``r`` (breadth-first)."""
    if not (0 <= r < t.d):
        raise InvalidInputError(f"root {r} out of range for {t.d} vertices")
    _, parent, depth = _breadth_first(t, r)
    return RootedTree(t, r, tuple(parent), tuple(depth))


def cluster_by_edge_deletion(
    t: Tree, weights: Mapping[tuple[int, int], float], k: int
) -> list[list[int]]:
    """Partition vertices by deleting the ``k - 1`` lightest tree edges.

    ``weights`` maps each canonical tree edge to its weight, as a fit's
    ``weights`` does; other keys are ignored.  Ties resolve by ascending
    canonical vertex pair, mirroring the fixed order of
    :func:`maximum_spanning_tree`.  Each cluster is sorted and the clusters
    are ordered by their smallest vertex.
    """
    if not (1 <= k <= t.d):
        raise InvalidInputError(f"cluster count {k} out of range 1..{t.d}")
    edges = t.sorted_edges()
    for e in edges:
        if e not in weights:
            raise InvalidInputError(f"no weight given for tree edge {e}")
        if not np.isfinite(weights[e]):
            raise InvalidInputError(f"weight of edge {e} is not finite: {weights[e]!r}")
    cut = set(sorted(edges, key=lambda e: weights[e])[: k - 1])
    order, parent, _ = _breadth_first(t, 0)
    label = list(range(t.d))
    for v in order[1:]:
        if canonical_edge(v, parent[v]) not in cut:
            label[v] = label[parent[v]]
    # Vertices ascend, so each cluster is sorted and the first vertex seen
    # of each, its smallest, fixes the order of the clusters.
    clusters: dict[int, list[int]] = {}
    for v in range(t.d):
        clusters.setdefault(label[v], []).append(v)
    return list(clusters.values())
