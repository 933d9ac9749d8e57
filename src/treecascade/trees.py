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
prefix.  One breadth-first walk, :func:`root_tree`, checks a tree and roots it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Collection, Iterator, Mapping, Sequence

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

    Invariants checked in this order, after ``d >= 1`` by :func:`root_tree`:
    no edge twice, ``d - 1`` edges, each canonical on ``0..d-1``, connected
    (which with the edge count implies acyclic).  The edges, checked as
    given, are kept as a frozenset.  A single-vertex tree has no edges.
    """

    d: int
    edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InvalidInputError(f"vertex count must be >= 1, got {self.d}")
        object.__setattr__(self, "edges", root_tree(self, 0).tree.edges)

    @staticmethod
    def from_edges(d: int, edges: Sequence[tuple[int, int]]) -> "Tree":
        """Build a tree from any iterable of (possibly unordered) vertex pairs, each given once."""
        return Tree(d, [canonical_edge(i, j) for i, j in edges])

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Edges in ascending canonical order; the deterministic iteration order."""
        return sorted(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return canonical_edge(i, j) in self.edges


@dataclass(frozen=True)
class RootedTree:
    """A tree plus a distinguished root, with every edge oriented root-ward.

    ``parent[i]`` is the parent of vertex ``i`` and ``-1`` at the root;
    ``depth[i]`` is the number of edges from ``i`` up to the root; tree and
    root fix both, so the constructor takes and keeps :func:`root_tree`'s.
    """

    tree: Tree
    root: int
    parent: tuple[int, ...]
    depth: tuple[int, ...]

    def __post_init__(self) -> None:
        rt = root_tree(self.tree, self.root)
        if (tuple(self.parent), tuple(self.depth)) != (rt.parent, rt.depth):
            raise InvalidInputError(f"parent/depth maps are not the tree's rooting at {self.root}")
        object.__setattr__(self, "parent", rt.parent)
        object.__setattr__(self, "depth", rt.depth)

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
    """A maximum spanning tree, its weight, an exact uniqueness flag, its rooting at 0, and its margin.

    ``margin``, the least entry of :func:`_tree_gaps` (+inf with no non-tree
    pair), is positive exactly when the tree is unique and 0.0 on a tie.
    The same for a graph whether or not :func:`maximum_spanning_tree` was
    handed a candidate: a certified candidate is the tree Prim would find.
    """

    tree: Tree
    total_weight: float
    is_unique: bool
    rooted: RootedTree
    margin: float


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
    order.  ``total_weight`` is ``math.fsum`` of its weights.  Prim grows
    the tree from vertex 0, so the parent each vertex joined through roots
    it there: :func:`mst_is_unique` certifies that rooting, which
    ``rooted`` keeps.

    A ``candidate`` is certified first.  When every non-tree weight falls
    strictly below its bottleneck, the candidate is the unique maximum, so
    it is the tree Prim would find under any tie order: it is returned,
    rooted at 0, and Prim does not run.  On a heavier non-tree edge Prim
    runs as without one.  On a tie the candidate is a maximum that is not
    unique, so no maximum is: Prim runs, and its tree is not certified
    again.  The result, margin included, is the same either way.
    """
    margin = math.nan if candidate is None else float(_tree_gaps(g, candidate).min())
    if margin > 0:
        rooted = candidate if candidate.root == 0 else root_tree(candidate.tree, 0)
    else:
        rooted = _prim(g)
        if margin != 0:  # no candidate, or one that is not a maximum
            margin = mst_is_unique(g, rooted, margin=True)
    return MstResult(rooted.tree, _total_weight(g, rooted), margin > 0, rooted, margin)


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
    """The weights of ``rt``'s edges, summed correctly rounded, so the same over any rooting."""
    parent = np.array(rt.parent, dtype=np.intp)
    v = np.flatnonzero(parent >= 0)
    return math.fsum(g.matrix[v, parent[v]].tolist())


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


def mst_is_unique(g: WeightedGraph, t: Tree | RootedTree, *, margin: bool = False) -> bool | float:
    """Exact uniqueness certificate for a maximum spanning tree.

    ``t`` is the unique maximum iff every non-tree edge ``{i, j}`` weighs
    strictly less than its bottleneck, the lightest edge on the tree path
    between ``i`` and ``j``: iff the least gap of :func:`_tree_gaps`, the
    tree margin, is positive; a zero gap is a tie.  The bottleneck matrix
    fills over the prefixes of a parent-first walk, of ``t`` rooted at 0,
    or from its own root when ``t`` comes rooted.  Raises if ``t`` does
    not span ``g`` or is not maximal, naming the first non-tree edge in
    row-major upper-triangle order that outweighs an edge on its path.
    With ``margin`` it returns the margin itself, as a float.
    """
    gaps = _tree_gaps(g, t if isinstance(t, RootedTree) else root_tree(t, 0))
    least = float(gaps.min())
    if least < 0:
        i, j = np.argwhere(np.triu(gaps < 0, 1))[0].tolist()
        raise InvalidInputError(
            f"tree is not a maximum spanning tree: non-tree edge ({i}, {j}) "
            f"outweighs a tree edge on its path"
        )
    return least if margin else least > 0


def _tree_gaps(g: WeightedGraph, rt: RootedTree) -> np.ndarray:
    """Each non-tree pair's bottleneck on spanning tree ``rt`` minus its weight in ``g``.

    The diagonal and the tree edges hold +inf, so the least entry is the
    tree margin.  Every bottleneck is a copy of a weight, and for finite
    doubles a difference is negative exactly when the weight is the larger
    and zero exactly when the two are equal, so the signs are exact.
    """
    if rt.d != g.d:
        raise InvalidInputError(f"tree on {rt.d} vertices does not span graph on {g.d}")
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
    if d <= 2:  # Tree rejects d < 1
        return Tree(d, frozenset({(0, 1)}) if d == 2 else frozenset())
    try:
        draws = rng.integers(0, d, size=d - 2)
    except ValueError:  # past int64, or past numpy's largest array
        raise InvalidInputError(f"cannot draw a random tree on {d} vertices") from None
    return _tree_from_pruefer([int(s) for s in draws], d)


def root_tree(t: Tree, r: int) -> RootedTree:
    """``t`` rooted at ``r``: the package's one checked walk over an edge set.

    Checks, with :class:`Tree`'s messages, the root's range, no edge twice,
    the edge count, each pair as canonical on ``0..d-1``, then connectivity,
    which the breadth-first walk orienting every edge toward ``r`` shows.
    """
    d = t.d
    if not (0 <= r < d):
        raise InvalidInputError(f"root {r} out of range for {d} vertices")
    edges = frozenset(t.edges)  # ``t.edges`` itself when a frozenset, and the rooting's tree keeps it
    if len(edges) != len(t.edges):
        seen: set = set()
        raise InvalidInputError(f"edge {next(e for e in t.edges if e in seen or seen.add(e))} is repeated")
    if len(edges) != d - 1:
        raise InvalidInputError(f"a tree on {d} vertices needs {d - 1} edges, got {len(edges)}")
    adj: list[list[int]] = [[] for _ in range(d)]
    for i, j in t.edges:
        if not (0 <= i < j < d):
            raise InvalidInputError(f"edge ({i}, {j}) is not canonical on {d} vertices")
        adj[i].append(j)
        adj[j].append(i)
    parent, depth = [-1] * d, [-1] * d
    depth[r] = 0
    order = [r]
    for v in order:
        for w in adj[v]:
            if depth[w] < 0:
                parent[w] = v
                depth[w] = depth[v] + 1
                order.append(w)
    if len(order) != d:
        raise InvalidInputError("edge set is not connected")
    tree = t if edges is t.edges else _unchecked(Tree, d=d, edges=edges)
    return _unchecked(RootedTree, tree=tree, root=r, parent=tuple(parent), depth=tuple(depth))


def _check_non_root_keys(rt: RootedTree, keys: Collection[int], what: str) -> None:
    """Raise unless ``keys`` are exactly ``rt``'s non-root vertices; ``what`` names them."""
    non_root = set(rt.non_root_vertices())
    if set(keys) != non_root:
        raise InvalidInputError(
            f"{what} must cover exactly the non-root vertices; "
            f"got {sorted(keys)}, expected {sorted(non_root)}"
        )


def cluster_by_edge_deletion(
    t: Tree, weights: Mapping[tuple[int, int], float], k: int
) -> list[list[int]]:
    """Partition vertices by deleting the ``k - 1`` lightest tree edges.

    ``weights`` maps each canonical tree edge to its weight, as a fit's
    ``weights`` does; other keys are ignored.  Ties resolve by ascending
    canonical vertex pair, mirroring the fixed order of
    :func:`maximum_spanning_tree`.  Labels pass down ``root_tree(t, 0)`` in
    parent-first order, as every walk here does.  Each cluster is sorted
    and the clusters are ordered by their smallest vertex.
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
    rt = root_tree(t, 0)
    label = list(range(t.d))
    for v in _parent_first_order(rt).tolist()[1:]:
        if canonical_edge(v, rt.parent[v]) not in cut:
            label[v] = label[rt.parent[v]]
    # Vertices ascend, so each cluster is sorted and the first vertex seen
    # of each, its smallest, fixes the order of the clusters.
    clusters: dict[int, list[int]] = {}
    for v in range(t.d):
        clusters.setdefault(label[v], []).append(v)
    return list(clusters.values())
