"""Tests for trees, rooted trees, and the deterministic maximum spanning tree.

Claims covered:
  - Tree/RootedTree/WeightedGraph validation rejects malformed inputs, and
    Tree accepts exactly the labeled trees among all (d - 1)-edge sets.
  - The MST matches brute-force enumeration over all labeled trees, and
    Kruskal's tree on tie-heavy weights up to d = 40.
  - Uniqueness certification is exact: strict cycle property, no tolerance.
  - A candidate tree, maximal or not, tied or not, yields exactly the
    result of the search without one.
  - The strict path-dominance condition implies a unique maximum.
  - The first-hop and common-ancestor matrices match the path-walk oracles.
  - Monotone re-weighting never changes the selected edge set.
  - Edge-deletion clustering removes exactly the lightest tree edges: for
    every k, vertices share a cluster iff no cut edge lies between them.
  - ``RootedTree`` accepts exactly the rootings its former four rules
    accepted, and a check written once gives its callers one message.
  - ``Tree`` and ``RootedTree`` built from lists compare and hash equal
    to the same values built from a frozenset or by ``root_tree``.
  - What the unsorted, unchecked tree core relies on: ``root_tree``'s
    rooting passes the validating ``RootedTree`` constructor; its
    parents and depths and the clusters do not depend on
    the order a tree's edges iterate in; and ``total_weight`` is
    ``math.fsum`` of the tree's weights, with or without a candidate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import strict_triangle
from oracles import (
    ancestors,
    enumerate_spanning_trees,
    graph_from_weights,
    kruskal_mst,
    lca,
    path_edges,
    path_vertices,
    path_walk_is_unique,
    path_walk_margin,
)
from treecascade import (
    CascadeModel,
    InvalidInputError,
    RootedTree,
    Tree,
    WeightedGraph,
    cluster_by_edge_deletion,
    correlation_from_covariance,
    make_unit_variance_model,
    maximum_spanning_tree,
    mst_is_unique,
    population_covariance,
    random_unit_variance_model,
    root_tree,
)
from treecascade import trees
from treecascade.regression import objective_value
from treecascade.trees import _hop_and_meet_matrices, random_tree

# Drawn once with seed 20260810 and frozen; the expected tree was computed
# by maximizing total weight over all 125 enumerated trees.
FROZEN_D5_WEIGHTS = {
    (0, 1): 0.313236, (0, 2): 0.699718, (0, 3): 0.648136, (0, 4): 0.932276,
    (1, 2): 0.18271, (1, 3): 0.779595, (1, 4): 0.215579, (2, 3): 0.546916,
    (2, 4): 0.51924, (3, 4): 0.870884,
}
FROZEN_D5_MST_EDGES = {(0, 2), (0, 4), (1, 3), (3, 4)}


def complete_graph(d, weight_map):
    return graph_from_weights(d, dict(weight_map))


class TestTreeType:
    def test_single_vertex_tree_has_no_edges(self):
        t = Tree(1)
        assert t.d == 1 and t.edges == frozenset()

    def test_edge_count_enforced(self):
        with pytest.raises(InvalidInputError):
            Tree(3, frozenset({(0, 1)}))

    def test_disconnected_rejected(self):
        # right edge count, but a 3-cycle plus an isolated vertex
        with pytest.raises(InvalidInputError, match="not connected"):
            Tree.from_edges(4, [(0, 1), (1, 2), (0, 2)])

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_connectivity_exhaustive(self, d):
        # of all (d - 1)-subsets of the vertex pairs, exactly the labeled
        # trees are accepted; every other subset holds a cycle and leaves
        # some vertex unreached
        trees = {t.edges for t in enumerate_spanning_trees(d)}
        pairs = list(itertools.combinations(range(d), 2))
        for subset in itertools.combinations(pairs, d - 1):
            edges = frozenset(subset)
            if edges in trees:
                assert Tree(d, edges).edges == edges
            else:
                with pytest.raises(InvalidInputError, match="not connected"):
                    Tree(d, edges)

    def test_from_edges_canonicalizes(self):
        t = Tree.from_edges(3, [(1, 0), (2, 1)])
        assert t.sorted_edges() == [(0, 1), (1, 2)]

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInputError):
            Tree.from_edges(2, [(1, 1)])


class TestRootTree:
    def test_path_rooted_at_end(self):
        t = Tree.from_edges(3, [(0, 1), (1, 2)])
        rt = root_tree(t, 0)
        assert rt.parent[1] == 0 and rt.parent[2] == 1

    def test_path_rooted_at_other_end(self):
        t = Tree.from_edges(3, [(0, 1), (1, 2)])
        rt = root_tree(t, 2)
        assert rt.parent[1] == 2 and rt.parent[0] == 1

    def test_star_rooted_at_leaf(self):
        t = Tree.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        rt = root_tree(t, 1)
        assert rt.parent[0] == 1
        assert rt.parent[2] == rt.parent[3] == rt.parent[4] == 0

    def test_root_out_of_range(self):
        with pytest.raises(InvalidInputError):
            root_tree(Tree.from_edges(2, [(0, 1)]), 2)

    def test_rooting_passes_the_validating_constructor(self):
        # RootedTree compares its maps with root_tree's, so these must pass
        rng = np.random.default_rng(8)
        for d in [*range(1, 13), 30, 60]:
            t = random_tree(d, rng)
            for r in range(d):
                rt = root_tree(t, r)
                assert RootedTree(t, r, rt.parent, rt.depth) == rt

    def test_walk_does_not_depend_on_edge_order(self):
        # a frozenset built in another order iterates in another order, most of the time
        rng = np.random.default_rng(9)
        reordered = 0
        for d in range(2, 61):
            t = random_tree(d, rng)
            weights = {e: int(rng.integers(0, 4)) / 4.0 for e in t.edges}
            shuffled = list(t.edges)
            rng.shuffle(shuffled)
            other = Tree(d, frozenset(shuffled))
            reordered += list(other.edges) != list(t.edges)
            for r in range(d):
                rt, got = root_tree(t, r), root_tree(other, r)
                assert (got.parent, got.depth) == (rt.parent, rt.depth), (d, r)
            for k in range(1, d + 1):
                assert cluster_by_edge_deletion(other, weights, k) == cluster_by_edge_deletion(t, weights, k)
        assert reordered > 30

    def test_parent_walk_terminates_at_root(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            t = random_tree(d, rng)
            r = int(rng.integers(d))
            rt = root_tree(t, r)
            for v in range(d):
                anc = ancestors(rt, v)
                assert len(anc) <= d - 1
                if v != r:
                    assert anc[-1] == r


def old_rooting_rules_hold(t, root, parent, depth) -> bool:
    """The four rules RootedTree once applied one by one, after its root's range.

    The maps cover every vertex; the root has parent -1 and depth 0; every
    other vertex's parent is a tree neighbour; and its depth is one more
    than its parent's.
    """
    d = t.d
    if not (0 <= root < d) or len(parent) != d or len(depth) != d:
        return False
    if parent[root] != -1 or depth[root] != 0:
        return False
    return all(
        parent[i] != i and t.has_edge(i, parent[i]) and depth[i] == depth[parent[i]] + 1
        for i in range(d)
        if i != root
    )


def mutated_rootings(t, r, rng):
    """``t``'s rooting at ``r`` and rootings of it with one fault each, as (root, parent, depth)."""
    rt = root_tree(t, r)
    parent, depth = list(rt.parent), list(rt.depth)
    yield r, parent, depth
    yield r, tuple(parent), tuple(depth)
    for s in range(t.d):
        if s != r:
            other = root_tree(t, s)
            yield r, other.parent, other.depth  # a valid rooting at another root
    yield r, parent[:-1], depth  # one entry short
    yield r, parent, depth[:-1]
    yield t.d, parent, depth  # a root out of range
    for v in range(t.d):
        for step in (-1, 1):
            moved = depth.copy()
            moved[v] += step
            yield r, parent, moved
    non_root = [v for v in range(t.d) if v != r]
    if not non_root:
        return
    v = int(rng.choice(non_root))
    for p in range(-1, t.d):
        if p != parent[v]:
            # a non-neighbour, the vertex itself, one of its children, or -1
            changed = parent.copy()
            changed[v] = p
            yield r, changed, depth
    for u in (u for u in range(t.d) if u != r and t.has_edge(r, u)):
        given = parent.copy()
        given[r] = u  # the root given a parent
        yield r, given, depth
        yield r, given, [k + 1 for k in depth]


class TestRootedTreeConstructor:
    def test_accepts_exactly_what_the_old_rules_accept(self):
        rng = np.random.default_rng(27)
        accepted = rejected = 0
        for d in [*range(1, 9), 13, 30]:
            t = random_tree(d, rng)
            for r in range(d):
                for root, parent, depth in mutated_rootings(t, r, rng):
                    if old_rooting_rules_hold(t, root, parent, depth):
                        got = RootedTree(t, root, parent, depth)
                        rt = root_tree(t, root)
                        assert (tuple(got.parent), tuple(got.depth)) == (rt.parent, rt.depth)
                        accepted += 1
                    else:
                        with pytest.raises(InvalidInputError):
                            RootedTree(t, root, parent, depth)
                        rejected += 1
        assert accepted > 100 and rejected > 1000

    def test_messages(self):
        t = Tree.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidInputError, match=r"^root 3 out of range for 3 vertices$"):
            RootedTree(t, 3, (-1, 0, 1), (0, 1, 2))
        with pytest.raises(InvalidInputError, match=r"^parent/depth maps are not the tree's rooting at 0$"):
            RootedTree(t, 0, (-1, 0, 0), (0, 1, 2))


class TestCanonicalValues:
    def test_values_built_from_lists_compare_and_hash_equal(self):
        t = Tree(3, [(0, 1), (1, 2)])
        same = Tree(3, frozenset({(1, 2), (0, 1)}))
        assert t == same and hash(t) == hash(same)
        rt = root_tree(same, 1)
        given = RootedTree(t, 1, list(rt.parent), list(rt.depth))
        assert given == rt and hash(given) == hash(rt)
        assert (given.parent, given.depth) == ((1, -1, 1), (1, 0, 1))


class TestCheckMessages:
    """Each check is written once, so every caller raises its message, in one order."""

    def test_edge_count_is_checked_before_the_pairs(self):
        with pytest.raises(InvalidInputError, match=r"^a tree on 3 vertices needs 2 edges, got 1$"):
            Tree(3, frozenset({(1, 0)}))

    def test_pairs_are_checked_before_connectivity(self):
        with pytest.raises(InvalidInputError, match=r"^edge \(1, 0\) is not canonical on 3 vertices$"):
            Tree(3, frozenset({(1, 0), (1, 2)}))
        with pytest.raises(InvalidInputError, match=r"^edge \(1, 3\) is not canonical on 3 vertices$"):
            Tree(3, frozenset({(1, 3), (1, 2)}))

    def test_connectivity(self):
        with pytest.raises(InvalidInputError, match=r"^edge set is not connected$"):
            Tree(4, frozenset({(0, 1), (1, 2), (0, 2)}))
        with pytest.raises(InvalidInputError, match=r"^edge set is not connected$"):
            Tree(4, [(0, 1), (1, 2), (0, 2)])

    def test_repeated_edge_is_named_before_the_count(self):
        # a list is checked as given, and from_edges keeps every pair it is handed,
        # so a repeated edge reads one message whichever way it comes in
        for build in (
            lambda: Tree(3, [(0, 1), (0, 1)]),
            lambda: Tree.from_edges(3, [(0, 1), (1, 0)]),
            lambda: Tree.from_edges(3, [(0, 1), (1, 0), (1, 2)]),
            lambda: Tree(3, [(1, 0), (1, 0)]),  # before the pair check, too
            lambda: RootedTree(trees._unchecked(Tree, d=3, edges=((0, 1), (1, 2), (0, 1))), 0, (-1, 0, 1), (0, 1, 2)),
        ):
            with pytest.raises(InvalidInputError, match=r"^edge \((0|1), (1|0)\) is repeated$"):
                build()
        with pytest.raises(InvalidInputError, match=r"^edge \(1, 2\) is repeated$"):
            Tree(4, [(0, 1), (1, 2), (2, 3), (1, 2), (0, 1)])  # the first to come twice

    @pytest.mark.parametrize("d", [0, -3])
    def test_random_tree_vertex_count(self, d):
        with pytest.raises(InvalidInputError, match=rf"^vertex count must be >= 1, got {d}$"):
            random_tree(d, np.random.default_rng(0))

    def test_coefficient_coverage(self):
        rt = root_tree(Tree.from_edges(3, [(0, 1), (1, 2)]), 0)
        corr = correlation_from_covariance(np.eye(3))
        expected = r"must cover exactly the non-root vertices; got \[2\], expected \[1, 2\]$"
        with pytest.raises(InvalidInputError, match="^coefficients " + expected):
            CascadeModel(rt, {2: 0.5}, dict.fromkeys(range(3), 1.0))
        with pytest.raises(InvalidInputError, match="^edge correlations " + expected):
            make_unit_variance_model(rt, {2: 0.5})
        with pytest.raises(InvalidInputError, match="^coefficients " + expected):
            objective_value(rt, {2: 0.5}, corr)


class TestLca:
    def test_self_is_own_ancestor(self):
        rt = root_tree(Tree.from_edges(3, [(0, 1), (1, 2)]), 0)
        assert lca(rt, 2, 2) == 2

    def test_star_meets_at_center(self):
        rt = root_tree(Tree.from_edges(3, [(0, 1), (0, 2)]), 0)
        assert lca(rt, 1, 2) == 0

    def test_shared_parent(self):
        t = Tree.from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
        rt = root_tree(t, 0)
        assert lca(rt, 3, 4) == 1

    def test_ancestor_descendant_pair(self):
        t = Tree.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        rt = root_tree(t, 0)
        assert lca(rt, 1, 3) == 1
        assert path_vertices(rt, 3, 0) == [3, 2, 1, 0]
        assert path_edges(rt, 0, 3) == [(0, 1), (1, 2), (2, 3)]

    def test_matrices_match_path_walks(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d = int(rng.integers(1, 13))
            rt = root_tree(random_tree(d, rng), int(rng.integers(d)))
            hop, meet = _hop_and_meet_matrices(rt)
            for i in range(d):
                for j in range(d):
                    assert meet[i, j] == lca(rt, i, j)
                    assert hop[i, j] == (i if i == j else path_vertices(rt, i, j)[1])


class TestWeightedGraph:
    def test_non_finite_weight_rejected(self):
        with pytest.raises(InvalidInputError, match=r"\(0, 1\) is not finite: nan"):
            graph_from_weights(2, {(0, 1): math.nan})
        with pytest.raises(InvalidInputError, match=r"\(0, 1\) is not finite: inf"):
            graph_from_weights(2, {(0, 1): math.inf})

    def test_from_matrix_requires_symmetry(self):
        with pytest.raises(InvalidInputError):
            WeightedGraph.from_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_missing_weight_named(self):
        with pytest.raises(InvalidInputError, match=r"\(0, 2\)"):
            graph_from_weights(3, {(0, 1): 1.0, (1, 2): 1.0})
        g = graph_from_weights(3, {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0})
        assert g.weight(2, 0) == 2.0
        with pytest.raises(InvalidInputError, match=r"\(1, 3\)"):
            g.weight(1, 3)

    def test_from_matrix_non_finite_named(self):
        m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, math.inf], [2.0, math.inf, 0.0]])
        with pytest.raises(InvalidInputError, match=r"\(1, 2\) is not finite: inf"):
            WeightedGraph.from_matrix(m)

    def test_completeness(self):
        g = WeightedGraph.from_matrix(np.array([[7.0, 1.0], [1.0, math.nan]]))
        assert g.weight(1, 0) == 1.0

    def test_from_matrix_ignores_the_diagonal(self):
        g = WeightedGraph.from_matrix(np.array([[math.inf, 1.0], [1.0, -math.inf]]))
        assert g.weight(0, 1) == 1.0

    def test_from_matrix_leaves_the_callers_matrix_untouched(self):
        m = np.array([[5.0, 1.0, 2.0], [1.0, 6.0, 3.0], [2.0, 3.0, 7.0]])
        g = WeightedGraph.from_matrix(m)
        assert np.array_equal(m, [[5.0, 1.0, 2.0], [1.0, 6.0, 3.0], [2.0, 3.0, 7.0]])  # no NaN diagonal
        assert not np.shares_memory(g.matrix, m)
        assert np.isnan(np.diag(g.matrix)).all() and g.weight(1, 2) == 3.0

    def test_from_matrix_names_non_finite_before_asymmetry(self):
        m = np.array([[0.0, 1.0, 2.0], [3.0, 0.0, math.nan], [2.0, math.nan, 0.0]])
        with pytest.raises(InvalidInputError, match=r"\(1, 2\) is not finite: nan"):
            WeightedGraph.from_matrix(m)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidInputError, match="vertex count must be >= 1, got 0"):
            WeightedGraph.from_matrix(np.zeros((0, 0)))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^weight matrix must be square, got shape \(2, 3\)$"):
            WeightedGraph.from_matrix(np.zeros((2, 3)))


class TestMaximumSpanningTree:
    def test_two_vertices(self):
        res = maximum_spanning_tree(complete_graph(2, {(0, 1): 0.5}))
        assert res.tree.sorted_edges() == [(0, 1)]
        assert res.total_weight == 0.5
        assert res.is_unique

    def test_three_vertices_against_enumeration(self):
        # brute force over the 3 spanning trees of K3 picks {01, 12} at 1.7
        g = complete_graph(3, {(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.1})
        res = maximum_spanning_tree(g)
        assert res.tree.edges == frozenset({(0, 1), (1, 2)})
        assert res.total_weight == pytest.approx(1.7)
        assert res.is_unique

    def test_single_vertex(self):
        res = maximum_spanning_tree(complete_graph(1, {}))
        assert res.tree.d == 1 and res.total_weight == 0.0 and res.is_unique

    def test_incomplete_graph_rejected(self):
        with pytest.raises(InvalidInputError):
            complete_graph(3, {(0, 1): 1.0})

    def test_frozen_d5_fixture_matches_enumeration_oracle(self):
        g = complete_graph(5, FROZEN_D5_WEIGHTS)
        res = maximum_spanning_tree(g)
        assert set(res.tree.edges) == FROZEN_D5_MST_EDGES
        # re-derive the oracle answer at runtime as well
        best = max(
            enumerate_spanning_trees(5),
            key=lambda t: sum(FROZEN_D5_WEIGHTS[e] for e in t.sorted_edges()),
        )
        assert set(best.edges) == FROZEN_D5_MST_EDGES

    def test_oracle_equivalence_random_sweep(self):
        # spec sweep: d <= 6, 100 random draws; weight always matches the
        # enumerated maximum, and the edge set matches when unique
        rng = np.random.default_rng(42)
        for trial in range(100):
            d = int(rng.integers(2, 7))
            weights = {
                (i, j): float(rng.uniform(0, 1)) for i in range(d) for j in range(i + 1, d)
            }
            g = complete_graph(d, weights)
            res = maximum_spanning_tree(g)
            totals = {
                t.edges: sum(weights[e] for e in t.sorted_edges())
                for t in enumerate_spanning_trees(d)
            }
            best_weight = max(totals.values())
            assert res.total_weight == pytest.approx(best_weight, abs=1e-12)
            if res.is_unique:
                argmax = [edges for edges, w in totals.items() if w == best_weight]
                assert len(argmax) == 1 and argmax[0] == res.tree.edges

    def test_tie_heavy_grid_weights_match_kruskal(self):
        # one to three weight levels, so most steps of Prim take the tie path
        rng = np.random.default_rng(2022)
        for d in range(9, 41):
            for levels in (1, 2, 3):
                k = rng.integers(0, levels, (d, d))
                g = WeightedGraph.from_matrix((np.triu(k, 1) + np.triu(k, 1).T) / 4.0)
                fast, slow = maximum_spanning_tree(g), kruskal_mst(g)
                assert fast.tree == slow.tree, (d, levels)
                assert fast.is_unique == slow.is_unique, (d, levels)
                assert fast.total_weight.hex() == slow.total_weight.hex(), (d, levels)
                # the rooting and the certificate Prim fills in its join order
                rt = root_tree(fast.tree, 0)
                assert fast.rooted.parent == rt.parent, (d, levels)
                assert fast.rooted.depth == rt.depth, (d, levels)
                assert fast.is_unique == path_walk_is_unique(g, fast.tree), (d, levels)

    def test_total_weight_is_fsum_of_the_tree_weights(self):
        # tenths round, so a plain left-to-right sum would depend on the edge order
        rng = np.random.default_rng(12)
        for d in range(2, 41):
            k = rng.integers(0, 64, (d, d))
            g = WeightedGraph.from_matrix((np.triu(k, 1) + np.triu(k, 1).T) / 10.0)
            res = maximum_spanning_tree(g)
            expected = math.fsum(g.weight(*e) for e in res.tree.edges)
            assert res.total_weight.hex() == expected.hex(), d
            candidate = root_tree(res.tree, int(rng.integers(d)))
            assert maximum_spanning_tree(g, candidate=candidate).total_weight.hex() == expected.hex(), d

    def test_determinism(self):
        g1 = complete_graph(5, FROZEN_D5_WEIGHTS)
        g2 = complete_graph(5, dict(FROZEN_D5_WEIGHTS))
        assert maximum_spanning_tree(g1) == maximum_spanning_tree(g2)


def equal_weight_exchange(g, rt):
    """``rt``'s tree with one path edge swapped for an equal-weight non-tree edge, or None."""
    for i, j in itertools.combinations(range(g.d), 2):
        if rt.tree.has_edge(i, j):
            continue
        for e in path_edges(rt, i, j):
            if g.weight(*e) == g.weight(i, j):
                return Tree(g.d, (rt.tree.edges - {e}) | {(i, j)})
    return None


class TestCandidateCertificate:
    """A candidate tree changes how the maximum is found, never what it is."""

    @given(
        st.integers(2, 9).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.sampled_from([1, 2, 3, 63]).flatmap(
                    lambda top: st.lists(
                        st.integers(0, top), min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2
                    )
                ),
                st.integers(0, d - 1),
                st.integers(0, 2**32 - 1),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_candidate_gives_the_search_result(self, case):
        d, levels, r, seed = case
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        # tenths round, so only a correctly rounded total has the same bits in any order
        g = complete_graph(d, {e: k / 10.0 for e, k in zip(pairs, levels)})
        expected = maximum_spanning_tree(g)
        slow = kruskal_mst(g)
        assert expected.tree == slow.tree
        assert expected.total_weight.hex() == slow.total_weight.hex()
        assert expected.is_unique == slow.is_unique
        candidates = [
            expected.tree,  # Prim's own tree, rooted at a drawn vertex
            random_tree(d, np.random.default_rng(seed)),  # usually not maximal
            equal_weight_exchange(g, expected.rooted),  # another maximum, where a tie allows
        ]
        for t in filter(None, candidates):
            got = maximum_spanning_tree(g, candidate=root_tree(t, r))
            assert got.tree == expected.tree, t
            assert got.total_weight.hex() == expected.total_weight.hex(), t
            assert got.is_unique == expected.is_unique, t
            assert got.rooted.root == 0
            assert got.rooted.parent == expected.rooted.parent, t
            assert got.rooted.depth == expected.rooted.depth, t

    @given(
        st.integers(1, 8).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.sampled_from([1, 2, 3, 63]).flatmap(
                    lambda top: st.lists(
                        st.integers(0, top), min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2
                    )
                ),
                st.integers(0, d - 1),
                st.integers(0, 2**32 - 1),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_margin_matches_the_path_walk_oracle(self, case):
        d, levels, r, seed = case
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        g = complete_graph(d, {e: k / 10.0 for e, k in zip(pairs, levels)})
        expected = maximum_spanning_tree(g)
        assert expected.margin == path_walk_margin(g, expected.tree)
        assert expected.margin == kruskal_mst(g).margin
        assert expected.is_unique == (expected.margin > 0)
        if not expected.is_unique:
            assert math.copysign(1.0, expected.margin) == 1.0 and expected.margin == 0.0
        if d <= 2:
            assert expected.margin == math.inf
        candidates = [
            expected.tree,
            random_tree(d, np.random.default_rng(seed)),
            equal_weight_exchange(g, expected.rooted),
        ]
        for t in filter(None, candidates):
            assert maximum_spanning_tree(g, candidate=root_tree(t, r)).margin == expected.margin, t

    def test_tied_candidate_builds_one_gap_matrix(self, monkeypatch):
        # a maximum candidate with a zero gap already shows that no maximum is unique
        d = 50
        g = WeightedGraph.from_matrix(np.ones((d, d)))
        expected = maximum_spanning_tree(g)
        calls = []
        tree_gaps = trees._tree_gaps

        def counted(*args):
            calls.append(args)
            return tree_gaps(*args)

        monkeypatch.setattr(trees, "_tree_gaps", counted)
        chain = Tree.from_edges(d, [(v, v + 1) for v in range(d - 1)])
        got = maximum_spanning_tree(g, candidate=root_tree(chain, 0))
        assert len(calls) == 1
        assert got == expected
        assert got.is_unique is False

    @pytest.mark.parametrize("d", [2, 4])
    def test_tree_on_another_vertex_count_rejected(self, d):
        g = complete_graph(3, {(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.1})
        t = random_tree(d, np.random.default_rng(0))
        for tree in (t, root_tree(t, d - 1)):
            with pytest.raises(InvalidInputError, match=f"^tree on {d} vertices does not span graph on 3$"):
                mst_is_unique(g, tree)

    @pytest.mark.parametrize("d", [2, 4])
    def test_candidate_on_another_vertex_count_rejected(self, d):
        g = complete_graph(3, {(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.1})
        t = random_tree(d, np.random.default_rng(0))
        with pytest.raises(InvalidInputError, match=f"tree on {d} vertices does not span"):
            maximum_spanning_tree(g, candidate=root_tree(t, 0))


class TestMstUniqueness:
    def test_strict_maximum_is_unique(self):
        g = complete_graph(3, {(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.1})
        t = Tree.from_edges(3, [(0, 1), (1, 2)])
        assert mst_is_unique(g, t) is True

    def test_all_equal_weights_tie(self):
        g = complete_graph(3, {(0, 1): 0.5, (1, 2): 0.5, (0, 2): 0.5})
        t = maximum_spanning_tree(g).tree
        assert mst_is_unique(g, t) is False

    def test_cascade_weights_give_unique_mst(self):
        # squared correlations of a 4-vertex unit-variance cascade certify
        # its generating tree as the unique maximum
        rng = np.random.default_rng(11)
        model = random_unit_variance_model(4, rng)
        corr = correlation_from_covariance(population_covariance(model)).corr
        g = WeightedGraph.from_matrix(corr * corr)
        assert mst_is_unique(g, model.rt.tree) is True

    def test_non_maximal_tree_rejected(self):
        g = complete_graph(3, {(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.1})
        not_max = Tree.from_edges(3, [(0, 2), (1, 2)])
        with pytest.raises(InvalidInputError, match="not a maximum"):
            mst_is_unique(g, not_max)

    def test_wrong_vertex_count_rejected(self):
        g = complete_graph(3, {(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.1})
        with pytest.raises(InvalidInputError):
            mst_is_unique(g, Tree.from_edges(2, [(0, 1)]))

    def test_every_maximum_tree_matches_path_walks(self):
        # trees Prim did not grow: every maximum of tie-heavy grid weights
        rng = np.random.default_rng(6)
        checked = 0
        for d in range(2, 7):
            for levels in (1, 2, 3):
                k = rng.integers(0, levels, (d, d))
                g = WeightedGraph.from_matrix((np.triu(k, 1) + np.triu(k, 1).T) / 4.0)
                best = maximum_spanning_tree(g).total_weight
                for t in enumerate_spanning_trees(d):
                    if sum(g.weight(*e) for e in t.sorted_edges()) == best:
                        expected = path_walk_is_unique(g, t)
                        assert mst_is_unique(g, t) == expected, (d, levels, t)
                        # a rooted tree is walked from its own root
                        assert mst_is_unique(g, root_tree(t, d - 1)) == expected, (d, levels, t)
                        checked += 1
        assert checked > 100

    @pytest.mark.parametrize(
        "bottleneck, weight, expected",
        [
            (5e-324, 0.0, True),  # a gap of the smallest subnormal
            (0.0, 5e-324, None),
            (5e-324, 5e-324, False),
            (-5e-324, -5e-324, False),
            (1e308, -1e308, True),  # a gap past the largest double
            (-1e308, 1e308, None),
            (0.0, -0.0, False),
        ],
    )
    def test_sign_exact_at_the_ends_of_the_float_range(self, bottleneck, weight, expected):
        # the path 0-1-2 with both edges at the bottleneck, and (0, 2) at the weight
        g = complete_graph(3, {(0, 1): bottleneck, (1, 2): bottleneck, (0, 2): weight})
        t = Tree.from_edges(3, [(0, 1), (1, 2)])
        for certify in (mst_is_unique, path_walk_is_unique):
            if expected is None:
                with pytest.raises(InvalidInputError, match=r"non-tree edge \(0, 2\) outweighs"):
                    certify(g, t)
            else:
                assert certify(g, t) is expected

    def test_first_violating_pair_named(self):
        # the path 0-3-2-4-1 leaves out the heavier (1, 2) and (3, 4); a walk
        # from 0 meets 3 and 4 before 1, but (1, 2) comes first in row-major
        # upper-triangle order
        weights = dict.fromkeys(itertools.combinations(range(5), 2), 0.1)
        weights.update({(0, 3): 0.5, (2, 3): 0.5, (2, 4): 0.5, (1, 4): 0.5})
        weights.update({(1, 2): 0.7, (3, 4): 0.8})
        g = complete_graph(5, weights)
        t = Tree.from_edges(5, [(0, 3), (3, 2), (2, 4), (4, 1)])
        with pytest.raises(InvalidInputError, match=r"non-tree edge \(1, 2\) outweighs"):
            mst_is_unique(g, t)
        with pytest.raises(InvalidInputError, match=r"non-tree edge \(1, 2\) outweighs"):
            path_walk_is_unique(g, t)


class TestStrictTriangleCondition:
    def test_holds_on_dominated_path(self):
        g = complete_graph(3, {(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.5})
        t = Tree.from_edges(3, [(0, 1), (1, 2)])
        assert strict_triangle(g, t) is True

    def test_fails_when_shortcut_too_heavy(self):
        g = complete_graph(3, {(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.85})
        t = Tree.from_edges(3, [(0, 1), (1, 2)])
        assert strict_triangle(g, t) is False

    def test_cascade_weights_satisfy_condition(self):
        rng = np.random.default_rng(5)
        model = random_unit_variance_model(6, rng)
        corr = correlation_from_covariance(population_covariance(model)).corr
        g = WeightedGraph.from_matrix(corr * corr)
        assert strict_triangle(g, model.rt.tree) is True

    def test_cascade_graphs_satisfy_condition_and_are_unique(self):
        # every unit-variance cascade weight graph satisfies the dominance
        # condition on its generating tree, which is therefore the unique
        # maximum spanning tree
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(3, 9))
            model = random_unit_variance_model(d, rng)
            corr = correlation_from_covariance(population_covariance(model)).corr
            g = WeightedGraph.from_matrix(corr * corr)
            assert strict_triangle(g, model.rt.tree) is True
            assert mst_is_unique(g, model.rt.tree) is True


class TestEnumeration:
    @pytest.mark.parametrize("d,count", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)])
    def test_cayley_counts(self, d, count):
        trees = list(enumerate_spanning_trees(d))
        assert len(trees) == count
        assert len({t.edges for t in trees}) == count  # pairwise distinct

    def test_size_guard(self):
        with pytest.raises(ValueError, match=r"refusing to enumerate 9\*\*7 spanning trees"):
            list(enumerate_spanning_trees(9))

    def test_every_yield_is_a_valid_tree(self):
        for t in enumerate_spanning_trees(5):
            assert t.d == 5 and len(t.edges) == 4  # Tree validates connectivity


class TestMonotoneInvariance:
    # grid weights are exactly representable, so strictly increasing maps
    # keep distinct weights distinct and preserve exact ties
    @given(
        st.integers(2, 5).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.lists(
                    st.integers(0, 63), min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2
                ),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_increasing_maps_preserve_mst(self, d_and_levels):
        d, levels = d_and_levels
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        base = {e: k / 64.0 for e, k in zip(pairs, levels)}
        reference = maximum_spanning_tree(complete_graph(d, base)).tree.edges
        squared = {e: w * w for e, w in base.items()}
        logged = {e: -0.5 * math.log1p(-w) for e, w in base.items()}
        assert maximum_spanning_tree(complete_graph(d, squared)).tree.edges == reference
        assert maximum_spanning_tree(complete_graph(d, logged)).tree.edges == reference


class TestClustering:
    def path_graph(self):
        weights = {(0, 1): 0.9, (1, 2): 0.1, (2, 3): 0.8}
        full = dict(weights)
        full.update({(0, 2): 0.0, (0, 3): 0.0, (1, 3): 0.0})
        g, t = complete_graph(4, full), Tree.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        return t, {e: g.weight(*e) for e in t.edges}

    def test_k1_is_everything(self):
        t, w = self.path_graph()
        assert cluster_by_edge_deletion(t, w, 1) == [[0, 1, 2, 3]]

    def test_kd_is_singletons(self):
        t, w = self.path_graph()
        assert cluster_by_edge_deletion(t, w, 4) == [[0], [1], [2], [3]]

    def test_k2_cuts_lightest_edge(self):
        t, w = self.path_graph()
        assert cluster_by_edge_deletion(t, w, 2) == [[0, 1], [2, 3]]

    def test_k_out_of_range(self):
        t, w = self.path_graph()
        with pytest.raises(InvalidInputError):
            cluster_by_edge_deletion(t, w, 0)
        with pytest.raises(InvalidInputError):
            cluster_by_edge_deletion(t, w, 5)

    def test_uncovered_tree_edge_named(self):
        t, w = self.path_graph()
        del w[(1, 2)]
        with pytest.raises(InvalidInputError, match=r"\(1, 2\)"):
            cluster_by_edge_deletion(t, w, 2)
        with pytest.raises(InvalidInputError, match=r"\(2, 3\) is not finite: nan"):
            cluster_by_edge_deletion(t, {(0, 1): 0.5, (1, 2): 0.5, (2, 3): math.nan}, 2)

    def test_ties_cut_smallest_pair_first(self):
        t = Tree.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        w = {(0, 1): 0.5, (1, 2): 0.5, (2, 3): 0.5}
        assert cluster_by_edge_deletion(t, w, 2) == [[0], [1, 2, 3]]
        assert cluster_by_edge_deletion(t, w, 3) == [[0], [1], [2, 3]]

    def test_k2_always_splits_at_single_lightest_edge(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            d = int(rng.integers(2, 9))
            t = random_tree(d, rng)
            weights = {
                (i, j): float(rng.uniform(0, 1)) for i in range(d) for j in range(i + 1, d)
            }
            g = complete_graph(d, weights)
            if d == 1:
                continue
            lightest = min(t.edges, key=lambda e: (weights[e], e))
            kept = t.edges - {lightest}
            parts = cluster_by_edge_deletion(t, {e: g.weight(*e) for e in t.edges}, 2)
            assert len(parts) == 2
            for i, j in kept:
                assert any(i in p and j in p for p in parts)

    def test_single_vertex(self):
        assert cluster_by_edge_deletion(Tree(1), {}, 1) == [[0]]

    def test_every_k_matches_path_oracle(self):
        # quarter-grid weights tie often; the k - 1 cut edges are the
        # lightest in canonical order, and two vertices share a cluster
        # exactly when no cut edge lies on the tree path between them
        rng = np.random.default_rng(23)
        for _ in range(60):
            d = int(rng.integers(1, 13))
            t = random_tree(d, rng)
            rt = root_tree(t, 0)
            weights = {e: int(rng.integers(0, 5)) / 4.0 for e in t.sorted_edges()}
            by_lightness = sorted(t.sorted_edges(), key=lambda e: (weights[e], e))
            for k in range(1, d + 1):
                cut = set(by_lightness[: k - 1])
                expected = []
                for i in range(d):
                    if not any(i in cluster for cluster in expected):
                        expected.append(
                            [j for j in range(d) if not cut.intersection(path_edges(rt, i, j))]
                        )
                assert cluster_by_edge_deletion(t, weights, k) == expected
