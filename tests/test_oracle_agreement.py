"""The dense tree core against the loop oracles in ``oracles.py``.

Claims covered:
  - Prim under the canonical edge order returns Kruskal's tree, with the
    same uniqueness flag and a bit-identical total weight, on tie-heavy
    grid weights.
  - The bottleneck certificate agrees with the path-walk certificate on
    arbitrary trees, raising the same error on non-maximal ones.
  - The array form of the strict-triangle check agrees with the loop.
  - The array form of the covariance-lemma checks returns the loop's
    report, every field exactly equal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    graph_from_weights,
    kruskal_mst,
    loop_covariance_lemmas,
    loop_strict_triangle_condition,
    path_walk_is_unique,
)
from treecascade import (
    InvalidInputError,
    WeightedGraph,
    check_strict_triangle_condition,
    correlation_from_covariance,
    maximum_spanning_tree,
    mst_is_unique,
    population_covariance,
    random_tree,
    random_unit_variance_model,
    verify_covariance_lemmas,
)


def certificate_outcome(certify, g, t):
    """The flag, or the message of the InvalidInputError raised instead."""
    try:
        return certify(g, t)
    except InvalidInputError as exc:
        return f"raised: {exc}"


def assert_same_core(g):
    fast, slow = maximum_spanning_tree(g), kruskal_mst(g)
    assert fast.tree == slow.tree
    assert fast.is_unique == slow.is_unique
    assert fast.total_weight.hex() == slow.total_weight.hex()
    assert check_strict_triangle_condition(g, fast.tree) == loop_strict_triangle_condition(
        g, fast.tree
    )


@st.composite
def grid_graphs(draw):
    # few levels on a 1/64 grid: ties in weight are the common case
    d = draw(st.integers(1, 8))
    levels = draw(st.integers(1, 64))
    ks = draw(st.lists(st.integers(0, levels - 1), min_size=d * (d - 1) // 2,
                       max_size=d * (d - 1) // 2))
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    return graph_from_weights(d, {e: k / 64.0 for e, k in zip(pairs, ks)})


@given(grid_graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_grid_weights_match_oracle(g, seed):
    assert_same_core(g)
    other = random_tree(g.d, np.random.default_rng(seed))
    assert certificate_outcome(mst_is_unique, g, other) == certificate_outcome(
        path_walk_is_unique, g, other
    )
    assert check_strict_triangle_condition(g, other) == loop_strict_triangle_condition(g, other)


def test_non_maximal_trees_raise_like_oracle():
    rng = np.random.default_rng(8)
    raised = 0
    for _ in range(200):
        d = int(rng.integers(3, 9))
        weights = {(i, j): float(rng.integers(0, 8)) / 64.0 for i in range(d) for j in range(i + 1, d)}
        g = graph_from_weights(d, weights)
        other = random_tree(d, rng)
        outcome = certificate_outcome(mst_is_unique, g, other)
        assert outcome == certificate_outcome(path_walk_is_unique, g, other)
        raised += isinstance(outcome, str)
    assert raised > 100


def test_random_cascades_match_oracle():
    rng = np.random.default_rng(40)
    for d in list(range(1, 41)) * 2:
        model = random_unit_variance_model(d, rng)
        corr = correlation_from_covariance(population_covariance(model)).corr
        g = WeightedGraph.from_matrix(corr * corr)
        assert_same_core(g)
        assert maximum_spanning_tree(g).tree == model.rt.tree
        fast, slow = verify_covariance_lemmas(model), loop_covariance_lemmas(model)
        assert len(fast.checks) == len(slow.checks) == 3
        for a, b in zip(fast.checks, slow.checks):
            assert a.name == b.name
            assert a.passed == b.passed
            assert a.worst.hex() == b.worst.hex()
            assert a.measure == b.measure
            assert a.pairs_checked == b.pairs_checked
        assert fast == slow
