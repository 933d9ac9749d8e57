"""The dense tree core against the loop oracles in ``oracles.py``.

Claims covered:
  - Prim under the canonical edge order returns Kruskal's tree, with the
    same uniqueness flag and a bit-identical total weight, on tie-heavy
    grid weights.
  - The bottleneck certificate agrees with the path-walk certificate on
    arbitrary trees, raising the same error on non-maximal ones.
  - The least entry of the certificate's gap matrix, under two rootings,
    equals the least path minimum minus weight over the non-tree pairs,
    walked pair by pair, on the same grid-weight, non-maximal and cascade
    cases; it is negative exactly where the path walk raises, and
    positive exactly where it certifies a unique maximum.
  - The path-neighbor gaps that ``verify`` takes over a first-hop matrix
    agree with the strict-triangle loop.
  - The array form of the covariance-lemma checks returns the loop's
    report, every field exactly equal.
  - The one-prediction covariance checks return the two-formula report,
    every field equal and ``worst`` bit for bit, on random models up to
    d = 200 and on chains whose path products underflow, to zero in the
    dense covariance and to the smallest subnormal in the walk's; an
    error of 1e-9 planted at an ancestor pair fails only the ancestor
    row, and at a branching pair only the branching row.
  - The covariance and the simulated rows, which follow the structural
    equations, agree with the dense products of the closed-form inverse
    within a first-order rounding bound, on unit and non-unit-variance
    models up to d = 200 and on chains of up to 999 edges.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import strict_triangle
from oracles import (
    graph_from_weights,
    kruskal_mst,
    loop_covariance_lemmas,
    loop_strict_triangle_condition,
    path_walk_is_unique,
    path_walk_margin,
    dense_covariance,
    dense_simulate,
    one_shot_errors,
    two_formula_lemma_report,
)
from treecascade import (
    CascadeModel,
    InvalidInputError,
    Tree,
    WeightedGraph,
    correlation_from_covariance,
    get_sampler,
    make_unit_variance_model,
    maximum_spanning_tree,
    mst_is_unique,
    population_covariance,
    random_unit_variance_model,
    root_tree,
    simulate,
    verify_covariance_lemmas,
)
from treecascade.cascade import _lemma_report, cascade_inverse
from treecascade.trees import _hop_and_meet_matrices, _tree_gaps, random_tree


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
    assert strict_triangle(g, fast.tree) == loop_strict_triangle_condition(
        g, fast.tree
    )


def assert_margin_agrees(g, t):
    """The least gap is the path walk's margin, and its sign is the path walk's outcome."""
    margin = _tree_gaps(g, root_tree(t, 0)).min()
    assert _tree_gaps(g, root_tree(t, t.d - 1)).min() == margin == path_walk_margin(g, t)
    outcome = certificate_outcome(path_walk_is_unique, g, t)
    if margin < 0:
        assert isinstance(outcome, str)
    else:
        assert outcome is bool(margin > 0)


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
    assert strict_triangle(g, other) == loop_strict_triangle_condition(g, other)
    assert_margin_agrees(g, maximum_spanning_tree(g).tree)
    assert_margin_agrees(g, other)


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
        assert_margin_agrees(g, other)
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
        assert_margin_agrees(g, model.rt.tree)
        fast, slow = verify_covariance_lemmas(model), loop_covariance_lemmas(model)
        assert len(fast) == len(slow) == 3
        for a, b in zip(fast, slow):
            assert a.name == b.name
            assert a.passed == b.passed
            assert a.worst.hex() == b.worst.hex()
            assert a.measure == b.measure
            assert a.pairs_checked == b.pairs_checked
        assert fast == slow


def lemma_inputs(model, covariance=population_covariance):
    """The inverse, covariance, hop and meet matrices that ``_lemma_report`` takes."""
    return (cascade_inverse(model), covariance(model), *_hop_and_meet_matrices(model.rt))


def both_reports(inputs):
    """``_lemma_report``'s report and the oracle's; the oracle reads first, as the report overwrites the inverse."""
    slow = two_formula_lemma_report(*inputs)
    return _lemma_report(*inputs), slow


def assert_same_report(fast, slow):
    assert len(fast) == len(slow) == 3
    for a, b in zip(fast, slow):
        assert (a.name, a.passed, a.measure, a.pairs_checked) == (
            b.name, b.passed, b.measure, b.pairs_checked
        )
        assert np.float64(a.worst).view(np.int64) == np.float64(b.worst).view(np.int64), a.name


@pytest.mark.parametrize("d", [1, 2, 3, 8, 30, 200])
def test_lemma_report_matches_two_formula_oracle(d):
    rng = np.random.default_rng(d)
    for _ in range(5):
        inputs = lemma_inputs(random_unit_variance_model(d, rng))
        assert_same_report(*both_reports(inputs))


def chain_model(d, rho):
    # rooted a third of the way along, so both covariance rows have pairs
    rt = root_tree(Tree.from_edges(d, [(i, i + 1) for i in range(d - 1)]), d // 3)
    return make_unit_variance_model(rt, dict.fromkeys(rt.non_root_vertices(), rho))


@pytest.mark.parametrize("d, rho", [(600, -0.2), (1500, 0.6)])
def test_lemma_report_matches_oracle_where_products_underflow(d, rho):
    inputs = lemma_inputs(chain_model(d, rho), dense_covariance)
    assert (inputs[1] == 0.0).any()  # the longest paths' products underflow to zero
    assert_same_report(*both_reports(inputs))


def test_lemma_report_matches_oracle_where_the_recursion_sticks_at_the_smallest_subnormal():
    # 0.6 times the smallest subnormal rounds back to it: the walk's far
    # entries stop there, where the dense products underflow to zero
    tiny = np.nextafter(0.0, 1.0)
    model = chain_model(1500, 0.6)
    inputs = lemma_inputs(model)
    cov = inputs[1]
    assert not (cov == 0.0).any()
    assert cov[0, -1] == cov[-1, 0] == tiny
    assert (cov[dense_covariance(model) == 0.0] == tiny).all()
    report, slow = both_reports(inputs)
    assert_same_report(report, slow)
    # the stuck entries tie their path neighbours, so dominance fails with margin zero
    assert report[2].worst == 0.0 and not report[2].passed


@pytest.mark.parametrize("kind", ["ancestor", "branching"])
def test_planted_error_fails_only_its_row(kind):
    inv, cov, hop, meet = lemma_inputs(random_unit_variance_model(8, np.random.default_rng(5)))
    rows, cols = np.indices(meet.shape)
    if kind == "ancestor":
        pairs = (meet == rows) & (rows != cols)
    else:
        pairs = (meet != rows) & (meet != cols)
    i, j = np.argwhere(pairs)[0]
    cov[i, j] += 1e-9
    cov[j, i] = cov[i, j]
    report, slow = both_reports((inv, cov, hop, meet))
    assert_same_report(report, slow)
    assert [c.name for c in report if not c.passed] == [f"{kind}-covariance"]


def free_model(rt, rng):
    """A cascade on ``rt`` with signed coefficients of magnitude 0.5 to 2 and variances 0.1 to 10."""
    coeffs = {i: float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)) for i in rt.non_root_vertices()}
    return CascadeModel(rt, coeffs, {i: float(rng.uniform(0.1, 10.0)) for i in range(rt.d)})


def dense_oracle_models():
    """Unit and non-unit-variance models at d in {1, 2, 3, 8, 30, 200}, then deep chains."""
    rng = np.random.default_rng(16)
    for d in (1, 2, 3, 8, 30, 200):
        for _ in range(3):
            yield random_unit_variance_model(d, rng)
            yield free_model(root_tree(random_tree(d, rng), int(rng.integers(d))), rng)
    for d, root in ((1000, 0), (1000, 500), (400, 133)):
        rt = root_tree(Tree.from_edges(d, [(i, i + 1) for i in range(d - 1)]), root)
        yield make_unit_variance_model(rt, {i: float(rng.choice([-0.99, 0.98])) for i in rt.non_root_vertices()})
        # magnitudes 0.99 to 1.01 keep 1000-edge products inside the normal range
        coeffs = {i: float(rng.choice([-1.0, 1.0]) * rng.uniform(0.99, 1.01)) for i in rt.non_root_vertices()}
        yield CascadeModel(rt, coeffs, {i: float(rng.uniform(0.1, 10.0)) for i in range(d)})


def rounding_bound(model):
    """Relative bound on the gap between the walk and the dense products: 4 (h + 1) eps, h the height.

    With u = eps / 2 the unit roundoff, to first order: the walk rounds three
    times per level on the diagonal and once per edge off it, at most 5 h u;
    the dense form rounds h times in each inverse entry, twice more in each
    term and h times in its sum, and once in the symmetrizing mean, at most
    (3 h + 3) u.  No sum cancels: every term of C_ij, B_ik sigma_k B_jk over
    the common ancestors k, has the sign of the path product from i to j.
    The simulated rows do cancel, so there the bound scales the sum of the
    terms' magnitudes, |e| |B|^T, as for a dot product; each side again
    rounds at most 2 h + 2 times per term.
    """
    return 4 * (max(model.rt.depth) + 1) * np.finfo(float).eps


def test_covariance_matches_dense_oracle():
    worst = 0.0
    for model in dense_oracle_models():
        cov, dense = population_covariance(model), dense_covariance(model)
        assert (dense != 0.0).all()
        gap = np.abs(cov - dense) / (rounding_bound(model) * np.abs(dense))
        worst = max(worst, float(gap.max()))
    assert worst <= 1.0, worst


def test_simulate_matches_dense_oracle():
    worst = 0.0
    for k, model in enumerate(dense_oracle_models()):
        errors = one_shot_errors(model, "laplace", 64, k)
        rows = simulate(model, get_sampler("laplace"), 64, k).values
        scale = np.abs(errors) @ np.abs(cascade_inverse(model)).T
        gap = np.abs(rows - dense_simulate(model, errors)) / (rounding_bound(model) * scale)
        worst = max(worst, float(gap.max()))
    assert worst <= 1.0, worst
