"""Tests for the Gaussian pairwise-MI tree and its regression correspondence.

Claims covered:
  - The pairwise weight matrix matches -1/2 log(1 - rho^2), is nonnegative,
    symmetric, scale-invariant, and strictly increasing in rho^2, and equals
    the scalar per-pair oracle bit for bit.
  - The MI tree equals the squared-correlation regression tree, including
    under exact ties.
  - A candidate tree, the model's own or another, changes neither the
    correspondence report nor the fit.
  - At d=3 the selected tree minimizes the actual KL divergence to the
    tree-factored Gaussian, checked against both alternatives directly.
  - The report read off the squared-correlation margin equals the one the
    full MI matrix gives, errors included, on ties, near-ties, the bundled
    CSV and random models; the MI matrix is built only where the margin
    is within the rounding of the MI map.
  - ``math.log1p`` stays within the ulp bound that rounding slack assumes,
    against a 60-digit decimal reference.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spd_covariance
from oracles import chow_liu_tree, enumerate_spanning_trees, full_mi_correspondence, scalar_mi_weight
from treecascade import (
    CascadeModel,
    CorrelationSummary,
    DegeneracyError,
    InvalidInputError,
    Tree,
    correlation_from_covariance,
    correspondence_check,
    fit_cascade,
    population_covariance,
    correlation_from_dataset,
    load_csv,
    make_unit_variance_model,
    maximum_spanning_tree,
    random_unit_variance_model,
    root_tree,
    sample_prices_path,
)
from treecascade import chowliu
from treecascade.chowliu import _LOG1P_ULPS, mutual_information_weights
from treecascade.errors import TreeCascadeError
from treecascade.regression import squared_correlation_graph
from treecascade.trees import random_tree


def summary(cov) -> CorrelationSummary:
    return correlation_from_covariance(np.array(cov, dtype=float))


def mi_matrix(cov) -> np.ndarray:
    return mutual_information_weights(summary(cov))


class TestPairwiseWeight:
    def test_zero_correlation_gives_zero(self):
        assert mi_matrix(np.eye(2))[0, 1] == 0.0

    def test_known_value(self):
        mi = mi_matrix([[1.0, 0.6], [0.6, 1.0]])
        assert mi[0, 1] == pytest.approx(-0.5 * math.log(0.64), abs=1e-15)

    def test_symmetric_in_pair(self):
        mi = mi_matrix(random_spd_covariance(4, np.random.default_rng(1)))
        assert np.array_equal(mi, mi.T)
        assert np.array_equal(np.diag(mi), np.zeros(4))

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        cov = random_spd_covariance(3, rng)
        scales = np.diag(rng.uniform(0.1, 10.0, size=3))
        rescaled = scales @ cov @ scales
        assert mi_matrix(cov) == pytest.approx(mi_matrix(rescaled), rel=1e-12)

    def test_nonnegative_and_increasing_in_rho_squared(self):
        values = [
            mi_matrix([[1.0, r], [r, 1.0]])[0, 1]
            for r in (0.0, 0.1, -0.3, 0.5, -0.7, 0.9)
        ]
        assert all(v >= 0.0 for v in values)
        assert values == sorted(values)

    def test_perfect_correlation_degenerate(self):
        with pytest.raises(DegeneracyError, match="components 0 and 1"):
            mutual_information_weights(CorrelationSummary(np.ones((2, 2))))
        near = np.ones((2, 2)) + 1e-9 * np.eye(2)
        assert mi_matrix(near)[0, 1] > 9.0  # near-singular pair, huge weight


class TestMatrixMatchesScalarOracle:
    def test_bit_equal_on_random_covariances(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = int(rng.integers(2, 12))
            cov = random_spd_covariance(d, rng) * rng.uniform(0.01, 100.0)
            mi = mi_matrix(cov)
            for i in range(d):
                for j in range(d):
                    if i != j:
                        assert mi[i, j] == scalar_mi_weight(cov, i, j)

    def test_bit_equal_on_near_singular_pair(self):
        cov = np.array([[1.0, 1.0 - 1e-12, 0.1], [1.0 - 1e-12, 1.0, 0.1], [0.1, 0.1, 1.0]])
        mi = mi_matrix(cov)
        assert mi[0, 1] > 13.0
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert mi[i, j] == scalar_mi_weight(cov, i, j)

    def test_same_degeneracy_error_as_oracle(self):
        # an invalid covariance can give |rho| > 1; clipping maps exactly those pairs to +-1
        cov = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 3.5], [0.2, 3.5, 9.0]])
        with pytest.raises(DegeneracyError) as scalar:
            scalar_mi_weight(cov, 1, 2)
        with pytest.raises(DegeneracyError) as matrix:
            mi_matrix(cov)
        assert str(matrix.value) == str(scalar.value) == "components 1 and 2 are perfectly correlated"

    def test_first_degenerate_pair_in_row_major_order(self):
        corr = np.eye(4)
        corr[1, 3] = corr[3, 1] = -1.0
        corr[2, 3] = corr[3, 2] = 1.0
        with pytest.raises(DegeneracyError, match="components 1 and 3"):
            mutual_information_weights(CorrelationSummary(corr))


class TestChowLiuTree:
    def test_two_vertices(self):
        res = chow_liu_tree(summary([[1.0, 0.3], [0.3, 1.0]]))
        assert res.tree.sorted_edges() == [(0, 1)]

    def test_cascade_covariance_recovers_generating_tree(self):
        model = random_unit_variance_model(7, np.random.default_rng(3))
        res = chow_liu_tree(summary(population_covariance(model)))
        assert res.tree.edges == model.rt.tree.edges
        assert res.is_unique

    def test_agrees_with_regression_tree(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            cov = random_spd_covariance(5, rng)
            mi_tree = chow_liu_tree(summary(cov)).tree
            reg_tree = fit_cascade(summary(cov)).tree
            assert mi_tree.edges == reg_tree.edges


class TestCorrespondenceCheck:
    def test_rejects_indefinite(self):
        # a valid correlation matrix, but no Gaussian has it: 1 + 2 * -0.9 < 0
        corr = np.full((3, 3), -0.9)
        np.fill_diagonal(corr, 1.0)
        for c in (CorrelationSummary(corr), summary([[1.0, 2.0], [2.0, 1.0]])):
            with pytest.raises(InvalidInputError, match="covariance is not positive definite"):
                correspondence_check(c)

    def test_rejects_nonpositive_diagonal(self):
        # a zero or negative variance never reaches the check: the summary refuses it
        for cov in ([[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]):
            with pytest.raises(InvalidInputError, match="diagonal must be positive"):
                correspondence_check(summary(cov))

    def test_d3_exhaustive(self):
        # oracle: the reported tree must maximize total MI weight over the
        # three spanning trees of K3
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = summary(random_spd_covariance(3, rng))
            report = correspondence_check(s)
            assert report.trees_equal
            mi = mutual_information_weights(s)
            totals = {
                t.edges: sum(mi[i, j] for i, j in t.sorted_edges())
                for t in enumerate_spanning_trees(3)
            }
            best = max(totals.values())
            assert totals[report.approximator_tree.edges] == pytest.approx(best, abs=1e-12)

    def test_equicorrelated_ties_detected_and_consistent(self):
        cov = np.full((4, 4), 0.4)
        np.fill_diagonal(cov, 1.0)
        report = correspondence_check(summary(cov))
        assert report.trees_equal
        assert report.tie_detected
        assert not report.approximator_unique and not report.cascade_unique

    def test_cascade_covariance_equal_and_unique(self):
        model = random_unit_variance_model(6, np.random.default_rng(11))
        report = correspondence_check(summary(population_covariance(model)))
        assert report.trees_equal and not report.tie_detected
        assert report.cascade_tree.edges == model.rt.tree.edges

    def test_candidate_changes_no_report(self):
        # the model's own tree, a random tree, and a tree of a tied maximum
        rng = np.random.default_rng(17)
        model, other = (random_unit_variance_model(8, rng) for _ in range(2))
        ties = np.full((5, 5), 0.4)
        np.fill_diagonal(ties, 1.0)
        for cov, candidate in [
            (population_covariance(model), model.rt),
            (population_covariance(other), model.rt),
            (ties, root_tree(Tree.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 4)),
        ]:
            s = summary(cov)
            assert correspondence_check(s, candidate=candidate) == correspondence_check(s)
            assert fit_cascade(s, candidate=candidate) == fit_cascade(s)

    def test_edge_pairs_follow_monotone_map(self):
        s = summary(random_spd_covariance(5, np.random.default_rng(13)))
        report = correspondence_check(s)
        for _, rho_sq, mi in report.edge_pairs:
            assert mi == pytest.approx(-0.5 * math.log1p(-rho_sq), abs=1e-12)


def outcome(check, c, candidate=None):
    """The report, or the error's type and message."""
    try:
        return check(c, candidate=candidate)
    except TreeCascadeError as exc:
        return type(exc), str(exc)


def assert_matches_oracle(c, candidates=(None,)):
    expected = outcome(full_mi_correspondence, c)
    for candidate in candidates:
        assert outcome(correspondence_check, c, candidate) == expected, candidate
    return expected


def count_mi_matrices(monkeypatch):
    """The vertex count of each MI matrix ``correspondence_check`` builds; the oracle's are not counted."""
    calls = []
    weights = chowliu.mutual_information_weights

    def counted(c):
        calls.append(c.d)
        return weights(c)

    monkeypatch.setattr(chowliu, "mutual_information_weights", counted)
    return calls


@st.composite
def tied_correlations(draw):
    """A correlation matrix on a 1/32 grid with free signs: equal squares are the common case.

    With levels up to 5/32 and d <= 7 the matrix is diagonally dominant,
    so positive definite; a top level of 32 adds pairs at +-1 and
    matrices that are not positive definite, whose errors must match too.
    """
    d = draw(st.integers(1, 7))
    top = draw(st.sampled_from([1, 2, 3, 5, 32]))
    ks = draw(st.lists(st.integers(-top, top), min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2))
    corr = np.eye(d)
    corr[np.triu_indices(d, 1)] = np.array(ks, dtype=float) / 32.0
    corr = np.triu(corr, 1) + np.triu(corr, 1).T + np.eye(d)
    return CorrelationSummary(corr)


def chain_model(d, rng):
    """A unit-variance chain with |rho| in [0.5, 0.95], the worst tree shape for path walks."""
    rt = root_tree(Tree.from_edges(d, [(v, v + 1) for v in range(d - 1)]), d // 3)
    magnitudes = rng.uniform(0.5, 0.95, d) * rng.choice([-1.0, 1.0], d)
    return make_unit_variance_model(rt, {v: float(magnitudes[v]) for v in rt.non_root_vertices()})


class TestMarginShortcutMatchesFullMatrix:
    """``correspondence_check`` equals the full-MI oracle wherever the margin decides or not."""

    @given(c=tied_correlations(), r=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_tie_strategy(self, c, r, seed):
        r = r % c.d
        candidates = [None, root_tree(random_tree(c.d, np.random.default_rng(seed)), r)]
        expected = outcome(full_mi_correspondence, c)
        if isinstance(expected, chowliu.CorrespondenceReport):
            candidates.append(root_tree(expected.cascade_tree, r))
        assert_matches_oracle(c, candidates)

    def test_bundled_csv_differenced(self, monkeypatch):
        c = correlation_from_dataset(load_csv(sample_prices_path()), diff=True)
        calls = count_mi_matrices(monkeypatch)
        report = assert_matches_oracle(c, [None, fit_cascade(c, 3).rt])
        assert report.trees_equal and not report.tie_detected
        # its margin, about 0.059, clears the slack (the oracle's own MI matrix is not counted)
        assert calls == []

    @pytest.mark.parametrize("d", [1, 2, 3, 30])
    def test_random_models(self, d):
        rng = np.random.default_rng(d)
        for _ in range(5):
            model = random_unit_variance_model(d, rng)
            c = correlation_from_covariance(population_covariance(model))
            report = assert_matches_oracle(c, [None, model.rt])
            assert report.trees_equal and not report.tie_detected
            assert report.cascade_tree == model.rt.tree

    def test_near_tie_within_the_slack_takes_the_full_matrix(self, monkeypatch):
        # (0, 2) falls 2^-54 below its bottleneck (0, 1): a unique tree whose
        # margin is below the slack of about 8e-16, so the MI weights decide
        rho_02 = 0.5 - 2**-54
        corr = np.array([[1.0, 0.5, rho_02], [0.5, 1.0, 0.6], [rho_02, 0.6, 1.0]])
        c = CorrelationSummary(corr)
        mst = maximum_spanning_tree(squared_correlation_graph(c))
        assert mst.is_unique and mst.margin == 2**-54
        slack = 8 * _LOG1P_ULPS * 2**-52 * -0.5 * math.log1p(-0.36)
        assert 0 < mst.margin < slack
        calls = count_mi_matrices(monkeypatch)
        assert correspondence_check(c) == full_mi_correspondence(c)
        assert calls == [3]

    def test_mi_matrix_only_where_the_margin_is_unsure(self, monkeypatch):
        chain = chain_model(200, np.random.default_rng(1))
        chain_c = correlation_from_covariance(population_covariance(chain))
        ties = np.full((5, 5), 0.4)
        np.fill_diagonal(ties, 1.0)
        calls = count_mi_matrices(monkeypatch)
        for candidate in (None, chain.rt):
            report = correspondence_check(chain_c, candidate=candidate)
            assert report.trees_equal and not report.tie_detected
        assert calls == []
        report = correspondence_check(summary(ties))
        assert report.tie_detected
        assert calls == [5]
        assert correspondence_check(chain_c, candidate=chain.rt) == full_mi_correspondence(chain_c)

    def test_perfect_correlation_raises_as_before(self):
        # a |rho| = 1 pair makes w_max = 1 or the margin <= 0.  Cholesky's
        # rounding lets some such matrices through, and those must still
        # meet the MI matrix's degeneracy error
        outcomes = []
        for k in range(1, 129):
            a = k / 256
            c = CorrelationSummary(np.array([[1.0, a, a], [a, 1.0, 1.0], [a, 1.0, 1.0]]))
            outcomes.append(outcome(correspondence_check, c))
            assert outcomes[-1] == outcome(full_mi_correspondence, c), a
        assert (DegeneracyError, "components 1 and 2 are perfectly correlated") in outcomes


def reference_mi(w: float) -> Decimal:
    """-1/2 log(1 - w) to 60 digits, from 1 - w formed exactly."""
    with localcontext() as ctx:
        ctx.prec = 1100  # every double in [0, 1) has at most 1075 digits after the point
        arg = 1 - Decimal(w)
    with localcontext() as ctx:
        ctx.prec = 60
        return -arg.ln() / 2


class TestLog1pErrorBound:
    """``-0.5 * math.log1p(-w)`` is within the eps f + eta that the margin slack assumes."""

    def test_fixed_sample(self):
        rng = np.random.default_rng(29)
        sample = [
            0.0, 2.0**-1074, 2.0**-1060, 1e-310, 2.0**-1022,  # subnormal and the least normal
            2.0**-60, 2.0**-30, 1e-8, 1e-3, 0.25, 0.5,  # toward 0
            1 - 2.0**-53, 1 - 2.0**-52, 1 - 2.0**-40, 0.999999,  # toward 1
            *rng.uniform(0.0, 1.0, 600).tolist(),
            *np.square(rng.uniform(-1.0, 1.0, 600)).tolist(),
        ]
        with localcontext() as ctx:
            ctx.prec = 60
            eps = Decimal(_LOG1P_ULPS) * Decimal(2) ** -52
            eta = Decimal(_LOG1P_ULPS + 1) * Decimal(2) ** -1075
            for w in sample:
                got, exact = -0.5 * math.log1p(-w), reference_mi(w)
                assert abs(Decimal(got) - exact) <= eps * exact + eta, w
                assert abs(Decimal(got) - exact) <= _LOG1P_ULPS * Decimal(math.ulp(got)), w


def tree_factored_gaussian_covariance(cov: np.ndarray, tree: Tree) -> np.ndarray:
    """Covariance of the Gaussian that factors along ``tree``.

    Test utility: edge conditionals are read off the pairwise blocks of
    ``cov`` (regression slope and residual variance), which makes the
    factored density exactly a general-variance cascade.
    """
    rt = root_tree(tree, 0)
    coeffs = {}
    error_vars = {0: float(cov[0, 0])}
    for i in rt.non_root_vertices():
        p = rt.parent[i]
        beta = float(cov[i, p] / cov[p, p])
        coeffs[i] = beta
        error_vars[i] = float(cov[i, i] - cov[i, p] ** 2 / cov[p, p])
    return population_covariance(CascadeModel(rt, coeffs, error_vars))


def gaussian_kl(cov_true: np.ndarray, cov_approx: np.ndarray) -> float:
    d = cov_true.shape[0]
    solved = np.linalg.solve(cov_approx, cov_true)
    return 0.5 * (
        float(np.trace(solved)) - d + float(np.linalg.slogdet(cov_approx)[1])
        - float(np.linalg.slogdet(cov_true)[1])
    )


class TestTreeFactoredKl:
    def test_selected_tree_minimizes_kl_at_d3(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            cov = random_spd_covariance(3, rng)
            chosen = chow_liu_tree(summary(cov)).tree
            divergences = {
                t.edges: gaussian_kl(cov, tree_factored_gaussian_covariance(cov, t))
                for t in enumerate_spanning_trees(3)
            }
            assert divergences[chosen.edges] == pytest.approx(
                min(divergences.values()), abs=1e-12
            )

    def test_factored_covariance_matches_marginals_on_edges(self):
        cov = random_spd_covariance(3, np.random.default_rng(19))
        t = Tree.from_edges(3, [(0, 1), (1, 2)])
        factored = tree_factored_gaussian_covariance(cov, t)
        for i, j in t.sorted_edges():
            assert factored[i, j] == pytest.approx(cov[i, j], abs=1e-12)
        assert np.diag(factored) == pytest.approx(np.diag(cov), abs=1e-12)
