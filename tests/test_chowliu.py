"""Tests for the Gaussian pairwise-MI tree and its regression correspondence.

Claims covered:
  - The pairwise weight matrix matches -1/2 log(1 - rho^2), is nonnegative,
    symmetric, scale-invariant, and strictly increasing in rho^2, and equals
    the scalar per-pair oracle bit for bit.
  - The MI tree equals the squared-correlation regression tree, including
    under exact ties.
  - At d=3 the selected tree minimizes the actual KL divergence to the
    tree-factored Gaussian, checked against both alternatives directly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_spd_covariance
from oracles import chow_liu_tree, enumerate_spanning_trees, scalar_mi_weight
from treecascade import (
    CascadeModel,
    CorrelationSummary,
    DegeneracyError,
    GaussianSummary,
    InvalidInputError,
    Tree,
    correlation_from_covariance,
    correspondence_check,
    fit_cascade,
    mutual_information_weights,
    population_covariance,
    random_unit_variance_model,
    root_tree,
)


def summary(cov) -> GaussianSummary:
    return GaussianSummary(np.array(cov, dtype=float))


class TestGaussianSummary:
    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            summary([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(InvalidInputError):
            summary([[0.0, 0.0], [0.0, 1.0]])

    def test_symmetrizes_tiny_asymmetry(self):
        cov = np.array([[1.0, 0.5 + 1e-16], [0.5, 1.0]])
        s = GaussianSummary(cov)
        assert np.array_equal(s.covariance, s.covariance.T)


def mi_matrix(s: GaussianSummary) -> np.ndarray:
    return mutual_information_weights(correlation_from_covariance(s.covariance))


def bypass_summary(cov) -> GaussianSummary:
    """A summary that skips validation, to probe singular covariances."""
    s = GaussianSummary.__new__(GaussianSummary)
    object.__setattr__(s, "covariance", np.array(cov, dtype=float))
    return s


class TestPairwiseWeight:
    def test_zero_correlation_gives_zero(self):
        assert mi_matrix(summary(np.eye(2)))[0, 1] == 0.0

    def test_known_value(self):
        s = summary([[1.0, 0.6], [0.6, 1.0]])
        assert mi_matrix(s)[0, 1] == pytest.approx(-0.5 * math.log(0.64), abs=1e-15)

    def test_symmetric_in_pair(self):
        mi = mi_matrix(summary(random_spd_covariance(4, np.random.default_rng(1))))
        assert np.array_equal(mi, mi.T)
        assert np.array_equal(np.diag(mi), np.zeros(4))

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        cov = random_spd_covariance(3, rng)
        scales = np.diag(rng.uniform(0.1, 10.0, size=3))
        rescaled = scales @ cov @ scales
        assert mi_matrix(summary(cov)) == pytest.approx(mi_matrix(summary(rescaled)), rel=1e-12)

    def test_nonnegative_and_increasing_in_rho_squared(self):
        values = [
            mi_matrix(summary([[1.0, r], [r, 1.0]]))[0, 1]
            for r in (0.0, 0.1, -0.3, 0.5, -0.7, 0.9)
        ]
        assert all(v >= 0.0 for v in values)
        assert values == sorted(values)

    def test_perfect_correlation_degenerate(self):
        near = summary(np.ones((2, 2)) + 1e-9 * np.eye(2))
        with pytest.raises(DegeneracyError, match="components 0 and 1"):
            mi_matrix(bypass_summary(np.ones((2, 2))))
        assert mi_matrix(near)[0, 1] > 9.0  # near-singular pair, huge weight


class TestMatrixMatchesScalarOracle:
    def test_bit_equal_on_random_covariances(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = int(rng.integers(2, 12))
            s = summary(random_spd_covariance(d, rng) * rng.uniform(0.01, 100.0))
            mi = mi_matrix(s)
            for i in range(d):
                for j in range(d):
                    if i != j:
                        assert mi[i, j] == scalar_mi_weight(s, i, j)

    def test_bit_equal_on_near_singular_pair(self):
        s = summary([[1.0, 1.0 - 1e-12, 0.1], [1.0 - 1e-12, 1.0, 0.1], [0.1, 0.1, 1.0]])
        mi = mi_matrix(s)
        assert mi[0, 1] > 13.0
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert mi[i, j] == scalar_mi_weight(s, i, j)

    def test_same_degeneracy_error_as_oracle(self):
        # an invalid covariance can give |rho| > 1; clipping maps exactly those pairs to +-1
        cov = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 3.5], [0.2, 3.5, 9.0]])
        s = bypass_summary(cov)
        with pytest.raises(DegeneracyError) as scalar:
            scalar_mi_weight(s, 1, 2)
        with pytest.raises(DegeneracyError) as matrix:
            mi_matrix(s)
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
            reg_tree = fit_cascade(correlation_from_covariance(cov)).tree
            assert mi_tree.edges == reg_tree.edges


class TestCorrespondenceCheck:
    def test_d3_exhaustive(self):
        # oracle: the reported tree must maximize total MI weight over the
        # three spanning trees of K3
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = summary(random_spd_covariance(3, rng))
            report = correspondence_check(s)
            assert report.trees_equal
            mi = mi_matrix(s)
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

    def test_edge_pairs_follow_monotone_map(self):
        s = summary(random_spd_covariance(5, np.random.default_rng(13)))
        report = correspondence_check(s)
        for _, rho_sq, mi in report.edge_pairs:
            assert mi == pytest.approx(-0.5 * math.log1p(-rho_sq), abs=1e-12)


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
