"""Tests for cascade regression: coefficients, objective, tree selection.

Claims covered:
  - The per-edge correlation coefficients minimize the quadratic objective
    (probed against random perturbations).
  - The objective expansion matches Monte-Carlo residuals and collapses to
    d minus the sum of chosen squared correlations at the optimum.
  - The spanning-tree fit equals the brute-force enumeration oracle.
  - Population fits on cascade-generated correlations recover the
    generating tree uniquely.
  - The fitted tree and objective are invariant to the root hint, to
    column rescaling, and weakly improve when tree-edge correlations grow.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_correlation, random_spd_covariance
from oracles import brute_force_fit
from treecascade import (
    CorrelationSummary,
    DataError,
    Dataset,
    GaussianSummary,
    InvalidInputError,
    Tree,
    correlation_from_covariance,
    correlation_from_dataset,
    empirical_fit,
    fit_cascade,
    get_sampler,
    make_unit_variance_model,
    objective_value,
    optimal_coefficients,
    population_covariance,
    random_tree,
    random_unit_variance_model,
    root_tree,
    simulate,
    standardize,
)


def summary_from_matrix(corr) -> CorrelationSummary:
    return CorrelationSummary(np.array(corr, dtype=float))


class TestCorrelationSummary:
    def test_requires_unit_diagonal(self):
        with pytest.raises(InvalidInputError):
            summary_from_matrix([[1.0, 0.5], [0.5, 0.9]])

    def test_requires_exact_symmetry(self):
        with pytest.raises(InvalidInputError):
            summary_from_matrix([[1.0, 0.5], [0.5000001, 1.0]])

    def test_requires_bounded_entries(self):
        with pytest.raises(InvalidInputError):
            summary_from_matrix([[1.0, 1.5], [1.5, 1.0]])

    def test_from_covariance_normalizes(self):
        cov = np.array([[4.0, 1.2], [1.2, 1.0]])
        c = correlation_from_covariance(cov)
        assert c.corr[0, 1] == pytest.approx(0.6, abs=1e-15)
        assert c.corr[0, 0] == 1.0 and c.corr[1, 1] == 1.0

    def test_empty_matrices_rejected(self):
        empty = np.zeros((0, 0))
        for build in (CorrelationSummary, correlation_from_covariance, GaussianSummary):
            with pytest.raises(InvalidInputError, match="non-empty"):
                build(empty)

    def test_from_covariance_rejects_nonpositive_diagonal(self):
        with pytest.raises(InvalidInputError):
            correlation_from_covariance(np.array([[0.0, 0.0], [0.0, 1.0]]))

    def test_from_covariance_matches_scalar_loop(self):
        # the pairwise expression, one upper-triangle pair at a time
        def loop(cov):
            corr = np.eye(cov.shape[0])
            for i in range(cov.shape[0]):
                for j in range(i + 1, cov.shape[0]):
                    rho = float(cov[i, j]) / math.sqrt(float(cov[i, i]) * float(cov[j, j]))
                    corr[i, j] = corr[j, i] = min(1.0, max(-1.0, rho))
            return corr

        rng = np.random.default_rng(31)
        inputs = [random_spd_covariance(int(rng.integers(1, 40)), rng) for _ in range(30)]
        asymmetric = random_spd_covariance(12, rng) + np.tril(rng.normal(size=(12, 12)), -1)
        # off-diagonal entries beyond the diagonal scale clip to +-1
        clipped = np.array([[1.0, 3.0, -2.0], [0.5, 4.0, 9.0], [0.0, 0.0, 1.0]])
        for cov in inputs + [asymmetric, clipped]:
            assert np.array_equal(correlation_from_covariance(cov).corr, loop(cov))
        assert correlation_from_covariance(clipped).corr[0, 1] == 1.0


class TestOptimalCoefficients:
    def test_two_vertex_chain(self):
        c = summary_from_matrix([[1.0, 0.6], [0.6, 1.0]])
        rt = root_tree(Tree.from_edges(2, [(0, 1)]), 0)
        assert optimal_coefficients(rt, c) == {1: 0.6}

    def test_uncorrelated_gives_zeros(self):
        c = summary_from_matrix(np.eye(4))
        rt = root_tree(Tree.from_edges(4, [(0, 1), (1, 2), (2, 3)]), 0)
        assert optimal_coefficients(rt, c) == {1: 0.0, 2: 0.0, 3: 0.0}

    def test_local_optimality_probe(self):
        # no random perturbation of the coefficients may beat the formula
        rng = np.random.default_rng(101)
        c = random_correlation(4, rng)
        rt = root_tree(random_tree(4, rng), int(rng.integers(4)))
        best = optimal_coefficients(rt, c)
        base = objective_value(rt, best, c)
        for _ in range(1000):
            jitter = {i: a + rng.normal(0, 0.1) for i, a in best.items()}
            assert objective_value(rt, jitter, c) >= base - 1e-12


class TestObjectiveValue:
    def test_zero_coefficients_give_d(self):
        rng = np.random.default_rng(5)
        c = random_correlation(5, rng)
        rt = root_tree(random_tree(5, rng), 0)
        zero = {i: 0.0 for i in rt.non_root_vertices()}
        assert objective_value(rt, zero, c) == pytest.approx(5.0, abs=1e-12)

    def test_two_vertex_optimum(self):
        c = summary_from_matrix([[1.0, 0.6], [0.6, 1.0]])
        rt = root_tree(Tree.from_edges(2, [(0, 1)]), 0)
        assert objective_value(rt, {1: 0.6}, c) == pytest.approx(2 - 0.36, abs=1e-12)

    def test_matches_monte_carlo_residual(self):
        # oracle: draw Gaussian data with the summarized correlation and
        # average the squared residual of the cascade predictor
        rng = np.random.default_rng(17)
        c = random_correlation(5, rng)
        rt = root_tree(random_tree(5, rng), 2)
        coeffs = optimal_coefficients(rt, c)
        chol = np.linalg.cholesky(c.corr + 1e-12 * np.eye(5))
        x = rng.standard_normal((1_000_000, 5)) @ chol.T
        a = np.zeros((5, 5))
        for i, coeff in coeffs.items():
            a[i, rt.parent[i]] = coeff
        residual = x @ a.T - x
        mc = float((residual * residual).sum(axis=1).mean())
        assert objective_value(rt, coeffs, c) == pytest.approx(mc, abs=1e-2)

    def test_coefficients_must_match_sparsity(self):
        c = summary_from_matrix(np.eye(3))
        rt = root_tree(Tree.from_edges(3, [(0, 1), (1, 2)]), 0)
        with pytest.raises(InvalidInputError):
            objective_value(rt, {1: 0.0}, c)
        with pytest.raises(InvalidInputError):
            objective_value(rt, {0: 0.0, 1: 0.0, 2: 0.0}, c)


class TestFitCascade:
    def test_two_vertices(self):
        c = summary_from_matrix([[1.0, -0.8], [-0.8, 1.0]])
        fit = fit_cascade(c)
        assert fit.tree.sorted_edges() == [(0, 1)]
        assert fit.coeffs == {1: -0.8}
        assert fit.objective == pytest.approx(2 - 0.64, abs=1e-12)
        assert fit.root == 0 and fit.root_hint_source == "default"

    def test_single_vertex(self):
        fit = fit_cascade(summary_from_matrix([[1.0]]))
        assert fit.tree.d == 1 and fit.coeffs == {} and fit.objective == 1.0

    def test_population_recovery(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(3, 9))
            model = random_unit_variance_model(d, rng)
            c = correlation_from_covariance(population_covariance(model))
            fit = fit_cascade(c)
            assert fit.tree.edges == model.rt.tree.edges
            assert fit.tree_unique is True

    def test_root_hint_recorded_and_validated(self):
        c = summary_from_matrix([[1.0, 0.5], [0.5, 1.0]])
        fit = fit_cascade(c, root_hint=1)
        assert fit.root == 1 and fit.root_hint_source == "user"
        with pytest.raises(InvalidInputError):
            fit_cascade(c, root_hint=2)

    def test_root_invariance(self):
        # undirected tree and objective identical under every root hint
        rng = np.random.default_rng(29)
        c = random_correlation(6, rng)
        baseline = fit_cascade(c)
        for r in range(6):
            fit = fit_cascade(c, root_hint=r)
            assert fit.tree.edges == baseline.tree.edges
            assert fit.objective == baseline.objective

    def test_objective_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            c = random_correlation(int(rng.integers(2, 8)), rng)
            fit = fit_cascade(c)
            assert abs(fit.objective - (c.d - sum(fit.weights.values()))) <= 1e-12

    def test_monotone_improvement_when_edges_strengthen(self):
        rng = np.random.default_rng(37)
        c = random_correlation(5, rng)
        fit = fit_cascade(c)
        boosted = np.array(c.corr)
        for i, j in fit.tree.sorted_edges():
            rho = boosted[i, j]
            stronger = np.sign(rho) * min(0.999, abs(rho) * 1.2 + 0.01)
            boosted[i, j] = stronger
            boosted[j, i] = stronger
        refit = fit_cascade(CorrelationSummary(boosted))
        assert refit.objective <= fit.objective + 1e-12


class TestBruteForce:
    def test_two_vertices_trivial(self):
        c = summary_from_matrix([[1.0, 0.3], [0.3, 1.0]])
        fit = brute_force_fit(c)
        assert fit.tree.sorted_edges() == [(0, 1)] and fit.tree_unique

    def test_matches_fit_on_cascade_correlations(self):
        model = random_unit_variance_model(3, np.random.default_rng(41))
        c = correlation_from_covariance(population_covariance(model))
        assert brute_force_fit(c).tree.edges == fit_cascade(c).tree.edges

    def test_exact_equivalence_sweep(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            c = random_correlation(5, rng)
            fit = fit_cascade(c)
            oracle = brute_force_fit(c)
            assert fit.objective == oracle.objective
            if fit.tree_unique:
                assert fit.tree.edges == oracle.tree.edges

    def test_size_guard(self):
        with pytest.raises(ValueError, match="limited to d <= 8, got 9"):
            brute_force_fit(random_correlation(9, np.random.default_rng(1)))

    def test_tie_reporting_on_equicorrelated_input(self):
        corr = np.full((4, 4), 0.5)
        np.fill_diagonal(corr, 1.0)
        fit = brute_force_fit(summary_from_matrix(corr))
        assert fit.tree_unique is False
        assert fit_cascade(summary_from_matrix(corr)).tree_unique is False


class TestEmpiricalFit:
    def test_two_point_dataset_formula(self):
        ds = Dataset(values=np.array([[0.0, 0.0], [1.0, 2.0]]), names=("a", "b"))
        z = standardize(ds)
        expected = float(z.values[:, 0] @ z.values[:, 1])  # divided by n - 1 = 1
        fit = empirical_fit(ds)
        assert fit.coeffs[1] == pytest.approx(min(1.0, expected), abs=1e-15)
        assert fit.names == ("a", "b")

    def test_recovers_generating_tree(self):
        rng = np.random.default_rng(47)
        hits = 0
        for trial in range(5):
            model = random_unit_variance_model(10, rng, magnitude_range=(0.3, 0.85))
            ds = simulate(model, get_sampler("laplace"), 100_000, seed=1000 + trial)
            fit = empirical_fit(ds)
            hits += fit.tree.edges == model.rt.tree.edges
        assert hits == 5

    def test_scale_invariance_of_structure(self):
        rng = np.random.default_rng(53)
        model = random_unit_variance_model(6, rng)
        ds = simulate(model, get_sampler("gaussian"), 5000, seed=3)
        rescaled = np.array(ds.values)
        rescaled[:, 2] *= 1000.0
        fit_a = empirical_fit(ds)
        fit_b = empirical_fit(Dataset(values=rescaled, names=ds.names))
        assert fit_a.tree.edges == fit_b.tree.edges

    def test_constant_column_error_names_column(self):
        values = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
        with pytest.raises(DataError, match="'flat'"):
            empirical_fit(Dataset(values=values, names=("flat", "ok")))

    def test_nan_rejected_with_cell_location(self):
        values = np.array([[1.0, 2.0], [np.nan, 3.0]])
        with pytest.raises(DataError, match="row 2.*'a'"):
            Dataset(values=values, names=("a", "b"))

    def test_needs_two_rows(self):
        with pytest.raises(InvalidInputError):
            empirical_fit(Dataset(values=np.array([[1.0, 2.0]]), names=("a", "b")))

    def test_correlations_match_raw_pearson(self):
        # standardization must not change Pearson correlations
        rng = np.random.default_rng(59)
        values = rng.standard_normal((200, 4)) * np.array([1.0, 10.0, 0.1, 5.0])
        ds = Dataset(values=values, names=("a", "b", "c", "d"))
        via_package = correlation_from_dataset(standardize(ds)).corr
        raw = np.corrcoef(values.T)
        assert np.max(np.abs(via_package - raw)) < 1e-12

    def test_raw_data_correlations_match_corrcoef(self):
        # correlation_from_dataset standardizes its input itself
        rng = np.random.default_rng(67)
        values = rng.standard_normal((300, 5)) * np.array([1.0, 10.0, 0.1, 5.0, 1e3]) + 40.0
        corr = correlation_from_dataset(Dataset(values=values, names=tuple("abcde"))).corr
        assert np.max(np.abs(corr - np.corrcoef(values.T))) < 1e-12
        three_rows = Dataset(values=[[10.0, 1.0], [12.0, 3.0], [11.0, 7.0]], names=("a", "b"))
        coeff = empirical_fit(three_rows).coeffs[1]
        assert coeff == pytest.approx(np.corrcoef([10.0, 12.0, 11.0], [1.0, 3.0, 7.0])[0, 1])
        assert coeff == pytest.approx(0.327, abs=5e-4)


class TestBruteForceRootIndependence:
    def test_objective_value_root_invariant_at_optimum(self):
        # the optimal objective depends only on the undirected edge set
        rng = np.random.default_rng(61)
        c = random_correlation(6, rng)
        t = random_tree(6, rng)
        values = set()
        for r in range(6):
            rt = root_tree(t, r)
            values.add(objective_value(rt, optimal_coefficients(rt, c), c))
        assert len(values) == 1
