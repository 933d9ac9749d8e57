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
  - The objective's terms, gathered and computed as arrays, sum to the
    bits of the scalar loop over edges.
  - Covariances normalize densely to the bits of the upper-triangle
    index-array form, -0.0 and clipped entries included, with the same
    warnings where variances square past the ends of the float range.
  - The empirical correlations are exactly symmetric with no averaging
    pass, as numpy forms the Gram ``z.T @ z`` with one ``syrk`` and
    mirrors it; ``tests/test_blas_kernels.py`` checks the same shapes
    under every OpenBLAS kernel.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from conftest import random_correlation, random_spd_covariance
from oracles import brute_force_fit, loop_objective_value, triu_correlation_from_covariance
from treecascade import (
    CorrelationSummary,
    DataError,
    Dataset,
    InvalidInputError,
    Tree,
    correlation_from_covariance,
    correlation_from_dataset,
    empirical_fit,
    fit_cascade,
    get_sampler,
    make_unit_variance_model,
    population_covariance,
    random_unit_variance_model,
    root_tree,
    simulate,
)
from treecascade.dataio import _standardize_in_place, document_to_fit, fit_to_document
from treecascade.regression import objective_value, optimal_coefficients
from treecascade.trees import random_tree


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

    def test_requires_finite_entries(self):
        with pytest.raises(InvalidInputError, match=r"^correlation matrix contains non-finite entries$"):
            summary_from_matrix([[1.0, np.nan], [np.nan, 1.0]])

    def test_from_covariance_rejects_a_vanishing_variance_product(self):
        # 1e-200 squared underflows to 0, so the pair divides 0 by 0
        cov = np.array([[1e-200, 0.0], [0.0, 1e-200]])
        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(InvalidInputError, match=r"^correlation matrix contains non-finite entries$"):
                correlation_from_covariance(cov)

    def test_from_covariance_normalizes(self):
        cov = np.array([[4.0, 1.2], [1.2, 1.0]])
        c = correlation_from_covariance(cov)
        assert c.corr[0, 1] == pytest.approx(0.6, abs=1e-15)
        assert c.corr[0, 0] == 1.0 and c.corr[1, 1] == 1.0

    def test_empty_matrices_rejected(self):
        empty = np.zeros((0, 0))
        for build in (CorrelationSummary, correlation_from_covariance):
            with pytest.raises(InvalidInputError, match="non-empty"):
                build(empty)

    def test_from_covariance_rejects_nonpositive_diagonal(self):
        with pytest.raises(InvalidInputError, match="diagonal must be positive, got 0.0 at 0"):
            correlation_from_covariance(np.array([[0.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(InvalidInputError, match="diagonal must be positive, got -1.0 at 1"):
            correlation_from_covariance(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_from_covariance_rejects_non_finite_entries(self):
        # an infinite variance would otherwise make its correlations 0
        for bad in (np.inf, np.nan):
            cov = np.array([[bad, 1.0], [1.0, 1.0]])
            with pytest.raises(InvalidInputError, match="covariance contains non-finite entries"):
                correlation_from_covariance(cov)

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


def covariance_outcome(normalize, cov):
    """The correlation bits, or the error, and the warnings that normalizing ``cov`` gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = normalize(cov).corr.view(np.int64).tobytes()
        except InvalidInputError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


def signed_zeros_and_clips(cov: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``cov`` with a few upper entries set to -0.0 and a few pushed past the diagonal scale."""
    cov = cov.copy()
    i, j = np.triu_indices(len(cov), 1)
    for k in rng.choice(len(i), size=min(len(i), 3), replace=False):
        cov[i[k], j[k]] = -0.0 if rng.integers(2) else 2.0 * np.sqrt(cov[i[k], i[k]] * cov[j[k], j[k]])
    return cov


class TestDenseCovarianceNormalization:
    """The dense normalization is the one over upper-triangle index arrays, bit for bit."""

    def test_same_bits_as_the_index_array_form(self):
        rng = np.random.default_rng(47)
        inputs = [random_spd_covariance(int(rng.integers(1, 60)), rng) for _ in range(40)]
        inputs += [signed_zeros_and_clips(cov, rng) for cov in inputs[:20]]
        # the lower triangle is never read
        inputs.append(inputs[-1] + np.tril(rng.normal(size=inputs[-1].shape), -1))
        results = [correlation_from_covariance(cov).corr for cov in inputs]
        for cov, dense in zip(inputs, results):
            assert np.array_equal(dense.view(np.int64), triu_correlation_from_covariance(cov).corr.view(np.int64))
        # the inputs reach both special cases
        assert any((np.abs(dense) == 1.0).sum() > len(dense) for dense in results)
        assert any(np.signbit(dense).any() for dense in results)

    @pytest.mark.parametrize("seed", range(9))
    def test_same_warnings_near_the_float_range_ends(self, seed):
        # a variance near 1e160 squares past the largest double, one near
        # 1e-162 squares to 0: one such variance alone may not warn, a pair may
        rng = np.random.default_rng(seed)
        d = 6
        exponents = rng.choice([-20.0, 0.0, 20.0], size=d)
        extreme = rng.choice(d, size=seed % 3 + 1, replace=False)
        exponents[extreme] = rng.choice([-170.0, -162.0, -160.0, 155.0, 160.0, 170.0], size=extreme.size)
        variances = 10.0**exponents
        rho = rng.uniform(-1.0, 1.0, size=(d, d))
        with np.errstate(all="ignore"):
            cov = rho * np.sqrt(variances)[:, None] * np.sqrt(variances)[None, :]
        np.fill_diagonal(cov, variances)
        assert covariance_outcome(correlation_from_covariance, cov) == covariance_outcome(
            triu_correlation_from_covariance, cov
        )

    def test_one_huge_and_one_tiny_variance_do_not_warn(self):
        # the product of the two is 1: squaring either alone would warn
        cov = np.array([[1e160, 0.5], [0.5, 1e-160]])
        result, caught = covariance_outcome(correlation_from_covariance, cov)
        assert caught == []
        assert result == covariance_outcome(triu_correlation_from_covariance, cov)[0]


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
    def test_tree_must_match_the_correlations(self):
        rt = root_tree(Tree.from_edges(3, [(0, 1), (1, 2)]), 0)
        c = summary_from_matrix(np.eye(2))
        message = r"^tree on 3 vertices vs correlations on 2$"
        with pytest.raises(InvalidInputError, match=message):
            optimal_coefficients(rt, c)
        with pytest.raises(InvalidInputError, match=message):
            objective_value(rt, {1: 0.5, 2: 0.5}, c)

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

    def test_same_bits_as_the_scalar_loop(self):
        # optimal and arbitrary coefficients, any root: the array terms round as the scalar ones
        rng = np.random.default_rng(23)
        for d in [1, 2, 3, 8, 30, 200]:
            c = random_correlation(d, rng)
            rt = root_tree(random_tree(d, rng), int(rng.integers(d)))
            arbitrary = {i: float(rng.uniform(-3.0, 3.0)) for i in rt.non_root_vertices()}
            for coeffs in (optimal_coefficients(rt, c), arbitrary):
                fast, loop = objective_value(rt, coeffs, c), loop_objective_value(rt, coeffs, c)
                assert np.float64(fast).view(np.int64) == np.float64(loop).view(np.int64)

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

    def test_fit_keeps_the_rooting_of_its_coefficients(self):
        # fit.rt is the tree rooted at the hint, and each coefficient sits on
        # the edge to the parent it names; the fit document keeps both
        c = random_correlation(7, np.random.default_rng(41))
        for hint in (None, 0, 3, 6):
            fit = fit_cascade(c, root_hint=hint)
            assert fit.rt == root_tree(fit.tree, fit.root)
            assert fit.root == (hint or 0)
            assert fit.coeffs == {i: c.corr[i, fit.rt.parent[i]] for i in fit.coeffs}
            assert document_to_fit(fit_to_document(fit)) == fit

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
        z = _standardize_in_place(ds.values.copy(), ds.names)
        expected = float(z[:, 0] @ z[:, 1])  # divided by n - 1 = 1
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
        z = Dataset(values=_standardize_in_place(values.copy(), ds.names), names=ds.names)
        via_package = correlation_from_dataset(z).corr
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


class TestGramSymmetry:
    """The empirical correlations come out exactly symmetric with no averaging pass."""

    @pytest.mark.parametrize("diff", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 7, 64, 65, 129, 400])
    def test_exactly_symmetric(self, d, diff):
        rng = np.random.default_rng(d)
        ds = Dataset(values=rng.standard_normal((2 * d + 3, d)), names=tuple(map(str, range(d))))
        corr = correlation_from_dataset(ds, diff=diff).corr
        assert np.array_equal(corr, corr.T)


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
