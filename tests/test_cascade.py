"""Tests for the cascade generative model and its closed-form algebra.

Claims covered:
  - The closed-form inverse of (I - A) matches numerical inversion and
    factors along directed paths.
  - Induced covariance matches hand computations and Monte-Carlo draws.
  - Unit-variance construction yields an exactly-unit diagonal and
    rejects degenerate edge correlations; a model is unit variance when its
    error variances are exactly those bits, and re-rooting and the lemma
    checks refuse any other model.
  - Sampling is seed-deterministic; every built-in error sampler hits its
    declared moments and is pairwise uncorrelated; the "dependent" one is
    demonstrably not independent; the scaled draws are the raw draws times
    the scale bit for bit; a draw comes in full blocks and one short last
    block, which join to the one-shot draw bit for bit.
  - Re-rooting preserves the covariance and the undirected edge set.
  - A unit-variance model's covariance has an exactly unit diagonal and
    is its own correlation matrix bit for bit, so the strict-dominance
    margin over |C| is the neighbour-gap margin over |rho|; on random
    trees, every root, coefficients whose square underflows or that are
    the largest double below 1, and a 200-vertex chain at 0.1.
  - The covariance-structure checks pass with positive slack on random
    unit-variance models.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ancestors, coefficient_matrix, one_shot_simulate, path_vertices, path_walk_inverse
from treecascade import (
    CascadeModel,
    InvalidInputError,
    Tree,
    UnsupportedModelError,
    correlation_from_covariance,
    get_sampler,
    make_unit_variance_model,
    population_covariance,
    random_unit_variance_model,
    reroot,
    root_tree,
    simulate,
    verify_covariance_lemmas,
)
from treecascade.cascade import BUILTIN_SAMPLERS, _population_correlation, _simulated_blocks, cascade_inverse
from treecascade.dataio import _block_rows
from treecascade.trees import _hop_and_meet_matrices, _path_neighbor_gaps, random_tree


def chain_model(*coeffs, error_vars=None):
    d = len(coeffs) + 1
    t = Tree.from_edges(d, [(i, i + 1) for i in range(d - 1)])
    rt = root_tree(t, 0)
    cmap = {i + 1: c for i, c in enumerate(coeffs)}
    if error_vars is None:
        error_vars = {i: 1.0 for i in range(d)}
    return CascadeModel(rt, cmap, error_vars)


def zero_model(d=3):
    t = Tree.from_edges(d, [(0, i) for i in range(1, d)])
    rt = root_tree(t, 0)
    return CascadeModel(rt, {i: 0.0 for i in range(1, d)}, {i: 1.0 for i in range(d)})


class TestCascadeInverse:
    def test_zero_coefficients_give_identity(self):
        assert np.array_equal(cascade_inverse(zero_model()), np.eye(3))

    def test_chain_path_product(self):
        # oracle: numerically invert I - A and compare
        m = chain_model(0.5, 0.4)
        inv = cascade_inverse(m)
        assert inv[2, 0] == pytest.approx(0.2, abs=1e-15)
        numeric = np.linalg.inv(np.eye(3) - coefficient_matrix(m))
        assert np.max(np.abs(inv - numeric)) < 1e-12

    def test_matches_numeric_inverse_random_models(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            d = int(rng.integers(2, 13))
            m = random_unit_variance_model(d, rng)
            numeric = np.linalg.inv(np.eye(d) - coefficient_matrix(m))
            assert np.max(np.abs(cascade_inverse(m) - numeric)) < 1e-12

    def test_path_factoring(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(3, 10))
            m = random_unit_variance_model(d, rng)
            inv = cascade_inverse(m)
            rt = m.rt
            for i in range(d):
                for j in ancestors(rt, i):
                    for k in path_vertices(rt, j, i):
                        assert inv[i, j] == pytest.approx(
                            inv[i, k] * inv[k, j], rel=1e-15, abs=1e-300
                        )


def assert_bit_equal(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestInverseMatchesWalkOracle:
    def test_single_vertex(self):
        m = random_unit_variance_model(1, np.random.default_rng(0))
        assert_bit_equal(cascade_inverse(m), path_walk_inverse(m))

    def test_star(self):
        rng = np.random.default_rng(6)
        leaves = 40
        rt = root_tree(Tree.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)]), 7)
        m = make_unit_variance_model(
            rt, {i: float(rng.uniform(-0.95, 0.95)) for i in rt.non_root_vertices()}
        )
        assert_bit_equal(cascade_inverse(m), path_walk_inverse(m))

    def test_chain_of_200(self):
        rng = np.random.default_rng(8)
        rt = root_tree(Tree.from_edges(200, [(i, i + 1) for i in range(199)]), 120)
        m = make_unit_variance_model(
            rt, {i: float(rng.uniform(0.2, 0.99)) * (-1) ** i for i in rt.non_root_vertices()}
        )
        assert_bit_equal(cascade_inverse(m), path_walk_inverse(m))

    def test_random_models(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            m = random_unit_variance_model(int(rng.integers(1, 60)), rng)
            assert_bit_equal(cascade_inverse(m), path_walk_inverse(m))

    def test_signed_zeros_and_underflow(self):
        # -0.0 coefficients and products that underflow keep the walk's sign bits
        coeffs = [-0.0 if i % 3 == 0 else -1e-3 for i in range(1, 400)]
        m = chain_model(*coeffs)
        inv = cascade_inverse(m)
        assert_bit_equal(inv, path_walk_inverse(m))
        assert np.signbit(inv[1, 0]) and inv[399, 300] == 0.0


class TestPopulationCovariance:
    def test_identity_case(self):
        assert np.array_equal(population_covariance(zero_model()), np.eye(3))

    def test_two_vertex_hand_computation(self):
        m = chain_model(0.6, error_vars={0: 1.0, 1: 0.64})
        cov = population_covariance(m)
        assert cov == pytest.approx(np.array([[1.0, 0.6], [0.6, 1.0]]), abs=1e-15)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(9)
        m = random_unit_variance_model(5, rng)
        ds = simulate(m, get_sampler("gaussian"), 1_000_000, seed=123)
        empirical = ds.values.T @ ds.values / ds.n
        assert np.max(np.abs(empirical - population_covariance(m))) < 5e-3


@st.composite
def signed_trees(draw):
    """A random tree on at most 40 vertices and one signed coefficient per vertex.

    Magnitudes include one whose square underflows to 0, the largest double
    below 1, and squares on both sides of 1/2, where the rounding of
    ``1 - a * a`` changes from exact to inexact.
    """
    d = draw(st.integers(1, 40))
    tree = random_tree(d, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    magnitude = st.one_of(
        st.sampled_from([1e-200, 1.0 - 2.0**-53, 2.0**-0.5, float(np.nextafter(2.0**-0.5, 0.0))]),
        st.floats(0.01, 0.999),
        st.floats(2.0**-1074, 1.0 - 2.0**-53),
    )
    signs = st.sampled_from([1.0, -1.0])
    coeffs = draw(st.lists(st.tuples(signs, magnitude).map(lambda p: p[0] * p[1]), min_size=d, max_size=d))
    return tree, coeffs


class TestUnitVarianceConstruction:
    def test_single_edge(self):
        rt = root_tree(Tree.from_edges(2, [(0, 1)]), 0)
        m = make_unit_variance_model(rt, {1: 0.6})
        assert m.error_vars == {0: 1.0, 1: 0.64}
        assert np.diag(population_covariance(m)) == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_chain_correlation_product(self):
        m = make_unit_variance_model(
            root_tree(Tree.from_edges(3, [(0, 1), (1, 2)]), 0), {1: 0.5, 2: 0.5}
        )
        cov = population_covariance(m)
        inv = cascade_inverse(m)
        assert cov[0, 2] == pytest.approx(0.25, abs=1e-15)
        assert cov[0, 2] == pytest.approx(inv[2, 0], abs=1e-15)

    def test_magnitude_range_must_exclude_zero(self):
        with pytest.raises(
            InvalidInputError, match=r"^magnitude range must satisfy 0 < lo <= hi < 1, got \(0\.0, 0\.5\)$"
        ):
            random_unit_variance_model(4, np.random.default_rng(0), magnitude_range=(0.0, 0.5))

    def test_unit_diagonal_for_random_inputs(self):
        rng = np.random.default_rng(21)
        models = [random_unit_variance_model(int(rng.integers(1, 11)), rng) for _ in range(25)]
        chain = root_tree(Tree.from_edges(200, [(i, i + 1) for i in range(199)]), 0)
        models.append(make_unit_variance_model(chain, {i: 0.99 * (-1) ** i for i in range(1, 200)}))
        for m in models:
            diag = np.diag(population_covariance(m))
            assert np.max(np.abs(diag - 1.0)) <= 1e-12

    @given(signed_trees())
    @example((Tree.from_edges(200, [(i, i + 1) for i in range(199)]), [0.1] * 200))
    @settings(max_examples=60, deadline=None)
    def test_covariance_is_its_own_correlation_matrix(self, tree_and_coeffs):
        # under every root, so each vertex's coefficient also meets the other rounding cases
        tree, coeffs = tree_and_coeffs
        hop, _ = _hop_and_meet_matrices(root_tree(tree, 0))  # the first hop does not depend on the root
        for root in range(tree.d):
            rt = root_tree(tree, root)
            m = make_unit_variance_model(rt, {v: coeffs[v] for v in rt.non_root_vertices()})
            cov = population_covariance(m)
            assert (np.diag(cov) == 1.0).all()
            corr = correlation_from_covariance(cov).corr
            assert np.array_equal(cov.view(np.uint64), corr.view(np.uint64))
            assert np.array_equal(_population_correlation(m).corr.view(np.uint64), cov.view(np.uint64))
            # the strict-triangle margin as verify took it, from its own normalization
            margin, pairs = _path_neighbor_gaps(np.abs(corr), hop)
            dominance = verify_covariance_lemmas(m)[-1]
            assert (dominance.name, dominance.worst, dominance.pairs_checked) == ("strict-dominance", margin, pairs)

    @pytest.mark.parametrize("rho", [0.0, 1.0, -1.0, 1.5, float("nan")])
    def test_degenerate_correlations_rejected(self, rho):
        rt = root_tree(Tree.from_edges(2, [(0, 1)]), 0)
        with pytest.raises(InvalidInputError):
            make_unit_variance_model(rt, {1: rho})

    def test_unit_variance_is_read_from_the_numbers(self):
        rng = np.random.default_rng(5)
        chain = root_tree(Tree.from_edges(3, [(0, 1), (1, 2)]), 0)
        built = [make_unit_variance_model(chain, {1: 0.5, 2: -0.3})]
        built += [random_unit_variance_model(int(rng.integers(1, 9)), rng) for _ in range(10)]
        built += [reroot(m, m.d - 1) for m in built]
        built.append(CascadeModel(root_tree(Tree(1), 0), {}, {0: 1.0}))
        for m in built:
            assert m.unit_variance
            # one float step from 1 at the root, or from 1 - a^2 anywhere else, is not unit variance
            for v, s in m.error_vars.items():
                for toward in (0.0, 2.0):
                    nudged = {**m.error_vars, v: float(np.nextafter(s, toward))}
                    assert not CascadeModel(m.rt, m.coeffs, nudged).unit_variance
        # coefficients a unit-variance model could have, with other error variances
        m = CascadeModel(chain, {1: 0.5, 2: 0.5}, {0: 1.0, 1: 0.2, 2: 3.0})
        with pytest.raises(UnsupportedModelError):
            reroot(m, 2)
        with pytest.raises(UnsupportedModelError):
            verify_covariance_lemmas(m)

    def test_wrong_coefficient_keys_rejected(self):
        rt = root_tree(Tree.from_edges(3, [(0, 1), (1, 2)]), 0)
        with pytest.raises(InvalidInputError):
            make_unit_variance_model(rt, {1: 0.5})
        with pytest.raises(InvalidInputError):
            CascadeModel(rt, {0: 0.5, 2: 0.5}, {i: 1.0 for i in range(3)})


class TestSimulate:
    def test_zero_coupling_recovers_error_covariance(self):
        m = zero_model(4)
        ds = simulate(m, get_sampler("gaussian"), 200_000, seed=1)
        cov = ds.values.T @ ds.values / ds.n
        assert np.max(np.abs(cov - np.eye(4))) < 0.02

    def test_chain_correlation_gaussian(self):
        m = make_unit_variance_model(
            root_tree(Tree.from_edges(3, [(0, 1), (1, 2)]), 0), {1: 0.5, 2: 0.5}
        )
        ds = simulate(m, get_sampler("gaussian"), 1_000_000, seed=7)
        z = ds.values
        corr = float(np.mean(z[:, 0] * z[:, 2]) / np.sqrt(np.mean(z[:, 0] ** 2) * np.mean(z[:, 2] ** 2)))
        assert corr == pytest.approx(0.25, abs=3e-3)

    def test_chain_correlation_rademacher(self):
        # the same second-order structure arises under two-point errors
        m = make_unit_variance_model(
            root_tree(Tree.from_edges(3, [(0, 1), (1, 2)]), 0), {1: 0.5, 2: 0.5}
        )
        ds = simulate(m, get_sampler("rademacher"), 1_000_000, seed=8)
        z = ds.values
        corr = float(np.mean(z[:, 0] * z[:, 2]) / np.sqrt(np.mean(z[:, 0] ** 2) * np.mean(z[:, 2] ** 2)))
        assert corr == pytest.approx(0.25, abs=3e-3)

    def test_seed_determinism(self):
        m = random_unit_variance_model(4, np.random.default_rng(3))
        a = simulate(m, get_sampler("laplace"), 100, seed=5)
        b = simulate(m, get_sampler("laplace"), 100, seed=5)
        c = simulate(m, get_sampler("laplace"), 100, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_sample_count_validated(self):
        with pytest.raises(InvalidInputError):
            simulate(zero_model(), get_sampler("gaussian"), 0, seed=1)

    def test_negative_seed_validated(self):
        with pytest.raises(InvalidInputError, match="seed must be >= 0, got -1"):
            simulate(zero_model(), get_sampler("gaussian"), 5, seed=-1)

    def test_column_order_matches_vertices(self):
        m = chain_model(0.9)
        ds = simulate(m, get_sampler("gaussian"), 50_000, seed=2)
        assert ds.names == ("x0", "x1")
        # child column equals coeff * parent + error, so they co-move
        assert np.corrcoef(ds.values.T)[0, 1] > 0.5


class TestErrorSamplers:
    VARIANCES = np.array([1.0, 0.25, 2.0])

    def draw(self, name, seed, n):
        """``n`` rows of the named sampler, its blocks joined."""
        return np.concatenate(list(BUILTIN_SAMPLERS[name](np.random.default_rng(seed), n, self.VARIANCES)))

    @pytest.mark.parametrize("name", sorted(BUILTIN_SAMPLERS))
    def test_marginal_moments(self, name):
        n = 200_000
        draws = self.draw(name, 33, n)
        means = draws.mean(axis=0)
        variances = (draws * draws).mean(axis=0)
        assert np.all(np.abs(means) <= 3.0 * np.sqrt(self.VARIANCES / n))
        assert np.all(np.abs(variances - self.VARIANCES) <= 5.0 * self.VARIANCES / np.sqrt(n))

    @pytest.mark.parametrize("name", sorted(BUILTIN_SAMPLERS))
    def test_pairwise_uncorrelated(self, name):
        n = 200_000
        draws = self.draw(name, 37, n)
        corr = np.corrcoef(draws.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off)) < 4.0 / np.sqrt(n)

    @pytest.mark.parametrize(
        "name, draw, scale",
        [
            ("gaussian", lambda rng, shape: rng.standard_normal(shape), lambda v: np.sqrt(v)),
            ("laplace", lambda rng, shape: rng.laplace(0.0, 1.0, shape), lambda v: np.sqrt(v / 2.0)),
            ("uniform", lambda rng, shape: rng.uniform(-1.0, 1.0, shape), lambda v: np.sqrt(3.0 * v)),
        ],
    )
    def test_in_place_scaling_keeps_the_draws(self, name, draw, scale):
        # simulate's output files are pinned: each block is the raw draw times its scale
        draws = self.draw(name, 43, 500)
        expected = draw(np.random.default_rng(43), (500, 3)) * scale(self.VARIANCES)
        assert np.array_equal(draws.view(np.int64), expected.view(np.int64))

    def test_dependent_sampler_is_not_independent(self):
        # shared magnitude: squared draws are (nearly) perfectly correlated
        draws = self.draw("dependent", 41, 50_000)
        sq_corr = np.corrcoef((draws**2).T)
        assert np.min(sq_corr) > 0.99

    @pytest.mark.parametrize("name", sorted(BUILTIN_SAMPLERS))
    def test_blocks_are_full_but_the_last(self, name):
        # every n-row pass ends with a short block; none is empty, none takes the remainder
        for d in (1, 9, 30):
            model = random_unit_variance_model(d, np.random.default_rng(d))
            step = _block_rows(d)
            for n in (1, step - 1, step, step + 1, 2 * step + 7):
                blocks = list(_simulated_blocks(model, get_sampler(name), n, 47))
                short = [n % step] if n % step else []
                assert [len(b) for b in blocks] == [step] * (n // step) + short, (d, n)
                assert all(b.flags.c_contiguous for b in blocks)
                expected = one_shot_simulate(model, name, n, 47)
                assert np.array_equal(np.concatenate(blocks).view(np.int64), expected.view(np.int64)), (d, n)

    def test_unknown_sampler_lists_available(self):
        with pytest.raises(InvalidInputError, match="gaussian"):
            get_sampler("cauchy")

    def test_empirical_covariance_converges_for_every_sampler(self):
        # elementwise |empirical - population| <= 5 / sqrt(n) at n = 1e5
        n = 100_000
        m = random_unit_variance_model(5, np.random.default_rng(55))
        target = population_covariance(m)
        for seed, name in enumerate(sorted(BUILTIN_SAMPLERS), start=60):
            ds = simulate(m, BUILTIN_SAMPLERS[name], n, seed=seed)
            cov = ds.values.T @ ds.values / n
            assert np.max(np.abs(cov - target)) <= 5.0 / np.sqrt(n), name


class TestReroot:
    def test_same_root_is_identity(self):
        m = random_unit_variance_model(5, np.random.default_rng(71))
        assert reroot(m, m.root) is m

    def test_two_vertex_reroot(self):
        rt = root_tree(Tree.from_edges(2, [(0, 1)]), 0)
        m = make_unit_variance_model(rt, {1: 0.6})
        flipped = reroot(m, 1)
        assert flipped.root == 1
        assert flipped.coeffs[0] == pytest.approx(0.6, abs=1e-15)
        assert flipped.error_vars[0] == pytest.approx(0.64, abs=1e-15)
        assert flipped.error_vars[1] == 1.0
        assert np.max(np.abs(population_covariance(flipped) - population_covariance(m))) < 1e-15

    def test_covariance_and_edges_preserved(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            m = random_unit_variance_model(d, rng)
            cov = population_covariance(m)
            for r in range(d):
                moved = reroot(m, r)
                assert moved.rt.tree.edges == m.rt.tree.edges
                assert np.max(np.abs(population_covariance(moved) - cov)) <= 1e-12

    def test_requires_unit_variance(self):
        with pytest.raises(UnsupportedModelError):
            reroot(chain_model(0.5), 1)

    @pytest.mark.parametrize("new_root", [4, -1])
    def test_root_out_of_range(self, new_root):
        # the range is root_tree's check, with its message
        m = random_unit_variance_model(4, np.random.default_rng(1))
        with pytest.raises(InvalidInputError, match=rf"^root {new_root} out of range for 4 vertices$"):
            reroot(m, new_root)


class TestCovarianceLemmaChecks:
    def test_chain_ancestor_identity(self):
        m = make_unit_variance_model(
            root_tree(Tree.from_edges(3, [(0, 1), (1, 2)]), 0), {1: 0.5, 2: 0.5}
        )
        report = verify_covariance_lemmas(m)
        by_name = {c.name: c for c in report}
        assert all(c.passed for c in report)
        assert by_name["ancestor-covariance"].worst <= 1e-15
        assert population_covariance(m)[0, 2] == pytest.approx(0.25, abs=1e-15)

    def test_star_branching_identity(self):
        rt = root_tree(Tree.from_edges(3, [(0, 1), (0, 2)]), 0)
        m = make_unit_variance_model(rt, {1: 0.6, 2: 0.7})
        cov = population_covariance(m)
        inv = cascade_inverse(m)
        assert cov[1, 2] == pytest.approx(0.42, abs=1e-15)
        assert cov[1, 2] == pytest.approx(inv[1, 0] * inv[2, 0], abs=1e-15)
        assert all(c.passed for c in verify_covariance_lemmas(m))

    def test_random_models_pass_with_positive_slack(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            d = int(rng.integers(3, 9))
            report = verify_covariance_lemmas(random_unit_variance_model(d, rng))
            assert all(c.passed for c in report)
            by_name = {c.name: c for c in report}
            if by_name["strict-dominance"].pairs_checked:
                assert by_name["strict-dominance"].worst > 0.0

    def test_requires_unit_variance(self):
        with pytest.raises(UnsupportedModelError):
            verify_covariance_lemmas(chain_model(0.5))

    def test_single_vertex_vacuous(self):
        t = Tree(1)
        m = CascadeModel(root_tree(t, 0), {}, {0: 1.0})
        assert all(c.passed for c in verify_covariance_lemmas(m))


class TestModelValidation:
    def test_coefficient_must_be_finite(self):
        rt = root_tree(Tree.from_edges(2, [(0, 1)]), 0)
        with pytest.raises(InvalidInputError, match=r"^coefficient at vertex 1 is not finite: nan$"):
            CascadeModel(rt, {1: float("nan")}, {0: 1.0, 1: 1.0})

    def test_error_vars_must_be_positive(self):
        rt = root_tree(Tree.from_edges(2, [(0, 1)]), 0)
        with pytest.raises(InvalidInputError):
            CascadeModel(rt, {1: 0.5}, {0: 1.0, 1: 0.0})
        with pytest.raises(InvalidInputError):
            CascadeModel(rt, {1: 0.5}, {0: -1.0, 1: 1.0})

    def test_error_vars_must_cover_vertices(self):
        rt = root_tree(Tree.from_edges(2, [(0, 1)]), 0)
        with pytest.raises(InvalidInputError):
            CascadeModel(rt, {1: 0.5}, {0: 1.0})
