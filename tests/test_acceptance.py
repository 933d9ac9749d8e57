"""Acceptance suite: one test per release criterion, with pinned tolerances.

Each test prints a single PASS/FAIL line.  Run with

    pytest tests/test_acceptance.py -v -s

Criteria:
  1. population-recovery      200/200 exact-correlation fits recover the
                              generating tree uniquely (d in 3..8), < 5 s
  2. empirical-recovery       >= 95/100 tree recoveries per error sampler
                              at d=10, n=100000, < 2 min
  3. oracle-equivalence       fit objective exactly equals brute force on
                              100 instances per d in 3..6, < 30 s
  4. objective-identity       every fit above satisfies
                              |objective - (d - sum weights)| <= 1e-12
  5. covariance-lemmas        closed-form inverse and covariance structure
                              within 1e-12, strict bound with positive
                              slack, 100 models, d in 3..10, < 10 s
  6. chow-liu-correspondence  MI tree equals regression tree on 100 random
                              SPD + 20 cascade covariances, < 10 s
  7. monotone-invariance      identical MSTs under w, w^2, -1/2 log(1-w)
                              on 100 random weight graphs
  8. reroot-invariance        covariance within 1e-12 and identical edges
                              for every root of 100 random cascades
  9. sample-pipeline          bundled 30-column CSV flows fit -> cluster ->
                              export-dot deterministically with 29 edges
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import random_spd_covariance
from oracles import brute_force_fit, chow_liu_tree, coefficient_matrix, graph_from_weights
from treecascade import (
    correlation_from_covariance,
    empirical_fit,
    fit_cascade,
    get_sampler,
    load_fit,
    maximum_spanning_tree,
    population_covariance,
    random_unit_variance_model,
    reroot,
    sample_prices_path,
    simulate,
    verify_covariance_lemmas,
)
from treecascade.cascade import cascade_inverse
from treecascade.cli import main as cli_main


def report(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def identity_gap(fit) -> float:
    return abs(fit.objective - (fit.tree.d - math.fsum(fit.weights.values())))


@pytest.fixture(scope="module")
def population_results():
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    outcomes = []
    for trial in range(200):
        d = int(rng.integers(3, 9))
        model = random_unit_variance_model(d, rng, magnitude_range=(0.2, 0.9))
        fit = fit_cascade(correlation_from_covariance(population_covariance(model)))
        outcomes.append(
            (fit.tree.edges == model.rt.tree.edges and fit.tree_unique, identity_gap(fit))
        )
    return outcomes, time.perf_counter() - start


@pytest.fixture(scope="module")
def empirical_results():
    samplers = ("gaussian", "laplace", "rademacher", "dependent")
    start = time.perf_counter()
    recovered = {}
    gaps = []
    for s_idx, name in enumerate(samplers):
        sampler = get_sampler(name)
        hits = 0
        for trial in range(100):
            model = random_unit_variance_model(
                10, np.random.default_rng(5000 + trial), magnitude_range=(0.2, 0.9)
            )
            ds = simulate(model, sampler, 100_000, seed=90_000 + 1000 * s_idx + trial)
            fit = empirical_fit(ds)
            hits += fit.tree.edges == model.rt.tree.edges
            gaps.append(identity_gap(fit))
        recovered[name] = hits
    return recovered, gaps, time.perf_counter() - start


@pytest.fixture(scope="module")
def oracle_results():
    start = time.perf_counter()
    exact = True
    trees_ok = True
    gaps = []
    for d in (3, 4, 5, 6):
        rng = np.random.default_rng(300 + d)
        for _ in range(100):
            c = correlation_from_covariance(random_spd_covariance(d, rng))
            fit = fit_cascade(c)
            oracle = brute_force_fit(c)
            exact = exact and fit.objective == oracle.objective
            if fit.tree_unique:
                trees_ok = trees_ok and fit.tree.edges == oracle.tree.edges
            gaps.append(identity_gap(fit))
            gaps.append(identity_gap(oracle))
    return exact, trees_ok, gaps, time.perf_counter() - start


def test_criterion_1_population_recovery(population_results):
    outcomes, elapsed = population_results
    hits = sum(ok for ok, _ in outcomes)
    ok = hits == 200 and elapsed < 5.0
    report(1, "population-recovery", ok, f"{hits}/200 recovered uniquely in {elapsed:.2f}s")


def test_criterion_2_empirical_recovery(empirical_results):
    recovered, _, elapsed = empirical_results
    ok = all(hits >= 95 for hits in recovered.values()) and elapsed < 120.0
    detail = ", ".join(f"{name}={hits}/100" for name, hits in sorted(recovered.items()))
    report(2, "empirical-recovery", ok, f"{detail} in {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence(oracle_results):
    exact, trees_ok, _, elapsed = oracle_results
    ok = exact and trees_ok and elapsed < 30.0
    report(
        3,
        "oracle-equivalence",
        ok,
        f"exact objective equality={exact}, unique-tree agreement={trees_ok}, {elapsed:.1f}s",
    )


def test_criterion_4_objective_identity(population_results, empirical_results, oracle_results):
    gaps = [gap for _, gap in population_results[0]]
    gaps += empirical_results[1]
    gaps += oracle_results[2]
    worst = max(gaps)
    report(
        4,
        "objective-identity",
        worst <= 1e-12,
        f"max |objective - (d - sum weights)| = {worst:.3e} over {len(gaps)} fits",
    )


def test_criterion_5_covariance_lemmas():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst_inverse = 0.0
    worst_equality = 0.0
    min_slack = math.inf
    bound_ok = True
    for trial in range(100):
        d = int(rng.integers(3, 11))
        model = random_unit_variance_model(d, rng)
        numeric = np.linalg.inv(np.eye(d) - coefficient_matrix(model))
        worst_inverse = max(
            worst_inverse, float(np.max(np.abs(cascade_inverse(model) - numeric)))
        )
        assert all(abs(a) < 1.0 for a in model.coeffs.values())
        checks = {c.name: c for c in verify_covariance_lemmas(model)}
        worst_equality = max(
            worst_equality, checks["ancestor-covariance"].worst, checks["branching-covariance"].worst
        )
        if checks["strict-dominance"].pairs_checked:
            min_slack = min(min_slack, checks["strict-dominance"].worst)
            bound_ok = bound_ok and checks["strict-dominance"].passed
    elapsed = time.perf_counter() - start
    ok = worst_inverse <= 1e-12 and worst_equality <= 1e-12 and bound_ok and min_slack > 0.0
    ok = ok and elapsed < 10.0
    report(
        5,
        "covariance-lemmas",
        ok,
        f"inverse gap {worst_inverse:.2e}, equality gap {worst_equality:.2e}, "
        f"min slack {min_slack:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_chow_liu_correspondence():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    agree = 0
    total = 0
    for _ in range(100):
        cov = random_spd_covariance(5, rng)
        c = correlation_from_covariance(cov)
        mi_tree = chow_liu_tree(c).tree
        reg_tree = fit_cascade(c).tree
        agree += mi_tree.edges == reg_tree.edges
        total += 1
    for _ in range(20):
        d = int(rng.integers(3, 9))
        cov = population_covariance(random_unit_variance_model(d, rng))
        c = correlation_from_covariance(cov)
        mi_tree = chow_liu_tree(c).tree
        reg_tree = fit_cascade(c).tree
        agree += mi_tree.edges == reg_tree.edges
        total += 1
    elapsed = time.perf_counter() - start
    ok = agree == total and elapsed < 10.0
    report(6, "chow-liu-correspondence", ok, f"{agree}/{total} identical edge sets, {elapsed:.1f}s")


def test_criterion_7_monotone_invariance():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(100):
        d = int(rng.integers(3, 11))
        raw = {
            (i, j): float(w)
            for (i, j), w in zip(
                ((i, j) for i in range(d) for j in range(i + 1, d)),
                rng.uniform(0.0, 0.99, size=d * (d - 1) // 2),
            )
        }
        base = maximum_spanning_tree(graph_from_weights(d, raw)).tree.edges
        squared = maximum_spanning_tree(
            graph_from_weights(d, {e: w * w for e, w in raw.items()})
        ).tree.edges
        logged = maximum_spanning_tree(
            graph_from_weights(d, {e: -0.5 * math.log1p(-w) for e, w in raw.items()})
        ).tree.edges
        ok = ok and base == squared == logged
    report(7, "monotone-invariance", ok, "w, w^2, -1/2 log(1-w) select identical trees, 100 graphs")


def test_criterion_8_reroot_invariance():
    rng = np.random.default_rng(808)
    worst = 0.0
    edges_ok = True
    for _ in range(100):
        d = int(rng.integers(2, 11))
        model = random_unit_variance_model(d, rng)
        cov = population_covariance(model)
        for r in range(d):
            moved = reroot(model, r)
            edges_ok = edges_ok and moved.rt.tree.edges == model.rt.tree.edges
            worst = max(worst, float(np.max(np.abs(population_covariance(moved) - cov))))
    ok = edges_ok and worst <= 1e-12
    report(8, "reroot-invariance", ok, f"max covariance drift {worst:.2e}, edge sets preserved")


def test_criterion_9_sample_pipeline(tmp_path, capsys):
    data = str(sample_prices_path())
    runs = []
    for tag in ("a", "b"):
        fit_path = tmp_path / f"fit_{tag}.json"
        dot_path = tmp_path / f"tree_{tag}.dot"
        codes = [cli_main(["fit", "--data", data, "--diff", "--out", str(fit_path)])]
        fit_stdout = capsys.readouterr().out
        codes.append(cli_main(["cluster", "--fit", str(fit_path), "--k", "5"]))
        cluster_out = capsys.readouterr().out
        codes.append(cli_main(["export-dot", "--fit", str(fit_path), "--out", str(dot_path)]))
        capsys.readouterr()
        runs.append(
            (
                codes,
                fit_path.read_bytes(),
                fit_stdout,
                cluster_out,
                dot_path.read_text(encoding="utf-8"),
            )
        )
    codes_a, fit_a, stdout_a, cluster_a, dot_a = runs[0]
    codes_b, fit_b, stdout_b, cluster_b, dot_b = runs[1]
    edge_count = sum("--" in line for line in dot_a.splitlines())
    cluster_count = len(cluster_a.strip().splitlines())
    deterministic = (
        fit_a == fit_b and stdout_a == stdout_b and cluster_a == cluster_b and dot_a == dot_b
    )
    all_exit_zero = all(c == 0 for c in codes_a + codes_b)
    fit = load_fit(tmp_path / "fit_a.json")
    ok = (
        all_exit_zero
        and deterministic
        and edge_count == 29
        and cluster_count == 5
        and fit.tree.d == 30
    )
    with capsys.disabled():
        report(
            9,
            "sample-pipeline",
            ok,
            f"exit codes 0, deterministic={deterministic}, {edge_count} DOT edges, "
            f"{cluster_count} clusters",
        )
