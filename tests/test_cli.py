"""End-to-end tests of the command-line interface.

Claims covered:
  - Every subcommand succeeds on well-formed input with exit 0 and is
    deterministic given its flags.
  - Errors exit nonzero with messages naming the offending input, and
    root validation happens before data rows are parsed.
  - Fit documents round-trip through simulate/cluster/export-dot.
  - A simulate -> fit round trip recovers the generating tree.
  - Input that is not UTF-8, and fit documents holding NaN or Infinity,
    exit 2 with a message naming the file or the field.
  - On fuzzed CSV text and fit documents every command returns 0, 1 or 2
    and raises nothing.
  - A column near the float limit fits like the same column scaled down.
  - fit and chow-check --data hold one n-by-d array: their traced peak
    memory stays within 1.5 times the parsed values.
  - simulate streams: its CSV is byte for byte the one-shot draw written
    by csv.writer, its traced peak stays under 8 MiB at n = 200000, an
    overflowing model gives one error line naming the global row, and no
    partial regular file is left behind.
  - A constant column is rejected even when its mean rounds.
  - verify builds the inverse, the covariance and the hop/meet pair once,
    and chow-check --fit the covariance once; verify's report equals the
    one built from the public functions called one by one.
  - simulate takes its blocks lazily, so a huge n starts writing at
    once; the dependent sampler names its failed allocation, exit 2.
  - An allocation numpy refuses in fit, chow-check --data, verify or
    simulate exits 2 with one error line and leaves no output file.
  - export-dot escapes '\\' and '"' in column names.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecascade
from treecascade import (
    cascade_inverse,
    check_strict_triangle_condition,
    coefficient_matrix,
    correlation_from_covariance,
    fit_cascade,
    get_sampler,
    load_fit,
    population_covariance,
    random_unit_variance_model,
    sample_prices_path,
    save_fit,
    squared_correlation_graph,
    verify_covariance_lemmas,
)
from treecascade import cascade as cascade_module
from treecascade import trees as trees_module
from treecascade.cascade import _simulated_blocks
from treecascade.cli import main
from treecascade.dataio import _block_rows, fit_to_document, load_document, model_from_document

from conftest import csv_texts
from oracles import csv_writer_bytes, one_shot_simulate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def model_fit_document(tmp_path, d=10, seed=19, root_hint=None, name="model.json"):
    model = random_unit_variance_model(d, np.random.default_rng(seed), magnitude_range=(0.3, 0.85))
    fit = fit_cascade(
        correlation_from_covariance(population_covariance(model)), root_hint=root_hint
    )
    path = tmp_path / name
    save_fit(fit, path)
    return model, fit, path


def chain_document(tmp_path, coeffs, error_vars, name="chain.json"):
    """A non-unit-variance fit document on the chain x0 -> x1 -> ..., with no names."""
    d = len(error_vars)
    document = {
        "format_version": 1,
        "d": d,
        "root": 0,
        "edges": [{"child": i + 1, "parent": i, "coeff": c} for i, c in enumerate(coeffs)],
        "error_vars": error_vars,
        "unit_variance": False,
        "objective": 0.0,
        "weights": [0.5] * (d - 1),
        "tree_unique": True,
        "root_hint_source": "default",
        "names": None,
    }
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def overflowing_document(tmp_path):
    # the inverse's corner entry overflows, and so does x1 in every row
    return chain_document(tmp_path, [1e200, 1e200], [1e300, 1e300, 1e300], "overflow.json")


# A column constant at 0.1 has the mean 0.10000000000000002; differenced,
# -0.1, 0, 0.1, 0.2 give that column too.
INEXACT_MEAN_CSV = "a,b,c\n0.1,1,2\n0.1,2,1\n0.1,4,3\n"
INEXACT_MEAN_DIFF_CSV = "a,b,c\n-0.1,1,2\n0,2,1\n0.1,4,3\n0.2,7,2\n"


class TestFitCommand:
    def test_sample_pipeline(self, capsys, tmp_path):
        out = tmp_path / "fit.json"
        code, stdout, _ = run(
            capsys, "fit", "--data", str(sample_prices_path()), "--diff", "--out", str(out)
        )
        assert code == 0
        assert "objective:" in stdout and "tree_unique:" in stdout
        fit = load_fit(out)
        assert fit.tree.d == 30 and len(fit.tree.edges) == 29

    def test_missing_file_names_path(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "fit", "--data", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "f.json")
        )
        assert code != 0
        assert "absent.csv" in stderr

    def test_root_validated_before_data_rows(self, capsys, tmp_path):
        # data rows are garbage; the root range error must fire first
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\nnot,numbers,here\n", encoding="utf-8")
        code, _, stderr = run(
            capsys, "fit", "--data", str(path), "--root", "99", "--out", str(tmp_path / "f.json")
        )
        assert code != 0
        assert "--root 99" in stderr and "3 columns" in stderr

    def test_header_only_csv_exits_2_without_warning(self, capsys, tmp_path):
        # numpy's reader would warn on stderr that it read no data
        path = tmp_path / "header.csv"
        path.write_text("a,b\n")
        code, _, stderr = run(capsys, "fit", "--data", str(path), "--out", str(tmp_path / "f.json"))
        assert code == 2
        assert stderr == "error: empirical fit needs at least 2 rows, got 0\n"

    @pytest.mark.parametrize(
        "rows, flags, message",
        [
            (1, ["fit"], "empirical fit needs at least 2 rows, got 1"),
            (0, ["fit", "--diff"], "need at least 2 rows to difference, got 0"),
            (1, ["fit", "--diff"], "need at least 2 rows to difference, got 1"),
            (2, ["fit", "--diff"], "empirical fit needs at least 2 rows, got 1"),
            (0, ["chow-check"], "standardization needs at least 2 rows, got 0"),
            (1, ["chow-check"], "standardization needs at least 2 rows, got 1"),
        ],
    )
    def test_too_few_rows_exit_2_with_one_message(self, capsys, tmp_path, rows, flags, message):
        path = tmp_path / "short.csv"
        path.write_text("a,b\n" + "".join(f"{r},{r * r + 1}\n" for r in range(rows)))
        argv = [flags[0], "--data", str(path), *flags[1:]]
        if flags[0] == "fit":
            argv += ["--out", str(tmp_path / "f.json")]
        code, _, stderr = run(capsys, *argv)
        assert (code, stderr) == (2, f"error: {message}\n")

    def test_column_near_the_float_limit(self, capsys, tmp_path):
        # squaring 1e308 overflows; the fit matches the column scaled by 2**-1000
        fits = []
        for k, scale in enumerate([1.0, 2.0**-1000]):
            path = tmp_path / f"huge{k}.csv"
            path.write_text(f"a,b\n{1e308 * scale!r},1\n{-1e308 * scale!r},2\n{3.0 * scale!r},5\n")
            out = tmp_path / f"huge{k}.json"
            code, _, stderr = run(capsys, "fit", "--data", str(path), "--out", str(out))
            assert (code, stderr) == (0, "")
            fits.append(load_fit(out))
        assert fits[0].tree == fits[1].tree
        assert abs(fits[0].coeffs[1] - fits[1].coeffs[1]) <= 1e-15

    @pytest.mark.parametrize(
        "text, flags",
        [(INEXACT_MEAN_CSV, []), (INEXACT_MEAN_DIFF_CSV, ["--diff"])],
        ids=["fit", "fit-diff"],
    )
    def test_constant_column_with_inexact_mean_rejected(self, capsys, tmp_path, text, flags):
        path = tmp_path / "flat.csv"
        path.write_text(text)
        out = tmp_path / "f.json"
        code, stdout, stderr = run(capsys, "fit", "--data", str(path), *flags, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr == "error: column 'a' has zero variance; cannot standardize\n"
        assert not out.exists()

    def test_deterministic_output(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "fit", "--data", str(sample_prices_path()), "--diff", "--out", str(out1))
        run(capsys, "fit", "--data", str(sample_prices_path()), "--diff", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()


class TestSimulateCommand:
    def test_identical_seeds_identical_files(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code, _, _ = run(
                capsys, "simulate", "--model", str(doc), "--sampler", "gaussian",
                "--n", "500", "--seed", "42", "--out", str(target),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_samples_rejected(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=3)
        code, _, stderr = run(
            capsys, "simulate", "--model", str(doc), "--n", "0", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code != 0 and ">= 1" in stderr

    def test_unknown_sampler_lists_available(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=3)
        code, _, stderr = run(
            capsys, "simulate", "--model", str(doc), "--sampler", "cauchy",
            "--n", "5", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        )
        assert code != 0
        for name in ("gaussian", "laplace", "uniform", "rademacher", "dependent"):
            assert name in stderr

    def test_infinite_objective_named(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=3)
        document = json.loads(doc.read_text())
        document["objective"] = float("inf")
        doc.write_text(json.dumps(document))
        code, _, stderr = run(
            capsys, "simulate", "--model", str(doc), "--n", "5", "--seed", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2 and "objective: value is not finite: inf" in stderr
        assert not (tmp_path / "x.csv").exists()

    def test_simulate_fit_round_trip_recovers_tree(self, capsys, tmp_path):
        model, _, doc = model_fit_document(tmp_path, d=10, seed=23)
        csv_path = tmp_path / "sim.csv"
        code, _, _ = run(
            capsys, "simulate", "--model", str(doc), "--sampler", "laplace",
            "--n", "100000", "--seed", "7", "--out", str(csv_path),
        )
        assert code == 0
        fit_path = tmp_path / "refit.json"
        code, _, _ = run(capsys, "fit", "--data", str(csv_path), "--out", str(fit_path))
        assert code == 0
        assert load_fit(fit_path).tree.edges == model.rt.tree.edges


    @pytest.mark.parametrize("sampler", ["gaussian", "laplace", "uniform", "rademacher", "dependent"])
    def test_streamed_csv_matches_one_shot_oracle(self, capsys, tmp_path, sampler):
        # around one, two and three blocks, where a short block would take other BLAS kernels
        for d in (1, 2, 8, 30, 64):
            _, _, doc = model_fit_document(tmp_path, d=d, seed=d)
            model = model_from_document(load_document(doc))
            names = [f"x{i}" for i in range(d)]
            b = _block_rows(d)
            for n in (1, 2, b - 1, b, b + 1, 2 * b, 2 * b + 1, 3 * b + 17):
                out = tmp_path / "sim.csv"
                seed = n + d
                code, stdout, stderr = run(
                    capsys, "simulate", "--model", str(doc), "--sampler", sampler,
                    "--n", str(n), "--seed", str(seed), "--out", str(out),
                )
                assert (code, stdout, stderr) == (0, f"wrote {n} samples x {d} columns to {out}\n", "")
                expected = csv_writer_bytes(names, one_shot_simulate(model, sampler, n, seed))
                assert out.read_bytes() == expected, (d, n)

    def test_overflowing_model_gives_one_error_line(self, capsys, tmp_path):
        doc = overflowing_document(tmp_path)
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(
            capsys, "simulate", "--model", str(doc), "--n", "5", "--seed", "1", "--out", str(out)
        )
        assert (code, stdout) == (2, "")
        assert stderr == "error: non-finite value at row 1, column 'x1'\n"
        assert not out.exists()

    def test_error_past_the_first_block_removes_the_file(self, capsys, tmp_path):
        # the one difference on this path: a regular file already at --out is removed too
        doc = overflowing_document(tmp_path)
        out = tmp_path / "x.csv"
        out.write_text("an older file\n")
        n = 3 * _block_rows(3) + 5
        code, stdout, stderr = run(
            capsys, "simulate", "--model", str(doc), "--n", str(n), "--seed", "1", "--out", str(out)
        )
        assert (code, stdout, stderr) == (2, "", "error: non-finite value at row 1, column 'x1'\n")
        assert not out.exists()

    def test_later_block_error_names_the_global_row(self, capsys, tmp_path):
        # x1 = 4e307 * x0 + e1 overflows only where |x0| > 4.49
        doc = chain_document(tmp_path, [4e307], [1.0, 1.0])
        model = model_from_document(load_document(doc))
        b = _block_rows(2)
        n = 3 * b + 5
        with np.errstate(over="ignore"):
            values = one_shot_simulate(model, "gaussian", n, 1)
        row = int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0]) + 1
        assert row > 2 * b  # in the third block
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(
            capsys, "simulate", "--model", str(doc), "--sampler", "gaussian",
            "--n", str(n), "--seed", "1", "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: non-finite value at row {row}, column 'x1'\n"
        assert not out.exists()

    @pytest.mark.parametrize("n", [10**18, 10**19])
    def test_dependent_magnitudes_past_memory_named(self, capsys, tmp_path, n):
        # dependent holds 8 bytes per row: 10**18 rows fail to allocate, 10**19 exceed numpy's limit
        _, _, doc = model_fit_document(tmp_path, d=3)
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(
            capsys, "simulate", "--model", str(doc), "--sampler", "dependent",
            "--n", str(n), "--seed", "1", "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: the dependent sampler cannot hold {n} magnitudes\n"
        assert not out.exists()

    def test_huge_n_starts_with_the_first_block(self, tmp_path):
        # a list of the block sizes of 10**18 rows would not fit in memory
        _, _, doc = model_fit_document(tmp_path, d=30)
        model = model_from_document(load_document(doc))
        b = _block_rows(30)
        tracemalloc.start()
        try:
            first = next(_simulated_blocks(model, get_sampler("gaussian"), 10**18, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"
        expected = one_shot_simulate(model, "gaussian", b, 5)
        assert np.array_equal(first.view(np.int64), expected.view(np.int64))

    def test_non_regular_out_is_not_unlinked(self, capsys, tmp_path):
        # a pipe stands in for /dev/stdout: it is written to, then left in place
        doc = overflowing_document(tmp_path)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        code, _, stderr = run(
            capsys, "simulate", "--model", str(doc), "--n", "5", "--seed", "1", "--out", str(pipe)
        )
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert (code, stderr) == (2, "error: non-finite value at row 1, column 'x1'\n")
        assert received == [b"x0,x1,x2\r\n"]
        assert pipe.is_fifo()


class TestVerifyCommand:
    def test_random_model_passes(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--random", "7", "123")
        assert code == 0
        assert "result: pass" in stdout
        assert stdout.count("pass") >= 7

    def test_single_vertex_vacuous_pass(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--random", "1", "5")
        assert code == 0 and "result: pass" in stdout

    def test_document_model_passes(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=6)
        code, stdout, _ = run(capsys, "verify", "--model", str(doc))
        assert code == 0 and "result: pass" in stdout

    def test_zero_coefficient_document_rejected(self, capsys, tmp_path):
        import json

        _, _, doc = model_fit_document(tmp_path, d=3)
        raw = json.loads(doc.read_text())
        raw["edges"][0]["coeff"] = 0.0
        raw["error_vars"] = [1.0, 1.0, 1.0]
        raw["weights"] = [0.0, raw["weights"][1]]
        doc.write_text(json.dumps(raw))
        code, _, stderr = run(capsys, "verify", "--model", str(doc))
        assert code != 0 and "rejected" in stderr


def verify_table(model, label: str) -> str:
    """The ``verify`` report built from the public functions, each called on its own."""
    rows = []
    inv_gap = float(
        np.max(np.abs(cascade_inverse(model) - np.linalg.inv(np.eye(model.d) - coefficient_matrix(model))))
    )
    rows.append(("closed-form-inverse", inv_gap <= 1e-12, f"max gap {inv_gap:.3e}"))
    for check in verify_covariance_lemmas(model).checks:
        rows.append((check.name, check.passed, f"{check.measure} = {check.worst:.3e}"))
    summary = correlation_from_covariance(population_covariance(model))
    triangle = check_strict_triangle_condition(squared_correlation_graph(summary), model.rt.tree)
    rows.append(("strict-triangle", triangle, "squared-correlation weights"))
    fit = fit_cascade(summary)
    recovered = fit.tree.edges == model.rt.tree.edges
    rows.append(("mst-recovery", recovered and fit.tree_unique, f"unique={fit.tree_unique}"))
    gap = abs(fit.objective - (fit.tree.d - sum(fit.weights.values())))
    rows.append(("objective-identity", gap <= 1e-12, f"gap {gap:.3e}"))
    width = max(len(name) for name, _, _ in rows)
    lines = [f"verification of {label}"]
    lines += [f"  {name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}" for name, ok, detail in rows]
    lines.append(f"result: {'pass' if all(ok for _, ok, _ in rows) else 'FAIL'}")
    return "\n".join(lines) + "\n"


def rooted_model_document(tmp_path, d: int, seed: int):
    """A random unit-variance model's fit document, rooted where the model is."""
    model = random_unit_variance_model(d, np.random.default_rng(seed))
    fit = fit_cascade(correlation_from_covariance(population_covariance(model)), root_hint=model.root)
    path = tmp_path / f"model-{d}-{seed}.json"
    save_fit(fit, path)
    return model, path


class TestVerifyAlgebra:
    """``verify`` builds each piece of a model's algebra once, with the same report."""

    @pytest.mark.parametrize("d", [1, 2, 3, 12, 40])
    def test_report_equals_the_public_functions(self, capsys, tmp_path, d):
        for seed in range(4):
            model, path = rooted_model_document(tmp_path, d, seed)
            loaded = model_from_document(load_document(path))
            assert loaded.root == model.root
            code, stdout, _ = run(capsys, "verify", "--model", str(path))
            assert code == 0
            assert stdout == verify_table(loaded, str(path))

    @staticmethod
    def count_calls(monkeypatch, builders):
        """Count the calls of each named function, under every name a treecascade module holds it by."""
        calls = dict.fromkeys(builders, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for key, module in list(sys.modules.items()):
            if key == "treecascade" or key.startswith("treecascade."):
                for attr, value in list(vars(module).items()):
                    for name, fn in builders.items():
                        if value is fn:
                            monkeypatch.setitem(vars(module), attr, counted(name, fn))
        return calls

    def test_each_builder_runs_once(self, monkeypatch, tmp_path):
        builders = {
            "inverse": cascade_module.cascade_inverse,
            "covariance": cascade_module._covariance,
            "hop/meet": trees_module._hop_and_meet_matrices,
        }
        _, path = rooted_model_document(tmp_path, 30, 3)
        calls = self.count_calls(monkeypatch, builders)
        assert quiet_main("verify", "--model", path) == 0
        assert calls == {"inverse": 1, "covariance": 1, "hop/meet": 1}
        calls.update(dict.fromkeys(builders, 0))
        assert quiet_main("chow-check", "--fit", path) == 0
        assert calls == {"inverse": 1, "covariance": 1, "hop/meet": 0}

    def test_root_tree_runs_once_per_document_load(self, monkeypatch, tmp_path):
        # the certificates and the fits take the tree as Prim rooted it at 0
        _, path = rooted_model_document(tmp_path, 30, 3)
        calls = self.count_calls(monkeypatch, {"root_tree": trees_module.root_tree})
        assert quiet_main("verify", "--model", path) == 0
        assert calls == {"root_tree": 1}
        calls["root_tree"] = 0
        assert quiet_main("chow-check", "--fit", path) == 0
        assert calls == {"root_tree": 1}


class TestClusterCommand:
    def test_k1_single_line(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=6)
        code, stdout, _ = run(capsys, "cluster", "--fit", str(doc), "--k", "1")
        assert code == 0
        assert len(stdout.strip().splitlines()) == 1

    def test_kd_singletons(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=6)
        code, stdout, _ = run(capsys, "cluster", "--fit", str(doc), "--k", "6")
        assert code == 0
        assert len(stdout.strip().splitlines()) == 6

    def test_sample_data_five_groups_stable(self, capsys, tmp_path):
        fit_path = tmp_path / "fit.json"
        run(capsys, "fit", "--data", str(sample_prices_path()), "--diff", "--out", str(fit_path))
        code, first, _ = run(capsys, "cluster", "--fit", str(fit_path), "--k", "5")
        assert code == 0
        code, second, _ = run(capsys, "cluster", "--fit", str(fit_path), "--k", "5")
        assert first == second
        assert len(first.strip().splitlines()) == 5

    def test_k_out_of_range(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=4)
        code, _, stderr = run(capsys, "cluster", "--fit", str(doc), "--k", "9")
        assert code != 0 and "--k" in stderr

    def test_non_finite_weight_named(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=4)
        document = json.loads(doc.read_text())
        document["weights"][1] = float("nan")
        doc.write_text(json.dumps(document))
        code, _, stderr = run(capsys, "cluster", "--fit", str(doc), "--k", "2")
        assert code == 2 and "is not finite: nan" in stderr


class TestExportDotCommand:
    def test_two_vertex_single_edge_line(self, capsys, tmp_path):
        from treecascade import CorrelationSummary

        fit = fit_cascade(CorrelationSummary(np.array([[1.0, 0.5], [0.5, 1.0]])))
        doc = tmp_path / "fit.json"
        save_fit(fit, doc)
        out = tmp_path / "fit.dot"
        code, _, _ = run(capsys, "export-dot", "--fit", str(doc), "--out", str(out))
        assert code == 0
        text = out.read_text()
        edge_lines = [ln for ln in text.splitlines() if "--" in ln]
        assert len(edge_lines) == 1
        assert 'label="0.2500"' in text  # 0.5**2 rendered at 4 decimals
        assert text.startswith("graph")

    def test_rooted_export_is_directed(self, capsys, tmp_path):
        _, fit, doc = model_fit_document(tmp_path, d=7, root_hint=3)
        out = tmp_path / "fit.dot"
        code, _, _ = run(capsys, "export-dot", "--fit", str(doc), "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("digraph")
        assert sum("->" in ln for ln in text.splitlines()) == 6

    def test_non_finite_weight_named(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=4)
        document = json.loads(doc.read_text())
        document["weights"][0] = float("nan")
        doc.write_text(json.dumps(document))
        out = tmp_path / "fit.dot"
        code, _, stderr = run(capsys, "export-dot", "--fit", str(doc), "--out", str(out))
        assert code == 2 and "weights[0]: value is not finite: nan" in stderr
        assert not out.exists()

    def test_quote_in_name_escaped(self, capsys, tmp_path):
        # the names a"b and a\ (a trailing backslash would escape the closing quote)
        for header, node in [('"a""b"', 'a\\"b'), ("a\\", "a\\\\")]:
            data = tmp_path / "quote.csv"
            data.write_text(f"{header},c,d\n1,2,4\n2,3,3\n4,1,5\n3,5,2\n", encoding="utf-8")
            fit_path, out = tmp_path / "fit.json", tmp_path / "fit.dot"
            assert run(capsys, "fit", "--data", str(data), "--out", str(fit_path))[0] == 0
            code, _, _ = run(capsys, "export-dot", "--fit", str(fit_path), "--out", str(out))
            assert code == 0
            assert out.read_text(encoding="utf-8") == (
                f'graph cascade {{\n  "{node}";\n  "c";\n  "d";\n'
                f'  "{node}" -- "d" [label="0.0400"];\n  "c" -- "d" [label="0.9657"];\n}}\n'
            )

    def test_round_trip_from_fit_command(self, capsys, tmp_path):
        fit_path = tmp_path / "fit.json"
        run(capsys, "fit", "--data", str(sample_prices_path()), "--diff", "--out", str(fit_path))
        out = tmp_path / "sample.dot"
        code, _, _ = run(capsys, "export-dot", "--fit", str(fit_path), "--out", str(out))
        assert code == 0
        assert sum("--" in ln for ln in out.read_text().splitlines()) == 29


class TestChowCheckCommand:
    def test_dataset_equality_verdict(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=5)
        csv_path = tmp_path / "sim.csv"
        run(capsys, "simulate", "--model", str(doc), "--n", "4000", "--seed", "3",
            "--out", str(csv_path))
        code, stdout, _ = run(capsys, "chow-check", "--data", str(csv_path))
        assert code == 0
        assert "trees_equal: true" in stdout

    def test_equicorrelated_tie_note(self, capsys, tmp_path):
        # full +-1 factorial: every pairwise correlation is exactly zero
        rows = [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
        path = tmp_path / "tie.csv"
        path.write_text(
            "a,b,c\n" + "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"
        )
        code, stdout, _ = run(capsys, "chow-check", "--data", str(path))
        assert code == 0
        assert "tie detected" in stdout

    def test_constant_column_named(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("a,flat,b\n1,5,2\n2,5,1\n3,5,3\n")
        code, _, stderr = run(capsys, "chow-check", "--data", str(path))
        assert code == 2 and "column 'flat' has zero variance" in stderr

    def test_constant_column_with_inexact_mean_rejected(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text(INEXACT_MEAN_CSV)
        code, stdout, stderr = run(capsys, "chow-check", "--data", str(path))
        assert (code, stdout) == (2, "")
        assert stderr == "error: column 'a' has zero variance; cannot standardize\n"

    def test_overflowing_model_gives_one_error_line(self, capsys, tmp_path):
        doc = overflowing_document(tmp_path)
        code, stdout, stderr = run(capsys, "chow-check", "--fit", str(doc))
        assert (code, stdout, stderr) == (2, "", "error: covariance contains non-finite entries\n")

    def test_fit_document_route(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=5)
        code, stdout, _ = run(capsys, "chow-check", "--fit", str(doc))
        assert code == 0 and "trees_equal: true" in stdout

    def test_invalid_fit_document_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{}")
        code, _, stderr = run(capsys, "chow-check", "--fit", str(path))
        assert code != 0 and "missing field" in stderr


# numpy's message when it cannot allocate the d-by-d matrix of d = 200000
NUMPY_OUT_OF_MEMORY = (
    "Unable to allocate 298. GiB for an array with shape (200000, 200000) and data type float64"
)


def out_of_memory(*args, **kwargs):
    raise MemoryError(NUMPY_OUT_OF_MEMORY)


class TestOutOfMemory:
    """An allocation numpy refuses is bad input: one error line, exit 2, no output file.

    One stage is made to raise, because a real d-by-d request at d = 200000
    may be granted, and then run for hours, on a host that overcommits memory.
    """

    def assert_one_error_line(self, capsys, *argv):
        assert run(capsys, *argv) == (2, "", f"error: {NUMPY_OUT_OF_MEMORY}\n")

    def test_fit(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("treecascade.regression.correlation_from_dataset", out_of_memory)
        out = tmp_path / "fit.json"
        self.assert_one_error_line(
            capsys, "fit", "--data", str(sample_prices_path()), "--out", str(out)
        )
        assert not out.exists()

    def test_chow_check_data(self, capsys, monkeypatch):
        monkeypatch.setattr("treecascade.cli.correlation_from_dataset", out_of_memory)
        self.assert_one_error_line(capsys, "chow-check", "--data", str(sample_prices_path()))

    def test_verify(self, capsys, monkeypatch):
        monkeypatch.setattr("treecascade.cli.cascade_inverse", out_of_memory)
        self.assert_one_error_line(capsys, "verify", "--random", "5", "1")

    def test_simulate_past_the_first_block(self, capsys, monkeypatch, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=3)
        out = tmp_path / "x.csv"
        opened = []

        def first_block_then_out_of_memory(rng, sizes, variances):
            yield np.ones((sizes[0], len(variances)))
            opened.append(out.exists())
            out_of_memory()

        samplers = cascade_module.BUILTIN_SAMPLERS
        monkeypatch.setitem(samplers, "laplace", first_block_then_out_of_memory)
        self.assert_one_error_line(
            capsys, "simulate", "--model", str(doc), "--sampler", "laplace",
            "--n", str(3 * _block_rows(3)), "--seed", "1", "--out", str(out),
        )
        assert opened == [True]
        assert not out.exists()


class TestNonUtf8Input:
    """A byte that is not UTF-8 is bad input (exit 2), not a failed check."""

    def bad_csv(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\n1,2\n\xff,3\n")
        return path

    def test_fit(self, capsys, tmp_path):
        path = self.bad_csv(tmp_path)
        code, _, stderr = run(capsys, "fit", "--data", str(path), "--out", str(tmp_path / "f.json"))
        assert code == 2 and stderr == f"error: {path}: not valid UTF-8 at byte 8\n"

    def test_fit_with_root(self, capsys, tmp_path):
        path = self.bad_csv(tmp_path)
        code, _, stderr = run(
            capsys, "fit", "--data", str(path), "--root", "0", "--out", str(tmp_path / "f.json")
        )
        assert code == 2 and stderr == f"error: {path}: not valid UTF-8 at byte 8\n"

    def test_chow_check(self, capsys, tmp_path):
        path = self.bad_csv(tmp_path)
        code, _, stderr = run(capsys, "chow-check", "--data", str(path))
        assert code == 2 and stderr == f"error: {path}: not valid UTF-8 at byte 8\n"

    def test_cluster(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=4)
        text = doc.read_bytes()
        doc.write_bytes(text[:1] + b"\xe9" + text[1:])
        code, _, stderr = run(capsys, "cluster", "--fit", str(doc), "--k", "2")
        assert code == 2 and stderr == f"error: {doc}: not valid UTF-8 at byte 1\n"


# A fit document to mutate: d=5, with names.
FUZZ_DOCUMENT = {
    **fit_to_document(
        fit_cascade(
            correlation_from_covariance(
                population_covariance(random_unit_variance_model(5, np.random.default_rng(4)))
            )
        )
    ),
    "names": ["a", "b", "c", "d", "e"],
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


def slots(value) -> list:
    """Every (container, key) pair in a JSON value, at any depth."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list):
        items = list(enumerate(value))
    else:
        return []
    found = [(value, key) for key, _ in items]
    for _, inner in items:
        found += slots(inner)
    return found


@st.composite
def document_texts(draw) -> str:
    """The fuzz document with up to three fields replaced or deleted,
    written with NaN/Infinity literals, and sometimes cut short."""
    doc = json.loads(json.dumps(FUZZ_DOCUMENT))
    for _ in range(draw(st.integers(0, 3))):
        found = slots(doc)
        if not found:
            break
        container, key = draw(st.sampled_from(found))
        if draw(st.booleans()):
            container[key] = draw(JSON_VALUES)
        else:
            del container[key]
    text = json.dumps(doc)
    if draw(st.integers(0, 7)) == 5:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def quiet_main(*argv) -> int:
    """``main`` with its output discarded; any exception propagates."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


class TestCliFuzz:
    """Every command ends in exit 0, 1 or 2: no other exception escapes."""

    @given(text=csv_texts())
    @settings(max_examples=100, deadline=None)
    def test_csv_commands(self, text, tmp_path_factory):
        base = tmp_path_factory.getbasetemp()
        data = base / "fuzz.csv"
        data.write_bytes(text.encode("utf-8"))
        assert quiet_main("fit", "--data", data, "--out", base / "fuzz.json") in (0, 1, 2)
        assert quiet_main("fit", "--data", data, "--diff", "--out", base / "fuzz.json") in (0, 1, 2)
        assert quiet_main("chow-check", "--data", data) in (0, 1, 2)

    @given(text=document_texts(), k=st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_document_commands(self, text, k, tmp_path_factory):
        base = tmp_path_factory.getbasetemp()
        doc = base / "fuzz-doc.json"
        doc.write_text(text, encoding="utf-8")
        assert quiet_main("cluster", "--fit", doc, "--k", k) in (0, 1, 2)
        assert quiet_main("export-dot", "--fit", doc, "--out", base / "fuzz.dot") in (0, 1, 2)


VERIFY_D12_STDOUT = """\
verification of {path}
  closed-form-inverse   pass  max gap 1.388e-17
  ancestor-covariance   pass  max |C_ij - B_ji| = 5.551e-17
  branching-covariance  pass  max |C_ij - B_im B_jm| = 2.776e-17
  strict-dominance      pass  min margin min(|C_ik|, |C_kj|) - |C_ij| = 2.284e-03
  strict-triangle       pass  squared-correlation weights
  mst-recovery          pass  unique=True
  objective-identity    pass  gap 0.000e+00
result: pass
"""

CHOW_CHECK_D12_STDOUT = """\
edge x0 -- x5: squared_correlation=0.418979 mi_weight=0.271484
edge x0 -- x7: squared_correlation=0.266881 mi_weight=0.155224
edge x1 -- x6: squared_correlation=0.162063 mi_weight=0.088406
edge x1 -- x11: squared_correlation=0.097906 mi_weight=0.051518
edge x2 -- x6: squared_correlation=0.185775 mi_weight=0.102759
edge x2 -- x9: squared_correlation=0.670939 mi_weight=0.555756
edge x3 -- x6: squared_correlation=0.409187 mi_weight=0.263128
edge x3 -- x7: squared_correlation=0.282693 mi_weight=0.166126
edge x4 -- x11: squared_correlation=0.706501 mi_weight=0.612941
edge x6 -- x8: squared_correlation=0.099618 mi_weight=0.052468
edge x7 -- x10: squared_correlation=0.227503 mi_weight=0.129064
trees_equal: true
"""


CLUSTER_D12_K4_STDOUT = """\
x0, x2, x3, x5, x6, x7, x9, x10
x1
x4, x11
x8
"""

DOT_D12_NODES = "".join(f'  "x{i}";\n' for i in range(12))

DOT_D12_UNROOTED = (
    "graph cascade {\n"
    + DOT_D12_NODES
    + """\
  "x0" -- "x5" [label="0.4190"];
  "x0" -- "x7" [label="0.2669"];
  "x1" -- "x6" [label="0.1621"];
  "x1" -- "x11" [label="0.0979"];
  "x2" -- "x6" [label="0.1858"];
  "x2" -- "x9" [label="0.6709"];
  "x3" -- "x6" [label="0.4092"];
  "x3" -- "x7" [label="0.2827"];
  "x4" -- "x11" [label="0.7065"];
  "x6" -- "x8" [label="0.0996"];
  "x7" -- "x10" [label="0.2275"];
}
"""
)

DOT_D12_ROOTED_AT_3 = (
    "digraph cascade {\n"
    + DOT_D12_NODES
    + """\
  "x7" -> "x0" [label="0.2669"];
  "x6" -> "x1" [label="0.1621"];
  "x6" -> "x2" [label="0.1858"];
  "x11" -> "x4" [label="0.7065"];
  "x0" -> "x5" [label="0.4190"];
  "x3" -> "x6" [label="0.4092"];
  "x3" -> "x7" [label="0.2827"];
  "x6" -> "x8" [label="0.0996"];
  "x2" -> "x9" [label="0.6709"];
  "x7" -> "x10" [label="0.2275"];
  "x1" -> "x11" [label="0.0979"];
}
"""
)


class TestGoldenStdout:
    """Outputs pinned byte for byte on a fixed-seed d=12 fit document."""

    def test_verify_model(self, capsys, tmp_path):
        _, _, path = model_fit_document(tmp_path, d=12, seed=29)
        code, stdout, _ = run(capsys, "verify", "--model", str(path))
        assert code == 0
        assert stdout == VERIFY_D12_STDOUT.format(path=path)

    def test_chow_check_fit(self, capsys, tmp_path):
        _, _, path = model_fit_document(tmp_path, d=12, seed=29)
        code, stdout, _ = run(capsys, "chow-check", "--fit", str(path))
        assert code == 0
        assert stdout == CHOW_CHECK_D12_STDOUT

    def test_cluster(self, capsys, tmp_path):
        _, _, path = model_fit_document(tmp_path, d=12, seed=29)
        code, stdout, _ = run(capsys, "cluster", "--fit", str(path), "--k", "4")
        assert code == 0
        assert stdout == CLUSTER_D12_K4_STDOUT

    def test_export_dot(self, capsys, tmp_path):
        for root_hint, expected in ((None, DOT_D12_UNROOTED), (3, DOT_D12_ROOTED_AT_3)):
            _, _, path = model_fit_document(tmp_path, d=12, seed=29, root_hint=root_hint)
            out = tmp_path / "fit.dot"
            code, stdout, _ = run(capsys, "export-dot", "--fit", str(path), "--out", str(out))
            assert code == 0 and stdout == f"wrote 11 edges to {out}\n"
            assert out.read_text() == expected


class TestPeakMemory:
    """The parsed values are the only n-by-d array that fit and chow-check hold; simulate holds none."""

    N, D = 20_000, 30

    def test_traced_peak_within_one_and_a_half_arrays(self, tmp_path):
        rng = np.random.default_rng(5)
        prices = 100.0 + np.cumsum(rng.standard_normal((self.N, self.D)), axis=0)
        path = tmp_path / "prices.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(f"c{j}" for j in range(self.D)) + "\n")
            np.savetxt(handle, prices, fmt="%.2f", delimiter=",")
        limit = 1.5 * self.N * self.D * 8
        for argv in (
            ("fit", "--data", path, "--diff", "--out", tmp_path / "fit.json"),
            ("chow-check", "--data", path),
        ):
            tracemalloc.start()
            try:
                code = quiet_main(*argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak <= limit, f"{argv[0]}: peak {peak / limit * 1.5:.2f} arrays"

    @pytest.mark.parametrize("sampler", ["gaussian", "laplace", "uniform", "rademacher", "dependent"])
    def test_simulate_streams_in_blocks(self, tmp_path, sampler):
        # the whole draw would be 46 MiB; blocks are 1 MiB, dependent's magnitudes 1.5 MiB
        _, _, doc = model_fit_document(tmp_path, d=self.D)
        argv = ("simulate", "--model", doc, "--sampler", sampler, "--n", 200_000, "--seed", 3,
                "--out", tmp_path / "sim.csv")
        tracemalloc.start()
        try:
            code = quiet_main(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "treecascade.cli", "verify", "--random", "4", "9"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "result: pass" in result.stdout

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "treecascade.cli", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2

    def test_verify_passes_with_asserts_stripped(self):
        # python -O removes assert statements; no check may depend on them
        result = subprocess.run(
            [sys.executable, "-O", "-m", "treecascade.cli", "verify", "--random", "30", "7"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "result: pass" in result.stdout

    def test_no_assert_statements_in_package(self):
        # a static guard for the rule above: checks must not be asserts
        package = Path(treecascade.__file__).parent
        for source in sorted(package.glob("*.py")):
            tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
            asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert not asserts, f"{source.name}: assert at lines {asserts}"

    def test_public_names(self):
        # the package exports the library only; test oracles live in tests/
        names = sorted(
            name
            for name, value in vars(treecascade).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        )
        assert names == [
            "BUILTIN_SAMPLERS", "CANONICAL_EDGE_ORDER", "CascadeModel", "CorrelationSummary",
            "CorrespondenceReport", "DataError", "Dataset", "DegeneracyError", "FitResult",
            "GaussianSummary", "InvalidInputError", "LemmaCheck", "LemmaReport", "MstResult",
            "RootedTree", "SchemaError", "Tree", "TreeCascadeError", "UnsupportedModelError",
            "WeightedGraph", "canonical_edge", "cascade_inverse",
            "check_strict_triangle_condition", "cluster_by_edge_deletion", "coefficient_matrix",
            "correlation_from_covariance", "correlation_from_dataset", "correspondence_check",
            "document_to_fit", "empirical_fit", "fit_cascade", "fit_to_document", "get_sampler",
            "load_csv", "load_document", "load_fit", "make_unit_variance_model",
            "maximum_spanning_tree", "model_from_document", "mst_is_unique",
            "mutual_information_weights", "objective_value", "optimal_coefficients",
            "population_covariance", "price_changes", "random_tree", "random_unit_variance_model",
            "reroot", "root_tree", "sample_prices_path", "save_csv", "save_fit", "simulate",
            "squared_correlation_graph", "standardize", "verify_covariance_lemmas",
        ]

    def test_import_loads_no_more_of_numpy(self):
        # numpy loads numpy.random lazily; the CLI import must not pull it in
        # (it costs every command about 6 MB and 20 ms)
        probe = (
            "import sys, numpy; before = set(sys.modules); import treecascade.cli; "
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"
