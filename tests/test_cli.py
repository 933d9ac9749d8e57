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
    memory stays within 1.5 times the parsed values.  The values are
    freed before the tree stage, so at 2000 x 400 the peak is the values
    and at most 1.5 d-by-d arrays.
  - simulate streams: its blocks are the one-shot draw bit for bit, its
    CSV is that draw written by csv.writer, a child process running it at
    n = 50000 peaks (VmHWM) less than half the 11.4 MiB draw above one at
    n = 1, an overflowing model gives one error line naming the global
    row, and no partial regular file is left behind.
  - A constant column is rejected even when its mean rounds, and a
    first difference that overflows is named by its rows and column.
  - verify builds the inverse, the covariance, the hop/meet pair and the
    squared-correlation graph once, and chow-check --fit the covariance
    once and no inverse; verify's report equals the one built from the
    library's functions called one by one.  Neither normalizes a
    unit-variance model's covariance, and verify takes one neighbour-gap
    sweep for its strict-dominance and strict-triangle rows;
    chow-check --fit normalizes a model that is not unit variance and
    reports the full mutual-information oracle's edges on it.
  - verify checks the inverse with one d-by-d work array: at d = 200
    the residual's traced peak is at most 1.5 such arrays.
  - A tie planted in the covariance of a 200-vertex chain at 0.1 fails
    verify's strict-dominance and strict-triangle rows.
  - A fit keeps its rooting: fit calls root_tree only for a root other
    than 0, a document load calls it once, and verify and chow-check
    --fit once more, to root the model's tree at 0.
  - verify and chow-check --fit certify the model's tree and run no
    maximum-spanning-tree search; chow-check --data and fit run one.
  - A negative seed, to simulate or to verify --random, exits 2 on one
    error line before any output file is opened.
  - verify --random with more vertices than numpy can draw a tree on
    exits 2 on one error line.
  - A UTF-8 byte-order mark does not reach the names of a fit document.
  - Help, usage and argument errors keep their bytes, and a command
    builds the top-level parser and its own subparser only.
  - verify's objective-identity row holds at d = 2000 and catches a
    weight off by 1e-10 there; at d <= 1000 its bound is within 1e-12.
  - The README's library tour runs against the package's public names.
  - Importing the CLI loads no numpy.random and no package module beyond
    the seven it has; the CSV writer's kernel loads, and builds its
    tables, on the first write.
  - simulate takes its blocks lazily, so a huge n starts writing at
    once; the dependent sampler names its failed allocation, exit 2.
  - An allocation numpy refuses in fit, chow-check --data, verify or
    simulate exits 2 with one error line and leaves no output file.
  - export-dot escapes '\\' and '"' in column names.
  - verify judges a model document by its numbers, not by its
    unit_variance field; chow-check --fit labels edges with the
    document's names; a document whose names repeat one exits 2.
  - A command whose stdout is closed by its reader exits 141 and
    prints nothing on stderr.
  - tools/same_bytes.py runs every subcommand, and replays rejections: a
    negative --root, --random D of 0, --k 0, and two malformed documents,
    whose loads fail with the loader's messages.  It runs chow-check --fit
    and verify on a model that is not unit variance, which verify rejects,
    and verify and chow-check --fit on a unit-variance 200-vertex chain at
    0.1: verify passes, and chow-check lists its 199 edges.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import types
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treecascade
from treecascade import (
    SchemaError,
    Tree,
    WeightedGraph,
    correlation_from_covariance,
    fit_cascade,
    get_sampler,
    load_fit,
    make_unit_variance_model,
    population_covariance,
    random_unit_variance_model,
    root_tree,
    sample_prices_path,
    save_fit,
    verify_covariance_lemmas,
)
from treecascade import cascade as cascade_module
from treecascade import chowliu as chowliu_module
from treecascade import dataio
from treecascade.cascade import cascade_inverse, inverse_residual
from treecascade import trees as trees_module
from treecascade.cascade import _simulated_blocks
from treecascade import cli as cli_module
from treecascade.cli import _identity_holds, main
from treecascade.dataio import _block_rows, fit_to_document, load_document, model_from_document

from conftest import csv_texts
from oracles import (
    coefficient_matrix,
    csv_writer_bytes,
    full_mi_correspondence,
    loop_strict_triangle_condition,
    one_shot_simulate,
)


def patch_everywhere(monkeypatch, fn, replacement):
    """Replace ``fn`` under every name a treecascade module holds it by."""
    for key, module in list(sys.modules.items()):
        if key == "treecascade" or key.startswith("treecascade."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setitem(vars(module), attr, replacement)


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

    def test_byte_order_mark_is_not_in_the_names(self, capsys, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,5\n4,4\n")
        out = tmp_path / "fit.json"
        code, _, _ = run(capsys, "fit", "--data", str(path), "--root", "0", "--out", str(out))
        assert code == 0
        assert load_document(out)["names"] == ["a", "b"]

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

    def test_negative_root_rejected(self, capsys, tmp_path):
        # before the CSV is opened: the data file need not exist
        out = tmp_path / "f.json"
        assert run(
            capsys, "fit", "--data", str(tmp_path / "absent.csv"), "--root", "-1", "--out", str(out)
        ) == (2, "", "error: --root must be nonnegative, got -1\n")
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "text",
        [
            # found by TestCliFuzz: columns a and c are constant
            "a,b, c \n0.0,0.0,0.0\n0.0,1.3272338058405887e+294,0.0\n0.0,-1.7976931348623025e+308,0.0",
            "a,b,c\n1.0,0.0,2.0\n0.0,1.3272338058405887e+294,1.0\n3.0,-1.7976931348623025e+308,0.5\n",
        ],
        ids=["constant-columns", "no-constant-column"],
    )
    def test_overflowing_difference_named(self, capsys, tmp_path, text):
        path = tmp_path / "steep.csv"
        path.write_text(text)
        out = tmp_path / "f.json"
        code, stdout, stderr = run(capsys, "fit", "--data", str(path), "--diff", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr == "error: non-finite first difference of rows 2 and 3, column 'b'\n"
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

    def test_negative_seed_rejected(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=3)
        out = tmp_path / "x.csv"
        code, stdout, stderr = run(
            capsys, "simulate", "--model", str(doc), "--n", "5", "--seed", "-1", "--out", str(out),
        )
        assert (code, stdout, stderr) == (2, "", "error: seed must be >= 0, got -1\n")
        assert not out.exists()

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
            b = _block_rows(d)
            for n in (1, 2, b - 1, b, b + 1, 2 * b, 2 * b + 1, 3 * b + 17):
                seed = n + d
                streamed = np.concatenate(list(_simulated_blocks(model, get_sampler(sampler), n, seed)))
                expected = one_shot_simulate(model, sampler, n, seed)
                assert np.array_equal(streamed.view(np.int64), expected.view(np.int64)), (d, n)
        # through the CLI, two blocks reach the file in order, as csv.writer writes them
        out = tmp_path / "sim.csv"
        n = 2 * b + 1
        code, stdout, stderr = run(
            capsys, "simulate", "--model", str(doc), "--sampler", sampler,
            "--n", str(n), "--seed", "7", "--out", str(out),
        )
        assert (code, stdout, stderr) == (0, f"wrote {n} samples x {d} columns to {out}\n", "")
        names = [f"x{i}" for i in range(d)]
        assert out.read_bytes() == csv_writer_bytes(names, one_shot_simulate(model, sampler, n, 7))

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

    def test_negative_seed_rejected(self, capsys):
        assert run(capsys, "verify", "--random", "5", "-1") == (
            2, "", "error: --random SEED must be >= 0, got -1\n"
        )

    def test_zero_vertices_rejected(self, capsys):
        assert run(capsys, "verify", "--random", "0", "1") == (
            2, "", "error: --random D must be >= 1, got 0\n"
        )

    @pytest.mark.parametrize("d", ["4611686018427387904", "1000000000000000000000000000000"])
    def test_huge_vertex_count_rejected(self, capsys, d):
        # numpy refuses the tree's draws before it allocates anything
        assert run(capsys, "verify", "--random", d, "1") == (
            2, "", f"error: cannot draw a random tree on {d} vertices\n"
        )

    def test_single_vertex_vacuous_pass(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--random", "1", "5")
        assert code == 0 and "result: pass" in stdout

    def test_document_model_passes(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=6)
        code, stdout, _ = run(capsys, "verify", "--model", str(doc))
        assert code == 0 and "result: pass" in stdout

    def test_document_declared_false_is_judged_by_its_numbers(self, capsys, tmp_path):
        # a fit document's error variances are 1 - coeff^2 to the bit, whatever its flag says
        declared = tmp_path / "declared" / "fit.json"
        declared.parent.mkdir()
        run(capsys, "fit", "--data", str(sample_prices_path()), "--diff", "--out", str(declared))
        flipped = tmp_path / "fit.json"
        flipped.write_text(declared.read_text().replace('"unit_variance": true', '"unit_variance": false'))
        assert load_document(flipped)["unit_variance"] is False
        code, stdout, stderr = run(capsys, "verify", "--model", str(flipped))
        assert (code, stderr) == (0, "")
        assert stdout.endswith("result: pass\n")
        assert run(capsys, "verify", "--model", str(declared)) == (
            0, stdout.replace(str(flipped), str(declared)), ""
        )

    def test_document_without_unit_variance_numbers_rejected(self, capsys, tmp_path):
        path = chain_document(tmp_path, [0.5, 0.5], [1.0, 0.2, 3.0])
        assert run(capsys, "verify", "--model", str(path)) == (
            2, "", "error: verify requires a unit-variance model document\n"
        )

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

    @staticmethod
    def weak_chain_document(tmp_path, d=200):
        """A chain rooted at 0 with every coefficient 0.1: rho^2 of pairs 162 or more apart is 0."""
        rt = root_tree(Tree.from_edges(d, [(i, i + 1) for i in range(d - 1)]), 0)
        model = make_unit_variance_model(rt, dict.fromkeys(rt.non_root_vertices(), 0.1))
        path = tmp_path / "weak-chain.json"
        save_fit(fit_cascade(correlation_from_covariance(population_covariance(model)), root_hint=0), path)
        return path

    def test_far_pairs_are_ordered_past_the_square_underflow(self, capsys, tmp_path):
        path = self.weak_chain_document(tmp_path)
        code, stdout, _ = run(capsys, "verify", "--model", str(path))
        assert "  strict-triangle       pass  squared-correlation weights\n" in stdout
        assert (code, stdout) == (0, verify_table(model_from_document(load_document(path)), str(path)))

    def test_planted_tie_between_far_pairs_fails(self, capsys, monkeypatch, tmp_path):
        # |C| = |rho| of (0, d - 1) raised to that of (1, d - 1), k = 1 its path neighbour; both
        # squares are 0.  The tie is planted in the covariance, which verify reads as the correlations
        path = self.weak_chain_document(tmp_path)
        last = 199

        def planted(model):
            cov = population_covariance(model)
            cov[0, last] = cov[last, 0] = cov[1, last]
            return cov

        patch_everywhere(monkeypatch, population_covariance, planted)
        code, stdout, _ = run(capsys, "verify", "--model", str(path))
        assert code == 1
        assert re.search(r"^  strict-dominance      FAIL  ", stdout, re.M)
        assert "  strict-triangle       FAIL  squared-correlation weights\n" in stdout
        assert stdout.endswith("result: FAIL\n")


def planted_weight_error(fit, delta: float):
    """``fit`` with ``delta`` added to the weight of its first edge."""
    e = min(fit.weights)
    return dataclasses.replace(fit, weights={**fit.weights, e: fit.weights[e] + delta})


@pytest.fixture(scope="module")
def population_fits():
    """The correlations and fit of ``verify --random d 1``'s model, by d."""
    fits = {}
    for d in (8, 30, 1000, 2000):
        model = random_unit_variance_model(d, np.random.default_rng(1))
        summary = correlation_from_covariance(population_covariance(model))
        fits[d] = summary, fit_cascade(summary)
    return fits


class TestObjectiveIdentityRow:
    """verify's identity row allows the rounding of its sums, which grows with d."""

    def test_verify_passes_at_d2000(self, capsys):
        # its canonical-order gap is 2.7e-12, beyond a fixed 1e-12
        code, stdout, _ = run(capsys, "verify", "--random", "2000", "1")
        assert code == 0
        assert "  objective-identity    pass  gap 2.728e-12\n" in stdout

    def test_planted_error_fails_at_d2000(self, population_fits):
        summary, fit = population_fits[2000]
        assert _identity_holds(fit, summary)
        for delta in (1e-10, -1e-10):
            assert not _identity_holds(planted_weight_error(fit, delta), summary)

    @pytest.mark.parametrize("d", [8, 30, 1000])
    def test_no_looser_than_1e12_up_to_d1000(self, population_fits, d):
        summary, fit = population_fits[d]
        assert _identity_holds(fit, summary)
        for delta in (1e-12, -1e-12):
            assert not _identity_holds(planted_weight_error(fit, delta), summary)


def loop_inverse_residual(model, inv) -> float:
    """``max |(I - A) inv - I|``, one row of (I - A) inv at a time: inv[i] - a_i inv[parent(i)] - e_i."""
    worst = 0.0
    for i in range(model.d):
        parent = model.rt.parent[i]
        row = inv[i].copy() if parent < 0 else inv[i] - model.coeffs[i] * inv[parent]
        row[i] -= 1.0
        worst = max(worst, float(np.abs(row).max()))
    return worst


def lapack_inverse_gap(model, inv) -> float:
    """``max |inv - (I - A)^-1|``, with LAPACK's inverse."""
    return float(np.max(np.abs(inv - np.linalg.inv(np.eye(model.d) - coefficient_matrix(model)))))


def verify_table(model, label: str) -> str:
    """The ``verify`` report built from the library's functions, each called on its own.

    The closed-form-inverse row comes from the per-row loop of the
    residual, and the strict-triangle row from the per-pair loop oracle.
    """
    rows = []
    residual = loop_inverse_residual(model, cascade_inverse(model))
    rows.append(("closed-form-inverse", residual <= 1e-12, f"max |(I - A)B - I| = {residual:.3e}"))
    for check in verify_covariance_lemmas(model):
        rows.append((check.name, check.passed, f"{check.measure} = {check.worst:.3e}"))
    summary = correlation_from_covariance(population_covariance(model))
    # |rho| orders pairs as rho^2 does, without the square's underflow
    triangle = loop_strict_triangle_condition(WeightedGraph.from_matrix(np.abs(summary.corr)), model.rt.tree)
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

    @pytest.mark.parametrize("d", [1, 2, 3, 12, 40])
    def test_residual_and_lapack_gap_pass(self, tmp_path, d):
        # LAPACK's inverse stays the oracle of the closed form the residual checks
        for seed in range(4):
            _, path = rooted_model_document(tmp_path, d, seed)
            model = model_from_document(load_document(path))
            inv = cascade_inverse(model)
            assert inverse_residual(model, inv) == loop_inverse_residual(model, inv) <= 1e-12
            assert lapack_inverse_gap(model, inv) <= 1e-12

    def test_residual_over_row_blocks_equals_the_loop(self):
        # at d = 400 the rows of inv.T fall in two blocks; plant in each
        d = 400
        assert _block_rows(d) < d
        model = random_unit_variance_model(d, np.random.default_rng(5))
        inv = cascade_inverse(model)
        assert inverse_residual(model, inv) == loop_inverse_residual(model, inv) <= 1e-12
        for j in (0, d - 1):
            planted = inv.copy()
            planted[(j + 1) % d, j] += 1e-10
            assert inverse_residual(model, planted) == loop_inverse_residual(model, planted) > 1e-12

    @pytest.mark.parametrize("entry", ["ancestor", "zero", "diagonal"])
    def test_planted_inverse_error_fails(self, capsys, monkeypatch, tmp_path, entry):
        _, _, path = model_fit_document(tmp_path, d=12, seed=29)
        rt = model_from_document(load_document(path)).rt
        line = [max(range(rt.d), key=rt.depth.__getitem__)]  # a deepest vertex, then its ancestors
        while rt.parent[line[-1]] >= 0:
            line.append(rt.parent[line[-1]])
        assert len(line) >= 3
        # B[i, j] is a path product when j is the grandparent, 0 off the path and 1 on the diagonal
        i = line[0]
        j = {"ancestor": line[2], "zero": min(set(range(rt.d)) - set(line)), "diagonal": i}[entry]

        def planted(model):
            inv = cascade_inverse(model)
            inv[i, j] += 1e-10
            return inv

        monkeypatch.setattr("treecascade.cli.cascade_inverse", planted)
        code, stdout, _ = run(capsys, "verify", "--model", str(path))
        assert code == 1
        assert "  closed-form-inverse   FAIL  max |(I - A)B - I| = 1.000e-10\n" in stdout
        assert stdout.endswith("result: FAIL\n")

    @staticmethod
    def count_calls(monkeypatch, builders):
        """Count the calls of each named function, under every name a treecascade module holds it by."""
        calls = dict.fromkeys(builders, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, fn in builders.items():
            patch_everywhere(monkeypatch, fn, counted(name, fn))
        return calls

    def test_each_builder_runs_once(self, monkeypatch, tmp_path):
        builders = {
            "inverse": cascade_module.cascade_inverse,
            "covariance": cascade_module.population_covariance,
            "hop/meet": trees_module._hop_and_meet_matrices,
            "normalization": correlation_from_covariance,
            "neighbour gaps": trees_module._path_neighbor_gaps,
        }
        _, path = rooted_model_document(tmp_path, 30, 3)
        chain = chain_document(tmp_path, [0.5, -0.4], [2.0, 1.0, 3.0])
        calls = self.count_calls(monkeypatch, builders)
        # every graph passes the validation of WeightedGraph._adopt, from_matrix's included
        adopt = trees_module.WeightedGraph._adopt

        def counted_graph(matrix):
            calls["graph"] += 1
            return adopt(matrix)

        monkeypatch.setattr(trees_module.WeightedGraph, "_adopt", staticmethod(counted_graph))
        calls["graph"] = 0
        # a unit-variance model's covariance is its correlation matrix: no normalization, and the
        # strict-dominance sweep over |C| serves the strict-triangle row too
        assert quiet_main("verify", "--model", path) == 0
        assert calls == {
            "inverse": 1, "covariance": 1, "hop/meet": 1, "normalization": 0, "neighbour gaps": 1, "graph": 1
        }
        calls.update(dict.fromkeys(calls, 0))
        # chow-check takes the squared correlations' graph, and no MI graph while its margin clears the rounding
        assert quiet_main("chow-check", "--fit", path) == 0
        assert calls == {
            "inverse": 0, "covariance": 1, "hop/meet": 0, "normalization": 0, "neighbour gaps": 0, "graph": 1
        }
        # a model that is not unit variance has its covariance normalized
        calls.update(dict.fromkeys(calls, 0))
        assert quiet_main("chow-check", "--fit", chain) == 0
        assert calls == {
            "inverse": 0, "covariance": 1, "hop/meet": 0, "normalization": 1, "neighbour gaps": 0, "graph": 1
        }

    def test_root_tree_runs_once_per_document_load(self, monkeypatch, tmp_path):
        # a fit keeps the rooting it was built or loaded with, and a document
        # load roots its tree in one root_tree call.  verify and chow-check
        # --fit certify the model's tree, rooted where the document roots it,
        # and root it once more at 0, the rooting Prim would give; a --root
        # fit roots again, and nothing else does
        model, path = rooted_model_document(tmp_path, 30, 3)
        assert model.root != 0
        data = str(sample_prices_path())
        fit, rooted = tmp_path / "fit.json", tmp_path / "rooted.json"
        calls = self.count_calls(monkeypatch, {"root_tree": trees_module.root_tree})
        for argv, expected in [
            (("verify", "--model", path), 2),
            (("chow-check", "--fit", path), 2),
            (("fit", "--data", data, "--diff", "--out", fit), 0),
            (("fit", "--data", data, "--diff", "--root", "3", "--out", rooted), 1),
            (("export-dot", "--fit", rooted, "--out", tmp_path / "rooted.dot"), 1),
            (("export-dot", "--fit", fit, "--out", tmp_path / "fit.dot"), 1),
        ]:
            calls["root_tree"] = 0
            assert quiet_main(*argv) == 0
            assert calls == {"root_tree": expected}, argv

    def test_prim_runs_only_where_no_tree_certifies(self, monkeypatch, tmp_path):
        # verify and chow-check --fit certify the model's own tree under the
        # squared correlations, and chow-check then certifies the
        # squared-correlation tree under the MI weights; fit has no candidate
        _, path = rooted_model_document(tmp_path, 30, 3)
        data = str(sample_prices_path())
        calls = self.count_calls(monkeypatch, {"prim": trees_module._prim})
        for argv, expected in [
            (("verify", "--model", path), 0),
            (("chow-check", "--fit", path), 0),
            (("chow-check", "--data", data), 1),
            (("fit", "--data", data, "--diff", "--out", tmp_path / "fit.json"), 1),
        ]:
            calls["prim"] = 0
            assert quiet_main(*argv) == 0
            assert calls == {"prim": expected}, argv


    def test_one_gap_matrix_per_command(self, monkeypatch, tmp_path):
        # the margin comes from the certificate each command already takes:
        # fit keeps its one gap matrix, and chow-check, whose margin clears
        # the rounding of the MI map, no longer takes a second one for the MI tree
        _, path = rooted_model_document(tmp_path, 30, 3)
        data = str(sample_prices_path())
        calls = self.count_calls(monkeypatch, {"gaps": trees_module._tree_gaps})
        for argv, expected in [
            (("fit", "--data", data, "--diff", "--out", tmp_path / "fit.json"), 1),
            (("fit", "--data", data, "--diff", "--root", "3", "--out", tmp_path / "rooted.json"), 1),
            (("verify", "--model", path), 1),
            (("chow-check", "--fit", path), 1),
            (("chow-check", "--data", data), 1),
        ]:
            calls["gaps"] = 0
            assert quiet_main(*argv) == 0
            assert calls == {"gaps": expected}, argv


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

    @pytest.mark.parametrize("d, text", [(2, "a,b\n1,2\n3,4\n"), (3, "a,b,c\n1,2,5\n3,4,1\n2,7,7\n")])
    def test_no_more_rows_than_columns_rejected(self, capsys, tmp_path, d, text):
        # n centred rows span n - 1 dimensions at most, however Cholesky rounds
        path = tmp_path / "square.csv"
        path.write_text(text)
        assert run(capsys, "chow-check", "--data", str(path)) == (
            2, "", f"error: covariance is not positive definite: {d} rows for {d} columns\n"
        )

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

    def test_model_that_is_not_unit_variance_is_normalized(self, capsys, tmp_path):
        path = chain_document(tmp_path, [0.5, -0.4], [2.0, 1.0, 3.0])
        model = model_from_document(load_document(path))
        assert not model.unit_variance
        report = full_mi_correspondence(correlation_from_covariance(population_covariance(model)))
        lines = [
            f"edge x{i} -- x{j}: squared_correlation={rho_sq:.6f} mi_weight={mi:.6f}\n"
            for (i, j), rho_sq, mi in report.edge_pairs
        ]
        assert report.trees_equal and not report.tie_detected
        assert run(capsys, "chow-check", "--fit", str(path)) == (0, "".join(lines) + "trees_equal: true\n", "")

    def test_fit_document_route(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=5)
        code, stdout, _ = run(capsys, "chow-check", "--fit", str(doc))
        assert code == 0 and "trees_equal: true" in stdout

    def test_invalid_fit_document_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{}")
        code, _, stderr = run(capsys, "chow-check", "--fit", str(path))
        assert code != 0 and "missing field" in stderr

    def test_fit_document_names_label_the_edges(self, capsys, tmp_path):
        named = tmp_path / "named.json"
        run(capsys, "fit", "--data", str(sample_prices_path()), "--diff", "--out", str(named))
        document = load_document(named)
        names = document["names"]
        unnamed = tmp_path / "unnamed.json"
        unnamed.write_text(json.dumps({**document, "names": None}))
        code, by_index, _ = run(capsys, "chow-check", "--fit", str(unnamed))
        assert code == 0 and by_index.startswith("edge x")
        expected = re.sub(r"\bx(\d+)\b", lambda match: names[int(match[1])], by_index)
        assert run(capsys, "chow-check", "--fit", str(named)) == (code, expected, "")
        assert expected.startswith("edge AAPL -- MSFT: squared_correlation=0.204825 ")


class TestDuplicateDocumentNames:
    """A fit document whose names repeat one is refused by every command that reads it."""

    @pytest.fixture
    def document(self, capsys, tmp_path):
        data = tmp_path / "three.csv"
        data.write_text("p,q,r\n1,2,4\n2,3,3\n4,1,5\n3,5,2\n")
        path = tmp_path / "fit.json"
        assert run(capsys, "fit", "--data", str(data), "--out", str(path))[0] == 0
        path.write_text(json.dumps({**load_document(path), "names": ["a", "a", "b"]}))
        return path

    @pytest.mark.parametrize(
        "argv",
        [
            ["export-dot", "--fit", "{doc}", "--out", "{out}"],
            ["cluster", "--fit", "{doc}", "--k", "2"],
            ["simulate", "--model", "{doc}", "--n", "5", "--seed", "1", "--out", "{out}"],
            ["chow-check", "--fit", "{doc}"],
            ["verify", "--model", "{doc}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_one_error_line_and_no_output(self, capsys, tmp_path, document, argv):
        out = tmp_path / "out"
        argv = [arg.format(doc=document, out=out) for arg in argv]
        assert run(capsys, *argv) == (2, "", "error: names: duplicate column names: a\n")
        assert not out.exists()


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

        def first_block_then_out_of_memory(rng, n, variances):
            yield np.ones((_block_rows(len(variances)), len(variances)))
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
  closed-form-inverse   pass  max |(I - A)B - I| = 2.776e-17
  ancestor-covariance   pass  max |C_ij - B_ji| = 2.776e-17
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


TOP_USAGE = """\
usage: treecascade [-h]
                   {fit,simulate,verify,cluster,chow-check,export-dot} ...
"""

TOP_HELP = (
    TOP_USAGE
    + """
Fit, simulate, verify, cluster, and export tree cascade models.

positional arguments:
  {fit,simulate,verify,cluster,chow-check,export-dot}
    fit                 fit a cascade tree to a CSV dataset
    simulate            draw samples from a fitted model
    verify              check the structural identities of a model
    cluster             cluster columns by deleting light tree edges
    chow-check          compare the cascade tree with the Gaussian MI tree
    export-dot          write the fitted tree as a DOT graph

options:
  -h, --help            show this help message and exit
"""
)

FIT_USAGE = "usage: treecascade fit [-h] --data DATA [--diff] [--root ROOT] --out OUT\n"
VERIFY_USAGE = "usage: treecascade verify [-h] (--model MODEL | --random D SEED)\n"

SUBCOMMAND_HELP = {
    "fit": FIT_USAGE
    + """
options:
  -h, --help   show this help message and exit
  --data DATA  CSV of observations (header row required)
  --diff       first-difference rows before fitting
  --root ROOT  root vertex for edge orientation
  --out OUT    output fit document (JSON)
""",
    "simulate": """\
usage: treecascade simulate [-h] --model MODEL [--sampler SAMPLER] --n N
                            --seed SEED --out OUT

options:
  -h, --help         show this help message and exit
  --model MODEL      fit document to simulate from
  --sampler SAMPLER  error sampler name
  --n N              number of samples
  --seed SEED        random seed
  --out OUT          output CSV path
""",
    "verify": VERIFY_USAGE
    + """
options:
  -h, --help       show this help message and exit
  --model MODEL    fit document to verify
  --random D SEED  verify a random unit-variance model on D vertices
""",
    "cluster": """\
usage: treecascade cluster [-h] --fit FIT --k K

options:
  -h, --help  show this help message and exit
  --fit FIT   fit document
  --k K       number of clusters
""",
    "chow-check": """\
usage: treecascade chow-check [-h] (--data DATA | --fit FIT)

options:
  -h, --help   show this help message and exit
  --data DATA  CSV of observations
  --fit FIT    fit document describing a model
""",
    "export-dot": """\
usage: treecascade export-dot [-h] --fit FIT --out OUT

options:
  -h, --help  show this help message and exit
  --fit FIT   fit document
  --out OUT   output DOT path
""",
}

PARSER_OUTPUTS = [
    (("--help",), 0, TOP_HELP, ""),
    *(((name, "--help"), 0, text, "") for name, text in SUBCOMMAND_HELP.items()),
    (
        ("verify",),
        2,
        "",
        VERIFY_USAGE + "treecascade verify: error: one of the arguments --model --random is required\n",
    ),
    (
        ("fit", "--data", "x", "--out", "y", "--root", "z"),
        2,
        "",
        FIT_USAGE + "treecascade fit: error: argument --root: invalid int value: 'z'\n",
    ),
    (
        ("frobnicate",),
        2,
        "",
        TOP_USAGE
        + "treecascade: error: argument command: invalid choice: 'frobnicate' (choose from "
        "'fit', 'simulate', 'verify', 'cluster', 'chow-check', 'export-dot')\n",
    ),
    ((), 2, "", TOP_USAGE + "treecascade: error: the following arguments are required: command\n"),
    # the top-level parser names the extra argument: its usage lists every command
    (
        ("verify", "--random", "3", "4", "extra"),
        2,
        "",
        TOP_USAGE + "treecascade: error: unrecognized arguments: extra\n",
    ),
]


class TestParserBytes:
    """Help, usage and argument errors pinned byte for byte at 80 columns."""

    @pytest.mark.parametrize(
        "argv, code, out, err", PARSER_OUTPUTS, ids=[" ".join(c[0]) or "bare" for c in PARSER_OUTPUTS]
    )
    def test_output(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        captured = capsys.readouterr()
        assert (exit_info.value.code, captured.out, captured.err) == (code, out, err)

    def test_one_subparser_per_command(self, monkeypatch, tmp_path):
        # the top-level parser and the invoked command's; all seven for the top-level help
        _, _, path = model_fit_document(tmp_path, d=4)
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert quiet_main("verify", "--model", path) == 0
        assert len(built) == 2
        built.clear()
        with pytest.raises(SystemExit):
            quiet_main("--help")
        assert len(built) == 7


class TestPeakMemory:
    """The parsed values are the only n-by-d array that fit and chow-check hold; simulate holds none."""

    N, D = 20_000, 30
    N_SIMULATED = 50_000

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

    WIDE_N, WIDE_D = 2_000, 400
    RELEASING = [
        pytest.param(("fit",), id="fit"),
        pytest.param(("fit", "--diff"), id="fit-diff"),
        pytest.param(("chow-check",), id="chow-check"),
    ]

    @staticmethod
    def argv(command, path, tmp_path):
        out = ("--out", tmp_path / "fit.json") if command[0] == "fit" else ()
        return (*command, "--data", path, *out)

    @pytest.fixture(scope="class")
    def wide_csv(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("wide") / "wide.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(f"c{j}" for j in range(self.WIDE_D)) + "\n")
            values = np.random.default_rng(13).standard_normal((self.WIDE_N, self.WIDE_D))
            np.savetxt(handle, values, fmt="%.4f", delimiter=",")
        return path

    @pytest.mark.parametrize("command", RELEASING)
    def test_wide_peak_within_the_values_and_one_and_a_half_grams(self, wide_csv, tmp_path, command):
        # the values go before the tree stage, whose d-by-d arrays would
        # otherwise come on top of them; the Gram comes out of numpy exactly
        # symmetric, so it is clipped in place and never copied
        n, d = self.WIDE_N, self.WIDE_D
        tracemalloc.start()
        try:
            code = quiet_main(*self.argv(command, wide_csv, tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code in (0, 1)
        above = (peak - 8 * n * d) / (8 * d * d)
        assert above <= 1.5, f"peak is the values and {above:.2f} d-by-d arrays"

    @pytest.mark.parametrize("command", RELEASING)
    def test_values_freed_before_the_tree_stage(self, tmp_path, monkeypatch, command):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1,2,4\n2,1,3\n4,3,1\n3,5,2\n5,4,6\n0,6,5\n")
        loaded, alive = [], []
        load_csv = dataio.load_csv

        def tracked_load_csv(p):
            ds = load_csv(p)
            loaded.append(weakref.ref(ds.values))
            return ds

        def tree_stage(function):
            def call(*args, **kwargs):
                alive.append(loaded[-1]() is not None)
                return function(*args, **kwargs)

            return call

        monkeypatch.setattr(dataio, "load_csv", tracked_load_csv)
        monkeypatch.setattr("treecascade.regression.fit_cascade", tree_stage(fit_cascade))
        monkeypatch.setattr(
            "treecascade.cli.correspondence_check", tree_stage(cli_module.correspondence_check)
        )
        assert quiet_main(*self.argv(command, path, tmp_path)) == 0
        assert alive == [False]

    def test_audit_commands_hold_a_bounded_set_of_d_by_d_arrays(self, tmp_path):
        # verify: the inverse, covariance, hop and meet plus one working array;
        # chow-check: the correlations, a weight matrix and its bottleneck plus one
        d = 200
        rng = np.random.default_rng(11)
        rt = root_tree(Tree.from_edges(d, [(i, i + 1) for i in range(d - 1)]), d // 3)
        signs = rng.choice([-1.0, 1.0], d - 1)
        model = make_unit_variance_model(
            rt, dict(zip(rt.non_root_vertices(), (signs * rng.uniform(0.5, 0.95, d - 1)).tolist()))
        )
        fit = fit_cascade(correlation_from_covariance(population_covariance(model)), root_hint=rt.root)
        path = tmp_path / "chain.json"
        save_fit(fit, path)
        for argv, arrays in ((("verify", "--model", path), 6.5), (("chow-check", "--fit", path), 4.5)):
            # a first call fills the caches that outlive it, argparse's and numpy's
            assert quiet_main(*argv) == 0
            tracemalloc.start()
            try:
                code = quiet_main(*argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak <= arrays * 8 * d * d, f"{argv[0]}: peak {peak / (8 * d * d):.2f} arrays"

    def test_inverse_residual_holds_one_work_array(self):
        # the parent gather writes into the work array; one that checked its
        # indices would buffer its output in a second d-by-d array
        d = 200
        assert _block_rows(d) >= d  # one block: the work array is d by d
        rt = root_tree(Tree.from_edges(d, [(i, i + 1) for i in range(d - 1)]), d // 3)
        model = make_unit_variance_model(rt, dict.fromkeys(rt.non_root_vertices(), 0.5))
        inv = cascade_inverse(model)
        tracemalloc.start()
        try:
            residual = inverse_residual(model, inv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual <= 1e-12
        assert peak <= 1.5 * 8 * d * d, f"peak {peak / (8 * d * d):.2f} arrays"

    SAMPLERS = ("gaussian", "laplace", "uniform", "rademacher", "dependent")
    # A child prints the peak of its own memory image, VmHWM.  Its ru_maxrss
    # would not do: Linux carries the spawning process's peak across the
    # exec, so under pytest both children would report pytest's peak.
    CHILD_PEAK = (
        "import sys\n"
        "from treecascade.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
        "sys.exit(code)\n"
    )

    @pytest.fixture(scope="class")
    def simulate_children(self, tmp_path_factory):
        """Each sampler's simulate child at n = 1 and n = N_SIMULATED, two running at a time."""
        tmp_path = tmp_path_factory.mktemp("peaks")
        _, _, doc = model_fit_document(tmp_path, d=self.D)

        def child(job):
            sampler, n = job
            argv = ["simulate", "--model", doc, "--sampler", sampler, "--n", n, "--seed", 3,
                    "--out", tmp_path / f"{sampler}-{n}.csv"]
            return subprocess.run(
                [sys.executable, "-c", self.CHILD_PEAK, *map(str, argv)],
                capture_output=True,
                text=True,
                # two children share the CPUs: more BLAS threads would spin against each other
                env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            )

        jobs = [(sampler, n) for sampler in self.SAMPLERS for n in (1, self.N_SIMULATED)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            return dict(zip(jobs, pool.map(child, jobs)))

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_simulate_streams_in_blocks(self, simulate_children, sampler):
        # the whole draw would be 11.4 MiB; blocks are at most 1 MiB, dependent's magnitudes 0.4 MiB
        peaks = []
        for n in (1, self.N_SIMULATED):
            result = simulate_children[sampler, n]
            assert (result.returncode, result.stderr) == (0, "")
            peaks.append(int(result.stdout.split()[-1]) * 1024)  # VmHWM is in KiB
        gap = peaks[1] - peaks[0]
        assert gap < self.N_SIMULATED * self.D * 8 / 2, f"peak grew {gap / 2**20:.2f} MiB"


class TestCsvMustBeARegularFile:
    """A pipe yields its bytes once, where a CSV is read more than once: it exits 2 by name."""

    @staticmethod
    def cli(*argv, stdin=None):
        # a timeout, so that a read that blocks fails the test
        return subprocess.run(
            [sys.executable, "-m", "treecascade.cli", *map(str, argv)],
            input=stdin,
            capture_output=True,
            timeout=60,
        )

    def test_piped_stdin(self, tmp_path):
        result = self.cli(
            "fit", "--data", "/dev/stdin", "--diff", "--out", tmp_path / "f.json",
            stdin=sample_prices_path().read_bytes(),
        )
        assert (result.returncode, result.stderr) == (
            2, b"error: /dev/stdin: a CSV must be a regular file\n"
        )
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("flags", [[], ["--root", "1"]])
    def test_fifo_without_writer_does_not_block(self, tmp_path, flags):
        fifo = tmp_path / "prices.csv"
        os.mkfifo(fifo)
        result = self.cli("fit", "--data", fifo, *flags, "--out", tmp_path / "f.json")
        assert (result.returncode, result.stderr) == (
            2, f"error: {fifo}: a CSV must be a regular file\n".encode()
        )

    def test_null_device(self):
        result = self.cli("chow-check", "--data", os.devnull)
        assert (result.returncode, result.stderr) == (
            2, f"error: {os.devnull}: a CSV must be a regular file\n".encode()
        )

    def test_fit_document_from_stdin(self, tmp_path):
        # a fit document is read once, so a pipe serves
        _, _, doc = model_fit_document(tmp_path, d=6)
        result = self.cli("verify", "--model", "/dev/stdin", stdin=doc.read_bytes())
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout.endswith(b"result: pass\n")


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "treecascade.cli", "verify", "--random", "4", "9"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "result: pass" in result.stdout

    @pytest.mark.parametrize("where", ["final flush", "print", "--out /dev/stdout"])
    def test_closed_stdout_stops_quietly(self, tmp_path, where):
        # as `| head` leaves it: a pipe whose reader has gone
        _, _, doc = model_fit_document(tmp_path, d=300)  # 299 edge lines, past stdout's buffer
        argv = {
            "final flush": ["verify", "--random", "4", "9"],
            "print": ["chow-check", "--fit", doc],
            "--out /dev/stdout": [
                "simulate", "--model", doc, "--n", "100", "--seed", "1", "--out", "/dev/stdout",
            ],
        }[where]
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "treecascade.cli", *map(str, argv)],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                # a buffered stdout, as a pipe normally has, holds short output until exit
                env={k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (141, "")

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
        # the README tour, the CLI's pipeline stages and the errors; test
        # oracles live in tests/, internals in the submodules
        names = sorted(
            name
            for name, value in vars(treecascade).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        )
        assert names == [
            "CascadeModel", "CorrelationSummary", "DataError", "Dataset", "DegeneracyError",
            "FitResult", "InvalidInputError", "RootedTree", "SchemaError", "Tree",
            "TreeCascadeError", "UnsupportedModelError", "WeightedGraph",
            "cluster_by_edge_deletion", "correlation_from_covariance", "correlation_from_dataset",
            "correspondence_check", "empirical_fit", "fit_cascade", "get_sampler", "load_csv",
            "load_fit", "make_unit_variance_model", "maximum_spanning_tree", "mst_is_unique",
            "population_covariance", "random_unit_variance_model", "reroot", "root_tree",
            "sample_prices_path", "save_csv", "save_fit", "simulate", "verify_covariance_lemmas",
        ]

    def test_readme_tour_runs(self):
        # the README's "Library quick tour" block, run against the package
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        tour = text.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(tour, "README.md", "exec"), {})

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

    def test_import_loads_no_new_module_and_builds_no_table(self):
        # the CSV writer's kernel loads on the first write, and builds its tables then
        probe = (
            "import sys, treecascade.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('treecascade'))); "
            "from treecascade import _float_text as t; "
            "print(t.schubfach_tables.cache_info().currsize, t.text_tables.cache_info().currsize)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        modules = ["treecascade"] + [
            f"treecascade.{m}" for m in ("cascade", "chowliu", "cli", "dataio", "errors", "regression", "trees")
        ]
        assert result.stdout.splitlines() == [str(modules), "0 0"]


class TestSameBytesTool:
    @pytest.fixture(scope="class")
    def tool(self):
        script = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"
        spec = importlib.util.spec_from_file_location("same_bytes", script)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        return tool

    def test_commands_cover_every_subcommand(self, tool):
        assert {command[0] for command in tool.COMMANDS} == set(cli_module._COMMANDS)

    def test_commands_replay_rejections(self, tool, tmp_path):
        rejections = [
            ("fit", "--data", tool.CSV, "--root", "-1", "--out", "negative_root.json"),
            ("verify", "--random", "0", "1"),
            ("cluster", "--fit", tool.FITS[0], "--k", "0"),
        ]
        for doc in tool.BROKEN:
            dot = doc.replace(".json", ".dot")
            rejections += [("verify", "--model", doc), ("export-dot", "--fit", doc, "--out", dot)]
        assert set(rejections) <= set(tool.COMMANDS)
        # each broken document fails the loader, at its root or at its edges
        expected = {
            "unconnected.json": "edges: edge set is not connected",
            "root_is_d.json": "root: 5 out of range for d=5",
        }
        assert set(expected) == set(tool.BROKEN)
        for name, (root, edges) in tool.BROKEN.items():
            path = tmp_path / name
            path.write_text(tool._broken_document(root, edges))
            with pytest.raises(SchemaError, match=f"^{expected[name]}$"):
                load_fit(path)

    def test_commands_replay_both_covariance_routes(self, tool, tmp_path, capsys):
        # chow-check --fit normalizes a covariance only for a model that is not unit variance
        for name, (coeffs, error_vars) in tool.CHAINS.items():
            path = tmp_path / name
            path.write_text(tool._chain_document(coeffs, error_vars))
            model = model_from_document(load_document(path))
            assert model.unit_variance is (error_vars is None)
            assert load_document(path)["unit_variance"] is model.unit_variance
        assert {("chow-check", "--fit", "not_unit.json"), ("verify", "--model", "not_unit.json")} <= set(tool.COMMANDS)
        weak_chain = {("verify", "--model", "weak_chain.json"), ("chow-check", "--fit", "weak_chain.json")}
        assert weak_chain <= set(tool.COMMANDS)
        assert run(capsys, "verify", "--model", str(tmp_path / "not_unit.json")) == (
            2, "", "error: verify requires a unit-variance model document\n"
        )
        code, stdout, _ = run(capsys, "verify", "--model", str(tmp_path / "weak_chain.json"))
        assert code == 0 and stdout.endswith("result: pass\n")
        # chow-check writes the chain's 199 edge lines and its verdict at once
        code, stdout, _ = run(capsys, "chow-check", "--fit", str(tmp_path / "weak_chain.json"))
        lines = stdout.splitlines()
        assert code == 0 and len(lines) == 200 and lines[-1] == "trees_equal: true"
        assert lines[0] == "edge x0 -- x1: squared_correlation=0.010000 mi_weight=0.005025"

    def test_commands_replay_the_full_mutual_information_path(self, tool, tmp_path, capsys, monkeypatch):
        # the tie CSV is the one input whose chow-check builds every pair's MI weight
        assert ("chow-check", "--data", tool.TIE_CSV) in tool.COMMANDS
        path = tmp_path / tool.TIE_CSV
        path.write_text(tool.TIE_TEXT)
        calls = TestVerifyAlgebra.count_calls(
            monkeypatch, {"mi": chowliu_module.mutual_information_weights}
        )
        assert main(["chow-check", "--data", str(path)]) == 0
        assert calls == {"mi": 1}
        out = capsys.readouterr().out
        assert "squared_correlation=0.062500" in out
        assert out.endswith("trees_equal: true\ntie detected: the maximum spanning tree is not unique\n")
