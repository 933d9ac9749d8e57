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
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import treecascade
from treecascade import (
    correlation_from_covariance,
    fit_cascade,
    load_fit,
    population_covariance,
    random_unit_variance_model,
    sample_prices_path,
    save_fit,
)
from treecascade.cli import main
from treecascade.dataio import fit_to_document

from conftest import csv_texts


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

    def test_fit_document_route(self, capsys, tmp_path):
        _, _, doc = model_fit_document(tmp_path, d=5)
        code, stdout, _ = run(capsys, "chow-check", "--fit", str(doc))
        assert code == 0 and "trees_equal: true" in stdout

    def test_invalid_fit_document_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{}")
        code, _, stderr = run(capsys, "chow-check", "--fit", str(path))
        assert code != 0 and "missing field" in stderr


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
