"""Tests for CSV ingestion, standardization, and fit-document round trips.

Claims covered:
  - CSV errors name the offending row and column; trailing blanks are
    tolerated; duplicate headers are rejected.
  - numpy's C reader, which reads plain files, returns what the
    validating parser returns, bit for bit, or leaves the file to it.
  - A byte that is not UTF-8 is an error naming the file and its offset.
  - A leading UTF-8 byte-order mark is skipped, by the C reader and the
    validating parser alike, and still counts in the offsets.
  - The chunk writer writes the bytes csv.writer writes, for any finite
    double and at any width; it checks the names before opening the file
    and each block before writing it, numbering rows from the first
    block, and removes a partial file.
  - Its digit and layout kernel writes repr's text for random bit
    patterns, subnormals, the neighbours of powers of two and ten,
    integers near 2**53 and the notation switches, in uint64 arithmetic;
    for chunks in fixed notation only, in scientific notation only or
    only at each row's end, and one column wide; and its first call
    builds its tables without large temporaries.
  - tools/generate_sample_prices.py reproduces the bundled sample CSV.
  - The in-place standardization hits the n-1 convention exactly and is
    idempotent; correlation_from_dataset errors by column name on zero
    variance.
  - The in-place differencing obeys the shape contract, and a constant
    series chains into the zero-variance error under diff=True.
  - The in-place kernel (differences, standardization, correlation over
    one buffer) is bit for bit the copying formulas, at and around its
    block size; the public functions leave their input unchanged, and a
    column near the float limit standardizes instead of overflowing.
  - Fit documents round-trip losslessly with 17-significant-digit
    decimals, and schema violations name the field path; a fit that
    cannot be written leaves the old document's bytes.
  - Loading a document checks each field once and roots its tree in one
    walk, with the result, or the first error, of the loaders that ran
    every constructor's checks, on documents with up to three faults.
"""

from __future__ import annotations

import copy
import csv
import importlib.util
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from treecascade import (
    DataError,
    Dataset,
    InvalidInputError,
    SchemaError,
    correlation_from_covariance,
    correlation_from_dataset,
    empirical_fit,
    fit_cascade,
    load_csv,
    load_fit,
    population_covariance,
    random_unit_variance_model,
    sample_prices_path,
    save_csv,
    save_fit,
)
from treecascade import _float_text, dataio
from treecascade.dataio import (
    document_to_fit,
    dumps_document,
    fit_to_document,
    model_from_document,
    read_csv_header,
)

from conftest import csv_texts
from oracles import (
    checking_document_to_fit,
    checking_model_from_document,
    copying_correlation,
    copying_standardize,
    csv_writer_bytes,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def example_fit(d=5, seed=2, names=None):
    model = random_unit_variance_model(d, np.random.default_rng(seed))
    fit = fit_cascade(correlation_from_covariance(population_covariance(model)))
    if names is not None:
        import dataclasses

        fit = dataclasses.replace(fit, names=tuple(names))
    return fit


class TestLoadCsv:
    def test_basic_shape(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b\n1,2\n3,4\n"))
        assert (ds.n, ds.d) == (2, 2)
        assert ds.names == ("a", "b")
        assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_trailing_blank_line_ignored(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b\n1,2\n\n"))
        assert ds.n == 1

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "x,AAPL\n1,2\n3,4\n5,abc\n")
        with pytest.raises(DataError, match=r"row 3, column 'AAPL'"):
            load_csv(path)

    def test_ragged_row_names_row(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_duplicate_headers_rejected(self, tmp_path):
        with pytest.raises(DataError, match="duplicate"):
            load_csv(write(tmp_path, "a,a\n1,2\n"))

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            load_csv(tmp_path / "nope.csv")

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_csv(write(tmp_path, ""))

    def test_non_finite_cell_rejected(self, tmp_path):
        with pytest.raises(DataError, match="row 1, column 'b'"):
            load_csv(write(tmp_path, "a,b\n1,inf\n"))

    def test_header_peek(self, tmp_path):
        path = write(tmp_path, "a,b,c\n1,2,3\n")
        assert read_csv_header(path) == ("a", "b", "c")

    @pytest.mark.parametrize(
        "text", ["a,b\n1," + "9" * 200_000 + "\n", "a" * 200_000 + "\n1\n"], ids=["cell", "name"]
    )
    def test_cell_over_the_csv_field_limit_is_a_data_error(self, text, tmp_path):
        with pytest.raises(DataError, match="field larger than field limit"):
            load_csv(write(tmp_path, text))

    def test_interior_blank_line_names_row(self, tmp_path):
        # numpy's reader skips blank lines; the data-line count catches it
        with pytest.raises(DataError, match="row 2: expected 2 values, got 0"):
            load_csv(write(tmp_path, "a,b\n1,2\n\n3,4\n"))

    def test_separator_byte_is_not_whitespace(self, tmp_path):
        # numpy's reader strips \x1c around a number; float() does not
        with pytest.raises(DataError, match=r"row 1, column 'a': could not parse"):
            load_csv(write(tmp_path, "a,b\n\x1c1,2\n"))

    def test_bare_cr_line_ends_parsed(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,b\r1,2\r3,4\r"))
        assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_split_over_lines_parsed_as_one_row(self, tmp_path):
        # an unterminated quote makes the whole file one header cell
        ds = load_csv(write(tmp_path, '"a\n1\n2\n'))
        assert ds.names == ("a\n1\n2",) and ds.n == 0


def outcome(read, path):
    """What a CSV reader makes of a file: its result bits, or its error."""
    try:
        ds = read(path)
    except Exception as exc:  # the oracle compares failures too
        return type(exc), str(exc)
    return ds.names, ds.values.shape, ds.values.view(np.int64).tobytes()


class TestCReaderOracle:
    """``load_csv`` against the validating parser called directly."""

    @given(text=csv_texts())
    @example(text="a,b\n1,2\n\n3,4\n")  # loadtxt skips the blank line
    @example(text="a,b\n1,2\r3,4\n\n5,6\n")  # a bare CR hides it from the count
    @example(text="a,b\n\x1c1,2\n")  # loadtxt strips \x1c, float() does not
    @example(text="a,b\n1,nan\n3,1e400\n")
    @example(text='"a\n1\n2\n')  # a header cell spanning the whole file
    @example(text="a,b\n")
    @settings(max_examples=300, deadline=None)
    def test_same_result_or_same_error(self, text, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "oracle.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(load_csv, path) == outcome(dataio._parse_csv, path)

    def test_plain_files_take_the_c_reader(self, tmp_path, monkeypatch):
        bundled = dataio._parse_csv(sample_prices_path())

        def refuse(path):
            raise AssertionError(f"validating parser called on {path}")

        monkeypatch.setattr(dataio, "_parse_csv", refuse)
        fast = load_csv(sample_prices_path())
        assert fast.names == bundled.names
        assert np.array_equal(fast.values.view(np.int64), bundled.values.view(np.int64))
        texts = (
            "a,b\n1,2\n-3.5,4e-3\n",  # LF
            "a,b\r\n1,2\r\n-3.5,4e-3\r\n",  # CRLF
            "a,b\n1,2\n-3.5,4e-3",  # no final newline
            "a,b\n1,2\n-3.5,4e-3\n\n\n",  # trailing blank lines
            "a,b\r\n1,2\r\n-3.5,4e-3\r\n\r\n",
        )
        for k, text in enumerate(texts):
            ds = load_csv(write(tmp_path, text, name=f"plain{k}.csv"))
            assert np.array_equal(ds.values, [[1.0, 2.0], [-3.5, 4e-3]])

    def test_file_longer_than_a_read_block(self, tmp_path, monkeypatch):
        # the first 1 MiB block ends on a newline, which the count carries
        path = write(tmp_path, "a,b\n" + "1,2\n" * (1 << 18) + "3,4\n")
        monkeypatch.setattr(dataio, "_parse_csv", None)
        ds = load_csv(path)
        assert ds.n == (1 << 18) + 1 and ds.values[-1].tolist() == [3.0, 4.0]

    def test_blank_lines_reserve_no_array(self, tmp_path):
        # loadtxt sizes its array by the data-line count: 24 MB for these lines
        header = ",".join(f"c{j}" for j in range(30))
        path = write(tmp_path, header + "\n" * 100_000 + "\n" + ",".join(["1"] * 30) + "\n")
        tracemalloc.start()
        try:
            assert dataio._read_plain(path, 30) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_fuzzed_decimals_read_as_float_does(self, tmp_path):
        # shortest reprs of random bit patterns, long mantissas, wide
        # exponents and subnormals: one column, one spelling per line
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**63, 2000, dtype=np.uint64).view(np.float64)
        spellings = [repr(x) for x in bits.tolist() if math.isfinite(x)]
        spellings += [
            f"{'-' if rng.random() < 0.5 else ''}{rng.integers(1, 10**9)}"
            f"{''.join(rng.choice(list('0123456789'), rng.integers(0, 30)))}"
            f"e{rng.integers(-360, 260)}"
            for _ in range(2000)
        ]
        spellings += ["2.4703282292062327e-324", "2.4703282292062328e-324", "4.9e-324"]
        spellings += [f" {s}\t" for s in spellings[:50]]
        path = write(tmp_path, "x\n" + "\n".join(spellings) + "\n")
        expected = np.array([[float(s)] for s in spellings])
        assert np.isfinite(expected).all()
        assert dataio._read_plain(path, 1) is not None  # the C reader read it
        assert np.array_equal(load_csv(path).values.view(np.int64), expected.view(np.int64))


class TestNonUtf8:
    def test_csv_names_path_and_offset(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b\n1,2\n\xff,3\n")
        with pytest.raises(DataError, match=r"bad\.csv: not valid UTF-8 at byte 8"):
            load_csv(path)
        with pytest.raises(DataError, match="byte 8"):
            read_csv_header(path)

    def test_offset_past_the_first_block(self, tmp_path):
        # a two-byte character split across the 1 MiB read boundary
        head = b"a\n" + b"1\n" * ((1 << 19) - 2) + b"1"
        path = tmp_path / "long.csv"
        path.write_bytes(head + "é".encode() + b"\n\xff\n")
        with pytest.raises(DataError, match=f"at byte {len(head) + 3}$"):
            load_csv(path)

    def test_document_names_path_and_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"d": "\xe9"}')
        with pytest.raises(SchemaError, match=r"bad\.json: not valid UTF-8 at byte 7"):
            load_fit(path)


class TestByteOrderMark:
    """A UTF-8 byte-order mark opens the file; it is not part of the first column's name."""

    BOM = b"\xef\xbb\xbf"

    def test_plain_file(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(self.BOM + b"a,b\n1,2\n3,5\n")
        assert dataio._read_plain(path, 2) is not None  # the C reader reads it
        ds = load_csv(path)
        assert ds.names == ("a", "b") == read_csv_header(path)
        assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 5.0]])

    def test_quoted_cell(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(self.BOM + b'a,b\n"1",2\n3,5\n')
        assert dataio._read_plain(path, 2) is None  # the validating parser reads it
        ds = load_csv(path)
        assert ds.names == ("a", "b")
        assert np.array_equal(ds.values, [[1.0, 2.0], [3.0, 5.0]])

    def test_offsets_count_the_mark(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(self.BOM + b"a,b\n1,2\n\xff,3\n")
        with pytest.raises(DataError, match=r"bad\.csv: not valid UTF-8 at byte 11$"):
            load_csv(path)


class TestSaveCsv:
    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(values=rng.standard_normal((20, 4)), names=("a", "b", "c", "d"))
        path = tmp_path / "out.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.values, ds.values)
        assert back.names == ds.names

    @given(
        values=hnp.arrays(
            np.float64,
            (3, 2),
            elements=st.floats(-1e12, 1e12, allow_nan=False, width=64),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_lossless_property(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "prop.csv"
        ds = Dataset(values=values, names=("u", "v"))
        save_csv(ds, path)
        assert np.array_equal(load_csv(path).values, ds.values)

    @pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 700])
    def test_block_writer_matches_csv_writer(self, n, tmp_path):
        rng = np.random.default_rng(n)
        values = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
        ds = Dataset(values=values, names=("a", "b,c", "d"))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(ds.names)
        writer.writerows(ds.values.tolist())
        path = tmp_path / "blocks.csv"
        save_csv(ds, path)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_edge_values_written_as_shortest_repr(self, tmp_path):
        # signed zero, subnormals, the largest double, exponent switch points
        values = [[-0.0, 5e-324, 1e-310, 1.7976931348623157e308], [1e16, 1e-05, 0.1, -2.5]]
        path = tmp_path / "edge.csv"
        save_csv(Dataset(values=np.array(values), names=("a", "b", "c", "d")), path)
        assert path.read_bytes() == (
            b"a,b,c,d\r\n"
            b"-0.0,5e-324,1e-310,1.7976931348623157e+308\r\n"
            b"1e+16,1e-05,0.1,-2.5\r\n"
        )


    def test_rows_numbered_from_the_first_block(self, tmp_path):
        blocks = [np.ones((3, 2)), np.ones((4, 2)), np.ones((2, 2))]
        blocks[1][2, 1] = np.nan
        path = tmp_path / "out.csv"
        with pytest.raises(DataError, match=r"^non-finite value at row 6, column 'b'$"):
            dataio._write_csv(path, ("a", "b"), iter(blocks))
        assert not path.exists()

    def test_rows_numbered_past_a_check_block(self, tmp_path):
        # a block longer than one finiteness-check block: its rows keep counting
        b = dataio._block_rows(2)
        blocks = [np.ones((5, 2)), np.ones((2 * b + 3, 2))]
        blocks[1][b + 1, 1] = np.inf
        blocks[1][b + 2, 0] = np.nan
        path = tmp_path / "out.csv"
        with pytest.raises(DataError, match=rf"^non-finite value at row {5 + b + 2}, column 'b'$"):
            dataio._write_csv(path, ("a", "b"), iter(blocks))
        assert not path.exists()

    def test_names_checked_before_the_file_is_opened(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("kept\n")
        with pytest.raises(DataError, match="duplicate column names: a"):
            dataio._write_csv(path, ("a", "b", "a"), [np.ones((1, 3))])
        assert path.read_text() == "kept\n"

    def test_failing_iterator_removes_the_file(self, tmp_path):
        def blocks():
            yield np.ones((2, 1))
            raise InvalidInputError("draw failed")

        path = tmp_path / "out.csv"
        with pytest.raises(InvalidInputError, match="draw failed"):
            dataio._write_csv(path, ("a",), blocks())
        assert not path.exists()

    @given(
        values=hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 6), st.integers(1, 7)),
            elements=st.floats(allow_nan=False, allow_infinity=False, width=64),
        )
    )
    @example(values=np.array([[-0.0, 5e-324, 2.2250738585072014e-308],
                              [1.7976931348623157e308, -1.7976931348623157e308, 1e-310]]))
    @settings(max_examples=200, deadline=None)
    def test_any_finite_double_written_as_csv_writer_does(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "any.csv"
        names = tuple(f"c{k}" for k in range(values.shape[1]))
        save_csv(Dataset(values=values, names=names), path)
        assert path.read_bytes() == csv_writer_bytes(names, values)

    @pytest.mark.parametrize("d", [1, 7, 31])
    def test_three_chunks_of_any_width(self, d, tmp_path):
        # two full chunks and a short last one
        rows = dataio._VALUES_PER_CHUNK // d
        rng = np.random.default_rng(d)
        n = 2 * rows + rows // 2 + 1
        values = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-320, 308, (n, d))
        names = tuple(f"c{k}" for k in range(d))
        path = tmp_path / "chunks.csv"
        save_csv(Dataset(values=values, names=names), path)
        assert path.read_bytes() == csv_writer_bytes(names, values)


class TestFloatText:
    """The writer's digit and layout kernel gives repr's text where shortest-digit methods slip."""

    WIDTH = 64

    def assert_written_as_repr(self, values):
        values = np.concatenate([values, np.zeros(-len(values) % self.WIDTH)]).reshape(-1, self.WIDTH)
        names = tuple(f"c{k}" for k in range(self.WIDTH))
        oracle = csv_writer_bytes(names, values).split(b"\r\n", 1)[1]
        rows = 256
        text = b"".join(_float_text.csv_rows(values[i : i + rows]) for i in range(0, len(values), rows))
        if text != oracle:
            got, want = text.replace(b"\r\n", b",").split(b","), oracle.replace(b"\r\n", b",").split(b",")
            k = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b)
            pytest.fail(f"{values.ravel()[k]!r} written as {got[k]!r}")

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(23).integers(0, 2**64 - 1, 150_000, dtype=np.uint64, endpoint=True)
        values = bits.view(np.float64)
        self.assert_written_as_repr(values[np.isfinite(values)])

    def test_subnormals(self):
        # every mantissa up to 10**5, then a stride up to the largest subnormal
        mantissas = np.concatenate(
            [np.arange(1, 100_001), np.arange(100_001, 2**52, 2**52 // 20_000 + 1), [2**52 - 1]]
        )
        self.assert_written_as_repr(mantissas.astype(np.uint64).view(np.float64))

    def test_neighbours_of_powers_of_two_and_ten(self):
        tens = [float(f"1e{e}") for e in range(-323, 309)]
        powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)), tens])
        below = np.nextafter(powers, 0.0)
        above = np.nextafter(powers, np.inf)
        values = np.concatenate([powers, below, above[np.isfinite(above)]])
        self.assert_written_as_repr(np.concatenate([values, -values]))

    def test_integers_near_2_to_the_53(self):
        offsets = np.arange(-1000.0, 1001.0)
        self.assert_written_as_repr(np.concatenate([2.0**53 + offsets, 2.0**53 + 2 * offsets, 2.0**54 + offsets]))

    def test_notation_switches(self):
        # repr writes fixed notation for 1e-4 <= |x| < 1e16
        edges = np.array([1e-4, 1e-5, 1e16, 1e15, 9999999999999998.0, 0.001, 1.0, 10.0])
        steps = np.arange(-40, 41, dtype=np.int64)
        values = (edges.view(np.int64)[:, None] + steps).ravel().view(np.float64)
        self.assert_written_as_repr(np.concatenate([values, -values]))

    def test_named_values(self):
        # Giulietti's published Schubfach forces two digits: 4.9e-324 and 7.9e-323
        values = np.array([[5e-324, 1e-323, 8e-323, 0.0, -0.0, np.finfo(float).max, -np.finfo(float).max]])
        assert _float_text.csv_rows(values) == (
            b"5e-324,1e-323,8e-323,0.0,-0.0,1.7976931348623157e+308,-1.7976931348623157e+308\r\n"
        )

    @staticmethod
    def laplace(n, exponents):
        """n Laplace draws of either sign, each scaled by 10 ** e for an e drawn from ``exponents``."""
        rng = np.random.default_rng(n)
        return rng.laplace(size=n) * 10.0 ** rng.choice(exponents, n)

    def test_fixed_notation_only(self):
        # as simulate writes: no value takes the exponent fill
        values = self.laplace(64 * 200, np.arange(-4, 3))
        values = values[(np.abs(values) >= 1e-4) & (np.abs(values) < 1e3)]
        assert not any("e" in repr(v) for v in values.tolist())
        self.assert_written_as_repr(values)

    def test_scientific_notation_ends_each_row(self):
        # the exponent and the row end share the last word
        values = self.laplace(64 * 100, np.arange(-4, 3)).reshape(100, 64)
        values[:, -1] = self.laplace(100, np.r_[-320:-5, 16:300])
        assert all("e" in repr(v) for v in values[:, -1].tolist())
        self.assert_written_as_repr(values.ravel())

    def test_scientific_notation_only(self):
        # one digit and many, two exponent digits and three, both signs
        values = self.laplace(64 * 100, np.r_[-320:-5, 16:300])
        powers = 10.0 ** np.r_[-323:-4, 16:309]
        values = values[(values != 0) & ((np.abs(values) < 1e-4) | (np.abs(values) >= 1e16))]
        values = np.concatenate([values, powers, -powers])
        assert all("e" in repr(v) for v in values.tolist())
        self.assert_written_as_repr(values)

    def test_one_column(self):
        # every value ends a row
        values = np.concatenate(
            [self.laplace(500, np.r_[-320:-5, -4:16, 16:300]), [0.0, -0.0, 1e16, 1e-5, 1e15, 1e-4]]
        )[:, None]
        oracle = csv_writer_bytes(("c0",), values).split(b"\r\n", 1)[1]
        assert _float_text.csv_rows(values) == oracle

    def test_first_call_memory(self):
        # the tables are built in place, with no temporary larger than a few KiB
        def clear():
            _float_text.schubfach_tables.cache_clear()
            _float_text.text_tables.cache_clear()

        chunk = self.laplace(256 * 30, np.arange(-4, 3)).reshape(256, 30)
        clear()
        tracemalloc.start()
        try:
            _float_text.csv_rows(chunk)
            kept, peak = tracemalloc.get_traced_memory()
            clear()
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _float_text.schubfach_tables()
            _float_text.text_tables()
            built, build_peak = (m - start for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert kept < 320 << 10  # the tables: 292 KiB
        assert build_peak < built + (16 << 10)
        assert peak < 1900 << 10  # 1785 KiB: the tables, the words and their bytes

    def test_uint64_throughout(self):
        # a signed operand would promote the digits to float64
        values = [1.0, 0.1, 5e-324, 2.0**-1022, 1e300]
        digits, exponents = _float_text.shortest_digits(np.array(values).view(np.uint64))
        assert (digits.dtype, exponents.dtype) == (np.uint64, np.int64)
        assert [float(f"{f}e{k}") for f, k in zip(digits, exponents)] == values


class TestBundledSample:
    def test_generator_reproduces_the_bundled_csv(self, tmp_path, capsys):
        script = Path(__file__).resolve().parents[1] / "tools" / "generate_sample_prices.py"
        spec = importlib.util.spec_from_file_location("generate_sample_prices", script)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        out = tmp_path / "prices.csv"
        tool.main(out)
        assert out.read_bytes() == sample_prices_path().read_bytes()
        assert capsys.readouterr().out.startswith(f"wrote 751 rows x 30 columns to {out}\n")


class TestDatasetValidation:
    def test_duplicate_names(self):
        with pytest.raises(DataError, match="duplicate"):
            Dataset(values=np.zeros((1, 2)), names=("a", "a"))

    def test_non_finite_named(self):
        values = np.array([[1.0, 2.0], [3.0, np.inf]])
        with pytest.raises(DataError, match="row 2, column 'b'"):
            Dataset(values=values, names=("a", "b"))

    @pytest.mark.parametrize("block, row", [(0, 0), (0, -1), (1, 0), (1, 7), (3, -1)])
    def test_first_non_finite_past_the_first_block_named(self, block, row):
        # the check goes block by block; the earliest entry in row-major order wins,
        # over an earlier column in a later row and over any later block
        b = dataio._block_rows(3)
        values = np.ones((3 * b + 5, 3))
        first = block * b + row if row >= 0 else min((block + 1) * b, len(values)) + row
        values[first, 1:] = (np.inf, np.nan)
        values[first + 1 :, 0] = -np.inf
        with pytest.raises(DataError, match=rf"^non-finite value at row {first + 1}, column 'b'$"):
            Dataset(values=values, names=("a", "b", "c"))

    def test_zero_columns_rejected(self):
        # an n-by-0 dataset would save as blank lines that load_csv rejects
        with pytest.raises(InvalidInputError, match="at least one column, got 0"):
            Dataset(values=np.empty((3, 0)), names=())
        with pytest.raises(InvalidInputError, match="at least one column, got 0"):
            dataio._adopt(np.empty((3, 0)), ())

    def test_values_frozen(self):
        ds = Dataset(values=np.zeros((1, 1)), names=("a",))
        with pytest.raises(ValueError):
            ds.values[0, 0] = 1.0


def standardized(values, names=("a", "b", "c")) -> np.ndarray:
    """``_standardize_in_place`` over a float64 copy of ``values``."""
    return dataio._standardize_in_place(np.array(values, dtype=float), names)


class TestStandardize:
    def test_two_point_column(self):
        z = standardized([[1.0], [3.0]])
        assert z[:, 0] == pytest.approx([-0.7071067811865475, 0.7071067811865475], abs=1e-15)
        assert z[:, 0].mean() == 0.0
        assert z[:, 0].std(ddof=1) == pytest.approx(1.0, abs=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        once = standardized(rng.standard_normal((50, 3)) * 7 + 2)
        twice = standardized(once)
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_standardized_moments(self):
        rng = np.random.default_rng(11)
        z = standardized(rng.uniform(5, 9, (40, 2)))
        assert np.max(np.abs(z.mean(axis=0))) < 1e-10
        sample_sd = np.sqrt((z**2).sum(axis=0) / (len(z) - 1))
        assert sample_sd == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_constant_column_error(self):
        ds = Dataset(values=np.array([[5.0, 1.0], [5.0, 2.0]]), names=("fixed", "ok"))
        with pytest.raises(DataError, match="'fixed'"):
            correlation_from_dataset(ds)

    def test_constant_column_with_inexact_mean(self):
        # 0.1 + 0.1 + 0.1 rounds: the mean is 0.10000000000000002, not 0.1
        ds = Dataset(values=np.array([[0.1, 1.0], [0.1, 2.0], [0.1, 4.0]]), names=("a", "b"))
        assert ds.values[:, 0].mean() != 0.1
        with pytest.raises(DataError, match="column 'a' has zero variance"):
            correlation_from_dataset(ds)

    def test_needs_two_rows(self):
        with pytest.raises(InvalidInputError, match="standardization needs at least 2 rows"):
            correlation_from_dataset(Dataset(values=np.array([[1.0]]), names=("a",)))


class TestPriceChanges:
    def test_first_differences(self):
        diff = dataio._difference_in_place(np.array([[10.0], [11.0], [13.0]]), ("p",))
        assert np.array_equal(diff, [[1.0], [2.0]])
        assert diff.mean() == 1.5  # differenced, not standardized

    def test_constant_series_chains_into_standardize_error(self):
        ds = Dataset(values=np.array([[4.0], [4.0], [4.0]]), names=("p",))
        assert np.array_equal(dataio._difference_in_place(ds.values.copy(), ds.names), [[0.0], [0.0]])
        with pytest.raises(DataError, match="'p'"):
            correlation_from_dataset(ds, diff=True)

    def test_needs_two_rows(self):
        with pytest.raises(InvalidInputError, match="need at least 2 rows to difference"):
            correlation_from_dataset(Dataset(values=np.array([[1.0]]), names=("p",)), diff=True)

    def test_bundled_sample_shape(self):
        ds = load_csv(sample_prices_path())
        assert dataio._difference_in_place(ds.values.copy(), ds.names).shape == (ds.n - 1, 30)
        assert correlation_from_dataset(ds, diff=True).d == 30


def bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.int64)


class TestInPlaceKernel:
    @given(
        d=st.integers(1, 12),
        size=st.sampled_from([(0, 2), (0, 3), (1, -1), (1, 0), (1, 1), (3, 5)]),
        diff=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_copying_formulas(self, d, size, diff, seed):
        # n is whole blocks of d columns plus an offset: 2, 3, B - 1, B, B + 1
        # and 3B + 5 rows, with at least two rows left to standardize
        blocks, offset = size
        n = max(blocks * dataio._block_rows(d) + offset, 2 + diff)
        rng = np.random.default_rng(seed)
        offsets = rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(0, 6, d)
        values = offsets + 10.0 ** rng.uniform(-3, 3, d) * rng.standard_normal((n, d))
        ds = Dataset(values=values, names=tuple(f"c{j}" for j in range(d)))
        base = np.diff(values, axis=0) if diff else values
        rows = dataio._difference_in_place(values.copy(), ds.names) if diff else values.copy()
        assert np.array_equal(bits(rows), bits(base))
        z = dataio._standardize_in_place(rows, ds.names)
        assert np.array_equal(bits(z), bits(copying_standardize(base)))
        expected = bits(copying_correlation(base))
        assert np.array_equal(bits(correlation_from_dataset(ds, diff=diff).corr), expected)
        spent = Dataset(values=values, names=ds.names)
        corr = correlation_from_dataset(spent, diff=diff, overwrite=True).corr
        assert np.array_equal(bits(corr), expected)

    def test_public_functions_leave_values_unchanged_and_read_only(self):
        rng = np.random.default_rng(4)
        ds = Dataset(values=rng.standard_normal((30, 3)) + 50.0, names=("a", "b", "c"))
        before = ds.values.copy()
        correlation_from_dataset(ds)
        correlation_from_dataset(ds, diff=True)
        empirical_fit(ds)
        empirical_fit(ds, diff=True)
        assert np.array_equal(bits(ds.values), bits(before))
        assert not ds.values.flags.writeable
        with pytest.raises(ValueError):
            ds.values[0, 0] = 1.0

    def test_constructor_copies_the_callers_array(self):
        user = np.arange(6.0).reshape(3, 2)
        ds = Dataset(values=user, names=("a", "b"))
        user[0, 0] = 99.0
        assert ds.values[0, 0] == 0.0
        assert user.flags.writeable

    @pytest.mark.parametrize(
        "column, scale",
        [
            ([1e308, -1e308, 3.0], 2.0**-1000),  # the squares overflow
            ([1.0, 2.0, 4.0], 2.0**-600),  # the squares underflow to zero
        ],
        ids=["overflow", "underflow"],
    )
    def test_column_out_of_the_squares_range(self, column, scale):
        plain = Dataset(values=np.c_[column, [1.0, 2.0, 5.0]], names=("a", "b"))
        scaled = Dataset(values=np.c_[np.array(column) * scale, [1.0, 2.0, 5.0]], names=("a", "b"))
        assert np.max(np.abs(standardized(plain.values) - standardized(scaled.values))) <= 1e-15
        corr = correlation_from_dataset(plain).corr
        assert np.max(np.abs(corr - correlation_from_dataset(scaled).corr)) <= 1e-15

    @pytest.mark.parametrize("value", [1.5 * 2.0**1023, 0.0, 2.0**-600], ids=["huge", "zero", "tiny"])
    def test_constant_column_out_of_the_squares_range_has_zero_variance(self, value):
        # the sum overflows, or the squares are zero; rescaled the column is still constant
        ds = Dataset(values=[[value, 1.0], [value, 2.0], [value, 4.0]], names=("flat", "b"))
        with pytest.raises(DataError, match="column 'flat' has zero variance"):
            correlation_from_dataset(ds)


class TestFitDocuments:
    def test_round_trip_structural_equality(self, tmp_path):
        fit = example_fit(names=("a", "b", "c", "d", "e"))
        path = tmp_path / "fit.json"
        save_fit(fit, path)
        assert load_fit(path) == fit

    def test_round_trip_without_names(self, tmp_path):
        fit = example_fit(seed=5)
        path = tmp_path / "fit.json"
        save_fit(fit, path)
        assert load_fit(path) == fit

    def test_round_trip_of_degenerate_collinear_fit(self, tmp_path):
        # two collinear columns fit with coefficient 1 and error variance 0;
        # the document must still round-trip even though no generative
        # model can be rebuilt from it
        from treecascade import empirical_fit

        ds = Dataset(values=np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]]), names=("a", "b"))
        fit = empirical_fit(ds)
        assert abs(fit.coeffs[1]) == 1.0
        path = tmp_path / "degenerate.json"
        save_fit(fit, path)
        assert load_fit(path) == fit
        with pytest.raises(SchemaError, match="rejected"):
            model_from_document(fit_to_document(fit))

    def test_failed_save_leaves_the_old_document(self, tmp_path):
        import dataclasses

        fit = example_fit()
        path = tmp_path / "fit.json"
        save_fit(fit, path)
        old = path.read_bytes()
        with pytest.raises(InvalidInputError):
            save_fit(dataclasses.replace(fit, objective=float("nan")), path)
        assert path.read_bytes() == old

    def test_seventeen_digit_decimals(self):
        fit = example_fit()
        import dataclasses

        patched = dataclasses.replace(
            fit, coeffs={**fit.coeffs, min(fit.coeffs): 0.1}
        )
        text = dumps_document(fit_to_document(patched))
        assert "0.10000000000000001" in text

    def test_coefficient_bit_exact_round_trip(self, tmp_path):
        fit = example_fit()
        path = tmp_path / "fit.json"
        save_fit(fit, path)
        back = load_fit(path)
        for vertex, coeff in fit.coeffs.items():
            assert back.coeffs[vertex] == coeff  # bitwise

    def test_missing_edges_field_named(self):
        doc = fit_to_document(example_fit())
        del doc["edges"]
        with pytest.raises(SchemaError, match="edges"):
            document_to_fit(doc)

    def test_bad_entries_name_field_paths(self):
        base = fit_to_document(example_fit())

        doc = {**base, "format_version": 2}
        with pytest.raises(SchemaError, match="format_version"):
            document_to_fit(doc)

        doc = {**base, "root": 99}
        with pytest.raises(SchemaError, match="root"):
            document_to_fit(doc)

        doc = {**base, "edges": [dict(e) for e in base["edges"]]}
        doc["edges"][1]["coeff"] = "high"
        with pytest.raises(SchemaError, match=r"edges\[1\]\.coeff"):
            document_to_fit(doc)

        doc = {**base, "error_vars": base["error_vars"][:-1]}
        with pytest.raises(SchemaError, match="error_vars"):
            document_to_fit(doc)

        doc = {**base, "weights": base["weights"] + [0.5]}
        with pytest.raises(SchemaError, match="weights"):
            document_to_fit(doc)

        doc = {**base, "root_hint_source": "guess"}
        with pytest.raises(SchemaError, match="root_hint_source"):
            document_to_fit(doc)

        doc = {**base, "names": ["only", "two"]}
        with pytest.raises(SchemaError, match="names"):
            document_to_fit(doc)

        doc = {**base, "names": ["b", "a", "c", "b", "a"]}
        with pytest.raises(SchemaError, match="^names: duplicate column names: a, b$"):
            document_to_fit(doc)

    def test_edges_must_form_a_tree(self):
        base = fit_to_document(example_fit())
        doc = {**base, "edges": [dict(e) for e in base["edges"]]}
        doc["edges"][0] = dict(doc["edges"][1])
        with pytest.raises(SchemaError, match="edges"):
            document_to_fit(doc)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("objective", float("inf"), "objective: value is not finite: inf"),
            ("coeff", float("nan"), r"edges\[0\]\.coeff: value is not finite: nan"),
            ("weights", float("nan"), r"weights\[1\]: value is not finite: nan"),
            ("error_vars", float("inf"), r"error_vars\[0\]: value is not finite: inf"),
            ("objective", 10**400, "objective: value is not finite: inf"),
        ],
        ids=["objective-inf", "coeff-nan", "weight-nan", "error-var-inf", "objective-huge-int"],
    )
    def test_non_finite_numbers_named(self, field, value, message):
        doc = fit_to_document(example_fit())
        if field == "coeff":
            doc["edges"][0]["coeff"] = value
        elif field == "weights":
            doc["weights"][1] = value
        elif field == "error_vars":
            doc["error_vars"][0] = value
        else:
            doc[field] = value
        with pytest.raises(SchemaError, match=message):
            document_to_fit(doc)

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, '{"d": ' + "1" * 5000 + "}"], ids=["nesting", "digits"]
    )
    def test_unreadable_json_is_a_schema_error(self, text, tmp_path):
        # nesting past the recursion limit; an integer past the digit limit
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_fit(path)

    def test_orientation_must_match_root(self):
        base = fit_to_document(example_fit())
        doc = {**base, "edges": [dict(e) for e in base["edges"]]}
        entry = doc["edges"][0]
        entry["child"], entry["parent"] = entry["parent"], entry["child"]
        with pytest.raises(SchemaError):
            document_to_fit(doc)


class TestModelFromDocument:
    def test_unit_variance_reconstruction(self):
        model = random_unit_variance_model(6, np.random.default_rng(9))
        fit = fit_cascade(correlation_from_covariance(population_covariance(model)))
        rebuilt = model_from_document(fit_to_document(fit))
        assert rebuilt.unit_variance
        assert rebuilt.rt.tree.edges == model.rt.tree.edges
        assert np.max(
            np.abs(population_covariance(rebuilt) - population_covariance(model))
        ) < 1e-9

    def test_zero_coefficient_rejected_by_constructor(self):
        doc = fit_to_document(example_fit(d=2, seed=13))
        doc["edges"][0]["coeff"] = 0.0
        doc["error_vars"] = [1.0, 1.0]
        doc["weights"] = [0.0]
        with pytest.raises(SchemaError, match="rejected"):
            model_from_document(doc)

    def test_inconsistent_error_vars_rejected(self):
        doc = fit_to_document(example_fit(d=3, seed=17))
        doc["error_vars"][1] = 0.123
        with pytest.raises(SchemaError, match="error_vars"):
            model_from_document(doc)


DOCUMENT_MUTATIONS = (
    "swap orientation", "duplicate child", "self-loop", "child out of range", "cycle",
    "reattach", "nan", "infinity", "huge integer", "missing field", "not a mapping",
    "edge coefficient", "error variance", "retype", "non-unit variance", "two faults in a list",
    "duplicate names",
)
# values that fail a number field, or a nonnegative one
BAD_NUMBERS = (-0.5, math.nan, math.inf, 10**400, "0.5", None)


@st.composite
def mutated_documents(draw) -> dict:
    """A fit document of a random unit-variance model, with up to three faults put in.

    The faults are those of ``DOCUMENT_MUTATIONS``: a swapped orientation,
    a duplicate or out-of-range child, a self-loop, a cycle of two or three
    edges that leaves the rest disconnected, a random new parent,
    NaN, infinities and integers too large for a float in any number
    field, a missing field, an entry that is not a mapping, coefficients of
    0 or +-1, an inconsistent error variance, a field of the wrong type,
    the flag of a model that is not unit variance, two faults in one
    list, so that the first of them must be the one reported, and column
    names that repeat a name.
    """
    d = draw(st.integers(1, 7))
    model = random_unit_variance_model(d, np.random.default_rng(draw(st.integers(0, 2**16))))
    summary = correlation_from_covariance(population_covariance(model))
    doc = fit_to_document(fit_cascade(summary, root_hint=draw(st.sampled_from([None, model.root]))))
    entries = doc["edges"]
    for mutation in draw(st.lists(st.sampled_from(DOCUMENT_MUTATIONS), max_size=3)):
        k = draw(st.integers(0, len(entries) - 1)) if entries else None
        entry = entries[k] if k is not None and isinstance(entries[k], dict) else None
        if mutation == "swap orientation" and entry is not None:
            entry["child"], entry["parent"] = entry.get("parent"), entry.get("child")
        elif mutation == "duplicate child" and entry is not None:
            other = entries[draw(st.integers(0, len(entries) - 1))]
            if isinstance(other, dict):
                entry["child"] = other.get("child")
        elif mutation == "self-loop" and entry is not None:
            entry["parent"] = entry.get("child")
        elif mutation == "child out of range" and entry is not None:
            entry[draw(st.sampled_from(["child", "parent"]))] = d + draw(st.integers(0, 2))
        elif mutation == "cycle" and len(entries) >= 2:
            ring = draw(st.lists(st.integers(0, len(entries) - 1), min_size=2, max_size=3, unique=True))
            ring = [entries[i] for i in ring if isinstance(entries[i], dict)]
            children = [e.get("child") for e in ring]
            for e, child in zip(ring, children[1:] + children[:1]):
                e["parent"] = child
        elif mutation == "reattach" and entry is not None:
            entry["parent"] = draw(st.integers(0, d - 1))
        elif mutation in ("nan", "infinity", "huge integer"):
            value = {"nan": math.nan, "infinity": draw(st.sampled_from([math.inf, -math.inf])),
                     "huge integer": draw(st.sampled_from([10**400, -(10**400)]))}[mutation]
            target = draw(st.sampled_from(["coeff", "error_vars", "weights", "objective"]))
            if target == "coeff" and entry is not None:
                entry["coeff"] = value
            elif target == "objective":
                doc["objective"] = value
            elif isinstance(doc.get(target), list) and doc[target]:
                doc[target][draw(st.integers(0, len(doc[target]) - 1))] = value
        elif mutation == "missing field":
            keys = list(doc) + ([f"edges.{key}" for key in entry] if entry is not None else [])
            key = draw(st.sampled_from(keys))
            if key.startswith("edges."):
                del entry[key[len("edges."):]]
            else:
                del doc[key]
        elif mutation == "not a mapping" and entries:
            entries[k] = draw(st.sampled_from([None, "edge", [1, 0, 0.5], 3]))
        elif mutation == "edge coefficient" and entry is not None:
            entry["coeff"] = draw(st.sampled_from([0.0, 0, 1.0, -1.0, 1, True]))
        elif mutation == "error variance" and isinstance(doc.get("error_vars"), list) and doc["error_vars"]:
            i = draw(st.integers(0, len(doc["error_vars"]) - 1))
            doc["error_vars"][i] = draw(st.sampled_from([0.123, 0.0, -0.5, 1, "1"]))
        elif mutation == "retype":
            key = draw(st.sampled_from(list(doc)))
            doc[key] = draw(st.sampled_from([None, True, "3", 2.5, [], {}, -1, 0]))
        elif mutation == "non-unit variance" and "unit_variance" in doc:
            doc["unit_variance"] = False
        elif mutation == "two faults in a list":
            # the first in the list must be the one reported
            field = draw(st.sampled_from(["error_vars", "weights", "edges"]))
            values = doc.get(field)
            if isinstance(values, list) and len(values) >= 2:
                for i in draw(st.lists(st.integers(0, len(values) - 1), min_size=2, max_size=2, unique=True)):
                    bad = draw(st.sampled_from(BAD_NUMBERS))
                    if field != "edges":
                        values[i] = bad
                    elif isinstance(values[i], dict):
                        values[i][draw(st.sampled_from(["child", "parent", "coeff"]))] = bad
        elif mutation == "duplicate names" and d >= 2:
            names = [f"c{i}" for i in range(d)]
            i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
            names[j] = names[i]
            doc["names"] = names
    return doc


def load_outcome(load, doc):
    """What a loader makes of a document: its result, fields in order, or its error."""
    try:
        result = load(copy.deepcopy(doc))
    except Exception as exc:  # the oracle compares failures too
        return type(exc), str(exc)
    maps = [value for value in vars(result).values() if isinstance(value, dict)]
    return result, [list(m.items()) for m in maps]


def two_fault_documents() -> list[dict]:
    """Documents with two faults each, where the first in load order must be reported."""
    base = fit_to_document(example_fit(d=5))
    docs = []
    doc = copy.deepcopy(base)
    doc["error_vars"][1], doc["error_vars"][3] = -0.5, math.nan
    docs.append(doc)
    doc = copy.deepcopy(base)
    doc["edges"][0]["parent"] = doc["edges"][0]["child"]
    doc["edges"][2] = "edge"
    docs.append(doc)
    # a two-edge cycle, which repeats an edge, and a self-loop after it
    doc = copy.deepcopy(base)
    first, second, third = doc["edges"][:3]
    first["parent"], second["parent"] = second["child"], first["child"]
    third["parent"] = third["child"]
    docs.append(doc)
    return docs


TWO_FAULT_DOCUMENTS = two_fault_documents()


class TestDocumentLoaderOracle:
    """The one-walk loaders return what the checking loaders return, or raise as they raise."""

    @given(doc=mutated_documents())
    @settings(max_examples=400, deadline=None)
    @example(doc=TWO_FAULT_DOCUMENTS[0])
    @example(doc=TWO_FAULT_DOCUMENTS[1])
    @example(doc=TWO_FAULT_DOCUMENTS[2])
    def test_document_to_fit(self, doc):
        assert load_outcome(document_to_fit, doc) == load_outcome(checking_document_to_fit, doc)

    @given(doc=mutated_documents())
    @settings(max_examples=400, deadline=None)
    @example(doc=TWO_FAULT_DOCUMENTS[0])
    def test_model_from_document(self, doc):
        assert load_outcome(model_from_document, doc) == load_outcome(checking_model_from_document, doc)
