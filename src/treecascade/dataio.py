"""Dataset ingestion, standardization, and fit-document serialization.

CSV files are RFC-4180-style UTF-8 with a mandatory header row and '.'
decimal separators.  Fit documents are JSON with a top-level
``format_version`` and every decimal field written with 17 significant
digits, so doubles round-trip bit-exactly.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import os
import stat
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError, InvalidInputError, SchemaError
from .trees import Tree, _unchecked, canonical_edge, root_tree

FORMAT_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    """An n-by-d observation matrix with unique column names.

    Values are validated finite and frozen.  The constructor copies them
    into a C-ordered float64 array, so later changes to the caller's array
    do not reach the dataset.
    """

    values: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        self._freeze(np.array(self.values, dtype=float, order="C"))

    def _freeze(self, values: np.ndarray) -> None:
        if values.ndim != 2:
            raise InvalidInputError(f"values must be a 2-D matrix, got ndim={values.ndim}")
        if not values.shape[1]:
            raise InvalidInputError("values must have at least one column, got 0")
        if len(self.names) != values.shape[1]:
            raise InvalidInputError(
                f"{len(self.names)} column names for {values.shape[1]} columns"
            )
        _check_unique(self.names)
        _check_finite(values, self.names)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


def _check_unique(names: tuple[str, ...]) -> None:
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DataError(f"duplicate column names: {', '.join(dupes)}")


def _check_finite(values: np.ndarray, names, first_row: int = 0) -> None:
    """Name the first non-finite entry of ``values``, whose row 1 is data row ``first_row + 1``."""
    finite = np.isfinite(values)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise DataError(f"non-finite value at row {first_row + r + 1}, column {names[c]!r}")


def _adopt(values: np.ndarray, names) -> Dataset:
    """A dataset over ``values`` itself, validated like any other.

    For fresh C-ordered float64 arrays that the caller gives up: the
    package's readers and transforms hand theirs over this way, and skip
    the constructor's copy.
    """
    ds = _unchecked(Dataset, names=tuple(names))
    ds._freeze(values)
    return ds


def _buffer(ds: Dataset, overwrite: bool) -> np.ndarray:
    """A writable array of ``ds``'s values: a copy, or with ``overwrite`` the values themselves."""
    if not overwrite:
        return ds.values.copy()
    # every dataset's values own their memory or view a writable array
    ds.values.setflags(write=True)
    return ds.values


def read_csv_header(path) -> tuple[str, ...]:
    """Column names from the first row only; no data rows are touched."""
    with _utf8_text(path, DataError) as handle:
        try:
            header = next(csv.reader(handle))
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        except csv.Error as exc:
            raise DataError(f"{path}: {exc}") from None
    return tuple(name.strip() for name in header)


def load_csv(path) -> Dataset:
    """Parse a CSV of decimal reals under a header of column names.

    Trailing blank lines are ignored; interior blank lines, ragged rows,
    and unparseable cells are errors naming the 1-based data row and the
    column.  Plain files (one-line header, LF or CRLF line ends, unquoted
    decimals) are read by numpy's C reader; any other file, and any file
    it reads differently from ``float()``, goes through the validating
    parser, whose result is the same bits.
    """
    names = read_csv_header(path)
    # the C reader skips one line: a quoted name with a line break in it
    # makes the header longer
    one_line = not any("\n" in name or "\r" in name for name in names)
    if one_line and len(set(names)) == len(names):
        values = _read_plain(path, len(names))
        if values is not None:
            return _adopt(values, names)
    return _parse_csv(path)


# Bytes numpy's float reader strips as whitespace but float() rejects.
_NOT_SPACE_FOR_FLOAT = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_BLOCK_BYTES = 1 << 20


def _read_plain(path, d: int):
    """The values of a plain CSV through ``np.loadtxt``, or None.

    None leaves the file to the validating parser: it has no data lines,
    a bare CR or a byte of ``_NOT_SPACE_FOR_FLOAT``, too few bytes for a
    full row on every data line, or the C reader failed, skipped a blank
    line (it read fewer rows than the file has data lines), or read a
    non-finite value.
    """
    lines = _data_line_count(path)
    if not lines:
        # no data lines: loadtxt would warn on stderr that it read nothing
        return None
    if 2 * d * lines > os.path.getsize(path) + 1:
        # a row of d values takes at least 2d bytes, so some line is short;
        # and loadtxt would reserve the whole array for a file of blank lines
        return None
    try:
        # max_rows has loadtxt allocate the array once instead of growing it,
        # which copies it when the allocator gives it heap memory; it warns of
        # each blank line it skips, and such files go to the validating parser
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            # comments=None: the default "#" would read the cell "2 #x" as 2
            values = np.loadtxt(
                path, delimiter=",", skiprows=1, comments=None, ndmin=2,
                encoding="utf-8", max_rows=lines,
            )
    except ValueError:
        return None
    if values.shape != (lines, d) or not np.isfinite(values).all():
        return None
    return values


def _data_line_count(path) -> int | None:
    """Newlines before the file's trailing whitespace, or None.

    Under a one-line header this is the number of data lines, blank ones
    included.  None marks a file that the C reader splits or strips unlike
    the validating parser: one with a bare CR line break or a byte of
    ``_NOT_SPACE_FOR_FLOAT``.
    """
    lines = trailing = 0
    with open(path, "rb") as handle:
        while block := handle.read(_BLOCK_BYTES):
            if block.endswith(b"\r"):
                block += handle.read(1)
            if b"\r" in block and block.count(b"\r") != block.count(b"\r\n"):
                return None
            if any(byte in block for byte in _NOT_SPACE_FOR_FLOAT):
                return None
            body = block.rstrip()
            if body:
                lines += trailing + body.count(b"\n")
                trailing = block.count(b"\n", len(body))
            else:
                trailing += block.count(b"\n")
    return lines


def _parse_csv(path) -> Dataset:
    """The validating parser: ``csv`` rows, then ``float()`` cell by cell."""
    with _utf8_text(path, DataError) as handle:
        try:
            rows = list(csv.reader(handle))
        except csv.Error as exc:
            raise DataError(f"{path}: {exc}") from None
    while rows and all(cell.strip() == "" for cell in rows[-1]):
        rows.pop()
    if not rows:
        raise DataError(f"{path}: file is empty, expected a header row")
    names = tuple(name.strip() for name in rows[0])
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DataError(f"{path}: duplicate header names: {', '.join(dupes)}")
    d = len(names)
    parsed = np.empty((len(rows) - 1, d))
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != d:
            raise DataError(f"{path}: row {r}: expected {d} values, got {len(row)}")
        for c, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: row {r}, column {names[c]!r}: "
                    f"could not parse {cell!r} as a number"
                ) from None
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: row {r}, column {names[c]!r}: non-finite value {cell!r}"
                )
            parsed[r - 1, c] = value
    return _adopt(parsed, names)


@contextmanager
def _utf8_text(path, error):
    """Open ``path`` as UTF-8 text for the body of a ``with`` block.

    A byte that is not UTF-8 raises ``error`` naming the path and the
    byte's offset in the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError:
        raise error(f"{path}: not valid UTF-8 at byte {_utf8_error_offset(path)}") from None


def _utf8_error_offset(path) -> int:
    """Offset of the first byte of ``path`` that does not decode as UTF-8."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0
    with open(path, "rb") as handle:
        while True:
            pending = len(decoder.getstate()[0])
            block = handle.read(_BLOCK_BYTES)
            try:
                decoder.decode(block, final=not block)
            except UnicodeDecodeError as exc:
                return offset - pending + exc.start
            if not block:
                return offset
            offset += len(block)


# Values per write: a chunk's Python floats and text stay about 1 MiB at
# any width (256 rows at d=30, where 4096-row chunks cost 15 MiB of peak
# memory).
_VALUES_PER_CHUNK = 7680


def save_csv(ds: Dataset, path) -> None:
    """Write header plus rows; floats use shortest round-trip decimals."""
    _write_csv(path, ds.names, [ds.values])


def _write_csv(path, names, blocks: Iterable[np.ndarray]) -> None:
    """Write the header ``names``, then the rows of each (rows, len(names)) block.

    The names are checked before the file is opened and each block before
    it is written, with ``Dataset``'s messages; rows are numbered from the
    first block on.  When anything fails after the file is opened, a
    regular file at ``path`` is removed, so no partial output is left; a
    device such as /dev/stdout is never unlinked.
    """
    names = tuple(names)
    _check_unique(names)
    rows = max(1, _VALUES_PER_CHUNK // max(1, len(names)))
    # float repr is the shortest round-trip form, which csv.writer writes
    row = ",".join(["%r"] * len(names)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        try:
            csv.writer(handle).writerow(names)
            written = 0
            for block in blocks:
                _check_finite(block, names, written)
                for start in range(0, len(block), rows):
                    chunk = block[start : start + rows]
                    handle.write(row * len(chunk) % tuple(chunk.ravel().tolist()))
                written += len(block)
        except BaseException:
            handle.close()
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.unlink(path)
            raise


def standardize(ds: Dataset) -> Dataset:
    """Center each column and scale to unit sample standard deviation.

    The divisor is n - 1.  Already-standardized input passes through
    numerically unchanged.  A column with zero spread is an error naming
    the column; the structure of any downstream fit is invariant to the
    n vs n - 1 convention because correlations are scale-free.  The values
    are copied once and standardized in that copy; ``ds`` is unchanged.
    """
    return _adopt(_standardize_in_place(ds.values.copy(), ds.names), ds.names)


def price_changes(ds: Dataset) -> Dataset:
    """First differences of time-ordered rows (one fewer row).

    Downstream fitting treats the differences as exchangeable draws; any
    serial dependence is deliberately ignored.  The values are copied once
    and differenced in that copy; ``ds`` is unchanged.
    """
    return _adopt(_difference_in_place(ds.values.copy()), ds.names)


def _difference_in_place(v: np.ndarray) -> np.ndarray:
    """First differences of the rows of ``v``, written over its leading rows.

    Returns that n - 1 row view; row i is ``v[i + 1] - v[i]``, as
    ``np.diff`` computes it.  Blocks go forward, so each reads rows that
    are not yet overwritten.
    """
    rows = _differenced_rows(v.shape[0])
    step = _block_rows(v.shape[1])
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        np.subtract(v[start + 1 : stop + 1], v[start:stop], out=v[start:stop])
    return v[:rows]


def _block_rows(d: int) -> int:
    """Rows of ``d`` float64 columns in one ``_BLOCK_BYTES`` block of the in-place passes."""
    return max(1, _BLOCK_BYTES // (8 * d))


def _differenced_rows(n: int) -> int:
    """Rows left after differencing ``n`` rows; fewer than 2 is an error."""
    if n < 2:
        raise InvalidInputError(f"need at least 2 rows to difference, got {n}")
    return n - 1


_SMALLEST_NORMAL = 2.0**-1022  # the smallest normal float64


def _standardize_in_place(v: np.ndarray, names) -> np.ndarray:
    """Center and scale the columns of ``v`` in place (n - 1 divisor); returns ``v``.

    ``v`` is a writable C-ordered float64 array.  The bits are those of
    ``(v - mean) / sqrt(((v - mean) ** 2).sum(axis=0) / (n - 1))``.  A
    column whose mean or sum of squares overflows, or whose sum of squares
    falls below the normal range, is first scaled by a power of two that
    brings its largest magnitude into [0.5, 1); that scaling is exact and
    cancels in the result.
    """
    n = v.shape[0]
    if n < 2:
        raise InvalidInputError(f"standardization needs at least 2 rows, got {n}")
    # exact: the mean of a constant column can round, and centering would
    # leave a tiny constant of positive scale
    constant = np.flatnonzero(v.max(axis=0) == v.min(axis=0))
    if constant.size:
        raise DataError(f"column {names[constant[0]]!r} has zero variance; cannot standardize")
    with np.errstate(over="ignore", invalid="ignore"):
        means, sums = _moments(v)
        out_of_range = ~np.isfinite(means) | ~np.isfinite(sums) | (sums < _SMALLEST_NORMAL)
        if out_of_range.any():
            cols = np.flatnonzero(out_of_range)
            exponents = np.frexp(np.abs(v[:, cols]).max(axis=0))[1]
            v[:, cols] = np.ldexp(v[:, cols], -exponents)
            means, sums = _moments(v)
    scales = np.sqrt(sums / (n - 1))
    v -= means
    v /= scales
    return v


def _moments(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means of ``v`` and the column sums of squares about them.

    The squares are formed one block of rows at a time in a work array
    whose first row carries the running sums into the next block.  numpy
    reduces a C-ordered array over axis 0 one row after another, so the
    sums are bit for bit ``((v - means) ** 2).sum(axis=0)``.  It sums a
    single column pairwise instead, so one column is taken in one block.
    """
    n, d = v.shape
    rows = n if d == 1 else min(n, _block_rows(d))
    means = v.mean(axis=0)
    work = np.empty((rows + 1, d))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = work[1 : stop - start + 1]
        np.subtract(v[start:stop], means, out=block)
        block *= block
        work[0] = work[0 if start else 1 : stop - start + 1].sum(axis=0)
    return means, work[0]


def sample_prices_path() -> Path:
    """Location of the bundled 30-column sample of daily price levels."""
    return Path(str(files("treecascade").joinpath("data/dow30_prices.csv")))


# --- fit documents -----------------------------------------------------------

_SOURCES = ("default", "user")


def fit_to_document(fit) -> dict:
    """Plain-dict form of a fit, ready for JSON serialization.

    The model part carries the rooted edges with coefficients, per-vertex
    error variances (1 - coeff**2 off the root), and the unit-variance
    flag; fit metadata adds objective, per-edge weights aligned with the
    edges array, the uniqueness flag, and how the root was chosen.
    """
    rt = root_tree(fit.tree, fit.root)
    error_vars = [0.0] * fit.tree.d
    error_vars[fit.root] = 1.0
    edges = []
    weights = []
    for child in sorted(fit.coeffs):
        coeff = fit.coeffs[child]
        parent = rt.parent[child]
        edges.append({"child": child, "parent": parent, "coeff": float(coeff)})
        weights.append(float(fit.weights[canonical_edge(child, parent)]))
        error_vars[child] = 1.0 - coeff * coeff
    return {
        "format_version": FORMAT_VERSION,
        "d": fit.tree.d,
        "root": fit.root,
        "edges": edges,
        "error_vars": error_vars,
        "unit_variance": True,
        "objective": float(fit.objective),
        "weights": weights,
        "tree_unique": bool(fit.tree_unique),
        "root_hint_source": fit.root_hint_source,
        "names": list(fit.names) if fit.names is not None else None,
    }


def document_to_fit(doc: Mapping):
    """Validate a fit document and rebuild the fit result.

    Raises a schema error naming the offending field path.
    """
    return _document_to_rooted_fit(doc)[0]


def _document_to_rooted_fit(doc: Mapping):
    """``document_to_fit``, with the tree rooted as the document orients it."""
    from .regression import FitResult

    _check_version(doc)
    d = _require_int(doc, "d", minimum=1)
    root = _require_int(doc, "root", minimum=0)
    if root >= d:
        raise SchemaError(f"root: {root} out of range for d={d}")
    edges_field = _require(doc, "edges", list)
    if len(edges_field) != d - 1:
        raise SchemaError(f"edges: expected {d - 1} entries for d={d}, got {len(edges_field)}")
    coeffs: dict[int, float] = {}
    parents: dict[int, int] = {}
    pairs = []
    for k, entry in enumerate(edges_field):
        if not isinstance(entry, Mapping):
            raise SchemaError(f"edges[{k}]: expected an object")
        child = _require_int(entry, "child", minimum=0, prefix=f"edges[{k}].")
        parent = _require_int(entry, "parent", minimum=0, prefix=f"edges[{k}].")
        coeff = _require_number(entry, "coeff", prefix=f"edges[{k}].")
        if child >= d or parent >= d:
            raise SchemaError(f"edges[{k}]: vertex out of range for d={d}")
        if child == root:
            raise SchemaError(f"edges[{k}].child: the root {root} cannot be a child")
        if child in coeffs:
            raise SchemaError(f"edges[{k}].child: vertex {child} appears twice")
        coeffs[child] = coeff
        parents[child] = parent
        pairs.append((child, parent))
    try:
        tree = Tree.from_edges(d, pairs)
    except InvalidInputError as exc:
        raise SchemaError(f"edges: {exc}") from None
    rt = root_tree(tree, root)
    for child, parent in parents.items():
        if rt.parent[child] != parent:
            raise SchemaError(
                f"edges: edge orientation {parent} -> {child} inconsistent with root {root}"
            )
    error_vars = _require(doc, "error_vars", list)
    if len(error_vars) != d:
        raise SchemaError(f"error_vars: expected {d} entries, got {len(error_vars)}")
    # zero is legal here (a perfectly collinear pair fits with |coeff| = 1);
    # rebuilding a generative model from such a document fails separately
    for k, v in enumerate(error_vars):
        if _finite_number(v, f"error_vars[{k}]") < 0:
            raise SchemaError(f"error_vars[{k}]: expected a nonnegative number, got {v!r}")
    _require(doc, "unit_variance", bool)
    weights_field = _require(doc, "weights", list)
    if len(weights_field) != d - 1:
        raise SchemaError(f"weights: expected {d - 1} entries aligned with edges")
    weights = {}
    for k, w in enumerate(weights_field):
        weights[canonical_edge(*pairs[k])] = _finite_number(w, f"weights[{k}]")
    source = _require(doc, "root_hint_source", str)
    if source not in _SOURCES:
        raise SchemaError(f"root_hint_source: expected one of {_SOURCES}, got {source!r}")
    names_field = doc.get("names")
    if names_field is not None:
        if not isinstance(names_field, list) or not all(isinstance(s, str) for s in names_field):
            raise SchemaError("names: expected a list of strings or null")
        if len(names_field) != d:
            raise SchemaError(f"names: expected {d} entries, got {len(names_field)}")
    return FitResult(
        tree=tree,
        root=root,
        coeffs=coeffs,
        objective=_require_number(doc, "objective"),
        weights=weights,
        tree_unique=_require(doc, "tree_unique", bool),
        root_hint_source=source,
        names=tuple(names_field) if names_field is not None else None,
    ), rt


def model_from_document(doc: Mapping):
    """Rebuild the generative model a fit document describes.

    Unit-variance documents go through the checked unit-variance
    constructor (so zero or out-of-range coefficients are rejected) and
    the stored error variances must agree with the reconstruction.
    """
    from .cascade import CascadeModel, make_unit_variance_model

    fit, rt = _document_to_rooted_fit(doc)
    error_vars = {i: float(v) for i, v in enumerate(doc["error_vars"])}
    if doc["unit_variance"]:
        try:
            model = make_unit_variance_model(rt, fit.coeffs)
        except InvalidInputError as exc:
            raise SchemaError(f"edges: unit-variance model rejected: {exc}") from None
        for i in range(fit.tree.d):
            if abs(model.error_vars[i] - error_vars[i]) > 1e-12:
                raise SchemaError(
                    f"error_vars[{i}]: {error_vars[i]!r} inconsistent with "
                    "unit-variance coefficients"
                )
        return model
    return CascadeModel(rt, fit.coeffs, error_vars, unit_variance=False)


def save_fit(fit, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_document(fit_to_document(fit)))
        handle.write("\n")


def load_fit(path):
    return document_to_fit(load_document(path))


def load_document(path) -> dict:
    with _utf8_text(path, SchemaError) as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers beyond Python's digit limit
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    return doc


def dumps_document(value) -> str:
    """Serialize with a fixed layout and 17-significant-digit decimals."""
    return _dumps(value, 0)


def _dumps(value, level: int) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvalidInputError(f"cannot serialize non-finite number {value!r}")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(inner + _dumps(v, level + 1) for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_dumps(v, level + 1)}" for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise InvalidInputError(f"cannot serialize {type(value).__name__} to a document")


def _check_version(doc: Mapping) -> None:
    version = _require_int(doc, "format_version", minimum=1)
    if version != FORMAT_VERSION:
        raise SchemaError(f"format_version: unsupported version {version}")


def _require(doc: Mapping, key: str, kind, prefix: str = ""):
    if key not in doc:
        raise SchemaError(f"missing field: {prefix}{key}")
    value = doc[key]
    if kind is bool:
        if not isinstance(value, bool):
            raise SchemaError(f"{prefix}{key}: expected a boolean, got {value!r}")
    elif not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(f"{prefix}{key}: expected {kind.__name__}, got {value!r}")
    return value


def _require_int(doc: Mapping, key: str, minimum: int, prefix: str = "") -> int:
    value = _require(doc, key, int, prefix)
    if value < minimum:
        raise SchemaError(f"{prefix}{key}: expected an integer >= {minimum}, got {value}")
    return value


def _require_number(doc: Mapping, key: str, prefix: str = "") -> float:
    if key not in doc:
        raise SchemaError(f"missing field: {prefix}{key}")
    return _finite_number(doc[key], f"{prefix}{key}")


def _finite_number(value, field: str) -> float:
    # json reads NaN and Infinity literals, and integers too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{field}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{field}: value is not finite: {number!r}")
    return number
