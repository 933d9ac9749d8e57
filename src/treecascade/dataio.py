"""Dataset ingestion, standardization, and fit-document serialization.

CSV files are RFC-4180-style UTF-8 with a mandatory header row and '.'
decimal separators.  Fit documents are JSON with a top-level
``format_version`` and every decimal field written with 17 significant
digits, so doubles round-trip bit-exactly.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import os
import stat
import warnings
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidInputError, SchemaError
from .trees import RootedTree, Tree, _breadth_first, _unchecked, canonical_edge

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


def _column_names(names, d: int) -> tuple[str, ...]:
    """``names`` as a tuple, or the default names ``x0`` to ``x{d-1}`` when it is None."""
    return tuple(names) if names is not None else tuple(f"x{i}" for i in range(d))


def _check_unique(names: tuple[str, ...]) -> None:
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise DataError(f"duplicate column names: {', '.join(dupes)}")


def _check_finite(values: np.ndarray, names, first_row: int = 0) -> None:
    """Name the first non-finite entry of ``values``, whose row 1 is data row ``first_row + 1``.

    Rows are checked one ``_block_rows`` block at a time, in order, so the
    only mask is a block's.
    """
    step = _block_rows(values.shape[1])
    for start in range(0, values.shape[0], step):
        finite = np.isfinite(values[start : start + step])
        if not finite.all():
            r, c = np.argwhere(~finite)[0]
            raise DataError(f"non-finite value at row {first_row + start + r + 1}, column {names[c]!r}")


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
            with suppress(DataError):  # a non-finite value: the validating parser names its cell
                return _adopt(values, names)
    return _parse_csv(path)


# Bytes numpy's float reader strips as whitespace but float() rejects.
_NOT_SPACE_FOR_FLOAT = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_BLOCK_BYTES = 1 << 20


def _read_plain(path, d: int):
    """The values of a plain CSV through ``np.loadtxt``, or None.

    None leaves the file to the validating parser: it has no data lines,
    a bare CR or a byte of ``_NOT_SPACE_FOR_FLOAT``, too few bytes for a
    full row on every data line, or the C reader failed or skipped a blank
    line (it read fewer rows than the file has data lines).  The values may
    hold a non-finite one, which the dataset's own check finds.
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
    return values if values.shape == (lines, d) else None


def _data_line_count(path) -> int | None:
    """Newlines before the file's trailing whitespace, or None.

    Under a one-line header this is the number of data lines, blank ones
    included.  None marks a file that the C reader splits or strips unlike
    the validating parser: one with a bare CR line break or a byte of
    ``_NOT_SPACE_FOR_FLOAT``.
    """
    lines = seen = 0
    with open(path, "rb") as handle:
        while block := handle.read(_BLOCK_BYTES):
            if block.endswith(b"\r"):
                block += handle.read(1)
            if any(byte in block for byte in _NOT_SPACE_FOR_FLOAT):
                return None
            codes = np.frombuffer(block, np.uint8)
            newline = codes == ord("\n")
            if b"\r" in block:
                cr = codes == ord("\r")
                if np.count_nonzero(cr) != np.count_nonzero(cr[:-1] & newline[1:]):
                    return None  # a CR that is not the start of a CRLF
            seen += np.count_nonzero(newline)
            body = len(block.rstrip())
            if body:
                lines = seen - np.count_nonzero(newline[body:])
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

    A leading byte-order mark is skipped.  A byte that is not UTF-8 raises
    ``error`` naming the path and the byte's offset in the file.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
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


# Values per write: of 1920 to 30720, 5760 to 10240 wrote simulate's
# 100 000 x 30 fastest, within 2% of each other; 7680 is 256 rows at d=30.
# Smaller chunks pay numpy's per-call cost more often; larger ones spill
# the work arrays out of cache and raise the peak (the op's own growth is
# 10.0 MiB at 7680, 16.5 at 30720).
_VALUES_PER_CHUNK = 7680


def save_csv(ds: Dataset, path) -> None:
    """Write header plus rows; floats use shortest round-trip decimals."""
    _write_csv(path, ds.names, [ds.values])


def _write_csv(path, names, blocks: Iterable[np.ndarray]) -> None:
    """Write the header ``names``, then the rows of each (rows, len(names)) block.

    The bytes are those of ``csv.writer``, whose floats are their shortest
    round-trip ``repr``; ``csv_rows`` lays out each chunk of rows at once.
    The names are checked before the file is opened and each block before
    it is written, with ``Dataset``'s messages; rows are numbered from the
    first block on.  When anything fails after the file is opened, a
    regular file at ``path`` is removed, so no partial output is left; a
    device such as /dev/stdout is never unlinked.
    """
    # imported on the first write, not with the package: compiling its
    # source at import raised every command's peak memory by about 0.5 MiB
    from ._float_text import csv_rows

    names = tuple(names)
    _check_unique(names)
    rows = max(1, _VALUES_PER_CHUNK // max(1, len(names)))
    with open(path, "wb") as handle:
        try:
            header = io.StringIO(newline="")
            csv.writer(header).writerow(names)
            handle.write(header.getvalue().encode("utf-8"))
            written = 0
            for block in blocks:
                _check_finite(block, names, written)
                for start in range(0, len(block), rows):
                    handle.write(csv_rows(block[start : start + rows]))
                written += len(block)
        except BaseException:
            handle.close()
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.unlink(path)
            raise


def _difference_in_place(v: np.ndarray, names) -> np.ndarray:
    """First differences of the rows of ``v``, written over its leading rows.

    Returns that n - 1 row view; row i is ``v[i + 1] - v[i]``, as
    ``np.diff`` computes it.  Blocks go forward, so each reads rows that
    are not yet overwritten.  A difference that overflows is named by its
    data rows and its column in ``names``.
    """
    rows = _differenced_rows(v.shape[0])
    step = _block_rows(v.shape[1])
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        with np.errstate(over="ignore"):
            block = np.subtract(v[start + 1 : stop + 1], v[start:stop], out=v[start:stop])
        if not np.isfinite(block).all():
            r, c = np.argwhere(~np.isfinite(block))[0]
            r += start + 1  # data rows count from 1, as in _check_finite
            raise DataError(f"non-finite first difference of rows {r} and {r + 1}, column {names[c]!r}")
    return v[:rows]


def _block_rows(d: int) -> int:
    """Rows of ``d`` float64 columns in one ``_BLOCK_BYTES`` block of the in-place passes."""
    return max(1, _BLOCK_BYTES // (8 * d))


def _block_lengths(n: int, d: int) -> Iterator[int]:
    """Row counts of ``n`` rows in full ``_block_rows(d)``-row blocks, then any remainder, lazily."""
    step = _block_rows(d)
    for start in range(0, n, step):
        yield min(step, n - start)


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
    error_vars = [0.0] * fit.tree.d
    error_vars[fit.root] = 1.0
    edges = []
    weights = []
    for child in sorted(fit.coeffs):
        coeff = fit.coeffs[child]
        parent = fit.rt.parent[child]
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

    The result keeps the tree rooted as the document orients it.  Each
    field is checked once: one walk down from the root checks that the
    edges form a tree and gives the rooting, which ``Tree`` and
    ``RootedTree`` then take unchecked.  Raises a schema error naming the
    offending field path.
    """
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
    parents = [-1] * d
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
    try:
        edges = [canonical_edge(child, parents[child]) for child in coeffs]
    except InvalidInputError as exc:
        raise SchemaError(f"edges: {exc}") from None
    tree = _unchecked(Tree, d=d, edges=frozenset(edges))
    if len(tree.edges) != d - 1:
        raise SchemaError(f"edges: a tree on {d} vertices needs {d - 1} edges, got {len(tree.edges)}")
    # d - 1 distinct edges that one walk from the root reaches form a tree, each
    # leading from its child toward the root, so the walk's parents are ``parents``
    order, _, depth = _breadth_first(tree, root)
    if len(order) != d:
        raise SchemaError("edges: edge set is not connected")
    rt = _unchecked(RootedTree, tree=tree, root=root, parent=tuple(parents), depth=tuple(depth))
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
        weights[edges[k]] = _finite_number(w, f"weights[{k}]")
    source = _require(doc, "root_hint_source", str)
    if source not in _SOURCES:
        raise SchemaError(f"root_hint_source: expected one of {_SOURCES}, got {source!r}")
    names_field = doc.get("names")
    if names_field is not None:
        if not isinstance(names_field, list) or not all(isinstance(s, str) for s in names_field):
            raise SchemaError("names: expected a list of strings or null")
        if len(names_field) != d:
            raise SchemaError(f"names: expected {d} entries, got {len(names_field)}")
        try:
            _check_unique(tuple(names_field))
        except DataError as exc:
            raise SchemaError(f"names: {exc}") from None
    return FitResult(
        rt=rt,
        coeffs=coeffs,
        objective=_require_number(doc, "objective"),
        weights=weights,
        tree_unique=_require(doc, "tree_unique", bool),
        root_hint_source=source,
        names=tuple(names_field) if names_field is not None else None,
    )


def model_from_document(doc: Mapping):
    """Rebuild the generative model a fit document describes.

    Unit-variance documents go through the unit-variance checks (so zero
    or out-of-range coefficients are rejected) and the stored error
    variances must agree with the reconstruction; others are taken as written.
    """
    from .cascade import CascadeModel, make_unit_variance_model

    fit = document_to_fit(doc)
    error_vars = {i: float(v) for i, v in enumerate(doc["error_vars"])}
    if doc["unit_variance"]:
        try:
            model = make_unit_variance_model(fit.rt, fit.coeffs)
        except InvalidInputError as exc:
            raise SchemaError(f"edges: unit-variance model rejected: {exc}") from None
        for i in range(fit.tree.d):
            if abs(model.error_vars[i] - error_vars[i]) > 1e-12:
                raise SchemaError(
                    f"error_vars[{i}]: {error_vars[i]!r} inconsistent with "
                    "unit-variance coefficients"
                )
        return model
    return CascadeModel(fit.rt, fit.coeffs, error_vars)


def save_fit(fit, path) -> None:
    text = dumps_document(fit_to_document(fit)) + "\n"  # raises before the file is truncated
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


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
    if type(value) is float and math.isfinite(value):
        return value
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
