"""On-disk formats, feature containers, pooling and sampling.

Formats handled here:

* Binary feature matrix, magic ``DELF``: u16 version (1), u8 dtype code
  (0 = f32, 1 = f64), u8 reserved (0), u64 row count, u64 column count,
  every integer little-endian, followed by the row-major payload.
  Sample ids live in an optional UTF-8 sidecar ``<path>.ids`` holding
  one id per line; without the sidecar ids default to the row index.
* CSV feature matrix: ``id,v_1,...,v_d`` with no header row by default.
* Binary feature-map tensor, magic ``DELM``: the DELF header with a
  third u64 axis (rows, channels, spatial cells), used as input to
  global average pooling.
* Label manifest: CSV with header ``id,style,genre``; an empty cell
  marks the id as unlabeled in that column.
* Cluster assignments: CSV with header ``id,cluster,q_0..q_{k-1}``
  where the soft-assignment columns are optional.
* Projection coordinates: CSV with header ``id,x,y`` (t-SNE) or
  ``id,c_1..c_r`` (PCA); readers take the first two coordinates.

Every reader rejects truncated, undecodable or oversized-field input
with FormatError, naming the byte offset of a binary file or the row of
a CSV file, counted from 1 with header and blank rows included.

Everything is float64 in memory; f32 payloads are widened on read and
narrowed again only when explicitly written as f32.  Arrays held by the
container types are marked read-only so they can be shared safely.
"""

from __future__ import annotations

import csv
import io
import math
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, FormatError

_MAGIC_MATRIX = b"DELF"
_MAGIC_MAPS = b"DELM"
_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_NAMES = {"f32": 0, "f64": 1}


def _freeze(values: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(values, dtype=np.float64)
    out.setflags(write=False)
    return out


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values))[0]
        pos = ", ".join(str(int(i)) for i in bad)
        raise DataError(f"{what} contains a non-finite value at ({pos})")


def default_ids(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def _check_ids(ids: Sequence[str], n: int) -> tuple[str, ...]:
    ids = tuple(str(i) for i in ids)
    if len(ids) != n:
        raise DataError(f"expected {n} ids, got {len(ids)}")
    if len(set(ids)) != len(ids):
        seen = set()
        for i in ids:
            if i in seen:
                raise DataError(f"duplicate id {i!r}")
            seen.add(i)
    for i in ids:
        if not i or "\n" in i or "\r" in i:
            raise DataError(f"invalid id {i!r}: ids must be non-empty single-line strings")
    return ids


@dataclass(frozen=True)
class FeatureMatrix:
    """Immutable (n, d) float64 matrix with one opaque id per row."""

    values: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"feature matrix must be 2-d, got shape {values.shape}")
        n, d = values.shape
        if n < 1 or d < 1:
            raise DataError(f"feature matrix must be at least 1x1, got {n}x{d}")
        _check_finite(values, "feature matrix")
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "ids", _check_ids(self.ids, n))

    @classmethod
    def from_array(cls, values: np.ndarray, ids: Sequence[str] | None = None) -> "FeatureMatrix":
        values = np.asarray(values, dtype=np.float64)
        if ids is None:
            ids = default_ids(values.shape[0]) if values.ndim == 2 else ()
        return cls(values=values, ids=tuple(ids))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FeatureMapBlock:
    """Immutable (n, c, s) tensor of per-channel spatial cells."""

    values: np.ndarray
    ids: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise DataError(f"feature map block must be 3-d, got shape {values.shape}")
        n = values.shape[0]
        if n < 1:
            raise DataError("feature map block must hold at least one row")
        _check_finite(values, "feature map block")
        object.__setattr__(self, "values", _freeze(values))
        ids = self.ids if self.ids else default_ids(n)
        object.__setattr__(self, "ids", _check_ids(ids, n))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def c(self) -> int:
        return self.values.shape[1]

    @property
    def s(self) -> int:
        return self.values.shape[2]


def global_average_pool(block: FeatureMapBlock) -> FeatureMatrix:
    """Collapse each channel's spatial cells to their mean.

    The result is the (n, c) matrix fed to the autoencoder; each output
    value is bounded by the min and max of the cells it averages.
    """
    if block.s == 0:
        raise DataError("cannot pool feature maps with zero spatial cells")
    if block.c == 0:
        raise DataError("cannot pool feature maps with zero channels")
    pooled = block.values.mean(axis=2)
    return FeatureMatrix(values=pooled, ids=block.ids)


# ---------------------------------------------------------------------------
# binary containers


def read_bytes(path: str, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}")


class ByteReader:
    """Bounds-checked cursor over a file's bytes: a short read is a FormatError."""

    def __init__(self, data: bytes, path: str):
        self.data = memoryview(data)
        self.path = path
        self.offset = 0

    @property
    def remaining(self) -> int:
        return len(self.data) - self.offset

    def take(self, size: int, what: str) -> memoryview:
        """The next ``size`` bytes, as a view that copies nothing."""
        if size > self.remaining:
            raise FormatError(
                f"{self.path}: truncated {what} at byte offset {self.offset}: "
                f"need {size} bytes, have {self.remaining}"
            )
        self.offset += size
        return self.data[self.offset - size : self.offset]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def _read_container(path: str, magic: bytes, n_dims: int, what: str):
    """(float64 values, ids) from a DELF or DELM file and its id sidecar."""
    reader = ByteReader(read_bytes(path, what), path)
    got = bytes(reader.take(4, "magic"))
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r} at byte offset 0, expected {magic!r}")
    (version,) = reader.unpack("<H", "version")
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte offset 4")
    (dtype_code,) = reader.unpack("<B", "dtype code")
    if dtype_code not in _DTYPE_CODES:
        raise FormatError(f"{path}: unknown dtype code {dtype_code} at byte offset 6")
    (reserved,) = reader.unpack("<B", "reserved byte")
    if reserved != 0:
        raise FormatError(f"{path}: reserved byte must be 0 at byte offset 7")
    dims = []
    for _ in range(n_dims):
        off = reader.offset
        (dim,) = reader.unpack("<Q", "dimension")
        if dim == 0:
            raise FormatError(f"{path}: zero dimension at byte offset {off}")
        dims.append(dim)
    dtype = _DTYPE_CODES[dtype_code]
    size = math.prod(dims) * dtype.itemsize
    if reader.remaining != size:
        raise FormatError(
            f"{path}: payload size mismatch at byte offset {reader.offset}: "
            f"expected {size} bytes, found {reader.remaining}"
        )
    # An f64 payload stays a view of the file's bytes: the read holds one full-size buffer.
    payload = np.frombuffer(reader.take(size, "payload"), dtype)
    values = payload.astype(np.float64, copy=False).reshape(dims)
    return values, _read_id_sidecar(path, dims[0]) or default_ids(dims[0])


def _write_container(path: str, magic: bytes, values: np.ndarray, ids, dtype: str) -> None:
    if dtype not in _DTYPE_NAMES:
        raise ConfigError(f"unknown payload dtype {dtype!r}")
    code = _DTYPE_NAMES[dtype]
    payload = np.ascontiguousarray(values, dtype=_DTYPE_CODES[code])
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(f"<HBB{payload.ndim}Q", _VERSION, code, 0, *payload.shape))
        fh.write(payload.tobytes(order="C"))
    _write_id_sidecar(path, ids)


def _utf8(data: bytes, path: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}: row {row}: invalid UTF-8 at byte offset {exc.start}")


def _read_id_sidecar(path: str, n: int) -> tuple[str, ...] | None:
    sidecar = path + ".ids"
    try:
        with open(sidecar, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise ConfigError(f"cannot read id sidecar {sidecar}: {exc.strerror}")
    lines = _utf8(data, sidecar).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != n:
        raise FormatError(f"{sidecar}: expected {n} id lines, found {len(lines)}")
    return tuple(lines)


def _write_id_sidecar(path: str, ids: tuple[str, ...]) -> None:
    sidecar = path + ".ids"
    if ids == default_ids(len(ids)):
        return
    with open(sidecar, "w", encoding="utf-8", newline="") as fh:
        for i in ids:
            fh.write(i + "\n")


def _csv_rows(path: str, what: str) -> Iterator[tuple[int, list[str]]]:
    """(file row number, cells) for each non-blank row of a CSV file.

    Rows count from 1 with header and blank rows included, so an error
    message names the row an editor shows.  Undecodable bytes and
    malformed or oversized fields are format errors.
    """
    text = _utf8(read_bytes(path, what), path)
    r = 0
    try:
        for r, cells in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            if cells:
                yield r, cells
    except csv.Error as exc:
        raise FormatError(f"{path}: row {r + 1}: {exc}")


def _check_width(path: str, r: int, cells: list[str], width: int) -> None:
    if len(cells) != width:
        raise FormatError(f"{path}: row {r} has {len(cells)} columns, expected {width}")


def _parse_cells(path: str, r: int, cells: Sequence[str], first_column: int, parse=float) -> list:
    """``parse`` of every cell; ``first_column`` is the 1-based file column of cells[0].

    A cell with an underscore, surrounding whitespace or a non-ASCII
    character is refused before ``parse`` sees it: ``float()`` and
    ``int()`` read ``1_0``, `` 0`` and ``١`` as numbers, which no writer
    produces.  Whitespace inside a cell they refuse themselves.
    """
    out = []
    for c, cell in enumerate(cells, start=first_column):
        try:
            if not cell.isascii() or "_" in cell or cell.strip() != cell:
                raise ValueError(cell)
            out.append(parse(cell))
        except ValueError:
            raise FormatError(f"{path}: row {r}, column {c}: cannot parse {cell!r} as a number")
    return out


_CSV_CHUNK_BYTES = 1 << 18  # bytes of whole rows the bulk CSV parser holds at once
_NUMBER_BYTES = b"0123456789.eE+-,"


class _Irregular(Exception):
    """A CSV file outside the bulk parser's grammar: ``read_features`` reads it cell by cell."""


def _bulk_csv(path: str, header: bool) -> tuple[list[str], np.ndarray]:
    """(ids, values) of a CSV feature matrix: an id column, then numbers.

    The file is read in chunks of whole rows, about ``_CSV_CHUNK_BYTES``
    each, into one float64 array sized by a first pass that counts the
    lines.  Each chunk's numeric cells go through one ``np.fromstring``
    call, which rounds every cell as ``float()`` does.  A header line
    must keep the grammar, since csv quoting in it would change the rows
    that follow, but its cells are never read.

    Raises ``_Irregular`` where the file leaves the grammar this parser
    reads exactly: UTF-8; no ``"``, carriage return, NUL or blank line;
    no line longer than the csv module's field size limit; one cell
    count per data row, at least two, and at least one data row; numeric
    cells made only of ``0-9.eE+-`` that parse to one number each,
    without a warning.  ``read_features`` then carries on cell by cell
    and reports any error.
    """
    limit = csv.field_size_limit()
    try:
        fh = open(path, "rb")
    except OSError:
        raise _Irregular from None
    with fh:
        n = _count_lines(fh) - header
        ids, values, filled = [], None, 0
        while lines := fh.readlines(_CSV_CHUNK_BYTES):
            rows = _chunk_rows(b"".join(lines), limit)
            if header:
                del rows[0]
                header = False
            if not rows:
                continue
            if values is None:
                commas = rows[0].count(",")
                if not commas:
                    raise _Irregular
                values = np.empty((n, commas))
            numbers = []
            for row in rows:
                if row.count(",") != commas:
                    raise _Irregular
                ident, cells = row.split(",", 1)
                ids.append(ident)
                numbers.append(cells)
            if filled + len(rows) > n:
                raise _Irregular
            values[filled : filled + len(rows)] = _parse_numbers(numbers, commas)
            filled += len(rows)
    if values is None or filled != n:
        raise _Irregular
    return ids, values


def _count_lines(fh) -> int:
    """Lines in a binary file, counting an unterminated last line; rewinds it."""
    count, last = 0, b"\n"
    while block := fh.read(_CSV_CHUNK_BYTES):
        count += block.count(b"\n")
        last = block[-1:]
    fh.seek(0)
    return count + (last != b"\n")


def _chunk_rows(block: bytes, limit: int) -> list[str]:
    """The lines of a chunk of whole rows, if they keep the bulk grammar."""
    if b'"' in block or b"\r" in block or b"\0" in block:
        raise _Irregular
    try:
        rows = block.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        raise _Irregular from None
    if not rows[-1]:  # the newline ending the chunk
        rows.pop()
    if not all(0 < len(row) <= limit for row in rows):
        raise _Irregular
    return rows


def _parse_numbers(rows: list[str], width: int) -> np.ndarray:
    """``width`` comma-separated numbers from each of ``rows``, as a len(rows) x width array."""
    try:
        text = ",".join(rows).encode("ascii")
    except UnicodeEncodeError:
        raise _Irregular from None
    if text.translate(None, _NUMBER_BYTES):
        raise _Irregular
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # older numpy warns where it stops early
        try:
            parsed = np.fromstring(text, sep=",")
        except (ValueError, DeprecationWarning):
            raise _Irregular from None
    if parsed.size != len(rows) * width:
        raise _Irregular
    return parsed.reshape(len(rows), width)


@contextmanager
def _csv_writer(path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield csv.writer(fh, lineterminator="\n")


def _write_table(
    path: str, header: list[str] | None, lead: Sequence[Sequence[str]], values: np.ndarray
) -> None:
    """A CSV file: the header row if given, then for each row its ``lead`` text
    cells and the ``repr`` of each float64 value, which round-trips."""
    values = np.asarray(values, dtype=np.float64)
    with _csv_writer(path) as writer:
        if header is not None:
            writer.writerow(header)
        for cells, row in zip(zip(*lead), values):
            writer.writerow([*cells, *map(repr, row.tolist())])


def _named_format(path: str) -> str | None:
    """The feature format ``fmt="auto"`` takes from a file name: "csv" for a
    ``.csv`` name, "binary" for ``.delf``, in any case; None for any other."""
    lowered = path.lower()
    if lowered.endswith(".csv"):
        return "csv"
    if lowered.endswith(".delf"):
        return "binary"
    return None


def _infer_format(path: str) -> str:
    fmt = _named_format(path)
    if fmt is None:
        raise ConfigError(
            f"cannot infer feature format from {path!r}; pass format='binary' or 'csv'"
        )
    return fmt


def read_features(path: str, fmt: str = "auto", header: bool = False) -> FeatureMatrix:
    """Read a feature matrix from a DELF binary or CSV file."""
    if fmt == "auto":
        fmt = _infer_format(path)
    if fmt == "binary":
        values, ids = _read_container(path, _MAGIC_MATRIX, 2, "features file")
        return FeatureMatrix(values=values, ids=ids)
    if fmt != "csv":
        raise ConfigError(f"unknown feature format {fmt!r}")
    try:
        ids, values = _bulk_csv(path, header)
    except _Irregular:
        pass
    else:
        return FeatureMatrix(values=values, ids=tuple(ids))
    rows = _csv_rows(path, "features file")
    if header:
        next(rows, None)
    ids, values = [], []
    for r, cells in rows:
        if not ids:
            width = len(cells)
            if width < 2:
                raise FormatError(f"{path}: row {r} has no feature columns")
        _check_width(path, r, cells, width)
        ids.append(cells[0])
        values.append(_parse_cells(path, r, cells[1:], 2))
    if not ids:
        raise FormatError(f"{path}: no data rows")
    return FeatureMatrix(values=np.array(values, dtype=np.float64), ids=tuple(ids))


def write_features(
    matrix: FeatureMatrix, path: str, fmt: str = "auto", dtype: str = "f64"
) -> None:
    """Write a feature matrix; binary f64 writes round-trip bit-exactly."""
    if fmt == "auto":
        fmt = _infer_format(path)
    if fmt == "binary":
        _write_container(path, _MAGIC_MATRIX, matrix.values, matrix.ids, dtype)
        return
    if fmt == "csv":
        _write_table(path, None, [matrix.ids], matrix.values)
        return
    raise ConfigError(f"unknown feature format {fmt!r}")


def read_feature_maps(path: str) -> FeatureMapBlock:
    values, ids = _read_container(path, _MAGIC_MAPS, 3, "feature map file")
    return FeatureMapBlock(values=values, ids=ids)


def write_feature_maps(block: FeatureMapBlock, path: str, dtype: str = "f64") -> None:
    _write_container(path, _MAGIC_MAPS, block.values, block.ids, dtype)


# ---------------------------------------------------------------------------
# label manifests


_MANIFEST_HEADER = ["id", "style", "genre"]


@dataclass(frozen=True)
class LabelManifest:
    """Optional style and genre labels keyed by sample id.

    Class indices are dense from 0 in sorted class-name order, so the
    same manifest always produces the same integer labels.
    """

    rows: tuple[tuple[str, str | None, str | None], ...]

    def __post_init__(self):
        ids = [r[0] for r in self.rows]
        _check_ids(ids, len(ids))

    def _column(self, column: str) -> dict[str, str]:
        if column == "style":
            pairs = ((r[0], r[1]) for r in self.rows)
        elif column == "genre":
            pairs = ((r[0], r[2]) for r in self.rows)
        else:
            raise ConfigError(f"unknown label column {column!r}")
        return {i: v for i, v in pairs if v is not None}

    def class_names(self, column: str) -> tuple[str, ...]:
        return tuple(sorted(set(self._column(column).values())))


def read_label_manifest(path: str) -> LabelManifest:
    rows = _csv_rows(path, "label manifest")
    if next(rows, (0, None))[1] != _MANIFEST_HEADER:
        raise FormatError(f"{path}: first row must be the header 'id,style,genre'")
    out = []
    for r, cells in rows:
        _check_width(path, r, cells, 3)
        out.append((cells[0], cells[1] or None, cells[2] or None))
    if not out:
        raise FormatError(f"{path}: manifest holds no rows")
    return LabelManifest(rows=tuple(out))


def write_label_manifest(manifest: LabelManifest, path: str) -> None:
    with _csv_writer(path) as writer:
        writer.writerow(_MANIFEST_HEADER)
        for i, style, genre in manifest.rows:
            writer.writerow([i, style or "", genre or ""])


def labels_for(manifest: LabelManifest, ids: Sequence[str], column: str) -> np.ndarray:
    """The dense class index of each id in that column, in the order given;
    -1 for an id the manifest leaves unlabeled there or does not list."""
    names = manifest._column(column)
    index = {name: c for c, name in enumerate(manifest.class_names(column))}
    return np.array([index[names[i]] if i in names else -1 for i in ids], dtype=np.int64)


# ---------------------------------------------------------------------------
# cluster assignments


@dataclass(frozen=True)
class ClusterAssignments:
    """Hard labels and optional soft assignment rows keyed by id."""

    ids: tuple[str, ...]
    hard: np.ndarray
    q: np.ndarray | None = None

    def __post_init__(self):
        try:
            hard = np.asarray(self.hard, dtype=np.int64)
        except OverflowError:
            raise DataError("hard labels must fit in 64-bit integers")
        n = hard.shape[0]
        object.__setattr__(self, "ids", _check_ids(self.ids, n))
        if hard.ndim != 1:
            raise DataError("hard labels must be 1-d")
        if n < 1:
            raise DataError("assignments must hold at least one row")
        if hard.min() < 0:
            raise DataError("hard labels must be non-negative")
        q = self.q
        if q is not None:
            q = np.asarray(q, dtype=np.float64)
            if q.ndim != 2 or q.shape[0] != n:
                raise DataError(f"soft assignments must be (n, k), got {q.shape}")
            _check_finite(q, "soft assignments")
            if q.min() < 0:
                raise DataError("soft assignments must be non-negative")
            sums = q.sum(axis=1)
            off = np.abs(sums - 1.0)
            if off.max() > 1e-9:
                row = int(np.argmax(off))
                raise DataError(
                    f"soft assignment row {row} sums to {sums[row]!r}, expected 1"
                )
            if hard.max() >= q.shape[1]:
                raise DataError("hard label exceeds soft assignment width")
            q = _freeze(q)
        hard.setflags(write=False)
        object.__setattr__(self, "hard", hard)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.hard.shape[0]


def write_assignments(assignments: ClusterAssignments, path: str) -> None:
    q = np.empty((assignments.n, 0)) if assignments.q is None else assignments.q
    header = ["id", "cluster"] + [f"q_{j}" for j in range(q.shape[1])]
    _write_table(path, header, [assignments.ids, list(map(str, assignments.hard.tolist()))], q)


def read_assignments(path: str) -> ClusterAssignments:
    rows = _csv_rows(path, "assignments file")
    _, header = next(rows, (0, None))
    if header is None:
        raise FormatError(f"{path}: empty file")
    if header[:2] != ["id", "cluster"]:
        raise FormatError(f"{path}: header must start with 'id,cluster'")
    for j, name in enumerate(header[2:]):
        if name != f"q_{j}":
            raise FormatError(f"{path}: unexpected soft assignment column {name!r}")
    ids = []
    hard = []
    q_rows = [] if header[2:] else None
    for r, cells in rows:
        _check_width(path, r, cells, len(header))
        ids.append(cells[0])
        hard += _parse_cells(path, r, cells[1:2], 2, int)
        if q_rows is not None:
            q_rows.append(_parse_cells(path, r, cells[2:], 3))
    if not ids:
        raise FormatError(f"{path}: no data rows")
    return ClusterAssignments(ids=tuple(ids), hard=hard, q=q_rows)


def cluster_labels(ids: Sequence[str], assignments: ClusterAssignments) -> np.ndarray:
    """The hard cluster label of each id, in the order given."""
    rows = {i: r for r, i in enumerate(assignments.ids)}
    labels = np.empty(len(ids), dtype=np.int64)
    for r, i in enumerate(ids):
        if i not in rows:
            raise DataError(f"id {i!r} has no cluster assignment")
        labels[r] = assignments.hard[rows[i]]
    return labels


# ---------------------------------------------------------------------------
# projection coordinates


def write_xy(path: str, ids: Sequence[str], coords: np.ndarray, pca_style: bool) -> None:
    header = ["id"] + (
        [f"c_{j + 1}" for j in range(coords.shape[1])] if pca_style else ["x", "y"]
    )
    _write_table(path, header, [ids], coords)


def read_xy(path: str) -> tuple[list[str], np.ndarray]:
    """The ids and first two coordinates of a projection file.

    A duplicate, empty or multi-line id, or a non-finite coordinate, is
    a DataError.
    """
    rows = _csv_rows(path, "projection file")
    _, header = next(rows, (0, []))
    if header[:1] != ["id"] or len(header) < 3:
        raise FormatError(f"{path}: header must be 'id' plus at least two coordinates")
    ids, coords = [], []
    for r, cells in rows:
        _check_width(path, r, cells, len(header))
        ids.append(cells[0])
        coords.append(_parse_cells(path, r, cells[1:3], 2))
    if not ids:
        raise FormatError(f"{path}: no data rows")
    _check_ids(ids, len(ids))
    coords = np.array(coords, dtype=np.float64)
    _check_finite(coords, "projection coordinates")
    return ids, coords


# ---------------------------------------------------------------------------
# sampling


def stratified_sample(
    matrix: FeatureMatrix,
    strata: np.ndarray,
    fraction: float,
    seed: int,
) -> FeatureMatrix:
    """Deterministic per-stratum sample keeping original row order.

    ``strata`` holds one stratum per matrix row; rows whose values have
    the same ``str`` share a stratum.  Strata draw in the sorted order of
    those strings ("10" before "2"), and each contributes
    round(fraction * stratum_size) rows (half up).
    """
    from .rng import Rng  # only sampling draws, so eval and plot never load it

    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"sample fraction must be in (0, 1], got {fraction}")
    strata = np.asarray(strata)
    if strata.shape != (matrix.n,):
        raise DataError(f"expected {matrix.n} strata, one per row, got shape {strata.shape}")
    by_class: dict[str, list[int]] = {}
    for r, stratum in enumerate(strata.tolist()):
        by_class.setdefault(str(stratum), []).append(r)
    rng = Rng(seed)
    chosen: list[int] = []
    for cls in sorted(by_class):
        rows = by_class[cls]
        want = int(np.floor(fraction * len(rows) + 0.5))  # at most len(rows): fraction <= 1
        if want == 0:
            continue
        picks = rng.below_each(np.arange(len(rows), len(rows) - want, -1))
        for i, pick in enumerate(picks):
            j = i + pick
            rows[i], rows[j] = rows[j], rows[i]
        chosen.extend(rows[:want])
    if not chosen:
        raise DataError("stratified sample selected no rows; fraction too small")
    chosen.sort()
    values = matrix.values[chosen]
    ids = tuple(matrix.ids[r] for r in chosen)
    return FeatureMatrix(values=values, ids=ids)
