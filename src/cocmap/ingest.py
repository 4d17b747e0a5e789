"""Parsers, serializers, and bundled demonstration datasets.

Three text formats are supported:

* record files: one citing document per line,
  ``doc_id<TAB>label[:count](;label[:count])*``, ``#`` comments allowed;
* labeled square matrices: CSV with a label header and an identical label
  column, lower-triangular input mirrored to full symmetry;
* labeled rectangular matrices: CSV occurrence tables (documents x attributes).

All parsers accept ``\\n`` and ``\\r\\n`` input and emit ``\\n``.  Labels are
trimmed but case-sensitive; normalizing author-name variants is the caller's
responsibility.  Every serializer refuses, with a ``ValueError`` naming it,
a label that its parser would not read back unchanged.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .errors import (
    AsymmetricInput,
    DuplicateDocId,
    LabelMismatch,
    MalformedLine,
    NegativeCount,
    UnknownDataset,
)
from .matrices import CooccurrenceMatrix, OccurrenceMatrix, ProximityMatrix

# Flying mileages between 10 American cities (lower triangle, row by row).
_CITY_LABELS = (
    "Atlanta", "Chicago", "Denver", "Houston", "Los Angeles",
    "Miami", "New York", "San Francisco", "Seattle", "Washington DC",
)
_CITY_MILES = (
    (587,),
    (1212, 920),
    (701, 940, 879),
    (1936, 1745, 831, 1374),
    (604, 1188, 1726, 968, 2339),
    (748, 713, 1631, 1420, 2451, 1092),
    (2139, 1858, 949, 1645, 347, 2594, 2571),
    (2182, 1737, 1021, 1891, 959, 2734, 2408, 678),
    (543, 597, 1494, 1220, 2300, 923, 205, 2442, 2329),
)

_FIGURE1_LABELS = ("Paper 1", "Paper 2", "Paper 3", "Paper 4")
_FIGURE1_COUNTS = (
    (0, 10, 20, 25),
    (10, 0, 30, 15),
    (20, 30, 0, 12),
    (25, 15, 12, 0),
)

_FIGURE2_ROWS = ("1", "2", "3", "4", "5")
_FIGURE2_COLS = ("A", "B", "C", "D")
_FIGURE2_CELLS = (
    (1, 1, 0, 1),
    (0, 0, 1, 1),
    (0, 0, 1, 1),
    (1, 1, 0, 0),
    (1, 1, 0, 1),
)


def builtin_dataset(name: str):
    """Return a bundled dataset by name: ``cities``, ``figure1`` or ``figure2``.

    ``cities`` is the 10-city flying-mileage dissimilarity matrix, ``figure1``
    a 4x4 co-citation count matrix, and ``figure2`` a 5x4 binary citation
    matrix (citing documents x cited papers).
    """
    if name == "cities":
        n = len(_CITY_LABELS)
        d = np.zeros((n, n))
        for i, row in enumerate(_CITY_MILES, start=1):
            for j, v in enumerate(row):
                d[i, j] = d[j, i] = v
        return ProximityMatrix(_CITY_LABELS, d, kind="dissimilarity")
    if name == "figure1":
        return CooccurrenceMatrix(_FIGURE1_LABELS, np.array(_FIGURE1_COUNTS), "zeroed")
    if name == "figure2":
        return OccurrenceMatrix(_FIGURE2_ROWS, _FIGURE2_COLS, np.array(_FIGURE2_CELLS))
    raise UnknownDataset(f"no bundled dataset named {name!r}")


# ---------------------------------------------------------------------------
# record files
# ---------------------------------------------------------------------------

def parse_records(text: str) -> OccurrenceMatrix:
    """Parse citing-document records into an occurrence matrix.

    Line format: ``doc_id<TAB>label[:count](;label[:count])*``.  Counts
    default to 1 and repeated labels within a line accumulate.  Lines
    starting with ``#`` and blank lines are skipped.  Columns are the sorted
    distinct labels; rows keep file order.
    """
    rows: list[str] = []
    cells: list[dict[str, int]] = []
    seen: set[str] = set()
    labels: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if "\t" not in line:
            raise MalformedLine(line_no, "expected doc_id<TAB>attributes")
        doc_id, rest = line.split("\t", 1)
        doc_id = doc_id.strip()
        if not doc_id:
            raise MalformedLine(line_no, "empty document id")
        if doc_id in seen:
            raise DuplicateDocId(doc_id)
        seen.add(doc_id)
        counts: dict[str, int] = {}
        for item in rest.split(";"):
            item = item.strip()
            if not item:
                raise MalformedLine(line_no, "empty attribute entry")
            if ":" in item:
                label, count_text = item.split(":", 1)
                label = label.strip()
                try:
                    count = int(count_text.strip())
                except ValueError:
                    raise MalformedLine(
                        line_no, f"invalid count {count_text.strip()!r}"
                    ) from None
                if count < 0:
                    raise NegativeCount(
                        f"line {line_no}: negative count for {label!r}"
                    )
            else:
                label, count = item, 1
            if not label:
                raise MalformedLine(line_no, "empty attribute label")
            counts[label] = counts.get(label, 0) + count
            labels.add(label)
        rows.append(doc_id)
        cells.append(counts)
    if not rows:
        raise MalformedLine(0, "no record lines found")
    cols = tuple(sorted(labels))
    data = np.zeros((len(rows), len(cols)), dtype=np.int64)
    index = {label: j for j, label in enumerate(cols)}
    for i, counts in enumerate(cells):
        for label, count in counts.items():
            data[i, index[label]] = count
    return OccurrenceMatrix(tuple(rows), cols, data)


_RECORD_SEPARATORS = (":", ";", "\t")


def serialize_records(A: OccurrenceMatrix) -> str:
    """Serialize an occurrence matrix back to record-file text.

    Zero cells are omitted, except that all-zero columns and all-zero rows
    get explicit ``label:0`` entries so the parse round-trip preserves the
    label sets exactly.  A label or document id that would not parse back
    unchanged raises ``ValueError`` naming it: empty, with leading or
    trailing whitespace, or containing ``:``, ``;``, a tab or a line
    boundary (``\\n``, ``\\r`` or any other that ``str.splitlines`` splits
    on); a document id may also not start with ``#``.
    """
    for what, names in (("attribute label", A.cols), ("document id", A.rows)):
        for name in names:
            if (not name or name != name.strip()
                    or any(c in name for c in _RECORD_SEPARATORS)
                    or "".join(name.splitlines()) != name
                    or (what == "document id" and name.startswith("#"))):
                raise ValueError(f"{what} {name!r} cannot be written to a record file")
    data = np.asarray(A.data)
    zero_cols = [j for j in range(A.n_attrs) if not data[:, j].any()]
    lines = []
    for i, doc_id in enumerate(A.rows):
        items = []
        for j, label in enumerate(A.cols):
            c = int(data[i, j])
            if c == 1:
                items.append(label)
            elif c > 1:
                items.append(f"{label}:{c}")
        if i == 0:
            items.extend(f"{A.cols[j]}:0" for j in zero_cols)
        if not items:
            items.append(f"{A.cols[0]}:0")
        lines.append(f"{doc_id}\t{';'.join(items)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# labeled matrices (CSV)
# ---------------------------------------------------------------------------

def _read_csv_rows(text: str) -> list[list[str]]:
    reader = csv.reader(io.StringIO(text))
    try:
        return [row for row in reader if row]
    except csv.Error as exc:
        raise MalformedLine(reader.line_num, str(exc)) from None


def _check_csv_labels(labels) -> None:
    # the parsers strip labels, and a \r inside one breaks the CSV reader
    for label in labels:
        if label != label.strip() or "\r" in label:
            raise ValueError(f"label {label!r} cannot be written to a CSV matrix")


def parse_square_matrix(text: str, kind: str):
    """Parse a labeled square CSV matrix.

    ``kind`` selects the result type: ``"similarity"`` or ``"dissimilarity"``
    yield a :class:`ProximityMatrix` of that kind, while
    ``"counts"`` yields a :class:`CooccurrenceMatrix`.  Blank or ``.`` cells
    are mirrored from the transposed cell, so lower-triangular input is
    accepted; if both triangles are present they must agree within 1e-9.
    """
    table = _read_csv_rows(text)
    if not table:
        raise MalformedLine(0, "empty matrix file")
    header = [h.strip() for h in table[0][1:]]
    n = len(header)
    if len(table) != n + 1:
        raise MalformedLine(0, f"expected {n} data rows, found {len(table) - 1}")
    row_labels = [row[0].strip() for row in table[1:]]
    if row_labels != header:
        raise LabelMismatch(
            f"row labels {row_labels!r} do not match header {header!r}"
        )
    raw = np.full((n, n), np.nan)
    for i, row in enumerate(table[1:], start=0):
        if len(row) - 1 > n:
            raise MalformedLine(i + 2, "more cells than header columns")
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell in ("", "."):
                continue
            try:
                raw[i, j] = float(cell)
            except ValueError:
                raise MalformedLine(i + 2, f"invalid number {cell!r}") from None
    missing = np.isnan(raw)
    with np.errstate(invalid="ignore"):
        conflict = np.triu(~missing & ~missing.T & (np.abs(raw - raw.T) > 1e-9), 1)
    if conflict.any():
        i, j = (int(k) for k in np.argwhere(conflict)[0])  # first in row-major order
        raise AsymmetricInput(i, j, abs(raw[i, j] - raw[j, i]))
    data = np.where(missing, raw.T, raw)
    diag = np.diagonal(data)
    np.fill_diagonal(data, np.where(np.isnan(diag), 1.0 if kind == "similarity" else 0.0, diag))
    if kind == "counts":
        if np.any(np.isnan(data)):
            raise MalformedLine(0, "count matrix has unresolved missing cells")
        counts = data.astype(np.int64)
        if np.any(counts != data):
            raise MalformedLine(0, "count matrix entries must be integers")
        policy = "zeroed" if not counts.diagonal().any() else "raw"
        return CooccurrenceMatrix(tuple(header), counts, policy)
    if kind not in ("similarity", "dissimilarity"):
        raise ValueError(f"unknown square-matrix kind {kind!r}")
    # average residual float noise so the symmetry invariant holds exactly
    sym = (data + data.T) / 2.0
    return ProximityMatrix(tuple(header), sym, kind=kind)


def serialize_square_matrix(M) -> str:
    """Serialize a square matrix (proximity or co-occurrence) to labeled CSV.

    Whole numbers below 1e15 in magnitude print as integers (``-0.0`` as
    ``0``), other values by ``repr`` of the float, and NaN as an empty cell.
    A label the parser would not read back unchanged (leading or trailing
    whitespace, or a ``\\r``) raises ``ValueError`` naming it.
    """
    _check_csv_labels(M.labels)
    data = np.asarray(M.data, dtype=float)
    nan = np.isnan(data)
    whole = (data == np.trunc(data)) & (np.abs(data) < 1e15)
    rest = ~(whole | nan)
    cells = np.full(data.shape, "", dtype=object)
    cells[whole] = list(map(str, data[whole].astype(np.int64).tolist()))
    cells[rest] = list(map(repr, data[rest].tolist()))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(M.labels))
    writer.writerows([label] + row for label, row in zip(M.labels, cells.tolist()))
    return out.getvalue()


def parse_rectangular_matrix(text: str) -> OccurrenceMatrix:
    """Parse a labeled rectangular CSV count matrix (documents x attributes)."""
    table = _read_csv_rows(text)
    if not table:
        raise MalformedLine(0, "empty matrix file")
    cols = tuple(h.strip() for h in table[0][1:])
    rows = []
    data = []
    for i, row in enumerate(table[1:], start=2):
        if len(row) != len(cols) + 1:
            raise MalformedLine(i, f"expected {len(cols) + 1} cells, found {len(row)}")
        rows.append(row[0].strip())
        try:
            values = [int(cell.strip()) for cell in row[1:]]
        except ValueError:
            raise MalformedLine(i, "count cells must be integers") from None
        if any(v < 0 for v in values):
            raise NegativeCount(f"line {i}: negative count")
        data.append(values)
    return OccurrenceMatrix(tuple(rows), cols, np.array(data, dtype=np.int64))


def serialize_rectangular_matrix(A: OccurrenceMatrix) -> str:
    """Serialize an occurrence matrix to labeled CSV.

    Labels are refused as by :func:`serialize_square_matrix`.
    """
    _check_csv_labels(A.rows + A.cols)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(A.cols))
    for label, row in zip(A.rows, np.asarray(A.data)):
        writer.writerow([label] + [str(int(v)) for v in row])
    return out.getvalue()
