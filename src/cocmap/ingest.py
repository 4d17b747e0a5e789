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

The CSV readers stream: ``csv.reader`` takes the text one line at a time,
and each row's cells go straight into the result array (the rectangular
reader's grows by doubling, to at most one row per line), so a reader holds
one row of cells at a time besides the labels and line numbers.  A
malformed file raises the first of its errors in this order: a CSV syntax
error anywhere, then the square reader's row count and row labels, then the
first bad row in file order; so an error found in a row is held until the
read ends.
"""

from __future__ import annotations

import csv
import io
import itertools

import numpy as np

from .errors import (
    AsymmetricInput,
    CountOverflow,
    DuplicateDocId,
    LabelMismatch,
    MalformedLine,
    NegativeCount,
    UnknownDataset,
)
from .matrices import (FLOAT_EXACT_MAX, INT64_MAX, SYMMETRY_TOL, CooccurrenceMatrix,
                       OccurrenceMatrix, ProximityMatrix)

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
        return CooccurrenceMatrix(_FIGURE1_LABELS, np.array(_FIGURE1_COUNTS))
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
    distinct labels; rows keep file order.  A malformed file raises the
    error of its first bad line in file order (:func:`_check_record_line`).
    """
    # the parse's temporaries are freed before the matrix takes the counts
    return OccurrenceMatrix(*_read_records(text))


def _read_records(text: str) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """The document ids, the sorted labels and the frozen int64 counts of a record file."""
    records = list(filter(_is_record, text.splitlines()))
    if not records:
        raise MalformedLine(0, "no record lines found")
    # every line at once: ids and entries as flat lists, each distinct entry
    # text read once, then one sorted label index and one accumulation.  The
    # ids, which the matrix keeps, are cut first and without other objects
    # kept around them: scattered among the parse's temporaries, they held
    # about 0.6 MB of heap in use for the rest of a run.
    ids = [line.partition("\t")[0].strip() for line in records]
    rests = [line.partition("\t")[2] for line in records]
    entries = ";".join(rests).split(";")
    code = {entry: k for k, entry in enumerate(dict.fromkeys(entries))}
    pairs = [entry.strip().partition(":") for entry in code]
    labels = [label.strip() for label, _, _ in pairs]
    try:
        values = [int(count.strip()) if colon else 1 for _, colon, count in pairs]
    except ValueError:  # an invalid count
        values = None
    # checked in bulk (a line without a tab, an empty entry and an empty label
    # all leave an empty label, and no cell can pass int64 while the largest
    # count times the number of entries fits it); if a check fails, the lines
    # are checked one at a time in file order, which raises the first error
    if values is None or not (all(labels) and all(ids) and len(set(ids)) == len(ids)
                              and min(values) >= 0
                              and max(values) * len(entries) <= INT64_MAX):
        seen: set[str] = set()
        for line_no, line in enumerate(text.splitlines(), start=1):
            if _is_record(line):
                seen.add(_check_record_line(line_no, line, seen))
    cols = tuple(sorted(set(labels)))
    index = {label: j for j, label in enumerate(cols)}
    codes = np.array(list(map(code.__getitem__, entries)))
    flat = np.repeat(np.arange(len(ids)) * len(cols), [rest.count(";") + 1 for rest in rests])
    flat += np.array(list(map(index.__getitem__, labels)))[codes]
    data = np.zeros((len(ids), len(cols)), dtype=np.int64)  # every cell fits: exact sums
    np.add.at(data.reshape(-1), flat, np.array(values, dtype=np.int64)[codes])
    data.flags.writeable = False  # frozen, so the matrix keeps it instead of a copy
    return tuple(ids), cols, data


def _is_record(line: str) -> bool:
    """Whether a line of a record file holds a record: not blank, not a ``#`` comment."""
    head = line.lstrip()
    return bool(head) and head[0] != "#"


def _check_record_line(line_no: int, line: str, earlier_ids: set[str]) -> str:
    """Raise the error of a record line, checked in reading order; else return its id.

    The one place that words each record error; ``earlier_ids`` are the
    document ids of the lines before it.  A label whose counts on the line
    sum past int64 raises :class:`CountOverflow` at the entry that passes it.
    """
    doc_id, tab, rest = line.partition("\t")
    if not tab:
        raise MalformedLine(line_no, "expected doc_id<TAB>attributes")
    doc_id = doc_id.strip()
    if not doc_id:
        raise MalformedLine(line_no, "empty document id")
    if doc_id in earlier_ids:
        raise DuplicateDocId(doc_id)
    totals: dict[str, int] = {}
    for item in rest.split(";"):
        item = item.strip()
        if not item:
            raise MalformedLine(line_no, "empty attribute entry")
        label, colon, count_text = item.partition(":")
        label = label.strip()
        count = 1
        if colon:
            count_text = count_text.strip()
            try:
                count = int(count_text)
            except ValueError:
                raise MalformedLine(line_no, f"invalid count {count_text!r}") from None
            if count < 0:
                raise NegativeCount(line_no, f"negative count for {label!r}")
        if not label:
            raise MalformedLine(line_no, "empty attribute label")
        totals[label] = totals.get(label, 0) + count
        if totals[label] > INT64_MAX:
            raise _past_int64(line_no, label)
    return doc_id


def _past_int64(line_no: int, label: str) -> CountOverflow:
    """The one wording of a text count past int64, for the record and rectangular readers."""
    return CountOverflow(f"line {line_no}: count for {label!r} exceeds the int64 range")


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

def _lines(text: str):
    """The lines of ``text``, split at ``\\n`` only and each with its line end.

    They are the lines ``io.StringIO(text)`` yields, taken one at a time
    instead of from a copy of the whole text.
    """
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start) + 1 or size
        yield text[start:end]
        start = end


def _csv_rows(text: str):
    """Each non-empty row of a CSV text, with the lines it starts and ends on.

    Rows are read one at a time.  A CSV syntax error raises
    :class:`MalformedLine` naming the line the reader stopped on.
    """
    reader = csv.reader(_lines(text))
    start = 1
    try:
        for row in reader:
            if row:
                yield row, start, reader.line_num
            start = reader.line_num + 1
    except csv.Error as exc:
        raise MalformedLine(reader.line_num, str(exc)) from None


def _row_at(text: str, line: int) -> list[str]:
    """The CSV row that starts on ``line`` of ``text``, read again."""
    return next(csv.reader(itertools.islice(_lines(text), line - 1, None)))


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
    accepted; if both triangles are present they must agree within 1e-12,
    the tolerance of :class:`ProximityMatrix`, which stores their mean.  A
    count cell that is not an integer below 2**53 (the range float64 reads
    exactly), or one blank in both triangles, raises :class:`MalformedLine`
    naming its line and column; a negative one raises :class:`NegativeCount`.
    A bad cell is quoted as written.

    The text is read one row at a time, and each row's cells go straight
    into the n x n array; only the labels and line numbers are kept.  The
    array is made only when the text has a line for each row, so a long
    header over few rows costs no more than it did to refuse.  A
    file with several faults raises the error of the first of: a CSV syntax
    error; a number of data rows other than the header's; row labels other
    than the header's; the first bad row in file order (more cells than the
    header, or a cell that is not a number); two triangles that disagree;
    and, for counts, the first bad count cell in file order, whose text is
    read again from its line.  An error found in a row is held until the
    read ends, since a later line may raise one that comes first.
    """
    rows = _csv_rows(text)
    first = next(rows, None)
    if first is None:
        raise MalformedLine(0, "empty matrix file")
    header = [h.strip() for h in first[0][1:]]
    n = len(header)
    # each data row starts on a line of its own after the header's, so a text
    # with fewer line ends than columns fails the row count: its rows are
    # still read, for a CSV syntax error, but no n x n array is made
    raw = np.full((n, n), np.nan) if n <= text.count("\n") else None
    labels, starts, ends = [], [], []
    held = None  # the first bad row's error
    for i, (row, start, end) in enumerate(rows):
        labels.append(row[0].strip())
        starts.append(start)
        ends.append(end)
        if raw is not None and held is None and i < n:
            try:
                _read_square_row(raw[i], row[1:], end)
            except MalformedLine as exc:
                held = exc
    if len(labels) != n:
        raise MalformedLine(0, f"expected {n} data rows, found {len(labels)}")
    if labels != header:
        raise LabelMismatch(f"row labels {labels!r} do not match header {header!r}")
    if held is not None:
        raise held
    missing = np.isnan(raw)
    with np.errstate(invalid="ignore"):  # inf - inf
        gap = raw - raw.T
        conflict = np.triu(~missing & ~missing.T & (np.abs(gap, out=gap) > SYMMETRY_TOL), 1)
    del gap
    if conflict.any():
        i, j = (int(k) for k in np.argwhere(conflict)[0])  # first in row-major order
        raise AsymmetricInput(i, j, abs(raw[i, j] - raw[j, i]))
    data = np.where(missing, raw.T, raw)
    diag = np.diagonal(data)
    np.fill_diagonal(data, np.where(np.isnan(diag), 1.0 if kind == "similarity" else 0.0, diag))
    if kind == "counts":
        # the first offending cell in file order, named by its line and column
        whole = np.isfinite(raw) & (raw == np.floor(raw)) & (np.abs(raw) < FLOAT_EXACT_MAX)
        for bad, error, message in (
                (~missing & ~whole, MalformedLine, "must be an integer below 2**53, not {}"),
                (raw < 0, NegativeCount, "must be non-negative, not {}"),
                (np.isnan(data), MalformedLine, "is blank in both triangles")):
            if bad.any():
                i, j = (int(k) for k in np.argwhere(bad)[0])
                row = _row_at(text, starts[i])  # a blank cell may lie past the row's end
                written = row[j + 1].strip() if j + 1 < len(row) else ""
                raise error(ends[i], f"count cell {header[j]!r} " + message.format(written))
        counts = data.astype(np.int64)
        counts.flags.writeable = False  # built here: the matrix keeps it
        return CooccurrenceMatrix(tuple(header), counts)
    if kind not in ("similarity", "dissimilarity"):
        raise ValueError(f"unknown square-matrix kind {kind!r}")
    del raw, missing  # the matrix takes a copy of its own
    return ProximityMatrix(tuple(header), data, kind=kind)


def _read_square_row(out: np.ndarray, cells: list[str], line_no: int) -> None:
    """Write a square-matrix row's cells into ``out``; blank and ``.`` cells stay NaN."""
    if len(cells) > len(out):
        raise MalformedLine(line_no, "more cells than header columns")
    try:  # a whole row at a time: float() strips the cells itself
        out[:len(cells)] = list(map(float, cells))
    except ValueError:  # a blank or "." cell to mirror, or a bad number
        for j, cell in enumerate(cells):
            cell = cell.strip()
            if cell in ("", "."):
                continue
            try:
                out[j] = float(cell)
            except ValueError:
                raise MalformedLine(line_no, f"invalid number {cell!r}") from None


def _number_cells(data) -> list:
    """Cell text for a float array, as nested lists of the same shape.

    Whole numbers below 1e15 in magnitude print as integers (``-0.0`` as
    ``0``), other values by ``repr`` of the float, and NaN as an empty cell.
    """
    data = np.asarray(data, dtype=float)
    nan = np.isnan(data)
    whole = (data == np.trunc(data)) & (np.abs(data) < 1e15)
    rest = ~(whole | nan)
    cells = np.full(data.shape, "", dtype=object)
    cells[whole] = list(map(str, data[whole].astype(np.int64).tolist()))
    cells[rest] = list(map(repr, data[rest].tolist()))
    return cells.tolist()


def _labelled_csv(header, labels, rows) -> str:
    """CSV text: the header row, then each label and its row (floats by ``repr``)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([label] + row for label, row in zip(labels, rows))
    return out.getvalue()


def serialize_square_matrix(M) -> str:
    """Serialize a square matrix (proximity or co-occurrence) to labeled CSV.

    A co-occurrence matrix's counts are written as exact integers; proximity
    cells as :func:`_number_cells` gives them.  A label the parser would not
    read back unchanged (leading or trailing whitespace, or a ``\\r``)
    raises ``ValueError`` naming it.
    """
    _check_csv_labels(M.labels)
    if isinstance(M, CooccurrenceMatrix):  # the writer formats integers in C
        return _labelled_csv([""] + list(M.labels), M.labels, np.asarray(M.data).tolist())
    # a proximity matrix is bitwise symmetric, so the upper triangle and the
    # diagonal are formatted once and mirrored (0.0 and -0.0, the only equal
    # cells with other bits, both print 0); number cells never need quoting
    upper = np.triu_indices(M.n)
    cells = np.empty((M.n, M.n), dtype=object)
    cells[upper] = cells[upper[::-1]] = np.array(_number_cells(M.data[upper]), dtype=object)
    fields = _first_fields(M.labels)
    lines = [",".join(["", *fields])]
    lines += [",".join([field, *row]) for field, row in zip(fields, cells.tolist())]
    return "\n".join(lines) + "\n"


def _first_fields(labels) -> list[str]:
    """Each label as ``csv.writer`` writes it as the first of two or more fields.

    Written alone, an empty label would be quoted, so each is written before
    an empty field, whose ``","`` and line end are cut off again.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    fields = []
    for label in labels:
        writer.writerow((label, ""))
        fields.append(out.getvalue()[:-2])
        out.seek(0)
        out.truncate()
    return fields


def parse_rectangular_matrix(text: str) -> OccurrenceMatrix:
    """Parse a labeled rectangular CSV count matrix (documents x attributes).

    A count past int64 raises :class:`CountOverflow` naming its line and column.
    Rows are read one at a time into an int64 array, and a file with several
    faults raises the error of the first of: a CSV syntax error, then the
    first bad row in file order.

    The array grows by doubling as rows arrive, instead of being made once
    for the line count, so its size follows the rows read: blank lines, a
    label quoted over many lines, or a wide header over a bad first row
    reserve no rows of their own.
    """
    rows = _csv_rows(text)
    first = next(rows, None)
    if first is None:
        raise MalformedLine(0, "empty matrix file")
    cols = tuple(h.strip() for h in first[0][1:])
    most = text.count("\n")  # each data row starts on a line after the header's first
    data = np.zeros((0, len(cols)), dtype=np.int64)
    labels = []
    held = None  # the first bad row's error
    for row, _, line_no in rows:
        if held is not None:
            continue
        i = len(labels)
        if i == len(data):  # full: double it, to at most one row per line
            data.resize((min(2 * i + 1, most), len(cols)), refcheck=False)
        try:
            _read_count_row(data[i], row, line_no, cols)
        except (MalformedLine, NegativeCount, CountOverflow) as exc:
            held = exc
        labels.append(row[0].strip())
    if held is not None:
        raise held
    data.resize((len(labels), len(cols)), refcheck=False)
    data.flags.writeable = False  # built here: the matrix keeps it
    # a header alone gives an empty vector, which the matrix refuses by its shape
    return OccurrenceMatrix(tuple(labels), cols, data if labels else data.reshape(-1))


def _read_count_row(out: np.ndarray, row: list[str], line_no: int, cols) -> None:
    """Write a rectangular-matrix row's counts, the cells after its label, into ``out``."""
    if len(row) != len(cols) + 1:
        raise MalformedLine(line_no, f"expected {len(cols) + 1} cells, found {len(row)}")
    try:
        values = [int(cell.strip()) for cell in row[1:]]
    except ValueError:
        raise MalformedLine(line_no, "count cells must be integers") from None
    if any(v < 0 for v in values):
        raise NegativeCount(line_no, "negative count")
    if max(values, default=0) > INT64_MAX:
        raise _past_int64(line_no, next(c for c, v in zip(cols, values) if v > INT64_MAX))
    out[:] = values


def serialize_rectangular_matrix(A: OccurrenceMatrix) -> str:
    """Serialize an occurrence matrix to labeled CSV.

    Labels are refused as by :func:`serialize_square_matrix`.
    """
    _check_csv_labels(A.rows + A.cols)
    return _labelled_csv([""] + list(A.cols), A.rows, np.asarray(A.data).tolist())
