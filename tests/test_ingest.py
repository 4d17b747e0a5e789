"""Record/matrix parsing, serialization round-trips, and bundled data."""

import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocmap import (
    AsymmetricInput,
    CooccurrenceMatrix,
    CountOverflow,
    DuplicateDocId,
    LabelMismatch,
    MalformedLine,
    NegativeCount,
    OccurrenceMatrix,
    ProximityMatrix,
    UnknownDataset,
    builtin_dataset,
    parse_records,
    parse_rectangular_matrix,
    parse_square_matrix,
    serialize_records,
    serialize_rectangular_matrix,
    serialize_square_matrix,
)

FIGURE2_RECORDS = "\n".join(
    ["1\tA;B;D", "2\tC;D", "3\tC;D", "4\tA;B", "5\tA;B;D"]
) + "\n"


class TestParseRecords:
    def test_reproduces_bundled_citation_matrix(self):
        A = parse_records(FIGURE2_RECORDS)
        B = builtin_dataset("figure2")
        assert A.rows == B.rows
        assert A.cols == B.cols
        assert np.array_equal(np.asarray(A.data), np.asarray(B.data))

    def test_repeated_labels_accumulate(self):
        A = parse_records("d1\tA;A;B\nd2\tB;A\n")
        assert A.cols == ("A", "B")
        assert np.array_equal(np.asarray(A.data), [[2, 1], [1, 1]])

    def test_explicit_counts(self):
        A = parse_records("d1\tA:3;B:2\nd2\tA\n")
        assert np.array_equal(np.asarray(A.data), [[3, 2], [1, 0]])

    def test_comments_blanks_and_crlf(self):
        text = "# header comment\r\n\r\nd1\tA;B\r\nd2\tB\r\n"
        A = parse_records(text)
        assert A.rows == ("d1", "d2")
        assert np.array_equal(np.asarray(A.data), [[1, 1], [0, 1]])

    def test_missing_tab_reports_line_number(self):
        with pytest.raises(MalformedLine) as err:
            parse_records("d1\tA;B\nbroken line\n")
        assert err.value.line_no == 2

    def test_bad_count_reports_line_number(self):
        with pytest.raises(MalformedLine) as err:
            parse_records("d1\tA:x\n")
        assert err.value.line_no == 1

    def test_empty_label_rejected(self):
        with pytest.raises(MalformedLine):
            parse_records("d1\tA;;B\n")

    def test_duplicate_doc_id(self):
        with pytest.raises(DuplicateDocId):
            parse_records("d1\tA;B\nd1\tB\n")

    def test_negative_count(self):
        with pytest.raises(NegativeCount):
            parse_records("d1\tA:-2;B\n")

    def test_arbitrary_bytes_do_not_crash(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            junk = bytes(rng.integers(0, 256, size=40).tolist()).decode(
                "utf-8", errors="replace"
            )
            try:
                parse_records(junk)
            except (MalformedLine, DuplicateDocId, NegativeCount, ValueError):
                pass


class TestRecordsRoundTrip:
    def test_round_trip_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n_docs = int(rng.integers(1, 8))
            n_attrs = int(rng.integers(2, 7))
            data = rng.integers(0, 4, size=(n_docs, n_attrs))
            A = OccurrenceMatrix(
                tuple(f"doc{i}" for i in range(n_docs)),
                tuple(sorted(f"attr{j}" for j in range(n_attrs))),
                data,
            )
            B = parse_records(serialize_records(A))
            assert B.rows == A.rows
            assert B.cols == A.cols
            assert np.array_equal(np.asarray(B.data), np.asarray(A.data))

    def test_round_trip_all_zero_column_and_row(self):
        A = OccurrenceMatrix(("d1", "d2"), ("a", "b", "c"), [[1, 0, 0], [0, 0, 2]])
        B = parse_records(serialize_records(A))
        assert B.cols == A.cols
        assert np.array_equal(np.asarray(B.data), np.asarray(A.data))


class TestParseSquareMatrix:
    def test_full_matrix(self):
        text = ",a,b\na,0,2.5\nb,2.5,0\n"
        P = parse_square_matrix(text, "dissimilarity")
        assert P.labels == ("a", "b")
        assert P.data[0, 1] == 2.5

    def test_lower_triangle_is_mirrored(self):
        text = ",a,b,c\na,0\nb,1,0\nc,2,3,0\n"
        P = parse_square_matrix(text, "dissimilarity")
        assert P.data[0, 2] == 2.0
        assert P.data[2, 1] == 3.0

    def test_dot_cells_are_mirrored(self):
        text = ",a,b\na,0,.\nb,4,0\n"
        P = parse_square_matrix(text, "dissimilarity")
        assert P.data[0, 1] == 4.0

    def test_conflicting_triangles_rejected(self):
        text = ",a,b\na,0,5\nb,7,0\n"
        with pytest.raises(AsymmetricInput) as err:
            parse_square_matrix(text, "dissimilarity")
        assert (err.value.i, err.value.j, err.value.delta) == (0, 1, 2.0)
        # two conflicts: (0,3) comes first in row-major order, (1,2) in
        # column-major order; the upper-triangle cell of the first is named
        text = (
            ",a,b,c,d\n"
            "a,0,1,2,9\n"
            "b,1,0,8,4\n"
            "c,2,3,0,5\n"
            "d,3,4,5,0\n"
        )
        with pytest.raises(AsymmetricInput) as err:
            parse_square_matrix(text, "dissimilarity")
        assert (err.value.i, err.value.j, err.value.delta) == (0, 3, 6.0)
        assert "cells (0,3) and (3,0) differ by 6" in str(err.value)

    def test_label_mismatch(self):
        text = ",a,b\nx,0,1\nb,1,0\n"
        with pytest.raises(LabelMismatch):
            parse_square_matrix(text, "dissimilarity")

    def test_counts_kind_gives_cooccurrence(self):
        text = ",a,b\na,0,3\nb,3,0\n"
        M = parse_square_matrix(text, "counts")
        assert isinstance(M, CooccurrenceMatrix)
        assert M.data[0, 1] == 3

    def test_square_round_trip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            d = np.round(rng.uniform(0, 10, size=(n, n)), 6)
            d = (d + d.T) / 2
            np.fill_diagonal(d, 0.0)
            P = ProximityMatrix(tuple(f"n{i}" for i in range(n)), d, kind="dissimilarity")
            Q = parse_square_matrix(serialize_square_matrix(P), "dissimilarity")
            assert Q.labels == P.labels
            np.testing.assert_array_equal(np.asarray(Q.data), np.asarray(P.data))

    def test_counts_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            c = rng.integers(0, 9, size=(n, n))
            c = c + c.T
            M = CooccurrenceMatrix(tuple(f"n{i}" for i in range(n)), c)
            Q = parse_square_matrix(serialize_square_matrix(M), "counts")
            assert Q.labels == M.labels
            assert np.array_equal(np.asarray(Q.data), np.asarray(M.data))

    def test_labels_with_commas_survive(self):
        P = ProximityMatrix(("x, y", "z"), [[0.0, 1.0], [1.0, 0.0]], kind="dissimilarity")
        Q = parse_square_matrix(serialize_square_matrix(P), "dissimilarity")
        assert Q.labels == ("x, y", "z")


class TestRectangularMatrix:
    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n_docs = int(rng.integers(1, 7))
            n_attrs = int(rng.integers(2, 6))
            data = rng.integers(0, 5, size=(n_docs, n_attrs))
            A = OccurrenceMatrix(
                tuple(f"d{i}" for i in range(n_docs)),
                tuple(f"a{j}" for j in range(n_attrs)),
                data,
            )
            B = parse_rectangular_matrix(serialize_rectangular_matrix(A))
            assert B.rows == A.rows and B.cols == A.cols
            assert np.array_equal(np.asarray(B.data), np.asarray(A.data))

    def test_ragged_row_rejected(self):
        with pytest.raises(MalformedLine):
            parse_rectangular_matrix(",a,b\nd1,1\n")


class TestBuiltinDatasets:
    def test_cities_values(self):
        cities = builtin_dataset("cities")
        i = {lab: k for k, lab in enumerate(cities.labels)}
        assert cities.data[i["Atlanta"], i["Chicago"]] == 587
        assert cities.data[i["Los Angeles"], i["San Francisco"]] == 347
        assert cities.data[i["New York"], i["Washington DC"]] == 205
        assert cities.kind == "dissimilarity"

    def test_cities_diagonal_and_triangle_inequality(self):
        cities = builtin_dataset("cities")
        D = np.asarray(cities.data)
        assert not np.diagonal(D).any()
        n = D.shape[0]
        for i, j, k in itertools.combinations(range(n), 3):
            assert D[i, j] <= D[i, k] + D[k, j]
            assert D[i, k] <= D[i, j] + D[j, k]
            assert D[j, k] <= D[j, i] + D[i, k]

    def test_figure1_counts(self):
        M = builtin_dataset("figure1")
        i = {lab: k for k, lab in enumerate(M.labels)}
        assert M.data[i["Paper 2"], i["Paper 3"]] == 30
        assert M.data[i["Paper 1"], i["Paper 3"]] == 20
        assert not np.diagonal(M.data).any()

    def test_figure2_is_binary(self):
        A = builtin_dataset("figure2")
        data = np.asarray(A.data)
        assert set(np.unique(data)) <= {0, 1}
        assert data.shape == (5, 4)

    def test_unknown_dataset(self):
        with pytest.raises(UnknownDataset):
            builtin_dataset("nope")

    def test_lower_triangular_cities_file_matches_builtin(self):
        cities = builtin_dataset("cities")
        D = np.asarray(cities.data)
        lines = ["," + ",".join(f'"{lab}"' for lab in cities.labels)]
        for i, lab in enumerate(cities.labels):
            cells = [f'"{lab}"'] + [str(int(D[i, j])) for j in range(i + 1)]
            lines.append(",".join(cells))
        parsed = parse_square_matrix("\n".join(lines) + "\n", "dissimilarity")
        assert parsed.labels == cities.labels
        np.testing.assert_array_equal(np.asarray(parsed.data), D)


# line boundaries that str.splitlines() splits on besides \n and \r
LINE_BOUNDARIES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestRecordsRefuseUnreadableNames:
    @pytest.mark.parametrize("label", ["a:b", "a;b", "a\tb", "a\nb", "a\rb", " a", "a ", ""]
                             + [f"a{c}b" for c in LINE_BOUNDARIES])
    def test_attribute_label_refused(self, label):
        A = OccurrenceMatrix(("d1",), (label, "z"), [[1, 1]])
        with pytest.raises(ValueError, match="attribute label") as info:
            serialize_records(A)
        assert repr(label) in str(info.value)

    @pytest.mark.parametrize("doc_id", ["#1", "d:1", "d;1", "d\t1", "d\n1", " d1", ""]
                             + [f"d{c}1" for c in LINE_BOUNDARIES])
    def test_document_id_refused(self, doc_id):
        A = OccurrenceMatrix((doc_id,), ("a", "b"), [[1, 0]])
        with pytest.raises(ValueError, match="document id") as info:
            serialize_records(A)
        assert repr(doc_id) in str(info.value)

    def test_inner_space_and_hash_in_label_round_trip(self):
        A = OccurrenceMatrix(("d#1", "d 2"), ("#a", "b c"), [[1, 0], [2, 1]])
        B = parse_records(serialize_records(A))
        assert B.rows == A.rows and B.cols == A.cols
        assert np.array_equal(np.asarray(B.data), np.asarray(A.data))


def per_cell_square_csv(M):
    """Test-only reference: the cell-by-cell serializer the numpy masks replaced.

    Counts are written as exact integers, proximities through float.
    """

    def format_number(v):
        if isinstance(M, CooccurrenceMatrix):
            return str(int(v))
        f = float(v)
        if f == int(f) and abs(f) < 1e15:
            return str(int(f))
        return repr(f)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(M.labels))
    for label, row in zip(M.labels, np.asarray(M.data)):
        writer.writerow([label] + ["" if np.isnan(float(v)) else format_number(v) for v in row])
    return out.getvalue()


class TestSquareSerializerBytes:
    EDGE_VALUES = [np.nan, -0.0, 3.0, -3.0, 1e16, -1e16, 1e15, 999999999999999.0,
                   -999999999999999.0, 0.5, -2.5, 1e-300, 5e-324, 2.0**53 + 2, 0.1 + 0.2]

    def test_edge_values_match_the_per_cell_reference(self):
        rng = np.random.default_rng(21)
        n = 120
        R = np.corrcoef(rng.standard_normal((200, n)), rowvar=False)
        for k, v in enumerate(self.EDGE_VALUES):
            i, j = 2 * k, 2 * k + 1
            R[i, j] = R[j, i] = v
        R[5, 5] = np.nan
        P = ProximityMatrix(tuple(f"v{i}" for i in range(n)), R, kind="similarity")
        text = serialize_square_matrix(P)
        assert text == per_cell_square_csv(P)
        rows = list(csv.reader(io.StringIO(text)))
        cells = [rows[1 + 2 * k][2 + 2 * k] for k in range(5)]
        assert cells == ["", "0", "3", "-3", "1e+16"]
        assert rows[6][6] == ""

    def test_counts_match_the_per_cell_reference(self):
        rng = np.random.default_rng(22)
        C = rng.poisson(3.0, size=(250, 250))
        C = C + C.T
        C[0, 1] = C[1, 0] = 2**53 + 1  # above float64's exact range
        M = CooccurrenceMatrix(tuple(f"a{i}" for i in range(250)), C)
        text = serialize_square_matrix(M)
        assert text == per_cell_square_csv(M)
        assert list(csv.reader(io.StringIO(text)))[1][2] == "9007199254740993"

    def test_dissimilarities_match_the_per_cell_reference(self):
        M = builtin_dataset("cities")
        assert serialize_square_matrix(M) == per_cell_square_csv(M)
        d = np.array([[0.0, 1.5, np.nan], [1.5, 0.0, 2.0], [np.nan, 2.0, 0.0]])
        P = ProximityMatrix(("a", "b,c", "d"), d, kind="dissimilarity")
        assert serialize_square_matrix(P) == per_cell_square_csv(P)
        assert serialize_square_matrix(P) == ',a,"b,c",d\na,0,1.5,\n"b,c",1.5,0,2\nd,,2,0\n'

    # labels the CSV writer must quote, or, if empty, must not quote inside a row
    QUOTED_LABELS = [("",), ('"',), (",",), ("a\nb",), ("", '"'), (",", "a\nb"),
                     ('x"y', ""), ("a\nb", "")]

    @pytest.mark.parametrize("labels", QUOTED_LABELS)
    def test_quoted_labels_match_the_per_cell_reference(self, labels):
        n = len(labels)
        d = np.array([[0.0, 0.1 + 0.2], [0.1 + 0.2, 0.0]])[:n, :n]
        for M in (ProximityMatrix(labels, d, kind="dissimilarity"),
                  ProximityMatrix(labels, 1 - d, kind="similarity"),
                  CooccurrenceMatrix(labels, np.array([[3, 2**53 + 1], [2**53 + 1, 0]])[:n, :n])):
            assert serialize_square_matrix(M) == per_cell_square_csv(M)
        if labels == ("",):
            assert serialize_square_matrix(M) == ",\n,3\n"

    def test_signed_zeros_in_the_two_triangles_both_print_0(self):
        d = np.array([[0.0, -0.0, 0.5], [0.0, 0.0, np.nan], [0.5, np.nan, 0.0]])
        P = ProximityMatrix(("a", "b", "c"), d, kind="similarity")
        assert np.signbit(P.data[0, 1]) and not np.signbit(P.data[1, 0])
        assert serialize_square_matrix(P) == per_cell_square_csv(P) == (
            ",a,b,c\na,0,0,0.5\nb,0,0,\nc,0.5,,0\n")


CSV_UNREADABLE = [" a", "a ", "\ta", "\u2028", "a\rb"]


class TestCsvRefuseUnreadableLabels:
    @pytest.mark.parametrize("label", CSV_UNREADABLE)
    def test_square_label_refused(self, label):
        P = ProximityMatrix((label, "z"), [[0.0, 1.0], [1.0, 0.0]], kind="dissimilarity")
        with pytest.raises(ValueError, match="CSV") as info:
            serialize_square_matrix(P)
        assert repr(label) in str(info.value)

    @pytest.mark.parametrize("label", CSV_UNREADABLE)
    def test_rectangular_row_and_column_labels_refused(self, label):
        for A in (OccurrenceMatrix((label,), ("a", "b"), [[1, 0]]),
                  OccurrenceMatrix(("d",), (label, "b"), [[1, 0]])):
            with pytest.raises(ValueError, match="CSV") as info:
                serialize_rectangular_matrix(A)
            assert repr(label) in str(info.value)


# Round-trip properties over arbitrary text labels: a serializer either
# refuses a label with ValueError or its parser reads back the same labels
# and data.

def unique_labels(min_size):
    return st.lists(st.text(max_size=6), min_size=min_size, max_size=4, unique=True)


def written_or_refused(serialize, M):
    try:
        return serialize(M)
    except ValueError:
        return None


@settings(max_examples=300, deadline=None)
@given(rows=unique_labels(1), cols=unique_labels(2))
@example(rows=["d"], cols=[f"a{c}b" for c in LINE_BOUNDARIES])
@example(rows=[f"d{c}1" for c in LINE_BOUNDARIES], cols=["a", "b"])
def test_records_round_trip_or_refuse(rows, cols):
    cols = sorted(cols)  # the parser orders columns by label
    data = np.arange(len(rows) * len(cols)).reshape(len(rows), len(cols)) % 3
    A = OccurrenceMatrix(rows, cols, data)
    text = written_or_refused(serialize_records, A)
    if text is not None:
        B = parse_records(text)
        assert (B.rows, B.cols) == (A.rows, A.cols)
        assert np.array_equal(np.asarray(B.data), np.asarray(A.data))


@settings(max_examples=300, deadline=None)
@given(labels=unique_labels(2))
@example(labels=CSV_UNREADABLE)
@example(labels=["a\rb", "c"])
@example(labels=["\u2028", "c"])
def test_square_csv_round_trip_or_refuse(labels):
    idx = np.arange(len(labels), dtype=float)
    P = ProximityMatrix(labels, np.abs(idx[:, None] - idx) / 4, kind="dissimilarity")
    text = written_or_refused(serialize_square_matrix, P)
    if text is not None:
        Q = parse_square_matrix(text, "dissimilarity")
        assert Q.labels == P.labels
        assert np.array_equal(np.asarray(Q.data), np.asarray(P.data))


@settings(max_examples=300, deadline=None)
@given(rows=unique_labels(1), cols=unique_labels(2))
@example(rows=[" a"], cols=["a ", "\ta"])
@example(rows=["d"], cols=["\u2028", "a\rb"])
def test_rectangular_csv_round_trip_or_refuse(rows, cols):
    data = np.arange(len(rows) * len(cols)).reshape(len(rows), len(cols)) % 4
    A = OccurrenceMatrix(rows, cols, data)
    text = written_or_refused(serialize_rectangular_matrix, A)
    if text is not None:
        B = parse_rectangular_matrix(text)
        assert (B.rows, B.cols) == (A.rows, A.cols)
        assert np.array_equal(np.asarray(B.data), np.asarray(A.data))


def per_cell_rectangular_csv(A):
    """Reference: the rectangular serializer's former writer, one ``str(int(v))`` per cell."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + list(A.cols))
    for label, row in zip(A.rows, np.asarray(A.data)):
        writer.writerow([label] + [str(int(v)) for v in row])
    return out.getvalue()


@pytest.mark.parametrize("data", [
    np.array([[0, 1, 2], [3, 0, 2**62]], dtype=np.int64),
    np.array([[0, 2**70], [2**64 + 1, 5]], dtype=object),
    np.arange(12).reshape(4, 3) % 2 == 0,
], ids=["int64", "python-ints", "bool"])
def test_rectangular_csv_matches_the_per_cell_reference(data):
    A = OccurrenceMatrix(tuple(f"d,{i}" for i in range(data.shape[0])),
                         tuple(f'a"{j}' for j in range(data.shape[1])), data)
    assert serialize_rectangular_matrix(A) == per_cell_rectangular_csv(A)


def _square(text):
    return parse_square_matrix(text, "dissimilarity")


def _counts(text):
    return parse_square_matrix(text, "counts")


# every error of the parsers: (parser, input text, error, exact message)
PARSE_ERRORS = {
    "records-empty-doc-id": (parse_records, "\tA\n", MalformedLine,
                             "line 1: empty document id"),
    "records-empty-label": (parse_records, "d1\tA;:3\n", MalformedLine,
                            "line 1: empty attribute label"),
    "records-none": (parse_records, "# a comment\n\n", MalformedLine,
                     "line 0: no record lines found"),
    "records-no-tab": (parse_records, "d1\tA;B\nd2 A\n", MalformedLine,
                       "line 2: expected doc_id<TAB>attributes"),
    "records-duplicate-id": (parse_records, "d1\tA\nd2\tB\n d1 \tB\n", DuplicateDocId,
                             "duplicate document id 'd1'"),
    "records-empty-entry": (parse_records, "d1\tA; ;B\n", MalformedLine,
                            "line 1: empty attribute entry"),
    "records-invalid-count": (parse_records, "d1\tA: x ;B\n", MalformedLine,
                              "line 1: invalid count 'x'"),
    "records-negative-count": (parse_records, "d1\tB;A : -2\n", NegativeCount,
                               "line 1: negative count for 'A'"),
    "records-trailing-separator": (parse_records, "d1\tA;B;\n", MalformedLine,
                                   "line 1: empty attribute entry"),
    "records-no-entries": (parse_records, "d1\tA;B\nd2\t\n", MalformedLine,
                           "line 2: empty attribute entry"),
    # the first bad line in file order, and on it the first check in reading order
    "records-bad-line-before-duplicate": (parse_records, "d1\tA\nd2\tA:x\nd1\tB\n",
                                          MalformedLine, "line 2: invalid count 'x'"),
    "records-duplicate-before-bad-entry": (parse_records, "d1\tA\nd1\tA:x\n", DuplicateDocId,
                                           "duplicate document id 'd1'"),
    "records-no-tab-before-duplicate": (parse_records, "d1\tA\nd1 A;B\nd1\tB\n", MalformedLine,
                                        "line 2: expected doc_id<TAB>attributes"),
    "records-empty-entry-before-bad-count": (parse_records, "d1\tA;;B:x\n", MalformedLine,
                                             "line 1: empty attribute entry"),
    "records-bad-count-before-empty-entry": (parse_records, "d1\tB:x;;A\n", MalformedLine,
                                             "line 1: invalid count 'x'"),
    "records-negative-count-before-empty-label": (parse_records, "d1\tA;:-1\n", NegativeCount,
                                                  "line 1: negative count for ''"),
    "records-invalid-count-on-empty-label": (parse_records, "d1\tA; :x\n", MalformedLine,
                                             "line 1: invalid count 'x'"),
    "records-after-comment-blank-and-crlf": (parse_records,
                                             "# c\r\n\r\n \t \r\nd1\tA\r\nd2\tB:-1\r\n",
                                             NegativeCount, "line 5: negative count for 'B'"),
    "records-indented-hash-is-a-comment": (parse_records, "   # d0\tA:x\nd1\tA;B\nbad\n",
                                           MalformedLine,
                                           "line 3: expected doc_id<TAB>attributes"),
    "records-count-past-int64": (parse_records, "d0\tB\nd1\tA:9223372036854775808;B\n",
                                 CountOverflow, "line 2: count for 'A' exceeds the int64 range"),
    "records-sum-past-int64": (parse_records, "d1\tA:9223372036854775807;B;A:1;C:x\n",
                               CountOverflow, "line 1: count for 'A' exceeds the int64 range"),
    "square-empty": (_square, "", MalformedLine, "line 0: empty matrix file"),
    "square-row-count": (_square, ",a,b\na,0,1\n", MalformedLine,
                         "line 0: expected 2 data rows, found 1"),
    "square-extra-cell": (_square, ",a,b\na,0,1,2\nb,1,0\n", MalformedLine,
                          "line 2: more cells than header columns"),
    "square-bad-number": (_square, ",a,b\na,0,\nb,x,0\n", MalformedLine,
                          "line 3: invalid number 'x'"),
    "square-asymmetric": (_square, ",a,b\na,0,0.5\nb,0.5000000001,0\n", AsymmetricInput,
                          "cells (0,1) and (1,0) differ by 1e-10"),
    "counts-infinite": (_counts, ",a,b\na,0,\nb,1e400,0\n", MalformedLine,
                        "line 3: count cell 'a' must be an integer below 2**53, not 1e400"),
    "counts-fraction": (_counts, ",a,b\na,0,1.5\nb,,0\n", MalformedLine,
                        "line 2: count cell 'b' must be an integer below 2**53, not 1.5"),
    "counts-above-2**53": (_counts, ",a,b\na,0,\nb,9007199254740993,0\n", MalformedLine,
                           "line 3: count cell 'a' must be an integer below 2**53, "
                           "not 9007199254740993"),
    "counts-negative": (_counts, ",a,b,c\na,0,,\nb,1,0,\nc,-2,3,0\n", NegativeCount,
                        "line 4: count cell 'a' must be non-negative, not -2"),
    "counts-unresolved": (_counts, ",a,b,c\na,0,,\nb,,0,\nc,1,1,0\n", MalformedLine,
                          "line 2: count cell 'b' is blank in both triangles"),
    "counts-after-blank-line": (_counts, ",a,b\n\na,0,\nb,1.5,0\n", MalformedLine,
                                "line 4: count cell 'a' must be an integer below 2**53, not 1.5"),
    "square-unknown-kind": (lambda text: parse_square_matrix(text, "distance"), ",a\na,0\n",
                            ValueError, "unknown square-matrix kind 'distance'"),
    "matrix-empty": (parse_rectangular_matrix, "\n", MalformedLine, "line 0: empty matrix file"),
    "matrix-cell-count": (parse_rectangular_matrix, ",a,b\nd1,1\n", MalformedLine,
                          "line 2: expected 3 cells, found 2"),
    "matrix-not-integer": (parse_rectangular_matrix, ",a,b\nd1,1,x\n", MalformedLine,
                           "line 2: count cells must be integers"),
    "matrix-after-blank-line": (parse_rectangular_matrix, ",a,b\r\n\r\nd1,1,x\r\n",
                                MalformedLine, "line 3: count cells must be integers"),
    "matrix-negative": (parse_rectangular_matrix, ",a,b\nd1,1,-2\n", NegativeCount,
                        "line 2: negative count"),
    "matrix-past-int64": (parse_rectangular_matrix, ",a,b\nd1,1,2\nd2,0,9223372036854775808\n",
                          CountOverflow, "line 3: count for 'b' exceeds the int64 range"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_is_named(case):
    parse, text, error, message = PARSE_ERRORS[case]
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error
    assert str(err.value) == message
    if error is not ValueError:  # a named error carries its module
        module = "matrices." if error is CountOverflow else "ingest."
        assert err.value.qualified_name == module + error.__name__


def per_line_parse_records(text):
    """Test-only reference: the line-at-a-time record parser the bulk parser replaced."""
    rows, cells, seen, labels = [], [], set(), set()
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
        counts = {}
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
                    raise MalformedLine(line_no, f"invalid count {count_text.strip()!r}") from None
                if count < 0:
                    raise NegativeCount(line_no, f"negative count for {label!r}")
            else:
                label, count = item, 1
            if not label:
                raise MalformedLine(line_no, "empty attribute label")
            counts[label] = counts.get(label, 0) + count
            if counts[label] > 2**63 - 1:
                raise CountOverflow(f"line {line_no}: count for {label!r} exceeds the int64 range")
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


def record_outcome(parse, text):
    """The parsed matrix, or the type and message of the error, which both belong to the contract."""
    try:
        A = parse(text)
    except Exception as exc:  # any error: its type and message must match the reference's
        return type(exc), str(exc)
    data = np.asarray(A.data)
    return A.rows, A.cols, str(data.dtype), data.tolist()


_SPACE = st.sampled_from(["", " ", "  ", "\t", "\x1f", "\u3000"])


def _padded(core):
    return st.tuples(_SPACE, core, _SPACE).map("".join)


_LABEL = st.sampled_from(["A", "B", "c d", "#e", "f\x00"])
_COUNT = st.sampled_from(["0", "1", "2", "17", "+3", "1_0", "\u0663", "\x1f5"])
_ENTRY = st.one_of(_padded(_LABEL), st.tuples(_padded(_LABEL), _padded(_COUNT)).map(":".join))
_BAD_COUNT = st.sampled_from(["-1", "-20", "-0", "x", "", "2:3", "1 2", "9" * 5000])
_BAD_ENTRY = st.one_of(_SPACE, _padded(_COUNT | _BAD_COUNT).map(":".__add__),
                       st.tuples(_padded(_LABEL), _padded(_BAD_COUNT)).map(":".join))
_ID_SPACE = st.sampled_from(["", " ", "\u3000"])  # a tab would end the id
_BAD_ID = st.tuples(_ID_SPACE, st.sampled_from(["d1", "d2", "d3", "d4", "", "#d"]),
                    _SPACE).map("".join)
_GOOD_ID = st.tuples(_ID_SPACE, st.integers(0, 99).map("d{}".format), _SPACE).map("".join)
_OTHER_LINES = ["", " ", "# note", "  #x\tA:-1"]
_BAD_LINES = ["no tab", "d1\tA", "d9\t", "d8\tA;", "\tA"]


@st.composite
def record_texts(draw):
    """Record files with comment, blank and CRLF lines, well formed or with a few flaws."""
    malformed = draw(st.booleans())

    def flawed():  # in a malformed text, one part in eight is bad
        return malformed and draw(st.integers(0, 7)) == 0

    ids = draw(st.lists(_BAD_ID if malformed else _GOOD_ID, min_size=1, max_size=6,
                        unique_by=None if malformed else str.strip))
    lines = []
    for doc_id in ids:
        lines += draw(st.lists(st.sampled_from(_OTHER_LINES), max_size=1))
        entries = [draw(_BAD_ENTRY if flawed() else _ENTRY)
                   for _ in range(draw(st.integers(1, 5)))]
        lines.append(f"{doc_id}\t{';'.join(entries)}")
        if flawed():
            lines.append(draw(st.sampled_from(_BAD_LINES)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@settings(max_examples=500, deadline=None)
@given(text=record_texts())
@example(text="d1\tA:9223372036854775807;A:1;B\n")  # a cell past int64: CountOverflow
@example(text="d1\tA:9223372036854775808;B\n")
@example(text="d1\tA:4611686018427387904;A:4611686018427387903;B\n")  # 2**63 - 1: fits
@example(text="d1\tA:4611686018427387904;B:4611686018427387904\n")
def test_bulk_record_parser_matches_the_per_line_reference(text):
    assert record_outcome(parse_records, text) == record_outcome(per_line_parse_records, text)


# ---------------------------------------------------------------------------
# the streaming CSV readers against the table-based readers they replaced
# ---------------------------------------------------------------------------

def table_csv_rows(text):
    """Test-only reference: every non-empty row of a CSV text at once, with its end line."""
    reader = csv.reader(io.StringIO(text))
    try:
        numbered = [(row, reader.line_num) for row in reader if row]
    except csv.Error as exc:
        raise MalformedLine(reader.line_num, str(exc)) from None
    return [row for row, _ in numbered], [line for _, line in numbered]


def table_parse_square_matrix(text, kind):
    """Test-only reference: the square reader that held every cell of the table as text."""
    table, lines = table_csv_rows(text)
    if not table:
        raise MalformedLine(0, "empty matrix file")
    header = [h.strip() for h in table[0][1:]]
    n = len(header)
    if len(table) != n + 1:
        raise MalformedLine(0, f"expected {n} data rows, found {len(table) - 1}")
    row_labels = [row[0].strip() for row in table[1:]]
    if row_labels != header:
        raise LabelMismatch(f"row labels {row_labels!r} do not match header {header!r}")
    raw = np.full((n, n), np.nan)
    for i, row in enumerate(table[1:]):
        cells = row[1:]
        if len(cells) > n:
            raise MalformedLine(lines[i + 1], "more cells than header columns")
        for j, cell in enumerate(cells):
            cell = cell.strip()
            if cell in ("", "."):
                continue
            try:
                raw[i, j] = float(cell)
            except ValueError:
                raise MalformedLine(lines[i + 1], f"invalid number {cell!r}") from None
    missing = np.isnan(raw)
    with np.errstate(invalid="ignore"):
        conflict = np.triu(~missing & ~missing.T & (np.abs(raw - raw.T) > 1e-12), 1)
    if conflict.any():
        i, j = (int(k) for k in np.argwhere(conflict)[0])
        raise AsymmetricInput(i, j, abs(raw[i, j] - raw[j, i]))
    data = np.where(missing, raw.T, raw)
    diag = np.diagonal(data)
    np.fill_diagonal(data, np.where(np.isnan(diag), 1.0 if kind == "similarity" else 0.0, diag))
    if kind == "counts":
        whole = np.isfinite(raw) & (raw == np.floor(raw)) & (np.abs(raw) < 2**53)
        for bad, error, message in (
                (~missing & ~whole, MalformedLine, "must be an integer below 2**53, not {}"),
                (raw < 0, NegativeCount, "must be non-negative, not {}"),
                (np.isnan(data), MalformedLine, "is blank in both triangles")):
            if bad.any():
                i, j = (int(k) for k in np.argwhere(bad)[0])
                row = table[i + 1]
                written = row[j + 1].strip() if j + 1 < len(row) else ""
                raise error(lines[i + 1], f"count cell {header[j]!r} " + message.format(written))
        return CooccurrenceMatrix(tuple(header), data.astype(np.int64))
    if kind not in ("similarity", "dissimilarity"):
        raise ValueError(f"unknown square-matrix kind {kind!r}")
    return ProximityMatrix(tuple(header), data, kind=kind)


def table_parse_rectangular_matrix(text):
    """Test-only reference: the rectangular reader that held every count as a Python int."""
    table, lines = table_csv_rows(text)
    if not table:
        raise MalformedLine(0, "empty matrix file")
    cols = tuple(h.strip() for h in table[0][1:])
    rows, data = [], []
    for line_no, row in zip(lines[1:], table[1:]):
        if len(row) != len(cols) + 1:
            raise MalformedLine(line_no, f"expected {len(cols) + 1} cells, found {len(row)}")
        rows.append(row[0].strip())
        try:
            values = [int(cell.strip()) for cell in row[1:]]
        except ValueError:
            raise MalformedLine(line_no, "count cells must be integers") from None
        if any(v < 0 for v in values):
            raise NegativeCount(line_no, "negative count")
        if max(values, default=0) > 2**63 - 1:
            label = next(c for c, v in zip(cols, values) if v > 2**63 - 1)
            raise CountOverflow(f"line {line_no}: count for {label!r} exceeds the int64 range")
        data.append(values)
    return OccurrenceMatrix(tuple(rows), cols, np.array(data, dtype=np.int64))


def csv_outcome(parse, text):
    """The parsed matrix bit for bit, or the type and message (with its line) of the error."""
    try:
        M = parse(text)
    except Exception as exc:  # any error: its type and message must match the reference's
        return type(exc), str(exc)
    data = np.asarray(M.data)
    labels = (M.rows, M.cols) if isinstance(M, OccurrenceMatrix) else M.labels
    return type(M), getattr(M, "kind", None), labels, data.dtype.str, data.shape, data.tobytes()


# labels a CSV writer quotes (a comma, a doubled quote, a line break), padded ones and plain ones
_CSV_LABELS = ["a", "b", "c,d", 'e"f', "g\nh", " i ", "j\r\nk", "", "\x0cl", "m\nn,o"]
# cells that read as numbers, and edge values: negative, not finite, at or past 2**53 and int64
_SQUARE_CELLS = ["0", "1", "2", "17", " 1.5 ", "2.5", "-0", "1_0", "0.1", "9007199254740991"]
_EDGE_CELLS = ["-1", "nan", "inf", "1e400", "9007199254740992", "9007199254740993",
               "9223372036854775808"]
_BLANK_CELLS = ["", ".", " . ", " "]
_BAD_CELLS = ["x", "1,5", "--1", "1e", "0x10"]
# blank lines, and lines that break the CSV syntax or join the lines after them
_RAW_LINES = ["", "\r", " ", "a\rb,1", '"open', 'x,"y"z']


def _rare(draw, common, rare, one_in=8):
    """A draw from ``rare`` one time in ``one_in``, else from ``common``; the
    minimal draw, which hypothesis makes often, is a common one."""
    return draw(st.sampled_from(rare if draw(st.integers(1, one_in)) == one_in else common))


def _write_rows(draw, rows):
    """CSV text for ``rows``, with drawn line ends, blank or raw lines, and final newline."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO()
    csv.writer(out, lineterminator=end).writerows(rows)
    lines = out.getvalue().split(end)[:-1]  # a quoted field's own line break stays inside
    if draw(st.integers(0, 3)) == 3:
        for _ in range(draw(st.integers(1, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_RAW_LINES)))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


@st.composite
def square_csv_texts(draw):
    """Square CSV files, mostly well formed: symmetric cells, some blank in one
    triangle, and now and then a flaw (an edge or bad cell, a short, long,
    extra or missing row, a renamed row)."""
    n = draw(st.integers(1, 4))
    labels = draw(st.lists(st.sampled_from(_CSV_LABELS), min_size=n, max_size=n, unique=True))
    cells = [[""] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            cells[i][j] = cells[j][i] = _rare(draw, _SQUARE_CELLS, _EDGE_CELLS, one_in=24)
        cells[i][i] = _rare(draw, ["0", "1"], _SQUARE_CELLS + _EDGE_CELLS, one_in=16)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        cells[i][j] = _rare(draw, _BLANK_CELLS, _BAD_CELLS + _SQUARE_CELLS)
    rows = [[""] + labels] + [[label] + row for label, row in zip(labels, cells)]
    flaw = _rare(draw, ["none"], ["short", "long", "extra", "missing", "renamed"], one_in=4)
    k = draw(st.integers(1, n))
    if flaw == "short":
        rows[k] = rows[k][:draw(st.integers(1, n))]
    elif flaw == "long":
        rows[k] = rows[k] + [draw(st.sampled_from(_SQUARE_CELLS + _BLANK_CELLS))]
    elif flaw == "extra":
        rows.append(["z"] + cells[0])
    elif flaw == "missing":
        del rows[k]
    elif flaw == "renamed":
        rows[k] = ["zz"] + rows[k][1:]
    return _write_rows(draw, rows)


_COUNT_CELLS = ["0", "1", "2", " 3 ", "+4", "1_0", "\u0663", "9223372036854775807"]
_BAD_COUNT_CELLS = ["-1", "x", "", "1.5", ".", "9223372036854775808", "9" * 30]


@st.composite
def rectangular_csv_texts(draw):
    """Rectangular count CSV files, mostly well formed, with a few bad cells or ragged rows."""
    cols = draw(st.lists(st.sampled_from(_CSV_LABELS), min_size=1, max_size=4, unique=True))
    docs = draw(st.lists(st.sampled_from(_CSV_LABELS + ["d1", "d2"]), min_size=1, max_size=5,
                         unique=True))
    rows = [[""] + cols]
    for doc in docs:
        cells = [draw(st.sampled_from(_COUNT_CELLS)) for _ in cols]
        if draw(st.integers(0, 5)) == 5:
            cells[draw(st.integers(0, len(cols) - 1))] = draw(st.sampled_from(_BAD_COUNT_CELLS))
        if draw(st.integers(0, 7)) == 7:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        rows.append([doc] + cells)
    return _write_rows(draw, rows)


# a label mismatch and a bad cell in one file: the mismatch is raised
PRECEDENCE_TEXT = ",a,b\na,0,x\nc,1,0\n"


@settings(max_examples=600, deadline=None)
@given(text=square_csv_texts(), kind=st.sampled_from(["similarity", "dissimilarity", "counts"]))
@example(text=PRECEDENCE_TEXT, kind="dissimilarity")
@example(text=',"a,b","c""d"\r\n"a,b",0,\r\n"c""d",1,0', kind="counts")
@example(text=',a,"b\nc"\na,0,.\n"b\nc",9007199254740992,0\n', kind="counts")
@example(text=",a,b\na,0,\nb,9223372036854775808,0\n", kind="counts")
@example(text=",a,b\na,,1\nb,1,\n", kind="counts")
@example(text=",a,b\na,0,\x0c1\nb,,0\n\n", kind="similarity")
@example(text=",a,b\na,0,1\nb,1,0\n,\n", kind="dissimilarity")
@example(text=',a,b\na,0,1\nb,1,"0\n', kind="dissimilarity")
def test_square_reader_matches_the_table_reader(text, kind):
    expected = csv_outcome(lambda t: table_parse_square_matrix(t, kind), text)
    assert csv_outcome(lambda t: parse_square_matrix(t, kind), text) == expected


@settings(max_examples=600, deadline=None)
@given(text=rectangular_csv_texts())
@example(text=",a,b\n")
@example(text="x\nd1\n")
@example(text=',"a,b",c\r\n"d""1",1,2\r\nd2,1,x\r\nd3,"1')
@example(text=",a,b\nd1,-1,x\nd2,1\n")
@example(text=",a,b\nd1,9223372036854775808,1\nd2,1,\"2")
def test_rectangular_reader_matches_the_table_reader(text):
    expected = csv_outcome(table_parse_rectangular_matrix, text)
    assert csv_outcome(parse_rectangular_matrix, text) == expected


def test_a_held_cell_error_yields_to_a_later_csv_error():
    # the bad cell on line 2 is found first, but a CSV syntax error anywhere comes first
    with pytest.raises(MalformedLine, match="^line 4: ") as err:
        parse_square_matrix(",a,b\na,0,x\nb,1,0\nc\rd\n", "dissimilarity")
    assert "invalid number" not in str(err.value)
    with pytest.raises(MalformedLine, match="^line 4: ") as err:
        parse_rectangular_matrix(",a,b\nd1,1,x\nd2,1,0\nc\rd\n")
    assert "integers" not in str(err.value)


def test_a_bad_count_is_quoted_from_its_own_row():
    # the row of the bad cell starts on the line before it ends, in a quoted label
    # whose second line, read as a row, would put other text in the cell's place
    text = ',a,"b\nc,d"\r\na,0,\r\n"b\nc,d", 1.5 ,0\r\n'
    with pytest.raises(MalformedLine) as err:
        parse_square_matrix(text, "counts")
    assert str(err.value) == "line 5: count cell 'a' must be an integer below 2**53, not 1.5"


def test_square_reader_peak_under_eight_results(traced_peak):
    # 300 x 300 cells of about 18 characters: the table-based reader held every
    # cell as a string, 13.1 MiB at peak for a 0.69 MiB result (19x); read
    # row by row, the peak is 2.5 MiB (3.6x), in the matrix's own checks
    rng = np.random.default_rng(24)
    n = 300
    d = np.abs(rng.standard_normal((n, n)))
    d = np.triu(d, 1) + np.triu(d, 1).T
    text = serialize_square_matrix(
        ProximityMatrix(tuple(f"p{i}" for i in range(n)), d, kind="dissimilarity"))
    P, peak = traced_peak(lambda: parse_square_matrix(text, "dissimilarity"))
    assert np.array_equal(P.data, d)
    assert peak < 8 * P.data.nbytes


@pytest.mark.parametrize("rows", ["", "p0,1\n", "p0,1\np1,2\rx\n"])
def test_a_long_header_over_few_rows_makes_no_square_array(rows, traced_peak):
    # 3000 columns would ask for a 68.7 MiB array; a text with fewer lines than
    # columns fails the row count, or its CSV syntax first, without making it
    text = ",".join(["", *(f"p{j}" for j in range(3000))]) + "\n" + rows
    with pytest.raises(MalformedLine) as want:
        table_parse_square_matrix(text, "dissimilarity")
    got, peak = traced_peak(lambda: pytest.raises(MalformedLine, parse_square_matrix,
                                                  text, "dissimilarity"))
    assert str(got.value) == str(want.value)
    assert peak < 1024 * 1024


def test_rectangular_reader_peak_under_two_and_a_half_results(traced_peak):
    # 4000 x 120 counts of 0-2: the table-based reader held them as lists of
    # Python ints, 16.2 MiB at peak for a 3.66 MiB result (4.4x); read row by
    # row into the kept array, the peak is 4.1 MiB (1.1x)
    rng = np.random.default_rng(25)
    counts = rng.integers(0, 3, size=(4000, 120))
    text = serialize_rectangular_matrix(OccurrenceMatrix(
        tuple(f"d{i}" for i in range(4000)), tuple(f"a{j}" for j in range(120)), counts))
    A, peak = traced_peak(lambda: parse_rectangular_matrix(text))
    assert np.array_equal(A.data, counts)
    assert peak < 2.5 * A.data.nbytes
