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
        assert M.diagonal_policy == "zeroed"

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
    """Test-only reference: the cell-by-cell serializer the numpy masks replaced."""

    def format_number(v):
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
        assert serialize_square_matrix(M) == per_cell_square_csv(M)

    def test_dissimilarities_match_the_per_cell_reference(self):
        M = builtin_dataset("cities")
        assert serialize_square_matrix(M) == per_cell_square_csv(M)
        d = np.array([[0.0, 1.5, np.nan], [1.5, 0.0, 2.0], [np.nan, 2.0, 0.0]])
        P = ProximityMatrix(("a", "b,c", "d"), d, kind="dissimilarity")
        assert serialize_square_matrix(P) == per_cell_square_csv(P)
        assert serialize_square_matrix(P) == ',a,"b,c",d\na,0,1.5,\n"b,c",1.5,0,2\nd,,2,0\n'


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
