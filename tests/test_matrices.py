"""Matrix types and the occurrence -> co-occurrence derivations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cocmap import (
    CooccurrenceMatrix,
    CountOverflow,
    OccurrenceMatrix,
    ProximityMatrix,
    affiliations,
    binarize,
    builtin_dataset,
    cooccurrence,
    parse_records,
    pearson_columns,
)
from cocmap.ingest import _read_records
from cocmap.matrices import _as_labels, _freeze, count_product


def brute_force_cooccurrence(data, diagonal_policy="raw"):
    """Independent oracle: double loop over documents and attribute pairs."""
    data = np.asarray(data)
    n_docs, n_attrs = data.shape
    out = np.zeros((n_attrs, n_attrs), dtype=np.int64)
    for i in range(n_attrs):
        for j in range(n_attrs):
            if i == j:
                if diagonal_policy == "raw":
                    out[i, i] = sum(1 for d in range(n_docs) if data[d, i] > 0)
                continue
            out[i, j] = sum(
                1 for d in range(n_docs) if data[d, i] > 0 and data[d, j] > 0
            )
    return out


def brute_force_affiliations(data):
    """Independent oracle: direct double sum of count products."""
    data = np.asarray(data)
    n_docs, n_attrs = data.shape
    out = np.zeros((n_attrs, n_attrs), dtype=np.int64)
    for i in range(n_attrs):
        for j in range(n_attrs):
            out[i, j] = sum(int(data[d, i]) * int(data[d, j]) for d in range(n_docs))
    return out


class TestOccurrenceMatrix:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            OccurrenceMatrix(("d1", "d1"), ("A", "B"), [[1, 0], [0, 1]])

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            OccurrenceMatrix(("d1",), ("A", "B"), [[1, -1]])

    def test_rejects_single_attribute(self):
        with pytest.raises(ValueError):
            OccurrenceMatrix(("d1",), ("A",), [[1]])

    def test_rejects_fractional_counts(self):
        with pytest.raises(ValueError):
            OccurrenceMatrix(("d1",), ("A", "B"), [[1.5, 0]])

    def test_integral_floats_become_int64_counts(self):
        A = OccurrenceMatrix(("d1", "d2"), ("A", "B"), [[1.0, 0.0], [2.0, 3.0]])
        assert A.data.dtype == np.int64
        assert A.data.tolist() == [[1, 0], [2, 3]]
        assert (A.n_docs, A.n_attrs) == (2, 2)

    def test_python_integers_that_fit_become_int64(self):
        fits = np.array([[1, 2**63 - 1]], dtype=object)
        assert OccurrenceMatrix(("d1",), ("A", "B"), fits).data.dtype == np.int64
        past = np.array([[1, 2**63]], dtype=object)
        A = OccurrenceMatrix(("d1",), ("A", "B"), past)
        assert A.data.dtype == object
        assert A.data.tolist() == [[1, 2**63]]

    @pytest.mark.parametrize("data", [np.array([[3.0, 2**70]], dtype=object), [[2**70, 3.0]]])
    def test_integral_python_floats_among_large_integers_are_exact_counts(self, data):
        A = OccurrenceMatrix(("d1",), ("A", "B"), data)
        assert A.data.dtype == object
        assert all(type(v) is int for v in A.data.flat)
        assert sorted(A.data.flat) == [3, 2**70]

    def test_data_is_immutable(self):
        A = builtin_dataset("figure2")
        with pytest.raises(ValueError):
            A.data[0, 0] = 9


class TestCooccurrenceMatrix:
    def test_rejects_asymmetric_data(self):
        with pytest.raises(ValueError):
            CooccurrenceMatrix(("A", "B"), [[0, 1], [2, 0]])

    def test_size_is_the_label_count(self):
        assert CooccurrenceMatrix(("A", "B", "C"), np.eye(3, dtype=np.int64)).n == 3


class TestProximityMatrix:
    def test_rejects_asymmetry_beyond_tolerance(self):
        with pytest.raises(ValueError):
            ProximityMatrix(("a", "b"), [[0.0, 1.0], [1.0 + 1e-6, 0.0]], kind="similarity")

    def test_missing_pairs_neither_hide_nor_make_asymmetry(self):
        gap = [[0.0, np.nan, 1.0], [np.nan, 0.0, 2.0], [1.0, 2.0 + 1e-6, 0.0]]
        with pytest.raises(ValueError, match="symmetric within 1e-12"):
            ProximityMatrix(("a", "b", "c"), gap, kind="similarity")
        missing = np.full((3, 3), np.nan)
        assert np.isnan(ProximityMatrix(("a", "b", "c"), missing, kind="similarity").data).all()

    def test_dissimilarity_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            ProximityMatrix(("a", "b"), [[0.0, -0.5], [-0.5, 0.0]], kind="dissimilarity")

    def test_dissimilarity_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            ProximityMatrix(("a", "b"), [[1.0, 0.5], [0.5, 0.0]], kind="dissimilarity")

    def test_missing_entries_must_be_symmetric(self):
        data = [[0.0, np.nan], [0.5, 0.0]]
        with pytest.raises(ValueError):
            ProximityMatrix(("a", "b"), data, kind="dissimilarity")

    @pytest.mark.parametrize("kind", ["similarity", "dissimilarity"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinite_entries(self, kind, bad):
        data = [[0.0, bad], [bad, 0.0]]
        with pytest.raises(ValueError, match="infinite"):
            ProximityMatrix(("a", "b"), data, kind=kind)

    def test_nan_still_marks_missing(self):
        data = [[0.0, np.nan, 1.0], [np.nan, 0.0, 2.0], [1.0, 2.0, 0.0]]
        P = ProximityMatrix(("a", "b", "c"), data, kind="dissimilarity")
        assert np.isnan(P.data[0, 1])


class TestCooccurrence:
    def test_pair_counts_from_citation_table(self):
        # expectations computed with the enumeration oracle on the bundled rows
        A = builtin_dataset("figure2")
        C = cooccurrence(A)
        i = {lab: k for k, lab in enumerate(C.labels)}
        assert C.data[i["A"], i["B"]] == 3
        assert C.data[i["A"], i["C"]] == 0
        assert np.array_equal(np.asarray(C.data), brute_force_cooccurrence(A.data))

    def test_raw_diagonal_counts_documents(self):
        A = builtin_dataset("figure2")
        C = cooccurrence(A, "raw")
        present = np.asarray(A.data) > 0
        assert np.array_equal(np.diagonal(C.data), present.sum(axis=0))

    def test_zeroed_diagonal(self):
        A = builtin_dataset("figure2")
        C = cooccurrence(A, "zeroed")
        assert not np.diagonal(C.data).any()
        raw = np.asarray(cooccurrence(A, "raw").data)
        assert np.array_equal(np.asarray(C.data), raw - np.diag(np.diagonal(raw)))

    def test_matches_oracle_on_random_binary_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n_docs = int(rng.integers(1, 13))
            n_attrs = int(rng.integers(2, 9))
            data = (rng.random((n_docs, n_attrs)) < 0.4).astype(np.int64)
            A = OccurrenceMatrix(
                tuple(f"d{i}" for i in range(n_docs)),
                tuple(f"a{j}" for j in range(n_attrs)),
                data,
            )
            for policy in ("raw", "zeroed"):
                got = np.asarray(cooccurrence(A, policy).data)
                assert np.array_equal(got, brute_force_cooccurrence(data, policy))

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 5, size=(9, 6))
        A = OccurrenceMatrix(
            tuple(f"d{i}" for i in range(9)), tuple(f"a{j}" for j in range(6)), data
        )
        C = np.asarray(cooccurrence(A).data)
        assert np.array_equal(C, C.T)


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 50), st.integers(2, 50)).flatmap(
    lambda shape: arrays(np.int64, shape, elements=st.integers(0, 3))),
    st.sampled_from(["raw", "zeroed"]))
def test_cooccurrence_matches_a_set_count_oracle(data, policy):
    n_docs, n_attrs = data.shape
    A = OccurrenceMatrix(tuple(f"d{i}" for i in range(n_docs)),
                         tuple(f"a{j}" for j in range(n_attrs)), data)
    # the set of documents citing each attribute
    cited_by = [{d for d in range(n_docs) if data[d, j] > 0} for j in range(n_attrs)]
    expected = [[len(s & t) if i != j or policy == "raw" else 0 for j, t in enumerate(cited_by)]
                for i, s in enumerate(cited_by)]
    C = cooccurrence(A, policy)
    assert np.array_equal(np.asarray(C.data), np.array(expected))


class TestAffiliations:
    def test_single_document_products(self):
        # one attribute occurring twice next to one occurring three times
        A = OccurrenceMatrix(("d1",), ("x", "y"), [[2, 3]])
        F = affiliations(A)
        assert F.data[0, 1] == 6
        C = cooccurrence(A)
        assert C.data[0, 1] == 1

    def test_binary_input_equals_cooccurrence(self):
        rng = np.random.default_rng(11)
        data = (rng.random((10, 5)) < 0.5).astype(np.int64)
        A = OccurrenceMatrix(
            tuple(f"d{i}" for i in range(10)), tuple(f"a{j}" for j in range(5)), data
        )
        assert np.array_equal(
            np.asarray(affiliations(A).data), np.asarray(cooccurrence(A, "raw").data)
        )

    def test_small_count_matrix(self):
        A = OccurrenceMatrix(("d1", "d2"), ("a", "b"), [[2, 1], [0, 3]])
        F = affiliations(A)
        assert F.data[0, 1] == 2 * 1 + 0 * 3
        assert F.data[0, 0] == 4
        assert F.data[1, 1] == 1 + 9

    def test_matches_oracle_on_random_count_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n_docs = int(rng.integers(1, 10))
            n_attrs = int(rng.integers(2, 7))
            data = rng.integers(0, 6, size=(n_docs, n_attrs))
            A = OccurrenceMatrix(
                tuple(f"d{i}" for i in range(n_docs)),
                tuple(f"a{j}" for j in range(n_attrs)),
                data,
            )
            assert np.array_equal(
                np.asarray(affiliations(A).data), brute_force_affiliations(data)
            )

    def test_dominates_cooccurrence_off_diagonal(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            data = rng.integers(0, 4, size=(8, 5))
            A = OccurrenceMatrix(
                tuple(f"d{i}" for i in range(8)), tuple(f"a{j}" for j in range(5)), data
            )
            F = np.asarray(affiliations(A).data)
            C = np.asarray(cooccurrence(A).data)
            off = ~np.eye(5, dtype=bool)
            assert np.all(F[off] >= C[off])

    def test_overflow_is_reported(self):
        big = 2**33
        A = OccurrenceMatrix(
            ("d1", "d2"), ("a", "b"), np.array([[big, big], [big, big]], dtype=object)
        )
        with pytest.raises(CountOverflow):
            affiliations(A)

    def test_overflow_names_the_first_pair_in_row_major_order(self):
        # (a, c) = 2^65 and (b, b) = 2^66 overflow; (a, a) and (a, b) fit
        A = OccurrenceMatrix(("d1",), ("a", "b", "c"), np.array([[2**30, 2**33, 2**35]]))
        with pytest.raises(CountOverflow, match=r"count for \('a', 'c'\)"):
            affiliations(A)

    def test_values_beyond_int64_still_exact(self):
        big = 2**31
        data = np.full((2, 2), big, dtype=np.int64)
        A = OccurrenceMatrix(("d1", "d2"), ("a", "b"), data)
        F = affiliations(A)
        assert int(F.data[0, 1]) == 2 * big * big  # 2^63, above int64 max


def realistic_counts(seed, n_docs=2000, n_attrs=80):
    """Sparse citation counts: a few cited attributes per document."""
    rng = np.random.default_rng(seed)
    data = rng.poisson(0.08, size=(n_docs, n_attrs)) * rng.integers(1, 4, size=(n_docs, n_attrs))
    return OccurrenceMatrix(
        tuple(f"d{i}" for i in range(n_docs)), tuple(f"a{j}" for j in range(n_attrs)), data
    )


class TestCountProductAtRealisticSize:
    def test_cooccurrence_matches_support_intersections(self):
        A = realistic_counts(21)
        data = np.asarray(A.data)
        supports = [set(np.flatnonzero(data[:, j]).tolist()) for j in range(A.n_attrs)]
        expected = np.array([[len(s & t) for t in supports] for s in supports])
        got = np.asarray(cooccurrence(A).data)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_affiliations_match_summed_outer_products(self):
        A = realistic_counts(22)
        expected = np.zeros((A.n_attrs, A.n_attrs), dtype=np.int64)
        for row in np.asarray(A.data):
            expected += np.outer(row, row)
        got = np.asarray(affiliations(A).data)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)


class TestCountProductExactness:
    def test_bound_just_above_float_range_takes_exact_path(self):
        # n_docs * max**2 = 2 * (2**26 + 1)**2 = 2**53 + 2**28 + 2
        a = 2**26 + 1
        A = OccurrenceMatrix(("d1", "d2"), ("x", "y"), np.array([[a, a], [a, a - 1]]))
        F = np.asarray(affiliations(A).data)
        assert F.dtype == np.int64
        off = a * a + a * (a - 1)
        assert float(off) != off  # float64 BLAS would have rounded this entry
        assert F[0, 1] == F[1, 0] == off
        assert F[0, 0] == 2 * a * a
        assert F[1, 1] == a * a + (a - 1) ** 2

    def test_bound_just_below_float_range_uses_blas_exactly(self):
        # n_docs * max**2 = 2 * (2**26 - 1)**2 < 2**53
        a = 2**26 - 1
        A = OccurrenceMatrix(("d1", "d2"), ("x", "y"), np.array([[a, a], [a, a - 1]]))
        F = np.asarray(affiliations(A).data)
        assert F.dtype == np.int64
        assert int(F[0, 1]) == a * a + a * (a - 1)
        assert int(F[1, 1]) == a * a + (a - 1) ** 2

    def test_counts_past_the_float_bound_sum_in_int64(self):
        # 600 * max**2 passes 2**53 where max > 3.875e6; every product stays below 2**63
        data = np.random.default_rng(9).integers(0, 4 * 10**6, size=(600, 40))
        assert 600 * int(data.max()) ** 2 >= 2**53
        G = count_product(data)
        assert G.dtype == np.int64
        assert G.tolist() == python_integer_product(data)

    @pytest.mark.parametrize("n_docs, top, dtype", [
        (1, 3037000499, np.int64),  # 3037000499**2 < 2**63 <= 3037000500**2
        (1, 3037000500, object),
        (2, 2**31 - 1, np.int64),   # 2 * (2**31)**2 == 2**63
        (2, 2**31, object),
    ])
    def test_int64_bound_sides(self, n_docs, top, dtype):
        data = np.array([[top, top - 1, 1]] * n_docs)
        G = count_product(data)
        assert G.dtype == dtype
        assert G.tolist() == python_integer_product(data)
        assert int(G[0, 0]) == n_docs * top * top


def python_integer_product(data):
    """Reference: ``data.T @ data`` summed in Python integers, as nested lists."""
    cols = list(zip(*np.asarray(data).tolist()))
    return [[sum(int(a) * int(b) for a, b in zip(u, v)) for v in cols] for u in cols]


@st.composite
def count_arrays(draw):
    """Counts of 1-62 bits over 1-300 documents; one array in three is Python integers
    shifted up by 1-40 bits, mostly past int64."""
    shape = (draw(st.integers(1, 300)), draw(st.integers(1, 6)))
    bits = draw(st.integers(1, 62))
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed).integers(0, 2**bits, size=shape, dtype=np.int64)
    if draw(st.integers(0, 2)) == 0:
        data = data.astype(object) * 2 ** draw(st.integers(1, 40)) + 1
    return data


@settings(max_examples=150, deadline=None)
@given(count_arrays())
def test_count_product_matches_python_integers(data):
    G = count_product(data)
    top = int(data.max())
    assert G.dtype == (np.int64 if data.shape[0] * top * top < 2**63 else object)
    assert G.tolist() == python_integer_product(data)


class TestBinarize:
    def test_bundled_cocitation_matrix_becomes_complete(self):
        M = builtin_dataset("figure1")
        B = binarize(M)
        off = ~np.eye(4, dtype=bool)
        assert np.all(np.asarray(B.data)[off] == 1)
        assert not np.diagonal(B.data).any()

    def test_zero_matrix_unchanged(self):
        M = CooccurrenceMatrix(("a", "b"), [[0, 0], [0, 0]])
        assert not np.asarray(binarize(M).data).any()

    def test_mixed_counts_become_indicators(self):
        data = np.array([[2, 0, 7], [0, 1, 0], [7, 0, 0]])
        M = CooccurrenceMatrix(("a", "b", "c"), data)
        assert np.array_equal(np.asarray(binarize(M).data), (data > 0).astype(int))


def _read_only_view(a):
    view = a.view()
    view.flags.writeable = False
    return view


def _frozen_copies():
    """(name, caller's array, build the object from it, read the object's array)."""
    from cocmap import Configuration, LayoutResult, LoadingsMatrix

    counts = np.array([[1, 0], [2, 3]], dtype=np.int64)
    sym = np.array([[2, 1], [1, 2]], dtype=np.int64)
    sim = np.array([[1.0, 0.5], [0.5, 1.0]])
    dis = np.array([[0.0, 0.5], [0.5, 0.0]])
    coords = np.array([[0.5, -0.5], [-0.5, 0.5]])
    loadings = np.array([[0.6], [0.8]])
    return [
        ("occurrence", counts, lambda a: OccurrenceMatrix(("d1", "d2"), ("x", "y"), a),
         lambda m: m.data),
        ("cooccurrence", sym, lambda a: CooccurrenceMatrix(("x", "y"), a), lambda m: m.data),
        ("similarity", sim, lambda a: ProximityMatrix(("x", "y"), a, kind="similarity"),
         lambda m: m.data),
        ("dissimilarity", dis, lambda a: ProximityMatrix(("x", "y"), a, kind="dissimilarity"),
         lambda m: m.data),
        ("configuration", coords, lambda a: Configuration(("x", "y"), a, 0.0, 1, True),
         lambda c: c.coords),
        ("layout", coords.copy(), lambda a: LayoutResult(a, 0.0, 0), lambda r: r.positions),
        ("loadings", loadings, lambda a: LoadingsMatrix(("x", "y"), a, (1.0,), (50.0,)),
         lambda m: m.loadings),
        # read-only, but a view: the caller can still write through its own array
        ("occurrence-read-only-view", counts.copy(),
         lambda a: OccurrenceMatrix(("d1", "d2"), ("x", "y"), _read_only_view(a)),
         lambda m: m.data),
        # count_product's own array is the caller's until a derivation freezes it
        ("cooccurrence-of-count-product", count_product(counts),
         lambda a: CooccurrenceMatrix(("x", "y"), a), lambda m: m.data),
    ]


@pytest.mark.parametrize("case", _frozen_copies(), ids=lambda case: case[0])
def test_construction_leaves_the_callers_array_writeable(case):
    _, array, build, stored = case
    obj = build(array)
    before = np.array(stored(obj))
    assert array.flags.writeable
    assert not stored(obj).flags.writeable
    assert not np.shares_memory(stored(obj), array)
    array[0, 0] += 1
    assert np.array_equal(stored(obj), before)


def test_construction_keeps_a_frozen_array():
    ids, cols, counts = _read_records("d1\tx;y:2\nd2\ty\n")
    assert not counts.flags.writeable
    assert OccurrenceMatrix(ids, cols, counts).data is counts
    product = _freeze(count_product(counts))
    assert CooccurrenceMatrix(cols, product).data is product


def test_a_frozen_array_out_of_c_order_is_copied():
    counts = np.asfortranarray([[1, 0], [2, 3]])
    counts.flags.writeable = False
    stored = OccurrenceMatrix(("d1", "d2"), ("x", "y"), counts).data
    assert stored is not counts and stored.flags.c_contiguous and not stored.flags.writeable


def test_wrapping_frozen_counts_allocates_nothing_their_size(traced_peak):
    # a kept, frozen 4000 x 120 int64 array (3.66 MiB): the sign check made a
    # boolean per count, 0.46 MiB; min and max make none.  The bound is taken
    # beyond the labels' own duplicate check, whose set of 4000 labels alone
    # peaks at 192 KiB.
    rows = tuple(f"d{i}" for i in range(4000))
    cols = tuple(f"a{j}" for j in range(120))
    counts = np.random.default_rng(27).integers(0, 3, size=(4000, 120))
    counts.flags.writeable = False
    labels_peak = traced_peak(lambda: (_as_labels(rows, "row"), _as_labels(cols, "column")))[1]
    A, peak = traced_peak(lambda: OccurrenceMatrix(rows, cols, counts))
    assert A.data is counts
    assert peak < labels_peak + 64 * 1024


def _records_text(docs, attrs, seed):
    rng = np.random.default_rng(seed)
    lines = []
    for d in range(docs):
        k = int(rng.integers(2, 11))
        labels, counts = rng.choice(attrs, size=k, replace=False), rng.integers(1, 4, size=k)
        lines.append(f"d{d}\t" + ";".join(f"a{j}:{c}" for j, c in zip(labels, counts)))
    return "\n".join(lines) + "\n"


def test_parse_and_pearson_peak_under_three_copies_of_the_counts(traced_peak):
    # the counts are 4000 x 120 int64 (3.7 MiB); the parsed array is kept and
    # count_product makes one float64 copy, so the peak was 7.9 MiB.  Copying
    # the parsed counts into the matrix and centering a float copy for Pearson
    # (a float copy, a centered copy and its square) peaked at 14.9 MiB.
    text = _records_text(4000, 120, seed=7)

    def parse_and_correlate():
        A = parse_records(text)
        pearson_columns(A)
        return A

    A, peak = traced_peak(parse_and_correlate)
    assert A.data.shape == (4000, 120)
    assert peak < 3 * A.data.nbytes


_FIGURE2 = builtin_dataset("figure2")

# every check of the module's arguments: (call, error, exact message)
MATRIX_ERRORS = {
    "count-dtype": (lambda: OccurrenceMatrix(("d",), ("a", "b"), np.array([["1", "2"]])),
                    ValueError, "count matrix entries must be integers"),
    "count-object-fraction": (lambda: OccurrenceMatrix(("d",), ("a", "b"),
                                                       np.array([[1.5, 2**70]], dtype=object)),
                              ValueError, "count matrix entries must be integers"),
    "count-float-infinite": (lambda: OccurrenceMatrix(("d",), ("a", "b"), [[np.inf, 0.0]]),
                             ValueError, "float count matrix entries must be below 2**63"),
    "count-float-negative-infinite": (lambda: OccurrenceMatrix(("d",), ("a", "b"),
                                                               [[-np.inf, 0.0]]),
                                      ValueError, "count matrix entries must be non-negative"),
    "count-float-past-int64": (lambda: CooccurrenceMatrix(("a", "b"), [[2.0**63, 0], [0, 1]]),
                               ValueError, "float count matrix entries must be below 2**63"),
    "occurrence-shape": (lambda: OccurrenceMatrix(("d",), ("a", "b"), [[1, 2, 3]]), ValueError,
                         "data shape (1, 3) does not match 1 rows x 2 columns"),
    "no-documents": (lambda: OccurrenceMatrix((), ("a", "b"), np.zeros((0, 2), dtype=int)),
                     ValueError, "need at least one document row"),
    "cooccurrence-shape": (lambda: CooccurrenceMatrix(("a", "b"), [[1]]), ValueError,
                           "data shape (1, 1) does not match 2 labels"),
    "proximity-kind": (lambda: ProximityMatrix(("a", "b"), np.eye(2), kind="distance"),
                       ValueError, "unknown proximity kind 'distance'"),
    "proximity-shape": (lambda: ProximityMatrix(("a", "b"), [[1.0]], kind="similarity"),
                        ValueError, "data shape (1, 1) does not match 2 labels"),
    "diagonal-policy": (lambda: cooccurrence(_FIGURE2, "blank"), ValueError,
                        "unknown diagonal policy 'blank'"),
}


@pytest.mark.parametrize("case", sorted(MATRIX_ERRORS))
def test_bad_input_is_refused(case):
    call, error, message = MATRIX_ERRORS[case]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
