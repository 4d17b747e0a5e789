"""Column similarity measures and similarity/dissimilarity conversions."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cocmap import (
    NegativeResult,
    OccurrenceMatrix,
    OutOfRange,
    ProximityMatrix,
    ZeroNormColumn,
    ZeroVarianceColumn,
    builtin_dataset,
    cosine_columns,
    euclidean_columns,
    jaccard_columns,
    pearson_columns,
    pearson_of_proximities,
    shift_pearson,
    to_dissimilarity,
)

# Exact column correlations of the bundled 5x4 citation matrix, by hand:
# columns A=(1,0,0,1,1), D=(1,1,1,0,1) give r = -2 / sqrt(24) = -1/sqrt(6).
R_AD = -1.0 / np.sqrt(6.0)
SHIFTED_AD = (1.0 + R_AD) / 2.0  # 0.29587585476806849
SHIFTED_CD = (1.0 - R_AD) / 2.0  # 0.70412414523193151


def random_occurrence(rng, n_docs=None, n_attrs=None, max_count=4):
    n_docs = n_docs or int(rng.integers(3, 10))
    n_attrs = n_attrs or int(rng.integers(2, 7))
    data = rng.integers(0, max_count + 1, size=(n_docs, n_attrs))
    # keep every column non-constant so pearson is defined
    for j in range(n_attrs):
        if len(set(data[:, j].tolist())) == 1:
            data[0, j] = data[0, j] + 1
    return OccurrenceMatrix(
        tuple(f"d{i}" for i in range(n_docs)),
        tuple(f"a{j}" for j in range(n_attrs)),
        data,
    )


class TestPearsonColumns:
    def test_identical_and_opposite_columns(self):
        A = builtin_dataset("figure2")
        R = pearson_columns(A)
        i = {lab: k for k, lab in enumerate(R.labels)}
        assert R.data[i["A"], i["B"]] == pytest.approx(1.0, abs=1e-12)
        assert R.data[i["A"], i["C"]] == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_correlation(self):
        A = builtin_dataset("figure2")
        R = pearson_columns(A)
        assert R.data[0, 3] == pytest.approx(R_AD, abs=1e-12)

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = random_occurrence(rng)
            R = np.asarray(pearson_columns(A).data)
            oracle = np.corrcoef(np.asarray(A.data, dtype=float), rowvar=False)
            np.testing.assert_allclose(R, oracle, atol=1e-10)

    def test_zero_variance_column_raises_with_label(self):
        A = OccurrenceMatrix(("d1", "d2"), ("A", "B"), [[3, 1], [3, 2]])
        with pytest.raises(ZeroVarianceColumn) as err:
            pearson_columns(A)
        assert err.value.label == "A"

    def test_bounded_and_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            R = np.asarray(pearson_columns(random_occurrence(rng)).data)
            assert np.all(np.abs(R) <= 1.0 + 1e-12)
            np.testing.assert_allclose(R, R.T, atol=0)
            np.testing.assert_allclose(np.diagonal(R), 1.0, atol=0)


def centered_pearson(data):
    """The float64 centered-column Pearson correlation (population form), clipped, unit diagonal."""
    X = np.asarray(data, dtype=float)
    centered = X - X.mean(axis=0)
    var = (centered**2).sum(axis=0)
    r = np.clip((centered.T @ centered) / np.sqrt(np.outer(var, var)), -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return r


def exact_pearson(data):
    """Each correlation from exact Python-integer moments, rounded through one square root."""
    cols = [[int(v) for v in col] for col in np.asarray(data).T]
    n = len(cols[0])

    def moment(u, v):
        return n * sum(a * b for a, b in zip(u, v)) - sum(u) * sum(v)

    return np.array([[moment(u, v) / math.sqrt(moment(u, u) * moment(v, v)) for v in cols]
                     for u in cols])


def occurrence(data):
    data = np.asarray(data)
    return OccurrenceMatrix(tuple(f"d{i}" for i in range(data.shape[0])),
                            tuple(f"a{j}" for j in range(data.shape[1])), data)


def constant_columns(data):
    return [j for j in range(data.shape[1]) if np.all(data[:, j] == data[0, j])]


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(2, 60), st.integers(2, 8)).flatmap(
    lambda shape: arrays(np.int64, shape, elements=st.integers(0, 10**4))))
def test_exact_moment_pearson_matches_the_centered_float_reference(data):
    assume(not constant_columns(data))
    R = np.asarray(pearson_columns(occurrence(data)).data)
    np.testing.assert_allclose(R, centered_pearson(data), rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(1, 12), st.integers(2, 6)).flatmap(
           lambda shape: arrays(np.int64, shape, elements=st.integers(0, 3))),
       st.integers(0, 2**40), st.data())
def test_zero_variance_is_raised_for_exactly_the_constant_columns(data, base, more):
    # shifted by up to 2**40, a column one count from constant keeps a variance
    # far below float64's resolution of its mean, and must still pass
    data = data + base
    constant = constant_columns(data)
    if constant and more.draw(st.booleans()):  # make the first constant column nearly constant
        data[0, constant[0]] += 1
        constant = constant_columns(data)
    if constant:
        with pytest.raises(ZeroVarianceColumn) as err:
            pearson_columns(occurrence(data))
        assert err.value.label == f"a{constant[0]}"
    else:
        R = np.asarray(pearson_columns(occurrence(data)).data)
        np.testing.assert_allclose(R, exact_pearson(data), rtol=0, atol=1e-12)


_M = 2**30 - 1


@pytest.mark.parametrize("data", [
    # G fits int64 (8 * m**2 < 2**63), but n * G_00 and the variance n**2 m**2 / 4 pass
    # 2**63; int64 would wrap the variance to about 0
    [[_M, 0, 1]] * 4 + [[0, _M, 2]] * 3 + [[0, _M, 0]],
    # the product G itself passes int64 (object dtype)
    [[2**62, 0, 3], [0, 2**62, 2], [2**61, 2**61, 1]],
    # counts past int64 (Python integers)
    [[2**70, 0, 5], [0, 2**70, 1], [2**69, 2**69, 9]],
], ids=["moments-past-int64", "product-past-int64", "counts-past-int64"])
def test_pearson_exact_where_moments_pass_int64(data):
    # columns a0 and a1 sum to a constant in every document: r = -1 exactly
    data = np.array(data, dtype=object if max(map(max, data)) > 2**63 - 1 else np.int64)
    R = np.asarray(pearson_columns(occurrence(data)).data)
    np.testing.assert_allclose(R, exact_pearson(data), rtol=0, atol=1e-15)
    assert R[0, 1] == pytest.approx(-1.0, abs=1e-15)


class TestShiftPearson:
    def test_endpoints(self):
        A = builtin_dataset("figure2")
        S = shift_pearson(pearson_columns(A))
        i = {lab: k for k, lab in enumerate(S.labels)}
        assert S.data[i["A"], i["B"]] == pytest.approx(1.0, abs=1e-12)
        assert S.data[i["A"], i["C"]] == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_shifts(self):
        A = builtin_dataset("figure2")
        S = shift_pearson(pearson_columns(A))
        assert S.data[0, 3] == pytest.approx(SHIFTED_AD, abs=1e-12)
        assert S.data[2, 3] == pytest.approx(SHIFTED_CD, abs=1e-12)

    def test_out_of_range_rejected(self):
        bad = ProximityMatrix(("a", "b"), [[1.0, 1.5], [1.5, 1.0]], kind="similarity")
        with pytest.raises(OutOfRange):
            shift_pearson(bad)

    def test_order_preserving(self):
        rng = np.random.default_rng(2)
        r = np.sort(rng.uniform(-1, 1, size=50))
        n = len(r) + 1
        data = np.zeros((n, n))
        data[0, 1:] = r
        data[1:, 0] = r
        np.fill_diagonal(data, 1.0)
        S = shift_pearson(ProximityMatrix(tuple(map(str, range(n))), data, kind="similarity"))
        shifted = np.asarray(S.data)[0, 1:]
        assert np.all(np.diff(shifted) > 0)


class TestCosineColumns:
    def test_identical_columns(self):
        A = OccurrenceMatrix(("d1", "d2"), ("a", "b"), [[2, 2], [1, 1]])
        C = cosine_columns(A)
        assert C.data[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_columns(self):
        A = builtin_dataset("figure2")
        C = cosine_columns(A)
        assert C.data[0, 2] == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_value(self):
        A = OccurrenceMatrix(("d1", "d2", "d3"), ("a", "b"), [[1, 1], [1, 0], [0, 0]])
        C = cosine_columns(A)
        assert C.data[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_norm_column_raises(self):
        A = OccurrenceMatrix(("d1", "d2"), ("a", "b"), [[0, 1], [0, 2]])
        with pytest.raises(ZeroNormColumn) as err:
            cosine_columns(A)
        assert err.value.label == "a"

    def test_range_for_counts(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = random_occurrence(rng)
            try:
                C = np.asarray(cosine_columns(A).data)
            except ZeroNormColumn:
                continue
            assert np.all(C >= 0.0) and np.all(C <= 1.0)


class TestJaccardColumns:
    def test_identical_supports(self):
        A = builtin_dataset("figure2")
        J = jaccard_columns(A)
        assert J.data[0, 1] == pytest.approx(1.0)

    def test_support_enumeration(self):
        # A occurs in documents {1,4,5}, D in {1,2,3,5}: overlap 2, union 5
        A = builtin_dataset("figure2")
        J = jaccard_columns(A)
        assert J.data[0, 3] == pytest.approx(2.0 / 5.0)

    def test_disjoint_supports(self):
        A = builtin_dataset("figure2")
        J = jaccard_columns(A)
        assert J.data[0, 2] == 0.0

    def test_empty_support_warns_and_zero_diagonal(self):
        A = OccurrenceMatrix(("d1", "d2"), ("a", "b"), [[0, 1], [0, 2]])
        with pytest.warns(UserWarning):
            J = jaccard_columns(A)
        assert J.data[0, 0] == 0.0
        assert J.data[1, 1] == 1.0

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            J = np.asarray(jaccard_columns(random_occurrence(rng)).data)
            assert np.all(J >= 0.0) and np.all(J <= 1.0)

    def test_matches_set_oracle_at_realistic_size(self):
        rng = np.random.default_rng(23)
        data = (rng.random((2000, 80)) < 0.05).astype(np.int64)
        data[0] = 1  # no empty supports
        A = OccurrenceMatrix(
            tuple(f"d{i}" for i in range(2000)), tuple(f"a{j}" for j in range(80)), data
        )
        supports = [set(np.flatnonzero(data[:, j]).tolist()) for j in range(80)]
        expected = np.array([[len(s & t) / len(s | t) for t in supports] for s in supports])
        assert np.array_equal(np.asarray(jaccard_columns(A).data), expected)


class TestEuclideanColumns:
    def test_identical_columns_distance_zero(self):
        A = OccurrenceMatrix(("d1", "d2"), ("a", "b"), [[2, 2], [1, 1]])
        D = euclidean_columns(A)
        assert D.data[0, 1] == 0.0

    def test_elementwise_oracle_values(self):
        # columns A and C differ in all five rows; A and D in three rows
        A = builtin_dataset("figure2")
        D = euclidean_columns(A)
        assert D.data[0, 2] == pytest.approx(np.sqrt(5.0), abs=1e-12)
        assert D.data[0, 3] == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert D.kind == "dissimilarity"

    def test_matches_direct_subtraction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = random_occurrence(rng)
            D = np.asarray(euclidean_columns(A).data)
            X = np.asarray(A.data, dtype=float)
            for i in range(A.n_attrs):
                for j in range(A.n_attrs):
                    expected = np.sqrt(((X[:, i] - X[:, j]) ** 2).sum())
                    assert D[i, j] == pytest.approx(expected, abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            A = random_occurrence(rng)
            D = np.asarray(euclidean_columns(A).data)
            n = D.shape[0]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert D[i, k] <= D[i, j] + D[j, k] + 1e-9


class TestToDissimilarity:
    def test_unit_constant_on_shifted_values(self):
        A = builtin_dataset("figure2")
        S = shift_pearson(pearson_columns(A))
        D = to_dissimilarity(S, 1.0)
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(
            (np.asarray(D.data) + np.asarray(S.data))[off], 1.0, atol=1e-12
        )
        assert D.data[0, 3] == pytest.approx(1.0 - SHIFTED_AD, abs=1e-12)

    def test_maximal_similarity_maps_to_zero(self):
        S = ProximityMatrix(("a", "b"), [[1.0, 1.0], [1.0, 1.0]], kind="similarity")
        D = to_dissimilarity(S, 1.0)
        assert D.data[0, 1] == 0.0

    def test_fixed_constant_too_small_raises(self):
        S = ProximityMatrix(("a", "b"), [[1.0, 0.9], [0.9, 1.0]], kind="similarity")
        with pytest.raises(NegativeResult):
            to_dissimilarity(S, 0.5)

    def test_auto_constant_is_matrix_maximum(self):
        S = ProximityMatrix(("a", "b", "c"),
                            [[1.0, 0.2, 0.4], [0.2, 1.0, 0.7], [0.4, 0.7, 1.0]],
                            kind="similarity")
        D = to_dissimilarity(S)
        assert D.data[0, 1] == pytest.approx(1.0 - 0.2)
        assert np.all(np.asarray(D.data) >= 0.0)

    def test_requires_similarity_kind(self):
        D = ProximityMatrix(("a", "b"), [[0.0, 1.0], [1.0, 0.0]], kind="dissimilarity")
        with pytest.raises(ValueError):
            to_dissimilarity(D, 2.0)


class TestPearsonOfProximities:
    def test_matches_numpy_with_diagonal_included(self):
        cities = builtin_dataset("cities")
        R = np.asarray(pearson_of_proximities(cities).data)
        oracle = np.corrcoef(np.asarray(cities.data, dtype=float), rowvar=False)
        np.testing.assert_allclose(R, oracle, atol=1e-10)

    def test_identical_columns_correlate_fully(self):
        data = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        P = ProximityMatrix(("a", "b", "c"), data, kind="similarity")
        R = pearson_of_proximities(P)
        assert R.data[1, 2] == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_three_by_three(self):
        P = ProximityMatrix(("a", "b", "c"),
                            [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
                            kind="dissimilarity")
        R = pearson_of_proximities(P)
        assert R.data[0, 2] == pytest.approx(-1.0, abs=1e-12)


def exact_columns(data):
    """The columns of a count array as lists of Python integers."""
    return [[int(v) for v in col] for col in np.asarray(data).T]


def euclidean_reference(data):
    """Each column distance as the square root of its exact squared distance, rounded once."""
    cols = exact_columns(data)
    return np.array([[math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v))) for v in cols]
                     for u in cols])


def cosine_reference(data):
    """``G_ij / sqrt(G_ii G_jj)`` from the exact column products G, clipped to 1."""
    cols = exact_columns(data)
    G = [[sum(a * b for a, b in zip(u, v)) for v in cols] for u in cols]
    n = len(cols)
    return np.array([[1.0 if i == j else min(1.0, G[i][j] / (math.sqrt(G[i][i])
                                                            * math.sqrt(G[j][j])))
                      for j in range(n)] for i in range(n)])


def large_counts(seed):
    rng = np.random.default_rng(seed)
    n_docs, n_attrs = int(rng.integers(1, 400)), int(rng.integers(2, 60))
    # counts up to 1e8 make float64 column products round; up to 1e10 they
    # pass the unsigned 64-bit range
    top = 50 if seed < 4 else 10**8 if seed < 8 else 10**10
    data = rng.integers(0, top, size=(n_docs, n_attrs))
    if seed % 2:  # copied columns: distance exactly 0 off the diagonal
        data[:, 1] = data[:, 0]
        data[:, -1] = data[:, 0]
    return OccurrenceMatrix(tuple(f"d{i}" for i in range(n_docs)),
                            tuple(f"a{j}" for j in range(n_attrs)), data)


@pytest.mark.parametrize("seed", range(10))
def test_euclidean_columns_is_bitwise_the_reference_formula(seed):
    A = large_counts(seed)
    D = np.asarray(euclidean_columns(A).data)
    assert np.array_equal(D.view(np.int64), euclidean_reference(A.data).view(np.int64))


def test_euclidean_columns_exact_where_squared_norms_sum_past_int64():
    # one document: G is int64 (3037000499**2 < 2**63), but sq_x + sq_y is not
    a = 3037000499
    A = OccurrenceMatrix(("d",), ("x", "y", "z"), np.array([[a, a - 1, 0]]))
    D = np.asarray(euclidean_columns(A).data)
    assert D.tolist() == [[0.0, 1.0, a], [1.0, 0.0, a - 1], [a, a - 1, 0.0]]


@pytest.mark.parametrize("seed", range(10))
def test_cosine_columns_is_bitwise_the_exact_product_formula(seed):
    A = large_counts(seed)
    C = np.asarray(cosine_columns(A).data)
    assert np.array_equal(C.view(np.int64), cosine_reference(A.data).view(np.int64))


_DISTANCES = ProximityMatrix(("a", "b"), [[0.0, 1.0], [1.0, 0.0]], kind="dissimilarity")


def _cities_missing_one_pair():
    """The bundled cities with the Atlanta-Chicago mileage missing."""
    cities = builtin_dataset("cities")
    data = np.array(cities.data)
    data[0, 1] = data[1, 0] = np.nan
    return ProximityMatrix(cities.labels, data, kind="dissimilarity")


# every check of the module's arguments: (call, error, exact message)
PROXIMITY_ERRORS = {
    "shift-kind": (lambda: shift_pearson(_DISTANCES), ValueError,
                   "shift_pearson expects a similarity matrix"),
    "shift-range": (lambda: shift_pearson(ProximityMatrix(("a", "b"), [[1.0, 2.0], [2.0, 1.0]],
                                                          kind="similarity")),
                    OutOfRange, "entries must lie in [-1, 1] before shifting"),
    "dissimilarity-kind": (lambda: to_dissimilarity(_DISTANCES), ValueError,
                           "to_dissimilarity expects a similarity matrix"),
    "zero-norm": (lambda: cosine_columns(OccurrenceMatrix(("d",), ("a", "b"), [[1, 0]])),
                  ZeroNormColumn, "column 'b' has zero norm"),
    # one missing pair would leave whole rows and columns of the correlation NaN
    "pearson-of-missing": (lambda: pearson_of_proximities(_cities_missing_one_pair()),
                           ValueError, "proximity between 'Atlanta' and 'Chicago' is missing"),
    "pearson-of-constant": (
        lambda: pearson_of_proximities(ProximityMatrix(
            ("a", "b", "c"), [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], kind="similarity")),
        ZeroVarianceColumn, "column 'b' has zero variance"),
}


@pytest.mark.parametrize("case", sorted(PROXIMITY_ERRORS))
def test_bad_input_is_refused(case):
    call, error, message = PROXIMITY_ERRORS[case]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
