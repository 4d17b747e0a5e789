"""Column similarity measures and similarity/dissimilarity conversions."""

import itertools

import numpy as np
import pytest

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


def euclidean_reference(X):
    """The column distances as `euclidean_columns` computed them before it
    shared the SMACOF distance kernel."""
    X = np.asarray(X, dtype=float)
    sq = (X**2).sum(axis=0)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X.T @ X)
    d = np.sqrt(np.maximum(d2, 0.0))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


@pytest.mark.parametrize("seed", range(8))
def test_euclidean_columns_is_bitwise_the_reference_formula(seed):
    rng = np.random.default_rng(seed)
    n_docs, n_attrs = int(rng.integers(1, 400)), int(rng.integers(2, 60))
    # counts up to 1e8 make the squared sums round, so the order of operations shows
    top = 50 if seed < 4 else 10**8
    data = rng.integers(0, top, size=(n_docs, n_attrs))
    if seed % 2:  # duplicate columns: distance exactly 0 off the diagonal
        data[:, 1] = data[:, 0]
        data[:, -1] = data[:, 0]
    A = OccurrenceMatrix(tuple(f"d{i}" for i in range(n_docs)),
                         tuple(f"a{j}" for j in range(n_attrs)), data)
    D = np.asarray(euclidean_columns(A).data)
    expected = euclidean_reference(data)
    if seed % 2:  # equal columns at distance 0, also where the Gram form cancels
        copies = [0, 1, n_attrs - 1]
        for i, j in itertools.permutations(copies, 2):
            assert D[i, j] == 0.0
            expected[i, j] = 0.0
    assert np.array_equal(D.view(np.int64), expected.view(np.int64))
