"""Symmetric eigensolver, principal components, and varimax rotation."""

import numpy as np
import pytest

from cocmap import (
    LoadingsMatrix,
    NoConvergence,
    builtin_dataset,
    eigen_symmetric,
    factor_scatter_coords,
    format_loadings,
    loadings_to_csv,
    pca_from_correlation,
    pca_from_occurrence,
    varimax,
)
from cocmap.factor import _varimax_sweeps


def random_correlation(rng, p):
    """Correlation matrix of random data; PSD up to roundoff by construction."""
    X = rng.standard_normal((p + 5, p))
    return np.corrcoef(X, rowvar=False)


class TestEigenSymmetric:
    def test_identity(self):
        values, vectors = eigen_symmetric(np.eye(4))
        np.testing.assert_allclose(values, np.ones(4))
        np.testing.assert_allclose(vectors @ vectors.T, np.eye(4), atol=1e-12)

    def test_two_by_two_by_hand(self):
        values, vectors = eigen_symmetric([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-12)
        expected_first = np.array([1.0, 1.0]) / np.sqrt(2.0)
        expected_second = np.array([1.0, -1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(vectors[:, 0]), expected_first, atol=1e-12)
        np.testing.assert_allclose(np.abs(vectors[:, 1]), np.abs(expected_second), atol=1e-12)

    def test_trace_preserved_for_correlation_matrices(self):
        rng = np.random.default_rng(0)
        for p in (3, 8, 15):
            R = random_correlation(rng, p)
            values, _ = eigen_symmetric(R)
            assert values.sum() == pytest.approx(p, abs=1e-9)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(1)
        for p in (4, 12, 30):
            R = random_correlation(rng, p)
            values, vectors = eigen_symmetric(R)
            recon = (vectors * values) @ vectors.T
            scale = np.abs(R).max()
            assert np.abs(recon - R).max() < 1e-8 * max(scale, 1.0)
            assert np.abs(vectors.T @ vectors - np.eye(p)).max() < 1e-9
            assert np.all(np.diff(values) <= 1e-12)

    def test_matches_numpy_eigenvalues(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            M = rng.standard_normal((7, 7))
            M = (M + M.T) / 2
            values, _ = eigen_symmetric(M)
            oracle = np.sort(np.linalg.eigvalsh(M))[::-1]
            np.testing.assert_allclose(values, oracle, atol=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            eigen_symmetric([[1.0, 0.5], [0.1, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eigen_symmetric(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        M = np.eye(3)
        M[0, 1] = M[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            eigen_symmetric(M)

    def test_tolerated_asymmetry_is_averaged(self):
        # within the 1e-10 scale-relative tolerance the symmetric part is used
        M = np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        values, _ = eigen_symmetric(M)
        np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-11)

    def test_matches_numpy_at_realistic_size(self):
        # the size of a classical start or correlation spectrum in practice
        rng = np.random.default_rng(14)
        R = random_correlation(rng, 150)
        values, vectors = eigen_symmetric(R)
        oracle_values, oracle_vectors = np.linalg.eigh(R)
        np.testing.assert_allclose(values, oracle_values[::-1], atol=1e-10)
        assert np.all(np.diff(values) <= 0)
        # eigenvectors agree with numpy up to sign (the spectrum is simple)
        dots = np.abs(np.sum(vectors * oracle_vectors[:, ::-1], axis=0))
        np.testing.assert_allclose(dots, 1.0, atol=1e-8)
        peak = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(150)]
        assert np.all(peak > 0)


class TestPca:
    def test_perfectly_correlated_pair(self):
        R = np.array([[1.0, 1.0], [1.0, 1.0]])
        L = pca_from_correlation(R, ("x1", "x2"), n_factors=1)
        np.testing.assert_allclose(np.abs(L.loadings[:, 0]), [1.0, 1.0], atol=1e-9)
        assert L.explained_variance_pct[0] == pytest.approx(100.0, abs=1e-9)

    def test_identical_citation_columns_load_identically(self):
        A = builtin_dataset("figure2")
        L = pca_from_occurrence(A, n_factors=2)
        i = {lab: k for k, lab in enumerate(L.variable_labels)}
        np.testing.assert_allclose(
            L.loadings[i["A"]], L.loadings[i["B"]], atol=1e-9
        )

    def test_block_diagonal_two_factor_structure(self):
        # two independent blocks with r = 0.8: eigenvalues are 1 +- r per block
        R = np.array([
            [1.0, 0.8, 0.0, 0.0],
            [0.8, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.8],
            [0.0, 0.0, 0.8, 1.0],
        ])
        L = pca_from_correlation(R, n_factors=2)
        np.testing.assert_allclose(L.eigenvalues, [1.8, 1.8, 0.2, 0.2], atol=1e-10)
        np.testing.assert_allclose(L.explained_variance_pct, [45.0, 45.0], atol=1e-9)

    def test_kaiser_auto_rule(self):
        R = np.array([
            [1.0, 0.8, 0.0, 0.0],
            [0.8, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.8],
            [0.0, 0.0, 0.8, 1.0],
        ])
        L = pca_from_correlation(R)
        assert L.n_factors == 2

    def test_full_reconstruction(self):
        rng = np.random.default_rng(3)
        for p in (4, 9):
            R = random_correlation(rng, p)
            L = pca_from_correlation(R, n_factors=p)
            recon = np.asarray(L.loadings) @ np.asarray(L.loadings).T
            assert np.abs(recon - R).max() < 1e-8

    def test_explained_variance_sums(self):
        rng = np.random.default_rng(4)
        R = random_correlation(rng, 6)
        L_all = pca_from_correlation(R, n_factors=6)
        assert sum(L_all.explained_variance_pct) == pytest.approx(100.0, abs=1e-9)
        L_some = pca_from_correlation(R, n_factors=3)
        assert sum(L_some.explained_variance_pct) <= 100.0 + 1e-9

    def test_column_sign_convention(self):
        rng = np.random.default_rng(5)
        R = random_correlation(rng, 8)
        L = pca_from_correlation(R, n_factors=4)
        for j in range(4):
            col = np.asarray(L.loadings)[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_unrotated_column_ss_equals_eigenvalue(self):
        rng = np.random.default_rng(6)
        R = random_correlation(rng, 7)
        L = pca_from_correlation(R, n_factors=3)
        ss = (np.asarray(L.loadings) ** 2).sum(axis=0)
        np.testing.assert_allclose(ss, L.eigenvalues[:3], atol=1e-8)


class TestVarimax:
    def test_mixed_two_factor_structure_rotates_clean(self):
        h = np.sqrt(0.5)
        L = LoadingsMatrix(("x", "y"), [[h, h], [h, -h]], (1.0, 1.0), (50.0, 50.0))
        R = varimax(L, kaiser_normalize=False)
        loadings = np.abs(np.asarray(R.loadings))
        # each row ends up loading on exactly one factor
        for row in loadings:
            assert abs(row.max() - 1.0) < 1e-6
            assert row.min() < 1e-6

    def test_already_simple_structure_unchanged(self):
        L = LoadingsMatrix(
            ("a", "b", "c"),
            [[0.0, 0.9], [0.8, 0.0], [0.7, 0.0]],
            (1.13, 0.81, 0.06),
            (37.667, 27.0),
        )
        R = varimax(L, kaiser_normalize=False)
        np.testing.assert_allclose(
            np.abs(np.asarray(R.loadings)), np.abs(np.asarray(L.loadings)), atol=1e-8
        )

    def test_communalities_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            R = random_correlation(rng, 9)
            L = pca_from_correlation(R, n_factors=3)
            V = varimax(L)
            before = (np.asarray(L.loadings) ** 2).sum(axis=1)
            after = (np.asarray(V.loadings) ** 2).sum(axis=1)
            np.testing.assert_allclose(before, after, atol=1e-9)

    def test_criterion_never_decreases(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            R = random_correlation(rng, 10)
            L = pca_from_correlation(R, n_factors=4)
            _, T, history = _varimax_sweeps(np.asarray(L.loadings), 1e-6, 100)
            diffs = np.diff(history)
            assert np.all(diffs >= -1e-12)
            assert np.abs(T.T @ T - np.eye(4)).max() < 1e-9

    def test_rotation_matrix_reproduces_loadings(self):
        rng = np.random.default_rng(9)
        R = random_correlation(rng, 8)
        L = pca_from_correlation(R, n_factors=3)
        A = np.asarray(L.loadings)
        rotated, T, _ = _varimax_sweeps(A, 1e-6, 100)
        np.testing.assert_allclose(rotated, A @ T, atol=1e-9)

    def test_one_factor_is_returned_unrotated(self):
        L = LoadingsMatrix(("a", "b"), [[0.9], [0.8]], (1.45,), (72.5,))
        V = varimax(L)
        np.testing.assert_array_equal(V.loadings, L.loadings)
        assert V.eigenvalues == L.eigenvalues
        assert V.explained_variance_pct == L.explained_variance_pct
        assert (V.rotation, V.rotation_iterations) == ("varimax", 0)

    def test_needs_a_factor(self):
        L = LoadingsMatrix(("a", "b"), np.zeros((2, 0)), (1.0, 1.0), ())
        with pytest.raises(ValueError, match="at least one factor"):
            varimax(L)

    def test_rotation_iterations_recorded(self):
        rng = np.random.default_rng(10)
        R = random_correlation(rng, 6)
        V = varimax(pca_from_correlation(R, n_factors=2))
        assert V.rotation == "varimax"
        assert V.rotation_iterations >= 1

    def test_sweep_cap_raises(self):
        rng = np.random.default_rng(13)
        R = random_correlation(rng, 6)
        L = pca_from_correlation(R, n_factors=3)
        with pytest.raises(NoConvergence):
            varimax(L, max_sweeps=0)


class TestScatterAndExports:
    def test_pure_variable_plots_at_its_loading(self):
        L = LoadingsMatrix(
            ("a", "b", "c"),
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            (1.0, 1.0, 1.0),
            (33.3, 33.3, 33.3),
        )
        coords = factor_scatter_coords(L, 3)
        np.testing.assert_allclose(coords[0], [1.0, 0.0, 0.0])

    def test_identical_variables_coincide(self):
        A = builtin_dataset("figure2")
        coords = factor_scatter_coords(pca_from_occurrence(A, 2), 2)
        np.testing.assert_allclose(coords[0], coords[1], atol=1e-9)

    def test_coordinates_inside_unit_ball(self):
        rng = np.random.default_rng(11)
        R = random_correlation(rng, 7)
        coords = factor_scatter_coords(pca_from_correlation(R, n_factors=3), 3)
        assert np.all((coords**2).sum(axis=1) <= 1.0 + 1e-9)

    def test_csv_and_table_outputs(self):
        rng = np.random.default_rng(12)
        R = random_correlation(rng, 5)
        L = varimax(pca_from_correlation(R, n_factors=2))
        csv_text = loadings_to_csv(L)
        assert csv_text.splitlines()[0] == ",factor1,factor2"
        assert len(csv_text.splitlines()) == 6
        table = format_loadings(L, threshold=0.10)
        assert "factor1" in table
        # suppressed cells print as blanks, never as tiny numbers
        small = [f"{v:.3f}" for v in np.asarray(L.loadings).ravel() if 0 < abs(v) < 0.10]
        for s in small:
            assert s not in table
