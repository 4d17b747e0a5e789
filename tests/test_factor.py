"""Symmetric eigensolver, principal components, and varimax rotation."""

import csv
import io
import json
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocmap import (
    LoadingsMatrix,
    ProximityMatrix,
    builtin_dataset,
    eigen_symmetric,
    factor_scatter_coords,
    format_loadings,
    loadings_to_csv,
    pca_from_correlation,
    pca_from_occurrence,
    parse_rectangular_matrix,
    varimax,
)
import cocmap.factor as factor_module
from cocmap.cli import run
from cocmap.factor import VARIMAX_TOLERANCE, _round_robin, _varimax_criterion, _varimax_sweeps


def random_correlation(rng, p):
    """Correlation matrix of random data; PSD up to roundoff by construction."""
    X = rng.standard_normal((p + 5, p))
    return np.corrcoef(X, rowvar=False)


def factor_correlation(rng, p, m):
    """Correlation of ``p`` variables that each load 0.6-0.9 on one of ``m`` factors.

    About one loading in five elsewhere gets a small cross-loading; the
    unique variances fill the diagonal to one.
    """
    W = np.zeros((p, m))
    W[np.arange(p), np.arange(p) % m] = rng.uniform(0.6, 0.9, size=p)
    W += 0.1 * rng.standard_normal((p, m)) * (rng.random((p, m)) < 0.2)
    W *= np.minimum(1.0, 0.95 / np.sqrt((W**2).sum(axis=1)))[:, None]
    R = W @ W.T
    np.fill_diagonal(R, 1.0)
    return R


def serial_varimax_sweeps(L, tol, max_sweeps):
    """Test-only reference: every factor pair in turn, ``for a ... for b ...``.

    This is the element-by-element loop the round-robin sweeps replaced.
    Like them, it stops once a sweep raises the criterion by less than
    ``tol``, or after ``max_sweeps``.
    """
    A = L.copy()
    p, m = A.shape
    T = np.eye(m)
    history = [_varimax_criterion(A)]
    for _ in range(max_sweeps):
        for a in range(m - 1):
            for b in range(a + 1, m):
                x, y = A[:, a], A[:, b]
                u = x**2 - y**2
                v = 2.0 * x * y
                su, sv = u.sum(), v.sum()
                num = 2.0 * (u * v).sum() - 2.0 * su * sv / p
                den = (u**2 - v**2).sum() - (su**2 - sv**2) / p
                phi = 0.25 * np.arctan2(num, den)
                if abs(phi) < 1e-15:
                    continue
                c, s = np.cos(phi), np.sin(phi)
                A[:, a], A[:, b] = c * x + s * y, -s * x + c * y
                T[:, [a, b]] = T[:, [a, b]] @ np.array([[c, -s], [s, c]])
        history.append(_varimax_criterion(A))
        if history[-1] - history[-2] < tol:
            break
    return A, T, history


def canonical_columns(L):
    """Columns by descending sum of squares (stable), largest entry positive."""
    L = L[:, np.argsort(-(L**2).sum(axis=0), kind="stable")]
    peak = L[np.argmax(np.abs(L), axis=0), np.arange(L.shape[1])]
    return L * np.where(peak < 0, -1.0, 1.0)


def best_pair_gain(L, a, b):
    """Largest criterion gain of one planar rotation of columns ``a`` and ``b``.

    Takes the best of Kaiser's closed-form angle and a 0.05-degree grid; the
    criterion is a sum over columns, so only the two rotated columns count.
    """
    x, y = L[:, a:a + 1], L[:, b:b + 1]
    u, v = x**2 - y**2, 2.0 * x * y
    p = L.shape[0]
    num = 2.0 * (u * v).sum() - 2.0 * u.sum() * v.sum() / p
    den = (u**2 - v**2).sum() - (u.sum() ** 2 - v.sum() ** 2) / p
    phi = np.r_[0.0, 0.25 * np.arctan2(num, den), np.deg2rad(np.arange(-45.0, 45.0, 0.05))]
    c, s = np.cos(phi), np.sin(phi)
    pair = np.hstack([c * x + s * y, c * y - s * x])
    sq = pair**2
    crit = (sq**2).sum(axis=0) / p - (sq.sum(axis=0) / p) ** 2
    crit = crit[: len(phi)] + crit[len(phi):]
    return float(crit.max() - crit[0])


class TestEigenSymmetric:
    def test_empty_matrix_has_empty_spectrum(self):
        values, vectors = eigen_symmetric(np.zeros((0, 0)))
        assert values.shape == (0,) and vectors.shape == (0, 0)

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

    def test_proximity_matrix_lends_its_labels(self):
        R = ProximityMatrix(("x1", "x2"), [[1.0, 0.5], [0.5, 1.0]], kind="similarity")
        assert pca_from_correlation(R).variable_labels == ("x1", "x2")

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

    @pytest.mark.parametrize("kaiser", [False, True])
    def test_final_criterion_and_last_change_recorded(self, kaiser):
        rng = np.random.default_rng(14)
        L = pca_from_correlation(random_correlation(rng, 10), n_factors=4)
        V = varimax(L, kaiser_normalize=kaiser)
        A = np.asarray(L.loadings)
        comm = np.sqrt((A**2).sum(axis=1))[:, None] if kaiser else 1.0
        # the criterion ignores column order and signs, and Kaiser's
        # rotation maximizes it for the row-normalized loadings
        assert V.rotation_criterion == pytest.approx(
            _varimax_criterion(np.asarray(V.loadings) / comm), rel=1e-12)
        _, _, history = _varimax_sweeps(A / comm, 1e-6, 100)
        assert V.rotation_criterion_change == pytest.approx(history[-1] - history[-2],
                                                            rel=1e-9, abs=1e-15)
        assert 0.0 <= V.rotation_criterion_change < 1e-6

    def test_one_factor_criterion_is_that_of_its_loadings(self):
        L = LoadingsMatrix(("a", "b", "c"), [[0.9], [0.5], [0.1]], (1.07,), (35.7,))
        V = varimax(L, kaiser_normalize=False)
        assert V.rotation_criterion == _varimax_criterion(np.asarray(L.loadings))
        assert V.rotation_criterion_change == 0.0

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_cli_warns_and_keeps_the_last_sweep_at_the_cap(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(factor_module, "VARIMAX_MAX_SWEEPS", 1)
        rng = np.random.default_rng(13)
        labels = [f"a{j}" for j in range(8)]
        rows = [f"d{i}," + ",".join(map(str, row))
                for i, row in enumerate(rng.integers(0, 3, (40, 8)).tolist())]
        (tmp_path / "counts.csv").write_text("," + ",".join(labels) + "\n"
                                             + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert run(["factor", "--in", str(tmp_path / "counts.csv"), "--format", "matrix",
                    "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith(
            "warning: varimax stopped at the cap of 1 sweeps; the last criterion change was ")
        assert err.count("\n") == 1
        assert (out / "loadings.txt").exists()
        results = json.loads((out / "factor_report.json").read_text())["results"]
        assert results["converged"] is False and results["rotation_iterations"] == 1
        # the loadings of the last sweep are still an orthogonal rotation
        with open(out / "loadings.csv", newline="") as f:
            rotated = np.array([row[1:] for row in list(csv.reader(f))[1:]], dtype=float)
        A = np.asarray(pca_from_occurrence(
            parse_rectangular_matrix((tmp_path / "counts.csv").read_text())).loadings)
        assert A.shape == rotated.shape and A.shape[1] > 2
        T = np.linalg.lstsq(A, rotated, rcond=None)[0]
        np.testing.assert_allclose(T.T @ T, np.eye(A.shape[1]), atol=1e-9)
        np.testing.assert_allclose(A @ T, rotated, atol=1e-9)
        np.testing.assert_allclose((rotated**2).sum(axis=1), (A**2).sum(axis=1), atol=1e-9)


class TestRoundRobinSchedule:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9, 33])
    def test_every_pair_once_per_sweep_in_disjoint_rounds(self, m):
        rounds = _round_robin(m)
        assert len(rounds) == (m - 1 if m % 2 == 0 else m)
        pairs = []
        for a, b in rounds:
            assert len(a) == len(b) == m // 2
            assert np.all(a < b)
            assert len(set(a.tolist()) | set(b.tolist())) == 2 * len(a)
            pairs += zip(a.tolist(), b.tolist())
        assert sorted(pairs) == list(combinations(range(m), 2))

    def test_two_mixed_pairs_rotate_to_simple_structure(self):
        # two independent 45-degree mixtures: the polar (SVD) iteration
        # stalls at its start here, the pairwise sweep must still escape
        h = np.sqrt(0.5)
        block = np.array([[h, h], [h, -h]])
        mixed = np.kron(np.eye(2), block)
        mixed = np.repeat(mixed, [3, 2, 4, 1], axis=0)
        L = LoadingsMatrix(tuple(f"x{i}" for i in range(10)), mixed,
                           (2.5, 2.5, 2.5, 2.5), (25.0, 25.0, 25.0, 25.0))
        rotated = np.abs(np.asarray(varimax(L, kaiser_normalize=False).loadings))
        np.testing.assert_allclose(rotated.max(axis=1), 1.0, atol=1e-6)
        assert np.sort(rotated, axis=1)[:, :-1].max() < 1e-6
        # each factor takes one group of identical rows, largest group first
        np.testing.assert_allclose((rotated**2).sum(axis=0), [4.0, 3.0, 2.0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("structured", [True, False])
    @pytest.mark.parametrize("p,m,seed", [(60, 10, 31), (61, 11, 32), (120, 17, 33)])
    def test_no_planar_rotation_raises_the_criterion(self, p, m, seed, structured):
        rng = np.random.default_rng(seed)
        R = factor_correlation(rng, p, m) if structured else random_correlation(rng, p)
        L = pca_from_correlation(R, n_factors=m)
        V = np.asarray(varimax(L, kaiser_normalize=False).loadings)
        worst = max(best_pair_gain(V, a, b) for a, b in combinations(range(m), 2))
        assert worst <= VARIMAX_TOLERANCE


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_round_robin_sweeps_keep_the_rotation_contract(m, extra_rows, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m + extra_rows, m))
    rotated, T, history = _varimax_sweeps(A, 1e-6, 500)
    assert np.all(np.diff(history) >= -1e-12)
    np.testing.assert_allclose(T.T @ T, np.eye(m), atol=1e-9)
    np.testing.assert_allclose(rotated, A @ T, atol=1e-9)
    np.testing.assert_allclose((rotated**2).sum(axis=1), (A**2).sum(axis=1), atol=1e-9)


class TestAgainstSerialSweeps:
    @pytest.mark.parametrize("p,m,seed", [(30, 5, 41), (60, 12, 42), (100, 33, 43)])
    def test_same_criterion_and_canonical_loadings(self, p, m, seed):
        rng = np.random.default_rng(seed)
        L = pca_from_correlation(factor_correlation(rng, p, m), n_factors=m)
        A = np.asarray(L.loadings)
        comm = np.sqrt((A**2).sum(axis=1))
        _, _, history = _varimax_sweeps(A / comm[:, None], 1e-6, 100)
        serial, _, serial_history = serial_varimax_sweeps(A / comm[:, None], 1e-6, 100)
        assert history[-1] == pytest.approx(serial_history[-1], rel=1e-6)
        V = np.asarray(varimax(L).loadings)
        np.testing.assert_array_equal(V, canonical_columns(V))
        np.testing.assert_allclose(V, canonical_columns(serial * comm[:, None]), atol=2e-3)

    def test_explained_variance_never_increases(self):
        rng = np.random.default_rng(44)
        for p, m in [(6, 2), (9, 3), (20, 5), (40, 8), (60, 13)]:
            L = pca_from_correlation(factor_correlation(rng, p, m), n_factors=m)
            for kaiser in (True, False):
                pct = varimax(L, kaiser_normalize=kaiser).explained_variance_pct
                assert np.all(np.diff(pct) <= 0)


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


def per_cell_loadings_csv(L):
    """Test-only reference: the cell-by-cell writer that ``row.tolist()`` replaced."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([""] + [f"factor{j + 1}" for j in range(L.n_factors)])
    for label, row in zip(L.variable_labels, np.asarray(L.loadings)):
        writer.writerow([label] + [repr(float(v)) for v in row])
    return out.getvalue()


def test_loadings_csv_matches_the_per_cell_reference():
    edge = [-0.0, 0.0, 3.0, 1e16, 1e-300, 5e-324, -0.1, 0.1 + 0.2]
    loadings = np.array(edge + [0.5] * 4).reshape(6, 2)
    L = LoadingsMatrix(("a", "b,c", "d", "e", "f", "g"), loadings, (1e32, 10.0), (1.0, 2.0),
                       rotation="varimax")
    text = loadings_to_csv(L)
    assert text == per_cell_loadings_csv(L)
    assert text.splitlines()[1] == "a,-0.0,0.0"
    assert text.splitlines()[2] == '"b,c",3.0,1e+16'
    rng = np.random.default_rng(15)
    V = varimax(pca_from_correlation(factor_correlation(rng, 100, 33), n_factors=33))
    assert loadings_to_csv(V) == per_cell_loadings_csv(V)


def _two_by_two(eigenvalues=(1.0, 1.0), pct=(50.0, 50.0), rotation="none"):
    return LoadingsMatrix(("a", "b"), np.eye(2), eigenvalues, pct, rotation=rotation)


_ONE_FACTOR = LoadingsMatrix(("a", "b"), [[1.0], [0.0]], (1.0, 1.0), (50.0,))

# every check of the module's arguments: (call, error, exact message)
FACTOR_ERRORS = {
    "loadings-shape": (lambda: LoadingsMatrix(("a", "b"), np.zeros((3, 1)), (0.0,), (0.0,)),
                       ValueError, "loadings shape does not match variable labels"),
    "eigenvalue-order": (lambda: _two_by_two(eigenvalues=(1.0, 2.0)), ValueError,
                         "eigenvalues must be non-increasing"),
    "eigenvalue-sign": (lambda: _two_by_two(eigenvalues=(1.0, -1.0)), ValueError,
                        "eigenvalues must be non-negative up to roundoff"),
    "share-count": (lambda: _two_by_two(pct=(50.0,)), ValueError,
                    "one explained-variance share per factor required"),
    "rotation": (lambda: _two_by_two(rotation="promax"), ValueError,
                 "unknown rotation 'promax'"),
    "unrotated-sums": (lambda: _two_by_two(eigenvalues=(2.0, 1.0)), ValueError,
                       "unrotated column sums of squares must equal eigenvalues"),
    "n-factors": (lambda: pca_from_correlation(np.eye(3), n_factors=4), ValueError,
                  "n_factors must be in [1, 3]"),
    "scatter-dims": (lambda: factor_scatter_coords(_ONE_FACTOR, dims=4), ValueError,
                     "dims must be 2 or 3"),
    "scatter-factors": (lambda: factor_scatter_coords(_ONE_FACTOR), ValueError,
                        "loadings have only 1 factors"),
}


@pytest.mark.parametrize("case", sorted(FACTOR_ERRORS))
def test_bad_input_is_refused(case):
    call, error, message = FACTOR_ERRORS[case]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message
