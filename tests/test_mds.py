"""SMACOF scaling, isotonic regression, classical start, and alignment."""

import importlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cocmap import (
    DegenerateConfiguration,
    DegenerateInput,
    DimensionTooLarge,
    MdsConfig,
    ProximityMatrix,
    builtin_dataset,
    classical_init,
    mds,
    monotone_regression,
    pearson_of_proximities,
    procrustes_align,
    to_dissimilarity,
    transform_disparities,
)
from cocmap.mds import _distances, _fixed_pairs, _smacof


def brute_force_isotonic(values, weights=None):
    """Oracle: enumerate every partition into consecutive blocks, keep the
    best weighted fit whose block means are non-decreasing."""
    y = np.asarray(values, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    n = len(y)
    best, best_err = None, np.inf
    # compositions of n: each bit decides whether a new block starts
    for bits in range(2 ** (n - 1)):
        bounds = [0]
        for i in range(n - 1):
            if bits & (1 << i):
                bounds.append(i + 1)
        bounds.append(n)
        means = []
        for a, b in zip(bounds, bounds[1:]):
            means.append((w[a:b] * y[a:b]).sum() / w[a:b].sum())
        if any(m2 < m1 for m1, m2 in zip(means, means[1:])):
            continue
        fitted = np.empty(n)
        for (a, b), m in zip(zip(bounds, bounds[1:]), means):
            fitted[a:b] = m
        err = (w * (y - fitted) ** 2).sum()
        if err < best_err - 1e-15:
            best, best_err = fitted, err
    return best


def stack_pava(values, weights=None):
    """Reference: the element-by-element pool-adjacent-violators stack loop.

    This is the loop ``monotone_regression`` ran before its numpy passes;
    it fits ``values`` in the given order.
    """
    y = np.asarray(values, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    means: list[float] = []
    wsums: list[float] = []
    sizes: list[int] = []
    for val, wt in zip(y, w):
        means.append(float(val))
        wsums.append(float(wt))
        sizes.append(1)
        while len(means) > 1 and means[-2] >= means[-1]:
            m2, w2, s2 = means.pop(), wsums.pop(), sizes.pop()
            m1, w1, s1 = means.pop(), wsums.pop(), sizes.pop()
            means.append((m1 * w1 + m2 * w2) / (w1 + w2))
            wsums.append(w1 + w2)
            sizes.append(s1 + s2)
    return np.repeat(means, sizes)


def ordinal_reference(delta, dist, mask):
    """Reference ordinal disparities: one ``np.lexsort((xv, dv))`` untie and
    the stack loop, over the masked upper-triangle pairs."""
    n = delta.shape[0]
    iu = np.triu_indices(n, 1)
    sel = mask[iu]
    dv, xv = delta[iu][sel], dist[iu][sel]
    order = np.lexsort((xv, dv))
    fitted = np.empty_like(xv)
    fitted[order] = stack_pava(xv[order])
    upper = np.zeros(len(sel))
    upper[sel] = np.maximum(fitted, 0.0)
    out = np.zeros((n, n))
    out[iu] = upper
    return out + out.T


# the upper-triangle pair count of a 150-point matrix
PAIRS_150 = 150 * 149 // 2


def random_dissimilarity(rng, n):
    d = rng.uniform(0.2, 3.0, size=(n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    return ProximityMatrix(tuple(f"p{i}" for i in range(n)), d, kind="dissimilarity")


def random_similarity(rng, n):
    s = rng.uniform(0.0, 1.0, size=(n, n))
    s = (s + s.T) / 2
    np.fill_diagonal(s, 1.0)
    return ProximityMatrix(tuple(f"p{i}" for i in range(n)), s, kind="similarity")


class TestMonotoneRegression:
    def test_already_monotone_unchanged(self):
        x = [0.5, 1.0, 2.0, 2.5]
        np.testing.assert_allclose(monotone_regression(x), x)

    def test_two_point_pool(self):
        np.testing.assert_allclose(monotone_regression([3.0, 1.0]), [2.0, 2.0])

    def test_four_point_hand_trace(self):
        np.testing.assert_allclose(
            monotone_regression([1.0, 3.0, 2.0, 4.0]), [1.0, 2.5, 2.5, 4.0]
        )

    def test_weighted_pool(self):
        # pooled value is the weighted mean (3*3 + 1*1)/4
        np.testing.assert_allclose(
            monotone_regression([3.0, 1.0], weights=[3.0, 1.0]), [2.5, 2.5]
        )

    def test_order_argument(self):
        values = np.array([1.0, 3.0])
        fitted = monotone_regression(values, order=[1, 0])  # fit to (3, 1)
        np.testing.assert_allclose(fitted, [2.0, 2.0])

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(120):
            n = int(rng.integers(1, 9))
            y = rng.uniform(-5, 5, size=n)
            w = rng.uniform(0.5, 2.0, size=n)
            np.testing.assert_allclose(
                monotone_regression(y, weights=w),
                brute_force_isotonic(y, w),
                atol=1e-12,
            )


    @pytest.mark.parametrize("weights", [[1.0, 0.0, 1.0], [1.0, -2.0, 1.0],
                                         [1.0, np.nan, 1.0], [1.0, np.inf, 1.0]])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="weights must be finite and positive"):
            monotone_regression([1.0, 2.0, 3.0], weights=weights)

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 weights for 3 values"):
            monotone_regression([1.0, 2.0, 3.0], weights=[1.0, 1.0])

    @pytest.mark.parametrize("order", [[0, 1], [0, 1, 2, 3], [0, 0, 1], [0, 1, 3]])
    def test_order_must_be_a_permutation(self, order):
        with pytest.raises(ValueError, match="permutation of the 3 value positions"):
            monotone_regression([1.0, 2.0, 3.0], order=order)


class TestMonotoneRegressionAtScale:
    @pytest.mark.parametrize("kind", ["random", "noisy-trend", "cascade", "weighted"])
    def test_matches_stack_loop(self, kind):
        rng = np.random.default_rng(3)
        n = PAIRS_150
        weights = None
        if kind == "random":
            y = rng.standard_normal(n)
        elif kind == "noisy-trend":
            y = np.linspace(0.0, 5.0, n) + rng.normal(scale=0.3, size=n)
        elif kind == "cascade":
            y = np.r_[np.arange(n - 1, dtype=float), -1e9]
        else:
            y = np.linspace(0.0, 5.0, n) + rng.normal(scale=1.0, size=n)
            weights = rng.uniform(0.05, 20.0, size=n)
        np.testing.assert_allclose(
            monotone_regression(y, weights=weights), stack_pava(y, weights),
            rtol=1e-12, atol=1e-12,
        )

    def test_order_argument_matches_stack_loop(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(PAIRS_150)
        order = rng.permutation(PAIRS_150)
        expected = np.empty_like(y)
        expected[order] = stack_pava(y[order])
        np.testing.assert_allclose(monotone_regression(y, order=order), expected,
                                   rtol=1e-12, atol=1e-12)


values_with_ties = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.integers(-3, 3).map(float),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_monotone_regression_blocks_are_weighted_means(data):
    n = data.draw(st.integers(1, 60))
    y = np.array(data.draw(st.lists(values_with_ties, min_size=n, max_size=n)))
    w = np.array(data.draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n)))
    order = np.array(data.draw(st.permutations(range(n))), dtype=int)
    fitted = monotone_regression(y, order=order, weights=w)[order]
    yo, wo = y[order], w[order]
    tol = 1e-10 * max(1.0, float(np.abs(y).max()))
    assert np.all(np.diff(fitted) >= 0)
    # pooled blocks are exactly the runs of one fitted value
    starts = np.flatnonzero(np.r_[True, fitted[1:] != fitted[:-1]])
    for a, b in zip(starts, np.r_[starts[1:], n]):
        mean = float((wo[a:b] * yo[a:b]).sum() / wo[a:b].sum())
        assert abs(fitted[a] - mean) <= tol


class TestClassicalInit:
    def test_cities_start_is_near_converged_solution(self):
        cities = builtin_dataset("cities")
        X0 = classical_init(np.asarray(cities.data), 2)
        final = mds(cities, MdsConfig(dimensions=2))
        _, congruence = procrustes_align(final.coords, X0)
        assert 1.0 - congruence < 0.02

    def test_colinear_points_recovered(self):
        x = np.array([0.0, 1.0, 3.0, 6.0])
        D = np.abs(x[:, None] - x[None, :])
        X0 = classical_init(D, 1)
        recovered = np.abs(X0[:, 0][:, None] - X0[:, 0][None, :])
        np.testing.assert_allclose(recovered, D, atol=1e-9)

    def test_equilateral_triangle(self):
        D = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        X0 = classical_init(D, 2)
        dists = np.sqrt(((X0[:, None, :] - X0[None, :, :]) ** 2).sum(-1))
        np.testing.assert_allclose(dists, D, atol=1e-9)

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            classical_init(np.zeros((3, 3)), 3)


class TestProcrustes:
    def test_rotation_aligns_exactly(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 2))
        theta = 1.1
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        aligned, congruence = procrustes_align(X, X @ Q * 3.0 + 5.0)
        assert congruence == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(aligned, X, atol=1e-9)

    def test_reflection_aligns_exactly(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(8, 2))
        Y = X.copy()
        Y[:, 0] *= -1
        _, congruence = procrustes_align(X, Y)
        assert congruence == pytest.approx(1.0, abs=1e-9)

    def test_small_noise_high_congruence(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 2))
        X = (X - X.mean(0)) / np.sqrt((X**2).sum() / len(X))
        Y = X + rng.normal(scale=0.01, size=X.shape)
        _, congruence = procrustes_align(X, Y)
        assert congruence > 0.99

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            procrustes_align(np.zeros((4, 2)), np.random.default_rng(0).normal(size=(4, 2)))


class TestMdsBasics:
    def test_cities_recovered_at_low_stress(self):
        cities = builtin_dataset("cities")
        result = mds(cities, MdsConfig(dimensions=2, level="ratio"))
        assert result.stress <= 0.005
        assert result.iterations_used <= 200
        assert result.converged

    def test_configuration_is_centered(self):
        cities = builtin_dataset("cities")
        result = mds(cities, MdsConfig(dimensions=2))
        np.testing.assert_allclose(result.coords.mean(axis=0), 0.0, atol=1e-9)

    def test_equilateral_triangle_exact(self):
        P = ProximityMatrix(
            ("a", "b", "c"), [[0, 1, 1], [1, 0, 1], [1, 1, 0]], kind="dissimilarity"
        )
        result = mds(P, MdsConfig(dimensions=2))
        assert result.stress < 1e-6

    def test_unit_square_exact(self):
        r2 = np.sqrt(2.0)
        d = [[0, 1, r2, 1], [1, 0, 1, r2], [r2, 1, 0, 1], [1, r2, 1, 0]]
        P = ProximityMatrix(("a", "b", "c", "d"), d, kind="dissimilarity")
        result = mds(P, MdsConfig(dimensions=2))
        assert result.stress < 1e-6
        dists = np.sqrt(
            ((result.coords[:, None, :] - result.coords[None, :, :]) ** 2).sum(-1)
        )
        scale = dists[0, 1]
        np.testing.assert_allclose(dists / scale, np.asarray(d), atol=1e-4)

    def test_objects_with_equal_rows_are_split(self):
        # two objects at one point of a planar map, with mutual dissimilarity
        # 1: classical scaling starts them on one point up to rounding, and
        # the core must still push them apart
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((6, 2))
        pts = np.vstack([pts, np.repeat(rng.standard_normal((1, 2)), 2, axis=0)])
        D = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
        D[6, 7] = D[7, 6] = 1.0
        result = mds(ProximityMatrix(tuple("abcdefgh"), D, kind="dissimilarity"))
        assert np.linalg.norm(result.coords[6] - result.coords[7]) > 0.1
        assert result.stress < 0.005

    def test_correlated_cities_much_worse_than_direct(self):
        cities = builtin_dataset("cities")
        direct = mds(cities, MdsConfig(dimensions=2))
        distorted = mds(pearson_of_proximities(cities), MdsConfig(dimensions=2))
        assert distorted.stress > 10.0 * direct.stress
        _, congruence = procrustes_align(direct.coords, distorted.coords)
        assert congruence < 0.95  # the recovered geometry is visibly different

    def test_degenerate_input(self):
        P = ProximityMatrix(("a", "b"), [[0.0, 0.0], [0.0, 0.0]], kind="dissimilarity")
        with pytest.raises(DegenerateInput):
            mds(P, MdsConfig(dimensions=1))

    def test_dimension_too_large(self):
        P = ProximityMatrix(
            ("a", "b", "c"), [[0, 1, 1], [1, 0, 1], [1, 1, 0]], kind="dissimilarity"
        )
        with pytest.raises(DimensionTooLarge):
            mds(P, MdsConfig(dimensions=3))

    def test_random_init_requires_seed(self):
        with pytest.raises(ValueError):
            MdsConfig(init="random")

    def test_random_init_deterministic(self):
        rng = np.random.default_rng(4)
        P = random_dissimilarity(rng, 7)
        cfg = MdsConfig(dimensions=2, init="random", seed=99)
        a = mds(P, cfg)
        b = mds(P, cfg)
        np.testing.assert_array_equal(a.coords, b.coords)
        assert a.stress == b.stress

    def test_missing_proximities_are_ignored(self):
        rng = np.random.default_rng(5)
        d = np.asarray(random_dissimilarity(rng, 6).data).copy()
        d[0, 5] = d[5, 0] = np.nan
        P = ProximityMatrix(tuple(f"p{i}" for i in range(6)), d, kind="dissimilarity")
        result = mds(P, MdsConfig(dimensions=2))
        seq = np.array(result.stress_history)
        assert np.all(np.diff(seq) <= 1e-12)
        assert np.isfinite(result.stress)

    def test_point_without_observations_is_named_in_a_warning(self):
        cities = builtin_dataset("cities")
        d = np.array(cities.data, dtype=float)
        d[0, 1:] = d[1:, 0] = np.nan
        P = ProximityMatrix(cities.labels, d, kind="dissimilarity")
        with pytest.warns(UserWarning, match=re.escape(repr(cities.labels[0]))) as record:
            mds(P, MdsConfig(dimensions=2))
        assert not any(repr(label) in str(w.message)
                       for w in record for label in cities.labels[1:])

    def test_partly_missing_rows_do_not_warn(self):
        cities = builtin_dataset("cities")
        d = np.array(cities.data, dtype=float)
        d[0, 2:] = d[2:, 0] = np.nan
        P = ProximityMatrix(cities.labels, d, kind="dissimilarity")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mds(P, MdsConfig(dimensions=2))

    def test_fit_stopped_at_the_cap_warns(self):
        cities = builtin_dataset("cities")
        with pytest.warns(UserWarning, match="cap of 2 iterations; the last stress change was"):
            result = mds(cities, MdsConfig(dimensions=2, level="ordinal", max_iterations=2,
                                           epsilon=1e-14))
        assert not result.converged and result.iterations_used == 2

    def test_kind_override_reverses_the_reading(self):
        # reading the mileage matrix as similarities must wreck the map
        cities = builtin_dataset("cities")
        correct = mds(cities, MdsConfig(dimensions=2))
        as_similarity = ProximityMatrix(cities.labels, cities.data, kind="similarity")
        reversed_fit = mds(as_similarity, MdsConfig(dimensions=2))
        assert reversed_fit.stress > 20.0 * correct.stress
        _, congruence = procrustes_align(correct.coords, reversed_fit.coords)
        assert congruence < 0.9


class TestMdsProperties:
    def test_stress_monotone_across_levels(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            P = random_dissimilarity(rng, int(rng.integers(4, 10)))
            for level in ("ratio", "interval", "ordinal"):
                result = mds(P, MdsConfig(dimensions=2, level=level))
                seq = np.array(result.stress_history)
                assert np.all(np.diff(seq) <= 1e-12), (level, seq)

    def test_kind_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            S = random_similarity(rng, int(rng.integers(4, 10)))
            as_sim = mds(S, MdsConfig(dimensions=2))
            D = to_dissimilarity(S, 1.0)
            as_dis = mds(D, MdsConfig(dimensions=2))
            assert abs(as_sim.stress - as_dis.stress) < 1e-10
            _, congruence = procrustes_align(as_sim.coords, as_dis.coords)
            assert congruence > 1.0 - 1e-9

    def test_ordinal_no_worse_than_ratio(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            P = random_dissimilarity(rng, int(rng.integers(4, 10)))
            ratio = mds(P, MdsConfig(dimensions=2, level="ratio", epsilon=1e-10))
            ordinal = mds(P, MdsConfig(dimensions=2, level="ordinal", epsilon=1e-10))
            assert ordinal.stress <= ratio.stress + 1e-9

    def test_ratio_scale_invariance(self):
        rng = np.random.default_rng(9)
        for c in (0.001, 3.7, 2500.0):
            P = random_dissimilarity(rng, 8)
            scaled = ProximityMatrix(
                P.labels, np.asarray(P.data) * c, kind="dissimilarity"
            )
            a = mds(P, MdsConfig(dimensions=2))
            b = mds(scaled, MdsConfig(dimensions=2))
            assert abs(a.stress - b.stress) < 1e-9
            _, congruence = procrustes_align(a.coords, b.coords)
            assert congruence > 1.0 - 1e-9

    def test_embeddable_inputs_reach_tiny_stress(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n, k = int(rng.integers(4, 10)), 2
            X = rng.normal(size=(n, k))
            D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
            P = ProximityMatrix(tuple(f"p{i}" for i in range(n)), D, kind="dissimilarity")
            result = mds(P, MdsConfig(dimensions=k, epsilon=1e-14, max_iterations=500))
            assert result.stress < 1e-6


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.integers(1, 3), st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_smacof_core_stress_never_rises_under_random_weights(n, k, zeros, ones, seed):
    # zeros: the share of pairs with weight 0; ones: all-ones weights instead
    rng = np.random.default_rng(seed)
    if ones:
        W = 1.0 - np.eye(n)
    else:
        W = np.triu(rng.uniform(0.0, 5.0, (n, n)) * (rng.random((n, n)) >= zeros), 1)
        W = W + W.T
    T = np.triu(rng.uniform(0.0, 10.0, (n, n)) * (rng.random((n, n)) >= 0.2), 1)
    T = T + T.T
    assume(float((W * T * T).sum()) > 0)
    X = rng.standard_normal((n, k))
    _, history, iterations, converged = _smacof(W, T, X, 1e-12, 300)
    h = np.array(history)
    assert len(h) == iterations + 1
    assert converged or iterations == 300
    assert np.all(np.diff(h) <= 1e-12 * h[0]), h


class TestDisparities:
    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(11)
        P = random_dissimilarity(rng, 6)
        delta = np.asarray(P.data)
        X = rng.normal(size=(6, 2))
        dist = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
        mask = ~np.eye(6, dtype=bool)
        for level in ("ratio", "interval", "ordinal"):
            dh = transform_disparities(delta, dist, level, mask)
            np.testing.assert_allclose(dh, dh.T, atol=0)
            assert not np.diagonal(dh).any()
            assert np.all(dh >= 0)

    def test_ordinal_monotone_in_rank_order(self):
        rng = np.random.default_rng(12)
        P = random_dissimilarity(rng, 7)
        delta = np.asarray(P.data)
        X = rng.normal(size=(7, 2))
        dist = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
        mask = ~np.eye(7, dtype=bool)
        dh = transform_disparities(delta, dist, "ordinal", mask)
        iu = np.triu_indices(7, 1)
        order = np.argsort(delta[iu], kind="stable")
        fitted = dh[iu][order]
        deltas_sorted = delta[iu][order]
        for a in range(len(fitted) - 1):
            if deltas_sorted[a + 1] > deltas_sorted[a]:
                assert fitted[a + 1] >= fitted[a] - 1e-12

    def test_interval_fit_is_affine_in_delta(self):
        delta = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=float)
        dist = 2.0 * delta + 0.5
        np.fill_diagonal(dist, 0.0)
        mask = ~np.eye(3, dtype=bool)
        dh = transform_disparities(delta, dist, "interval", mask)
        iu = np.triu_indices(3, 1)
        np.testing.assert_allclose(dh[iu], 2.0 * delta[iu] + 0.5, atol=1e-9)

    def test_ordinal_tied_counts_match_lexsort_reference(self):
        # co-citation-like integer counts: few distinct values, many ties
        rng = np.random.default_rng(14)
        n = 60
        counts = np.triu(rng.poisson(1.5, size=(n, n)), 1)
        counts = counts + counts.T
        delta = (counts.max() - counts).astype(float)
        np.fill_diagonal(delta, 0.0)
        mask = ~np.eye(n, dtype=bool)
        mask[3, 7] = mask[7, 3] = mask[0, 59] = mask[59, 0] = False
        iu = np.triu_indices(n, 1)
        assert len(np.unique(delta[iu])) < 12
        # one fixed part serves every iteration of a fit, as in mds()
        fixed = _fixed_pairs(delta, mask, "ordinal")
        for _ in range(3):
            # points on a small grid, so distances tie inside delta ties too
            X = rng.integers(0, 4, size=(n, 2)).astype(float)
            dist = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
            expected = ordinal_reference(delta, dist, mask)
            for got in (transform_disparities(delta, dist, "ordinal", mask),
                        transform_disparities(delta, dist, "ordinal", mask, fixed=fixed)):
                np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_ordinal_continuous_delta_matches_lexsort_reference(self):
        rng = np.random.default_rng(15)
        delta = np.asarray(random_dissimilarity(rng, 150).data)
        X = rng.normal(size=(150, 3))
        dist = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(-1))
        mask = ~np.eye(150, dtype=bool)
        np.testing.assert_allclose(
            transform_disparities(delta, dist, "ordinal", mask),
            ordinal_reference(delta, dist, mask),
            rtol=1e-12, atol=1e-12,
        )


def unit_weight_smacof(W, targets, X, epsilon, max_iterations, update=None):
    """Reference: the SMACOF core's former all-ones special case.

    With ``W = 1 - I`` it took ``X = B(X) X / n`` instead of ``V+ B(X) X``;
    ``V+`` acts as ``1/n`` on centered configurations, so the two agree up
    to rounding.
    """
    n = len(X)
    assert np.array_equal(W, 1.0 - np.eye(n))
    w = W.ravel()

    def weigh(T):
        WT = W * T
        return WT, float(np.dot(WT.ravel(), T.ravel()))

    def stress(T, dist, norm):
        r = T - dist
        r *= r
        return float(np.dot(w, r.ravel())) / norm

    T = targets
    WT, norm = weigh(T)
    dist = _distances(X)
    history = [stress(T, dist, norm)]
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = WT / dist
        ratio[dist == 0] = 0.0
        BX = ratio.sum(axis=1)[:, None] * X - ratio @ X
        X = BX / n
        X -= X.mean(axis=0)
        dist = _distances(X)
        if update is not None:
            T = update(dist)
            WT, norm = weigh(T)
        history.append(stress(T, dist, norm))
        if history[-2] - history[-1] < epsilon:
            converged = True
            break
    return X, history, iterations, converged


@pytest.mark.parametrize("level", ["ratio", "interval", "ordinal"])
@pytest.mark.parametrize("seed", [None, 3, 11])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_unit_weights_match_the_former_one_over_n_update(monkeypatch, level, seed, k):
    cfg = MdsConfig(dimensions=k, level=level, init="classical" if seed is None else "random",
                    seed=seed)
    cities = builtin_dataset("cities")
    fit = mds(cities, cfg)
    # the package exports a function named mds, so reach the module itself
    monkeypatch.setattr(importlib.import_module("cocmap.mds"), "_smacof", unit_weight_smacof)
    reference = mds(cities, cfg)
    assert fit.iterations_used == reference.iterations_used
    assert fit.converged == reference.converged
    scale = np.abs(reference.coords).max()
    assert np.abs(fit.coords - reference.coords).max() <= 1e-12 * scale
    assert fit.stress == pytest.approx(reference.stress, rel=1e-11)
