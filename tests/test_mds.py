"""SMACOF scaling, isotonic regression, classical start, and alignment."""

import functools
import hashlib
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
    WeightedGraph,
    builtin_dataset,
    classical_init,
    mds,
    monotone_regression,
    pearson_of_proximities,
    procrustes_align,
    shortest_path_lengths,
    to_dissimilarity,
    transform_disparities,
)
from cocmap.mds import (
    _FitPairs,
    _distances,
    _pool_adjacent_violators,
    _refit_isotonic,
    _smacof,
)


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


@st.composite
def warm_start_cases(draw):
    """A unit-weight sequence and a partition of it to start PAVA from."""
    if draw(st.booleans()):
        y = np.array(draw(st.lists(st.one_of(values_with_ties, st.just(0.0)),
                                   min_size=1, max_size=60)))
    else:  # the cascade, which pools everything into one block
        y = np.r_[np.arange(draw(st.integers(1, 59)), dtype=float), -1e9]
    n = len(y)
    kind = draw(st.sampled_from(["cuts", "singletons", "one block", "perturbed fit"]))
    if kind == "cuts":
        cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        first = np.flatnonzero(np.r_[True, cuts])
    elif kind == "singletons":
        first = np.arange(n)
    elif kind == "one block":
        first = np.array([0])
    else:  # the blocks of a nearby sequence's fit, as the iteration before gives
        seed = draw(st.integers(0, 2**32 - 1))
        scale = draw(st.sampled_from([1e-9, 1e-3, 0.1, 1.0]))
        noise = np.random.default_rng(seed).standard_normal(n)
        near = y + scale * max(1.0, float(np.abs(y).max())) * noise
        first = _pool_adjacent_violators(near, np.ones(n))[1]
    return y, first


@settings(max_examples=300, deadline=None)
@given(warm_start_cases())
def test_warm_started_fit_equals_the_cold_fit(case):
    y, first = case
    fitted, blocks = _refit_isotonic(y, first)
    cold = monotone_regression(y)
    assert np.abs(fitted - cold).max() <= 1e-12 * float(np.abs(y).max())
    # the blocks returned are those of the fit: constant inside, rising across
    assert blocks[0] == 0 and np.all(np.diff(blocks) > 0)
    values = fitted[blocks]
    assert np.all(np.diff(values) > 0)
    assert np.array_equal(fitted, values.repeat(np.diff(np.r_[blocks, len(y)])))


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


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 50), st.sampled_from(["ratio", "interval", "ordinal"]),
       st.integers(0, 2**32 - 1))
def test_similarity_entry_point_fits_its_dissimilarity(n, level, seed):
    # mds() of a similarity matrix is mds() of to_dissimilarity of it
    S = random_similarity(np.random.default_rng(seed), n)
    cfg = MdsConfig(dimensions=2, level=level)
    as_sim = mds(S, cfg)
    as_dis = mds(to_dissimilarity(S), cfg)
    assert as_sim.labels == as_dis.labels
    assert np.array_equal(as_sim.coords, as_dis.coords)
    assert as_sim.stress_history == as_dis.stress_history


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.integers(1, 3), st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       st.sampled_from(["random", "ones", "unit"]), st.integers(0, 2**32 - 1))
def test_smacof_core_stress_never_rises_under_random_weights(n, k, zeros, weights, seed):
    # zeros: the share of pairs with weight 0 of random weights; weights:
    # random ones, all-ones weights given as 1 - I, or unit weights given as None
    rng = np.random.default_rng(seed)
    if weights == "random":
        W = np.triu(rng.uniform(0.0, 5.0, (n, n)) * (rng.random((n, n)) >= zeros), 1)
        W = W + W.T
    else:
        W = 1.0 - np.eye(n)
    T = np.triu(rng.uniform(0.0, 10.0, (n, n)) * (rng.random((n, n)) >= 0.2), 1)
    T = T + T.T
    assume(float((W * T * T).sum()) > 0)
    X = rng.standard_normal((n, k))
    _, history, iterations, converged, _ = _smacof(None if weights == "unit" else W, T, X,
                                                   1e-12, 300)
    h = np.array(history)
    # one entry per cycle: three transforms or more, bar a last one cut by the cap
    assert 2 <= len(h) <= 1 + -(-iterations // 3)
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

    def test_coincident_points_fall_back_to_the_dissimilarities(self):
        # all distances 0: no level can fit a positive disparity, so the
        # dissimilarities themselves are returned instead of all zeros
        delta = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=float)
        mask = ~np.eye(3, dtype=bool)
        for level in ("ratio", "interval", "ordinal"):
            dh = transform_disparities(delta, np.zeros((3, 3)), level, mask)
            np.testing.assert_array_equal(dh, delta)

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
        fixed = _FitPairs(delta, mask, "ordinal")
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


def reference_map(W, targets, update=None, *, unit_weights=False):
    """The Guttman map of the SMACOF core, written out on its own.

    Returns ``(step, score)``: ``step(X, dist, WT)`` is the Guttman
    transform ``G = V+ B(X) X`` from the distances and weighted targets of
    ``X``, and ``score(X, T)`` gives ``(dist, W * T, stress)`` for targets
    ``T``, the update's when ``T`` is None.  ``V+`` is ``np.linalg.pinv``
    of the weighted Laplacian.  ``W`` None means unit weights, ``1 - I``,
    as in the core.  ``unit_weights`` takes the core's unit-weight
    transform: with ``W = 1 - I`` it is ``G = B(X) X / n`` instead of
    ``V+ B(X) X``, since ``V+`` acts as ``1/n`` on centered configurations.
    An update is called as the core calls it, ``update(dist, out)``, and
    writes ``W * T`` into a zeroed ``out``.  No input here has a coincident
    pair, which the core pushes apart along the first axis.
    """
    n = len(targets)
    if W is None:
        W = 1.0 - np.eye(n)
    if unit_weights:
        assert np.array_equal(W, 1.0 - np.eye(n))
    else:
        Vplus = np.linalg.pinv(np.diag(W.sum(axis=1)) - W)
    w = W.ravel()

    def step(X, dist, WT):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = WT / dist
        ratio[dist == 0] = 0.0
        BX = ratio.sum(axis=1)[:, None] * X - ratio @ X
        G = BX / n if unit_weights else Vplus @ BX
        return G - G.mean(axis=0)

    def score(X, T=None):
        dist = _distances(X)
        # the update writes W * T; mds() gives weights 0 or 1 and targets 0
        # wherever the weight is, so W * T is T, whose stress is recomputed
        # here over the full matrix
        if T is None:
            T = targets
            if update is not None:
                T = np.zeros_like(dist)
                update(dist, T)
        WT = W * T
        r = T - dist
        stress = float(np.dot(w, (r * r).ravel())) / float(np.dot(WT.ravel(), T.ravel()))
        return dist, WT, stress

    return step, score


def reference_residual(step, score, X):
    """``|X - G| / |G|`` for the Guttman transform ``G`` of ``X`` under
    :func:`reference_map`'s ``step`` and ``score``."""
    G = step(X, *score(X)[:2])
    return float(np.linalg.norm(X - G) / np.linalg.norm(G))


def reference_smacof(W, targets, X, epsilon, max_iterations, update=None, *,
                     unit_weights=False):
    """Reference: the SMACOF core's SQUAREM cycles written out on their own.

    A cycle takes ``X1 = F(X)``, ``X2 = F(X1)``, the steplength
    ``a = min(-|r| / |v|, -1)`` from ``r = X1 - X`` and
    ``v = X2 - 2 X1 + X``, and ends on ``F(X - 2 a r + a^2 v)``; while that
    point's stress exceeds the stress of ``X``, ``a`` moves halfway to -1
    (to -1 itself from above -1.5), where the point is ``X2``.  With no
    transform left in ``max_iterations`` the cycle ends on its last plain
    step instead.  A cycle's end is kept unless its stress rose.  The map
    is :func:`reference_map`'s, and the residual :func:`reference_residual`'s.
    """
    step, score = reference_map(W, targets, update, unit_weights=unit_weights)
    X = X - X.mean(axis=0)
    dist, WT, stress = score(X, targets)
    history = [stress]
    transforms = 0
    converged = False
    while not converged and transforms < max_iterations:
        X0, s0 = X, stress
        X1 = step(X0, dist, WT)
        dist, WT, end = score(X1)
        transforms += 1
        Y = X1
        if transforms < max_iterations:
            X2 = step(X1, dist, WT)
            transforms += 1
            r = X1 - X0
            v = X2 - X1 - r
            rr, vv = float(np.dot(r.ravel(), r.ravel())), float(np.dot(v.ravel(), v.ravel()))
            alpha = min(-np.sqrt(rr / vv), -1.0) if vv > 0 else -1.0
            while transforms < max_iterations:
                P = X2 if alpha == -1.0 else X0 - 2.0 * alpha * r + alpha * alpha * v
                Y = step(P, *score(P)[:2])
                dist, WT, end = score(Y)
                transforms += 1
                if end <= s0 or alpha == -1.0:
                    break
                alpha = (alpha - 1.0) / 2.0 if alpha < -1.5 else -1.0
            else:  # no transform left: the last plain step
                Y = X2
                dist, WT, end = score(Y)
        if end <= s0:
            X, stress = Y, end
        history.append(stress)
        converged = s0 - stress < epsilon
    return X, history, transforms, converged, reference_residual(step, score, X)


def relaxed_smacof(W, targets, X, epsilon, max_iterations, relaxation):
    """Baseline: the over-relaxed Guttman step the core took before SQUAREM.

    Each iteration takes ``G = F(X)`` and moves to
    ``relaxation * G - (relaxation - 1) * X``; the last iteration keeps
    ``G`` instead when its stress is lower.  ``relaxation=1`` is the plain
    step.  Targets are fixed.
    """
    step, score = reference_map(W, targets)
    X = X - X.mean(axis=0)
    dist, WT, stress = score(X)
    history = [stress]
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        G = step(X, dist, WT)
        X = relaxation * G - (relaxation - 1.0) * X
        dist, WT, current = score(X)
        history.append(current)
        converged = history[-2] - history[-1] < epsilon
        if converged or iterations == max_iterations:
            plain = score(G)[2]
            if plain < history[-1]:
                X, history[-1] = G, plain
            break
    return X, history, iterations, converged


@pytest.mark.parametrize("level", ["ratio", "interval", "ordinal"])
@pytest.mark.parametrize("seed", [None, 3, 11])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_unit_weights_match_the_former_one_over_n_update(monkeypatch, level, seed, k):
    cfg = MdsConfig(dimensions=k, level=level, init="classical" if seed is None else "random",
                    seed=seed)
    # the cities are complete, so mds() passes the core no weights, and the
    # reference takes B(X) X / n for W = 1 - I
    cities = builtin_dataset("cities")
    fit = mds(cities, cfg)
    # the package exports a function named mds, so reach the module itself
    monkeypatch.setattr(importlib.import_module("cocmap.mds"), "_smacof",
                        functools.partial(reference_smacof, unit_weights=True))
    reference = mds(cities, cfg)
    assert fit.iterations_used == reference.iterations_used
    assert fit.converged == reference.converged
    scale = np.abs(reference.coords).max()
    assert np.abs(fit.coords - reference.coords).max() <= 1e-12 * scale
    assert fit.stress == pytest.approx(reference.stress, rel=1e-11)
    assert fit.residual == pytest.approx(reference.residual, rel=1e-9, abs=1e-12)


def weighted_smacof(W, targets, *args):
    """The SMACOF core given ``W = 1 - I`` where it is given no weights: the
    weighted path, with its inverse of ``V + E``, for a complete matrix."""
    return _smacof(1.0 - np.eye(len(targets)) if W is None else W, targets, *args)


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 30), st.integers(1, 3), st.sampled_from(["ratio", "interval", "ordinal"]),
       st.sampled_from(["classical", "random"]), st.booleans(), st.integers(0, 2**32 - 1))
def test_unit_weights_fit_as_explicit_weights_do(n, k, level, init, ties, seed):
    # a complete matrix, with tied dissimilarities (halves) or without
    assume(k < n)
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 3.0, (n, n))
    if ties:
        d = np.round(2 * d) / 2
    d = np.triu(d, 1)
    P = ProximityMatrix(tuple(f"p{i}" for i in range(n)), d + d.T, kind="dissimilarity")
    cfg = MdsConfig(dimensions=k, level=level, init=init, seed=seed)
    unit = mds(P, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("cocmap.mds"), "_smacof", weighted_smacof)
        weighted = mds(P, cfg)
    assert unit.coords.tobytes() == weighted.coords.tobytes()
    assert (unit.iterations_used, unit.converged) == (weighted.iterations_used,
                                                      weighted.converged)
    # the unit-weight stress sums the same products in the same order
    assert unit.stress_history == weighted.stress_history
    assert unit.residual == weighted.residual


@pytest.mark.parametrize("level", ["ratio", "interval", "ordinal"])
@pytest.mark.parametrize("init", ["classical", "random"])
def test_a_complete_matrix_is_fit_without_weights_or_an_inverse(monkeypatch, level, init):
    module = importlib.import_module("cocmap.mds")
    given_weights = []

    def spy(W, *args):
        given_weights.append(W)
        return _smacof(W, *args)

    class Formed(Exception):
        pass

    def refuse(*args):
        raise Formed

    monkeypatch.setattr(module, "_smacof", spy)
    monkeypatch.setattr(module, "_components", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    cfg = MdsConfig(level=level, init=init, seed=4)
    mds(random_dissimilarity(np.random.default_rng(9), 20), cfg)
    assert given_weights == [None]
    # a missing pair takes the weighted path, which inverts V + E
    with pytest.raises(Formed):
        mds(gappy_cities(), cfg)
    assert given_weights[1].shape == (10, 10)


# the weighted core's fits of the cities with the Chicago-New York pair
# unobserved, before complete matrices took their own path: the transforms,
# the stress and residual, and the start of the SHA-256 of the coordinates
@pytest.mark.parametrize("level, init, transforms, stress, residual, digest", [
    ("ratio", "classical", 9, 2.955799696493325e-06, 0.00010536345003593385,
     "7477933b1f48a984"),
    ("ordinal", "random", 39, 0.0027578423017478263, 6.757655853266656e-05,
     "1fbfa85d7a44ba62"),
])
def test_one_missing_pair_keeps_the_weighted_fit(level, init, transforms, stress, residual,
                                                 digest):
    cities = builtin_dataset("cities")
    d = np.array(cities.data, dtype=float)
    d[1, 6] = d[6, 1] = np.nan
    fit = mds(ProximityMatrix(cities.labels, d, kind="dissimilarity"),
              MdsConfig(dimensions=2, level=level, init=init, seed=3))
    assert (fit.iterations_used, fit.converged) == (transforms, True)
    assert (fit.stress, fit.residual) == (stress, residual)
    assert hashlib.sha256(fit.coords.tobytes()).hexdigest()[:16] == digest


def gappy_cities():
    """The ten cities with two pairs unobserved."""
    cities = builtin_dataset("cities")
    d = np.array(cities.data, dtype=float)
    d[0, 5] = d[5, 0] = d[2, 7] = d[7, 2] = np.nan
    return ProximityMatrix(cities.labels, d, kind="dissimilarity")


def mds_reference_residual(P, level, coords):
    """The Guttman residual of ``coords`` for the fit :func:`mds` sets up,
    built here on its own: 0/1 weights on the observed pairs, targets (and
    at the interval and ordinal levels, disparities) scaled to a sum of
    squares of ``n (n - 1) / 2`` over the pairs, and :func:`reference_map`'s
    pseudo-inverse Guttman map."""
    delta = np.asarray(P.data)
    n = len(delta)
    mask = ~np.isnan(delta)
    np.fill_diagonal(mask, False)
    W = mask.astype(float)
    finite = np.where(mask, delta, 0.0)
    targets = finite * np.sqrt(n * (n - 1) / (W * finite * finite).sum())

    def update(dist, out):
        T = transform_disparities(delta, dist, level, mask)
        out[...] = T * np.sqrt(n * (n - 1) / (T * T).sum())

    step, score = reference_map(W, targets, None if level == "ratio" else update)
    return reference_residual(step, score, np.asarray(coords))


# fits that end at a residual of 1e-6 to 1e-3, where a relative comparison
# is meaningful; an exact fit (the cities at the ordinal level) ends at
# rounding, about 1e-16
@pytest.mark.parametrize("data, level, seed", [
    *[("random", level, seed) for level in ("ratio", "interval", "ordinal")
      for seed in (None, 3)],
    ("gappy", "ratio", None), ("gappy", "interval", 3), ("gappy", "ordinal", 3)])
def test_residual_matches_the_pseudo_inverse_map(data, level, seed):
    P = random_dissimilarity(np.random.default_rng(8), 25) if data == "random" else gappy_cities()
    fit = mds(P, MdsConfig(level=level, init="classical" if seed is None else "random",
                           seed=seed))
    reference = mds_reference_residual(P, level, fit.coords)
    assert 1e-7 < reference < 1e-2
    assert abs(fit.residual - reference) <= 1e-9 * reference, (fit.residual, reference)


def test_warm_started_ordinal_fit_matches_cold_transforms(monkeypatch):
    # 150 points planted in 3-D, each distance times exp(0.1 N(0, 1)): an
    # ordinal fit whose isotonic regression starts from the blocks of the
    # iteration before, against one that starts every regression from
    # singletons
    rng = np.random.default_rng(21)
    X = rng.standard_normal((150, 3)) * (1.0, 0.8, 0.6)
    noise = np.triu(rng.standard_normal((150, 150)), 1)
    D = _distances(X) * np.exp(0.1 * (noise + noise.T))
    P = ProximityMatrix(tuple(f"p{i}" for i in range(150)), D, kind="dissimilarity")
    cfg = MdsConfig(dimensions=3, level="ordinal", init="random", seed=5, epsilon=1e-10)
    warm = mds(P, cfg)
    monkeypatch.setattr(importlib.import_module("cocmap.mds"), "_refit_isotonic",
                        lambda y, first: _pool_adjacent_violators(y, np.ones_like(y)))
    cold = mds(P, cfg)
    assert warm.iterations_used == cold.iterations_used
    assert warm.converged and cold.converged
    scale = np.abs(cold.coords).max()
    assert np.abs(warm.coords - cold.coords).max() <= 1e-12 * scale
    assert warm.stress == pytest.approx(cold.stress, rel=1e-12)


def test_last_iteration_keeps_a_plain_step_that_lands_on_the_optimum():
    # one plain step puts two points at their target distance, where the
    # next step stays: r = -v, so the steplength is -1 and the first cycle
    # is three plain steps; the second changes nothing and ends the fit
    W = 1.0 - np.eye(2)
    X, history, iterations, converged, _ = _smacof(W, W.copy(),
                                                   np.array([[0.0, 0.0], [3.0, 1.0]]), 1e-6, 1000)
    assert converged and (iterations, len(history)) == (6, 3)
    assert abs(np.linalg.norm(X[0] - X[1]) - 1.0) <= 1e-12
    assert history[-1] <= 1e-24


def random_connected_hops(seed):
    """Hop counts of a random spanning tree plus random edges, int(1.5 n) - 1 edges in all."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(100, 161))
    edges = {(int(rng.integers(i)), i) for i in range(1, n)}
    while len(edges) < int(1.5 * n) - 1:
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        edges.add((i, j))
    G = WeightedGraph(tuple(f"v{i}" for i in range(n)), tuple((i, j, 1.0) for i, j in edges))
    return shortest_path_lengths(G)


@functools.lru_cache(maxsize=None)
def layout_fits(seed):
    """Spring-layout fits of ``random_connected_hops(seed)`` from the layout's
    start, run to 1e-10, by name: ``squarem`` (the core), ``relaxed`` and
    ``plain``; each is ``(history, transforms, converged)``."""
    d = random_connected_hops(seed)
    W = 1.0 / np.where(d > 0, d, 1.0) ** 2
    np.fill_diagonal(W, 0.0)
    # the layout's start: classical scaling plus a jitter of 1e-5 diameters
    X = classical_init(d, 2)
    X += 1e-5 * float(d.max()) * np.random.default_rng(0).standard_normal(X.shape)
    fits = {"squarem": _smacof(W, d, X, 1e-10, 5000),
            "relaxed": relaxed_smacof(W, d, X, 1e-10, 5000, 1.9),
            "plain": relaxed_smacof(W, d, X, 1e-10, 5000, 1.0)}
    return {name: fit[1:4] for name, fit in fits.items()}


@pytest.mark.parametrize("seed", range(5))
def test_relaxed_step_needs_fewer_iterations_than_the_plain_step(seed):
    # the baselines of the SQUAREM test below: run to 1e-10 so both steps
    # reach a stationary layout; at the layout's 1e-6 the plain fit at
    # times stops earlier on a slow stretch, at a higher energy
    fits = layout_fits(seed)
    history, iterations, converged = fits["relaxed"]
    plain_history, plain_iterations, plain_converged = fits["plain"]
    assert converged and plain_converged
    assert plain_iterations >= 1.25 * iterations
    assert history[-1] <= plain_history[-1] * (1 + 1e-3)


@pytest.mark.parametrize("seed", range(5))
def test_squarem_needs_fewer_transforms_than_the_plain_and_relaxed_steps(seed):
    # 78-181 transforms against 130-399 (relaxed) and 240-743 (plain)
    fits = layout_fits(seed)
    history, transforms, converged = fits["squarem"]
    assert converged
    for name in ("relaxed", "plain"):
        baseline_history, baseline_transforms, _ = fits[name]
        assert baseline_transforms >= 1.5 * transforms, name
        assert history[-1] <= baseline_history[-1] * (1 + 1e-3), name


def _cap_fit(max_iterations):
    """A fixed-target fit of 12 points in 2-D from a random start, stopped
    at ``max_iterations`` far from convergence."""
    rng = np.random.default_rng(31)
    W = np.triu(rng.uniform(0.5, 2.0, (12, 12)), 1)
    T = _distances(rng.standard_normal((12, 3)))
    return W + W.T, T, _smacof(W + W.T, T, rng.standard_normal((12, 2)), 1e-15, max_iterations)


def fixed_target_stress(W, T, X):
    r = T - _distances(X)
    return float((W * r * r).sum() / (W * T * T).sum())


@pytest.mark.parametrize("cap", [1, 2, 4, 5])
def test_a_cap_inside_a_cycle_ends_on_its_last_plain_step(cap):
    # cycles take three transforms; the cap ends the last one after one or
    # two plain steps, and the reported stress is that of the point returned
    W, T, (X, history, iterations, converged, _) = _cap_fit(cap)
    assert (iterations, converged, len(history)) == (cap, False, 2 + (cap > 3))
    assert history[-1] == pytest.approx(fixed_target_stress(W, T, X), rel=1e-12)
    assert history[-1] < history[-2]
    # the cap's plain steps are the first steps of the uncut cycle
    full = _cap_fit(cap + 3 - cap % 3)[2][1]
    assert full[:-1] == history[:-1] and full[-1] <= history[-1]


def test_a_cycle_backtracks_and_a_cap_after_the_backtrack_ends_on_x2():
    # on this input the third cycle ends above the stress it started from,
    # so its steplength backtracks: one more transform, ten in all, where
    # cycles alone take multiples of three
    rng = np.random.default_rng(107)
    n, k = int(rng.integers(3, 9)), int(rng.integers(1, 3))
    W = np.triu(rng.uniform(0.0, 5.0, (n, n)), 1)
    T = np.triu(rng.uniform(0.0, 10.0, (n, n)), 1)
    W, T, X0 = W + W.T, T + T.T, rng.standard_normal((n, k))
    X, history, iterations, converged, _ = _smacof(W, T, X0, 1e-12, 300)
    assert (n, k, iterations, converged, len(history)) == (3, 2, 10, True, 4)
    assert history[-1] == pytest.approx(fixed_target_stress(W, T, X), rel=1e-12)
    # with nine transforms, the backtrack has none left: the cycle ends on
    # its second plain step
    X, capped, iterations, converged, _ = _smacof(W, T, X0, 1e-12, 9)
    assert (iterations, len(capped)) == (9, 4)
    assert capped[:3] == history[:3] and capped[3] <= capped[2]
    assert converged == (capped[2] - capped[3] < 1e-12)
    assert capped[3] == pytest.approx(fixed_target_stress(W, T, X), rel=1e-12)


def _unknown_level():
    delta = np.array([[0.0, 1.0], [1.0, 0.0]])
    transform_disparities(delta, delta, "nominal", delta > 0)


# the library's own checks of its settings and arguments: (call, exact ValueError message)
SETTING_ERRORS = {
    "dimensions": (lambda: MdsConfig(dimensions=0), "dimensions must be >= 1"),
    "level": (lambda: MdsConfig(level="nominal"), "unknown level 'nominal'"),
    "init": (lambda: MdsConfig(init="spiral"), "unknown init 'spiral'"),
    "seed": (lambda: MdsConfig(init="random"), "random init requires an explicit seed"),
    "max-iterations": (lambda: MdsConfig(max_iterations=0), "max_iterations must be >= 1"),
    "epsilon": (lambda: MdsConfig(epsilon=0.0), "epsilon must be positive"),
    "disparity-level": (_unknown_level, "unknown level 'nominal'"),
    "procrustes-shapes": (lambda: procrustes_align(np.zeros((3, 2)), np.zeros((2, 2))),
                          "configurations must have matching shapes"),
}


@pytest.mark.parametrize("case", sorted(SETTING_ERRORS))
def test_bad_setting_is_refused(case):
    call, message = SETTING_ERRORS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value) == message


def _traced_fit_peak(traced_peak, level, init, max_iterations=3, missing=False):
    """Traced peak of a fit of 300 points, in n x n float64 arrays; it stops
    after 3 transforms unless ``max_iterations`` says otherwise.  With
    ``missing`` the pair (3, 7) is unobserved, so the weighted core fits it."""
    n = 300
    rng = np.random.default_rng(26)
    d = _distances(rng.standard_normal((n, 3)))
    if missing:
        d[3, 7] = d[7, 3] = np.nan
    P = ProximityMatrix(tuple(f"p{i}" for i in range(n)), d, kind="dissimilarity")
    cfg = MdsConfig(dimensions=2, level=level, init=init, seed=1, max_iterations=max_iterations)

    def fit():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # stopped at the cap
            return mds(P, cfg)

    fit, peak = traced_peak(fit)
    return fit, peak / d.nbytes


# traced peaks, random start: 7.7 (ordinal, 3 transforms), 8.06 (ordinal,
# converged after 60) and 4.37 (ratio).  The weighted core on the complete
# matrix, holding W, the inverse of V + E and W * targets, peaked at 10.7,
# 12.06 and 8.2, and with the disparities kept apart from B(X) and the
# targets kept to the end, 8.7, 10.06 and 5.2.  A fit that zero-filled a
# fresh disparity matrix on every call peaked at 11.7 (ordinal, 3
# transforms); one that also copied the frozen dissimilarities and kept the
# start's distances, the masked copy and V's eigenvectors, at 16.7 (ratio:
# 13.2).  With the pair (3, 7) missing, the weighted core peaks at 9.71,
# 10.15 (converged after 66) and 6.38: about two more, for W and the
# inverse of V + E
@pytest.mark.parametrize("level, max_iterations, missing, bound", [
    pytest.param("ordinal", 3, False, 8.2, id="ordinal"),
    pytest.param("ordinal", 1000, False, 8.5, id="ordinal-converged"),
    pytest.param("ratio", 3, False, 4.8, id="ratio"),
    pytest.param("ordinal", 3, True, 10.2, id="weighted-ordinal"),
    pytest.param("ordinal", 1000, True, 10.6, id="weighted-ordinal-converged"),
    pytest.param("ratio", 3, True, 6.8, id="weighted-ratio")])
def test_fit_holds_each_square_array_only_while_it_uses_it(level, max_iterations, missing,
                                                           bound, traced_peak):
    fit, peak = _traced_fit_peak(traced_peak, level, "random", max_iterations, missing)
    assert fit.converged == (max_iterations > 3)
    assert peak < bound


def test_classical_start_holds_no_more_square_arrays_than_the_fit(traced_peak):
    # traced peak 5.14, the classical start's own: the eigensolver's copies of
    # J D^2 J.  Before it dropped the filled dissimilarities, their squares
    # and J, it peaked at 10.1, above the 8.2 of the weighted core's fit
    assert _traced_fit_peak(traced_peak, "ratio", "classical")[1] < 5.6
