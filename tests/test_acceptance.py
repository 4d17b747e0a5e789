"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Each test prints a single ``ACCEPTANCE n <name>: PASS|FAIL`` line (visible
with ``pytest -s`` or in the captured output of failures) and then asserts.
Tolerances are pinned here and never loosened; the three checks that encode
analytically unattainable reference values fail honestly, with the measured
numbers in the FAIL line (the README's acceptance section walks through each).
"""

import itertools
import time
import warnings

import numpy as np
import pytest

from cocmap import (
    CooccurrenceMatrix,
    LoadingsMatrix,
    MdsConfig,
    OccurrenceMatrix,
    ProximityMatrix,
    WeightedGraph,
    affiliations,
    builtin_dataset,
    classical_init,
    cooccurrence,
    eigen_symmetric,
    export_pajek,
    import_pajek,
    kamada_kawai,
    mds,
    monotone_regression,
    parse_records,
    parse_square_matrix,
    pca_from_correlation,
    pearson_columns,
    pearson_of_proximities,
    procrustes_align,
    serialize_records,
    serialize_square_matrix,
    shift_pearson,
    to_dissimilarity,
    varimax,
)
from cocmap.factor import _varimax_sweeps

from test_matrices import brute_force_affiliations, brute_force_cooccurrence
from test_mds import brute_force_isotonic
from test_layout import random_connected_graph


def _report(number: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_figure3_reproduction():
    printed = np.array([
        [1.0, 1.0, 0.0, 0.295],
        [1.0, 1.0, 0.0, 0.295],
        [0.0, 0.0, 1.0, 0.705],
        [0.295, 0.295, 0.705, 1.0],
    ])
    A = builtin_dataset("figure2")
    shift_pearson(pearson_columns(A))  # warm-up
    elapsed = np.inf
    for _ in range(5):
        start = time.perf_counter()
        S = shift_pearson(pearson_columns(A))
        elapsed = min(elapsed, time.perf_counter() - start)
    deviation = float(np.abs(np.asarray(S.data) - printed).max())
    ok = deviation <= 0.0005 and elapsed < 1e-3
    _report(
        1, "figure-3 reproduction", ok,
        f"max deviation from printed table {deviation:.6f} "
        f"(exact shifted values are 0.295876/0.704124), {elapsed * 1e6:.0f}us",
    )


def test_criterion_02_city_map_recovery():
    cities = builtin_dataset("cities")
    start = time.perf_counter()
    result = mds(cities, MdsConfig(dimensions=2, level="ratio", init="classical"))
    elapsed = time.perf_counter() - start
    X0 = classical_init(np.asarray(cities.data), 2)
    _, congruence = procrustes_align(result.coords, X0)
    ok = (
        result.stress <= 0.005
        and result.iterations_used <= 200
        and congruence >= 0.99
        and elapsed < 1.0
    )
    _report(
        2, "city map recovery", ok,
        f"stress {result.stress:.6f} in {result.iterations_used} iterations, "
        f"congruence {congruence:.6f}, {elapsed * 1e3:.0f}ms",
    )


def test_criterion_03_distortion_demonstration():
    cities = builtin_dataset("cities")
    direct = mds(cities, MdsConfig(dimensions=2))
    distorted = mds(pearson_of_proximities(cities), MdsConfig(dimensions=2))
    contrast = distorted.stress > 10.0 * direct.stress
    in_band = 0.05 <= distorted.stress <= 0.20
    _report(
        3, "distortion demonstration", contrast and in_band,
        f"stress {distorted.stress:.5f} vs direct {direct.stress:.6f}; "
        f"contrast {'holds' if contrast else 'fails'}, "
        f"band [0.05, 0.20] {'holds' if in_band else 'fails'}",
    )


def test_criterion_04_kind_equivalence():
    rng = np.random.default_rng(2024)
    worst_stress_gap = 0.0
    worst_congruence = 1.0
    for _ in range(50):
        n = int(rng.integers(4, 13))
        s = rng.uniform(0.0, 1.0, size=(n, n))
        s = (s + s.T) / 2
        np.fill_diagonal(s, 1.0)
        labels = tuple(f"p{i}" for i in range(n))
        S = ProximityMatrix(labels, s, kind="similarity")
        as_sim = mds(S, MdsConfig(dimensions=2))
        as_dis = mds(to_dissimilarity(S, 1.0), MdsConfig(dimensions=2))
        worst_stress_gap = max(worst_stress_gap, abs(as_sim.stress - as_dis.stress))
        _, congruence = procrustes_align(as_sim.coords, as_dis.coords)
        worst_congruence = min(worst_congruence, congruence)
    ok = worst_stress_gap < 1e-10 and worst_congruence > 1.0 - 1e-9
    _report(
        4, "similarity/dissimilarity equivalence", ok,
        f"max |stress gap| {worst_stress_gap:.2e}, "
        f"min congruence {worst_congruence:.12f} over 50 matrices",
    )


def test_criterion_05_cooccurrence_oracles():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(200):
        n_docs = int(rng.integers(1, 13))
        n_attrs = int(rng.integers(2, 9))
        data = (rng.random((n_docs, n_attrs)) < rng.uniform(0.2, 0.8)).astype(np.int64)
        A = OccurrenceMatrix(
            tuple(f"d{i}" for i in range(n_docs)),
            tuple(f"a{j}" for j in range(n_attrs)),
            data,
        )
        for policy in ("raw", "zeroed"):
            if not np.array_equal(
                np.asarray(cooccurrence(A, policy).data),
                brute_force_cooccurrence(data, policy),
            ):
                ok = False
        if not np.array_equal(
            np.asarray(affiliations(A).data), brute_force_affiliations(data)
        ):
            ok = False
    _report(5, "co-occurrence oracle equivalence", ok,
            "200 random binary matrices, exact equality")


def test_criterion_06_smacof_monotonicity():
    rng = np.random.default_rng(11)
    ok_monotone = True
    ok_dominance = True
    worst_step = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 11))
        d = rng.uniform(0.2, 3.0, size=(n, n))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        P = ProximityMatrix(tuple(f"p{i}" for i in range(n)), d, kind="dissimilarity")
        finals = {}
        for level in ("ratio", "interval", "ordinal"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = mds(P, MdsConfig(dimensions=2, level=level, epsilon=1e-10,
                                          max_iterations=500))
            # a fit warns exactly when it stops at its cap
            assert len(caught) == (not result.converged), [str(w.message) for w in caught]
            seq = np.array(result.stress_history)
            step = float(np.diff(seq).max(initial=-np.inf))
            worst_step = max(worst_step, step)
            if step > 1e-12:
                ok_monotone = False
            finals[level] = result.stress
        if finals["ordinal"] > finals["ratio"] + 1e-9:
            ok_dominance = False
    _report(
        6, "stress monotonicity and ordinal dominance",
        ok_monotone and ok_dominance,
        f"largest stress increase per step {worst_step:.2e} over 300 runs",
    )


def test_criterion_07_factor_structural_suite():
    rng = np.random.default_rng(13)
    ok = True
    details = []
    # eigen reconstruction on random correlation matrices up to p = 30
    for p in (5, 12, 30):
        X = rng.standard_normal((p + 10, p))
        R = np.corrcoef(X, rowvar=False)
        values, vectors = eigen_symmetric(R)
        err = float(np.abs((vectors * values) @ vectors.T - R).max())
        if err >= 1e-8:
            ok = False
        details.append(f"eig p={p}: {err:.1e}")
        L = pca_from_correlation(R, n_factors=p)
        recon_err = float(np.abs(np.asarray(L.loadings) @ np.asarray(L.loadings).T - R).max())
        if recon_err >= 1e-8:
            ok = False
    # varimax: communalities, criterion monotonicity
    for _ in range(10):
        p = int(rng.integers(5, 15))
        X = rng.standard_normal((p + 8, p))
        R = np.corrcoef(X, rowvar=False)
        L = pca_from_correlation(R, n_factors=min(4, p - 1))
        V = varimax(L)
        comm_gap = float(np.abs(
            (np.asarray(L.loadings) ** 2).sum(1) - (np.asarray(V.loadings) ** 2).sum(1)
        ).max())
        if comm_gap >= 1e-9:
            ok = False
        A = np.asarray(L.loadings)
        rotated, history = _varimax_sweeps(A, 1e-6, 100)
        if np.diff(history).min(initial=0.0) < -1e-12:
            ok = False
        # rotated rotated' = A A' holds exactly when rotated = A Q, Q orthogonal
        if float(np.abs(rotated @ rotated.T - A @ A.T).max()) >= 1e-9:
            ok = False
    # the 45-degree mixed structure must rotate to simple structure
    h = np.sqrt(0.5)
    mixed = LoadingsMatrix(("x", "y"), [[h, h], [h, -h]], (1.0, 1.0), (50.0, 50.0))
    rotated = np.abs(np.asarray(varimax(mixed, kaiser_normalize=False).loadings))
    off = float(min(rotated[0].min(), rotated[1].min()))
    if off >= 1e-6:
        ok = False
    _report(7, "factor-analysis structural suite", ok,
            "; ".join(details) + f"; 45-degree off-loading {off:.1e}")


def test_criterion_08_isotonic_oracle():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        y = rng.uniform(-4, 4, size=n)
        w = rng.uniform(0.5, 2.0, size=n)
        gap = float(np.abs(
            monotone_regression(y, weights=w) - brute_force_isotonic(y, w)
        ).max())
        worst = max(worst, gap)
    ok = worst <= 1e-12
    _report(8, "isotonic regression oracle", ok,
            f"max |PAVA - enumeration| {worst:.2e} over 200 vectors")


def test_criterion_09_layout_contracts():
    details = []
    # single edge converges to the desired length
    pair = WeightedGraph(("a", "b"), ((0, 1, 1.0),))
    result = kamada_kawai(pair)
    sep = float(np.linalg.norm(result.positions[0] - result.positions[1]))
    ok_edge = abs(sep - 1.0) < 1e-6
    details.append(f"single-edge separation {sep:.8f}")
    # K4 edge-length spread
    k4 = WeightedGraph(
        tuple("abcd"), tuple((i, j, 1.0) for i in range(4) for j in range(i + 1, 4))
    )
    res4 = kamada_kawai(k4)
    lengths = np.array([
        np.linalg.norm(res4.positions[i] - res4.positions[j])
        for i, j, _ in k4.edges
    ])
    cv = float(lengths.std() / lengths.mean())
    ok_k4 = cv < 0.1
    details.append(f"K4 edge-length CV {cv:.4f} (planar optimum is ~0.1716)")
    # energy never increases on random connected graphs
    rng = np.random.default_rng(23)
    ok_energy = True
    for _ in range(100):
        G = random_connected_graph(rng, int(rng.integers(3, 10)))
        r = kamada_kawai(G)
        if r.final_energy > r.initial_energy + 1e-12:
            ok_energy = False
    details.append(f"energy contract {'holds' if ok_energy else 'fails'} on 100 graphs")
    # weights never influence geometry
    G = random_connected_graph(rng, 8)
    scaled = WeightedGraph(G.node_labels, tuple((i, j, w * 3.25) for i, j, w in G.edges))
    ok_weights = np.array_equal(
        kamada_kawai(G).positions, kamada_kawai(scaled).positions
    )
    details.append(f"weight-rescaling bit-identical: {ok_weights}")
    _report(9, "layout contracts", ok_edge and ok_k4 and ok_energy and ok_weights,
            "; ".join(details))


def test_criterion_10_format_round_trips():
    rng = np.random.default_rng(29)
    ok = True
    for _ in range(100):
        n_docs = int(rng.integers(1, 7))
        n_attrs = int(rng.integers(2, 7))
        A = OccurrenceMatrix(
            tuple(f"doc{i}" for i in range(n_docs)),
            tuple(sorted(f"attr{j}" for j in range(n_attrs))),
            rng.integers(0, 5, size=(n_docs, n_attrs)),
        )
        B = parse_records(serialize_records(A))
        if B.rows != A.rows or B.cols != A.cols or not np.array_equal(
            np.asarray(B.data), np.asarray(A.data)
        ):
            ok = False
    for _ in range(100):
        n = int(rng.integers(2, 8))
        d = np.round(rng.uniform(0, 9, size=(n, n)), 6)
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        P = ProximityMatrix(tuple(f"n{i}" for i in range(n)), d, kind="dissimilarity")
        Q = parse_square_matrix(serialize_square_matrix(P), "dissimilarity")
        if Q.labels != P.labels or not np.array_equal(
            np.asarray(Q.data), np.asarray(P.data)
        ):
            ok = False
    for _ in range(100):
        G = random_connected_graph(rng, int(rng.integers(2, 9)))
        H, _ = import_pajek(export_pajek(G))
        if H != G:
            ok = False
    cities = np.asarray(builtin_dataset("cities").data)
    triples_ok = all(
        cities[i, j] <= cities[i, k] + cities[k, j]
        for i, j, k in itertools.permutations(range(10), 3)
    )
    ok = ok and triples_ok
    _report(10, "format round-trips and transcription checks", ok,
            "records, square CSV, Pajek x100 each; city triangle inequality "
            f"{'holds' if triples_ok else 'fails'}")
