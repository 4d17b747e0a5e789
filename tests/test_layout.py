"""Graph building, spring embedding, and Pajek/SVG serialization."""

import xml.etree.ElementTree as ET
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocmap import (
    CooccurrenceMatrix,
    WeightedGraph,
    builtin_dataset,
    cooccurrence,
    export_pajek,
    export_svg,
    graph_from_cooccurrence,
    import_pajek,
    kamada_kawai,
    shortest_path_lengths,
)


def edge_lengths(result, graph):
    pos = np.asarray(result.positions)
    return np.array(
        [np.linalg.norm(pos[i] - pos[j]) for i, j, _ in graph.edges]
    )


def complete_graph(n, weight=1.0):
    return WeightedGraph(
        tuple(f"v{i}" for i in range(n)),
        tuple((i, j, weight) for i in range(n) for j in range(i + 1, n)),
    )


def cycle_graph(n):
    return WeightedGraph(
        tuple(f"v{i}" for i in range(n)),
        tuple((i, (i + 1) % n if i + 1 < n else 0, 1.0) for i in range(n)),
    )


def random_connected_graph(rng, n):
    edges = set()
    order = rng.permutation(n)
    for a, b in zip(order, order[1:]):  # spanning tree first
        i, j = int(min(a, b)), int(max(a, b))
        edges.add((i, j))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((int(i), int(j)))
    weights = {e: float(rng.integers(1, 9)) for e in edges}
    return WeightedGraph(
        tuple(f"v{i}" for i in range(n)),
        tuple((i, j, weights[(i, j)]) for i, j in sorted(edges)),
    )


def deque_hops(G):
    """Reference all-pairs hop counts: one queue-driven BFS per source."""
    adj = [[] for _ in range(G.n)]
    for i, j, _ in G.edges:
        adj[i].append(j)
        adj[j].append(i)
    dist = np.full((G.n, G.n), np.inf)
    for start in range(G.n):
        dist[start, start] = 0.0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[start, v] == np.inf:
                    dist[start, v] = dist[start, u] + 1.0
                    queue.append(v)
    return dist


def random_graph(rng, n, p):
    """Erdos-Renyi graph: often disconnected, often with isolated nodes."""
    rows, cols = np.nonzero(np.triu(rng.random((n, n)) < p, 1))
    return WeightedGraph(tuple(f"v{i}" for i in range(n)),
                         tuple((i, j, 1.0) for i, j in zip(rows.tolist(), cols.tolist())))


def spring_gradients(X, hops, edge_length=1.0):
    """Per-vertex gradient norms of sum_{i<j} (|x_i - x_j| - L d_ij)^2 / d_ij^2."""
    diff = X[:, None, :] - X[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    off = ~np.eye(len(X), dtype=bool)
    factor = np.zeros_like(dist)
    factor[off] = (1.0 - edge_length * hops[off] / dist[off]) / hops[off] ** 2
    grad = 2.0 * (factor[:, :, None] * diff).sum(axis=1)
    return np.sqrt((grad**2).sum(axis=1))


def circular_start(hops, edge_length=1.0):
    n = len(hops)
    radius = edge_length * max(float(hops.max()), 1.0) / 2.0
    angles = 2.0 * np.pi * np.arange(n) / n
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


class TestGraphFromCooccurrence:
    def test_bundled_cocitation_matrix_gives_complete_graph(self):
        M = builtin_dataset("figure1")
        G = graph_from_cooccurrence(M, 1)
        assert len(G.edges) == 6
        weights = [w for _, _, w in G.edges]
        assert weights == [10.0, 20.0, 25.0, 30.0, 15.0, 12.0]

    def test_threshold_above_max_gives_edgeless_graph(self):
        M = builtin_dataset("figure1")
        G = graph_from_cooccurrence(M, 31)
        assert G.edges == ()
        assert G.n == 4

    def test_citation_derived_edges(self):
        A = builtin_dataset("figure2")
        G = graph_from_cooccurrence(cooccurrence(A, "zeroed"), 1)
        pairs = {(G.node_labels[i], G.node_labels[j]) for i, j, _ in G.edges}
        assert pairs == {("A", "B"), ("A", "D"), ("B", "D"), ("C", "D")}

    def test_isolated_nodes_kept(self):
        M = CooccurrenceMatrix(("a", "b", "c"), [[0, 2, 0], [2, 0, 0], [0, 0, 0]])
        G = graph_from_cooccurrence(M)
        assert G.n == 3
        assert len(G.edges) == 1


class TestShortestPaths:
    def test_path_graph(self):
        G = WeightedGraph(("a", "b", "c"), ((0, 1, 1.0), (1, 2, 1.0)))
        d = shortest_path_lengths(G)
        assert d[0, 2] == 2.0

    def test_complete_graph_all_ones(self):
        d = shortest_path_lengths(complete_graph(5))
        off = ~np.eye(5, dtype=bool)
        assert np.all(d[off] == 1.0)

    def test_citation_derived_graph_two_hops(self):
        A = builtin_dataset("figure2")
        G = graph_from_cooccurrence(cooccurrence(A, "zeroed"), 1)
        d = shortest_path_lengths(G)
        i = {lab: k for k, lab in enumerate(G.node_labels)}
        assert d[i["A"], i["C"]] == 2.0

    def test_unreachable_is_infinite(self):
        G = WeightedGraph(("a", "b", "c"), ((0, 1, 1.0),))
        d = shortest_path_lengths(G)
        assert np.isinf(d[0, 2])

    def test_edgeless_graph(self):
        d = shortest_path_lengths(WeightedGraph(("a", "b", "c"), ()))
        assert np.array_equal(d, np.where(np.eye(3, dtype=bool), 0.0, np.inf))

    @pytest.mark.parametrize("p", [0.02, 0.05, 0.15, 0.5])
    def test_matches_queue_bfs_on_random_graphs(self, p):
        rng = np.random.default_rng(31)
        for _ in range(10):
            G = random_graph(rng, int(rng.integers(1, 60)), p)
            assert np.array_equal(shortest_path_lengths(G), deque_hops(G))

    def test_matches_queue_bfs_on_connected_graphs(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            G = random_connected_graph(rng, int(rng.integers(2, 80)))
            assert np.array_equal(shortest_path_lengths(G), deque_hops(G))


class TestKamadaKawai:
    def test_single_edge_reaches_exact_length(self):
        G = WeightedGraph(("a", "b"), ((0, 1, 1.0),))
        result = kamada_kawai(G)
        dist = np.linalg.norm(result.positions[0] - result.positions[1])
        assert abs(dist - 1.0) < 1e-6

    def test_path_graph_nearly_collinear(self):
        G = WeightedGraph(("a", "b", "c"), ((0, 1, 1.0), (1, 2, 1.0)))
        result = kamada_kawai(G)
        pos = np.asarray(result.positions)
        d = sorted(
            np.linalg.norm(pos[i] - pos[j]) for i, j in ((0, 1), (1, 2), (0, 2))
        )
        assert d[2] / (d[0] + d[1]) > 0.95

    def test_energy_never_increases(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            G = random_connected_graph(rng, int(rng.integers(3, 10)))
            result = kamada_kawai(G)
            assert result.final_energy <= result.initial_energy + 1e-12

    def test_weights_do_not_move_positions(self):
        rng = np.random.default_rng(1)
        G = random_connected_graph(rng, 7)
        scaled = WeightedGraph(
            G.node_labels, tuple((i, j, w * 17.5) for i, j, w in G.edges)
        )
        a = kamada_kawai(G)
        b = kamada_kawai(scaled)
        assert np.array_equal(a.positions, b.positions)

    def test_cycles_lay_out_evenly(self):
        for n in (3, 5, 6):
            G = cycle_graph(n)
            result = kamada_kawai(G)
            lengths = edge_lengths(result, G)
            assert lengths.std() / lengths.mean() < 0.1, n

    def test_triangle_is_equilateral(self):
        result = kamada_kawai(complete_graph(3))
        lengths = edge_lengths(result, complete_graph(3))
        assert lengths.std() / lengths.mean() < 0.01

    def test_components_are_packed_apart(self):
        G = WeightedGraph(("a", "b", "c", "d", "e"), ((0, 1, 1.0), (2, 3, 1.0)))
        result = kamada_kawai(G)
        pos = np.asarray(result.positions)
        assert np.all(np.isfinite(pos))
        # nodes of different components never coincide
        for i in (0, 1):
            for j in (2, 3, 4):
                assert np.linalg.norm(pos[i] - pos[j]) > 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        G = random_connected_graph(rng, 8)
        a = kamada_kawai(G)
        b = kamada_kawai(G)
        assert np.array_equal(a.positions, b.positions)

    def test_reported_energies_match_the_positions(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            G = random_connected_graph(rng, int(rng.integers(3, 30)))
            hops = deque_hops(G)
            result = kamada_kawai(G)
            assert result.converged
            for X, energy in ((circular_start(hops), result.initial_energy),
                              (result.positions, result.final_energy)):
                dist = np.sqrt(((X[:, None] - X[None]) ** 2).sum(-1))
                iu = np.triu_indices(G.n, 1)
                mine = float((((dist - hops)[iu] / hops[iu]) ** 2).sum())
                assert abs(mine - energy) <= 1e-9 * mine

    @pytest.mark.parametrize("seed", range(6))
    def test_final_layout_is_stationary(self, seed):
        # the spring energy's largest vertex gradient falls a hundredfold
        rng = np.random.default_rng(100 + seed)
        G = random_connected_graph(rng, int(rng.integers(100, 160)))
        hops = deque_hops(G)
        start = spring_gradients(circular_start(hops), hops).max()
        final = spring_gradients(np.asarray(kamada_kawai(G).positions), hops).max()
        assert final <= 1e-2 * start, final / start


class TestPajekFormat:
    def test_round_trip_simple(self):
        G = WeightedGraph(("a", "b"), ((0, 1, 2.0),))
        H, _ = import_pajek(export_pajek(G))
        assert H == G

    def test_bundled_graph_layout_of_file(self):
        G = graph_from_cooccurrence(builtin_dataset("figure1"), 1)
        text = export_pajek(G)
        lines = text.splitlines()
        assert lines[0] == "*Vertices 4"
        assert lines[1] == '1 "Paper 1"'
        assert lines[5] == "*Edges"
        assert len(lines) == 12
        assert lines[6] == "1 2 10"

    def test_empty_edge_set(self):
        G = WeightedGraph(("a", "b"), ())
        text = export_pajek(G)
        assert "*Edges" in text
        H, _ = import_pajek(text)
        assert H == G

    def test_round_trip_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            G = random_connected_graph(rng, n)
            H, _ = import_pajek(export_pajek(G))
            assert H == G

    def test_fractional_weights_survive(self):
        G = WeightedGraph(("a", "b"), ((0, 1, 0.12345678901234),))
        H, _ = import_pajek(export_pajek(G))
        assert H.edges[0][2] == 0.12345678901234

    def test_coordinates_written_and_read(self):
        G = WeightedGraph(("a", "b", "c"), ((0, 1, 1.0), (1, 2, 1.0)))
        result = kamada_kawai(G)
        text = export_pajek(G, result)
        H, coords = import_pajek(text)
        assert H == G
        assert coords is not None and coords.shape == (3, 2)
        assert coords.min() >= 0.0 and coords.max() <= 1.0

    def test_labels_with_spaces(self):
        G = WeightedGraph(("New York", "Washington DC"), ((0, 1, 3.0),))
        H, _ = import_pajek(export_pajek(G))
        assert H.node_labels == ("New York", "Washington DC")

    def test_tab_separated_vertex_lines(self):
        G, coords = import_pajek('*Vertices 2\n1\t"A"\t0.5\t1\n2\t"B"\t0\t0\n'
                                 '*Edges\n1\t2\t3\n')
        assert G == WeightedGraph(("A", "B"), ((0, 1, 3.0),))
        assert coords.tolist() == [[0.5, 1.0], [0.0, 0.0]]


class TestSvgExport:
    def test_stroke_width_endpoints(self):
        G = WeightedGraph(("a", "b", "c"), ((0, 1, 10.0), (1, 2, 30.0)))
        result = kamada_kawai(G)
        svg = export_svg(G, result)
        assert 'stroke-width="0.500"' in svg
        assert 'stroke-width="4.000"' in svg

    def test_stroke_width_interpolation(self):
        G = WeightedGraph(
            ("a", "b", "c", "d"), ((0, 1, 10.0), (1, 2, 30.0), (2, 3, 20.0))
        )
        result = kamada_kawai(G)
        svg = export_svg(G, result)
        assert 'stroke-width="2.250"' in svg

    def test_equal_weights_uniform_width(self):
        G = complete_graph(4, weight=7.0)
        result = kamada_kawai(G)
        svg = export_svg(G, result)
        widths = {
            part.split('"')[1]
            for part in svg.split("stroke-width=")[1:]
        }
        assert len(widths) == 1

    def test_valid_xml_with_labels(self):
        G = WeightedGraph(("alpha", "beta"), ((0, 1, 1.0),))
        svg = export_svg(G, kamada_kawai(G))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "alpha" in texts and "beta" in texts


class TestSinglePathSearch:
    @pytest.mark.parametrize("graph", [
        WeightedGraph(("a", "b", "c", "d", "e"), ((0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0))),
        WeightedGraph(tuple("abcdef"), ((0, 2, 1.0), (2, 4, 1.0), (1, 3, 5.0))),
    ], ids=["two-components", "with-isolated-node"])
    def test_all_pairs_bfs_runs_once_per_layout(self, monkeypatch, graph):
        import cocmap.layout as layout_module

        calls = []
        real = layout_module.shortest_path_lengths

        def counting(G):
            calls.append(G)
            return real(G)

        monkeypatch.setattr(layout_module, "shortest_path_lengths", counting)
        kamada_kawai(graph)
        assert len(calls) == 1

    def test_components_in_smallest_member_order(self):
        from cocmap.layout import _components

        G = WeightedGraph(tuple("abcdef"), ((1, 4, 1.0), (0, 5, 1.0), (5, 3, 1.0)))
        assert _components(shortest_path_lengths(G)) == [[0, 3, 5], [1, 4], [2]]


class TestPajekQuotes:
    def test_double_quote_label_refused_with_its_name(self):
        G = WeightedGraph(('a"b', "a'b", "c"), ((0, 1, 1.0), (1, 2, 1.0)))
        with pytest.raises(ValueError, match="a\"b"):
            export_pajek(G)

    def test_apostrophe_label_round_trips(self):
        G = WeightedGraph(("a'b", "c"), ((0, 1, 1.0),))
        H, _ = import_pajek(export_pajek(G))
        assert H.node_labels == ("a'b", "c")


class TestPajekLineBreaks:
    @pytest.mark.parametrize("label", ["a\nb", "a\rb", "a\r\nb", "ab\n", "a\u2028b"])
    def test_line_break_label_refused_with_its_name(self, label):
        G = WeightedGraph((label, "c"), ((0, 1, 1.0),))
        with pytest.raises(ValueError, match="line break") as info:
            export_pajek(G)
        assert repr(label) in str(info.value)

    def test_ordinary_labels_round_trip(self):
        G = WeightedGraph(("alpha beta", "x-1", "c"), ((0, 1, 2.0), (1, 2, 1.0)))
        H, _ = import_pajek(export_pajek(G))
        assert H.node_labels == G.node_labels
        assert H.edges == G.edges


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(max_size=6), min_size=2, max_size=5, unique=True))
def test_pajek_round_trip_or_refuse(labels):
    # export_pajek either refuses a label or import_pajek reads it back
    G = WeightedGraph(labels, tuple((i, i + 1, float(i + 1)) for i in range(len(labels) - 1)))
    layout = kamada_kawai(G)
    try:
        text = export_pajek(G, layout)
    except ValueError:
        return
    H, coords = import_pajek(text)
    assert H == G
    assert coords.shape == (len(labels), 2)
