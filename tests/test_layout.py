"""Graph building, spring embedding, and Pajek/SVG serialization."""

import xml.etree.ElementTree as ET
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocmap import (
    CooccurrenceMatrix,
    LayoutResult,
    MdsConfig,
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
from cocmap.layout import (
    FONT_SIZE,
    MAX_STROKE,
    MIN_STROKE,
    NODE_RADIUS,
    SVG_HEIGHT,
    SVG_MARGIN,
    SVG_WIDTH,
)
from test_mds import reference_map, reference_residual


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


def classical_start(hops):
    """Top two eigenvectors of -J D^2 J / 2 scaled by root eigenvalues, plus the jitter.

    Each column's largest-magnitude entry is positive; the jitter is 1e-5
    diameters of standard normal noise drawn from ``default_rng(0)``.
    """
    n = len(hops)
    J = np.eye(n) - np.full((n, n), 1.0 / n)
    B = -0.5 * (J @ hops**2 @ J)
    values, vectors = np.linalg.eigh((B + B.T) / 2.0)
    top = vectors[:, ::-1][:, :2]
    peak = top[np.abs(top).argmax(axis=0), [0, 1]]
    X = top * np.sign(peak) * np.sqrt(np.maximum(values[::-1][:2], 0.0))
    X -= X.mean(axis=0)
    return X + 1e-5 * hops.max() * np.random.default_rng(0).standard_normal((n, 2))


def spring_energy(X, hops):
    """sum_{i<j} (|x_i - x_j| - d_ij)^2 / d_ij^2 over the pairs of one component."""
    dist = np.sqrt(((X[:, None] - X[None]) ** 2).sum(-1))
    iu = np.triu_indices(len(X), 1)
    return float((((dist - hops)[iu] / hops[iu]) ** 2).sum())


def component_lists(hops):
    """Vertex lists of the connected components, from finite hop counts."""
    comps = {tuple(np.flatnonzero(np.isfinite(row))) for row in hops}
    return sorted(list(c) for c in comps)


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
        # the start is one hop plus jitter; a plain step lands on one hop
        # exactly, and the fit keeps it over the relaxed step, which overshoots
        G = WeightedGraph(("a", "b"), ((0, 1, 1.0),))
        result = kamada_kawai(G)
        dist = np.linalg.norm(result.positions[0] - result.positions[1])
        assert abs(dist - 1.0) <= 1e-12

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
            for X, energy in ((classical_start(hops), result.initial_energy),
                              (result.positions, result.final_energy)):
                mine = spring_energy(np.asarray(X), hops)
                assert abs(mine - energy) <= 1e-9 * mine

    def test_residual_matches_the_pseudo_inverse_map(self):
        # the largest Guttman residual over the components, each taken from
        # its centered positions under reference_map's pseudo-inverse map
        rng = np.random.default_rng(4)
        graphs = [random_connected_graph(rng, int(rng.integers(5, 60))) for _ in range(10)]
        graphs += [random_graph(rng, 40, 0.06) for _ in range(3)]
        # a four-leaf star, a K2,3 and an isolated edge: twin leaves and a
        # two-vertex component
        star = tuple((0, leaf, 1.0) for leaf in range(1, 5))
        k23 = tuple((i, j, 1.0) for i in (5, 6) for j in (7, 8, 9))
        graphs.append(WeightedGraph(tuple(f"v{i}" for i in range(12)),
                                    star + k23 + ((10, 11, 1.0),)))
        for G in graphs:
            hops = deque_hops(G)
            result = kamada_kawai(G)
            pos = np.asarray(result.positions)
            mine = 0.0
            for c in component_lists(hops):
                if len(c) > 1:
                    d = hops[np.ix_(c, c)]
                    W = 1.0 / np.where(d > 0, d, 1.0) ** 2
                    np.fill_diagonal(W, 0.0)
                    X = pos[c] - pos[c].mean(axis=0)
                    mine = max(mine, reference_residual(*reference_map(W, d), X))
            assert abs(result.residual - mine) <= 1e-9 * mine, (result.residual, mine)

    def test_warns_when_a_component_stops_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(MdsConfig, "max_iterations", 3)
        G = random_connected_graph(np.random.default_rng(5), 12)
        with pytest.warns(UserWarning, match="12-vertex component with 'v0' stopped at "
                                             "the cap of 3 iterations; the last energy change"):
            result = kamada_kawai(G)
        assert not result.converged and result.iterations == 3

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
        # the layout names each component by its smallest member and packs
        # the components in that order, two to a row with one hop of padding:
        # [0, 3, 5] at the origin, [1, 4] to its right, [2] on the second row
        G = WeightedGraph(tuple("abcdef"), ((1, 4, 1.0), (0, 5, 1.0), (5, 3, 1.0)))
        pos = np.asarray(kamada_kawai(G).positions)
        first, second, third = pos[[0, 3, 5]], pos[[1, 4]], pos[2]
        np.testing.assert_array_equal(first.min(axis=0), [0.0, 0.0])
        assert second.min(axis=0) == pytest.approx([first[:, 0].max() + 1.0, 0.0], abs=1e-12)
        height = max(np.ptp(first[:, 1]), np.ptp(second[:, 1]))
        assert third == pytest.approx([0.0, height + 1.0], abs=1e-12)


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


def format_weight_reference(w):
    """Pajek edge-weight text as the former ``layout._format_weight`` wrote it."""
    if w == int(w) and abs(w) < 1e15:
        return str(int(w))
    return repr(float(w))


def pajek_reference(G, layout=None):
    """``export_pajek`` text with its former inline normalization and weight text."""
    lines = [f"*Vertices {G.n}"]
    coords = None
    if layout is not None:
        pos = np.asarray(layout.positions, dtype=float)
        span = pos.max(axis=0) - pos.min(axis=0)
        span = np.where(span > 0, span, 1.0)
        coords = (pos - pos.min(axis=0)) / span
    for idx, label in enumerate(G.node_labels):
        if coords is None:
            lines.append(f'{idx + 1} "{label}"')
        else:
            lines.append(f'{idx + 1} "{label}" {coords[idx, 0]:.6f} {coords[idx, 1]:.6f}')
    lines.append("*Edges")
    lines += [f"{i + 1} {j + 1} {format_weight_reference(w)}" for i, j, w in G.edges]
    return "\n".join(lines) + "\n"


def svg_reference(G, layout):
    """``export_svg`` text with its former per-axis canvas scaling."""
    pos = np.asarray(layout.positions, dtype=float)
    lo = pos.min(axis=0)
    span = pos.max(axis=0) - lo
    span = np.where(span > 0, span, 1.0)
    inner_w = SVG_WIDTH - 2 * SVG_MARGIN
    inner_h = SVG_HEIGHT - 2 * SVG_MARGIN
    scaled = np.empty_like(pos)
    scaled[:, 0] = SVG_MARGIN + (pos[:, 0] - lo[0]) / span[0] * inner_w
    scaled[:, 1] = SVG_MARGIN + (pos[:, 1] - lo[1]) / span[1] * inner_h
    weights = [w for _, _, w in G.edges] or [1.0]
    w_min, w_max = min(weights), max(weights)

    def stroke(w):
        if w_max == w_min:
            return (MIN_STROKE + MAX_STROKE) / 2.0
        return MIN_STROKE + (w - w_min) / (w_max - w_min) * (MAX_STROKE - MIN_STROKE)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
    ]
    for i, j, w in G.edges:
        parts.append(
            f'<line x1="{scaled[i, 0]:.2f}" y1="{scaled[i, 1]:.2f}" '
            f'x2="{scaled[j, 0]:.2f}" y2="{scaled[j, 1]:.2f}" '
            f'stroke="#777777" stroke-width="{stroke(w):.3f}"/>'
        )
    for idx, label in enumerate(G.node_labels):
        x, y = scaled[idx]
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{NODE_RADIUS}" fill="#1f3c88"/>')
        safe = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{x + NODE_RADIUS + 2:.2f}" y="{y - 2:.2f}" '
            f'font-size="{FONT_SIZE}" font-family="sans-serif">{safe}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def test_pajek_weight_text_matches_the_former_formatter():
    weights = [1.0, 2.0, 7.0, 0.5, 0.12345678901234, 1.0 / 3.0, 5e-324,
               123456789012345.0, 999999999999999.0, 1e15, 1e15 + 2.0, 2.5e15,
               2.0**53 + 2.0, 1e16, 1e300]
    n = len(weights) + 1
    G = WeightedGraph(tuple(f"v{i}" for i in range(n)),
                      tuple((i, i + 1, w) for i, w in enumerate(weights)))
    assert export_pajek(G) == pajek_reference(G)
    edge_lines = export_pajek(G).splitlines()[n + 2:]
    assert [line.split()[2] for line in edge_lines] == list(map(format_weight_reference, weights))
    assert edge_lines[0].split()[2] == "1" and edge_lines[9].split()[2] == "1000000000000000.0"


FLAT_LAYOUTS = {
    "flat-x": [[2.0, 0.0], [2.0, 1.5], [2.0, -3.0]],
    "flat-y": [[0.0, -1.0], [0.25, -1.0], [7.0, -1.0]],
    "one-point": [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
}


@pytest.mark.parametrize("name", sorted(FLAT_LAYOUTS))
def test_normalization_matches_the_former_formulas_on_flat_axes(name):
    G = WeightedGraph(("a", "b", "c"), ((0, 1, 2.0), (1, 2, 3.5)))
    layout = LayoutResult(np.array(FLAT_LAYOUTS[name]), 0.0, 0)
    assert export_pajek(G, layout) == pajek_reference(G, layout)
    assert export_svg(G, layout) == svg_reference(G, layout)


def test_normalization_matches_the_former_formulas_on_layouts():
    rng = np.random.default_rng(17)
    graphs = [graph_from_cooccurrence(builtin_dataset("figure1"), 1), complete_graph(5)]
    graphs += [random_connected_graph(rng, int(rng.integers(3, 30))) for _ in range(20)]
    graphs.append(WeightedGraph(tuple("abcdef"), ((0, 2, 1.0), (2, 4, 1.0), (1, 3, 5.0))))
    for G in graphs:
        layout = kamada_kawai(G)
        assert export_pajek(G, layout) == pajek_reference(G, layout)
        assert export_svg(G, layout) == svg_reference(G, layout)


@pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf")])
def test_graph_refuses_weights_pajek_cannot_carry(weight):
    # a NaN weight would be written as an empty field and read back as 1
    with pytest.raises(ValueError, match="positive and finite"):
        WeightedGraph(("a", "b"), ((0, 1, weight),))


@st.composite
def layout_graphs(draw):
    """Disjoint unions of small random graphs, stars, twin leaves, pairs and isolated vertices."""
    edges: list[tuple[int, int, float]] = []
    n = 0
    for kind in draw(st.lists(st.sampled_from(["random", "star", "twins", "pair", "isolated"]),
                              min_size=1, max_size=4)):
        if kind == "random":
            k = draw(st.integers(2, 10))
            pairs = draw(st.sets(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                                 max_size=2 * k))
            edges += [(n + min(p), n + max(p), 1.0) for p in sorted(pairs) if p[0] != p[1]]
        elif kind == "star":
            k = draw(st.integers(2, 12))
            edges += [(n, n + leaf, 1.0) for leaf in range(1, k)]
        elif kind == "twins":
            # a path whose last vertex carries two or more leaves
            length, leaves = draw(st.integers(1, 8)), draw(st.integers(2, 5))
            edges += [(n + i, n + i + 1, 1.0) for i in range(length - 1)]
            edges += [(n + length - 1, n + length + leaf, 1.0) for leaf in range(leaves)]
            k = length + leaves
        elif kind == "pair":
            k = 2
            edges.append((n, n + 1, 1.0))
        else:
            k = 1
        n += k
    n = max(n, 2)
    return WeightedGraph(tuple(f"v{i}" for i in range(n)), tuple(sorted(set(edges))))


@settings(max_examples=200, deadline=None)
@given(layout_graphs())
# four twin leaves on a six-vertex path: classical scaling puts them on one
# point or nearly so, and the fit must still split them
@example(WeightedGraph(tuple(f"v{i}" for i in range(10)),
                       tuple((i, i + 1, 1.0) for i in range(5))
                       + tuple((5, leaf, 1.0) for leaf in range(6, 10))))
def test_layout_contract_on_random_graphs(G):
    result = kamada_kawai(G)
    pos = np.asarray(result.positions)
    assert np.all(np.isfinite(pos))
    assert result.final_energy <= result.initial_energy * (1 + 1e-12) + 1e-12
    # no two vertices of one component coincide
    for comp in component_lists(deque_hops(G)):
        dist = np.sqrt(((pos[comp][:, None] - pos[comp][None]) ** 2).sum(-1))
        assert dist[np.triu_indices(len(comp), 1)].min(initial=np.inf) > 1e-9, comp
    again = kamada_kawai(G)
    assert np.array_equal(again.positions, result.positions)
    assert (again.final_energy, again.initial_energy, again.iterations, again.residual) == \
        (result.final_energy, result.initial_energy, result.iterations, result.residual)


def _graph(*edges):
    return WeightedGraph(("a", "b"), edges)


# every check of the module's arguments: (call, error, exact message)
LAYOUT_ERRORS = {
    "self-loop": (lambda: _graph((0, 0, 1.0)), ValueError, "self-loops are not allowed"),
    "unknown-node": (lambda: _graph((0, 2, 1.0)), ValueError,
                     "edge (0, 2) references an unknown node"),
    "duplicate-edge": (lambda: _graph((0, 1, 1.0), (1, 0, 2.0)), ValueError,
                       "duplicate edge (0, 1)"),
    "weight": (lambda: _graph((0, 1, 0.0)), ValueError,
               "edge weights must be positive and finite"),
    "positions": (lambda: LayoutResult([[np.nan, 0.0]], 0.0, 0), ValueError,
                  "positions must be finite"),
    "threshold": (lambda: graph_from_cooccurrence(builtin_dataset("figure1"), 0), ValueError,
                  "threshold must be >= 1"),
    "one-node": (lambda: kamada_kawai(WeightedGraph(("a",), ())), ValueError,
                 "layout needs at least two nodes"),
    "pajek-vertex-count": (lambda: import_pajek('*Vertices 3\n1 "a"\n2 "b"\n'), ValueError,
                           "vertex count 3 does not match 2 vertex lines"),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_ERRORS))
def test_bad_input_is_refused(case):
    call, error, message = LAYOUT_ERRORS[case]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def test_import_pajek_skips_comments_and_other_sections_and_reads_bare_labels():
    text = ("% written by hand\n*Vertices 3\n1 a 0.1 0.2\n2 \"b c\" 0.3 0.4\n3 d 0.5 0.6\n"
            "*Partition\n1\n2\n*Edges\n1 2 2.5\n% a comment between edges\n2 3\n")
    graph, positions = import_pajek(text)
    assert graph.node_labels == ("a", "b c", "d")
    assert graph.edges == ((0, 1, 2.5), (1, 2, 1.0))
    assert np.array_equal(positions, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
