"""Graph construction and Kamada-Kawai spring embedding.

Graphs come from thresholding a co-occurrence matrix: any count at or above
the threshold draws an edge, and the raw count is kept as the edge weight.
The embedding itself works on the *binarized* adjacency only -- weights feed
line thickness in the rendered output, never the geometry -- so rescaling
all weights leaves positions bit-identical.

The spring energy is ``sum_{i<j} k_ij (|x_i - x_j| - L d_ij)^2`` with
graph-theoretic distances ``d_ij`` and stiffness ``k_ij = 1 / d_ij^2``.
That is weighted raw stress, so each component is fitted by the SMACOF
core of :mod:`cocmap.mds` (stress majorization, Gansner, Koren & North
2004), started from classical scaling of the hop counts as Brandes & Pich
(2008) recommend.  The core runs SQUAREM cycles on the Guttman
transform (Varadhan & Roland 2008): two plain steps, a squared
extrapolation and a stabilizing step; run to a stationary layout, they
need about half the Guttman transforms of an over-relaxed step and a
quarter of those of the plain step.  Every cycle moves all vertices at
once and no kept cycle raises the energy, so the energy at termination
never exceeds the energy of that start; a two-vertex component, which one
plain step puts at its optimum, ends at exactly one hop.  A stiffness
constant ``K`` would only scale the energy, never the positions, so none
is offered; nor is ``L``, fixed at 1: the Pajek and SVG writers normalize
the positions, so another ``L`` would only scale the energy by ``L^2``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ingest import _number_cells
from .matrices import CooccurrenceMatrix, _as_labels, _freeze
from .mds import MdsConfig, _smacof, classical_init


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with positive finite edge weights; edges stored as (i, j, w), i < j."""

    node_labels: tuple[str, ...]
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        labels = _as_labels(self.node_labels, "node")
        n = len(labels)
        seen = set()
        norm = []
        for i, j, w in self.edges:
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise ValueError("self-loops are not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) references an unknown node")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            if not 0 < w < np.inf:  # NaN fails too
                raise ValueError("edge weights must be positive and finite")
            seen.add((i, j))
            norm.append((i, j, w))
        object.__setattr__(self, "node_labels", labels)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def n(self) -> int:
        return len(self.node_labels)


@dataclass(frozen=True, eq=False)
class LayoutResult:
    """Final 2-D positions with the spring energy and the SMACOF iterations spent.

    ``iterations`` sums the Guttman transforms over the components, and
    ``converged`` is true when every component stopped on the energy change
    of a SQUAREM cycle rather than at the cap.  ``initial_energy`` is the
    spring energy of the classical scaling start; majorization only ever
    lowers it.  ``residual`` is the largest Guttman residual
    ``|X - G| / |G|`` over the components, ``X`` a component's positions and
    ``G`` their Guttman transform: zero at a stationary layout, whatever its
    size.
    """

    positions: np.ndarray
    final_energy: float
    iterations: int
    initial_energy: float = 0.0
    converged: bool = True
    residual: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", _freeze(pos))


def graph_from_cooccurrence(M: CooccurrenceMatrix, threshold: int = 1) -> WeightedGraph:
    """Threshold a co-occurrence matrix into a weighted graph.

    An edge (i, j) exists when ``M[i][j] >= threshold``; its weight is the
    raw count (used for line widths only).  Isolated nodes stay in the node
    list.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    data = np.asarray(M.data)
    rows, cols = np.nonzero(np.triu(data >= threshold, 1))
    weights = data[rows, cols].astype(float)
    return WeightedGraph(M.labels, tuple(zip(rows.tolist(), cols.tolist(), weights.tolist())))


def shortest_path_lengths(G: WeightedGraph) -> np.ndarray:
    """All-pairs BFS hop counts on the binarized graph; unreachable pairs are inf.

    The search advances every source's frontier at once: one product with
    the dense adjacency matrix per hop.
    """
    n = G.n
    A = np.zeros((n, n))
    if G.edges:
        i, j = np.array([(i, j) for i, j, _ in G.edges]).T
        A[i, j] = A[j, i] = 1.0
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    reached = np.eye(n, dtype=bool)
    frontier = reached
    hops = 0
    while frontier.any():
        hops += 1
        frontier = ((frontier @ A) > 0) & ~reached
        dist[frontier] = hops
        reached |= frontier
    return dist


def kamada_kawai(G: WeightedGraph) -> LayoutResult:
    """Spring embedding of a graph in the plane, one hop of length 1.

    Disconnected graphs are laid out per component and the components packed
    on a grid with a padding of one hop.  Each component starts from the
    classical scaling (Torgerson) embedding of its hop counts, with signs
    fixed by :func:`~cocmap.mds.classical_init`, so runs are deterministic.
    A component that stops at the iteration cap is named in a warning.
    """
    n = G.n
    if n < 2:
        raise ValueError("layout needs at least two nodes")
    hops = shortest_path_lengths(G)
    # a vertex's component, named by its smallest member: its hop row's first finite entry
    label = np.isfinite(hops).argmax(axis=1)
    comps = [np.flatnonzero(label == c) for c in np.unique(label)]
    positions = np.zeros((n, 2))
    total_energy = 0.0
    initial_energy = 0.0
    total_iterations = 0
    all_converged = True
    residual = 0.0
    placed: list[tuple[np.ndarray, np.ndarray]] = []
    for comp in comps:
        k = len(comp)
        if k == 1:
            placed.append((comp, np.zeros((1, 2))))
            continue
        d = hops[np.ix_(comp, comp)]
        W = 1.0 / np.where(d > 0, d, 1.0) ** 2
        np.fill_diagonal(W, 0.0)
        # classical scaling start; a two-vertex component is 1-D.  It puts
        # vertices with equal hop rows (twin leaves) on one point, at times
        # exactly, and the core splits an exactly coincident pair along the
        # first axis alone, so a fixed jitter of 1e-5 diameters splits them
        X = np.zeros((k, 2))
        X[:, :min(2, k - 1)] = classical_init(d, min(2, k - 1))
        X += 1e-5 * float(d.max()) * np.random.default_rng(0).standard_normal((k, 2))
        # stop as mds() does by default
        X, history, iterations, converged, r = _smacof(W, d, X, MdsConfig.epsilon,
                                                       MdsConfig.max_iterations)
        # the history is normalized by the energy's weighted target sum
        scale = float((W * d * d).sum()) / 2
        if not converged:
            warnings.warn(f"layout of the {k}-vertex component with {G.node_labels[comp[0]]!r} "
                          f"stopped at the cap of {iterations} iterations; the last energy "
                          f"change was {(history[-2] - history[-1]) * scale:.3g}", stacklevel=2)
        residual = max(residual, r)
        initial_energy += history[0] * scale
        total_energy += history[-1] * scale
        total_iterations += iterations
        all_converged &= converged
        placed.append((comp, X - X.mean(axis=0)))
    # pack component bounding boxes on a grid with one hop of padding
    pad = 1.0
    cols = int(np.ceil(np.sqrt(len(placed))))
    x_cursor, y_cursor, row_height = 0.0, 0.0, 0.0
    for idx, (comp, X) in enumerate(placed):
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        size = hi - lo
        if idx and idx % cols == 0:
            x_cursor = 0.0
            y_cursor += row_height + pad
            row_height = 0.0
        offset = np.array([x_cursor - lo[0], y_cursor - lo[1]])
        positions[comp] = X + offset
        x_cursor += size[0] + pad
        row_height = max(row_height, float(size[1]))
    return LayoutResult(positions, total_energy, total_iterations, initial_energy,
                        all_converged, residual)


def _unit_box(layout: LayoutResult) -> np.ndarray:
    """Positions mapped per axis onto [0, 1]; a flat axis maps to 0."""
    pos = np.asarray(layout.positions, dtype=float)
    lo = pos.min(axis=0)
    span = pos.max(axis=0) - lo
    return (pos - lo) / np.where(span > 0, span, 1.0)


# ---------------------------------------------------------------------------
# Pajek .net format
# ---------------------------------------------------------------------------

def export_pajek(G: WeightedGraph, layout: LayoutResult | None = None) -> str:
    """Serialize a graph (optionally with coordinates) to Pajek .net text.

    Vertex ids are 1-based, labels double-quoted, lines ``\\n``-terminated.
    When a layout is given, coordinates are normalized into [0, 1] and
    appended to the vertex lines.  The format cannot carry a double quote
    or a line break inside a label, so a label containing ``"``, ``\\n``,
    ``\\r`` or another line boundary raises ``ValueError``.
    """
    for label in G.node_labels:
        if '"' in label:
            raise ValueError(f"Pajek labels cannot contain a double quote: {label!r}")
        if "".join(label.splitlines()) != label:
            raise ValueError(f"Pajek labels cannot contain a line break: {label!r}")
    lines = [f"*Vertices {G.n}"]
    coords = None if layout is None else _unit_box(layout)
    for idx, label in enumerate(G.node_labels):
        quoted = f'"{label}"'
        if coords is None:
            lines.append(f"{idx + 1} {quoted}")
        else:
            lines.append(f"{idx + 1} {quoted} {coords[idx, 0]:.6f} {coords[idx, 1]:.6f}")
    lines.append("*Edges")
    weights = _number_cells([w for _, _, w in G.edges])
    for (i, j, _), w in zip(G.edges, weights):
        lines.append(f"{i + 1} {j + 1} {w}")
    return "\n".join(lines) + "\n"


def import_pajek(text: str):
    """Parse Pajek .net text; returns (graph, positions or None)."""
    lines = [ln.rstrip("\r") for ln in text.splitlines()]
    labels: list[str] = []
    coords: list[tuple[float, float]] = []
    edges: list[tuple[int, int, float]] = []
    section = None
    n_declared = 0
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        low = line.lower()
        if low.startswith("*vertices"):
            section = "vertices"
            parts = line.split()
            n_declared = int(parts[1]) if len(parts) > 1 else 0
            continue
        if low.startswith("*edges") or low.startswith("*arcs"):
            section = "edges"
            continue
        if line.startswith("*"):
            section = None
            continue
        if section == "vertices":
            parts = line.split(None, 1)
            rest = parts[1] if len(parts) > 1 else ""
            if rest.startswith('"'):
                end = rest.index('"', 1)
                label = rest[1:end]
                tail = rest[end + 1:].split()
            else:
                parts = rest.split()
                label = parts[0] if parts else ""
                tail = parts[1:]
            labels.append(label)
            if len(tail) >= 2:
                coords.append((float(tail[0]), float(tail[1])))
        elif section == "edges":
            parts = line.split()
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
            w = float(parts[2]) if len(parts) > 2 else 1.0
            edges.append((i, j, w))
    if n_declared and len(labels) != n_declared:
        raise ValueError(
            f"vertex count {n_declared} does not match {len(labels)} vertex lines"
        )
    graph = WeightedGraph(tuple(labels), tuple(edges))
    positions = np.array(coords) if len(coords) == len(labels) and coords else None
    return graph, positions


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

SVG_WIDTH = 800
SVG_HEIGHT = 600
SVG_MARGIN = 50.0
MIN_STROKE = 0.5
MAX_STROKE = 4.0
NODE_RADIUS = 4.0
FONT_SIZE = 12


def export_svg(G: WeightedGraph, layout: LayoutResult) -> str:
    """Render a laid-out graph as an SVG document.

    The positions are scaled into an ``SVG_WIDTH`` x ``SVG_HEIGHT`` canvas
    inside a margin of ``SVG_MARGIN``.  Edge stroke widths interpolate
    linearly between ``MIN_STROKE`` and ``MAX_STROKE`` over the weight
    range; equal weights all get the midpoint width.
    """
    inner = np.array([SVG_WIDTH, SVG_HEIGHT]) - 2 * SVG_MARGIN
    scaled = SVG_MARGIN + _unit_box(layout) * inner

    weights = [w for _, _, w in G.edges]
    if weights:
        w_min, w_max = min(weights), max(weights)
    else:
        w_min = w_max = 1.0

    def stroke(w: float) -> float:
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
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{NODE_RADIUS}" fill="#1f3c88"/>'
        )
        safe = label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{x + NODE_RADIUS + 2:.2f}" y="{y - 2:.2f}" '
            f'font-size="{FONT_SIZE}" font-family="sans-serif">{safe}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
