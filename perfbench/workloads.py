"""Seeded input generators and the workload table.

Every workload is a pure function of ``(name, seed)``: the generator draws
from ``numpy.random.default_rng([seed, crc32(name)])`` and writes text, so the
same seed gives byte-identical input files.  The program under test only ever
sees the written files; the arrays returned alongside them are the
benchmark's own ground truth for the oracles.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its input sizes and the CLI call it makes.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name: str
    kind: str  # "records" or "matrix"
    sizes: dict = field(default_factory=dict)
    cli: tuple[str, ...] = ()  # generate() appends --threshold from sizes
    # run_s is scaled to nominal speed by the reference kernel (run.py).
    # False where the call time does not follow the kernel's drift.
    scaled: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="records-mds",
            kind="records",
            sizes={"docs": 4000, "attrs": 120, "mean_cites": 6.0, "topics": 8,
                   "zipf": 1.0},
            cli=("pipeline", "--steps", "pearson,shift,mds"),
        ),
        Workload(
            name="records-layout",
            kind="records",
            # The giant component's hop diameter sets the radius of the
            # layout's circular start, so it moves the final energy by
            # half: a diameter of 3 instead of 4 (about 1 draw in 15) gave
            # 8126 against 12000-13000.  Draws of another diameter are
            # replaced by the next draw of the same generator.
            sizes={"docs": 6000, "attrs": 250, "mean_cites": 3.0, "topics": 8,
                   "zipf": 1.0, "threshold": 5, "diameter": 4},
            cli=("pipeline", "--steps", "cooccurrence,layout"),
            # Most of the call is the int64 count product, not interpreter
            # loops: over 20 interleaved calls, the slope of log call time on
            # log reference time was -0.08 (records-factor: 0.82), so scaling
            # would add the kernel's drift instead of removing the machine's.
            scaled=False,
        ),
        Workload(
            name="matrix-ordinal",
            kind="matrix",
            sizes={"points": 150, "axis_scales": (1.0, 0.8, 0.6), "noise": 0.1},
            # A fixed iteration count (epsilon far below any stress change
            # before the cap) keeps the work per call the same for every
            # random start.  The map has the plant's three dimensions: 2-D
            # fits of such data left some starts in folded local minima.
            cli=("mds", "--kind", "dissim", "--level", "ordinal", "--dims", "3",
                 "--init", "random", "--max-iter", "160", "--epsilon", "1e-12"),
        ),
        Workload(
            name="records-factor",
            kind="records",
            sizes={"docs": 4000, "attrs": 100, "mean_cites": 6.0, "topics": 33,
                   "zipf": 1.0},
            cli=("factor",),
        ),
    )
}


def rng_for(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(name.encode("utf-8"))])


def attr_label(j: int) -> str:
    return f"A{j:03d}"


def point_label(i: int) -> str:
    return f"p{i:03d}"


def zipf_records(rng: np.random.Generator, docs: int, attrs: int,
                 mean_cites: float, topics: int, zipf: float) -> np.ndarray:
    """Documents x attributes citation counts with topical Zipf popularity.

    Each attribute belongs to one topic and has a Zipf popularity weight
    from a random rank.  Each document picks a topic and cites
    ``1 + Poisson(mean_cites - 1)`` distinct attributes, drawn 80% from its
    topic and 20% from all attributes, by popularity; one citation in ten is
    counted twice.  Attributes that no document cites are then given one
    citation, so every column varies and no column is constant.
    """
    topic_of = rng.permutation(attrs) % topics
    weight = 1.0 / rng.permutation(np.arange(1, attrs + 1)) ** zipf
    glob = weight / weight.sum()
    probs = []
    for t in range(topics):
        local = np.where(topic_of == t, weight, 0.0)
        probs.append(0.8 * local / local.sum() + 0.2 * glob)
    counts = np.zeros((docs, attrs), dtype=np.int64)
    doc_topic = rng.integers(topics, size=docs)
    n_cites = np.minimum(1 + rng.poisson(mean_cites - 1.0, size=docs), attrs // 4)
    for d in range(docs):
        cited = rng.choice(attrs, size=n_cites[d], replace=False, p=probs[doc_topic[d]])
        counts[d, cited] = 1 + (rng.random(n_cites[d]) < 0.1)
    for j in np.flatnonzero(~counts.any(axis=0)):
        counts[(j * 7919) % docs, j] = 1
    present = counts > 0
    if present.all(axis=0).any():
        raise ValueError("generator produced an attribute cited by every document")
    return counts


def records_text(counts: np.ndarray) -> str:
    lines = []
    for d, row in enumerate(counts):
        items = []
        for j in np.flatnonzero(row):
            c = int(row[j])
            items.append(attr_label(j) if c == 1 else f"{attr_label(j)}:{c}")
        lines.append(f"d{d:05d}\t{';'.join(items)}")
    return "\n".join(lines) + "\n"


def planted_dissimilarities(rng: np.random.Generator, points: int,
                            axis_scales: tuple[float, ...], noise: float) -> np.ndarray:
    """Distances between Gaussian points with the given per-axis scales.

    Each pair's distance is multiplied by ``exp(noise * N(0, 1))``.
    """
    X = rng.standard_normal((points, len(axis_scales))) * np.asarray(axis_scales)
    D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    iu = np.triu_indices(points, 1)
    D[iu] *= np.exp(noise * rng.standard_normal(iu[0].size))
    D = np.triu(D, 1)
    return D + D.T


def matrix_text(D: np.ndarray) -> str:
    labels = [point_label(i) for i in range(D.shape[0])]
    lines = ["," + ",".join(labels)]
    for label, row in zip(labels, D):
        lines.append(label + "," + ",".join(f"{v:.10g}" for v in row))
    return "\n".join(lines) + "\n"


def components(adjacency: np.ndarray) -> list[np.ndarray]:
    """Node indices of each connected component of a boolean adjacency matrix."""
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        frontier = np.zeros(n, dtype=bool)
        frontier[start] = True
        comp = frontier.copy()
        while frontier.any():
            frontier = adjacency[frontier].any(axis=0) & ~comp
            comp |= frontier
        seen |= comp
        comps.append(np.flatnonzero(comp))
    return comps


def hop_diameter(adjacency: np.ndarray, nodes: np.ndarray) -> int:
    """Largest hop distance between two of ``nodes``, a connected set."""
    a = adjacency[np.ix_(nodes, nodes)].astype(float)
    reach = np.eye(len(nodes), dtype=bool)
    hops = 0
    while not reach.all():
        reach |= (reach.astype(float) @ a) > 0
        hops += 1
    return hops


def giant_component(truth: np.ndarray, threshold: int) -> tuple[np.ndarray, np.ndarray]:
    """Thresholded co-occurrence graph of the attributes and its largest component."""
    present = (truth > 0).astype(float)
    adjacency = present.T @ present >= threshold
    np.fill_diagonal(adjacency, False)
    return adjacency, max(components(adjacency), key=len)


STARTS = 3
DRAWS = 20  # draws of a records input before the wanted diameter counts as unreachable


@dataclass(frozen=True)
class Generated:
    """A written input file plus the ground truth the oracles compare with.

    ``start_seeds`` gives the CLI calls of a random-start workload
    ``STARTS`` different starts in turn, so a run does not rest on one local
    minimum.
    """

    path: Path
    args: tuple[str, ...]
    truth: np.ndarray
    threshold: int | None = None
    start_seeds: tuple[int, ...] = ()

    def args_for(self, call: int) -> tuple[str, ...]:
        if not self.start_seeds:
            return self.args
        return self.args + ("--seed", str(self.start_seeds[call % STARTS]))


def generate(name: str, seed: int, directory: Path, sizes: dict | None = None) -> Generated:
    """Write the input for ``name`` under ``directory``.

    ``sizes`` overrides the workload's default sizes (the benchmark's own
    tests use small ones).  Raises ``ValueError`` if the drawn input would
    be invalid: a constant column, a layout graph without a giant component
    holding at least half of the attributes, or no draw of the wanted
    diameter in ``DRAWS``.
    """
    w = WORKLOADS[name]
    rng = rng_for(name, seed)
    s = {**w.sizes, **(sizes or {})}
    args = w.cli
    threshold = s.get("threshold")
    start_seeds = ()
    if threshold is not None:
        args += ("--threshold", str(threshold))
    if w.kind == "records":
        for _ in range(DRAWS):
            truth = zipf_records(rng, s["docs"], s["attrs"], s["mean_cites"],
                                 s["topics"], s["zipf"])
            if threshold is None:
                break
            adjacency, giant = giant_component(truth, threshold)
            if len(giant) * 2 < s["attrs"]:
                raise ValueError(f"threshold {threshold} leaves no giant component")
            if s.get("diameter") in (None, hop_diameter(adjacency, giant)):
                break
        else:
            raise ValueError(f"no draw of diameter {s['diameter']} in {DRAWS}")
        text = records_text(truth)
        path = directory / "records.txt"
    else:
        truth = planted_dissimilarities(rng, s["points"], s["axis_scales"], s["noise"])
        text = matrix_text(truth)
        path = directory / "matrix.csv"
        start_seeds = tuple(int(v) for v in rng.integers(2**31, size=STARTS))
    directory.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return Generated(path, args, truth, threshold, start_seeds)
