"""Traced run: one real ``cocmap`` CLI call, in-process, with a span per layer call.

Run as a child process by ``run.py --trace 1``:

    python3 perfbench/traced.py SPEC_JSON

where ``SPEC_JSON`` holds ``argv`` (the CLI arguments of the paired call),
``spans`` (the file to write), ``run_id`` and ``t0``, the
``CLOCK_MONOTONIC`` time at which the parent spawned this process.

Every cocmap function the CLI reaches is looked up through a module
attribute (``ingest.parse_records``, ``cli.mds``, ``mds.eigen_symmetric``,
...).  Before the call, those attributes are replaced by wrappers that record
a span (name, start, end, parent, run id); then ``cocmap.cli.run(argv)`` runs
unchanged, so the traced work is the program's own.  A call made inside
another traced call (the eigensolver inside the classical start, BFS inside
the layout, disparity transformation inside SMACOF, ...) gets that call as
its parent.  Only spans whose parent is ``pipeline`` (the ``cli.run`` call)
count toward coverage.

The functions in ``PROBES`` normally run inside another layer.  After the
pipeline, each one the call reached is called once more, on a copy of the
arguments of its last call, with ``probe`` as the parent span.  Its
per-layer figure is that one probe call.  Spans and counts are kept in
memory and written to the spans file at the end.
"""

from __future__ import annotations

import copy
import functools
import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

# (module, attribute) -> span name.  Several attributes can be one function
# seen from different callers.
TARGETS = {
    ("cocmap.ingest", "parse_records"): "ingest.parse_records",
    ("cocmap.ingest", "parse_square_matrix"): "ingest.parse_square_matrix",
    ("cocmap.ingest", "serialize_square_matrix"): "ingest.serialize_square_matrix",
    ("cocmap.matrices", "cooccurrence"): "matrices.cooccurrence",
    ("cocmap.proximity", "pearson_columns"): "proximity.pearson_columns",
    ("cocmap.factor", "pearson_columns"): "proximity.pearson_columns",
    ("cocmap.proximity", "shift_pearson"): "proximity.shift_pearson",
    ("cocmap.proximity", "to_dissimilarity"): "proximity.to_dissimilarity",
    ("cocmap.mds", "to_dissimilarity"): "proximity.to_dissimilarity",
    ("cocmap.factor", "eigen_symmetric"): "factor.eigen_symmetric",
    ("cocmap.mds", "eigen_symmetric"): "factor.eigen_symmetric",
    ("cocmap.factor", "pca_from_occurrence"): "factor.pca_from_occurrence",
    ("cocmap.factor", "varimax"): "factor.varimax",
    ("cocmap.factor", "loadings_to_csv"): "factor.loadings_to_csv",
    ("cocmap.factor", "format_loadings"): "factor.format_loadings",
    ("cocmap.cli", "mds"): "mds.mds",
    ("cocmap.mds", "classical_init"): "mds.classical_init",
    ("cocmap.mds", "transform_disparities"): "mds.transform_disparities",
    ("cocmap.layout", "graph_from_cooccurrence"): "layout.graph_from_cooccurrence",
    ("cocmap.layout", "shortest_path_lengths"): "layout.shortest_path_lengths",
    ("cocmap.layout", "kamada_kawai"): "layout.kamada_kawai",
    ("cocmap.layout", "export_pajek"): "layout.export_pajek",
    ("cocmap.layout", "export_svg"): "layout.export_svg",
}

PROBES = ("mds.classical_init", "factor.eigen_symmetric", "mds.transform_disparities",
          "layout.shortest_path_lengths")

# span name -> counts read from the call's arguments and result
COUNTS = {
    "factor.eigen_symmetric": lambda a, r: {"factor.eigen_n": len(a[0])},
    "factor.varimax": lambda a, r: {"factor.varimax_sweeps": r.rotation_iterations,
                                    "factor.n_factors": r.n_factors},
    "mds.mds": lambda a, r: {"mds.iterations": r.iterations_used,
                             "mds.converged": int(r.converged)},
    "matrices.cooccurrence": lambda a, r: {
        "matrices.cooccurrence_madds": a[0].n_docs * a[0].n_attrs ** 2},
    "layout.graph_from_cooccurrence": lambda a, r: {"layout.nodes": r.n,
                                                    "layout.edges": len(r.edges)},
    "layout.shortest_path_lengths": lambda a, r: {
        "layout.components": len({row.tobytes() for row in np.isfinite(r)})},
    "layout.kamada_kawai": lambda a, r: {"layout.passes": r.iterations,
                                         "layout.energy_ratio": r.final_energy / r.initial_energy},
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span recorder; times are relative to the parent's spawn time."""

    def __init__(self, t0: float, run_id: str):
        self.t0 = t0
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict = {}
        self.stack = ["pipeline"]
        self.last: dict = {}  # probe name -> (function, args, kwargs) of its last call

    def span(self, name: str, start: float, end: float, parent: str | None):
        self.spans.append({"name": name, "start": start - self.t0, "end": end - self.t0,
                           "parent": parent, "run_id": self.run_id})

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1]
            if name in PROBES and "probe" not in self.stack:
                self.last[name] = (fn, copy.deepcopy(args), copy.deepcopy(kwargs))
            self.stack.append(name)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                self.stack.pop()
            self.span(name, start, end, parent)
            if name in COUNTS:
                self.counts.update(COUNTS[name](args, result))
            return result
        return traced


def main(spec: dict) -> int:
    from cocmap import cli

    tr = Tracer(spec["t0"], spec["run_id"])
    for (module, attr), name in TARGETS.items():
        mod = importlib.import_module(module)
        setattr(mod, attr, tr.wrap(name, getattr(mod, attr)))
    start = now()
    code = cli.run(spec["argv"])
    tr.span("pipeline", start, now(), None)
    tr.stack = ["probe"]
    for name in PROBES:
        if name in tr.last:
            fn, args, kwargs = tr.last[name]
            tr.wrap(name, fn)(*args, **kwargs)
    Path(spec["spans"]).write_text(json.dumps({"spans": tr.spans, "counts": tr.counts}),
                                   encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
