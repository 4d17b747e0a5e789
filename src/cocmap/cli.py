"""Command-line front end.

Subcommands cover the individual stages (``build``, ``prox``, ``mds``,
``factor``, ``layout``), free-form chains (``pipeline``), and three
self-contained demonstrations (``demo``).  Stage subcommands are one-step
pipelines: both run through one stage table (``STAGES``) that gives each
step its input kind, output kind, computation and artifact writer, so a
stage reports the same ``results`` either way.  Every run writes a JSON report
with the input hash, configuration, and fit statistics; identical
invocations produce byte-identical reports apart from the timestamp.

Exit codes: 0 success, 1 data error (message carries the module-qualified
error name), 2 usage error.  Warnings (a fit stopped at its iteration cap, a
varimax rotation at its sweep cap, suspect input) print as
``warning: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import factor as factor_mod
from . import ingest, layout as layout_mod, matrices, proximity
from .errors import CocmapError
from .mds import MEASUREMENT_LEVELS, MdsConfig, mds, procrustes_align
from .matrices import CooccurrenceMatrix, OccurrenceMatrix, ProximityMatrix

class UsageError(Exception):
    pass


DEMOS = ("cities-correct", "cities-distorted", "figure3")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return str(path)


def _write_report(out_dir: Path, name: str, report: dict) -> str:
    report = dict(report)
    report["timestamp"] = _utc_now()
    return _write(out_dir / f"{name}_report.json",
                  json.dumps(report, sort_keys=True, indent=2) + "\n")


def _coords_csv(labels, coords) -> str:
    coords = np.asarray(coords, dtype=float)
    return ingest._labelled_csv(["label"] + [f"dim{i + 1}" for i in range(coords.shape[1])],
                                labels, coords.tolist())


def _mds_config(args) -> MdsConfig:
    return MdsConfig(
        dimensions=args.dims,
        level=args.level,
        init=args.init,
        seed=args.seed,
        max_iterations=args.max_iter,
        epsilon=args.epsilon,
    )


def _factor(A, s):
    L = factor_mod.pca_from_occurrence(A, s["factors"])
    if s["rotate"] == "varimax":
        L = factor_mod.varimax(L, kaiser_normalize=s["kaiser"])
    return L


def _layout(M, s):
    graph = layout_mod.graph_from_cooccurrence(M, s["threshold"])
    return graph, layout_mod.kamada_kawai(graph)


# ---------------------------------------------------------------------------
# artifact writers: (value, out_dir, stem) -> (output paths, report results)
# ---------------------------------------------------------------------------

def _write_square(M, out_dir: Path, stem: str):
    return [_write(out_dir / f"{stem}.csv", ingest.serialize_square_matrix(M))], {}


def _write_rectangular(A, out_dir: Path, stem: str):
    return [_write(out_dir / f"{stem}.csv", ingest.serialize_rectangular_matrix(A))], {}


def _write_configuration(C, out_dir: Path, stem: str):
    path = _write(out_dir / "configuration.csv", _coords_csv(C.labels, C.coords))
    history = C.stress_history
    return [path], {"stress": C.stress, "iterations": C.iterations_used,
                    "converged": C.converged, "last_stress_change": history[-2] - history[-1],
                    "residual": C.residual}


def _write_loadings(L, out_dir: Path, stem: str):
    paths = [_write(out_dir / "loadings.csv", factor_mod.loadings_to_csv(L)),
             _write(out_dir / "loadings.txt", factor_mod.format_loadings(L))]
    results = {
        "eigenvalues": list(L.eigenvalues),
        "explained_variance_pct": list(L.explained_variance_pct),
        "rotation_iterations": L.rotation_iterations,
    }
    if L.rotation == "varimax":
        results.update(varimax_criterion=L.rotation_criterion,
                       last_criterion_change=L.rotation_criterion_change,
                       converged=L.rotation_converged)
    return paths, results


def _write_layout(value, out_dir: Path, stem: str):
    graph, result = value
    paths = [_write(out_dir / "layout.net", layout_mod.export_pajek(graph, result)),
             _write(out_dir / "layout.svg", layout_mod.export_svg(graph, result))]
    return paths, {"final_energy": result.final_energy, "iterations": result.iterations,
                   "converged": result.converged, "residual": result.residual,
                   "nodes": graph.n, "edges": len(graph.edges)}


# ---------------------------------------------------------------------------
# the stage table: every subcommand and every pipeline step runs through it
# ---------------------------------------------------------------------------

class Stage(NamedTuple):
    needs: str  # input kind; for the first stage of a run, what is loaded
    makes: str  # output kind
    compute: Callable  # (value, settings) -> value
    write: Callable  # (value, out_dir, stem) -> (output paths, results)
    # args -> the options compute reads; they are all it is given, and the
    # report's config records them
    settings: Callable = lambda args: {}


STAGES = {
    "cooccurrence": Stage("occurrence", "cooccurrence",
                          lambda A, s: matrices.cooccurrence(
                              A, "zeroed" if s["diag"] == "zero" else "raw"),
                          _write_square, lambda a: {"diag": a.diag_policy}),
    "affiliations": Stage("occurrence", "cooccurrence",
                          lambda A, s: matrices.affiliations(A), _write_square),
    "pearson": Stage("occurrence", "proximity",
                     lambda A, s: proximity.pearson_columns(A), _write_square),
    "shift": Stage("proximity", "proximity",
                   lambda P, s: proximity.shift_pearson(P), _write_square),
    "cosine": Stage("occurrence", "proximity",
                    lambda A, s: proximity.cosine_columns(A), _write_square),
    "jaccard": Stage("occurrence", "proximity",
                     lambda A, s: proximity.jaccard_columns(A), _write_square),
    "euclidean": Stage("occurrence", "proximity",
                       lambda A, s: proximity.euclidean_columns(A), _write_square),
    "to-dissimilarity": Stage("proximity", "proximity",
                              lambda P, s: proximity.to_dissimilarity(P), _write_square),
    "mds": Stage("proximity", "configuration",
                 lambda P, s: mds(P, MdsConfig(**s)), _write_configuration,
                 lambda a: dataclasses.asdict(_mds_config(a))),
    "factor": Stage("occurrence", "loadings", _factor, _write_loadings,
                    lambda a: {"factors": "auto" if a.factors is None else a.factors,
                               "rotate": a.rotate, "kaiser": a.kaiser}),
    "layout": Stage("cooccurrence", "layout", _layout, _write_layout,
                    lambda a: {"threshold": a.threshold}),
}

# `build --derive occurrence` writes the loaded matrix unchanged (not a pipeline step)
_UNCHANGED = Stage("occurrence", "occurrence", lambda A, s: A, _write_rectangular)

# --kind declares how to read a proximity matrix; omitted, a file is read as a
# dissimilarity and a builtin keeps its natural kind (counts: similarity)
_DECLARED = {"sim": "similarity", "dissim": "dissimilarity", None: None}


class Input(NamedTuple):
    type: type  # what an input of the kind is
    name: str  # how an error names the kind
    read: Callable  # (file text, args) -> value


# the input kinds a run can start from, keyed as a stage's ``needs``; each
# reader is looked up in ingest when it runs
INPUTS = {
    "occurrence": Input(OccurrenceMatrix, "an occurrence matrix",
                        lambda text, a: ingest.parse_records(text) if a.format == "records"
                        else ingest.parse_rectangular_matrix(text)),
    "proximity": Input(ProximityMatrix, "a proximity matrix",
                       lambda text, a: ingest.parse_square_matrix(
                           text, _DECLARED[a.kind] or "dissimilarity")),
    "cooccurrence": Input(CooccurrenceMatrix, "a co-occurrence matrix",
                          lambda text, a: ingest.parse_square_matrix(text, "counts")),
}


def _load(args, kind: str):
    """A run's input of ``kind`` and its digest: the file read as that kind,
    hashed by its text, or the bundled dataset, hashed by its name."""
    form = INPUTS[kind]
    if not args.builtin:
        text = Path(args.input).read_text(encoding="utf-8")
        return form.read(text, args), _hash_text(text)
    data = ingest.builtin_dataset(args.builtin)
    if kind == "proximity" and isinstance(data, CooccurrenceMatrix):
        data = ProximityMatrix(data.labels, data.data, kind="similarity")
    if not isinstance(data, form.type):
        raise CocmapError(f"builtin {args.builtin!r} is not {form.name}")
    declared = _DECLARED[getattr(args, "kind", None)]
    if declared and declared != data.kind:
        data = ProximityMatrix(data.labels, data.data, kind=declared)
    return data, _hash_text(args.builtin)


def _run(args, command: str, steps: list[tuple[str, Stage]], own: Callable = lambda _: {}):
    """Validate, load, compute and write one run; returns (value, report).

    ``pipeline`` starts from an occurrence matrix and writes every step's
    artifacts under the step's name.  A subcommand loads what its first
    stage needs and writes only the last stage's artifacts, under the first
    step's name (``prox --shift`` writes ``pearson.csv``).  The whole chain
    and every step's settings are checked before any input is read.  The
    report's ``config`` is ``own(loaded input)``, the command's own
    choices, plus the settings of every step.
    """
    pipeline = command == "pipeline"
    source = "occurrence" if pipeline else steps[0][1].needs
    current = source
    for name, stage in steps:
        if stage.needs != current:
            raise UsageError(
                f"step {name!r} needs {stage.needs} input but would receive {current}"
            )
        current = stage.makes
    settings = [stage.settings(args) for _, stage in steps]
    value, digest = _load(args, source)
    config = own(value)
    for s in settings:
        config.update(s)
    report = {"command": command, "config": config, "inputs": {"sha256": digest}}
    out_dir = Path(args.out)
    outputs: list[str] = []
    results: dict = {}
    for k, ((name, stage), s) in enumerate(zip(steps, settings)):
        value = stage.compute(value, s)
        if pipeline or k == len(steps) - 1:
            paths, found = stage.write(value, out_dir, name if pipeline else steps[0][0])
            outputs += paths
            results.update(found)
    if results or pipeline:
        report["results"] = results
    report["outputs"] = outputs
    _write_report(out_dir, command, report)
    return value, report


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_build(args) -> int:
    stage = _UNCHANGED if args.derive == "occurrence" else STAGES[args.derive]
    _, report = _run(args, "build", [(args.derive, stage)], lambda _: {"derive": args.derive})
    print(f"wrote {report['outputs'][0]}")
    return 0


def _cmd_prox(args) -> int:
    names = [args.measure]
    if args.shift:
        if args.measure != "pearson":
            raise UsageError(f"--shift applies only to --measure pearson, "
                             f"not {args.measure}")
        names.append("shift")
    _, report = _run(args, "prox", [(s, STAGES[s]) for s in names],
                     lambda _: {"measure": args.measure, "shift": bool(args.shift)})
    print(f"wrote {report['outputs'][0]}")
    return 0


def _cmd_mds(args) -> int:
    result, _ = _run(args, "mds", [("mds", STAGES["mds"])], lambda P: {"kind": P.kind})
    print(f"normalized raw stress: {result.stress:.6f} "
          f"({result.iterations_used} iterations)")
    return 0


def _cmd_factor(args) -> int:
    _run(args, "factor", [("factor", STAGES["factor"])])
    # the table rendered once, as written to loadings.txt
    print((Path(args.out) / "loadings.txt").read_bytes().decode("utf-8"), end="")
    return 0


def _cmd_layout(args) -> int:
    _, report = _run(args, "layout", [("layout", STAGES["layout"])])
    print(f"energy {report['results']['final_energy']:.6f} "
          f"after {report['results']['iterations']} iterations")
    return 0


def _cmd_pipeline(args) -> int:
    steps = [s.strip() for s in args.steps.split(",") if s.strip()]
    if not steps:
        raise UsageError("pipeline needs at least one step")
    for s in steps:
        if s not in STAGES:
            raise UsageError(f"unknown step {s!r}; choose from {sorted(STAGES)}")
    _run(args, "pipeline", [(s, STAGES[s]) for s in steps], lambda _: {"steps": steps})
    print(f"pipeline complete: {', '.join(steps)}")
    return 0


def _cmd_demo(args) -> int:
    out_dir = Path(args.out)
    if args.name != "figure3":
        # cities-correct scales the mileages; cities-distorted scales the
        # Pearson correlations of their columns and compares the two maps
        cities = ingest.builtin_dataset("cities")
        cfg = MdsConfig(dimensions=2, level="ratio")
        direct = mds(cities, cfg)
        distorted = args.name == "cities-distorted"
        result = mds(proximity.pearson_of_proximities(cities), cfg) if distorted else direct
        stem = "cities_distorted" if distorted else "cities_map"
        paths = [_write(out_dir / f"{stem}.csv", _coords_csv(result.labels, result.coords)),
                 _write(out_dir / f"{stem}.svg", _map_svg(result.labels, result.coords))]
        results = {"stress": result.stress, "iterations": result.iterations_used}
        if distorted:
            _, congruence = procrustes_align(direct.coords, result.coords)
            results.update(direct_stress=direct.stress, congruence_with_direct_map=congruence)
        _write_report(out_dir, "demo_" + args.name.replace("-", "_"), {
            "command": f"demo {args.name}",
            "config": {"level": cfg.level, "dimensions": cfg.dimensions},
            "inputs": {"builtin": "cities"},
            "results": results,
            "outputs": paths,
        })
        if not distorted:
            print(f"ten-city map recovered; normalized raw stress = {result.stress:.6f}")
            return 0
        print("warning: correlating the columns of a matrix that is already a "
              "proximity matrix re-normalizes them against their means and "
              "distorts the map.")
        print(f"distorted stress = {result.stress:.6f} vs direct stress = "
              f"{direct.stress:.6f}; map congruence with the direct solution = "
              f"{congruence:.3f}")
        return 0
    # figure3: Pearson + shift on the bundled 5x4 citation matrix
    A = ingest.builtin_dataset("figure2")
    shifted = proximity.shift_pearson(proximity.pearson_columns(A))
    path = _write(out_dir / "figure3.csv", ingest.serialize_square_matrix(shifted))
    _write_report(out_dir, "demo_figure3", {
        "command": "demo figure3",
        "config": {},
        "inputs": {"builtin": "figure2"},
        "results": {"matrix": [[round(float(v), 6) for v in row]
                               for row in np.asarray(shifted.data)]},
        "outputs": [path],
    })
    labels = shifted.labels
    width = max(len(s) for s in labels)
    print(" " * width + "".join(f"  {s:>6}" for s in labels))
    for label, row in zip(labels, np.asarray(shifted.data)):
        print(f"{label:<{width}}" + "".join(f"  {v:6.3f}" for v in row))
    return 0


def _map_svg(labels, coords) -> str:
    """Point-and-label SVG for a 2-D configuration (no edges)."""
    graph = layout_mod.WeightedGraph(tuple(labels), ())
    result = layout_mod.LayoutResult(np.asarray(coords)[:, :2], 0.0, 0)
    return layout_mod.export_svg(graph, result)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocmap",
        description="Build occurrence/co-occurrence/proximity matrices from "
                    "citation-style data and map them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p, *, occurrence=False):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--in", dest="input", help="input file")
        source.add_argument("--builtin", choices=("cities", "figure1", "figure2"),
                            help="use a bundled dataset instead of a file")
        if occurrence:
            p.add_argument("--format", choices=("records", "matrix"),
                           default="records",
                           help="occurrence input format (default records)")

    def add_common(p):
        p.add_argument("--out", default="out", help="output directory")

    # each stage group's flags are declared once, for its subcommand and pipeline
    def add_mds_flags(p):
        p.add_argument("--level", choices=MEASUREMENT_LEVELS, default=MdsConfig.level)
        p.add_argument("--dims", type=int, default=MdsConfig.dimensions)
        p.add_argument("--init", choices=("classical", "random"), default=MdsConfig.init)
        p.add_argument("--seed", type=int, default=MdsConfig.seed)
        p.add_argument("--max-iter", type=int, default=MdsConfig.max_iterations,
                       help="cap on the Guttman transforms, three or more to a SQUAREM "
                            "cycle (default %(default)s)")
        p.add_argument("--epsilon", type=float, default=MdsConfig.epsilon,
                       help="convergence threshold on the normalized stress change of "
                            "one SQUAREM cycle (default %(default)s)")

    def add_diag(p):
        p.add_argument("--diag", dest="diag_policy", choices=("raw", "zero"),
                       default="raw")

    def add_threshold(p):
        p.add_argument("--threshold", type=int, default=1)

    def add_factor_flags(p):
        p.add_argument("--factors", type=int, default=None,
                       help="factor count (default: Kaiser criterion)")
        p.add_argument("--rotate", choices=("none", "varimax"), default="varimax")
        kaiser = p.add_mutually_exclusive_group()
        kaiser.add_argument("--kaiser", dest="kaiser", action="store_true", default=True)
        kaiser.add_argument("--no-kaiser", dest="kaiser", action="store_false")

    p = sub.add_parser("build", help="derive count matrices from records")
    add_input(p, occurrence=True)
    add_common(p)
    p.add_argument("--derive", choices=("occurrence", "cooccurrence", "affiliations"),
                   default="cooccurrence")
    add_diag(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("prox", help="derive a proximity matrix from records")
    add_input(p, occurrence=True)
    add_common(p)
    p.add_argument("--measure", choices=("pearson", "cosine", "jaccard", "euclidean"),
                   default="pearson")
    p.add_argument("--shift", action="store_true",
                   help="apply the (r+1)/2 shift after Pearson")
    p.set_defaults(func=_cmd_prox)

    p = sub.add_parser("mds", help="scale a proximity matrix")
    add_input(p)
    add_common(p)
    add_mds_flags(p)
    p.add_argument("--kind", choices=("sim", "dissim"), default=None,
                   help="how to read the input matrix (default: dissimilarity "
                        "for files, the natural kind for builtins)")
    p.set_defaults(func=_cmd_mds)

    p = sub.add_parser("factor", help="principal-component factor analysis")
    add_input(p, occurrence=True)
    add_common(p)
    add_factor_flags(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("layout", help="spring-embed a co-occurrence matrix")
    add_input(p)
    add_common(p)
    add_threshold(p)
    p.set_defaults(func=_cmd_layout)

    p = sub.add_parser("pipeline", help="run an ordered chain of steps")
    add_input(p, occurrence=True)
    add_common(p)
    p.add_argument("--steps", required=True,
                   help="comma-separated steps, e.g. 'pearson,shift,mds'")
    add_diag(p)
    add_threshold(p)
    add_factor_flags(p)
    add_mds_flags(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("demo", help="run a bundled demonstration")
    p.add_argument("name", choices=DEMOS)
    add_common(p)
    p.set_defaults(func=_cmd_demo)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "input") and args.input is None and args.builtin is None:
            raise UsageError("provide --in FILE or --builtin NAME")
        if getattr(args, "init", None) == "random" and args.seed is None:
            raise UsageError("--init random requires an explicit --seed")
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CocmapError as exc:
        print(f"error: {exc.qualified_name}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # What the imports built lives until the process exits.  Frozen, it is
    # out of the collector's reach, so the collections that run at
    # interpreter shutdown no longer walk all of it.
    gc.freeze()
    sys.exit(run())


if __name__ == "__main__":
    main()
