"""Run a fixed set of CLI calls against two source trees and diff every output.

Usage:

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC [--work DIR]

``OLD_SRC`` and ``NEW_SRC`` are directories holding a ``cocmap`` package
(a checkout's ``src``).  Each call runs once per tree, in a fresh child
with that tree on ``PYTHONPATH`` and one BLAS thread, writing to the same
relative output directory, so report paths and printed messages match.
The calls cover every subcommand, the three demos, a co-occurrence builtin
scaled as dissimilarities and refused as an occurrence matrix, counts beyond float64's
exact range (a counts CSV read with ``--format matrix`` and a co-occurrence
CSV holding 2**53 + 1), CSV files with quoted labels (a lower-triangular
square one with ``.`` and blank cells and CRLF line ends, read by ``mds`` and
as counts by ``layout``, and a rectangular one), a layout of small graphs with twin vertices and a
two-vertex component, an ordinal fit over heavily tied proximities,
pipelines whose reports record every scaling and factor setting, and the
four benchmark workloads on the inputs ``perfbench/workloads.generate``
writes at a fixed seed, and a ``factor`` call on the ``records-factor``
generator at 12000 documents x 300 attributes over 8 topics, where varimax
runs 82 sweeps over 106 factors; ``perfbench/`` is only read.

A call's files are its output directory plus its exit code, stdout and
stderr.  Before comparison the ``timestamp`` line is dropped from every
report, and the tree's working directory is replaced by ``<OUT>`` in stdout
and stderr.  Every file that differs, or exists on one side only, is
listed; the exit status is 1 if there is any, else 0.  A differing file
whose text is the same outside its numbers (a CSV whose cells moved, a
report whose stress did) is listed with the largest absolute difference
between the numbers at matching places, so a last-digit change can quote
its size.  Outputs are kept under ``--work`` when it is given (default: a
temporary directory).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 2001
WORKLOADS = ("records-mds", "records-layout", "matrix-ordinal", "records-factor")

# cities with two missing pairs, lower triangle only
GAPPY_CITIES = """\
,Atlanta,Chicago,Denver,Houston,Los Angeles,Miami
Atlanta,0,,,,,
Chicago,587,0,,,,
Denver,1212,920,0,,,
Houston,701,,879,0,,
Los Angeles,1936,1745,831,1374,0,
Miami,604,1188,1726,968,,0
"""

# a four-leaf star, a K2,3 and an isolated edge: twin vertices (the star's
# leaves, each side of the K2,3) and a two-vertex component
SMALL_GRAPHS = """\
,s0,s1,s2,s3,s4,a1,a2,b1,b2,b3,e1,e2
s0,0,1,2,3,1,0,0,0,0,0,0,0
s1,1,0,0,0,0,0,0,0,0,0,0,0
s2,2,0,0,0,0,0,0,0,0,0,0,0
s3,3,0,0,0,0,0,0,0,0,0,0,0
s4,1,0,0,0,0,0,0,0,0,0,0,0
a1,0,0,0,0,0,0,0,2,3,1,0,0
a2,0,0,0,0,0,0,0,2,3,1,0,0
b1,0,0,0,0,0,2,2,0,0,0,0,0
b2,0,0,0,0,0,3,3,0,0,0,0,0
b3,0,0,0,0,0,1,1,0,0,0,0,0
e1,0,0,0,0,0,0,0,0,0,0,0,2
e2,0,0,0,0,0,0,0,0,0,0,2,0
"""

# a documents x attributes counts CSV whose column products pass float64's
# exact range (2**53) and int64's (2**63); columns a and b are 7**0.5 apart
LARGE_COUNTS = """\
,a,b,c,d
d1,3037000499,3037000500,100000000,1
d2,1,0,123456789,7
d3,250000000,250000001,987654321,2
d4,0,2,1,0
"""

# a co-occurrence CSV with a count of 2**53 + 1, which float64 cannot hold
ABOVE_FLOAT_EXACT = """\
,a,b,c
a,0,9007199254740993,1
b,9007199254740993,0,2
c,1,2,0
"""

# a lower-triangular count matrix with quoted labels, "." and blank cells and
# CRLF line ends: read as dissimilarities by mds and as counts by layout
QUOTED_SQUARE = (
    ',"Smith, J.","Lee, K.",Lee,Kim,Park\r\n'
    '"Smith, J.",0,.,,.,\r\n'
    '"Lee, K.",3,0,.,,\r\n'
    'Lee,5,2,0,,.\r\n'
    'Kim,1,4,6,0,\r\n'
    'Park,2,1,3,5,0\r\n'
)

# a documents x attributes counts CSV with quoted document and attribute labels
QUOTED_COUNTS = """\
,"Smith, J.",Lee,"O""Brien",Kim
d1,1,0,2,1
"doc, 2",0,1,1,3
d3,2,1,0,0
d4,0,2,1,1
"""


def calls(directory: Path) -> list[tuple[str, list[str]]]:
    """Write the inputs under ``directory``; return the calls as (name, arguments without --out)."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    gens = {name: workloads.generate(name, SEED, directory / name) for name in WORKLOADS}
    large_factor = workloads.generate("records-factor", SEED, directory / "factor-large",
                                      {"docs": 12000, "attrs": 300, "topics": 8})
    records = str(gens["records-mds"].path)
    gappy = directory / "gappy.csv"
    gappy.write_text(GAPPY_CITIES, encoding="utf-8")
    small_graphs = directory / "small_graphs.csv"
    small_graphs.write_text(SMALL_GRAPHS, encoding="utf-8")
    large = directory / "large_counts.csv"
    large.write_text(LARGE_COUNTS, encoding="utf-8")
    above = directory / "above_float_exact.csv"
    above.write_text(ABOVE_FLOAT_EXACT, encoding="utf-8")
    quoted_square = directory / "quoted_square.csv"
    quoted_square.write_text(QUOTED_SQUARE, encoding="utf-8")
    quoted_counts = directory / "quoted_counts.csv"
    quoted_counts.write_text(QUOTED_COUNTS, encoding="utf-8")
    matrix = ["--in", str(large), "--format", "matrix"]
    fixed = [
        ("demo-cities-correct", ["demo", "cities-correct"]),
        ("demo-cities-distorted", ["demo", "cities-distorted"]),
        ("demo-figure3", ["demo", "figure3"]),
        ("build-occurrence", ["build", "--builtin", "figure2", "--derive", "occurrence"]),
        ("build-cooccurrence", ["build", "--builtin", "figure2", "--diag", "zero"]),
        ("build-affiliations", ["build", "--in", records, "--derive", "affiliations"]),
        ("build-affiliations-large", ["build", *matrix, "--derive", "affiliations"]),
        ("prox-pearson-shift", ["prox", "--builtin", "figure2", "--shift"]),
        ("prox-cosine", ["prox", "--in", records, "--measure", "cosine"]),
        ("prox-jaccard", ["prox", "--builtin", "figure2", "--measure", "jaccard"]),
        ("prox-euclidean", ["prox", "--in", records, "--measure", "euclidean"]),
        ("prox-cosine-large", ["prox", *matrix, "--measure", "cosine"]),
        ("prox-euclidean-large", ["prox", *matrix, "--measure", "euclidean"]),
        ("mds-cities", ["mds", "--builtin", "cities"]),
        ("mds-cities-interval-3d", ["mds", "--builtin", "cities", "--level", "interval",
                                    "--dims", "3"]),
        ("mds-cities-ordinal-random", ["mds", "--builtin", "cities", "--level", "ordinal",
                                       "--init", "random", "--seed", "3"]),
        ("mds-figure1-sim", ["mds", "--builtin", "figure1"]),
        ("mds-figure1-dissim", ["mds", "--builtin", "figure1", "--kind", "dissim"]),
        ("mds-gappy-ordinal", ["mds", "--in", str(gappy), "--level", "ordinal"]),
        ("mds-quoted-square", ["mds", "--in", str(quoted_square)]),
        ("factor-figure2", ["factor", "--builtin", "figure2"]),
        ("factor-unrotated", ["factor", "--in", records, "--factors", "3", "--rotate", "none"]),
        ("layout-figure1", ["layout", "--builtin", "figure1"]),
        ("layout-small-graphs", ["layout", "--in", str(small_graphs)]),
        ("layout-above-float-exact", ["layout", "--in", str(above)]),
        ("layout-quoted-square", ["layout", "--in", str(quoted_square)]),
        ("prox-cosine-quoted", ["prox", "--in", str(quoted_counts), "--format", "matrix",
                                "--measure", "cosine"]),
        ("pipeline-euclidean-mds", ["pipeline", "--in", records, "--steps",
                                    "euclidean,mds", "--level", "interval"]),
        # an ordinal fit over heavily tied proximities: 7140 pairs, 2755 values
        ("pipeline-jaccard-mds-ordinal", ["pipeline", "--in", records, "--steps",
                                          "jaccard,mds", "--level", "ordinal"]),
        # every stage setting a pipeline report records: a dropped one shows in the diff
        ("pipeline-mds-settings", ["pipeline", "--in", records, "--steps", "pearson,shift,mds",
                                   "--init", "random", "--seed", "3", "--epsilon", "1e-4"]),
        ("pipeline-factor-settings", ["pipeline", "--in", records, "--steps", "factor",
                                      "--factors", "3", "--rotate", "none"]),
        # the longest varimax: 82 sweeps of 106 factors over 300 attributes
        ("factor-large", ["factor", "--in", str(large_factor.path)]),
        ("error-random-without-seed", ["mds", "--builtin", "cities", "--init", "random"]),
        ("error-missing-input", ["factor", "--in", str(directory / "no-such-file.txt")]),
        ("error-wrong-builtin", ["layout", "--builtin", "cities"]),
        ("error-prox-on-cooccurrence-builtin", ["prox", "--builtin", "figure1"]),
    ]
    for name, gen in gens.items():
        for call in range(len(gen.start_seeds) or 1):
            fixed.append((f"{name}-{call}", [*gen.args_for(call), "--in", str(gen.path)]))
    return fixed


def run_side(src: Path, side: Path, call_list) -> None:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name, args in call_list:
        out = side / name
        out.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-c", "from cocmap.cli import main; main()", *args,
             "--out", name],
            cwd=side, env=env, capture_output=True, text=True, timeout=600)
        (out / "exit").write_text(f"{proc.returncode}\n")
        (out / "stdout").write_text(proc.stdout.replace(str(side), "<OUT>"))
        (out / "stderr").write_text(proc.stderr.replace(str(side), "<OUT>"))


TIMESTAMP = re.compile(rb'^\s*"timestamp": .*\n', re.MULTILINE)


def contents(path: Path) -> bytes:
    data = path.read_bytes()
    return TIMESTAMP.sub(b"", data) if path.name.endswith("_report.json") else data


# a whole number token, not the digits inside a label such as "a12"
NUMBER = re.compile(rb"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])"
                    rb"|\bnan\b|\binf\b")


def largest_difference(a: bytes, b: bytes) -> float | None:
    """The largest absolute difference between the numbers at matching places of
    two texts (infinite where only one is NaN); None if the texts differ elsewhere."""
    if NUMBER.sub(b"#", a) != NUMBER.sub(b"#", b):
        return None
    gaps = [abs(float(x) - float(y)) for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))
            if x != y]
    return max((math.inf if math.isnan(g) else g for g in gaps), default=0.0)


def differing(old: Path, new: Path) -> list[str]:
    old_files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(old_files | new_files):
        if rel not in old_files or rel not in new_files:
            out.append(f"{rel} (only in {'old' if rel in old_files else 'new'})")
        elif (a := contents(old / rel)) != (b := contents(new / rel)):
            gap = largest_difference(a, b)
            out.append(str(rel) if gap is None else f"{rel} (largest difference {gap:.3g})")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="keep inputs and outputs here (must not exist yet)")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "cocmap" / "__init__.py").is_file():
            parser.error(f"{src} holds no cocmap package")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        work.mkdir(parents=True, exist_ok=args.work is None)
        call_list = calls(work / "inputs")
        run_side(args.old_src, work / "old", call_list)
        run_side(args.new_src, work / "new", call_list)
        diffs = differing(work / "old", work / "new")
        total = sum(1 for p in (work / "new").rglob("*") if p.is_file())
    for line in diffs:
        print(f"differs: {line}")
    print(f"{len(call_list)} calls, {total} files, {len(diffs)} differing")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
