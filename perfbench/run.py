"""cocmap benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload records-mds --seed 1 --seconds 30 --trace 0

Each workload writes a seeded input, then calls the ``cocmap`` CLI in a
fresh child process again and again for ``--seconds`` seconds: a closed
loop, one client, one child at a time.  Every call's output is checked by an
independent numpy oracle (``oracles.py``).

``--trace 0`` prints the end-to-end metrics: ``run_s`` (median time of one
CLI call, spawn to exit), ``setup_s`` (median time for a fresh interpreter to
import ``cocmap.cli`` and exit, timed after every CLI call), ``peak_rss_mb``
(median of the child's max RSS) and ``fit_loss`` (the mapping's fit figure,
the best of the first ``MIN_CALLS`` calls, lower is better; see README.md).
Each call is bracketed by two runs of a fixed reference kernel.  ``run_s``
of a ``Workload.scaled`` workload is the median wall time multiplied by
``REF_NOMINAL_S`` over the run's median reference pair, and each setup
timing is multiplied by ``REF_NOMINAL_S`` over its own pair: wall times at a
nominal machine speed (see ``reference``).
``--trace 1`` follows each CLI call with a traced in-process run of the
same call (``traced.py``) and prints the per-layer metrics, medians over the
pairs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  The program under test is ``src/cocmap`` of the
checkout holding this file; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread here and in every child, set before numpy loads.  The
# oracles call LAPACK in this process; with a thread per core, OpenBLAS's
# idle threads spin after each check and slowed the next CLI call by about 8%.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
MIN_CALLS = workloads.STARTS  # every random start is run at least once
MAX_CALLS = 64
CALL_TIMEOUT_S = 45.0  # a hung call is killed, counted failed and ends the loop
CLI = ("-c", "from cocmap.cli import main; main()")
REF_NOMINAL_S = 0.03  # reference pair time that defines the nominal machine speed

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fit_loss": "1"}

# Per-layer metrics: every workload reports every one, with 0 where its
# pipeline never reaches the layer.
SPAN_METRICS = (
    "factor.eigen_symmetric", "factor.pca_from_occurrence", "factor.varimax",
    "factor.loadings_to_csv", "factor.format_loadings",
    "mds.classical_init", "mds.mds", "mds.transform_disparities",
    "matrices.cooccurrence",
    "layout.graph_from_cooccurrence", "layout.shortest_path_lengths",
    "layout.kamada_kawai", "layout.export_pajek", "layout.export_svg",
    "proximity.pearson_columns", "proximity.shift_pearson", "proximity.to_dissimilarity",
    "ingest.parse_records", "ingest.parse_square_matrix", "ingest.serialize_square_matrix",
)
COUNT_METRICS = {
    "factor.eigen_n": "count", "factor.varimax_sweeps": "count", "factor.n_factors": "count",
    "mds.iterations": "count", "mds.converged": "count",
    "matrices.cooccurrence_madds": "count",
    "layout.passes": "count", "layout.energy_ratio": "1", "layout.nodes": "count",
    "layout.edges": "count", "layout.components": "count",
    "ingest.bytes_in": "B", "ingest.bytes_out": "B",
}
DERIVED_METRICS = ("mds.s_per_iteration", "cli.residual_s", "cli.wall_s", "trace.total_s",
                   "trace.overhead_s", "bench.reference_s")
LAYER_UNITS = ({f"{name}_s": "s" for name in SPAN_METRICS} | COUNT_METRICS
               | {name: "s" for name in DERIVED_METRICS})


class Child:
    """Outcome of one child process: wall time, exit code and peak RSS."""

    def __init__(self, cmd: list[str], env: dict, log: Path, timeout: float = CALL_TIMEOUT_S):
        with open(log, "wb") as fh:
            self.spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.seconds = time.clock_gettime(time.CLOCK_MONOTONIC) - self.spawned
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    """Machine and program record printed before the result line."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


SETUP_CMD = [sys.executable, "-c", "import cocmap.cli"]


def warm_up(env: dict, work: Path) -> None:
    """Import ``cocmap.cli`` once, compiling its bytecode as an install does."""
    if Child(SETUP_CMD, env, work / "setup.log").code != 0:
        raise RuntimeError(f"cannot import cocmap.cli: {(work / 'setup.log').read_text()}")


def measure_setup(env: dict, work: Path) -> float:
    """Time for a fresh interpreter to import ``cocmap.cli`` and exit."""
    return Child(SETUP_CMD, env, work / "setup.log").seconds


def reference() -> float:
    """Wall time of a fixed kernel: a pure interpreter loop of about 15 ms.

    The host's speed for interpreted code drifts by 30% and more within
    seconds and between minutes, which moves raw wall times far past any
    useful bound.  Workloads whose time goes mostly to interpreter loops
    (``Workload.scaled``) slow down with this kernel, so dividing their
    times by the kernel's, timed just before and just after every call,
    cancels most of that drift.  The kernel uses no numpy, no file system and
    nothing of cocmap, so no change to the program can move it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(180_000):
        total += i * i % 7
    return time.perf_counter() - start


def cli_call(name: str, gen: workloads.Generated, call: int, env: dict, work: Path) -> dict:
    """One CLI call and its oracle check."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    child = Child([sys.executable, *CLI, *gen.args_for(call), "--in", str(gen.path),
                   "--out", str(out)], env, work / "call.log")
    if child.code == 0:
        failures, fit = oracles.check(name, gen.truth, out, gen.threshold)
    else:
        log = (work / "call.log").read_text(errors="replace").strip()
        failures, fit = [f"exit code {child.code}: {log[-300:]}"], None
    for failure in failures:
        print(f"{name} call {call}: {failure}", file=sys.stderr)
    return {"seconds": child.seconds, "rss_mb": child.rss_mb, "failed": bool(failures),
            "fit": fit, "hung": child.seconds >= CALL_TIMEOUT_S}


def traced_run(name: str, gen: workloads.Generated, call: int, env: dict, work: Path) -> dict:
    """One traced child making CLI call ``call``; returns its spans and counts."""
    out = work / "traced"
    shutil.rmtree(out, ignore_errors=True)
    spec = {"argv": [*gen.args_for(call), "--in", str(gen.path), "--out", str(out)],
            "spans": str(work / "spans.json"), "run_id": f"{name}-{call}",
            "t0": time.clock_gettime(time.CLOCK_MONOTONIC)}
    child = Child([sys.executable, str(Path(__file__).with_name("traced.py")), json.dumps(spec)],
                  env, work / "traced.log")
    if child.code != 0:
        raise RuntimeError(f"traced run failed: {(work / 'traced.log').read_text()[-2000:]}")
    trace = json.loads((work / "spans.json").read_text())
    trace["counts"]["ingest.bytes_in"] = gen.path.stat().st_size
    trace["counts"]["ingest.bytes_out"] = sum(f.stat().st_size for f in out.iterdir())
    return trace


def call_loop(name: str, gen: workloads.Generated, seconds: float, trace: bool,
              env: dict, work: Path) -> list[dict]:
    """Closed loop of CLI calls for ``seconds``; returns per-call records.

    Each CLI call is bracketed by two runs of ``reference``; their summed
    time is the record's ``ref``.  Without ``trace``, the second reference
    run is followed by one setup timing, scaled by the same ``ref``, so the
    setup timings span the run and see the same drift as the calls.
    With ``trace``, each CLI call is followed by a traced run of the same
    call, and the record gets that pair's per-layer metrics.  Pairing the two
    runs in time keeps drift out of the differences between them
    (``cli.residual_s``, ``trace.overhead_s``).
    """
    calls = []
    deadline = time.monotonic() + seconds
    while len(calls) < MIN_CALLS or (
            len(calls) < MAX_CALLS
            and time.monotonic() + statistics.median(c["elapsed"] for c in calls) <= deadline):
        start = time.monotonic()
        ref = reference()
        call = cli_call(name, gen, len(calls), env, work)
        call["ref"] = ref + reference()
        if not trace:
            call["setup"] = measure_setup(env, work)
        elif not call["hung"]:
            call["layers"] = layer_metrics(traced_run(name, gen, len(calls), env, work),
                                           call["seconds"], call["ref"])
        call["elapsed"] = time.monotonic() - start
        calls.append(call)
        if call["hung"]:
            break
    return calls


def layer_metrics(trace: dict, call_s: float, ref_s: float) -> dict:
    """Per-layer values of one traced run paired with a CLI call of ``call_s``.

    These are raw wall times, not scaled like ``run_s``: ``cli.wall_s`` is
    the paired call's own and ``bench.reference_s`` the time of the two
    reference runs around it, which shows the machine's speed.

    A function's time is the sum of its spans, nested ones included, or for
    a probed function its one probe call; the coverage sum behind
    ``cli.residual_s`` takes only the spans directly under the pipeline, so
    nested time is not counted twice.
    """
    spans = trace["spans"]
    values = {f"{name}_s": 0.0 for name in SPAN_METRICS}
    probed = {s["name"] for s in spans if s["parent"] == "probe"}
    for s in spans:
        key = f"{s['name']}_s"
        if key in values and (s["parent"] == "probe") == (s["name"] in probed):
            values[key] += s["end"] - s["start"]
    values.update({name: 0 for name in COUNT_METRICS})
    values.update(trace["counts"])
    layer_spans = sum(s["end"] - s["start"] for s in spans if s["parent"] == "pipeline")
    pipeline = next(s for s in spans if s["name"] == "pipeline")
    iterations = values["mds.iterations"]
    values["mds.s_per_iteration"] = (
        (values["mds.mds_s"] - values["mds.classical_init_s"]) / iterations if iterations else 0.0)
    values["cli.residual_s"] = call_s - layer_spans
    values["cli.wall_s"] = call_s
    values["bench.reference_s"] = ref_s
    values["trace.total_s"] = pipeline["end"]
    values["trace.overhead_s"] = pipeline["end"] - call_s
    return {k: values[k] for k in LAYER_UNITS}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None, work: Path | None = None) -> dict:
    """Generate, set up, loop and (optionally) trace one workload; return the result."""
    work = work or WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        gen = workloads.generate(name, seed, work / "input", sizes)
        env = child_env()
        warm_up(env, work)
        calls = call_loop(name, gen, seconds, trace, env, work)
        failed = sum(c["failed"] for c in calls)
        if trace:
            traced = [c["layers"] for c in calls if "layers" in c]
            metrics = {k: {"value": statistics.median(t[k] for t in traced) if traced else 0.0,
                           "unit": unit} for k, unit in LAYER_UNITS.items()}
        else:
            fits = [c["fit"] for c in calls[:MIN_CALLS] if not c["failed"]]
            # A call (1-2 s) outlasts the speed's swings, so the two 15-ms
            # reference runs around it are a poor sample of its own speed: over
            # ten 30-s runs of records-factor, scaling each call by its own pair
            # left a spread of 0.125, scaling the run's median call by the run's
            # median pair 0.086 (raw: 0.179).  A setup timing is short and
            # follows its pair directly, so it is scaled by that pair: spread
            # 0.058, against 0.120 with the run's median pair.
            speed = REF_NOMINAL_S / statistics.median(c["ref"] for c in calls)
            metrics = {
                "run_s": statistics.median(c["seconds"] for c in calls)
                * (speed if workloads.WORKLOADS[name].scaled else 1.0),
                "setup_s": statistics.median(c["setup"] * REF_NOMINAL_S / c["ref"]
                                             for c in calls),
                "peak_rss_mb": statistics.median(c["rss_mb"] for c in calls),
                "fit_loss": min(fits) if fits else 0.0,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        return {"correct": failed == 0, "attempted": len(calls), "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent == WORK and not any(WORK.iterdir()):
            WORK.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cocmap" / "cli.py").is_file():
        print(f"error: no cocmap source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": environment()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
