"""Tests of the benchmark itself: generators, oracles and a small smoke run.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "records-mds": {"docs": 300, "attrs": 20, "mean_cites": 4.0, "topics": 4},
    "records-layout": {"docs": 600, "attrs": 30, "mean_cites": 3.0, "topics": 4,
                       "threshold": 3, "diameter": None},
    "matrix-ordinal": {"points": 60},
    "records-factor": {"docs": 400, "attrs": 24, "topics": 8},
}
# per-layer metrics each workload must reach in its traced run, nested calls included
REACHED = {
    "records-mds": ("proximity.to_dissimilarity_s", "factor.eigen_symmetric_s",
                    "mds.classical_init_s", "ingest.serialize_square_matrix_s",
                    "mds.iterations"),
    "records-layout": ("matrices.cooccurrence_s", "layout.shortest_path_lengths_s",
                       "layout.components", "layout.passes"),
    "matrix-ordinal": ("ingest.parse_square_matrix_s", "mds.transform_disparities_s"),
    "records-factor": ("proximity.pearson_columns_s", "factor.eigen_symmetric_s",
                       "factor.varimax_sweeps", "factor.n_factors"),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def cli_output(name: str, tmp_path: Path, seed: int = 3):
    """Generate a small input, run the CLI on it once, return (generated, out dir)."""
    gen = workloads.generate(name, seed, tmp_path / "input", SMALL[name])
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, *run.CLI, *gen.args_for(0), "--in", str(gen.path), "--out", str(out)],
        env=run.child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    failures, fit = oracles.check(name, gen.truth, out, gen.threshold)
    assert failures == [] and fit > 0
    return gen, out


def rewrite_cell(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def reverse_coordinates(path: Path) -> None:
    """Keep the labels but hand the coordinates out in reverse point order."""
    head, *rows = path.read_text().splitlines()
    labels = [r.split(",", 1)[0] for r in rows]
    coords = [r.split(",", 1)[1] for r in rows]
    path.write_text("\n".join([head] + [f"{lab},{c}" for lab, c in zip(labels, coords[::-1])]) + "\n")


def rewrite_report(path: Path, fn) -> None:
    report = json.loads(path.read_text())
    fn(report["results"])
    path.write_text(json.dumps(report))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    a = workloads.generate(name, 7, tmp_path / "a", SMALL[name])
    b = workloads.generate(name, 7, tmp_path / "b", SMALL[name])
    c = workloads.generate(name, 8, tmp_path / "c", SMALL[name])
    assert a.path.read_bytes() == b.path.read_bytes()
    assert a.args_for(5) == b.args_for(5)
    assert a.path.read_bytes() != c.path.read_bytes()


@pytest.mark.parametrize("name", ["records-mds", "records-layout", "records-factor"])
def test_full_size_records_are_valid_for_several_seeds(name, tmp_path):
    s = workloads.WORKLOADS[name].sizes
    for seed in range(4):
        gen = workloads.generate(name, seed, tmp_path / str(seed))
        present = gen.truth > 0
        assert gen.truth.shape == (s["docs"], s["attrs"])
        assert present.any(axis=0).all() and not present.all(axis=0).any()
        if gen.threshold is not None:
            adjacency, giant = workloads.giant_component(gen.truth, gen.threshold)
            assert workloads.hop_diameter(adjacency, giant) == s["diameter"]


CORRUPTIONS = {
    "records-mds": [
        lambda out: rewrite_cell(out / "pearson.csv", 2, 3, lambda c: repr(float(c) + 1e-9)),
        lambda out: rewrite_report(out / "pipeline_report.json",
                                   lambda r: r.update(stress=r["stress"] * (1 + 1e-5))),
        lambda out: rewrite_cell(out / "configuration.csv", 4, 1, lambda c: "nan"),
    ],
    "records-layout": [
        lambda out: rewrite_cell(out / "cooccurrence.csv", 2, 5, lambda c: str(int(c) + 1)),
        lambda out: (out / "layout.net").write_text(
            "\n".join((out / "layout.net").read_text().splitlines()[:-1]) + "\n"),
    ],
    "matrix-ordinal": [
        lambda out: reverse_coordinates(out / "configuration.csv"),
        lambda out: rewrite_cell(out / "configuration.csv", 3, 2, lambda c: "inf"),
    ],
    "records-factor": [
        lambda out: rewrite_report(out / "factor_report.json",
                                   lambda r: r["eigenvalues"].__setitem__(0, r["eigenvalues"][0] + 1e-6)),
        lambda out: rewrite_cell(out / "loadings.csv", 3, 1, lambda c: repr(float(c) * 1.001)),
        lambda out: (out / "loadings.csv").write_text("\n".join(
            ln.rsplit(",", 1)[0] for ln in (out / "loadings.csv").read_text().splitlines()) + "\n"),
    ],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_oracle_rejects_corrupted_output(name, tmp_path):
    gen, out = cli_output(name, tmp_path)
    pristine = tmp_path / "pristine"
    shutil.copytree(out, pristine)
    for corrupt in CORRUPTIONS[name]:
        shutil.rmtree(out)
        shutil.copytree(pristine, out)
        corrupt(out)
        failures, _ = oracles.check(name, gen.truth, out, gen.threshold)
        assert failures, f"{name}: a corruption went unnoticed"


def test_missing_output_is_a_failure(tmp_path):
    gen = workloads.generate("records-mds", 1, tmp_path / "input", SMALL["records-mds"])
    failures, fit = oracles.check("records-mds", gen.truth, tmp_path / "nothing")
    assert failures and fit is None


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_smoke_run(name, trace, tmp_path):
    assert name in {w["name"] for w in SPEC["workloads"]}
    result = run.run_workload(name, 5, 0.1, trace, sizes=SMALL[name], work=tmp_path / "w")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_CALLS
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["cli.residual_s"] >= 0
        assert values["ingest.bytes_in"] > 0 and values["ingest.bytes_out"] > 0
        assert values["cli.wall_s"] > 0 and values["bench.reference_s"] > 0
        assert all(values[k] > 0 for k in REACHED[name]), name
    assert not (tmp_path / "w").exists()


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = SPEC["command"] + ["--workload", "records-mds", "--seed", "1", "--seconds", "1",
                             "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
