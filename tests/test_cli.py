"""End-to-end command-line behavior: demos, pipelines, reports, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cocmap import builtin_dataset, mds
from cocmap.cli import _coords_csv, run

FIGURE2_RECORDS = "1\tA;B;D\n2\tC;D\n3\tC;D\n4\tA;B\n5\tA;B;D\n"


@pytest.fixture()
def records_file(tmp_path):
    path = tmp_path / "records.txt"
    path.write_text(FIGURE2_RECORDS, encoding="utf-8")
    return path


def read_report(out_dir, name):
    return json.loads((out_dir / f"{name}_report.json").read_text())


class TestDemos:
    def test_cities_correct(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["demo", "cities-correct", "--out", str(out)]) == 0
        report = read_report(out, "demo_cities_correct")
        assert report["results"]["stress"] <= 0.005
        assert (out / "cities_map.svg").exists()
        assert "stress" in capsys.readouterr().out

    def test_each_demo_finishes_quickly(self, tmp_path):
        for name in ("cities-correct", "cities-distorted", "figure3"):
            start = time.perf_counter()
            assert run(["demo", name, "--out", str(tmp_path / name)]) == 0
            assert time.perf_counter() - start < 5.0

    def test_cities_distorted(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["demo", "cities-distorted", "--out", str(out)]) == 0
        report = read_report(out, "demo_cities_distorted")
        correct = json.loads(
            '{"stress": 3.4269103139777992e-06}'
        )  # frozen from the direct run
        assert report["results"]["stress"] > 10 * correct["stress"]
        assert "distort" in capsys.readouterr().out

    def test_figure3_prints_three_decimal_matrix(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["demo", "figure3", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "1.000" in text
        assert "0.296" in text  # exact value of the shifted correlation
        assert "0.704" in text
        report = read_report(out, "demo_figure3")
        matrix = np.array(report["results"]["matrix"])
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-9)


class TestBuildAndProx:
    def test_build_cooccurrence(self, tmp_path, records_file):
        out = tmp_path / "out"
        code = run(["build", "--in", str(records_file), "--out", str(out)])
        assert code == 0
        text = (out / "cooccurrence.csv").read_text()
        assert text.splitlines()[0] == ",A,B,C,D"
        # pair (A, B) co-occurs in three documents
        assert text.splitlines()[1].split(",")[2] == "3"

    def test_matrix_format_counts_are_written_exactly(self, tmp_path):
        # a counts CSV read with --format matrix; the products pass float64's exact range
        a, b = 3037000499, 3037000500
        path = tmp_path / "counts.csv"
        path.write_text(f",x,y\nd1,{a},{b}\nd2,1,0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(["build", "--in", str(path), "--format", "matrix",
                    "--derive", "affiliations", "--out", str(out)]) == 0
        assert (out / "affiliations.csv").read_text() == (
            f",x,y\nx,{a * a + 1},{a * b}\ny,{a * b},{b * b}\n")

    def test_prox_pearson_shift(self, tmp_path, records_file):
        out = tmp_path / "out"
        code = run([
            "prox", "--in", str(records_file), "--measure", "pearson",
            "--shift", "--out", str(out),
        ])
        assert code == 0
        text = (out / "pearson.csv").read_text()
        assert "0.295875" in text  # (A, D) cell at full precision

    @pytest.mark.parametrize("measure", ["cosine", "jaccard", "euclidean"])
    def test_shift_on_non_pearson_measure_is_usage_error(self, tmp_path, records_file,
                                                         capsys, measure):
        out = tmp_path / "out"
        code = run(["prox", "--in", str(records_file), "--measure", measure,
                    "--shift", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--shift" in err and measure in err
        assert not out.exists()

    def test_zero_variance_column_is_a_data_error(self, tmp_path):
        path = tmp_path / "records.txt"
        path.write_text("d1\tA;B\nd2\tA;B\n", encoding="utf-8")
        code = run(["prox", "--in", str(path), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_error_names_module_and_error(self, tmp_path, capsys):
        path = tmp_path / "records.txt"
        path.write_text("d1\tA;B\nd2\tA;B\n", encoding="utf-8")
        run(["prox", "--in", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert "proximity.ZeroVarianceColumn" in err

    def test_prox_has_no_level_flag(self, tmp_path, records_file, capsys):
        # the measurement level belongs to scaling: mds and pipeline take it
        out = tmp_path / "out"
        code = run(["prox", "--in", str(records_file), "--level", "ordinal",
                    "--out", str(out)])
        assert code == 2
        assert "--level" in capsys.readouterr().err
        assert not out.exists()

    def test_prox_report_config(self, tmp_path, records_file):
        out = tmp_path / "out"
        assert run(["prox", "--in", str(records_file), "--out", str(out)]) == 0
        assert read_report(out, "prox")["config"] == {"measure": "pearson", "shift": False}


class TestMdsCommand:
    def test_builtin_cities(self, tmp_path):
        out = tmp_path / "out"
        code = run(["mds", "--builtin", "cities", "--out", str(out)])
        assert code == 0
        report = read_report(out, "mds")
        assert report["results"]["stress"] <= 0.005
        assert (out / "configuration.csv").exists()

    def test_random_init_without_seed_is_usage_error(self, tmp_path):
        code = run([
            "mds", "--builtin", "cities", "--init", "random",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run(["mds", "--out", str(tmp_path / "o")]) == 2

    def test_ordinal_level_flag(self, tmp_path):
        out = tmp_path / "out"
        code = run([
            "mds", "--builtin", "figure1", "--kind", "sim",
            "--level", "ordinal", "--out", str(out),
        ])
        assert code == 0
        assert read_report(out, "mds")["config"]["level"] == "ordinal"


    @pytest.mark.parametrize("bad", ["inf", "-inf"])
    def test_infinite_cell_is_a_data_error(self, tmp_path, capsys, bad):
        path = tmp_path / "m.csv"
        path.write_text(f",a,b,c\na,0,1,2\nb,1,0,{bad}\nc,2,{bad},0\n", encoding="utf-8")
        code = run(["mds", "--in", str(path), "--kind", "dissim", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "infinite" in capsys.readouterr().err
        assert not (tmp_path / "o" / "configuration.csv").exists()

    def test_oversized_csv_field_is_a_data_error(self, tmp_path, capsys):
        # one field beyond the csv module's 131072-character limit
        path = tmp_path / "m.csv"
        path.write_text(f",a,b\na,0,1\nb,1,{'9' * 200_000}\n", encoding="utf-8")
        code = run(["mds", "--in", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "ingest.MalformedLine" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_label_with_quote_and_comma_reads_back(self, tmp_path):
        labels = ["plain", 'Smith, "J."', "x,y"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + labels)
        D = [[0, 3, 4], [3, 0, 5], [4, 5, 0]]
        for label, row in zip(labels, D):
            writer.writerow([label] + row)
        path = tmp_path / "m.csv"
        path.write_text(buf.getvalue(), encoding="utf-8")
        out = tmp_path / "out"
        assert run(["mds", "--in", str(path), "--out", str(out)]) == 0
        with open(out / "configuration.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "dim1", "dim2"]
        assert [r[0] for r in rows[1:]] == labels
        assert all(len(r) == 3 for r in rows)


def test_coords_csv_bytes_for_ordinary_labels():
    text = _coords_csv(("a", "b,c", "d e"), np.array([[1.0, 2.0], [3.5, -0.25], [0.1, 0.0]]))
    assert text == 'label,dim1,dim2\na,1.0,2.0\n"b,c",3.5,-0.25\nd e,0.1,0.0\n'


class TestFactorCommand:
    def test_factor_table_written(self, tmp_path, records_file):
        out = tmp_path / "out"
        code = run([
            "factor", "--in", str(records_file), "--factors", "2",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "loadings.csv").exists()
        assert (out / "loadings.txt").exists()
        report = read_report(out, "factor")
        assert len(report["results"]["eigenvalues"]) == 4

    def test_defaults_with_one_kaiser_factor(self, tmp_path, capsys):
        # figure 2 has one eigenvalue above 1, and varimax is the default
        out = tmp_path / "out"
        assert run(["factor", "--builtin", "figure2", "--out", str(out)]) == 0
        results = read_report(out, "factor")["results"]
        assert len(results["explained_variance_pct"]) == 1
        assert results["rotation_iterations"] == 0
        assert results["last_criterion_change"] == 0.0
        assert "(varimax;" in capsys.readouterr().out

    def test_unrotated_report_has_no_criterion(self, tmp_path, records_file):
        out = tmp_path / "out"
        assert run(["factor", "--in", str(records_file), "--factors", "2", "--rotate", "none",
                    "--out", str(out)]) == 0
        results = read_report(out, "factor")["results"]
        assert not {"varimax_criterion", "last_criterion_change", "converged"} & set(results)


class TestLayoutCommand:
    def test_layout_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = run(["layout", "--builtin", "figure1", "--out", str(out)])
        assert code == 0
        net = (out / "layout.net").read_text()
        assert net.startswith("*Vertices 4")
        assert (out / "layout.svg").exists()


class TestPipeline:
    def test_full_chain(self, tmp_path, records_file):
        out = tmp_path / "out"
        code = run([
            "pipeline", "--in", str(records_file),
            "--steps", "pearson,shift,mds", "--out", str(out),
        ])
        assert code == 0
        report = read_report(out, "pipeline")
        assert "stress" in report["results"]
        assert (out / "configuration.csv").exists()

    def test_layout_chain(self, tmp_path, records_file):
        out = tmp_path / "out"
        code = run([
            "pipeline", "--in", str(records_file),
            "--steps", "cooccurrence,layout", "--out", str(out),
        ])
        assert code == 0
        assert (out / "layout.net").exists()

    def test_bad_chain_fails_before_reading_input(self, tmp_path):
        missing = tmp_path / "does_not_exist.txt"
        code = run([
            "pipeline", "--in", str(missing), "--steps", "mds",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2  # chain validation precedes any file access

    def test_unknown_step(self, tmp_path, records_file):
        code = run([
            "pipeline", "--in", str(records_file), "--steps", "teleport",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2


class TestReports:
    def test_reports_identical_apart_from_timestamp(self, tmp_path, records_file):
        out = tmp_path / "a"
        argv = ["prox", "--in", str(records_file), "--measure", "cosine",
                "--out", str(out)]
        assert run(argv) == 0
        first = (out / "prox_report.json").read_text().splitlines()
        assert run(argv) == 0
        second = (out / "prox_report.json").read_text().splitlines()
        kept1 = [ln for ln in first if '"timestamp"' not in ln]
        kept2 = [ln for ln in second if '"timestamp"' not in ln]
        assert kept1 == kept2

    def test_report_has_input_hash(self, tmp_path, records_file):
        out = tmp_path / "out"
        run(["build", "--in", str(records_file), "--out", str(out)])
        report = read_report(out, "build")
        assert len(report["inputs"]["sha256"]) == 64


class TestSubcommandPipelineParity:
    """Subcommands and ``pipeline`` share one stage table and one writer per stage."""

    def test_mds_results_keys_appear_in_pipeline_report(self, tmp_path, records_file):
        assert run(["mds", "--builtin", "cities", "--out", str(tmp_path / "sub")]) == 0
        assert run(["pipeline", "--in", str(records_file), "--steps", "pearson,shift,mds",
                    "--out", str(tmp_path / "pipe")]) == 0
        sub = read_report(tmp_path / "sub", "mds")["results"]
        pipe = read_report(tmp_path / "pipe", "pipeline")["results"]
        assert set(sub) == {"stress", "iterations", "converged", "last_stress_change",
                            "residual"}
        assert set(sub) <= set(pipe)
        fit = mds(builtin_dataset("cities"))
        history = fit.stress_history
        assert sub["last_stress_change"] == history[-2] - history[-1]
        assert sub["residual"] == fit.residual

    def test_mds_results_match_pipeline_on_the_same_matrix(self, tmp_path, records_file):
        assert run(["prox", "--in", str(records_file), "--measure", "pearson", "--shift",
                    "--out", str(tmp_path / "prox")]) == 0
        assert run(["mds", "--in", str(tmp_path / "prox" / "pearson.csv"), "--kind", "sim",
                    "--out", str(tmp_path / "sub")]) == 0
        assert run(["pipeline", "--in", str(records_file), "--steps", "pearson,shift,mds",
                    "--out", str(tmp_path / "pipe")]) == 0
        sub = read_report(tmp_path / "sub", "mds")["results"]
        pipe = read_report(tmp_path / "pipe", "pipeline")["results"]
        assert sub.items() <= pipe.items()

    def test_layout_results_keys_appear_in_pipeline_report(self, tmp_path, records_file):
        assert run(["layout", "--builtin", "figure1", "--out", str(tmp_path / "sub")]) == 0
        assert run(["pipeline", "--in", str(records_file), "--steps", "cooccurrence,layout",
                    "--out", str(tmp_path / "pipe")]) == 0
        sub = read_report(tmp_path / "sub", "layout")["results"]
        pipe = read_report(tmp_path / "pipe", "pipeline")["results"]
        assert set(sub) == {"final_energy", "iterations", "converged", "residual", "nodes",
                            "edges"}
        assert set(sub) <= set(pipe)

    def test_layout_results_match_pipeline_on_the_same_counts(self, tmp_path, records_file):
        assert run(["build", "--in", str(records_file), "--out", str(tmp_path / "build")]) == 0
        assert run(["layout", "--in", str(tmp_path / "build" / "cooccurrence.csv"),
                    "--out", str(tmp_path / "sub")]) == 0
        assert run(["pipeline", "--in", str(records_file), "--steps", "cooccurrence,layout",
                    "--out", str(tmp_path / "pipe")]) == 0
        sub = read_report(tmp_path / "sub", "layout")["results"]
        pipe = read_report(tmp_path / "pipe", "pipeline")["results"]
        assert sub.items() <= pipe.items()
        for name in ("layout.net", "layout.svg"):
            assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "pipe" / name).read_bytes()

    def test_factor_results_and_table_match_pipeline(self, tmp_path, records_file):
        assert run(["factor", "--in", str(records_file), "--factors", "2",
                    "--out", str(tmp_path / "sub")]) == 0
        assert run(["pipeline", "--in", str(records_file), "--steps", "factor",
                    "--factors", "2", "--out", str(tmp_path / "pipe")]) == 0
        sub = read_report(tmp_path / "sub", "factor")["results"]
        pipe = read_report(tmp_path / "pipe", "pipeline")["results"]
        assert {"varimax_criterion", "last_criterion_change"} <= set(sub)
        assert sub["converged"] is True
        assert sub.items() <= pipe.items()
        for name in ("loadings.csv", "loadings.txt"):
            assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "pipe" / name).read_bytes()

    def test_prox_shift_file_equals_pipeline_shift_file(self, tmp_path, records_file):
        assert run(["prox", "--in", str(records_file), "--measure", "pearson", "--shift",
                    "--out", str(tmp_path / "sub")]) == 0
        assert run(["pipeline", "--in", str(records_file), "--steps", "pearson,shift",
                    "--out", str(tmp_path / "pipe")]) == 0
        assert not (tmp_path / "sub" / "shift.csv").exists()
        assert ((tmp_path / "sub" / "pearson.csv").read_bytes()
                == (tmp_path / "pipe" / "shift.csv").read_bytes())

    def test_pipeline_mds_reports_converged(self, tmp_path, records_file):
        assert run(["pipeline", "--in", str(records_file), "--steps", "pearson,shift,mds",
                    "--out", str(tmp_path / "pipe")]) == 0
        assert read_report(tmp_path / "pipe", "pipeline")["results"]["converged"] is True


def per_cell_coords_csv(labels, coords):
    """Test-only reference: the cell-by-cell writer that ``row.tolist()`` replaced."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label"] + [f"dim{i + 1}" for i in range(coords.shape[1])])
    for label, row in zip(labels, np.asarray(coords)):
        writer.writerow([label] + [repr(float(v)) for v in row])
    return out.getvalue()


@pytest.mark.parametrize("coords", [
    np.array([[-0.0, 1e16], [5e-324, 0.1 + 0.2], [3.0, -1e-300]]),
    np.array([[1, -2], [0, 7], [3, 4]]),
    np.random.default_rng(16).standard_normal((3, 3)),
])
def test_coords_csv_matches_the_per_cell_reference(coords):
    labels = ("a", 'q"b,c', "d e")
    assert _coords_csv(labels, coords) == per_cell_coords_csv(labels, coords)


@pytest.mark.parametrize("module", ["cocmap", "cocmap.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run(
        [sys.executable, "-m", module, "factor", "--builtin", "figure2", "--out", "o"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "(varimax;" in proc.stdout
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
        "factor_report.json", "loadings.csv", "loadings.txt"]
    assert read_report(tmp_path / "o", "factor")["command"] == "factor"
    bad = subprocess.run([sys.executable, "-m", module, "factor"], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert bad.returncode == 2
    assert "provide --in FILE or --builtin NAME" in bad.stderr
    # main() freezes the import heap before the run: a warning, a result
    # line and a data error must still all reach their streams
    capped = subprocess.run(
        [sys.executable, "-m", module, "mds", "--builtin", "cities", "--init", "random",
         "--seed", "1", "--max-iter", "3", "--epsilon", "1e-15", "--out", "m"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (capped.returncode, capped.stdout, capped.stderr) == (
        0, "normalized raw stress: 0.166299 (3 iterations)\n",
        "warning: SMACOF stopped at the cap of 3 iterations; "
        "the last stress change was 0.229\n")
    (tmp_path / "r.txt").write_text("d1\tA;B\nd2\tA:x\n", encoding="utf-8")
    broken = subprocess.run([sys.executable, "-m", module, "factor", "--in", "r.txt"],
                            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert (broken.returncode, broken.stdout, broken.stderr) == (
        1, "", "error: ingest.MalformedLine: line 2: invalid count 'x'\n")


def test_capped_fit_prints_one_warning_line(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run(
        [sys.executable, "-m", "cocmap", "mds", "--builtin", "cities", "--init", "random",
         "--seed", "1", "--max-iter", "3", "--epsilon", "1e-15", "--out", "o"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr.startswith("warning: SMACOF stopped at the cap of 3 iterations; "
                                  "the last stress change was ")
    assert proc.stderr.count("\n") == 1
    assert read_report(tmp_path / "o", "mds")["results"]["converged"] is False


@pytest.mark.filterwarnings("default::UserWarning")
def test_run_prints_the_same_warning_line(tmp_path, capsys):
    code = run(["mds", "--builtin", "cities", "--init", "random", "--seed", "1",
                "--max-iter", "3", "--epsilon", "1e-15", "--out", str(tmp_path / "o")])
    assert code == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: SMACOF stopped at the cap of 3 iterations; "
                          "the last stress change was ")
    assert err.count("\n") == 1


INPUT_COMMANDS = {
    "build": [],
    "prox": [],
    "mds": [],
    "factor": [],
    "layout": [],
    "pipeline": ["--steps", "pearson"],
}


@pytest.mark.parametrize("command", sorted(INPUT_COMMANDS))
@pytest.mark.parametrize("source", [["--in", "junk.txt", "--builtin", "cities"],
                                    ["--builtin", "figure2", "--in", "/nonexistent"]],
                         ids=["in-first", "builtin-first"])
def test_in_and_builtin_together_are_a_usage_error(tmp_path, capsys, command, source):
    out = tmp_path / "out"
    code = run([command, *source, *INPUT_COMMANDS[command], "--out", str(out)])
    assert code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(INPUT_COMMANDS))
def test_no_input_flag_is_a_usage_error(tmp_path, capsys, command):
    code = run([command, *INPUT_COMMANDS[command], "--out", str(tmp_path / "out")])
    assert code == 2
    assert "provide --in FILE or --builtin NAME" in capsys.readouterr().err


def test_mds_flag_defaults_are_the_config_defaults(tmp_path):
    from dataclasses import asdict

    from cocmap import MdsConfig

    out = tmp_path / "out"
    assert run(["mds", "--builtin", "cities", "--out", str(out)]) == 0
    assert read_report(out, "mds")["config"] == {**asdict(MdsConfig()), "kind": "dissimilarity"}


@pytest.mark.parametrize("name, stem, extra", [
    ("cities-correct", "cities_map", set()),
    ("cities-distorted", "cities_distorted", {"direct_stress", "congruence_with_direct_map"}),
])
def test_cities_demo_files_and_report(tmp_path, name, stem, extra):
    out = tmp_path / name
    assert run(["demo", name, "--out", str(out)]) == 0
    report_name = "demo_" + name.replace("-", "_")
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"{stem}.csv", f"{stem}.svg", f"{report_name}_report.json"])
    report = read_report(out, report_name)
    assert report["command"] == f"demo {name}"
    assert report["config"] == {"level": "ratio", "dimensions": 2}
    assert report["inputs"] == {"builtin": "cities"}
    assert report["outputs"] == [str(out / f"{stem}.csv"), str(out / f"{stem}.svg")]
    assert set(report["results"]) == {"stress", "iterations"} | extra
    if extra:
        direct = tmp_path / "direct"
        assert run(["demo", "cities-correct", "--out", str(direct)]) == 0
        correct = read_report(direct, "demo_cities_correct")["results"]["stress"]
        assert report["results"]["direct_stress"] == correct


# (argv without --out, files to write first, exit code, exact stderr)
CLI_OUTCOMES = {
    "factor-on-proximity": (["factor", "--builtin", "cities"], {}, 1,
                            "error: cocmap.CocmapError: builtin 'cities' is not an "
                            "occurrence matrix\n"),
    "mds-on-occurrence": (["mds", "--builtin", "figure2"], {}, 1,
                          "error: cocmap.CocmapError: builtin 'figure2' is not a "
                          "proximity matrix\n"),
    "layout-on-occurrence": (["layout", "--builtin", "figure2"], {}, 1,
                             "error: cocmap.CocmapError: builtin 'figure2' is not a "
                             "co-occurrence matrix\n"),
    "layout-infinite-count": (["layout", "--in", "counts.csv"],
                              {"counts.csv": ",a,b\na,0,\nb,1e400,0\n"}, 1,
                              "error: ingest.MalformedLine: line 3: count cell 'a' "
                              "must be an integer below 2**53, not 1e400\n"),
    "factor-record-count-past-int64": (["factor", "--in", "r.txt"],
                                       {"r.txt": "d1\tA:9223372036854775808;B\n"}, 1,
                                       "error: matrices.CountOverflow: line 1: count for 'A' "
                                       "exceeds the int64 range\n"),
    "factor-record-sum-past-int64": (["factor", "--in", "r.txt"],
                                     {"r.txt": "d1\tA;B\nd2\tA:9223372036854775807;A:1\n"}, 1,
                                     "error: matrices.CountOverflow: line 2: count for 'A' "
                                     "exceeds the int64 range\n"),
    "build-matrix-count-past-int64": (["build", "--in", "m.csv", "--format", "matrix"],
                                      {"m.csv": ",a,b\nd1,9223372036854775808,1\n"}, 1,
                                      "error: matrices.CountOverflow: line 2: count for 'a' "
                                      "exceeds the int64 range\n"),
    "pipeline-no-step": (["pipeline", "--builtin", "figure2", "--steps", ","], {}, 2,
                         "usage error: pipeline needs at least one step\n"),
    "mds-cities-as-similarity": (["mds", "--builtin", "cities", "--kind", "sim"], {}, 0, ""),
    "mds-cooccurrence-as-dissimilarity": (["mds", "--builtin", "figure1", "--kind", "dissim"],
                                          {}, 0, ""),
    "prox-on-cooccurrence": (["prox", "--builtin", "figure1"], {}, 1,
                             "error: cocmap.CocmapError: builtin 'figure1' is not an "
                             "occurrence matrix\n"),
    "layout-on-proximity": (["layout", "--builtin", "cities"], {}, 1,
                            "error: cocmap.CocmapError: builtin 'cities' is not a "
                            "co-occurrence matrix\n"),
    "build-occurrence": (["build", "--builtin", "figure2", "--derive", "occurrence"], {},
                         0, ""),
}


@pytest.mark.parametrize("case", sorted(CLI_OUTCOMES))
def test_cli_outcome(tmp_path, capsys, monkeypatch, case):
    argv, files, code, stderr = CLI_OUTCOMES[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--out", "out"]) == code
    assert capsys.readouterr().err == stderr


def pipeline_config(tmp_path, *argv):
    out = tmp_path / "out"
    assert run(["pipeline", "--builtin", "figure2", *argv, "--out", str(out)]) == 0
    return read_report(out, "pipeline")


class TestReportConfig:
    """A report's config is the command's own choices plus the settings of its steps."""

    def test_pipeline_records_the_mds_settings_it_ran_with(self, tmp_path):
        from dataclasses import asdict

        from cocmap import MdsConfig

        steps = ["pearson", "shift", "mds"]
        fits = {}
        for epsilon in (1e-6, 1e-2):
            report = pipeline_config(tmp_path / str(epsilon), "--steps", ",".join(steps),
                                     "--init", "random", "--seed", "5", "--max-iter", "50",
                                     "--epsilon", str(epsilon))
            assert report["config"] == {"steps": steps, **asdict(MdsConfig(
                init="random", seed=5, max_iterations=50, epsilon=epsilon))}
            fits[epsilon] = report["results"]["iterations"]
        assert fits[1e-6] > fits[1e-2]

    def test_pipeline_records_the_factor_settings_only(self, tmp_path):
        report = pipeline_config(tmp_path, "--steps", "factor", "--factors", "2",
                                 "--rotate", "none")
        assert report["config"] == {"steps": ["factor"], "factors": 2, "rotate": "none",
                                    "kaiser": True}

    def test_pipeline_records_the_settings_of_every_step(self, tmp_path):
        report = pipeline_config(tmp_path, "--steps", "cooccurrence,layout", "--diag", "zero",
                                 "--threshold", "2", "--level", "ordinal")
        assert report["config"] == {"steps": ["cooccurrence", "layout"], "diag": "zero",
                                    "threshold": 2}

    @pytest.mark.parametrize("derive, config", [
        ("occurrence", {"derive": "occurrence"}),
        ("affiliations", {"derive": "affiliations"}),
        ("cooccurrence", {"derive": "cooccurrence", "diag": "zero"}),
    ])
    def test_build_records_diag_only_where_it_is_read(self, tmp_path, derive, config):
        out = tmp_path / "out"
        assert run(["build", "--builtin", "figure2", "--derive", derive, "--diag", "zero",
                    "--out", str(out)]) == 0
        assert read_report(out, "build")["config"] == config

    def test_bad_setting_fails_before_any_file_is_written(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["pipeline", "--builtin", "figure2", "--steps", "pearson,shift,mds",
                    "--dims", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: dimensions must be >= 1\n"
        assert not out.exists()
