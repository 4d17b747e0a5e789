"""Output oracles: independent numpy checks of what one CLI call wrote.

Each check reads the files a workload's CLI call wrote to its output
directory and compares them with the benchmark's own ground truth (the
generator's arrays), never with values computed by cocmap.  A check returns
``(failures, fit_loss)``: the list of failed assertions (empty when the
output is correct) and the workload's fit figure read from the output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

PEARSON_TOL = 1e-12
STRESS_RTOL = 1e-7
SPEARMAN_MIN = 0.9
FACTOR_TOL = 1e-8


def read_square_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    labels = rows[0][1:]
    data = np.array([[float(c) if c.strip() else math.nan for c in row[1:]]
                     for row in rows[1:]], dtype=float)
    return labels, data


def read_table_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Labeled rows of floats after a header line (coordinates, loadings)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    return [row[0] for row in rows[1:]], np.array(
        [[float(c) for c in row[1:]] for row in rows[1:]], dtype=float)


def read_report(out: Path, command: str) -> dict:
    return json.loads((out / f"{command}_report.json").read_text(encoding="utf-8"))


def pairwise(X: np.ndarray) -> np.ndarray:
    return np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))


def ranks(v: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean of their positions)."""
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    r = np.empty(v.size)
    start = 0
    while start < v.size:
        stop = start + 1
        while stop < v.size and sorted_v[stop] == sorted_v[start]:
            stop += 1
        r[order[start:stop]] = (start + stop - 1) / 2.0
        start = stop
    return r


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.corrcoef(ranks(a), ranks(b))[0, 1])


def ratio_stress(delta: np.ndarray, X: np.ndarray) -> float:
    """Normalized raw stress of X against ratio disparities scaled to n(n-1)/2."""
    iu = np.triu_indices(delta.shape[0], 1)
    dv = delta[iu]
    dhat = dv * math.sqrt(dv.size / float((dv * dv).sum()))
    return float(((dhat - pairwise(X)[iu]) ** 2).sum()) / dv.size


def varimax_criterion(L: np.ndarray) -> float:
    """Varimax criterion of loadings after Kaiser row normalization."""
    norm = np.sqrt((L**2).sum(axis=1))
    Ln = L / np.where(norm > 0, norm, 1.0)[:, None]
    sq = Ln**2
    return float(((sq**2).mean(axis=0) - sq.mean(axis=0) ** 2).sum())


def check_records_mds(truth: np.ndarray, out: Path, threshold=None):
    failures = []
    R = np.corrcoef(truth.T.astype(float))
    _, pearson = read_square_csv(out / "pearson.csv")
    err = float(np.abs(pearson - R).max())
    if not err <= PEARSON_TOL:
        failures.append(f"pearson.csv differs from np.corrcoef by {err:.3g}")
    _, X = read_table_csv(out / "configuration.csv")
    stress = float(read_report(out, "pipeline")["results"]["stress"])
    if not np.isfinite(X).all():
        failures.append("configuration.csv has non-finite coordinates")
        return failures, stress
    delta = (1.0 - R) / 2.0  # shift (r + 1) / 2, then max - similarity
    np.fill_diagonal(delta, 0.0)
    mine = ratio_stress(delta, X)
    if not abs(mine - stress) <= STRESS_RTOL * max(abs(mine), 1e-12):
        failures.append(f"reported stress {stress!r} but configuration gives {mine!r}")
    return failures, stress


def check_records_layout(truth: np.ndarray, out: Path, threshold: int):
    failures = []
    present = (truth > 0).astype(float)
    counts = np.rint(present.T @ present)
    _, written = read_square_csv(out / "cooccurrence.csv")
    if written.shape != counts.shape or not np.array_equal(written, counts):
        failures.append("cooccurrence.csv differs from the count product")
    iu = np.triu_indices(counts.shape[0], 1)
    expected = int((counts[iu] >= threshold).sum())
    lines = (out / "layout.net").read_text(encoding="utf-8").splitlines()
    edge_lines = lines[lines.index("*Edges") + 1:] if "*Edges" in lines else []
    if len(edge_lines) != expected:
        failures.append(f"layout.net has {len(edge_lines)} edges, expected {expected}")
    energy = float(read_report(out, "pipeline")["results"]["final_energy"])
    if not (np.isfinite(energy) and energy > 0):
        failures.append(f"layout energy {energy!r} is not a positive number")
    return failures, energy


def check_matrix_ordinal(truth: np.ndarray, out: Path, threshold=None):
    failures = []
    _, X = read_table_csv(out / "configuration.csv")
    stress = float(read_report(out, "mds")["results"]["stress"])
    if X.shape[0] != truth.shape[0] or not np.isfinite(X).all():
        failures.append("configuration.csv is missing points or has non-finite coordinates")
        return failures, stress
    iu = np.triu_indices(truth.shape[0], 1)
    rho = spearman(truth[iu], pairwise(X)[iu])
    if not rho > SPEARMAN_MIN:
        failures.append(f"Spearman rho {rho:.4f} between input and map distances <= {SPEARMAN_MIN}")
    if not (np.isfinite(stress) and stress > 0):
        failures.append(f"stress {stress!r} is not a positive number")
    return failures, stress


def check_records_factor(truth: np.ndarray, out: Path, threshold=None):
    failures = []
    R = np.corrcoef(truth.T.astype(float))
    values, vectors = np.linalg.eigh(R)
    values, vectors = values[::-1], vectors[:, ::-1]
    reported = np.array(read_report(out, "factor")["results"]["eigenvalues"], dtype=float)
    if reported.shape != values.shape or not np.abs(reported - values).max() <= FACTOR_TOL:
        failures.append("reported eigenvalues differ from np.linalg.eigvalsh")
    _, L = read_table_csv(out / "loadings.csv")
    m = L.shape[1]
    if m != max(1, int((values > 1.0).sum())):
        failures.append(f"{m} factors written, Kaiser criterion gives {(values > 1.0).sum()}")
    top = np.maximum(values[:m], 0.0)
    communality = (vectors[:, :m] ** 2 * top).sum(axis=1)
    if L.shape[0] != communality.size or not np.abs((L**2).sum(axis=1) - communality).max() <= FACTOR_TOL:
        failures.append("loading communalities differ from the unrotated top-m communalities")
    criterion = varimax_criterion(L)
    if not criterion > 0:
        failures.append(f"varimax criterion {criterion!r} is not positive")
        return failures, math.inf
    return failures, 1.0 / criterion


CHECKS = {
    "records-mds": check_records_mds,
    "records-layout": check_records_layout,
    "matrix-ordinal": check_matrix_ordinal,
    "records-factor": check_records_factor,
}


def check(name: str, truth: np.ndarray, out: Path, threshold=None):
    """Run the workload's oracle; unreadable or missing output is a failure."""
    try:
        return CHECKS[name](truth, out, threshold)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], None
