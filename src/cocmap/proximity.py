"""Similarity and dissimilarity measures over occurrence-matrix columns.

The measures here turn an asymmetric documents x attributes matrix into a
symmetric proximity matrix by comparing attribute columns pairwise: Pearson
correlation (optionally shifted to [0, 1]), cosine, Jaccard on supports, and
Euclidean distance.  Conversions between the similarity and dissimilarity
representations live here as well.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import NegativeResult, OutOfRange, ZeroNormColumn, ZeroVarianceColumn
from .matrices import OccurrenceMatrix, ProximityMatrix, count_product


def _column_pearson(X: np.ndarray, labels) -> np.ndarray:
    # population form (divide by n in covariance and variances); the ratio is
    # identical to the sample form but fixes the arithmetic for reproducibility
    n = X.shape[0]
    centered = X - X.mean(axis=0)
    var = (centered**2).sum(axis=0) / n
    for j, v in enumerate(var):
        if v == 0.0:
            raise ZeroVarianceColumn(labels[j])
    cov = (centered.T @ centered) / n
    r = cov / np.sqrt(np.outer(var, var))
    r = np.clip(r, -1.0, 1.0)
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    return r


def pearson_columns(A: OccurrenceMatrix) -> ProximityMatrix:
    """Column-pairwise Pearson correlation of an occurrence matrix.

    Returns a similarity matrix with values in [-1, 1] and a unit diagonal.
    Constant columns raise :class:`ZeroVarianceColumn`; they are never
    silently dropped or imputed.
    """
    X = np.asarray(A.data, dtype=float)
    r = _column_pearson(X, A.cols)
    return ProximityMatrix(A.cols, r, kind="similarity")


def shift_pearson(R: ProximityMatrix) -> ProximityMatrix:
    """Map correlations through (r + 1) / 2, yielding values in [0, 1]."""
    if R.kind != "similarity":
        raise ValueError("shift_pearson expects a similarity matrix")
    data = np.asarray(R.data)
    if np.nanmax(np.abs(data)) > 1.0 + 1e-12:
        raise OutOfRange("entries must lie in [-1, 1] before shifting")
    shifted = (np.clip(data, -1.0, 1.0) + 1.0) / 2.0
    np.fill_diagonal(shifted, 1.0)
    return ProximityMatrix(R.labels, shifted, kind="similarity")


def cosine_columns(A: OccurrenceMatrix) -> ProximityMatrix:
    """Cosine of the angle between attribute columns.

    Analogous to the Pearson measure but without centering on the column
    mean; for non-negative counts all values lie in [0, 1].
    """
    X = np.asarray(A.data, dtype=float)
    norms = np.sqrt((X**2).sum(axis=0))
    for j, v in enumerate(norms):
        if v == 0.0:
            raise ZeroNormColumn(A.cols[j])
    c = (X.T @ X) / np.outer(norms, norms)
    c = np.clip(c, -1.0, 1.0)
    c = (c + c.T) / 2.0
    np.fill_diagonal(c, 1.0)
    return ProximityMatrix(A.cols, c, kind="similarity")


def jaccard_columns(A: OccurrenceMatrix) -> ProximityMatrix:
    """Jaccard index over column supports (documents with a positive count).

    An empty intersection over an empty union is defined as 0.  Columns with
    empty support get a zero diagonal entry and a warning instead of an
    error, since the measure is still well defined everywhere else.
    """
    inter = count_product(np.asarray(A.data) > 0, A.cols)
    sizes = np.diagonal(inter)
    union = sizes[:, None] + sizes[None, :] - inter
    with np.errstate(invalid="ignore"):
        j = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
    empty = sizes == 0
    if np.any(empty):
        names = [A.cols[i] for i in np.flatnonzero(empty)]
        warnings.warn(
            f"columns with empty support get a zero self-similarity: {names}",
            stacklevel=2,
        )
    return ProximityMatrix(A.cols, j, kind="similarity")


def euclidean_columns(A: OccurrenceMatrix) -> ProximityMatrix:
    """Euclidean distance between attribute columns (a dissimilarity).

    Distances come from the Gram form ``sqrt(sq_i + sq_j - 2 G_ij)``, one
    BLAS product over thousands of documents.  The form cancels when two
    columns are nearly equal: at counts near 1e8 it can put two copies of a
    column 45 apart.  A pair whose squared distance falls below 1e-6 of
    ``sq_i + sq_j`` is recomputed from the column difference, so equal
    columns are at 0.
    """
    X = np.asarray(A.data, dtype=float).T
    sq = (X**2).sum(axis=1)
    # (sq_i + sq_j) - 2 G_ij, in place; that order keeps the result symmetric
    d = sq[:, None] + sq
    d -= 2.0 * (X @ X.T)
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    close = d * d <= 1e-6 * (sq[:, None] + sq)
    np.fill_diagonal(close, False)
    for i in np.flatnonzero(close.any(axis=1)):
        js = np.flatnonzero(close[i])
        d[i, js] = d[js, i] = np.sqrt(((X[js] - X[i]) ** 2).sum(axis=1))
    np.fill_diagonal(d, 0.0)
    return ProximityMatrix(A.cols, d, kind="dissimilarity")


def to_dissimilarity(S: ProximityMatrix, constant: float | str = "auto") -> ProximityMatrix:
    """Turn a similarity matrix upside down via (constant - similarity).

    With ``constant="auto"`` the constant is the maximum entry of the matrix
    (diagonal included), which guarantees non-negative distances.  A fixed
    constant smaller than some similarity raises :class:`NegativeResult`.
    The diagonal is forced to zero.
    """
    if S.kind != "similarity":
        raise ValueError("to_dissimilarity expects a similarity matrix")
    data = np.asarray(S.data, dtype=float)
    if constant == "auto":
        c = float(np.nanmax(data))
    else:
        c = float(constant)
    d = c - data
    off = ~np.eye(S.n, dtype=bool)
    bad = off & (d < -1e-12)
    if np.any(bad & ~np.isnan(d)):
        i, j = np.argwhere(bad)[0]
        raise NegativeResult(
            f"constant {c:g} is smaller than similarity {data[i, j]:g} "
            f"at ({S.labels[i]!r}, {S.labels[j]!r})"
        )
    d = np.where(np.isnan(d), np.nan, np.maximum(d, 0.0))
    np.fill_diagonal(d, 0.0)
    return ProximityMatrix(S.labels, d, kind="dissimilarity")


def pearson_of_proximities(P: ProximityMatrix) -> ProximityMatrix:
    """Column-pairwise Pearson correlation of an already-square proximity matrix.

    Correlating the rows of a proximity matrix (diagonal included as data)
    re-normalizes each column against its mean and generally distorts the
    configuration recovered by scaling; it is provided to let callers
    demonstrate exactly that effect, not as a recommended preprocessing step.
    """
    X = np.asarray(P.data, dtype=float)
    r = _column_pearson(X, P.labels)
    return ProximityMatrix(P.labels, r, kind="similarity")
