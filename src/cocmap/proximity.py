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
from .matrices import INT64_MAX, OccurrenceMatrix, ProximityMatrix, count_product


def pearson_columns(A: OccurrenceMatrix) -> ProximityMatrix:
    """Column-pairwise Pearson correlation of an occurrence matrix.

    Returns a similarity matrix with values in [-1, 1] and a unit diagonal.
    Constant columns raise :class:`ZeroVarianceColumn`; they are never
    silently dropped or imputed.  The correlation comes from exact moments:
    with ``G`` :func:`count_product`'s column products, ``s`` the column
    sums and ``n`` the document count, ``r_ij = (n G_ij - s_i s_j) /
    sqrt((n G_ii - s_i**2) (n G_jj - s_j**2))``.  Numerator and variances
    are exact integers, int64 while ``n**2 * max**2`` fits and Python
    integers past it, so a column is constant exactly when its variance is 0.
    """
    n = A.n_docs
    exact = np.int64 if (n * int(A.data.max(initial=0))) ** 2 <= INT64_MAX else object
    s = A.data.sum(axis=0, dtype=exact)
    num = n * count_product(A.data).astype(exact, copy=False) - np.outer(s, s)
    var = np.diagonal(num)
    for j, v in enumerate(var):
        if v == 0:
            raise ZeroVarianceColumn(A.cols[j])
    root = np.sqrt(var.astype(float))
    r = np.clip(num.astype(float) / np.outer(root, root), -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
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
    mean; for non-negative counts all values lie in [0, 1].  The column
    products are :func:`count_product`'s exact ``G``, so each value is
    ``G_ij / sqrt(G_ii G_jj)`` rounded from exact integers.
    """
    G = count_product(A.data)
    norms = np.sqrt(np.diagonal(G).astype(float))
    for j, v in enumerate(norms):
        if v == 0.0:
            raise ZeroNormColumn(A.cols[j])
    c = np.clip(G.astype(float) / np.outer(norms, norms), -1.0, 1.0)
    np.fill_diagonal(c, 1.0)
    return ProximityMatrix(A.cols, c, kind="similarity")


def jaccard_columns(A: OccurrenceMatrix) -> ProximityMatrix:
    """Jaccard index over column supports (documents with a positive count).

    An empty intersection over an empty union is defined as 0.  Columns with
    empty support get a zero diagonal entry and a warning instead of an
    error, since the measure is still well defined everywhere else.
    """
    inter = count_product(np.asarray(A.data) > 0)
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

    The squared distance ``(sq_i - G_ij) + (sq_j - G_ij)``, whose terms stay
    in int64 where ``G`` does, is formed in exact integers from
    :func:`count_product`'s ``G`` (``sq`` is its diagonal), so each distance
    is the square root of the exact sum, rounded once; equal columns are at exactly 0.
    """
    G = count_product(A.data)
    sq = np.diagonal(G)
    return ProximityMatrix(A.cols, np.sqrt(((sq[:, None] - G) + (sq - G)).astype(float)),
                           kind="dissimilarity")


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
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise NegativeResult(
            f"constant {c:g} is smaller than similarity {data[i, j]:g} "
            f"at ({S.labels[i]!r}, {S.labels[j]!r})"
        )
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return ProximityMatrix(S.labels, d, kind="dissimilarity")


def pearson_of_proximities(P: ProximityMatrix) -> ProximityMatrix:
    """Column-pairwise Pearson correlation of an already-square proximity matrix.

    Correlating the rows of a proximity matrix (diagonal included as data)
    re-normalizes each column against its mean and generally distorts the
    configuration recovered by scaling; it is provided to let callers
    demonstrate exactly that effect, not as a recommended preprocessing step.
    The entries are floats, not counts, so the columns are centered in
    float64 (population form) rather than taken from exact moments.  A
    missing entry raises ``ValueError`` naming its pair: one NaN would
    otherwise spread through whole rows and columns of the correlation.
    """
    X = np.asarray(P.data, dtype=float)
    missing = np.argwhere(np.isnan(X))
    if len(missing):
        i, j = missing[0]
        raise ValueError(f"proximity between {P.labels[i]!r} and {P.labels[j]!r} is missing")
    centered = X - X.mean(axis=0)
    var = (centered**2).sum(axis=0) / P.n
    for j, v in enumerate(var):
        if v == 0.0:
            raise ZeroVarianceColumn(P.labels[j])
    r = (centered.T @ centered) / P.n / np.sqrt(np.outer(var, var))
    r = np.clip(r, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return ProximityMatrix(P.labels, r, kind="similarity")
